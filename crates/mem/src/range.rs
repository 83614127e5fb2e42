//! Byte, page, and block ranges over the UM space.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::{BlockNum, PageNum, UmAddr};
use crate::{PageMask, BLOCK_BYTES, PAGES_PER_BLOCK};

/// A contiguous byte range `[start, start + len)` in the UM space.
///
/// # Example
///
/// ```
/// use deepum_mem::{ByteRange, UmAddr, BLOCK_SIZE};
///
/// let r = ByteRange::new(UmAddr::new(BLOCK_SIZE as u64 - 10), 20);
/// assert_eq!(r.blocks().count(), 2); // straddles a block boundary
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByteRange {
    start: UmAddr,
    len: u64,
}

impl ByteRange {
    /// Creates a range from its start address and byte length.
    pub const fn new(start: UmAddr, len: u64) -> Self {
        ByteRange { start, len }
    }

    /// First byte address of the range.
    pub const fn start(&self) -> UmAddr {
        self.start
    }

    /// One past the last byte of the range.
    pub const fn end(&self) -> UmAddr {
        UmAddr::new(self.start.raw() + self.len)
    }

    /// Byte length.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// True if the range covers no bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` lies inside the range.
    pub fn contains(&self, addr: UmAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// True if the two ranges share at least one byte.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Iterator over every page touched by the range (partial pages count).
    pub fn pages(&self) -> PageRange {
        if self.is_empty() {
            return PageRange {
                next: PageNum::new(0),
                end: PageNum::new(0),
            };
        }
        let first = self.start.page();
        let last = UmAddr::new(self.end().raw() - 1).page();
        PageRange {
            next: first,
            end: last.offset(1),
        }
    }

    /// Iterator over every UM block touched by the range.
    pub fn blocks(&self) -> BlockRange {
        if self.is_empty() {
            return BlockRange {
                next: BlockNum::new(0),
                end: BlockNum::new(0),
            };
        }
        let first = self.start.block();
        let last = UmAddr::new(self.end().raw() - 1).block();
        BlockRange {
            next: first,
            end: last.offset(1),
        }
    }

    /// Number of pages touched by the range.
    pub fn page_count(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            let first = self.start.page().index();
            let last = UmAddr::new(self.end().raw() - 1).page().index();
            last - first + 1
        }
    }

    /// For each touched block, the mask of its pages covered by this range.
    ///
    /// This is how a tensor's byte extent becomes the per-block page
    /// footprint a kernel access trace records.
    pub fn block_footprints(&self) -> BlockFootprints {
        BlockFootprints {
            range: *self,
            blocks: self.blocks(),
        }
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

/// Iterator over consecutive pages, produced by [`ByteRange::pages`].
#[derive(Debug, Clone)]
pub struct PageRange {
    next: PageNum,
    end: PageNum,
}

impl Iterator for PageRange {
    type Item = PageNum;

    fn next(&mut self) -> Option<PageNum> {
        if self.next < self.end {
            let p = self.next;
            self.next = self.next.offset(1);
            Some(p)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.end.index() - self.next.index()).unwrap_or(usize::MAX);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PageRange {}

/// Iterator over consecutive UM blocks, produced by [`ByteRange::blocks`].
#[derive(Debug, Clone)]
pub struct BlockRange {
    next: BlockNum,
    end: BlockNum,
}

impl Iterator for BlockRange {
    type Item = BlockNum;

    fn next(&mut self) -> Option<BlockNum> {
        if self.next < self.end {
            let b = self.next;
            self.next = self.next.offset(1);
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = usize::try_from(self.end.index() - self.next.index()).unwrap_or(usize::MAX);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BlockRange {}

/// Iterator over `(block, covered pages)` pairs in ascending block
/// order, produced by [`ByteRange::block_footprints`].
#[derive(Debug, Clone)]
pub struct BlockFootprints {
    range: ByteRange,
    blocks: BlockRange,
}

impl Iterator for BlockFootprints {
    type Item = (BlockNum, PageMask);

    fn next(&mut self) -> Option<(BlockNum, PageMask)> {
        let block = self.blocks.next()?;
        let block_start = block.addr().raw();
        let lo = self.range.start.raw().max(block_start);
        let hi = self.range.end().raw().min(block_start + BLOCK_BYTES);
        let first_page = UmAddr::new(lo).page().index_in_block();
        let last_page = UmAddr::new(hi - 1).page().index_in_block();
        debug_assert!(last_page < PAGES_PER_BLOCK);
        Some((block, PageMask::from_range(first_page..last_page + 1)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.blocks.size_hint()
    }
}

impl ExactSizeIterator for BlockFootprints {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BLOCK_SIZE, PAGE_BYTES, PAGE_SIZE};
    use proptest::prelude::*;

    /// Reference footprints: one `Vec` entry per touched block, its mask
    /// built page by page.
    fn footprints_vec(r: &ByteRange) -> Vec<(BlockNum, PageMask)> {
        let mut out: Vec<(BlockNum, PageMask)> = Vec::new();
        for page in r.pages() {
            match out.last_mut() {
                Some((block, mask)) if *block == page.block() => mask.set(page.index_in_block()),
                _ => {
                    let mut mask = PageMask::empty();
                    mask.set(page.index_in_block());
                    out.push((page.block(), mask));
                }
            }
        }
        out
    }

    proptest! {
        /// The footprint iterator yields exactly the reference entries,
        /// for unaligned starts and ends spanning one to four blocks.
        #[test]
        fn footprints_match_page_by_page_reference(
            base in 0u64..64,
            start_page in 0u64..512,
            start_byte in 0u64..PAGE_BYTES,
            span in 1u64..=4,
            end_off in 1u64..=BLOCK_BYTES,
        ) {
            let start = base * BLOCK_BYTES + start_page * PAGE_BYTES + start_byte;
            let end = ((base + span - 1) * BLOCK_BYTES + end_off).max(start + 1);
            let r = ByteRange::new(UmAddr::new(start), end - start);
            let got: Vec<_> = r.block_footprints().collect();
            prop_assert_eq!(r.block_footprints().len(), got.len());
            prop_assert_eq!(got, footprints_vec(&r));
        }
    }

    #[test]
    fn empty_range_touches_nothing() {
        let r = ByteRange::new(UmAddr::new(12345), 0);
        assert!(r.is_empty());
        assert_eq!(r.pages().count(), 0);
        assert_eq!(r.blocks().count(), 0);
        assert_eq!(r.page_count(), 0);
        assert_eq!(r.block_footprints().count(), 0);
    }

    #[test]
    fn partial_pages_round_up() {
        let r = ByteRange::new(UmAddr::new(10), 2 * PAGE_SIZE as u64);
        // Starts mid-page, so it touches 3 pages.
        assert_eq!(r.page_count(), 3);
        assert_eq!(r.pages().count(), 3);
    }

    #[test]
    fn contains_and_overlaps() {
        let a = ByteRange::new(UmAddr::new(100), 50);
        assert!(a.contains(UmAddr::new(100)));
        assert!(a.contains(UmAddr::new(149)));
        assert!(!a.contains(UmAddr::new(150)));
        let b = ByteRange::new(UmAddr::new(149), 10);
        let c = ByteRange::new(UmAddr::new(150), 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!a.overlaps(&ByteRange::new(UmAddr::new(120), 0)));
    }

    #[test]
    fn blocks_across_boundary() {
        let r = ByteRange::new(
            UmAddr::new(BLOCK_SIZE as u64 - PAGE_SIZE as u64),
            2 * PAGE_SIZE as u64,
        );
        let blocks: Vec<_> = r.blocks().collect();
        assert_eq!(blocks, vec![BlockNum::new(0), BlockNum::new(1)]);
    }

    #[test]
    fn footprints_cover_exactly_touched_pages() {
        // One page at the end of block 0 plus three pages of block 1.
        let start = BLOCK_SIZE as u64 - PAGE_SIZE as u64;
        let r = ByteRange::new(UmAddr::new(start), 4 * PAGE_SIZE as u64);
        let fp: Vec<_> = r.block_footprints().collect();
        assert_eq!(fp.len(), 2);
        assert_eq!(fp[0].0, BlockNum::new(0));
        assert_eq!(fp[0].1.count(), 1);
        assert!(fp[0].1.get(PAGES_PER_BLOCK - 1));
        assert_eq!(fp[1].0, BlockNum::new(1));
        assert_eq!(fp[1].1.count(), 3);
        assert!(fp[1].1.get(0) && fp[1].1.get(2));
    }

    #[test]
    fn footprint_page_totals_match_page_count() {
        let r = ByteRange::new(UmAddr::new(12_345), 10 * BLOCK_SIZE as u64 + 777);
        let total: usize = r.block_footprints().map(|(_, m)| m.count()).sum();
        assert_eq!(total as u64, r.page_count());
    }

    #[test]
    fn exact_size_iterators() {
        let r = ByteRange::new(UmAddr::new(0), 5 * PAGE_SIZE as u64);
        assert_eq!(r.pages().len(), 5);
        let r2 = ByteRange::new(UmAddr::new(0), 3 * BLOCK_SIZE as u64);
        assert_eq!(r2.blocks().len(), 3);
    }

    #[test]
    fn display_shows_bounds() {
        let r = ByteRange::new(UmAddr::new(0), 16);
        assert_eq!(r.to_string(), "[0x0, 0x10)");
    }
}
