//! Learned per-block page footprints.
//!
//! DeepUM "prefetches all pages in the UM blocks correlated to the
//! faulted UM block" (Section 4.2). The driver only knows which pages a
//! block *uses* from the fault/access stream, so it accumulates a page
//! mask per block and prefetches that mask. For DNN training the
//! footprint stabilizes after the first iteration because the access
//! pattern repeats.
//!
//! The prefetching thread reads a footprint for every block the chain
//! walk emits, millions of times per run, so the map is a dense table:
//! one offset-indexed mask array per VA stripe (see
//! [`deepum_mem::stripe`]) plus a presence bit per offset, in the same
//! stripe entry so a lookup or record searches the stripes once. A
//! lookup is an index, not a tree walk. The presence bits keep
//! "recorded but empty" distinct from "never recorded", so
//! [`FootprintMap::len`] and the checkpoint encoding count exactly the
//! blocks a `BTreeMap` would have held.

use deepum_mem::stripe::{join, split, OffsetBits, StripeMap};
use deepum_mem::{BlockNum, PageMask};
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Fixed per-map bytes that Table 4 accounting charges on top of the
/// per-entry cost. It is the model's figure for the map header (the
/// size of the `BTreeMap<BlockNum, PageMask>` the map was first built
/// on), not the host layout of [`FootprintMap`]: `table_bytes` is in
/// every DeepUM report, and a field change must not move it.
pub const MAP_HEADER_BYTES: usize = 24;

/// Bytes Table 4 accounting charges per tracked block: a block number
/// and its page mask.
const ENTRY_BYTES: usize = core::mem::size_of::<BlockNum>() + core::mem::size_of::<PageMask>();

/// Map from UM block to the union of pages ever observed in use.
///
/// # Example
///
/// ```
/// use deepum_core::footprint::FootprintMap;
/// use deepum_mem::{BlockNum, PageMask};
///
/// let mut fp = FootprintMap::new();
/// fp.record(BlockNum::new(1), &PageMask::first_n(10));
/// fp.record(BlockNum::new(1), &PageMask::from_range(20..30));
/// assert_eq!(fp.get(BlockNum::new(1)).count(), 20);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FootprintMap {
    stripes: StripeMap<MaskStripe>,
    /// Number of present blocks across all stripes.
    len: usize,
}

/// One VA stripe's footprints, indexed by block offset. An absent
/// block's mask is always empty, so [`FootprintMap::get`] needs no
/// presence check.
#[derive(Debug, Default, Clone)]
struct MaskStripe {
    masks: Vec<PageMask>,
    present: OffsetBits,
}

impl MaskStripe {
    /// Marks `offset` present, growing the masks to cover it; true if
    /// it was absent.
    fn insert(&mut self, offset: usize) -> bool {
        if self.masks.len() <= offset {
            self.masks.resize(offset + 1, PageMask::empty());
        }
        self.present.insert(offset)
    }
}

impl FootprintMap {
    /// Creates an empty footprint map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges `pages` into `block`'s footprint.
    pub fn record(&mut self, block: BlockNum, pages: &PageMask) {
        let (id, offset) = split(block);
        let stripe = self.stripes.entry(id);
        if stripe.insert(offset) {
            self.len += 1;
        }
        stripe.masks[offset].union_with(pages);
    }

    /// The learned footprint of `block` (empty if never observed).
    #[inline]
    pub fn get(&self, block: BlockNum) -> PageMask {
        let (id, offset) = split(block);
        self.stripes
            .get(id)
            .and_then(|s| s.masks.get(offset))
            .copied()
            .unwrap_or_else(PageMask::empty)
    }

    /// Forgets a block (e.g. after its allocation is freed).
    pub fn forget(&mut self, block: BlockNum) {
        let (id, offset) = split(block);
        let Some(stripe) = self.stripes.get_mut(id) else {
            return;
        };
        if stripe.present.remove(offset) {
            stripe.masks[offset] = PageMask::empty();
            self.len -= 1;
        }
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tracked blocks and their footprints, ascending by block.
    fn iter(&self) -> impl Iterator<Item = (BlockNum, &PageMask)> + '_ {
        self.stripes.iter().flat_map(|(id, stripe)| {
            stripe
                .present
                .iter()
                .map(move |offset| (join(id, offset), &stripe.masks[offset]))
        })
    }

    /// Writes the footprint map into a checkpoint payload, ascending by
    /// block.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(deepum_mem::u64_from_usize(self.len));
        for (block, mask) in self.iter() {
            w.block(block);
            w.mask(mask);
        }
    }

    /// Reads a map written by [`FootprintMap::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.len_prefix(72)?;
        let mut map = FootprintMap::new();
        for _ in 0..len {
            let block = r.block()?;
            let mask = r.mask()?;
            let (id, offset) = split(block);
            let stripe = map.stripes.entry(id);
            if !stripe.insert(offset) {
                // deepum-tidy: allow(hot-path-alloc) -- error path of a checkpoint restore, never taken by a healthy run
                return Err(SnapshotError::Corrupt(format!(
                    "{block} appears twice in the footprint map"
                )));
            }
            stripe.masks[offset] = mask;
            map.len += 1;
        }
        Ok(map)
    }

    /// Approximate memory footprint (Table 4 accounting): a fixed
    /// header plus a block number and a page mask per tracked block.
    pub fn memory_bytes(&self) -> usize {
        MAP_HEADER_BYTES + self.len * ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use deepum_mem::stripe::STRIPE_BLOCK_SHIFT;
    use deepum_sim::rng::DetRng;

    use super::*;
    use crate::correlation::block::TABLE_HEADER_BYTES;
    use crate::BlockCorrelationTable;

    #[test]
    fn record_unions() {
        let mut fp = FootprintMap::new();
        fp.record(BlockNum::new(0), &PageMask::first_n(5));
        fp.record(BlockNum::new(0), &PageMask::from_range(3..8));
        assert_eq!(fp.get(BlockNum::new(0)).count(), 8);
    }

    #[test]
    fn unknown_block_is_empty() {
        let fp = FootprintMap::new();
        assert!(fp.get(BlockNum::new(99)).is_empty());
    }

    #[test]
    fn forget_removes() {
        let mut fp = FootprintMap::new();
        fp.record(BlockNum::new(1), &PageMask::first_n(1));
        assert_eq!(fp.len(), 1);
        fp.forget(BlockNum::new(1));
        assert!(fp.is_empty());
    }

    #[test]
    fn memory_tracks_entries() {
        let mut fp = FootprintMap::new();
        let before = fp.memory_bytes();
        for i in 0..64 {
            fp.record(BlockNum::new(i), &PageMask::first_n(1));
        }
        assert!(fp.memory_bytes() > before);
    }

    #[test]
    fn empty_record_is_present() {
        let mut fp = FootprintMap::new();
        fp.record(BlockNum::new(7), &PageMask::empty());
        assert_eq!(fp.len(), 1);
        assert!(fp.get(BlockNum::new(7)).is_empty());
        fp.forget(BlockNum::new(7));
        assert!(fp.is_empty());
    }

    /// Table 4's fixed header charges are model constants, pinned at the
    /// host sizes of the original containers so `table_bytes` (and so
    /// every DeepUM report digest) does not follow struct layout.
    #[test]
    fn table4_header_constants_are_pinned() {
        assert_eq!(MAP_HEADER_BYTES, 24);
        assert_eq!(
            MAP_HEADER_BYTES,
            core::mem::size_of::<BTreeMap<BlockNum, PageMask>>()
        );
        assert_eq!(FootprintMap::new().memory_bytes(), 24);
        assert_eq!(TABLE_HEADER_BYTES, 88);
        // 128 rows x 2 ways x (1 tag + 4 successors) x 8 bytes.
        assert_eq!(
            BlockCorrelationTable::new(128, 2, 4).memory_bytes(),
            88 + 128 * 2 * 5 * 8
        );
    }

    /// A random page mask: empty, full, or a random range.
    fn random_mask(rng: &mut DetRng) -> PageMask {
        match rng.below(4) {
            0 => PageMask::empty(),
            1 => PageMask::full(),
            _ => {
                let a = usize::try_from(rng.below(512)).unwrap();
                let b = usize::try_from(rng.below(512)).unwrap();
                PageMask::from_range(a.min(b)..a.max(b) + 1)
            }
        }
    }

    fn encoded(fp: &FootprintMap) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        fp.encode_into(&mut w);
        w.finish()
    }

    /// The `BTreeMap` model's encoding: the bytes the map must write.
    fn encoded_shadow(shadow: &BTreeMap<BlockNum, PageMask>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(deepum_mem::u64_from_usize(shadow.len()));
        for (block, mask) in shadow {
            w.block(*block);
            w.mask(mask);
        }
        w.finish()
    }

    /// Seeded random record/forget sequences over two VA stripes,
    /// checked step by step against a `BTreeMap` shadow.
    #[test]
    fn matches_btreemap_shadow_across_two_stripes() {
        for seed in 0..16 {
            let mut rng = DetRng::seed(seed);
            let mut fp = FootprintMap::new();
            let mut shadow: BTreeMap<BlockNum, PageMask> = BTreeMap::new();
            let block = |rng: &mut DetRng| {
                let stripe = rng.below(2) * 3;
                BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + rng.below(200))
            };
            for _ in 0..600 {
                let b = block(&mut rng);
                if rng.below(4) == 0 {
                    fp.forget(b);
                    shadow.remove(&b);
                } else {
                    let mask = random_mask(&mut rng);
                    fp.record(b, &mask);
                    shadow
                        .entry(b)
                        .or_insert_with(PageMask::empty)
                        .union_with(&mask);
                }
                let probe = block(&mut rng);
                assert_eq!(
                    fp.get(probe),
                    shadow.get(&probe).copied().unwrap_or_else(PageMask::empty)
                );
                assert_eq!(fp.len(), shadow.len());
                assert_eq!(
                    fp.memory_bytes(),
                    MAP_HEADER_BYTES + shadow.len() * ENTRY_BYTES
                );
            }
            let bytes = encoded(&fp);
            assert_eq!(bytes, encoded_shadow(&shadow), "seed {seed}");

            let mut r = SnapshotReader::new(&bytes).unwrap();
            let back = FootprintMap::decode_from(&mut r).unwrap();
            assert_eq!(back.len(), fp.len());
            assert_eq!(encoded(&back), bytes, "seed {seed}");
        }
    }

    #[test]
    fn decode_rejects_a_duplicate_block() {
        let mut w = SnapshotWriter::new();
        w.u64(2);
        for _ in 0..2 {
            w.block(BlockNum::new(5));
            w.mask(&PageMask::first_n(3));
        }
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            FootprintMap::decode_from(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
