//! Word bitsets over pages and blocks.
//!
//! A UM block contains up to 512 pages; the driver tracks per-block page
//! residency and kernels' per-block access footprints with one bit per
//! page. [`PageMask`] packs those 512 bits into eight `u64` words.
//! [`DenseBlockSet`] is a set of blocks, one bitset per VA stripe.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::addr::BlockNum;
use crate::stripe::{join, split, OffsetBits, StripeMap};
use crate::PAGES_PER_BLOCK;

const WORDS: usize = PAGES_PER_BLOCK / 64;

/// A bitset with one bit per page of a UM block.
///
/// # Example
///
/// ```
/// use deepum_mem::PageMask;
///
/// let mut mask = PageMask::empty();
/// mask.set(0);
/// mask.set(511);
/// assert_eq!(mask.count(), 2);
/// assert_eq!(mask.iter_ones().collect::<Vec<_>>(), vec![0, 511]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PageMask {
    words: [u64; WORDS],
}

impl PageMask {
    /// A mask with no pages set.
    pub const fn empty() -> Self {
        PageMask { words: [0; WORDS] }
    }

    /// A mask with all 512 pages set.
    pub const fn full() -> Self {
        PageMask {
            words: [u64::MAX; WORDS],
        }
    }

    /// A mask with the first `n` pages set.
    ///
    /// # Panics
    ///
    /// Panics if `n > PAGES_PER_BLOCK`.
    pub fn first_n(n: usize) -> Self {
        Self::from_range(0..n)
    }

    /// A mask with pages `range` set (end exclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds `PAGES_PER_BLOCK`.
    pub fn from_range(range: core::ops::Range<usize>) -> Self {
        assert!(range.end <= PAGES_PER_BLOCK, "range out of bounds");
        let mut m = PageMask::empty();
        if range.is_empty() {
            return m;
        }
        // Fill whole words, then trim the two edge words.
        let (lo, hi) = (range.start, range.end - 1);
        let (lo_word, hi_word) = (lo / 64, hi / 64);
        m.words[lo_word..=hi_word].fill(u64::MAX);
        m.words[lo_word] &= u64::MAX << (lo % 64);
        m.words[hi_word] &= u64::MAX >> (63 - hi % 64);
        m
    }

    /// Sets the bit for page `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= PAGES_PER_BLOCK`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < PAGES_PER_BLOCK);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears the bit for page `i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= PAGES_PER_BLOCK`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < PAGES_PER_BLOCK);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True if the bit for page `i` is set.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i >= PAGES_PER_BLOCK`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < PAGES_PER_BLOCK);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        // deepum-tidy: allow(cast-safety) -- count_ones() of a u64 is at most 64, far below usize::MAX
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits as `u64`, for page-count arithmetic in the
    /// address domain.
    #[inline]
    pub fn count_u64(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True if every bit is set.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Bitwise union.
    #[inline]
    pub fn union(&self, other: &PageMask) -> PageMask {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a | b;
        }
        PageMask { words }
    }

    /// Bitwise intersection.
    #[inline]
    pub fn intersect(&self, other: &PageMask) -> PageMask {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a & b;
        }
        PageMask { words }
    }

    /// Bits set in `self` but not in `other`.
    #[inline]
    pub fn subtract(&self, other: &PageMask) -> PageMask {
        let mut words = [0u64; WORDS];
        for (w, (a, b)) in words.iter_mut().zip(self.words.iter().zip(&other.words)) {
            *w = a & !b;
        }
        PageMask { words }
    }

    /// Merges `other` into `self` in place.
    #[inline]
    pub fn union_with(&mut self, other: &PageMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Removes `other`'s bits from `self` in place.
    #[inline]
    pub fn subtract_with(&mut self, other: &PageMask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True if `self` and `other` share at least one set bit — the
    /// allocation-free form of `!a.intersect(&b).is_empty()`.
    #[inline]
    pub fn intersects(&self, other: &PageMask) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True if every bit set in `self` is also set in `other` — the
    /// allocation-free form of `a.subtract(&b).is_empty()`.
    #[inline]
    pub fn is_subset_of(&self, other: &PageMask) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// The lowest `n` set pages of `self`: all of them when fewer than
    /// `n` are set. Whole words are kept while they fit, and only the
    /// word holding the `n`-th set page is cut, so this is the
    /// word-wise form of collecting `self.iter_ones().take(n)`.
    pub fn lowest(&self, n: usize) -> PageMask {
        let mut out = PageMask::empty();
        let mut left = n;
        for (o, &w) in out.words.iter_mut().zip(&self.words) {
            // deepum-tidy: allow(cast-safety) -- count_ones() of a u64 is at most 64, far below usize::MAX
            let ones = w.count_ones() as usize;
            if ones <= left {
                *o = w;
                left -= ones;
                continue;
            }
            // Clear the word's lowest `left` set bits; what remains is
            // the part to drop.
            let mut rest = w;
            for _ in 0..left {
                rest &= rest - 1;
            }
            *o = w ^ rest;
            break;
        }
        out
    }

    /// The raw backing words, least-significant page first. Paired with
    /// [`PageMask::from_words`] for binary snapshot encoding.
    #[inline]
    pub const fn to_words(&self) -> [u64; WORDS] {
        self.words
    }

    /// Rebuilds a mask from raw backing words produced by
    /// [`PageMask::to_words`].
    #[inline]
    pub const fn from_words(words: [u64; WORDS]) -> Self {
        PageMask { words }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes::new(&self.words)
    }
}

impl Default for PageMask {
    fn default() -> Self {
        PageMask::empty()
    }
}

impl fmt::Debug for PageMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageMask({} set)", self.count())
    }
}

/// Iterator over the set-bit indices of a word bitset, ascending: a
/// trailing-zero scan, one word at a time. Produced by
/// [`PageMask::iter_ones`] and [`OffsetBits::iter`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl<'a> IterOnes<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        IterOnes {
            words,
            word: 0,
            bits: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                // deepum-tidy: allow(cast-safety) -- trailing_zeros() of a u64 is at most 64, far below usize::MAX
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + tz);
            }
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
    }
}

/// A dense, growable set of [`BlockNum`]s: one [`OffsetBits`] per
/// touched VA stripe (see [`crate::stripe`]).
///
/// Insert/remove/contains are one stripe search plus a word index and a
/// mask, and iteration is in ascending order, making it a drop-in
/// replacement for the `BTreeSet<BlockNum>`s on the migration and
/// eviction hot paths.
#[derive(Debug, Default, Clone)]
pub struct DenseBlockSet {
    stripes: StripeMap<OffsetBits>,
    /// Total members across all stripes.
    len: usize,
}

impl DenseBlockSet {
    /// An empty set.
    pub fn new() -> Self {
        DenseBlockSet::default()
    }

    /// Inserts `block`; true if it was not already present.
    pub fn insert(&mut self, block: BlockNum) -> bool {
        let (id, offset) = split(block);
        let fresh = self.stripes.entry(id).insert(offset);
        self.len += usize::from(fresh);
        fresh
    }

    /// Removes `block`; true if it was present.
    pub fn remove(&mut self, block: BlockNum) -> bool {
        let (id, offset) = split(block);
        let removed = self
            .stripes
            .get_mut(id)
            .is_some_and(|bits| bits.remove(offset));
        self.len -= usize::from(removed);
        removed
    }

    /// True if `block` is in the set.
    #[inline]
    pub fn contains(&self, block: BlockNum) -> bool {
        let (id, offset) = split(block);
        self.stripes
            .get(id)
            .is_some_and(|bits| bits.contains(offset))
    }

    /// Removes every block, keeping the word storage for reuse.
    pub fn clear(&mut self) {
        self.stripes.values_mut().for_each(OffsetBits::clear);
        self.len = 0;
    }

    /// Number of blocks in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no block is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over the blocks in ascending [`BlockNum`] order.
    pub fn iter(&self) -> impl Iterator<Item = BlockNum> + '_ {
        self.stripes
            .iter()
            .flat_map(|(id, bits)| bits.iter().map(move |offset| join(id, offset)))
    }
}

impl FromIterator<BlockNum> for DenseBlockSet {
    fn from_iter<I: IntoIterator<Item = BlockNum>>(iter: I) -> Self {
        let mut set = DenseBlockSet::new();
        for block in iter {
            set.insert(block);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_full_and_counts() {
        assert_eq!(PageMask::empty().count(), 0);
        assert!(PageMask::empty().is_empty());
        assert_eq!(PageMask::full().count(), PAGES_PER_BLOCK);
        assert!(PageMask::full().is_full());
        assert_eq!(PageMask::first_n(100).count(), 100);
    }

    #[test]
    fn set_get_clear() {
        let mut m = PageMask::empty();
        m.set(63);
        m.set(64);
        m.set(511);
        assert!(m.get(63) && m.get(64) && m.get(511));
        assert!(!m.get(0));
        m.clear(64);
        assert!(!m.get(64));
        assert_eq!(m.count(), 2);
    }

    #[test]
    fn set_is_idempotent() {
        let mut m = PageMask::empty();
        m.set(7);
        m.set(7);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn boolean_algebra() {
        let a = PageMask::from_range(0..100);
        let b = PageMask::from_range(50..150);
        assert_eq!(a.union(&b).count(), 150);
        assert_eq!(a.intersect(&b).count(), 50);
        assert_eq!(a.subtract(&b).count(), 50);
        assert_eq!(b.subtract(&a).count(), 50);

        let mut c = a;
        c.union_with(&b);
        assert_eq!(c, a.union(&b));
        c.subtract_with(&a);
        assert_eq!(c, b.subtract(&a));
    }

    #[test]
    fn iter_ones_ascending() {
        let mut m = PageMask::empty();
        for i in [3usize, 64, 65, 200, 511] {
            m.set(i);
        }
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![3, 64, 65, 200, 511]);
    }

    #[test]
    fn iter_ones_on_empty_and_full() {
        assert_eq!(PageMask::empty().iter_ones().count(), 0);
        assert_eq!(PageMask::full().iter_ones().count(), PAGES_PER_BLOCK);
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn from_range_validates() {
        let _ = PageMask::from_range(0..513);
    }

    /// The word-wise fill equals setting each bit, for every range.
    #[test]
    fn from_range_matches_per_bit_loop() {
        for lo in 0..=PAGES_PER_BLOCK {
            // `want` holds bits `lo..hi`, one more set per step.
            let mut want = PageMask::empty();
            for hi in lo..=PAGES_PER_BLOCK {
                assert_eq!(PageMask::from_range(lo..hi).words, want.words, "{lo}..{hi}");
                if hi < PAGES_PER_BLOCK {
                    want.set(hi);
                }
            }
        }
    }

    /// `lowest(n)` equals collecting `iter_ones().take(n)` bit by bit,
    /// for every `n` and a spread of masks: empty, full, one word,
    /// alternating bits and seeded random densities.
    #[test]
    fn lowest_matches_per_bit_take() {
        let mut masks = vec![
            PageMask::empty(),
            PageMask::full(),
            PageMask::from_range(64..128),
            PageMask::from_words([0x5555_5555_5555_5555; WORDS]),
            PageMask::from_words([0xAAAA_AAAA_AAAA_AAAA; WORDS]),
        ];
        // SplitMix64, so the masks need no RNG crate.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in 0..1024 {
            // Thin, half and dense masks, and some with empty words.
            let words = core::array::from_fn(|_| match i % 4 {
                0 => next() & next() & next(),
                1 => next(),
                2 => next() | next(),
                _ => {
                    let w = next();
                    if w % 3 == 0 {
                        0
                    } else {
                        w
                    }
                }
            });
            masks.push(PageMask::from_words(words));
        }
        for m in &masks {
            for n in 0..=PAGES_PER_BLOCK {
                let mut want = PageMask::empty();
                for idx in m.iter_ones().take(n) {
                    want.set(idx);
                }
                assert_eq!(m.lowest(n).words, want.words, "{:x?} n={n}", m.words);
            }
        }
    }

    #[test]
    fn words_round_trip() {
        let mut m = PageMask::empty();
        for i in [0usize, 63, 64, 200, 511] {
            m.set(i);
        }
        assert_eq!(PageMask::from_words(m.to_words()), m);
    }

    #[test]
    fn debug_shows_count() {
        assert_eq!(format!("{:?}", PageMask::first_n(3)), "PageMask(3 set)");
    }

    #[test]
    fn intersects_and_subset_match_the_algebra() {
        let a = PageMask::from_range(0..100);
        let b = PageMask::from_range(50..150);
        let c = PageMask::from_range(200..300);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!PageMask::empty().intersects(&PageMask::full()));
        assert!(PageMask::from_range(10..20).is_subset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(PageMask::empty().is_subset_of(&PageMask::empty()));
        assert!(a.is_subset_of(&a));
    }

    #[test]
    fn dense_set_insert_remove_contains() {
        let mut s = DenseBlockSet::new();
        assert!(s.is_empty());
        assert!(s.insert(BlockNum::new(3)));
        assert!(!s.insert(BlockNum::new(3)));
        assert!(s.insert(BlockNum::new(4096)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(BlockNum::new(3)));
        assert!(!s.contains(BlockNum::new(2)));
        assert!(s.remove(BlockNum::new(3)));
        assert!(!s.remove(BlockNum::new(3)));
        assert!(!s.remove(BlockNum::new(999_999)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn dense_set_iterates_ascending_across_stripes() {
        // Stripe 1 starts at block 2^19; insert out of order across the
        // stripe boundary and within one stripe.
        let blocks = [1u64 << 19, 5, (1 << 19) + 70, 63, 64, 0];
        let s: DenseBlockSet = blocks.iter().map(|&b| BlockNum::new(b)).collect();
        let got: Vec<u64> = s.iter().map(BlockNum::index).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 1 << 19, (1 << 19) + 70]);
        assert_eq!(s.iter().count(), s.len());
    }

    #[test]
    fn dense_set_clear_keeps_working() {
        let mut s = DenseBlockSet::new();
        for i in 0..200 {
            s.insert(BlockNum::new(i * 7));
        }
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(s.insert(BlockNum::new(42)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![BlockNum::new(42)]);
    }
}
