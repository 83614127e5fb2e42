//! The VA-stripe block layout, and the per-stripe containers built on it.
//!
//! Every tenant (and every serving endpoint) maps its UM allocations at
//! its own [`STRIPE_BYTES`]-aligned base, so block numbers never collide
//! across tenants. Within a stripe the allocator bumps through a small
//! range, so block numbers are dense there, but stripes sit
//! 2^[`STRIPE_BLOCK_SHIFT`] blocks apart: one flat array over raw block
//! indices would be astronomically sparse.
//!
//! Every per-block table therefore [`split`]s a block into (stripe id,
//! offset within the stripe) and keeps one lazily grown, offset-indexed
//! array per touched stripe in a [`StripeMap`], a short list sorted by
//! stripe id (one entry per tenant). A lookup is one search over that
//! list plus an index, and iterating the stripes in order, then the
//! offsets in order, visits blocks in ascending [`BlockNum`] order, the
//! order a `BTreeMap<BlockNum, _>` would give. [`OffsetBits`] is the
//! per-stripe storage of a block *set*.

use crate::bitmap::IterOnes;
use crate::{u64_from_usize, BlockNum, TenantId, BLOCK_BYTES};

/// Bytes of VA space per stripe: each tenant's allocations live in a
/// disjoint 1 TiB region.
pub const STRIPE_BYTES: u64 = 1 << 40;

/// log2 of the blocks per stripe: a block's stripe id is its index
/// shifted right by this much.
pub const STRIPE_BLOCK_SHIFT: u32 = (STRIPE_BYTES / BLOCK_BYTES).trailing_zeros();

/// Mask selecting a block's offset within its stripe.
pub const STRIPE_BLOCK_MASK: u64 = (1 << STRIPE_BLOCK_SHIFT) - 1;

// A stripe holds a whole power-of-two number of blocks.
const _: () = assert!(BLOCK_BYTES << STRIPE_BLOCK_SHIFT == STRIPE_BYTES);

/// The VA base of `tid`'s stripe. Scheduler tenants and serving
/// endpoints both map their runtimes here, so they share one driver
/// without their block numbers colliding.
#[inline]
pub fn tenant_va_base(tid: TenantId) -> u64 {
    u64::from(tid.raw()) * STRIPE_BYTES
}

/// Splits `block` into (stripe id, offset within the stripe).
#[inline]
pub fn split(block: BlockNum) -> (u64, usize) {
    let idx = block.index();
    // The offset has `STRIPE_BLOCK_SHIFT` bits, so it always fits.
    let offset = usize::try_from(idx & STRIPE_BLOCK_MASK).unwrap_or(usize::MAX);
    (idx >> STRIPE_BLOCK_SHIFT, offset)
}

/// The block at `offset` within stripe `id`; inverse of [`split`].
#[inline]
pub fn join(id: u64, offset: usize) -> BlockNum {
    BlockNum::new((id << STRIPE_BLOCK_SHIFT) | u64_from_usize(offset))
}

/// Per-stripe storage `S`, sorted by stripe id.
#[derive(Debug, Clone, Default)]
pub struct StripeMap<S> {
    list: Vec<(u64, S)>,
}

impl<S> StripeMap<S> {
    /// The storage of stripe `id`, if it was ever touched.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&S> {
        match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => Some(&self.list[i].1),
            Err(_) => None,
        }
    }

    /// Mutable storage of stripe `id`, if it was ever touched.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut S> {
        match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => Some(&mut self.list[i].1),
            Err(_) => None,
        }
    }

    /// Every touched stripe, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &S)> + '_ {
        self.list.iter().map(|(id, s)| (*id, s))
    }

    /// Every touched stripe's storage, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut S> + '_ {
        self.list.iter_mut().map(|(_, s)| s)
    }
}

impl<S: Default> StripeMap<S> {
    /// Mutable storage of stripe `id`, created empty on first touch.
    #[inline]
    pub fn entry(&mut self, id: u64) -> &mut S {
        let i = match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                self.list.insert(i, (id, S::default()));
                i
            }
        };
        &mut self.list[i].1
    }
}

/// One stripe's block set: a lazily grown bitset over block offsets.
#[derive(Debug, Clone, Default)]
pub struct OffsetBits {
    words: Vec<u64>,
}

/// Splits an offset into (word index, bit).
#[inline]
fn bit_slot(offset: usize) -> (usize, u64) {
    (offset >> 6, 1u64 << (offset & 63))
}

impl OffsetBits {
    /// Inserts `offset`, growing the words to cover it; true if it was
    /// absent.
    #[inline]
    pub fn insert(&mut self, offset: usize) -> bool {
        let (word, bit) = bit_slot(offset);
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Removes `offset`; true if it was present.
    #[inline]
    pub fn remove(&mut self, offset: usize) -> bool {
        let (word, bit) = bit_slot(offset);
        match self.words.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }

    /// True if `offset` is present.
    #[inline]
    pub fn contains(&self, offset: usize) -> bool {
        let (word, bit) = bit_slot(offset);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Removes every offset, keeping the word storage for reuse.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// The present offsets, ascending.
    #[inline]
    pub fn iter(&self) -> IterOnes<'_> {
        IterOnes::new(&self.words)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::UmAddr;

    #[test]
    fn split_and_join_round_trip_across_stripes() {
        for idx in [
            0,
            1,
            STRIPE_BLOCK_MASK,
            1 << STRIPE_BLOCK_SHIFT,
            (3 << STRIPE_BLOCK_SHIFT) + 7,
        ] {
            let (id, offset) = split(BlockNum::new(idx));
            assert_eq!(join(id, offset), BlockNum::new(idx));
        }
        assert_eq!(split(BlockNum::new((2 << STRIPE_BLOCK_SHIFT) + 5)), (2, 5));
    }

    #[test]
    fn stripes_stay_sorted_by_id() {
        let mut s: StripeMap<u32> = StripeMap::default();
        *s.entry(5) = 50;
        *s.entry(1) = 10;
        *s.entry(3) = 30;
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(s.get(3), Some(&30));
        assert_eq!(s.get(4), None);
    }

    /// Each tenant's VA base is the first block of its own stripe, and
    /// its stripe ends at the last offset: the tenant runtimes and the
    /// per-stripe tables agree on one layout.
    #[test]
    fn tenant_bases_start_their_own_stripes() {
        assert_eq!(BLOCK_BYTES << STRIPE_BLOCK_SHIFT, STRIPE_BYTES);
        assert_eq!(STRIPE_BLOCK_SHIFT, 19);
        let last = usize::try_from(STRIPE_BLOCK_MASK).unwrap();
        for raw in [0u32, 1, 2, 7, 1000] {
            let base = tenant_va_base(TenantId(raw));
            let tid = u64::from(raw);
            assert_eq!(split(UmAddr::new(base).block()), (tid, 0));
            let end = UmAddr::new(base + STRIPE_BYTES - 1).block();
            assert_eq!(split(end), (tid, last));
        }
    }

    /// Offsets the shadow test draws from: both stripe ends, both sides
    /// of a word boundary, and a few interior points.
    const OFFSETS: [u64; 8] = [
        0,
        1,
        63,
        64,
        200,
        4097,
        STRIPE_BLOCK_MASK - 1,
        STRIPE_BLOCK_MASK,
    ];

    proptest! {
        /// `StripeMap<OffsetBits>` agrees with a `BTreeSet` of blocks
        /// (and a `BTreeSet` of touched stripes) under insert, remove
        /// and clear across four stripes, and iterates ascending.
        #[test]
        fn stripe_bits_match_btree_shadow(
            ops in prop::collection::vec((0u8..4, 0u64..4, 0usize..8), 1..96),
        ) {
            let mut map: StripeMap<OffsetBits> = StripeMap::default();
            let mut shadow: BTreeSet<BlockNum> = BTreeSet::new();
            let mut touched: BTreeSet<u64> = BTreeSet::new();
            for (op, stripe, pick) in ops {
                let block = BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + OFFSETS[pick]);
                let (id, offset) = split(block);
                prop_assert_eq!(join(id, offset), block);
                match op {
                    0 | 1 => {
                        touched.insert(id);
                        prop_assert_eq!(map.entry(id).insert(offset), shadow.insert(block));
                    }
                    2 => {
                        let removed = map.get_mut(id).is_some_and(|b| b.remove(offset));
                        prop_assert_eq!(removed, shadow.remove(&block));
                    }
                    _ => {
                        map.values_mut().for_each(OffsetBits::clear);
                        shadow.clear();
                    }
                }
                prop_assert_eq!(
                    map.get(id).is_some_and(|b| b.contains(offset)),
                    shadow.contains(&block)
                );
                let ids: Vec<u64> = map.iter().map(|(id, _)| id).collect();
                let want_ids: Vec<u64> = touched.iter().copied().collect();
                prop_assert_eq!(ids, want_ids);
                let got: Vec<BlockNum> = map
                    .iter()
                    .flat_map(|(id, bits)| bits.iter().map(move |o| join(id, o)))
                    .collect();
                let want: Vec<BlockNum> = shadow.iter().copied().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
