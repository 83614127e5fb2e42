//! VA-stripe addressing for the prefetching path's dense per-block
//! tables ([`crate::footprint::FootprintMap`] and the chain walk's
//! visited set).
//!
//! The split is the one `deepum_um::table::BlockTable` and
//! `deepum_mem::DenseBlockSet` use: block numbers are dense within a
//! tenant's VA stripe, and stripes sit 2^19 blocks apart. A table keeps
//! one lazily grown, offset-indexed array per touched stripe, in a short
//! list sorted by stripe id (one entry per tenant), so a lookup is a
//! search over that list plus an index, and iterating the stripes in
//! order then the offsets in order visits blocks in ascending
//! [`BlockNum`] order.

use deepum_mem::bitmap::{STRIPE_BLOCK_MASK, STRIPE_BLOCK_SHIFT};
use deepum_mem::{u64_from_usize, BlockNum};

/// Splits `block` into (stripe id, offset within the stripe).
#[inline]
pub(crate) fn split(block: BlockNum) -> (u64, usize) {
    let idx = block.index();
    // The offset has `STRIPE_BLOCK_SHIFT` bits, so it always fits.
    let offset = usize::try_from(idx & STRIPE_BLOCK_MASK).unwrap_or(usize::MAX);
    (idx >> STRIPE_BLOCK_SHIFT, offset)
}

/// The block at `offset` within stripe `id`; inverse of [`split`].
#[inline]
pub(crate) fn join(id: u64, offset: usize) -> BlockNum {
    BlockNum::new((id << STRIPE_BLOCK_SHIFT) | u64_from_usize(offset))
}

/// Per-stripe storage `S`, sorted by stripe id.
#[derive(Debug, Clone)]
pub(crate) struct Stripes<S> {
    list: Vec<(u64, S)>,
}

impl<S> Default for Stripes<S> {
    fn default() -> Self {
        Stripes { list: Vec::new() }
    }
}

impl<S: Default> Stripes<S> {
    /// The storage of stripe `id`, if it was ever touched.
    #[inline]
    pub(crate) fn get(&self, id: u64) -> Option<&S> {
        match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => Some(&self.list[i].1),
            Err(_) => None,
        }
    }

    /// Mutable storage of stripe `id`, if it was ever touched.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut S> {
        match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => Some(&mut self.list[i].1),
            Err(_) => None,
        }
    }

    /// Mutable storage of stripe `id`, created empty on first touch.
    #[inline]
    pub(crate) fn entry(&mut self, id: u64) -> &mut S {
        let i = match self.list.binary_search_by_key(&id, |(k, _)| *k) {
            Ok(i) => i,
            Err(i) => {
                self.list.insert(i, (id, S::default()));
                i
            }
        };
        &mut self.list[i].1
    }

    /// Every touched stripe, ascending by id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &S)> + '_ {
        self.list.iter().map(|(id, s)| (*id, s))
    }

    /// Every touched stripe's storage, mutably.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut S> + '_ {
        self.list.iter_mut().map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut s: Stripes<u32> = Stripes::default();
        *s.entry(5) = 50;
        *s.entry(1) = 10;
        *s.entry(3) = 30;
        let ids: Vec<u64> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(s.get(3), Some(&30));
        assert_eq!(s.get(4), None);
    }
}
