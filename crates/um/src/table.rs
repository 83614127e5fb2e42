//! Flat, dense-id block-state table.
//!
//! The driver's per-block bookkeeping used to live in a
//! `BTreeMap<BlockNum, BlockState>`; every fault, migration, and
//! eviction paid a tree walk (and a node allocation per insert) on the
//! hottest paths in the simulator. [`BlockTable`] replaces it with flat
//! vectors keyed by **dense block ids**:
//!
//! * Block numbers are dense within a VA stripe
//!   ([`deepum_mem::stripe`]). The table keeps one lazily grown slot
//!   array per touched stripe, mapping a block's within-stripe offset to
//!   its dense id in O(1). `BlockState` storage is indexed by dense id,
//!   so it covers only the blocks ever touched, not every offset below
//!   the highest one. It grows in fixed chunks that never move.
//! * A dense id is assigned the first time a block is touched and is
//!   **stable for the lifetime of the table**: eviction, release, and
//!   re-fault reuse the same id (and the same `BlockState` storage).
//!   `tests/properties.rs` pins this.
//! * Iteration is in ascending [`BlockNum`] order — stripes ascend, and
//!   a stripe's slot array is indexed by block offset — so every
//!   consumer that used to rely on `BTreeMap`'s ordered iteration
//!   (snapshot encoding, `validate()`, deregistration sweeps) sees the
//!   exact same sequence and stays byte-identical.

use deepum_mem::stripe::{join, split, StripeMap};
use deepum_mem::BlockNum;

use crate::block::BlockState;

/// Sentinel slot value: the block has never been touched.
const VACANT: u32 = 0;

/// log2 of the block states per storage chunk.
const CHUNK_SHIFT: u32 = 8;

/// Block states per storage chunk: 256 × 280 B = 70 KiB. State storage
/// grows a chunk at a time and never moves, so no allocation reaches
/// the allocator's 128 KiB mmap threshold. One growing `Vec` would free
/// ever larger buffers (9 MiB on the largest models), and freeing an
/// mmapped buffer raises glibc's mmap and trim thresholds to its size,
/// after which the heap keeps the freed megabytes.
const CHUNK_LEN: usize = 1 << CHUNK_SHIFT;

/// Flat block-state storage with stable dense ids and ascending
/// iteration. Drop-in replacement for the driver's former
/// `BTreeMap<BlockNum, BlockState>`.
#[derive(Debug, Default, Clone)]
pub struct BlockTable {
    /// Per-stripe slot arrays: offset → dense id + 1.
    slots: StripeMap<Vec<u32>>,
    /// Dense id → block state, in `CHUNK_LEN`-state chunks (kept
    /// allocated across remove/re-insert).
    states: Vec<Vec<BlockState>>,
    /// Dense id → currently present in the table.
    live: Vec<bool>,
    /// Number of live entries.
    len: usize,
}

#[inline]
fn dense_index(slot: u32) -> Option<usize> {
    let id = slot.checked_sub(1)?;
    Some(usize::try_from(id).expect("dense id fits usize"))
}

impl BlockTable {
    /// An empty table.
    pub fn new() -> Self {
        BlockTable::default()
    }

    #[inline]
    fn state(&self, idx: usize) -> &BlockState {
        &self.states[idx >> CHUNK_SHIFT][idx % CHUNK_LEN]
    }

    #[inline]
    fn state_mut(&mut self, idx: usize) -> &mut BlockState {
        &mut self.states[idx >> CHUNK_SHIFT][idx % CHUNK_LEN]
    }

    #[inline]
    fn slot(&self, block: BlockNum) -> Option<u32> {
        let (stripe, offset) = split(block);
        self.slots.get(stripe)?.get(offset).copied()
    }

    /// The dense id assigned to `block`, if it has ever been touched.
    /// Ids are assigned first-touch in table order and never recycled.
    pub fn dense_id(&self, block: BlockNum) -> Option<u32> {
        self.slot(block).and_then(|s| s.checked_sub(1))
    }

    /// Dense id of the live entry for `block`, assigning one if the
    /// block has never been touched; resurrects dead storage in place.
    fn ensure_id(&mut self, block: BlockNum) -> usize {
        let (stripe, offset) = split(block);
        let slots = self.slots.entry(stripe);
        if slots.len() <= offset {
            slots.resize(offset + 1, VACANT);
        }
        match dense_index(slots[offset]) {
            Some(idx) => {
                if !self.live[idx] {
                    self.live[idx] = true;
                    *self.state_mut(idx) = BlockState::default();
                    self.len += 1;
                }
                idx
            }
            None => {
                let idx = self.live.len();
                let id = u32::try_from(idx).expect("dense block ids fit u32");
                slots[offset] = id + 1;
                if idx.is_multiple_of(CHUNK_LEN) {
                    self.states.push(Vec::with_capacity(CHUNK_LEN));
                }
                if let Some(chunk) = self.states.last_mut() {
                    chunk.push(BlockState::default());
                }
                self.live.push(true);
                self.len += 1;
                idx
            }
        }
    }

    /// The state of `block`, if present.
    #[inline]
    pub fn get(&self, block: BlockNum) -> Option<&BlockState> {
        let idx = dense_index(self.slot(block)?)?;
        self.live[idx].then(|| self.state(idx))
    }

    /// Mutable state of `block`, if present.
    #[inline]
    pub fn get_mut(&mut self, block: BlockNum) -> Option<&mut BlockState> {
        let idx = dense_index(self.slot(block)?)?;
        self.live[idx].then(|| self.state_mut(idx))
    }

    /// True if `block` is present.
    #[inline]
    pub fn contains_key(&self, block: BlockNum) -> bool {
        self.get(block).is_some()
    }

    /// Mutable state of `block`, inserting a default state if absent —
    /// the `entry(block).or_default()` of the old map.
    #[inline]
    pub fn ensure(&mut self, block: BlockNum) -> &mut BlockState {
        let idx = self.ensure_id(block);
        self.state_mut(idx)
    }

    /// Inserts `state` for `block`, returning the previous state if one
    /// was present.
    pub fn insert(&mut self, block: BlockNum, state: BlockState) -> Option<BlockState> {
        let was_live = self.contains_key(block);
        let idx = self.ensure_id(block);
        let prev = std::mem::replace(self.state_mut(idx), state);
        was_live.then_some(prev)
    }

    /// Removes `block`, returning its state. The dense id and its
    /// storage stay reserved for the block's next appearance.
    pub fn remove(&mut self, block: BlockNum) -> Option<BlockState> {
        let idx = dense_index(self.slot(block)?)?;
        if !self.live[idx] {
            return None;
        }
        self.live[idx] = false;
        self.len -= 1;
        Some(std::mem::take(self.state_mut(idx)))
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no block is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live entries in ascending [`BlockNum`] order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockNum, &BlockState)> + '_ {
        self.slots.iter().flat_map(move |(stripe, slots)| {
            slots.iter().enumerate().filter_map(move |(offset, &slot)| {
                let idx = dense_index(slot)?;
                self.live[idx].then(|| (join(stripe, offset), self.state(idx)))
            })
        })
    }
}

impl std::ops::Index<&BlockNum> for BlockTable {
    type Output = BlockState;

    fn index(&self, block: &BlockNum) -> &BlockState {
        self.get(*block)
            .unwrap_or_else(|| panic!("no state for {block}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_mem::stripe::STRIPE_BLOCK_SHIFT;
    use deepum_sim::time::Ns;

    #[test]
    fn ensure_get_remove_round_trip() {
        let mut t = BlockTable::new();
        assert!(t.is_empty());
        assert!(t.get(BlockNum::new(7)).is_none());
        t.ensure(BlockNum::new(7)).last_migrated = Ns::from_nanos(9);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.get(BlockNum::new(7)).map(|s| s.last_migrated),
            Some(Ns::from_nanos(9))
        );
        let removed = t.remove(BlockNum::new(7)).expect("present");
        assert_eq!(removed.last_migrated, Ns::from_nanos(9));
        assert!(t.get(BlockNum::new(7)).is_none());
        assert!(t.remove(BlockNum::new(7)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn dense_ids_are_first_touch_and_stable() {
        let mut t = BlockTable::new();
        t.ensure(BlockNum::new(30));
        t.ensure(BlockNum::new(10));
        t.ensure(BlockNum::new(20));
        assert_eq!(t.dense_id(BlockNum::new(30)), Some(0));
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
        assert_eq!(t.dense_id(BlockNum::new(20)), Some(2));
        // Remove and re-fault: same id, fresh default state.
        t.ensure(BlockNum::new(10)).last_epoch = 5;
        t.remove(BlockNum::new(10));
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
        assert_eq!(t.ensure(BlockNum::new(10)).last_epoch, 0);
        assert_eq!(t.dense_id(BlockNum::new(10)), Some(1));
    }

    #[test]
    fn states_keep_their_values_across_chunk_boundaries() {
        let mut t = BlockTable::new();
        let n = 3 * CHUNK_LEN as u64 + 5;
        for raw in 0..n {
            t.ensure(BlockNum::new(raw)).last_epoch = raw;
        }
        let refaulted = BlockNum::new(CHUNK_LEN as u64);
        t.remove(refaulted);
        t.ensure(refaulted);
        for raw in 0..n {
            let want = if raw == CHUNK_LEN as u64 { 0 } else { raw };
            assert_eq!(t.get(BlockNum::new(raw)).map(|s| s.last_epoch), Some(want));
        }
        assert_eq!(t.len(), 3 * CHUNK_LEN + 5);
        assert_eq!(t.iter().count(), t.len());
    }

    #[test]
    fn iterates_ascending_across_stripes() {
        let mut t = BlockTable::new();
        let stripe1 = 1u64 << STRIPE_BLOCK_SHIFT;
        for raw in [stripe1 + 3, 40, stripe1, 2, 700] {
            t.ensure(BlockNum::new(raw));
        }
        t.remove(BlockNum::new(40));
        let got: Vec<u64> = t.iter().map(|(b, _)| b.index()).collect();
        assert_eq!(got, vec![2, 700, stripe1, stripe1 + 3]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut t = BlockTable::new();
        let s = BlockState {
            last_epoch: 3,
            ..BlockState::default()
        };
        assert!(t.insert(BlockNum::new(1), s.clone()).is_none());
        let prev = t.insert(BlockNum::new(1), BlockState::default());
        assert_eq!(prev.map(|p| p.last_epoch), Some(3));
    }

    #[test]
    #[should_panic(expected = "no state for block#5")]
    fn index_panics_on_absent_block() {
        let t = BlockTable::new();
        let _ = &t[&BlockNum::new(5)];
    }
}
