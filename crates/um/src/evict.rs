//! Eviction ordering and the DeepUM protection hook.
//!
//! The NVIDIA driver evicts pages that were **least recently migrated**
//! to the GPU (Section 5.1, citing Kim et al.). DeepUM keeps that
//! ordering but additionally skips blocks "expected to be accessed by
//! the currently executing kernel and the next N kernels predicted to
//! execute". The prediction lives in `deepum-core`; this crate only sees
//! it as the driver's *protected set* of blocks consulted at
//! victim-selection time.

use std::ops::Bound;

use deepum_mem::{BlockNum, DenseBlockSet};
use deepum_sim::time::Ns;

use crate::hints::HintTable;
use crate::pressure::PressureGovernor;

/// Least-recently-migrated ordering over blocks.
///
/// A `BTreeSet<(Ns, BlockNum)>` would also work; this type wraps it so
/// re-keying on migration is a single call and the invariant (key matches
/// the block's `last_migrated`) has one owner.
///
/// It also keeps the *scan floor*: an LRU key at or below which every
/// entry is known to be first-pass ineligible for a reason other than
/// cooldown (protected, PreferredLocation-hinted, or pinned). The
/// untenanted protection-honouring scan resumes just past it instead of
/// re-walking that prefix. The driver advances the floor as its scan
/// passes entries over and clears it whenever one of them could become
/// eligible; this type clears it when a key lands at or below it.
#[derive(Debug, Default, Clone)]
pub struct LruMigrated {
    order: std::collections::BTreeSet<(Ns, BlockNum)>,
    floor: Option<(Ns, BlockNum)>,
}

impl LruMigrated {
    /// Creates an empty ordering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or re-keys `block` at migration time `at`.
    pub fn record_migration(&mut self, block: BlockNum, previous: Option<Ns>, at: Ns) {
        if let Some(prev) = previous {
            self.order.remove(&(prev, block));
        }
        // Drain batches share a timestamp, so a new key can sort below
        // an entry the scan already passed over.
        if self.floor.is_some_and(|f| (at, block) <= f) {
            self.floor = None;
        }
        self.order.insert((at, block));
    }

    /// Removes a fully evicted block from the ordering.
    pub fn remove(&mut self, block: BlockNum, keyed_at: Ns) {
        self.order.remove(&(keyed_at, block));
    }

    /// Blocks in least-recently-migrated-first order.
    pub fn iter(&self) -> impl Iterator<Item = (Ns, BlockNum)> + '_ {
        self.order.iter().copied()
    }

    /// Blocks keyed strictly after `start` (all of them for `None`), in
    /// least-recently-migrated-first order.
    pub fn iter_after(
        &self,
        start: Option<(Ns, BlockNum)>,
    ) -> impl Iterator<Item = (Ns, BlockNum)> + '_ {
        let lower = start.map_or(Bound::Unbounded, Bound::Excluded);
        self.order.range((lower, Bound::Unbounded)).copied()
    }

    /// The scan floor: every entry keyed at or below it is first-pass
    /// ineligible for a reason other than cooldown. `None` means the
    /// scan starts at the LRU front.
    pub(crate) fn floor(&self) -> Option<(Ns, BlockNum)> {
        self.floor
    }

    /// Moves the scan floor; the caller vouches for every entry at or
    /// below `floor`.
    pub(crate) fn set_floor(&mut self, floor: Option<(Ns, BlockNum)>) {
        self.floor = floor;
    }

    /// Forgets the scan floor: some entry below it may have become
    /// eligible.
    pub(crate) fn clear_floor(&mut self) {
        self.floor = None;
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if no block is tracked.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Victim-eligibility policy shared by the eviction scan and
/// `UmDriver::validate()`. One owner for the rules keeps the scan and
/// the invariant checker from drifting apart: a block the scan would
/// skip can never appear on the candidate list validate() inspects.
#[derive(Debug, Clone, Copy)]
pub struct VictimPolicy<'a> {
    /// The DeepUM predicted-window protected set of the scope being
    /// scanned; each candidate check is a direct bitset probe.
    pub protected: &'a DenseBlockSet,
    /// The memory-pressure governor, `None` when not installed.
    pub governor: Option<&'a PressureGovernor>,
    /// `cudaMemAdvise`-modeled hint table, `None` when the caller has
    /// no hints (identical to an empty table; both are free).
    pub hints: Option<&'a HintTable>,
}

impl VictimPolicy<'_> {
    /// May `block` be selected by the first (protection-honouring)
    /// eviction pass? Skips protected blocks, PreferredLocation-hinted
    /// blocks, blocks pinned by the in-flight kernel (minimum-resident
    /// guarantee), and blocks inside their refault-cooldown window
    /// (anti-thrash hysteresis).
    pub fn first_pass_eligible(&self, block: BlockNum) -> bool {
        if self.protected.contains(block) {
            return false;
        }
        if self.hints.is_some_and(|h| h.is_preferred(block)) {
            return false;
        }
        match self.governor {
            Some(g) => !g.is_pinned(block) && !g.in_cooldown(block),
            None => true,
        }
    }

    /// May `block` be selected by the demand-only override pass?
    /// Protection and cooldown yield to correctness, but blocks pinned
    /// by the in-flight kernel stay untouchable: evicting them would
    /// refault the kernel's own working set and livelock the replay
    /// loop.
    pub fn override_eligible(&self, block: BlockNum) -> bool {
        match self.governor {
            Some(g) => !g.is_pinned(block),
            None => true,
        }
    }

    /// True when the *only* reason `block` is first-pass ineligible is
    /// its refault cooldown — the case the tracer reports as a
    /// `VictimCooldownSkip`.
    pub fn skipped_for_cooldown(&self, block: BlockNum) -> bool {
        if self.protected.contains(block) {
            return false;
        }
        if self.hints.is_some_and(|h| h.is_preferred(block)) {
            return false;
        }
        match self.governor {
            Some(g) => !g.is_pinned(block) && g.in_cooldown(block),
            None => false,
        }
    }

    /// True when `block` is ReadMostly-duplicated: evicting it is
    /// cheap (no write-back), but it is ordered *after* every
    /// non-duplicated candidate so a hot weight stays resident while
    /// a cooler victim exists.
    pub fn is_read_mostly(&self, block: BlockNum) -> bool {
        self.hints.is_some_and(|h| h.is_read_mostly(block))
    }
}

/// Victim-scan order: least-recently-migrated order, with — when
/// `partition` is set, as for the protection-honouring pass —
/// ReadMostly-duplicated blocks partitioned to the back (each partition
/// keeps LRU order). Unpartitioned, or with no ReadMostly hints, this is
/// exactly the LRU order, so unhinted runs stay byte-identical to
/// pre-hint builds.
///
/// Yielded lazily: the eviction scan usually stops after a handful of
/// victims, so materializing the whole order (the old `Vec` form) paid
/// an O(resident-blocks) allocation and copy per eviction call for a
/// prefix that is almost never consumed. In plain LRU order the first
/// filter passes everything and the tail is cut to nothing, so the LRU
/// is walked once.
///
/// Both partitions start strictly after `start` (`None`: the LRU
/// front); the driver passes its scan floor here.
pub fn victim_scan<'a>(
    lru: &'a LruMigrated,
    hints: &'a HintTable,
    partition: bool,
    start: Option<(Ns, BlockNum)>,
) -> impl Iterator<Item = (Ns, BlockNum)> + 'a {
    let plain = !partition || hints.no_read_mostly();
    let tail = if plain { 0 } else { usize::MAX };
    lru.iter_after(start)
        .filter(move |e| plain || !hints.is_read_mostly(e.1))
        .chain(
            lru.iter_after(start)
                .take(tail)
                .filter(move |e| hints.is_read_mostly(e.1)),
        )
}

/// First-pass demand-eviction candidate list: blocks in
/// least-recently-migrated order that [`VictimPolicy::first_pass_eligible`]
/// admits. `UmDriver::validate()` cross-checks this list against the
/// governor's cooldown set — the two must never intersect.
pub fn demand_candidates(lru: &LruMigrated, policy: &VictimPolicy<'_>) -> Vec<BlockNum> {
    // validate()-only cold path; the hot eviction scan walks
    // `victim_scan` lazily and never materializes this list.
    // deepum-tidy: allow(hot-path-alloc) -- invariant-checker candidate list, built only inside validate()
    let mut candidates: Vec<BlockNum> = Vec::new();
    // ReadMostly-duplicated blocks sort after every non-duplicated
    // candidate (mirrors `victim_scan`): a hot duplicated weight is
    // never the victim while a cooler one exists.
    candidates.extend(
        lru.iter()
            .map(|(_, b)| b)
            .filter(|&b| policy.first_pass_eligible(b) && !policy.is_read_mostly(b)),
    );
    candidates.extend(
        lru.iter()
            .map(|(_, b)| b)
            .filter(|&b| policy.first_pass_eligible(b) && policy.is_read_mostly(b)),
    );
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pressure::PressureConfig;

    #[test]
    fn lru_orders_by_migration_time() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(10), None, Ns::from_nanos(30));
        lru.record_migration(BlockNum::new(20), None, Ns::from_nanos(10));
        lru.record_migration(BlockNum::new(30), None, Ns::from_nanos(20));
        let order: Vec<_> = lru.iter().map(|(_, b)| b.index()).collect();
        assert_eq!(order, vec![20, 30, 10]);
    }

    #[test]
    fn remigration_rekeys() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.record_migration(BlockNum::new(2), None, Ns::from_nanos(2));
        lru.record_migration(BlockNum::new(1), Some(Ns::from_nanos(1)), Ns::from_nanos(3));
        let order: Vec<_> = lru.iter().map(|(_, b)| b.index()).collect();
        assert_eq!(order, vec![2, 1]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn remove_drops_block() {
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.remove(BlockNum::new(1), Ns::from_nanos(1));
        assert!(lru.is_empty());
    }

    #[test]
    fn policy_without_governor_only_honours_protection() {
        let mut protected = DenseBlockSet::new();
        protected.insert(BlockNum::new(1));
        let policy = VictimPolicy {
            protected: &protected,
            governor: None,
            hints: None,
        };
        assert!(!policy.first_pass_eligible(BlockNum::new(1)));
        assert!(policy.first_pass_eligible(BlockNum::new(2)));
        assert!(policy.override_eligible(BlockNum::new(1)));
        assert!(!policy.skipped_for_cooldown(BlockNum::new(2)));
    }

    #[test]
    fn policy_with_governor_skips_cooldown_and_pins() {
        let protected = DenseBlockSet::new();
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.note_eviction(BlockNum::new(1));
        assert!(g.note_demand_arrival(BlockNum::new(1))); // refault → cooldown
        g.pin_inflight(BlockNum::new(2));
        let policy = VictimPolicy {
            protected: &protected,
            governor: Some(&g),
            hints: None,
        };
        // Block 1: refaulted → cooling down and (this kernel) pinned.
        assert!(!policy.first_pass_eligible(BlockNum::new(1)));
        // Block 2: pinned only — not a cooldown skip, and the override
        // pass must still refuse it.
        assert!(!policy.first_pass_eligible(BlockNum::new(2)));
        assert!(!policy.skipped_for_cooldown(BlockNum::new(2)));
        assert!(!policy.override_eligible(BlockNum::new(2)));
        // Block 3: free to evict everywhere.
        assert!(policy.first_pass_eligible(BlockNum::new(3)));
        assert!(policy.override_eligible(BlockNum::new(3)));
    }

    #[test]
    fn victim_scan_matches_eager_partition() {
        use crate::hints::{Advice, HintTable};
        let mut lru = LruMigrated::new();
        for i in 0..16u64 {
            lru.record_migration(BlockNum::new(i), None, Ns::from_nanos(100 - i));
        }
        // No hints: the scan is exactly the LRU order.
        let plain = HintTable::new();
        let scanned: Vec<_> = victim_scan(&lru, &plain, true, None).collect();
        assert_eq!(scanned, lru.iter().collect::<Vec<_>>());
        // ReadMostly blocks partition to the back, each half LRU-ordered.
        let mut hints = HintTable::new();
        for b in [2u64, 5, 11] {
            hints.advise(BlockNum::new(b), Advice::ReadMostly);
        }
        let mut eager: Vec<(Ns, BlockNum)> = Vec::new();
        eager.extend(lru.iter().filter(|e| !hints.is_read_mostly(e.1)));
        eager.extend(lru.iter().filter(|e| hints.is_read_mostly(e.1)));
        let lazy: Vec<_> = victim_scan(&lru, &hints, true, None).collect();
        assert_eq!(lazy, eager);
        assert_eq!(lazy.len(), lru.len());
        // Unpartitioned, the scan is the LRU order whatever the hints.
        let unpartitioned: Vec<_> = victim_scan(&lru, &hints, false, None).collect();
        assert_eq!(unpartitioned, lru.iter().collect::<Vec<_>>());
    }

    #[test]
    fn victim_scan_starts_after_the_given_key() {
        use crate::hints::{Advice, HintTable};
        let mut lru = LruMigrated::new();
        for i in 0..8u64 {
            lru.record_migration(BlockNum::new(i), None, Ns::from_nanos(10 + i));
        }
        let start = Some((Ns::from_nanos(12), BlockNum::new(2)));
        let blocks = |scan: Vec<(Ns, BlockNum)>| -> Vec<u64> {
            scan.into_iter().map(|(_, b)| b.index()).collect()
        };
        let plain = HintTable::new();
        assert_eq!(
            blocks(victim_scan(&lru, &plain, true, start).collect()),
            vec![3, 4, 5, 6, 7]
        );
        // A start key that is no longer in the ordering still bounds
        // the walk by key.
        lru.remove(BlockNum::new(2), Ns::from_nanos(12));
        assert_eq!(
            blocks(victim_scan(&lru, &plain, false, start).collect()),
            vec![3, 4, 5, 6, 7]
        );
        // Both ReadMostly partitions honour the start.
        let mut hints = HintTable::new();
        hints.advise(BlockNum::new(1), Advice::ReadMostly);
        hints.advise(BlockNum::new(4), Advice::ReadMostly);
        assert_eq!(
            blocks(victim_scan(&lru, &hints, true, start).collect()),
            vec![3, 5, 6, 7, 4]
        );
    }

    #[test]
    fn insert_at_or_below_the_floor_clears_it() {
        let mut lru = LruMigrated::new();
        for i in 0..4u64 {
            lru.record_migration(BlockNum::new(i), None, Ns::from_nanos(10));
        }
        let floor = Some((Ns::from_nanos(10), BlockNum::new(2)));
        lru.set_floor(floor);
        // A later key keeps the floor, and so does removing the entry
        // the floor names.
        lru.record_migration(BlockNum::new(9), None, Ns::from_nanos(11));
        lru.remove(BlockNum::new(2), Ns::from_nanos(10));
        assert_eq!(lru.floor(), floor);
        // Same drain timestamp, lower block number: below the floor.
        lru.record_migration(
            BlockNum::new(1),
            Some(Ns::from_nanos(10)),
            Ns::from_nanos(10),
        );
        assert_eq!(lru.floor(), None);
        lru.set_floor(floor);
        lru.record_migration(BlockNum::new(2), None, Ns::from_nanos(10));
        assert_eq!(lru.floor(), None, "a key equal to the floor clears it");
        lru.set_floor(floor);
        lru.record_migration(BlockNum::new(5), None, Ns::from_nanos(10));
        assert_eq!(lru.floor(), floor, "same timestamp, higher block keeps it");
    }

    #[test]
    fn demand_candidates_exclude_cooling_blocks() {
        let protected = DenseBlockSet::new();
        let mut lru = LruMigrated::new();
        lru.record_migration(BlockNum::new(1), None, Ns::from_nanos(1));
        lru.record_migration(BlockNum::new(2), None, Ns::from_nanos(2));
        lru.record_migration(BlockNum::new(3), None, Ns::from_nanos(3));
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.note_eviction(BlockNum::new(2));
        assert!(g.note_demand_arrival(BlockNum::new(2)));
        g.end_kernel(); // release the in-flight pin, keep the cooldown
        let policy = VictimPolicy {
            protected: &protected,
            governor: Some(&g),
            hints: None,
        };
        assert!(policy.skipped_for_cooldown(BlockNum::new(2)));
        let candidates = demand_candidates(&lru, &policy);
        assert_eq!(
            candidates,
            vec![BlockNum::new(1), BlockNum::new(3)],
            "cooling block must not be a candidate"
        );
    }
}
