//! Reusable scratch buffers for the fault-drain and eviction batches.
//!
//! Every fault drain used to allocate a handful of short-lived vectors
//! (fault groups, victim lists, cooldown notes); at hundreds of
//! thousands of drains per run that churn dominated the allocator.
//! [`DrainScratch`] owns those buffers across calls: the driver
//! `std::mem::take`s a buffer, fills and consumes it, then clears and
//! puts it back, so steady-state drains allocate nothing. On an error
//! return the taken buffer is simply dropped — the scratch re-grows on
//! the next healthy drain, trading a rare allocation for never holding
//! stale entries.
//!
//! The buffers are driver-private plumbing: their *contents* are
//! meaningless between calls (each user clears before filling), only
//! their capacity persists.

use deepum_mem::{BlockNum, PageMask, TenantId};
use deepum_sim::time::Ns;
use deepum_trace::EvictReason;

/// One victim picked by the eviction scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The block's least-recently-migrated key.
    pub key: Ns,
    /// The victim block.
    pub block: BlockNum,
    /// Why the scan picked it.
    pub reason: EvictReason,
    /// Tenant charged with the eviction; `None` on an untenanted driver.
    pub charge: Option<TenantId>,
    /// Resident pages the eviction frees.
    pub pages: u64,
}

/// Reusable buffers for one driver's fault-drain hot paths.
#[derive(Debug, Default)]
pub struct DrainScratch {
    /// Selected eviction victims.
    pub victims: Vec<Victim>,
    /// Blocks passed over purely for refault cooldown: (the scope whose
    /// governor spared it, block, remaining kernels).
    pub cooldown_skips: Vec<(Option<TenantId>, BlockNum, u64)>,
    /// Charge scopes of the eviction scan, in scan order: a tenant, or
    /// `None` for an untenanted driver's whole device.
    pub scopes: Vec<Option<TenantId>>,
    /// Per-block fault groups of the current drain batch.
    pub groups: Vec<(BlockNum, PageMask)>,
    /// Residency drops per owner observed while releasing a range.
    pub owner_drops: Vec<(TenantId, u64)>,
    /// Blocks owned by a tenant being deregistered.
    pub owned_blocks: Vec<BlockNum>,
}

/// Deduplicates fault entries and groups them per UM block into `out`,
/// preserving first-fault order of blocks (step 2 of Fig. 3). `out` is
/// cleared first. Fault batches touch very few distinct blocks (most
/// drains are one), so membership is a last-group check plus a short
/// linear scan — no map, no per-call allocation once `out` has grown.
pub fn group_faults_into(
    faults: &[deepum_gpu::fault::FaultEntry],
    out: &mut Vec<(BlockNum, PageMask)>,
) {
    out.clear();
    for f in faults {
        let block = f.page.block();
        let slot = match out.last() {
            Some((last, _)) if *last == block => out.len() - 1,
            _ => match out.iter().position(|(b, _)| *b == block) {
                Some(i) => i,
                None => {
                    out.push((block, PageMask::empty()));
                    out.len() - 1
                }
            },
        };
        out[slot].1.set(f.page.index_in_block());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::fault::{AccessKind, FaultEntry, SmId};

    fn fault(block: u64, page: usize) -> FaultEntry {
        FaultEntry {
            page: BlockNum::new(block).page(page),
            kind: AccessKind::Read,
            sm: SmId(0),
        }
    }

    #[test]
    fn groups_preserve_first_fault_order_and_dedup() {
        let faults = [
            fault(3, 0),
            fault(1, 7),
            fault(3, 1),
            fault(3, 0),
            fault(1, 7),
        ];
        let mut out = Vec::new();
        group_faults_into(&faults, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, BlockNum::new(3));
        assert_eq!(out[0].1.count(), 2);
        assert_eq!(out[1].0, BlockNum::new(1));
        assert_eq!(out[1].1.count(), 1);
    }

    #[test]
    fn reuse_clears_previous_contents() {
        let mut out = Vec::new();
        group_faults_into(&[fault(9, 0)], &mut out);
        group_faults_into(&[fault(2, 5)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, BlockNum::new(2));
    }

    #[test]
    fn empty_batch_empties_the_buffer() {
        let mut out = vec![(BlockNum::new(1), PageMask::full())];
        group_faults_into(&[], &mut out);
        assert!(out.is_empty());
    }
}
