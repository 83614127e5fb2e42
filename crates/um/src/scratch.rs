//! Reusable scratch buffers for the eviction scan and range release.
//!
//! Every fault drain used to allocate a handful of short-lived vectors
//! (victim lists, cooldown notes, scan scopes); at hundreds of
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

use deepum_mem::{BlockNum, TenantId};
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
    /// Residency drops per owner observed while releasing a range.
    pub owner_drops: Vec<(TenantId, u64)>,
    /// Blocks owned by a tenant being deregistered.
    pub owned_blocks: Vec<BlockNum>,
}
