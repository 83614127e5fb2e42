//! Per-tenant ledgers for a shared [`UmDriver`](crate::driver::UmDriver).
//!
//! Multi-tenant runs time-share one device through a single driver. The
//! driver stays single-tenant by default (`tenancy: None` — byte-identical
//! to pre-tenancy builds); a scheduler opts in by registering tenants,
//! after which every block migrated during a tenant's slot is tagged with
//! its [`TenantId`] and the ledger tracks:
//!
//! * the tenant's **guaranteed floor** (pages it can never be evicted
//!   below while another tenant is over quota) and its **priority**
//!   (weight in the fair-share eviction charge order);
//! * per-tenant residency, counters, charged evictions, and **reclaim
//!   debt** — write-back time for evictions performed during *another*
//!   tenant's slot, charged to this tenant's clock at its next slot;
//! * the tenant's parked state: its pressure governor, eviction-protected
//!   set, tracer, and fault injector. The driver owns whichever of these
//!   the active tenant uses, and the slot swap parks them here between
//!   the tenant's slots, so every existing emission, injection, and
//!   eviction path routes to the right tenant with no per-site changes.

use std::collections::BTreeMap;

use deepum_mem::{DenseBlockSet, TenantId};
use deepum_sim::faultinject::SharedInjector;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_trace::SharedTracer;

use crate::pressure::PressureGovernor;

/// Accounting and parked per-tenant handles for one tenant.
#[derive(Debug)]
pub struct TenantLedger {
    /// Guaranteed resident floor in pages. Fair-share eviction never
    /// charges this tenant below the floor while another tenant is over
    /// its own quota; admission refuses floors that oversubscribe the
    /// device.
    pub floor_pages: u64,
    /// Scheduling priority (≥ 1). Higher priority weights the tenant's
    /// overage down in the eviction charge order and earns it more
    /// kernel slots per scheduler cycle.
    pub priority: u32,
    /// Pages currently resident on the device and owned by this tenant.
    pub resident_pages: u64,
    /// The tenant's eviction-protected (predicted-window) set, parked
    /// here between slots and swapped into the driver's `protected`
    /// while the tenant is active. A foreign-charged scan reads it here.
    pub protected: DenseBlockSet,
    /// The tenant's pressure governor, parked here between slots and
    /// swapped into the driver's `pressure` while the tenant is active.
    pub governor: Option<PressureGovernor>,
    /// The tenant's structured-event tracer.
    pub tracer: Option<SharedTracer>,
    /// The tenant's fault injector (its chaos plan).
    pub injector: Option<SharedInjector>,
    /// Tenant-scoped monotone counters, folded in at each slot end.
    pub counters: Counters,
    /// Eviction victims charged against this tenant (fair-share scan).
    pub evictions_charged: u64,
    /// Outstanding write-back time from evictions charged to this tenant
    /// during other tenants' slots; drained by
    /// [`UmDriver::take_reclaim_debt`](crate::driver::UmDriver::take_reclaim_debt)
    /// at the tenant's next slot start.
    pub reclaim_debt: Ns,
    /// Lifetime reclaim debt ever charged (reporting; never drained).
    pub reclaim_debt_total: Ns,
    /// Virtual time at the end of the tenant's most recent slot; foreign
    /// -slot events charged to this tenant are stamped with it.
    pub last_active_now: Ns,
    /// Times a charged eviction took this tenant below its floor while
    /// another tenant was over quota. `validate()` requires zero; the
    /// charge scan keeps it zero by skipping blocks larger than the
    /// tenant's remaining overage.
    pub floor_violations: u64,
    /// True once a device-capacity shrink (ECC page retirement) revoked
    /// this tenant's floor guarantee. The floor is zeroed — the ledger
    /// keeps running — and the scheduler surfaces a typed floor-lost
    /// error at the tenant's next slot instead of livelocking on an
    /// unsatisfiable guarantee.
    pub floor_lost: bool,
}

impl TenantLedger {
    /// Pages this tenant holds beyond its guaranteed floor — the amount
    /// fair-share eviction may charge against it.
    pub fn overage(&self) -> u64 {
        self.resident_pages.saturating_sub(self.floor_pages)
    }
}

/// Multi-tenant state of a shared driver: the ledgers plus which
/// tenant's slot (if any) is currently active.
#[derive(Debug, Default)]
pub struct Tenancy {
    /// Registered tenants, keyed by id (deterministic iteration order).
    pub tenants: BTreeMap<TenantId, TenantLedger>,
    /// Tenant whose kernel slot is currently running, if any.
    pub active: Option<TenantId>,
    /// Global-counter baseline captured at the active slot's start.
    pub slot_c0: Counters,
    /// Counter deltas charged to *other* tenants during the active slot
    /// (foreign evictions); subtracted from the active tenant's slot
    /// delta so its per-tenant counters cover only its own activity.
    pub slot_foreign: Counters,
}

/// Fair-share eviction charge order: tenants over their floor, most
/// over *their priority-weighted fair share* first. Tenant `a` precedes
/// `b` when `a.overage / a.priority > b.overage / b.priority`, compared
/// by integer cross-multiplication; ties break to the lower id so the
/// order is total and deterministic. Tenants at or under their floor
/// are absent — they are never charged while someone is over quota.
pub fn charge_order(tenants: &BTreeMap<TenantId, TenantLedger>) -> Vec<TenantId> {
    let mut over: Vec<(TenantId, u64, u32)> = tenants
        .iter()
        .filter(|(_, l)| l.overage() > 0)
        .map(|(t, l)| (*t, l.overage(), l.priority.max(1)))
        .collect();
    over.sort_by(|a, b| {
        let wa = u128::from(a.1) * u128::from(b.2);
        let wb = u128::from(b.1) * u128::from(a.2);
        wb.cmp(&wa).then(a.0.cmp(&b.0))
    });
    over.into_iter().map(|(t, _, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(floor: u64, resident: u64, priority: u32) -> TenantLedger {
        TenantLedger {
            floor_pages: floor,
            priority,
            resident_pages: resident,
            protected: DenseBlockSet::new(),
            governor: None,
            tracer: None,
            injector: None,
            counters: Counters::new(),
            evictions_charged: 0,
            reclaim_debt: Ns::ZERO,
            reclaim_debt_total: Ns::ZERO,
            last_active_now: Ns::ZERO,
            floor_violations: 0,
            floor_lost: false,
        }
    }

    #[test]
    fn overage_saturates_at_floor() {
        assert_eq!(ledger(100, 40, 1).overage(), 0);
        assert_eq!(ledger(100, 100, 1).overage(), 0);
        assert_eq!(ledger(100, 175, 1).overage(), 75);
    }

    #[test]
    fn charge_order_weights_overage_by_priority() {
        let mut tenants = BTreeMap::new();
        // t0: 100 over at priority 1 (weight 100).
        tenants.insert(TenantId(0), ledger(0, 100, 1));
        // t1: 150 over at priority 2 (weight 75).
        tenants.insert(TenantId(1), ledger(0, 150, 2));
        // t2: within floor — never charged.
        tenants.insert(TenantId(2), ledger(200, 150, 1));
        let order = charge_order(&tenants);
        assert_eq!(order, vec![TenantId(0), TenantId(1)]);
    }

    #[test]
    fn charge_order_ties_break_to_lower_id() {
        let mut tenants = BTreeMap::new();
        tenants.insert(TenantId(7), ledger(0, 64, 2));
        tenants.insert(TenantId(3), ledger(0, 64, 2));
        assert_eq!(charge_order(&tenants), vec![TenantId(3), TenantId(7)]);
    }

    #[test]
    fn charge_order_is_empty_when_all_within_floor() {
        let mut tenants = BTreeMap::new();
        tenants.insert(TenantId(0), ledger(512, 512, 1));
        tenants.insert(TenantId(1), ledger(512, 12, 4));
        assert!(charge_order(&tenants).is_empty());
    }
}
