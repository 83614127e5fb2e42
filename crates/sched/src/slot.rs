//! The shared-driver slot protocol, factored out of the scheduler so
//! other time-sharing harnesses (notably the inference-serving
//! simulator in `deepum-serve`) open and close kernel slots exactly
//! the way [`crate::MultiTenant`] does.
//!
//! A slot is the window in which one tenant's private DeepUM stack
//! holds the shared [`UmDriver`]:
//!
//! 1. [`open_slot`] marks the tenant active (installing its parked
//!    governor and protected set on the shared driver), collects the
//!    write-back debt charged to it by fair-share evictions that ran
//!    while other tenants held the device, and swaps the shared UM
//!    driver into the tenant's [`DeepumDriver`]. The caller must
//!    advance the tenant's virtual clock by the returned debt before
//!    executing work — debt is paid by its cause, not by the bystander
//!    that triggered the eviction.
//! 2. The caller runs kernels against its private stack. Every DeepUM
//!    write to the protected set happens here, through the shared
//!    driver, which owns the set.
//! 3. [`close_slot`] swaps the shared driver back out and ends the
//!    slot, parking the governor and protected set in the tenant's
//!    ledger again.
//!
//! Open/close must pair strictly; nesting slots on one shared driver,
//! or writing the protected set between slots, is a protocol violation
//! that `UmDriver::validate` surfaces.

use deepum_core::driver::DeepumDriver;
use deepum_mem::TenantId;
use deepum_sim::time::Ns;
use deepum_um::UmDriver;

/// Opens a kernel slot for `tid`: activates the tenant on the shared
/// driver and swaps it into `driver`. Returns the reclaim debt the
/// caller must charge to its virtual clock before running kernels.
pub fn open_slot(shared: &mut UmDriver, driver: &mut DeepumDriver, tid: TenantId, now: Ns) -> Ns {
    shared.set_active_tenant(tid, now);
    let debt = shared.take_reclaim_debt(tid);
    driver.swap_um(shared);
    debt
}

/// Closes the slot opened by [`open_slot`]: swaps the shared driver
/// back out of `driver` and deactivates the tenant at `now` (the
/// tenant's clock after its kernels and any debt charge).
pub fn close_slot(shared: &mut UmDriver, driver: &mut DeepumDriver, now: Ns) {
    driver.swap_um(shared);
    shared.end_tenant_slot(now);
}
