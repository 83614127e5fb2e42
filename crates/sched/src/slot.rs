//! The time-sharing harness, the one place where the scheduler
//! ([`crate::MultiTenant`]) and the serving simulator in `deepum-serve`
//! admit tenants to a shared [`UmDriver`] ([`admit`]) and open, run and
//! close their kernel slots.
//!
//! A slot is the window in which one tenant's private DeepUM stack
//! holds the shared driver:
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
//!    driver, which owns the set. [`quota_slot`] runs a job's
//!    `priority` kernels.
//! 3. [`close_slot`] swaps the shared driver back out and ends the
//!    slot, parking the governor and protected set in the tenant's
//!    ledger again.
//!
//! Open/close must pair strictly; nesting slots on one shared driver,
//! or writing the protected set between slots, is a protocol violation
//! that `UmDriver::validate` surfaces.

use deepum_baselines::report::RunError;
use deepum_core::driver::DeepumDriver;
use deepum_mem::TenantId;
use deepum_sim::time::Ns;
use deepum_trace::{emit, TraceEvent};
use deepum_um::UmDriver;

use crate::tenant::{StepOutcome, TenantRun};

/// Safety valve: non-kernel work units one slot may perform before the
/// tenant is declared wedged. Real programs run a handful of allocator
/// steps between kernels; only a bug approaches this.
const MAX_UNITS_PER_SLOT: u64 = 1_000_000;

/// Admits `tid` with a guaranteed floor and a fair-share priority:
/// the governor, tracer and injector on the tenant's `driver` move into
/// its new ledger, and the outcome is traced into its tracer at `now`.
///
/// # Errors
///
/// [`RunError::AdmissionDenied`] when the floor cannot be met without
/// breaking floors already granted; the tenant must not run.
pub fn admit(
    shared: &mut UmDriver,
    driver: &mut DeepumDriver,
    tid: TenantId,
    floor_pages: u64,
    priority: u32,
    now: Ns,
) -> Result<(), RunError> {
    let governor = driver.take_pressure_governor();
    let (tracer, injector) = (driver.tracer().cloned(), driver.injector().cloned());
    let registered = shared.register_tenant(
        tid,
        floor_pages,
        priority,
        governor,
        tracer.clone(),
        injector,
    );
    let tenant = tid.raw();
    let event = match registered {
        Ok(()) => TraceEvent::TenantAdmitted {
            tenant,
            floor_pages,
            priority,
        },
        Err((need, avail)) => TraceEvent::TenantDenied {
            tenant,
            need,
            avail,
        },
    };
    emit(&tracer, now.as_nanos(), event);
    registered.map_err(|(need, avail)| RunError::AdmissionDenied {
        tenant,
        need,
        avail,
    })
}

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

/// Runs one kernel-quota slot for `run`: opens the slot, pays the
/// tenant's reclaim debt, steps until `priority` kernels ran, and
/// closes the slot. Returns true when the tenant finished (done,
/// failed, or wedged past `MAX_UNITS_PER_SLOT`) during the slot.
pub fn quota_slot(shared: &mut UmDriver, run: &mut TenantRun) -> bool {
    let (tid, now) = (run.tid, run.now());
    let debt = open_slot(shared, &mut run.driver, tid, now);
    run.advance_clock(debt);
    let quota = u64::from(run.spec.priority);
    let (mut kernels, mut units) = (0u64, 0u64);
    let finished = loop {
        if kernels >= quota {
            break false;
        }
        units += 1;
        if units > MAX_UNITS_PER_SLOT {
            break true;
        }
        match run.step() {
            StepOutcome::Ran { kernel } => kernels += u64::from(kernel),
            StepOutcome::Done | StepOutcome::Failed => break true,
        }
    };
    let now = run.now();
    close_slot(shared, &mut run.driver, now);
    finished
}
