//! One tenant's private stack.
//!
//! A [`TenantRun`] is a solo UM-path run with a tenant identity: its
//! own DeepUM driver plus the same resumable
//! [`UmStepper`](deepum_baselines::executor::um::UmStepper) that
//! `run_um` drives, whose CUDA runtime allocates at the tenant's
//! disjoint VA base. The scheduler calls [`TenantRun::step`] while the
//! tenant's kernel slot is open (the shared UM driver swapped into the
//! tenant's DeepUM driver), and the stepper performs exactly one unit of
//! work. Only the counter view differs from a solo run: iteration
//! counters are the tenant's view of the shared driver, passed to the
//! stepper as a hook. Everything else is the solo code path, which is
//! what makes the tenant-isolation differential test meaningful: a
//! tenant that is never charged by its co-tenants replays the same
//! event sequence it would produce alone.

use deepum_baselines::executor::um::{UmRunConfig, UmStepper};
use deepum_baselines::report::RunError;
use deepum_core::driver::DeepumDriver;
use deepum_mem::stripe::tenant_va_base;
use deepum_mem::TenantId;
use deepum_sim::costs::CostModel;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::perf::PerfModel;
use deepum_torch::step::Workload;
use deepum_trace::{shared, SharedTracer, Tracer};

pub use deepum_baselines::executor::um::StepOutcome;

use crate::spec::TenantSpec;

/// One tenant's private execution stack.
pub struct TenantRun {
    /// The spec this tenant was admitted under.
    pub spec: TenantSpec,
    /// The tenant's identity on the shared driver.
    pub tid: TenantId,
    /// The tenant's DeepUM driver. Between slots it wraps a placeholder
    /// UM driver; during the tenant's slot the scheduler swaps the
    /// shared UM driver in.
    pub driver: DeepumDriver,
    workload: Workload,
    run: UmStepper,
}

impl TenantRun {
    /// Builds the tenant's private stack. No driver work happens here —
    /// every driver-touching operation (including persistent-tensor
    /// allocation) is deferred to [`TenantRun::step`], which only runs
    /// while the shared UM driver is swapped in.
    pub fn new(tid: TenantId, spec: TenantSpec, costs: CostModel, perf: PerfModel) -> Self {
        let workload = spec.job.workload();
        let mut driver = DeepumDriver::new(costs.clone(), spec.config.clone());
        let cfg = UmRunConfig {
            iterations: spec.job.repetitions(),
            costs,
            perf,
            seed: spec.seed,
            plan: spec.plan.clone(),
            validate_after_drain: false,
            checkpoint_every: None,
            tracer: spec.traced.then(|| shared(Tracer::export())),
        };
        let run = UmStepper::new(&mut driver, cfg, tenant_va_base(tid));
        TenantRun {
            spec,
            tid,
            driver,
            workload,
            run,
        }
    }

    /// The tenant's virtual time.
    pub fn now(&self) -> Ns {
        self.run.now()
    }

    /// Advances the tenant's clock (reclaim-debt payment at slot start).
    pub fn advance_clock(&mut self, delta: Ns) {
        self.run.advance_clock(delta);
    }

    /// Whole-stack energy the tenant consumed so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.run.energy_joules()
    }

    /// The tenant's tracer, if one was installed.
    pub fn tracer(&self) -> Option<SharedTracer> {
        self.driver.tracer().cloned()
    }

    /// True once the job ran every repetition to completion.
    pub fn is_done(&self) -> bool {
        self.run.is_done()
    }

    /// Terminal error, if the job failed.
    pub fn error(&self) -> Option<&RunError> {
        self.run.error()
    }

    /// Terminates the run with a typed error the scheduler observed
    /// outside a slot (floor revocation after ECC retirement). The
    /// first error wins; a finished run is left alone.
    pub fn fail(&mut self, e: RunError) {
        self.run.fail(e);
    }

    /// Extra checkpoint generations this tenant's restores consumed
    /// skipping corrupt images.
    pub fn recovery_generations(&self) -> u64 {
        self.run.recovery_generations()
    }

    /// Performs one unit of work. Must only be called while the
    /// tenant's slot is open on the shared driver.
    pub fn step(&mut self) -> StepOutcome {
        self.run
            .step(&self.workload, &mut self.driver, tenant_counters)
    }
}

/// Counters scoped to the tenant whose slot is open: the shared
/// driver's active-slot view plus the DeepUM-side locals.
fn tenant_counters(d: &DeepumDriver) -> Counters {
    let mut c = d.um().active_counters();
    c.merge(&d.local_counters());
    c
}
