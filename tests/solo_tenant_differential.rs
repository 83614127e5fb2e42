//! Solo-versus-tenant differential: `run_um` over a traced DeepUM driver
//! and a lone traced tenant under the multi-tenant scheduler step the
//! same UM-path executor, so with the same model, seed, and costs their
//! kernel boundaries, checkpoints, and restores must line up exactly:
//! same kinds, same launch sequence numbers, same virtual timestamps.
//! Checkpoint sizes are not compared, because a tenant's backend image is
//! tenant-scoped while a solo run's covers the whole driver.
//!
//! Two differences live below the executor, in the shared UM driver, and
//! the scenarios here stay clear of both:
//!
//! * Under device pressure, a tenant's pre-eviction may evict protected
//!   blocks (the fair-share `ProtectedOverride` pass) where the solo
//!   driver drops the prefetch. The device therefore holds the whole
//!   working set with room to spare. The `deepum-um` driver unit test
//!   `lone_tenant_selects_the_solo_victims` pins this divergence, and
//!   that a lone tenant otherwise picks the solo driver's victims.
//! * A tenant-scoped restore spills the tenant's residency to host, so
//!   the replay refaults it in-band, while a solo restore reinstates the
//!   checkpointed residency. Both hard faults therefore rewind to the
//!   first checkpoint, taken before anything was resident.

use deepum::baselines::executor::um::{run_um, UmRunConfig};
use deepum::core::config::DeepumConfig;
use deepum::core::driver::DeepumDriver;
use deepum::sched::{JobKind, MultiTenant, TenantSpec};
use deepum::sim::costs::CostModel;
use deepum::torch::models::ModelKind;
use deepum::torch::perf::PerfModel;
use deepum::trace::{shared, TraceEvent, TraceRecord, Tracer};
use deepum::InjectionPlan;

const BATCH: usize = 8;
const ITERATIONS: usize = 2;
const SEED: u64 = 0x5eed;

/// `(kind, seq, t)` of one kernel boundary, checkpoint, or restore.
type Boundary = (&'static str, Option<u64>, u64);

/// A device one and a half times the working set.
fn costs() -> CostModel {
    let peak = ModelKind::MobileNet.build(BATCH).peak_bytes();
    CostModel::v100_32gb()
        .with_device_memory(peak / 2 * 3)
        .with_host_memory(8 << 30)
}

/// A device reset before launch 6 and a driver crash in fault drain 20
/// of the replay, both before the second checkpoint (launch 8).
fn hard_fault_plan() -> InjectionPlan {
    InjectionPlan {
        seed: 0xD1FF,
        device_reset_at: vec![6],
        driver_crash_at: vec![20],
        ..InjectionPlan::default()
    }
}

fn boundaries(records: &[TraceRecord]) -> Vec<Boundary> {
    records
        .iter()
        .filter_map(|r| {
            let (kind, seq) = match &r.event {
                TraceEvent::KernelBegin { seq, .. } => ("KernelBegin", Some(*seq)),
                TraceEvent::KernelEnd { seq, .. } => ("KernelEnd", Some(*seq)),
                TraceEvent::Checkpoint { .. } => ("Checkpoint", None),
                TraceEvent::Restored { .. } => ("Restored", None),
                _ => return None,
            };
            Some((kind, seq, r.t))
        })
        .collect()
}

fn solo(plan: &InjectionPlan) -> Vec<Boundary> {
    let tracer = shared(Tracer::export());
    let cfg = UmRunConfig {
        costs: costs(),
        seed: SEED,
        plan: plan.clone(),
        tracer: Some(tracer.clone()),
        ..UmRunConfig::new(ITERATIONS)
    };
    let mut driver = DeepumDriver::new(cfg.costs.clone(), DeepumConfig::default());
    let workload = ModelKind::MobileNet.build(BATCH);
    run_um(&workload, &mut driver, "deepum", &cfg, |d| d.counters()).expect("solo run completes");
    let mut tr = tracer.borrow_mut();
    boundaries(tr.records())
}

fn tenant(plan: &InjectionPlan) -> Vec<Boundary> {
    let spec = TenantSpec::new(
        "solo",
        JobKind::Training {
            model: ModelKind::MobileNet,
            batch: BATCH,
            iterations: ITERATIONS,
        },
    )
    .seed(SEED)
    .plan(plan.clone())
    .traced();
    let outcome = MultiTenant::new(costs(), PerfModel::v100())
        .tenant(spec)
        .run();
    outcome.validation.expect("shared driver invariants hold");
    assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
    let (_, tracer) = outcome.tracers.first().expect("tenant tracer");
    let mut tr = tracer.borrow_mut();
    boundaries(tr.records())
}

fn assert_agree(solo: &[Boundary], tenant: &[Boundary]) {
    if let Some(i) = solo.iter().zip(tenant).position(|(a, b)| a != b) {
        panic!(
            "solo and tenant diverge at boundary {i}: solo {:?}, tenant {:?}",
            solo[i], tenant[i]
        );
    }
    assert_eq!(
        solo.len(),
        tenant.len(),
        "solo and tenant boundary counts differ"
    );
}

fn count(events: &[Boundary], kind: &str) -> usize {
    events.iter().filter(|e| e.0 == kind).count()
}

#[test]
fn clean_tenant_matches_solo_run() {
    let plan = InjectionPlan::default();
    let events = solo(&plan);
    let kernels = ModelKind::MobileNet.build(BATCH).kernel_count() * ITERATIONS;
    assert_eq!(count(&events, "KernelEnd"), kernels);
    assert_agree(&events, &tenant(&plan));
}

#[test]
fn hard_faulted_tenant_matches_solo_run() {
    let plan = hard_fault_plan();
    let events = solo(&plan);
    assert_eq!(count(&events, "Restored"), 2, "both hard faults fire");
    assert!(count(&events, "Checkpoint") > 2);
    assert_agree(&events, &tenant(&plan));
}
