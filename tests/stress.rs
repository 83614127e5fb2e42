//! Oversubscription stress harness for the memory-pressure governor.
//!
//! Three contracts, per the governor's design (DESIGN.md §13):
//!
//! * **Liveness** — randomized workloads at 1.5×–4× oversubscription,
//!   crossed with transient injection plans, always make forward
//!   progress, keep the UM driver's invariants intact after every fault
//!   drain, and replay byte-identically;
//! * **Mitigation** — on a deterministic thrashing workload the governor
//!   strictly reduces the total refault count versus an ungoverned run
//!   (refaults are recounted from the event trace with the same
//!   evicted-then-demand-refaulted-within-K-kernels rule the governor
//!   uses, so the two sides are measured identically);
//! * **Typed failure** — a single kernel whose working set cannot fit in
//!   device memory terminates with [`RunError::WorkingSetExceedsDevice`]
//!   instead of looping on faults forever.

use deepum::baselines::executor::um::{run_um, UmRunConfig};
use deepum::baselines::report::{RunError, RunReport};
use deepum::core::config::DeepumConfig;
use deepum::core::driver::DeepumDriver;
use deepum::gpu::engine::UmBackend as _;
use deepum::sim::costs::CostModel;
use deepum::torch::models::ModelKind;
use deepum::torch::step::{TensorId, Workload, WorkloadBuilder};
use deepum::trace::export::parse_jsonl;
use deepum::trace::{shared, TraceEvent, Tracer};
use deepum::um::pressure::PressureConfig;
use deepum::InjectionPlan;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The refault window used throughout this suite (both by the governed
/// runs and by the trace-based recount).
const REFAULT_WINDOW: u64 = 8;

/// A hot/cold ping-pong workload: every kernel reads the same 4 hot
/// weight blocks plus one fresh cold block. On a device holding the hot
/// set plus a couple of cold blocks, least-recently-migrated eviction
/// keeps choosing the hot blocks (their migration stamps age while they
/// are *accessed* every kernel), evicting exactly the data the next
/// kernel needs — the textbook thrash the governor exists to stop.
fn hot_cold_workload(kernels: usize) -> Workload {
    let mut b = WorkloadBuilder::new("stress-hotcold/b1", "stress", 1);
    let hot: Vec<TensorId> = (0..4).map(|_| b.persistent(2 << 20)).collect();
    let cold: Vec<TensorId> = (0..kernels).map(|_| b.persistent(2 << 20)).collect();
    for (i, c) in cold.iter().enumerate() {
        let mut reads = hot.clone();
        reads.push(*c);
        b.kernel(format!("k{i}"))
            .args(&[i as u64])
            .reads(&reads)
            .flops(1e9)
            .launch();
    }
    let w = b.build();
    w.validate().expect("stress workload is valid");
    w
}

/// Runs the hot/cold workload under demand paging (prefetching off, so
/// the only mitigation in play is the governor's) and returns the report
/// plus the full JSONL event trace.
fn run_thrash(governed: bool) -> (RunReport, String) {
    let w = hot_cold_workload(12);
    // Device: 6 blocks = hot set (4) + two cold blocks.
    let costs = CostModel::v100_32gb()
        .with_device_memory(12 << 20)
        .with_host_memory(1 << 30);
    let tracer = shared(Tracer::export());
    let cfg = UmRunConfig {
        costs: costs.clone(),
        seed: 7,
        validate_after_drain: true,
        tracer: Some(tracer.clone()),
        ..UmRunConfig::new(2)
    };
    let base = DeepumConfig {
        enable_prefetch: false,
        enable_preevict: false,
        enable_invalidate: false,
        ..DeepumConfig::default()
    };
    let dcfg = if governed {
        DeepumConfig {
            pressure: Some(PressureConfig {
                refault_window: REFAULT_WINDOW,
                ..PressureConfig::default()
            }),
            ..base
        }
    } else {
        base
    };
    let mut d = DeepumDriver::new(costs, dcfg);
    let report =
        run_um(&w, &mut d, "deepum", &cfg, |d| d.counters()).expect("thrash run completes");
    d.validate().expect("driver validates after drain");
    let jsonl = tracer.borrow_mut().jsonl();
    (report, jsonl)
}

/// Counts refaults in a trace with the governor's own rule: a block
/// evicted and then demand-migrated again within [`REFAULT_WINDOW`]
/// kernel launches is one refault. This is how the governor-off side of
/// the differential is measured (it has no governor to count for it).
fn refaults_in_trace(jsonl: &str) -> u64 {
    let records = parse_jsonl(jsonl).expect("trace parses");
    let mut kernel_idx: u64 = 0;
    let mut evicted_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut refaults = 0u64;
    for rec in &records {
        match &rec.event {
            TraceEvent::KernelBegin { .. } => kernel_idx += 1,
            TraceEvent::EvictVictim { block, .. } => {
                evicted_at.insert(*block, kernel_idx);
            }
            TraceEvent::PageMigration {
                block, prefetch, ..
            } => {
                if let Some(at) = evicted_at.remove(block) {
                    if !prefetch && kernel_idx.saturating_sub(at) <= REFAULT_WINDOW {
                        refaults += 1;
                    }
                }
            }
            _ => {}
        }
    }
    refaults
}

#[test]
fn governor_strictly_reduces_refaults_on_thrashing_workload() {
    let (off_report, off_trace) = run_thrash(false);
    let (on_report, on_trace) = run_thrash(true);

    // Same computation either way: every kernel of every iteration ran.
    assert_eq!(
        off_report.counters.kernels_launched,
        on_report.counters.kernels_launched
    );

    let off_refaults = refaults_in_trace(&off_trace);
    let on_refaults = refaults_in_trace(&on_trace);
    assert!(
        off_refaults > 0,
        "the ungoverned hot/cold loop must ping-pong"
    );
    assert!(
        on_refaults < off_refaults,
        "governor must strictly reduce refaults: on={on_refaults}, off={off_refaults}"
    );

    // The governed report carries the pressure section and its refault
    // count agrees with the trace-based recount; the ungoverned report
    // must omit the section entirely.
    let pressure = on_report.pressure.expect("governed run reports pressure");
    assert_eq!(pressure.refaults, on_refaults);
    assert!(off_report.pressure.is_none());
}

#[test]
fn governed_thrash_run_is_deterministic() {
    let (a, ta) = run_thrash(true);
    let (b, tb) = run_thrash(true);
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).expect("report serializes"),
        serde_json::to_string(&b).expect("report serializes")
    );
    assert_eq!(ta, tb, "governed traces replay byte-identically");
}

#[test]
fn single_kernel_overflow_terminates_with_typed_error() {
    // One kernel reads a 32 MiB tensor on a 16 MiB device: its minimum
    // resident set is twice the device. The governor's in-flight pins
    // make that un-evictable, so the run must end with the typed error —
    // quickly, not after an eviction/refault livelock.
    let mut b = WorkloadBuilder::new("stress-overflow/b1", "stress", 1);
    let big = b.persistent(32 << 20);
    b.kernel("huge").reads(&[big]).flops(1e9).launch();
    let w = b.build();
    w.validate().expect("overflow workload is valid");

    let costs = CostModel::v100_32gb()
        .with_device_memory(16 << 20)
        .with_host_memory(1 << 30);
    let cfg = UmRunConfig {
        costs: costs.clone(),
        seed: 7,
        ..UmRunConfig::new(1)
    };
    let dcfg = DeepumConfig::default().with_pressure_governor(8, 4, 15, 35);
    let mut d = DeepumDriver::new(costs.clone(), dcfg);
    let err = run_um(&w, &mut d, "deepum", &cfg, |d| d.counters())
        .expect_err("overflowing kernel must not complete");
    match err {
        RunError::WorkingSetExceedsDevice {
            needed_pages,
            capacity_pages,
        } => {
            assert!(needed_pages > 0);
            assert_eq!(capacity_pages, (16 << 20) / 4096);
        }
        other => panic!("expected WorkingSetExceedsDevice, got: {other}"),
    }

    // Ungoverned runs keep the pre-governor behaviour: the engine's
    // single-pass access walk still terminates (each block faults once
    // per kernel), it just cannot promise the working set was ever
    // simultaneously resident.
    let mut ungoverned = DeepumDriver::new(costs, DeepumConfig::default());
    run_um(&w, &mut ungoverned, "deepum", &cfg, |d| d.counters())
        .expect("ungoverned overflow run still terminates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized oversubscription (device sized at 1.5×–4× below the
    /// workload's peak) crossed with transient injection plans: governed
    /// runs complete every iteration, keep the driver's invariants
    /// (including the cooldown/candidate disjointness check) intact
    /// after every single fault drain, and replay byte-identically.
    #[test]
    fn oversubscribed_governed_runs_stay_live_and_deterministic(
        ratio_pct in 150u64..400,
        seed in 0u64..1000,
        h2d in 0.0f64..0.2,
        oom in 0.0f64..0.1,
        corr in 0.0f64..0.3,
    ) {
        let w = ModelKind::MobileNet.build(24);
        let device = (w.peak_bytes() * 100 / ratio_pct).max(8 << 20);
        let costs = CostModel::v100_32gb()
            .with_device_memory(device)
            .with_host_memory(8 << 30);
        let plan = InjectionPlan {
            seed,
            dma_h2d_fail_rate: h2d,
            host_oom_rate: oom,
            corr_drop_rate: corr,
            ..InjectionPlan::default()
        };
        let dcfg = DeepumConfig::default().with_pressure_governor(REFAULT_WINDOW, 4, 15, 35);
        let mut reports = Vec::new();
        for _ in 0..2 {
            let cfg = UmRunConfig {
                costs: costs.clone(),
                seed: 7,
                plan: plan.clone(),
                validate_after_drain: true,
                ..UmRunConfig::new(1)
            };
            let mut d = DeepumDriver::new(costs.clone(), dcfg.clone());
            let r = run_um(&w, &mut d, "deepum", &cfg, |d| d.counters()).expect("governed run completes");
            prop_assert!(d.validate().is_ok());
            prop_assert_eq!(r.iters.len(), 1, "forward progress: the iteration must finish");
            prop_assert!(r.pressure.is_some(), "governed run must report pressure");
            reports.push(r);
        }
        prop_assert_eq!(
            serde_json::to_string(&reports[0]).expect("report serializes"),
            serde_json::to_string(&reports[1]).expect("report serializes")
        );
    }
}
