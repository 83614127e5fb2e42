//! Golden-trace suite: three canonical workloads render to canonical
//! JSONL traces committed under `tests/golden/`.
//!
//! Each check runs the workload twice in-process and demands the two
//! traces be byte-identical (the determinism half), then compares the
//! bytes against the committed golden file (the schema/behaviour half).
//! Regenerate the goldens after an intentional behaviour change with:
//!
//! ```text
//! DEEPUM_BLESS=1 cargo test --test golden_trace
//! ```

use std::path::{Path, PathBuf};

use deepum::baselines::suite::{run_system, RunParams, System};
use deepum::core::config::DeepumConfig;
use deepum::sched::{JobKind, MultiTenant, TenantSpec};
use deepum::sim::costs::CostModel;
use deepum::torch::perf::PerfModel;
use deepum::torch::step::{TensorId, Workload, WorkloadBuilder};
use deepum::trace::{shared, Tracer};
use deepum::InjectionPlan;

const BLESS_ENV: &str = "DEEPUM_BLESS";

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// A short layered model: `n` weight tensors of 2 MiB, one kernel per
/// layer reading its weight and the previous activation. Small enough
/// that the golden trace stays reviewable, large enough to exercise
/// faulting, migration, and (under a small device) eviction.
fn layered(name: &str, n: usize) -> Workload {
    let mut b = WorkloadBuilder::new(name, "golden", 1);
    let weights: Vec<TensorId> = (0..n).map(|_| b.persistent(2 << 20)).collect();
    let mut x = b.alloc(1 << 20);
    b.kernel("load").writes(&[x]).flops(1e6).launch();
    for (i, w) in weights.iter().enumerate() {
        let y = b.alloc(1 << 20);
        // Long enough kernels (hundreds of µs of compute) that the
        // migration thread's overlap budget can complete prefetches
        // before the demand fault would win the race.
        b.kernel(format!("layer{i}"))
            .args(&[i as u64])
            .reads(&[x, *w])
            .writes(&[y])
            .flops(1e10)
            .launch();
        b.free(x);
        x = y;
    }
    b.free(x);
    let w = b.build();
    w.validate().expect("golden workload is valid");
    w
}

fn params(device_mb: u64, iters: usize) -> RunParams {
    let mut p = RunParams::v100_32gb(iters, 7);
    p.costs = CostModel::v100_32gb()
        .with_device_memory(device_mb << 20)
        .with_host_memory(1 << 30);
    p
}

/// Runs `system` over `workload` with an export tracer and returns the
/// JSONL rendering of the full event stream.
fn run_traced(system: &System, workload: &Workload, params: &RunParams) -> String {
    let tracer = shared(Tracer::export());
    let mut p = params.clone();
    p.tracer = Some(tracer.clone());
    let report = run_system(system, workload, &p).expect("traced golden run completes");
    let summary = report.trace.expect("traced run reports a trace section");
    assert_eq!(summary.events_dropped, 0, "export sink never drops");
    let jsonl = tracer.borrow_mut().jsonl();
    jsonl
}

fn check_golden(file: &str, system: &System, workload: &Workload, params: &RunParams) {
    let a = run_traced(system, workload, params);
    let b = run_traced(system, workload, params);
    assert_eq!(a, b, "{file}: trace must replay byte-identical");
    assert!(!a.is_empty(), "{file}: trace must not be empty");

    // Round-trip through the parser so a golden file is guaranteed
    // loadable by tooling, not just comparable as bytes.
    let records = deepum::trace::export::parse_jsonl(&a).expect("golden trace parses");
    assert_eq!(records.len(), a.lines().count());

    let path = golden_path(file);
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &a).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}; regenerate with {BLESS_ENV}=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert_eq!(
        a, golden,
        "{file}: trace diverged from the golden copy; if the change is \
         intentional, re-bless with {BLESS_ENV}=1 cargo test --test golden_trace"
    );
}

#[test]
fn golden_demand_only() {
    // Naive UM: every migration is a demand fault; ample device memory
    // keeps eviction out of the picture.
    let w = layered("golden-demand/b1", 4);
    check_golden("demand_only.jsonl", &System::Um, &w, &params(64, 2));
}

#[test]
fn golden_prefetch_heavy() {
    // DeepUM (prefetch + pre-eviction) on a device holding ~half the
    // working set: after the cold iteration the correlation chain keeps
    // re-fetching evicted blocks ahead of their kernels.
    let w = layered("golden-prefetch/b1", 6);
    let cfg = DeepumConfig::prefetch_preevict().with_prefetch_degree(8);
    check_golden(
        "prefetch_heavy.jsonl",
        &System::DeepUm(cfg),
        &w,
        &params(8, 3),
    );
}

#[test]
fn golden_thrash_pressure() {
    // Governed DeepUM on a device holding ~half the working set, with
    // thresholds low enough that the refault loop escalates the
    // governor: this trace pins the three pressure event kinds —
    // level transitions, cooldown skips during victim selection, and
    // predicted-window resizes.
    let w = layered("golden-thrash/b1", 8);
    let cfg = DeepumConfig::default()
        .with_prefetch_degree(4)
        .with_pressure_governor(8, 4, 5, 15);
    check_golden(
        "thrash_pressure.jsonl",
        &System::DeepUm(cfg),
        &w,
        &params(8, 3),
    );

    // The golden copy must actually exercise all three new kinds; a
    // regression that silences one of them should fail loudly here, not
    // just shrink the file.
    let golden = std::fs::read_to_string(golden_path("thrash_pressure.jsonl")).expect("golden");
    for kind in [
        "PressureLevelChanged",
        "VictimCooldownSkip",
        "PredictedWindowResized",
    ] {
        assert!(
            golden.contains(kind),
            "thrash_pressure.jsonl must contain a {kind} event"
        );
    }
}

/// Runs the canonical three-tenant schedule and returns the
/// concatenation of the per-tenant JSONL streams in tenant-id order.
fn run_multitenant_traced() -> String {
    // 4608-page (18 MiB) device. Tenant 0 (priority 2, 512-page floor,
    // thrash-prone governor) runs an 8-layer model far over its floor;
    // tenant 1 (2560-page floor) fits a 3-layer model entirely inside
    // its guarantee; tenant 2 arrives late asking for a 4096-page floor
    // that the remaining 1536 pages cannot satisfy — denied.
    let costs = CostModel::v100_32gb()
        .with_device_memory(4608 * 4096)
        .with_host_memory(1 << 30);
    let noisy_cfg = DeepumConfig::default()
        .with_prefetch_degree(4)
        .with_pressure_governor(8, 4, 5, 15);
    let outcome = MultiTenant::new(costs, PerfModel::v100())
        .tenant(
            TenantSpec::new(
                "noisy",
                JobKind::Custom {
                    workload: layered("golden-mt-noisy/b1", 8),
                    repetitions: 2,
                },
            )
            .priority(2)
            .floor_pages(512)
            .config(noisy_cfg)
            .traced(),
        )
        .tenant(
            TenantSpec::new(
                "steady",
                JobKind::Custom {
                    workload: layered("golden-mt-steady/b1", 3),
                    repetitions: 2,
                },
            )
            .floor_pages(2560)
            .traced(),
        )
        .tenant(
            TenantSpec::new(
                "denied",
                JobKind::Custom {
                    workload: layered("golden-mt-denied/b1", 2),
                    repetitions: 1,
                },
            )
            .floor_pages(4096)
            .arrival(2)
            .traced(),
        )
        .run();
    outcome.validation.expect("shared driver invariants hold");
    let tenants = outcome
        .report
        .tenants
        .as_deref()
        .expect("tenant section present");
    assert!(tenants[0].admitted && tenants[0].completed);
    assert!(tenants[1].admitted && tenants[1].completed);
    assert!(!tenants[2].admitted, "tenant 2 must be denied");

    let mut streams = outcome.tracers;
    streams.sort_by_key(|(tid, _)| *tid);
    streams
        .iter()
        .map(|(_, tr)| tr.borrow_mut().jsonl())
        .collect()
}

#[test]
fn golden_multitenant_pressure() {
    let a = run_multitenant_traced();
    let b = run_multitenant_traced();
    assert_eq!(a, b, "multitenant trace must replay byte-identical");
    assert!(!a.is_empty());
    let records = deepum::trace::export::parse_jsonl(&a).expect("golden trace parses");
    assert_eq!(records.len(), a.lines().count());

    let path = golden_path("multitenant_pressure.jsonl");
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &a).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e}; regenerate with {BLESS_ENV}=1 cargo test --test golden_trace",
                path.display()
            )
        });
        assert_eq!(
            a, golden,
            "multitenant_pressure.jsonl: trace diverged from the golden copy; \
             if the change is intentional, re-bless with {BLESS_ENV}=1 \
             cargo test --test golden_trace"
        );
    }

    // The golden copy must exercise all four tenancy event kinds, the
    // fair-share override pass and per-tenant cooldown routing; a
    // regression that silences one should fail loudly here.
    let golden =
        std::fs::read_to_string(golden_path("multitenant_pressure.jsonl")).expect("golden");
    for kind in [
        "TenantAdmitted",
        "TenantDenied",
        "TenantEvictionCharged",
        "PressureSignal",
        "ProtectedOverride",
        "VictimCooldownSkip",
    ] {
        assert!(
            golden.contains(kind),
            "multitenant_pressure.jsonl must contain a {kind} event"
        );
    }
}

/// The layered model plus a 4 MiB large-pool scratch tensor that is
/// written once and freed: no later request matches its size, so the
/// caching allocator keeps the PT block cached-inactive and the
/// eviction pressure from the layers drops its pages via `Invalidate`
/// instead of write-back (Section 5.2).
fn chaos_workload(n: usize) -> Workload {
    let mut b = WorkloadBuilder::new("golden-chaos/b1", "golden", 1);
    let weights: Vec<TensorId> = (0..n).map(|_| b.persistent(2 << 20)).collect();
    let scratch = b.alloc(4 << 20);
    b.kernel("scratch_init")
        .writes(&[scratch])
        .flops(1e10)
        .launch();
    b.free(scratch);
    let mut x = b.alloc(1 << 20);
    b.kernel("load").writes(&[x]).flops(1e6).launch();
    for (i, w) in weights.iter().enumerate() {
        let y = b.alloc(1 << 20);
        b.kernel(format!("layer{i}"))
            .args(&[i as u64])
            .reads(&[x, *w])
            .writes(&[y])
            .flops(1e10)
            .launch();
        b.free(x);
        x = y;
    }
    b.free(x);
    let w = b.build();
    w.validate().expect("golden workload is valid");
    w
}

#[test]
fn golden_chaos_recovery() {
    // Watchdogged DeepUM under a seeded fault storm with a checkpoint
    // cadence and one scheduled device reset: this trace pins the
    // resilience event kinds — injected soft faults, ECC table
    // poisoning, watchdog state changes, inactive-page invalidation,
    // and the checkpoint/restore pair around the hard fault.
    let w = chaos_workload(8);
    let cfg = DeepumConfig::default()
        .with_prefetch_degree(4)
        .with_watchdog(2, 1, 60, 2);
    let mut p = params(8, 3);
    p.checkpoint_every = Some(8);
    p.plan = InjectionPlan {
        // Seed chosen so the sampled ECC poisoning lands *after* the
        // watchdog has cycled and wasted prefetches have accumulated; an
        // early poisoning would disable prefetching and silence both.
        seed: 7,
        dma_h2d_fail_rate: 0.05,
        corr_drop_rate: 0.5,
        ecc_rate: 0.02,
        device_reset_at: vec![12],
        ..InjectionPlan::default()
    };
    check_golden("chaos_recovery.jsonl", &System::DeepUm(cfg), &w, &p);

    // The golden copy must exercise every resilience event kind; a
    // regression that silences one should fail loudly here, not just
    // shrink the file.
    let golden = std::fs::read_to_string(golden_path("chaos_recovery.jsonl")).expect("golden");
    for kind in [
        "Invalidate",
        "WatchdogTransition",
        "TablesPoisoned",
        "InjectedFault",
        "Checkpoint",
        "Restored",
    ] {
        assert!(
            golden.contains(kind),
            "chaos_recovery.jsonl must contain a {kind} event"
        );
    }
}

/// Runs the canonical serving-overload scenario and returns the
/// endpoint's JSONL stream: one endpoint with a deadline tight enough
/// that the burst overloads it, a soft-fault storm on the request path,
/// and the default ladder defending it — so the trace pins every
/// serving event kind, from arrival through escalation to typed sheds.
fn run_serving_traced() -> String {
    use deepum::serve::{EndpointSpec, LadderConfig, LoadCurve, ServeSim, ServeSpec};
    use deepum::sim::time::Ns;

    let costs = CostModel::v100_32gb()
        .with_device_memory(24 << 20)
        .with_host_memory(1 << 30);
    let spec = ServeSpec::new()
        .endpoint(
            EndpointSpec::new("chat")
                .weights(8 << 20)
                .layers(4)
                .kv_per_token(128 << 10)
                .tokens(4, 8)
                .deadline(Ns::from_nanos(150_000)),
        )
        .cycles(12)
        .load(LoadCurve::new(3).period(8).burst(2, 10, 2))
        .seed(0x601d)
        .plan(InjectionPlan {
            seed: 0xF00D,
            request_fail_rate: 0.25,
            max_retries: 2,
            ..InjectionPlan::default()
        })
        .ladder(Some(LadderConfig::default()))
        .traced();
    let outcome = ServeSim::new(costs, PerfModel::v100(), spec).run();
    outcome.validation.expect("shared driver invariants hold");
    assert!(outcome.errors.is_empty(), "errors: {:?}", outcome.errors);
    let mut streams = outcome.tracers;
    streams.sort_by_key(|(tid, _)| *tid);
    streams
        .iter()
        .map(|(_, tr)| tr.borrow_mut().jsonl())
        .collect()
}

#[test]
fn golden_serving_overload() {
    let a = run_serving_traced();
    let b = run_serving_traced();
    assert_eq!(a, b, "serving trace must replay byte-identical");
    assert!(!a.is_empty());
    let records = deepum::trace::export::parse_jsonl(&a).expect("golden trace parses");
    assert_eq!(records.len(), a.lines().count());

    let path = golden_path("serving_overload.jsonl");
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &a).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e}; regenerate with {BLESS_ENV}=1 cargo test --test golden_trace",
                path.display()
            )
        });
        assert_eq!(
            a, golden,
            "serving_overload.jsonl: trace diverged from the golden copy; \
             if the change is intentional, re-bless with {BLESS_ENV}=1 \
             cargo test --test golden_trace"
        );
    }

    // The golden copy must exercise every serving event kind; a
    // regression that silences one should fail loudly here, not just
    // shrink the file.
    let golden = std::fs::read_to_string(golden_path("serving_overload.jsonl")).expect("golden");
    for kind in [
        "RequestArrived",
        "RequestCompleted",
        "DeadlineMissed",
        "RequestShed",
        "DegradationTransition",
        "HintApplied",
    ] {
        assert!(
            golden.contains(kind),
            "serving_overload.jsonl must contain a {kind} event"
        );
    }
}

/// Runs the canonical device-wear scenario and returns the
/// concatenation of the per-tenant JSONL streams in tenant-id order.
///
/// A 4608-page device hosts two tenants whose floors sum to 4604
/// pages, leaving 4 pages of slack. Tenant 0 ("wearing", priority 2)
/// runs under a plan that retires five pages at scheduled drain
/// ordinals — the fifth shrinks capacity below the floor sum, so the
/// driver revokes the loosest floor (tenant 1, lower priority) and the
/// scheduler fails it with the typed `FloorLost`. The same plan
/// corrupts a stored checkpoint generation and then hard-resets the
/// device, so recovery skips the damaged newest image and falls back a
/// generation, replaying the longer journal.
fn run_wear_recovery_traced() -> String {
    let costs = CostModel::v100_32gb()
        .with_device_memory(4608 * 4096)
        .with_host_memory(1 << 30);
    let wearing_cfg = DeepumConfig::default().with_prefetch_degree(4);
    let outcome = MultiTenant::new(costs, PerfModel::v100())
        .tenant(
            TenantSpec::new(
                "wearing",
                JobKind::Custom {
                    workload: layered("golden-wear-noisy/b1", 8),
                    repetitions: 2,
                },
            )
            .priority(2)
            .floor_pages(2300)
            .config(wearing_cfg)
            .plan(InjectionPlan {
                seed: 11,
                retire_pages_at: vec![18, 22, 26, 30, 34],
                device_reset_at: vec![17],
                ckpt_corrupt_at: vec![2],
                ..InjectionPlan::default()
            })
            .traced(),
        )
        .tenant(
            TenantSpec::new(
                "victim",
                JobKind::Custom {
                    workload: layered("golden-wear-victim/b1", 3),
                    repetitions: 3,
                },
            )
            .floor_pages(2304)
            .traced(),
        )
        .run();
    outcome.validation.expect("shared driver invariants hold");
    let tenants = outcome
        .report
        .tenants
        .as_deref()
        .expect("tenant section present");
    assert!(tenants[0].admitted && tenants[0].completed);
    assert!(
        !tenants[1].completed,
        "the victim must lose its floor, got: {tenants:?}"
    );
    let wear = outcome.report.wear.as_ref().expect("wear section present");
    assert_eq!(wear.retired_pages, 5);
    assert_eq!(wear.remigrations, 512, "one full block remigrates");
    assert!(wear.recovery_generations >= 1, "recovery must fall back");

    let mut streams = outcome.tracers;
    streams.sort_by_key(|(tid, _)| *tid);
    streams
        .iter()
        .map(|(_, tr)| tr.borrow_mut().jsonl())
        .collect()
}

#[test]
fn golden_wear_recovery() {
    let a = run_wear_recovery_traced();
    let b = run_wear_recovery_traced();
    assert_eq!(a, b, "wear trace must replay byte-identical");
    assert!(!a.is_empty());
    let records = deepum::trace::export::parse_jsonl(&a).expect("golden trace parses");
    assert_eq!(records.len(), a.lines().count());

    let path = golden_path("wear_recovery.jsonl");
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &a).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e}; regenerate with {BLESS_ENV}=1 cargo test --test golden_trace",
                path.display()
            )
        });
        assert_eq!(
            a, golden,
            "wear_recovery.jsonl: trace diverged from the golden copy; \
             if the change is intentional, re-bless with {BLESS_ENV}=1 \
             cargo test --test golden_trace"
        );
    }

    // The golden copy must exercise every wear/recovery event kind; a
    // regression that silences one should fail loudly here, not just
    // shrink the file.
    let golden = std::fs::read_to_string(golden_path("wear_recovery.jsonl")).expect("golden");
    for kind in [
        "PageRetired",
        "BlockRemigrated",
        "CheckpointCorrupt",
        "RecoveryFellBack",
        "FloorLost",
    ] {
        assert!(
            golden.contains(kind),
            "wear_recovery.jsonl must contain a {kind} event"
        );
    }
}

#[test]
fn golden_eviction_pressure() {
    // Full DeepUM on a device holding ~half the working set: every
    // iteration migrates, pre-evicts, writes back, and invalidates.
    let w = layered("golden-evict/b1", 8);
    check_golden(
        "eviction_pressure.jsonl",
        &System::DeepUm(DeepumConfig::default().with_prefetch_degree(4)),
        &w,
        &params(8, 2),
    );
}
