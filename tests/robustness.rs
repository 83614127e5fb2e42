//! Chaos-injection robustness across the stack: an empty plan changes
//! nothing, a seeded plan reproduces byte-identically, random fault
//! storms never corrupt the UM driver's bookkeeping, and the health
//! report surfaces what was injected.

use deepum::baselines::executor::um::{run_um, UmRunConfig};
use deepum::core::config::DeepumConfig;
use deepum::core::driver::DeepumDriver;
use deepum::gpu::engine::UmBackend as _;
use deepum::sim::costs::CostModel;
use deepum::torch::models::ModelKind;
use deepum::{InjectionPlan, Session, SystemKind};
use proptest::prelude::*;

/// Moderate rates on every fault class at once.
fn chaos_plan(seed: u64) -> InjectionPlan {
    InjectionPlan {
        seed,
        dma_h2d_fail_rate: 0.05,
        dma_d2h_fail_rate: 0.05,
        host_oom_rate: 0.02,
        storm_rate: 0.01,
        corr_drop_rate: 0.10,
        launch_delay_rate: 0.05,
        ..InjectionPlan::default()
    }
}

/// An oversubscribed session: device holds ~half the working set, so
/// migration, eviction, and prefetching all run hot.
fn small() -> Session {
    Session::new(ModelKind::MobileNet, 48)
        .iterations(2)
        .device_memory(80 << 20)
        .host_memory(8 << 30)
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    let base = small().run(SystemKind::DeepUm).unwrap();
    let explicit = small()
        .injection_plan(InjectionPlan::default())
        .run(SystemKind::DeepUm)
        .unwrap();
    assert!(base.health.is_none(), "no plan => no health section");
    assert_eq!(base, explicit);
    assert_eq!(
        serde_json::to_string(&base).unwrap(),
        serde_json::to_string(&explicit).unwrap()
    );
}

#[test]
fn clean_seeded_runs_reproduce_byte_identically() {
    // No fault plan at all: two fresh sessions over the same seed must
    // produce byte-identical reports. Guards the determinism contract
    // (DESIGN.md §10) that deepum-tidy's container/wallclock lints
    // enforce statically.
    let a = small().run(SystemKind::DeepUm).unwrap();
    let b = small().run(SystemKind::DeepUm).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn seeded_chaos_reproduces_byte_identically() {
    let run = || {
        small()
            .injection_plan(chaos_plan(99))
            .run(SystemKind::DeepUm)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    let h = a.health.as_ref().expect("non-empty plan => health section");
    assert!(
        h.injected.dma_h2d_failures
            + h.injected.dma_d2h_failures
            + h.injected.corr_records_dropped
            + h.injected.launch_delays
            > 0,
        "chaos rates this high must inject something: {h:?}"
    );
}

#[test]
fn chaos_never_breaks_the_run() {
    let clean = small().run(SystemKind::DeepUm).unwrap();
    let chaotic = small()
        .injection_plan(chaos_plan(7))
        .run(SystemKind::DeepUm)
        .unwrap();
    // The same computation happened under fire: every kernel launched,
    // every iteration completed. (Total time is *not* monotone in the
    // fault rates — dropped correlation records can shrink wasted
    // prefetch traffic — so only completion is asserted.)
    assert_eq!(
        clean.counters.kernels_launched,
        chaotic.counters.kernels_launched
    );
    assert_eq!(clean.iters.len(), chaotic.iters.len());
    assert!(chaotic.health.is_some());
}

#[test]
fn naive_um_takes_chaos_too() {
    let r = small()
        .injection_plan(chaos_plan(3))
        .run(SystemKind::Um)
        .unwrap();
    let h = r.health.expect("plan installed => health reported");
    assert!(h.injected.migration_retries > 0);
}

#[test]
fn watchdog_survives_chaos_and_reports_state() {
    let cfg = DeepumConfig::default().with_watchdog(4, 25, 60, 8);
    let r = small()
        .injection_plan(InjectionPlan {
            seed: 11,
            corr_drop_rate: 0.5,
            dma_h2d_fail_rate: 0.1,
            ..InjectionPlan::default()
        })
        .run_configured(cfg)
        .unwrap();
    assert!(r.health.is_some());
}

/// Drops the recovery section so a recovered run can be compared
/// byte-for-byte against an uninterrupted one.
fn strip_recovery(
    mut r: deepum::baselines::report::RunReport,
) -> deepum::baselines::report::RunReport {
    r.recovery = None;
    r
}

#[test]
fn device_reset_recovery_matches_uninterrupted_run() {
    for kind in [SystemKind::DeepUm, SystemKind::Um] {
        let clean = small().run(kind).unwrap();
        let interrupted = small()
            .injection_plan(InjectionPlan {
                device_reset_at: vec![3, 41],
                ..InjectionPlan::default()
            })
            .run(kind)
            .unwrap();
        let rec = interrupted
            .recovery
            .expect("hard-fault plan => recovery section");
        assert_eq!(rec.restores, 2, "both scheduled resets fire once");
        assert!(rec.checkpoints > 0);
        assert!(rec.downtime_ns > 0, "resets cost downtime");
        assert_eq!(rec.ecc_poisonings, 0);
        // The acceptance bar: final residency, allocator state, and
        // metrics identical to the uninterrupted run, byte-for-byte,
        // modulo the recovery section.
        assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&strip_recovery(interrupted)).unwrap(),
            "{kind:?} reset-interrupted run must converge to the uninterrupted one"
        );
    }
}

#[test]
fn driver_crash_mid_drain_recovers() {
    let clean = small().run(SystemKind::DeepUm).unwrap();
    let crashed = small()
        .injection_plan(InjectionPlan {
            driver_crash_at: vec![2, 17],
            ..InjectionPlan::default()
        })
        .run(SystemKind::DeepUm)
        .unwrap();
    let rec = crashed
        .recovery
        .expect("hard-fault plan => recovery section");
    assert_eq!(rec.restores, 2);
    assert!(
        rec.replay_kernels > 0,
        "a mid-drain crash replays journaled work"
    );
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&strip_recovery(crashed)).unwrap()
    );
}

#[test]
fn governed_crash_recovery_matches_uninterrupted_run() {
    // Device small enough that the governor actually cycles levels, and
    // thresholds low enough that the crash lands while it is elevated —
    // the restore must rebuild refault history, cooldowns, and the EWMA
    // score, not just residency.
    let cfg = DeepumConfig::default().with_pressure_governor(8, 4, 5, 15);
    let sess = || {
        Session::new(ModelKind::MobileNet, 48)
            .iterations(2)
            .device_memory(48 << 20)
            .host_memory(8 << 30)
    };
    let clean = sess().run_configured(cfg.clone()).unwrap();
    let p = clean.pressure.expect("governed run reports pressure");
    assert!(
        p.level_changes > 0,
        "the session must actually cycle pressure levels"
    );
    let interrupted = sess()
        .injection_plan(InjectionPlan {
            device_reset_at: vec![7],
            driver_crash_at: vec![23],
            ..InjectionPlan::default()
        })
        .run_configured(cfg)
        .unwrap();
    let rec = interrupted
        .recovery
        .expect("hard-fault plan => recovery section");
    assert_eq!(rec.restores, 2, "both scheduled hard faults fire once");
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&strip_recovery(interrupted)).unwrap(),
        "governor state must survive crash/restore bit-exactly"
    );
}

#[test]
fn explicit_cadence_on_crash_free_plan_changes_nothing() {
    let base = small().run(SystemKind::DeepUm).unwrap();
    let checked = small().checkpoint_every(4).run(SystemKind::DeepUm).unwrap();
    let rec = checked
        .recovery
        .expect("explicit cadence => recovery section");
    assert!(rec.checkpoints > 1);
    assert_eq!(rec.restores, 0);
    assert_eq!(rec.replay_kernels, 0);
    assert_eq!(rec.downtime_ns, 0);
    assert!(rec.snapshot_bytes > 0);
    assert_eq!(
        serde_json::to_string(&base).unwrap(),
        serde_json::to_string(&strip_recovery(checked)).unwrap(),
        "checkpointing must be observation-free"
    );
}

#[test]
fn ecc_poisoning_degrades_to_demand_paging() {
    let r = small()
        .injection_plan(InjectionPlan {
            seed: 5,
            ecc_rate: 0.02,
            ..InjectionPlan::default()
        })
        .run(SystemKind::DeepUm)
        .unwrap();
    let rec = r.recovery.expect("ecc plan => recovery section");
    assert!(
        rec.ecc_poisonings > 0,
        "2% per drain over an oversubscribed run must hit"
    );
    let h = r.health.expect("poisoned tables => degraded health");
    assert_eq!(
        h.backend.watchdog_state,
        deepum::sim::faultinject::DegradationState::Disabled
    );
    // The run still completes every iteration on pure demand paging.
    assert_eq!(r.iters.len(), 2);
}

/// Drops the wear section: a fallback restore reports `wear` even when
/// no page retired, so the corrupt-checkpoint differential must strip
/// it too before comparing against a clean run.
fn strip_wear(mut r: deepum::baselines::report::RunReport) -> deepum::baselines::report::RunReport {
    r.wear = None;
    r
}

#[test]
fn corrupt_newest_checkpoint_falls_back_and_converges() {
    // Headline differential: corrupt the newest checkpoint generation
    // (store ordinal 5 — the kernel-seq-40 image under the default
    // cadence of 8), then reset the device one kernel later. The
    // restore must detect the torn image, fall back one generation,
    // replay the longer journal suffix, and still land byte-identical
    // to an uninterrupted run.
    let clean = small().run(SystemKind::DeepUm).unwrap();
    let control = small()
        .injection_plan(InjectionPlan {
            device_reset_at: vec![41],
            ..InjectionPlan::default()
        })
        .run(SystemKind::DeepUm)
        .unwrap();
    let run_interrupted = || {
        small()
            .injection_plan(InjectionPlan {
                device_reset_at: vec![41],
                ckpt_corrupt_at: vec![5],
                ..InjectionPlan::default()
            })
            .run(SystemKind::DeepUm)
            .unwrap()
    };
    let interrupted = run_interrupted();

    let rec = interrupted
        .recovery
        .as_ref()
        .expect("hard-fault plan => recovery section");
    let control_rec = control
        .recovery
        .as_ref()
        .expect("hard-fault plan => recovery section");
    assert_eq!(rec.restores, 1, "one reset, one restore");
    assert!(
        rec.replay_kernels > control_rec.replay_kernels,
        "falling back a generation must replay a longer journal suffix \
         ({} vs {} kernels with the newest image intact)",
        rec.replay_kernels,
        control_rec.replay_kernels
    );
    let wear = interrupted
        .wear
        .as_ref()
        .expect("fallback restore => wear section");
    assert_eq!(wear.retired_pages, 0, "no ECC retirement in this plan");
    assert!(
        wear.recovery_generations >= 1,
        "the corrupt newest image must cost at least one generation"
    );
    // Two interrupted runs of the same plan are byte-identical.
    assert_eq!(
        serde_json::to_string(&interrupted).unwrap(),
        serde_json::to_string(&run_interrupted()).unwrap()
    );
    // And the recovered run converges to the uninterrupted one.
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&strip_wear(strip_recovery(interrupted))).unwrap(),
        "a run that lost its newest checkpoint must converge to the \
         uninterrupted run"
    );

    // The full JSONL event stream of the recovered run is itself
    // deterministic, and it records the fallback: the corrupt newest
    // generation and the longer replay are visible in the trace, not
    // just in the report's wear section.
    let traced = || {
        let tracer = deepum::trace::shared(deepum::trace::Tracer::export());
        small()
            .injection_plan(InjectionPlan {
                device_reset_at: vec![41],
                ckpt_corrupt_at: vec![5],
                ..InjectionPlan::default()
            })
            .tracer(tracer.clone())
            .run(SystemKind::DeepUm)
            .unwrap();
        let jsonl = tracer.borrow_mut().jsonl();
        jsonl
    };
    let trace = traced();
    assert_eq!(
        trace,
        traced(),
        "recovered trace must replay byte-identical"
    );
    for kind in ["CheckpointCorrupt", "RecoveryFellBack"] {
        assert!(
            trace.contains(&format!("\"{kind}\"")),
            "recovered trace must record a {kind} event"
        );
    }
}

#[test]
fn full_journal_forces_checkpoints_and_recovers() {
    // The launch journal holds 256 kernel boundaries, and a cadence of
    // 400 never comes due in this 348-launch run. At launch 256 the
    // full journal forces checkpoints until the oldest of the three
    // retained generations passes its entries: three images at seq 256
    // on top of the initial one. The reset at seq 300 then replays the
    // 44 launches since the newest of them.
    let session = || small().iterations(4).checkpoint_every(400);
    let tracer = deepum::trace::shared(deepum::trace::Tracer::export());
    let interrupted = session()
        .injection_plan(InjectionPlan {
            device_reset_at: vec![300],
            ..InjectionPlan::default()
        })
        .tracer(tracer.clone())
        .run(SystemKind::DeepUm)
        .unwrap();
    assert_eq!(
        interrupted.recovery,
        Some(deepum::core::recovery::RecoveryReport {
            checkpoints: 4,
            snapshot_bytes: 3_818_473,
            replay_kernels: 44,
            downtime_ns: 8_866_069,
            ecc_poisonings: 0,
            restores: 1,
        })
    );
    let replays: Vec<u64> = tracer
        .borrow_mut()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            deepum::TraceEvent::Restored { replayed } => Some(replayed),
            _ => None,
        })
        .collect();
    assert_eq!(replays, vec![44]);

    let mut recovered = strip_recovery(interrupted);
    recovered.trace = None;
    let clean = session().run(SystemKind::DeepUm).unwrap();
    assert_eq!(
        serde_json::to_string(&strip_recovery(clean)).unwrap(),
        serde_json::to_string(&recovered).unwrap(),
        "a run recovered through a full journal must converge to the \
         uninterrupted run"
    );
}

#[test]
fn oversubscribed_ecc_retirement_terminates_typed_and_validates() {
    use deepum::baselines::report::RunError;

    // Acceptance bar: a 2x-oversubscribed run under both sampled ECC
    // retirement and a scheduled burst either completes or fails with a
    // typed error — never a panic and never a fault livelock — with
    // driver invariants (blacklist/extent/residency disjointness)
    // checked after every fault drain and once more at the end.
    let workload = ModelKind::MobileNet.build(48);
    let costs = CostModel::v100_32gb()
        .with_device_memory(80 << 20)
        .with_host_memory(8 << 30);
    let cfg = UmRunConfig {
        costs: costs.clone(),
        seed: 7,
        plan: InjectionPlan {
            seed: 13,
            ecc_retire_rate: 0.01,
            retire_pages_at: vec![5, 9, 23],
            ..InjectionPlan::default()
        },
        validate_after_drain: true,
        ..UmRunConfig::new(2)
    };
    let mut driver = DeepumDriver::new(costs, DeepumConfig::default());
    match run_um(&workload, &mut driver, "deepum", &cfg, |d| d.counters()) {
        Ok(report) => {
            let wear = report.wear.expect("retirement fired => wear section");
            assert!(wear.retired_pages > 0, "the schedule must retire pages");
        }
        Err(
            RunError::WorkingSetExceedsDevice { .. }
            | RunError::OutOfMemory(_)
            | RunError::Driver(_),
        ) => {
            // Wearing the device below what one kernel needs resident is
            // a legal outcome of heavy retirement — as a typed error.
        }
        Err(e) => panic!("unexpected error class under ECC wear: {e:?}"),
    }
    driver.validate().expect("worn driver invariants hold");
    assert!(
        driver.wear().map_or(0, |w| w.retired_pages) > 0,
        "the retirement schedule must have fired"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any random injection plan leaves the UM driver's invariants intact
    /// after every single fault drain (checked inside the engine loop via
    /// `validate_after_drain`) and still completes the run.
    #[test]
    fn random_plans_never_violate_um_invariants(
        seed in 0u64..1000,
        h2d in 0.0f64..0.3,
        d2h in 0.0f64..0.3,
        oom in 0.0f64..0.3,
        storm in 0.0f64..0.2,
        corr in 0.0f64..0.5,
    ) {
        let workload = ModelKind::MobileNet.build(24);
        let costs = CostModel::v100_32gb()
            .with_device_memory(48 << 20)
            .with_host_memory(8 << 30);
        let cfg = UmRunConfig {
            costs: costs.clone(),
            seed: 7,
            plan: InjectionPlan {
                seed,
                dma_h2d_fail_rate: h2d,
                dma_d2h_fail_rate: d2h,
                host_oom_rate: oom,
                storm_rate: storm,
                corr_drop_rate: corr,
                ..InjectionPlan::default()
            },
            validate_after_drain: true,
            ..UmRunConfig::new(1)
        };
        let mut driver = DeepumDriver::new(costs, DeepumConfig::default());
        let report = run_um(&workload, &mut driver, "deepum", &cfg, |d| d.counters()).unwrap();
        prop_assert!(driver.validate().is_ok());
        prop_assert!(report.total > deepum::sim::time::Ns::ZERO);
    }

    /// Any random crash schedule (device resets by kernel seq, driver
    /// crashes by drain ordinal) recovers to the exact state of an
    /// uninterrupted run, and two recovered runs of the same plan
    /// serialize byte-identically.
    #[test]
    fn random_crash_schedules_recover_deterministically(
        resets in proptest::collection::vec(0u64..170, 0..3),
        crashes in proptest::collection::vec(0u64..40, 0..3),
        cadence in 2u64..16,
    ) {
        // Duplicate schedule entries are fine: a scheduled hard fault
        // fires at most once per seq/ordinal.
        let plan = InjectionPlan {
            device_reset_at: resets,
            driver_crash_at: crashes,
            ..InjectionPlan::default()
        };
        let interrupted = || {
            small()
                .checkpoint_every(cadence)
                .injection_plan(plan.clone())
                .run(SystemKind::DeepUm)
                .unwrap()
        };
        let a = interrupted();
        let b = interrupted();
        // (b) identical plans => byte-identical reports, recovery included.
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // (a) recovery converges to the uninterrupted run's final
        // residency, allocator state, and metrics.
        let clean = small().run(SystemKind::DeepUm).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&clean).unwrap(),
            serde_json::to_string(&strip_recovery(a)).unwrap()
        );
    }
}
