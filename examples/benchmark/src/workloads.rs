//! The benchmark's workloads and the two ways it runs one suite cell.
//!
//! Each workload is a fixed list of `deepum_bench::suite::suite_cells()`
//! keys, so every cell it runs has a committed report digest in
//! `ci/bench-baseline.json`. The untraced pass calls
//! `deepum_baselines::run_system`, exactly as the suite does; the traced
//! pass calls `deepum_baselines::run_um` with the backend wrapped in
//! [`Timed`], and must produce the same report bytes.

use deepum_baselines::{run_um, NaiveUm, RunError, RunParams, RunReport, System, UmRunConfig};
use deepum_bench::suite::{SuiteCell, SUITE_ITERS};
use deepum_core::driver::DeepumDriver;
use deepum_gpu::engine::UmBackend;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sim::metrics::Counters;
use deepum_torch::step::{Step, Workload};

use crate::timed::{Boundary, Span, Timed};

/// One benchmark workload.
#[derive(Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Suite cell keys it runs, in order.
    pub cells: &'static [&'static str],
}

/// Every workload, in `BENCHMARK.json` order. The cells are the shortest
/// suite cells that reproduce each layer split (host times on a 2-core
/// x86-64 host): a pass takes 1.5-2.1 s, so one run measures a dozen
/// passes and reports their median.
pub const WORKLOADS: [Spec; 4] = [
    // 53% of wall time in `handle_faults`: every fault batch restarts the
    // chain walk, ~300 table lookups per prefetch command.
    Spec {
        name: "chain-gpt2",
        why: "DeepUM on gpt2-l b5: fault handling restarts the chain walk per batch, so chaining and correlation dominate",
        cells: &["gpt2-l-b5-deepum-i2"],
    },
    // ~60% of wall time in `overlap_compute`: pre-eviction plus
    // prefetch-in, one command at a time.
    Spec {
        name: "migrate-16g",
        why: "DeepUM on the 16 GB platform (dcgan b8192): the migration thread's pre-eviction and prefetch-in dominate",
        cells: &["16g-dcgan-b8192-deepum-i2"],
    },
    // The naive-UM counterparts of the three DeepUM cells: no DeepUM
    // policy runs, so a `core` change must leave this workload unchanged.
    Spec {
        name: "demand-um",
        why: "naive UM on the same three models: bypasses DeepUM, so executor, GPU engine and UM demand paging dominate",
        cells: &["gpt2-l-b5-um-i2", "16g-dcgan-b8192-um-i2", "dlrm-b96000-um-i2"],
    },
    // Same `core` layers as chain-gpt2 with the opposite outcome: ~14M
    // chain lookups and zero prefetch commands. `--seed` changes the
    // gather sample.
    Spec {
        name: "gather-dlrm",
        why: "DeepUM on DLRM's seeded zipf gathers: millions of chain lookups yield no prefetch, the opposite of chain-gpt2",
        cells: &["dlrm-b96000-deepum-i2"],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The stack layer a cell's backend belongs to: its spans are reported
/// as `core.*` or `um.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `deepum_core::DeepumDriver`.
    Core,
    /// `deepum_baselines::NaiveUm` over `deepum_um::UmDriver`.
    Um,
}

/// The layer of `system`, or `None` for a system that does not run on
/// the UM path (and so cannot be wrapped).
pub fn layer_of(system: &System) -> Option<Layer> {
    match system {
        System::DeepUm(_) => Some(Layer::Core),
        System::Um => Some(Layer::Um),
        _ => None,
    }
}

/// Run parameters of a suite cell under `seed` (the suite itself always
/// uses `SUITE_SEED`).
pub fn params(cell: &SuiteCell, seed: u64) -> RunParams {
    let mut params = if cell.sixteen_gb {
        RunParams::v100_16gb(SUITE_ITERS, seed)
    } else {
        RunParams::v100_32gb(SUITE_ITERS, seed)
    };
    if let Some(bytes) = cell.device_bytes {
        params.costs = params.costs.with_device_memory(bytes);
    }
    params.plan = cell.plan.clone();
    params
}

/// True when the workload samples gathers, the only input the seed
/// changes; a cell without gathers reproduces its committed digest
/// under every seed.
pub fn has_gathers(workload: &Workload) -> bool {
    workload
        .steps
        .iter()
        .any(|s| matches!(s, Step::Kernel(k) if !k.gathers.is_empty()))
}

/// A UM-path backend, as `run_system` would construct it.
pub enum Backend {
    /// Naive UM.
    Um(Box<NaiveUm>),
    /// DeepUM.
    DeepUm(Box<DeepumDriver>),
}

impl Backend {
    /// Constructs the backend `run_system` builds for `system`.
    pub fn new(system: &System, params: &RunParams) -> Option<Backend> {
        match system {
            System::Um => Some(Backend::Um(Box::new(NaiveUm::new(params.costs.clone())))),
            System::DeepUm(cfg) => Some(Backend::DeepUm(Box::new(DeepumDriver::new(
                params.costs.clone(),
                cfg.clone(),
            )))),
            _ => None,
        }
    }
}

/// Outcome of one traced cell run.
pub struct Traced {
    /// The report, byte-identical to `run_system`'s when the wrapper is
    /// transparent.
    pub result: Result<RunReport, RunError>,
    /// Span per boundary, indexed like [`Boundary::ALL`].
    pub spans: [Span; Boundary::ALL.len()],
    /// The backend's invariant check after the run.
    pub valid: Result<(), String>,
}

/// Runs `workload` under `system` with the backend wrapped in [`Timed`].
/// Mirrors `run_system` for the two UM-path systems; `None` for any
/// other system.
pub fn run_traced(system: &System, workload: &Workload, params: &RunParams) -> Option<Traced> {
    let cfg = UmRunConfig {
        iterations: params.iters,
        costs: params.costs.clone(),
        perf: params.perf.clone(),
        seed: params.seed,
        plan: params.plan.clone(),
        validate_after_drain: false,
        checkpoint_every: params.checkpoint_every,
        tracer: params.tracer.clone(),
    };
    Some(match Backend::new(system, params)? {
        Backend::Um(b) => traced(*b, workload, "um", &cfg, NaiveUm::counters).0,
        Backend::DeepUm(b) => {
            let (mut run, backend) = traced(*b, workload, "deepum", &cfg, DeepumDriver::counters);
            if let Ok(report) = run.result.as_mut() {
                report.table_bytes = Some(backend.inner().table_memory_bytes() as u64);
            }
            run
        }
    })
}

fn traced<B: UmBackend + LaunchObserver>(
    inner: B,
    workload: &Workload,
    system: &str,
    cfg: &UmRunConfig,
    counters: fn(&B) -> Counters,
) -> (Traced, Timed<B>) {
    let mut backend = Timed::new(inner);
    let result = run_um(workload, &mut backend, system, cfg, |b| counters(b.inner()));
    let run = Traced {
        result,
        spans: Boundary::ALL.map(|b| backend.span(b)),
        valid: backend.validate(),
    };
    (run, backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_baselines::run_system;
    use deepum_bench::suite::report_json;
    use deepum_core::config::DeepumConfig;
    use deepum_sim::costs::CostModel;
    use deepum_sim::faultinject::InjectionPlan;
    use deepum_torch::models::ModelKind;

    /// `Timed` must not change a single report byte: for each UM-path
    /// backend, the traced run's report equals `run_system`'s.
    fn assert_transparent(plan: InjectionPlan) -> Vec<RunReport> {
        // MobileNet b48 on an 80 MiB device: ~1.4x oversubscribed, so
        // eviction and (for DeepUM) prefetch and pre-eviction all run.
        let workload = ModelKind::MobileNet.build(48);
        let mut params = RunParams::v100_32gb(2, 7);
        params.costs = CostModel::v100_32gb()
            .with_device_memory(80 << 20)
            .with_host_memory(8 << 30);
        params.plan = plan;
        let governed = DeepumConfig::default().with_pressure_governor(8, 4, 5, 15);
        [System::Um, System::deepum(), System::DeepUm(governed)]
            .iter()
            .map(|system| {
                let want = report_json(&run_system(system, &workload, &params));
                let run = run_traced(system, &workload, &params).expect("UM-path system");
                assert_eq!(report_json(&run.result), want, "{}", system.label());
                run.valid.expect("backend invariants hold after the run");
                assert!(run.spans[Boundary::Fault as usize].calls > 0);
                run.result.expect("run completes")
            })
            .collect()
    }

    #[test]
    fn timed_backends_are_transparent_on_a_clean_run() {
        for report in assert_transparent(InjectionPlan::default()) {
            assert!(report.health.is_none() && report.recovery.is_none());
        }
    }

    #[test]
    fn timed_backends_are_transparent_under_reset_and_transient_faults() {
        let plan = InjectionPlan {
            seed: 13,
            dma_h2d_fail_rate: 0.05,
            dma_d2h_fail_rate: 0.05,
            launch_delay_rate: 0.05,
            ecc_rate: 0.01,
            device_reset_at: vec![40],
            retire_pages_at: vec![10],
            ..InjectionPlan::default()
        };
        let reports = assert_transparent(plan);
        // Checkpoint/restore, the injector and `wear` were all forwarded
        // through the wrapper...
        for report in &reports {
            let recovery = report.recovery.as_ref().expect("reset => recovery");
            assert!(recovery.restores > 0);
            assert!(report.health.is_some(), "transients => health");
            assert!(report.wear.is_some(), "retirement => wear");
        }
        // ...and DeepUM's own `health` (ECC-poisoned tables) and, for the
        // governed backend, `pressure`.
        for deepum in &reports[1..] {
            let health = deepum.health.as_ref().expect("health section");
            assert_ne!(health.backend, Default::default());
        }
        assert!(reports[2].pressure.is_some());
    }
}
