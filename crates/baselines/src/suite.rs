//! Uniform runner over every memory system in the evaluation.
//!
//! Used by the bench harness and by the `deepum` facade crate's
//! [`Session`](https://docs.rs/deepum) API.

use crate::executor::swap::{run_swap, SwapRunConfig};
use crate::executor::um::{run_um, UmRunConfig};
use crate::ideal::run_ideal;
use crate::naive::NaiveUm;
use crate::report::{RunError, RunReport};
use crate::strategies::{AutoTm, Capuchin, Lms, LmsMod, Sentinel, SwapAdvisor, SwapStrategy, Vdnn};
use deepum_core::config::DeepumConfig;
use deepum_core::driver::DeepumDriver;
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::InjectionPlan;
use deepum_torch::perf::PerfModel;
use deepum_torch::step::Workload;
use deepum_trace::SharedTracer;
use serde::{Deserialize, Serialize};

/// A memory system under evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum System {
    /// Naive CUDA UM without prefetching — the evaluation baseline.
    Um,
    /// DeepUM with the given configuration.
    DeepUm(DeepumConfig),
    /// No-oversubscription upper bound.
    Ideal,
    /// IBM Large Model Support.
    Lms,
    /// LMS with periodic cache flushes.
    LmsMod,
    /// vDNN (CNNs only).
    Vdnn,
    /// AutoTM (ILP planner stand-in).
    AutoTm,
    /// SwapAdvisor (genetic-search stand-in).
    SwapAdvisor,
    /// Capuchin (runtime-measurement planner).
    Capuchin,
    /// Sentinel (page-fault-profiling planner).
    Sentinel,
}

impl System {
    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            System::Um => "um",
            System::DeepUm(_) => "deepum",
            System::Ideal => "ideal",
            System::Lms => "lms",
            System::LmsMod => "lms-mod",
            System::Vdnn => "vdnn",
            System::AutoTm => "autotm",
            System::SwapAdvisor => "swapadvisor",
            System::Capuchin => "capuchin",
            System::Sentinel => "sentinel",
        }
    }

    /// DeepUM with the paper's default configuration.
    pub fn deepum() -> System {
        System::DeepUm(DeepumConfig::default())
    }
}

/// Platform + run parameters shared by one experiment.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Cost model (device/host capacity, PCIe, fault costs).
    pub costs: CostModel,
    /// Kernel-time model.
    pub perf: PerfModel,
    /// Training iterations (first is warm-up).
    pub iters: usize,
    /// Seed for data-dependent workload randomness.
    pub seed: u64,
    /// Chaos-injection plan for UM-based systems (`Um` / `DeepUm`).
    /// Empty (the default) keeps runs bit-identical to a build without
    /// the fault-injection layer; swap baselines ignore it.
    pub plan: InjectionPlan,
    /// Checkpoint cadence in kernel launches for UM-based systems.
    /// `None` (the default) checkpoints only when `plan` schedules hard
    /// faults; swap baselines ignore it.
    pub checkpoint_every: Option<u64>,
    /// Structured-event tracer for UM-based systems (`Um` / `DeepUm`).
    /// `None` (the default) keeps runs untraced and reports without a
    /// trace section; swap baselines ignore it.
    pub tracer: Option<SharedTracer>,
}

impl RunParams {
    /// Paper primary platform (V100 32 GB, 512 GB host).
    pub fn v100_32gb(iters: usize, seed: u64) -> Self {
        RunParams {
            costs: CostModel::v100_32gb(),
            perf: PerfModel::v100(),
            iters,
            seed,
            plan: InjectionPlan::default(),
            checkpoint_every: None,
            tracer: None,
        }
    }

    /// Section 6.4 platform (V100 16 GB, 128 GB host budget).
    pub fn v100_16gb(iters: usize, seed: u64) -> Self {
        RunParams {
            costs: CostModel::v100_16gb(),
            perf: PerfModel::v100(),
            iters,
            seed,
            plan: InjectionPlan::default(),
            checkpoint_every: None,
            tracer: None,
        }
    }
}

/// Runs `workload` under `system`.
///
/// # Errors
///
/// Propagates the executor's [`RunError`] (OOM / unsupported model).
pub fn run_system(
    system: &System,
    workload: &Workload,
    params: &RunParams,
) -> Result<RunReport, RunError> {
    match system {
        System::Ideal => Ok(run_ideal(workload, params.iters, &params.perf)),
        System::Um => {
            let cfg = um_cfg(params);
            let mut backend = NaiveUm::new(params.costs.clone());
            run_um(workload, &mut backend, "um", &cfg, |b| b.counters())
        }
        System::DeepUm(dcfg) => {
            let cfg = um_cfg(params);
            let mut backend = DeepumDriver::new(params.costs.clone(), dcfg.clone());
            let mut report = run_um(workload, &mut backend, "deepum", &cfg, |b| b.counters())?;
            report.table_bytes = Some(backend.table_memory_bytes() as u64);
            Ok(report)
        }
        System::Lms => swap(workload, &mut Lms::policy(), params),
        System::LmsMod => swap(workload, &mut LmsMod::policy(), params),
        System::Vdnn => swap(workload, &mut Vdnn::policy(), params),
        System::AutoTm => swap(workload, &mut AutoTm::policy(), params),
        System::SwapAdvisor => swap(workload, &mut SwapAdvisor::new(params.seed), params),
        System::Capuchin => swap(workload, &mut Capuchin::policy(), params),
        System::Sentinel => swap(workload, &mut Sentinel::policy(), params),
    }
}

fn um_cfg(params: &RunParams) -> UmRunConfig {
    UmRunConfig {
        iterations: params.iters,
        costs: params.costs.clone(),
        perf: params.perf.clone(),
        seed: params.seed,
        plan: params.plan.clone(),
        validate_after_drain: false,
        checkpoint_every: params.checkpoint_every,
        tracer: params.tracer.clone(),
    }
}

fn swap(
    workload: &Workload,
    strategy: &mut dyn SwapStrategy,
    params: &RunParams,
) -> Result<RunReport, RunError> {
    let cfg = SwapRunConfig {
        iterations: params.iters,
        costs: params.costs.clone(),
        perf: params.perf.clone(),
    };
    run_swap(workload, strategy, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_torch::models::ModelKind;

    #[test]
    fn every_system_runs_mobilenet_or_reports_why() {
        let w = ModelKind::MobileNet.build(8);
        let params = RunParams {
            costs: CostModel::v100_32gb()
                .with_device_memory(256 << 20)
                .with_host_memory(8 << 30),
            perf: PerfModel::v100(),
            iters: 2,
            seed: 1,
            plan: InjectionPlan::default(),
            checkpoint_every: None,
            tracer: None,
        };
        for system in [
            System::Um,
            System::deepum(),
            System::Ideal,
            System::Lms,
            System::LmsMod,
            System::Vdnn,
            System::AutoTm,
            System::SwapAdvisor,
            System::Capuchin,
            System::Sentinel,
        ] {
            let r = run_system(&system, &w, &params);
            match r {
                Ok(rep) => {
                    assert_eq!(rep.iters.len(), 2, "{}", system.label());
                    assert_eq!(rep.system, system.label());
                }
                Err(e) => panic!("{} failed: {e}", system.label()),
            }
        }
    }

    #[test]
    fn deepum_report_carries_table_memory() {
        let w = ModelKind::MobileNet.build(4);
        let params = RunParams {
            costs: CostModel::v100_32gb()
                .with_device_memory(256 << 20)
                .with_host_memory(8 << 30),
            perf: PerfModel::v100(),
            iters: 1,
            seed: 1,
            plan: InjectionPlan::default(),
            checkpoint_every: None,
            tracer: None,
        };
        let r = run_system(&System::deepum(), &w, &params).unwrap();
        assert!(r.table_bytes.unwrap() > 0);
    }

    #[test]
    fn vdnn_reports_unsupported_for_transformers() {
        let w = ModelKind::BertBase.build(2);
        let params = RunParams::v100_32gb(1, 1);
        let err = run_system(&System::Vdnn, &w, &params).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
    }
}
