//! Run results: per-iteration stats and report aggregation.

use deepum_core::recovery::RecoveryReport;
use deepum_sim::faultinject::{BackendHealth, InjectionStats};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_trace::{PressureLevel, ServeLevel, TraceReport};
use serde::{Deserialize, Serialize};

/// Statistics of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterStats {
    /// Virtual time the iteration took.
    pub elapsed: Ns,
    /// Kernel compute time within the iteration.
    pub compute: Ns,
    /// Fault-handling / swap stall within the iteration.
    pub stall: Ns,
    /// Event counters accumulated within the iteration.
    pub counters: Counters,
}

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunError {
    /// Allocation failure (device or host backing store exhausted) — the
    /// condition probed by the maximum-batch-size experiments.
    OutOfMemory(String),
    /// The system cannot run this model at all (e.g. vDNN on a
    /// transformer — "not work" in Table 7).
    Unsupported(String),
    /// The UM driver or GPU engine aborted the run (capacity exhausted
    /// mid-kernel, bookkeeping invariant broken).
    Driver(String),
    /// A hard fault could not be recovered: no usable checkpoint, a
    /// restore failed validation, or the restore budget ran out.
    Recovery(String),
    /// A single kernel's minimum working set is larger than device
    /// memory: no eviction order can make it fit, so the run terminates
    /// with this typed error instead of looping on faults forever (the
    /// liveness bound of the pressure governor's in-flight pins).
    WorkingSetExceedsDevice {
        /// Pages the in-flight kernel needed resident at once.
        needed_pages: u64,
        /// Device capacity in pages.
        capacity_pages: u64,
    },
    /// Multi-tenant admission control refused the tenant: its requested
    /// guaranteed floor cannot be met without breaking the floors of
    /// already-admitted tenants. The tenant never runs a kernel; the
    /// admitted tenants are unaffected.
    AdmissionDenied {
        /// The refused tenant's id.
        tenant: u32,
        /// Floor pages the tenant requested.
        need: u64,
        /// Floor pages still unreserved on the device.
        avail: u64,
    },
    /// ECC page retirement shrank the device below the sum of admitted
    /// floors and the capacity refit revoked this tenant's guaranteed
    /// floor. The tenant's run ends with this typed error instead of
    /// livelocking on a guarantee the worn device can no longer honor;
    /// other tenants keep running.
    FloorLost {
        /// The tenant whose floor was revoked.
        tenant: u32,
        /// Floor pages the tenant had been guaranteed.
        floor_pages: u64,
        /// Effective device capacity (pages) after the shrink.
        capacity_pages: u64,
    },
    /// Every retained checkpoint generation failed validation during a
    /// hard-fault restore: the stored images were all torn, truncated,
    /// or bit-flipped beyond their checksums.
    AllCheckpointsCorrupt {
        /// Generations tried (ring occupancy at restore time).
        generations: u64,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::OutOfMemory(m) => write!(f, "out of memory: {m}"),
            RunError::Unsupported(m) => write!(f, "unsupported: {m}"),
            RunError::Driver(m) => write!(f, "driver error: {m}"),
            RunError::Recovery(m) => write!(f, "recovery failed: {m}"),
            RunError::WorkingSetExceedsDevice {
                needed_pages,
                capacity_pages,
            } => write!(
                f,
                "working set exceeds device: one kernel needs {needed_pages} \
                 resident pages but the device holds {capacity_pages}"
            ),
            RunError::AdmissionDenied {
                tenant,
                need,
                avail,
            } => write!(
                f,
                "admission denied: tenant t{tenant} requested a floor of \
                 {need} pages but only {avail} remain unreserved"
            ),
            RunError::FloorLost {
                tenant,
                floor_pages,
                capacity_pages,
            } => write!(
                f,
                "floor lost: ECC page retirement shrank the device to \
                 {capacity_pages} pages, revoking tenant t{tenant}'s \
                 guaranteed floor of {floor_pages} pages"
            ),
            RunError::AllCheckpointsCorrupt { generations } => write!(
                f,
                "recovery failed: all {generations} retained checkpoint \
                 generation(s) are corrupt"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Robustness section of a run report: what the chaos layer injected
/// and how the stack degraded and recovered. `None` on [`RunReport`]
/// when the run had no injection plan and nothing degraded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Faults injected and reactions (retries, backoff, fallbacks).
    pub injected: InjectionStats,
    /// Backend-side degradation (watchdog transitions, backpressure).
    pub backend: BackendHealth,
}

/// Memory-pressure section of a run report: what the governor saw and
/// did. `None` on [`RunReport`] when the run had no governor installed,
/// so ungoverned reports stay byte-identical to pre-governor builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureReport {
    /// Pressure classification at the end of the run.
    pub final_level: PressureLevel,
    /// Highest EWMA refault score seen, integer percent.
    pub peak_score_pct: u64,
    /// Evicted-then-demand-refaulted blocks (ping-pong events).
    pub refaults: u64,
    /// Eviction-scan skips forced by victim cooldown.
    pub cooldown_skips: u64,
    /// Pressure-level transitions over the run.
    pub level_changes: u64,
    /// Predicted-window (look-ahead) resizes the driver performed.
    pub window_resizes: u64,
}

/// Per-tenant section of a multi-tenant run report: one entry per
/// tenant that *arrived* at the scheduler, admitted or not, in tenant-id
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id (the `t<n>` in traces).
    pub tenant: u32,
    /// Human-readable job name.
    pub name: String,
    /// Scheduling priority (≥ 1).
    pub priority: u32,
    /// Guaranteed resident floor the tenant requested, pages.
    pub floor_pages: u64,
    /// Whether admission control let the tenant run.
    pub admitted: bool,
    /// Whether the tenant's job ran to completion.
    pub completed: bool,
    /// Terminal error, if the tenant was denied or died mid-run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Kernels the tenant launched.
    pub kernels: u64,
    /// GPU page faults taken during the tenant's slots.
    pub faults: u64,
    /// Pages migrated host→device for this tenant.
    pub pages_migrated: u64,
    /// Pages evicted from this tenant's residency.
    pub pages_evicted: u64,
    /// Host→device DMA bytes.
    pub bytes_h2d: u64,
    /// Device→host DMA bytes.
    pub bytes_d2h: u64,
    /// Evicted-then-refaulted blocks (ping-pong) charged to the tenant.
    pub refaults: u64,
    /// Eviction victims the fair-share scan charged to this tenant.
    pub evictions_charged: u64,
    /// Write-back time from evictions charged during other tenants'
    /// slots, paid on this tenant's clock at its next slot start (ns).
    pub reclaim_debt_ns: u64,
    /// Virtual time from the tenant's arrival to its completion.
    pub elapsed: Ns,
}

/// Per-endpoint section of an inference-serving run report: request
/// outcomes, virtual-latency percentiles, and degradation-ladder
/// activity for one model endpoint. Every endpoint of the spec has one,
/// admitted or not; a refused endpoint's counts are all zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointReport {
    /// Human-readable endpoint name.
    pub name: String,
    /// Whether admission control let the endpoint serve.
    pub admitted: bool,
    /// Terminal error, if the endpoint was refused or died mid-run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Requests that arrived over the run (including shed ones).
    pub requests: u64,
    /// Requests that ran to completion (on time or late).
    pub completed: u64,
    /// Completed requests that met their deadline.
    pub on_time: u64,
    /// Completed requests that overran their deadline.
    pub missed: u64,
    /// Requests shed by the ladder or by retry exhaustion.
    pub shed: u64,
    /// Retry attempts spent on injected transient request failures.
    pub retries: u64,
    /// Median completed-request virtual latency, ns.
    pub p50_latency_ns: u64,
    /// 99th-percentile completed-request virtual latency, ns.
    pub p99_latency_ns: u64,
    /// Ladder escalations (toward Shed) over the run.
    pub escalations: u64,
    /// Ladder de-escalations (toward Full) over the run.
    pub deescalations: u64,
    /// Worst degradation level the ladder reached.
    pub worst_level: ServeLevel,
}

/// Inference-serving section of a run report. `None` on [`RunReport`]
/// for training-only runs, so their reports stay byte-identical to
/// pre-serving builds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Per-endpoint outcomes, one per endpoint of the spec, in tenant-id
    /// order.
    pub endpoints: Vec<EndpointReport>,
    /// Requests arrived across all endpoints.
    pub total_requests: u64,
    /// Deadline misses across all endpoints.
    pub total_missed: u64,
    /// Sheds across all endpoints.
    pub total_shed: u64,
}

/// Device-wear section of a run report: permanent ECC page retirement
/// and its fallout. `None` on [`RunReport`] when no page was retired and
/// no restore fell back a generation, so wear-free reports stay
/// byte-identical to pre-wear builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearReport {
    /// Device page frames permanently retired (ECC blacklist size).
    pub retired_pages: u64,
    /// Pages live-migrated off retiring frames (out-of-band DMA).
    pub remigrations: u64,
    /// Extra checkpoint generations consumed by restores falling back
    /// past corrupt images (0 = every restore used the newest).
    pub recovery_generations: u64,
}

/// The outcome of running a workload under one memory system.
///
/// Every optional section carries
/// `#[serde(skip_serializing_if = "Option::is_none")]` (enforced
/// workspace-wide by the `report-section-convention` tidy pass): an
/// absent section is *omitted* from the JSON rather than rendered as
/// `null`, so reports of runs without the corresponding subsystem stay
/// byte-identical to reports produced before that subsystem existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Workload name (`"gpt2-xl/b7"`).
    pub workload: String,
    /// Memory system name (`"deepum"`, `"um"`, `"lms"`, ...).
    pub system: String,
    /// Per-iteration statistics, in execution order.
    pub iters: Vec<IterStats>,
    /// Total virtual time of the measured iterations.
    pub total: Ns,
    /// Whole-system energy over the measured iterations, joules.
    pub energy_joules: f64,
    /// Final counter totals.
    pub counters: Counters,
    /// Correlation-table memory, if the system keeps tables (Table 4).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub table_bytes: Option<u64>,
    /// Injected-fault and degradation summary, when applicable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub health: Option<HealthReport>,
    /// Checkpoint/restore summary; `Some` only when the run had hard
    /// faults scheduled or an explicit checkpoint cadence.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub recovery: Option<RecoveryReport>,
    /// Structured-event trace summary; `Some` only when the run had a
    /// tracer installed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceReport>,
    /// Memory-pressure governor summary; `Some` only when the backend
    /// ran with a governor installed.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub pressure: Option<PressureReport>,
    /// Per-tenant summaries; `Some` only for multi-tenant scheduler
    /// runs, so solo reports stay byte-identical to pre-tenancy builds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<Vec<TenantReport>>,
    /// Inference-serving summary; `Some` only for serving-simulator
    /// runs, so training reports stay byte-identical to pre-serving
    /// builds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub serving: Option<ServingReport>,
    /// Device-wear summary; `Some` only when ECC retirement fired or a
    /// restore consumed a fallback checkpoint generation, so wear-free
    /// reports stay byte-identical to pre-wear builds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub wear: Option<WearReport>,
}

impl RunReport {
    /// Mean steady-state iteration time: the first (warm-up) iteration is
    /// excluded when more than one iteration ran, matching how the paper
    /// reports training throughput.
    pub fn steady_iter_time(&self) -> Ns {
        let (skip, n) = if self.iters.len() > 1 {
            (1, self.iters.len() - 1)
        } else {
            (0, self.iters.len())
        };
        if n == 0 {
            return Ns::ZERO;
        }
        let sum: Ns = self.iters.iter().skip(skip).map(|i| i.elapsed).sum();
        sum / n as u64
    }

    /// Extrapolated time for `n` iterations: the measured warm-up
    /// iteration plus `n - 1` steady-state iterations (how the Fig. 9(b)
    /// 100-iteration numbers are produced).
    pub fn time_for_iterations(&self, n: usize) -> Ns {
        if self.iters.is_empty() || n == 0 {
            return Ns::ZERO;
        }
        let first = self.iters[0].elapsed;
        if n == 1 {
            return first;
        }
        first + self.steady_iter_time() * (n as u64 - 1)
    }

    /// Throughput speedup of `self` over `base` on steady-state
    /// iteration time.
    pub fn speedup_over(&self, base: &RunReport) -> f64 {
        let own = self.steady_iter_time().as_nanos();
        if own == 0 {
            return f64::INFINITY;
        }
        base.steady_iter_time().as_nanos() as f64 / own as f64
    }

    /// Mean energy per steady-state iteration, joules.
    pub fn steady_iter_energy(&self) -> f64 {
        if self.total == Ns::ZERO {
            return 0.0;
        }
        // Energy accrues roughly uniformly over virtual time.
        self.energy_joules * self.steady_iter_time().as_secs_f64() / self.total.as_secs_f64()
    }

    /// Steady-state page faults per iteration (Table 5).
    pub fn steady_faults_per_iter(&self) -> u64 {
        let (skip, n) = if self.iters.len() > 1 {
            (1, self.iters.len() - 1)
        } else {
            (0, self.iters.len())
        };
        if n == 0 {
            return 0;
        }
        let sum: u64 = self
            .iters
            .iter()
            .skip(skip)
            .map(|i| i.counters.gpu_page_faults)
            .sum();
        sum / n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(iter_ms: &[u64]) -> RunReport {
        let iters = iter_ms
            .iter()
            .map(|&ms| IterStats {
                elapsed: Ns::from_millis(ms),
                compute: Ns::from_millis(ms / 2),
                stall: Ns::from_millis(ms / 2),
                counters: Counters::default(),
            })
            .collect::<Vec<_>>();
        let total: Ns = iters.iter().map(|i| i.elapsed).sum();
        RunReport {
            workload: "w".into(),
            system: "s".into(),
            iters,
            total,
            energy_joules: 100.0,
            counters: Counters::default(),
            table_bytes: None,
            health: None,
            recovery: None,
            trace: None,
            pressure: None,
            tenants: None,
            serving: None,
            wear: None,
        }
    }

    #[test]
    fn steady_excludes_warmup() {
        let r = report(&[100, 10, 10, 10]);
        assert_eq!(r.steady_iter_time(), Ns::from_millis(10));
    }

    #[test]
    fn single_iteration_is_its_own_steady_state() {
        let r = report(&[42]);
        assert_eq!(r.steady_iter_time(), Ns::from_millis(42));
    }

    #[test]
    fn extrapolation_keeps_warmup_once() {
        let r = report(&[100, 10, 10]);
        assert_eq!(r.time_for_iterations(100), Ns::from_millis(100 + 99 * 10));
        assert_eq!(r.time_for_iterations(1), Ns::from_millis(100));
    }

    #[test]
    fn speedup_ratio() {
        let fast = report(&[50, 10, 10]);
        let slow = report(&[50, 30, 30]);
        assert!((fast.speedup_over(&slow) - 3.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn crash_free_report_omits_recovery_member() {
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("recovery"));
        // Every absent optional section is omitted outright — no nulls
        // anywhere in a minimal report (bench cache v14 format).
        assert!(!json.contains("null"), "{json}");
        assert!(!json.contains("table_bytes"));
        assert!(!json.contains("health"));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn recovery_member_round_trips() {
        let mut r = report(&[10, 10]);
        r.recovery = Some(RecoveryReport {
            checkpoints: 3,
            snapshot_bytes: 4096,
            replay_kernels: 17,
            downtime_ns: 2_000_000,
            ecc_poisonings: 0,
            restores: 2,
        });
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"recovery\""));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn untraced_report_omits_trace_member() {
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("\"trace\""));
    }

    #[test]
    fn trace_member_round_trips() {
        let mut r = report(&[10, 10]);
        let mut tracer = deepum_trace::Tracer::export();
        tracer.emit(
            10,
            deepum_trace::TraceEvent::KernelBegin {
                seq: 0,
                name: "gemm".into(),
            },
        );
        tracer.emit(
            25,
            deepum_trace::TraceEvent::KernelEnd {
                seq: 0,
                faults: 3,
                stall_ns: 5,
            },
        );
        r.trace = Some(tracer.report());
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"trace\""));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn ungoverned_report_omits_pressure_member() {
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("\"pressure\""));
    }

    #[test]
    fn pressure_member_round_trips() {
        let mut r = report(&[10, 10]);
        r.pressure = Some(PressureReport {
            final_level: PressureLevel::Thrashing,
            peak_score_pct: 61,
            refaults: 42,
            cooldown_skips: 7,
            level_changes: 3,
            window_resizes: 2,
        });
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"pressure\""));
        assert!(json.contains("Thrashing"));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn solo_report_omits_tenants_member() {
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("\"tenants\""));
    }

    #[test]
    fn tenants_member_round_trips() {
        let mut r = report(&[10, 10]);
        r.tenants = Some(vec![TenantReport {
            tenant: 0,
            name: "trainer".into(),
            priority: 2,
            floor_pages: 4096,
            admitted: true,
            completed: true,
            error: None,
            kernels: 120,
            faults: 33,
            pages_migrated: 9000,
            pages_evicted: 4000,
            bytes_h2d: 1 << 24,
            bytes_d2h: 1 << 22,
            refaults: 5,
            evictions_charged: 7,
            reclaim_debt_ns: 12_345,
            elapsed: Ns::from_millis(90),
        }]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"tenants\""));
        assert!(json.contains("trainer"));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn wear_free_report_omits_wear_member() {
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("\"wear\""));
    }

    #[test]
    fn wear_member_round_trips() {
        let mut r = report(&[10, 10]);
        r.wear = Some(WearReport {
            retired_pages: 3,
            remigrations: 1200,
            recovery_generations: 1,
        });
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(json.contains("\"wear\""));
        assert!(json.contains("retired_pages"));
        let back: RunReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, r);
    }

    #[test]
    fn pre_wear_report_without_member_still_parses() {
        // Bench-cache files written before v16 have no `wear` key at
        // all; they must keep deserializing (to `None`).
        let r = report(&[10, 10]);
        let json = serde_json::to_string(&r).expect("report serializes");
        assert!(!json.contains("\"wear\""), "{json}");
        let back: RunReport = serde_json::from_str(&json).expect("pre-wear report parses");
        assert_eq!(back.wear, None);
    }

    #[test]
    fn floor_lost_formats_tenant_and_sizes() {
        let e = RunError::FloorLost {
            tenant: 1,
            floor_pages: 4096,
            capacity_pages: 3500,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("t1") && msg.contains("4096") && msg.contains("3500"),
            "{msg}"
        );
    }

    #[test]
    fn all_checkpoints_corrupt_formats_generation_count() {
        let e = RunError::AllCheckpointsCorrupt { generations: 3 };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains("corrupt"), "{msg}");
    }

    #[test]
    fn admission_denied_formats_need_and_avail() {
        let e = RunError::AdmissionDenied {
            tenant: 2,
            need: 2048,
            avail: 512,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("t2") && msg.contains("2048") && msg.contains("512"),
            "{msg}"
        );
    }

    #[test]
    fn working_set_error_formats_both_sizes() {
        let e = RunError::WorkingSetExceedsDevice {
            needed_pages: 1536,
            capacity_pages: 1024,
        };
        let msg = e.to_string();
        assert!(msg.contains("1536") && msg.contains("1024"), "{msg}");
    }

    #[test]
    fn faults_per_iter_averages_steady_iters() {
        let mut r = report(&[100, 10, 10]);
        r.iters[1].counters.gpu_page_faults = 6;
        r.iters[2].counters.gpu_page_faults = 4;
        r.iters[0].counters.gpu_page_faults = 1000;
        assert_eq!(r.steady_faults_per_iter(), 5);
    }
}
