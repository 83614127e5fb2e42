//! Kernel execution engine.
//!
//! Executes [`KernelLaunch`] descriptors against a memory backend (the UM
//! driver), reproducing the GPU-side fault protocol:
//!
//! 1. the kernel touches a UM block; pages without a valid device mapping
//!    fault;
//! 2. faulting accesses stall, so the GPU only accumulates a bounded batch
//!    of faulted pages before the driver must intervene: one round hands
//!    the backend one [`FaultEntry`] holding the block's first
//!    `batch_limit` missing pages;
//! 3. the driver migrates the pages and sends the replay signal; the
//!    engine charges the handling time as kernel stall;
//! 4. compute proceeds; background migrations (prefetches issued by the
//!    driver) overlap with compute via [`UmBackend::overlap_compute`].
//!
//! Compute time is spread across the access trace, so a kernel whose later
//! blocks are still being prefetched can hide that latency behind its own
//! earlier compute — the mechanism DeepUM's intra-kernel chaining exploits.

use deepum_mem::{BlockNum, PageMask};
use deepum_sim::clock::SimClock;
use deepum_sim::energy::{EnergyMeter, PowerState};
use deepum_sim::faultinject::{BackendHealth, SharedInjector};
use deepum_sim::time::Ns;
use deepum_trace::{InjectKind, PressureLevel, SharedTracer, TraceEvent};

use core::fmt;

use crate::fault::FaultEntry;
use crate::kernel::KernelLaunch;

/// Failure surfaced by a [`UmBackend`] while draining a fault batch.
///
/// These are *driver* failures, distinct from the injected transient
/// faults the backends already retry internally: when one of these
/// escapes `handle_faults`, the replayed access could never succeed and
/// the run must stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A demand migration needed more device pages than the GPU holds
    /// even with every evictable block evicted.
    CapacityExceeded {
        /// Pages the faulting access required to become resident.
        needed_pages: u64,
        /// Total device capacity in pages.
        capacity_pages: u64,
    },
    /// Driver bookkeeping lost track of a block the fault path needed —
    /// an internal inconsistency, reported instead of a panic so the
    /// simulation can surface it as a failed run.
    MissingBlock(BlockNum),
    /// **Hard fault.** The driver crashed mid-fault-drain (injected via
    /// a scheduled [`InjectionPlan::driver_crash_at`] entry) before
    /// mutating any driver state. Device-side residency is lost; the
    /// session must restore the last checkpoint and replay.
    ///
    /// [`InjectionPlan::driver_crash_at`]: deepum_sim::faultinject::InjectionPlan::driver_crash_at
    DriverCrash,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::CapacityExceeded {
                needed_pages,
                capacity_pages,
            } => write!(
                f,
                "demand migration of {needed_pages} pages exceeds device capacity of {capacity_pages} pages"
            ),
            BackendError::MissingBlock(block) => {
                write!(f, "driver bookkeeping lost track of {block}")
            }
            BackendError::DriverCrash => {
                write!(f, "driver crashed mid-fault-drain (injected hard fault)")
            }
        }
    }
}

/// Failure of one kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The backend failed while handling a fault drain.
    Backend(BackendError),
    /// [`UmBackend::validate`] reported a broken invariant after a drain
    /// (only checked when validation is enabled).
    InvariantViolated(String),
    /// A fault drain resolved nothing: the replay would loop forever on
    /// real hardware.
    NoProgress {
        /// Block whose pages stayed non-resident.
        block: BlockNum,
        /// Pages still missing after the drain.
        missing: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Backend(e) => write!(f, "backend failed during fault drain: {e}"),
            EngineError::InvariantViolated(msg) => {
                write!(f, "backend invariant violated after fault drain: {msg}")
            }
            EngineError::NoProgress { block, missing } => write!(
                f,
                "backend made no progress on faults for {block} ({missing} pages missing)"
            ),
        }
    }
}

impl From<BackendError> for EngineError {
    fn from(e: BackendError) -> Self {
        EngineError::Backend(e)
    }
}

/// The driver-side interface the engine executes against.
///
/// Implemented by the naive UM driver, by DeepUM, and by the tensor-level
/// swapping baselines (which pin everything they manage and therefore see
/// no faults).
pub trait UmBackend {
    /// Subset of `pages` in `block` with no valid device mapping.
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask;

    /// Handles a drained fault batch: migrate the faulted pages and remap.
    /// Returns the stall time observed by the GPU (fault handling is on
    /// the critical path). After this call every faulted page must be
    /// resident.
    ///
    /// Each entry is one block's deduplicated pages, and a batch names
    /// each block at most once. The engine always passes a single entry;
    /// multi-entry batches (one entry per distinct block) are handled in
    /// order, as one driver pass.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the batch can never be made
    /// resident (capacity exhausted, bookkeeping inconsistency); the
    /// engine aborts the kernel with [`EngineError::Backend`].
    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError>;

    /// Records a successful (resident) access for recency/prefetch-hit
    /// bookkeeping.
    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask);

    /// The GPU computes for `dur` starting at `now`; the backend may
    /// overlap background work (prefetch migrations). Returns how much of
    /// `dur` carried PCIe traffic, for energy accounting.
    fn overlap_compute(&mut self, now: Ns, dur: Ns) -> Ns;

    /// Called when the current kernel retires; lets the driver resume any
    /// paused prefetch chaining (Section 4.2).
    fn kernel_finished(&mut self, now: Ns);

    /// Installs a shared fault injector; the backend rolls its DMA /
    /// host-OOM / table-drop faults against it. Backends without
    /// injectable failure paths ignore the handle.
    fn install_injector(&mut self, _injector: SharedInjector) {}

    /// Installs a shared tracer; the backend then emits structured
    /// events (migrations, evictions, prefetch activity) into it.
    /// Backends without traced paths ignore the handle.
    fn install_tracer(&mut self, _tracer: SharedTracer) {}

    /// Checks the backend's internal invariants (residency accounting,
    /// LRU consistency). The engine asserts this after every fault drain
    /// when validation is enabled; injection tests lean on it to prove
    /// that injected faults never corrupt driver state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Graceful-degradation report (watchdog transitions, backpressure
    /// drops). Backends without degradation machinery report the default.
    fn health(&self) -> BackendHealth {
        BackendHealth::default()
    }

    /// Serializes the backend's recoverable state into a versioned,
    /// checksummed binary snapshot (see `deepum_um::snapshot`). Returns
    /// `None` for backends without checkpoint support; the session then
    /// cannot recover this backend from hard faults.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`UmBackend::snapshot_state`]. After a
    /// successful restore the backend must pass [`UmBackend::validate`].
    ///
    /// # Errors
    ///
    /// Returns a description of the decode failure (bad magic, version
    /// mismatch, checksum mismatch, truncation) or a capability error
    /// for backends without snapshot support.
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err("this backend does not support snapshot/restore".into())
    }

    /// Pages currently resident on the device, used by the recovery
    /// protocol to charge the demand-only re-migration of the restored
    /// resident set to downtime.
    fn resident_pages(&self) -> u64 {
        0
    }

    /// Cumulative memory-pressure governor statistics, `None` when no
    /// governor is installed (the default). The report layer maps this
    /// to the omitted-not-null `RunReport.pressure` section.
    fn pressure(&self) -> Option<PressureStats> {
        None
    }

    /// Cumulative device-wear statistics (ECC page retirement), `None`
    /// when no frame was ever retired (the default). The report layer
    /// maps this to the omitted-not-null `RunReport.wear` section.
    fn wear(&self) -> Option<WearStats> {
        None
    }
}

/// Cumulative device-wear statistics: permanent ECC page-frame
/// retirement and the live migrations it forced. Defined next to
/// [`UmBackend`] so backends can report it without the report layer
/// depending on the um crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WearStats {
    /// Device page frames permanently retired (blacklisted).
    pub retired_pages: u64,
    /// Pages live-migrated off the device because a frame retired or
    /// the shrunk capacity no longer held them.
    pub remigrated_pages: u64,
}

/// Cumulative statistics of the memory-pressure governor
/// (`deepum_um::pressure`). Defined next to [`UmBackend`] so backends
/// can report it without the report layer depending on the um crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureStats {
    /// Final steady-state pressure classification.
    pub level: PressureLevel,
    /// Blocks demand-migrated back within the refault window of their
    /// eviction (ping-pong events).
    pub refaults: u64,
    /// Eviction victims passed over because of refault cooldown.
    pub cooldown_skips: u64,
    /// Pressure-level transitions over the run.
    pub level_changes: u64,
    /// Prefetch-window resizes driven by the governor.
    pub window_resizes: u64,
    /// Highest EWMA thrash score observed, whole percent.
    pub peak_score_pct: u64,
}

impl Default for PressureStats {
    fn default() -> Self {
        PressureStats {
            level: PressureLevel::Normal,
            refaults: 0,
            cooldown_skips: 0,
            level_changes: 0,
            window_resizes: 0,
            peak_score_pct: 0,
        }
    }
}

/// Statistics for one kernel execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelRunStats {
    /// Compute time charged.
    pub compute: Ns,
    /// Fault-handling stall charged.
    pub stall: Ns,
    /// Faulted pages delivered to the driver.
    pub faults: u64,
    /// Fault batches delivered (handler invocations).
    pub fault_batches: u64,
}

impl KernelRunStats {
    /// Total virtual time the kernel occupied the GPU.
    pub fn elapsed(&self) -> Ns {
        self.compute + self.stall
    }

    /// Accumulates another kernel's stats into `self`.
    pub fn merge(&mut self, other: &KernelRunStats) {
        self.compute += other.compute;
        self.stall += other.stall;
        self.faults += other.faults;
        self.fault_batches += other.fault_batches;
    }
}

/// The simulated GPU front end.
///
/// # Example
///
/// See the crate-level integration tests; driving the engine requires a
/// [`UmBackend`] implementation, typically `deepum_um::UmDriver`.
#[derive(Debug)]
pub struct GpuEngine {
    demand_batch: usize,
    injector: Option<SharedInjector>,
    tracer: Option<SharedTracer>,
    validate_after_drain: bool,
}

impl GpuEngine {
    /// Pages the GPU accumulates before stalled accesses force a handler
    /// pass. Faulting warps stall quickly, so hardware delivers faults in
    /// modest groups.
    pub const DEFAULT_DEMAND_BATCH: usize = 256;

    /// Creates an engine with V100-like parameters.
    pub fn new() -> Self {
        Self::with_params(Self::DEFAULT_DEMAND_BATCH)
    }

    /// Creates an engine with an explicit demand batch size.
    ///
    /// # Panics
    ///
    /// Panics if `demand_batch` is zero.
    pub fn with_params(demand_batch: usize) -> Self {
        assert!(demand_batch > 0, "demand batch must be positive");
        GpuEngine {
            demand_batch,
            injector: None,
            tracer: None,
            validate_after_drain: false,
        }
    }

    /// Installs a shared fault injector; fault storms then shrink the
    /// effective demand batch for the storm's duration.
    pub fn set_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Installs a shared tracer; fault-buffer drains and the resulting
    /// TLB stalls are then emitted as structured events.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// When enabled, the engine checks [`UmBackend::validate`] after
    /// every fault drain and fails the kernel with
    /// [`EngineError::InvariantViolated`] on the first broken invariant.
    /// Off by default (it walks the backend's full block map).
    pub fn set_validate_after_drain(&mut self, on: bool) {
        self.validate_after_drain = on;
    }

    /// Executes one kernel to completion against `backend`, advancing
    /// `clock` and charging `energy`.
    ///
    /// # Errors
    ///
    /// Fails when the backend cannot make faulted pages resident
    /// ([`EngineError::Backend`], [`EngineError::NoProgress`]) or, with
    /// validation enabled, when a post-drain invariant check fails
    /// ([`EngineError::InvariantViolated`]). The clock and energy meter
    /// keep whatever they accumulated before the failure.
    pub fn execute<B>(
        &mut self,
        kernel: &KernelLaunch,
        clock: &mut SimClock,
        backend: &mut B,
        energy: &mut EnergyMeter,
    ) -> Result<KernelRunStats, EngineError>
    where
        B: UmBackend + ?Sized,
    {
        let mut stats = KernelRunStats::default();
        let n = kernel.accesses.len();
        let slice = if n == 0 {
            kernel.compute
        } else {
            kernel.compute / n as u64
        };

        for (i, access) in kernel.accesses.iter().enumerate() {
            // Resolve residency for this access; each round models the
            // stalled accesses delivering a bounded batch of faulted pages.
            loop {
                let miss = backend.resident_miss(access.block, &access.pages);
                if miss.is_empty() {
                    break;
                }
                let before = miss.count();
                // A fault storm shrinks the batch the stalled accesses can
                // deliver before the handler must run.
                let batch_limit = match &self.injector {
                    Some(inj) => inj.borrow_mut().effective_fault_batch(self.demand_batch),
                    None => self.demand_batch,
                };
                let pages = miss.lowest(batch_limit);
                let batch = FaultEntry {
                    block: access.block,
                    pages,
                    kind: access.kind,
                };
                let entries = pages.count_u64();
                stats.faults += entries;
                stats.fault_batches += 1;
                if let Some(tr) = &self.tracer {
                    let mut tr = tr.borrow_mut();
                    if batch_limit < self.demand_batch {
                        tr.emit(
                            clock.now().as_nanos(),
                            TraceEvent::InjectedFault {
                                kind: InjectKind::FaultStorm,
                            },
                        );
                    }
                    tr.emit(
                        clock.now().as_nanos(),
                        TraceEvent::FaultBufferDrain { entries },
                    );
                }
                let stall = backend.handle_faults(clock.now(), core::slice::from_ref(&batch))?;
                clock.advance(stall);
                energy.accumulate(PowerState::Transfer, stall);
                stats.stall += stall;
                if let Some(tr) = &self.tracer {
                    tr.borrow_mut().emit(
                        clock.now().as_nanos(),
                        TraceEvent::TlbStall {
                            ns: stall.as_nanos(),
                        },
                    );
                }
                if self.validate_after_drain {
                    if let Err(msg) = backend.validate() {
                        return Err(EngineError::InvariantViolated(msg));
                    }
                }

                let after = backend.resident_miss(access.block, &access.pages).count();
                if after >= before {
                    return Err(EngineError::NoProgress {
                        block: access.block,
                        missing: after as u64,
                    });
                }
            }
            backend.touch(clock.now(), access.block, &access.pages);

            // Compute slice following the access; the last access absorbs
            // the rounding remainder.
            let this_slice = if i + 1 == n {
                kernel.compute - slice * (n as u64 - 1)
            } else {
                slice
            };
            self.run_compute(this_slice, clock, backend, energy, &mut stats);
        }

        if n == 0 {
            self.run_compute(slice, clock, backend, energy, &mut stats);
        }

        backend.kernel_finished(clock.now());
        Ok(stats)
    }

    fn run_compute<B>(
        &mut self,
        dur: Ns,
        clock: &mut SimClock,
        backend: &mut B,
        energy: &mut EnergyMeter,
        stats: &mut KernelRunStats,
    ) where
        B: UmBackend + ?Sized,
    {
        if dur == Ns::ZERO {
            return;
        }
        let busy = backend.overlap_compute(clock.now(), dur).min(dur);
        clock.advance(dur);
        energy.accumulate(PowerState::ComputeTransfer, busy);
        energy.accumulate(PowerState::Compute, dur - busy);
        stats.compute += dur;
    }
}

impl Default for GpuEngine {
    fn default() -> Self {
        GpuEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::AccessKind;
    use crate::kernel::BlockAccess;
    use std::collections::HashMap;

    /// A toy backend: everything is non-resident until faulted in, then
    /// stays resident. Each handled fault costs 1 µs.
    #[derive(Default)]
    struct ToyBackend {
        resident: HashMap<BlockNum, PageMask>,
        touched: u64,
        finished: u64,
        overlap_calls: u64,
    }

    impl UmBackend for ToyBackend {
        fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
            match self.resident.get(&block) {
                Some(res) => pages.subtract(res),
                None => *pages,
            }
        }

        fn handle_faults(&mut self, _now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
            let mut pages = 0;
            for f in faults {
                self.resident
                    .entry(f.block)
                    .or_insert_with(PageMask::empty)
                    .union_with(&f.pages);
                pages += f.pages.count_u64();
            }
            Ok(Ns::from_micros(pages))
        }

        fn touch(&mut self, _now: Ns, _block: BlockNum, pages: &PageMask) {
            self.touched += pages.count() as u64;
        }

        fn overlap_compute(&mut self, _now: Ns, _dur: Ns) -> Ns {
            self.overlap_calls += 1;
            Ns::ZERO
        }

        fn kernel_finished(&mut self, _now: Ns) {
            self.finished += 1;
        }
    }

    fn kernel(blocks: &[(u64, usize)], compute_us: u64) -> KernelLaunch {
        let accesses = blocks
            .iter()
            .map(|&(b, pages)| {
                BlockAccess::new(BlockNum::new(b), PageMask::first_n(pages), AccessKind::Read)
            })
            .collect();
        KernelLaunch::new("toy", &[], accesses, Ns::from_micros(compute_us))
    }

    #[test]
    fn cold_kernel_faults_every_page() {
        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        let k = kernel(&[(0, 100), (1, 50)], 30);
        let stats = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("kernel runs");

        assert_eq!(stats.faults, 150);
        assert_eq!(stats.compute, Ns::from_micros(30));
        assert_eq!(stats.stall, Ns::from_micros(150));
        assert_eq!(clock.now(), stats.elapsed());
        assert_eq!(backend.touched, 150);
        assert_eq!(backend.finished, 1);
    }

    #[test]
    fn warm_kernel_faults_nothing() {
        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        let k = kernel(&[(0, 100)], 10);
        engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("cold kernel runs");
        let warm = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("warm kernel runs");
        assert_eq!(warm.faults, 0);
        assert_eq!(warm.stall, Ns::ZERO);
        assert_eq!(warm.compute, Ns::from_micros(10));
    }

    #[test]
    fn demand_batch_bounds_each_handler_pass() {
        let mut engine = GpuEngine::with_params(64);
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        let k = kernel(&[(0, 512)], 10);
        let stats = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("kernel runs");
        assert_eq!(stats.faults, 512);
        assert_eq!(stats.fault_batches, 8); // 512 / 64
    }

    #[test]
    fn compute_only_kernel_advances_clock() {
        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        let k = kernel(&[], 42);
        let stats = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("kernel runs");
        assert_eq!(stats.compute, Ns::from_micros(42));
        assert_eq!(clock.now(), Ns::from_micros(42));
        assert_eq!(backend.overlap_calls, 1);
    }

    #[test]
    fn compute_is_fully_distributed_across_accesses() {
        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        // 3 accesses over a compute time not divisible by 3.
        let k = kernel(&[(0, 1), (1, 1), (2, 1)], 100);
        let stats = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("kernel runs");
        assert_eq!(stats.compute, Ns::from_micros(100));
    }

    #[test]
    fn storm_shrinks_demand_batches() {
        use deepum_sim::faultinject::InjectionPlan;

        let plan = InjectionPlan {
            storm_rate: 1.0,
            storm_capacity_frac: 0.25,
            storm_duration_drains: u32::MAX,
            ..InjectionPlan::default()
        };
        let mut engine = GpuEngine::with_params(64);
        engine.set_injector(plan.build_shared());
        let mut clock = SimClock::new();
        let mut backend = ToyBackend::default();
        let mut energy = EnergyMeter::new();

        let k = kernel(&[(0, 512)], 10);
        let stats = engine
            .execute(&k, &mut clock, &mut backend, &mut energy)
            .expect("kernel runs");
        assert_eq!(stats.faults, 512);
        assert_eq!(stats.fault_batches, 32); // 512 / (64 * 0.25)
    }

    #[test]
    fn validate_hook_fails_the_kernel_on_violation() {
        struct BrokenBackend(ToyBackend);
        impl UmBackend for BrokenBackend {
            fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
                self.0.resident_miss(block, pages)
            }
            fn handle_faults(
                &mut self,
                now: Ns,
                faults: &[FaultEntry],
            ) -> Result<Ns, BackendError> {
                self.0.handle_faults(now, faults)
            }
            fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
                self.0.touch(now, block, pages);
            }
            fn overlap_compute(&mut self, now: Ns, dur: Ns) -> Ns {
                self.0.overlap_compute(now, dur)
            }
            fn kernel_finished(&mut self, now: Ns) {
                self.0.kernel_finished(now);
            }
            fn validate(&self) -> Result<(), String> {
                Err("synthetic violation".into())
            }
        }

        let run = |validate: bool| {
            let mut engine = GpuEngine::new();
            engine.set_validate_after_drain(validate);
            let mut clock = SimClock::new();
            let mut backend = BrokenBackend(ToyBackend::default());
            let mut energy = EnergyMeter::new();
            engine.execute(&kernel(&[(0, 4)], 1), &mut clock, &mut backend, &mut energy)
        };
        assert!(run(false).is_ok());
        assert_eq!(
            run(true),
            Err(EngineError::InvariantViolated("synthetic violation".into()))
        );
    }

    #[test]
    fn stuck_backend_reports_no_progress() {
        /// Accepts faults but never maps anything in.
        #[derive(Default)]
        struct StuckBackend;
        impl UmBackend for StuckBackend {
            fn resident_miss(&self, _block: BlockNum, pages: &PageMask) -> PageMask {
                *pages
            }
            fn handle_faults(
                &mut self,
                _now: Ns,
                _faults: &[FaultEntry],
            ) -> Result<Ns, BackendError> {
                Ok(Ns::ZERO)
            }
            fn touch(&mut self, _now: Ns, _block: BlockNum, _pages: &PageMask) {}
            fn overlap_compute(&mut self, _now: Ns, _dur: Ns) -> Ns {
                Ns::ZERO
            }
            fn kernel_finished(&mut self, _now: Ns) {}
        }

        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = StuckBackend;
        let mut energy = EnergyMeter::new();
        let err = engine
            .execute(&kernel(&[(0, 4)], 1), &mut clock, &mut backend, &mut energy)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::NoProgress {
                block: BlockNum::new(0),
                missing: 4
            }
        );
        assert!(err.to_string().contains("no progress"));
    }

    #[test]
    fn backend_errors_abort_the_kernel() {
        /// Fails the very first drain with a capacity error.
        #[derive(Default)]
        struct FailingBackend;
        impl UmBackend for FailingBackend {
            fn resident_miss(&self, _block: BlockNum, pages: &PageMask) -> PageMask {
                *pages
            }
            fn handle_faults(
                &mut self,
                _now: Ns,
                _faults: &[FaultEntry],
            ) -> Result<Ns, BackendError> {
                Err(BackendError::CapacityExceeded {
                    needed_pages: 600,
                    capacity_pages: 512,
                })
            }
            fn touch(&mut self, _now: Ns, _block: BlockNum, _pages: &PageMask) {}
            fn overlap_compute(&mut self, _now: Ns, _dur: Ns) -> Ns {
                Ns::ZERO
            }
            fn kernel_finished(&mut self, _now: Ns) {}
        }

        let mut engine = GpuEngine::new();
        let mut clock = SimClock::new();
        let mut backend = FailingBackend;
        let mut energy = EnergyMeter::new();
        let err = engine
            .execute(&kernel(&[(0, 4)], 1), &mut clock, &mut backend, &mut energy)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Backend(BackendError::CapacityExceeded { .. })
        ));
        assert!(err.to_string().contains("capacity"));
    }
}
