//! Layer timing measured from outside the simulator.
//!
//! [`Timed`] wraps any `UmBackend + LaunchObserver` (naive UM or DeepUM)
//! and forwards every trait method, defaulted ones included, to the
//! wrapped backend unchanged. Around each hot boundary the UM executor
//! crosses into the backend it accumulates a call count and host time,
//! so a run's wall time can be split across the layers with no timer
//! inside `sim`, `core` or `um`. The cold methods (injector and tracer
//! installation, validation, checkpoint/restore, health, pressure and
//! wear queries) are forwarded untimed: they run a handful of times per
//! run and their cost stays in the executor's self time.

use std::cell::Cell;
use std::time::{Duration, Instant};

use deepum_gpu::engine::{BackendError, PressureStats, UmBackend, WearStats};
use deepum_gpu::fault::FaultEntry;
use deepum_gpu::kernel::KernelLaunch;
use deepum_mem::{BlockNum, ByteRange, PageMask};
use deepum_runtime::exec_table::ExecId;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sim::faultinject::{BackendHealth, SharedInjector};
use deepum_sim::time::Ns;
use deepum_trace::SharedTracer;
use deepum_um::hints::Advice;

/// A hot boundary between the UM executor (or the runtime it drives)
/// and the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// `handle_faults`: one drained fault batch.
    Fault,
    /// `overlap_compute`: the migration thread's slice of a kernel.
    Migrate,
    /// `on_kernel_launch`: the runtime's pre-launch callback.
    Launch,
    /// `kernel_finished`: kernel retirement.
    Retire,
    /// `resident_miss` and `touch`: per-block residency probes.
    Probe,
    /// `on_pt_block_state`, `on_um_range_released`, `on_mem_advise`:
    /// allocator and advice notifications routed by the runtime.
    Notify,
}

impl Boundary {
    /// Every boundary, in metric order.
    pub const ALL: [Boundary; 6] = [
        Boundary::Fault,
        Boundary::Migrate,
        Boundary::Launch,
        Boundary::Retire,
        Boundary::Probe,
        Boundary::Notify,
    ];
}

/// Calls made and host time spent across one boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Calls that crossed the boundary.
    pub calls: u64,
    /// Host time spent inside those calls.
    pub time: Duration,
}

/// Transparent timing wrapper around a UM backend.
#[derive(Debug)]
pub struct Timed<B> {
    inner: B,
    // `Cell` because `resident_miss` is a `&self` method.
    spans: [Cell<Span>; Boundary::ALL.len()],
}

impl<B> Timed<B> {
    /// Wraps `inner` with every span at zero.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            spans: Default::default(),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Accumulated span of one boundary.
    pub fn span(&self, boundary: Boundary) -> Span {
        self.spans[boundary as usize].get()
    }

    fn record(&self, boundary: Boundary, started: Instant) {
        let cell = &self.spans[boundary as usize];
        let mut span = cell.get();
        span.calls += 1;
        span.time += started.elapsed();
        cell.set(span);
    }
}

impl<B: UmBackend> UmBackend for Timed<B> {
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        let started = Instant::now();
        let miss = self.inner.resident_miss(block, pages);
        self.record(Boundary::Probe, started);
        miss
    }

    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        let started = Instant::now();
        let stall = self.inner.handle_faults(now, faults);
        self.record(Boundary::Fault, started);
        stall
    }

    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        let started = Instant::now();
        self.inner.touch(now, block, pages);
        self.record(Boundary::Probe, started);
    }

    fn overlap_compute(&mut self, now: Ns, dur: Ns) -> Ns {
        let started = Instant::now();
        let busy = self.inner.overlap_compute(now, dur);
        self.record(Boundary::Migrate, started);
        busy
    }

    fn kernel_finished(&mut self, now: Ns) {
        let started = Instant::now();
        self.inner.kernel_finished(now);
        self.record(Boundary::Retire, started);
    }

    fn install_injector(&mut self, injector: SharedInjector) {
        self.inner.install_injector(injector);
    }

    fn install_tracer(&mut self, tracer: SharedTracer) {
        self.inner.install_tracer(tracer);
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.inner.restore_state(bytes)
    }

    fn resident_pages(&self) -> u64 {
        self.inner.resident_pages()
    }

    fn pressure(&self) -> Option<PressureStats> {
        self.inner.pressure()
    }

    fn wear(&self) -> Option<WearStats> {
        self.inner.wear()
    }
}

impl<B: LaunchObserver> LaunchObserver for Timed<B> {
    fn on_kernel_launch(&mut self, now: Ns, exec: ExecId, kernel: &KernelLaunch) {
        let started = Instant::now();
        self.inner.on_kernel_launch(now, exec, kernel);
        self.record(Boundary::Launch, started);
    }

    fn on_pt_block_state(&mut self, now: Ns, range: ByteRange, inactive: bool) {
        let started = Instant::now();
        self.inner.on_pt_block_state(now, range, inactive);
        self.record(Boundary::Notify, started);
    }

    fn on_um_range_released(&mut self, now: Ns, range: ByteRange) {
        let started = Instant::now();
        self.inner.on_um_range_released(now, range);
        self.record(Boundary::Notify, started);
    }

    fn on_mem_advise(&mut self, now: Ns, range: ByteRange, advice: Advice) {
        let started = Instant::now();
        self.inner.on_mem_advise(now, range, advice);
        self.record(Boundary::Notify, started);
    }
}
