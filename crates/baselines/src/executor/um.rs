//! The UM execution path: naive UM and DeepUM.
//!
//! Replays a workload's step program against a UM backend:
//!
//! * allocations go through the PyTorch caching allocator whose segments
//!   come from UM space (host-memory bound — oversubscription);
//! * PT-block state changes and segment releases are forwarded to the
//!   driver through the runtime's interposition layer;
//! * every kernel is intercepted (execution-ID assignment + callback)
//!   and executed by the GPU engine, which raises page faults for
//!   non-resident pages and lets the backend overlap prefetch traffic
//!   with compute;
//! * DLRM-style gathers are sampled per iteration with a seeded RNG and
//!   cached per table so forward lookup and backward update touch the
//!   same rows.
//!
//! The loop is one resumable [`UmStepper`]: each [`UmStepper::step`]
//! performs one unit of work against a backend it borrows, never owns.
//! [`run_um`] steps it to completion over one backend; the multi-tenant
//! scheduler steps it a kernel slot at a time while the shared UM driver
//! is swapped into the tenant's DeepUM driver. Both callers run the same
//! code path and differ only in the counter view they pass to `step`.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use deepum_core::ckpt::{CheckpointRing, Generation, RecoveryError, DEFAULT_RING_DEPTH};
use deepum_core::recovery::RecoveryReport;
use deepum_gpu::engine::{BackendError, EngineError, GpuEngine, UmBackend};
use deepum_gpu::fault::AccessKind;
use deepum_gpu::kernel::{BlockAccess, KernelLaunch};
use deepum_mem::{u64_from_usize, ByteRange, PageMask, UmAddr, PAGE_BYTES, PAGE_SIZE};
use deepum_runtime::interpose::{CudaRuntime, LaunchObserver};
use deepum_sim::clock::SimClock;
use deepum_sim::costs::CostModel;
use deepum_sim::energy::EnergyMeter;
use deepum_sim::faultinject::{
    BackendHealth, InjectionPlan, SharedInjector, TransientInjectorState,
};
use deepum_sim::metrics::Counters;
use deepum_sim::rng::{DetRng, Zipf};
use deepum_sim::time::Ns;
use deepum_torch::alloc::{AllocError, CachingAllocator, PtBlockId, PtEvent};
use deepum_torch::perf::PerfModel;
use deepum_torch::step::{GatherAccess, KernelStep, Step, TensorId, Workload};
use deepum_trace::{emit, InjectKind, SharedTracer, TraceEvent};
use deepum_um::snapshot::{
    read_counters, write_counters, SnapshotError, SnapshotReader, SnapshotWriter,
};

use crate::report::{HealthReport, IterStats, PressureReport, RunError, RunReport, WearReport};

/// Kernel boundaries the journal holds before a checkpoint is forced.
const JOURNAL_CAPACITY: usize = 256;

/// Restores a run survives before it reports a typed recovery failure.
const MAX_RESTORES: u64 = 64;

/// Default checkpoint cadence (kernel launches) when the plan schedules
/// hard faults but the config does not pick one.
const DEFAULT_CHECKPOINT_EVERY: u64 = 8;

/// Configuration of a UM-path run.
#[derive(Debug, Clone)]
pub struct UmRunConfig {
    /// Training iterations to execute (the first is the cold warm-up).
    pub iterations: usize,
    /// Platform cost model (also defines device/host capacity).
    pub costs: CostModel,
    /// Kernel-time model.
    pub perf: PerfModel,
    /// Seed for the data-dependent gathers.
    pub seed: u64,
    /// Fault-injection plan; the default (empty) plan changes nothing.
    pub plan: InjectionPlan,
    /// Assert the backend's invariants after every fault drain (used by
    /// injection tests; walks the backend's block map, so off by
    /// default).
    pub validate_after_drain: bool,
    /// Checkpoint cadence in kernel launches. `None` enables
    /// checkpointing only when the plan schedules hard faults (at
    /// [`DEFAULT_CHECKPOINT_EVERY`]); `Some(n)` forces a checkpoint
    /// every `n` launches regardless of the plan.
    pub checkpoint_every: Option<u64>,
    /// Structured-event tracer. `None` (the default) leaves every layer
    /// untraced and the report without a trace section — byte-identical
    /// to a build that never heard of tracing.
    pub tracer: Option<SharedTracer>,
}

impl UmRunConfig {
    /// A config on the paper's primary platform.
    pub fn new(iterations: usize) -> Self {
        UmRunConfig {
            iterations,
            costs: CostModel::v100_32gb(),
            perf: PerfModel::v100(),
            seed: 0x5eed,
            plan: InjectionPlan::default(),
            validate_after_drain: false,
            checkpoint_every: None,
            tracer: None,
        }
    }

    /// The effective checkpoint cadence: the configured one, or the
    /// default when the plan makes hard faults possible.
    fn checkpoint_cadence(&self) -> Option<u64> {
        self.checkpoint_every
            .or_else(|| {
                self.plan
                    .has_hard_faults()
                    .then_some(DEFAULT_CHECKPOINT_EVERY)
            })
            .map(|n| n.max(1))
    }
}

/// What one [`UmStepper::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One unit of work ran; `kernel` is true when it completed a kernel
    /// launch — the unit a multi-tenant priority quota counts.
    Ran {
        /// Whether the unit consumed a kernel slot.
        kernel: bool,
    },
    /// The run already went to completion; nothing was done.
    Done,
    /// The run terminated with an error (see [`UmStepper::error`]).
    Failed,
}

type TensorMap = BTreeMap<TensorId, (PtBlockId, ByteRange)>;

/// Gather samples per embedding table, stable within an iteration
/// (forward lookup and backward update touch the same rows) and
/// resampled across iterations (fresh minibatch).
type GatherCache = BTreeMap<TensorId, Vec<BlockAccess>>;

/// Everything the run loop mutates that lives *outside* the backend,
/// runtime, and allocator: the loop half of a checkpoint image. The GPU
/// engine holds no state between kernels, so it has no part in it.
struct LoopState {
    clock: SimClock,
    energy: EnergyMeter,
    rng: DetRng,
    tensors: TensorMap,
    gather_cache: GatherCache,
    iters: Vec<IterStats>,
    /// Current iteration index.
    iter: usize,
    /// Next step to execute within the iteration.
    step: usize,
    /// Iteration start time.
    t0: Ns,
    /// Counter baseline at iteration start.
    c0: Counters,
    /// Compute time accumulated this iteration.
    compute: Ns,
    /// Stall time accumulated this iteration.
    stall: Ns,
    /// Global kernel-launch sequence number (the next launch's seq).
    kernel_seq: u64,
}

/// Serializes a full checkpoint — the component images plus the loop
/// state — into one self-validating snapshot envelope. This is the
/// durable image a [`CheckpointRing`] generation stores; everything the
/// run needs to resume round-trips through these bytes, so a corruption
/// of the stored image is always caught by the envelope checksum at
/// restore time. On a shared driver the backend image is tenant-scoped:
/// restoring it touches only the tenant's own blocks.
fn encode_checkpoint(st: &LoopState, backend: &[u8], runtime: &[u8], allocator: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.blob(backend);
    w.blob(runtime);
    w.blob(allocator);
    encode_loop_state(st, &mut w);
    w.finish()
}

/// Appends the loop state — clock, energy accumulators, RNG, tensor
/// map, gather cache, finished iterations, and the run position — to a
/// checkpoint image. The maps iterate in key order, so the image is
/// byte-stable across runs.
fn encode_loop_state(st: &LoopState, w: &mut SnapshotWriter) {
    w.ns(st.clock.now());
    let (joules_bits, times) = st.energy.accum_state();
    w.u64(joules_bits);
    for t in times {
        w.u64(t);
    }
    for word in st.rng.state() {
        w.u64(word);
    }

    w.u64(u64_from_usize(st.tensors.len()));
    for (id, (block, range)) in &st.tensors {
        w.u32(id.0);
        w.u64(block.raw());
        w.u64(range.start().raw());
        w.u64(range.len());
    }

    w.u64(u64_from_usize(st.gather_cache.len()));
    for (id, accesses) in &st.gather_cache {
        w.u32(id.0);
        w.u64(u64_from_usize(accesses.len()));
        for a in accesses {
            w.block(a.block);
            w.mask(&a.pages);
            w.bool(a.kind == AccessKind::Write);
        }
    }

    w.u64(u64_from_usize(st.iters.len()));
    for i in &st.iters {
        w.ns(i.elapsed);
        w.ns(i.compute);
        w.ns(i.stall);
        write_counters(&i.counters, w);
    }

    w.u64(u64_from_usize(st.iter));
    w.u64(u64_from_usize(st.step));
    w.ns(st.t0);
    write_counters(&st.c0, w);
    w.ns(st.compute);
    w.ns(st.stall);
    w.u64(st.kernel_seq);
}

/// Decodes the loop state written by [`encode_loop_state`].
fn decode_loop_state(r: &mut SnapshotReader<'_>) -> Result<LoopState, SnapshotError> {
    let mut clock = SimClock::new();
    clock.advance_to(r.ns()?);
    let mut energy = EnergyMeter::new();
    let joules_bits = r.u64()?;
    let mut times = [0u64; 4];
    for t in &mut times {
        *t = r.u64()?;
    }
    energy.restore_accum(joules_bits, times);
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64()?;
    }
    let rng = DetRng::from_state(rng_state);

    let num_tensors = r.len_prefix(4 + 8 + 8 + 8)?;
    let mut tensors = TensorMap::new();
    for _ in 0..num_tensors {
        let id = TensorId(r.u32()?);
        let block = PtBlockId::from_raw(r.u64()?);
        let start = UmAddr::new(r.u64()?);
        let len = r.u64()?;
        tensors.insert(id, (block, ByteRange::new(start, len)));
    }

    let num_gathers = r.len_prefix(4 + 8)?;
    let mut gather_cache = GatherCache::new();
    for _ in 0..num_gathers {
        let id = TensorId(r.u32()?);
        let num_accesses = r.len_prefix(8 + 64 + 1)?;
        let mut accesses = Vec::with_capacity(num_accesses);
        for _ in 0..num_accesses {
            let block = r.block()?;
            let pages = r.mask()?;
            let kind = if r.bool()? {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            accesses.push(BlockAccess::new(block, pages, kind));
        }
        gather_cache.insert(id, accesses);
    }

    let num_iters = r.len_prefix(8 * 3)?;
    let mut iters = Vec::with_capacity(num_iters);
    for _ in 0..num_iters {
        let elapsed = r.ns()?;
        let compute = r.ns()?;
        let stall = r.ns()?;
        let counters = read_counters(r)?;
        iters.push(IterStats {
            elapsed,
            compute,
            stall,
            counters,
        });
    }

    let iter = r.u64()? as usize;
    let step = r.u64()? as usize;
    let t0 = r.ns()?;
    let c0 = read_counters(r)?;
    let compute = r.ns()?;
    let stall = r.ns()?;
    let kernel_seq = r.u64()?;
    Ok(LoopState {
        clock,
        energy,
        rng,
        tensors,
        gather_cache,
        iters,
        iter,
        step,
        t0,
        c0,
        compute,
        stall,
        kernel_seq,
    })
}

/// Restores every run component from one stored checkpoint image. The
/// envelope checksum is verified before anything is mutated, so a
/// corrupt generation fails cleanly and the caller can fall back to an
/// older one.
fn try_restore_image<B: UmBackend>(
    image: &[u8],
    backend: &mut B,
    runtime: &mut CudaRuntime,
    allocator: &mut CachingAllocator,
) -> Result<LoopState, String> {
    let mut r = SnapshotReader::new(image).map_err(|e| e.to_string())?;
    let backend_image = r.blob().map_err(|e| e.to_string())?;
    let runtime_image = r.blob().map_err(|e| e.to_string())?;
    let allocator_image = r.blob().map_err(|e| e.to_string())?;
    backend
        .restore_state(backend_image)
        .map_err(|e| format!("backend restore failed: {e}"))?;
    runtime
        .restore(runtime_image)
        .map_err(|e| format!("runtime restore failed: {e}"))?;
    allocator
        .restore(allocator_image)
        .map_err(|e| format!("allocator restore failed: {e}"))?;
    let state = decode_loop_state(&mut r).map_err(|e| e.to_string())?;
    r.finish().map_err(|e| e.to_string())?;
    backend
        .validate()
        .map_err(|e| format!("restored backend failed validation: {e}"))?;
    Ok(state)
}

/// One UM-path run, executed one unit of work at a time.
///
/// The stepper owns everything a run owns except the backend: the
/// interposed CUDA runtime, the caching allocator, the GPU engine, the
/// loop state (clock, energy, RNG, tensor map, gather cache, position),
/// the injector and tracer, and the checkpoint ring plus launch journal
/// that hard-fault recovery replays from. The backend is passed into
/// every [`UmStepper::step`], so a scheduler can swap a shared driver in
/// and out between calls.
pub struct UmStepper {
    cfg: UmRunConfig,
    runtime: CudaRuntime,
    allocator: CachingAllocator,
    engine: GpuEngine,
    injector: Option<SharedInjector>,
    st: LoopState,
    /// Scratch buffer for allocator events awaiting forwarding.
    events: Vec<PtEvent>,
    /// Scratch page masks for gather sampling; never checkpointed.
    gather_scratch: Vec<PageMask>,
    /// The launch access buffer [`build_launch`] fills and takes back
    /// after each kernel; never checkpointed.
    accesses: Vec<BlockAccess>,
    cadence: Option<u64>,
    recovery: Option<RecoveryReport>,
    ring: CheckpointRing<Option<TransientInjectorState>>,
    checkpoint_due: bool,
    /// Launch sequence numbers since the oldest retained checkpoint,
    /// ascending and at most [`JOURNAL_CAPACITY`] of them: a restore
    /// replays the entries at or after its generation's mark.
    journal: VecDeque<u64>,
    /// Extra generations consumed by restores skipping corrupt images.
    fallback_generations: u64,
    /// Whether the persistent tensors are allocated.
    started: bool,
    done: bool,
    error: Option<RunError>,
}

impl UmStepper {
    /// Builds the run's private stack over `backend` with [`wire_stack`].
    /// No other backend work happens here: the first
    /// [`UmStepper::step`] allocates the persistent tensors.
    pub fn new<B: UmBackend>(backend: &mut B, cfg: UmRunConfig, va_base: u64) -> Self {
        let (runtime, mut engine, injector) =
            wire_stack(backend, &cfg.costs, va_base, &cfg.plan, cfg.tracer.as_ref());
        engine.set_validate_after_drain(cfg.validate_after_drain);
        // Checkpointing is active when hard faults can happen or the
        // config asked for it; otherwise the stepper is behaviorally
        // identical to a plain nested iteration/step walk.
        let cadence = cfg.checkpoint_cadence();
        let st = LoopState {
            clock: SimClock::new(),
            energy: EnergyMeter::new(),
            rng: DetRng::seed(cfg.seed),
            tensors: TensorMap::new(),
            gather_cache: GatherCache::new(),
            iters: Vec::with_capacity(cfg.iterations),
            iter: 0,
            step: 0,
            t0: Ns::ZERO,
            c0: Counters::new(),
            compute: Ns::ZERO,
            stall: Ns::ZERO,
            kernel_seq: 0,
        };
        UmStepper {
            cfg,
            runtime,
            allocator: CachingAllocator::new(),
            engine,
            injector,
            st,
            events: Vec::new(),
            gather_scratch: Vec::new(),
            accesses: Vec::new(),
            cadence,
            recovery: cadence.map(|_| RecoveryReport::default()),
            ring: CheckpointRing::new(DEFAULT_RING_DEPTH),
            checkpoint_due: cadence.is_some(),
            journal: VecDeque::new(),
            fallback_generations: 0,
            started: false,
            done: false,
            error: None,
        }
    }

    /// The run's virtual time.
    pub fn now(&self) -> Ns {
        self.st.clock.now()
    }

    /// Advances the run's clock by time spent outside it (a tenant's
    /// reclaim-debt payment at slot start).
    pub fn advance_clock(&mut self, delta: Ns) {
        self.st.clock.advance(delta);
    }

    /// Whole-stack energy consumed so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.st.energy.joules()
    }

    /// True once every iteration ran to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Terminal error, if the run failed.
    pub fn error(&self) -> Option<&RunError> {
        self.error.as_ref()
    }

    /// Terminates the run with a typed error observed outside it (a
    /// tenant's floor revocation after ECC retirement). The first error
    /// wins; a finished run is left alone.
    pub fn fail(&mut self, e: RunError) {
        if self.error.is_none() && !self.done {
            self.error = Some(e);
        }
    }

    /// Extra checkpoint generations the run's restores consumed skipping
    /// corrupt images.
    pub fn recovery_generations(&self) -> u64 {
        self.fallback_generations
    }

    /// Performs one unit of work against `backend`: the persistent
    /// allocations on the first call, then one step of the program — an
    /// allocation, a free, or a kernel launch (or, after a hard fault,
    /// a restore in its place).
    ///
    /// `counters` is the counter view iteration statistics are measured
    /// in. A step error terminates the run: it is kept (see
    /// [`UmStepper::error`]) and every later call returns
    /// [`StepOutcome::Failed`].
    pub fn step<B, C>(&mut self, workload: &Workload, backend: &mut B, counters: C) -> StepOutcome
    where
        B: UmBackend + LaunchObserver,
        C: Fn(&B) -> Counters,
    {
        if self.error.is_some() {
            return StepOutcome::Failed;
        }
        if self.done {
            return StepOutcome::Done;
        }
        match self.try_step(workload, backend, &counters) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.error = Some(e);
                StepOutcome::Failed
            }
        }
    }

    fn try_step<B, C>(
        &mut self,
        workload: &Workload,
        backend: &mut B,
        counters: &C,
    ) -> Result<StepOutcome, RunError>
    where
        B: UmBackend + LaunchObserver,
        C: Fn(&B) -> Counters,
    {
        // Persistent tensors are allocated once, before the first
        // iteration; the first iteration's counter baseline follows them.
        if !self.started {
            self.started = true;
            for spec in &workload.persistent {
                self.alloc_tensor(spec.id, spec.bytes, backend)?;
            }
            self.st.c0 = counters(backend);
            return Ok(StepOutcome::Ran { kernel: false });
        }
        if self.st.iter >= self.cfg.iterations {
            self.finish();
            return Ok(StepOutcome::Done);
        }
        // Checkpoints land on kernel boundaries: the position (iter,
        // step) plus the component images fully determine the rest of
        // the run.
        if self.checkpoint_due {
            self.take_checkpoint(backend)?;
        }

        let kernel = match workload.steps.get(self.st.step) {
            Some(Step::Alloc(spec)) => {
                self.alloc_tensor(spec.id, spec.bytes, backend)?;
                false
            }
            Some(Step::Free(id)) => {
                let (block, _) = self
                    .st
                    .tensors
                    .remove(id)
                    .ok_or_else(|| RunError::Driver(format!("free of unmapped tensor {id}")))?;
                self.allocator.free(block, &mut self.events);
                let now = self.st.clock.now();
                forward_events(&mut self.events, &mut self.runtime, now, backend);
                false
            }
            Some(Step::Kernel(k)) => {
                if !self.launch(k, backend)? {
                    // Rewound to a checkpoint, or a full journal forced
                    // one: the position did not advance.
                    return Ok(StepOutcome::Ran { kernel: false });
                }
                true
            }
            None => {
                return Err(RunError::Driver(format!(
                    "step index {} out of bounds",
                    self.st.step
                )))
            }
        };

        self.st.step += 1;
        if self.st.step == workload.steps.len() {
            self.end_iteration(counters(backend));
        }
        Ok(StepOutcome::Ran { kernel })
    }

    /// Launches one kernel step. Returns `Ok(false)` when the same step
    /// must run again: a hard fault rewound the run to a checkpoint, or a
    /// full journal marked a checkpoint due first.
    fn launch<B>(&mut self, k: &KernelStep, backend: &mut B) -> Result<bool, RunError>
    where
        B: UmBackend + LaunchObserver,
    {
        // A scheduled device reset fires at this launch's sequence
        // number, before the kernel runs.
        let reset = self
            .injector
            .as_ref()
            .is_some_and(|inj| inj.borrow_mut().take_scheduled_reset(self.st.kernel_seq));
        if reset {
            self.hard_fault(backend, InjectKind::DeviceReset, "scheduled device reset")?;
            return Ok(false);
        }
        // A full journal means too much un-checkpointed work: force a
        // checkpoint, then retry this step.
        if self.cadence.is_some() {
            if self.journal.len() == JOURNAL_CAPACITY {
                self.checkpoint_due = true;
                return Ok(false);
            }
            self.journal.push_back(self.st.kernel_seq);
        }

        let mut launch = build_launch(
            k,
            &self.st.tensors,
            &mut self.st.gather_cache,
            core::mem::take(&mut self.accesses),
            &mut self.gather_scratch,
            &mut self.st.rng,
            &self.cfg.perf,
        )?;
        let (_exec, intercept) = self.runtime.launch(self.st.clock.now(), &launch, backend);
        self.st.clock.advance(intercept);
        let delay = self
            .injector
            .as_ref()
            .and_then(|inj| inj.borrow_mut().roll_launch_delay());
        if let Some(delay) = delay {
            self.emit(TraceEvent::InjectedFault {
                kind: InjectKind::LaunchDelay,
            });
            self.st.clock.advance(delay);
        }
        // The event owns a copy of the name: build it only when traced.
        if self.cfg.tracer.is_some() {
            self.emit(TraceEvent::KernelBegin {
                seq: self.st.kernel_seq,
                name: launch.name.to_string(),
            });
        }
        let ran = self
            .engine
            .execute(&launch, &mut self.st.clock, backend, &mut self.st.energy);
        self.accesses = core::mem::take(&mut launch.accesses);
        match ran {
            Ok(stats) => {
                self.st.compute += stats.compute;
                self.st.stall += stats.stall;
                self.emit(TraceEvent::KernelEnd {
                    seq: self.st.kernel_seq,
                    faults: stats.faults,
                    stall_ns: stats.stall.as_nanos(),
                });
            }
            Err(EngineError::Backend(BackendError::DriverCrash)) => {
                self.hard_fault(
                    backend,
                    InjectKind::DriverCrash,
                    "driver crash during fault drain",
                )?;
                return Ok(false);
            }
            Err(e) => return Err(engine_error(e)),
        }
        self.st.kernel_seq += 1;
        if let Some(every) = self.cadence {
            if self.st.kernel_seq.is_multiple_of(every) {
                self.checkpoint_due = true;
            }
        }
        Ok(true)
    }

    /// Closes the current iteration: records its statistics against the
    /// counter view `now`, then resets the per-iteration accumulators and
    /// the gather samples. Closing the last iteration finishes the run.
    fn end_iteration(&mut self, now: Counters) {
        let st = &mut self.st;
        st.iters.push(IterStats {
            elapsed: st.clock.now() - st.t0,
            compute: st.compute,
            stall: st.stall,
            counters: now.delta_since(&st.c0),
        });
        st.iter += 1;
        st.step = 0;
        st.t0 = st.clock.now();
        st.c0 = now;
        st.compute = Ns::ZERO;
        st.stall = Ns::ZERO;
        st.gather_cache.clear();
        if st.iter >= self.cfg.iterations {
            self.finish();
        }
    }

    /// Marks the run complete and folds the injector's ECC tally into
    /// the recovery report.
    fn finish(&mut self) {
        if let (Some(rec), Some(inj)) = (self.recovery.as_mut(), self.injector.as_ref()) {
            rec.ecc_poisonings = inj.borrow().ecc_hits();
        }
        self.done = true;
    }

    /// Emits one trace event stamped with the run's clock.
    fn emit(&self, event: TraceEvent) {
        emit(&self.cfg.tracer, self.st.clock.now().as_nanos(), event);
    }

    fn take_checkpoint<B: UmBackend>(&mut self, backend: &B) -> Result<(), RunError> {
        self.checkpoint_due = false;
        let backend_image = backend.snapshot_state().ok_or_else(|| {
            RunError::Unsupported(
                "backend does not support checkpointing, required by the hard-fault plan".into(),
            )
        })?;
        let runtime_image = self.runtime.snapshot();
        let allocator_image = self.allocator.snapshot();
        // The reported checkpoint size keeps its pre-ring lens — the
        // component images — so crash-free traces stay byte-stable.
        let section_bytes =
            u64_from_usize(backend_image.len() + runtime_image.len() + allocator_image.len());
        let mut image =
            encode_checkpoint(&self.st, &backend_image, &runtime_image, &allocator_image);
        // A scheduled or sampled storage fault damages the image
        // *silently*, like a real torn write; nothing notices until a
        // restore validates the envelope.
        if let Some(inj) = &self.injector {
            if let Some(c) = inj
                .borrow_mut()
                .take_ckpt_corruption(u64_from_usize(image.len()))
            {
                c.apply(&mut image);
            }
        }
        self.ring.store(Generation {
            image,
            journal_mark: self.st.kernel_seq,
            extra: self
                .injector
                .as_ref()
                .map(|i| i.borrow().transient_snapshot()),
        });
        if let Some(rec) = self.recovery.as_mut() {
            rec.checkpoints += 1;
            rec.snapshot_bytes = section_bytes;
        }
        self.emit(TraceEvent::Checkpoint {
            bytes: section_bytes,
        });
        // Journal entries older than the oldest retained generation can
        // never be replayed again.
        if let Some(mark) = self.ring.oldest_mark() {
            while self.journal.front().is_some_and(|&seq| seq < mark) {
                self.journal.pop_front();
            }
        }
        Ok(())
    }

    /// Handles a hard fault of `kind`: traces it, rewinds the run to the
    /// newest restorable checkpoint, and traces the restore.
    fn hard_fault<B: UmBackend>(
        &mut self,
        backend: &mut B,
        kind: InjectKind,
        reason: &str,
    ) -> Result<(), RunError> {
        self.emit(TraceEvent::InjectedFault { kind });
        let replayed = self.recover(backend, reason)?;
        self.emit(TraceEvent::Restored { replayed });
        Ok(())
    }

    /// Rewinds the whole run to the newest restorable checkpoint
    /// generation after a hard fault and charges the downtime (reset
    /// penalty + demand-only refill of the restored resident set) to the
    /// recovery report, out of band of the simulation clock so recovered
    /// runs stay byte-comparable to uninterrupted ones.
    ///
    /// The ring is walked newest-first: a generation whose stored image
    /// fails its envelope checksum (torn write, truncation, bit flip) is
    /// traced as [`TraceEvent::CheckpointCorrupt`] and the next-older one
    /// is tried, replaying a correspondingly longer journal segment.
    /// Every generation failing surfaces the typed
    /// [`RunError::AllCheckpointsCorrupt`].
    ///
    /// Returns the journaled launches the chosen generation replays.
    fn recover<B: UmBackend>(&mut self, backend: &mut B, reason: &str) -> Result<u64, RunError> {
        let rec = self
            .recovery
            .as_mut()
            .ok_or_else(|| RunError::Recovery(format!("{reason} without recovery machinery")))?;
        rec.restores += 1;
        if rec.restores > MAX_RESTORES {
            return Err(RunError::Recovery(format!(
                "gave up after {MAX_RESTORES} restores (last hard fault: {reason})"
            )));
        }
        // Corrupt-generation events are stamped at crash time; the clock
        // has not been rewound yet.
        let crash_now = self.st.clock.now();
        let UmStepper {
            cfg,
            ring,
            runtime,
            allocator,
            ..
        } = self;
        let restored = ring.restore_with(
            |generation| {
                try_restore_image(&generation.image, backend, runtime, allocator)
                    .map(|state| (state, generation.journal_mark, generation.extra.clone()))
            },
            |index, _err| {
                emit(
                    &cfg.tracer,
                    crash_now.as_nanos(),
                    TraceEvent::CheckpointCorrupt { generation: index },
                );
            },
        );
        let (generation, (state, mark, transient)) = match restored {
            Ok(ok) => ok,
            Err(RecoveryError::NoCheckpoint) => {
                return Err(RunError::Recovery(format!(
                    "{reason} before the first checkpoint"
                )))
            }
            Err(RecoveryError::AllCheckpointsCorrupt { generations }) => {
                return Err(RunError::AllCheckpointsCorrupt { generations })
            }
        };

        // The run was rewound to `mark` and re-journals those launches
        // as it replays them.
        let mut replayed = 0;
        while self.journal.back().is_some_and(|&seq| seq >= mark) {
            self.journal.pop_back();
            replayed += 1;
        }
        self.st = state;
        if let (Some(inj), Some(tr)) = (&self.injector, &transient) {
            inj.borrow_mut().restore_transient(tr);
        }
        if generation > 0 {
            self.fallback_generations += generation;
            self.emit(TraceEvent::RecoveryFellBack {
                generations: generation,
                replayed,
            });
        }

        // The reset wiped the run's device residency: every page the
        // checkpoint had resident comes back over PCIe at demand-paging
        // granularity before the replay reaches steady state.
        let refill = self
            .cfg
            .costs
            .transfer_time(backend.resident_pages() * PAGE_SIZE as u64);
        if let Some(rec) = self.recovery.as_mut() {
            rec.replay_kernels += replayed;
            rec.downtime_ns = rec
                .downtime_ns
                .saturating_add(self.cfg.plan.reset_penalty.as_nanos())
                .saturating_add(refill.as_nanos());
        }
        Ok(replayed)
    }

    fn alloc_tensor<B: LaunchObserver>(
        &mut self,
        id: TensorId,
        bytes: u64,
        backend: &mut B,
    ) -> Result<(), RunError> {
        let (block, range) = self
            .allocator
            .alloc(bytes, &mut self.runtime, &mut self.events)
            .map_err(|e| match e {
                AllocError::OutOfMemory { requested } => RunError::OutOfMemory(format!(
                    "tensor {id} of {requested} bytes exceeds the UM backing store"
                )),
                AllocError::ZeroSize => RunError::Unsupported("zero-size tensor".into()),
            })?;
        self.st.tensors.insert(id, (block, range));
        let now = self.st.clock.now();
        forward_events(&mut self.events, &mut self.runtime, now, backend);
        Ok(())
    }
}

/// Builds a UM-path run's CUDA runtime at `va_base` and its GPU engine,
/// installing `tracer` and the `plan`'s injector on both the engine and
/// `backend`. An empty plan installs no injector at all.
pub fn wire_stack<B: UmBackend>(
    backend: &mut B,
    costs: &CostModel,
    va_base: u64,
    plan: &InjectionPlan,
    tracer: Option<&SharedTracer>,
) -> (CudaRuntime, GpuEngine, Option<SharedInjector>) {
    let runtime = CudaRuntime::with_va_base(
        costs.host_memory_bytes,
        va_base,
        costs.launch_intercept_cost,
    );
    let mut engine = GpuEngine::new();
    let injector = (!plan.is_empty()).then(|| plan.build_shared());
    if let Some(inj) = &injector {
        backend.install_injector(inj.clone());
        engine.set_injector(inj.clone());
    }
    if let Some(tr) = tracer {
        backend.install_tracer(tr.clone());
        engine.set_tracer(tr.clone());
    }
    (runtime, engine, injector)
}

/// Drains allocator events into driver notifications at `now`.
pub fn forward_events<B: LaunchObserver>(
    events: &mut Vec<PtEvent>,
    runtime: &mut CudaRuntime,
    now: Ns,
    backend: &mut B,
) {
    for event in events.drain(..) {
        match event {
            PtEvent::Active(range) => runtime.notify_pt_block(now, range, false, backend),
            PtEvent::Inactive(range) => runtime.notify_pt_block(now, range, true, backend),
            PtEvent::Released(range) => backend.on_um_range_released(now, range),
        }
    }
}

/// The typed terminal error of a failed kernel: one kernel pinning more
/// pages than the device holds (no eviction order fixes that) or else a
/// driver error.
pub fn engine_error(e: EngineError) -> RunError {
    match e {
        EngineError::Backend(BackendError::CapacityExceeded {
            needed_pages,
            capacity_pages,
        }) => RunError::WorkingSetExceedsDevice {
            needed_pages,
            capacity_pages,
        },
        e => RunError::Driver(e.to_string()),
    }
}

/// Runs `workload` against `backend` (naive UM, DeepUM, or an ablation).
///
/// `system` labels the report. The backend's counters are sampled through
/// the `counters` closure because the trait surface does not expose them.
///
/// # Errors
///
/// [`RunError::OutOfMemory`] when the UM backing store (host memory)
/// cannot hold the workload — the bound probed by Table 3.
pub fn run_um<B, F>(
    workload: &Workload,
    backend: &mut B,
    system: &str,
    cfg: &UmRunConfig,
    counters: F,
) -> Result<RunReport, RunError>
where
    B: UmBackend + LaunchObserver,
    F: Fn(&B) -> Counters,
{
    let mut run = UmStepper::new(backend, cfg.clone(), 0);
    while !run.is_done() {
        run.try_step(workload, backend, &counters)?;
    }

    let UmStepper {
        cfg,
        injector,
        st,
        recovery,
        fallback_generations,
        ..
    } = run;

    // The health section appears when anything robustness-related
    // happened: transient faults were injectable, or the backend
    // degraded. A purely hard-fault plan leaves it out so such runs stay
    // byte-identical to plan-free ones (modulo the recovery section).
    let backend_health = backend.health();
    let health = if cfg.plan.has_transients() || backend_health != BackendHealth::default() {
        Some(HealthReport {
            injected: injector
                .as_ref()
                .map(|i| *i.borrow().stats())
                .unwrap_or_default(),
            backend: backend_health,
        })
    } else {
        None
    };

    // The wear section appears when the device actually wore (a page
    // was retired) or a restore fell back past a corrupt generation;
    // otherwise it is omitted and the report stays byte-identical to
    // pre-wear builds.
    let wear_stats = backend.wear();
    let wear = if wear_stats.is_some() || fallback_generations > 0 {
        Some(WearReport {
            retired_pages: wear_stats.map_or(0, |w| w.retired_pages),
            remigrations: wear_stats.map_or(0, |w| w.remigrated_pages),
            recovery_generations: fallback_generations,
        })
    } else {
        None
    };

    Ok(RunReport {
        workload: workload.name.clone(),
        system: system.into(),
        total: st.clock.now(),
        energy_joules: st.energy.joules(),
        iters: st.iters,
        counters: counters(backend),
        table_bytes: None,
        health,
        recovery,
        trace: cfg.tracer.as_ref().map(|t| t.borrow_mut().report()),
        pressure: backend.pressure().map(|s| PressureReport {
            final_level: s.level,
            peak_score_pct: s.peak_score_pct,
            refaults: s.refaults,
            cooldown_skips: s.cooldown_skips,
            level_changes: s.level_changes,
            window_resizes: s.window_resizes,
        }),
        tenants: None,
        serving: None,
        wear,
    })
}

/// Converts a kernel step into a concrete launch with block accesses.
/// `accesses` is the executor's reusable access buffer: it is cleared,
/// filled and moved into the launch, and the caller takes it back from
/// `launch.accesses` once the kernel has run. `gather_scratch` is
/// [`sample_gather`]'s reusable page-mask buffer.
fn build_launch(
    k: &KernelStep,
    tensors: &TensorMap,
    gather_cache: &mut GatherCache,
    mut accesses: Vec<BlockAccess>,
    gather_scratch: &mut Vec<PageMask>,
    rng: &mut DetRng,
    perf: &PerfModel,
) -> Result<KernelLaunch, RunError> {
    accesses.clear();
    let mut bytes = 0u64;
    for (ids, kind) in [(&k.reads, AccessKind::Read), (&k.writes, AccessKind::Write)] {
        for id in ids {
            let (_, range) = tensors
                .get(id)
                .ok_or_else(|| RunError::Driver(format!("kernel touches unmapped tensor {id}")))?;
            bytes += range.len();
            accesses.extend(
                range
                    .block_footprints()
                    .map(|(block, mask)| BlockAccess::new(block, mask, kind)),
            );
        }
    }
    for g in &k.gathers {
        let sample = match gather_cache.entry(g.table) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(sample_gather(g, tensors, gather_scratch, rng)?),
        };
        bytes += sample
            .iter()
            .map(|a| a.pages.count() as u64 * PAGE_SIZE as u64)
            .sum::<u64>();
        accesses.extend(sample.iter().cloned());
    }
    Ok(KernelLaunch::new(
        k.name.clone(),
        &k.args,
        accesses,
        perf.kernel_time(k.flops, bytes),
    ))
}

/// Samples the pages touched by a gather: `lookups` skewed random rows of
/// the table, merged into per-block page masks in ascending block order.
/// `masks` is scratch, one mask per block of the table from its first
/// block on; it carries nothing from one call to the next.
fn sample_gather(
    g: &GatherAccess,
    tensors: &TensorMap,
    masks: &mut Vec<PageMask>,
    rng: &mut DetRng,
) -> Result<Vec<BlockAccess>, RunError> {
    let (_, range) = tensors
        .get(&g.table)
        .ok_or_else(|| RunError::Driver(format!("gather of unmapped table {}", g.table)))?;
    if range.len() < u64::from(g.row_bytes) {
        return Ok(Vec::new());
    }
    let first = range.start().block();
    masks.clear();
    masks.resize(range.blocks().len(), PageMask::empty());
    mark_rows(g, *range, masks, rng);
    Ok(masks
        .iter()
        .enumerate()
        .filter(|(_, m)| !m.is_empty())
        .map(|(i, m)| BlockAccess::new(first.offset(u64_from_usize(i)), *m, AccessKind::Read))
        .collect())
}

/// Draws `g.lookups` rows of the table at `range` (at least one row
/// long) and marks each row's first page in `masks`, indexed from the
/// table's first block. Returns how many lookups only advanced `rng`.
///
/// When rows are no longer than a page, consecutive rows' first pages
/// are equal or adjacent, so every page from row 0's to the last row's
/// is reachable. Once all of them are marked no draw can change a mask,
/// and each remaining lookup advances `rng` as its draw would have: one
/// `unit_f64` per Zipf draw (see [`Zipf::sample`]), one `below` per
/// uniform draw. The masks and the stream afterwards are those of
/// drawing every row.
fn mark_rows(g: &GatherAccess, range: ByteRange, masks: &mut [PageMask], rng: &mut DetRng) -> u32 {
    let row_bytes = u64::from(g.row_bytes);
    let rows = range.len() / row_bytes;
    let first = range.start().block();
    let zipf = (g.skew > 0.0).then(|| Zipf::new(rows, g.skew));
    // A row may span two pages; touching its first page captures the
    // access pattern at fault granularity.
    let page_of = |row: u64| UmAddr::new(range.start().raw() + row * row_bytes).page();
    // Reachable pages not yet marked; `u64::MAX` (never reached by
    // `u32` lookups) when rows span pages and some may be unreachable.
    let mut unmarked = if row_bytes <= PAGE_BYTES {
        page_of(rows - 1).index() - page_of(0).index() + 1
    } else {
        u64::MAX
    };
    let mut lookups = g.lookups;
    while lookups > 0 && unmarked > 0 {
        lookups -= 1;
        let row = match &zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.below(rows),
        };
        let page = page_of(row);
        let mask = &mut masks[(page.block().index() - first.index()) as usize];
        let bit = page.index_in_block();
        if !mask.get(bit) {
            mask.set(bit);
            unmarked -= 1;
        }
    }
    for _ in 0..lookups {
        if zipf.is_some() {
            rng.unit_f64();
        } else {
            rng.below(rows);
        }
    }
    lookups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveUm;
    use deepum_core::config::DeepumConfig;
    use deepum_core::driver::DeepumDriver;
    use deepum_mem::{BlockNum, BLOCK_SIZE};
    use deepum_torch::models::ModelKind;
    use std::collections::BTreeSet;

    fn tiny_costs(device_mb: u64, host_mb: u64) -> CostModel {
        CostModel::v100_32gb()
            .with_device_memory(device_mb << 20)
            .with_host_memory(host_mb << 20)
    }

    #[test]
    fn mobilenet_runs_under_naive_um() {
        let w = ModelKind::MobileNet.build(8);
        let cfg = UmRunConfig {
            costs: tiny_costs(2048, 16384),
            seed: 1,
            ..UmRunConfig::new(2)
        };
        let mut backend = NaiveUm::new(cfg.costs.clone());
        let r = run_um(&w, &mut backend, "um", &cfg, |b| b.counters()).unwrap();
        assert_eq!(r.iters.len(), 2);
        assert!(r.counters.gpu_page_faults > 0);
        // Ample device memory: warm iteration has ~no faults.
        assert!(r.iters[1].counters.gpu_page_faults < r.iters[0].counters.gpu_page_faults / 10);
    }

    #[test]
    fn deepum_beats_naive_um_when_oversubscribed() {
        let w = ModelKind::MobileNet.build(48);
        // ~1.4x oversubscription (the paper's typical regime): the
        // MobileNet/b48 working set peaks around 115 MiB.
        let costs = tiny_costs(80, 32768);
        let cfg = UmRunConfig {
            costs: costs.clone(),
            seed: 1,
            ..UmRunConfig::new(3)
        };
        let mut um = NaiveUm::new(costs.clone());
        let um_report = run_um(&w, &mut um, "um", &cfg, |b| b.counters()).unwrap();

        // A modest look-ahead suits this tiny 87-kernel workload; the
        // bandwidth-bound regime punishes over-aggressive prefetching
        // (the paper's Fig. 11 effect).
        let dm_cfg = DeepumConfig::default().with_prefetch_degree(16);
        let mut dm = DeepumDriver::new(costs, dm_cfg);
        let dm_report = run_um(&w, &mut dm, "deepum", &cfg, |b| b.counters()).unwrap();

        assert!(
            dm_report.counters.pages_prefetched > 0,
            "DeepUM should prefetch"
        );
        assert!(
            dm_report.steady_faults_per_iter() < um_report.steady_faults_per_iter(),
            "deepum faults {} vs um faults {}",
            dm_report.steady_faults_per_iter(),
            um_report.steady_faults_per_iter()
        );
        assert!(
            dm_report.steady_iter_time() < um_report.steady_iter_time(),
            "deepum {} vs um {}",
            dm_report.steady_iter_time(),
            um_report.steady_iter_time()
        );
    }

    #[test]
    fn host_capacity_bounds_the_run() {
        let w = ModelKind::MobileNet.build(64);
        let need = w.peak_bytes();
        let cfg = UmRunConfig {
            costs: tiny_costs(64, (need / 4) >> 20),
            seed: 1,
            ..UmRunConfig::new(1)
        };
        let mut backend = NaiveUm::new(cfg.costs.clone());
        let err = run_um(&w, &mut backend, "um", &cfg, |b| b.counters()).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory(_)));
    }

    #[test]
    fn gather_sampling_is_deterministic() {
        let mut tensors = TensorMap::new();
        let range = ByteRange::new(UmAddr::new(0), 64 * BLOCK_SIZE as u64);
        tensors.insert(TensorId(0), (Default::default(), range));
        let g = GatherAccess {
            table: TensorId(0),
            lookups: 1000,
            row_bytes: 512,
            skew: 1.05,
        };
        let mut scratch = Vec::new();
        let a = sample_gather(&g, &tensors, &mut scratch, &mut DetRng::seed(9)).unwrap();
        let b = sample_gather(&g, &tensors, &mut scratch, &mut DetRng::seed(9)).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Skew concentrates mass near the start of the table.
        assert_eq!(a[0].block, BlockNum::new(0));
    }

    /// Gather sampling as a `BTreeMap` from block to page mask, drawing
    /// each row with `DetRng::zipf_like` or `below`.
    fn sample_gather_btree(
        g: &GatherAccess,
        range: ByteRange,
        rng: &mut DetRng,
    ) -> Vec<BlockAccess> {
        let rows = range.len() / g.row_bytes as u64;
        if rows == 0 {
            return Vec::new();
        }
        let mut blocks: BTreeMap<BlockNum, PageMask> = BTreeMap::new();
        for _ in 0..g.lookups {
            let row = if g.skew > 0.0 {
                rng.zipf_like(rows, g.skew)
            } else {
                rng.below(rows)
            };
            let addr = UmAddr::new(range.start().raw() + row * g.row_bytes as u64);
            blocks
                .entry(addr.block())
                .or_insert_with(PageMask::empty)
                .set(addr.page().index_in_block());
        }
        blocks
            .into_iter()
            .map(|(b, m)| BlockAccess::new(b, m, AccessKind::Read))
            .collect()
    }

    #[test]
    fn dense_gather_matches_btree_reference() {
        // Tables starting mid-block and on a block boundary, sampled in
        // turn through one scratch buffer, so a stale mask would show.
        let tables = [
            ByteRange::new(
                UmAddr::new(3 * BLOCK_SIZE as u64 + 12_345),
                40 * BLOCK_SIZE as u64 + 99,
            ),
            ByteRange::new(UmAddr::new(100 * BLOCK_SIZE as u64), 3 * BLOCK_SIZE as u64),
        ];
        let mut tensors = TensorMap::new();
        for (i, range) in tables.iter().enumerate() {
            tensors.insert(TensorId(i as u32), (Default::default(), *range));
        }
        let mut scratch = Vec::new();
        for skew in [0.0, 0.5, 1.0, 1.05] {
            for (i, range) in tables.iter().enumerate() {
                let g = GatherAccess {
                    table: TensorId(i as u32),
                    lookups: 5000,
                    row_bytes: 384,
                    skew,
                };
                let seed = 31 + i as u64;
                let (mut a, mut b) = (DetRng::seed(seed), DetRng::seed(seed));
                let dense = sample_gather(&g, &tensors, &mut scratch, &mut a).unwrap();
                assert_eq!(
                    dense,
                    sample_gather_btree(&g, *range, &mut b),
                    "skew {skew} table {i}"
                );
                assert_eq!(a.next_u64(), b.next_u64(), "streams stay in step");
            }
        }
    }

    /// Gather sampling that computes every draw's row and page: the
    /// loop `sample_gather` ran before it stopped at saturation.
    fn sample_gather_per_draw(
        g: &GatherAccess,
        range: ByteRange,
        masks: &mut Vec<PageMask>,
        rng: &mut DetRng,
    ) -> Vec<BlockAccess> {
        let rows = range.len() / g.row_bytes as u64;
        if rows == 0 {
            return Vec::new();
        }
        let first = range.start().block();
        masks.clear();
        masks.resize(range.blocks().len(), PageMask::empty());
        let zipf = (g.skew > 0.0).then(|| Zipf::new(rows, g.skew));
        for _ in 0..g.lookups {
            let row = match &zipf {
                Some(zipf) => zipf.sample(rng),
                None => rng.below(rows),
            };
            let page = UmAddr::new(range.start().raw() + row * g.row_bytes as u64).page();
            masks[(page.block().index() - first.index()) as usize].set(page.index_in_block());
        }
        masks
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| BlockAccess::new(first.offset(u64_from_usize(i)), *m, AccessKind::Read))
            .collect()
    }

    /// Stopping at saturation changes neither the masks, nor their
    /// order, nor the stream: rows within and beyond a page, tables from
    /// one row to 100k, uniform and skewed draws, and tables starting on
    /// a block, mid-block and mid-page, all sampled through one scratch
    /// buffer so a stale mask would show.
    #[test]
    fn sample_gather_matches_per_draw_reference() {
        let starts = [
            100 * BLOCK_SIZE as u64,
            3 * BLOCK_SIZE as u64 + 37 * PAGE_BYTES,
            7 * BLOCK_SIZE as u64 + 12_345,
        ];
        let (mut scratch, mut reference_scratch) = (Vec::new(), Vec::new());
        let mut skipped = 0;
        let mut case = 0u64;
        for row_bytes in [512u32, 4096, 6000] {
            for rows in [1u64, 4, 27, 968, 100_000] {
                for (s, &start) in starts.iter().enumerate() {
                    // A partial row at the end is never drawn.
                    let range =
                        ByteRange::new(UmAddr::new(start), rows * u64::from(row_bytes) + 99);
                    let mut tensors = TensorMap::new();
                    tensors.insert(TensorId(0), (Default::default(), range));
                    let row_page =
                        |row: u64| UmAddr::new(start + row * u64::from(row_bytes)).page();
                    let reachable = (0..rows).map(row_page).collect::<BTreeSet<_>>().len();
                    for skew in [0.0, 1.0, 1.05] {
                        let g = GatherAccess {
                            table: TensorId(0),
                            lookups: 20_000,
                            row_bytes,
                            skew,
                        };
                        case += 1;
                        let (mut a, mut b) = (DetRng::seed(case), DetRng::seed(case));
                        let got = sample_gather(&g, &tensors, &mut scratch, &mut a).unwrap();
                        let want =
                            sample_gather_per_draw(&g, range, &mut reference_scratch, &mut b);
                        let what =
                            format!("row_bytes {row_bytes} rows {rows} start {s} skew {skew}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(a.next_u64(), b.next_u64(), "{what}: streams stay in step");
                        // Rerun the draws to see how many stopped early.
                        let mut masks = vec![PageMask::empty(); range.blocks().len()];
                        let left = mark_rows(&g, range, &mut masks, &mut DetRng::seed(case));
                        if left > 0 {
                            let marked: usize = want.iter().map(|a| a.pages.count()).sum();
                            assert_eq!(marked, reachable, "{what}: stopped before saturation");
                        }
                        skipped += left;
                    }
                }
            }
        }
        assert!(skipped > 0, "no case stopped early");
    }
}
