//! The DeepUM driver.
//!
//! The paper's driver is a Linux kernel module with four kernel threads
//! (Section 3.1). In this deterministic simulation the four threads are
//! folded into one component, with each thread's work happening at the
//! same point of the protocol where it would run concurrently on real
//! hardware:
//!
//! * **fault handling thread** — [`DeepumDriver`]'s
//!   [`UmBackend::handle_faults`]: drains the fault buffer and forwards
//!   the batch to the NVIDIA-driver pipeline (highest priority);
//! * **correlator thread** — the table updates at the top of
//!   `handle_faults`: footprints, start/end pointers, block-pair records;
//! * **prefetching thread** — [`chain::ChainWalk`] pumping into the
//!   prefetch queue, (re)started at every fault batch, paused at the
//!   `N`-kernel look-ahead bound, resumed on kernel retirement;
//! * **migration thread** — [`UmBackend::overlap_compute`]: consumes the
//!   prefetch queue while the GPU computes, paying for migrations out of
//!   the overlap budget (the fault queue always preempts it, because
//!   demand faults are handled synchronously before compute resumes).

use std::collections::VecDeque;

use deepum_gpu::engine::{BackendError, PressureStats, UmBackend};
use deepum_gpu::fault::FaultEntry;
use deepum_gpu::kernel::KernelLaunch;
use deepum_mem::{BlockNum, ByteRange, DenseBlockSet, PageMask, PAGES_PER_BLOCK};
use deepum_runtime::exec_table::ExecId;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::{BackendHealth, DegradationState, SharedInjector};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_trace::{emit, InjectKind, PressureLevel, SharedTracer, TraceEvent, WatchdogMode};
use deepum_um::driver::UmDriver;
use deepum_um::hints::Advice;

use crate::chain::{ChainStep, ChainWalk, PrefetchCommand};
use crate::config::DeepumConfig;
use crate::correlation::{BlockCorrelationTable, ExecCorrelationTable};
use crate::footprint::FootprintMap;
use crate::watchdog::PrefetchWatchdog;

/// Sentinel for "no kernel yet" in execution history.
const NO_EXEC: ExecId = ExecId(u32::MAX);

/// Capacity of the prefetch command queue.
pub(crate) const PREFETCH_QUEUE_CAPACITY: usize = 8192;

/// Pre-eviction keeps at least this many UM blocks of device memory free
/// so demand faults find room without critical-path eviction.
const PREEVICT_HEADROOM_BLOCKS: u64 = 8;

/// Watchdog state as the dependency-free trace vocabulary.
fn watchdog_mode(state: DegradationState) -> WatchdogMode {
    match state {
        DegradationState::Normal => WatchdogMode::Normal,
        DegradationState::Throttled => WatchdogMode::Throttled,
        DegradationState::Disabled => WatchdogMode::Disabled,
    }
}

/// The DeepUM driver: correlation prefetching plus the two fault-handling
/// optimizations, layered over the simulated NVIDIA UM driver.
///
/// Implements [`UmBackend`] (the GPU side) and [`LaunchObserver`] (the
/// runtime side), so an executor wires it between a
/// [`deepum_gpu::engine::GpuEngine`] and a
/// [`deepum_runtime::interpose::CudaRuntime`].
#[derive(Debug)]
pub struct DeepumDriver {
    pub(crate) um: UmDriver,
    cfg: DeepumConfig,
    costs: CostModel,

    // Correlation state (correlator thread).
    pub(crate) exec_corr: ExecCorrelationTable,
    pub(crate) block_tables: Vec<Option<BlockCorrelationTable>>,
    pub(crate) footprints: FootprintMap,

    // Execution context.
    pub(crate) current_exec: Option<ExecId>,
    pub(crate) history: [ExecId; 3],
    pub(crate) first_fault_pending: bool,
    pub(crate) prev_fault_block: Option<BlockNum>,
    pub(crate) last_fault_block: Option<BlockNum>,
    pub(crate) pending_prediction: Option<ExecId>,

    // Prefetching thread state.
    pub(crate) chain: Option<ChainWalk>,
    /// The prefetch queue, bounded at [`PREFETCH_QUEUE_CAPACITY`]: the
    /// prefetching thread pushes only while it has room.
    pub(crate) prefetch_q: VecDeque<PrefetchCommand>,
    /// Lifetime count of commands pushed onto `prefetch_q`.
    pub(crate) prefetch_pushed: u64,
    /// Blocks currently sitting in the prefetch queue; chain restarts
    /// re-discover the same blocks, and duplicate commands would starve
    /// the far look-ahead out of the bounded queue.
    pub(crate) enqueued: DenseBlockSet,
    pub(crate) predicted_window: VecDeque<(u64, BlockNum)>,
    pub(crate) kernel_seq: u64,

    // Migration thread state: overlap time owed from commands whose
    // transfers outlasted the compute slices that started them. PCIe is
    // full duplex, so host→device prefetch traffic and device→host
    // pre-eviction write-backs are budgeted independently.
    pub(crate) h2d_debt: Ns,
    pub(crate) d2h_debt: Ns,

    // Graceful degradation: the prefetch-accuracy watchdog throttles,
    // then disables, correlation prefetching when the misprediction rate
    // crosses its thresholds (re-enabling after a cooldown). The deltas
    // remember the counter values at the previous watchdog feeding.
    injector: Option<SharedInjector>,
    tracer: Option<SharedTracer>,
    /// Virtual time of the latest backend/observer entry point, so
    /// internal threads without a `now` parameter (`pump_chain`) can
    /// stamp their events.
    trace_now: Ns,
    pub(crate) watchdog: Option<PrefetchWatchdog>,
    pub(crate) wd_last_prefetched: u64,
    pub(crate) wd_last_wasted: u64,
    pub(crate) window_dropped: u64,

    // Memory-pressure response: under `Thrashing` the effective prefetch
    // look-ahead shrinks by right-shifting the configured degree; it
    // regrows one step per `Normal` kernel. This composes with the
    // watchdog ladder (which halves on *misprediction*): the watchdog
    // answers "are predictions wrong?", the governor answers "is the
    // device too small for this working set?" — both shrink the same
    // degree, for different reasons.
    pub(crate) pressure_shrink: u32,
    pub(crate) window_resizes: u64,

    // Serving degradation-ladder override: `DemandOnly` turns the
    // correlation prefetcher off entirely (reversibly — unlike an ECC
    // poisoning) while leaving learning and the watchdog untouched.
    pub(crate) demand_only: bool,

    // Hard-fault state: an uncorrectable ECC error on the correlation
    // tables poisons them permanently for the run. Neither field is
    // rewound by a checkpoint restore — a fault that already happened
    // stays happened.
    pub(crate) poisoned: bool,
    pub(crate) ecc_poisonings: u64,

    pub(crate) local: Counters,
}

impl DeepumDriver {
    /// Creates a DeepUM driver over a fresh UM driver for the platform
    /// described by `costs`.
    pub fn new(costs: CostModel, cfg: DeepumConfig) -> Self {
        let mut um = UmDriver::new(costs.clone());
        if let Some(pressure) = cfg.pressure {
            um.install_pressure_governor(pressure);
        }
        let watchdog = cfg.watchdog.map(PrefetchWatchdog::new);
        DeepumDriver {
            um,
            cfg,
            costs,
            exec_corr: ExecCorrelationTable::new(),
            block_tables: Vec::new(),
            footprints: FootprintMap::new(),
            current_exec: None,
            history: [NO_EXEC; 3],
            first_fault_pending: false,
            prev_fault_block: None,
            last_fault_block: None,
            pending_prediction: None,
            chain: None,
            prefetch_q: VecDeque::new(),
            prefetch_pushed: 0,
            enqueued: DenseBlockSet::new(),
            predicted_window: VecDeque::new(),
            kernel_seq: 0,
            h2d_debt: Ns::ZERO,
            d2h_debt: Ns::ZERO,
            injector: None,
            tracer: None,
            trace_now: Ns::ZERO,
            watchdog,
            wd_last_prefetched: 0,
            wd_last_wasted: 0,
            window_dropped: 0,
            pressure_shrink: 0,
            window_resizes: 0,
            demand_only: false,
            poisoned: false,
            ecc_poisonings: 0,
            local: Counters::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DeepumConfig {
        &self.cfg
    }

    /// The underlying (simulated NVIDIA) UM driver.
    pub fn um(&self) -> &UmDriver {
        &self.um
    }

    /// Swaps the underlying UM driver with `other`. The multi-tenant
    /// scheduler time-shares one device by swapping the shared UM
    /// driver into a tenant's DeepUM driver for the tenant's kernel
    /// slot and back out at the slot end; correlation state, prefetch
    /// queues, and the watchdog stay with the tenant.
    pub fn swap_um(&mut self, other: &mut UmDriver) {
        std::mem::swap(&mut self.um, other);
    }

    /// Removes and returns the pressure governor installed on the
    /// (current) underlying UM driver. The multi-tenant scheduler parks
    /// each tenant's governor in its ledger at registration; the shared
    /// driver swaps it in for the tenant's slots.
    pub fn take_pressure_governor(&mut self) -> Option<deepum_um::pressure::PressureGovernor> {
        self.um.take_pressure_governor()
    }

    /// The tracer installed on the driver, if any: the one its tenant
    /// ledger emits into on a shared driver.
    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    /// The fault injector installed on the driver, if any.
    pub fn injector(&self) -> Option<&SharedInjector> {
        self.injector.as_ref()
    }

    /// DeepUM-side counters only — what [`DeepumDriver::counters`] adds
    /// on top of the UM driver. Multi-tenant reports combine this with
    /// the tenant's ledger counters, because the UM driver underneath a
    /// tenant changes across slots.
    pub fn local_counters(&self) -> Counters {
        let mut c = self.local;
        c.prefetch_commands = self.prefetch_pushed;
        c
    }

    /// Multi-tenant load shedding: a system-wide pressure broadcast
    /// asks the tenant to shrink its prefetch look-ahead one step — the
    /// same ladder its local governor drives — regardless of what its
    /// own governor currently believes. No-op once fully shrunk.
    pub fn shed_load(&mut self) {
        if self.pressure_shrink < Self::MAX_PRESSURE_SHRINK {
            self.pressure_shrink += 1;
            self.window_resizes += 1;
        }
    }

    /// Inverse of [`DeepumDriver::shed_load`]: regrows the prefetch
    /// look-ahead one step. The serving degradation ladder calls this
    /// when de-escalating from `ReducedWindow` after its hysteresis
    /// window of clean cycles. No-op at full width.
    pub fn relax_load(&mut self) {
        if self.pressure_shrink > 0 {
            self.pressure_shrink -= 1;
            self.window_resizes += 1;
        }
    }

    /// Serving degradation ladder, `DemandOnly` rung: reversibly turns
    /// correlation prefetching off (pure demand paging) without
    /// touching learned state, the watchdog, or the governor.
    pub fn set_demand_only(&mut self, on: bool) {
        self.demand_only = on;
    }

    /// Merged event counters: UM driver + DeepUM-specific.
    pub fn counters(&self) -> Counters {
        let mut c = self.um.counters();
        c.merge(&self.local);
        c.prefetch_commands = self.prefetch_pushed;
        c
    }

    /// Total memory consumed by the correlation structures (Table 4):
    /// the execution table, every per-execution-ID block table, and the
    /// learned footprints.
    pub fn table_memory_bytes(&self) -> usize {
        let blocks: usize = self
            .block_tables
            .iter()
            .flatten()
            .map(BlockCorrelationTable::memory_bytes)
            .sum();
        self.exec_corr.memory_bytes() + blocks + self.footprints.memory_bytes()
    }

    /// Number of distinct execution IDs with an allocated block table.
    pub fn block_table_count(&self) -> usize {
        self.block_tables.iter().flatten().count()
    }

    /// The execution-ID correlation table (diagnostics).
    pub fn exec_correlation(&self) -> &ExecCorrelationTable {
        &self.exec_corr
    }

    /// The block correlation table of `exec`, if allocated (diagnostics).
    pub fn block_table(&self, exec: ExecId) -> Option<&BlockCorrelationTable> {
        self.block_tables.get(exec.index()).and_then(Option::as_ref)
    }

    fn ensure_block_table(&mut self, exec: ExecId) -> &mut BlockCorrelationTable {
        let idx = exec.index();
        if idx >= self.block_tables.len() {
            self.block_tables.resize_with(idx + 1, || None);
        }
        // "DeepUM dynamically allocates a UM block correlation table
        // when it finds a kernel with a new execution ID."
        self.block_tables[idx].get_or_insert_with(|| {
            BlockCorrelationTable::new(
                self.cfg.block_table_rows,
                self.cfg.block_table_assoc,
                self.cfg.block_table_succs,
            )
        })
    }

    /// Steps the prefetching thread runs per pump before yielding. The
    /// chain state persists across pumps (it is called again at every
    /// fault, kernel boundary, and queue drain), so the cap bounds the
    /// CPU burst without reducing coverage — it is what keeps chaining
    /// cheap on fault-storm workloads like DLRM.
    const PUMP_STEP_BUDGET: usize = 512;

    /// Upper bound on the pressure shrink shift: the look-ahead never
    /// drops below `prefetch_degree / 8` (and never below 1 kernel), so
    /// prefetching keeps probing even under sustained thrash and the
    /// governor can observe recovery.
    const MAX_PRESSURE_SHRINK: u32 = 3;

    /// The look-ahead degree in effect for the next chain pump: the
    /// configured `N`, halved by a throttled watchdog, then
    /// right-shifted by the pressure governor's shrink level. Always at
    /// least one kernel. Public so the serving ladder can report the
    /// window it composed with.
    pub fn effective_degree(&self) -> usize {
        let degree = match self.watchdog.as_ref().map(PrefetchWatchdog::state) {
            Some(DegradationState::Throttled) => (self.cfg.prefetch_degree / 2).max(1),
            _ => self.cfg.prefetch_degree,
        };
        (degree >> self.pressure_shrink).max(1)
    }

    /// Whether correlation prefetching is currently allowed to run: the
    /// config switch, minus a watchdog disable, an ECC poisoning, or
    /// the serving ladder's `DemandOnly` override.
    fn prefetch_active(&self) -> bool {
        self.cfg.enable_prefetch
            && !self.poisoned
            && !self.demand_only
            && self
                .watchdog
                .as_ref()
                .is_none_or(|w| w.state() != DegradationState::Disabled)
    }

    /// True once an uncorrectable ECC error has poisoned the correlation
    /// tables; the driver then runs in pure demand-paging mode.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of ECC poisonings observed (0 or 1 per run today; counted
    /// for the recovery report).
    pub fn ecc_poisonings(&self) -> u64 {
        self.ecc_poisonings
    }

    /// Uncorrectable ECC on correlation-table memory: throw away every
    /// learned structure and fall back to pure demand paging. Counters
    /// and the UM driver survive — only the prediction state is lost.
    fn poison_tables(&mut self) {
        self.poisoned = true;
        self.ecc_poisonings += 1;
        self.exec_corr = ExecCorrelationTable::new();
        self.block_tables.clear();
        self.chain = None;
        self.prefetch_q.clear();
        self.enqueued.clear();
        self.predicted_window.clear();
        self.um.protected_mut().clear();
        self.pending_prediction = None;
    }

    /// Runs the prefetching thread: advance the chain walk and enqueue
    /// commands until the queue fills, the look-ahead window closes, the
    /// chain ends, or the step budget is spent.
    fn pump_chain(&mut self) {
        if !self.prefetch_active() {
            return;
        }
        // A throttled watchdog halves the look-ahead (a wrong chain does
        // half the damage while the tables relearn); memory pressure
        // shrinks it further still.
        let degree = self.effective_degree();
        let Some(chain) = self.chain.as_mut() else {
            return;
        };
        let mut steps = 0;
        while self.prefetch_q.len() < PREFETCH_QUEUE_CAPACITY && steps < Self::PUMP_STEP_BUDGET {
            steps += 1;
            match chain.step(&self.block_tables, &self.exec_corr, degree) {
                ChainStep::Emit(cmd) => {
                    self.local.block_table_lookups += 1;
                    emit(
                        &self.tracer,
                        self.trace_now.as_nanos(),
                        TraceEvent::ChainFollow {
                            block: cmd.block.index(),
                            depth: chain.kernels_ahead() as u64,
                        },
                    );
                    // Every predicted block is protected from (pre-)
                    // eviction for the look-ahead window, but only
                    // blocks that are neither queued already nor fully
                    // resident spend a queue slot. The window itself is
                    // bounded: past capacity the oldest entry yields
                    // (backpressure, reported via `health`).
                    let expires = self.kernel_seq + chain.kernels_ahead() as u64;
                    if self.predicted_window.len() >= self.cfg.predicted_window_capacity {
                        self.predicted_window.pop_front();
                        self.window_dropped += 1;
                    }
                    self.predicted_window.push_back((expires, cmd.block));
                    self.um.protect(cmd.block);
                    if self.enqueued.contains(cmd.block) {
                        continue;
                    }
                    let footprint = self.footprints.get(cmd.block);
                    if !footprint.is_empty()
                        && self.um.resident_miss(cmd.block, &footprint).is_empty()
                    {
                        continue;
                    }
                    self.prefetch_q.push_back(cmd);
                    self.prefetch_pushed += 1;
                    self.enqueued.insert(cmd.block);
                    emit(
                        &self.tracer,
                        self.trace_now.as_nanos(),
                        TraceEvent::PrefetchEnqueue {
                            block: cmd.block.index(),
                            pages: footprint.count() as u64,
                        },
                    );
                }
                ChainStep::Transition { predicted, ahead } => {
                    if ahead == 1 {
                        self.pending_prediction = Some(predicted);
                    }
                }
                ChainStep::Paused | ChainStep::Ended => break,
            }
        }
    }

    /// Processes one prefetch command; returns `(h2d_cost, d2h_cost)`:
    /// the host→device migration DMA time and the device→host
    /// pre-eviction write-back DMA time, which ride independent (full
    /// duplex) directions. The migration thread's CPU work — table
    /// lookups, unmap bookkeeping, queueing — runs concurrently with the
    /// DMA engines and, as the paper notes, "does not incur significant
    /// [...] performance overhead"; it is not charged to either channel.
    fn process_prefetch(&mut self, now: Ns, cmd: PrefetchCommand) -> (Ns, Ns) {
        self.enqueued.remove(cmd.block);
        let mask = self.footprints.get(cmd.block);
        if mask.is_empty() {
            return (self.costs.prefetch_cmd_cost, Ns::ZERO);
        }
        let missing = self.um.resident_miss(cmd.block, &mask);
        if missing.is_empty() {
            return (self.costs.prefetch_cmd_cost, Ns::ZERO);
        }
        let needed = missing.count() as u64;
        let mut h2d = Ns::ZERO;
        let mut d2h = Ns::ZERO;
        if self.cfg.enable_preevict {
            // Section 5.1: keep headroom free so demand faults never pay
            // for eviction on the critical path. The protected set (blocks
            // predicted for the current + next N kernels) steers victim
            // selection; pre-eviction never touches protected blocks.
            let headroom = (PREEVICT_HEADROOM_BLOCKS * PAGES_PER_BLOCK as u64)
                .min(self.um.capacity_pages() / 4);
            let evict = self.um.preevict(now, needed + headroom);
            d2h += evict.writeback;
            // Only host-valid pages move over PCIe; the unpopulated rest
            // of the block is populated device-side for free.
            let transferable = self.um.host_valid(cmd.block, &missing).count() as u64;
            self.um.prefetch_into_gpu(now, cmd.block, &mask);
            h2d += self
                .costs
                .transfer_time(transferable * deepum_mem::PAGE_SIZE as u64);
        } else if self.um.effective_free_pages() >= needed {
            let transferable = self.um.host_valid(cmd.block, &missing).count() as u64;
            self.um.prefetch_into_gpu(now, cmd.block, &mask);
            h2d += self
                .costs
                .transfer_time(transferable * deepum_mem::PAGE_SIZE as u64);
        } else {
            // Without pre-eviction the prefetch path does not evict; the
            // block will fault on demand instead (and that fault pays for
            // eviction on the critical path).
            self.local.prefetch_dropped += 1;
            emit(
                &self.tracer,
                now.as_nanos(),
                TraceEvent::PrefetchDrop {
                    block: cmd.block.index(),
                },
            );
        }
        (h2d.max(self.costs.prefetch_cmd_cost), d2h)
    }

    fn prune_predicted_window(&mut self) {
        while let Some(&(expires, _)) = self.predicted_window.front() {
            if expires < self.kernel_seq {
                self.predicted_window.pop_front();
            } else {
                break;
            }
        }
        // Protecting more blocks than the device can hold would pin the
        // whole memory and leave pre-eviction with no victims; protect
        // only the nearest-future predictions up to half of capacity.
        let max_protected = (self.um.capacity_pages() / PAGES_PER_BLOCK as u64 / 2).max(1) as usize;
        let protected = self.um.protected_mut();
        protected.clear();
        for &(_, block) in self.predicted_window.iter().take(max_protected) {
            protected.insert(block);
        }
    }

    /// Graceful-degradation report: watchdog state and transition
    /// history plus predicted-window backpressure drops.
    pub fn health(&self) -> BackendHealth {
        BackendHealth {
            watchdog_state: if self.poisoned {
                DegradationState::Disabled
            } else {
                self.watchdog
                    .as_ref()
                    .map_or(DegradationState::Normal, PrefetchWatchdog::state)
            },
            watchdog_transitions: self
                .watchdog
                .as_ref()
                .map_or_else(Vec::new, |w| w.transitions().to_vec()),
            predicted_window_dropped: self.window_dropped,
        }
    }
}

impl LaunchObserver for DeepumDriver {
    fn on_kernel_launch(&mut self, now: Ns, exec: ExecId, _kernel: &KernelLaunch) {
        self.trace_now = now;
        self.local.kernels_launched += 1;

        // Poisoned tables stay dead: track the launch position (other
        // subsystems key off `kernel_seq`) but learn and predict nothing.
        if self.poisoned {
            self.current_exec = Some(exec);
            self.first_fault_pending = true;
            self.prev_fault_block = None;
            self.last_fault_block = None;
            self.kernel_seq += 1;
            return;
        }

        if let Some(cur) = self.current_exec {
            // Correlator thread: record (history, next) under the kernel
            // that just finished, and close out its block table.
            self.exec_corr.record(cur, self.history, exec);
            if let Some(end) = self.last_fault_block {
                self.ensure_block_table(cur).set_end(end);
            }
            // Prediction-accuracy accounting for the chain's first hop.
            if let Some(predicted) = self.pending_prediction.take() {
                self.local.exec_predictions += 1;
                if predicted != exec {
                    self.local.exec_mispredictions += 1;
                }
                emit(
                    &self.tracer,
                    now.as_nanos(),
                    TraceEvent::CorrelationPredict {
                        hit: predicted == exec,
                    },
                );
            }
            self.history = [self.history[1], self.history[2], cur];
        }

        self.current_exec = Some(exec);
        self.ensure_block_table(exec);
        self.first_fault_pending = true;
        self.prev_fault_block = None;
        self.last_fault_block = None;
        self.kernel_seq += 1;

        // Feed the watchdog the per-kernel prefetch accuracy deltas; on
        // a fresh disable, flush every in-flight prediction so the queue
        // stops competing with demand traffic immediately.
        if let Some(wd) = self.watchdog.as_mut() {
            // `active_counters` so a multi-tenant slot feeds the watchdog
            // this tenant's own deltas; solo it is the plain counters.
            let c = self.um.active_counters();
            let prefetched = c.pages_prefetched - self.wd_last_prefetched;
            let wasted = c.prefetch_wasted - self.wd_last_wasted;
            self.wd_last_prefetched = c.pages_prefetched;
            self.wd_last_wasted = c.prefetch_wasted;
            let before = wd.state();
            let after = wd.observe(self.kernel_seq, prefetched, wasted);
            if before != after {
                emit(
                    &self.tracer,
                    now.as_nanos(),
                    TraceEvent::WatchdogTransition {
                        from: watchdog_mode(before),
                        to: watchdog_mode(after),
                    },
                );
            }
            if after == DegradationState::Disabled && before != after {
                self.prefetch_q.clear();
                self.enqueued.clear();
                self.chain = None;
            }
        }

        // Memory-pressure response: shrink the predicted look-ahead one
        // shift per kernel launched under `Thrashing`, regrow one shift
        // per kernel under `Normal`, hold under `Elevated` (the
        // classification hysteresis lives in the governor; this ladder
        // only follows it).
        if self.cfg.pressure.is_some() {
            let level = self.um.pressure_level();
            let old = self.pressure_shrink;
            let new = match level {
                PressureLevel::Thrashing => (old + 1).min(Self::MAX_PRESSURE_SHRINK),
                PressureLevel::Elevated => old,
                PressureLevel::Normal => old.saturating_sub(1),
            };
            if new != old {
                let base = self.cfg.prefetch_degree;
                self.pressure_shrink = new;
                self.window_resizes += 1;
                emit(
                    &self.tracer,
                    now.as_nanos(),
                    TraceEvent::PredictedWindowResized {
                        from_degree: (base >> old).max(1) as u64,
                        to_degree: (base >> new).max(1) as u64,
                        level,
                    },
                );
            }
        }

        // The look-ahead window slides by one kernel.
        if let Some(chain) = self.chain.as_mut() {
            chain.on_kernel_advanced();
        }
        self.prune_predicted_window();
        self.pump_chain();
    }

    fn on_pt_block_state(&mut self, _now: Ns, range: ByteRange, inactive: bool) {
        if self.cfg.enable_invalidate {
            self.um.mark_invalidatable(range, inactive);
        }
    }

    fn on_um_range_released(&mut self, _now: Ns, range: ByteRange) {
        self.um.release_range(range);
        for (block, mask) in range.block_footprints() {
            if mask.is_full() {
                self.footprints.forget(block);
            }
        }
    }

    fn on_mem_advise(&mut self, now: Ns, range: ByteRange, advice: Advice) {
        self.um.advise(now, range, advice);
    }
}

impl UmBackend for DeepumDriver {
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        self.um.resident_miss(block, pages)
    }

    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        self.trace_now = now;

        // Injected uncorrectable ECC: the sampled victim is one of this
        // drain's faulted blocks, whose table row is being written right
        // now. Correlation state is advisory, so the driver does not
        // crash — it poisons the tables and degrades to demand paging.
        if !faults.is_empty() && !self.poisoned {
            let ecc_hit = match &self.injector {
                Some(inj) => inj.borrow_mut().roll_ecc(faults.len()),
                None => None,
            };
            if let Some(idx) = ecc_hit {
                emit(
                    &self.tracer,
                    now.as_nanos(),
                    TraceEvent::InjectedFault {
                        kind: InjectKind::EccError,
                    },
                );
                if let Some(f) = faults.get(idx) {
                    emit(
                        &self.tracer,
                        now.as_nanos(),
                        TraceEvent::TablesPoisoned {
                            block: f.block.index(),
                        },
                    );
                }
                self.poison_tables();
            }
        }

        // Correlator thread: learn footprints, start/end anchors, and
        // block-successor pairs from the fault stream. Poisoned tables
        // stay dead — learning into them would fake integrity.
        if self.poisoned {
            return self.um.handle_faults(now, faults);
        }
        if let Some(cur) = self.current_exec {
            for f in faults {
                let block = f.block;
                self.footprints.record(block, &f.pages);
                let recorded = match self.prev_fault_block {
                    Some(prev) if prev != block => {
                        // Injected correlation-table entry drop: the pair
                        // record is lost before it reaches the table, so
                        // the prefetcher must live with holes in the
                        // learned chain.
                        let dropped = match &self.injector {
                            Some(inj) => inj.borrow_mut().roll_corr_drop(),
                            None => false,
                        };
                        if dropped {
                            None
                        } else {
                            Some(prev)
                        }
                    }
                    _ => None,
                };
                self.prev_fault_block = Some(block);
                self.last_fault_block = Some(block);
                let set_start = std::mem::take(&mut self.first_fault_pending);
                let table = self.ensure_block_table(cur);
                if set_start {
                    table.set_start(block);
                }
                if let Some(prev) = recorded {
                    table.record_pair(prev, block);
                    self.local.block_table_updates += 1;
                }
            }

            // Prefetching thread: chaining restarts at every new fault,
            // reusing the one walk's storage.
            if self.prefetch_active() {
                if let Some(last) = faults.last() {
                    match self.chain.as_mut() {
                        Some(walk) => walk.restart(cur, self.history, last.block),
                        None => self.chain = Some(ChainWalk::new(cur, self.history, last.block)),
                    }
                    self.local.chain_walks += 1;
                    self.pump_chain();
                }
            }
        }

        // Fault handling thread: the fault queue has the highest
        // priority; hand the batch to the NVIDIA pipeline synchronously.
        self.um.handle_faults(now, faults)
    }

    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        self.footprints.record(block, pages);
        self.um.touch(now, block, pages);
    }

    fn overlap_compute(&mut self, now: Ns, dur: Ns) -> Ns {
        self.trace_now = now;
        // Migration thread: consume prefetch commands while the GPU
        // computes. Each DMA direction has `dur` of budget (full
        // duplex); debts carry transfers that outlasted earlier slices.
        let mut h2d_left = dur;
        let mut d2h_left = dur;

        let pay = self.h2d_debt.min(h2d_left);
        self.h2d_debt -= pay;
        h2d_left -= pay;
        let pay = self.d2h_debt.min(d2h_left);
        self.d2h_debt -= pay;
        d2h_left -= pay;

        while h2d_left > Ns::ZERO {
            if self.prefetch_q.is_empty() {
                self.pump_chain();
            }
            let Some(cmd) = self.prefetch_q.pop_front() else {
                break;
            };
            let (h2d, d2h) = self.process_prefetch(now, cmd);
            if h2d <= h2d_left {
                h2d_left -= h2d;
            } else {
                self.h2d_debt = h2d - h2d_left;
                h2d_left = Ns::ZERO;
            }
            if d2h <= d2h_left {
                d2h_left -= d2h;
            } else {
                self.d2h_debt += d2h - d2h_left;
                d2h_left = Ns::ZERO;
            }
        }
        // Busy time for energy accounting: the slice carried PCIe
        // traffic for as long as either direction was active.
        (dur - h2d_left).max(dur - d2h_left)
    }

    fn kernel_finished(&mut self, now: Ns) {
        self.trace_now = now;
        // Close the governor's per-kernel refault window (and release
        // the minimum-resident pins) before the prefetcher runs.
        self.um.pressure_kernel_tick(now);
        // "The prefetching thread resumes after the currently executing
        // kernel finishes."
        self.pump_chain();
    }

    fn install_injector(&mut self, injector: SharedInjector) {
        self.um.install_injector(injector.clone());
        self.injector = Some(injector);
    }

    fn install_tracer(&mut self, tracer: SharedTracer) {
        self.um.set_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn validate(&self) -> Result<(), String> {
        self.um.validate()
    }

    fn health(&self) -> BackendHealth {
        DeepumDriver::health(self)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::recovery::snapshot_deepum(self))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        crate::recovery::restore_deepum(self, bytes).map_err(|e| e.to_string())
    }

    fn resident_pages(&self) -> u64 {
        self.um.resident_pages()
    }

    fn pressure(&self) -> Option<PressureStats> {
        // The governor lives in the UM driver; the look-ahead resize
        // count is DeepUM's contribution to the same story.
        self.um.pressure_stats().map(|mut s| {
            s.window_resizes = self.window_resizes;
            s
        })
    }

    fn wear(&self) -> Option<deepum_gpu::engine::WearStats> {
        UmBackend::wear(&self.um)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::fault::AccessKind;
    use deepum_mem::{UmAddr, BLOCK_SIZE};

    fn driver(capacity_blocks: u64, cfg: DeepumConfig) -> DeepumDriver {
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        DeepumDriver::new(costs, cfg)
    }

    fn kernel(name: &str) -> KernelLaunch {
        KernelLaunch::new(name, &[], vec![], Ns::from_micros(10))
    }

    fn faults(block: u64, pages: core::ops::Range<usize>) -> Vec<FaultEntry> {
        vec![FaultEntry {
            block: BlockNum::new(block),
            pages: PageMask::from_range(pages),
            kind: AccessKind::Read,
        }]
    }

    /// Simulates `iters` repetitions of a two-kernel loop where kernel A
    /// faults blocks 0→1 and kernel B faults blocks 2→3, and returns the
    /// driver.
    fn train_loop(d: &mut DeepumDriver, iters: usize) {
        let (ka, kb) = (kernel("A"), kernel("B"));
        let mut now = Ns::ZERO;
        for _ in 0..iters {
            d.on_kernel_launch(now, ExecId(0), &ka);
            for b in [0u64, 1] {
                let miss = d.resident_miss(BlockNum::new(b), &PageMask::first_n(64));
                if !miss.is_empty() {
                    let entries = faults(b, 0..64);
                    d.handle_faults(now, &entries).expect("faults handled");
                }
                d.touch(now, BlockNum::new(b), &PageMask::first_n(64));
            }
            d.overlap_compute(now, Ns::from_millis(10));
            d.kernel_finished(now);

            d.on_kernel_launch(now, ExecId(1), &kb);
            for b in [2u64, 3] {
                let miss = d.resident_miss(BlockNum::new(b), &PageMask::first_n(64));
                if !miss.is_empty() {
                    let entries = faults(b, 0..64);
                    d.handle_faults(now, &entries).expect("faults handled");
                }
                d.touch(now, BlockNum::new(b), &PageMask::first_n(64));
            }
            d.overlap_compute(now, Ns::from_millis(10));
            d.kernel_finished(now);
            now += Ns::from_millis(25);
        }
    }

    #[test]
    fn correlation_tables_learn_the_loop() {
        let mut d = driver(16, DeepumConfig::default());
        train_loop(&mut d, 3);
        // Block table of exec 0 learned 0 -> 1.
        let t0 = d.block_table(ExecId(0)).unwrap();
        assert_eq!(t0.successors(BlockNum::new(0)), &[BlockNum::new(1)]);
        assert_eq!(t0.start(), Some(BlockNum::new(0)));
        assert_eq!(t0.end(), Some(BlockNum::new(1)));
        // Exec table predicts B after A once context is warm.
        assert_eq!(d.block_table_count(), 2);
        assert!(d.exec_correlation().total_records() >= 2);
    }

    #[test]
    fn prefetching_eliminates_steady_state_faults() {
        let mut d = driver(16, DeepumConfig::default());
        train_loop(&mut d, 2);
        let warmed = d.counters();
        train_loop(&mut d, 3);
        let steady = d.counters().delta_since(&warmed);
        // Device holds everything: after warm-up no faults at all (the
        // working set stays resident).
        assert_eq!(steady.gpu_page_faults, 0);
    }

    #[test]
    fn oversubscribed_steady_state_prefetches_instead_of_faulting() {
        // Device: 4 blocks; working set: 8 full blocks over a 4-kernel
        // loop (K0 uses 0-1, K1 uses 2-3, ...), so every kernel's data
        // has been evicted by the time it runs again — the oversubscribed
        // regime the paper targets. With a look-ahead of one kernel, the
        // chain keeps rolling across the loop and hides the migrations.
        let cfg = DeepumConfig::default().with_prefetch_degree(1);
        let mut d = driver(4, cfg);
        let kernels: Vec<KernelLaunch> = (0..4).map(|i| kernel(&format!("K{i}"))).collect();
        let mut now = Ns::ZERO;
        let full = PageMask::full();
        let mut faults_at_iter = Vec::new();
        for _ in 0..8 {
            let start_faults = d.counters().gpu_page_faults;
            for (ki, k) in kernels.iter().enumerate() {
                d.on_kernel_launch(now, ExecId(ki as u32), k);
                for b in [2 * ki as u64, 2 * ki as u64 + 1] {
                    let miss = d.resident_miss(BlockNum::new(b), &full);
                    if !miss.is_empty() {
                        let entries = [FaultEntry {
                            block: BlockNum::new(b),
                            pages: miss,
                            kind: AccessKind::Read,
                        }];
                        d.handle_faults(now, &entries).expect("faults handled");
                    }
                    d.touch(now, BlockNum::new(b), &full);
                    // Compute slice during which migrations overlap.
                    d.overlap_compute(now, Ns::from_millis(50));
                }
                d.kernel_finished(now);
                now += Ns::from_millis(10);
            }
            faults_at_iter.push(d.counters().gpu_page_faults - start_faults);
        }
        let c = d.counters();
        assert!(c.pages_prefetched > 0, "prefetched: {}", c.pages_prefetched);
        assert!(c.prefetch_hits > 0, "hits: {}", c.prefetch_hits);
        // Steady state faults far below the cold-iteration count.
        let cold = faults_at_iter[0];
        let steady = *faults_at_iter.last().unwrap();
        assert!(
            steady < cold / 2,
            "cold {cold}, steady {steady}, all {faults_at_iter:?}"
        );
    }

    #[test]
    fn invalidation_respects_toggle() {
        let mut on = driver(4, DeepumConfig::default());
        let mut off = driver(
            4,
            DeepumConfig {
                enable_invalidate: false,
                ..DeepumConfig::default()
            },
        );
        let range = ByteRange::new(UmAddr::new(0), BLOCK_SIZE as u64);
        on.on_pt_block_state(Ns::ZERO, range, true);
        off.on_pt_block_state(Ns::ZERO, range, true);

        for d in [&mut on, &mut off] {
            let entries = faults(0, 0..512);
            d.handle_faults(Ns::ZERO, &entries).expect("faults handled");
            // Force eviction of block 0 by filling the rest of memory.
            for b in 1..=4u64 {
                let entries = faults(b, 0..512);
                d.handle_faults(Ns::from_nanos(b), &entries)
                    .expect("faults handled");
            }
        }
        assert!(on.counters().pages_invalidated >= 512);
        assert_eq!(off.counters().pages_invalidated, 0);
    }

    #[test]
    fn prefetch_disabled_never_prefetches() {
        let cfg = DeepumConfig {
            enable_prefetch: false,
            ..DeepumConfig::default()
        };
        let mut d = driver(16, cfg);
        train_loop(&mut d, 4);
        let c = d.counters();
        assert_eq!(c.pages_prefetched, 0);
        assert_eq!(c.prefetch_commands, 0);
        // Faults persist every iteration only if evictions occur; with
        // ample memory they still go to zero after warm-up, but no
        // prefetch machinery ran.
        assert_eq!(c.chain_walks, 0);
    }

    #[test]
    fn exec_prediction_accuracy_is_tracked() {
        let mut d = driver(16, DeepumConfig::default());
        train_loop(&mut d, 5);
        let c = d.counters();
        if c.exec_predictions > 0 {
            assert!(c.exec_mispredictions <= c.exec_predictions);
        }
    }

    #[test]
    fn table_memory_grows_with_new_exec_ids() {
        let mut d = driver(16, DeepumConfig::default());
        let before = d.table_memory_bytes();
        train_loop(&mut d, 1);
        assert!(d.table_memory_bytes() > before);
        assert_eq!(d.block_table_count(), 2);
    }

    /// Runs one iteration of a 4-kernel loop where kernel `ki` faults
    /// blocks `base + 2*ki` and `base + 2*ki + 1` (full blocks), with
    /// generous overlap so prefetches actually land.
    fn loop_iteration(d: &mut DeepumDriver, base: u64, now: &mut Ns) {
        let full = PageMask::full();
        for ki in 0..4u32 {
            let k = kernel(&format!("K{ki}"));
            d.on_kernel_launch(*now, ExecId(ki), &k);
            for b in [base + 2 * ki as u64, base + 2 * ki as u64 + 1] {
                let miss = d.resident_miss(BlockNum::new(b), &full);
                if !miss.is_empty() {
                    let entries = [FaultEntry {
                        block: BlockNum::new(b),
                        pages: miss,
                        kind: AccessKind::Read,
                    }];
                    d.handle_faults(*now, &entries).expect("faults handled");
                }
                d.touch(*now, BlockNum::new(b), &full);
                d.overlap_compute(*now, Ns::from_millis(50));
            }
            d.kernel_finished(*now);
            *now += Ns::from_millis(10);
        }
    }

    #[test]
    fn watchdog_disables_under_misprediction_storm_and_recovers() {
        // Oversubscribed device (4 blocks, 8-block working set) with an
        // aggressive watchdog. Phase 1 trains the correlation tables on
        // a stable loop. Phase 2 moves the working set to fresh blocks
        // every iteration, so the chain keeps prefetching last
        // iteration's blocks — pure waste — until the watchdog disables
        // prefetching. Phase 3 returns to a stable loop; during the
        // cooldown the correlator re-learns it from demand faults, and
        // the watchdog re-enables prefetching into a workload it now
        // predicts well.
        let cfg = DeepumConfig::default()
            .with_prefetch_degree(1)
            .with_watchdog(2, 25, 50, 6);
        let mut d = driver(4, cfg);
        let mut now = Ns::ZERO;

        for _ in 0..4 {
            loop_iteration(&mut d, 0, &mut now);
        }
        assert_eq!(d.health().watchdog_state, DegradationState::Normal);

        let mut base = 1000;
        for _ in 0..12 {
            loop_iteration(&mut d, base, &mut now);
            base += 100;
            if d.health().watchdog_state == DegradationState::Disabled {
                break;
            }
        }
        let mid = d.health();
        assert_eq!(
            mid.watchdog_state,
            DegradationState::Disabled,
            "sustained waste should disable prefetching; transitions: {:?}",
            mid.watchdog_transitions
        );
        assert!(d.counters().prefetch_wasted > 0);

        for _ in 0..8 {
            loop_iteration(&mut d, 0, &mut now);
        }
        let end = d.health();
        assert_eq!(
            end.watchdog_state,
            DegradationState::Normal,
            "cooldown should re-enable prefetching; transitions: {:?}",
            end.watchdog_transitions
        );
        let recovered = end
            .watchdog_transitions
            .iter()
            .any(|t| t.from == DegradationState::Disabled && t.to == DegradationState::Normal);
        assert!(recovered, "transitions: {:?}", end.watchdog_transitions);
        d.validate()
            .expect("degradation cycle leaves state consistent");
    }

    #[test]
    fn corr_drops_suppress_table_updates() {
        let plan = deepum_sim::faultinject::InjectionPlan {
            corr_drop_rate: 1.0,
            ..Default::default()
        };
        let mut clean = driver(16, DeepumConfig::default());
        train_loop(&mut clean, 3);
        assert!(clean.counters().block_table_updates > 0);

        let mut d = driver(16, DeepumConfig::default());
        let inj = plan.build_shared();
        UmBackend::install_injector(&mut d, inj.clone());
        train_loop(&mut d, 3);
        assert_eq!(d.counters().block_table_updates, 0);
        assert!(inj.borrow().stats().corr_records_dropped > 0);
    }

    #[test]
    fn predicted_window_backpressure_drops_and_reports() {
        // A tiny window capacity forces the bounded queue to shed its
        // oldest entries while an oversubscribed loop keeps predicting.
        let cfg = DeepumConfig {
            predicted_window_capacity: 2,
            ..DeepumConfig::default().with_prefetch_degree(4)
        };
        let mut d = driver(4, cfg);
        let mut now = Ns::ZERO;
        for _ in 0..6 {
            loop_iteration(&mut d, 0, &mut now);
        }
        let health = d.health();
        assert!(
            health.predicted_window_dropped > 0,
            "capacity 4 must overflow: {health:?}"
        );
        d.validate().expect("backpressure leaves state consistent");

        // The default capacity is a safety valve: the same loop never
        // touches it, so clean runs report default health.
        let mut clean = driver(4, DeepumConfig::default().with_prefetch_degree(4));
        let mut now = Ns::ZERO;
        for _ in 0..6 {
            loop_iteration(&mut clean, 0, &mut now);
        }
        assert_eq!(clean.health().predicted_window_dropped, 0);
    }

    #[test]
    fn pressure_governor_shrinks_lookahead_under_thrash() {
        // 8-block working set on a 4-block device: every iteration's
        // blocks are evicted before they repeat, so demand arrivals are
        // dominated by refaults until prefetching absorbs them.
        // Aggressive thresholds (Elevated at 1%, Thrashing at 2%) make
        // the governor classify that churn as Thrashing within a kernel
        // or two, and the launch hook must answer by shrinking the
        // effective look-ahead.
        let cfg = DeepumConfig::default()
            .with_prefetch_degree(8)
            .with_pressure_governor(8, 2, 1, 2);
        let mut d = driver(4, cfg);
        let mut now = Ns::ZERO;
        let mut max_shrink = 0;
        for _ in 0..10 {
            loop_iteration(&mut d, 0, &mut now);
            max_shrink = max_shrink.max(d.pressure_shrink);
        }
        assert!(max_shrink > 0, "thrash never shrank the look-ahead");
        assert!(max_shrink <= DeepumDriver::MAX_PRESSURE_SHRINK);
        assert!(d.window_resizes > 0);
        let stats = UmBackend::pressure(&d).expect("governed driver reports pressure");
        assert_eq!(stats.window_resizes, d.window_resizes);
        assert!(stats.refaults > 0, "oversubscribed loop must refault");
        assert!(stats.level_changes > 0);
        d.validate().expect("governed run leaves state consistent");

        // Ungoverned drivers report no pressure section at all.
        assert!(UmBackend::pressure(&driver(4, DeepumConfig::default())).is_none());
    }

    #[test]
    fn effective_degree_composes_watchdog_and_pressure() {
        let cfg = DeepumConfig::default().with_prefetch_degree(16);
        let mut d = driver(16, cfg);
        assert_eq!(d.effective_degree(), 16);
        d.pressure_shrink = 2;
        assert_eq!(d.effective_degree(), 4);
        // The shift floors at one kernel of look-ahead.
        d.pressure_shrink = DeepumDriver::MAX_PRESSURE_SHRINK;
        let mut tiny = driver(16, DeepumConfig::default().with_prefetch_degree(2));
        tiny.pressure_shrink = DeepumDriver::MAX_PRESSURE_SHRINK;
        assert_eq!(tiny.effective_degree(), 1);
    }

    #[test]
    fn relax_load_reverses_shed_load() {
        let cfg = DeepumConfig::default().with_prefetch_degree(16);
        let mut d = driver(16, cfg);
        d.shed_load();
        d.shed_load();
        assert_eq!(d.effective_degree(), 4);
        d.relax_load();
        assert_eq!(d.effective_degree(), 8);
        d.relax_load();
        assert_eq!(d.effective_degree(), 16);
        // Both ends saturate.
        d.relax_load();
        assert_eq!(d.effective_degree(), 16);
        for _ in 0..8 {
            d.shed_load();
        }
        assert_eq!(d.effective_degree(), 2);
    }

    #[test]
    fn demand_only_gates_prefetch_reversibly() {
        let mut d = driver(16, DeepumConfig::default().with_prefetch_degree(4));
        train_loop(&mut d, 2);
        assert!(d.prefetch_active());
        d.set_demand_only(true);
        assert!(!d.prefetch_active());
        // Unlike ECC poisoning, the override lifts cleanly.
        d.set_demand_only(false);
        assert!(d.prefetch_active());
        assert!(!d.is_poisoned());
    }

    #[test]
    fn mem_advise_forwards_to_um() {
        use deepum_runtime::interpose::LaunchObserver;
        let mut d = driver(16, DeepumConfig::default());
        let range = ByteRange::new(deepum_mem::UmAddr::new(0), 2 << 20);
        d.on_mem_advise(Ns::ZERO, range, Advice::ReadMostly);
        assert!(d.um().hints().is_read_mostly(BlockNum::new(0)));
    }

    #[test]
    fn overlap_budget_carries_debt() {
        let mut d = driver(16, DeepumConfig::default());
        train_loop(&mut d, 2);
        // Queue some prefetch work by faulting fresh blocks.
        d.on_kernel_launch(Ns::ZERO, ExecId(0), &kernel("A"));
        let entries = faults(0, 0..64);
        d.handle_faults(Ns::ZERO, &entries).expect("faults handled");
        // A tiny overlap budget cannot cover a whole migration: busy time
        // never exceeds the budget.
        let busy = d.overlap_compute(Ns::ZERO, Ns::from_nanos(100));
        assert!(busy <= Ns::from_nanos(100));
    }
}
