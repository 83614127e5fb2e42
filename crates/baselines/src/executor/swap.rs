//! The tensor-swapping execution path (non-UM baselines).
//!
//! Models how LMS / vDNN / AutoTM / SwapAdvisor / Capuchin / Sentinel
//! execute: tensors live whole in *device* memory (allocated through the
//! PyTorch caching allocator over raw device memory — so fragmentation
//! is real and bounds the maximum batch size, Table 3/7), and move whole
//! over PCIe on the strategy's schedule:
//!
//! * a kernel cannot start until every operand tensor is device-resident
//!   and its swap-in transfer has completed (demand misses stall);
//! * swap-ins scheduled by the strategy's look-ahead ride the
//!   host→device DMA channel and overlap with compute;
//! * evictions write back on the device→host channel; a swap-in that
//!   reuses the evicted space cannot start before the write-back ends.

use crate::report::{IterStats, RunError, RunReport};
use crate::strategies::{ProgramInfo, SwapCtx, SwapStrategy};
use deepum_sim::clock::SimClock;
use deepum_sim::costs::CostModel;
use deepum_sim::energy::{EnergyMeter, PowerState};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::alloc::{AllocError, CachingAllocator, DeviceHeap, PtBlockId, PtEvent};
use deepum_torch::perf::PerfModel;
use deepum_torch::step::{Step, TensorId, Workload};

/// Fixed cost of a fresh `cudaMalloc` segment allocation (what makes
/// LMS-mod's per-iteration cache flush cost time).
const CUDA_MALLOC_COST: Ns = Ns::from_micros(250);

/// Effective bandwidth of tensor swaps, bytes/s. Tensor-granularity
/// systems stage through (mostly pageable) host buffers and sync
/// per-tensor, reaching roughly half of the raw PCIe DMA rate that
/// driver-level UM page migration achieves.
const STAGING_BANDWIDTH_BPS: f64 = 6.5e9;

/// Configuration of a swap-path run.
#[derive(Debug, Clone)]
pub struct SwapRunConfig {
    /// Training iterations (the first is the cold / profiling one).
    pub iterations: usize,
    /// Platform cost model: device capacity bounds the pool, host
    /// capacity bounds total tensors, PCIe feeds the transfer times.
    pub costs: CostModel,
    /// Kernel-time model.
    pub perf: PerfModel,
}

impl SwapRunConfig {
    /// A config on the paper's primary platform.
    pub fn new(iterations: usize) -> Self {
        SwapRunConfig {
            iterations,
            costs: CostModel::v100_32gb(),
            perf: PerfModel::v100(),
        }
    }
}

impl SwapRunConfig {
    /// Transfer time of one tensor swap through the host staging path.
    fn staging_transfer_time(&self, bytes: u64) -> Ns {
        self.costs.pcie_latency + Ns::from_secs_f64(bytes as f64 / STAGING_BANDWIDTH_BPS)
    }
}

#[derive(Debug, Clone, Copy)]
struct DeviceCopy {
    block: PtBlockId,
    /// When the tensor's data is usable on device.
    ready: Ns,
}

#[derive(Debug, Default)]
struct TensorState {
    device: Option<DeviceCopy>,
    /// The tensor holds meaningful data (weights initially; activations
    /// after their first producing kernel).
    has_data: bool,
}

/// Runs `workload` for `cfg.iterations` under `strategy`.
///
/// # Errors
///
/// * [`RunError::Unsupported`] when the strategy rejects the model
///   (vDNN on transformers) or a single kernel's operands exceed device
///   memory;
/// * [`RunError::OutOfMemory`] when allocation fails even after eviction
///   and a cache flush (fragmentation OOM) — the Table 3/7 bound.
pub fn run_swap(
    workload: &Workload,
    strategy: &mut dyn SwapStrategy,
    cfg: &SwapRunConfig,
) -> Result<RunReport, RunError> {
    let program = ProgramInfo::compile(workload);
    strategy.supports(&program).map_err(RunError::Unsupported)?;
    strategy.plan(&program);

    let mut exec = SwapExec {
        cfg,
        program: &program,
        host_live_bytes: 0,
        device: DeviceHeap::new(cfg.costs.device_memory_bytes),
        allocator: CachingAllocator::new(),
        events: Vec::new(),
        tensors: Vec::new(),
        last_use: Vec::new(),
        h2d_free: Ns::ZERO,
        d2h_free: Ns::ZERO,
        clock: SimClock::new(),
        energy: EnergyMeter::new(),
        counters: Counters::new(),
        segments_seen: 0,
    };
    exec.tensors
        .resize_with(program.tensor_bytes.len(), TensorState::default);
    exec.last_use.resize(program.tensor_bytes.len(), Ns::ZERO);
    for t in &workload.persistent {
        exec.tensors[t.id.index()].has_data = true;
        exec.host_live_bytes += t.bytes;
    }
    if exec.host_live_bytes > cfg.costs.host_memory_bytes {
        return Err(RunError::OutOfMemory(format!(
            "persistent tensors ({} bytes) exceed host memory",
            exec.host_live_bytes
        )));
    }

    let mut iters = Vec::with_capacity(cfg.iterations);
    for iteration in 0..cfg.iterations {
        let t0 = exec.clock.now();
        let c0 = exec.counters;
        let mut compute = Ns::ZERO;
        let mut stall = Ns::ZERO;
        let mut kernel_index = 0usize;

        for step in &workload.steps {
            match step {
                Step::Alloc(spec) => {
                    // Device materialization is lazy (at first use); the
                    // logical tensor only becomes known here, but its
                    // host backing counts against host capacity.
                    debug_assert!(
                        exec.tensors[spec.id.index()].device.is_none(),
                        "alloc of tensor with live device copy"
                    );
                    exec.tensors[spec.id.index()] = TensorState::default();
                    exec.host_live_bytes += spec.bytes;
                    if exec.host_live_bytes > cfg.costs.host_memory_bytes {
                        return Err(RunError::OutOfMemory(format!(
                            "live tensors ({} bytes) exceed host memory",
                            exec.host_live_bytes
                        )));
                    }
                }
                Step::Free(id) => {
                    exec.host_live_bytes -= program.bytes(*id);
                    exec.drop_tensor(*id);
                }
                Step::Kernel(k) => {
                    let (c, s) = exec.run_kernel(k, kernel_index, iteration, strategy)?;
                    compute += c;
                    stall += s;
                    kernel_index += 1;
                }
            }
        }

        // Transient tensors of swap executors are all freed by the step
        // program; flush the cache if the strategy asks (LMS-mod).
        if let Some(every) = strategy.flush_cache_every() {
            if every > 0 && (iteration + 1) % every == 0 {
                exec.allocator
                    .empty_cache(&mut exec.device, &mut exec.events);
                exec.events.clear();
            }
        }
        strategy.end_iteration(iteration);

        let base = exec.clock.now() - t0;
        let overhead = strategy.profiling_overhead(iteration, base);
        exec.clock.advance(overhead);
        exec.energy.accumulate(PowerState::Idle, overhead);

        iters.push(IterStats {
            elapsed: exec.clock.now() - t0,
            compute,
            stall,
            counters: exec.counters.delta_since(&c0),
        });
    }

    Ok(RunReport {
        workload: workload.name.clone(),
        system: strategy.capabilities().name.into(),
        total: exec.clock.now(),
        energy_joules: exec.energy.joules(),
        iters,
        counters: exec.counters,
        table_bytes: None,
        health: None,
        recovery: None,
        trace: None,
        pressure: None,
        tenants: None,
        serving: None,
        wear: None,
    })
}

struct SwapExec<'a> {
    cfg: &'a SwapRunConfig,
    program: &'a ProgramInfo,
    /// Bytes of live tensors; host memory backs every tensor of a
    /// swapping system, so this is bounded by host capacity.
    host_live_bytes: u64,
    device: DeviceHeap,
    allocator: CachingAllocator,
    events: Vec<PtEvent>,
    tensors: Vec<TensorState>,
    last_use: Vec<Ns>,
    h2d_free: Ns,
    d2h_free: Ns,
    clock: SimClock,
    energy: EnergyMeter,
    counters: Counters,
    segments_seen: usize,
}

impl SwapExec<'_> {
    fn drop_tensor(&mut self, id: TensorId) {
        if let Some(copy) = self.tensors[id.index()].device.take() {
            self.allocator.free(copy.block, &mut self.events);
            self.events.clear();
        }
        self.tensors[id.index()].has_data = false;
    }

    fn run_kernel(
        &mut self,
        k: &deepum_torch::step::KernelStep,
        kernel_index: usize,
        iteration: usize,
        strategy: &mut dyn SwapStrategy,
    ) -> Result<(Ns, Ns), RunError> {
        let schedule_known = strategy.schedule_known(iteration);
        let info = &self.program.kernels[kernel_index];

        // 1. Make every operand device-resident (demand swap-ins).
        let mut ready = self.clock.now();
        for &t in &info.operands {
            let r = self.ensure_device(t, kernel_index, iteration, schedule_known, strategy)?;
            ready = ready.max(r);
        }

        // 2. Stall until operands are usable.
        let stall = ready.saturating_sub(self.clock.now());
        if stall > Ns::ZERO {
            self.clock.advance(stall);
            self.energy.accumulate(PowerState::Transfer, stall);
        }

        // 3. Prefetch for upcoming kernels rides the H2D channel while
        //    this kernel computes.
        let ctx = SwapCtx {
            kernel_index,
            iteration,
            schedule_known,
            program: self.program,
            last_use: &self.last_use,
        };
        let plan = strategy.prefetch(&ctx);
        for t in plan {
            // Only tensors that hold swapped-out data can be prefetched;
            // future outputs get their device block at their own Alloc /
            // first use (prefetching a dead tensor would leak its block
            // when the Alloc step resets the slot). Best effort: a failed
            // placement just means the tensor faults in on demand later.
            if self.tensors[t.index()].has_data && self.tensors[t.index()].device.is_none() {
                let _ = self.ensure_device(t, kernel_index, iteration, schedule_known, strategy);
            }
        }

        // 4. Compute.
        let bytes: u64 = info.operands.iter().map(|&t| self.program.bytes(t)).sum();
        let compute = self.cfg.perf.kernel_time(k.flops, bytes);
        let transfer_overlap = self
            .h2d_free
            .min(self.clock.now() + compute)
            .saturating_sub(self.clock.now());
        self.clock.advance(compute);
        self.energy
            .accumulate(PowerState::ComputeTransfer, transfer_overlap);
        self.energy
            .accumulate(PowerState::Compute, compute - transfer_overlap);

        // 5. Mark uses; outputs now hold data.
        for &t in &info.operands {
            self.last_use[t.index()] = self.clock.now();
        }
        for id in &k.writes {
            self.tensors[id.index()].has_data = true;
        }
        self.counters.kernels_launched += 1;
        Ok((compute, stall))
    }

    /// Ensures `t` has a device copy; returns when its data is usable.
    fn ensure_device(
        &mut self,
        t: TensorId,
        kernel_index: usize,
        iteration: usize,
        schedule_known: bool,
        strategy: &mut dyn SwapStrategy,
    ) -> Result<Ns, RunError> {
        if let Some(copy) = self.tensors[t.index()].device {
            return Ok(copy.ready);
        }
        let bytes = self.program.bytes(t);
        let mut evict_done = Ns::ZERO;

        // Keep the kernel's working set resident while we evict.
        let segments_before = self.allocator.segment_count();
        let (block, _range) = loop {
            match self
                .allocator
                .alloc(bytes, &mut self.device, &mut self.events)
            {
                Ok(x) => break x,
                Err(AllocError::OutOfMemory { requested }) => {
                    // Evict by the strategy's ranking until something
                    // frees; fragmentation may require several rounds.
                    let (freed, done) = self.evict_victims(
                        requested,
                        kernel_index,
                        iteration,
                        schedule_known,
                        strategy,
                    );
                    evict_done = evict_done.max(done);
                    if freed == 0 {
                        return Err(RunError::OutOfMemory(format!(
                            "device pool cannot place {requested} bytes for tensor {t} \
                             (active {} reserved {} heap {} cap {})",
                            self.allocator.active_bytes(),
                            self.allocator.reserved_bytes(),
                            self.device.allocated_bytes(),
                            self.device.capacity_bytes(),
                        )));
                    }
                }
                Err(AllocError::ZeroSize) => {
                    return Err(RunError::Unsupported("zero-size tensor".into()))
                }
            }
        };
        self.events.clear();
        // Fresh segments cost a cudaMalloc.
        let new_segments = self
            .allocator
            .segment_count()
            .saturating_sub(segments_before)
            + self.segments_seen_delta();
        if new_segments > 0 {
            self.clock.advance(CUDA_MALLOC_COST * new_segments as u64);
        }

        // Swap-in transfer only if the tensor carries data.
        let ready = if self.tensors[t.index()].has_data {
            let start = self.clock.now().max(self.h2d_free).max(evict_done);
            let done = start + self.cfg.staging_transfer_time(bytes);
            self.h2d_free = done;
            self.counters.bytes_h2d += bytes;
            done
        } else {
            self.clock.now().max(evict_done)
        };
        self.tensors[t.index()].device = Some(DeviceCopy { block, ready });
        Ok(ready)
    }

    fn segments_seen_delta(&mut self) -> usize {
        let now = self.allocator.segment_count();
        let delta = now.saturating_sub(self.segments_seen);
        self.segments_seen = now;
        delta
    }

    /// Evicts tensors (in the strategy's ranking) until at least
    /// `min_bytes` are freed or candidates run out. Returns
    /// `(freed_bytes, write_back_completion)`.
    fn evict_victims(
        &mut self,
        min_bytes: u64,
        kernel_index: usize,
        iteration: usize,
        schedule_known: bool,
        strategy: &mut dyn SwapStrategy,
    ) -> (u64, Ns) {
        // Candidates: resident tensors not used by the current kernel.
        let in_use = &self.program.kernels[kernel_index].operands;
        let mut candidates: Vec<TensorId> = self
            .tensors
            .iter()
            .enumerate()
            .filter(|(i, s)| s.device.is_some() && !in_use.contains(&TensorId(*i as u32)))
            .map(|(i, _)| TensorId(i as u32))
            .collect();
        if candidates.is_empty() {
            return (0, Ns::ZERO);
        }
        let ctx = SwapCtx {
            kernel_index,
            iteration,
            schedule_known,
            program: self.program,
            last_use: &self.last_use,
        };
        strategy.rank_victims(&ctx, &mut candidates);

        let mut freed = 0u64;
        let mut evict_done = Ns::ZERO;
        for victim in candidates {
            if freed >= min_bytes {
                break;
            }
            let vbytes = self.program.bytes(victim);
            let copy = self.tensors[victim.index()]
                .device
                .take()
                .expect("candidate is resident");
            // Write back on the D2H channel if the tensor holds data.
            if self.tensors[victim.index()].has_data {
                let start = self.clock.now().max(self.d2h_free).max(copy.ready);
                let done = start + self.cfg.staging_transfer_time(vbytes);
                self.d2h_free = done;
                self.counters.bytes_d2h += vbytes;
                evict_done = evict_done.max(done);
            }
            self.allocator.free(copy.block, &mut self.events);
            self.events.clear();
            freed += vbytes;
        }
        (freed, evict_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{AutoTm, Lms, LmsMod, Sentinel, Vdnn};
    use deepum_torch::models::ModelKind;

    fn cfg(device_mb: u64, iters: usize) -> SwapRunConfig {
        SwapRunConfig {
            iterations: iters,
            costs: CostModel::v100_32gb().with_device_memory(device_mb << 20),
            perf: PerfModel::v100(),
        }
    }

    #[test]
    fn lms_runs_mobilenet_oversubscribed() {
        let w = ModelKind::MobileNet.build(32);
        let mut lms = Lms::policy();
        let r = run_swap(&w, &mut lms, &cfg(256, 3)).unwrap();
        assert_eq!(r.iters.len(), 3);
        assert!(r.counters.bytes_h2d > 0);
        // Warm iterations beat the cold one (schedule learned).
        assert!(r.iters[2].elapsed <= r.iters[0].elapsed);
    }

    #[test]
    fn vdnn_rejects_bert() {
        let w = ModelKind::BertBase.build(2);
        let mut v = Vdnn::policy();
        let err = run_swap(&w, &mut v, &cfg(1024, 1)).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
    }

    #[test]
    fn planner_beats_reactive_lms_under_pressure() {
        let w = ModelKind::MobileNet.build(48);
        let c = cfg(192, 3);
        let mut lms = Lms::policy();
        let lms_r = run_swap(&w, &mut lms, &c).unwrap();
        let mut autotm = AutoTm::policy();
        let at_r = run_swap(&w, &mut autotm, &c).unwrap();
        assert!(
            at_r.steady_iter_time() <= lms_r.steady_iter_time(),
            "autotm {} vs lms {}",
            at_r.steady_iter_time(),
            lms_r.steady_iter_time()
        );
    }

    #[test]
    fn sentinel_pays_profiling_up_front() {
        let w = ModelKind::MobileNet.build(16);
        let mut s = Sentinel::policy();
        let r = run_swap(&w, &mut s, &cfg(512, 3)).unwrap();
        assert!(r.iters[0].elapsed > r.iters[1].elapsed * 3 / 2);
    }

    #[test]
    fn lms_mod_is_slower_but_equivalent() {
        let w = ModelKind::MobileNet.build(24);
        let c = cfg(256, 3);
        let mut lms = Lms::policy();
        let base = run_swap(&w, &mut lms, &c).unwrap();
        let mut lms_mod = LmsMod::policy();
        let modded = run_swap(&w, &mut lms_mod, &c).unwrap();
        // Cache flush costs time (segment re-allocation each iteration).
        assert!(modded.total >= base.total);
    }

    #[test]
    fn tiny_device_is_out_of_memory() {
        let w = ModelKind::MobileNet.build(64);
        let mut lms = Lms::policy();
        let err = run_swap(&w, &mut lms, &cfg(8, 1)).unwrap_err();
        assert!(
            matches!(err, RunError::OutOfMemory(_) | RunError::Unsupported(_)),
            "{err:?}"
        );
    }
}
