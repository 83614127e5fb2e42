//! One endpoint's private serving stack and its request lifecycle.
//!
//! An [`EndpointRun`] owns the same private stack a scheduler tenant
//! owns — DeepUM driver (the shared UM driver is swapped in for the
//! endpoint's slot), interposed CUDA runtime at a disjoint VA base,
//! caching allocator, GPU engine, virtual clock, energy meter — plus
//! the serving-specific state: persistent weight tensors (advised
//! `ReadMostly`/`AccessedBy` at cold start), per-request KV-cache churn
//! (advised `PreferredLocation`), virtual-time deadlines, and
//! retry-with-backoff on injected transient request failures.

use deepum_baselines::executor::um::{engine_error, forward_events, wire_stack};
use deepum_baselines::report::{EndpointReport, RunError};
use deepum_core::driver::DeepumDriver;
use deepum_gpu::engine::GpuEngine;
use deepum_gpu::fault::AccessKind;
use deepum_gpu::kernel::{BlockAccess, KernelLaunch};
use deepum_mem::stripe::tenant_va_base;
use deepum_mem::{ByteRange, TenantId};
use deepum_runtime::interpose::CudaRuntime;
use deepum_sim::clock::SimClock;
use deepum_sim::costs::CostModel;
use deepum_sim::energy::EnergyMeter;
use deepum_sim::faultinject::{InjectionPlan, SharedInjector};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::alloc::{AllocError, CachingAllocator, PtBlockId, PtEvent};
use deepum_torch::perf::PerfModel;
use deepum_trace::{emit, shared, ServeLevel, SharedTracer, ShedReason, TraceEvent, Tracer};
use deepum_um::hints::Advice;

/// What serving one request produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The request ran to completion; `on_time` is whether it met its
    /// deadline.
    Completed {
        /// Deadline met.
        on_time: bool,
    },
    /// The request was refused (ladder shed or retry exhaustion).
    Shed(ShedReason),
}

/// One endpoint's private execution stack and serving counters.
pub struct EndpointRun {
    /// The spec this endpoint serves.
    pub spec: crate::spec::EndpointSpec,
    /// The endpoint's identity on the shared driver.
    pub tid: TenantId,
    /// The endpoint's DeepUM driver (shared UM swapped in per slot).
    pub driver: DeepumDriver,
    runtime: CudaRuntime,
    allocator: CachingAllocator,
    engine: GpuEngine,
    clock: SimClock,
    energy: EnergyMeter,
    plan: InjectionPlan,
    injector: Option<SharedInjector>,
    tracer: Option<SharedTracer>,
    events: Vec<PtEvent>,
    perf: PerfModel,
    weights: Vec<ByteRange>,
    weight_blocks: Vec<PtBlockId>,
    warm: bool,
    next_request: u64,
    latencies: Vec<u64>,
    /// Requests that arrived (including shed ones).
    pub requests: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Completed requests that met their deadline.
    pub on_time: u64,
    /// Completed requests that overran their deadline.
    pub missed: u64,
    /// Requests shed (ladder or retry exhaustion).
    pub shed: u64,
    /// Retry attempts spent on injected request failures.
    pub retries: u64,
    cycle_requests: u64,
    cycle_misses: u64,
    error: Option<RunError>,
}

impl EndpointRun {
    /// Builds the endpoint's private stack. No driver work happens
    /// here; cold start (weight allocation and hints) runs inside the
    /// endpoint's first slot via [`EndpointRun::cold_start`].
    pub fn new(
        tid: TenantId,
        spec: crate::spec::EndpointSpec,
        costs: CostModel,
        perf: PerfModel,
        plan: &InjectionPlan,
        traced: bool,
    ) -> Self {
        let mut driver = DeepumDriver::new(costs.clone(), spec.config.clone());
        let mut plan = plan.clone();
        plan.seed ^= u64::from(tid.raw()).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let tracer = traced.then(|| shared(Tracer::export()));
        let (runtime, engine, injector) = wire_stack(
            &mut driver,
            &costs,
            tenant_va_base(tid),
            &plan,
            tracer.as_ref(),
        );
        EndpointRun {
            spec,
            tid,
            driver,
            runtime,
            allocator: CachingAllocator::new(),
            engine,
            clock: SimClock::new(),
            energy: EnergyMeter::new(),
            plan,
            injector,
            tracer,
            events: Vec::new(),
            perf,
            weights: Vec::new(),
            weight_blocks: Vec::new(),
            warm: false,
            next_request: 0,
            latencies: Vec::new(),
            requests: 0,
            completed: 0,
            on_time: 0,
            missed: 0,
            shed: 0,
            retries: 0,
            cycle_requests: 0,
            cycle_misses: 0,
            error: None,
        }
    }

    /// The endpoint's virtual time.
    pub fn now(&self) -> Ns {
        self.clock.now()
    }

    /// Advances the endpoint's clock (reclaim-debt payment).
    pub fn advance_clock(&mut self, delta: Ns) {
        self.clock.advance(delta);
    }

    /// Whole-stack energy consumed so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy.joules()
    }

    /// The endpoint's tracer, if one was installed.
    pub fn tracer(&self) -> Option<SharedTracer> {
        self.tracer.clone()
    }

    /// Terminal error, if the endpoint died.
    pub fn error(&self) -> Option<&RunError> {
        self.error.as_ref()
    }

    /// True once cold start (weight allocation + hints) completed.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// DeepUM-side local counters (prefetch commands, table work).
    pub fn local_counters(&self) -> Counters {
        self.driver.local_counters()
    }

    /// Takes this cycle's (arrivals, deadline misses) pair and resets
    /// the cycle accumulators — the ladder's per-cycle observation.
    pub fn take_cycle_stats(&mut self) -> (u64, u64) {
        let out = (self.cycle_requests, self.cycle_misses);
        self.cycle_requests = 0;
        self.cycle_misses = 0;
        out
    }

    /// Cold start: allocates the persistent weight tensors and advises
    /// them `ReadMostly` (host copy stays valid alongside device
    /// residency, so re-faults after eviction skip the write-back) and
    /// `AccessedBy` (mapping survives eviction). Must run inside the
    /// endpoint's slot. The actual swap-in happens on demand as decode
    /// kernels fault the weights in.
    pub fn cold_start(&mut self) -> Result<(), RunError> {
        if self.warm {
            return Ok(());
        }
        let layers = u64::from(self.spec.layers.max(1));
        let per_layer = (self.spec.weight_bytes / layers).max(1);
        for _ in 0..layers {
            let (block, range) = self.alloc(per_layer)?;
            let now = self.clock.now();
            self.runtime
                .mem_advise(now, range, Advice::ReadMostly, &mut self.driver);
            self.runtime
                .mem_advise(now, range, Advice::AccessedBy, &mut self.driver);
            self.weights.push(range);
            self.weight_blocks.push(block);
        }
        self.warm = true;
        Ok(())
    }

    /// Serves one request of `tokens` tokens that arrived at `arrival`
    /// (the slot-start timestamp — requests queued behind earlier ones
    /// in the same slot accrue queueing delay against their deadline).
    /// `level` is the ladder's current service level: at
    /// [`ServeLevel::Shed`] the request is refused on arrival with a
    /// typed shed instead of queuing.
    pub fn serve_request(
        &mut self,
        arrival: Ns,
        tokens: u64,
        level: ServeLevel,
    ) -> Result<RequestOutcome, RunError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let id = self.next_request;
        self.next_request += 1;
        self.requests += 1;
        self.cycle_requests += 1;
        let deadline = arrival + self.spec.deadline;
        let endpoint = self.tid.raw();
        emit(
            &self.tracer,
            self.clock.now().as_nanos(),
            TraceEvent::RequestArrived {
                endpoint,
                request: id,
                deadline_ns: deadline.as_nanos(),
            },
        );

        if level == ServeLevel::Shed {
            self.shed += 1;
            emit(
                &self.tracer,
                self.clock.now().as_nanos(),
                TraceEvent::RequestShed {
                    endpoint,
                    request: id,
                    reason: ShedReason::Overload,
                },
            );
            return Ok(RequestOutcome::Shed(ShedReason::Overload));
        }

        // Injected transient request failures: retry with exponential
        // backoff (charged as virtual time), then shed with a typed
        // reason once the budget is exhausted — never a panic or an
        // unbounded loop.
        let mut attempt: u32 = 0;
        loop {
            let failed = self
                .injector
                .as_ref()
                .is_some_and(|inj| inj.borrow_mut().roll_request_failure());
            if !failed {
                break;
            }
            if attempt >= self.plan.max_retries {
                self.shed += 1;
                emit(
                    &self.tracer,
                    self.clock.now().as_nanos(),
                    TraceEvent::RequestShed {
                        endpoint,
                        request: id,
                        reason: ShedReason::RetriesExhausted,
                    },
                );
                return Ok(RequestOutcome::Shed(ShedReason::RetriesExhausted));
            }
            self.retries += 1;
            let base = self.plan.backoff_base.as_nanos().max(1);
            let backoff = base
                .saturating_mul(1u64 << attempt.min(32))
                .min(self.plan.max_backoff.as_nanos());
            self.clock.advance(Ns::from_nanos(backoff));
            attempt += 1;
        }

        // KV cache for this request: grows with the request length,
        // freed at request end (the serving churn), pinned to the
        // device while it lives.
        let kv_bytes = self.spec.kv_bytes_per_token.saturating_mul(tokens).max(1);
        let (kv_block, kv_range) = self.alloc(kv_bytes)?;
        self.runtime.mem_advise(
            self.clock.now(),
            kv_range,
            Advice::PreferredLocation,
            &mut self.driver,
        );

        for layer in 0..self.weights.len() {
            let launch = self.decode_launch(layer, kv_range, tokens);
            let (_exec, intercept) =
                self.runtime
                    .launch(self.clock.now(), &launch, &mut self.driver);
            self.clock.advance(intercept);
            if let Err(e) =
                self.engine
                    .execute(&launch, &mut self.clock, &mut self.driver, &mut self.energy)
            {
                let e = engine_error(e);
                self.error = Some(e.clone());
                return Err(e);
            }
        }

        self.allocator.free(kv_block, &mut self.events);
        let now = self.clock.now();
        forward_events(&mut self.events, &mut self.runtime, now, &mut self.driver);

        let finish = self.clock.now();
        let latency = finish.saturating_sub(arrival);
        let on_time = finish <= deadline;
        self.completed += 1;
        self.latencies.push(latency.as_nanos());
        emit(
            &self.tracer,
            finish.as_nanos(),
            TraceEvent::RequestCompleted {
                endpoint,
                request: id,
                latency_ns: latency.as_nanos(),
                on_time,
            },
        );
        if on_time {
            self.on_time += 1;
        } else {
            self.missed += 1;
            self.cycle_misses += 1;
            emit(
                &self.tracer,
                finish.as_nanos(),
                TraceEvent::DeadlineMissed {
                    endpoint,
                    request: id,
                    over_ns: finish.saturating_sub(deadline).as_nanos(),
                },
            );
        }
        Ok(RequestOutcome::Completed { on_time })
    }

    /// Builds this endpoint's final report section.
    pub fn report(
        &mut self,
        escalations: u64,
        deescalations: u64,
        worst_level: ServeLevel,
    ) -> EndpointReport {
        self.latencies.sort_unstable();
        EndpointReport {
            name: self.spec.name.clone(),
            admitted: true,
            error: self.error.as_ref().map(ToString::to_string),
            requests: self.requests,
            completed: self.completed,
            on_time: self.on_time,
            missed: self.missed,
            shed: self.shed,
            retries: self.retries,
            p50_latency_ns: percentile(&self.latencies, 50),
            p99_latency_ns: percentile(&self.latencies, 99),
            escalations,
            deescalations,
            worst_level,
        }
    }

    fn decode_launch(&self, layer: usize, kv: ByteRange, tokens: u64) -> KernelLaunch {
        let mut accesses = Vec::new();
        let mut bytes = 0u64;
        if let Some(w) = self.weights.get(layer) {
            bytes += w.len();
            for (block, mask) in w.block_footprints() {
                accesses.push(BlockAccess::new(block, mask, AccessKind::Read));
            }
        }
        bytes += kv.len();
        for (block, mask) in kv.block_footprints() {
            accesses.push(BlockAccess::new(block, mask, AccessKind::Read));
            accesses.push(BlockAccess::new(block, mask, AccessKind::Write));
        }
        let flops = 2.0 * bytes as f64 * tokens.max(1) as f64;
        KernelLaunch::new(
            "decode",
            &[layer as u64],
            accesses,
            self.perf.kernel_time(flops, bytes),
        )
    }

    fn alloc(&mut self, bytes: u64) -> Result<(PtBlockId, ByteRange), RunError> {
        let out = self
            .allocator
            .alloc(bytes, &mut self.runtime, &mut self.events)
            .map_err(|e| match e {
                AllocError::OutOfMemory { requested } => RunError::OutOfMemory(format!(
                    "endpoint allocation of {requested} bytes exceeds the UM backing store"
                )),
                AllocError::ZeroSize => RunError::Unsupported("zero-size allocation".into()),
            });
        match out {
            Ok(pair) => {
                let now = self.clock.now();
                forward_events(&mut self.events, &mut self.runtime, now, &mut self.driver);
                Ok(pair)
            }
            Err(e) => {
                self.error = Some(e.clone());
                Err(e)
            }
        }
    }
}

/// Deterministic integer percentile of a sorted sample: the value at
/// rank `(len - 1) * p / 100`. Zero for an empty sample.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 - 1) * p / 100) as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EndpointSpec;
    use deepum_um::UmDriver;

    fn costs() -> CostModel {
        CostModel::v100_32gb()
            .with_device_memory(64 << 20)
            .with_host_memory(4 << 30)
    }

    fn serve_one(ep: &mut EndpointRun, shared: &mut UmDriver, tokens: u64) -> RequestOutcome {
        let (tid, now) = (ep.tid, ep.now());
        let debt = deepum_sched::open_slot(shared, &mut ep.driver, tid, now);
        ep.advance_clock(debt);
        ep.cold_start().expect("cold start");
        let arrival = ep.now();
        let out = ep
            .serve_request(arrival, tokens, ServeLevel::Full)
            .expect("serve");
        let now = ep.now();
        deepum_sched::close_slot(shared, &mut ep.driver, now);
        out
    }

    #[test]
    fn requests_complete_and_count() {
        let mut shared = UmDriver::new(costs());
        let tid = TenantId(0);
        let mut ep = EndpointRun::new(
            tid,
            EndpointSpec::new("e0"),
            costs(),
            PerfModel::v100(),
            &InjectionPlan::default(),
            false,
        );
        shared
            .register_tenant(tid, 0, 1, None, None, None)
            .expect("register");
        let out = serve_one(&mut ep, &mut shared, 8);
        assert!(matches!(out, RequestOutcome::Completed { .. }));
        assert_eq!(ep.completed, 1);
        assert_eq!(ep.requests, 1);
        assert!(ep.is_warm());
        shared.validate().expect("invariants");
    }

    #[test]
    fn shed_level_refuses_on_arrival() {
        let mut shared = UmDriver::new(costs());
        let tid = TenantId(0);
        let mut ep = EndpointRun::new(
            tid,
            EndpointSpec::new("e0"),
            costs(),
            PerfModel::v100(),
            &InjectionPlan::default(),
            false,
        );
        shared
            .register_tenant(tid, 0, 1, None, None, None)
            .expect("register");
        let now = ep.now();
        let debt = deepum_sched::open_slot(&mut shared, &mut ep.driver, tid, now);
        ep.advance_clock(debt);
        ep.cold_start().expect("cold start");
        let arrival = ep.now();
        let out = ep
            .serve_request(arrival, 8, ServeLevel::Shed)
            .expect("serve");
        assert_eq!(out, RequestOutcome::Shed(ShedReason::Overload));
        assert_eq!(ep.shed, 1);
        assert_eq!(ep.completed, 0);
        let now = ep.now();
        deepum_sched::close_slot(&mut shared, &mut ep.driver, now);
    }

    #[test]
    fn certain_soft_faults_shed_after_bounded_retries() {
        let mut shared = UmDriver::new(costs());
        let tid = TenantId(0);
        let plan = InjectionPlan {
            request_fail_rate: 1.0,
            max_retries: 3,
            ..InjectionPlan::default()
        };
        let mut ep = EndpointRun::new(
            tid,
            EndpointSpec::new("e0"),
            costs(),
            PerfModel::v100(),
            &plan,
            false,
        );
        shared
            .register_tenant(tid, 0, 1, None, None, ep.driver.injector().cloned())
            .expect("register");
        let before = ep.now();
        let out = serve_one(&mut ep, &mut shared, 8);
        assert_eq!(out, RequestOutcome::Shed(ShedReason::RetriesExhausted));
        assert_eq!(ep.retries, 3);
        assert!(ep.now() > before, "backoff must charge virtual time");
    }

    #[test]
    fn percentile_is_deterministic() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
    }
}
