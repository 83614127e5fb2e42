//! The serving simulator: endpoints (and an optional training
//! bystander) time-sharing one device through the scheduler's slot
//! protocol, defended by per-endpoint degradation ladders.
//!
//! [`ServeSim::run`] first admits every endpoint, then the bystander,
//! through [`deepum_sched::admit`]: a refused tenant gets the same typed
//! `AdmissionDenied` error and `TenantDenied` trace event as a refused
//! scheduler tenant, and never runs. It then drives a deterministic
//! cycle loop. Each cycle:
//!
//! 1. **Endpoint slots** — every endpoint, in tenant-id order, gets one
//!    slot: the shared UM driver is swapped in
//!    ([`deepum_sched::open_slot`]), cold start runs once (weight
//!    allocation plus `ReadMostly`/`AccessedBy` hints), and the cycle's
//!    arrivals (from the [`crate::load::LoadCurve`]) are served
//!    back-to-back — every request in the batch is stamped with the
//!    slot-start arrival time, so requests queued behind earlier ones
//!    accrue queueing delay against their deadline.
//! 2. **Bystander slot** — the optional training tenant runs the
//!    scheduler's kernel-quota slot ([`deepum_sched::quota_slot`]).
//! 3. **Ladder observation** — each endpoint's ladder ingests the
//!    cycle's (arrivals, misses) pair plus its pressure-governor level;
//!    transitions are applied to the endpoint's driver (shrink /
//!    restore the prefetch window, gate prefetching, shed arrivals)
//!    and emitted as typed
//!    [`deepum_trace::TraceEvent::DegradationTransition`] events.
//! 4. **Invariants** — the shared driver is validated; the first
//!    violation is reported, not panicked on.
//!
//! Everything is virtual-time and seeded: the same spec always
//! produces the same outcome, byte for byte.

use deepum_baselines::report::{EndpointReport, RunError, RunReport, ServingReport};
use deepum_mem::TenantId;
use deepum_sched::{admit, close_slot, open_slot, quota_slot, TenantRun};
use deepum_sim::costs::CostModel;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_torch::perf::PerfModel;
use deepum_trace::{emit, PressureLevel, ServeLevel, SharedTracer, TraceEvent};
use deepum_um::driver::UmDriver;

use crate::endpoint::EndpointRun;
use crate::ladder::{DegradationLadder, LadderConfig};
use crate::load::cycle_rng;
use crate::spec::ServeSpec;

/// Safety valve on drain slots for the bystander after the serving
/// cycles end.
const MAX_DRAIN_SLOTS: u64 = 1_000_000;

/// A serving run: N endpoints (plus an optional bystander) on one
/// simulated device.
#[derive(Debug, Clone)]
pub struct ServeSim {
    costs: CostModel,
    perf: PerfModel,
    spec: ServeSpec,
}

/// What [`ServeSim::run`] produces.
pub struct ServeOutcome {
    /// Aggregate report with the serving section populated.
    pub report: RunReport,
    /// Tracers of endpoints (and the bystander) that asked for one,
    /// keyed by raw tenant id.
    pub tracers: Vec<(u32, SharedTracer)>,
    /// Typed per-tenant errors (admission denials, endpoint failures).
    /// Healthy tenants keep running.
    pub errors: Vec<(u32, RunError)>,
    /// First shared-driver invariant violation observed, or `Ok(())`.
    pub validation: Result<(), String>,
}

impl ServeSim {
    /// A serving run on the given platform.
    pub fn new(costs: CostModel, perf: PerfModel, spec: ServeSpec) -> Self {
        ServeSim { costs, perf, spec }
    }

    /// Runs the serving loop for the configured cycle count, then
    /// drains the bystander to completion. Deterministic: the same
    /// spec always produces the same bytes.
    pub fn run(self) -> ServeOutcome {
        let mut shared = UmDriver::new(self.costs.clone());
        let mut errors: Vec<(u32, RunError)> = Vec::new();
        let mut tracers: Vec<(u32, SharedTracer)> = Vec::new();
        let mut validation: Result<(), String> = Ok(());

        // ---- admission: endpoints first, bystander last --------------
        let mut endpoints: Vec<Option<EndpointRun>> = Vec::new();
        let mut ladders: Vec<DegradationLadder> = Vec::new();
        for (i, espec) in self.spec.endpoints.iter().enumerate() {
            let raw = u32::try_from(i).unwrap_or(u32::MAX);
            let tid = TenantId(raw);
            let mut ep = EndpointRun::new(
                tid,
                espec.clone(),
                self.costs.clone(),
                self.perf.clone(),
                &self.spec.plan,
                self.spec.traced,
            );
            if let Some(tr) = ep.tracer() {
                tracers.push((raw, tr));
            }
            let now = ep.now();
            let admitted = admit(
                &mut shared,
                &mut ep.driver,
                tid,
                espec.floor_pages,
                espec.priority,
                now,
            );
            endpoints.push(match admitted {
                Ok(()) => Some(ep),
                Err(e) => {
                    errors.push((raw, e));
                    None
                }
            });
            ladders.push(DegradationLadder::new(match &self.spec.ladder {
                Some(cfg) => cfg.clone(),
                None => LadderConfig::default(),
            }));
        }

        let mut bystander: Option<TenantRun> = None;
        if let Some(bspec) = &self.spec.bystander {
            let raw = u32::try_from(self.spec.endpoints.len()).unwrap_or(u32::MAX);
            let tid = TenantId(raw);
            let mut run = TenantRun::new(tid, bspec.clone(), self.costs.clone(), self.perf.clone());
            if let Some(tr) = run.tracer() {
                tracers.push((raw, tr));
            }
            let now = run.now();
            let admitted = admit(
                &mut shared,
                &mut run.driver,
                tid,
                bspec.floor_pages,
                bspec.priority,
                now,
            );
            match admitted {
                Ok(()) => bystander = Some(run),
                Err(e) => errors.push((raw, e)),
            }
        }

        // ---- the serving cycle loop ----------------------------------
        let ladder_on = self.spec.ladder.is_some();
        for cycle in 0..self.spec.cycles {
            for (i, slot) in endpoints.iter_mut().enumerate() {
                let Some(ep) = slot.as_mut() else { continue };
                if ep.error().is_some() {
                    continue;
                }
                let raw = ep.tid.raw();
                let arrivals = self.spec.load.arrivals(cycle);
                let mut rng = cycle_rng(self.spec.seed, cycle, raw);
                let tid = ep.tid;
                let now = ep.now();
                let debt = open_slot(&mut shared, &mut ep.driver, tid, now);
                ep.advance_clock(debt);
                let mut failed = None;
                if !ep.is_warm() {
                    if let Err(e) = ep.cold_start() {
                        failed = Some(e);
                    }
                }
                if failed.is_none() {
                    let level = if ladder_on {
                        ladders.get(i).map_or(ServeLevel::Full, |l| l.level())
                    } else {
                        ServeLevel::Full
                    };
                    let slot_start = ep.now();
                    for _ in 0..arrivals {
                        let span = ep.spec.max_tokens.saturating_sub(ep.spec.min_tokens) + 1;
                        let tokens = ep.spec.min_tokens + rng.below(span);
                        if let Err(e) = ep.serve_request(slot_start, tokens, level) {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                let now = ep.now();
                close_slot(&mut shared, &mut ep.driver, now);
                if let Some(e) = failed {
                    errors.push((raw, e));
                }
            }

            if let Some(run) = bystander.as_mut() {
                if !run.is_done() && run.error().is_none() {
                    quota_slot(&mut shared, run);
                    if let Some(e) = run.error() {
                        errors.push((run.tid.raw(), e.clone()));
                    }
                }
            }

            // ---- ladder observation + actions ------------------------
            if ladder_on {
                for (i, slot) in endpoints.iter_mut().enumerate() {
                    let Some(ep) = slot.as_mut() else { continue };
                    let (requests, misses) = ep.take_cycle_stats();
                    let pressured = shared
                        .tenant_ledger(ep.tid)
                        .and_then(|l| l.governor.as_ref())
                        .map(|g| g.level())
                        .unwrap_or(PressureLevel::Normal)
                        >= PressureLevel::Elevated;
                    let Some(ladder) = ladders.get_mut(i) else {
                        continue;
                    };
                    if let Some((from, to)) = ladder.observe_cycle(misses, requests, pressured) {
                        Self::apply_transition(ep, from, to);
                        emit(
                            &ep.tracer(),
                            ep.now().as_nanos(),
                            TraceEvent::DegradationTransition {
                                endpoint: ep.tid.raw(),
                                from,
                                to,
                                miss_pct: ladder.miss_ewma_pct(),
                            },
                        );
                    }
                }
            } else {
                for slot in endpoints.iter_mut() {
                    if let Some(ep) = slot.as_mut() {
                        let _unused = ep.take_cycle_stats();
                    }
                }
            }

            if validation.is_ok() {
                validation = shared.validate();
            }
        }

        // ---- drain the bystander to completion -----------------------
        if let Some(run) = bystander.as_mut() {
            let mut slots = 0u64;
            while !run.is_done() && run.error().is_none() && slots < MAX_DRAIN_SLOTS {
                quota_slot(&mut shared, run);
                slots += 1;
            }
            if let Some(e) = run.error() {
                errors.push((run.tid.raw(), e.clone()));
            }
        }
        if validation.is_ok() {
            validation = shared.validate();
        }

        // ---- reports -------------------------------------------------
        let mut endpoint_reports = Vec::new();
        let mut total = Ns::ZERO;
        let mut energy = 0.0;
        let mut counters = Counters::new();
        let mut total_requests = 0;
        let mut total_missed = 0;
        let mut total_shed = 0;
        for (i, slot) in endpoints.iter_mut().enumerate() {
            let Some(ep) = slot.as_mut() else {
                let raw = u32::try_from(i).unwrap_or(u32::MAX);
                let name = self.spec.endpoints.get(i).map_or("", |e| e.name.as_str());
                let refusal = errors.iter().find(|(tid, _)| *tid == raw).map(|(_, e)| e);
                endpoint_reports.push(refused_report(name, refusal));
                continue;
            };
            let (esc, deesc, worst) = ladders.get(i).map_or((0, 0, ServeLevel::Full), |l| {
                (l.escalations, l.deescalations, l.worst)
            });
            let r = ep.report(esc, deesc, worst);
            total_requests += r.requests;
            total_missed += r.missed;
            total_shed += r.shed;
            counters.merge(&ep.local_counters());
            total = total.max(ep.now());
            energy += ep.energy_joules();
            let now = ep.now();
            shared.deregister_tenant(now, ep.tid);
            endpoint_reports.push(r);
        }
        if let Some(run) = bystander.as_mut() {
            counters.merge(&run.driver.local_counters());
            total = total.max(run.now());
            energy += run.energy_joules();
            let now = run.now();
            shared.deregister_tenant(now, run.tid);
        }
        let mut all = shared.counters();
        all.merge(&counters);

        let report = RunReport {
            workload: "serving".into(),
            system: "deepum-serve".into(),
            iters: Vec::new(),
            total,
            energy_joules: energy,
            counters: all,
            table_bytes: None,
            health: None,
            recovery: None,
            trace: None,
            pressure: None,
            tenants: None,
            serving: Some(ServingReport {
                endpoints: endpoint_reports,
                total_requests,
                total_missed,
                total_shed,
            }),
            wear: None,
        };

        ServeOutcome {
            report,
            tracers,
            errors,
            validation,
        }
    }

    /// Applies one ladder transition to the endpoint's driver. Each
    /// escalation step has an exact de-escalation inverse, so a ladder
    /// that returns to `Full` leaves the driver at full service.
    fn apply_transition(ep: &mut EndpointRun, from: ServeLevel, to: ServeLevel) {
        if to > from {
            match to {
                ServeLevel::ReducedWindow => ep.driver.shed_load(),
                ServeLevel::DemandOnly => ep.driver.set_demand_only(true),
                ServeLevel::Full | ServeLevel::Shed => {}
            }
        } else {
            match from {
                ServeLevel::DemandOnly => ep.driver.set_demand_only(false),
                ServeLevel::ReducedWindow => ep.driver.relax_load(),
                ServeLevel::Full | ServeLevel::Shed => {}
            }
        }
    }
}

/// The report of an endpoint refused at admission: every count is zero
/// and `error` holds the typed refusal.
fn refused_report(name: &str, refusal: Option<&RunError>) -> EndpointReport {
    EndpointReport {
        name: name.to_string(),
        admitted: false,
        error: refusal.map(ToString::to_string),
        requests: 0,
        completed: 0,
        on_time: 0,
        missed: 0,
        shed: 0,
        retries: 0,
        p50_latency_ns: 0,
        p99_latency_ns: 0,
        escalations: 0,
        deescalations: 0,
        worst_level: ServeLevel::Full,
    }
}
