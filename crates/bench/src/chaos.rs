//! The chaos soak: the robustness contracts the stack keeps under
//! injected faults, as one table of named rows that `deepum_chaos` runs.
//!
//! Each [`SOAK`] row names a contract check, which [`soak_row`] calls
//! once per seed for one [`Verdict`] per run. Every run trains for
//! [`ITERS`] iterations under the seed's [`chaos_plan`], inside a panic
//! guard: a panic is the one outcome no contract allows. Except in the
//! crash row, which compares against a clean run, each run executes
//! twice and both outcomes must match byte-for-byte (a completed report
//! as its JSON, a typed [`RunError`] as its message).

use deepum_baselines::report::{RunError, RunReport, ServingReport, TenantReport};
use deepum_baselines::suite::{run_system, RunParams, System};
use deepum_baselines::{run_um, NaiveUm, UmRunConfig};
use deepum_core::config::DeepumConfig;
use deepum_core::driver::DeepumDriver;
use deepum_gpu::engine::UmBackend;
use deepum_sched::scheduler::MultiTenant;
use deepum_sched::spec::{seeded_arrivals, JobKind, TenantSpec};
use deepum_serve::{EndpointSpec, LadderConfig, LoadCurve, ServeSim, ServeSpec};
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::InjectionPlan;
use deepum_sim::rng::DetRng;
use deepum_sim::time::Ns;
use deepum_torch::models::ModelKind;
use deepum_torch::perf::PerfModel;
use deepum_torch::step::Workload;

use crate::suite::map_parallel;

/// Training iterations of every soak run.
pub const ITERS: usize = 2;

/// One run's outcome: the `ok` line, or the failure text. Both start
/// with the run's label.
pub type Verdict = Result<String, String>;

/// One named row of the soak table.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Name `deepum_chaos` selects the row by.
    pub name: &'static str,
    /// Seeds `0..seeds` the row runs.
    pub seeds: u64,
    /// The contract check for one seed: one verdict per run.
    pub check: fn(u64) -> Vec<Verdict>,
}

const fn row(name: &'static str, seeds: u64, check: fn(u64) -> Vec<Verdict>) -> Row {
    Row { name, seeds, check }
}

/// The soak: 12 rows, 160 runs.
pub const SOAK: [Row; 12] = [
    row("crash", 16, crash),
    row("oversub-150", 8, oversub::<150>),
    row("oversub-250", 8, oversub::<250>),
    row("oversub-400", 8, oversub::<400>),
    row("tenants-2", 8, tenants::<2>),
    row("tenants-4", 8, tenants::<4>),
    row("tenants-8", 8, tenants::<8>),
    row("serve-2", 8, serve::<2>),
    row("serve-6", 8, serve::<6>),
    row("wear-500", 8, wear::<500>),
    row("wear-50000", 8, wear::<50_000>),
    row("parallel", 16, parallel),
];

/// The rows named in `names`, or every row when `names` is empty. An
/// unknown name is an error listing the known ones.
pub fn select(names: &[String]) -> Result<Vec<&'static Row>, String> {
    let pick = |name: &String| {
        let known = SOAK.map(|r| r.name).join(", ");
        let unknown = || format!("unknown row `{name}` (rows: {known})");
        SOAK.iter().find(|r| r.name == name).ok_or_else(unknown)
    };
    match names {
        [] => Ok(SOAK.iter().collect()),
        _ => names.iter().map(pick).collect(),
    }
}

/// Runs seeds `0..seeds` of `row`, printing one line per run and a
/// summary; returns `(runs, failures)`.
pub fn soak_row(row: &Row, seeds: u64) -> (u64, u64) {
    let started = std::time::Instant::now();
    let (mut runs, mut failures) = (0, 0);
    for seed in 0..seeds {
        for verdict in (row.check)(seed) {
            runs += 1;
            match verdict {
                Ok(line) => println!("  ok   {} seed {seed} {line}", row.name),
                Err(text) => {
                    failures += 1;
                    println!("  FAIL {} seed {seed} {text}", row.name);
                }
            }
        }
    }
    let (name, wall) = (row.name, started.elapsed().as_secs_f64());
    println!("{name}: {runs} runs, {failures} failures, {wall:.1}s wall");
    (runs, failures)
}

/// A random hard-fault schedule derived deterministically from `seed`.
pub fn chaos_plan(seed: u64) -> InjectionPlan {
    let mut rng = DetRng::seed(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let resets = (0..rng.below(3)).map(|_| rng.below(170)).collect();
    let crashes = (0..rng.below(3)).map(|_| rng.below(40)).collect();
    InjectionPlan {
        seed,
        device_reset_at: resets,
        driver_crash_at: crashes,
        // Odd seeds add uncorrectable ECC: those runs legitimately
        // diverge from the clean run, so only completion is checked.
        ecc_rate: if seed % 2 == 1 { 0.01 } else { 0.0 },
        ..InjectionPlan::default()
    }
}

/// An outcome captured under the panic guard; `Err` is the panic text.
type Caught<T> = Result<T, String>;

/// Runs `f`, turning a panic into its payload text.
fn catch<T>(f: impl FnOnce() -> T) -> Caught<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string())
    })
}

/// Compares two captured outcomes of the same run by their flattened
/// bytes. Equal bytes give back the first outcome; a panic on either
/// side, or differing bytes, is the failure text.
fn compare<T>(a: Caught<T>, b: Caught<T>, bytes: impl Fn(&T) -> String) -> Caught<T> {
    let panicked = |msg: String| format!("PANIC: {msg}");
    let (a, b) = (a.map_err(panicked)?, b.map_err(panicked)?);
    if bytes(&a) == bytes(&b) {
        Ok(a)
    } else {
        Err("two runs of the same schedule diverged".to_string())
    }
}

/// Runs `f` twice under the panic guard and [`compare`]s the outcomes.
fn twice<T>(f: impl Fn() -> T, bytes: impl Fn(&T) -> String) -> Caught<T> {
    compare(catch(&f), catch(&f), bytes)
}

fn json(report: &RunReport) -> String {
    serde_json::to_string(report).unwrap_or_else(|e| format!("<serialize error: {e}>"))
}

/// A run's outcome as bytes: the report JSON, or the typed error.
fn run_bytes(outcome: &Result<RunReport, RunError>) -> String {
    match outcome {
        Ok(report) => json(report),
        Err(e) => format!("ERR: {e}"),
    }
}

/// A shared-driver run's outcome as bytes: the aggregate report, the
/// typed per-tenant errors and the invariant-sweep result.
fn shared_bytes(report: &RunReport, errors: &[(u32, RunError)], valid: &Caught<()>) -> String {
    let errors: Vec<String> = errors.iter().map(|(t, e)| format!("{t}: {e}")).collect();
    format!("{}{errors:?}{valid:?}", json(report))
}

fn costs(device_bytes: u64) -> CostModel {
    CostModel::v100_32gb()
        .with_device_memory(device_bytes)
        .with_host_memory(8 << 30)
}

fn params(plan: InjectionPlan, device_bytes: u64) -> RunParams {
    RunParams {
        costs: costs(device_bytes),
        perf: PerfModel::v100(),
        iters: ITERS,
        seed: 0x5eed,
        plan,
        checkpoint_every: None,
        tracer: None,
    }
}

/// The memory-pressure governor the oversub, tenant and wear rows run.
fn governed() -> DeepumConfig {
    DeepumConfig::default().with_pressure_governor(8, 4, 15, 35)
}

fn all_iters(label: &str, report: &RunReport) -> Result<(), String> {
    match report.iters.len() {
        ITERS => Ok(()),
        n => Err(format!("{label}: completed {n}/{ITERS} iterations")),
    }
}

/// Crash recovery, naive UM and DeepUM on an 80 MiB device: a
/// crash-only schedule converges byte-for-byte to the uninterrupted run
/// modulo the recovery section; an ECC schedule (odd seeds) may diverge
/// but must finish every iteration; the only error allowed is a typed
/// recovery failure.
fn crash(seed: u64) -> Vec<Verdict> {
    let workload = ModelKind::MobileNet.build(48);
    let plan = chaos_plan(seed);
    let run = |system| crash_run(&system, &workload, &plan);
    vec![run(System::Um), run(System::deepum())]
}

fn crash_run(system: &System, workload: &Workload, plan: &InjectionPlan) -> Verdict {
    let label = system.label();
    let run = |plan: &InjectionPlan| {
        catch(|| run_system(system, workload, &params(plan.clone(), 80 << 20)))
    };
    let clean = match run(&InjectionPlan::default()) {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => return Err(format!("{label}: clean run errored: {e}")),
        Err(msg) => return Err(format!("{label}: clean run panicked: {msg}")),
    };
    match run(plan) {
        Ok(Ok(report)) => {
            let mut stripped = report.clone();
            stripped.recovery = None;
            if plan.ecc_rate == 0.0 && json(&stripped) != json(&clean) {
                return Err(format!("{label}: crash-only run diverged from clean"));
            }
            all_iters(label, &report)?;
            let rec = report.recovery.unwrap_or_default();
            Ok(format!(
                "{label}: converged (restores={}, replay={}, ecc={}, downtime={}ns)",
                rec.restores, rec.replay_kernels, rec.ecc_poisonings, rec.downtime_ns
            ))
        }
        Ok(Err(RunError::Recovery(msg))) => Ok(format!("{label}: typed recovery failure: {msg}")),
        Ok(Err(e)) => Err(format!("{label}: unexpected error class: {e}")),
        Err(msg) => Err(format!("{label}: PANIC: {msg}")),
    }
}

/// Governed DeepUM with the working set at `PCT`% of device memory
/// (250 = 2.5× oversubscribed) and soft faults crossed with the crash
/// schedule, so eviction, retry and governor paths run hot at once:
/// every run finishes every iteration with a pressure section, or
/// fails typed.
fn oversub<const PCT: u64>(seed: u64) -> Vec<Verdict> {
    let workload = ModelKind::MobileNet.build(48);
    let device = (workload.peak_bytes() * 100 / PCT).max(16 << 20);
    let system = System::DeepUm(governed());
    let plan = InjectionPlan {
        dma_h2d_fail_rate: 0.05,
        host_oom_rate: 0.02,
        corr_drop_rate: 0.10,
        ..chaos_plan(seed)
    };
    let p = params(plan, device);
    let verdict = match twice(|| run_system(&system, &workload, &p), run_bytes) {
        Ok(Ok(report)) => all_iters("deepum", &report).and_then(|()| {
            let p = report.pressure.ok_or("deepum: no pressure section")?;
            let (r, c) = (p.refaults, p.level_changes);
            Ok(format!("deepum: live (refaults={r}, level_changes={c})"))
        }),
        Ok(Err(e)) => Ok(format!("deepum: typed failure (deterministic): {e}")),
        Err(text) => Err(format!("deepum: {text}")),
    };
    vec![verdict]
}

/// `N` tenants (alternating training and inference, seeded arrivals and
/// priorities) on one device that fits every floor but not the
/// aggregate working set; the last tenant carries the chaos plan with
/// soft faults and a hair-trigger governor. The shared driver's
/// per-cycle invariant sweep stays clean, and every admitted tenant
/// completes or fails typed.
fn tenants<const N: usize>(seed: u64) -> Vec<Verdict> {
    let page = deepum_mem::PAGE_SIZE as u64;
    let arrivals = seeded_arrivals(seed ^ 0x7e17_a175, N, 4);
    let mut rng = DetRng::seed(seed ^ 0x5c4e_d01e);
    let chaos = InjectionPlan {
        dma_h2d_fail_rate: 0.05,
        dma_d2h_fail_rate: 0.02,
        storm_rate: 0.05,
        ..chaos_plan(seed)
    };
    let mut specs = Vec::new();
    let (mut floor_total, mut max_peak) = (0u64, 0u64);
    for (idx, &arrival) in arrivals.iter().enumerate() {
        let job = if idx % 2 == 0 {
            JobKind::Training {
                model: ModelKind::MobileNet,
                batch: 4,
                iterations: ITERS,
            }
        } else {
            JobKind::Inference {
                model: ModelKind::MobileNet,
                batch: 2,
                requests: ITERS * 2,
            }
        };
        let peak_pages = job.workload().peak_bytes().div_ceil(page);
        let floor = peak_pages / 4;
        floor_total += floor;
        max_peak = max_peak.max(peak_pages);
        let mut spec = TenantSpec::new(format!("soak-t{idx}"), job)
            .priority(1 + rng.below(4) as u32)
            .floor_pages(floor)
            .arrival(arrival)
            .seed(seed.wrapping_mul(0x9e37).wrapping_add(idx as u64));
        if idx == N - 1 {
            spec = spec.plan(chaos.clone()).config(governed());
        }
        specs.push(spec);
    }
    let costs = costs((floor_total + max_peak / 2).max(4096) * page);
    let run = || {
        let mut mt = MultiTenant::new(costs.clone(), PerfModel::v100());
        for spec in specs.iter().cloned() {
            mt = mt.tenant(spec);
        }
        mt.run()
    };
    let o = twice(run, |o| shared_bytes(&o.report, &o.errors, &o.validation));
    let verdict = o.map_err(|e| format!("sched: {e}")).and_then(|o| {
        o.validation
            .map_err(|m| format!("sched: shared-driver invariant violated: {m}"))?;
        let tenants = o.report.tenants.unwrap_or_default();
        let stuck = |t: &&TenantReport| t.admitted && !t.completed && t.error.is_none();
        if let Some(t) = tenants.iter().find(stuck) {
            let name = &t.name;
            return Err(format!("sched: {name} neither completed nor failed typed"));
        }
        let done = tenants.iter().filter(|t| t.completed).count();
        let charged: u64 = tenants.iter().map(|t| t.evictions_charged).sum();
        let failed = o.errors.len();
        Ok(format!(
            "sched: {done}/{N} completed, {failed} typed failures, {charged} evictions charged"
        ))
    });
    vec![verdict]
}

/// Two endpoints under a diurnal curve with a 2× burst at `RPS` base
/// requests per cycle, a seeded request soft-fault storm and a training
/// bystander, once ladder-defended and once as the no-ladder control:
/// invariants stay clean, no endpoint errors, every arrival completes
/// or is shed typed, and the ladder never misses more deadlines than
/// the control.
fn serve<const RPS: u64>(seed: u64) -> Vec<Verdict> {
    let page = deepum_mem::PAGE_SIZE as u64;
    let fail_pct = 5 + DetRng::seed(seed ^ 0x5e12_e50a).below(11); // 5%..15%
    let bystander_floor = ModelKind::MobileNet.build(2).peak_bytes().div_ceil(page) + 1024;
    let costs = costs((bystander_floor + (16 << 20) / page) * page);
    let endpoint = |name: &str| {
        EndpointSpec::new(name)
            .weights(16 << 20)
            .layers(4)
            .kv_per_token(128 << 10)
            .tokens(4, 12)
            .deadline(Ns::from_millis(10))
    };
    let bystander = JobKind::Training {
        model: ModelKind::MobileNet,
        batch: 2,
        iterations: 1,
    };
    let spec = |ladder| {
        ServeSpec::new()
            .endpoint(endpoint("chat"))
            .endpoint(endpoint("code"))
            .cycles(24)
            .load(LoadCurve::new(RPS).period(8).burst(8, 16, 2))
            .seed(seed ^ 0x10ad)
            .plan(InjectionPlan {
                seed: seed ^ 0xF00D,
                request_fail_rate: fail_pct as f64 / 100.0,
                max_retries: 3,
                ..InjectionPlan::default()
            })
            .ladder(ladder)
            .bystander(TenantSpec::new("bystander", bystander.clone()).floor_pages(bystander_floor))
    };
    let run = |label: &str, ladder: Option<LadderConfig>| -> Result<ServingReport, String> {
        let once = || ServeSim::new(costs.clone(), PerfModel::v100(), spec(ladder.clone())).run();
        let o = twice(once, |o| shared_bytes(&o.report, &o.errors, &o.validation))
            .map_err(|e| format!("{label}: {e}"))?;
        o.validation
            .map_err(|m| format!("{label}: shared-driver invariant violated: {m}"))?;
        if !o.errors.is_empty() {
            return Err(format!("{label}: endpoint errors: {:?}", o.errors));
        }
        let terminated = |s: &ServingReport| {
            s.endpoints.iter().map(|e| e.completed).sum::<u64>() + s.total_shed == s.total_requests
        };
        let s = o.report.serving.filter(terminated);
        s.ok_or_else(|| format!("{label}: a request neither completed nor shed typed"))
    };
    let line = |s: &ServingReport| {
        let (n, missed, shed) = (s.total_requests, s.total_missed, s.total_shed);
        format!("{n} requests, {missed} missed, {shed} shed")
    };
    let verdict = run("defended", Some(LadderConfig::default())).and_then(|d| {
        let c = run("control", None)?;
        if d.total_missed > c.total_missed {
            let (d, c) = (d.total_missed, c.total_missed);
            return Err(format!("serve: ladder made misses worse ({d} vs {c})"));
        }
        let (d, c) = (line(&d), line(&c));
        Ok(format!(
            "serve: fail {fail_pct}%, defended {d}; control {c}"
        ))
    });
    vec![verdict]
}

/// The backend's post-run invariant sweep and whether the device wore.
fn after_run<B: UmBackend>(backend: &B) -> (Caught<()>, bool) {
    let valid = UmBackend::validate(backend).map_err(|e| e.to_string());
    (valid, UmBackend::wear(backend).is_some())
}

/// Naive UM and governed DeepUM ~1.4× oversubscribed under ECC
/// retirement at `PPM` parts per million per fault drain, crossed with
/// checkpoint-image corruption: the backend invariant sweep (retired
/// frames included) is clean after every drain and after the run,
/// every run finishes all iterations or fails typed, and a worn device
/// reports a wear section.
fn wear<const PPM: u64>(seed: u64) -> Vec<Verdict> {
    let workload = ModelKind::MobileNet.build(48);
    let device = (workload.peak_bytes() * 100 / 140).max(16 << 20);
    // Two scheduled retirements make even tiny rates shrink the device.
    // The corruption storm always claims the second stored generation,
    // so restores fall back rather than die at the first crash; losing
    // every retained generation is still a legal (typed) outcome.
    let cfg = UmRunConfig {
        iterations: ITERS,
        costs: costs(device),
        perf: PerfModel::v100(),
        seed: 0x5eed,
        plan: InjectionPlan {
            ecc_retire_rate: PPM as f64 / 1e6,
            retire_pages_at: vec![seed % 7, 9 + seed % 11],
            ckpt_corrupt_rate: 0.1,
            ckpt_corrupt_at: vec![1],
            ..chaos_plan(seed)
        },
        validate_after_drain: true,
        checkpoint_every: None,
        tracer: None,
    };
    ["um", "deepum"]
        .into_iter()
        .map(|label| {
            let run = || {
                if label == "deepum" {
                    let mut b = DeepumDriver::new(cfg.costs.clone(), governed());
                    let r = run_um(&workload, &mut b, "deepum", &cfg, |b| b.counters());
                    (r, after_run(&b))
                } else {
                    let mut b = NaiveUm::new(cfg.costs.clone());
                    let r = run_um(&workload, &mut b, "um", &cfg, |b| b.counters());
                    (r, after_run(&b))
                }
            };
            let (outcome, (valid, worn)) = twice(run, |(r, a)| format!("{}{a:?}", run_bytes(r)))
                .map_err(|e| format!("{label}: {e}"))?;
            valid.map_err(|m| format!("{label}: post-run invariant sweep: {m}"))?;
            let report = match outcome {
                Ok(report) => report,
                Err(e) => return Ok(format!("{label}: typed failure (deterministic): {e}")),
            };
            all_iters(label, &report)?;
            let w = report.wear;
            if worn && w.is_none() {
                return Err(format!("{label}: device wore but reported no wear section"));
            }
            let (retired, remigrations, generations) = w.map_or((0, 0, 0), |w| {
                (w.retired_pages, w.remigrations, w.recovery_generations)
            });
            Ok(format!(
                "{label}: live (retired={retired}, remigrations={remigrations}, \
                 fallback_generations={generations})"
            ))
        })
        .collect()
}

/// The crash row's cells, ECC included, once inline and once on the
/// rayon pool: each cell's outcome reproduces byte-for-byte, so thread
/// scheduling never leaks into simulated results.
fn parallel(seed: u64) -> Vec<Verdict> {
    let workload = ModelKind::MobileNet.build(48);
    let plan = chaos_plan(seed);
    let cells = vec![System::Um, System::deepum()];
    let run = |system: &System| {
        let p = params(plan.clone(), 80 << 20);
        catch(|| run_bytes(&run_system(system, &workload, &p)))
    };
    let serial: Vec<_> = cells.iter().map(run).collect();
    let parallel = map_parallel(cells.clone(), |system| run(&system));
    let outcomes = serial.into_iter().zip(parallel);
    cells
        .iter()
        .zip(outcomes)
        .map(|(system, (s, p))| {
            let label = system.label();
            let bytes = compare(s, p, String::clone).map_err(|e| format!("{label}: {e}"))?;
            let kind = if bytes.starts_with("ERR:") {
                "typed error"
            } else {
                "report"
            };
            Ok(format!("{label}: {kind} reproduced byte-for-byte"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_of_every_row_keeps_its_contract() {
        let mut runs = 0;
        for row in &SOAK {
            let (ran, failures) = soak_row(row, 1);
            assert_eq!(failures, 0, "row {} broke its contract", row.name);
            runs += ran * row.seeds;
        }
        // crash 32, oversub 24, tenants 24, serve 16, wear 32, parallel 32.
        assert_eq!(runs, 160);
    }

    #[test]
    fn twice_fails_on_divergence_typed_mismatch_and_panic() {
        let typed = || RunError::Recovery("no checkpoint".to_string());
        let pair = |outcomes: [Result<u64, RunError>; 2]| {
            let calls = std::cell::Cell::new(0);
            let next = || {
                calls.set(calls.get() + 1);
                outcomes[calls.get() - 1].clone()
            };
            twice(next, |o| format!("{o:?}"))
        };
        assert_eq!(pair([Ok(7), Ok(7)]), Ok(Ok(7)));
        assert_eq!(pair([Err(typed()), Err(typed())]), Ok(Err(typed())));
        assert!(pair([Ok(7), Ok(8)]).is_err(), "diverged pair");
        assert!(pair([Ok(7), Err(typed())]).is_err(), "typed vs completed");
        let panicked = twice(|| -> u64 { panic!("boom") }, u64::to_string);
        assert_eq!(panicked, Err("PANIC: boom".to_string()));
    }

    #[test]
    fn rows_select_by_name() {
        assert_eq!(select(&[]).unwrap().len(), SOAK.len());
        let picked = select(&["serve-6".to_string(), "crash".to_string()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|r| r.name).collect();
        assert_eq!(names, ["serve-6", "crash"]);
        let err = select(&["--seeds".to_string()]).unwrap_err();
        assert!(err.contains("oversub-250"), "{err}");
    }
}
