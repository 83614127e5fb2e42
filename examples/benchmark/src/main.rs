//! Repository benchmark: four digest-checked DeepUM/UM workloads, with
//! layer timing measured at the `UmBackend` boundary.
//!
//! ```text
//! cargo run --release --locked --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! cargo run --release --locked --manifest-path examples/benchmark/Cargo.toml -- \
//!     --compare PARENT.json CHANGE.json
//! ```
//!
//! A run repeats passes over the workload's cells for `--seconds` on one
//! thread and reports medians. Before each pass it runs set-up rounds,
//! timing `ModelKind::build` plus backend construction. `--trace 0`
//! reports the end-to-end metrics of untraced passes (`run_system`).
//! `--trace 1` alternates untraced and traced passes (`run_um` over a
//! [`timed::Timed`] backend) and reports the per-layer metrics.
//!
//! Every report is checked. Its digest must equal the cell's entry in
//! `ci/bench-baseline.json` whenever the seed cannot change it; under a
//! seed that does, the cell must first reproduce its entry under the
//! suite seed. Digests must repeat exactly across passes, and a traced
//! report must equal the untraced one with the backend's invariants
//! intact.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check exits
//! with 1, a usage error with 2.

mod compare;
mod meta;
mod metrics;
mod stats;
mod timed;
mod workloads;

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use deepum_baselines::{run_system, RunError, RunParams, RunReport};
use deepum_bench::suite::{digest, report_json, suite_cells, SuiteCell, SUITE_SEED};
use deepum_torch::step::Workload;
use serde::{Deserialize, Serialize, Value};

use compare::Record;
use meta::Meta;
use metrics::{end_to_end, peak_rss_mb, per_layer, Measured, Totals, TracedPass};
use workloads::{Backend, Layer, Spec};

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark --compare PARENT.json CHANGE.json";

/// Measurement budget when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 25;

/// Fewest passes a run measures, whatever the budget, so every median
/// has quartiles around it.
const MIN_PASSES: usize = 3;

/// Set-up rounds before each pass; `setup_s` is the median round, so
/// its samples spread over the whole run like the passes do.
const SETUP_ROUNDS_PER_PASS: usize = 5;

struct RunOpts {
    workload: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

enum Command {
    Run(RunOpts),
    Compare(PathBuf, PathBuf),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(parent, change)) => run_compare(&parent, &change),
        Ok(Command::Run(opts)) => run(&opts),
    }
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = SUITE_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = parse_u64(value()?)?,
            "--seconds" => seconds = parse_u64(value()?)?.max(1),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => {
                let parent = PathBuf::from(value()?);
                let change = PathBuf::from(value()?);
                return Ok(Command::Compare(parent, change));
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(RunOpts {
        workload,
        seed,
        seconds,
        trace,
        out,
    }))
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("not a whole number: {text} ({e})"))
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[derive(Deserialize)]
struct Baseline {
    cells: Vec<BaselineCell>,
}

#[derive(Deserialize)]
struct BaselineCell {
    key: String,
    hash: String,
}

/// Committed report digest per suite cell key.
fn load_baseline(root: &Path) -> Result<HashMap<String, String>, String> {
    let path = root.join("ci/bench-baseline.json");
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let baseline: Baseline =
        serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(baseline
        .cells
        .into_iter()
        .map(|c| (c.key, c.hash))
        .collect())
}

/// A cell set up for measurement.
struct Cell {
    suite: SuiteCell,
    params: RunParams,
    workload: Workload,
    layer: Layer,
    /// The digest every report of this cell must have: the committed
    /// one, or, when the seed changes the inputs, the first pass's.
    expected: Option<String>,
}

impl Cell {
    /// Checks one report of this cell and returns its digest.
    fn check(&mut self, result: &Result<RunReport, RunError>) -> Result<String, String> {
        let got = verify(&self.suite.key, self.expected.as_deref(), result)?;
        self.expected.get_or_insert_with(|| got.clone());
        Ok(got)
    }
}

/// Digest of a completed report, checked against `want` when given. A
/// typed error is a failure: every benchmark cell completes.
fn verify(
    key: &str,
    want: Option<&str>,
    result: &Result<RunReport, RunError>,
) -> Result<String, String> {
    if let Err(e) = result {
        return Err(format!("{key}: run failed: {e}"));
    }
    let got = digest(&report_json(result));
    match want {
        Some(want) if want != got => Err(format!("{key}: report digest {got}, expected {want}")),
        _ => Ok(got),
    }
}

fn run(opts: &RunOpts) -> ExitCode {
    let root = repo_root();
    let baseline = match load_baseline(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot check outputs without the committed digests: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut meta = Meta::collect(&root, opts.seed, opts.seconds);
    let m = measure(opts, &baseline);
    meta.passes = m.passes as u64;

    let metrics = if opts.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)
    };
    let failed = m.failures.len() as u64;
    let record = Record {
        meta,
        workload: opts.workload.name.to_string(),
        trace: opts.trace,
        correct: failed == 0,
        attempted: m.attempted.max(1),
        failed,
        metrics,
    };
    for failure in &m.failures {
        eprintln!("FAILED {failure}");
    }
    print_table(&record);
    if let Some(path) = &opts.out {
        if let Err(e) = compare::append_record(path, record.clone()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&ResultLine(&record)).expect("the value model always renders")
    );
    if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Sets the workload's cells up, then measures passes until the budget
/// is spent.
fn measure(opts: &RunOpts, baseline: &HashMap<String, String>) -> Measured {
    let mut m = Measured::default();
    let suite = suite_cells();
    let mut cells = Vec::new();
    for key in opts.workload.cells {
        let Some(suite) = suite.iter().find(|c| c.key == *key) else {
            m.fail(format!("{key}: not a suite cell"));
            continue;
        };
        let Some(layer) = workloads::layer_of(&suite.system) else {
            m.fail(format!("{key}: not a UM-path system"));
            continue;
        };
        let Some(committed) = baseline.get(*key) else {
            m.fail(format!("{key}: no digest in ci/bench-baseline.json"));
            continue;
        };
        let workload = suite.model.build(suite.batch);
        let expected = if opts.seed == SUITE_SEED || !workloads::has_gathers(&workload) {
            Some(committed.clone())
        } else {
            // No committed digest covers this seed's inputs: check the
            // cell once under the suite seed, then hold every pass to the
            // first pass's digest.
            m.attempted += 1;
            let anchor = run_system(
                &suite.system,
                &workload,
                &workloads::params(suite, SUITE_SEED),
            );
            if let Err(e) = verify(key, Some(committed), &anchor) {
                m.failures.push(e);
            }
            None
        };
        cells.push(Cell {
            suite: suite.clone(),
            params: workloads::params(suite, opts.seed),
            workload,
            layer,
            expected,
        });
    }
    if cells.is_empty() {
        return m;
    }

    let budget = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    loop {
        for _ in 0..SETUP_ROUNDS_PER_PASS {
            set_up(&mut cells, &mut m);
        }
        let digests = untraced_pass(&mut cells, &mut m);
        if m.passes == 0 {
            // Later passes can only raise the mark through allocator
            // fragmentation from repeating the workload in one process.
            m.peak_rss_mb = peak_rss_mb();
        }
        if opts.trace {
            traced_pass(&cells, &digests, &mut m);
        }
        m.passes += 1;
        let per_pass = started.elapsed() / m.passes as u32;
        if m.passes >= MIN_PASSES && started.elapsed() + per_pass > budget {
            break;
        }
    }
    m
}

/// One set-up round: builds every cell's workload and backend, as each
/// suite cell does before it simulates, and records the round's set-up
/// and model-build time. The fresh workloads replace the old ones, and
/// the backends are dropped, after the clock stops.
fn set_up(cells: &mut [Cell], m: &mut Measured) {
    let mut workloads = Vec::with_capacity(cells.len());
    let mut backends = Vec::with_capacity(cells.len());
    let mut build = Duration::ZERO;
    let started = Instant::now();
    for cell in cells.iter() {
        let t = Instant::now();
        workloads.push(black_box(cell.suite.model.build(cell.suite.batch)));
        build += t.elapsed();
        backends.push(black_box(Backend::new(&cell.suite.system, &cell.params)));
    }
    m.setup.push(started.elapsed().as_secs_f64());
    m.build.push(build.as_secs_f64());
    for (cell, workload) in cells.iter_mut().zip(workloads) {
        cell.workload = workload;
    }
}

/// One untraced pass through `run_system`; returns each cell's digest.
fn untraced_pass(cells: &mut [Cell], m: &mut Measured) -> Vec<Option<String>> {
    let mut wall = Duration::ZERO;
    let mut totals = Totals::default();
    let mut digests = Vec::with_capacity(cells.len());
    for cell in cells.iter_mut() {
        m.attempted += 1;
        let started = Instant::now();
        let result = black_box(run_system(&cell.suite.system, &cell.workload, &cell.params));
        wall += started.elapsed();
        match cell.check(&result) {
            Ok(d) => digests.push(Some(d)),
            Err(e) => {
                m.failures.push(e);
                digests.push(None);
            }
        }
        if let Ok(report) = &result {
            totals.add(report);
        }
    }
    let wall = wall.as_secs_f64();
    m.walls.push(wall);
    m.kernel_rates.push(totals.kernels() as f64 / wall);
    m.untraced = totals;
    digests
}

/// One traced pass; each report must equal its untraced twin.
fn traced_pass(cells: &[Cell], digests: &[Option<String>], m: &mut Measured) {
    let mut pass = TracedPass {
        wall: 0.0,
        spans: Default::default(),
    };
    let mut totals = Totals::default();
    for (cell, untraced) in cells.iter().zip(digests) {
        m.attempted += 1;
        let started = Instant::now();
        let run = workloads::run_traced(&cell.suite.system, &cell.workload, &cell.params)
            .expect("set-up keeps only UM-path cells");
        pass.wall += started.elapsed().as_secs_f64();
        let key = format!("{} (traced)", cell.suite.key);
        let want = untraced.as_deref().unwrap_or("(untraced run failed)");
        let checked = verify(&key, Some(want), &run.result).and_then(|_| {
            run.valid
                .clone()
                .map_err(|e| format!("{key}: backend invariants broken: {e}"))
        });
        if let Err(e) = checked {
            m.failures.push(e);
        }
        for (sum, span) in pass.spans[cell.layer as usize].iter_mut().zip(run.spans) {
            sum.calls += span.calls;
            sum.time += span.time;
        }
        if let Ok(report) = &run.result {
            totals.add(report);
        }
    }
    m.traced.push(pass);
    m.traced_totals = totals;
}

fn print_table(record: &Record) {
    let meta = &record.meta;
    if let Some(spec) = workloads::find(&record.workload) {
        println!("{}: {}", spec.name, spec.why);
    }
    println!(
        "benchmark {} ({}): {} passes in a {} s budget, seed {}, {} thread of {}, host {}, rev {}, {}",
        record.workload,
        if record.trace { "traced" } else { "untraced" },
        meta.passes,
        meta.seconds,
        meta.seed,
        meta.threads,
        meta.nproc,
        meta.host,
        meta.git_rev,
        meta.utc
    );
    for m in &record.metrics {
        println!(
            "  {:<28} {:>16.6} {:<8} q1 {:.6}  q3 {:.6}  n={}",
            m.name, m.value, m.unit, m.q1, m.q3, m.samples
        );
    }
    println!(
        "  {} of {} cell runs failed",
        record.failed, record.attempted
    );
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// value and unit.
struct ResultLine<'a>(&'a Record);

impl Serialize for ResultLine<'_> {
    fn to_value(&self) -> Value {
        let r = self.0;
        let metrics = r
            .metrics
            .iter()
            .map(|m| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::String(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(r.correct)),
            ("attempted".into(), Value::U64(r.attempted)),
            ("failed".into(), Value::U64(r.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

fn run_compare(parent: &Path, change: &Path) -> ExitCode {
    let spec_path = repo_root().join("BENCHMARK.json");
    let result = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|body| {
            serde_json::from_str::<compare::BenchmarkFile>(&body)
                .map_err(|e| format!("{}: {e}", spec_path.display()))
        })
        .and_then(|spec| {
            let p = compare::read_records(parent)?;
            let c = compare::read_records(change)?;
            compare::compare(&spec.end_to_end, &p, &c)
        });
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<20} {:>16} {:>16}  verdict",
        "workload", "metric", "parent", "change"
    );
    for row in &rows {
        println!(
            "{:<14} {:<20} {:>16.6} {:>16.6}  {} ({})",
            row.workload,
            row.metric,
            row.parent,
            row.change,
            row.verdict.label(),
            row.unit
        );
    }
    if rows.iter().all(|r| r.verdict == compare::Verdict::Ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compare::Metric;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: String,
    }

    #[derive(Deserialize)]
    struct Unit {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct File {
        workloads: Vec<Named>,
        end_to_end: Vec<Unit>,
        per_layer: Vec<Unit>,
    }

    #[test]
    fn benchmark_json_matches_what_the_binary_prints() {
        let body = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
        let file: File = serde_json::from_str(&body).expect("parse BENCHMARK.json");
        let workloads: Vec<(&str, &str)> = file
            .workloads
            .iter()
            .map(|w| (w.name.as_str(), w.why.as_str()))
            .collect();
        let expected: Vec<(&str, &str)> = workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, expected);
        let listed = |units: &[Unit]| -> Vec<(String, String)> {
            units
                .iter()
                .map(|u| (u.name.clone(), u.unit.clone()))
                .collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        let none = Measured::default();
        assert_eq!(listed(&file.end_to_end), printed(end_to_end(&none)));
        assert_eq!(listed(&file.per_layer), printed(per_layer(&none)));
    }

    #[test]
    fn every_workload_cell_is_a_um_path_suite_cell_with_a_committed_digest() {
        let baseline = load_baseline(&repo_root()).expect("committed digests");
        let suite = suite_cells();
        for spec in &workloads::WORKLOADS {
            for key in spec.cells {
                let cell = suite.iter().find(|c| c.key == *key).expect("suite cell");
                assert!(workloads::layer_of(&cell.system).is_some(), "{key}");
                assert!(baseline.contains_key(*key), "{key}");
            }
        }
    }

    #[test]
    fn options_parse() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(opts)) = parse(&args(
            "--workload demand-um --seed 0x10 --seconds 3 --trace 1",
        )) else {
            panic!("a valid run command");
        };
        assert_eq!(opts.workload.name, "demand-um");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (16, 3, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload demand-um --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
    }
}
