//! Suite bench: the evaluation grid, serial vs rayon-parallel, with an
//! asserted byte-identity contract and a ratcheted perf baseline.
//!
//! Runs every suite cell (see `deepum_bench::suite`) once on the calling
//! thread and once on the rayon pool, asserts the two passes produce
//! identical report digests cell by cell, and writes `BENCH_suite.json`
//! with suite wall-clock and simulated-kernels/sec for both drivers —
//! the perf-trajectory datapoints next to `BENCH_multitenant.json` and
//! `BENCH_serving.json`.
//!
//! With `--baseline FILE` (CI passes `ci/bench-baseline.json`) the run
//! is gated: a missing file is recorded, an
//! existing one fails the run if any cell's report digest changed (the
//! simulation's output is load-bearing; digests only change with an
//! intentional behaviour change and a re-bless) or if serial suite
//! wall-clock regressed more than 25% over the recorded value.
//!
//! With `--experiments FILE` (which needs `--baseline`) the serial
//! pass's reports render EXPERIMENTS.md into FILE (see
//! `deepum_bench::experiments`). FILE is written only once every digest
//! matched the baseline; the wall gate still sets the exit code.
//!
//! With `--only GLOB` only the cells whose keys match the shell-style
//! glob run (see `deepum_bench::suite::key_matches`). `--baseline` then
//! checks just their digests, which must already be recorded, and skips
//! the whole-suite wall gate; `--experiments` is refused, since the
//! rendering needs every cell.
//!
//! `BENCH_suite.json` also records the host name, the processors
//! available and the git revision (`null` outside a git checkout).
//!
//! Usage: `deepum_suite [--serial-only] [--only GLOB] [--out FILE]
//! [--baseline FILE] [--experiments FILE] [--pre-pr-wall SECS]`.
//! `--pre-pr-wall` seeds the pre-rewrite anchor when first recording a
//! baseline; afterwards the anchor is carried in the baseline file
//! itself.

use std::path::{Path, PathBuf};
use std::time::Instant;

use deepum_bench::meta;
use deepum_bench::suite::{
    key_matches, run_cell, suite_cells, BaselineCell, CellOutcome, SuiteBaseline, SUITE_ITERS,
};
use serde::{Deserialize, Serialize};

#[derive(Debug, Serialize, Deserialize)]
struct SuiteBench {
    version: u32,
    host: String,
    available_parallelism: usize,
    git_rev: Option<String>,
    /// The `--only` glob; `None` for a whole-suite run.
    only: Option<String>,
    iters: usize,
    cells: usize,
    threads: usize,
    serial_wall_secs: f64,
    parallel_wall_secs: Option<f64>,
    /// Serial suite wall-clock before the flat-table hot-path rewrite
    /// (the perf-trajectory anchor), carried from the baseline file.
    pre_pr_serial_wall_secs: Option<f64>,
    speedup_serial_vs_pre_pr: Option<f64>,
    speedup_parallel_vs_pre_pr: Option<f64>,
    simulated_kernels: u64,
    sim_kernels_per_sec_serial: f64,
    sim_kernels_per_sec_parallel: Option<f64>,
    entries: Vec<CellOutcome>,
}

/// Wall-clock regression tolerance over the recorded baseline.
const WALL_REGRESSION_LIMIT: f64 = 1.25;

struct SuiteOpts {
    serial_only: bool,
    only: Option<String>,
    out: PathBuf,
    baseline: Option<PathBuf>,
    experiments: Option<PathBuf>,
    pre_pr_wall: Option<f64>,
}

fn parse_opts() -> SuiteOpts {
    let mut opts = SuiteOpts {
        serial_only: false,
        only: None,
        out: PathBuf::from("BENCH_suite.json"),
        baseline: None,
        experiments: None,
        pre_pr_wall: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--serial-only" => opts.serial_only = true,
            "--only" => opts.only = Some(value("--only")),
            "--out" => opts.out = PathBuf::from(value("--out")),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline"))),
            "--experiments" => opts.experiments = Some(PathBuf::from(value("--experiments"))),
            "--pre-pr-wall" => {
                opts.pre_pr_wall = Some(
                    value("--pre-pr-wall")
                        .parse()
                        .expect("--pre-pr-wall: seconds as float"),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "options: --serial-only  --only GLOB  --out FILE  --baseline FILE  \
                     --experiments FILE  --pre-pr-wall SECS"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option: {other}"),
        }
    }
    assert!(
        opts.experiments.is_none() || opts.baseline.is_some(),
        "--experiments requires --baseline: EXPERIMENTS.md renders only from checked digests"
    );
    assert!(
        opts.experiments.is_none() || opts.only.is_none(),
        "--experiments refuses --only: EXPERIMENTS.md renders from every cell"
    );
    opts
}

fn write(path: &Path, body: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(path, body).unwrap_or_else(|e| {
        panic!("write {}: {e}", path.display());
    });
}

fn main() {
    let opts = parse_opts();
    let mut cells = suite_cells();
    if let Some(glob) = &opts.only {
        cells.retain(|c| key_matches(glob, &c.key));
        if cells.is_empty() {
            eprintln!("--only {glob}: no suite cell key matches");
            std::process::exit(2);
        }
    }
    let threads = rayon::current_num_threads();
    println!(
        "deepum_suite: {} cells (iters={SUITE_ITERS}), {} rayon threads",
        cells.len(),
        threads
    );

    // Serial pass, with per-cell progress (the heavy cells take a while).
    // Reports are kept only when they will be rendered.
    let serial_started = Instant::now();
    let mut serial: Vec<CellOutcome> = Vec::with_capacity(cells.len());
    let mut reports = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let (outcome, report) = run_cell(cell);
        if opts.experiments.is_some() {
            reports.push((cell.clone(), report));
        }
        println!(
            "[serial {}/{}] {} {:.2}s{}",
            i + 1,
            cells.len(),
            outcome.key,
            outcome.wall_secs,
            if outcome.ok { "" } else { " (typed error)" }
        );
        serial.push(outcome);
    }
    let serial_wall = serial_started.elapsed().as_secs_f64();
    let kernels: u64 = serial.iter().map(|o| o.kernels).sum();
    println!(
        "serial: {serial_wall:.1}s wall, {kernels} simulated kernels ({:.0} kernels/s)",
        kernels as f64 / serial_wall.max(1e-9)
    );

    // Parallel pass over the same cells; every digest must match.
    let mut parallel_wall = None;
    if !opts.serial_only {
        let parallel_started = Instant::now();
        let parallel = deepum_bench::suite::run_parallel(&cells);
        let wall = parallel_started.elapsed().as_secs_f64();
        parallel_wall = Some(wall);
        println!(
            "parallel: {wall:.1}s wall on {threads} threads ({:.0} kernels/s)",
            kernels as f64 / wall.max(1e-9)
        );
        let mut mismatches = 0u32;
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.key, p.key, "drivers enumerated different cells");
            if s.hash != p.hash {
                eprintln!(
                    "BYTE-IDENTITY VIOLATION: {} serial={} parallel={}",
                    s.key, s.hash, p.hash
                );
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            eprintln!("{mismatches} cells diverged between serial and parallel drivers");
            std::process::exit(1);
        }
        println!("byte-identity: all {} cell digests match", cells.len());
    }

    // Ratchet gate against the committed baseline.
    let mut pre_pr_wall = opts.pre_pr_wall;
    let mut wall_regressed = false;
    if let Some(baseline_path) = &opts.baseline {
        match std::fs::read_to_string(baseline_path) {
            Ok(body) if opts.only.is_some() => {
                let baseline: SuiteBaseline =
                    serde_json::from_str(&body).expect("parse bench baseline");
                check_selected_digests(&baseline, &serial, baseline_path);
                println!(
                    "baseline: {} selected cell digests unchanged; wall gate skipped",
                    serial.len()
                );
            }
            Ok(body) => {
                let baseline: SuiteBaseline =
                    serde_json::from_str(&body).expect("parse bench baseline");
                pre_pr_wall = Some(baseline.pre_pr_serial_wall_secs);
                let mut failures = 0u32;
                if baseline.cells.len() != serial.len() {
                    eprintln!(
                        "bench baseline covers {} cells but the suite ran {}; re-bless {}",
                        baseline.cells.len(),
                        serial.len(),
                        baseline_path.display()
                    );
                    failures += 1;
                }
                for (b, s) in baseline.cells.iter().zip(&serial) {
                    if b.key != s.key {
                        eprintln!("baseline cell {} vs suite cell {}", b.key, s.key);
                        failures += 1;
                    } else if b.hash != s.hash {
                        eprintln!(
                            "REPORT HASH CHANGED: {} {} -> {} (intentional changes need a re-bless of {})",
                            s.key,
                            b.hash,
                            s.hash,
                            baseline_path.display()
                        );
                        failures += 1;
                    }
                }
                if failures > 0 {
                    std::process::exit(1);
                }
                let limit = baseline.serial_wall_secs * WALL_REGRESSION_LIMIT;
                wall_regressed = serial_wall > limit;
                if wall_regressed {
                    eprintln!(
                        "suite wall-clock regressed: {serial_wall:.1}s > {limit:.1}s \
                         (baseline {:.1}s + 25%)",
                        baseline.serial_wall_secs
                    );
                } else {
                    println!(
                        "baseline: hashes unchanged, wall {serial_wall:.1}s within {limit:.1}s budget"
                    );
                }
            }
            Err(_) if opts.only.is_some() => {
                eprintln!(
                    "--only needs a recorded baseline; {} is missing",
                    baseline_path.display()
                );
                std::process::exit(1);
            }
            Err(_) => {
                let baseline = SuiteBaseline {
                    version: 1,
                    pre_pr_serial_wall_secs: pre_pr_wall.unwrap_or(serial_wall),
                    serial_wall_secs: serial_wall,
                    cells: serial
                        .iter()
                        .map(|o| BaselineCell {
                            key: o.key.clone(),
                            hash: o.hash.clone(),
                        })
                        .collect(),
                };
                let body = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
                write(baseline_path, &format!("{body}\n"));
                println!("baseline recorded in {}", baseline_path.display());
            }
        }
    }
    // Every digest matched (or was just recorded): the reports may render.
    if let Some(path) = &opts.experiments {
        write(path, &deepum_bench::experiments::render(&reports));
        println!("wrote {}", path.display());
    }
    if wall_regressed {
        std::process::exit(1);
    }

    let bench = SuiteBench {
        version: 2,
        host: meta::host_name(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: std::env::current_dir().ok().and_then(|d| meta::git_rev(&d)),
        only: opts.only,
        iters: SUITE_ITERS,
        cells: cells.len(),
        threads,
        serial_wall_secs: serial_wall,
        parallel_wall_secs: parallel_wall,
        pre_pr_serial_wall_secs: pre_pr_wall,
        speedup_serial_vs_pre_pr: pre_pr_wall.map(|p| p / serial_wall.max(1e-9)),
        speedup_parallel_vs_pre_pr: match (pre_pr_wall, parallel_wall) {
            (Some(p), Some(w)) => Some(p / w.max(1e-9)),
            _ => None,
        },
        simulated_kernels: kernels,
        sim_kernels_per_sec_serial: kernels as f64 / serial_wall.max(1e-9),
        sim_kernels_per_sec_parallel: parallel_wall.map(|w| kernels as f64 / w.max(1e-9)),
        entries: serial,
    };
    let body = serde_json::to_string_pretty(&bench).expect("serialize suite bench");
    write(&opts.out, &format!("{body}\n"));
    println!("wrote {}", opts.out.display());
}

/// Fails the run unless every selected cell's digest equals its entry in
/// the baseline; a key missing from the baseline fails too.
fn check_selected_digests(baseline: &SuiteBaseline, serial: &[CellOutcome], path: &Path) {
    let mut failures = 0u32;
    for s in serial {
        match baseline.cells.iter().find(|b| b.key == s.key) {
            None => {
                eprintln!("cell {} has no digest in {}", s.key, path.display());
                failures += 1;
            }
            Some(b) if b.hash != s.hash => {
                eprintln!(
                    "REPORT HASH CHANGED: {} {} -> {} (intentional changes need a re-bless of {})",
                    s.key,
                    b.hash,
                    s.hash,
                    path.display()
                );
                failures += 1;
            }
            Some(_) => {}
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
