//! The paper's evaluation grid as one driver, serial or rayon-parallel.
//!
//! Every suite cell — one (model, batch, system) simulation — is a
//! sealed deterministic world: it builds its own workload, runs with its
//! own driver state, and touches no shared mutable state. Running cells
//! concurrently therefore must not change a single byte of any cell's
//! report, and the drivers here make that checkable: each cell's result
//! is reduced to a canonical JSON rendering and an FNV-1a digest, and
//! the parallel driver's digests are asserted identical to the serial
//! driver's (`deepum_suite`, `tests/equivalence.rs`).
//!
//! The grid is every simulation EXPERIMENTS.md renders (see
//! [`crate::experiments`]): the Fig. 9 grid under its five systems (which
//! feeds Tables 4 and 5), the Fig. 13 grid under the TF-based systems on
//! the 16 GB platform, and the sensitivity rows (Fig. 10 ablations on
//! bert-large/gpt2, the Fig. 11 degree sweep on gpt2-l, and the Fig. 12
//! table-geometry sweep on bert-large), all at [`SUITE_ITERS`]
//! iterations.

use std::time::Instant;

use deepum_baselines::report::{RunError, RunReport};
use deepum_core::config::DeepumConfig;
use deepum_sim::faultinject::InjectionPlan;
use deepum_torch::models::ModelKind;
use deepum_trace::SharedTracer;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::experiments::{fig10, fig11, fig12, fig13};
use crate::grids::{fig9_cells, middle_batch, FIG13_GRID};
use deepum_baselines::suite::{run_system, RunParams, System};

/// Training iterations per suite cell: one cold iteration plus one
/// steady-state iteration (the simulator is deterministic, so one steady
/// iteration is exact).
pub const SUITE_ITERS: usize = 2;

/// Workload seed shared by every suite cell.
pub const SUITE_SEED: u64 = 0x5eed;

/// One independent (model, batch, system) simulation cell.
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// Cache-style cell key; also the hash key in the bench baseline.
    pub key: String,
    /// Model to build.
    pub model: ModelKind,
    /// Batch size.
    pub batch: usize,
    /// System under test.
    pub system: System,
    /// True for the Fig. 13 cells on the 16 GB platform.
    pub sixteen_gb: bool,
    /// Device-memory override in bytes (oversubscription cells).
    pub device_bytes: Option<u64>,
    /// Fault-injection plan (the grid runs clean).
    pub plan: InjectionPlan,
}

impl SuiteCell {
    /// A 32 GB-platform cell with the default (clean) fault plan.
    pub fn new(key: impl Into<String>, model: ModelKind, batch: usize, system: System) -> Self {
        SuiteCell {
            key: key.into(),
            model,
            batch,
            system,
            sixteen_gb: false,
            device_bytes: None,
            plan: InjectionPlan::default(),
        }
    }

    /// Overrides the device memory (oversubscription scenarios).
    pub fn device_bytes(mut self, bytes: u64) -> Self {
        self.device_bytes = Some(bytes);
        self
    }

    /// Installs a fault-injection plan.
    pub fn plan(mut self, plan: InjectionPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Measured outcome of one cell, as recorded in `BENCH_suite.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellOutcome {
    /// Cell key.
    pub key: String,
    /// Host wall-clock seconds the simulation took.
    pub wall_secs: f64,
    /// Simulated kernels launched (0 for OOM cells).
    pub kernels: u64,
    /// Simulated nanoseconds of the run (0 for OOM cells).
    pub sim_ns: u64,
    /// False when the run ended in a typed error (the paper's OOM bars).
    pub ok: bool,
    /// FNV-1a digest of the canonical report JSON.
    pub hash: String,
}

/// The key of a suite cell; renderers look cells up through it.
pub(crate) fn grid_key(prefix: &str, model: ModelKind, batch: usize, tag: &str) -> String {
    format!("{prefix}{}-b{batch}-{tag}-i{SUITE_ITERS}", model.label())
}

/// Enumerates the full suite grid, in the fixed serial order.
pub fn suite_cells() -> Vec<SuiteCell> {
    let mut cells = Vec::new();
    // Fig. 9 grid (feeds Tables 4 and 5): five systems per (model, batch).
    for (model, batch) in fig9_cells() {
        for system in [
            System::Um,
            System::Lms,
            System::LmsMod,
            System::deepum(),
            System::Ideal,
        ] {
            let key = grid_key("", model, batch, system.label());
            cells.push(SuiteCell::new(key, model, batch, system));
        }
    }
    // Fig. 13 grid: naive UM plus the TF-based systems on the 16 GB V100.
    for &(model, batch) in FIG13_GRID {
        let mut systems = vec![System::Um];
        systems.extend(fig13::systems());
        for system in systems {
            let key = grid_key("16g-", model, batch, system.label());
            let mut cell = SuiteCell::new(key, model, batch, system);
            cell.sixteen_gb = true;
            cells.push(cell);
        }
    }
    // Fig. 10 ablation rows; their um/deepum anchors are already Fig. 9
    // cells above.
    for &model in fig10::MODELS {
        let batch = middle_batch(model);
        for (tag, cfg) in fig10::ablations() {
            let key = grid_key("", model, batch, tag);
            cells.push(SuiteCell::new(key, model, batch, System::DeepUm(cfg)));
        }
    }
    // Fig. 11 prefetch-degree sweep on gpt2-l at its middle batch.
    {
        let model = fig11::MODEL;
        let batch = middle_batch(model);
        for &n in fig11::DEGREES {
            let key = grid_key("", model, batch, &fig11::tag(n));
            let system = System::DeepUm(DeepumConfig::default().with_prefetch_degree(n));
            cells.push(SuiteCell::new(key, model, batch, system));
        }
    }
    // Fig. 12 correlation-table geometry sweep on bert-large.
    {
        let model = fig12::MODEL;
        let batch = middle_batch(model);
        for (i, &(assoc, succs, rows)) in fig12::CONFIGS.iter().enumerate() {
            let key = grid_key("", model, batch, &fig12::tag(i));
            let system =
                System::DeepUm(DeepumConfig::default().with_block_table(assoc, succs, rows));
            cells.push(SuiteCell::new(key, model, batch, system));
        }
    }
    cells
}

/// True if the cell key `key` matches the shell-style `glob`: `*`
/// matches any run of characters (none included), `?` any one character
/// and every other character itself. Keys are ASCII, so bytes suffice.
pub fn key_matches(glob: &str, key: &str) -> bool {
    let (glob, key) = (glob.as_bytes(), key.as_bytes());
    let (mut g, mut k) = (0, 0);
    // The last `*` seen: the glob index after it and the key index it
    // has consumed up to. A mismatch retries with the `*` taking one
    // more byte.
    let mut star = None;
    while k < key.len() {
        match glob.get(g) {
            Some(b'*') => {
                g += 1;
                star = Some((g, k));
            }
            Some(&c) if c == b'?' || c == key[k] => {
                g += 1;
                k += 1;
            }
            _ => match star {
                Some((after, taken)) => {
                    g = after;
                    k = taken + 1;
                    star = Some((after, k));
                }
                None => return false,
            },
        }
    }
    glob[g..].iter().all(|&c| c == b'*')
}

fn simulate(cell: &SuiteCell, tracer: Option<SharedTracer>) -> Result<RunReport, RunError> {
    let workload = cell.model.build(cell.batch);
    let mut params = if cell.sixteen_gb {
        RunParams::v100_16gb(SUITE_ITERS, SUITE_SEED)
    } else {
        RunParams::v100_32gb(SUITE_ITERS, SUITE_SEED)
    };
    if let Some(bytes) = cell.device_bytes {
        params.costs = params.costs.with_device_memory(bytes);
    }
    params.plan = cell.plan.clone();
    params.tracer = tracer;
    run_system(&cell.system, &workload, &params)
}

/// Canonical JSON rendering of a cell result; typed errors render with
/// an `ERR:` prefix so an OOM cell and a completed cell can never hash
/// alike.
pub fn report_json(result: &Result<RunReport, RunError>) -> String {
    match result {
        Ok(r) => serde_json::to_string(r).unwrap_or_else(|e| format!("<serialize error: {e}>")),
        Err(e) => format!(
            "ERR:{}",
            serde_json::to_string(e).unwrap_or_else(|e2| format!("<serialize error: {e2}>"))
        ),
    }
}

/// FNV-1a 64-bit digest, hex-rendered.
pub fn digest(body: &str) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in body.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// FNV-1a digest of an ordered `(key, hash)` list, one `key hash` line
/// per cell: the identity of the grid EXPERIMENTS.md was rendered from.
pub fn grid_digest<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let body: String = pairs
        .into_iter()
        .map(|(key, hash)| format!("{key} {hash}\n"))
        .collect();
    digest(&body)
}

/// One recorded cell digest of the bench baseline.
#[derive(Debug, Serialize, Deserialize)]
pub struct BaselineCell {
    /// Cell key.
    pub key: String,
    /// Report digest.
    pub hash: String,
}

/// The committed bench baseline (`ci/bench-baseline.json`).
#[derive(Debug, Serialize, Deserialize)]
pub struct SuiteBaseline {
    /// Format version.
    pub version: u32,
    /// Serial suite wall-clock before the flat-table hot-path rewrite.
    pub pre_pr_serial_wall_secs: f64,
    /// Recorded serial suite wall-clock, the wall gate's reference.
    pub serial_wall_secs: f64,
    /// Report digest per cell, in [`suite_cells`] order.
    pub cells: Vec<BaselineCell>,
}

/// Runs one cell and reduces it to its measured outcome, handing back
/// the report the outcome was measured from.
pub fn run_cell(cell: &SuiteCell) -> (CellOutcome, Result<RunReport, RunError>) {
    let started = Instant::now();
    let result = simulate(cell, None);
    let wall_secs = started.elapsed().as_secs_f64();
    let (kernels, sim_ns, ok) = match &result {
        Ok(r) => (r.counters.kernels_launched, r.total.as_nanos(), true),
        Err(_) => (0, 0, false),
    };
    let outcome = CellOutcome {
        key: cell.key.clone(),
        wall_secs,
        kernels,
        sim_ns,
        ok,
        hash: digest(&report_json(&result)),
    };
    (outcome, result)
}

/// Runs a cell and returns its canonical report JSON (equivalence-test
/// material; [`run_cell`] keeps only the digest).
pub fn cell_report_json(cell: &SuiteCell) -> String {
    report_json(&simulate(cell, None))
}

/// Runs a cell with an export tracer installed and returns the canonical
/// report JSON plus the full JSONL trace.
pub fn cell_traced(cell: &SuiteCell) -> (String, String) {
    let tracer = deepum_trace::shared(deepum_trace::Tracer::export());
    let result = simulate(cell, Some(tracer.clone()));
    let jsonl = tracer.borrow_mut().jsonl();
    (report_json(&result), jsonl)
}

/// Runs every cell on the calling thread, in order.
pub fn run_serial(cells: &[SuiteCell]) -> Vec<CellOutcome> {
    cells.iter().map(|c| run_cell(c).0).collect()
}

/// Runs every cell on the rayon pool; outcomes come back in input order.
pub fn run_parallel(cells: &[SuiteCell]) -> Vec<CellOutcome> {
    cells
        .to_vec()
        .into_par_iter()
        .map(|c| run_cell(&c).0)
        .collect()
}

/// Fans an arbitrary job list out on the rayon pool, preserving input
/// order (shared by the chaos soak's `parallel` row and the equivalence
/// suite).
pub fn map_parallel<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_key_uniqueness() {
        let cells = suite_cells();
        // 23 Fig. 9 cells x 5 systems, 4 Fig. 13 cells x 8 systems,
        // 3 x 2 ablations, 10 degrees, 13 table geometries.
        assert_eq!(cells.len(), 23 * 5 + 4 * 8 + 6 + 10 + 13);
        let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len(), "cell keys must be unique");
    }

    #[test]
    fn key_globs_match_whole_keys() {
        let key = "gpt2-l-b5-deepum-i2";
        for glob in [
            key,
            "*",
            "gpt2-l-*",
            "*-deepum-i2",
            "gpt2-?-b5-*",
            "*deepum*",
            "g*2-l*i2",
        ] {
            assert!(key_matches(glob, key), "{glob} should match");
        }
        for glob in [
            "",
            "gpt2-l",
            "*-um-i2",
            "gpt2-??-b5-*",
            "16g-*",
            "*deepum",
            "x*",
        ] {
            assert!(!key_matches(glob, key), "{glob} should not match");
        }
        assert!(key_matches("", ""));
        assert!(key_matches("**", ""));
        // A glob selects a subset of the grid, in grid order.
        let cells = suite_cells();
        let picked: Vec<_> = cells
            .iter()
            .filter(|c| key_matches("16g-*-um-i2", &c.key))
            .collect();
        assert_eq!(picked.len(), 4);
        assert!(picked.iter().all(|c| c.sixteen_gb));
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest(""), format!("{:016x}", 0xCBF2_9CE4_8422_2325u64));
        assert_eq!(digest("abc"), digest("abc"));
        assert_ne!(digest("abc"), digest("abd"));
    }

    #[test]
    fn parallel_map_matches_serial_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(map_parallel(items, |x| x * 3), serial);
    }
}
