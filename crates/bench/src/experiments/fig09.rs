//! Figure 9: comparison with naive UM and IBM LMS on the V100 32 GB.
//!
//! Runs the seven-model grid under UM, LMS, LMS-mod, DeepUM, and Ideal,
//! producing (a) training-throughput speedups over UM, (b) elapsed
//! seconds for 100 training iterations (extrapolated from the measured
//! warm-up + steady-state iterations), and (c) the total-energy ratio
//! over UM. The same runs feed Table 4 (correlation-table size) and
//! Table 5 (page faults per iteration).

use deepum_baselines::report::{RunError, RunReport};
use deepum_torch::models::ModelKind;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::grids::fig9_cells;
use crate::opts::Opts;
use crate::table::{ratio, secs, Table};
use deepum_baselines::suite::{run_system, RunParams, System};

/// One grid cell's results across all systems.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cell {
    /// Model label.
    pub model: String,
    /// Batch size (after `--scale`).
    pub batch: usize,
    /// Per-system reports; `Err` marks OOM (the paper's missing bars).
    pub um: Result<RunReport, RunError>,
    /// IBM LMS.
    pub lms: Result<RunReport, RunError>,
    /// LMS with periodic cache flush.
    pub lms_mod: Result<RunReport, RunError>,
    /// DeepUM (paper configuration).
    pub deepum: Result<RunReport, RunError>,
    /// Upper bound.
    pub ideal: Result<RunReport, RunError>,
}

/// Runs the full grid (cached) and returns all cells.
pub fn run_grid(opts: &Opts) -> Vec<Cell> {
    let cache = RunCache::new(&opts.out);
    let mut cells = Vec::new();
    for (model, batch) in fig9_cells(opts) {
        cells.push(run_cell(opts, &cache, model, batch));
    }
    cells
}

/// Runs one grid cell under the five Fig. 9 systems (cached).
pub fn run_cell(opts: &Opts, cache: &RunCache, model: ModelKind, batch: usize) -> Cell {
    let workload = model.build(batch);
    let mut params = RunParams::v100_32gb(opts.iters, opts.seed);
    params.costs.device_memory_bytes = opts.memory(params.costs.device_memory_bytes);
    params.costs.host_memory_bytes = opts.memory(params.costs.host_memory_bytes);

    let run = |system: System| {
        let key = format!(
            "{}-b{}-{}-i{}-s{}-sc{}",
            model.label(),
            batch,
            system.label(),
            opts.iters,
            opts.seed,
            opts.scale
        );
        cache.run(&key, || run_system(&system, &workload, &params))
    };

    Cell {
        model: model.label().into(),
        batch,
        um: run(System::Um),
        lms: run(System::Lms),
        lms_mod: run(System::LmsMod),
        deepum: run(System::deepum()),
        ideal: run(System::Ideal),
    }
}

impl Cell {
    fn speedup(&self, r: &Result<RunReport, RunError>) -> Option<f64> {
        match (r, &self.um) {
            (Ok(sys), Ok(um)) => Some(sys.speedup_over(um)),
            _ => None,
        }
    }

    fn energy_ratio(&self, r: &Result<RunReport, RunError>) -> Option<f64> {
        match (r, &self.um) {
            (Ok(sys), Ok(um)) if um.steady_iter_energy() > 0.0 => {
                Some(sys.steady_iter_energy() / um.steady_iter_energy())
            }
            _ => None,
        }
    }
}

/// Fig. 9(a): speedup of each system over naive UM.
pub fn table_speedup(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Fig 9(a): training-throughput speedup over naive UM (V100 32GB)",
        &["model", "batch", "lms", "lms-mod", "deepum", "ideal"],
    );
    let mut gmean: Vec<(f64, f64, f64, f64)> = Vec::new();
    for c in cells {
        let (l, lm, d, i) = (
            c.speedup(&c.lms),
            c.speedup(&c.lms_mod),
            c.speedup(&c.deepum),
            c.speedup(&c.ideal),
        );
        if let (Some(l), Some(lm), Some(d), Some(i)) = (l, lm, d, i) {
            gmean.push((l, lm, d, i));
        }
        t.row([
            c.model.clone(),
            c.batch.to_string(),
            ratio(l),
            ratio(lm),
            ratio(d),
            ratio(i),
        ]);
    }
    if !gmean.is_empty() {
        let g = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            let prod: f64 = gmean.iter().map(|x| f(x).ln()).sum();
            (prod / gmean.len() as f64).exp()
        };
        t.row([
            "GMEAN".to_string(),
            "-".to_string(),
            format!("{:.2}", g(|x| x.0)),
            format!("{:.2}", g(|x| x.1)),
            format!("{:.2}", g(|x| x.2)),
            format!("{:.2}", g(|x| x.3)),
        ]);
    }
    t
}

/// Fig. 9(b): elapsed seconds for 100 training iterations.
pub fn table_elapsed(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Fig 9(b): elapsed virtual seconds for 100 training iterations",
        &["model", "batch", "um", "lms", "lms-mod", "deepum"],
    );
    let cell = |r: &Result<RunReport, RunError>| match r {
        Ok(rep) => secs(rep.time_for_iterations(100)),
        Err(_) => "-".into(),
    };
    for c in cells {
        t.row([
            c.model.clone(),
            c.batch.to_string(),
            cell(&c.um),
            cell(&c.lms),
            cell(&c.lms_mod),
            cell(&c.deepum),
        ]);
    }
    t
}

/// Fig. 9(c): total-energy ratio over naive UM (lower is better).
pub fn table_energy(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Fig 9(c): total energy ratio over naive UM (lower is better)",
        &["model", "batch", "lms", "lms-mod", "deepum"],
    );
    for c in cells {
        t.row([
            c.model.clone(),
            c.batch.to_string(),
            ratio(c.energy_ratio(&c.lms)),
            ratio(c.energy_ratio(&c.lms_mod)),
            ratio(c.energy_ratio(&c.deepum)),
        ]);
    }
    t
}

/// Table 4: correlation-table memory per model/batch.
pub fn table_table_size(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Table 4: correlation table size",
        &["model", "batch", "table size (MB)"],
    );
    for c in cells {
        let mb = match &c.deepum {
            Ok(r) => r
                .table_bytes
                .map(|b| format!("{}", b >> 20))
                .unwrap_or_else(|| "-".into()),
            Err(_) => "-".into(),
        };
        t.row([c.model.clone(), c.batch.to_string(), mb]);
    }
    t
}

/// Table 5: average page faults per training iteration, UM vs DeepUM.
pub fn table_faults(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Table 5: page faults per training iteration",
        &["model", "batch", "um faults", "deepum faults", "ratio"],
    );
    for c in cells {
        let (um, dm) = match (&c.um, &c.deepum) {
            (Ok(u), Ok(d)) => (u.steady_faults_per_iter(), d.steady_faults_per_iter()),
            _ => {
                t.row([
                    c.model.clone(),
                    c.batch.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
        };
        let pct = if um > 0 {
            format!("{:.1}%", 100.0 * dm as f64 / um as f64)
        } else {
            "-".into()
        };
        t.row([
            c.model.clone(),
            c.batch.to_string(),
            um.to_string(),
            dm.to_string(),
            pct,
        ]);
    }
    t
}
