//! Figure 11: sensitivity to the degree of prefetching (N).
//!
//! Sweeps the chaining look-ahead N and reports, per model at its middle
//! batch, the speedup and total-energy ratio relative to N = 8 — the
//! paper's normalization point. The paper observes a sweet spot at
//! N = 32 where speedup is highest and energy lowest.

use deepum_core::config::DeepumConfig;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::grids::{middle_batch, FIG9_GRID};
use crate::opts::Opts;
use crate::table::Table;
use deepum_baselines::suite::{run_system, RunParams, System};

/// The swept look-ahead degrees.
pub const DEGREES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Results of the sweep for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegreeRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Per-degree steady iteration time (ns) and energy (J), indexed
    /// like [`DEGREES`]; `None` marks failed runs.
    pub per_degree: Vec<Option<(u64, f64)>>,
}

/// Runs the sweep.
pub fn run(opts: &Opts) -> Vec<DegreeRow> {
    let cache = RunCache::new(&opts.out);
    let mut rows = Vec::new();
    for row in FIG9_GRID {
        if !opts.selected(row.model.label()) {
            continue;
        }
        let batch = opts.batch(middle_batch(row.model));
        let workload = row.model.build(batch);
        let mut params = RunParams::v100_32gb(opts.iters, opts.seed);
        params.costs.device_memory_bytes = opts.memory(params.costs.device_memory_bytes);
        params.costs.host_memory_bytes = opts.memory(params.costs.host_memory_bytes);

        let per_degree = DEGREES
            .iter()
            .map(|&n| {
                let key = format!(
                    "{}-b{}-deepum-N{}-i{}-s{}-sc{}",
                    row.model.label(),
                    batch,
                    n,
                    opts.iters,
                    opts.seed,
                    opts.scale
                );
                cache
                    .run(&key, || {
                        run_system(
                            &System::DeepUm(DeepumConfig::default().with_prefetch_degree(n)),
                            &workload,
                            &params,
                        )
                    })
                    .ok()
                    .map(|r| (r.steady_iter_time().as_nanos(), r.steady_iter_energy()))
            })
            .collect();
        rows.push(DegreeRow {
            model: row.model.label().into(),
            batch,
            per_degree,
        });
    }
    rows
}

fn normalized(rows: &[DegreeRow], pick: fn(&(u64, f64)) -> f64, invert: bool) -> Table {
    let metric = if invert { "speedup" } else { "energy ratio" };
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain(DEGREES.iter().map(|n| format!("N={n}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!("Fig 11: {metric} relative to N=8 (per model, middle batch)"),
        &hdr_refs,
    );
    let base_idx = DEGREES.iter().position(|&n| n == 8).expect("8 in sweep");
    for r in rows {
        let base = r.per_degree[base_idx].as_ref().map(pick);
        let mut cells = vec![r.model.clone()];
        for d in &r.per_degree {
            let cell = match (d.as_ref().map(pick), base) {
                (Some(v), Some(b)) if v > 0.0 && b > 0.0 => {
                    let ratio = if invert { b / v } else { v / b };
                    format!("{ratio:.3}")
                }
                _ => "-".into(),
            };
            cells.push(cell);
        }
        t.row(cells);
    }
    t
}

/// Fig. 11(a): speedup over the N=8 configuration.
pub fn table_speedup(rows: &[DegreeRow]) -> Table {
    normalized(rows, |x| x.0 as f64, true)
}

/// Fig. 11(b): energy ratio over the N=8 configuration (lower better).
pub fn table_energy(rows: &[DegreeRow]) -> Table {
    normalized(rows, |x| x.1, false)
}
