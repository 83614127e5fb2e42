//! Table 6 + Figure 12: UM-block correlation-table geometry sweep.
//!
//! Runs the thirteen (Assoc, NumSuccs, NumRows) configurations of
//! Table 6 per model at its middle batch, reporting speedup over
//! Config0. The paper finds Config9 (2048 rows, 2-way, 4 successors)
//! best on average.

use deepum_core::config::DeepumConfig;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::grids::{middle_batch, FIG9_GRID};
use crate::opts::Opts;
use crate::table::Table;
use deepum_baselines::suite::{run_system, RunParams, System};

/// The Table 6 configurations: `(Assoc, NumSuccs, NumRows)`.
pub const CONFIGS: &[(usize, usize, usize)] = &[
    (2, 4, 128),
    (2, 8, 128),
    (4, 4, 128),
    (2, 4, 512),
    (2, 8, 512),
    (4, 4, 512),
    (2, 4, 1024),
    (2, 8, 1024),
    (4, 4, 1024),
    (2, 4, 2048),
    (2, 8, 2048),
    (4, 4, 2048),
    (2, 4, 4096),
];

/// Sweep results for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Steady iteration time (ns) per configuration, [`CONFIGS`] order.
    pub per_config: Vec<Option<u64>>,
}

/// Runs the sweep.
pub fn run(opts: &Opts) -> Vec<ConfigRow> {
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

        let per_config = CONFIGS
            .iter()
            .enumerate()
            .map(|(i, &(assoc, succs, rows))| {
                let key = format!(
                    "{}-b{}-deepum-cfg{}-i{}-s{}-sc{}",
                    row.model.label(),
                    batch,
                    i,
                    opts.iters,
                    opts.seed,
                    opts.scale
                );
                cache
                    .run(&key, || {
                        run_system(
                            &System::DeepUm(
                                DeepumConfig::default().with_block_table(assoc, succs, rows),
                            ),
                            &workload,
                            &params,
                        )
                    })
                    .ok()
                    .map(|r| r.steady_iter_time().as_nanos())
            })
            .collect();
        rows.push(ConfigRow {
            model: row.model.label().into(),
            batch,
            per_config,
        });
    }
    rows
}

/// Renders Fig. 12: speedup of each configuration over Config0.
pub fn table(rows: &[ConfigRow]) -> Table {
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain((0..CONFIGS.len()).map(|i| format!("cfg{i}")))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig 12 / Table 6: speedup of each block-table configuration over Config0",
        &hdr_refs,
    );
    let mut logsums = vec![0.0f64; CONFIGS.len()];
    let mut counts = vec![0usize; CONFIGS.len()];
    for r in rows {
        let base = r.per_config[0];
        let mut cells = vec![r.model.clone()];
        for (i, c) in r.per_config.iter().enumerate() {
            let cell = match (c, base) {
                (Some(v), Some(b)) if *v > 0 => {
                    let s = b as f64 / *v as f64;
                    logsums[i] += s.ln();
                    counts[i] += 1;
                    format!("{s:.3}")
                }
                _ => "-".into(),
            };
            cells.push(cell);
        }
        t.row(cells);
    }
    let mut gmean = vec!["GMEAN".to_string()];
    for (ls, n) in logsums.iter().zip(&counts) {
        gmean.push(if *n > 0 {
            format!("{:.3}", (ls / *n as f64).exp())
        } else {
            "-".into()
        });
    }
    t.row(gmean);
    t
}

/// Renders Table 6 itself (the configuration list).
pub fn table_configs() -> Table {
    let mut t = Table::new(
        "Table 6: UM block correlation table configurations",
        &["name", "Assoc", "NumSuccs", "NumRows"],
    );
    for (i, &(a, s, r)) in CONFIGS.iter().enumerate() {
        t.row([
            format!("Config{i}"),
            a.to_string(),
            s.to_string(),
            r.to_string(),
        ]);
    }
    t
}
