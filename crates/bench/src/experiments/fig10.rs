//! Figure 10: effects of prefetching and the fault-handling
//! optimizations.
//!
//! Runs each model at its middle batch under naive UM and the three
//! DeepUM ablation levels — Prefetching, Prefetching+Preeviction, and
//! Prefetching+Preeviction+Invalidate — and reports execution time
//! normalized to UM (the paper reports average reductions of 45.6%,
//! 63.7%, and 66.7%).

use deepum_core::config::DeepumConfig;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::grids::{middle_batch, FIG9_GRID};
use crate::opts::Opts;
use crate::table::Table;
use deepum_baselines::suite::{run_system, RunParams, System};

/// Normalized runtimes for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Runtime with correlation prefetching only / UM.
    pub prefetch: Option<f64>,
    /// + page pre-eviction.
    pub preevict: Option<f64>,
    /// + inactive-PT-block invalidation (full DeepUM).
    pub invalidate: Option<f64>,
}

/// Runs the ablation across the Fig. 9 models.
pub fn run(opts: &Opts) -> Vec<AblationRow> {
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

        let run = |tag: &str, system: System| {
            let key = format!(
                "{}-b{}-{}-i{}-s{}-sc{}",
                row.model.label(),
                batch,
                tag,
                opts.iters,
                opts.seed,
                opts.scale
            );
            cache
                .run(&key, || run_system(&system, &workload, &params))
                .ok()
        };

        let um = run("um", System::Um);
        let pf = run(
            "abl-prefetch",
            System::DeepUm(DeepumConfig::prefetch_only()),
        );
        let pe = run(
            "abl-preevict",
            System::DeepUm(DeepumConfig::prefetch_preevict()),
        );
        let inv = run("deepum", System::deepum());

        let norm = |r: &Option<deepum_baselines::report::RunReport>| match (r, &um) {
            (Some(sys), Some(um)) => {
                let base = um.steady_iter_time().as_nanos() as f64;
                if base > 0.0 {
                    Some(sys.steady_iter_time().as_nanos() as f64 / base)
                } else {
                    None
                }
            }
            _ => None,
        };
        rows.push(AblationRow {
            model: row.model.label().into(),
            batch,
            prefetch: norm(&pf),
            preevict: norm(&pe),
            invalidate: norm(&inv),
        });
    }
    rows
}

/// Renders the ablation table (normalized runtime, lower is better).
pub fn table(rows: &[AblationRow]) -> Table {
    let mut t = Table::new(
        "Fig 10: runtime normalized to naive UM (lower is better)",
        &["model", "batch", "prefetch", "+preevict", "+invalidate"],
    );
    let fmt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "-".into());
    let mut sums = (0.0, 0.0, 0.0, 0usize);
    for r in rows {
        if let (Some(a), Some(b), Some(c)) = (r.prefetch, r.preevict, r.invalidate) {
            sums.0 += a;
            sums.1 += b;
            sums.2 += c;
            sums.3 += 1;
        }
        t.row([
            r.model.clone(),
            r.batch.to_string(),
            fmt(r.prefetch),
            fmt(r.preevict),
            fmt(r.invalidate),
        ]);
    }
    if sums.3 > 0 {
        let n = sums.3 as f64;
        t.row([
            "MEAN".into(),
            "-".into(),
            format!("{:.3}", sums.0 / n),
            format!("{:.3}", sums.1 / n),
            format!("{:.3}", sums.2 / n),
        ]);
    }
    t
}
