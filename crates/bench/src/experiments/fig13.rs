//! Figure 13: comparison with the TensorFlow-based approaches on the
//! V100 16 GB.
//!
//! Runs vDNN, AutoTM, SwapAdvisor, Capuchin, Sentinel, DeepUM, and Ideal
//! on the Section 6.4 workloads (ResNet-200/CIFAR-10, BERT-Large/CoLA,
//! DCGAN/celebA, MobileNet/CIFAR-100) and reports speedups over naive
//! UM. The paper's headline: DeepUM is faster than everything except
//! Sentinel, to which it is comparable — while being the only fully
//! transparent system.

use deepum_baselines::report::{RunError, RunReport};
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::grids::FIG13_GRID;
use crate::opts::Opts;
use crate::table::{ratio, Table};
use deepum_baselines::suite::{run_system, RunParams, System};

/// The Fig. 13 systems, in presentation order.
pub fn systems() -> Vec<System> {
    vec![
        System::Vdnn,
        System::AutoTm,
        System::SwapAdvisor,
        System::Capuchin,
        System::Sentinel,
        System::deepum(),
        System::Ideal,
    ]
}

/// Results for one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompareRow {
    /// Model label.
    pub model: String,
    /// Batch size.
    pub batch: usize,
    /// Baseline UM run.
    pub um: Result<RunReport, RunError>,
    /// Per-system runs, in [`systems`] order.
    pub runs: Vec<Result<RunReport, RunError>>,
}

/// Runs the comparison grid.
pub fn run(opts: &Opts) -> Vec<CompareRow> {
    let cache = RunCache::new(&opts.out);
    let mut rows = Vec::new();
    for &(model, batch) in FIG13_GRID {
        if !opts.selected(model.label()) {
            continue;
        }
        let batch = opts.batch(batch);
        let workload = model.build(batch);
        let mut params = RunParams::v100_16gb(opts.iters, opts.seed);
        params.costs.device_memory_bytes = opts.memory(params.costs.device_memory_bytes);
        params.costs.host_memory_bytes = opts.memory(params.costs.host_memory_bytes);

        let mut run = |system: &System| {
            let key = format!(
                "16g-{}-b{}-{}-i{}-s{}-sc{}",
                model.label(),
                batch,
                system.label(),
                opts.iters,
                opts.seed,
                opts.scale
            );
            cache.run(&key, || run_system(system, &workload, &params))
        };

        let um = run(&System::Um);
        let runs = systems().iter().map(&mut run).collect();
        rows.push(CompareRow {
            model: model.label().into(),
            batch,
            um,
            runs,
        });
    }
    rows
}

/// Renders the speedup table.
pub fn table(rows: &[CompareRow]) -> Table {
    let headers: Vec<String> = ["model", "batch"]
        .iter()
        .map(|s| s.to_string())
        .chain(systems().iter().map(|s| s.label().to_string()))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Fig 13: speedup over naive UM (V100 16GB, TF-based comparison)",
        &hdr_refs,
    );
    for r in rows {
        let mut cells = vec![r.model.clone(), r.batch.to_string()];
        for run in &r.runs {
            let s = match (run, &r.um) {
                (Ok(sys), Ok(um)) => Some(sys.speedup_over(um)),
                _ => None,
            };
            cells.push(ratio(s));
        }
        t.row(cells);
    }
    t
}
