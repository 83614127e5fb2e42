//! Table 7: maximum possible batch sizes of the TensorFlow-based
//! approaches and DeepUM (V100 16 GB, host capped at 128 GB).
//!
//! Each system's bound is probed by executing two iterations of the
//! swap path (device-pool fragmentation decides); DeepUM's by the
//! allocation replay against the 128 GB UM budget.

use deepum_torch::models::ModelKind;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::experiments::table03::{deepum_alloc_probe, max_batch};
use crate::opts::Opts;
use crate::table::Table;
use deepum_baselines::suite::{run_system, RunParams, System};

/// The Table 7 workloads with search starting points.
pub const MODELS: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet200Cifar, 4096),
    (ModelKind::BertLargeCola, 24),
    (ModelKind::Dcgan, 1024),
    (ModelKind::MobileNet, 1024),
];

/// The Table 7 systems, in presentation order.
pub fn systems() -> Vec<System> {
    vec![
        System::Vdnn,
        System::AutoTm,
        System::SwapAdvisor,
        System::Capuchin,
        System::Sentinel,
    ]
}

/// Result row: per-system maximum batch (0 = does not work at all).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfMaxBatchRow {
    /// Model label.
    pub model: String,
    /// Max batch per system, [`systems`] order.
    pub per_system: Vec<usize>,
    /// DeepUM's max batch.
    pub deepum: usize,
}

/// Runs the Table 7 search.
pub fn run(opts: &Opts) -> Vec<TfMaxBatchRow> {
    let cache = RunCache::new(&opts.out);
    let mut rows = Vec::new();
    for &(model, start) in MODELS {
        if !opts.selected(model.label()) {
            continue;
        }
        let mut params = RunParams::v100_16gb(2, opts.seed);
        params.costs.device_memory_bytes = opts.memory(params.costs.device_memory_bytes);
        params.costs.host_memory_bytes = opts.memory(params.costs.host_memory_bytes);
        let host = params.costs.host_memory_bytes;
        let start = opts.batch(start);
        let cap = start.saturating_mul(512).max(1024);

        let per_system = systems()
            .iter()
            .map(|system| {
                max_batch(start, cap, |b| {
                    let key = format!(
                        "max16-{}-{}-b{}-sc{}",
                        system.label(),
                        model.label(),
                        b,
                        opts.scale
                    );
                    cache
                        .run(&key, || run_system(system, &model.build(b), &params))
                        .is_ok()
                })
            })
            .collect();
        let deepum = max_batch(start, cap, |b| deepum_alloc_probe(model, b, host));
        rows.push(TfMaxBatchRow {
            model: model.label().into(),
            per_system,
            deepum,
        });
    }
    rows
}

/// Renders Table 7.
pub fn table(rows: &[TfMaxBatchRow]) -> Table {
    let headers: Vec<String> = std::iter::once("model".to_string())
        .chain(systems().iter().map(|s| s.label().to_string()))
        .chain(std::iter::once("deepum".to_string()))
        .collect();
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table 7: maximum batch sizes vs TF-based approaches (V100 16GB, 128GB host)",
        &hdr_refs,
    );
    for r in rows {
        let mut cells = vec![r.model.clone()];
        for &b in &r.per_system {
            cells.push(if b == 0 {
                "not work".into()
            } else {
                b.to_string()
            });
        }
        cells.push(r.deepum.to_string());
        t.row(cells);
    }
    t
}
