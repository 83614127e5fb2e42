//! Table 7: maximum possible batch sizes of the TensorFlow-based
//! approaches and DeepUM (V100 16 GB, host capped at 128 GB).
//!
//! Each system's bound is probed by executing two iterations of the
//! swap path (device-pool fragmentation decides); DeepUM's by the
//! allocation replay against the 128 GB UM budget.

use deepum_torch::models::ModelKind;

use super::{section, Grid, Verdict};
use crate::experiments::fig13;
use crate::experiments::table03::{deepum_alloc_probe, max_batch, search_cap};
use crate::suite::{SUITE_ITERS, SUITE_SEED};
use crate::table::num;
use deepum_baselines::suite::{run_system, RunParams, System};

/// The Table 7 workloads with search starting points.
pub const MODELS: &[(ModelKind, usize)] = &[
    (ModelKind::ResNet200Cifar, 4096),
    (ModelKind::BertLargeCola, 24),
    (ModelKind::Dcgan, 1024),
    (ModelKind::MobileNet, 1024),
];

/// Paper, Table 7.
pub const PAPER: &str = "DeepUM's maximum batches exceed every TF-based system on all four \
models (e.g. BERT-Large/CoLA: 25-28 for TF systems vs 64 for DeepUM); vDNN cannot run BERT at \
all. Host capped at 128 GB.";

/// Runs the Table 7 search: per system the largest batch it completes
/// two iterations of (0 = does not work at all), and DeepUM's.
pub fn search() -> Grid {
    let systems = fig13::tf_systems();
    let mut g = Grid::new(systems.iter().map(System::label).chain(["deepum"]));
    let params = RunParams::v100_16gb(SUITE_ITERS, SUITE_SEED);
    let host = params.costs.host_memory_bytes;
    for &(model, start) in MODELS {
        let cap = search_cap(start);
        let mut values: Vec<Option<f64>> = systems
            .iter()
            .map(|system| {
                let ok = |b| run_system(system, &model.build(b), &params).is_ok();
                Some(max_batch(start, cap, ok) as f64)
            })
            .collect();
        let deepum = max_batch(start, cap, |b| deepum_alloc_probe(model, b, host));
        values.push(Some(deepum as f64));
        g.push(model.label(), None, values);
    }
    g
}

/// Table 7: maximum batch sizes vs the TF-based approaches.
pub fn render() -> String {
    let g = search();
    section(
        "Table 7 — max batch vs TF-based systems",
        PAPER,
        &[g.table(
            "Table 7: maximum batch sizes vs TF-based approaches (V100 16GB, 128GB host)",
            |_, v| {
                if v == 0.0 {
                    "not work".into()
                } else {
                    format!("{v:.0}")
                }
            },
        )],
        &[deepum_above_tf_systems(&g), vdnn_not_work_on_bert(&g)],
    )
}

/// On every model DeepUM's maximum batch exceeds every TF-based
/// system's.
pub fn deepum_above_tf_systems(max_batches: &Grid) -> Verdict {
    Verdict::all(
        "deepum_above_tf_systems",
        max_batches.rows.iter().map(|row| {
            let d = max_batches.get(row, "deepum").unwrap_or(0.0);
            let others: Vec<(&String, f64)> = max_batches
                .columns
                .iter()
                .filter(|c| *c != "deepum")
                .map(|c| (c, max_batches.get(row, c).unwrap_or(0.0)))
                .collect();
            let shown: Vec<String> = others.iter().map(|(c, v)| format!("{c} {v:.0}")).collect();
            (
                others.iter().all(|&(_, v)| d > v),
                format!("{} DeepUM {d:.0} vs {}", row.model, shown.join(", ")),
            )
        }),
    )
}

/// vDNN does not run BERT-Large/CoLA at any batch.
pub fn vdnn_not_work_on_bert(max_batches: &Grid) -> Verdict {
    let bert = ModelKind::BertLargeCola.label();
    let vdnn = max_batches
        .rows
        .iter()
        .find(|r| r.model == bert)
        .and_then(|r| max_batches.get(r, "vdnn"));
    let detail = format!("vDNN max batch on {bert}: {}", num(vdnn, 0));
    Verdict::all("vdnn_not_work_on_bert", [(vdnn == Some(0.0), detail)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(resnet: [f64; 6], bert: [f64; 6]) -> Grid {
        let mut g = Grid::new([
            "vdnn",
            "autotm",
            "swapadvisor",
            "capuchin",
            "sentinel",
            "deepum",
        ]);
        g.push("resnet200-cifar", None, resnet.map(Some).to_vec());
        g.push("bert-large-cola", None, bert.map(Some).to_vec());
        g
    }

    #[test]
    fn deepum_above_every_system_holds() {
        let g = grid(
            [3000.0, 3100.0, 3200.0, 3300.0, 3400.0, 3500.0],
            [0.0, 25.0, 26.0, 27.0, 28.0, 64.0],
        );
        let v = deepum_above_tf_systems(&g);
        assert!(v.holds, "{}", v.detail);
        assert!(
            v.detail.starts_with(
                "resnet200-cifar DeepUM 3500 vs vdnn 3000, autotm 3100, swapadvisor 3200, \
                 capuchin 3300, sentinel 3400; bert-large-cola DeepUM 64 vs vdnn 0,"
            ),
            "{}",
            v.detail
        );
        assert!(vdnn_not_work_on_bert(&g).holds);
    }

    #[test]
    fn a_tie_or_a_working_vdnn_is_a_deviation() {
        let g = grid(
            [3454.0, 3454.0, 3454.0, 3454.0, 3454.0, 3440.0],
            [12.0, 25.0, 26.0, 27.0, 28.0, 64.0],
        );
        let v = deepum_above_tf_systems(&g);
        assert!(!v.holds);
        assert!(
            v.detail
                .starts_with("**resnet200-cifar DeepUM 3440 vs vdnn 3454,"),
            "{}",
            v.detail
        );
        // The BERT row still holds: only the failing check is bold.
        assert!(
            v.detail.contains("; bert-large-cola DeepUM 64"),
            "{}",
            v.detail
        );
        let v = vdnn_not_work_on_bert(&g);
        assert!(!v.holds);
        assert_eq!(v.detail, "**vDNN max batch on bert-large-cola: 12**");
    }
}
