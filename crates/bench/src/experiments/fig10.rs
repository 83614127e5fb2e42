//! Figure 10: effects of prefetching and the fault-handling
//! optimizations.
//!
//! Each model runs at its middle batch under naive UM and the three
//! DeepUM ablation levels (Prefetching, +Pre-eviction, +Invalidate), and
//! execution time is reported normalized to UM.

use deepum_core::config::DeepumConfig;
use deepum_torch::models::ModelKind;

use super::{mean, report, section, Grid, Reports, Verdict};
use crate::grids::middle_batch;

/// The models the suite ablates, in suite order.
pub const MODELS: &[ModelKind] = &[ModelKind::BertLarge, ModelKind::Gpt2Xl, ModelKind::Gpt2L];

/// The partial ablation levels the suite adds per model, by cell tag.
/// Full DeepUM is the model's Fig. 9 `deepum` cell.
pub fn ablations() -> [(&'static str, DeepumConfig); 2] {
    [
        ("abl-prefetch", DeepumConfig::prefetch_only()),
        ("abl-preevict", DeepumConfig::prefetch_preevict()),
    ]
}

/// Paper, Fig. 10.
pub const PAPER: &str = "Prefetching alone cuts 45.6% of execution time on average, \
+Pre-eviction 63.7%, +Invalidate 66.7%; DLRM gains nothing; BERT-Base/b29 gains little.";

const LEVELS: [(&str, &str); 3] = [
    ("prefetch", "abl-prefetch"),
    ("+preevict", "abl-preevict"),
    ("+invalidate", "deepum"),
];

/// Fig. 10: steady iteration time of each level over UM's.
pub fn render(reports: &Reports) -> String {
    let mut g = Grid::new(LEVELS.map(|(column, _)| column));
    for &model in MODELS {
        let batch = middle_batch(model);
        let time = |tag| {
            report(reports, "", model, batch, tag).map(|r| r.steady_iter_time().as_nanos() as f64)
        };
        let um = time("um").filter(|&t| t > 0.0);
        let values = LEVELS
            .iter()
            .map(|&(_, tag)| Some(time(tag)? / um?))
            .collect();
        g.push(model.label(), Some(batch), values);
    }
    section(
        "Fig. 10 — optimization ablation",
        PAPER,
        &[g.with_summary("MEAN", mean).table(
            "Fig 10: runtime normalized to naive UM (lower is better)",
            |_, v| format!("{v:.3}"),
        )],
        &[ablation_monotone(&g)],
    )
}

/// On every model each level runs no slower than the one before it,
/// starting from naive UM at 1.0.
pub fn ablation_monotone(normalized: &Grid) -> Verdict {
    Verdict::all(
        "ablation_monotone",
        normalized.rows.iter().map(|row| {
            let levels: Option<Vec<f64>> = std::iter::once(Some(1.0))
                .chain(row.values.iter().copied())
                .collect();
            let shown = match &levels {
                Some(l) => l
                    .iter()
                    .map(|v| format!("{v:.3}"))
                    .collect::<Vec<_>>()
                    .join(" → "),
                None => "a level did not run".into(),
            };
            let monotone = levels.is_some_and(|l| l.windows(2).all(|w| w[1] <= w[0]));
            (monotone, format!("{} {shown}", row.model))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: &[[Option<f64>; 3]]) -> Grid {
        let mut g = Grid::new(LEVELS.map(|(column, _)| column));
        for r in rows {
            g.push("gpt2-l", Some(5), r.to_vec());
        }
        g
    }

    #[test]
    fn monotone_levels_hold() {
        let v = ablation_monotone(&grid(&[[Some(0.30), Some(0.25), Some(0.20)]]));
        assert!(v.holds, "{}", v.detail);
        assert_eq!(v.detail, "gpt2-l 1.000 → 0.300 → 0.250 → 0.200");
        // Equal levels still count as monotone.
        assert!(ablation_monotone(&grid(&[[Some(1.0), Some(0.5), Some(0.5)]])).holds);
    }

    #[test]
    fn a_slower_level_or_a_missing_one_is_a_deviation() {
        let slower = grid(&[
            [Some(0.30), Some(0.25), Some(0.20)],
            [Some(1.05), Some(0.60), Some(0.50)],
        ]);
        assert!(!ablation_monotone(&slower).holds);
        assert!(!ablation_monotone(&grid(&[[Some(0.3), None, Some(0.2)]])).holds);
    }
}
