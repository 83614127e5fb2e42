//! Table 6 + Figure 12: UM-block correlation-table geometry sweep.
//!
//! The thirteen (Assoc, NumSuccs, NumRows) configurations of Table 6 run
//! on the model at its middle batch, and each configuration's speedup
//! over Config0 is reported.

use deepum_torch::models::ModelKind;

use super::{gmean, report, section, Grid, Reports, Verdict};
use crate::grids::middle_batch;
use crate::table::Table;

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

/// The model the suite sweeps.
pub const MODEL: ModelKind = ModelKind::BertLarge;

/// Paper, Table 6 + Fig. 12.
pub const PAPER: &str = "Thirteen (Assoc, NumSuccs, NumRows) configurations; Config9 (2048 \
rows, 2-way, 4 successors) is best on average; spreads are small.";

/// The paper's best configuration.
pub const PAPER_BEST_CONFIG: usize = 9;

/// Suite cell tag of configuration `i`.
pub fn tag(i: usize) -> String {
    format!("deepum-cfg{i}")
}

/// Table 6 (the configuration list) and Fig. 12 (speedup over Config0).
pub fn render(reports: &Reports) -> String {
    let batch = middle_batch(MODEL);
    let times: Vec<Option<f64>> = (0..CONFIGS.len())
        .map(|i| {
            report(reports, "", MODEL, batch, &tag(i))
                .map(|r| r.steady_iter_time().as_nanos() as f64)
                .filter(|&t| t > 0.0)
        })
        .collect();
    let mut g = Grid::new((0..CONFIGS.len()).map(|i| format!("cfg{i}")));
    g.push(
        MODEL.label(),
        None,
        times.iter().map(|t| Some(times[0]? / (*t)?)).collect(),
    );
    section(
        "Table 6 + Fig. 12 — block-table geometry",
        PAPER,
        &[
            table_configs(),
            g.with_summary("GMEAN", gmean).table(
                "Fig 12: speedup of each block-table configuration over Config0",
                |_, v| format!("{v:.3}"),
            ),
        ],
        &[paper_config_best(&g)],
    )
}

/// The paper's best configuration has the highest GMEAN speedup.
pub fn paper_config_best(speedup: &Grid) -> Verdict {
    let summary = speedup.summary(gmean);
    let best = summary
        .iter()
        .enumerate()
        .filter_map(|(i, v)| Some((i, (*v)?)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let check = match (best, summary[PAPER_BEST_CONFIG]) {
        (Some((i, top)), Some(paper)) => (
            paper >= top,
            format!(
                "GMEAN {} {paper:.3} vs best {} {top:.3} (paper: Config{PAPER_BEST_CONFIG} best)",
                speedup.columns[PAPER_BEST_CONFIG], speedup.columns[i]
            ),
        ),
        _ => (false, "a configuration did not run".into()),
    };
    Verdict::all("paper_config_best", [check])
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(best: usize) -> Grid {
        let mut g = Grid::new((0..CONFIGS.len()).map(|i| format!("cfg{i}")));
        let values = (0..CONFIGS.len())
            .map(|i| Some(if i == best { 1.05 } else { 1.0 }))
            .collect();
        g.push("bert-large", None, values);
        g
    }

    #[test]
    fn config9_on_top_holds() {
        let v = paper_config_best(&sweep(9));
        assert!(v.holds, "{}", v.detail);
        assert_eq!(
            v.detail,
            "GMEAN cfg9 1.050 vs best cfg9 1.050 (paper: Config9 best)"
        );
    }

    #[test]
    fn another_config_on_top_is_a_deviation() {
        assert!(!paper_config_best(&sweep(12)).holds);
        let mut missing = sweep(9);
        missing.rows[0].values[9] = None;
        assert!(!paper_config_best(&missing).holds);
    }
}
