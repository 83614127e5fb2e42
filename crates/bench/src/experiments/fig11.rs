//! Figure 11: sensitivity to the degree of prefetching (N).
//!
//! The chaining look-ahead N is swept on the model at its middle batch,
//! and speedup and total-energy ratio are reported relative to N = 8,
//! the paper's normalization point.

use deepum_baselines::report::RunReport;
use deepum_torch::models::ModelKind;

use super::{report, section, Grid, Reports, Verdict};
use crate::grids::middle_batch;

/// The swept look-ahead degrees.
pub const DEGREES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// The model the suite sweeps.
pub const MODEL: ModelKind = ModelKind::Gpt2L;

/// The normalization point.
const BASE_DEGREE: usize = 8;

/// Paper, Fig. 11.
pub const PAPER: &str = "Speedup and energy are inversely related across N with a sweet spot \
at N=32, where speedup is highest and energy lowest; too-aggressive prefetching hurts.";

/// The paper's best degree.
pub const PAPER_BEST_DEGREE: usize = 32;

/// Suite cell tag of degree `n`.
pub fn tag(n: usize) -> String {
    format!("deepum-N{n}")
}

/// Fig. 11(a) speedup and (b) energy ratio, relative to N = 8.
pub fn render(reports: &Reports) -> String {
    let batch = middle_batch(MODEL);
    let runs: Vec<_> = DEGREES
        .iter()
        .map(|&n| report(reports, "", MODEL, batch, &tag(n)))
        .collect();
    let base = runs[DEGREES
        .iter()
        .position(|&n| n == BASE_DEGREE)
        .expect("8 in sweep")];
    let relative = |metric: fn(&RunReport) -> f64, invert: bool| {
        let mut g = Grid::new(DEGREES.iter().map(|n| format!("N={n}")));
        let values = runs.iter().map(|run| {
            let (v, b) = (metric((*run)?), metric(base?));
            (v > 0.0 && b > 0.0).then(|| if invert { b / v } else { v / b })
        });
        g.push(MODEL.label(), None, values.collect());
        g
    };
    let speedup = relative(|r| r.steady_iter_time().as_nanos() as f64, true);
    let energy = relative(RunReport::steady_iter_energy, false);
    let three = |_: &str, v: f64| format!("{v:.3}");
    section(
        "Fig. 11 — sensitivity to prefetch degree N",
        PAPER,
        &[
            speedup.table("Fig 11(a): speedup relative to N=8 (middle batch)", three),
            energy.table(
                "Fig 11(b): energy ratio relative to N=8 (middle batch)",
                three,
            ),
        ],
        &[inverted_u(&speedup)],
    )
}

/// Speedup over N peaks strictly inside [`DEGREES`]: both the smallest
/// and the largest degree run slower than the best one.
pub fn inverted_u(speedup: &Grid) -> Verdict {
    let last = DEGREES.len() - 1;
    Verdict::all(
        "inverted_u",
        speedup.rows.iter().map(|row| {
            let best = row
                .values
                .iter()
                .enumerate()
                .filter_map(|(i, v)| Some((i, (*v)?)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match (best, row.values[0], row.values[last]) {
                (Some((i, peak)), Some(first), Some(end)) => (
                    i > 0 && i < last,
                    format!(
                        "{} peaks at N={} ({peak:.3}); N={} {first:.3}, N={} {end:.3} \
                         (paper: peak at N={PAPER_BEST_DEGREE})",
                        row.model, DEGREES[i], DEGREES[0], DEGREES[last]
                    ),
                ),
                _ => (false, format!("{}: a degree did not run", row.model)),
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(values: [f64; 10]) -> Grid {
        let mut g = Grid::new(DEGREES.iter().map(|n| format!("N={n}")));
        g.push("gpt2-l", None, values.map(Some).to_vec());
        g
    }

    #[test]
    fn an_interior_peak_is_an_inverted_u() {
        let v = inverted_u(&sweep([0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.15, 1.1, 1.0, 0.9]));
        assert!(v.holds, "{}", v.detail);
        assert!(
            v.detail.starts_with("gpt2-l peaks at N=32 (1.200)"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn a_peak_at_either_end_is_a_deviation() {
        let rising = sweep([0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.25, 1.3, 1.35, 1.4]);
        assert!(!inverted_u(&rising).holds);
        let falling = sweep([1.4, 1.3, 1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]);
        assert!(!inverted_u(&falling).holds);
        let mut missing = sweep([0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.15, 1.1, 1.0, 0.9]);
        missing.rows[0].values[9] = None;
        assert!(!inverted_u(&missing).holds);
    }
}
