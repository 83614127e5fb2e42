//! Figure 9 and Tables 4-5: comparison with naive UM and IBM LMS on the
//! V100 32 GB.
//!
//! The seven-model grid runs under UM, LMS, LMS-mod, DeepUM, and Ideal.
//! The same reports give (a) training-throughput speedups over UM, (b)
//! elapsed seconds for 100 training iterations (extrapolated from the
//! measured warm-up + steady-state iterations), (c) the total-energy
//! ratio over UM, Table 4 (correlation-table size), and Table 5 (page
//! faults per iteration).

use deepum_baselines::report::RunReport;
use deepum_torch::models::ModelKind;

use super::{gmean, report, section, Grid, Reports, Verdict};
use crate::grids::fig9_cells;
use crate::table::num;

/// Paper, Fig. 9(a).
pub const PAPER_SPEEDUP: &str = "DeepUM is on average 3.06x faster than UM and 1.11x faster than \
LMS; ideal sits well above both; DLRM shows almost no speedup for either system; BERT-Base at \
batch 29-31 shows only a small effect (~3% oversubscription).";

/// How far from 1.0 DeepUM's DLRM speedup may sit and still count as
/// the paper's "almost no speedup".
pub const DLRM_FLAT_TOLERANCE: f64 = 0.05;

/// Paper, Fig. 9(b).
pub const PAPER_ELAPSED: &str = "e.g. GPT-2 L/b3: UM 1865 s, LMS 885 s, DeepUM 605 s; \
ResNet-200/b1536: UM 57302 s, LMS 7187 s, DeepUM 7235 s.";

/// The Fig. 9(b) cells the paper quotes: seconds for UM, LMS, DeepUM.
pub const PAPER_ELAPSED_CELLS: &[(ModelKind, usize, [f64; 3])] = &[
    (ModelKind::Gpt2L, 3, [1865.0, 885.0, 605.0]),
    (ModelKind::ResNet200, 1536, [57302.0, 7187.0, 7235.0]),
];

/// Paper, Fig. 9(c).
pub const PAPER_ENERGY: &str = "LMS ~32% of UM's energy, DeepUM ~35%; energy tracks speedup.";

/// Paper, Table 4.
pub const PAPER_TABLE_SIZE: &str = "19-348 MB depending on model/batch; grows with distinct \
execution IDs (GPT-2 XL largest at ~308-348 MB).";

/// Paper, Table 5.
pub const PAPER_FAULTS: &str = "UM: 0.09M-208M faults/iter; DeepUM removes >98% of them (<0.1% \
for most models; 0.2-0.9% for DLRM; up to 1.8% for BERT-Base).";

/// Bound on a model's steady DeepUM/UM fault ratio, in percent, from the
/// paper's Table 5: DLRM's and BERT-Base's own maxima, and "<0.1%" for
/// the models it does not single out.
pub fn fault_ratio_bound_pct(model: &str) -> f64 {
    match model {
        "dlrm" => 0.9,
        "bert-base" => 1.8,
        _ => 0.1,
    }
}

/// A grid over the Fig. 9 cells with one column per named cell tag,
/// valued by `f(report, UM report)`.
fn grid(
    reports: &Reports,
    columns: &[&str],
    f: impl Fn(&RunReport, Option<&RunReport>) -> Option<f64>,
) -> Grid {
    let mut g = Grid::new(columns);
    for (model, batch) in fig9_cells() {
        let run = |tag| report(reports, "", model, batch, tag);
        let values = columns
            .iter()
            .map(|tag| run(tag).and_then(|r| f(r, run("um"))))
            .collect();
        g.push(model.label(), Some(batch), values);
    }
    g
}

fn speedup_grid(reports: &Reports) -> Grid {
    grid(reports, &["lms", "lms-mod", "deepum", "ideal"], |r, um| {
        Some(r.speedup_over(um?))
    })
}

/// Fig. 9(a): speedup of each system over naive UM.
pub fn speedup(reports: &Reports) -> String {
    let g = speedup_grid(reports);
    section(
        "Fig. 9(a) — speedup over naive UM",
        PAPER_SPEEDUP,
        &[g.with_summary("GMEAN", gmean).table(
            "Fig 9(a): training-throughput speedup over naive UM (V100 32GB)",
            |_, v| format!("{v:.2}"),
        )],
        &[deepum_gmean_at_least_lms(&g), dlrm_deepum_flat(&g)],
    )
}

/// DeepUM's GMEAN speedup over UM is at least LMS's.
pub fn deepum_gmean_at_least_lms(speedup: &Grid) -> Verdict {
    let summary = speedup.summary(gmean);
    let (d, l) = (
        summary[speedup.column("deepum")],
        summary[speedup.column("lms")],
    );
    let detail = format!(
        "DeepUM GMEAN {} vs LMS GMEAN {} (paper: 3.06 vs 2.76)",
        num(d, 2),
        num(l, 2)
    );
    let holds = matches!((d, l), (Some(d), Some(l)) if d >= l);
    Verdict::all("deepum_gmean_at_least_lms", [(holds, detail)])
}

/// DeepUM's DLRM speedup is 1.0 within [`DLRM_FLAT_TOLERANCE`] at every
/// batch.
pub fn dlrm_deepum_flat(speedup: &Grid) -> Verdict {
    let dlrm = ModelKind::Dlrm.label();
    let mut v = Verdict::all(
        "dlrm_deepum_flat",
        speedup.rows.iter().filter(|r| r.model == dlrm).map(|r| {
            let s = speedup.get(r, "deepum");
            let flat = s.is_some_and(|s| (s - 1.0).abs() <= DLRM_FLAT_TOLERANCE);
            (flat, format!("b{} {}", r.batch.unwrap_or(0), num(s, 2)))
        }),
    );
    v.detail = format!(
        "DeepUM speedup within 1 ± {DLRM_FLAT_TOLERANCE}: {}",
        v.detail
    );
    v
}

/// Fig. 9(b): elapsed seconds for 100 training iterations.
pub fn elapsed(reports: &Reports) -> String {
    let g = grid(reports, &["um", "lms", "lms-mod", "deepum"], |r, _| {
        Some(r.time_for_iterations(100).as_secs_f64())
    });
    section(
        "Fig. 9(b) — elapsed time for 100 iterations",
        PAPER_ELAPSED,
        &[g.table(
            "Fig 9(b): elapsed virtual seconds for 100 training iterations",
            |_, v| format!("{v:.3}"),
        )],
        &[paper_orderings(&g)],
    )
}

/// At the cells the paper quotes, UM, LMS, and DeepUM finish in the
/// paper's order.
pub fn paper_orderings(elapsed: &Grid) -> Verdict {
    const SYSTEMS: [&str; 3] = ["um", "lms", "deepum"];
    let slowest_first = |secs: [f64; 3]| {
        let mut idx = [0, 1, 2];
        idx.sort_by(|&a, &b| secs[b].total_cmp(&secs[a]));
        idx
    };
    let show = |secs: [f64; 3]| {
        slowest_first(secs)
            .map(|i| format!("{} {:.0}", SYSTEMS[i], secs[i]))
            .join(" > ")
    };
    Verdict::all(
        "paper_orderings",
        PAPER_ELAPSED_CELLS.iter().map(|&(model, batch, paper)| {
            let measured = elapsed
                .rows
                .iter()
                .find(|r| r.model == model.label() && r.batch == Some(batch))
                .and_then(|r| {
                    let [um, lms, deepum] = SYSTEMS.map(|s| elapsed.get(r, s));
                    Some([um?, lms?, deepum?])
                });
            let same = measured.is_some_and(|m| slowest_first(m) == slowest_first(paper));
            let got = measured.map_or_else(|| "did not run".into(), show);
            let cell = format!("{} b{batch}", model.label());
            (same, format!("{cell}: {got} (paper: {})", show(paper)))
        }),
    )
}

/// Fig. 9(c): total-energy ratio over naive UM (lower is better).
pub fn energy(reports: &Reports) -> String {
    let g = grid(reports, &["lms", "lms-mod", "deepum"], |r, um| {
        let base = um?.steady_iter_energy();
        (base > 0.0).then(|| r.steady_iter_energy() / base)
    });
    section(
        "Fig. 9(c) — energy ratio over UM",
        PAPER_ENERGY,
        &[g.table(
            "Fig 9(c): total energy ratio over naive UM (lower is better)",
            |_, v| format!("{v:.2}"),
        )],
        &[energy_tracks_speedup(&speedup_grid(reports), &g)],
    )
}

/// Wherever a system runs faster than UM it also uses less energy.
pub fn energy_tracks_speedup(speedup: &Grid, energy: &Grid) -> Verdict {
    Verdict::all(
        "energy_tracks_speedup",
        energy.columns.iter().map(|system| {
            let mut faster = 0;
            let mut misses = Vec::new();
            for (s_row, e_row) in speedup.rows.iter().zip(&energy.rows) {
                let (s, e) = (speedup.get(s_row, system), energy.get(e_row, system));
                if let (Some(s), Some(e)) = (s, e) {
                    faster += usize::from(s > 1.0);
                    if s > 1.0 && e >= 1.0 {
                        let cell = format!("{} b{}", s_row.model, s_row.batch.unwrap_or(0));
                        misses.push(format!("{cell} {s:.2}x at {e:.2}x the energy"));
                    }
                }
            }
            let mut detail = format!(
                "{system}: {} of {faster} cells faster than UM use less energy",
                faster - misses.len()
            );
            if !misses.is_empty() {
                detail.push_str(&format!(" (not {})", misses.join(", ")));
            }
            (misses.is_empty(), detail)
        }),
    )
}

/// Table 4: correlation-table memory per model/batch.
pub fn table_size(reports: &Reports) -> String {
    let mut g = grid(reports, &["deepum"], |r, _| {
        r.table_bytes.map(|b| (b >> 20) as f64)
    });
    g.columns = vec!["table size (MB)".into()];
    section(
        "Table 4 — correlation table size",
        PAPER_TABLE_SIZE,
        &[g.table("Table 4: correlation table size", |_, v| format!("{v:.0}"))],
        &[gpt2_xl_table_largest(&g)],
    )
}

/// GPT-2 XL has the largest correlation table of the grid.
pub fn gpt2_xl_table_largest(sizes: &Grid) -> Verdict {
    let largest = sizes
        .rows
        .iter()
        .filter_map(|r| Some((r, r.values[0]?)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    Verdict::all(
        "gpt2_xl_table_largest",
        largest.map(|(r, mb)| {
            let cell = format!("{} b{}", r.model, r.batch.unwrap_or(0));
            (
                r.model == ModelKind::Gpt2Xl.label(),
                format!("largest table: {cell} at {mb:.0} MB (paper: GPT-2 XL, ~308-348 MB)"),
            )
        }),
    )
}

/// Table 5: average page faults per training iteration, UM vs DeepUM.
pub fn faults(reports: &Reports) -> String {
    let mut g = grid(reports, &["um", "deepum"], |r, _| {
        Some(r.steady_faults_per_iter() as f64)
    });
    g.columns = vec!["um faults".into(), "deepum faults".into(), "ratio".into()];
    for row in &mut g.rows {
        let pct = match row.values[..] {
            [Some(u), Some(d)] if u > 0.0 => Some(100.0 * d / u),
            _ => None,
        };
        row.values.push(pct);
    }
    section(
        "Table 5 — page faults per iteration",
        PAPER_FAULTS,
        &[g.table(
            "Table 5: page faults per training iteration",
            |col, v| match col {
                "ratio" => format!("{v:.1}%"),
                _ => format!("{v:.0}"),
            },
        )],
        &[fault_ratio_within_bound(&g)],
    )
}

/// Every model's steady DeepUM/UM fault ratio stays within its
/// [`fault_ratio_bound_pct`]; where UM never faults, DeepUM must not
/// either.
pub fn fault_ratio_within_bound(faults: &Grid) -> Verdict {
    let mut models: Vec<&str> = faults.rows.iter().map(|r| r.model).collect();
    models.dedup();
    let checks = models.into_iter().map(|model| {
        let bound = fault_ratio_bound_pct(model);
        let (mut ok, mut worst) = (true, None::<f64>);
        for r in faults.rows.iter().filter(|r| r.model == model) {
            match r.values[..] {
                [_, _, Some(pct)] => {
                    worst = Some(worst.map_or(pct, |w| w.max(pct)));
                    ok &= pct <= bound;
                }
                [Some(_), Some(d), None] => ok &= d == 0.0,
                _ => ok = false,
            }
        }
        let worst = worst.map_or_else(|| "no UM faults".into(), |w| format!("max {w:.1}%"));
        (ok, format!("{model} {worst} (bound {bound}%)"))
    });
    Verdict::all("fault_ratio_within_bound", checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups(rows: &[(&'static str, usize, [f64; 4])]) -> Grid {
        let mut g = Grid::new(["lms", "lms-mod", "deepum", "ideal"]);
        for &(model, batch, v) in rows {
            g.push(model, Some(batch), v.map(Some).to_vec());
        }
        g
    }

    #[test]
    fn gmean_predicate_compares_deepum_with_lms() {
        let ahead = speedups(&[("gpt2-xl", 3, [2.0, 2.0, 3.0, 8.0])]);
        assert!(deepum_gmean_at_least_lms(&ahead).holds);
        let behind = speedups(&[
            ("gpt2-xl", 3, [2.0, 2.0, 3.0, 8.0]),
            ("resnet152", 1280, [2.2, 2.2, 1.0, 5.0]),
        ]);
        let v = deepum_gmean_at_least_lms(&behind);
        assert!(!v.holds);
        assert_eq!(
            v.detail,
            "**DeepUM GMEAN 1.73 vs LMS GMEAN 2.10 (paper: 3.06 vs 2.76)**"
        );
    }

    #[test]
    fn dlrm_predicate_needs_every_batch_near_one() {
        let flat = speedups(&[
            ("dlrm", 96_000, [2.3, 2.3, 1.0, 3.0]),
            ("dlrm", 128_000, [2.3, 2.3, 1.04, 3.0]),
            ("gpt2-l", 3, [2.0, 2.0, 3.0, 7.0]),
        ]);
        let v = dlrm_deepum_flat(&flat);
        assert!(v.holds, "{}", v.detail);
        assert_eq!(
            v.detail,
            "DeepUM speedup within 1 ± 0.05: b96000 1.00; b128000 1.04"
        );
        let mut gains = flat.clone();
        gains.rows[1].values[2] = Some(1.2);
        assert!(!dlrm_deepum_flat(&gains).holds);
        let mut oom = flat;
        oom.rows[0].values[2] = None;
        assert!(!dlrm_deepum_flat(&oom).holds);
    }

    fn elapsed(gpt2: [f64; 3], resnet: [f64; 3]) -> Grid {
        let mut g = Grid::new(["um", "lms", "lms-mod", "deepum"]);
        for (model, batch, [um, lms, deepum]) in [("gpt2-l", 3, gpt2), ("resnet200", 1536, resnet)]
        {
            let values = vec![Some(um), Some(lms), Some(lms), Some(deepum)];
            g.push(model, Some(batch), values);
        }
        g
    }

    #[test]
    fn orderings_follow_the_paper_cells() {
        let same = elapsed([1711.0, 569.0, 498.0], [13037.0, 5971.0, 7645.0]);
        let v = paper_orderings(&same);
        assert!(v.holds, "{}", v.detail);
        assert!(v.detail.starts_with(
            "gpt2-l b3: um 1711 > lms 569 > deepum 498 (paper: um 1865 > lms 885 > deepum 605)"
        ));
        let swapped = elapsed([1711.0, 498.0, 569.0], [13037.0, 5971.0, 7645.0]);
        assert!(!paper_orderings(&swapped).holds);
    }

    #[test]
    fn energy_must_fall_where_speed_rises() {
        let mut speed = Grid::new(["lms", "deepum"]);
        speed.push("bert-base", Some(29), vec![Some(1.01), Some(1.0)]);
        speed.push("gpt2-l", Some(3), vec![Some(3.0), Some(3.5)]);
        let mut energy = Grid::new(["lms", "deepum"]);
        energy.push("bert-base", Some(29), vec![Some(0.99), Some(1.0)]);
        energy.push("gpt2-l", Some(3), vec![Some(0.4), Some(0.3)]);
        let v = energy_tracks_speedup(&speed, &energy);
        assert!(v.holds, "{}", v.detail);
        assert_eq!(
            v.detail,
            "lms: 2 of 2 cells faster than UM use less energy; \
             deepum: 1 of 1 cells faster than UM use less energy"
        );
        energy.rows[0].values[0] = Some(1.12);
        let v = energy_tracks_speedup(&speed, &energy);
        assert!(!v.holds);
        assert!(
            v.detail.starts_with(
                "**lms: 1 of 2 cells faster than UM use less energy \
                 (not bert-base b29 1.01x at 1.12x the energy)**"
            ),
            "{}",
            v.detail
        );
    }

    #[test]
    fn table_size_predicate_finds_the_largest_table() {
        let mut g = Grid::new(["table size (MB)"]);
        g.push("gpt2-xl", Some(3), vec![Some(183.0)]);
        g.push("gpt2-l", Some(3), vec![Some(137.0)]);
        g.push("dlrm", Some(96_000), vec![None]);
        assert!(gpt2_xl_table_largest(&g).holds);
        g.rows[1].values[0] = Some(200.0);
        assert!(!gpt2_xl_table_largest(&g).holds);
    }

    fn faults(rows: &[(&'static str, f64, f64)]) -> Grid {
        let mut g = Grid::new(["um faults", "deepum faults", "ratio"]);
        for &(model, um, dm) in rows {
            let pct = (um > 0.0).then(|| 100.0 * dm / um);
            g.push(model, Some(1), vec![Some(um), Some(dm), pct]);
        }
        g
    }

    #[test]
    fn fault_ratio_is_bounded_per_model() {
        let paper_like = faults(&[
            ("gpt2-xl", 1e7, 5e3),
            ("dlrm", 2e5, 1e3),
            ("bert-base", 0.0, 0.0),
        ]);
        let v = fault_ratio_within_bound(&paper_like);
        assert!(v.holds, "{}", v.detail);
        assert_eq!(
            v.detail,
            "gpt2-xl max 0.1% (bound 0.1%); dlrm max 0.5% (bound 0.9%); \
             bert-base no UM faults (bound 1.8%)"
        );
        // 0.5% is inside DLRM's bound but outside GPT-2 XL's.
        let v = fault_ratio_within_bound(&faults(&[("gpt2-xl", 2e5, 1e3)]));
        assert!(!v.holds);
        // DeepUM faulting where UM never did is a deviation too.
        assert!(!fault_ratio_within_bound(&faults(&[("bert-base", 0.0, 10.0)])).holds);
    }
}
