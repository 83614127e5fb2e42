//! EXPERIMENTS.md, rendered from the suite's own reports.
//!
//! One module per paper artifact. Each finds the reports of its suite
//! cells through the same [`grid_key`] that built them, reduces them to
//! a [`Grid`] of numbers, prints it, and judges it with named predicates
//! over those numbers; the paper's claims are constants beside each
//! renderer. Only Table 3 and Table 7's max-batch searches simulate here:
//! they are not grid cells. The document records the [`grid_digest`] of
//! the reports it was rendered from ([`digest_line`]).

pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod table03;
pub mod table07;
pub mod table08;

use deepum_baselines::report::{RunError, RunReport};
use deepum_torch::models::ModelKind;

use crate::suite::{digest, grid_digest, grid_key, report_json, SuiteCell};
use crate::table::{num, Table};

/// The suite's `(cell, result)` list, in `suite_cells()` order.
pub type Reports = [(SuiteCell, Result<RunReport, RunError>)];

/// Report of the cell `grid_key(prefix, model, batch, tag)`; `None` when
/// the run ended in a typed error (the paper's OOM bars). Panics if the
/// suite has no such cell.
pub fn report<'a>(
    reports: &'a Reports,
    prefix: &str,
    model: ModelKind,
    batch: usize,
    tag: &str,
) -> Option<&'a RunReport> {
    let key = grid_key(prefix, model, batch, tag);
    let (_, result) = reports
        .iter()
        .find(|(cell, _)| cell.key == key)
        .unwrap_or_else(|| panic!("{key} is not a suite cell"));
    result.as_ref().ok()
}

/// A section's numbers: one row per model (and batch), one column per
/// system or setting; `None` where a run ended in a typed error.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows, in presentation order.
    pub rows: Vec<Row>,
}

/// One row of a [`Grid`].
#[derive(Debug, Clone)]
pub struct Row {
    /// Model label (or a summary label such as `GMEAN`).
    pub model: &'static str,
    /// Batch size, when the section varies it.
    pub batch: Option<usize>,
    /// One value per column.
    pub values: Vec<Option<f64>>,
}

impl Grid {
    /// An empty grid with the given columns.
    pub fn new<S: ToString>(columns: impl IntoIterator<Item = S>) -> Self {
        Grid {
            columns: columns.into_iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, model: &'static str, batch: Option<usize>, values: Vec<Option<f64>>) {
        debug_assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push(Row {
            model,
            batch,
            values,
        });
    }

    /// Index of the named column; panics if there is none.
    pub fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    }

    /// `row`'s value in the named column.
    pub fn get(&self, row: &Row, column: &str) -> Option<f64> {
        row.values[self.column(column)]
    }

    /// Per-column `f` over the rows that have every value; `None` when
    /// no row is complete.
    pub fn summary(&self, f: fn(&[f64]) -> f64) -> Vec<Option<f64>> {
        let complete: Vec<Vec<f64>> = self
            .rows
            .iter()
            .filter_map(|r| r.values.iter().copied().collect())
            .collect();
        (0..self.columns.len())
            .map(|i| {
                let column: Vec<f64> = complete.iter().map(|r| r[i]).collect();
                (!column.is_empty()).then(|| f(&column))
            })
            .collect()
    }

    /// This grid plus a `label` row of [`Grid::summary`].
    pub fn with_summary(&self, label: &'static str, f: fn(&[f64]) -> f64) -> Grid {
        let mut g = self.clone();
        g.push(label, None, self.summary(f));
        g
    }

    /// Renders as a table; `fmt` formats a present value of the named
    /// column, absent values print as `-`.
    pub fn table(&self, title: &str, fmt: impl Fn(&str, f64) -> String) -> Table {
        let batched = self.rows.iter().any(|r| r.batch.is_some());
        let headers: Vec<&str> = ["model"]
            .into_iter()
            .chain(batched.then_some("batch"))
            .chain(self.columns.iter().map(String::as_str))
            .collect();
        let mut t = Table::new(title, &headers);
        for r in &self.rows {
            let batch = num(r.batch.map(|b| b as f64), 0);
            let values = r.values.iter().zip(&self.columns).map(|(v, c)| match v {
                Some(v) if v.is_finite() => fmt(c, *v),
                _ => "-".into(),
            });
            t.row(
                [r.model.to_string()]
                    .into_iter()
                    .chain(batched.then_some(batch))
                    .chain(values),
            );
        }
        t
    }
}

/// Geometric mean.
pub fn gmean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The outcome of one named predicate over a section's numbers.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Predicate name (the function that computed it).
    pub predicate: &'static str,
    /// True when the measured numbers show the paper's shape.
    pub holds: bool,
    /// The values compared.
    pub detail: String,
}

impl Verdict {
    /// Holds when there is at least one check and every check holds. The
    /// detail quotes each check's values, failing ones in bold.
    pub fn all(predicate: &'static str, checks: impl IntoIterator<Item = (bool, String)>) -> Self {
        let checks: Vec<(bool, String)> = checks.into_iter().collect();
        let quoted: Vec<String> = checks
            .iter()
            .map(|(ok, s)| if *ok { s.clone() } else { format!("**{s}**") })
            .collect();
        Verdict {
            predicate,
            holds: !checks.is_empty() && checks.iter().all(|(ok, _)| *ok),
            detail: quoted.join("; "),
        }
    }
}

/// One artifact's section of EXPERIMENTS.md: the paper's claim, the
/// measured tables, and the computed shape verdicts.
pub fn section(heading: &str, paper: &str, tables: &[Table], verdicts: &[Verdict]) -> String {
    let tables: Vec<String> = tables.iter().map(Table::render).collect();
    let verdicts: String = verdicts
        .iter()
        .map(|v| {
            let outcome = if v.holds { "holds" } else { "deviation" };
            format!("- **{outcome}** — `{}`: {}\n", v.predicate, v.detail)
        })
        .collect();
    format!(
        "\n## {heading}\n\n**Paper.** {paper}\n\n**Measured.**\n\n```text\n{}```\n\n\
         **Shape verdict.**\n\n{verdicts}",
        tables.join("\n"),
    )
}

/// The line recording which reports a document was rendered from.
pub fn digest_line(cells: usize, grid_digest: &str) -> String {
    format!("Rendered from {cells} suite reports with `grid_digest` `{grid_digest}`.")
}

/// Renders EXPERIMENTS.md from the serial pass's reports.
pub fn render(reports: &Reports) -> String {
    let hashes: Vec<String> = reports
        .iter()
        .map(|(_, r)| digest(&report_json(r)))
        .collect();
    let keys = reports.iter().map(|(c, _)| c.key.as_str());
    let grid = grid_digest(keys.zip(hashes.iter().map(String::as_str)));
    let sections = [
        fig09::speedup(reports),
        fig09::elapsed(reports),
        fig09::energy(reports),
        table03::render(),
        fig09::table_size(reports),
        fig09::faults(reports),
        fig10::render(reports),
        fig11::render(reports),
        fig12::render(reports),
        fig13::render(reports),
        table07::render(),
        table08::render(),
    ];
    let preamble = include_str!("preamble.md");
    let digest = digest_line(reports.len(), &grid);
    format!("{preamble}\n{digest}\n\n---\n{}", sections.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        let mut g = Grid::new(["a", "b"]);
        g.push("m", Some(1), vec![Some(1.0), Some(4.0)]);
        g.push("m", Some(2), vec![Some(4.0), None]);
        g.push("n", Some(1), vec![Some(4.0), Some(1.0)]);
        g
    }

    #[test]
    fn summary_covers_complete_rows_only() {
        assert_eq!(grid().summary(gmean), vec![Some(2.0), Some(2.0)]);
        assert_eq!(grid().summary(mean), vec![Some(2.5), Some(2.5)]);
        let mut empty = Grid::new(["a"]);
        empty.push("m", None, vec![None]);
        assert_eq!(empty.summary(mean), vec![None]);
    }

    #[test]
    fn table_prints_absent_values_as_dashes() {
        let t = grid()
            .with_summary("MEAN", mean)
            .table("t", |_, v| format!("{v:.1}"));
        assert_eq!(t.headers, ["model", "batch", "a", "b"]);
        assert_eq!(t.rows[1], ["m", "2", "4.0", "-"]);
        assert_eq!(t.rows[3], ["MEAN", "-", "2.5", "2.5"]);
        let mut unbatched = Grid::new(["a"]);
        unbatched.push("m", None, vec![Some(1.0)]);
        let t = unbatched.table("t", |_, v| v.to_string());
        assert_eq!(t.headers, ["model", "a"]);
    }

    #[test]
    fn all_needs_every_check_and_bolds_the_failing_ones() {
        let v = Verdict::all("p", [(true, "x".into()), (false, "y".into())]);
        assert!(!v.holds);
        assert_eq!(v.detail, "x; **y**");
        assert!(Verdict::all("p", [(true, "x".into())]).holds);
        assert!(!Verdict::all("p", []).holds);
    }

    #[test]
    fn sections_render_every_verdict() {
        let md = section(
            "H",
            "P",
            &[grid().table("t", |_, v| v.to_string())],
            &[
                Verdict::all("p", [(true, "x".into())]),
                Verdict::all("q", [(false, "y".into())]),
            ],
        );
        assert!(md.contains("- **holds** — `p`: x\n"), "{md}");
        assert!(md.contains("- **deviation** — `q`: **y**\n"), "{md}");
        assert!(md.contains("```text\n== t ==\n"), "{md}");
    }
}
