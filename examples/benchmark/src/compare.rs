//! Result records (`--out`) and their comparison (`--compare`).
//!
//! A record file holds a JSON array of [`Record`]s; `--out` appends one
//! per run. `--compare PARENT CHANGE` groups the untraced records of each
//! file by workload and judges every end-to-end metric of
//! `BENCHMARK.json` against that metric's bound: the share of the
//! parent's median by which the change's median may be worse.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::meta::Meta;
use crate::stats::quartiles;

/// One measured metric of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median over the run's samples.
    pub value: f64,
    /// First quartile over the run's samples.
    pub q1: f64,
    /// Third quartile over the run's samples.
    pub q3: f64,
    /// Samples behind the median (passes, set-ups, or 1 for a count).
    pub samples: u64,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Host, revision, seed and run length.
    pub meta: Meta,
    /// Workload name.
    pub workload: String,
    /// True for a traced (`--trace 1`) run, which reports per-layer
    /// metrics only.
    pub trace: bool,
    /// Every output checked out.
    pub correct: bool,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed a check.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the change may be worse.
    pub bound: f64,
}

/// The part of `BENCHMARK.json` a comparison needs.
#[derive(Debug, Deserialize)]
pub struct BenchmarkFile {
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bound>,
}

/// Outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the bound, with spreads inside it.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// A side's run-to-run spread is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Printed label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's view of a metric: the median over its runs and the
/// spread (interquartile distance over the median). With a single run
/// the spread is that run's own, over its passes.
#[derive(Debug, Clone, PartialEq)]
struct Side {
    values: Vec<f64>,
    median: f64,
    spread: f64,
}

impl Side {
    fn of(metrics: &[&Metric]) -> Side {
        let values: Vec<f64> = metrics.iter().map(|m| m.value).collect();
        let (q1, median, q3) = match metrics {
            [one] => (one.q1, one.value, one.q3),
            _ => quartiles(&values),
        };
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        Side {
            values,
            median,
            spread,
        }
    }
}

/// Judges one metric of one workload.
fn judge(bound: &Bound, parent: &Side, change: &Side) -> Verdict {
    let lower = bound.better == "lower";
    let worse = |p: f64, c: f64| if lower { c - p } else { p - c };
    if parent.spread > bound.bound || change.spread > bound.bound {
        // Noise wider than the bound hides the difference, unless every
        // run of the change reads better than every run of the parent.
        let dominates = change
            .values
            .iter()
            .all(|&c| parent.values.iter().all(|&p| worse(p, c) < 0.0));
        return if dominates {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse(parent.median, change.median) > bound.bound * parent.median.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One line of a comparison.
#[derive(Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// Compares the untraced records of `parent` and `change` per workload
/// and end-to-end metric.
///
/// # Errors
///
/// Refuses records taken on different hosts, no untraced records at
/// all, and a side with no untraced record of a workload the other side
/// has.
pub fn compare(bounds: &[Bound], parent: &[Record], change: &[Record]) -> Result<Vec<Row>, String> {
    let mut hosts: Vec<&str> = parent
        .iter()
        .chain(change)
        .map(|r| r.meta.host.as_str())
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    if hosts.len() > 1 {
        return Err(format!(
            "refusing to compare runs from different hosts: {}",
            hosts.join(", ")
        ));
    }
    let untraced = |records: &[Record], workload: &str| -> Vec<Record> {
        records
            .iter()
            .filter(|r| !r.trace && r.workload == workload)
            .cloned()
            .collect()
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(change).filter(|r| !r.trace) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    if workloads.is_empty() {
        return Err("no untraced records to compare".into());
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let (p, c) = (untraced(parent, workload), untraced(change, workload));
        if p.is_empty() || c.is_empty() {
            return Err(format!("workload {workload} is missing from one side"));
        }
        for bound in bounds {
            let pick = |records: &[Record]| -> Result<Side, String> {
                let metrics: Vec<&Metric> = records
                    .iter()
                    .map(|r| {
                        r.metrics
                            .iter()
                            .find(|m| m.name == bound.name)
                            .ok_or_else(|| format!("{workload}: no metric {}", bound.name))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Side::of(&metrics))
            };
            let (ps, cs) = (pick(&p)?, pick(&c)?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: bound.name.clone(),
                unit: bound.unit.clone(),
                parent: ps.median,
                change: cs.median,
                verdict: judge(bound, &ps, &cs),
            });
        }
    }
    Ok(rows)
}

/// Reads a record file; a missing file is an empty list.
///
/// # Errors
///
/// An unreadable or malformed file.
pub fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    match std::fs::read_to_string(path) {
        Ok(body) => serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Appends `record` to the record file at `path`.
///
/// # Errors
///
/// An unreadable, malformed or unwritable file.
pub fn append_record(path: &Path, record: Record) -> Result<(), String> {
    let mut records = read_records(path)?;
    records.push(record);
    let body = serde_json::to_string_pretty(&records).map_err(|e| e.to_string())?;
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(host: &str) -> Meta {
        Meta {
            host: host.into(),
            nproc: 2,
            threads: 1,
            passes: 5,
            seed: 1,
            seconds: 15,
            git_rev: "unknown".into(),
            utc: "2026-01-01T00:00:00Z".into(),
        }
    }

    /// A one-metric untraced record whose passes spread ±`spread`/2
    /// around `value`.
    fn record(host: &str, value: f64, spread: f64) -> Record {
        Record {
            meta: meta(host),
            workload: "w".into(),
            trace: false,
            correct: true,
            attempted: 5,
            failed: 0,
            metrics: vec![Metric {
                name: "m".into(),
                unit: "s".into(),
                value,
                q1: value * (1.0 - spread / 2.0),
                q3: value * (1.0 + spread / 2.0),
                samples: 5,
            }],
        }
    }

    fn bound(better: &str, share: f64) -> Bound {
        Bound {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            bound: share,
        }
    }

    fn verdict(b: &Bound, parent: &[Record], change: &[Record]) -> Verdict {
        let rows = compare(std::slice::from_ref(b), parent, change).expect("comparable");
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn relative_bound_lower_is_better() {
        let b = bound("lower", 0.10);
        let parent = [record("h", 1.00, 0.01)];
        assert_eq!(
            verdict(&b, &parent, &[record("h", 1.05, 0.01)]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&b, &parent, &[record("h", 0.50, 0.01)]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&b, &parent, &[record("h", 1.15, 0.01)]),
            Verdict::Worse
        );
    }

    #[test]
    fn relative_bound_higher_is_better() {
        let b = bound("higher", 0.10);
        let parent = [record("h", 100.0, 0.01)];
        assert_eq!(
            verdict(&b, &parent, &[record("h", 95.0, 0.01)]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&b, &parent, &[record("h", 150.0, 0.01)]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&b, &parent, &[record("h", 85.0, 0.01)]),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let b = bound("lower", 0.10);
        // One run whose own passes spread 30%.
        let noisy = [record("h", 1.0, 0.30)];
        assert_eq!(
            verdict(&b, &noisy, &[record("h", 1.0, 0.01)]),
            Verdict::Unresolved
        );
        // Several runs: the spread is taken across their medians.
        let parent: Vec<Record> = [0.8, 1.0, 1.2, 1.4]
            .iter()
            .map(|&v| record("h", v, 0.01))
            .collect();
        let change: Vec<Record> = [0.9, 1.1, 1.3]
            .iter()
            .map(|&v| record("h", v, 0.01))
            .collect();
        assert_eq!(verdict(&b, &parent, &change), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let better: Vec<Record> = [0.5, 0.6, 0.7]
            .iter()
            .map(|&v| record("h", v, 0.01))
            .collect();
        assert_eq!(verdict(&b, &parent, &better), Verdict::Ok);
    }

    #[test]
    fn runs_from_different_hosts_are_refused() {
        let b = bound("lower", 0.10);
        let err = compare(&[b], &[record("a", 1.0, 0.0)], &[record("b", 1.0, 0.0)])
            .expect_err("different hosts");
        assert!(err.contains("different hosts"), "{err}");
        assert!(compare(&[bound("lower", 0.1)], &[], &[]).is_err());
    }

    #[test]
    fn records_round_trip_through_the_file_format() {
        let r = record("h", 1.25, 0.02);
        let body = serde_json::to_string_pretty(&vec![r.clone()]).expect("render");
        let back: Vec<Record> = serde_json::from_str(&body).expect("parse");
        assert_eq!(back, vec![r]);
    }
}
