//! `hprc-bench compare`: judges a change against its parent from two
//! sets of run records, metric by metric and workload by workload.
//!
//! For each (workload, metric) it reports both sides' medians and
//! quartiles and one verdict:
//!
//! * **unresolved** — the parent's own runs spread wider (quartile
//!   distance over median) than the metric's bound, and not every
//!   change run beats every parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound;
//! * **better** — at least ten pairs, the change wins at least nine in
//!   ten of them (ties count for neither), and the medians differ by
//!   more than the parent's quartile distance;
//! * **unchanged** — otherwise.
//!
//! Runs pair up in the order given, so alternate parent and change runs
//! and pass their records in run order.

use std::fmt::Write as _;

use serde_json::Value;

use crate::stats::{median, quartiles};
use crate::RunReport;

/// A metric's direction and regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// Reads the end-to-end and per-layer metrics of a `BENCHMARK.json`.
pub fn load_bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let list = benchmark[key]
            .as_array()
            .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))?;
        for m in list {
            let name = m["name"].as_str().ok_or("metric without a name")?;
            let better = m["better"].as_str().ok_or(format!("{name}: no `better`"))?;
            out.push(Bound {
                name: name.to_string(),
                higher_is_better: match better {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{name}: better = {other:?}")),
                },
                bound: m["bound"].as_f64(),
            });
        }
    }
    Ok(out)
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by the gain rule.
    Better,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound, no gain shown.
    Unchanged,
    /// The parent's spread exceeds the bound.
    Unresolved,
    /// No bound to judge against (a per-layer metric).
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let m = median(values).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(values).unwrap_or((m, m));
    Summary { median: m, q1, q3 }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// The parent's runs.
    pub parent: Summary,
    /// The change's runs.
    pub change: Summary,
    /// How much worse the change's median is, as a share of the
    /// parent's (negative: better).
    pub worse_by: f64,
    /// Pairs compared (runs matched in the order given).
    pub pairs: usize,
    /// Share of pairs the change won.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn values(reports: &[RunReport], workload: &str, metric: &str) -> Vec<f64> {
    reports
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
        .map(|m| m.value)
        .collect()
}

/// Compares every (workload, metric) present on both sides.
pub fn compare(parent: &[RunReport], change: &[RunReport], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for w in workloads {
        for b in bounds {
            let (p, c) = (values(parent, w, &b.name), values(change, w, &b.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let unit = parent
                .iter()
                .flat_map(|r| &r.metrics)
                .find(|m| m.name == b.name)
                .map_or(String::new(), |m| m.unit.clone());
            rows.push(judge(w, b, &unit, &p, &c));
        }
    }
    rows
}

fn judge(workload: &str, b: &Bound, unit: &str, p: &[f64], c: &[f64]) -> Row {
    let (ps, cs) = (summarize(p), summarize(c));
    let better = |x: f64, y: f64| if b.higher_is_better { x > y } else { x < y };
    let worse_by = if b.higher_is_better {
        (ps.median - cs.median) / ps.median
    } else {
        (cs.median - ps.median) / ps.median
    };
    let pairs = p.len().min(c.len());
    let wins = p
        .iter()
        .zip(c)
        .filter(|(pv, cv)| better(**cv, **pv))
        .count();
    let win_share = wins as f64 / pairs.max(1) as f64;
    let all_better = c.iter().all(|cv| p.iter().all(|pv| better(*cv, *pv)));
    let spread = (ps.q3 - ps.q1) / ps.median.abs();
    let verdict = match b.bound {
        None => Verdict::Info,
        Some(bound) if spread > bound && !all_better => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Worse,
        Some(_)
            if pairs >= 10
                && win_share >= 0.9
                && better(cs.median, ps.median)
                && (cs.median - ps.median).abs() > ps.q3 - ps.q1 =>
        {
            Verdict::Better
        }
        Some(_) => Verdict::Unchanged,
    };
    Row {
        workload: workload.to_string(),
        metric: b.name.clone(),
        unit: unit.to_string(),
        parent: ps,
        change: cs,
        worse_by,
        pairs,
        win_share,
        verdict,
    }
}

/// Renders rows as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<36} {:>40} {:>40} {:>8} {:>9}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "worse", "wins"
    );
    let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:<36} {:>40} {:>40} {:>7.2}% {:>4}/{:<4}  {}",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            side(&r.parent),
            side(&r.change),
            r.worse_by * 100.0,
            (r.win_share * r.pairs as f64).round(),
            r.pairs,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better: higher,
            bound: Some(b),
        }
    }

    #[test]
    fn worse_beyond_the_bound() {
        let p = [100.0, 101.0, 99.0, 100.5, 100.2];
        let c = [80.0, 81.0, 79.5, 80.2, 80.1];
        assert_eq!(
            judge("w", &bound(true, 0.1), "op/s", &p, &c).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge("w", &bound(false, 0.1), "ms", &p, &c).verdict,
            Verdict::Unchanged,
            "fewer ms is not worse; five pairs are too few to claim a gain"
        );
    }

    #[test]
    fn better_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_spread() {
        let p: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let c: Vec<f64> = (0..10).map(|i| 110.0 + i as f64 * 0.1).collect();
        let r = judge("w", &bound(true, 0.1), "op/s", &p, &c);
        assert_eq!(r.verdict, Verdict::Better);
        assert_eq!(r.win_share, 1.0);
        let r = judge("w", &bound(true, 0.1), "op/s", &p[..9], &c[..9]);
        assert_eq!(r.verdict, Verdict::Unchanged);
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let p = [50.0, 100.0, 150.0, 80.0, 120.0];
        let c = [90.0, 95.0, 100.0, 105.0, 110.0];
        assert_eq!(
            judge("w", &bound(true, 0.1), "op/s", &p, &c).verdict,
            Verdict::Unresolved
        );
    }
}
