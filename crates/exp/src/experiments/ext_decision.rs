//! E2 — Decision-latency sensitivity: the paper sets `X_decision = 0` in
//! Figure 5 and notes nonzero overheads "will reduce the final
//! performance"; this extension quantifies the erosion of the peak.

use hprc_model::bounds::numeric_supremum;
use hprc_model::params::{ModelParams, NormalizedTimes};
use hprc_model::sensitivity::report as sensitivity_report;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    x_decision: f64,
    peak_x_task: f64,
    peak_speedup: f64,
    erosion_pct: f64,
}

#[derive(Serialize)]
struct Payload {
    x_prtr: f64,
    rows: Vec<Row>,
    sensitivities: Vec<(String, f64, f64)>,
}

/// Sweeps `X_decision` for the measured dual-PRR `X_PRTR = 0.0118` at
/// `H = 0` and reports the surviving peak speedup.
pub fn run() -> Report {
    let x_prtr = 19.77 / 1678.04;
    let x_decisions = [0.0, 1e-4, 1e-3, 5e-3, 0.0118, 0.05, 0.2];
    let base_peak = 1.0 + 1.0 / x_prtr;

    let mut rows = Vec::new();
    for &xd in &x_decisions {
        let times = NormalizedTimes {
            x_task: x_prtr,
            x_control: 0.0,
            x_decision: xd,
            x_prtr,
        };
        let params = ModelParams::new(times, 0.0, 1).unwrap();
        let (px, ps) = numeric_supremum(&params, 1e-5, 10.0, 4000);
        rows.push(Row {
            x_decision: xd,
            peak_x_task: px,
            peak_speedup: ps,
            erosion_pct: (1.0 - ps / base_peak) * 100.0,
        });
    }

    // Local sensitivities at the paper's measured operating point.
    let point = ModelParams::new(
        NormalizedTimes {
            x_task: x_prtr,
            x_control: 10e-6 / 1.67804,
            x_decision: 0.001,
            x_prtr,
        },
        0.0,
        1,
    )
    .unwrap();
    let sens = sensitivity_report(&point, 1e-4);

    let mut t = TextTable::new(vec!["X_decision", "peak X_task", "peak S", "erosion"]).align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:.4}", r.x_decision),
            format!("{:.4}", r.peak_x_task),
            format!("{:.2}", r.peak_speedup),
            format!("{:.1}%", r.erosion_pct),
        ]);
    }

    let mut s = TextTable::new(vec!["parameter", "dS/dtheta", "elasticity"]).align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for (name, d, e) in &sens.rows {
        s.row(vec![name.clone(), format!("{d:.2}"), format!("{e:.3}")]);
    }

    let body = format!(
        "{}\nPeak-speedup sensitivity at the measured XD1 operating point\n\
         (X_task = X_PRTR = {x_prtr:.4}, X_decision = 0.001, H = 0;\n\
         S = {:.2}):\n\n{}\n\
         Reading: with H = 0 the peak barely moves while X_decision stays\n\
         below X_PRTR (the decision hides under the configuration), but\n\
         once X_decision exceeds X_PRTR the peak collapses toward\n\
         1/X_decision — prefetching algorithms must decide faster than a\n\
         partial reconfiguration or they become the bottleneck themselves.\n",
        t.render(),
        sens.speedup,
        s.render(),
    );

    Report::new(
        "ext-decision",
        "E2 — Decision-latency erosion of the PRTR peak",
        body,
        &Payload {
            x_prtr,
            rows,
            sensitivities: sens.rows,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_model::sensitivity::Parameter;

    #[test]
    fn zero_decision_latency_recovers_closed_form() {
        let r = run();
        let rows = r.json["rows"].as_array().unwrap();
        let first = &rows[0];
        assert_eq!(first["x_decision"].as_f64().unwrap(), 0.0);
        let peak = first["peak_speedup"].as_f64().unwrap();
        assert!((peak - (1.0 + 1678.04 / 19.77)).abs() < 0.5, "peak {peak}");
        assert!(first["erosion_pct"].as_f64().unwrap().abs() < 1.0);
    }

    #[test]
    fn erosion_is_monotone_in_decision_latency() {
        let r = run();
        let rows = r.json["rows"].as_array().unwrap();
        let mut prev = -1.0;
        for row in rows {
            let e = row["erosion_pct"].as_f64().unwrap();
            assert!(e + 1e-9 >= prev, "erosion must grow: {e} after {prev}");
            prev = e;
        }
        // The largest latency erodes the peak severely.
        assert!(prev > 80.0, "final erosion {prev}%");
    }

    #[test]
    fn decision_latency_hurts_locally() {
        let r = run();
        let sens = r.json["sensitivities"].as_array().unwrap();
        let xd = sens
            .iter()
            .find(|s| s[0] == Parameter::XDecision.name())
            .unwrap();
        assert!(
            xd[1].as_f64().unwrap() < 0.0,
            "dS/dX_decision must be negative"
        );
    }
}
