//! E12 — Parameter recovery: treat the simulator's Figure 9(b) sweep as
//! field measurements from an unknown platform and fit `(X_PRTR, H)` back
//! out of them with `hprc-model::fit` — the calibration workflow a user
//! of this library would run against their own HPRC.

use hprc_ctx::ExecCtx;
use hprc_model::fit::{fit, Observation};
use hprc_model::params::NormalizedTimes;
use serde::Serialize;

use crate::experiments::fig9::{sweep, Panel};
use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    panel: String,
    true_x_prtr: f64,
    fitted_x_prtr: f64,
    x_prtr_rel_err: f64,
    true_h: f64,
    fitted_h: f64,
    rms_rel_error: f64,
}

/// Fits both Figure 9 panels' sweeps.
pub fn run(ctx: &ExecCtx) -> Report {
    let mut rows = Vec::new();
    for (name, panel) in [
        ("estimated", Panel::Estimated),
        ("measured", Panel::Measured),
    ] {
        let (node, points) = sweep(panel, 25, ctx);
        let overheads = NormalizedTimes {
            x_task: 1.0,
            x_control: node.control_overhead_s / node.t_frtr_s(),
            x_decision: 0.0,
            x_prtr: 1.0,
        };
        let obs: Vec<Observation> = points
            .iter()
            .map(|p| Observation {
                x_task: p.x_task,
                speedup: p.speedup_sim,
            })
            .collect();
        let f = fit(&obs, overheads).expect("enough points");
        rows.push(Row {
            panel: name.into(),
            true_x_prtr: node.x_prtr(),
            fitted_x_prtr: f.x_prtr,
            x_prtr_rel_err: (f.x_prtr - node.x_prtr()).abs() / node.x_prtr(),
            true_h: 0.0,
            fitted_h: f.hit_ratio,
            rms_rel_error: f.rms_rel_error,
        });
    }

    let mut t = TextTable::new(vec![
        "Panel",
        "X_PRTR true",
        "X_PRTR fitted",
        "rel err",
        "H true",
        "H fitted",
        "fit RMS",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.panel.clone(),
            format!("{:.4}", r.true_x_prtr),
            format!("{:.4}", r.fitted_x_prtr),
            format!("{:.2}%", r.x_prtr_rel_err * 100.0),
            format!("{:.2}", r.true_h),
            format!("{:.2}", r.fitted_h),
            format!("{:.4}", r.rms_rel_error),
        ]);
    }

    let body = format!(
        "{}\nThe fitter sees only (X_task, measured speedup) pairs from the\n\
         simulator sweep — no configuration times — and recovers the\n\
         platform's effective partial-configuration ratio and hit ratio.\n\
         The small residual is the simulator's finite-n cold start, which\n\
         the asymptotic model being fitted does not carry.\n",
        t.render()
    );

    Report::new(
        "ext-fit",
        "E12 — Platform-parameter recovery from observed speedups",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_both_panels() {
        let r = run(&ExecCtx::default());
        for row in r.json.as_array().unwrap() {
            let err = row["x_prtr_rel_err"].as_f64().unwrap();
            assert!(err < 0.05, "{}: X_PRTR err {err}", row["panel"]);
            let h = row["fitted_h"].as_f64().unwrap();
            assert!(h < 0.1, "{}: fitted H {h}", row["panel"]);
            assert!(row["rms_rel_error"].as_f64().unwrap() < 0.05);
        }
    }
}
