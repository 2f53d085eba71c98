//! Figure 5: asymptotic performance of PRTR — the model's curve family
//! `S∞(X_task)` for hit ratios and partial-configuration ratios, with
//! `X_decision = X_control = 0`.

use hprc_ctx::ExecCtx;
use hprc_model::bounds;
use hprc_model::params::NormalizedTimes;
use hprc_model::sweep::{figure5_family, Axis};
use serde::Serialize;

use crate::report::{Report, Series};
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct CurveSummary {
    label: String,
    peak_x_task: f64,
    peak_speedup: f64,
    closed_form_supremum: f64,
    s_at_x_task_1: f64,
    s_at_x_task_10: f64,
}

#[derive(Serialize)]
struct Payload {
    curves: Vec<CurveSummary>,
}

/// The `(H, X_PRTR)` grid of the figure.
pub const HIT_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Partial-configuration ratios, spanning Table 2's measured (0.012) and
/// estimated (0.17 / 0.37) operating points.
pub const X_PRTRS: [f64; 4] = [0.012, 0.1, 0.17, 0.37];

/// Regenerates Figure 5: the per-curve summary report and the full
/// curves.
pub fn run_with_series(ctx: &ExecCtx) -> (Report, Series) {
    let _span = ctx.registry.span("exp.fig5");
    let axis = Axis::Log {
        lo: 1e-3,
        hi: 100.0,
        points: 600,
    };
    let curves = figure5_family(
        NormalizedTimes::ideal(1.0, 0.1), // x_task/x_prtr overwritten by sweep
        &HIT_RATIOS,
        &X_PRTRS,
        axis,
    )
    .expect("valid sweep");

    let mut summaries = Vec::new();
    for c in &curves {
        let (px, ps) = c.peak().expect("non-empty curve");
        // Parse H and X_PRTR back out of the label for the closed form.
        let h = c.label.split(", ").next().unwrap()[2..]
            .parse::<f64>()
            .unwrap();
        let p = c
            .label
            .split("X_PRTR=")
            .nth(1)
            .unwrap()
            .parse::<f64>()
            .unwrap();
        let sup = bounds::ideal_supremum(h, p);
        let at = |x: f64| {
            c.points
                .iter()
                .min_by(|a, b| (a.0 - x).abs().total_cmp(&(b.0 - x).abs()))
                .unwrap()
                .1
        };
        summaries.push(CurveSummary {
            label: c.label.clone(),
            peak_x_task: px,
            peak_speedup: ps,
            closed_form_supremum: sup.value(),
            s_at_x_task_1: at(1.0),
            s_at_x_task_10: at(10.0),
        });
    }

    let mut t = TextTable::new(vec![
        "Curve",
        "peak X_task",
        "peak S",
        "sup (closed form)",
        "S(X=1)",
        "S(X=10)",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for s in &summaries {
        t.row(vec![
            s.label.clone(),
            format!("{:.4}", s.peak_x_task),
            format!("{:.2}", s.peak_speedup),
            if s.closed_form_supremum.is_finite() {
                format!("{:.2}", s.closed_form_supremum)
            } else {
                "inf".into()
            },
            format!("{:.3}", s.s_at_x_task_1),
            format!("{:.3}", s.s_at_x_task_10),
        ]);
    }

    // Key facts the paper reads off the figure.
    let h0_017 = summaries
        .iter()
        .find(|s| s.label == "H=0, X_PRTR=0.17")
        .unwrap();
    let h0_0012 = summaries
        .iter()
        .find(|s| s.label == "H=0, X_PRTR=0.012")
        .unwrap();
    let body = format!(
        "{}\nHeadline bounds visible in the table:\n\
         * every S(X=1) is exactly 2 and decreases beyond (the <=2x bound\n\
           for tasks longer than a full configuration);\n\
         * H=0 curves peak at X_task = X_PRTR with S = 1 + 1/X_PRTR\n\
           (X_PRTR=0.17 -> {:.1}x, the paper's ~7x; X_PRTR=0.012 -> {:.0}x,\n\
           the paper's ~87x);\n\
         * H=1 curves are monotone decreasing, independent of X_PRTR.\n\
         Full curves: results/fig5.csv.\n",
        t.render(),
        h0_017.peak_speedup,
        h0_0012.peak_speedup,
    );

    let report = Report::new(
        "fig5",
        "Figure 5 — Asymptotic performance of PRTR (model)",
        body,
        &Payload { curves: summaries },
    );
    let series = curves.into_iter().map(|c| (c.label, c.points)).collect();
    (report, series)
}

/// The report alone, as the tests below read it.
#[cfg(test)]
fn run(ctx: &ExecCtx) -> Report {
    run_with_series(ctx).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_model::bounds::Supremum;

    #[test]
    fn fig5_reproduces_headline_numbers() {
        let r = run(&ExecCtx::default());
        let curves = r.json["curves"].as_array().unwrap();
        assert_eq!(curves.len(), HIT_RATIOS.len() * X_PRTRS.len());
        for c in curves {
            // S(X_task = 1) == 2 on every curve (long-task bound).
            let s1 = c["s_at_x_task_1"].as_f64().unwrap();
            assert!((s1 - 2.0).abs() < 0.05, "{}: S(1) = {s1}", c["label"]);
            // Peaks never exceed the closed-form supremum.
            let peak = c["peak_speedup"].as_f64().unwrap();
            let sup = c["closed_form_supremum"].as_f64().unwrap_or(f64::INFINITY);
            assert!(peak <= sup * 1.001);
        }
        // The measured-XD1 H=0 curve peaks near 85.
        let c = curves
            .iter()
            .find(|c| c["label"] == "H=0, X_PRTR=0.012")
            .unwrap();
        let peak = c["peak_speedup"].as_f64().unwrap();
        assert!(peak > 82.0 && peak < 87.0, "peak = {peak}");
    }

    #[test]
    fn supremum_enum_value_matches_table() {
        match bounds::ideal_supremum(0.0, 0.17) {
            Supremum::AttainedAt { speedup, .. } => assert!((speedup - 6.88).abs() < 0.01),
            other => panic!("{other:?}"),
        }
    }
}
