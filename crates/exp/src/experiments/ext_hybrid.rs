//! E9 — Software tasks: the paper's other deferred extension. How quickly
//! does a software fraction dilute the PRTR gain (Amdahl), and how large a
//! software share can a design tolerate for a target speedup?

use hprc_model::hybrid::HybridParams;
use hprc_model::params::{ModelParams, NormalizedTimes};
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    sw_fraction: f64,
    x_sw: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Payload {
    hw_speedup: f64,
    rows: Vec<Row>,
    budget_for_10x: Option<f64>,
    budget_for_2x: Option<f64>,
}

/// Sweeps the software fraction and software-task size at the measured
/// XD1 peak operating point.
pub fn run() -> Report {
    let x_prtr = 19.77 / 1678.04;
    let hw = ModelParams::new(NormalizedTimes::ideal(x_prtr, x_prtr), 0.0, 1).unwrap();
    let hw_speedup = hprc_model::speedup::asymptotic_speedup(&hw);

    let mut rows = Vec::new();
    for &x_sw in &[0.01, 0.1, 1.0] {
        for &f in &[0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0] {
            let h = HybridParams::new(hw, f, x_sw).unwrap();
            rows.push(Row {
                sw_fraction: f,
                x_sw,
                speedup: h.speedup(),
            });
        }
    }

    let probe = HybridParams::new(hw, 0.0, 0.1).unwrap();
    let budget_for_10x = probe.sw_fraction_budget(10.0);
    let budget_for_2x = probe.sw_fraction_budget(2.0);

    let mut t = TextTable::new(vec!["X_sw", "f_sw", "S_hybrid"]).align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:.2}", r.x_sw),
            format!("{:.2}", r.sw_fraction),
            format!("{:.1}", r.speedup),
        ]);
    }

    let body = format!(
        "{}\nHardware-only speedup at this point: {hw_speedup:.1}x.\n\
         Software-fraction budgets (X_sw = 0.1): to keep 10x, f_sw <= {:.3};\n\
         to keep 2x, f_sw <= {:.3}.\n\
         Reading: the PRTR gain is an accelerator-side gain; any serialized\n\
         software share dilutes it Amdahl-style, which is why the paper\n\
         scoped its model to hardware tasks only and why HW/SW partitioning\n\
         dominates end-to-end outcomes.\n",
        t.render(),
        budget_for_10x.unwrap_or(f64::NAN),
        budget_for_2x.unwrap_or(f64::NAN),
    );

    Report::new(
        "ext-hybrid",
        "E9 — Software-task dilution of the PRTR gain",
        body,
        &Payload {
            hw_speedup,
            rows,
            budget_for_10x,
            budget_for_2x,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_rows_bracket_hw_and_unity() {
        let r = run();
        let hw = r.json["hw_speedup"].as_f64().unwrap();
        assert!(hw > 80.0);
        for row in r.json["rows"].as_array().unwrap() {
            let s = row["speedup"].as_f64().unwrap();
            let f = row["sw_fraction"].as_f64().unwrap();
            assert!(s <= hw + 1e-9);
            assert!(s >= 1.0 - 1e-9);
            if f == 0.0 {
                assert!((s - hw).abs() < 1e-9);
            }
            if f == 1.0 {
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn budgets_are_ordered() {
        let r = run();
        let b10 = r.json["budget_for_10x"].as_f64().unwrap();
        let b2 = r.json["budget_for_2x"].as_f64().unwrap();
        assert!(b10 < b2, "tighter target -> smaller budget ({b10} vs {b2})");
        assert!(b10 > 0.0 && b2 < 1.0);
    }
}
