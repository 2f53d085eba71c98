//! E4 — PRR granularity: the paper's closing recommendation is that "the
//! partitions (PRRs) must be so fine grained to match the task time
//! requirements, i.e. X_PRTR = X_task". This extension compares the
//! single-, dual-, and quad-PRR layouts end to end.

use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::node::NodeConfig;
use serde::Serialize;

use crate::report::Report;
use crate::scenario::figure9_point;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    layout: String,
    n_prrs: usize,
    prr_bitstream_bytes: u64,
    t_prtr_ms: f64,
    x_prtr: f64,
    model_peak: f64,
    sim_peak: f64,
    sim_peak_x_task: f64,
}

/// Measures the peak speedup of each layout on the measured node.
pub fn run(ctx: &ExecCtx) -> Report {
    let layouts: Vec<(&str, Floorplan)> = vec![
        ("single PRR", Floorplan::xd1_single_prr()),
        ("dual PRR", Floorplan::xd1_dual_prr()),
        ("quad PRR", Floorplan::xd1_quad_prr()),
    ];

    let mut rows = Vec::new();
    for (name, fp) in layouts {
        let node = NodeConfig::xd1_measured(&fp);
        let model_peak = 1.0 + 1.0 / node.x_prtr();
        // Probe around the predicted peak to find the simulator's peak.
        let mut sim_peak = 0.0f64;
        let mut sim_peak_x = 0.0;
        for factor in [0.5, 0.8, 1.0, 1.25, 2.0] {
            let p = figure9_point(&node, factor * node.t_prtr_s(), 300, ctx).0;
            if p.speedup_sim > sim_peak {
                sim_peak = p.speedup_sim;
                sim_peak_x = p.x_task;
            }
        }
        rows.push(Row {
            layout: name.into(),
            n_prrs: node.n_prrs,
            prr_bitstream_bytes: node.prr_bitstream_bytes,
            t_prtr_ms: node.t_prtr_s() * 1e3,
            x_prtr: node.x_prtr(),
            model_peak,
            sim_peak,
            sim_peak_x_task: sim_peak_x,
        });
    }

    let mut t = TextTable::new(vec![
        "Layout",
        "PRRs",
        "bitstream (B)",
        "T_PRTR (ms)",
        "X_PRTR",
        "peak S (model)",
        "peak S (sim)",
        "at X_task",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.layout.clone(),
            format!("{}", r.n_prrs),
            format!("{}", r.prr_bitstream_bytes),
            format!("{:.2}", r.t_prtr_ms),
            format!("{:.4}", r.x_prtr),
            format!("{:.1}", r.model_peak),
            format!("{:.1}", r.sim_peak),
            format!("{:.4}", r.sim_peak_x_task),
        ]);
    }

    let body = format!(
        "{}\nFiner partitions shrink the partial bitstream, lowering X_PRTR\n\
         and raising the peak speedup 1 + 1/X_PRTR — while moving the peak\n\
         to proportionally shorter tasks. The quad layout also increases\n\
         \"system density\" (more resident cores), which the prefetching\n\
         experiments (E1) convert into hit-ratio gains.\n",
        t.render()
    );

    Report::new(
        "ext-granularity",
        "E4 — PRR granularity vs peak speedup",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finer_granularity_raises_the_peak() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let peaks: Vec<f64> = rows
            .iter()
            .map(|r| r["sim_peak"].as_f64().unwrap())
            .collect();
        assert!(peaks[0] < peaks[1] && peaks[1] < peaks[2], "{peaks:?}");
        // And the peak task size shrinks with the partition.
        let xs: Vec<f64> = rows
            .iter()
            .map(|r| r["sim_peak_x_task"].as_f64().unwrap())
            .collect();
        assert!(xs[0] > xs[2], "{xs:?}");
    }

    #[test]
    fn model_and_sim_peaks_agree() {
        let r = run(&ExecCtx::default());
        for row in r.json.as_array().unwrap() {
            let m = row["model_peak"].as_f64().unwrap();
            let s = row["sim_peak"].as_f64().unwrap();
            // The coarse 5-point probe undershoots slightly; stay within 15 %.
            assert!((s - m).abs() / m < 0.15, "model {m} vs sim {s}");
        }
    }
}
