//! E5 — Model-versus-simulator cross-validation over a parameter grid:
//! the reproduction's analogue of the paper's "results are in good
//! agreement with what is predicted by the model".

use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_model::validate::{validate, Measurement};
use hprc_sim::executor::{run_frtr, run_prtr};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use serde::Serialize;

use crate::report::Report;
use crate::scenario::model_params_for;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Payload {
    grid_points: usize,
    max_speedup_rel_error: f64,
    mean_speedup_rel_error: f64,
    max_total_rel_error: f64,
}

/// Bresenham-spread hit pattern with ratio `h`.
fn hit_pattern(n: usize, h: f64) -> Vec<bool> {
    let mut hits = vec![false; n];
    let mut acc = 0.0;
    for b in hits.iter_mut() {
        acc += h;
        if acc >= 1.0 {
            acc -= 1.0;
            *b = true;
        }
    }
    hits
}

/// Runs the validation grid: `x_task` × `H` on the measured XD1 node.
pub fn run(ctx: &ExecCtx) -> Report {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let n = 1500usize;
    let x_tasks = [0.002, 0.0118, 0.05, 0.2, 1.0, 3.0];
    let hit_ratios = [0.0, 0.3, 0.7, 0.95];

    let mut measurements = Vec::new();
    let mut rows = Vec::new();
    for &x in &x_tasks {
        for &h in &hit_ratios {
            let t_task = x * node.t_frtr_s();
            let hits = hit_pattern(n, h);
            let actual_h = hits.iter().filter(|&&b| b).count() as f64 / n as f64;
            let calls: Vec<PrtrCall> = (0..n)
                .map(|i| PrtrCall {
                    task: TaskCall::with_task_time("core", &node, t_task),
                    hit: hits[i],
                    slot: i % node.n_prrs,
                })
                .collect();
            let t_task_actual = calls[0].task.task_time_s(&node);
            let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
            let frtr_total = run_frtr(&node, &frtr_calls, ctx).unwrap().total_s();
            let prtr_total = run_prtr(&node, &calls, ctx).unwrap().total_s();
            let params = model_params_for(&node, t_task_actual, actual_h, n as u64);
            measurements.push(Measurement {
                params,
                frtr_total: frtr_total / node.t_frtr_s(),
                prtr_total: prtr_total / node.t_frtr_s(),
            });
            rows.push((x, actual_h));
        }
    }

    let (comparisons, summary) = validate(&measurements);

    let mut t = TextTable::new(vec!["X_task", "H", "S sim", "S model", "rel err"]).align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for ((x, h), c) in rows.iter().zip(&comparisons) {
        t.row(vec![
            format!("{x:.4}"),
            format!("{h:.2}"),
            format!("{:.2}", c.measured_speedup),
            format!("{:.2}", c.predicted_speedup),
            format!("{:.3}%", c.speedup_rel_error * 100.0),
        ]);
    }

    let body = format!(
        "{}\nGrid: {} points, n = {n} calls each, measured XD1 node.\n\
         Max speedup error {:.3}%, mean {:.3}%; max total-time error {:.3}%.\n\
         The residual is the simulator's cold start and ICAP serialization,\n\
         both O(1/n) effects the asymptotic model ignores.\n",
        t.render(),
        comparisons.len(),
        summary.max_speedup_rel_error * 100.0,
        summary.mean_speedup_rel_error * 100.0,
        summary.max_total_rel_error * 100.0,
    );

    Report::new(
        "validate",
        "E5 — Model vs simulator cross-validation",
        body,
        &Payload {
            grid_points: comparisons.len(),
            max_speedup_rel_error: summary.max_speedup_rel_error,
            mean_speedup_rel_error: summary.mean_speedup_rel_error,
            max_total_rel_error: summary.max_total_rel_error,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_grid_agrees_within_one_percent() {
        let r = run(&ExecCtx::default());
        let max_err = r.json["max_speedup_rel_error"].as_f64().unwrap();
        assert!(max_err < 0.01, "max speedup error {max_err}");
        let max_total = r.json["max_total_rel_error"].as_f64().unwrap();
        assert!(max_total < 0.01, "max total error {max_total}");
    }
}
