//! Figures 2–4: execution profiles (ASCII Gantt renderings of simulator
//! timelines) — FRTR's serial config/control/task pattern versus PRTR's
//! overlapped configuration for missed and pre-fetched tasks.

use hprc_attr::AttributionReport;
use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::executor::{run_frtr, run_prtr};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use serde::Serialize;

use crate::report::Report;
use crate::scenario::model_params_for;

#[derive(Serialize)]
struct Payload {
    frtr_total_s: f64,
    prtr_miss_total_s: f64,
    prtr_hit_total_s: f64,
    attribution: AttributionReport,
}

/// The three profiled runs: FRTR, PRTR all-miss, PRTR pre-fetched.
fn build(
    ctx: &ExecCtx,
) -> (
    NodeConfig,
    f64,
    hprc_sim::executor::ExecutionReport,
    hprc_sim::executor::ExecutionReport,
    hprc_sim::executor::ExecutionReport,
) {
    let fp = Floorplan::xd1_dual_prr();
    let node = NodeConfig::xd1_estimated(&fp);
    let t_task = 2.0 * node.t_prtr_s();
    let names = [
        "Median Filter",
        "Sobel Filter",
        "Smoothing Filter",
        "Median Filter",
    ];

    let frtr_calls: Vec<TaskCall> = names
        .iter()
        .map(|n| TaskCall::with_task_time(*n, &node, t_task))
        .collect();
    let frtr = run_frtr(&node, &frtr_calls, ctx).unwrap();

    let miss_calls: Vec<PrtrCall> = frtr_calls
        .iter()
        .enumerate()
        .map(|(i, t)| PrtrCall {
            task: *t,
            hit: false,
            slot: i % 2,
        })
        .collect();
    let prtr_miss = run_prtr(&node, &miss_calls, ctx).unwrap();

    let hit_calls: Vec<PrtrCall> = miss_calls
        .iter()
        .enumerate()
        .map(|(i, c)| PrtrCall { hit: i > 0, ..*c })
        .collect();
    let prtr_hit = run_prtr(&node, &hit_calls, ctx).unwrap();
    (node, t_task, frtr, prtr_miss, prtr_hit)
}

/// Attribution of the all-miss profile pair (Figure 3 vs Figure 4(a)):
/// the `profiles.attr.json` artifact.
pub fn attribution(ctx: &ExecCtx) -> AttributionReport {
    let (node, t_task, frtr, prtr_miss, _) = build(ctx);
    let t_actual = frtr_task_time(&node, t_task);
    let params = model_params_for(&node, t_actual, 0.0, frtr.calls.len() as u64);
    AttributionReport::new("profiles", &params, &frtr, &prtr_miss)
}

/// The realized (byte-quantized) task time for a requested `t_task`.
fn frtr_task_time(node: &NodeConfig, t_task: f64) -> f64 {
    TaskCall::with_task_time("probe", node, t_task).task_time_s(node)
}

/// The three profiles as one Chrome trace: FRTR under pid 1, PRTR
/// all-miss under pid 2, PRTR pre-fetched under pid 3 — Figures 3 and 4
/// side by side in Perfetto.
pub fn trace(ctx: &ExecCtx) -> Vec<hprc_obs::ChromeEvent> {
    let (_, _, frtr, prtr_miss, prtr_hit) = build(ctx);
    let mut events = frtr.timeline.chrome_events(1);
    events.extend(prtr_miss.timeline.chrome_events(2));
    events.extend(prtr_hit.timeline.chrome_events(3));
    let processes = [(1, "FRTR"), (2, "PRTR all-miss"), (3, "PRTR pre-fetched")];
    crate::assemble_trace(events, &processes, Vec::new())
}

/// Renders the three execution profiles for a 4-call sequence with
/// `T_task ≈ 2 × T_PRTR` (so overlap is visible).
pub fn run(ctx: &ExecCtx) -> Report {
    let _span = ctx.registry.span("exp.profiles");
    let (node, t_task, frtr, prtr_miss, prtr_hit) = build(ctx);
    let t_actual = frtr_task_time(&node, t_task);
    let params = model_params_for(&node, t_actual, 0.0, frtr.calls.len() as u64);
    let attribution = AttributionReport::new("profiles", &params, &frtr, &prtr_miss);

    let body = format!(
        "Task: 4 calls, T_task = {:.2} ms, T_PRTR = {:.2} ms, T_FRTR = {:.2} ms.\n\
         Glyphs: F full config, P partial config, d decision, c control,\n\
         X execution, i data in, o data out.\n\n\
         FRTR (Figure 3) — total {:.1} ms:\n{}\n\
         PRTR, all misses (Figure 4(a)) — total {:.1} ms:\n{}\n\
         PRTR, pre-fetched after the first call (Figure 4(b)) — total {:.1} ms:\n{}\n\
         \nAttribution, FRTR vs PRTR all-miss:\n{}",
        t_task * 1e3,
        node.t_prtr_s() * 1e3,
        node.t_frtr_s() * 1e3,
        frtr.total_s() * 1e3,
        frtr.timeline.render_text(96),
        prtr_miss.total_s() * 1e3,
        prtr_miss.timeline.render_text(96),
        prtr_hit.total_s() * 1e3,
        prtr_hit.timeline.render_text(96),
        attribution.render_table(),
    );

    Report::new(
        "profiles",
        "Figures 2-4 — Execution profiles on the simulated node",
        body,
        &Payload {
            frtr_total_s: frtr.total_s(),
            prtr_miss_total_s: prtr_miss.total_s(),
            prtr_hit_total_s: prtr_hit.total_s(),
            attribution,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_show_expected_ordering() {
        let r = run(&ExecCtx::default());
        let frtr = r.json["frtr_total_s"].as_f64().unwrap();
        let miss = r.json["prtr_miss_total_s"].as_f64().unwrap();
        let hit = r.json["prtr_hit_total_s"].as_f64().unwrap();
        assert!(frtr > miss, "FRTR {frtr} should exceed PRTR-miss {miss}");
        assert!(miss >= hit, "misses {miss} should cost >= hits {hit}");
        assert!(r.body.contains('F'));
        assert!(r.body.contains('P'));
        assert!(r.body.contains('X'));
    }
}
