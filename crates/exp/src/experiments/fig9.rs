//! Figure 9: experimental speedup of PRTR over FRTR on the (simulated)
//! Cray XD1 with two PRRs — (a) estimated configuration times, (b)
//! measured configuration times. H = 0, M = 1, T_decision = 0,
//! T_control ≈ 10 µs, task time swept via data size, exactly as in
//! section 4.3.

use hprc_attr::AttributionReport;
use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::ChromeEvent;
use hprc_sim::node::NodeConfig;
use hprc_sim::trace::Timeline;
use serde::Serialize;

use crate::report::{Report, Series};
use crate::runner::par_indexed;
use crate::scenario::{figure9_point, figure9_point_full, SweepPoint};
use crate::table::{Align, TextTable};

/// Which of the two panels to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Figure 9(a): estimated configuration times (no API/FSM overheads).
    Estimated,
    /// Figure 9(b): measured configuration times.
    Measured,
}

impl Panel {
    /// The experiment id of the panel.
    fn id(self) -> &'static str {
        match self {
            Panel::Estimated => "fig9a",
            Panel::Measured => "fig9b",
        }
    }
}

#[derive(Serialize)]
struct Payload {
    panel: String,
    t_frtr_ms: f64,
    t_prtr_ms: f64,
    x_prtr: f64,
    peak_speedup_sim: f64,
    peak_x_task: f64,
    expected_peak: f64,
    attribution: AttributionReport,
    points: Vec<SweepPoint>,
}

/// Number of calls per sweep point (large enough that the O(1/n) cold
/// start is invisible; the paper uses n ≈ ∞).
const CALLS_PER_POINT: usize = 300;

/// The node a panel simulates.
pub fn panel_node(panel: Panel) -> NodeConfig {
    let fp = Floorplan::xd1_dual_prr();
    match panel {
        Panel::Estimated => NodeConfig::xd1_estimated(&fp),
        Panel::Measured => NodeConfig::xd1_measured(&fp),
    }
}

/// Runs one panel's sweep, recording every point's cache and executor
/// activity into `ctx.registry` (aggregated across the sweep).
///
/// The sweep fans out across `ctx.jobs` workers via the deterministic
/// [`par_indexed`] runner: every point runs in its own child context
/// and the per-point registries merge back in index order, so results
/// and metrics are identical at any `--jobs`.
pub fn sweep(panel: Panel, points: usize, ctx: &ExecCtx) -> (NodeConfig, Vec<SweepPoint>) {
    let node = panel_node(panel);
    // X_task from well below X_PRTR to the data-intensive regime.
    let lo: f64 = (node.x_prtr() / 20.0).max(1e-4);
    let hi: f64 = 10.0;
    let sweep_points = par_indexed(points, ctx, |i, child| {
        let x = (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (points - 1) as f64).exp();
        figure9_point(&node, x * node.t_frtr_s(), CALLS_PER_POINT, child).0
    });
    (node, sweep_points)
}

/// The PRTR timeline at a panel's peak operating point
/// (`T_task = T_PRTR`), sized to `calls` calls — the representative
/// execution profile exported as the panel's Chrome trace.
pub fn peak_timeline(panel: Panel, calls: usize, ctx: &ExecCtx) -> Timeline {
    let node = panel_node(panel);
    figure9_point(&node, node.t_prtr_s(), calls, ctx).1
}

/// The `<id>.trace.json` artifact: the 30-call PRTR timeline at the
/// panel's peak, with the journal's causal links
/// (decision→configure→execute) as Chrome flow arrows.
pub fn trace(panel: Panel, ctx: &ExecCtx) -> Vec<ChromeEvent> {
    let events = peak_timeline(panel, 30, ctx).chrome_events(1);
    let flows = ctx.journal.chrome_flow_events(1, Some("sim.run_prtr"));
    let process = format!("{} peak PRTR", panel.id());
    crate::assemble_trace(events, &[(1, &process)], flows)
}

/// Wall-clock attribution of the panel's peak operating point
/// (`T_task = T_PRTR`, 300 calls): exclusive time buckets for the
/// paired FRTR/PRTR runs plus the measured-vs-Eq(7) bound gap — the
/// `<id>.attr.json` artifact. Deterministic for a given context seed,
/// independent of `ctx.jobs` (single-point runs are serial).
pub fn peak_attribution(panel: Panel, ctx: &ExecCtx) -> AttributionReport {
    let node = panel_node(panel);
    let run = figure9_point_full(&node, node.t_prtr_s(), CALLS_PER_POINT, ctx);
    let report = AttributionReport::new(panel.id(), &run.params, &run.frtr, &run.prtr);
    report.prtr.record(&ctx.registry, "exp.fig9.peak");
    report
}

/// Regenerates one panel of Figure 9 and its simulator and model
/// curves: the sweep's metrics land in `ctx.registry`, plus summary
/// gauges `exp.fig9.peak_speedup` / `exp.fig9.peak_x_task`.
pub fn run_with_series(panel: Panel, ctx: &ExecCtx) -> (Report, Series) {
    let (node, points) = sweep(panel, 41, ctx);
    let id = panel.id();
    let (title, paper_peak) = match panel {
        Panel::Estimated => (
            "Figure 9(a) — PRTR speedup, estimated configuration times (dual PRR)",
            1.0 + 1.0 / 0.17, // the paper's "can not exceed 7 times"
        ),
        Panel::Measured => (
            "Figure 9(b) — PRTR speedup, measured configuration times (dual PRR)",
            1.0 + 1.0 / 0.012, // the paper's "up to 87x"
        ),
    };

    let peak = points
        .iter()
        .max_by(|a, b| a.speedup_sim.total_cmp(&b.speedup_sim))
        .expect("non-empty sweep");
    ctx.registry
        .gauge("exp.fig9.peak_speedup")
        .set(peak.speedup_sim);
    ctx.registry.gauge("exp.fig9.peak_x_task").set(peak.x_task);

    // Attribute the peak operating point under a silenced child context
    // (the sweep above already recorded its executor activity), then
    // export the attribution gauges into the experiment's registry.
    let attribution = peak_attribution(panel, &crate::quiet(ctx));
    attribution.prtr.record(&ctx.registry, "exp.fig9.peak");

    let mut t = TextTable::new(vec![
        "X_task",
        "T_task (ms)",
        "S (simulator)",
        "S (model eq. 6)",
        "rel err",
    ])
    .align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for p in points.iter().step_by(4) {
        t.row(vec![
            format!("{:.4}", p.x_task),
            format!("{:.2}", p.t_task_s * 1e3),
            format!("{:.2}", p.speedup_sim),
            format!("{:.2}", p.speedup_model),
            format!(
                "{:.3}%",
                (p.speedup_sim - p.speedup_model).abs() / p.speedup_model * 100.0
            ),
        ]);
    }

    let body = format!(
        "{}\nT_FRTR = {:.2} ms, T_PRTR = {:.2} ms, X_PRTR = {:.4};\n\
         H = 0, M = 1, T_decision = 0, T_control = 10 us, n = {} calls/point.\n\
         Peak measured speedup: {:.1}x at X_task = {:.4} (paper's bound\n\
         1 + 1/X_PRTR = {:.1}x at X_task = X_PRTR = {:.4}).\n\
         Full curve: results/{}.csv.\n\
         \nAttribution at the peak (X_task = X_PRTR):\n{}",
        t.render(),
        node.t_frtr_s() * 1e3,
        node.t_prtr_s() * 1e3,
        node.x_prtr(),
        CALLS_PER_POINT,
        peak.speedup_sim,
        peak.x_task,
        paper_peak,
        node.x_prtr(),
        id,
        attribution.render_table(),
    );

    let series = vec![
        (
            "simulator".into(),
            points.iter().map(|p| (p.x_task, p.speedup_sim)).collect(),
        ),
        (
            "model".into(),
            points.iter().map(|p| (p.x_task, p.speedup_model)).collect(),
        ),
    ];
    let report = Report::new(
        id,
        title,
        body,
        &Payload {
            panel: format!("{panel:?}"),
            t_frtr_ms: node.t_frtr_s() * 1e3,
            t_prtr_ms: node.t_prtr_s() * 1e3,
            x_prtr: node.x_prtr(),
            peak_speedup_sim: peak.speedup_sim,
            peak_x_task: peak.x_task,
            expected_peak: paper_peak,
            attribution,
            points,
        },
    );
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_obs::Registry;

    fn dctx() -> ExecCtx {
        ExecCtx::default()
    }

    #[test]
    fn fig9a_peak_is_about_7x() {
        let (node, points) = sweep(Panel::Estimated, 21, &dctx());
        let peak = points.iter().map(|p| p.speedup_sim).fold(0.0f64, f64::max);
        assert!(peak > 6.0 && peak < 7.2, "peak = {peak}");
        assert!((node.x_prtr() - 0.17).abs() < 0.01);
    }

    #[test]
    fn fig9b_peak_is_about_87x() {
        let (node, points) = sweep(Panel::Measured, 21, &dctx());
        let peak = points.iter().map(|p| p.speedup_sim).fold(0.0f64, f64::max);
        assert!(peak > 75.0 && peak < 88.0, "peak = {peak}");
        assert!((node.x_prtr() - 0.0118).abs() < 0.001);
    }

    #[test]
    fn simulator_tracks_model_on_both_panels() {
        for panel in [Panel::Estimated, Panel::Measured] {
            let (_, points) = sweep(panel, 11, &dctx());
            for p in points {
                let rel = (p.speedup_sim - p.speedup_model).abs() / p.speedup_model;
                assert!(rel < 0.02, "{panel:?} at X={}: rel {rel}", p.x_task);
            }
        }
    }

    #[test]
    fn instrumented_sweep_reports_measured_quantities() {
        let reg = Registry::new();
        let ctx = ExecCtx::default().with_registry(reg.clone());
        let (node, points) = sweep(Panel::Measured, 5, &ctx);
        let snap = reg.snapshot();
        // H = 0 workload: every call misses.
        let calls = snap.counters["sched.always-miss.calls"];
        assert_eq!(calls, (5 * super::CALLS_PER_POINT) as u64);
        assert_eq!(snap.counters["sched.always-miss.misses"], calls);
        assert_eq!(snap.gauges["sched.always-miss.hit_ratio"], 0.0);
        assert_eq!(snap.gauges["exp.measured_hit_ratio"], 0.0);
        // Executor-side accounting covers both modes.
        assert_eq!(snap.counters["sim.prtr.calls"], calls);
        assert_eq!(snap.counters["sim.frtr.calls"], calls);
        assert!(snap.gauges["sim.prtr.config_port.utilization"] > 0.0);
        assert!(snap.gauges["sim.prtr.lane_busy_s.config"] > 0.0);
        let _ = (node, points);
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        let serial = sweep(Panel::Measured, 9, &ExecCtx::default().with_jobs(1)).1;
        let par = sweep(Panel::Measured, 9, &ExecCtx::default().with_jobs(4)).1;
        assert_eq!(serial, par);
    }

    #[test]
    fn peak_timeline_is_nonempty_and_config_bound() {
        let tl = peak_timeline(Panel::Measured, 30, &dctx());
        assert!(!tl.is_empty());
        // At T_task = T_PRTR the ICAP is busy roughly half the makespan.
        let util = tl.lane_busy_s(hprc_sim::trace::Lane::ConfigPort) / tl.span_end().as_secs_f64();
        assert!(util > 0.4 && util <= 1.0, "util = {util}");
    }

    #[test]
    fn data_intensive_tail_capped_at_2x() {
        let (_, points) = sweep(Panel::Measured, 21, &dctx());
        for p in points.iter().filter(|p| p.x_task >= 1.0) {
            assert!(p.speedup_sim <= 2.01, "X={}: S={}", p.x_task, p.speedup_sim);
        }
    }
}
