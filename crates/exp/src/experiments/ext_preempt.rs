//! E-preempt — Preemptive scheduling under frame deadlines: a
//! time-shared vision pipeline (the three Table 1 filters as periodic
//! frame-processing tasks) runs on the preemptible engine, sweeping
//! deadline tightness across both platform calibrations (measured
//! `X_PRTR` ≈ 0.012 and estimated ≈ 0.17) under three dispatch
//! policies: the run-to-completion strict-priority baseline, preemptive
//! strict priority, and preemptive EDF.
//!
//! Each point reports the deadline-miss ratio, the effective speedup
//! over the analytic serial-FRTR baseline (every frame reconfiguring
//! the full device, back to back), and the Eq (5)-with-preemption bound
//! of `hprc-model::preempt` evaluated at the *measured* hit ratio,
//! preemption rate `ν`, and context-transfer times — the overhead terms
//! preemption adds to the paper's model, priced like bitstream
//! transfers on the configuration port.

use hprc_ctx::ExecCtx;
use hprc_fault::FaultPlan;
use hprc_fpga::floorplan::Floorplan;
use hprc_model::params::ModelParams;
use hprc_model::preempt::{asymptotic_speedup_with_preemption, PreemptOverheads};
use hprc_sched::cache::TaskId;
use hprc_sched::policy::Policy;
use hprc_sched::preempt::{Edf, RtTask, StrictPriority};
use hprc_sim::node::NodeConfig;
use serde::Serialize;

use crate::report::{Report, Series};
use crate::runner::par_indexed;
use crate::scenario::{model_params_for, run_point_preemptive, PreemptPointRun};
use crate::table::{Align, TextTable};

/// Deadline tightness sweep: each task's relative deadline is
/// `tightness × (T_exec + T_PRTR)`. The tightest value leaves just
/// enough slack for one checkpoint hand-over (quantum + context save +
/// reconfiguration), but nowhere near enough to sit out a whole
/// smoothing batch.
pub const TIGHTNESS: [f64; 4] = [1.5, 2.0, 3.0, 5.0];

/// Dispatch policies compared at every point.
pub const POLICIES: [&str; 3] = ["priority-np", "priority", "edf"];

/// Platform calibrations (the `X_PRTR` axis of the sweep).
pub const NODES: [&str; 2] = ["measured", "estimated"];

/// The grid point rendered as the `--trace`/`.attr.json` artifacts.
const TRACE_TIGHTNESS: f64 = TIGHTNESS[0];

#[derive(Serialize)]
struct Row {
    node: &'static str,
    tightness: f64,
    policy: &'static str,
    jobs: u64,
    deadline_miss_ratio: f64,
    /// Analytic serial-FRTR makespan over the measured makespan.
    effective_speedup: f64,
    /// Eq (5) + preemption-overhead asymptotic speedup at the measured
    /// `H`, `ν`, and context-transfer times.
    speedup_bound: f64,
    hit_ratio: f64,
    preemptions: u64,
    restores: u64,
    makespan_s: f64,
}

fn node_for(name: &str) -> NodeConfig {
    let fp = Floorplan::xd1_dual_prr();
    match name {
        "measured" => NodeConfig::xd1_measured(&fp),
        _ => NodeConfig::xd1_estimated(&fp),
    }
}

fn policy_for(name: &str) -> Box<dyn Policy> {
    match name {
        "priority-np" => Box::new(StrictPriority::non_preemptive()),
        "priority" => Box::new(StrictPriority::new()),
        _ => Box::new(Edf::new()),
    }
}

/// The PR-safe checkpoint quantum: `T_PRTR` — an urgent arrival waits
/// at most one partial-reconfiguration time for a checkpoint boundary.
const QUANTUM_FRAC: f64 = 1.0;

/// The pipeline time-shares ONE PRR: scheduling is the only way an
/// urgent frame gets the fabric away from a running batch.
const N_SLOTS: usize = 1;

/// The time-shared vision pipeline: a camera denoise stage (urgent
/// short frames), an edge-extraction stage, and a background smoothing
/// batch whose long frames are the preemption victims. Everything
/// scales with the platform's `T_PRTR`, so both calibrations exercise
/// the same relative geometry over a common 900 × `T_PRTR` horizon —
/// and frame times sit an order of magnitude above `T_PRTR`, the
/// operating regime where checkpointing (whose hand-over overhead is
/// `X_save + X_restore + X_PRTR + X_control` per preemption) can pay
/// for itself.
pub fn vision_pipeline(node: &NodeConfig, tightness: f64) -> Vec<RtTask> {
    let base = node.t_prtr_s();
    let bytes = node.prr_bitstream_bytes;
    let dl = |exec: f64| tightness * (exec + base);
    vec![
        // Median Filter: per-frame denoise ahead of everything else.
        RtTask {
            task: TaskId(0),
            exec_s: 5.0 * base,
            period_s: 50.0 * base,
            deadline_s: dl(5.0 * base),
            priority: 0,
            state_bytes: bytes / 10,
            frames: 18,
            phase_s: 12.5 * base,
        },
        // Sobel Filter: edge extraction on each denoised frame.
        RtTask {
            task: TaskId(1),
            exec_s: 10.0 * base,
            period_s: 90.0 * base,
            deadline_s: dl(10.0 * base),
            priority: 1,
            state_bytes: bytes / 4,
            frames: 10,
            phase_s: 0.0,
        },
        // Smoothing Filter: long background batch frames, the jobs a
        // preemptive policy checkpoints out of the fabric.
        RtTask {
            task: TaskId(2),
            exec_s: 60.0 * base,
            period_s: 300.0 * base,
            deadline_s: dl(60.0 * base),
            priority: 2,
            state_bytes: bytes / 4,
            frames: 3,
            phase_s: 0.0,
        },
    ]
}

/// The analytic serial-FRTR baseline: every released frame reconfigures
/// the full device and runs back to back (no caching, no overlap, no
/// second PRR). The effective-speedup denominator every policy shares.
fn serial_frtr_s(node: &NodeConfig, tasks: &[RtTask]) -> f64 {
    tasks
        .iter()
        .map(|t| t.frames as f64 * (node.t_frtr_s() + node.control_overhead_s + t.exec_s))
        .sum()
}

fn run_grid_point(
    node_name: &'static str,
    tightness: f64,
    policy_name: &'static str,
    ctx: &ExecCtx,
) -> PreemptPointRun {
    let node = node_for(node_name);
    let tasks = vision_pipeline(&node, tightness);
    let mut policy = policy_for(policy_name);
    run_point_preemptive(
        &node,
        &tasks,
        N_SLOTS,
        policy.as_mut(),
        QUANTUM_FRAC * node.t_prtr_s(),
        &FaultPlan::disarmed(),
        ctx,
    )
}

/// Model parameters and overhead terms measured from one run's outcome.
fn bound_for(node: &NodeConfig, run: &PreemptPointRun) -> f64 {
    let s = &run.outcome.stats;
    let dispatches = (s.hits + s.misses).max(1);
    let exec_total_ns: u64 = run
        .outcome
        .segments
        .iter()
        .map(|seg| seg.exec.len_ns())
        .sum();
    let t_task = exec_total_ns as f64 / 1e9 / dispatches as f64;
    let params: ModelParams = model_params_for(node, t_task, s.hit_ratio(), s.jobs.max(1));
    let t_frtr = node.t_frtr_s();
    let per_preempt = |total_ns: u64| {
        if s.preemptions == 0 {
            0.0
        } else {
            total_ns as f64 / 1e9 / s.preemptions as f64 / t_frtr
        }
    };
    let overheads = PreemptOverheads {
        nu: s.preemptions as f64 / dispatches as f64,
        x_save: per_preempt(s.save_ns),
        x_restore: per_preempt(s.restore_ns),
    };
    asymptotic_speedup_with_preemption(&params, &overheads)
}

fn grid() -> Vec<(&'static str, f64, &'static str)> {
    let mut points = Vec::with_capacity(NODES.len() * TIGHTNESS.len() * POLICIES.len());
    for node in NODES {
        for tightness in TIGHTNESS {
            for policy in POLICIES {
                points.push((node, tightness, policy));
            }
        }
    }
    points
}

/// Runs the deadline-tightness × platform × policy sweep, with the
/// measured node's curves vs tightness: for each policy, its
/// deadline-miss ratio, then its effective speedup. Engine and
/// renderer metrics (`sched.{policy}.preempt.*`, `sim.preempt.*`) land
/// in `ctx.registry` via the sharded merge, plus the summary gauges
/// `exp.ext_preempt.max_miss_ratio_gain` (largest miss-ratio reduction
/// preemption buys over the run-to-completion baseline) and
/// `exp.ext_preempt.total_preemptions`.
pub fn run_with_series(ctx: &ExecCtx) -> (Report, Series) {
    let _span = ctx.registry.span("exp.ext_preempt");
    let points = grid();
    let runs = par_indexed(points.len(), ctx, |i, child| {
        let (node, tightness, policy) = points[i];
        run_grid_point(node, tightness, policy, child)
    });

    let rows: Vec<Row> = points
        .iter()
        .zip(&runs)
        .map(|(&(node_name, tightness, policy), r)| {
            let node = node_for(node_name);
            let tasks = vision_pipeline(&node, tightness);
            let s = &r.outcome.stats;
            Row {
                node: node_name,
                tightness,
                policy,
                jobs: s.jobs,
                deadline_miss_ratio: s.deadline_miss_ratio(),
                effective_speedup: serial_frtr_s(&node, &tasks) / s.makespan_s(),
                speedup_bound: bound_for(&node, r),
                hit_ratio: s.hit_ratio(),
                preemptions: s.preemptions,
                restores: s.restores,
                makespan_s: s.makespan_s(),
            }
        })
        .collect();

    if ctx.registry.is_enabled() {
        let mut max_gain = 0.0f64;
        for chunk in rows.chunks(POLICIES.len()) {
            let np = chunk[0].deadline_miss_ratio;
            for r in &chunk[1..] {
                max_gain = max_gain.max(np - r.deadline_miss_ratio);
            }
        }
        let total_preempt: u64 = rows.iter().map(|r| r.preemptions).sum();
        ctx.registry
            .gauge("exp.ext_preempt.max_miss_ratio_gain")
            .set(max_gain);
        ctx.registry
            .gauge("exp.ext_preempt.total_preemptions")
            .set(total_preempt as f64);
    }

    let mut t = TextTable::new(vec![
        "node",
        "tightness",
        "policy",
        "miss ratio",
        "S effective",
        "S bound(ν)",
        "H",
        "preempts",
        "restores",
        "makespan (s)",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
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
            r.node.to_string(),
            format!("{:.1}", r.tightness),
            r.policy.to_string(),
            format!("{:.3}", r.deadline_miss_ratio),
            format!("{:.2}", r.effective_speedup),
            format!("{:.2}", r.speedup_bound),
            format!("{:.3}", r.hit_ratio),
            r.preemptions.to_string(),
            r.restores.to_string(),
            format!("{:.3}", r.makespan_s),
        ]);
    }

    let body = format!(
        "{}\nWorkload: three-stage vision pipeline (Table 1 filters as\n\
         periodic frame tasks) time-sharing ONE PRR, 31 frames per run;\n\
         relative deadline = tightness x (T_exec + T_PRTR), PR-safe\n\
         checkpoint quantum = T_PRTR, context save/restore priced at\n\
         the configuration port's bandwidth. 'S effective' is the\n\
         analytic serial-FRTR makespan (every frame a full\n\
         reconfiguration, run to completion, one at a time) over the\n\
         measured makespan; 'S bound(ν)' is equation (5) extended with\n\
         the per-call preemption overhead ν·(X_save + X_restore +\n\
         X_PRTR + X_control) at the measured H and ν (DESIGN §4h).\n\
         Reading: at loose deadlines all policies meet every frame and\n\
         preemption only costs throughput; as deadlines tighten the\n\
         run-to-completion baseline ('priority-np') strands urgent\n\
         frames behind the long smoothing batches while the preemptive\n\
         policies checkpoint the batch out, trading ν overhead per call\n\
         for a lower miss ratio — the deadline-compliance price curve\n\
         the overhead terms bound.\n",
        t.render()
    );

    let mut series = Vec::with_capacity(2 * POLICIES.len());
    for policy in POLICIES {
        let measured: Vec<&Row> = rows
            .iter()
            .filter(|r| r.node == "measured" && r.policy == policy)
            .collect();
        let curve = |y: fn(&Row) -> f64| measured.iter().map(|r| (r.tightness, y(r))).collect();
        series.push((
            format!("miss_ratio_{policy}"),
            curve(|r| r.deadline_miss_ratio),
        ));
        series.push((
            format!("effective_speedup_{policy}"),
            curve(|r| r.effective_speedup),
        ));
    }
    let report = Report::new(
        "ext-preempt",
        "E-preempt — Preemptive execution via PR: deadlines, priority + EDF",
        body,
        &rows,
    );
    (report, series)
}

/// The report alone, as the tests below read it.
#[cfg(test)]
fn run(ctx: &ExecCtx) -> Report {
    run_with_series(ctx).0
}

/// The Chrome trace artifact: the measured node's tightest-deadline
/// preemptive-priority schedule (checkpoint/restore transfers visible
/// on the ConfigPort lane), with the journal's causal links as flow
/// arrows. The run itself is registry-silenced; `registry` receives
/// only the export's truncation accounting.
pub fn trace(run_ctx: &ExecCtx, registry: &hprc_obs::Registry) -> Vec<hprc_obs::ChromeEvent> {
    let r = run_grid_point("measured", TRACE_TIGHTNESS, "priority", run_ctx);
    let events = r.report.timeline.chrome_events_recorded(1, registry);
    let flows = run_ctx
        .journal
        .chrome_flow_events(1, Some("sim.run_preemptive"));
    crate::assemble_trace(events, &[(1, "preemptive schedule")], flows)
}

/// The attribution artifact: the six-bucket attribution of the
/// run-to-completion baseline (`frtr` slot) against the preemptive
/// schedule (`prtr` slot) at the tightest measured-node point —
/// save/restore transfers land in the config buckets, and the bucket
/// identity is machine-checked on both preemptive timelines.
pub fn attribution(ctx: &ExecCtx) -> hprc_attr::AttributionReport {
    let node = node_for("measured");
    let np = run_grid_point("measured", TRACE_TIGHTNESS, "priority-np", ctx);
    let pr = run_grid_point("measured", TRACE_TIGHTNESS, "priority", ctx);
    let s = &pr.outcome.stats;
    let exec_total_ns: u64 = pr
        .outcome
        .segments
        .iter()
        .map(|seg| seg.exec.len_ns())
        .sum();
    let t_task = exec_total_ns as f64 / 1e9 / (s.hits + s.misses).max(1) as f64;
    let params = model_params_for(&node, t_task, s.hit_ratio(), s.jobs.max(1));
    hprc_attr::AttributionReport::new("ext-preempt", &params, &np.report, &pr.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_nodes_tightness_policies() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), NODES.len() * TIGHTNESS.len() * POLICIES.len());
        let expected_jobs: u64 = vision_pipeline(&node_for("measured"), TIGHTNESS[0])
            .iter()
            .map(|t| t.frames as u64)
            .sum();
        // Preemption actually happens somewhere in the grid, restores
        // follow, and non-preemptive rows never checkpoint.
        let mut any_preempt = 0u64;
        for row in rows {
            let p = row["preemptions"].as_u64().unwrap();
            if row["policy"] == "priority-np" {
                assert_eq!(p, 0, "run-to-completion must not checkpoint: {row}");
            }
            any_preempt += p;
            assert_eq!(row["jobs"].as_u64().unwrap(), expected_jobs);
            assert!(row["speedup_bound"].as_f64().unwrap() > 0.0);
            assert!(row["effective_speedup"].as_f64().unwrap() > 0.0);
        }
        assert!(any_preempt > 0, "the sweep must exercise preemption");
    }

    #[test]
    fn miss_ratio_is_monotone_in_tightness_under_fixed_priority() {
        // Strict priority ignores deadlines when dispatching, so the
        // schedule is tightness-invariant and the miss ratio against
        // scaled deadlines must be non-increasing.
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        for node in NODES {
            for policy in ["priority-np", "priority"] {
                let mut prev = f64::INFINITY;
                for row in rows
                    .iter()
                    .filter(|row| row["node"] == node && row["policy"] == policy)
                {
                    let m = row["deadline_miss_ratio"].as_f64().unwrap();
                    assert!(
                        m <= prev + 1e-12,
                        "miss ratio must not rise with slack: {row}"
                    );
                    prev = m;
                }
            }
        }
    }

    #[test]
    fn preemption_cuts_misses_at_tight_deadlines() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        for node in NODES {
            let at = |policy: &str| {
                rows.iter()
                    .find(|row| {
                        row["node"] == node
                            && row["policy"] == policy
                            && row["tightness"].as_f64().unwrap() == TIGHTNESS[0]
                    })
                    .unwrap()["deadline_miss_ratio"]
                    .as_f64()
                    .unwrap()
            };
            let np = at("priority-np");
            assert!(np > 0.0, "tightest point must stress the baseline ({node})");
            assert!(
                at("priority") < np,
                "preemptive priority must miss less than run-to-completion ({node})"
            );
            assert!(
                at("edf") < np,
                "EDF must miss less than run-to-completion ({node})"
            );
        }
    }

    #[test]
    fn preempt_metrics_are_observable_in_the_registry() {
        let ctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        run(&ctx);
        let snap = ctx.registry.snapshot();
        assert!(snap.counters["sim.preempt.saves"] > 0);
        assert!(snap.counters["sim.preempt.restores"] > 0);
        assert!(snap.counters["sched.priority.preempt.preemptions"] > 0);
        assert!(snap.counters["sched.edf.preempt.jobs"] > 0);
        assert!(snap.counters["sched.priority-np.preempt.preemptions"] == 0);
        assert!(snap.gauges["exp.ext_preempt.max_miss_ratio_gain"] > 0.0);
        assert!(snap.histograms["sim.preempt.segment_latency_s"].count > 0);
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        let run_with = |jobs: usize| {
            let ctx = ExecCtx::default()
                .with_registry(hprc_obs::Registry::new())
                .with_jobs(jobs);
            let r = run(&ctx);
            (r.json.to_string(), ctx.registry.snapshot())
        };
        let (j1, s1) = run_with(1);
        let (j4, s4) = run_with(4);
        assert_eq!(j1, j4);
        assert_eq!(s1.counters, s4.counters);
        assert_eq!(s1.histograms, s4.histograms);
    }

    #[test]
    fn attribution_identity_holds_on_preemptive_schedules() {
        let report = attribution(&ExecCtx::default());
        // The six-bucket identity is machine-checked in the attr layer;
        // new() would have panicked on violation. The preemptive side
        // must actually carry configuration-port activity (configs plus
        // save/restore transfers).
        assert!(report.prtr.span_s > 0.0);
        assert!(report.prtr.total_config_s > 0.0);
    }
}
