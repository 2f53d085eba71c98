//! Glue between the substrates: builds executable PRTR scenarios by running
//! a workload trace through the configuration cache (`hprc-sched`), turning
//! the per-call outcomes into simulator calls (`hprc-sim`), and lining up
//! the equivalent analytical parameters (`hprc-model`).

use hprc_ctx::{ExecCtx, Symbol};
use hprc_model::params::{ModelParams, NormalizedTimes};
use hprc_sched::cache::TaskId;
use hprc_sched::policy::Policy;
use hprc_sched::preempt::{simulate_preemptive, PreemptCosts, PreemptOutcome, RtTask};
use hprc_sched::simulate::{simulate, CallOutcome, SimulationOutcome};
use hprc_sched::traces::TraceSpec;
use hprc_sim::executor::{run_frtr, run_frtr_faulty, run_prtr, run_prtr_faulty, ExecutionReport};
use hprc_sim::node::NodeConfig;
use hprc_sim::preempt::{run_preemptive, PreemptSegment};
use hprc_sim::task::{PrtrCall, TaskCall};
use hprc_sim::time::SimTime;
use hprc_sim::trace::Timeline;
use serde::{Deserialize, Serialize};

/// Names the three Table 1 application cores cyclically.
pub fn core_name(task: TaskId) -> &'static str {
    const NAMES: [&str; 3] = ["Median Filter", "Sobel Filter", "Smoothing Filter"];
    NAMES[task.0 % NAMES.len()]
}

/// Converts a cache-simulation outcome into simulator calls, with every
/// task sized to `t_task` seconds. The per-call `TaskCall` is assembled
/// from pre-resolved pieces (one byte-sizing computation, one interner
/// hit per distinct core name), so building even million-call scenarios
/// performs no per-call allocation or locking.
pub fn prtr_calls(
    node: &NodeConfig,
    trace: &[TaskId],
    outcome: &SimulationOutcome,
    t_task: f64,
) -> Vec<PrtrCall> {
    let bytes = node.bytes_for_task_time(t_task);
    let names: [Symbol; 3] = std::array::from_fn(|i| Symbol::intern(core_name(TaskId(i))));
    trace
        .iter()
        .zip(&outcome.outcomes)
        .map(|(&task, out)| {
            let (hit, slot) = match *out {
                CallOutcome::Hit { slot } => (true, slot),
                CallOutcome::Miss { slot, .. } => (false, slot),
            };
            PrtrCall {
                task: TaskCall::symmetric(names[task.0 % names.len()], bytes),
                hit,
                slot,
            }
        })
        .collect()
}

/// Model parameters equivalent to a node + task time + hit ratio.
pub fn model_params_for(node: &NodeConfig, t_task: f64, hit_ratio: f64, n: u64) -> ModelParams {
    let t_frtr = node.t_frtr_s();
    ModelParams::new(
        NormalizedTimes {
            x_task: t_task / t_frtr,
            x_control: node.control_overhead_s / t_frtr,
            x_decision: node.decision_latency_s / t_frtr,
            x_prtr: node.t_prtr_s() / t_frtr,
        },
        hit_ratio,
        n,
    )
    .expect("node parameters are valid")
}

/// One measured sweep point: simulator and model speedups at one `X_task`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Normalized task time.
    pub x_task: f64,
    /// Task time, seconds.
    pub t_task_s: f64,
    /// Measured hit ratio of the caching policy.
    pub hit_ratio: f64,
    /// Speedup measured on the simulator (FRTR total / PRTR total).
    pub speedup_sim: f64,
    /// Speedup predicted by equation (6).
    pub speedup_model: f64,
}

/// Everything one executed sweep point produced: the summary point plus
/// both full execution reports and the equivalent model parameters —
/// the inputs the attribution layer (`hprc-attr`) consumes.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The summary sweep point.
    pub point: SweepPoint,
    /// Full FRTR execution report.
    pub frtr: ExecutionReport,
    /// Full PRTR execution report.
    pub prtr: ExecutionReport,
    /// Model parameters at the *measured* hit ratio.
    pub params: ModelParams,
}

/// Runs one sweep point: generates the workload (seeded via
/// [`ExecCtx::seed_for`], so the context's base seed perturbs every
/// stream uniformly), simulates the cache with `policy`, executes both
/// FRTR and PRTR on the node simulator, and evaluates the model at the
/// *measured* hit ratio.
///
/// All three substrates record into `ctx.registry` (cache counters per
/// policy, executor counters and lane gauges, the measured `H` gauge);
/// the full reports come back in the [`PointRun`] so callers can export
/// traces or attribute the runs.
pub fn run_point_full(
    node: &NodeConfig,
    trace_spec: &TraceSpec,
    seed: u64,
    policy: &mut dyn Policy,
    prefetch: bool,
    t_task: f64,
    ctx: &ExecCtx,
) -> PointRun {
    let jp = ctx.journal.enter("scenario.point", 0, 0);
    let trace = trace_spec.generate(ctx.seed_for(seed));
    let outcome = simulate(&trace, node.n_prrs, policy, prefetch, ctx);
    let calls = prtr_calls(node, &trace, &outcome, t_task);
    let t_task_actual = calls[0].task.task_time_s(node);
    let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let frtr = run_frtr(node, &frtr_calls, ctx).expect("FRTR run");
    let prtr = run_prtr(node, &calls, ctx).expect("PRTR run");
    let params = model_params_for(node, t_task_actual, outcome.hit_ratio(), trace.len() as u64);
    ctx.registry
        .gauge("exp.measured_hit_ratio")
        .set(outcome.hit_ratio());
    let point = SweepPoint {
        x_task: t_task_actual / node.t_frtr_s(),
        t_task_s: t_task_actual,
        hit_ratio: outcome.hit_ratio(),
        speedup_sim: frtr.total_s() / prtr.total_s(),
        speedup_model: hprc_model::speedup::speedup(&params),
    };
    ctx.journal.exit(jp, frtr.total.0.max(prtr.total.0));
    PointRun {
        point,
        frtr,
        prtr,
        params,
    }
}

/// Everything one fault-injected sweep point produced. The `point`'s
/// `speedup_sim` is the *paired* speedup — faulty FRTR total over
/// faulty PRTR total, both carrying their recovery chains (faults tax
/// FRTR's long chains proportionally harder, so this can exceed the
/// clean ratio). The monotone *effective* speedup — clean FRTR
/// baseline over faulty PRTR total — is what `ext-faults` reports,
/// using its rate-0 point as the baseline. The model column still
/// evaluates the fault-free equation (6) at the measured (degraded)
/// `H`, so `point.speedup_model - point.speedup_sim` reads as the
/// bound gap faults open up.
#[derive(Debug, Clone)]
pub struct FaultyPointRun {
    /// The summary sweep point (effective speedup, degraded `H`).
    pub point: SweepPoint,
    /// Full faulty FRTR execution report.
    pub frtr: ExecutionReport,
    /// Full faulty PRTR execution report.
    pub prtr: ExecutionReport,
    /// Model parameters at the measured degraded hit ratio.
    pub params: ModelParams,
    /// The fault-aware cache simulation outcome (fates, wipes,
    /// blacklists, drops).
    pub sched: hprc_sched::FaultyOutcome,
}

impl FaultyPointRun {
    /// Availability: fraction of calls served (PRTR side; the paper's
    /// graceful-degradation axis).
    pub fn availability(&self) -> f64 {
        self.sched.availability()
    }
}

/// [`run_point_full`] with the fault plan threaded through both the
/// cache layer ([`simulate_faulty`](hprc_sched::simulate_faulty)) and
/// the executors ([`run_prtr_faulty`] / [`run_frtr_faulty`]).
///
/// `trace_seed` is the *resolved* workload seed, used verbatim (not
/// re-derived through [`ExecCtx::seed_for`]) — callers sweeping fault
/// rates pass the same trace seed and the same plan seed to every rate
/// so the draws stay coupled and degradation is monotone by
/// construction, not by luck. A disarmed plan reproduces
/// [`run_point_full`] exactly.
#[allow(clippy::too_many_arguments)] // mirrors run_point_full + plan
pub fn run_point_faulty(
    node: &NodeConfig,
    trace_spec: &TraceSpec,
    trace_seed: u64,
    policy: &mut dyn Policy,
    prefetch: bool,
    t_task: f64,
    plan: &hprc_fault::FaultPlan,
    ctx: &ExecCtx,
) -> FaultyPointRun {
    let jp = ctx.journal.enter("scenario.point", 0, 0);
    let trace = trace_spec.generate(trace_seed);
    let sched = hprc_sched::simulate_faulty(&trace, node.n_prrs, policy, prefetch, plan, ctx);
    let calls = prtr_calls(node, &trace, &sched.base, t_task);
    let t_task_actual = calls[0].task.task_time_s(node);
    let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let frtr = run_frtr_faulty(node, &frtr_calls, plan, ctx).expect("faulty FRTR run");
    let prtr = run_prtr_faulty(node, &calls, plan, ctx).expect("faulty PRTR run");
    let params = model_params_for(
        node,
        t_task_actual,
        sched.base.hit_ratio(),
        trace.len() as u64,
    );
    ctx.registry
        .gauge("exp.measured_hit_ratio")
        .set(sched.base.hit_ratio());
    let point = SweepPoint {
        x_task: t_task_actual / node.t_frtr_s(),
        t_task_s: t_task_actual,
        hit_ratio: sched.base.hit_ratio(),
        speedup_sim: frtr.total_s() / prtr.total_s(),
        speedup_model: hprc_model::speedup::speedup(&params),
    };
    ctx.journal.exit(jp, frtr.total.0.max(prtr.total.0));
    FaultyPointRun {
        point,
        frtr,
        prtr,
        params,
        sched,
    }
}

/// The preemption cost model equivalent to a node: decision, control,
/// and transfer times come straight from the calibration, and the
/// configuration port's effective bandwidth (bitstream bytes over the
/// partial transfer time) prices context save/restore transfers.
pub fn preempt_costs_for(node: &NodeConfig, quantum_s: f64) -> PreemptCosts {
    PreemptCosts {
        t_decision_s: node.decision_latency_s,
        t_control_s: node.control_overhead_s,
        t_partial_s: node.t_prtr_s(),
        quantum_s,
        port_bytes_per_s: node.prr_bitstream_bytes as f64 / node.t_prtr_s(),
    }
}

/// Converts the preemptible engine's schedule into renderable simulator
/// segments: absolute nanosecond windows become [`SimTime`] pairs and
/// each [`TaskId`] gets its Table 1 core name.
pub fn preempt_segments(outcome: &PreemptOutcome) -> Vec<PreemptSegment> {
    let names: [Symbol; 3] = std::array::from_fn(|i| Symbol::intern(core_name(TaskId(i))));
    outcome
        .segments
        .iter()
        .map(|s| PreemptSegment {
            name: names[s.task.0 % names.len()],
            slot: s.slot,
            decision_start: SimTime(s.decision.start_ns),
            decision_end: SimTime(s.decision.end_ns),
            config: s.config.map(|w| (SimTime(w.start_ns), SimTime(w.end_ns))),
            restore: s.restore.map(|w| (SimTime(w.start_ns), SimTime(w.end_ns))),
            control_start: SimTime(s.control.start_ns),
            control_end: SimTime(s.control.end_ns),
            exec_start: SimTime(s.exec.start_ns),
            exec_end: SimTime(s.exec.end_ns),
            save: s.save.map(|w| (SimTime(w.start_ns), SimTime(w.end_ns))),
            hit: s.hit,
            resumed: s.resumed,
            preempted: s.preempted,
        })
        .collect()
}

/// One executed preemptive operating point: the engine's outcome plus
/// the rendered execution report (timeline, metrics, journal spans with
/// `preempt`/`save`/`restore` flows all land in `ctx`).
#[derive(Debug, Clone)]
pub struct PreemptPointRun {
    /// The engine's schedule, per-job records, and aggregates.
    pub outcome: PreemptOutcome,
    /// The rendered execution report of the schedule.
    pub report: ExecutionReport,
}

/// Runs one preemptive operating point: simulates the task set under
/// `policy` on the engine, then renders the resulting schedule through
/// the fast-path executor (fast == reference, bit-identical).
pub fn run_point_preemptive(
    node: &NodeConfig,
    tasks: &[RtTask],
    n_slots: usize,
    policy: &mut dyn Policy,
    quantum_s: f64,
    ctx: &ExecCtx,
) -> PreemptPointRun {
    let costs = preempt_costs_for(node, quantum_s);
    let outcome = simulate_preemptive(tasks, n_slots, policy, &costs, ctx);
    let segments = preempt_segments(&outcome);
    let report = run_preemptive(node, &segments, ctx).expect("engine emits renderable schedules");
    PreemptPointRun { outcome, report }
}

/// [`run_point_full`], keeping only the summary point and the PRTR
/// timeline.
pub fn run_point(
    node: &NodeConfig,
    trace_spec: &TraceSpec,
    seed: u64,
    policy: &mut dyn Policy,
    prefetch: bool,
    t_task: f64,
    ctx: &ExecCtx,
) -> (SweepPoint, Timeline) {
    let run = run_point_full(node, trace_spec, seed, policy, prefetch, t_task, ctx);
    (run.point, run.prtr.timeline)
}

/// The paper's Figure 9 workload: the three image filters cycling through
/// the PRRs, no prefetching (H = 0) — `n` calls at each task time.
/// Metrics go to `ctx.registry`; the PRTR timeline is returned.
pub fn figure9_point(
    node: &NodeConfig,
    t_task: f64,
    n: usize,
    ctx: &ExecCtx,
) -> (SweepPoint, Timeline) {
    let run = figure9_point_full(node, t_task, n, ctx);
    (run.point, run.prtr.timeline)
}

/// [`figure9_point`] with the full execution reports and model
/// parameters retained (the attribution layer's input).
pub fn figure9_point_full(node: &NodeConfig, t_task: f64, n: usize, ctx: &ExecCtx) -> PointRun {
    let spec = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.0,
        len: n,
    };
    let mut policy = hprc_sched::policies::AlwaysMiss::new();
    run_point_full(node, &spec, 1, &mut policy, false, t_task, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_fpga::floorplan::Floorplan;
    use hprc_sched::policies::{AlwaysMiss, Markov};

    fn dctx() -> ExecCtx {
        ExecCtx::default()
    }

    #[test]
    fn figure9_point_matches_model_closely() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let p = figure9_point(&node, node.t_prtr_s(), 400, &dctx()).0;
        assert_eq!(p.hit_ratio, 0.0);
        let rel = (p.speedup_sim - p.speedup_model).abs() / p.speedup_model;
        assert!(
            rel < 0.01,
            "sim {} vs model {}",
            p.speedup_sim,
            p.speedup_model
        );
        assert!(p.speedup_sim > 80.0);
    }

    #[test]
    fn run_point_uses_measured_hit_ratio() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let spec = TraceSpec::Looping {
            stages: 2,
            n_tasks: 2,
            noise: 0.0,
            len: 200,
        };
        // Two tasks, two PRRs, LRU: everything hits after warmup.
        let mut lru = hprc_sched::policies::Lru::new();
        let p = run_point(&node, &spec, 3, &mut lru, false, 0.05, &dctx()).0;
        assert!(p.hit_ratio > 0.95, "H = {}", p.hit_ratio);
        assert!(p.speedup_sim > 1.0);
    }

    #[test]
    fn prefetching_point_beats_always_miss() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let spec = TraceSpec::Looping {
            stages: 3,
            n_tasks: 3,
            noise: 0.0,
            len: 300,
        };
        let t_task = 0.2 * node.t_prtr_s(); // config-bound regime
        let base = run_point(
            &node,
            &spec,
            5,
            &mut AlwaysMiss::new(),
            false,
            t_task,
            &dctx(),
        )
        .0;
        let pf = run_point(&node, &spec, 5, &mut Markov::new(), true, t_task, &dctx()).0;
        assert!(pf.hit_ratio > base.hit_ratio);
        assert!(pf.speedup_sim > base.speedup_sim);
    }

    #[test]
    fn disarmed_faulty_point_matches_clean_point() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let spec = TraceSpec::Looping {
            stages: 3,
            n_tasks: 3,
            noise: 0.0,
            len: 200,
        };
        let ctx = dctx();
        let clean = run_point_full(
            &node,
            &spec,
            7,
            &mut Markov::new(),
            true,
            node.t_prtr_s(),
            &ctx,
        );
        let faulty = run_point_faulty(
            &node,
            &spec,
            ctx.seed_for(7),
            &mut Markov::new(),
            true,
            node.t_prtr_s(),
            &hprc_fault::FaultPlan::disarmed(),
            &ctx,
        );
        assert_eq!(clean.point, faulty.point);
        assert_eq!(clean.frtr, faulty.frtr);
        assert_eq!(clean.prtr, faulty.prtr);
        assert_eq!(faulty.sched.dropped, 0);
    }

    #[test]
    fn faulty_point_degrades_effective_speedup() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        // Noise keeps the Markov predictor imperfect: real steady-state
        // misses exist for faults to tax (a perfectly prefetched loop
        // absorbs low-rate faults entirely).
        let spec = TraceSpec::Looping {
            stages: 3,
            n_tasks: 3,
            noise: 0.2,
            len: 300,
        };
        let plan = hprc_fault::FaultPlan::new(
            hprc_fault::FaultSpec::uniform(0.1),
            hprc_fault::RecoveryPolicy::default(),
            99,
        );
        let mk_clean = || {
            run_point_faulty(
                &node,
                &spec,
                11,
                &mut Markov::new(),
                true,
                node.t_prtr_s(),
                &hprc_fault::FaultPlan::disarmed(),
                &dctx(),
            )
        };
        let clean = mk_clean();
        let faulty = run_point_faulty(
            &node,
            &spec,
            11,
            &mut Markov::new(),
            true,
            node.t_prtr_s(),
            &plan,
            &dctx(),
        );
        // Recovery slows both substrates down; the *effective* speedup
        // (clean FRTR baseline over faulty PRTR) degrades.
        assert!(faulty.prtr.total_s() > clean.prtr.total_s());
        assert!(faulty.frtr.total_s() > clean.frtr.total_s());
        assert!(
            clean.frtr.total_s() / faulty.prtr.total_s()
                < clean.frtr.total_s() / clean.prtr.total_s()
        );
        assert!(faulty.point.hit_ratio <= clean.point.hit_ratio);
        assert!(faulty.availability() <= 1.0);
        // Replay is exact.
        let again = run_point_faulty(
            &node,
            &spec,
            11,
            &mut Markov::new(),
            true,
            node.t_prtr_s(),
            &plan,
            &dctx(),
        );
        assert_eq!(faulty.point, again.point);
        assert_eq!(faulty.prtr, again.prtr);
    }

    #[test]
    fn core_names_cycle() {
        assert_eq!(core_name(TaskId(0)), "Median Filter");
        assert_eq!(core_name(TaskId(4)), "Sobel Filter");
    }
}
