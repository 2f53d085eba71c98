//! Property tests pinning the preemptive renderer's fast==reference
//! guarantee: for *any* schedule the `hprc-sched` preemptible engine
//! emits — random task sets, strict-priority or EDF, preemptive or
//! not — [`run_preemptive`] must be observably indistinguishable
//! from [`run_preemptive_reference`]: same totals, same per-dispatch
//! timings, same RLE-expanded timeline, bit-identical metrics, and
//! causal journals that expand to the same bytes. A crafted steady periodic workload
//! additionally asserts the closed-form jump actually engages (the fast
//! timeline holds strictly fewer RLE items than the reference).

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::Registry;
use hprc_sched::preempt::{
    simulate_preemptive, Edf, PreemptCosts, RtTask, ScheduleSegment, StrictPriority,
};
use hprc_sched::{Policy, TaskId};
use hprc_sim::executor::ExecutionReport;
use hprc_sim::node::NodeConfig;
use hprc_sim::preempt::{run_preemptive, run_preemptive_reference, PreemptSegment};
use hprc_sim::time::SimTime;
use proptest::prelude::*;

/// The sched→sim bridge the experiment layer uses: engine windows are
/// absolute nanoseconds, the renderer wants `SimTime` pairs and an
/// interned task name.
fn to_sim_segments(segments: &[ScheduleSegment]) -> Vec<PreemptSegment> {
    const NAMES: [&str; 4] = ["Median Filter", "Sobel Filter", "Smoothing Filter", "FIR"];
    segments
        .iter()
        .map(|s| PreemptSegment {
            name: Symbol::from(NAMES[s.task.0 % NAMES.len()]),
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

fn task_set() -> impl Strategy<Value = Vec<RtTask>> {
    proptest::collection::vec(
        (
            (
                0..4usize,
                1..40u64, // exec in 0.1 ms units
                5..80u64, // period in 0.1 ms units
                0..4u32,  // priority
            ),
            (
                0..3u8,    // state size class
                1..8usize, // frames
                0..30u64,  // phase in 0.1 ms units
                1..4u64,   // deadline as multiple of period (loose..tight)
            ),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(
                |((task, exec, period, priority), (state, frames, phase, dl))| RtTask {
                    task: TaskId(task),
                    exec_s: exec as f64 * 1e-4,
                    period_s: period as f64 * 1e-4,
                    deadline_s: period as f64 * 1e-4 * dl as f64,
                    priority,
                    state_bytes: [20_000, 100_000, 400_000][state as usize],
                    frames,
                    phase_s: phase as f64 * 1e-4,
                },
            )
            .collect()
    })
}

fn costs() -> impl Strategy<Value = PreemptCosts> {
    (1..20u64, 1..10u64, 5..40u64).prop_map(|(quantum, partial, port)| PreemptCosts {
        t_decision_s: 2e-6,
        t_control_s: 4.8e-6,
        t_partial_s: partial as f64 * 1e-4,
        quantum_s: quantum as f64 * 1e-4,
        port_bytes_per_s: port as f64 * 5e6,
    })
}

fn policy_for(choice: u8) -> Box<dyn Policy> {
    match choice % 4 {
        0 => Box::new(StrictPriority::new()),
        1 => Box::new(StrictPriority::non_preemptive()),
        2 => Box::new(Edf::new()),
        _ => Box::new(Edf::non_preemptive()),
    }
}

fn assert_equivalent(
    fast: &ExecutionReport,
    reference: &ExecutionReport,
    fctx: &ExecCtx,
    rctx: &ExecCtx,
) {
    assert_eq!(fast.total, reference.total);
    assert_eq!(fast.n_config, reference.n_config);
    assert_eq!(fast.n_dropped, reference.n_dropped);
    assert_eq!(fast.calls, reference.calls);
    let a: Vec<_> = fast.timeline.iter().collect();
    let b: Vec<_> = reference.timeline.iter().collect();
    assert_eq!(a, b, "expanded timelines must match event-for-event");
    assert_eq!(fast.timeline.len(), reference.timeline.len());
    let fsnap = fctx.registry.snapshot();
    let rsnap = rctx.registry.snapshot();
    assert_eq!(fsnap.counters, rsnap.counters);
    assert_eq!(fsnap.histograms, rsnap.histograms);
    use serde::Serialize;
    assert_eq!(
        fsnap.to_json_value()["gauges"].to_string(),
        rsnap.to_json_value()["gauges"].to_string()
    );
    // The journal must match too: cycle replay's repeats expand to the
    // same ids, parents, flows, and times the per-segment path would
    // mint, and to its longhand bytes.
    assert_eq!(fctx.journal.records(), rctx.journal.records());
    let fast_text = fctx.journal.to_jsonl("equiv", 0);
    let ref_text = rctx.journal.to_jsonl("equiv", 0);
    assert_eq!(
        hprc_obs::expand_jsonl(&fast_text),
        hprc_obs::expand_jsonl(&ref_text),
        "journal JSONL must expand to the reference bytes"
    );
    assert!(
        fast_text.len() <= ref_text.len(),
        "a repeat line is never longer than the copies it stands for"
    );
}

fn ctx() -> ExecCtx {
    ExecCtx::default()
        .with_registry(Registry::new())
        .with_journal(hprc_obs::Journal::new(7))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast == reference on engine-produced schedules across policies.
    /// The schedules here contain genuine preemptions and restores —
    /// the segment shapes the keys must confine the jump around.
    #[test]
    fn preemptive_fast_path_is_equivalent(
        tasks in task_set(),
        costs in costs(),
        choice in any::<u8>(),
    ) {
        let mut policy = policy_for(choice);
        let outcome = simulate_preemptive(
            &tasks, 2, policy.as_mut(), &costs, &ExecCtx::default());
        prop_assume!(!outcome.segments.is_empty());
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let segments = to_sim_segments(&outcome.segments);
        let fctx = ctx();
        let rctx = ctx();
        let fast = run_preemptive(&node, &segments, &fctx).unwrap();
        let reference = run_preemptive_reference(&node, &segments, &rctx).unwrap();
        assert_equivalent(&fast, &reference, &fctx, &rctx);
    }
}

/// A steady periodic workload must actually trip the closed-form jump:
/// once the hit pattern settles, the fast path's RLE timeline carries
/// strictly fewer items than the reference's flat event list.
#[test]
fn steady_periodic_schedule_compresses() {
    let tasks = [RtTask {
        task: TaskId(0),
        exec_s: 1e-3,
        period_s: 3e-3,
        deadline_s: 3e-3,
        priority: 0,
        state_bytes: 100_000,
        frames: 64,
        phase_s: 0.0,
    }];
    let costs = PreemptCosts {
        t_decision_s: 2e-6,
        t_control_s: 4.8e-6,
        t_partial_s: 1e-3,
        quantum_s: 1e-3,
        port_bytes_per_s: 1e8,
    };
    let outcome = simulate_preemptive(&tasks, 2, &mut Edf::new(), &costs, &ExecCtx::default());
    assert_eq!(outcome.stats.completed, 64);
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let segments = to_sim_segments(&outcome.segments);
    let fctx = ctx();
    let rctx = ctx();
    let fast = run_preemptive(&node, &segments, &fctx).unwrap();
    let reference = run_preemptive_reference(&node, &segments, &rctx).unwrap();
    assert_equivalent(&fast, &reference, &fctx, &rctx);
    assert!(
        fast.timeline.n_items() < reference.timeline.n_items(),
        "fast path must compress a steady periodic schedule ({} vs {} items)",
        fast.timeline.n_items(),
        reference.timeline.n_items(),
    );
}

/// Preemption-heavy crafted case: one long low-priority job repeatedly
/// checkpointed by a stream of urgent short frames. Verifies the
/// renderer handles save/restore windows and resumed segments
/// equivalently, and that preemptions genuinely occurred.
#[test]
fn preemption_heavy_schedule_is_equivalent() {
    let tasks = [
        RtTask {
            task: TaskId(0),
            exec_s: 20e-3,
            period_s: 100e-3,
            deadline_s: 100e-3,
            priority: 3,
            state_bytes: 400_000,
            frames: 2,
            phase_s: 0.0,
        },
        RtTask {
            task: TaskId(1),
            exec_s: 1e-3,
            period_s: 5e-3,
            deadline_s: 5e-3,
            priority: 0,
            state_bytes: 20_000,
            frames: 16,
            phase_s: 1e-3,
        },
    ];
    let costs = PreemptCosts {
        t_decision_s: 2e-6,
        t_control_s: 4.8e-6,
        t_partial_s: 1e-3,
        quantum_s: 0.5e-3,
        port_bytes_per_s: 1e8,
    };
    let outcome = simulate_preemptive(
        &tasks,
        1,
        &mut StrictPriority::new(),
        &costs,
        &ExecCtx::default(),
    );
    assert!(outcome.stats.preemptions > 0, "workload must preempt");
    assert!(outcome.stats.restores > 0, "workload must restore");
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let segments = to_sim_segments(&outcome.segments);
    let fctx = ctx();
    let rctx = ctx();
    let fast = run_preemptive(&node, &segments, &fctx).unwrap();
    let reference = run_preemptive_reference(&node, &segments, &rctx).unwrap();
    assert_equivalent(&fast, &reference, &fctx, &rctx);
}
