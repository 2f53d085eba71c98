//! The six-bucket attribution identity on *preemptive* schedules:
//! context-save ([`EventKind::Preempt`]) and context-restore
//! ([`EventKind::Restore`]) events classify as configuration activity,
//! so `sum(buckets) == span_end` must keep holding exactly — including
//! on the fast path's run-length-encoded timelines — and the two config
//! buckets must reconstruct the configuration-port busy time with
//! save/restore transfers included.

use hprc_attr::Buckets;
use hprc_ctx::{ExecCtx, Symbol};
use hprc_fpga::floorplan::Floorplan;
use hprc_sched::preempt::{
    simulate_preemptive, Edf, PreemptCosts, RtTask, ScheduleSegment, StrictPriority,
};
use hprc_sched::TaskId;
use hprc_sim::node::NodeConfig;
use hprc_sim::preempt::{run_preemptive, run_preemptive_reference, PreemptSegment};
use hprc_sim::time::SimTime;
use hprc_sim::trace::ActivityClass;
use proptest::prelude::*;

fn to_sim_segments(segments: &[ScheduleSegment]) -> Vec<PreemptSegment> {
    const NAMES: [&str; 3] = ["Median Filter", "Sobel Filter", "Smoothing Filter"];
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

fn costs() -> PreemptCosts {
    PreemptCosts {
        t_decision_s: 2e-6,
        t_control_s: 4.8e-6,
        t_partial_s: 1e-3,
        quantum_s: 0.5e-3,
        port_bytes_per_s: 1e8,
    }
}

fn class_busy_ns(tl: &hprc_sim::trace::Timeline, class: ActivityClass) -> u64 {
    tl.class_intervals(class)
        .iter()
        .map(|(s, e)| e.0 - s.0)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identity and config-busy reconstruction on engine-produced
    /// preemptive schedules across policies.
    #[test]
    fn buckets_partition_preemptive_spans_exactly(
        specs in proptest::collection::vec(
            ((0..3usize, 1..30u64, 5..60u64), (0..3u32, 1..6usize, 0..20u64)),
            1..4,
        ),
        edf in any::<bool>(),
    ) {
        let tasks: Vec<RtTask> = specs
            .iter()
            .map(|&((task, exec, period), (priority, frames, phase))| RtTask {
                task: TaskId(task),
                exec_s: exec as f64 * 1e-4,
                period_s: period as f64 * 1e-4,
                deadline_s: period as f64 * 1e-4,
                priority,
                state_bytes: 100_000,
                frames,
                phase_s: phase as f64 * 1e-4,
            })
            .collect();
        let outcome = if edf {
            simulate_preemptive(
                &tasks, 2, &mut Edf::new(), &costs(), &ExecCtx::default())
        } else {
            simulate_preemptive(
                &tasks, 2, &mut StrictPriority::new(), &costs(), &ExecCtx::default())
        };
        prop_assume!(!outcome.segments.is_empty());
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let segments = to_sim_segments(&outcome.segments);
        let ctx = ExecCtx::default();
        let fast = run_preemptive(&node, &segments, &ctx).unwrap();
        let reference = run_preemptive_reference(&node, &segments, &ctx).unwrap();

        for report in [&fast, &reference] {
            let b = Buckets::checked_from_timeline(&report.timeline);
            prop_assert_eq!(b.total_ns(), report.timeline.span_end().0);
            // Save/restore transfers classify as config: the two config
            // buckets must reconstruct the port's busy-interval union.
            prop_assert_eq!(
                b.total_config_ns(),
                class_busy_ns(&report.timeline, ActivityClass::Config)
            );
        }
        let fb = Buckets::checked_from_timeline(&fast.timeline);
        let rb = Buckets::checked_from_timeline(&reference.timeline);
        prop_assert_eq!(&fb, &rb);
    }
}

/// On a schedule with genuine checkpoints, save/restore wall-clock must
/// show up inside the config buckets: stripping the `Preempt`/`Restore`
/// events from the timeline strictly reduces `total_config_ns`.
#[test]
fn save_restore_time_is_attributed_to_config() {
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
            frames: 12,
            phase_s: 1e-3,
        },
    ];
    let outcome = simulate_preemptive(
        &tasks,
        1,
        &mut StrictPriority::new(),
        &costs(),
        &ExecCtx::default(),
    );
    assert!(outcome.stats.preemptions > 0);
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let with = to_sim_segments(&outcome.segments);
    let without: Vec<PreemptSegment> = with
        .iter()
        .map(|s| PreemptSegment {
            save: None,
            restore: None,
            ..*s
        })
        .collect();
    let ctx = ExecCtx::default();
    let full = run_preemptive_reference(&node, &with, &ctx).unwrap();
    let stripped = run_preemptive_reference(&node, &without, &ctx).unwrap();
    let b_full = Buckets::checked_from_timeline(&full.timeline);
    let b_stripped = Buckets::checked_from_timeline(&stripped.timeline);
    assert!(
        b_full.total_config_ns() > b_stripped.total_config_ns(),
        "save/restore transfers must add config time: {} vs {}",
        b_full.total_config_ns(),
        b_stripped.total_config_ns()
    );
}
