//! Goldens for the faulty executors: one armed `run_frtr_faulty` run and
//! one armed `run_prtr_faulty` run on the measured dual-PRR node, with
//! calls taken from the fault-aware cache simulation under the same
//! plan. The committed journals pin every call span, attempt, recovery
//! window and flow link byte for byte, so a change to either executor's
//! per-call body that moves any of them fails here, whether or not the
//! fast path and the per-call reference still agree with each other.

use std::collections::BTreeMap;

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{Journal, Registry};
use hprc_sched::policies::Markov;
use hprc_sched::{simulate_faulty, CallOutcome, FaultyOutcome, TraceSpec};
use hprc_sim::executor::{
    run_frtr_faulty, run_frtr_faulty_reference, run_prtr_faulty, run_prtr_faulty_reference,
    ExecutionReport,
};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};
use hprc_sim::time::SimDuration;

const FRTR_GOLDEN: &str = include_str!("golden/faulty_frtr.journal.jsonl");
const PRTR_GOLDEN: &str = include_str!("golden/faulty_prtr.journal.jsonl");

fn node() -> NodeConfig {
    NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
}

fn plan() -> FaultPlan {
    FaultPlan::new(FaultSpec::uniform(0.1), RecoveryPolicy::default(), 4)
}

/// 64 calls of a noisy three-stage loop on two PRRs under the
/// prefetching Markov policy: hits, clean misses, retried, escalated,
/// forced-full and dropped misses all occur.
fn scenario(node: &NodeConfig, plan: &FaultPlan) -> (FaultyOutcome, Vec<PrtrCall>) {
    let trace = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.2,
        len: 64,
    }
    .generate(7);
    let sched = simulate_faulty(
        &trace,
        node.n_prrs,
        &mut Markov::new(),
        true,
        plan,
        &ExecCtx::default(),
    );
    let bytes = node.bytes_for_task_time(node.t_prtr_s());
    let calls = trace
        .iter()
        .zip(&sched.base.outcomes)
        .map(|(task, out)| {
            let (hit, slot) = match *out {
                CallOutcome::Hit { slot } => (true, slot),
                CallOutcome::Miss { slot, .. } => (false, slot),
            };
            PrtrCall {
                task: TaskCall::symmetric(Symbol::from(format!("task{}", task.0).as_str()), bytes),
                hit,
                slot,
            }
        })
        .collect();
    (sched, calls)
}

/// Runs `exec` with a live journal and registry; returns the report,
/// the journal's export expanded to its longhand bytes, and the
/// counters.
fn journaled(
    name: &str,
    exec: impl FnOnce(&ExecCtx) -> ExecutionReport,
) -> (ExecutionReport, String, BTreeMap<String, u64>) {
    let ctx = ExecCtx::default()
        .with_journal(Journal::new(0x601D))
        .with_registry(Registry::new());
    let report = exec(&ctx);
    let jsonl = hprc_obs::expand_jsonl(&ctx.journal.to_jsonl(name, 0)).expect("an export expands");
    (report, jsonl, ctx.registry.snapshot().counters)
}

/// Compares a journal with its golden; on drift, writes the new bytes
/// next to the test binaries and names the file to copy over.
fn assert_golden(file: &str, actual: &str, golden: &str) {
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
        std::fs::write(&path, actual).expect("write drifted journal");
        panic!(
            "{file} drifted from the committed golden; if the change is intentional, copy\n\
             \x20 {}\n\
             over crates/sim/tests/golden/{file}",
            path.display()
        );
    }
}

#[test]
fn faulty_prtr_journal_matches_golden() {
    let node = node();
    let plan = plan();
    let (sched, calls) = scenario(&node, &plan);
    assert_eq!(calls.len(), 64);
    assert!(sched.blacklisted_slots >= 1, "the plan must retire a PRR");

    let (fast, jsonl, counters) = journaled("faulty_prtr", |ctx| {
        run_prtr_faulty(&node, &calls, &plan, ctx).unwrap()
    });
    let (reference, ref_jsonl, _) = journaled("faulty_prtr", |ctx| {
        run_prtr_faulty_reference(&node, &calls, &plan, ctx).unwrap()
    });
    assert_eq!(fast.calls, reference.calls);
    assert_eq!(jsonl, ref_jsonl);
    assert_golden("faulty_prtr.journal.jsonl", &jsonl, PRTR_GOLDEN);

    assert!(counters["sim.prtr.fault.escalations"] >= 1);
    assert!(counters["sim.prtr.fault.drops"] >= 1);
    // A miss on a retired PRR goes straight to full reconfiguration.
    assert!(counters["sim.prtr.fault.forced_full"] >= 1);
    // The executor replays the scheduler's fates in lockstep.
    assert_eq!(fast.n_dropped, sched.dropped);
    assert_eq!(fast.n_dropped, 1);
    assert_eq!(fast.n_config, 31);
    assert_eq!(fast.total, SimDuration(25_049_708_745));
}

#[test]
fn faulty_frtr_journal_matches_golden() {
    let node = node();
    let plan = plan();
    let (_, calls) = scenario(&node, &plan);
    let tasks: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();

    let (fast, jsonl, counters) = journaled("faulty_frtr", |ctx| {
        run_frtr_faulty(&node, &tasks, &plan, ctx).unwrap()
    });
    let (reference, ref_jsonl, _) = journaled("faulty_frtr", |ctx| {
        run_frtr_faulty_reference(&node, &tasks, &plan, ctx).unwrap()
    });
    assert_eq!(fast.calls, reference.calls);
    assert_eq!(jsonl, ref_jsonl);
    assert_golden("faulty_frtr.journal.jsonl", &jsonl, FRTR_GOLDEN);

    assert!(counters["sim.frtr.fault.drops"] >= 1);
    assert_eq!(fast.n_dropped, 2);
    assert_eq!(fast.n_config, 62);
    assert_eq!(fast.total, SimDuration(127_102_473_515));
}
