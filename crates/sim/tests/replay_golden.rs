//! Golden for a steady-state run whose journal is mostly fast-path
//! replay: a noise-free three-stage loop scheduled by `simulate` under
//! `AlwaysMiss`, then executed by `run_prtr` and `run_frtr`, all under
//! one live journal. The committed longhand (`hprc-journal/v1`) journal
//! pins the `sched.simulate` span, its `sched.*` metric lines and both
//! executors' replayed periods byte for byte: the export's `repeat`
//! lines must expand to it. `journal replay-check` regenerates with the
//! same binary, so only a committed golden catches a change to replay
//! remapping, expansion or JSONL export that stays self-consistent.

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{Journal, Registry};
use hprc_sched::policies::AlwaysMiss;
use hprc_sched::{simulate, CallOutcome, TraceSpec};
use hprc_sim::executor::{
    run_frtr, run_frtr_reference, run_prtr, run_prtr_reference, ExecutionReport,
};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};

const GOLDEN: &str = include_str!("golden/steady_state.journal.jsonl");
const SALT: u64 = 0x5EAD;

fn node() -> NodeConfig {
    NodeConfig::xd1_estimated(&Floorplan::xd1_dual_prr())
}

type Executor = fn(&NodeConfig, &[PrtrCall], &ExecCtx) -> ExecutionReport;

fn fast(node: &NodeConfig, calls: &[PrtrCall], ctx: &ExecCtx) -> ExecutionReport {
    let tasks: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let prtr = run_prtr(node, calls, ctx).unwrap();
    run_frtr(node, &tasks, ctx).unwrap();
    prtr
}

fn reference(node: &NodeConfig, calls: &[PrtrCall], ctx: &ExecCtx) -> ExecutionReport {
    let tasks: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let prtr = run_prtr_reference(node, calls, ctx).unwrap();
    run_frtr_reference(node, &tasks, ctx).unwrap();
    prtr
}

/// Schedules 48 calls of a noise-free three-stage loop on two PRRs
/// under `AlwaysMiss` and hands them to `exec`, all under `journal`.
/// Returns the PRTR report and the journal's export, expanded to its
/// longhand (`hprc-journal/v1`) bytes.
fn journaled(journal: Journal, exec: Executor) -> (ExecutionReport, String) {
    let node = node();
    let ctx = ExecCtx::default()
        .with_journal(journal)
        .with_registry(Registry::new());
    let trace = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.0,
        len: 48,
    }
    .generate(3);
    let sched = simulate(&trace, node.n_prrs, &mut AlwaysMiss::new(), false, &ctx);
    let bytes = node.bytes_for_task_time(node.t_prtr_s());
    let calls: Vec<PrtrCall> = trace
        .iter()
        .zip(&sched.outcomes)
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
    let report = exec(&node, &calls, &ctx);
    let text = ctx.journal.to_jsonl("steady_state", 0);
    let longhand = hprc_obs::expand_jsonl(&text).expect("an export expands");
    (report, longhand)
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
fn steady_state_journal_matches_golden() {
    let (fast_report, jsonl) = journaled(Journal::new(SALT), fast);
    let (ref_report, ref_jsonl) = journaled(Journal::new(SALT), reference);
    assert_eq!(fast_report.calls, ref_report.calls);
    assert_eq!(
        jsonl, ref_jsonl,
        "fast path must replay the reference bytes"
    );
    // Most of the PRTR run was jumped, not simulated.
    let tl = &fast_report.timeline;
    assert!(
        (tl.n_items() as u64) < tl.len() / 4,
        "{} items for {} events",
        tl.n_items(),
        tl.len()
    );
    assert!(jsonl.contains(r#""name":"sched.simulate""#));
    assert!(jsonl.contains(r#"{"ev":"metric","name":"sched.misses","delta":48}"#));
    assert_golden("steady_state.journal.jsonl", &jsonl, GOLDEN);
}
