//! Causal-structure tests for the run journal under faulty executors:
//! every `recovery` span must open and close *inside* its parent call
//! span, and a faulty call's retry chain (attempts + recovery windows)
//! must form one connected flow-link chain from the prefetch decision
//! (or first attempt, under FRTR) to its last node.

use std::collections::{HashMap, HashSet};

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{Journal, JournalRecord, SpanId};
use hprc_sim::executor::{run_frtr_faulty, run_prtr, run_prtr_faulty};
use hprc_sim::node::NodeConfig;
use hprc_sim::task::{PrtrCall, TaskCall};

fn node() -> NodeConfig {
    NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
}

fn plan(rate: f64, seed: u64) -> FaultPlan {
    let policy = RecoveryPolicy {
        max_partial_attempts: 2,
        max_full_attempts: 2,
        blacklist_after: 2,
        ..RecoveryPolicy::default()
    };
    FaultPlan::new(FaultSpec::uniform(rate), policy, seed)
}

fn task(i: usize) -> TaskCall {
    TaskCall {
        name: Symbol::from(format!("task{}", i % 3).as_str()),
        bytes_in: 10_000,
        bytes_out: 5_000,
    }
}

fn prtr_calls(n: usize) -> Vec<PrtrCall> {
    (0..n)
        .map(|i| PrtrCall {
            task: task(i),
            hit: i % 4 == 1,
            slot: i % 2,
        })
        .collect()
}

/// Indexed view of one journal: spans, events, flows.
struct View {
    opens: HashMap<SpanId, (Option<SpanId>, &'static str, u64)>,
    closes: HashMap<SpanId, u64>,
    flows: Vec<(SpanId, SpanId, &'static str)>,
}

impl View {
    fn of(journal: &Journal) -> View {
        let mut v = View {
            opens: HashMap::new(),
            closes: HashMap::new(),
            flows: Vec::new(),
        };
        for rec in journal.records() {
            match rec {
                JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    ..
                } => {
                    v.opens.insert(id, (parent, name, t_ns));
                }
                JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    ..
                } => {
                    // Events are instantaneous spans for this analysis.
                    v.opens.insert(id, (parent, name, t_ns));
                    v.closes.insert(id, t_ns);
                }
                JournalRecord::Close { id, t_ns } => {
                    v.closes.insert(id, t_ns);
                }
                JournalRecord::Flow { from, to, kind } => v.flows.push((from, to, kind)),
                JournalRecord::Metric { .. } => {}
            }
        }
        v
    }

    fn recoveries(&self) -> Vec<SpanId> {
        self.opens
            .iter()
            .filter(|(_, (_, name, _))| *name == "recovery")
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Every `recovery` span has a parent call span and its whole window
/// sits inside the parent's open..close window.
fn assert_recoveries_nest(v: &View) -> usize {
    let recoveries = v.recoveries();
    for id in &recoveries {
        let (parent, _, open_t) = &v.opens[id];
        let close_t = v.closes[id];
        let parent = parent.expect("recovery span has a parent call span");
        let (_, pname, popen) = &v.opens[&parent];
        let pclose = *v.closes.get(&parent).expect("parent call span closes");
        assert!(
            pname.starts_with("task"),
            "recovery parents to the call span, got {pname:?}"
        );
        assert!(
            *popen <= *open_t && close_t <= pclose,
            "recovery [{open_t}, {close_t}] escapes its call span [{popen}, {pclose}]"
        );
    }
    recoveries.len()
}

/// Every call span containing chain nodes has them all connected into a
/// single flow-link component.
fn assert_chains_connected(v: &View) -> usize {
    // Group chain nodes (attempts, recoveries, decisions, executions)
    // by their parent call span.
    let chain_names = [
        "configure",
        "full-configure",
        "recovery",
        "decide",
        "execute",
    ];
    let mut per_call: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
    for (id, (parent, name, _)) in &v.opens {
        if let Some(p) = parent {
            if chain_names.contains(name) && v.opens.contains_key(p) {
                per_call.entry(*p).or_default().push(*id);
            }
        }
    }
    let mut adj: HashMap<SpanId, Vec<SpanId>> = HashMap::new();
    for (from, to, _) in &v.flows {
        adj.entry(*from).or_default().push(*to);
        adj.entry(*to).or_default().push(*from);
    }
    let mut faulty_calls = 0usize;
    for (call, nodes) in &per_call {
        let has_recovery = nodes.iter().any(|n| v.opens[n].1 == "recovery");
        if !has_recovery {
            continue; // clean call; chain connectivity is trivial
        }
        faulty_calls += 1;
        // BFS over flow links restricted to this call's nodes.
        let members: HashSet<SpanId> = nodes.iter().copied().collect();
        let mut seen: HashSet<SpanId> = HashSet::new();
        let mut queue = vec![nodes[0]];
        while let Some(n) = queue.pop() {
            if !seen.insert(n) {
                continue;
            }
            for next in adj.get(&n).into_iter().flatten() {
                if members.contains(next) && !seen.contains(next) {
                    queue.push(*next);
                }
            }
        }
        assert_eq!(
            seen.len(),
            members.len(),
            "call {call:?}: retry chain is disconnected ({}/{} nodes reachable)",
            seen.len(),
            members.len()
        );
    }
    faulty_calls
}

#[test]
fn prtr_faulty_recoveries_nest_and_chains_connect() {
    let node = node();
    let calls = prtr_calls(120);
    let ctx = ExecCtx::default().with_journal(Journal::new(21));
    run_prtr_faulty(&node, &calls, &plan(0.4, 0xFA17), &ctx).unwrap();
    let v = View::of(&ctx.journal);
    let n_recoveries = assert_recoveries_nest(&v);
    let n_faulty = assert_chains_connected(&v);
    assert!(n_recoveries > 0, "rate 0.4 over 120 calls must inject");
    assert!(n_faulty > 0);
    // A faulted miss still links decision → chain via a `hide` edge and
    // reaches execution (or stops at a drop); fault and retry edges
    // exist by construction.
    let kinds: HashSet<&str> = v.flows.iter().map(|(_, _, k)| *k).collect();
    assert!(kinds.contains("fault"), "kinds: {kinds:?}");
    assert!(kinds.contains("retry"), "kinds: {kinds:?}");
    assert!(kinds.contains("escalate"), "kinds: {kinds:?}");
    assert!(kinds.contains("hide"), "kinds: {kinds:?}");
}

#[test]
fn frtr_faulty_recoveries_nest_and_chains_connect() {
    let node = node();
    let calls: Vec<TaskCall> = (0..80).map(task).collect();
    let ctx = ExecCtx::default().with_journal(Journal::new(22));
    run_frtr_faulty(&node, &calls, &plan(0.5, 0x5EED), &ctx).unwrap();
    let v = View::of(&ctx.journal);
    let n_recoveries = assert_recoveries_nest(&v);
    assert!(n_recoveries > 0);
    assert_chains_connected(&v);
    let kinds: HashSet<&str> = v.flows.iter().map(|(_, _, k)| *k).collect();
    assert!(kinds.contains("fault") && kinds.contains("retry"));
}

#[test]
fn clean_prtr_links_decisions_to_hidden_configs_and_hits() {
    let node = node();
    let calls = prtr_calls(40);
    let ctx = ExecCtx::default().with_journal(Journal::new(23));
    run_prtr(&node, &calls, &ctx).unwrap();
    let v = View::of(&ctx.journal);
    let kinds: HashSet<&str> = v.flows.iter().map(|(_, _, k)| *k).collect();
    assert!(kinds.contains("hide"), "decision→configure edges exist");
    assert!(kinds.contains("activate"), "configure→execute edges exist");
    assert!(kinds.contains("hit"), "decision→execute edges on hits");
    // Every `hide` edge runs decision → configure within one call span.
    for (from, to, kind) in &v.flows {
        if *kind == "hide" {
            assert_eq!(v.opens[from].1, "decide");
            assert_eq!(v.opens[to].1, "configure");
            assert_eq!(v.opens[from].0, v.opens[to].0, "same call span");
        }
    }
    assert!(v.recoveries().is_empty(), "clean run has no recoveries");
}
