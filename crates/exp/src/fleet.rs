//! Deterministic cluster orchestrator: shards one workload across N
//! simulated HPRC nodes and aggregates the results hierarchically.
//!
//! The nodes fan out through [`par_indexed`], so each node runs in its
//! child [`ExecCtx`]: its own derived workload and fault-plan seeds
//! (resolved from the *parent* context before the fan-out, so they are
//! `--jobs`-invariant) and its own registry. The node overrides only
//! one field of that context: for one *witness* node per rack, a live
//! child journal. After the fan-out:
//!
//! * per-node registries have merged into the cluster registry in
//!   node-index order (the one merge [`par_indexed`] does for every
//!   sweep), so the merged instrument state is byte-identical to a
//!   serial run. Per-rack quantities such as the hit ratio come from
//!   the node outcomes ([`FleetRun::rack_hit_ratios`]), not from rack
//!   registries;
//! * the orchestrator writes the cluster causal record serially in
//!   node-index order: a `fleet.dispatch` event and a `fleet.node`
//!   span per node (one Chrome lane per rack), then merges each
//!   witness's journal and links `dispatch → node work` with a flow
//!   edge — the arrows that connect the orchestrator span to the
//!   per-node `configure`/`execute` journal events;
//! * under a call cap, the node outcomes fold into one cluster
//!   [`BudgetAccount`], attached to the journal footer.
//!
//! Node kills (`p_kill`) draw from [`FaultPlan::node_kill_call`]'s
//! dedicated stream: a killed node serves only the prefix of its
//! workload before the kill instant, and the kill set is monotone in
//! `p_kill` by construction.

use hprc_ctx::ExecCtx;
use hprc_fault::{splitmix64, FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{BudgetAccount, Journal};
use hprc_sched::policies::Markov;
use hprc_sched::traces::TraceSpec;
use hprc_sim::executor::run_prtr_faulty;
use hprc_sim::node::NodeConfig;
use serde::Serialize;

use crate::runner::par_indexed;
use crate::scenario::prtr_calls;

/// Why a fleet run could not complete. Orchestrator failures propagate
/// as errors (non-zero exit with a message) instead of panicking the
/// whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A node's PRTR simulation rejected its inputs.
    Node {
        /// Node index within the fleet.
        node: usize,
        /// The simulator's error rendering.
        error: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Node { node, error } => write!(f, "node {node}: {error}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Parent-context stream tags for the fleet's seed bases (distinct
/// from `ext-faults`' `0x5EED_FA01` / `0xFA17` streams).
const FLEET_TRACE_STREAM: u64 = 0x5EED_F1EE_7001;
const FLEET_PLAN_STREAM: u64 = 0xF1EE_7FA1;
const FLEET_KILL_STREAM: u64 = 0xF1EE_7C1A_0511;

/// One fleet run's shape and chaos knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Simulated node count.
    pub nodes: usize,
    /// Nodes per rack (the last rack may be ragged).
    pub rack_size: usize,
    /// Task calls offered to each node.
    pub len: usize,
    /// Per-site transient fault rate on every node (0 disarms).
    pub rate: f64,
    /// Probability a node is killed mid-run (0 disables).
    pub p_kill: f64,
}

impl FleetSpec {
    /// Number of racks (ceiling division; 0 for an empty fleet).
    pub fn racks(&self) -> usize {
        self.nodes.div_ceil(self.rack_size)
    }

    /// The rack holding `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.rack_size
    }

    /// Whether `node` is its rack's journal witness (the first node of
    /// the rack), the one node per rack whose child journal is kept.
    pub fn is_witness(&self, node: usize) -> bool {
        node.is_multiple_of(self.rack_size)
    }
}

/// What one node produced.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NodeOutcome {
    /// Node index.
    pub node: usize,
    /// Rack index.
    pub rack: usize,
    /// Calls offered (the full workload length).
    pub offered: u64,
    /// Calls admitted past the kill point and the node's call cap.
    pub admitted: u64,
    /// Admitted calls actually served (not dropped by recovery).
    pub served: u64,
    /// Cache hits among admitted calls.
    pub hits: u64,
    /// Admitted calls dropped by the recovery policy.
    pub dropped: u64,
    /// The call at which the node was killed, if it was.
    pub killed_at: Option<u64>,
    /// The first call the node's cap refused (its cap plus one), if the
    /// cap cut the live prefix.
    pub cut_at: Option<u64>,
    /// The node's measured hit ratio over admitted calls.
    pub hit_ratio: f64,
    /// Simulated end of the node's PRTR run, nanoseconds.
    pub end_ns: u64,
}

/// One completed fleet run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Per-node outcomes, in node-index order.
    pub outcomes: Vec<NodeOutcome>,
    /// The folded cluster account (None for an uncapped run).
    pub account: Option<BudgetAccount>,
    /// Latest simulated node end, nanoseconds.
    pub makespan_ns: u64,
}

impl FleetRun {
    /// Fleet availability: served calls over offered calls.
    pub fn availability(&self) -> f64 {
        let offered: u64 = self.outcomes.iter().map(|o| o.offered).sum();
        let served: u64 = self.outcomes.iter().map(|o| o.served).sum();
        if offered == 0 {
            1.0
        } else {
            served as f64 / offered as f64
        }
    }

    /// Per-rack hiding efficiency `H`: rack hits over rack admitted
    /// calls, one entry per rack in rack order (1.0 for a rack that
    /// admitted nothing — nothing needed hiding).
    pub fn rack_hit_ratios(&self, spec: &FleetSpec) -> Vec<f64> {
        let mut hits = vec![0u64; spec.racks()];
        let mut calls = vec![0u64; spec.racks()];
        for o in &self.outcomes {
            hits[o.rack] += o.hits;
            calls[o.rack] += o.admitted;
        }
        hits.iter()
            .zip(&calls)
            .map(|(&h, &c)| if c == 0 { 1.0 } else { h as f64 / c as f64 })
            .collect()
    }

    /// Nodes the chaos plan killed mid-run.
    pub fn killed_nodes(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.killed_at.is_some())
            .count() as u64
    }
}

fn plan_for(rate: f64, plan_seed: u64) -> FaultPlan {
    if rate == 0.0 {
        FaultPlan::disarmed()
    } else {
        FaultPlan::new(
            FaultSpec::uniform(rate),
            RecoveryPolicy::default(),
            plan_seed,
        )
    }
}

fn run_node(
    i: usize,
    spec: &FleetSpec,
    cap: Option<u64>,
    base_trace_seed: u64,
    base_plan_seed: u64,
    kill_plan: &FaultPlan,
    child: &ExecCtx,
) -> Result<NodeOutcome, FleetError> {
    let node_cfg = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let trace_seed = splitmix64(base_trace_seed ^ i as u64);
    let plan_seed = splitmix64(base_plan_seed ^ i as u64);
    let plan = plan_for(spec.rate, plan_seed);
    let killed_at = kill_plan.node_kill_call(i as u64, spec.len as u64, spec.p_kill);

    let js = child.journal.enter("fleet.node.work", 0, 0);
    // The workload is cut at the kill instant (a killed node saw the
    // same arrival stream, it just stopped serving it), and the cap
    // then refuses the tail of that live prefix.
    let live = killed_at.map_or(spec.len, |k| k as usize);
    let (admitted, cut_at) = match cap {
        Some(cap) if live as u64 > cap => (cap as usize, Some(cap + 1)),
        _ => (live, None),
    };
    let idle = NodeOutcome {
        node: i,
        rack: spec.rack_of(i),
        offered: spec.len as u64,
        admitted: 0,
        served: 0,
        hits: 0,
        dropped: 0,
        killed_at,
        cut_at,
        hit_ratio: 0.0,
        end_ns: 0,
    };
    if admitted == 0 {
        // Killed before the first call, or capped at zero: nothing ran.
        child.journal.exit(js, 0);
        return Ok(idle);
    }
    let trace = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.2,
        len: spec.len,
    }
    .generate(trace_seed);
    let trace = &trace[..admitted];
    let mut policy = Markov::new();
    let sched =
        hprc_sched::simulate_faulty(trace, node_cfg.n_prrs, &mut policy, true, &plan, child);
    let calls = prtr_calls(&node_cfg, trace, &sched.base, node_cfg.t_prtr_s());
    let prtr = run_prtr_faulty(&node_cfg, &calls, &plan, child).map_err(|e| FleetError::Node {
        node: i,
        error: e.to_string(),
    })?;
    child.journal.exit(js, prtr.total.0);

    Ok(NodeOutcome {
        admitted: sched.base.stats.calls,
        served: sched.base.stats.calls - sched.dropped,
        hits: sched.base.stats.hits,
        dropped: sched.dropped,
        hit_ratio: sched.base.hit_ratio(),
        end_ns: prtr.total.0,
        ..idle
    })
}

/// Runs one fleet: fans the nodes out across `ctx.jobs` workers with
/// [`par_indexed`] (which merges node registries in index order),
/// returns the lowest-index node error if any, and writes the cluster
/// causal journal (dispatch events, per-node spans on per-rack lanes,
/// witness journals, `dispatch` flow links).
///
/// `stream` discriminates the journal/id namespace between successive
/// fleets under one context (e.g. the sweep's rate index), so two
/// fleets in one experiment never mint colliding span ids.
///
/// `budget_events`, when set, caps the calls of the whole fleet: node
/// `i` may run `total / n` calls, plus one more for each of the lowest
/// `total % n` indices. A node runs its live prefix up to its cap, so
/// every cut is exact and `--jobs`-invariant, and the node outcomes
/// fold into one cluster [`BudgetAccount`] attached to the journal
/// footer.
///
/// # Panics
///
/// Panics when `spec.rack_size` is zero.
pub fn run_fleet(
    spec: &FleetSpec,
    stream: u64,
    budget_events: Option<u64>,
    ctx: &ExecCtx,
) -> Result<FleetRun, FleetError> {
    assert!(spec.rack_size > 0, "rack_size must be positive");
    let n = spec.nodes as u64;
    let base_trace_seed = ctx.seed_for(FLEET_TRACE_STREAM);
    let base_plan_seed = ctx.seed_for(FLEET_PLAN_STREAM);
    let kill_plan = FaultPlan::new(
        FaultSpec::default(),
        RecoveryPolicy::default(),
        ctx.seed_for(FLEET_KILL_STREAM),
    );

    // The witness journals derive from `ctx.journal` below, so the
    // fan-out itself runs with its journal off: no node builds a child
    // journal it would never write.
    let fan = ctx.clone().with_journal(Journal::noop());
    let nodes = par_indexed(spec.nodes, &fan, |i, child| {
        // Witness-per-rack journals bound the cluster log to O(racks)
        // node journals; the orchestrator still records every node's
        // dispatch/span below.
        let journal = if spec.is_witness(i) {
            ctx.journal
                .child(stream.wrapping_mul(0x0001_0000_0000).wrapping_add(i as u64))
        } else {
            Journal::noop()
        };
        let cap = budget_events.map(|total| total / n + u64::from((i as u64) < total % n));
        let node = child.clone().with_journal(journal);
        let outcome = run_node(
            i,
            spec,
            cap,
            base_trace_seed,
            base_plan_seed,
            &kill_plan,
            &node,
        );
        (outcome, node.journal)
    });
    // The lowest-index node error wins deterministically (results come
    // back in index order), regardless of worker interleaving.
    let (outcomes, journals): (Vec<_>, Vec<Journal>) = nodes.into_iter().unzip();
    let outcomes: Vec<NodeOutcome> = outcomes.into_iter().collect::<Result<_, _>>()?;

    // The cluster causal record, serialized in node-index order: every
    // node gets a dispatch event and a span on its rack's lane; witness
    // journals merge in right after their node's span so the `dispatch`
    // flow can point into the node's own record stream.
    let makespan_ns = outcomes.iter().map(|o| o.end_ns).max().unwrap_or(0);
    let run_span = ctx.journal.enter("fleet.run", 0, 0);
    for (i, out) in outcomes.iter().enumerate() {
        let t0 = i as u64 * 1_000;
        let d = ctx.journal.event("fleet.dispatch", run_span, t0, 0);
        let span = ctx
            .journal
            .open("fleet.node", run_span, t0, 1 + out.rack as u64);
        ctx.journal.close(span, t0 + out.end_ns);
        if spec.is_witness(i) {
            let work = journals[i].records().iter().find_map(|r| match r {
                hprc_obs::JournalRecord::Open { id, .. } => Some(*id),
                _ => None,
            });
            ctx.journal.merge_from(&journals[i]);
            ctx.journal.flow(d, work, "dispatch");
        }
    }
    ctx.journal.exit(run_span, makespan_ns);

    // Fold the node outcomes into the cluster account and surface it in
    // the journal footer: the earliest cut is the cluster's cutoff.
    let account = budget_events.map(|total| {
        let cuts = || outcomes.iter().filter_map(|o| o.cut_at);
        let account = BudgetAccount {
            max_events: Some(total),
            charged_events: outcomes.iter().map(|o| o.admitted).sum(),
            would_have_run: outcomes
                .iter()
                .map(|o| o.killed_at.unwrap_or(o.offered) - o.admitted)
                .sum(),
            cutoff_seq: cuts().min(),
            runs_cut: cuts().count() as u64,
        };
        ctx.journal.set_budget_account(account);
        account
    });

    let run = FleetRun {
        outcomes,
        account,
        makespan_ns,
    };
    if ctx.registry.is_enabled() {
        let offered: u64 = run.outcomes.iter().map(|o| o.offered).sum();
        let served: u64 = run.outcomes.iter().map(|o| o.served).sum();
        ctx.registry.counter("fleet.nodes").add(n);
        ctx.registry.counter("fleet.killed").add(run.killed_nodes());
        ctx.registry.counter("fleet.offered").add(offered);
        ctx.registry.counter("fleet.served").add(served);
        ctx.registry
            .gauge("fleet.availability")
            .set(run.availability());
        if let Some(a) = &run.account {
            ctx.registry
                .counter("fleet.budget.would_have_run")
                .add(a.would_have_run);
            ctx.registry
                .counter("fleet.budget.runs_cut")
                .add(a.runs_cut);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_obs::Registry;

    fn small() -> FleetSpec {
        FleetSpec {
            nodes: 24,
            rack_size: 8,
            len: 16,
            rate: 0.1,
            p_kill: 0.2,
        }
    }

    #[test]
    fn ragged_last_rack_arithmetic() {
        let spec = FleetSpec {
            nodes: 10,
            rack_size: 4,
            ..small()
        };
        assert_eq!(spec.racks(), 3);
        assert_eq!(spec.rack_of(0), 0);
        assert_eq!(spec.rack_of(3), 0);
        assert_eq!(spec.rack_of(4), 1);
        assert_eq!(spec.rack_of(9), 2);
        // One witness per rack, at the rack's first node.
        let witnesses: Vec<usize> = (0..spec.nodes).filter(|&n| spec.is_witness(n)).collect();
        assert_eq!(witnesses, vec![0, 4, 8]);
        assert_eq!(witnesses.len(), spec.racks());
    }

    #[test]
    fn empty_fleet_has_no_racks() {
        let spec = FleetSpec {
            nodes: 0,
            ..small()
        };
        assert_eq!(spec.racks(), 0);
        let run = run_fleet(&spec, 0, Some(10), &ExecCtx::default()).unwrap();
        assert!(run.outcomes.is_empty());
        assert_eq!(run.account.unwrap().max_events, Some(10));
    }

    #[test]
    #[should_panic(expected = "rack_size must be positive")]
    fn zero_rack_size_rejected() {
        let spec = FleetSpec {
            rack_size: 0,
            ..small()
        };
        let _ = run_fleet(&spec, 0, None, &ExecCtx::default());
    }

    #[test]
    fn fleet_is_jobs_invariant_in_artifacts_and_journal() {
        for nodes in [1, 24] {
            let spec = FleetSpec { nodes, ..small() };
            let run_with = |jobs: usize| {
                let ctx = ExecCtx::default()
                    .with_registry(Registry::new())
                    .with_journal(Journal::new(77))
                    .with_seed(5)
                    .with_jobs(jobs);
                let run = run_fleet(&spec, 0, None, &ctx).unwrap();
                (
                    format!("{:?}", run.outcomes),
                    ctx.journal.to_jsonl("fleet", 5),
                    ctx.registry.snapshot(),
                )
            };
            let (o1, j1, s1) = run_with(1);
            let (o4, j4, s4) = run_with(4);
            assert_eq!(o1, o4, "{nodes} nodes");
            assert_eq!(
                j1, j4,
                "{nodes} nodes: cluster journal is byte-identical at any --jobs"
            );
            assert_eq!(s1.counters["fleet.nodes"], nodes as u64);
            assert_eq!(s1.counters, s4.counters, "{nodes} nodes");
            assert_eq!(s1.gauges, s4.gauges, "{nodes} nodes");
            assert_eq!(s1.histograms, s4.histograms, "{nodes} nodes");
        }
    }

    #[test]
    fn kills_reduce_served_calls_and_are_recorded() {
        let ctx = ExecCtx::default().with_seed(5);
        let clean = run_fleet(
            &FleetSpec {
                p_kill: 0.0,
                ..small()
            },
            0,
            None,
            &ctx,
        )
        .unwrap();
        let chaotic = run_fleet(&small(), 1, None, &ctx).unwrap();
        assert_eq!(clean.killed_nodes(), 0);
        assert!(chaotic.killed_nodes() > 0, "p_kill=0.2 over 24 nodes");
        assert!(chaotic.availability() < clean.availability());
        for o in &chaotic.outcomes {
            if let Some(k) = o.killed_at {
                assert!(o.admitted <= k, "a killed node serves only the prefix");
            }
        }
    }

    #[test]
    fn cluster_budget_cuts_every_node_at_the_same_sequence_number() {
        // No kills: every node offers the full trace, so the even
        // budget split cuts every node at the identical sequence point.
        let spec = FleetSpec {
            p_kill: 0.0,
            ..small()
        };
        let total = (spec.nodes * spec.len / 2) as u64; // half the work
        let run_once = || {
            let ctx = ExecCtx::default().with_seed(9);
            let run = run_fleet(&spec, 0, Some(total), &ctx).unwrap();
            let cuts: Vec<Option<u64>> = run.outcomes.iter().map(|o| o.cut_at).collect();
            (cuts, run.account.unwrap())
        };
        let (cuts, acct) = run_once();
        // Every node got len/2 events, so every node cut at the same
        // logical sequence number — and reruns reproduce it exactly.
        let expected = Some((spec.len / 2 + 1) as u64);
        assert!(cuts.iter().all(|c| *c == expected), "{cuts:?}");
        assert_eq!(acct.cutoff_seq, expected);
        assert_eq!(acct.runs_cut, spec.nodes as u64);
        assert_eq!(acct.charged_events, total);
        assert!(acct.would_have_run > 0);
        assert_eq!(run_once(), (cuts, acct));
    }

    #[test]
    fn ragged_cap_admits_each_live_prefix_up_to_its_node_share() {
        // 16·6 + 5: nodes 0–4 may run 7 calls, nodes 5–15 may run 6.
        let spec = FleetSpec {
            nodes: 16,
            rack_size: 4,
            len: 12,
            rate: 0.1,
            p_kill: 0.5,
        };
        let total = 16 * 6 + 5;
        let run_at = |jobs: usize| {
            let ctx = ExecCtx::default().with_seed(3).with_jobs(jobs);
            run_fleet(&spec, 0, Some(total), &ctx).unwrap()
        };
        let run = run_at(1);
        let mut cut = Vec::new();
        for o in &run.outcomes {
            let cap = if o.node < 5 { 7 } else { 6 };
            let live = o.killed_at.unwrap_or(spec.len as u64);
            assert_eq!(o.admitted, live.min(cap), "node {}", o.node);
            let refused = live > cap;
            assert_eq!(o.cut_at, refused.then_some(cap + 1), "node {}", o.node);
            if refused {
                cut.push(cap + 1);
            }
        }
        // The seed gives a mix: cuts at both caps, and nodes the kill
        // stopped inside their share.
        assert!(cut.contains(&7) && cut.contains(&8), "{cut:?}");
        assert!(cut.len() < spec.nodes, "{cut:?}");

        let admitted: u64 = run.outcomes.iter().map(|o| o.admitted).sum();
        let live: u64 = run
            .outcomes
            .iter()
            .map(|o| o.killed_at.unwrap_or(spec.len as u64))
            .sum();
        assert_eq!(
            run.account,
            Some(BudgetAccount {
                max_events: Some(total),
                charged_events: admitted,
                would_have_run: live - admitted,
                cutoff_seq: cut.iter().copied().min(),
                runs_cut: cut.len() as u64,
            })
        );

        let four = run_at(4);
        assert_eq!(
            format!("{:?}", run.outcomes),
            format!("{:?}", four.outcomes)
        );
        assert_eq!(run.account, four.account);
    }

    #[test]
    fn a_cap_below_the_node_count_leaves_the_last_nodes_idle() {
        // 5 calls over 8 nodes: nodes 0–4 may run one call each, and
        // nodes 5–7 none, so they are cut at their first call.
        let spec = FleetSpec {
            nodes: 8,
            rack_size: 4,
            len: 6,
            rate: 0.0,
            p_kill: 0.0,
        };
        let run = run_fleet(&spec, 0, Some(5), &ExecCtx::default()).unwrap();
        for o in &run.outcomes {
            let cap = u64::from(o.node < 5);
            assert_eq!(o.admitted, cap, "node {}", o.node);
            assert_eq!(o.cut_at, Some(cap + 1), "node {}", o.node);
        }
        for o in &run.outcomes[5..] {
            assert_eq!((o.served, o.hits, o.end_ns), (0, 0, 0), "node {}", o.node);
        }
        assert_eq!(
            run.account,
            Some(BudgetAccount {
                max_events: Some(5),
                charged_events: 5,
                would_have_run: 8 * 6 - 5,
                cutoff_seq: Some(1),
                runs_cut: 8,
            })
        );
    }

    #[test]
    fn cluster_journal_links_dispatch_to_witness_work() {
        let ctx = ExecCtx::default()
            .with_journal(Journal::new(3))
            .with_seed(1);
        run_fleet(&small(), 0, None, &ctx).unwrap();
        let racks = small().racks();
        let recs = ctx.journal.records();
        let dispatches = recs
            .iter()
            .filter(|r| matches!(r, hprc_obs::JournalRecord::Event { name, .. } if *name == "fleet.dispatch"))
            .count();
        assert_eq!(dispatches, 24, "every node dispatched");
        let flows = recs
            .iter()
            .filter(
                |r| matches!(r, hprc_obs::JournalRecord::Flow { kind, .. } if *kind == "dispatch"),
            )
            .count();
        assert_eq!(flows, racks, "one dispatch arrow per witness");
        // The footer carries no budget object for unlimited runs.
        let jsonl = ctx.journal.to_jsonl("fleet", 1);
        assert!(!jsonl.lines().last().unwrap().contains("budget"));
        // The flow endpoints resolve: the Chrome export emits a
        // start/finish pair per witness arrow (plus the node-internal
        // configure/execute flows from the witness journals).
        let arrows = ctx.journal.chrome_flow_events(1, None);
        assert!(arrows.len() >= 2 * racks);
    }
}
