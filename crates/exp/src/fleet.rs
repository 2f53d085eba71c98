//! Deterministic cluster orchestrator: shards one workload across N
//! simulated HPRC nodes and aggregates the results hierarchically.
//!
//! Each node is an independent child [`ExecCtx`]: its own derived
//! workload and fault-plan seeds (resolved from the *parent* context
//! before the fan-out, so they are `--jobs`-invariant), its own
//! registry shard, its own run-budget slice, and — for one *witness*
//! node per rack — its own live child journal. After the parallel
//! fan-out:
//!
//! * per-node registries merge **node → rack → cluster**
//!   ([`ShardedRegistry::merge_two_level`]), index-ordered at both
//!   levels, so the merged instrument state is byte-identical to a
//!   serial run (and to the flat single-level merge — pinned by
//!   proptests);
//! * the orchestrator writes the cluster causal record serially in
//!   node-index order: a `fleet.dispatch` event and a `fleet.node`
//!   span per node (one Chrome lane per rack), then merges each
//!   witness's journal and links `dispatch → node work` with a flow
//!   edge — the arrows that connect the orchestrator span to the
//!   per-node `configure`/`execute` journal events;
//! * per-node [`BudgetAccount`]s fold in index order into one cluster
//!   account, attached to the journal footer.
//!
//! Node kills (`p_kill`) draw from [`FaultPlan::node_kill_call`]'s
//! dedicated stream: a killed node serves only the prefix of its
//! workload before the kill instant, and the kill set is monotone in
//! `p_kill` by construction.

use hprc_ctx::ExecCtx;
use hprc_fault::{splitmix64, FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{BudgetAccount, FleetTopology, Journal, RunBudget, ShardedRegistry};
use hprc_sched::policies::Markov;
use hprc_sched::traces::TraceSpec;
use hprc_sim::executor::run_prtr_faulty;
use hprc_sim::node::NodeConfig;
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// A split budget slice had no account to fold — the budget
    /// accounting invariant was violated.
    MissingAccount {
        /// Node index whose budget slice had no account.
        node: usize,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Node { node, error } => write!(f, "node {node}: {error}"),
            FleetError::MissingAccount { node } => {
                write!(f, "node {node}: split budget slice has no account")
            }
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

/// What one node produced.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NodeOutcome {
    /// Node index.
    pub node: usize,
    /// Rack index.
    pub rack: usize,
    /// Calls offered (the full workload length).
    pub offered: u64,
    /// Calls admitted past the kill point and the run budget.
    pub admitted: u64,
    /// Admitted calls actually served (not dropped by recovery).
    pub served: u64,
    /// Cache hits among admitted calls.
    pub hits: u64,
    /// Admitted calls dropped by the recovery policy.
    pub dropped: u64,
    /// The call at which the node was killed, if it was.
    pub killed_at: Option<u64>,
    /// The node budget's cutoff sequence number, if it was exhausted.
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
    /// The folded cluster budget account (None for unlimited runs).
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
    pub fn rack_hit_ratios(&self, topo: &FleetTopology) -> Vec<f64> {
        let mut hits = vec![0u64; topo.racks()];
        let mut calls = vec![0u64; topo.racks()];
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
    topo: &FleetTopology,
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
    // The full workload is generated, then truncated at the kill
    // instant: a killed node saw the same arrival stream, it just
    // stopped serving it.
    let trace = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.2,
        len: spec.len,
    }
    .generate(trace_seed);
    let live = killed_at.map_or(spec.len, |k| k as usize);
    if live == 0 {
        // Killed before the first call: nothing ran, nothing charged.
        child.journal.exit(js, 0);
        return Ok(NodeOutcome {
            node: i,
            rack: topo.rack_of(i),
            offered: spec.len as u64,
            admitted: 0,
            served: 0,
            hits: 0,
            dropped: 0,
            killed_at,
            cut_at: child.budget.cutoff_seq(),
            hit_ratio: 0.0,
            end_ns: 0,
        });
    }
    let mut policy = Markov::new();
    let sched = hprc_sched::simulate_faulty(
        &trace[..live],
        node_cfg.n_prrs,
        &mut policy,
        true,
        &plan,
        child,
    );
    let calls = prtr_calls(&node_cfg, &trace[..live], &sched.base, node_cfg.t_prtr_s());
    let prtr = run_prtr_faulty(&node_cfg, &calls, &plan, child).map_err(|e| FleetError::Node {
        node: i,
        error: e.to_string(),
    })?;
    child.journal.exit(js, prtr.total.0);

    Ok(NodeOutcome {
        node: i,
        rack: topo.rack_of(i),
        offered: spec.len as u64,
        admitted: sched.base.stats.calls,
        served: sched.base.stats.calls - sched.dropped,
        hits: sched.base.stats.hits,
        dropped: sched.dropped,
        killed_at,
        cut_at: child.budget.cutoff_seq(),
        hit_ratio: sched.base.hit_ratio(),
        end_ns: prtr.total.0,
    })
}

/// Runs one fleet: fans the nodes out across `ctx.jobs` workers,
/// merges registries node → rack → cluster, writes the cluster causal
/// journal (dispatch events, per-node spans on per-rack lanes, witness
/// journals, `dispatch` flow links), and folds per-node budget slices
/// into one cluster [`BudgetAccount`] attached to the journal footer.
///
/// `stream` discriminates the journal/id namespace between successive
/// fleets under one context (e.g. the sweep's rate index), so two
/// fleets in one experiment never mint colliding span ids.
///
/// `budget_events`, when set, is the *cluster-wide* event budget: it is
/// split across nodes before dispatch ([`RunBudget::split_events`]), so
/// each node charges serially and the cutoff sequence number is exact
/// and `--jobs`-invariant.
pub fn run_fleet(
    spec: &FleetSpec,
    stream: u64,
    budget_events: Option<u64>,
    ctx: &ExecCtx,
) -> Result<FleetRun, FleetError> {
    let topo = FleetTopology::new(spec.nodes, spec.rack_size);
    let n = spec.nodes;
    let base_trace_seed = ctx.seed_for(FLEET_TRACE_STREAM);
    let base_plan_seed = ctx.seed_for(FLEET_PLAN_STREAM);
    let kill_plan = FaultPlan::new(
        FaultSpec::default(),
        RecoveryPolicy::default(),
        ctx.seed_for(FLEET_KILL_STREAM),
    );
    let budgets = budget_events.map(|total| RunBudget::split_events(total, n));

    let shards = ShardedRegistry::new(&ctx.registry, n);
    let children: Vec<ExecCtx> = (0..n)
        .map(|i| ExecCtx {
            registry: shards.shard(i).clone(),
            // Witness-per-rack journals bound the cluster log to
            // O(racks) node journals; the orchestrator still records
            // every node's dispatch/span below.
            journal: if topo.is_witness(i) {
                ctx.journal
                    .child(stream.wrapping_mul(0x0001_0000_0000).wrapping_add(i as u64))
            } else {
                Journal::noop()
            },
            seed: ctx.seed ^ i as u64,
            jobs: 1,
            budget: budgets
                .as_ref()
                .map_or_else(RunBudget::unlimited, |b| b[i].clone()),
            delta: ctx.delta.clone(),
        })
        .collect();

    let jobs = ctx.effective_jobs().min(n.max(1));
    let mut slots: Vec<Option<Result<NodeOutcome, FleetError>>> = if jobs <= 1 {
        children
            .iter()
            .enumerate()
            .map(|(i, child)| {
                Some(run_node(
                    i,
                    spec,
                    &topo,
                    base_trace_seed,
                    base_plan_seed,
                    &kill_plan,
                    child,
                ))
            })
            .collect()
    } else {
        let mut slots: Vec<Option<Result<NodeOutcome, FleetError>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let slots = Mutex::new(slots);
        let next = AtomicUsize::new(0);
        let children = &children;
        let topo_ref = &topo;
        let kill_ref = &kill_plan;
        crossbeam::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|_| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = run_node(
                        i,
                        spec,
                        topo_ref,
                        base_trace_seed,
                        base_plan_seed,
                        kill_ref,
                        &children[i],
                    );
                    slots.lock().expect("fleet slots lock")[i] = Some(value);
                });
            }
        })
        .expect("fleet scope");
        slots.into_inner().expect("fleet slots lock")
    };
    // The lowest-index node error wins deterministically (slots are
    // drained in index order), regardless of worker interleaving.
    let outcomes: Vec<NodeOutcome> = slots
        .iter_mut()
        .map(|slot| slot.take().expect("every node completed"))
        .collect::<Result<_, _>>()?;

    // Hierarchical node → rack → cluster merge, index-ordered at both
    // levels (== the flat merge, by associativity; pinned by proptests).
    shards.merge_two_level(&ctx.registry, spec.rack_size);

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
        if topo.is_witness(i) {
            let work = children[i].journal.records().iter().find_map(|r| match r {
                hprc_obs::JournalRecord::Open { id, .. } => Some(*id),
                _ => None,
            });
            ctx.journal.merge_from(&children[i].journal);
            ctx.journal.flow(d, work, "dispatch");
        }
    }
    ctx.journal.exit(run_span, makespan_ns);

    // Fold per-node budget slices into the cluster account, in index
    // order, and surface it in the journal footer.
    let account = match budgets {
        Some(bs) => {
            let mut total = BudgetAccount::default();
            for (node, b) in bs.iter().enumerate() {
                total.absorb(&b.account().ok_or(FleetError::MissingAccount { node })?);
            }
            ctx.journal.set_budget_account(total);
            Some(total)
        }
        None => None,
    };

    let run = FleetRun {
        outcomes,
        account,
        makespan_ns,
    };
    if ctx.registry.is_enabled() {
        let offered: u64 = run.outcomes.iter().map(|o| o.offered).sum();
        let served: u64 = run.outcomes.iter().map(|o| o.served).sum();
        ctx.registry.counter("fleet.nodes").add(n as u64);
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
    fn fleet_is_jobs_invariant_in_artifacts_and_journal() {
        let run_with = |jobs: usize| {
            let ctx = ExecCtx::default()
                .with_registry(Registry::new())
                .with_journal(Journal::new(77))
                .with_seed(5)
                .with_jobs(jobs);
            let run = run_fleet(&small(), 0, None, &ctx).unwrap();
            (
                format!("{:?}", run.outcomes),
                ctx.journal.to_jsonl("fleet", 5),
                ctx.registry.snapshot(),
            )
        };
        let (o1, j1, s1) = run_with(1);
        let (o4, j4, s4) = run_with(4);
        assert_eq!(o1, o4);
        assert_eq!(j1, j4, "cluster journal is byte-identical at any --jobs");
        assert_eq!(s1.counters, s4.counters);
        assert_eq!(s1.histograms, s4.histograms);
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
    fn cluster_journal_links_dispatch_to_witness_work() {
        let ctx = ExecCtx::default()
            .with_journal(Journal::new(3))
            .with_seed(1);
        run_fleet(&small(), 0, None, &ctx).unwrap();
        let topo = FleetTopology::new(24, 8);
        let recs = ctx.journal.records();
        let dispatches = recs
            .iter()
            .filter(|r| matches!(r, hprc_obs::JournalRecord::Event { name, .. } if name == "fleet.dispatch"))
            .count();
        assert_eq!(dispatches, 24, "every node dispatched");
        let flows = recs
            .iter()
            .filter(
                |r| matches!(r, hprc_obs::JournalRecord::Flow { kind, .. } if kind == "dispatch"),
            )
            .count();
        assert_eq!(flows, topo.racks(), "one dispatch arrow per witness");
        // The footer carries no budget object for unlimited runs.
        let jsonl = ctx.journal.to_jsonl("fleet", 1);
        assert!(!jsonl.lines().last().unwrap().contains("budget"));
        // The flow endpoints resolve: the Chrome export emits a
        // start/finish pair per witness arrow (plus the node-internal
        // configure/execute flows from the witness journals).
        let arrows = ctx.journal.chrome_flow_events(1, None);
        assert!(arrows.len() >= 2 * topo.racks());
    }
}
