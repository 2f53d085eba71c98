//! The `fleet` workload: many small fleets fanned out on two workers.
//!
//! A pass is one seed's four fleets — chaos rates 0, 0.08 and 0.25
//! (node kills and transient faults share the rate, as in `ext-fleet`)
//! plus one fleet capped at half its events — sharing one delta cache.
//! An op is one `fleet::run_fleet` call.

use std::time::Instant;

use hprc_ctx::ExecCtx;
use hprc_exp::fleet::{run_fleet, FleetRun, FleetSpec};
use hprc_exp::scenario::prtr_calls;
use hprc_fault::{splitmix64, FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::DeltaCache;
use hprc_sched::policies::Markov;
use hprc_sched::{simulate_faulty, TraceSpec};
use hprc_sim::executor::run_prtr_faulty;
use hprc_sim::node::NodeConfig;

use crate::layers::{account, Layers};
use crate::oracle::catch;
use crate::{Bench, Op};

/// Worker threads per fleet.
const JOBS: usize = 2;

/// Calls offered to each node.
const LEN: usize = 24;

#[derive(Clone, Copy)]
struct FleetOp {
    spec: FleetSpec,
    stream: u64,
    budget: Option<u64>,
}

pub(crate) struct FleetBench {
    seed: u64,
    ops: Vec<FleetOp>,
    pass: u64,
    ctx: ExecCtx,
    /// The current pass's results, for the sampled re-runs to match.
    digests: Vec<String>,
    /// The current pass's traced `run_fleet` times.
    on_ms: Vec<f64>,
    admitted: Vec<Vec<u64>>,
}

fn digest(run: &FleetRun) -> String {
    format!("{:?}|{:?}|{}", run.outcomes, run.account, run.makespan_ns)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-node bookkeeping every fleet must satisfy.
fn validate(op: &FleetOp, run: &FleetRun) -> Result<(), String> {
    if run.outcomes.len() != op.spec.nodes {
        return Err(format!(
            "{} node outcomes for {} nodes",
            run.outcomes.len(),
            op.spec.nodes
        ));
    }
    for o in &run.outcomes {
        if o.served + o.dropped != o.admitted || o.admitted > o.offered {
            return Err(format!(
                "node {}: served {} + dropped {} vs admitted {} of {} offered",
                o.node, o.served, o.dropped, o.admitted, o.offered
            ));
        }
    }
    if op.budget.is_some() != run.account.is_some() {
        return Err("budget account present iff the fleet is budget-capped".into());
    }
    Ok(())
}

impl FleetBench {
    /// 256 nodes in racks of 16, 24 calls each.
    pub(crate) fn new(seed: u64, smoke: bool) -> FleetBench {
        let (nodes, rack_size) = if smoke { (16, 4) } else { (256, 16) };
        let spec = |rate: f64, p_kill: f64| FleetSpec {
            nodes,
            rack_size,
            len: LEN,
            rate,
            p_kill,
        };
        let mut ops: Vec<FleetOp> = [0.0, 0.08, 0.25]
            .iter()
            .enumerate()
            .map(|(i, &rate)| FleetOp {
                spec: spec(rate, rate),
                stream: i as u64,
                budget: None,
            })
            .collect();
        ops.push(FleetOp {
            spec: spec(0.08, 0.0),
            stream: 3,
            budget: Some((nodes * LEN / 2) as u64),
        });
        FleetBench {
            seed,
            ops,
            pass: 0,
            ctx: ExecCtx::default(),
            digests: Vec::new(),
            on_ms: Vec::new(),
            admitted: Vec::new(),
        }
    }

    fn pass_ctx(&self, jobs: usize, delta: DeltaCache) -> ExecCtx {
        ExecCtx::default()
            .with_seed(splitmix64(self.seed ^ self.pass))
            .with_jobs(jobs)
            .with_delta(delta)
    }

    /// Re-runs the pass's fleets under `ctx`; each must match the main
    /// run. Returns each fleet's host time.
    fn rerun(&self, ctx: &ExecCtx, label: &str) -> Result<Vec<f64>, String> {
        let mut times = Vec::with_capacity(self.ops.len());
        for (op, main) in self.ops.iter().zip(&self.digests) {
            let t0 = Instant::now();
            let run = run_fleet(&op.spec, op.stream, op.budget, ctx)
                .map_err(|e| format!("{label} fleet: {e}"))?;
            times.push(ms_since(t0));
            if digest(&run) != *main {
                return Err(format!("fleet stream {}: {label} run differs", op.stream));
            }
        }
        Ok(times)
    }

    /// The node work of the pass's fleets, replayed serially from
    /// outside the orchestrator: for every node, an equal-shaped
    /// workload (same trace shape, policy, fault rate and admitted call
    /// count) through the cache simulation and the PRTR executor, with
    /// one fresh cache for the pass as the fleets have. Returns each
    /// fleet's host time.
    fn node_work(&self) -> Result<Vec<f64>, String> {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let ctx = self.pass_ctx(1, DeltaCache::enabled());
        let mut times = Vec::with_capacity(self.ops.len());
        for (op, admitted) in self.ops.iter().zip(&self.admitted) {
            let t0 = Instant::now();
            for (i, &live) in admitted.iter().enumerate() {
                if live == 0 {
                    continue;
                }
                let h = splitmix64(ctx.seed ^ (op.stream << 32) ^ i as u64);
                let trace = TraceSpec::Looping {
                    stages: 3,
                    n_tasks: 3,
                    noise: 0.2,
                    len: op.spec.len,
                }
                .generate(h);
                let trace = &trace[..live as usize];
                let plan = if op.spec.rate == 0.0 {
                    FaultPlan::disarmed()
                } else {
                    FaultPlan::new(
                        FaultSpec::uniform(op.spec.rate),
                        RecoveryPolicy::default(),
                        splitmix64(h),
                    )
                };
                let sched =
                    simulate_faulty(trace, node.n_prrs, &mut Markov::new(), true, &plan, &ctx);
                let calls = prtr_calls(&node, trace, &sched.base, node.t_prtr_s());
                run_prtr_faulty(&node, &calls, &plan, &ctx)
                    .map_err(|e| format!("node work replay: {e}"))?;
            }
            times.push(ms_since(t0));
        }
        Ok(times)
    }
}

impl Bench for FleetBench {
    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    fn begin_pass(&mut self, pass: u64) -> Result<(), String> {
        self.pass = pass;
        // One shared cache per seed: the pass's fleets reuse each
        // other's skeletons.
        self.ctx = self.pass_ctx(JOBS, DeltaCache::enabled());
        self.digests.clear();
        self.on_ms.clear();
        self.admitted.clear();
        Ok(())
    }

    fn op(&mut self, i: usize, _sampled: bool, probe: Option<&mut Layers>) -> Op {
        let op = self.ops[i];
        let a0 = account(&self.ctx.delta);
        let t0 = Instant::now();
        let ctx = &self.ctx;
        let call = || catch(|| run_fleet(&op.spec, op.stream, op.budget, ctx));
        let (result, busy, layers) = match probe {
            None => {
                let r = call();
                (r, t0.elapsed(), None)
            }
            Some(l) => {
                let (r, _) = l.time("exp.fleet.run_ms", call);
                let busy = t0.elapsed();
                l.op_done(busy);
                (r, busy, Some(l))
            }
        };
        let a1 = account(&self.ctx.delta);
        let run = match result {
            Ok(Ok(run)) => run,
            Ok(Err(e)) => return failed(busy, format!("fleet stream {}: {e}", op.stream)),
            Err(e) => return failed(busy, format!("fleet stream {}: panicked: {e}", op.stream)),
        };
        let admitted: u64 = run.outcomes.iter().map(|o| o.admitted).sum();
        if let Some(l) = layers {
            let sum = |f: fn(&hprc_exp::fleet::NodeOutcome) -> u64| -> f64 {
                run.outcomes.iter().map(f).sum::<u64>() as f64
            };
            l.per_op("sched.calls", admitted as f64);
            l.per_op("sim.calls", admitted as f64);
            l.ratio("sched.hit_ratio", sum(|o| o.hits), admitted as f64);
            l.per_op("fault.dropped", sum(|o| o.dropped));
            l.ratio("fault.availability", sum(|o| o.served), sum(|o| o.offered));
            l.replay_share(&a0, &a1);
            l.per_op("sim.delta.full_hits", (a1.full_hits - a0.full_hits) as f64);
            l.cache_activity(&a0, &a1);
            self.on_ms.push(busy.as_secs_f64() * 1e3);
        }
        let check = validate(&op, &run).map_err(|e| format!("fleet stream {}: {e}", op.stream));
        self.digests.push(digest(&run));
        self.admitted
            .push(run.outcomes.iter().map(|o| o.admitted).collect());
        Op {
            busy,
            sim_calls: admitted,
            check,
        }
    }

    fn end_pass(&mut self, sampled: bool, probe: Option<&mut Layers>) -> Result<(), String> {
        if !sampled || self.digests.len() != self.ops.len() {
            return Ok(());
        }
        let serial = self.rerun(&self.pass_ctx(1, DeltaCache::enabled()), "serial")?;
        let off = self.rerun(&self.pass_ctx(JOBS, DeltaCache::disabled()), "delta-off")?;
        if let Some(l) = probe {
            let node = self.node_work()?;
            l.sampled(self.ops.len() as u64);
            for k in 0..self.ops.len() {
                let on = self.on_ms[k];
                l.apart("exp.fleet.serial_ms", serial[k]);
                l.ratio("exp.fleet.parallel_eff", serial[k], JOBS as f64 * on);
                l.apart("exp.fleet.node_work_ms", node[k]);
                l.apart("exp.fleet.overhead_ms", serial[k] - node[k]);
                l.apart("sim.delta.saved_ms", off[k] - on);
            }
        }
        Ok(())
    }
}

fn failed(busy: std::time::Duration, e: String) -> Op {
    Op {
        busy,
        sim_calls: 0,
        check: Err(e),
    }
}
