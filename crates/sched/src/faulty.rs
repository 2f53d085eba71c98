//! Fault-aware cache simulation: the one simulation core. A clean
//! [`simulate`](crate::simulate::simulate) is this core under
//! [`FaultPlan::disarmed`], where every fate is clean and no draw can
//! fire.
//!
//! Three things distinguish a faulty run from a clean one:
//!
//! 1. **Escalations wipe the cache.** A partial chain that exhausts its
//!    retries escalates to a full reconfiguration, and a full bitstream
//!    overwrites the whole device — every resident partial configuration
//!    is gone, so subsequent calls that would have hit now miss. `H`
//!    degrades *honestly* instead of the cache pretending the device
//!    still holds what the fault destroyed.
//! 2. **Blacklisting shrinks the device.** A PRR that escalates
//!    `blacklist_after` times is retired; demand loads and prefetches
//!    redirect to the remaining usable slots, and once every slot is
//!    gone the system degrades to pure FRTR (every call a forced-full
//!    miss) without panicking.
//! 3. **SEUs silently corrupt residents.** After each call, a seeded
//!    upset draw may strike any occupied slot; the occupant is evicted
//!    (the next call for it becomes a miss), modelling the silent
//!    corruption + readback-detection cycle.
//!
//! The scheduler and the simulator each run their own [`FaultState`]
//! over the identical `(call, slot, miss)` stream, so fates never need
//! to be passed between the two layers — they re-derive identically.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use hprc_fault::{CallFate, FaultPlan, FaultState};

use crate::cache::{CacheStats, ConfigCache, TaskId};
use crate::policy::Policy;
use crate::simulate::{record_outcome, CallOutcome, SimulationOutcome};

/// Result of one fault-injecting cache simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyOutcome {
    /// The underlying hit/miss outcome stream (what the executors
    /// consume), with fault-induced misses already folded in.
    pub base: SimulationOutcome,
    /// Per-call fates, in trace order — hits carry a clean fate.
    pub fates: Vec<CallFate>,
    /// Resident configurations evicted by SEU strikes.
    pub seu_invalidations: u64,
    /// Full-device wipes caused by escalated or forced-full chains.
    pub escalation_wipes: u64,
    /// PRRs blacklisted by the end of the run.
    pub blacklisted_slots: usize,
    /// Calls whose recovery chain exhausted every attempt.
    pub dropped: u64,
}

impl FaultyOutcome {
    /// The measured hit ratio `H` under faults.
    pub fn hit_ratio(&self) -> f64 {
        self.base.hit_ratio()
    }

    /// Availability: the fraction of calls that were *not* dropped.
    pub fn availability(&self) -> f64 {
        if self.base.stats.calls == 0 {
            1.0
        } else {
            1.0 - self.dropped as f64 / self.base.stats.calls as f64
        }
    }
}

fn first_empty_usable(cache: &ConfigCache, state: &FaultState) -> Option<usize> {
    (0..cache.slot_count()).find(|&s| cache.occupant(s).is_none() && !state.is_blacklisted(s))
}

fn first_usable(state: &FaultState, slots: usize) -> usize {
    (0..slots).find(|&s| !state.is_blacklisted(s)).unwrap_or(0)
}

/// The resumable core of every cache simulation: all mutable run state
/// in one struct, advanced one call at a time. The delta layer
/// snapshots and restores it mid-trace (swapping in the sweep point's
/// own plan via [`FaultState::set_plan`]); the longhand path drives it
/// start to finish. Per-call fates are recorded under an armed plan
/// only: a disarmed run's fates are all clean.
pub(crate) struct FaultySim {
    pub(crate) slots: usize,
    pub(crate) armed: bool,
    pub(crate) state: FaultState,
    pub(crate) cache: ConfigCache,
    pub(crate) stats: CacheStats,
    pub(crate) outcomes: Vec<CallOutcome>,
    pub(crate) fates: Vec<CallFate>,
    pub(crate) speculative: HashSet<TaskId>,
    pub(crate) seu_invalidations: u64,
    pub(crate) escalation_wipes: u64,
    pub(crate) dropped: u64,
}

impl FaultySim {
    /// A fresh run over a `calls`-long trace.
    pub(crate) fn new(plan: FaultPlan, slots: usize, calls: usize) -> Self {
        let armed = plan.armed();
        FaultySim {
            slots,
            armed,
            state: FaultState::new(plan, slots),
            cache: ConfigCache::new(slots),
            stats: CacheStats::default(),
            outcomes: Vec::with_capacity(calls),
            fates: Vec::with_capacity(if armed { calls } else { 0 }),
            speculative: HashSet::new(),
            seu_invalidations: 0,
            escalation_wipes: 0,
            dropped: 0,
        }
    }

    /// Processes call `i` of the trace (task `task`).
    pub(crate) fn step(&mut self, i: usize, task: TaskId, policy: &mut dyn Policy, prefetch: bool) {
        let slots = self.slots;
        self.stats.calls += 1;
        let resident_slot = self.cache.slot_of(task);
        let (outcome, fate) = match resident_slot {
            Some(slot) if !policy.forces_miss() => {
                self.stats.hits += 1;
                if self.speculative.remove(&task) {
                    self.stats.useful_prefetches += 1;
                }
                (CallOutcome::Hit { slot }, CallFate::clean_partial())
            }
            _ => {
                self.stats.misses += 1;
                self.speculative.remove(&task);
                // Demand slot choice, redirected away from retired PRRs;
                // a forced miss on a resident task reconfigures in place.
                // With every PRR blacklisted the chain is forced full;
                // slot 0 is the conventional (unusable) target, and the
                // simulator's own FaultState derives the same fate from
                // it.
                let slot = if self.state.all_blacklisted() {
                    0
                } else {
                    let chosen = resident_slot
                        .or_else(|| first_empty_usable(&self.cache, &self.state))
                        .unwrap_or_else(|| policy.choose_victim(&self.cache, task, i));
                    if self.state.is_blacklisted(chosen) {
                        first_usable(&self.state, slots)
                    } else {
                        chosen
                    }
                };
                let fate = self.state.on_miss(i as u64, slot);
                let mut evicted = None;
                if fate.escalated || fate.forced_full {
                    // The full bitstream overwrote the whole device.
                    self.cache.clear();
                    self.speculative.clear();
                    self.escalation_wipes += 1;
                    if fate.dropped {
                        self.dropped += 1;
                    } else if !self.state.is_blacklisted(slot) {
                        self.cache.load(slot, task);
                        policy.on_load(task, slot, i);
                    }
                } else {
                    evicted = self.cache.load(slot, task);
                    if let Some(e) = evicted {
                        self.speculative.remove(&e);
                    }
                    policy.on_load(task, slot, i);
                }
                (
                    CallOutcome::Miss {
                        slot,
                        evicted: evicted.filter(|&e| e != task),
                    },
                    fate,
                )
            }
        };
        let slot = match outcome {
            CallOutcome::Hit { slot } | CallOutcome::Miss { slot, .. } => slot,
        };
        policy.on_access(task, slot, i);
        self.outcomes.push(outcome);
        if self.armed {
            self.fates.push(fate);
        }

        // SEU sweep: seeded upsets silently corrupt resident slots; the
        // eviction is how the (detected-on-next-use) corruption becomes
        // a forced miss downstream.
        for s in 0..slots {
            if self.cache.occupant(s).is_some() && self.state.seu_strikes(i as u64, s) {
                if let Some(e) = self.cache.clear_slot(s) {
                    self.speculative.remove(&e);
                }
                self.seu_invalidations += 1;
            }
        }

        if prefetch && !self.state.all_blacklisted() {
            if let Some(pred) = policy.predict_next(task) {
                if pred != task && !self.cache.contains(pred) {
                    let target = first_empty_usable(&self.cache, &self.state)
                        .unwrap_or_else(|| policy.choose_victim(&self.cache, pred, i));
                    let target = if self.state.is_blacklisted(target) {
                        first_usable(&self.state, slots)
                    } else {
                        target
                    };
                    // Never evict the task that is executing right now.
                    if Some(target) != self.cache.slot_of(task) {
                        if let Some(e) = self.cache.load(target, pred) {
                            self.speculative.remove(&e);
                        }
                        policy.on_load(pred, target, i);
                        self.stats.prefetch_loads += 1;
                        self.speculative.insert(pred);
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> FaultyOutcome {
        FaultyOutcome {
            base: SimulationOutcome {
                stats: self.stats,
                outcomes: self.outcomes,
            },
            fates: self.fates,
            seu_invalidations: self.seu_invalidations,
            escalation_wipes: self.escalation_wipes,
            blacklisted_slots: self.state.blacklisted_slots(),
            dropped: self.dropped,
        }
    }
}

/// Simulates the whole trace longhand.
pub(crate) fn simulate_longhand(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
) -> FaultyOutcome {
    let mut sim = FaultySim::new(*plan, slots, trace.len());
    policy.observe_trace(trace);
    for (i, &task) in trace.iter().enumerate() {
        sim.step(i, task, policy, prefetch);
    }
    sim.finish()
}

/// The one instrumented driver behind
/// [`simulate`](crate::simulate::simulate) and [`simulate_faulty`]:
/// budget admission, delta dispatch, span and journal enter/exit, and
/// metric recording. `plan` is either armed or exactly
/// [`FaultPlan::disarmed`]; the disarmed run is the clean path, recorded
/// under the `sched.simulate` names without any `sched.fault.*`
/// instrument.
pub(crate) fn drive(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
    ctx: &hprc_ctx::ExecCtx,
) -> FaultyOutcome {
    let armed = plan.armed();
    let name = if armed {
        "sched.simulate_faulty"
    } else {
        "sched.simulate"
    };
    let registry = &ctx.registry;
    let _span = registry.span(name);
    let j = &ctx.journal;
    let js = j.enter(name, 0, 0);

    // Budget hook: each call is one charged event. The refused tail is
    // dropped deterministically (same cutoff sequence on every rerun)
    // and tallied as would-have-run; an unlimited budget admits all.
    let trace = &trace[..ctx.budget.admit(trace.len())];

    // Delta path: memoized skeletons replay shared prefixes of earlier
    // runs (with the first plan disagreement bounding the replay). All
    // recording below derives from the outcome alone, so the swap is
    // invisible to every artifact — including instrumented runs.
    let out = if ctx.delta.is_enabled() {
        crate::delta::simulate_delta(trace, slots, policy, prefetch, plan, &ctx.delta)
    } else {
        simulate_longhand(trace, slots, policy, prefetch, plan)
    };

    record_outcome(registry, policy.name(), &out.base);
    if armed && registry.is_enabled() {
        registry
            .counter("sched.fault.seu_invalidations")
            .add(out.seu_invalidations);
        registry
            .counter("sched.fault.escalation_wipes")
            .add(out.escalation_wipes);
        registry.counter("sched.fault.dropped").add(out.dropped);
        registry
            .gauge("sched.fault.blacklisted_slots")
            .set(out.blacklisted_slots as f64);
    }
    j.metric("sched.calls", out.base.stats.calls);
    j.metric("sched.hits", out.base.stats.hits);
    j.metric("sched.misses", out.base.stats.misses);
    if armed {
        j.metric("sched.fault.seu_invalidations", out.seu_invalidations);
        j.metric("sched.fault.escalation_wipes", out.escalation_wipes);
        j.metric("sched.fault.dropped", out.dropped);
    }
    j.exit(js, 0);
    out
}

/// Runs `trace` through a cache of `slots` PRRs under `policy` with the
/// fault plan armed. A disarmed (or all-zero) plan is normalized to
/// [`FaultPlan::disarmed`] and runs exactly [`simulate`] — same outcome,
/// same metrics, same delta skeletons — with every fate clean.
///
/// Beyond [`simulate`]'s per-policy instruments, an armed run records:
///
/// * counters `sched.fault.seu_invalidations` / `.escalation_wipes` /
///   `.dropped`;
/// * gauge `sched.fault.blacklisted_slots`.
///
/// # Panics
///
/// Panics when `slots == 0` (as [`simulate`] does); everything the
/// fault machinery adds is panic-free, including full blacklisting.
///
/// [`simulate`]: crate::simulate::simulate
pub fn simulate_faulty(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
    ctx: &hprc_ctx::ExecCtx,
) -> FaultyOutcome {
    if plan.armed() {
        return drive(trace, slots, policy, prefetch, plan, ctx);
    }
    let mut out = drive(trace, slots, policy, prefetch, &FaultPlan::disarmed(), ctx);
    out.fates = vec![CallFate::clean_partial(); out.base.outcomes.len()];
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Lru, Markov};
    use crate::simulate::simulate;
    use hprc_fault::{FaultSpec, RecoveryPolicy};

    fn ids(v: &[usize]) -> Vec<TaskId> {
        v.iter().map(|&i| TaskId(i)).collect()
    }

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    fn plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), seed)
    }

    #[test]
    fn disarmed_plan_is_identical_to_simulate_including_metrics() {
        let trace = ids(&[0, 1, 2].repeat(30));
        let cctx = dctx().with_registry(hprc_obs::Registry::new());
        let fctx = dctx().with_registry(hprc_obs::Registry::new());
        let clean = simulate(&trace, 2, &mut Markov::new(), true, &cctx);
        let faulty = simulate_faulty(
            &trace,
            2,
            &mut Markov::new(),
            true,
            &FaultPlan::disarmed(),
            &fctx,
        );
        assert_eq!(clean, faulty.base);
        assert!(faulty.fates.iter().all(|f| f.is_clean()));
        assert_eq!(faulty.dropped, 0);
        assert_eq!(faulty.blacklisted_slots, 0);
        let csnap = cctx.registry.snapshot();
        let fsnap = fctx.registry.snapshot();
        assert_eq!(csnap.counters, fsnap.counters);
        assert_eq!(csnap.gauges, fsnap.gauges);
    }

    #[test]
    fn seu_strikes_evict_residents_and_cost_hits() {
        // SEU-only faults: the partial chains themselves never fail, so
        // every lost hit is a silent upset eviction.
        let spec = FaultSpec {
            p_seu: 0.3,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 7);
        let trace = ids(&[0, 1].repeat(100));
        let clean = simulate(&trace, 2, &mut Lru::new(), false, &dctx());
        let faulty = simulate_faulty(&trace, 2, &mut Lru::new(), false, &p, &dctx());
        assert!(faulty.seu_invalidations > 0);
        assert_eq!(faulty.escalation_wipes, 0);
        assert_eq!(faulty.dropped, 0);
        assert!(
            faulty.hit_ratio() < clean.hit_ratio(),
            "H {} !< clean {}",
            faulty.hit_ratio(),
            clean.hit_ratio()
        );
        // Every upset becomes a later miss or dies unobserved; totals hold.
        let s = &faulty.base.stats;
        assert_eq!(s.hits + s.misses, s.calls);
    }

    #[test]
    fn certain_faults_blacklist_everything_and_degrade_to_frtr() {
        // Partial chains always fail (CRC), full chains always succeed:
        // each miss escalates, wipes the cache, and after
        // `blacklist_after` escalations per PRR the device is pure FRTR.
        let spec = FaultSpec {
            p_crc: 1.0,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 3);
        let trace = ids(&[0, 1, 2].repeat(20));
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let faulty = simulate_faulty(&trace, 2, &mut Lru::new(), false, &p, &ctx);
        assert_eq!(faulty.blacklisted_slots, 2);
        assert_eq!(faulty.dropped, 0);
        // Every call misses: escalations wipe the cache each time.
        assert_eq!(faulty.base.stats.hits, 0);
        assert_eq!(faulty.escalation_wipes, 60);
        assert!(faulty.fates.iter().all(|f| f.escalated || f.forced_full));
        // Once blacklisted, misses are forced-full (no partial attempts).
        assert!(faulty.fates.iter().skip(10).all(|f| f.forced_full));
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.gauges["sched.fault.blacklisted_slots"], 2.0);
        assert_eq!(snap.counters["sched.fault.escalation_wipes"], 60);
        assert_eq!(snap.counters["sched.lru.misses"], 60);
    }

    #[test]
    fn fully_blacklisted_device_keeps_running_with_prefetch_enabled() {
        let spec = FaultSpec {
            p_crc: 1.0,
            p_seu: 0.5,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 11);
        let trace = ids(&[0, 1, 2, 3].repeat(25));
        let faulty = simulate_faulty(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        assert_eq!(faulty.base.stats.calls, 100);
        assert_eq!(faulty.base.outcomes.len(), 100);
        assert_eq!(faulty.fates.len(), 100);
        assert_eq!(faulty.blacklisted_slots, 2);
        assert!((faulty.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drops_reduce_availability() {
        let spec = FaultSpec {
            p_crc: 1.0,
            p_api_transfer: 1.0,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 5);
        let trace = ids(&[0, 1].repeat(10));
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let faulty = simulate_faulty(&trace, 2, &mut Lru::new(), false, &p, &ctx);
        assert_eq!(faulty.dropped, 20);
        assert_eq!(faulty.availability(), 0.0);
        assert_eq!(ctx.registry.snapshot().counters["sched.fault.dropped"], 20);
    }

    #[test]
    fn outcomes_replay_identically() {
        let p = plan(0.2, 99);
        let trace = ids(&[0, 1, 2, 0, 2, 1].repeat(30));
        let a = simulate_faulty(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        let b = simulate_faulty(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        assert_eq!(a, b);
    }
}
