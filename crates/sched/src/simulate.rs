//! Cache simulation: runs a task-call trace through a PRR cache under a
//! policy and measures the achieved hit ratio `H` — turning the model's
//! free parameter into a measured quantity.

use hprc_fault::FaultPlan;
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, TaskId};
use crate::policy::Policy;

/// Outcome of one task call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallOutcome {
    /// Configuration was resident; no reconfiguration needed (Figure 4(b)).
    Hit {
        /// Slot holding the configuration.
        slot: usize,
    },
    /// Configuration was absent (or the policy forces reconfiguration);
    /// a partial reconfiguration was charged (Figure 4(a)).
    Miss {
        /// Slot the configuration was loaded into.
        slot: usize,
        /// Configuration evicted to make room, if any.
        evicted: Option<TaskId>,
    },
}

impl CallOutcome {
    /// Whether this call was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CallOutcome::Hit { .. })
    }
}

/// Result of a cache simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationOutcome {
    /// Aggregate statistics.
    pub stats: CacheStats,
    /// Per-call outcomes, in trace order.
    pub outcomes: Vec<CallOutcome>,
}

impl SimulationOutcome {
    /// The measured hit ratio `H`.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }
}

/// Runs `trace` through a cache of `slots` PRRs under `policy`: the
/// fault-aware core of [`simulate_faulty`](crate::faulty::simulate_faulty)
/// under [`FaultPlan::disarmed`].
///
/// When `prefetch` is true, the policy's [`Policy::predict_next`] hint is
/// used after every call to speculatively load the predicted next task into
/// a victim slot (never the slot of the task that just ran — it is still
/// executing while the prefetch would proceed, exactly the overlap of
/// Figure 4(b)).
///
/// Per-policy cache metrics go to `ctx.registry`
/// ([`ExecCtx::default`](hprc_ctx::ExecCtx::default) records nothing).
/// Instruments are namespaced by the policy's [`Policy::name`], so one
/// registry can hold several policies side by side:
///
/// * counters `sched.{policy}.calls` / `.hits` / `.misses` /
///   `.evictions` / `.prefetch_loads` / `.useful_prefetches`;
/// * gauge `sched.{policy}.hit_ratio` — the measured `H` that feeds the
///   analytical model's equation (5).
///
/// ```
/// use hprc_ctx::ExecCtx;
/// use hprc_sched::policies::Lru;
/// use hprc_sched::simulate::simulate;
/// use hprc_sched::TaskId;
///
/// // Two tasks alternating over two PRRs: cold misses, then all hits.
/// let trace: Vec<TaskId> = (0..10).map(|i| TaskId(i % 2)).collect();
/// let outcome = simulate(&trace, 2, &mut Lru::new(), false, &ExecCtx::default());
/// assert_eq!(outcome.stats.misses, 2);
/// assert_eq!(outcome.stats.hits, 8);
/// ```
pub fn simulate(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    ctx: &hprc_ctx::ExecCtx,
) -> SimulationOutcome {
    crate::faulty::drive(trace, slots, policy, prefetch, &FaultPlan::disarmed(), ctx).base
}

/// Records one simulation's per-policy cache metrics.
pub(crate) fn record_outcome(
    registry: &hprc_obs::Registry,
    policy_name: &str,
    outcome: &SimulationOutcome,
) {
    if !registry.is_enabled() {
        return;
    }
    let prefix = format!("sched.{policy_name}");
    let s = &outcome.stats;
    registry.counter(&format!("{prefix}.calls")).add(s.calls);
    registry.counter(&format!("{prefix}.hits")).add(s.hits);
    registry.counter(&format!("{prefix}.misses")).add(s.misses);
    let evictions = outcome
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                CallOutcome::Miss {
                    evicted: Some(_),
                    ..
                }
            )
        })
        .count() as u64;
    registry
        .counter(&format!("{prefix}.evictions"))
        .add(evictions);
    registry
        .counter(&format!("{prefix}.prefetch_loads"))
        .add(s.prefetch_loads);
    registry
        .counter(&format!("{prefix}.useful_prefetches"))
        .add(s.useful_prefetches);
    registry
        .gauge(&format!("{prefix}.hit_ratio"))
        .set(outcome.hit_ratio());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{AlwaysMiss, Belady, Lru, Markov};

    fn ids(v: &[usize]) -> Vec<TaskId> {
        v.iter().map(|&i| TaskId(i)).collect()
    }

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    #[test]
    fn always_miss_yields_h_zero() {
        let trace = ids(&[0, 1, 0, 1, 0, 1]);
        let out = simulate(&trace, 2, &mut AlwaysMiss::new(), false, &dctx());
        assert_eq!(out.stats.misses, 6);
        assert_eq!(out.hit_ratio(), 0.0);
    }

    #[test]
    fn lru_two_slots_two_tasks_hits_after_warmup() {
        let trace = ids(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let out = simulate(&trace, 2, &mut Lru::new(), false, &dctx());
        // Two cold misses, then all hits.
        assert_eq!(out.stats.misses, 2);
        assert_eq!(out.stats.hits, 6);
    }

    #[test]
    fn three_tasks_two_slots_round_robin_defeats_lru() {
        // Cyclic A B C with 2 slots: LRU misses every call (classic
        // pathological case).
        let trace = ids(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let out = simulate(&trace, 2, &mut Lru::new(), false, &dctx());
        assert_eq!(out.stats.hits, 0);
    }

    #[test]
    fn belady_beats_lru_on_cyclic_trace() {
        let trace = ids(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let lru = simulate(&trace, 2, &mut Lru::new(), false, &dctx());
        let opt = simulate(&trace, 2, &mut Belady::new(), false, &dctx());
        assert!(opt.stats.hits > lru.stats.hits);
    }

    #[test]
    fn markov_prefetch_learns_cycle() {
        // A B A B ... with 2 slots and prefetching: after the transition
        // table warms up, the predictor always preloads the other task.
        let trace = ids(&[0, 1].repeat(50));
        let out = simulate(&trace, 2, &mut Markov::new(), true, &dctx());
        assert!(out.hit_ratio() > 0.9, "H = {}", out.hit_ratio());
        assert!(out.stats.useful_prefetches <= out.stats.prefetch_loads);
    }

    #[test]
    fn markov_prefetch_on_three_task_cycle_two_slots() {
        // A B C cycling through 2 slots defeats pure LRU entirely, but a
        // perfect next-task prefetcher hides most misses.
        let trace = ids(&[0, 1, 2].repeat(100));
        let plain = simulate(&trace, 2, &mut Lru::new(), false, &dctx());
        let pf = simulate(&trace, 2, &mut Markov::new(), true, &dctx());
        assert_eq!(plain.stats.hits, 0);
        assert!(pf.hit_ratio() > 0.5, "prefetching H = {}", pf.hit_ratio());
    }

    #[test]
    fn hits_plus_misses_equals_calls() {
        let trace = ids(&[0, 3, 1, 2, 0, 0, 2, 1, 3, 2]);
        let out = simulate(&trace, 2, &mut Lru::new(), true, &dctx());
        assert_eq!(out.stats.hits + out.stats.misses, out.stats.calls);
        assert_eq!(out.outcomes.len(), trace.len());
        let hits = out.outcomes.iter().filter(|o| o.is_hit()).count() as u64;
        assert_eq!(hits, out.stats.hits);
    }

    #[test]
    fn single_slot_cache_works() {
        let trace = ids(&[0, 0, 1, 1, 0]);
        let out = simulate(&trace, 1, &mut Lru::new(), false, &dctx());
        assert_eq!(out.stats.hits, 2);
        assert_eq!(out.stats.misses, 3);
    }

    #[test]
    fn instrumented_simulation_measures_h_per_policy() {
        let trace = ids(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let lru = simulate(&trace, 2, &mut Lru::new(), false, &ctx);
        let miss = simulate(&trace, 2, &mut AlwaysMiss::new(), false, &ctx);
        let snap = ctx.registry.snapshot();

        // Per-policy namespacing keeps both measurements side by side.
        assert_eq!(snap.counters["sched.lru.calls"], 8);
        assert_eq!(snap.counters["sched.lru.hits"], 6);
        assert_eq!(snap.counters["sched.lru.misses"], 2);
        assert_eq!(snap.counters["sched.always-miss.misses"], 8);

        // The gauge is the measured H — identical to the outcome's.
        assert_eq!(snap.gauges["sched.lru.hit_ratio"], lru.hit_ratio());
        assert_eq!(snap.gauges["sched.always-miss.hit_ratio"], miss.hit_ratio());

        // Counter-derived H equals the outcome-derived H exactly.
        let h = snap.counters["sched.lru.hits"] as f64 / snap.counters["sched.lru.calls"] as f64;
        assert_eq!(h, lru.hit_ratio());
    }

    #[test]
    fn instrumentation_does_not_change_outcomes() {
        let trace = ids(&[0, 1, 2].repeat(20));
        let plain = simulate(&trace, 2, &mut Belady::new(), false, &dctx());
        let traced = simulate(
            &trace,
            2,
            &mut Belady::new(),
            false,
            &dctx().with_registry(hprc_obs::Registry::new()),
        );
        assert_eq!(plain, traced);
    }

    #[test]
    fn eviction_counter_matches_outcomes() {
        let trace = ids(&[0, 1, 2, 0, 1, 2]);
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let out = simulate(&trace, 2, &mut Lru::new(), false, &ctx);
        let evictions = out
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    CallOutcome::Miss {
                        evicted: Some(_),
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(
            ctx.registry.snapshot().counters["sched.lru.evictions"],
            evictions
        );
        assert!(evictions > 0);
    }
}
