//! Delta re-simulation: memoized schedule skeletons, replayed whole.
//!
//! The schedule of a run (which calls hit, which miss, every fault
//! fate) is fixed by the trace, the cache configuration, the policy
//! and the fault plan; the task time only moves the timing. So a
//! Figure 9 sweep, many task times over one trace, repeats one
//! schedule whole. This module caches, per completed run, a
//! *skeleton*: the trace and plan the run was driven by, its full
//! decision outcome, and the policy's final state. A later run with
//! the same base key (slots/prefetch/policy identity + initial state,
//! whether the plan is armed, and the recovery-policy knobs) and an
//! equal trace and an equal plan replays the memoized outcome; any
//! other run is simulated longhand and stored next to it. Clean runs
//! are the disarmed-plan case of the same skeletons; the armed flag in
//! the key keeps them apart from faulty ones.
//!
//! Everything the callers record (metrics, journal entries) derives
//! from the returned outcome alone, so a replay is byte-identical to
//! a from-scratch run in every artifact, at any `--jobs`, with or
//! without instrumentation.

use std::sync::Arc;

use hprc_fault::FaultPlan;
use hprc_obs::delta::bytes as dbytes;
use hprc_obs::DeltaCache;

use crate::cache::TaskId;
use crate::faulty::{simulate_longhand, FaultyOutcome};
use crate::policy::Policy;

/// Skeleton variants retained per base key, one per distinct trace
/// and plan. The retention has to cover a whole sweep's width (the
/// prefetch grid crosses policies with trace specs, and a fault
/// sweep's rates share one key) or the sweep evicts its own variants
/// before the next pass can reuse them. The byte-bound LRU still caps
/// total memory.
pub(crate) const MAX_VARIANTS: usize = 32;

/// One memoized run. The plan is kept here, not in the key: a faulty
/// sweep's rates and seeds share one base key as distinct variants. A
/// disarmed run records no fates.
pub(crate) struct Skeleton {
    trace: Vec<TaskId>,
    plan: FaultPlan,
    outcome: FaultyOutcome,
    final_policy: Vec<u8>,
}

fn base_key(slots: usize, prefetch: bool, name: &str, policy0: &[u8], plan: &FaultPlan) -> Vec<u8> {
    let mut k = Vec::with_capacity(104 + policy0.len());
    dbytes::put_str(&mut k, "sched.skeleton");
    dbytes::put_u64(&mut k, slots as u64);
    dbytes::put_u64(&mut k, prefetch as u64);
    dbytes::put_str(&mut k, name);
    dbytes::put_slice(&mut k, policy0);
    // Clean and faulty skeletons never meet, so a faulty sweep's
    // variants never crowd out a clean sweep's.
    dbytes::put_u64(&mut k, plan.armed() as u64);
    // The recovery-policy knobs shape the state machine itself (retry
    // depths, blacklisting), so they partition the key space; the
    // spec probabilities and seed are matched per variant.
    let rp = &plan.policy;
    dbytes::put_u64(&mut k, rp.max_partial_attempts as u64);
    dbytes::put_u64(&mut k, rp.max_full_attempts as u64);
    dbytes::put_f64(&mut k, rp.backoff_base_s);
    dbytes::put_f64(&mut k, rp.refetch_s);
    dbytes::put_u64(&mut k, rp.blacklist_after as u64);
    k
}

fn variant_bytes(vs: &[Arc<Skeleton>]) -> u64 {
    vs.iter()
        .map(|sk| {
            (sk.trace.len() * 8
                + sk.outcome.base.outcomes.len() * 24
                + sk.outcome.fates.len() * 48
                + sk.final_policy.len()) as u64
                + 192
        })
        .sum()
}

/// The memoizing simulation entry point; behaviorally identical to
/// [`simulate_longhand`] call for call. `plan` is either armed or
/// exactly [`FaultPlan::disarmed`].
pub(crate) fn simulate_delta(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
    delta: &DeltaCache,
) -> FaultyOutcome {
    let Some(policy0) = policy.delta_state() else {
        // The policy opted out of memoization: longhand, invisible to
        // the cache (no lookup counted).
        return simulate_longhand(trace, slots, policy, prefetch, plan);
    };
    let key = base_key(slots, prefetch, policy.name(), &policy0, plan);
    let variants: Option<Arc<Vec<Arc<Skeleton>>>> = delta.get(&key).and_then(|v| v.downcast().ok());

    // Whole-run match: an equal plan and an equal trace decide every
    // call alike, for clairvoyant policies too (same trace, same
    // future).
    if let Some(sk) = variants
        .iter()
        .flat_map(|vs| vs.iter())
        .find(|sk| sk.plan == *plan && sk.trace == trace)
    {
        policy.observe_trace(trace);
        if policy.delta_restore(&sk.final_policy) {
            delta.note_full_hit(trace.len() as u64);
            return sk.outcome.clone();
        }
    }

    delta.note_miss(trace.len() as u64);
    let outcome = simulate_longhand(trace, slots, policy, prefetch, plan);
    let final_policy = policy.delta_state().unwrap_or_default();
    let mut vs: Vec<Arc<Skeleton>> = variants.map(|v| (*v).clone()).unwrap_or_default();
    vs.retain(|sk| !(sk.plan == *plan && sk.trace == trace));
    while vs.len() >= MAX_VARIANTS {
        vs.remove(0);
    }
    vs.push(Arc::new(Skeleton {
        trace: trace.to_vec(),
        plan: *plan,
        outcome: outcome.clone(),
        final_policy,
    }));
    let bytes = variant_bytes(&vs);
    delta.put(key, Arc::new(vs), bytes);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ConfigCache;
    use crate::faulty::simulate_faulty;
    use crate::policies::{AlwaysMiss, Belady, Fifo, Lfu, Lru, Markov, RandomPolicy};
    use crate::simulate::simulate;
    use hprc_ctx::ExecCtx;
    use hprc_fault::{FaultSpec, RecoveryPolicy};

    fn ids(v: &[usize]) -> Vec<TaskId> {
        v.iter().map(|&i| TaskId(i)).collect()
    }

    /// Drives a policy over a prefix, round-trips its delta state into
    /// a fresh instance, and checks the two agree on every subsequent
    /// decision over the suffix.
    fn roundtrip_agrees(make: &dyn Fn() -> Box<dyn Policy>, trace: &[TaskId], slots: usize) {
        let mut warm = make();
        warm.observe_trace(trace);
        let mut cache = ConfigCache::new(slots);
        let half = trace.len() / 2;
        for (i, &t) in trace[..half].iter().enumerate() {
            if !cache.contains(t) {
                let slot = cache
                    .empty_slot()
                    .unwrap_or_else(|| warm.choose_victim(&cache, t, i));
                cache.load(slot, t);
                warm.on_load(t, slot, i);
            }
            let slot = cache.slot_of(t).unwrap();
            warm.on_access(t, slot, i);
        }
        let state = warm.delta_state().expect("policy supports delta");
        let mut restored = make();
        restored.observe_trace(trace);
        assert!(restored.delta_restore(&state), "restore accepts own bytes");
        assert_eq!(
            restored.delta_state().as_deref(),
            Some(&state[..]),
            "restored state re-encodes identically"
        );
        let mut rcache = cache.clone();
        for (i, &t) in trace[half..].iter().enumerate() {
            let i = half + i;
            assert_eq!(
                warm.predict_next(t),
                restored.predict_next(t),
                "prediction at {i}"
            );
            if !cache.contains(t) {
                let v1 = warm.choose_victim(&cache, t, i);
                let v2 = restored.choose_victim(&rcache, t, i);
                assert_eq!(v1, v2, "victim at {i}");
                cache.load(v1, t);
                rcache.load(v2, t);
                warm.on_load(t, v1, i);
                restored.on_load(t, v2, i);
            }
            let slot = cache.slot_of(t).unwrap();
            warm.on_access(t, slot, i);
            restored.on_access(t, slot, i);
        }
    }

    #[test]
    fn every_policy_roundtrips_its_delta_state() {
        let trace = ids(&[0, 3, 1, 2, 0, 0, 2, 1, 3, 2, 4, 1, 0, 2, 3, 4].repeat(4));
        let makes: Vec<Box<dyn Fn() -> Box<dyn Policy>>> = vec![
            Box::new(|| Box::new(AlwaysMiss::new())),
            Box::new(|| Box::new(Lru::new())),
            Box::new(|| Box::new(Fifo::new())),
            Box::new(|| Box::new(Lfu::new())),
            Box::new(|| Box::new(Belady::new())),
            Box::new(|| Box::new(RandomPolicy::new(42))),
            Box::new(|| Box::new(Markov::with_decision_latency(1e-5))),
        ];
        for make in &makes {
            roundtrip_agrees(make, &trace, 3);
        }
    }

    fn cycle_trace(seed: u64, len: usize) -> Vec<TaskId> {
        crate::traces::TraceSpec::Zipf {
            n_tasks: 6,
            alpha: 1.1,
            len,
        }
        .generate(seed)
    }

    #[test]
    fn clean_delta_matches_scratch_across_adjacent_traces() {
        let delta = DeltaCache::new(1 << 20);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let traces: Vec<Vec<TaskId>> = (0..4).map(|s| cycle_trace(s, 200)).collect();
        // Two passes: the second is all warm.
        for _ in 0..2 {
            for t in &traces {
                let with = simulate(t, 3, &mut Markov::new(), true, &dctx);
                let without = simulate(t, 3, &mut Markov::new(), true, &ExecCtx::default());
                assert_eq!(with, without);
            }
        }
        let acct = delta.account().unwrap();
        assert_eq!(acct.lookups, 8);
        assert!(acct.full_hits >= 4, "second pass warm-hits: {acct:?}");
    }

    #[test]
    fn a_diverging_trace_is_simulated_whole() {
        let delta = DeltaCache::new(1 << 20);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let base = cycle_trace(7, 300);
        // A variant diverging late: same prefix, perturbed tail.
        let mut variant = base.clone();
        for t in &mut variant[250..] {
            *t = TaskId((t.0 + 1) % 6);
        }
        let a = simulate(&base, 3, &mut Lru::new(), false, &dctx);
        let b = simulate(&variant, 3, &mut Lru::new(), false, &dctx);
        let a0 = simulate(&base, 3, &mut Lru::new(), false, &ExecCtx::default());
        let b0 = simulate(&variant, 3, &mut Lru::new(), false, &ExecCtx::default());
        assert_eq!(a, a0);
        assert_eq!(b, b0);
        // Only an equal trace replays: the shared 250-call prefix is
        // simulated again.
        let acct = delta.account().unwrap();
        assert_eq!(
            (
                acct.full_hits,
                acct.misses,
                acct.calls_replayed,
                acct.calls_resimulated
            ),
            (0, 2, 0, 600),
            "{acct:?}"
        );
    }

    #[test]
    fn belady_replays_only_an_equal_trace() {
        let delta = DeltaCache::new(1 << 20);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let base = cycle_trace(3, 200);
        let mut variant = base.clone();
        let last = variant.len() - 1;
        variant[last] = TaskId((variant[last].0 + 1) % 6);
        let a = simulate(&base, 2, &mut Belady::new(), false, &dctx);
        let b = simulate(&variant, 2, &mut Belady::new(), false, &dctx);
        assert_eq!(
            a,
            simulate(&base, 2, &mut Belady::new(), false, &ExecCtx::default())
        );
        assert_eq!(
            b,
            simulate(&variant, 2, &mut Belady::new(), false, &ExecCtx::default())
        );
        let acct = delta.account().unwrap();
        assert_eq!(acct.misses, 2);
        // But the exact same trace still full-hits.
        simulate(&base, 2, &mut Belady::new(), false, &dctx);
        assert_eq!(delta.account().unwrap().full_hits, 1);
    }

    #[test]
    fn faulty_delta_matches_scratch_across_adjacent_rates() {
        let delta = DeltaCache::new(1 << 22);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        // Adjacent rates under one seed share a base key as distinct
        // variants: each is simulated whole once, then replays whole.
        let trace = cycle_trace(11, 250);
        for &rate in &[0.1, 0.105, 0.11, 0.115] {
            let plan = FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), 99);
            let with = simulate_faulty(&trace, 3, &mut Lru::new(), false, &plan, &dctx);
            let without = simulate_faulty(
                &trace,
                3,
                &mut Lru::new(),
                false,
                &plan,
                &ExecCtx::default(),
            );
            assert_eq!(with, without, "rate {rate}");
        }
        let acct = delta.account().unwrap();
        assert_eq!(acct.lookups, 4);
        assert_eq!(acct.misses, 4, "{acct:?}");
        // Second sweep over the same rates: all whole-run hits.
        for &rate in &[0.1, 0.105, 0.11, 0.115] {
            let plan = FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), 99);
            let with = simulate_faulty(&trace, 3, &mut Lru::new(), false, &plan, &dctx);
            let without = simulate_faulty(
                &trace,
                3,
                &mut Lru::new(),
                false,
                &plan,
                &ExecCtx::default(),
            );
            assert_eq!(with, without, "warm rate {rate}");
        }
        assert_eq!(delta.account().unwrap().full_hits, 4);
    }

    #[test]
    fn clean_and_armed_skeletons_never_meet() {
        let delta = DeltaCache::new(1 << 22);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let trace = cycle_trace(4, 150);
        let clean = simulate(&trace, 3, &mut Lru::new(), false, &dctx);
        // An unarmed plan with its own seed normalizes to the disarmed
        // plan: the clean skeleton replays whole.
        let unarmed = FaultPlan::new(FaultSpec::default(), RecoveryPolicy::default(), 42);
        let quiet = simulate_faulty(&trace, 3, &mut Lru::new(), false, &unarmed, &dctx);
        assert_eq!(quiet.base, clean);
        assert!(quiet.fates.iter().all(|f| f.is_clean()));
        assert_eq!(quiet.fates.len(), trace.len());
        assert_eq!(delta.account().unwrap().full_hits, 1);
        // An armed plan keys apart, even where it never fires.
        let armed = FaultPlan::new(FaultSpec::uniform(1e-12), RecoveryPolicy::default(), 42);
        let faulty = simulate_faulty(&trace, 3, &mut Lru::new(), false, &armed, &dctx);
        assert_eq!(faulty.base, clean);
        let acct = delta.account().unwrap();
        assert_eq!((acct.full_hits, acct.misses), (1, 2));
    }

    #[test]
    fn faulty_delta_respects_recovery_policy_in_the_key() {
        let delta = DeltaCache::new(1 << 22);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let trace = cycle_trace(5, 150);
        let spec = FaultSpec::uniform(0.3);
        let rp_a = RecoveryPolicy::default();
        let rp_b = RecoveryPolicy {
            blacklist_after: 1,
            ..RecoveryPolicy::default()
        };
        for rp in [rp_a, rp_b] {
            let plan = FaultPlan::new(spec, rp, 17);
            let with = simulate_faulty(&trace, 2, &mut Fifo::new(), false, &plan, &dctx);
            let without = simulate_faulty(
                &trace,
                2,
                &mut Fifo::new(),
                false,
                &plan,
                &ExecCtx::default(),
            );
            assert_eq!(with, without);
        }
        // Different recovery knobs occupy different keys: no cross-hit.
        let acct = delta.account().unwrap();
        assert_eq!(acct.misses, 2);
        assert_eq!(acct.full_hits, 0);
    }

    #[test]
    fn tiny_cache_bound_evicts_but_stays_correct() {
        // A bound far below one skeleton: distinct slot counts give
        // distinct base keys, so each new entry evicts the previous
        // one to fit — yet results stay exact.
        let delta = DeltaCache::new(64);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        for s in 0..4usize {
            let t = cycle_trace(s as u64, 120);
            let slots = 2 + s;
            let with = simulate(&t, slots, &mut Markov::new(), true, &dctx);
            let without = simulate(&t, slots, &mut Markov::new(), true, &ExecCtx::default());
            assert_eq!(with, without);
        }
        let acct = delta.account().unwrap();
        assert!(acct.evictions > 0, "bound enforced: {acct:?}");
        assert!(acct.bytes_held > 0);
    }

    #[test]
    fn forces_miss_policies_memoize_too() {
        let delta = DeltaCache::new(1 << 20);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        let t = cycle_trace(2, 100);
        for _ in 0..2 {
            let with = simulate(&t, 2, &mut AlwaysMiss::new(), false, &dctx);
            let without = simulate(&t, 2, &mut AlwaysMiss::new(), false, &ExecCtx::default());
            assert_eq!(with, without);
        }
        assert_eq!(delta.account().unwrap().full_hits, 1);
    }
}
