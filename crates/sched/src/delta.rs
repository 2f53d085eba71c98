//! Delta re-simulation: memoized schedule skeletons with
//! first-divergence replay.
//!
//! Adjacent sweep points (H = 0.90 vs 0.95, fault rate 0.1 vs 0.2)
//! share long schedule prefixes: the policy's decisions at call `i`
//! depend only on the trace prefix `trace[..=i]` (for causal
//! policies) and — under faults — on the plan's draws up to call `i`.
//! This module caches, per completed run, a *skeleton*: the trace the
//! run was driven by, its full decision outcome, the policy's final
//! state, and periodic resume snapshots of the whole simulation state
//! keyed by call index. A later run with the same base key
//! (slots/prefetch/policy identity + initial state, whether the plan is
//! armed, and the recovery-policy knobs) finds the first call where its
//! inputs diverge from a memoized skeleton, replays the shared prefix
//! as one closed-form jump (clone the snapshot, copy the memoized
//! outcome prefix), and re-simulates longhand only from the divergence
//! point. Clean runs are the disarmed-plan case of the same skeletons;
//! the armed flag in the key keeps them apart from faulty ones.
//!
//! Divergence predicates per swept parameter:
//!
//! * **trace contents** — the first index where the two traces
//!   differ (exact elementwise scan; sharing a prefix is exactly what
//!   makes a causal policy's decisions over it identical);
//! * **fault spec / plan seed** — the first call where a draw the
//!   memoized run *actually consulted* (the attempts its fate
//!   records, plus the per-slot SEU sweep) resolves differently under
//!   the new plan. By induction, while every consulted draw agrees
//!   the two runs take the identical path, so unconsulted draws can
//!   never matter. Agreement is not monotone in the call index, so
//!   this is a linear scan, not a binary search; coupled uniforms
//!   (same seed, different rates) keep the first disagreement late
//!   for adjacent rates. The blind variant of this predicate —
//!   compare *every* reachable draw — is [`FaultPlan::agrees_at`];
//! * **clairvoyance** — policies whose decisions consult the *future*
//!   ([`Policy::delta_prefix_safe`] = false, e.g. Belady) only reuse
//!   a skeleton when the entire trace matches.
//!
//! Everything the callers record (metrics, journal entries) derives
//! from the returned outcome alone, so a replay is byte-identical to
//! a from-scratch run in every artifact, at any `--jobs`, with or
//! without instrumentation.

use std::sync::Arc;

use hprc_fault::FaultPlan;
use hprc_obs::delta::bytes as dbytes;
use hprc_obs::DeltaCache;

use crate::cache::{CacheStats, ConfigCache, TaskId};
use crate::faulty::{simulate_longhand, FaultyOutcome, FaultySim};
use crate::policy::Policy;

/// Snapshot cadence: a resume snapshot is captured before every
/// `SNAPSHOT_EVERY`-th call, bounding re-simulation after a replay to
/// at most this many extra calls before the divergence point.
pub(crate) const SNAPSHOT_EVERY: usize = 16;

/// Skeleton variants retained per base key. Sweeps that vary the
/// trace or the plan produce one skeleton per distinct input; the
/// retention has to cover a whole sweep's width (the fig9 panels run
/// 41 points, the prefetch grid crosses policies with trace specs) or
/// the sweep evicts its own variants before the next pass can reuse
/// them. The byte-bound LRU still caps total memory.
pub(crate) const MAX_VARIANTS: usize = 32;

/// Index of the first element where `a` and `b` differ (`min(len)`
/// when one is a prefix of the other).
fn first_mismatch(a: &[TaskId], b: &[TaskId]) -> usize {
    let n = a.len().min(b.len());
    (0..n).find(|&i| a[i] != b[i]).unwrap_or(n)
}

fn sorted_tasks(s: &std::collections::HashSet<TaskId>) -> Vec<TaskId> {
    let mut v: Vec<TaskId> = s.iter().copied().collect();
    v.sort_unstable();
    v
}

/// One simulation state, frozen before call `i`. The embedded
/// [`FaultState`](hprc_fault::FaultState) is re-pointed at the new
/// run's plan on restore (valid because the snapshot precedes the
/// first plan disagreement).
pub(crate) struct Snapshot {
    i: usize,
    cache: ConfigCache,
    state: hprc_fault::FaultState,
    policy: Vec<u8>,
    speculative: Vec<TaskId>,
    stats: CacheStats,
    seu_invalidations: u64,
    escalation_wipes: u64,
    dropped: u64,
}

/// One memoized run: the plan it was driven by is kept for the
/// divergence scan, not in the key — adjacent fault rates share a
/// seed, so their draws agree over a long prefix. A disarmed run
/// records no fates.
pub(crate) struct Skeleton {
    trace: Vec<TaskId>,
    plan: FaultPlan,
    outcome: FaultyOutcome,
    final_policy: Vec<u8>,
    snapshots: Vec<Arc<Snapshot>>,
    prefix_safe: bool,
}

fn base_key(slots: usize, prefetch: bool, name: &str, policy0: &[u8], plan: &FaultPlan) -> Vec<u8> {
    let mut k = Vec::with_capacity(104 + policy0.len());
    dbytes::put_str(&mut k, "sched.skeleton");
    dbytes::put_u64(&mut k, slots as u64);
    dbytes::put_u64(&mut k, prefetch as u64);
    dbytes::put_str(&mut k, name);
    dbytes::put_slice(&mut k, policy0);
    // Clean and faulty skeletons never meet: a clean run records no
    // fates for the divergence scan to consult.
    dbytes::put_u64(&mut k, plan.armed() as u64);
    // The recovery-policy knobs shape the state machine itself (retry
    // depths, blacklisting), so they partition the key space; the
    // spec probabilities and seed are left to the divergence scan.
    let rp = &plan.policy;
    dbytes::put_u64(&mut k, rp.max_partial_attempts as u64);
    dbytes::put_u64(&mut k, rp.max_full_attempts as u64);
    dbytes::put_f64(&mut k, rp.backoff_base_s);
    dbytes::put_f64(&mut k, rp.refetch_s);
    dbytes::put_u64(&mut k, rp.blacklist_after as u64);
    k
}

/// Whether plans `a` and `b` resolve identically every draw that the
/// memoized call (hit flag + fate) consulted, plus the whole-device
/// SEU sweep. The attempt loops cover all fate shapes uniformly: a
/// hit consulted no attempts (guarded by `was_hit`), a forced-full
/// chain has `partial_attempts == 0`, a non-escalated miss has
/// `full_attempts == 0`.
fn consulted_draws_agree(
    a: &FaultPlan,
    b: &FaultPlan,
    call: u64,
    was_hit: bool,
    fate: &hprc_fault::CallFate,
    slots: usize,
) -> bool {
    if !was_hit {
        for attempt in 1..=fate.partial_attempts {
            if a.partial_attempt(call, attempt) != b.partial_attempt(call, attempt) {
                return false;
            }
        }
        for attempt in 1..=fate.full_attempts {
            if a.full_attempt(call, attempt) != b.full_attempt(call, attempt) {
                return false;
            }
        }
    }
    (0..slots).all(|s| a.seu_strikes(call, s) == b.seu_strikes(call, s))
}

fn variant_bytes(vs: &[Arc<Skeleton>]) -> u64 {
    vs.iter()
        .map(|sk| {
            let snaps: usize = sk
                .snapshots
                .iter()
                .map(|s| 128 + s.cache.slot_count() * 24 + s.policy.len() + s.speculative.len() * 8)
                .sum();
            (sk.trace.len() * 8
                + sk.outcome.base.outcomes.len() * 24
                + sk.outcome.fates.len() * 48
                + sk.final_policy.len()
                + snaps) as u64
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

    policy.observe_trace(trace);

    // Divergence per skeleton: first trace mismatch, then clipped to
    // the first call where a draw the memoized run consulted resolves
    // differently under the new plan. Hits consult nothing; a miss
    // consults exactly the attempts its fate records; the SEU sweep
    // is compared conservatively over all slots. Equal plans (every
    // clean run) stop at the trace mismatch.
    let divergence = |sk: &Skeleton| -> usize {
        let d = first_mismatch(&sk.trace, trace);
        if sk.plan == *plan {
            return d;
        }
        (0..d)
            .find(|&c| {
                !consulted_draws_agree(
                    &sk.plan,
                    plan,
                    c as u64,
                    sk.outcome.base.outcomes[c].is_hit(),
                    &sk.outcome.fates[c],
                    slots,
                )
            })
            .unwrap_or(d)
    };

    // Whole-run match: equal traces and plan agreement at every call.
    // (Safe even for clairvoyant policies — same trace, same future.)
    if let Some(vs) = &variants {
        if let Some(sk) = vs
            .iter()
            .find(|sk| sk.trace.len() == trace.len() && divergence(sk) == trace.len())
        {
            if policy.delta_restore(&sk.final_policy) {
                delta.note_full_hit(trace.len() as u64);
                return sk.outcome.clone();
            }
        }
    }

    // First divergence against the variant sharing the longest prefix.
    let mut best: Option<(usize, &Arc<Skeleton>)> = None;
    if let Some(vs) = &variants {
        for sk in vs.iter().filter(|sk| sk.prefix_safe) {
            let d = divergence(sk);
            if d > 0 && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, sk));
            }
        }
    }

    let mut sim = FaultySim::new(*plan, slots, trace.len());
    let mut start = 0usize;
    let mut snapshots: Vec<Arc<Snapshot>> = Vec::new();
    if let Some((d, sk)) = best {
        if let Some(snap) = sk.snapshots.iter().rev().find(|s| s.i <= d) {
            if policy.delta_restore(&snap.policy) {
                sim.cache = snap.cache.clone();
                let mut state = snap.state.clone();
                // The snapshot accumulated its escalations under the
                // memoized plan; both plans agree over the replayed
                // prefix, so the state transfers — under the new plan.
                state.set_plan(*plan);
                sim.state = state;
                sim.stats = snap.stats;
                sim.outcomes
                    .extend_from_slice(&sk.outcome.base.outcomes[..snap.i]);
                if sim.armed {
                    sim.fates.extend_from_slice(&sk.outcome.fates[..snap.i]);
                }
                sim.speculative = snap.speculative.iter().copied().collect();
                sim.seu_invalidations = snap.seu_invalidations;
                sim.escalation_wipes = snap.escalation_wipes;
                sim.dropped = snap.dropped;
                start = snap.i;
                // Prefix snapshots precede the divergence, so they
                // stay valid for the new run's skeleton too.
                snapshots.extend(sk.snapshots.iter().filter(|s| s.i <= snap.i).cloned());
            }
        }
    }
    if start == 0 {
        delta.note_miss(trace.len() as u64);
    } else {
        delta.note_resume(start as u64, (trace.len() - start) as u64);
    }

    for (i, &task) in trace.iter().enumerate().skip(start) {
        if i > start && i % SNAPSHOT_EVERY == 0 {
            if let Some(pb) = policy.delta_state() {
                snapshots.push(Arc::new(Snapshot {
                    i,
                    cache: sim.cache.clone(),
                    state: sim.state.clone(),
                    policy: pb,
                    speculative: sorted_tasks(&sim.speculative),
                    stats: sim.stats,
                    seu_invalidations: sim.seu_invalidations,
                    escalation_wipes: sim.escalation_wipes,
                    dropped: sim.dropped,
                }));
            }
        }
        sim.step(i, task, policy, prefetch);
    }

    let final_policy = policy.delta_state().unwrap_or_default();
    let outcome = sim.finish();
    let mut vs: Vec<Arc<Skeleton>> = variants.map(|v| (*v).clone()).unwrap_or_default();
    vs.retain(|sk| !(sk.trace == trace && sk.plan == *plan));
    while vs.len() >= MAX_VARIANTS {
        vs.remove(0);
    }
    vs.push(Arc::new(Skeleton {
        trace: trace.to_vec(),
        plan: *plan,
        outcome: outcome.clone(),
        final_policy,
        snapshots,
        prefix_safe: policy.delta_prefix_safe(),
    }));
    let bytes = variant_bytes(&vs);
    delta.put(key, Arc::new(vs), bytes);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::simulate_faulty;
    use crate::policies::{
        AlwaysMiss, AssociationRule, Belady, Fifo, Lfu, Lru, Markov, RandomPolicy,
    };
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
            Box::new(|| Box::new(AssociationRule::new(3, 0.4))),
        ];
        for make in &makes {
            roundtrip_agrees(make, &trace, 3);
        }
    }

    #[test]
    fn belady_is_not_prefix_safe_but_others_are() {
        assert!(!Belady::new().delta_prefix_safe());
        assert!(Lru::new().delta_prefix_safe());
        assert!(RandomPolicy::new(1).delta_prefix_safe());
        assert!(Markov::new().delta_prefix_safe());
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
    fn clean_delta_resumes_from_shared_prefixes() {
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
        let acct = delta.account().unwrap();
        assert_eq!(acct.resumes, 1, "{acct:?}");
        assert!(
            acct.calls_replayed >= 224,
            "the shared 250-call prefix resumes from a snapshot: {acct:?}"
        );
    }

    #[test]
    fn belady_skeletons_never_resume_under_a_different_future() {
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
        assert_eq!(acct.resumes, 0, "clairvoyant prefix reuse forbidden");
        assert_eq!(acct.misses, 2);
        // But the exact same trace still full-hits.
        simulate(&base, 2, &mut Belady::new(), false, &dctx);
        assert_eq!(delta.account().unwrap().full_hits, 1);
    }

    #[test]
    fn faulty_delta_matches_scratch_across_adjacent_rates() {
        let delta = DeltaCache::new(1 << 22);
        let dctx = ExecCtx::default().with_delta(delta.clone());
        // Finely-spaced rates: coupled uniform draws disagree at a
        // given call only with probability ~ the rate gap, so
        // adjacent points share a long decision prefix.
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
        assert!(
            acct.calls_replayed > 0,
            "coupled seeds share a prefix: {acct:?}"
        );
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
        assert_eq!((acct.full_hits, acct.resumes, acct.misses), (1, 0, 2));
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
        assert_eq!(acct.full_hits + acct.resumes, 0);
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
