//! # hprc-fault
//!
//! Deterministic fault injection and recovery for the reconfiguration
//! path. The paper's model (Eqs. 2, 5-7) assumes every configuration
//! attempt succeeds; real platforms fault exactly there — bitstream
//! transfer, ICAP writes, PRR activation. This crate provides:
//!
//! - [`FaultSpec`]: independent per-site fault probabilities for the
//!   five injection points ([`FaultSite`]).
//! - [`FaultPlan`]: a seeded, pure function from `(site, call, attempt)`
//!   to fault/no-fault, so every consumer (the `sched::faulty` cache
//!   simulation, the `sim` FRTR/PRTR executors, `exp`'s fleet node
//!   kills) replays the *same* faults byte-identically at any `--jobs`.
//! - [`RecoveryPolicy`]: bounded retry with deterministic exponential
//!   backoff, bitstream re-fetch after CRC mismatch, escalation from
//!   partial to full (FRTR) reconfiguration after K failed partial
//!   attempts, and PRR blacklisting.
//! - [`CallFate`]: the replayable per-call summary (attempt counts,
//!   per-site fault counts, escalation/drop flags) that both the
//!   scheduler and the simulator derive independently — in lockstep —
//!   from the same plan, so no fate ever has to be passed between
//!   layers.
//! - [`FaultState`]: the small mutable layer on top of a plan that
//!   tracks per-PRR escalation counts and blacklisting. A device
//!   blacklisted to zero usable PRRs degrades to pure FRTR; it never
//!   panics.
//!
//! Everything here is metric-free and I/O-free: the substrates that
//! *consume* fates record their own counters/histograms, so a fate
//! computation can be replayed anywhere (including inside tests and the
//! steady-state fast path) without side effects.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// SplitMix64 output mixer: the standard finalizer from Steele et al.,
/// also used by `rand`'s `SplitMix64`. One call fully avalanches its
/// input, so chaining it over the draw coordinates gives independent,
/// reproducible per-coordinate uniforms.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits to a uniform f64 in `[0, 1)` using the top 53
/// bits (the full mantissa width), the same construction `rand` uses.
#[inline]
fn u01(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An injection point in the reconfiguration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultSite {
    /// Bitstream CRC/readback mismatch detected after a partial
    /// configuration attempt; recovery re-fetches the bitstream.
    CrcMismatch,
    /// ICAP write timed out mid-transfer.
    IcapTimeout,
    /// The platform configuration API (cray_api) rejected or dropped a
    /// full-bitstream transfer.
    ApiTransfer,
    /// The PRR failed to activate after a (byte-complete) partial
    /// configuration.
    PrrActivation,
    /// An SEU-style upset silently corrupted a *resident* PRR: the next
    /// call on it must reconfigure (a forced miss). Not part of the
    /// retry chain — it strikes between calls.
    SeuUpset,
}

impl FaultSite {
    /// Stable per-site salt folded into the draw coordinates so sites
    /// consume independent random streams.
    #[inline]
    fn salt(self) -> u64 {
        match self {
            FaultSite::CrcMismatch => 0x01,
            FaultSite::IcapTimeout => 0x02,
            FaultSite::ApiTransfer => 0x03,
            FaultSite::PrrActivation => 0x04,
            FaultSite::SeuUpset => 0x05,
        }
    }

    /// Short stable name used in metric keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CrcMismatch => "crc",
            FaultSite::IcapTimeout => "icap_timeout",
            FaultSite::ApiTransfer => "api_transfer",
            FaultSite::PrrActivation => "activation",
            FaultSite::SeuUpset => "seu",
        }
    }
}

/// Independent per-site fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability a partial-configuration attempt ends in a CRC /
    /// readback mismatch.
    pub p_crc: f64,
    /// Probability a partial-configuration attempt times out at the
    /// ICAP.
    pub p_icap_timeout: f64,
    /// Probability a full-configuration attempt fails in the platform
    /// configuration API transfer.
    pub p_api_transfer: f64,
    /// Probability a partial-configuration attempt fails PRR
    /// activation.
    pub p_activation: f64,
    /// Per-call, per-resident-slot probability of an SEU upset
    /// corrupting that slot after the call completes.
    pub p_seu: f64,
}

impl FaultSpec {
    /// All five sites at the same rate except SEU, which strikes at a
    /// quarter of it (upsets are rarer than transfer-path transients).
    pub fn uniform(rate: f64) -> Self {
        FaultSpec {
            p_crc: rate,
            p_icap_timeout: rate,
            p_api_transfer: rate,
            p_activation: rate,
            p_seu: rate / 4.0,
        }
    }

    /// True if any site can fire. Under a disarmed spec every fate is
    /// clean, so every consumer runs exactly its clean path.
    pub fn armed(&self) -> bool {
        self.p_crc > 0.0
            || self.p_icap_timeout > 0.0
            || self.p_api_transfer > 0.0
            || self.p_activation > 0.0
            || self.p_seu > 0.0
    }
}

/// How the runtime responds to injected faults. All knobs are
/// deterministic; wall-clock costs are model time, not host time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Partial-configuration attempts before escalating to a full
    /// reconfiguration (the paper's FRTR path). At least 1.
    pub max_partial_attempts: u32,
    /// Full-configuration attempts before the call is dropped
    /// (availability loss). At least 1.
    pub max_full_attempts: u32,
    /// Backoff before retry `a` is `backoff_base_s * 2^(a-1)`.
    pub backoff_base_s: f64,
    /// Extra recovery time to re-fetch the bitstream after a CRC
    /// mismatch.
    pub refetch_s: f64,
    /// A PRR is blacklisted after this many escalations on it.
    pub blacklist_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_partial_attempts: 3,
            max_full_attempts: 2,
            backoff_base_s: 0.002,
            refetch_s: 0.005,
            blacklist_after: 2,
        }
    }
}

impl RecoveryPolicy {
    /// Deterministic exponential backoff charged before retrying after
    /// the `failure_ordinal`-th consecutive failure (1-based).
    pub fn backoff_s(&self, failure_ordinal: u32) -> f64 {
        self.backoff_base_s * 2f64.powi(failure_ordinal.saturating_sub(1).min(62) as i32)
    }
}

/// Outcome of a single configuration attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt succeeded.
    Success,
    /// The attempt failed at the given site (first site to fire wins;
    /// at most one fault per attempt).
    Fault(FaultSite),
}

/// The replayable summary of what happened to one configuration call
/// under a plan: attempt counts, per-site fault counts, and the
/// escalation/drop flags. Pure data — both sched and sim derive the
/// same fate independently from the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub struct CallFate {
    /// Partial-configuration attempts made (0 for full-only calls).
    pub partial_attempts: u32,
    /// CRC/readback mismatches (each adds a re-fetch to recovery).
    pub crc_refetches: u32,
    /// ICAP write timeouts.
    pub icap_timeouts: u32,
    /// PRR activation failures.
    pub activation_fails: u32,
    /// Configuration-API transfer failures (full attempts only).
    pub api_fails: u32,
    /// All partial attempts failed and the call escalated to full
    /// reconfiguration.
    pub escalated: bool,
    /// The call skipped the partial path entirely (blacklisted PRR or
    /// zero usable PRRs) and went straight to full reconfiguration.
    pub forced_full: bool,
    /// Full-configuration attempts made.
    pub full_attempts: u32,
    /// Every attempt failed; the call was dropped (availability loss).
    pub dropped: bool,
}

impl CallFate {
    /// The fate of a clean (fault-free) partial configuration: one
    /// successful attempt.
    pub fn clean_partial() -> Self {
        CallFate {
            partial_attempts: 1,
            ..CallFate::default()
        }
    }

    /// The fate of a clean (fault-free) full configuration.
    pub fn clean_full() -> Self {
        CallFate {
            full_attempts: 1,
            ..CallFate::default()
        }
    }

    /// Total faults injected into this call (= failed attempts, since
    /// an attempt carries at most one fault).
    pub fn injected(&self) -> u64 {
        self.crc_refetches as u64
            + self.icap_timeouts as u64
            + self.activation_fails as u64
            + self.api_fails as u64
    }

    /// Attempts beyond the first — i.e. how many retries (including the
    /// escalated full attempts) this call cost.
    pub fn retries(&self) -> u64 {
        (self.partial_attempts as u64 + self.full_attempts as u64).saturating_sub(1)
    }

    /// True when no fault touched this call.
    pub fn is_clean(&self) -> bool {
        self.injected() == 0 && !self.escalated && !self.forced_full && !self.dropped
    }

    #[inline]
    fn count(&mut self, site: FaultSite) {
        match site {
            FaultSite::CrcMismatch => self.crc_refetches += 1,
            FaultSite::IcapTimeout => self.icap_timeouts += 1,
            FaultSite::PrrActivation => self.activation_fails += 1,
            FaultSite::ApiTransfer => self.api_fails += 1,
            FaultSite::SeuUpset => {}
        }
    }
}

/// A seeded, immutable fault plan: spec + recovery policy + seed. The
/// plan is a *pure function* — `partial_attempt(call, a)` returns the
/// same outcome no matter who asks, when, or at what `--jobs`, which is
/// what lets sched and sim stay in lockstep without passing fates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Per-site fault probabilities.
    pub spec: FaultSpec,
    /// Recovery knobs.
    pub policy: RecoveryPolicy,
    seed: u64,
}

impl FaultPlan {
    /// A plan with an explicit seed.
    pub fn new(spec: FaultSpec, policy: RecoveryPolicy, seed: u64) -> Self {
        FaultPlan { spec, policy, seed }
    }

    /// The all-probabilities-zero plan: every fate is clean, so every
    /// consumer runs exactly its clean path.
    pub fn disarmed() -> Self {
        FaultPlan::new(FaultSpec::default(), RecoveryPolicy::default(), 0)
    }

    /// True if any site can fire.
    pub fn armed(&self) -> bool {
        self.spec.armed()
    }

    /// The plan seed (fixed at construction).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The uniform `[0,1)` draw for `(site, call, attempt)`. Chained
    /// SplitMix64 over the coordinates: independent per coordinate,
    /// and *coupled across specs* — two plans with the same seed draw
    /// the same uniforms, so raising a probability can only turn
    /// passes into failures (monotone degradation).
    #[inline]
    fn draw(&self, site: FaultSite, call: u64, attempt: u64) -> f64 {
        let mut h = splitmix64(self.seed ^ site.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix64(h ^ call);
        h = splitmix64(h ^ attempt);
        u01(h)
    }

    /// Outcome of partial-configuration attempt `attempt` (1-based) of
    /// call `call`. At most one fault fires per attempt, checked in
    /// fixed site order (CRC, then ICAP timeout, then activation).
    pub fn partial_attempt(&self, call: u64, attempt: u32) -> AttemptOutcome {
        let a = attempt as u64;
        if self.draw(FaultSite::CrcMismatch, call, a) < self.spec.p_crc {
            AttemptOutcome::Fault(FaultSite::CrcMismatch)
        } else if self.draw(FaultSite::IcapTimeout, call, a) < self.spec.p_icap_timeout {
            AttemptOutcome::Fault(FaultSite::IcapTimeout)
        } else if self.draw(FaultSite::PrrActivation, call, a) < self.spec.p_activation {
            AttemptOutcome::Fault(FaultSite::PrrActivation)
        } else {
            AttemptOutcome::Success
        }
    }

    /// Outcome of full-configuration attempt `attempt` (1-based) of
    /// call `call`. Full reconfiguration goes through the platform
    /// API, so only [`FaultSite::ApiTransfer`] applies.
    pub fn full_attempt(&self, call: u64, attempt: u32) -> AttemptOutcome {
        if self.draw(FaultSite::ApiTransfer, call, attempt as u64) < self.spec.p_api_transfer {
            AttemptOutcome::Fault(FaultSite::ApiTransfer)
        } else {
            AttemptOutcome::Success
        }
    }

    /// Whether an SEU strikes resident slot `slot` after call `call`.
    pub fn seu_strikes(&self, call: u64, slot: usize) -> bool {
        self.spec.p_seu > 0.0 && self.draw(FaultSite::SeuUpset, call, slot as u64) < self.spec.p_seu
    }

    fn full_chain(&self, call: u64, fate: &mut CallFate) {
        let k = self.policy.max_full_attempts.max(1);
        for attempt in 1..=k {
            fate.full_attempts = attempt;
            match self.full_attempt(call, attempt) {
                AttemptOutcome::Success => return,
                AttemptOutcome::Fault(site) => fate.count(site),
            }
        }
        fate.dropped = true;
    }

    /// The fate of a partial-configuration call: up to
    /// `max_partial_attempts` partial attempts, then escalation to the
    /// full chain (and possibly a drop).
    pub fn partial_fate(&self, call: u64) -> CallFate {
        if !self.armed() {
            return CallFate::clean_partial();
        }
        let mut fate = CallFate::default();
        let k = self.policy.max_partial_attempts.max(1);
        for attempt in 1..=k {
            fate.partial_attempts = attempt;
            match self.partial_attempt(call, attempt) {
                AttemptOutcome::Success => return fate,
                AttemptOutcome::Fault(site) => fate.count(site),
            }
        }
        fate.escalated = true;
        self.full_chain(call, &mut fate);
        fate
    }

    /// The fate of a full-reconfiguration call (the FRTR path, or a
    /// PRTR call forced full by blacklisting).
    pub fn full_fate(&self, call: u64) -> CallFate {
        if !self.armed() {
            return CallFate::clean_full();
        }
        let mut fate = CallFate::default();
        self.full_chain(call, &mut fate);
        fate
    }

    /// [`FaultPlan::full_fate`] with the `forced_full` flag set: a PRTR
    /// call that never got a partial attempt because its PRR (or every
    /// PRR) is blacklisted.
    pub fn forced_full_fate(&self, call: u64) -> CallFate {
        let mut fate = self.full_fate(call);
        fate.forced_full = true;
        fate
    }

    /// Whether a fleet-level chaos sweep kills simulated node `node`
    /// mid-run, and if so at which of its `n_calls` calls (the node
    /// serves calls `0..k` and is dead for the rest). Draws from its
    /// own stream ([`NODE_KILL_SALT`]), so node kills never collide
    /// with per-call configuration fates, and the uniforms are coupled
    /// across `p_kill` exactly like the per-attempt draws behind
    /// [`FaultPlan::partial_attempt`]: raising the
    /// kill probability only adds kills and can only move a kill
    /// earlier — fleet availability degrades monotonically.
    pub fn node_kill_call(&self, node: u64, n_calls: u64, p_kill: f64) -> Option<u64> {
        if p_kill <= 0.0 || n_calls == 0 {
            return None;
        }
        let mut h = splitmix64(self.seed ^ NODE_KILL_SALT.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = splitmix64(h ^ node);
        if u01(h) >= p_kill {
            return None;
        }
        // Second draw from the same chain: the kill instant, scaled so
        // a larger p_kill (same uniform) strikes no later.
        let frac = (u01(splitmix64(h)) / p_kill).min(1.0);
        Some(((frac * n_calls as f64) as u64).min(n_calls - 1))
    }
}

/// Stream salt for fleet node-kill draws
/// ([`FaultPlan::node_kill_call`]): whole-node chaos events draw from
/// their own stream so they never collide with per-call fates under
/// the same plan seed.
pub const NODE_KILL_SALT: u64 = 0x4E0D_E4B1_1100_0003;

/// The mutable recovery state layered over a plan: per-PRR escalation
/// counts and blacklist flags. Both the scheduler and the simulator
/// run their own copy over the identical call stream, so the two stay
/// in lockstep without any fate passing.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    escalations: Vec<u32>,
    blacklisted: Vec<bool>,
}

impl FaultState {
    /// State for a device with `n_slots` PRRs.
    pub fn new(plan: FaultPlan, n_slots: usize) -> Self {
        FaultState {
            plan,
            escalations: vec![0; n_slots],
            blacklisted: vec![false; n_slots],
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if `slot` is blacklisted (out-of-range slots count as
    /// blacklisted: there is nothing usable there).
    pub fn is_blacklisted(&self, slot: usize) -> bool {
        self.blacklisted.get(slot).copied().unwrap_or(true)
    }

    /// Number of currently blacklisted PRRs.
    pub fn blacklisted_slots(&self) -> usize {
        self.blacklisted.iter().filter(|b| **b).count()
    }

    /// True when no PRR is usable any more: the device degrades to
    /// pure FRTR. Vacuously true for zero slots.
    pub fn all_blacklisted(&self) -> bool {
        self.blacklisted.iter().all(|b| *b)
    }

    /// Escalations recorded against `slot` so far.
    pub fn escalations(&self, slot: usize) -> u32 {
        self.escalations.get(slot).copied().unwrap_or(0)
    }

    /// The fate of miss `call` targeting `slot`. Blacklisted (or
    /// nonexistent) slots go straight to the full chain (`forced_full`);
    /// otherwise the partial chain runs, and an escalation bumps the
    /// slot's count — blacklisting it once `blacklist_after` is hit.
    /// Never panics, including with zero slots.
    pub fn on_miss(&mut self, call: u64, slot: usize) -> CallFate {
        if !self.plan.armed() {
            return CallFate::clean_partial();
        }
        if self.is_blacklisted(slot) {
            return self.plan.forced_full_fate(call);
        }
        let fate = self.plan.partial_fate(call);
        if fate.escalated {
            self.escalations[slot] += 1;
            if self.escalations[slot] >= self.plan.policy.blacklist_after.max(1) {
                self.blacklisted[slot] = true;
            }
        }
        fate
    }

    /// Whether an SEU strikes resident slot `slot` after call `call`
    /// (see [`FaultPlan::seu_strikes`]).
    pub fn seu_strikes(&self, call: u64, slot: usize) -> bool {
        self.plan.seu_strikes(call, slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), seed)
    }

    #[test]
    fn draws_are_uniform_in_unit_interval_and_deterministic() {
        let plan = armed_plan(0.5, 42);
        for call in 0..200u64 {
            for attempt in 1..=3u32 {
                let d = plan.draw(FaultSite::CrcMismatch, call, attempt as u64);
                assert!((0.0..1.0).contains(&d));
                assert_eq!(
                    plan.partial_attempt(call, attempt),
                    plan.partial_attempt(call, attempt),
                    "pure function: same coords, same outcome"
                );
            }
        }
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = armed_plan(0.5, 7);
        let a: Vec<f64> = (0..64)
            .map(|c| plan.draw(FaultSite::CrcMismatch, c, 1))
            .collect();
        let b: Vec<f64> = (0..64)
            .map(|c| plan.draw(FaultSite::IcapTimeout, c, 1))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn node_kills_are_deterministic_and_monotone_in_p_kill() {
        let plan = armed_plan(0.1, 99);
        let n_calls = 64u64;
        let kills = |p: f64| -> Vec<(u64, Option<u64>)> {
            (0..500u64)
                .map(|node| (node, plan.node_kill_call(node, n_calls, p)))
                .collect()
        };
        assert_eq!(kills(0.3), kills(0.3), "pure function of (seed, node)");
        let (lo, hi) = (kills(0.1), kills(0.4));
        let killed = |v: &[(u64, Option<u64>)]| v.iter().filter(|(_, k)| k.is_some()).count();
        assert!(killed(&lo) > 0, "some nodes die at p=0.1");
        assert!(killed(&lo) < 500, "not all nodes die at p=0.1");
        assert!(killed(&hi) > killed(&lo), "raising p adds kills");
        for ((_, a), (_, b)) in lo.iter().zip(&hi) {
            if let Some(ka) = a {
                let kb = b.expect("a node dead at p=0.1 stays dead at p=0.4");
                assert!(kb <= *ka, "coupled uniforms: higher p kills no later");
            }
        }
        for (_, k) in &hi {
            if let Some(k) = k {
                assert!(*k < n_calls);
            }
        }
        // Degenerate inputs never kill.
        assert_eq!(plan.node_kill_call(3, 64, 0.0), None);
        assert_eq!(plan.node_kill_call(3, 0, 0.9), None);
    }

    #[test]
    fn disarmed_plan_is_always_clean() {
        let plan = FaultPlan::disarmed();
        assert!(!plan.armed());
        for call in 0..100 {
            assert_eq!(plan.partial_fate(call), CallFate::clean_partial());
            assert_eq!(plan.full_fate(call), CallFate::clean_full());
            assert!(!plan.seu_strikes(call, 0));
        }
    }

    #[test]
    fn attempt_counts_are_bounded_by_policy() {
        let policy = RecoveryPolicy {
            max_partial_attempts: 4,
            max_full_attempts: 3,
            ..RecoveryPolicy::default()
        };
        let plan = FaultPlan::new(FaultSpec::uniform(0.9), policy, 1);
        for call in 0..500 {
            let fate = plan.partial_fate(call);
            assert!(fate.partial_attempts >= 1 && fate.partial_attempts <= 4);
            assert!(fate.full_attempts <= 3);
            if fate.full_attempts > 0 {
                assert!(fate.escalated);
            }
            if fate.dropped {
                assert_eq!(fate.partial_attempts, 4);
                assert_eq!(fate.full_attempts, 3);
            }
            // First-fault-per-attempt: injected == failed attempts. Only
            // a chain's last attempt can succeed, and an escalated
            // partial chain or a dropped full chain has no success.
            let failed_partial = if fate.escalated {
                fate.partial_attempts
            } else {
                fate.partial_attempts - 1
            };
            let failed_full = if fate.dropped || fate.full_attempts == 0 {
                fate.full_attempts
            } else {
                fate.full_attempts - 1
            };
            assert_eq!(fate.injected(), (failed_partial + failed_full) as u64);
        }
    }

    #[test]
    fn degradation_is_monotone_in_fault_rate() {
        // Same seed => same uniforms => raising the rate can only turn
        // passing attempts into failing ones.
        let rates = [0.0, 0.01, 0.05, 0.2, 0.5, 0.9];
        for call in 0..200u64 {
            let mut prev_retries = 0u64;
            let mut prev_dropped = false;
            for &rate in &rates {
                let fate = armed_plan(rate, 99).partial_fate(call);
                assert!(
                    fate.retries() >= prev_retries,
                    "retries must not shrink as rate rises (call {call}, rate {rate})"
                );
                assert!(
                    !prev_dropped || fate.dropped,
                    "drops are sticky across rates"
                );
                prev_retries = fate.retries();
                prev_dropped = fate.dropped;
            }
        }
    }

    #[test]
    fn certain_faults_escalate_and_drop() {
        let spec = FaultSpec {
            p_crc: 1.0,
            p_api_transfer: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec, RecoveryPolicy::default(), 3);
        let fate = plan.partial_fate(0);
        assert!(fate.escalated && fate.dropped);
        assert_eq!(fate.partial_attempts, 3);
        assert_eq!(fate.crc_refetches, 3);
        assert_eq!(fate.full_attempts, 2);
        assert_eq!(fate.api_fails, 2);
        assert_eq!(fate.retries(), 4);
        assert_eq!(fate.injected(), 5);
    }

    #[test]
    fn backoff_doubles_per_failure() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_s(1), 0.002);
        assert_eq!(policy.backoff_s(2), 0.004);
        assert_eq!(policy.backoff_s(3), 0.008);
    }

    #[test]
    fn blacklisting_progresses_and_degrades_to_frtr() {
        let spec = FaultSpec {
            p_icap_timeout: 1.0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec, RecoveryPolicy::default(), 11);
        let mut state = FaultState::new(plan, 2);
        // Every partial chain fails => escalates; full chain succeeds
        // (p_api_transfer = 0). Two escalations blacklist a slot.
        let f0 = state.on_miss(0, 0);
        assert!(f0.escalated && !f0.forced_full && !f0.dropped);
        assert!(!state.is_blacklisted(0));
        state.on_miss(1, 0);
        assert!(state.is_blacklisted(0));
        // Blacklisted slot: straight to full, no partial attempts.
        let f2 = state.on_miss(2, 0);
        assert!(f2.forced_full);
        assert_eq!(f2.partial_attempts, 0);
        // Burn out the other slot too: device degrades to pure FRTR.
        state.on_miss(3, 1);
        state.on_miss(4, 1);
        assert!(state.all_blacklisted());
        assert_eq!(state.blacklisted_slots(), 2);
        let f5 = state.on_miss(5, 1);
        assert!(f5.forced_full && !f5.dropped);
    }

    #[test]
    fn zero_slot_device_never_panics() {
        let plan = armed_plan(0.3, 5);
        let mut state = FaultState::new(plan, 0);
        assert!(state.all_blacklisted());
        for call in 0..50 {
            let fate = state.on_miss(call, 0);
            assert!(fate.forced_full);
            assert_eq!(fate.partial_attempts, 0);
        }
    }

    #[test]
    fn fates_replay_identically_across_independent_states() {
        // The lockstep guarantee sched and sim rely on: two states over
        // the same plan and the same (call, slot) stream agree exactly.
        let plan = armed_plan(0.4, 2024);
        let mut a = FaultState::new(plan, 2);
        let mut b = FaultState::new(plan, 2);
        for call in 0..300u64 {
            let slot = (call % 2) as usize;
            assert_eq!(a.on_miss(call, slot), b.on_miss(call, slot));
            assert_eq!(a.seu_strikes(call, slot), b.seu_strikes(call, slot));
            assert_eq!(a.blacklisted_slots(), b.blacklisted_slots());
        }
    }
}
