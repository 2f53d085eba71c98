//! The replacement/prefetch policy abstraction.
//!
//! A policy answers two questions the configuration-caching literature the
//! paper builds on (\[24\]–\[27\]) cares about: *which* resident configuration
//! to evict on a miss, and *what* to prefetch while the current task runs.
//! Each policy also carries its decision latency — the paper's `T_decision`
//! (`T_setup`), "the time taken by the configuration caching algorithm to
//! decide whether to configure or not to configure certain tasks".
//!
//! The preemptible engine ([`crate::preempt`]) generalizes the same trait
//! with two defaulted hooks: a dispatch-order ranking over released jobs
//! ([`Policy::ranks_above`]) and an opt-in to suspend running tasks at
//! PR-safe points ([`Policy::preemptive`]). Every classic replacement
//! policy keeps the defaults and behaves exactly as before — a FIFO,
//! run-to-completion dispatcher.

use crate::cache::{ConfigCache, TaskId};

/// The engine-facing view of one released job, used by the dispatch
/// ranking of the preemptible scheduler: enough for strict-priority
/// (static `priority`) and EDF (absolute `deadline_ns`) orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobView {
    /// The task this job is an instance (frame) of.
    pub task: TaskId,
    /// Static priority; lower numbers are more urgent.
    pub priority: u32,
    /// Absolute deadline on the simulation clock, nanoseconds.
    pub deadline_ns: u64,
    /// Release instant on the simulation clock, nanoseconds.
    pub release_ns: u64,
}

/// A configuration replacement + prefetch policy.
pub trait Policy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decision latency `T_decision` in seconds (0 for trivial policies).
    fn decision_latency_s(&self) -> f64 {
        0.0
    }

    /// Gives oracle policies the full future trace before simulation.
    fn observe_trace(&mut self, _trace: &[TaskId]) {}

    /// Chooses the slot to evict so `task` can be loaded at call `index`.
    /// Only called when the cache has no empty slot.
    fn choose_victim(&mut self, cache: &ConfigCache, task: TaskId, index: usize) -> usize;

    /// Records that `task` was accessed (hit or post-miss load) in `slot`
    /// at call `index`.
    fn on_access(&mut self, task: TaskId, slot: usize, index: usize);

    /// Records that `slot` was refilled with `task`'s configuration (demand
    /// miss or prefetch). Policies that track load order (FIFO) hook this.
    fn on_load(&mut self, _task: TaskId, _slot: usize, _index: usize) {}

    /// Predicts the task most likely to be called next, as a prefetch hint.
    fn predict_next(&self, _current: TaskId) -> Option<TaskId> {
        None
    }

    /// When true, every call is charged as a miss regardless of residency —
    /// the paper's experimental configuration ("our hypothetical
    /// configuration pre-fetching always misses tasks when needed and
    /// always reconfigures the called tasks", section 4.3).
    fn forces_miss(&self) -> bool {
        false
    }

    /// Dispatch-order ranking for the preemptible engine: `true` when
    /// job `a` should run in preference to job `b` — and, when
    /// [`preemptive`](Policy::preemptive) allows it, may checkpoint a
    /// running `b` out of its PRR. Must be a *strict* ordering (`false`
    /// on ties); the engine breaks ties deterministically by release
    /// time, task id, and frame. The default never reorders, which
    /// turns the engine into a FIFO run-to-completion dispatcher.
    fn ranks_above(&self, a: &JobView, b: &JobView) -> bool {
        let _ = (a, b);
        false
    }

    /// Whether the preemptible engine may suspend this policy's running
    /// jobs at PR-safe points (checkpoint the PRR's live context,
    /// reclaim the region, restore later). Run-to-completion policies
    /// keep the default.
    fn preemptive(&self) -> bool {
        false
    }

    /// A canonical byte encoding of the policy's mutable decision state
    /// for the delta-simulation layer, or `None` to opt out of
    /// memoization entirely (the default — a policy the skeleton cache
    /// cannot encode is simply never memoized).
    ///
    /// Two requirements: (a) the encoding is *canonical* — equal
    /// decision state encodes to equal bytes, independent of insertion
    /// order or process — because the state a run starts from lands in
    /// the skeleton cache key; and (b)
    /// [`delta_restore`](Policy::delta_restore) of the bytes reproduces
    /// a policy whose every future decision matches the encoded one,
    /// because a replayed run leaves the policy in the state its
    /// memoized run ended in. State rebuilt by
    /// [`observe_trace`](Policy::observe_trace) (oracle futures) is
    /// excluded: the restore path always replays `observe_trace` first.
    fn delta_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores mutable decision state captured by
    /// [`delta_state`](Policy::delta_state); returns `false` (leaving
    /// the policy in an unspecified but safe state) if the bytes are
    /// not recognized, in which case the caller must fall back to a
    /// from-scratch simulation. Called *after* `observe_trace`.
    fn delta_restore(&mut self, state: &[u8]) -> bool {
        let _ = state;
        false
    }
}
