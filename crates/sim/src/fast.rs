//! The steady-state fast path shared by FRTR, PRTR and the preemptive
//! renderer.
//!
//! Each executor's per-call step is a deterministic function of (a) the
//! call's own parameters and (b) a small carry-over state, and it is
//! *time-translation invariant*: shifting the inputs by Δ shifts every
//! produced event by Δ. Before each call, the executor hands
//! [`FastPath::jump`] the call index, its carry-over state and its time
//! anchor. The fast path remembers where each `(call key, state)` pair
//! was last seen. When a pair recurs after `p` calls, it key-compares
//! forward as many whole periods as actually repeat and replaces them
//! with a closed-form jump:
//! - one run-length-encoded timeline block ([`Timeline::push_repeat`]);
//! - shifted copies of the period's [`CallTiming`]s;
//! - one journal repeat ([`hprc_obs::Journal::replay_cycle`]).
//!
//! Detection then re-arms, so a sequence with several periodic runs
//! jumps several times. The jump only elides work whose outcome is
//! already proven: every timing and expanded event is bit-identical to
//! the per-call path, and the executors derive their metrics from those
//! after the loop.

use std::collections::HashMap;
use std::hash::Hash;

use hprc_obs::{Journal, JournalMark};

use crate::executor::CallTiming;
use crate::time::{SimDuration, SimTime};
use crate::trace::Timeline;

/// Where a `(key, state)` pair was last seen: enough to locate the
/// candidate period's calls, events and timings. Executors push one
/// timing per call, so the period's timings start at index `i0` too.
#[derive(Debug, Clone, Copy)]
struct SeenAt {
    /// Call index about to be processed when the pair was recorded.
    i0: usize,
    /// The time anchor at that point; the per-period shift is
    /// `anchor_now − anchor_then`.
    anchor: SimTime,
    /// `timeline.n_items()` at that point.
    items_marker: usize,
    /// The journal position at that point.
    jmark: JournalMark,
}

/// One jump the fast path took.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Jump {
    /// Calls jumped over: whole periods times the period length.
    pub(crate) calls: usize,
    /// How much later the executor's carry-over state lies after the
    /// jump, in ns.
    pub(crate) shift_ns: u64,
}

/// Period detection and jumping over one run's calls. `K` is the
/// executor's per-call key, `S` its carry-over state relative to the
/// anchor.
pub(crate) struct FastPath<K, S = ()> {
    /// Per-call keys, salted: 0 for a clean call, a unique per-index
    /// value for a faulty one, so a faulty call never key-matches and no
    /// proven period spans a fault. Empty when the fast path is off.
    keys: Vec<(K, u64)>,
    seen: HashMap<((K, u64), S), SeenAt>,
}

impl<K: Copy + Eq + Hash, S: Copy + Eq + Hash> FastPath<K, S> {
    /// Keys `n` calls; `enabled = false` gives the per-call reference
    /// path, which never jumps.
    pub(crate) fn new(
        enabled: bool,
        n: usize,
        key: impl Fn(usize) -> K,
        clean: impl Fn(usize) -> bool,
    ) -> Self {
        let keys = if enabled {
            (0..n)
                .map(|i| (key(i), if clean(i) { 0 } else { i as u64 + 1 }))
                .collect()
        } else {
            Vec::new()
        };
        FastPath {
            keys,
            seen: HashMap::new(),
        }
    }

    /// Before call `i`: jumps the whole periods that provably repeat from
    /// here, extending `timeline`, `timings` and `journal`, or records
    /// the sighting of `(key i, state)` at `anchor` and returns `None`.
    pub(crate) fn jump(
        &mut self,
        i: usize,
        state: S,
        anchor: SimTime,
        timeline: &mut Timeline,
        timings: &mut Vec<CallTiming>,
        journal: &Journal,
    ) -> Option<Jump> {
        // No keys: the fast path is off.
        let seen_key = (*self.keys.get(i)?, state);
        if let Some(at) = self.seen.get(&seen_key).copied() {
            let p = i - at.i0;
            let m = verified_periods(&self.keys, at.i0, p, i);
            if m >= 1 {
                // Calls i .. i + m·p repeat the proven block, each period
                // shifted one more Δ.
                let delta = anchor.0 - at.anchor.0;
                let pattern = timeline.split_off_events(at.items_marker);
                timeline.push_repeat(pattern, m + 1, SimDuration(delta));
                let block = timings[at.i0..].to_vec();
                for k in 1..=m {
                    timings.extend(block.iter().map(|t| t.shifted(k * delta)));
                }
                journal.replay_cycle(at.jmark, m, delta);
                // Re-arm: the tail may hold further periodic runs.
                self.seen.clear();
                return Some(Jump {
                    calls: m as usize * p,
                    shift_ns: m * delta,
                });
            }
        }
        self.seen.insert(
            seen_key,
            SeenAt {
                i0: i,
                anchor,
                items_marker: timeline.n_items(),
                jmark: journal.mark(),
            },
        );
        None
    }
}

/// Key-compares forward from call `j`: how many whole periods of length
/// `p` (the keys at `i0..i0+p`) repeat verbatim before the sequence
/// diverges or ends. Runs in O(verified calls) and fails at the first
/// mismatching key.
fn verified_periods<K: PartialEq>(keys: &[K], i0: usize, p: usize, mut j: usize) -> u64 {
    let mut m = 0u64;
    while j + p <= keys.len() && (0..p).all(|k| keys[j + k] == keys[i0 + k]) {
        m += 1;
        j += p;
    }
    m
}
