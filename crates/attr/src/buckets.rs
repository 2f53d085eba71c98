//! Exclusive wall-clock buckets over a [`Timeline`].
//!
//! Every nanosecond of a run's span is assigned to exactly one bucket by
//! a priority sweep over the per-class activity unions
//! ([`Timeline::class_intervals`]):
//!
//! 1. execution and configuration both active → **hidden configuration**
//!    (the overlap the PRTR argument lives on — equation (5) only charges
//!    the part of `T_PRTR` that sticks out past the running task);
//! 2. execution active → **exec**;
//! 3. configuration active → **visible configuration** (exposed on the
//!    critical path);
//! 4. decision active → **decision** (an overlapped decision falls under
//!    1–2, so this bucket captures only the exposed leading decision of
//!    equation (5));
//! 5. control active → **control**;
//! 6. nothing active → **idle** (stall: nothing the model accounts for is
//!    running; includes trailing data transfers).
//!
//! The buckets are integer nanoseconds, so the identity
//! `sum(buckets) == span_end` is exact, not approximate.

use hprc_sim::time::SimTime;
use hprc_sim::trace::{ActivityClass, Timeline};
use serde::{Deserialize, Serialize};

/// The six exclusive wall-clock buckets of one run, in nanoseconds.
///
/// Invariant (checked by [`Buckets::checked_from_timeline`] and
/// property-tested across randomized scenarios): the fields sum exactly
/// to `Timeline::span_end()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Buckets {
    /// Task execution not concurrently covered by bucket 1 (ns).
    pub exec_ns: u64,
    /// Configuration overlapped by task execution — hidden (ns).
    pub hidden_config_ns: u64,
    /// Configuration exposed on the critical path — visible (ns).
    pub visible_config_ns: u64,
    /// Exposed pre-fetch decision time (ns).
    pub decision_ns: u64,
    /// Exposed transfer-of-control time (ns).
    pub control_ns: u64,
    /// Nothing modeled is active (ns).
    pub idle_ns: u64,
}

/// A cursor over one class's merged interval union; `active(t)` walks
/// forward monotonically, so a full sweep is O(boundaries + intervals).
struct Cursor<'a> {
    intervals: &'a [(SimTime, SimTime)],
    next: usize,
}

impl<'a> Cursor<'a> {
    fn new(intervals: &'a [(SimTime, SimTime)]) -> Self {
        Cursor { intervals, next: 0 }
    }

    /// Whether the class is active at instant `t` (callers pass
    /// non-decreasing `t`).
    fn active(&mut self, t: u64) -> bool {
        while self.next < self.intervals.len() && self.intervals[self.next].1 .0 <= t {
            self.next += 1;
        }
        self.next < self.intervals.len() && self.intervals[self.next].0 .0 <= t
    }
}

impl Buckets {
    /// Classifies every nanosecond of `timeline` into the six buckets.
    pub fn from_timeline(timeline: &Timeline) -> Buckets {
        let span = timeline.span_end().0;
        let exec = timeline.class_intervals(ActivityClass::Exec);
        let config = timeline.class_intervals(ActivityClass::Config);
        let decision = timeline.class_intervals(ActivityClass::Decision);
        let control = timeline.class_intervals(ActivityClass::Control);

        // Elementary boundaries: every class transition, plus 0 and the
        // span end. Activity is constant on each elementary interval.
        let mut bounds: Vec<u64> = Vec::with_capacity(2 * (exec.len() + config.len() + 2));
        bounds.push(0);
        bounds.push(span);
        for list in [&exec, &config, &decision, &control] {
            for (s, e) in list {
                bounds.push(s.0);
                bounds.push(e.0);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut cur_exec = Cursor::new(&exec);
        let mut cur_config = Cursor::new(&config);
        let mut cur_decision = Cursor::new(&decision);
        let mut cur_control = Cursor::new(&control);

        let mut b = Buckets::default();
        for w in bounds.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            if t0 >= span {
                break;
            }
            let dur = t1.min(span) - t0;
            let e = cur_exec.active(t0);
            let c = cur_config.active(t0);
            let slot = if e && c {
                &mut b.hidden_config_ns
            } else if e {
                &mut b.exec_ns
            } else if c {
                &mut b.visible_config_ns
            } else if cur_decision.active(t0) {
                &mut b.decision_ns
            } else if cur_control.active(t0) {
                &mut b.control_ns
            } else {
                &mut b.idle_ns
            };
            *slot += dur;
        }
        b
    }

    /// [`Buckets::from_timeline`], then asserts the machine-checked sum
    /// identity `sum(buckets) == span_end` (exact, integer nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if the identity fails — which would mean the sweep itself
    /// is wrong, never the timeline.
    pub fn checked_from_timeline(timeline: &Timeline) -> Buckets {
        let b = Buckets::from_timeline(timeline);
        assert_eq!(
            b.total_ns(),
            timeline.span_end().0,
            "attribution identity violated: buckets {b:?} vs span {}",
            timeline.span_end().0
        );
        b
    }

    /// Sum of all six buckets (ns) — equals the timeline span by the
    /// identity.
    pub fn total_ns(&self) -> u64 {
        self.exec_ns
            + self.hidden_config_ns
            + self.visible_config_ns
            + self.decision_ns
            + self.control_ns
            + self.idle_ns
    }

    /// Total configuration-port busy time (ns): hidden + visible. Equals
    /// the config lane's busy time whenever configurations don't overlap
    /// each other (always true for the single-port executors).
    pub fn total_config_ns(&self) -> u64 {
        self.hidden_config_ns + self.visible_config_ns
    }

    /// Hiding efficiency `hidden_config / total_config` — the fraction
    /// of configuration time the runtime kept off the critical path
    /// (the quantity behind equation (5)'s `max` terms). `None` when the
    /// run performed no configuration at all (all-hit PRTR).
    pub fn hiding_efficiency(&self) -> Option<f64> {
        let total = self.total_config_ns();
        if total == 0 {
            None
        } else {
            Some(self.hidden_config_ns as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_sim::time::SimDuration;
    use hprc_sim::trace::{EventKind, Lane};

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn empty_timeline_is_all_zero() {
        let b = Buckets::checked_from_timeline(&Timeline::default());
        assert_eq!(b, Buckets::default());
        assert_eq!(b.hiding_efficiency(), None);
    }

    #[test]
    fn fully_hidden_config_counts_as_hidden() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(0.0), t(4.0));
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "c",
            t(1.0),
            t(2.0),
        );
        let b = Buckets::checked_from_timeline(&tl);
        assert_eq!(b.hidden_config_ns, 1_000_000_000);
        assert_eq!(b.visible_config_ns, 0);
        assert_eq!(b.exec_ns, 3_000_000_000);
        assert_eq!(b.hiding_efficiency(), Some(1.0));
    }

    #[test]
    fn partially_exposed_config_splits() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(0.0), t(2.0));
        // Config streams from t=1 to t=5: 1 s hidden, 2 s visible, then
        // the next task runs 5..6.
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "c",
            t(1.0),
            t(5.0),
        );
        tl.push(Lane::Prr(1), EventKind::Exec, "b", t(5.0), t(6.0));
        let b = Buckets::checked_from_timeline(&tl);
        assert_eq!(b.hidden_config_ns, 1_000_000_000);
        assert_eq!(b.visible_config_ns, 3_000_000_000);
        assert_eq!(b.exec_ns, 2_000_000_000);
        assert_eq!(b.idle_ns, 0);
        let h = b.hiding_efficiency().unwrap();
        assert!((h - 0.25).abs() < 1e-12);
    }

    #[test]
    fn decision_and_control_only_count_when_exposed() {
        let mut tl = Timeline::default();
        // Exposed leading decision, then exec with an overlapped
        // decision inside it, then exposed control.
        tl.push(Lane::Host, EventKind::Decision, "d0", t(0.0), t(1.0));
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(1.0), t(3.0));
        tl.push(Lane::Host, EventKind::Decision, "d1", t(1.5), t(2.5));
        tl.push(Lane::Host, EventKind::Control, "c", t(3.0), t(3.5));
        let b = Buckets::checked_from_timeline(&tl);
        assert_eq!(b.decision_ns, 1_000_000_000); // only the leading one
        assert_eq!(b.control_ns, 500_000_000);
        assert_eq!(b.exec_ns, 2_000_000_000);
        assert_eq!(b.idle_ns, 0);
    }

    #[test]
    fn gaps_count_as_idle() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(0.0), t(1.0));
        tl.push(Lane::Prr(0), EventKind::Exec, "b", t(3.0), t(4.0));
        // A trailing data drain extends the span past the last exec.
        tl.push(Lane::LinkOut, EventKind::DataOut, "o", t(4.0), t(5.0));
        let b = Buckets::checked_from_timeline(&tl);
        assert_eq!(b.exec_ns, 2_000_000_000);
        assert_eq!(b.idle_ns, 3_000_000_000);
        assert_eq!(b.total_ns(), tl.span_end().0);
    }

    #[test]
    fn total_config_includes_hidden_config() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(0.0), t(2.0));
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "c",
            t(0.5),
            t(1.5),
        );
        let b = Buckets::checked_from_timeline(&tl);
        assert_eq!(b.total_config_ns(), 1_000_000_000);
    }
}
