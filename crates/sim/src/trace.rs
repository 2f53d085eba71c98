//! Execution timelines: the data behind the paper's execution profiles
//! (Figures 3 and 4), plus a text Gantt renderer.
//!
//! # Representation
//!
//! A [`Timeline`] is a run-length-encoded event sequence. Plain events
//! are stored as themselves; a periodic simulation (the steady state of
//! the FRTR/PRTR executors) stores one `(pattern, repeat_count,
//! stride)` block per detected period instead of `repeat_count`
//! materialized copies, so memory is O(distinct patterns) rather than
//! O(n_calls). Every consumer — [`Timeline::lane_busy_s`],
//! [`Timeline::class_intervals`], [`Timeline::render_text`], the
//! Chrome-trace export — reads through [`Timeline::iter`], a lazy
//! expansion that replays events in exactly the order a per-call
//! recording would have created them. Derived quantities (including
//! order-sensitive floating-point sums) are therefore bit-identical to
//! a flat timeline holding the same events.
//!
//! Labels are interned [`Symbol`]s, so events are `Copy` and repeating
//! a pattern never clones a `String`.

use hprc_ctx::Symbol;
use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Which resource an event occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Lane {
    /// Host CPU (decisions, API calls).
    Host,
    /// The configuration path (SelectMap or ICAP).
    ConfigPort,
    /// A PRR's compute fabric.
    Prr(usize),
    /// Host→FPGA data channel.
    LinkIn,
    /// FPGA→host data channel.
    LinkOut,
}

impl Lane {
    /// Short human name, also used as the metric-key suffix in
    /// [`Timeline::record_metrics`].
    pub fn label(&self) -> String {
        match self {
            Lane::Host => "host".into(),
            Lane::ConfigPort => "config".into(),
            Lane::Prr(i) => format!("PRR{i}"),
            Lane::LinkIn => "link-in".into(),
            Lane::LinkOut => "link-out".into(),
        }
    }

    /// Thread id under which this lane's events appear in a Chrome
    /// trace. Fixed lanes take low ids; PRR lanes start at 10 so any
    /// number of regions sorts after them.
    pub fn chrome_tid(&self) -> u64 {
        match self {
            Lane::Host => 0,
            Lane::ConfigPort => 1,
            Lane::LinkIn => 2,
            Lane::LinkOut => 3,
            Lane::Prr(i) => 10 + *i as u64,
        }
    }
}

/// What kind of activity an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// Pre-fetch decision (`T_decision`).
    Decision,
    /// Full-device configuration (`T_FRTR`).
    FullConfig,
    /// Partial reconfiguration (`T_PRTR`).
    PartialConfig,
    /// Transfer of control (`T_control`).
    Control,
    /// Task execution (`T_task`).
    Exec,
    /// Input data transfer.
    DataIn,
    /// Output data transfer.
    DataOut,
    /// Fault recovery on the configuration path: retry backoff and
    /// bitstream re-fetch after an injected fault (crate `hprc-fault`).
    /// Never appears in a fault-free run.
    Recovery,
    /// Context-save readback: a preempted task's live PRR state pulled
    /// back over the configuration port at a PR-safe point.
    Preempt,
    /// Context-restore write-back: a previously saved context pushed
    /// back into a PRR before the task resumes.
    Restore,
}

impl EventKind {
    /// One-character glyph for the text Gantt.
    pub fn glyph(&self) -> char {
        match self {
            EventKind::Decision => 'd',
            EventKind::FullConfig => 'F',
            EventKind::PartialConfig => 'P',
            EventKind::Control => 'c',
            EventKind::Exec => 'X',
            EventKind::DataIn => 'i',
            EventKind::DataOut => 'o',
            EventKind::Recovery => 'r',
            EventKind::Preempt => 's',
            EventKind::Restore => 'R',
        }
    }

    /// The coarse activity class this kind belongs to — the granularity
    /// at which wall-clock attribution (crate `hprc-attr`) partitions a
    /// run.
    pub fn class(&self) -> ActivityClass {
        match self {
            EventKind::Exec => ActivityClass::Exec,
            // Recovery time is visible configuration-path stall, so it
            // lands in the Config bucket and the attribution identity
            // (exclusive buckets summing to the span) holds unchanged
            // on faulty runs. Context save/restore transfers ride the
            // same port and land in the same bucket, so the identity
            // also holds on preemptive schedules.
            EventKind::FullConfig
            | EventKind::PartialConfig
            | EventKind::Recovery
            | EventKind::Preempt
            | EventKind::Restore => ActivityClass::Config,
            EventKind::Decision => ActivityClass::Decision,
            EventKind::Control => ActivityClass::Control,
            EventKind::DataIn | EventKind::DataOut => ActivityClass::Data,
        }
    }
}

/// Coarse activity classes for wall-clock attribution: the model's cost
/// terms (`T_task`, `T_config`, `T_decision`, `T_control`) plus the data
/// transfers that stream inside execution windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityClass {
    /// Task execution on a PRR (`T_task`).
    Exec,
    /// Configuration-port activity, full or partial (`T_FRTR`/`T_PRTR`).
    Config,
    /// Pre-fetch decision (`T_decision`).
    Decision,
    /// Transfer of control (`T_control`).
    Control,
    /// Host↔FPGA data streaming (overlaps execution by construction).
    Data,
}

/// One timeline event. `Copy`: the label is an interned [`Symbol`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Resource occupied.
    pub lane: Lane,
    /// Activity kind.
    pub kind: EventKind,
    /// Human label (task name, etc.), interned.
    pub label: Symbol,
    /// Start instant.
    pub start: SimTime,
    /// End instant.
    pub end: SimTime,
}

impl TraceEvent {
    /// The event shifted `offset` nanoseconds later.
    fn shifted(self, offset_ns: u64) -> TraceEvent {
        TraceEvent {
            start: SimTime(self.start.0 + offset_ns),
            end: SimTime(self.end.0 + offset_ns),
            ..self
        }
    }
}

/// One stored timeline item: a plain event, or a run-length-encoded
/// repetition block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Item {
    /// A single event.
    Event(TraceEvent),
    /// `pattern` expanded `count` times; repetition `k` (0-based) is
    /// the pattern shifted `k * stride` later. The pattern holds the
    /// absolute times of the first repetition.
    Repeat {
        pattern: Vec<TraceEvent>,
        count: u64,
        stride: SimDuration,
    },
}

/// Upper bound on the number of events [`Timeline::chrome_events`]
/// expands — the documented cap that keeps an RLE timeline from
/// materializing millions of trace rows. Representative traces in this
/// repository export tens to hundreds of events; the cap exists so a
/// steady-state run compressed to a handful of items can never blow up
/// the one consumer that must expand per-event.
pub const MAX_CHROME_EVENTS: usize = 100_000;

/// An execution timeline (run-length encoded; see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Stored items in creation order.
    items: Vec<Item>,
    /// Expanded event count (cached; `items` is the compressed form).
    n_events: u64,
}

impl Timeline {
    /// Records an event (zero-length events are dropped).
    pub fn push(
        &mut self,
        lane: Lane,
        kind: EventKind,
        label: impl Into<Symbol>,
        start: SimTime,
        end: SimTime,
    ) {
        if end > start {
            self.items.push(Item::Event(TraceEvent {
                lane,
                kind,
                label: label.into(),
                start,
                end,
            }));
            self.n_events += 1;
        }
    }

    /// Records a run-length-encoded block: `pattern` repeated `count`
    /// times, repetition `k` shifted `k * stride` later than the
    /// pattern's own (absolute) times. Zero-length pattern events are
    /// dropped; an empty pattern or zero count records nothing.
    ///
    /// [`Timeline::iter`] yields the repetitions in order, so a block
    /// is observationally identical to pushing the shifted copies one
    /// by one.
    pub fn push_repeat(&mut self, pattern: Vec<TraceEvent>, count: u64, stride: SimDuration) {
        let pattern: Vec<TraceEvent> = pattern.into_iter().filter(|e| e.end > e.start).collect();
        if pattern.is_empty() || count == 0 {
            return;
        }
        self.n_events += pattern.len() as u64 * count;
        if count == 1 {
            // No repetition to encode; store plain events.
            self.items.extend(pattern.into_iter().map(Item::Event));
            return;
        }
        self.items.push(Item::Repeat {
            pattern,
            count,
            stride,
        });
    }

    /// Number of stored items (compressed size). A steady-state run
    /// keeps this O(distinct patterns) while [`Timeline::len`] counts
    /// the expanded events.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Number of (expanded) events.
    pub fn len(&self) -> u64 {
        self.n_events
    }

    /// True when the timeline holds no events.
    pub fn is_empty(&self) -> bool {
        self.n_events == 0
    }

    /// Removes and returns the plain events stored at item index
    /// `from` and later — the hook the steady-state executors use to
    /// convert the just-recorded period into a [`Timeline::push_repeat`]
    /// block.
    ///
    /// # Panics
    ///
    /// Panics when the tail contains a repeat block (callers split at
    /// checkpoints they took themselves, which are always plain-event
    /// boundaries).
    pub fn split_off_events(&mut self, from: usize) -> Vec<TraceEvent> {
        let tail: Vec<TraceEvent> = self
            .items
            .drain(from..)
            .map(|item| match item {
                Item::Event(e) => e,
                Item::Repeat { .. } => panic!("split_off_events across a repeat block"),
            })
            .collect();
        self.n_events -= tail.len() as u64;
        tail
    }

    /// Lazily expands the timeline into absolute-time events, in
    /// creation order (repeat blocks yield their repetitions in
    /// sequence). All derived quantities read through this iterator,
    /// which is what keeps them bit-identical to a flat recording.
    pub fn iter(&self) -> TimelineIter<'_> {
        TimelineIter {
            items: &self.items,
            item: 0,
            rep: 0,
            idx: 0,
        }
    }

    /// End of the last event (computed on the compressed form).
    pub fn span_end(&self) -> SimTime {
        self.items
            .iter()
            .map(|item| match item {
                Item::Event(e) => e.end,
                Item::Repeat {
                    pattern,
                    count,
                    stride,
                } => {
                    let last = pattern
                        .iter()
                        .map(|e| e.end)
                        .max()
                        .expect("repeat patterns are non-empty");
                    SimTime(last.0 + (count - 1) * stride.0)
                }
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total busy time on one lane, seconds.
    pub fn lane_busy_s(&self, lane: Lane) -> f64 {
        self.iter()
            .filter(|e| e.lane == lane)
            .map(|e| (e.end - e.start).as_secs_f64())
            .sum()
    }

    /// The merged union of every interval during which an event of the
    /// given [`ActivityClass`] is active: sorted, pairwise-disjoint,
    /// non-adjacent `(start, end)` windows. This is the extraction hook
    /// wall-clock attribution (`hprc-attr`) builds its exclusive time
    /// buckets from — overlapping events of the same class (e.g. two
    /// PRRs executing concurrently) collapse into one window, so union
    /// lengths never double-count.
    pub fn class_intervals(&self, class: ActivityClass) -> Vec<(SimTime, SimTime)> {
        let mut iv: Vec<(SimTime, SimTime)> = self
            .iter()
            .filter(|e| e.kind.class() == class)
            .map(|e| (e.start, e.end))
            .collect();
        iv.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::with_capacity(iv.len());
        for (start, end) in iv {
            match merged.last_mut() {
                // Adjacent windows (end == next start) merge too: the
                // class is active continuously across the boundary.
                Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }

    /// Converts the timeline to Chrome trace-event format, one `tid`
    /// row per lane (see [`Lane::chrome_tid`]), all under `pid`.
    ///
    /// Timestamps are floored from nanoseconds to microseconds and
    /// durations computed as `floor(end) - floor(start)`, so events
    /// that do not overlap in simulation time never overlap in the
    /// exported trace and `ts + dur` never exceeds the floored
    /// simulation end time.
    ///
    /// This is the one consumer that must materialize per-event rows,
    /// so expansion is capped at [`MAX_CHROME_EVENTS`]: a longer
    /// timeline exports its first `MAX_CHROME_EVENTS` events followed by
    /// a synthetic zero-duration `[truncated N events]` marker at the
    /// timeline's end, so a capped trace is detectable in the viewer.
    pub fn chrome_events(&self, pid: u64) -> Vec<hprc_obs::ChromeEvent> {
        self.chrome_events_recorded(pid, &hprc_obs::Registry::noop())
    }

    /// [`Timeline::chrome_events`] that additionally records truncation
    /// to `registry` when the cap bites: bumps the
    /// `sim.trace.chrome_truncations` warning counter and adds the
    /// number of dropped events to `sim.trace.chrome_truncated_events`
    /// and to the cross-subsystem `obs.trace.truncated_events` counter
    /// (the one the artifact writers surface in `<id>.metrics.json`,
    /// shared with the fleet orchestrator's cluster-trace cap).
    pub fn chrome_events_recorded(
        &self,
        pid: u64,
        registry: &hprc_obs::Registry,
    ) -> Vec<hprc_obs::ChromeEvent> {
        let mut out: Vec<hprc_obs::ChromeEvent> = self
            .iter()
            .take(MAX_CHROME_EVENTS)
            .map(|e| {
                let ts = e.start.0 / 1_000;
                let dur = e.end.0 / 1_000 - ts;
                hprc_obs::ChromeEvent::complete(
                    e.label.as_str().to_string(),
                    ts,
                    dur,
                    pid,
                    e.lane.chrome_tid(),
                )
            })
            .collect();
        let truncated = self.n_events.saturating_sub(MAX_CHROME_EVENTS as u64);
        if truncated > 0 {
            out.push(hprc_obs::ChromeEvent::complete(
                format!("[truncated {truncated} events]"),
                self.span_end().0 / 1_000,
                0,
                pid,
                Lane::Host.chrome_tid(),
            ));
            registry.counter("sim.trace.chrome_truncations").inc();
            registry
                .counter("sim.trace.chrome_truncated_events")
                .add(truncated);
            registry
                .counter("obs.trace.truncated_events")
                .add(truncated);
        }
        out
    }

    /// Records per-lane busy time and configuration-port utilization
    /// as gauges under `prefix`:
    ///
    /// * `{prefix}.lane_busy_s.{lane}` — busy seconds per lane;
    /// * `{prefix}.makespan_s` — end of the last event;
    /// * `{prefix}.config_port.utilization` — config-port busy time
    ///   over the makespan.
    pub fn record_metrics(&self, registry: &hprc_obs::Registry, prefix: &str) {
        if !registry.is_enabled() {
            return;
        }
        // Per-lane sums accumulate in expanded event order, which keeps
        // every gauge bit-identical to a flat recording — but a repeat
        // block contributes the same duration sequence every repetition
        // (the stride shifts start and end alike), so the sums run over
        // the compressed items with a tight add loop instead of
        // materializing each event.
        fn slot(lanes: &mut Vec<Lane>, busy: &mut Vec<f64>, lane: Lane) -> usize {
            lanes.iter().position(|&l| l == lane).unwrap_or_else(|| {
                lanes.push(lane);
                busy.push(0.0);
                lanes.len() - 1
            })
        }
        let mut lanes: Vec<Lane> = Vec::new();
        let mut busy: Vec<f64> = Vec::new();
        for item in &self.items {
            match item {
                Item::Event(e) => {
                    let i = slot(&mut lanes, &mut busy, e.lane);
                    busy[i] += (e.end - e.start).as_secs_f64();
                }
                Item::Repeat { pattern, count, .. } => {
                    let durs: Vec<(usize, f64)> = pattern
                        .iter()
                        .map(|e| {
                            let i = slot(&mut lanes, &mut busy, e.lane);
                            (i, (e.end - e.start).as_secs_f64())
                        })
                        .collect();
                    for _ in 0..*count {
                        for &(i, d) in &durs {
                            busy[i] += d;
                        }
                    }
                }
            }
        }
        let mut by_lane: Vec<(Lane, f64)> = lanes.into_iter().zip(busy).collect();
        by_lane.sort_by_key(|&(lane, _)| lane);
        for &(lane, lane_busy) in &by_lane {
            registry
                .gauge(&format!("{prefix}.lane_busy_s.{}", lane.label()))
                .set(lane_busy);
        }
        let makespan = self.span_end().as_secs_f64();
        registry
            .gauge(&format!("{prefix}.makespan_s"))
            .set(makespan);
        if makespan > 0.0 {
            let config = by_lane
                .iter()
                .find(|&&(lane, _)| lane == Lane::ConfigPort)
                .map_or(0.0, |&(_, b)| b);
            registry
                .gauge(&format!("{prefix}.config_port.utilization"))
                .set(config / makespan);
        }
    }

    /// Renders an ASCII Gantt chart, `width` columns wide — the
    /// reproduction of the execution profiles of Figures 3 and 4.
    /// Each lane is one row; glyphs encode the activity
    /// (`F` full config, `P` partial config, `d` decision, `c` control,
    /// `X` execution, `i`/`o` data transfers).
    pub fn render_text(&self, width: usize) -> String {
        let width = width.max(10);
        let end = self.span_end().as_secs_f64();
        if end == 0.0 || self.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let mut lanes: Vec<Lane> = self.iter().map(|e| e.lane).collect();
        lanes.sort();
        lanes.dedup();
        let label_w = lanes
            .iter()
            .map(|l| l.label().len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        for lane in lanes {
            let mut row = vec!['.'; width];
            for e in self.iter().filter(|e| e.lane == lane) {
                let s = ((e.start.as_secs_f64() / end) * width as f64) as usize;
                let f = ((e.end.as_secs_f64() / end) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(f.min(width)).skip(s.min(width - 1)) {
                    *cell = e.kind.glyph();
                }
            }
            out.push_str(&format!("{:>label_w$} |", lane.label()));
            out.extend(row);
            out.push('\n');
        }
        out.push_str(&format!(
            "{:>label_w$} |{}\n",
            "",
            format_args!(
                "0 {:.<pad$} {:.4}s",
                "",
                end,
                pad = width.saturating_sub(12)
            )
        ));
        out
    }
}

/// Lazy expansion of a [`Timeline`] (see [`Timeline::iter`]).
#[derive(Debug, Clone)]
pub struct TimelineIter<'a> {
    items: &'a [Item],
    item: usize,
    rep: u64,
    idx: usize,
}

impl Iterator for TimelineIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            let item = self.items.get(self.item)?;
            match item {
                Item::Event(e) => {
                    self.item += 1;
                    return Some(*e);
                }
                Item::Repeat {
                    pattern,
                    count,
                    stride,
                } => {
                    if self.idx >= pattern.len() {
                        self.idx = 0;
                        self.rep += 1;
                    }
                    if self.rep >= *count {
                        self.item += 1;
                        self.rep = 0;
                        self.idx = 0;
                        continue;
                    }
                    let e = pattern[self.idx];
                    self.idx += 1;
                    return Some(e.shifted(self.rep * stride.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn push_drops_zero_length_events() {
        let mut tl = Timeline::default();
        tl.push(Lane::Host, EventKind::Decision, "d", t(1.0), t(1.0));
        assert!(tl.is_empty());
        tl.push(Lane::Host, EventKind::Decision, "d", t(1.0), t(2.0));
        assert_eq!(tl.len(), 1);
    }

    #[test]
    fn span_and_busy_accounting() {
        let mut tl = Timeline::default();
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "m",
            t(0.0),
            t(0.5),
        );
        tl.push(Lane::Prr(0), EventKind::Exec, "m", t(0.5), t(2.0));
        tl.push(Lane::Prr(0), EventKind::Exec, "m2", t(2.0), t(2.5));
        assert!((tl.span_end().as_secs_f64() - 2.5).abs() < 1e-9);
        assert!((tl.lane_busy_s(Lane::Prr(0)) - 2.0).abs() < 1e-9);
        assert!((tl.lane_busy_s(Lane::LinkIn) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_lanes_and_glyphs() {
        let mut tl = Timeline::default();
        tl.push(
            Lane::ConfigPort,
            EventKind::FullConfig,
            "full",
            t(0.0),
            t(1.0),
        );
        tl.push(Lane::Prr(0), EventKind::Exec, "task", t(1.0), t(2.0));
        let s = tl.render_text(60);
        assert!(s.contains("config"));
        assert!(s.contains("PRR0"));
        assert!(s.contains('F'));
        assert!(s.contains('X'));
    }

    #[test]
    fn render_empty_timeline() {
        assert!(Timeline::default().render_text(40).contains("empty"));
    }

    /// A hand-built four-lane timeline, with the rendered Gantt pinned
    /// byte-for-byte and every lane-busy total checked against the sum
    /// of its event durations.
    #[test]
    fn render_text_golden() {
        let mut tl = Timeline::default();
        tl.push(Lane::Host, EventKind::Decision, "dec", t(0.0), t(0.5));
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "cfg",
            t(0.0),
            t(1.0),
        );
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(1.0), t(3.0));
        tl.push(Lane::Host, EventKind::Control, "ctl", t(3.0), t(3.25));
        tl.push(Lane::Prr(1), EventKind::Exec, "b", t(3.25), t(4.0));

        let expected = [
            "  host |ddddd.........................ccc.......",
            "config |PPPPPPPPPP..............................",
            "  PRR0 |..........XXXXXXXXXXXXXXXXXXXX..........",
            "  PRR1 |................................XXXXXXXX",
            "       |0 ............................ 4.0000s",
            "",
        ]
        .join("\n");
        assert_eq!(tl.render_text(40), expected);

        // Lane-busy totals match the per-lane sums of event durations.
        assert!((tl.lane_busy_s(Lane::Host) - 0.75).abs() < 1e-12);
        assert!((tl.lane_busy_s(Lane::ConfigPort) - 1.0).abs() < 1e-12);
        assert!((tl.lane_busy_s(Lane::Prr(0)) - 2.0).abs() < 1e-12);
        assert!((tl.lane_busy_s(Lane::Prr(1)) - 0.75).abs() < 1e-12);
        assert!((tl.lane_busy_s(Lane::LinkIn) - 0.0).abs() < 1e-12);
        let lane_sum: f64 = [
            Lane::Host,
            Lane::ConfigPort,
            Lane::Prr(0),
            Lane::Prr(1),
            Lane::LinkIn,
            Lane::LinkOut,
        ]
        .iter()
        .map(|l| tl.lane_busy_s(*l))
        .sum();
        let event_sum: f64 = tl.iter().map(|e| (e.end - e.start).as_secs_f64()).sum();
        assert!((lane_sum - event_sum).abs() < 1e-12);
        assert!((tl.span_end().as_secs_f64() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn class_intervals_merge_overlap_and_adjacency() {
        let mut tl = Timeline::default();
        // Two PRRs executing with overlap, then an adjacent window.
        tl.push(Lane::Prr(0), EventKind::Exec, "a", t(0.0), t(2.0));
        tl.push(Lane::Prr(1), EventKind::Exec, "b", t(1.0), t(3.0));
        tl.push(Lane::Prr(0), EventKind::Exec, "c", t(3.0), t(4.0));
        tl.push(Lane::Prr(1), EventKind::Exec, "d", t(6.0), t(7.0));
        let exec = tl.class_intervals(ActivityClass::Exec);
        // The union, not the four raw windows: 5 s busy, not 2+2+1+1 = 6 s.
        assert_eq!(exec, vec![(t(0.0), t(4.0)), (t(6.0), t(7.0))]);
    }

    #[test]
    fn class_groups_full_and_partial_config() {
        let mut tl = Timeline::default();
        tl.push(Lane::ConfigPort, EventKind::FullConfig, "f", t(0.0), t(1.0));
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "p",
            t(2.0),
            t(3.0),
        );
        tl.push(Lane::Host, EventKind::Decision, "d", t(0.0), t(0.5));
        let cfg = tl.class_intervals(ActivityClass::Config);
        assert_eq!(cfg, vec![(t(0.0), t(1.0)), (t(2.0), t(3.0))]);
        assert!(tl.class_intervals(ActivityClass::Data).is_empty());
        assert_eq!(
            EventKind::FullConfig.class(),
            EventKind::PartialConfig.class()
        );
        assert_eq!(EventKind::DataIn.class(), ActivityClass::Data);
    }

    #[test]
    fn chrome_events_floor_to_microseconds() {
        let mut tl = Timeline::default();
        // 1500 ns .. 3999 ns: floors to ts=1 µs, dur=(3 - 1)=2 µs.
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "m",
            SimTime(1_500),
            SimTime(3_999),
        );
        tl.push(
            Lane::Prr(1),
            EventKind::Exec,
            "m",
            SimTime(4_000),
            SimTime(9_000),
        );
        let evs = tl.chrome_events(7);
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].ts, evs[0].dur), (1, 2));
        assert_eq!((evs[0].pid, evs[0].tid), (7, 1));
        assert_eq!(evs[0].ph, "X");
        assert_eq!(evs[1].tid, 11); // PRR1
                                    // ts + dur never exceeds the floored simulation end.
        let end_us = tl.span_end().0 / 1_000;
        assert!(evs.iter().all(|e| e.ts + e.dur <= end_us));
    }

    #[test]
    fn record_metrics_exports_lane_busy_and_utilization() {
        let mut tl = Timeline::default();
        tl.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "m",
            t(0.0),
            t(1.0),
        );
        tl.push(Lane::Prr(0), EventKind::Exec, "m", t(1.0), t(4.0));
        let reg = hprc_obs::Registry::new();
        tl.record_metrics(&reg, "sim");
        let snap = reg.snapshot();
        assert!((snap.gauges["sim.lane_busy_s.config"] - 1.0).abs() < 1e-9);
        assert!((snap.gauges["sim.lane_busy_s.PRR0"] - 3.0).abs() < 1e-9);
        assert!((snap.gauges["sim.makespan_s"] - 4.0).abs() < 1e-9);
        assert!((snap.gauges["sim.config_port.utilization"] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn record_metrics_noop_registry_is_free() {
        let mut tl = Timeline::default();
        tl.push(Lane::Host, EventKind::Control, "c", t(0.0), t(1.0));
        let reg = hprc_obs::Registry::noop();
        tl.record_metrics(&reg, "sim");
        assert!(reg.snapshot().gauges.is_empty());
    }

    /// Builds the same logical timeline twice — flat pushes vs one RLE
    /// repeat block — and checks every derived view agrees.
    fn periodic_pair() -> (Timeline, Timeline) {
        let period_s = 2.0;
        let mut flat = Timeline::default();
        for k in 0..4 {
            let base = k as f64 * period_s;
            flat.push(
                Lane::ConfigPort,
                EventKind::PartialConfig,
                "cfg",
                t(base),
                t(base + 0.5),
            );
            flat.push(
                Lane::Prr(k % 2),
                EventKind::Exec,
                "task",
                t(base + 0.5),
                t(base + 2.0),
            );
        }

        let mut rle = Timeline::default();
        // First period recorded plainly, then compressed in place —
        // the exact motion the steady-state executors perform.
        rle.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "cfg",
            t(0.0),
            t(0.5),
        );
        rle.push(Lane::Prr(0), EventKind::Exec, "task", t(0.5), t(2.0));
        rle.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            "cfg",
            t(2.0),
            t(2.5),
        );
        rle.push(Lane::Prr(1), EventKind::Exec, "task", t(2.5), t(4.0));
        let pattern = rle.split_off_events(0);
        rle.push_repeat(pattern, 2, t(4.0) - SimTime::ZERO);
        (flat, rle)
    }

    #[test]
    fn rle_expansion_matches_flat_recording() {
        let (flat, rle) = periodic_pair();
        assert_eq!(rle.n_items(), 1, "compressed to one repeat block");
        assert_eq!(rle.len(), flat.len());
        let a: Vec<TraceEvent> = flat.iter().collect();
        let b: Vec<TraceEvent> = rle.iter().collect();
        assert_eq!(a, b, "expansion must replay creation order exactly");
        assert_eq!(rle.span_end(), flat.span_end());
        // Order-sensitive float sums are bit-identical, not just close.
        for lane in [Lane::ConfigPort, Lane::Prr(0), Lane::Prr(1)] {
            assert_eq!(
                rle.lane_busy_s(lane).to_bits(),
                flat.lane_busy_s(lane).to_bits()
            );
        }
        for class in [ActivityClass::Exec, ActivityClass::Config] {
            assert_eq!(rle.class_intervals(class), flat.class_intervals(class));
        }
    }

    /// The RLE golden: rendered Gantt and Chrome export pinned against
    /// the flat recording (and the Gantt against literal bytes).
    #[test]
    fn rle_render_and_chrome_golden() {
        let (flat, rle) = periodic_pair();
        let expected = [
            "config |PPP.......PPP.......PPP.......PPP.......",
            "  PRR0 |..XXXXXXXX............XXXXXXXX..........",
            "  PRR1 |............XXXXXXXX............XXXXXXXX",
            "       |0 ............................ 8.0000s",
            "",
        ]
        .join("\n");
        assert_eq!(rle.render_text(40), expected);
        assert_eq!(rle.render_text(40), flat.render_text(40));

        let a = flat.chrome_events(3);
        let b = rle.chrome_events(3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (&x.name, x.ts, x.dur, x.pid, x.tid),
                (&y.name, y.ts, y.dur, y.pid, y.tid)
            );
        }

        // Both sides export identical gauges too.
        let (ra, rb) = (hprc_obs::Registry::new(), hprc_obs::Registry::new());
        flat.record_metrics(&ra, "sim");
        rle.record_metrics(&rb, "sim");
        use serde::Serialize;
        assert_eq!(
            ra.snapshot().to_json_value()["gauges"].to_string(),
            rb.snapshot().to_json_value()["gauges"].to_string()
        );
    }

    #[test]
    fn chrome_export_respects_the_expansion_cap() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "x", SimTime(0), SimTime(500));
        let pattern = tl.split_off_events(0);
        // Far more repetitions than the cap allows to materialize.
        tl.push_repeat(pattern, MAX_CHROME_EVENTS as u64 + 7, SimDuration(1_000));
        assert_eq!(tl.len(), MAX_CHROME_EVENTS as u64 + 7);
        assert_eq!(tl.n_items(), 1);
        let registry = hprc_obs::Registry::new();
        let evs = tl.chrome_events_recorded(1, &registry);
        // Cap + the synthetic truncation marker.
        assert_eq!(evs.len(), MAX_CHROME_EVENTS + 1);
        let marker = evs.last().unwrap();
        assert_eq!(marker.name, "[truncated 7 events]");
        assert_eq!(marker.dur, 0);
        assert_eq!(marker.ts, tl.span_end().0 / 1_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.trace.chrome_truncations"], 1);
        assert_eq!(snap.counters["sim.trace.chrome_truncated_events"], 7);
        assert_eq!(snap.counters["obs.trace.truncated_events"], 7);
    }

    #[test]
    fn chrome_export_below_cap_has_no_marker() {
        let mut tl = Timeline::default();
        tl.push(Lane::Prr(0), EventKind::Exec, "x", SimTime(0), SimTime(500));
        let registry = hprc_obs::Registry::new();
        let evs = tl.chrome_events_recorded(1, &registry);
        assert_eq!(evs.len(), 1);
        let snap = registry.snapshot();
        assert!(!snap.counters.contains_key("sim.trace.chrome_truncations"));
        assert!(!snap.counters.contains_key("obs.trace.truncated_events"));
    }

    #[test]
    fn recovery_events_class_as_config() {
        assert_eq!(EventKind::Recovery.class(), ActivityClass::Config);
        assert_eq!(EventKind::Recovery.glyph(), 'r');
        let mut tl = Timeline::default();
        tl.push(
            Lane::ConfigPort,
            EventKind::Recovery,
            "rcv",
            SimTime(0),
            SimTime(1_000),
        );
        assert_eq!(
            tl.class_intervals(ActivityClass::Config),
            vec![(SimTime(0), SimTime(1_000))]
        );
    }

    #[test]
    fn preempt_and_restore_events_class_as_config() {
        // Context save/restore ride the configuration port, so the attr
        // six-bucket identity keeps summing to the span on preemptive
        // schedules without a new bucket.
        assert_eq!(EventKind::Preempt.class(), ActivityClass::Config);
        assert_eq!(EventKind::Restore.class(), ActivityClass::Config);
        assert_eq!(EventKind::Preempt.glyph(), 's');
        assert_eq!(EventKind::Restore.glyph(), 'R');
        let mut tl = Timeline::default();
        tl.push(
            Lane::ConfigPort,
            EventKind::Preempt,
            "sav",
            SimTime(0),
            SimTime(1_000),
        );
        tl.push(
            Lane::ConfigPort,
            EventKind::Restore,
            "res",
            SimTime(1_000),
            SimTime(2_500),
        );
        assert_eq!(
            tl.class_intervals(ActivityClass::Config),
            vec![(SimTime(0), SimTime(2_500))]
        );
    }

    #[test]
    fn push_repeat_edge_cases() {
        let mut tl = Timeline::default();
        // Empty pattern / zero count / zero-length events record nothing.
        tl.push_repeat(Vec::new(), 5, SimDuration(10));
        let zero = TraceEvent {
            lane: Lane::Host,
            kind: EventKind::Control,
            label: Symbol::intern("z"),
            start: SimTime(4),
            end: SimTime(4),
        };
        tl.push_repeat(vec![zero], 5, SimDuration(10));
        tl.push_repeat(vec![zero], 0, SimDuration(10));
        assert!(tl.is_empty());
        assert_eq!(tl.n_items(), 0);

        // count == 1 stores plain events (nothing to encode).
        let e = TraceEvent {
            end: SimTime(9),
            ..zero
        };
        tl.push_repeat(vec![e], 1, SimDuration(10));
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.iter().next().unwrap(), e);
    }
}
