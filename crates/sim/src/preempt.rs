//! Renderer for preemptive schedules: turns the explicit windows the
//! `hprc-sched` preemptible engine computed into the same
//! [`ExecutionReport`] the run-to-completion executors produce —
//! timeline events (including [`EventKind::Preempt`] context saves and
//! [`EventKind::Restore`] write-backs), per-dispatch timings, metrics,
//! and causal journal spans with `preempt`/`save`/`restore` flow links.
//!
//! Unlike [`run_frtr`](crate::executor::run_frtr)/[`run_prtr`](crate::executor::run_prtr),
//! the timing here is *given* (the engine already resolved contention
//! and preemption), so the renderer is a pure, time-translation-
//! invariant function of each segment's shape. That makes the
//! steady-state fast path simpler and exact: a segment's key is its
//! window layout relative to its own decision start, the gap to the
//! previous segment, and its preemption shape — equal keys over a
//! whole period imply the rendered output repeats verbatim up to a
//! constant shift, so the executors' shared closed-form jump (RLE
//! timeline block, shifted timings, one
//! [`hprc_obs::Journal::replay_cycle`]) is bit-identical to the
//! per-segment path. The `sim.preempt.*` counters and the segment
//! latency histogram are derived once after the loop, from the segments
//! and the finished timings. [`run_preemptive_reference`] is the
//! per-segment oracle, exactly as for the other executors.
//!
//! Journal causality: each task gets one stable `ctx:{name}` anchor
//! span (its host-side context buffer), opened before any segment and
//! closed after the last. A checkpoint links `execute → save` with kind
//! `preempt` and `save → ctx:{name}` with kind `save`; a resume links
//! `ctx:{name} → restore` with kind `restore` and `restore → execute`
//! with kind `activate`. Every link is either intra-segment or touches
//! a stable out-of-block anchor id, so cycle replay stays exact.

use std::collections::HashMap;

use hprc_ctx::{ExecCtx, Symbol};
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::executor::{
    marginal_latencies_s, CallTiming, ExecutionReport, LabelCache, L_CFG, L_CTL, L_DEC, L_RES,
    L_SAV,
};
use crate::fast::FastPath;
use crate::node::NodeConfig;
use crate::time::SimTime;
use crate::trace::{EventKind, Lane, Timeline};

/// One dispatch of one task onto one PRR, with every window already
/// resolved by the scheduler (absolute simulation times). The
/// configuration window renders as one [`EventKind::PartialConfig`] and
/// the write-back window as one [`EventKind::Restore`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptSegment {
    /// Task name (interned).
    pub name: Symbol,
    /// PRR slot executed on.
    pub slot: usize,
    /// Decision window start.
    pub decision_start: SimTime,
    /// Decision window end.
    pub decision_end: SimTime,
    /// Configuration transfer window (absent on a hit).
    pub config: Option<(SimTime, SimTime)>,
    /// Context write-back window (present when `resumed`).
    pub restore: Option<(SimTime, SimTime)>,
    /// Control window start.
    pub control_start: SimTime,
    /// Control window end.
    pub control_end: SimTime,
    /// Execution window start.
    pub exec_start: SimTime,
    /// Execution window end (the checkpoint instant when `preempted`).
    pub exec_end: SimTime,
    /// Context readback window (present when `preempted`).
    pub save: Option<(SimTime, SimTime)>,
    /// The configuration was resident: no transfer charged.
    pub hit: bool,
    /// This segment resumes a previously checkpointed job.
    pub resumed: bool,
    /// This segment ends in a checkpoint.
    pub preempted: bool,
}

impl PreemptSegment {
    /// Instant the segment's last window closes.
    pub fn end(&self) -> SimTime {
        let mut end = self.exec_end.max(self.control_end);
        if let Some((_, e)) = self.config {
            end = end.max(e);
        }
        if let Some((_, e)) = self.restore {
            end = end.max(e);
        }
        if let Some((_, e)) = self.save {
            end = end.max(e);
        }
        end.max(self.decision_end)
    }
}

/// Everything that determines a segment's rendered output up to a time
/// translation: its window layout relative to its own decision start,
/// the gap to the previous segment's decision start, the previous
/// segment's exec end relative to this decision start (it fixes the
/// segment's marginal latency sample), and its shape flags. Timing is
/// given, so no further carry-over state is needed — a gap match *is*
/// the adjacency proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    name: Symbol,
    slot: usize,
    gap_ns: u64,
    prev_exec_rel: i64,
    dec_ns: u64,
    config: Option<(u64, u64)>,
    restore: Option<(u64, u64)>,
    control: (u64, u64),
    exec: (u64, u64),
    save: Option<(u64, u64)>,
    flags: u8,
}

fn seg_key(seg: &PreemptSegment, prev: Option<&PreemptSegment>) -> SegKey {
    let (prev_start, prev_exec_end) = prev.map_or((SimTime::ZERO, SimTime::ZERO), |p| {
        (p.decision_start, p.exec_end)
    });
    let base = seg.decision_start.0;
    let rel = |t: SimTime| t.0 - base;
    let win = |(s, e): (SimTime, SimTime)| (rel(s), e.0 - s.0);
    SegKey {
        name: seg.name,
        slot: seg.slot,
        gap_ns: base - prev_start.0,
        prev_exec_rel: base as i64 - prev_exec_end.0 as i64,
        dec_ns: seg.decision_end.0 - base,
        config: seg.config.map(win),
        restore: seg.restore.map(win),
        control: (
            rel(seg.control_start),
            seg.control_end.0 - seg.control_start.0,
        ),
        exec: (rel(seg.exec_start), seg.exec_end.0 - seg.exec_start.0),
        save: seg.save.map(win),
        flags: (seg.hit as u8) | (seg.resumed as u8) << 1 | (seg.preempted as u8) << 2,
    }
}

/// Renders a preemptive schedule with the steady-state fast path
/// enabled. See the [module docs](self) for the event and journal
/// vocabulary; totals, timings, metrics, and journal bytes are
/// bit-identical to [`run_preemptive_reference`].
pub fn run_preemptive(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_preemptive_impl(node, segments, ctx, true)
}

/// The pure per-segment renderer: the equivalence oracle for
/// [`run_preemptive`].
pub fn run_preemptive_reference(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_preemptive_impl(node, segments, ctx, false)
}

fn run_preemptive_impl(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
    enable_jump: bool,
) -> Result<ExecutionReport, SimError> {
    let registry = &ctx.registry;
    if segments.is_empty() {
        return Err(SimError::InvalidRun("empty segment sequence".into()));
    }
    if let Some(bad) = segments.iter().find(|s| s.slot >= node.n_prrs) {
        return Err(SimError::InvalidRun(format!(
            "slot {} out of range for {} PRRs",
            bad.slot, node.n_prrs
        )));
    }

    let j = &ctx.journal;
    let tid_host = Lane::Host.chrome_tid();
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let jrun = j.enter("sim.run_preemptive", 0, tid_host);

    // One stable anchor span per task: the host-side context buffer the
    // checkpoint flows dock at. Opened before any segment (outside any
    // jump window), so their ids survive cycle replay untouched.
    // The `ctx:<task>` label is interned (journal names are `'static`),
    // and only when the journal is live: a no-op run builds no label.
    let mut anchors: HashMap<Symbol, Option<hprc_obs::SpanId>> = HashMap::new();
    let mut anchor_order: Vec<Symbol> = Vec::new();
    for seg in segments {
        if let std::collections::hash_map::Entry::Vacant(slot) = anchors.entry(seg.name) {
            let anchor = if j.is_enabled() {
                let label = Symbol::intern(&format!("ctx:{}", seg.name.as_str()));
                j.open(label.as_str(), jrun, 0, tid_host)
            } else {
                None
            };
            slot.insert(anchor);
            anchor_order.push(seg.name);
        }
    }

    let mut fast: FastPath<SegKey> = FastPath::new(
        enable_jump,
        segments.len(),
        |i| seg_key(&segments[i], i.checked_sub(1).map(|p| &segments[p])),
        |_| true,
    );

    let mut timeline = Timeline::default();
    let mut labels = LabelCache::default();
    let mut timings: Vec<CallTiming> = Vec::with_capacity(segments.len());

    let mut i = 0usize;
    while i < segments.len() {
        if i >= 1 {
            let anchor = segments[i].decision_start;
            if let Some(jump) = fast.jump(i, (), anchor, &mut timeline, &mut timings, j) {
                i += jump.calls;
                continue;
            }
        }

        let seg = &segments[i];
        let jcall = j.open(seg.name.as_str(), jrun, seg.decision_start.0, tid_host);
        let jdec = j.event("decide", jcall, seg.decision_start.0, tid_host);
        timeline.push(
            Lane::Host,
            EventKind::Decision,
            labels.get(L_DEC, seg.name, 0),
            seg.decision_start,
            seg.decision_end,
        );

        let mut jcfg = None;
        if let Some((cs, ce)) = seg.config {
            jcfg = j.event("configure", jcall, cs.0, tid_cfg);
            j.flow(jdec, jcfg, "hide");
            timeline.push(
                Lane::ConfigPort,
                EventKind::PartialConfig,
                labels.get(L_CFG, seg.name, seg.slot),
                cs,
                ce,
            );
        }

        let mut jres = None;
        if let Some((rs, re)) = seg.restore {
            jres = j.event("restore", jcall, rs.0, tid_cfg);
            j.flow(anchors[&seg.name], jres, "restore");
            timeline.push(
                Lane::ConfigPort,
                EventKind::Restore,
                labels.get(L_RES, seg.name, seg.slot),
                rs,
                re,
            );
        }

        timeline.push(
            Lane::Host,
            EventKind::Control,
            labels.get(L_CTL, seg.name, 0),
            seg.control_start,
            seg.control_end,
        );
        timeline.push(
            Lane::Prr(seg.slot),
            EventKind::Exec,
            seg.name,
            seg.exec_start,
            seg.exec_end,
        );
        let jexec = j.event(
            "execute",
            jcall,
            seg.exec_start.0,
            Lane::Prr(seg.slot).chrome_tid(),
        );
        if jres.is_some() {
            j.flow(jres, jexec, "activate");
        } else if jcfg.is_some() {
            j.flow(jcfg, jexec, "activate");
        } else {
            j.flow(jdec, jexec, "hit");
        }

        if let Some((ss, se)) = seg.save {
            let jsave = j.event("save", jcall, ss.0, tid_cfg);
            j.flow(jexec, jsave, "preempt");
            j.flow(jsave, anchors[&seg.name], "save");
            timeline.push(
                Lane::ConfigPort,
                EventKind::Preempt,
                labels.get(L_SAV, seg.name, seg.slot),
                ss,
                se,
            );
        }

        timings.push(CallTiming {
            name: seg.name,
            hit: seg.hit,
            config_start: seg.config.map(|w| w.0),
            config_end: seg.config.map(|w| w.1),
            exec_start: seg.exec_start,
            exec_end: seg.exec_end,
        });
        j.close(jcall, seg.end().0);
        i += 1;
    }

    let end = timeline.span_end();
    for name in anchor_order {
        j.close(anchors[&name], end.0);
    }
    j.exit(jrun, end.0);

    let count = |f: fn(&PreemptSegment) -> bool| segments.iter().filter(|s| f(s)).count() as u64;
    let n_config = count(|s| s.config.is_some());
    if registry.is_enabled() {
        let hits = count(|s| s.hit);
        for (name, n) in [
            ("sim.preempt.segments", segments.len() as u64),
            ("sim.preempt.hits", hits),
            ("sim.preempt.misses", segments.len() as u64 - hits),
            ("sim.preempt.configs", n_config),
            ("sim.preempt.saves", count(|s| s.save.is_some())),
            ("sim.preempt.restores", count(|s| s.restore.is_some())),
        ] {
            registry.counter(name).add(n);
        }
        registry
            .histogram("sim.preempt.segment_latency_s")
            .record_cycle(&marginal_latencies_s(&timings), 1);
    }
    timeline.record_metrics(registry, "sim.preempt");
    Ok(ExecutionReport {
        total: end - SimTime::ZERO,
        calls: timings,
        timeline,
        n_config,
        n_dropped: 0,
    })
}
