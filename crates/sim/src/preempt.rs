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
//! window layout relative to its own decision start plus the gap to the
//! previous segment, salted by its preemption/fault shape — equal keys
//! over a whole period imply the rendered output repeats verbatim up to
//! a constant shift, so the closed-form jump (RLE timeline block,
//! shifted timings, bulk metrics, [`hprc_obs::Journal::replay_cycle`])
//! is bit-identical to the per-segment path. [`run_preemptive_reference`]
//! is the per-segment oracle, exactly as for the other executors.
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
    verified_periods, CallTiming, ExecutionReport, LabelCache, SeenAt, L_CFG, L_CTL, L_DEC, L_FULL,
    L_RCV, L_RES, L_SAV,
};
use crate::node::NodeConfig;
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventKind, Lane, Timeline};

/// One dispatch of one task onto one PRR, with every window already
/// resolved by the scheduler (absolute simulation times). Transfer
/// windows cover their whole fault chain; the `*_clean` durations mark
/// the nominal prefix, the excess renders as [`EventKind::Recovery`].
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
    /// Clean prefix of `config`.
    pub config_clean: SimDuration,
    /// Context write-back window (present when `resumed`).
    pub restore: Option<(SimTime, SimTime)>,
    /// Clean prefix of `restore`.
    pub restore_clean: SimDuration,
    /// Control window start (zero-length when `dropped`).
    pub control_start: SimTime,
    /// Control window end.
    pub control_end: SimTime,
    /// Execution window start.
    pub exec_start: SimTime,
    /// Execution window end (the checkpoint instant when `preempted`;
    /// equals `exec_start` when `dropped`).
    pub exec_end: SimTime,
    /// Context readback window (present when `preempted`).
    pub save: Option<(SimTime, SimTime)>,
    /// The configuration was resident: no transfer charged.
    pub hit: bool,
    /// The transfer ran the full-reconfiguration chain (blacklisting).
    pub forced_full: bool,
    /// This segment resumes a previously checkpointed job.
    pub resumed: bool,
    /// This segment ends in a checkpoint.
    pub preempted: bool,
    /// An unrecoverable fault killed the job in this segment.
    pub dropped: bool,
    /// No recovery excess anywhere in the segment.
    pub clean: bool,
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
/// segment's exec end relative to this decision start (the marginal
/// latency sample reads it), and its shape flags. Timing is given, so
/// no further carry-over state is needed — a gap match *is* the
/// adjacency proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    name: Symbol,
    slot: usize,
    gap_ns: u64,
    prev_exec_rel: i64,
    dec_ns: u64,
    config: Option<(u64, u64, u64)>,
    restore: Option<(u64, u64, u64)>,
    control: (u64, u64),
    exec: (u64, u64),
    save: Option<(u64, u64)>,
    flags: u8,
}

fn seg_key(seg: &PreemptSegment, prev_start: SimTime, prev_exec_end: SimTime) -> SegKey {
    let base = seg.decision_start.0;
    let rel = |t: SimTime| t.0 - base;
    let win = |(s, e): (SimTime, SimTime)| (rel(s), e.0 - s.0);
    SegKey {
        name: seg.name,
        slot: seg.slot,
        gap_ns: base - prev_start.0,
        prev_exec_rel: base as i64 - prev_exec_end.0 as i64,
        dec_ns: seg.decision_end.0 - base,
        config: seg.config.map(|w| {
            let (s, l) = win(w);
            (s, l, seg.config_clean.0)
        }),
        restore: seg.restore.map(|w| {
            let (s, l) = win(w);
            (s, l, seg.restore_clean.0)
        }),
        control: (
            rel(seg.control_start),
            seg.control_end.0 - seg.control_start.0,
        ),
        exec: (rel(seg.exec_start), seg.exec_end.0 - seg.exec_start.0),
        save: seg.save.map(win),
        flags: (seg.hit as u8)
            | (seg.forced_full as u8) << 1
            | (seg.resumed as u8) << 2
            | (seg.preempted as u8) << 3
            | (seg.dropped as u8) << 4
            | (seg.clean as u8) << 5,
    }
}

/// Marginal latency sample: completion-to-completion, clamped at zero
/// because execution windows on different PRRs may overlap (a later
/// dispatch can finish before an earlier long-running one). Used
/// identically by the per-segment path and the jump replication, and
/// shift-invariant within a verified period.
fn latency_s(exec_end: SimTime, prev_end: SimTime) -> f64 {
    (exec_end.max(prev_end) - prev_end).as_secs_f64()
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

    let _span = registry.span("sim.run_preemptive");
    let j = &ctx.journal;
    let tid_host = Lane::Host.chrome_tid();
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let jrun = j.enter("sim.run_preemptive", 0, tid_host);
    let m_segments = registry.counter("sim.preempt.segments");
    let m_hits = registry.counter("sim.preempt.hits");
    let m_misses = registry.counter("sim.preempt.misses");
    let m_configs = registry.counter("sim.preempt.configs");
    let m_saves = registry.counter("sim.preempt.saves");
    let m_restores = registry.counter("sim.preempt.restores");
    let m_drops = registry.counter("sim.preempt.drops");
    let m_forced = registry.counter("sim.preempt.forced_full");
    let m_latency = registry.histogram("sim.preempt.segment_latency_s");

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

    // Salted keys confine jumps to clean segments, mirroring the faulty
    // executors: a non-clean segment gets a unique salt so no period
    // containing it ever matches.
    let keys: Vec<(SegKey, u64)> = if enable_jump {
        segments
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (prev_start, prev_exec_end) = if i == 0 {
                    (SimTime::ZERO, SimTime::ZERO)
                } else {
                    (segments[i - 1].decision_start, segments[i - 1].exec_end)
                };
                let salt = if s.clean { 0 } else { i as u64 + 1 };
                (seg_key(s, prev_start, prev_exec_end), salt)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut seen: HashMap<(SegKey, u64), SeenAt> = HashMap::new();

    let mut timeline = Timeline::default();
    let mut labels = LabelCache::default();
    let mut timings: Vec<CallTiming> = Vec::with_capacity(segments.len());
    let mut n_config = 0u64;
    let mut n_dropped = 0u64;

    let mut i = 0usize;
    while i < segments.len() {
        if enable_jump && i >= 1 {
            if let Some(at) = seen.get(&keys[i]).copied() {
                let p = i - at.i0;
                let m = verified_periods(&keys, at.i0, p, i);
                if m >= 1 {
                    let delta = segments[i].decision_start.0 - at.anchor.0;
                    let pattern = timeline.split_off_events(at.items_marker);
                    timeline.push_repeat(pattern, m + 1, SimDuration(delta));
                    let latencies: Vec<f64> = (at.timings_marker..timings.len())
                        .map(|t| latency_s(timings[t].exec_end, timings[t - 1].exec_end))
                        .collect();
                    let block = timings[at.timings_marker..].to_vec();
                    let bseg = &segments[at.i0..i];
                    let b_hits = bseg.iter().filter(|s| s.hit).count() as u64;
                    let b_cfgs = bseg.iter().filter(|s| s.config.is_some()).count() as u64;
                    let b_cfg_ok = bseg
                        .iter()
                        .filter(|s| s.config.is_some() && !s.dropped)
                        .count() as u64;
                    let b_saves = bseg.iter().filter(|s| s.save.is_some()).count() as u64;
                    let b_restores = bseg.iter().filter(|s| s.restore.is_some()).count() as u64;
                    let b_drops = bseg.iter().filter(|s| s.dropped).count() as u64;
                    let b_forced = bseg.iter().filter(|s| s.forced_full).count() as u64;
                    for k in 1..=m {
                        timings.extend(block.iter().map(|t| t.shifted(k * delta)));
                    }
                    m_segments.add(m * p as u64);
                    m_hits.add(m * b_hits);
                    m_misses.add(m * (p as u64 - b_hits));
                    m_configs.add(m * b_cfgs);
                    m_saves.add(m * b_saves);
                    m_restores.add(m * b_restores);
                    m_drops.add(m * b_drops);
                    m_forced.add(m * b_forced);
                    m_latency.record_cycle(&latencies, m);
                    n_config += m * b_cfg_ok;
                    n_dropped += m * b_drops;
                    j.replay_cycle(at.jmark, m, delta);
                    i += m as usize * p;
                    seen.clear();
                    continue;
                }
            }
            seen.insert(
                keys[i],
                SeenAt {
                    i0: i,
                    anchor: segments[i].decision_start,
                    items_marker: timeline.n_items(),
                    timings_marker: timings.len(),
                    jmark: j.mark(),
                },
            );
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
            let clean_end = (cs + seg.config_clean).min(ce);
            let kind = if seg.forced_full {
                EventKind::FullConfig
            } else {
                EventKind::PartialConfig
            };
            let tag = if seg.forced_full { L_FULL } else { L_CFG };
            timeline.push(
                Lane::ConfigPort,
                kind,
                labels.get(tag, seg.name, seg.slot),
                cs,
                clean_end,
            );
            timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                labels.get(L_RCV, seg.name, 0),
                clean_end,
                ce,
            );
            if !seg.dropped {
                n_config += 1;
            }
        }

        let mut jres = None;
        if let Some((rs, re)) = seg.restore {
            jres = j.event("restore", jcall, rs.0, tid_cfg);
            j.flow(anchors[&seg.name], jres, "restore");
            let clean_end = (rs + seg.restore_clean).min(re);
            timeline.push(
                Lane::ConfigPort,
                EventKind::Restore,
                labels.get(L_RES, seg.name, seg.slot),
                rs,
                clean_end,
            );
            timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                labels.get(L_RCV, seg.name, 0),
                clean_end,
                re,
            );
            m_restores.inc();
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
        let jexec = if seg.dropped {
            None
        } else {
            let e = j.event(
                "execute",
                jcall,
                seg.exec_start.0,
                Lane::Prr(seg.slot).chrome_tid(),
            );
            if jres.is_some() {
                j.flow(jres, e, "activate");
            } else if jcfg.is_some() {
                j.flow(jcfg, e, "activate");
            } else {
                j.flow(jdec, e, "hit");
            }
            e
        };

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
            m_saves.inc();
        }

        m_segments.inc();
        if seg.hit {
            m_hits.inc();
        } else {
            m_misses.inc();
        }
        if seg.config.is_some() {
            m_configs.inc();
        }
        if seg.dropped {
            m_drops.inc();
            n_dropped += 1;
        }
        if seg.forced_full {
            m_forced.inc();
        }
        let prev_end = timings.last().map_or(SimTime::ZERO, |t| t.exec_end);
        m_latency.record(latency_s(seg.exec_end, prev_end));
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
    timeline.record_metrics(registry, "sim.preempt");
    Ok(ExecutionReport {
        total: end - SimTime::ZERO,
        calls: timings,
        timeline,
        n_config,
        n_dropped,
    })
}
