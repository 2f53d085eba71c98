//! FRTR and PRTR executors: drive a sequence of task calls through the
//! simulated node and measure the total execution time the analytical
//! model predicts.
//!
//! **FRTR** (Figure 3): every call fully reconfigures the device through
//! the vendor API — nothing overlaps, because a full configuration resets
//! the fabric. Per call: `T_FRTR + T_control + T_task`, serial.
//!
//! **PRTR** (Figure 4): the runtime overlaps the next call's partial
//! reconfiguration with the current call's execution, exactly as
//! equation (3) accounts it:
//!
//! * *miss* (Figure 4(a)): the next configuration starts streaming through
//!   the ICAP when the current task starts; the decision check runs when
//!   the task ends. The call becomes ready at
//!   `max(exec_end_prev + T_decision, config_end)` — contributing
//!   `max(T_task + T_decision, T_PRTR)` per call in steady state;
//! * *hit* (Figure 4(b)): the decision overlaps execution; ready at
//!   `max(exec_end_prev, decision_end)` — contributing
//!   `max(T_task, T_decision)`.
//!
//! Every call then pays `T_control` before executing. The model's single
//! leading `X_decision` appears as the first call's un-overlapped decision.
//! The simulator additionally serializes configurations on the single ICAP
//! and (optionally) delays them until the previous call's input data has
//! drained from the shared host link — second-order effects equation (3)
//! ignores, which is precisely what makes simulator-vs-model validation
//! meaningful.
//!
//! # Steady-state fast path
//!
//! [`run_frtr`] and [`run_prtr`] simulate per call (the reference
//! recurrence, verbatim) and hand each call to the crate's one
//! steady-state fast path (`fast::FastPath`) first. It jumps whole
//! periods that provably repeat, anchored at `now` under FRTR and at the
//! previous call's `exec_start` under PRTR, whose carry-over state
//! (`RelState`) is relative to that anchor. Aperiodic stretches (e.g.
//! the dithered hit patterns of the validation experiment) simply keep
//! simulating per call. [`run_frtr_reference`] and
//! [`run_prtr_reference`] expose the pure per-call path as the
//! equivalence oracle.
//!
//! # Metrics
//!
//! The per-call loop writes only the timeline, the journal and the
//! timings. Each executor records its counters, its latency histogram
//! and, under an armed plan, its `*.fault.*` bundle once after the loop,
//! from the calls, the fates and the finished timings, so a jump needs no
//! metric bookkeeping of its own. All floating-point derivation happens
//! on per-call values in original order, which keeps every metric
//! bit-identical between the fast and the per-call path.
//!
//! # Faults
//!
//! Each executor has one per-call body. Under an armed
//! [`FaultPlan`] ([`run_frtr_faulty`], [`run_prtr_faulty`]) a faulty call
//! differs from a clean one only in how its configuration window is
//! laid out: the plan's attempt chain, with [`EventKind::Recovery`]
//! backoff windows, instead of one vendor-API configure or one ICAP
//! transfer. A disarmed plan is the clean path: every call is clean.

use std::collections::HashMap;

use hprc_ctx::{ExecCtx, Symbol};
use hprc_fault::{AttemptOutcome, CallFate, FaultPlan, FaultSite, FaultState};
use hprc_obs::SpanId;
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::fast::FastPath;
use crate::node::NodeConfig;
use crate::task::{PrtrCall, TaskCall};
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventKind, Lane, Timeline};

/// Timing of one executed call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CallTiming {
    /// Task name (interned).
    pub name: Symbol,
    /// Whether the call hit (PRTR only; always false under FRTR).
    pub hit: bool,
    /// When its (re-)configuration started (if one was needed).
    pub config_start: Option<SimTime>,
    /// When its (re-)configuration finished.
    pub config_end: Option<SimTime>,
    /// When execution started (after transfer of control).
    pub exec_start: SimTime,
    /// When execution finished.
    pub exec_end: SimTime,
}

impl CallTiming {
    /// The timing shifted `offset_ns` later.
    pub(crate) fn shifted(self, offset_ns: u64) -> CallTiming {
        CallTiming {
            config_start: self.config_start.map(|t| SimTime(t.0 + offset_ns)),
            config_end: self.config_end.map(|t| SimTime(t.0 + offset_ns)),
            exec_start: SimTime(self.exec_start.0 + offset_ns),
            exec_end: SimTime(self.exec_end.0 + offset_ns),
            ..self
        }
    }
}

/// Result of executing a call sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Wall-clock total, from t = 0 to the last task's completion.
    pub total: SimDuration,
    /// Per-call timings.
    pub calls: Vec<CallTiming>,
    /// Full event timeline (renders the Figures 3/4 profiles).
    pub timeline: Timeline,
    /// Number of *successful* (re-)configurations performed.
    pub n_config: u64,
    /// Calls dropped after exhausting every recovery attempt (always 0
    /// on fault-free runs; see crate `hprc-fault`).
    pub n_dropped: u64,
}

impl ExecutionReport {
    /// Total in seconds.
    pub fn total_s(&self) -> f64 {
        self.total.as_secs_f64()
    }
}

/// Everything that determines one FRTR call's contribution: the vendor
/// API call is parameterized by the node alone, so the call's name and
/// data sizes (which fix `T_task` and the transfer events) are the
/// whole story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FrtrKey {
    name: Symbol,
    bytes_in: u64,
    bytes_out: u64,
}

/// Everything that determines one PRTR call's contribution, given the
/// relative carry-over state: name and data sizes fix the durations,
/// `hit` picks the recurrence arm, `slot` the execution lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PrtrKey {
    name: Symbol,
    bytes_in: u64,
    bytes_out: u64,
    hit: bool,
    slot: usize,
}

/// The carry-over state of the PRTR recurrence, expressed relative to
/// the previous call's `exec_start` so that time-translated repetitions
/// compare equal. `icap_ns` clamps `icap_free` to ≥ `prev_start`, which
/// is behavior-preserving: the ICAP horizon is only ever read through
/// `max(earliest, icap_free)` with `earliest ≥ prev_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelState {
    /// `prev_end − prev_start` (the previous execution's length).
    exec_ns: u64,
    /// `max(icap_free, prev_start) − prev_start`.
    icap_ns: u64,
    /// The previous call's input bytes (gates the shared-channel
    /// ablation's configuration start).
    prev_bytes_in: u64,
}

/// Memoized derived event labels. Slow-path calls label their timeline
/// events with strings derived from the (already interned) task name —
/// `"ctl:<name>"`, `"cfg:<name>@PRR<slot>"`, … — and formatting plus
/// interning one per event dominated the per-call profile. Derivations
/// are memoized per `(prefix, name, slot)`; workload vocabularies are
/// tiny, so the map stays a handful of entries.
#[derive(Default)]
pub(crate) struct LabelCache(HashMap<(u8, Symbol, usize), Symbol>);

pub(crate) const L_FULL: u8 = 0;
pub(crate) const L_CTL: u8 = 1;
pub(crate) const L_DEC: u8 = 2;
pub(crate) const L_CFG: u8 = 3;
pub(crate) const L_IN: u8 = 4;
pub(crate) const L_OUT: u8 = 5;
pub(crate) const L_RCV: u8 = 6;
pub(crate) const L_SAV: u8 = 7;
pub(crate) const L_RES: u8 = 8;

impl LabelCache {
    pub(crate) fn get(&mut self, tag: u8, name: Symbol, slot: usize) -> Symbol {
        *self.0.entry((tag, name, slot)).or_insert_with(|| {
            Symbol::intern(&match tag {
                L_FULL => format!("full:{name}"),
                L_CTL => format!("ctl:{name}"),
                L_DEC => format!("dec:{name}"),
                L_CFG => format!("cfg:{name}@PRR{slot}"),
                L_IN => format!("in:{name}"),
                L_RCV => format!("rcv:{name}"),
                L_SAV => format!("sav:{name}@PRR{slot}"),
                L_RES => format!("res:{name}@PRR{slot}"),
                _ => format!("out:{name}"),
            })
        })
    }
}

/// Records an armed run's `{prefix}.fault.*` bundle: sums over the
/// faulty calls' fates, and a `recovery_s` sample per faulty call, its
/// configuration window beyond the clean configuration time `clean_s`.
/// Disarmed runs record none of it, so fault-free runs keep their metric
/// snapshots byte-identical.
fn record_fault_metrics(
    registry: &hprc_obs::Registry,
    prefix: &str,
    fates: &[CallFate],
    timings: &[CallTiming],
    clean_s: f64,
) {
    let faulty: Vec<(&CallFate, &CallTiming)> = fates
        .iter()
        .zip(timings)
        .filter(|(f, _)| !f.is_clean())
        .collect();
    let sum = |f: fn(&CallFate) -> u64| faulty.iter().map(|&(fate, _)| f(fate)).sum::<u64>();
    for (name, n) in [
        ("injected", sum(CallFate::injected)),
        ("crc", sum(|f| f.crc_refetches.into())),
        ("icap_timeout", sum(|f| f.icap_timeouts.into())),
        ("activation", sum(|f| f.activation_fails.into())),
        ("api_transfer", sum(|f| f.api_fails.into())),
        ("retries", sum(CallFate::retries)),
        ("escalations", sum(|f| f.escalated.into())),
        ("forced_full", sum(|f| f.forced_full.into())),
        ("drops", sum(|f| f.dropped.into())),
        (
            "escalated_full_configs",
            sum(|f| (!f.dropped && (f.escalated || f.forced_full)).into()),
        ),
    ] {
        registry.counter(&format!("{prefix}.fault.{name}")).add(n);
    }
    let recovery_s: Vec<f64> = faulty
        .iter()
        .map(|(_, t)| {
            let (cs, ce) = t
                .config_start
                .zip(t.config_end)
                .expect("a faulty call configures");
            (ce - cs).as_secs_f64() - clean_s
        })
        .collect();
    registry
        .histogram(&format!("{prefix}.fault.recovery_s"))
        .record_cycle(&recovery_s, 1);
}

/// Each call's marginal latency: its completion minus the previous
/// call's (t = 0 before the first), clamped at zero because the
/// preemptive renderer's execution windows on different PRRs may
/// overlap (a later dispatch can finish before an earlier long-running
/// one). In steady state this is the model's per-call increment, e.g.
/// `max(T_task + T_decision, T_PRTR) + T_control` for a PRTR miss.
pub(crate) fn marginal_latencies_s(timings: &[CallTiming]) -> Vec<f64> {
    let mut prev = SimTime::ZERO;
    timings
        .iter()
        .map(|t| {
            let d = t.exec_end.max(prev) - prev;
            prev = t.exec_end;
            d.as_secs_f64()
        })
        .collect()
}

/// Pending outgoing flow link while laying out a recovery chain: the
/// latest chain node's journal id plus the kind the *next* edge out of
/// it carries (`fault` out of a failed attempt, `retry` out of a
/// recovery window, `escalate` into the full chain, `hide` out of the
/// originating prefetch decision). `None` while the journal is off or
/// the chain has no node yet.
type PendingLink = Option<(SpanId, &'static str)>;

/// Journals one chain node: links the pending edge into it, then makes
/// it the new pending tail with `next_kind`.
fn link_chain(
    j: &hprc_obs::Journal,
    chain: &mut PendingLink,
    node: Option<SpanId>,
    next_kind: &'static str,
) {
    let Some(id) = node else { return };
    if let Some((from, kind)) = chain.take() {
        j.flow(Some(from), Some(id), kind);
    }
    *chain = Some((id, next_kind));
}

/// Lays out a faulty call's full-reconfiguration attempts from `start`:
/// per attempt one [`EventKind::FullConfig`] window (driven through the
/// [`crate::cray_api::CrayConfigApi::configure_attempt`] hook) plus an
/// [`EventKind::Recovery`] backoff window after each non-terminal
/// failure (a drop's last failure retries nothing, so it pays no
/// backoff). Returns the chain's end. A zero-attempt fate (pure partial
/// success) returns `start` untouched.
///
/// Journal: each attempt is a `full-configure` event and each backoff a
/// `recovery` span, all parented to `jparent` and threaded onto
/// `jchain`'s flow-link chain.
#[allow(clippy::too_many_arguments)]
fn push_full_attempts(
    node: &NodeConfig,
    timeline: &mut Timeline,
    labels: &mut LabelCache,
    plan: &FaultPlan,
    fate: &CallFate,
    call_idx: u64,
    name: Symbol,
    start: SimTime,
    ctx: &ExecCtx,
    jparent: Option<SpanId>,
    jchain: &mut PendingLink,
) -> Result<SimTime, SimError> {
    let j = &ctx.journal;
    let full_bytes = node.full_config.full_bitstream_bytes;
    let t_full = SimDuration::from_secs_f64(node.full_config.full_configuration_time_s());
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let mut t = start;
    for attempt in 1..=fate.full_attempts {
        let outcome = plan.full_attempt(call_idx, attempt);
        let d = match node
            .full_config
            .configure_attempt(full_bytes, false, false, outcome, ctx)
        {
            Ok(d) => d,
            Err(SimError::TransientFault(_)) => t_full,
            Err(e) => return Err(e),
        };
        let ja = j.event("full-configure", jparent, t.0, tid_cfg);
        link_chain(j, jchain, ja, "fault");
        timeline.push(
            Lane::ConfigPort,
            EventKind::FullConfig,
            labels.get(L_FULL, name, 0),
            t,
            t + d,
        );
        t += d;
        if matches!(outcome, AttemptOutcome::Fault(_)) && attempt < fate.full_attempts {
            let pd = SimDuration::from_secs_f64(plan.policy.backoff_s(attempt));
            let jr = j.open("recovery", jparent, t.0, tid_cfg);
            link_chain(j, jchain, jr, "retry");
            timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                labels.get(L_RCV, name, 0),
                t,
                t + pd,
            );
            t += pd;
            j.close(jr, t.0);
        }
    }
    Ok(t)
}

/// Lays out a faulty PRTR miss's whole recovery chain from `start`:
/// the partial attempts (each an [`EventKind::PartialConfig`] window
/// through the [`crate::icap::IcapPath::transfer_attempt`] hook,
/// followed on failure by an [`EventKind::Recovery`] backoff — plus a
/// bitstream re-fetch after a CRC mismatch), then, if the fate
/// escalated or was forced full, the full-reconfiguration chain.
/// Returns the chain's end.
///
/// Journal: each partial attempt is a `configure` event and each
/// backoff a `recovery` span, parented to `jparent` and chained on
/// `jchain`; when the fate escalates, the edge into the first full
/// attempt is re-labelled `escalate`.
#[allow(clippy::too_many_arguments)]
fn push_partial_fault_chain(
    node: &NodeConfig,
    timeline: &mut Timeline,
    labels: &mut LabelCache,
    plan: &FaultPlan,
    fate: &CallFate,
    call_idx: u64,
    name: Symbol,
    slot: usize,
    start: SimTime,
    ctx: &ExecCtx,
    jparent: Option<SpanId>,
    jchain: &mut PendingLink,
) -> Result<SimTime, SimError> {
    let j = &ctx.journal;
    let t_prtr = node.icap.transfer_duration(node.prr_bitstream_bytes);
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let mut t = start;
    for attempt in 1..=fate.partial_attempts {
        let outcome = plan.partial_attempt(call_idx, attempt);
        let d = match node
            .icap
            .transfer_attempt(node.prr_bitstream_bytes, outcome, ctx)
        {
            Ok(d) => d,
            Err(SimError::TransientFault(_)) => t_prtr,
            Err(e) => return Err(e),
        };
        let ja = j.event("configure", jparent, t.0, tid_cfg);
        link_chain(j, jchain, ja, "fault");
        timeline.push(
            Lane::ConfigPort,
            EventKind::PartialConfig,
            labels.get(L_CFG, name, slot),
            t,
            t + d,
        );
        t += d;
        if let AttemptOutcome::Fault(site) = outcome {
            // Every partial failure is followed by another attempt
            // (retry or escalation), so it always pays its backoff.
            let mut pause = plan.policy.backoff_s(attempt);
            if site == FaultSite::CrcMismatch {
                pause += plan.policy.refetch_s;
            }
            let pd = SimDuration::from_secs_f64(pause);
            let jr = j.open("recovery", jparent, t.0, tid_cfg);
            link_chain(j, jchain, jr, "retry");
            timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                labels.get(L_RCV, name, slot),
                t,
                t + pd,
            );
            t += pd;
            j.close(jr, t.0);
        }
    }
    if fate.full_attempts > 0 {
        if let Some(c) = jchain.as_mut() {
            c.1 = "escalate";
        }
    }
    push_full_attempts(
        node, timeline, labels, plan, fate, call_idx, name, t, ctx, jparent, jchain,
    )
}

/// Executes `calls` under **FRTR**: full reconfiguration before every call.
///
/// Uses the steady-state fast path (see the module docs); the result is
/// bit-identical to [`run_frtr_reference`].
///
/// Metrics go to `ctx.registry` ([`ExecCtx::default`] records nothing):
/// call/config counters, a per-call latency histogram, and the
/// timeline's per-lane busy gauges under the `sim.frtr` prefix.
///
/// # Errors
///
/// Propagates vendor-API rejections (impossible for well-formed full
/// bitstreams).
pub fn run_frtr(
    node: &NodeConfig,
    calls: &[TaskCall],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_frtr_impl(node, calls, ctx, true, &FaultPlan::disarmed())
}

/// [`run_frtr`] with a fault plan armed: every call's full
/// reconfiguration runs the plan's attempt chain (retries with
/// exponential backoff, then a drop once `max_full_attempts` is
/// exhausted). A disarmed plan is the clean path: every call is clean
/// and the run is exactly [`run_frtr`]'s. The steady-state fast path
/// stays enabled and jumps across fault-free stretches only — a faulty
/// call can never sit inside a proven period, so the result is
/// bit-identical to [`run_frtr_faulty_reference`].
///
/// # Errors
///
/// As [`run_frtr`]; injected faults are recovered internally and never
/// escape.
pub fn run_frtr_faulty(
    node: &NodeConfig,
    calls: &[TaskCall],
    plan: &FaultPlan,
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_frtr_impl(node, calls, ctx, true, plan)
}

/// The per-call oracle for [`run_frtr_faulty`]: same recurrence and
/// fault chains, no jumps.
///
/// # Errors
///
/// As [`run_frtr`].
pub fn run_frtr_faulty_reference(
    node: &NodeConfig,
    calls: &[TaskCall],
    plan: &FaultPlan,
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_frtr_impl(node, calls, ctx, false, plan)
}

/// The per-call FRTR reference path: identical recurrence, no jumps.
/// This is the oracle the fast path's equivalence tests compare against.
///
/// # Errors
///
/// As [`run_frtr`].
pub fn run_frtr_reference(
    node: &NodeConfig,
    calls: &[TaskCall],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_frtr_impl(node, calls, ctx, false, &FaultPlan::disarmed())
}

fn run_frtr_impl(
    node: &NodeConfig,
    calls: &[TaskCall],
    ctx: &ExecCtx,
    enable_jump: bool,
    plan: &FaultPlan,
) -> Result<ExecutionReport, SimError> {
    let registry = &ctx.registry;
    let j = &ctx.journal;
    let tid_host = Lane::Host.chrome_tid();
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let jrun = j.enter("sim.run_frtr", 0, tid_host);

    let t_control = SimDuration::from_secs_f64(node.control_overhead_s);
    let full_bytes = node.full_config.full_bitstream_bytes;

    // An armed plan pre-derives every call's fate (a pure function of
    // the plan); under a disarmed one every call is clean.
    let fates: Vec<CallFate> = if plan.armed() {
        (0..calls.len()).map(|i| plan.full_fate(i as u64)).collect()
    } else {
        Vec::new()
    };
    let fate_of = |i: usize| fates.get(i).copied().unwrap_or_else(CallFate::clean_full);
    let mut fast: FastPath<FrtrKey> = FastPath::new(
        enable_jump,
        calls.len(),
        |i| FrtrKey {
            name: calls[i].name,
            bytes_in: calls[i].bytes_in,
            bytes_out: calls[i].bytes_out,
        },
        |i| fate_of(i).is_clean(),
    );

    let mut now = SimTime::ZERO;
    let mut timeline = Timeline::default();
    let mut labels = LabelCache::default();
    let mut timings: Vec<CallTiming> = Vec::with_capacity(calls.len());
    // The vendor call's duration is a function of the node alone; keep
    // the last proven one for the API's own accounting at a jump.
    let mut last_api_d = SimDuration::ZERO;

    let mut i = 0usize;
    while i < calls.len() {
        if let Some(jump) = fast.jump(i, (), now, &mut timeline, &mut timings, j) {
            node.full_config
                .record_repeated(last_api_d, jump.calls as u64, ctx);
            now = SimTime(now.0 + jump.shift_ns);
            i += jump.calls;
            continue;
        }

        let call = &calls[i];
        let fate = fate_of(i);
        let cs = now;
        // A clean call is one vendor-API configure (a full bitstream
        // resets the device, so DONE is irrelevant here); it runs before
        // the call span opens.
        let clean_d = if fate.is_clean() {
            Some(node.full_config.configure(full_bytes, false, false, ctx)?)
        } else {
            None
        };
        let jcall = j.open(call.name.as_str(), jrun, cs.0, tid_host);
        // The configuration window: the clean configure, or the plan's
        // attempt chain. `jcfg` is the node execution links back to.
        let (ce, jcfg) = match clean_d {
            Some(d) => {
                last_api_d = d;
                let jcfg = j.event("configure", jcall, cs.0, tid_cfg);
                timeline.push(
                    Lane::ConfigPort,
                    EventKind::FullConfig,
                    labels.get(L_FULL, call.name, 0),
                    cs,
                    cs + d,
                );
                (cs + d, jcfg)
            }
            None => {
                let mut jchain: PendingLink = None;
                let ce = push_full_attempts(
                    node,
                    &mut timeline,
                    &mut labels,
                    plan,
                    &fate,
                    i as u64,
                    call.name,
                    cs,
                    ctx,
                    jcall,
                    &mut jchain,
                )?;
                (ce, jchain.map(|(id, _)| id))
            }
        };
        let (exec_start, exec_end) = if fate.dropped {
            // The call never ran: zero-length execution window at the
            // chain's end, no control transfer, no data.
            (ce, ce)
        } else {
            let (exec_start, exec_end) =
                push_exec_events(&mut timeline, &mut labels, node, call, 0, ce, t_control);
            let jexec = j.event("execute", jcall, exec_start.0, Lane::Prr(0).chrome_tid());
            j.flow(jcfg, jexec, "activate");
            (exec_start, exec_end)
        };
        j.close(jcall, exec_end.0);
        timings.push(CallTiming {
            name: call.name,
            hit: false,
            config_start: Some(cs),
            config_end: Some(ce),
            exec_start,
            exec_end,
        });
        now = exec_end;
        i += 1;
    }
    j.exit(jrun, now.0);

    let n_dropped = fates.iter().filter(|f| f.dropped).count() as u64;
    let n_config = calls.len() as u64 - n_dropped;
    if registry.is_enabled() {
        registry.counter("sim.frtr.calls").add(calls.len() as u64);
        registry.counter("sim.frtr.full_configs").add(n_config);
        let latencies: Vec<f64> = timings
            .iter()
            .map(|t| (t.exec_end - t.config_start.expect("FRTR always configures")).as_secs_f64())
            .collect();
        registry
            .histogram("sim.frtr.call_latency_s")
            .record_cycle(&latencies, 1);
        if plan.armed() {
            let t_clean_s = node.full_config.full_configuration_time_s();
            record_fault_metrics(registry, "sim.frtr", &fates, &timings, t_clean_s);
        }
    }
    timeline.record_metrics(registry, "sim.frtr");
    Ok(ExecutionReport {
        total: now - SimTime::ZERO,
        calls: timings,
        timeline,
        n_config,
        n_dropped,
    })
}

/// Executes `calls` under **PRTR** with the per-call hit/miss outcomes and
/// slot assignments supplied by a configuration-caching simulation.
///
/// Uses the steady-state fast path (see the module docs); the result is
/// bit-identical to [`run_prtr_reference`].
///
/// Metrics go to `ctx.registry` ([`ExecCtx::default`] records nothing):
/// hit/miss/config counters, a per-call latency histogram, ICAP transfer
/// accounting, and the timeline's per-lane busy gauges under the
/// `sim.prtr` prefix.
///
/// # Errors
///
/// [`SimError::InvalidRun`] when a slot index exceeds the node's PRR count
/// or the call list is empty.
pub fn run_prtr(
    node: &NodeConfig,
    calls: &[PrtrCall],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_prtr_impl(node, calls, ctx, true, &FaultPlan::disarmed())
}

/// [`run_prtr`] with a fault plan armed: every miss runs the plan's
/// partial-attempt chain — bounded retries with exponential backoff
/// (plus a bitstream re-fetch after a CRC mismatch), escalation to full
/// reconfiguration after `max_partial_attempts` failures, blacklisting
/// of repeatedly escalating PRRs (via a [`FaultState`] that replays in
/// lockstep with the scheduler's), and a drop once every attempt is
/// exhausted. A disarmed plan is the clean path: every call is clean
/// and the run is exactly [`run_prtr`]'s. The steady-state fast path
/// stays enabled and jumps across fault-free stretches only, so the
/// result is bit-identical to [`run_prtr_faulty_reference`].
///
/// # Errors
///
/// As [`run_prtr`]; injected faults are recovered internally and never
/// escape.
pub fn run_prtr_faulty(
    node: &NodeConfig,
    calls: &[PrtrCall],
    plan: &FaultPlan,
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_prtr_impl(node, calls, ctx, true, plan)
}

/// The per-call oracle for [`run_prtr_faulty`]: same recurrence and
/// fault chains, no jumps.
///
/// # Errors
///
/// As [`run_prtr`].
pub fn run_prtr_faulty_reference(
    node: &NodeConfig,
    calls: &[PrtrCall],
    plan: &FaultPlan,
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_prtr_impl(node, calls, ctx, false, plan)
}

/// The per-call PRTR reference path: identical recurrence, no jumps.
/// This is the oracle the fast path's equivalence tests compare against.
///
/// # Errors
///
/// As [`run_prtr`].
pub fn run_prtr_reference(
    node: &NodeConfig,
    calls: &[PrtrCall],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_prtr_impl(node, calls, ctx, false, &FaultPlan::disarmed())
}

fn run_prtr_impl(
    node: &NodeConfig,
    calls: &[PrtrCall],
    ctx: &ExecCtx,
    enable_jump: bool,
    plan: &FaultPlan,
) -> Result<ExecutionReport, SimError> {
    let registry = &ctx.registry;
    if calls.is_empty() {
        return Err(SimError::InvalidRun("empty call sequence".into()));
    }
    if let Some(bad) = calls.iter().find(|c| c.slot >= node.n_prrs) {
        return Err(SimError::InvalidRun(format!(
            "slot {} out of range for {} PRRs",
            bad.slot, node.n_prrs
        )));
    }

    let j = &ctx.journal;
    let tid_host = Lane::Host.chrome_tid();
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let jrun = j.enter("sim.run_prtr", 0, tid_host);

    let t_decision = SimDuration::from_secs_f64(node.decision_latency_s);
    let t_control = SimDuration::from_secs_f64(node.control_overhead_s);
    let t_prtr = node.icap.transfer_duration(node.prr_bitstream_bytes);

    // An armed plan replays the recovery state over the miss stream to
    // pre-derive every call's fate. The scheduler that produced `calls`
    // ran the identical [`FaultState`] over the identical `(call index,
    // slot)` stream, so escalations and blacklisting stay in lockstep
    // without any fate passing. Under a disarmed plan every call is
    // clean.
    let fates: Vec<CallFate> = if plan.armed() {
        let mut state = FaultState::new(*plan, node.n_prrs);
        calls
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if c.hit {
                    CallFate::clean_partial()
                } else {
                    state.on_miss(i as u64, c.slot)
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let fate_of = |i: usize| {
        fates
            .get(i)
            .copied()
            .unwrap_or_else(CallFate::clean_partial)
    };
    let mut fast: FastPath<PrtrKey, RelState> = FastPath::new(
        enable_jump,
        calls.len(),
        |i| PrtrKey {
            name: calls[i].task.name,
            bytes_in: calls[i].task.bytes_in,
            bytes_out: calls[i].task.bytes_out,
            hit: calls[i].hit,
            slot: calls[i].slot,
        },
        |i| fate_of(i).is_clean(),
    );

    let mut timeline = Timeline::default();
    let mut labels = LabelCache::default();
    let mut timings: Vec<CallTiming> = Vec::with_capacity(calls.len());
    let mut icap_free = SimTime::ZERO;
    // Execution window of the previous call.
    let mut prev: Option<(SimTime, SimTime, u64)> = None; // (exec_start, exec_end, bytes_in)

    let mut i = 0usize;
    while i < calls.len() {
        // The recurrence's carry-over state is relative to prev_start
        // (cold calls carry no state and never participate).
        if let Some((prev_start, prev_end, prev_bytes_in)) = prev {
            let rel = RelState {
                exec_ns: (prev_end - prev_start).0,
                icap_ns: (icap_free.max(prev_start) - prev_start).0,
                prev_bytes_in,
            };
            if let Some(jump) = fast.jump(i, rel, prev_start, &mut timeline, &mut timings, j) {
                let shift = |t: SimTime| SimTime(t.0 + jump.shift_ns);
                prev = Some((shift(prev_start), shift(prev_end), prev_bytes_in));
                icap_free = shift(icap_free.max(prev_start));
                i += jump.calls;
                continue;
            }
        }

        let call = &calls[i];
        let fate = fate_of(i);
        let prev_end = prev.map_or(SimTime::ZERO, |(_, end, _)| end);

        // The decision runs first on a cold start, overlaps the previous
        // execution on a hit, and follows it on a miss. The journal's
        // call span opens there (it is the call's first action).
        let decision_start = match (call.hit, prev) {
            (_, None) => SimTime::ZERO,
            (true, Some((prev_start, _, _))) => prev_start,
            (false, Some(_)) => prev_end,
        };
        let decision_end = decision_start + t_decision;
        let jcall = j.open(call.task.name.as_str(), jrun, decision_start.0, tid_host);
        let jdec = j.event("decide", jcall, decision_start.0, tid_host);
        timeline.push(
            Lane::Host,
            EventKind::Decision,
            labels.get(L_DEC, call.task.name, 0),
            decision_start,
            decision_end,
        );
        let mut ready = prev_end.max(decision_end);

        // A miss's configuration window: `(start, end, jcfg)`, where
        // `jcfg` is the node execution links back to.
        let config = if call.hit {
            None
        } else {
            // On a cold start the configuration follows the decision;
            // otherwise it streams while the previous task runs
            // (equation (3)'s max(T_task + T_decision, T_PRTR) term).
            let earliest = match prev {
                None => decision_end,
                Some((prev_start, _, prev_bytes_in)) => {
                    if node.config_waits_for_data_input {
                        prev_start + node.data_in_duration(prev_bytes_in)
                    } else {
                        prev_start
                    }
                }
            };
            let cs = earliest.max(icap_free);
            // One ICAP transfer for a clean miss, the plan's recovery
            // chain for a faulty one.
            let (ce, jcfg) = if fate.is_clean() {
                let ce = cs + t_prtr;
                let jcfg = j.event("configure", jcall, cs.0, tid_cfg);
                j.flow(jdec, jcfg, "hide");
                timeline.push(
                    Lane::ConfigPort,
                    EventKind::PartialConfig,
                    labels.get(L_CFG, call.task.name, call.slot),
                    cs,
                    ce,
                );
                (ce, jcfg)
            } else {
                let mut jchain: PendingLink = jdec.map(|d| (d, "hide"));
                let ce = push_partial_fault_chain(
                    node,
                    &mut timeline,
                    &mut labels,
                    plan,
                    &fate,
                    i as u64,
                    call.task.name,
                    call.slot,
                    cs,
                    ctx,
                    jcall,
                    &mut jchain,
                )?;
                (ce, jchain.map(|(id, _)| id))
            };
            icap_free = ce;
            ready = ready.max(ce);
            Some((cs, ce, jcfg))
        };

        let (exec_start, exec_end) = if fate.dropped {
            // The call never ran: zero-length execution window at its
            // ready point, no control transfer, no data.
            (ready, ready)
        } else {
            let (exec_start, exec_end) = push_exec_events(
                &mut timeline,
                &mut labels,
                node,
                &call.task,
                call.slot,
                ready,
                t_control,
            );
            let jexec = j.event(
                "execute",
                jcall,
                exec_start.0,
                Lane::Prr(call.slot).chrome_tid(),
            );
            match config {
                Some((_, _, jcfg)) => j.flow(jcfg, jexec, "activate"),
                None => j.flow(jdec, jexec, "hit"),
            }
            (exec_start, exec_end)
        };
        j.close(jcall, exec_end.0);
        timings.push(CallTiming {
            name: call.task.name,
            hit: call.hit,
            config_start: config.map(|(cs, _, _)| cs),
            config_end: config.map(|(_, ce, _)| ce),
            exec_start,
            exec_end,
        });

        // A dropped call moved no input data.
        let bytes_in = if fate.dropped { 0 } else { call.task.bytes_in };
        prev = Some((exec_start, exec_end, bytes_in));
        i += 1;
    }
    let end = timings.last().expect("non-empty").exec_end;
    j.exit(jrun, end.0);

    // Every miss configures unless dropped. It is one clean ICAP
    // transfer unless faulty (a fault chain counted its own attempts),
    // and a partial configuration unless its chain ended full. Hits are
    // always clean, and only an armed plan has fates to read.
    let misses = calls.iter().filter(|c| !c.hit).count() as u64;
    let (mut n_clean, mut n_partial, mut n_dropped) = (misses, misses, 0);
    for f in fates.iter().filter(|f| !f.is_clean()) {
        n_clean -= 1;
        n_partial -= (f.dropped || f.escalated || f.forced_full) as u64;
        n_dropped += f.dropped as u64;
    }
    let n_config = misses - n_dropped;
    if registry.is_enabled() {
        registry.counter("sim.prtr.calls").add(calls.len() as u64);
        registry
            .counter("sim.prtr.hits")
            .add(calls.len() as u64 - misses);
        registry.counter("sim.prtr.misses").add(misses);
        registry.counter("sim.prtr.partial_configs").add(n_partial);
        registry.counter("sim.icap.transfers").add(n_clean);
        registry
            .counter("sim.icap.bytes")
            .add(n_clean * node.prr_bitstream_bytes);
        registry
            .histogram("sim.prtr.call_latency_s")
            .record_cycle(&marginal_latencies_s(&timings), 1);
        if plan.armed() {
            record_fault_metrics(registry, "sim.prtr", &fates, &timings, t_prtr.as_secs_f64());
        }
    }
    timeline.record_metrics(registry, "sim.prtr");
    Ok(ExecutionReport {
        total: end - SimTime::ZERO,
        calls: timings,
        timeline,
        n_config,
        n_dropped,
    })
}

/// Records the control transfer from `ready`, then the execution window
/// plus its streaming data transfers; returns the execution window.
fn push_exec_events(
    timeline: &mut Timeline,
    labels: &mut LabelCache,
    node: &NodeConfig,
    call: &TaskCall,
    slot: usize,
    ready: SimTime,
    t_control: SimDuration,
) -> (SimTime, SimTime) {
    let exec_start = ready + t_control;
    timeline.push(
        Lane::Host,
        EventKind::Control,
        labels.get(L_CTL, call.name, 0),
        ready,
        exec_start,
    );
    let exec_end = exec_start + SimDuration::from_secs_f64(call.task_time_s(node));
    timeline.push(
        Lane::Prr(slot),
        EventKind::Exec,
        call.name,
        exec_start,
        exec_end,
    );
    let t_in = node.data_in_duration(call.bytes_in);
    timeline.push(
        Lane::LinkIn,
        EventKind::DataIn,
        labels.get(L_IN, call.name, 0),
        exec_start,
        exec_start + t_in,
    );
    let t_out = node.data_in_duration(call.bytes_out);
    // Output streams at the tail of the execution window.
    let out_start = SimTime(exec_end.0.saturating_sub(t_out.0));
    timeline.push(
        Lane::LinkOut,
        EventKind::DataOut,
        labels.get(L_OUT, call.name, 0),
        out_start.max(exec_start),
        exec_end,
    );
    (exec_start, exec_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_fpga::floorplan::Floorplan;

    fn node() -> NodeConfig {
        NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
    }

    fn dctx() -> ExecCtx {
        ExecCtx::default()
    }

    fn uniform_prtr_calls(
        node: &NodeConfig,
        t_task: f64,
        n: usize,
        all_miss: bool,
    ) -> Vec<PrtrCall> {
        (0..n)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time(format!("task{}", i % 3), node, t_task),
                hit: !all_miss && i > 0,
                slot: i % node.n_prrs,
            })
            .collect()
    }

    #[test]
    fn frtr_total_matches_equation_1_exactly() {
        let node = node();
        let t_task = 0.050;
        let n = 20;
        let calls: Vec<TaskCall> = (0..n)
            .map(|i| TaskCall::with_task_time(format!("t{i}"), &node, t_task))
            .collect();
        let report = run_frtr(&node, &calls, &dctx()).unwrap();
        let t_task_actual = calls[0].task_time_s(&node);
        let expected = n as f64 * (node.t_frtr_s() + node.control_overhead_s + t_task_actual);
        assert!(
            (report.total_s() - expected).abs() / expected < 1e-9,
            "sim {} vs eq(1) {}",
            report.total_s(),
            expected
        );
        assert_eq!(report.n_config, n as u64);
    }

    #[test]
    fn prtr_all_miss_long_tasks_hide_configuration() {
        // T_task >> T_PRTR: steady-state increment is T_task + T_control.
        let node = node();
        let t_task = 0.5; // 500 ms >> 19.77 ms
        let calls = uniform_prtr_calls(&node, t_task, 10, true);
        let report = run_prtr(&node, &calls, &dctx()).unwrap();
        let t_task_actual = calls[0].task.task_time_s(&node);
        // First call pays its full config; the remaining 9 only task+control.
        let expected = node.t_prtr_s() + 10.0 * (node.control_overhead_s + t_task_actual);
        assert!(
            (report.total_s() - expected).abs() / expected < 1e-6,
            "sim {} vs {}",
            report.total_s(),
            expected
        );
        assert_eq!(report.n_config, 10);
    }

    #[test]
    fn prtr_all_miss_short_tasks_are_config_bound() {
        // T_task << T_PRTR: steady-state increment is T_PRTR + T_control.
        let node = node();
        let t_task = 0.001; // 1 ms << 19.77 ms
        let n = 50;
        let calls = uniform_prtr_calls(&node, t_task, n, true);
        let report = run_prtr(&node, &calls, &dctx()).unwrap();
        let t_task_actual = calls[0].task.task_time_s(&node);
        // Steady state: each call adds max(T_task, T_PRTR) = T_PRTR
        // (config for call i+1 starts at exec_start_i and T_PRTR > T_task
        // + control, so ICAP is the bottleneck); plus the tail task.
        let expected = node.t_prtr_s()
            + (n - 1) as f64 * node.t_prtr_s().max(t_task_actual + node.control_overhead_s)
            + n as f64 * node.control_overhead_s
            + t_task_actual;
        let rel = (report.total_s() - expected).abs() / expected;
        assert!(
            rel < 0.02,
            "sim {} vs {} (rel {rel})",
            report.total_s(),
            expected
        );
    }

    #[test]
    fn prtr_hits_skip_configuration() {
        let node = node();
        let calls = uniform_prtr_calls(&node, 0.05, 10, false);
        let report = run_prtr(&node, &calls, &dctx()).unwrap();
        // Only the first (cold) call configures.
        assert_eq!(report.n_config, 1);
        let t_task_actual = calls[0].task.task_time_s(&node);
        let expected = node.t_prtr_s() + 10.0 * (node.control_overhead_s + t_task_actual);
        assert!((report.total_s() - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn prtr_beats_frtr_for_short_tasks() {
        let node = node();
        let t_task = node.t_prtr_s(); // the peak-speedup operating point
        let n = 100;
        let prtr_calls = uniform_prtr_calls(&node, t_task, n, true);
        let frtr_calls: Vec<TaskCall> = prtr_calls.iter().map(|c| c.task).collect();
        let frtr = run_frtr(&node, &frtr_calls, &dctx()).unwrap();
        let prtr = run_prtr(&node, &prtr_calls, &dctx()).unwrap();
        let speedup = frtr.total_s() / prtr.total_s();
        // The paper's "up to 87x" on the measured dual-PRR layout.
        assert!(speedup > 75.0 && speedup < 90.0, "speedup = {speedup}");
    }

    #[test]
    fn shared_channel_ablation_slows_configuration() {
        let mut node = node();
        let calls = uniform_prtr_calls(&node, node.t_prtr_s(), 50, true);
        let fast = run_prtr(&node, &calls, &dctx()).unwrap();
        node.config_waits_for_data_input = true;
        let slow = run_prtr(&node, &calls, &dctx()).unwrap();
        assert!(slow.total_s() > fast.total_s());
    }

    #[test]
    fn decision_latency_is_paid_once_plus_per_miss() {
        let mut node = node();
        node.decision_latency_s = 0.005;
        let t_task = 0.1;
        let n = 20;
        let calls = uniform_prtr_calls(&node, t_task, n, true);
        let report = run_prtr(&node, &calls, &dctx()).unwrap();
        let t_task_actual = calls[0].task.task_time_s(&node);
        // Steady state (T_task + T_d > T_PRTR here): increment
        // max(T_task + T_d, T_PRTR) + T_control.
        let inc = (t_task_actual + 0.005).max(node.t_prtr_s()) + node.control_overhead_s;
        let first = 0.005 + node.t_prtr_s() + node.control_overhead_s + t_task_actual;
        let expected = first + (n - 1) as f64 * inc;
        let rel = (report.total_s() - expected).abs() / expected;
        assert!(rel < 1e-6, "sim {} vs {}", report.total_s(), expected);
    }

    #[test]
    fn empty_prtr_run_rejected() {
        assert!(run_prtr(&node(), &[], &dctx()).is_err());
        assert!(run_prtr_reference(&node(), &[], &dctx()).is_err());
    }

    #[test]
    fn bad_slot_rejected() {
        let node = node();
        let calls = vec![PrtrCall {
            task: TaskCall::symmetric("x", 1024),
            hit: false,
            slot: 99,
        }];
        assert!(run_prtr(&node, &calls, &dctx()).is_err());
    }

    #[test]
    fn instrumented_runs_are_timing_neutral_and_accounted() {
        let node = node();
        let calls = uniform_prtr_calls(&node, 0.05, 20, false);
        let plain = run_prtr(&node, &calls, &dctx()).unwrap();
        let ctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let traced = run_prtr(&node, &calls, &ctx).unwrap();
        assert_eq!(plain, traced, "instrumentation must not perturb timing");

        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["sim.prtr.calls"], 20);
        assert_eq!(snap.counters["sim.prtr.hits"], 19);
        assert_eq!(snap.counters["sim.prtr.misses"], 1);
        assert_eq!(snap.counters["sim.prtr.partial_configs"], traced.n_config);
        assert_eq!(
            snap.counters["sim.icap.bytes"],
            traced.n_config * node.prr_bitstream_bytes
        );
        assert_eq!(snap.histograms["sim.prtr.call_latency_s"].count, 20);
        // Lane-busy gauges mirror the timeline.
        let busy = traced.timeline.lane_busy_s(Lane::ConfigPort);
        assert!((snap.gauges["sim.prtr.lane_busy_s.config"] - busy).abs() < 1e-12);
        let util = busy / traced.total_s();
        assert!((snap.gauges["sim.prtr.config_port.utilization"] - util).abs() < 1e-9);
    }

    #[test]
    fn frtr_instrumentation_counts_api_calls() {
        let node = node();
        let calls: Vec<TaskCall> = (0..4)
            .map(|i| TaskCall::with_task_time(format!("t{i}"), &node, 0.01))
            .collect();
        let ctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let report = run_frtr(&node, &calls, &ctx).unwrap();
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["sim.frtr.calls"], 4);
        assert_eq!(snap.counters["sim.frtr.full_configs"], 4);
        assert_eq!(snap.counters["sim.cray_api.calls"], 4);
        assert!(!snap.counters.contains_key("sim.cray_api.rejections"));
        assert!(snap.gauges["sim.frtr.makespan_s"] > 0.0);
        assert_eq!(report.n_config, 4);
    }

    #[test]
    fn timeline_records_all_activity_kinds() {
        let node = node();
        let calls = uniform_prtr_calls(&node, 0.05, 5, true);
        let report = run_prtr(&node, &calls, &dctx()).unwrap();
        let text = report.timeline.render_text(80);
        assert!(text.contains('P'), "partial configs:\n{text}");
        assert!(text.contains('X'), "executions:\n{text}");
        assert!(report.timeline.lane_busy_s(Lane::ConfigPort) > 0.0);
    }

    /// Checks a fast-path report against its per-call oracle: totals,
    /// per-call timings, config counts, expanded timelines, and
    /// registry snapshots must all agree exactly.
    fn assert_reports_equivalent(
        fast: &ExecutionReport,
        reference: &ExecutionReport,
        fast_snap: &hprc_obs::Snapshot,
        ref_snap: &hprc_obs::Snapshot,
    ) {
        assert_eq!(fast.total, reference.total);
        assert_eq!(fast.n_config, reference.n_config);
        assert_eq!(fast.calls, reference.calls);
        let a: Vec<_> = fast.timeline.iter().collect();
        let b: Vec<_> = reference.timeline.iter().collect();
        assert_eq!(a, b, "expanded timelines must match event-for-event");
        assert_eq!(fast.timeline.len(), reference.timeline.len());
        assert_eq!(fast_snap.counters, ref_snap.counters);
        assert_eq!(fast_snap.histograms, ref_snap.histograms);
        use serde::Serialize;
        assert_eq!(
            fast_snap.to_json_value()["gauges"].to_string(),
            ref_snap.to_json_value()["gauges"].to_string()
        );
    }

    #[test]
    fn prtr_fast_path_matches_reference_and_compresses() {
        let node = node();
        for all_miss in [false, true] {
            let calls = uniform_prtr_calls(&node, 0.01, 240, all_miss);
            let fctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
            let rctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
            let fast = run_prtr(&node, &calls, &fctx).unwrap();
            let reference = run_prtr_reference(&node, &calls, &rctx).unwrap();
            assert_reports_equivalent(
                &fast,
                &reference,
                &fctx.registry.snapshot(),
                &rctx.registry.snapshot(),
            );
            // The periodic steady state must actually compress: far
            // fewer stored items than expanded events.
            assert!(
                fast.timeline.n_items() < 100,
                "all_miss={all_miss}: {} items for {} events",
                fast.timeline.n_items(),
                fast.timeline.len()
            );
            assert_eq!(fast.timeline.len(), reference.timeline.len());
            assert!(reference.timeline.n_items() as u64 == reference.timeline.len());
        }
    }

    #[test]
    fn frtr_fast_path_matches_reference_and_compresses() {
        let node = node();
        let calls: Vec<TaskCall> = (0..120)
            .map(|i| TaskCall::with_task_time(format!("t{}", i % 3), &node, 0.02))
            .collect();
        let fctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let rctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let fast = run_frtr(&node, &calls, &fctx).unwrap();
        let reference = run_frtr_reference(&node, &calls, &rctx).unwrap();
        assert_reports_equivalent(
            &fast,
            &reference,
            &fctx.registry.snapshot(),
            &rctx.registry.snapshot(),
        );
        assert!(
            fast.timeline.n_items() < 60,
            "{} items for {} events",
            fast.timeline.n_items(),
            fast.timeline.len()
        );
    }

    fn armed_plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(
            hprc_fault::FaultSpec::uniform(rate),
            hprc_fault::RecoveryPolicy::default(),
            seed,
        )
    }

    #[test]
    fn disarmed_faulty_runs_are_identical_to_clean_runs() {
        let node = node();
        let plan = FaultPlan::disarmed();
        let calls = uniform_prtr_calls(&node, 0.01, 50, true);
        let cctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let fctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let clean = run_prtr(&node, &calls, &cctx).unwrap();
        let faulty = run_prtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        assert_eq!(clean, faulty);
        assert_reports_equivalent(
            &faulty,
            &clean,
            &fctx.registry.snapshot(),
            &cctx.registry.snapshot(),
        );

        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let clean = run_frtr(&node, &frtr_calls, &dctx()).unwrap();
        let faulty = run_frtr_faulty(&node, &frtr_calls, &plan, &dctx()).unwrap();
        assert_eq!(clean, faulty);
    }

    #[test]
    fn faulty_prtr_fast_path_matches_reference() {
        let node = node();
        let plan = armed_plan(0.08, 42);
        let calls = uniform_prtr_calls(&node, 0.01, 240, true);
        let fctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let rctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let fast = run_prtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        let reference = run_prtr_faulty_reference(&node, &calls, &plan, &rctx).unwrap();
        assert_reports_equivalent(
            &fast,
            &reference,
            &fctx.registry.snapshot(),
            &rctx.registry.snapshot(),
        );
        // Faults happened and recovery is visible in the timeline.
        let snap = fctx.registry.snapshot();
        assert!(snap.counters["sim.prtr.fault.injected"] > 0);
        assert!(fast.timeline.iter().any(|e| e.kind == EventKind::Recovery));
        // The clean stretches between faults must still jump.
        assert!(
            fast.timeline.n_items() < reference.timeline.n_items(),
            "{} vs {} items",
            fast.timeline.n_items(),
            reference.timeline.n_items()
        );
    }

    #[test]
    fn faulty_frtr_fast_path_matches_reference() {
        let node = node();
        let plan = armed_plan(0.1, 7);
        let calls: Vec<TaskCall> = (0..160)
            .map(|i| TaskCall::with_task_time(format!("t{}", i % 2), &node, 0.02))
            .collect();
        let fctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let rctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let fast = run_frtr_faulty(&node, &calls, &plan, &fctx).unwrap();
        let reference = run_frtr_faulty_reference(&node, &calls, &plan, &rctx).unwrap();
        assert_reports_equivalent(
            &fast,
            &reference,
            &fctx.registry.snapshot(),
            &rctx.registry.snapshot(),
        );
        assert!(fast.timeline.n_items() < reference.timeline.n_items());
    }

    #[test]
    fn faulty_runs_slow_down_and_drop_monotonically() {
        let node = node();
        let calls = uniform_prtr_calls(&node, 0.01, 120, true);
        let mut prev_total = 0.0;
        for rate in [0.0, 0.05, 0.2, 0.6] {
            let plan = armed_plan(rate, 1234);
            let report = run_prtr_faulty(&node, &calls, &plan, &dctx()).unwrap();
            assert!(
                report.total_s() >= prev_total,
                "total must grow with fault rate (rate {rate})"
            );
            prev_total = report.total_s();
            assert_eq!(report.calls.len(), 120);
            assert!(report.n_config + report.n_dropped <= 120);
        }
    }

    #[test]
    fn certain_faults_drop_every_miss_without_panicking() {
        let node = node();
        let spec = hprc_fault::FaultSpec {
            p_icap_timeout: 1.0,
            p_api_transfer: 1.0,
            ..hprc_fault::FaultSpec::default()
        };
        let plan = FaultPlan::new(spec, hprc_fault::RecoveryPolicy::default(), 9);
        let calls = uniform_prtr_calls(&node, 0.01, 30, true);
        let ctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let report = run_prtr_faulty(&node, &calls, &plan, &ctx).unwrap();
        assert_eq!(report.n_dropped, 30);
        assert_eq!(report.n_config, 0);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["sim.prtr.fault.drops"], 30);
        // Two escalations blacklist each PRR; later misses go forced-full.
        assert!(snap.counters["sim.prtr.fault.forced_full"] > 0);
        assert!(snap.counters["sim.prtr.fault.escalations"] >= 4);
    }

    #[test]
    fn fast_path_rearms_across_aperiodic_breaks() {
        // Two periodic runs separated by a one-off call with a unique
        // name: the detector must jump in both runs.
        let node = node();
        let mut calls = uniform_prtr_calls(&node, 0.01, 60, true);
        calls[30] = PrtrCall {
            task: TaskCall::with_task_time("oddball", &node, 0.033),
            hit: false,
            slot: 0,
        };
        let fast = run_prtr(&node, &calls, &dctx()).unwrap();
        let reference = run_prtr_reference(&node, &calls, &dctx()).unwrap();
        assert_eq!(fast.total, reference.total);
        assert_eq!(fast.calls, reference.calls);
        let a: Vec<_> = fast.timeline.iter().collect();
        let b: Vec<_> = reference.timeline.iter().collect();
        assert_eq!(a, b);
        assert!(fast.timeline.n_items() < reference.timeline.n_items());
    }
}
