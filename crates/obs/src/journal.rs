//! Causal run journal: a deterministic, append-only event log.
//!
//! The journal is the trace-native layer beneath the Chrome export: a
//! flat sequence of [`JournalRecord`]s — span opens/closes, point
//! events, cross-component flow links, and metric deltas — whose ids
//! derive from a seed *salt* and a logical sequence counter. No wall
//! clock is ever consulted, so two runs with the same inputs produce
//! byte-identical journals at any `--jobs` level, and a journal can be
//! *replayed*: re-running the experiment from the recorded ctx must
//! regenerate the identical byte stream.
//!
//! # Id derivation
//!
//! Every span/event id is `mix(salt, seq)` where `mix` is the
//! splitmix64 finalizer, `salt` comes from the deterministic ctx seed,
//! and `seq` is a logical counter that advances once per id handed out.
//! Child journals ([`Journal::child`]) re-salt by index so the children
//! of a parallel fan-out mint non-colliding ids; the parent merges
//! their records back in index order, which is what makes the log
//! `--jobs`-invariant.
//!
//! # Fast-path replay
//!
//! The steady-state executors jump over repeated cycles instead of
//! simulating them. [`Journal::replay_cycle`] is their journal-side
//! dual, and the twin of the timeline's `Item::Repeat`: it stores one
//! *repeat* entry that stands for `m` more copies of the records of one
//! verified cycle. Expanding a repeat mints fresh ids *in the same order
//! the reference path would* and remaps intra-cycle references, so the
//! fast path's journal expands to the reference executor's records and
//! bytes. Every reference in the cycle is resolved once — to the ordinal
//! of the in-cycle record that minted it, or to an outside id — so each
//! copy costs one id mint per record: no per-record allocation, no
//! hashing.
//!
//! One routine expands repeats for all readers: [`Journal::records`]
//! returns the longhand records, [`Journal::to_jsonl`] writes each
//! repeat as one `repeat` line ([`JOURNAL_SCHEMA`]), and
//! [`expand_jsonl`] turns that text back into the longhand
//! `hprc-journal/v1` bytes, in which every copy is written out.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::chrome::ChromeEvent;

/// Journal schema identifier written into every JSONL header line.
///
/// `hprc-journal/v2` is `hprc-journal/v1` plus one record type: a
/// `repeat` line stands for the copies of one fast-path jump (see
/// [`Journal::to_jsonl`]). The footer's `events` counts every copy.
pub const JOURNAL_SCHEMA: &str = "hprc-journal/v2";

/// Schema of the longhand text [`expand_jsonl`] writes: no `repeat`
/// lines, every copy written out.
const LONGHAND_SCHEMA: &str = "hprc-journal/v1";

/// Stable identifier of a journal span or event.
///
/// Derived deterministically from the journal salt and a logical
/// sequence counter — never from wall clock or memory addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// splitmix64 finalizer over `(salt, seq)` — the id derivation.
fn mix(salt: u64, seq: u64) -> u64 {
    let mut z = salt ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CHILD_TAG: u64 = 0xC41D_5EED_0000_0001;

/// One entry in the journal's append-only log.
///
/// `N` is the type of names and kinds. A live journal uses
/// `&'static str` (literals, or interned text that lives as long as the
/// process), so a record is plain `Copy` data and storing or replaying
/// one never allocates; [`expand_jsonl`] borrows the still-escaped text
/// of the file it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord<N = &'static str> {
    /// A span opened: it has duration and may parent other records.
    Open {
        /// The span's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span class name (e.g. `sim.run_prtr`, a task name, `recovery`).
        name: N,
        /// Simulated open time, nanoseconds.
        t_ns: u64,
        /// Chrome lane (tid) the span renders on.
        tid: u64,
    },
    /// A previously opened span closed.
    Close {
        /// Id of the span being closed.
        id: SpanId,
        /// Simulated close time, nanoseconds.
        t_ns: u64,
    },
    /// A point event: zero duration, but addressable by flow links.
    Event {
        /// The event's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Event class name (e.g. `decide`, `configure`, `execute`).
        name: N,
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// Chrome lane (tid) the event renders on.
        tid: u64,
    },
    /// A causal edge between two records (exported as Chrome
    /// `ph:"s"`/`ph:"f"` flow events).
    Flow {
        /// Source record.
        from: SpanId,
        /// Destination record.
        to: SpanId,
        /// Edge kind: `hide`, `hit`, `activate`, `fault`, `retry`,
        /// `escalate`; preemptive schedules add `preempt` (execution →
        /// context-save), `save` (context-save → host context buffer),
        /// and `restore` (host context buffer → context write-back).
        kind: N,
    },
    /// A metric delta attributed to this point in the log.
    Metric {
        /// Metric name.
        name: N,
        /// Amount added.
        delta: u64,
    },
}

impl<N> JournalRecord<N> {
    /// The simulated time this record carries, if any.
    pub fn t_ns(&self) -> Option<u64> {
        match self {
            JournalRecord::Open { t_ns, .. }
            | JournalRecord::Close { t_ns, .. }
            | JournalRecord::Event { t_ns, .. } => Some(*t_ns),
            JournalRecord::Flow { .. } | JournalRecord::Metric { .. } => None,
        }
    }

    /// Whether this record mints an id (spans and point events do).
    fn mints(&self) -> bool {
        matches!(
            self,
            JournalRecord::Open { .. } | JournalRecord::Event { .. }
        )
    }
}

/// A position in the journal, captured with [`Journal::mark`] and
/// consumed by [`Journal::replay_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalMark {
    /// Literal records stored before the mark.
    start: usize,
}

/// One fast-path jump, stored in place of its copies: `times` copies of
/// the `len` literal records from `start`, the `k`-th shifted
/// `k·shift_ns` in simulated time, whose ids are minted in record order
/// from `mix(salt, seq)`, `mix(salt, seq + 1)`, …. It sits after the
/// first `at` literal records.
#[derive(Debug, Clone, Copy)]
struct Repeat {
    at: usize,
    start: usize,
    len: usize,
    times: u64,
    shift_ns: u64,
    salt: u64,
    seq: u64,
}

impl Repeat {
    /// Emits the copies this repeat stands for, in record order. `block`
    /// is its `len` literal records.
    fn copies<N: Copy>(&self, block: &[JournalRecord<N>], emit: &mut impl FnMut(JournalRecord<N>)) {
        let refs = block_refs(block);
        let mut seq = self.seq;
        let mut mint = |minted: &mut Vec<SpanId>| {
            let id = SpanId(mix(self.salt, seq));
            seq += 1;
            minted.push(id);
            id
        };
        let mut minted: Vec<SpanId> = Vec::with_capacity(refs.len());
        for k in 1..=self.times {
            let off = k.saturating_mul(self.shift_ns);
            minted.clear();
            for (rec, &[a, b]) in block.iter().zip(&refs) {
                emit(match *rec {
                    JournalRecord::Open {
                        parent,
                        name,
                        t_ns,
                        tid,
                        ..
                    } => JournalRecord::Open {
                        id: mint(&mut minted),
                        parent: parent.map(|_| a.resolve(&minted)),
                        name,
                        t_ns: t_ns + off,
                        tid,
                    },
                    JournalRecord::Event {
                        parent,
                        name,
                        t_ns,
                        tid,
                        ..
                    } => JournalRecord::Event {
                        id: mint(&mut minted),
                        parent: parent.map(|_| a.resolve(&minted)),
                        name,
                        t_ns: t_ns + off,
                        tid,
                    },
                    JournalRecord::Close { t_ns, .. } => JournalRecord::Close {
                        id: a.resolve(&minted),
                        t_ns: t_ns + off,
                    },
                    JournalRecord::Flow { kind, .. } => JournalRecord::Flow {
                        from: a.resolve(&minted),
                        to: b.resolve(&minted),
                        kind,
                    },
                    rec @ JournalRecord::Metric { .. } => rec,
                });
            }
        }
    }
}

/// Calls `emit` on every record that `records` and `repeats` stand for,
/// in order: the one expansion behind [`Journal::records`] and
/// [`expand_jsonl`].
fn expand<N: Copy>(
    records: &[JournalRecord<N>],
    repeats: &[Repeat],
    mut emit: impl FnMut(JournalRecord<N>),
) {
    let mut next = 0;
    for r in repeats {
        records[next..r.at].iter().for_each(|rec| emit(*rec));
        next = r.at;
        r.copies(&records[r.start..r.start + r.len], &mut emit);
    }
    records[next..].iter().for_each(|rec| emit(*rec));
}

/// The accounting of an event-capped run, written into the JSONL footer
/// by [`Journal::set_budget_account`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetAccount {
    /// Event cap, if one was set.
    pub max_events: Option<u64>,
    /// Events the cap admitted.
    pub charged_events: u64,
    /// Events the cap refused — the work a capped run skipped.
    pub would_have_run: u64,
    /// Logical sequence number of the first refused event, if any; for
    /// a fleet, the earliest over its nodes.
    pub cutoff_seq: Option<u64>,
    /// How many runs the cap cut.
    pub runs_cut: u64,
}

#[derive(Debug)]
struct State {
    salt: u64,
    seq: u64,
    /// Records stored, counting every copy a repeat stands for.
    stored: u64,
    /// Latest simulated time seen on any record.
    max_t_ns: u64,
    /// The literal records, in order.
    records: Vec<JournalRecord>,
    /// The fast-path jumps, in order, each placed among `records`.
    repeats: Vec<Repeat>,
    stack: Vec<SpanId>,
    /// A capped run's account attached for the JSONL footer, if any.
    budget_account: Option<BudgetAccount>,
}

impl State {
    fn next_id(&mut self) -> SpanId {
        let id = SpanId(mix(self.salt, self.seq));
        self.seq += 1;
        id
    }

    fn offer(&mut self, rec: JournalRecord) {
        if let Some(t) = rec.t_ns() {
            if t > self.max_t_ns {
                self.max_t_ns = t;
            }
        }
        self.push_records(&[rec]);
    }

    fn push_records(&mut self, recs: &[JournalRecord]) {
        self.records.extend_from_slice(recs);
        self.stored += recs.len() as u64;
    }

    /// Stores `rep`; a repeat of no copies or of an empty block stores
    /// nothing.
    fn push_repeat(&mut self, rep: Repeat) {
        if rep.len == 0 || rep.times == 0 {
            return;
        }
        self.repeats.push(rep);
        self.stored += rep.times * rep.len as u64;
    }
}

/// Handle to a causal run journal (or a no-op stand-in).
///
/// Cloning shares the underlying log, mirroring
/// [`Registry`](crate::Registry)'s handle semantics; a
/// [`noop`](Journal::noop) journal makes every operation free.
#[derive(Debug, Clone, Default)]
pub struct Journal(Option<Arc<Mutex<State>>>);

impl Journal {
    /// A disabled journal: every operation is a no-op returning `None`.
    pub fn noop() -> Self {
        Journal(None)
    }

    /// A live journal whose ids derive from `salt`.
    pub fn new(salt: u64) -> Self {
        Journal(Some(Arc::new(Mutex::new(State {
            salt,
            seq: 0,
            stored: 0,
            max_t_ns: 0,
            records: Vec::new(),
            repeats: Vec::new(),
            stack: Vec::new(),
            budget_account: None,
        }))))
    }

    /// Whether records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a capped run's account to the JSONL footer. Journals
    /// without one keep the exact uncapped footer bytes, so golden logs
    /// are unaffected; a replayed run derives the same account again, so
    /// capped journals stay replayable too.
    pub fn set_budget_account(&self, account: BudgetAccount) {
        if let Some(cell) = &self.0 {
            cell.lock().budget_account = Some(account);
        }
    }

    /// The attached account, if any.
    pub fn budget_account(&self) -> Option<BudgetAccount> {
        self.0.as_ref().and_then(|c| c.lock().budget_account)
    }

    /// A journal for parallel shard `index`: live iff `self` is, with a
    /// salt re-derived from `index` so shard ids never collide with the
    /// parent's. Merge it back with [`merge_from`](Journal::merge_from)
    /// in index order.
    pub fn child(&self, index: u64) -> Journal {
        match &self.0 {
            Some(cell) => Journal::new(mix(cell.lock().salt ^ CHILD_TAG, index)),
            None => Journal::noop(),
        }
    }

    /// Opens a span parented to the innermost [`enter`](Journal::enter)ed
    /// span and pushes it on the enter stack.
    pub fn enter(&self, name: &'static str, t_ns: u64, tid: u64) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let parent = s.stack.last().copied();
        let id = s.next_id();
        s.offer(JournalRecord::Open {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        s.stack.push(id);
        Some(id)
    }

    /// Closes an [`enter`](Journal::enter)ed span and pops it off the
    /// enter stack (if it is on top).
    pub fn exit(&self, id: Option<SpanId>, t_ns: u64) {
        let (Some(cell), Some(id)) = (self.0.as_ref(), id) else {
            return;
        };
        let mut s = cell.lock();
        if s.stack.last() == Some(&id) {
            s.stack.pop();
        }
        s.offer(JournalRecord::Close { id, t_ns });
    }

    /// Opens a span under an explicit parent (no enter-stack effect).
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        t_ns: u64,
        tid: u64,
    ) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let id = s.next_id();
        s.offer(JournalRecord::Open {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        Some(id)
    }

    /// Closes a span opened with [`open`](Journal::open).
    pub fn close(&self, id: Option<SpanId>, t_ns: u64) {
        let (Some(cell), Some(id)) = (self.0.as_ref(), id) else {
            return;
        };
        cell.lock().offer(JournalRecord::Close { id, t_ns });
    }

    /// Records a point event; returns its id for flow linking.
    pub fn event(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        t_ns: u64,
        tid: u64,
    ) -> Option<SpanId> {
        let cell = self.0.as_ref()?;
        let mut s = cell.lock();
        let id = s.next_id();
        s.offer(JournalRecord::Event {
            id,
            parent,
            name,
            t_ns,
            tid,
        });
        Some(id)
    }

    /// Records a causal edge; a no-op unless both endpoints exist.
    pub fn flow(&self, from: Option<SpanId>, to: Option<SpanId>, kind: &'static str) {
        let (Some(cell), Some(from), Some(to)) = (self.0.as_ref(), from, to) else {
            return;
        };
        cell.lock().offer(JournalRecord::Flow { from, to, kind });
    }

    /// Records a metric delta.
    pub fn metric(&self, name: &'static str, delta: u64) {
        let Some(cell) = self.0.as_ref() else {
            return;
        };
        cell.lock().offer(JournalRecord::Metric { name, delta });
    }

    /// Captures the current log position for
    /// [`replay_cycle`](Journal::replay_cycle).
    pub fn mark(&self) -> JournalMark {
        match &self.0 {
            Some(cell) => {
                let s = cell.lock();
                JournalMark {
                    start: s.records.len(),
                }
            }
            None => JournalMark::default(),
        }
    }

    /// Logs everything logged since `mark` another `times` times, each
    /// copy shifted `shift_ns` further in simulated time, as one repeat
    /// entry. Expanded, its copies mint fresh ids in record order —
    /// exactly the order the reference path would consume the sequence
    /// counter — and remap references *inside* the copied block to the
    /// copy's ids, while references to records outside the block (e.g.
    /// the enclosing run span) pass through unchanged. The counters
    /// advance as if every copy had been logged. This is the fast-path
    /// executors' journal dual of their timeline `push_repeat`.
    ///
    /// # Panics
    ///
    /// If an earlier `replay_cycle` lies inside the block: a repeat
    /// never contains another, so every mark taken before a jump is
    /// spent by it.
    pub fn replay_cycle(&self, mark: JournalMark, times: u64, shift_ns: u64) {
        let Some(cell) = self.0.as_ref() else {
            return;
        };
        let mut s = cell.lock();
        let start = mark.start.min(s.records.len());
        assert!(
            s.repeats.last().is_none_or(|r| r.at <= start),
            "replay_cycle: the block since the mark holds an earlier jump"
        );
        let block = &s.records[start..];
        let mints = block.iter().filter(|r| r.mints()).count() as u64;
        let last_t = block.iter().filter_map(JournalRecord::t_ns).max();
        let rep = Repeat {
            at: s.records.len(),
            start,
            len: block.len(),
            times,
            shift_ns,
            salt: s.salt,
            seq: s.seq,
        };
        s.seq += times * mints;
        if let Some(t) = last_t {
            s.max_t_ns = s.max_t_ns.max(t + times.saturating_mul(shift_ns));
        }
        s.push_repeat(rep);
    }

    /// Appends a child journal's records and repeats (index-order merge
    /// after a parallel fan-out), rebasing each repeat onto the parent's
    /// records. The child's simulated-time accounting folds into the
    /// parent's.
    pub fn merge_from(&self, child: &Journal) {
        let (Some(cell), Some(ccell)) = (self.0.as_ref(), child.0.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(cell, ccell) {
            return;
        }
        let (recs, reps, cmax) = {
            let c = ccell.lock();
            (c.records.clone(), c.repeats.clone(), c.max_t_ns)
        };
        let mut s = cell.lock();
        if cmax > s.max_t_ns {
            s.max_t_ns = cmax;
        }
        let base = s.records.len();
        let mut next = 0;
        for r in reps {
            s.push_records(&recs[next..r.at]);
            next = r.at;
            let at = s.records.len();
            s.push_repeat(Repeat {
                at,
                start: base + r.start,
                ..r
            });
        }
        s.push_records(&recs[next..]);
    }

    /// A snapshot of the stored records, every repeat expanded.
    pub fn records(&self) -> Vec<JournalRecord> {
        let Some(cell) = &self.0 else {
            return Vec::new();
        };
        let s = cell.lock();
        let mut out = Vec::with_capacity(s.stored as usize);
        expand(&s.records, &s.repeats, |rec| out.push(rec));
        out
    }

    /// Serializes the journal as schema-versioned JSONL
    /// ([`JOURNAL_SCHEMA`]): a header line, one line per literal record,
    /// one `repeat` line per fast-path jump, and a resource-accounting
    /// footer (`events` stored, counting every copy a repeat stands for;
    /// `dropped`, always 0 since the journal keeps every record, kept so
    /// v2 readers find the key; `bytes` of everything above the footer;
    /// `sim_ns` — the latest simulated time touched — and, when a
    /// [`BudgetAccount`] is attached, a nested `budget` object with the
    /// event cap, charges, would-have-run tally, and cutoff, whose
    /// `max_sim_ns` and `charged_sim_ns` keys are always `null` and 0).
    ///
    /// A `repeat` line is self-contained:
    /// `{"ev":"repeat","from":F,"len":L,"times":K,"shift_ns":D,"salt":S,"seq":Q}`
    /// stands for `K` copies of the `L` record lines that start at record
    /// line `F` (counted from 0; repeat lines do not count) and lie before
    /// it, never across another repeat line. Copy `k` is shifted `k·D` ns,
    /// and its ids are minted in record order from `mix(S, Q)` on: a
    /// merged child journal mints under its own salt. [`expand_jsonl`]
    /// writes the copies out.
    pub fn to_jsonl(&self, experiment: &str, seed: u64) -> String {
        let guard = self.0.as_ref().map(|cell| cell.lock());
        let (records, repeats, stored, max_t, budget) = match &guard {
            Some(s) => (
                &s.records[..],
                &s.repeats[..],
                s.stored,
                s.max_t_ns,
                s.budget_account,
            ),
            None => (&[][..], &[][..], 0, 0, None),
        };
        let lines = records.len() + repeats.len();
        let mut out = String::with_capacity(256 + lines * JSONL_BYTES_PER_RECORD);
        let _ = writeln!(
            out,
            r#"{{"schema":"{JOURNAL_SCHEMA}","experiment":"{}","seed":{seed}}}"#,
            esc(experiment)
        );
        let mut next = 0;
        for r in repeats {
            for rec in &records[next..r.at] {
                write_record(&mut out, rec, esc);
            }
            next = r.at;
            let _ = writeln!(
                out,
                r#"{{"ev":"repeat","from":{},"len":{},"times":{},"shift_ns":{},"salt":{},"seq":{}}}"#,
                r.start, r.len, r.times, r.shift_ns, r.salt, r.seq
            );
        }
        for rec in &records[next..] {
            write_record(&mut out, rec, esc);
        }
        let bytes = out.len();
        let _ = write!(
            out,
            r#"{{"account":{{"events":{stored},"dropped":0,"bytes":{bytes},"sim_ns":{max_t}"#
        );
        if let Some(b) = budget {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                r#","budget":{{"max_events":{},"max_sim_ns":null,"charged_events":{},"charged_sim_ns":0,"would_have_run":{},"cutoff_seq":{},"runs_cut":{}}}"#,
                opt(b.max_events),
                b.charged_events,
                b.would_have_run,
                opt(b.cutoff_seq),
                b.runs_cut
            );
        }
        out.push_str("}}\n");
        out
    }

    /// Exports the flow links as paired Chrome flow events
    /// (`ph:"s"`/`ph:"f"`), numbered deterministically. With
    /// `under: Some(name)`, only flows whose *both* endpoints sit under
    /// an ancestor span of that name are exported (e.g.
    /// `Some("sim.run_prtr")` picks out the PRTR run's arrows).
    pub fn chrome_flow_events(&self, pid: u64, under: Option<&str>) -> Vec<ChromeEvent> {
        struct Node {
            t_ns: u64,
            tid: u64,
            parent: Option<SpanId>,
            name: &'static str,
        }
        let records = self.records();
        let mut nodes: HashMap<SpanId, Node> = HashMap::new();
        for rec in &records {
            if let JournalRecord::Open {
                id,
                parent,
                name,
                t_ns,
                tid,
            }
            | JournalRecord::Event {
                id,
                parent,
                name,
                t_ns,
                tid,
            } = *rec
            {
                nodes.insert(
                    id,
                    Node {
                        t_ns,
                        tid,
                        parent,
                        name,
                    },
                );
            }
        }
        let within = |start: SpanId| -> bool {
            let Some(target) = under else { return true };
            let mut id = start;
            for _ in 0..64 {
                let Some(n) = nodes.get(&id) else {
                    return false;
                };
                if n.name == target {
                    return true;
                }
                match n.parent {
                    Some(p) => id = p,
                    None => return false,
                }
            }
            false
        };
        let mut out = Vec::new();
        let mut flow_idx = 0u64;
        for rec in &records {
            if let JournalRecord::Flow { from, to, kind } = *rec {
                let (Some(a), Some(b)) = (nodes.get(&from), nodes.get(&to)) else {
                    continue;
                };
                if !within(from) || !within(to) {
                    continue;
                }
                out.push(ChromeEvent::flow_start(
                    kind,
                    a.t_ns / 1_000,
                    pid,
                    a.tid,
                    flow_idx,
                ));
                out.push(ChromeEvent::flow_end(
                    kind,
                    b.t_ns / 1_000,
                    pid,
                    b.tid,
                    flow_idx,
                ));
                flow_idx += 1;
            }
        }
        out
    }

    /// Exports the journal's spans and events as Chrome complete
    /// events, in record order: each `Open` becomes an `X` event whose
    /// duration runs to its matching `Close` (0 if never closed), and
    /// each point `Event` becomes a zero-duration `X` at its timestamp.
    /// This renders a journal directly as a trace without consulting a
    /// timeline — the cluster-level view for fleet runs, where the
    /// orchestrator journal *is* the source of truth.
    pub fn chrome_span_events(&self, pid: u64) -> Vec<ChromeEvent> {
        let records = self.records();
        let mut close_ns: HashMap<SpanId, u64> = HashMap::new();
        for rec in &records {
            if let JournalRecord::Close { id, t_ns } = *rec {
                close_ns.entry(id).or_insert(t_ns);
            }
        }
        let mut out = Vec::new();
        for rec in &records {
            match *rec {
                JournalRecord::Open {
                    id,
                    name,
                    t_ns,
                    tid,
                    ..
                } => {
                    let end = close_ns.get(&id).copied().unwrap_or(t_ns).max(t_ns);
                    out.push(ChromeEvent::complete(
                        name,
                        t_ns / 1_000,
                        (end - t_ns) / 1_000,
                        pid,
                        tid,
                    ));
                }
                JournalRecord::Event {
                    name, t_ns, tid, ..
                } => {
                    out.push(ChromeEvent::complete(name, t_ns / 1_000, 0, pid, tid));
                }
                _ => {}
            }
        }
        out
    }
}

/// Typical bytes per exported record line (ids are up to 20 digits);
/// reserving this up front lets `to_jsonl` grow its buffer at most once.
const JSONL_BYTES_PER_RECORD: usize = 112;

/// A reference inside a replayed block, resolved once per
/// [`Journal::replay_cycle`]: the ordinal (in record order) of the
/// in-block record that minted the id, or an id from outside the block,
/// which every copy keeps unchanged.
#[derive(Clone, Copy)]
enum BlockRef {
    Minted(usize),
    Outer(SpanId),
}

impl BlockRef {
    /// The id this reference names in a copy whose ids so far are `minted`.
    fn resolve(self, minted: &[SpanId]) -> SpanId {
        match self {
            BlockRef::Minted(k) => minted[k],
            BlockRef::Outer(id) => id,
        }
    }
}

/// Resolves every id each record of `block` references (`Open`/`Event`
/// parent, `Close` id, `Flow` endpoints; unused slots hold a
/// placeholder). An id counts as in-block only once the record minting
/// it has been seen, exactly as an incremental remap would treat it.
fn block_refs<N>(block: &[JournalRecord<N>]) -> Vec<[BlockRef; 2]> {
    const UNUSED: BlockRef = BlockRef::Outer(SpanId(0));
    let lookup = |ordinal: &HashMap<SpanId, usize>, id: SpanId| match ordinal.get(&id) {
        Some(&k) => BlockRef::Minted(k),
        None => BlockRef::Outer(id),
    };
    let mut ordinal: HashMap<SpanId, usize> = HashMap::new();
    block
        .iter()
        .map(|rec| match *rec {
            JournalRecord::Open { id, parent, .. } | JournalRecord::Event { id, parent, .. } => {
                ordinal.insert(id, ordinal.len());
                [parent.map_or(UNUSED, |p| lookup(&ordinal, p)), UNUSED]
            }
            JournalRecord::Close { id, .. } => [lookup(&ordinal, id), UNUSED],
            JournalRecord::Flow { from, to, .. } => [lookup(&ordinal, from), lookup(&ordinal, to)],
            JournalRecord::Metric { .. } => [UNUSED; 2],
        })
        .collect()
}

/// Writes one record line. `name` renders a name or kind as the
/// contents of a JSON string: [`esc`] for a live journal's text, or
/// `Cow::Borrowed` for text [`expand_jsonl`] read still escaped.
fn write_record<'a>(
    out: &mut String,
    rec: &JournalRecord<&'a str>,
    name: fn(&'a str) -> Cow<'a, str>,
) {
    match *rec {
        JournalRecord::Open {
            id,
            parent,
            name: n,
            t_ns,
            tid,
        } => write_span_line(out, "open", id, parent, &name(n), t_ns, tid),
        JournalRecord::Event {
            id,
            parent,
            name: n,
            t_ns,
            tid,
        } => write_span_line(out, "event", id, parent, &name(n), t_ns, tid),
        JournalRecord::Close { id, t_ns } => {
            let _ = writeln!(out, r#"{{"ev":"close","id":{},"t_ns":{t_ns}}}"#, id.0);
        }
        JournalRecord::Flow { from, to, kind } => {
            let _ = writeln!(
                out,
                r#"{{"ev":"flow","from":{},"to":{},"kind":"{}"}}"#,
                from.0,
                to.0,
                name(kind)
            );
        }
        JournalRecord::Metric { name: n, delta } => {
            let _ = writeln!(
                out,
                r#"{{"ev":"metric","name":"{}","delta":{delta}}}"#,
                name(n)
            );
        }
    }
}

fn write_span_line(
    out: &mut String,
    ev: &str,
    id: SpanId,
    parent: Option<SpanId>,
    name: &str,
    t_ns: u64,
    tid: u64,
) {
    let _ = write!(out, r#"{{"ev":"{ev}","id":{}"#, id.0);
    if let Some(p) = parent {
        let _ = write!(out, r#","parent":{}"#, p.0);
    }
    let _ = writeln!(out, r#","name":"{name}","t_ns":{t_ns},"tid":{tid}}}"#);
}

/// One line of journal text, read by [`expand_jsonl`]'s hand parser,
/// which accepts exactly the writer's fixed key order.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    /// Consumes `lit` if the text continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        match self.0.strip_prefix(lit) {
            Some(rest) => {
                self.0 = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `,"key":` (or `{"key":` for a line's first key).
    fn key(&mut self, key: &str) -> Result<(), String> {
        let ok = (self.eat(",\"") || self.eat("{\"")) && self.eat(key) && self.eat("\":");
        if ok {
            Ok(())
        } else {
            Err(format!("missing field \"{key}\""))
        }
    }

    /// Consumes the decimal `u64` value of field `key`.
    fn num_value(&mut self, key: &str) -> Result<u64, String> {
        let n = self.0.bytes().take_while(u8::is_ascii_digit).count();
        let v = self.0[..n]
            .parse()
            .map_err(|_| format!("field \"{key}\" is not a number"))?;
        self.0 = &self.0[n..];
        Ok(v)
    }

    /// Consumes the numeric field `key`.
    fn num(&mut self, key: &str) -> Result<u64, String> {
        self.key(key)?;
        self.num_value(key)
    }

    /// Consumes the string field `key`; returns its still-escaped text.
    fn text(&mut self, key: &str) -> Result<&'a str, String> {
        self.key(key)?;
        let quoted = || {
            let rest = self.0.strip_prefix('"')?;
            let mut escaped = false;
            let end = rest.bytes().position(|b| {
                let closes = !escaped && b == b'"';
                escaped = !escaped && b == b'\\';
                closes
            })?;
            Some((&rest[..end], &rest[end + 1..]))
        };
        let (text, rest) = quoted().ok_or_else(|| format!("field \"{key}\" is not a string"))?;
        self.0 = rest;
        Ok(text)
    }

    /// Requires the rest of the line to be `tail`.
    fn end(&self, tail: &str) -> Result<(), String> {
        if self.0 == tail {
            Ok(())
        } else {
            Err(format!("expected `{tail}` at `{}`", self.0))
        }
    }
}

/// A body line of `hprc-journal/v2` text.
enum Line<'a> {
    Record(JournalRecord<&'a str>),
    Repeat(Repeat),
}

fn parse_line(line: &str) -> Result<Line<'_>, String> {
    let mut c = Cursor(line);
    let ev = c.text("ev")?;
    let parsed = match ev {
        "open" | "event" => {
            let id = SpanId(c.num("id")?);
            let parent = if c.0.starts_with(",\"parent\":") {
                Some(SpanId(c.num("parent")?))
            } else {
                None
            };
            let (name, t_ns, tid) = (c.text("name")?, c.num("t_ns")?, c.num("tid")?);
            Line::Record(match ev {
                "open" => JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                },
                _ => JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                },
            })
        }
        "close" => Line::Record(JournalRecord::Close {
            id: SpanId(c.num("id")?),
            t_ns: c.num("t_ns")?,
        }),
        "flow" => Line::Record(JournalRecord::Flow {
            from: SpanId(c.num("from")?),
            to: SpanId(c.num("to")?),
            kind: c.text("kind")?,
        }),
        "metric" => Line::Record(JournalRecord::Metric {
            name: c.text("name")?,
            delta: c.num("delta")?,
        }),
        "repeat" => Line::Repeat(Repeat {
            at: 0,
            start: usize::try_from(c.num("from")?).map_err(|_| "field \"from\" is too large")?,
            len: usize::try_from(c.num("len")?).map_err(|_| "field \"len\" is too large")?,
            times: c.num("times")?,
            shift_ns: c.num("shift_ns")?,
            salt: c.num("salt")?,
            seq: c.num("seq")?,
        }),
        other => return Err(format!("unknown record type \"{other}\"")),
    };
    c.end("}")?;
    Ok(parsed)
}

/// Expands `hprc-journal/v2` text into the longhand `hprc-journal/v1`
/// bytes: the same header naming v1, every `repeat` line replaced by the
/// copies it stands for, and the same footer with `bytes` counting the
/// longhand body. The copies come from the routine behind
/// [`Journal::records`], so a journal's expanded text is exactly what
/// [`Journal::to_jsonl`] wrote before repeats existed.
///
/// Malformed text is an `Err("line N: …")`, never a panic: a foreign
/// schema, a missing footer or final newline, a field that is missing
/// or not a number, and a repeat whose block is not made of record
/// lines before it, or whose copies would expand past the footer's
/// `events` or overflow a time or an id sequence number. Repeats are
/// checked before anything is expanded.
pub fn expand_jsonl(text: &str) -> Result<String, String> {
    let lines: Vec<&str> = text.split_terminator('\n').collect();
    let n = lines.len();
    let at = |i: usize| move |e: String| format!("line {}: {e}", i + 1);
    if n < 2 || !text.ends_with('\n') || !lines[n - 1].starts_with("{\"account\":") {
        return Err(format!("line {}: truncated journal: no footer", n.max(1)));
    }
    let header = parse_header(lines[0]).map_err(at(0))?;
    let footer = parse_footer(lines[n - 1]).map_err(at(n - 1))?;
    let mut records: Vec<JournalRecord<&str>> = Vec::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut total = 0u64;
    for (i, line) in lines.iter().enumerate().take(n - 1).skip(1) {
        match parse_line(line).map_err(at(i))? {
            Line::Record(rec) => {
                records.push(rec);
                total += 1;
            }
            Line::Repeat(rep) => {
                let rep = Repeat {
                    at: records.len(),
                    ..rep
                };
                let end = rep.start.checked_add(rep.len).filter(|&e| e <= rep.at);
                let Some(end) = end else {
                    return Err(at(i)(format!(
                        "repeat block {}+{} lies outside the {} record lines before it",
                        rep.start, rep.len, rep.at
                    )));
                };
                let k = repeats.partition_point(|r| r.at <= rep.start);
                if repeats.get(k).is_some_and(|r| r.at < end) {
                    return Err(at(i)("repeat block contains a repeat line".to_string()));
                }
                let copies = (rep.len as u64)
                    .checked_mul(rep.times)
                    .filter(|&c| c <= footer.events.saturating_sub(total))
                    .ok_or_else(|| {
                        at(i)(format!(
                            "repeat expands past the footer's {} events",
                            footer.events
                        ))
                    })?;
                let last_t = records[rep.start..end]
                    .iter()
                    .filter_map(JournalRecord::t_ns)
                    .max();
                let shifted = rep.times.checked_mul(rep.shift_ns);
                let t_fits = shifted.and_then(|d| last_t.unwrap_or(0).checked_add(d));
                if t_fits.is_none() || rep.seq.checked_add(copies).is_none() {
                    return Err(at(i)(
                        "repeat overflows a time or a sequence number".to_string(),
                    ));
                }
                total += copies;
                repeats.push(rep);
            }
        }
    }
    if total != footer.events {
        return Err(at(n - 1)(format!(
            "footer counts {} events, the body holds {total}",
            footer.events
        )));
    }
    let mut out = format!("{{\"schema\":\"{LONGHAND_SCHEMA}\"{header}\n");
    expand(&records, &repeats, |rec| {
        write_record(&mut out, &rec, Cow::Borrowed)
    });
    let bytes = out.len();
    let _ = writeln!(out, "{}{bytes}{}", footer.head, footer.tail);
    Ok(out)
}

/// Checks a header line's schema and shape; returns the text after the
/// schema value (`,"experiment":…}`).
fn parse_header(line: &str) -> Result<&str, String> {
    let mut c = Cursor(line);
    let schema = c.text("schema")?;
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "schema mismatch: journal is {schema:?}, this reader reads {JOURNAL_SCHEMA:?}"
        ));
    }
    let rest = c.0;
    c.text("experiment")?;
    c.num("seed")?;
    c.end("}")?;
    Ok(rest)
}

/// A footer line split around its `bytes` value.
struct Footer<'a> {
    events: u64,
    head: &'a str,
    tail: &'a str,
}

fn parse_footer(line: &str) -> Result<Footer<'_>, String> {
    let mut c = Cursor(line);
    c.key("account")?;
    let events = c.num("events")?;
    c.num("dropped")?;
    c.key("bytes")?;
    let head = &line[..line.len() - c.0.len()];
    c.num_value("bytes")?;
    let tail = c.0;
    c.num("sim_ns")?;
    if c.eat(",\"budget\":") {
        for (key, nullable) in [
            ("max_events", true),
            ("max_sim_ns", true),
            ("charged_events", false),
            ("charged_sim_ns", false),
            ("would_have_run", false),
            ("cutoff_seq", true),
            ("runs_cut", false),
        ] {
            c.key(key)?;
            if !(nullable && c.eat("null")) {
                c.num_value(key)?;
            }
        }
        c.end("}}}")?;
    } else {
        c.end("}}")?;
    }
    Ok(Footer { events, head, tail })
}

/// Minimal JSON string escaper (names are short identifiers; this
/// matches serde_json's escaping for the characters it handles). Shared
/// with the run-manifest writer, which hand-rolls JSONL the same way.
/// Text that needs no escaping — every journal name in practice — is
/// borrowed, not copied.
pub(crate) fn esc(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_call(j: &Journal, t0: u64) {
        let call = j.open("call", None, t0, 0);
        let exec = j.event("execute", call, t0 + 5, 10);
        j.flow(call, exec, "activate");
        j.close(call, t0 + 9);
    }

    #[test]
    fn noop_is_inert() {
        let j = Journal::noop();
        assert!(!j.is_enabled());
        assert_eq!(j.enter("x", 0, 0), None);
        assert_eq!(j.event("x", None, 0, 0), None);
        j.flow(None, None, "k");
        j.metric("m", 1);
        assert!(j.records().is_empty());
        let text = j.to_jsonl("empty", 0);
        assert_eq!(text.lines().count(), 2, "header + account only");
        assert!(text.contains(r#""events":0,"dropped":0"#));
    }

    #[test]
    fn ids_are_deterministic_and_salt_dependent() {
        let a = Journal::new(7);
        let b = Journal::new(7);
        let c = Journal::new(8);
        for j in [&a, &b, &c] {
            emit_call(j, 100);
        }
        assert_eq!(a.records(), b.records());
        assert_eq!(a.to_jsonl("x", 1), b.to_jsonl("x", 1));
        assert_ne!(a.records(), c.records(), "salt must move the ids");
    }

    #[test]
    fn enter_exit_builds_the_parent_chain() {
        let j = Journal::new(1);
        let outer = j.enter("run", 0, 0);
        let inner = j.enter("call", 10, 0);
        j.exit(inner, 20);
        j.exit(outer, 30);
        let recs = j.records();
        match (&recs[0], &recs[1]) {
            (
                JournalRecord::Open {
                    id: o,
                    parent: None,
                    ..
                },
                JournalRecord::Open {
                    parent: Some(p), ..
                },
            ) => assert_eq!(p, o),
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn children_merge_in_index_order_with_distinct_ids() {
        let parent = Journal::new(42);
        let c0 = parent.child(0);
        let c1 = parent.child(1);
        emit_call(&c1, 200);
        emit_call(&c0, 100);
        parent.merge_from(&c0);
        parent.merge_from(&c1);
        let recs = parent.records();
        assert_eq!(recs.len(), 8);
        // The two shards minted disjoint ids.
        let ids: Vec<u64> = recs
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Open { id, .. } | JournalRecord::Event { id, .. } => Some(id.0),
                _ => None,
            })
            .collect();
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
        // c0's records landed first (merge order, not emit order).
        assert_eq!(recs[0].t_ns(), Some(100));
        // Noop child of a noop parent stays inert.
        assert!(!Journal::noop().child(0).is_enabled());
        assert!(parent.child(0).is_enabled());
    }

    #[test]
    fn replay_cycle_matches_the_reference_emission() {
        let fast = Journal::new(9);
        let reference = Journal::new(9);
        let run_f = fast.enter("run", 0, 0);
        let run_r = reference.enter("run", 0, 0);
        // One simulated cycle, then a jump over two more.
        let m = fast.mark();
        emit_call(&fast, 100);
        fast.replay_cycle(m, 2, 50);
        fast.exit(run_f, 250);
        // The reference path emits all three cycles longhand.
        for t0 in [100, 150, 200] {
            emit_call(&reference, t0);
        }
        reference.exit(run_r, 250);
        assert_eq!(fast.records(), reference.records());
        let (fast_text, ref_text) = (fast.to_jsonl("x", 5), reference.to_jsonl("x", 5));
        assert_eq!(expand_jsonl(&fast_text), expand_jsonl(&ref_text));
        assert_eq!(fast_text.matches(r#"{"ev":"repeat","#).count(), 1);
        assert!(fast_text.len() < ref_text.len());
        // Without repeats, expanding only renames the schema.
        assert_eq!(
            expand_jsonl(&ref_text).unwrap(),
            ref_text.replacen(JOURNAL_SCHEMA, LONGHAND_SCHEMA, 1)
        );
    }

    /// A parent that jumps, then merges two children that each jump:
    /// with `fast`, every jump is a `replay_cycle`; without, every cycle
    /// is emitted longhand.
    fn jumping_family(j: &Journal, fast: bool) {
        let cycles = |j: &Journal, t0: u64, times: u64| {
            if fast {
                let m = j.mark();
                emit_call(j, t0);
                j.replay_cycle(m, times, 50);
            } else {
                (0..=times).for_each(|k| emit_call(j, t0 + k * 50));
            }
        };
        let run = j.enter("run", 0, 0);
        cycles(j, 100, 2);
        let (c0, c1) = (j.child(0), j.child(1));
        cycles(&c1, 500, 2);
        cycles(&c0, 300, 3);
        j.merge_from(&c0);
        j.merge_from(&c1);
        j.exit(run, 1_000);
    }

    #[test]
    fn merged_child_repeats_expand_to_the_longhand_emission() {
        let (fast, reference) = (Journal::new(21), Journal::new(21));
        jumping_family(&fast, true);
        jumping_family(&reference, false);
        assert_eq!(fast.records(), reference.records());
        let text = fast.to_jsonl("x", 5);
        assert_eq!(text.matches(r#"{"ev":"repeat","#).count(), 3);
        assert_eq!(
            expand_jsonl(&text),
            expand_jsonl(&reference.to_jsonl("x", 5))
        );
    }

    #[test]
    #[should_panic(expected = "holds an earlier jump")]
    fn replay_cycle_rejects_a_block_holding_an_earlier_jump() {
        let j = Journal::new(3);
        let m = j.mark();
        emit_call(&j, 0);
        j.replay_cycle(m, 1, 10);
        j.replay_cycle(m, 1, 20);
    }

    /// An export with two jumps. Its lines: 1 header, 2 `run` (record
    /// 0), 3–6 the first call (records 1–4), 7 its repeat, 8–11 the
    /// second call (records 5–8), 12 its repeat, 13 the `run` close
    /// (record 9), 14 the footer (26 events).
    fn two_jumps() -> String {
        let j = Journal::new(9);
        let run = j.enter("run", 0, 0);
        for t0 in [100, 400] {
            let m = j.mark();
            emit_call(&j, t0);
            j.replay_cycle(m, 2, 50);
        }
        j.exit(run, 1_000);
        j.to_jsonl("x", 5)
    }

    /// The error `expand_jsonl` returns for `text` with `from` replaced
    /// by `to`.
    fn expand_err(text: &str, from: &str, to: &str) -> String {
        assert!(text.contains(from), "{from} not in {text}");
        expand_jsonl(&text.replacen(from, to, 1)).unwrap_err()
    }

    #[test]
    fn expand_jsonl_rejects_malformed_text_with_a_line_number() {
        let text = two_jumps();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 14);
        assert_eq!(
            lines[11],
            r#"{"ev":"repeat","from":5,"len":4,"times":2,"shift_ns":50,"salt":9,"seq":9}"#
        );
        assert!(lines[13].starts_with(r#"{"account":{"events":26,"#));
        assert!(expand_jsonl(&text).is_ok());

        let cases = [
            // A block that runs past the record lines before it.
            (
                r#""from":5,"len":4"#,
                r#""from":7,"len":4"#,
                "line 12: repeat block 7+4",
            ),
            (
                r#""from":5,"len":4"#,
                r#""from":5,"len":5"#,
                "line 12: repeat block 5+5",
            ),
            // A block around the first repeat line.
            (
                r#""from":5,"len":4"#,
                r#""from":3,"len":4"#,
                "line 12: repeat block contains",
            ),
            // Copies past the footer's count, however large.
            (
                r#""times":2"#,
                r#""times":1000000000000000000"#,
                "line 7: repeat expands past",
            ),
            (
                r#""times":2"#,
                r#""times":18446744073709551615"#,
                "line 7: repeat expands past",
            ),
            (
                r#""times":2"#,
                r#""times":3"#,
                "line 12: repeat expands past",
            ),
            (
                r#""events":26"#,
                r#""events":27"#,
                "line 14: footer counts 27 events",
            ),
            // Copy times or ids past u64.
            (
                r#""shift_ns":50,"salt":9,"seq":3"#,
                r#""shift_ns":18446744073709551615,"salt":9,"seq":3"#,
                "line 7: repeat overflows",
            ),
            (
                r#""seq":9}"#,
                r#""seq":18446744073709551615}"#,
                "line 12: repeat overflows",
            ),
            // Missing and non-numeric fields.
            (r#","seq":9}"#, "}", r#"line 12: missing field "seq""#),
            (
                r#""t_ns":1000}"#,
                r#""t_ns":-1}"#,
                r#"line 13: field "t_ns" is not a number"#,
            ),
            (
                r#""times":2"#,
                r#""times":"2""#,
                r#"line 7: field "times" is not a number"#,
            ),
            (
                r#""sim_ns":"#,
                r#""sim":"#,
                r#"line 14: missing field "sim_ns""#,
            ),
            (
                r#""ev":"close""#,
                r#""ev":"shut""#,
                r#"line 6: unknown record type "shut""#,
            ),
            // Another schema, including the longhand one.
            (JOURNAL_SCHEMA, LONGHAND_SCHEMA, "line 1: schema mismatch"),
        ];
        for (from, to, want) in cases {
            let err = expand_err(&text, from, to);
            assert!(err.starts_with(want), "{from} -> {to}: {err}");
        }

        // Truncated: no footer, or no final newline.
        let no_footer = &text[..text.len() - lines[13].len() - 1];
        let err = expand_jsonl(no_footer).unwrap_err();
        assert!(err.starts_with("line 13: truncated journal"), "{err}");
        for cut in 0..text.len() {
            let err = expand_jsonl(&text[..cut]).unwrap_err();
            assert!(err.starts_with("line "), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn replay_cycle_keeps_out_of_block_parents() {
        let j = Journal::new(4);
        let run = j.enter("run", 0, 0);
        let m = j.mark();
        let call = j.open("call", run, 10, 0);
        j.close(call, 20);
        j.replay_cycle(m, 1, 100);
        let recs = j.records();
        match (&recs[1], &recs[3]) {
            (
                JournalRecord::Open {
                    id: first,
                    parent: Some(p1),
                    ..
                },
                JournalRecord::Open {
                    id: second,
                    parent: Some(p2),
                    t_ns,
                    ..
                },
            ) => {
                assert_eq!(Some(*p1), run);
                assert_eq!(p2, p1, "run-span parent passes through the remap");
                assert_ne!(second, first, "the copy minted a fresh id");
                assert_eq!(*t_ns, 110);
            }
            other => panic!("unexpected records: {other:?}"),
        }
    }

    #[test]
    fn jsonl_escapes_names_and_accounts_bytes() {
        let j = Journal::new(6);
        let e = j.event("we\"ird\\name", None, 7, 1);
        assert!(e.is_some());
        let text = j.to_jsonl("exp\"q", 9);
        assert!(text.contains(r#""experiment":"exp\"q""#));
        assert!(text.contains(r#""name":"we\"ird\\name""#));
        // Every line is one object (full JSON parsing is exercised by
        // the exp-side CLI tests; obs stays dependency-free).
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // `bytes` equals the length of everything before the footer.
        let footer = text.lines().last().unwrap();
        let body_len = text.len() - footer.len() - 1;
        assert!(
            footer.contains(&format!(r#""bytes":{body_len}"#)),
            "{footer}"
        );
    }

    #[test]
    fn budget_account_lands_inside_the_footer_object() {
        let j = Journal::new(2);
        emit_call(&j, 50);
        let plain = j.to_jsonl("x", 1);
        let plain_footer = plain.lines().last().unwrap().to_string();
        assert!(!plain_footer.contains("budget"));

        j.set_budget_account(BudgetAccount {
            max_events: Some(8),
            charged_events: 5,
            would_have_run: 3,
            cutoff_seq: Some(6),
            runs_cut: 1,
        });
        assert_eq!(j.budget_account().unwrap().charged_events, 5);
        let text = j.to_jsonl("x", 1);
        let footer = text.lines().last().unwrap();
        assert!(
            footer.contains(
                r#""budget":{"max_events":8,"max_sim_ns":null,"charged_events":5,"charged_sim_ns":0,"would_have_run":3,"cutoff_seq":6,"runs_cut":1}"#
            ),
            "{footer}"
        );
        // The budget rides inside the account object; the record lines
        // and their byte accounting are unchanged.
        assert!(footer.starts_with(r#"{"account":{"events":"#));
        assert!(footer.ends_with("}}"));
        let body_len = text.len() - footer.len() - 1;
        assert!(
            footer.contains(&format!(r#""bytes":{body_len}"#)),
            "{footer}"
        );
        assert_eq!(
            plain.lines().count(),
            text.lines().count(),
            "budget adds no lines"
        );
    }

    #[test]
    fn chrome_span_events_render_opens_closes_and_instants() {
        let j = Journal::new(13);
        let run = j.enter("fleet.run", 0, 0);
        let d = j.event("fleet.dispatch", run, 2_000, 0);
        let node = j.open("fleet.node", run, 2_000, 3);
        j.flow(d, node, "dispatch");
        j.close(node, 9_000);
        let dangling = j.open("unclosed", run, 4_000, 1);
        assert!(dangling.is_some());
        j.exit(run, 10_000);

        let evs = j.chrome_span_events(7);
        assert_eq!(evs.len(), 4, "flows are not span events");
        assert_eq!(evs[0].name, "fleet.run");
        assert_eq!((evs[0].ts, evs[0].dur), (0, 10));
        assert_eq!(evs[1].name, "fleet.dispatch");
        assert_eq!((evs[1].ts, evs[1].dur), (2, 0));
        assert_eq!(evs[2].name, "fleet.node");
        assert_eq!((evs[2].ts, evs[2].dur, evs[2].tid), (2, 7, 3));
        assert_eq!(evs[3].name, "unclosed");
        assert_eq!((evs[3].ts, evs[3].dur), (4, 0));
        assert!(evs.iter().all(|e| e.ph == "X" && e.pid == 7));
    }

    #[test]
    fn chrome_flow_events_pair_and_filter() {
        let j = Journal::new(11);
        let frtr = j.enter("sim.run_frtr", 0, 0);
        let a = j.event("configure", frtr, 1_000, 1);
        let b = j.event("execute", frtr, 2_000, 10);
        j.flow(a, b, "activate");
        j.exit(frtr, 3_000);
        let prtr = j.enter("sim.run_prtr", 0, 0);
        let c = j.event("decide", prtr, 4_000, 0);
        let d = j.event("execute", prtr, 5_000, 10);
        j.flow(c, d, "hit");
        j.exit(prtr, 6_000);

        let all = j.chrome_flow_events(1, None);
        assert_eq!(all.len(), 4, "two flows, two endpoints each");
        assert_eq!(all[0].ph, "s");
        assert_eq!(all[1].ph, "f");
        assert_eq!(all[0].id, all[1].id);
        assert_ne!(all[0].id, all[2].id);

        let prtr_only = j.chrome_flow_events(1, Some("sim.run_prtr"));
        assert_eq!(prtr_only.len(), 2);
        assert_eq!(prtr_only[0].ts, 4); // 4_000 ns floored to µs
        assert_eq!(prtr_only[1].ts, 5);
    }
}
