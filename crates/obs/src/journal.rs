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
//! and `seq` is a logical counter that advances once per id handed out
//! (even when a budget drops the record's storage — ids are part of
//! the causal structure, storage is an accounting concern). Child
//! journals ([`Journal::child`]) re-salt by index so parallel shards
//! mint non-colliding ids; the parent merges shard records back in
//! index order, which is what makes the log `--jobs`-invariant.
//!
//! # Fast-path replay
//!
//! The steady-state executors jump over repeated cycles instead of
//! simulating them. [`Journal::replay_cycle`] is their journal-side
//! dual: it re-emits the records of one verified cycle `m` more times,
//! minting fresh ids *in the same order the reference path would* and
//! remapping intra-cycle references, so the fast path's journal is
//! byte-identical to the reference executor's. Records are `Copy` (their
//! names are `&'static str`), and every reference in the cycle is
//! resolved once — to the ordinal of the in-cycle record that minted it,
//! or to an outside id — so each copy costs one id mint and one push per
//! record: no per-record allocation, no hashing.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::budget::BudgetAccount;
use crate::chrome::ChromeEvent;

/// Journal schema identifier written into every JSONL header line.
pub const JOURNAL_SCHEMA: &str = "hprc-journal/v1";

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
const FORK_TAG: u64 = 0xF04B_5EED_0000_0002;

fn derive_salt(salt: u64, tag: u64, index: u64) -> u64 {
    mix(salt ^ tag, index)
}

/// One entry in the journal's append-only log.
///
/// Names and kinds are `&'static str` (literals, or interned text that
/// lives as long as the process), so a record is plain `Copy` data and
/// storing or replaying one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A span opened: it has duration and may parent other records.
    Open {
        /// The span's id.
        id: SpanId,
        /// Enclosing span, if any.
        parent: Option<SpanId>,
        /// Span class name (e.g. `sim.run_prtr`, a task name, `recovery`).
        name: &'static str,
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
        name: &'static str,
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
        kind: &'static str,
    },
    /// A metric delta attributed to this point in the log.
    Metric {
        /// Metric name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
}

impl JournalRecord {
    /// The simulated time this record carries, if any.
    pub fn t_ns(&self) -> Option<u64> {
        match self {
            JournalRecord::Open { t_ns, .. }
            | JournalRecord::Close { t_ns, .. }
            | JournalRecord::Event { t_ns, .. } => Some(*t_ns),
            JournalRecord::Flow { .. } | JournalRecord::Metric { .. } => None,
        }
    }
}

/// A position in the journal, captured with [`Journal::mark`] and
/// consumed by [`Journal::replay_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalMark {
    stored: usize,
    would: u64,
}

#[derive(Debug)]
struct State {
    salt: u64,
    seq: u64,
    budget: Option<u64>,
    /// Records *offered* (stored or dropped by the budget).
    would: u64,
    /// Latest simulated time seen on any offered record.
    max_t_ns: u64,
    records: Vec<JournalRecord>,
    stack: Vec<SpanId>,
    /// Run-budget accounting attached for the JSONL footer, if any.
    budget_account: Option<BudgetAccount>,
}

impl State {
    fn next_id(&mut self) -> SpanId {
        let id = SpanId(mix(self.salt, self.seq));
        self.seq += 1;
        id
    }

    fn offer(&mut self, rec: JournalRecord) {
        self.would += 1;
        if let Some(t) = rec.t_ns() {
            if t > self.max_t_ns {
                self.max_t_ns = t;
            }
        }
        if self.budget.is_none_or(|b| (self.records.len() as u64) < b) {
            self.records.push(rec);
        }
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
            budget: None,
            would: 0,
            max_t_ns: 0,
            records: Vec::new(),
            stack: Vec::new(),
            budget_account: None,
        }))))
    }

    /// Caps *storage* at `budget` records. Ids keep advancing past the
    /// cutoff (they are causal structure, not storage), and the account
    /// line reports the overflow as `dropped`. A budgeted journal
    /// forfeits the byte-identical replay guarantee.
    pub fn with_budget(self, budget: u64) -> Self {
        if let Some(cell) = &self.0 {
            cell.lock().budget = Some(budget);
        }
        self
    }

    /// Whether records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches a run-budget account to the JSONL footer. Journals
    /// without one keep the exact pre-budget footer bytes, so golden
    /// logs are unaffected; a replayed run re-derives the same account
    /// from its ctx, so budgeted journals stay replayable too.
    pub fn set_budget_account(&self, account: BudgetAccount) {
        if let Some(cell) = &self.0 {
            cell.lock().budget_account = Some(account);
        }
    }

    /// The attached run-budget account, if any.
    pub fn budget_account(&self) -> Option<BudgetAccount> {
        self.0.as_ref().and_then(|c| c.lock().budget_account)
    }

    /// A journal for parallel shard `index`: live iff `self` is, with a
    /// salt re-derived from `index` so shard ids never collide with the
    /// parent's. Merge it back with [`merge_from`](Journal::merge_from)
    /// in index order.
    pub fn child(&self, index: u64) -> Journal {
        match &self.0 {
            Some(cell) => Journal::new(derive_salt(cell.lock().salt, CHILD_TAG, index)),
            None => Journal::noop(),
        }
    }

    /// A journal for a side computation: live iff `self` is, with a
    /// distinct salt, and *not* merged back unless done explicitly.
    pub fn fork(&self) -> Journal {
        match &self.0 {
            Some(cell) => Journal::new(derive_salt(cell.lock().salt, FORK_TAG, 0)),
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
                    stored: s.records.len(),
                    would: s.would,
                }
            }
            None => JournalMark::default(),
        }
    }

    /// Re-emits everything logged since `mark` another `times` times,
    /// each copy shifted `shift_ns` further in simulated time. Fresh
    /// ids are minted in record order — exactly the order the reference
    /// path would consume the sequence counter — and references *inside*
    /// the copied block are remapped to the copy's ids, while references
    /// to records outside the block (e.g. the enclosing run span) pass
    /// through unchanged. This is the fast-path executors' journal dual
    /// of their timeline `push_repeat`.
    pub fn replay_cycle(&self, mark: JournalMark, times: u64, shift_ns: u64) {
        let Some(cell) = self.0.as_ref() else {
            return;
        };
        let mut s = cell.lock();
        let start = mark.stored.min(s.records.len());
        let end = s.records.len();
        // Offers the budget suppressed can't be copied, but the
        // reference path would still have offered them: account for
        // the shortfall so `dropped` stays honest under a budget.
        let missed = (s.would - mark.would).saturating_sub((end - start) as u64);
        let refs = block_refs(&s.records[start..end]);
        let mut minted: Vec<SpanId> = Vec::with_capacity(refs.len());
        for k in 1..=times {
            let off = k.saturating_mul(shift_ns);
            minted.clear();
            for (i, &[a, b]) in (start..end).zip(&refs) {
                let new = match s.records[i] {
                    JournalRecord::Open {
                        parent,
                        name,
                        t_ns,
                        tid,
                        ..
                    } => {
                        let id = s.next_id();
                        minted.push(id);
                        JournalRecord::Open {
                            id,
                            parent: parent.map(|_| a.resolve(&minted)),
                            name,
                            t_ns: t_ns + off,
                            tid,
                        }
                    }
                    JournalRecord::Event {
                        parent,
                        name,
                        t_ns,
                        tid,
                        ..
                    } => {
                        let id = s.next_id();
                        minted.push(id);
                        JournalRecord::Event {
                            id,
                            parent: parent.map(|_| a.resolve(&minted)),
                            name,
                            t_ns: t_ns + off,
                            tid,
                        }
                    }
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
                };
                s.offer(new);
            }
            s.would += missed;
        }
    }

    /// Appends a child journal's records (index-order merge after a
    /// parallel fan-out). The child's offer/time accounting folds into
    /// the parent's; the parent's budget still caps storage.
    pub fn merge_from(&self, child: &Journal) {
        let (Some(cell), Some(ccell)) = (self.0.as_ref(), child.0.as_ref()) else {
            return;
        };
        if Arc::ptr_eq(cell, ccell) {
            return;
        }
        let (recs, cwould, cmax) = {
            let c = ccell.lock();
            (c.records.clone(), c.would, c.max_t_ns)
        };
        let mut s = cell.lock();
        s.would += cwould;
        if cmax > s.max_t_ns {
            s.max_t_ns = cmax;
        }
        let room = s
            .budget
            .map_or(u64::MAX, |b| b.saturating_sub(s.records.len() as u64));
        let take = (recs.len() as u64).min(room) as usize;
        s.records.extend_from_slice(&recs[..take]);
    }

    /// A snapshot of the stored records.
    pub fn records(&self) -> Vec<JournalRecord> {
        match &self.0 {
            Some(cell) => cell.lock().records.clone(),
            None => Vec::new(),
        }
    }

    /// Serializes the journal as schema-versioned JSONL: a header line,
    /// one line per record, and a resource-accounting footer (`events`
    /// stored, `dropped` by the budget, `bytes` of everything above the
    /// footer, `sim_ns` — the latest simulated time touched — and, when
    /// a [`BudgetAccount`] is attached, a nested `budget` object with
    /// the run-budget caps, charges, would-have-run tally, and cutoff).
    pub fn to_jsonl(&self, experiment: &str, seed: u64) -> String {
        let guard = self.0.as_ref().map(|cell| cell.lock());
        let (records, would, max_t, budget) = match &guard {
            Some(s) => (&s.records[..], s.would, s.max_t_ns, s.budget_account),
            None => (&[][..], 0, 0, None),
        };
        let mut out = String::with_capacity(256 + records.len() * JSONL_BYTES_PER_RECORD);
        let _ = writeln!(
            out,
            r#"{{"schema":"{JOURNAL_SCHEMA}","experiment":"{}","seed":{seed}}}"#,
            esc(experiment)
        );
        for rec in records {
            match *rec {
                JournalRecord::Open {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => write_span_line(&mut out, "open", id, parent, name, t_ns, tid),
                JournalRecord::Event {
                    id,
                    parent,
                    name,
                    t_ns,
                    tid,
                } => write_span_line(&mut out, "event", id, parent, name, t_ns, tid),
                JournalRecord::Close { id, t_ns } => {
                    let _ = writeln!(out, r#"{{"ev":"close","id":{},"t_ns":{t_ns}}}"#, id.0);
                }
                JournalRecord::Flow { from, to, kind } => {
                    let _ = writeln!(
                        out,
                        r#"{{"ev":"flow","from":{},"to":{},"kind":"{}"}}"#,
                        from.0,
                        to.0,
                        esc(kind)
                    );
                }
                JournalRecord::Metric { name, delta } => {
                    let _ = writeln!(
                        out,
                        r#"{{"ev":"metric","name":"{}","delta":{delta}}}"#,
                        esc(name)
                    );
                }
            }
        }
        let stored = records.len() as u64;
        let bytes = out.len();
        let _ = write!(
            out,
            r#"{{"account":{{"events":{stored},"dropped":{},"bytes":{bytes},"sim_ns":{max_t}"#,
            would - stored
        );
        if let Some(b) = budget {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                r#","budget":{{"max_events":{},"max_sim_ns":{},"charged_events":{},"charged_sim_ns":{},"would_have_run":{},"cutoff_seq":{},"runs_cut":{}}}"#,
                opt(b.max_events),
                opt(b.max_sim_ns),
                b.charged_events,
                b.charged_sim_ns,
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
fn block_refs(block: &[JournalRecord]) -> Vec<[BlockRef; 2]> {
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
    let _ = writeln!(
        out,
        r#","name":"{}","t_ns":{t_ns},"tid":{tid}}}"#,
        esc(name)
    );
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
    fn budget_caps_storage_but_ids_keep_advancing() {
        let j = Journal::new(3).with_budget(2);
        let ids: Vec<_> = (0..5).map(|i| j.event("e", None, i, 0).unwrap()).collect();
        let mut uniq = ids.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "dropped offers still consume ids");
        assert_eq!(j.records().len(), 2);
        let text = j.to_jsonl("b", 0);
        assert!(text.contains(r#""events":2,"dropped":3"#), "{text}");
    }

    #[test]
    fn merge_from_fills_the_parent_budget_in_child_order() {
        let parent = Journal::new(5).with_budget(6);
        emit_call(&parent, 0);
        let child = parent.child(0);
        emit_call(&child, 10);
        emit_call(&child, 20);
        parent.merge_from(&child);
        let recs = parent.records();
        assert_eq!(recs.len(), 6);
        assert_eq!(&recs[4..], &child.records()[..2]);
        let text = parent.to_jsonl("m", 0);
        assert!(text.contains(r#""events":6,"dropped":6"#), "{text}");
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
        assert_eq!(fast.to_jsonl("x", 5), reference.to_jsonl("x", 5));
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
            max_sim_ns: None,
            charged_events: 5,
            charged_sim_ns: 900,
            would_have_run: 3,
            cutoff_seq: Some(6),
            runs_cut: 1,
        });
        assert_eq!(j.budget_account().unwrap().charged_events, 5);
        let text = j.to_jsonl("x", 1);
        let footer = text.lines().last().unwrap();
        assert!(
            footer.contains(
                r#""budget":{"max_events":8,"max_sim_ns":null,"charged_events":5,"charged_sim_ns":900,"would_have_run":3,"cutoff_seq":6,"runs_cut":1}"#
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
