//! # hprc-exp
//!
//! The experiment harness: regenerates every table and figure of the paper
//! (Table 1, Table 2, Figure 5, Figure 9(a)/(b), the Figures 2-4 execution
//! profiles) plus the `ext-*` extension experiments of DESIGN.md, printing
//! paper-vs-reproduced comparisons and writing JSON/CSV artifacts under
//! `results/`. [`EXPERIMENTS`] is the one table of them: the CLI, `list`,
//! `resume` and `journal replay-check` all read it.
//!
//! Run everything with the `hprc-exp` binary:
//!
//! ```text
//! cargo run --release -p hprc-exp -- all
//! cargo run --release -p hprc-exp -- fig9b table2
//! cargo run --release -p hprc-exp -- all --jobs 4 --seed 7
//! ```
//!
//! `--jobs` only changes wall-clock time: the [`runner`] fans sweeps
//! and experiments out deterministically, so every artifact is
//! byte-identical at any parallelism.

#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;
pub mod journal_cli;
pub mod recover;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table;

use std::fmt;

use experiments::fig9::Panel;
use hprc_attr::AttributionReport;
use hprc_ctx::ExecCtx;
use hprc_obs::{ChromeEvent, DeltaCache, Journal, Registry};
use report::{Report, Series};

/// Why an experiment (or one of its side-artifacts) could not be
/// produced. The harness surfaces these as non-zero exits with a
/// message instead of panicking mid-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpError {
    /// The id is not in [`EXPERIMENTS`].
    UnknownId(String),
    /// The fleet orchestrator failed (a node simulation rejected its
    /// inputs).
    Fleet(fleet::FleetError),
    /// A payload would not serialize to JSON.
    Serialize(String),
    /// An experiment or one of its side-artifact builders panicked; the
    /// message is the panic payload.
    Panicked(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::UnknownId(id) => write!(f, "unknown experiment: {id}"),
            ExpError::Fleet(e) => write!(f, "fleet orchestrator: {e}"),
            ExpError::Serialize(e) => write!(f, "serialization: {e}"),
            ExpError::Panicked(msg) => write!(f, "experiment panicked: {msg}"),
        }
    }
}

impl std::error::Error for ExpError {}

impl From<fleet::FleetError> for ExpError {
    fn from(e: fleet::FleetError) -> ExpError {
        ExpError::Fleet(e)
    }
}

impl From<serde_json::Error> for ExpError {
    fn from(e: serde_json::Error) -> ExpError {
        ExpError::Serialize(e.to_string())
    }
}

/// How an experiment runs. The variant says, without running anything,
/// whether the experiment writes an `<id>.csv`.
#[derive(Clone, Copy)]
pub enum Run {
    /// The report alone.
    Plain(fn(&ExecCtx) -> Result<Report, ExpError>),
    /// The report and the curves of its `<id>.csv`, from one execution.
    WithSeries(fn(&ExecCtx) -> Result<(Report, Series), ExpError>),
}

/// Builds an experiment's `<id>.trace.json` events from the silenced
/// trace context and the experiment's live registry (see
/// [`Experiment`]).
pub type TraceBuilder = fn(&ExecCtx, &Registry) -> Result<Vec<ChromeEvent>, ExpError>;

/// One experiment: its id, its `list` line, how it runs, and the
/// builders of its `--trace` side artifacts.
///
/// The builders are not re-runs of the experiment: each executes one
/// representative point of its own. The trace builder runs under a
/// registry-silenced context whose journal has the fixed salt
/// `TRACE_FLOW_SALT` (so its flow arrows are a pure function of the
/// experiment), and gets the experiment's live registry to record
/// truncation into; the attribution builder runs fully silenced.
pub struct Experiment {
    /// The id the CLI takes (`fig9b`, `ext-faults`, ...).
    pub id: &'static str,
    /// The one-line description `hprc-exp list` prints.
    pub description: &'static str,
    /// Runs the experiment.
    pub run: Run,
    /// Builds the `<id>.trace.json` Chrome trace.
    pub trace: Option<TraceBuilder>,
    /// Builds the `<id>.attr.json` attribution.
    pub attribution: Option<fn(&ExecCtx) -> AttributionReport>,
}

/// An entry without side artifacts.
const fn entry(id: &'static str, description: &'static str, run: Run) -> Experiment {
    Experiment {
        id,
        description,
        run,
        trace: None,
        attribution: None,
    }
}

/// Every experiment, in presentation order.
pub const EXPERIMENTS: [Experiment; 24] = {
    use experiments::*;
    [
        entry(
            "summary",
            "Paper-vs-reproduced digest of every headline number",
            Run::Plain(|c| Ok(summary::run(c))),
        ),
        entry(
            "table1",
            "Table 1: the three image filters' per-call times",
            Run::Plain(|_| Ok(table1::run())),
        ),
        entry(
            "table2",
            "Table 2: configuration times and X ratios per platform",
            Run::Plain(|_| Ok(table2::run())),
        ),
        entry(
            "fig5",
            "Figure 5: analytic speedup bound vs task:config ratio",
            Run::WithSeries(|_| Ok(fig5::run_with_series())),
        ),
        Experiment {
            trace: Some(|c, _| Ok(fig9::trace(Panel::Estimated, c))),
            attribution: Some(|c| fig9::peak_attribution(Panel::Estimated, c)),
            ..entry(
                "fig9a",
                "Figure 9(a): measured-vs-model speedup, estimated node",
                Run::WithSeries(|c| Ok(fig9::run_with_series(Panel::Estimated, c))),
            )
        },
        Experiment {
            trace: Some(|c, _| Ok(fig9::trace(Panel::Measured, c))),
            attribution: Some(|c| fig9::peak_attribution(Panel::Measured, c)),
            ..entry(
                "fig9b",
                "Figure 9(b): measured-vs-model speedup, measured node",
                Run::WithSeries(|c| Ok(fig9::run_with_series(Panel::Measured, c))),
            )
        },
        Experiment {
            trace: Some(|c, _| Ok(profiles::trace(c))),
            attribution: Some(profiles::attribution),
            ..entry(
                "profiles",
                "Figures 2-4: FRTR / all-miss / pre-fetched timelines",
                Run::Plain(|c| Ok(profiles::run(c))),
            )
        },
        entry(
            "validate",
            "Cross-checks the simulator against the closed forms",
            Run::Plain(|c| Ok(validate::run(c))),
        ),
        entry(
            "ext-prefetch",
            "E1: prefetch policies vs hit ratio H",
            Run::Plain(|c| Ok(ext_prefetch::run(c))),
        ),
        entry(
            "ext-decision",
            "E2: decision-latency sensitivity",
            Run::Plain(|_| Ok(ext_decision::run())),
        ),
        entry(
            "ext-flows",
            "E3: data-flow regimes on the shared input channel",
            Run::Plain(|_| Ok(ext_flows::run())),
        ),
        entry(
            "ext-granularity",
            "E4: PRR granularity sweep",
            Run::Plain(|c| Ok(ext_granularity::run(c))),
        ),
        entry(
            "ext-icap",
            "E5: ICAP bandwidth sweep",
            Run::Plain(|c| Ok(ext_icap::run(c))),
        ),
        entry(
            "ext-compress",
            "E6: bitstream compression sweep",
            Run::Plain(|_| Ok(ext_compress::run())),
        ),
        entry(
            "ext-multitask",
            "Multi-tasking contention on the configuration port",
            Run::Plain(|c| Ok(ext_multitask::run(c))),
        ),
        entry(
            "ext-hybrid",
            "Hybrid FRTR/PRTR cutover policies",
            Run::Plain(|_| Ok(ext_hybrid::run())),
        ),
        entry(
            "ext-landscape",
            "Speedup landscape over (H, X_PRTR)",
            Run::WithSeries(|_| Ok(ext_landscape::run_with_series())),
        ),
        entry(
            "ext-defrag",
            "Fragmentation and defragmentation of the PRR pool",
            Run::Plain(|_| Ok(ext_defrag::run())),
        ),
        entry(
            "ext-fit",
            "Bitstream placement/fitting strategies",
            Run::Plain(|c| Ok(ext_fit::run(c))),
        ),
        entry(
            "ext-platforms",
            "Cross-platform calibration sweep",
            Run::Plain(|c| Ok(ext_platforms::run(c))),
        ),
        entry(
            "ext-flexible",
            "Flexible region shapes and relocation",
            Run::Plain(|c| Ok(ext_flexible::run(c))),
        ),
        Experiment {
            trace: Some(|c, r| Ok(ext_faults::trace(c, r))),
            attribution: Some(ext_faults::attribution),
            ..entry(
                "ext-faults",
                "Fault injection and recovery across the reconfig path",
                Run::WithSeries(|c| Ok(ext_faults::run_with_series(c))),
            )
        },
        Experiment {
            trace: Some(|c, r| Ok(ext_preempt::trace(c, r))),
            attribution: Some(ext_preempt::attribution),
            ..entry(
                "ext-preempt",
                "Preemptive execution via PR: deadlines, priority + EDF",
                Run::WithSeries(|c| Ok(ext_preempt::run_with_series(c))),
            )
        },
        Experiment {
            trace: Some(|c, r| Ok(ext_fleet::trace(c, r)?)),
            ..entry(
                "ext-fleet",
                "Fleet-scale orchestration: kills, racks, run budgets",
                Run::WithSeries(|c| Ok(ext_fleet::run_with_series(c)?)),
            )
        },
    ]
};

/// All experiment ids, in presentation order (the ids of
/// [`EXPERIMENTS`]).
pub const ALL_EXPERIMENTS: [&str; 24] = {
    let mut ids = [""; 24];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = EXPERIMENTS[i].id;
        i += 1;
    }
    ids
};

/// The [`EXPERIMENTS`] entry for `id`.
pub fn experiment(id: &str) -> Result<&'static Experiment, ExpError> {
    let table: &'static [Experiment] = &EXPERIMENTS;
    table
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| ExpError::UnknownId(id.to_string()))
}

impl Experiment {
    /// Runs the experiment once: its report, plus the curves of its
    /// `<id>.csv` if it has one.
    ///
    /// The context carries everything cross-cutting: substrate metrics
    /// land in `ctx.registry`, workload RNG streams derive from
    /// `ctx.seed`, and sweeps fan out across `ctx.jobs` worker threads
    /// (deterministically — results are identical at any budget).
    /// `ExecCtx::default()` is the plain serial, uninstrumented run.
    pub fn execute(&self, ctx: &ExecCtx) -> Result<(Report, Option<Series>), ExpError> {
        match self.run {
            Run::Plain(run) => Ok((run(ctx)?, None)),
            Run::WithSeries(run) => run(ctx).map(|(report, series)| (report, Some(series))),
        }
    }

    /// The `<id>.trace.json` Chrome trace, if the experiment has one:
    /// `ph:"M"` metadata naming its process/thread rows, the
    /// representative timeline's events and, for single-timeline
    /// traces, the journal's causal links as flow arrows. Truncation
    /// accounting lands in `ctx.registry`.
    pub fn chrome_trace(&self, ctx: &ExecCtx) -> Result<Option<Vec<ChromeEvent>>, ExpError> {
        let Some(build) = self.trace else {
            return Ok(None);
        };
        let journaled = ExecCtx {
            journal: Journal::new(TRACE_FLOW_SALT),
            ..quiet(ctx)
        };
        build(&journaled, &ctx.registry).map(Some)
    }

    /// The `<id>.attr.json` attribution, if the experiment has one; it
    /// never records into `ctx`.
    pub fn attribution(&self, ctx: &ExecCtx) -> Option<AttributionReport> {
        self.attribution.map(|build| build(&quiet(ctx)))
    }
}

/// Runs experiment `id` and returns its report (see
/// [`Experiment::execute`]). Kept for the repository benchmark's regen
/// workload until it calls [`recover::produce`] (ROADMAP item 1).
pub fn run_experiment(id: &str, ctx: &ExecCtx) -> Result<Report, ExpError> {
    Ok(experiment(id)?.execute(ctx)?.0)
}

/// The `<id>.trace.json` events of experiment `id` (see
/// [`Experiment::chrome_trace`]); `Ok(None)` without one. Kept for the
/// repository benchmark's regen workload until ROADMAP item 1.
pub fn chrome_trace(id: &str, ctx: &ExecCtx) -> Result<Option<Vec<ChromeEvent>>, ExpError> {
    experiment(id).map_or(Ok(None), |e| e.chrome_trace(ctx))
}

/// The `<id>.attr.json` attribution of experiment `id` (see
/// [`Experiment::attribution`]). Kept for the repository benchmark's
/// regen workload until ROADMAP item 1.
pub fn attribution(id: &str, ctx: &ExecCtx) -> Option<AttributionReport> {
    experiment(id).ok()?.attribution(ctx)
}

/// The `<id>.csv` text of experiment `id`: a silenced run of a
/// [`Run::WithSeries`] entry; `Ok(None)`, without running anything,
/// for the rest. Kept for the repository benchmark's regen workload
/// until ROADMAP item 1.
pub fn series_text(id: &str, ctx: &ExecCtx) -> Result<Option<String>, ExpError> {
    match experiment(id).map(|e| e.run) {
        Ok(Run::WithSeries(run)) => Ok(Some(report::series_csv_text(&run(&quiet(ctx))?.1))),
        _ => Ok(None),
    }
}

/// A copy of `ctx` with recording silenced, for the side-artifact
/// builders, so they don't double-count activity in the experiment's
/// own metrics and journal.
pub(crate) fn quiet(ctx: &ExecCtx) -> ExecCtx {
    ExecCtx {
        registry: Registry::noop(),
        journal: Journal::noop(),
        ..ctx.clone()
    }
}

/// Salt for the fixed side-journal that decorates Chrome traces with
/// flow arrows. Any constant works — the export only reads structure,
/// never raw ids — but it must be *one* constant so traces stay
/// byte-identical across runs and `--jobs` budgets.
pub(crate) const TRACE_FLOW_SALT: u64 = 0x0C0A_1D0E;

/// The deterministic journal salt for one experiment run: FNV-1a over
/// the experiment id, XOR the base seed. Gives every experiment a
/// distinct, stable [`SpanId`](hprc_obs::SpanId) namespace while
/// keeping `<id>.journal.jsonl` reproducible from `(id, seed)` alone —
/// which is exactly what `hprc-exp journal replay-check` re-derives.
pub fn journal_salt(id: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ seed
}

/// The context experiment `id` runs under: with `traced`, a live
/// registry and a journal salted by [`journal_salt`]; silent otherwise.
pub fn experiment_ctx(
    id: &str,
    seed: u64,
    jobs: usize,
    traced: bool,
    delta: DeltaCache,
) -> ExecCtx {
    let ctx = ExecCtx::default()
        .with_seed(seed)
        .with_jobs(jobs)
        .with_delta(delta);
    if traced {
        ctx.with_registry(Registry::new())
            .with_journal(Journal::new(journal_salt(id, seed)))
    } else {
        ctx
    }
}

/// Runs experiment `id` under a live journal and returns the JSONL
/// journal text — the exact bytes `--trace` writes to
/// `<id>.journal.jsonl` for the same `(id, seed)`, at any `jobs`
/// budget. Errors for an unknown id or a failed run.
pub fn run_journaled(id: &str, seed: u64, jobs: usize) -> Result<String, ExpError> {
    let ctx = experiment_ctx(id, seed, jobs, true, DeltaCache::disabled());
    experiment(id)?.execute(&ctx)?;
    Ok(ctx.journal.to_jsonl(id, seed))
}

/// Chrome lane name for a thread row (`Lane::chrome_tid` inverse).
fn lane_name(tid: u64) -> String {
    match tid {
        0 => "host".to_string(),
        1 => "config-port".to_string(),
        2 => "link-in".to_string(),
        3 => "link-out".to_string(),
        t if t >= 10 => format!("prr{}", t - 10),
        t => format!("tid{t}"),
    }
}

/// Prepends `ph:"M"` process/thread-naming metadata (derived from the
/// distinct `(pid, tid)` rows of `events`) and appends causal flow
/// arrows, producing the final trace artifact.
pub(crate) fn assemble_trace(
    events: Vec<ChromeEvent>,
    processes: &[(u64, &str)],
    flows: Vec<ChromeEvent>,
) -> Vec<ChromeEvent> {
    use std::collections::BTreeSet;
    let rows: BTreeSet<(u64, u64)> = events.iter().map(|e| (e.pid, e.tid)).collect();
    let mut out = Vec::with_capacity(events.len() + flows.len() + rows.len() + processes.len());
    for (pid, name) in processes {
        out.push(ChromeEvent::process_name(*pid, *name));
    }
    for (pid, tid) in rows {
        out.push(ChromeEvent::thread_name(pid, tid, lane_name(tid)));
    }
    out.extend(events);
    out.extend(flows);
    out
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn descriptions_cover_all_experiments_in_order() {
        assert_eq!(EXPERIMENTS.len(), ALL_EXPERIMENTS.len());
        for (i, (e, expected)) in EXPERIMENTS.iter().zip(ALL_EXPERIMENTS).enumerate() {
            assert_eq!(e.id, expected, "ids must follow presentation order");
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
                "duplicate id {}",
                e.id
            );
            assert!(!e.description.is_empty());
            assert!(e.description.len() <= 60, "keep `list` one-line: {}", e.id);
        }
        assert_eq!(
            experiment("ext-preempt").map(|e| e.description),
            Ok("Preemptive execution via PR: deadlines, priority + EDF")
        );
        assert!(experiment("no-such-id").is_err());
    }
}
