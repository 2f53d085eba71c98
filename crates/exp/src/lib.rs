//! # hprc-exp
//!
//! The experiment harness: regenerates every table and figure of the paper
//! (Table 1, Table 2, Figure 5, Figure 9(a)/(b), the Figures 2-4 execution
//! profiles) plus the extension experiments E1-E6 of DESIGN.md, printing
//! paper-vs-reproduced comparisons and writing JSON/CSV artifacts under
//! `results/`.
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
use std::path::Path;

use hprc_ctx::ExecCtx;
use report::Report;

/// Why an experiment (or one of its side-artifacts) could not be
/// produced. The harness surfaces these as non-zero exits with a
/// message instead of panicking mid-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpError {
    /// The id is not in [`ALL_EXPERIMENTS`].
    UnknownId(String),
    /// The fleet orchestrator failed (a node simulation rejected its
    /// inputs or the budget accounting was inconsistent).
    Fleet(fleet::FleetError),
    /// A payload would not serialize to JSON.
    Serialize(String),
    /// An experiment worker panicked; the message is the panic payload.
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

/// All experiment ids, in presentation order.
pub const ALL_EXPERIMENTS: [&str; 24] = [
    "summary",
    "table1",
    "table2",
    "fig5",
    "fig9a",
    "fig9b",
    "profiles",
    "validate",
    "ext-prefetch",
    "ext-decision",
    "ext-flows",
    "ext-granularity",
    "ext-icap",
    "ext-compress",
    "ext-multitask",
    "ext-hybrid",
    "ext-landscape",
    "ext-defrag",
    "ext-fit",
    "ext-platforms",
    "ext-flexible",
    "ext-faults",
    "ext-preempt",
    "ext-fleet",
];

/// One-line description per experiment id, in [`ALL_EXPERIMENTS`] order
/// (what `hprc-exp list` prints).
pub const EXPERIMENT_DESCRIPTIONS: [(&str, &str); 24] = [
    (
        "summary",
        "Paper-vs-reproduced digest of every headline number",
    ),
    ("table1", "Table 1: the three image filters' per-call times"),
    (
        "table2",
        "Table 2: configuration times and X ratios per platform",
    ),
    (
        "fig5",
        "Figure 5: analytic speedup bound vs task:config ratio",
    ),
    (
        "fig9a",
        "Figure 9(a): measured-vs-model speedup, estimated node",
    ),
    (
        "fig9b",
        "Figure 9(b): measured-vs-model speedup, measured node",
    ),
    (
        "profiles",
        "Figures 2-4: FRTR / all-miss / pre-fetched timelines",
    ),
    (
        "validate",
        "Cross-checks the simulator against the closed forms",
    ),
    ("ext-prefetch", "E1: prefetch policies vs hit ratio H"),
    ("ext-decision", "E2: decision-latency sensitivity"),
    (
        "ext-flows",
        "E3: data-flow regimes on the shared input channel",
    ),
    ("ext-granularity", "E4: PRR granularity sweep"),
    ("ext-icap", "E5: ICAP bandwidth sweep"),
    ("ext-compress", "E6: bitstream compression sweep"),
    (
        "ext-multitask",
        "Multi-tasking contention on the configuration port",
    ),
    ("ext-hybrid", "Hybrid FRTR/PRTR cutover policies"),
    ("ext-landscape", "Speedup landscape over (H, X_PRTR)"),
    (
        "ext-defrag",
        "Fragmentation and defragmentation of the PRR pool",
    ),
    ("ext-fit", "Bitstream placement/fitting strategies"),
    ("ext-platforms", "Cross-platform calibration sweep"),
    ("ext-flexible", "Flexible region shapes and relocation"),
    (
        "ext-faults",
        "Fault injection and recovery across the reconfig path",
    ),
    (
        "ext-preempt",
        "Preemptive execution via PR: deadlines, priority + EDF",
    ),
    (
        "ext-fleet",
        "Fleet-scale orchestration: kills, racks, run budgets",
    ),
];

/// The one-line description for an experiment id, if known.
pub fn describe(id: &str) -> Option<&'static str> {
    EXPERIMENT_DESCRIPTIONS
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, d)| *d)
}

/// Runs one experiment by id (see [`ALL_EXPERIMENTS`]).
///
/// The context carries everything cross-cutting: substrate metrics and
/// per-experiment spans land in `ctx.registry`, workload RNG streams
/// derive from `ctx.seed`, and sweeps fan out across `ctx.jobs` worker
/// threads (deterministically — results are identical at any budget).
/// `ExecCtx::default()` is the plain serial, uninstrumented run.
pub fn run_experiment(id: &str, ctx: &ExecCtx) -> Result<Report, ExpError> {
    Ok(match id {
        "summary" => experiments::summary::run(ctx),
        "table1" => experiments::table1::run(ctx),
        "table2" => experiments::table2::run(ctx),
        "fig5" => experiments::fig5::run(ctx),
        "fig9a" => experiments::fig9::run(experiments::fig9::Panel::Estimated, ctx),
        "fig9b" => experiments::fig9::run(experiments::fig9::Panel::Measured, ctx),
        "profiles" => experiments::profiles::run(ctx),
        "validate" => experiments::validate::run(ctx),
        "ext-prefetch" => experiments::ext_prefetch::run(ctx),
        "ext-decision" => experiments::ext_decision::run(ctx),
        "ext-flows" => experiments::ext_flows::run(ctx),
        "ext-granularity" => experiments::ext_granularity::run(ctx),
        "ext-compress" => experiments::ext_compress::run(ctx),
        "ext-multitask" => experiments::ext_multitask::run(ctx),
        "ext-hybrid" => experiments::ext_hybrid::run(ctx),
        "ext-landscape" => experiments::ext_landscape::run(ctx),
        "ext-defrag" => experiments::ext_defrag::run(ctx),
        "ext-fit" => experiments::ext_fit::run(ctx),
        "ext-platforms" => experiments::ext_platforms::run(ctx),
        "ext-flexible" => experiments::ext_flexible::run(ctx),
        "ext-faults" => experiments::ext_faults::run(ctx),
        "ext-preempt" => experiments::ext_preempt::run(ctx),
        "ext-fleet" => experiments::ext_fleet::run(ctx)?,
        "ext-icap" => experiments::ext_icap::run(ctx),
        _ => return Err(ExpError::UnknownId(id.to_string())),
    })
}

/// A copy of `ctx` with recording silenced: used for side-artifacts
/// (Chrome traces, CSV series) that re-run scenarios, so they don't
/// double-count activity in the experiment's own metrics.
fn quiet(ctx: &ExecCtx) -> ExecCtx {
    ExecCtx {
        registry: hprc_obs::Registry::noop(),
        journal: hprc_obs::Journal::noop(),
        ..ctx.clone()
    }
}

/// Salt for the fixed side-journal that decorates Chrome traces with
/// flow arrows. Any constant works — the export only reads structure,
/// never raw ids — but it must be *one* constant so traces stay
/// byte-identical across runs and `--jobs` budgets.
const TRACE_FLOW_SALT: u64 = 0x0C0A_1D0E;

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

/// Re-runs experiment `id` under a live journal and returns the JSONL
/// journal text — the exact bytes `--trace` writes to
/// `<id>.journal.jsonl` for the same `(id, seed)`, at any `jobs`
/// budget. Errors for an unknown id or a failed run.
pub fn run_journaled(id: &str, seed: u64, jobs: usize) -> Result<String, ExpError> {
    let ctx = ExecCtx::default()
        .with_registry(hprc_obs::Registry::new())
        .with_journal(hprc_obs::Journal::new(journal_salt(id, seed)))
        .with_seed(seed)
        .with_jobs(jobs);
    run_experiment(id, &ctx)?;
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
fn assemble_trace(
    events: Vec<hprc_obs::ChromeEvent>,
    processes: &[(u64, &str)],
    flows: Vec<hprc_obs::ChromeEvent>,
) -> Vec<hprc_obs::ChromeEvent> {
    use std::collections::BTreeSet;
    let rows: BTreeSet<(u64, u64)> = events.iter().map(|e| (e.pid, e.tid)).collect();
    let mut out = Vec::with_capacity(events.len() + flows.len() + rows.len() + processes.len());
    for (pid, name) in processes {
        out.push(hprc_obs::ChromeEvent::process_name(*pid, *name));
    }
    for (pid, tid) in rows {
        out.push(hprc_obs::ChromeEvent::thread_name(pid, tid, lane_name(tid)));
    }
    out.extend(events);
    out.extend(flows);
    out
}

/// A representative Chrome trace (trace-event format) for experiments
/// that have one: the peak-speedup PRTR timeline for the Figure 9
/// panels, the three Figures 2-4 profiles for `profiles`. Every trace
/// opens with `ph:"M"` metadata naming its process/thread rows; the
/// single-timeline traces additionally carry the journal's causal
/// links (decision→configure→execute, fault→retry) as Chrome flow
/// arrows (`ph:"s"`/`"f"`). `Ok(None)` for experiments without one.
pub fn chrome_trace(
    id: &str,
    ctx: &ExecCtx,
) -> Result<Option<Vec<hprc_obs::ChromeEvent>>, ExpError> {
    let quiet = quiet(ctx);
    // Flow-bearing traces re-run under a fresh fixed-salt journal so
    // the causal links can be exported; the fixed salt (not the run
    // seed) keeps the artifact a pure function of the experiment.
    let journaled = ExecCtx {
        journal: hprc_obs::Journal::new(TRACE_FLOW_SALT),
        ..quiet.clone()
    };
    Ok(Some(match id {
        "fig9a" => {
            let events = experiments::fig9::peak_timeline(
                experiments::fig9::Panel::Estimated,
                30,
                &journaled,
            )
            .chrome_events(1);
            let flows = journaled
                .journal
                .chrome_flow_events(1, Some("sim.run_prtr"));
            assemble_trace(events, &[(1, "fig9a peak PRTR")], flows)
        }
        "fig9b" => {
            let events = experiments::fig9::peak_timeline(
                experiments::fig9::Panel::Measured,
                30,
                &journaled,
            )
            .chrome_events(1);
            let flows = journaled
                .journal
                .chrome_flow_events(1, Some("sim.run_prtr"));
            assemble_trace(events, &[(1, "fig9b peak PRTR")], flows)
        }
        "profiles" => assemble_trace(
            experiments::profiles::chrome_trace(&quiet),
            &[(1, "FRTR"), (2, "PRTR all-miss"), (3, "PRTR pre-fetched")],
            Vec::new(),
        ),
        "ext-faults" => {
            let events = experiments::ext_faults::chrome_trace(&journaled, &ctx.registry);
            let flows = journaled
                .journal
                .chrome_flow_events(1, Some("sim.run_prtr"));
            assemble_trace(events, &[(1, "faulty PRTR")], flows)
        }
        "ext-preempt" => {
            let events = experiments::ext_preempt::chrome_trace(&journaled, &ctx.registry);
            let flows = journaled
                .journal
                .chrome_flow_events(1, Some("sim.run_preemptive"));
            assemble_trace(events, &[(1, "preemptive schedule")], flows)
        }
        "ext-fleet" => {
            // The cluster trace: the journal itself is the event source
            // (orchestrator dispatches/spans + witness node journals),
            // with dispatch flow arrows linking them.
            let events = experiments::ext_fleet::chrome_trace(&journaled, &ctx.registry)?;
            let flows = journaled.journal.chrome_flow_events(1, None);
            assemble_trace(events, &[(1, "fleet cluster")], flows)
        }
        _ => return Ok(None),
    }))
}

/// A representative wall-clock attribution for experiments that have
/// one: the peak operating point of the Figure 9 panels, the all-miss
/// profile pair for `profiles` — the `<id>.attr.json` artifact written
/// next to the `--trace` outputs. Runs under a silenced context, so the
/// re-run doesn't perturb the experiment's own metrics; single-point
/// runs are serial, so the result is byte-identical at any `--jobs`.
pub fn attribution(id: &str, ctx: &ExecCtx) -> Option<hprc_attr::AttributionReport> {
    let quiet = quiet(ctx);
    Some(match id {
        "fig9a" => {
            experiments::fig9::peak_attribution(experiments::fig9::Panel::Estimated, 300, &quiet)
        }
        "fig9b" => {
            experiments::fig9::peak_attribution(experiments::fig9::Panel::Measured, 300, &quiet)
        }
        "profiles" => experiments::profiles::attribution(&quiet),
        "ext-faults" => experiments::ext_faults::attribution(&quiet),
        "ext-preempt" => experiments::ext_preempt::attribution(&quiet),
        _ => return None,
    })
}

/// The CSV side-artifact (curve series) text for an experiment, if it
/// has one — the exact bytes `write_series` seals to `<id>.csv`.
pub fn series_text(id: &str, ctx: &ExecCtx) -> Result<Option<String>, ExpError> {
    let quiet = quiet(ctx);
    let series = match id {
        "fig5" => experiments::fig5::series(),
        "fig9a" => experiments::fig9::series(experiments::fig9::Panel::Estimated, &quiet),
        "fig9b" => experiments::fig9::series(experiments::fig9::Panel::Measured, &quiet),
        "ext-landscape" => experiments::ext_landscape::series(),
        "ext-faults" => experiments::ext_faults::series(&quiet),
        "ext-preempt" => experiments::ext_preempt::series(&quiet),
        "ext-fleet" => experiments::ext_fleet::series(&quiet)?,
        _ => return Ok(None),
    };
    Ok(Some(report::series_csv_text(&series)))
}

/// Writes (seals) an experiment's CSV side-artifacts, if it has any.
pub fn write_series(id: &str, dir: &Path, ctx: &ExecCtx) -> std::io::Result<()> {
    match series_text(id, ctx) {
        Ok(Some(csv)) => {
            std::fs::create_dir_all(dir)?;
            hprc_obs::artifact::seal(&dir.join(format!("{id}.csv")), csv.as_bytes())?;
            Ok(())
        }
        Ok(None) => Ok(()),
        Err(e) => Err(std::io::Error::other(e.to_string())),
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn descriptions_cover_all_experiments_in_order() {
        assert_eq!(EXPERIMENT_DESCRIPTIONS.len(), ALL_EXPERIMENTS.len());
        for ((id, description), expected) in EXPERIMENT_DESCRIPTIONS.iter().zip(ALL_EXPERIMENTS) {
            assert_eq!(*id, expected, "descriptions must follow presentation order");
            assert!(!description.is_empty());
            assert!(description.len() <= 60, "keep `list` one-line: {id}");
        }
        assert_eq!(
            describe("ext-preempt"),
            Some("Preemptive execution via PR: deadlines, priority + EDF")
        );
        assert!(describe("no-such-id").is_none());
    }
}
