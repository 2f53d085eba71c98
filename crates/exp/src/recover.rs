//! Crash-safe runs: the write-ahead manifest protocol, the in-order
//! artifact committer, and the `hprc-exp resume` subcommand.
//!
//! Protocol (see [`hprc_obs::manifest`] for the wire format): the run
//! writes an `intent` entry, then for each experiment in id order a
//! `point-begin`, one `artifact-sealed` per artifact (after the sealed
//! bytes are durable), and a `point-complete`; a final `run-complete`
//! closes the run. Each entry is fsynced before the side effects it
//! announces, so after a crash the manifest tells resume exactly which
//! points are salvageable.
//!
//! Workers compute experiments in parallel, each assembling every
//! artifact of its point (see [`produce`]), but *committing* — printing
//! the report and sealing artifacts — happens on one thread in id
//! order. That makes the manifest seq assignment deterministic at any
//! `--jobs`, which is what lets `--crash-at SEQ` reproduce the
//! identical on-disk state on every run, and resumed artifacts land
//! byte-identical to an uninterrupted run.
//!
//! Resume re-verifies every sealed artifact by CRC before salvaging:
//! a `point-complete` entry alone is necessary but not sufficient —
//! torn or corrupted files are always detected and re-executed.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use hprc_ctx::ExecCtx;
use hprc_obs::artifact;
use hprc_obs::manifest::{ArtifactDirKind, Manifest, MANIFEST_SCHEMA};
use serde_json::Value;

use crate::report::{series_csv_text, Report};
use crate::{ExpError, Experiment};

/// The manifest path for run id `run` under the out directory. A run
/// id names one file there, so it must be non-empty and hold no `/`:
/// `--run-id` and `resume RUN_ID` are both checked here.
pub fn manifest_path(out_dir: &Path, run: &str) -> Result<PathBuf, String> {
    if run.is_empty() || run.contains('/') {
        return Err(format!(
            "run id must be a non-empty name without '/', got {run:?}"
        ));
    }
    Ok(out_dir.join(format!("{run}.manifest.jsonl")))
}

/// Parses `HPRC_CRASH_AT` (the CI-facing twin of `--crash-at`).
/// Unset is disarmed; a set-but-unparseable value is an error, never a
/// silent disarm.
pub fn crash_at_from_env() -> Result<Option<u64>, String> {
    match std::env::var("HPRC_CRASH_AT") {
        Ok(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("HPRC_CRASH_AT must be an unsigned integer, got {v:?}")),
        Err(_) => Ok(None),
    }
}

/// One `artifact-sealed` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedArtifact {
    /// Which run directory the artifact lives in.
    pub dir: ArtifactDirKind,
    /// File name within that directory.
    pub name: String,
    /// CRC32 the artifact was sealed with.
    pub crc: u32,
    /// Length the artifact was sealed with.
    pub bytes: u64,
}

/// Everything the manifest recorded about one experiment.
#[derive(Debug, Clone, Default)]
pub struct PointRecord {
    /// A `point-begin` was logged (artifacts may be half-written).
    pub begun: bool,
    /// A `point-complete` was logged (all seals were durable).
    pub complete: bool,
    /// Sealed artifacts since the last `point-begin`.
    pub sealed: Vec<SealedArtifact>,
}

/// A parsed write-ahead manifest.
#[derive(Debug)]
pub struct ParsedManifest {
    /// Run id from the intent line.
    pub run: String,
    /// Experiment ids the run intended, in commit order.
    pub ids: Vec<String>,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Whether the run wrote `--trace` artifacts.
    pub trace: bool,
    /// Seq the next appended entry should get.
    pub next_seq: u64,
    /// Byte length of the valid prefix (a torn final line — a real
    /// crash mid-append — is excluded; resume truncates to this).
    pub valid_bytes: usize,
    /// A `run-complete` entry was logged.
    pub run_complete: bool,
    /// Per-experiment state.
    pub points: BTreeMap<String, PointRecord>,
}

fn str_field(v: &Value, key: &str, line: usize) -> Result<String, String> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("manifest line {line}: missing string field {key:?}"))
}

/// The `id` of a point entry, which must be one the intent lists.
fn point_id(v: &Value, m: &ParsedManifest, line: usize) -> Result<String, String> {
    let id = str_field(v, "id", line)?;
    if !m.ids.contains(&id) {
        return Err(format!(
            "manifest line {line}: id {id:?} is not in the intent"
        ));
    }
    Ok(id)
}

/// Parses a manifest. Only the *final* line may be malformed (the
/// signature of a crash mid-append); a bad line anywhere else is an
/// error, as is a seq discontinuity. Points are keyed by id, so an
/// intent that repeats an id, or a point entry for an id the intent
/// does not list, is an error too.
pub fn parse_manifest(text: &str) -> Result<ParsedManifest, String> {
    let mut parsed: Option<ParsedManifest> = None;
    let mut consumed = 0usize;
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for (i, raw) in lines.iter().enumerate() {
        let line_no = i + 1;
        let is_last = i + 1 == lines.len();
        let complete_line = raw.ends_with('\n');
        let entry: Value = match serde_json::from_str(raw.trim_end_matches('\n')) {
            Ok(v) => v,
            Err(e) if is_last => {
                // A torn tail is expected after a crash; everything
                // before it is still authoritative.
                eprintln!("note: ignoring torn manifest tail at line {line_no}: {e}");
                break;
            }
            Err(e) => return Err(format!("manifest line {line_no}: {e}")),
        };
        if is_last && !complete_line {
            // Parsed, but the newline never made it to disk — treat as
            // torn: the entry's side effects may not have happened.
            eprintln!("note: ignoring unterminated manifest tail at line {line_no}");
            break;
        }
        let seq = entry["seq"]
            .as_u64()
            .ok_or_else(|| format!("manifest line {line_no}: missing seq"))?;
        if seq != (line_no as u64) - 1 {
            return Err(format!(
                "manifest line {line_no}: seq {seq} out of order (expected {})",
                line_no - 1
            ));
        }
        let ev = str_field(&entry, "ev", line_no)?;
        match (&mut parsed, ev.as_str()) {
            (None, "intent") => {
                let schema = str_field(&entry, "schema", line_no)?;
                if schema != MANIFEST_SCHEMA {
                    return Err(format!(
                        "manifest schema mismatch: file is {schema:?}, this binary reads {MANIFEST_SCHEMA:?}"
                    ));
                }
                let ids = entry["ids"]
                    .as_array()
                    .ok_or_else(|| format!("manifest line {line_no}: missing ids array"))?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("manifest line {line_no}: non-string id"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if let Some(dup) = ids
                    .iter()
                    .enumerate()
                    .find_map(|(i, id)| ids[..i].contains(id).then_some(id))
                {
                    return Err(format!(
                        "manifest line {line_no}: intent repeats id {dup:?}"
                    ));
                }
                parsed = Some(ParsedManifest {
                    run: str_field(&entry, "run", line_no)?,
                    ids,
                    seed: entry["seed"]
                        .as_u64()
                        .ok_or_else(|| format!("manifest line {line_no}: missing seed"))?,
                    trace: entry["trace"]
                        .as_bool()
                        .ok_or_else(|| format!("manifest line {line_no}: missing trace flag"))?,
                    next_seq: 0,
                    valid_bytes: 0,
                    run_complete: false,
                    points: BTreeMap::new(),
                });
            }
            (None, other) => {
                return Err(format!(
                    "manifest line {line_no}: first entry must be intent, got {other:?}"
                ))
            }
            (Some(_), "intent") => {
                return Err(format!("manifest line {line_no}: duplicate intent entry"))
            }
            (Some(m), "point-begin") => {
                let id = point_id(&entry, m, line_no)?;
                let rec = m.points.entry(id).or_default();
                // A re-begin (resume redoing a point) voids old seals.
                rec.begun = true;
                rec.complete = false;
                rec.sealed.clear();
            }
            (Some(m), "artifact-sealed") => {
                let id = point_id(&entry, m, line_no)?;
                let dir = str_field(&entry, "dir", line_no)?;
                let dir = ArtifactDirKind::parse(&dir)
                    .ok_or_else(|| format!("manifest line {line_no}: unknown dir {dir:?}"))?;
                let crc_hex = str_field(&entry, "crc", line_no)?;
                let crc = u32::from_str_radix(&crc_hex, 16)
                    .map_err(|_| format!("manifest line {line_no}: bad crc {crc_hex:?}"))?;
                // Resume joins the name to a run directory, so it must be
                // one of the names `produce` writes: a plain file name
                // that starts with `<id>.`.
                let name = str_field(&entry, "name", line_no)?;
                let plain = Path::new(&name).file_name() == Some(name.as_ref());
                if !plain || !name.starts_with(&format!("{id}.")) {
                    return Err(format!(
                        "manifest line {line_no}: sealed name {name:?} is not a file of {id:?}"
                    ));
                }
                m.points.entry(id).or_default().sealed.push(SealedArtifact {
                    dir,
                    name,
                    crc,
                    bytes: entry["bytes"]
                        .as_u64()
                        .ok_or_else(|| format!("manifest line {line_no}: missing bytes"))?,
                });
            }
            (Some(m), "point-complete") => {
                let id = point_id(&entry, m, line_no)?;
                m.points.entry(id).or_default().complete = true;
            }
            (Some(m), "run-complete") => m.run_complete = true,
            (Some(_), "resume") => {} // informational
            (Some(_), other) => {
                return Err(format!("manifest line {line_no}: unknown entry {other:?}"))
            }
        }
        consumed += raw.len();
        if let Some(m) = &mut parsed {
            m.next_seq = seq + 1;
            m.valid_bytes = consumed;
        }
    }
    parsed.ok_or_else(|| "manifest has no intent entry".to_string())
}

/// Whether a point can be salvaged or must be re-executed (with the
/// reason). Salvage requires a `point-complete` entry *and* every
/// sealed artifact verifying [`artifact::verify`]-`Clean` with exactly
/// the recorded CRC and length — torn or corrupt files always force a
/// re-execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointDisposition {
    /// All artifacts verified; reuse them as-is.
    Salvage,
    /// Re-execute; the string says why.
    Redo(String),
}

/// Classifies one experiment from its manifest record and the on-disk
/// artifact state.
pub fn disposition(
    rec: Option<&PointRecord>,
    out_dir: &Path,
    trace_dir: Option<&Path>,
) -> PointDisposition {
    let Some(rec) = rec else {
        return PointDisposition::Redo("never started".to_string());
    };
    if !rec.complete {
        return PointDisposition::Redo(if rec.begun {
            "interrupted mid-commit".to_string()
        } else {
            "never started".to_string()
        });
    }
    if rec.sealed.is_empty() {
        return PointDisposition::Redo("complete but no sealed artifacts".to_string());
    }
    for a in &rec.sealed {
        let path = match (a.dir, trace_dir) {
            (ArtifactDirKind::Out, _) => out_dir.join(&a.name),
            (ArtifactDirKind::Trace, Some(d)) => d.join(&a.name),
            (ArtifactDirKind::Trace, None) => {
                return PointDisposition::Redo(format!(
                    "{}: trace artifact, no --trace dir",
                    a.name
                ))
            }
        };
        match artifact::verify(&path) {
            hprc_obs::ArtifactState::Clean { crc, bytes } if crc == a.crc && bytes == a.bytes => {}
            hprc_obs::ArtifactState::Clean { .. } => {
                return PointDisposition::Redo(format!(
                    "{}: sealed contents differ from the manifest record",
                    a.name
                ))
            }
            state => return PointDisposition::Redo(format!("{}: {state}", a.name)),
        }
    }
    PointDisposition::Salvage
}

/// One artifact's final bytes, staged before sealing.
pub struct Blob {
    /// The run directory it is sealed into.
    pub dir: ArtifactDirKind,
    /// File name within that directory.
    pub name: String,
    /// The artifact's bytes.
    pub bytes: Vec<u8>,
}

/// One executed experiment: its report and every artifact of its point,
/// in seal order.
pub struct Point {
    /// The report the committer prints.
    pub report: Report,
    /// `<id>.json`, `<id>.csv`, then (traced) `<id>.trace.json`,
    /// `<id>.attr.json`, `<id>.metrics.json`, `<id>.journal.jsonl`.
    pub blobs: Vec<Blob>,
}

/// Runs one experiment once and assembles every artifact of its
/// point: the report and its series from the run, then, when
/// `traced`, the trace and attribution builders' artifacts, the
/// metrics snapshot and the exported journal.
pub fn produce(exp: &Experiment, ctx: &ExecCtx, traced: bool) -> Result<Point, ExpError> {
    let blob = |dir, ext: &str, bytes: String| Blob {
        dir,
        name: format!("{}.{ext}", exp.id),
        bytes: bytes.into_bytes(),
    };
    let (report, series) = exp.execute(ctx)?;
    let mut blobs = vec![blob(ArtifactDirKind::Out, "json", report.json_text())];
    if let Some(series) = series {
        blobs.push(blob(ArtifactDirKind::Out, "csv", series_csv_text(&series)));
    }
    if traced {
        let trace_blob = |ext, bytes| blob(ArtifactDirKind::Trace, ext, bytes);
        // The trace export records its own accounting (e.g. truncation
        // warnings) into the live registry, so it must run before the
        // metrics snapshot for those counters to land in metrics.json.
        if let Some(events) = exp.chrome_trace(ctx)? {
            blobs.push(trace_blob("trace.json", serde_json::to_string(&events)?));
        }
        if let Some(attr) = exp.attribution(ctx) {
            blobs.push(trace_blob(
                "attr.json",
                serde_json::to_string_pretty(&attr)?,
            ));
        }
        let metrics = serde_json::to_string_pretty(&ctx.registry.snapshot())?;
        blobs.push(trace_blob("metrics.json", metrics));
        let journal = ctx.journal.to_jsonl(exp.id, ctx.seed);
        blobs.push(trace_blob("journal.jsonl", journal));
    }
    Ok(Point { report, blobs })
}

/// Commits one computed point: prints its report, logs `point-begin`,
/// seals every artifact (logging `artifact-sealed` after each), and
/// logs `point-complete` — withheld if any artifact failed, so resume
/// re-executes the point. Returns the number of per-point failures (a
/// failed computation, or each failed artifact write);
/// manifest-append failures are fatal (`Err`).
fn commit(
    id: &str,
    result: Result<Point, ExpError>,
    out_dir: &Path,
    trace_dir: Option<&Path>,
    manifest: &mut Manifest,
) -> io::Result<usize> {
    let point = match result {
        Ok(point) => point,
        Err(e) => {
            eprintln!("error: {id}: {e}");
            return Ok(1);
        }
    };
    println!("{}\n", point.report.render());
    manifest.point_begin(id)?;
    let mut errors = 0usize;
    for blob in &point.blobs {
        let dir = match blob.dir {
            ArtifactDirKind::Out => out_dir,
            ArtifactDirKind::Trace => trace_dir.expect("trace blobs only exist with a trace dir"),
        };
        let path = dir.join(&blob.name);
        match artifact::seal(&path, &blob.bytes) {
            Ok(crc) => {
                manifest.artifact_sealed(id, blob.dir, &blob.name, crc, blob.bytes.len() as u64)?;
            }
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                errors += 1;
            }
        }
    }
    if errors == 0 {
        manifest.point_complete(id)?;
    }
    Ok(errors)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn compute(exp: &Experiment, ctx: &ExecCtx, traced: bool) -> Result<Point, ExpError> {
    // A panicking experiment or side-artifact builder must not wedge
    // the committer (it waits on this slot) — convert panics into
    // ordinary per-point errors.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| produce(exp, ctx, traced)))
        .unwrap_or_else(|p| Err(ExpError::Panicked(panic_message(p))))
}

/// Runs `experiments[i]` under `contexts[i]` across `workers` threads
/// (each worker assembles its point's artifacts) and commits results
/// **in id order** through the manifest. Returns the count of per-point
/// failures (computation, artifact assembly or artifact writes);
/// manifest-append failures are fatal.
pub fn run_and_commit(
    experiments: &[&Experiment],
    contexts: &[ExecCtx],
    workers: usize,
    out_dir: &Path,
    trace_dir: Option<&Path>,
    manifest: &mut Manifest,
) -> io::Result<usize> {
    let n = experiments.len();
    let traced = trace_dir.is_some();
    if workers <= 1 || n <= 1 {
        let mut failures = 0usize;
        for (exp, ctx) in experiments.iter().zip(contexts) {
            let result = compute(exp, ctx, traced);
            failures += commit(exp.id, result, out_dir, trace_dir, manifest)?;
        }
        return Ok(failures);
    }
    // Workers fill slots out of order; this thread drains them in id
    // order, so seq assignment (and the committed set at any crash
    // point) is identical at any --jobs.
    let slots: Mutex<Vec<Option<Result<Point, ExpError>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    let ready = Condvar::new();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|s| -> io::Result<usize> {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = compute(experiments[i], &contexts[i], traced);
                slots.lock().expect("commit slots lock")[i] = Some(result);
                ready.notify_all();
            });
        }
        let mut failures = 0usize;
        for i in 0..n {
            let result = {
                let mut guard = slots.lock().expect("commit slots lock");
                loop {
                    if let Some(r) = guard[i].take() {
                        break r;
                    }
                    guard = ready.wait(guard).expect("commit slots lock");
                }
            };
            failures += commit(experiments[i].id, result, out_dir, trace_dir, manifest)?;
        }
        Ok(failures)
    })
    .expect("commit scope")
}

fn resume_usage() -> &'static str {
    "usage: hprc-exp resume RUN_ID [--out DIR] [--trace DIR] [--jobs N]\n\
     \x20                     [--no-delta] [--crash-at SEQ]\n\
     \n\
     Reads DIR/RUN_ID.manifest.jsonl (DIR defaults to results), verifies every\n\
     sealed artifact by CRC32, salvages the sweep points whose artifacts are\n\
     all clean, and re-executes only the remainder. Final artifacts are\n\
     byte-identical to an uninterrupted run at any --jobs. Pass --trace DIR\n\
     iff the interrupted run used it (the manifest records which)."
}

/// Entry point for `hprc-exp resume ...`.
pub fn resume_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut trace_dir: Option<PathBuf> = None;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut use_delta = true;
    let mut crash_at: Option<u64> = None;
    let mut run_id: Option<String> = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory\n\n{}", resume_usage());
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(d) => trace_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--trace requires a directory\n\n{}", resume_usage());
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer\n\n{}", resume_usage());
                    return ExitCode::FAILURE;
                }
            },
            "--no-delta" => use_delta = false,
            "--crash-at" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => crash_at = Some(s),
                None => {
                    eprintln!(
                        "--crash-at requires an unsigned integer\n\n{}",
                        resume_usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", resume_usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown resume flag: {other}\n\n{}", resume_usage());
                return ExitCode::FAILURE;
            }
            other => {
                if run_id.replace(other.to_string()).is_some() {
                    eprintln!("resume takes exactly one RUN_ID\n\n{}", resume_usage());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(run_id) = run_id else {
        eprintln!("resume requires a RUN_ID\n\n{}", resume_usage());
        return ExitCode::FAILURE;
    };
    if crash_at.is_none() {
        crash_at = match crash_at_from_env() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    }

    let mpath = match manifest_path(&out_dir, &run_id) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", resume_usage());
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&mpath) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read {}: {e}\n\n{}",
                mpath.display(),
                resume_usage()
            );
            return ExitCode::FAILURE;
        }
    };
    let parsed = match parse_manifest(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };
    match (parsed.trace, &trace_dir) {
        (true, None) => {
            eprintln!(
                "error: run {run_id} wrote trace artifacts; pass --trace DIR (the directory the interrupted run used)"
            );
            return ExitCode::FAILURE;
        }
        (false, Some(_)) => {
            eprintln!("error: run {run_id} wrote no trace artifacts; drop --trace");
            return ExitCode::FAILURE;
        }
        _ => {}
    }

    // Classify every intended point against the manifest + disk state.
    let mut salvaged: Vec<String> = Vec::new();
    let mut redo: Vec<String> = Vec::new();
    for id in &parsed.ids {
        match disposition(parsed.points.get(id), &out_dir, trace_dir.as_deref()) {
            PointDisposition::Salvage => {
                println!("salvage {id}: all sealed artifacts verify clean");
                salvaged.push(id.clone());
            }
            PointDisposition::Redo(reason) => {
                println!("re-execute {id}: {reason}");
                redo.push(id.clone());
            }
        }
    }
    let experiments = match redo
        .iter()
        .map(|id| crate::experiment(id))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(experiments) => experiments,
        Err(e) => {
            eprintln!("error: {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };
    if redo.is_empty() && parsed.run_complete {
        println!(
            "nothing to do: run {run_id} is complete and all {} artifacts verify clean",
            salvaged.len()
        );
        return ExitCode::SUCCESS;
    }

    // Drop a torn tail before appending, so new entries start on a
    // fresh line.
    if parsed.valid_bytes < text.len() {
        if let Err(e) = truncate_file(&mpath, parsed.valid_bytes as u64) {
            eprintln!("error: cannot truncate torn manifest tail: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut manifest = match Manifest::append_to(&mpath, parsed.next_seq, crash_at) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot reopen {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = manifest.resumed(&salvaged, &redo) {
        eprintln!("error: cannot append to {}: {e}", mpath.display());
        return ExitCode::FAILURE;
    }

    // Rebuild contexts exactly as the original run did: artifacts
    // depend only on (id, seed), so salvaged and re-executed points
    // compose into the same byte-identical set.
    let inner_jobs = if parsed.ids.len() == 1 { jobs } else { 1 };
    let delta = if use_delta {
        hprc_obs::DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES)
    } else {
        hprc_obs::DeltaCache::disabled()
    };
    let contexts: Vec<ExecCtx> = redo
        .iter()
        .map(|id| crate::experiment_ctx(id, parsed.seed, inner_jobs, parsed.trace, delta.clone()))
        .collect();

    let workers = jobs.min(redo.len()).max(1);
    let failures = match run_and_commit(
        &experiments,
        &contexts,
        workers,
        &out_dir,
        trace_dir.as_deref(),
        &mut manifest,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot append to {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };
    if failures > 0 {
        eprintln!("{failures} point(s) failed; run `hprc-exp resume {run_id}` again");
        return ExitCode::FAILURE;
    }
    if let Err(e) = manifest.run_complete() {
        eprintln!("error: cannot append to {}: {e}", mpath.display());
        return ExitCode::FAILURE;
    }
    println!(
        "resume complete: {} salvaged, {} re-executed",
        salvaged.len(),
        redo.len()
    );
    ExitCode::SUCCESS
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of a manifest whose table2 point completed and whose
    /// fig5 point never began. Each call writes and removes its own
    /// directory, so tests running in parallel never share a file.
    fn sample_manifest() -> String {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("hprc-recover-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let mut m = Manifest::create(&path, None).unwrap();
        m.intent("run", &["table2".into(), "fig5".into()], 3, false)
            .unwrap();
        m.point_begin("table2").unwrap();
        m.artifact_sealed("table2", ArtifactDirKind::Out, "table2.json", 0xAB, 10)
            .unwrap();
        m.point_complete("table2").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        text
    }

    #[test]
    fn parse_reads_intent_and_point_state() {
        let p = parse_manifest(&sample_manifest()).unwrap();
        assert_eq!(p.run, "run");
        assert_eq!(p.ids, ["table2", "fig5"]);
        assert_eq!(p.seed, 3);
        assert!(!p.trace);
        assert_eq!(p.next_seq, 4);
        assert!(!p.run_complete);
        let t2 = &p.points["table2"];
        assert!(t2.complete);
        assert_eq!(t2.sealed.len(), 1);
        assert_eq!(t2.sealed[0].crc, 0xAB);
        assert!(!p.points.contains_key("fig5"));
    }

    #[test]
    fn parse_tolerates_a_torn_tail_only() {
        let full = sample_manifest();
        // Torn tail: valid prefix survives, next_seq excludes it.
        let torn = format!("{full}{{\"seq\":4,\"ev\":\"point-b");
        let p = parse_manifest(&torn).unwrap();
        assert_eq!(p.next_seq, 4);
        assert_eq!(p.valid_bytes, full.len());
        // Same malformed entry mid-file is an error.
        let mid = full.replace(
            "{\"seq\":1,\"ev\":\"point-begin\",\"id\":\"table2\"}",
            "{\"seq\":1,\"ev\":\"point-b",
        );
        assert!(parse_manifest(&mid).is_err());
    }

    #[test]
    fn parse_rejects_drift_and_disorder() {
        let full = sample_manifest();
        assert!(parse_manifest("").is_err());
        assert!(
            parse_manifest(&full.replace("hprc-manifest/v1", "hprc-manifest/v0"))
                .unwrap_err()
                .contains("schema mismatch")
        );
        // Seq discontinuity (a deleted line) must not parse.
        let gap: String = full
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(parse_manifest(&gap).unwrap_err().contains("out of order"));
    }

    #[test]
    fn a_rebegun_point_voids_its_previous_seals() {
        let mut text = sample_manifest();
        text.push_str("{\"seq\":4,\"ev\":\"point-begin\",\"id\":\"table2\"}\n");
        let p = parse_manifest(&text).unwrap();
        let t2 = &p.points["table2"];
        assert!(t2.begun && !t2.complete);
        assert!(t2.sealed.is_empty(), "re-begin voids old seals");
    }

    #[test]
    fn parse_rejects_sealed_names_outside_their_point() {
        let manifest = |name: &str| {
            format!(
                "{{\"seq\":0,\"ev\":\"intent\",\"schema\":\"{MANIFEST_SCHEMA}\",\"run\":\"r\",\"ids\":[\"table2\"],\"seed\":0,\"trace\":false}}\n\
                 {{\"seq\":1,\"ev\":\"point-begin\",\"id\":\"table2\"}}\n\
                 {{\"seq\":2,\"ev\":\"artifact-sealed\",\"id\":\"table2\",\"dir\":\"out\",\"name\":{name:?},\"crc\":\"000000ab\",\"bytes\":10}}\n"
            )
        };
        assert_eq!(
            parse_manifest(&manifest("table2.json")).unwrap().points["table2"].sealed[0].name,
            "table2.json"
        );
        // Resume joins sealed names to a run directory: a path out of
        // it, or another experiment's file, is a malformed line.
        for bad in ["../A/table2.json", "/etc/hostname", "fig5.json", "table2"] {
            let err = parse_manifest(&manifest(bad)).unwrap_err();
            assert!(
                err.starts_with("manifest line 3: sealed name"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn parse_rejects_repeated_and_unlisted_ids() {
        let intent = |ids: &str| {
            format!(
                "{{\"seq\":0,\"ev\":\"intent\",\"schema\":\"{MANIFEST_SCHEMA}\",\"run\":\"r\",\"ids\":{ids},\"seed\":0,\"trace\":false}}\n"
            )
        };
        // Points are keyed by id: a repeated intent id would re-execute
        // every copy of a point that already completed.
        let repeated = format!(
            "{}{{\"seq\":1,\"ev\":\"point-begin\",\"id\":\"table1\"}}\n",
            intent("[\"table1\",\"table1\"]")
        );
        let err = parse_manifest(&repeated).unwrap_err();
        assert_eq!(err, "manifest line 1: intent repeats id \"table1\"");
        // Every kind of point entry must name an intended id.
        for entry in [
            "\"ev\":\"point-begin\",\"id\":\"table2\"",
            "\"ev\":\"artifact-sealed\",\"id\":\"table2\",\"dir\":\"out\",\"name\":\"table2.json\",\"crc\":\"000000ab\",\"bytes\":10",
            "\"ev\":\"point-complete\",\"id\":\"table2\"",
        ] {
            let text = format!("{}{{\"seq\":1,{entry}}}\n", intent("[\"table1\"]"));
            let err = parse_manifest(&text).unwrap_err();
            assert_eq!(
                err, "manifest line 2: id \"table2\" is not in the intent",
                "{entry}"
            );
        }
    }

    #[test]
    fn disposition_requires_complete_and_clean() {
        let dir = std::env::temp_dir().join(format!("hprc-dispo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Unknown point.
        assert_eq!(
            disposition(None, &dir, None),
            PointDisposition::Redo("never started".to_string())
        );
        // Complete + sealed + clean on disk.
        let crc = artifact::seal(&dir.join("a.json"), b"payload").unwrap();
        let rec = PointRecord {
            begun: true,
            complete: true,
            sealed: vec![SealedArtifact {
                dir: ArtifactDirKind::Out,
                name: "a.json".into(),
                crc,
                bytes: 7,
            }],
        };
        assert_eq!(
            disposition(Some(&rec), &dir, None),
            PointDisposition::Salvage
        );
        // Incomplete point never salvages, even with clean artifacts.
        let incomplete = PointRecord {
            complete: false,
            ..rec.clone()
        };
        assert!(matches!(
            disposition(Some(&incomplete), &dir, None),
            PointDisposition::Redo(_)
        ));
        // Corrupt the artifact in place: same length, different bytes.
        std::fs::write(dir.join("a.json"), b"pAyload").unwrap();
        let d = disposition(Some(&rec), &dir, None);
        assert!(
            matches!(&d, PointDisposition::Redo(r) if r.contains("corrupt")),
            "{d:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_side_builder_fails_its_point_not_the_run() {
        const BOOM: Experiment = Experiment {
            id: "boom",
            description: "panics in its trace builder",
            run: crate::Run::Plain(|_| Ok(Report::new("boom", "Boom", String::new(), &0))),
            trace: Some(|_, _| panic!("trace builder panicked")),
            attribution: None,
        };
        let table2 = crate::experiment("table2").unwrap();
        let experiments = [&BOOM, table2];
        let ids: Vec<String> = experiments.iter().map(|e| e.id.to_string()).collect();
        for workers in [1, 2] {
            let dir = std::env::temp_dir().join(format!(
                "hprc-recover-panic-{workers}-{}",
                std::process::id()
            ));
            let (out, trace) = (dir.join("out"), dir.join("trace"));
            std::fs::create_dir_all(&out).unwrap();
            std::fs::create_dir_all(&trace).unwrap();
            let contexts: Vec<ExecCtx> = ids
                .iter()
                .map(|id| crate::experiment_ctx(id, 0, 1, true, hprc_obs::DeltaCache::disabled()))
                .collect();
            let mpath = manifest_path(&out, "run").unwrap();
            let mut manifest = Manifest::create(&mpath, None).unwrap();
            manifest.intent("run", &ids, 0, true).unwrap();
            let failures = run_and_commit(
                &experiments,
                &contexts,
                workers,
                &out,
                Some(&trace),
                &mut manifest,
            )
            .unwrap();
            assert_eq!(failures, 1, "workers {workers}");
            let parsed = parse_manifest(&std::fs::read_to_string(&mpath).unwrap()).unwrap();
            let sealed = &parsed.points["table2"];
            assert!(sealed.complete, "workers {workers}: table2 must commit");
            assert!(
                sealed
                    .sealed
                    .iter()
                    .any(|a| a.name == "table2.journal.jsonl"),
                "workers {workers}: {sealed:?}"
            );
            assert_eq!(
                disposition(Some(sealed), &out, Some(&trace)),
                PointDisposition::Salvage
            );
            assert!(
                parsed.points.get("boom").is_none_or(|p| !p.complete),
                "workers {workers}: the panicking point must not complete"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
