//! `hprc-exp` — regenerate the paper's tables and figures.
//!
//! Usage: `hprc-exp [--out DIR] [--trace DIR] [--jobs N] [--seed S]
//! [all | <experiment-id>...]`
//!
//! Experiments run under one [`ExecCtx`]: `--seed` shifts every
//! workload RNG stream, and `--jobs` sets the worker-thread budget for
//! the deterministic parallel runner — artifacts are byte-identical at
//! any `--jobs`, only wall-clock time changes. With several ids the
//! budget fans out across experiments; with a single id it goes to that
//! experiment's internal sweep.
//!
//! With `--trace DIR`, each experiment runs against a live metrics
//! registry and causal journal and writes `<id>.metrics.json`
//! (counters, gauges and histogram summaries, all logical, so the file
//! is as deterministic as every other artifact) and
//! `<id>.journal.jsonl` (the run journal), plus — for experiments with
//! a representative timeline — `<id>.trace.json` in Chrome trace-event
//! format, loadable in Perfetto or `chrome://tracing`, and
//! `<id>.attr.json` (its timeline attribution).
//!
//! Every run is crash-safe: a write-ahead manifest
//! (`<run-id>.manifest.jsonl` under `--out`) records intent, per-point
//! commits, and per-artifact CRC32 seals before the corresponding side
//! effects; all artifacts are written atomically (tmp + fsync + rename)
//! with `.crc` sidecars. After an interruption — including one injected
//! deterministically with `--crash-at SEQ` — `hprc-exp resume RUN_ID`
//! salvages verified points and re-executes only the rest, with final
//! artifacts byte-identical to an uninterrupted run.

use std::path::PathBuf;
use std::process::ExitCode;

use hprc_ctx::ExecCtx;
use hprc_exp::{Experiment, EXPERIMENTS};
use hprc_obs::manifest::Manifest;

fn usage() -> String {
    format!(
        "usage: hprc-exp [--out DIR] [--trace DIR] [--jobs N] [--seed S]\n\
         \x20               [--run-id ID] [--crash-at SEQ] [all | id...]\n\
         \x20      hprc-exp resume RUN_ID [--out DIR] [--trace DIR] [--jobs N]\n\
         \x20      hprc-exp list\n\
         \x20      hprc-exp journal [summarize FILE | expand FILE | diff A B |\n\
         \x20                        replay-check [--jobs N] FILE...]\n\
         \n\
         --out DIR    write reports and CSV artifacts under DIR (default: results)\n\
         --trace DIR  run instrumented; write <id>.metrics.json, <id>.trace.json,\n\
         \x20            <id>.attr.json (timeline attribution) and <id>.journal.jsonl\n\
         \x20            (the causal run journal) under DIR\n\
         --jobs N     worker threads (default: available cores); results are\n\
         \x20            byte-identical at any N, only wall-clock time changes\n\
         --seed S     base RNG seed XOR-ed into every workload stream (default: 0)\n\
         --no-delta   disable the delta re-simulation cache (memoized schedule\n\
         \x20            skeletons); artifacts are byte-identical either way, only\n\
         \x20            wall-clock time changes\n\
         --run-id ID  name of this run's write-ahead manifest, written to\n\
         \x20            DIR/ID.manifest.jsonl (default: run)\n\
         --crash-at SEQ  abort the process the instant manifest entry SEQ is\n\
         \x20            durable (fault injection; env HPRC_CRASH_AT works too)\n\
         \n\
         resume: read DIR/RUN_ID.manifest.jsonl, verify every sealed artifact by\n\
         CRC32, salvage the sweep points whose artifacts are all clean, and\n\
         re-execute only the remainder (see hprc-exp resume --help).\n\
         \n\
         list: print every experiment id with a one-line description.\n\
         \n\
         journal: analyze the causal run journals --trace writes — summarize one,\n\
         expand one to its longhand hprc-journal/v1 bytes on stdout, diff two\n\
         (first divergent line; exit 1 on divergence), or replay-check:\n\
         re-run each journal's experiment from its recorded (experiment, seed)\n\
         header and require byte-identical regeneration.\n\
         \n\
         ids: {}",
        hprc_exp::ALL_EXPERIMENTS.join(" ")
    )
}

fn main() -> ExitCode {
    let mut out_dir = PathBuf::from("results");
    let mut trace_dir: Option<PathBuf> = None;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seed: u64 = 0;
    let mut use_delta = true;
    let mut run_id = String::from("run");
    let mut crash_at: Option<u64> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    match std::env::args().nth(1).as_deref() {
        Some("journal") => return hprc_exp::journal_cli::journal_main(args.skip(1)),
        Some("resume") => return hprc_exp::recover::resume_main(args.skip(1)),
        Some("list") => {
            if args.nth(1).is_some() {
                eprintln!("list takes no arguments\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            for e in &EXPERIMENTS {
                println!("{:<16} {}", e.id, e.description);
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match args.next() {
                Some(d) => trace_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--trace requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an unsigned integer\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--no-delta" => use_delta = false,
            "--run-id" => match args.next() {
                Some(r) => run_id = r,
                None => {
                    eprintln!("--run-id requires a name");
                    return ExitCode::FAILURE;
                }
            },
            "--crash-at" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(s) => crash_at = Some(s),
                None => {
                    eprintln!("--crash-at requires an unsigned integer\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    let mpath = match hprc_exp::recover::manifest_path(&out_dir, &run_id) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if crash_at.is_none() {
        crash_at = match hprc_exp::recover::crash_at_from_env() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = hprc_exp::ALL_EXPERIMENTS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    // A repeated id runs, and is sealed, once: at its first position.
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    // Validate every id before running anything: a typo fails fast
    // instead of surfacing after minutes of earlier experiments.
    let mut experiments: Vec<&Experiment> = Vec::with_capacity(ids.len());
    let mut unknown = false;
    for id in &ids {
        match hprc_exp::experiment(id) {
            Ok(e) => experiments.push(e),
            Err(e) => {
                eprintln!("{e}");
                unknown = true;
            }
        }
    }
    if unknown {
        eprintln!("\n{}", usage());
        return ExitCode::FAILURE;
    }

    // One context per experiment, all sharing the seed base so a run of
    // `all` produces exactly the same artifacts as 24 single-id runs.
    // The jobs budget goes to whichever level can use it: across
    // experiments when several ids run, into the experiment's own sweep
    // runner when only one does. Each experiment gets its own registry
    // so metrics files don't bleed into each other.
    let inner_jobs = if ids.len() == 1 { jobs } else { 1 };
    // One process-wide delta cache (unless --no-delta): skeleton
    // replays are byte-identical to longhand runs, so sharing it across
    // experiments and worker threads never perturbs artifacts.
    let delta = if use_delta {
        hprc_obs::DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES)
    } else {
        hprc_obs::DeltaCache::disabled()
    };
    let contexts: Vec<ExecCtx> = ids
        .iter()
        .map(|id| {
            hprc_exp::experiment_ctx(id, seed, inner_jobs, trace_dir.is_some(), delta.clone())
        })
        .collect();

    // The write-ahead manifest precedes every side effect: the intent
    // entry is durable before the first experiment runs, each artifact
    // is sealed (atomic write + CRC sidecar) before its manifest entry,
    // and a point-complete only lands once every seal did. After any
    // interruption `hprc-exp resume <run-id>` picks up from here.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: could not create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut manifest = match Manifest::create(&mpath, crash_at) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: could not create {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = manifest.intent(&run_id, &ids, seed, trace_dir.is_some()) {
        eprintln!("error: could not write {}: {e}", mpath.display());
        return ExitCode::FAILURE;
    }

    // Workers compute experiments and their artifacts in parallel;
    // commits (print, seal, manifest) happen on this thread in id
    // order, so output, artifacts and manifest seqs don't depend on the
    // budget.
    let workers = jobs.min(ids.len()).max(1);
    let failures = match hprc_exp::recover::run_and_commit(
        &experiments,
        &contexts,
        workers,
        &out_dir,
        trace_dir.as_deref(),
        &mut manifest,
    ) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: could not write {}: {e}", mpath.display());
            return ExitCode::FAILURE;
        }
    };

    println!("artifacts written to {}/", out_dir.display());
    if let Some(dir) = &trace_dir {
        println!("metrics + traces written to {}/", dir.display());
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed; fix and `hprc-exp resume {run_id}`");
        return ExitCode::FAILURE;
    }
    if let Err(e) = manifest.run_complete() {
        eprintln!("error: could not write {}: {e}", mpath.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
