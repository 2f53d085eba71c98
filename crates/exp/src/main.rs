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
//! registry and writes `<id>.metrics.json` (counters, gauges, histogram
//! summaries, spans) plus — for experiments with a representative
//! timeline — `<id>.trace.json` in Chrome trace-event format, loadable
//! in Perfetto or `chrome://tracing`.
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
use hprc_obs::manifest::Manifest;
use hprc_obs::Registry;

fn usage() -> String {
    format!(
        "usage: hprc-exp [--out DIR] [--trace DIR] [--jobs N] [--seed S]\n\
         \x20               [--run-id ID] [--crash-at SEQ] [all | id...]\n\
         \x20      hprc-exp resume RUN_ID [--out DIR] [--trace DIR] [--jobs N]\n\
         \x20      hprc-exp list\n\
         \x20      hprc-exp bench [--repeat K] [--out-file PATH] [--check BASELINE]\n\
         \x20                     [--update-baseline] [--threshold X] [--jobs N] [--seed S]\n\
         \x20      hprc-exp journal [summarize FILE | diff A B |\n\
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
         bench: wall-clock-time every experiment (p50 over K repetitions, default 3)\n\
         and write a schema-stable BENCH_<YYYYMMDD>.json (or --out-file PATH) at the\n\
         repo root; with --check, compare p50s against a committed baseline at\n\
         --threshold (default 2.0) and exit non-zero on regression or schema drift;\n\
         with --update-baseline, also rewrite BENCH_BASELINE.json in place.\n\
         \n\
         journal: analyze the causal run journals --trace writes — summarize one,\n\
         diff two (first divergent line; exit 1 on divergence), or replay-check:\n\
         re-run each journal's experiment from its recorded (experiment, seed)\n\
         header and require byte-identical regeneration.\n\
         \n\
         ids: {}",
        hprc_exp::ALL_EXPERIMENTS.join(" ")
    )
}

fn bench_main(args: impl Iterator<Item = String>) -> ExitCode {
    let mut repeat: usize = 3;
    let mut out_file: Option<PathBuf> = None;
    let mut check: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut threshold: f64 = 2.0;
    let mut jobs: usize = 1;
    let mut seed: u64 = 0;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeat" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => repeat = n,
                _ => {
                    eprintln!("--repeat requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out-file" => match args.next() {
                Some(p) => out_file = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--out-file requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => match args.next() {
                Some(p) => check = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--check requires a baseline path");
                    return ExitCode::FAILURE;
                }
            },
            "--update-baseline" => update_baseline = true,
            "--threshold" => match args.next().and_then(|x| x.parse::<f64>().ok()) {
                Some(x) if x > 0.0 => threshold = x,
                _ => {
                    eprintln!("--threshold requires a positive number");
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
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown bench argument: {other}\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let report = hprc_exp::bench::run_bench(repeat, seed, jobs);
    for e in &report.entries {
        println!(
            "{:<16} p50 {:>8.2} ms  (min {:>8.2}, max {:>8.2}, spans {})  \
             delta cold {:>8.2} ms / warm {:>8.2} ms ({:.1}x)",
            e.id,
            e.p50_ms,
            e.min_ms,
            e.max_ms,
            e.spans,
            e.cold_ms,
            e.warm_ms,
            e.cold_ms / e.warm_ms.max(1e-9)
        );
    }
    println!(
        "bench total: {:.1} ms over {} experiments x {} repetition(s)",
        report.total_ms,
        report.entries.len(),
        report.repeat
    );
    println!(
        "delta whole-sweep: cold {:.1} ms, warm {:.1} ms ({:.1}x)",
        report.suite_cold_ms,
        report.suite_warm_ms,
        report.suite_cold_ms / report.suite_warm_ms.max(1e-9)
    );

    let path = out_file.unwrap_or_else(|| PathBuf::from(report.default_filename()));
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: could not serialize bench report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = json + "\n";
    // Atomic writes: an interrupted bench can never leave a truncated
    // report — or, worse, a truncated committed baseline.
    if let Err(e) = hprc_obs::artifact::write_atomic(&path, json.as_bytes()) {
        eprintln!("error: could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("bench report written to {}", path.display());

    if update_baseline {
        let baseline_path = PathBuf::from("BENCH_BASELINE.json");
        if let Err(e) = hprc_obs::artifact::write_atomic(&baseline_path, json.as_bytes()) {
            eprintln!("error: could not write {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
        println!("baseline updated at {}", baseline_path.display());
    }

    if let Some(baseline_path) = check {
        let baseline = match hprc_exp::bench::load(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = hprc_exp::bench::compare(&report, &baseline, threshold);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("bench regression: {v}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "bench check passed against {} (threshold {threshold}x)",
            baseline_path.display()
        );
    }
    ExitCode::SUCCESS
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
        Some("bench") => return bench_main(args.skip(1)),
        Some("journal") => return hprc_exp::journal_cli::journal_main(args.skip(1)),
        Some("resume") => return hprc_exp::recover::resume_main(args.skip(1)),
        Some("list") => {
            for (id, description) in hprc_exp::EXPERIMENT_DESCRIPTIONS {
                println!("{id:<16} {description}");
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
                Some(r) if !r.is_empty() && !r.contains('/') => run_id = r,
                _ => {
                    eprintln!("--run-id requires a non-empty name without '/'");
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
    // Validate every id before running anything: a typo fails fast
    // instead of surfacing after minutes of earlier experiments.
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !hprc_exp::ALL_EXPERIMENTS.contains(&id.as_str()))
        .collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("unknown experiment: {id}");
        }
        eprintln!("\n{}", usage());
        return ExitCode::FAILURE;
    }

    // One context per experiment, all sharing the seed base so a run of
    // `all` produces exactly the same artifacts as 22 single-id runs.
    // The jobs budget goes to whichever level can use it: across
    // experiments when several ids run, into the experiment's own sweep
    // runner when only one does. Each experiment gets its own registry
    // so metrics files don't bleed into each other.
    let inner_jobs = if ids.len() == 1 { jobs } else { 1 };
    // One process-wide delta cache (unless --no-delta): skeleton and
    // report replays are byte-identical to longhand runs, so sharing it
    // across experiments and worker threads never perturbs artifacts.
    let delta = if use_delta {
        hprc_obs::DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES)
    } else {
        hprc_obs::DeltaCache::disabled()
    };
    let contexts: Vec<ExecCtx> = ids
        .iter()
        .map(|id| {
            ExecCtx::default()
                .with_registry(if trace_dir.is_some() {
                    Registry::new()
                } else {
                    Registry::noop()
                })
                .with_journal(if trace_dir.is_some() {
                    hprc_obs::Journal::new(hprc_exp::journal_salt(id, seed))
                } else {
                    hprc_obs::Journal::noop()
                })
                .with_seed(seed)
                .with_jobs(inner_jobs)
                .with_delta(delta.clone())
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
    let mpath = hprc_exp::recover::manifest_path(&out_dir, &run_id);
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

    // Workers compute experiments in parallel; commits (render, seal,
    // manifest) happen on this thread in id order, so output, artifacts
    // and manifest seqs don't depend on the budget.
    let workers = jobs.min(ids.len()).max(1);
    let failures = match hprc_exp::recover::run_and_commit(
        &ids,
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
