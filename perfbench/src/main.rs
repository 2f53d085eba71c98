//! `hprc-bench` — the repository benchmark driver.
//!
//! ```text
//! hprc-bench run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! hprc-bench compare --parent A.json... --change B.json... [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` prints every metric as `name value unit`, then, as its last
//! line, the JSON result `{"correct", "attempted", "failed", "metrics"}`;
//! `--out` also writes the full run record that `compare` reads.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hprc_perfbench::{compare, Length, RunConfig, RunReport, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hprc-bench run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out FILE]\n\
         \x20      hprc-bench compare --parent FILE... --change FILE... [--benchmark FILE]\n\
         \n\
         run: one workload, one process. Set-up (inputs, output dirs, a warm-up\n\
         pass) runs 3 times; then N seconds (default 20) of whole passes, each\n\
         metric a median over passes. --trace 1 reports per-layer metrics\n\
         instead of end-to-end ones.\n\
         compare: medians, quartiles and a verdict per (workload, metric) from\n\
         run records written with --out; exit 1 if any metric got worse.\n\
         \n\
         workloads: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => run_main(args, started),
        Some("compare") => compare_main(args),
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => Err(format!("expected a command\n\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or(format!("{flag} requires a value"))
}

fn run_main(mut args: impl Iterator<Item = String>, started: Instant) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let w = value(&mut args, &arg)?;
                workload = Some(
                    Workload::parse(&w).ok_or(format!("unknown workload {w:?}\n\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = value(&mut args, &arg)?
                    .parse()
                    .map_err(|_| "--seed requires an unsigned integer")?
            }
            "--seconds" => {
                seconds = value(&mut args, &arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds requires a number in (0, 3600]")?
            }
            "--trace" => {
                trace = match value(&mut args, &arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace requires 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value(&mut args, &arg)?)),
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n\n{}", usage()))?;
    let cfg = RunConfig {
        workload,
        seed,
        length: Length::Seconds(seconds),
        trace,
        scratch: PathBuf::from("target")
            .join("hprc-bench")
            .join(format!("run-{}", std::process::id())),
    };
    let report = hprc_perfbench::run(&cfg, started)?;
    for m in report.metrics.iter().chain(&report.notes) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&report.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    }
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    RunReport::from_json(&v).map_err(|e| format!("{path}: {e}"))
}

fn compare_main(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut parent = Vec::new();
    let mut change = Vec::new();
    let mut benchmark = String::from("BENCHMARK.json");
    let mut side: Option<&mut Vec<RunReport>> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--benchmark" => {
                side = None;
                benchmark = args.next().ok_or("--benchmark requires a path")?;
            }
            file if !file.starts_with("--") => match side.as_deref_mut() {
                Some(list) => list.push(load(file)?),
                None => return Err(format!("{file}: not after --parent or --change")),
            },
            other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs records for both --parent and --change".into());
    }
    let text = std::fs::read_to_string(&benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let bench = serde_json::from_str(&text).map_err(|e| format!("{benchmark}: {e}"))?;
    let bounds = compare::load_bounds(&bench)?;
    let rows = compare::compare(&parent, &change, &bounds);
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
