//! `hprc-exp journal` — analysis subcommands for the causal run
//! journals (`<id>.journal.jsonl`, `hprc-journal/v2`) that `--trace`
//! writes.
//!
//! * `summarize FILE` — per-class span time, top spans, flow-kind
//!   counts, fault-chain count, metric totals, and the resource
//!   accounting footer, as a human-readable report. Counts include
//!   every copy a `repeat` line stands for.
//! * `expand FILE` — the longhand `hprc-journal/v1` bytes on stdout:
//!   every `repeat` line written out as its copies.
//! * `diff A B` — first divergent line between two journals (exit 0
//!   when byte-identical, 1 otherwise). Because journals are
//!   deterministic, this is the canonical `--jobs` invariance check.
//! * `replay-check FILE...` — re-runs each journal's experiment from
//!   the `(experiment, seed)` recorded in its header and verifies the
//!   regenerated journal is byte-identical to the file.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

/// One parsed journal: header fields, records, accounting footer.
#[derive(Debug)]
struct Parsed {
    experiment: String,
    seed: u64,
    schema: String,
    records: Vec<Value>,
    account: Option<Value>,
}

/// The `(schema, experiment, seed)` header of a journal.
fn header(text: &str) -> Result<(String, String, u64), String> {
    let header = text.lines().next().ok_or("empty journal")?;
    let header: Value =
        serde_json::from_str(header).map_err(|e| format!("line 1: bad header: {e}"))?;
    let schema = header["schema"]
        .as_str()
        .ok_or("header missing \"schema\"")?
        .to_string();
    if schema != hprc_obs::JOURNAL_SCHEMA {
        return Err(format!(
            "schema mismatch: journal is {schema:?}, this binary reads {:?}",
            hprc_obs::JOURNAL_SCHEMA
        ));
    }
    let experiment = header["experiment"]
        .as_str()
        .ok_or("header missing \"experiment\"")?
        .to_string();
    let seed = header["seed"].as_u64().ok_or("header missing \"seed\"")?;
    Ok((schema, experiment, seed))
}

/// Parses a journal with every `repeat` line expanded, so the records
/// are the longhand ones.
fn parse(text: &str) -> Result<Parsed, String> {
    let (schema, experiment, seed) = header(text)?;
    let longhand = hprc_obs::expand_jsonl(text)?;
    let mut records = Vec::new();
    let mut account = None;
    for (i, line) in longhand.lines().enumerate().skip(1) {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("account").is_some() {
            account = Some(v["account"].clone());
        } else {
            records.push(v);
        }
    }
    Ok(Parsed {
        experiment,
        seed,
        schema,
        records,
        account,
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// Union-find over span ids, for counting fault chains.
struct Dsu(HashMap<u64, u64>);

impl Dsu {
    /// The root of `x`'s set, with path compression. Iterative: a
    /// journal's fault chains can be millions of links long.
    fn find(&mut self, x: u64) -> u64 {
        let mut root = x;
        loop {
            let p = *self.0.entry(root).or_insert(root);
            if p == root {
                break;
            }
            root = p;
        }
        let mut y = x;
        while y != root {
            y = self.0.insert(y, root).expect("on the path just walked");
        }
        root
    }

    fn union(&mut self, a: u64, b: u64) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0.insert(ra, rb);
        }
    }
}

fn summarize(path: &str) -> Result<String, String> {
    let text = read(path)?;
    let p = parse(&text)?;

    // Per-name span aggregation (open/close pairs; events are
    // zero-duration occurrences tallied separately).
    let mut open_at: HashMap<u64, (String, u64)> = HashMap::new();
    let mut per_name: HashMap<String, (u64, u64, u64)> = HashMap::new(); // count, total, max
    let mut top: Vec<(u64, String)> = Vec::new(); // (dur, name)
    let mut n_spans = 0u64;
    let mut n_events = 0u64;
    let mut flow_kinds: HashMap<String, u64> = HashMap::new();
    let mut metrics: HashMap<String, u64> = HashMap::new();
    let mut chain_dsu = Dsu(HashMap::new());
    let mut chain_edges = 0u64;
    for r in &p.records {
        match r["ev"].as_str().unwrap_or("") {
            "open" => {
                n_spans += 1;
                let id = r["id"].as_u64().unwrap_or(0);
                let name = r["name"].as_str().unwrap_or("?").to_string();
                let t = r["t_ns"].as_u64().unwrap_or(0);
                open_at.insert(id, (name, t));
            }
            "close" => {
                let id = r["id"].as_u64().unwrap_or(0);
                if let Some((name, t0)) = open_at.remove(&id) {
                    let dur = r["t_ns"].as_u64().unwrap_or(t0).saturating_sub(t0);
                    let e = per_name.entry(name.clone()).or_insert((0, 0, 0));
                    e.0 += 1;
                    e.1 += dur;
                    e.2 = e.2.max(dur);
                    top.push((dur, name));
                }
            }
            "event" => n_events += 1,
            "flow" => {
                let kind = r["kind"].as_str().unwrap_or("?").to_string();
                if matches!(kind.as_str(), "fault" | "retry" | "escalate") {
                    chain_edges += 1;
                    let (a, b) = (
                        r["from"].as_u64().unwrap_or(0),
                        r["to"].as_u64().unwrap_or(0),
                    );
                    chain_dsu.union(a, b);
                }
                *flow_kinds.entry(kind).or_insert(0) += 1;
            }
            "metric" => {
                let name = r["name"].as_str().unwrap_or("?").to_string();
                *metrics.entry(name).or_insert(0) += r["delta"].as_u64().unwrap_or(0);
            }
            _ => {}
        }
    }
    let chains = {
        let ids: Vec<u64> = chain_dsu.0.keys().copied().collect();
        let mut roots: Vec<u64> = ids.into_iter().map(|i| chain_dsu.find(i)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    };

    let mut out = String::new();
    out.push_str(&format!(
        "journal {path}\n  schema {}  experiment {}  seed {}\n",
        p.schema, p.experiment, p.seed
    ));
    out.push_str(&format!(
        "  records {} (spans {}, events {}, flows {}, metrics {})\n",
        p.records.len(),
        n_spans,
        n_events,
        flow_kinds.values().sum::<u64>(),
        metrics.len(),
    ));
    if let Some(a) = &p.account {
        out.push_str(&format!(
            "  account events={} dropped={} bytes={} sim_ns={}\n",
            a["events"], a["dropped"], a["bytes"], a["sim_ns"]
        ));
        // Budget-capped runs nest their deterministic accounting in the
        // footer: what was charged, where the cutoff landed, and how
        // much work the budget refused.
        if let Some(b) = a.get("budget") {
            out.push_str(&format!(
                "  budget max_events={} charged_events={} cutoff_seq={} would_have_run={} runs_cut={}\n",
                b["max_events"], b["charged_events"], b["cutoff_seq"], b["would_have_run"], b["runs_cut"]
            ));
        }
    }
    let mut names: Vec<(&String, &(u64, u64, u64))> = per_name.iter().collect();
    names.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    out.push_str("  per-class span time:\n");
    for (name, (count, total, max)) in names {
        out.push_str(&format!(
            "    {name:<24} n={count:<6} total={:.3}ms max={:.3}ms\n",
            *total as f64 / 1e6,
            *max as f64 / 1e6
        ));
    }
    top.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.push_str("  top spans:\n");
    for (dur, name) in top.iter().take(5) {
        out.push_str(&format!("    {name:<24} {:.3}ms\n", *dur as f64 / 1e6));
    }
    let mut kinds: Vec<(&String, &u64)> = flow_kinds.iter().collect();
    kinds.sort();
    out.push_str(&format!(
        "  flow kinds: {}\n",
        kinds
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.push_str(&format!(
        "  fault chains: {chains} ({chain_edges} fault/retry/escalate links)\n"
    ));
    let mut ms: Vec<(&String, &u64)> = metrics.iter().collect();
    ms.sort();
    for (name, total) in ms {
        out.push_str(&format!("  metric {name:<28} {total}\n"));
    }
    Ok(out)
}

/// First divergent line between two texts: `(line number, a, b)`.
/// Missing lines surface as `"<absent>"`.
fn first_divergence(a: &str, b: &str) -> Option<(usize, String, String)> {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut i = 0;
    loop {
        i += 1;
        match (la.next(), lb.next()) {
            (None, None) => return None,
            (x, y) if x == y => {}
            (x, y) => {
                return Some((
                    i,
                    x.unwrap_or("<absent>").to_string(),
                    y.unwrap_or("<absent>").to_string(),
                ))
            }
        }
    }
}

fn diff(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    match first_divergence(&a, &b) {
        None => {
            println!("journals identical: {path_a} == {path_b}");
            Ok(true)
        }
        Some((line, la, lb)) => {
            println!("journals diverge at line {line}:");
            println!("  {path_a}: {la}");
            println!("  {path_b}: {lb}");
            Ok(false)
        }
    }
}

/// Writes the longhand (`hprc-journal/v1`) bytes of one journal to
/// stdout.
fn expand(path: &str) -> Result<(), String> {
    let longhand = hprc_obs::expand_jsonl(&read(path)?)?;
    std::io::stdout()
        .lock()
        .write_all(longhand.as_bytes())
        .map_err(|e| format!("stdout: {e}"))
}

fn replay_check(path: &str, jobs: usize) -> Result<bool, String> {
    let text = read(path)?;
    let (_, experiment, seed) = header(&text)?;
    let regenerated =
        crate::run_journaled(&experiment, seed, jobs).map_err(|e| format!("{path}: {e}"))?;
    match first_divergence(&text, &regenerated) {
        None => {
            println!("replay-check ok: {path} ({experiment} @ seed {seed}, jobs {jobs})");
            Ok(true)
        }
        Some((line, on_disk, regen)) => {
            println!("replay-check FAILED: {path} diverges at line {line}:");
            println!("  on disk:     {on_disk}");
            println!("  regenerated: {regen}");
            Ok(false)
        }
    }
}

fn usage() -> &'static str {
    "usage: hprc-exp journal summarize FILE\n\
     \x20      hprc-exp journal expand FILE\n\
     \x20      hprc-exp journal diff A B\n\
     \x20      hprc-exp journal replay-check [--jobs N] FILE...\n\
     \n\
     summarize     per-class span time, top spans, flow kinds, fault chains,\n\
     \x20             metric totals, and the accounting footer of one journal\n\
     expand        write a journal's longhand hprc-journal/v1 bytes to stdout,\n\
     \x20             every repeat line written out as its copies\n\
     diff          compare two journals line-by-line; exit 1 on the first\n\
     \x20             divergence (journals are deterministic, so byte equality\n\
     \x20             is the expected outcome at any --jobs)\n\
     replay-check  re-run each journal's experiment from its recorded\n\
     \x20             (experiment, seed) header and require byte-identical\n\
     \x20             regeneration"
}

/// Entry point for `hprc-exp journal ...`.
pub fn journal_main(args: impl Iterator<Item = String>) -> ExitCode {
    let args: Vec<String> = args.collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    match cmd {
        "--help" | "-h" => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        "summarize" => {
            let mut failed = false;
            let files = &args[1..];
            if files.is_empty() {
                eprintln!("summarize requires at least one FILE\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            for f in files {
                match summarize(f) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "expand" => {
            let [file] = &args[1..] else {
                eprintln!("expand requires exactly one FILE\n\n{}", usage());
                return ExitCode::FAILURE;
            };
            match expand(file) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "diff" => {
            let [a, b] = &args[1..] else {
                eprintln!("diff requires exactly two FILEs\n\n{}", usage());
                return ExitCode::FAILURE;
            };
            match diff(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "replay-check" => {
            let mut jobs = 1usize;
            let mut files = Vec::new();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                        Some(n) if n > 0 => jobs = n,
                        _ => {
                            eprintln!("--jobs requires a positive integer");
                            return ExitCode::FAILURE;
                        }
                    },
                    f => files.push(f.to_string()),
                }
            }
            if files.is_empty() {
                eprintln!("replay-check requires at least one FILE\n\n{}", usage());
                return ExitCode::FAILURE;
            }
            let mut failed = false;
            for f in &files {
                match replay_check(f, jobs) {
                    Ok(true) => {}
                    Ok(false) => failed = true,
                    Err(e) => {
                        eprintln!("error: {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("unknown journal subcommand: {other}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let j = hprc_obs::Journal::new(5);
        let run = j.enter("sim.run_prtr", 0, 0);
        let call = j.open("task0", run, 10, 0);
        let d = j.event("decide", call, 10, 0);
        let c = j.event("configure", call, 20, 1);
        j.flow(d, c, "hide");
        let r = j.open("recovery", call, 30, 1);
        j.flow(c, r, "fault");
        j.close(r, 40);
        let c2 = j.event("configure", call, 40, 1);
        j.flow(r, c2, "retry");
        let e = j.event("execute", call, 50, 10);
        j.flow(c2, e, "activate");
        j.close(call, 90);
        j.metric("sched.calls", 3);
        j.exit(run, 100);
        j.to_jsonl("sample", 7)
    }

    #[test]
    fn parse_reads_header_records_and_account() {
        let p = parse(&sample()).unwrap();
        assert_eq!(p.experiment, "sample");
        assert_eq!(p.seed, 7);
        assert_eq!(p.schema, hprc_obs::JOURNAL_SCHEMA);
        assert!(p.account.is_some());
        assert!(p.records.len() > 8);
    }

    #[test]
    fn dsu_finds_the_root_of_a_million_link_chain() {
        // A fault chain k → k+1, as `summarize` unions it: each link
        // hangs the previous root under the next id, so node 0 ends up
        // a million parent pointers deep.
        let mut dsu = Dsu(HashMap::new());
        for k in 0..1_000_000u64 {
            dsu.union(k, k + 1);
        }
        assert_eq!(dsu.find(0), 1_000_000);
        // Path compression points the deepest node straight at the root.
        assert_eq!(dsu.0[&0], 1_000_000);
    }

    #[test]
    fn parse_counts_every_copy_of_a_repeat() {
        let j = hprc_obs::Journal::new(5);
        let m = j.mark();
        let call = j.open("task0", None, 10, 0);
        j.close(call, 20);
        j.replay_cycle(m, 3, 10);
        let text = j.to_jsonl("jumps", 1);
        assert_eq!(text.lines().count(), 5, "header, 2 records, repeat, footer");
        let p = parse(&text).unwrap();
        assert_eq!(p.records.len(), 8);
        assert_eq!(p.records[7]["t_ns"].as_u64(), Some(50));
        assert_eq!(p.account.unwrap()["events"].as_u64(), Some(8));
    }

    #[test]
    fn parse_rejects_schema_drift() {
        let text = sample().replacen(hprc_obs::JOURNAL_SCHEMA, "hprc-journal/v0", 1);
        let err = parse(&text).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // The longhand schema is a foreign one too: only v2 is read.
        let text = sample().replacen(hprc_obs::JOURNAL_SCHEMA, "hprc-journal/v1", 1);
        let err = parse(&text).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
    }

    #[test]
    fn summarize_counts_chains_and_flows() {
        let dir =
            std::env::temp_dir().join(format!("hprc-journal-cli-sample-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.journal.jsonl");
        std::fs::write(&path, sample()).unwrap();
        let text = summarize(path.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("experiment sample  seed 7"), "{text}");
        assert!(
            text.contains("fault chains: 1 (2 fault/retry/escalate links)"),
            "{text}"
        );
        assert!(text.contains("fault=1"), "{text}");
        assert!(text.contains("retry=1"), "{text}");
        assert!(text.contains("metric sched.calls"), "{text}");
        assert!(text.contains("account events="), "{text}");
    }

    #[test]
    fn summarize_surfaces_the_budget_sub_line() {
        let j = hprc_obs::Journal::new(5);
        let run = j.enter("fleet.run", 0, 0);
        j.exit(run, 10);
        j.set_budget_account(hprc_obs::BudgetAccount {
            max_events: Some(2),
            charged_events: 2,
            would_have_run: 1,
            cutoff_seq: Some(3),
            runs_cut: 1,
        });
        let dir =
            std::env::temp_dir().join(format!("hprc-journal-cli-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("budget.journal.jsonl");
        std::fs::write(&path, j.to_jsonl("budgeted", 1)).unwrap();
        let text = summarize(path.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(
            text.contains(
                "budget max_events=2 charged_events=2 cutoff_seq=3 would_have_run=1 runs_cut=1"
            ),
            "{text}"
        );
    }

    #[test]
    fn first_divergence_finds_the_first_line() {
        assert_eq!(first_divergence("a\nb\nc", "a\nb\nc"), None);
        let (line, a, b) = first_divergence("a\nb\nc", "a\nx\nc").unwrap();
        assert_eq!((line, a.as_str(), b.as_str()), (2, "b", "x"));
        let (line, a, b) = first_divergence("a", "a\nextra").unwrap();
        assert_eq!((line, a.as_str(), b.as_str()), (2, "<absent>", "extra"));
    }
}
