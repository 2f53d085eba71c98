//! End-to-end tests of the `hprc-exp` binary: help/usage exit codes,
//! argument errors, and `--jobs` invariance of the `.attr.json`
//! attribution artifact.

use std::path::{Path, PathBuf};
use std::process::Command;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_hprc-exp")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hprc-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(exe()).arg(flag).output().expect("run binary");
        assert!(out.status.success(), "{flag} should exit 0");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("usage: hprc-exp"), "{flag} usage missing");
        assert!(
            text.contains("attr.json"),
            "{flag} usage should cover attribution"
        );
    }
}

#[test]
fn list_prints_one_line_per_experiment() {
    let out = Command::new(exe()).arg("list").output().expect("run list");
    assert!(out.status.success(), "list should exit 0");
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        hprc_exp::EXPERIMENTS.len(),
        "one line per experiment id:\n{text}"
    );
    // Lines lead with the ids, in presentation order, each followed by
    // its one-line description.
    for (line, e) in lines.iter().zip(&hprc_exp::EXPERIMENTS) {
        let id = e.id;
        assert!(
            line.starts_with(id),
            "line should lead with {id:?}: {line:?}"
        );
        assert!(
            line.ends_with(e.description),
            "line should end with the description for {id:?}: {line:?}"
        );
    }
    // Pin the new experiment's row verbatim.
    assert!(
        lines.contains(&"ext-preempt      Preemptive execution via PR: deadlines, priority + EDF"),
        "ext-preempt row changed:\n{text}"
    );
    // The usage text advertises the subcommand.
    let out = Command::new(exe()).arg("--help").output().expect("run");
    assert!(String::from_utf8_lossy(&out.stdout).contains("hprc-exp list"));
}

#[test]
fn unknown_flag_and_unknown_id_fail() {
    let out = Command::new(exe())
        .arg("--frobnicate")
        .output()
        .expect("run binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    for id in ["no-such-experiment", "bench"] {
        let out = Command::new(exe()).arg(id).output().expect("run binary");
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains(&format!("unknown experiment: {id}")));
    }
}

#[test]
fn unparseable_seed_prints_usage_and_fails() {
    let out = Command::new(exe())
        .args(["--seed", "not-a-number", "table1"])
        .output()
        .expect("run binary");
    assert!(
        !out.status.success(),
        "an unparseable seed must exit non-zero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--seed requires an unsigned integer"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: hprc-exp"),
        "should print usage: {stderr}"
    );
}

fn run_fig9a_trace(dir: &Path, jobs: &str) -> Vec<u8> {
    let out = Command::new(exe())
        .args(["--jobs", jobs, "--trace"])
        .arg(dir)
        .args(["--out"])
        .arg(dir.join("results"))
        .arg("fig9a")
        .output()
        .expect("run fig9a");
    assert!(
        out.status.success(),
        "fig9a --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read(dir.join("fig9a.attr.json")).expect("fig9a.attr.json written")
}

#[test]
fn fig9a_attribution_is_byte_identical_across_jobs() {
    let d1 = tmp_dir("attr-j1");
    let d4 = tmp_dir("attr-j4");
    let serial = run_fig9a_trace(&d1, "1");
    let parallel = run_fig9a_trace(&d4, "4");
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "attr.json must not depend on --jobs");
    // Spot-check the artifact's schema.
    let v = serde_json::from_str(&String::from_utf8(serial).unwrap()).unwrap();
    assert_eq!(v["id"].as_str().unwrap(), "fig9a");
    assert!(v["prtr"]["hiding_efficiency"].as_f64().unwrap() > 0.0);
    assert!(v["gap"]["s_asymptotic"].as_f64().unwrap() > 0.0);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

#[test]
fn journal_cli_replay_check_diff_and_usage() {
    let dir = tmp_dir("journal-cli");
    let out = Command::new(exe())
        .args(["--trace"])
        .arg(&dir)
        .arg("--out")
        .arg(dir.join("results"))
        .arg("profiles")
        .output()
        .expect("run profiles");
    assert!(
        out.status.success(),
        "profiles --trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jpath = dir.join("profiles.journal.jsonl");
    assert!(jpath.exists(), "--trace writes <id>.journal.jsonl");

    // replay-check regenerates byte-identically from the header.
    let out = Command::new(exe())
        .args(["journal", "replay-check"])
        .arg(&jpath)
        .output()
        .expect("run replay-check");
    assert!(
        out.status.success(),
        "replay-check failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("replay-check ok"));

    // diff of a journal against itself is clean…
    let out = Command::new(exe())
        .args(["journal", "diff"])
        .arg(&jpath)
        .arg(&jpath)
        .output()
        .expect("run diff");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("journals identical"));

    // …and a corrupted copy both diffs (line-exact) and fails replay.
    let corrupted = dir.join("corrupted.journal.jsonl");
    let text = std::fs::read_to_string(&jpath).unwrap();
    std::fs::write(&corrupted, text.replacen("\"seed\":0", "\"seed\":1", 1)).unwrap();
    let out = Command::new(exe())
        .args(["journal", "diff"])
        .arg(&jpath)
        .arg(&corrupted)
        .output()
        .expect("run diff");
    assert!(
        !out.status.success(),
        "divergent journals must exit non-zero"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("diverge at line 1"));
    let out = Command::new(exe())
        .args(["journal", "replay-check"])
        .arg(&corrupted)
        .output()
        .expect("run replay-check");
    assert!(
        !out.status.success(),
        "forged header must fail replay-check"
    );

    // summarize renders the causal report.
    let out = Command::new(exe())
        .args(["journal", "summarize"])
        .arg(&jpath)
        .output()
        .expect("run summarize");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("experiment profiles"));
    assert!(text.contains("per-class span time"));

    // journal with no/unknown subcommand fails with usage.
    let out = Command::new(exe()).arg("journal").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: hprc-exp journal"));

    // top-level usage advertises the subcommand.
    let out = Command::new(exe()).arg("--help").output().expect("run");
    assert!(String::from_utf8_lossy(&out.stdout).contains("journal"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig9a_journal_is_byte_identical_across_jobs_via_cli() {
    let d1 = tmp_dir("journal-j1");
    let d4 = tmp_dir("journal-j4");
    run_fig9a_trace(&d1, "1");
    run_fig9a_trace(&d4, "4");
    let out = Command::new(exe())
        .args(["journal", "diff"])
        .arg(d1.join("fig9a.journal.jsonl"))
        .arg(d4.join("fig9a.journal.jsonl"))
        .output()
        .expect("run diff");
    assert!(
        out.status.success(),
        "fig9a journal must not depend on --jobs: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}
