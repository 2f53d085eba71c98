//! Every artifact's bytes, pinned: a plain `--jobs 2 all` run and a
//! traced run of the six experiments with a timeline must seal exactly
//! the CRC32 and length recorded in `golden/artifacts.crc` (one
//! `name crc32 len` line per artifact, sorted by name, at seed 0).
//!
//! The `--jobs` determinism checks only compare the binary with itself;
//! this golden also catches a self-consistent change of a report, a CSV
//! series, a Chrome trace or an attribution.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use hprc_obs::ArtifactState;

/// The experiments with a `--trace` timeline (`<id>.trace.json`).
const TRACED: [&str; 6] = [
    "fig9a",
    "fig9b",
    "profiles",
    "ext-faults",
    "ext-preempt",
    "ext-fleet",
];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hprc-exp-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes its directories when dropped, so a failing assertion leaves
/// none of them behind either.
struct RemoveOnDrop(Vec<PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn run(args: &[&str], out: &Path, trace: Option<&Path>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hprc-exp"));
    cmd.arg("--out").arg(out);
    if let Some(t) = trace {
        cmd.arg("--trace").arg(t);
    }
    let result = cmd.args(args).output().expect("run hprc-exp");
    assert!(
        result.status.success(),
        "hprc-exp {args:?} failed: {}",
        String::from_utf8_lossy(&result.stderr)
    );
}

/// `name -> "crc32 len"` for every artifact in `dir` whose name passes
/// `keep`, read from its `.crc` sidecar after checking that the sidecar
/// matches the artifact's bytes.
fn seals(dir: &Path, keep: impl Fn(&str) -> bool) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let name = entry.expect("dir entry").file_name().into_string().unwrap();
        if name.ends_with(".crc") || !keep(&name) {
            continue;
        }
        match hprc_obs::artifact::verify(&dir.join(&name)) {
            ArtifactState::Clean { crc, bytes } => {
                out.insert(name, format!("{crc:08x} {bytes}"));
            }
            state => panic!("{name}: {state}"),
        }
    }
    out
}

#[test]
fn every_artifact_matches_the_golden_crc() {
    let golden: BTreeMap<String, String> = include_str!("golden/artifacts.crc")
        .lines()
        .map(|line| {
            let (name, seal) = line.split_once(' ').expect("name crc32 len");
            (name.to_string(), seal.to_string())
        })
        .collect();

    let (plain, out, trace) = (tmp_dir("plain"), tmp_dir("traced-out"), tmp_dir("traced"));
    let _cleanup = RemoveOnDrop(vec![plain.clone(), out.clone(), trace.clone()]);
    run(&["--jobs", "2", "all"], &plain, None);
    let reports = |n: &str| n.ends_with(".json") || n.ends_with(".csv");
    let mut actual = seals(&plain, reports);
    assert_eq!(actual.keys().filter(|n| n.ends_with(".json")).count(), 24);
    assert_eq!(actual.keys().filter(|n| n.ends_with(".csv")).count(), 7);

    let mut args = vec!["--jobs", "2"];
    args.extend(TRACED);
    run(&args, &out, Some(&trace));
    let traced = seals(&trace, |n| {
        n.ends_with(".trace.json") || n.ends_with(".attr.json")
    });
    assert_eq!(
        traced.keys().filter(|n| n.ends_with(".trace.json")).count(),
        6
    );
    assert_eq!(
        traced.keys().filter(|n| n.ends_with(".attr.json")).count(),
        5
    );
    actual.extend(traced);

    // The traced run's reports and series are the plain run's bytes.
    for (name, seal) in seals(&out, reports) {
        assert_eq!(Some(&seal), actual.get(&name), "{name}: traced run differs");
    }

    for (name, seal) in &golden {
        assert_eq!(
            actual.get(name),
            Some(seal),
            "{name} differs from the golden"
        );
    }
    assert_eq!(
        actual.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>(),
        "artifact set differs from the golden"
    );
}
