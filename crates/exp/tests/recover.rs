//! Crash-safety end-to-end tests: artifact sealing vs torn/corrupt
//! files and the manifest parser vs torn or gapped manifests
//! (property-based), deterministic `--crash-at` injection, and
//! `hprc-exp resume` byte-identity at every crash point.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use hprc_exp::recover::parse_manifest;
use hprc_obs::artifact::{self, ArtifactState};
use hprc_obs::manifest::{ArtifactDirKind, Manifest};
use proptest::prelude::*;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_hprc-exp")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hprc-recover-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Every file under `dir` (flat), minus the manifest — the one
/// artifact allowed to differ between interrupted and clean runs.
fn artifact_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut tree = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read artifact dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().to_string();
        if name.ends_with(".manifest.jsonl") {
            continue;
        }
        tree.insert(name, std::fs::read(entry.path()).expect("read artifact"));
    }
    tree
}

/// A complete manifest written through the `Manifest` API: intent, two
/// points with two seals each, run-complete — ten lines, seqs 0-9.
fn sample_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = tmp_dir("sample-manifest");
        let path = dir.join("run.manifest.jsonl");
        let mut m = Manifest::create(&path, None).expect("create manifest");
        let ids = ["fig9a".to_string(), "ext-faults".to_string()];
        m.intent("run", &ids, 7, true).expect("intent");
        for id in &ids {
            m.point_begin(id).expect("point-begin");
            m.artifact_sealed(
                id,
                ArtifactDirKind::Out,
                &format!("{id}.json"),
                0xdead_beef,
                812,
            )
            .expect("seal");
            m.artifact_sealed(
                id,
                ArtifactDirKind::Trace,
                &format!("{id}.trace.json"),
                0x0bad_f00d,
                96,
            )
            .expect("seal");
            m.point_complete(id).expect("point-complete");
        }
        m.run_complete().expect("run-complete");
        let text = std::fs::read_to_string(&path).expect("read manifest");
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}

fn run_sweep(out: &Path, jobs: &str, crash_at: Option<u64>) -> std::process::Output {
    let mut cmd = Command::new(exe());
    cmd.args(["--seed", "3", "--jobs", jobs, "--out"]).arg(out);
    if let Some(seq) = crash_at {
        cmd.args(["--crash-at", &seq.to_string()]);
    }
    cmd.args(["table2", "fig5"]).output().expect("run sweep")
}

fn resume(out: &Path, jobs: &str) -> std::process::Output {
    Command::new(exe())
        .args(["resume", "run", "--jobs", jobs, "--out"])
        .arg(out)
        .output()
        .expect("run resume")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a sealed artifact anywhere is detected — `verify`
    /// reports Torn (or Missing at zero with a removed file), never
    /// Clean.
    #[test]
    fn truncation_is_never_clean(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = tmp_dir("prop-trunc");
        let path = dir.join("a.bin");
        artifact::seal(&path, &payload).expect("seal");
        let cut = ((payload.len() as f64) * cut_frac) as usize; // < len
        std::fs::write(&path, &payload[..cut]).expect("truncate");
        let state = artifact::verify(&path);
        prop_assert!(
            matches!(state, ArtifactState::Torn(_)),
            "truncation to {cut}/{} bytes must read torn, got {state}",
            payload.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single bit of a sealed artifact is detected —
    /// same-length corruption always reads Corrupt, never Clean.
    #[test]
    fn bitflip_is_never_clean(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = tmp_dir("prop-flip");
        let path = dir.join("a.bin");
        artifact::seal(&path, &payload).expect("seal");
        let mut mutated = payload.clone();
        let idx = ((payload.len() as f64) * byte_frac) as usize % payload.len();
        mutated[idx] ^= 1 << bit; // always changes exactly one bit
        std::fs::write(&path, &mutated).expect("mutate");
        let state = artifact::verify(&path);
        prop_assert!(
            matches!(state, ArtifactState::Corrupt(_)),
            "bit flip at byte {idx} bit {bit} must read corrupt, got {state}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Corrupting the *sidecar* instead of the artifact is equally
    /// fatal: the pair never verifies Clean.
    #[test]
    fn sidecar_damage_is_never_clean(
        garbage_bytes in proptest::collection::vec(97u8..123, 1..40),
    ) {
        let garbage = String::from_utf8(garbage_bytes).expect("ascii garbage");
        let dir = tmp_dir("prop-sidecar");
        let path = dir.join("a.bin");
        artifact::seal(&path, b"payload").expect("seal");
        std::fs::write(artifact::sidecar_path(&path), &garbage).expect("damage sidecar");
        let state = artifact::verify(&path);
        prop_assert!(
            !state.is_clean(),
            "garbage sidecar {garbage:?} must not verify clean, got {state}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// A manifest cut at any byte offset — a crash mid-append — is
    /// rejected exactly when its intent line is incomplete. Otherwise
    /// every complete line is kept and the torn tail dropped: `next_seq`
    /// counts the newlines and `valid_bytes` ends just after the last.
    #[test]
    fn manifest_truncated_anywhere_keeps_its_complete_lines(k in 0..=sample_manifest().len()) {
        let text = sample_manifest();
        let intent_len = text.find('\n').expect("intent line") + 1;
        let prefix = &text[..k];
        match parse_manifest(prefix) {
            Err(e) => prop_assert!(k < intent_len, "cut at {k} rejected: {e}"),
            Ok(p) => {
                prop_assert!(k >= intent_len, "cut at {k} inside the intent line parsed");
                prop_assert_eq!(p.next_seq, prefix.matches('\n').count() as u64);
                prop_assert_eq!(p.valid_bytes, prefix.rfind('\n').map_or(0, |i| i + 1));
                prop_assert_eq!(p.run_complete, k == text.len());
            }
        }
    }

    /// A manifest missing any one line but its last has a seq gap,
    /// which the parser rejects as out of order.
    #[test]
    fn manifest_missing_a_line_is_out_of_order(gone in 0..sample_manifest().lines().count() - 1) {
        let without: String = sample_manifest()
            .split_inclusive('\n')
            .enumerate()
            .filter(|&(i, _)| i != gone)
            .map(|(_, line)| line)
            .collect();
        match parse_manifest(&without) {
            Err(e) => prop_assert!(e.contains("out of order"), "line {gone} deleted: {e}"),
            Ok(_) => prop_assert!(false, "line {gone} deleted, yet the manifest parsed"),
        }
    }
}

/// The tentpole guarantee: crash at *every* manifest seq of a small
/// sweep, resume, and land byte-identical to an uninterrupted run — at
/// `--jobs 1` and `--jobs 4` for both the crash and the resume.
///
/// Seq layout for `table2 fig5` (no trace): 0 intent, 1-3 table2
/// begin/json/complete, 4-7 fig5 begin/json/csv/complete, 8
/// run-complete.
#[test]
fn resume_after_crash_at_every_seq_is_byte_identical() {
    let ref_dir = tmp_dir("ref");
    assert!(run_sweep(&ref_dir, "1", None).status.success());
    let reference = artifact_tree(&ref_dir);
    assert!(
        reference.keys().any(|k| k == "fig5.csv"),
        "reference run should write the fig5 series: {:?}",
        reference.keys().collect::<Vec<_>>()
    );

    for seq in 0..=8u64 {
        for jobs in ["1", "4"] {
            let dir = tmp_dir(&format!("crash-{seq}-j{jobs}"));
            let out = run_sweep(&dir, jobs, Some(seq));
            assert!(
                !out.status.success(),
                "seq {seq} jobs {jobs}: the injected crash must kill the process"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("injected crash at manifest seq {seq}")),
                "seq {seq} jobs {jobs}: missing crash note: {stderr}"
            );
            let out = resume(&dir, jobs);
            assert!(
                out.status.success(),
                "seq {seq} jobs {jobs}: resume failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                artifact_tree(&dir),
                reference,
                "seq {seq} jobs {jobs}: resumed artifacts must be byte-identical"
            );
            // Crashes past a point-complete salvage that point instead
            // of re-executing it.
            let stdout = String::from_utf8_lossy(&out.stdout);
            if seq >= 4 {
                assert!(
                    stdout.contains("salvage table2"),
                    "seq {seq} jobs {jobs}: table2 was durable and must salvage: {stdout}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// The manifest itself is deterministic: identical bytes at any
/// `--jobs`, because commits are serialized in id order.
#[test]
fn manifest_is_byte_identical_across_jobs() {
    let d1 = tmp_dir("manifest-j1");
    let d4 = tmp_dir("manifest-j4");
    assert!(run_sweep(&d1, "1", None).status.success());
    assert!(run_sweep(&d4, "4", None).status.success());
    let m1 = std::fs::read(d1.join("run.manifest.jsonl")).expect("manifest at jobs 1");
    let m4 = std::fs::read(d4.join("run.manifest.jsonl")).expect("manifest at jobs 4");
    assert!(!m1.is_empty());
    assert_eq!(m1, m4, "manifest seqs must not depend on --jobs");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d4);
}

/// A completed point whose artifact was later corrupted on disk is
/// never salvaged: resume detects the damage and re-executes.
#[test]
fn resume_reexecutes_corrupted_artifacts() {
    let dir = tmp_dir("corrupt");
    assert!(run_sweep(&dir, "1", None).status.success());
    let reference = artifact_tree(&dir);

    // Same-length bit flip deep inside the sealed CSV.
    let path = dir.join("fig5.csv");
    let mut bytes = std::fs::read(&path).expect("read csv");
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x20;
    std::fs::write(&path, &bytes).expect("corrupt csv");

    let out = resume(&dir, "2");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("re-execute fig5") && stdout.contains("corrupt"),
        "corruption must force re-execution: {stdout}"
    );
    assert!(
        stdout.contains("salvage table2"),
        "the untouched point must salvage: {stdout}"
    );
    assert_eq!(artifact_tree(&dir), reference, "repair must be byte-exact");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn manifest tail (crash mid-append) is dropped and resume
/// continues from the last durable entry.
#[test]
fn resume_tolerates_a_torn_manifest_tail() {
    let dir = tmp_dir("torn-tail");
    let out = run_sweep(&dir, "1", Some(4));
    assert!(!out.status.success());
    // Fake the torn tail of a crash mid-append.
    use std::io::Write;
    let mpath = dir.join("run.manifest.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&mpath)
        .expect("open manifest");
    f.write_all(b"{\"seq\":5,\"ev\":\"artifact-se")
        .expect("append torn tail");
    drop(f);

    let out = resume(&dir, "1");
    assert!(
        out.status.success(),
        "resume with torn tail failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The tail was truncated away and the manifest continues seq 5+.
    let text = std::fs::read_to_string(&mpath).expect("read manifest");
    assert!(text.lines().all(|l| serde_json::from_str(l).is_ok()));
    assert!(text.contains("\"ev\":\"resume\""));
    assert!(text.contains("\"ev\":\"run-complete\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming an uninterrupted, fully-verified run is a no-op.
#[test]
fn resume_of_a_complete_run_is_a_noop() {
    let dir = tmp_dir("noop");
    assert!(run_sweep(&dir, "1", None).status.success());
    let before = artifact_tree(&dir);
    let out = resume(&dir, "1");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("nothing to do"),
        "complete run must short-circuit"
    );
    assert_eq!(artifact_tree(&dir), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `HPRC_CRASH_AT` is the env twin of `--crash-at`: same injection,
/// and a malformed value is an error rather than a silent disarm.
#[test]
fn crash_at_env_var_injects_and_validates() {
    let dir = tmp_dir("env-crash");
    let out = Command::new(exe())
        .args(["--seed", "3", "--out"])
        .arg(&dir)
        .arg("table2")
        .env("HPRC_CRASH_AT", "2")
        .output()
        .expect("run with env crash");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("injected crash at manifest seq 2"),
        "HPRC_CRASH_AT must inject like --crash-at"
    );

    let out = Command::new(exe())
        .args(["--seed", "3", "--out"])
        .arg(&dir)
        .arg("table2")
        .env("HPRC_CRASH_AT", "not-a-seq")
        .output()
        .expect("run with bad env crash");
    assert!(!out.status.success(), "garbage HPRC_CRASH_AT must fail");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("HPRC_CRASH_AT"),
        "error must name the env var"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume CLI misuse fails with a usage-style message, never a panic.
#[test]
fn resume_cli_errors_are_clean() {
    let cases: &[&[&str]] = &[
        &["resume"],                        // missing RUN_ID
        &["resume", "a", "b"],              // two RUN_IDs
        &["resume", "run", "--jobs", "0"],  // bad jobs
        &["resume", "run", "--frobnicate"], // unknown flag
        &["resume", "no-such-run"],         // missing manifest
    ];
    for args in cases {
        let out = Command::new(exe())
            .args(*args)
            .output()
            .expect("run resume");
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: hprc-exp resume") || stderr.contains("error:"),
            "{args:?} should print a usage-style error: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?} must fail cleanly, not panic: {stderr}"
        );
    }
    // --help exits zero with the resume usage.
    let out = Command::new(exe())
        .args(["resume", "--help"])
        .output()
        .expect("run resume --help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: hprc-exp resume"));
}

/// Passing --trace to resume when the run wrote none (and vice versa)
/// is an explicit error — the manifest records which mode ran.
#[test]
fn resume_trace_flag_must_match_the_manifest() {
    let dir = tmp_dir("trace-mismatch");
    assert!(run_sweep(&dir, "1", None).status.success());
    let out = Command::new(exe())
        .args(["resume", "run", "--out"])
        .arg(&dir)
        .args(["--trace"])
        .arg(dir.join("trace"))
        .output()
        .expect("run resume --trace");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("drop --trace"),
        "trace mismatch must be explicit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
