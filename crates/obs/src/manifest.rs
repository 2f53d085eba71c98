//! The write-ahead run manifest: a JSONL log (`<run>.manifest.jsonl`)
//! that makes `hprc-exp` runs crash-safe and resumable.
//!
//! Every entry carries a strictly increasing `seq` number and is
//! fsynced to disk **before** the side effects it announces, so the
//! manifest is always at least as new as the artifact directory:
//!
//! ```text
//! {"seq":0,"ev":"intent","schema":"hprc-manifest/v1","run":"run",
//!  "ids":["table2","fig5"],"seed":0,"trace":false}
//! {"seq":1,"ev":"point-begin","id":"table2"}
//! {"seq":2,"ev":"artifact-sealed","id":"table2","dir":"out",
//!  "name":"table2.json","crc":"9a0b1c2d","bytes":1234}
//! {"seq":3,"ev":"point-complete","id":"table2"}
//! ...
//! {"seq":N,"ev":"run-complete"}
//! ```
//!
//! The intent line records only what identifies the *results* — the id
//! list, the seed, and whether trace artifacts are in play — never the
//! `--jobs` budget, output paths, or cache toggles, so manifests are
//! byte-identical across every knob that is documented not to change
//! artifacts. A resumed run appends a `resume` entry and continues the
//! seq numbering.
//!
//! Deterministic crash injection rides on the same seq stream: a
//! manifest armed with `crash_at = Some(S)` aborts the process
//! immediately after entry `S` is durable — exactly once, at exactly
//! the same point on every run, at any parallelism (commits are
//! serialized in id order). Disarmed, the check is one `Option`
//! compare.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::artifact::sync_parent;
use crate::journal::esc;

/// Schema tag carried by (and required on) every manifest's intent line.
pub const MANIFEST_SCHEMA: &str = "hprc-manifest/v1";

/// Which run directory a sealed artifact lives in: the `--out` results
/// directory or the `--trace` instrumentation directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactDirKind {
    /// The `--out` directory (reports, CSV series).
    Out,
    /// The `--trace` directory (metrics, traces, attribution, journals).
    Trace,
}

impl ArtifactDirKind {
    /// The manifest wire name (`"out"` / `"trace"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactDirKind::Out => "out",
            ArtifactDirKind::Trace => "trace",
        }
    }

    /// Parses the wire name back.
    pub fn parse(s: &str) -> Option<ArtifactDirKind> {
        match s {
            "out" => Some(ArtifactDirKind::Out),
            "trace" => Some(ArtifactDirKind::Trace),
            _ => None,
        }
    }
}

/// An open write-ahead manifest. Every append assigns the next seq,
/// writes one JSONL line, fsyncs it, then (if armed) fires the crash
/// injection — so entry `S` being on disk proves entries `0..=S` are.
#[derive(Debug)]
pub struct Manifest {
    file: fs::File,
    seq: u64,
    crash_at: Option<u64>,
}

impl Manifest {
    /// Creates (truncating) a fresh manifest starting at seq 0. The
    /// parent directory is synced so the new file's entry survives a
    /// power loss: each append syncs only the file's data.
    pub fn create(path: &Path, crash_at: Option<u64>) -> io::Result<Manifest> {
        let file = fs::File::create(path)?;
        sync_parent(path);
        Ok(Manifest {
            file,
            seq: 0,
            crash_at,
        })
    }

    /// Reopens an existing manifest for appending, continuing the seq
    /// numbering at `next_seq` (the caller parsed the file and knows
    /// how many valid entries it holds).
    pub fn append_to(path: &Path, next_seq: u64, crash_at: Option<u64>) -> io::Result<Manifest> {
        Ok(Manifest {
            file: fs::OpenOptions::new().append(true).open(path)?,
            seq: next_seq,
            crash_at,
        })
    }

    /// The seq the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    fn append(&mut self, body: &str) -> io::Result<u64> {
        let seq = self.seq;
        self.file
            .write_all(format!("{{\"seq\":{seq},{body}}}\n").as_bytes())?;
        // The write-ahead guarantee: the entry is durable before the
        // side effects it announces happen (and before we return).
        self.file.sync_all()?;
        self.seq += 1;
        if self.crash_at == Some(seq) {
            eprintln!("hprc: injected crash at manifest seq {seq}");
            std::process::abort();
        }
        Ok(seq)
    }

    /// Appends the intent line: what this run will produce. Recorded
    /// fields identify the artifacts only (ids, seed, trace) — never
    /// jobs/paths/caches — so manifests stay byte-identical across
    /// every artifact-invariant knob.
    pub fn intent(&mut self, run: &str, ids: &[String], seed: u64, trace: bool) -> io::Result<u64> {
        let ids_json: Vec<String> = ids.iter().map(|i| format!("\"{}\"", esc(i))).collect();
        self.append(&format!(
            "\"ev\":\"intent\",\"schema\":\"{MANIFEST_SCHEMA}\",\"run\":\"{}\",\"ids\":[{}],\"seed\":{seed},\"trace\":{trace}",
            esc(run),
            ids_json.join(","),
        ))
    }

    /// Appends a point-begin entry: experiment `id`'s artifacts are
    /// about to be (re)written, so any previous seals for it are void.
    pub fn point_begin(&mut self, id: &str) -> io::Result<u64> {
        self.append(&format!("\"ev\":\"point-begin\",\"id\":\"{}\"", esc(id)))
    }

    /// Appends an artifact-sealed entry recording the CRC32 and length
    /// the artifact was sealed with (after the seal is durable).
    pub fn artifact_sealed(
        &mut self,
        id: &str,
        dir: ArtifactDirKind,
        name: &str,
        crc: u32,
        bytes: u64,
    ) -> io::Result<u64> {
        self.append(&format!(
            "\"ev\":\"artifact-sealed\",\"id\":\"{}\",\"dir\":\"{}\",\"name\":\"{}\",\"crc\":\"{crc:08x}\",\"bytes\":{bytes}",
            esc(id),
            dir.as_str(),
            esc(name),
        ))
    }

    /// Appends a point-complete entry: every artifact of `id` is sealed
    /// and durable; resume may salvage the point (after re-verifying).
    pub fn point_complete(&mut self, id: &str) -> io::Result<u64> {
        self.append(&format!("\"ev\":\"point-complete\",\"id\":\"{}\"", esc(id)))
    }

    /// Appends a resume entry: which points were salvaged and which are
    /// being re-executed. Informational — the per-point entries that
    /// follow carry the authoritative state.
    pub fn resumed(&mut self, salvaged: &[String], redo: &[String]) -> io::Result<u64> {
        let list = |ids: &[String]| {
            ids.iter()
                .map(|i| format!("\"{}\"", esc(i)))
                .collect::<Vec<_>>()
                .join(",")
        };
        self.append(&format!(
            "\"ev\":\"resume\",\"salvaged\":[{}],\"redo\":[{}]",
            list(salvaged),
            list(redo),
        ))
    }

    /// Appends the run-complete entry: every point is complete.
    pub fn run_complete(&mut self) -> io::Result<u64> {
        self.append("\"ev\":\"run-complete\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_manifest(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hprc-manifest-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("run.manifest.jsonl")
    }

    #[test]
    fn entries_get_consecutive_seq_numbers_and_one_line_each() {
        let path = tmp_manifest("seq");
        let mut m = Manifest::create(&path, None).unwrap();
        assert_eq!(
            m.intent("run", &["table2".to_string()], 7, false).unwrap(),
            0
        );
        assert_eq!(m.point_begin("table2").unwrap(), 1);
        assert_eq!(
            m.artifact_sealed(
                "table2",
                ArtifactDirKind::Out,
                "table2.json",
                0xDEAD_BEEF,
                42
            )
            .unwrap(),
            2
        );
        assert_eq!(m.point_complete("table2").unwrap(), 3);
        assert_eq!(m.run_complete().unwrap(), 4);
        assert_eq!(m.next_seq(), 5);

        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"seq\":0,\"ev\":\"intent\""));
        assert!(lines[0].contains("\"schema\":\"hprc-manifest/v1\""));
        assert!(lines[0].contains("\"ids\":[\"table2\"]"));
        assert!(lines[2].contains("\"crc\":\"deadbeef\""));
        assert!(lines[2].contains("\"dir\":\"out\""));
        assert!(lines[4].contains("\"ev\":\"run-complete\""));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn append_to_continues_the_numbering() {
        let path = tmp_manifest("append");
        let mut m = Manifest::create(&path, None).unwrap();
        m.intent("run", &[], 0, true).unwrap();
        drop(m);
        let mut m = Manifest::append_to(&path, 1, None).unwrap();
        m.resumed(&["a".to_string()], &["b".to_string()]).unwrap();
        m.run_complete().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("{\"seq\":1,\"ev\":\"resume\""));
        assert!(lines[1].contains("\"salvaged\":[\"a\"]"));
        assert!(lines[2].starts_with("{\"seq\":2,"));
        fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn dir_kind_round_trips() {
        for kind in [ArtifactDirKind::Out, ArtifactDirKind::Trace] {
            assert_eq!(ArtifactDirKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(ArtifactDirKind::parse("elsewhere"), None);
    }
}
