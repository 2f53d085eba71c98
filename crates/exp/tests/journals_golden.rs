//! Every experiment's journal, pinned: `run_journaled(id, 0, jobs)` for
//! each of the 24 ids, expanded to its longhand (`hprc-journal/v1`)
//! bytes, must give exactly the CRC32 and length recorded in
//! `golden/journals.crc` (one `name crc32 len` line per journal, sorted
//! by name, at seed 0) — at an inner jobs budget of 1 and of 2, so each
//! sweep's parallel fan-out and its index-ordered journal merge are
//! pinned too.
//!
//! The small journal goldens pin a few runs verbatim; this one covers
//! every record the fast-path jumps stand for, across the whole suite.

use hprc_obs::artifact::crc32;
use hprc_obs::expand_jsonl;

fn seals(jobs: usize) -> String {
    let mut actual: Vec<String> = hprc_exp::ALL_EXPERIMENTS
        .iter()
        .map(|id| {
            let v2 = hprc_exp::run_journaled(id, 0, jobs).expect("a known id");
            let text = expand_jsonl(&v2).expect("an export expands");
            format!(
                "{id}.journal.jsonl {:08x} {}\n",
                crc32(text.as_bytes()),
                text.len()
            )
        })
        .collect();
    actual.sort();
    actual.concat()
}

#[test]
fn every_journal_matches_the_golden_crc() {
    let golden = include_str!("golden/journals.crc");
    for jobs in [1, 2] {
        let actual = seals(jobs);
        if actual == golden {
            continue;
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("journals.crc");
        std::fs::write(&path, &actual).expect("write drifted seals");
        panic!(
            "journal seals at jobs {jobs} drifted from the committed golden:\n{actual}\n\
             if the change is intentional, copy\n\
             \x20 {}\n\
             over crates/exp/tests/golden/journals.crc",
            path.display()
        );
    }
}
