//! Every experiment's metrics, pinned: each `EXPERIMENTS` entry
//! produced once under a live registry at seed 0, its `<id>.metrics.json`
//! blob (the exact bytes `--trace` seals) must give the CRC32 and length
//! recorded in `golden/metrics.crc` (one `name crc32 len` line per
//! experiment, sorted by name) — at an inner jobs budget of 1 and of 2,
//! so each sweep's parallel fan-out and its index-ordered merge are
//! pinned too.
//!
//! The fast-path equivalence proptests compare each executor with its
//! per-call oracle; both derive their counters and histograms the same
//! way, so only this golden catches a mistake the two share.

use hprc_exp::recover::produce;
use hprc_exp::{experiment_ctx, EXPERIMENTS};
use hprc_obs::artifact::crc32;
use hprc_obs::DeltaCache;

fn seals(jobs: usize) -> String {
    let mut actual: Vec<String> = EXPERIMENTS
        .iter()
        .map(|exp| {
            let ctx = experiment_ctx(exp.id, 0, jobs, true, DeltaCache::disabled());
            let point = produce(exp, &ctx, true).expect("the experiment runs");
            let metrics = point
                .blobs
                .iter()
                .find(|b| b.name.ends_with(".metrics.json"))
                .expect("a traced point seals metrics.json");
            format!(
                "{} {:08x} {}\n",
                metrics.name,
                crc32(&metrics.bytes),
                metrics.bytes.len()
            )
        })
        .collect();
    actual.sort();
    actual.concat()
}

#[test]
fn every_metrics_snapshot_matches_the_golden_crc() {
    let golden = include_str!("golden/metrics.crc");
    for jobs in [1, 2] {
        let actual = seals(jobs);
        if actual == golden {
            continue;
        }
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("metrics.crc");
        std::fs::write(&path, &actual).expect("write drifted seals");
        panic!(
            "metrics seals at jobs {jobs} drifted from the committed golden:\n{actual}\n\
             if the change is intentional, copy\n\
             \x20 {}\n\
             over crates/exp/tests/golden/metrics.crc",
            path.display()
        );
    }
}
