//! Every experiment's logical metrics, pinned: each `EXPERIMENTS` entry
//! produced once under a live registry at seed 0, its snapshot taken
//! without the wall-clock spans and serialized exactly as `--trace`
//! writes `<id>.metrics.json`, must give the CRC32 and length recorded
//! in `golden/metrics.crc` (one `name crc32 len` line per experiment,
//! sorted by name) — at an inner jobs budget of 1 and of 2, so each
//! sweep's parallel fan-out and its index-ordered merge are pinned too.
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
            produce(exp, &ctx, true).expect("the experiment runs");
            let mut snap = ctx.registry.snapshot();
            snap.spans.clear();
            let text = serde_json::to_string_pretty(&snap).expect("a snapshot serializes");
            format!(
                "{}.metrics.json {:08x} {}\n",
                exp.id,
                crc32(text.as_bytes()),
                text.len()
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
