//! Property tests for index-ordered [`Registry::merge_from`] over a set
//! of per-index registries — the invariants the deterministic parallel
//! runner (`par_indexed`, which merges its children's registries into
//! the parent in index order) leans on:
//!
//! * counters add, so the merged totals are independent of which shard
//!   a recording landed in (and of merge order);
//! * gauges with per-shard-disjoint names (the runner's discipline —
//!   each index writes its own keys or the sweep summary writes after
//!   the merge barrier) are likewise order-independent;
//! * histogram sample *order* is index-order-deterministic: merging in
//!   shard-index order reproduces the exact serial recording, no matter
//!   in what order the workers actually finished;
//! * empty shards (and an empty shard set) are inert.
//!
//! These live at the workspace root because the obs crate's own
//! manifest is CI-guarded to its minimal dependency set (no dev-deps
//! beyond the workspace defaults), while the root crate already links
//! proptest.

use hprc_obs::Registry;
use proptest::prelude::*;
use serde::Serialize;

/// One shard's recordings: counter bumps on a small shared name pool,
/// and histogram samples on one shared instrument. An empty op list is
/// a valid (and important) case: a worker that recorded nothing.
#[derive(Debug, Clone)]
struct ShardOps {
    counters: Vec<(u8, u64)>,
    samples: Vec<f64>,
}

fn shard_ops() -> impl Strategy<Value = ShardOps> {
    (
        proptest::collection::vec((0..4u8, 0..100u64), 0..8),
        proptest::collection::vec(0.0..10.0f64, 0..8),
    )
        .prop_map(|(counters, samples)| ShardOps { counters, samples })
}

fn record(reg: &Registry, shard_index: usize, ops: &ShardOps) {
    for &(name, amount) in &ops.counters {
        reg.counter(&format!("c{name}")).add(amount);
    }
    // Disjoint gauge names per shard: the runner's write discipline.
    if !ops.counters.is_empty() || !ops.samples.is_empty() {
        reg.gauge(&format!("g{shard_index}"))
            .set(shard_index as f64);
    }
    for &sample in &ops.samples {
        reg.histogram("h").record(sample);
    }
}

/// Deterministic permutation of `0..n` from a seed (argsort of a
/// splitmix-style keyed hash; no RNG dependency needed).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| {
        let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^ (x >> 27)
    });
    idx
}

/// `n` private registries, one per fan-out index.
fn shards(n: usize) -> Vec<Registry> {
    (0..n).map(|_| Registry::new()).collect()
}

/// Folds every shard into `parent` in index order.
fn merge(shards: &[Registry], parent: &Registry) {
    for shard in shards {
        parent.merge_from(shard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Assigning the same shard contents to different shard indices (a
    /// permuted fan-out) must not change merged counter totals, gauge
    /// values under disjoint names, or histogram aggregate statistics.
    #[test]
    fn counter_and_gauge_merge_is_order_independent(
        ops in proptest::collection::vec(shard_ops(), 0..6),
        seed in any::<u64>(),
    ) {
        let perm = permutation(ops.len(), seed);

        let forward = Registry::new();
        let set = shards(ops.len());
        for (i, op) in ops.iter().enumerate() {
            record(&set[i], i, op);
        }
        merge(&set, &forward);

        let permuted = Registry::new();
        let set = shards(ops.len());
        for (slot, &src) in perm.iter().enumerate() {
            // Shard `slot` now holds what shard `src` held, but keeps
            // `src`'s gauge key so the gauge name set stays disjoint.
            record(&set[slot], src, &ops[src]);
        }
        merge(&set, &permuted);

        let a = forward.snapshot();
        let b = permuted.snapshot();
        prop_assert_eq!(&a.counters, &b.counters);
        prop_assert_eq!(&a.gauges, &b.gauges);
        // Histogram *order* may differ under permutation; the
        // aggregates must not.
        prop_assert_eq!(a.histograms.len(), b.histograms.len());
        for (name, ha) in &a.histograms {
            let hb = &b.histograms[name];
            prop_assert_eq!(ha.count, hb.count);
            prop_assert!((ha.sum - hb.sum).abs() < 1e-9);
            prop_assert_eq!(ha.min, hb.min);
            prop_assert_eq!(ha.max, hb.max);
        }
    }

    /// Merging in shard-index order reproduces the serial oracle
    /// exactly — including histogram sample order — no matter in what
    /// order the workers finished recording.
    #[test]
    fn histogram_merge_is_index_order_deterministic(
        ops in proptest::collection::vec(shard_ops(), 0..6),
        seed in any::<u64>(),
    ) {
        let serial = Registry::new();
        for (i, op) in ops.iter().enumerate() {
            record(&serial, i, op);
        }

        let parent = Registry::new();
        let set = shards(ops.len());
        // Workers complete in an arbitrary order...
        for &i in &permutation(ops.len(), seed) {
            record(&set[i], i, &ops[i]);
        }
        // ...but the merge barrier folds them in index order.
        merge(&set, &parent);

        let a = serial.snapshot().to_json_value();
        let b = parent.snapshot().to_json_value();
        prop_assert_eq!(&a["counters"], &b["counters"]);
        prop_assert_eq!(&a["gauges"], &b["gauges"]);
        prop_assert_eq!(&a["histograms"], &b["histograms"]);
    }
}

#[test]
fn empty_shards_and_empty_sets_are_inert() {
    let parent = Registry::new();
    parent.counter("pre").add(7);
    parent.histogram("h").record(1.0);

    // Zero shards: merge is a no-op.
    merge(&shards(0), &parent);

    // Shards that recorded nothing (including one with an instrument
    // created but never bumped): still a no-op on counters/samples.
    let set = shards(3);
    let _ = set[1].histogram("h");
    merge(&set, &parent);

    let snap = parent.snapshot();
    assert_eq!(snap.counters["pre"], 7);
    assert_eq!(snap.histograms["h"].count, 1);
    assert_eq!(snap.histograms.len(), 1);
}
