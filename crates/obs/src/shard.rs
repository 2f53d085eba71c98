//! Sharded recording: per-worker private registries merged once, in
//! index order, at the end of a fan-out.
//!
//! Parallel sweep runners want two properties that fight each other:
//! recording must not contend across workers (shared `Arc<AtomicU64>`
//! cells ping-pong cache lines between cores), and the merged artifact
//! must be byte-identical at any `--jobs`. A [`ShardedRegistry`] gives
//! each work index its own private [`Registry`] — no instrument cell is
//! ever shared between two workers while the fan-out runs — and then
//! [`ShardedRegistry::merge`] folds the shards into the parent **in
//! shard-index order** via [`Registry::merge_from`], which reproduces
//! the exact instrument state of an equivalent serial run: counters
//! add, gauges resolve last-index-wins, histogram samples append in
//! index order.
//!
//! Discipline: hand shard `i` to exactly the worker that processes
//! index `i`, and merge each shard exactly once (`merge` consumes the
//! set precisely so a double merge cannot be expressed).
//!
//! ```
//! use hprc_obs::{Registry, ShardedRegistry};
//!
//! let parent = Registry::new();
//! let shards = ShardedRegistry::new(&parent, 4);
//! for i in 0..4 {
//!     // (each index runs on its own worker thread in a real fan-out)
//!     shards.shard(i).counter("points").inc();
//! }
//! shards.merge(&parent);
//! assert_eq!(parent.snapshot().counters["points"], 4);
//! ```

use crate::registry::Registry;

/// A set of per-index private registries for one fan-out (see the
/// module docs for the merge discipline).
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Registry>,
}

impl ShardedRegistry {
    /// Creates `n` shards. Shards are active iff `parent` is, so a
    /// disabled parent keeps the whole fan-out allocation-free.
    pub fn new(parent: &Registry, n: usize) -> ShardedRegistry {
        let shards = (0..n)
            .map(|_| {
                if parent.is_enabled() {
                    Registry::new()
                } else {
                    Registry::noop()
                }
            })
            .collect();
        ShardedRegistry { shards }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the set holds no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The private registry for work index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn shard(&self, i: usize) -> &Registry {
        &self.shards[i]
    }

    /// Folds every shard into `parent`, in shard-index order, each
    /// exactly once. Consumes the set: the shards' recordings cannot be
    /// merged twice.
    pub fn merge(self, parent: &Registry) {
        for shard in &self.shards {
            parent.merge_from(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_parent_yields_inert_shards() {
        let parent = Registry::noop();
        let shards = ShardedRegistry::new(&parent, 3);
        assert_eq!(shards.len(), 3);
        assert!(!shards.is_empty());
        shards.shard(1).counter("c").inc();
        shards.merge(&parent);
        assert!(parent.snapshot().counters.is_empty());
    }

    #[test]
    fn index_order_merge_matches_serial_recording() {
        // Serial oracle: indices recorded 0, 1, 2 in order.
        let serial = Registry::new();
        for i in 0..3u64 {
            serial.counter("points").inc();
            serial.gauge("last_index").set(i as f64);
            serial.histogram("value").record(i as f64 + 0.5);
        }

        // Sharded: each index records privately (out of order, as a
        // real fan-out would complete), then merges in index order.
        let parent = Registry::new();
        let shards = ShardedRegistry::new(&parent, 3);
        for i in [2usize, 0, 1] {
            shards.shard(i).counter("points").inc();
            shards.shard(i).gauge("last_index").set(i as f64);
            shards.shard(i).histogram("value").record(i as f64 + 0.5);
        }
        shards.merge(&parent);

        let a = serial.snapshot();
        let b = parent.snapshot();
        use serde::Serialize;
        assert_eq!(a.counters, b.counters);
        assert_eq!(
            a.to_json_value()["gauges"].to_string(),
            b.to_json_value()["gauges"].to_string()
        );
        assert_eq!(
            a.to_json_value()["histograms"].to_string(),
            b.to_json_value()["histograms"].to_string()
        );
    }

    #[test]
    fn shards_never_share_cells_with_the_parent_during_the_run() {
        let parent = Registry::new();
        parent.counter("c").add(10);
        let shards = ShardedRegistry::new(&parent, 2);
        shards.shard(0).counter("c").add(1);
        shards.shard(1).counter("c").add(2);
        // Nothing lands in the parent until the merge barrier.
        assert_eq!(parent.snapshot().counters["c"], 10);
        shards.merge(&parent);
        assert_eq!(parent.snapshot().counters["c"], 13);
    }
}
