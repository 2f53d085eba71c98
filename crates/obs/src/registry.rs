//! The [`Registry`] handle and [`Snapshot`] export.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use serde::Serialize;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};

/// Shared state behind an active registry.
#[derive(Debug)]
struct Inner {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Mutex<Vec<f64>>>>>,
}

/// Handle to a metrics registry, threaded through the simulator,
/// scheduler, and experiment runner.
///
/// Cloning is cheap (an `Arc` clone, or nothing for a no-op handle).
/// The [`Default`] handle is [`Registry::noop`], so instrumented code
/// paths cost a branch when observability is off.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl Registry {
    /// Creates an active registry that records everything.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner {
                counters: RwLock::new(BTreeMap::new()),
                gauges: RwLock::new(BTreeMap::new()),
                histograms: RwLock::new(BTreeMap::new()),
            })),
        }
    }

    /// Creates a disabled registry; every instrument it hands out is
    /// inert.
    pub fn noop() -> Self {
        Registry { inner: None }
    }

    /// True when this handle records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. Hoist the returned handle out of hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|inner| {
            if let Some(cell) = inner.counters.read().get(name) {
                return Arc::clone(cell);
            }
            Arc::clone(inner.counters.write().entry(name.to_string()).or_default())
        }))
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            if let Some(cell) = inner.gauges.read().get(name) {
                return Arc::clone(cell);
            }
            Arc::clone(inner.gauges.write().entry(name.to_string()).or_default())
        }))
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|inner| {
            if let Some(cell) = inner.histograms.read().get(name) {
                return Arc::clone(cell);
            }
            Arc::clone(
                inner
                    .histograms
                    .write()
                    .entry(name.to_string())
                    .or_default(),
            )
        }))
    }

    /// Folds another registry's recordings into this one, in a single
    /// deterministic pass: counters add, gauges overwrite (last merge
    /// wins), and histograms append their raw samples in recording
    /// order. Merging a fan-out's per-index registries back in index
    /// order therefore reproduces the exact instrument state of an
    /// equivalent serial run.
    ///
    /// No-op if either handle is disabled or both are the same
    /// registry.
    pub fn merge_from(&self, other: &Registry) {
        let (Some(dst), Some(src)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(dst, src) {
            return;
        }
        for (name, cell) in src.counters.read().iter() {
            self.counter(name)
                .add(cell.load(std::sync::atomic::Ordering::Relaxed));
        }
        for (name, cell) in src.gauges.read().iter() {
            self.gauge(name).set(f64::from_bits(
                cell.load(std::sync::atomic::Ordering::Relaxed),
            ));
        }
        for (name, cell) in src.histograms.read().iter() {
            let samples = cell.lock();
            let handle = self.histogram(name);
            for &sample in samples.iter() {
                handle.record(sample);
            }
        }
    }

    /// Captures the current state of every instrument.
    ///
    /// A no-op registry snapshots to empty maps, which serialize to
    /// the same JSON schema as an active one.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = inner
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(std::sync::atomic::Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .read()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    f64::from_bits(v.load(std::sync::atomic::Ordering::Relaxed)),
                )
            })
            .collect();
        let histograms = inner
            .histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::from_samples(&v.lock())))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: Vec::new(),
        }
    }
}

/// Point-in-time export of a registry, serialized as the
/// `<id>.metrics.json` artifact.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Always empty: a registry records no wall-clock time. The field
    /// keeps the `spans` key that every `metrics.json` has carried.
    pub spans: Vec<SpanRecord>,
}

/// The element type of [`Snapshot::spans`], which is always empty.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Nesting depth at entry (0 = top level on its thread).
    pub depth: u32,
    /// Start offset, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("calls");
        let b = reg.counter("calls");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counters["calls"], 3);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = Registry::new();
        reg.gauge("util").set(0.25);
        reg.gauge("util").set(0.75);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["util"], 0.75);
    }

    #[test]
    fn histogram_digest_in_snapshot() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for i in 1..=10 {
            h.record(i as f64);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["lat"].count, 10);
        assert_eq!(snap.histograms["lat"].p50, 5.0);
    }

    #[test]
    fn noop_registry_is_empty_and_disabled() {
        let reg = Registry::noop();
        assert!(!reg.is_enabled());
        reg.counter("x").inc();
        reg.gauge("y").set(1.0);
        reg.histogram("z").record(1.0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn default_is_noop() {
        assert!(!Registry::default().is_enabled());
    }

    #[test]
    fn snapshot_serializes_stable_schema() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.gauge("g").set(2.0);
        reg.histogram("h").record(1.0);
        let json = reg.snapshot().to_json_value().to_string();
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"spans\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn merge_combines_instruments_deterministically() {
        let parent = Registry::new();
        parent.counter("calls").add(5);
        parent.gauge("level").set(1.0);
        parent.histogram("lat").record(1.0);

        let shard = Registry::new();
        shard.counter("calls").add(3);
        shard.counter("only_shard").inc();
        shard.gauge("level").set(2.0);
        shard.histogram("lat").record(2.0);
        shard.histogram("lat").record(3.0);

        parent.merge_from(&shard);
        let snap = parent.snapshot();
        assert_eq!(snap.counters["calls"], 8);
        assert_eq!(snap.counters["only_shard"], 1);
        assert_eq!(snap.gauges["level"], 2.0);
        assert_eq!(snap.histograms["lat"].count, 3);
        assert_eq!(snap.histograms["lat"].max, 3.0);
    }

    #[test]
    fn merge_order_reproduces_serial_sample_order() {
        let serial = Registry::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            serial.histogram("h").record(x);
        }

        let merged = Registry::new();
        let shards: Vec<Registry> = (0..2).map(|_| Registry::new()).collect();
        shards[0].histogram("h").record(1.0);
        shards[0].histogram("h").record(2.0);
        shards[1].histogram("h").record(3.0);
        shards[1].histogram("h").record(4.0);
        for shard in &shards {
            merged.merge_from(shard);
        }
        assert_eq!(
            merged.snapshot().to_json_value()["histograms"],
            serial.snapshot().to_json_value()["histograms"]
        );
    }

    #[test]
    fn merge_empty_histogram_into_nonempty_changes_nothing() {
        let dst = Registry::new();
        dst.histogram("lat").record(1.0);
        dst.histogram("lat").record(2.0);
        let empty_src = Registry::new();
        // Instrument exists in the source but holds no samples.
        let _ = empty_src.histogram("lat");
        dst.merge_from(&empty_src);
        let snap = dst.snapshot();
        let s = &snap.histograms["lat"];
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn merge_disjoint_histogram_keys_union() {
        let dst = Registry::new();
        dst.histogram("a").record(1.0);
        let src = Registry::new();
        src.histogram("b").record(5.0);
        src.histogram("b").record(7.0);
        dst.merge_from(&src);
        let snap = dst.snapshot();
        assert_eq!(snap.histograms.len(), 2);
        assert_eq!(snap.histograms["a"].count, 1);
        assert_eq!(snap.histograms["b"].count, 2);
        assert_eq!(snap.histograms["b"].sum, 12.0);
        // The source itself is untouched.
        assert_eq!(src.snapshot().histograms.len(), 1);
    }

    #[test]
    fn repeated_merge_adds_counters_and_appends_samples() {
        // merge_from is additive, NOT idempotent: merging the same
        // source twice doubles counters and duplicates histogram
        // samples — callers must merge each shard exactly once.
        let dst = Registry::new();
        let src = Registry::new();
        src.counter("c").add(3);
        src.gauge("g").set(4.0);
        src.histogram("h").record(2.0);
        dst.merge_from(&src);
        dst.merge_from(&src);
        let snap = dst.snapshot();
        assert_eq!(snap.counters["c"], 6);
        assert_eq!(snap.gauges["g"], 4.0); // gauges are last-wins
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].sum, 4.0);
    }

    #[test]
    fn merge_is_inert_for_noop_or_self() {
        let active = Registry::new();
        active.counter("c").inc();
        active.merge_from(&Registry::noop());
        active.merge_from(&active.clone()); // same Arc: must not deadlock
        assert_eq!(active.snapshot().counters["c"], 1);

        let noop = Registry::noop();
        noop.merge_from(&active);
        assert!(noop.snapshot().counters.is_empty());
    }

    #[test]
    fn cross_thread_recording() {
        let reg = Registry::new();
        let c = reg.counter("threaded");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counters["threaded"], 4000);
    }
}
