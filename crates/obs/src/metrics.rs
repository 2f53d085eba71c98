//! Instrument handles: [`Counter`], [`Gauge`], [`Histogram`], and the
//! [`HistogramSummary`] quantile digest reported in snapshots.
//!
//! Handles are cheap clones of `Arc`-backed cells. A handle obtained
//! from [`Registry::noop`](crate::Registry::noop) carries `None` and
//! every recording call is a single branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::Serialize;

/// Monotonically increasing event count.
///
/// Recording is a relaxed atomic add; the counter is safe to share
/// across threads.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-write-wins floating-point value (utilizations, ratios, sizes).
///
/// Stored as the `f64` bit pattern in an atomic so recording stays
/// lock-free.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

/// Distribution of observed values; quantiles are computed at snapshot
/// time from the raw samples (exact, nearest-rank).
///
/// Samples are kept unaggregated because experiment runs record at
/// most a few hundred thousand values; exactness matters more here
/// than bounded memory.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<Mutex<Vec<f64>>>>);

impl Histogram {
    /// Records one sample. Non-finite samples are dropped.
    #[inline]
    pub fn record(&self, value: f64) {
        if let Some(cell) = &self.0 {
            if value.is_finite() {
                cell.lock().push(value);
            }
        }
    }

    /// Records `samples` repeated `times` times, in order (the full
    /// sample slice, then the slice again, ...), under one lock
    /// acquisition. Non-finite samples are dropped, exactly as
    /// [`Histogram::record`] would drop them.
    ///
    /// Its callers: the `sim` executors record each run's per-call
    /// latencies (and an armed run's recovery samples) once after the
    /// loop with `times = 1`, one lock per run instead of per sample;
    /// `CrayConfigApi::record_repeated` replays the vendor API's
    /// `busy_s` sample for the calls a steady-state jump elided.
    pub fn record_cycle(&self, samples: &[f64], times: u64) {
        let Some(cell) = &self.0 else {
            return;
        };
        let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() || times == 0 {
            return;
        }
        let mut guard = cell.lock();
        guard.reserve(finite.len() * times as usize);
        for _ in 0..times {
            guard.extend_from_slice(&finite);
        }
    }

    /// Number of recorded samples (0 for a no-op handle).
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |c| c.lock().len())
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summarizes the samples recorded so far.
    pub fn summary(&self) -> HistogramSummary {
        match &self.0 {
            None => HistogramSummary::default(),
            Some(cell) => HistogramSummary::from_samples(&cell.lock()),
        }
    }
}

/// Quantile digest of a [`Histogram`], serialized into the metrics
/// summary JSON.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median, nearest-rank.
    pub p50: f64,
    /// 90th percentile, nearest-rank.
    pub p90: f64,
    /// 95th percentile, nearest-rank.
    pub p95: f64,
    /// 99th percentile, nearest-rank.
    pub p99: f64,
    /// 99.9th percentile, nearest-rank.
    pub p999: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Sum of all samples.
    pub sum: f64,
}

impl HistogramSummary {
    /// Computes the digest from raw samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        let sum: f64 = sorted.iter().sum();
        let rank = |q: f64| -> f64 {
            // Nearest-rank: ceil(q * n) clamped to [1, n], 1-indexed.
            let n = sorted.len();
            let r = ((q * n as f64).ceil() as usize).clamp(1, n);
            sorted[r - 1]
        };
        HistogramSummary {
            count: sorted.len() as u64,
            min: sorted[0],
            mean: sum / sorted.len() as f64,
            p50: rank(0.50),
            p90: rank(0.90),
            p95: rank(0.95),
            p99: rank(0.99),
            p999: rank(0.999),
            max: *sorted.last().expect("non-empty"),
            sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handles_record_nothing() {
        let c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);

        let g = Gauge::default();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);

        let h = Histogram::default();
        h.record(1.0);
        assert!(h.is_empty());
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn summary_quantiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = HistogramSummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        // On 100 samples p99.9 is the max: ceil(0.999 * 100) = 100.
        assert_eq!(s.p999, 100.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(HistogramSummary::from_samples(&thousand).p999, 999.0);
        // Nearest-rank on a non-divisible count: ceil(0.9 * 7) = 7.
        let odd: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(HistogramSummary::from_samples(&odd).p90, 7.0);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.sum, 5050.0);
    }

    #[test]
    fn single_sample_summary() {
        let s = HistogramSummary::from_samples(&[2.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 2.5);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.p90, 2.5);
        assert_eq!(s.p99, 2.5);
        assert_eq!(s.p999, 2.5);
        assert_eq!(s.max, 2.5);
        assert_eq!(s.sum, 2.5);
    }

    #[test]
    fn summary_serializes_all_fields() {
        // The metrics-JSON writers serialize the summary verbatim, so
        // the key set is the artifact schema — pin it.
        use serde::Serialize;
        let s = HistogramSummary::from_samples(&[1.0, 2.0, 3.0]);
        let json = s.to_json_value();
        for key in [
            "count", "min", "mean", "p50", "p90", "p95", "p99", "p999", "max", "sum",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json["sum"].as_f64().unwrap(), 6.0);
        assert_eq!(json["min"].as_f64().unwrap(), 1.0);
        assert_eq!(json["max"].as_f64().unwrap(), 3.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let h = Histogram(Some(Default::default()));
        h.record(1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.len(), 1);
    }
}
