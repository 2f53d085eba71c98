//! Per-layer accounting for the traced run.
//!
//! The traced run composes each op from the public calls the untraced
//! op makes and times each call. Four kinds of numbers accumulate here:
//!
//! * **busy** — host time inside one layer call, within the op's traced
//!   wall time; the busy layers plus `bench.unattributed_ms` sum exactly
//!   to `bench.traced_wall_ms`;
//! * **apart** — host time of re-runs outside the traced wall (reference
//!   executors, a disabled cache, a serial fleet), averaged over the
//!   sampled ops only;
//! * **per-op** — work done (counts), and host time of the checks that
//!   run on every op outside the traced wall, averaged per op;
//! * **ratios** and **maxima** — accumulated numerator/denominator pairs
//!   (a mean, when every denominator is 1) and high-water marks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hprc_obs::{DeltaAccount, DeltaCache};

use crate::{Metric, PER_LAYER};

/// The busy layers: calls inside the traced wall, one per timer. With
/// `bench.unattributed_ms` they sum to `bench.traced_wall_ms`.
pub const BUSY: [&str; 14] = [
    "sched.generate_ms",
    "sched.simulate_ms",
    "exp.glue_ms",
    "sim.frtr_ms",
    "sim.prtr_ms",
    "model.eval_ms",
    "exp.fleet.run_ms",
    "exp.compute_ms",
    "exp.side_ms",
    "exp.render_ms",
    "obs.registry.snapshot_ms",
    "obs.journal.export_ms",
    "obs.artifact.seal_ms",
    "obs.manifest.append_ms",
];

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    ops: u64,
    sampled: u64,
    wall_ms: f64,
    busy_ms: BTreeMap<&'static str, f64>,
    apart_ms: BTreeMap<&'static str, f64>,
    per_op: BTreeMap<&'static str, f64>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    maxima: BTreeMap<&'static str, f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    /// Runs `f` as one call into `layer`, adding its host time to the
    /// layer's busy total. Returns the result and that time in ms.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        debug_assert!(BUSY.contains(&layer), "{layer} is not a busy layer");
        let t0 = Instant::now();
        let out = f();
        let took = ms(t0.elapsed());
        *self.busy_ms.entry(layer).or_default() += took;
        (out, took)
    }

    /// Adds host time measured outside the traced wall on a sampled op
    /// (a re-run) to `name`.
    pub fn apart(&mut self, name: &'static str, ms: f64) {
        *self.apart_ms.entry(name).or_default() += ms;
    }

    /// Adds `v` to `name`, a quantity averaged over every traced op: a
    /// count of work, or host time spent outside the traced wall on
    /// every op (the checks).
    pub fn per_op(&mut self, name: &'static str, v: f64) {
        *self.per_op.entry(name).or_default() += v;
    }

    /// Adds `num / den` to the ratio `name`.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let r = self.ratios.entry(name).or_default();
        r.0 += num;
        r.1 += den;
    }

    /// Raises the high-water mark `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let m = self.maxima.entry(name).or_default();
        *m = m.max(v);
    }

    /// Closes one traced op that took `wall` in total.
    pub fn op_done(&mut self, wall: Duration) {
        self.ops += 1;
        self.wall_ms += ms(wall);
    }

    /// Counts `n` ops as sampled (the base of every `apart` average).
    pub fn sampled(&mut self, n: u64) {
        self.sampled += n;
    }

    /// Records the whole-cache activity between two account snapshots:
    /// lookups, stores and evictions per op, and the bytes held.
    pub fn cache_activity(&mut self, before: &DeltaAccount, after: &DeltaAccount) {
        self.per_op("obs.delta.lookups", (after.lookups - before.lookups) as f64);
        self.per_op("obs.delta.stored", (after.stored - before.stored) as f64);
        self.per_op(
            "obs.delta.evictions",
            (after.evictions - before.evictions) as f64,
        );
        self.max(
            "obs.delta.bytes_held_mb",
            after.bytes_held as f64 / (1024.0 * 1024.0),
        );
    }

    /// Records the replayed and re-simulated calls between two account
    /// snapshots into `sched.delta.replay_share`.
    pub fn replay_share(&mut self, before: &DeltaAccount, after: &DeltaAccount) {
        let replayed = after.calls_replayed - before.calls_replayed;
        let resimulated = after.calls_resimulated - before.calls_resimulated;
        self.ratio(
            "sched.delta.replay_share",
            replayed as f64,
            (replayed + resimulated) as f64,
        );
    }

    /// Total busy time per op of every layer that ran inside the traced
    /// wall.
    fn busy_ms_per_op(&self) -> f64 {
        self.busy_ms.values().sum::<f64>() / self.ops.max(1) as f64
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. Names a workload
    /// never recorded read 0. `untraced_ms_per_op` is the untraced op
    /// time on the same passes, the base of the trace overhead.
    pub fn finish(&self, untraced_ms_per_op: f64) -> Vec<Metric> {
        let ops = self.ops.max(1) as f64;
        let wall = self.wall_ms / ops;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "bench.traced_wall_ms" => wall,
                    "bench.unattributed_ms" => wall - self.busy_ms_per_op(),
                    "bench.trace_overhead_pct" => {
                        (wall / untraced_ms_per_op.max(1e-12) - 1.0) * 100.0
                    }
                    "bench.sampled_ops" => self.sampled as f64,
                    _ => self.value(name, ops),
                };
                Metric {
                    name: name.to_string(),
                    value,
                    unit: unit.to_string(),
                }
            })
            .collect()
    }

    fn value(&self, name: &str, ops: f64) -> f64 {
        if let Some(v) = self.busy_ms.get(name) {
            v / ops
        } else if let Some(v) = self.apart_ms.get(name) {
            v / self.sampled.max(1) as f64
        } else if let Some(v) = self.per_op.get(name) {
            v / ops
        } else if let Some(&(num, den)) = self.ratios.get(name) {
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        } else {
            self.maxima.get(name).copied().unwrap_or(0.0)
        }
    }
}

/// Runs `f`, timed into `layer` when a probe is attached.
pub fn timed<T>(probe: &mut Option<&mut Layers>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(l) => l.time(layer, f).0,
        None => f(),
    }
}

/// The cache's account, or all zeros for a disabled cache.
pub fn account(cache: &DeltaCache) -> DeltaAccount {
    cache.account().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_layers_and_unattributed_sum_to_wall() {
        let mut l = Layers::default();
        let t0 = Instant::now();
        l.time("sim.frtr_ms", || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        l.time("sim.prtr_ms", || {
            std::hint::black_box((0..1000).sum::<u64>())
        });
        l.op_done(t0.elapsed());
        let m = l.finish(1.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        let sum = get("sim.frtr_ms") + get("sim.prtr_ms") + get("bench.unattributed_ms");
        assert!((sum - get("bench.traced_wall_ms")).abs() < 1e-9);
        assert_eq!(get("exp.compute_ms"), 0.0, "unrecorded layers read 0");
    }

    #[test]
    fn apart_times_average_over_sampled_ops_only() {
        let mut l = Layers::default();
        for _ in 0..4 {
            l.op_done(Duration::from_millis(1));
        }
        l.apart("sim.fast.saved_ms", 6.0);
        l.sampled(2);
        l.ratio("sched.hit_ratio", 1.0, 4.0);
        let m = l.finish(1.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("sim.fast.saved_ms"), 3.0);
        assert_eq!(get("sched.hit_ratio"), 0.25);
        assert_eq!(get("bench.sampled_ops"), 2.0);
    }
}
