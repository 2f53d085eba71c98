//! # hprc-perfbench
//!
//! The repository benchmark. One process runs one workload, generated
//! from a seed, through the public APIs of the layer crates (`hprc-exp`,
//! `hprc-sched`, `hprc-sim`, `hprc-model`, `hprc-attr`, `hprc-fault`,
//! `hprc-obs`), checks every operation's output, and reports:
//!
//! * untraced (`trace == false`): the end-to-end metrics of
//!   [`END_TO_END`] — throughput, latency, set-up time and memory;
//! * traced (`trace == true`): the per-layer metrics of [`PER_LAYER`],
//!   measured by composing each operation from the same public calls
//!   the untraced operation makes, with a timer around each call.
//!
//! Every operation is closed-loop: the next starts when the previous
//! returns. Ops come in passes — a fixed mix of ops with fresh caches —
//! and every end-to-end number is a median over the timed phase's
//! passes: each pass's throughput, latency percentiles and peak memory
//! are measured on their own, so a slow stretch of a shared host moves a
//! few passes rather than the result, and a percentile never straddles
//! the boundary between two kinds of op in a pass's mix.

pub mod compare;
pub mod layers;
pub mod oracle;
pub mod stats;

mod fleet;
mod point;
mod regen;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::{Number, Value};

use layers::Layers;
use oracle::Tally;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One op in this many (a fixed, seed-determined choice) is re-run
/// against the reference executors and with the delta cache disabled.
pub const SAMPLE_EVERY: u64 = 16;

/// End-to-end metrics: `(name, unit)`, all reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "op/s"),
    ("sim_calls_per_s", "call/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. Every workload
/// reports every name; a layer a workload never enters reads 0. The
/// `exp.regen.<id>_ms` rows are `regen-traced`'s op time per experiment.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("sched.generate_ms", "ms"),
    ("sched.simulate_ms", "ms"),
    ("sched.calls", "count"),
    ("sched.hit_ratio", "ratio"),
    ("sched.delta.replay_share", "ratio"),
    ("sched.delta.saved_ms", "ms"),
    ("exp.glue_ms", "ms"),
    ("sim.frtr_ms", "ms"),
    ("sim.prtr_ms", "ms"),
    ("sim.calls", "count"),
    ("sim.fast.compression", "ratio"),
    ("sim.fast.saved_ms", "ms"),
    ("sim.delta.full_hits", "count"),
    ("sim.delta.saved_ms", "ms"),
    ("obs.delta.lookups", "count"),
    ("obs.delta.stored", "count"),
    ("obs.delta.evictions", "count"),
    ("obs.delta.bytes_held_mb", "MB"),
    ("model.eval_ms", "ms"),
    ("attr.buckets_ms", "ms"),
    ("fault.dropped", "count"),
    ("fault.availability", "ratio"),
    ("exp.fleet.run_ms", "ms"),
    ("exp.fleet.serial_ms", "ms"),
    ("exp.fleet.parallel_eff", "ratio"),
    ("exp.fleet.node_work_ms", "ms"),
    ("exp.fleet.overhead_ms", "ms"),
    ("exp.compute_ms", "ms"),
    ("exp.side_ms", "ms"),
    ("exp.render_ms", "ms"),
    ("obs.registry.snapshot_ms", "ms"),
    ("obs.journal.export_ms", "ms"),
    ("obs.journal.mb", "MB"),
    ("obs.artifact.seal_ms", "ms"),
    ("obs.artifact.mb", "MB"),
    ("obs.manifest.append_ms", "ms"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.sampled_ops", "count"),
    ("exp.regen.summary_ms", "ms"),
    ("exp.regen.table1_ms", "ms"),
    ("exp.regen.table2_ms", "ms"),
    ("exp.regen.fig5_ms", "ms"),
    ("exp.regen.fig9a_ms", "ms"),
    ("exp.regen.fig9b_ms", "ms"),
    ("exp.regen.profiles_ms", "ms"),
    ("exp.regen.validate_ms", "ms"),
    ("exp.regen.ext-prefetch_ms", "ms"),
    ("exp.regen.ext-decision_ms", "ms"),
    ("exp.regen.ext-flows_ms", "ms"),
    ("exp.regen.ext-granularity_ms", "ms"),
    ("exp.regen.ext-icap_ms", "ms"),
    ("exp.regen.ext-compress_ms", "ms"),
    ("exp.regen.ext-multitask_ms", "ms"),
    ("exp.regen.ext-hybrid_ms", "ms"),
    ("exp.regen.ext-landscape_ms", "ms"),
    ("exp.regen.ext-defrag_ms", "ms"),
    ("exp.regen.ext-fit_ms", "ms"),
    ("exp.regen.ext-platforms_ms", "ms"),
    ("exp.regen.ext-flexible_ms", "ms"),
    ("exp.regen.ext-faults_ms", "ms"),
    ("exp.regen.ext-preempt_ms", "ms"),
    ("exp.regen.ext-fleet_ms", "ms"),
];

/// The per-layer row holding experiment `id`'s op time, if listed.
pub(crate) fn regen_row(id: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|&(name, _)| name).find(|name| {
        name.strip_prefix("exp.regen.")
            .and_then(|rest| rest.strip_suffix("_ms"))
            == Some(id)
    })
}

/// The workloads. Each stresses a different set of layers; see the
/// package README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Both Figure 9 panels swept under always-miss and Markov prefetch.
    Fig9Sweep,
    /// Aperiodic traces, four policies, half the points fault-injected.
    PolicyMix,
    /// 256-node fleets on two workers, one shared cache per seed.
    Fleet,
    /// Every experiment regenerated with trace, journal and sealed
    /// artifacts, the way `hprc-exp --trace` does it.
    RegenTraced,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Sweep,
        Workload::PolicyMix,
        Workload::Fleet,
        Workload::RegenTraced,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Sweep => "fig9-sweep",
            Workload::PolicyMix => "policy-mix",
            Workload::Fleet => "fleet",
            Workload::RegenTraced => "regen-traced",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile of one pass's op latencies that `op_tail_ms`
    /// reports: p99 where a pass holds 160 ops or more, p90 where it
    /// holds 4 (`fleet`) or 24 (`regen-traced`).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Fig9Sweep | Workload::PolicyMix => 99.0,
            Workload::Fleet | Workload::RegenTraced => 90.0,
        }
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Full-size inputs; the timed phase lasts this many seconds.
    Seconds(f64),
    /// Tiny inputs, one set-up, one timed pass and every op sampled —
    /// for the self-test, not for measurement.
    Smoke,
}

impl Length {
    fn smoke(self) -> bool {
        self == Length::Smoke
    }

    fn setups(self) -> usize {
        if self.smoke() {
            1
        } else {
            SETUPS
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Run length.
    pub length: Length,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Scratch directory for artifacts the workload writes; removed when
    /// the run ends.
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`END_TO_END`] / [`PER_LAYER`]).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Ops run and checked (warm-up passes included).
    pub attempted: u64,
    /// Ops whose output failed a check, returned an error or panicked.
    pub failed: u64,
    /// The metrics the result line carries ([`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced), in table order.
    pub metrics: Vec<Metric>,
    /// Context printed with the metrics but kept off the result line:
    /// `error_rate`, tail percentile and sample count, accuracy.
    pub notes: Vec<Metric>,
}

impl RunReport {
    /// True when no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, from the metrics or the notes.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.notes)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn result_line(&self) -> String {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Number(Number::U64(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::U64(self.failed))),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .to_string()
    }

    /// The full record `--out` writes and `compare` reads.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("workload".into(), Value::String(self.workload.clone())),
            ("seed".into(), Value::Number(Number::U64(self.seed))),
            ("trace".into(), Value::Bool(self.trace)),
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Number(Number::U64(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::U64(self.failed))),
            ("metrics".into(), metrics_json(&self.metrics)),
            ("notes".into(), metrics_json(&self.notes)),
        ])
    }

    /// Parses a record written by [`RunReport::to_json`].
    pub fn from_json(v: &Value) -> Result<RunReport, String> {
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            v[key]
                .as_object()
                .ok_or(format!("missing `{key}` object"))?
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: m["value"]
                            .as_f64()
                            .ok_or(format!("{name}: value is not a number"))?,
                        unit: m["unit"]
                            .as_str()
                            .ok_or(format!("{name}: unit is not a string"))?
                            .to_string(),
                    })
                })
                .collect()
        };
        let count = |key: &str| v[key].as_u64().ok_or(format!("missing `{key}` count"));
        Ok(RunReport {
            workload: v["workload"]
                .as_str()
                .ok_or("missing `workload`")?
                .to_string(),
            seed: count("seed")?,
            trace: v["trace"].as_bool().ok_or("missing `trace`")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics("metrics")?,
            notes: metrics("notes")?,
        })
    }
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(Number::F64(m.value))),
                        ("unit".into(), Value::String(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

/// What one op returned to the harness.
pub(crate) struct Op {
    /// Host time of the timed span (checks excluded).
    pub busy: Duration,
    /// Simulated FRTR + PRTR task calls the op executed.
    pub sim_calls: u64,
    /// The op's checks: `Err` counts it as failed.
    pub check: Result<(), String>,
}

/// A workload instance: inputs generated, output prepared.
pub(crate) trait Bench {
    /// Ops per pass.
    fn pass_len(&self) -> usize;
    /// Starts pass `pass` (0 is the warm-up pass of a set-up): fresh
    /// caches and the pass's inputs.
    fn begin_pass(&mut self, pass: u64) -> Result<(), String>;
    /// Runs op `i` of the current pass. With a probe the op is composed
    /// from timed layer calls (the traced run); `sampled` ops also
    /// re-run against the reference paths.
    fn op(&mut self, i: usize, sampled: bool, probe: Option<&mut Layers>) -> Op;
    /// Ends the pass: pass-level checks, and pass-level sampled re-runs.
    fn end_pass(&mut self, sampled: bool, probe: Option<&mut Layers>) -> Result<(), String>;
    /// Workload-specific context for the report's notes.
    fn notes(&self) -> Vec<Metric> {
        Vec::new()
    }
}

fn make_bench(cfg: &RunConfig) -> Result<Box<dyn Bench>, String> {
    let smoke = cfg.length.smoke();
    Ok(match cfg.workload {
        Workload::Fig9Sweep => Box::new(point::PointBench::fig9_sweep(cfg.seed, smoke)),
        Workload::PolicyMix => Box::new(point::PointBench::policy_mix(cfg.seed, smoke)),
        Workload::Fleet => Box::new(fleet::FleetBench::new(cfg.seed, smoke)),
        Workload::RegenTraced => Box::new(regen::RegenBench::new(cfg.seed, smoke, &cfg.scratch)?),
    })
}

/// The fixed sample: op `i` of pass `pass` is sampled when its
/// seed-mixed hash falls in one bucket of [`SAMPLE_EVERY`].
fn sampled(seed: u64, pass: u64, i: usize, smoke: bool) -> bool {
    smoke || hprc_fault::splitmix64(seed ^ (pass << 32) ^ i as u64).is_multiple_of(SAMPLE_EVERY)
}

/// What one pass measured.
struct PassStats {
    ops: u64,
    sim_calls: u64,
    busy: Duration,
    latencies_ms: Vec<f64>,
    /// Peak resident memory while the pass ran, MB.
    peak_rss_mb: f64,
}

impl PassStats {
    fn per_s(&self, count: u64) -> f64 {
        count as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

struct Harness<'a> {
    cfg: &'a RunConfig,
    bench: Box<dyn Bench>,
    tally: Tally,
    pass: u64,
}

impl Harness<'_> {
    /// Runs one whole pass.
    fn pass(&mut self, mut probe: Option<&mut Layers>) -> PassStats {
        let pass = self.pass;
        self.pass += 1;
        let smoke = self.cfg.length.smoke();
        reset_peak_rss();
        let mut stats = PassStats {
            ops: 0,
            sim_calls: 0,
            busy: Duration::ZERO,
            latencies_ms: Vec::with_capacity(self.bench.pass_len()),
            peak_rss_mb: 0.0,
        };
        if let Err(e) = self.bench.begin_pass(pass) {
            self.tally.record(Err(format!("pass {pass}: {e}")));
            return stats;
        }
        for i in 0..self.bench.pass_len() {
            let s = sampled(self.cfg.seed, pass, i, smoke);
            let op = self.bench.op(i, s, probe.as_deref_mut());
            stats.ops += 1;
            stats.busy += op.busy;
            stats.sim_calls += op.sim_calls;
            stats.latencies_ms.push(op.busy.as_secs_f64() * 1e3);
            self.tally.record(op.check);
        }
        let s = sampled(self.cfg.seed, pass, usize::MAX, smoke);
        if let Err(e) = self.bench.end_pass(s, probe) {
            self.tally.record(Err(format!("pass {pass}: {e}")));
        }
        stats.peak_rss_mb = peak_rss_mb();
        stats
    }

    /// Runs whole passes until `window` has elapsed: at least one, and
    /// exactly one at smoke size.
    fn passes(&mut self, window: Duration, mut probe: Option<&mut Layers>) -> Vec<PassStats> {
        let start = Instant::now();
        let mut out = Vec::new();
        loop {
            out.push(self.pass(probe.as_deref_mut()));
            if self.cfg.length.smoke() || start.elapsed() >= window {
                return out;
            }
        }
    }
}

/// Runs one workload end to end. `started` is when the process started
/// (the first set-up is timed from it).
pub fn run(cfg: &RunConfig, started: Instant) -> Result<RunReport, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut harness: Option<Harness> = None;
    for k in 0..cfg.length.setups() {
        let t0 = if k == 0 { started } else { Instant::now() };
        // Drop the previous instance first, so set-ups don't overlap in
        // memory or on disk.
        if let Some(h) = harness.take() {
            tally.absorb(h.tally);
        }
        let mut h = Harness {
            cfg,
            bench: make_bench(cfg)?,
            tally: Tally::default(),
            pass: 0,
        };
        h.pass(None);
        setup_s.push(t0.elapsed().as_secs_f64());
        harness = Some(h);
    }
    let mut h = harness.expect("at least one set-up");
    let window = match cfg.length {
        Length::Seconds(s) => Duration::from_secs_f64(s),
        Length::Smoke => Duration::ZERO,
    };

    let (metrics, mut notes) = if cfg.trace {
        traced(&mut h, window)
    } else {
        untraced(&mut h, window, &setup_s)
    };
    notes.extend(h.bench.notes());
    tally.absorb(h.tally);
    notes.push(metric(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
    ));
    tally.report_errors();
    Ok(RunReport {
        workload: cfg.workload.name().to_string(),
        seed: cfg.seed,
        trace: cfg.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn untraced(h: &mut Harness, window: Duration, setup_s: &[f64]) -> (Vec<Metric>, Vec<Metric>) {
    let passes = h.passes(window, None);
    let tail = h.cfg.workload.tail_percentile();
    let median_of = |f: &dyn Fn(&PassStats) -> f64| {
        stats::median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let pct = |p: &PassStats, q: f64| stats::quantile(&p.latencies_ms, q).unwrap_or(0.0);
    let metrics = vec![
        metric("ops_per_s", median_of(&|p| p.per_s(p.ops)), "op/s"),
        metric(
            "sim_calls_per_s",
            median_of(&|p| p.per_s(p.sim_calls)),
            "call/s",
        ),
        metric("op_p50_ms", median_of(&|p| pct(p, 0.5)), "ms"),
        metric("op_tail_ms", median_of(&|p| pct(p, tail / 100.0)), "ms"),
        metric("setup_s", stats::median(setup_s).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", median_of(&|p| p.peak_rss_mb), "MB"),
    ];
    let notes = vec![
        metric("op_tail_percentile", tail, "pct"),
        metric("passes", passes.len() as f64, "count"),
        metric(
            "ops",
            passes.iter().map(|p| p.ops).sum::<u64>() as f64,
            "count",
        ),
    ];
    (metrics, notes)
}

fn traced(h: &mut Harness, window: Duration) -> (Vec<Metric>, Vec<Metric>) {
    // A quarter of the window untraced, on the same passes, is the base
    // the trace overhead is measured against.
    let base = h.passes(window.mul_f64(0.25), None);
    let ops: u64 = base.iter().map(|p| p.ops).sum();
    let busy: Duration = base.iter().map(|p| p.busy).sum();
    let untraced_ms_per_op = busy.as_secs_f64() * 1e3 / ops.max(1) as f64;
    let mut layers = Layers::default();
    let traced = h.passes(window.mul_f64(0.75), Some(&mut layers));
    let notes = vec![metric("passes", traced.len() as f64, "count")];
    (layers.finish(untraced_ms_per_op), notes)
}

/// Resets this process's peak resident set size (`VmHWM`), so the next
/// reading covers one pass. Where the kernel refuses, readings fall back
/// to the process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
