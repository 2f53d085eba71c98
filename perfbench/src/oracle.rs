//! Output checks. Every op's result passes through these outside its
//! timed span; a failed check, an `Err` or a caught panic counts the op
//! as failed.

use std::fmt::Debug;

use hprc_attr::Buckets;
use hprc_exp::scenario::SweepPoint;
use hprc_model::params::ModelParams;
use hprc_sim::executor::ExecutionReport;
use hprc_sim::trace::Timeline;

/// How far the simulated speedup may sit from Eq (6) on always-miss
/// points (verified worst case: 0.033%).
pub const EQ6_TOLERANCE: f64 = 0.01;

/// Failure messages kept per run (the count is always exact).
const KEPT_ERRORS: usize = 8;

/// Attempted and failed op counts, plus the first failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops checked.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one op with its check result.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.errors.len() < KEPT_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Prints the kept failure messages to stderr.
    pub fn report_errors(&self) {
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
    }
}

/// Runs `f`, turning a panic into an `Err` carrying its message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The six-bucket identity: the exclusive attribution buckets of a
/// timeline sum exactly to its span.
pub fn buckets_identity(label: &str, timeline: &Timeline) -> Result<(), String> {
    let b = Buckets::from_timeline(timeline);
    let span = timeline.span_end().0;
    if b.total_ns() == span {
        Ok(())
    } else {
        Err(format!(
            "{label}: buckets sum to {} ns, span is {span} ns",
            b.total_ns()
        ))
    }
}

/// Checks one executed sweep point against its own reports and, on an
/// always-miss point (`H = 0`) when `eq6` is set, against the model:
/// the simulated speedup never exceeds Eq (7) and stays within
/// [`EQ6_TOLERANCE`] of Eq (6).
pub fn check_point(
    point: &SweepPoint,
    frtr: &ExecutionReport,
    prtr: &ExecutionReport,
    params: &ModelParams,
    eq6: bool,
) -> Result<(), String> {
    let ratio = frtr.total_s() / prtr.total_s();
    if point.speedup_sim != ratio {
        return Err(format!(
            "speedup {} is not FRTR/PRTR total {ratio} at X_task {}",
            point.speedup_sim, point.x_task
        ));
    }
    if eq6 && point.hit_ratio == 0.0 {
        let bound = hprc_model::speedup::asymptotic_speedup(params);
        if point.speedup_sim > bound {
            return Err(format!(
                "speedup {} exceeds Eq (7) bound {bound} at X_task {}",
                point.speedup_sim, point.x_task
            ));
        }
        let rel = (point.speedup_sim - point.speedup_model).abs() / point.speedup_model;
        if rel > EQ6_TOLERANCE {
            return Err(format!(
                "speedup {} is {:.3}% from Eq (6) {} at X_task {}",
                point.speedup_sim,
                rel * 100.0,
                point.speedup_model,
                point.x_task
            ));
        }
    }
    Ok(())
}

/// `Ok` when a fast-path report is equivalent to its reference-path
/// report: same totals, call timings and configuration counts, and the
/// same events once the fast path's run-length-encoded timeline is
/// expanded.
pub fn equivalent(
    label: &str,
    fast: &ExecutionReport,
    reference: &ExecutionReport,
) -> Result<(), String> {
    let same_summary = fast.total == reference.total
        && fast.n_config == reference.n_config
        && fast.n_dropped == reference.n_dropped
        && fast.calls == reference.calls
        && fast.timeline.len() == reference.timeline.len();
    if same_summary && fast.timeline.iter().eq(reference.timeline.iter()) {
        Ok(())
    } else {
        Err(format!("{label}: fast path differs from the reference"))
    }
}

/// `Ok` when two results of the same computation by different paths
/// are identical.
pub fn same<T: PartialEq + Debug>(label: &str, a: &T, b: &T) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{label}: results differ"))
    }
}
