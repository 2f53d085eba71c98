//! Performance bounds of PRTR — the paper's headline analytical results
//! (section 3.1, Figure 5, and the discussion in section 5).
//!
//! For the idealized setting of Figure 5 (`X_decision = X_control = 0`) the
//! asymptotic speedup reduces to
//!
//! ```text
//! S∞(X_task) = (1 + X_task) / (M * max(X_task, X_PRTR) + H * X_task)
//! ```
//!
//! from which the paper's bounds follow:
//!
//! 1. **Long tasks**: for `X_task ≥ 1`, `S∞ = (1 + X_task)/X_task ≤ 2`, with
//!    equality exactly at `X_task = 1` — *"PRTR performance for tasks
//!    characterized by higher execution requirements than the full
//!    configuration time can not exceed twice that of FRTR no matter how
//!    efficient the pre-fetching algorithm used is."*
//! 2. **No prefetching** (`H = 0`): the peak sits at `X_task = X_PRTR` and
//!    equals `1 + 1/X_PRTR`.
//! 3. **Perfect prefetching** (`H = 1`): `S∞ = (1 + X_task)/X_task`,
//!    monotonically decreasing and independent of `X_PRTR`.

use crate::params::{ModelParams, NormalizedTimes};
use crate::speedup::asymptotic_speedup;

/// The paper's bound for data-intensive tasks: `S∞ ≤ 2` whenever
/// `X_task ≥ 1`, independent of `H` and `X_PRTR`.
pub const LONG_TASK_BOUND: f64 = 2.0;

/// Closed-form peak asymptotic speedup for the no-prefetch case (`H = 0`,
/// `X_decision = X_control = 0`): `1 + 1/X_PRTR`, attained at
/// `X_task = X_PRTR`.
pub fn peak_speedup_no_prefetch(x_prtr: f64) -> f64 {
    1.0 + 1.0 / x_prtr
}

/// Location/value of the supremum of `S∞` over `X_task > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Supremum {
    /// The supremum is attained at a finite `X_task`.
    AttainedAt {
        /// Maximizing normalized task time.
        x_task: f64,
        /// Speedup value at the maximizer.
        speedup: f64,
    },
    /// The supremum is only approached as `X_task → 0⁺` (not attained).
    LimitAtZero {
        /// The limiting speedup value.
        speedup: f64,
    },
    /// The speedup is unbounded as `X_task → 0⁺` (degenerate: `H = 1` and
    /// no fixed per-call overheads).
    Unbounded,
}

impl Supremum {
    /// The supremum value itself (`f64::INFINITY` for [`Supremum::Unbounded`]).
    pub fn value(&self) -> f64 {
        match *self {
            Supremum::AttainedAt { speedup, .. } => speedup,
            Supremum::LimitAtZero { speedup } => speedup,
            Supremum::Unbounded => f64::INFINITY,
        }
    }
}

/// Closed-form supremum of `S∞` over `X_task` in the idealized setting
/// (`X_decision = X_control = 0`) for given hit ratio `h` and `x_prtr`.
///
/// Derivation: on `(0, X_PRTR]` the denominator is `M·X_PRTR + H·X_task`, so
/// `dS∞/dX_task ∝ M·X_PRTR − H`; on `[X_PRTR, ∞)` the curve is
/// `(1 + X_task)/X_task`, strictly decreasing. Hence the peak is at
/// `X_task = X_PRTR` when `M·X_PRTR ≥ H`, else at `X_task → 0⁺` with limit
/// `1/(M·X_PRTR)` (unbounded when `M = 0`).
/// ```
/// use hprc_model::bounds::{ideal_supremum, Supremum};
///
/// // No prefetching, the paper's measured dual-PRR ratio:
/// match ideal_supremum(0.0, 19.77 / 1678.04) {
///     Supremum::AttainedAt { x_task, speedup } => {
///         assert!((x_task - 0.0118).abs() < 1e-4); // peak at X_task = X_PRTR
///         assert!(speedup > 84.0);                 // ~86x
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn ideal_supremum(h: f64, x_prtr: f64) -> Supremum {
    assert!((0.0..=1.0).contains(&h), "hit ratio must be in [0,1]");
    assert!(x_prtr > 0.0, "x_prtr must be positive");
    let m = 1.0 - h;
    if m == 0.0 {
        return Supremum::Unbounded;
    }
    if m * x_prtr >= h {
        Supremum::AttainedAt {
            x_task: x_prtr,
            speedup: (1.0 + x_prtr) / x_prtr,
        }
    } else {
        Supremum::LimitAtZero {
            speedup: 1.0 / (m * x_prtr),
        }
    }
}

/// Numeric supremum of `S∞` over `X_task ∈ [lo, hi]` for a *general*
/// parameter set (arbitrary `X_control`, `X_decision`, `H`).
///
/// `S∞(X_task)` is piecewise smooth with a single breakpoint at
/// `X_task = X_PRTR − X_decision`; a dense log grid followed by local
/// refinement is therefore robust. Returns `(x_task_at_max, s_max)`.
pub fn numeric_supremum(base: &ModelParams, lo: f64, hi: f64, grid: usize) -> (f64, f64) {
    assert!(lo > 0.0 && hi > lo && grid >= 3, "degenerate search range");
    let eval = |x: f64| {
        let mut p = *base;
        p.times.x_task = x;
        asymptotic_speedup(&p)
    };
    let mut best_x = lo;
    let mut best_s = eval(lo);
    let log_lo = lo.ln();
    let log_hi = hi.ln();
    for i in 0..=grid {
        let x = (log_lo + (log_hi - log_lo) * i as f64 / grid as f64).exp();
        let s = eval(x);
        if s > best_s {
            best_s = s;
            best_x = x;
        }
    }
    // Include the breakpoint candidate explicitly.
    let bp = base.times.x_prtr - base.times.x_decision;
    if bp > lo && bp < hi {
        let s = eval(bp);
        if s > best_s {
            best_s = s;
            best_x = bp;
        }
    }
    // Local ternary-search refinement around the grid winner.
    let mut a = (best_x / 1.5).max(lo);
    let mut b = (best_x * 1.5).min(hi);
    for _ in 0..200 {
        let m1 = a + (b - a) / 3.0;
        let m2 = b - (b - a) / 3.0;
        if eval(m1) < eval(m2) {
            a = m1;
        } else {
            b = m2;
        }
    }
    let x = 0.5 * (a + b);
    let s = eval(x);
    if s > best_s {
        (x, s)
    } else {
        (best_x, best_s)
    }
}

/// Verifies numerically (on a dense grid) that the long-task bound holds for
/// a given `(h, x_prtr)`: `S∞(X_task) ≤ 2` for all `X_task ≥ 1`. Returns the
/// largest observed value. Used by tests and by the EXPERIMENTS harness as a
/// sanity check.
pub fn max_speedup_long_tasks(h: f64, x_prtr: f64, grid: usize) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..=grid {
        // X_task from 1 to 100 on a log grid.
        let x_task = 10f64.powf(2.0 * i as f64 / grid as f64);
        let p = ModelParams::new(NormalizedTimes::ideal(x_task, x_prtr), h, 1).unwrap();
        worst = worst.max(asymptotic_speedup(&p));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_task_bound_holds_on_grid() {
        for &h in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            for &p in &[0.01, 0.1, 0.25, 0.5, 1.0] {
                let worst = max_speedup_long_tasks(h, p, 500);
                assert!(worst <= LONG_TASK_BOUND + 1e-9, "h={h} p={p} worst={worst}");
            }
        }
    }

    #[test]
    fn ideal_supremum_no_prefetch_matches_closed_form() {
        match ideal_supremum(0.0, 0.17) {
            Supremum::AttainedAt { x_task, speedup } => {
                assert!((x_task - 0.17).abs() < 1e-12);
                assert!((speedup - peak_speedup_no_prefetch(0.17)).abs() < 1e-12);
            }
            other => panic!("unexpected supremum {other:?}"),
        }
    }

    #[test]
    fn ideal_supremum_high_hit_ratio_moves_to_zero() {
        // H = 0.9, X_PRTR = 0.5: M*X_PRTR = 0.05 < 0.9 -> limit at zero.
        match ideal_supremum(0.9, 0.5) {
            Supremum::LimitAtZero { speedup } => {
                assert!((speedup - 1.0 / (0.1 * 0.5)).abs() < 1e-12);
            }
            other => panic!("unexpected supremum {other:?}"),
        }
    }

    #[test]
    fn ideal_supremum_perfect_prefetch_is_unbounded() {
        assert_eq!(ideal_supremum(1.0, 0.2), Supremum::Unbounded);
        assert!(ideal_supremum(1.0, 0.2).value().is_infinite());
    }

    #[test]
    fn numeric_supremum_agrees_with_closed_form() {
        let base = ModelParams::new(NormalizedTimes::ideal(0.1, 0.17), 0.0, 1).unwrap();
        let (x, s) = numeric_supremum(&base, 1e-4, 10.0, 2000);
        assert!((x - 0.17).abs() < 1e-3, "x = {x}");
        assert!((s - peak_speedup_no_prefetch(0.17)).abs() < 1e-3, "s = {s}");
    }

    #[test]
    fn numeric_supremum_handles_overheads() {
        // Nonzero control/decision overheads lower the peak.
        let times = NormalizedTimes {
            x_task: 0.1,
            x_control: 0.01,
            x_decision: 0.02,
            x_prtr: 0.17,
        };
        let base = ModelParams::new(times, 0.0, 1).unwrap();
        let (_, s) = numeric_supremum(&base, 1e-4, 10.0, 2000);
        assert!(s < peak_speedup_no_prefetch(0.17));
        assert!(s > 1.0);
    }

    #[test]
    #[should_panic(expected = "hit ratio")]
    fn ideal_supremum_rejects_bad_hit_ratio() {
        ideal_supremum(1.5, 0.1);
    }
}
