//! Speedup of PRTR relative to FRTR — equations (6) and (7).

use crate::params::ModelParams;
use crate::{frtr, prtr};

/// Finite-call speedup `S = X_FRTR_total / X_PRTR_total` — equation (6):
///
/// ```text
/// S = (1 + X_control + X_task)
///   / ( X_decision / n_calls
///     + X_control
///     + M * max(X_task + X_decision, X_PRTR)
///     + H * max(X_task, X_decision) )
/// ```
pub fn speedup(p: &ModelParams) -> f64 {
    frtr::total_time_normalized(p) / prtr::total_time_normalized(p)
}

/// Asymptotic speedup `S∞ = lim_{n_calls→∞} S` — equation (7):
///
/// ```text
/// S∞ = (1 + X_control + X_task)
///    / ( X_control
///      + M * max(X_task + X_decision, X_PRTR)
///      + H * max(X_task, X_decision) )
/// ```
///
/// Returns `f64::INFINITY` when the denominator is zero (e.g. `H = 1`,
/// `X_task = X_control = X_decision = 0`): a degenerate corner where PRTR
/// has no per-call cost at all.
pub fn asymptotic_speedup(p: &ModelParams) -> f64 {
    let num = frtr::per_call_normalized(p);
    let den = prtr::steady_state_per_call_normalized(p);
    if den == 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// A single evaluated operating point, convenient for tables and JSON dumps.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OperatingPoint {
    /// Normalized task time `X_task` at which the point was evaluated.
    pub x_task: f64,
    /// Normalized total FRTR time (equation (2)).
    pub frtr_total: f64,
    /// Normalized total PRTR time (equation (5)).
    pub prtr_total: f64,
    /// Finite speedup (equation (6)).
    pub speedup: f64,
    /// Asymptotic speedup (equation (7)).
    pub asymptotic_speedup: f64,
}

/// Evaluates every model output at one parameter set.
pub fn evaluate(p: &ModelParams) -> OperatingPoint {
    OperatingPoint {
        x_task: p.times.x_task,
        frtr_total: frtr::total_time_normalized(p),
        prtr_total: prtr::total_time_normalized(p),
        speedup: speedup(p),
        asymptotic_speedup: asymptotic_speedup(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ModelParams, NormalizedTimes};

    fn ideal(x_task: f64, x_prtr: f64, h: f64, n: u64) -> ModelParams {
        ModelParams::new(NormalizedTimes::ideal(x_task, x_prtr), h, n).unwrap()
    }

    #[test]
    fn h0_peak_speedup_is_one_plus_inverse_xprtr() {
        // Paper, section 5: with H = 0 the peak sits at X_task = X_PRTR and
        // equals (1 + X_PRTR) / X_PRTR = 1 + 1/X_PRTR.
        let x_prtr = 0.17;
        let p = ideal(x_prtr, x_prtr, 0.0, 1_000_000);
        let s = asymptotic_speedup(&p);
        assert!((s - (1.0 + 1.0 / x_prtr)).abs() < 1e-9, "s = {s}");
        // ~7x as the paper reports for the estimated dual-PRR layout.
        assert!(s > 6.8 && s < 7.1);
    }

    #[test]
    fn measured_xd1_peak_is_about_87x() {
        // Measured dual-PRR: X_PRTR = 19.77 / 1678.04 ≈ 0.0118 -> ~86x.
        let x_prtr = 19.77 / 1678.04;
        let p = ideal(x_prtr, x_prtr, 0.0, u64::MAX);
        let s = asymptotic_speedup(&p);
        assert!(s > 84.0 && s < 88.0, "s = {s}");
    }

    #[test]
    fn long_tasks_cap_at_two() {
        for &x_task in &[1.0, 1.5, 2.0, 10.0, 1e6] {
            for &h in &[0.0, 0.3, 1.0] {
                let p = ideal(x_task, 0.5, h, 1000);
                let s = asymptotic_speedup(&p);
                assert!(s <= 2.0 + 1e-12, "x_task={x_task} h={h} s={s}");
            }
        }
        // Equality at X_task = 1.
        let p = ideal(1.0, 0.5, 0.0, 1000);
        assert!((asymptotic_speedup(&p) - 2.0).abs() < 1e-12);
        // A decision latency of 2: S∞ = (1 + X_task) / (X_task + 2) < 1,
        // so PRTR loses outright.
        let times = NormalizedTimes {
            x_task: 50.0,
            x_control: 0.0,
            x_decision: 2.0,
            x_prtr: 0.1,
        };
        assert!(asymptotic_speedup(&ModelParams::new(times, 0.0, 1).unwrap()) < 1.0);
    }

    #[test]
    fn perfect_prefetch_is_independent_of_xprtr() {
        let a = ideal(0.4, 0.01, 1.0, 100);
        let b = ideal(0.4, 0.9, 1.0, 100);
        assert!((asymptotic_speedup(&a) - asymptotic_speedup(&b)).abs() < 1e-12);
        // And equals (1 + X_task)/X_task.
        assert!((asymptotic_speedup(&a) - 1.4 / 0.4).abs() < 1e-12);
    }

    #[test]
    fn finite_speedup_approaches_asymptote_from_below() {
        let times = NormalizedTimes {
            x_task: 0.3,
            x_control: 0.001,
            x_decision: 0.05,
            x_prtr: 0.1,
        };
        let s_inf = asymptotic_speedup(&ModelParams::new(times, 0.5, 1).unwrap());
        let mut prev = 0.0;
        for n in [1u64, 10, 100, 10_000, 1_000_000] {
            let s = speedup(&ModelParams::new(times, 0.5, n).unwrap());
            assert!(s >= prev, "monotone in n");
            assert!(s <= s_inf + 1e-12, "below the asymptote");
            prev = s;
        }
        assert!((prev - s_inf).abs() < 1e-4, "converges");
    }

    #[test]
    fn infinite_speedup_corner_is_flagged() {
        // H = 1 and X_task = 0: PRTR per-call cost is exactly zero.
        let p = ideal(0.0, 0.1, 1.0, 10);
        assert!(asymptotic_speedup(&p).is_infinite());
    }

    #[test]
    fn evaluate_is_consistent() {
        let p = ideal(0.25, 0.1, 0.4, 500);
        let pt = evaluate(&p);
        assert!((pt.speedup - pt.frtr_total / pt.prtr_total).abs() < 1e-12);
        assert_eq!(pt.x_task, 0.25);
    }
}
