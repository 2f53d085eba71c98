//! Parameter sweeps over the analytical model, producing the curve families
//! plotted in Figure 5 and overlaid on Figure 9.
//!
//! A sweep is a few thousand closed-form Eq (7) evaluations (Figure 5's
//! family is 20 curves × 600 points), so it runs serially on the calling
//! thread: the experiment's `--jobs` budget is spent by its own runner.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::params::{ModelParams, NormalizedTimes};
use crate::speedup::asymptotic_speedup;

/// Axis specification for a sweep variable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Axis {
    /// `points` values linearly spaced on `[lo, hi]`.
    Linear {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
        /// Number of samples (≥ 2).
        points: usize,
    },
    /// `points` values logarithmically spaced on `[lo, hi]` (both > 0).
    Log {
        /// Inclusive lower bound (must be > 0).
        lo: f64,
        /// Inclusive upper bound (must be > lo).
        hi: f64,
        /// Number of samples (≥ 2).
        points: usize,
    },
}

impl Axis {
    /// Materializes the sample positions.
    pub fn samples(&self) -> Result<Vec<f64>, ModelError> {
        match *self {
            Axis::Linear { lo, hi, points } => {
                if points < 2 || !hi.is_finite() || !lo.is_finite() || hi <= lo {
                    return Err(ModelError::InvalidSweep(format!(
                        "linear axis needs points >= 2 and hi > lo (lo={lo}, hi={hi}, points={points})"
                    )));
                }
                Ok((0..points)
                    .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
                    .collect())
            }
            Axis::Log { lo, hi, points } => {
                if points < 2 || !hi.is_finite() || lo <= 0.0 || hi <= lo {
                    return Err(ModelError::InvalidSweep(format!(
                        "log axis needs points >= 2 and hi > lo > 0 (lo={lo}, hi={hi}, points={points})"
                    )));
                }
                let (a, b) = (lo.ln(), hi.ln());
                Ok((0..points)
                    .map(|i| (a + (b - a) * i as f64 / (points - 1) as f64).exp())
                    .collect())
            }
        }
    }
}

/// One curve: a labelled series of `(x_task, speedup)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Curve {
    /// Human-readable label (e.g. `"H=0, X_PRTR=0.17"`).
    pub label: String,
    /// `(x_task, speedup)` samples in ascending `x_task` order.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// The `(x_task, speedup)` point with the largest speedup.
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Sweep of asymptotic speedup `S∞` versus `X_task` for each `(H, X_PRTR)`
/// combination — exactly the family of curves shown in Figure 5.
///
/// `base` supplies `X_control`/`X_decision` (Figure 5 uses zero for both).
/// Curves come back `H`-major: every `X_PRTR` of the first hit ratio, then
/// of the next.
pub fn figure5_family(
    base: NormalizedTimes,
    hit_ratios: &[f64],
    x_prtrs: &[f64],
    x_task_axis: Axis,
) -> Result<Vec<Curve>, ModelError> {
    let xs = x_task_axis.samples()?;
    Ok(hit_ratios
        .iter()
        .flat_map(|&h| x_prtrs.iter().map(move |&p| (h, p)))
        .map(|(h, p)| {
            let mut times = NormalizedTimes { x_prtr: p, ..base };
            let points = xs
                .iter()
                .map(|&x| {
                    times.x_task = x;
                    let params =
                        ModelParams::new(times, h, 1).expect("sweep parameters validated by axis");
                    (x, asymptotic_speedup(&params))
                })
                .collect();
            Curve {
                label: format!("H={h}, X_PRTR={p}"),
                points,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::peak_speedup_no_prefetch;

    #[test]
    fn linear_axis_endpoints() {
        let s = Axis::Linear {
            lo: 0.0,
            hi: 1.0,
            points: 5,
        }
        .samples()
        .unwrap();
        assert_eq!(s, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn log_axis_is_geometric() {
        let s = Axis::Log {
            lo: 0.01,
            hi: 100.0,
            points: 5,
        }
        .samples()
        .unwrap();
        assert_eq!(s.len(), 5);
        assert!((s[0] - 0.01).abs() < 1e-12);
        assert!((s[4] - 100.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!((w[1] / w[0] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_axes_rejected() {
        assert!(Axis::Linear {
            lo: 1.0,
            hi: 1.0,
            points: 5
        }
        .samples()
        .is_err());
        assert!(Axis::Linear {
            lo: 0.0,
            hi: 1.0,
            points: 1
        }
        .samples()
        .is_err());
        assert!(Axis::Log {
            lo: 0.0,
            hi: 1.0,
            points: 5
        }
        .samples()
        .is_err());
    }

    #[test]
    fn figure5_family_has_expected_shape() {
        let curves = figure5_family(
            NormalizedTimes::ideal(0.0, 0.0_f64.max(0.1)),
            &[0.0, 0.5, 1.0],
            &[0.1, 0.5],
            Axis::Log {
                lo: 1e-3,
                hi: 10.0,
                points: 400,
            },
        )
        .unwrap();
        assert_eq!(curves.len(), 6);
        // H=0, X_PRTR=0.1 peaks near 1 + 1/0.1 = 11.
        let c = curves
            .iter()
            .find(|c| c.label == "H=0, X_PRTR=0.1")
            .unwrap();
        let (x, s) = c.peak().unwrap();
        assert!((s - peak_speedup_no_prefetch(0.1)).abs() < 0.2, "s = {s}");
        assert!((x - 0.1).abs() < 0.02, "x = {x}");
    }

    #[test]
    fn figure5_curves_converge_for_long_tasks() {
        // All curves coincide at (1 + x)/x for x >= X_PRTR (ideal setting).
        let curves = figure5_family(
            NormalizedTimes::ideal(0.0, 0.1),
            &[0.0, 1.0],
            &[0.1],
            Axis::Linear {
                lo: 1.0,
                hi: 5.0,
                points: 10,
            },
        )
        .unwrap();
        for (a, b) in curves[0].points.iter().zip(&curves[1].points) {
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }
}
