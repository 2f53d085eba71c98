//! Two-dimensional speedup landscapes: `S∞` over a `(X_task, H)` grid.
//!
//! Figure 5 shows one-dimensional slices; design work wants the whole
//! surface — e.g. "how much hit ratio do I need at this task size to
//! reach 10×?". A grid is a few hundred closed-form Eq (7) evaluations,
//! computed serially in row-major order.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::params::{ModelParams, NormalizedTimes};
use crate::speedup::asymptotic_speedup;
use crate::sweep::Axis;

/// A dense `S∞(X_task, H)` surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Landscape {
    /// `X_task` sample positions (columns).
    pub x_task: Vec<f64>,
    /// `H` sample positions (rows).
    pub hit_ratio: Vec<f64>,
    /// Row-major values: `values[row * x_task.len() + col]`.
    pub values: Vec<f64>,
    /// The fixed parameters the surface was computed at.
    pub base: NormalizedTimes,
}

impl Landscape {
    /// Value at `(row, col)` = `(hit_ratio[row], x_task[col])`.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.x_task.len() + col]
    }

    /// Global maximum `(h, x_task, value)`.
    pub fn max(&self) -> (f64, f64, f64) {
        let (mut best, mut at) = (f64::NEG_INFINITY, (0, 0));
        for r in 0..self.hit_ratio.len() {
            for c in 0..self.x_task.len() {
                let v = self.at(r, c);
                if v > best {
                    best = v;
                    at = (r, c);
                }
            }
        }
        (self.hit_ratio[at.0], self.x_task[at.1], best)
    }

    /// For each `H` row, the **largest** sampled `X_task` whose speedup
    /// still reaches `target`, if any — "how big may my tasks grow before
    /// the gain drops below the target", the requirement contour designers
    /// read off such maps.
    pub fn contour(&self, target: f64) -> Vec<(f64, Option<f64>)> {
        self.hit_ratio
            .iter()
            .enumerate()
            .map(|(r, &h)| {
                let x = (0..self.x_task.len())
                    .rev()
                    .find(|&c| self.at(r, c) >= target)
                    .map(|c| self.x_task[c]);
                (h, x)
            })
            .collect()
    }
}

/// Computes the landscape over `x_axis × h_axis` at the fixed overheads of
/// `base` (its `x_task` field is overwritten).
pub fn compute(base: NormalizedTimes, x_axis: Axis, h_axis: Axis) -> Result<Landscape, ModelError> {
    let x_task = x_axis.samples()?;
    let hit_ratio = h_axis.samples()?;
    for &h in &hit_ratio {
        if !(0.0..=1.0).contains(&h) {
            return Err(ModelError::InvalidSweep(format!(
                "hit-ratio axis leaves [0,1]: {h}"
            )));
        }
    }
    let values = hit_ratio
        .iter()
        .flat_map(|&h| {
            x_task.iter().map(move |&x| {
                let times = NormalizedTimes { x_task: x, ..base };
                asymptotic_speedup(&ModelParams::new(times, h, 1).expect("axes validated"))
            })
        })
        .collect();

    Ok(Landscape {
        x_task,
        hit_ratio,
        values,
        base,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Landscape {
        compute(
            NormalizedTimes::ideal(1.0, 0.0118),
            Axis::Log {
                lo: 1e-3,
                hi: 10.0,
                points: 120,
            },
            Axis::Linear {
                lo: 0.0,
                hi: 1.0,
                points: 11,
            },
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_indexing() {
        let l = grid();
        assert_eq!(l.values.len(), 120 * 11);
        // H = 0 row at the X_task nearest X_PRTR should be near the peak.
        let c = (0..l.x_task.len())
            .min_by(|&a, &b| {
                (l.x_task[a] - 0.0118)
                    .abs()
                    .total_cmp(&(l.x_task[b] - 0.0118).abs())
            })
            .unwrap();
        let v = l.at(0, c);
        assert!(v > 75.0 && v < 87.0, "v = {v}");
    }

    #[test]
    fn grid_matches_pointwise_evaluation() {
        let l = grid();
        for (r, &h) in l.hit_ratio.iter().enumerate() {
            for (c, &x) in l.x_task.iter().enumerate() {
                let p = ModelParams::new(NormalizedTimes::ideal(x, 0.0118), h, 1).unwrap();
                assert_eq!(l.at(r, c), asymptotic_speedup(&p));
            }
        }
    }

    #[test]
    fn max_is_at_high_h_small_x() {
        let (h, x, v) = grid().max();
        assert_eq!(h, 1.0);
        assert!(x <= 0.002);
        assert!(v > 500.0);
    }

    #[test]
    fn contour_is_monotone_in_h() {
        // Higher H tolerates larger tasks at the same target speedup (or
        // at worst the same sampled threshold), so the contour is
        // non-decreasing in H.
        let l = grid();
        let contour = l.contour(30.0);
        let defined: Vec<f64> = contour.iter().filter_map(|&(_, x)| x).collect();
        assert_eq!(
            defined.len(),
            l.hit_ratio.len(),
            "30x reachable at all H here"
        );
        for w in defined.windows(2) {
            assert!(w[1] + 1e-12 >= w[0], "{contour:?}");
        }
        // An unreachable target yields an empty contour.
        let none = l.contour(1e9);
        assert!(none.iter().all(|&(_, x)| x.is_none()));
    }

    #[test]
    fn bad_h_axis_rejected() {
        let r = compute(
            NormalizedTimes::ideal(1.0, 0.1),
            Axis::Linear {
                lo: 0.1,
                hi: 1.0,
                points: 4,
            },
            Axis::Linear {
                lo: 0.0,
                hi: 2.0,
                points: 4,
            },
        );
        assert!(r.is_err());
    }
}
