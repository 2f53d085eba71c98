//! Model parameters: raw timing parameters and their normalized form.
//!
//! The paper normalizes every time quantity by the full-configuration time
//! `T_FRTR` (the time to configure the whole FPGA once), writing
//! `X_y = T_y / T_FRTR`. All closed-form results in [`mod@crate::speedup`]
//! and [`crate::bounds`] are stated over [`NormalizedTimes`].

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Raw (dimensional) timing parameters of one HPRC execution scenario.
///
/// All times are in **seconds**. These mirror the notation of section 3.1 of
/// the paper:
///
/// * `t_task` — average task execution time requirement `T_task` (I/O +
///   compute, lumped together as the paper does),
/// * `t_control` — average transfer-of-control time `T_control`,
/// * `t_decision` — average pre-fetching decision latency `T_decision`
///   (a.k.a. `T_setup`),
/// * `t_frtr` — full configuration time `T_FRTR`,
/// * `t_prtr` — average partial configuration time `T_PRTR`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Average task execution time requirement, seconds.
    pub t_task: f64,
    /// Average transfer-of-control time, seconds.
    pub t_control: f64,
    /// Average pre-fetching decision latency, seconds.
    pub t_decision: f64,
    /// Full configuration time, seconds.
    pub t_frtr: f64,
    /// Average partial configuration time, seconds.
    pub t_prtr: f64,
}

impl TimingParams {
    /// Normalizes every time by `t_frtr` (the paper's `X_y = T_y / T_FRTR`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `t_frtr` is not strictly
    /// positive or any time is negative or non-finite.
    pub fn normalize(&self) -> Result<NormalizedTimes, ModelError> {
        for (name, v) in [
            ("t_task", self.t_task),
            ("t_control", self.t_control),
            ("t_decision", self.t_decision),
            ("t_frtr", self.t_frtr),
            ("t_prtr", self.t_prtr),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidParameter {
                    name,
                    value: v,
                    reason: "must be finite and non-negative",
                });
            }
        }
        if self.t_frtr <= 0.0 {
            return Err(ModelError::InvalidParameter {
                name: "t_frtr",
                value: self.t_frtr,
                reason: "normalization base must be strictly positive",
            });
        }
        Ok(NormalizedTimes {
            x_task: self.t_task / self.t_frtr,
            x_control: self.t_control / self.t_frtr,
            x_decision: self.t_decision / self.t_frtr,
            x_prtr: self.t_prtr / self.t_frtr,
        })
    }
}

/// Times normalized by the full-configuration time (`X_y = T_y / T_FRTR`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalizedTimes {
    /// `X_task = T_task / T_FRTR`.
    pub x_task: f64,
    /// `X_control = T_control / T_FRTR`.
    pub x_control: f64,
    /// `X_decision = T_decision / T_FRTR`.
    pub x_decision: f64,
    /// `X_PRTR = T_PRTR / T_FRTR`.
    pub x_prtr: f64,
}

impl NormalizedTimes {
    /// Convenience constructor for the idealized setting of Figure 5
    /// (`X_decision = X_control = 0`).
    pub fn ideal(x_task: f64, x_prtr: f64) -> Self {
        Self {
            x_task,
            x_control: 0.0,
            x_decision: 0.0,
            x_prtr,
        }
    }
}

/// Full parameter set of the analytical model: normalized times plus the
/// pre-fetching hit ratio `H` and the number of task calls `n_calls`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Normalized times.
    pub times: NormalizedTimes,
    /// Hit ratio `H` of the configuration pre-fetching (caching) algorithm:
    /// the fraction of task calls whose configuration was already resident.
    /// The miss ratio is `M = 1 - H = n_config / n_calls`.
    pub hit_ratio: f64,
    /// Total number of function (task) calls, `n_calls`.
    pub n_calls: u64,
}

impl ModelParams {
    /// Builds a parameter set, validating every component.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when a normalized time is
    /// negative/non-finite, when `hit_ratio` is outside `[0, 1]`, or when
    /// `n_calls` is zero.
    pub fn new(times: NormalizedTimes, hit_ratio: f64, n_calls: u64) -> Result<Self, ModelError> {
        for (name, v) in [
            ("x_task", times.x_task),
            ("x_control", times.x_control),
            ("x_decision", times.x_decision),
            ("x_prtr", times.x_prtr),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidParameter {
                    name,
                    value: v,
                    reason: "must be finite and non-negative",
                });
            }
        }
        if !(0.0..=1.0).contains(&hit_ratio) || !hit_ratio.is_finite() {
            return Err(ModelError::InvalidParameter {
                name: "hit_ratio",
                value: hit_ratio,
                reason: "must lie in [0, 1]",
            });
        }
        if n_calls == 0 {
            return Err(ModelError::InvalidParameter {
                name: "n_calls",
                value: 0.0,
                reason: "at least one task call is required",
            });
        }
        Ok(Self {
            times,
            hit_ratio,
            n_calls,
        })
    }

    /// Miss ratio `M = 1 - H`.
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.hit_ratio
    }

    /// Expected number of (re-)configurations, `n_config = M * n_calls`.
    pub fn n_config(&self) -> f64 {
        self.miss_ratio() * self.n_calls as f64
    }

    /// The paper's experimental configuration on Cray XD1 (section 4.3):
    /// no pre-fetching (`H = 0`, `M = 1`), zero decision latency, and the
    /// given normalized control overhead.
    pub fn experimental(x_task: f64, x_prtr: f64, x_control: f64, n_calls: u64) -> Self {
        Self {
            times: NormalizedTimes {
                x_task,
                x_control,
                x_decision: 0.0,
                x_prtr,
            },
            hit_ratio: 0.0,
            n_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_divides_by_t_frtr() {
        let raw = TimingParams {
            t_task: 0.018,
            t_control: 10e-6,
            t_decision: 0.0,
            t_frtr: 0.036,
            t_prtr: 0.00612,
        };
        let n = raw.normalize().unwrap();
        assert!((n.x_task - 0.5).abs() < 1e-12);
        assert!((n.x_prtr - 0.17).abs() < 1e-12);
        assert!((n.x_control - 10e-6 / 0.036).abs() < 1e-15);
        assert_eq!(n.x_decision, 0.0);
    }

    #[test]
    fn normalize_rejects_zero_base() {
        let raw = TimingParams {
            t_task: 1.0,
            t_control: 0.0,
            t_decision: 0.0,
            t_frtr: 0.0,
            t_prtr: 0.1,
        };
        assert!(raw.normalize().is_err());
    }

    #[test]
    fn normalize_rejects_negative_time() {
        let raw = TimingParams {
            t_task: -1.0,
            t_control: 0.0,
            t_decision: 0.0,
            t_frtr: 1.0,
            t_prtr: 0.1,
        };
        assert!(raw.normalize().is_err());
    }

    #[test]
    fn params_reject_bad_hit_ratio() {
        let t = NormalizedTimes::ideal(0.5, 0.1);
        assert!(ModelParams::new(t, -0.1, 10).is_err());
        assert!(ModelParams::new(t, 1.1, 10).is_err());
        assert!(ModelParams::new(t, f64::NAN, 10).is_err());
    }

    #[test]
    fn params_reject_zero_calls() {
        let t = NormalizedTimes::ideal(0.5, 0.1);
        assert!(ModelParams::new(t, 0.5, 0).is_err());
    }

    #[test]
    fn miss_ratio_complements_hit_ratio() {
        let t = NormalizedTimes::ideal(0.5, 0.1);
        let p = ModelParams::new(t, 0.25, 100).unwrap();
        assert!((p.miss_ratio() - 0.75).abs() < 1e-12);
        assert!((p.n_config() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn experimental_matches_paper_setup() {
        let p = ModelParams::experimental(0.5, 0.012, 0.0, 1000);
        assert_eq!(p.hit_ratio, 0.0);
        assert_eq!(p.times.x_decision, 0.0);
        assert_eq!(p.miss_ratio(), 1.0);
    }
}
