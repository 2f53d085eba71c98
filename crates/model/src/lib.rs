//! # hprc-model
//!
//! Analytical execution model and performance bounds of **Partial Run-Time
//! Reconfiguration (PRTR)** relative to **Full Run-Time Reconfiguration
//! (FRTR)** on High-Performance Reconfigurable Computers, reproducing
//! El-Araby, Gonzalez & El-Ghazawi, *"Performance Bounds of Partial Run-Time
//! Reconfiguration in High-Performance Reconfigurable Computing"*,
//! HPRCTA'07 (SC 2007 workshop).
//!
//! This crate is the paper's primary contribution in library form:
//!
//! * [`params`] — raw and `T_FRTR`-normalized parameters (`X_task`,
//!   `X_control`, `X_decision`, `X_PRTR`, hit ratio `H`, `n_calls`);
//! * [`frtr`] — total-time equations (1)/(2);
//! * [`prtr`] — total-time equations (3)/(5) with hit/miss overlap;
//! * [`preempt`] — equation (5) extended with context-save/restore
//!   preemption overhead terms (`ν·(X_save + X_restore + X_PRTR +
//!   X_control)` per call);
//! * [`mod@speedup`] — finite (eq. 6) and asymptotic (eq. 7) speedup;
//! * [`bounds`] — the headline bounds (≤ 2× for `X_task ≥ 1`; `1 + 1/X_PRTR`
//!   peak at `X_task = X_PRTR` for `H = 0`), suprema;
//! * [`sweep`] — parameter sweeps generating Figure 5 / Figure 9 curve
//!   families;
//! * [`landscape`] — 2-D `S∞(X_task, H)` surfaces and contours;
//! * [`fit`] — recovering `(X_PRTR, H)` from measured speedup points;
//! * [`hybrid`] — the hardware/software mixed-workload extension
//!   (Amdahl-style dilution; the paper's deferred software-task case);
//! * [`sensitivity`] — finite-difference sensitivities and elasticities;
//! * [`validate`] — comparison of model predictions against measurements
//!   (in this reproduction, the `hprc-sim` discrete-event simulator).
//!
//! ## Quick example
//!
//! ```
//! use hprc_model::params::{ModelParams, NormalizedTimes};
//! use hprc_model::speedup::asymptotic_speedup;
//!
//! // Measured dual-PRR layout on Cray XD1: X_PRTR = 19.77ms / 1678.04ms.
//! let x_prtr = 19.77 / 1678.04;
//! // Peak: task time equal to the partial configuration time, no prefetch.
//! let p = ModelParams::new(NormalizedTimes::ideal(x_prtr, x_prtr), 0.0, 1_000).unwrap();
//! let s = asymptotic_speedup(&p);
//! assert!(s > 84.0 && s < 88.0); // the paper's "up to 87x"
//! ```

#![warn(missing_docs)]

pub mod bounds;
pub mod error;
pub mod fit;
pub mod frtr;
pub mod hybrid;
pub mod landscape;
pub mod params;
pub mod preempt;
pub mod prtr;
pub mod sensitivity;
pub mod speedup;
pub mod sweep;
pub mod validate;

pub use error::ModelError;
pub use params::{ModelParams, NormalizedTimes, TimingParams};
pub use preempt::{
    asymptotic_speedup_with_preemption, steady_state_per_call_with_preemption,
    total_time_with_preemption, PreemptOverheads,
};
pub use speedup::{asymptotic_speedup, evaluate, speedup, OperatingPoint};
