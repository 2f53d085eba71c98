//! # prtr-bounds
//!
//! A full reproduction of El-Araby, Gonzalez & El-Ghazawi, *"Performance
//! Bounds of Partial Run-Time Reconfiguration in High-Performance
//! Reconfigurable Computing"* (HPRCTA'07, an SC 2007 workshop), as a Rust
//! workspace:
//!
//! * [`model`] (`hprc-model`) — the paper's analytical execution model:
//!   equations (1)–(7), the performance bounds, sweeps, sensitivities;
//! * [`fpga`] (`hprc-fpga`) — the Virtex-II Pro XC2VP50 substrate:
//!   configuration frames, bitstream flows, PRR floorplans, Table 1's
//!   module library;
//! * [`sim`] (`hprc-sim`) — a deterministic Cray XD1 node simulator
//!   (vendor API, ICAP path, FRTR/PRTR executors, timelines);
//! * [`sched`] (`hprc-sched`) — configuration caching/prefetching policies
//!   and workload traces (the paper's `H` made measurable);
//! * [`virt`] (`hprc-virt`) — the hardware-virtualization/multi-tasking
//!   runtime (the paper's future-work direction);
//! * [`attr`] (`hprc-attr`) — wall-clock attribution over timelines:
//!   exclusive time buckets with a machine-checked sum identity, hiding
//!   efficiency, and measured-vs-Eq(7) bound gaps;
//! * [`obs`] (`hprc-obs`) — zero-dependency logical metrics (counters,
//!   gauges, histograms), the causal run journal, and Chrome
//!   trace-event export, wired through the simulator, scheduler, and
//!   runner;
//! * [`ctx`] (`hprc-ctx`) — the execution-context layer: one [`ExecCtx`]
//!   (registry, journal, seed, parallelism, delta cache)
//!   threaded through every substrate entry point;
//! * [`exp`] (`hprc-exp`) — the harness regenerating every table and
//!   figure, with a deterministic parallel sweep runner (`--jobs`).
//!
//! [`ExecCtx`]: hprc_ctx::ExecCtx
//!
//! ## Quickstart
//!
//! ```
//! use prtr_bounds::prelude::*;
//!
//! // The measured Cray XD1, dual-PRR layout (Table 2).
//! let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
//!
//! // The paper's peak operating point: task as long as one partial
//! // reconfiguration, no prefetching.
//! let params = ModelParams::experimental(node.x_prtr(), node.x_prtr(),
//!     node.control_overhead_s / node.t_frtr_s(), 1_000);
//! let s = asymptotic_speedup(&params);
//! assert!(s > 80.0); // "up to 87x higher than the performance of FRTR"
//! ```

#![warn(missing_docs)]

pub use hprc_attr as attr;
pub use hprc_ctx as ctx;
pub use hprc_exp as exp;
pub use hprc_fpga as fpga;
pub use hprc_model as model;
pub use hprc_obs as obs;
pub use hprc_sched as sched;
pub use hprc_sim as sim;
pub use hprc_virt as virt;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use hprc_attr::{AttributionReport, Buckets, RunAttribution};
    pub use hprc_ctx::ExecCtx;
    pub use hprc_fpga::bitstream::Bitstream;
    pub use hprc_fpga::device::Device;
    pub use hprc_fpga::floorplan::Floorplan;
    pub use hprc_fpga::module::ModuleLibrary;
    pub use hprc_model::params::{ModelParams, NormalizedTimes, TimingParams};
    pub use hprc_model::speedup::{asymptotic_speedup, speedup};
    pub use hprc_obs::Registry;
    pub use hprc_sched::policies::{AlwaysMiss, Belady, Lru, Markov};
    pub use hprc_sched::simulate::simulate;
    pub use hprc_sched::traces::TraceSpec;
    pub use hprc_sim::executor::{run_frtr, run_prtr};
    pub use hprc_sim::node::NodeConfig;
    pub use hprc_sim::task::{PrtrCall, TaskCall};
    pub use hprc_virt::app::App;
    pub use hprc_virt::runtime::{run as run_virtualized, RuntimeConfig};
}
