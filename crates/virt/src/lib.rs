//! # hprc-virt
//!
//! Hardware virtualization and multi-tasking over PRTR — the future-work
//! system the paper's section 5 argues is PRTR's real payoff: multiple
//! applications sharing one FPGA, each keeping its cores resident in a
//! PRR, instead of serializing whole-device reconfigurations.
//!
//! * [`app`] — applications as sequential hardware-call streams with
//!   arrival times and priorities;
//! * [`runtime`] — the OS-style scheduler over fixed PRRs: FCFS/priority
//!   disciplines, FRTR vs PRTR modes, optional next-configuration
//!   overlap, per-app turnaround/hit statistics, and Gantt timelines;
//!   every configuration is one clean transfer;
//! * [`flexible`] — the variable-width runtime: modules occupy exactly
//!   the columns they need inside one reconfigurable window, with LRU
//!   eviction and on-block defragmentation (width-scaled configuration
//!   times).
//!
//! ```
//! use hprc_ctx::ExecCtx;
//! use hprc_fpga::floorplan::Floorplan;
//! use hprc_sim::node::NodeConfig;
//! use hprc_virt::app::App;
//! use hprc_virt::runtime::{run, RuntimeConfig};
//!
//! let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
//! let ctx = ExecCtx::default();
//! // Two applications, each loyal to its own core.
//! let apps = vec![
//!     App::cycling(0, "video", &["Median Filter"], 20, 0.005, 0.0),
//!     App::cycling(1, "edges", &["Sobel Filter"], 20, 0.005, 0.0),
//! ];
//! let prtr = run(&node, &apps, &RuntimeConfig::prtr_overlapped(), &ctx).unwrap();
//! let frtr = run(&node, &apps, &RuntimeConfig::frtr(), &ctx).unwrap();
//! // PRTR keeps both cores resident; FRTR ping-pongs 1.7 s configurations.
//! assert!(frtr.makespan_s > 20.0 * prtr.makespan_s);
//! ```

#![warn(missing_docs)]

pub mod app;
pub mod error;
pub mod flexible;
pub mod runtime;

pub use app::{App, VirtCall};
pub use error::VirtError;
pub use flexible::{run_flexible, DefragPolicy, FlexApp, FlexCall, FlexConfig, FlexReport};
pub use runtime::{run, ReconfigMode, RunReport, RuntimeConfig, SchedulerKind};
