//! # hprc-sim
//!
//! Deterministic simulator of a Cray XD1-class HPRC node: the experimental
//! substrate of the reproduction. It models the pieces of section 4 —
//! the vendor full-configuration API with its software overhead
//! ([`cray_api`]), the ICAP partial-reconfiguration path with its BRAM
//! buffer and control FSM ([`icap`]), the node's I/O and core timing
//! ([`node`]) — and executes task-call sequences under FRTR and PRTR
//! ([`executor`]), producing totals and event timelines ([`trace`]) that
//! can be validated against the analytical model of `hprc-model`.
//!
//! Every executor entry point takes an [`hprc_ctx::ExecCtx`] carrying the
//! observability registry and journal, seed, parallelism and run budget;
//! `ExecCtx::default()` is the plain, uninstrumented run.
//!
//! ```
//! use hprc_ctx::ExecCtx;
//! use hprc_fpga::floorplan::Floorplan;
//! use hprc_sim::executor::{run_frtr, run_prtr};
//! use hprc_sim::node::NodeConfig;
//! use hprc_sim::task::{PrtrCall, TaskCall};
//!
//! let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
//! let ctx = ExecCtx::default();
//! // 20 calls, each as long as one partial configuration (the peak point).
//! let calls: Vec<PrtrCall> = (0..20)
//!     .map(|i| PrtrCall {
//!         task: TaskCall::with_task_time("Sobel Filter", &node, node.t_prtr_s()),
//!         hit: false,
//!         slot: i % 2,
//!     })
//!     .collect();
//! let tasks: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
//! let frtr = run_frtr(&node, &tasks, &ctx).unwrap();
//! let prtr = run_prtr(&node, &calls, &ctx).unwrap();
//! assert!(frtr.total_s() / prtr.total_s() > 50.0); // PRTR wins big here
//! ```

#![warn(missing_docs)]

pub mod cray_api;
pub mod engine;
pub mod error;
pub mod executor;
pub mod icap;
pub mod node;
pub mod preempt;
pub mod task;
pub mod time;
pub mod trace;

pub use cray_api::CrayConfigApi;
pub use engine::EventQueue;
pub use error::SimError;
pub use executor::{
    run_frtr, run_frtr_reference, run_prtr, run_prtr_reference, CallTiming, ExecutionReport,
};
pub use icap::IcapPath;
pub use node::NodeConfig;
pub use preempt::{run_preemptive, run_preemptive_reference, PreemptSegment};
pub use task::{PrtrCall, TaskCall};
pub use time::{SimDuration, SimTime};
pub use trace::{EventKind, Lane, Timeline};
