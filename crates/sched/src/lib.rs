//! # hprc-sched
//!
//! Configuration caching and pre-fetching substrate: the algorithms the
//! paper's analytical model abstracts into the hit ratio `H` and decision
//! latency `T_decision` (section 3.1, building on its references \[24\]-\[27\]).
//!
//! * [`cache`] — the PRR-slot configuration cache and hit/miss statistics;
//! * [`policy`] — the replacement/prefetch policy trait;
//! * [`policies`] — always-miss (the paper's measured setup), FIFO, LRU,
//!   LFU, random, Belady's clairvoyant optimum, and a first-order Markov
//!   prefetcher;
//! * [`mod@simulate`] — trace-driven simulation measuring the achieved `H`;
//! * [`faulty`] — the same simulation with `hprc-fault` recovery state:
//!   escalations wipe the cache, repeated escalations blacklist PRRs,
//!   and seeded SEUs evict residents, so `H` degrades honestly;
//! * [`preempt`] — the event-driven preemptible engine: checkpoint a
//!   running task out of its PRR at PR-safe points (context readback
//!   priced like a bitstream transfer), restore it later, under
//!   strict-priority or EDF dispatch with frame deadlines;
//! * [`traces`] — seeded workload generators (uniform, Zipf, phased,
//!   looping pipelines).
//!
//! ```
//! use hprc_ctx::ExecCtx;
//! use hprc_sched::policies::Markov;
//! use hprc_sched::simulate::simulate;
//! use hprc_sched::traces::TraceSpec;
//!
//! // An image pipeline cycling 3 cores through 2 PRRs defeats plain LRU,
//! // but a next-task prefetcher hides most reconfigurations.
//! let trace = TraceSpec::Looping { stages: 3, n_tasks: 3, noise: 0.0, len: 300 }.generate(1);
//! let outcome = simulate(&trace, 2, &mut Markov::new(), true, &ExecCtx::default());
//! assert!(outcome.hit_ratio() > 0.5);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub(crate) mod delta;
pub mod faulty;
pub mod policies;
pub mod policy;
pub mod preempt;
pub mod simulate;
pub mod traces;

pub use cache::{CacheStats, ConfigCache, TaskId};
pub use faulty::{simulate_faulty, FaultyOutcome};
pub use policy::{JobView, Policy};
pub use preempt::{
    simulate_preemptive, Edf, JobRecord, PreemptCosts, PreemptOutcome, PreemptStats, RtTask,
    ScheduleSegment, StrictPriority, TaskState, Window,
};
pub use simulate::{simulate, CallOutcome, SimulationOutcome};
pub use traces::TraceSpec;
