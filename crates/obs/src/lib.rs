//! # hprc-obs
//!
//! Observability for the HPRC substrates: counters, gauges and quantile
//! histograms, all reachable through a single cheap [`Registry`] handle,
//! plus the [`ChromeEvent`] type for exporting simulator timelines in
//! Chrome trace-event format (loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)), and the causal [`Journal`] — a
//! deterministic, replayable event log with parent/flow links exported
//! as Chrome flow events.
//!
//! Everything here is logical telemetry: a registry counts, it never
//! reads a clock, so a [`Snapshot`] (the `<id>.metrics.json` artifact)
//! is as deterministic as the run that filled it.
//!
//! The design constraint is that instrumentation must be free to leave
//! in hot paths: the default [`Registry::noop`] handle is a `None` and
//! every recording call on it is a branch on an `Option` — no
//! allocation, no locking. An active registry ([`Registry::new`]) hands
//! out `Arc`-backed instrument handles that callers hoist out of loops;
//! recording on a hoisted [`Counter`] is a single relaxed atomic add.
//!
//! ```
//! use hprc_obs::Registry;
//!
//! let reg = Registry::new();
//! let calls = reg.counter("sim.calls");
//! let latency = reg.histogram("sim.call_latency_s");
//! for i in 0..100 {
//!     calls.inc();
//!     latency.record(i as f64 * 1e-3);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["sim.calls"], 100);
//! assert!(snap.histograms["sim.call_latency_s"].p50 > 0.0);
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod chrome;
pub mod delta;
pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod registry;

pub use artifact::ArtifactState;
pub use chrome::ChromeEvent;
pub use delta::{DeltaAccount, DeltaCache, DEFAULT_DELTA_BYTES};
pub use journal::{
    expand_jsonl, BudgetAccount, Journal, JournalMark, JournalRecord, SpanId, JOURNAL_SCHEMA,
};
pub use manifest::{ArtifactDirKind, Manifest, MANIFEST_SCHEMA};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{Registry, Snapshot, SpanRecord};
