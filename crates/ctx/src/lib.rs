//! # hprc-ctx
//!
//! The execution-context layer: one [`ExecCtx`] struct carrying every
//! cross-cutting concern of a run — the observability [`Registry`] and
//! [`Journal`], the deterministic base RNG seed, the parallelism budget,
//! the [`RunBudget`] and the [`DeltaCache`] — threaded through all
//! substrates (`hprc-sim`, `hprc-sched`, `hprc-virt`, `hprc-exp`) so
//! each entry point exists exactly once instead of as a `foo()` /
//! `foo_with(&Registry)` twin.
//!
//! [`ExecCtx::default()`] reproduces the plain, uninstrumented, serial
//! behavior bit-for-bit: a no-op registry, seed base 0 (the XOR
//! identity, so explicit per-call seeds pass through unchanged), a
//! parallelism budget of one, an unlimited run budget and a disabled
//! delta cache.
//!
//! ```
//! use hprc_ctx::ExecCtx;
//! use hprc_obs::Registry;
//!
//! // Plain run: everything defaulted.
//! let ctx = ExecCtx::default();
//! assert!(!ctx.registry.is_enabled());
//! assert_eq!(ctx.seed_for(7), 7); // base 0 is the identity
//!
//! // Instrumented, reseeded, parallel run.
//! let ctx = ExecCtx::default()
//!     .with_registry(Registry::new())
//!     .with_seed(42)
//!     .with_jobs(4);
//! let child = ctx.child(3);
//! assert_eq!(child.seed, 42 ^ 3); // per-index derivation
//! assert_eq!(child.jobs, 1); // children never nest parallelism
//! assert!(child.registry.is_enabled()); // per-point registry
//! ```

#![warn(missing_docs)]

pub mod symbol;

pub use symbol::Symbol;

use hprc_obs::{DeltaCache, Journal, Registry, RunBudget};

/// The execution context for one run: observability, determinism,
/// parallelism and budgets, in one cheap-to-clone handle.
///
/// Every substrate entry point takes `&ExecCtx` as its last parameter.
/// Cloning clones the registry *handle* (an `Arc`, or nothing for a
/// no-op registry) — clones observe the same instruments.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Metrics/span registry. [`Registry::noop`] (the default) makes
    /// every instrumentation site a single branch.
    pub registry: Registry,
    /// Causal run journal. [`Journal::noop`] (the default) makes every
    /// journaling site a single branch; a live journal records the
    /// deterministic, replayable event log.
    pub journal: Journal,
    /// Deterministic base RNG seed. Call-site seeds combine with it via
    /// [`ExecCtx::seed_for`] (XOR), so the default base 0 leaves
    /// explicit seeds untouched.
    pub seed: u64,
    /// Parallelism budget for sweep runners (worker threads). Clamped
    /// to at least 1 by consumers; 1 means strictly serial.
    pub jobs: usize,
    /// Deterministic run budget. [`RunBudget::unlimited`] (the default)
    /// makes every budget hook a single branch; a limited budget cuts
    /// off simulation at an exact logical sequence number and tallies
    /// the refused work as would-have-run.
    pub budget: RunBudget,
    /// Delta-simulation skeleton cache. [`DeltaCache::disabled`] (the
    /// default) makes every memoization hook a single branch; an
    /// enabled cache lets sweeps replay memoized schedule prefixes
    /// instead of re-simulating from scratch, with byte-identical
    /// results.
    pub delta: DeltaCache,
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx {
            registry: Registry::noop(),
            journal: Journal::noop(),
            seed: 0,
            jobs: 1,
            budget: RunBudget::unlimited(),
            delta: DeltaCache::disabled(),
        }
    }
}

impl ExecCtx {
    /// The default context: no-op registry and journal, seed base 0,
    /// serial execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the registry.
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = registry;
        self
    }

    /// Replaces the journal.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = journal;
        self
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the parallelism budget (0 is treated as 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Replaces the run budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Replaces the delta-simulation skeleton cache.
    #[must_use]
    pub fn with_delta(mut self, delta: DeltaCache) -> Self {
        self.delta = delta;
        self
    }

    /// The effective seed for a named RNG stream: `base ⊕ stream`.
    ///
    /// With the default base 0 this is the identity, so call sites that
    /// historically hard-coded seeds reproduce their exact pre-context
    /// values; a non-zero base shifts every stream deterministically.
    pub fn seed_for(&self, stream: u64) -> u64 {
        self.seed ^ stream
    }

    /// The parallelism budget, never less than 1.
    pub fn effective_jobs(&self) -> usize {
        self.jobs.max(1)
    }

    /// Derives the per-index child context for one sweep point:
    /// `seed = base ⊕ index`, a fresh per-point registry (active iff
    /// this context's is), and a serial (`jobs = 1`) budget so nested
    /// sweeps never multiply threads.
    #[must_use]
    pub fn child(&self, index: usize) -> ExecCtx {
        ExecCtx {
            seed: self.seed ^ index as u64,
            journal: self.journal.child(index as u64),
            ..self.fork()
        }
    }

    /// Derives a child context that keeps the parent's seed base:
    /// a fresh registry (active iff this context's is) and a serial
    /// budget. For fanning out heterogeneous work items (e.g. whole
    /// experiments) whose internal seed streams are already
    /// independent.
    #[must_use]
    pub fn fork(&self) -> ExecCtx {
        ExecCtx {
            registry: if self.registry.is_enabled() {
                Registry::new()
            } else {
                Registry::noop()
            },
            journal: self.journal.fork(),
            seed: self.seed,
            jobs: 1,
            // Children and forks get a fresh unlimited budget: a shared
            // budget charged from parallel workers would make exhaustion
            // depend on the interleaving. Fleet-style fan-outs split the
            // parent budget explicitly (RunBudget::split_events) instead.
            budget: RunBudget::unlimited(),
            // The skeleton cache IS shared: replays are byte-identical
            // to longhand runs, so parallel workers reusing each
            // other's skeletons can never perturb results.
            delta: self.delta.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_identity_context() {
        let ctx = ExecCtx::default();
        assert!(!ctx.registry.is_enabled());
        assert_eq!(ctx.seed, 0);
        assert_eq!(ctx.effective_jobs(), 1);
        assert_eq!(ctx.seed_for(1234), 1234);
    }

    #[test]
    fn builders_compose() {
        let ctx = ExecCtx::new().with_seed(9).with_jobs(0);
        assert_eq!(ctx.seed, 9);
        assert_eq!(ctx.jobs, 1, "jobs 0 clamps to 1");
    }

    #[test]
    fn child_derivation_is_xor_of_index() {
        let ctx = ExecCtx::new().with_seed(0b1010).with_jobs(8);
        let c = ctx.child(0b0110);
        assert_eq!(c.seed, 0b1100);
        assert_eq!(c.jobs, 1);
        // Noop parent => noop children (no accidental instrumentation).
        assert!(!c.registry.is_enabled());
    }

    #[test]
    fn children_of_active_parents_get_fresh_active_registries() {
        let ctx = ExecCtx::new().with_registry(hprc_obs::Registry::new());
        ctx.registry.counter("parent").inc();
        let c0 = ctx.child(0);
        let c1 = ctx.child(1);
        assert!(c0.registry.is_enabled() && c1.registry.is_enabled());
        c0.registry.counter("point").inc();
        // Fresh per-point registries: nothing bleeds between them.
        assert!(c1.registry.snapshot().counters.is_empty());
        assert!(!c0.registry.snapshot().counters.contains_key("parent"));
    }

    #[test]
    fn fork_keeps_the_seed_base() {
        let ctx = ExecCtx::new().with_seed(77).with_jobs(4);
        let f = ctx.fork();
        assert_eq!(f.seed, 77);
        assert_eq!(f.jobs, 1);
    }

    #[test]
    fn budgets_never_leak_into_children_or_forks() {
        let ctx = ExecCtx::new().with_budget(RunBudget::events(3));
        assert!(ctx.budget.is_limited());
        // A shared budget across parallel children would tie exhaustion
        // to worker interleaving, so derivation resets it.
        assert!(!ctx.child(0).budget.is_limited());
        assert!(!ctx.fork().budget.is_limited());
        // Clones share the budget state (like the registry handle).
        let clone = ctx.clone();
        assert_eq!(clone.budget.admit(5), 3);
        assert!(ctx.budget.exhausted());
    }

    #[test]
    fn delta_cache_is_shared_with_children_and_forks() {
        let ctx = ExecCtx::new().with_delta(DeltaCache::new(1024));
        assert!(ctx.delta.is_enabled());
        let child = ctx.child(3);
        child.delta.put(b"k".to_vec(), std::sync::Arc::new(5u8), 1);
        // One shared store: the parent and a sibling both see it.
        assert!(ctx.delta.get(b"k").is_some());
        assert!(ctx.fork().delta.get(b"k").is_some());
        // The default context keeps the cache disabled.
        assert!(!ExecCtx::default().delta.is_enabled());
    }

    #[test]
    fn clones_share_the_registry() {
        let ctx = ExecCtx::new().with_registry(hprc_obs::Registry::new());
        let clone = ctx.clone();
        clone.registry.counter("shared").inc();
        assert_eq!(ctx.registry.snapshot().counters["shared"], 1);
    }
}
