//! Deterministic parallel sweep runner.
//!
//! Experiments and fleets fan out over independent indices (sweep
//! points, seeds, fleet nodes). [`par_indexed`] is the one fan-out:
//! it runs such a fan-out across up to `ctx.jobs` worker threads while
//! keeping every observable output — return values, RNG streams,
//! merged metrics and journals — byte-identical to the serial run:
//!
//! * each index gets its own child context ([`ExecCtx::child`]): a
//!   derived seed (`base ⊕ index`), a private registry and a re-salted
//!   child journal, so no instrument cell or journal is ever shared
//!   between two workers while the fan-out runs;
//! * workers pull indices from a shared dispenser (dynamic load
//!   balancing — cheap points don't serialize behind expensive ones);
//! * results are reassembled in index order, and the children's
//!   registries and journals are merged into `ctx` in index order
//!   ([`Registry::merge_from`](hprc_obs::Registry::merge_from),
//!   [`Journal::merge_from`](hprc_obs::Journal::merge_from)), which
//!   reproduces the serial recording order exactly.
//!
//! The upshot: `--jobs N` changes wall-clock time only, never results.

use hprc_ctx::ExecCtx;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(index, child_ctx)` for every `index in 0..n`, using up to
/// `ctx.jobs` threads, and returns the results in index order.
///
/// Each invocation receives its own child context ([`ExecCtx::child`]:
/// derived seed, private registry and journal, `jobs = 1` so nested
/// fan-outs stay serial); after all indices complete, the children's
/// registries and journals are merged into `ctx` in index order. With
/// `ctx.jobs == 1` (or `n <= 1`) everything runs on the calling thread
/// with no thread overhead.
///
/// # Panics
///
/// Propagates a panic from `f` (all other workers are joined first).
pub fn par_indexed<T, F>(n: usize, ctx: &ExecCtx, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ExecCtx) -> T + Sync,
{
    let children: Vec<ExecCtx> = (0..n).map(|i| ctx.child(i)).collect();
    let next = AtomicUsize::new(0);
    // One worker's share: the indices it pulled, with their results.
    let work = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return mine;
            }
            mine.push((i, f(i, &children[i])));
        }
    };
    let jobs = ctx.effective_jobs().min(n);
    let mut results = if jobs <= 1 {
        work()
    } else {
        crossbeam::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs).map(|_| s.spawn(|_| work())).collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect::<Vec<_>>()
        })
        .expect("runner scope")
    };
    results.sort_unstable_by_key(|&(i, _)| i);

    // Index-ordered merge reproduces the serial instrument state and
    // journal.
    for child in &children {
        ctx.registry.merge_from(&child.registry);
        ctx.journal.merge_from(&child.journal);
    }
    results.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_obs::Registry;

    #[test]
    fn results_come_back_in_index_order() {
        let ctx = ExecCtx::default().with_jobs(4);
        let out = par_indexed(17, &ctx, |i, _| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_on_results_and_metrics() {
        let run = |jobs: usize| {
            let ctx = ExecCtx::default()
                .with_registry(Registry::new())
                .with_jobs(jobs);
            let out = par_indexed(9, &ctx, |i, child| {
                child.registry.counter("runner.test.calls").add(1);
                child.registry.histogram("runner.test.idx").record(i as f64);
                child.seed_for(7)
            });
            (out, ctx.registry.snapshot())
        };
        let (out1, snap1) = run(1);
        let (out4, snap4) = run(4);
        assert_eq!(out1, out4);
        assert_eq!(snap1.counters["runner.test.calls"], 9);
        assert_eq!(snap1.counters, snap4.counters);
        assert_eq!(
            format!("{:?}", snap1.histograms["runner.test.idx"]),
            format!("{:?}", snap4.histograms["runner.test.idx"]),
        );
    }

    #[test]
    fn child_seeds_differ_per_index() {
        let ctx = ExecCtx::default().with_seed(100).with_jobs(2);
        let seeds = par_indexed(4, &ctx, |_, child| child.seed_for(0));
        assert_eq!(seeds, vec![100, 101, 102, 103]);
    }

    #[test]
    fn single_point_fanout_merges_into_parent() {
        let reg = Registry::new();
        let ctx = ExecCtx::default().with_registry(reg.clone()).with_jobs(4);
        let out = par_indexed(1, &ctx, |i, child| {
            child.registry.counter("runner.test.single").add(3);
            (i, child.seed_for(5))
        });
        // The child derives index 0's seed (identity for base 0) and its
        // metrics merge into the parent registry.
        assert_eq!(out, vec![(0, 5)]);
        assert_eq!(reg.snapshot().counters["runner.test.single"], 3);
    }

    #[test]
    fn zero_and_one_sized_fanouts_work() {
        let ctx = ExecCtx::default().with_jobs(8);
        assert!(par_indexed(0, &ctx, |i, _| i).is_empty());
        assert_eq!(par_indexed(1, &ctx, |i, _| i + 40), vec![40]);
    }
}
