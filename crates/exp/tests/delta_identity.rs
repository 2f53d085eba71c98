//! Property tests pinning the delta layer's whole-stack contract: with
//! a delta cache in the context — cold, warm, or thrashing under a tiny
//! byte bound — every artifact an experiment derives (execution
//! reports, the serialized metrics snapshot, the attribution report,
//! and the causal journal) is byte-identical to a from-scratch run,
//! over randomized adjacent-point sweeps for the clean, faulty, and
//! preemptive executors, at `--jobs` 1 and 4.
//!
//! Instrumented and quiet sweeps alike exercise the scheduler-skeleton
//! replay path (metrics and journal records are laid down longhand from
//! the replayed outcome), which must be invisible in the artifacts.

use hprc_ctx::ExecCtx;
use hprc_exp::experiments::ext_preempt::vision_pipeline;
use hprc_exp::runner::par_indexed;
use hprc_exp::scenario::{run_point_faulty, run_point_full, run_point_preemptive};
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_fpga::floorplan::Floorplan;
use hprc_obs::{DeltaCache, Journal, Registry};
use hprc_sched::policies::Markov;
use hprc_sched::preempt::Edf;
use hprc_sched::traces::TraceSpec;
use hprc_sim::node::NodeConfig;
use proptest::prelude::*;

fn node() -> NodeConfig {
    NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
}

fn spec(len: usize) -> TraceSpec {
    TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.0,
        len,
    }
}

/// Everything a sweep leaves behind, rendered to comparable bytes.
#[derive(PartialEq)]
struct Artifacts {
    reports: String,
    metrics: String,
    attr: String,
    journal: String,
}

impl std::fmt::Debug for Artifacts {
    // Summarize instead of dumping four multi-kilobyte strings when a
    // prop_assert_eq fails; the per-field asserts name the culprit.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Artifacts(reports={}B, metrics={}B, attr={}B, journal={}B)",
            self.reports.len(),
            self.metrics.len(),
            self.attr.len(),
            self.journal.len()
        )
    }
}

fn assert_identical(got: &Artifacts, want: &Artifacts, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.reports, &want.reports, "{}: reports diverged", what);
    prop_assert_eq!(&got.metrics, &want.metrics, "{}: metrics diverged", what);
    prop_assert_eq!(&got.attr, &want.attr, "{}: attr diverged", what);
    prop_assert_eq!(&got.journal, &want.journal, "{}: journal diverged", what);
    Ok(())
}

/// The serialized metrics snapshot, whole.
fn metrics(registry: &Registry) -> String {
    serde_json::to_string(&registry.snapshot()).expect("snapshot serializes")
}

fn instrumented_ctx(seed: u64, jobs: usize, delta: DeltaCache) -> ExecCtx {
    ExecCtx::default()
        .with_seed(seed)
        .with_jobs(jobs)
        .with_registry(Registry::new())
        .with_journal(Journal::new(seed))
        .with_delta(delta)
}

fn clean_sweep(
    seed: u64,
    len: usize,
    t_tasks: &[f64],
    jobs: usize,
    delta: DeltaCache,
) -> Artifacts {
    let n = node();
    let ctx = instrumented_ctx(seed, jobs, delta);
    let runs = par_indexed(t_tasks.len(), &ctx, |i, child| {
        let mut policy = Markov::new();
        run_point_full(&n, &spec(len), 1, &mut policy, false, t_tasks[i], child)
    });
    let attr: Vec<_> = runs
        .iter()
        .map(|r| hprc_attr::AttributionReport::new("delta-prop", &r.params, &r.frtr, &r.prtr))
        .collect();
    Artifacts {
        reports: format!(
            "{:?}",
            runs.iter()
                .map(|r| (&r.point, &r.frtr, &r.prtr))
                .collect::<Vec<_>>()
        ),
        metrics: metrics(&ctx.registry),
        attr: serde_json::to_string(&attr).unwrap(),
        journal: ctx.journal.to_jsonl("delta-prop", seed),
    }
}

fn faulty_sweep(seed: u64, len: usize, rates: &[f64], jobs: usize, delta: DeltaCache) -> Artifacts {
    let n = node();
    let ctx = instrumented_ctx(seed, jobs, delta);
    let t_task = n.t_prtr_s() * 4.0;
    let runs = par_indexed(rates.len(), &ctx, |i, child| {
        let mut policy = Markov::new();
        // Same trace seed and plan seed at every rate: the draws stay
        // coupled, which is exactly the regime the skeleton resume
        // path targets.
        let plan = FaultPlan::new(
            FaultSpec::uniform(rates[i]),
            RecoveryPolicy::default(),
            seed ^ 0x5eed,
        );
        run_point_faulty(
            &n,
            &spec(len),
            seed,
            &mut policy,
            false,
            t_task,
            &plan,
            child,
        )
    });
    let attr: Vec<_> = runs
        .iter()
        .map(|r| hprc_attr::AttributionReport::new("delta-prop", &r.params, &r.frtr, &r.prtr))
        .collect();
    Artifacts {
        reports: format!(
            "{:?}",
            runs.iter()
                .map(|r| (&r.point, &r.frtr, &r.prtr, &r.sched))
                .collect::<Vec<_>>()
        ),
        metrics: metrics(&ctx.registry),
        attr: serde_json::to_string(&attr).unwrap(),
        journal: ctx.journal.to_jsonl("delta-prop", seed),
    }
}

fn preempt_sweep(
    seed: u64,
    tightness: f64,
    quanta: &[f64],
    jobs: usize,
    delta: DeltaCache,
) -> Artifacts {
    let n = node();
    let tasks = vision_pipeline(&n, tightness);
    let ctx = instrumented_ctx(seed, jobs, delta);
    let runs = par_indexed(quanta.len(), &ctx, |i, child| {
        let mut policy = Edf::new();
        run_point_preemptive(&n, &tasks, 1, &mut policy, quanta[i], child)
    });
    Artifacts {
        reports: format!(
            "{:?}",
            runs.iter()
                .map(|r| (&r.outcome, &r.report))
                .collect::<Vec<_>>()
        ),
        metrics: metrics(&ctx.registry),
        attr: String::new(),
        journal: ctx.journal.to_jsonl("delta-prop", seed),
    }
}

/// Runs `sweep` from scratch (disabled cache, jobs 1), then cold and
/// warm against one shared cache at jobs 1 and 4, asserting artifact
/// byte-identity throughout and that the warm passes actually reused
/// memoized work.
fn check_sweep(
    sweep: impl Fn(usize, DeltaCache) -> Artifacts,
    expect_reuse: bool,
) -> Result<(), TestCaseError> {
    let scratch = sweep(1, DeltaCache::disabled());
    for jobs in [1usize, 4] {
        let cache = DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES);
        let cold = sweep(jobs, cache.clone());
        assert_identical(&cold, &scratch, &format!("cold, jobs {jobs}"))?;
        let warm = sweep(jobs, cache.clone());
        assert_identical(&warm, &scratch, &format!("warm, jobs {jobs}"))?;
        if expect_reuse {
            let acct = cache.account().expect("cache is enabled");
            prop_assert!(
                acct.full_hits > 0,
                "warm pass at jobs {} reused nothing: {:?}",
                jobs,
                acct
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn clean_sweep_delta_is_invisible_in_artifacts(
        seed in 0u64..1000,
        len in 40usize..90,
        f0 in 0.6f64..1.4,
        step in 0.01f64..0.06,
    ) {
        let n = node();
        let t_tasks: Vec<f64> = (0..3).map(|i| (f0 + i as f64 * step) * n.t_prtr_s()).collect();
        check_sweep(|jobs, delta| clean_sweep(seed, len, &t_tasks, jobs, delta), true)?;
    }

    #[test]
    fn faulty_sweep_delta_is_invisible_in_artifacts(
        seed in 0u64..1000,
        len in 40usize..90,
        r0 in 0.05f64..0.2,
        step in 0.002f64..0.01,
    ) {
        let rates: Vec<f64> = (0..3).map(|i| r0 + i as f64 * step).collect();
        check_sweep(|jobs, delta| faulty_sweep(seed, len, &rates, jobs, delta), true)?;
    }

    #[test]
    fn preemptive_sweep_delta_is_invisible_in_artifacts(
        seed in 0u64..1000,
        tightness in 1.05f64..1.4,
        eps in 0.01f64..0.05,
    ) {
        let n = node();
        let quanta: Vec<f64> = (0..3).map(|i| (1.0 + i as f64 * eps) * n.t_prtr_s()).collect();
        // The scheduler has no preemptive skeleton path, so the sweep
        // reuses nothing — identity must hold regardless.
        check_sweep(
            |jobs, delta| preempt_sweep(seed, tightness, &quanta, jobs, delta),
            false,
        )?;
    }

    #[test]
    fn thrashing_cache_stays_invisible_in_artifacts(
        seed in 0u64..1000,
        len in 40usize..90,
        f0 in 0.6f64..1.4,
    ) {
        // A cache too small to hold the working set evicts constantly;
        // eviction must only ever cost time, never change artifacts.
        let n = node();
        let t_tasks: Vec<f64> = (0..4).map(|i| (f0 + i as f64 * 0.03) * n.t_prtr_s()).collect();
        let scratch = clean_sweep(seed, len, &t_tasks, 1, DeltaCache::disabled());
        let tiny = DeltaCache::new(2048);
        for pass in 0..2 {
            let got = clean_sweep(seed, len, &t_tasks, 1, tiny.clone());
            assert_identical(&got, &scratch, &format!("tiny cache, pass {pass}"))?;
        }
    }
}

/// Quiet runs (no registry, no journal) replay scheduler skeletons
/// too; the reports must be byte-equal to from-scratch execution at
/// jobs 1 and 4, and each point costs exactly one skeleton lookup.
#[test]
fn quiet_skeleton_replays_identically() {
    let n = node();
    let t_tasks: Vec<f64> = (0..3)
        .map(|i| (0.8 + i as f64 * 0.05) * n.t_prtr_s())
        .collect();
    let run = |jobs: usize, delta: DeltaCache| {
        let ctx = ExecCtx::default()
            .with_seed(7)
            .with_jobs(jobs)
            .with_delta(delta);
        par_indexed(t_tasks.len(), &ctx, |i, child| {
            let mut policy = Markov::new();
            run_point_full(&n, &spec(80), 1, &mut policy, false, t_tasks[i], child)
        })
        .into_iter()
        .map(|r| (r.point, r.frtr, r.prtr))
        .collect::<Vec<_>>()
    };
    let scratch = run(1, DeltaCache::disabled());
    for jobs in [1usize, 4] {
        let cache = DeltaCache::new(hprc_obs::DEFAULT_DELTA_BYTES);
        assert_eq!(run(jobs, cache.clone()), scratch, "cold, jobs {jobs}");
        assert_eq!(run(jobs, cache.clone()), scratch, "warm, jobs {jobs}");
        let acct = cache.account().expect("cache is enabled");
        assert_eq!(acct.lookups, 2 * t_tasks.len() as u64, "{acct:?}");
        assert!(
            acct.full_hits > 0,
            "quiet warm pass should replay skeletons: {acct:?}"
        );
    }
}
