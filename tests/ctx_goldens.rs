//! Execution-context invariants: `ExecCtx::default()` reproduces the
//! pre-context pipeline bit-for-bit (golden values captured from the
//! serial, registry-twin implementation), `--jobs` changes wall-clock
//! only (reports, artifacts, and merged metrics are identical at any
//! parallelism), and `--seed` actually reaches the workload generators.

use prtr_bounds::exp::run_experiment;
use prtr_bounds::prelude::*;

fn curve<'a>(report: &'a serde_json::Value, label: &str) -> &'a serde_json::Value {
    report["curves"]
        .as_array()
        .unwrap()
        .iter()
        .find(|c| c["label"] == label)
        .unwrap()
}

/// Golden values for Figure 9(a), captured from the pre-`ExecCtx`
/// implementation: the default context must reproduce them exactly.
#[test]
fn default_ctx_reproduces_fig9a_goldens() {
    let r = run_experiment("fig9a", &ExecCtx::default()).unwrap();
    assert_eq!(
        r.json["peak_speedup_sim"].as_f64().unwrap(),
        6.800305039148967
    );
    assert_eq!(r.json["peak_x_task"].as_f64().unwrap(), 0.171463902384955);
}

/// Golden values for Figure 5 (pure model, no RNG): two curves spanning
/// the measured and estimated XD1 operating points.
#[test]
fn default_ctx_reproduces_fig5_goldens() {
    let r = run_experiment("fig5", &ExecCtx::default()).unwrap();
    let measured = curve(&r.json, "H=0, X_PRTR=0.012");
    assert_eq!(
        measured["peak_speedup"].as_f64().unwrap(),
        84.32785308239066
    );
    assert_eq!(
        measured["peak_x_task"].as_f64().unwrap(),
        0.011934236988687862
    );
    assert_eq!(
        measured["s_at_x_task_1"].as_f64().unwrap(),
        2.007717726439659
    );
    let half_hit = curve(&r.json, "H=0.5, X_PRTR=0.17");
    assert_eq!(
        half_hit["peak_speedup"].as_f64().unwrap(),
        11.707602339181284
    );
    assert_eq!(
        half_hit["s_at_x_task_10"].as_f64().unwrap(),
        1.1003851446400144
    );
}

/// Representative experiments must produce identical reports whether
/// the runner executes serially or across four worker threads.
#[test]
fn reports_are_identical_at_jobs_1_and_4() {
    for id in ["fig9a", "fig9b", "fig5", "ext-prefetch", "ext-multitask"] {
        let serial = run_experiment(id, &ExecCtx::default().with_jobs(1)).unwrap();
        let parallel = run_experiment(id, &ExecCtx::default().with_jobs(4)).unwrap();
        assert_eq!(serial.json, parallel.json, "{id} payload differs");
        assert_eq!(serial.body, parallel.body, "{id} body differs");
        assert_eq!(serial.title, parallel.title, "{id} title differs");
    }
}

/// The artifacts' bytes (report JSON + CSV series) must be identical
/// at any parallelism.
#[test]
fn artifacts_are_byte_identical_at_jobs_1_and_4() {
    let produce_all = |jobs: usize| {
        let ctx = ExecCtx::default().with_jobs(jobs);
        let mut blobs = Vec::new();
        for id in ["fig9a", "fig5"] {
            let exp = prtr_bounds::exp::experiment(id).unwrap();
            let point = prtr_bounds::exp::recover::produce(exp, &ctx, false).unwrap();
            blobs.extend(point.blobs.into_iter().map(|b| (b.name, b.bytes)));
        }
        blobs
    };
    let serial = produce_all(1);
    let parallel = produce_all(4);
    assert!(serial.iter().any(|(n, _)| n.ends_with(".csv")));
    assert!(serial.iter().any(|(n, _)| n.ends_with(".json")));
    assert_eq!(serial.len(), parallel.len());
    for ((name, a), (name4, b)) in serial.iter().zip(&parallel) {
        assert_eq!(name, name4);
        assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 4");
    }
}

/// The index-ordered registry merge must reproduce the serial
/// instrument state: the serialized snapshots (the `metrics.json`
/// bytes) agree whole.
#[test]
fn merged_metrics_are_identical_at_jobs_1_and_4() {
    let snapshot = |jobs: usize| {
        let ctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_jobs(jobs);
        run_experiment("fig9b", &ctx).unwrap();
        ctx.registry.snapshot()
    };
    let serial = snapshot(1);
    assert!(!serial.counters.is_empty());
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&snapshot(4)).unwrap()
    );
}

/// A non-zero base seed must reach the seed-dependent workload
/// generators (here, the Zipf/phased/uniform traces of `ext-prefetch`)
/// while leaving pure-model experiments untouched.
#[test]
fn base_seed_shifts_workload_streams() {
    let base = run_experiment("ext-prefetch", &ExecCtx::default()).unwrap();
    let reseeded = run_experiment("ext-prefetch", &ExecCtx::default().with_seed(1)).unwrap();
    assert_ne!(
        base.json, reseeded.json,
        "seed must perturb stochastic workloads"
    );
    let model_a = run_experiment("fig5", &ExecCtx::default()).unwrap();
    let model_b = run_experiment("fig5", &ExecCtx::default().with_seed(1)).unwrap();
    assert_eq!(model_a.json, model_b.json, "fig5 is seed-free");
}
