//! Self-test: every workload through the library API at smoke size, and
//! the oracles on a deliberately corrupted report.

use std::time::Instant;

use hprc_ctx::ExecCtx;
use hprc_exp::scenario::run_point_full;
use hprc_fpga::floorplan::Floorplan;
use hprc_perfbench::layers::BUSY;
use hprc_perfbench::oracle::{self, Tally};
use hprc_perfbench::{run, Length, RunConfig, RunReport, Workload};
use hprc_sched::policies::AlwaysMiss;
use hprc_sched::TraceSpec;
use hprc_sim::node::NodeConfig;
use hprc_sim::time::SimDuration;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn smoke(workload: Workload, trace: bool) -> RunReport {
    let scratch = std::env::temp_dir().join(format!(
        "hprc-bench-smoke-{}-{}-{}",
        workload.name(),
        u8::from(trace),
        std::process::id()
    ));
    let cfg = RunConfig {
        workload,
        seed: 0,
        length: Length::Smoke,
        trace,
        scratch,
    };
    run(&cfg, Instant::now()).expect("smoke run")
}

#[test]
fn every_workload_emits_every_benchmark_metric_and_passes_its_checks() {
    let bench = benchmark_json();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = smoke(workload, trace);
            let what = format!("{} trace={trace}", workload.name());
            assert!(
                r.correct(),
                "{what}: {} of {} ops failed",
                r.failed,
                r.attempted
            );
            assert!(r.attempted > 0, "{what}");
            assert_eq!(r.get("error_rate"), Some(0.0), "{what}");

            let key = if trace { "per_layer" } else { "end_to_end" };
            let listed = bench[key].as_array().expect("metric list");
            assert_eq!(r.metrics.len(), listed.len(), "{what}: metric count");
            for m in listed {
                let name = m["name"].as_str().unwrap();
                let got = r.metrics.iter().find(|x| x.name == name);
                let got = got.unwrap_or_else(|| panic!("{what}: {name} not emitted"));
                assert_eq!(got.unit, m["unit"].as_str().unwrap(), "{what}: {name} unit");
                assert!(got.value.is_finite(), "{what}: {name} = {}", got.value);
            }

            let line: Value = serde_json::from_str(&r.result_line()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            let record = serde_json::from_str(&r.to_json().to_string()).unwrap();
            assert_eq!(
                RunReport::from_json(&record).unwrap(),
                r,
                "{what}: JSON round trip"
            );

            if trace {
                let busy: f64 = BUSY.iter().map(|n| r.get(n).unwrap()).sum();
                let unattributed = r.get("bench.unattributed_ms").unwrap();
                let wall = r.get("bench.traced_wall_ms").unwrap();
                assert!(wall > 0.0, "{what}");
                assert!(
                    (busy + unattributed - wall).abs() <= 1e-9 * wall.max(1.0),
                    "{what}: layers {busy} + unattributed {unattributed} != wall {wall}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_report_counts_as_a_failed_op() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let spec = TraceSpec::Looping {
        stages: 3,
        n_tasks: 3,
        noise: 0.0,
        len: 300,
    };
    let ctx = ExecCtx::default();
    let mut run = run_point_full(
        &node,
        &spec,
        1,
        &mut AlwaysMiss::new(),
        false,
        node.t_prtr_s(),
        &ctx,
    );
    let mut tally = Tally::default();
    let check = |run: &hprc_exp::scenario::PointRun| {
        oracle::check_point(&run.point, &run.frtr, &run.prtr, &run.params, true)
    };
    tally.record(check(&run));
    assert_eq!(
        (tally.attempted, tally.failed),
        (1, 0),
        "{:?}",
        tally.errors
    );

    // A PRTR report whose total no longer matches the point's speedup.
    let honest = run.prtr.clone();
    run.prtr.total = SimDuration(run.prtr.total.0 / 2);
    tally.record(check(&run));
    // A fast-path report that disagrees with its reference.
    tally.record(oracle::equivalent("PRTR", &run.prtr, &honest));
    tally.record(oracle::equivalent("PRTR", &honest, &honest));
    assert_eq!(
        (tally.attempted, tally.failed),
        (4, 2),
        "{:?}",
        tally.errors
    );
}
