//! Determinism: every stochastic-looking component of the reproduction is
//! seeded and replayable — the property that makes EXPERIMENTS.md's
//! numbers exact rather than approximate.

use prtr_bounds::prelude::*;
use prtr_bounds::sched::policies::RandomPolicy;
use prtr_bounds::virt::runtime::{run as run_virt, RuntimeConfig};

#[test]
fn experiments_are_bit_identical_across_runs() {
    // A representative subset (the full set runs in the harness tests).
    for id in ["table2", "fig5", "ext-decision", "ext-flows", "ext-hybrid"] {
        let a = prtr_bounds::exp::run_experiment(id, &ExecCtx::default()).unwrap();
        let b = prtr_bounds::exp::run_experiment(id, &ExecCtx::default()).unwrap();
        assert_eq!(a.json, b.json, "{id} differs across runs");
        assert_eq!(a.body, b.body, "{id} body differs across runs");
    }
}

#[test]
fn simulator_is_replayable() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let calls: Vec<PrtrCall> = (0..50)
        .map(|i| PrtrCall {
            task: TaskCall::with_task_time("Sobel Filter", &node, 0.01),
            hit: i % 3 == 0,
            slot: i % 2,
        })
        .collect();
    let a = run_prtr(&node, &calls, &ExecCtx::default()).unwrap();
    let b = run_prtr(&node, &calls, &ExecCtx::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn seeded_randomness_is_replayable_everywhere() {
    // Traces.
    let spec = TraceSpec::Zipf {
        n_tasks: 6,
        alpha: 1.3,
        len: 500,
    };
    assert_eq!(spec.generate(99), spec.generate(99));
    // Random replacement policy.
    let trace = spec.generate(7);
    let a = simulate(
        &trace,
        2,
        &mut RandomPolicy::new(5),
        false,
        &ExecCtx::default(),
    );
    let b = simulate(
        &trace,
        2,
        &mut RandomPolicy::new(5),
        false,
        &ExecCtx::default(),
    );
    assert_eq!(a, b);
}

#[test]
fn virtualization_runtime_is_replayable() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_quad_prr());
    let apps = vec![
        App::cycling(0, "a", &["Median Filter", "Sobel Filter"], 25, 0.003, 0.0),
        App::cycling(1, "b", &["Smoothing Filter"], 25, 0.003, 0.01),
    ];
    for cfg in [
        RuntimeConfig::frtr(),
        RuntimeConfig::prtr_demand(),
        RuntimeConfig::prtr_overlapped(),
    ] {
        let a = run_virt(&node, &apps, &cfg, &ExecCtx::default()).unwrap();
        let b = run_virt(&node, &apps, &cfg, &ExecCtx::default()).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn bitstream_generation_is_replayable() {
    use prtr_bounds::fpga::compress::compress;
    use prtr_bounds::fpga::frames::ConfigMemory;

    let fp = Floorplan::xd1_dual_prr();
    let cols = fp.prrs[0].region.column_indices();
    let build = || {
        let mut m = ConfigMemory::blank(&fp.device);
        m.fill_region_pattern(&cols, 1234).unwrap();
        Bitstream::partial_module_based(&fp.device, &m, &cols).unwrap()
    };
    let a = build();
    let b = build();
    assert_eq!(a, b);
    assert_eq!(compress(&a), compress(&b));
}
