//! Observability: run an instrumented Figure 9 operating point and read
//! back what the node *measured* — cache hits, configuration-port
//! utilization, per-lane busy time, call-latency percentiles — from the
//! `hprc-obs` registry, then dump the snapshot as JSON.
//!
//! Run with: `cargo run --release --example observability`

use prtr_bounds::obs::Registry;
use prtr_bounds::prelude::*;
use prtr_bounds::sched::policies::Lru;
use prtr_bounds::sched::traces::TraceSpec;

fn main() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let registry = Registry::new();

    // A cache-friendly workload: two cores cycling over two PRRs under
    // LRU — after warmup every call hits, so PRTR runs config-free.
    let spec = TraceSpec::Looping {
        stages: 2,
        n_tasks: 2,
        noise: 0.0,
        len: 200,
    };
    let mut lru = Lru::new();
    let ctx = ExecCtx::default().with_registry(registry.clone());
    let (point, timeline) = prtr_bounds::exp::scenario::run_point(
        &node,
        &spec,
        7,
        &mut lru,
        false,
        node.t_prtr_s(),
        &ctx,
    );

    println!(
        "Sweep point: X_task = {:.4}, speedup {:.1}x (model {:.1}x)\n",
        point.x_task, point.speedup_sim, point.speedup_model
    );

    let snap = registry.snapshot();
    println!("Measured by the instrumented substrates:");
    println!(
        "  cache calls / hits:     {} / {}",
        snap.counters["sched.lru.calls"], snap.counters["sched.lru.hits"]
    );
    println!(
        "  measured H:             {:.3}",
        snap.gauges["exp.measured_hit_ratio"]
    );
    println!(
        "  partial configs:        {}",
        snap.counters["sim.prtr.partial_configs"]
    );
    println!(
        "  ICAP bytes moved:       {}",
        snap.counters["sim.icap.bytes"]
    );
    println!(
        "  config-port util:       {:.1}%",
        snap.gauges["sim.prtr.config_port.utilization"] * 100.0
    );
    let lat = &snap.histograms["sim.prtr.call_latency_s"];
    println!(
        "  call latency p50/p99:   {:.3} ms / {:.3} ms",
        lat.p50 * 1e3,
        lat.p99 * 1e3
    );

    // The PRTR timeline doubles as a Chrome trace (Perfetto-loadable).
    let events = timeline.chrome_events(1);
    println!(
        "\nChrome trace events: {} (write these as a JSON array,",
        events.len()
    );
    println!("or use `hprc-exp --trace DIR fig9b` for a ready-made file).\n");

    println!("Full snapshot as JSON:");
    println!(
        "{}",
        serde_json::to_string_pretty(&snap).expect("snapshot serializes")
    );
}
