//! End-to-end integration: the call trace flows through the caching
//! substrate, the schedule executes on the node simulator, and the
//! measured totals agree with the analytical model — the FPGA, scheduling,
//! simulation and model crates in one path.

use prtr_bounds::prelude::*;
use prtr_bounds::sched::cache::TaskId;
use prtr_bounds::sched::simulate::CallOutcome;

/// Full-stack run: a median → smoothing → Sobel pipeline over 128×128
/// one-byte-per-pixel frames, from call trace to measured speedup.
#[test]
fn pipeline_to_speedup() {
    // 1. Scheduling layer: the pipeline's call trace through 2 PRRs.
    let iterations = 50;
    let trace: Vec<TaskId> = (0..iterations * 3).map(|i| TaskId(i % 3)).collect();
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let mut policy = AlwaysMiss::new();
    let outcome = simulate(&trace, node.n_prrs, &mut policy, false, &ExecCtx::default());
    assert_eq!(outcome.hit_ratio(), 0.0);

    // 2. Execution layer: replay on the simulator.
    let bytes = 128 * 128;
    let calls: Vec<PrtrCall> = trace
        .iter()
        .zip(&outcome.outcomes)
        .map(|(&t, o)| {
            let (hit, slot) = match *o {
                CallOutcome::Hit { slot } => (true, slot),
                CallOutcome::Miss { slot, .. } => (false, slot),
            };
            let name = ["Median Filter", "Smoothing Filter", "Sobel Filter"][t.0];
            PrtrCall {
                task: TaskCall::symmetric(name, bytes),
                hit,
                slot,
            }
        })
        .collect();
    let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
    let frtr = run_frtr(&node, &frtr_calls, &ExecCtx::default()).unwrap();
    let prtr = run_prtr(&node, &calls, &ExecCtx::default()).unwrap();
    let s_sim = frtr.total_s() / prtr.total_s();

    // 3. Model layer: equation (6) at the same parameters.
    let t_task = frtr_calls[0].task_time_s(&node);
    let params = ModelParams::new(
        NormalizedTimes {
            x_task: t_task / node.t_frtr_s(),
            x_control: node.control_overhead_s / node.t_frtr_s(),
            x_decision: 0.0,
            x_prtr: node.x_prtr(),
        },
        0.0,
        trace.len() as u64,
    )
    .unwrap();
    let s_model = speedup(&params);
    let rel = (s_sim - s_model).abs() / s_model;
    assert!(rel < 0.02, "sim {s_sim} vs model {s_model} (rel {rel})");
    // Tiny tasks on the measured node: PRTR wins enormously.
    assert!(s_sim > 50.0, "speedup = {s_sim}");
}

/// Prefetching closes the gap the paper predicted it would: same
/// workload, Markov prefetcher, strictly faster than always-miss, and the
/// model evaluated at the *measured* H still agrees.
#[test]
fn prefetching_end_to_end() {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let trace: Vec<TaskId> = (0..600).map(|i| TaskId(i % 3)).collect();
    let t_task = 0.25 * node.t_prtr_s();

    let run_with = |policy: &mut dyn prtr_bounds::sched::Policy, prefetch: bool| {
        let outcome = simulate(&trace, node.n_prrs, policy, prefetch, &ExecCtx::default());
        let calls: Vec<PrtrCall> = trace
            .iter()
            .zip(&outcome.outcomes)
            .map(|(&t, o)| {
                let (hit, slot) = match *o {
                    CallOutcome::Hit { slot } => (true, slot),
                    CallOutcome::Miss { slot, .. } => (false, slot),
                };
                PrtrCall {
                    task: TaskCall::with_task_time(
                        ["Median Filter", "Smoothing Filter", "Sobel Filter"][t.0],
                        &node,
                        t_task,
                    ),
                    hit,
                    slot,
                }
            })
            .collect();
        let total = run_prtr(&node, &calls, &ExecCtx::default())
            .unwrap()
            .total_s();
        (outcome.hit_ratio(), total)
    };

    let (h_base, t_base) = run_with(&mut AlwaysMiss::new(), false);
    let (h_pf, t_pf) = run_with(&mut Markov::new(), true);
    assert_eq!(h_base, 0.0);
    assert!(h_pf > 0.9, "Markov H = {h_pf}");
    assert!(t_pf < 0.5 * t_base, "prefetch {t_pf} vs baseline {t_base}");
}

/// The FPGA substrate and the simulator agree on configuration costs:
/// the time the executor charges per partial configuration equals the
/// ICAP path's transfer time for the floorplan's bitstream, which itself
/// derives from frame geometry.
#[test]
fn configuration_costs_trace_to_frames() {
    let fp = Floorplan::xd1_dual_prr();
    let node = NodeConfig::xd1_measured(&fp);
    let prr = &fp.prrs[0];
    let frames = prr.region.frames(&fp.device).unwrap() as u64;
    let bytes = frames * fp.device.frame_bytes as u64 + fp.device.partial_overhead_bytes as u64;
    assert_eq!(bytes, node.prr_bitstream_bytes);
    // Executor-visible T_PRTR is exactly the ICAP time for those bytes.
    let calls = vec![PrtrCall {
        task: TaskCall::symmetric("Sobel Filter", 1024),
        hit: false,
        slot: 0,
    }];
    let report = run_prtr(&node, &calls, &ExecCtx::default()).unwrap();
    let timing = &report.calls[0];
    let cfg = (timing.config_end.unwrap() - timing.config_start.unwrap()).as_secs_f64();
    assert!((cfg - node.icap.transfer_time_s(bytes)).abs() < 1e-9);
}

/// A partial bitstream generated for one module actually reconfigures the
/// region (frame-level), and the sizes used in timing are the generated
/// sizes — configuration *data* and configuration *time* are one story.
#[test]
fn bitstream_generation_matches_timing_inputs() {
    use prtr_bounds::fpga::frames::ConfigMemory;

    let fp = Floorplan::xd1_dual_prr();
    let cols = fp.prrs[0].region.column_indices();
    let mut mem = ConfigMemory::blank(&fp.device);
    mem.fill_region_pattern(&cols, 0xC0FE).unwrap();
    let bs = Bitstream::partial_module_based(&fp.device, &mem, &cols).unwrap();
    assert_eq!(
        bs.size_bytes(),
        NodeConfig::xd1_measured(&fp).prr_bitstream_bytes
    );
    let mut target = ConfigMemory::blank(&fp.device);
    let toggled = bs.apply(&mut target).unwrap();
    assert!(toggled > 0);
    assert!(target.diff_in_columns(&mem, &cols).unwrap().is_empty());
}
