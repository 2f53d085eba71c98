//! Image pipeline: the paper's actual workload — median → smoothing →
//! Sobel over a stream of frames — as a hardware call sequence, replayed
//! on the simulated HPRC node to see what run-time reconfiguration costs
//! under FRTR vs PRTR.
//!
//! Run with: `cargo run --release --example image_pipeline`

use prtr_bounds::prelude::*;
use prtr_bounds::sched::cache::TaskId;
use prtr_bounds::sched::simulate::CallOutcome;

fn main() {
    // --- 1. The workload as a hardware task-call trace. -----------------
    // 12 frames of 512x512 pixels; each stage is one hardware function
    // call. 3 cores rotate through the 2 PRRs of the dual layout, so plain
    // demand caching always misses — the pathological case the paper's
    // experiment measures.
    let frames = 12usize;
    let (w, h) = (512usize, 512usize);
    let floorplan = Floorplan::xd1_dual_prr();
    let node = NodeConfig::xd1_measured(&floorplan);
    let trace: Vec<TaskId> = (0..frames * 3).map(|i| TaskId(i % 3)).collect();

    let mut lru = Lru::new();
    let ctx = ExecCtx::default();
    let outcome = simulate(&trace, node.n_prrs, &mut lru, false, &ctx);
    println!(
        "LRU over 2 PRRs on the 3-stage loop: H = {:.2} (thrashing, as expected)",
        outcome.hit_ratio()
    );
    let mut markov = Markov::new();
    let prefetched = simulate(&trace, node.n_prrs, &mut markov, true, &ctx);
    println!(
        "Markov prefetcher on the same trace:  H = {:.2}\n",
        prefetched.hit_ratio()
    );

    // --- 2. Execute both schedules on the node simulator. ---------------
    let bytes = (w * h) as u64; // one byte per pixel, in and out
    let to_calls = |outc: &prtr_bounds::sched::simulate::SimulationOutcome| -> Vec<PrtrCall> {
        trace
            .iter()
            .zip(&outc.outcomes)
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
            .collect()
    };

    let lru_calls = to_calls(&outcome);
    let markov_calls = to_calls(&prefetched);
    let frtr_calls: Vec<TaskCall> = lru_calls.iter().map(|c| c.task).collect();

    let frtr = run_frtr(&node, &frtr_calls, &ctx).unwrap();
    let prtr_lru = run_prtr(&node, &lru_calls, &ctx).unwrap();
    let prtr_markov = run_prtr(&node, &markov_calls, &ctx).unwrap();

    let t_task = frtr_calls[0].task_time_s(&node);
    println!(
        "Per-call task time: {:.2} ms (X_task = {:.4}); T_PRTR = {:.2} ms.",
        t_task * 1e3,
        t_task / node.t_frtr_s(),
        node.t_prtr_s() * 1e3
    );
    println!("{} hardware calls:", frtr_calls.len());
    println!(
        "  FRTR:                 {:>8.2} s   (reconfigures the whole FPGA {} times)",
        frtr.total_s(),
        frtr.n_config
    );
    println!(
        "  PRTR + LRU:           {:>8.2} s   ({}x vs FRTR, {} partial configs)",
        prtr_lru.total_s(),
        (frtr.total_s() / prtr_lru.total_s()).round(),
        prtr_lru.n_config
    );
    println!(
        "  PRTR + Markov:        {:>8.2} s   ({}x vs FRTR, {} partial configs)",
        prtr_markov.total_s(),
        (frtr.total_s() / prtr_markov.total_s()).round(),
        prtr_markov.n_config
    );
}
