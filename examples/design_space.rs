//! Design-space exploration: use the FPGA substrate end to end — check
//! that a core fits a PRR (placement), compare bitstream flows, and pick
//! a PRR granularity for a target workload — the workflow a Cray XD1
//! user would follow before committing to a partial-reconfiguration
//! design.
//!
//! Run with: `cargo run --release --example design_space`

use prtr_bounds::fpga::bitstream::{difference_based_inventory, module_based_inventory};
use prtr_bounds::fpga::placement::place_in_prr;
use prtr_bounds::prelude::*;

fn main() {
    // --- 1. Place Table 1's median core in each layout's first PRR. -----
    let library = ModuleLibrary::paper_table1();
    let candidate = library.get("Median Filter").expect("Table 1 row");
    println!(
        "Table 1 median core: {} LUTs, {} FFs, {} BRAM",
        candidate.resources.luts, candidate.resources.ffs, candidate.resources.brams
    );
    for (layout_name, fp) in [
        ("single-PRR", Floorplan::xd1_single_prr()),
        ("dual-PRR", Floorplan::xd1_dual_prr()),
        ("quad-PRR", Floorplan::xd1_quad_prr()),
    ] {
        match place_in_prr(&fp, 0, candidate, 200.0) {
            Ok(p) => println!(
                "  {layout_name:<10} -> fits PRR0 at {:.0}% LUT utilization",
                p.utilization.luts * 100.0
            ),
            Err(e) => println!("  {layout_name:<10} -> {e}"),
        }
    }

    // --- 2. Bitstream flow choice for a 5-core library. ------------------
    let fp = Floorplan::xd1_dual_prr();
    let cols = fp.prrs[0].region.column_indices();
    let seeds: Vec<u64> = (0..5).collect();
    let mb = module_based_inventory(&fp.device, &cols, &seeds).unwrap();
    let db = difference_based_inventory(&fp.device, &cols, &seeds).unwrap();
    println!(
        "\n5-core library, one dual-layout PRR:\n  module-based:     {} bitstreams, {:.1} MB total\n  difference-based: {} bitstreams, {:.1} MB total",
        mb.bitstream_count,
        mb.total_bytes as f64 / 1e6,
        db.bitstream_count,
        db.total_bytes as f64 / 1e6
    );

    // --- 3. Pick a granularity for a target task time. -------------------
    // Suppose the workload's tasks take ~12 ms. The paper's rule: choose
    // partitions so X_PRTR = X_task.
    let t_task = 0.012;
    println!(
        "\nGranularity choice for T_task = {:.0} ms tasks:",
        t_task * 1e3
    );
    println!(
        "{:<12} {:>12} {:>10} {:>12}",
        "layout", "T_PRTR (ms)", "X_PRTR", "S_inf @ task"
    );
    for (name, fp) in [
        ("single-PRR", Floorplan::xd1_single_prr()),
        ("dual-PRR", Floorplan::xd1_dual_prr()),
        ("quad-PRR", Floorplan::xd1_quad_prr()),
    ] {
        let node = NodeConfig::xd1_measured(&fp);
        let params = ModelParams::experimental(
            t_task / node.t_frtr_s(),
            node.x_prtr(),
            node.control_overhead_s / node.t_frtr_s(),
            1,
        );
        println!(
            "{name:<12} {:>12.2} {:>10.4} {:>12.1}",
            node.t_prtr_s() * 1e3,
            node.x_prtr(),
            asymptotic_speedup(&params)
        );
    }
    println!(
        "\nReading: the layout whose T_PRTR is closest below T_task wins —\n\
         \"the partitions (PRRs) must be so fine grained to match the task\n\
         time requirements\" (paper, section 5)."
    );
}
