//! E11 — Allocation and defragmentation: variable-width modules churning
//! through a reconfigurable window fragment it until allocations fail;
//! relocation-based compaction (the subject of the paper's reference
//! \[24\]) restores placeability at a measurable reconfiguration cost.

use hprc_ctx::ExecCtx;
use hprc_fpga::allocator::WindowAllocator;
use hprc_fpga::device::{ColumnKind, Device};
use hprc_sim::icap::IcapPath;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Step {
    op: String,
    free_columns: usize,
    largest_run: usize,
    fragmentation: f64,
}

#[derive(Serialize)]
struct Payload {
    steps: Vec<Step>,
    blocked_width: usize,
    defrag_moves: usize,
    defrag_bytes: u64,
    defrag_time_ms: f64,
    allocation_after_defrag: bool,
}

/// The rightmost run of 13 uniform CLB columns on the XC2VP50.
fn uniform_window(device: &Device) -> std::ops::Range<usize> {
    let ncols = device.columns.len();
    let win = (ncols - 15)..(ncols - 2);
    debug_assert!(win
        .clone()
        .all(|i| matches!(device.columns[i].kind, ColumnKind::Clb { .. })));
    win
}

/// Runs a deterministic churn scenario: allocate a/b/c/d, free a and c,
/// attempt a wide module (fails), defragment, retry (succeeds).
pub fn run(ctx: &ExecCtx) -> Report {
    let _span = ctx.registry.span("exp.ext_defrag");
    let device = Device::xc2vp50();
    let mut alloc = WindowAllocator::new(&device, uniform_window(&device)).unwrap();
    let mut steps = Vec::new();
    let record = |alloc: &WindowAllocator, op: &str| Step {
        op: op.into(),
        free_columns: alloc.free_columns(),
        largest_run: alloc.largest_free_run(),
        fragmentation: alloc.external_fragmentation(),
    };

    for (name, width) in [
        ("sobel", 3usize),
        ("smoothing", 3),
        ("median", 4),
        ("threshold", 2),
    ] {
        alloc.allocate(name, width).unwrap();
        steps.push(record(&alloc, &format!("alloc {name} ({width} cols)")));
    }
    alloc.free("sobel").unwrap();
    steps.push(record(&alloc, "free sobel"));
    alloc.free("median").unwrap();
    steps.push(record(&alloc, "free median"));

    // 7 free columns, but split 3 + 4 — a 6-wide module cannot place.
    let blocked_width = 6;
    let blocked = alloc.allocate("median5x5", blocked_width).is_err();
    steps.push(record(
        &alloc,
        &format!(
            "alloc median5x5 ({blocked_width} cols) -> {}",
            if blocked { "BLOCKED" } else { "ok" }
        ),
    ));

    let plan = alloc.defragment();
    steps.push(record(
        &alloc,
        &format!("defragment ({} moves)", plan.moves.len()),
    ));
    let after = alloc.allocate("median5x5", blocked_width).is_ok();
    steps.push(record(&alloc, "alloc median5x5 retry"));

    let defrag_time_ms = IcapPath::xd1().transfer_time_s(plan.bytes_moved) * 1e3;

    let mut t = TextTable::new(vec![
        "operation",
        "free cols",
        "largest run",
        "fragmentation",
    ])
    .align(vec![Align::Left, Align::Right, Align::Right, Align::Right]);
    for s in &steps {
        t.row(vec![
            s.op.clone(),
            format!("{}", s.free_columns),
            format!("{}", s.largest_run),
            format!("{:.2}", s.fragmentation),
        ]);
    }

    let body = format!(
        "{}\nDefragmentation plan: {} relocation move(s), {} bitstream bytes\n\
         rewritten = {defrag_time_ms:.2} ms through the measured ICAP path —\n\
         the price of un-blocking a {blocked_width}-column module that pure\n\
         first-fit could not place despite sufficient total free space.\n",
        t.render(),
        plan.moves.len(),
        plan.bytes_moved,
    );

    Report::new(
        "ext-defrag",
        "E11 — Region allocation and defragmentation",
        body,
        &Payload {
            steps,
            blocked_width,
            defrag_moves: plan.moves.len(),
            defrag_bytes: plan.bytes_moved,
            defrag_time_ms,
            allocation_after_defrag: after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defrag_unblocks_the_wide_module() {
        let r = run(&ExecCtx::default());
        assert!(r.json["allocation_after_defrag"].as_bool().unwrap());
        assert!(r.json["defrag_moves"].as_u64().unwrap() >= 1);
        assert!(r.json["defrag_time_ms"].as_f64().unwrap() > 0.0);
        assert!(r.body.contains("BLOCKED"));
    }
}
