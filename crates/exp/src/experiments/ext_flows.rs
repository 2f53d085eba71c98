//! E3 — Design flows: module-based vs difference-based partial bitstream
//! inventories (section 2.2's `n` vs `n(n-1)` observation), plus the
//! paper's warning that "the current design cycle for PRTR increases
//! exponentially with the number of implemented tasks and PRRs".

use hprc_fpga::bitstream::Bitstream;
use hprc_fpga::device::Device;
use hprc_fpga::floorplan::Floorplan;
use hprc_fpga::frames::ConfigMemory;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    n_modules: usize,
    module_count: usize,
    module_total_mb: f64,
    difference_count: usize,
    difference_total_mb: f64,
    implementation_runs_dual_prr: usize,
}

/// Runs the inventory comparison for 2..=8 modules over one dual-layout
/// PRR.
pub fn run() -> Report {
    let device = Device::xc2vp50();
    let fp = Floorplan::xd1_dual_prr();
    let columns = fp.prrs[0].region.column_indices();

    // The n = 2..=8 sweeps all draw from the same seed prefix, so the
    // eight module configurations and the symmetric pair-size matrix
    // are computed once; each row then reduces over its prefix.
    // Module-based sizes are content-independent, and diff sizes need
    // no frame payloads (`Bitstream::partial_difference_size`).
    const N_MAX: usize = 8;
    let configs: Vec<ConfigMemory> = (0..N_MAX as u64)
        .map(|seed| {
            let mut mem = ConfigMemory::blank(&device);
            mem.fill_region_pattern(&columns, seed).unwrap();
            mem
        })
        .collect();
    let module_size = device.partial_bitstream_bytes(&columns).unwrap();
    let mut pair_size = [[0u64; N_MAX]; N_MAX];
    for i in 0..N_MAX {
        for j in (i + 1)..N_MAX {
            let s = Bitstream::partial_difference_size(&device, &configs[i], &configs[j], &columns)
                .unwrap();
            pair_size[i][j] = s;
            pair_size[j][i] = s;
        }
    }

    let mut rows = Vec::new();
    for n in 2..=N_MAX {
        let difference_total: u64 = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| pair_size[i][j])
            .sum();
        rows.push(Row {
            n_modules: n,
            module_count: n,
            module_total_mb: (n as u64 * module_size) as f64 / 1e6,
            difference_count: n * (n - 1),
            difference_total_mb: difference_total as f64 / 1e6,
            // "All permutations among the tasks across all PRRs must be
            // implemented": with 2 PRRs, n modules need n x 2 PR
            // implementation runs in the module-based flow.
            implementation_runs_dual_prr: n * fp.prrs.len(),
        });
    }

    let mut t = TextTable::new(vec![
        "n modules",
        "module-based count",
        "MB",
        "diff-based count",
        "MB",
        "impl runs (2 PRRs)",
    ])
    .align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            format!("{}", r.n_modules),
            format!("{}", r.module_count),
            format!("{:.1}", r.module_total_mb),
            format!("{}", r.difference_count),
            format!("{:.1}", r.difference_total_mb),
            format!("{}", r.implementation_runs_dual_prr),
        ]);
    }

    let body = format!(
        "{}\nModule-based: n bitstreams, all exactly {} bytes (every frame of\n\
         the PRR). Difference-based: n(n-1) ordered-pair bitstreams whose\n\
         sizes track how much two configurations differ (distinct cores\n\
         differ in nearly every frame, so sizes approach the module-based\n\
         ceiling while the count grows quadratically).\n",
        t.render(),
        fp.prrs[0]
            .region
            .partial_bitstream_bytes(&fp.device)
            .unwrap(),
    );

    Report::new(
        "ext-flows",
        "E3 — Module-based vs difference-based bitstream inventories",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_n_and_n_squared() {
        let r = run();
        let rows = r.json.as_array().unwrap();
        for row in rows {
            let n = row["n_modules"].as_u64().unwrap() as usize;
            assert_eq!(row["module_count"].as_u64().unwrap() as usize, n);
            assert_eq!(
                row["difference_count"].as_u64().unwrap() as usize,
                n * (n - 1)
            );
        }
    }

    #[test]
    fn rows_match_the_inventory_api() {
        // The precomputed prefix reduction must agree with building each
        // n's inventories independently.
        use hprc_fpga::bitstream::{difference_based_inventory, module_based_inventory};
        let device = Device::xc2vp50();
        let fp = Floorplan::xd1_dual_prr();
        let columns = fp.prrs[0].region.column_indices();
        let r = run();
        let rows = r.json.as_array().unwrap();
        for n in [2usize, 5] {
            let seeds: Vec<u64> = (0..n as u64).collect();
            let mb = module_based_inventory(&device, &columns, &seeds).unwrap();
            let db = difference_based_inventory(&device, &columns, &seeds).unwrap();
            let row = &rows[n - 2];
            assert_eq!(
                row["module_total_mb"].as_f64().unwrap(),
                mb.total_bytes as f64 / 1e6
            );
            assert_eq!(
                row["difference_total_mb"].as_f64().unwrap(),
                db.total_bytes as f64 / 1e6
            );
        }
    }

    #[test]
    fn difference_flow_storage_grows_faster() {
        let r = run();
        let rows = r.json.as_array().unwrap();
        let last = rows.last().unwrap();
        assert!(
            last["difference_total_mb"].as_f64().unwrap()
                > 3.0 * last["module_total_mb"].as_f64().unwrap()
        );
    }
}
