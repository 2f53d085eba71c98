//! Table 2: bitstream sizes, estimated and measured configuration times,
//! and normalized configuration times for each layout.

use hprc_fpga::floorplan::Floorplan;
use hprc_fpga::ports::ConfigPort;
use hprc_sim::cray_api::CrayConfigApi;
use hprc_sim::icap::IcapPath;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

/// Paper values for comparison (Table 2).
#[derive(Serialize)]
struct PaperRow {
    bitstream_bytes: u64,
    estimated_ms: f64,
    measured_ms: f64,
    x_estimated: f64,
    x_measured: f64,
}

#[derive(Serialize)]
struct Row {
    layout: String,
    bitstream_bytes: u64,
    estimated_ms: f64,
    measured_ms: f64,
    x_estimated: f64,
    x_measured: f64,
    paper: PaperRow,
    size_rel_err: f64,
    measured_rel_err: f64,
}

/// Regenerates Table 2 from the device model, the SelectMap port, the
/// vendor API model, and the calibrated ICAP path; compares each cell to
/// the paper's values.
pub fn run() -> Report {
    let full_bytes = Floorplan::xd1_dual_prr().device.full_bitstream_bytes();
    let single = Floorplan::xd1_single_prr()
        .mean_prr_bitstream_bytes()
        .unwrap()
        .round() as u64;
    let dual = Floorplan::xd1_dual_prr()
        .mean_prr_bitstream_bytes()
        .unwrap()
        .round() as u64;

    let selectmap = ConfigPort::selectmap_v2pro();
    let icap_ideal = IcapPath::ideal();
    let icap = IcapPath::xd1();
    let api = CrayConfigApi::xd1_measured(full_bytes);

    let t_frtr_est = selectmap.transfer_time_s(full_bytes);
    let t_frtr_meas = api.full_configuration_time_s();

    let paper = |b, e, m, xe, xm| PaperRow {
        bitstream_bytes: b,
        estimated_ms: e,
        measured_ms: m,
        x_estimated: xe,
        x_measured: xm,
    };

    let mk = |layout: &str, bytes: u64, est_s: f64, meas_s: f64, p: PaperRow| {
        let size_rel_err =
            (bytes as f64 - p.bitstream_bytes as f64).abs() / p.bitstream_bytes as f64;
        let measured_rel_err = (meas_s * 1e3 - p.measured_ms).abs() / p.measured_ms;
        Row {
            layout: layout.into(),
            bitstream_bytes: bytes,
            estimated_ms: est_s * 1e3,
            measured_ms: meas_s * 1e3,
            x_estimated: est_s / t_frtr_est,
            x_measured: meas_s / t_frtr_meas,
            paper: p,
            size_rel_err,
            measured_rel_err,
        }
    };

    let rows = vec![
        mk(
            "Full Configuration",
            full_bytes,
            t_frtr_est,
            t_frtr_meas,
            paper(2_381_764, 36.09, 1678.04, 1.0, 1.0),
        ),
        mk(
            "Single PRR",
            single,
            icap_ideal.transfer_time_s(single),
            icap.transfer_time_s(single),
            paper(887_784, 13.45, 43.48, 0.37, 0.026),
        ),
        mk(
            "Dual PRR",
            dual,
            icap_ideal.transfer_time_s(dual),
            icap.transfer_time_s(dual),
            paper(404_168, 6.12, 19.77, 0.17, 0.012),
        ),
    ];

    let mut t = TextTable::new(vec![
        "Layout",
        "Bytes (ours)",
        "Bytes (paper)",
        "Est ms (ours)",
        "Est ms (paper)",
        "Meas ms (ours)",
        "Meas ms (paper)",
        "X est",
        "X meas",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.layout.clone(),
            format!("{}", r.bitstream_bytes),
            format!("{}", r.paper.bitstream_bytes),
            format!("{:.2}", r.estimated_ms),
            format!("{:.2}", r.paper.estimated_ms),
            format!("{:.2}", r.measured_ms),
            format!("{:.2}", r.paper.measured_ms),
            format!("{:.3}", r.x_estimated),
            format!("{:.4}", r.x_measured),
        ]);
    }
    let worst_size = rows.iter().map(|r| r.size_rel_err).fold(0.0f64, f64::max);
    let worst_meas = rows
        .iter()
        .map(|r| r.measured_rel_err)
        .fold(0.0f64, f64::max);
    let body = format!(
        "{}\nEstimated = bitstream / port rate (SelectMap & ICAP at 66 MB/s).\n\
         Measured = vendor-API software overhead (full) / calibrated ICAP\n\
         control-FSM path (partial). Worst relative error vs the paper:\n\
         bitstream sizes {:.2}%, measured times {:.2}%.\n",
        t.render(),
        worst_size * 100.0,
        worst_meas * 100.0
    );
    Report::new(
        "table2",
        "Table 2 — Experimental values for model parameters",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_errors_are_small() {
        let r = run();
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 3);
        for row in rows {
            let size_err = row["size_rel_err"].as_f64().unwrap();
            let meas_err = row["measured_rel_err"].as_f64().unwrap();
            assert!(size_err < 0.005, "size err {size_err}");
            assert!(meas_err < 0.005, "measured err {meas_err}");
        }
    }

    #[test]
    fn full_row_is_exact() {
        let r = run();
        assert!(r.body.contains("2381764"));
        assert!(r.body.contains("1678.04"));
    }
}
