//! E7 — Bitstream compression: how much configuration time an RLE codec
//! recovers for modules that do not fill their PRR (real partial
//! bitstreams are mostly zero frames for small cores).

use hprc_fpga::bitstream::Bitstream;
use hprc_fpga::compress::{compress, decompress};
use hprc_fpga::floorplan::Floorplan;
use hprc_fpga::frames::ConfigMemory;
use hprc_sim::icap::IcapPath;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    fill_pct: u32,
    raw_bytes: u64,
    compressed_bytes: u64,
    ratio: f64,
    t_prtr_raw_ms: f64,
    t_prtr_compressed_ms: f64,
    peak_speedup_raw: f64,
    peak_speedup_compressed: f64,
}

/// Sweeps the module fill fraction of a dual-layout PRR and reports the
/// configuration-time and peak-speedup gains from compression.
pub fn run() -> Report {
    let fp = Floorplan::xd1_dual_prr();
    let cols = fp.prrs[0].region.column_indices();
    let icap = IcapPath::xd1();
    let t_frtr = 1.67804f64;

    let mut rows = Vec::new();
    for fill_pct in [0u32, 25, 50, 75, 100] {
        let used = cols.len() * fill_pct as usize / 100;
        let mut mem = ConfigMemory::blank(&fp.device);
        if used > 0 {
            mem.fill_region_pattern(&cols[..used], 42).unwrap();
        }
        let bs = Bitstream::partial_module_based(&fp.device, &mem, &cols).unwrap();
        let c = compress(&bs);
        // Round-trip safety.
        assert_eq!(decompress(&c, &bs).expect("roundtrip"), bs);

        let t_raw = icap.transfer_time_s(bs.size_bytes());
        let t_comp = icap.transfer_time_s(c.size_bytes());
        let peak = |t_prtr: f64| 1.0 + t_frtr / t_prtr;
        rows.push(Row {
            fill_pct,
            raw_bytes: bs.size_bytes(),
            compressed_bytes: c.size_bytes(),
            ratio: c.ratio(),
            t_prtr_raw_ms: t_raw * 1e3,
            t_prtr_compressed_ms: t_comp * 1e3,
            peak_speedup_raw: peak(t_raw),
            peak_speedup_compressed: peak(t_comp),
        });
    }

    let mut t = TextTable::new(vec![
        "PRR fill",
        "raw B",
        "compressed B",
        "ratio",
        "T_PRTR raw",
        "T_PRTR comp",
        "peak S raw",
        "peak S comp",
    ])
    .align(vec![
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
            format!("{}%", r.fill_pct),
            format!("{}", r.raw_bytes),
            format!("{}", r.compressed_bytes),
            format!("{:.2}x", r.ratio),
            format!("{:.2} ms", r.t_prtr_raw_ms),
            format!("{:.2} ms", r.t_prtr_compressed_ms),
            format!("{:.0}", r.peak_speedup_raw),
            format!("{:.0}", r.peak_speedup_compressed),
        ]);
    }

    let body = format!(
        "{}\nModule-based partial bitstreams carry every frame of the PRR;\n\
         frames the module does not occupy are zero and compress away.\n\
         Configuration time is bandwidth-bound, so the ratio converts\n\
         one-for-one into T_PRTR (and the paper's 1 + 1/X_PRTR peak).\n\
         Fully-utilized modules (100% fill, random payload) gain nothing —\n\
         compression is a small-module optimization.\n",
        t.render()
    );

    Report::new("ext-compress", "E7 — Bitstream compression", body, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_modules_gain_dense_do_not() {
        let r = run();
        let rows = r.json.as_array().unwrap();
        let first = &rows[0]; // empty region
        let last = rows.last().unwrap(); // fully filled
        assert!(first["ratio"].as_f64().unwrap() > 10.0);
        assert!(last["ratio"].as_f64().unwrap() < 1.05);
        // Peak speedups move accordingly.
        assert!(
            first["peak_speedup_compressed"].as_f64().unwrap()
                > 5.0 * first["peak_speedup_raw"].as_f64().unwrap()
        );
    }

    #[test]
    fn ratios_decrease_with_fill() {
        let r = run();
        let ratios: Vec<f64> = r
            .json
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x["ratio"].as_f64().unwrap())
            .collect();
        for w in ratios.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "{ratios:?}");
        }
    }
}
