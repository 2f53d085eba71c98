//! Table 1: hardware functions and their resource requirements.

use hprc_fpga::device::Device;
use hprc_fpga::floorplan::Floorplan;
use hprc_fpga::module::{ModuleClass, ModuleLibrary};
use hprc_fpga::placement::{place_in_prr, place_static};
use hprc_fpga::resources::Utilization;
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    name: String,
    luts: u32,
    luts_pct: u32,
    ffs: u32,
    ffs_pct: u32,
    brams: u32,
    brams_pct: u32,
    freq_mhz: f64,
    placed: bool,
}

/// Regenerates Table 1: each module's resources, its utilization of the
/// XC2VP50, and whether it places into the dual-PRR layout.
pub fn run() -> Report {
    let device = Device::xc2vp50();
    let cap = device.capacity();
    let lib = ModuleLibrary::paper_table1();
    let fp = Floorplan::xd1_dual_prr();

    let mut rows = Vec::new();
    for m in &lib.modules {
        let u = m.resources.utilization(&cap);
        let placed = match m.class {
            ModuleClass::Application => place_in_prr(&fp, 0, m, 200.0).is_ok(),
            _ => place_static(
                &fp,
                &lib.modules
                    .iter()
                    .filter(|x| x.class != ModuleClass::Application)
                    .collect::<Vec<_>>(),
            )
            .is_ok(),
        };
        rows.push(Row {
            name: m.name.clone(),
            luts: m.resources.luts,
            luts_pct: Utilization::percent_truncated(u.luts),
            ffs: m.resources.ffs,
            ffs_pct: Utilization::percent_truncated(u.ffs),
            brams: m.resources.brams,
            brams_pct: Utilization::percent_truncated(u.brams),
            freq_mhz: m.freq_mhz,
            placed,
        });
    }

    let mut t = TextTable::new(vec![
        "Hardware Function",
        "LUTs",
        "(%)",
        "FFs",
        "(%)",
        "BRAM",
        "(%)",
        "Freq (MHz)",
        "fits layout",
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
            r.name.clone(),
            format!("{}", r.luts),
            format!("({}%)", r.luts_pct),
            format!("{}", r.ffs),
            format!("({}%)", r.ffs_pct),
            if r.brams == 0 {
                "NA".into()
            } else {
                format!("{}", r.brams)
            },
            if r.brams == 0 {
                "".into()
            } else {
                format!("({}%)", r.brams_pct)
            },
            format!("{:.0}", r.freq_mhz),
            if r.placed { "yes" } else { "NO" }.into(),
        ]);
    }

    let body = format!(
        "{}\nDevice: {} — {} LUTs, {} FFs, {} BRAMs.\n\
         Paper values are reproduced exactly (the module library is the\n\
         paper's own synthesis results); percentages derive from the modeled\n\
         device capacity and match Table 1's truncated rendering.\n",
        t.render(),
        device.name,
        cap.luts,
        cap.ffs,
        cap.brams
    );
    Report::new(
        "table1",
        "Table 1 — Hardware functions and their resource requirements",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_percentages() {
        let r = run();
        assert!(r.body.contains("3372") || r.body.contains("3,372") || r.body.contains("3372"));
        // Paper's percentage column: 7 / 11 / 10 for the static region.
        assert!(r.body.contains("(7%)"));
        assert!(r.body.contains("(11%)"));
        assert!(r.body.contains("(10%)"));
        // All rows placed.
        assert!(!r.body.contains("NO"));
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 5);
    }
}
