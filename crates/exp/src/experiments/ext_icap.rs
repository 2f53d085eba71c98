//! E6 — ICAP path ablation: what the control circuit's inefficiency costs.
//!
//! The paper's work-around feeds the ICAP through a BRAM buffer and a state
//! machine, reaching ~20 MB/s of the port's 66 MB/s; it also notes the
//! shared host link ("it is necessary to share the communication link ...
//! for transferring both the configuration bitstreams and needed data").
//! This ablation sweeps the FSM efficiency and toggles the shared-link
//! constraint to show how much performance each recovers.

use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::icap::IcapPath;
use hprc_sim::node::NodeConfig;
use serde::Serialize;

use crate::report::Report;
use crate::scenario::figure9_point;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    variant: String,
    effective_mb_per_s: f64,
    t_prtr_ms: f64,
    x_prtr: f64,
    peak_speedup_sim: f64,
}

fn peak(node: &NodeConfig, ctx: &ExecCtx) -> f64 {
    [0.5, 0.8, 1.0, 1.25, 2.0]
        .iter()
        .map(|f| {
            figure9_point(node, f * node.t_prtr_s(), 300, ctx)
                .0
                .speedup_sim
        })
        .fold(0.0, f64::max)
}

/// Runs the ablation on the measured dual-PRR node.
pub fn run(ctx: &ExecCtx) -> Report {
    let fp = Floorplan::xd1_dual_prr();
    let base = NodeConfig::xd1_measured(&fp);

    let variants: Vec<(String, IcapPath, bool)> = vec![
        (
            "measured FSM (3 cyc/B + burst)".into(),
            IcapPath::xd1(),
            false,
        ),
        (
            "measured FSM + shared-link wait".into(),
            IcapPath::xd1(),
            true,
        ),
        (
            "2 cyc/B FSM".into(),
            IcapPath {
                cycles_per_byte: 2,
                ..IcapPath::xd1()
            },
            false,
        ),
        ("ideal ICAP (1 cyc/B)".into(), IcapPath::ideal(), false),
        (
            "32-bit ICAP @100MHz (Virtex-4 class)".into(),
            IcapPath {
                clock_hz: 100e6,
                cycles_per_byte: 1,
                cycles_per_burst: 0,
                burst_bytes: 1024,
                bram_buffer_bytes: 32 * 2048,
                link_bytes_per_sec: 1.6e9,
            },
            false,
        ),
    ];

    let mut rows = Vec::new();
    for (name, icap, shared_link) in variants {
        let node = NodeConfig {
            icap,
            config_waits_for_data_input: shared_link,
            ..base
        };
        rows.push(Row {
            variant: name,
            effective_mb_per_s: icap.effective_bytes_per_sec() / 1e6,
            t_prtr_ms: node.t_prtr_s() * 1e3,
            x_prtr: node.x_prtr(),
            peak_speedup_sim: peak(&node, ctx),
        });
    }

    let mut t = TextTable::new(vec![
        "Variant",
        "eff MB/s",
        "T_PRTR (ms)",
        "X_PRTR",
        "peak S (sim)",
    ])
    .align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.variant.clone(),
            format!("{:.1}", r.effective_mb_per_s),
            format!("{:.2}", r.t_prtr_ms),
            format!("{:.4}", r.x_prtr),
            format!("{:.1}", r.peak_speedup_sim),
        ]);
    }

    let body = format!(
        "{}\nReading: the FSM's 3.2 cycles/byte costs ~3.2x in T_PRTR and a\n\
         proportional share of peak speedup; sharing the input link with\n\
         task data (the XD1 constraint) costs a further slice. A wider,\n\
         faster ICAP (the Virtex-4 direction the paper anticipates) raises\n\
         the ceiling by an order of magnitude.\n",
        t.render()
    );

    Report::new("ext-icap", "E6 — ICAP path ablation", body, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_icap_paths_raise_the_peak() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let get = |i: usize| rows[i]["peak_speedup_sim"].as_f64().unwrap();
        // measured < 2cyc < ideal < v4-class.
        assert!(get(0) < get(2) && get(2) < get(3) && get(3) < get(4));
        // The shared-link variant is no faster than the unconstrained one.
        assert!(get(1) <= get(0) + 1e-9);
    }

    #[test]
    fn effective_rates_ordered() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let measured = rows[0]["effective_mb_per_s"].as_f64().unwrap();
        let ideal = rows[3]["effective_mb_per_s"].as_f64().unwrap();
        assert!((measured - 20.4).abs() < 0.1);
        assert!((ideal - 66.0).abs() < 0.1);
    }
}
