//! E8 — Hardware virtualization / multi-tasking: the paper's closing
//! argument ("PRTR ... is far more beneficial for versatility purposes,
//! multi-tasking applications, and hardware virtualization"), quantified
//! with the `hprc-virt` runtime.

use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::node::NodeConfig;
use hprc_virt::app::App;
use hprc_virt::runtime::{run as run_virt, RuntimeConfig};
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    scenario: String,
    apps: usize,
    mode: String,
    makespan_s: f64,
    hit_ratio: f64,
    n_config: u64,
    config_fraction: f64,
    mean_turnaround_s: f64,
}

fn loyal_apps(n: usize, calls: usize, t_task: f64) -> Vec<App> {
    // Each app loops on its own core (up to 4 distinct cores).
    let cores = [
        "Median Filter",
        "Sobel Filter",
        "Smoothing Filter",
        "Laplacian Filter",
    ];
    (0..n)
        .map(|i| {
            App::cycling(
                i,
                format!("app{i}"),
                &[cores[i % cores.len()]],
                calls,
                t_task,
                0.0,
            )
        })
        .collect()
}

fn mixed_apps(n: usize, calls: usize, t_task: f64) -> Vec<App> {
    // Each app cycles through 3 cores (more cores than its PRR share).
    let cores = ["Median Filter", "Sobel Filter", "Smoothing Filter"];
    (0..n)
        .map(|i| App::cycling(i, format!("app{i}"), &cores, calls, t_task, 0.0))
        .collect()
}

/// Runs the multi-tasking comparison on the measured dual-PRR and
/// quad-PRR nodes. Every scenario's runtime activity (dispatch
/// latencies, lane gauges, hit/config counters) lands in
/// `ctx.registry`, aggregated across all scenario × mode runs.
pub fn run(ctx: &ExecCtx) -> Report {
    let t_task = 0.005;
    let calls = 40;
    let mut rows = Vec::new();

    let scenarios: Vec<(String, NodeConfig, Vec<App>)> = vec![
        (
            "2 loyal apps / dual PRR".into(),
            NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr()),
            loyal_apps(2, calls, t_task),
        ),
        (
            "4 loyal apps / quad PRR".into(),
            NodeConfig::xd1_measured(&Floorplan::xd1_quad_prr()),
            loyal_apps(4, calls, t_task),
        ),
        (
            "2 pipeline apps / dual PRR".into(),
            NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr()),
            mixed_apps(2, calls, t_task),
        ),
        (
            "2 pipeline apps / quad PRR".into(),
            NodeConfig::xd1_measured(&Floorplan::xd1_quad_prr()),
            mixed_apps(2, calls, t_task),
        ),
    ];

    for (name, node, apps) in scenarios {
        for (mode_name, cfg) in [
            ("FRTR", RuntimeConfig::frtr()),
            ("PRTR", RuntimeConfig::prtr_overlapped()),
        ] {
            let report = run_virt(&node, &apps, &cfg, ctx).expect("valid scenario");
            let mean_turnaround = report.per_app.iter().map(|a| a.turnaround_s).sum::<f64>()
                / report.per_app.len() as f64;
            rows.push(Row {
                scenario: name.clone(),
                apps: apps.len(),
                mode: mode_name.into(),
                makespan_s: report.makespan_s,
                hit_ratio: report.hit_ratio(),
                n_config: report.n_config,
                config_fraction: report.config_fraction(),
                mean_turnaround_s: mean_turnaround,
            });
        }
    }

    let mut t = TextTable::new(vec![
        "Scenario",
        "mode",
        "makespan (s)",
        "H",
        "configs",
        "config busy",
        "mean turnaround (s)",
    ])
    .align(vec![
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.scenario.clone(),
            r.mode.clone(),
            format!("{:.3}", r.makespan_s),
            format!("{:.2}", r.hit_ratio),
            format!("{}", r.n_config),
            format!("{:.0}%", r.config_fraction * 100.0),
            format!("{:.3}", r.mean_turnaround_s),
        ]);
    }

    // Speedup summary per scenario.
    let mut summary = String::new();
    for pair in rows.chunks(2) {
        let (f, p) = (&pair[0], &pair[1]);
        summary.push_str(&format!(
            "  {}: PRTR is {:.0}x faster than FRTR\n",
            f.scenario,
            f.makespan_s / p.makespan_s
        ));
    }

    let body = format!(
        "{}\nPRTR-vs-FRTR multi-tasking gain:\n{summary}\
         Reading: with per-app cores resident in their own PRRs, PRTR's\n\
         configuration count collapses to one per core while FRTR pays a\n\
         1.68 s full configuration on almost every interleaved call — the\n\
         multi-tasking gain dwarfs the single-application Figure 9 gains,\n\
         supporting the paper's closing recommendation.\n",
        t.render()
    );

    Report::new(
        "ext-multitask",
        "E8 — Multi-tasking / hardware virtualization (hprc-virt)",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prtr_wins_every_scenario() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 8);
        for pair in rows.chunks(2) {
            let frtr = pair[0]["makespan_s"].as_f64().unwrap();
            let prtr = pair[1]["makespan_s"].as_f64().unwrap();
            assert!(frtr > 10.0 * prtr, "frtr {frtr} vs prtr {prtr}");
        }
    }

    #[test]
    fn loyal_apps_get_near_perfect_hit_ratio_under_prtr() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let loyal_prtr = &rows[1];
        assert_eq!(loyal_prtr["mode"], "PRTR");
        assert!(loyal_prtr["hit_ratio"].as_f64().unwrap() > 0.95);
        assert_eq!(loyal_prtr["n_config"].as_u64().unwrap(), 2);
    }

    #[test]
    fn instrumented_run_aggregates_all_scenarios() {
        let reg = hprc_obs::Registry::new();
        let r = run(&ExecCtx::default().with_registry(reg.clone()));
        let snap = reg.snapshot();
        // 4 scenarios x 2 modes; loyal/mixed apps issue 40 calls each:
        // (2 + 4 + 2 + 2) apps x 40 calls x 2 modes.
        assert_eq!(snap.counters["virt.calls"], (2 + 4 + 2 + 2) * 40 * 2);
        assert!(snap.counters["virt.configs"] > 0);
        assert_eq!(
            snap.histograms["virt.dispatch_latency_s"].count,
            snap.counters["virt.calls"]
        );
        let _ = r;
    }

    #[test]
    fn quad_prr_handles_pipeline_apps_better_than_dual() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let dual = rows[5]["makespan_s"].as_f64().unwrap(); // 2 pipeline apps / dual, PRTR
        let quad = rows[7]["makespan_s"].as_f64().unwrap(); // 2 pipeline apps / quad, PRTR
        assert!(quad < dual, "quad {quad} vs dual {dual}");
    }
}
