//! E14 — The flexible (variable-width) runtime: module widths matched to
//! their resource needs, on-line fragmentation, and the eviction-vs-
//! defragmentation trade — the continuous version of the paper's
//! "partitions must be fine grained to match the task time requirements".

use hprc_ctx::ExecCtx;
use hprc_fpga::device::Device;
use hprc_fpga::floorplan::Floorplan;
use hprc_sim::node::NodeConfig;
use hprc_virt::flexible::{run_flexible, DefragPolicy, FlexApp, FlexCall, FlexConfig};
use serde::Serialize;

use crate::report::Report;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    scenario: String,
    policy: String,
    makespan_s: f64,
    configs: u64,
    hits: u64,
    evictions: u64,
    defrags: u64,
    defrag_time_ms: f64,
    peak_fragmentation: f64,
}

fn window(device: &Device) -> std::ops::Range<usize> {
    let ncols = device.columns.len();
    (ncols - 15)..(ncols - 2) // the 13 uniform CLB columns
}

fn app_from(specs: &[(&str, usize)], name: &str, repeat: usize) -> FlexApp {
    FlexApp {
        id: 0,
        name: name.into(),
        arrival_s: 0.0,
        calls: specs
            .iter()
            .cycle()
            .take(specs.len() * repeat)
            .map(|&(m, w)| FlexCall {
                module: m.into(),
                width_cols: w,
                t_task_s: 0.002,
            })
            .collect(),
    }
}

/// Three 3-wide modules plus a 6-wide one: evictions leave fragmented
/// holes a compaction pass can merge — defragmentation's sweet spot.
fn frag_prone_app(repeat: usize) -> FlexApp {
    app_from(
        &[("s1", 3), ("s2", 3), ("s3", 3), ("wide", 6)],
        "frag-prone",
        repeat,
    )
}

/// A fully thrashing cycle (16 columns of modules through 13): capacity,
/// not fragmentation, is the blocker — defragmentation cannot help.
fn thrash_app(repeat: usize) -> FlexApp {
    app_from(
        &[
            ("Sobel", 2),
            ("Smoothing", 3),
            ("Median", 4),
            ("Median5x5", 6),
            ("Threshold", 1),
        ],
        "thrash",
        repeat,
    )
}

fn fitting_app(repeat: usize) -> FlexApp {
    // Working set that fits entirely: 2+3+4+1 = 10 of 13 columns.
    app_from(
        &[
            ("Sobel", 2),
            ("Smoothing", 3),
            ("Median", 4),
            ("Threshold", 1),
        ],
        "fitting",
        repeat,
    )
}

/// Runs the fitting and oversubscribed scenarios under both policies.
pub fn run(ctx: &ExecCtx) -> Report {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let device = Device::xc2vp50();
    let mut rows = Vec::new();

    let scenarios: Vec<(&str, FlexApp)> = vec![
        ("working set fits (10/13 cols)", fitting_app(20)),
        ("fragmentation-prone (3+3+3+6)", frag_prone_app(20)),
        ("thrash-bound (16/13 cols)", thrash_app(20)),
    ];
    for (name, app) in scenarios {
        for (policy_name, policy) in [
            ("evict-only", DefragPolicy::Never),
            ("defrag-on-block", DefragPolicy::OnBlock),
        ] {
            let r = run_flexible(
                &node,
                &device,
                window(&device),
                std::slice::from_ref(&app),
                &FlexConfig { defrag: policy },
                ctx,
            )
            .expect("valid scenario");
            rows.push(Row {
                scenario: name.into(),
                policy: policy_name.into(),
                makespan_s: r.makespan_s,
                configs: r.n_config,
                hits: r.hits,
                evictions: r.evictions,
                defrags: r.defrags,
                defrag_time_ms: r.defrag_time_s * 1e3,
                peak_fragmentation: r.peak_fragmentation,
            });
        }
    }

    let mut t = TextTable::new(vec![
        "Scenario",
        "policy",
        "makespan (s)",
        "configs",
        "hits",
        "evictions",
        "defrags",
        "defrag ms",
        "peak frag",
    ])
    .align(vec![
        Align::Left,
        Align::Left,
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
            r.scenario.clone(),
            r.policy.clone(),
            format!("{:.3}", r.makespan_s),
            format!("{}", r.configs),
            format!("{}", r.hits),
            format!("{}", r.evictions),
            format!("{}", r.defrags),
            format!("{:.2}", r.defrag_time_ms),
            format!("{:.2}", r.peak_fragmentation),
        ]);
    }

    let body = format!(
        "{}\nVariable-width residency: when the working set fits, every\n\
         module configures once (width-proportional cost) and the rest\n\
         hits. On the fragmentation-prone mix, compaction does save\n\
         evictions — but each saved eviction costs relocation moves whose\n\
         ICAP time exceeds the avoided reconfiguration, so the makespan\n\
         *worsens*; on capacity-thrash mixes compaction cannot help at\n\
         all. This quantifies the paper's caution that PRTR's \"practical\n\
         considerations might overweight the gains\": defragmentation only\n\
         pays off when the moved modules are much smaller than the ones\n\
         whose eviction it prevents, or when moves are free (e.g. shadow\n\
         regions). The runtime therefore defragments only when\n\
         fragmentation (not capacity) is the actual blocker.\n",
        t.render()
    );

    Report::new(
        "ext-flexible",
        "E14 — Flexible variable-width runtime (fragmentation on-line)",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitting_scenario_is_all_hits_after_warmup() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let fitting = &rows[0];
        assert_eq!(fitting["configs"].as_u64().unwrap(), 4);
        assert_eq!(fitting["evictions"].as_u64().unwrap(), 0);
    }

    #[test]
    fn defrag_wins_on_fragmentation_prone_workloads() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let evict_only = &rows[2];
        let defrag = &rows[3];
        assert!(evict_only["evictions"].as_u64().unwrap() > 0);
        assert!(
            defrag["evictions"].as_u64().unwrap() < evict_only["evictions"].as_u64().unwrap(),
            "defrag must save evictions here: {defrag} vs {evict_only}"
        );
        assert!(defrag["defrags"].as_u64().unwrap() > 0);
    }

    #[test]
    fn defrag_cannot_help_capacity_thrash() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let evict_only = &rows[4];
        let defrag = &rows[5];
        assert_eq!(
            defrag["evictions"].as_u64().unwrap(),
            evict_only["evictions"].as_u64().unwrap(),
            "capacity misses are policy-independent"
        );
    }
}
