//! E1 — Pre-fetching policies: the paper excluded prefetching from its
//! experiments ("we preserve this inclusion for future investigations");
//! this extension measures the hit ratio real policies achieve on
//! locality-bearing workloads and the end-to-end speedup that follows.

use hprc_ctx::ExecCtx;
use hprc_fpga::floorplan::Floorplan;
use hprc_sched::policies::{AlwaysMiss, Belady, Fifo, Lfu, Lru, Markov, RandomPolicy};
use hprc_sched::policy::Policy;
use hprc_sched::traces::TraceSpec;
use hprc_sim::node::NodeConfig;
use serde::Serialize;

use crate::report::Report;
use crate::scenario::run_point;
use crate::table::{Align, TextTable};

#[derive(Serialize)]
struct Row {
    trace: String,
    policy: String,
    prefetch: bool,
    hit_ratio: f64,
    speedup_sim: f64,
    speedup_model: f64,
}

fn policies(seed: u64) -> Vec<(Box<dyn Policy>, bool)> {
    vec![
        (Box::new(AlwaysMiss::new()) as Box<dyn Policy>, false),
        (Box::new(Fifo::new()), false),
        (Box::new(Lru::new()), false),
        (Box::new(Lfu::new()), false),
        (Box::new(RandomPolicy::new(seed)), false),
        (Box::new(Belady::new()), false),
        (Box::new(Markov::new()), true),
    ]
}

/// Workloads with varying locality.
fn traces(len: usize) -> Vec<TraceSpec> {
    vec![
        TraceSpec::Looping {
            stages: 3,
            n_tasks: 3,
            noise: 0.0,
            len,
        },
        TraceSpec::Looping {
            stages: 3,
            n_tasks: 6,
            noise: 0.1,
            len,
        },
        TraceSpec::Zipf {
            n_tasks: 7,
            alpha: 1.2,
            len,
        },
        TraceSpec::Phased {
            n_tasks: 7,
            working_set: 2,
            phase_len: 40,
            len,
        },
        TraceSpec::Uniform { n_tasks: 7, len },
    ]
}

/// Runs the policy × workload grid at the configuration-bound operating
/// point (`T_task = 0.25 × T_PRTR`), where prefetching matters most.
pub fn run(ctx: &ExecCtx) -> Report {
    let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
    let t_task = 0.25 * node.t_prtr_s();
    let len = 600;

    let mut rows = Vec::new();
    for spec in traces(len) {
        for (mut policy, prefetch) in policies(ctx.seed_for(42)) {
            let p = run_point(&node, &spec, 42, policy.as_mut(), prefetch, t_task, ctx).0;
            rows.push(Row {
                trace: spec.label(),
                policy: policy.name().to_string(),
                prefetch,
                hit_ratio: p.hit_ratio,
                speedup_sim: p.speedup_sim,
                speedup_model: p.speedup_model,
            });
        }
    }

    let mut t = TextTable::new(vec![
        "Workload",
        "Policy",
        "prefetch",
        "H (measured)",
        "S sim",
        "S model",
    ])
    .align(vec![
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &rows {
        t.row(vec![
            r.trace.clone(),
            r.policy.clone(),
            if r.prefetch { "yes" } else { "no" }.to_string(),
            format!("{:.3}", r.hit_ratio),
            format!("{:.1}", r.speedup_sim),
            format!("{:.1}", r.speedup_model),
        ]);
    }

    let body = format!(
        "{}\nOperating point: T_task = 0.25 x T_PRTR (configuration-bound),\n\
         dual-PRR measured node, {len}-call traces, 2 PRR slots.\n\
         Reading: better policies raise H, and equation (6) evaluated at the\n\
         *measured* H tracks the simulator — the model composes with real\n\
         caching algorithms, not just the H=0 baseline the paper measured.\n",
        t.render()
    );

    Report::new(
        "ext-prefetch",
        "E1 — Pre-fetching policies x workloads",
        body,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_grid_is_consistent() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        assert_eq!(rows.len(), 5 * 7);
        for row in rows {
            let h = row["hit_ratio"].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&h));
            let sim = row["speedup_sim"].as_f64().unwrap();
            let model = row["speedup_model"].as_f64().unwrap();
            assert!((sim - model).abs() / model < 0.05, "{row}");
            // always-miss rows have H = 0.
            if row["policy"] == "always-miss" {
                assert_eq!(h, 0.0);
            }
        }
    }

    #[test]
    fn markov_beats_always_miss_on_the_clean_loop() {
        let r = run(&ExecCtx::default());
        let rows = r.json.as_array().unwrap();
        let find = |policy: &str| {
            rows.iter()
                .find(|row| row["trace"] == "loop(3, noise=0)" && row["policy"] == policy)
                .unwrap()["speedup_sim"]
                .as_f64()
                .unwrap()
        };
        assert!(find("markov") > 1.5 * find("always-miss"));
    }
}
