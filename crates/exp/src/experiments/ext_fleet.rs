//! E-fleet: fleet-scale orchestration under node kills and run budgets.
//!
//! A 1024-node fleet (32 racks of 32) runs the looping image-pipeline
//! workload per node while a chaos plan kills a deterministic,
//! `p_kill`-monotone subset of nodes mid-run and every surviving call
//! stream rides the usual transient-fault recovery machinery. The sweep
//! reports fleet availability, degraded throughput, and per-rack hiding
//! efficiency `H` as the chaos rate rises; a final budget-capped fleet
//! demonstrates deterministic budget accounting — every node cut at the
//! identical logical sequence number, the refused work tallied as
//! would-have-run in the cluster journal footer.
//!
//! Registries aggregate node → rack → cluster
//! ([`hprc_obs::ShardedRegistry::merge_two_level`]); the cluster
//! journal records dispatch → node-work causality with flow links (see
//! [`crate::fleet::run_fleet`]).

use hprc_ctx::ExecCtx;
use hprc_obs::FleetTopology;
use serde::Serialize;

use crate::fleet::{run_fleet, FleetError, FleetRun, FleetSpec};
use crate::report::{Report, Series};
use crate::table::{Align, TextTable};

/// Fleet shape: 32 racks of 32 nodes.
pub const NODES: usize = 1024;
/// Nodes per rack.
pub const RACK_SIZE: usize = 32;
/// Calls offered to each node.
const LEN: usize = 24;

/// Chaos rates swept: `p_kill` for nodes and the per-site transient
/// fault rate share the knob, so one axis degrades both ways at once.
pub const RATES: [f64; 3] = [0.0, 0.08, 0.25];

/// The representative mid-sweep rate used for the `--trace` artifact
/// and the budget-capped demonstration fleet.
const TRACE_RATE: f64 = 0.08;

/// Cluster-trace export cap. The orchestrator alone emits two events
/// per node (dispatch + node span), so at 1024 nodes the cap always
/// bites — which pins the `obs.trace.truncated_events` counter into
/// this experiment's `<id>.metrics.json` deterministically.
pub const MAX_FLEET_TRACE_EVENTS: usize = 2048;

fn spec(rate: f64) -> FleetSpec {
    FleetSpec {
        nodes: NODES,
        rack_size: RACK_SIZE,
        len: LEN,
        rate,
        p_kill: rate,
    }
}

#[derive(Serialize)]
struct Row {
    rate: f64,
    killed_nodes: u64,
    availability: f64,
    /// Served-calls-per-second relative to the chaos-free fleet.
    throughput_ratio: f64,
    mean_rack_h: f64,
    min_rack_h: f64,
}

fn throughput(run: &FleetRun) -> f64 {
    let served: u64 = run.outcomes.iter().map(|o| o.served).sum();
    if run.makespan_ns == 0 {
        0.0
    } else {
        served as f64 / (run.makespan_ns as f64 / 1e9)
    }
}

/// Runs the chaos sweep plus the budget-capped fleet, with availability,
/// throughput ratio and minimum per-rack `H` vs chaos rate as its
/// curves. Fleet counters
/// (`fleet.*`) land in `ctx.registry` through the two-level merge;
/// summary gauges `exp.ext_fleet.min_availability` and
/// `exp.ext_fleet.min_rack_h` ride along, and the budget fleet attaches
/// its folded [`hprc_obs::BudgetAccount`] to the journal footer.
pub fn run_with_series(ctx: &ExecCtx) -> Result<(Report, Series), FleetError> {
    let _span = ctx.registry.span("exp.ext_fleet");
    let topo = FleetTopology::new(NODES, RACK_SIZE);
    // Nodes are the parallel axis inside each fleet, so the sweep
    // itself stays serial: rate i is journal/id stream i.
    let runs: Vec<FleetRun> = RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| run_fleet(&spec(rate), i as u64, None, ctx))
        .collect::<Result<_, _>>()?;

    let base_throughput = throughput(&runs[0]);
    let rows: Vec<Row> = RATES
        .iter()
        .zip(&runs)
        .map(|(&rate, run)| {
            let hs = run.rack_hit_ratios(&topo);
            Row {
                rate,
                killed_nodes: run.killed_nodes(),
                availability: run.availability(),
                throughput_ratio: throughput(run) / base_throughput,
                mean_rack_h: hs.iter().sum::<f64>() / hs.len() as f64,
                min_rack_h: hs.iter().copied().fold(1.0, f64::min),
            }
        })
        .collect();

    // The budget-capped fleet: half the offered events, split evenly,
    // so every node cuts at the same logical sequence number on every
    // rerun at any --jobs. No kills — a node killed before its slice
    // runs dry would never refuse work, muddying the demonstration.
    let budget_events = (NODES * LEN / 2) as u64;
    let budget_run = run_fleet(
        &FleetSpec {
            p_kill: 0.0,
            ..spec(TRACE_RATE)
        },
        RATES.len() as u64,
        Some(budget_events),
        ctx,
    )?;
    let account = budget_run
        .account
        .ok_or(FleetError::MissingAccount { node: 0 })?;

    if ctx.registry.is_enabled() {
        let min_avail = rows.iter().map(|r| r.availability).fold(1.0, f64::min);
        let min_h = rows.iter().map(|r| r.min_rack_h).fold(1.0, f64::min);
        ctx.registry
            .gauge("exp.ext_fleet.min_availability")
            .set(min_avail);
        ctx.registry.gauge("exp.ext_fleet.min_rack_h").set(min_h);
    }

    let mut t = TextTable::new(vec![
        "rate",
        "killed",
        "availability",
        "throughput",
        "mean rack H",
        "min rack H",
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
            format!("{:.2}", r.rate),
            r.killed_nodes.to_string(),
            format!("{:.4}", r.availability),
            format!("{:.3}", r.throughput_ratio),
            format!("{:.3}", r.mean_rack_h),
            format!("{:.3}", r.min_rack_h),
        ]);
    }

    let body = format!(
        "{}\nFleet: {NODES} nodes in {racks} racks of {RACK_SIZE}, loop(3, noise=0.2),\n\
         {LEN} calls per node, Markov prefetching, dual-PRR measured nodes.\n\
         One chaos knob drives both node kills (p_kill, monotone: raising\n\
         the rate never un-kills a node or kills it later) and per-site\n\
         transient faults; 'throughput' is served-calls-per-second\n\
         relative to the chaos-free fleet, per-rack H aggregates each\n\
         rack's hits over admitted calls through the node->rack->cluster\n\
         registry merge.\n\
         \n\
         Budget fleet (rate {TRACE_RATE}): capped at {budget_events} events\n\
         ({half} per node) -> every node cut at logical seq {cut}, {served}\n\
         events served, {would} would-have-run, {runs_cut} runs cut — the\n\
         same numbers on every rerun at any --jobs, and the account is in\n\
         the cluster journal footer.\n",
        t.render(),
        racks = topo.racks(),
        half = budget_events / NODES as u64,
        cut = account
            .cutoff_seq
            .map_or("-".to_string(), |s| s.to_string()),
        served = account.charged_events,
        would = account.would_have_run,
        runs_cut = account.runs_cut,
    );

    let curve = |y: fn(&Row) -> f64| rows.iter().map(|r| (r.rate, y(r))).collect();
    let series = vec![
        ("availability".into(), curve(|r| r.availability)),
        ("throughput_ratio".into(), curve(|r| r.throughput_ratio)),
        ("min_rack_h".into(), curve(|r| r.min_rack_h)),
    ];
    let report = Report::new(
        "ext-fleet",
        "E-fleet — Fleet-scale orchestration: kills, rack aggregation, run budgets",
        body,
        &rows,
    );
    Ok((report, series))
}

/// The report alone, as the tests below read it.
#[cfg(test)]
fn run(ctx: &ExecCtx) -> Result<Report, FleetError> {
    run_with_series(ctx).map(|(report, _)| report)
}

/// The `<id>.trace.json` artifact: [`chrome_trace`] with the
/// orchestrator's dispatch flow arrows linking the cluster lanes.
pub fn trace(
    run_ctx: &ExecCtx,
    registry: &hprc_obs::Registry,
) -> Result<Vec<hprc_obs::ChromeEvent>, FleetError> {
    let events = chrome_trace(run_ctx, registry)?;
    let flows = run_ctx.journal.chrome_flow_events(1, None);
    Ok(crate::assemble_trace(
        events,
        &[(1, "fleet cluster")],
        flows,
    ))
}

/// The cluster trace's events: the mid-sweep fleet's cluster journal
/// (orchestrator dispatches and spans plus witness node journals)
/// rendered as spans (one lane per rack, dispatch events on the host
/// lane), capped at [`MAX_FLEET_TRACE_EVENTS`] with the same
/// `[truncated N events]` marker + `obs.trace.truncated_events`
/// accounting the simulator's timeline export uses. The run itself is
/// journaled but registry-silenced; `registry` receives only the
/// truncation accounting.
pub fn chrome_trace(
    run_ctx: &ExecCtx,
    registry: &hprc_obs::Registry,
) -> Result<Vec<hprc_obs::ChromeEvent>, FleetError> {
    run_fleet(&spec(TRACE_RATE), 0, None, run_ctx)?;
    let all = run_ctx.journal.chrome_span_events(1);
    let total = all.len();
    let mut out: Vec<hprc_obs::ChromeEvent> = all;
    if total > MAX_FLEET_TRACE_EVENTS {
        let truncated = (total - MAX_FLEET_TRACE_EVENTS) as u64;
        let end_ts = out.iter().map(|e| e.ts).max().unwrap_or(0);
        out.truncate(MAX_FLEET_TRACE_EVENTS);
        out.push(hprc_obs::ChromeEvent::complete(
            format!("[truncated {truncated} events]"),
            end_ts,
            0,
            1,
            0,
        ));
        registry
            .counter("obs.trace.truncated_events")
            .add(truncated);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_obs::{Journal, Registry};

    #[test]
    fn chaos_degrades_availability_monotonically() {
        let ctx = ExecCtx::default().with_seed(11);
        let report = run(&ctx).unwrap();
        let rows = report.json.as_array().expect("rows").clone();
        let avail: Vec<f64> = rows
            .iter()
            .map(|r| r["availability"].as_f64().unwrap())
            .collect();
        assert_eq!(avail[0], 1.0, "the chaos-free fleet serves everything");
        assert!(avail.windows(2).all(|w| w[1] <= w[0]), "{avail:?}");
        assert!(avail[2] < 1.0, "rate 0.25 kills and drops for sure");
        let killed: Vec<u64> = rows
            .iter()
            .map(|r| r["killed_nodes"].as_u64().unwrap())
            .collect();
        assert_eq!(killed[0], 0);
        assert!(killed.windows(2).all(|w| w[1] >= w[0]), "{killed:?}");
    }

    #[test]
    fn fleet_metrics_and_budget_account_land_in_the_registry_and_journal() {
        let ctx = ExecCtx::default()
            .with_registry(Registry::new())
            .with_journal(Journal::new(crate::journal_salt("ext-fleet", 3)))
            .with_seed(3);
        run(&ctx).unwrap();
        let snap = ctx.registry.snapshot();
        // 3 sweep fleets + 1 budget fleet, 1024 nodes each.
        assert_eq!(snap.counters["fleet.nodes"], 4 * NODES as u64);
        assert!(snap.counters["fleet.offered"] >= snap.counters["fleet.served"]);
        assert!(snap.counters["fleet.budget.would_have_run"] > 0);
        assert_eq!(snap.counters["fleet.budget.runs_cut"], NODES as u64);
        assert!(snap.gauges.contains_key("exp.ext_fleet.min_availability"));
        // The budget fleet's folded account reaches the journal footer.
        let footer = ctx.journal.to_jsonl("ext-fleet", 3);
        let last = footer.lines().last().unwrap();
        assert!(last.contains("\"budget\""), "{last}");
        assert!(last.contains("\"runs_cut\":1024"), "{last}");
    }

    #[test]
    fn report_and_journal_are_jobs_invariant() {
        let run_with = |jobs: usize| {
            let ctx = ExecCtx::default()
                .with_registry(Registry::new())
                .with_journal(Journal::new(crate::journal_salt("ext-fleet", 7)))
                .with_seed(7)
                .with_jobs(jobs);
            let report = run(&ctx).unwrap();
            (
                report.json.to_string(),
                ctx.journal.to_jsonl("ext-fleet", 7),
                ctx.registry.snapshot(),
            )
        };
        let (r1, j1, s1) = run_with(1);
        let (r4, j4, s4) = run_with(4);
        assert_eq!(r1, r4);
        assert_eq!(j1, j4, "cluster journal is byte-identical at any --jobs");
        assert_eq!(s1.counters, s4.counters);
        assert_eq!(s1.gauges, s4.gauges);
        assert_eq!(s1.histograms, s4.histograms);
    }

    #[test]
    fn cluster_trace_truncation_is_recorded_before_the_snapshot() {
        let journaled = ExecCtx::default()
            .with_journal(Journal::new(0x0C0A_1D0E))
            .with_seed(0);
        let registry = Registry::new();
        let events = chrome_trace(&journaled, &registry).unwrap();
        // 1024 dispatches + 1024 node spans alone exceed the cap, so
        // the marker and the counter are unconditional at this scale.
        assert_eq!(events.len(), MAX_FLEET_TRACE_EVENTS + 1);
        let marker = events.last().unwrap();
        assert!(marker.name.starts_with("[truncated "), "{}", marker.name);
        // The counter is in the registry *now* — before any artifact
        // writer snapshots metrics — so `<id>.metrics.json` carries it.
        let snap = registry.snapshot();
        assert!(snap.counters["obs.trace.truncated_events"] > 0);
    }
}
