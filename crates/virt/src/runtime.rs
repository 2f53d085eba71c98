//! The hardware-virtualization runtime: an OS-style scheduler that
//! multiplexes several applications over the FPGA, under either FRTR
//! (whole-device swaps through the vendor API) or PRTR (per-PRR swaps
//! through the ICAP).
//!
//! This is the system the paper's section 5 sketches as PRTR's real
//! destiny: "With future support of Operating Systems for PRTR, we see
//! PRTR as compared to FRTR is far more beneficial for versatility
//! purposes, multi-tasking applications, and hardware virtualization."
//!
//! Semantics:
//!
//! * every application issues its calls strictly in order; calls of
//!   different applications interleave freely;
//! * **PRTR**: a call whose module is resident in some PRR is a *hit*
//!   (no configuration); otherwise the LRU PRR is reconfigured through
//!   the single ICAP (serialized). With
//!   [`RuntimeConfig::prefetch_next`], the runtime also configures the
//!   app's *next* module while the current call executes — the overlap
//!   of the paper's equation (3);
//! * **FRTR**: the device holds one module at a time; any module change
//!   by any application is a full reconfiguration through the vendor
//!   API, and destroys residency for everyone else — the structural
//!   reason FRTR multi-tasking collapses.
//!
//! Every configuration succeeds on its first attempt, as the paper's
//! Eq (5)/(7) assume: a demand miss costs `T_PRTR` under PRTR and
//! `T_FRTR` under FRTR.

use hprc_sim::engine::EventQueue;
use hprc_sim::node::NodeConfig;
use hprc_sim::time::{SimDuration, SimTime};
use hprc_sim::trace::{EventKind, Lane, Timeline};
use serde::{Deserialize, Serialize};

use crate::app::App;
use crate::error::VirtError;

/// Whole-device vs partial reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigMode {
    /// Full run-time reconfiguration (vendor API, device-wide).
    Frtr,
    /// Partial run-time reconfiguration (ICAP, per-PRR).
    Prtr,
}

/// How ready applications are ordered at equal event times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// First-come first-served (arrival/issue order).
    Fcfs,
    /// Priority-ordered (lower [`App::priority`] first).
    Priority,
}

/// Runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Reconfiguration mode.
    pub mode: ReconfigMode,
    /// Scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Overlap the app's next configuration with its current execution
    /// (PRTR only).
    pub prefetch_next: bool,
}

impl RuntimeConfig {
    /// PRTR with overlap, FCFS — the best configuration the paper's
    /// model describes.
    pub fn prtr_overlapped() -> Self {
        RuntimeConfig {
            mode: ReconfigMode::Prtr,
            scheduler: SchedulerKind::Fcfs,
            prefetch_next: true,
        }
    }

    /// Demand-driven PRTR (no overlap) — the ablation baseline.
    pub fn prtr_demand() -> Self {
        RuntimeConfig {
            prefetch_next: false,
            ..Self::prtr_overlapped()
        }
    }

    /// FRTR, FCFS.
    pub fn frtr() -> Self {
        RuntimeConfig {
            mode: ReconfigMode::Frtr,
            scheduler: SchedulerKind::Fcfs,
            prefetch_next: false,
        }
    }
}

/// Timing record of one served call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallRecord {
    /// Issuing application.
    pub app: usize,
    /// Module name.
    pub module: String,
    /// Slot (PRR index; 0 for FRTR's whole device).
    pub slot: usize,
    /// Whether the module was already resident.
    pub hit: bool,
    /// When the call was issued.
    pub issued: SimTime,
    /// Configuration time charged on this call's critical path, seconds.
    pub config_s: f64,
    /// Execution window start.
    pub exec_start: SimTime,
    /// Execution window end.
    pub exec_end: SimTime,
}

/// Per-application outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppStats {
    /// Application id.
    pub app: usize,
    /// Completion time minus arrival time, seconds.
    pub turnaround_s: f64,
    /// Sum of task execution times, seconds.
    pub exec_s: f64,
    /// Calls served.
    pub calls: u64,
    /// Calls that found their module resident.
    pub hits: u64,
}

/// Result of a runtime simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Completion time of the last call, seconds.
    pub makespan_s: f64,
    /// Per-app statistics, indexed by app id.
    pub per_app: Vec<AppStats>,
    /// Every served call, in completion order.
    pub records: Vec<CallRecord>,
    /// Total (re-)configurations performed.
    pub n_config: u64,
    /// Total configuration port busy time, seconds.
    pub config_busy_s: f64,
    /// Event timeline (Gantt-renderable).
    pub timeline: Timeline,
}

impl RunReport {
    /// Aggregate hit ratio across all applications.
    pub fn hit_ratio(&self) -> f64 {
        let calls: u64 = self.per_app.iter().map(|a| a.calls).sum();
        let hits: u64 = self.per_app.iter().map(|a| a.hits).sum();
        if calls == 0 {
            0.0
        } else {
            hits as f64 / calls as f64
        }
    }

    /// Fraction of the makespan the configuration port was busy.
    pub fn config_fraction(&self) -> f64 {
        if self.makespan_s == 0.0 {
            0.0
        } else {
            self.config_busy_s / self.makespan_s
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    module: Option<String>,
    free_at: SimTime,
    last_used: SimTime,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Issue {
    app: usize,
}

/// Runs `apps` on the node under `config`.
///
/// Runtime metrics go to `ctx.registry`
/// ([`ExecCtx::default`](hprc_ctx::ExecCtx::default) records nothing):
///
/// * histogram `virt.dispatch_latency_s` — per call, time from issue to
///   execution start (the queueing + configuration + control cost the
///   caller observes);
/// * counters `virt.calls` / `virt.hits` / `virt.configs`;
/// * gauges `virt.makespan_s`, `virt.hit_ratio`, and the timeline's
///   per-lane busy time under the `virt` prefix;
/// * span `virt.run` covering the whole simulation.
///
/// # Errors
///
/// [`VirtError::NoApplications`] for an empty app list;
/// [`VirtError::BadAppIds`] when ids are not `0..n` in order (they index
/// the report); [`VirtError::NoPrrs`] for a PRTR run on a node without
/// PRRs.
pub fn run(
    node: &NodeConfig,
    apps: &[App],
    config: &RuntimeConfig,
    ctx: &hprc_ctx::ExecCtx,
) -> Result<RunReport, VirtError> {
    let registry = &ctx.registry;
    if apps.is_empty() {
        return Err(VirtError::NoApplications);
    }
    if apps.iter().enumerate().any(|(i, a)| a.id != i) {
        return Err(VirtError::BadAppIds);
    }
    if config.mode == ReconfigMode::Prtr && node.n_prrs == 0 {
        return Err(VirtError::NoPrrs);
    }
    let j = &ctx.journal;
    let js = j.enter("virt.run", 0, 0);
    let m_dispatch = registry.histogram("virt.dispatch_latency_s");
    let m_calls = registry.counter("virt.calls");
    let m_hits = registry.counter("virt.hits");
    let m_configs = registry.counter("virt.configs");

    let t_control = SimDuration::from_secs_f64(node.control_overhead_s);
    let t_partial = SimDuration::from_secs_f64(node.t_prtr_s());
    let (n_slots, t_demand, demand_kind) = match config.mode {
        ReconfigMode::Frtr => (
            1,
            SimDuration::from_secs_f64(node.t_frtr_s()),
            EventKind::FullConfig,
        ),
        ReconfigMode::Prtr => (node.n_prrs, t_partial, EventKind::PartialConfig),
    };

    let mut slots = vec![
        Slot {
            module: None,
            free_at: SimTime::ZERO,
            last_used: SimTime::ZERO,
        };
        n_slots
    ];
    let mut config_port_free = SimTime::ZERO;
    let mut config_busy_s = 0.0f64;
    let mut n_config = 0u64;
    let mut next_call = vec![0usize; apps.len()];
    let mut timeline = Timeline::default();
    let mut records = Vec::new();
    let mut stats: Vec<AppStats> = apps
        .iter()
        .map(|a| AppStats {
            app: a.id,
            turnaround_s: 0.0,
            exec_s: 0.0,
            calls: 0,
            hits: 0,
        })
        .collect();

    // Peak occupancy is one in-flight Issue per application.
    let mut queue: EventQueue<Issue> = EventQueue::instrumented_with_capacity(registry, apps.len());
    for app in apps {
        if !app.calls.is_empty() {
            let prio = match config.scheduler {
                SchedulerKind::Fcfs => 128,
                SchedulerKind::Priority => app.priority,
            };
            queue.schedule_with_priority(
                SimTime::ZERO + SimDuration::from_secs_f64(app.arrival_s),
                prio,
                Issue { app: app.id },
            );
        }
    }

    while let Some((now, Issue { app: app_id })) = queue.pop() {
        let app = &apps[app_id];
        let call = &app.calls[next_call[app_id]];
        let t_task = SimDuration::from_secs_f64(call.t_task_s);

        // Find residency.
        let resident = slots
            .iter()
            .position(|s| s.module.as_deref() == Some(call.module.as_str()));
        let (slot_idx, exec_ready, hit, config_s) = match resident {
            Some(s) => (s, now.max(slots[s].free_at), true, 0.0),
            None => {
                // LRU victim (the whole device under FRTR).
                let victim = (0..slots.len())
                    .min_by_key(|&i| (slots[i].free_at, slots[i].last_used, i))
                    .unwrap_or(0);
                let cfg_start = now.max(slots[victim].free_at).max(config_port_free);
                let cfg_end = cfg_start + t_demand;
                config_port_free = cfg_end;
                config_busy_s += t_demand.as_secs_f64();
                if config.mode == ReconfigMode::Frtr {
                    // A full bitstream overwrites the whole device.
                    for s in slots.iter_mut() {
                        s.module = None;
                    }
                }
                n_config += 1;
                timeline.push(
                    Lane::ConfigPort,
                    demand_kind,
                    format!("cfg:{}(app{})", call.module, app_id),
                    cfg_start,
                    cfg_end,
                );
                slots[victim].module = Some(call.module.clone());
                (victim, cfg_end, false, t_demand.as_secs_f64())
            }
        };

        let exec_start = exec_ready + t_control;
        timeline.push(
            Lane::Host,
            EventKind::Control,
            format!("ctl:app{app_id}"),
            exec_ready,
            exec_start,
        );
        let exec_end = exec_start + t_task;
        timeline.push(
            Lane::Prr(slot_idx),
            EventKind::Exec,
            format!("{}(app{})", call.module, app_id),
            exec_start,
            exec_end,
        );
        slots[slot_idx].free_at = exec_end;
        slots[slot_idx].last_used = exec_end;
        stats[app_id].exec_s += t_task.as_secs_f64();
        if hit {
            stats[app_id].hits += 1;
            m_hits.inc();
        }
        stats[app_id].calls += 1;
        records.push(CallRecord {
            app: app_id,
            module: call.module.clone(),
            slot: slot_idx,
            hit,
            issued: now,
            config_s,
            exec_start,
            exec_end,
        });
        m_calls.inc();
        m_dispatch.record((exec_start - now).as_secs_f64());

        // Optional overlap: configure this app's next module during the
        // current execution (PRTR only; needs a second slot).
        if config.prefetch_next && config.mode == ReconfigMode::Prtr && slots.len() > 1 {
            if let Some(next) = app.calls.get(next_call[app_id] + 1) {
                let already = slots
                    .iter()
                    .any(|s| s.module.as_deref() == Some(next.module.as_str()));
                let victim = (0..slots.len())
                    .filter(|&i| i != slot_idx)
                    .min_by_key(|&i| (slots[i].free_at, slots[i].last_used, i));
                if let (false, Some(victim)) = (already, victim) {
                    let cfg_start = exec_start.max(slots[victim].free_at).max(config_port_free);
                    let cfg_end = cfg_start + t_partial;
                    config_port_free = cfg_end;
                    config_busy_s += t_partial.as_secs_f64();
                    n_config += 1;
                    timeline.push(
                        Lane::ConfigPort,
                        EventKind::PartialConfig,
                        format!("pf:{}(app{})", next.module, app_id),
                        cfg_start,
                        cfg_end,
                    );
                    slots[victim].module = Some(next.module.clone());
                    slots[victim].free_at = slots[victim].free_at.max(cfg_end);
                }
            }
        }

        // Next call of this app, or completion.
        next_call[app_id] += 1;
        if next_call[app_id] < app.calls.len() {
            let prio = match config.scheduler {
                SchedulerKind::Fcfs => 128,
                SchedulerKind::Priority => app.priority,
            };
            queue.schedule_with_priority(exec_end, prio, Issue { app: app_id });
        } else {
            stats[app_id].turnaround_s = exec_end.as_secs_f64() - app.arrival_s;
        }
    }

    let makespan_s = records
        .iter()
        .map(|r| r.exec_end.as_secs_f64())
        .fold(0.0, f64::max);
    let report = RunReport {
        makespan_s,
        per_app: stats,
        records,
        n_config,
        config_busy_s,
        timeline,
    };
    m_configs.add(report.n_config);
    if registry.is_enabled() {
        registry.gauge("virt.makespan_s").set(report.makespan_s);
        registry.gauge("virt.hit_ratio").set(report.hit_ratio());
        report.timeline.record_metrics(registry, "virt");
    }
    j.metric("virt.calls", report.records.len() as u64);
    j.metric("virt.configs", report.n_config);
    j.exit(js, (report.makespan_s * 1e9).round() as u64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_fpga::floorplan::Floorplan;

    fn node() -> NodeConfig {
        NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
    }

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    fn cores() -> [&'static str; 3] {
        ["Median Filter", "Sobel Filter", "Smoothing Filter"]
    }

    #[test]
    fn single_app_prtr_overlapped_matches_executor() {
        // Cross-validation: 1 app cycling 3 modules over 2 PRRs with
        // next-config overlap reproduces run_prtr's all-miss schedule.
        let node = node();
        let n = 60;
        let t_task = node.t_prtr_s();
        let app = App::cycling(0, "a", &cores(), n, t_task, 0.0);
        let report = run(&node, &[app], &RuntimeConfig::prtr_overlapped(), &dctx()).unwrap();

        // The executor's all-miss steady state (equation (3) with H = 0,
        // T_decision = 0): one un-hidden leading configuration, then each
        // call adds T_control + max(T_task, T_PRTR).
        let t_ctl = node.control_overhead_s;
        let expected = node.t_prtr_s() + n as f64 * (t_ctl + t_task.max(node.t_prtr_s()));
        let rel = (report.makespan_s - expected).abs() / expected;
        assert!(
            rel < 0.01,
            "virt {} vs executor-form {expected}",
            report.makespan_s
        );
        assert_eq!(report.n_config as usize, n, "one config per call");
        // Every call after the first finds its module prefetched.
        let hits: u64 = report.per_app.iter().map(|a| a.hits).sum();
        assert_eq!(hits as usize, n - 1);
    }

    #[test]
    fn prefetched_modules_become_hits() {
        // 2 modules over 2 PRRs: after warmup everything is resident.
        let node = node();
        let app = App::cycling(0, "a", &cores()[..2], 40, 0.01, 0.0);
        let report = run(&node, &[app], &RuntimeConfig::prtr_overlapped(), &dctx()).unwrap();
        assert!(report.hit_ratio() > 0.9, "H = {}", report.hit_ratio());
        assert!(report.n_config <= 3);
    }

    #[test]
    fn demand_prtr_is_slower_than_overlapped() {
        let node = node();
        let mk = || App::cycling(0, "a", &cores(), 50, node.t_prtr_s(), 0.0);
        let overlapped = run(&node, &[mk()], &RuntimeConfig::prtr_overlapped(), &dctx()).unwrap();
        let demand = run(&node, &[mk()], &RuntimeConfig::prtr_demand(), &dctx()).unwrap();
        assert!(
            demand.makespan_s > 1.5 * overlapped.makespan_s,
            "demand {} vs overlapped {}",
            demand.makespan_s,
            overlapped.makespan_s
        );
    }

    #[test]
    fn frtr_single_app_serializes_configurations() {
        let node = node();
        let n = 5;
        let t_task = 0.01;
        let app = App::cycling(0, "a", &cores(), n, t_task, 0.0);
        let report = run(&node, &[app], &RuntimeConfig::frtr(), &dctx()).unwrap();
        let expected = n as f64 * (node.t_frtr_s() + node.control_overhead_s + t_task);
        assert!((report.makespan_s - expected).abs() / expected < 1e-6);
        assert_eq!(report.n_config as usize, n);
    }

    #[test]
    fn frtr_skips_config_for_repeated_module() {
        let node = node();
        let app = App {
            id: 0,
            name: "same".into(),
            arrival_s: 0.0,
            priority: 128,
            calls: vec![
                crate::app::VirtCall {
                    module: "Median Filter".into(),
                    t_task_s: 0.01,
                };
                4
            ],
        };
        let report = run(&node, &[app], &RuntimeConfig::frtr(), &dctx()).unwrap();
        assert_eq!(report.n_config, 1);
        assert_eq!(report.per_app[0].hits, 3);
    }

    #[test]
    fn two_apps_prtr_beats_frtr_dramatically() {
        // Two apps, each loyal to its own module: PRTR keeps both resident
        // (one PRR each); FRTR ping-pongs full configurations.
        let node = node();
        let mk = |id, m: &str| App {
            id,
            name: format!("app{id}"),
            arrival_s: 0.0,
            priority: 128,
            calls: vec![
                crate::app::VirtCall {
                    module: m.into(),
                    t_task_s: 0.005,
                };
                30
            ],
        };
        let apps = vec![mk(0, "Median Filter"), mk(1, "Sobel Filter")];
        let prtr = run(&node, &apps, &RuntimeConfig::prtr_overlapped(), &dctx()).unwrap();
        let frtr = run(&node, &apps, &RuntimeConfig::frtr(), &dctx()).unwrap();
        assert!(
            frtr.makespan_s > 50.0 * prtr.makespan_s,
            "frtr {} vs prtr {}",
            frtr.makespan_s,
            prtr.makespan_s
        );
        // PRTR: each app's module stays resident after its first load.
        assert_eq!(prtr.n_config, 2);
        assert!(prtr.hit_ratio() > 0.9);
        // FRTR: the interleaving destroys residency almost every call.
        assert!(frtr.hit_ratio() < 0.1);
    }

    #[test]
    fn priority_scheduling_reorders_equal_time_issues() {
        let node = node();
        let mk = |id, priority| App {
            id,
            name: format!("app{id}"),
            arrival_s: 0.0,
            priority,
            calls: vec![
                crate::app::VirtCall {
                    module: "Median Filter".into(),
                    t_task_s: 0.05,
                };
                4
            ],
        };
        // Same workload; app1 has the better (lower) priority value.
        let apps = vec![mk(0, 200), mk(1, 10)];
        let cfg = RuntimeConfig {
            scheduler: SchedulerKind::Priority,
            ..RuntimeConfig::prtr_overlapped()
        };
        let report = run(&node, &apps, &cfg, &dctx()).unwrap();
        let t0 = report.per_app[0].turnaround_s;
        let t1 = report.per_app[1].turnaround_s;
        assert!(t1 < t0, "priority app turnaround {t1} vs {t0}");
        // FCFS instead: app0 (scheduled first) wins.
        let fcfs = run(&node, &apps, &RuntimeConfig::prtr_overlapped(), &dctx()).unwrap();
        assert!(fcfs.per_app[0].turnaround_s < fcfs.per_app[1].turnaround_s);
    }

    #[test]
    fn arrivals_are_respected() {
        let node = node();
        let mut app = App::cycling(0, "late", &cores()[..1], 1, 0.01, 5.0);
        app.priority = 1;
        let report = run(&node, &[app], &RuntimeConfig::prtr_demand(), &dctx()).unwrap();
        assert!(report.records[0].issued.as_secs_f64() >= 5.0);
        assert!(report.makespan_s >= 5.0 + node.t_prtr_s() + 0.01);
        // Turnaround excludes the waiting-to-arrive time.
        assert!(report.per_app[0].turnaround_s < report.makespan_s);
    }

    #[test]
    fn empty_app_list_rejected() {
        assert!(matches!(
            run(&node(), &[], &RuntimeConfig::frtr(), &dctx()),
            Err(VirtError::NoApplications)
        ));
    }

    #[test]
    fn bad_ids_rejected() {
        let mut app = App::cycling(0, "a", &cores(), 1, 0.01, 0.0);
        app.id = 5;
        assert!(matches!(
            run(&node(), &[app], &RuntimeConfig::frtr(), &dctx()),
            Err(VirtError::BadAppIds)
        ));
    }

    #[test]
    fn prtr_on_a_node_without_prrs_is_rejected() {
        let node = NodeConfig {
            n_prrs: 0,
            ..node()
        };
        let apps = [App::cycling(0, "a", &cores(), 6, 0.01, 0.0)];
        assert!(matches!(
            run(&node, &apps, &RuntimeConfig::prtr_demand(), &dctx()),
            Err(VirtError::NoPrrs)
        ));
        // FRTR configures the whole device and needs no PRR.
        assert!(run(&node, &apps, &RuntimeConfig::frtr(), &dctx()).is_ok());
    }

    #[test]
    fn instrumented_run_records_dispatch_latency() {
        let node = node();
        let mk = || App::cycling(0, "a", &cores(), 30, 0.005, 0.0);
        let plain = run(&node, &[mk()], &RuntimeConfig::prtr_demand(), &dctx()).unwrap();
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let traced = run(&node, &[mk()], &RuntimeConfig::prtr_demand(), &ctx).unwrap();
        assert_eq!(
            plain, traced,
            "instrumentation must not perturb the schedule"
        );

        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["virt.calls"], 30);
        assert_eq!(snap.counters["virt.configs"], traced.n_config);
        let d = &snap.histograms["virt.dispatch_latency_s"];
        assert_eq!(d.count, 30);
        // Demand PRTR: every miss waits for a full T_PRTR before
        // executing, so the p99 dispatch latency is at least that.
        assert!(d.max >= node.t_prtr_s(), "max dispatch {}", d.max);
        assert!((snap.gauges["virt.makespan_s"] - traced.makespan_s).abs() < 1e-12);
        assert!((snap.gauges["virt.lane_busy_s.config"] - traced.config_busy_s).abs() < 1e-9);
        // The event queue was instrumented too.
        assert!(snap.counters["sim.queue.popped"] >= 30);
    }

    #[test]
    fn every_miss_is_charged_one_clean_configuration() {
        // PRTR demand and FRTR: a miss costs exactly the node's
        // configuration time, rounded to the nanosecond like every
        // simulated duration, and nothing renders as recovery.
        let node = node();
        let ns_s = |s: f64| SimDuration::from_secs_f64(s).as_secs_f64();
        for (config, t_config) in [
            (RuntimeConfig::prtr_demand(), node.t_prtr_s()),
            (RuntimeConfig::frtr(), node.t_frtr_s()),
        ] {
            let app = App::cycling(0, "a", &cores(), 20, 0.005, 0.0);
            let report = run(&node, &[app], &config, &dctx()).unwrap();
            let misses: Vec<_> = report.records.iter().filter(|r| !r.hit).collect();
            assert!(!misses.is_empty(), "{config:?}");
            for r in misses {
                assert_eq!(r.config_s, ns_s(t_config), "{config:?}");
            }
            assert!(report
                .timeline
                .iter()
                .all(|e| e.kind != EventKind::Recovery));
        }
    }

    #[test]
    fn config_fraction_accounting() {
        let node = node();
        let app = App::cycling(0, "a", &cores(), 30, 0.001, 0.0);
        let report = run(&node, &[app], &RuntimeConfig::prtr_demand(), &dctx()).unwrap();
        assert!(report.config_fraction() > 0.5, "config-bound workload");
        assert!(report.config_fraction() <= 1.0);
        let busy = report.timeline.lane_busy_s(Lane::ConfigPort);
        assert!((busy - report.config_busy_s).abs() < 1e-9);
    }
}
