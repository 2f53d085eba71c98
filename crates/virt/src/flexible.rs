//! The flexible runtime: variable-width modules inside one reconfigurable
//! window, with demand allocation, LRU eviction, and optional on-block
//! defragmentation.
//!
//! The fixed-PRR runtime of [`crate::runtime`] mirrors the paper's
//! experimental layouts; this runtime mirrors where its discussion points
//! — "the partitions (PRRs) must be so fine grained to match the task
//! time requirements" — by letting every module occupy exactly the
//! columns it needs. Configuration time now scales with module width
//! (smaller cores reconfigure faster), fragmentation becomes a real
//! phenomenon, and the defragmentation machinery of
//! `hprc_fpga::allocator` earns its ICAP cost on-line.

use std::collections::HashMap;
use std::ops::Range;

use hprc_fpga::allocator::WindowAllocator;
use hprc_fpga::device::Device;
use hprc_sim::engine::EventQueue;
use hprc_sim::node::NodeConfig;
use hprc_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::VirtError;

/// One call of a flexible application: a module, its column width, and
/// its task time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexCall {
    /// Module name (the residency key).
    pub module: String,
    /// Columns the module occupies when resident.
    pub width_cols: usize,
    /// Task execution time, seconds.
    pub t_task_s: f64,
}

/// A flexible application: arrival plus an ordered call stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexApp {
    /// Stable id (= index in the app list).
    pub id: usize,
    /// Name for reports.
    pub name: String,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Calls, strictly in order.
    pub calls: Vec<FlexCall>,
}

/// What to do when an allocation is blocked by fragmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefragPolicy {
    /// Only evict (LRU) until the allocation fits.
    Never,
    /// First compact the window (paying the relocation ICAP time), then
    /// evict if still necessary.
    OnBlock,
}

/// Flexible-runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlexConfig {
    /// Defragmentation policy.
    pub defrag: DefragPolicy,
}

/// Result of a flexible run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexReport {
    /// Completion time of the last call, seconds.
    pub makespan_s: f64,
    /// Demand configurations performed.
    pub n_config: u64,
    /// Calls whose module was resident (no configuration).
    pub hits: u64,
    /// Total calls served.
    pub calls: u64,
    /// Defragmentation passes run.
    pub defrags: u64,
    /// Total ICAP time spent on defragmentation moves, seconds.
    pub defrag_time_s: f64,
    /// Evictions forced by lack of space.
    pub evictions: u64,
    /// Peak external fragmentation observed at allocation attempts.
    pub peak_fragmentation: f64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Issue {
    app: usize,
}

/// Per-resident-module bookkeeping.
#[derive(Debug, Clone)]
struct Resident {
    free_at: SimTime,
    last_used: SimTime,
}

/// Runs flexible applications over `window` of `device` on `node` timing.
///
/// Metrics go to `ctx.registry`
/// ([`ExecCtx::default`](hprc_ctx::ExecCtx::default) records nothing):
/// counters `virt.flex.calls` / `.hits` / `.configs` / `.evictions` /
/// `.defrags`, gauges `virt.flex.makespan_s` /
/// `.peak_fragmentation` / `.defrag_time_s`, a
/// `virt.flex.config_bytes` histogram of demand-configuration sizes,
/// and a `virt.run_flexible` span over the whole simulation.
///
/// # Errors
///
/// [`VirtError::NoApplications`] / [`VirtError::BadAppIds`] as in the
/// fixed runtime; [`VirtError::WindowOutOfRange`] for an empty window
/// or one that reaches past the device; [`VirtError::ModuleTooWide`]
/// when a call's width exceeds the whole window.
/// ```
/// use hprc_ctx::ExecCtx;
/// use hprc_fpga::device::Device;
/// use hprc_fpga::floorplan::Floorplan;
/// use hprc_sim::node::NodeConfig;
/// use hprc_virt::flexible::{run_flexible, DefragPolicy, FlexApp, FlexCall, FlexConfig};
///
/// let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
/// let device = Device::xc2vp50();
/// let n = device.columns.len();
/// let app = FlexApp {
///     id: 0,
///     name: "demo".into(),
///     arrival_s: 0.0,
///     calls: vec![
///         FlexCall { module: "sobel".into(), width_cols: 2, t_task_s: 0.001 };
///         5
///     ],
/// };
/// let report = run_flexible(&node, &device, (n - 15)..(n - 2), &[app],
///     &FlexConfig { defrag: DefragPolicy::OnBlock }, &ExecCtx::default()).unwrap();
/// assert_eq!(report.n_config, 1); // configured once, then resident
/// assert_eq!(report.hits, 4);
/// ```
///
pub fn run_flexible(
    node: &NodeConfig,
    device: &Device,
    window: Range<usize>,
    apps: &[FlexApp],
    config: &FlexConfig,
    ctx: &hprc_ctx::ExecCtx,
) -> Result<FlexReport, VirtError> {
    let registry = &ctx.registry;
    if apps.is_empty() {
        return Err(VirtError::NoApplications);
    }
    if apps.iter().enumerate().any(|(i, a)| a.id != i) {
        return Err(VirtError::BadAppIds);
    }
    let window_width = window.len();
    let mut alloc =
        WindowAllocator::new(device, window.clone()).map_err(|_| VirtError::WindowOutOfRange {
            start: window.start,
            end: window.end,
            device_columns: device.columns.len(),
        })?;
    for app in apps {
        if let Some(c) = app
            .calls
            .iter()
            .find(|c| c.width_cols > window_width || c.width_cols == 0)
        {
            return Err(VirtError::ModuleTooWide {
                module: c.module.clone(),
                width: c.width_cols,
                window: window_width,
            });
        }
    }

    let mut residents: HashMap<String, Resident> = HashMap::new();
    let mut icap_free = SimTime::ZERO;
    let t_control = SimDuration::from_secs_f64(node.control_overhead_s);

    let m_calls = registry.counter("virt.flex.calls");
    let m_hits = registry.counter("virt.flex.hits");
    let m_configs = registry.counter("virt.flex.configs");
    let m_config_bytes = registry.histogram("virt.flex.config_bytes");

    // Peak occupancy is one in-flight Issue per application.
    let mut queue: EventQueue<Issue> = EventQueue::instrumented_with_capacity(registry, apps.len());
    let mut next_call = vec![0usize; apps.len()];
    for app in apps {
        if !app.calls.is_empty() {
            queue.schedule(
                SimTime::ZERO + SimDuration::from_secs_f64(app.arrival_s),
                Issue { app: app.id },
            );
        }
    }

    let mut report = FlexReport {
        makespan_s: 0.0,
        n_config: 0,
        hits: 0,
        calls: 0,
        defrags: 0,
        defrag_time_s: 0.0,
        evictions: 0,
        peak_fragmentation: 0.0,
    };

    while let Some((now, Issue { app: app_id })) = queue.pop() {
        let app = &apps[app_id];
        let call = &app.calls[next_call[app_id]];
        report.calls += 1;
        m_calls.inc();

        let exec_ready = if let Some(r) = residents.get(&call.module) {
            // Hit: wait only for the module's own previous work.
            report.hits += 1;
            m_hits.inc();
            now.max(r.free_at)
        } else {
            // Demand allocation.
            report.peak_fragmentation = report
                .peak_fragmentation
                .max(alloc.external_fragmentation());
            let mut earliest = now;
            while alloc.allocate(&call.module, call.width_cols).is_err() {
                // Blocked. Defragment only when fragmentation (not raw
                // capacity) is the blocker: enough free columns exist but
                // no contiguous run fits.
                if config.defrag == DefragPolicy::OnBlock && alloc.free_columns() >= call.width_cols
                {
                    let plan = alloc.defragment();
                    if !plan.moves.is_empty() {
                        report.defrags += 1;
                        let d = node.icap.transfer_time_s(plan.bytes_moved);
                        report.defrag_time_s += d;
                        let start = earliest.max(icap_free);
                        icap_free = start + SimDuration::from_secs_f64(d);
                        earliest = icap_free;
                    }
                    if alloc.allocate(&call.module, call.width_cols).is_ok() {
                        break;
                    }
                }
                // Evict the least-recently-used resident.
                let victim = residents
                    .iter()
                    .min_by_key(|(name, r)| (r.last_used, name.as_str().to_owned()))
                    .map(|(name, _)| name.clone());
                match victim {
                    Some(name) => {
                        let r = residents.remove(&name).expect("present");
                        // Cannot evict a module mid-execution: wait.
                        earliest = earliest.max(r.free_at);
                        alloc.free(&name).expect("allocated");
                        report.evictions += 1;
                    }
                    None => unreachable!("width checked against the window"),
                }
            }
            // Configure the freshly allocated columns.
            let cols = alloc
                .allocation(&call.module)
                .expect("just allocated")
                .collect::<Vec<_>>();
            let bytes = device
                .partial_bitstream_bytes(&cols)
                .expect("window validated");
            let cfg_start = earliest.max(icap_free);
            let cfg_end = cfg_start + node.icap.transfer_duration(bytes);
            icap_free = cfg_end;
            report.n_config += 1;
            m_configs.inc();
            m_config_bytes.record(bytes as f64);
            residents.insert(
                call.module.clone(),
                Resident {
                    free_at: cfg_end,
                    last_used: cfg_end,
                },
            );
            cfg_end
        };

        let exec_start = exec_ready + t_control;
        let exec_end = exec_start + SimDuration::from_secs_f64(call.t_task_s);
        let r = residents.get_mut(&call.module).expect("resident");
        r.free_at = exec_end;
        r.last_used = exec_end;
        report.makespan_s = report.makespan_s.max(exec_end.as_secs_f64());

        next_call[app_id] += 1;
        if next_call[app_id] < app.calls.len() {
            queue.schedule(exec_end, Issue { app: app_id });
        }
    }

    if registry.is_enabled() {
        registry
            .counter("virt.flex.evictions")
            .add(report.evictions);
        registry.counter("virt.flex.defrags").add(report.defrags);
        registry
            .gauge("virt.flex.makespan_s")
            .set(report.makespan_s);
        registry
            .gauge("virt.flex.peak_fragmentation")
            .set(report.peak_fragmentation);
        registry
            .gauge("virt.flex.defrag_time_s")
            .set(report.defrag_time_s);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_fpga::device::{ColumnKind, Device};
    use hprc_fpga::floorplan::Floorplan;

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    fn setup() -> (NodeConfig, Device, Range<usize>) {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let device = Device::xc2vp50();
        let ncols = device.columns.len();
        let window = (ncols - 15)..(ncols - 2); // 13 uniform CLB columns
        assert!(window
            .clone()
            .all(|i| matches!(device.columns[i].kind, ColumnKind::Clb { .. })));
        (node, device, window)
    }

    fn app(id: usize, specs: &[(&str, usize, f64)], repeat: usize, arrival: f64) -> FlexApp {
        FlexApp {
            id,
            name: format!("app{id}"),
            arrival_s: arrival,
            calls: specs
                .iter()
                .cycle()
                .take(specs.len() * repeat)
                .map(|&(m, w, t)| FlexCall {
                    module: m.into(),
                    width_cols: w,
                    t_task_s: t,
                })
                .collect(),
        }
    }

    #[test]
    fn narrow_modules_configure_faster_than_wide_ones() {
        let (node, device, window) = setup();
        let cfg = FlexConfig {
            defrag: DefragPolicy::Never,
        };
        let run_width = |w: usize| {
            // Alternate two modules of width w so every call reconfigures.
            let a = app(0, &[("m1", w, 1e-4), ("m2", w, 1e-4)], 20, 0.0);
            run_flexible(&node, &device, window.clone(), &[a], &cfg, &dctx())
                .unwrap()
                .makespan_s
        };
        let narrow = run_width(2);
        let wide = run_width(6);
        // Both module pairs fit resident, so the difference is the initial
        // configurations: a 6-column bitstream is ~2.7x a 2-column one,
        // diluted by the (equal) control/task components.
        assert!(
            wide > 1.8 * narrow,
            "wide {wide} vs narrow {narrow}: config time must scale with width"
        );
    }

    #[test]
    fn resident_working_set_hits() {
        let (node, device, window) = setup();
        // Three 4-column modules fit the 13-column window together.
        let a = app(
            0,
            &[("x", 4, 0.001), ("y", 4, 0.001), ("z", 4, 0.001)],
            30,
            0.0,
        );
        let r = run_flexible(
            &node,
            &device,
            window,
            &[a],
            &FlexConfig {
                defrag: DefragPolicy::Never,
            },
            &dctx(),
        )
        .unwrap();
        assert_eq!(r.n_config, 3, "one config per module, then residency");
        assert_eq!(r.hits, 87);
        assert_eq!(r.evictions, 0);
    }

    #[test]
    fn oversubscription_forces_evictions() {
        let (node, device, window) = setup();
        // Four 4-column modules cannot all fit 13 columns.
        let a = app(
            0,
            &[
                ("a", 4, 0.001),
                ("b", 4, 0.001),
                ("c", 4, 0.001),
                ("d", 4, 0.001),
            ],
            10,
            0.0,
        );
        let r = run_flexible(
            &node,
            &device,
            window,
            &[a],
            &FlexConfig {
                defrag: DefragPolicy::Never,
            },
            &dctx(),
        )
        .unwrap();
        assert!(r.evictions > 0);
        assert!(r.n_config > 4);
    }

    #[test]
    fn defrag_on_block_reduces_evictions_for_mixed_widths() {
        let (node, device, window) = setup();
        // Width mix engineered to fragment: small modules pepper the
        // window, then a wide module arrives repeatedly.
        let mk = || {
            app(
                0,
                &[
                    ("s1", 3, 0.002),
                    ("s2", 3, 0.002),
                    ("s3", 3, 0.002),
                    ("wide", 6, 0.002),
                ],
                12,
                0.0,
            )
        };
        let never = run_flexible(
            &node,
            &device,
            window.clone(),
            &[mk()],
            &FlexConfig {
                defrag: DefragPolicy::Never,
            },
            &dctx(),
        )
        .unwrap();
        let onblock = run_flexible(
            &node,
            &device,
            window,
            &[mk()],
            &FlexConfig {
                defrag: DefragPolicy::OnBlock,
            },
            &dctx(),
        )
        .unwrap();
        assert!(onblock.defrags > 0, "defrag must trigger: {onblock:?}");
        assert!(
            onblock.evictions <= never.evictions,
            "defrag should reduce evictions: {} vs {}",
            onblock.evictions,
            never.evictions
        );
    }

    #[test]
    fn two_apps_share_the_window() {
        let (node, device, window) = setup();
        let a0 = app(0, &[("m0", 5, 0.003)], 20, 0.0);
        let a1 = app(1, &[("m1", 5, 0.003)], 20, 0.0);
        let r = run_flexible(
            &node,
            &device,
            window,
            &[a0, a1],
            &FlexConfig {
                defrag: DefragPolicy::Never,
            },
            &dctx(),
        )
        .unwrap();
        // Both fit: one config each, everything else hits.
        assert_eq!(r.n_config, 2);
        assert_eq!(r.hits, 38);
        // Apps execute concurrently in their own regions: the makespan is
        // close to one app's serial execution, not two.
        assert!(
            r.makespan_s < 0.003 * 25.0 + 0.2,
            "makespan {}",
            r.makespan_s
        );
    }

    #[test]
    fn instrumented_flexible_run_is_neutral_and_accounted() {
        let (node, device, window) = setup();
        let mk = || {
            app(
                0,
                &[("x", 4, 0.001), ("y", 4, 0.001), ("z", 4, 0.001)],
                30,
                0.0,
            )
        };
        let cfg = FlexConfig {
            defrag: DefragPolicy::Never,
        };
        let plain = run_flexible(&node, &device, window.clone(), &[mk()], &cfg, &dctx()).unwrap();
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let traced = run_flexible(&node, &device, window, &[mk()], &cfg, &ctx).unwrap();
        assert_eq!(plain, traced, "instrumentation must not perturb timing");

        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counters["virt.flex.calls"], traced.calls);
        assert_eq!(snap.counters["virt.flex.hits"], traced.hits);
        assert_eq!(snap.counters["virt.flex.configs"], traced.n_config);
        assert_eq!(
            snap.histograms["virt.flex.config_bytes"].count,
            traced.n_config
        );
        assert!((snap.gauges["virt.flex.makespan_s"] - traced.makespan_s).abs() < 1e-12);
        assert!(snap.counters["sim.queue.popped"] >= traced.calls);
    }

    #[test]
    fn window_past_the_device_or_empty_is_rejected() {
        let (node, device, _) = setup();
        let n = device.columns.len();
        let apps = [app(0, &[("sobel", 2, 0.001)], 1, 0.0)];
        let cfg = FlexConfig {
            defrag: DefragPolicy::Never,
        };
        for window in [(n - 4)..(n + 4), (n - 4)..(n - 4)] {
            assert_eq!(
                run_flexible(&node, &device, window.clone(), &apps, &cfg, &dctx()).err(),
                Some(VirtError::WindowOutOfRange {
                    start: window.start,
                    end: window.end,
                    device_columns: n,
                })
            );
        }
    }

    #[test]
    fn too_wide_module_rejected() {
        let (node, device, window) = setup();
        let a = app(0, &[("huge", 99, 0.001)], 1, 0.0);
        assert!(matches!(
            run_flexible(
                &node,
                &device,
                window,
                &[a],
                &FlexConfig {
                    defrag: DefragPolicy::Never
                },
                &dctx()
            ),
            Err(VirtError::ModuleTooWide { .. })
        ));
    }
}
