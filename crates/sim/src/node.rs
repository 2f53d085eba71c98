//! The simulated HPRC node: a Cray XD1 blade's acceleration subsystem
//! (Figure 6) reduced to the parameters that govern the execution model.

use hprc_fpga::floorplan::Floorplan;
use serde::{Deserialize, Serialize};

use crate::cray_api::CrayConfigApi;
use crate::icap::IcapPath;
use crate::time::SimDuration;

/// Node-level timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// Realized host↔FPGA I/O bandwidth, bytes/s (1.4 GB/s on XD1).
    pub io_bytes_per_sec: f64,
    /// Application-core clock, Hz (200 MHz for the Table 1 filters).
    pub core_clock_hz: f64,
    /// Bytes a streaming core consumes per clock.
    pub core_bytes_per_clock: f64,
    /// Pipeline fill latency, clocks.
    pub pipeline_fill_clocks: u32,
    /// Transfer-of-control overhead per call, seconds (measured ≈ 10 µs).
    pub control_overhead_s: f64,
    /// Pre-fetch decision latency `T_decision`, seconds.
    pub decision_latency_s: f64,
    /// The ICAP partial-configuration path.
    pub icap: IcapPath,
    /// The vendor full-configuration API.
    pub full_config: CrayConfigApi,
    /// Partial-bitstream size per PRR, bytes.
    pub prr_bitstream_bytes: u64,
    /// Number of PRRs in the layout.
    pub n_prrs: usize,
    /// When true, a partial reconfiguration may only start once the
    /// previous task's input data has fully arrived (the input channel is
    /// shared between bitstreams and data — section 4.1). When false, the
    /// idealized overlap of the analytical model is used.
    pub config_waits_for_data_input: bool,
}

impl NodeConfig {
    /// The **measured** Cray XD1 (Table 2's measured column): real vendor
    /// API overhead and the calibrated ICAP path.
    pub fn xd1_measured(floorplan: &Floorplan) -> NodeConfig {
        NodeConfig {
            io_bytes_per_sec: 1.4e9,
            core_clock_hz: 200e6,
            core_bytes_per_clock: 1.0,
            pipeline_fill_clocks: 1024,
            control_overhead_s: 10e-6,
            decision_latency_s: 0.0,
            icap: IcapPath::xd1(),
            full_config: CrayConfigApi::xd1_measured(floorplan.device.full_bitstream_bytes()),
            prr_bitstream_bytes: floorplan
                .mean_prr_bitstream_bytes()
                .expect("valid floorplan")
                .round() as u64,
            n_prrs: floorplan.prrs.len(),
            config_waits_for_data_input: false,
        }
    }

    /// The **estimated** (best-case) Cray XD1 (Table 2's estimated column):
    /// raw port rates, no API overhead.
    pub fn xd1_estimated(floorplan: &Floorplan) -> NodeConfig {
        NodeConfig {
            icap: IcapPath::ideal(),
            full_config: CrayConfigApi::ideal(floorplan.device.full_bitstream_bytes()),
            ..NodeConfig::xd1_measured(floorplan)
        }
    }

    /// Full configuration time `T_FRTR` in seconds.
    pub fn t_frtr_s(&self) -> f64 {
        self.full_config.full_configuration_time_s()
    }

    /// Average partial configuration time `T_PRTR` in seconds.
    pub fn t_prtr_s(&self) -> f64 {
        self.icap.transfer_time_s(self.prr_bitstream_bytes)
    }

    /// Normalized partial configuration time `X_PRTR = T_PRTR / T_FRTR`.
    pub fn x_prtr(&self) -> f64 {
        self.t_prtr_s() / self.t_frtr_s()
    }

    /// Streaming task time for a call moving `bytes_in` in and `bytes_out`
    /// out: rate-limited by the slowest of input, core, and output, plus
    /// one pipeline fill.
    pub fn task_time_s(&self, bytes_in: u64, bytes_out: u64) -> f64 {
        let t_in = bytes_in as f64 / self.io_bytes_per_sec;
        let t_out = bytes_out as f64 / self.io_bytes_per_sec;
        let t_core = bytes_in as f64 / (self.core_clock_hz * self.core_bytes_per_clock);
        let fill = self.pipeline_fill_clocks as f64 / self.core_clock_hz;
        t_in.max(t_core).max(t_out) + fill
    }

    /// Data size (symmetric in/out) whose task time equals `t_task` —
    /// the knob section 4.3 turns to sweep the x-axis of Figure 9.
    pub fn bytes_for_task_time(&self, t_task: f64) -> u64 {
        let fill = self.pipeline_fill_clocks as f64 / self.core_clock_hz;
        let effective = (t_task - fill).max(0.0);
        let bottleneck = self
            .io_bytes_per_sec
            .min(self.core_clock_hz * self.core_bytes_per_clock);
        (effective * bottleneck) as u64
    }

    /// Input-transfer duration for `bytes` (used by the shared-channel
    /// ablation).
    pub fn data_in_duration(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.io_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_fpga::floorplan::Floorplan;

    #[test]
    fn measured_node_reproduces_table2_ratios() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        assert!((node.t_frtr_s() * 1e3 - 1678.04).abs() < 0.1);
        assert!((node.t_prtr_s() * 1e3 - 19.77).abs() < 0.1);
        // Table 2: measured dual-PRR X_PRTR = 0.012.
        assert!(
            (node.x_prtr() - 0.012).abs() < 0.0005,
            "x = {}",
            node.x_prtr()
        );
    }

    #[test]
    fn estimated_node_reproduces_table2_ratios() {
        let node = NodeConfig::xd1_estimated(&Floorplan::xd1_dual_prr());
        assert!((node.t_frtr_s() * 1e3 - 36.09).abs() < 0.05);
        assert!((node.t_prtr_s() * 1e3 - 6.12).abs() < 0.05);
        // Table 2: estimated dual-PRR X_PRTR = 0.17.
        assert!(
            (node.x_prtr() - 0.17).abs() < 0.002,
            "x = {}",
            node.x_prtr()
        );
    }

    #[test]
    fn single_prr_ratios() {
        let node = NodeConfig::xd1_estimated(&Floorplan::xd1_single_prr());
        // Table 2: estimated single-PRR X_PRTR = 0.37 (ours: 889,648 B).
        assert!(
            (node.x_prtr() - 0.37).abs() < 0.005,
            "x = {}",
            node.x_prtr()
        );
        assert_eq!(node.n_prrs, 1);
    }

    #[test]
    fn task_time_inversion() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        for target in [0.005, 0.05, 0.5, 2.0] {
            let bytes = node.bytes_for_task_time(target);
            let t = node.task_time_s(bytes, bytes);
            assert!((t - target).abs() / target < 0.01, "{target} -> {t}");
        }
    }
}
