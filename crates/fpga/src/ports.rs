//! FPGA configuration interfaces: SelectMap, JTAG, and ICAP.
//!
//! Section 4.1 of the paper: "only the JTAG and the parallel (also known as
//! SelectMap) configuration interfaces support partial reconfiguration.
//! High-end families ... feature an internal access to the parallel
//! interface, i.e. the Internal Configuration Access Port (ICAP) ... These
//! ports operate at a maximum of 66 MHz (8-bit configuration data) for the
//! Virtex-II Pro devices available in Cray XD1."

use serde::{Deserialize, Serialize};

/// The three configuration interfaces of a Virtex-II Pro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConfigPortKind {
    /// External parallel port (8-bit), used by the vendor's full
    /// configuration API on Cray XD1.
    SelectMap,
    /// External serial boundary-scan port.
    Jtag,
    /// Internal Configuration Access Port — the only interface reachable
    /// from user logic, used for the paper's PRTR work-around.
    Icap,
}

/// A configuration port with its physical parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigPort {
    /// Which interface this is.
    pub kind: ConfigPortKind,
    /// Configuration clock frequency in Hz.
    pub clock_hz: f64,
    /// Data width in bits per clock.
    pub width_bits: u32,
    /// Whether the port is driven from outside the FPGA.
    pub external: bool,
    /// Whether the interface supports partial reconfiguration.
    pub supports_partial: bool,
}

impl ConfigPort {
    /// SelectMap at its Virtex-II Pro maximum: 66 MHz × 8 bit = 66 MB/s.
    pub fn selectmap_v2pro() -> Self {
        ConfigPort {
            kind: ConfigPortKind::SelectMap,
            clock_hz: 66e6,
            width_bits: 8,
            external: true,
            supports_partial: true,
        }
    }

    /// Peak throughput in bytes per second.
    pub fn throughput_bytes_per_sec(&self) -> f64 {
        self.clock_hz * self.width_bits as f64 / 8.0
    }

    /// Best-case (peak-rate) transfer time for `bytes` of bitstream —
    /// the paper's "estimated" configuration times in Table 2.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.throughput_bytes_per_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectmap_peak_is_66_mb_per_s() {
        let p = ConfigPort::selectmap_v2pro();
        assert!((p.throughput_bytes_per_sec() - 66e6).abs() < 1.0);
        assert!(p.external);
    }

    #[test]
    fn table2_estimated_full_configuration_time() {
        // 2,381,764 bytes over SelectMap at 66 MB/s = 36.09 ms.
        let p = ConfigPort::selectmap_v2pro();
        let t = p.transfer_time_s(2_381_764);
        assert!((t * 1e3 - 36.09).abs() < 0.01, "t = {} ms", t * 1e3);
    }
}
