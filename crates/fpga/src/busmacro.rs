//! Bus macros: fixed routing bridges across PRR boundaries.
//!
//! Section 2.2: Xilinx's bus macro "implements the connections using pairs
//! of look-up tables (LUTs): one LUT ... in the area reserved for the first
//! module, and the other one in the space for the second module", placed as
//! a hard macro so re-implementing the reconfigurable module cannot move the
//! boundary routing.

use serde::{Deserialize, Serialize};

/// The set of bus macros wiring one PRR to the static region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusMacroSet {
    /// Number of 8-bit bus macros in each direction.
    pub count: u32,
    /// Bits per macro.
    pub width_bits: u32,
}

impl BusMacroSet {
    /// The XD1 PRR interface of section 4.2: 64-bit data in, 64-bit data
    /// out, and 16 control/handshake signals for the FIFO interfaces —
    /// 144 signals = 18 eight-bit bus macros.
    pub fn xd1_prr_interface() -> Self {
        BusMacroSet {
            count: 18,
            width_bits: 8,
        }
    }

    /// Total signals crossing the boundary.
    pub fn total_signals(&self) -> u32 {
        self.count * self.width_bits
    }

    /// LUTs consumed on each side of the boundary.
    pub fn luts_per_side(&self) -> u32 {
        self.total_signals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xd1_interface_carries_144_signals() {
        let s = BusMacroSet::xd1_prr_interface();
        assert_eq!(s.total_signals(), 144);
        assert_eq!(s.luts_per_side(), 144);
    }
}
