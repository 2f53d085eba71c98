//! The ICAP configuration path: the control circuit of Figure 7.
//!
//! Partial bitstreams travel host → (HyperTransport link) → BRAM buffer →
//! state machine → ICAP. The ICAP port itself runs at 66 MB/s peak, but the
//! control FSM costs extra cycles per byte and per BRAM burst, which is why
//! the paper's *measured* partial configuration times (Table 2) are ~3.2×
//! the SelectMap-rate *estimates*.
//!
//! Calibration: 3 FSM cycles per byte (BRAM read, ICAP write, handshake)
//! plus 59 cycles per 256-byte burst (refill arbitration) gives an
//! effective 20.43 MB/s — reproducing Table 2's measured 19.77 ms (dual
//! PRR, 404,168 B) and 43.48 ms (single PRR, 887,784 B) to within 0.1 %.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::time::SimDuration;

/// The ICAP feeder: clock, FSM cost model, and BRAM buffering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IcapPath {
    /// ICAP/controller clock in Hz (66 MHz on Virtex-II Pro).
    pub clock_hz: f64,
    /// FSM cycles consumed per payload byte.
    pub cycles_per_byte: u32,
    /// Extra FSM cycles per BRAM burst (refill arbitration).
    pub cycles_per_burst: u32,
    /// BRAM burst length in bytes.
    pub burst_bytes: u32,
    /// Total BRAM buffer in bytes (8 block RAMs on the XD1 controller).
    pub bram_buffer_bytes: u32,
    /// Host-link bandwidth available for filling the buffer, bytes/s.
    pub link_bytes_per_sec: f64,
}

impl IcapPath {
    /// The calibrated Cray XD1 controller (Figure 7 / Table 2).
    pub fn xd1() -> IcapPath {
        IcapPath {
            clock_hz: 66e6,
            cycles_per_byte: 3,
            cycles_per_burst: 59,
            burst_bytes: 256,
            bram_buffer_bytes: 8 * 2048,
            link_bytes_per_sec: 1.6e9,
        }
    }

    /// An idealized ICAP running at the raw port rate (1 cycle/byte, no
    /// burst cost) — produces the *estimated* times of Table 2.
    pub fn ideal() -> IcapPath {
        IcapPath {
            cycles_per_byte: 1,
            cycles_per_burst: 0,
            ..IcapPath::xd1()
        }
    }

    /// Effective throughput in bytes per second.
    pub fn effective_bytes_per_sec(&self) -> f64 {
        let cycles_per_byte =
            self.cycles_per_byte as f64 + self.cycles_per_burst as f64 / self.burst_bytes as f64;
        self.clock_hz / cycles_per_byte
    }

    /// Time to push `bytes` of partial bitstream through the ICAP path.
    ///
    /// The BRAM double-buffer lets the link refill one half while the FSM
    /// drains the other; with the link far faster than the drain, the total
    /// is the drain time plus the first half-buffer fill.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let first_fill =
            (self.bram_buffer_bytes as f64 / 2.0).min(bytes as f64) / self.link_bytes_per_sec;
        let bursts = (bytes as f64 / self.burst_bytes as f64).ceil();
        let cycles =
            bytes as f64 * self.cycles_per_byte as f64 + bursts * self.cycles_per_burst as f64;
        let drain = cycles / self.clock_hz;
        // A link slower than the drain rate would throttle the FSM instead.
        let link_bound = bytes as f64 / self.link_bytes_per_sec;
        first_fill + drain.max(link_bound)
    }

    /// [`IcapPath::transfer_time_s`] as a [`SimDuration`].
    pub fn transfer_duration(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.transfer_time_s(bytes))
    }

    /// One fault-injectable transfer attempt: the injection hook the
    /// faulty PRTR executor drives. Counts `sim.icap.transfers` /
    /// `sim.icap.bytes` for every attempt (failed attempts consumed the
    /// port just the same) and returns the transfer duration on
    /// success. On an injected fault, bumps `sim.icap.faults` and
    /// returns [`SimError::TransientFault`] — the caller's recovery
    /// policy decides what happens next; the whole `transfer_duration`
    /// still elapsed (a CRC mismatch or timeout is detected at the end
    /// of the window).
    pub fn transfer_attempt(
        &self,
        bytes: u64,
        outcome: hprc_fault::AttemptOutcome,
        ctx: &hprc_ctx::ExecCtx,
    ) -> Result<SimDuration, SimError> {
        let d = self.transfer_duration(bytes);
        ctx.registry.counter("sim.icap.transfers").inc();
        ctx.registry.counter("sim.icap.bytes").add(bytes);
        match outcome {
            hprc_fault::AttemptOutcome::Success => Ok(d),
            hprc_fault::AttemptOutcome::Fault(site) => {
                ctx.registry.counter("sim.icap.faults").inc();
                Err(SimError::TransientFault(format!(
                    "icap transfer failed: {}",
                    site.name()
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_rate_is_about_20_mb_per_s() {
        let r = IcapPath::xd1().effective_bytes_per_sec();
        assert!((r / 1e6 - 20.43).abs() < 0.01, "rate = {} MB/s", r / 1e6);
    }

    #[test]
    fn table2_measured_dual_prr_time() {
        let t = IcapPath::xd1().transfer_time_s(404_168);
        assert!((t * 1e3 - 19.77).abs() < 0.1, "t = {} ms", t * 1e3);
    }

    #[test]
    fn table2_measured_single_prr_time() {
        let t = IcapPath::xd1().transfer_time_s(887_784);
        assert!((t * 1e3 - 43.48).abs() < 0.15, "t = {} ms", t * 1e3);
    }

    #[test]
    fn ideal_path_matches_selectmap_estimate() {
        // Table 2's estimated dual-PRR time: 6.12 ms at the raw 66 MB/s.
        let t = IcapPath::ideal().transfer_time_s(404_168);
        assert!((t * 1e3 - 6.12).abs() < 0.05, "t = {} ms", t * 1e3);
    }

    #[test]
    fn slow_link_throttles() {
        let slow = IcapPath {
            link_bytes_per_sec: 1e6, // 1 MB/s link << 20 MB/s drain
            ..IcapPath::xd1()
        };
        let t = slow.transfer_time_s(1_000_000);
        assert!(t >= 1.0, "t = {t}");
    }

    #[test]
    fn zero_bytes_take_zero_time() {
        assert_eq!(IcapPath::xd1().transfer_time_s(0), 0.0);
    }

    #[test]
    fn transfer_attempt_counts_faults_and_keeps_timing() {
        use hprc_fault::{AttemptOutcome, FaultSite};
        let ctx = hprc_ctx::ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let p = IcapPath::xd1();
        let ok = p.transfer_attempt(404_168, AttemptOutcome::Success, &ctx);
        assert_eq!(ok.unwrap(), p.transfer_duration(404_168));
        let err = p.transfer_attempt(404_168, AttemptOutcome::Fault(FaultSite::IcapTimeout), &ctx);
        assert!(matches!(err, Err(SimError::TransientFault(_))));
        let snap = ctx.registry.snapshot();
        // Both attempts consumed the port.
        assert_eq!(snap.counters["sim.icap.transfers"], 2);
        assert_eq!(snap.counters["sim.icap.bytes"], 2 * 404_168);
        assert_eq!(snap.counters["sim.icap.faults"], 1);
    }

    #[test]
    fn monotone_in_bytes() {
        let p = IcapPath::xd1();
        let mut prev = 0.0;
        for bytes in [1u64, 100, 10_000, 1_000_000] {
            let t = p.transfer_time_s(bytes);
            assert!(t > prev);
            prev = t;
        }
    }
}
