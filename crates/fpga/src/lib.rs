//! # hprc-fpga
//!
//! FPGA substrate for the PRTR-bounds reproduction: a Virtex-II Pro-class
//! device model (calibrated to the **XC2VP50** of the Cray XD1), its
//! column-oriented configuration memory, partial-bitstream generation in
//! both Xilinx flows, floorplanning with Partially Reconfigurable Regions
//! (PRRs) and bus macros, and a hardware-module library matching the
//! paper's Table 1.
//!
//! Modules:
//!
//! * [`device`] — device geometry (columns, frames, PPC holes, capacity);
//! * [`frames`] — configuration memory, frame writes with glitch-free
//!   toggle accounting;
//! * [`bitstream`] — full, module-based partial, and difference-based
//!   partial bitstream generation (`n` vs `n(n-1)` inventories);
//! * [`floorplan`] — static region + PRRs; the XD1 single- and dual-PRR
//!   layouts of Figure 8;
//! * [`busmacro`] — fixed LUT-pair routing bridges at PRR boundaries;
//! * [`ports`] — SelectMap/JTAG/ICAP configuration interfaces;
//! * [`module`] — the hardware library of Table 1;
//! * [`placement`] — fitting modules into PRRs / the static region;
//! * [`relocation`] — shape compatibility of PRRs for relocating
//!   partial bitstreams (the literature's relocation assumption made
//!   explicit);
//! * [`compress`] — frame-oriented RLE bitstream compression;
//! * [`allocator`] — first-fit column allocation inside a reconfigurable
//!   window, with relocation-based defragmentation;
//! * [`resources`] — LUT/FF/BRAM bookkeeping and utilization.
//!
//! ## Example: Table 2's bitstream sizes from first principles
//!
//! ```
//! use hprc_fpga::floorplan::Floorplan;
//!
//! let fp = Floorplan::xd1_dual_prr();
//! assert_eq!(fp.device.full_bitstream_bytes(), 2_381_764);
//! let prr = &fp.prrs[0];
//! assert_eq!(prr.region.partial_bitstream_bytes(&fp.device).unwrap(), 404_168);
//! ```

#![warn(missing_docs)]

pub mod allocator;
pub mod bitstream;
pub mod busmacro;
pub mod compress;
pub mod device;
pub mod error;
pub mod floorplan;
pub mod frames;
pub mod module;
pub mod placement;
pub mod ports;
pub mod relocation;
pub mod resources;

pub use bitstream::{Bitstream, BitstreamKind};
pub use device::{ColumnKind, Device};
pub use error::FpgaError;
pub use floorplan::{Floorplan, Prr, Region};
pub use frames::{ConfigMemory, FrameAddress};
pub use module::{HwModule, ModuleClass, ModuleLibrary};
pub use ports::{ConfigPort, ConfigPortKind};
pub use resources::{Resources, Utilization};
