//! Dynamic region allocation and defragmentation.
//!
//! The configuration-caching literature the paper builds on assumes
//! modules can be placed in variable-size regions and *defragmented* (its
//! reference \[24\]: "... Partial Reconfigurable Coprocessor with Relocation
//! and Defragmentation"). This module implements that layer over the
//! column-addressed device: modules request a column width inside a
//! reconfigurable window, a first-fit allocator places them, and a
//! defragmenter compacts the window leftwards using shape-compatible
//! relocation moves ([`crate::relocation`]) — reporting which modules are
//! pinned by column-kind mismatches, a constraint flat memory models miss.

use std::collections::BTreeMap;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::device::Device;
use crate::error::FpgaError;
use crate::floorplan::Region;
use crate::relocation::check_compatibility;

/// One relocation step of a defragmentation plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefragMove {
    /// Module being moved.
    pub name: String,
    /// Columns it vacates.
    pub from: Range<usize>,
    /// Columns it now occupies.
    pub to: Range<usize>,
    /// Partial-bitstream bytes that must be rewritten for the move.
    pub bytes: u64,
}

/// Outcome of a defragmentation pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefragPlan {
    /// Moves, in execution order.
    pub moves: Vec<DefragMove>,
    /// Modules that could not be moved (no shape-compatible position
    /// further left).
    pub pinned: Vec<String>,
    /// Total bitstream bytes rewritten.
    pub bytes_moved: u64,
}

/// A first-fit column allocator over a contiguous reconfigurable window.
#[derive(Debug, Clone)]
pub struct WindowAllocator<'d> {
    device: &'d Device,
    window: Range<usize>,
    /// `name -> columns`, kept sorted by name for determinism; the range
    /// set is kept non-overlapping.
    allocations: BTreeMap<String, Range<usize>>,
}

impl<'d> WindowAllocator<'d> {
    /// Creates an allocator over `window`.
    ///
    /// # Errors
    ///
    /// [`FpgaError::ColumnOutOfRange`] for an out-of-device window.
    pub fn new(device: &'d Device, window: Range<usize>) -> Result<Self, FpgaError> {
        if window.end > device.columns.len() || window.start >= window.end {
            return Err(FpgaError::ColumnOutOfRange {
                column: window.end.max(window.start),
                device_columns: device.columns.len(),
            });
        }
        Ok(WindowAllocator {
            device,
            window,
            allocations: BTreeMap::new(),
        })
    }

    /// Columns of the window currently free.
    pub fn free_columns(&self) -> usize {
        self.window.len() - self.allocations.values().map(|r| r.len()).sum::<usize>()
    }

    /// The free runs (maximal gaps), left to right.
    pub fn free_runs(&self) -> Vec<Range<usize>> {
        let mut used: Vec<&Range<usize>> = self.allocations.values().collect();
        used.sort_by_key(|r| r.start);
        let mut runs = Vec::new();
        let mut cursor = self.window.start;
        for r in used {
            if r.start > cursor {
                runs.push(cursor..r.start);
            }
            cursor = r.end;
        }
        if cursor < self.window.end {
            runs.push(cursor..self.window.end);
        }
        runs
    }

    /// Width of the largest free run.
    pub fn largest_free_run(&self) -> usize {
        self.free_runs()
            .into_iter()
            .map(|r| r.len())
            .max()
            .unwrap_or(0)
    }

    /// External fragmentation: `1 - largest_run / free` (0 when the free
    /// space is one contiguous run or there is none).
    pub fn external_fragmentation(&self) -> f64 {
        let free = self.free_columns();
        if free == 0 {
            0.0
        } else {
            1.0 - self.largest_free_run() as f64 / free as f64
        }
    }

    /// Allocates `width` contiguous columns for `name`, first-fit.
    ///
    /// # Errors
    ///
    /// [`FpgaError::PlacementFailed`] when no gap is wide enough or the
    /// name is already allocated; note that fragmentation can fail an
    /// allocation even when `free_columns() >= width`.
    /// ```
    /// use hprc_fpga::allocator::WindowAllocator;
    /// use hprc_fpga::device::Device;
    ///
    /// let device = Device::xc2vp50();
    /// let n = device.columns.len();
    /// // The rightmost run of 13 uniform CLB columns.
    /// let mut alloc = WindowAllocator::new(&device, (n - 15)..(n - 2)).unwrap();
    /// let sobel = alloc.allocate("sobel", 2).unwrap();
    /// assert_eq!(sobel.len(), 2);
    /// assert_eq!(alloc.free_columns(), 11);
    /// ```
    ///
    pub fn allocate(
        &mut self,
        name: impl Into<String>,
        width: usize,
    ) -> Result<Range<usize>, FpgaError> {
        let name = name.into();
        if width == 0 {
            return Err(FpgaError::PlacementFailed("zero-width request".into()));
        }
        if self.allocations.contains_key(&name) {
            return Err(FpgaError::PlacementFailed(format!(
                "{name} is already allocated"
            )));
        }
        let run = self
            .free_runs()
            .into_iter()
            .find(|r| r.len() >= width)
            .ok_or_else(|| {
                FpgaError::PlacementFailed(format!(
                    "no contiguous {width}-column gap (free = {}, largest run = {})",
                    self.free_columns(),
                    self.largest_free_run()
                ))
            })?;
        let columns = run.start..run.start + width;
        self.allocations.insert(name, columns.clone());
        Ok(columns)
    }

    /// Frees `name`'s columns.
    ///
    /// # Errors
    ///
    /// [`FpgaError::PlacementFailed`] for unknown names.
    pub fn free(&mut self, name: &str) -> Result<Range<usize>, FpgaError> {
        self.allocations
            .remove(name)
            .ok_or_else(|| FpgaError::PlacementFailed(format!("{name} is not allocated")))
    }

    /// Current allocation of `name`.
    pub fn allocation(&self, name: &str) -> Option<Range<usize>> {
        self.allocations.get(name).cloned()
    }

    /// Compacts allocations leftwards with shape-compatible relocation
    /// moves. Modules whose column-kind signature matches no free position
    /// further left stay pinned.
    pub fn defragment(&mut self) -> DefragPlan {
        let mut moves = Vec::new();
        let mut pinned = Vec::new();
        // Process allocations left to right so compaction cascades.
        let mut order: Vec<(String, Range<usize>)> = self
            .allocations
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect();
        order.sort_by_key(|(_, r)| r.start);
        for (name, from) in order {
            let width = from.len();
            // Candidate positions: every start inside free runs left of the
            // current position.
            let mut target: Option<Range<usize>> = None;
            for run in self.free_runs() {
                if run.start >= from.start {
                    break;
                }
                let mut start = run.start;
                while start + width <= run.end.min(from.start) {
                    let cand = start..start + width;
                    let from_region = Region {
                        name: name.clone(),
                        columns: from.clone(),
                    };
                    let to_region = Region {
                        name: name.clone(),
                        columns: cand.clone(),
                    };
                    if check_compatibility(self.device, &from_region, &to_region).is_compatible() {
                        target = Some(cand);
                        break;
                    }
                    start += 1;
                }
                if target.is_some() {
                    break;
                }
            }
            match target {
                Some(to) => {
                    let bytes = self
                        .device
                        .partial_bitstream_bytes(&to.clone().collect::<Vec<_>>())
                        .expect("window validated");
                    self.allocations.insert(name.clone(), to.clone());
                    moves.push(DefragMove {
                        name,
                        from,
                        to,
                        bytes,
                    });
                }
                None => pinned.push(name),
            }
        }
        DefragPlan {
            bytes_moved: moves.iter().map(|m| m.bytes).sum(),
            moves,
            pinned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{ColumnKind, Device};

    /// The rightmost run of 13 uniform CLB columns on the XC2VP50.
    fn uniform_window(device: &Device) -> Range<usize> {
        let ncols = device.columns.len();
        // [.., 13 CLB, BRAM, IOB]: the 13 CLBs sit at ncols-15..ncols-2.
        let win = (ncols - 15)..(ncols - 2);
        assert!(win
            .clone()
            .all(|i| matches!(device.columns[i].kind, ColumnKind::Clb { .. })));
        win
    }

    #[test]
    fn first_fit_allocates_and_frees() {
        let d = Device::xc2vp50();
        let mut a = WindowAllocator::new(&d, uniform_window(&d)).unwrap();
        let r1 = a.allocate("m1", 4).unwrap();
        let r2 = a.allocate("m2", 5).unwrap();
        assert_eq!(r1.len(), 4);
        assert_eq!(r2.start, r1.end);
        assert_eq!(a.free_columns(), 13 - 9);
        a.free("m1").unwrap();
        assert_eq!(a.free_columns(), 13 - 5);
        // First-fit reuses the leftmost gap.
        let r3 = a.allocate("m3", 3).unwrap();
        assert_eq!(r3.start, r1.start);
    }

    #[test]
    fn fragmentation_blocks_fitting_allocations() {
        let d = Device::xc2vp50();
        let mut a = WindowAllocator::new(&d, uniform_window(&d)).unwrap();
        a.allocate("a", 4).unwrap();
        a.allocate("b", 4).unwrap();
        a.allocate("c", 4).unwrap();
        a.free("a").unwrap();
        a.free("c").unwrap();
        // Free = 4 + 1 + 4 = 9 columns, but the largest run is 5.
        assert_eq!(a.free_columns(), 9);
        assert_eq!(a.largest_free_run(), 5);
        assert!(a.external_fragmentation() > 0.0);
        assert!(a.allocate("big", 7).is_err());
    }

    #[test]
    fn defragmentation_unblocks_the_allocation() {
        let d = Device::xc2vp50();
        let mut a = WindowAllocator::new(&d, uniform_window(&d)).unwrap();
        a.allocate("a", 4).unwrap();
        a.allocate("b", 4).unwrap();
        a.allocate("c", 4).unwrap();
        a.free("a").unwrap();
        a.free("c").unwrap();
        let plan = a.defragment();
        // "b" slides into "a"'s old place: uniform CLB window, so the move
        // is shape-compatible.
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.moves[0].name, "b");
        assert!(plan.pinned.is_empty());
        assert!(plan.bytes_moved > 0);
        assert_eq!(a.external_fragmentation(), 0.0);
        assert!(a.allocate("big", 7).is_ok());
    }

    #[test]
    fn heterogeneous_window_pins_modules() {
        let d = Device::xc2vp50();
        let ncols = d.columns.len();
        // Window straddling a BRAM column: [9 CLB, BRAM, 13 CLB] slice.
        let window = (ncols - 16)..(ncols - 2);
        let mut a = WindowAllocator::new(&d, window.clone()).unwrap();
        // First module occupies the start (includes the BRAM column).
        let first = a.allocate("bram-module", 2).unwrap();
        let kinds: Vec<_> = first.clone().map(|i| d.columns[i].kind).collect();
        a.allocate("clb-module", 3).unwrap();
        a.free("bram-module").unwrap();
        // The CLB-only module cannot slide into the BRAM-containing gap.
        let plan = a.defragment();
        if kinds.contains(&ColumnKind::Bram) {
            assert!(
                plan.moves.is_empty() || plan.moves[0].to.start > first.start,
                "cannot move onto a BRAM column: {plan:?}"
            );
        }
    }

    #[test]
    fn double_allocation_rejected() {
        let d = Device::xc2vp50();
        let mut a = WindowAllocator::new(&d, uniform_window(&d)).unwrap();
        a.allocate("m", 2).unwrap();
        assert!(a.allocate("m", 2).is_err());
        assert!(a.allocate("z", 0).is_err());
        assert!(a.free("nope").is_err());
    }

    #[test]
    fn oversized_window_rejected() {
        let d = Device::xc2vp50();
        assert!(WindowAllocator::new(&d, 0..10_000).is_err());
        assert!(WindowAllocator::new(&d, 5..5).is_err());
    }
}
