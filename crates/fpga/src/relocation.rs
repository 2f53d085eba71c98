//! Bitstream relocation: whether a module's partial bitstream can be
//! retargeted from one PRR to another.
//!
//! The configuration-caching literature the paper builds on (its reference
//! \[24\], *"Configuration Prefetching Techniques for Partial Reconfigurable
//! Coprocessor with Relocation and Defragmentation"*) assumes a module can
//! be loaded into *any* free region. On a real column-addressed device
//! that only works when the target region is **shape-compatible**: the
//! same left-to-right sequence of column kinds and frame counts, so the
//! frame payloads can be re-addressed column-for-column.

use serde::{Deserialize, Serialize};

use crate::device::Device;
use crate::floorplan::Region;

/// Why two regions are (in)compatible for relocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Compatibility {
    /// Regions have identical column-kind/frame sequences.
    Compatible,
    /// Regions span different numbers of columns.
    ColumnCountMismatch {
        /// Source width.
        from: usize,
        /// Target width.
        to: usize,
    },
    /// A column pair differs in kind or frame count.
    ColumnMismatch {
        /// Offset within the regions where the first mismatch occurs.
        offset: usize,
    },
}

impl Compatibility {
    /// Whether relocation is possible.
    pub fn is_compatible(&self) -> bool {
        *self == Compatibility::Compatible
    }
}

/// Checks whether a bitstream built for `from` can be relocated to `to`.
///
/// Compatibility requires equal width and, column by column, identical
/// kind and frame count. (CLB columns shadowed by a PPC hole are *not*
/// interchangeable with full-height ones: the module's logic placement
/// would collide with the hard core.)
pub fn check_compatibility(device: &Device, from: &Region, to: &Region) -> Compatibility {
    let a: Vec<usize> = from.column_indices();
    let b: Vec<usize> = to.column_indices();
    if a.len() != b.len() {
        return Compatibility::ColumnCountMismatch {
            from: a.len(),
            to: b.len(),
        };
    }
    for (offset, (&ca, &cb)) in a.iter().zip(&b).enumerate() {
        let (ka, kb) = (&device.columns[ca], &device.columns[cb]);
        if ka.kind != kb.kind || ka.frames != kb.frames {
            return Compatibility::ColumnMismatch { offset };
        }
    }
    Compatibility::Compatible
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;

    #[test]
    fn dual_prrs_are_shape_compatible() {
        let fp = Floorplan::xd1_dual_prr();
        let c = check_compatibility(&fp.device, &fp.prrs[0].region, &fp.prrs[1].region);
        assert!(c.is_compatible(), "{c:?}");
    }

    #[test]
    fn prr_and_static_region_are_not_compatible() {
        let fp = Floorplan::xd1_dual_prr();
        let c = check_compatibility(&fp.device, &fp.prrs[0].region, &fp.static_region);
        assert!(!c.is_compatible());
    }

    #[test]
    fn quad_quarters_differ_in_shape() {
        // 7-column [B + 6 CLB] vs 7-column [7 CLB]: same width, different
        // column kinds.
        let fp = Floorplan::xd1_quad_prr();
        let c = check_compatibility(&fp.device, &fp.prrs[0].region, &fp.prrs[1].region);
        assert_eq!(c, Compatibility::ColumnMismatch { offset: 0 });
        // But widths differ for the last quarter (8 columns).
        let c = check_compatibility(&fp.device, &fp.prrs[0].region, &fp.prrs[3].region);
        assert_eq!(c, Compatibility::ColumnCountMismatch { from: 7, to: 8 });
    }
}
