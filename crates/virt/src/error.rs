//! Error type for the virtualization runtime.

use std::fmt;

/// Errors from driving the multi-tasking runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VirtError {
    /// The application list was empty.
    NoApplications,
    /// Application ids must be `0..n` matching their position.
    BadAppIds,
    /// A PRTR run needs at least one PRR, and the node has none.
    NoPrrs,
    /// The flexible window is empty or reaches past the device.
    WindowOutOfRange {
        /// First column of the window.
        start: usize,
        /// One past the window's last column.
        end: usize,
        /// Number of columns in the device.
        device_columns: usize,
    },
    /// A flexible call requests more columns than the window offers.
    ModuleTooWide {
        /// Offending module.
        module: String,
        /// Requested width in columns.
        width: usize,
        /// Window width in columns.
        window: usize,
    },
}

impl fmt::Display for VirtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VirtError::NoApplications => write!(f, "no applications to run"),
            VirtError::BadAppIds => write!(f, "application ids must equal their index"),
            VirtError::NoPrrs => write!(
                f,
                "a PRTR run needs at least one PRR, and the node has none"
            ),
            VirtError::WindowOutOfRange {
                start,
                end,
                device_columns,
            } => write!(
                f,
                "window {start}..{end} is empty or past the device's {device_columns} columns"
            ),
            VirtError::ModuleTooWide {
                module,
                width,
                window,
            } => write!(
                f,
                "module {module} needs {width} columns but the window has {window}"
            ),
        }
    }
}

impl std::error::Error for VirtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(VirtError::NoApplications
            .to_string()
            .contains("no applications"));
        assert!(VirtError::BadAppIds.to_string().contains("index"));
        assert!(VirtError::NoPrrs.to_string().contains("PRR"));
        let window = VirtError::WindowOutOfRange {
            start: 66,
            end: 74,
            device_columns: 70,
        };
        assert!(window.to_string().contains("66..74"));
        assert!(window.to_string().contains("70 columns"));
    }
}
