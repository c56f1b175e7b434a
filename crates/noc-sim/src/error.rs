//! Error types for the simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration value is invalid (zero sizes, inconsistent limits, ...).
    InvalidConfig(String),
    /// A node id is outside the topology.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// A V/F level index is outside the configured table.
    VfLevelOutOfRange {
        /// The offending level index.
        level: usize,
        /// Number of levels in the table.
        levels: usize,
    },
    /// A region index is outside the configured partitioning.
    RegionOutOfRange {
        /// The offending region index.
        region: usize,
        /// Number of regions.
        regions: usize,
    },
    /// A trace or phase schedule is malformed.
    InvalidTrace(String),
    /// A name that is no member of its vocabulary; the message lists every
    /// member (see [`crate::names`]).
    UnknownName(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "node {node} out of range for topology with {nodes} nodes"
                )
            }
            SimError::VfLevelOutOfRange { level, levels } => {
                write!(
                    f,
                    "V/F level {level} out of range for table with {levels} levels"
                )
            }
            SimError::RegionOutOfRange { region, regions } => {
                write!(f, "region {region} out of range for {regions} regions")
            }
            SimError::InvalidTrace(msg) => write!(f, "invalid trace: {msg}"),
            SimError::UnknownName(msg) => f.write_str(msg),
        }
    }
}

impl Error for SimError {}

/// Convenience result alias used throughout the crate.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SimError::InvalidConfig("mesh width must be > 0".into());
        assert_eq!(
            e.to_string(),
            "invalid configuration: mesh width must be > 0"
        );
        let e = SimError::NodeOutOfRange {
            node: 99,
            nodes: 64,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error>() {}
        assert_err::<SimError>();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<SimError>();
        assert_sync::<SimError>();
    }
}
