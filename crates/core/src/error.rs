//! Error type for the simulator.

use crate::stats::RunReport;
use std::error::Error;
use std::fmt;

/// Errors produced by engine configuration and runs.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The system configuration is inconsistent.
    InvalidConfig {
        /// Explanation.
        message: String,
    },
    /// The graph cannot be scheduled on this configuration (e.g. too many
    /// processing units for the vertex count).
    Unschedulable {
        /// Explanation.
        message: String,
    },
    /// A graph-layer error surfaced during partitioning.
    Graph(hyve_graph::GraphError),
    /// A memory-device model rejected its configuration.
    Device(hyve_memsim::DeviceError),
    /// A convergence-bounded algorithm was still changing values when it
    /// hit its iteration cap. The partial report covers the capped run, so
    /// callers can inspect (or knowingly accept) the truncated result.
    MaxIterationsExceeded {
        /// The algorithm that failed to converge.
        algorithm: &'static str,
        /// The iteration cap that was reached.
        max_iterations: u32,
        /// Costs of the truncated run (boxed: reports are large).
        report: Box<RunReport>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { message } => {
                write!(f, "invalid configuration: {message}")
            }
            CoreError::Unschedulable { message } => {
                write!(f, "graph not schedulable: {message}")
            }
            CoreError::Graph(e @ hyve_graph::GraphError::VertexOutOfRange { .. }) => write!(
                f,
                "graph error: {e} (an edge reaches a padding-slot vertex of a grown \
                 DynamicGrid, which the grid's partition does not hold; run on \
                 DynamicGrid::live_edge_list() instead)"
            ),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Device(e) => write!(f, "device error: {e}"),
            CoreError::MaxIterationsExceeded {
                algorithm,
                max_iterations,
                ..
            } => write!(
                f,
                "{algorithm} did not converge within {max_iterations} iterations"
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hyve_graph::GraphError> for CoreError {
    fn from(e: hyve_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<hyve_memsim::DeviceError> for CoreError {
    fn from(e: hyve_memsim::DeviceError) -> Self {
        CoreError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidConfig {
            message: "zero PUs".into(),
        };
        assert!(e.to_string().contains("zero PUs"));
        let g = CoreError::from(hyve_graph::GraphError::EmptyGraph);
        assert!(g.to_string().contains("no vertices"));
        assert!(Error::source(&g).is_some());
    }
}
