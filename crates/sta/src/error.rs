//! Error types for the static-timing layer.

use std::fmt;

/// Errors produced while building or analysing a timing graph.  Names
/// are resolved when a net is added or an ECO edit applies, never during
/// analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StaError {
    /// A referenced cell does not exist in the library.
    UnknownCell {
        /// Name of the missing cell.
        name: String,
    },
    /// A net's driver or load names an instance that does not exist in
    /// the design.
    UnknownInstance {
        /// Name of the missing instance.
        name: String,
    },
    /// A net references a sink node that does not exist in its RC tree.
    UnknownSinkNode {
        /// Name of the net.
        net: String,
        /// Name of the missing node.
        node: String,
    },
    /// An instance name was used twice.
    DuplicateInstance {
        /// The repeated name.
        name: String,
    },
    /// A net name was used twice.
    ///
    /// Duplicate net names used to be accepted silently (ECO edits then
    /// resolved to the highest-index net); they are now rejected at
    /// [`add_net`](crate::Design::add_net) so every name-addressed
    /// operation — ECO edits, server queries — has exactly one target.
    DuplicateNet {
        /// The repeated name.
        name: String,
    },
    /// An ECO edit referenced a net that is not in the design.
    UnknownNet {
        /// The offending net name (kept structured so tools can point at
        /// the exact token).
        name: String,
    },
    /// An ECO edit referenced a node name missing from its net's
    /// interconnect tree.
    UnknownEcoNode {
        /// Name of the net the edit targeted.
        net: String,
        /// The offending node name (kept structured so tools can point at
        /// the exact token).
        node: String,
    },
    /// The design's instance/net graph contains a combinational cycle, so
    /// topological arrival-time propagation is impossible.
    CombinationalCycle,
    /// The design contains no primary-input-driven logic to analyse.
    EmptyDesign,
    /// An error propagated from the core crate.
    Core(rctree_core::CoreError),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::UnknownCell { name } => write!(f, "unknown cell `{name}`"),
            StaError::UnknownInstance { name } => write!(f, "unknown instance `{name}`"),
            StaError::UnknownSinkNode { net, node } => {
                write!(f, "net `{net}` references unknown sink node `{node}`")
            }
            StaError::DuplicateInstance { name } => {
                write!(f, "instance `{name}` is defined more than once")
            }
            StaError::DuplicateNet { name } => {
                write!(f, "net `{name}` is defined more than once")
            }
            StaError::UnknownNet { name } => {
                write!(f, "eco edit references unknown net `{name}`")
            }
            StaError::UnknownEcoNode { net, node } => {
                write!(
                    f,
                    "eco edit on net `{net}` references unknown node `{node}`"
                )
            }
            StaError::CombinationalCycle => {
                write!(f, "design contains a combinational cycle")
            }
            StaError::EmptyDesign => write!(f, "design contains nothing to analyse"),
            StaError::Core(e) => write!(f, "timing computation failed: {e}"),
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StaError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rctree_core::CoreError> for StaError {
    fn from(e: rctree_core::CoreError) -> Self {
        StaError::Core(e)
    }
}

/// Convenience alias used throughout the STA crate.
pub type Result<T> = std::result::Result<T, StaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StaError::UnknownCell { name: "inv".into() }
            .to_string()
            .contains("inv"));
        assert!(StaError::CombinationalCycle.to_string().contains("cycle"));
        assert!(StaError::EmptyDesign.to_string().contains("nothing"));
        assert!(StaError::UnknownSinkNode {
            net: "n1".into(),
            node: "x".into()
        }
        .to_string()
        .contains("n1"));
        assert!(StaError::DuplicateInstance { name: "u1".into() }
            .to_string()
            .contains("u1"));
        assert!(StaError::DuplicateNet { name: "n1".into() }
            .to_string()
            .contains("`n1`"));
        assert!(StaError::UnknownNet { name: "clk".into() }
            .to_string()
            .contains("`clk`"));
        let eco = StaError::UnknownEcoNode {
            net: "n1".into(),
            node: "x9".into(),
        }
        .to_string();
        assert!(eco.contains("`n1`") && eco.contains("`x9`"));
        assert!(StaError::UnknownInstance { name: "u9".into() }
            .to_string()
            .contains("u9"));
    }

    #[test]
    fn core_error_chains() {
        let e: StaError = rctree_core::CoreError::NoOutputs.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
