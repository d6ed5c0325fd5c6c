//! Simulator error types.

use std::fmt;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The trace failed structural validation.
    InvalidTrace(Vec<String>),
    /// The placement does not cover the trace's world size.
    PlacementMismatch {
        /// Ranks in the trace.
        trace_world: usize,
        /// Ranks in the placement.
        placement_world: usize,
    },
    /// No rank could make progress (cyclic collective waits).
    Deadlock {
        /// Simulated time at which progress stopped.
        at_s: f64,
        /// Human-readable description of blocked ranks.
        detail: String,
    },
    /// The simulated-time cap was exceeded.
    Timeout {
        /// The cap that was hit.
        cap_s: f64,
    },
    /// A shared plan set was sized for a different trace.
    PlanSetMismatch {
        /// Collectives in this simulator's trace.
        trace_collectives: usize,
        /// Slots in the supplied plan set.
        shared_collectives: usize,
    },
    /// A shared plan set holds a flow that does not join two distinct GPUs
    /// of the cluster.
    ForeignPlanSet {
        /// GPUs in this simulator's cluster.
        num_gpus: usize,
    },
    /// A fault plan referenced out-of-range targets or bad magnitudes.
    InvalidFaultPlan(String),
    /// A [`crate::SimConfig`] period the engines cannot step with
    /// (non-finite or non-positive).
    InvalidConfig(String),
    /// A symmetry-folded run was requested for a configuration the folding
    /// engine cannot reproduce exactly (asymmetric placement, per-node
    /// faults, seeded silicon variability, …).
    FoldUnsupported(String),
    /// A hardware topology query failed.
    Hw(charllm_hw::HwError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTrace(problems) => {
                write!(
                    f,
                    "trace failed validation with {} problems: {:?}",
                    problems.len(),
                    problems.iter().take(3).collect::<Vec<_>>()
                )
            }
            SimError::PlacementMismatch {
                trace_world,
                placement_world,
            } => write!(
                f,
                "trace has {trace_world} ranks but placement covers {placement_world}"
            ),
            SimError::Deadlock { at_s, detail } => {
                write!(f, "simulation deadlocked at t={at_s:.3}s: {detail}")
            }
            SimError::Timeout { cap_s } => write!(f, "simulated time exceeded cap of {cap_s}s"),
            SimError::PlanSetMismatch {
                trace_collectives,
                shared_collectives,
            } => write!(
                f,
                "shared plan set has {shared_collectives} slots but the trace \
                 has {trace_collectives} collectives (built for a different trace?)"
            ),
            SimError::ForeignPlanSet { num_gpus } => write!(
                f,
                "shared plan set has a flow that does not join two distinct \
                 GPUs of the {num_gpus}-GPU cluster (built for a different cluster?)"
            ),
            SimError::InvalidFaultPlan(detail) => {
                write!(f, "invalid fault plan: {detail}")
            }
            SimError::InvalidConfig(detail) => write!(f, "invalid sim config: {detail}"),
            SimError::FoldUnsupported(detail) => {
                write!(f, "symmetry folding unsupported here: {detail}")
            }
            SimError::Hw(e) => write!(f, "hardware error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<charllm_hw::HwError> for SimError {
    fn from(e: charllm_hw::HwError) -> Self {
        SimError::Hw(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SimError::Deadlock {
            at_s: 1.5,
            detail: "rank 0 waiting".into(),
        };
        assert!(e.to_string().contains("1.5"));
        let e = SimError::PlacementMismatch {
            trace_world: 8,
            placement_world: 4,
        };
        assert!(e.to_string().contains('8'));
        let e = SimError::InvalidFaultPlan("gpu 9 out of range".into());
        assert!(e.to_string().contains("fault plan"));
        assert!(e.to_string().contains("gpu 9"));
    }
}
