//! Simulation configuration.

use charllm_hw::{Cluster, NodeId};
use charllm_thermal::{GovernorConfig, GpuVariability, ThermalBank};
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Knobs controlling one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Iterations of the trace to replay.
    pub iterations: usize,
    /// Leading iterations excluded from performance/energy statistics
    /// (the paper discards warm-up iterations while temperatures settle).
    pub warmup_iterations: usize,
    /// Thermal/governor control period, seconds of simulated time.
    pub control_period_s: f64,
    /// Telemetry sampling period, seconds of simulated time.
    pub sample_period_s: f64,
    /// Hard cap on simulated time (guards against pathological configs).
    pub max_sim_time_s: f64,
    /// Seed for per-GPU hardware variability.
    pub seed: u64,
    /// Compute slowdown factor applied while communication flows touch the
    /// same GPU (SM/memory contention; elongates kernels under overlap,
    /// Fig. 11).
    pub overlap_slowdown: f64,
    /// Disable thermal/DVFS feedback (clocks pinned at boost) — the
    /// uniform-hardware ablation.
    pub thermal_feedback: bool,
    /// Start GPUs pre-warmed near their loaded steady-state temperature
    /// instead of idle-cold (stand-in for the paper's 10 discarded warm-up
    /// iterations).
    pub prewarm: bool,
    /// Failure injection: clamp the per-GPU power cap (watts) on one node,
    /// reproducing the paper's §1 anecdote where a node-level power failure
    /// made its GPUs run >4x slower and stall the whole pipeline.
    pub node_power_cap: Option<(u32, f64)>,
    /// Cluster-wide per-GPU power cap (watts), applied symmetrically to
    /// every GPU's DVFS governor (the paper's §6 power-capping sweeps).
    /// Unlike [`SimConfig::node_power_cap`] this preserves cross-replica
    /// symmetry, so folded runs stay exact under it.
    pub gpu_power_cap_w: Option<f64>,
    /// Replace the seeded per-GPU silicon variability with nominal
    /// (identical) parts. Makes replicas of a symmetric placement behave
    /// bit-identically — the precondition for symmetry folding — at the
    /// cost of the paper's part-to-part spread.
    pub uniform_variability: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            iterations: 3,
            warmup_iterations: 1,
            control_period_s: 0.005,
            sample_period_s: 0.05,
            max_sim_time_s: 3600.0,
            seed: 42,
            overlap_slowdown: 1.12,
            thermal_feedback: true,
            prewarm: true,
            node_power_cap: None,
            gpu_power_cap_w: None,
            uniform_variability: false,
        }
    }
}

impl SimConfig {
    /// The run's [`ThermalBank`], one entry per GPU of `cluster` in GPU
    /// order, each at idle in equilibrium with the ambient inlet. Every GPU
    /// is of one class, and a node power cap gives its node's GPUs a
    /// second. With prewarm and thermal feedback on, the GPUs of each node
    /// `prewarm` selects are then settled near a loaded operating point,
    /// including the inlet preheat a busy node would produce.
    pub(crate) fn thermal_bank(
        &self,
        cluster: &Cluster,
        prewarm: impl Fn(NodeId) -> bool,
    ) -> ThermalBank {
        let spec = cluster.gpu();
        let mut governor = GovernorConfig::for_spec(spec);
        if let Some(cap_w) = self.gpu_power_cap_w {
            governor.power_cap_w = cap_w;
        }
        let mut governors = vec![governor];
        if let Some((_, power_cap_w)) = self.node_power_cap {
            governors.push(GovernorConfig {
                power_cap_w,
                ..governor
            });
        }
        let mut bank = ThermalBank::new(spec.clone(), governors);
        let airflow = &cluster.node_layout().airflow;
        let loaded = vec![spec.tdp_w * 0.85; airflow.num_slots()];
        for gpu in cluster.gpus() {
            let node = cluster.node_of(gpu);
            let class = match self.node_power_cap {
                Some((n, _)) if node == NodeId(n) => 1,
                _ => 0,
            };
            let variability = if self.uniform_variability {
                GpuVariability::nominal()
            } else {
                GpuVariability::for_gpu(gpu, self.seed)
            };
            let i = bank.push(class, variability, airflow.ambient_c);
            if self.prewarm && self.thermal_feedback && prewarm(node) {
                let inlet = airflow.inlet_temp_c(cluster.slot_of(gpu), &loaded);
                for _ in 0..400 {
                    bank.step(i, 0.75, inlet, 1.0);
                }
            }
        }
        bank
    }

    /// A fast configuration for unit tests: single iteration, no warmup.
    pub fn fast() -> Self {
        SimConfig {
            iterations: 1,
            warmup_iterations: 0,
            ..SimConfig::default()
        }
    }

    /// The check both engines run before building on `cluster`: a run of
    /// zero iterations has no iteration to time, a zero control period
    /// would never advance the clock, a NaN one would never tick, and a
    /// sample window of zero or less divides the util and PCIe samples by
    /// it. A time cap that is not positive (NaN included) would disable or
    /// trip the cap at once (+∞ means no cap); an overlap factor that is
    /// not finite and positive divides compute rates into nonsense; power
    /// caps of zero, negative or NaN watts would pin clocks low; and a
    /// node cap must name a node of the cluster.
    pub(crate) fn check(&self, cluster: &Cluster) -> Result<(), SimError> {
        let invalid = |detail: String| Err(SimError::InvalidConfig(detail));
        if self.iterations == 0 {
            return invalid("iterations must be at least 1".to_string());
        }
        for (name, value) in [
            ("control_period_s", self.control_period_s),
            ("sample_period_s", self.sample_period_s),
            ("overlap_slowdown", self.overlap_slowdown),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return invalid(format!("{name} must be finite and positive, got {value}"));
            }
        }
        let caps = [
            ("max_sim_time_s", Some(self.max_sim_time_s)),
            ("gpu_power_cap_w", self.gpu_power_cap_w),
            ("node_power_cap", self.node_power_cap.map(|(_, w)| w)),
        ];
        for (name, cap) in caps {
            if let Some(cap) = cap.filter(|&c| c.is_nan() || c <= 0.0) {
                return invalid(format!("{name} must be positive, got {cap}"));
            }
        }
        if let Some((node, _)) = self.node_power_cap {
            if node as usize >= cluster.num_nodes() {
                return invalid(format!(
                    "node_power_cap names node {node} of a {}-node cluster",
                    cluster.num_nodes()
                ));
            }
        }
        Ok(())
    }

    /// Iterations included in measured statistics.
    pub fn measured_iterations(&self) -> usize {
        self.iterations
            .saturating_sub(self.warmup_iterations)
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.iterations > c.warmup_iterations);
        assert!(c.control_period_s < c.sample_period_s);
        assert!(c.overlap_slowdown >= 1.0);
    }

    #[test]
    fn measured_iterations_never_zero() {
        let c = SimConfig {
            iterations: 1,
            warmup_iterations: 5,
            ..SimConfig::default()
        };
        assert_eq!(c.measured_iterations(), 1);
        assert_eq!(SimConfig::default().measured_iterations(), 2);
    }
}
