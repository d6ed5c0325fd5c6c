//! Datacenter-scale projection (§7.1).
//!
//! Reimplements the paper's Astra-Sim-based methodology: take per-kernel
//! latencies measured at DP=1 on the real (here: simulated) cluster, divide
//! compute and non-DP communication time by the DP degree, and add an
//! analytically modeled DP gradient-AllReduce term. Inter-node bandwidth
//! scaling divides the modeled AllReduce by the bandwidth multiplier.

use serde::{Deserialize, Serialize};

use charllm_hw::LinkSpec;

/// A measured (or simulated) training step at the base DP degree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredStep {
    /// Time spent in compute kernels, seconds.
    pub compute_s: f64,
    /// Time spent in non-DP communication (TP/PP/EP), seconds.
    pub comm_s: f64,
    /// Gradient bytes each rank contributes to the DP AllReduce.
    pub grad_bytes_per_rank: u64,
    /// Tokens processed per step.
    pub tokens_per_step: u64,
    /// World size (GPUs) of the measured configuration (DP=1).
    pub base_world: usize,
}

/// One projected operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpProjection {
    /// Data-parallel degree.
    pub dp: usize,
    /// Total GPUs (`base_world × dp`).
    pub num_gpus: usize,
    /// Projected compute time per step, seconds.
    pub compute_s: f64,
    /// Projected non-DP communication time per step, seconds.
    pub comm_s: f64,
    /// Modeled DP AllReduce time per step, seconds.
    pub allreduce_s: f64,
    /// Projected step time, seconds.
    pub step_s: f64,
    /// Tokens/s/GPU at this scale.
    pub per_gpu_throughput: f64,
    /// Strong-scaling efficiency vs. ideal linear scaling (1.0 = ideal).
    pub scaling_efficiency: f64,
}

/// Ring AllReduce time for `bytes` per rank over `dp` ranks whose rings
/// bottleneck on a per-node NIC shared by `rings_per_node` concurrent rings.
pub fn ring_allreduce_time_s(bytes: u64, dp: usize, nic: &LinkSpec, rings_per_node: usize) -> f64 {
    if dp <= 1 || bytes == 0 {
        return 0.0;
    }
    let eff_bw = nic.bw_gbps * 1e9 / rings_per_node.max(1) as f64;
    let volume = 2.0 * (dp as f64 - 1.0) / dp as f64 * bytes as f64;
    let phases = 2 * (dp - 1);
    volume / eff_bw + phases as f64 * (nic.latency_us + nic.per_message_us) * 1e-6
}

/// Project step time and throughput across DP degrees (§7.1 methodology).
///
/// `rings_per_node` is the number of DP rings contending for one NIC (equal
/// to the GPUs per node when every GPU joins its own DP ring).
pub fn project_dp_scaling(
    base: &MeasuredStep,
    dps: &[usize],
    nic: &LinkSpec,
    rings_per_node: usize,
) -> Vec<DpProjection> {
    let base_step = base.compute_s + base.comm_s;
    dps.iter()
        .map(|&dp| {
            let dp = dp.max(1);
            let compute_s = base.compute_s / dp as f64;
            let comm_s = base.comm_s / dp as f64;
            let allreduce_s =
                ring_allreduce_time_s(base.grad_bytes_per_rank, dp, nic, rings_per_node);
            let step_s = compute_s + comm_s + allreduce_s;
            let num_gpus = base.base_world * dp;
            let per_gpu_throughput = base.tokens_per_step as f64 / step_s / num_gpus as f64;
            let ideal = base_step / dp as f64;
            DpProjection {
                dp,
                num_gpus,
                compute_s,
                comm_s,
                allreduce_s,
                step_s,
                per_gpu_throughput,
                scaling_efficiency: ideal / step_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> MeasuredStep {
        MeasuredStep {
            compute_s: 20.0,
            comm_s: 10.0,
            grad_bytes_per_rank: 11 * (1u64 << 30), // ~GPT3-175B / 32 ranks
            tokens_per_step: 128 * 2048,
            base_world: 32,
        }
    }

    #[test]
    fn scaling_is_sublinear_at_100g() {
        let projections = project_dp_scaling(&base(), &[1, 2, 8, 32, 256], &LinkSpec::ib_100g(), 8);
        for p in &projections {
            assert!(
                p.scaling_efficiency <= 1.0 + 1e-9,
                "dp={} eff={}",
                p.dp,
                p.scaling_efficiency
            );
        }
        // Efficiency decays monotonically with DP.
        for w in projections.windows(2) {
            assert!(w[1].scaling_efficiency <= w[0].scaling_efficiency + 1e-12);
        }
    }

    #[test]
    fn large_dp_at_100g_loses_close_to_an_order_of_magnitude() {
        // Paper: "strong scaling dropping by up to 9.7x compared to the
        // ideal case" at 100 Gbps and 8K GPUs. With a two-level
        // AllReduce (one inter-node ring per node) the loss lands in the
        // same order of magnitude.
        let p = project_dp_scaling(&base(), &[256], &LinkSpec::ib_100g(), 1)[0];
        let loss = 1.0 / p.scaling_efficiency;
        assert!((4.0..30.0).contains(&loss), "loss = {loss:.1}x");
    }

    #[test]
    fn higher_bandwidth_restores_scaling() {
        // Paper: 800 Gbps improves strong scaling by up to 4.2x vs 100 Gbps.
        let at100 = project_dp_scaling(&base(), &[256], &LinkSpec::ib_100g(), 1)[0];
        let at800 = project_dp_scaling(&base(), &[256], &LinkSpec::ib_gbps(800.0), 1)[0];
        let gain = at800.scaling_efficiency / at100.scaling_efficiency;
        assert!((2.0..10.0).contains(&gain), "gain = {gain:.1}x");
    }

    #[test]
    fn per_gpu_throughput_declines_with_scale() {
        let ps = project_dp_scaling(&base(), &[1, 8, 64], &LinkSpec::ib_100g(), 8);
        assert!(ps[1].per_gpu_throughput < ps[0].per_gpu_throughput);
        assert!(ps[2].per_gpu_throughput < ps[1].per_gpu_throughput);
    }

    #[test]
    fn dp1_has_no_allreduce() {
        let p = project_dp_scaling(&base(), &[1], &LinkSpec::ib_100g(), 8)[0];
        assert_eq!(p.allreduce_s, 0.0);
        assert!((p.scaling_efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn allreduce_time_saturates_with_dp() {
        let nic = LinkSpec::ib_100g();
        let t16 = ring_allreduce_time_s(1 << 30, 16, &nic, 8);
        let t1024 = ring_allreduce_time_s(1 << 30, 1024, &nic, 8);
        // Volume term saturates at 2x bytes; latency term keeps growing.
        assert!(t1024 > t16);
        assert!(t1024 < 3.0 * t16);
    }

    #[test]
    fn contending_rings_slow_allreduce() {
        let nic = LinkSpec::ib_100g();
        let solo = ring_allreduce_time_s(1 << 30, 64, &nic, 1);
        let shared = ring_allreduce_time_s(1 << 30, 64, &nic, 8);
        assert!(shared > 5.0 * solo);
    }

    #[test]
    fn gpu_counts_multiply_world() {
        let ps = project_dp_scaling(&base(), &[8], &LinkSpec::ib_100g(), 8);
        assert_eq!(ps[0].num_gpus, 256);
    }
}
