//! Board power as a function of activity and clock frequency.
//!
//! `P = P_idle + activity · (P_max − P_idle) · (f/f_boost)^α` with α ≈ 2.4
//! (dynamic power scales with `V²·f` and voltage tracks frequency). The
//! *activity* input is a utilization weight in `[0, 1]` computed by the
//! simulator from the mix of running kernels: dense GEMMs drive the GPU near
//! TDP, attention and memory-bound kernels less, communication kernels far
//! less — which is why the paper's TP-heavy (communication-dominated)
//! configurations draw less power than PP-heavy ones (§4.2, Fig. 4).

use serde::{Deserialize, Serialize};

use charllm_hw::GpuSpec;

/// Activity weight of a dense GEMM kernel (drives the GPU near TDP).
pub const ACTIVITY_GEMM: f64 = 1.0;
/// Activity weight of attention kernels (memory-bound portions included).
pub const ACTIVITY_ATTENTION: f64 = 0.82;
/// Activity weight of optimizer/elementwise kernels.
pub const ACTIVITY_ELEMENTWISE: f64 = 0.55;
/// Activity weight of communication kernels (copy engines + SMs for NCCL).
pub const ACTIVITY_COMM: f64 = 0.38;

/// Activity- and frequency-dependent power model for one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Idle board power, watts.
    pub idle_w: f64,
    /// Maximum dynamic power (`TDP − idle`) at boost clock and activity 1.
    pub max_dynamic_w: f64,
    /// Frequency exponent α.
    pub freq_exponent: f64,
}

impl PowerModel {
    /// Build from a device spec.
    pub fn for_spec(spec: &GpuSpec) -> Self {
        PowerModel {
            idle_w: spec.idle_w,
            max_dynamic_w: spec.tdp_w - spec.idle_w,
            freq_exponent: 2.4,
        }
    }

    /// Instantaneous board power.
    ///
    /// `activity` is clamped to `[0, 1]`; `freq_ratio` is `f/f_boost`;
    /// `efficiency` is the per-GPU silicon variability multiplier on
    /// dynamic power (1.0 nominal).
    #[inline]
    pub fn power_w(&self, activity: f64, freq_ratio: f64, efficiency: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        if a == 0.0 {
            // Zero activity multiplies the dynamic term away at any finite
            // clock, so the `powf` is skipped.
            return self.idle_w;
        }
        let fr = freq_ratio.max(0.0);
        self.idle_w + a * self.max_dynamic_w * fr.powf(self.freq_exponent) * efficiency
    }

    /// The freq ratio at which an activity level exactly meets a power cap
    /// (used by the governor for power capping). Returns 1.0 when the cap is
    /// never hit.
    pub fn freq_ratio_for_cap(&self, activity: f64, cap_w: f64, efficiency: f64) -> f64 {
        let a = activity.clamp(0.0, 1.0);
        if a <= 0.0 {
            return 1.0;
        }
        let dynamic_budget = (cap_w - self.idle_w).max(0.0);
        let needed = dynamic_budget / (a * self.max_dynamic_w * efficiency);
        if needed >= 1.0 {
            // A root of a ratio ≥ 1 is ≥ 1: the clamp below would give 1.0.
            return 1.0;
        }
        needed.powf(1.0 / self.freq_exponent).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::GpuModel;

    fn model() -> PowerModel {
        PowerModel::for_spec(&GpuModel::H200.spec())
    }

    #[test]
    fn idle_at_zero_activity() {
        let m = model();
        assert_eq!(m.power_w(0.0, 1.0, 1.0), m.idle_w);
    }

    #[test]
    fn full_gemm_at_boost_hits_tdp() {
        let m = model();
        let spec = GpuModel::H200.spec();
        assert!((m.power_w(ACTIVITY_GEMM, 1.0, 1.0) - spec.tdp_w).abs() < 1e-6);
    }

    #[test]
    fn comm_kernels_draw_much_less_than_gemm() {
        let m = model();
        let comm = m.power_w(ACTIVITY_COMM, 1.0, 1.0);
        let gemm = m.power_w(ACTIVITY_GEMM, 1.0, 1.0);
        assert!(comm < 0.6 * gemm, "comm={comm} gemm={gemm}");
    }

    #[test]
    fn throttling_reduces_power_superlinearly() {
        let m = model();
        let full = m.power_w(1.0, 1.0, 1.0) - m.idle_w;
        let half = m.power_w(1.0, 0.5, 1.0) - m.idle_w;
        assert!(
            half < 0.25 * full,
            "2.4 exponent: half-clock < quarter dynamic power"
        );
    }

    #[test]
    fn activity_clamped() {
        let m = model();
        assert_eq!(m.power_w(2.0, 1.0, 1.0), m.power_w(1.0, 1.0, 1.0));
        assert_eq!(m.power_w(-1.0, 1.0, 1.0), m.idle_w);
    }

    #[test]
    fn cap_ratio_inverts_power() {
        let m = model();
        let cap = 500.0;
        let ratio = m.freq_ratio_for_cap(1.0, cap, 1.0);
        let p = m.power_w(1.0, ratio, 1.0);
        assert!((p - cap).abs() < 1.0, "power at cap ratio = {p}");
    }

    #[test]
    fn cap_ratio_is_one_when_unconstrained() {
        let m = model();
        assert_eq!(m.freq_ratio_for_cap(0.3, 700.0, 1.0), 1.0);
        assert_eq!(m.freq_ratio_for_cap(0.0, 100.0, 1.0), 1.0);
    }

    #[test]
    fn inefficient_silicon_draws_more() {
        let m = model();
        assert!(m.power_w(0.8, 1.0, 1.05) > m.power_w(0.8, 1.0, 1.0));
    }
}
