//! First-order RC thermal model per GPU.
//!
//! `C · dT/dt = P − (T − T_inlet) / (R · cooling_factor)`
//!
//! Steady state is `T = T_inlet + P · R · cooling_factor`: a rear GPU with a
//! preheated inlet and a worse cooling factor settles visibly hotter than a
//! front GPU at identical power — the paper's persistent thermal imbalance
//! (Figs. 17a/18a/19).

use serde::{Deserialize, Serialize};

use charllm_hw::GpuModel;

/// Thermal resistance/capacitance of one GPU + heatsink assembly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSpec {
    /// Junction-to-inlet thermal resistance, °C per watt (nominal cooling).
    pub r_c_per_w: f64,
    /// Lumped heat capacity, joules per °C.
    pub c_j_per_c: f64,
}

impl ThermalSpec {
    /// Calibrated spec for a GPU model: full sustained load at ambient inlet
    /// lands in the device's typical operating band (~65–70 °C front), with
    /// a heatsink time constant of tens of seconds.
    pub fn for_model(model: GpuModel) -> Self {
        match model {
            // 650 W sustained -> ~40 °C rise over inlet.
            GpuModel::H100 | GpuModel::H200 => ThermalSpec {
                r_c_per_w: 0.062,
                c_j_per_c: 520.0,
            },
            // 240 W sustained per GCD -> ~43 °C rise over inlet.
            GpuModel::Mi250Gcd => ThermalSpec {
                r_c_per_w: 0.18,
                c_j_per_c: 180.0,
            },
        }
    }

    /// Steady-state temperature at constant power and inlet.
    pub fn steady_state_c(&self, power_w: f64, inlet_c: f64, cooling_factor: f64) -> f64 {
        inlet_c + power_w * self.r_c_per_w * cooling_factor
    }

    /// Advance the junction temperature by `dt` seconds: the exact solution
    /// of the linear ODE, an exponential approach to steady state.
    pub fn step(
        &self,
        temp_c: f64,
        power_w: f64,
        inlet_c: f64,
        cooling_factor: f64,
        dt_s: f64,
    ) -> f64 {
        let decay = self.decay(cooling_factor, dt_s);
        self.relax(temp_c, power_w, inlet_c, cooling_factor, decay)
    }

    /// `exp(-dt/τ)`: the share of the gap to steady state left after `dt_s`
    /// seconds. It depends on `dt` and the cooling factor only, so a caller
    /// stepping with a fixed period can compute it once.
    pub(crate) fn decay(&self, cooling_factor: f64, dt_s: f64) -> f64 {
        let tau = self.r_c_per_w * cooling_factor * self.c_j_per_c;
        (-dt_s / tau).exp()
    }

    /// [`ThermalSpec::step`] with its [`ThermalSpec::decay`] factor given.
    pub(crate) fn relax(
        &self,
        temp_c: f64,
        power_w: f64,
        inlet_c: f64,
        cooling_factor: f64,
        decay: f64,
    ) -> f64 {
        let target = self.steady_state_c(power_w, inlet_c, cooling_factor);
        target + (temp_c - target) * decay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThermalSpec {
        ThermalSpec::for_model(GpuModel::H200)
    }

    #[test]
    fn steady_state_operating_band() {
        // Full sustained H200 load at a 26 C inlet should land around 62-72C.
        let t = spec().steady_state_c(650.0, 26.0, 1.0);
        assert!((60.0..75.0).contains(&t), "steady = {t}");
    }

    #[test]
    fn rear_gpu_with_preheat_can_cross_throttle_threshold() {
        // Preheated inlet (~40 C) + worse cooling crosses the 83 C throttle
        // line under sustained near-TDP load — the Fig. 17 mechanism.
        let spec = spec();
        let t = spec.steady_state_c(680.0, 41.0, 1.08);
        assert!(t > 83.0, "rear steady = {t}");
        let front = spec.steady_state_c(680.0, 26.0, 1.0);
        assert!(front < 83.0, "front steady = {front}");
    }

    #[test]
    fn step_converges_to_steady_state() {
        let s = spec();
        let mut t = 30.0;
        for _ in 0..10_000 {
            t = s.step(t, 650.0, 26.0, 1.0, 0.1);
        }
        assert!((t - s.steady_state_c(650.0, 26.0, 1.0)).abs() < 0.01);
    }

    #[test]
    fn step_is_monotone_towards_target() {
        let s = spec();
        let cold = s.step(30.0, 650.0, 26.0, 1.0, 1.0);
        assert!(cold > 30.0, "heating up");
        let hot = s.step(90.0, 90.0, 26.0, 1.0, 1.0);
        assert!(hot < 90.0, "cooling down");
    }

    #[test]
    fn step_never_overshoots() {
        let s = spec();
        let target = s.steady_state_c(650.0, 26.0, 1.0);
        let t = s.step(30.0, 650.0, 26.0, 1.0, 1e6);
        assert!((t - target).abs() < 1e-6);
    }

    #[test]
    fn time_constant_is_tens_of_seconds() {
        for m in [GpuModel::H100, GpuModel::H200, GpuModel::Mi250Gcd] {
            // The time constant at nominal cooling, R·C.
            let s = ThermalSpec::for_model(m);
            let tau = s.r_c_per_w * s.c_j_per_c;
            assert!((10.0..120.0).contains(&tau), "{m}: tau = {tau}");
        }
    }

    #[test]
    fn mi250_band_reasonable() {
        let s = ThermalSpec::for_model(GpuModel::Mi250Gcd);
        let t = s.steady_state_c(240.0, 26.0, 1.0);
        assert!((60.0..80.0).contains(&t), "mi250 steady = {t}");
    }
}
