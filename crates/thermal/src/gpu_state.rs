//! Combined per-GPU thermal/power/frequency state stepped by the simulator.

use serde::{Deserialize, Serialize};

use charllm_hw::GpuSpec;

use crate::governor::{DvfsGovernor, GovernorConfig, ThrottleReason};
use crate::power::PowerModel;
use crate::rc::ThermalSpec;
use crate::variability::GpuVariability;

/// One telemetry sample produced by a state step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalSample {
    /// Board power, watts.
    pub power_w: f64,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Core clock, MHz.
    pub freq_mhz: f64,
    /// Whether (and why) the clock was held below boost this period.
    pub throttled: bool,
    /// Whether the cause was thermal.
    pub thermally_throttled: bool,
}

/// The live thermal/power/DVFS state of one GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuThermal {
    spec: GpuSpec,
    thermal: ThermalSpec,
    power_model: PowerModel,
    governor: DvfsGovernor,
    variability: GpuVariability,
    temp_c: f64,
    power_w: f64,
    energy_j: f64,
    /// `(dt_s, exp(-dt_s/τ))` of the last step. The engines step with one
    /// `dt` (the control period), so the exponential is taken once per run
    /// instead of once per tick.
    decay: Option<(f64, f64)>,
    /// The bits of the last step's `(activity, clock ratio)` and the board
    /// power they gave. The power model and the efficiency are fixed, so
    /// the power is reused while both bits repeat instead of paying `powf`.
    power_memo: Option<((u64, u64), f64)>,
    /// The bits of the last busy step's activity and the governor's cap
    /// ratio at it, reused while they repeat (the cap is fixed as well).
    cap_memo: Option<(u64, f64)>,
}

impl GpuThermal {
    /// Initialize at idle in equilibrium with the given inlet temperature.
    pub fn new(
        spec: GpuSpec,
        thermal: ThermalSpec,
        governor_cfg: GovernorConfig,
        variability: GpuVariability,
        inlet_c: f64,
    ) -> Self {
        let power_model = PowerModel::for_spec(&spec);
        let idle_power = power_model.power_w(0.0, 1.0, variability.power_efficiency);
        let temp_c = thermal.steady_state_c(idle_power, inlet_c, variability.cooling);
        GpuThermal {
            governor: DvfsGovernor::new(&spec, governor_cfg),
            power_model,
            thermal,
            variability,
            temp_c,
            power_w: idle_power,
            energy_j: 0.0,
            decay: None,
            power_memo: None,
            cap_memo: None,
            spec,
        }
    }

    /// Current clock frequency in MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.governor.freq_mhz()
    }

    /// Current clock as a fraction of boost (the compute-rate multiplier).
    pub fn freq_ratio(&self) -> f64 {
        self.governor.freq_mhz() / self.spec.boost_clock_mhz
    }

    /// Current junction temperature, °C.
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// Current board power, watts.
    pub fn power_w(&self) -> f64 {
        self.power_w
    }

    /// Total energy consumed so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Fraction of busy periods spent throttled.
    pub fn throttle_ratio(&self) -> f64 {
        self.governor.throttle_ratio()
    }

    /// Fraction of busy periods spent thermally throttled.
    pub fn thermal_throttle_ratio(&self) -> f64 {
        self.governor.thermal_throttle_ratio()
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Advance one control period of `dt_s` seconds with the given kernel
    /// `activity` (0..1) and effective inlet temperature.
    #[inline]
    pub fn step(&mut self, activity: f64, inlet_c: f64, dt_s: f64) -> ThermalSample {
        let eff = self.variability.power_efficiency;
        let (model, cap_memo) = (&self.power_model, &mut self.cap_memo);
        let reason = self
            .governor
            .update_with_cap(&self.spec, self.temp_c, activity, |cap_w| {
                let key = activity.to_bits();
                match *cap_memo {
                    Some((k, ratio)) if k == key => ratio,
                    _ => {
                        let ratio = model.freq_ratio_for_cap(activity, cap_w, eff);
                        *cap_memo = Some((key, ratio));
                        ratio
                    }
                }
            });
        let freq_ratio = self.freq_ratio();
        let key = (activity.to_bits(), freq_ratio.to_bits());
        self.power_w = match self.power_memo {
            Some((k, power)) if k == key => power,
            _ => {
                let power = self.power_model.power_w(activity, freq_ratio, eff);
                self.power_memo = Some((key, power));
                power
            }
        };
        self.relax(inlet_c, dt_s);
        ThermalSample {
            power_w: self.power_w,
            temp_c: self.temp_c,
            freq_mhz: self.governor.freq_mhz(),
            throttled: matches!(reason, ThrottleReason::Thermal | ThrottleReason::Power),
            thermally_throttled: reason == ThrottleReason::Thermal,
        }
    }

    /// Whether a [`GpuThermal::step`] at zero activity would leave the
    /// clock, the governor's state and the board power as they are: the
    /// clock has settled at its idle floor and the power at idle power.
    /// An idle GPU gets there within a few control periods.
    pub fn at_idle_fixed_point(&self) -> bool {
        self.governor.at_idle_fixed_point(&self.spec)
            && self.power_w.to_bits() == self.power_model.idle_w.to_bits()
    }

    /// Relax the temperature toward steady state at the current power for
    /// `dt_s` seconds and accrue the energy.
    #[inline]
    fn relax(&mut self, inlet_c: f64, dt_s: f64) {
        let decay = self.decay(dt_s);
        self.temp_c = self.thermal.relax(
            self.temp_c,
            self.power_w,
            inlet_c,
            self.variability.cooling,
            decay,
        );
        self.energy_j += self.power_w * dt_s;
    }

    /// `exp(-dt/τ)` for a step of `dt_s`, cached while `dt_s` repeats.
    #[inline]
    fn decay(&mut self, dt_s: f64) -> f64 {
        match self.decay {
            Some((dt, k)) if dt.to_bits() == dt_s.to_bits() => k,
            _ => {
                let k = self.thermal.decay(self.variability.cooling, dt_s);
                self.decay = Some((dt_s, k));
                k
            }
        }
    }
}

/// Zero-activity steps of GPUs at their idle fixed points (see
/// [`GpuThermal::at_idle_fixed_point`]), run over flat arrays.
///
/// At the fixed point a [`GpuThermal::step`] at zero activity moves neither
/// the clock nor the power, so under a constant inlet and period every step
/// relaxes the temperature toward one steady state by one decay factor and
/// adds the same energy. [`IdleSteps::load`] takes the steady state and the
/// decay once, computed as `step` computes them; [`IdleSteps::step`] then
/// does `step`'s remaining arithmetic, so [`IdleSteps::store`] leaves every
/// GPU with the bits the same number of `step(0.0, inlet, dt)` calls would.
#[derive(Debug, Clone, Default)]
pub struct IdleSteps {
    gpu: Vec<u32>,
    temp_c: Vec<f64>,
    energy_j: Vec<f64>,
    target_c: Vec<f64>,
    decay: Vec<f64>,
    power_w: Vec<f64>,
    dt_s: f64,
}

impl IdleSteps {
    /// Replace the loaded GPUs with `(index into gpus, inlet °C)` pairs,
    /// each at its idle fixed point, stepped every `dt_s` seconds.
    pub fn load(
        &mut self,
        gpus: &mut [GpuThermal],
        order: impl IntoIterator<Item = (u32, f64)>,
        dt_s: f64,
    ) {
        for v in [
            &mut self.temp_c,
            &mut self.energy_j,
            &mut self.target_c,
            &mut self.decay,
            &mut self.power_w,
        ] {
            v.clear();
        }
        self.gpu.clear();
        self.dt_s = dt_s;
        for (i, inlet_c) in order {
            let g = &mut gpus[i as usize];
            debug_assert!(
                g.at_idle_fixed_point(),
                "GPU {i} is not at its idle fixed point"
            );
            self.gpu.push(i);
            self.temp_c.push(g.temp_c);
            self.energy_j.push(g.energy_j);
            self.target_c.push(
                g.thermal
                    .steady_state_c(g.power_w, inlet_c, g.variability.cooling),
            );
            self.decay.push(g.decay(dt_s));
            self.power_w.push(g.power_w);
        }
    }

    /// Step every loaded GPU once, in load order, handing `each` the GPU's
    /// index and its board power over the step.
    #[inline]
    pub fn step(&mut self, mut each: impl FnMut(u32, f64)) {
        for i in 0..self.gpu.len() {
            let target = self.target_c[i];
            self.temp_c[i] = target + (self.temp_c[i] - target) * self.decay[i];
            self.energy_j[i] += self.power_w[i] * self.dt_s;
            each(self.gpu[i], self.power_w[i]);
        }
    }

    /// Write the loaded GPUs' temperatures and energies back to `gpus`.
    pub fn store(&self, gpus: &mut [GpuThermal]) {
        for (i, &g) in self.gpu.iter().enumerate() {
            gpus[g as usize].temp_c = self.temp_c[i];
            gpus[g as usize].energy_j = self.energy_j[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::{GpuId, GpuModel};

    fn gpu(inlet: f64, variability: GpuVariability) -> GpuThermal {
        let spec = GpuModel::H200.spec();
        let cfg = GovernorConfig::for_spec(&spec);
        GpuThermal::new(
            spec,
            ThermalSpec::for_model(GpuModel::H200),
            cfg,
            variability,
            inlet,
        )
    }

    #[test]
    fn starts_at_idle_equilibrium() {
        let g = gpu(26.0, GpuVariability::nominal());
        assert!(g.temp_c() < 40.0);
        assert!(g.power_w() < 120.0);
        assert_eq!(g.energy_j(), 0.0);
    }

    #[test]
    fn sustained_gemm_load_heats_up_and_draws_power() {
        let mut g = gpu(26.0, GpuVariability::nominal());
        for _ in 0..600 {
            g.step(1.0, 26.0, 0.1);
        }
        assert!(g.temp_c() > 60.0, "temp = {}", g.temp_c());
        assert!(g.power_w() > 600.0, "power = {}", g.power_w());
        assert!(g.energy_j() > 0.0);
    }

    #[test]
    fn preheated_rear_gpu_throttles_while_front_does_not() {
        // The §6 thermal-imbalance mechanism end-to-end: same workload,
        // different inlet.
        let mut front = gpu(26.0, GpuVariability::nominal());
        let mut rear = gpu(42.0, GpuVariability::nominal());
        for _ in 0..3000 {
            front.step(1.0, 26.0, 0.1);
            rear.step(1.0, 42.0, 0.1);
        }
        assert!(rear.temp_c() > front.temp_c() + 8.0);
        assert!(
            rear.thermal_throttle_ratio() > 0.05,
            "rear ratio = {}",
            rear.thermal_throttle_ratio()
        );
        assert!(
            front.thermal_throttle_ratio() < 0.02,
            "front ratio = {}",
            front.thermal_throttle_ratio()
        );
        assert!(rear.freq_mhz() < front.freq_mhz());
    }

    #[test]
    fn throttled_gpu_recovers_when_idle() {
        let mut g = gpu(45.0, GpuVariability::nominal());
        for _ in 0..2000 {
            g.step(1.0, 45.0, 0.1);
        }
        let hot = g.temp_c();
        for _ in 0..2000 {
            g.step(0.0, 26.0, 0.1);
        }
        assert!(g.temp_c() < hot - 20.0);
        assert!(g.power_w() < 150.0);
    }

    #[test]
    fn energy_integrates_power() {
        let mut g = gpu(26.0, GpuVariability::nominal());
        let s = g.step(0.5, 26.0, 2.0);
        assert!((g.energy_j() - s.power_w * 2.0).abs() < 1e-9);
    }

    #[test]
    fn variability_shifts_thermal_outcome() {
        let hot_silicon = GpuVariability {
            power_efficiency: 1.03,
            cooling: 1.04,
        };
        let mut bad = gpu(26.0, hot_silicon);
        let mut good = gpu(26.0, GpuVariability::nominal());
        for _ in 0..1200 {
            bad.step(1.0, 26.0, 0.1);
            good.step(1.0, 26.0, 0.1);
        }
        assert!(bad.temp_c() > good.temp_c());
    }

    #[test]
    fn variability_determinism_via_gpu_id() {
        let v1 = GpuVariability::for_gpu(GpuId(3), 9);
        let v2 = GpuVariability::for_gpu(GpuId(3), 9);
        let mut a = gpu(26.0, v1);
        let mut b = gpu(26.0, v2);
        for _ in 0..100 {
            let sa = a.step(0.9, 26.0, 0.1);
            let sb = b.step(0.9, 26.0, 0.1);
            assert_eq!(sa, sb);
        }
    }
}
