//! The thermal/power/frequency state of every GPU in a run, stepped by the
//! simulator.

use charllm_hw::GpuSpec;

use crate::governor::{DvfsGovernor, GovernorConfig};
use crate::power::PowerModel;
use crate::rc::ThermalSpec;
use crate::variability::GpuVariability;

/// The live thermal/power/DVFS state of a set of GPUs of one device.
///
/// The device spec, its RC model and its power model are stored once. GPUs
/// differ in governor config only by their class, an index into a table
/// of [`GovernorConfig`]s (one class in practice, two under a node power
/// cap). What moves is stored per GPU, indexed by the GPU's position in
/// the bank, in two records: what only a busy step reads or moves (class,
/// efficiency, governor, memos), and what every step relaxes (temperature,
/// power, energy, the cooling factor and the decay). Both engines step
/// their GPUs through [`ThermalBank::step`]; [`ThermalBank::idle_steps`]
/// is its shortcut for GPUs at their idle fixed points, a loop over the
/// second records alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalBank {
    spec: GpuSpec,
    thermal: ThermalSpec,
    power: PowerModel,
    /// The governor config of each class.
    governors: Vec<GovernorConfig>,
    /// The `dt` every GPU's `exp(-dt/τ)` was taken at (∞ before the first
    /// step). The engines step with one `dt` (the control period), so the
    /// exponentials are taken once per run instead of once per tick.
    decay_dt: f64,
    busy: Vec<BusyState>,
    rc: Vec<RcState>,
}

/// What of one GPU only a busy step reads or moves.
#[derive(Debug, Clone, PartialEq)]
struct BusyState {
    /// The GPU's index into the governor config table.
    class: u32,
    /// The GPU's [`GpuVariability::power_efficiency`].
    efficiency: f64,
    governor: DvfsGovernor,
    /// The bits of the last step's `(activity, clock ratio)` and the board
    /// power they gave. The power model and the efficiency are fixed, so
    /// the power is reused while both bits repeat instead of paying `powf`.
    power_memo: Option<((u64, u64), f64)>,
    /// The bits of the last busy step's activity and the governor's cap
    /// ratio at it, reused while they repeat (the cap is fixed as well).
    cap_memo: Option<(u64, f64)>,
}

/// What of one GPU every step relaxes or reads.
#[derive(Debug, Clone, PartialEq)]
struct RcState {
    /// The GPU's [`GpuVariability::cooling`].
    cooling: f64,
    temp_c: f64,
    /// Board power over the last step, watts.
    power_w: f64,
    energy_j: f64,
    /// `exp(-dt/τ)` at the bank's `decay_dt`.
    decay: f64,
}

impl ThermalBank {
    /// An empty bank of `spec`'s device, with one class per governor
    /// config.
    pub fn new(spec: GpuSpec, governors: Vec<GovernorConfig>) -> Self {
        ThermalBank {
            thermal: ThermalSpec::for_model(spec.model),
            power: PowerModel::for_spec(&spec),
            spec,
            governors,
            decay_dt: f64::INFINITY,
            busy: Vec::new(),
            rc: Vec::new(),
        }
    }

    /// Add a GPU under governor config `governors[class]` at idle in
    /// equilibrium with the given inlet temperature, and return its index.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not an index into the governor config table.
    pub fn push(&mut self, class: usize, variability: GpuVariability, inlet_c: f64) -> usize {
        assert!(class < self.governors.len(), "no governor config {class}");
        let GpuVariability {
            power_efficiency: efficiency,
            cooling,
        } = variability;
        let power_w = self.power.power_w(0.0, 1.0, efficiency);
        self.busy.push(BusyState {
            class: class as u32,
            efficiency,
            governor: DvfsGovernor::new(&self.spec),
            power_memo: None,
            cap_memo: None,
        });
        self.rc.push(RcState {
            cooling,
            temp_c: self.thermal.steady_state_c(power_w, inlet_c, cooling),
            power_w,
            energy_j: 0.0,
            decay: self.thermal.decay(cooling, self.decay_dt),
        });
        self.rc.len() - 1
    }

    /// Number of GPUs in the bank.
    pub fn len(&self) -> usize {
        self.rc.len()
    }

    /// Whether the bank holds no GPU.
    pub fn is_empty(&self) -> bool {
        self.rc.is_empty()
    }

    /// GPU `i`'s junction temperature, °C.
    pub fn temp_c(&self, i: usize) -> f64 {
        self.rc[i].temp_c
    }

    /// GPU `i`'s board power over its last step, watts.
    pub fn power_w(&self, i: usize) -> f64 {
        self.rc[i].power_w
    }

    /// Energy GPU `i` has consumed so far, joules.
    pub fn energy_j(&self, i: usize) -> f64 {
        self.rc[i].energy_j
    }

    /// Energy every GPU has consumed so far, summed in index order, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.rc.iter().map(|rc| rc.energy_j).sum()
    }

    /// GPU `i`'s core clock, MHz.
    pub fn freq_mhz(&self, i: usize) -> f64 {
        self.busy[i].governor.freq_mhz()
    }

    /// GPU `i`'s clock as a fraction of boost (the compute-rate multiplier).
    pub fn freq_ratio(&self, i: usize) -> f64 {
        self.freq_mhz(i) / self.spec.boost_clock_mhz
    }

    /// Fraction of GPU `i`'s busy periods spent throttled.
    pub fn throttle_ratio(&self, i: usize) -> f64 {
        self.busy[i].governor.throttle_ratio()
    }

    /// Fraction of GPU `i`'s busy periods spent thermally throttled.
    pub fn thermal_throttle_ratio(&self, i: usize) -> f64 {
        self.busy[i].governor.thermal_throttle_ratio()
    }

    /// Advance GPU `i` one control period of `dt_s` seconds with the given
    /// kernel `activity` (0..1) and effective inlet temperature, and return
    /// its board power over the period.
    ///
    /// A `dt_s` other than the last step's retakes every GPU's decay, so a
    /// bank is meant to be stepped at one `dt` for long runs.
    #[inline]
    pub fn step(&mut self, i: usize, activity: f64, inlet_c: f64, dt_s: f64) -> f64 {
        self.set_decay_dt(dt_s);
        let (b, rc) = (&mut self.busy[i], &mut self.rc[i]);
        let (eff, power_model) = (b.efficiency, &self.power);
        let cap_memo = &mut b.cap_memo;
        let cfg = &self.governors[b.class as usize];
        b.governor
            .update_with_cap(&self.spec, cfg, rc.temp_c, activity, |cap_w| {
                let key = activity.to_bits();
                match *cap_memo {
                    Some((k, ratio)) if k == key => ratio,
                    _ => {
                        let ratio = power_model.freq_ratio_for_cap(activity, cap_w, eff);
                        *cap_memo = Some((key, ratio));
                        ratio
                    }
                }
            });
        let freq_ratio = b.governor.freq_mhz() / self.spec.boost_clock_mhz;
        let key = (activity.to_bits(), freq_ratio.to_bits());
        let power = match b.power_memo {
            Some((k, power)) if k == key => power,
            _ => {
                let power = power_model.power_w(activity, freq_ratio, eff);
                b.power_memo = Some((key, power));
                power
            }
        };
        rc.power_w = power;
        rc.relax(&self.thermal, inlet_c, dt_s);
        power
    }

    /// Whether a [`ThermalBank::step`] of GPU `i` at zero activity would
    /// leave its clock, its governor's state and its board power as they
    /// are: the clock has settled at its idle floor and the power at idle
    /// power. An idle GPU gets there within a few control periods.
    pub fn at_idle_fixed_point(&self, i: usize) -> bool {
        let b = &self.busy[i];
        b.governor
            .at_idle_fixed_point(&self.spec, &self.governors[b.class as usize])
            && self.rc[i].power_w.to_bits() == self.power.idle_w.to_bits()
    }

    /// [`ThermalBank::step`] at zero activity for every GPU, each at its
    /// idle fixed point: GPU `i` in index order with the `i`th inlet
    /// temperature of `inlets`, handed with its power to `each`. Only the
    /// relaxation and the energy move, so only they are computed, with
    /// the bits `step(i, 0.0, inlet_c, dt_s)` gives.
    ///
    /// # Panics
    ///
    /// Panics unless `inlets` holds one inlet per GPU.
    #[inline]
    pub fn idle_steps(
        &mut self,
        inlets: impl ExactSizeIterator<Item = f64>,
        dt_s: f64,
        mut each: impl FnMut(usize, f64),
    ) {
        assert_eq!(inlets.len(), self.len(), "one inlet per GPU");
        debug_assert!(
            (0..self.len()).all(|i| self.at_idle_fixed_point(i)),
            "a GPU is not at its idle fixed point"
        );
        self.set_decay_dt(dt_s);
        for (i, (rc, inlet_c)) in self.rc.iter_mut().zip(inlets).enumerate() {
            rc.relax(&self.thermal, inlet_c, dt_s);
            each(i, rc.power_w);
        }
    }

    /// Retake every GPU's `exp(-dt/τ)` unless it was taken at the bits of
    /// `dt_s`.
    #[inline]
    fn set_decay_dt(&mut self, dt_s: f64) {
        if self.decay_dt.to_bits() != dt_s.to_bits() {
            self.retake_decays(dt_s);
        }
    }

    /// The slow half of `set_decay_dt`, kept out of the step: an engine
    /// run takes it twice.
    #[cold]
    fn retake_decays(&mut self, dt_s: f64) {
        self.decay_dt = dt_s;
        for rc in &mut self.rc {
            rc.decay = self.thermal.decay(rc.cooling, dt_s);
        }
    }
}

impl RcState {
    /// Relax the temperature one step of `dt_s` toward the steady state at
    /// the power and inlet, and integrate the power.
    #[inline]
    fn relax(&mut self, thermal: &ThermalSpec, inlet_c: f64, dt_s: f64) {
        self.temp_c = thermal.relax(self.temp_c, self.power_w, inlet_c, self.cooling, self.decay);
        self.energy_j += self.power_w * dt_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::{GpuId, GpuModel};

    /// A bank of one H200 class with one GPU per `(inlet, variability)`.
    fn bank(gpus: &[(f64, GpuVariability)]) -> ThermalBank {
        let spec = GpuModel::H200.spec();
        let cfg = GovernorConfig::for_spec(&spec);
        let mut bank = ThermalBank::new(spec, vec![cfg]);
        for &(inlet, variability) in gpus {
            bank.push(0, variability, inlet);
        }
        bank
    }

    #[test]
    fn starts_at_idle_equilibrium() {
        let g = bank(&[(26.0, GpuVariability::nominal())]);
        assert!(g.temp_c(0) < 40.0);
        assert!(g.power_w(0) < 120.0);
        assert_eq!(g.energy_j(0), 0.0);
    }

    #[test]
    fn sustained_gemm_load_heats_up_and_draws_power() {
        let mut g = bank(&[(26.0, GpuVariability::nominal())]);
        for _ in 0..600 {
            g.step(0, 1.0, 26.0, 0.1);
        }
        assert!(g.temp_c(0) > 60.0, "temp = {}", g.temp_c(0));
        assert!(g.power_w(0) > 600.0, "power = {}", g.power_w(0));
        assert!(g.energy_j(0) > 0.0);
    }

    #[test]
    fn preheated_rear_gpu_throttles_while_front_does_not() {
        // The §6 thermal-imbalance mechanism end-to-end: same workload,
        // different inlet.
        let (front, rear) = (0, 1);
        let nominal = GpuVariability::nominal();
        let mut g = bank(&[(26.0, nominal), (42.0, nominal)]);
        for _ in 0..3000 {
            g.step(front, 1.0, 26.0, 0.1);
            g.step(rear, 1.0, 42.0, 0.1);
        }
        assert!(g.temp_c(rear) > g.temp_c(front) + 8.0);
        assert!(
            g.thermal_throttle_ratio(rear) > 0.05,
            "rear ratio = {}",
            g.thermal_throttle_ratio(rear)
        );
        assert!(
            g.thermal_throttle_ratio(front) < 0.02,
            "front ratio = {}",
            g.thermal_throttle_ratio(front)
        );
        assert!(g.freq_mhz(rear) < g.freq_mhz(front));
    }

    #[test]
    fn throttled_gpu_recovers_when_idle() {
        let mut g = bank(&[(45.0, GpuVariability::nominal())]);
        for _ in 0..2000 {
            g.step(0, 1.0, 45.0, 0.1);
        }
        let hot = g.temp_c(0);
        for _ in 0..2000 {
            g.step(0, 0.0, 26.0, 0.1);
        }
        assert!(g.temp_c(0) < hot - 20.0);
        assert!(g.power_w(0) < 150.0);
    }

    #[test]
    fn energy_integrates_power() {
        let mut g = bank(&[(26.0, GpuVariability::nominal())]);
        let power = g.step(0, 0.5, 26.0, 2.0);
        assert!((g.energy_j(0) - power * 2.0).abs() < 1e-9);
    }

    #[test]
    fn variability_shifts_thermal_outcome() {
        let hot_silicon = GpuVariability {
            power_efficiency: 1.03,
            cooling: 1.04,
        };
        let (bad, good) = (0, 1);
        let mut g = bank(&[(26.0, hot_silicon), (26.0, GpuVariability::nominal())]);
        for _ in 0..1200 {
            g.step(bad, 1.0, 26.0, 0.1);
            g.step(good, 1.0, 26.0, 0.1);
        }
        assert!(g.temp_c(bad) > g.temp_c(good));
    }

    #[test]
    fn variability_determinism_via_gpu_id() {
        let v1 = GpuVariability::for_gpu(GpuId(3), 9);
        let v2 = GpuVariability::for_gpu(GpuId(3), 9);
        let (a, b) = (0, 1);
        let mut g = bank(&[(26.0, v1), (26.0, v2)]);
        let sample = |g: &ThermalBank, i: usize, power: f64| (power, g.temp_c(i), g.freq_mhz(i));
        for _ in 0..100 {
            let pa = g.step(a, 0.9, 26.0, 0.1);
            let pb = g.step(b, 0.9, 26.0, 0.1);
            assert_eq!(sample(&g, a, pa), sample(&g, b, pb));
        }
    }
}
