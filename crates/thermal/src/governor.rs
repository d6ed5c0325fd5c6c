//! DVFS governor: boost/throttle behaviour of the GPU clock.
//!
//! The governor reproduces the mechanisms the paper measures as "clock
//! throttling" (Figs. 17b, 18b, 20): the clock boosts toward maximum when
//! busy, steps down when the junction temperature exceeds the throttle
//! threshold (harder beyond the slowdown threshold), is capped so board
//! power stays within TDP, and recovers with hysteresis once the device
//! cools.

use serde::{Deserialize, Serialize};

use charllm_hw::GpuSpec;

use crate::power::PowerModel;

/// Governor tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// Clock step when recovering, MHz per control period.
    pub step_up_mhz: f64,
    /// Clock step under thermal throttle, MHz per control period.
    pub step_down_mhz: f64,
    /// Extra multiplier on the step beyond the slowdown temperature.
    pub slowdown_multiplier: f64,
    /// Temperature margin below the throttle threshold required before the
    /// clock recovers, °C.
    pub hysteresis_c: f64,
    /// Board power cap, watts (TDP unless overridden).
    pub power_cap_w: f64,
}

impl GovernorConfig {
    /// Defaults for a device spec (power cap = TDP).
    pub fn for_spec(spec: &GpuSpec) -> Self {
        GovernorConfig {
            step_up_mhz: 45.0,
            step_down_mhz: 75.0,
            slowdown_multiplier: 3.0,
            hysteresis_c: 3.0,
            power_cap_w: spec.tdp_w,
        }
    }
}

/// Why the governor held the clock below boost during a period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ThrottleReason {
    /// No throttling: at (or recovering toward) boost.
    #[default]
    None,
    /// Junction temperature above the throttle threshold.
    Thermal,
    /// Board power would exceed the cap.
    Power,
    /// Device idle (clocks dropped to save power).
    Idle,
}

/// Per-GPU DVFS governor state. Its [`GovernorConfig`] is shared by every
/// GPU of a class, so the caller passes it to each method that reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsGovernor {
    freq_mhz: f64,
    throttled_periods: u64,
    thermal_throttled_periods: u64,
    total_busy_periods: u64,
    /// What last dropped the clock below boost. Residual below-boost periods
    /// (clock recovering, nothing actively stepping it down) are attributed
    /// to this cause rather than blindly to `Thermal`.
    cause: ThrottleReason,
}

impl DvfsGovernor {
    /// A governor starting at boost clock.
    pub fn new(spec: &GpuSpec) -> Self {
        DvfsGovernor {
            freq_mhz: spec.boost_clock_mhz,
            throttled_periods: 0,
            thermal_throttled_periods: 0,
            total_busy_periods: 0,
            cause: ThrottleReason::None,
        }
    }

    /// Current clock, MHz.
    pub fn freq_mhz(&self) -> f64 {
        self.freq_mhz
    }

    /// Fraction of busy control periods spent throttled (any reason).
    pub fn throttle_ratio(&self) -> f64 {
        if self.total_busy_periods == 0 {
            0.0
        } else {
            self.throttled_periods as f64 / self.total_busy_periods as f64
        }
    }

    /// Fraction of busy control periods spent *thermally* throttled.
    pub fn thermal_throttle_ratio(&self) -> f64 {
        if self.total_busy_periods == 0 {
            0.0
        } else {
            self.thermal_throttled_periods as f64 / self.total_busy_periods as f64
        }
    }

    /// Whether an idle [`DvfsGovernor::update`] (activity ≤ 0) would leave
    /// this governor exactly as it is: the clock already at its idle floor
    /// and the idle drop already recorded as the cause.
    pub fn at_idle_fixed_point(&self, spec: &GpuSpec, cfg: &GovernorConfig) -> bool {
        self.cause == ThrottleReason::Idle
            && self.idle_freq_mhz(spec, cfg).to_bits() == self.freq_mhz.to_bits()
    }

    /// The clock after one idle period: one step down, floored at base.
    #[inline]
    fn idle_freq_mhz(&self, spec: &GpuSpec, cfg: &GovernorConfig) -> f64 {
        (self.freq_mhz - cfg.step_down_mhz).max(spec.base_clock_mhz)
    }

    /// Advance one control period: adjust the clock given junction
    /// temperature, activity and the power model. Returns the reason the
    /// clock is (still) below boost, if any.
    #[inline]
    pub fn update(
        &mut self,
        spec: &GpuSpec,
        cfg: &GovernorConfig,
        power: &PowerModel,
        temp_c: f64,
        activity: f64,
        efficiency: f64,
    ) -> ThrottleReason {
        self.update_with_cap(spec, cfg, temp_c, activity, |cap_w| {
            power.freq_ratio_for_cap(activity, cap_w, efficiency)
        })
    }

    /// [`DvfsGovernor::update`] with the power cap's clock ratio taken from
    /// `cap_ratio(power_cap_w)`, which is called only for a busy period.
    /// [`crate::ThermalBank`] supplies a ratio it reuses while the activity
    /// repeats.
    #[inline]
    pub fn update_with_cap(
        &mut self,
        spec: &GpuSpec,
        cfg: &GovernorConfig,
        temp_c: f64,
        activity: f64,
        cap_ratio: impl FnOnce(f64) -> f64,
    ) -> ThrottleReason {
        if activity <= 0.0 {
            // Idle: drop toward base clock (don't count as throttling).
            self.freq_mhz = self.idle_freq_mhz(spec, cfg);
            self.cause = ThrottleReason::Idle;
            return ThrottleReason::Idle;
        }
        self.total_busy_periods += 1;

        // Power cap: the frequency the cap allows at this activity.
        let cap_ratio = cap_ratio(cfg.power_cap_w);
        let cap_mhz = (spec.boost_clock_mhz * cap_ratio).max(spec.min_clock_mhz);

        let in_thermal_band = temp_c > spec.throttle_temp_c - cfg.hysteresis_c;
        let thermally_stepped = temp_c >= spec.throttle_temp_c;
        if temp_c >= spec.slowdown_temp_c {
            self.freq_mhz -= cfg.step_down_mhz * cfg.slowdown_multiplier;
        } else if thermally_stepped {
            self.freq_mhz -= cfg.step_down_mhz;
        } else if !in_thermal_band {
            self.freq_mhz += cfg.step_up_mhz;
        }
        let power_capped = self.freq_mhz > cap_mhz && cap_ratio < 1.0;
        if self.freq_mhz > cap_mhz {
            self.freq_mhz = cap_mhz;
        }
        self.freq_mhz = self
            .freq_mhz
            .clamp(spec.min_clock_mhz, spec.boost_clock_mhz);

        // Throttle residency: what NVML reports is "clock held below boost
        // while busy", not the instants the governor stepped down. An actual
        // thermal step this period takes precedence; otherwise a binding
        // power cap does (merely being inside the hysteresis band is a hold,
        // not a thermal event); otherwise the residual hold is attributed to
        // whatever originally dropped the clock — an idle drop recovering
        // toward boost is not throttling at all.
        let held_below_boost = self.freq_mhz < 0.985 * spec.boost_clock_mhz;
        let reason = if !held_below_boost {
            self.cause = ThrottleReason::None;
            ThrottleReason::None
        } else if thermally_stepped {
            self.cause = ThrottleReason::Thermal;
            ThrottleReason::Thermal
        } else if power_capped {
            self.cause = ThrottleReason::Power;
            ThrottleReason::Power
        } else {
            match self.cause {
                ThrottleReason::Thermal => ThrottleReason::Thermal,
                ThrottleReason::Power => ThrottleReason::Power,
                ThrottleReason::Idle | ThrottleReason::None => ThrottleReason::None,
            }
        };
        match reason {
            ThrottleReason::Thermal => {
                self.throttled_periods += 1;
                self.thermal_throttled_periods += 1;
            }
            ThrottleReason::Power => self.throttled_periods += 1,
            _ => {}
        }
        reason
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::GpuModel;

    fn setup() -> (GpuSpec, GovernorConfig, PowerModel, DvfsGovernor) {
        let spec = GpuModel::H200.spec();
        let power = PowerModel::for_spec(&spec);
        let cfg = GovernorConfig::for_spec(&spec);
        let gov = DvfsGovernor::new(&spec);
        (spec, cfg, power, gov)
    }

    #[test]
    fn cool_and_busy_stays_at_boost() {
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..50 {
            let r = gov.update(&spec, &cfg, &power, 60.0, 0.8, 1.0);
            assert_eq!(r, ThrottleReason::None);
        }
        assert_eq!(gov.freq_mhz(), spec.boost_clock_mhz);
        assert_eq!(gov.throttle_ratio(), 0.0);
    }

    #[test]
    fn hot_gpu_throttles_down() {
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..20 {
            let r = gov.update(&spec, &cfg, &power, 86.0, 1.0, 1.0);
            assert_eq!(r, ThrottleReason::Thermal);
        }
        assert!(gov.freq_mhz() < spec.boost_clock_mhz - 500.0);
        assert!(gov.throttle_ratio() > 0.99);
        assert!(gov.thermal_throttle_ratio() > 0.99);
    }

    #[test]
    fn slowdown_temperature_throttles_faster() {
        let (spec, cfg, power, _) = setup();
        let mut mild = DvfsGovernor::new(&spec);
        let mut severe = DvfsGovernor::new(&spec);
        for _ in 0..5 {
            mild.update(&spec, &cfg, &power, 84.0, 1.0, 1.0);
            severe.update(&spec, &cfg, &power, 89.0, 1.0, 1.0);
        }
        assert!(severe.freq_mhz() < mild.freq_mhz());
    }

    #[test]
    fn recovers_after_cooling_with_hysteresis() {
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..20 {
            gov.update(&spec, &cfg, &power, 86.0, 1.0, 1.0);
        }
        let throttled = gov.freq_mhz();
        // Inside the hysteresis band: hold.
        gov.update(&spec, &cfg, &power, 81.5, 1.0, 1.0);
        assert_eq!(gov.freq_mhz(), throttled);
        // Below the band: recover.
        for _ in 0..200 {
            gov.update(&spec, &cfg, &power, 70.0, 0.5, 1.0);
        }
        assert_eq!(gov.freq_mhz(), spec.boost_clock_mhz);
    }

    #[test]
    fn power_cap_limits_clock_under_heavy_activity() {
        let (spec, _, power, _) = setup();
        let mut cfg = GovernorConfig::for_spec(&spec);
        cfg.power_cap_w = 500.0; // node-level cap scenario
        let mut gov = DvfsGovernor::new(&spec);
        let r = gov.update(&spec, &cfg, &power, 60.0, 1.0, 1.0);
        assert_eq!(r, ThrottleReason::Power);
        let p = power.power_w(1.0, gov.freq_mhz() / spec.boost_clock_mhz, 1.0);
        assert!(p <= 501.0, "power after cap = {p}");
    }

    #[test]
    fn clock_floors_at_min() {
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..1000 {
            gov.update(&spec, &cfg, &power, 95.0, 1.0, 1.0);
        }
        assert_eq!(gov.freq_mhz(), spec.min_clock_mhz);
    }

    #[test]
    fn idle_drop_then_busy_recovery_is_not_thermal() {
        // Regression: an idle period drops the clock toward base; the busy
        // periods that follow (cool device, clock stepping back up) used to
        // be misattributed to `Thermal` just because the clock was still
        // below boost.
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..10 {
            assert_eq!(
                gov.update(&spec, &cfg, &power, 40.0, 0.0, 1.0),
                ThrottleReason::Idle
            );
        }
        assert!(gov.freq_mhz() < 0.985 * spec.boost_clock_mhz);
        while gov.freq_mhz() < spec.boost_clock_mhz {
            let r = gov.update(&spec, &cfg, &power, 60.0, 0.8, 1.0);
            assert_eq!(r, ThrottleReason::None, "residual idle recovery");
        }
        assert_eq!(gov.thermal_throttle_ratio(), 0.0);
        assert_eq!(gov.throttle_ratio(), 0.0);
    }

    #[test]
    fn power_cap_inside_hysteresis_band_reports_power() {
        // Regression: with the cap binding and the temperature inside the
        // hysteresis band but *below* the throttle threshold (81.5 °C vs
        // 83 °C for H200), the reason is the power cap, not thermal.
        let (spec, _, power, _) = setup();
        let mut cfg = GovernorConfig::for_spec(&spec);
        cfg.power_cap_w = 500.0;
        let mut gov = DvfsGovernor::new(&spec);
        let warm = spec.throttle_temp_c - cfg.hysteresis_c / 2.0;
        for _ in 0..20 {
            let r = gov.update(&spec, &cfg, &power, warm, 1.0, 1.0);
            assert_eq!(r, ThrottleReason::Power);
        }
        assert_eq!(gov.thermal_throttle_ratio(), 0.0);
        assert_eq!(gov.throttle_ratio(), 1.0);
    }

    #[test]
    fn residual_after_thermal_event_stays_thermal() {
        // The in-band hold after a genuine thermal event still reads as
        // thermal residency (matches NVML's sustained report).
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..20 {
            gov.update(&spec, &cfg, &power, 86.0, 1.0, 1.0);
        }
        let r = gov.update(&spec, &cfg, &power, 81.5, 1.0, 1.0);
        assert_eq!(r, ThrottleReason::Thermal);
        // Below the band, recovering: the cause is still the thermal event.
        let r = gov.update(&spec, &cfg, &power, 70.0, 1.0, 1.0);
        assert_eq!(r, ThrottleReason::Thermal);
    }

    #[test]
    fn idle_periods_not_counted_as_throttling() {
        let (spec, cfg, power, mut gov) = setup();
        for _ in 0..10 {
            let r = gov.update(&spec, &cfg, &power, 40.0, 0.0, 1.0);
            assert_eq!(r, ThrottleReason::Idle);
        }
        assert_eq!(gov.throttle_ratio(), 0.0);
        assert!(gov.freq_mhz() < spec.boost_clock_mhz);
    }
}
