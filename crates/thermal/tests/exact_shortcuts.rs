//! The control tick's shortcuts are exact: `PowerModel::power_w` skipping
//! `powf` at zero activity, `PowerModel::freq_ratio_for_cap` skipping it
//! when the cap never binds, `GpuThermal::step` reusing `exp(-dt/τ)` while
//! `dt` repeats and reusing its power and cap ratio while their inputs'
//! bits repeat all return the bits of the formulas written out in full;
//! `IdleSteps` leaves a GPU at its idle fixed point in the state
//! `GpuThermal::step` at zero activity leaves.

use proptest::prelude::*;

use charllm_hw::GpuModel;
use charllm_thermal::{
    DvfsGovernor, GovernorConfig, GpuThermal, GpuVariability, IdleSteps, PowerModel, ThermalSpec,
};

/// An activity drawn from the edge cases as well as the unit interval:
/// 0, −0, NaN, above 1 and below 0.
fn activity(kind: usize, x: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => 1.0 + x,
        4 => -x,
        _ => x,
    }
}

fn model() -> PowerModel {
    PowerModel::for_spec(&GpuModel::H200.spec())
}

/// `PowerModel::power_w` without the zero-activity shortcut.
fn power_in_full(m: &PowerModel, activity: f64, freq_ratio: f64, efficiency: f64) -> f64 {
    let a = activity.clamp(0.0, 1.0);
    let fr = freq_ratio.max(0.0);
    m.idle_w + a * m.max_dynamic_w * fr.powf(m.freq_exponent) * efficiency
}

/// `PowerModel::freq_ratio_for_cap` without the non-binding shortcut.
fn cap_ratio_in_full(m: &PowerModel, activity: f64, cap_w: f64, efficiency: f64) -> f64 {
    let a = activity.clamp(0.0, 1.0);
    if a <= 0.0 {
        return 1.0;
    }
    let dynamic_budget = (cap_w - m.idle_w).max(0.0);
    let needed = dynamic_budget / (a * m.max_dynamic_w * efficiency);
    needed.powf(1.0 / m.freq_exponent).min(1.0)
}

/// `ThermalSpec::step` written out: exponential approach to steady state.
fn temp_in_full(s: &ThermalSpec, temp: f64, power: f64, inlet: f64, cooling: f64, dt: f64) -> f64 {
    let tau = s.r_c_per_w * cooling * s.c_j_per_c;
    let target = inlet + power * s.r_c_per_w * cooling;
    target + (temp - target) * (-dt / tau).exp()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn power_matches_the_full_formula(
        kind in 0usize..7,
        x in 0.0f64..1.0,
        freq_ratio in 0.0f64..1.2,
        efficiency in 0.9f64..1.1,
    ) {
        let m = model();
        let a = activity(kind, x);
        prop_assert_eq!(
            m.power_w(a, freq_ratio, efficiency).to_bits(),
            power_in_full(&m, a, freq_ratio, efficiency).to_bits()
        );
    }

    #[test]
    fn cap_ratio_matches_the_full_formula(
        kind in 0usize..7,
        x in 0.0f64..1.0,
        // Either anywhere from below idle power to well past TDP, or within
        // 10% of the cap that just binds at this activity.
        near in any::<bool>(),
        wide_cap_w in 50.0f64..900.0,
        needed in 0.9f64..1.1,
        efficiency in 0.9f64..1.1,
    ) {
        let m = model();
        let a = activity(kind, x);
        let binding_w = m.idle_w + a.clamp(0.0, 1.0) * m.max_dynamic_w * efficiency;
        let cap_w = if near { m.idle_w + needed * (binding_w - m.idle_w) } else { wide_cap_w };
        prop_assert_eq!(
            m.freq_ratio_for_cap(a, cap_w, efficiency).to_bits(),
            cap_ratio_in_full(&m, a, cap_w, efficiency).to_bits()
        );
    }

    #[test]
    fn gpu_step_matches_the_full_formula_as_dt_changes(
        steps in collection::vec((0usize..7, 0.0f64..1.0, 20.0f64..50.0, 0usize..4), 1..64),
        cap_w in 300.0f64..800.0,
        efficiency in 0.95f64..1.05,
        cooling in 0.95f64..1.1,
    ) {
        let spec = GpuModel::H200.spec();
        let thermal = ThermalSpec::for_model(GpuModel::H200);
        let mut cfg = GovernorConfig::for_spec(&spec);
        cfg.power_cap_w = cap_w;
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut gpu = GpuThermal::new(spec, thermal, cfg, variability, 26.0);
        // Runs of one `dt` broken by others, so the cached decay is both
        // reused and invalidated.
        let dts = [0.005, 0.005, 0.05, 1.0];
        for (kind, x, inlet, d) in steps {
            // NaN activity would leave every later step NaN: skip it here.
            let a = activity(if kind == 2 { 0 } else { kind }, x);
            let before = gpu.temp_c();
            let sample = gpu.step(a, inlet, dts[d]);
            let want = temp_in_full(&thermal, before, sample.power_w, inlet, cooling, dts[d]);
            prop_assert_eq!(sample.temp_c.to_bits(), want.to_bits());
            prop_assert_eq!(gpu.temp_c().to_bits(), want.to_bits());
            let power = power_in_full(&model(), a, gpu.freq_ratio(), efficiency);
            prop_assert_eq!(sample.power_w.to_bits(), power.to_bits());
        }
    }

    #[test]
    fn gpu_step_memos_match_the_full_formulas(
        // Indices into a small activity pool, so activities repeat while
        // the clock moves under them (an idle drop recovering under a
        // binding cap) and stay put (a run of one activity at the cap).
        steps in collection::vec((0usize..5, 20.0f64..50.0), 1..96),
        cap_w in 300.0f64..550.0,
        efficiency in 0.95f64..1.05,
        cooling in 0.95f64..1.1,
    ) {
        let pool = [0.0, -0.0, 0.38, 0.82, 1.0];
        let spec = GpuModel::H200.spec();
        let thermal = ThermalSpec::for_model(GpuModel::H200);
        let mut cfg = GovernorConfig::for_spec(&spec);
        cfg.power_cap_w = cap_w;
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut gpu = GpuThermal::new(spec.clone(), thermal, cfg, variability, 26.0);
        // The governor stepped beside it with the cap ratio in full.
        let mut governor = DvfsGovernor::new(&spec, cfg);
        let m = model();
        for (k, inlet) in steps {
            let a = pool[k];
            let before = gpu.temp_c();
            let sample = gpu.step(a, inlet, 0.005);
            governor.update_with_cap(&spec, before, a, |cap_w| {
                cap_ratio_in_full(&m, a, cap_w, efficiency)
            });
            prop_assert_eq!(sample.freq_mhz.to_bits(), governor.freq_mhz().to_bits());
            let ratio = governor.freq_mhz() / spec.boost_clock_mhz;
            let power = power_in_full(&m, a, ratio, efficiency);
            prop_assert_eq!(sample.power_w.to_bits(), power.to_bits());
        }
    }

    #[test]
    fn idle_steps_match_zero_activity_steps(
        busy in collection::vec((0.0f64..1.0, 20.0f64..50.0), 0..64),
        segments in collection::vec((20.0f64..50.0, 0usize..4, 1usize..24), 1..8),
        settle_inlet in 20.0f64..50.0,
        cap_w in 300.0f64..800.0,
        efficiency in 0.95f64..1.05,
        cooling in 0.95f64..1.1,
    ) {
        let spec = GpuModel::H200.spec();
        let thermal = ThermalSpec::for_model(GpuModel::H200);
        let mut cfg = GovernorConfig::for_spec(&spec);
        cfg.power_cap_w = cap_w;
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut gpu = GpuThermal::new(spec, thermal, cfg, variability, 26.0);
        prop_assert!(!gpu.at_idle_fixed_point(), "a fresh GPU sits at boost");
        for (a, inlet) in busy {
            gpu.step(a, inlet, 0.005);
        }
        // The clock steps down at most boost − base per idle period, so
        // the fixed point comes within a handful of them.
        let mut settling = 0;
        while !gpu.at_idle_fixed_point() {
            gpu.step(0.0, settle_inlet, 0.005);
            settling += 1;
            prop_assert!(settling <= 16, "no idle fixed point after {} periods", settling);
        }
        // Two GPUs in one batch, the flat one stepped as index 1; segments
        // of one inlet and one `dt`, so the decay cache is both reused and
        // invalidated.
        let dts = [0.005, 0.005, 0.05, 1.0];
        let untouched = gpu.clone();
        let mut flat = vec![gpu.clone(), gpu.clone()];
        let mut full = gpu;
        let mut idle = IdleSteps::default();
        for (inlet, d, steps) in segments {
            idle.load(&mut flat, [(1, inlet)], dts[d]);
            for _ in 0..steps {
                let sample = full.step(0.0, inlet, dts[d]);
                let mut seen = Vec::new();
                idle.step(|i, power| seen.push((i, power.to_bits())));
                prop_assert_eq!(seen, vec![(1, sample.power_w.to_bits())]);
            }
            idle.store(&mut flat);
            let g = &flat[1];
            for (a, b) in [
                (g.temp_c(), full.temp_c()),
                (g.energy_j(), full.energy_j()),
                (g.power_w(), full.power_w()),
                (g.freq_mhz(), full.freq_mhz()),
            ] {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // The governor's counters and cause and the decay cache too.
            prop_assert!(g == &full);
            prop_assert!(g.at_idle_fixed_point());
        }
        prop_assert!(flat[0] == untouched, "a GPU that was not loaded moved");
    }
}
