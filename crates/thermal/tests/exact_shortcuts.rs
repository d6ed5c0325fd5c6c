//! The control tick's shortcuts are exact: `PowerModel::power_w` skipping
//! `powf` at zero activity, `PowerModel::freq_ratio_for_cap` skipping it
//! when the cap never binds, `ThermalBank::step` reusing `exp(-dt/τ)` while
//! `dt` repeats and reusing its power and cap ratio while their inputs'
//! bits repeat all return the bits of the formulas written out in full;
//! `ThermalBank::idle_steps` leaves GPUs at their idle fixed points in
//! the state `ThermalBank::step` at zero activity leaves; and a bank of many
//! GPUs and classes steps each GPU as a bank of that GPU alone would.

use proptest::prelude::*;

use charllm_hw::{GpuId, GpuModel};
use charllm_thermal::{
    DvfsGovernor, GovernorConfig, GpuVariability, PowerModel, ThermalBank, ThermalSpec,
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

/// The H200 governor config under a power cap of `cap_w`.
fn h200_capped(cap_w: f64) -> GovernorConfig {
    let mut cfg = GovernorConfig::for_spec(&GpuModel::H200.spec());
    cfg.power_cap_w = cap_w;
    cfg
}

/// A bank of `count` GPUs of one H200 class at `cap_w`, alike in
/// `variability`, starting at a 26 °C inlet.
fn h200_bank(cap_w: f64, variability: GpuVariability, count: usize) -> ThermalBank {
    let mut bank = ThermalBank::new(GpuModel::H200.spec(), vec![h200_capped(cap_w)]);
    for _ in 0..count {
        bank.push(0, variability, 26.0);
    }
    bank
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
        let thermal = ThermalSpec::for_model(GpuModel::H200);
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut bank = h200_bank(cap_w, variability, 1);
        // Runs of one `dt` broken by others, so the cached decay is both
        // reused and invalidated.
        let dts = [0.005, 0.005, 0.05, 1.0];
        for (kind, x, inlet, d) in steps {
            // NaN activity would leave every later step NaN: skip it here.
            let a = activity(if kind == 2 { 0 } else { kind }, x);
            let before = bank.temp_c(0);
            let power = bank.step(0, a, inlet, dts[d]);
            let want = temp_in_full(&thermal, before, power, inlet, cooling, dts[d]);
            prop_assert_eq!(bank.temp_c(0).to_bits(), want.to_bits());
            let full = power_in_full(&model(), a, bank.freq_ratio(0), efficiency);
            prop_assert_eq!(power.to_bits(), full.to_bits());
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
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut bank = h200_bank(cap_w, variability, 1);
        // The governor stepped beside it with the cap ratio in full.
        let cfg = h200_capped(cap_w);
        let mut governor = DvfsGovernor::new(&spec);
        let m = model();
        for (k, inlet) in steps {
            let a = pool[k];
            let before = bank.temp_c(0);
            let power = bank.step(0, a, inlet, 0.005);
            governor.update_with_cap(&spec, &cfg, before, a, |cap_w| {
                cap_ratio_in_full(&m, a, cap_w, efficiency)
            });
            prop_assert_eq!(bank.freq_mhz(0).to_bits(), governor.freq_mhz().to_bits());
            let ratio = governor.freq_mhz() / spec.boost_clock_mhz;
            let full = power_in_full(&m, a, ratio, efficiency);
            prop_assert_eq!(power.to_bits(), full.to_bits());
        }
    }

    #[test]
    fn idle_steps_match_zero_activity_steps(
        busy in collection::vec((0.0f64..1.0, 20.0f64..50.0), 0..64),
        segments in collection::vec((20.0f64..50.0, 0usize..4, 1usize..24), 1..8),
        settle_inlet in 20.0f64..50.0,
        cap_w in 300.0f64..800.0,
        // Whether GPU 2 is of a second class, under a lower cap.
        mixed in any::<bool>(),
        efficiency in 0.95f64..1.05,
        cooling in 0.95f64..1.1,
    ) {
        let variability = GpuVariability { power_efficiency: efficiency, cooling };
        let mut governors = vec![h200_capped(cap_w)];
        if mixed {
            governors.push(h200_capped(cap_w - 100.0));
        }
        let mut bank = ThermalBank::new(GpuModel::H200.spec(), governors);
        bank.push(0, variability, 26.0);
        bank.push(0, GpuVariability::for_gpu(GpuId(1), 7), 26.0);
        bank.push(usize::from(mixed), GpuVariability::for_gpu(GpuId(2), 7), 26.0);
        prop_assert!(!bank.at_idle_fixed_point(0), "a fresh GPU sits at boost");
        for (a, inlet) in busy {
            for i in 0..3 {
                bank.step(i, a, inlet, 0.005);
            }
        }
        // The clock steps down at most boost − base per idle period, so
        // the fixed point comes within a handful of them.
        let mut settling = 0;
        while !(0..3).all(|i| bank.at_idle_fixed_point(i)) {
            for i in 0..3 {
                bank.step(i, 0.0, settle_inlet, 0.005);
            }
            settling += 1;
            prop_assert!(settling <= 16, "no idle fixed point after {} periods", settling);
        }
        // Segments of one inlet and one `dt`, so the decay cache is both
        // reused and invalidated.
        let dts = [0.005, 0.005, 0.05, 1.0];
        let mut full = bank.clone();
        for (inlet, d, steps) in segments {
            let inlets = [inlet, inlet + 3.0, inlet - 2.0];
            for _ in 0..steps {
                let want: Vec<(usize, u64)> = (0..3)
                    .map(|i| (i, full.step(i, 0.0, inlets[i], dts[d]).to_bits()))
                    .collect();
                let mut seen = Vec::new();
                bank.idle_steps(inlets.into_iter(), dts[d], |i, power| {
                    seen.push((i, power.to_bits()));
                });
                prop_assert_eq!(seen, want);
            }
            for i in 0..3 {
                for (a, b) in [
                    (bank.temp_c(i), full.temp_c(i)),
                    (bank.energy_j(i), full.energy_j(i)),
                    (bank.power_w(i), full.power_w(i)),
                    (bank.freq_mhz(i), full.freq_mhz(i)),
                ] {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert!(bank.at_idle_fixed_point(i));
            }
            // The governors' counters and causes and the memos too.
            prop_assert!(bank == full);
        }
    }

    #[test]
    fn a_bank_steps_each_gpu_as_a_bank_of_it_alone(
        capped in collection::vec(any::<bool>(), 1..6),
        seed in 0u64..1 << 32,
        steps in collection::vec((0usize..7, 0.0f64..1.0, 20.0f64..50.0, 0usize..4), 1..48),
        cap_w in 300.0f64..550.0,
    ) {
        // Two classes, the second under a binding cap, with the GPUs'
        // classes drawn and their variability seeded per GPU; every GPU
        // sees the same activity, so any memo or class read across GPUs
        // shows as a wrong bit.
        let spec = GpuModel::H200.spec();
        let governors = || vec![h200_capped(spec.tdp_w), h200_capped(cap_w)];
        let mut bank = ThermalBank::new(spec.clone(), governors());
        let mut alone: Vec<ThermalBank> = Vec::new();
        for (g, &c) in capped.iter().enumerate() {
            let variability = GpuVariability::for_gpu(GpuId(g as u32), seed);
            bank.push(usize::from(c), variability, 26.0);
            let mut one = ThermalBank::new(spec.clone(), governors());
            one.push(usize::from(c), variability, 26.0);
            alone.push(one);
        }
        let dts = [0.005, 0.005, 0.05, 1.0];
        for (kind, x, inlet, d) in steps {
            let a = activity(if kind == 2 { 0 } else { kind }, x);
            for (g, one) in alone.iter_mut().enumerate() {
                let power = bank.step(g, a, inlet, dts[d]);
                prop_assert_eq!(power.to_bits(), one.step(0, a, inlet, dts[d]).to_bits());
                for (got, want) in [
                    (bank.temp_c(g), one.temp_c(0)),
                    (bank.energy_j(g), one.energy_j(0)),
                    (bank.freq_mhz(g), one.freq_mhz(0)),
                    (bank.throttle_ratio(g), one.throttle_ratio(0)),
                    (bank.thermal_throttle_ratio(g), one.thermal_throttle_ratio(0)),
                ] {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
    }
}
