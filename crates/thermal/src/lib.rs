//! Power, thermal and frequency (DVFS) models for CharLLM-PPT.
//!
//! This crate is the substitute for the paper's NVML/AMD-SMI + Zeus
//! telemetry stack *and* for the physical phenomena it observes:
//!
//! - [`power`]: activity- and frequency-dependent board power;
//! - [`rc`]: a first-order RC thermal model per GPU, driven by the
//!   position-dependent inlet temperatures of
//!   [`charllm_hw::AirflowLayout`] (front-to-back preheating, §6);
//! - [`governor`]: a DVFS governor that boosts when busy and throttles on
//!   thermal or power-cap violations — the mechanism behind the paper's
//!   clock-throttling heatmaps (Figs. 17b/18b) and straggler formation;
//! - [`variability`]: deterministic per-GPU silicon/cooling variability;
//! - [`bank`]: every GPU's live state, stepped by the simulator: the spec,
//!   RC model and power model once, the governor config once per class,
//!   and per GPU one record of what every step relaxes (temperature,
//!   power, energy) and one of what only a busy step moves (clock,
//!   counters, memos).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod governor;
pub mod power;
pub mod rc;
pub mod variability;

pub use bank::ThermalBank;
pub use governor::{DvfsGovernor, GovernorConfig};
pub use power::PowerModel;
pub use rc::ThermalSpec;
pub use variability::GpuVariability;
