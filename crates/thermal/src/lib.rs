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
//! - [`gpu_state`]: the combined per-GPU state stepped by the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod governor;
pub mod gpu_state;
pub mod power;
pub mod rc;
pub mod variability;

pub use governor::{DvfsGovernor, GovernorConfig};
pub use gpu_state::{GpuThermal, IdleSteps, ThermalSample};
pub use power::PowerModel;
pub use rc::ThermalSpec;
pub use variability::GpuVariability;
