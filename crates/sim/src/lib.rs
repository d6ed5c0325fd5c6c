//! The cluster simulator: executes an [`charllm_trace::ExecutionTrace`] on a
//! [`charllm_hw::Cluster`] with live power/thermal/frequency feedback.
//!
//! # Semantics
//!
//! Each rank executes its step stream in order. Compute kernels progress at
//! `peak_flops × mfu(kind) × f(t)/f_boost`, so a thermally throttled GPU
//! runs its kernels slower and arrives late at the next collective — the
//! paper's straggler mechanism. Collectives lower to concurrent flows
//! (via [`charllm_net`]) that fair-share every link along their route;
//! per-message overhead penalizes the fine-grained unchunked SendRecv and
//! All-to-All patterns exactly as §4.2 observes on real PCIe.
//!
//! Every control period the engine integrates each GPU's power into the RC
//! thermal model (with airflow preheating from upstream devices) and lets
//! the DVFS governor adjust the clock. Telemetry is sampled into a
//! [`charllm_telemetry::TelemetryStore`], and per-kernel-class busy time and
//! per-GPU traffic are accumulated for the paper's breakdown figures.
//!
//! Both engines accept a [`SimObserver`] (default: the free
//! [`NoopObserver`]) whose hooks expose every span, flow, collective
//! completion, and power tick — the raw material for
//! [`charllm_telemetry::phase`] attribution and Perfetto export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod accrual;
pub mod analytic;
pub mod arena;
mod calendar;
pub mod config;
pub mod diff;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fold;
pub mod observer;
pub mod reference;
pub mod result;

pub use arena::FlowArena;
pub use config::SimConfig;
pub use engine::{EngineStats, SharedPlans, Simulator};
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan, RecoveryPolicy};
pub use fold::{detect as detect_fold, run_folded, split_reason, FoldMap, FoldOptions};
pub use observer::{NoopObserver, SimObserver, TaskKind};
pub use reference::ReferenceSimulator;
pub use result::{fnv1a, KernelBreakdown, OccupancyStats, SimResult, TrafficMatrix};
