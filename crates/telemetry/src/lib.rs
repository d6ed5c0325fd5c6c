//! Telemetry collection and reporting for CharLLM-PPT.
//!
//! The Rust stand-in for the paper's Zeus + NVML/AMD-SMI pipeline: sampled
//! per-GPU time series (power, temperature, clock, utilization, PCIe
//! traffic), aggregation into the per-configuration summary metrics the
//! figures plot, and row-normalized heatmaps (Figs. 5, 17, 18).
//!
//! The [`spans`] / [`phase`] / [`chrome_trace`] modules form the execution
//! tracing half (the Chakra-trace analogue): per-rank span streams recorded
//! through the simulator's observer hooks, folded into per-phase wall-time
//! and energy attributions, and exported as Perfetto-loadable JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod chrome_trace;
pub mod heatmap;
pub mod metrics;
pub mod phase;
pub mod spans;
pub mod store;
pub mod timeseries;

pub use heatmap::Heatmap;
pub use metrics::{
    Counter, Gauge, Histogram, MetricId, MetricKind, MetricValue, MetricsHub, MetricsShard,
    MetricsSnapshot, StageTimer,
};
pub use phase::{Phase, PhaseBreakdown, Profile, SpanTotal};
pub use spans::{FaultSpan, FlowSpan, PowerTick, Span, SpanKind, SpanRecorder};
pub use store::{GpuSample, TelemetryStore};
pub use timeseries::{Series, TimeSeries};
