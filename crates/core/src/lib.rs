//! # CharLLM-PPT — power, performance and thermal characterization of
//! distributed LLM training (Rust reproduction)
//!
//! This crate is the facade over the full simulation stack reproducing
//! *"Characterizing the Efficiency of Distributed Training: A Power,
//! Performance, and Thermal Perspective"* (MICRO 2025). It wires together:
//!
//! - [`charllm_hw`] — the three evaluated clusters (32×H200, 64×H100,
//!   32×MI250-GCD) with airflow geometry;
//! - [`charllm_models`] — the Table 1 workloads (GPT-3, Llama-3, Mixtral);
//! - [`charllm_parallel`] — TP/PP/DP/EP/FSDP with Megatron rank mapping;
//! - [`charllm_trace`] — kernel-level lowering (1F1B, recomputation,
//!   overlap, MoE all-to-all, ZeRO-1, FSDP, LoRA, inference);
//! - [`charllm_sim`] — the work-progress engine with thermal/DVFS feedback;
//! - [`charllm_telemetry`] — Zeus-style sampling and reporting.
//!
//! # Quickstart
//!
//! ```
//! use charllm::prelude::*;
//!
//! // GPT3-13B on a single HGX node with TP2-PP2 (tiny batch for the test).
//! let report = Experiment::builder()
//!     .cluster(single_hgx_node())
//!     .job(TrainJob::pretrain(gpt3_13b()).with_global_batch(8))
//!     .parallelism("TP2-PP2")
//!     .expect("valid parallelism label")
//!     .sim_config(SimConfig::fast())
//!     .run()
//!     .expect("simulation succeeds");
//! assert!(report.tokens_per_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod insights;
pub mod presets;
pub mod report;
pub mod search;
pub mod server;
pub mod stream;
pub mod sweep;

pub use cache::{CacheHit, CacheStats, SimCache};
pub use error::CoreError;
pub use executor::Executor;
pub use experiment::{Experiment, ExperimentBuilder};
pub use report::{phase_table, top_spans_table, RunReport};
pub use stream::{ProgressEvent, ProgressStream};

/// Convenient imports for experiment-driving code.
pub mod prelude {
    pub use crate::cache::{CacheHit, CacheStats, SimCache};
    pub use crate::executor::Executor;
    pub use crate::experiment::{Experiment, ExperimentBuilder};
    pub use crate::presets::*;
    pub use crate::report::RunReport;
    pub use crate::server::{ServerConfig, SimServer};
    pub use crate::stream::{ProgressEvent, ProgressStream};
    pub use crate::sweep::{Sweep, SweepOutcome};
    pub use charllm_hw::presets::{
        hgx_h100_cluster, hgx_h200_cluster, mi250_cluster, single_gpu_per_node_cluster,
    };
    pub use charllm_models::presets::{
        gpt3_13b, gpt3_175b, gpt3_30b, llama3_30b, llama3_70b, mixtral_4x7b, mixtral_8x22b,
        mixtral_8x7b,
    };
    pub use charllm_models::{Optimizations, TrainJob};
    pub use charllm_parallel::{ParallelismSpec, PipelineSchedule};
    pub use charllm_sim::{FaultEvent, FaultPlan, RecoveryPolicy, SimConfig};
    pub use charllm_telemetry::{MetricsHub, MetricsShard, MetricsSnapshot};
}
