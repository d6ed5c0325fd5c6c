//! Kernel task-graph IR and workload lowering for CharLLM-PPT.
//!
//! The Rust stand-in for the paper's Chakra execution traces: a per-rank
//! stream of [`Step`]s (compute kernels, collective arrivals and waits)
//! plus a table of [`CollectiveInstance`]s shared between ranks.
//!
//! [`lower`] turns a `(TrainJob × ParallelismSpec × PipelineSchedule)` into
//! an [`ExecutionTrace`] implementing the semantics of the paper's stack:
//!
//! - Megatron tensor parallelism: two AllReduces per layer in forward and
//!   two in backward across the TP group;
//! - 1F1B (and interleaved) pipeline schedules with eager activation
//!   SendRecv between stage-boundary ranks — unchunked, matching the
//!   paper's observed PCIe underutilization;
//! - expert parallelism: token dispatch/combine All-to-All around every
//!   expert GEMM (top-2 routing);
//! - ZeRO-1 distributed optimizer (ReduceScatter + AllGather), plain DP
//!   AllReduce, and FSDP per-layer parameter gathers;
//! - activation recomputation, compute–communication overlap, LoRA
//!   finetuning and inference (prefill/decode) variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod lower;
pub mod task;
pub mod trace;

pub use builder::TraceBuilder;
pub use task::{CollectiveInstance, ComputeKind, KernelClass, Step};
pub use trace::{ExecutionTrace, FloatTable};

pub use lower::{
    lower_inference, lower_train, lower_train_folded, DeviceHints, FoldedCollective, FoldedJob,
    InferenceConfig, LoweredJob, TraceError,
};
