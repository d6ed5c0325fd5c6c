//! Network and collective-communication models for CharLLM-PPT.
//!
//! Lowers logical collectives (AllReduce, AllGather, ReduceScatter,
//! All-to-All, point-to-point SendRecv) onto a [`charllm_hw::Cluster`]
//! topology as sets of concurrent *flows* over shared links. The flow
//! representation is what lets the simulator reproduce the paper's
//! communication findings: NIC/PCIe contention between parallelism groups,
//! fine-grained unchunked SendRecv underutilizing bandwidth (§4.2), and
//! all-to-all expert traffic spilling across nodes when TP crowds EP out of
//! a node.
//!
//! The [`projection`] module implements the paper's §7.1 Astra-Sim-style
//! methodology for extrapolating measured kernel latencies to
//! datacenter-scale DP degrees and faster interconnects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunking;
pub mod collectives;
pub mod flow;
pub mod folding;
pub mod health;
pub mod projection;

pub use chunking::ChunkingPolicy;
pub use collectives::{lower_collective, CollectiveKind, CollectivePlan};
pub use flow::Flow;
pub use health::LinkHealth;
