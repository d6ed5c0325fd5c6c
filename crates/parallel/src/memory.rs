//! Per-rank memory footprint under a parallelism spec.
//!
//! This is the model the paper uses implicitly when it "determines the
//! minimal total model parallelism (Tensor × Pipeline × Expert) required to
//! fit within GPU memory" (§3.1), and it is what makes activation
//! recomputation "unlock configurations that were previously infeasible"
//! (§4.3, e.g. EP8-TP1-PP4 on Mixtral-8x22B).

use serde::{Deserialize, Serialize};

use charllm_models::memory::{
    grad_bytes, layer_activation_bytes, optimizer_bytes, weight_bytes, MemoryBreakdown,
};
use charllm_models::TrainJob;

use crate::error::ParallelError;
use crate::spec::ParallelismSpec;

/// Framework/runtime overhead reserved per rank (CUDA context, NCCL buffers,
/// fragmentation headroom).
pub const RUNTIME_OVERHEAD_BYTES: u64 = 6 * (1u64 << 30);

/// How a model's layers are divided across pipeline stages.
///
/// The default is an even split; §6's *asymmetric* thermal-aware placement
/// gives cooler stages an extra layer (e.g. Llama3-70B's 19/21 split).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePartition {
    layers_per_stage: Vec<usize>,
}

impl StagePartition {
    /// Even partition of `layers` across `stages`.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::NotDivisible`] when stages do not divide the
    /// layer count (matching the framework restriction).
    pub fn even(layers: usize, stages: usize) -> Result<Self, ParallelError> {
        if stages == 0 {
            return Err(ParallelError::ZeroWidth("pipeline parallel"));
        }
        if !layers.is_multiple_of(stages) {
            return Err(ParallelError::NotDivisible {
                what: "layers",
                value: layers,
                by: stages,
            });
        }
        Ok(StagePartition {
            layers_per_stage: vec![layers / stages; stages],
        })
    }

    /// Explicit per-stage layer counts.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError::InvalidPartition`] when the counts do not
    /// sum to `layers` or any stage is empty.
    pub fn explicit(layers: usize, layers_per_stage: Vec<usize>) -> Result<Self, ParallelError> {
        if layers_per_stage.iter().sum::<usize>() != layers {
            return Err(ParallelError::InvalidPartition(format!(
                "stage layers sum to {} but model has {layers}",
                layers_per_stage.iter().sum::<usize>()
            )));
        }
        if layers_per_stage.contains(&0) {
            return Err(ParallelError::InvalidPartition(
                "empty pipeline stage".into(),
            ));
        }
        Ok(StagePartition { layers_per_stage })
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.layers_per_stage.len()
    }

    /// Layers held by one stage.
    pub fn layers(&self, stage: usize) -> usize {
        self.layers_per_stage[stage]
    }

    /// Relative imbalance: `(max - min) / mean` (the paper cites 10 % for a
    /// 19/21 split and 18 % for 11/13).
    pub fn imbalance(&self) -> f64 {
        let max = *self.layers_per_stage.iter().max().unwrap() as f64;
        let min = *self.layers_per_stage.iter().min().unwrap() as f64;
        let mean =
            self.layers_per_stage.iter().sum::<usize>() as f64 / self.layers_per_stage.len() as f64;
        (max - min) / mean
    }
}

/// Per-rank model parameters (weights held by one rank) at a given stage.
pub fn rank_params(
    job: &TrainJob,
    spec: &ParallelismSpec,
    partition: &StagePartition,
    stage: usize,
) -> u64 {
    let arch = &job.arch;
    let layers = partition.layers(stage) as u64;
    let attn = arch.attn_params_per_layer() / spec.tp as u64;
    let mlp = match &arch.moe {
        None => arch.mlp_params_per_block() / spec.tp as u64,
        Some(moe) => {
            // Experts divided across EP; each expert sharded by TP.
            let experts_here = (moe.num_experts / spec.ep).max(1) as u64;
            experts_here * arch.mlp_params_per_block() / spec.tp as u64
                + (arch.hidden * moe.num_experts) as u64 // router replicated
        }
    };
    let mut params = layers * (attn + mlp);
    // Embedding on the first stage, LM head on the last (tied: one copy on
    // each boundary stage, which is how Megatron replicates tied weights).
    let embed = (job.arch.vocab * job.arch.hidden) as u64 / spec.tp as u64;
    if stage == 0 {
        params += embed;
    }
    if stage == partition.num_stages() - 1 {
        params += embed;
    }
    params
}

/// Memory footprint of the *worst* rank (pipeline stage 0, which stashes the
/// most in-flight activations under 1F1B).
pub fn rank_memory(
    job: &TrainJob,
    spec: &ParallelismSpec,
    partition: &StagePartition,
) -> MemoryBreakdown {
    let stage = 0;
    let params = rank_params(job, spec, partition, stage);
    let (weights, grads, optimizer) = if let Some(lora) = &job.optim.lora {
        // Base weights frozen (no grads/optimizer); adapters are tiny.
        let trainable = lora.trainable_params(&job.arch) / (spec.tp * spec.pp.max(1)) as u64;
        (
            weight_bytes(params + trainable, job.precision),
            grad_bytes(trainable, job.precision),
            optimizer_bytes(trainable, 1),
        )
    } else if spec.fsdp {
        // FSDP shards weights/grads/optimizer across the DP dimension, but
        // materializes one layer's full parameters while executing it.
        let gathered = params / partition.layers(stage).max(1) as u64;
        (
            weight_bytes(params / spec.dp as u64 + gathered, job.precision),
            grad_bytes(params / spec.dp as u64, job.precision),
            optimizer_bytes(params, spec.dp),
        )
    } else {
        let shards = if job.optim.distributed_optimizer {
            spec.dp
        } else {
            1
        };
        (
            weight_bytes(params, job.precision),
            grad_bytes(params, job.precision),
            optimizer_bytes(params, shards),
        )
    };

    // 1F1B: stage 0 holds up to `pp` in-flight microbatches (bounded by the
    // number of microbatches per pipeline).
    let mb_per_pipe = job.num_microbatches(spec.dp).max(1);
    let in_flight = spec.pp.min(mb_per_pipe) as u64;
    let per_layer = layer_activation_bytes(
        &job.arch,
        job.seq_len,
        job.microbatch,
        spec.tp,
        job.optim.activation_recompute,
    );
    let activations = per_layer * partition.layers(stage) as u64 * in_flight;

    MemoryBreakdown {
        weights,
        grads,
        optimizer,
        activations,
        overhead: RUNTIME_OVERHEAD_BYTES,
    }
}

/// Whether a configuration fits in a GPU's memory.
pub fn fits(
    job: &TrainJob,
    spec: &ParallelismSpec,
    partition: &StagePartition,
    gpu_memory_bytes: u64,
) -> bool {
    rank_memory(job, spec, partition).total() <= gpu_memory_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::GpuModel;
    use charllm_models::presets;

    fn job(arch: charllm_models::TransformerArch) -> TrainJob {
        TrainJob::pretrain(arch)
    }

    #[test]
    fn even_partition() {
        let p = StagePartition::even(96, 8).unwrap();
        assert_eq!(p.num_stages(), 8);
        assert_eq!(p.layers(3), 12);
        assert_eq!(p.imbalance(), 0.0);
    }

    #[test]
    fn uneven_layers_rejected() {
        assert!(StagePartition::even(96, 5).is_err());
        assert!(StagePartition::even(96, 0).is_err());
    }

    #[test]
    fn paper_asymmetric_splits() {
        // Llama3-70B: 80 layers over 4 stages as 19/21 => 10% imbalance.
        let p = StagePartition::explicit(80, vec![19, 19, 21, 21]).unwrap();
        assert!((p.imbalance() - 0.10).abs() < 1e-9);
        // GPT3-175B: 96 layers over 8 stages as 11/13 => ~18% imbalance.
        let p = StagePartition::explicit(96, vec![11, 11, 11, 11, 13, 13, 13, 13]).unwrap();
        assert!((p.imbalance() - 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn bad_partitions_rejected() {
        assert!(StagePartition::explicit(80, vec![40, 39]).is_err());
        assert!(StagePartition::explicit(80, vec![80, 0]).is_err());
    }

    #[test]
    fn gpt3_175b_does_not_fit_without_model_parallelism() {
        let j = job(presets::gpt3_175b());
        let spec = ParallelismSpec::data_parallel(32);
        let part = StagePartition::even(96, 1).unwrap();
        assert!(!fits(&j, &spec, &part, GpuModel::H200.spec().memory_bytes));
    }

    #[test]
    fn gpt3_175b_fits_with_tp8_pp4_on_h200() {
        let j = job(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(8, 4, 1, 32, false).unwrap();
        let part = StagePartition::even(96, 4).unwrap();
        let mem = rank_memory(&j, &spec, &part);
        assert!(
            mem.total() <= GpuModel::H200.spec().memory_bytes,
            "needs {:.1} GiB",
            mem.total_gib()
        );
    }

    #[test]
    fn recompute_unlocks_deeper_microbatching() {
        // With mb=4 and TP2-PP16 on H100, stashing overflows but recompute
        // fits — the Fig. 7 mechanism.
        let base = job(presets::gpt3_175b()).with_microbatch(4);
        let spec = ParallelismSpec::infer_dp(2, 16, 1, 64, false).unwrap();
        let part = StagePartition::even(96, 16).unwrap();
        let h100 = GpuModel::H100.spec().memory_bytes;
        let without = rank_memory(&base, &spec, &part);
        let with = rank_memory(&base.clone().with_recompute(true), &spec, &part);
        assert!(with.activations < without.activations / 5);
        assert!(
            with.total() <= h100,
            "recompute config needs {:.1} GiB",
            with.total_gib()
        );
    }

    #[test]
    fn zero1_shards_optimizer_across_dp() {
        let j = job(presets::llama3_70b());
        let tp8dp4 = ParallelismSpec::infer_dp(8, 1, 1, 32, false).unwrap();
        let part = StagePartition::even(80, 1).unwrap();
        let with_zero1 = rank_memory(&j, &tp8dp4, &part);
        let mut no_zero1_job = j.clone();
        no_zero1_job.optim.distributed_optimizer = false;
        let without = rank_memory(&no_zero1_job, &tp8dp4, &part);
        assert!(with_zero1.optimizer < without.optimizer / 3);
        assert_eq!(with_zero1.weights, without.weights);
    }

    #[test]
    fn fsdp_shards_weights_too() {
        let j = job(presets::llama3_70b());
        let fsdp = ParallelismSpec::new(8, 1, 1, 4, true).unwrap();
        let plain = ParallelismSpec::new(8, 1, 1, 4, false).unwrap();
        let part = StagePartition::even(80, 1).unwrap();
        let m_fsdp = rank_memory(&j, &fsdp, &part);
        let m_plain = rank_memory(&j, &plain, &part);
        assert!(m_fsdp.weights < m_plain.weights / 2);
        assert!(m_fsdp.total() < m_plain.total());
    }

    #[test]
    fn lora_removes_optimizer_pressure() {
        let arch = presets::llama3_70b();
        let full = job(arch.clone());
        let lora = TrainJob::lora_finetune(arch);
        let spec = ParallelismSpec::infer_dp(4, 4, 1, 32, false).unwrap();
        let part = StagePartition::even(80, 4).unwrap();
        let m_full = rank_memory(&full, &spec, &part);
        let m_lora = rank_memory(&lora, &spec, &part);
        assert!(m_lora.optimizer < m_full.optimizer / 50);
        assert!(m_lora.grads < m_full.grads / 50);
    }

    #[test]
    fn ep_divides_expert_weights() {
        let j = job(presets::mixtral_8x22b());
        let part = StagePartition::even(56, 4).unwrap();
        let ep1 = ParallelismSpec::new(2, 4, 1, 4, false).unwrap();
        let ep8 = ParallelismSpec::new(2, 4, 8, 1, false).unwrap();
        let p1 = rank_params(&j, &ep1, &part, 1);
        let p8 = rank_params(&j, &ep8, &part, 1);
        assert!(p8 < p1 / 4, "ep8 shards experts: {p8} vs {p1}");
    }

    #[test]
    fn first_stage_heavier_than_middle() {
        // Embedding lives on stage 0 — the §6 rationale for putting early
        // stages on cooler GPUs.
        let j = job(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(2, 16, 1, 64, false).unwrap();
        let part = StagePartition::even(96, 16).unwrap();
        assert!(rank_params(&j, &spec, &part, 0) > rank_params(&j, &spec, &part, 7));
    }
}
