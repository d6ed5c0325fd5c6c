//! Training-job configuration: the knobs the paper sweeps.

use serde::{Deserialize, Serialize};

use crate::arch::TransformerArch;
use crate::error::ModelError;
use crate::lora::LoraConfig;
use crate::precision::Precision;

/// Software optimization techniques under study (§3.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Optimizations {
    /// Full activation recomputation ("act").
    pub activation_recompute: bool,
    /// Compute–communication overlap ("cc").
    pub cc_overlap: bool,
    /// Distributed optimizer (ZeRO-1) sharding optimizer state across DP
    /// ranks. The paper enables this for all dense models and disables it
    /// for MoE (NeMo/Megatron limitation).
    pub distributed_optimizer: bool,
    /// LoRA finetuning instead of full pretraining.
    pub lora: Option<LoraConfig>,
    /// Chunk pipeline SendRecv transfers NCCL-style instead of issuing one
    /// monolithic message. The paper observes frameworks do *not* do this
    /// (§4.2) and recommends it; enabling it is our ablation of that
    /// recommendation.
    pub chunked_p2p: bool,
}

impl Optimizations {
    /// The paper's label for the configuration: `Base`, `cc`, `act`, or
    /// `cc+act` (LoRA runs are labelled `lora`).
    pub fn label(&self) -> String {
        if self.lora.is_some() {
            return "lora".to_string();
        }
        match (self.cc_overlap, self.activation_recompute) {
            (false, false) => "Base".to_string(),
            (true, false) => "cc".to_string(),
            (false, true) => "act".to_string(),
            (true, true) => "cc+act".to_string(),
        }
    }
}

/// One training run configuration: model, batch geometry, precision and
/// optimization set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainJob {
    /// The model architecture.
    pub arch: TransformerArch,
    /// Training sequence length.
    pub seq_len: usize,
    /// Global batch size in sequences (the paper fixes 128).
    pub global_batch: usize,
    /// Microbatch size in sequences.
    pub microbatch: usize,
    /// Training precision.
    pub precision: Precision,
    /// Optimization techniques enabled.
    pub optim: Optimizations,
}

impl TrainJob {
    /// The paper's standard pretraining setup for a model: global batch 128,
    /// the model's default sequence length, BF16, microbatch 1, ZeRO-1 for
    /// dense models (disabled for MoE, matching the paper's framework
    /// limitation).
    pub fn pretrain(arch: TransformerArch) -> Self {
        let distributed_optimizer = !arch.is_moe();
        TrainJob {
            seq_len: arch.default_seq_len,
            global_batch: 128,
            microbatch: 1,
            precision: Precision::Bf16,
            optim: Optimizations {
                distributed_optimizer,
                ..Optimizations::default()
            },
            arch,
        }
    }

    /// LoRA finetuning variant (§4.3: PubMedQA-style short-sequence task).
    pub fn lora_finetune(arch: TransformerArch) -> Self {
        let mut job = TrainJob::pretrain(arch);
        job.seq_len = 1024;
        job.optim.lora = Some(LoraConfig::default());
        // Frozen base weights need no optimizer sharding.
        job.optim.distributed_optimizer = false;
        job
    }

    /// Builder-style: set the microbatch size.
    pub fn with_microbatch(mut self, microbatch: usize) -> Self {
        self.microbatch = microbatch;
        self
    }

    /// Builder-style: enable/disable activation recomputation.
    pub fn with_recompute(mut self, on: bool) -> Self {
        self.optim.activation_recompute = on;
        self
    }

    /// Builder-style: enable/disable compute–communication overlap.
    pub fn with_cc_overlap(mut self, on: bool) -> Self {
        self.optim.cc_overlap = on;
        self
    }

    /// Builder-style: set the global batch size.
    pub fn with_global_batch(mut self, global_batch: usize) -> Self {
        self.global_batch = global_batch;
        self
    }

    /// Validate batch geometry against a data-parallel width.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidJob`] when the global batch does not
    /// divide evenly into `dp × microbatch` chunks.
    pub fn validate_for_dp(&self, dp: usize) -> Result<(), ModelError> {
        self.arch.validate()?;
        if self.microbatch == 0 || self.global_batch == 0 {
            return Err(ModelError::InvalidJob(
                "batch sizes must be non-zero".into(),
            ));
        }
        if dp == 0 {
            return Err(ModelError::InvalidJob("dp width must be non-zero".into()));
        }
        if !self.global_batch.is_multiple_of(dp * self.microbatch) {
            return Err(ModelError::InvalidJob(format!(
                "global batch {} not divisible by dp {} x microbatch {}",
                self.global_batch, dp, self.microbatch
            )));
        }
        Ok(())
    }

    /// Microbatches each pipeline (data-parallel replica) executes per step.
    pub fn num_microbatches(&self, dp: usize) -> usize {
        self.global_batch / (dp * self.microbatch)
    }

    /// Tokens consumed per training step across the whole cluster.
    pub fn tokens_per_step(&self) -> u64 {
        (self.global_batch * self.seq_len) as u64
    }

    /// Tokens per microbatch (one pipeline-stage unit of work).
    pub fn tokens_per_microbatch(&self) -> u64 {
        (self.microbatch * self.seq_len) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn pretrain_defaults_match_paper() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        assert_eq!(job.global_batch, 128);
        assert_eq!(job.precision, Precision::Bf16);
        assert!(job.optim.distributed_optimizer, "dense models use ZeRO-1");
        assert_eq!(job.optim.label(), "Base");
    }

    #[test]
    fn moe_disables_distributed_optimizer() {
        let job = TrainJob::pretrain(presets::mixtral_8x7b());
        assert!(!job.optim.distributed_optimizer);
    }

    #[test]
    fn labels_match_paper_terminology() {
        let base = TrainJob::pretrain(presets::gpt3_175b());
        assert_eq!(base.optim.label(), "Base");
        assert_eq!(base.clone().with_cc_overlap(true).optim.label(), "cc");
        assert_eq!(base.clone().with_recompute(true).optim.label(), "act");
        assert_eq!(
            base.with_cc_overlap(true)
                .with_recompute(true)
                .optim
                .label(),
            "cc+act"
        );
        let lora = TrainJob::lora_finetune(presets::llama3_70b());
        assert_eq!(lora.optim.label(), "lora");
    }

    #[test]
    fn microbatch_counts() {
        let job = TrainJob::pretrain(presets::gpt3_175b()).with_microbatch(1);
        assert_eq!(job.num_microbatches(2), 64);
        let job4 = job.with_microbatch(4);
        assert_eq!(job4.num_microbatches(2), 16);
    }

    #[test]
    fn invalid_geometry_rejected() {
        let job = TrainJob::pretrain(presets::gpt3_175b()).with_microbatch(3);
        assert!(job.validate_for_dp(2).is_err(), "128 not divisible by 6");
        assert!(job.validate_for_dp(0).is_err());
        let zero = TrainJob::pretrain(presets::gpt3_175b()).with_microbatch(0);
        assert!(zero.validate_for_dp(1).is_err());
    }

    #[test]
    fn valid_geometry_accepted() {
        let job = TrainJob::pretrain(presets::gpt3_175b()).with_microbatch(4);
        job.validate_for_dp(2).unwrap();
        job.validate_for_dp(4).unwrap();
    }

    #[test]
    fn tokens_per_step() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        assert_eq!(job.tokens_per_step(), 128 * 2048);
    }
}
