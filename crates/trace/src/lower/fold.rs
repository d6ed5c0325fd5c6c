//! Symmetry-folded lowering: representative-rank traces for data-parallel
//! replicas.
//!
//! When every data-parallel replica of a training job is placed
//! congruently, the replicas evolve identically — simulating one of them is
//! enough. [`lower_train_folded`] lowers step streams only for the
//! representative (dp == 0) ranks, leaving every other rank's stream empty,
//! and rewrites cross-replica collective groups (gradient AllReduce,
//! ZeRO/FSDP gathers and scatters) down to their emitted members. The
//! original full-group membership is preserved in [`FoldedCollective`] so
//! the simulator can still lay the complete cross-replica ring onto the
//! fabric exactly once — those rings span *all* replicas and exist only
//! once in the unfolded run too. Kind, size and chunking stay on the
//! trace's own collective instance.
//!
//! Intra-replica collectives (TP AllReduce, pipeline SendRecv, expert
//! All-to-All) keep their groups untouched; only the dp == 0 copy of each
//! survives, and the simulator multiplies its load on shared switch links
//! by the replica count.

use charllm_models::TrainJob;
use charllm_parallel::{ParallelismSpec, PipelineSchedule, RankGrid, StagePartition};

use crate::task::CollectiveId;
use crate::trace::ExecutionTrace;

use super::{lower_train_parts, DeviceHints, TraceError};

/// A cross-replica collective whose group was trimmed during folding:
/// its *full* transfer plan is the trace instance's with this group.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedCollective {
    /// Instance id inside the folded trace.
    pub id: CollectiveId,
    /// The original (untrimmed) group, in ring order.
    pub full_group: Vec<usize>,
}

/// A folded training workload: the representative-rank trace plus the
/// bookkeeping the simulator needs to reconstruct full-cluster results.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedJob {
    /// Execution trace with step streams on representative ranks only.
    /// Non-representative ranks exist (world is unchanged) but are empty.
    pub trace: ExecutionTrace,
    /// Replica count the trace was folded over (`spec.dp`).
    pub multiplicity: u32,
    /// Cross-replica collectives whose groups were trimmed, by ascending id.
    pub folded: Vec<FoldedCollective>,
}

/// Lower one training iteration folded over its data-parallel replicas.
///
/// The returned trace has the same world size as the unfolded one, but only
/// dp == 0 ranks carry steps. Valid for the simulator's folded mode only;
/// replaying it rank-for-rank without expansion undercounts the cluster.
///
/// # Errors
///
/// Returns [`TraceError`] under the same conditions as
/// [`super::lower_train`].
pub fn lower_train_folded(
    job: &TrainJob,
    spec: &ParallelismSpec,
    schedule: PipelineSchedule,
    partition: &StagePartition,
    hints: &DeviceHints,
) -> Result<FoldedJob, TraceError> {
    let (mut b, meta, _) = lower_train_parts(job, spec, schedule, partition, hints, true)?;
    let grid = RankGrid::new(*spec);

    // Trim cross-replica groups to their emitted (dp == 0) members, keeping
    // the original membership for plan reconstruction. Every instantiated
    // collective has at least one dp == 0 member — only representatives
    // emit steps, and a rank only references collectives it belongs to.
    let mut folded = Vec::new();
    for (i, c) in b.collectives_mut().iter_mut().enumerate() {
        if c.group.iter().all(|&r| grid.coords(r).dp == 0) {
            continue;
        }
        let full_group = std::mem::take(&mut c.group);
        c.group = full_group
            .iter()
            .copied()
            .filter(|&r| grid.coords(r).dp == 0)
            .collect();
        debug_assert!(!c.group.is_empty(), "folded collective lost all members");
        folded.push(FoldedCollective {
            id: CollectiveId(i as u32),
            full_group,
        });
    }

    Ok(FoldedJob {
        trace: b.build(meta),
        multiplicity: spec.dp as u32,
        folded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_train;
    use charllm_hw::GpuModel;
    use charllm_models::presets;
    use charllm_net::CollectiveKind;

    fn hints() -> DeviceHints {
        DeviceHints::for_spec(&GpuModel::H200.spec())
    }

    fn fold(job: &TrainJob, spec: ParallelismSpec, schedule: PipelineSchedule) -> FoldedJob {
        let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
        lower_train_folded(job, &spec, schedule, &partition, &hints()).unwrap()
    }

    #[test]
    fn folded_trace_validates_and_keeps_world() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(8, 2, 1, 64, false).unwrap(); // dp=4
        let f = fold(&job, spec, PipelineSchedule::OneFOneB);
        assert_eq!(f.trace.world(), 64);
        assert_eq!(f.multiplicity, 4);
        let active = (0..64).filter(|&r| !f.trace.steps(r).is_empty()).count();
        assert_eq!(active, 16);
        let problems = f.trace.validate();
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn non_representative_streams_are_empty() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(8, 2, 1, 64, false).unwrap();
        let f = fold(&job, spec, PipelineSchedule::OneFOneB);
        let grid = RankGrid::new(spec);
        for rank in 0..spec.world() {
            let empty = f.trace.steps(rank).is_empty();
            assert_eq!(grid.coords(rank).dp != 0, empty, "rank {rank}");
        }
    }

    #[test]
    fn folded_collectives_are_cross_replica_and_trimmed() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(8, 2, 1, 64, false).unwrap();
        let f = fold(&job, spec, PipelineSchedule::OneFOneB);
        assert!(!f.folded.is_empty(), "grad sync must fold");
        let grid = RankGrid::new(spec);
        for fc in &f.folded {
            // Full group spans all dp values of one (tp, ep, pp) column.
            assert_eq!(fc.full_group.len() % spec.dp, 0);
            let inst = &f.trace.collectives()[fc.id.index()];
            assert!(inst.group.iter().all(|&r| grid.coords(r).dp == 0));
            assert!(inst.group.len() < fc.full_group.len());
        }
    }

    #[test]
    fn dp1_folds_to_identity() {
        let job = TrainJob::pretrain(presets::gpt3_175b());
        let spec = ParallelismSpec::infer_dp(8, 4, 1, 32, false).unwrap(); // dp=1
        let f = fold(&job, spec, PipelineSchedule::OneFOneB);
        assert_eq!(f.multiplicity, 1);
        assert!(f.folded.is_empty());
        let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
        let unfolded = lower_train(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints(),
        )
        .unwrap();
        assert_eq!(f.trace, unfolded.trace);
    }

    #[test]
    fn intra_replica_collectives_keep_groups() {
        let job = TrainJob::pretrain(presets::mixtral_8x7b());
        let spec = ParallelismSpec::infer_dp(1, 2, 8, 64, false).unwrap(); // dp=4
        let f = fold(&job, spec, PipelineSchedule::OneFOneB);
        let grid = RankGrid::new(spec);
        let a2a = f
            .trace
            .collectives()
            .iter()
            .filter(|c| c.kind == CollectiveKind::AllToAll)
            .collect::<Vec<_>>();
        assert!(!a2a.is_empty());
        for c in a2a {
            // EP groups live inside one replica; all members survive.
            assert!(c.group.iter().all(|&r| grid.coords(r).dp == 0));
            assert_eq!(c.group.len(), spec.ep);
        }
    }
}
