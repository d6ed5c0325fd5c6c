//! Symmetry-folded simulation: run one data-parallel replica, report all.
//!
//! When every DP replica of a training job is placed *congruently* — same
//! node-local slots, a clean node-to-node translation, no node shared
//! between replicas — the replicas evolve identically: same kernels, same
//! flow rates, same thermal trajectories, exact to f64 accumulation order
//! (the engine's `swap_remove` flow compaction lets concurrent flows
//! credit one GPU's accumulators in either order, so even the unfolded
//! run's replicas differ among themselves by an ulp). Simulating the
//! dp == 0 replica is then enough: every expanded metric agrees with the
//! unfolded engine to relative 1e-12, and is frequently bit-equal. This module detects that symmetry
//! ([`detect`]), runs the representative replica on the *original* cluster
//! with the engine's fold hooks ([`run_folded`]), and expands the result
//! back to full-cluster shape by copying representative rows onto the
//! replicas that were skipped.
//!
//! Exactness rests on three facts:
//!
//! * Cross-replica collectives (gradient AllReduce) span all replicas and
//!   exist only once per (tp, ep, pp) column in the unfolded run too —
//!   the engine builds each one's plan at first launch, like any other,
//!   from its full ring ([`charllm_trace::FoldedCollective::full_group`])
//!   with multiplier 1.
//! * Intra-replica collectives exist `dp` times unfolded; the folded run
//!   keeps the dp == 0 copy and multiplies its load on shared
//!   switch-tier links by `dp` ([`charllm_hw::LinkClass::Switch`] only —
//!   NVLink/PCIe/NIC links are replica-private under the congruence
//!   rules).
//! * Replica-symmetric runs give every member of a dp ring identical
//!   per-link loads, so trimming the ring's *launch gate* to the dp == 0
//!   members (the only ranks that still emit steps) changes neither its
//!   start nor its finish time.
//!
//! Anything that breaks replica symmetry — fault injection, a per-node
//! power cap, per-GPU silicon variability — must run unfolded:
//! [`split_reason`] and [`detect`] name the offender, and a caller falls
//! back by running the unfolded [`Simulator`] itself.

use std::sync::Arc;

use charllm_hw::{Cluster, GpuId};
use charllm_net::folding::translated_copy;
use charllm_parallel::{ParallelismSpec, Placement, RankGrid};
use charllm_telemetry::metrics::MetricsShard;
use charllm_telemetry::StageTimer;
use charllm_trace::FoldedJob;

use crate::config::SimConfig;
use crate::engine::{EngineStats, FoldSetup, SharedPlans, Simulator};
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::observer::NoopObserver;
use crate::result::SimResult;

/// Options controlling folded-result expansion.
#[derive(Debug, Clone)]
pub struct FoldOptions {
    /// Give every skipped GPU its representative's telemetry time series
    /// (default). Expanding costs no memory: a skipped GPU only points at
    /// its representative's column. What the flag changes is what the
    /// store reports and writes: expanded, the serialized result carries
    /// every GPU's series, and `telemetry.total_energy_j()` and
    /// `telemetry.aggregate_pcie()` cover the whole cluster; disabled, the
    /// result serializes smaller and those two cover the stepped GPUs
    /// only. Skipped GPUs mirror representatives, so the store's means and
    /// peaks (`telemetry.mean_power_w()`, `telemetry.peak_temp_c()`, ...)
    /// hold either way.
    pub expand_telemetry: bool,
    /// Metrics shard to attach to the folded run (default `None`). When
    /// set, [`run_folded`] wires the engine's live gauges through
    /// [`Simulator::with_metrics`], publishes the fold multiplicity as
    /// `sim_fold_replicas`, and records per-stage wall time
    /// (`plan_build`, `event_loop`, `fold_expand`) into the
    /// `sim_stage_seconds` histogram. `plan_build` covers engine set-up;
    /// collective plans are built at first launch, inside `event_loop`.
    pub metrics: Option<MetricsShard>,
}

impl Default for FoldOptions {
    fn default() -> Self {
        FoldOptions {
            expand_telemetry: true,
            metrics: None,
        }
    }
}

/// The rank/GPU correspondence a successful [`detect`] proves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldMap {
    /// Replica count (`spec.dp`).
    pub multiplicity: u32,
    /// For every rank, its dp == 0 representative (identity on reps).
    pub rank_rep: Vec<u32>,
    /// For every GPU, the congruent GPU on the representative replica's
    /// node (identity on representative-node GPUs, mapped by node
    /// translation + equal slot elsewhere; covers placement-idle GPUs).
    pub gpu_rep: Vec<u32>,
    /// Representative ranks, ascending.
    pub active_ranks: Vec<u32>,
    /// Nodes hosting representative ranks, ascending.
    pub active_nodes: Vec<u32>,
}

/// Check whether `placement` places the replicas of `spec` congruently and
/// build the correspondence maps.
///
/// The rules (each necessary for exactness, see the module docs):
///
/// 1. `spec` and `placement` cover the same world, with `spec.dp > 1`.
/// 2. Every node hosts ranks of exactly one dp value — replicas may not
///    share a node (idle phantom neighbours would distort the
///    representative's airflow preheat), and no node may sit empty (the
///    ×dp energy expansion would miscount its idle draw).
/// 3. Every replica's GPU list is a translated copy of replica 0's: equal
///    node-local slots rank-for-rank under a consistent, injective
///    node-to-node translation.
///
/// # Errors
///
/// Returns [`SimError::FoldUnsupported`] naming the first violated rule.
pub fn detect(
    cluster: &Cluster,
    placement: &Placement,
    spec: &ParallelismSpec,
) -> Result<FoldMap, SimError> {
    if spec.dp <= 1 {
        return Err(SimError::FoldUnsupported(
            "dp = 1: no data-parallel replicas to fold".into(),
        ));
    }
    let world = spec.world();
    if world != placement.world() {
        return Err(SimError::FoldUnsupported(format!(
            "spec world {} != placement world {}",
            world,
            placement.world()
        )));
    }
    let grid = RankGrid::new(*spec);
    let dp_stride = spec.tp * spec.ep;

    // Rule 2: node purity and full coverage.
    let mut node_dp: Vec<Option<usize>> = vec![None; cluster.num_nodes()];
    for rank in 0..world {
        let node = cluster.node_of(placement.gpu(rank)).index();
        let dp = grid.coords(rank).dp;
        match node_dp[node] {
            None => node_dp[node] = Some(dp),
            Some(d) if d == dp => {}
            Some(d) => {
                return Err(SimError::FoldUnsupported(format!(
                    "node {node} hosts ranks of replicas {d} and {dp}"
                )))
            }
        }
    }
    if let Some(empty) = node_dp.iter().position(Option::is_none) {
        return Err(SimError::FoldUnsupported(format!(
            "node {empty} hosts no ranks; its idle energy cannot be \
             attributed to a replica"
        )));
    }

    // Rule 3: every replica is a translated copy of replica 0.
    let replica_gpus = |d: usize| -> Vec<GpuId> {
        (0..world)
            .filter(|&r| grid.coords(r).dp == d)
            .map(|r| placement.gpu(r))
            .collect()
    };
    let rep_gpus = replica_gpus(0);
    for d in 1..spec.dp {
        if !translated_copy(&rep_gpus, &replica_gpus(d), cluster) {
            return Err(SimError::FoldUnsupported(format!(
                "replica {d} is not a slot-congruent translated copy of \
                 replica 0"
            )));
        }
    }

    // Maps. Ranks: drop the dp coordinate. GPUs: translate the node (taken
    // from any rank the node hosts — pure by rule 2) and keep the slot, so
    // placement-idle GPUs are covered too.
    let rank_rep: Vec<u32> = (0..world)
        .map(|r| (r - grid.coords(r).dp * dp_stride) as u32)
        .collect();
    let mut node_map: Vec<u32> = (0..cluster.num_nodes() as u32).collect();
    for (rank, &rep) in rank_rep.iter().enumerate() {
        let node = cluster.node_of(placement.gpu(rank)).index();
        let rep_node = cluster.node_of(placement.gpu(rep as usize)).index();
        node_map[node] = rep_node as u32;
    }
    let gpu_rep: Vec<u32> = (0..cluster.num_gpus() as u32)
        .map(|g| {
            let gpu = GpuId(g);
            let rep_node = charllm_hw::NodeId(node_map[cluster.node_of(gpu).index()]);
            cluster.gpu_at(rep_node, cluster.slot_of(gpu)).0
        })
        .collect();
    let active_ranks: Vec<u32> = (0..world as u32)
        .filter(|&r| rank_rep[r as usize] == r)
        .collect();
    let active_nodes: Vec<u32> = (0..cluster.num_nodes() as u32)
        .filter(|&n| node_map[n as usize] == n)
        .collect();
    Ok(FoldMap {
        multiplicity: spec.dp as u32,
        rank_rep,
        gpu_rep,
        active_ranks,
        active_nodes,
    })
}

/// Why a run must execute unfolded despite a symmetric placement, if it
/// must. Checked before [`detect`]: these are configuration properties,
/// independent of the placement.
pub fn split_reason(cfg: &SimConfig, faults: Option<&FaultPlan>) -> Option<String> {
    if faults.is_some_and(|f| !f.is_empty()) {
        return Some("fault plan present: failures break replica symmetry".into());
    }
    if cfg.node_power_cap.is_some() {
        return Some("per-node power cap breaks replica symmetry".into());
    }
    if !cfg.uniform_variability {
        return Some("seeded per-GPU silicon variability differs across replicas".into());
    }
    None
}

/// Run a [`FoldedJob`] on the full cluster and expand the result.
///
/// The trace keeps the original world size; only representative ranks carry
/// steps, phantom ranks finish instantly. The engine multiplies
/// intra-replica switch-link loads by `multiplicity` and lays each trimmed
/// cross-replica collective's full ring once; all plans go through the
/// engine's plan cache and, when given, the `shared` set. The returned
/// [`SimResult`] is shaped exactly like an unfolded run's (per-rank /
/// per-GPU vectors over the whole cluster, cluster-total energy).
///
/// # Errors
///
/// [`SimError::FoldUnsupported`] when the configuration or placement cannot
/// fold, or `folded` was lowered for another world than `spec` (callers
/// wanting a fallback run the unfolded [`Simulator`]); otherwise the usual
/// simulator errors.
pub fn run_folded(
    cluster: &Cluster,
    placement: &Placement,
    folded: &FoldedJob,
    spec: &ParallelismSpec,
    cfg: SimConfig,
    shared: Option<Arc<SharedPlans>>,
    opts: &FoldOptions,
) -> Result<(SimResult, EngineStats), SimError> {
    if let Some(reason) = split_reason(&cfg, None) {
        return Err(SimError::FoldUnsupported(reason));
    }
    let map = detect(cluster, placement, spec)?;
    if map.multiplicity != folded.multiplicity {
        return Err(SimError::FoldUnsupported(format!(
            "trace folded over {} replicas but placement has {}",
            folded.multiplicity, map.multiplicity
        )));
    }
    if folded.trace.world() != spec.world() {
        return Err(SimError::FoldUnsupported(format!(
            "trace lowered for world {} but spec has world {}",
            folded.trace.world(),
            spec.world()
        )));
    }
    let switch_mult = u16::try_from(map.multiplicity).map_err(|_| {
        SimError::FoldUnsupported(format!(
            "dp = {} exceeds the fold multiplier range",
            spec.dp
        ))
    })?;

    let shard = opts.metrics.as_ref();
    let mut timer = StageTimer::start();

    let setup = FoldSetup {
        switch_mult,
        active_ranks: map.active_ranks.clone(),
        active_nodes: map.active_nodes.clone(),
        full_groups: &folded.folded,
    };
    let mut sim = Simulator::with_observer_fold(
        cluster,
        placement,
        &folded.trace,
        cfg,
        NoopObserver,
        Some(setup),
    )?;
    if let Some(plans) = shared {
        sim = sim.with_shared_plans(plans)?;
    }
    if let Some(s) = shard {
        sim = sim.with_metrics(s);
    }
    timer.mark("plan_build");
    let (mut result, stats) = sim.run_stats()?;
    timer.mark("event_loop");
    expand(&mut result, &map, opts);
    timer.mark("fold_expand");
    if let Some(s) = shard {
        timer.publish(s);
    }
    Ok((result, stats))
}

/// Copy representative rows onto skipped replicas and restore
/// cluster-total energy figures.
fn expand(result: &mut SimResult, map: &FoldMap, opts: &FoldOptions) {
    for (rank, &rep) in map.rank_rep.iter().enumerate() {
        let rep = rep as usize;
        if rep != rank {
            result.kernel_time[rank] = result.kernel_time[rep].clone();
        }
    }
    for (gpu, &rep) in map.gpu_rep.iter().enumerate() {
        let rep = rep as usize;
        if rep != gpu {
            result.traffic.copy_gpu(rep, gpu);
            result.throttle_ratio[gpu] = result.throttle_ratio[rep];
            result.thermal_throttle_ratio[gpu] = result.thermal_throttle_ratio[rep];
            result.occupancy[gpu] = result.occupancy[rep].clone();
            if opts.expand_telemetry {
                result.telemetry.copy_gpu(rep, gpu);
            }
        }
    }
    // The folded run integrated one replica's worth of power; every
    // replica draws the same, so the cluster total is a clean multiple.
    let d = f64::from(map.multiplicity);
    result.energy_per_step_j *= d;
    result.tokens_per_joule /= d;
    result.energy_wasted_j *= d;
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::presets;
    use charllm_models::{presets as models, TrainJob};
    use charllm_parallel::{PipelineSchedule, StagePartition};
    use charllm_trace::{lower_train, lower_train_folded, DeviceHints};

    fn spec(tp: usize, pp: usize, world: usize) -> ParallelismSpec {
        ParallelismSpec::infer_dp(tp, pp, 1, world, false).unwrap()
    }

    #[test]
    fn identity_placement_is_congruent() {
        let cluster = presets::hgx_h100_with_nodes(8); // 64 GPUs
        let s = spec(8, 2, 64); // dp = 4, one node per (pp, dp) cell
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        let map = detect(&cluster, &placement, &s).unwrap();
        assert_eq!(map.multiplicity, 4);
        assert_eq!(map.active_ranks.len(), 16);
        assert_eq!(map.active_nodes.len(), 2);
        // Representatives map to themselves.
        for &r in &map.active_ranks {
            assert_eq!(map.rank_rep[r as usize], r);
        }
        // Phantom GPUs map onto active nodes.
        let active: std::collections::BTreeSet<u32> = map.active_nodes.iter().copied().collect();
        for (g, &rep) in map.gpu_rep.iter().enumerate() {
            assert_eq!(
                cluster.slot_of(GpuId(g as u32)),
                cluster.slot_of(GpuId(rep))
            );
            assert!(active.contains(&(cluster.node_of(GpuId(rep)).index() as u32)));
        }
    }

    #[test]
    fn dp1_and_mixed_nodes_are_rejected() {
        let cluster = presets::hgx_h100_with_nodes(4);
        let s = spec(8, 4, 32); // dp = 1
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        assert!(matches!(
            detect(&cluster, &placement, &s),
            Err(SimError::FoldUnsupported(_))
        ));

        // tp4 on 8-GPU nodes: two dp values share each node.
        let s = spec(4, 2, 32); // dp = 4
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        let err = detect(&cluster, &placement, &s).unwrap_err();
        assert!(err.to_string().contains("replicas"), "{err}");
    }

    #[test]
    fn uncovered_nodes_are_rejected() {
        let cluster = presets::hgx_h100_with_nodes(8);
        let s = spec(8, 2, 32); // dp = 2, uses 4 of 8 nodes
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        let err = detect(&cluster, &placement, &s).unwrap_err();
        assert!(err.to_string().contains("no ranks"), "{err}");
    }

    #[test]
    fn split_reasons_cover_config_and_faults() {
        let mut cfg = SimConfig::fast();
        cfg.uniform_variability = true;
        assert_eq!(split_reason(&cfg, None), None);
        assert_eq!(split_reason(&cfg, Some(&FaultPlan::none())), None);
        cfg.node_power_cap = Some((0, 5000.0));
        assert!(split_reason(&cfg, None).is_some());
        cfg.node_power_cap = None;
        cfg.uniform_variability = false;
        assert!(split_reason(&cfg, None).is_some());
    }

    #[test]
    fn folded_run_matches_unfolded_throughput() {
        let cluster = presets::hgx_h100_with_nodes(8);
        let s = spec(8, 2, 64); // dp = 4
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
        let partition = StagePartition::even(job.arch.num_layers, s.pp).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.uniform_variability = true;
        assert_eq!(split_reason(&cfg, None), None);
        assert_eq!(detect(&cluster, &placement, &s).unwrap().multiplicity, 4);

        let hints = DeviceHints::for_spec(cluster.gpu());
        let job_folded =
            lower_train_folded(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        assert_eq!(job_folded.multiplicity, 4);
        let (folded, _) = run_folded(
            &cluster,
            &placement,
            &job_folded,
            &s,
            cfg,
            None,
            &FoldOptions::default(),
        )
        .unwrap();

        let lowered =
            lower_train(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let unfolded = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run()
            .unwrap();

        assert_eq!(folded.step_time_s, unfolded.step_time_s);
        assert_eq!(folded.tokens_per_s, unfolded.tokens_per_s);
        assert_eq!(folded.kernel_time, unfolded.kernel_time);
        let rel = (folded.energy_per_step_j - unfolded.energy_per_step_j).abs()
            / unfolded.energy_per_step_j;
        assert!(rel < 1e-12, "energy rel err {rel}");
    }

    #[test]
    fn fallback_runs_unfolded_with_reason() {
        let cluster = presets::hgx_h100_with_nodes(4);
        let s = spec(8, 4, 32); // dp = 1
        let placement = Placement::identity(&cluster, s.world()).unwrap();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
        let partition = StagePartition::even(job.arch.num_layers, s.pp).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.uniform_variability = true;
        assert_eq!(split_reason(&cfg, None), None);
        let err = detect(&cluster, &placement, &s).unwrap_err();
        assert!(err.to_string().contains("dp = 1"), "{err}");

        // The caller's fallback: the unfolded engine on the same inputs.
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let result = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.step_time_s > 0.0);
    }
}
