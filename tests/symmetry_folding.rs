//! Golden equivalence suite for symmetry folding.
//!
//! A folded run — representative dp == 0 replica simulated, results
//! expanded — must be **metric-identical** to the unfolded engine on the
//! same cluster/placement/workload, compared through [`diff`]: step time,
//! throughput, per-rank kernel breakdowns, per-GPU traffic, throttle and
//! occupancy, goodput and downtime equal to relative 1e-12 (a couple of
//! ulp); energy — an integral over every control tick — to 1e-10;
//! telemetry samples to `|a − b| / max(|b|, 1) < 1e-9` on identical
//! sample clocks. Bit equality is deliberately not demanded: the unfolded
//! engine's own replicas differ among themselves at the ulp level, because
//! the flow list compacts with `swap_remove` and two concurrent flows
//! touching one GPU accumulate into its f64 windows in history-dependent
//! order. Folding reproduces replica 0 to that same noise floor (and is
//! frequently bit-equal, e.g. the switchless 64-GPU case). Covered here across switchless HGX clusters, the rail-fabric
//! SuperPod (exercising the switch-link load multiplier and full
//! cross-replica rings), MoE expert parallelism, permuted-but-congruent
//! placements, shared plan sets, and the rejection paths.

use std::sync::Arc;

use proptest::prelude::*;

use charllm_hw::{presets, Cluster, GpuId};
use charllm_models::{presets as models, TrainJob};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, RankGrid, StagePartition};
use charllm_sim::diff;
use charllm_sim::fold::{self, FoldOptions};
use charllm_sim::{SharedPlans, SimConfig, SimError, SimResult, Simulator};
use charllm_telemetry::{MetricValue, MetricsHub};
use charllm_trace::{lower_train, lower_train_folded, DeviceHints};

fn fold_cfg() -> SimConfig {
    let mut cfg = SimConfig::fast();
    cfg.uniform_variability = true;
    cfg
}

fn spec(tp: usize, pp: usize, ep: usize, world: usize) -> ParallelismSpec {
    ParallelismSpec::infer_dp(tp, pp, ep, world, false).unwrap()
}

fn run_unfolded(
    cluster: &Cluster,
    placement: &Placement,
    job: &TrainJob,
    spec: &ParallelismSpec,
    cfg: SimConfig,
) -> SimResult {
    let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let lowered = lower_train(job, spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    Simulator::new(cluster, placement, &lowered.trace, cfg)
        .unwrap()
        .run()
        .unwrap()
}

fn run_folded(
    cluster: &Cluster,
    placement: &Placement,
    job: &TrainJob,
    spec: &ParallelismSpec,
    cfg: SimConfig,
    opts: &FoldOptions,
) -> SimResult {
    let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let folded =
        lower_train_folded(job, spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    assert!(folded.multiplicity > 1, "workload must actually fold");
    let (result, _) = fold::run_folded(cluster, placement, &folded, spec, cfg, None, opts).unwrap();
    result
}

fn golden(cluster: Cluster, job: TrainJob, spec: ParallelismSpec) {
    let placement = Placement::identity(&cluster, spec.world()).unwrap();
    let cfg = fold_cfg();
    let folded = run_folded(
        &cluster,
        &placement,
        &job,
        &spec,
        cfg,
        &FoldOptions::default(),
    );
    let unfolded = run_unfolded(&cluster, &placement, &job, &spec, cfg);
    // Every field of the serialized result, goodput, wasted energy,
    // restarts and downtime included.
    let d = diff::results(&folded, &unfolded);
    assert!(d.passes(), "folded run differs from unfolded:\n{d}");
}

#[test]
fn gpt3_64gpu_switchless_folds_exactly() {
    golden(
        presets::hgx_h100_with_nodes(8),
        TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16),
        spec(8, 2, 1, 64), // dp = 4
    );
}

#[test]
fn gpt3_64gpu_superpod_rails_fold_exactly() {
    // Rail-fabric SuperPod: cross-node routes traverse shared Switch links,
    // exercising the ×dp load multiplier on intra-replica (pp) traffic and
    // the full-ring plans for the dp AllReduce.
    golden(
        presets::hgx_h100_superpod(8, 4),
        TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16),
        spec(8, 2, 1, 64), // dp = 4
    );
}

#[test]
fn gpt3_512gpu_switchless_folds_exactly() {
    golden(
        presets::hgx_h100_with_nodes(64),
        TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8),
        spec(8, 8, 1, 512), // dp = 8
    );
}

#[test]
fn gpt3_512gpu_superpod_folds_exactly() {
    golden(
        presets::hgx_h100_superpod(64, 8),
        TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8),
        spec(8, 8, 1, 512), // dp = 8
    );
}

#[test]
fn mixtral_expert_parallel_folds_exactly() {
    // EP all-to-all is intra-replica: groups survive folding whole and get
    // the switch multiplier on shared links.
    golden(
        presets::hgx_h100_with_nodes(8),
        TrainJob::pretrain(models::mixtral_8x7b()).with_global_batch(16),
        spec(1, 2, 8, 64), // dp = 4
    );
    golden(
        presets::hgx_h100_superpod(8, 4),
        TrainJob::pretrain(models::mixtral_8x7b()).with_global_batch(16),
        spec(2, 2, 8, 64), // dp = 2
    );
}

#[test]
fn permuted_congruent_placement_folds_exactly() {
    // Swap the node blocks of replicas 1 and 2: still a translated copy of
    // replica 0, so folding must accept it and reproduce the unfolded run
    // on the *same* permuted placement.
    let cluster = presets::hgx_h100_with_nodes(8);
    let s = spec(8, 2, 1, 64); // dp = 4, one node per (dp, pp) cell
    let grid = RankGrid::new(s);
    let table: Vec<GpuId> = (0..s.world())
        .map(|r| {
            let c = grid.coords(r);
            let swapped_dp = match c.dp {
                1 => 2,
                2 => 1,
                d => d,
            };
            GpuId((r as isize + (swapped_dp as isize - c.dp as isize) * 8) as u32)
        })
        .collect();
    let placement = Placement::from_table(&cluster, table).unwrap();
    let map = fold::detect(&cluster, &placement, &s).unwrap();
    assert_eq!(map.multiplicity, 4);

    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let cfg = fold_cfg();
    let folded = run_folded(&cluster, &placement, &job, &s, cfg, &FoldOptions::default());
    let unfolded = run_unfolded(&cluster, &placement, &job, &s, cfg);
    let d = diff::results(&folded, &unfolded);
    assert!(d.passes(), "folded run differs from unfolded:\n{d}");
}

#[test]
fn incongruent_placement_falls_back_to_unfolded() {
    // Swap two GPUs *within* replica 2 only: slots no longer match replica
    // 0 rank-for-rank, so detection must refuse, the folded engine must
    // refuse with the same reason, and the caller falls back to the plain
    // engine.
    let cluster = presets::hgx_h100_with_nodes(8);
    let s = spec(8, 2, 1, 64);
    let mut table: Vec<GpuId> = (0..s.world() as u32).map(GpuId).collect();
    table.swap(16, 17); // ranks 16/17 live in replica 2 (dp stride 8, tp 8)
    let placement = Placement::from_table(&cluster, table).unwrap();
    let cfg = fold_cfg();
    assert_eq!(fold::split_reason(&cfg, None), None);
    let Err(SimError::FoldUnsupported(reason)) = fold::detect(&cluster, &placement, &s) else {
        panic!("an incongruent placement must not fold");
    };
    assert!(reason.contains("replica 2 is not"), "{reason}");

    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let partition = StagePartition::even(job.arch.num_layers, s.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let folded =
        lower_train_folded(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    let err = fold::run_folded(
        &cluster,
        &placement,
        &folded,
        &s,
        cfg,
        None,
        &FoldOptions::default(),
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        SimError::FoldUnsupported(reason).to_string()
    );
    let unfolded = run_unfolded(&cluster, &placement, &job, &s, cfg);
    assert!(unfolded.step_time_s > 0.0);
}

#[test]
fn symmetry_breaking_config_rejects_folding() {
    let cluster = presets::hgx_h100_with_nodes(8);
    let s = spec(8, 2, 1, 64);
    let placement = Placement::identity(&cluster, s.world()).unwrap();
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let partition = StagePartition::even(job.arch.num_layers, s.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let folded =
        lower_train_folded(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();

    // Per-node power cap singles out one replica's node.
    let mut cfg = fold_cfg();
    cfg.node_power_cap = Some((0, 4000.0));
    let err = fold::run_folded(
        &cluster,
        &placement,
        &folded,
        &s,
        cfg,
        None,
        &FoldOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::FoldUnsupported(_)), "{err}");

    // Seeded silicon variability differs per GPU across replicas.
    let mut cfg = fold_cfg();
    cfg.uniform_variability = false;
    let err = fold::run_folded(
        &cluster,
        &placement,
        &folded,
        &s,
        cfg,
        None,
        &FoldOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::FoldUnsupported(_)), "{err}");

    // A non-empty fault plan splits via the high-level gate.
    let plan = charllm_sim::FaultPlan::none().gpu_fail_stop(0, 0.1);
    assert!(fold::split_reason(&fold_cfg(), Some(&plan)).is_some());

    // A trace folded for a smaller world with the same dp (tp8·pp2 against
    // a tp8·pp4 spec) is refused, naming both worlds.
    let cluster = presets::hgx_h100_with_nodes(16);
    let wide = spec(8, 4, 1, 128); // dp = 4
    let placement = Placement::identity(&cluster, wide.world()).unwrap();
    assert!(fold::detect(&cluster, &placement, &wide).is_ok());
    let err = fold::run_folded(
        &cluster,
        &placement,
        &folded,
        &wide,
        fold_cfg(),
        None,
        &FoldOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, SimError::FoldUnsupported(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("64") && msg.contains("128"), "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any placement that assigns each replica a translated copy of
    /// replica 0's node blocks — here a random permutation of the blocks —
    /// must fold, with one representative class per (tp, ep, pp) column.
    #[test]
    fn random_congruent_placements_always_fold(
        (tp, ep) in prop_oneof![
            Just((8usize, 1usize)),
            Just((4, 2)),
            Just((2, 4)),
            Just((1, 8)),
        ],
        pp in prop_oneof![Just(1usize), Just(2)],
        dp in prop_oneof![Just(2usize), Just(4)],
        swaps in collection::vec((0usize..4, 0usize..4), 0..6),
    ) {
        let world = tp * ep * pp * dp;
        let cluster = presets::hgx_h100_with_nodes(world / 8);
        let s = ParallelismSpec::infer_dp(tp, pp, ep, world, false).unwrap();
        let mut perm: Vec<usize> = (0..dp).collect();
        for (a, b) in swaps {
            perm.swap(a % dp, b % dp);
        }
        let grid = RankGrid::new(s);
        let table: Vec<GpuId> = (0..world)
            .map(|r| {
                let c = grid.coords(r);
                let node = perm[c.dp] + dp * c.pp;
                GpuId((node * 8 + c.tp + tp * c.ep) as u32)
            })
            .collect();
        let placement = Placement::from_table(&cluster, table).unwrap();
        let map = fold::detect(&cluster, &placement, &s).unwrap();
        prop_assert_eq!(map.multiplicity as usize, dp);
        prop_assert_eq!(map.active_ranks.len(), world / dp);
        prop_assert_eq!(map.active_nodes.len(), pp);
    }
}

#[test]
fn telemetry_expansion_is_optional_but_aggregates_agree() {
    let cluster = presets::hgx_h100_with_nodes(8);
    let s = spec(8, 2, 1, 64);
    let placement = Placement::identity(&cluster, s.world()).unwrap();
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let cfg = fold_cfg();

    let expanded = run_folded(
        &cluster,
        &placement,
        &job,
        &s,
        cfg,
        &FoldOptions {
            expand_telemetry: true,
            ..FoldOptions::default()
        },
    );
    let compact = run_folded(
        &cluster,
        &placement,
        &job,
        &s,
        cfg,
        &FoldOptions {
            expand_telemetry: false,
            ..FoldOptions::default()
        },
    );
    assert_eq!(expanded.step_time_s, compact.step_time_s);
    assert_eq!(expanded.energy_per_step_j, compact.energy_per_step_j);
    // Phantom GPUs mirror representatives, so peaks survive compaction.
    assert_eq!(
        expanded.telemetry.peak_temp_c(),
        compact.telemetry.peak_temp_c()
    );
    assert_eq!(
        expanded.telemetry.peak_power_w(),
        compact.telemetry.peak_power_w()
    );
    // Means average the GPUs with samples, so they survive compaction too.
    for (what, c, e) in [
        (
            "mean power",
            compact.telemetry.mean_power_w(),
            expanded.telemetry.mean_power_w(),
        ),
        (
            "mean temp",
            compact.telemetry.mean_temp_c(),
            expanded.telemetry.mean_temp_c(),
        ),
        (
            "mean freq",
            compact.telemetry.mean_freq_mhz(),
            expanded.telemetry.mean_freq_mhz(),
        ),
    ] {
        assert!(diff::SCALAR.admits(c, e), "{what}: {c} vs {e}");
    }
    // But the compact store only carries series for stepped GPUs.
    let phantom = (8..16).find(|&g| !compact.telemetry.power(g).is_empty());
    assert_eq!(phantom, None, "phantom node series must stay empty");
    assert!(!expanded.telemetry.power(8).is_empty());
}

#[test]
fn folded_runs_build_every_plan_into_a_shared_set() {
    // Full cross-replica rings take the engine's one plan path: the first
    // run publishes every collective's plan, trimmed rings included, and a
    // second run on the same set builds none. Results do not depend on
    // the set.
    let cluster = presets::hgx_h100_superpod(8, 4);
    let s = spec(8, 2, 1, 64); // dp = 4
    let placement = Placement::identity(&cluster, s.world()).unwrap();
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let partition = StagePartition::even(job.arch.num_layers, s.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let folded =
        lower_train_folded(&job, &s, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    assert!(
        !folded.folded.is_empty(),
        "workload must trim cross-replica rings"
    );
    let run = |shared: Option<Arc<SharedPlans>>| {
        fold::run_folded(
            &cluster,
            &placement,
            &folded,
            &s,
            fold_cfg(),
            shared,
            &FoldOptions::default(),
        )
        .unwrap()
    };

    let (alone, _) = run(None);
    let plans = Arc::new(SharedPlans::for_trace(&folded.trace));
    let (first, _) = run(Some(Arc::clone(&plans)));
    assert_eq!(plans.num_built(), folded.trace.num_collectives());
    let (second, stats) = run(Some(plans));
    assert_eq!(stats.plan_builds, 0);
    assert!(stats.shared_plan_hits > 0);

    let alone = serde_json::to_string(&alone).unwrap();
    assert_eq!(serde_json::to_string(&first).unwrap(), alone);
    assert_eq!(serde_json::to_string(&second).unwrap(), alone);
}

#[test]
fn folded_runs_time_their_three_stages() {
    let cluster = presets::hgx_h100_with_nodes(2);
    let s = spec(8, 1, 1, 16); // dp = 2
    let placement = Placement::identity(&cluster, s.world()).unwrap();
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
    let hub = MetricsHub::new(1);
    run_folded(
        &cluster,
        &placement,
        &job,
        &s,
        fold_cfg(),
        &FoldOptions {
            metrics: Some(hub.shard(0)),
            ..FoldOptions::default()
        },
    );
    // One observation per stage, under exactly these names (perfbench's
    // folded workload reads them back by name).
    let snap = hub.snapshot();
    let stages: Vec<(&str, u64)> = snap
        .iter()
        .filter(|(id, _)| id.name == "sim_stage_seconds")
        .map(|(id, v)| {
            let MetricValue::Histogram { count, .. } = v else {
                panic!("sim_stage_seconds is a histogram, got {v:?}");
            };
            (id.labels[0].1.as_str(), *count)
        })
        .collect();
    assert_eq!(
        stages,
        [("event_loop", 1), ("fold_expand", 1), ("plan_build", 1)]
    );
}
