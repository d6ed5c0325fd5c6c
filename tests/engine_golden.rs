//! Golden equivalence suite for the event-driven engine.
//!
//! The event-driven `Simulator` must produce **byte-identical** results to
//! the scan-based `ReferenceSimulator` (the seed engine, kept as the
//! executable spec in `charllm_sim::reference`). Equality is checked on the
//! serialized `SimResult` — every f64 in every field, bit for bit — across
//! lowered training workloads, NIC-crossing placements, and hand-built
//! traces covering each collective kind. The suite also pins determinism
//! (identical configs ⇒ identical bytes) and the payload-conservation
//! invariant from the residual-credit fix.

use charllm_hw::{presets, Cluster, GpuId, GpuModel, NodeId, NodeLayout};
use charllm_models::{presets as models, TrainJob};
use charllm_net::{lower_collective, ChunkingPolicy, CollectiveKind};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::diff;
use charllm_sim::fold::{self, FoldOptions};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{fnv1a, FaultPlan, RecoveryPolicy, SimConfig, SimResult, Simulator};
use charllm_telemetry::SpanRecorder;
use charllm_trace::builder::{CollKey, TraceBuilder};
use charllm_trace::lower::{lower_train, lower_train_folded, DeviceHints};
use charllm_trace::trace::TraceMeta;
use charllm_trace::{ComputeKind, ExecutionTrace};

fn one_node_cluster() -> Cluster {
    Cluster::new("8xH200", GpuModel::H200.spec(), NodeLayout::hgx(), 1).unwrap()
}

fn gpt3_trace(cluster: &Cluster, global_batch: usize) -> ExecutionTrace {
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(global_batch);
    let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace
}

/// Assert two serialized results are byte-equal. On failure, name the first
/// field paths that differ ([`diff`]) instead of printing both texts.
fn assert_same_bytes(new: &str, reference: &str, what: &str) {
    if new == reference {
        return;
    }
    let d = diff::texts(new, reference).expect("serialized results parse");
    let fields: Vec<&str> = d.differing_paths().take(8).collect();
    let at = new
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(new.len().min(reference.len()));
    panic!(
        "{what}: results differ from byte {at} ({} vs {} bytes); first differing fields: {fields:?}",
        new.len(),
        reference.len()
    );
}

/// Run both engines on the same inputs and assert byte-equal results.
fn assert_engines_agree(cluster: &Cluster, trace: &ExecutionTrace, cfg: SimConfig, what: &str) {
    let placement = Placement::identity(cluster, trace.world()).unwrap();
    let new = Simulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let reference = ReferenceSimulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert_same_bytes(
        &serde_json::to_string(&new).unwrap(),
        &serde_json::to_string(&reference).unwrap(),
        what,
    );
}

#[test]
fn golden_equality_on_lowered_training_step() {
    // Multi-iteration so the plan cache serves hits and CollState pruning
    // fires; warmup so the measured/unmeasured traffic split is exercised.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    assert_engines_agree(
        &cluster,
        &trace,
        cfg,
        "event-driven engine diverged from reference",
    );
}

#[test]
fn golden_equality_on_moe_expert_parallel_workload() {
    // Mixtral-style MoE under expert parallelism (tp1 pp4 ep8 dp1 on 32
    // GPUs / 4 nodes): the lowered trace carries AllToAll dispatch/combine
    // plus MoeGemm/Router kernels, none of which the dense GPT-3 workload
    // exercises. Both engines must agree bit-for-bit here too.
    let cluster = presets::hgx_h200_with_nodes(4);
    let job = TrainJob::pretrain(models::mixtral_8x7b()).with_global_batch(8);
    let spec = ParallelismSpec::infer_dp(1, 4, 8, 32, false).unwrap();
    let partition = StagePartition::even(32, 4).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 1;
    assert_engines_agree(
        &cluster,
        &trace,
        cfg,
        "event-driven engine diverged from reference on MoE/EP workload",
    );
}

#[test]
fn golden_equality_with_forced_heap_scheduler() {
    // The completion calendar is the engine's only scheduler, so this
    // 8-GPU world (once kept on a linear scan) must run every event
    // through it and still reproduce the reference bit-for-bit:
    // conservative lower-bound keys, one entry per owner removed at its
    // retire site, and the re-tighten-on-drain path all under test, with
    // thermal feedback on so frequency steps force compute re-keys mid-run.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let (new, stats) = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run_stats()
        .unwrap();
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(
        stats.heap_pushes > 0 && stats.heap_pops > 0 && stats.cal_bucket_drains > 0,
        "small worlds must schedule through the completion calendar: {stats:?}"
    );
    assert!(
        stats.cal_exact_removals > 0,
        "completing entries must leave the calendar at their retire site"
    );
    assert_same_bytes(
        &serde_json::to_string(&new).unwrap(),
        &serde_json::to_string(&reference).unwrap(),
        "calendar scheduler diverged from reference",
    );
}

#[test]
fn golden_equality_with_thermal_feedback_disabled() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    assert_engines_agree(
        &cluster,
        &trace,
        cfg,
        "engine diverged without thermal feedback",
    );
}

#[test]
fn golden_equality_across_nic_routes() {
    // One GPU per node: every collective crosses PCIe + NIC links, so the
    // charge lists and store-and-forward work factors differ from HGX.
    let spread = presets::single_gpu_per_node_cluster(8);
    let trace = gpt3_trace(&one_node_cluster(), 8);
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    assert_engines_agree(&spread, &trace, cfg, "engine diverged across NIC routes");
}

/// GPT-3 13B under TP4-PP2 (data parallel over the rest) on `cluster`, two
/// iterations: assert both engines' results are byte-equal.
fn assert_tp4_pp2_engines_agree(cluster: &Cluster, what: &str) {
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let spec = ParallelismSpec::parse("TP4-PP2", cluster.num_gpus()).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    assert_engines_agree(cluster, &trace, cfg, what);
}

#[test]
fn golden_equality_on_mi250_package_and_port_charges() {
    // MI250 GCDs share a package bus (charged to both endpoints) and reach
    // other packages through xGMI ports: the charge rules no HGX preset
    // exercises.
    assert_tp4_pp2_engines_agree(
        &presets::mi250_cluster(),
        "engine diverged from reference on MI250",
    );
}

#[test]
fn golden_equality_on_rail_superpod_switch_routes() {
    // Leaf and spine tiers give the longest routes any preset builds.
    assert_tp4_pp2_engines_agree(
        &presets::hgx_h100_superpod(2, 2),
        "engine diverged from reference on the rail SuperPod",
    );
}

#[test]
fn golden_equality_on_every_collective_kind() {
    // Hand-built trace covering the lowering paths the training workload
    // does not: AllToAll, Broadcast, AllGather, ReduceScatter, eager p2p.
    let cluster = one_node_cluster();
    let mut b = TraceBuilder::new(4);
    let group = vec![0, 1, 2, 3];
    let mk = |b: &mut TraceBuilder, site, kind, bytes, eager| {
        b.collective(
            CollKey {
                site,
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            kind,
            bytes,
            if eager { vec![0, 1] } else { group.clone() },
            ChunkingPolicy::nccl_default(),
            eager,
        )
    };
    for rank in 0..4 {
        b.compute(rank, ComputeKind::Attention, 1e11 * (rank + 1) as f64);
    }
    let a2a = mk(&mut b, "a2a", CollectiveKind::AllToAll, 1 << 22, false);
    let bc = mk(&mut b, "bcast", CollectiveKind::Broadcast, 1 << 21, false);
    let ag = mk(&mut b, "ag", CollectiveKind::AllGather, 1 << 20, false);
    let rs = mk(&mut b, "rs", CollectiveKind::ReduceScatter, 1 << 20, false);
    let p2p = mk(&mut b, "p2p", CollectiveKind::SendRecv, 1 << 19, true);
    b.start(0, p2p); // eager sender
    for rank in 0..4 {
        b.blocking(rank, a2a);
        b.compute(rank, ComputeKind::Gemm, 5e10);
        b.blocking(rank, bc);
        b.blocking(rank, ag);
        b.blocking(rank, rs);
    }
    b.wait(1, p2p); // receiver drains the eager send last
    let trace = b.build(TraceMeta {
        tokens_per_iteration: 128,
        ..Default::default()
    });
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    assert_engines_agree(
        &cluster,
        &trace,
        cfg,
        "engine diverged on the hand-built collectives",
    );
}

#[test]
fn retire_site_removal_is_exact_at_512_gpus_under_faults() {
    // 512-GPU unfolded run (tp4 pp8 dp16) with a fault plan that degrades
    // a hot link and slows a straggler rank, so dirty-flow re-rates and
    // compute re-keys churn the calendar. A completing entity's entry
    // leaves the calendar only at its retire site in `advance`; this pins
    // that the path fires.
    use charllm_sim::FaultPlan;

    let cluster = presets::hgx_h200_with_nodes(64);
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(128);
    let spec = ParallelismSpec::infer_dp(4, 8, 1, cluster.num_gpus(), false).unwrap();
    let partition = StagePartition::even(40, 8).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let plan = FaultPlan::none()
        .link_degrade(0, 0.05, 0.4, 0.25)
        .straggler(17, 0.02, 0.5, 1.7);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 1;
    cfg.warmup_iterations = 0;
    let (_, stats) = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .with_faults(&plan)
        .unwrap()
        .run_stats()
        .unwrap();
    assert!(
        stats.cal_exact_removals > 0,
        "completing entries must leave the calendar at their retire site"
    );
    assert!(
        stats.arena_slot_reuses > 0,
        "steady-state launches should recycle arena slots"
    );
}

#[test]
fn identical_configs_produce_byte_identical_results() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let run = || {
        let r = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        serde_json::to_string(&r).unwrap()
    };
    assert_same_bytes(&run(), &run(), "same seed + config must be deterministic");
}

/// Sum of payload bytes over the flows a collective actually launches
/// (dropping on-device and zero-work flows, like the engine does).
fn lowered_payload_bytes(
    cluster: &Cluster,
    kind: CollectiveKind,
    bytes: u64,
    gpus: &[GpuId],
    chunking: ChunkingPolicy,
) -> f64 {
    let plan = lower_collective(kind, bytes, gpus, cluster, chunking).unwrap();
    plan.flows
        .iter()
        .filter(|f| {
            let route = f.route(cluster).unwrap();
            !route.is_empty() && f.work_bytes(cluster, &route) > 0.0
        })
        .map(|f| f.bytes as f64)
        .sum()
}

#[test]
fn fabric_traffic_equals_lowered_payload() {
    // 2-rank intra-node AllReduce: each flow rides one NVLink fabric port
    // pair, charging both endpoints, so total fabric traffic must equal
    // exactly 2 × the lowered payload. Before the residual-credit fix each
    // flow silently dropped up to one byte-equivalent of work (a relative
    // error around 1e-6 on this payload), which this tolerance rejects.
    let cluster = one_node_cluster();
    let bytes = 1 << 20;
    let mut b = TraceBuilder::new(2);
    let id = b.collective(
        CollKey {
            site: "ar",
            mb: 0,
            layer: 0,
            aux: 0,
            group_lead: 0,
        },
        CollectiveKind::AllReduce,
        bytes,
        vec![0, 1],
        ChunkingPolicy::nccl_default(),
        false,
    );
    b.blocking(0, id);
    b.blocking(1, id);
    let trace = b.build(TraceMeta {
        tokens_per_iteration: 1,
        ..Default::default()
    });
    let placement = Placement::identity(&cluster, 2).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let r = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let payload = lowered_payload_bytes(
        &cluster,
        CollectiveKind::AllReduce,
        bytes,
        &[GpuId(0), GpuId(1)],
        ChunkingPolicy::nccl_default(),
    );
    let measured: f64 = (0..2).map(|g| r.traffic.fabric(g)).sum();
    let expected = 2.0 * payload;
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "fabric traffic {measured} vs expected {expected} (rel err {rel:e})"
    );
}

#[test]
fn pcie_traffic_equals_lowered_payload_across_nodes() {
    // Inter-node SendRecv: the route is pcie(src) → nic → nic → pcie(dst),
    // so each endpoint's PCIe lane carries the full payload once.
    let cluster = presets::single_gpu_per_node_cluster(2);
    let bytes = 1 << 20;
    let mut b = TraceBuilder::new(2);
    let id = b.collective(
        CollKey {
            site: "p2p",
            mb: 0,
            layer: 0,
            aux: 0,
            group_lead: 0,
        },
        CollectiveKind::SendRecv,
        bytes,
        vec![0, 1],
        ChunkingPolicy::Unchunked,
        true,
    );
    b.start(0, id);
    b.wait(1, id);
    let trace = b.build(TraceMeta {
        tokens_per_iteration: 1,
        ..Default::default()
    });
    let placement = Placement::identity(&cluster, 2).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let r = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let payload = lowered_payload_bytes(
        &cluster,
        CollectiveKind::SendRecv,
        bytes,
        &[GpuId(0), GpuId(1)],
        ChunkingPolicy::Unchunked,
    );
    let measured: f64 = (0..2).map(|g| r.traffic.pcie(g)).sum();
    let expected = 2.0 * payload;
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "pcie traffic {measured} vs expected {expected} (rel err {rel:e})"
    );
}

#[test]
fn shared_plans_preserve_results_and_count_hits() {
    // Two runs of the same (cluster, placement, trace) triple sharing one
    // plan set: the first builds and publishes every collective plan, the
    // second clones them all instead of lowering — with byte-identical
    // results to an unshared run.
    use charllm_sim::SharedPlans;
    use std::sync::Arc;

    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 1;

    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let baseline = serde_json::to_string(&baseline).unwrap();

    let shared = Arc::new(SharedPlans::for_trace(&trace));
    let (first, first_stats) = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .with_shared_plans(Arc::clone(&shared))
        .unwrap()
        .run_stats()
        .unwrap();
    assert_eq!(first_stats.shared_plan_hits, 0, "cold set serves nothing");
    assert!(first_stats.plan_builds > 0);
    assert_eq!(
        shared.num_built() as u64,
        first_stats.plan_builds,
        "every built plan is published"
    );

    let (second, second_stats) = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .with_shared_plans(Arc::clone(&shared))
        .unwrap()
        .run_stats()
        .unwrap();
    assert_eq!(second_stats.plan_builds, 0, "warm set builds nothing");
    assert_eq!(
        second_stats.shared_plan_hits, first_stats.plan_builds,
        "every launch's first plan lookup is a shared hit"
    );

    for (run, what) in [(first, "cold shared set"), (second, "warm shared set")] {
        assert_same_bytes(&serde_json::to_string(&run).unwrap(), &baseline, what);
    }
}

#[test]
fn shared_plans_reject_foreign_traces() {
    use charllm_sim::{SharedPlans, SimError};
    use std::sync::Arc;

    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let other = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let shared = Arc::new(SharedPlans::for_trace(&other));
    let err = Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
        .unwrap()
        .with_shared_plans(shared)
        .err();
    assert!(
        matches!(err, Some(SimError::PlanSetMismatch { .. })),
        "differently sized plan set must be rejected, got {err:?}"
    );
}

#[test]
fn shared_plans_naming_foreign_gpus_are_an_error_not_a_panic() {
    // A plan set's serde form is public, so a caller can hand the engine a
    // set whose flows name GPUs the cluster lacks; routing one would panic.
    use charllm_sim::{SharedPlans, SimError};
    use std::sync::Arc;

    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let shared = Arc::new(SharedPlans::for_trace(&trace));
    Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
        .unwrap()
        .with_shared_plans(Arc::clone(&shared))
        .unwrap()
        .run()
        .unwrap();
    let pristine = serde_json::to_string(&*shared).unwrap();
    // `text` with the first built flow's `work pr src dst` tokens edited.
    let tamper = |edit: fn(&mut [String])| {
        let built = pristine.find("\"built\":[[").expect("set has built plans");
        let start = built + pristine[built..].find(",\"").unwrap() + 2;
        let end = start + pristine[start..].find([';', '"']).unwrap();
        let mut tokens: Vec<String> = pristine[start..end]
            .split(' ')
            .map(str::to_string)
            .collect();
        assert_eq!(tokens.len(), 4, "a flow packs work, ratio, src and dst");
        edit(&mut tokens);
        format!(
            "{}{}{}",
            &pristine[..start],
            tokens.join(" "),
            &pristine[end..]
        )
    };
    let attach = |text: &str| {
        let set: SharedPlans = serde_json::from_str(text).expect("well-formed set");
        Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
            .unwrap()
            .with_shared_plans(Arc::new(set))
            .err()
    };
    assert_eq!(attach(&pristine), None, "the untampered set attaches");
    let cases = [
        (
            "a GPU outside the cluster",
            tamper(|t| t[2] = "999999".into()),
        ),
        (
            "a flow from a GPU to itself",
            tamper(|t| t[3] = t[2].clone()),
        ),
    ];
    for (tag, text) in cases {
        assert_eq!(
            attach(&text),
            Some(SimError::ForeignPlanSet { num_gpus: 8 }),
            "{tag} must be rejected"
        );
    }
}

/// Two HGX nodes running tp4·pp2·dp2: pipeline sends cross nodes over
/// PCIe + NIC while tensor-parallel collectives stay on NVLink. Thermal
/// feedback is on and the telemetry sample period (12.3 ms) is not a
/// multiple of the control period (5 ms), so sample boundaries — where
/// flow traffic is flushed — fall between control ticks' phases.
fn inter_node_thermal_case() -> (Cluster, Placement, ExecutionTrace, SimConfig) {
    let cluster = presets::hgx_h200_with_nodes(2);
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let spec = ParallelismSpec::infer_dp(4, 2, 1, cluster.num_gpus(), false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 1;
    cfg.control_period_s = 0.005;
    cfg.sample_period_s = 0.0123;
    assert!(cfg.thermal_feedback);
    (cluster, placement, trace, cfg)
}

#[test]
fn golden_equality_inter_node_with_offset_sample_period() {
    let (cluster, placement, trace, cfg) = inter_node_thermal_case();
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    // The calendar's completion tests visit drained candidates only.
    let new = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    // The case must exercise what it claims: PCIe traffic in the matrix
    // and in the sampled per-window series, over many sample windows.
    let gpus = cluster.num_gpus();
    assert!((0..gpus).any(|g| new.traffic.pcie(g) > 0.0));
    assert!((0..gpus).any(|g| new.telemetry.pcie(g).values().any(|v| v > 0.0)));
    assert!(new.telemetry.pcie(0).len() > 10, "too few sample windows");
    assert_same_bytes(
        &serde_json::to_string(&new).unwrap(),
        &serde_json::to_string(&reference).unwrap(),
        "event-driven engine diverged from reference on the inter-node case",
    );
}

#[test]
fn inter_node_traffic_conserves_lowered_payload() {
    // Every measured byte a flow moves lands exactly once per owning
    // (GPU, link) pair, however its movement was split between sample
    // flushes, rate-change banks and its retirement charge.
    use charllm_hw::LinkClass;

    let (cluster, placement, trace, cfg) = inter_node_thermal_case();
    let r = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let (mut pcie, mut fabric) = (0.0, 0.0);
    for inst in trace.collectives() {
        let gpus: Vec<GpuId> = inst.group.iter().map(|&r| placement.gpu(r)).collect();
        let plan = lower_collective(
            inst.kind,
            inst.bytes_per_rank,
            &gpus,
            &cluster,
            inst.chunking,
        )
        .unwrap();
        for f in &plan.flows {
            let route = f.route(&cluster).unwrap();
            if route.is_empty() || f.work_bytes(&cluster, &route) <= 0.0 {
                continue;
            }
            for &id in &route {
                for gpu in [f.src, f.dst] {
                    match cluster.link(id).class {
                        LinkClass::Pcie if cluster.pcie(gpu) == id => pcie += f.bytes as f64,
                        LinkClass::NvLink if cluster.fabric_port(gpu) == id => {
                            fabric += f.bytes as f64
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    // One measured iteration: each collective instance launches once.
    let measured_pcie: f64 = (0..cluster.num_gpus()).map(|g| r.traffic.pcie(g)).sum();
    let measured_fabric: f64 = (0..cluster.num_gpus()).map(|g| r.traffic.fabric(g)).sum();
    assert!(pcie > 0.0 && fabric > 0.0, "case crosses nodes and NVLink");
    for (what, measured, expected) in [
        ("pcie", measured_pcie, pcie),
        ("fabric", measured_fabric, fabric),
    ] {
        let rel = (measured - expected).abs() / expected;
        assert!(
            rel < 1e-9,
            "{what} traffic {measured} vs lowered payload {expected} (rel err {rel:e})"
        );
    }
}

#[test]
fn slow_flows_retire_within_one_control_period_of_the_threshold() {
    // An inter-node send runs at full rate until ~50 work units are left,
    // when its bottleneck link degrades to 25 units/s: the last unit then
    // takes 40 ms, eight control periods, so control ticks land after the
    // flow crossed the 1-unit completion threshold but well before its
    // work reaches zero. The calendar must hand it to `advance` on the
    // first such tick; a key at zero work would retire it ~40 ms late.
    use charllm_sim::{FaultPlan, SimObserver};

    /// Records every flow retirement time.
    #[derive(Default)]
    struct Retirements(Vec<f64>);
    impl SimObserver for Retirements {
        fn flow_retire(&mut self, _flow: u32, t_s: f64) {
            self.0.push(t_s);
        }
    }

    let cluster = presets::single_gpu_per_node_cluster(2);
    let bytes = 1 << 20;
    let mut b = TraceBuilder::new(2);
    let id = b.collective(
        CollKey {
            site: "p2p",
            mb: 0,
            layer: 0,
            aux: 0,
            group_lead: 0,
        },
        CollectiveKind::SendRecv,
        bytes,
        vec![0, 1],
        ChunkingPolicy::Unchunked,
        true,
    );
    b.start(0, id);
    b.wait(1, id);
    let trace = b.build(TraceMeta {
        tokens_per_iteration: 1,
        ..Default::default()
    });
    let placement = Placement::identity(&cluster, 2).unwrap();
    let gpus = [GpuId(0), GpuId(1)];
    let plan = lower_collective(
        CollectiveKind::SendRecv,
        bytes,
        &gpus,
        &cluster,
        ChunkingPolicy::Unchunked,
    )
    .unwrap();
    assert_eq!(plan.flows.len(), 1);
    let route = plan.flows[0].route(&cluster).unwrap();
    let work = plan.flows[0].work_bytes(&cluster, &route);
    let bottleneck = *route
        .iter()
        .min_by(|a, b| {
            cluster
                .link(**a)
                .bw_gbps
                .total_cmp(&cluster.link(**b).bw_gbps)
        })
        .unwrap();
    let bw = cluster.link(bottleneck).bw_gbps * 1e9;
    let degrade_at = (work - 50.0) / bw;
    let faults =
        FaultPlan::none().link_degrade(bottleneck.index() as u32, degrade_at, 1e3, 25.0 / bw);
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let (r, retired) =
        Simulator::with_observer(&cluster, &placement, &trace, cfg, Retirements::default())
            .unwrap()
            .with_faults(&faults)
            .unwrap()
            .run_observed()
            .unwrap();
    assert!(
        (1.0..3.0).contains(&r.sim_time_s),
        "the degraded tail dominates the run: {}",
        r.sim_time_s
    );
    // 50 units left at the degrade; the 1-unit threshold is 49 units on.
    let crossed = degrade_at + 49.0 / 25.0;
    assert_eq!(retired.0.len(), 1);
    let late = retired.0[0] - crossed;
    assert!(
        (-1e-9..=cfg.control_period_s + 1e-9).contains(&late),
        "slow flow retired {late} s after crossing its completion threshold \
         (bound: one {} s control period)",
        cfg.control_period_s
    );
}

fn pinned_fail_stop() -> SimResult {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 4;
    cfg.warmup_iterations = 0;
    let plan =
        FaultPlan::none()
            .gpu_fail_stop(0, 0.5)
            .with_recovery(RecoveryPolicy::CheckpointRestart {
                checkpoint_interval_s: 10.0,
                restart_latency_s: 0.3,
            });
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let r = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .with_faults(&plan)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r.restarts, 1, "the outage must land inside the run");
    r
}

/// Two iterations of GPT-3 13B at tp 2, pp 2 and dp 8 on the 4-node
/// H200 cluster under `plan`: inter-node gradient rings cross PCIe.
fn four_node_run<O: charllm_sim::SimObserver>(plan: &FaultPlan, obs: O) -> (SimResult, O) {
    let cluster = presets::hgx_h200_cluster();
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
    let spec = ParallelismSpec::infer_dp(2, 2, 1, cluster.num_gpus(), false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace;
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    Simulator::with_observer(&cluster, &placement, &trace, cfg, obs)
        .unwrap()
        .with_faults(plan)
        .unwrap()
        .run_observed()
        .unwrap()
}

/// The 4-node run of [`four_node_run`] whose GPU 0 fail-stops at 0.5 s
/// under `recovery`, with a 30 s latency: long enough for every GPU to
/// settle at its idle clock and power, so most outage ticks start from the
/// idle fixed point. With `runaway`, GPU 1 (same node) runs 15 °C hot from
/// 0.2 s to 40 s, across the outage.
fn long_outage<O: charllm_sim::SimObserver>(
    recovery: RecoveryPolicy,
    runaway: bool,
    obs: O,
) -> (SimResult, O) {
    let mut plan = FaultPlan::none()
        .gpu_fail_stop(0, 0.5)
        .with_recovery(recovery);
    if runaway {
        plan = plan.thermal_runaway(1, 0.2, 39.8, 15.0);
    }
    let (r, obs) = four_node_run(&plan, obs);
    assert!(r.restarts >= 1, "the outage must land inside the run");
    assert!(r.fault_downtime_s > 29.9, "downtime {}", r.fault_downtime_s);
    (r, obs)
}

const LONG_RESTART: RecoveryPolicy = RecoveryPolicy::CheckpointRestart {
    checkpoint_interval_s: 10.0,
    restart_latency_s: 30.0,
};

fn pinned_long_restart() -> SimResult {
    long_outage(LONG_RESTART, false, charllm_sim::NoopObserver).0
}

fn pinned_long_spare_swap() -> SimResult {
    let recovery = RecoveryPolicy::SpareSwap {
        swap_latency_s: 30.0,
    };
    long_outage(recovery, false, charllm_sim::NoopObserver).0
}

fn pinned_long_elastic_regrow() -> SimResult {
    // The regrow lands inside the first outage, so a second 30 s stall
    // follows it at once, starting from the idle fixed point.
    let recovery = RecoveryPolicy::ElasticShrink {
        reconfig_latency_s: 30.0,
        regrow_after_s: 10.0,
    };
    long_outage(recovery, false, charllm_sim::NoopObserver).0
}

fn pinned_long_restart_runaway() -> SimResult {
    long_outage(LONG_RESTART, true, charllm_sim::NoopObserver).0
}

/// The 4-node run of [`four_node_run`] with node 0's NIC at 30% bandwidth
/// from 0.5 s to 1.5 s, inside a span where flows cross it the whole time,
/// so the recovery re-rates flows in flight; rank 5 computes 3× slower from
/// 0.2 s to 1.2 s.
fn pinned_degrade_recover() -> SimResult {
    let nic = presets::hgx_h200_cluster().nic(NodeId(0)).0;
    let plan = FaultPlan::none()
        .link_degrade(nic, 0.5, 1.0, 0.3)
        .straggler(5, 0.2, 1.0, 3.0);
    four_node_run(&plan, charllm_sim::NoopObserver).0
}

fn pinned_capped(cfg: SimConfig) -> SimResult {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let r = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(
        r.throttle_ratio.iter().any(|&t| t > 0.0),
        "the cap must bind"
    );
    r
}

fn pinned_gpu_power_cap() -> SimResult {
    let mut cfg = SimConfig::fast();
    cfg.gpu_power_cap_w = Some(450.0);
    pinned_capped(cfg)
}

fn pinned_node_power_cap() -> SimResult {
    let mut cfg = SimConfig::fast();
    cfg.node_power_cap = Some((0, 300.0));
    pinned_capped(cfg)
}

fn pinned_compact_folded() -> SimResult {
    let cluster = presets::hgx_h200_with_nodes(2);
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
    let spec = ParallelismSpec::infer_dp(8, 1, 1, 16, false).unwrap(); // dp = 2
    let partition = StagePartition::even(40, 1).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let folded =
        lower_train_folded(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    assert!(folded.multiplicity > 1, "the job must fold");
    let placement = Placement::identity(&cluster, spec.world()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.uniform_variability = true;
    let opts = FoldOptions {
        expand_telemetry: false,
        metrics: None,
    };
    let (r, _) = fold::run_folded(&cluster, &placement, &folded, &spec, cfg, None, &opts).unwrap();
    r
}

#[test]
fn serialized_results_are_pinned() {
    // FNV-1a and length of the serialized `SimResult` for paths the other
    // golden tests compare only engine against engine: outages with their
    // idle governor and outage samples (a short one, and 30 s ones whose
    // GPUs settle at their idle fixed point under each recovery policy and
    // under a thermal runaway), a link that degrades and recovers with
    // flows in flight next to a straggler, binding power caps, and a
    // compact folded run whose store samples only the representative GPUs.
    // A change to the control tick, the telemetry store or the re-rate of
    // recovered links must leave every byte.
    type Case = (&'static str, fn() -> SimResult, u64, usize);
    let cases: [Case; 9] = [
        (
            "fail_stop_checkpoint_restart",
            pinned_fail_stop,
            0x5497_e117_2f59_02ba,
            74_475,
        ),
        (
            "long_restart",
            pinned_long_restart,
            0xc32a_f84c_979d_3291,
            3_202_056,
        ),
        (
            "long_spare_swap",
            pinned_long_spare_swap,
            0xfc74_7a83_0ee2_8b64,
            3_164_478,
        ),
        (
            "long_elastic_regrow",
            pinned_long_elastic_regrow,
            0x6dbc_50c1_ea3a_3dab,
            5_518_998,
        ),
        (
            "long_restart_runaway",
            pinned_long_restart_runaway,
            0xe03a_188c_1ea5_a5f2,
            3_200_036,
        ),
        (
            "degrade_recover",
            pinned_degrade_recover,
            0xeeaf_f273_b61b_2cff,
            932_362,
        ),
        (
            "gpu_power_cap",
            pinned_gpu_power_cap,
            0xf12d_644a_e99c_3fbb,
            16_712,
        ),
        (
            "node_power_cap",
            pinned_node_power_cap,
            0xd89b_31bd_fb89_a47a,
            18_782,
        ),
        (
            "compact_folded",
            pinned_compact_folded,
            0x7ea9_4efc_dcfc_e565,
            134_840,
        ),
    ];
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (name, run, hash, len) in cases {
        let json = serde_json::to_string(&run()).unwrap();
        got.push((
            name,
            format!("{:#018x}", fnv1a(json.as_bytes())),
            json.len(),
        ));
        want.push((name, format!("{hash:#018x}"), len));
    }
    assert_eq!(got, want, "serialized results moved");
}

#[test]
fn an_outage_moves_no_traffic_byte() {
    // Flows hold their work through a fail-stop outage: the stalled run
    // must charge exactly the clean run's traffic, and once the first
    // sample inside the outage has taken the bytes moved before it, every
    // later one reads no PCIe traffic at all.
    let clean = four_node_run(&FaultPlan::none(), charllm_sim::NoopObserver).0;
    let stalled = long_outage(LONG_RESTART, false, charllm_sim::NoopObserver).0;
    assert_eq!(stalled.restarts, 1);
    assert_eq!(
        serde_json::to_string(&stalled.traffic).unwrap(),
        serde_json::to_string(&clean.traffic).unwrap(),
        "the outage moved traffic bytes"
    );
    let (start, end) = (0.5, 0.5 + stalled.fault_downtime_s);
    let store = &stalled.telemetry;
    let inside: Vec<usize> = (0..store.times().len())
        .filter(|&i| start < store.times()[i] && store.times()[i] < end)
        .collect();
    assert!(
        inside.len() > 500,
        "{} frames inside the outage",
        inside.len()
    );
    let pcie_before: f64 = (0..store.num_gpus())
        .map(|g| store.pcie(g).values().take(inside[0]).sum::<f64>())
        .sum();
    assert!(pcie_before > 0.0, "flows cross PCIe before the outage");
    for g in 0..store.num_gpus() {
        let pcie = store.pcie(g);
        for &i in &inside[1..] {
            assert_eq!(
                pcie.value(i),
                0.0,
                "GPU {g} reads PCIe traffic at {} s, inside the outage",
                store.times()[i]
            );
        }
    }
}

#[test]
fn an_outage_stores_about_one_plane_per_frame() {
    // Through the 30 s restart every GPU's power, clock, util and PCIe
    // repeat bit for bit from one frame to the next and only the
    // temperature moves, so the store keeps about one field plane per
    // outage frame beside at most five per busy frame. An engine change
    // that makes idle samples differ bitwise (a `-0.0` util, say) fails
    // here instead of silently storing every outage frame whole.
    let r = long_outage(LONG_RESTART, false, charllm_sim::NoopObserver).0;
    let store = &r.telemetry;
    // The stall itself; the downtime also counts the redone work after it.
    let (start, end) = (0.5, 30.5);
    let inside: Vec<usize> = (0..store.times().len())
        .filter(|&i| start < store.times()[i] && store.times()[i] < end)
        .collect();
    let (outage, busy) = (inside.len(), store.times().len() - inside.len());
    assert!(outage > 500, "{outage} frames inside the outage");
    // The first two outage frames still see the clock step down and the
    // window's busy tail.
    let planes = store.stored_planes();
    assert!(
        (outage..=outage + 5 * busy + 8).contains(&planes),
        "{planes} planes for {busy} busy and {outage} outage frames"
    );
    for g in 0..store.num_gpus() {
        for (name, series) in [
            ("power", store.power(g)),
            ("freq", store.freq(g)),
            ("util", store.util(g)),
            ("pcie", store.pcie(g)),
        ] {
            for &i in &inside[2..] {
                assert_eq!(
                    series.value(i).to_bits(),
                    series.value(i - 1).to_bits(),
                    "GPU {g} {name} moves at {} s, inside the outage",
                    store.times()[i]
                );
            }
        }
    }
}

#[test]
fn long_outage_power_ticks_are_pinned() {
    // FNV-1a over every power tick the observer sees in the 30 s restart:
    // gpu, time, power and period bits and the measuring flag, in call
    // order. Outage ticks must reach the observer exactly as a full control
    // tick would send them.
    let (_, rec) = long_outage(LONG_RESTART, false, SpanRecorder::new());
    let ticks = rec.power_ticks();
    let mut bytes = Vec::with_capacity(ticks.len() * 29);
    for p in ticks {
        bytes.extend_from_slice(&p.gpu.to_le_bytes());
        for x in [p.t_s, p.power_w, p.period_s] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        bytes.push(u8::from(p.measuring));
    }
    assert_eq!(
        (format!("{:#018x}", fnv1a(&bytes)), ticks.len()),
        ("0xf12525c9d532334e".to_string(), 248_544),
        "outage power ticks moved"
    );
}
