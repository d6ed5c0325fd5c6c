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

use charllm_hw::{presets, Cluster, GpuId, GpuModel, NodeLayout};
use charllm_models::{presets as models, TrainJob};
use charllm_net::{lower_collective, ChunkingPolicy, CollectiveKind};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{SimConfig, Simulator};
use charllm_trace::builder::{CollKey, TraceBuilder};
use charllm_trace::lower::{lower_train, DeviceHints};
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

/// Run both engines on the same inputs and return their serialized results.
fn both_engines_json(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    cfg: SimConfig,
) -> (String, String) {
    let placement = Placement::identity(cluster, trace.world()).unwrap();
    let new = Simulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let reference = ReferenceSimulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    (
        serde_json::to_string(&new).unwrap(),
        serde_json::to_string(&reference).unwrap(),
    )
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
    let (new, reference) = both_engines_json(&cluster, &trace, cfg);
    assert_eq!(
        new, reference,
        "event-driven engine diverged from reference"
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
    let (new, reference) = both_engines_json(&cluster, &trace, cfg);
    assert_eq!(
        new, reference,
        "event-driven engine diverged from reference on MoE/EP workload"
    );
}

#[test]
fn golden_equality_with_forced_heap_scheduler() {
    // `sched_heap_threshold: 0` pins the event-driven engine to the
    // completion heap for every event (the default keeps small worlds on
    // the linear scan). The heap must reproduce the reference bit-for-bit:
    // conservative lower-bound keys, epoch invalidation, and the
    // re-tighten-on-pop path all under test, with thermal feedback on so
    // frequency steps force compute re-keys mid-run.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    cfg.sched_heap_threshold = 0;
    let (new, reference) = both_engines_json(&cluster, &trace, cfg);
    assert_eq!(new, reference, "heap scheduler diverged from reference");
}

#[test]
fn scheduler_modes_agree_across_crossings() {
    // A mid-range threshold makes the live-entity count cross it both ways
    // during a pipelined step, exercising heap↔scan transitions (including
    // the link-membership rebuild on each upward crossing). Forced-scan,
    // forced-heap, and the crossing run must all serialize identically.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let run = |threshold: usize| {
        let mut cfg = SimConfig::fast();
        cfg.iterations = 2;
        cfg.sched_heap_threshold = threshold;
        let r = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        serde_json::to_string(&r).unwrap()
    };
    let scan = run(usize::MAX);
    let crossing = run(6);
    let heap = run(0);
    assert_eq!(scan, crossing, "mode crossings perturbed results");
    assert_eq!(scan, heap, "forced heap diverged from forced scan");
}

#[test]
fn golden_equality_with_thermal_feedback_disabled() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let (new, reference) = both_engines_json(&cluster, &trace, cfg);
    assert_eq!(new, reference);
}

#[test]
fn golden_equality_across_nic_routes() {
    // One GPU per node: every collective crosses PCIe + NIC links, so the
    // charge lists and store-and-forward work factors differ from HGX.
    let spread = presets::single_gpu_per_node_cluster(8);
    let trace = gpt3_trace(&one_node_cluster(), 8);
    let mut cfg = SimConfig::fast();
    cfg.thermal_feedback = false;
    let (new, reference) = both_engines_json(&spread, &trace, cfg);
    assert_eq!(new, reference);
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
    let (new, reference) = both_engines_json(&cluster, &trace, cfg);
    assert_eq!(new, reference);
}

#[test]
fn retire_site_removal_is_exact_at_512_gpus_under_faults() {
    // 512-GPU unfolded run (tp4 pp8 dp16) with a fault plan that degrades
    // a hot link and slows a straggler rank, so dirty-flow re-rates and
    // compute re-keys churn the calendar. A completing entity's entry
    // leaves the calendar only at its retire site in `advance`; this pins
    // that the path fires and that the forced-calendar run serializes
    // identically to the default threshold's scan/calendar crossings.
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
    let run = |threshold: usize| {
        let mut cfg = SimConfig::fast();
        cfg.iterations = 1;
        cfg.warmup_iterations = 0;
        cfg.sched_heap_threshold = threshold;
        let (r, stats) = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .with_faults(&plan)
            .unwrap()
            .run_stats()
            .unwrap();
        (serde_json::to_string(&r).unwrap(), stats)
    };
    let (forced, stats) = run(0);
    let (adaptive, _) = run(SimConfig::default().sched_heap_threshold);
    assert!(
        stats.cal_exact_removals > 0,
        "completing entries must leave the calendar at their retire site"
    );
    assert!(
        stats.arena_slot_reuses > 0,
        "steady-state launches should recycle arena slots"
    );
    assert_eq!(
        forced, adaptive,
        "forced calendar diverged from the default scheduler threshold"
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
    assert_eq!(run(), run(), "same seed + config must be deterministic");
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

    assert_eq!(serde_json::to_string(&first).unwrap(), baseline);
    assert_eq!(serde_json::to_string(&second).unwrap(), baseline);
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
    // Default threshold (scan at this size) and the forced calendar, whose
    // completion tests visit drained candidates only.
    for threshold in [cfg.sched_heap_threshold, 0] {
        let cfg = SimConfig {
            sched_heap_threshold: threshold,
            ..cfg
        };
        let new = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_same_traffic_and_bytes(&cluster, &new, &reference);
    }
}

fn assert_same_traffic_and_bytes(
    cluster: &Cluster,
    new: &charllm_sim::SimResult,
    reference: &charllm_sim::SimResult,
) {
    // The case must exercise what it claims: PCIe traffic in the matrix
    // and in the sampled per-window series, over many sample windows.
    let gpus = cluster.num_gpus();
    assert!((0..gpus).any(|g| new.traffic.pcie(g) > 0.0));
    assert!((0..gpus).any(|g| new.telemetry.pcie(g).values().iter().any(|&v| v > 0.0)));
    assert!(new.telemetry.pcie(0).len() > 10, "too few sample windows");
    for g in 0..gpus {
        let (a, b) = (new.telemetry.pcie(g), reference.telemetry.pcie(g));
        assert_eq!(a.len(), b.len(), "gpu {g}: sample count");
        for ((ta, va), (tb, vb)) in a.iter().zip(b.iter()) {
            assert_eq!(ta.to_bits(), tb.to_bits(), "gpu {g}: sample time");
            assert_eq!(va.to_bits(), vb.to_bits(), "gpu {g}: pcie_gbps at t={ta}");
        }
        for (x, y) in [
            (new.traffic.pcie(g), reference.traffic.pcie(g)),
            (new.traffic.fabric(g), reference.traffic.fabric(g)),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "gpu {g}: traffic matrix");
        }
    }
    assert_eq!(
        serde_json::to_string(new).unwrap(),
        serde_json::to_string(reference).unwrap(),
        "event-driven engine diverged from reference on the inter-node case"
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
fn slow_flows_retire_on_the_same_event_in_every_scheduler_mode() {
    // An inter-node send runs at full rate until ~50 work units are left,
    // when its bottleneck link degrades to 25 units/s: the last unit then
    // takes 40 ms, eight control periods, so control ticks land after the
    // flow crossed the 1-unit completion threshold but well before its
    // work reaches zero. The calendar must hand it to `advance` on the
    // first such tick, exactly as the scan does.
    use charllm_sim::FaultPlan;

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
    let faults = FaultPlan::none().link_degrade(
        bottleneck.index() as u32,
        (work - 50.0) / bw,
        1e3,
        25.0 / bw,
    );
    let run = |threshold: usize| {
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false;
        cfg.sched_heap_threshold = threshold;
        let r = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .with_faults(&faults)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            (1.0..3.0).contains(&r.sim_time_s),
            "the degraded tail dominates the run: {}",
            r.sim_time_s
        );
        serde_json::to_string(&r).unwrap()
    };
    assert_eq!(
        run(usize::MAX),
        run(0),
        "calendar retired the slow flow late"
    );
}
