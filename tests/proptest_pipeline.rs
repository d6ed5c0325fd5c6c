//! Property-based integration tests: random valid configurations must
//! lower to structurally valid traces and simulate to completion (no
//! deadlocks, conserved tokens, sane telemetry), the event-driven engine
//! must serialize the same bytes as the reference engine on them, and a
//! random link-degrade window must leave every cached flow rate exact.

use proptest::prelude::*;

use charllm_hw::{Cluster, GpuId, GpuModel, NodeId, NodeLayout};
use charllm_models::{MoeConfig, TrainJob, TransformerArch};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{FaultPlan, SimConfig, Simulator};
use charllm_trace::{lower_train, DeviceHints, ExecutionTrace};

fn tiny_arch(moe: bool) -> TransformerArch {
    TransformerArch {
        name: "tiny".to_string(),
        num_layers: 8,
        hidden: 256,
        num_heads: 4,
        num_kv_heads: 4,
        ffn_hidden: 1024,
        vocab: 1024,
        gated_mlp: false,
        tied_embeddings: true,
        moe: moe.then_some(MoeConfig {
            num_experts: 4,
            top_k: 2,
        }),
        default_seq_len: 128,
    }
}

fn arb_config() -> impl Strategy<Value = (usize, usize, usize, usize, bool, bool, bool, bool)> {
    // (tp, pp, ep_idx, mb, moe, recompute, cc, chunked)
    (
        prop_oneof![Just(1usize), Just(2), Just(4)],
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        0usize..3,
        prop_oneof![Just(1usize), Just(2)],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
}

fn two_node_cluster() -> Cluster {
    Cluster::new("2xHGX", GpuModel::H200.spec(), NodeLayout::hgx(), 2).unwrap()
}

/// Lower the tiny arch at `tp·pp·ep` on [`two_node_cluster`]'s 16 GPUs
/// under `schedule`, or `None` when the draw is not a valid configuration.
fn lower_tiny(
    cluster: &Cluster,
    (tp, pp, ep_idx): (usize, usize, usize),
    moe: bool,
    schedule: PipelineSchedule,
) -> Option<ExecutionTrace> {
    let arch = tiny_arch(moe);
    let ep = if moe { [1usize, 2, 4][ep_idx] } else { 1 };
    let world = cluster.num_gpus();
    if !world.is_multiple_of(tp * pp * ep) || !arch.num_layers.is_multiple_of(pp) {
        return None;
    }
    let spec = ParallelismSpec::infer_dp(tp, pp, ep, world, false).ok()?;
    let job = TrainJob::pretrain(arch).with_global_batch(spec.dp * pp * 2);
    job.validate_for_dp(spec.dp).ok()?;
    let partition = StagePartition::even(job.arch.num_layers, pp).ok()?;
    let hints = DeviceHints::for_spec(cluster.gpu());
    let lowered = lower_train(&job, &spec, schedule, &partition, &hints).ok()?;
    assert!(lowered.trace.validate().is_empty());
    Some(lowered.trace)
}

/// A link a tiny run's flows are likely to cross: a node's NIC, a GPU's
/// fabric port or PCIe link, or any link of the cluster.
fn pick_link(cluster: &Cluster, kind: usize, pick: usize) -> u32 {
    let gpu = GpuId((pick % cluster.num_gpus()) as u32);
    let link = match kind {
        0 => cluster.nic(NodeId((pick % cluster.num_nodes()) as u32)),
        1 => cluster.fabric_port(gpu),
        2 => cluster.pcie(gpu),
        _ => return (pick % cluster.num_links()) as u32,
    };
    link.index() as u32
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_valid_configs_simulate_to_completion(
        (tp, pp, ep_idx, mb, moe, recompute, cc, chunked) in arb_config(),
    ) {
        let arch = tiny_arch(moe);
        let ep = if moe { [1usize, 2, 4][ep_idx] } else { 1 };
        let world = 16usize;
        let mp = tp * pp * ep;
        prop_assume!(world.is_multiple_of(mp));
        prop_assume!(arch.num_layers.is_multiple_of(pp));
        let spec = ParallelismSpec::infer_dp(tp, pp, ep, world, false).unwrap();

        let mut job = TrainJob::pretrain(arch)
            .with_global_batch(16)
            .with_microbatch(mb)
            .with_recompute(recompute)
            .with_cc_overlap(cc);
        job.optim.chunked_p2p = chunked;
        prop_assume!(job.validate_for_dp(spec.dp).is_ok());

        let cluster = Cluster::new("2xHGX", GpuModel::H200.spec(), NodeLayout::hgx(), 2).unwrap();
        let partition = StagePartition::even(job.arch.num_layers, pp).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        prop_assert!(lowered.trace.validate().is_empty());

        let placement = Placement::identity(&cluster, spec.world()).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.prewarm = false; // keep tiny runs fast
        let result = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run()
            .expect("no deadlock for any valid configuration");
        prop_assert!(result.step_time_s > 0.0);
        prop_assert!(result.tokens_per_s > 0.0);
        // Conservation: step time x throughput = tokens per step.
        let tokens = job.tokens_per_step() as f64;
        prop_assert!((result.tokens_per_s * result.step_time_s - tokens).abs() / tokens < 1e-6);
        // Every rank did some compute.
        for k in &result.kernel_time {
            prop_assert!(k.compute_total() > 0.0);
        }
    }

    #[test]
    fn interleaved_schedules_also_complete(
        v in 2usize..=4,
        tp in prop_oneof![Just(1usize), Just(2)],
    ) {
        let arch = tiny_arch(false);
        let pp = 4usize;
        let world = 16usize;
        let spec = ParallelismSpec::infer_dp(tp, pp, 1, world, false).unwrap();
        // 8 layers / 4 stages = 2 per stage; v must divide 2.
        prop_assume!(2 % v == 0 || v == 2);
        let job = TrainJob::pretrain(arch).with_global_batch(spec.dp * pp * 2);
        prop_assume!(job.validate_for_dp(spec.dp).is_ok());
        prop_assume!(job.num_microbatches(spec.dp).is_multiple_of(pp));

        let cluster = Cluster::new("2xHGX", GpuModel::H200.spec(), NodeLayout::hgx(), 2).unwrap();
        let partition = StagePartition::even(8, pp).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered = lower_train(
            &job,
            &spec,
            PipelineSchedule::Interleaved(v),
            &partition,
            &hints,
        );
        prop_assume!(lowered.is_ok());
        let lowered = lowered.unwrap();
        let placement = Placement::identity(&cluster, spec.world()).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.prewarm = false;
        let result = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run()
            .expect("interleaved schedule must not deadlock");
        prop_assert!(result.tokens_per_s > 0.0);
    }

    // The executable-spec contract on generated workloads: whatever the
    // parallelism, schedule, MoE, thermal feedback and power cap, the
    // event-driven engine's serialized result is the reference engine's,
    // byte for byte. In debug builds the engine also audits every cached
    // flow rate against a fresh one at each event (`debug_check_dt`).
    #[test]
    fn engine_matches_reference_on_random_configs(
        shape in (
            prop_oneof![Just(1usize), Just(2), Just(4)],
            prop_oneof![Just(1usize), Just(2), Just(4)],
            0usize..3,
        ),
        moe in any::<bool>(),
        interleaved in any::<bool>(),
        thermal in any::<bool>(),
        cap in (any::<bool>(), 250.0f64..650.0).prop_map(|(on, w)| on.then_some(w)),
        sample_period in prop_oneof![Just(0.01f64), Just(0.02), Just(0.05), Just(0.1)],
    ) {
        let cluster = two_node_cluster();
        let schedule = if interleaved {
            PipelineSchedule::Interleaved(2)
        } else {
            PipelineSchedule::OneFOneB
        };
        let trace = lower_tiny(&cluster, shape, moe, schedule);
        prop_assume!(trace.is_some());
        let trace = trace.unwrap();
        let placement = Placement::identity(&cluster, trace.world()).unwrap();
        // Prewarmed GPUs start hot enough for a cap or the thermal governor
        // to bind within a few control ticks.
        let mut cfg = SimConfig::fast();
        cfg.iterations = 3;
        cfg.warmup_iterations = 1;
        cfg.thermal_feedback = thermal;
        cfg.gpu_power_cap_w = cap;
        // Windows from two control ticks up put sample boundaries on and
        // near the instants where flow rates change.
        cfg.sample_period_s = sample_period;
        let engine = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        prop_assert_eq!(
            serde_json::to_string(&engine).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "engine diverged from reference at {:?} moe={} {:?} thermal={} cap={:?} sample={}",
            shape, moe, schedule, thermal, cap, sample_period
        );
    }

    // A link-degrade window changes a link's health, not its load: the
    // engine must re-rate every flow on it at both edges of the window. The
    // reference engine takes no fault plan, so this property leans on the
    // debug build's `debug_check_dt`, which asserts each cached flow rate
    // equals a fresh one at every event of these small runs.
    #[test]
    fn link_degrade_windows_keep_cached_rates_exact(
        shape in (
            prop_oneof![Just(1usize), Just(2), Just(4)],
            prop_oneof![Just(1usize), Just(2), Just(4)],
            0usize..3,
        ),
        moe in any::<bool>(),
        link in (0usize..4, 0usize..1024),
        window in (0.0f64..0.9, 0.01f64..0.6),
        factor in 0.05f64..1.0,
    ) {
        let cluster = two_node_cluster();
        let trace = lower_tiny(&cluster, shape, moe, PipelineSchedule::OneFOneB);
        prop_assume!(trace.is_some());
        let trace = trace.unwrap();
        let placement = Placement::identity(&cluster, trace.world()).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.prewarm = false;
        let run = |plan: &FaultPlan| {
            Simulator::new(&cluster, &placement, &trace, cfg)
                .unwrap()
                .with_faults(plan)
                .unwrap()
                .run()
                .unwrap()
        };
        // Place the window inside the clean run's span.
        let clean = run(&FaultPlan::none()).sim_time_s;
        let link = pick_link(&cluster, link.0, link.1);
        let plan = FaultPlan::none().link_degrade(
            link,
            window.0 * clean,
            window.1 * clean,
            factor,
        );
        let degraded = run(&plan);
        prop_assert!(degraded.tokens_per_s > 0.0);
        prop_assert!(degraded.sim_time_s.is_finite() && degraded.sim_time_s > 0.0);
    }
}
