//! Fault & resilience scenario engine: end-to-end behavior.
//!
//! Pins the three load-bearing properties of the fault engine:
//!
//! 1. **No-fault identity** — attaching [`FaultPlan::none`] leaves results
//!    byte-identical to an engine without fault support (and therefore to
//!    the reference engine, which has none).
//! 2. **Physics under degradation** — a degraded link slows the run but
//!    still moves every payload byte (conservation survives the bandwidth
//!    override), and each fault kind perturbs exactly its own channel.
//! 3. **Recovery cost model** — fail-stop + checkpoint/restart produces
//!    goodput strictly below fault-free throughput, nonzero wasted energy,
//!    and restart/downtime accounting, with MTBF sweeps served by the
//!    shared memoization cache on repeated points.

use std::sync::Arc;

use charllm::prelude::*;
use charllm::sweep::Sweep;
use charllm_hw::{Cluster, GpuId, GpuModel, NodeLayout};
use charllm_models::{presets as models, TrainJob as Job};
use charllm_net::{ChunkingPolicy, CollectiveKind};
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{FaultPlan, RecoveryPolicy, SimError, SimResult, Simulator};
use charllm_trace::builder::{CollKey, TraceBuilder};
use charllm_trace::lower::{lower_train, DeviceHints};
use charllm_trace::trace::TraceMeta;
use charllm_trace::ExecutionTrace;

fn one_node_cluster() -> Cluster {
    Cluster::new("8xH200", GpuModel::H200.spec(), NodeLayout::hgx(), 1).unwrap()
}

fn gpt3_trace(cluster: &Cluster, global_batch: usize) -> ExecutionTrace {
    let job = Job::pretrain(models::gpt3_13b()).with_global_batch(global_batch);
    let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
    let partition = StagePartition::even(40, 2).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        .unwrap()
        .trace
}

fn run_with(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    cfg: SimConfig,
    plan: &FaultPlan,
) -> SimResult {
    let placement = Placement::identity(cluster, trace.world()).unwrap();
    Simulator::new(cluster, &placement, trace, cfg)
        .unwrap()
        .with_faults(plan)
        .unwrap()
        .run()
        .unwrap()
}

#[test]
fn empty_fault_plan_is_byte_identical_three_ways() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let plain = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let with_none = run_with(&cluster, &trace, cfg, &FaultPlan::none());
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plain = serde_json::to_string(&plain).unwrap();
    let with_none = serde_json::to_string(&with_none).unwrap();
    let reference = serde_json::to_string(&reference).unwrap();
    assert_eq!(plain, with_none, "FaultPlan::none() perturbed the engine");
    assert_eq!(
        plain, reference,
        "fault threading perturbed the reference parity"
    );
}

#[test]
fn degraded_link_conserves_payload_and_slows_the_run() {
    // The 2-rank AllReduce from the golden suite, re-run with every link at
    // a quarter of its bandwidth for the whole run: total fabric traffic
    // must still equal exactly 2 × the lowered payload (degradation stalls
    // bytes, never drops them) while the clock runs measurably longer.
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
    let pristine = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let mut plan = FaultPlan::none();
    for link in 0..cluster.num_links() {
        plan = plan.link_degrade(link as u32, 0.0, 1e6, 0.25);
    }
    let degraded = run_with(&cluster, &trace, cfg, &plan);
    let lowered = charllm_net::lower_collective(
        CollectiveKind::AllReduce,
        bytes,
        &[GpuId(0), GpuId(1)],
        &cluster,
        ChunkingPolicy::nccl_default(),
    )
    .unwrap();
    let payload: f64 = lowered
        .flows
        .iter()
        .filter(|f| {
            let route = f.route(&cluster).unwrap();
            !route.is_empty() && f.work_bytes(&cluster, &route) > 0.0
        })
        .map(|f| f.bytes as f64)
        .sum();
    let measured: f64 = (0..2).map(|g| degraded.traffic.fabric(g)).sum();
    let expected = 2.0 * payload;
    let rel = (measured - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "degraded fabric traffic {measured} vs expected {expected} (rel err {rel:e})"
    );
    assert!(
        degraded.sim_time_s > pristine.sim_time_s * 1.5,
        "quarter bandwidth should stretch the run: {} vs {}",
        degraded.sim_time_s,
        pristine.sim_time_s
    );
}

#[test]
fn fail_stop_with_checkpoint_restart_cuts_goodput() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 4;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    assert!(
        baseline.sim_time_s > 0.5,
        "fault time below must land inside the run"
    );
    let plan =
        FaultPlan::none()
            .gpu_fail_stop(0, 0.5)
            .with_recovery(RecoveryPolicy::CheckpointRestart {
                checkpoint_interval_s: 10.0,
                restart_latency_s: 0.3,
            });
    let faulted = run_with(&cluster, &trace, cfg, &plan);
    assert_eq!(faulted.restarts, 1);
    assert!(
        faulted.fault_downtime_s > 0.7,
        "restart latency + full rollback expected, got {}",
        faulted.fault_downtime_s
    );
    assert!(
        faulted.energy_wasted_j > 0.0,
        "an outage spanning many control periods must waste energy"
    );
    assert!(faulted.energy_wasted_per_failure_j() > 0.0);
    assert!(
        faulted.goodput_tokens_per_s < faulted.tokens_per_s,
        "goodput {} must sit strictly below the productive rate {}",
        faulted.goodput_tokens_per_s,
        faulted.tokens_per_s
    );
    assert!(
        faulted.goodput_tokens_per_s < baseline.tokens_per_s,
        "goodput {} must sit strictly below fault-free throughput {}",
        faulted.goodput_tokens_per_s,
        baseline.tokens_per_s
    );
    // The baseline reports fault-free identities.
    assert_eq!(baseline.restarts, 0);
    assert_eq!(baseline.energy_wasted_j, 0.0);
    assert_eq!(baseline.goodput_tokens_per_s, baseline.tokens_per_s);
}

#[test]
fn straggler_rank_stretches_step_time() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plan = FaultPlan::none().straggler(0, 0.0, 1e6, 4.0);
    let slowed = run_with(&cluster, &trace, cfg, &plan);
    assert!(
        slowed.step_time_s > baseline.step_time_s * 1.2,
        "a 4x straggler must stretch the step: {} vs {}",
        slowed.step_time_s,
        baseline.step_time_s
    );
}

#[test]
fn thermal_runaway_raises_target_gpu_throttle() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 0;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let baseline = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run()
        .unwrap();
    let plan = FaultPlan::none().thermal_runaway(0, 0.0, 1e6, 40.0);
    let heated = run_with(&cluster, &trace, cfg, &plan);
    // Thermal mass smooths short runs, so the guaranteed signal is the
    // temperature channel itself; throttle residency may only deepen on
    // longer horizons and must never recede.
    assert!(
        heated.telemetry.temp(0).peak() > baseline.telemetry.temp(0).peak() + 1.0,
        "a +40C inlet must heat the target GPU: {} vs {}",
        heated.telemetry.temp(0).peak(),
        baseline.telemetry.temp(0).peak()
    );
    assert!(
        (heated.telemetry.temp(1).peak() - baseline.telemetry.temp(1).peak()).abs() < 1.0,
        "the runaway targets one GPU, not its neighbors"
    );
    assert!(heated.thermal_throttle_ratio[0] >= baseline.thermal_throttle_ratio[0]);
}

#[test]
fn invalid_fault_plans_are_rejected() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    for plan in [
        FaultPlan::none().gpu_fail_stop(99, 1.0),
        FaultPlan::none().link_degrade(0, 1.0, 1.0, 0.0),
        FaultPlan::none().straggler(64, 0.0, 1.0, 2.0),
        FaultPlan::none().gpu_fail_stop(0, f64::NAN),
    ] {
        let err = Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
            .unwrap()
            .with_faults(&plan)
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidFaultPlan(_)),
            "expected InvalidFaultPlan, got {err}"
        );
    }
}

#[test]
fn invalid_periods_are_rejected_by_both_engines_and_sweeps() {
    // A zero control period used to hang `run`, a NaN one ran without a
    // single control tick, and a sample period <= 0 divided every util and
    // PCIe sample by a zero or negative window.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let bad = [
        (0.0, 0.05),
        (f64::NAN, 0.05),
        (f64::INFINITY, 0.05),
        (-0.005, 0.05),
        (0.005, 0.0),
        (0.005, -0.05),
        (0.005, f64::NAN),
    ];
    for (control, sample) in bad {
        let mut cfg = SimConfig::fast();
        cfg.control_period_s = control;
        cfg.sample_period_s = sample;
        let what = format!("control {control}, sample {sample}");
        assert!(
            matches!(
                Simulator::new(&cluster, &placement, &trace, cfg),
                Err(SimError::InvalidConfig(_))
            ),
            "engine accepted {what}"
        );
        assert!(
            matches!(
                ReferenceSimulator::new(&cluster, &placement, &trace, cfg),
                Err(SimError::InvalidConfig(_))
            ),
            "reference accepted {what}"
        );
    }
    let cluster = Arc::new(single_hgx_node());
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let spec = ParallelismSpec::parse("TP2-PP2", cluster.num_gpus()).unwrap();
    let mut cfg = SimConfig::fast();
    cfg.control_period_s = 0.0;
    let outcomes = Sweep::new(cluster, job, vec![spec])
        .with_sim_config(cfg)
        .strict()
        .run_outcomes();
    assert_eq!(outcomes.len(), 1);
    assert!(
        matches!(&outcomes[0], SweepOutcome::Failed { error, .. }
            if error.to_string().contains("control_period_s")),
        "a strict sweep must fail the point on its control period"
    );
}

#[test]
fn zero_iterations_are_rejected_by_both_engines_and_sweeps() {
    // A run of zero iterations used to index an empty per-iteration table
    // at the first iteration boundary, and the panic took a parallel sweep
    // down with it.
    // The other rows ran without error before both engines checked them:
    // a NaN time cap disabled the cap, a power cap of zero, negative or
    // NaN watts pinned clocks low, a cap on a node outside the cluster was
    // ignored, and a zero, negative or non-finite overlap factor divided
    // compute rates into nonsense.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let base = SimConfig::fast();
    let with = |set: fn(&mut SimConfig)| {
        let mut cfg = base;
        set(&mut cfg);
        cfg
    };
    let table = [
        ("iterations 0", with(|c| c.iterations = 0)),
        ("time cap NaN", with(|c| c.max_sim_time_s = f64::NAN)),
        ("time cap 0", with(|c| c.max_sim_time_s = 0.0)),
        ("time cap -1", with(|c| c.max_sim_time_s = -1.0)),
        ("gpu cap 0", with(|c| c.gpu_power_cap_w = Some(0.0))),
        ("gpu cap -5", with(|c| c.gpu_power_cap_w = Some(-5.0))),
        ("gpu cap NaN", with(|c| c.gpu_power_cap_w = Some(f64::NAN))),
        (
            "node cap NaN",
            with(|c| c.node_power_cap = Some((0, f64::NAN))),
        ),
        ("node cap 0", with(|c| c.node_power_cap = Some((0, 0.0)))),
        (
            "node 9999",
            with(|c| c.node_power_cap = Some((9999, 300.0))),
        ),
        ("overlap 0", with(|c| c.overlap_slowdown = 0.0)),
        ("overlap -1", with(|c| c.overlap_slowdown = -1.0)),
        ("overlap NaN", with(|c| c.overlap_slowdown = f64::NAN)),
        ("overlap inf", with(|c| c.overlap_slowdown = f64::INFINITY)),
    ];
    for (case, cfg) in table {
        assert!(
            matches!(
                Simulator::new(&cluster, &placement, &trace, cfg),
                Err(SimError::InvalidConfig(_))
            ),
            "{case}: engine"
        );
        assert!(
            matches!(
                ReferenceSimulator::new(&cluster, &placement, &trace, cfg),
                Err(SimError::InvalidConfig(_))
            ),
            "{case}: reference"
        );
    }
    // +∞ means "no cap" and stays legal.
    let uncapped = with(|c| c.max_sim_time_s = f64::INFINITY);
    assert!(Simulator::new(&cluster, &placement, &trace, uncapped).is_ok());
    assert!(ReferenceSimulator::new(&cluster, &placement, &trace, uncapped).is_ok());
    let cfg = table[0].1;
    let cluster = Arc::new(single_hgx_node());
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let specs = ["TP2-PP2", "TP4-PP2"]
        .map(|s| ParallelismSpec::parse(s, cluster.num_gpus()).unwrap())
        .to_vec();
    let sweep = Sweep::new(cluster, job, specs)
        .with_sim_config(cfg)
        .workers(2);
    let outcomes = sweep.run_outcomes();
    assert_eq!(outcomes.len(), 2);
    assert!(
        outcomes.iter().all(SweepOutcome::is_skipped),
        "a default sweep must skip the points: {outcomes:?}"
    );
    let outcomes = sweep.strict().run_outcomes();
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, SweepOutcome::Failed { error, .. }
            if error.to_string().contains("iterations"))),
        "a strict sweep must fail the points on their iteration count: {outcomes:?}"
    );
}

#[test]
fn a_small_time_cap_times_out_both_engines() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let cfg = SimConfig {
        max_sim_time_s: 1e-3,
        ..SimConfig::fast()
    };
    let engine = Simulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run();
    assert!(
        matches!(engine, Err(SimError::Timeout { cap_s }) if cap_s == 1e-3),
        "engine: {:?}",
        engine.map(|r| r.sim_time_s)
    );
    let reference = ReferenceSimulator::new(&cluster, &placement, &trace, cfg)
        .unwrap()
        .run();
    assert!(
        matches!(reference, Err(SimError::Timeout { cap_s }) if cap_s == 1e-3),
        "reference: {:?}",
        reference.map(|r| r.sim_time_s)
    );
}

#[test]
fn mtbf_sweep_hits_shared_cache_on_repeated_points() {
    let cluster = Arc::new(single_hgx_node());
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let spec = ParallelismSpec::parse("TP2-PP2", cluster.num_gpus()).unwrap();
    let cache = Arc::new(SimCache::new());
    let mtbf = |mtbf_s: f64| {
        FaultPlan::periodic_fail_stops(mtbf_s, cluster.num_gpus() as u32, 10.0).with_recovery(
            RecoveryPolicy::CheckpointRestart {
                checkpoint_interval_s: 1.0,
                restart_latency_s: 0.2,
            },
        )
    };
    let plan = mtbf(2.0);
    let sweep = |p: FaultPlan| {
        Sweep::new(Arc::clone(&cluster), job.clone(), vec![spec])
            .with_sim_config(SimConfig::fast())
            .with_cache(Arc::clone(&cache))
            .with_faults(p)
            .strict()
            .run()
            .unwrap()
    };
    let first = sweep(plan.clone());
    let stats = first[0].cache.unwrap();
    assert_eq!(stats.lowered_misses, 1, "cold cache lowers the trace");
    assert!(first[0].sim.restarts > 0, "a fault fires inside the run");
    // The identical MTBF point again (a repeated sweep point): fully served.
    let second = sweep(plan);
    let stats = second[0].cache.unwrap();
    assert_eq!(stats.lowered_hits, 1, "same fault plan must hit");
    assert_eq!(stats.plan_hits, 1);
    assert_eq!(
        serde_json::to_string(&first[0].sim).unwrap(),
        serde_json::to_string(&second[0].sim).unwrap(),
        "cache reuse must not change faulted results"
    );
    // A different MTBF perturbs neither the trace nor the plans: it hits
    // both, and its result is byte-equal to a cold uncached run of it.
    let other = mtbf(1.0);
    let third = sweep(other.clone());
    let stats = third[0].cache.unwrap();
    assert_eq!(
        (stats.lowered_hits, stats.plan_hits),
        (1, 1),
        "a different fault plan shares the trace and the plan set"
    );
    let cold = Experiment::builder()
        .cluster(Arc::clone(&cluster))
        .job(job.clone())
        .spec(spec)
        .sim_config(SimConfig::fast())
        .faults(other)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert!(cold.cache.is_none(), "the cold run is uncached");
    assert!(
        third[0].sim.restarts > first[0].sim.restarts,
        "the shorter MTBF must restart more: {} vs {}",
        third[0].sim.restarts,
        first[0].sim.restarts
    );
    assert_eq!(
        serde_json::to_string(&third[0].sim).unwrap(),
        serde_json::to_string(&cold.sim).unwrap(),
        "a cached trace and plan set must not change a new plan's result"
    );
}
