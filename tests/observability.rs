//! Integration suite for the observability layer.
//!
//! Pins the contracts ISSUE 3 promises: span streams are identical between
//! the event-driven `Simulator` and the scan-based `ReferenceSimulator` on
//! the golden workloads; phase attribution tiles every rank's wall time and
//! conserves the measured energy exactly; the exported Chrome `traceEvents`
//! JSON is well-formed and loadable; and the default `NoopObserver` adds no
//! measurable overhead to the hot path.

use std::time::Instant;

use charllm_hw::{Cluster, GpuId, GpuModel, NodeLayout};
use charllm_models::{presets as models, TrainJob};
use charllm_net::{ChunkingPolicy, CollectiveKind};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::reference::ReferenceSimulator;
use charllm_sim::{NoopObserver, SimConfig, SimResult, Simulator};
use charllm_telemetry::{chrome_trace, phase, Phase, SpanRecorder};
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

/// Hand-built 4-rank trace covering every collective kind (mirrors the
/// golden suite's coverage trace, including the eager SendRecv pair).
fn all_collectives_trace() -> ExecutionTrace {
    let mut b = TraceBuilder::new(4);
    let group = vec![0, 1, 2, 3];
    let mk = |b: &mut TraceBuilder, site, kind, bytes, eager: bool| {
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
    b.start(0, p2p);
    for rank in 0..4 {
        b.blocking(rank, a2a);
        b.compute(rank, ComputeKind::Gemm, 5e10);
        b.blocking(rank, bc);
        b.blocking(rank, ag);
        b.blocking(rank, rs);
    }
    b.wait(1, p2p);
    b.build(TraceMeta {
        tokens_per_iteration: 128,
        ..Default::default()
    })
}

/// Run both engines with span recorders attached on the same inputs.
fn record_both(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    cfg: SimConfig,
) -> ((SimResult, SpanRecorder), (SimResult, SpanRecorder)) {
    let placement = Placement::identity(cluster, trace.world()).unwrap();
    let new = Simulator::with_observer(cluster, &placement, trace, cfg, SpanRecorder::new())
        .unwrap()
        .run_observed()
        .unwrap();
    let reference =
        ReferenceSimulator::with_observer(cluster, &placement, trace, cfg, SpanRecorder::new())
            .unwrap()
            .run_observed()
            .unwrap();
    (new, reference)
}

fn assert_streams_equal(a: &SpanRecorder, b: &SpanRecorder, workload: &str) {
    assert_eq!(a.world(), b.world(), "{workload}: world");
    for rank in 0..a.world() {
        assert_eq!(
            a.spans(rank),
            b.spans(rank),
            "{workload}: span stream of rank {rank} diverged"
        );
    }
    assert_eq!(a.num_open_spans(), 0, "{workload}: unclosed spans");
    assert_eq!(b.num_open_spans(), 0, "{workload}: unclosed spans (ref)");
    assert_eq!(a.flows(), b.flows(), "{workload}: flow streams diverged");
    assert_eq!(a.open_flows(), b.open_flows(), "{workload}: open flows");
    assert_eq!(
        a.completions(),
        b.completions(),
        "{workload}: collective completions diverged"
    );
    assert_eq!(
        a.power_ticks(),
        b.power_ticks(),
        "{workload}: power ticks diverged"
    );
}

#[test]
fn span_streams_identical_between_engines_on_training_step() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let ((res_new, rec_new), (res_ref, rec_ref)) = record_both(&cluster, &trace, cfg);
    assert_eq!(
        serde_json::to_string(&res_new).unwrap(),
        serde_json::to_string(&res_ref).unwrap(),
        "results must stay byte-identical with recorders attached"
    );
    assert!(rec_new.num_spans() > 0, "training step must produce spans");
    assert_streams_equal(&rec_new, &rec_ref, "gpt3 training step");
}

#[test]
fn span_streams_identical_between_engines_on_every_collective_kind() {
    let cluster = one_node_cluster();
    let trace = all_collectives_trace();
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    let ((_, rec_new), (_, rec_ref)) = record_both(&cluster, &trace, cfg);
    assert!(
        rec_new.flows().iter().any(|f| f.t1_s > f.t0_s),
        "coverage trace must retire real flows"
    );
    assert_streams_equal(&rec_new, &rec_ref, "all-collectives trace");
}

#[test]
fn phase_attribution_tiles_every_ranks_wall_time() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let (result, recorder) =
        Simulator::with_observer(&cluster, &placement, &trace, cfg, SpanRecorder::new())
            .unwrap()
            .run_observed()
            .unwrap();
    let profile = phase::attribute(&recorder, result.sim_time_s, cfg.iterations);
    assert_eq!(profile.world(), trace.world());
    assert!(profile.makespan_s > 0.0);
    for (rank, phases) in profile.rank_phases.iter().enumerate() {
        let total = phases.total_seconds();
        let rel = (total - profile.makespan_s).abs() / profile.makespan_s;
        assert!(
            rel < 1e-9,
            "rank {rank}: phase seconds {total} do not tile makespan {} (rel {rel:e})",
            profile.makespan_s
        );
    }
    // Per-iteration buckets never exceed their rank's totals.
    for (rank, phases) in profile.rank_phases.iter().enumerate() {
        for phase in Phase::all() {
            let iter_sum: f64 = profile
                .iteration_phases
                .iter()
                .map(|ranks| ranks[rank].seconds(phase))
                .sum();
            assert!(
                iter_sum <= phases.seconds(phase) + 1e-9,
                "rank {rank} {phase}: iteration buckets exceed rank total"
            );
        }
    }
}

#[test]
fn phase_attribution_conserves_measured_energy() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let (result, recorder) =
        Simulator::with_observer(&cluster, &placement, &trace, cfg, SpanRecorder::new())
            .unwrap()
            .run_observed()
            .unwrap();
    let profile = phase::attribute(&recorder, result.sim_time_s, cfg.iterations);

    // Each rank's phase energy must sum to its GPU's measured energy,
    // recomputed independently from the power ticks.
    for rank in 0..profile.world() {
        let gpu = recorder.gpu_of_rank(rank).expect("rank placed on a gpu");
        let measured: f64 = recorder
            .power_ticks()
            .iter()
            .filter(|t| t.gpu == gpu && t.measuring)
            .map(|t| t.power_w * t.period_s)
            .sum();
        let attributed = profile.rank_phases[rank].total_energy_j();
        let rel = (attributed - measured).abs() / measured.max(1e-12);
        assert!(
            rel < 1e-9,
            "rank {rank}: attributed {attributed} J vs measured {measured} J (rel {rel:e})"
        );
    }

    // Cluster total matches the engine's own energy accounting.
    let expected = result.energy_per_step_j * cfg.measured_iterations() as f64;
    let total = profile.cluster_total().total_energy_j();
    let rel = (total - expected).abs() / expected;
    assert!(
        rel < 1e-9,
        "cluster phase energy {total} J vs engine accounting {expected} J (rel {rel:e})"
    );
}

#[test]
fn exported_trace_events_json_is_wellformed() {
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 8);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 2;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let (result, recorder) =
        Simulator::with_observer(&cluster, &placement, &trace, cfg, SpanRecorder::new())
            .unwrap()
            .run_observed()
            .unwrap();
    let node_of_gpu: Vec<usize> = (0..cluster.num_gpus())
        .map(|g| cluster.node_of(GpuId(g as u32)).index())
        .collect();
    let exported = chrome_trace::export(&recorder, &node_of_gpu);

    // Roundtrip through the serialized form, as a Perfetto load would.
    let text = serde_json::to_string(&exported).unwrap();
    let value: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = value
        .as_object()
        .expect("top-level object")
        .get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let makespan_us = result.sim_time_s * 1e6;
    let mut process_names = std::collections::BTreeSet::new();
    let mut thread_names = std::collections::BTreeSet::new();
    let mut starts = 0usize;
    let mut finishes = 0usize;
    for event in events {
        let obj = event.as_object().expect("event object");
        let ph = obj.get("ph").and_then(|v| v.as_str()).expect("ph string");
        match ph {
            "M" => {
                let name = obj.get("name").and_then(|v| v.as_str()).unwrap();
                let pid = obj.get("pid").and_then(|v| v.as_f64()).unwrap() as i64;
                let tid = obj.get("tid").and_then(|v| v.as_f64()).unwrap() as i64;
                if name == "process_name" {
                    assert!(process_names.insert(pid), "duplicate process {pid}");
                } else if name == "thread_name" {
                    assert!(thread_names.insert((pid, tid)), "duplicate thread {tid}");
                }
            }
            "X" => {
                let ts = obj.get("ts").and_then(|v| v.as_f64()).unwrap();
                let dur = obj.get("dur").and_then(|v| v.as_f64()).unwrap();
                assert!(ts >= 0.0, "negative timestamp {ts}");
                assert!(dur >= 0.0, "negative duration {dur}");
                assert!(
                    ts + dur <= makespan_us + 1e-3,
                    "span [{ts}, {}] exceeds makespan {makespan_us} us",
                    ts + dur
                );
            }
            "s" => starts += 1,
            "f" => finishes += 1,
            "C" => {
                let watts = obj
                    .get("args")
                    .and_then(|a| a.as_object())
                    .and_then(|a| a.get("watts"))
                    .and_then(|v| v.as_f64())
                    .unwrap();
                assert!(watts >= 0.0, "negative power sample");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // One process per node, one thread per rank.
    assert_eq!(process_names.len(), cluster.num_nodes());
    assert_eq!(thread_names.len(), trace.world());
    // Every launched flow has exactly one source and one finish arrow.
    assert_eq!(starts, recorder.flows().len());
    assert_eq!(finishes, recorder.flows().len());
}

#[test]
fn noop_observer_adds_no_measurable_overhead() {
    // `Simulator::new` *is* `Simulator::with_observer(.., NoopObserver)`,
    // so the two paths monomorphize to the same machine code and the hook
    // sites are compiled out. This guard pins that property with *paired*
    // wall-clock runs: each pair runs back-to-back under the same ambient
    // load, and the best pair must land inside the 2% budget. A genuinely
    // compiled-in hook cost would slow the noop side of every pair.
    let cluster = one_node_cluster();
    let trace = gpt3_trace(&cluster, 16);
    let mut cfg = SimConfig::fast();
    cfg.iterations = 3;
    cfg.warmup_iterations = 1;
    let placement = Placement::identity(&cluster, trace.world()).unwrap();
    let time_plain = || {
        let t0 = Instant::now();
        let r = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run()
            .unwrap();
        (t0.elapsed().as_secs_f64(), r.sim_time_s)
    };
    let time_noop = || {
        let t0 = Instant::now();
        let r = Simulator::with_observer(&cluster, &placement, &trace, cfg, NoopObserver)
            .unwrap()
            .run()
            .unwrap();
        (t0.elapsed().as_secs_f64(), r.sim_time_s)
    };
    let mut best_ratio = f64::INFINITY;
    for _ in 0..5 {
        let (tp, sp) = time_plain();
        let (tn, sn) = time_noop();
        assert_eq!(sp, sn, "observer changed simulated time");
        best_ratio = best_ratio.min(tn / tp);
    }
    let overhead = best_ratio - 1.0;
    assert!(
        overhead < 0.02,
        "NoopObserver overhead {:.2}% exceeds the 2% budget in every paired run",
        overhead * 100.0
    );
}
