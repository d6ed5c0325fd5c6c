//! `unfolded_2048_faults`: GPT-3 13B at tp4·pp8·dp64 on 256 HGX H200 nodes,
//! unfolded `Simulator` with fault plans. Each round is one fault study,
//! the benchmark's op: three scenario runs, clean, one GPU fail-stop, and a
//! link degrade plus a straggler.

use std::time::Instant;

use charllm::prelude::*;
use charllm_hw::presets as hw;
use charllm_hw::Cluster;
use charllm_models::presets as models;
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::{EngineStats, SimResult, Simulator};
use charllm_trace::lower::{lower_train, DeviceHints};
use charllm_trace::ExecutionTrace;

use crate::gen::FaultDraw;
use crate::spans::Tracer;
use crate::stats::{median, Metrics};
use crate::{run_rounds, timed, Pass};

const NODES: usize = 256;
const ITERATIONS: usize = 2;
/// Nominal host seconds of one round (three ops) on a 2-core x86 box.
const ROUND_S: f64 = 8.0;

fn config() -> SimConfig {
    let mut cfg = SimConfig::fast();
    cfg.iterations = ITERATIONS;
    cfg.warmup_iterations = 1;
    cfg
}

/// What one op left behind once its (large) result is dropped.
struct Op {
    kind: &'static str,
    id: u64,
    wall_s: f64,
    sim_time_s: f64,
    downtime_s: f64,
    restarts: u64,
    stats: EngineStats,
    /// Exact bits of the result scalars, for repeat comparisons.
    fingerprint: String,
}

fn fingerprint(r: &SimResult) -> String {
    format!(
        "{:x} {:x} {:x} {:x} {:x} {} {:x}",
        r.step_time_s.to_bits(),
        r.tokens_per_s.to_bits(),
        r.goodput_tokens_per_s.to_bits(),
        r.energy_per_step_j.to_bits(),
        r.sim_time_s.to_bits(),
        r.restarts,
        r.fault_downtime_s.to_bits(),
    )
}

/// The output checks of one op.
fn check(kind: &str, r: &SimResult) -> Result<(), String> {
    if r.goodput_tokens_per_s.is_nan() || r.goodput_tokens_per_s > r.tokens_per_s {
        return Err(format!(
            "{kind}: goodput {} exceeds throughput {}",
            r.goodput_tokens_per_s, r.tokens_per_s
        ));
    }
    if !(r.energy_per_step_j.is_finite() && r.energy_per_step_j > 0.0) {
        return Err(format!("{kind}: energy per step {}", r.energy_per_step_j));
    }
    let faulted = r.restarts > 0 && r.fault_downtime_s > 0.0;
    let clean = r.restarts == 0 && r.fault_downtime_s == 0.0;
    match (kind == "fail_stop", faulted, clean) {
        (true, true, _) | (false, _, true) => Ok(()),
        _ => Err(format!(
            "{kind}: restarts {} downtime {} s",
            r.restarts, r.fault_downtime_s
        )),
    }
}

/// The workload's inputs: cluster, job and the shared lowering.
fn set_up(tr: &Tracer) -> (Cluster, ExecutionTrace, Placement) {
    let cluster = tr.span("hw.cluster", 0, || hw::hgx_h200_with_nodes(NODES));
    let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(256);
    let spec = ParallelismSpec::infer_dp(4, 8, 1, cluster.num_gpus(), false)
        .expect("tp4·pp8 divides 2048 GPUs");
    let partition = StagePartition::even(40, 8).expect("40 layers split over 8 stages");
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = tr
        .span("trace.lower", 0, || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        })
        .expect("GPT-3 13B lowers at tp4·pp8·dp64")
        .trace;
    let placement = Placement::identity(&cluster, trace.world()).expect("trace fills the cluster");
    (cluster, trace, placement)
}

pub fn run(seed: u64, seconds: f64, tr: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut setup_s = Vec::new();
    let (cluster, trace, placement) = timed(&mut setup_s, || set_up(tr));
    let gpus = cluster.num_gpus();
    let draw = FaultDraw::generate(
        seed,
        gpus as u32,
        cluster.num_links() as u32,
        trace.world() as u32,
    );
    let plans = draw.plans();

    let mut ops: Vec<Op> = Vec::new();
    let mut studies: Vec<f64> = Vec::new();
    let wall_s = run_rounds(seconds, ROUND_S, |round| {
        let mut study_s = 0.0;
        for (k, (kind, plan)) in plans.iter().enumerate() {
            let id = (round * plans.len() + k + 1) as u64;
            pass.attempted += 1;
            let t = Instant::now();
            let out = tr.span("op", id, || -> Result<(SimResult, EngineStats), String> {
                let sim = tr.span("sim.new", id, || {
                    Simulator::new(&cluster, &placement, &trace, config())
                        .and_then(|s| s.with_faults(plan))
                });
                tr.span("sim.run", id, || sim.and_then(Simulator::run_stats))
                    .map_err(|e| format!("{kind}: {e}"))
            });
            let wall_s = t.elapsed().as_secs_f64();
            study_s += wall_s;
            let (result, stats) = match out {
                Ok(ok) => ok,
                Err(e) => {
                    pass.fail(e);
                    continue;
                }
            };
            if let Err(e) = check(kind, &result) {
                pass.fail(e);
            }
            let op = Op {
                kind,
                id,
                wall_s,
                sim_time_s: result.sim_time_s,
                downtime_s: result.fault_downtime_s,
                restarts: result.restarts,
                stats,
                fingerprint: fingerprint(&result),
            };
            drop(result);
            if let Some(first) = ops.iter().find(|o| o.kind == *kind) {
                if first.fingerprint != op.fingerprint {
                    pass.fail(format!("{kind}: repeat {id} differs from op {}", first.id));
                }
            }
            ops.push(op);
            // Set-up again, so its samples spread over the whole run.
            drop(timed(&mut setup_s, || set_up(tr)));
        }
        studies.push(study_s);
    });

    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let gpu_iters = (ops.len() * gpus * ITERATIONS) as f64;
    let run_s = |kind: &str| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.wall_s)
            .collect()
    };

    pass.e2e.p50("setup_s", &setup_s, "s");
    pass.e2e.put(
        "gpu_iter_per_s",
        gpu_iters / walls.iter().sum::<f64>(),
        "gpu-iter/s",
    );
    pass.e2e.p50("op_s.p50", &studies, "s");
    pass.e2e.tail("op_s.tail", &studies, "s");
    for (kind, _) in &plans {
        pass.detail.p50(format!("run_s.{kind}"), &run_s(kind), "s");
    }
    pass.detail.note(
        "wall_s",
        wall_s,
        "s",
        format!(
            "{} ops, {gpus} GPUs x {ITERATIONS} iterations each",
            ops.len()
        ),
    );
    pass.fingerprint = plans
        .iter()
        .filter_map(|(kind, _)| ops.iter().find(|o| o.kind == *kind))
        .map(|o| o.fingerprint.clone())
        .collect::<Vec<_>>()
        .join(";");
    if tr.on() {
        pass.layers = layers(tr, &ops, &plans);
    }
    pass
}

/// Per-layer metrics of the traced pass: span medians per op kind plus the
/// engine's own counters from the first op of each kind.
fn layers(tr: &Tracer, ops: &[Op], plans: &[(&'static str, FaultPlan)]) -> Metrics {
    let spans = tr.spans();
    let span_median = |name: &str, kind: &str| -> f64 {
        let ids: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.id)
            .collect();
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.op))
            .map(|s| s.secs())
            .collect();
        median(&v)
    };
    let mut m = Metrics::default();
    m.p50("trace.lower_s", &tr.durations("trace.lower"), "s");
    let firsts: Vec<&Op> = plans
        .iter()
        .filter_map(|(kind, _)| ops.iter().find(|o| o.kind == *kind))
        .collect();
    let mut run_total = 0.0;
    let mut sim_total = 0.0;
    for op in &firsts {
        let kind = op.kind;
        let new_s = span_median("sim.new", kind);
        let run_s = span_median("sim.run", kind);
        let ev = op.stats.events.max(1) as f64;
        m.put(format!("sim.new_s.{kind}"), new_s, "s");
        m.put(format!("sim.run_s.{kind}"), run_s, "s");
        m.put(
            format!("sim.events.{kind}"),
            op.stats.events as f64,
            "count",
        );
        m.put(
            format!("sim.cal_pops_per_event.{kind}"),
            op.stats.heap_pops as f64 / ev,
            "ratio",
        );
        m.put(
            format!("sim.cal_drains_per_event.{kind}"),
            op.stats.cal_bucket_drains as f64 / ev,
            "ratio",
        );
        m.put(
            format!("sim.host_us_per_event.{kind}"),
            run_s * 1e6 / ev,
            "us",
        );
        m.put(
            format!("sim.host_s_per_sim_s.{kind}"),
            run_s / op.sim_time_s,
            "s/s",
        );
        run_total += run_s;
        sim_total += op.sim_time_s;
    }
    let sum = |f: fn(&EngineStats) -> u64| firsts.iter().map(|o| f(&o.stats)).sum::<u64>() as f64;
    m.put("sim.events", sum(|s| s.events), "count");
    m.put("sim.flows_launched", sum(|s| s.flows_launched), "count");
    m.put(
        "sim.peak_live",
        firsts.iter().map(|o| o.stats.peak_live).max().unwrap_or(0) as f64,
        "count",
    );
    m.put("sim.plan_builds", sum(|s| s.plan_builds), "count");
    m.put("sim.shared_plan_hits", sum(|s| s.shared_plan_hits), "count");
    m.put("sim.host_s_per_sim_s", run_total / sim_total, "s/s");
    if let Some(fail) = firsts.iter().find(|o| o.kind == "fail_stop") {
        m.put("fault.downtime_s", fail.downtime_s, "s");
        m.put("fault.restarts", fail.restarts as f64, "count");
        let extra = span_median("sim.run", "fail_stop") - span_median("sim.run", "clean");
        m.put("fault.host_s_per_outage_s", extra / fail.downtime_s, "s/s");
    }
    m
}
