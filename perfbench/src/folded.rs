//! `folded_16k_powercap`: GPT-3 175B at tp8·pp16·dp128 on a 2048-node
//! HGX H100 SuperPod, symmetry-folded ×128. Each round is one power-cap
//! sweep, the benchmark's op: four `gpu_power_cap_w` points sharing one
//! `SimCache` plan set.

use std::time::Instant;

use charllm::prelude::*;
use charllm_hw::presets as hw;
use charllm_hw::Cluster;
use charllm_models::presets as models;
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::fold::{self, FoldOptions};
use charllm_sim::{EngineStats, SimResult};
use charllm_trace::lower::{lower_train_folded, DeviceHints, FoldedJob};

use crate::gen::power_caps;
use crate::spans::Tracer;
use crate::{run_rounds, timed, Pass};

const ITERATIONS: usize = 5;
/// Nominal host seconds of one round (four points) on a 2-core x86 box.
const ROUND_S: f64 = 10.0;

fn config(cap: Option<f64>) -> SimConfig {
    let mut cfg = SimConfig::fast();
    cfg.iterations = ITERATIONS;
    cfg.warmup_iterations = 1;
    cfg.uniform_variability = true;
    cfg.gpu_power_cap_w = cap;
    cfg
}

struct Point {
    round: usize,
    cap: Option<f64>,
    wall_s: f64,
    sim_time_s: f64,
    stats: EngineStats,
    fingerprint: String,
}

fn fingerprint(r: &SimResult) -> String {
    format!(
        "{:x} {:x} {:x} {:x} {:x}",
        r.step_time_s.to_bits(),
        r.tokens_per_s.to_bits(),
        r.energy_per_step_j.to_bits(),
        r.tokens_per_joule.to_bits(),
        r.sim_time_s.to_bits(),
    )
}

fn check(r: &SimResult) -> Result<(), String> {
    let scalars = [
        r.step_time_s,
        r.tokens_per_s,
        r.energy_per_step_j,
        r.tokens_per_joule,
        r.sim_time_s,
    ];
    if scalars.iter().all(|v| v.is_finite() && *v > 0.0) {
        Ok(())
    } else {
        Err(format!(
            "non-finite or non-positive result scalars {scalars:?}"
        ))
    }
}

/// The workload's inputs: the pod, the folded lowering and its cache key.
struct Inputs {
    pod: Cluster,
    spec: ParallelismSpec,
    folded: FoldedJob,
    placement: Placement,
    key: String,
}

fn set_up(tr: &Tracer) -> Inputs {
    let pod = tr.span("hw.cluster", 0, || hw::hgx_h100_superpod(2048, 8));
    let job = TrainJob::pretrain(models::gpt3_175b()).with_global_batch(1024);
    let spec = ParallelismSpec::infer_dp(8, 16, 1, pod.num_gpus(), false)
        .expect("tp8·pp16 divides 16384 GPUs");
    let partition =
        StagePartition::even(job.arch.num_layers, spec.pp).expect("96 layers split over 16 stages");
    let hints = DeviceHints::for_spec(pod.gpu());
    let folded = tr
        .span("trace.lower", 0, || {
            lower_train_folded(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        })
        .expect("GPT-3 175B lowers folded at dp128");
    let placement = Placement::identity(&pod, spec.world()).expect("spec fills the pod");
    let key = SimCache::lowered_key(
        &job,
        &spec,
        PipelineSchedule::OneFOneB,
        &partition,
        &hints,
        None,
    );
    Inputs {
        pod,
        spec,
        folded,
        placement,
        key,
    }
}

pub fn run(seed: u64, seconds: f64, tr: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut setup_s = Vec::new();
    let Inputs {
        pod,
        spec,
        folded,
        placement,
        key,
    } = timed(&mut setup_s, || set_up(tr));
    let caps = power_caps(seed);
    // The stage histograms are read in the traced pass only.
    let hub = tr.on().then(|| MetricsHub::new(1));
    let opts = FoldOptions {
        expand_telemetry: false,
        metrics: hub.as_ref().map(|h| h.shard(0)),
    };

    let mut points: Vec<Point> = Vec::new();
    let mut sweeps: Vec<f64> = Vec::new();
    let mut first_cache = None;
    let wall_s = run_rounds(seconds, ROUND_S, |round| {
        // One sweep: a fresh cache whose plan set the four points share.
        let cache = SimCache::new();
        let mut sweep_s = 0.0;
        for (k, &cap) in caps.iter().enumerate() {
            let id = (round * caps.len() + k + 1) as u64;
            pass.attempted += 1;
            let t = Instant::now();
            let out = tr.span("op", id, || {
                let (shared, _) = tr.span("cache.plans", id, || {
                    cache.plans(&pod, &placement, &key, &folded.trace, folded.multiplicity)
                });
                tr.span("fold.run", id, || {
                    fold::run_folded(
                        &pod,
                        &placement,
                        &folded,
                        &spec,
                        config(cap),
                        Some(shared),
                        &opts,
                    )
                })
            });
            let wall_s = t.elapsed().as_secs_f64();
            sweep_s += wall_s;
            let (result, stats) = match out {
                Ok(ok) => ok,
                Err(e) => {
                    pass.fail(format!("cap {cap:?}: {e}"));
                    continue;
                }
            };
            if let Err(e) = check(&result) {
                pass.fail(format!("cap {cap:?}: {e}"));
            }
            let point = Point {
                round,
                cap,
                wall_s,
                sim_time_s: result.sim_time_s,
                stats,
                fingerprint: fingerprint(&result),
            };
            if let Some(first) = points.iter().find(|p| p.cap == cap) {
                if first.fingerprint != point.fingerprint {
                    pass.fail(format!("cap {cap:?}: round {round} differs from round 0"));
                }
            }
            points.push(point);
            // Set-up again, so its samples spread over the whole run.
            drop(timed(&mut setup_s, || set_up(tr)));
        }
        sweeps.push(sweep_s);
        if round == 0 {
            first_cache = Some(cache.stats());
        }
    });

    let walls: Vec<f64> = points.iter().map(|p| p.wall_s).collect();
    let gpu_iters = (points.len() * pod.num_gpus() * ITERATIONS) as f64;
    pass.e2e.p50("setup_s", &setup_s, "s");
    pass.e2e.put(
        "gpu_iter_per_s",
        gpu_iters / walls.iter().sum::<f64>(),
        "gpu-iter/s",
    );
    pass.e2e.p50("op_s.p50", &sweeps, "s");
    pass.e2e.tail("op_s.tail", &sweeps, "s");
    pass.detail.p50("point_s.p50", &walls, "s");
    pass.detail.note(
        "wall_s",
        wall_s,
        "s",
        format!(
            "{} points, caps {caps:?} W, {} GPUs x {ITERATIONS} iterations each",
            points.len(),
            pod.num_gpus()
        ),
    );
    let first_round: Vec<&Point> = points.iter().filter(|p| p.round == 0).collect();
    pass.fingerprint = first_round
        .iter()
        .map(|p| p.fingerprint.clone())
        .collect::<Vec<_>>()
        .join(";");

    if tr.on() {
        let m = &mut pass.layers;
        m.p50("trace.lower_s", &tr.durations("trace.lower"), "s");
        m.p50("cache.plans_s", &tr.durations("cache.plans"), "s");
        if let Some(hub) = &hub {
            let snap = hub.snapshot();
            for (stage, name) in [
                ("plan_build", "fold.plan_build_s"),
                ("event_loop", "fold.event_loop_s"),
                ("fold_expand", "fold.fold_expand_s"),
            ] {
                let total = snap
                    .get("sim_stage_seconds", &[("stage", stage)])
                    .map_or(0.0, |v| v.as_f64());
                m.note(
                    name,
                    total / points.len().max(1) as f64,
                    "s",
                    "mean per point",
                );
            }
        }
        let sum = |f: fn(&EngineStats) -> u64| {
            first_round.iter().map(|p| f(&p.stats)).sum::<u64>() as f64
        };
        m.put("sim.events", sum(|s| s.events), "count");
        m.put("sim.flows_launched", sum(|s| s.flows_launched), "count");
        m.put(
            "sim.peak_live",
            first_round
                .iter()
                .map(|p| p.stats.peak_live)
                .max()
                .unwrap_or(0) as f64,
            "count",
        );
        m.put("sim.plan_builds", sum(|s| s.plan_builds), "count");
        m.put("sim.shared_plan_hits", sum(|s| s.shared_plan_hits), "count");
        let runs = tr.durations("fold.run");
        let sim_total: f64 = points.iter().map(|p| p.sim_time_s).sum();
        m.put(
            "sim.host_s_per_sim_s",
            runs.iter().sum::<f64>() / sim_total,
            "s/s",
        );
        if let Some(stats) = first_cache {
            crate::put_cache_stats(m, &stats);
        }
    }
    pass
}
