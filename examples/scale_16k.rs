//! 16k-GPU power-cap sweep in seconds: symmetry folding on a two-tier
//! rail-optimized SuperPod.
//!
//! GPT-3 175B at tp8·pp16·dp128 on 2048 HGX H100 nodes (16384 GPUs).
//! All 128 data-parallel replicas are congruent, so the folded engine
//! steps only replica 0 (128 ranks / 16 nodes) and expands the results —
//! each sweep point finishes in single-digit seconds where the unfolded
//! engine would grind through 16384 rank streams. One folded lowering and
//! one [`SimCache`] collective-plan set serve every cap: the first point
//! builds every plan, full cross-replica rings included, and each later
//! point reports 0 plan builds. Each point also prints the FNV-1a hash of
//! its serialized `SimResult`, which `ci.sh` pins byte for byte.
//!
//! ```sh
//! cargo run --release --example scale_16k
//! ```

use std::time::Instant;

use charllm::SimCache;
use charllm_hw::presets;
use charllm_models::{presets as models, TrainJob};
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::fold::{self, FoldOptions};
use charllm_sim::{fnv1a, SimConfig};
use charllm_trace::{lower_train_folded, DeviceHints};

/// Per-point wall-clock budget: the acceptance bar for a 16k-GPU sim.
const WALL_BUDGET_S: f64 = 10.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2048 HGX nodes × 8 H100 behind an 8-rail leaf tier + spine tier.
    let cluster = presets::hgx_h100_superpod(2048, 8);
    let spec = ParallelismSpec::infer_dp(8, 16, 1, cluster.num_gpus(), false)?;
    let job = TrainJob::pretrain(models::gpt3_175b()).with_global_batch(1024);
    let partition = StagePartition::even(job.arch.num_layers, spec.pp)?;
    let hints = DeviceHints::for_spec(cluster.gpu());
    let placement = Placement::identity(&cluster, spec.world())?;

    println!(
        "== {} on {} ({} GPUs, tp{}·pp{}·dp{}) ==",
        job.arch.name,
        cluster.name(),
        cluster.num_gpus(),
        spec.tp,
        spec.pp,
        spec.dp
    );

    let t = Instant::now();
    let folded = lower_train_folded(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)?;
    let lower_s = t.elapsed().as_secs_f64();
    let map = fold::detect(&cluster, &placement, &spec)?;
    println!(
        "folded lowering: ×{} replicas, {} representative ranks, {lower_s:.2} s",
        folded.multiplicity,
        map.active_ranks.len(),
    );

    // One lowered trace, one plan set, four power-cap points.
    let cache = SimCache::new();
    let lowered_key = SimCache::lowered_key(
        &job,
        &spec,
        PipelineSchedule::OneFOneB,
        &partition,
        &hints,
        None,
    );
    let opts = FoldOptions {
        expand_telemetry: false,
        ..FoldOptions::default()
    };

    let caps: [Option<f64>; 4] = [None, Some(600.0), Some(500.0), Some(400.0)];
    let mut max_wall_s = 0.0f64;
    for cap in caps {
        let mut cfg = SimConfig::fast();
        cfg.iterations = 5;
        cfg.warmup_iterations = 1;
        cfg.uniform_variability = true;
        cfg.gpu_power_cap_w = cap;
        let (shared, plan_hit) = cache.plans(
            &cluster,
            &placement,
            &lowered_key,
            &folded.trace,
            folded.multiplicity,
        );
        let t = Instant::now();
        let (result, stats) = fold::run_folded(
            &cluster,
            &placement,
            &folded,
            &spec,
            cfg,
            Some(shared),
            &opts,
        )?;
        let wall_s = t.elapsed().as_secs_f64();
        max_wall_s = max_wall_s.max(wall_s);
        let cap_label = cap.map_or("none".to_string(), |w| format!("{w:.0} W"));
        println!(
            "cap {cap_label:>6} | step {:.2} s | {:.2} Mtokens/s | {:.3} tokens/J | \
             {:.2} MJ/step | wall {wall_s:.2} s | {} events (×{} ≈ {:.1}M events/s-eq) | \
             plans {}, {} built",
            result.step_time_s,
            result.tokens_per_s / 1e6,
            result.tokens_per_joule,
            result.energy_per_step_j / 1e6,
            stats.events,
            folded.multiplicity,
            stats.events as f64 * f64::from(folded.multiplicity) / wall_s / 1e6,
            if plan_hit.is_hit() { "hit" } else { "miss" },
            stats.plan_builds,
        );
        println!(
            "            calendar: {} rekeys | {} bucket drains ({:.1} pops/drain) | \
             overflow peak {}",
            stats.cal_rekeys,
            stats.cal_bucket_drains,
            stats.heap_pops as f64 / stats.cal_bucket_drains.max(1) as f64,
            stats.cal_overflow_peak,
        );
        println!(
            "            arena: {} slot reuses | {} exact calendar removals",
            stats.arena_slot_reuses, stats.cal_exact_removals,
        );
        println!(
            "            flow rates: {} re-rates | {} changed",
            stats.flow_rerates, stats.flow_rate_changes,
        );
        let bytes = serde_json::to_string(&result)?;
        println!("            result fnv1a {:016x}", fnv1a(bytes.as_bytes()));
    }

    let s = cache.stats();
    println!(
        "sweep cache: plans {} hits / {} lookups",
        s.plan_hits,
        s.plan_hits + s.plan_misses
    );
    if max_wall_s < WALL_BUDGET_S {
        println!("wall budget: max {max_wall_s:.2} s within {WALL_BUDGET_S:.0} s budget: OK");
    } else {
        println!("wall budget: max {max_wall_s:.2} s exceeds {WALL_BUDGET_S:.0} s budget: FAIL");
        std::process::exit(1);
    }
    Ok(())
}
