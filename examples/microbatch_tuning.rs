//! Limits of microbatch scaling (§5, Figs. 13–15): larger microbatches help
//! coarse-grained configurations (TP8-FSDP) but hurt pipeline-heavy ones
//! while raising peak power and temperature.
//!
//! ```sh
//! cargo run --release --example microbatch_tuning
//! ```

use std::sync::Arc;

use charllm::prelude::*;
use charllm::sweep::Sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shared Arc: every sweep below reuses the same topology, and each
    // sweep fans its microbatch points across all cores (`workers(0)`).
    let cluster = Arc::new(hgx_h200_cluster());
    let job = TrainJob::pretrain(gpt3_175b())
        .with_global_batch(32)
        .with_recompute(true);

    // One cache across every sweep in this run: the power-capped replay at
    // the bottom revisits the TP8-PP4 traces, so it lowers nothing.
    let cache = Arc::new(SimCache::new());

    for label in ["TP8-FSDP4", "TP8-PP4", "TP2-PP16"] {
        let spec = ParallelismSpec::parse(label, cluster.num_gpus())?;
        let outcomes = Sweep::new(Arc::clone(&cluster), job.clone(), vec![spec])
            .with_microbatches(MICROBATCH_SWEEP.to_vec())
            .with_cache(Arc::clone(&cache))
            .workers(0)
            .run_outcomes();
        for outcome in &outcomes {
            if let SweepOutcome::Skipped { point, reason } = outcome {
                let (n, total) = (point.index + 1, outcomes.len());
                println!("  [{n}/{total}] skipping {point}: {reason}");
            }
        }
        let reports: Vec<&RunReport> = outcomes.iter().filter_map(SweepOutcome::report).collect();
        println!("== {label} ==");
        println!(
            "  {:<4} {:>10} {:>10} {:>9} {:>9} {:>9}",
            "mb", "tok/s", "tok/J", "avg W", "peak W", "peak C"
        );
        for r in &reports {
            println!(
                "  {:<4} {:>10.0} {:>10.2} {:>9.0} {:>9.0} {:>9.1}",
                r.microbatch,
                r.tokens_per_s,
                r.tokens_per_joule,
                r.mean_power_w,
                r.peak_power_w,
                r.peak_temp_c
            );
        }
        if let (Some(first), Some(last)) = (reports.first(), reports.last()) {
            let speedup = last.tokens_per_s / first.tokens_per_s;
            println!(
                "  mb{} vs mb{}: {speedup:.2}x throughput\n",
                last.microbatch, first.microbatch
            );
        }
    }
    // Replay the pipeline-heavy sweep with node 0 power-capped (the §1
    // failure anecdote). Only simulator knobs change, so every point is
    // served from the shared cache — no re-lowering, no plan rebuilds.
    let capped = SimConfig {
        node_power_cap: Some((0, 400.0)),
        ..SimConfig::default()
    };
    let spec = ParallelismSpec::parse("TP8-PP4", cluster.num_gpus())?;
    let reports = Sweep::new(Arc::clone(&cluster), job.clone(), vec![spec])
        .with_microbatches(MICROBATCH_SWEEP.to_vec())
        .with_sim_config(capped)
        .with_cache(Arc::clone(&cache))
        .workers(0)
        .run()?;
    println!("== TP8-PP4, node 0 capped at 400 W ==");
    for r in &reports {
        println!(
            "  mb{:<3} {:>10.0} tok/s {:>9.0} avg W",
            r.microbatch, r.tokens_per_s, r.mean_power_w
        );
    }
    println!("sweep cache: {}", cache.stats());

    println!(
        "Microbatch size is not a universal knob: coarser communication helps\n\
         FSDP/TP-dominated setups, while pipeline-heavy configurations lose\n\
         schedule slack and gain peak power and thermal stress."
    );
    Ok(())
}
