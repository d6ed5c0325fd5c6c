//! Fault & resilience scenarios: goodput vs. MTBF across cluster scales.
//!
//! Injects deterministic periodic fail-stops (spaced `MTBF / num_gpus`, the
//! fleet-level failure rate of independent GPUs) with checkpoint/restart
//! recovery, and reports goodput, restart counts, energy wasted per failure
//! and downtime next to the fault-free baseline. Each scenario goes through
//! [`Sweep`] with one shared [`SimCache`]. Faults change neither the lowered
//! trace nor the collective plans, so the fault plan stays out of the cache
//! key: each cluster lowers its trace and builds its plans once, for the
//! fault-free baseline, and every MTBF scenario after it, in both passes,
//! is served from cache.
//!
//! ```sh
//! cargo run --release --example faults_mtbf
//! ```

use std::sync::Arc;

use charllm::prelude::*;
use charllm::sweep::Sweep;
use charllm_hw::Cluster;
use charllm_sim::{fnv1a, SimResult};

/// MTBF per GPU, seconds of simulated time. Absurdly short against real
/// fleets (hours), scaled down to exercise recovery inside a short run.
const MTBF_S: [f64; 3] = [4.0, 8.0, 16.0];

fn cluster_sweep(
    cluster: &Arc<Cluster>,
    cache: &Arc<SimCache>,
    faults: Option<FaultPlan>,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let spec = ParallelismSpec::parse("TP2-PP2", cluster.num_gpus())?;
    // No warmup: goodput is measured-window-scoped, and a warmup iteration
    // would hide any outages that complete before measurement starts.
    let cfg = SimConfig {
        iterations: 8,
        warmup_iterations: 0,
        ..SimConfig::fast()
    };
    let mut sweep = Sweep::new(Arc::clone(cluster), job, vec![spec])
        .with_sim_config(cfg)
        .with_cache(Arc::clone(cache))
        .workers(0)
        .strict();
    if let Some(plan) = faults {
        sweep = sweep.with_faults(plan);
    }
    let mut reports = sweep.run()?;
    Ok(reports.remove(0))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clusters: Vec<(&str, Arc<Cluster>)> = vec![
        ("8xH200 (1 node)", Arc::new(single_hgx_node())),
        ("32xH200 (4 nodes)", Arc::new(hgx_h200_cluster())),
    ];
    let recovery = RecoveryPolicy::CheckpointRestart {
        checkpoint_interval_s: 1.0,
        restart_latency_s: 0.25,
    };
    let cache = Arc::new(SimCache::new());

    for pass in 1..=2 {
        println!("== pass {pass} ==");
        for (name, cluster) in &clusters {
            let num_gpus = cluster.num_gpus() as u32;
            let baseline = cluster_sweep(cluster, &cache, None)?;
            println!(
                "{name}: fault-free {:.1} tokens/s over {:.2}s simulated",
                baseline.tokens_per_s, baseline.sim.sim_time_s
            );
            print_hash(&baseline.sim)?;
            // More GPUs -> shorter fleet MTBF -> more restarts in the same
            // window: the scaling argument for cheaper checkpoints.
            for mtbf in MTBF_S {
                let plan =
                    FaultPlan::periodic_fail_stops(mtbf, num_gpus, 60.0).with_recovery(recovery);
                let r = cluster_sweep(cluster, &cache, Some(plan))?;
                println!(
                    "  mtbf {mtbf:>4.1}s/gpu: goodput {:.1} tokens/s ({:.1}% of fault-free), \
                     {} restarts, {:.0} J wasted/failure, {:.2}s downtime",
                    r.sim.goodput_tokens_per_s,
                    100.0 * r.sim.goodput_tokens_per_s / baseline.tokens_per_s,
                    r.sim.restarts,
                    r.sim.energy_wasted_per_failure_j(),
                    r.sim.fault_downtime_s,
                );
                print_hash(&r.sim)?;
            }
        }
        println!("cache after pass {pass}: {}", cache.stats());
    }
    Ok(())
}

/// Print the FNV-1a of a scenario's serialized result, so a change to the
/// fault engine that moves any byte shows.
fn print_hash(result: &SimResult) -> Result<(), Box<dyn std::error::Error>> {
    let bytes = serde_json::to_string(result)?;
    println!("    result fnv1a {:016x}", fnv1a(bytes.as_bytes()));
    Ok(())
}
