//! Integration tests asserting the paper's qualitative findings emerge from
//! the simulation at small scale.

use charllm::prelude::*;
use charllm_hw::presets::hgx_h200_with_nodes;
use charllm_trace::KernelClass;

fn run(cluster: &charllm_hw::Cluster, job: &TrainJob, label: &str) -> charllm::RunReport {
    run_with(cluster, job, label, SimConfig::fast())
}

fn run_with(
    cluster: &charllm_hw::Cluster,
    job: &TrainJob,
    label: &str,
    cfg: SimConfig,
) -> charllm::RunReport {
    Experiment::builder()
        .cluster(cluster.clone())
        .job(job.clone())
        .parallelism(label)
        .unwrap()
        .sim_config(cfg)
        .run()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// The GPUs of `cluster` in rear (exhaust) slots, then those in front
/// (intake) slots.
fn rear_and_front(cluster: &charllm_hw::Cluster) -> (Vec<usize>, Vec<usize>) {
    let airflow = &cluster.node_layout().airflow;
    (0..cluster.num_gpus())
        .partition(|&g| airflow.is_rear(cluster.slot_of(charllm_hw::GpuId(g as u32))))
}

/// Mean over `gpus` of `value(gpu)`.
fn group_mean(gpus: &[usize], value: impl Fn(usize) -> f64) -> f64 {
    gpus.iter().map(|&g| value(g)).sum::<f64>() / gpus.len() as f64
}

#[test]
fn tp_heavy_configs_are_communication_bound() {
    // §4.2: TP-heavy setups show far more communication time than PP-heavy.
    let cluster = single_gpu_per_node_cluster(4);
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let tp = run(&cluster, &job, "TP4-PP1");
    let pp = run(&cluster, &job, "TP1-PP4");
    let comm = |r: &charllm::RunReport| r.mean_kernel_time().comm_total();
    assert!(
        comm(&tp) > 5.0 * comm(&pp),
        "TP comm {:.2}s vs PP comm {:.2}s",
        comm(&tp),
        comm(&pp)
    );
}

#[test]
fn recompute_trades_time_for_memory() {
    use charllm_parallel::{rank_memory, ParallelismSpec, StagePartition};
    let cluster = single_hgx_node();
    let base = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let with = base.clone().with_recompute(true);
    let r_base = run(&cluster, &base, "TP2-PP4");
    let r_with = run(&cluster, &with, "TP2-PP4");
    assert!(
        r_with.step_time_s > r_base.step_time_s,
        "recompute must cost time"
    );

    let spec = ParallelismSpec::parse("TP2-PP4", 8).unwrap();
    let part = StagePartition::even(40, 4).unwrap();
    let m_base = rank_memory(&base, &spec, &part);
    let m_with = rank_memory(&with, &spec, &part);
    assert!(
        m_with.activations < m_base.activations / 2,
        "recompute must save memory"
    );
}

#[test]
fn node_local_expert_parallelism_avoids_pcie() {
    // §4.2: when TP crowds EP out of the node, all-to-all crosses the NIC.
    let cluster = hgx_h200_with_nodes(2);
    let job = TrainJob::pretrain(mixtral_8x7b())
        .with_global_batch(8)
        .with_recompute(true);
    let local = run(&cluster, &job, "EP8-TP1-PP2"); // EP inside one node
    let spanning = run(&cluster, &job, "EP8-TP2-PP1"); // EP spans both nodes
    let pcie = |r: &charllm::RunReport| -> f64 { (0..16).map(|g| r.sim.traffic.pcie(g)).sum() };
    assert!(
        pcie(&spanning) > 10.0 * pcie(&local).max(1.0),
        "spanning EP pcie {:.2e} vs local {:.2e}",
        pcie(&spanning),
        pcie(&local)
    );
    assert!(local.tokens_per_s > spanning.tokens_per_s);
}

#[test]
fn microbatch_scaling_helps_fsdp_and_hurts_deep_pp() {
    // §5: mb1 -> mb4 speeds up TP8-FSDP but slows pipeline-heavy configs.
    let cluster = hgx_h200_with_nodes(2);
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(16);
    let fsdp_mb1 = run(&cluster, &job.clone().with_microbatch(1), "TP8-FSDP2");
    let fsdp_mb4 = run(&cluster, &job.clone().with_microbatch(4), "TP8-FSDP2");
    assert!(
        fsdp_mb4.tokens_per_s > 1.5 * fsdp_mb1.tokens_per_s,
        "fsdp mb4 {} vs mb1 {}",
        fsdp_mb4.tokens_per_s,
        fsdp_mb1.tokens_per_s
    );
    let pp_job = job.with_recompute(true);
    let pp_mb1 = run(&cluster, &pp_job.clone().with_microbatch(1), "TP2-PP8");
    let pp_mb4 = run(&cluster, &pp_job.with_microbatch(4), "TP2-PP8");
    assert!(
        pp_mb4.tokens_per_s < pp_mb1.tokens_per_s,
        "deep PP should lose throughput at mb4: {} vs {}",
        pp_mb4.tokens_per_s,
        pp_mb1.tokens_per_s
    );
}

#[test]
fn chunked_p2p_recovers_pipeline_bandwidth() {
    // The §4.2 recommendation: chunking cross-node SendRecv helps TP+PP.
    let cluster = hgx_h200_with_nodes(2);
    let base = TrainJob::pretrain(gpt3_13b())
        .with_global_batch(8)
        .with_recompute(true);
    let mut chunked = base.clone();
    chunked.optim.chunked_p2p = true;
    let mono = run(&cluster, &base, "TP8-PP2");
    let chk = run(&cluster, &chunked, "TP8-PP2");
    // At this scale most SendRecv time is pipeline stall, so the wire-time
    // saving is small — but chunking must never hurt, and the flow-level
    // store-and-forward penalty is asserted directly in charllm-net.
    let sendrecv = |r: &charllm::RunReport| r.mean_kernel_time().get(KernelClass::SendRecv);
    assert!(
        sendrecv(&chk) <= sendrecv(&mono) * 1.01,
        "chunked sendrecv {:.3}s vs unchunked {:.3}s",
        sendrecv(&chk),
        sendrecv(&mono)
    );
    assert!(chk.step_time_s <= mono.step_time_s * 1.01);
}

#[test]
fn cc_overlap_raises_power_and_temperature() {
    // §4.3: overlap increases utilization and thermal stress.
    let cluster = single_hgx_node();
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(16);
    let base = run(&cluster, &job, "TP4-PP2");
    let cc = run(&cluster, &job.clone().with_cc_overlap(true), "TP4-PP2");
    assert!(cc.mean_power_w >= base.mean_power_w * 0.98);
    assert!(cc.peak_temp_c >= base.peak_temp_c - 0.5);
}

#[test]
fn lora_is_dramatically_more_efficient() {
    // §4.3: LoRA lifts training efficiency by an order of magnitude when
    // gradient synchronization crosses nodes (DP group spans the fabric).
    let cluster = hgx_h200_with_nodes(2);
    let arch = gpt3_13b();
    let full = TrainJob::pretrain(arch.clone()).with_global_batch(8);
    let lora = TrainJob::lora_finetune(arch).with_global_batch(8);
    let r_full = run(&cluster, &full, "TP8-PP1");
    let r_lora = run(&cluster, &lora, "TP8-PP1");
    assert!(
        r_lora.tokens_per_joule > 3.0 * r_full.tokens_per_joule,
        "lora {:.3} vs full {:.3} tok/J",
        r_lora.tokens_per_joule,
        r_full.tokens_per_joule
    );
}

#[test]
fn deeper_pipelines_draw_more_power_than_tp_heavy() {
    // §4.2/Fig 4: PP-heavy configs are compute-dense and hotter; TP-heavy
    // draw less power (communication-dominated).
    let cluster = hgx_h200_with_nodes(2);
    // Enough microbatches (32) that the deep pipeline actually fills.
    let job = TrainJob::pretrain(gpt3_13b())
        .with_global_batch(64)
        .with_recompute(true);
    let pp = run(&cluster, &job, "TP1-PP8");
    let tp = run(&cluster, &job, "TP8-PP2");
    assert!(
        pp.mean_power_w > tp.mean_power_w,
        "PP-heavy {:.0}W vs TP-heavy {:.0}W",
        pp.mean_power_w,
        tp.mean_power_w
    );
}

#[test]
fn rear_gpus_run_hotter_and_take_all_the_throttling() {
    // §6/Fig 17: on the H200 cluster the exhaust-row GPUs (odd device
    // ids) run hotter than their intake partners in a compute-dense run,
    // and the throttle residency lands on them alone.
    let cluster = hgx_h200_cluster();
    let job = TrainJob::pretrain(gpt3_13b())
        .with_global_batch(8)
        .with_recompute(true);
    let r = run(&cluster, &job, "TP2-PP4");
    let (rear, front) = rear_and_front(&cluster);
    let temp = |g| r.sim.telemetry.temp(g).mean();
    let (rear_c, front_c) = (group_mean(&rear, temp), group_mean(&front, temp));
    assert!(
        rear_c > front_c,
        "rear {rear_c:.1} C vs front {front_c:.1} C"
    );
    let throttled: Vec<usize> = (0..cluster.num_gpus())
        .filter(|&g| r.sim.throttle_ratio[g] > 0.0)
        .collect();
    assert!(!throttled.is_empty(), "no GPU throttled");
    assert!(
        throttled.iter().all(|g| rear.contains(g)),
        "front GPUs throttled: {throttled:?}"
    );
}

#[test]
fn paired_mi250_gcds_show_an_intra_package_skew() {
    // §6/Fig 18: the downstream GCD of each MI250 package runs 5-10 C
    // hotter than its upstream partner.
    let cluster = mi250_cluster();
    let job = TrainJob::pretrain(gpt3_13b())
        .with_global_batch(8)
        .with_recompute(true);
    let r = run(&cluster, &job, "TP2-PP4");
    let temp = |g: usize| r.sim.telemetry.temp(g).mean();
    let skews: Vec<f64> = (0..cluster.num_gpus() / 2)
        .map(|p| temp(2 * p + 1) - temp(2 * p))
        .collect();
    assert!(skews.iter().all(|&s| s > 0.0), "skews {skews:?}");
    let mean = skews.iter().sum::<f64>() / skews.len() as f64;
    assert!((5.0..10.0).contains(&mean), "mean skew {mean:.2} C");
}

#[test]
fn the_rear_front_gap_holds_at_every_sample() {
    // §6/Fig 19: rear GPUs stay hotter than front GPUs through training,
    // with no cooldown window closing the gap.
    let cluster = hgx_h200_cluster();
    let job = TrainJob::pretrain(mixtral_8x7b())
        .with_global_batch(8)
        .with_recompute(true);
    let cfg = SimConfig {
        iterations: 2,
        warmup_iterations: 1,
        ..SimConfig::fast()
    };
    let r = run_with(&cluster, &job, "EP8-TP1-PP4", cfg);
    let (rear, front) = rear_and_front(&cluster);
    let warm_s = r.sim.iteration_times_s[0];
    let times = r.sim.telemetry.times();
    let after: Vec<usize> = (0..times.len()).filter(|&i| times[i] >= warm_s).collect();
    assert!(after.len() >= 10, "{} samples after warm-up", after.len());
    for i in after {
        let temp = |g| r.sim.telemetry.temp(g).value(i);
        let (rear_c, front_c) = (group_mean(&rear, temp), group_mean(&front, temp));
        assert!(
            rear_c > front_c,
            "t {:.2} s: rear {rear_c:.1} C vs front {front_c:.1} C",
            times[i]
        );
    }
}
