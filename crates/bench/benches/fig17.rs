//! Figure 17: thermal distribution and normalized clock-throttling heatmaps
//! across GPUs of the H200 cluster.

use charllm::prelude::*;
use charllm_bench::{banner, bench_job, feasible, save_json, try_run};
use charllm_telemetry::Heatmap;

fn main() {
    banner(
        "Figure 17",
        "H200 per-GPU temperature and normalized throttling heatmaps",
    );
    let cluster = hgx_h200_cluster();
    let arch = gpt3_175b();
    let job = bench_job(arch.clone()).with_recompute(true);
    let cols: Vec<String> = (0..cluster.num_gpus()).map(|g| format!("g{g}")).collect();
    let mut temp_rows = Vec::new();
    let mut throttle_rows = Vec::new();
    let mut labels = Vec::new();
    for spec in paper_parallelisms(&arch, cluster.num_gpus()) {
        if !feasible(&job, &spec, &cluster) {
            continue;
        }
        if let Some(r) = try_run(&cluster, &job, spec) {
            temp_rows.push(
                (0..cluster.num_gpus())
                    .map(|g| r.sim.telemetry.temp(g).mean())
                    .collect::<Vec<_>>(),
            );
            throttle_rows.push(r.sim.throttle_ratio.clone());
            labels.push(r.parallelism.clone());
        }
    }
    // GPUs that throttled in any row, before the rows are normalized.
    let throttled: Vec<usize> = (0..cluster.num_gpus())
        .filter(|&g| throttle_rows.iter().any(|row| row[g] > 0.0))
        .collect();
    let temp = Heatmap::new(labels.clone(), cols.clone(), temp_rows);
    let throttle = Heatmap::new(labels, cols, throttle_rows).normalized_rows();
    println!("\n(a) average GPU temperature, deg C:");
    print!("{}", temp.to_ascii());
    println!("(b) normalized throttle residency (row min=0, max=1):");
    print!("{}", throttle.to_ascii());

    // The headline differential: rear vs front groups.
    let airflow = &cluster.node_layout().airflow;
    let mut worst_gap: f64 = 0.0;
    for row in 0..temp.rows.len() {
        let (mut front, mut rear, mut nf, mut nr) = (0.0, 0.0, 0, 0);
        for g in 0..cluster.num_gpus() {
            let slot = cluster.slot_of(charllm_hw::GpuId(g as u32));
            if airflow.is_rear(slot) {
                rear += temp.get(row, g);
                nr += 1;
            } else {
                front += temp.get(row, g);
                nf += 1;
            }
        }
        let gap = (rear / nr as f64 - front / nf as f64) / (front / nf as f64);
        worst_gap = worst_gap.max(gap);
    }
    println!(
        "\nworst rear-vs-front temperature differential: {:.1}%",
        worst_gap * 100.0
    );
    save_json(
        "fig17",
        &serde_json::json!({
            "temperature_csv": temp.to_csv(),
            "throttle_normalized_csv": throttle.to_csv(),
            "worst_rear_front_gap": worst_gap,
        }),
    );
    println!(
        "\nExpected shape: exhaust-row GPUs (odd device IDs) run consistently\n\
         hotter — up to ~27% in the paper — and absorb most of the\n\
         throttling, with the imbalance worst in compute-dense deep-PP rows."
    );
    assert!(worst_gap > 0.0, "no row runs its rear GPUs hotter");
    assert!(!throttled.is_empty(), "no GPU throttled");
    assert!(
        throttled
            .iter()
            .all(|&g| airflow.is_rear(cluster.slot_of(charllm_hw::GpuId(g as u32)))),
        "front GPUs throttled: {throttled:?}"
    );
    println!("fig17 shape: OK");
}
