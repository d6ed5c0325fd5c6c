//! Figure 18: thermal distribution and normalized throttling heatmaps on
//! the MI250 cluster, including intra-package GCD skew.

use charllm::prelude::*;
use charllm_bench::{banner, bench_job, feasible, save_json, try_run};
use charllm_telemetry::Heatmap;

fn main() {
    banner(
        "Figure 18",
        "MI250 per-GCD temperature / throttling heatmaps (chiplet skew)",
    );
    let cluster = mi250_cluster();
    let arch = gpt3_30b();
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
    let temp = Heatmap::new(labels.clone(), cols.clone(), temp_rows);
    let throttle = Heatmap::new(labels, cols, throttle_rows).normalized_rows();
    println!("\n(a) average GCD temperature, deg C:");
    print!("{}", temp.to_ascii());
    println!("(b) normalized throttle residency:");
    print!("{}", throttle.to_ascii());

    // Intra-package skew between paired GCDs (2p, 2p+1) on node 0.
    let mut skews = Vec::new();
    for row in 0..temp.rows.len() {
        for pkg in 0..4 {
            skews.push(temp.get(row, 2 * pkg + 1) - temp.get(row, 2 * pkg));
        }
    }
    let mean_skew = skews.iter().sum::<f64>() / skews.len().max(1) as f64;
    println!("\nmean intra-package GCD temperature skew: {mean_skew:.1} C");
    save_json(
        "fig18",
        &serde_json::json!({
            "temperature_csv": temp.to_csv(),
            "throttle_normalized_csv": throttle.to_csv(),
            "mean_intra_package_skew_c": mean_skew,
        }),
    );
    println!(
        "\nExpected shape: 5-10 C skew between paired GCDs of the same package\n\
         (downstream die hotter), compounding with front-vs-rear package\n\
         placement; throttling follows the hotter dies."
    );
    assert!(
        (5.0..10.0).contains(&mean_skew),
        "mean GCD skew {mean_skew:.2} C outside 5-10 C"
    );
    println!("fig18 shape: OK");
}
