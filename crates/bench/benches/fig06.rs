//! Figure 6: aggregate PCIe throughput over time across the 8 GPUs of one
//! H200 node during GPT3-175B training, TP8-PP4 (left) vs TP2-PP16 (right).

use charllm::prelude::*;
use charllm_bench::{banner, bench_job, save_json, try_run};
use charllm_telemetry::TimeSeries;

fn main() {
    banner(
        "Figure 6",
        "aggregate node PCIe throughput over time, TP8-PP4 vs TP2-PP16",
    );
    let cluster = hgx_h200_cluster();
    let job = bench_job(gpt3_175b()).with_recompute(true);
    let mut json = serde_json::Map::new();
    for label in ["TP8-PP4", "TP2-PP16"] {
        let spec = ParallelismSpec::parse(label, cluster.num_gpus()).expect("paper config");
        let Some(r) = try_run(&cluster, &job, spec) else {
            continue;
        };
        // Sum PCIe throughput over node 0's GPUs at each sample.
        let mut agg = TimeSeries::new();
        let telem = &r.sim.telemetry;
        for (i, &t) in telem.times().iter().enumerate() {
            let total: f64 = (0..8).map(|g| telem.pcie(g).value(i)).sum();
            agg.push(t, total);
        }
        let stats = agg.series();
        println!("\n--- {label}: node-0 aggregate PCIe GB/s (sampled) ---");
        println!(
            "samples {:>5}  mean {:>7.3}  peak {:>7.3}  p95 {:>7.3}",
            agg.len(),
            stats.mean(),
            stats.peak(),
            stats.percentile(95.0)
        );
        // Print a coarse sparkline-style series (every ~20th sample).
        let stride = (agg.len() / 24).max(1);
        let series: Vec<String> = stats
            .iter()
            .step_by(stride)
            .map(|(t, v)| format!("{t:.1}s:{v:.2}"))
            .collect();
        println!("{}", series.join("  "));
        json.insert(
            label.to_string(),
            serde_json::json!({
                "mean_gbps": stats.mean(),
                "peak_gbps": stats.peak(),
                "t": agg.times(),
                "gbps": agg.values(),
            }),
        );
    }
    save_json("fig06", &serde_json::Value::Object(json));
    println!(
        "\nExpected shape: TP2-PP16 transfers larger chunks over fewer\n\
         endpoints, sustaining higher aggregate PCIe throughput than TP8-PP4,\n\
         whose sparse unchunked SendRecv underutilizes the links."
    );
}
