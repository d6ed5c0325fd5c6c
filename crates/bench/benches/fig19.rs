//! Figure 19: thermal and power change over time for GPT and Mixtral
//! training — persistent front-vs-rear imbalance with no cooldown periods.

use charllm::prelude::*;
use charllm_bench::{banner, bench_job, save_json, sim_config, try_run};

fn main() {
    banner(
        "Figure 19",
        "power/temperature time series, front vs rear GPUs",
    );
    let cluster = hgx_h200_cluster();
    let airflow = cluster.node_layout().airflow.clone();
    let mut json = serde_json::Map::new();
    let runs: Vec<(&str, TrainJob, &str)> = vec![
        (
            "GPT3-175B",
            bench_job(gpt3_175b()).with_recompute(true),
            "TP2-PP16",
        ),
        (
            "Mixtral-8x22B",
            bench_job(mixtral_8x22b()).with_recompute(true),
            "EP8-TP1-PP4",
        ),
    ];
    let _ = sim_config();
    for (name, job, label) in runs {
        let Ok(spec) = ParallelismSpec::parse(label, cluster.num_gpus()) else {
            continue;
        };
        let Some(r) = try_run(&cluster, &job, spec) else {
            continue;
        };
        // Average the front group and the rear group at each sample.
        let front: Vec<usize> = (0..cluster.num_gpus())
            .filter(|&g| !airflow.is_rear(g % 8))
            .collect();
        let rear: Vec<usize> = (0..cluster.num_gpus())
            .filter(|&g| airflow.is_rear(g % 8))
            .collect();
        let n = r.sim.telemetry.times().len();
        let avg_at = |group: &[usize], i: usize, temp: bool| -> f64 {
            group
                .iter()
                .map(|&g| {
                    let s = if temp {
                        r.sim.telemetry.temp(g)
                    } else {
                        r.sim.telemetry.power(g)
                    };
                    s.value(i)
                })
                .sum::<f64>()
                / group.len() as f64
        };
        println!("\n--- {name} {label} (sampled every ~10% of the run) ---");
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            "t (s)", "front C", "rear C", "front W", "rear W"
        );
        let stride = (n / 10).max(1);
        let mut series = Vec::new();
        for i in (0..n).step_by(stride) {
            let t = r.sim.telemetry.times()[i];
            let ft = avg_at(&front, i, true);
            let rt = avg_at(&rear, i, true);
            let fp = avg_at(&front, i, false);
            let rp = avg_at(&rear, i, false);
            println!("{t:>8.1} {ft:>10.1} {rt:>10.1} {fp:>10.0} {rp:>10.0}");
            assert!(
                rt > ft,
                "{name} at t {t:.1} s: rear {rt:.1} C not above front {ft:.1} C"
            );
            series.push(serde_json::json!({
                "t": t, "front_c": ft, "rear_c": rt, "front_w": fp, "rear_w": rp,
            }));
        }
        json.insert(name.to_string(), serde_json::Value::Array(series));
    }
    let runs = json.len();
    save_json("fig19", &serde_json::Value::Object(json));
    println!(
        "\nExpected shape: rear GPUs run persistently hotter than front GPUs\n\
         for the whole session with no cooldown windows; power fluctuates\n\
         with the execution phases while the thermal gap endures."
    );
    assert_eq!(runs, 2, "a fig19 run was skipped");
    println!("fig19 shape: OK");
}
