//! Insight analyses: executable versions of the paper's qualitative claims.
//!
//! - [`table2_row`] reproduces Table 2: the direction each technique
//!   moves training time, memory and communication, *measured* from
//!   simulation + the memory model instead of asserted;
//! - [`crossover`] detects the §4.1 scale-up vs. scale-out crossover from
//!   two report sets.

use serde::{Deserialize, Serialize};

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::{rank_memory, ParallelismSpec, StagePartition};
use charllm_sim::SimConfig;

use crate::error::CoreError;
use crate::experiment::Experiment;
use crate::report::RunReport;

/// Direction of an effect relative to a baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Strong increase (≥ +25 %).
    StrongUp,
    /// Increase (+5 %..+25 %).
    Up,
    /// Within ±5 %.
    Neutral,
    /// Decrease (−25 %..−5 %).
    Down,
    /// Strong decrease (≤ −25 %).
    StrongDown,
}

impl Direction {
    /// Classify a relative change `(new - base) / base`.
    pub fn of(rel_change: f64) -> Self {
        if rel_change >= 0.25 {
            Direction::StrongUp
        } else if rel_change >= 0.05 {
            Direction::Up
        } else if rel_change <= -0.25 {
            Direction::StrongDown
        } else if rel_change <= -0.05 {
            Direction::Down
        } else {
            Direction::Neutral
        }
    }

    /// The paper's arrow notation.
    pub fn arrow(self) -> &'static str {
        match self {
            Direction::StrongUp => "^^",
            Direction::Up => "^",
            Direction::Neutral => "-",
            Direction::Down => "v",
            Direction::StrongDown => "vv",
        }
    }

    /// Whether the direction is (strongly or weakly) an increase.
    pub fn is_up(self) -> bool {
        matches!(self, Direction::Up | Direction::StrongUp)
    }

    /// Whether the direction is (strongly or weakly) a decrease.
    pub fn is_down(self) -> bool {
        matches!(self, Direction::Down | Direction::StrongDown)
    }
}

/// One measured Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Technique label (e.g. `"TP"`, `"act"`).
    pub technique: String,
    /// Effect on training *performance* (throughput), matching the paper's
    /// Perf column: ↑ = faster.
    pub perf: Direction,
    /// Effect on per-rank memory footprint.
    pub memory: Direction,
    /// Effect on communication volume per rank.
    pub comm: Direction,
    /// Relative throughput change backing the Perf arrow.
    pub perf_change: f64,
    /// Relative memory change.
    pub memory_change: f64,
    /// Relative communication change.
    pub comm_change: f64,
}

/// Measure one Table 2 row: run `baseline` and `variant` (each a job ×
/// parallelism × cluster triple) and compare throughput, modeled per-rank
/// memory, and simulated per-rank communication volume.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn table2_row(
    technique: &str,
    baseline: (&TrainJob, ParallelismSpec, &Cluster),
    variant: (&TrainJob, ParallelismSpec, &Cluster),
    sim: SimConfig,
) -> Result<Table2Row, CoreError> {
    let run = |job: &TrainJob,
               spec: ParallelismSpec,
               cluster: &Cluster|
     -> Result<(RunReport, u64), CoreError> {
        let report = Experiment::builder()
            .cluster(cluster.clone())
            .job(job.clone())
            .spec(spec)
            .sim_config(sim)
            .run()?;
        let partition = StagePartition::even(job.arch.num_layers, spec.pp)?;
        let mem = rank_memory(job, &spec, &partition).total();
        Ok((report, mem))
    };
    let (base_report, base_mem) = run(baseline.0, baseline.1, baseline.2)?;
    let (var_report, var_mem) = run(variant.0, variant.1, variant.2)?;

    // Per-rank communication volume (totals would reward merely adding
    // GPUs when the two sides use different cluster sizes).
    let comm = |r: &RunReport| -> f64 {
        let n = r.sim.traffic.num_gpus().max(1);
        (0..n).map(|g| r.sim.traffic.total(g)).sum::<f64>() / n as f64
    };
    // Throughput direction, matching the paper's Perf column.
    let perf_change = var_report.tokens_per_s / base_report.tokens_per_s - 1.0;
    let memory_change = var_mem as f64 / base_mem as f64 - 1.0;
    let base_comm = comm(&base_report).max(1.0);
    let comm_change = comm(&var_report) / base_comm - 1.0;

    Ok(Table2Row {
        technique: technique.to_string(),
        perf: Direction::of(perf_change),
        memory: Direction::of(memory_change),
        comm: Direction::of(comm_change),
        perf_change,
        memory_change,
        comm_change,
    })
}

/// A scale-up vs. scale-out comparison point (§4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossoverPoint {
    /// Configuration label.
    pub config: String,
    /// Scale-up throughput, tokens/s.
    pub scale_up_tokens_per_s: f64,
    /// Scale-out throughput, tokens/s.
    pub scale_out_tokens_per_s: f64,
    /// Scale-up efficiency, tokens/J.
    pub scale_up_tokens_per_joule: f64,
    /// Scale-out efficiency, tokens/J.
    pub scale_out_tokens_per_joule: f64,
}

impl CrossoverPoint {
    /// Whether the scale-up system wins on throughput here.
    pub fn scale_up_wins_perf(&self) -> bool {
        self.scale_up_tokens_per_s > self.scale_out_tokens_per_s
    }
}

/// Pair up reports from a scale-up and a scale-out cluster by
/// (parallelism, optimization, microbatch) label.
pub fn crossover(scale_up: &[RunReport], scale_out: &[RunReport]) -> Vec<CrossoverPoint> {
    let mut out = Vec::new();
    for up in scale_up {
        let key = (&up.parallelism, &up.optimization, up.microbatch);
        if let Some(down) = scale_out
            .iter()
            .find(|r| (&r.parallelism, &r.optimization, r.microbatch) == key)
        {
            out.push(CrossoverPoint {
                config: format!("{} {}", up.parallelism, up.optimization),
                scale_up_tokens_per_s: up.tokens_per_s,
                scale_out_tokens_per_s: down.tokens_per_s,
                scale_up_tokens_per_joule: up.tokens_per_joule,
                scale_out_tokens_per_joule: down.tokens_per_joule,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_classification() {
        assert_eq!(Direction::of(0.5), Direction::StrongUp);
        assert_eq!(Direction::of(0.1), Direction::Up);
        assert_eq!(Direction::of(0.0), Direction::Neutral);
        assert_eq!(Direction::of(-0.1), Direction::Down);
        assert_eq!(Direction::of(-0.5), Direction::StrongDown);
    }

    #[test]
    fn arrows_match_paper_notation() {
        assert_eq!(Direction::StrongUp.arrow(), "^^");
        assert_eq!(Direction::Neutral.arrow(), "-");
        assert_eq!(Direction::StrongDown.arrow(), "vv");
    }

    #[test]
    fn direction_predicates() {
        assert!(Direction::Up.is_up());
        assert!(Direction::StrongDown.is_down());
        assert!(!Direction::Neutral.is_up());
        assert!(!Direction::Neutral.is_down());
    }

    #[test]
    fn measured_table2_act_row() {
        // Activation recomputation: slower (perf ^), much less memory (vv),
        // comm unchanged (-) — exactly Table 2's "act" row.
        use crate::presets::single_hgx_node;
        use charllm_models::presets as models;
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::parse("TP2-PP4", 8).unwrap();
        let row = table2_row(
            "act",
            (&job, spec, &cluster),
            (&job.clone().with_recompute(true), spec, &cluster),
            SimConfig::fast(),
        )
        .unwrap();
        assert!(row.perf.is_down(), "recompute slows training: {:?}", row);
        assert!(row.memory.is_down(), "recompute saves memory: {:?}", row);
        assert_eq!(row.comm, Direction::Neutral, "comm unchanged: {:?}", row);
    }

    #[test]
    fn crossover_pairs_by_config() {
        fn report(parallelism: &str, tps: f64, cluster: &str) -> RunReport {
            let mut r: RunReport = serde_json::from_str(&template_json()).unwrap();
            r.parallelism = parallelism.to_string();
            r.tokens_per_s = tps;
            r.cluster = cluster.to_string();
            r
        }
        let up = vec![report("TP2-PP16", 100.0, "32xH200")];
        let out = vec![
            report("TP2-PP16", 80.0, "64xH100"),
            report("TP8-PP4", 200.0, "64xH100"),
        ];
        let points = crossover(&up, &out);
        assert_eq!(points.len(), 1);
        assert!(points[0].scale_up_wins_perf());
    }

    fn template_json() -> String {
        let sim = charllm_sim::SimResult {
            step_time_s: 1.0,
            iteration_times_s: vec![1.0],
            tokens_per_s: 1.0,
            energy_per_step_j: 1.0,
            tokens_per_joule: 1.0,
            kernel_time: vec![],
            traffic: charllm_sim::TrafficMatrix::new(0),
            telemetry: charllm_telemetry::TelemetryStore::new(0),
            throttle_ratio: vec![],
            thermal_throttle_ratio: vec![],
            occupancy: vec![],
            sim_time_s: 1.0,
            goodput_tokens_per_s: 1.0,
            energy_wasted_j: 0.0,
            restarts: 0,
            fault_downtime_s: 0.0,
        };
        let r = RunReport {
            label: String::new(),
            cluster: String::new(),
            model: String::new(),
            parallelism: String::new(),
            optimization: "Base".into(),
            microbatch: 1,
            step_time_s: 1.0,
            tokens_per_s: 1.0,
            tokens_per_s_per_gpu: 1.0,
            tokens_per_joule: 1.0,
            energy_per_step_j: 1.0,
            mean_power_w: 1.0,
            peak_power_w: 1.0,
            mean_temp_c: 1.0,
            peak_temp_c: 1.0,
            mean_freq_mhz: 1.0,
            front_temp_c: 1.0,
            rear_temp_c: 1.0,
            mean_throttle: 0.0,
            max_throttle: 0.0,
            cache: None,
            profile: None,
            sim,
        };
        serde_json::to_string(&r).unwrap()
    }
}
