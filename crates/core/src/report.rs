//! Run reports: one experiment's metrics in figure-ready form.

use serde::{Deserialize, Serialize};

use charllm_sim::{KernelBreakdown, SimResult};
use charllm_telemetry::{Phase, Profile};

/// The outcome of one experiment: identification metadata, the headline
/// metrics every figure plots, front-vs-rear thermal grouping (§6), and the
/// full [`SimResult`] for detailed analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Free-form label (model + config + optimizations).
    pub label: String,
    /// Cluster name (e.g. `"32xH200"`).
    pub cluster: String,
    /// Model name.
    pub model: String,
    /// Parallelism label (e.g. `"TP2-PP16"`).
    pub parallelism: String,
    /// Optimization label (`Base`, `cc`, `act`, `cc+act`, `lora`).
    pub optimization: String,
    /// Microbatch size.
    pub microbatch: usize,

    /// Mean training-step time, seconds.
    pub step_time_s: f64,
    /// Throughput, tokens/second.
    pub tokens_per_s: f64,
    /// Throughput per GPU, tokens/second/GPU.
    pub tokens_per_s_per_gpu: f64,
    /// Energy efficiency, tokens/joule.
    pub tokens_per_joule: f64,
    /// Energy per step, joules.
    pub energy_per_step_j: f64,

    /// Cluster-mean average GPU power, watts.
    pub mean_power_w: f64,
    /// Peak GPU power, watts.
    pub peak_power_w: f64,
    /// Cluster-mean average GPU temperature, °C.
    pub mean_temp_c: f64,
    /// Peak GPU temperature, °C.
    pub peak_temp_c: f64,
    /// Cluster-mean average clock, MHz.
    pub mean_freq_mhz: f64,
    /// Mean temperature of intake-row (front) GPUs, °C.
    pub front_temp_c: f64,
    /// Mean temperature of exhaust-row (rear) GPUs, °C.
    pub rear_temp_c: f64,
    /// Mean throttle residency across GPUs.
    pub mean_throttle: f64,
    /// Worst single-GPU throttle residency.
    pub max_throttle: f64,

    /// Hit/miss counts against the sweep's [`SimCache`](crate::SimCache)
    /// for this run (`None` when the experiment ran uncached).
    pub cache: Option<crate::CacheStats>,

    /// Span-level phase and energy attribution; `None` unless the run was
    /// profiled ([`ExperimentBuilder::profiled`](crate::ExperimentBuilder::profiled)).
    pub profile: Option<Profile>,

    /// Full simulation result (kernel breakdowns, traffic, telemetry).
    pub sim: SimResult,
}

impl RunReport {
    /// Mean kernel-class breakdown across ranks.
    pub fn mean_kernel_time(&self) -> KernelBreakdown {
        self.sim.mean_kernel_time()
    }

    /// Rear-vs-front relative temperature gap (`(rear-front)/front`), the
    /// Fig. 17a differential.
    pub fn thermal_gap(&self) -> f64 {
        if self.front_temp_c <= 0.0 {
            0.0
        } else {
            (self.rear_temp_c - self.front_temp_c) / self.front_temp_c
        }
    }

    /// Short single-line summary for terminal output.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<28} {:>9.1} tok/s  {:>7.2} tok/J  {:>6.2}s/step  {:>5.0}W avg  {:>5.1}C peak  thr {:>4.1}%",
            format!("{} {}", self.parallelism, self.optimization),
            self.tokens_per_s,
            self.tokens_per_joule,
            self.step_time_s,
            self.mean_power_w,
            self.peak_temp_c,
            self.mean_throttle * 100.0
        )
    }

    /// Serialize to pretty JSON (for the artifact-style result files).
    ///
    /// # Panics
    ///
    /// Never panics: all fields are serializable.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report is serializable")
    }

    /// Render the run's phase attribution (per-phase table + top spans), or
    /// a one-line note when the run was not profiled.
    pub fn profile_summary(&self) -> String {
        match &self.profile {
            Some(profile) => format!("{}\n{}", phase_table(profile), top_spans_table(profile, 10)),
            None => "(no profile: run with profiling enabled)".to_string(),
        }
    }
}

/// Render a cluster-level per-phase wall-time/energy table (the paper's
/// Fig. 4-style breakdown, plus the energy split across the same buckets).
pub fn phase_table(profile: &Profile) -> String {
    let total = profile.cluster_total();
    let secs = total.total_seconds().max(1e-12);
    let joules = total.total_energy_j();
    let mut out = String::from("phase            time[s]  time%   energy[J]  energy%\n");
    for phase in Phase::all() {
        let s = total.seconds(phase);
        let e = total.energy_j(phase);
        let e_pct = if joules > 0.0 {
            100.0 * e / joules
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<16} {:>8.3} {:>6.1} {:>11.1} {:>8.1}\n",
            phase.to_string(),
            s,
            100.0 * s / secs,
            e,
            e_pct,
        ));
    }
    out.push_str(&format!(
        "ranks {}  makespan {:.3}s  measured energy {:.1}J",
        profile.world(),
        profile.makespan_s,
        joules,
    ));
    out
}

/// Render the top-`k` kernels/collectives by total busy time across ranks.
pub fn top_spans_table(profile: &Profile, k: usize) -> String {
    let mut out = String::from("top spans         busy[s]   count\n");
    for span in profile.top_spans.iter().take(k) {
        out.push_str(&format!(
            "{:<16} {:>8.3} {:>7}\n",
            span.label, span.seconds, span.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            label: "x".into(),
            cluster: "32xH200".into(),
            model: "GPT3-175B".into(),
            parallelism: "TP8-PP4".into(),
            optimization: "Base".into(),
            microbatch: 1,
            step_time_s: 10.0,
            tokens_per_s: 26214.4,
            tokens_per_s_per_gpu: 819.2,
            tokens_per_joule: 1.5,
            energy_per_step_j: 170_000.0,
            mean_power_w: 520.0,
            peak_power_w: 700.0,
            mean_temp_c: 66.0,
            peak_temp_c: 84.0,
            mean_freq_mhz: 1900.0,
            front_temp_c: 62.0,
            rear_temp_c: 78.0,
            mean_throttle: 0.12,
            max_throttle: 0.4,
            cache: None,
            profile: None,
            sim: charllm_sim::SimResult {
                step_time_s: 10.0,
                iteration_times_s: vec![10.0],
                tokens_per_s: 26214.4,
                energy_per_step_j: 170_000.0,
                tokens_per_joule: 1.5,
                kernel_time: vec![],
                traffic: charllm_sim::TrafficMatrix::new(0),
                telemetry: charllm_telemetry::TelemetryStore::new(0),
                throttle_ratio: vec![],
                thermal_throttle_ratio: vec![],
                occupancy: vec![],
                sim_time_s: 30.0,
                goodput_tokens_per_s: 26214.4,
                energy_wasted_j: 0.0,
                restarts: 0,
                fault_downtime_s: 0.0,
            },
        }
    }

    #[test]
    fn thermal_gap_matches_definition() {
        let r = dummy();
        assert!((r.thermal_gap() - (78.0 - 62.0) / 62.0).abs() < 1e-12);
    }

    #[test]
    fn summary_line_mentions_config() {
        let s = dummy().summary_line();
        assert!(s.contains("TP8-PP4"));
        assert!(s.contains("tok/s"));
    }

    #[test]
    fn json_roundtrip() {
        let r = dummy();
        let json = r.to_json();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.parallelism, r.parallelism);
        assert_eq!(back.tokens_per_s, r.tokens_per_s);
    }
}
