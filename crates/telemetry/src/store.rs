//! Per-GPU telemetry store (the Zeus-equivalent sample sink).

use serde::{Deserialize, Serialize};

use crate::timeseries::TimeSeries;

/// One telemetry sample for one GPU at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSample {
    /// Board power, watts.
    pub power_w: f64,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Core clock, MHz.
    pub freq_mhz: f64,
    /// Kernel-activity utilization in `[0, 1]`.
    pub util: f64,
    /// Instantaneous PCIe/NIC throughput attributable to this GPU, GB/s.
    pub pcie_gbps: f64,
}

/// Sampled time series for every GPU in a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryStore {
    power_w: Vec<TimeSeries>,
    temp_c: Vec<TimeSeries>,
    freq_mhz: Vec<TimeSeries>,
    util: Vec<TimeSeries>,
    pcie_gbps: Vec<TimeSeries>,
}

impl TelemetryStore {
    /// A store for `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        let mk = || vec![TimeSeries::new(); num_gpus];
        TelemetryStore {
            power_w: mk(),
            temp_c: mk(),
            freq_mhz: mk(),
            util: mk(),
            pcie_gbps: mk(),
        }
    }

    /// Number of GPUs tracked.
    pub fn num_gpus(&self) -> usize {
        self.power_w.len()
    }

    /// Record one sample for a GPU.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range or time is non-monotone for the GPU.
    pub fn record(&mut self, gpu: usize, t_s: f64, sample: GpuSample) {
        self.power_w[gpu].push(t_s, sample.power_w);
        self.temp_c[gpu].push(t_s, sample.temp_c);
        self.freq_mhz[gpu].push(t_s, sample.freq_mhz);
        self.util[gpu].push(t_s, sample.util);
        self.pcie_gbps[gpu].push(t_s, sample.pcie_gbps);
    }

    /// Power series of a GPU.
    pub fn power(&self, gpu: usize) -> &TimeSeries {
        &self.power_w[gpu]
    }

    /// Temperature series of a GPU.
    pub fn temp(&self, gpu: usize) -> &TimeSeries {
        &self.temp_c[gpu]
    }

    /// Clock series of a GPU.
    pub fn freq(&self, gpu: usize) -> &TimeSeries {
        &self.freq_mhz[gpu]
    }

    /// Utilization series of a GPU.
    pub fn util(&self, gpu: usize) -> &TimeSeries {
        &self.util[gpu]
    }

    /// PCIe throughput series of a GPU.
    pub fn pcie(&self, gpu: usize) -> &TimeSeries {
        &self.pcie_gbps[gpu]
    }

    /// Overwrite one GPU's series with a copy of another's (symmetry-folded
    /// runs replicate the representative replica's telemetry onto the
    /// replicas they skipped).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_gpu(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        self.power_w[to] = self.power_w[from].clone();
        self.temp_c[to] = self.temp_c[from].clone();
        self.freq_mhz[to] = self.freq_mhz[from].clone();
        self.util[to] = self.util[from].clone();
        self.pcie_gbps[to] = self.pcie_gbps[from].clone();
    }

    /// Total energy across all GPUs, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.power_w.iter().map(TimeSeries::integrate).sum()
    }

    /// Mean of per-GPU average power over the GPUs with samples, watts
    /// (a compact folded store samples only the stepped GPUs).
    pub fn mean_power_w(&self) -> f64 {
        mean(&self.power_w)
    }

    /// Peak instantaneous power of any GPU, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.power_w
            .iter()
            .map(TimeSeries::peak)
            .fold(0.0, f64::max)
    }

    /// Mean of per-GPU average temperature over the GPUs with samples, °C.
    pub fn mean_temp_c(&self) -> f64 {
        mean(&self.temp_c)
    }

    /// Peak temperature of any GPU, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.temp_c.iter().map(TimeSeries::peak).fold(0.0, f64::max)
    }

    /// Mean of per-GPU average clock over the GPUs with samples, MHz.
    pub fn mean_freq_mhz(&self) -> f64 {
        mean(&self.freq_mhz)
    }

    /// Aggregate PCIe throughput series: sums samples across GPUs at each
    /// recorded timestamp (assumes aligned sampling, which the simulator
    /// guarantees).
    pub fn aggregate_pcie(&self) -> TimeSeries {
        let mut out = TimeSeries::new();
        if self.pcie_gbps.is_empty() || self.pcie_gbps[0].is_empty() {
            return out;
        }
        let n = self.pcie_gbps[0].len();
        for i in 0..n {
            let t = self.pcie_gbps[0].times()[i];
            let total: f64 = self
                .pcie_gbps
                .iter()
                .filter_map(|s| s.values().get(i))
                .sum();
            out.push(t, total);
        }
        out
    }
}

/// Mean of the per-GPU series means, skipping GPUs never sampled.
fn mean(series: &[TimeSeries]) -> f64 {
    let v: Vec<f64> = series
        .iter()
        .filter(|s| !s.is_empty())
        .map(TimeSeries::mean)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: f64) -> GpuSample {
        GpuSample {
            power_w: p,
            temp_c: 50.0,
            freq_mhz: 1980.0,
            util: 0.9,
            pcie_gbps: 2.0,
        }
    }

    #[test]
    fn record_and_query() {
        let mut s = TelemetryStore::new(2);
        s.record(0, 0.0, sample(100.0));
        s.record(0, 1.0, sample(200.0));
        s.record(1, 0.0, sample(300.0));
        s.record(1, 1.0, sample(300.0));
        assert_eq!(s.power(0).len(), 2);
        assert!((s.mean_power_w() - 225.0).abs() < 1e-9);
        assert_eq!(s.peak_power_w(), 300.0);
    }

    #[test]
    fn total_energy_sums_gpus() {
        let mut s = TelemetryStore::new(2);
        for gpu in 0..2 {
            s.record(gpu, 0.0, sample(100.0));
            s.record(gpu, 10.0, sample(100.0));
        }
        assert!((s.total_energy_j() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_pcie_sums_across_gpus() {
        let mut s = TelemetryStore::new(3);
        for gpu in 0..3 {
            s.record(gpu, 0.0, sample(1.0));
            s.record(gpu, 1.0, sample(1.0));
        }
        let agg = s.aggregate_pcie();
        assert_eq!(agg.len(), 2);
        assert!((agg.values()[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_store_is_harmless() {
        let s = TelemetryStore::new(0);
        assert_eq!(s.total_energy_j(), 0.0);
        assert_eq!(s.mean_power_w(), 0.0);
        assert!(s.aggregate_pcie().is_empty());
    }
}
