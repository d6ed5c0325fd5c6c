//! Simulation results: the quantities the paper's figures plot.

use serde::{Deserialize, Serialize};

use charllm_hw::LinkClass;
use charllm_telemetry::TelemetryStore;
use charllm_trace::KernelClass;

/// Busy seconds per kernel class (one rank, measured iterations).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelBreakdown {
    seconds: [f64; 10],
}

impl KernelBreakdown {
    /// Index of a class in the fixed layout (the [`KernelClass::all`]
    /// order). A constant match, not a `position` search: `add` sits on the
    /// per-event accounting path of both engines.
    fn idx(class: KernelClass) -> usize {
        match class {
            KernelClass::Gemm => 0,
            KernelClass::Attention => 1,
            KernelClass::Recompute => 2,
            KernelClass::OtherCompute => 3,
            KernelClass::SendRecv => 4,
            KernelClass::AllReduce => 5,
            KernelClass::AllGather => 6,
            KernelClass::ReduceScatter => 7,
            KernelClass::AllToAll => 8,
            KernelClass::Idle => 9,
        }
    }

    /// Add busy time to a class.
    pub fn add(&mut self, class: KernelClass, seconds: f64) {
        self.seconds[Self::idx(class)] += seconds;
    }

    /// Busy time of a class.
    pub fn get(&self, class: KernelClass) -> f64 {
        self.seconds[Self::idx(class)]
    }

    /// Total busy time (excluding [`KernelClass::Idle`]).
    pub fn busy_total(&self) -> f64 {
        KernelClass::all()
            .iter()
            .filter(|c| **c != KernelClass::Idle)
            .map(|c| self.get(*c))
            .sum()
    }

    /// Total communication time.
    pub fn comm_total(&self) -> f64 {
        KernelClass::all()
            .iter()
            .filter(|c| c.is_comm())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Total compute time.
    pub fn compute_total(&self) -> f64 {
        self.busy_total() - self.comm_total()
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &KernelBreakdown) -> KernelBreakdown {
        let mut out = self.clone();
        for i in 0..out.seconds.len() {
            out.seconds[i] += other.seconds[i];
        }
        out
    }

    /// Scale all buckets (e.g. averaging across ranks).
    pub fn scaled(&self, factor: f64) -> KernelBreakdown {
        let mut out = self.clone();
        for s in &mut out.seconds {
            *s *= factor;
        }
        out
    }
}

/// Per-GPU traffic by link class, bytes over the measured iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    bytes: Vec<[f64; 6]>,
}

impl TrafficMatrix {
    /// An all-zero matrix covering `num_gpus` GPUs.
    pub fn new(num_gpus: usize) -> Self {
        TrafficMatrix {
            bytes: vec![[0.0; 6]; num_gpus],
        }
    }

    fn idx(class: LinkClass) -> usize {
        match class {
            LinkClass::NvLink => 0,
            LinkClass::XgmiPackage => 1,
            LinkClass::XgmiPort => 2,
            LinkClass::Pcie => 3,
            LinkClass::Nic => 4,
            LinkClass::Switch => 5,
        }
    }

    pub(crate) fn add(&mut self, gpu: usize, class: LinkClass, bytes: f64) {
        self.bytes[gpu][Self::idx(class)] += bytes;
    }

    /// Overwrite one GPU's row with a copy of another's (symmetry-folded
    /// result expansion).
    pub(crate) fn copy_gpu(&mut self, from: usize, to: usize) {
        if from != to {
            self.bytes[to] = self.bytes[from];
        }
    }

    /// Traffic of one GPU on one link class, bytes.
    pub fn get(&self, gpu: usize, class: LinkClass) -> f64 {
        self.bytes[gpu][Self::idx(class)]
    }

    /// Fabric (NVLink/xGMI) traffic of a GPU, bytes.
    pub fn fabric(&self, gpu: usize) -> f64 {
        self.get(gpu, LinkClass::NvLink)
            + self.get(gpu, LinkClass::XgmiPackage)
            + self.get(gpu, LinkClass::XgmiPort)
    }

    /// PCIe-visible traffic of a GPU (PCIe staging for inter-node), bytes.
    pub fn pcie(&self, gpu: usize) -> f64 {
        self.get(gpu, LinkClass::Pcie)
    }

    /// Total traffic of a GPU across classes.
    pub fn total(&self, gpu: usize) -> f64 {
        self.bytes[gpu].iter().sum()
    }

    /// Number of GPUs covered.
    pub fn num_gpus(&self) -> usize {
        self.bytes.len()
    }
}

/// Time-averaged occupancy proxies per GPU (Fig. 20).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OccupancyStats {
    /// Fraction of time any kernel was resident.
    pub occupancy: f64,
    /// Average concurrent warp pressure (0..~1.2).
    pub warps: f64,
    /// Average concurrent threadblock pressure (0..~1.2).
    pub threadblocks: f64,
}

/// Everything an engine computes in one run. Post-processing of a run, such
/// as span-level phase and energy attribution
/// ([`charllm_telemetry::phase::attribute`] over a recorded run), lives with
/// whoever recorded the spans (`RunReport::profile` in the `charllm`
/// crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Mean measured iteration (training-step) time, seconds.
    pub step_time_s: f64,
    /// Per-iteration wall-clock times (all iterations, including warmup).
    pub iteration_times_s: Vec<f64>,
    /// Training throughput over measured iterations, tokens/second.
    pub tokens_per_s: f64,
    /// Energy per measured iteration, joules.
    pub energy_per_step_j: f64,
    /// Energy efficiency, tokens per joule.
    pub tokens_per_joule: f64,
    /// Per-rank kernel-class busy time over measured iterations.
    pub kernel_time: Vec<KernelBreakdown>,
    /// Per-GPU traffic by link class over measured iterations.
    pub traffic: TrafficMatrix,
    /// Sampled telemetry time series (full run including warmup).
    pub telemetry: TelemetryStore,
    /// Per-GPU throttle residency (any reason) over the whole run.
    pub throttle_ratio: Vec<f64>,
    /// Per-GPU thermal throttle residency.
    pub thermal_throttle_ratio: Vec<f64>,
    /// Per-GPU occupancy proxies.
    pub occupancy: Vec<OccupancyStats>,
    /// Total simulated time, seconds.
    pub sim_time_s: f64,
    /// Useful-token throughput net of failures: measured tokens over the
    /// gross measured window *including* recovery outages and re-computed
    /// lost work, scaled by any elastic-shrink capacity loss. Equals
    /// [`SimResult::tokens_per_s`] exactly when no fault fired.
    pub goodput_tokens_per_s: f64,
    /// Energy consumed during fault outages (restart, lost-work redo,
    /// reconfiguration) — spent without producing retained tokens. Joules.
    pub energy_wasted_j: f64,
    /// Number of fail-stop recoveries performed.
    pub restarts: u64,
    /// Total simulated time lost to fault outages, seconds.
    pub fault_downtime_s: f64,
}

/// FNV-1a 64-bit over `bytes`. Its value is fixed by construction (unlike
/// `std`'s `DefaultHasher`, whose algorithm is unspecified across
/// releases), so it can pin serialized results and address files on disk.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl SimResult {
    /// Mean kernel breakdown across ranks.
    pub fn mean_kernel_time(&self) -> KernelBreakdown {
        if self.kernel_time.is_empty() {
            return KernelBreakdown::default();
        }
        let sum = self
            .kernel_time
            .iter()
            .fold(KernelBreakdown::default(), |acc, k| acc.merged(k));
        sum.scaled(1.0 / self.kernel_time.len() as f64)
    }

    /// Training efficiency normalized per GPU: tokens/s/GPU.
    pub fn tokens_per_s_per_gpu(&self) -> f64 {
        if self.kernel_time.is_empty() {
            0.0
        } else {
            self.tokens_per_s / self.kernel_time.len() as f64
        }
    }

    /// Mean energy wasted per fail-stop recovery, joules (0.0 when the run
    /// had no restarts).
    pub fn energy_wasted_per_failure_j(&self) -> f64 {
        if self.restarts == 0 {
            0.0
        } else {
            self.energy_wasted_j / self.restarts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut k = KernelBreakdown::default();
        k.add(KernelClass::Gemm, 2.0);
        k.add(KernelClass::AllReduce, 1.0);
        k.add(KernelClass::Gemm, 0.5);
        assert_eq!(k.get(KernelClass::Gemm), 2.5);
        assert_eq!(k.comm_total(), 1.0);
        assert_eq!(k.compute_total(), 2.5);
        assert_eq!(k.busy_total(), 3.5);
    }

    #[test]
    fn idle_not_counted_as_busy() {
        let mut k = KernelBreakdown::default();
        k.add(KernelClass::Idle, 10.0);
        assert_eq!(k.busy_total(), 0.0);
        assert_eq!(k.get(KernelClass::Idle), 10.0);
    }

    #[test]
    fn merged_and_scaled() {
        let mut a = KernelBreakdown::default();
        a.add(KernelClass::Gemm, 2.0);
        let mut b = KernelBreakdown::default();
        b.add(KernelClass::Gemm, 4.0);
        let m = a.merged(&b).scaled(0.5);
        assert_eq!(m.get(KernelClass::Gemm), 3.0);
    }

    #[test]
    fn traffic_matrix_accumulates_by_class() {
        let mut t = TrafficMatrix::new(2);
        t.add(0, LinkClass::NvLink, 100.0);
        t.add(0, LinkClass::Pcie, 50.0);
        t.add(1, LinkClass::XgmiPackage, 10.0);
        assert_eq!(t.fabric(0), 100.0);
        assert_eq!(t.pcie(0), 50.0);
        assert_eq!(t.total(0), 150.0);
        assert_eq!(t.fabric(1), 10.0);
    }
}
