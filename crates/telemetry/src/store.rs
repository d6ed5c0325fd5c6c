//! Per-GPU telemetry store (the Zeus-equivalent sample sink).
//!
//! Every sampled GPU is sampled at the same instants, so the store keeps one
//! clock and stores frames by field plane: a plane is one field's values for
//! every sampled GPU in one frame. Frame `i`, recorded at `t[i]`, names one
//! plane per field, and a plane that repeats the previous frame's bit for bit
//! is stored once and named again (through an outage's idle frames only the
//! temperature moves). A GPU's series are [`Series`] views down its column
//! of the planes its frames name.

use serde::{Deserialize, Error, Serialize, Value};

use crate::timeseries::{Series, TimeSeries};

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
    /// PCIe payload throughput of this GPU over the sample window, GB/s:
    /// the payload rate of the flows crossing its PCIe link, held at
    /// whole-byte/s resolution and integrated over the window.
    pub pcie_gbps: f64,
}

/// The sampled quantities, in plane order; also the serialized field names.
const FIELDS: [&str; 5] = ["power_w", "temp_c", "freq_mhz", "util", "pcie_gbps"];
const POWER: usize = 0;
const TEMP: usize = 1;
const FREQ: usize = 2;
const UTIL: usize = 3;
const PCIE: usize = 4;

/// Sampled time series for every GPU in a run.
///
/// Serializes as `{power_w: [{t, v}, ..], temp_c: .., freq_mhz: .., util:
/// .., pcie_gbps: ..}` with one series per GPU; an unsampled GPU's series
/// are empty.
#[derive(Debug, Clone)]
pub struct TelemetryStore {
    /// Sample instants, shared by every sampled GPU.
    t: Vec<f64>,
    /// The distinct field planes, appended as frames arrive: plane `p` is
    /// `planes[p * width..(p + 1) * width]`, one value per sampled GPU.
    planes: Vec<f64>,
    /// Per field (`FIELDS` index), the plane each frame reads: `ids[f][i]`.
    /// A frame whose plane equals the previous frame's bit for bit reuses
    /// its id.
    ids: [Vec<u32>; 5],
    /// The frame being recorded, one `[f64; 5]` row per sampled GPU; kept
    /// so its buffer is reused from frame to frame.
    frame: Vec<[f64; 5]>,
    /// Each GPU's column within a plane; `None` if never sampled. GPUs
    /// aliased by [`TelemetryStore::copy_gpu`] share one.
    column: Vec<Option<usize>>,
    /// The GPUs every frame samples, in column order (fixed by the first
    /// frame); its length is the plane width.
    order: Vec<u32>,
}

impl TelemetryStore {
    /// A store for `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        TelemetryStore {
            t: Vec::new(),
            planes: Vec::new(),
            ids: Default::default(),
            frame: Vec::new(),
            column: vec![None; num_gpus],
            order: Vec::new(),
        }
    }

    /// Number of GPUs tracked.
    pub fn num_gpus(&self) -> usize {
        self.column.len()
    }

    /// The sample instants, shared by every sampled GPU.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Number of distinct field planes stored. A run whose fields never
    /// repeat stores five per frame; an outage frame in which only the
    /// temperature moves adds one.
    pub fn stored_planes(&self) -> usize {
        self.planes.len() / self.order.len().max(1)
    }

    /// Whether a GPU has samples.
    pub(crate) fn is_sampled(&self, gpu: usize) -> bool {
        self.column[gpu].is_some()
    }

    /// Record one frame at `t_s`: `samples` holds one sample per GPU of
    /// `gpus`, in that order. The first frame fixes which GPUs are sampled
    /// and in what order; a later frame's order is checked against it once,
    /// not per sample. Each field's plane is compared with the previous
    /// frame's by bits (so `-0.0` and `0.0`, or two NaN payloads, stay
    /// apart) and stored only if it differs.
    ///
    /// # Panics
    ///
    /// Panics if a GPU is out of range or listed twice, time goes
    /// backwards, a later frame samples other GPUs or another order than
    /// the first, or `samples` does not hold one sample per GPU.
    pub fn record_frame(
        &mut self,
        t_s: f64,
        gpus: &[u32],
        samples: impl IntoIterator<Item = GpuSample>,
    ) {
        if let Some(&last) = self.t.last() {
            assert!(t_s >= last, "time must be non-decreasing: {t_s} < {last}");
            assert!(gpus == self.order, "frame GPUs out of frame order");
        } else {
            for (k, &gpu) in gpus.iter().enumerate() {
                let column = &mut self.column[gpu as usize];
                assert!(column.is_none(), "gpu {gpu} sampled twice");
                *column = Some(k);
            }
            self.order = gpus.to_vec();
        }
        self.frame.clear();
        self.frame.extend(
            samples
                .into_iter()
                .map(|s| [s.power_w, s.temp_c, s.freq_mhz, s.util, s.pcie_gbps]),
        );
        let width = gpus.len();
        assert_eq!(self.frame.len(), width, "one sample per frame GPU");
        for (f, ids) in self.ids.iter_mut().enumerate() {
            let id = ids
                .last()
                .copied()
                .filter(|&p| {
                    self.planes[p as usize * width..][..width]
                        .iter()
                        .zip(&self.frame)
                        .all(|(old, new)| old.to_bits() == new[f].to_bits())
                })
                .unwrap_or_else(|| {
                    let p = self.planes.len() / width.max(1);
                    self.planes.extend(self.frame.iter().map(|row| row[f]));
                    u32::try_from(p).expect("fewer than 2^32 field planes")
                });
            ids.push(id);
        }
        self.t.push(t_s);
    }

    /// One quantity of one GPU (`FIELDS` index).
    fn series(&self, gpu: usize, field: usize) -> Series<'_> {
        let Some(col) = self.column[gpu] else {
            return Series::EMPTY;
        };
        Series::in_planes(
            &self.t,
            &self.ids[field],
            &self.planes[col..],
            self.order.len(),
        )
    }

    /// Power series of a GPU.
    pub fn power(&self, gpu: usize) -> Series<'_> {
        self.series(gpu, POWER)
    }

    /// Temperature series of a GPU.
    pub fn temp(&self, gpu: usize) -> Series<'_> {
        self.series(gpu, TEMP)
    }

    /// Clock series of a GPU.
    pub fn freq(&self, gpu: usize) -> Series<'_> {
        self.series(gpu, FREQ)
    }

    /// Utilization series of a GPU.
    pub fn util(&self, gpu: usize) -> Series<'_> {
        self.series(gpu, UTIL)
    }

    /// PCIe throughput series of a GPU.
    pub fn pcie(&self, gpu: usize) -> Series<'_> {
        self.series(gpu, PCIE)
    }

    /// Make one GPU's series those of another (symmetry-folded runs
    /// replicate the representative replica's telemetry onto the replicas
    /// they skipped). The two GPUs then share one column: nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_gpu(&mut self, from: usize, to: usize) {
        self.column[to] = self.column[from];
    }

    /// Total energy across all GPUs, joules.
    pub fn total_energy_j(&self) -> f64 {
        (0..self.num_gpus())
            .map(|g| self.power(g).integrate())
            .sum()
    }

    /// Mean of per-GPU average power over the GPUs with samples, watts
    /// (a compact folded store samples only the stepped GPUs).
    pub fn mean_power_w(&self) -> f64 {
        self.mean_of(POWER)
    }

    /// Peak instantaneous power of any GPU, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.peak_of(POWER)
    }

    /// Mean of per-GPU average temperature over the GPUs with samples, °C.
    pub fn mean_temp_c(&self) -> f64 {
        self.mean_of(TEMP)
    }

    /// Peak temperature of any GPU, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.peak_of(TEMP)
    }

    /// Mean of per-GPU average clock over the GPUs with samples, MHz.
    pub fn mean_freq_mhz(&self) -> f64 {
        self.mean_of(FREQ)
    }

    /// Aggregate PCIe throughput series: at each sample instant, the sum
    /// over the sampled GPUs.
    pub fn aggregate_pcie(&self) -> TimeSeries {
        let columns: Vec<usize> = self.column.iter().flatten().copied().collect();
        let mut out = TimeSeries::new();
        if columns.is_empty() {
            return out;
        }
        let width = self.order.len();
        for (&t, &p) in self.t.iter().zip(&self.ids[PCIE]) {
            let plane = &self.planes[p as usize * width..][..width];
            out.push(t, columns.iter().map(|&c| plane[c]).sum());
        }
        out
    }

    /// Mean of the per-GPU series means, skipping GPUs never sampled.
    fn mean_of(&self, field: usize) -> f64 {
        let v: Vec<f64> = (0..self.num_gpus())
            .filter(|&g| self.is_sampled(g))
            .map(|g| self.series(g, field).mean())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Largest per-GPU peak over the GPUs with samples (0.0 for a store
    /// without samples).
    fn peak_of(&self, field: usize) -> f64 {
        (0..self.num_gpus())
            .filter(|&g| self.is_sampled(g))
            .map(|g| self.series(g, field).peak())
            .reduce(f64::max)
            .unwrap_or(0.0)
    }
}

/// Equal when every GPU has equal series, however they are stored.
impl PartialEq for TelemetryStore {
    fn eq(&self, other: &Self) -> bool {
        self.num_gpus() == other.num_gpus()
            && (0..self.num_gpus())
                .all(|g| (0..FIELDS.len()).all(|f| self.series(g, f) == other.series(g, f)))
    }
}

/// The shared clock is printed once and copied into every sampled GPU's
/// series; an unsampled GPU's are `{"t":[],"v":[]}`.
impl Serialize for TelemetryStore {
    fn write_json(&self, out: &mut String) {
        let clock = serde_json::to_string(&self.t).expect("clock serializes");
        out.push('{');
        for (f, name) in FIELDS.iter().enumerate() {
            if f > 0 {
                out.push(',');
            }
            name.write_json(out);
            out.push_str(":[");
            for g in 0..self.num_gpus() {
                if g > 0 {
                    out.push(',');
                }
                let t = if self.is_sampled(g) { &clock } else { "[]" };
                self.series(g, f).write_json_on(t, out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

impl Deserialize for TelemetryStore {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let obj = v.as_object().ok_or_else(|| {
            Error::custom(format!(
                "expected object for TelemetryStore, got {}",
                v.kind()
            ))
        })?;
        let mut fields = Vec::with_capacity(FIELDS.len());
        for name in FIELDS {
            let series: Vec<TimeSeries> =
                Deserialize::deserialize_value(obj.get(name).unwrap_or(&Value::Null))
                    .map_err(|e| e.in_field(name))?;
            fields.push(series);
        }
        let num_gpus = fields[POWER].len();
        if fields.iter().any(|f| f.len() != num_gpus) {
            return Err(Error::custom("telemetry fields cover different GPU counts"));
        }
        let clock = fields
            .iter()
            .flatten()
            .find(|s| !s.is_empty())
            .map_or(&[][..], TimeSeries::times)
            .to_vec();
        let mut store = TelemetryStore::new(num_gpus);
        let mut sampled = Vec::new();
        for g in 0..num_gpus {
            if fields.iter().all(|f| f[g].is_empty()) {
                continue;
            }
            if fields
                .iter()
                .any(|f| f[g].times() != clock.as_slice() || f[g].values().len() != clock.len())
            {
                return Err(Error::custom(format!(
                    "gpu {g}: telemetry not sampled on the shared clock"
                )));
            }
            sampled.push(g as u32);
        }
        for (i, &t) in clock.iter().enumerate() {
            store.record_frame(
                t,
                &sampled,
                sampled.iter().map(|&g| {
                    let v = |f: usize| fields[f][g as usize].values()[i];
                    GpuSample {
                        power_w: v(POWER),
                        temp_c: v(TEMP),
                        freq_mhz: v(FREQ),
                        util: v(UTIL),
                        pcie_gbps: v(PCIE),
                    }
                }),
            );
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Map;

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
        s.record_frame(0.0, &[0, 1], [sample(100.0), sample(300.0)]);
        s.record_frame(1.0, &[0, 1], [sample(200.0), sample(300.0)]);
        assert_eq!(s.power(0).len(), 2);
        assert_eq!(s.power(0).value(1), 200.0);
        assert_eq!(s.times(), &[0.0, 1.0]);
        assert!((s.mean_power_w() - 225.0).abs() < 1e-9);
        assert_eq!(s.peak_power_w(), 300.0);
    }

    #[test]
    fn total_energy_sums_gpus() {
        let mut s = TelemetryStore::new(2);
        for t in [0.0, 10.0] {
            s.record_frame(t, &[0, 1], [sample(100.0); 2]);
        }
        assert!((s.total_energy_j() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_pcie_sums_across_gpus() {
        let mut s = TelemetryStore::new(3);
        for t in [0.0, 1.0] {
            s.record_frame(t, &[0, 1, 2], [sample(1.0); 3]);
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

    #[test]
    fn peaks_read_only_sampled_gpus() {
        let mut s = TelemetryStore::new(2);
        let cold = GpuSample {
            temp_c: -5.0,
            ..sample(-1.0)
        };
        s.record_frame(0.0, &[1], [cold]);
        assert_eq!(s.peak_temp_c(), -5.0);
        assert_eq!(s.peak_power_w(), -1.0);
        assert_eq!(TelemetryStore::new(2).peak_temp_c(), 0.0);
    }

    #[test]
    fn copy_gpu_aliases_the_representative() {
        let mut s = TelemetryStore::new(3);
        s.record_frame(0.0, &[0, 2], [sample(100.0), sample(300.0)]);
        s.record_frame(1.0, &[0, 2], [sample(110.0), sample(310.0)]);
        assert!(!s.is_sampled(1));
        assert!(s.power(1).is_empty());
        // Frame 1 repeats every field but power.
        assert_eq!(s.stored_planes(), 6);
        s.copy_gpu(2, 1);
        assert_eq!(s.power(1), s.power(2));
        assert_eq!(s.stored_planes(), 6, "aliasing copies no samples");
        s.copy_gpu(1, 0);
        assert_eq!(s.temp(0).value(1), 50.0);
        assert_eq!(s.power(0).value(1), 310.0);
    }

    #[test]
    fn serializes_one_series_per_gpu_and_roundtrips() {
        let mut s = TelemetryStore::new(3);
        s.record_frame(0.0, &[0, 2], [sample(100.0), sample(300.0)]);
        s.record_frame(0.5, &[0, 2], [sample(110.0), sample(310.0)]);
        let v = s.serialize_value();
        let power = v.get("power_w").and_then(Value::as_array).unwrap();
        assert_eq!(power.len(), 3);
        assert_eq!(power[1], TimeSeries::new().serialize_value());
        let mut gpu2 = TimeSeries::new();
        gpu2.push(0.0, 300.0);
        gpu2.push(0.5, 310.0);
        assert_eq!(power[2], gpu2.serialize_value());
        assert_eq!(TelemetryStore::deserialize_value(&v).unwrap(), s);
    }

    #[test]
    fn serialized_text_is_pinned() {
        // GPU 1 is never sampled: its series are empty, not the shared clock.
        let mut s = TelemetryStore::new(3);
        s.record_frame(0.0, &[2, 0], [sample(100.0), sample(-0.0)]);
        s.record_frame(0.25, &[2, 0], [sample(f64::NAN), sample(1e-7)]);
        let gpus = |v0: &str, v2: &str| {
            format!(
                r#"[{{"t":[0,0.25],"v":[{v0}]}},{{"t":[],"v":[]}},{{"t":[0,0.25],"v":[{v2}]}}]"#
            )
        };
        let want = format!(
            r#"{{"power_w":{},"temp_c":{},"freq_mhz":{},"util":{},"pcie_gbps":{}}}"#,
            gpus("-0,0.0000001", "100,null"),
            gpus("50,50", "50,50"),
            gpus("1980,1980", "1980,1980"),
            gpus("0.9,0.9", "0.9,0.9"),
            gpus("2,2", "2,2"),
        );
        assert_eq!(serde_json::to_string(&s).unwrap(), want);
    }

    #[test]
    fn deserialize_rejects_series_off_the_shared_clock() {
        let mut a = TimeSeries::new();
        a.push(0.0, 1.0);
        let mut b = TimeSeries::new();
        b.push(0.5, 1.0);
        let mut obj = Map::new();
        for name in FIELDS {
            obj.insert(name, vec![a.clone(), b.clone()].serialize_value());
        }
        let err = TelemetryStore::deserialize_value(&Value::Object(obj)).unwrap_err();
        assert!(err.to_string().contains("shared clock"), "{err}");
    }

    #[test]
    #[should_panic(expected = "out of frame order")]
    fn frames_keep_the_first_frames_gpu_order() {
        let mut s = TelemetryStore::new(2);
        s.record_frame(0.0, &[0, 1], [sample(1.0); 2]);
        s.record_frame(1.0, &[1, 0], [sample(1.0); 2]);
    }

    #[test]
    #[should_panic(expected = "one sample per frame GPU")]
    fn frames_hold_one_sample_per_gpu() {
        let mut s = TelemetryStore::new(2);
        s.record_frame(0.0, &[0, 1], [sample(1.0); 2]);
        s.record_frame(1.0, &[0, 1], [sample(1.0)]);
    }

    #[test]
    fn an_idle_frame_stores_only_its_temperature_plane() {
        // Busy frames move every field; through the outage that follows
        // only the temperature does, so each frame adds one plane.
        let mut s = TelemetryStore::new(3);
        let busy = |t: f64, g: f64| GpuSample {
            power_w: 400.0 + t + g,
            temp_c: 60.0 + t + g,
            freq_mhz: 1900.0 - t - g,
            util: 0.5 + t / 100.0,
            pcie_gbps: 1.0 + g + t,
        };
        for i in 0..4 {
            let t = i as f64;
            s.record_frame(t, &[0, 1, 2], (0..3).map(|g| busy(t, g as f64)));
        }
        assert_eq!(s.stored_planes(), 20);
        for i in 0..10 {
            let t = 4.0 + i as f64;
            let idle = |g: f64| GpuSample {
                power_w: 90.0 + g,
                temp_c: 50.0 - t - g,
                freq_mhz: 1100.0,
                util: 0.0,
                pcie_gbps: 0.0,
            };
            s.record_frame(t, &[0, 1, 2], (0..3).map(|g| idle(g as f64)));
            // The first idle frame moves every field.
            assert_eq!(s.stored_planes(), 25 + i);
        }
        assert_eq!(s.util(2).values().filter(|&u| u == 0.0).count(), 10);
        assert_eq!(s.temp(1).value(13), 50.0 - 13.0 - 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use serde::Map;

    /// A small pool, so planes repeat: both zeros and two NaN payloads,
    /// which must stay apart.
    const POOL: [f64; 6] = [
        0.0,
        -0.0,
        f64::from_bits(0x7ff8_0000_0000_0001),
        f64::from_bits(0x7ff8_0000_0000_0002),
        1.5,
        300.0,
    ];

    fn bits(s: Series<'_>) -> Vec<(u64, u64)> {
        s.iter().map(|(t, v)| (t.to_bits(), v.to_bits())).collect()
    }

    proptest! {
        #[test]
        fn planes_read_back_as_pushed_series(
            num_gpus in 1usize..5,
            // Which GPUs are sampled and in what order: a key per GPU, the
            // GPUs with a key below 8 sorted by it.
            keys in proptest::collection::vec(0u8..12, 4),
            // Per frame: the time step and, per field, whether its plane is
            // drawn afresh from the pool (else it repeats the previous
            // frame's) and the pool indices it is drawn from.
            frames in proptest::collection::vec(
                (
                    0usize..3,
                    proptest::collection::vec(
                        (any::<bool>(), proptest::collection::vec(0usize..6, 4)),
                        5,
                    ),
                ),
                0..24,
            ),
            aliases in proptest::collection::vec((0usize..4, 0usize..4), 0..3),
            cut in 0.0f64..12.0,
        ) {
            let mut gpus: Vec<u32> = (0..num_gpus as u32)
                .filter(|&g| keys[g as usize] < 8)
                .collect();
            gpus.sort_by_key(|&g| keys[g as usize]);
            let width = gpus.len();
            let mut store = TelemetryStore::new(num_gpus);
            // want[gpu][field], built sample by sample.
            let mut want = vec![vec![TimeSeries::new(); FIELDS.len()]; num_gpus];
            let mut planes = [[0.0; 4]; 5];
            let mut t = 0.0;
            for (step, fields) in frames {
                t += [0.0, 0.5, 1.0][step];
                for (plane, (fresh, idx)) in planes.iter_mut().zip(&fields) {
                    if *fresh {
                        for (v, &k) in plane.iter_mut().zip(idx) {
                            *v = POOL[k];
                        }
                    }
                }
                let frame = (0..width).map(|k| GpuSample {
                    power_w: planes[POWER][k],
                    temp_c: planes[TEMP][k],
                    freq_mhz: planes[FREQ][k],
                    util: planes[UTIL][k],
                    pcie_gbps: planes[PCIE][k],
                });
                store.record_frame(t, &gpus, frame);
                for (k, &g) in gpus.iter().enumerate() {
                    for (f, plane) in planes.iter().enumerate() {
                        want[g as usize][f].push(t, plane[k]);
                    }
                }
            }
            for (from, to) in aliases {
                let (from, to) = (from % num_gpus, to % num_gpus);
                store.copy_gpu(from, to);
                want[to] = want[from].clone();
            }
            for (g, fields) in want.iter().enumerate() {
                for (f, series) in fields.iter().enumerate() {
                    let got = store.series(g, f);
                    prop_assert_eq!(bits(got), bits(series.series()));
                    prop_assert_eq!(bits(got.since(cut)), bits(series.series().since(cut)));
                }
            }
            let mut obj = Map::new();
            for (f, name) in FIELDS.iter().enumerate() {
                let per_gpu: Vec<TimeSeries> = want.iter().map(|w| w[f].clone()).collect();
                obj.insert(*name, per_gpu.serialize_value());
            }
            let json = serde_json::to_string(&store).unwrap();
            prop_assert_eq!(&json, &serde_json::to_string(&Value::Object(obj)).unwrap());
            let back: TelemetryStore = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }
}
