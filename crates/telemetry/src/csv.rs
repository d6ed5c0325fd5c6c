//! CSV writers matching the artifact's telemetry output format.

use std::io::{self, Write};

use crate::store::TelemetryStore;
use crate::timeseries::Series;

/// Write one series as `t,value` rows.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_series<W: Write>(mut w: W, header: &str, series: Series<'_>) -> io::Result<()> {
    writeln!(w, "t_s,{header}")?;
    for (t, v) in series.iter() {
        writeln!(w, "{t:.4},{v:.4}")?;
    }
    Ok(())
}

/// Write a whole store as wide CSV: one row per sample instant, one column
/// group per GPU (`powerN_w,tempN_c,freqN_mhz,utilN,pcieN_gbps`). A GPU
/// without samples (e.g. a skipped replica of a compact folded run) gets
/// empty cells.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_store<W: Write>(mut w: W, store: &TelemetryStore) -> io::Result<()> {
    let n = store.num_gpus();
    write!(w, "t_s")?;
    for g in 0..n {
        write!(w, ",power{g}_w,temp{g}_c,freq{g}_mhz,util{g},pcie{g}_gbps")?;
    }
    writeln!(w)?;
    for (i, t) in store.times().iter().enumerate() {
        write!(w, "{t:.4}")?;
        for g in 0..n {
            if !store.is_sampled(g) {
                write!(w, ",,,,,")?;
                continue;
            }
            write!(
                w,
                ",{:.2},{:.2},{:.0},{:.3},{:.3}",
                store.power(g).value(i),
                store.temp(g).value(i),
                store.freq(g).value(i),
                store.util(g).value(i),
                store.pcie(g).value(i),
            )?;
        }
        writeln!(w)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::GpuSample;
    use crate::timeseries::TimeSeries;

    #[test]
    fn series_csv_roundtrip_shape() {
        let mut s = TimeSeries::new();
        s.push(0.0, 1.5);
        s.push(0.5, 2.5);
        let mut buf = Vec::new();
        write_series(&mut buf, "power_w", s.series()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t_s,power_w");
        assert!(lines[1].starts_with("0.0000,1.5"));
    }

    #[test]
    fn store_csv_has_one_column_group_per_gpu() {
        let mut store = TelemetryStore::new(2);
        let sample = GpuSample {
            power_w: 100.0,
            temp_c: 40.0,
            freq_mhz: 1980.0,
            util: 1.0,
            pcie_gbps: 0.5,
        };
        store.record_frame(0.0, &[0, 1], [sample; 2]);
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("power0_w"));
        assert!(header.contains("pcie1_gbps"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn multi_gpu_store_roundtrips_rows_and_ordering() {
        // 3 GPUs × 4 samples with distinct values everywhere, so any
        // column/row transposition or reordering changes the parsed floats.
        let gpus = 3;
        let samples = 4;
        let mut store = TelemetryStore::new(gpus);
        let order: Vec<u32> = (0..gpus as u32).collect();
        for i in 0..samples {
            let t = i as f64 * 0.25;
            store.record_frame(
                t,
                &order,
                (0..gpus).map(|g| GpuSample {
                    power_w: 100.0 + (g * samples + i) as f64,
                    temp_c: 40.0 + g as f64,
                    freq_mhz: 1500.0 + i as f64,
                    util: 0.5,
                    pcie_gbps: g as f64 + i as f64 / 8.0,
                }),
            );
        }
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + samples, "one row per timestamp");
        let header: Vec<&str> = lines[0].split(',').collect();
        assert_eq!(header.len(), 1 + 5 * gpus, "five columns per GPU");
        assert_eq!(header[1], "power0_w");
        assert_eq!(header[1 + 5 * (gpus - 1)], format!("power{}_w", gpus - 1));
        let mut last_t = f64::NEG_INFINITY;
        for (i, line) in lines[1..].iter().enumerate() {
            let fields: Vec<f64> = line.split(',').map(|f| f.parse().unwrap()).collect();
            assert_eq!(fields.len(), 1 + 5 * gpus);
            assert!(fields[0] > last_t, "timestamps must ascend");
            last_t = fields[0];
            for g in 0..gpus {
                let power = fields[1 + 5 * g];
                assert_eq!(
                    power,
                    100.0 + (g * samples + i) as f64,
                    "gpu {g} sample {i} landed in the wrong cell"
                );
            }
        }
    }

    #[test]
    fn unsampled_gpus_get_empty_cells_and_the_clock_comes_from_the_store() {
        // A compact folded store samples only some GPUs. GPU 0 unsampled
        // used to leave only the header; another GPU unsampled panicked;
        // and the PCIe aggregate came out empty whenever GPU 0 was.
        let sample = |p: f64| GpuSample {
            power_w: p,
            temp_c: 40.0,
            freq_mhz: 1980.0,
            util: 1.0,
            pcie_gbps: p / 100.0,
        };
        for (sampled, missing) in [(1, 0), (0, 1)] {
            let mut store = TelemetryStore::new(2);
            for (i, t) in [0.0, 0.5, 1.0].into_iter().enumerate() {
                store.record_frame(t, &[sampled as u32], [sample(100.0 + i as f64)]);
            }
            let mut buf = Vec::new();
            write_store(&mut buf, &store).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 4, "one row per instant:\n{text}");
            for (i, line) in lines[1..].iter().enumerate() {
                let cells: Vec<&str> = line.split(',').collect();
                assert_eq!(cells.len(), 11, "{line}");
                assert!(cells[1 + 5 * missing..6 + 5 * missing]
                    .iter()
                    .all(|c| c.is_empty()));
                let power: f64 = cells[1 + 5 * sampled].parse().unwrap();
                assert_eq!(power, 100.0 + i as f64);
            }
            let agg = store.aggregate_pcie();
            assert_eq!(agg.times(), &[0.0, 0.5, 1.0]);
            assert_eq!(agg.values(), &[1.0, 1.01, 1.02]);
        }
    }

    #[test]
    fn empty_store_writes_header_only() {
        let store = TelemetryStore::new(0);
        let mut buf = Vec::new();
        write_store(&mut buf, &store).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 1);
    }
}
