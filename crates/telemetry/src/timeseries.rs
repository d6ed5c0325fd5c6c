//! Sampled time series: the owned [`TimeSeries`] and the borrowed
//! [`Series`] view that every reduction runs on.

use serde::{Deserialize, Serialize};

/// A time-ordered series of `(t, value)` samples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not monotonically non-decreasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.t.last() {
            assert!(t >= last, "time must be non-decreasing: {t} < {last}");
        }
        self.t.push(t);
        self.v.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Timestamps.
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Values.
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// The series as a [`Series`] view, for its reductions.
    pub fn series(&self) -> Series<'_> {
        Series {
            t: &self.t,
            v: &self.v,
            planes: None,
        }
    }
}

/// A borrowed, read-only series: timestamps plus their values, read
/// either straight from a [`TimeSeries`] or through the plane ids of one
/// GPU's column of a [`crate::TelemetryStore`], whose frames share a field
/// plane while it repeats.
///
/// Every reduction walks the values in time order, one series at a time.
#[derive(Debug, Clone, Copy)]
pub struct Series<'a> {
    t: &'a [f64],
    /// The values (`planes` is `None`), or the store's planes from this
    /// series' column on.
    v: &'a [f64],
    /// For a store column, each sample's plane id and the plane width:
    /// value `i` is `v[ids[i] * width]`.
    planes: Option<(&'a [u32], usize)>,
}

impl<'a> Series<'a> {
    /// The series with no samples.
    pub(crate) const EMPTY: Series<'static> = Series {
        t: &[],
        v: &[],
        planes: None,
    };

    /// A view of the value at one column of plane `ids[i]` for each `t[i]`,
    /// where `column` is `planes` from that column on and a plane is
    /// `width` values.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `t` differ in length; reading a value panics if
    /// its plane is out of range.
    pub(crate) fn in_planes(t: &'a [f64], ids: &'a [u32], column: &'a [f64], width: usize) -> Self {
        assert_eq!(ids.len(), t.len(), "one plane id per sample");
        Series {
            t,
            v: column,
            planes: Some((ids, width)),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Timestamps.
    pub fn times(&self) -> &'a [f64] {
        self.t
    }

    /// Value of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn value(&self, i: usize) -> f64 {
        assert!(i < self.len(), "sample {i} of {}", self.len());
        match self.planes {
            None => self.v[i],
            Some((ids, width)) => self.v[ids[i] as usize * width],
        }
    }

    /// The values in time order.
    pub fn values(&self) -> impl Iterator<Item = f64> + 'a {
        // One half of the chain is empty, so each value costs one read.
        let (own, ids, width) = match self.planes {
            None => (&self.v[..self.t.len()], &[][..], 0),
            Some((ids, width)) => (&[][..], ids, width),
        };
        let v = self.v;
        own.iter()
            .copied()
            .chain(ids.iter().map(move |&id| v[id as usize * width]))
    }

    /// Iterate `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.t.iter().copied().zip(self.values())
    }

    /// Arithmetic mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.values().sum::<f64>() / self.len() as f64
        }
    }

    /// Maximum value (0.0 when empty).
    pub fn peak(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.values().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.values().fold(f64::INFINITY, f64::min)
        }
    }

    /// Trapezoidal integral over time (e.g. watts → joules).
    pub fn integrate(&self) -> f64 {
        let mut acc = 0.0;
        let mut samples = self.iter();
        if let Some((mut t0, mut v0)) = samples.next() {
            for (t, v) in samples {
                acc += 0.5 * (v + v0) * (t - t0);
                (t0, v0) = (t, v);
            }
        }
        acc
    }

    /// The sub-series with `t >= from` (used to discard warm-up iterations,
    /// as the paper discards its first 10).
    pub fn since(&self, from: f64) -> Series<'a> {
        let start = self.t.partition_point(|&t| t < from);
        if start == self.len() {
            return Series::EMPTY;
        }
        let (v, planes) = match self.planes {
            None => (&self.v[start..], None),
            Some((ids, width)) => (self.v, Some((&ids[start..], width))),
        };
        Series {
            t: &self.t[start..],
            v,
            planes,
        }
    }

    /// A percentile of the values (linear interpolation; `p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = self.values().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in telemetry"));
        let pos = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

impl PartialEq for Series<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.values().eq(other.values())
    }
}

impl Series<'_> {
    /// Append `{"t":clock,"v":[..]}`, where `clock` is the text of this
    /// series' timestamps (a store prints its shared clock once).
    pub(crate) fn write_json_on(&self, clock: &str, out: &mut String) {
        out.push_str(r#"{"t":"#);
        out.push_str(clock);
        out.push_str(r#","v":["#);
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push_str("]}");
    }
}

/// The same `{"t": [..], "v": [..]}` object a [`TimeSeries`] serializes to.
impl Serialize for Series<'_> {
    fn write_json(&self, out: &mut String) {
        self.write_json_on(
            &serde_json::to_string(self.t).expect("times serialize"),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn empty_series_stats_are_zero() {
        let s = TimeSeries::new();
        assert!(s.is_empty());
        let s = s.series();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.peak(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.integrate(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn basic_stats() {
        let s = series(&[(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        let s = s.series();
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.peak(), 3.0);
        assert_eq!(s.min(), 1.0);
    }

    #[test]
    fn peak_of_all_negative_series_is_true_maximum() {
        // Regression: the old `.max(0.0)` clamp reported 0.0 — a value never
        // sampled — for any series that stayed below zero.
        let s = series(&[(0.0, -5.0), (1.0, -2.0), (2.0, -9.0)]);
        let s = s.series();
        assert_eq!(s.peak(), -2.0);
        assert_eq!(s.min(), -9.0);
    }

    #[test]
    fn integrate_trapezoid() {
        // Constant 100 W for 10 s = 1000 J.
        let s = series(&[(0.0, 100.0), (10.0, 100.0)]);
        assert!((s.series().integrate() - 1000.0).abs() < 1e-9);
        // Ramp 0..100 over 10 s = 500 J.
        let r = series(&[(0.0, 0.0), (10.0, 100.0)]);
        assert!((r.series().integrate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn since_discards_warmup() {
        let s = series(&[(0.0, 1.0), (5.0, 2.0), (10.0, 3.0)]);
        let tail = s.series().since(5.0);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.values().collect::<Vec<_>>(), [2.0, 3.0]);
        assert!(s.series().since(11.0).is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let s = series(&[(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0)]);
        let s = s.series();
        assert!((s.percentile(0.0) - 10.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 40.0).abs() < 1e-12);
        assert!((s.percentile(50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn plane_view_reads_one_column() {
        // Three planes of two columns; four samples read planes 0, 1, 1, 2,
        // so the second column reads 10, 11, 11, 12.
        let t = [0.0, 1.0, 2.0, 3.0];
        let planes = [1.0, 10.0, 2.0, 11.0, 3.0, 12.0];
        let ids = [0, 1, 1, 2];
        let col = Series::in_planes(&t, &ids, &planes[1..], 2);
        assert_eq!(col.values().collect::<Vec<_>>(), [10.0, 11.0, 11.0, 12.0]);
        assert_eq!(col.value(3), 12.0);
        assert_eq!(col.peak(), 12.0);
        assert_eq!(col.integrate(), 10.5 + 11.0 + 11.5);
        assert_eq!(col.since(2.0).values().collect::<Vec<_>>(), [11.0, 12.0]);
        assert_eq!(
            col,
            series(&[(0.0, 10.0), (1.0, 11.0), (2.0, 11.0), (3.0, 12.0)]).series()
        );
    }

    #[test]
    fn view_serializes_like_the_owned_series() {
        let s = series(&[(0.0, 1.5), (0.5, 2.5)]);
        assert_eq!(s.series().serialize_value(), s.serialize_value());
        assert_eq!(
            Series::EMPTY.serialize_value(),
            TimeSeries::new().serialize_value()
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_time_panics() {
        let mut s = TimeSeries::new();
        s.push(1.0, 0.0);
        s.push(0.5, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn percentile_bounded_by_min_max(
            values in proptest::collection::vec(-1e9f64..1e9, 1..64),
            p in 0.0f64..100.0,
        ) {
            let mut s = TimeSeries::new();
            for (i, v) in values.iter().enumerate() {
                s.push(i as f64, *v);
            }
            let s = s.series();
            let q = s.percentile(p);
            prop_assert!(q >= s.min() - 1e-9);
            prop_assert!(q <= s.peak().max(s.min()) + 1e-9 || s.peak() == 0.0);
        }

        #[test]
        fn integral_bounded_by_extremes(
            values in proptest::collection::vec(0.0f64..1e6, 2..64),
        ) {
            let mut s = TimeSeries::new();
            for (i, v) in values.iter().enumerate() {
                s.push(i as f64, *v);
            }
            let s = s.series();
            let span = (values.len() - 1) as f64;
            prop_assert!(s.integrate() >= s.min() * span - 1e-6);
            prop_assert!(s.integrate() <= s.peak().max(s.min()) * span + 1e-6);
        }
    }
}
