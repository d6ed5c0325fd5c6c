//! Summary statistics over groups of series.

use serde::{Deserialize, Serialize};

use crate::timeseries::Series;

/// Mean/peak/min summary of one series.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub peak: f64,
    /// Minimum.
    pub min: f64,
}

impl SeriesSummary {
    /// Summarize a series.
    pub fn of(series: Series<'_>) -> Self {
        SeriesSummary {
            mean: series.mean(),
            peak: series.peak(),
            min: series.min(),
        }
    }
}

/// Mean of per-series means over a group (e.g. front-row GPUs).
pub fn group_mean<'a>(series: impl Iterator<Item = Series<'a>>) -> f64 {
    let means: Vec<f64> = series.map(|s| s.mean()).collect();
    if means.is_empty() {
        0.0
    } else {
        means.iter().sum::<f64>() / means.len() as f64
    }
}

/// Relative gap between two group means: `(a - b) / b`.
///
/// Used for the paper's front-vs-rear temperature differentials ("reaching
/// up to 27 %", Fig. 17a).
pub fn relative_gap(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a - b) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeries;

    #[test]
    fn summary_of_series() {
        let mut s = TimeSeries::new();
        s.push(0.0, 2.0);
        s.push(1.0, 4.0);
        let sum = SeriesSummary::of(s.series());
        assert_eq!(sum.mean, 3.0);
        assert_eq!(sum.peak, 4.0);
        assert_eq!(sum.min, 2.0);
    }

    #[test]
    fn group_mean_averages_series_means() {
        let mut a = TimeSeries::new();
        a.push(0.0, 10.0);
        let mut b = TimeSeries::new();
        b.push(0.0, 20.0);
        assert_eq!(group_mean([a.series(), b.series()].into_iter()), 15.0);
        assert_eq!(group_mean([].into_iter()), 0.0);
    }

    #[test]
    fn relative_gap_basics() {
        assert!((relative_gap(81.0, 65.0) - 0.246).abs() < 0.001);
        assert_eq!(relative_gap(1.0, 0.0), 0.0);
    }
}
