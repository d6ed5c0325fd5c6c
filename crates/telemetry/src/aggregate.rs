//! Summary statistics over groups of series.

use crate::timeseries::Series;

/// Mean of per-series means over a group (e.g. front-row GPUs).
pub fn group_mean<'a>(series: impl Iterator<Item = Series<'a>>) -> f64 {
    let means: Vec<f64> = series.map(|s| s.mean()).collect();
    if means.is_empty() {
        0.0
    } else {
        means.iter().sum::<f64>() / means.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TimeSeries;

    #[test]
    fn group_mean_averages_series_means() {
        let mut a = TimeSeries::new();
        a.push(0.0, 10.0);
        let mut b = TimeSeries::new();
        b.push(0.0, 20.0);
        assert_eq!(group_mean([a.series(), b.series()].into_iter()), 15.0);
        assert_eq!(group_mean([].into_iter()), 0.0);
    }
}
