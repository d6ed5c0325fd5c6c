//! Percentiles and the named, unit-carrying metric list a run prints.

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The highest order statistic with at least 10 samples beyond it, and
/// the percentile it stands at. With fewer than 11 samples no such
/// statistic exists and the maximum (percentile 100) is used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
}

pub fn tail(values: &[f64]) -> Tail {
    if values.is_empty() {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = if n >= 11 { n - 11 } else { n - 1 };
    Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context, printed beside the value.
    pub note: String,
}

/// Metrics in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    pub fn note(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A timing sample set as its median, with the sample count.
    pub fn p50(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        let n = samples.len();
        self.note(name, median(samples), unit, format!("n={n}"));
    }

    /// A timing sample set as its tail statistic, with the percentile it
    /// stands at and the sample count.
    pub fn tail(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        let t = tail(samples);
        let n = samples.len();
        self.note(
            name,
            t.value,
            unit,
            format!("p{:.0} of n={n}", t.percentile),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Whether `name` is a well-formed metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let small = tail(&[1.0, 5.0, 3.0]);
        assert_eq!((small.value, small.percentile), (5.0, 100.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(hundred.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn names() {
        assert!(valid_name("op_s.p50"));
        assert!(valid_name("sim.run_s.fail_stop"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("x/y"));
    }
}
