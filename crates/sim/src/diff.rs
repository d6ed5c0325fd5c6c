//! One comparison of two simulation results, field by field.
//!
//! [`texts`] parses two serialized [`SimResult`]s with [`serde::parse`] and
//! walks both trees together ([`results`] serializes two results first).
//! Each field path, with array indices collapsed
//! (`telemetry.power_w[*].v[*]`), gets one row: how many values differ out
//! of how many, and the largest absolute and relative difference. A missing
//! key, a length mismatch or a type mismatch is a structural difference;
//! structural differences always fail.
//!
//! A value fails when it exceeds its path's [`Tolerance`]: [`SCALAR`] for
//! scalars and integrals, [`ENERGY`] for the energy metrics, [`SAMPLE`] for
//! telemetry sample values and [`EXACT`] for the sample clocks. Integers
//! and strings must be equal whatever their path. These are the folding
//! contract's tolerances (`tests/symmetry_folding.rs`): the unfolded
//! engine's own replicas differ at the ulp level, because concurrent flows
//! accumulate into a GPU's windows in history-dependent order, so a folded
//! run can only reproduce replica 0 to that noise floor. Between two
//! versions of the engine the same table shows which fields a change moved,
//! and by how much.

use std::collections::HashMap;
use std::fmt;

use serde::{Number, Serialize, Value};

use crate::SimResult;

/// How closely two numbers at one field path must agree: a value `a`
/// passes against the reference `b` when `|a − b| / max(|b|, floor) <
/// limit`, or when the two are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Name of the class in the table.
    pub name: &'static str,
    /// Largest normalized difference allowed, exclusive; 0 demands
    /// equality.
    pub limit: f64,
    /// Smallest normalizer: below it the difference is absolute.
    pub floor: f64,
}

impl Tolerance {
    /// The normalized difference of `a` from the reference `b`.
    pub fn error(&self, a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(self.floor)
    }

    /// Whether `a` is within tolerance of the reference `b`.
    pub fn admits(&self, a: f64, b: f64) -> bool {
        a == b || self.error(a, b) < self.limit
    }
}

/// `scalar 1e-12`, or `exact`.
impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.limit == 0.0 {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{} {:e}", self.name, self.limit)
        }
    }
}

/// Scalars and integrals (step time, throughput, traffic, kernel time,
/// throttle, occupancy): 1e-12 relative, a couple of ulp.
pub const SCALAR: Tolerance = Tolerance {
    name: "scalar",
    limit: 1e-12,
    floor: 1e-300,
};

/// Energy integrates power over every control tick, so per-tick ulp noise
/// accumulates with simulated time: 1e-10 relative.
pub const ENERGY: Tolerance = Tolerance {
    name: "energy",
    limit: 1e-10,
    floor: 1e-300,
};

/// Telemetry sample values: `|a − b| / max(|b|, 1) < 1e-9`, so a sub-unit
/// sample (an idle GPU's PCIe rate, a utilization) is held to an absolute
/// 1e-9.
pub const SAMPLE: Tolerance = Tolerance {
    name: "sample",
    limit: 1e-9,
    floor: 1.0,
};

/// Sample clocks: equal.
pub const EXACT: Tolerance = Tolerance {
    name: "exact",
    limit: 0.0,
    floor: 1.0,
};

/// The fields held to [`ENERGY`].
const ENERGY_PATHS: [&str; 3] = ["energy_per_step_j", "tokens_per_joule", "energy_wasted_j"];

/// The tolerance of a collapsed field path.
fn tolerance_of(path: &str) -> Tolerance {
    if ENERGY_PATHS.contains(&path) {
        ENERGY
    } else if !path.starts_with("telemetry.") {
        SCALAR
    } else if path.ends_with(".t[*]") {
        EXACT
    } else if path.ends_with(".v[*]") {
        SAMPLE
    } else {
        SCALAR
    }
}

/// One row of a [`ResultDiff`]: every value at one collapsed field path.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDiff {
    /// The field path, array indices collapsed to `[*]`.
    pub path: String,
    /// The tolerance its numbers are held to.
    pub tolerance: Tolerance,
    /// Values compared.
    pub compared: u64,
    /// Values not equal.
    pub differing: u64,
    /// Values beyond tolerance.
    pub violations: u64,
    /// Largest `|a − b|` over the numbers.
    pub max_abs: f64,
    /// Largest normalized difference ([`Tolerance::error`]).
    pub max_rel: f64,
}

/// A missing key, a length mismatch or a type mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Structural {
    /// Where, with array indices.
    pub path: String,
    /// What differs.
    pub what: String,
}

/// The comparison of two results: one row per field path in document
/// order, and every structural difference.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDiff {
    /// One row per collapsed field path.
    pub fields: Vec<FieldDiff>,
    /// Structural differences; each one fails the comparison.
    pub structural: Vec<Structural>,
}

impl ResultDiff {
    /// No structural difference and every value within tolerance.
    pub fn passes(&self) -> bool {
        self.structural.is_empty() && self.fields.iter().all(|f| f.violations == 0)
    }

    /// Paths that differ at all, within tolerance or not: structural
    /// differences first, then field rows in document order.
    pub fn differing_paths(&self) -> impl Iterator<Item = &str> {
        let structural = self.structural.iter().map(|s| s.path.as_str());
        let fields = self.fields.iter().filter(|f| f.differing > 0);
        structural.chain(fields.map(|f| f.path.as_str()))
    }
}

/// A Markdown table, one row per field, then the structural differences
/// and a closing verdict.
impl fmt::Display for ResultDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "| field | tolerance | differ / compared | max abs | max rel | ok |"
        )?;
        writeln!(f, "|---|---|---|---|---|---|")?;
        for row in &self.fields {
            writeln!(
                f,
                "| `{}` | {} | {} / {} | {:.3e} | {:.3e} | {} |",
                row.path,
                row.tolerance,
                row.differing,
                row.compared,
                row.max_abs,
                row.max_rel,
                if row.violations == 0 { "yes" } else { "NO" },
            )?;
        }
        for s in &self.structural {
            writeln!(f, "structural: `{}`: {}", s.path, s.what)?;
        }
        let failing = self.fields.iter().filter(|r| r.violations > 0).count();
        if self.passes() {
            write!(f, "result: within tolerance")
        } else {
            write!(
                f,
                "result: {failing} field(s) beyond tolerance, {} structural difference(s)",
                self.structural.len()
            )
        }
    }
}

/// Compare two serialized results, `b` the reference.
///
/// # Errors
///
/// Returns the parse error of a text that is not JSON.
pub fn texts(a: &str, b: &str) -> Result<ResultDiff, serde::Error> {
    Ok(values(&serde::parse(a)?, &serde::parse(b)?))
}

/// Compare two results through their serialized form, `b` the reference.
pub fn results(a: &SimResult, b: &SimResult) -> ResultDiff {
    values(&a.serialize_value(), &b.serialize_value())
}

/// Compare two parsed JSON trees, `b` the reference.
fn values(a: &Value, b: &Value) -> ResultDiff {
    let mut walk = Walk::default();
    walk.value(&mut String::new(), a, b);
    ResultDiff {
        fields: walk.fields,
        structural: walk.structural,
    }
}

#[derive(Default)]
struct Walk {
    fields: Vec<FieldDiff>,
    /// Row of each collapsed path.
    rows: HashMap<String, usize>,
    structural: Vec<Structural>,
    /// The index of each `[*]` on the current path, outermost first.
    indices: Vec<usize>,
}

impl Walk {
    fn row(&mut self, path: &str) -> &mut FieldDiff {
        let i = match self.rows.get(path) {
            Some(&i) => i,
            None => {
                self.rows.insert(path.to_string(), self.fields.len());
                self.fields.push(FieldDiff {
                    path: path.to_string(),
                    tolerance: tolerance_of(path),
                    compared: 0,
                    differing: 0,
                    violations: 0,
                    max_abs: 0.0,
                    max_rel: 0.0,
                });
                self.fields.len() - 1
            }
        };
        &mut self.fields[i]
    }

    fn structural(&mut self, path: &str, what: String) {
        let mut indices = self.indices.iter();
        let mut pieces = path.split("[*]");
        let mut concrete = pieces.next().unwrap_or_default().to_string();
        for piece in pieces {
            match indices.next() {
                Some(i) => concrete.push_str(&format!("[{i}]")),
                None => concrete.push_str("[*]"),
            }
            concrete.push_str(piece);
        }
        self.structural.push(Structural {
            path: concrete,
            what,
        });
    }

    fn value(&mut self, path: &mut String, a: &Value, b: &Value) {
        match (a, b) {
            (Value::Object(x), Value::Object(y)) => {
                let len = path.len();
                for (key, va) in x {
                    push_key(path, key);
                    match y.get(key) {
                        Some(vb) => self.value(path, va, vb),
                        None => self.structural(path, "only in the first".into()),
                    }
                    path.truncate(len);
                }
                for (key, _) in y {
                    if x.get(key).is_none() {
                        push_key(path, key);
                        self.structural(path, "only in the second".into());
                        path.truncate(len);
                    }
                }
            }
            (Value::Array(x), Value::Array(y)) if x.len() != y.len() => {
                let what = format!("length {} vs {}", x.len(), y.len());
                self.structural(path, what);
            }
            (Value::Array(x), Value::Array(y)) => {
                let len = path.len();
                path.push_str("[*]");
                for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                    self.indices.push(i);
                    self.value(path, va, vb);
                    self.indices.pop();
                }
                path.truncate(len);
            }
            (Value::Number(x), Value::Number(y)) => self.number(path, *x, *y),
            _ if a.kind() == b.kind() => {
                let row = self.row(path);
                row.compared += 1;
                if a != b {
                    row.differing += 1;
                    row.violations += 1;
                }
            }
            _ => self.structural(path, format!("{} vs {}", a.kind(), b.kind())),
        }
    }

    fn number(&mut self, path: &str, a: Number, b: Number) {
        let row = self.row(path);
        row.compared += 1;
        if a == b {
            return;
        }
        row.differing += 1;
        let (x, y) = (a.to_f64(), b.to_f64());
        row.max_abs = row.max_abs.max((x - y).abs());
        row.max_rel = row.max_rel.max(row.tolerance.error(x, y));
        // A float prints without a fraction when it is integral, so two
        // integers that differ may be floats; they differ by at least 1,
        // which no tolerance admits below |b| = 1e9.
        let integers = !matches!(a, Number::F64(_)) && !matches!(b, Number::F64(_));
        if integers || !row.tolerance.admits(x, y) {
            row.violations += 1;
        }
    }
}

fn push_key(path: &mut String, key: &str) {
    if !path.is_empty() {
        path.push('.');
    }
    path.push_str(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result-shaped document: two scalars, an energy metric, an integer
    /// and one GPU's power series.
    fn doc(step: f64, energy: f64, restarts: u64, t: [f64; 2], v: [f64; 2]) -> String {
        format!(
            r#"{{"step_time_s":{step:?},"energy_per_step_j":{energy:?},"restarts":{restarts},"label":"a","profile":null,"telemetry":{{"power_w":[{{"t":[{:?},{:?}],"v":[{:?},{:?}]}}]}}}}"#,
            t[0], t[1], v[0], v[1]
        )
    }

    fn base() -> String {
        doc(0.8, 1.5e5, 2, [0.0, 0.05], [0.5, 412.25])
    }

    fn diff(a: &str, b: &str) -> ResultDiff {
        texts(a, b).unwrap()
    }

    fn row<'d>(d: &'d ResultDiff, path: &str) -> &'d FieldDiff {
        d.fields.iter().find(|r| r.path == path).unwrap()
    }

    #[test]
    fn identical_documents_pass_with_nothing_differing() {
        let d = diff(&base(), &base());
        assert!(d.passes(), "{d}");
        assert_eq!(d.differing_paths().count(), 0);
        let power = row(&d, "telemetry.power_w[*].v[*]");
        assert_eq!((power.compared, power.differing), (2, 0));
        assert_eq!(power.tolerance, SAMPLE);
        assert_eq!(row(&d, "telemetry.power_w[*].t[*]").tolerance, EXACT);
        assert_eq!(row(&d, "energy_per_step_j").tolerance, ENERGY);
        assert_eq!(row(&d, "step_time_s").tolerance, SCALAR);
    }

    #[test]
    fn null_equals_null() {
        let d = diff(&base(), &base());
        let profile = row(&d, "profile");
        assert_eq!((profile.compared, profile.differing), (1, 0));
        assert!(diff("null", "null").passes());
    }

    #[test]
    fn a_1e9_relative_change_to_step_time_fails() {
        let moved = doc(0.8 * (1.0 + 1e-9), 1.5e5, 2, [0.0, 0.05], [0.5, 412.25]);
        let d = diff(&moved, &base());
        assert!(!d.passes(), "{d}");
        let step = row(&d, "step_time_s");
        assert_eq!((step.differing, step.violations), (1, 1));
        assert!((step.max_rel - 1e-9).abs() < 1e-12, "{}", step.max_rel);
        assert_eq!(d.differing_paths().collect::<Vec<_>>(), ["step_time_s"]);
        // Two ulp stay inside the scalar tolerance.
        let ulps = doc(
            0.8f64.next_up().next_up(),
            1.5e5,
            2,
            [0.0, 0.05],
            [0.5, 412.25],
        );
        assert!(diff(&ulps, &base()).passes());
    }

    #[test]
    fn energy_admits_what_a_scalar_does_not() {
        let moved = doc(0.8, 1.5e5 * (1.0 + 5e-11), 2, [0.0, 0.05], [0.5, 412.25]);
        assert!(diff(&moved, &base()).passes());
        let moved = doc(0.8, 1.5e5 * (1.0 + 2e-10), 2, [0.0, 0.05], [0.5, 412.25]);
        assert!(!diff(&moved, &base()).passes());
    }

    #[test]
    fn a_sub_watt_sample_is_held_to_an_absolute_floor() {
        let moved = doc(0.8, 1.5e5, 2, [0.0, 0.05], [0.5 + 5e-10, 412.25]);
        let d = diff(&moved, &base());
        assert!(d.passes(), "{d}");
        assert_eq!(row(&d, "telemetry.power_w[*].v[*]").differing, 1);
        let moved = doc(0.8, 1.5e5, 2, [0.0, 0.05], [0.5 + 2e-9, 412.25]);
        let d = diff(&moved, &base());
        assert!(!d.passes(), "{d}");
        assert_eq!(row(&d, "telemetry.power_w[*].v[*]").violations, 1);
    }

    #[test]
    fn clocks_integers_and_strings_must_be_equal() {
        let moved = doc(0.8, 1.5e5, 2, [0.0, 0.05f64.next_up()], [0.5, 412.25]);
        let d = diff(&moved, &base());
        assert_eq!(row(&d, "telemetry.power_w[*].t[*]").violations, 1, "{d}");
        let d = diff(&doc(0.8, 1.5e5, 3, [0.0, 0.05], [0.5, 412.25]), &base());
        assert_eq!(row(&d, "restarts").violations, 1, "{d}");
        let d = diff(&base().replace(r#""a""#, r#""b""#), &base());
        assert_eq!(row(&d, "label").violations, 1, "{d}");
    }

    #[test]
    fn structural_differences_are_reported_with_their_indices() {
        let missing = base().replace(r#""restarts":2,"#, "");
        let d = diff(&missing, &base());
        assert!(!d.passes());
        assert_eq!(
            d.structural,
            [Structural {
                path: "restarts".into(),
                what: "only in the second".into()
            }]
        );
        let d = diff(&base(), &missing);
        assert_eq!(d.structural[0].what, "only in the first");

        let longer = base().replace("412.25]", "412.25,3.0]");
        let d = diff(&longer, &base());
        assert_eq!(
            d.structural,
            [Structural {
                path: "telemetry.power_w[0].v".into(),
                what: "length 3 vs 2".into()
            }]
        );

        let retyped = base().replace(r#""profile":null"#, r#""profile":{}"#);
        let d = diff(&retyped, &base());
        assert_eq!(
            d.structural,
            [Structural {
                path: "profile".into(),
                what: "object vs null".into()
            }]
        );
        assert!(!d.passes());
        assert!(d
            .to_string()
            .contains("structural: `profile`: object vs null"));
    }

    #[test]
    fn the_table_names_each_field_and_the_verdict() {
        let moved = doc(0.8 * (1.0 + 1e-9), 1.5e5, 2, [0.0, 0.05], [0.5, 412.25]);
        let table = diff(&moved, &base()).to_string();
        assert!(
            table.contains("| `step_time_s` | scalar 1e-12 | 1 / 1 |"),
            "{table}"
        );
        assert!(table.ends_with("result: 1 field(s) beyond tolerance, 0 structural difference(s)"));
        assert!(diff(&base(), &base())
            .to_string()
            .ends_with("result: within tolerance"));
    }

    #[test]
    fn malformed_text_is_an_error() {
        assert!(texts("{", "{}").is_err());
    }
}
