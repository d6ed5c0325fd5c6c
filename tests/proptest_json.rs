//! Property tests of the JSON text layer: random documents, scalars and
//! derived workspace types print to text that reads back to what was
//! printed, and the value tree of a type is the tree of its text.

use charllm_telemetry::{GpuSample, Span, SpanKind, TimeSeries};
use charllm_trace::{ComputeKind, KernelClass};
use proptest::prelude::*;
use serde_json::{Map, Number, Value};

/// Characters a string draws from: JSON's escapes, other control
/// characters, DEL, multi-byte scalars and one that needs a surrogate pair.
const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '\u{ffff}', '😀',
];

/// A deterministic walk over a stream of random words.
struct Words<'a>(std::slice::Iter<'a, u64>);

impl Words<'_> {
    fn next(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    fn string(&mut self) -> String {
        let len = self.next() % 6;
        (0..len)
            .map(|_| CHARS[(self.next() % CHARS.len() as u64) as usize])
            .collect()
    }

    fn float(&mut self) -> f64 {
        match self.next() % 4 {
            // Any bit pattern: NaNs, infinities, subnormals, huge and tiny.
            0 => f64::from_bits(self.next()),
            1 => (self.next() % 2001) as f64 / 8.0 - 125.0,
            2 => -0.0,
            _ => (self.next() as f64) * 1e-300,
        }
    }

    /// A random document at most `depth` containers deep.
    fn value(&mut self, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match self.next() % kinds {
            0 => Value::Null,
            1 => Value::Bool(self.next().is_multiple_of(2)),
            2 => Value::Number(Number::from_u64(self.next())),
            3 => Value::Number(Number::from_i64(self.next() as i64)),
            4 => Value::Number(Number::from_f64(self.float())),
            5 => Value::String(self.string()),
            6 => {
                let len = self.next() % 4;
                Value::Array((0..len).map(|_| self.value(depth - 1)).collect())
            }
            _ => {
                let len = self.next() % 4;
                let mut map = Map::new();
                for _ in 0..len {
                    let key = self.string();
                    map.insert(key, self.value(depth - 1));
                }
                Value::Object(map)
            }
        }
    }
}

/// Print a value, check its tree is the tree of its text, and read the
/// text back as the value's type: `(text, read back)`. (A macro, since
/// this package does not name the `serde` traits.)
macro_rules! through_text {
    ($value:expr) => {{
        let value = $value;
        let text = serde_json::to_string(value).unwrap();
        let tree: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string(&serde_json::to_value(value).unwrap()).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
        let back = as_type_of(value, serde_json::from_str(&text).unwrap());
        (text, back)
    }};
}

/// `back`, typed as `value` is.
fn as_type_of<T>(_value: &T, back: T) -> T {
    back
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn documents_print_to_a_fixed_point(words in collection::vec(0u64..u64::MAX, 64..256)) {
        let v = Words(words.iter()).value(4);
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text.clone());
        let pretty: Value = serde_json::from_str(&serde_json::to_string_pretty(&v).unwrap()).unwrap();
        prop_assert_eq!(serde_json::to_string(&pretty).unwrap(), text);
    }

    #[test]
    fn scalars_read_back_bit_for_bit(bits in 0u64..u64::MAX, s in collection::vec(0u64..16, 0..8)) {
        let f = f64::from_bits(bits);
        let (text, back) = through_text!(&f);
        if f.is_finite() {
            prop_assert_eq!(back.to_bits(), bits, "{}", text);
        } else {
            prop_assert_eq!(text, "null");
        }
        let g = f32::from_bits(bits as u32);
        if g.is_finite() {
            prop_assert_eq!(through_text!(&g).1.to_bits(), g.to_bits());
        }
        prop_assert_eq!(through_text!(&bits).1, bits);
        prop_assert_eq!(through_text!(&(bits as i64)).1, bits as i64);
        let s: String = s.iter().map(|&i| CHARS[i as usize]).collect();
        prop_assert_eq!(through_text!(&s).1, s);
    }

    #[test]
    fn derived_types_read_back_as_printed(
        words in collection::vec(0u64..u64::MAX, 16),
        kind in 0usize..4,
    ) {
        let mut w = Words(words.iter());
        let kind = match kind {
            0 => SpanKind::Compute { kind: ComputeKind::Gemm },
            1 => SpanKind::Compute { kind: ComputeKind::Optimizer },
            2 => SpanKind::Collective { coll: w.next() as u32, class: KernelClass::AllReduce },
            _ => SpanKind::Collective { coll: 0, class: KernelClass::SendRecv },
        };
        let span = Span {
            rank: w.next() as u32,
            gpu: w.next() as u32,
            iteration: w.next() as u32,
            t0_s: w.float(),
            t1_s: w.float(),
            kind,
        };
        let (text, back) = through_text!(&span);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        let sample = GpuSample {
            power_w: w.float(),
            temp_c: w.float(),
            freq_mhz: w.float(),
            util: w.float(),
            pcie_gbps: w.float(),
        };
        let (text, back) = through_text!(&sample);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        let mut series = TimeSeries::new();
        for i in 0..(w.next() % 5) {
            series.push(i as f64 * 0.1, w.float());
        }
        let (text, back) = through_text!(&series);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }
}
