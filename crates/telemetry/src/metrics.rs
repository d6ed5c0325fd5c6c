//! Cross-layer live metrics hub: counters, gauges and fixed-bucket
//! histograms shared by every layer of the stack while a run is in flight.
//!
//! The paper's methodology samples power/performance/thermal telemetry
//! *live*, not post-hoc; this module is the host-side analogue for the
//! simulator itself. A [`MetricsHub`] owns a small set of **shards** (one
//! per worker thread of a sweep, plus one for the coordinator), each shard
//! holding lock-free atomic instruments. Layers attach via a cheap
//! [`MetricsShard`] handle, register instruments once (a short mutex on
//! the shard's registry), and then record through plain relaxed atomic
//! operations — no locks, no allocation, no cross-shard contention on the
//! hot path.
//!
//! # Attached or absent
//!
//! A hub is either attached or not there at all: layers that integrate it
//! take an `Option` of a hub or shard and build their instrument bundle
//! only when one is given, skipping publication entirely otherwise. The
//! unobserved hot path therefore runs the exact same instructions as
//! before the hub existed (the engine's golden suite pins byte-identical
//! results).
//!
//! # Snapshots and deltas
//!
//! [`MetricsHub::snapshot`] merges every shard into a sorted
//! [`MetricsSnapshot`]: counters and histogram buckets sum across shards,
//! gauges resolve by last-write (a hub-global set sequence). Snapshots
//! **diff** ([`MetricsSnapshot::diff`]) and deltas **add**
//! ([`MetricsSnapshot::add`]) with exact composition —
//! `snap(a→c) == snap(a→b) + snap(b→c)` bit-for-bit — because every stored
//! quantity is an integer: counters and bucket counts are `u64`, histogram
//! sums accumulate in micro-unit fixed point ([`to_micros`]), and gauges
//! carry their raw `f64` bits plus the set sequence. A property test pins
//! the composition law.
//!
//! Snapshots export as Prometheus text ([`MetricsSnapshot::prometheus_text`])
//! and as a JSON tree ([`MetricsSnapshot::to_json`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde_json::{Map, Number, Value};

/// Convert a non-negative quantity to micro-unit fixed point (`1.0` →
/// `1_000_000`). Histogram sums are accumulated in this representation so
/// snapshot deltas subtract exactly; negative and non-finite inputs clamp
/// to zero (instruments only meter non-negative quantities).
pub fn to_micros(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        (v * 1e6).round() as u64
    } else {
        0
    }
}

/// Convert micro-unit fixed point back to a float (`1_000_000` → `1.0`).
pub fn from_micros(u: u64) -> f64 {
    u as f64 / 1e6
}

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone `u64` count.
    Counter,
    /// Last-written `f64` value.
    Gauge,
    /// Fixed-bucket distribution of non-negative observations.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Identity of one instrument: a name plus ordered label pairs
/// (Prometheus-style, e.g. `sweep_points_total{outcome="completed"}`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Metric name (`snake_case`, `_total` suffix on counters by
    /// convention).
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Build an id from a name and label slice.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricId {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// Shared storage behind one instrument handle. A single layout serves all
/// three kinds; unused fields stay empty.
#[derive(Debug)]
struct Slot {
    kind: MetricKind,
    /// Counter count, or gauge value bits.
    value: AtomicU64,
    /// Gauge set-ordering stamp (from the hub-global sequence).
    seq: AtomicU64,
    /// Histogram bucket upper bounds, ascending; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// One count per bound plus the `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    /// Histogram observation count.
    count: AtomicU64,
    /// Histogram observation sum in micro-unit fixed point.
    sum_micros: AtomicU64,
}

impl Slot {
    fn new(kind: MetricKind, bounds: Vec<f64>) -> Self {
        let buckets = match kind {
            MetricKind::Histogram => (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            _ => Vec::new(),
        };
        Slot {
            kind,
            value: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// A monotone counter handle. Cheap to clone. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct Counter {
    slot: Arc<Slot>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.slot.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count on this shard. Cross-shard totals come from
    /// [`MetricsHub::snapshot`].
    pub fn get(&self) -> u64 {
        self.slot.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Gauge {
    slot: Arc<Slot>,
    /// The hub-global set sequence.
    seq: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge. Concurrent sets resolve by a hub-global sequence at
    /// snapshot time (the value and stamp are separate atomics, so a
    /// racing reader may pair a fresh value with a stale stamp — gauges
    /// are sampled approximations by design).
    pub fn set(&self, v: f64) {
        self.slot.value.store(v.to_bits(), Ordering::Relaxed);
        self.slot.seq.store(
            self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Current value on this shard.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.slot.value.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram handle. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Histogram {
    slot: Arc<Slot>,
}

impl Histogram {
    /// Record one observation: increments the first bucket whose upper
    /// bound is ≥ `v` (the trailing `+Inf` bucket otherwise), the count,
    /// and the micro-unit sum.
    pub fn observe(&self, v: f64) {
        let slot = &self.slot;
        let idx = slot
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(slot.bounds.len());
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum_micros.fetch_add(to_micros(v), Ordering::Relaxed);
    }
}

/// One shard's instrument registry: ids resolve to slots with a short
/// mutex (registration path only; recording is lock-free on the slots).
type Registry = Mutex<Vec<(MetricId, Arc<Slot>)>>;

/// The hub: a fixed set of per-worker shards plus the gauge set sequence.
/// Construct once per run ([`MetricsHub::new`]) and hand [`MetricsShard`]
/// handles to layers.
#[derive(Debug)]
pub struct MetricsHub {
    gauge_seq: Arc<AtomicU64>,
    shards: Vec<Registry>,
}

impl MetricsHub {
    /// A hub with `shards` independent shards (typically the
    /// sweep's worker count plus one for the coordinator; clamped to ≥ 1).
    pub fn new(shards: usize) -> Arc<Self> {
        Arc::new(MetricsHub {
            gauge_seq: Arc::new(AtomicU64::new(0)),
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// The shard handle for `worker` (wrapped modulo the shard count).
    pub fn shard(self: &Arc<Self>, worker: usize) -> MetricsShard {
        MetricsShard {
            hub: Arc::clone(self),
            index: worker % self.shards.len(),
        }
    }

    fn register(&self, shard: usize, id: MetricId, kind: MetricKind, bounds: &[f64]) -> Arc<Slot> {
        let mut reg = self.shards[shard]
            .lock()
            .expect("metrics registry poisoned");
        if let Some((_, slot)) = reg.iter().find(|(i, _)| *i == id) {
            assert!(
                slot.kind == kind,
                "metric {:?} re-registered as {} (was {})",
                id.name,
                kind.as_str(),
                slot.kind.as_str()
            );
            return Arc::clone(slot);
        }
        let slot = Arc::new(Slot::new(kind, bounds.to_vec()));
        reg.push((id, Arc::clone(&slot)));
        slot
    }

    /// Merge every shard into one sorted snapshot: counters and histogram
    /// buckets sum across shards, gauges resolve to the latest set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged: std::collections::BTreeMap<MetricId, MetricValue> =
            std::collections::BTreeMap::new();
        for reg in &self.shards {
            let reg = reg.lock().expect("metrics registry poisoned");
            for (id, slot) in reg.iter() {
                let value = match slot.kind {
                    MetricKind::Counter => MetricValue::Counter(slot.value.load(Ordering::Relaxed)),
                    MetricKind::Gauge => MetricValue::Gauge {
                        bits: slot.value.load(Ordering::Relaxed),
                        seq: slot.seq.load(Ordering::Relaxed),
                    },
                    MetricKind::Histogram => MetricValue::Histogram {
                        bounds: slot.bounds.clone(),
                        buckets: slot
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        count: slot.count.load(Ordering::Relaxed),
                        sum_micros: slot.sum_micros.load(Ordering::Relaxed),
                    },
                };
                match merged.get_mut(id) {
                    None => {
                        merged.insert(id.clone(), value);
                    }
                    Some(existing) => existing.combine(&value),
                }
            }
        }
        MetricsSnapshot {
            entries: merged.into_iter().collect(),
        }
    }
}

/// A layer's handle onto one shard of a [`MetricsHub`]. Clone freely;
/// instrument registration is idempotent per `(shard, id)`.
#[derive(Debug, Clone)]
pub struct MetricsShard {
    hub: Arc<MetricsHub>,
    index: usize,
}

impl MetricsShard {
    /// This shard's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Register (or look up) a counter on this shard.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        Counter {
            slot: self.hub.register(self.index, id, MetricKind::Counter, &[]),
        }
    }

    /// Register (or look up) a gauge on this shard.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        Gauge {
            slot: self.hub.register(self.index, id, MetricKind::Gauge, &[]),
            seq: Arc::clone(&self.hub.gauge_seq),
        }
    }

    /// Register (or look up) a histogram on this shard with the given
    /// ascending bucket upper bounds (a `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let id = MetricId::new(name, labels);
        Histogram {
            slot: self
                .hub
                .register(self.index, id, MetricKind::Histogram, bounds),
        }
    }
}

/// One metric's value inside a snapshot or delta.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter count (a difference of counts in a delta).
    Counter(u64),
    /// Gauge value bits plus the hub-global set stamp that won.
    Gauge {
        /// `f64::to_bits` of the value.
        bits: u64,
        /// Set-ordering stamp (higher = later).
        seq: u64,
    },
    /// Histogram state (bucket-count differences in a delta).
    Histogram {
        /// Bucket upper bounds, ascending (`+Inf` implicit at the end).
        bounds: Vec<f64>,
        /// Per-bucket counts (one per bound, plus the `+Inf` bucket).
        buckets: Vec<u64>,
        /// Observation count.
        count: u64,
        /// Observation sum in micro-unit fixed point.
        sum_micros: u64,
    },
}

impl MetricValue {
    /// The numeric reading: count for counters, value for gauges,
    /// observation sum for histograms.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge { bits, .. } => f64::from_bits(*bits),
            MetricValue::Histogram { sum_micros, .. } => from_micros(*sum_micros),
        }
    }

    /// Merge a same-shard-set reading into this one (cross-shard merge at
    /// snapshot time): counters/histograms sum, gauges keep the later set.
    fn combine(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a = a.wrapping_add(*b),
            (
                MetricValue::Gauge { bits, seq },
                MetricValue::Gauge {
                    bits: ob,
                    seq: oseq,
                },
            ) => {
                if *oseq >= *seq {
                    *bits = *ob;
                    *seq = *oseq;
                }
            }
            (
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum_micros,
                    ..
                },
                MetricValue::Histogram {
                    buckets: obuckets,
                    count: ocount,
                    sum_micros: osum,
                    ..
                },
            ) => {
                for (a, b) in buckets.iter_mut().zip(obuckets) {
                    *a = a.wrapping_add(*b);
                }
                *count = count.wrapping_add(*ocount);
                *sum_micros = sum_micros.wrapping_add(*osum);
            }
            (a, b) => panic!(
                "metric kind mismatch in merge: {} vs {}",
                a.kind_str(),
                b.kind_str()
            ),
        }
    }

    fn subtract(&self, earlier: Option<&MetricValue>) -> MetricValue {
        match (self, earlier) {
            (v, None) => v.clone(),
            (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                MetricValue::Counter(a.wrapping_sub(*b))
            }
            // A delta carries the later snapshot's gauge reading whole:
            // gauges are states, not flows, and the set stamp makes delta
            // addition (last write wins) compose exactly.
            (g @ MetricValue::Gauge { .. }, Some(MetricValue::Gauge { .. })) => g.clone(),
            (
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum_micros,
                },
                Some(MetricValue::Histogram {
                    buckets: obuckets,
                    count: ocount,
                    sum_micros: osum,
                    ..
                }),
            ) => MetricValue::Histogram {
                bounds: bounds.clone(),
                buckets: buckets
                    .iter()
                    .zip(obuckets)
                    .map(|(a, b)| a.wrapping_sub(*b))
                    .collect(),
                count: count.wrapping_sub(*ocount),
                sum_micros: sum_micros.wrapping_sub(*osum),
            },
            (a, Some(b)) => panic!(
                "metric kind mismatch in diff: {} vs {}",
                a.kind_str(),
                b.kind_str()
            ),
        }
    }

    fn kind_str(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// A merged, sorted reading of every instrument in a hub — or, via
/// [`MetricsSnapshot::diff`], the exact change between two readings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(id, value)` pairs sorted by id.
    entries: Vec<(MetricId, MetricValue)>,
}

impl MetricsSnapshot {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(id, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricId, &MetricValue)> {
        self.entries.iter().map(|(id, v)| (id, v))
    }

    /// Look up one metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let id = MetricId::new(name, labels);
        self.entries
            .binary_search_by(|(i, _)| i.cmp(&id))
            .ok()
            .map(|idx| &self.entries[idx].1)
    }

    /// A counter's count (0 when absent or not a counter).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Sum of every counter with `name`, across all label sets (e.g. the
    /// per-worker `worker="n"` series of one logical counter).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(id, _)| id.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// A gauge's value (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels) {
            Some(MetricValue::Gauge { bits, .. }) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// The exact change from `earlier` to `self`: counters and histogram
    /// buckets subtract, gauges carry the later reading (with its set
    /// stamp). Deltas compose exactly under [`MetricsSnapshot::add`]:
    /// `c.diff(a) == b.diff(a).add(&c.diff(b))`.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(id, v)| {
                let base = earlier
                    .entries
                    .binary_search_by(|(i, _)| i.cmp(id))
                    .ok()
                    .map(|idx| &earlier.entries[idx].1);
                (id.clone(), v.subtract(base))
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Combine two deltas (or a snapshot and a delta): counters and
    /// histogram buckets add, gauges keep the later set stamp.
    pub fn add(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut merged: std::collections::BTreeMap<MetricId, MetricValue> =
            self.entries.iter().cloned().collect();
        for (id, v) in &other.entries {
            match merged.get_mut(id) {
                None => {
                    merged.insert(id.clone(), v.clone());
                }
                Some(existing) => existing.combine(v),
            }
        }
        MetricsSnapshot {
            entries: merged.into_iter().collect(),
        }
    }

    /// Render in the Prometheus text exposition format: one `# TYPE` line
    /// per metric name, histograms expanded into `_bucket`/`_sum`/`_count`
    /// series. Output is sorted and stable (pinned by a golden test).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (id, value) in &self.entries {
            if last_name != Some(id.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&id.name);
                out.push(' ');
                out.push_str(match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge { .. } => "gauge",
                    MetricValue::Histogram { .. } => "histogram",
                });
                out.push('\n');
                last_name = Some(id.name.as_str());
            }
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        id.name,
                        render_labels(&id.labels, None),
                        c
                    ));
                }
                MetricValue::Gauge { bits, .. } => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        id.name,
                        render_labels(&id.labels, None),
                        f64::from_bits(*bits)
                    ));
                }
                MetricValue::Histogram {
                    bounds,
                    buckets,
                    count,
                    sum_micros,
                } => {
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cumulative += b;
                        let le = bounds
                            .get(i)
                            .map_or_else(|| "+Inf".to_string(), |b| format!("{b}"));
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            id.name,
                            render_labels(&id.labels, Some(&le)),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        id.name,
                        render_labels(&id.labels, None),
                        from_micros(*sum_micros)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        id.name,
                        render_labels(&id.labels, None),
                        count
                    ));
                }
            }
        }
        out
    }

    /// Serialize into a JSON tree: an array of
    /// `{name, labels, kind, ...}` objects in sorted order.
    pub fn to_json(&self) -> Value {
        let metrics: Vec<Value> = self
            .entries
            .iter()
            .map(|(id, value)| {
                let mut obj = Map::new();
                obj.insert("name", Value::String(id.name.clone()));
                let mut labels = Map::new();
                for (k, v) in &id.labels {
                    labels.insert(k.clone(), Value::String(v.clone()));
                }
                obj.insert("labels", Value::Object(labels));
                match value {
                    MetricValue::Counter(c) => {
                        obj.insert("kind", Value::from("counter"));
                        obj.insert("value", Value::Number(Number::from_u64(*c)));
                    }
                    MetricValue::Gauge { bits, .. } => {
                        obj.insert("kind", Value::from("gauge"));
                        obj.insert("value", Value::from(f64::from_bits(*bits)));
                    }
                    MetricValue::Histogram {
                        bounds,
                        buckets,
                        count,
                        sum_micros,
                    } => {
                        obj.insert("kind", Value::from("histogram"));
                        obj.insert(
                            "bounds",
                            Value::Array(bounds.iter().map(|&b| Value::from(b)).collect()),
                        );
                        obj.insert(
                            "buckets",
                            Value::Array(buckets.iter().map(|&b| Value::from(b)).collect()),
                        );
                        obj.insert("count", Value::Number(Number::from_u64(*count)));
                        obj.insert("sum", Value::from(from_micros(*sum_micros)));
                    }
                }
                Value::Object(obj)
            })
            .collect();
        let mut root = Map::new();
        root.insert("metrics", Value::Array(metrics));
        Value::Object(root)
    }
}

/// Render `{k="v",...}` (empty string for no labels), with an optional
/// trailing `le` label for histogram buckets. Label values escape `\`,
/// `"` and newlines per the Prometheus text format.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Histogram bounds (seconds) shared by every `sim_stage_seconds` series.
pub const STAGE_SECONDS_BOUNDS: &[f64] = &[0.001, 0.01, 0.1, 1.0, 10.0, 100.0];

/// Wall-clock stage timer: call [`StageTimer::mark`] at each stage
/// boundary; each mark closes the stage that began at the previous one.
/// [`StageTimer::publish`] hands the marks to a shard once the run has
/// succeeded, so a failed run publishes no partial stages.
#[derive(Debug)]
pub struct StageTimer {
    last: Instant,
    /// Closed stages in execution order: name and wall seconds.
    marks: Vec<(&'static str, f64)>,
}

impl StageTimer {
    /// Start timing (the first stage begins now).
    pub fn start() -> Self {
        StageTimer {
            last: Instant::now(),
            marks: Vec::new(),
        }
    }

    /// Close the stage named `stage`, running since the previous mark or
    /// [`StageTimer::start`].
    pub fn mark(&mut self, stage: &'static str) {
        let now = Instant::now();
        self.marks
            .push((stage, now.duration_since(self.last).as_secs_f64()));
        self.last = now;
    }

    /// Observe every closed stage into `shard`'s `sim_stage_seconds`
    /// histogram, one series per stage name.
    pub fn publish(self, shard: &MetricsShard) {
        for (stage, seconds) in self.marks {
            shard
                .histogram(
                    "sim_stage_seconds",
                    &[("stage", stage)],
                    STAGE_SECONDS_BOUNDS,
                )
                .observe(seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_shards() {
        let hub = MetricsHub::new(3);
        for w in 0..3 {
            hub.shard(w).counter("events_total", &[]).add(10 + w as u64);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter("events_total", &[]), 33);
    }

    #[test]
    fn gauges_resolve_last_write() {
        let hub = MetricsHub::new(2);
        let g0 = hub.shard(0).gauge("rate", &[]);
        let g1 = hub.shard(1).gauge("rate", &[]);
        g0.set(1.0);
        g1.set(2.0);
        g0.set(3.0);
        assert_eq!(hub.snapshot().gauge("rate", &[]), Some(3.0));
    }

    #[test]
    fn histogram_buckets_and_fixed_point_sum() {
        let hub = MetricsHub::new(1);
        let h = hub.shard(0).histogram("wall_s", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        let snap = hub.snapshot();
        let Some(MetricValue::Histogram {
            buckets,
            count,
            sum_micros,
            ..
        }) = snap.get("wall_s", &[])
        else {
            panic!("histogram missing");
        };
        assert_eq!(buckets, &vec![1, 1, 1]);
        assert_eq!(*count, 3);
        assert_eq!(
            *sum_micros,
            to_micros(0.05) + to_micros(0.5) + to_micros(5.0)
        );
    }

    #[test]
    fn diff_subtracts_counters_and_keeps_latest_gauge() {
        let hub = MetricsHub::new(1);
        let shard = hub.shard(0);
        let c = shard.counter("n_total", &[("k", "v")]);
        let g = shard.gauge("level", &[]);
        c.add(5);
        g.set(1.0);
        let a = hub.snapshot();
        c.add(7);
        g.set(4.0);
        let b = hub.snapshot();
        let d = b.diff(&a);
        assert_eq!(d.counter("n_total", &[("k", "v")]), 7);
        assert_eq!(d.gauge("level", &[]), Some(4.0));
    }

    #[test]
    fn labels_distinguish_series_and_counter_sum_folds_them() {
        let hub = MetricsHub::new(1);
        let shard = hub.shard(0);
        shard.counter("pts_total", &[("outcome", "ok")]).add(3);
        shard.counter("pts_total", &[("outcome", "bad")]).add(2);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("pts_total", &[("outcome", "ok")]), 3);
        assert_eq!(snap.counter_sum("pts_total"), 5);
    }

    #[test]
    fn prometheus_text_shape() {
        let hub = MetricsHub::new(1);
        let shard = hub.shard(0);
        shard.counter("a_total", &[("w", "0")]).add(2);
        shard.gauge("b", &[]).set(1.5);
        shard.histogram("c", &[], &[0.5]).observe(0.25);
        let text = hub.snapshot().prometheus_text();
        assert!(text.contains("# TYPE a_total counter\n"));
        assert!(text.contains("a_total{w=\"0\"} 2\n"));
        assert!(text.contains("# TYPE b gauge\n"));
        assert!(text.contains("b 1.5\n"));
        assert!(text.contains("c_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("c_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("c_sum 0.25\n"));
        assert!(text.contains("c_count 1\n"));
    }

    #[test]
    fn registration_is_idempotent_per_shard() {
        let hub = MetricsHub::new(1);
        let shard = hub.shard(0);
        shard.counter("n_total", &[]).add(1);
        shard.counter("n_total", &[]).add(1);
        assert_eq!(hub.snapshot().counter("n_total", &[]), 2);
    }

    #[test]
    fn stage_timer_records_marks_in_order() {
        let hub = MetricsHub::new(1);
        let mut t = StageTimer::start();
        t.mark("first");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.mark("second");
        t.publish(&hub.shard(0));
        let snap = hub.snapshot();
        let stage = |name: &str| match snap.get("sim_stage_seconds", &[("stage", name)]) {
            Some(MetricValue::Histogram {
                count, sum_micros, ..
            }) => (*count, *sum_micros),
            other => panic!("stage {name}: {other:?}"),
        };
        let (first, second) = (stage("first"), stage("second"));
        assert_eq!((first.0, second.0), (1, 1), "one observation per mark");
        // Each mark closes the stage since the previous one: the sleep
        // lands in the second stage only.
        assert!(second.1 >= 2_000, "second stage {}us", second.1);
        assert!(snap
            .get("sim_stage_seconds", &[("stage", "missing")])
            .is_none());
    }
}
