//! Cross-point memoization for sweeps and searches, with an optional
//! persistent disk tier.
//!
//! A [`SimCache`] remembers the two expensive, deterministic artifacts an
//! [`Experiment`](crate::Experiment) produces before simulating:
//!
//! - the **lowered trace**, a pure function of
//!   `(job, parallelism, schedule, partition, hints, inference shape)`;
//! - the **collective plan set** ([`SharedPlans`]), a pure function of
//!   `(cluster, placement, trace)`.
//!
//! Both are keyed by *content*, not identity: keys are the canonical JSON
//! serialization of the inputs (serde_json prints floats
//! shortest-roundtrip, so distinct values never collapse to one key).
//! Points of a sweep or search that resolve to the same inputs — repeated
//! evaluations of a winning configuration, power-cap or thermal ablations
//! over a fixed workload, re-runs under different [`SimConfig`] knobs
//! (simulator knobs are deliberately *not* part of the key: they change
//! how a trace is replayed, never the trace) — then lower once and route
//! collectives once, instead of once per point.
//!
//! One cache is shared by every worker of an
//! [`Executor`](crate::Executor) pool: lookups take a brief mutex on the
//! map only, building happens outside the lock, and the first publisher
//! of a key wins (duplicate concurrent builds of the same key are
//! harmless — the artifacts are deterministic). Results are byte-identical
//! with and without the cache.
//!
//! # Persistent tier
//!
//! [`SimCache::with_disk_tier`] adds a content-addressed directory below
//! the in-memory maps, so the warm path survives process boundaries (CLI
//! invocations, CI runs, server restarts). Every entry is one JSON file
//! named by the FNV-1a hash of its content key, under `lowered/` or
//! `plans/`; the file carries a format-version tag, its full content key
//! (so hash collisions are detected, never silently served) and the
//! serialized artifact. A memory miss probes the directory before
//! building; a disk hit loads the artifact into the memory tier and counts
//! as a hit ([`CacheHit::Disk`]). Anything wrong with a file — truncation,
//! corruption, a version tag from another build, a colliding key — is
//! treated as a plain miss and the entry is rebuilt and rewritten.
//!
//! Writes are deferred to [`SimCache::sync_disk`] (called best-effort by
//! `Experiment::run` after each cached run) because plan sets fill
//! *lazily*: a `SharedPlans` is inserted empty and its slots are built
//! during simulation, so persisting at insert time would write nothing.
//! `sync_disk` rewrites an entry only when it has more content than the
//! copy on disk, via a temp file + atomic rename (a crashed writer leaves
//! at most a stale temp file, never a torn entry).
//!
//! # Bounded memory
//!
//! [`SimCache::with_max_entries`] caps each in-memory family; inserting
//! past the cap evicts the least-recently-used entry (counted in
//! [`CacheStats`], and written back to the disk tier first if it carries
//! unpersisted content). The disk tier itself is unbounded — it is the
//! durable tier.
//!
//! [`SimConfig`]: charllm_sim::SimConfig

use std::collections::HashMap;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::{fnv1a, SharedPlans};
use charllm_telemetry::metrics::{Counter, Gauge, MetricsShard};
use charllm_trace::lower::LoweredJob;
use charllm_trace::{DeviceHints, ExecutionTrace, InferenceConfig};

use crate::error::CoreError;

/// Version tag written into every persisted entry. Bump whenever the
/// serialized shape of [`LoweredJob`] or [`SharedPlans`] (or the key
/// derivation) changes: readers treat any other tag as a miss, so stale
/// caches age out by rebuild instead of by misdeserialization.
///
/// Version 2: a plan set's flows carry only `work pr src dst`; version 1
/// also packed each flow's route and charge list.
pub const DISK_FORMAT_VERSION: u64 = 2;

/// Where a [`SimCache`] lookup was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// Served from the in-memory tier.
    Memory,
    /// Served from the disk tier (and now resident in memory too).
    Disk,
    /// Not cached anywhere: built fresh and published.
    Miss,
}

impl CacheHit {
    /// Whether the artifact was served without building it.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheHit::Miss)
    }
}

/// The two cached families, in the order of the per-family hub arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Family {
    Lowered,
    Plans,
}

impl Family {
    const ALL: [Family; 2] = [Family::Lowered, Family::Plans];

    /// The family's disk subdirectory and hub label.
    fn name(self) -> &'static str {
        match self {
            Family::Lowered => "lowered",
            Family::Plans => "plans",
        }
    }
}

/// A cached artifact: its family, how much persistable content it holds
/// (1 for a lowered trace; built slots for a plan set, which fill lazily
/// during simulation and so grow across syncs) and, through its serde
/// impls, its disk payload.
trait Artifact: Serialize + Deserialize + Sized {
    const FAMILY: Family;
    fn content(&self) -> u64;
    /// The memory tier holding this family.
    fn tier(cache: &SimCache) -> &Mutex<Tier<Self>>;
}

impl Artifact for LoweredJob {
    const FAMILY: Family = Family::Lowered;
    fn content(&self) -> u64 {
        1
    }
    fn tier(cache: &SimCache) -> &Mutex<Tier<Self>> {
        &cache.lowered
    }
}

impl Artifact for SharedPlans {
    const FAMILY: Family = Family::Plans;
    fn content(&self) -> u64 {
        self.num_built() as u64
    }
    fn tier(cache: &SimCache) -> &Mutex<Tier<Self>> {
        &cache.plans
    }
}

/// Live-metrics handles of a [`SimCache`] (see [`SimCache::with_metrics`]),
/// indexed by [`Family`]. Every family is an integer [`Counter`], so
/// [`MetricsSnapshot::diff`] / [`add`] compose the disk-tier counters as
/// exactly as the memory-tier ones.
///
/// [`MetricsSnapshot::diff`]: charllm_telemetry::MetricsSnapshot::diff
/// [`add`]: charllm_telemetry::MetricsSnapshot::add
#[derive(Debug)]
struct CacheMetrics {
    /// `cache_lookups_total{family, result}`, as `[hit, miss]`.
    lookups: [[Counter; 2]; 2],
    /// `cache_disk_lookups_total{family, result}`, as `[hit, miss]`.
    disk_lookups: [[Counter; 2]; 2],
    evictions: [Counter; 2],
    key_bytes: [Counter; 2],
    entries: [Gauge; 2],
    disk_bytes_written: Counter,
}

impl CacheMetrics {
    fn new(shard: &MetricsShard) -> Self {
        let results = |name: &str, family: Family| {
            ["hit", "miss"]
                .map(|result| shard.counter(name, &[("family", family.name()), ("result", result)]))
        };
        let per_family =
            |name: &str| Family::ALL.map(|f| shard.counter(name, &[("family", f.name())]));
        CacheMetrics {
            lookups: Family::ALL.map(|f| results("cache_lookups_total", f)),
            disk_lookups: Family::ALL.map(|f| results("cache_disk_lookups_total", f)),
            evictions: per_family("cache_evictions_total"),
            key_bytes: per_family("cache_inserted_key_bytes_total"),
            entries: Family::ALL.map(|f| shard.gauge("cache_entries", &[("family", f.name())])),
            disk_bytes_written: shard.counter("cache_disk_bytes_written_total", &[]),
        }
    }

    /// Mirror a [`CacheStats`] delta into the counters.
    fn add(&self, mut delta: CacheStats) {
        for f in Family::ALL {
            let [hits, misses, disk_hits, disk_misses, evictions] = delta.family_mut(f).map(|n| *n);
            let i = f as usize;
            self.lookups[i][0].add(hits);
            self.lookups[i][1].add(misses);
            self.disk_lookups[i][0].add(disk_hits);
            self.disk_lookups[i][1].add(disk_misses);
            self.evictions[i].add(evictions);
        }
        self.disk_bytes_written.add(delta.bytes_written);
    }
}

/// One resident entry of an in-memory tier.
#[derive(Debug)]
struct Slot<T> {
    value: Arc<T>,
    /// Recency tick for LRU eviction (monotonic per tier).
    last_used: u64,
    /// How much of this entry's [`Artifact::content`] the disk tier
    /// already holds.
    persisted: u64,
}

/// One in-memory family: a content-keyed map plus an LRU clock.
#[derive(Debug)]
struct Tier<T> {
    map: HashMap<String, Slot<T>>,
    tick: u64,
}

// Manual impl: the derive would demand `T: Default`, which the cached
// artifacts don't (and needn't) satisfy.
impl<T> Default for Tier<T> {
    fn default() -> Self {
        Tier {
            map: HashMap::new(),
            tick: 0,
        }
    }
}

impl<T> Tier<T> {
    /// Look up `key`, refreshing its recency on a hit.
    fn touch(&mut self, key: &str) -> Option<Arc<T>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            Arc::clone(&slot.value)
        })
    }

    /// Insert `value` under `key` unless a concurrent builder got there
    /// first (first insert wins; the artifacts are deterministic). Returns
    /// the resident artifact and whether this call inserted it.
    fn insert(&mut self, key: &str, value: Arc<T>, persisted: u64) -> (Arc<T>, bool) {
        self.tick += 1;
        let tick = self.tick;
        let mut inserted = false;
        let slot = self.map.entry(key.to_string()).or_insert_with(|| {
            inserted = true;
            Slot {
                value,
                last_used: tick,
                persisted,
            }
        });
        slot.last_used = tick;
        (Arc::clone(&slot.value), inserted)
    }

    /// Remove and return the least-recently-used entry. Linear scan: the
    /// map is at most `max_entries` long and evictions are rare next to a
    /// lowering, so an ordering structure would be pure overhead.
    fn evict_lru(&mut self) -> Option<(String, Slot<T>)> {
        let key = self
            .map
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(k, _)| k.clone())?;
        let slot = self.map.remove(&key)?;
        Some((key, slot))
    }
}

/// The content-addressed directory backing a persistent [`SimCache`].
#[derive(Debug)]
struct DiskTier {
    dir: PathBuf,
    /// Distinguishes concurrent temp files of one process; combined with
    /// the process id for cross-process uniqueness.
    nonce: AtomicU64,
}

impl DiskTier {
    fn new(dir: &Path) -> Result<Self, CoreError> {
        for family in Family::ALL {
            std::fs::create_dir_all(dir.join(family.name()))?;
        }
        Ok(DiskTier {
            dir: dir.to_path_buf(),
            nonce: AtomicU64::new(0),
        })
    }

    /// The file of `key`, named by the [`fnv1a`] of the content key, which
    /// is stable across builds as an on-disk address must be. Collisions
    /// are tolerated, not assumed away: the full key inside the file is the
    /// authority, a colliding probe reads as a miss.
    fn path(&self, family: &str, key: &str) -> PathBuf {
        self.dir
            .join(family)
            .join(format!("{:016x}.json", fnv1a(key.as_bytes())))
    }

    /// The persisted artifact for `key`, or `None` when the entry is
    /// absent, truncated, corrupt, from another format version, or a hash
    /// collision — every failure mode is a miss, never an error: the disk
    /// tier is an accelerator, and a bad file just means rebuilding.
    fn load<A: Artifact>(&self, key: &str) -> Option<A> {
        let family = A::FAMILY.name();
        let text = std::fs::read_to_string(self.path(family, key)).ok()?;
        let mut entry = serde::parse(&text).ok()?;
        let tag = entry
            .get("v")
            .and_then(Value::as_number)
            .and_then(serde::Number::to_u64)?;
        if tag != DISK_FORMAT_VERSION
            || entry.get("family").and_then(Value::as_str) != Some(family)
            || entry.get("key").and_then(Value::as_str) != Some(key)
        {
            return None;
        }
        // Take the payload by value: entries run to megabytes and the doc
        // is discarded here anyway, so a clone would only burn load time.
        match &mut entry {
            Value::Object(map) => serde_json::from_value(map.remove("payload")?).ok(),
            _ => None,
        }
    }

    /// Persist `value` under `key` atomically (temp file + rename into
    /// place), returning the bytes written. A failed write or rename
    /// removes its temp file before returning the error.
    fn store<A: Artifact>(&self, key: &str, value: &A) -> Result<u64, CoreError> {
        let family = A::FAMILY.name();
        let mut text = String::new();
        serde::ObjectWriter::new(&mut text)
            .field("v", DISK_FORMAT_VERSION)
            .field("family", family)
            .field("key", key)
            .field("payload", value)
            .end();
        let path = self.path(family, key);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.nonce.fetch_add(1, Ordering::Relaxed)
        ));
        if let Err(err) =
            std::fs::write(&tmp, text.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path))
        {
            let _ = std::fs::remove_file(&tmp);
            return Err(err.into());
        }
        Ok(text.len() as u64)
    }
}

/// Content-keyed cache of lowered traces and collective plan sets, shared
/// across the points of a sweep or search — optionally persistent and
/// optionally bounded (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct SimCache {
    lowered: Mutex<Tier<LoweredJob>>,
    plans: Mutex<Tier<SharedPlans>>,
    disk: Option<DiskTier>,
    max_entries: Option<usize>,
    /// Cumulative counters; every change goes through [`SimCache::bump`].
    total: Mutex<CacheStats>,
    metrics: Option<CacheMetrics>,
}

/// Counters of a [`SimCache`], either cumulative ([`SimCache::stats`]) or
/// for one experiment ([`RunReport::cache`](crate::RunReport::cache)).
///
/// Disk counters refine, not extend, the memory counters: a disk hit is
/// counted in both `*_hits` and `*_disk_hits`, so `hits + misses ==
/// lookups` holds with or without a disk tier and pre-existing consumers
/// keep reconciling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lowered traces served without building (memory or disk).
    pub lowered_hits: u64,
    /// Lowered traces built (and published) on a cache miss.
    pub lowered_misses: u64,
    /// Collective plan sets served without creating (memory or disk).
    pub plan_hits: u64,
    /// Collective plan sets created on a cache miss.
    pub plan_misses: u64,
    /// Lowered traces loaded from the disk tier (subset of `lowered_hits`).
    pub lowered_disk_hits: u64,
    /// Disk probes for a lowered trace that found no usable entry
    /// (0 without a disk tier).
    pub lowered_disk_misses: u64,
    /// Plan sets loaded from the disk tier (subset of `plan_hits`).
    pub plan_disk_hits: u64,
    /// Disk probes for a plan set that found no usable entry
    /// (0 without a disk tier).
    pub plan_disk_misses: u64,
    /// Lowered traces evicted from the bounded in-memory tier.
    pub lowered_evictions: u64,
    /// Plan sets evicted from the bounded in-memory tier.
    pub plan_evictions: u64,
    /// Bytes persisted to the disk tier (syncs and eviction write-backs).
    pub bytes_written: u64,
}

impl CacheStats {
    /// Total lookups across both families.
    pub fn lookups(&self) -> u64 {
        self.lowered_hits + self.lowered_misses + self.plan_hits + self.plan_misses
    }

    /// Total hits across both families (memory and disk).
    pub fn hits(&self) -> u64 {
        self.lowered_hits + self.plan_hits
    }

    /// Total disk-tier hits across both families.
    pub fn disk_hits(&self) -> u64 {
        self.lowered_disk_hits + self.plan_disk_hits
    }

    /// Total evictions across both families.
    pub fn evictions(&self) -> u64 {
        self.lowered_evictions + self.plan_evictions
    }

    /// Field-wise sum: per-run deltas add to the cumulative counters
    /// exactly (everything is an integer).
    pub fn add(&self, other: &CacheStats) -> CacheStats {
        let (mut sum, mut other) = (*self, *other);
        for f in Family::ALL {
            for (a, b) in sum.family_mut(f).into_iter().zip(other.family_mut(f)) {
                *a += *b;
            }
        }
        sum.bytes_written += other.bytes_written;
        sum
    }

    /// The counting rule: what one lookup of `family` served from `hit`
    /// adds. A disk hit is also a hit; a miss is also a disk miss when a
    /// disk tier was probed. [`SimCache`]'s totals and each run's
    /// [`RunReport::cache`](crate::RunReport::cache) both count by it.
    pub(crate) fn lookup(family: Family, hit: CacheHit, disk_tier: bool) -> CacheStats {
        let mut stats = CacheStats::default();
        let [hits, misses, disk_hits, disk_misses, _] = stats.family_mut(family);
        match hit {
            CacheHit::Memory => *hits = 1,
            CacheHit::Disk => (*hits, *disk_hits) = (1, 1),
            CacheHit::Miss => (*misses, *disk_misses) = (1, u64::from(disk_tier)),
        }
        stats
    }

    /// `family`'s counters: hits, misses, disk hits, disk misses,
    /// evictions.
    fn family_mut(&mut self, family: Family) -> [&mut u64; 5] {
        match family {
            Family::Lowered => [
                &mut self.lowered_hits,
                &mut self.lowered_misses,
                &mut self.lowered_disk_hits,
                &mut self.lowered_disk_misses,
                &mut self.lowered_evictions,
            ],
            Family::Plans => [
                &mut self.plan_hits,
                &mut self.plan_misses,
                &mut self.plan_disk_hits,
                &mut self.plan_disk_misses,
                &mut self.plan_evictions,
            ],
        }
    }
}

impl SimCache {
    /// An empty, unbounded, memory-only cache.
    pub fn new() -> Self {
        SimCache::default()
    }

    /// An empty cache that mirrors its hit/miss counters into live metrics:
    /// `cache_lookups_total{family, result}` and
    /// `cache_inserted_key_bytes_total{family}` counters (content keys *are*
    /// the serialized inputs, so key bytes proxy resident content size),
    /// `cache_entries{family}` gauges, and — once a disk tier or entry cap
    /// is attached — `cache_disk_lookups_total{family, result}`,
    /// `cache_evictions_total{family}` and `cache_disk_bytes_written_total`
    /// counters. [`SimCache::stats`] is unchanged and the per-experiment
    /// [`CacheStats`] deltas stay exact — the hub is an additional read
    /// path, never the source of truth.
    pub fn with_metrics(shard: &MetricsShard) -> Self {
        SimCache {
            metrics: Some(CacheMetrics::new(shard)),
            ..SimCache::default()
        }
    }

    /// Attach a persistent content-addressed tier rooted at `dir`
    /// (created, with its `lowered/` and `plans/` subdirectories, if
    /// absent). See the [module docs](self) for the entry format and
    /// failure semantics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the directories cannot be created.
    pub fn with_disk_tier(mut self, dir: impl AsRef<Path>) -> Result<Self, CoreError> {
        self.disk = Some(DiskTier::new(dir.as_ref())?);
        Ok(self)
    }

    /// Cap each in-memory family at `max_entries` entries, evicting the
    /// least-recently-used entry on overflow. Evicted entries with
    /// unpersisted content are written back to the disk tier first (when
    /// one is attached), so bounding memory never loses work.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = Some(max_entries.max(1));
        self
    }

    /// Whether a persistent disk tier is attached.
    pub fn has_disk_tier(&self) -> bool {
        self.disk.is_some()
    }

    /// The content key of a lowered trace: canonical JSON of every input
    /// `lower_train`/`lower_inference` consumes. Exposed so tests can
    /// check the no-collision property directly.
    pub fn lowered_key(
        job: &TrainJob,
        spec: &ParallelismSpec,
        schedule: PipelineSchedule,
        partition: &StagePartition,
        hints: &DeviceHints,
        inference: Option<&InferenceConfig>,
    ) -> String {
        serde_json::to_string(&(job, spec, schedule, &(partition, hints, inference)))
            .expect("lowering inputs serialize")
    }

    /// The content key of a collective plan set: the cluster fingerprint,
    /// the placement, the lowered-trace key the plans belong to, and the
    /// symmetry-fold multiplicity the trace was lowered with (1 =
    /// unfolded). A folded trace has different collective ids and groups
    /// than its unfolded twin, so the two must never share a plan set.
    pub fn plan_key(
        cluster: &Cluster,
        placement: &Placement,
        lowered_key: &str,
        fold_multiplicity: u32,
    ) -> String {
        let placement = serde_json::to_string(placement).expect("placement serializes");
        let mut key = cluster.fingerprint();
        key.push('|');
        key.push_str(&placement);
        key.push('|');
        key.push_str(lowered_key);
        key.push_str("|fold=");
        key.push_str(&fold_multiplicity.to_string());
        key
    }

    /// The lowered trace for `key`, building and publishing it via `build`
    /// on a memory *and* disk miss. Returns the artifact and where it was
    /// served from.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; nothing is cached on failure.
    pub fn lowered(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<LoweredJob, CoreError>,
    ) -> Result<(Arc<LoweredJob>, CacheHit), CoreError> {
        self.fetch(key, |_| true, build)
    }

    /// The shared plan set for
    /// `(cluster, placement, lowered_key, fold_multiplicity)`, reloading a
    /// persisted set from the disk tier or creating an empty set sized for
    /// `trace` on a full miss. Returns the set and where it was served
    /// from. Pass `fold_multiplicity` 1 for an ordinary unfolded trace and
    /// the replica count for a symmetry-folded one (see
    /// [`charllm_sim::fold`]).
    pub fn plans(
        &self,
        cluster: &Cluster,
        placement: &Placement,
        lowered_key: &str,
        trace: &ExecutionTrace,
        fold_multiplicity: u32,
    ) -> (Arc<SharedPlans>, CacheHit) {
        let key = SimCache::plan_key(cluster, placement, lowered_key, fold_multiplicity);
        // A persisted set sized for a different trace would misroute
        // flows, and one naming GPUs the cluster lacks could not be routed;
        // treat either like any other unusable entry.
        let Ok(found) = self.fetch(
            &key,
            |set: &SharedPlans| {
                set.num_collectives() == trace.num_collectives()
                    && set.joins_gpus_within(cluster.num_gpus())
            },
            || Ok::<_, Infallible>(SharedPlans::for_trace(trace)),
        );
        found
    }

    /// The one lookup path: the memory tier, then a disk entry `usable`
    /// accepts, then `build` (published on success).
    fn fetch<A: Artifact, E>(
        &self,
        key: &str,
        usable: impl FnOnce(&A) -> bool,
        build: impl FnOnce() -> Result<A, E>,
    ) -> Result<(Arc<A>, CacheHit), E> {
        let disk_tier = self.disk.is_some();
        if let Some(hit) = A::tier(self).lock().expect("cache poisoned").touch(key) {
            self.bump(CacheStats::lookup(A::FAMILY, CacheHit::Memory, disk_tier));
            return Ok((hit, CacheHit::Memory));
        }
        // Disk probe and build both happen outside the lock: loading or
        // building can take milliseconds and other points must not
        // serialize behind it. A concurrent builder of the same key
        // produces identical bits; first insert wins.
        let loaded = self.disk.as_ref().and_then(|d| d.load::<A>(key));
        if let Some(value) = loaded.filter(usable) {
            self.bump(CacheStats::lookup(A::FAMILY, CacheHit::Disk, disk_tier));
            let persisted = value.content();
            return Ok((self.insert(key, Arc::new(value), persisted), CacheHit::Disk));
        }
        // The disk probe counts before the build runs, so a failed build
        // still leaves its disk miss; the miss itself counts only once the
        // build succeeds.
        let miss = CacheStats::lookup(A::FAMILY, CacheHit::Miss, disk_tier);
        self.bump(CacheStats {
            lowered_misses: 0,
            plan_misses: 0,
            ..miss
        });
        let built = Arc::new(build()?);
        self.bump(CacheStats {
            lowered_disk_misses: 0,
            plan_disk_misses: 0,
            ..miss
        });
        Ok((self.insert(key, built, 0), CacheHit::Miss))
    }

    /// Publish `value` under `key` (first insert wins), then evict past
    /// the cap, writing evictees with unpersisted content back to disk.
    fn insert<A: Artifact>(&self, key: &str, value: Arc<A>, persisted: u64) -> Arc<A> {
        let (entry, evicted) = {
            let mut tier = A::tier(self).lock().expect("cache poisoned");
            let (entry, inserted) = tier.insert(key, value, persisted);
            let evicted = self.overflow(&mut tier);
            if let Some(m) = &self.metrics {
                let i = A::FAMILY as usize;
                if inserted {
                    m.key_bytes[i].add(key.len() as u64);
                }
                m.entries[i].set(tier.map.len() as f64);
            }
            (entry, evicted)
        };
        if !evicted.is_empty() {
            let mut delta = CacheStats::default();
            let [.., evictions] = delta.family_mut(A::FAMILY);
            *evictions = evicted.len() as u64;
            self.bump(delta);
        }
        // Write evictees back outside the lock. A racing lookup for an
        // evicted key may rebuild before the write lands; harmless, the
        // bits are identical. Best-effort: an I/O failure here only costs
        // a future rebuild, it must not fail the lookup that evicted.
        if let Some(disk) = &self.disk {
            for (ekey, slot) in evicted
                .iter()
                .filter(|(_, s)| s.value.content() > s.persisted)
            {
                if let Ok(bytes) = disk.store(ekey, &*slot.value) {
                    self.bump(CacheStats {
                        bytes_written: bytes,
                        ..CacheStats::default()
                    });
                }
            }
        }
        entry
    }

    /// Persist everything the memory tiers hold that the disk tier does
    /// not: unwritten lowered traces, and plan sets with more built slots
    /// than their last persisted copy (plan sets fill lazily *during*
    /// simulation, which is why persistence is a sync and not an
    /// insert-time write). No-op without a disk tier. Returns the bytes
    /// written by this call.
    ///
    /// [`Experiment::run`](crate::Experiment::run) syncs after every
    /// cached run, best-effort; long-lived holders (the job server) may
    /// also sync at their own cadence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when an entry cannot be written. Every
    /// other dirty entry is still written (and counted); the failed one
    /// stays dirty for the next sync.
    pub fn sync_disk(&self) -> Result<u64, CoreError> {
        let (written, failure) = self.sync();
        failure.map_or(Ok(written), Err)
    }

    /// [`SimCache::sync_disk`] that shrugs off write failures: the failed
    /// entries stay dirty for the next sync, and the bytes that were
    /// written are returned and counted. A finished run must not fail, nor
    /// poison the cache for later runs, because persisting it failed.
    pub(crate) fn sync_disk_best_effort(&self) -> u64 {
        self.sync().0
    }

    /// Sync both tiers; returns the bytes written and the first failure.
    fn sync(&self) -> (u64, Option<CoreError>) {
        let Some(disk) = &self.disk else {
            return (0, None);
        };
        let mut failure = None;
        let written = self.sync_tier::<LoweredJob>(disk, &mut failure)
            + self.sync_tier::<SharedPlans>(disk, &mut failure);
        self.bump(CacheStats {
            bytes_written: written,
            ..CacheStats::default()
        });
        (written, failure)
    }

    /// Write every entry of `A`'s tier with more content than its disk
    /// copy. Dirty entries are collected under the lock, written outside
    /// it (writes are the slow part), then marked persisted. An entry whose
    /// write fails stays dirty and its error lands in `failure` (the first
    /// one wins). A concurrent sync may duplicate a write; both produce
    /// identical bits.
    fn sync_tier<A: Artifact>(&self, disk: &DiskTier, failure: &mut Option<CoreError>) -> u64 {
        let dirty: Vec<(String, Arc<A>, u64)> = A::tier(self)
            .lock()
            .expect("cache poisoned")
            .map
            .iter()
            .filter(|(_, slot)| slot.value.content() > slot.persisted)
            .map(|(k, slot)| (k.clone(), Arc::clone(&slot.value), slot.value.content()))
            .collect();
        let mut written = 0;
        for (key, value, content) in dirty {
            match disk.store(&key, &*value) {
                Ok(bytes) => written += bytes,
                Err(err) => {
                    failure.get_or_insert(err);
                    continue;
                }
            }
            if let Some(slot) = A::tier(self)
                .lock()
                .expect("cache poisoned")
                .map
                .get_mut(&key)
            {
                slot.persisted = slot.persisted.max(content);
            }
        }
        written
    }

    /// Evict LRU entries until the tier respects `max_entries`.
    fn overflow<T>(&self, tier: &mut Tier<T>) -> Vec<(String, Slot<T>)> {
        let Some(cap) = self.max_entries else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while tier.map.len() > cap {
            match tier.evict_lru() {
                Some(entry) => evicted.push(entry),
                None => break,
            }
        }
        evicted
    }

    /// Add `delta` to the cumulative counters and mirror it into the hub.
    fn bump(&self, delta: CacheStats) {
        let mut total = self.total.lock().expect("cache poisoned");
        *total = total.add(&delta);
        if let Some(m) = &self.metrics {
            m.add(delta);
        }
    }

    /// Cumulative counters across every worker sharing the cache.
    pub fn stats(&self) -> CacheStats {
        *self.total.lock().expect("cache poisoned")
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lowered {} hits / {} misses, plans {} hits / {} misses, \
             disk {} hits / {} misses / {} B written, {} evictions",
            self.lowered_hits,
            self.lowered_misses,
            self.plan_hits,
            self.plan_misses,
            self.disk_hits(),
            self.lowered_disk_misses + self.plan_disk_misses,
            self.bytes_written,
            self.evictions(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_models::presets as models;
    use charllm_trace::lower_train;

    fn inputs() -> (TrainJob, ParallelismSpec, StagePartition, DeviceHints) {
        let cluster = charllm_hw::presets::hgx_h200_cluster();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::parse("TP2-PP2", cluster.num_gpus()).unwrap();
        let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        (job, spec, partition, hints)
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "charllm-cache-{tag}-{}-{}",
            std::process::id(),
            nanos
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lowered_key_separates_inputs() {
        let (job, spec, partition, hints) = inputs();
        let key = |job: &TrainJob| {
            SimCache::lowered_key(
                job,
                &spec,
                PipelineSchedule::OneFOneB,
                &partition,
                &hints,
                None,
            )
        };
        let base = key(&job);
        assert_eq!(base, key(&job), "same inputs, same key");
        assert_ne!(base, key(&job.clone().with_global_batch(16)));
        assert_ne!(base, key(&job.clone().with_recompute(true)));
        let inference = InferenceConfig {
            batch: 1,
            prompt_len: 64,
            decode_tokens: 2,
        };
        assert_ne!(
            base,
            SimCache::lowered_key(
                &job,
                &spec,
                PipelineSchedule::OneFOneB,
                &partition,
                &hints,
                Some(&inference),
            ),
            "training and inference never alias"
        );
    }

    #[test]
    fn lowered_builds_once_and_hits_after() {
        let (job, spec, partition, hints) = inputs();
        let key = SimCache::lowered_key(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
            None,
        );
        let cache = SimCache::new();
        let build = || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                .map_err(CoreError::from)
        };
        let (first, hit) = cache.lowered(&key, build).unwrap();
        assert_eq!(hit, CacheHit::Miss);
        let (second, hit) = cache
            .lowered(&key, || panic!("hit must not rebuild"))
            .unwrap();
        assert_eq!(hit, CacheHit::Memory);
        assert!(
            Arc::ptr_eq(&first, &second),
            "hit returns the same artifact"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                lowered_hits: 1,
                lowered_misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache = SimCache::new();
        let err = cache.lowered("k", || Err(CoreError::Incomplete("nope".into())));
        assert!(err.is_err());
        assert_eq!(cache.stats().lookups(), 0, "failed build leaves no trace");
        let (_, hit) = cache
            .lowered("k", || {
                let (job, spec, partition, hints) = inputs();
                lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                    .map_err(CoreError::from)
            })
            .unwrap();
        assert_eq!(hit, CacheHit::Miss, "key stays buildable after a failure");

        // With a disk tier the probe ran before the build failed, so it
        // counts; the miss itself does not.
        let dir = scratch_dir("failed-build");
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        assert!(cache
            .lowered("k", || Err(CoreError::Incomplete("nope".into())))
            .is_err());
        assert_eq!(
            cache.stats(),
            CacheStats {
                lowered_disk_misses: 1,
                ..CacheStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_sets_key_on_cluster_placement_and_trace() {
        let cluster = charllm_hw::presets::hgx_h200_cluster();
        let (job, spec, partition, hints) = inputs();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let placement = Placement::identity(&cluster, lowered.trace.world()).unwrap();
        let cache = SimCache::new();
        let (set, hit) = cache.plans(&cluster, &placement, "trace-a", &lowered.trace, 1);
        assert_eq!(hit, CacheHit::Miss);
        assert_eq!(set.num_collectives(), lowered.trace.num_collectives());
        let (again, hit) = cache.plans(&cluster, &placement, "trace-a", &lowered.trace, 1);
        assert_eq!(hit, CacheHit::Memory);
        assert!(Arc::ptr_eq(&set, &again));
        let (_, hit) = cache.plans(&cluster, &placement, "trace-b", &lowered.trace, 1);
        assert_eq!(
            hit,
            CacheHit::Miss,
            "different trace key, different plan set"
        );
        let (_, hit) = cache.plans(&cluster, &placement, "trace-a", &lowered.trace, 4);
        assert_eq!(
            hit,
            CacheHit::Miss,
            "folded and unfolded plan sets never alias"
        );
        let other = charllm_hw::presets::hgx_h100_cluster();
        let other_placement = Placement::identity(&other, lowered.trace.world()).unwrap();
        let (_, hit) = cache.plans(&other, &other_placement, "trace-a", &lowered.trace, 1);
        assert_eq!(hit, CacheHit::Miss, "different cluster, different plan set");
    }

    #[test]
    fn disk_tier_survives_a_new_cache() {
        let dir = scratch_dir("roundtrip");
        let (job, spec, partition, hints) = inputs();
        let key = SimCache::lowered_key(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
            None,
        );
        let build = || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                .map_err(CoreError::from)
        };
        let first = {
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            let (lowered, hit) = cache.lowered(&key, build).unwrap();
            assert_eq!(hit, CacheHit::Miss);
            let written = cache.sync_disk().unwrap();
            assert!(written > 0, "sync persists the fresh entry");
            assert_eq!(cache.stats().bytes_written, written);
            lowered
        };
        // A fresh cache over the same directory models a new process.
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        let (reloaded, hit) = cache
            .lowered(&key, || panic!("disk hit must not rebuild"))
            .unwrap();
        assert_eq!(hit, CacheHit::Disk);
        assert_eq!(*reloaded, *first, "reloaded artifact is identical");
        let stats = cache.stats();
        assert_eq!(stats.lowered_disk_hits, 1);
        assert_eq!(stats.lowered_hits, 1, "disk hits count as hits");
        assert_eq!(cache.sync_disk().unwrap(), 0, "nothing left to persist");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Four unusable variants of the entry text `pristine`: truncated,
    /// garbage, tagged with format version `stale`, and holding another
    /// content key (as at a colliding address).
    fn corruptions(pristine: &str, stale: u64) -> [(&'static str, String); 4] {
        let tagged = pristine.replacen(
            &format!("\"v\":{DISK_FORMAT_VERSION}"),
            &format!("\"v\":{stale}"),
            1,
        );
        assert_ne!(tagged, pristine, "version tag located in the entry");
        // The stored `key` field is rewritten through the JSON layer: the
        // raw key text is escaped inside the file, so a textual replace
        // would miss it.
        let mut doc: serde_json::Value = serde_json::from_str(pristine).unwrap();
        if let serde_json::Value::Object(map) = &mut doc {
            map.insert(
                "key",
                serde_json::Value::String("some-other-content-key".into()),
            );
        }
        [
            (
                "truncated entry",
                pristine[..pristine.len() / 2].to_string(),
            ),
            ("corrupt entry", "not json at all".to_string()),
            ("version-tag mismatch", tagged),
            ("hash collision", serde_json::to_string(&doc).unwrap()),
        ]
    }

    #[test]
    fn corrupt_truncated_and_mismatched_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        let (job, spec, partition, hints) = inputs();
        let key = SimCache::lowered_key(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
            None,
        );
        let build = || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                .map_err(CoreError::from)
        };
        {
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            cache.lowered(&key, build).unwrap();
            cache.sync_disk().unwrap();
        }
        let path = dir
            .join("lowered")
            .join(format!("{:016x}.json", fnv1a(key.as_bytes())));
        let pristine = std::fs::read_to_string(&path).unwrap();

        for (tag, text) in corruptions(&pristine, DISK_FORMAT_VERSION + 1) {
            std::fs::write(&path, text).unwrap();
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            let (_, hit) = cache.lowered(&key, build).unwrap();
            assert_eq!(hit, CacheHit::Miss, "{tag} must read as a miss");
            assert_eq!(cache.stats().lowered_disk_misses, 1, "{tag}");
        }

        // The plan family, with the stale tag set to the retired version 1
        // (whose flows also packed routes and charge lists).
        let cluster = charllm_hw::presets::hgx_h200_cluster();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let trace = &lowered.trace;
        let placement = Placement::identity(&cluster, trace.world()).unwrap();
        {
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            let (set, _) = cache.plans(&cluster, &placement, &key, trace, 1);
            charllm_sim::Simulator::new(
                &cluster,
                &placement,
                trace,
                charllm_sim::SimConfig::fast(),
            )
            .unwrap()
            .with_shared_plans(set)
            .unwrap()
            .run()
            .unwrap();
            cache.sync_disk().unwrap();
        }
        let plan_key = SimCache::plan_key(&cluster, &placement, &key, 1);
        let plan_path = dir
            .join("plans")
            .join(format!("{:016x}.json", fnv1a(plan_key.as_bytes())));
        let plans_pristine = std::fs::read_to_string(&plan_path).unwrap();
        for (tag, text) in corruptions(&plans_pristine, 1) {
            std::fs::write(&plan_path, text).unwrap();
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            let (set, hit) = cache.plans(&cluster, &placement, &key, trace, 1);
            assert_eq!(hit, CacheHit::Miss, "plan set: {tag} must read as a miss");
            assert_eq!(set.num_built(), 0, "plan set: {tag}");
            assert_eq!(cache.stats().plan_disk_misses, 1, "plan set: {tag}");
        }

        // Every rebuild rewrote the entry on sync; the final state is
        // servable again.
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        let (_, hit) = cache.lowered(&key, build).unwrap();
        assert_eq!(hit, CacheHit::Miss, "last miss did not sync");
        cache.sync_disk().unwrap();
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        let (_, hit) = cache.lowered(&key, || panic!("must hit")).unwrap();
        assert_eq!(hit, CacheHit::Disk);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_sets_roundtrip_through_disk_with_built_slots() {
        let dir = scratch_dir("plans");
        let cluster = charllm_hw::presets::hgx_h200_cluster();
        let (job, spec, partition, hints) = inputs();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let placement = Placement::identity(&cluster, lowered.trace.world()).unwrap();
        {
            let cache = SimCache::new().with_disk_tier(&dir).unwrap();
            let (set, hit) = cache.plans(&cluster, &placement, "k", &lowered.trace, 1);
            assert_eq!(hit, CacheHit::Miss);
            // An empty set has nothing to persist yet.
            assert_eq!(cache.sync_disk().unwrap(), 0);
            // Simulate filling it (as a run would) and sync again.
            let sim = charllm_sim::Simulator::new(
                &cluster,
                &placement,
                &lowered.trace,
                charllm_sim::SimConfig::fast(),
            )
            .unwrap()
            .with_shared_plans(Arc::clone(&set))
            .unwrap();
            sim.run().unwrap();
            assert!(set.num_built() > 0);
            assert!(cache.sync_disk().unwrap() > 0, "built plans persist");
        }
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        let (set, hit) = cache.plans(&cluster, &placement, "k", &lowered.trace, 1);
        assert_eq!(hit, CacheHit::Disk);
        assert!(set.num_built() > 0, "built slots came back published");
        assert_eq!(set.num_collectives(), lowered.trace.num_collectives());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the exact bytes `sync_disk` writes for one lowered trace and
    /// one filled plan set. A change to either encoding (or to the entry
    /// envelope) fails here, and must bump `DISK_FORMAT_VERSION` on purpose.
    #[test]
    fn disk_entry_bytes_are_pinned() {
        let dir = scratch_dir("pinned");
        let cluster = charllm_hw::presets::hgx_h200_cluster();
        let (job, spec, partition, hints) = inputs();
        let key = SimCache::lowered_key(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
            None,
        );
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        let (lowered, _) = cache
            .lowered(&key, || {
                lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
                    .map_err(CoreError::from)
            })
            .unwrap();
        let placement = Placement::identity(&cluster, lowered.trace.world()).unwrap();
        let (set, _) = cache.plans(&cluster, &placement, &key, &lowered.trace, 1);
        charllm_sim::Simulator::new(
            &cluster,
            &placement,
            &lowered.trace,
            charllm_sim::SimConfig::fast(),
        )
        .unwrap()
        .with_shared_plans(set)
        .unwrap()
        .run()
        .unwrap();
        let written = cache.sync_disk().unwrap();
        let mut files = Vec::new();
        for family in ["lowered", "plans"] {
            for entry in std::fs::read_dir(dir.join(family)).unwrap() {
                let path = entry.unwrap().path();
                let text = std::fs::read_to_string(&path).unwrap();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if family == "lowered" {
                    // Version 2 changed only the plan encoding: with its tag
                    // put back, the lowered entry is version 1's byte for byte.
                    let v1 = text.replacen("\"v\":2", "\"v\":1", 1);
                    assert_eq!(fnv1a(v1.as_bytes()), 0xfe37_63ad_3202_c7b4);
                }
                files.push((family, name, text.len(), fnv1a(text.as_bytes())));
            }
        }
        files.sort();
        assert_eq!(
            written,
            files.iter().map(|f| f.2 as u64).sum::<u64>(),
            "sync reports exactly the bytes it wrote"
        );
        let pinned = [
            (
                "lowered",
                "8e14abb418ad7183.json",
                93_310,
                0x261d_68fc_6a6b_c07d,
            ),
            (
                "plans",
                "9dd2e6e84d885469.json",
                43_234,
                0x322f_7202_8a5d_eb91,
            ),
        ];
        let pinned: Vec<_> = pinned
            .iter()
            .map(|&(family, name, len, hash)| (family, name.to_string(), len, hash))
            .collect();
        assert_eq!(files, pinned);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_disk_write_leaves_no_temp_file() {
        let dir = scratch_dir("squat");
        let (job, spec, partition, hints) = inputs();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let cache = SimCache::new().with_disk_tier(&dir).unwrap();
        cache.lowered("k", || Ok(lowered)).unwrap();
        // A directory squatting on the entry's path makes the rename fail.
        let entry = dir
            .join("lowered")
            .join(format!("{:016x}.json", fnv1a(b"k")));
        std::fs::create_dir_all(entry.join("occupied")).unwrap();
        assert!(cache.sync_disk().is_err());
        assert!(cache.sync_disk().is_err(), "the entry stays dirty");
        for entry in std::fs::read_dir(dir.join("lowered")).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.contains("tmp."), "leaked temp file {name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_persist_fails_neither_the_run_nor_later_runs() {
        let dir = scratch_dir("persist");
        let (job, spec, partition, hints) = inputs();
        let cache = Arc::new(SimCache::new().with_disk_tier(&dir).unwrap());
        let key = SimCache::lowered_key(
            &job,
            &spec,
            PipelineSchedule::OneFOneB,
            &partition,
            &hints,
            None,
        );
        // A directory squatting on the lowered entry's path makes its
        // write fail; the plan set still persists.
        let entry = dir
            .join("lowered")
            .join(format!("{:016x}.json", fnv1a(key.as_bytes())));
        std::fs::create_dir_all(entry.join("occupied")).unwrap();
        let experiment = crate::Experiment::builder()
            .cluster(charllm_hw::presets::hgx_h200_cluster())
            .job(job)
            .parallelism("TP2-PP2")
            .unwrap()
            .sim_config(charllm_sim::SimConfig::fast())
            .cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let first = experiment.run().expect("a failed persist fails no run");
        let second = experiment.run().expect("nor poisons the cache");
        assert_eq!(
            serde_json::to_string(&first.sim).unwrap(),
            serde_json::to_string(&second.sim).unwrap()
        );
        let plans: Vec<_> = std::fs::read_dir(dir.join("plans")).unwrap().collect();
        assert_eq!(plans.len(), 1, "the plan set persisted");
        let plan_bytes = plans[0].as_ref().unwrap().metadata().unwrap().len();
        assert_eq!(first.cache.unwrap().bytes_written, plan_bytes);
        assert_eq!(second.cache.unwrap().bytes_written, 0);
        assert!(cache.sync_disk().is_err(), "the entry stays dirty");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Other programs read these forms: `GET /cache` clients parse the
    /// JSON field names (a renamed field would silently read as zero) and
    /// `ci.sh` greps the `Display` line.
    #[test]
    fn stats_json_and_display_forms_are_pinned() {
        let stats = CacheStats {
            lowered_hits: 1,
            lowered_misses: 2,
            plan_hits: 3,
            plan_misses: 4,
            lowered_disk_hits: 5,
            lowered_disk_misses: 6,
            plan_disk_hits: 7,
            plan_disk_misses: 8,
            lowered_evictions: 9,
            plan_evictions: 10,
            bytes_written: 11,
        };
        assert_eq!(
            serde_json::to_string(&stats).unwrap(),
            "{\"lowered_hits\":1,\"lowered_misses\":2,\"plan_hits\":3,\"plan_misses\":4,\
             \"lowered_disk_hits\":5,\"lowered_disk_misses\":6,\"plan_disk_hits\":7,\
             \"plan_disk_misses\":8,\"lowered_evictions\":9,\"plan_evictions\":10,\
             \"bytes_written\":11}"
        );
        assert_eq!(
            stats.to_string(),
            "lowered 1 hits / 2 misses, plans 3 hits / 4 misses, \
             disk 12 hits / 14 misses / 11 B written, 19 evictions"
        );
    }

    #[test]
    fn bounded_tier_evicts_lru_and_counts_it() {
        let (job, spec, partition, hints) = inputs();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let cache = SimCache::new().with_max_entries(2);
        let build = || Ok(lowered.clone());
        cache.lowered("a", build).unwrap();
        cache.lowered("b", build).unwrap();
        cache.lowered("a", || panic!("resident")).unwrap(); // a now newer than b
        cache.lowered("c", build).unwrap(); // evicts b
        assert_eq!(cache.stats().lowered_evictions, 1);
        let (_, hit) = cache.lowered("a", || panic!("a stayed resident")).unwrap();
        assert_eq!(hit, CacheHit::Memory);
        let (_, hit) = cache.lowered("b", build).unwrap();
        assert_eq!(hit, CacheHit::Miss, "b was the LRU victim");
        assert_eq!(cache.stats().lowered_evictions, 2, "refetching b evicted c");
    }

    #[test]
    fn eviction_writes_dirty_entries_back_to_disk() {
        let dir = scratch_dir("writeback");
        let (job, spec, partition, hints) = inputs();
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let cache = SimCache::new()
            .with_disk_tier(&dir)
            .unwrap()
            .with_max_entries(1);
        let build = || Ok(lowered.clone());
        cache.lowered("a", build).unwrap();
        cache.lowered("b", build).unwrap(); // evicts dirty "a" -> write-back
        let stats = cache.stats();
        assert_eq!(stats.lowered_evictions, 1);
        assert!(stats.bytes_written > 0, "dirty evictee persisted");
        let (_, hit) = cache.lowered("a", || panic!("disk has a")).unwrap();
        assert_eq!(hit, CacheHit::Disk, "evicted entry served from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_compose_exactly() {
        // Disk hits also count as plain hits (see the `plan_hits` doc), so
        // consistent stats carry both.
        let a = CacheStats {
            lowered_hits: 1,
            plan_hits: 2,
            plan_disk_hits: 2,
            bytes_written: 10,
            ..CacheStats::default()
        };
        let b = CacheStats {
            lowered_hits: 3,
            lowered_evictions: 1,
            bytes_written: 5,
            ..CacheStats::default()
        };
        let sum = a.add(&b);
        assert_eq!(sum.lowered_hits, 4);
        assert_eq!(sum.plan_disk_hits, 2);
        assert_eq!(sum.lowered_evictions, 1);
        assert_eq!(sum.bytes_written, 15);
        assert_eq!(sum.hits(), 6);
        assert_eq!(sum.disk_hits(), 2);
        assert_eq!(sum.evictions(), 1);
    }
}
