//! The event-driven work-progress simulation engine.
//!
//! Semantically this engine is the scan-based [`crate::ReferenceSimulator`]
//! (the seed engine, kept as the executable spec); structurally it replaces
//! every per-event global recomputation with incremental state:
//!
//! - **Collective plan cache** — `lower_collective` + route resolution are
//!   pure functions of `(CollectiveId, placement, cluster)`, so each
//!   collective is lowered once into a `CollPlan` of flows with
//!   precomputed routes, work, payload ratios, and per-flow *charge lists*
//!   of `(gpu, LinkClass)` telemetry owners (replacing the per-event
//!   per-route ownership `match`).
//! - **Incremental link loads** — `link_load` is updated on flow
//!   launch/retire instead of being rebuilt from all flows × routes in
//!   every `next_dt`; per-flow bottleneck rates are cached and invalidated
//!   by a load-epoch counter.
//! - **Waiter wake-lists** — completing collectives wake exactly their
//!   registered waiters and completing computes re-enqueue only their own
//!   rank, instead of re-scanning every rank per event. The two-queue
//!   drain (`ready_now` min-heap + `ready_next`) reproduces the reference
//!   scan order exactly; see the queue fields for the invariant.
//! - **CollState pruning** — per-`(iteration, collective)` bookkeeping is
//!   retired as soon as the collective is complete and every `CollWait`
//!   that references it has passed, bounding the map to the in-flight
//!   iteration window.
//!
//! Results are byte-identical to the reference engine; the golden tests in
//! `tests/engine_golden.rs` enforce this on serialized [`SimResult`]s.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use charllm_hw::{Cluster, GpuId, LinkClass};
use charllm_net::{lower_collective, ArenaItem, LinkHealth, SliceArena, SliceRef};
use charllm_parallel::Placement;
use charllm_telemetry::metrics::{Gauge, MetricsShard};
use charllm_telemetry::{GpuSample, TelemetryStore};
use charllm_thermal::{GovernorConfig, GpuThermal, GpuVariability, ThermalSpec};
use charllm_trace::{ExecutionTrace, FloatTable, KernelClass, Step};

use crate::accrual;
use crate::arena::{FlowArena, MAX_ROUTE_LINKS};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::fault::{FaultEvent, FaultPlan, RecoveryPolicy};
use crate::observer::{NoopObserver, SimObserver, TaskKind};
use crate::result::{KernelBreakdown, OccupancyStats, SimResult, TrafficMatrix};

/// What a rank is currently doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RankMode {
    /// Ready to process its next step.
    Ready,
    /// Running a compute kernel.
    Computing {
        kind: charllm_trace::ComputeKind,
        remaining_flops: f64,
    },
    /// Blocked on a collective.
    Waiting { coll: u32 },
    /// All iterations done.
    Finished,
}

#[derive(Debug)]
struct RankState {
    gpu: GpuId,
    step_idx: usize,
    iteration: usize,
    mode: RankMode,
}

#[derive(Debug, Default)]
struct CollState {
    arrived: u32,
    launched: bool,
    flows_remaining: u32,
    complete: bool,
    /// `CollWait`s that have passed this instance (immediately or via a
    /// wake); once it reaches the trace-wide wait count the entry is dead.
    waits_passed: u32,
    /// Ranks blocked in `CollWait` on this instance, woken on completion.
    waiters: Vec<usize>,
}

impl CollState {
    /// Reset for a fresh instance, keeping the waiter list's allocation.
    fn reset(&mut self) {
        self.arrived = 0;
        self.launched = false;
        self.flows_remaining = 0;
        self.complete = false;
        self.waits_passed = 0;
        self.waiters.clear();
    }
}

/// One parity slot of the flat collective-state slab. Live instances of a
/// collective id are at most two iterations apart (a rank can only run
/// ahead of a group peer by the in-flight iteration window the trace's
/// waits enforce), so `[coll][iteration & 1]` addresses every live
/// instance with a dense array instead of a hash map. `arrive` asserts the
/// invariant on every miss.
#[derive(Debug, Default)]
struct CollSlot {
    iter: u32,
    live: bool,
    state: CollState,
}

/// One flow of a cached collective plan in its *portable* form: fixed
/// inline arrays sized by [`MAX_ROUTE_LINKS`] (the longest route any preset
/// topology produces: pcie → nic → leaf → spine → leaf → nic → pcie on a
/// rail-fabric cluster). This is the cross-process representation —
/// shared through [`SharedPlans`] and persisted in its packed encoding
/// (every field an integer or an interned `f64`, so a set reloads
/// bit-exact). At install time each
/// `PlanFlow` is interned into the engine's route/charge arenas as a
/// [`PlanFlowRef`], which is what the hot loops read.
#[derive(Debug, Clone, Copy)]
struct PlanFlow {
    /// Effective work in byte-equivalents (payload + overhead).
    work: f64,
    /// Payload bytes per unit of work.
    payload_ratio: f64,
    src: GpuId,
    dst: GpuId,
    route_len: u8,
    /// Link indices along the route.
    links: [u32; MAX_ROUTE_LINKS],
    /// Per-link `bw_gbps * 1e9`, premultiplied so the rate loop divides
    /// the exact product the reference engine computes.
    bw1e9: [f64; MAX_ROUTE_LINKS],
    /// Per-link load multiplier. Always 1 in an unfolded run. A
    /// symmetry-folded run simulates one replica's intra-replica flows and
    /// stands them in for all `D` replicas' load on *shared* (switch-tier)
    /// links by attaching/detaching `D` load units there; replica-private
    /// links (NVLink, PCIe, NIC) keep 1.
    mult: [u16; MAX_ROUTE_LINKS],
    /// Telemetry/traffic owners along the route, in charge order: the
    /// `(gpu index, link class)` pairs for which the reference engine's
    /// per-link ownership match returns true.
    charge_len: u8,
    charge_gpu: [u32; MAX_ROUTE_LINKS],
    charge_class: [LinkClass; MAX_ROUTE_LINKS],
}

/// A collective lowered once: reused for every launch of its id.
#[derive(Debug, Clone)]
pub(crate) struct CollPlan {
    flows: Box<[PlanFlow]>,
}

/// A thread-safe set of collective plans shared across simulator runs.
///
/// Plans are pure functions of `(cluster, placement, trace)`: lowering a
/// collective resolves routes, effective work and telemetry charge lists
/// from topology and rank→GPU assignment alone. A `SharedPlans` built for
/// one such triple can therefore seed any number of simulators replaying
/// the same triple — each run clones ready-made plans into its local cache
/// instead of re-lowering every collective (counted in
/// [`EngineStats::shared_plan_hits`]), and publishes the plans it does
/// build for later runs.
///
/// Plans are keyed by `CollectiveId`, i.e. by position in the trace.
/// Sharing a plan set across *different* traces (or a different cluster or
/// placement) would silently misroute flows, so [`Simulator`] rejects a
/// set whose size disagrees with the trace and callers are expected to key
/// shared sets by the full triple (see `charllm-core`'s `SimCache`).
#[derive(Debug, Default)]
pub struct SharedPlans {
    plans: Vec<OnceLock<CollPlan>>,
}

impl SharedPlans {
    /// An empty plan set sized for `trace`: one slot per collective, each
    /// built at most once across every simulator sharing the set.
    pub fn for_trace(trace: &ExecutionTrace) -> Self {
        SharedPlans {
            plans: (0..trace.num_collectives())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Slots in the set (the trace's collective count).
    pub fn num_collectives(&self) -> usize {
        self.plans.len()
    }

    /// Slots whose plan has been built and published.
    pub fn num_built(&self) -> usize {
        self.plans.iter().filter(|p| p.get().is_some()).count()
    }

    /// The published plan for collective `ci`, if any (cloned: plans are
    /// small route tables, and the local cache wants them inline).
    fn get(&self, ci: usize) -> Option<CollPlan> {
        self.plans[ci].get().cloned()
    }

    /// Publish a freshly built plan; first writer wins, later ones no-op
    /// (every builder of the same slot produces identical bits).
    fn put(&self, ci: usize, plan: &CollPlan) {
        let _ = self.plans[ci].set(plan.clone());
    }
}

/// The disk form of a plan set (see `charllm-core`'s persistent
/// `SimCache` tier): plans are pure functions of
/// `(cluster, placement, trace)`, so a set filled by one run can seed any
/// later process replaying the same triple. Built slots come back
/// published; unbuilt ones come back empty, for a replaying simulator to
/// build and publish.
///
/// Serialized by hand into a packed form — `{"n": slots, "floats": table,
/// "built": [[slot, "flows"], ...]}` where each built slot's flows are one
/// whitespace/`;`-delimited numeric string over a shared [`FloatTable`] —
/// instead of the derived object-per-flow layout. A 32-GPU MoE plan set is
/// tens of thousands of flows; packing them into strings shrinks the file
/// ~10x and lets the JSON layer move each plan as a single bulk string
/// instead of building a `Value` node per field, which is what makes a
/// disk-tier load cheap enough to beat re-lowering. The packed form is
/// bit-exact.
impl serde::Serialize for SharedPlans {
    fn serialize_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert(
            "n",
            serde::Value::Number(serde::Number::from_u64(self.plans.len() as u64)),
        );
        let mut floats = FloatTable::default();
        let built: Vec<serde::Value> = self
            .plans
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.get().map(|plan| (i, plan)))
            .map(|(i, plan)| {
                serde::Value::Array(vec![
                    serde::Value::Number(serde::Number::from_u64(i as u64)),
                    serde::Value::String(pack_flows(&plan.flows, &mut floats)),
                ])
            })
            .collect();
        map.insert("floats", serde::Value::String(floats.to_text()));
        map.insert("built", serde::Value::Array(built));
        serde::Value::Object(map)
    }
}

impl serde::Deserialize for SharedPlans {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let n = v
            .get("n")
            .and_then(serde::Value::as_number)
            .and_then(serde::Number::to_u64)
            .ok_or_else(|| serde::Error::custom("plan set: missing slot count"))?
            as usize;
        let built = v
            .get("built")
            .and_then(serde::Value::as_array)
            .ok_or_else(|| serde::Error::custom("plan set: missing built list"))?;
        let floats = v
            .get("floats")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom("plan set: missing float table"))
            .and_then(FloatTable::parse)?;
        let set = SharedPlans {
            plans: (0..n).map(|_| OnceLock::new()).collect(),
        };
        for slot in built {
            let pair = slot
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| serde::Error::custom("plan set: bad built entry"))?;
            let idx = pair[0]
                .as_number()
                .and_then(serde::Number::to_u64)
                .ok_or_else(|| serde::Error::custom("plan set: bad slot index"))?
                as usize;
            let text = pair[1]
                .as_str()
                .ok_or_else(|| serde::Error::custom("plan set: bad flow string"))?;
            let plan = CollPlan {
                flows: unpack_flows(text, &floats)?.into_boxed_slice(),
            };
            set.plans
                .get(idx)
                .ok_or_else(|| serde::Error::custom("plan set: slot out of range"))?
                .set(plan)
                .map_err(|_| serde::Error::custom("plan set: duplicate slot"))?;
        }
        Ok(set)
    }
}

/// `LinkClass` codes for the packed flow encoding (stable on disk; extend
/// only by appending).
fn link_class_code(class: LinkClass) -> u64 {
    match class {
        LinkClass::NvLink => 0,
        LinkClass::XgmiPackage => 1,
        LinkClass::XgmiPort => 2,
        LinkClass::Pcie => 3,
        LinkClass::Nic => 4,
        LinkClass::Switch => 5,
    }
}

fn link_class_of(code: u64) -> Result<LinkClass, serde::Error> {
    Ok(match code {
        0 => LinkClass::NvLink,
        1 => LinkClass::XgmiPackage,
        2 => LinkClass::XgmiPort,
        3 => LinkClass::Pcie,
        4 => LinkClass::Nic,
        5 => LinkClass::Switch,
        other => return Err(serde::Error::custom(format!("bad link class code {other}"))),
    })
}

/// Pack one plan's flows:
/// `work pr src dst rl links*rl bw*rl mult*rl cl gpu*cl class*cl` per
/// flow (`work`/`pr`/`bw` as [`FloatTable`] indices), flows joined with
/// `;`.
fn pack_flows(flows: &[PlanFlow], floats: &mut FloatTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, f) in flows.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let (rl, cl) = (f.route_len as usize, f.charge_len as usize);
        let _ = write!(
            out,
            "{} {} {} {} {rl}",
            floats.intern(f.work),
            floats.intern(f.payload_ratio),
            f.src.0,
            f.dst.0
        );
        for l in 0..rl {
            let _ = write!(out, " {}", f.links[l]);
        }
        for l in 0..rl {
            let _ = write!(out, " {}", floats.intern(f.bw1e9[l]));
        }
        for l in 0..rl {
            let _ = write!(out, " {}", f.mult[l]);
        }
        let _ = write!(out, " {cl}");
        for l in 0..cl {
            let _ = write!(out, " {}", f.charge_gpu[l]);
        }
        for l in 0..cl {
            let _ = write!(out, " {}", link_class_code(f.charge_class[l]));
        }
    }
    out
}

fn unpack_flows(text: &str, floats: &[f64]) -> Result<Vec<PlanFlow>, serde::Error> {
    fn next<'a>(t: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, serde::Error> {
        t.next()
            .ok_or_else(|| serde::Error::custom("truncated packed flow"))
    }
    fn num<T: std::str::FromStr>(tok: &str) -> Result<T, serde::Error> {
        tok.parse()
            .map_err(|_| serde::Error::custom(format!("bad packed-flow token {tok:?}")))
    }
    let float_at = |i: u32| -> Result<f64, serde::Error> {
        floats
            .get(i as usize)
            .copied()
            .ok_or_else(|| serde::Error::custom(format!("float index {i} out of range")))
    };
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let mut flows = Vec::new();
    for chunk in text.split(';') {
        let mut t = chunk.split_ascii_whitespace();
        let mut flow = PlanFlow {
            work: float_at(num(next(&mut t)?)?)?,
            payload_ratio: float_at(num(next(&mut t)?)?)?,
            src: GpuId(num(next(&mut t)?)?),
            dst: GpuId(num(next(&mut t)?)?),
            route_len: 0,
            links: [0; MAX_ROUTE_LINKS],
            bw1e9: [0.0; MAX_ROUTE_LINKS],
            mult: [1; MAX_ROUTE_LINKS],
            charge_len: 0,
            charge_gpu: [0; MAX_ROUTE_LINKS],
            charge_class: [LinkClass::Nic; MAX_ROUTE_LINKS],
        };
        let rl: usize = num(next(&mut t)?)?;
        if rl > MAX_ROUTE_LINKS {
            return Err(serde::Error::custom(format!("route length {rl} too long")));
        }
        flow.route_len = rl as u8;
        for l in 0..rl {
            flow.links[l] = num(next(&mut t)?)?;
        }
        for l in 0..rl {
            flow.bw1e9[l] = float_at(num(next(&mut t)?)?)?;
        }
        for l in 0..rl {
            flow.mult[l] = num(next(&mut t)?)?;
        }
        let cl: usize = num(next(&mut t)?)?;
        if cl > MAX_ROUTE_LINKS {
            return Err(serde::Error::custom(format!("charge length {cl} too long")));
        }
        flow.charge_len = cl as u8;
        for l in 0..cl {
            flow.charge_gpu[l] = num(next(&mut t)?)?;
        }
        for l in 0..cl {
            flow.charge_class[l] = link_class_of(num(next(&mut t)?)?)?;
        }
        if t.next().is_some() {
            return Err(serde::Error::custom("trailing tokens in packed flow"));
        }
        flows.push(flow);
    }
    Ok(flows)
}

/// One hop of an interned route: the link index, its fair-share bandwidth
/// numerator (`bw_gbps * 1e9`, premultiplied so the rate loop divides the
/// exact product the reference engine computes) and the folded load
/// multiplier. Routes live deduplicated in a [`SliceArena`]; launching a
/// flow stores a [`SliceRef`]-sized handle instead of copying hop arrays.
#[derive(Debug, Clone, Copy)]
struct RouteHop {
    link: u32,
    mult: u16,
    bw1e9: f64,
}

impl ArenaItem for RouteHop {
    fn key_bits(&self) -> u64 {
        (u64::from(self.link) << 16 | u64::from(self.mult)) ^ self.bw1e9.to_bits().rotate_left(17)
    }

    fn same(&self, other: &Self) -> bool {
        self.link == other.link
            && self.mult == other.mult
            && self.bw1e9.to_bits() == other.bw1e9.to_bits()
    }
}

/// One telemetry/traffic charge of an interned charge list: the owning GPU
/// and the link class its payload is booked under.
#[derive(Debug, Clone, Copy)]
struct ChargeItem {
    gpu: u32,
    class: LinkClass,
}

impl ArenaItem for ChargeItem {
    fn key_bits(&self) -> u64 {
        u64::from(self.gpu) << 8 | link_class_code(self.class)
    }

    fn same(&self, other: &Self) -> bool {
        self.gpu == other.gpu && self.class == other.class
    }
}

/// One flow of an *installed* collective plan: the arena-resident form the
/// hot loops read. 40 bytes against [`PlanFlow`]'s ~280: the route and
/// charge arrays collapse to [`SliceRef`] handles into the engine's shared
/// [`SliceArena`]s, so launching a flow is a few index writes and the
/// per-event rate loop walks a deduplicated hop slice instead of inline
/// copies.
#[derive(Debug, Clone, Copy)]
struct PlanFlowRef {
    /// Effective work in byte-equivalents (payload + overhead).
    work: f64,
    /// Payload bytes per unit of work.
    payload_ratio: f64,
    src: u32,
    dst: u32,
    route: SliceRef,
    charges: SliceRef,
}

/// An installed plan: a contiguous run of [`PlanFlowRef`]s in the engine's
/// `plan_flows` arena (plans are installed append-only, once per collective
/// id per run).
#[derive(Debug, Clone, Copy)]
struct PlanRange {
    start: u32,
    len: u32,
}

/// The bottleneck fair-share rate of the flow in `slot`: the min over its
/// route hops of `health × bw / load`.
#[inline]
fn flow_rate(
    slot: usize,
    pf_of: &[u32],
    plan_flows: &[PlanFlowRef],
    route_arena: &SliceArena<RouteHop>,
    link_load: &[u32],
    link_health: &LinkHealth,
) -> f64 {
    let pf = plan_flows[pf_of[slot] as usize];
    let mut rate = f64::INFINITY;
    for hop in route_arena.get(pf.route) {
        let load = link_load[hop.link as usize].max(1) as f64;
        rate = rate.min(link_health.scale(hop.link as usize) * hop.bw1e9 / load);
    }
    rate
}

/// Calendar key of an entity with `left` work units at `rate` at time `t`:
/// the instant its work reaches the 1-unit completion threshold `advance`
/// tests (`left <= 1.0`), a lower bound on the event that retires it. The
/// unit of slack matters for slow flows, whose last unit can take longer
/// than an event: keyed at zero work, they would complete in an event that
/// never drained them.
#[inline]
fn completion_key(t: f64, left: f64, rate: f64) -> f64 {
    t + (left - 1.0) / rate
}

/// One entry of the scheduler's completion calendar, packed to 16 bytes:
/// `key` is a conservative (lower-bound) absolute completion time computed
/// when the entry was pushed; `meta` packs the entry kind (bit 63: 1 =
/// compute rank, 0 = flow slot), the owner id (bits 62..32) and the
/// owner's epoch at push time (bits 31..0; for flows, the arena slot's
/// generation stamp). Entries are removed *at the site that invalidates
/// them* (re-key, retirement) via the owner's stored location, so the
/// queue holds exactly one live entry per schedulable entity; the epoch
/// survives as a belt-and-braces stale check (counted in
/// [`EngineStats::heap_skips`], expected ~0). Drain order
/// never affects results: `next_dt` takes an order-independent `f64::min`
/// over the exact candidates of every drained live entry.
#[derive(Debug, Clone, Copy)]
struct CalEntry {
    key: f64,
    meta: u64,
}

const ENTRY_COMPUTE: u64 = 1 << 63;

impl CalEntry {
    fn flow(key: f64, slot: u32, epoch: u32) -> Self {
        CalEntry {
            key,
            meta: (u64::from(slot) << 32) | u64::from(epoch),
        }
    }

    fn compute(key: f64, rank: u32, epoch: u32) -> Self {
        CalEntry {
            key,
            meta: ENTRY_COMPUTE | (u64::from(rank) << 32) | u64::from(epoch),
        }
    }

    fn is_compute(self) -> bool {
        self.meta & ENTRY_COMPUTE != 0
    }

    fn id(self) -> usize {
        ((self.meta >> 32) & 0x7fff_ffff) as usize
    }

    fn epoch(self) -> u32 {
        self.meta as u32
    }
}

/// Global re-key cadence: every this-many events the calendar is rebuilt
/// from live state, re-basing the wheel at the current time, re-sizing its
/// buckets to the recent event spacing and re-tightening loose keys.
const REKEY_INTERVAL: u64 = 8192;

/// Buckets in the calendar wheel. With the bucket width sized to ~1 mean
/// event spacing at rebuild, the wheel horizon covers roughly a
/// [`REKEY_INTERVAL`] of simulated progress before entries spill to the
/// overflow list, and a drained bucket hands back ~1 candidate per event
/// instead of the ~4 a coarser wheel would.
const CAL_BUCKETS: usize = 8192;

/// Largest buffer a drained bucket keeps for its next entries. Buckets
/// keep their allocations so steady-state drains allocate nothing, but one
/// that held a burst (a collective's flows keyed together) gives it back
/// instead of pinning that memory for the rest of the run.
const CAL_BUCKET_KEEP: usize = 64;

/// Bucket index encoding the overflow list in a packed location.
const CAL_OVERFLOW: u32 = u32::MAX;

/// Packed location meaning "no live entry".
const LOC_NONE: u64 = u64::MAX;

fn pack_loc(bucket: u32, idx: u32) -> u64 {
    (u64::from(bucket) << 32) | u64::from(idx)
}

/// The scheduler's completion calendar: a bucketed time wheel over
/// absolute predicted completion times, plus an overflow list for keys
/// beyond the wheel horizon.
///
/// The wheel is re-based (fresh `base`/`width`) at every `rekey_all`;
/// between rebuilds, pushes land in `(key - base) / width` and `next_dt`
/// drains whole buckets from the cursor up to the event bound. Draining a
/// bucket hands back *every* entry in it — conservative keys make extra
/// candidates harmless (each is recomputed exactly and folded with `min`),
/// so bucket granularity cannot perturb results. Removal is O(1) by packed
/// location (`bucket << 32 | index`), with `swap_remove` move fix-ups
/// resolved through the moved entry's own meta word.
#[derive(Debug)]
struct CalendarQueue {
    base: f64,
    width: f64,
    inv_width: f64,
    buckets: Vec<Vec<CalEntry>>,
    overflow: Vec<CalEntry>,
    /// First bucket that may hold entries (all earlier ones are empty).
    cursor: usize,
    /// Run-wide high-water mark of the overflow list (survives rebases:
    /// an [`EngineStats`] counter, not wheel state).
    overflow_peak: usize,
}

impl CalendarQueue {
    /// An empty wheel based at t = 0 with the given bucket `width`.
    fn new(width: f64) -> Self {
        CalendarQueue {
            base: 0.0,
            width,
            inv_width: 1.0 / width,
            buckets: vec![Vec::new(); CAL_BUCKETS],
            overflow: Vec::new(),
            cursor: 0,
            overflow_peak: 0,
        }
    }

    /// Re-base the wheel at `base` with the given bucket `width`, dropping
    /// every entry (callers re-push live state afterwards).
    fn reset(&mut self, base: f64, width: f64) {
        self.base = base;
        self.width = width;
        self.inv_width = 1.0 / width;
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.cursor = 0;
    }

    /// Absolute start time of bucket `i`.
    fn start_of(&self, i: usize) -> f64 {
        self.base + i as f64 * self.width
    }

    /// First key beyond the wheel (overflow keys are all ≥ this).
    fn horizon(&self) -> f64 {
        self.start_of(CAL_BUCKETS)
    }

    /// Whether `t` has drifted past half the wheel: time to re-base before
    /// fresh keys start spilling into the overflow list wholesale.
    fn needs_rebase(&self, t: f64) -> bool {
        t - self.base > 0.5 * CAL_BUCKETS as f64 * self.width
    }

    /// Insert an entry; returns its packed location. Keys below `base`
    /// (an entity already within its completion threshold) land in the
    /// first bucket, so only the far side can miss the wheel.
    fn push(&mut self, e: CalEntry) -> u64 {
        let d = ((e.key - self.base) * self.inv_width).max(0.0);
        if d >= CAL_BUCKETS as f64 {
            self.overflow.push(e);
            self.overflow_peak = self.overflow_peak.max(self.overflow.len());
            return pack_loc(CAL_OVERFLOW, (self.overflow.len() - 1) as u32);
        }
        let b = d as usize;
        self.cursor = self.cursor.min(b);
        self.buckets[b].push(e);
        pack_loc(b as u32, (self.buckets[b].len() - 1) as u32)
    }

    /// Remove the entry at `loc`; returns the meta word of the entry
    /// swapped into the vacated position (its owner's stored location must
    /// be re-pointed to `loc`), if any.
    fn remove(&mut self, loc: u64) -> Option<u64> {
        let bucket = (loc >> 32) as u32;
        let idx = (loc & 0xffff_ffff) as usize;
        let v = if bucket == CAL_OVERFLOW {
            &mut self.overflow
        } else {
            &mut self.buckets[bucket as usize]
        };
        v.swap_remove(idx);
        v.get(idx).map(|e| e.meta)
    }
}

/// One engine-level fault action. Windowed plan events (`LinkDegrade`,
/// `Straggler`, `ThermalRunaway`) are split into an on/off pair at
/// `with_faults` time; `GpuFailStop` becomes a `FailStop` (plus a `Regrow`
/// under elastic recovery).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    FailStop { gpu: u32 },
    LinkDown { link: u32, factor: f64 },
    LinkUp { link: u32 },
    SlowRank { rank: u32, speed: f64 },
    RestoreRank { rank: u32 },
    HeatGpu { gpu: u32, delta_c: f64 },
    CoolGpu { gpu: u32 },
    Regrow,
}

/// A fault action pinned to its firing time and originating plan event.
#[derive(Debug, Clone, Copy)]
struct ScheduledFault {
    t: f64,
    /// Index of the originating event in the `FaultPlan` (span identity).
    fault: u32,
    action: FaultAction,
}

/// Live fault-injection state: the compiled schedule plus the recovery
/// cost-model accumulators that `finish` folds into the resilience metrics.
#[derive(Debug)]
struct FaultRuntime {
    /// Actions sorted by firing time (stable: ties fire in plan order).
    schedule: Vec<ScheduledFault>,
    cursor: usize,
    recovery: RecoveryPolicy,
    restarts: u64,
    energy_wasted_j: f64,
    /// Simulated time spent in outages, whole run.
    downtime_s: f64,
    /// Outage time that fell inside the measured window.
    downtime_measured_s: f64,
    /// Elastic-shrink capacity state.
    dead_gpus: u32,
    world: u32,
    token_scale: f64,
    /// Time-weighted integral of `token_scale` up to `last_scale_t`.
    scale_integral: f64,
    last_scale_t: f64,
}

impl FaultRuntime {
    /// Close the current token-scale segment at `t` and start a new one.
    fn set_token_scale(&mut self, scale: f64, t: f64) {
        self.scale_integral += self.token_scale * (t - self.last_scale_t);
        self.last_scale_t = t;
        self.token_scale = scale;
    }

    /// Mean token scale over `[0, t]` (1.0 when capacity never shrank).
    fn mean_token_scale(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        (self.scale_integral + self.token_scale * (t - self.last_scale_t)) / t
    }
}

/// Counters describing how much work the event-driven engine avoided.
///
/// Returned by [`Simulator::run_stats`]; every field is monotone over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EngineStats {
    /// Scheduler rounds that advanced simulated time.
    pub events: u64,
    /// Collectives lowered into a cached plan (≤ distinct collective ids).
    pub plan_builds: u64,
    /// Collective launches served from the plan cache.
    pub plan_reuses: u64,
    /// Flows launched across all collective instances.
    pub flows_launched: u64,
    /// Ranks woken from a collective wait via a wake-list.
    pub wakes: u64,
    /// `(iteration, collective)` state entries pruned after their last wait.
    pub colls_retired: u64,
    /// High-water mark of live collective state entries.
    pub peak_live_colls: u64,
    /// High-water mark of schedulable entities (in-flight flows plus
    /// computing ranks): the population the completion calendar holds one
    /// entry each for.
    pub peak_live: u64,
    /// Entries pushed onto the completion calendar (re-keys included).
    /// This and the next two counters keep their `heap_` names from the
    /// binary heap the calendar replaced; they count calendar entries.
    pub heap_pushes: u64,
    /// Live calendar entries drained and evaluated by `next_dt`.
    pub heap_pops: u64,
    /// Stale calendar entries (epoch mismatch) discarded on drain.
    pub heap_skips: u64,
    /// Collective launches served from a cross-run shared plan set
    /// (zero unless the simulator was built with [`SharedPlans`]).
    pub shared_plan_hits: u64,
    /// Calendar-wheel rebuilds: `rekey_all` rebases, whether periodic
    /// (every `REKEY_INTERVAL` = 8192 events), drift-forced (the current
    /// time passed half the wheel horizon). The wheel built at construction
    /// is not counted.
    pub cal_rekeys: u64,
    /// Calendar buckets drained by `next_dt` (the overflow list counts as
    /// one bucket per drain). Each drain hands every entry in the bucket
    /// to the exact-candidate evaluation, so `heap_pops / cal_bucket_drains`
    /// is the mean occupancy of the buckets the scheduler actually visits.
    pub cal_bucket_drains: u64,
    /// Run-wide high-water mark of the overflow list — entries whose
    /// conservative completion key lay beyond the wheel horizon when
    /// pushed. A large peak relative to `peak_live` means the bucket width
    /// (the event-spacing EWMA at each rebuild) is too narrow for the
    /// workload's completion-time spread.
    pub cal_overflow_peak: u64,
    /// Flow-arena slots reused from the free list (launches minus arena
    /// growth): how often the steady-state launch path ran allocation-free.
    pub arena_slot_reuses: u64,
    /// Calendar entries removed by exact location at a retire site (flow
    /// retirement or compute completion) — the one path by which a
    /// completing entity's entry leaves the calendar.
    pub cal_exact_removals: u64,
}

impl EngineStats {
    /// Every counter with its field name, each listed once: the table the
    /// metrics export is derived from (one `sim_<name>` gauge per entry).
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("events", self.events),
            ("plan_builds", self.plan_builds),
            ("plan_reuses", self.plan_reuses),
            ("flows_launched", self.flows_launched),
            ("wakes", self.wakes),
            ("colls_retired", self.colls_retired),
            ("peak_live_colls", self.peak_live_colls),
            ("peak_live", self.peak_live),
            ("heap_pushes", self.heap_pushes),
            ("heap_pops", self.heap_pops),
            ("heap_skips", self.heap_skips),
            ("shared_plan_hits", self.shared_plan_hits),
            ("cal_rekeys", self.cal_rekeys),
            ("cal_bucket_drains", self.cal_bucket_drains),
            ("cal_overflow_peak", self.cal_overflow_peak),
            ("arena_slot_reuses", self.arena_slot_reuses),
            ("cal_exact_removals", self.cal_exact_removals),
        ]
    }
}

/// Engine-side configuration of a symmetry-folded run, prepared by
/// [`crate::fold`]: which ranks/nodes stay live, the switch-tier load
/// multiplier for lazily built (intra-replica) plans, and the pre-built
/// full-ring plans for cross-replica collectives.
#[derive(Debug)]
pub(crate) struct FoldSetup {
    /// Replica count: switch-link load multiplier for lazily built plans.
    pub(crate) switch_mult: u16,
    /// Representative ranks (ascending).
    pub(crate) active_ranks: Vec<u32>,
    /// Nodes hosting representative ranks (ascending).
    pub(crate) active_nodes: Vec<u32>,
    /// `(collective id, plan)` pairs seeded into the plan cache: the full
    /// original rings of the trimmed cross-replica collectives, laid onto
    /// the fabric with multiplier 1 (they exist once in the unfolded run
    /// too).
    pub(crate) injected: Vec<(u32, CollPlan)>,
}

/// Executes a trace on a cluster with thermal/DVFS feedback.
///
/// ```no_run
/// use charllm_sim::{SimConfig, Simulator};
/// # fn demo(cluster: charllm_hw::Cluster, placement: charllm_parallel::Placement,
/// #         trace: charllm_trace::ExecutionTrace) -> Result<(), charllm_sim::SimError> {
/// let result = Simulator::new(&cluster, &placement, &trace, SimConfig::default())?.run()?;
/// println!("step time {:.2}s, {:.0} tokens/s", result.step_time_s, result.tokens_per_s);
/// # Ok(())
/// # }
/// ```
///
/// The engine is generic over a [`SimObserver`] whose hooks fire at every
/// scheduling event; the default [`NoopObserver`] monomorphizes them away,
/// and no observer can perturb results (the golden suite pins this).
pub struct Simulator<'a, O: SimObserver = NoopObserver> {
    obs: O,
    cluster: &'a Cluster,
    trace: &'a ExecutionTrace,
    cfg: SimConfig,

    ranks: Vec<RankState>,
    /// Flat collective-state slab: `[coll][iteration & 1]` (see
    /// [`CollSlot`] for the two-live-instances invariant).
    colls: Vec<[CollSlot; 2]>,
    /// Count of live slots in `colls` (the old hash map's `len`).
    live_colls: u64,
    /// The flow arena: structure-of-arrays per-flow state in stable,
    /// generation-stamped slots recycled through a free list.
    fa: FlowArena,
    /// Live flow slots in the reference engine's dense iteration order:
    /// launches append, retirement `swap_remove`s — reproducing the exact
    /// advance-loop visit sequence the old dense `Vec` had, over stable
    /// slots that never move.
    flow_order: Vec<u32>,
    /// Installed plan flows, append-only ([`PlanRange`]s index into it).
    plan_flows: Vec<PlanFlowRef>,
    /// Deduplicated route-hop slices shared by all installed plans.
    route_arena: SliceArena<RouteHop>,
    /// Deduplicated telemetry charge lists shared by all installed plans.
    charge_arena: SliceArena<ChargeItem>,
    /// Number of active flows touching each GPU (as src or dst).
    gpu_flow_count: Vec<u32>,
    /// Flow load per link, maintained incrementally on launch/retire.
    link_load: Vec<u32>,
    /// Bumped whenever any `link_load` changes. A flow's cached rate is
    /// current iff `rate_epoch == load_epoch` or none of its route links
    /// changed since — unchanged loads would reproduce the identical rate
    /// bits, so skipping the recompute cannot perturb results.
    load_epoch: u64,
    /// Links whose load changed since the last `next_dt` (deduplicated via
    /// `link_dirty`); their flows are re-rated and re-keyed in batch.
    dirty_links: Vec<u32>,
    link_dirty: Vec<bool>,
    /// Exact membership: flow slots currently routed through each link, as
    /// `(slot, route index)`; kept O(route length) per update via the
    /// `FlowArena::link_pos` back-pointers.
    link_flows: Vec<Vec<(u32, u8)>>,

    /// The completion calendar: conservative predicted completion times
    /// for computes and flows, drained bucket-wise in `next_dt`.
    calq: CalendarQueue,
    /// Buffer for live entries drained in a `next_dt` round (re-inserted
    /// after the drain loop so they cannot be drained twice in one round).
    repush: Vec<CalEntry>,
    /// Entries moved out of the buckets `next_dt` drains, evaluated from
    /// here. Buckets keep their own allocations, so steady-state drains
    /// allocate nothing.
    drained: Vec<CalEntry>,
    /// Key of each computing rank's live calendar entry (`INFINITY` =
    /// none). Lets `push_compute_key` skip the push when the stored entry
    /// is still a valid lower bound, mirroring `rekey_flow`'s
    /// `FlowArena::cal_key` test.
    rank_key: Vec<f64>,
    /// Location of each rank's live calendar entry ([`LOC_NONE`] = none).
    rank_loc: Vec<u64>,
    /// Per-rank epoch for compute entries: an entry for rank `r` is live
    /// iff its epoch matches (flows use the arena generation stamp). With
    /// push-site removal this is a belt-and-braces check only.
    rank_epoch: Vec<u32>,
    /// EWMA of recent event spacing, sizing the calendar's bucket width at
    /// each rebuild.
    avg_dt: f64,
    /// Computing ranks whose rate inputs changed (deduplicated via
    /// `rank_dirty`); re-keyed in batch by `next_dt`.
    dirty_ranks: Vec<u32>,
    rank_dirty: Vec<bool>,
    /// Ranks placed on each GPU: compute rates depend on the GPU's flow
    /// presence, so 0↔nonzero `gpu_flow_count` transitions dirty these.
    ranks_of_gpu: Vec<Vec<u32>>,
    /// Events since the last full re-key (see [`REKEY_INTERVAL`]).
    events_since_rekey: u64,

    /// One installed plan per `CollectiveId`, interned lazily at first
    /// launch (or at construction for fold-injected plans).
    plan_cache: Vec<Option<PlanRange>>,
    /// Cross-run plan set (same `(cluster, placement, trace)` triple):
    /// consulted before building, fed after (see [`SharedPlans`]).
    shared_plans: Option<Arc<SharedPlans>>,
    /// Per-collective kernel class (for waiting-time attribution).
    coll_class: Vec<KernelClass>,
    /// Per-collective eager-p2p flag and group size.
    coll_eager: Vec<bool>,
    coll_group_len: Vec<u32>,
    /// Per-collective `CollWait` count across the whole trace: how many
    /// wait passes an instance sees before its state can be pruned.
    wait_count: Vec<u32>,

    /// Ranks to process this drain pass, popped in ascending rank order.
    /// A wake issued while processing rank `c` goes here only for waiters
    /// `w > c` — exactly the waiters the reference engine's 0..n scan
    /// would still have reached in the same pass.
    ready_now: BinaryHeap<Reverse<usize>>,
    /// Ranks that become runnable next pass: compute completions, wakes
    /// from flow retirement, and wakes of waiters `w ≤ c`.
    ready_next: Vec<usize>,
    /// Ranks currently in `Computing` mode (unordered; `next_dt` takes an
    /// order-independent min over them).
    computing_ranks: Vec<usize>,
    /// Position of each rank in `computing_ranks` (`u32::MAX` = absent).
    computing_pos: Vec<u32>,
    /// Scratch: ranks whose compute completed this event, processed in
    /// ascending rank order to preserve the world-scan completion order.
    completed_scratch: Vec<u32>,
    /// The computing ranks and flow slots whose completion `advance` tests
    /// this event: the owners of the calendar entries `next_dt` drained.
    /// Filled by `next_dt`, consumed by `advance`.
    cand_ranks: Vec<u32>,
    cand_flows: Vec<u32>,
    /// Scratch: candidate flows completing this event.
    retiring: Vec<u32>,
    finished_ranks: usize,

    thermals: Vec<GpuThermal>,
    freq_ratio: Vec<f64>,
    last_power_w: Vec<f64>,
    /// Scratch: one node's GPU powers in slot order, refilled per node at
    /// every control tick.
    node_powers: Vec<f64>,
    /// Cached `cluster.gpu().peak_fp16_flops`, read per computing rank per
    /// event in `compute_rate`.
    peak_flops: f64,

    /// Time-weighted activity accumulation since the last control boundary.
    activity_acc: Vec<f64>,
    util_acc: Vec<f64>,
    pcie_window_bytes: Vec<f64>,

    /// Time each rank's progress and accounting were last brought current
    /// (segment start for lazy accrual; see `crate::accrual`). A computing
    /// rank's `remaining_flops` is its work left at this instant.
    rank_acc_since: Vec<f64>,
    /// Whether each rank participates in accounting (`active_ranks` as a
    /// bitmap: every rank unfolded, representatives only when folded).
    rank_active: Vec<bool>,
    /// During a fail-stop outage the clock advances with no rank or flow
    /// progress: control ticks skip their flushes, and `rebase_accruals`
    /// restarts every segment past the outage when it ends.
    accrual_frozen: bool,

    kernel_time: Vec<KernelBreakdown>,
    traffic: TrafficMatrix,
    occ_acc: Vec<(f64, f64, f64)>,
    telemetry: TelemetryStore,

    /// Switch-tier load multiplier applied to lazily built plans
    /// (1 unfolded; the replica count in a symmetry-folded run).
    fold_switch_mult: u16,
    /// Ranks advanced and accounted per event: every rank unfolded, the
    /// representative replica's ranks when folded. Ascending, fixed for
    /// the run — keeping the unfolded iteration order bit-exact.
    active_ranks: Vec<u32>,
    /// Nodes whose thermal/power physics are stepped at control
    /// boundaries (all nodes unfolded; representative nodes folded).
    active_nodes: Vec<u32>,
    /// GPUs sampled into telemetry: those on `active_nodes`, ascending.
    active_gpus: Vec<u32>,
    /// Ranks whose iteration has reached `cfg.warmup_iterations` — an O(1)
    /// stand-in for the reference engine's all-ranks warmup scan at every
    /// iteration boundary (the scan is O(world) per boundary, which a
    /// folded 16k-GPU run crosses ~world times at t = 0).
    ranks_past_warmup: usize,

    t: f64,
    next_control: f64,
    next_sample: f64,
    iteration_complete_at: Vec<f64>,
    measure_start: Option<f64>,
    energy_measured_j: f64,

    /// Fault-injection state (`None` = no plan attached). The pristine
    /// identities of the fields below (`×1.0`, `+0.0`, `min(∞)`) keep the
    /// no-fault path byte-identical to an engine without fault support.
    fault: Option<Box<FaultRuntime>>,
    /// Per-link bandwidth scale in `(0, 1]` (1.0 = healthy).
    link_health: LinkHealth,
    /// Per-rank compute speed multiplier (1.0 = healthy, <1 = straggler).
    rank_speed: Vec<f64>,
    /// Per-GPU inlet temperature offset forced by thermal-runaway faults.
    inlet_offset_c: Vec<f64>,
    /// Firing time of the next scheduled fault (`INFINITY` when none).
    next_fault_t: f64,

    stats: EngineStats,
    /// Live-metrics publication state (`None` = no hub attached). Gauges
    /// are published at control boundaries and at run end only — never on
    /// the per-event path — so an unattached engine runs the exact same
    /// instructions and an attached one stays byte-identical (the hub
    /// feeds nothing back).
    metrics: Option<Box<EngineMetrics>>,
}

/// Pre-registered gauge handles promoting [`EngineStats`] (and a few live
/// quantities) into sampleable metrics, labeled by the owning shard's
/// worker index. Built once at [`Simulator::with_metrics`].
#[derive(Debug)]
struct EngineMetrics {
    /// Host wall clock at the last publication (event-rate window start).
    last_wall: Instant,
    /// `stats.events` at the last publication.
    last_events: u64,
    /// One `sim_<name>` gauge per [`EngineStats::fields`] entry, in table
    /// order.
    counters: Vec<Gauge>,
    sim_time_s: Gauge,
    event_rate_per_s: Gauge,
    live_flows: Gauge,
    live_computing: Gauge,
    cal_overflow_len: Gauge,
    fault_downtime_s: Gauge,
    fault_restarts: Gauge,
    fault_energy_wasted_j: Gauge,
}

impl EngineMetrics {
    fn new(shard: &MetricsShard) -> Self {
        let worker = shard.index().to_string();
        let labels: [(&str, &str); 1] = [("worker", worker.as_str())];
        let g = |name: &str| shard.gauge(name, &labels);
        EngineMetrics {
            last_wall: Instant::now(),
            last_events: 0,
            counters: EngineStats::default()
                .fields()
                .iter()
                .map(|(name, _)| g(&format!("sim_{name}")))
                .collect(),
            sim_time_s: g("sim_time_s"),
            event_rate_per_s: g("sim_event_rate_per_s"),
            live_flows: g("sim_live_flows"),
            live_computing: g("sim_live_computing"),
            cal_overflow_len: g("sim_cal_overflow_len"),
            fault_downtime_s: g("sim_fault_downtime_s"),
            fault_restarts: g("sim_fault_restarts"),
            fault_energy_wasted_j: g("sim_fault_energy_wasted_j"),
        }
    }
}

impl<'a> Simulator<'a> {
    /// Build an unobserved simulator after validating trace/placement/
    /// cluster agreement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] or [`SimError::PlacementMismatch`].
    pub fn new(
        cluster: &'a Cluster,
        placement: &Placement,
        trace: &'a ExecutionTrace,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        Self::with_observer(cluster, placement, trace, cfg, NoopObserver)
    }
}

impl<'a, O: SimObserver> Simulator<'a, O> {
    /// Build a simulator with an attached observer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTrace`] or [`SimError::PlacementMismatch`].
    pub fn with_observer(
        cluster: &'a Cluster,
        placement: &Placement,
        trace: &'a ExecutionTrace,
        cfg: SimConfig,
        obs: O,
    ) -> Result<Self, SimError> {
        Self::with_observer_fold(cluster, placement, trace, cfg, obs, None)
    }

    /// [`Simulator::with_observer`] with an optional [`FoldSetup`]
    /// restricting the live rank/node sets (see [`crate::fold`]). `None`
    /// reproduces the unfolded engine bit-for-bit.
    pub(crate) fn with_observer_fold(
        cluster: &'a Cluster,
        placement: &Placement,
        trace: &'a ExecutionTrace,
        cfg: SimConfig,
        obs: O,
        fold: Option<FoldSetup>,
    ) -> Result<Self, SimError> {
        let problems = trace.validate();
        if !problems.is_empty() {
            return Err(SimError::InvalidTrace(problems));
        }
        if placement.world() < trace.world() {
            return Err(SimError::PlacementMismatch {
                trace_world: trace.world(),
                placement_world: placement.world(),
            });
        }
        let num_gpus = cluster.num_gpus();
        let ranks: Vec<RankState> = (0..trace.world())
            .map(|r| RankState {
                gpu: placement.gpu(r),
                step_idx: 0,
                iteration: 0,
                mode: RankMode::Ready,
            })
            .collect();
        let mut ranks_of_gpu: Vec<Vec<u32>> = vec![Vec::new(); num_gpus];
        for (r, state) in ranks.iter().enumerate() {
            ranks_of_gpu[state.gpu.index()].push(r as u32);
        }

        let (fold_switch_mult, active_ranks, active_nodes, injected) = match fold {
            Some(f) => (f.switch_mult, f.active_ranks, f.active_nodes, f.injected),
            None => (
                1,
                (0..trace.world() as u32).collect(),
                (0..cluster.num_nodes() as u32).collect(),
                Vec::new(),
            ),
        };
        let mut node_active = vec![false; cluster.num_nodes()];
        for &n in &active_nodes {
            node_active[n as usize] = true;
        }
        let active_gpus: Vec<u32> = (0..num_gpus as u32)
            .filter(|&g| node_active[cluster.node_of(GpuId(g)).index()])
            .collect();

        let num_colls = trace.num_collectives();
        let coll_class = trace.collectives().iter().map(|c| c.class()).collect();
        let coll_eager = trace.collectives().iter().map(|c| c.eager_p2p).collect();
        let coll_group_len = trace
            .collectives()
            .iter()
            .map(|c| c.group.len() as u32)
            .collect();

        let airflow = &cluster.node_layout().airflow;
        let mut thermals = Vec::with_capacity(num_gpus);
        for gpu in cluster.gpus() {
            let spec = cluster.gpu().clone();
            let variability = if cfg.uniform_variability {
                GpuVariability::nominal()
            } else {
                GpuVariability::for_gpu(gpu, cfg.seed)
            };
            let slot = cluster.slot_of(gpu);
            let mut governor_cfg = GovernorConfig::for_spec(&spec);
            if let Some(cap_w) = cfg.gpu_power_cap_w {
                governor_cfg.power_cap_w = cap_w;
            }
            if let Some((node, cap_w)) = cfg.node_power_cap {
                if cluster.node_of(gpu) == charllm_hw::NodeId(node) {
                    governor_cfg.power_cap_w = cap_w;
                }
            }
            let mut thermal = GpuThermal::new(
                spec.clone(),
                ThermalSpec::for_model(spec.model),
                governor_cfg,
                variability,
                airflow.ambient_c,
            );
            if cfg.prewarm && cfg.thermal_feedback && node_active[cluster.node_of(gpu).index()] {
                // Settle near a loaded operating point, including the
                // inlet preheat a busy node would produce. Skipped for
                // nodes a folded run never steps — their 400-step settles
                // dominate construction at 16k GPUs.
                let node_power = spec.tdp_w * 0.85;
                let powers = vec![node_power; airflow.num_slots()];
                let inlet = airflow.inlet_temp_c(slot, &powers);
                for _ in 0..400 {
                    thermal.step(0.75, inlet, 1.0);
                }
            }
            thermals.push(thermal);
        }
        let freq_ratio = thermals.iter().map(GpuThermal::freq_ratio).collect();
        let last_power_w = thermals.iter().map(GpuThermal::power_w).collect();

        let mut rank_active = vec![false; ranks.len()];
        for &r in &active_ranks {
            rank_active[r as usize] = true;
        }

        // Event-spacing seed: the calendar's first bucket width, and the
        // EWMA's starting point for later rebuilds.
        let avg_dt = cfg.control_period_s / 256.0;
        let mut sim = Simulator {
            obs,
            cluster,
            trace,
            ranks,
            colls: (0..num_colls)
                .map(|_| [CollSlot::default(), CollSlot::default()])
                .collect(),
            live_colls: 0,
            fa: FlowArena::new(),
            flow_order: Vec::new(),
            plan_flows: Vec::new(),
            route_arena: SliceArena::new(),
            charge_arena: SliceArena::new(),
            gpu_flow_count: vec![0; num_gpus],
            link_load: vec![0; cluster.num_links()],
            load_epoch: 0,
            dirty_links: Vec::new(),
            link_dirty: vec![false; cluster.num_links()],
            link_flows: vec![Vec::new(); cluster.num_links()],
            calq: CalendarQueue::new(avg_dt.max(1e-12)),
            repush: Vec::new(),
            drained: Vec::new(),
            rank_key: vec![f64::INFINITY; trace.world()],
            rank_loc: vec![LOC_NONE; trace.world()],
            rank_epoch: vec![0; trace.world()],
            avg_dt,
            dirty_ranks: Vec::new(),
            rank_dirty: vec![false; trace.world()],
            ranks_of_gpu,
            events_since_rekey: 0,
            plan_cache: (0..num_colls).map(|_| None).collect(),
            shared_plans: None,
            coll_class,
            coll_eager,
            coll_group_len,
            wait_count: trace.wait_counts(),
            ready_now: BinaryHeap::new(),
            ready_next: Vec::new(),
            computing_ranks: Vec::new(),
            computing_pos: vec![u32::MAX; trace.world()],
            completed_scratch: Vec::new(),
            cand_ranks: Vec::new(),
            cand_flows: Vec::new(),
            retiring: Vec::new(),
            finished_ranks: 0,
            thermals,
            freq_ratio,
            last_power_w,
            node_powers: Vec::new(),
            peak_flops: cluster.gpu().peak_fp16_flops,
            activity_acc: vec![0.0; num_gpus],
            util_acc: vec![0.0; num_gpus],
            pcie_window_bytes: vec![0.0; num_gpus],
            rank_acc_since: vec![0.0; trace.world()],
            rank_active,
            accrual_frozen: false,
            kernel_time: vec![KernelBreakdown::default(); trace.world()],
            traffic: TrafficMatrix::new(num_gpus),
            occ_acc: vec![(0.0, 0.0, 0.0); num_gpus],
            telemetry: TelemetryStore::new(num_gpus),
            fold_switch_mult,
            active_ranks,
            active_nodes,
            active_gpus,
            ranks_past_warmup: 0,
            t: 0.0,
            next_control: cfg.control_period_s,
            next_sample: cfg.sample_period_s,
            iteration_complete_at: vec![0.0; cfg.iterations],
            measure_start: if cfg.warmup_iterations == 0 {
                Some(0.0)
            } else {
                None
            },
            energy_measured_j: 0.0,
            fault: None,
            link_health: LinkHealth::pristine(cluster.num_links()),
            rank_speed: vec![1.0; trace.world()],
            inlet_offset_c: vec![0.0; num_gpus],
            next_fault_t: f64::INFINITY,
            stats: EngineStats::default(),
            metrics: None,
            cfg,
        };
        for (ci, plan) in injected {
            sim.install_plan(ci as usize, &plan);
        }
        Ok(sim)
    }

    /// Intern `plan` into the engine's arenas and record its range in the
    /// plan cache: routes and charge lists deduplicate into the shared
    /// [`SliceArena`]s, so launching one of its flows is a few index
    /// writes instead of a ~280-byte plan copy.
    fn install_plan(&mut self, ci: usize, plan: &CollPlan) -> PlanRange {
        let start = self.plan_flows.len() as u32;
        let mut hops: Vec<RouteHop> = Vec::with_capacity(MAX_ROUTE_LINKS);
        let mut charges: Vec<ChargeItem> = Vec::with_capacity(MAX_ROUTE_LINKS);
        for pf in plan.flows.iter() {
            hops.clear();
            charges.clear();
            for l in 0..pf.route_len as usize {
                hops.push(RouteHop {
                    link: pf.links[l],
                    mult: pf.mult[l],
                    bw1e9: pf.bw1e9[l],
                });
            }
            for c in 0..pf.charge_len as usize {
                charges.push(ChargeItem {
                    gpu: pf.charge_gpu[c],
                    class: pf.charge_class[c],
                });
            }
            self.plan_flows.push(PlanFlowRef {
                work: pf.work,
                payload_ratio: pf.payload_ratio,
                src: pf.src.index() as u32,
                dst: pf.dst.index() as u32,
                route: self.route_arena.intern(&hops),
                charges: self.charge_arena.intern(&charges),
            });
        }
        let range = PlanRange {
            start,
            len: plan.flows.len() as u32,
        };
        self.plan_cache[ci] = Some(range);
        range
    }

    /// Attach a cross-run [`SharedPlans`] set: collective plans already
    /// published there are cloned instead of rebuilt (counted in
    /// [`EngineStats::shared_plan_hits`]), and plans this run builds are
    /// published back. The set must come from the same
    /// `(cluster, placement, trace)` triple as this simulator; results are
    /// byte-identical with or without it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlanSetMismatch`] when the set was sized for a
    /// different trace.
    pub fn with_shared_plans(mut self, plans: Arc<SharedPlans>) -> Result<Self, SimError> {
        if plans.num_collectives() != self.plan_cache.len() {
            return Err(SimError::PlanSetMismatch {
                trace_collectives: self.plan_cache.len(),
                shared_collectives: plans.num_collectives(),
            });
        }
        self.shared_plans = Some(plans);
        Ok(self)
    }

    /// Publish live engine gauges to a [`MetricsShard`] of a metrics hub:
    /// simulated time, event count and host-side event rate, live entity
    /// counts, plan-cache and calendar counters, and fault accruals, each
    /// labeled `worker="<shard index>"`. Publication happens at control
    /// boundaries and at run end — never on the per-event path — and the
    /// hub feeds nothing back, so results stay byte-identical with or
    /// without it (a disabled shard costs one pointer check per control
    /// tick).
    pub fn with_metrics(mut self, shard: &MetricsShard) -> Self {
        if !shard.enabled() {
            return self;
        }
        let m = EngineMetrics::new(shard);
        if self.fold_switch_mult > 1 {
            let worker = shard.index().to_string();
            shard
                .gauge("sim_fold_replicas", &[("worker", worker.as_str())])
                .set(f64::from(self.fold_switch_mult));
        }
        self.metrics = Some(Box::new(m));
        self
    }

    /// Attach a [`FaultPlan`]: its events are compiled into a time-sorted
    /// schedule the run loop drains alongside control boundaries. An empty
    /// plan ([`FaultPlan::none`]) leaves the simulator untouched, so the
    /// result stays byte-identical to a run without fault support (pinned
    /// by the golden suite). Events that fall inside a recovery outage fire
    /// immediately after it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultPlan`] when an event targets a
    /// GPU/link/rank outside this cluster/trace or has a non-finite time,
    /// factor, or slowdown.
    pub fn with_faults(mut self, plan: &FaultPlan) -> Result<Self, SimError> {
        plan.validate(
            self.cluster.num_gpus() as u32,
            self.cluster.num_links() as u32,
            self.trace.world() as u32,
        )
        .map_err(SimError::InvalidFaultPlan)?;
        if plan.is_empty() {
            return Ok(self);
        }
        let mut schedule = Vec::with_capacity(plan.events.len() * 2);
        for (i, ev) in plan.events.iter().enumerate() {
            let fault = i as u32;
            match *ev {
                FaultEvent::GpuFailStop { gpu, at_s } => {
                    schedule.push(ScheduledFault {
                        t: at_s,
                        fault,
                        action: FaultAction::FailStop { gpu },
                    });
                    if let RecoveryPolicy::ElasticShrink { regrow_after_s, .. } = plan.recovery {
                        if regrow_after_s > 0.0 {
                            schedule.push(ScheduledFault {
                                t: at_s + regrow_after_s,
                                fault,
                                action: FaultAction::Regrow,
                            });
                        }
                    }
                }
                FaultEvent::LinkDegrade {
                    link,
                    at_s,
                    duration_s,
                    factor,
                } => {
                    schedule.push(ScheduledFault {
                        t: at_s,
                        fault,
                        action: FaultAction::LinkDown { link, factor },
                    });
                    schedule.push(ScheduledFault {
                        t: at_s + duration_s,
                        fault,
                        action: FaultAction::LinkUp { link },
                    });
                }
                FaultEvent::Straggler {
                    rank,
                    at_s,
                    duration_s,
                    slowdown,
                } => {
                    schedule.push(ScheduledFault {
                        t: at_s,
                        fault,
                        action: FaultAction::SlowRank {
                            rank,
                            speed: 1.0 / slowdown,
                        },
                    });
                    schedule.push(ScheduledFault {
                        t: at_s + duration_s,
                        fault,
                        action: FaultAction::RestoreRank { rank },
                    });
                }
                FaultEvent::ThermalRunaway {
                    gpu,
                    at_s,
                    duration_s,
                    inlet_delta_c,
                } => {
                    schedule.push(ScheduledFault {
                        t: at_s,
                        fault,
                        action: FaultAction::HeatGpu {
                            gpu,
                            delta_c: inlet_delta_c,
                        },
                    });
                    schedule.push(ScheduledFault {
                        t: at_s + duration_s,
                        fault,
                        action: FaultAction::CoolGpu { gpu },
                    });
                }
            }
        }
        // Stable sort: same-time actions keep plan order (down before up
        // for zero-duration windows).
        schedule.sort_by(|a, b| a.t.total_cmp(&b.t));
        self.next_fault_t = schedule.first().map_or(f64::INFINITY, |s| s.t);
        self.fault = Some(Box::new(FaultRuntime {
            schedule,
            cursor: 0,
            recovery: plan.recovery,
            restarts: 0,
            energy_wasted_j: 0.0,
            downtime_s: 0.0,
            downtime_measured_s: 0.0,
            dead_gpus: 0,
            world: self.trace.world() as u32,
            token_scale: 1.0,
            scale_integral: 0.0,
            last_scale_t: 0.0,
        }));
        Ok(self)
    }

    /// Drain every fault action due at the current time. A fail-stop stalls
    /// the clock inside `apply_fault`, so later actions that land inside
    /// the outage window fire right after it ends.
    fn process_due_faults(&mut self) {
        let Some(mut rt) = self.fault.take() else {
            self.next_fault_t = f64::INFINITY;
            return;
        };
        while rt.cursor < rt.schedule.len() && rt.schedule[rt.cursor].t <= self.t + 1e-12 {
            let ev = rt.schedule[rt.cursor];
            rt.cursor += 1;
            self.apply_fault(&mut rt, ev);
        }
        self.next_fault_t = rt.schedule.get(rt.cursor).map_or(f64::INFINITY, |s| s.t);
        self.fault = Some(rt);
    }

    fn apply_fault(&mut self, rt: &mut FaultRuntime, ev: ScheduledFault) {
        match ev.action {
            FaultAction::LinkDown { link, factor } => {
                self.obs.fault_begin(ev.fault, "link-degrade", link, self.t);
                self.link_health.set_scale(link as usize, factor);
                self.mark_link_dirty(link as usize);
                // A new epoch makes `next_dt`'s dirty-link pass re-rate
                // this link's flows: it skips flows stamped with the current
                // one.
                self.load_epoch += 1;
            }
            FaultAction::LinkUp { link } => {
                self.link_health.restore(link as usize);
                self.mark_link_dirty(link as usize);
                self.load_epoch += 1;
                self.obs.fault_end(ev.fault, self.t);
            }
            FaultAction::SlowRank { rank, speed } => {
                self.obs.fault_begin(ev.fault, "straggler", rank, self.t);
                // A speed change changes the compute rate: close the
                // rank's segment at the old one first.
                self.accrue_rank(rank as usize, self.t);
                self.rank_speed[rank as usize] = speed;
                self.mark_rank_dirty(rank as usize);
            }
            FaultAction::RestoreRank { rank } => {
                self.accrue_rank(rank as usize, self.t);
                self.rank_speed[rank as usize] = 1.0;
                self.mark_rank_dirty(rank as usize);
                self.obs.fault_end(ev.fault, self.t);
            }
            FaultAction::HeatGpu { gpu, delta_c } => {
                self.obs
                    .fault_begin(ev.fault, "thermal-runaway", gpu, self.t);
                self.inlet_offset_c[gpu as usize] = delta_c;
            }
            FaultAction::CoolGpu { gpu } => {
                self.inlet_offset_c[gpu as usize] = 0.0;
                self.obs.fault_end(ev.fault, self.t);
            }
            FaultAction::FailStop { gpu } => {
                rt.restarts += 1;
                self.obs.fault_begin(ev.fault, "gpu-fail-stop", gpu, self.t);
                match rt.recovery {
                    RecoveryPolicy::CheckpointRestart {
                        checkpoint_interval_s,
                        restart_latency_s,
                    } => {
                        // Productive time since the last checkpoint is lost
                        // and recomputed after the restart.
                        let productive = self.t - rt.downtime_s;
                        let lost = if checkpoint_interval_s > 0.0 {
                            productive % checkpoint_interval_s
                        } else {
                            0.0
                        };
                        self.fault_stall(rt, restart_latency_s, lost);
                    }
                    RecoveryPolicy::SpareSwap { swap_latency_s } => {
                        self.fault_stall(rt, swap_latency_s, 0.0);
                    }
                    RecoveryPolicy::ElasticShrink {
                        reconfig_latency_s, ..
                    } => {
                        self.fault_stall(rt, reconfig_latency_s, 0.0);
                        rt.dead_gpus = (rt.dead_gpus + 1).min(rt.world);
                        let scale = f64::from(rt.world - rt.dead_gpus) / f64::from(rt.world);
                        rt.set_token_scale(scale, self.t);
                    }
                }
                self.obs.fault_end(ev.fault, self.t);
            }
            FaultAction::Regrow => {
                if rt.dead_gpus > 0 {
                    if let RecoveryPolicy::ElasticShrink {
                        reconfig_latency_s, ..
                    } = rt.recovery
                    {
                        self.fault_stall(rt, reconfig_latency_s, 0.0);
                    }
                    rt.dead_gpus -= 1;
                    let scale = f64::from(rt.world - rt.dead_gpus) / f64::from(rt.world);
                    rt.set_token_scale(scale, self.t);
                }
            }
        }
    }

    /// Stall the whole cluster for a recovery outage: `idle_s` of restart /
    /// reconfiguration at idle activity, then `redo_s` recomputing lost work
    /// at nominal training activity. Thermal and power physics keep running
    /// on control boundaries (the DVFS governor sees a real idle window);
    /// every joule accrued here is counted as wasted. In-flight kernels and
    /// flows hold their remaining work — the outage shifts their completion
    /// by its length.
    fn fault_stall(&mut self, rt: &mut FaultRuntime, idle_s: f64, redo_s: f64) {
        let start = self.t;
        let end = start + idle_s.max(0.0) + redo_s.max(0.0);
        if end <= start {
            return;
        }
        let redo_from = start + idle_s.max(0.0);
        // Close every open segment at the outage start, then freeze:
        // ranks and flows hold their work during the stall, so a lazy
        // segment spanning it would progress work and charge kernel/traffic
        // time that never ran. Frozen control ticks skip their flushes (the
        // thermal steps below still read the synthetic redo activity), and
        // `rebase_accruals` restarts every segment at the outage end.
        self.flush_ranks(start);
        self.flush_flows(start);
        self.accrual_frozen = true;
        let energy_before: f64 = self.thermals.iter().map(GpuThermal::energy_j).sum();
        while end - self.t > 1e-9 {
            let dt = (self.next_control - self.t).min(end - self.t).max(1e-9);
            let redo_overlap = (self.t + dt - redo_from.max(self.t)).max(0.0).min(dt);
            if redo_overlap > 0.0 {
                for acc in &mut self.activity_acc {
                    *acc += 0.75 * redo_overlap;
                }
            }
            self.t += dt;
            if self.t >= self.next_control - 1e-12 {
                self.control_update();
                self.next_control += self.cfg.control_period_s;
            }
        }
        self.accrual_frozen = false;
        self.rebase_accruals(self.t);
        let energy_after: f64 = self.thermals.iter().map(GpuThermal::energy_j).sum();
        rt.energy_wasted_j += energy_after - energy_before;
        let outage = self.t - start;
        rt.downtime_s += outage;
        if self.measure_start.is_some() {
            rt.downtime_measured_s += outage;
        }
    }

    /// Run to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no progress is possible and
    /// [`SimError::Timeout`] when the simulated-time cap is hit.
    pub fn run(self) -> Result<SimResult, SimError> {
        self.run_observed().map(|(result, _)| result)
    }

    /// Run to completion, also returning the engine's internal counters.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_stats(mut self) -> Result<(SimResult, EngineStats), SimError> {
        self.run_loop()?;
        let stats = self.stats;
        Ok((self.finish().0, stats))
    }

    /// Run to completion, returning the observer for post-run analysis.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_observed(mut self) -> Result<(SimResult, O), SimError> {
        self.run_loop()?;
        Ok(self.finish())
    }

    fn run_loop(&mut self) -> Result<(), SimError> {
        for rank in 0..self.ranks.len() {
            self.ready_now.push(Reverse(rank));
        }
        loop {
            let progressed = self.drain_ready();

            if self.finished_ranks == self.ranks.len() {
                break;
            }

            let dt = match self.next_dt() {
                Some(dt) => dt,
                None => {
                    if progressed {
                        continue;
                    }
                    return Err(SimError::Deadlock {
                        at_s: self.t,
                        detail: self.blocked_summary(),
                    });
                }
            };

            self.advance(dt);
            self.stats.events += 1;
            // Event-spacing EWMA, sizing the calendar's bucket width at
            // the next rebuild.
            self.avg_dt += 0.125 * (dt - self.avg_dt);

            if self.t >= self.next_fault_t - 1e-12 {
                self.process_due_faults();
            }
            if self.t >= self.next_control - 1e-12 {
                self.control_update();
                self.next_control += self.cfg.control_period_s;
            }
            if self.t > self.cfg.max_sim_time_s {
                return Err(SimError::Timeout {
                    cap_s: self.cfg.max_sim_time_s,
                });
            }
        }
        self.publish_metrics();
        Ok(())
    }

    /// Bring `stats.cal_overflow_peak` current, then push the engine
    /// counters and live quantities into the attached metrics shard (no-op
    /// without one). Called at control boundaries and once at run end;
    /// never on the per-event path.
    fn publish_metrics(&mut self) {
        self.stats.cal_overflow_peak = self.calq.overflow_peak as u64;
        let Some(m) = self.metrics.as_deref_mut() else {
            return;
        };
        let now = Instant::now();
        let wall = now.duration_since(m.last_wall).as_secs_f64();
        if wall > 0.0 {
            m.event_rate_per_s
                .set((self.stats.events - m.last_events) as f64 / wall);
        }
        m.last_wall = now;
        m.last_events = self.stats.events;
        for (gauge, (_, value)) in m.counters.iter().zip(self.stats.fields()) {
            gauge.set(value as f64);
        }
        m.sim_time_s.set(self.t);
        m.live_flows.set(self.flow_order.len() as f64);
        m.live_computing.set(self.computing_ranks.len() as f64);
        m.cal_overflow_len.set(self.calq.overflow.len() as f64);
        if let Some(rt) = &self.fault {
            m.fault_downtime_s.set(rt.downtime_s);
            m.fault_restarts.set(rt.restarts as f64);
            m.fault_energy_wasted_j.set(rt.energy_wasted_j);
        }
    }

    /// One scheduling pass: process every runnable rank in ascending rank
    /// order, exactly like the reference engine's 0..n scan (in-pass wakes
    /// of higher ranks land in the same pass; everything else waits for the
    /// next one).
    fn drain_ready(&mut self) -> bool {
        for rank in self.ready_next.drain(..) {
            self.ready_now.push(Reverse(rank));
        }
        let mut progressed = false;
        while let Some(Reverse(rank)) = self.ready_now.pop() {
            progressed = true;
            self.process_rank(rank);
        }
        progressed
    }

    /// Run one rank's instantaneous steps until it blocks, starts a
    /// compute, or finishes. The rank's mode is `Ready` on entry.
    fn process_rank(&mut self, rank: usize) {
        // Close the rank's open accounting segment before any mode write.
        // Usually zero-length (the rank became `Ready` at the current
        // time, with a flush); a rank woken mid-drain and re-queued for
        // the *next* pass spends one event `Ready` and accrues its idle
        // segment here.
        self.accrue_rank(rank, self.t);
        loop {
            let steps = self.trace.steps(rank);
            if self.ranks[rank].step_idx >= steps.len() {
                // Iteration boundary.
                let iter = self.ranks[rank].iteration;
                self.iteration_complete_at[iter] = self.iteration_complete_at[iter].max(self.t);
                self.ranks[rank].iteration += 1;
                self.ranks[rank].step_idx = 0;
                // Iterations only ever increment by one, so every rank
                // crosses `== warmup_iterations` exactly once (when warmup
                // is 0, `measure_start` is already set at construction);
                // the counter therefore reaches `world` at exactly the
                // boundary event where the reference engine's all-ranks
                // scan first succeeds.
                if self.ranks[rank].iteration == self.cfg.warmup_iterations {
                    self.ranks_past_warmup += 1;
                }
                if self.ranks[rank].iteration >= self.cfg.iterations {
                    self.ranks[rank].mode = RankMode::Finished;
                    self.finished_ranks += 1;
                    return;
                }
                if self.measure_start.is_none() && self.ranks_past_warmup == self.ranks.len() {
                    self.measure_start = Some(self.t);
                }
                continue;
            }
            let step = steps[self.ranks[rank].step_idx];
            self.ranks[rank].step_idx += 1;
            match step {
                Step::Compute { kind, flops } => {
                    self.obs.task_start(
                        rank,
                        self.ranks[rank].gpu.index() as u32,
                        self.ranks[rank].iteration as u32,
                        TaskKind::Compute(kind),
                        self.t,
                    );
                    self.ranks[rank].mode = RankMode::Computing {
                        kind,
                        remaining_flops: flops,
                    };
                    self.computing_pos[rank] = self.computing_ranks.len() as u32;
                    self.computing_ranks.push(rank);
                    self.mark_rank_dirty(rank);
                    return;
                }
                Step::CollStart { coll } => {
                    self.arrive(rank, coll.0);
                }
                Step::CollWait { coll } => {
                    let key = (self.ranks[rank].iteration as u32, coll.0);
                    let need = self.wait_count[coll.0 as usize];
                    let slot = &mut self.colls[coll.0 as usize][(key.0 & 1) as usize];
                    let blocked = if slot.live && slot.iter == key.0 {
                        if slot.state.complete {
                            slot.state.waits_passed += 1;
                            if slot.state.waits_passed >= need {
                                slot.live = false;
                                self.live_colls -= 1;
                                self.stats.colls_retired += 1;
                            }
                            false
                        } else {
                            slot.state.waiters.push(rank);
                            self.ranks[rank].mode = RankMode::Waiting { coll: coll.0 };
                            true
                        }
                    } else {
                        assert!(
                            !slot.live,
                            "collective {} slab collision: iterations {} and {} live at once",
                            coll.0, slot.iter, key.0
                        );
                        slot.iter = key.0;
                        slot.live = true;
                        slot.state.reset();
                        slot.state.waiters.push(rank);
                        self.live_colls += 1;
                        self.note_live_colls();
                        self.ranks[rank].mode = RankMode::Waiting { coll: coll.0 };
                        true
                    };
                    if blocked {
                        self.obs.task_start(
                            rank,
                            self.ranks[rank].gpu.index() as u32,
                            key.0,
                            TaskKind::CollWait {
                                coll,
                                class: self.coll_class[coll.0 as usize],
                            },
                            self.t,
                        );
                        return;
                    }
                }
            }
        }
    }

    /// A rank arrives at a collective; launch its plan's flows when ready.
    fn arrive(&mut self, rank: usize, coll: u32) {
        let ci = coll as usize;
        let iter = self.ranks[rank].iteration as u32;
        let key = (iter, coll);
        let launch = {
            let slot = &mut self.colls[ci][(iter & 1) as usize];
            if !(slot.live && slot.iter == iter) {
                assert!(
                    !slot.live,
                    "collective {coll} slab collision: iterations {} and {iter} live at once",
                    slot.iter
                );
                slot.iter = iter;
                slot.live = true;
                slot.state.reset();
                self.live_colls += 1;
            }
            let state = &mut slot.state;
            state.arrived += 1;
            let ready = self.coll_eager[ci] || state.arrived == self.coll_group_len[ci];
            if ready && !state.launched {
                state.launched = true;
                true
            } else {
                false
            }
        };
        self.note_live_colls();
        if !launch {
            return;
        }

        let range = if let Some(range) = self.plan_cache[ci] {
            self.stats.plan_reuses += 1;
            range
        } else if let Some(plan) = self.shared_plans.as_ref().and_then(|s| s.get(ci)) {
            self.stats.shared_plan_hits += 1;
            self.install_plan(ci, &plan)
        } else {
            let plan = build_plan(
                self.cluster,
                self.trace,
                &self.ranks,
                coll,
                self.fold_switch_mult,
            );
            if let Some(shared) = &self.shared_plans {
                shared.put(ci, &plan);
            }
            self.stats.plan_builds += 1;
            self.install_plan(ci, &plan)
        };

        let measured = self.ranks[rank].iteration >= self.cfg.warmup_iterations;
        let active = range.len;
        if active > 0 {
            self.load_epoch += 1;
            self.stats.flows_launched += u64::from(active);
        }
        for pfi in range.start..range.start + range.len {
            let pf = self.plan_flows[pfi as usize];
            let slot = self.fa.alloc() as usize;
            self.obs
                .flow_launch(slot as u32, coll, iter, pf.src, pf.dst, self.t);
            // A GPU's flow count crossing 0 → 1 changes its ranks'
            // accounting coefficients: close their segments *before* the
            // increment so the closed span carries the flows-absent rates.
            if self.gpu_flow_count[pf.src as usize] == 0 {
                self.flush_gpu_ranks(pf.src as usize, self.t);
            }
            self.gpu_flow_count[pf.src as usize] += 1;
            if self.gpu_flow_count[pf.src as usize] == 1 {
                self.mark_gpu_ranks_dirty(pf.src as usize);
            }
            if self.gpu_flow_count[pf.dst as usize] == 0 {
                self.flush_gpu_ranks(pf.dst as usize, self.t);
            }
            self.gpu_flow_count[pf.dst as usize] += 1;
            if self.gpu_flow_count[pf.dst as usize] == 1 {
                self.mark_gpu_ranks_dirty(pf.dst as usize);
            }
            for (l, li) in pf.route.indices().enumerate() {
                let hop = self.route_arena.item(li);
                let id = hop.link as usize;
                self.link_load[id] += u32::from(hop.mult);
                self.mark_link_dirty(id);
                self.fa.link_pos[slot][l] = self.link_flows[id].len() as u32;
                self.link_flows[id].push((slot as u32, l as u8));
            }
            self.fa.remaining[slot] = pf.work;
            self.fa.rate[slot] = 0.0;
            self.fa.acc_since[slot] = self.t;
            self.fa.moved_acc[slot] = 0.0;
            self.fa.rate_epoch[slot] = 0;
            self.fa.cal_key[slot] = f64::INFINITY;
            self.fa.cal_loc[slot] = LOC_NONE;
            self.fa.coll[slot] = coll;
            self.fa.iteration[slot] = iter;
            self.fa.measured[slot] = measured;
            self.fa.pf[slot] = pfi;
            self.fa.order_pos[slot] = self.flow_order.len() as u32;
            self.flow_order.push(slot as u32);
        }
        self.stats.arena_slot_reuses = self.fa.slot_reuses();

        let slot = &mut self.colls[ci][(iter & 1) as usize];
        debug_assert!(slot.live && slot.iter == iter, "just inserted");
        slot.state.flows_remaining = active;
        if active == 0 {
            self.complete_coll(key, Some(rank), self.t);
        }
    }

    /// Mark a collective instance complete, wake its waiters, and prune its
    /// state if no wait can reference it again.
    ///
    /// `current` is the rank being processed when completion happens inside
    /// a drain pass (`None` when it happens during `advance`): waiters with
    /// a higher rank are still ahead of the reference scan's cursor and run
    /// this pass; everyone else runs next pass. `now` is the completion
    /// time stamped on the observer's wait-span ends (inside `advance` the
    /// clock has not been bumped yet, so callers pass `t + dt`).
    fn complete_coll(&mut self, key: (u32, u32), current: Option<usize>, now: f64) {
        let need = self.wait_count[key.1 as usize];
        let slot = &mut self.colls[key.1 as usize][(key.0 & 1) as usize];
        debug_assert!(slot.live && slot.iter == key.0, "live collective");
        slot.state.complete = true;
        let waiters = std::mem::take(&mut slot.state.waiters);
        slot.state.waits_passed += waiters.len() as u32;
        let prune = slot.state.waits_passed >= need;
        if prune {
            slot.live = false;
            self.live_colls -= 1;
            self.stats.colls_retired += 1;
        }
        self.obs.collective_complete(key.1, key.0, now);
        for &w in &waiters {
            // Close the waiter's waiting segment at completion time,
            // before its mode flips.
            self.accrue_rank(w, now);
            self.obs.task_end(w, now);
            self.ranks[w].mode = RankMode::Ready;
            match current {
                Some(c) if w > c => self.ready_now.push(Reverse(w)),
                _ => self.ready_next.push(w),
            }
        }
        self.stats.wakes += waiters.len() as u64;
    }

    /// Close `rank`'s open segment at `t_end`: materialize a computing
    /// rank's progress, accrue its current mode's accounting coefficients
    /// over `[acc_since, t_end]` and restart the segment. No-op for
    /// zero-length segments; inactive (folded-away) ranks skip the
    /// accounting.
    fn accrue_rank(&mut self, rank: usize, t_end: f64) {
        debug_assert!(!self.accrual_frozen, "no segment closes during an outage");
        let t0 = self.rank_acc_since[rank];
        if t_end <= t0 {
            return;
        }
        self.rank_acc_since[rank] = t_end;
        let len = t_end - t0;
        if let RankMode::Computing {
            kind,
            remaining_flops,
        } = self.ranks[rank].mode
        {
            self.ranks[rank].mode = RankMode::Computing {
                kind,
                remaining_flops: accrual::left_after(
                    remaining_flops,
                    self.compute_rate(rank, kind),
                    len,
                ),
            };
        }
        if !self.rank_active[rank] {
            return;
        }
        let gpu = self.ranks[rank].gpu.index();
        let flows_present = self.gpu_flow_count[gpu] > 0;
        match self.ranks[rank].mode {
            RankMode::Computing { kind, .. } => accrual::accrue_computing(
                len,
                kind,
                flows_present,
                self.ranks[rank].iteration >= self.cfg.warmup_iterations,
                &mut self.kernel_time[rank],
                &mut self.activity_acc[gpu],
                &mut self.util_acc[gpu],
                &mut self.occ_acc[gpu],
            ),
            RankMode::Waiting { coll } => accrual::accrue_waiting(
                len,
                self.coll_class[coll as usize],
                self.ranks[rank].iteration >= self.cfg.warmup_iterations,
                &mut self.kernel_time[rank],
                &mut self.activity_acc[gpu],
                &mut self.util_acc[gpu],
                &mut self.occ_acc[gpu],
            ),
            _ => {
                if flows_present {
                    accrual::accrue_idle(len, &mut self.activity_acc[gpu]);
                }
            }
        }
    }

    /// Close the segments of every rank placed on `gpu` at `now`. Called
    /// exactly when the GPU's flow count crosses 0 ↔ 1 (its ranks'
    /// activity/occupancy coefficients and compute rates change).
    fn flush_gpu_ranks(&mut self, gpu: usize, now: f64) {
        for k in 0..self.ranks_of_gpu[gpu].len() {
            let rank = self.ranks_of_gpu[gpu][k] as usize;
            self.accrue_rank(rank, now);
        }
    }

    /// Work the flow in `slot` has left `extra` seconds after the current
    /// time.
    fn flow_left(&self, slot: usize, extra: f64) -> f64 {
        accrual::left_after(
            self.fa.remaining[slot],
            self.fa.rate[slot],
            (self.t - self.fa.acc_since[slot]) + extra,
        )
    }

    /// Work a computing rank has left `extra` seconds after the current
    /// time, and its compute rate (`None` unless the rank is computing).
    fn compute_left(&self, rank: usize, extra: f64) -> Option<(f64, f64)> {
        let RankMode::Computing {
            kind,
            remaining_flops,
        } = self.ranks[rank].mode
        else {
            return None;
        };
        let rate = self.compute_rate(rank, kind);
        let elapsed = (self.t - self.rank_acc_since[rank]) + extra;
        Some((accrual::left_after(remaining_flops, rate, elapsed), rate))
    }

    /// Charge `pending` work units of a flow's movement to its telemetry
    /// owners.
    fn charge_flow(&mut self, slot: usize, pending: f64) {
        if pending == 0.0 {
            return;
        }
        let pf = self.plan_flows[self.fa.pf[slot] as usize];
        let payload = pending * pf.payload_ratio;
        let measured = self.fa.measured[slot];
        for ci in pf.charges.indices() {
            let charge = self.charge_arena.item(ci);
            let gpu = charge.gpu as usize;
            if measured {
                self.traffic.add(gpu, charge.class, payload);
            }
            if charge.class == LinkClass::Pcie {
                self.pcie_window_bytes[gpu] += payload;
            }
        }
    }

    /// The rank flush: close every active rank's segment at `now`, in
    /// ascending order — the reference engine's world-scan order.
    fn flush_ranks(&mut self, now: f64) {
        for ri in 0..self.active_ranks.len() {
            self.accrue_rank(self.active_ranks[ri] as usize, now);
        }
    }

    /// The flow flush: close every live flow's segment at `now` and charge
    /// its movement since the last flush, in `flow_order` order — the
    /// reference engine's dense-loop order.
    fn flush_flows(&mut self, now: f64) {
        for oi in 0..self.flow_order.len() {
            let slot = self.flow_order[oi] as usize;
            let pending = accrual::take_flow_pending(
                self.fa.rate[slot],
                now,
                &mut self.fa.acc_since[slot],
                &mut self.fa.moved_acc[slot],
                &mut self.fa.remaining[slot],
            );
            self.charge_flow(slot, pending);
        }
    }

    /// Restart every segment at `now` without accruing anything — used at
    /// the end of a fail-stop outage, whose span must contribute no
    /// progress and no rank, flow, or idle accounting (the stall loop
    /// injects recovery activity itself).
    fn rebase_accruals(&mut self, now: f64) {
        for ri in 0..self.active_ranks.len() {
            self.rank_acc_since[self.active_ranks[ri] as usize] = now;
        }
        for oi in 0..self.flow_order.len() {
            self.fa.acc_since[self.flow_order[oi] as usize] = now;
        }
    }

    fn note_live_colls(&mut self) {
        self.stats.peak_live_colls = self.stats.peak_live_colls.max(self.live_colls);
    }

    fn compute_rate(&self, rank: usize, kind: charllm_trace::ComputeKind) -> f64 {
        let gpu = self.ranks[rank].gpu.index();
        let mut rate = self.peak_flops * kind.mfu() * self.freq_ratio[gpu] * self.rank_speed[rank];
        if self.gpu_flow_count[gpu] > 0 {
            rate /= self.cfg.overlap_slowdown;
        }
        rate.max(1.0)
    }

    fn mark_link_dirty(&mut self, link: usize) {
        if !self.link_dirty[link] {
            self.link_dirty[link] = true;
            self.dirty_links.push(link as u32);
        }
    }

    /// Queue a computing rank for calendar re-keying by the next `next_dt`.
    fn mark_rank_dirty(&mut self, rank: usize) {
        if !self.rank_dirty[rank] {
            self.rank_dirty[rank] = true;
            self.dirty_ranks.push(rank as u32);
        }
    }

    fn mark_gpu_ranks_dirty(&mut self, gpu: usize) {
        for k in 0..self.ranks_of_gpu[gpu].len() {
            let rank = self.ranks_of_gpu[gpu][k] as usize;
            self.mark_rank_dirty(rank);
        }
    }

    /// Push a fresh completion entry for a computing rank — but only when
    /// the fresh prediction undercuts the stored key (same lower-bound
    /// reasoning as [`Self::rekey_flow`]). The superseded entry is removed
    /// *here*, at the push site, via the rank's stored location — not left
    /// to be popped and skipped later. `force` pushes unconditionally
    /// after the calendar was rebuilt.
    fn push_compute_key(&mut self, rank: usize, force: bool) {
        if let Some((left, rate)) = self.compute_left(rank, 0.0) {
            let key = completion_key(self.t, left, rate);
            if !force && key >= self.rank_key[rank] {
                return;
            }
            let old = self.rank_loc[rank];
            if old != LOC_NONE {
                self.calq_remove(old);
            }
            self.rank_key[rank] = key;
            self.rank_epoch[rank] = self.rank_epoch[rank].wrapping_add(1);
            self.rank_loc[rank] =
                self.calq
                    .push(CalEntry::compute(key, rank as u32, self.rank_epoch[rank]));
            self.stats.heap_pushes += 1;
        }
    }

    /// Remove a calendar entry by location, re-pointing the owner of
    /// whichever entry `swap_remove` moved into the vacated position.
    fn calq_remove(&mut self, loc: u64) {
        if let Some(meta) = self.calq.remove(loc) {
            let id = ((meta >> 32) & 0x7fff_ffff) as usize;
            if meta & ENTRY_COMPUTE != 0 {
                self.rank_loc[id] = loc;
            } else {
                self.fa.cal_loc[id] = loc;
            }
        }
    }

    /// Recompute the flow's bottleneck rate from current link loads, stamp
    /// it with the current `load_epoch`, and re-key its calendar entry if
    /// the new prediction undercuts the stored key. `force` pushes
    /// unconditionally after the calendar was rebuilt (`rekey_all`), when
    /// every flow needs an entry regardless of the old key.
    ///
    /// Queue keys only need to stay *lower bounds* on true completion
    /// times. A rate decrease (the launch-storm common case) moves the
    /// completion later, so the existing entry's key is still a valid —
    /// merely loose — lower bound and no queue traffic happens at all;
    /// loose keys are re-tightened lazily when they drain. Only when the
    /// fresh prediction is *earlier* than the stored key (a rate increase)
    /// does the old entry get removed — at this push site, via its stored
    /// location — and a re-keyed one inserted.
    fn rekey_flow(&mut self, slot: usize, force: bool) {
        let rate = flow_rate(
            slot,
            &self.fa.pf,
            &self.plan_flows,
            &self.route_arena,
            &self.link_load,
            &self.link_health,
        );
        if rate.to_bits() != self.fa.rate[slot].to_bits() {
            accrual::bank_flow_segment(
                self.fa.rate[slot],
                self.t,
                &mut self.fa.acc_since[slot],
                &mut self.fa.moved_acc[slot],
                &mut self.fa.remaining[slot],
            );
            self.fa.rate[slot] = rate;
        }
        self.fa.rate_epoch[slot] = self.load_epoch;
        let key = completion_key(self.t, self.flow_left(slot, 0.0), rate);
        if !force && key >= self.fa.cal_key[slot] {
            return;
        }
        self.fa.cal_key[slot] = key;
        let old = self.fa.cal_loc[slot];
        if old != LOC_NONE {
            self.calq_remove(old);
        }
        self.fa.cal_loc[slot] = self.calq.push(CalEntry::flow(
            key,
            slot as u32,
            self.fa.generation(slot as u32),
        ));
        self.stats.heap_pushes += 1;
    }

    /// Rebuild the completion calendar from live state: re-base the wheel
    /// at the current time with a bucket width of ~1 mean event spacing,
    /// then refresh every flow rate and push one fresh entry per flow and
    /// computing rank. Runs every [`REKEY_INTERVAL`] events and whenever
    /// simulated time drifts past half the wheel horizon.
    fn rekey_all(&mut self) {
        self.stats.cal_rekeys += 1;
        let width = self.avg_dt.max(1e-12);
        self.calq.reset(self.t, width);
        for oi in 0..self.flow_order.len() {
            self.fa.cal_loc[self.flow_order[oi] as usize] = LOC_NONE;
        }
        for idx in 0..self.computing_ranks.len() {
            self.rank_loc[self.computing_ranks[idx]] = LOC_NONE;
        }
        for oi in 0..self.flow_order.len() {
            self.rekey_flow(self.flow_order[oi] as usize, true);
        }
        for idx in 0..self.computing_ranks.len() {
            let rank = self.computing_ranks[idx];
            self.push_compute_key(rank, true);
        }
        self.events_since_rekey = 0;
    }

    /// Choose the next time step: the earliest completion, capped by the
    /// control period. `None` when nothing is in flight.
    ///
    /// The reference engine evaluates `left / rate` for every compute and
    /// flow (`left` from the lazy segment state, see [`crate::accrual`])
    /// and folds them with `f64::min` — an order-independent
    /// reduction over positive finite candidates, so the identical `dt` bits
    /// emerge from *any* evaluation order as long as the same candidate set
    /// is covered. This implementation only evaluates candidates that can
    /// matter: it drains completion-calendar buckets while an entry's
    /// conservative key can still undercut the running `dt` (plus a drift
    /// margin), evaluates each drained entry's exact candidate from current
    /// state, and re-pushes it. Keys are lower bounds on true completion
    /// times (rates only *decrease* between re-keys: every rate increase —
    /// a link load dropping, a GPU's overlap penalty clearing, a frequency
    /// step — dirties and re-keys its entries first), so no candidate that could
    /// lower `dt` is ever missed; spurious pops are harmless because the
    /// candidate itself is always recomputed exactly.
    ///
    /// The drained entities are this event's candidates: `advance` tests
    /// only them for completion. A key bounds the instant an entity's work
    /// reaches the 1-unit completion threshold (see [`completion_key`]),
    /// not the instant it reaches zero, so every entity that completes
    /// within `dt` lies under the drain bound.
    ///
    /// Rates are refreshed (and entries re-keyed) in batch for exactly the
    /// flows whose route-link loads changed, via the dirty-link lists;
    /// `advance` then reuses those exact rates, matching the reference
    /// engine where both methods read the same `link_load`. Flows on
    /// untouched links keep their cached rate — the recompute would divide
    /// the same bandwidths by the same loads and reproduce the identical
    /// bits. In debug builds `debug_check_dt` re-derives `dt` with the
    /// reference's full scan and asserts bit-equality.
    fn next_dt(&mut self) -> Option<f64> {
        debug_assert!(self.cand_ranks.is_empty() && self.cand_flows.is_empty());
        if self.computing_ranks.is_empty() && self.flow_order.is_empty() {
            return None;
        }
        let live = self.flow_order.len() + self.computing_ranks.len();
        self.stats.peak_live = self.stats.peak_live.max(live as u64);
        if self.events_since_rekey >= REKEY_INTERVAL || self.calq.needs_rebase(self.t) {
            self.rekey_all();
        }
        self.events_since_rekey += 1;

        // Re-rate + re-key flows touched by link-load changes: dirty links
        // in order, then the flows on each link. `rekey_flow` stamps
        // `rate_epoch`, so a flow on several dirty links is re-rated once.
        let mut dirty = std::mem::take(&mut self.dirty_links);
        let epoch = self.load_epoch;
        for &link in &dirty {
            let link = link as usize;
            self.link_dirty[link] = false;
            for k in 0..self.link_flows[link].len() {
                let slot = self.link_flows[link][k].0 as usize;
                if self.fa.rate_epoch[slot] != epoch {
                    self.rekey_flow(slot, false);
                }
            }
        }
        dirty.clear();
        self.dirty_links = dirty;

        // Re-key computes whose rate inputs changed.
        let mut dirty = std::mem::take(&mut self.dirty_ranks);
        for &rank in &dirty {
            let rank = rank as usize;
            self.rank_dirty[rank] = false;
            self.push_compute_key(rank, false);
        }
        dirty.clear();
        self.dirty_ranks = dirty;

        let mut dt = self.next_control.min(self.next_fault_t) - self.t;
        // Drain calendar buckets while one could still hold an entry that
        // lowers `dt`: a key ≤ `t + dt + margin` lies in a bucket whose
        // start is ≤ that bound, and buckets are visited in start order, so
        // breaking at the first bucket past the (only ever shrinking)
        // bound covers every key that could matter. Whole buckets drain at
        // once — the extra candidates are recomputed exactly and folded
        // with `min`, which cannot perturb the result. The margin absorbs
        // the rounding between a key and the completion test it bounds:
        // both evaluate the same lazy segment state, at different instants
        // and through rounded absolute times, a few ε·(t+dt) apart — orders
        // of magnitude under the 1e-8 margin.
        let mut repush = std::mem::take(&mut self.repush);
        let mut drained = std::mem::take(&mut self.drained);
        loop {
            let margin = (self.t + dt) * 1e-8 + 1e-15;
            let bound = self.t + dt + margin;
            let bucket = if self.calq.cursor < CAL_BUCKETS {
                if self.calq.start_of(self.calq.cursor) > bound {
                    break;
                }
                self.calq.cursor += 1;
                &mut self.calq.buckets[self.calq.cursor - 1]
            } else if !self.calq.overflow.is_empty() && self.calq.horizon() <= bound {
                &mut self.calq.overflow
            } else {
                break;
            };
            drained.append(bucket);
            if bucket.capacity() > CAL_BUCKET_KEEP {
                *bucket = Vec::new();
            }
            self.stats.cal_bucket_drains += 1;
            let drained_overflow = self.calq.cursor >= CAL_BUCKETS && self.calq.overflow.is_empty();
            for mut e in drained.drain(..) {
                let candidate = if e.is_compute() {
                    let rank = e.id();
                    if self.rank_epoch[rank] != e.epoch() {
                        self.stats.heap_skips += 1;
                        continue;
                    }
                    self.rank_loc[rank] = LOC_NONE;
                    let Some(candidate) = self.compute_left(rank, 0.0) else {
                        self.stats.heap_skips += 1;
                        continue;
                    };
                    self.cand_ranks.push(rank as u32);
                    candidate
                } else {
                    let slot = e.id();
                    if slot >= self.fa.num_slots() || self.fa.gen[slot] != e.epoch() {
                        self.stats.heap_skips += 1;
                        continue;
                    }
                    self.fa.cal_loc[slot] = LOC_NONE;
                    self.cand_flows.push(slot as u32);
                    (self.flow_left(slot, 0.0), self.fa.rate[slot])
                };
                let (left, rate) = candidate;
                dt = dt.min(left / rate);
                self.stats.heap_pops += 1;
                // Re-tighten on the way out: the key just computed from
                // current state is the entry's current true completion
                // bound, so a loose key (left behind by a rate decrease) is
                // refreshed here instead of draining spuriously again next
                // event.
                e.key = completion_key(self.t, left, rate);
                if e.is_compute() {
                    self.rank_key[e.id()] = e.key;
                } else {
                    self.fa.cal_key[e.id()] = e.key;
                }
                repush.push(e);
            }
            if drained_overflow {
                break;
            }
        }
        self.drained = drained;
        let dt = dt.max(1e-9);
        // Every drained live entry goes back in, including those whose
        // work completes in this event: `advance` removes a completing
        // entity's entry at its retire site, the one path that drops
        // completing entries (it must, since a completing entity's
        // lower-bound key can lie past the drain bound and stay undrained).
        for e in repush.drain(..) {
            let loc = self.calq.push(e);
            if e.is_compute() {
                self.rank_loc[e.id()] = loc;
            } else {
                self.fa.cal_loc[e.id()] = loc;
            }
        }
        self.repush = repush;
        #[cfg(debug_assertions)]
        self.debug_check_dt(dt);
        Some(dt)
    }

    /// Debug cross-check: re-derive `dt` with the reference engine's full
    /// scan (and every flow rate from the link loads) and demand
    /// bit-equality, and demand that no computing rank or flow outside
    /// this event's candidate set would complete in `dt` (`advance` tests
    /// candidates only). Makes every debug-mode test a scheduler audit.
    /// The full scan is O(live) per event, so beyond ~1k live entities the
    /// audit samples every 64th event — large-scale debug suites stay
    /// tractable while the run is still audited throughout.
    #[cfg(debug_assertions)]
    fn debug_check_dt(&self, dt: f64) {
        let live = self.flow_order.len() + self.computing_ranks.len();
        if live > 1024 && !self.stats.events.is_multiple_of(64) {
            return;
        }
        let mut rank_cand = vec![false; self.ranks.len()];
        for &rank in &self.cand_ranks {
            rank_cand[rank as usize] = true;
        }
        let mut flow_cand = vec![false; self.fa.num_slots()];
        for &slot in &self.cand_flows {
            flow_cand[slot as usize] = true;
        }
        let mut expect = self.next_control.min(self.next_fault_t) - self.t;
        for &rank in &self.computing_ranks {
            if let (Some((left, rate)), Some((after, _))) =
                (self.compute_left(rank, 0.0), self.compute_left(rank, dt))
            {
                expect = expect.min(left / rate);
                assert!(
                    rank_cand[rank] || after > 1.0,
                    "rank {rank} completes in dt={dt} at t={} but was not a candidate",
                    self.t
                );
            }
        }
        for &slot in &self.flow_order {
            let slot = slot as usize;
            let rate = flow_rate(
                slot,
                &self.fa.pf,
                &self.plan_flows,
                &self.route_arena,
                &self.link_load,
                &self.link_health,
            );
            assert_eq!(
                rate.to_bits(),
                self.fa.rate[slot].to_bits(),
                "flow slot {slot}: cached rate {} != fresh rate {rate} at t={}",
                self.fa.rate[slot],
                self.t
            );
            expect = expect.min(self.flow_left(slot, 0.0) / rate);
            assert!(
                flow_cand[slot] || self.flow_left(slot, dt) > 1.0,
                "flow slot {slot} completes in dt={dt} at t={} but was not a candidate",
                self.t
            );
        }
        let expect = expect.max(1e-9);
        assert_eq!(
            expect.to_bits(),
            dt.to_bits(),
            "calendar dt {dt} != scan dt {expect} at t={}",
            self.t
        );
    }

    /// Advance in-flight work by `dt` and process completions.
    ///
    /// Progress is lazy (see [`crate::accrual`]): nothing is stepped here.
    /// Only this event's candidates — the computing ranks and flows
    /// `next_dt` evaluated — are tested for completion, each against its
    /// segment-start work and rate; everyone else provably cannot finish
    /// within `dt` (their calendar keys lie past the drain bound, which
    /// `debug_check_dt` audits). Compute completions are processed in
    /// ascending rank order, preserving the reference scan's observer-call
    /// and wake order.
    fn advance(&mut self, dt: f64) {
        let mut completed = std::mem::take(&mut self.completed_scratch);
        for &rank in &self.cand_ranks {
            if self
                .compute_left(rank as usize, dt)
                .is_some_and(|(left, _)| left <= 1.0)
            {
                completed.push(rank);
            }
        }
        self.cand_ranks.clear();
        completed.sort_unstable();
        for &done in &completed {
            let rank = done as usize;
            // Close the computing segment at completion time, before the
            // mode flips.
            self.accrue_rank(rank, self.t + dt);
            self.obs.task_end(rank, self.t + dt);
            self.ranks[rank].mode = RankMode::Ready;
            self.remove_computing(rank);
            self.rank_epoch[rank] = self.rank_epoch[rank].wrapping_add(1);
            self.rank_key[rank] = f64::INFINITY;
            // Retire-site removal: drop the rank's calendar entry (the
            // only place a completing entry leaves the calendar).
            let loc = self.rank_loc[rank];
            if loc != LOC_NONE {
                self.rank_loc[rank] = LOC_NONE;
                self.calq_remove(loc);
                self.stats.cal_exact_removals += 1;
            }
            self.ready_next.push(rank);
        }
        completed.clear();
        self.completed_scratch = completed;
        self.advance_flows(dt);
    }

    /// Retire the candidate flows that complete within `dt`, then move the
    /// clock.
    ///
    /// The reference engine retires flows from a dense `Vec` with
    /// `swap_remove`, so its retirement order — which fixes traffic
    /// summation, observer and wake order — is: ascending position, with a
    /// position re-checked after the tail is swapped into it. `flow_order`
    /// replicates that vector; the completing flows, sorted by position,
    /// reproduce the same order without visiting the rest. A swapped-in
    /// tail completes iff it is the highest-position completer still
    /// pending, since every other completer still sits where the sort
    /// found it.
    fn advance_flows(&mut self, dt: f64) {
        let mut retiring = std::mem::take(&mut self.retiring);
        for &slot in &self.cand_flows {
            if self.flow_left(slot as usize, dt) <= 1.0 {
                retiring.push(slot);
            }
        }
        self.cand_flows.clear();
        retiring.sort_unstable_by_key(|&slot| self.fa.order_pos[slot as usize]);
        let (mut lo, mut hi) = (0, retiring.len());
        while lo < hi {
            let mut slot = retiring[lo] as usize;
            lo += 1;
            let pos = self.fa.order_pos[slot] as usize;
            loop {
                self.retire_flow(slot, pos, dt);
                if lo < hi && self.flow_order.get(pos) == Some(&retiring[hi - 1]) {
                    hi -= 1;
                    slot = retiring[hi] as usize;
                } else {
                    break;
                }
            }
        }
        if !retiring.is_empty() {
            self.load_epoch += 1;
        }
        retiring.clear();
        self.retiring = retiring;
        self.t += dt;
    }

    /// Retire the completed flow in `slot`, at position `pos` of
    /// `flow_order`, at time `t + dt`.
    fn retire_flow(&mut self, slot: usize, pos: usize, dt: f64) {
        // One retirement-time charge: everything not yet flushed — banked
        // movement plus all the work left at the segment start, the
        // sub-unit residual included, so every lowered payload byte lands
        // in the traffic accounting.
        self.charge_flow(slot, self.fa.moved_acc[slot] + self.fa.remaining[slot]);
        let pf = self.plan_flows[self.fa.pf[slot] as usize];
        let key = (self.fa.iteration[slot], self.fa.coll[slot]);
        self.obs.flow_retire(slot as u32, self.t + dt);
        // Close rank segments on a GPU about to lose its last flow
        // *before* the decrement, so the closing segment still carries the
        // flows-present coefficients.
        if self.gpu_flow_count[pf.src as usize] == 1 {
            self.flush_gpu_ranks(pf.src as usize, self.t + dt);
        }
        self.gpu_flow_count[pf.src as usize] -= 1;
        if self.gpu_flow_count[pf.src as usize] == 0 {
            self.mark_gpu_ranks_dirty(pf.src as usize);
        }
        if self.gpu_flow_count[pf.dst as usize] == 1 {
            self.flush_gpu_ranks(pf.dst as usize, self.t + dt);
        }
        self.gpu_flow_count[pf.dst as usize] -= 1;
        if self.gpu_flow_count[pf.dst as usize] == 0 {
            self.mark_gpu_ranks_dirty(pf.dst as usize);
        }
        for li in pf.route.indices() {
            let hop = self.route_arena.item(li);
            let id = hop.link as usize;
            self.link_load[id] -= u32::from(hop.mult);
            self.mark_link_dirty(id);
        }
        // Retire-site removal: drop the retiring flow's calendar entry (the
        // only place a completing entry leaves the calendar) and its
        // link-membership records.
        let loc = self.fa.cal_loc[slot];
        if loc != LOC_NONE {
            self.fa.cal_loc[slot] = LOC_NONE;
            self.calq_remove(loc);
            self.stats.cal_exact_removals += 1;
        }
        self.detach_flow_links(slot);
        let cs = &mut self.colls[key.1 as usize][(key.0 & 1) as usize];
        debug_assert!(cs.live && cs.iter == key.0, "flow has state");
        cs.state.flows_remaining -= 1;
        if cs.state.flows_remaining == 0 {
            self.complete_coll(key, None, self.t + dt);
        }
        // Stable slots: recycling the arena slot (with a fresh generation
        // stamp) and re-pointing the swapped-in tail's position is all the
        // bookkeeping retirement needs.
        self.flow_order.swap_remove(pos);
        if let Some(&moved) = self.flow_order.get(pos) {
            self.fa.order_pos[moved as usize] = pos as u32;
        }
        self.fa.free(slot as u32);
    }

    /// Remove the flow's membership entries from its route links' flow
    /// lists (swap-remove with back-pointer fixup; O(route length)).
    fn detach_flow_links(&mut self, slot: usize) {
        let pf = self.plan_flows[self.fa.pf[slot] as usize];
        for (l, li) in pf.route.indices().enumerate() {
            let link = self.route_arena.item(li).link as usize;
            let pos = self.fa.link_pos[slot][l] as usize;
            self.link_flows[link].swap_remove(pos);
            if let Some(&(ms, mr)) = self.link_flows[link].get(pos) {
                self.fa.link_pos[ms as usize][mr as usize] = pos as u32;
            }
        }
    }

    fn remove_computing(&mut self, rank: usize) {
        let pos = self.computing_pos[rank] as usize;
        self.computing_ranks.swap_remove(pos);
        self.computing_pos[rank] = u32::MAX;
        if let Some(&moved) = self.computing_ranks.get(pos) {
            self.computing_pos[moved] = pos as u32;
        }
    }

    /// Thermal/governor update + telemetry sampling at a control boundary.
    ///
    /// When a GPU's frequency ratio actually steps (compared bit-for-bit),
    /// its ranks' completion keys go stale and are dirtied for re-keying on
    /// the next `next_dt`; in steady state (or with feedback disabled) the
    /// ratio is unchanged and the live keys stay exact. (The control tick
    /// itself needs no calendar entry: `next_dt` seeds `dt` with
    /// `next_control - t`, which is value-equivalent to an always-live
    /// entry at the control boundary.)
    fn control_update(&mut self) {
        // The thermal step reads the rank-side activity accumulators (and
        // the sample below the util ones), so the rank flush runs every
        // tick. Flow segments stay open: only the sample's PCIe window
        // reads them. During an outage every segment is frozen at its start
        // and restarted at its end, so there is nothing to flush.
        if !self.accrual_frozen {
            self.flush_ranks(self.t);
        }
        let period = self.cfg.control_period_s;
        let cluster = self.cluster;
        let airflow = &cluster.node_layout().airflow;
        let slots = airflow.num_slots();
        let measuring = self.measure_start.is_some();

        for ni in 0..self.active_nodes.len() {
            let node = charllm_hw::NodeId(self.active_nodes[ni]);
            self.node_powers.clear();
            for s in 0..slots {
                self.node_powers
                    .push(self.last_power_w[cluster.gpu_at(node, s).index()]);
            }
            for slot in 0..slots {
                let gpu = cluster.gpu_at(node, slot).index();
                let activity = (self.activity_acc[gpu] / period).min(1.0);
                let inlet =
                    airflow.inlet_temp_c(slot, &self.node_powers) + self.inlet_offset_c[gpu];
                let sample = self.thermals[gpu].step(activity, inlet, period);
                // With feedback disabled the physics still run (for power
                // and temperature telemetry) but clocks stay pinned.
                let new_ratio = if self.cfg.thermal_feedback {
                    self.thermals[gpu].freq_ratio()
                } else {
                    1.0
                };
                if new_ratio.to_bits() != self.freq_ratio[gpu].to_bits() {
                    self.freq_ratio[gpu] = new_ratio;
                    self.mark_gpu_ranks_dirty(gpu);
                }
                self.last_power_w[gpu] = sample.power_w;
                self.obs
                    .sample_tick(gpu as u32, self.t, sample.power_w, period, measuring);
                if measuring {
                    self.energy_measured_j += sample.power_w * period;
                }
                self.activity_acc[gpu] = 0.0;
            }
        }

        if self.t >= self.next_sample - 1e-12 {
            if !self.accrual_frozen {
                self.flush_flows(self.t);
            }
            for gi in 0..self.active_gpus.len() {
                let gpu = self.active_gpus[gi] as usize;
                let window = self.cfg.sample_period_s;
                let sample = GpuSample {
                    power_w: self.last_power_w[gpu],
                    temp_c: self.thermals[gpu].temp_c(),
                    freq_mhz: self.thermals[gpu].freq_mhz(),
                    util: (self.util_acc[gpu] / window).min(1.0),
                    pcie_gbps: self.pcie_window_bytes[gpu] / window / 1e9,
                };
                self.telemetry.record(gpu, self.t, sample);
                self.util_acc[gpu] = 0.0;
                self.pcie_window_bytes[gpu] = 0.0;
            }
            self.next_sample += self.cfg.sample_period_s;
        }

        self.publish_metrics();
    }

    fn blocked_summary(&self) -> String {
        let blocked: Vec<String> = self
            .ranks
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match s.mode {
                RankMode::Waiting { coll } => {
                    Some(format!("rank {r} waits coll {coll} (iter {})", s.iteration))
                }
                _ => None,
            })
            .take(8)
            .collect();
        blocked.join("; ")
    }

    fn finish(mut self) -> (SimResult, O) {
        // Close every open accrual segment so the final partial control
        // window's busy time and traffic land in the result.
        self.flush_ranks(self.t);
        self.flush_flows(self.t);
        let obs = self.obs;
        let cfg = &self.cfg;
        let mut iteration_times = Vec::with_capacity(cfg.iterations);
        let mut prev = 0.0;
        for &t in &self.iteration_complete_at {
            iteration_times.push(t - prev);
            prev = t;
        }
        // Gross window includes recovery outages; netting out the downtime
        // keeps `tokens_per_s` a *productive-rate* metric (`- 0.0` when no
        // fault fired, so the no-fault bits are untouched).
        let gross_window = self.iteration_complete_at.last().copied().unwrap_or(0.0)
            - self.measure_start.unwrap_or(0.0);
        let downtime_measured = self.fault.as_ref().map_or(0.0, |rt| rt.downtime_measured_s);
        let measured_window = gross_window - downtime_measured;
        let measured_iters = cfg.measured_iterations() as f64;
        let step_time = if measured_window > 0.0 {
            measured_window / measured_iters
        } else {
            iteration_times.iter().sum::<f64>() / iteration_times.len().max(1) as f64
        };
        let tokens_per_iter = self.trace.meta().tokens_per_iteration as f64;
        let tokens_per_s = if step_time > 0.0 {
            tokens_per_iter / step_time
        } else {
            0.0
        };
        // Goodput divides retained tokens (elastic shrink retains fewer) by
        // the *gross* window, so outage time and redone work drag it below
        // `tokens_per_s` whenever a fault fired.
        let (goodput, energy_wasted, restarts, downtime) = match &self.fault {
            None => (tokens_per_s, 0.0, 0, 0.0),
            Some(rt) => {
                let mean_scale = rt.mean_token_scale(self.t);
                let g = if gross_window > 0.0 {
                    tokens_per_iter * measured_iters * mean_scale / gross_window
                } else {
                    0.0
                };
                (g, rt.energy_wasted_j, rt.restarts, rt.downtime_s)
            }
        };
        let energy_per_step = self.energy_measured_j / measured_iters;
        let tokens_per_joule = if energy_per_step > 0.0 {
            tokens_per_iter / energy_per_step
        } else {
            0.0
        };

        let occupancy = self
            .occ_acc
            .iter()
            .map(|(busy, warps, tbs)| {
                let total = self.t.max(1e-9);
                OccupancyStats {
                    occupancy: busy / total,
                    warps: warps / total,
                    threadblocks: tbs / total,
                }
            })
            .collect();

        let result = SimResult {
            step_time_s: step_time,
            iteration_times_s: iteration_times,
            tokens_per_s,
            energy_per_step_j: energy_per_step,
            tokens_per_joule,
            kernel_time: self
                .kernel_time
                .iter()
                .map(|k| k.scaled(1.0 / measured_iters))
                .collect(),
            traffic: self.traffic,
            telemetry: self.telemetry,
            throttle_ratio: self
                .thermals
                .iter()
                .map(GpuThermal::throttle_ratio)
                .collect(),
            thermal_throttle_ratio: self
                .thermals
                .iter()
                .map(GpuThermal::thermal_throttle_ratio)
                .collect(),
            occupancy,
            sim_time_s: self.t,
            goodput_tokens_per_s: goodput,
            energy_wasted_j: energy_wasted,
            restarts,
            fault_downtime_s: downtime,
            profile: None,
        };
        (result, obs)
    }
}

/// Lower one collective into its iteration-invariant plan: flows with
/// resolved routes, effective work, payload ratios, and charge lists.
///
/// Flows with an empty route (on-device) or no work are dropped here once,
/// instead of being re-filtered at every launch.
fn build_plan(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    ranks: &[RankState],
    coll: u32,
    switch_mult: u16,
) -> CollPlan {
    let inst = trace.collective(charllm_trace::task::CollectiveId(coll));
    let gpus: Vec<GpuId> = inst.group.iter().map(|&r| ranks[r].gpu).collect();
    let plan = lower_collective(
        inst.kind,
        inst.bytes_per_rank,
        &gpus,
        cluster,
        inst.chunking,
    )
    .expect("placement-validated gpus");
    plan_from_lowered(cluster, plan, switch_mult)
}

/// Convert a lowered [`charllm_net::CollectivePlan`] into the engine's
/// cached form: inlined routes/bandwidths, charge lists, and the per-link
/// load multiplier (`switch_mult` on switch-tier links, 1 elsewhere; pass 1
/// for an unfolded plan).
pub(crate) fn plan_from_lowered(
    cluster: &Cluster,
    plan: charllm_net::CollectivePlan,
    switch_mult: u16,
) -> CollPlan {
    let mut flows = Vec::with_capacity(plan.flows.len());
    let mut route = Vec::new();
    for flow in plan.flows {
        flow.route_into(cluster, &mut route).expect("valid route");
        if route.is_empty() {
            continue;
        }
        let work = flow.work_bytes(cluster, &route);
        if work <= 0.0 {
            continue;
        }
        // Precompute which (gpu, class) pairs own each route link for
        // telemetry/traffic charging, in the order the reference engine's
        // per-event ownership match visits them.
        let mut charges = Vec::new();
        for &id in &route {
            let class = cluster.link(id).class;
            for &gpu in &[flow.src, flow.dst] {
                let owns = match class {
                    LinkClass::Pcie => cluster.pcie(gpu) == id,
                    LinkClass::NvLink | LinkClass::XgmiPort => cluster.fabric_port(gpu) == id,
                    LinkClass::XgmiPackage => {
                        // Package bus: charge both endpoints.
                        cluster.same_package(flow.src, flow.dst)
                            && (gpu == flow.src || gpu == flow.dst)
                    }
                    // In-network resources (NIC, switch tiers) belong to no
                    // GPU's telemetry counters.
                    LinkClass::Nic | LinkClass::Switch => false,
                };
                if owns {
                    charges.push((gpu.index() as u32, class));
                }
            }
        }
        assert!(
            route.len() <= MAX_ROUTE_LINKS && charges.len() <= MAX_ROUTE_LINKS,
            "route/charge list exceeds MAX_ROUTE_LINKS; bump the inline plan capacity"
        );
        let mut pf = PlanFlow {
            work,
            payload_ratio: flow.bytes as f64 / work,
            src: flow.src,
            dst: flow.dst,
            route_len: route.len() as u8,
            links: [0; MAX_ROUTE_LINKS],
            bw1e9: [0.0; MAX_ROUTE_LINKS],
            mult: [1; MAX_ROUTE_LINKS],
            charge_len: charges.len() as u8,
            charge_gpu: [0; MAX_ROUTE_LINKS],
            charge_class: [LinkClass::Nic; MAX_ROUTE_LINKS],
        };
        for (l, &id) in route.iter().enumerate() {
            pf.links[l] = id.index() as u32;
            pf.bw1e9[l] = cluster.link(id).bw_gbps * 1e9;
            if cluster.link(id).class == LinkClass::Switch {
                pf.mult[l] = switch_mult;
            }
        }
        for (c, &(gpu, class)) in charges.iter().enumerate() {
            pf.charge_gpu[c] = gpu;
            pf.charge_class[c] = class;
        }
        flows.push(pf);
    }
    CollPlan {
        flows: flows.into_boxed_slice(),
    }
}

/// Warp/threadblock pressure proxies per kernel class.
pub(crate) fn kernel_pressure(kind: charllm_trace::ComputeKind) -> (f64, f64) {
    use charllm_trace::ComputeKind as K;
    match kind {
        K::Gemm => (0.85, 0.9),
        K::MoeGemm => (0.9, 1.0),
        K::Attention | K::Recompute => (0.7, 0.75),
        K::Router | K::Embedding | K::Optimizer => (0.5, 0.4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charllm_hw::{presets, GpuModel, NodeLayout};
    use charllm_models::{presets as models, TrainJob};
    use charllm_net::ChunkingPolicy;
    use charllm_net::CollectiveKind;
    use charllm_parallel::{ParallelismSpec, PipelineSchedule, StagePartition};
    use charllm_trace::builder::{CollKey, TraceBuilder};
    use charllm_trace::lower::{lower_train, DeviceHints};
    use charllm_trace::trace::TraceMeta;
    use charllm_trace::ComputeKind;

    fn one_node_cluster() -> Cluster {
        Cluster::new("8xH200", GpuModel::H200.spec(), NodeLayout::hgx(), 1).unwrap()
    }

    fn run_trace(cluster: &Cluster, trace: &ExecutionTrace, cfg: SimConfig) -> SimResult {
        let placement = Placement::identity(cluster, trace.world()).unwrap();
        Simulator::new(cluster, &placement, trace, cfg)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn pure_compute_matches_analytic_time() {
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(1);
        // 1e14 FLOPs of GEMM at 1 PFLOP/s * 0.55 MFU = ~0.1818 s.
        b.compute(0, ComputeKind::Gemm, 1e14);
        let trace = b.build(TraceMeta {
            tokens_per_iteration: 1000,
            ..Default::default()
        });
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false; // pinned clocks for the analytic check
        let r = run_trace(&cluster, &trace, cfg);
        let expect = 1e14 / (1e15 * 0.55);
        assert!(
            (r.step_time_s - expect).abs() / expect < 0.05,
            "step {} vs expected {expect}",
            r.step_time_s
        );
        assert!(r.kernel_time[0].get(KernelClass::Gemm) > 0.0);
    }

    #[test]
    fn blocking_allreduce_synchronizes_stragglers() {
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(2);
        b.compute(0, ComputeKind::Gemm, 1e12); // fast rank
        b.compute(1, ComputeKind::Gemm, 5e13); // slow rank
        let id = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            1 << 20,
            vec![0, 1],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, id);
        b.blocking(1, id);
        let trace = b.build(TraceMeta {
            tokens_per_iteration: 1,
            ..Default::default()
        });
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false;
        let r = run_trace(&cluster, &trace, cfg);
        // The fast rank spends most of the step waiting in AllReduce.
        let fast_wait = r.kernel_time[0].get(KernelClass::AllReduce);
        let slow_wait = r.kernel_time[1].get(KernelClass::AllReduce);
        assert!(
            fast_wait > 10.0 * slow_wait.max(1e-6),
            "fast {fast_wait} slow {slow_wait}"
        );
    }

    #[test]
    fn unstarted_collective_deadlocks() {
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(2);
        let id = b.collective(
            CollKey {
                site: "p2p",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::SendRecv,
            1 << 20,
            vec![0, 1],
            ChunkingPolicy::Unchunked,
            true,
        );
        // Receiver waits but the sender never starts: rank 0 has no steps.
        b.wait(1, id);
        // Keep the trace structurally valid by having rank 0 send in a
        // LATER iteration than rank 1 expects... simplest: sender starts
        // after an impossible wait on a second collective.
        let id2 = b.collective(
            CollKey {
                site: "p2p2",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::SendRecv,
            1 << 20,
            vec![1, 0],
            ChunkingPolicy::Unchunked,
            true,
        );
        b.wait(0, id2); // rank 0 waits for rank 1...
        b.start(0, id);
        b.start(1, id2); // ...but rank 1 only sends after its own wait
                         // Reorder rank 1: wait(id) then start(id2) => classic cycle.
        let trace = b.build(TraceMeta::default());
        let placement = Placement::identity(&cluster, 2).unwrap();
        let res = Simulator::new(&cluster, &placement, &trace, SimConfig::fast())
            .unwrap()
            .run();
        assert!(matches!(res, Err(SimError::Deadlock { .. })), "{res:?}");
    }

    #[test]
    fn lowered_training_step_runs_end_to_end() {
        let cluster = one_node_cluster();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(16);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let r = run_trace(&cluster, &lowered.trace, SimConfig::fast());
        assert!(r.step_time_s > 0.0);
        assert!(r.tokens_per_s > 0.0);
        assert!(r.energy_per_step_j > 0.0);
        assert!(r.tokens_per_joule > 0.0);
        // TP AllReduce traffic must appear on NVLink.
        let nv: f64 = (0..8).map(|g| r.traffic.fabric(g)).sum();
        assert!(nv > 0.0, "expected NVLink traffic");
        // All ranks spent time in GEMMs.
        for rank in 0..8 {
            assert!(
                r.kernel_time[rank].get(KernelClass::Gemm) > 0.0,
                "rank {rank}"
            );
        }
        // Telemetry got sampled.
        assert!(r.telemetry.power(0).len() > 2);
        assert!(r.telemetry.mean_power_w() > 100.0);
    }

    #[test]
    fn pinned_clocks_run_faster_or_equal() {
        let cluster = one_node_cluster();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let with = run_trace(&cluster, &lowered.trace, SimConfig::fast());
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false;
        let without = run_trace(&cluster, &lowered.trace, cfg);
        assert!(without.step_time_s <= with.step_time_s * 1.02);
    }

    #[test]
    fn inter_node_config_slower_than_intra_node() {
        // Same 8-rank workload: one node vs spread over 8 nodes (1 GPU each
        // communicating over the 100G NIC).
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();

        let intra = one_node_cluster();
        let hints = DeviceHints::for_spec(intra.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false;
        let fast = run_trace(&intra, &lowered.trace, cfg);

        let spread = presets::single_gpu_per_node_cluster(8);
        let slow = run_trace(&spread, &lowered.trace, cfg);
        assert!(
            slow.step_time_s > 1.5 * fast.step_time_s,
            "inter-node {} vs intra-node {}",
            slow.step_time_s,
            fast.step_time_s
        );
    }

    #[test]
    fn placement_mismatch_rejected() {
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(4);
        b.compute(0, ComputeKind::Gemm, 1.0);
        let trace = b.build(TraceMeta::default());
        let placement = Placement::identity(&cluster, 2).unwrap();
        assert!(matches!(
            Simulator::new(&cluster, &placement, &trace, SimConfig::fast()),
            Err(SimError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn invalid_trace_rejected() {
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(2);
        let id = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            8,
            vec![0, 1],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, id); // rank 1 never arrives -> invalid
        let trace = b.build(TraceMeta::default());
        let placement = Placement::identity(&cluster, 2).unwrap();
        assert!(matches!(
            Simulator::new(&cluster, &placement, &trace, SimConfig::fast()),
            Err(SimError::InvalidTrace(_))
        ));
    }

    #[test]
    fn plans_are_cached_and_reused_across_iterations() {
        let cluster = one_node_cluster();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.iterations = 3;
        cfg.warmup_iterations = 1;
        let placement = Placement::identity(&cluster, 8).unwrap();
        let (_, stats) = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run_stats()
            .unwrap();
        assert!(stats.plan_builds > 0);
        assert!(
            stats.plan_builds <= lowered.trace.num_collectives() as u64,
            "at most one build per collective id: {} builds, {} ids",
            stats.plan_builds,
            lowered.trace.num_collectives()
        );
        // 3 iterations: every collective launched after the first launch of
        // its id hits the cache.
        assert_eq!(stats.plan_reuses, 2 * stats.plan_builds);
        assert!(stats.flows_launched > 0);
        assert!(stats.events > 0);
    }

    #[test]
    fn collective_state_is_pruned_after_last_wait() {
        let cluster = one_node_cluster();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 8, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let mut cfg = SimConfig::fast();
        cfg.iterations = 4;
        cfg.warmup_iterations = 1;
        let placement = Placement::identity(&cluster, 8).unwrap();
        let (_, stats) = Simulator::new(&cluster, &placement, &lowered.trace, cfg)
            .unwrap()
            .run_stats()
            .unwrap();
        let instances = 4 * lowered.trace.num_collectives() as u64;
        assert!(stats.colls_retired > 0, "{stats:?}");
        // Without pruning every one of the `iterations × collectives`
        // instances would stay live; with it the map tracks only the
        // in-flight iteration window.
        assert!(
            stats.peak_live_colls < instances / 2,
            "peak {} of {} instances",
            stats.peak_live_colls,
            instances
        );
        assert!(stats.wakes > 0);
    }

    #[test]
    fn waiters_wake_in_rank_order_matching_reference_scan() {
        // Three ranks block on an AllReduce whose last arriver is rank 0 in
        // a later pass (it computes first); the woken waiters must proceed
        // and the run must terminate — exercising both ready-queue paths
        // (w > current and w <= current).
        let cluster = one_node_cluster();
        let mut b = TraceBuilder::new(3);
        b.compute(0, ComputeKind::Gemm, 1e12);
        let id = b.collective(
            CollKey {
                site: "ar",
                mb: 0,
                layer: 0,
                aux: 0,
                group_lead: 0,
            },
            CollectiveKind::AllReduce,
            1 << 16,
            vec![0, 1, 2],
            ChunkingPolicy::nccl_default(),
            false,
        );
        b.blocking(0, id);
        b.blocking(1, id);
        b.blocking(2, id);
        let trace = b.build(TraceMeta {
            tokens_per_iteration: 1,
            ..Default::default()
        });
        let mut cfg = SimConfig::fast();
        cfg.thermal_feedback = false;
        let placement = Placement::identity(&cluster, 3).unwrap();
        let (r, stats) = Simulator::new(&cluster, &placement, &trace, cfg)
            .unwrap()
            .run_stats()
            .unwrap();
        assert!(r.step_time_s > 0.0);
        // Ranks 1 and 2 block first; rank 0 launches on arrival and then
        // blocks on its own wait, so all three are woken on completion.
        assert_eq!(stats.wakes, 3);
        assert_eq!(stats.colls_retired, 1);
    }
}
