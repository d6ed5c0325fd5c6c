//! The event-driven work-progress simulation engine.
//!
//! Semantically this engine is the scan-based [`crate::ReferenceSimulator`]
//! (the seed engine, kept as the executable spec); structurally it replaces
//! every per-event global recomputation with incremental state:
//!
//! - **Collective plan cache** — `lower_collective` is a pure function of
//!   `(CollectiveId, placement, cluster)`, so each collective is lowered
//!   once into a `CollPlan` of flows that carry endpoints, work and payload
//!   ratio. The run's route table resolves each distinct route once, keyed
//!   by its endpoints and switch-link multiplier, into hops and a *charge
//!   list* of `(gpu, LinkClass)` telemetry owners (replacing the per-event
//!   per-route ownership `match`); a plan from a cross-run [`SharedPlans`]
//!   set installs in place.
//! - **Incremental link loads** — `link_load` is updated on flow
//!   launch/retire instead of being rebuilt from all flows × routes in
//!   every `next_dt`; per-flow bottleneck rates are cached and re-rated
//!   only for new flows, flows on a link whose health changed, and flows
//!   whose bottleneck a link-load change may have moved.
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
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use charllm_hw::{Cluster, GpuId, LinkClass, LinkId};
use charllm_net::{lower_collective, LinkHealth};
use charllm_parallel::Placement;
use charllm_telemetry::metrics::{Gauge, MetricsShard};
use charllm_telemetry::{GpuSample, TelemetryStore};
use charllm_thermal::ThermalBank;
use charllm_trace::{ExecutionTrace, FloatTable, FoldedCollective, KernelClass, Step};

use crate::accrual::{self, PcieWindow};
use crate::arena::{FlowArena, MAX_ROUTE_LINKS};
use crate::calendar::{completion_key, Calendar};
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

/// One flow of a cached collective plan: its endpoints and its work. The
/// route it takes — hops, bandwidths, switch multipliers and charge list —
/// is a property of the cluster, not of the plan, and lives only in the
/// run's route table ([`InstalledPlans`]). So a plan shared through
/// [`SharedPlans`] or persisted on disk carries GPU ids and two numbers
/// per flow, nothing that indexes the cluster's link table.
#[derive(Debug, Clone, Copy)]
struct PlanFlow {
    /// Effective work in byte-equivalents (payload + overhead).
    work: f64,
    /// Payload bytes per unit of work.
    payload_ratio: f64,
    src: u32,
    dst: u32,
}

/// A collective lowered once: reused for every launch of its id.
#[derive(Debug)]
pub(crate) struct CollPlan {
    flows: Box<[PlanFlow]>,
}

/// A thread-safe set of collective plans shared across simulator runs.
///
/// Plans are pure functions of `(cluster, placement, trace)`: lowering a
/// collective fixes each flow's endpoints and effective work from topology
/// and rank→GPU assignment alone. A `SharedPlans` built for one such
/// triple can therefore seed any number of simulators replaying the same
/// triple — each run installs ready-made plans straight from the set
/// instead of re-lowering every collective (counted in
/// [`EngineStats::shared_plan_hits`]), and publishes the plans it does
/// build for later runs. Routes are not shared: each run resolves every
/// distinct route once into its own table.
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

    /// Whether every built flow joins two distinct GPUs of a cluster of
    /// `num_gpus` GPUs — what a plan set read from outside the process must
    /// satisfy before a simulator may route its flows.
    pub fn joins_gpus_within(&self, num_gpus: usize) -> bool {
        let within = |gpu: u32| (gpu as usize) < num_gpus;
        self.plans
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|plan| plan.flows.iter())
            .all(|f| f.src != f.dst && within(f.src) && within(f.dst))
    }

    /// The published plan for collective `ci`, if any.
    fn get(&self, ci: usize) -> Option<&CollPlan> {
        self.plans[ci].get()
    }

    /// Publish a freshly built plan; first writer wins, later ones no-op
    /// (every builder of the same slot produces identical bits).
    fn put(&self, ci: usize, plan: CollPlan) {
        let _ = self.plans[ci].set(plan);
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
/// whitespace/`;`-delimited numeric string of `work pr src dst` per flow
/// (`work` and `pr` as indices into a shared [`FloatTable`]) — instead of
/// the derived object-per-flow layout. A 32-GPU MoE plan set is tens of
/// thousands of flows; packing them into strings lets the JSON layer move
/// each plan as a single bulk string instead of building a `Value` node per
/// field, which is what makes a disk-tier load cheap enough to beat
/// re-lowering. The packed form is bit-exact. A reader checks each flow's
/// numbers; whether its GPUs exist is a question of the cluster, answered
/// by [`SharedPlans::joins_gpus_within`].
impl serde::Serialize for SharedPlans {
    fn write_json(&self, out: &mut String) {
        // Packing the flows fills the float table, which is written first.
        let mut floats = FloatTable::default();
        let built: Vec<(usize, String)> = self
            .plans
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.get()
                    .map(|plan| (i, pack_flows(&plan.flows, &mut floats)))
            })
            .collect();
        serde::ObjectWriter::new(out)
            .field("n", self.plans.len())
            .field("floats", floats.to_text())
            .field("built", built)
            .end();
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

/// Pack one plan's flows: `work pr src dst` per flow (`work`/`pr` as
/// [`FloatTable`] indices), flows joined with `;`.
fn pack_flows(flows: &[PlanFlow], floats: &mut FloatTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, f) in flows.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(
            out,
            "{} {} {} {}",
            floats.intern(f.work),
            floats.intern(f.payload_ratio),
            f.src,
            f.dst
        );
    }
    out
}

/// Unpack [`pack_flows`]' form, refusing any flow whose work is not finite
/// and positive or whose payload ratio is not finite (a built plan drops
/// flows without work, so none can be persisted).
fn unpack_flows(text: &str, floats: &[f64]) -> Result<Vec<PlanFlow>, serde::Error> {
    let token = |tok: Option<&str>| -> Result<u32, serde::Error> {
        let tok = tok.ok_or_else(|| serde::Error::custom("truncated packed flow"))?;
        tok.parse()
            .map_err(|_| serde::Error::custom(format!("bad packed-flow token {tok:?}")))
    };
    let float = |tok: Option<&str>| -> Result<f64, serde::Error> {
        let i = token(tok)?;
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
        let flow = PlanFlow {
            work: float(t.next())?,
            payload_ratio: float(t.next())?,
            src: token(t.next())?,
            dst: token(t.next())?,
        };
        if t.next().is_some() {
            return Err(serde::Error::custom("trailing tokens in packed flow"));
        }
        if !(flow.work.is_finite() && flow.work > 0.0 && flow.payload_ratio.is_finite()) {
            return Err(serde::Error::custom(format!(
                "packed flow with work {} and payload ratio {}",
                flow.work, flow.payload_ratio
            )));
        }
        flows.push(flow);
    }
    Ok(flows)
}

/// One hop of an installed route: the link index, its fair-share bandwidth
/// numerator (`bw_gbps * 1e9`, premultiplied so the rate loop divides the
/// exact product the reference engine computes) and the folded load
/// multiplier.
///
/// The multiplier is always 1 in an unfolded run. A symmetry-folded run
/// simulates one replica's intra-replica flows and stands them in for all
/// `D` replicas' load on *shared* (switch-tier) links by attaching and
/// detaching `D` load units there; replica-private links (NVLink, PCIe,
/// NIC) keep 1.
#[derive(Debug, Clone, Copy)]
struct RouteHop {
    link: u32,
    mult: u16,
    bw1e9: f64,
}

/// One telemetry/traffic charge of an installed route: the owning GPU and
/// the link class its payload is booked under.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ChargeItem {
    gpu: u32,
    class: LinkClass,
}

/// Where one stored route's hops and charges sit in
/// [`InstalledPlans::hops`] and [`InstalledPlans::charges`].
#[derive(Debug, Clone, Copy)]
struct RouteSpan {
    hop_start: u32,
    charge_start: u32,
    hop_len: u8,
    charge_len: u8,
    /// Whether a charge is a PCIe one: only such routes touch the
    /// [`PcieWindow`].
    pcie: bool,
}

impl RouteSpan {
    fn hops(self) -> std::ops::Range<usize> {
        self.hop_start as usize..self.hop_start as usize + usize::from(self.hop_len)
    }

    fn charges(self) -> std::ops::Range<usize> {
        self.charge_start as usize..self.charge_start as usize + usize::from(self.charge_len)
    }
}

/// One flow of an *installed* collective plan: the form the hot loops
/// read. A [`PlanFlow`] plus the [`RouteSpan`] of its route in the run's
/// hop and charge columns, so launching a flow is a few index writes and
/// the per-event rate loop walks one contiguous hop slice.
#[derive(Debug, Clone, Copy)]
struct PlanFlowRef {
    flow: PlanFlow,
    route: RouteSpan,
}

/// An installed plan: a contiguous run of [`PlanFlowRef`]s in
/// [`InstalledPlans::flows`] (plans are installed append-only, once per
/// collective id per run).
#[derive(Debug, Clone, Copy)]
struct PlanRange {
    start: u32,
    len: u32,
}

/// Every plan installed in one run, and the run's route table: the one
/// place that holds hops, bandwidths, multipliers and charge lists.
///
/// A route is a pure function of its endpoints on the cluster and the
/// multiplier laid on its switch-tier links, so it is resolved
/// (`cluster.route_into` plus the link-ownership match) on the first
/// sight of its `(src, dst, multiplier)` key and shared by every later
/// flow with that key. A route with no switch hop is the same at every
/// multiplier and is stored once, under multiplier 1.
#[derive(Debug, Default)]
struct InstalledPlans {
    /// Installed plan flows, append-only ([`PlanRange`]s index into it).
    flows: Vec<PlanFlowRef>,
    /// Route table: `(src, dst, switch multiplier)` → stored span.
    routes: HashMap<(u32, u32, u16), RouteSpan>,
    /// Route hops of every distinct route, in resolution order.
    hops: Vec<RouteHop>,
    /// Charge lists of every distinct route, in resolution order.
    charges: Vec<ChargeItem>,
    /// Scratch buffer for `cluster.route_into`.
    links: Vec<LinkId>,
}

impl InstalledPlans {
    /// Append `plan`'s flows, whose switch-tier links carry `switch_mult`.
    fn install(&mut self, cluster: &Cluster, plan: &CollPlan, switch_mult: u16) -> PlanRange {
        let start = self.flows.len() as u32;
        for pf in plan.flows.iter() {
            let route = self.route(cluster, pf.src, pf.dst, switch_mult);
            self.flows.push(PlanFlowRef { flow: *pf, route });
        }
        PlanRange {
            start,
            len: plan.flows.len() as u32,
        }
    }

    /// The span of the route from `src` to `dst` with `switch_mult` on its
    /// switch-tier links, resolved and stored on the first sight of its key.
    fn route(&mut self, cluster: &Cluster, src: u32, dst: u32, switch_mult: u16) -> RouteSpan {
        if let Some(&span) = self.routes.get(&(src, dst, switch_mult)) {
            return span;
        }
        let links = &mut self.links;
        cluster
            .route_into(GpuId(src), GpuId(dst), links)
            .expect("plan flows join GPUs of the cluster");
        // `FlowArena::link_pos` keeps one membership position per hop.
        assert!(
            links.len() <= MAX_ROUTE_LINKS,
            "route exceeds MAX_ROUTE_LINKS; bump FlowArena's link_pos capacity"
        );
        let switched = links
            .iter()
            .any(|&id| cluster.link(id).class == LinkClass::Switch);
        let mult = if switched { switch_mult } else { 1 };
        let span = match self.routes.get(&(src, dst, mult)) {
            Some(&span) => span,
            None => {
                let span = self.store(cluster, GpuId(src), GpuId(dst), mult);
                self.routes.insert((src, dst, mult), span);
                span
            }
        };
        self.routes.insert((src, dst, switch_mult), span);
        span
    }

    /// Append the hops and charges of the route in `self.links`.
    fn store(&mut self, cluster: &Cluster, src: GpuId, dst: GpuId, mult: u16) -> RouteSpan {
        let offset = |len: usize| u32::try_from(len).expect("route columns exceed u32");
        let (hop_start, charge_start) = (self.hops.len(), self.charges.len());
        for &id in &self.links {
            let link = cluster.link(id);
            self.hops.push(RouteHop {
                link: id.index() as u32,
                mult: if link.class == LinkClass::Switch {
                    mult
                } else {
                    1
                },
                bw1e9: link.bw_gbps * 1e9,
            });
            // The (gpu, class) pairs that own this link for telemetry and
            // traffic charging, in the order the reference engine's
            // per-event ownership match visits them.
            for gpu in [src, dst] {
                let owns = match link.class {
                    LinkClass::Pcie => cluster.pcie(gpu) == id,
                    LinkClass::NvLink | LinkClass::XgmiPort => cluster.fabric_port(gpu) == id,
                    // Package bus: charge both endpoints.
                    LinkClass::XgmiPackage => cluster.same_package(src, dst),
                    // In-network resources (NIC, switch tiers) belong to no
                    // GPU's telemetry counters.
                    LinkClass::Nic | LinkClass::Switch => false,
                };
                if owns {
                    self.charges.push(ChargeItem {
                        gpu: gpu.index() as u32,
                        class: link.class,
                    });
                }
            }
        }
        RouteSpan {
            hop_start: offset(hop_start),
            charge_start: offset(charge_start),
            hop_len: (self.hops.len() - hop_start) as u8,
            charge_len: (self.charges.len() - charge_start) as u8,
            pcie: self.charges[charge_start..]
                .iter()
                .any(|c| c.class == LinkClass::Pcie),
        }
    }
}

/// One hop's fair share: `health × bw / load`, with an unloaded link
/// counted as carrying one flow. The one expression both the rate and the
/// dirty-link pass's skip test evaluate, so their comparisons are exact.
#[inline]
fn fair_share(scale: f64, bw1e9: f64, load: u32) -> f64 {
    scale * bw1e9 / load.max(1) as f64
}

/// The bottleneck fair-share rate of the flow in `slot`: the min over its
/// route hops of `health × bw / load`.
#[inline]
fn flow_rate(
    slot: usize,
    pf_of: &[u32],
    plans: &InstalledPlans,
    link_load: &[u32],
    link_health: &LinkHealth,
) -> f64 {
    let pf = plans.flows[pf_of[slot] as usize];
    let mut rate = f64::INFINITY;
    for hop in &plans.hops[pf.route.hops()] {
        let link = hop.link as usize;
        rate = rate.min(fair_share(
            link_health.scale(link),
            hop.bw1e9,
            link_load[link],
        ));
    }
    rate
}

/// Why a link is on the dirty-link queue, recorded when it is first
/// dirtied after a `next_dt` pass.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkMark {
    /// Not queued.
    Clean,
    /// Queued by load changes; holds the load the last pass saw.
    Load(u32),
    /// Queued by a health change: every flow on the link re-rates.
    Forced,
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
    /// Keys set on the completion calendar (re-keys included; the
    /// re-push of taken entries is not counted). This and the next
    /// counter keep their `heap_` names from the binary heap the calendar
    /// replaced; they count calendar entries, one per owner at most.
    pub heap_pushes: u64,
    /// Calendar entries taken and evaluated by `next_dt`.
    pub heap_pops: u64,
    /// Collective launches served from a cross-run shared plan set
    /// (zero unless the simulator was built with [`SharedPlans`]).
    pub shared_plan_hits: u64,
    /// Calendar-wheel rebuilds, whether periodic (every 8192 events) or
    /// drift-forced (the current time passed half the wheel horizon). The
    /// wheel built at construction is not counted.
    pub cal_rekeys: u64,
    /// Calendar buckets visited by `next_dt`, the overflow bucket past the
    /// wheel horizon included. A visit takes only the bucket's entries keyed
    /// within the drain bound, so `heap_pops / cal_bucket_drains` is the
    /// mean number of candidates per visited bucket.
    pub cal_bucket_drains: u64,
    /// Run-wide high-water mark of the overflow bucket — entries whose
    /// conservative completion key lay beyond the wheel horizon when
    /// pushed. A large peak relative to `peak_live` means the bucket width
    /// (the event-spacing EWMA at each rebuild) is too narrow for the
    /// workload's completion-time spread.
    pub cal_overflow_peak: u64,
    /// Flow-arena slots reused from the free list (launches minus arena
    /// growth): how often the steady-state launch path ran allocation-free.
    /// Copied from the arena with the calendar's counters, at control ticks
    /// and at run end.
    pub arena_slot_reuses: u64,
    /// Calendar entries removed at a retire site (flow retirement or
    /// compute completion) — the one path by which a completing owner's
    /// entry leaves the calendar.
    pub cal_exact_removals: u64,
    /// Flow rates recomputed from link loads: new flows, flows on a link
    /// whose health changed or whose bottleneck a load change may have
    /// moved, and every live flow at a calendar rebuild.
    pub flow_rerates: u64,
    /// Of [`Self::flow_rerates`], the ones whose rate bits changed (a new
    /// flow's first rate included).
    pub flow_rate_changes: u64,
}

impl EngineStats {
    /// Every counter with its field name, each listed once: the table the
    /// metrics export is derived from (one `sim_<name>` gauge per entry).
    pub fn fields(&self) -> [(&'static str, u64); 18] {
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
            ("shared_plan_hits", self.shared_plan_hits),
            ("cal_rekeys", self.cal_rekeys),
            ("cal_bucket_drains", self.cal_bucket_drains),
            ("cal_overflow_peak", self.cal_overflow_peak),
            ("arena_slot_reuses", self.arena_slot_reuses),
            ("cal_exact_removals", self.cal_exact_removals),
            ("flow_rerates", self.flow_rerates),
            ("flow_rate_changes", self.flow_rate_changes),
        ]
    }
}

/// Engine-side configuration of a symmetry-folded run, prepared by
/// [`crate::fold`]: which ranks/nodes stay live, the switch-tier load
/// multiplier for intra-replica plans, and the full rank groups of the
/// trimmed cross-replica collectives.
#[derive(Debug)]
pub(crate) struct FoldSetup<'a> {
    /// Replica count: switch-link load multiplier for intra-replica plans.
    pub(crate) switch_mult: u16,
    /// Representative ranks (ascending).
    pub(crate) active_ranks: Vec<u32>,
    /// Nodes hosting representative ranks (ascending).
    pub(crate) active_nodes: Vec<u32>,
    /// The trimmed cross-replica collectives, by ascending id (see
    /// [`build_plan`]).
    pub(crate) full_groups: &'a [FoldedCollective],
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
    /// The flow arena: structure-of-arrays per-flow state in stable slots
    /// recycled through a free list.
    fa: FlowArena,
    /// Live flow slots in the reference engine's dense iteration order:
    /// launches append, retirement `swap_remove`s — reproducing the exact
    /// advance-loop visit sequence the old dense `Vec` had, over stable
    /// slots that never move.
    flow_order: Vec<u32>,
    /// Installed plan flows and the routes they share.
    installed: InstalledPlans,
    /// Number of active flows touching each GPU (as src or dst).
    gpu_flow_count: Vec<u32>,
    /// Flow load per link, maintained incrementally on launch/retire.
    link_load: Vec<u32>,
    /// Number of the current `next_dt` pass, advanced once at its top. A
    /// flow whose `FlowArena::rated_pass` equals it was re-rated earlier in
    /// this pass, so the dirty-link loop does not re-rate it again. A flow
    /// keeps its rate bits without a re-rate when no link on its route
    /// changed, or when every changed link was not its bottleneck before
    /// the change and is not after it (see [`Self::next_dt`]); new flows
    /// and flows on a link whose health changed always re-rate.
    rerate_pass: u64,
    /// Links whose load or health changed since the last `next_dt`
    /// (deduplicated via `link_mark`); their flows are checked, and those
    /// whose bottleneck may have moved are re-rated and re-keyed in batch.
    dirty_links: Vec<u32>,
    /// Per link: whether it is queued, and the load the last pass saw.
    link_mark: Vec<LinkMark>,
    /// Exact membership: flow slots currently routed through each link, as
    /// `(slot, route index)`; kept O(route length) per update via the
    /// `FlowArena::link_pos` back-pointers.
    link_flows: Vec<Vec<(u32, u8)>>,

    /// The completion calendar: conservative predicted completion times
    /// for computes (owner = rank) and flows (owner = `world + slot`),
    /// drained under a bound in `next_dt`.
    cal: Calendar,
    /// Computing ranks whose rate inputs changed (deduplicated via
    /// `rank_dirty`); re-keyed in batch by `next_dt`.
    dirty_ranks: Vec<u32>,
    rank_dirty: Vec<bool>,
    /// Ranks placed on each GPU: compute rates depend on the GPU's flow
    /// presence, so 0↔nonzero `gpu_flow_count` transitions dirty these.
    ranks_of_gpu: Vec<Vec<u32>>,

    /// One installed plan per `CollectiveId`, interned lazily at first
    /// launch.
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
    /// Number of ranks in `Computing` mode.
    computing: usize,
    /// Scratch: ranks whose compute completed this event, processed in
    /// ascending rank order to preserve the world-scan completion order.
    completed_scratch: Vec<u32>,
    /// The computing ranks and flow slots whose completion `advance` tests
    /// this event: the owners of the calendar entries `next_dt` took.
    /// Filled by `next_dt`, consumed by `advance`.
    cand_ranks: Vec<u32>,
    cand_flows: Vec<u32>,
    /// Scratch: candidate flows completing this event.
    retiring: Vec<u32>,
    finished_ranks: usize,

    /// Every GPU's temperature, power, energy and governor state.
    bank: ThermalBank,
    freq_ratio: Vec<f64>,
    /// Each GPU's airflow inlet temperature (before any runaway offset),
    /// computed from its node's GPU powers when they last changed.
    inlet_c: Vec<f64>,
    /// Per `active_nodes` entry: whether a GPU's power changed bits since
    /// the node's `inlet_c` was computed.
    inlet_stale: Vec<bool>,
    /// Scratch: one node's GPU powers in slot order, refilled per node
    /// whose inlets are recomputed.
    node_powers: Vec<f64>,
    /// Cached `cluster.gpu().peak_fp16_flops`, read per computing rank per
    /// event in `compute_rate`.
    peak_flops: f64,

    /// Time-weighted activity accumulation since the last control boundary.
    activity_acc: Vec<f64>,
    util_acc: Vec<f64>,
    pcie: PcieWindow,

    /// Time each rank's progress and accounting were last brought current
    /// (segment start for lazy accrual; see `crate::accrual`). A computing
    /// rank's `remaining_flops` is its work left at this instant.
    rank_acc_since: Vec<f64>,
    /// Whether each rank participates in accounting (`active_ranks` as a
    /// bitmap: every rank unfolded, representatives only when folded).
    rank_active: Vec<bool>,
    /// During a fail-stop outage the clock advances with no rank or flow
    /// progress: control ticks skip the rank flush, samples take their
    /// PCIe windows without accruing them, and `rebase_accruals` restarts
    /// every segment and window past the outage when it ends.
    accrual_frozen: bool,

    kernel_time: Vec<KernelBreakdown>,
    traffic: TrafficMatrix,
    occ_acc: Vec<(f64, f64, f64)>,
    telemetry: TelemetryStore,

    /// Switch-tier load multiplier applied to intra-replica plans
    /// (1 unfolded; the replica count in a symmetry-folded run).
    fold_switch_mult: u16,
    /// Trimmed cross-replica collectives of a folded run, whose plans lay
    /// their full rings (empty unfolded).
    fold_full_groups: &'a [FoldedCollective],
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
    /// Returns [`SimError::InvalidConfig`], [`SimError::InvalidTrace`] or
    /// [`SimError::PlacementMismatch`].
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
    /// Returns [`SimError::InvalidConfig`], [`SimError::InvalidTrace`] or
    /// [`SimError::PlacementMismatch`].
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
        fold: Option<FoldSetup<'a>>,
    ) -> Result<Self, SimError> {
        cfg.check(cluster)?;
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

        let (fold_switch_mult, active_ranks, active_nodes, fold_full_groups) = match fold {
            Some(f) => (f.switch_mult, f.active_ranks, f.active_nodes, f.full_groups),
            None => (
                1,
                (0..trace.world() as u32).collect(),
                (0..cluster.num_nodes() as u32).collect(),
                &[][..],
            ),
        };
        debug_assert!(
            fold_full_groups.windows(2).all(|w| w[0].id.0 < w[1].id.0),
            "full groups must be sorted by collective id"
        );
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

        // Nodes a folded run never steps are not prewarmed: their 400-step
        // settles would dominate construction at 16k GPUs.
        let bank = cfg.thermal_bank(cluster, |node| node_active[node.index()]);
        let freq_ratio = (0..num_gpus).map(|g| bank.freq_ratio(g)).collect();

        let mut rank_active = vec![false; ranks.len()];
        for &r in &active_ranks {
            rank_active[r as usize] = true;
        }

        Ok(Simulator {
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
            installed: InstalledPlans::default(),
            gpu_flow_count: vec![0; num_gpus],
            link_load: vec![0; cluster.num_links()],
            rerate_pass: 0,
            dirty_links: Vec::new(),
            link_mark: vec![LinkMark::Clean; cluster.num_links()],
            link_flows: vec![Vec::new(); cluster.num_links()],
            // Event-spacing seed: the first bucket width, and the EWMA's
            // starting point for later rebuilds.
            cal: Calendar::new(trace.world(), cfg.control_period_s / 256.0),
            dirty_ranks: Vec::new(),
            rank_dirty: vec![false; trace.world()],
            ranks_of_gpu,
            plan_cache: (0..num_colls).map(|_| None).collect(),
            shared_plans: None,
            coll_class,
            coll_eager,
            coll_group_len,
            wait_count: trace.wait_counts(),
            ready_now: BinaryHeap::new(),
            ready_next: Vec::new(),
            computing: 0,
            completed_scratch: Vec::new(),
            cand_ranks: Vec::new(),
            cand_flows: Vec::new(),
            retiring: Vec::new(),
            finished_ranks: 0,
            bank,
            freq_ratio,
            inlet_c: vec![0.0; num_gpus],
            inlet_stale: vec![true; active_nodes.len()],
            node_powers: Vec::new(),
            peak_flops: cluster.gpu().peak_fp16_flops,
            activity_acc: vec![0.0; num_gpus],
            util_acc: vec![0.0; num_gpus],
            pcie: PcieWindow::new(num_gpus),
            rank_acc_since: vec![0.0; trace.world()],
            rank_active,
            accrual_frozen: false,
            kernel_time: vec![KernelBreakdown::default(); trace.world()],
            traffic: TrafficMatrix::new(num_gpus),
            occ_acc: vec![(0.0, 0.0, 0.0); num_gpus],
            telemetry: TelemetryStore::new(num_gpus),
            fold_switch_mult,
            fold_full_groups,
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
        })
    }

    /// The ranks collective `coll` lays its flows over and the load
    /// multiplier on its switch-tier links. In a folded run, a collective
    /// listed in `fold_full_groups` (a cross-replica ring trimmed to its
    /// representatives) lays its full original ring at multiplier 1 — it
    /// exists once in the unfolded run too. Every other collective lays
    /// its trace group at `fold_switch_mult`.
    fn coll_layout(&self, coll: u32) -> (&'a [usize], u16) {
        match self
            .fold_full_groups
            .binary_search_by_key(&coll, |fc| fc.id.0)
        {
            Ok(i) => (&self.fold_full_groups[i].full_group, 1),
            Err(_) => (
                &self
                    .trace
                    .collective(charllm_trace::task::CollectiveId(coll))
                    .group,
                self.fold_switch_mult,
            ),
        }
    }

    /// Install collective `ci`'s plan and record its range in the plan
    /// cache. A plan published in the shared set installs in place; one
    /// built here is installed first and then moved into the set.
    fn install_plan(&mut self, ci: usize, coll: u32) -> PlanRange {
        let (group, switch_mult) = self.coll_layout(coll);
        let shared = self.shared_plans.as_deref();
        let range = if let Some(plan) = shared.and_then(|s| s.get(ci)) {
            self.stats.shared_plan_hits += 1;
            self.installed.install(self.cluster, plan, switch_mult)
        } else {
            let plan = build_plan(
                self.cluster,
                self.trace,
                &self.ranks,
                &mut self.installed,
                coll,
                group,
                switch_mult,
            );
            self.stats.plan_builds += 1;
            let range = self.installed.install(self.cluster, &plan, switch_mult);
            if let Some(shared) = shared {
                shared.put(ci, plan);
            }
            range
        };
        self.plan_cache[ci] = Some(range);
        range
    }

    /// Attach a cross-run [`SharedPlans`] set: collective plans already
    /// published there are installed instead of rebuilt (counted in
    /// [`EngineStats::shared_plan_hits`]), and plans this run builds are
    /// published back. The set must come from the same
    /// `(cluster, placement, trace)` triple as this simulator; results are
    /// byte-identical with or without it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PlanSetMismatch`] when the set was sized for a
    /// different trace, and [`SimError::ForeignPlanSet`] when a built flow
    /// does not join two distinct GPUs of the cluster (a set deserialized
    /// from outside the process can name any GPU).
    pub fn with_shared_plans(mut self, plans: Arc<SharedPlans>) -> Result<Self, SimError> {
        if plans.num_collectives() != self.plan_cache.len() {
            return Err(SimError::PlanSetMismatch {
                trace_collectives: self.plan_cache.len(),
                shared_collectives: plans.num_collectives(),
            });
        }
        let num_gpus = self.cluster.num_gpus();
        if !plans.joins_gpus_within(num_gpus) {
            return Err(SimError::ForeignPlanSet { num_gpus });
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
    /// without it (a run without a shard costs one pointer check per
    /// control tick).
    pub fn with_metrics(mut self, shard: &MetricsShard) -> Self {
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
                self.mark_link_health(link as usize);
            }
            FaultAction::LinkUp { link } => {
                self.link_health.restore(link as usize);
                self.mark_link_health(link as usize);
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
        // Close every open segment and PCIe window at the outage start,
        // then freeze: ranks and flows hold their work during the stall, so
        // a lazy segment spanning it would progress work and charge kernel
        // time and PCIe bytes that never ran. Frozen control ticks skip the
        // rank flush (the thermal steps below still read the synthetic redo
        // activity) and take their PCIe windows without accruing them, and
        // `rebase_accruals` restarts every segment and window at the outage
        // end.
        self.flush_ranks(start);
        for oi in 0..self.flow_order.len() {
            let slot = self.flow_order[oi] as usize;
            accrual::bank_flow_segment(
                self.fa.rate[slot],
                start,
                &mut self.fa.acc_since[slot],
                &mut self.fa.remaining[slot],
            );
        }
        self.pcie.accrue_all(start);
        self.accrual_frozen = true;
        let energy_before = self.bank.total_energy_j();
        // Once every GPU has settled at its idle fixed point, the idle
        // phase's ticks keep it there: nothing else moves until the redo,
        // so the latch spares each tick the check.
        let mut settled = false;
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
                let idle = redo_overlap == 0.0 && (settled || self.gpus_idle_settled());
                if idle && !settled {
                    // The inlets cannot move while the powers hold: bring
                    // them current once for the idle ticks.
                    for ni in 0..self.active_nodes.len() {
                        self.refresh_inlets(ni);
                    }
                }
                settled = idle;
                if settled {
                    self.idle_control_update();
                } else {
                    self.control_update();
                }
                self.next_control += self.cfg.control_period_s;
            }
        }
        self.accrual_frozen = false;
        self.rebase_accruals(self.t);
        rt.energy_wasted_j += self.bank.total_energy_j() - energy_before;
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
            self.cal.note_event(dt);

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

    /// Bring the calendar's and the flow arena's counters in `stats`
    /// current, then push the engine counters and live quantities into the
    /// attached metrics shard (no-op without one). Called at control
    /// boundaries and once at run end; never on the per-event path.
    fn publish_metrics(&mut self) {
        self.cal.publish(&mut self.stats);
        self.stats.arena_slot_reuses = self.fa.slot_reuses();
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
        m.live_computing.set(self.computing as f64);
        m.cal_overflow_len.set(self.cal.overflow_len() as f64);
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
                    self.computing += 1;
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
        } else {
            self.install_plan(ci, coll)
        };

        let active = range.len;
        self.stats.flows_launched += u64::from(active);
        for pfi in range.start..range.start + range.len {
            self.launch_flow(pfi, coll, iter);
        }

        let slot = &mut self.colls[ci][(iter & 1) as usize];
        debug_assert!(slot.live && slot.iter == iter, "just inserted");
        slot.state.flows_remaining = active;
        if active == 0 {
            self.complete_coll(key, Some(rank), self.t);
        }
    }

    /// Launch installed plan flow `pfi` of instance `(iter, coll)` into an
    /// arena slot, loading its route's links; returns the slot. The
    /// flow is unrated (rate 0) until the next `next_dt` pass.
    fn launch_flow(&mut self, pfi: u32, coll: u32, iter: u32) -> usize {
        let PlanFlowRef { flow, route } = self.installed.flows[pfi as usize];
        let slot = self.fa.alloc() as usize;
        self.obs
            .flow_launch(slot as u32, coll, iter, flow.src, flow.dst, self.t);
        // A GPU's flow count crossing 0 → 1 changes its ranks'
        // accounting coefficients: close their segments *before* the
        // increment so the closed span carries the flows-absent rates.
        for gpu in [flow.src as usize, flow.dst as usize] {
            if self.gpu_flow_count[gpu] == 0 {
                self.flush_gpu_ranks(gpu, self.t);
            }
            self.gpu_flow_count[gpu] += 1;
            if self.gpu_flow_count[gpu] == 1 {
                self.mark_gpu_ranks_dirty(gpu);
            }
        }
        for (l, hi) in route.hops().enumerate() {
            let hop = self.installed.hops[hi];
            let id = hop.link as usize;
            self.mark_link_dirty(id);
            self.link_load[id] += u32::from(hop.mult);
            self.fa.link_pos[slot][l] = self.link_flows[id].len() as u32;
            self.link_flows[id].push((slot as u32, l as u8));
        }
        self.fa.remaining[slot] = flow.work;
        self.fa.rate[slot] = 0.0;
        self.fa.acc_since[slot] = self.t;
        self.fa.coll[slot] = coll;
        self.fa.iteration[slot] = iter;
        self.fa.pf[slot] = pfi;
        self.fa.order_pos[slot] = self.flow_order.len() as u32;
        self.flow_order.push(slot as u32);
        slot
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

    /// Move the flow in `slot`'s contribution to its PCIe owners' payload
    /// rates from rate `old` to rate `new` (route-work units/s) at `now`.
    fn shift_pcie(&mut self, slot: usize, now: f64, old: f64, new: f64) {
        let pf = self.installed.flows[self.fa.pf[slot] as usize];
        if !pf.route.pcie {
            return;
        }
        let ratio = pf.flow.payload_ratio;
        let (old, new) = (
            PcieWindow::contribution(old, ratio),
            PcieWindow::contribution(new, ratio),
        );
        for charge in &self.installed.charges[pf.route.charges()] {
            if charge.class == LinkClass::Pcie {
                self.pcie.shift(charge.gpu as usize, now, old, new);
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

    /// Restart every segment and PCIe window at `now` without accruing
    /// anything — used at the end of a fail-stop outage, whose span must
    /// contribute no progress and no rank, flow, PCIe or idle accounting
    /// (the stall loop injects recovery activity itself).
    fn rebase_accruals(&mut self, now: f64) {
        for ri in 0..self.active_ranks.len() {
            self.rank_acc_since[self.active_ranks[ri] as usize] = now;
        }
        for oi in 0..self.flow_order.len() {
            self.fa.acc_since[self.flow_order[oi] as usize] = now;
        }
        self.pcie.rebase(now);
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

    /// Queue a link whose load is about to change, recording the load the
    /// last pass saw; call it *before* the update.
    fn mark_link_dirty(&mut self, link: usize) {
        if self.link_mark[link] == LinkMark::Clean {
            self.link_mark[link] = LinkMark::Load(self.link_load[link]);
            self.dirty_links.push(link as u32);
        }
    }

    /// Queue a link whose health changed: the next pass re-rates every
    /// flow on it.
    fn mark_link_health(&mut self, link: usize) {
        if self.link_mark[link] == LinkMark::Clean {
            self.dirty_links.push(link as u32);
        }
        self.link_mark[link] = LinkMark::Forced;
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

    /// Key a computing rank's completion on the calendar, if the fresh
    /// prediction undercuts its stored key (same lower-bound reasoning as
    /// [`Self::rekey_flow`]).
    fn push_compute_key(&mut self, rank: usize) {
        if let Some((left, rate)) = self.compute_left(rank, 0.0) {
            self.cal.lower(rank, completion_key(self.t, left, rate));
        }
    }

    /// Recompute the flow's bottleneck rate from current link loads, stamp
    /// it with the current `rerate_pass`, and lower its calendar key to the
    /// fresh prediction.
    ///
    /// Calendar keys only need to stay *lower bounds* on true completion
    /// times. A rate decrease (the launch-storm common case) moves the
    /// completion later, so the stored key is still a valid — merely loose
    /// — lower bound and no calendar traffic happens at all; loose keys
    /// are re-tightened when a drain takes them. Only a fresher, *earlier*
    /// prediction (a rate increase) replaces the entry.
    fn rekey_flow(&mut self, slot: usize) {
        let rate = flow_rate(
            slot,
            &self.fa.pf,
            &self.installed,
            &self.link_load,
            &self.link_health,
        );
        self.stats.flow_rerates += 1;
        if rate.to_bits() != self.fa.rate[slot].to_bits() {
            self.stats.flow_rate_changes += 1;
            let old = self.fa.rate[slot];
            accrual::bank_flow_segment(
                old,
                self.t,
                &mut self.fa.acc_since[slot],
                &mut self.fa.remaining[slot],
            );
            self.shift_pcie(slot, self.t, old, rate);
            self.fa.rate[slot] = rate;
        }
        self.fa.rated_pass[slot] = self.rerate_pass;
        let key = completion_key(self.t, self.flow_left(slot, 0.0), rate);
        self.cal.lower(self.ranks.len() + slot, key);
    }

    /// Rebuild the completion calendar from live state: re-base it at the
    /// current time, then refresh every flow rate and key every flow and
    /// computing rank afresh (only active ranks carry steps, so only they
    /// can be computing).
    fn rekey_all(&mut self) {
        self.cal.rebuild(self.t);
        for oi in 0..self.flow_order.len() {
            self.rekey_flow(self.flow_order[oi] as usize);
        }
        for ri in 0..self.active_ranks.len() {
            self.push_compute_key(self.active_ranks[ri] as usize);
        }
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
    /// matter: it takes completion-calendar entries whose conservative key
    /// can still undercut the running `dt` (plus a drift margin), evaluates
    /// each taken entry's exact candidate from current state, and re-pushes
    /// it; entries keyed past the bound stay where they are (see
    /// [`Calendar::drain`]). Keys are lower bounds on true completion
    /// times (rates only *decrease* between re-keys: every rate increase —
    /// a link load dropping, a GPU's overlap penalty clearing, a frequency
    /// step — dirties and re-keys its entries first), so no candidate that could
    /// lower `dt` is ever missed; spurious pops are harmless because the
    /// candidate itself is always recomputed exactly.
    ///
    /// The taken entities are this event's candidates: `advance` tests
    /// only them for completion. A key bounds the instant an entity's work
    /// reaches the 1-unit completion threshold (see [`completion_key`]),
    /// not the instant it reaches zero, so every entity that completes
    /// within `dt` — floored at 1e-9 s, inside the drain — lies under the
    /// drain bound.
    ///
    /// Rates are refreshed (and entries re-keyed) in batch for the flows
    /// whose bottleneck may have moved, found through the dirty-link
    /// lists; `advance` then reuses the cached rates, matching the
    /// reference engine where both methods read the same `link_load`. A
    /// flow's rate is the min over its hops of `scale · bw / load`. When a
    /// dirty link's load went from `old` (the load the last pass saw) to
    /// `new`, a flow on it whose cached rate is strictly below the link's
    /// `old` term and not above its `new` term keeps its rate bit for bit:
    /// the link was not its bottleneck and still is not, so the min is
    /// attained on a hop whose term did not move. Such a flow is skipped
    /// without a stamp, so its other dirty links still check it. Two cases
    /// always re-rate: a new flow (rate 0), and every flow on a link whose
    /// health a fault changed. Flows on untouched links keep their cached
    /// rate — the recompute would divide the same bandwidths by the same
    /// loads. In debug builds `debug_check_dt` re-derives `dt` with the
    /// reference's full scan, checks every cached rate against a fresh one
    /// and asserts bit-equality.
    fn next_dt(&mut self) -> Option<f64> {
        debug_assert!(self.cand_ranks.is_empty() && self.cand_flows.is_empty());
        if self.computing == 0 && self.flow_order.is_empty() {
            return None;
        }
        let live = self.flow_order.len() + self.computing;
        self.stats.peak_live = self.stats.peak_live.max(live as u64);
        self.rerate_pass += 1;
        if self.cal.rebuild_due(self.t) {
            self.rekey_all();
        }

        // Re-rate + re-key flows whose bottleneck a dirty link may have
        // moved: dirty links in order, then the flows on each link.
        // `rekey_flow` stamps the pass, so a flow on several dirty links,
        // or re-keyed by a rebuild above, is re-rated once. A flow this
        // link lets keep its rate is not stamped: its other dirty links
        // still check it.
        let mut dirty = std::mem::take(&mut self.dirty_links);
        for &link in &dirty {
            let link = link as usize;
            let mark = std::mem::replace(&mut self.link_mark[link], LinkMark::Clean);
            // The link's fair-share term before and after its load change.
            // Every hop over a link carries that link's bandwidth, so the
            // term is per link, not per flow.
            let (was, now) = match mark {
                LinkMark::Load(old) => {
                    let scale = self.link_health.scale(link);
                    let bw1e9 = self.cluster.link(LinkId(link as u32)).bw_gbps * 1e9;
                    (
                        fair_share(scale, bw1e9, old),
                        fair_share(scale, bw1e9, self.link_load[link]),
                    )
                }
                // A health change moves the term of every flow on the link.
                LinkMark::Forced => (0.0, 0.0),
                LinkMark::Clean => unreachable!("queued links are marked"),
            };
            for k in 0..self.link_flows[link].len() {
                let slot = self.link_flows[link][k].0 as usize;
                let rate = self.fa.rate[slot];
                // Strictly below the old term and not above the new one:
                // the link was not the flow's bottleneck and is not now, so
                // the min over its hops keeps its bits. A new flow (rate 0)
                // never passes.
                let keeps = rate > 0.0 && rate < was && rate <= now;
                if !keeps && self.fa.rated_pass[slot] != self.rerate_pass {
                    self.rekey_flow(slot);
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
            self.push_compute_key(rank);
        }
        dirty.clear();
        self.dirty_ranks = dirty;

        // The owners the drain takes are this event's candidates.
        let world = self.ranks.len();
        let mut cal = std::mem::take(&mut self.cal);
        let dt = cal.drain(
            self.t,
            self.next_control.min(self.next_fault_t) - self.t,
            |owner| {
                if owner < world {
                    self.cand_ranks.push(owner as u32);
                    self.compute_left(owner, 0.0)
                        .expect("calendar ranks are computing")
                } else {
                    let slot = owner - world;
                    self.cand_flows.push(slot as u32);
                    (self.flow_left(slot, 0.0), self.fa.rate[slot])
                }
            },
        );
        self.cal = cal;
        #[cfg(debug_assertions)]
        self.debug_check_dt(dt);
        Some(dt)
    }

    /// Debug cross-check: re-derive `dt` with the reference engine's full
    /// scan (and every flow rate from the link loads) and demand
    /// bit-equality, demand that no computing rank or flow outside this
    /// event's candidate set would complete in `dt` (`advance` tests
    /// candidates only), and that the scan finds `computing` ranks. Makes
    /// every debug-mode test a scheduler audit. The full scan is O(live)
    /// per event, so beyond ~1k live entities the audit samples every 64th
    /// event — large-scale debug suites stay tractable while the run is
    /// still audited throughout.
    #[cfg(debug_assertions)]
    fn debug_check_dt(&self, dt: f64) {
        let live = self.flow_order.len() + self.computing;
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
        let mut computing = 0;
        for (rank, &cand) in rank_cand.iter().enumerate() {
            if let (Some((left, rate)), Some((after, _))) =
                (self.compute_left(rank, 0.0), self.compute_left(rank, dt))
            {
                computing += 1;
                expect = expect.min(left / rate);
                assert!(
                    cand || after > 1.0,
                    "rank {rank} completes in dt={dt} at t={} but was not a candidate",
                    self.t
                );
            }
        }
        assert_eq!(computing, self.computing, "computing-rank count");
        for &slot in &self.flow_order {
            let slot = slot as usize;
            let rate = flow_rate(
                slot,
                &self.fa.pf,
                &self.installed,
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
        let expect = expect.max(crate::calendar::MIN_DT);
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
            self.computing -= 1;
            // Retire-site removal: the only place a completing entry
            // leaves the calendar.
            self.cal.remove(rank);
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
        retiring.clear();
        self.retiring = retiring;
        self.t += dt;
    }

    /// Retire the completed flow in `slot`, at position `pos` of
    /// `flow_order`, at time `t + dt`.
    fn retire_flow(&mut self, slot: usize, pos: usize, dt: f64) {
        // The flow's one traffic charge: its whole lowered payload, the
        // sub-unit residual included, so every lowered payload byte lands
        // in the traffic accounting. Its PCIe rate leaves its owners'
        // windows.
        let PlanFlowRef { flow, route } = self.installed.flows[self.fa.pf[slot] as usize];
        if self.fa.iteration[slot] as usize >= self.cfg.warmup_iterations {
            let payload = flow.work * flow.payload_ratio;
            for charge in &self.installed.charges[route.charges()] {
                self.traffic.add(charge.gpu as usize, charge.class, payload);
            }
        }
        self.shift_pcie(slot, self.t + dt, self.fa.rate[slot], 0.0);
        let key = (self.fa.iteration[slot], self.fa.coll[slot]);
        self.obs.flow_retire(slot as u32, self.t + dt);
        // Close rank segments on a GPU about to lose its last flow
        // *before* the decrement, so the closing segment still carries the
        // flows-present coefficients.
        for gpu in [flow.src as usize, flow.dst as usize] {
            if self.gpu_flow_count[gpu] == 1 {
                self.flush_gpu_ranks(gpu, self.t + dt);
            }
            self.gpu_flow_count[gpu] -= 1;
            if self.gpu_flow_count[gpu] == 0 {
                self.mark_gpu_ranks_dirty(gpu);
            }
        }
        for hi in route.hops() {
            let hop = self.installed.hops[hi];
            let id = hop.link as usize;
            self.mark_link_dirty(id);
            self.link_load[id] -= u32::from(hop.mult);
        }
        // Retire-site removal: drop the retiring flow's calendar entry (the
        // only place a completing entry leaves the calendar) and its
        // link-membership records.
        self.cal.remove(self.ranks.len() + slot);
        self.detach_flow_links(slot);
        let cs = &mut self.colls[key.1 as usize][(key.0 & 1) as usize];
        debug_assert!(cs.live && cs.iter == key.0, "flow has state");
        cs.state.flows_remaining -= 1;
        if cs.state.flows_remaining == 0 {
            self.complete_coll(key, None, self.t + dt);
        }
        // Stable slots: recycling the arena slot and re-pointing the
        // swapped-in tail's position is all the bookkeeping retirement
        // needs.
        self.flow_order.swap_remove(pos);
        if let Some(&moved) = self.flow_order.get(pos) {
            self.fa.order_pos[moved as usize] = pos as u32;
        }
        self.fa.free(slot as u32);
    }

    /// Remove the flow's membership entries from its route links' flow
    /// lists (swap-remove with back-pointer fixup; O(route length)).
    fn detach_flow_links(&mut self, slot: usize) {
        let pf = self.installed.flows[self.fa.pf[slot] as usize];
        for (l, hi) in pf.route.hops().enumerate() {
            let link = self.installed.hops[hi].link as usize;
            let pos = self.fa.link_pos[slot][l] as usize;
            self.link_flows[link].swap_remove(pos);
            if let Some(&(ms, mr)) = self.link_flows[link].get(pos) {
                self.fa.link_pos[ms as usize][mr as usize] = pos as u32;
            }
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
        // tick. Flows need no flush: traffic is charged at retirement and
        // the sample reads the PCIe windows. During an outage every segment
        // is frozen at its start and restarted at its end, so there is
        // nothing to flush.
        if !self.accrual_frozen {
            self.flush_ranks(self.t);
        }
        let period = self.cfg.control_period_s;
        let cluster = self.cluster;
        let slots = cluster.node_layout().airflow.num_slots();
        let measuring = self.measure_start.is_some();

        for ni in 0..self.active_nodes.len() {
            let node = charllm_hw::NodeId(self.active_nodes[ni]);
            self.refresh_inlets(ni);
            for slot in 0..slots {
                let gpu = cluster.gpu_at(node, slot).index();
                let activity = (self.activity_acc[gpu] / period).min(1.0);
                let inlet = self.inlet_c[gpu] + self.inlet_offset_c[gpu];
                let before = self.bank.power_w(gpu);
                let power = self.bank.step(gpu, activity, inlet, period);
                // With feedback disabled the physics still run (for power
                // and temperature telemetry) but clocks stay pinned.
                let new_ratio = if self.cfg.thermal_feedback {
                    self.bank.freq_ratio(gpu)
                } else {
                    1.0
                };
                if new_ratio.to_bits() != self.freq_ratio[gpu].to_bits() {
                    self.freq_ratio[gpu] = new_ratio;
                    self.mark_gpu_ranks_dirty(gpu);
                }
                if power.to_bits() != before.to_bits() {
                    self.inlet_stale[ni] = true;
                }
                self.obs
                    .sample_tick(gpu as u32, self.t, power, period, measuring);
                if measuring {
                    self.energy_measured_j += power * period;
                }
                self.activity_acc[gpu] = 0.0;
            }
        }
        self.finish_control_tick();
    }

    /// Recompute the airflow inlets of `active_nodes[ni]` from its GPUs'
    /// powers if one changed since they were last computed. The inlet is a
    /// pure function of those powers, so a cached one has the bits a fresh
    /// one would.
    #[inline]
    fn refresh_inlets(&mut self, ni: usize) {
        if !self.inlet_stale[ni] {
            return;
        }
        self.inlet_stale[ni] = false;
        let cluster = self.cluster;
        let airflow = &cluster.node_layout().airflow;
        let node = charllm_hw::NodeId(self.active_nodes[ni]);
        self.node_powers.clear();
        for s in 0..airflow.num_slots() {
            self.node_powers
                .push(self.bank.power_w(cluster.gpu_at(node, s).index()));
        }
        for s in 0..airflow.num_slots() {
            self.inlet_c[cluster.gpu_at(node, s).index()] =
                airflow.inlet_temp_c(s, &self.node_powers);
        }
    }

    /// Whether every stepped GPU sits at its idle fixed point with no
    /// activity accrued this period: a control tick then moves no clock,
    /// power or rate, only temperatures and energies.
    fn gpus_idle_settled(&self) -> bool {
        let cluster = self.cluster;
        let slots = cluster.node_layout().airflow.num_slots();
        self.active_nodes.iter().all(|&n| {
            (0..slots).all(|slot| {
                let gpu = cluster.gpu_at(charllm_hw::NodeId(n), slot).index();
                self.activity_acc[gpu] == 0.0 && self.bank.at_idle_fixed_point(gpu)
            })
        })
    }

    /// [`Simulator::control_update`] for a tick whose GPUs are all idle
    /// settled, as in an outage's idle phase: the same relaxation and
    /// energy through [`ThermalBank::idle_steps`], without the governor,
    /// power and rate work that would only reproduce what is there, and
    /// with the inlets `fault_stall` brought current. The observer and the
    /// measured energy get each GPU's power as before, in the same
    /// tick-major, node/slot order.
    fn idle_control_update(&mut self) {
        let (t, period) = (self.t, self.cfg.control_period_s);
        let measuring = self.measure_start.is_some();
        // Outages run only unfolded (`fold::split_reason` refuses a fault
        // plan), so every GPU is stepped, and GPU order is node/slot order.
        debug_assert_eq!(self.active_gpus.len(), self.bank.len());
        let obs = &mut self.obs;
        let inlets = (self.inlet_c.iter())
            .zip(&self.inlet_offset_c)
            .map(|(inlet, offset)| inlet + offset);
        self.bank.idle_steps(inlets, period, |gpu, power| {
            obs.sample_tick(gpu as u32, t, power, period, measuring);
        });
        if measuring {
            let bank = &self.bank;
            self.energy_measured_j = (0..bank.len()).fold(self.energy_measured_j, |e, gpu| {
                e + bank.power_w(gpu) * period
            });
        }
        self.finish_control_tick();
    }

    /// The tail of every control tick: the telemetry frame at sample
    /// boundaries and the metrics publication.
    fn finish_control_tick(&mut self) {
        if self.t >= self.next_sample - 1e-12 {
            let (t, frozen, window) = (self.t, self.accrual_frozen, self.cfg.sample_period_s);
            let (util_acc, pcie) = (&mut self.util_acc, &mut self.pcie);
            let bank = &self.bank;
            let frame = self.active_gpus.iter().map(|&gpu| {
                let gpu = gpu as usize;
                let pcie_bytes = if frozen {
                    pcie.take_frozen(gpu)
                } else {
                    pcie.take(gpu, t)
                };
                let sample = GpuSample {
                    power_w: bank.power_w(gpu),
                    temp_c: bank.temp_c(gpu),
                    freq_mhz: bank.freq_mhz(gpu),
                    util: (util_acc[gpu] / window).min(1.0),
                    pcie_gbps: pcie_bytes / window / 1e9,
                };
                util_acc[gpu] = 0.0;
                sample
            });
            self.telemetry
                .record_frame(self.t, &self.active_gpus, frame);
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
        // Close every open rank segment so the final partial control
        // window's busy time lands in the result. Flow traffic landed when
        // each flow retired.
        self.flush_ranks(self.t);
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
            throttle_ratio: (0..self.bank.len())
                .map(|g| self.bank.throttle_ratio(g))
                .collect(),
            thermal_throttle_ratio: (0..self.bank.len())
                .map(|g| self.bank.thermal_throttle_ratio(g))
                .collect(),
            occupancy,
            sim_time_s: self.t,
            goodput_tokens_per_s: goodput,
            energy_wasted_j: energy_wasted,
            restarts,
            fault_downtime_s: downtime,
        };
        (result, obs)
    }
}

/// Lower one collective over the GPUs of `group` into its
/// iteration-invariant plan, resolving each flow's route (with
/// `switch_mult` on switch-tier links) through the run's route table.
///
/// Flows with an empty route (on-device) or no work are dropped here once,
/// instead of being re-filtered at every launch.
fn build_plan(
    cluster: &Cluster,
    trace: &ExecutionTrace,
    ranks: &[RankState],
    table: &mut InstalledPlans,
    coll: u32,
    group: &[usize],
    switch_mult: u16,
) -> CollPlan {
    let inst = trace.collective(charllm_trace::task::CollectiveId(coll));
    let gpus: Vec<GpuId> = group.iter().map(|&r| ranks[r].gpu).collect();
    let plan = lower_collective(
        inst.kind,
        inst.bytes_per_rank,
        &gpus,
        cluster,
        inst.chunking,
    )
    .expect("placement-validated gpus");
    plan_from_lowered(cluster, table, plan, switch_mult)
}

/// Convert a lowered [`charllm_net::CollectivePlan`] into the engine's
/// cached form. Each flow's work is [`charllm_net::Flow::work_bytes`] over
/// the route the table resolves for it, so it is bit-identical to the
/// reference engine's.
fn plan_from_lowered(
    cluster: &Cluster,
    table: &mut InstalledPlans,
    plan: charllm_net::CollectivePlan,
    switch_mult: u16,
) -> CollPlan {
    let mut route = Vec::new();
    let flows = plan
        .flows
        .into_iter()
        .filter_map(|flow| {
            let (src, dst) = (flow.src.index() as u32, flow.dst.index() as u32);
            let span = table.route(cluster, src, dst, switch_mult);
            route.clear();
            route.extend(table.hops[span.hops()].iter().map(|h| LinkId(h.link)));
            let work = flow.work_bytes(cluster, &route);
            (work > 0.0).then(|| PlanFlow {
                work,
                payload_ratio: flow.bytes as f64 / work,
                src,
                dst,
            })
        })
        .collect();
    CollPlan { flows }
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
    use charllm_hw::{presets, GpuModel, LinkId, NodeId, NodeLayout};
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

    /// Lower `kind` over `gpus` on `cluster` with `mult` on switch-tier
    /// links, resolving routes through `plans`' table, and install it there.
    fn install_lowered(
        plans: &mut InstalledPlans,
        cluster: &Cluster,
        kind: CollectiveKind,
        bytes: u64,
        gpus: &[u32],
        mult: u16,
    ) -> PlanRange {
        let gpus: Vec<GpuId> = gpus.iter().map(|&g| GpuId(g)).collect();
        let lowered =
            lower_collective(kind, bytes, &gpus, cluster, ChunkingPolicy::nccl_default()).unwrap();
        let plan = plan_from_lowered(cluster, plans, lowered, mult);
        plans.install(cluster, &plan, mult)
    }

    fn hop_bits(plans: &InstalledPlans, pf: &PlanFlowRef) -> Vec<(u32, u16, u64)> {
        plans.hops[pf.route.hops()]
            .iter()
            .map(|h| (h.link, h.mult, h.bw1e9.to_bits()))
            .collect()
    }

    #[test]
    fn collectives_over_the_same_pairs_share_one_route_per_pair() {
        // Two nodes: the ring crosses NVLink inside a node and the NICs and
        // switch tiers between them.
        let cluster = presets::hgx_h100_superpod(2, 2);
        let gpus = [0, 1, 8, 9];
        let mut plans = InstalledPlans::default();
        let first = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            1 << 20,
            &gpus,
            1,
        );
        let (routes, hops, charges) = (plans.routes.len(), plans.hops.len(), plans.charges.len());
        let pairs: std::collections::BTreeSet<(u32, u32)> = plans
            .flows
            .iter()
            .map(|f| (f.flow.src, f.flow.dst))
            .collect();
        assert_eq!(routes, pairs.len(), "one route per GPU pair");
        let stored: usize = pairs
            .iter()
            .map(|&(src, dst)| usize::from(plans.routes[&(src, dst, 1)].hop_len))
            .sum();
        assert_eq!(hops, stored, "each pair's hops stored once");
        let second = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            64 << 20,
            &gpus,
            1,
        );
        assert_eq!(second.len, first.len);
        assert_eq!(
            (plans.routes.len(), plans.hops.len(), plans.charges.len()),
            (routes, hops, charges),
            "the second collective stores no route"
        );
        let flows = &plans.flows;
        for i in 0..first.len as usize {
            let (a, b) = (
                &flows[first.start as usize + i],
                &flows[second.start as usize + i],
            );
            assert_eq!((a.flow.src, a.flow.dst), (b.flow.src, b.flow.dst));
            assert_eq!(a.route.hop_start, b.route.hop_start);
            assert_eq!(a.route.charge_start, b.route.charge_start);
            assert_ne!(
                a.flow.work.to_bits(),
                b.flow.work.to_bits(),
                "work stays per flow"
            );
        }
    }

    #[test]
    fn a_switch_multiplier_stores_a_second_route_per_pair() {
        // A cross-node ring laid once at multiplier 1 (a folded run's full
        // cross-replica ring) and once at 4 (an intra-replica plan standing
        // in for four replicas): the same endpoints, different hops.
        let cluster = presets::hgx_h100_superpod(2, 2);
        let gpus = [0, 8];
        let mut plans = InstalledPlans::default();
        let once = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            1 << 20,
            &gpus,
            1,
        );
        let routes = plans.routes.len();
        let folded = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            1 << 20,
            &gpus,
            4,
        );
        assert_eq!(plans.routes.len(), 2 * routes, "one route per multiplier");
        for i in 0..once.len as usize {
            let a = plans.flows[once.start as usize + i];
            let b = plans.flows[folded.start as usize + i];
            let switch_hops = |pf: &PlanFlowRef| {
                plans.hops[pf.route.hops()]
                    .iter()
                    .filter(|h| cluster.link(LinkId(h.link)).class == LinkClass::Switch)
                    .map(|h| h.mult)
                    .collect::<Vec<_>>()
            };
            assert!(!switch_hops(&a).is_empty(), "the ring crosses the fabric");
            assert!(switch_hops(&a).iter().all(|&m| m == 1));
            assert!(switch_hops(&b).iter().all(|&m| m == 4));
            assert_ne!(a.route.hop_start, b.route.hop_start);
        }

        // A pair inside one node crosses no switch tier: its route is the
        // same at every multiplier, so it is stored once, under 1.
        let near = [0, 1];
        let once = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            1 << 20,
            &near,
            1,
        );
        let stored = (plans.hops.len(), plans.charges.len());
        let folded = install_lowered(
            &mut plans,
            &cluster,
            CollectiveKind::AllReduce,
            1 << 20,
            &near,
            4,
        );
        assert_eq!(
            (plans.hops.len(), plans.charges.len()),
            stored,
            "a switchless pair stores no second route"
        );
        for i in 0..once.len as usize {
            let (a, b) = (
                plans.flows[once.start as usize + i],
                plans.flows[folded.start as usize + i],
            );
            assert!(plans.routes.contains_key(&(a.flow.src, a.flow.dst, 1)));
            assert_eq!(a.route.hop_start, b.route.hop_start);
            assert_eq!(a.route.charge_start, b.route.charge_start);
        }
    }

    #[test]
    fn packed_flows_without_finite_positive_work_are_refused() {
        let floats = [1.0, 0.5, 0.0, -1.0, f64::NAN, f64::INFINITY];
        assert_eq!(unpack_flows("0 1 0 1;0 1 1 2", &floats).unwrap().len(), 2);
        for bad in [
            "2 1 0 1",
            "3 1 0 1",
            "4 1 0 1",
            "5 1 0 1",
            "0 4 0 1",
            "0 5 0 1",
            "9 1 0 1",
            "0 1 0",
            "0 1 0 1 7",
        ] {
            assert!(
                unpack_flows(bad, &floats).is_err(),
                "{bad:?} must be refused"
            );
        }
    }

    #[test]
    fn a_reloaded_plan_set_installs_the_same_hops_as_a_fresh_one() {
        let cluster = presets::hgx_h100_superpod(2, 2);
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let spec = ParallelismSpec::infer_dp(2, 2, 1, 16, false).unwrap();
        let partition = StagePartition::even(40, 2).unwrap();
        let hints = DeviceHints::for_spec(cluster.gpu());
        let lowered =
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
        let trace = &lowered.trace;
        let shared = Arc::new(SharedPlans::for_trace(trace));
        let placement = Placement::identity(&cluster, trace.world()).unwrap();
        Simulator::new(&cluster, &placement, trace, SimConfig::fast())
            .unwrap()
            .with_shared_plans(Arc::clone(&shared))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(shared.num_built(), trace.num_collectives());
        let text = serde_json::to_string(&*shared).unwrap();
        let reloaded: SharedPlans = serde_json::from_str(&text).unwrap();
        let (mut fresh, mut again) = (InstalledPlans::default(), InstalledPlans::default());
        for ci in 0..trace.num_collectives() {
            fresh.install(&cluster, shared.get(ci).unwrap(), 1);
            again.install(&cluster, reloaded.get(ci).unwrap(), 1);
        }
        assert!(!fresh.hops.is_empty() && fresh.flows.len() > fresh.routes.len());
        assert_eq!(fresh.routes.len(), again.routes.len());
        assert_eq!(fresh.charges, again.charges);
        assert_eq!(fresh.flows.len(), again.flows.len());
        for (a, b) in fresh.flows.iter().zip(&again.flows) {
            assert_eq!((a.flow.src, a.flow.dst), (b.flow.src, b.flow.dst));
            assert_eq!(a.flow.work.to_bits(), b.flow.work.to_bits());
            assert_eq!(
                a.flow.payload_ratio.to_bits(),
                b.flow.payload_ratio.to_bits()
            );
            assert_eq!(hop_bits(&fresh, a), hop_bits(&again, b));
            assert_eq!(
                fresh.charges[a.route.charges()],
                again.charges[b.route.charges()]
            );
        }
    }

    #[test]
    fn a_rerate_pass_skips_flows_whose_bottleneck_cannot_move() {
        // Two HGX nodes: a cross-node route runs PCIe (64 GB/s) → NIC
        // (12.5 GB/s) → leaf switch → NIC → PCIe, and every cross-node flow
        // of a node shares its NIC. GPU 8's PCIe link at 5% health
        // (3.2 GB/s) makes it flow A's bottleneck instead of the NICs.
        let cluster = presets::hgx_h100_superpod(2, 2);
        let mut b = TraceBuilder::new(1);
        b.compute(0, ComputeKind::Gemm, 1e12);
        let trace = b.build(TraceMeta {
            tokens_per_iteration: 1000,
            ..Default::default()
        });
        let placement = Placement::identity(&cluster, trace.world()).unwrap();
        let mut sim = Simulator::new(&cluster, &placement, &trace, SimConfig::fast()).unwrap();
        let launch = |sim: &mut Simulator<'_>, src: u32, dst: u32| {
            let plan = CollPlan {
                flows: Box::new([PlanFlow {
                    work: 1e15,
                    payload_ratio: 1.0,
                    src,
                    dst,
                }]),
            };
            let range = sim.installed.install(&cluster, &plan, 1);
            sim.launch_flow(range.start, 0, 0)
        };
        // One `next_dt` pass: the re-rates it made and the ones that
        // changed bits (its candidates are dropped; nothing advances).
        let pass = |sim: &mut Simulator<'_>| {
            let before = (sim.stats.flow_rerates, sim.stats.flow_rate_changes);
            sim.next_dt().expect("flows in flight");
            sim.cand_flows.clear();
            sim.cand_ranks.clear();
            (
                sim.stats.flow_rerates - before.0,
                sim.stats.flow_rate_changes - before.1,
            )
        };
        let nic = |node: u32| cluster.nic(NodeId(node)).index();
        let pcie = |gpu: u32| cluster.pcie(GpuId(gpu)).index();
        let slow = pcie(8);
        sim.link_health.set_scale(slow, 0.05);
        let a = launch(&mut sim, 0, 8);
        assert_eq!(pass(&mut sim), (1, 1), "a new flow re-rates");
        let rate_a = sim.fa.rate[a];
        assert_eq!(rate_a, fair_share(0.05, 64e9, 1), "the slow PCIe binds");
        let rated_a = sim.fa.rated_pass[a];

        // B shares both NICs with A: their load goes 1 → 2, and their term
        // 12.5 → 6.25 GB/s stays above A's 3.2 GB/s. Only B re-rates.
        let b = launch(&mut sim, 1, 9);
        assert_eq!(pass(&mut sim), (1, 1), "only the new flow re-rates");
        assert_eq!(sim.fa.rated_pass[a], rated_a, "A is not re-rated");
        assert_eq!(sim.fa.rate[a].to_bits(), rate_a.to_bits());
        assert_eq!(sim.fa.rate[b], fair_share(1.0, 12.5e9, 2));

        // Two more flows take the NICs to load 4: 3.125 GB/s undercuts
        // A's PCIe, so the NICs become A's bottleneck; B's bottleneck was
        // the NICs already. A, B and both new flows re-rate.
        launch(&mut sim, 2, 10);
        launch(&mut sim, 3, 11);
        assert_eq!(pass(&mut sim), (4, 4), "the moved bottlenecks re-rate");
        let nic_share = fair_share(1.0, 12.5e9, 4);
        assert_eq!(sim.fa.rate[a], nic_share);
        assert_eq!(sim.fa.rate[b], nic_share);
        assert_eq!(sim.link_load[nic(0)], 4);

        // A health change on A's source PCIe, far from its bottleneck,
        // still forces a re-rate of the flow on it; the bits do not move.
        let rated_a = sim.fa.rated_pass[a];
        sim.link_health.set_scale(pcie(0), 0.9);
        sim.mark_link_health(pcie(0));
        assert_eq!(pass(&mut sim), (1, 0), "a health change forces a re-rate");
        assert_ne!(sim.fa.rated_pass[a], rated_a, "A was re-rated");
        assert_eq!(sim.fa.rate[a], nic_share);
    }
}
