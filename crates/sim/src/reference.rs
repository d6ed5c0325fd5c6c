//! The scan-based reference engine: the executable specification of the
//! simulator's semantics.
//!
//! [`ReferenceSimulator`] is the seed engine preserved verbatim (minus two
//! bug fixes described below). Every event it recomputes global state from
//! scratch: link loads are rebuilt from all flows × routes, every rank is
//! polled for progress, and every collective launch re-lowers its flows and
//! re-resolves their routes. That makes it slow — and easy to audit.
//!
//! The production [`crate::Simulator`] is an event-driven rework of this
//! loop (plan caching, incremental link loads, waiter wake-lists) that must
//! produce **byte-identical** [`SimResult`]s; `tests/engine_golden.rs`
//! compares serialized output of both engines on end-to-end workloads, and
//! the `sim_engine_hotpath` bench measures the speedup against this
//! baseline.
//!
//! Differences from the original seed engine (applied to both engines so
//! the equality comparison stays meaningful):
//! - the dead `busy_time_denominator` accumulator was removed;
//! - flows retire at `work_remaining <= 1.0` and charge their whole
//!   lowered payload, so measured traffic equals the sum of lowered flow
//!   payloads instead of silently dropping up to one byte-equivalent per
//!   flow;
//! - accounting (kernel time, activity, occupancy) and work progress
//!   accrue in lazy segments closed at mode transitions, rate changes and
//!   the control-tick rank flush instead of per event (see the `accrual`
//!   module). This engine still *tests* every rank and flow for completion
//!   every event, against the same lazy expressions the production engine
//!   evaluates for its candidates only; both engines close segments at
//!   identically ordered sites, so their results stay byte-identical;
//! - PCIe telemetry integrates per-GPU payload rates that change only
//!   where a flow's rate changes or it retires (`PcieWindow`), so a
//!   sample reads each GPU's window instead of flushing every flow.

use std::collections::HashMap;

use charllm_hw::{Cluster, GpuId, LinkId};
use charllm_net::lower_collective;
use charllm_parallel::Placement;
use charllm_telemetry::{GpuSample, TelemetryStore};
use charllm_thermal::ThermalBank;
use charllm_trace::{ExecutionTrace, Step};

use crate::accrual::{self, PcieWindow};
use crate::config::SimConfig;
use crate::error::SimError;
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
}

#[derive(Debug)]
struct FlowState {
    /// Work left as of `acc_since`.
    work_remaining: f64,
    payload_ratio: f64,
    /// The lowered payload, `work × payload_ratio`, charged at retirement.
    payload: f64,
    /// Rate computed by the last `next_dt` (banked on bit-change).
    rate: f64,
    /// Segment start for lazy progress accrual.
    acc_since: f64,
    route: Vec<LinkId>,
    src: GpuId,
    dst: GpuId,
    measured: bool,
    coll_key: (u32, u32),
    /// Dense observer id: unique among open flows, recycled after
    /// retirement (the [`SimObserver::flow_launch`] contract).
    obs_id: u32,
}

/// The scan-everything-per-event engine (see the module docs).
///
/// Same construction contract and result type as [`crate::Simulator`]; use
/// it when you need a semantics baseline to compare the event-driven engine
/// against, never for production sweeps. Generic over the same
/// [`SimObserver`] hooks as the production engine, so span streams can be
/// compared between the two.
pub struct ReferenceSimulator<'a, O: SimObserver = NoopObserver> {
    obs: O,
    cluster: &'a Cluster,
    trace: &'a ExecutionTrace,
    cfg: SimConfig,

    ranks: Vec<RankState>,
    colls: HashMap<(u32, u32), CollState>,
    flows: Vec<FlowState>,
    /// Retired observer ids available for reuse (LIFO).
    free_flow_ids: Vec<u32>,
    /// Next never-used observer id.
    next_flow_id: u32,
    /// Number of active flows touching each GPU (as src or dst).
    gpu_flow_count: Vec<u32>,
    /// Ranks placed on each GPU, ascending (flush order at flow-presence
    /// transitions).
    ranks_of_gpu: Vec<Vec<u32>>,
    /// Segment start for each rank's lazy progress and accounting accrual
    /// (a computing rank's `remaining_flops` is as of this instant).
    rank_acc_since: Vec<f64>,
    /// Scratch: flow load per link.
    link_load: Vec<u32>,

    /// Every GPU's temperature, power, energy and governor state.
    bank: ThermalBank,
    freq_ratio: Vec<f64>,
    /// Scratch: one node's GPU powers in slot order.
    node_powers: Vec<f64>,

    /// Time-weighted activity accumulation since the last control boundary.
    activity_acc: Vec<f64>,
    util_acc: Vec<f64>,
    pcie: PcieWindow,

    kernel_time: Vec<KernelBreakdown>,
    traffic: TrafficMatrix,
    occ_acc: Vec<(f64, f64, f64)>,
    telemetry: TelemetryStore,

    t: f64,
    next_control: f64,
    next_sample: f64,
    iteration_complete_at: Vec<f64>,
    measure_start: Option<f64>,
    energy_measured_j: f64,
}

impl<'a> ReferenceSimulator<'a> {
    /// Build an unobserved reference simulator after validating trace/
    /// placement/cluster agreement.
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

impl<'a, O: SimObserver> ReferenceSimulator<'a, O> {
    /// Build a reference simulator with an attached observer.
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

        let bank = cfg.thermal_bank(cluster, |_| true);
        let freq_ratio = (0..num_gpus).map(|g| bank.freq_ratio(g)).collect();
        let mut ranks_of_gpu = vec![Vec::new(); num_gpus];
        for (r, state) in ranks.iter().enumerate() {
            ranks_of_gpu[state.gpu.index()].push(r as u32);
        }

        Ok(ReferenceSimulator {
            obs,
            cluster,
            trace,
            ranks,
            colls: HashMap::new(),
            flows: Vec::new(),
            free_flow_ids: Vec::new(),
            next_flow_id: 0,
            gpu_flow_count: vec![0; num_gpus],
            ranks_of_gpu,
            rank_acc_since: vec![0.0; trace.world()],
            link_load: vec![0; cluster.num_links()],
            bank,
            freq_ratio,
            node_powers: Vec::new(),
            activity_acc: vec![0.0; num_gpus],
            util_acc: vec![0.0; num_gpus],
            pcie: PcieWindow::new(num_gpus),
            kernel_time: vec![KernelBreakdown::default(); trace.world()],
            traffic: TrafficMatrix::new(num_gpus),
            occ_acc: vec![(0.0, 0.0, 0.0); num_gpus],
            telemetry: TelemetryStore::new(num_gpus),
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
            cfg,
        })
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

    /// Run to completion, returning the observer for post-run analysis.
    ///
    /// # Errors
    ///
    /// Same as [`ReferenceSimulator::run`].
    pub fn run_observed(mut self) -> Result<(SimResult, O), SimError> {
        loop {
            let progressed = self.advance_ready_ranks();

            if self.ranks.iter().all(|r| r.mode == RankMode::Finished) {
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
        Ok(self.finish())
    }

    /// Process instantaneous steps for every rank that can move.
    fn advance_ready_ranks(&mut self) -> bool {
        let mut progressed = false;
        for rank in 0..self.ranks.len() {
            progressed |= self.advance_rank(rank);
        }
        progressed
    }

    fn advance_rank(&mut self, rank: usize) -> bool {
        let mut progressed = false;
        loop {
            match self.ranks[rank].mode {
                RankMode::Computing { .. } | RankMode::Finished => return progressed,
                RankMode::Waiting { coll } => {
                    let key = (self.ranks[rank].iteration as u32, coll);
                    let done = self.colls.get(&key).is_some_and(|c| c.complete);
                    if !done {
                        return progressed;
                    }
                    // Close the wait segment before the mode flips. The
                    // flip happens at the same sim time as the collective
                    // completion (`advance` bumps `t` to the completion
                    // time before this scan runs).
                    self.accrue_rank(rank, self.t);
                    self.ranks[rank].mode = RankMode::Ready;
                    progressed = true;
                }
                RankMode::Ready => {
                    let steps = self.trace.steps(rank);
                    if self.ranks[rank].step_idx >= steps.len() {
                        // Iteration boundary.
                        let iter = self.ranks[rank].iteration;
                        self.iteration_complete_at[iter] =
                            self.iteration_complete_at[iter].max(self.t);
                        self.ranks[rank].iteration += 1;
                        self.ranks[rank].step_idx = 0;
                        progressed = true;
                        if self.ranks[rank].iteration >= self.cfg.iterations {
                            self.ranks[rank].mode = RankMode::Finished;
                            continue;
                        }
                        if self.measure_start.is_none()
                            && self
                                .ranks
                                .iter()
                                .all(|r| r.iteration >= self.cfg.warmup_iterations)
                        {
                            self.measure_start = Some(self.t);
                        }
                        continue;
                    }
                    let step = steps[self.ranks[rank].step_idx];
                    self.ranks[rank].step_idx += 1;
                    progressed = true;
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
                            return progressed;
                        }
                        Step::CollStart { coll } => {
                            self.arrive(rank, coll.0);
                        }
                        Step::CollWait { coll } => {
                            let key = (self.ranks[rank].iteration as u32, coll.0);
                            let done = self.colls.get(&key).is_some_and(|c| c.complete);
                            if !done {
                                self.obs.task_start(
                                    rank,
                                    self.ranks[rank].gpu.index() as u32,
                                    key.0,
                                    TaskKind::CollWait {
                                        coll,
                                        class: self.trace.collective(coll).class(),
                                    },
                                    self.t,
                                );
                                self.ranks[rank].mode = RankMode::Waiting { coll: coll.0 };
                                return progressed;
                            }
                        }
                    }
                }
            }
        }
    }

    /// A rank arrives at a collective; launch its flows when ready.
    fn arrive(&mut self, rank: usize, coll: u32) {
        let iter = self.ranks[rank].iteration as u32;
        let key = (iter, coll);
        let inst = self
            .trace
            .collective(charllm_trace::task::CollectiveId(coll));
        let state = self.colls.entry(key).or_default();
        state.arrived += 1;
        let ready = if inst.eager_p2p {
            true
        } else {
            state.arrived as usize == inst.group.len()
        };
        if !ready || state.launched {
            return;
        }
        state.launched = true;
        let gpus: Vec<GpuId> = inst.group.iter().map(|&r| self.ranks[r].gpu).collect();
        let plan = lower_collective(
            inst.kind,
            inst.bytes_per_rank,
            &gpus,
            self.cluster,
            inst.chunking,
        )
        .expect("placement-validated gpus");
        let measured = self.ranks[rank].iteration >= self.cfg.warmup_iterations;
        let mut active = 0u32;
        for flow in plan.flows {
            let route = self.cluster.route(flow.src, flow.dst).expect("valid route");
            if route.is_empty() {
                continue;
            }
            let work = flow.work_bytes(self.cluster, &route);
            if work <= 0.0 {
                continue;
            }
            active += 1;
            let obs_id = self.free_flow_ids.pop().unwrap_or_else(|| {
                let id = self.next_flow_id;
                self.next_flow_id += 1;
                id
            });
            self.obs.flow_launch(
                obs_id,
                coll,
                iter,
                flow.src.index() as u32,
                flow.dst.index() as u32,
                self.t,
            );
            // A GPU's flow count crossing 0 → 1 changes its ranks'
            // accounting coefficients: close their segments *before* the
            // increment so the closed span carries the flows-absent rates.
            if self.gpu_flow_count[flow.src.index()] == 0 {
                self.flush_gpu_ranks(flow.src.index(), self.t);
            }
            self.gpu_flow_count[flow.src.index()] += 1;
            if self.gpu_flow_count[flow.dst.index()] == 0 {
                self.flush_gpu_ranks(flow.dst.index(), self.t);
            }
            self.gpu_flow_count[flow.dst.index()] += 1;
            let payload_ratio = flow.bytes as f64 / work;
            self.flows.push(FlowState {
                work_remaining: work,
                payload_ratio,
                payload: work * payload_ratio,
                rate: 0.0,
                acc_since: self.t,
                route,
                src: flow.src,
                dst: flow.dst,
                measured,
                coll_key: key,
                obs_id,
            });
        }
        let state = self.colls.get_mut(&key).expect("just inserted");
        state.flows_remaining = active;
        if active == 0 {
            self.complete_collective(key, self.t);
        }
    }

    /// Mark a collective instance complete at time `now`, closing the wait
    /// spans of every rank blocked on it (the scan resumes those ranks
    /// later, but their wait *ends* when the collective does — matching the
    /// event-driven engine's wake-time semantics exactly).
    fn complete_collective(&mut self, key: (u32, u32), now: f64) {
        self.colls.get_mut(&key).expect("live collective").complete = true;
        self.obs.collective_complete(key.1, key.0, now);
        for rank in 0..self.ranks.len() {
            if self.ranks[rank].mode == (RankMode::Waiting { coll: key.1 })
                && self.ranks[rank].iteration as u32 == key.0
            {
                self.obs.task_end(rank, now);
            }
        }
    }

    /// Current per-flow rate in bytes/s (fair share of the slowest link).
    fn flow_rate(&self, flow: &FlowState) -> f64 {
        flow.route
            .iter()
            .map(|id| {
                let load = self.link_load[id.index()].max(1) as f64;
                self.cluster.link(*id).bw_gbps * 1e9 / load
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn compute_rate(&self, rank: usize, kind: charllm_trace::ComputeKind) -> f64 {
        let gpu = self.ranks[rank].gpu.index();
        let mut rate = self.cluster.gpu().peak_fp16_flops * kind.mfu() * self.freq_ratio[gpu];
        if self.gpu_flow_count[gpu] > 0 {
            rate /= self.cfg.overlap_slowdown;
        }
        rate.max(1.0)
    }

    /// Choose the next time step: the earliest completion, capped by the
    /// control period. `None` when nothing is in flight.
    fn next_dt(&mut self) -> Option<f64> {
        // Refresh link loads.
        for l in &mut self.link_load {
            *l = 0;
        }
        for flow in &self.flows {
            for id in &flow.route {
                self.link_load[id.index()] += 1;
            }
        }
        let mut dt = self.next_control - self.t;
        let mut any = false;
        for (rank, state) in self.ranks.iter().enumerate() {
            if let RankMode::Computing {
                kind,
                remaining_flops,
            } = state.mode
            {
                any = true;
                let rate = self.compute_rate(rank, kind);
                let elapsed = self.t - self.rank_acc_since[rank];
                dt = dt.min(accrual::left_after(remaining_flops, rate, elapsed) / rate);
            }
        }
        for i in 0..self.flows.len() {
            any = true;
            let rate = self.flow_rate(&self.flows[i]);
            if rate.to_bits() != self.flows[i].rate.to_bits() {
                // Bank movement at the superseded rate, and move the flow's
                // PCIe contribution to the new one.
                let old = self.flows[i].rate;
                let flow = &mut self.flows[i];
                accrual::bank_flow_segment(
                    old,
                    self.t,
                    &mut flow.acc_since,
                    &mut flow.work_remaining,
                );
                flow.rate = rate;
                self.shift_pcie(i, self.t, old, rate);
            }
            let flow = &self.flows[i];
            let left = accrual::left_after(flow.work_remaining, rate, self.t - flow.acc_since);
            dt = dt.min(left / rate);
        }
        if !any {
            return None;
        }
        Some(dt.max(1e-9))
    }

    /// Test every computing rank and flow for completion within `dt` and
    /// process completions. Progress itself is lazy: a rank or flow that
    /// does not complete is left untouched, its work materialized only
    /// when its segment closes (see [`Self::accrue_rank`] and
    /// `accrual::bank_flow_segment`).
    fn advance(&mut self, dt: f64) {
        for rank in 0..self.ranks.len() {
            let RankMode::Computing {
                kind,
                remaining_flops,
            } = self.ranks[rank].mode
            else {
                continue;
            };
            let rate = self.compute_rate(rank, kind);
            let elapsed = (self.t - self.rank_acc_since[rank]) + dt;
            if accrual::left_after(remaining_flops, rate, elapsed) <= 1.0 {
                // Close the computing segment at completion time, before
                // the mode flips.
                self.accrue_rank(rank, self.t + dt);
                self.obs.task_end(rank, self.t + dt);
                self.ranks[rank].mode = RankMode::Ready;
            }
        }

        // Flow completions, at the rates `next_dt` just cached from the
        // same link loads. Traffic is charged only when a flow retires.
        let mut i = 0;
        while i < self.flows.len() {
            let flow = &self.flows[i];
            let elapsed = (self.t - flow.acc_since) + dt;
            if accrual::left_after(flow.work_remaining, flow.rate, elapsed) <= 1.0 {
                // The flow's one traffic charge: its whole lowered
                // payload, the sub-unit residual included, so every lowered
                // payload byte lands in the traffic accounting. Its PCIe
                // rate leaves its owners' windows.
                self.charge_flow(i);
                self.shift_pcie(i, self.t + dt, self.flows[i].rate, 0.0);
                let obs_id = self.flows[i].obs_id;
                let src = self.flows[i].src;
                let dst = self.flows[i].dst;
                let coll_key = self.flows[i].coll_key;
                self.obs.flow_retire(obs_id, self.t + dt);
                self.free_flow_ids.push(obs_id);
                // Close rank segments on a GPU about to lose its last flow
                // *before* the decrement, so the closing segment still
                // carries the flows-present coefficients.
                if self.gpu_flow_count[src.index()] == 1 {
                    self.flush_gpu_ranks(src.index(), self.t + dt);
                }
                self.gpu_flow_count[src.index()] -= 1;
                if self.gpu_flow_count[dst.index()] == 1 {
                    self.flush_gpu_ranks(dst.index(), self.t + dt);
                }
                self.gpu_flow_count[dst.index()] -= 1;
                let state = self.colls.get_mut(&coll_key).expect("flow has state");
                state.flows_remaining -= 1;
                if state.flows_remaining == 0 {
                    self.complete_collective(coll_key, self.t + dt);
                }
                self.flows.swap_remove(i);
            } else {
                i += 1;
            }
        }

        self.t += dt;
    }

    /// Close a rank's open segment at `t_end`: materialize a computing
    /// rank's progress and accrue the accounting coefficients of its
    /// *current* mode (flushes run before transitions and rate changes, so
    /// the mode and rate describe the whole segment).
    fn accrue_rank(&mut self, rank: usize, t_end: f64) {
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
        let gpu = self.ranks[rank].gpu.index();
        let flows_present = self.gpu_flow_count[gpu] > 0;
        let measured = self.ranks[rank].iteration >= self.cfg.warmup_iterations;
        match self.ranks[rank].mode {
            RankMode::Computing { kind, .. } => accrual::accrue_computing(
                len,
                kind,
                flows_present,
                measured,
                &mut self.kernel_time[rank],
                &mut self.activity_acc[gpu],
                &mut self.util_acc[gpu],
                &mut self.occ_acc[gpu],
            ),
            RankMode::Waiting { coll } => {
                let class = self
                    .trace
                    .collective(charllm_trace::task::CollectiveId(coll))
                    .class();
                accrual::accrue_waiting(
                    len,
                    class,
                    measured,
                    &mut self.kernel_time[rank],
                    &mut self.activity_acc[gpu],
                    &mut self.util_acc[gpu],
                    &mut self.occ_acc[gpu],
                );
            }
            _ => {
                // Idle or finished: eager-send flows may still be flying;
                // count comm presence lightly.
                if flows_present {
                    accrual::accrue_idle(len, &mut self.activity_acc[gpu]);
                }
            }
        }
    }

    /// Close the segments of every rank placed on `gpu` at `now`. Called
    /// exactly when the GPU's flow count crosses 0 ↔ 1.
    fn flush_gpu_ranks(&mut self, gpu: usize, now: f64) {
        for k in 0..self.ranks_of_gpu[gpu].len() {
            let rank = self.ranks_of_gpu[gpu][k] as usize;
            self.accrue_rank(rank, now);
        }
    }

    /// Charge flow `i`'s lowered payload to its traffic owners.
    fn charge_flow(&mut self, i: usize) {
        let flow = &self.flows[i];
        if !flow.measured {
            return;
        }
        let (src, dst, payload) = (flow.src, flow.dst, flow.payload);
        // Charge GPU-owned links for the traffic matrix.
        for k in 0..self.flows[i].route.len() {
            let id = self.flows[i].route[k];
            let class = self.cluster.link(id).class;
            for &gpu in &[src, dst] {
                let owns = match class {
                    charllm_hw::LinkClass::Pcie => self.cluster.pcie(gpu) == id,
                    charllm_hw::LinkClass::NvLink | charllm_hw::LinkClass::XgmiPort => {
                        self.cluster.fabric_port(gpu) == id
                    }
                    charllm_hw::LinkClass::XgmiPackage => {
                        // Package bus: charge both endpoints.
                        self.cluster.same_package(src, dst) && (gpu == src || gpu == dst)
                    }
                    charllm_hw::LinkClass::Nic | charllm_hw::LinkClass::Switch => false,
                };
                if owns {
                    self.traffic.add(gpu.index(), class, payload);
                }
            }
        }
    }

    /// Move flow `i`'s contribution to the payload rates of the GPUs owning
    /// its PCIe links from rate `old` to rate `new` at `now`.
    fn shift_pcie(&mut self, i: usize, now: f64, old: f64, new: f64) {
        let flow = &self.flows[i];
        let old = PcieWindow::contribution(old, flow.payload_ratio);
        let new = PcieWindow::contribution(new, flow.payload_ratio);
        for &id in &flow.route {
            if self.cluster.link(id).class != charllm_hw::LinkClass::Pcie {
                continue;
            }
            for gpu in [flow.src, flow.dst] {
                if self.cluster.pcie(gpu) == id {
                    self.pcie.shift(gpu.index(), now, old, new);
                }
            }
        }
    }

    /// The rank flush: close every rank's segment at `now` in ascending
    /// order — the order the production engine flushes in.
    fn flush_ranks(&mut self, now: f64) {
        for rank in 0..self.ranks.len() {
            self.accrue_rank(rank, now);
        }
    }

    /// Thermal/governor update + telemetry sampling at a control boundary.
    fn control_update(&mut self) {
        // The thermal step reads the rank-side activity accumulators (and
        // the sample below the util ones): the rank flush runs every tick.
        // Flows need no flush: the sample reads the PCIe windows.
        self.flush_ranks(self.t);
        let period = self.cfg.control_period_s;
        let cluster = self.cluster;
        let airflow = &cluster.node_layout().airflow;
        let slots = airflow.num_slots();
        let measuring = self.measure_start.is_some();

        for node in 0..cluster.num_nodes() {
            let node = charllm_hw::NodeId(node as u32);
            self.node_powers.clear();
            for s in 0..slots {
                self.node_powers
                    .push(self.bank.power_w(cluster.gpu_at(node, s).index()));
            }
            for slot in 0..slots {
                let gpu = cluster.gpu_at(node, slot).index();
                let activity = (self.activity_acc[gpu] / period).min(1.0);
                let inlet = airflow.inlet_temp_c(slot, &self.node_powers);
                let power = self.bank.step(gpu, activity, inlet, period);
                // With feedback disabled the physics still run (for power
                // and temperature telemetry) but clocks stay pinned.
                self.freq_ratio[gpu] = if self.cfg.thermal_feedback {
                    self.bank.freq_ratio(gpu)
                } else {
                    1.0
                };
                self.obs
                    .sample_tick(gpu as u32, self.t, power, period, measuring);
                if measuring {
                    self.energy_measured_j += power * period;
                }
                self.activity_acc[gpu] = 0.0;
            }
        }

        if self.t >= self.next_sample - 1e-12 {
            let (t, window) = (self.t, self.cfg.sample_period_s);
            let (util_acc, pcie) = (&mut self.util_acc, &mut self.pcie);
            let bank = &self.bank;
            let gpus: Vec<u32> = (0..self.cluster.num_gpus() as u32).collect();
            let frame = gpus.iter().map(|&gpu| {
                let gpu = gpu as usize;
                let sample = GpuSample {
                    power_w: bank.power_w(gpu),
                    temp_c: bank.temp_c(gpu),
                    freq_mhz: bank.freq_mhz(gpu),
                    util: (util_acc[gpu] / window).min(1.0),
                    pcie_gbps: pcie.take(gpu, t) / window / 1e9,
                };
                util_acc[gpu] = 0.0;
                sample
            });
            self.telemetry.record_frame(self.t, &gpus, frame);
            self.next_sample += self.cfg.sample_period_s;
        }
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
        let measured_window = self.iteration_complete_at.last().copied().unwrap_or(0.0)
            - self.measure_start.unwrap_or(0.0);
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
            // The reference engine never injects faults: resilience metrics
            // take their fault-free identities (goodput == throughput).
            goodput_tokens_per_s: tokens_per_s,
            energy_wasted_j: 0.0,
            restarts: 0,
            fault_downtime_s: 0.0,
            profile: None,
        };
        (result, obs)
    }
}
