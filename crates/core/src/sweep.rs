//! Configuration sweeps: run many experiments and collect reports.
//!
//! A [`Sweep`] enumerates the cartesian product of parallelism specs ×
//! job variants × microbatch sizes and simulates every point. Points are
//! independent, so [`Sweep::run`] fans them across an [`Executor`] worker
//! pool ([`Sweep::workers`] controls the width; `workers(1)` is exactly
//! the serial path) and returns results in enumeration order regardless
//! of which worker finished first.
//!
//! Infeasible points are expected when sweeping broadly; they surface as
//! structured [`SweepOutcome::Skipped`] values from
//! [`Sweep::run_outcomes`] (and as `point` events on the
//! [`Sweep::stream`]) rather than as stderr noise.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::ParallelismSpec;
use charllm_sim::{FaultPlan, SimConfig};
use charllm_telemetry::metrics::{Counter, Gauge, MetricsHub, MetricsSnapshot};
use serde_json::Value;

use crate::cache::SimCache;
use crate::error::CoreError;
use crate::executor::Executor;
use crate::experiment::{Experiment, ExperimentBuilder};
use crate::report::RunReport;
use crate::stream::{PointSummary, ProgressEvent, ProgressStream};

/// One point of a sweep's cartesian grid, in enumeration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPoint {
    /// Position in the sweep's enumeration order (0-based).
    pub index: usize,
    /// The parallelism configuration at this point.
    pub spec: ParallelismSpec,
    /// The optimization label of the job variant (`Base`, `cc`, ...).
    pub optimization: String,
    /// The microbatch size at this point.
    pub microbatch: usize,
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} mb{}",
            self.spec.label(),
            self.optimization,
            self.microbatch
        )
    }
}

/// The structured result of one sweep point.
#[derive(Debug)]
pub enum SweepOutcome {
    /// The point simulated successfully.
    Completed {
        /// Which point this is.
        point: SweepPoint,
        /// The full run report.
        report: Box<RunReport>,
    },
    /// The point failed and the sweep is in skip mode (the default):
    /// infeasible geometry is expected when sweeping broadly.
    Skipped {
        /// Which point this is.
        point: SweepPoint,
        /// Why the point was skipped (the rendered error).
        reason: String,
    },
    /// The point failed and the sweep is strict: [`Sweep::run`] turns the
    /// first `Failed` outcome (in point order) into its error.
    Failed {
        /// Which point this is.
        point: SweepPoint,
        /// The underlying error.
        error: CoreError,
    },
}

impl SweepOutcome {
    /// The sweep point this outcome belongs to.
    pub fn point(&self) -> &SweepPoint {
        match self {
            SweepOutcome::Completed { point, .. }
            | SweepOutcome::Skipped { point, .. }
            | SweepOutcome::Failed { point, .. } => point,
        }
    }

    /// The report, if the point completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            SweepOutcome::Completed { report, .. } => Some(report),
            _ => None,
        }
    }

    /// Whether the point was skipped.
    pub fn is_skipped(&self) -> bool {
        matches!(self, SweepOutcome::Skipped { .. })
    }
}

/// Sweep-level metric handles, registered on the hub's shard 0.
struct SweepCounters {
    completed: Counter,
    skipped: Counter,
    failed: Counter,
    /// Per-step energy of completed points, quantized to exact integer
    /// millijoules (`round(energy_per_step_j * 1e3)`) so the counter
    /// reconciles bit-for-bit with the summed per-point reports.
    energy_mj: Counter,
    points_total: Gauge,
    elapsed_s: Gauge,
    eta_s: Gauge,
}

impl SweepCounters {
    fn new(hub: &Arc<MetricsHub>) -> Self {
        let s = hub.shard(0);
        SweepCounters {
            completed: s.counter("sweep_points_completed_total", &[]),
            skipped: s.counter("sweep_points_skipped_total", &[]),
            failed: s.counter("sweep_points_failed_total", &[]),
            energy_mj: s.counter("sweep_energy_per_step_mj_total", &[]),
            points_total: s.gauge("sweep_points_total", &[]),
            elapsed_s: s.gauge("sweep_elapsed_s", &[]),
            eta_s: s.gauge("sweep_eta_s", &[]),
        }
    }
}

/// Shared finish-side state: outcome tallies and the stream's in-order
/// emission buffer.
#[derive(Default)]
struct EmitState {
    completed: usize,
    skipped: usize,
    failed: usize,
    seq: u64,
    next_emit: usize,
    /// Finished points parked until every earlier point has been emitted.
    pending: BTreeMap<usize, PointSummary>,
    last_snapshot: Option<MetricsSnapshot>,
}

/// A cartesian sweep over parallelism specs, optimization variants and
/// microbatch sizes for one model on one cluster.
#[derive(Clone)]
pub struct Sweep {
    /// What every point shares: cluster, simulator configuration, cache
    /// and faults. A point adds its job and spec.
    base: ExperimentBuilder,
    specs: Vec<ParallelismSpec>,
    jobs_per_spec: Vec<TrainJob>,
    microbatches: Vec<usize>,
    skip_failures: bool,
    workers: usize,
    metrics: Option<Arc<MetricsHub>>,
    stream: Option<Arc<ProgressStream>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("base", &self.base)
            .field("specs", &self.specs)
            .field("jobs_per_spec", &self.jobs_per_spec.len())
            .field("microbatches", &self.microbatches)
            .field("skip_failures", &self.skip_failures)
            .field("workers", &self.workers)
            .field("metrics", &self.metrics.is_some())
            .field("stream", &self.stream.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl Sweep {
    /// A sweep of `specs` for one job on a cluster.
    pub fn new(
        cluster: impl Into<Arc<Cluster>>,
        job: TrainJob,
        specs: Vec<ParallelismSpec>,
    ) -> Self {
        Sweep {
            base: Experiment::builder().cluster(cluster),
            jobs_per_spec: vec![job],
            specs,
            microbatches: vec![1],
            skip_failures: true,
            workers: 0,
            metrics: None,
            stream: None,
            cancel: None,
        }
    }

    /// Replace the job variants (e.g. the Base/cc/act/cc+act set).
    pub fn with_job_variants(mut self, jobs: Vec<TrainJob>) -> Self {
        self.jobs_per_spec = jobs;
        self
    }

    /// Microbatch sizes to sweep.
    pub fn with_microbatches(mut self, microbatches: Vec<usize>) -> Self {
        self.microbatches = microbatches;
        self
    }

    /// Simulator configuration for every run.
    pub fn with_sim_config(mut self, sim: SimConfig) -> Self {
        self.base = self.base.sim_config(sim);
        self
    }

    /// Fail the whole sweep on the first error instead of skipping
    /// infeasible points.
    pub fn strict(mut self) -> Self {
        self.skip_failures = false;
        self
    }

    /// Worker threads for the sweep: `0` (the default) means one per
    /// available core, `1` runs every point serially on the calling
    /// thread, `n > 1` bounds the pool at `n`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Share an externally owned [`SimCache`] instead of the per-sweep one,
    /// e.g. to carry memoized lowerings and collective plans across several
    /// sweeps or ablations over the same workloads. Read aggregate hit/miss
    /// counters from the cache afterwards via [`SimCache::stats`].
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.base = self.base.cache(cache);
        self
    }

    /// Inject the same [`FaultPlan`] into every point of the sweep (e.g. an
    /// MTBF scenario evaluated across parallelism configurations). The plan
    /// stays out of the memoization key, because faults change neither the
    /// lowered trace nor the collective plans: points with any plan share
    /// the cached trace and plan set.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.base = self.base.faults(plan);
        self
    }

    /// Publish live metrics to `hub` while the sweep runs: sweep-level
    /// reconciliation counters (`sweep_points_{completed,skipped,failed}_total`,
    /// `sweep_energy_per_step_mj_total` in exact millijoules), live
    /// `sweep_elapsed_s`/`sweep_eta_s` gauges, per-worker
    /// `sweep_worker_busy_ms_total`/`sweep_worker_utilization` series, the
    /// shared cache's `cache_*` series, and each in-flight experiment's
    /// engine gauges (`sim_*`, on the shard matching its pool worker).
    /// Results are byte-identical with or without a hub.
    pub fn with_metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// Stream one structured JSONL [`ProgressEvent`] per point (plus a
    /// terminal `sweep_end` event) into `stream`, in enumeration order:
    /// out-of-order completions from parallel workers are buffered until
    /// every earlier point has been emitted. With [`Sweep::with_metrics`]
    /// attached, each event also carries the hub's exact snapshot delta.
    pub fn stream(mut self, stream: Arc<ProgressStream>) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Cooperative cancellation: once `flag` becomes true, points that
    /// have not started yet finish as [`SweepOutcome::Skipped`] with
    /// reason `"canceled"` (in-flight points run to completion — the
    /// engine has no preemption point). Canceled points still flow
    /// through the outcomes and the stream, so a consumer sees every
    /// index plus the terminal `sweep_end` event and can tell a canceled
    /// sweep from a truncated stream.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Number of points: specs × job variants × microbatch sizes.
    pub(crate) fn len(&self) -> usize {
        self.specs.len() * self.jobs_per_spec.len() * self.microbatches.len()
    }

    /// The worker count asked for with [`Sweep::workers`].
    pub(crate) fn worker_count(&self) -> usize {
        self.workers
    }

    /// The point at `index` in enumeration order (spec-major, then job
    /// variant, then microbatch) and the experiment that runs it: the base
    /// plus the point's job and spec. `None` outside the grid. The sweep's
    /// workers and the server's trace download both build points here.
    pub(crate) fn point(&self, index: usize) -> Option<(SweepPoint, ExperimentBuilder)> {
        if index >= self.len() {
            return None;
        }
        let per_job = self.microbatches.len();
        let per_spec = self.jobs_per_spec.len() * per_job;
        let spec = self.specs[index / per_spec];
        let microbatch = self.microbatches[index % per_job];
        let job = self.jobs_per_spec[index % per_spec / per_job]
            .clone()
            .with_microbatch(microbatch);
        let point = SweepPoint {
            index,
            spec,
            optimization: job.optim.label(),
            microbatch,
        };
        Some((point, self.base.clone().job(job).spec(spec)))
    }

    /// Every point with its experiment, in enumeration order.
    fn grid(&self) -> impl Iterator<Item = (SweepPoint, ExperimentBuilder)> + '_ {
        (0..self.len()).filter_map(|index| self.point(index))
    }

    /// The points this sweep will execute, in order.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.grid().map(|(point, _)| point).collect()
    }

    /// Execute every point and return one structured [`SweepOutcome`] per
    /// point, in enumeration order.
    ///
    /// This is the observable form of the sweep: completed points carry
    /// their report, failing points carry a skip reason (default mode) or
    /// the error itself (strict mode). Nothing is printed.
    pub fn run_outcomes(&self) -> Vec<SweepOutcome> {
        let grid: Vec<(SweepPoint, ExperimentBuilder)> = self.grid().collect();
        let total = grid.len();
        let hub = self.metrics.as_ref();
        // One cache for the whole pool: workers publish lowered traces and
        // plan sets as they build them, so points sharing a workload (or a
        // later sweep via `with_cache`) skip that work entirely.
        let own_cache = (!self.base.has_cache()).then(|| {
            Arc::new(match hub {
                Some(h) => SimCache::with_metrics(&h.shard(0)),
                None => SimCache::new(),
            })
        });
        let counters = hub.map(SweepCounters::new);
        if let Some(c) = &counters {
            c.points_total.set(total as f64);
        }
        let executor = Executor::with_workers(self.workers);
        let pool_width = executor.workers().min(total.max(1));
        let busy_ms: Vec<AtomicU64> = (0..pool_width).map(|_| AtomicU64::new(0)).collect();
        let started = Instant::now();
        let emit = Mutex::new(EmitState::default());

        let outcomes = executor.run_with_worker(&grid, |worker, _, (point, builder)| {
            if self
                .cancel
                .as_ref()
                .is_some_and(|f| f.load(AtomicOrdering::Relaxed))
            {
                let outcome = SweepOutcome::Skipped {
                    point: point.clone(),
                    reason: "canceled".into(),
                };
                self.note_finished(&emit, counters.as_ref(), hub, started, total, &outcome);
                return outcome;
            }
            let point_started = Instant::now();
            let mut builder = builder.clone();
            if let Some(cache) = &own_cache {
                builder = builder.cache(Arc::clone(cache));
            }
            if let Some(h) = hub {
                builder = builder.metrics(h.shard(worker));
            }
            let result = builder.run();
            let outcome = match result {
                Ok(report) => SweepOutcome::Completed {
                    point: point.clone(),
                    report: Box::new(report),
                },
                Err(e) if self.skip_failures => SweepOutcome::Skipped {
                    point: point.clone(),
                    reason: e.to_string(),
                },
                Err(error) => SweepOutcome::Failed {
                    point: point.clone(),
                    error,
                },
            };
            let busy = point_started.elapsed().as_millis() as u64;
            if let Some(slot) = busy_ms.get(worker) {
                slot.fetch_add(busy, AtomicOrdering::Relaxed);
            }
            if let Some(h) = hub {
                h.shard(worker)
                    .counter(
                        "sweep_worker_busy_ms_total",
                        &[("worker", &worker.to_string())],
                    )
                    .add(busy);
            }
            self.note_finished(&emit, counters.as_ref(), hub, started, total, &outcome);
            outcome
        });

        let wall_s = started.elapsed().as_secs_f64();
        if let Some(h) = hub {
            for (w, slot) in busy_ms.iter().enumerate() {
                let busy_s = slot.load(AtomicOrdering::Relaxed) as f64 / 1e3;
                h.shard(w)
                    .gauge("sweep_worker_utilization", &[("worker", &w.to_string())])
                    .set(if wall_s > 0.0 { busy_s / wall_s } else { 0.0 });
            }
        }
        if let Some(stream) = &self.stream {
            let st = emit.lock().expect("sweep emit state poisoned");
            let snapshot = match hub {
                Some(h) => h.snapshot().to_json(),
                None => Value::Null,
            };
            stream.emit(&ProgressEvent {
                event: "sweep_end".into(),
                seq: st.seq,
                index: total,
                total,
                completed: st.completed,
                skipped: st.skipped,
                failed: st.failed,
                outcome: String::new(),
                point: String::new(),
                reason: String::new(),
                step_time_s: 0.0,
                tokens_per_s: 0.0,
                energy_per_step_j: 0.0,
                elapsed_s: wall_s,
                eta_s: 0.0,
                metrics: snapshot,
            });
        }
        outcomes
    }

    /// Finish-side bookkeeping for one point, under the emit lock: tallies,
    /// hub counters, and in-order stream emission (enumeration order,
    /// buffering gaps).
    fn note_finished(
        &self,
        emit: &Mutex<EmitState>,
        counters: Option<&SweepCounters>,
        hub: Option<&Arc<MetricsHub>>,
        started: Instant,
        total: usize,
        outcome: &SweepOutcome,
    ) {
        let mut st = emit.lock().expect("sweep emit state poisoned");
        match outcome {
            SweepOutcome::Completed { report, .. } => {
                st.completed += 1;
                if let Some(c) = counters {
                    c.completed.inc();
                    c.energy_mj
                        .add((report.energy_per_step_j * 1e3).round() as u64);
                }
            }
            SweepOutcome::Skipped { .. } => {
                st.skipped += 1;
                if let Some(c) = counters {
                    c.skipped.inc();
                }
            }
            SweepOutcome::Failed { .. } => {
                st.failed += 1;
                if let Some(c) = counters {
                    c.failed.inc();
                }
            }
        }
        let finished = st.completed + st.skipped + st.failed;
        let elapsed = started.elapsed().as_secs_f64();
        let eta = elapsed / finished as f64 * (total - finished) as f64;
        if let Some(c) = counters {
            c.elapsed_s.set(elapsed);
            c.eta_s.set(eta);
        }
        let Some(stream) = &self.stream else { return };
        st.pending
            .insert(outcome.point().index, PointSummary::of(outcome));
        loop {
            let next = st.next_emit;
            let Some(p) = st.pending.remove(&next) else {
                break;
            };
            let (delta, snapshot) = match hub {
                Some(h) => {
                    let snap = h.snapshot();
                    let delta = match &st.last_snapshot {
                        Some(last) => snap.diff(last),
                        None => snap.clone(),
                    };
                    (delta.to_json(), Some(snap))
                }
                None => (Value::Null, None),
            };
            stream.emit(&ProgressEvent {
                event: "point".into(),
                seq: st.seq,
                index: p.index,
                total,
                completed: st.completed,
                skipped: st.skipped,
                failed: st.failed,
                outcome: p.outcome.into(),
                point: p.point,
                reason: p.reason,
                step_time_s: p.step_time_s,
                tokens_per_s: p.tokens_per_s,
                energy_per_step_j: p.energy_per_step_j,
                elapsed_s: started.elapsed().as_secs_f64(),
                eta_s: eta,
                metrics: delta,
            });
            st.last_snapshot = snapshot;
            st.seq += 1;
            st.next_emit += 1;
        }
    }

    /// Execute every point of the sweep and collect the completed reports
    /// in enumeration order.
    ///
    /// # Errors
    ///
    /// In strict mode, the failure at the earliest point (in enumeration
    /// order, independent of worker scheduling) aborts the sweep;
    /// otherwise failing points are skipped (observe them via
    /// [`Sweep::run_outcomes`] or [`Sweep::stream`]).
    pub fn run(&self) -> Result<Vec<RunReport>, CoreError> {
        let mut reports = Vec::new();
        for outcome in self.run_outcomes() {
            match outcome {
                SweepOutcome::Completed { report, .. } => reports.push(*report),
                SweepOutcome::Skipped { .. } => {}
                SweepOutcome::Failed { error, .. } => return Err(error),
            }
        }
        Ok(reports)
    }
}

/// Total descending order on metric values: higher finite values first,
/// non-finite values (NaN, ±∞) last.
///
/// Replaces `partial_cmp(..).expect(..)` comparators, which panic the
/// moment a degenerate configuration produces a NaN metric.
pub fn rank_desc(a: f64, b: f64) -> Ordering {
    match (a.is_finite(), b.is_finite()) {
        (true, true) => b.total_cmp(&a),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// The best report by a metric (higher is better). Reports with
/// non-finite metric values are ignored; returns `None` if no report has
/// a finite metric. Ties keep the earliest report.
pub fn best_by(reports: &[RunReport], metric: impl Fn(&RunReport) -> f64) -> Option<&RunReport> {
    reports
        .iter()
        .filter(|r| metric(r).is_finite())
        .min_by(|a, b| rank_desc(metric(a), metric(b)))
}

/// Normalize a metric across reports to the best value (the paper's
/// "efficiency normalized per model, best = 1"). Non-finite metric values
/// normalize to 0 and do not influence the best.
pub fn normalized<'a>(
    reports: &'a [RunReport],
    metric: impl Fn(&RunReport) -> f64 + 'a,
) -> impl Iterator<Item = (&'a RunReport, f64)> + 'a {
    let best = reports
        .iter()
        .map(&metric)
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    reports.iter().map(move |r| {
        let v = metric(r);
        (
            r,
            if best > 0.0 && v.is_finite() {
                v / best
            } else {
                0.0
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::single_hgx_node;
    use charllm_models::presets as models;

    fn small_sweep(specs: Vec<ParallelismSpec>) -> Sweep {
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(4);
        Sweep::new(single_hgx_node(), job, specs).with_sim_config(SimConfig::fast())
    }

    fn mixed_specs() -> Vec<ParallelismSpec> {
        vec![
            // PP=16 does not divide into 8 GPUs with TP2: invalid world.
            ParallelismSpec::new(2, 16, 1, 1, false).unwrap(),
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
        ]
    }

    #[test]
    fn sweep_runs_multiple_specs() {
        let specs = vec![
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
        ];
        let reports = small_sweep(specs).run().unwrap();
        assert_eq!(reports.len(), 2);
        assert_ne!(reports[0].parallelism, reports[1].parallelism);
    }

    #[test]
    fn infeasible_points_skipped() {
        let reports = small_sweep(mixed_specs()).run().unwrap();
        assert_eq!(reports.len(), 1, "bad point skipped, good one kept");
    }

    #[test]
    fn skipped_points_surface_as_structured_outcomes() {
        let outcomes = small_sweep(mixed_specs()).run_outcomes();
        assert_eq!(outcomes.len(), 2, "one outcome per point, skipped included");
        let SweepOutcome::Skipped { point, reason } = &outcomes[0] else {
            panic!("infeasible point should be Skipped, got {:?}", outcomes[0]);
        };
        assert_eq!(point.index, 0);
        assert_eq!(point.spec.label(), "TP2-PP16");
        assert!(!reason.is_empty(), "skip carries the rendered error");
        assert!(outcomes[1].report().is_some());
        assert!(!outcomes[1].is_skipped());
    }

    #[test]
    fn strict_mode_propagates_errors() {
        let specs = vec![ParallelismSpec::new(2, 16, 1, 1, false).unwrap()];
        let err = small_sweep(specs).strict().run();
        assert!(err.is_err());
    }

    #[test]
    fn strict_failures_are_failed_outcomes() {
        let outcomes = small_sweep(mixed_specs()).strict().run_outcomes();
        assert!(matches!(&outcomes[0], SweepOutcome::Failed { .. }));
        assert!(outcomes[1].report().is_some());
    }

    #[test]
    fn cached_sweep_matches_uncached_byte_for_byte() {
        let specs = vec![
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
        ];
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(4);
        let cold: Vec<RunReport> = specs
            .iter()
            .map(|spec| {
                Experiment::builder()
                    .cluster(single_hgx_node())
                    .job(job.clone())
                    .spec(*spec)
                    .sim_config(SimConfig::fast())
                    .run()
                    .unwrap()
            })
            .collect();
        let cached = small_sweep(specs).run().unwrap();
        assert_eq!(cold.len(), cached.len());
        for (a, b) in cold.iter().zip(&cached) {
            assert!(a.cache.is_none(), "an uncached run leaves no counters");
            let stats = b.cache.expect("cached run records counters");
            assert_eq!(stats.lookups(), 2, "one lowered + one plan lookup");
            assert_eq!(
                serde_json::to_string(&a.sim).unwrap(),
                serde_json::to_string(&b.sim).unwrap(),
                "memoization must not change simulation results"
            );
        }
    }

    #[test]
    fn shared_cache_hits_across_sweeps() {
        use crate::cache::SimCache;
        let specs = vec![ParallelismSpec::parse("TP2-PP2", 8).unwrap()];
        let cache = Arc::new(SimCache::new());
        let first = small_sweep(specs.clone())
            .with_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        let stats = first[0].cache.unwrap();
        assert_eq!(stats.lowered_misses, 1, "cold cache builds the trace");
        assert_eq!(stats.plan_misses, 1);
        // Same workload again (an ablation re-run): everything is served.
        let second = small_sweep(specs)
            .with_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        let stats = second[0].cache.unwrap();
        assert_eq!(stats.lowered_hits, 1, "warm cache serves the trace");
        assert_eq!(stats.plan_hits, 1, "warm cache serves the plan set");
        assert_eq!(
            serde_json::to_string(&first[0].sim).unwrap(),
            serde_json::to_string(&second[0].sim).unwrap(),
            "shared plans must not change simulation results"
        );
        let total = cache.stats();
        assert_eq!(total.lowered_hits, 1);
        assert_eq!(total.lowered_misses, 1);
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        let specs = vec![
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP8", 8).unwrap(),
        ];
        let serial = small_sweep(specs.clone())
            .with_microbatches(vec![1, 2])
            .workers(1)
            .run()
            .unwrap();
        let parallel = small_sweep(specs)
            .with_microbatches(vec![1, 2])
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(
            serial, parallel,
            "multi-worker run must match workers(1) exactly"
        );
    }

    #[test]
    fn points_enumerates_grid_in_order() {
        let sweep = small_sweep(mixed_specs()).with_microbatches(vec![1, 2]);
        let points = sweep.points();
        assert_eq!(points.len(), 4);
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        assert_eq!(points[0].spec.label(), "TP2-PP16");
        assert_eq!(points[0].microbatch, 1);
        assert_eq!(points[1].microbatch, 2);
        assert_eq!(points[2].spec.label(), "TP2-PP2");
    }

    #[test]
    fn normalization_maps_best_to_one() {
        let specs = vec![
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
        ];
        let reports = small_sweep(specs).run().unwrap();
        let values: Vec<f64> = normalized(&reports, |r| r.tokens_per_joule)
            .map(|(_, v)| v)
            .collect();
        assert!(values.iter().cloned().fold(0.0, f64::max) == 1.0);
        assert!(values.iter().all(|&v| v > 0.0 && v <= 1.0));
    }

    #[test]
    fn rank_desc_is_total_and_puts_non_finite_last() {
        let mut values = [f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY, 2.0];
        values.sort_by(|a, b| rank_desc(*a, *b));
        assert_eq!(values[0], 3.0);
        assert_eq!(values[1], 2.0);
        assert_eq!(values[2], 1.0);
        assert!(values[3..].iter().all(|v| !v.is_finite()));
        // Total: sorting a NaN-bearing slice must not panic (it just did
        // not) and must be deterministic.
        let mut again = [f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY, 2.0];
        again.sort_by(|a, b| rank_desc(*a, *b));
        assert_eq!(values[..3], again[..3]);
    }

    #[test]
    fn best_by_ignores_non_finite_metrics() {
        let specs = vec![ParallelismSpec::parse("TP2-PP2", 8).unwrap()];
        let reports = small_sweep(specs).run().unwrap();
        // A NaN metric must not panic and must not win.
        let best = best_by(&reports, |r| {
            if r.parallelism == "TP2-PP2" {
                f64::NAN
            } else {
                r.tokens_per_s
            }
        });
        assert!(best.is_none(), "all metrics NaN -> no best");
        let best = best_by(&reports, |r| r.tokens_per_s);
        assert!(best.is_some());
    }

    #[test]
    fn normalized_handles_nan_metrics_without_panicking() {
        let specs = vec![
            ParallelismSpec::parse("TP2-PP2", 8).unwrap(),
            ParallelismSpec::parse("TP4-PP2", 8).unwrap(),
        ];
        let reports = small_sweep(specs).run().unwrap();
        let values: Vec<f64> = normalized(&reports, |r| {
            if r.parallelism == "TP2-PP2" {
                f64::NAN
            } else {
                r.tokens_per_s
            }
        })
        .map(|(_, v)| v)
        .collect();
        assert_eq!(values.len(), 2);
        let nan_idx = reports
            .iter()
            .position(|r| r.parallelism == "TP2-PP2")
            .unwrap();
        assert_eq!(values[nan_idx], 0.0, "NaN metric normalizes to 0");
        assert_eq!(values[1 - nan_idx], 1.0, "finite best still maps to 1");
    }
}
