//! Experiment definition and execution.

use std::sync::Arc;

use serde_json::Value;

use charllm_hw::{Cluster, GpuId};
use charllm_models::TrainJob;
use charllm_parallel::{ParallelismSpec, PipelineSchedule, Placement, StagePartition};
use charllm_sim::{FaultPlan, NoopObserver, SimConfig, SimObserver, SimResult, Simulator};
use charllm_telemetry::aggregate::group_mean;
use charllm_telemetry::metrics::MetricsShard;
use charllm_telemetry::{chrome_trace, phase, SpanRecorder, StageTimer};
use charllm_trace::lower::LoweredJob;
use charllm_trace::{lower_inference, lower_train, DeviceHints, ExecutionTrace, InferenceConfig};

use crate::cache::{CacheHit, CacheStats, Family, SimCache};
use crate::error::CoreError;
use crate::report::RunReport;

/// What [`Experiment::lower`] resolved for a run.
pub(crate) struct Lowering {
    pub(crate) placement: Placement,
    pub(crate) lowered: Arc<LoweredJob>,
    /// With a cache attached: the cache, the trace's content key and
    /// where the trace was served from.
    cached: Option<(Arc<SimCache>, String, CacheHit)>,
}

/// One fully specified run: cluster × job × parallelism × schedule ×
/// placement × simulator configuration.
///
/// The cluster is held behind an [`Arc`] so sweep/search executors can fan
/// hundreds of points across worker threads without deep-cloning the
/// topology per point.
#[derive(Debug, Clone)]
pub struct Experiment {
    cluster: Arc<Cluster>,
    job: TrainJob,
    spec: ParallelismSpec,
    schedule: PipelineSchedule,
    partition: Option<StagePartition>,
    placement: Option<Placement>,
    sim: SimConfig,
    inference: Option<InferenceConfig>,
    profiled: bool,
    cache: Option<Arc<SimCache>>,
    faults: Option<FaultPlan>,
    metrics: Option<MetricsShard>,
    self_profile: bool,
}

impl Experiment {
    /// Start building an experiment.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Execute: lower the workload, simulate, and assemble a report.
    ///
    /// # Errors
    ///
    /// Propagates configuration, lowering and simulation errors.
    pub fn run(&self) -> Result<RunReport, CoreError> {
        let (report, ()) = if self.profiled {
            let iterations = self.sim.iterations;
            self.run_observed(
                |trace| SpanRecorder::for_trace(trace, iterations),
                |result, recorder| {
                    result.profile =
                        Some(phase::attribute(&recorder, result.sim_time_s, iterations));
                },
            )?
        } else {
            self.run_observed(|_| NoopObserver, |_, _| ())?
        };
        Ok(report)
    }

    /// Run with a fresh [`SpanRecorder`] attached and export the Chrome
    /// `traceEvents` JSON ([`chrome_trace::export`]) of every span.
    pub(crate) fn chrome_trace(&self) -> Result<Value, CoreError> {
        let (_, recorder) = self.run_observed(|_| SpanRecorder::new(), |_, recorder| recorder)?;
        let node_of_gpu: Vec<usize> = (0..self.cluster.num_gpus())
            .map(|g| self.cluster.node_of(GpuId(g as u32)).index())
            .collect();
        Ok(chrome_trace::export(&recorder, &node_of_gpu))
    }

    /// Resolve partition, placement and device hints, then fetch the
    /// lowered trace: by content key from the attached cache, else lowered
    /// directly. No plan lookup, so an analytic screen that only needs the
    /// trace leaves the plan counters alone.
    ///
    /// # Errors
    ///
    /// Propagates partition, placement and lowering errors.
    pub(crate) fn lower(&self) -> Result<Lowering, CoreError> {
        let partition = match &self.partition {
            Some(p) => p.clone(),
            None => StagePartition::even(self.job.arch.num_layers, self.spec.pp)?,
        };
        let placement = match &self.placement {
            Some(p) => p.clone(),
            None => Placement::identity(&self.cluster, self.spec.world())?,
        };
        let hints = DeviceHints::for_spec(self.cluster.gpu());
        let lower = || match &self.inference {
            None => lower_train(&self.job, &self.spec, self.schedule, &partition, &hints)
                .map_err(CoreError::from),
            Some(cfg) => lower_inference(&self.job, &self.spec, &partition, &hints, *cfg)
                .map_err(CoreError::from),
        };
        let Some(cache) = &self.cache else {
            return Ok(Lowering {
                placement,
                lowered: Arc::new(lower()?),
                cached: None,
            });
        };
        let mut key = SimCache::lowered_key(
            &self.job,
            &self.spec,
            self.schedule,
            &partition,
            &hints,
            self.inference.as_ref(),
        );
        // The fault plan participates in the cache key. This is
        // conservative — faults perturb neither the lowered trace nor the
        // collective plans — but it keeps the key an exact content hash of
        // everything that shapes the run, and repeated points of an MTBF
        // sweep (same plan) still hit.
        if let Some(plan) = &self.faults {
            key.push('|');
            key.push_str(&serde_json::to_string(plan).expect("fault plan serializes"));
        }
        let (lowered, hit) = cache.lowered(&key, lower)?;
        Ok(Lowering {
            placement,
            lowered,
            cached: Some((Arc::clone(cache), key, hit)),
        })
    }

    /// The one run path: lower, fetch plans, build the engine with the
    /// observer `observe` makes for the trace, run it, let `finish` fold
    /// the observer into the result, and report — timing each stage.
    fn run_observed<O: SimObserver, T>(
        &self,
        observe: impl FnOnce(&ExecutionTrace) -> O,
        finish: impl FnOnce(&mut SimResult, O) -> T,
    ) -> Result<(RunReport, T), CoreError> {
        let shard = self.metrics.as_ref().filter(|s| s.enabled());
        // Host-side self-profiling: four `Instant::now` calls per run, so
        // the timer runs whenever anything will read it (`self_profile`
        // puts the timings on the report; an attached shard feeds the
        // `sim_stage_seconds` histogram).
        let mut timer = (self.self_profile || shard.is_some()).then(StageTimer::start);
        let mut mark = |stage: &str| {
            if let Some(t) = &mut timer {
                t.mark(stage);
            }
        };
        let Lowering {
            placement,
            lowered,
            cached,
        } = self.lower()?;
        // With a cache attached, lowering and collective-plan construction
        // are served by content key; results are byte-identical either way
        // (the trace is the same artifact, and shared plans are pure
        // functions of cluster × placement × trace).
        let (shared, mut cache_stats) = match cached {
            None => (None, None),
            Some((cache, key, lowered_hit)) => {
                let (shared, plan_hit) =
                    cache.plans(&self.cluster, &placement, &key, &lowered.trace, 1);
                let disk = cache.has_disk_tier();
                let stats = CacheStats::lookup(Family::Lowered, lowered_hit, disk)
                    .add(&CacheStats::lookup(Family::Plans, plan_hit, disk));
                (Some(shared), Some(stats))
            }
        };
        mark("lower");
        let observer = observe(&lowered.trace);
        let mut sim = Simulator::with_observer(
            &self.cluster,
            &placement,
            &lowered.trace,
            self.sim,
            observer,
        )?;
        if let Some(shared) = shared {
            sim = sim.with_shared_plans(shared)?;
        }
        if let Some(plan) = &self.faults {
            sim = sim.with_faults(plan)?;
        }
        if let Some(s) = shard {
            sim = sim.with_metrics(s);
        }
        mark("plan_setup");
        let (mut result, observer) = sim.run_observed()?;
        let finished = finish(&mut result, observer);
        mark("event_loop");
        // Persist what this run added to the cache only now: the shared
        // plan set filled lazily *during* the simulation, so syncing any
        // earlier would write an empty set.
        if let Some(cache) = &self.cache {
            let written = cache.sync_disk()?;
            if let Some(stats) = &mut cache_stats {
                stats.bytes_written = written;
            }
        }
        let mut report = self.report(result, &placement);
        report.cache = cache_stats;
        mark("report");
        if let Some(t) = timer {
            let timings = t.finish();
            if let Some(s) = shard {
                timings.publish(s);
            }
            if self.self_profile {
                report.stages = Some(timings);
            }
        }
        Ok((report, finished))
    }

    fn report(&self, sim: SimResult, placement: &Placement) -> RunReport {
        let airflow = &self.cluster.node_layout().airflow;
        let telem = &sim.telemetry;
        let used: Vec<usize> = placement.iter().map(|(_, g)| g.index()).collect();
        let front: Vec<usize> = used
            .iter()
            .copied()
            .filter(|&g| !airflow.is_rear(self.cluster.slot_of(charllm_hw::GpuId(g as u32))))
            .collect();
        let rear: Vec<usize> = used
            .iter()
            .copied()
            .filter(|&g| airflow.is_rear(self.cluster.slot_of(charllm_hw::GpuId(g as u32))))
            .collect();
        let front_temp = group_mean(front.iter().map(|&g| telem.temp(g)));
        let rear_temp = group_mean(rear.iter().map(|&g| telem.temp(g)));
        let throttles: Vec<f64> = used.iter().map(|&g| sim.throttle_ratio[g]).collect();
        let mean_throttle = if throttles.is_empty() {
            0.0
        } else {
            throttles.iter().sum::<f64>() / throttles.len() as f64
        };
        let max_throttle = throttles.iter().copied().fold(0.0, f64::max);
        let optimization = self.job.optim.label();
        RunReport {
            label: format!(
                "{} {} {} mb{} on {}",
                self.job.arch.name,
                self.spec.label(),
                optimization,
                self.job.microbatch,
                self.cluster.name()
            ),
            cluster: self.cluster.name().to_string(),
            model: self.job.arch.name.clone(),
            parallelism: self.spec.label(),
            optimization,
            microbatch: self.job.microbatch,
            step_time_s: sim.step_time_s,
            tokens_per_s: sim.tokens_per_s,
            tokens_per_s_per_gpu: sim.tokens_per_s / self.spec.world() as f64,
            tokens_per_joule: sim.tokens_per_joule,
            energy_per_step_j: sim.energy_per_step_j,
            mean_power_w: telem.mean_power_w(),
            peak_power_w: telem.peak_power_w(),
            mean_temp_c: telem.mean_temp_c(),
            peak_temp_c: telem.peak_temp_c(),
            mean_freq_mhz: telem.mean_freq_mhz(),
            front_temp_c: front_temp,
            rear_temp_c: rear_temp,
            mean_throttle,
            max_throttle,
            cache: None,
            stages: None,
            sim,
        }
    }

    /// The parallelism spec in effect.
    pub fn spec(&self) -> &ParallelismSpec {
        &self.spec
    }

    /// The job in effect.
    pub fn job(&self) -> &TrainJob {
        &self.job
    }

    /// The cluster in effect.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

/// Builder for [`Experiment`].
#[derive(Debug, Default, Clone)]
pub struct ExperimentBuilder {
    cluster: Option<Arc<Cluster>>,
    job: Option<TrainJob>,
    spec: Option<ParallelismSpec>,
    schedule: PipelineSchedule,
    partition: Option<StagePartition>,
    placement: Option<Placement>,
    sim: Option<SimConfig>,
    inference: Option<InferenceConfig>,
    profiled: bool,
    cache: Option<Arc<SimCache>>,
    faults: Option<FaultPlan>,
    metrics: Option<MetricsShard>,
    self_profile: bool,
}

impl ExperimentBuilder {
    /// Target cluster.
    ///
    /// Accepts an owned [`Cluster`] or an [`Arc<Cluster>`]; executors pass
    /// a shared `Arc` so that per-point builds never clone the topology.
    pub fn cluster(mut self, cluster: impl Into<Arc<Cluster>>) -> Self {
        self.cluster = Some(cluster.into());
        self
    }

    /// Workload.
    pub fn job(mut self, job: TrainJob) -> Self {
        self.job = Some(job);
        self
    }

    /// Parallelism from a paper-style label (requires `cluster` first so DP
    /// can be inferred).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incomplete`] if the cluster is unset and
    /// propagates label parse errors.
    pub fn parallelism(mut self, label: &str) -> Result<Self, CoreError> {
        let world = self
            .cluster
            .as_ref()
            .ok_or_else(|| CoreError::Incomplete("set cluster before parallelism".into()))?
            .num_gpus();
        self.spec = Some(ParallelismSpec::parse(label, world)?);
        Ok(self)
    }

    /// Parallelism from an explicit spec.
    pub fn spec(mut self, spec: ParallelismSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Pipeline schedule (default 1F1B).
    pub fn schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Explicit stage partition (default even split).
    pub fn partition(mut self, partition: StagePartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Explicit rank placement (default identity).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Simulator configuration (default [`SimConfig::default`]).
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Run inference instead of training.
    pub fn inference(mut self, cfg: InferenceConfig) -> Self {
        self.inference = Some(cfg);
        self
    }

    /// Record span streams during the run and attach the phase/energy
    /// attribution to `report.sim.profile` (default off; off costs nothing).
    pub fn profiled(mut self, profiled: bool) -> Self {
        self.profiled = profiled;
        self
    }

    /// Serve lowering and collective-plan construction from a shared
    /// [`SimCache`] (and publish what this run builds). Sweeps and
    /// searches attach one cache across all their points; per-run hit/miss
    /// counts land in [`RunReport::cache`](crate::RunReport::cache).
    pub fn cache(mut self, cache: Arc<SimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Inject a [`FaultPlan`] into the run: scheduled failures plus the
    /// recovery cost model, reported as goodput / wasted energy / restarts
    /// on the result. An empty plan is equivalent to not calling this.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Publish live metrics to `shard` while the run executes: the engine's
    /// `sim_*` gauges (sampled at control boundaries, see
    /// [`Simulator::with_metrics`]) and the per-stage `sim_stage_seconds`
    /// histogram. A disabled shard costs nothing; the run's results are
    /// byte-identical either way.
    pub fn metrics(mut self, shard: MetricsShard) -> Self {
        self.metrics = Some(shard);
        self
    }

    /// Record host-side wall time per pipeline stage (`lower`,
    /// `plan_setup`, `event_loop`, `report`) into
    /// [`RunReport::stages`](crate::RunReport::stages). Off by default so
    /// reports compare equal across profiled and unprofiled runs.
    pub fn self_profile(mut self, on: bool) -> Self {
        self.self_profile = on;
        self
    }

    /// Finalize into an [`Experiment`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incomplete`] when cluster, job or parallelism is
    /// missing.
    pub fn build(self) -> Result<Experiment, CoreError> {
        let cluster = self
            .cluster
            .ok_or_else(|| CoreError::Incomplete("cluster unset".into()))?;
        let job = self
            .job
            .ok_or_else(|| CoreError::Incomplete("job unset".into()))?;
        let spec = self
            .spec
            .ok_or_else(|| CoreError::Incomplete("parallelism unset".into()))?;
        Ok(Experiment {
            cluster,
            job,
            spec,
            schedule: self.schedule,
            partition: self.partition,
            placement: self.placement,
            sim: self.sim.unwrap_or_default(),
            inference: self.inference,
            profiled: self.profiled,
            cache: self.cache,
            faults: self.faults,
            metrics: self.metrics,
            self_profile: self.self_profile,
        })
    }

    /// Build and run in one call.
    ///
    /// # Errors
    ///
    /// See [`ExperimentBuilder::build`] and [`Experiment::run`].
    pub fn run(self) -> Result<RunReport, CoreError> {
        self.build()?.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::single_hgx_node;
    use charllm_models::presets as models;

    fn small_job() -> TrainJob {
        TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8)
    }

    #[test]
    fn builder_requires_all_parts() {
        assert!(Experiment::builder().build().is_err());
        assert!(Experiment::builder()
            .cluster(single_hgx_node())
            .build()
            .is_err());
        assert!(Experiment::builder()
            .cluster(single_hgx_node())
            .job(small_job())
            .build()
            .is_err());
    }

    #[test]
    fn parallelism_requires_cluster_first() {
        assert!(Experiment::builder().parallelism("TP2-PP2").is_err());
    }

    #[test]
    fn end_to_end_run_produces_consistent_report() {
        let report = Experiment::builder()
            .cluster(single_hgx_node())
            .job(small_job())
            .parallelism("TP2-PP2")
            .unwrap()
            .sim_config(SimConfig::fast())
            .run()
            .unwrap();
        assert_eq!(report.cluster, "8xH200");
        assert_eq!(report.parallelism, "TP2-PP2");
        assert!(report.tokens_per_s > 0.0);
        assert!((report.tokens_per_s_per_gpu * 8.0 - report.tokens_per_s).abs() < 1.0);
        assert!(report.mean_power_w > 100.0);
        assert!(
            report.rear_temp_c > report.front_temp_c,
            "airflow imbalance visible"
        );
        assert!(report.peak_temp_c >= report.mean_temp_c);
    }

    #[test]
    fn profiled_run_attaches_attribution() {
        let report = Experiment::builder()
            .cluster(single_hgx_node())
            .job(small_job())
            .parallelism("TP2-PP2")
            .unwrap()
            .sim_config(SimConfig::fast())
            .profiled(true)
            .run()
            .unwrap();
        let profile = report.sim.profile.as_ref().expect("profiled run");
        assert_eq!(profile.world(), 8);
        assert!(!profile.top_spans.is_empty());
        // Per-rank phase time tiles the makespan.
        for b in &profile.rank_phases {
            let rel = (b.total_seconds() - profile.makespan_s).abs() / profile.makespan_s;
            assert!(
                rel < 1e-9,
                "rank phases {} vs makespan {}",
                b.total_seconds(),
                profile.makespan_s
            );
        }
        assert!(report.profile_summary().contains("compute"));
    }

    #[test]
    fn inference_experiment_runs() {
        let report = Experiment::builder()
            .cluster(single_hgx_node())
            .job(TrainJob::pretrain(models::gpt3_13b()))
            .parallelism("TP4-PP2")
            .unwrap()
            .inference(InferenceConfig {
                batch: 2,
                prompt_len: 128,
                decode_tokens: 4,
            })
            .sim_config(SimConfig::fast())
            .run()
            .unwrap();
        assert!(report.tokens_per_s > 0.0);
        assert!(report.step_time_s > 0.0);
    }

    #[test]
    fn thermal_aware_placement_accepted() {
        use charllm_parallel::thermal_aware;
        let cluster = single_hgx_node();
        let placement = thermal_aware::symmetric_placement(&cluster).unwrap();
        let spec = thermal_aware::thermal_pp_spec(&cluster).unwrap();
        let report = Experiment::builder()
            .cluster(cluster)
            .job(
                TrainJob::pretrain(models::gpt3_13b())
                    .with_global_batch(4)
                    .with_recompute(true),
            )
            .spec(spec)
            .placement(placement)
            .sim_config(SimConfig::fast())
            .run()
            .unwrap();
        assert!(report.tokens_per_s > 0.0);
    }
}
