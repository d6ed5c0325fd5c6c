//! Configuration search: the paper's closing recommendation — "strategy-
//! aware, topology-conscious tuning of system parameters" — as an
//! executable tool.
//!
//! [`search_configs`] enumerates every feasible parallelism configuration
//! for a model × cluster pair, scores each with the fast analytic estimator
//! ([`charllm_sim::analytic`]), and fully simulates the top candidates to
//! produce a ranked list with power/thermal context.

use std::cmp::Ordering;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::enumerate::{valid_configs, EnumerateOptions};
use charllm_parallel::ParallelismSpec;
use charllm_sim::analytic::{estimate, AnalyticEstimate};
use charllm_sim::SimConfig;

use crate::cache::SimCache;
use crate::error::CoreError;
use crate::executor::Executor;
use crate::experiment::Experiment;
use crate::report::RunReport;
use crate::sweep::rank_desc;

/// What the search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Objective {
    /// Maximize training throughput (tokens/s).
    #[default]
    Throughput,
    /// Maximize energy efficiency (tokens/J).
    Efficiency,
}

/// One scored candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The configuration.
    pub spec: ParallelismSpec,
    /// The fast analytic screen.
    pub analytic: AnalyticEstimate,
    /// The full simulation report (only for finalists).
    pub report: Option<RunReport>,
}

/// Search options.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Objective to rank by.
    pub objective: Objective,
    /// How many analytically screened candidates get a full simulation.
    pub finalists: usize,
    /// Simulator configuration for the finalists.
    pub sim: SimConfig,
    /// Worker threads for the finalist simulations: `0` (the default)
    /// means one per available core, `1` simulates serially.
    pub workers: usize,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            objective: Objective::default(),
            finalists: 3,
            sim: SimConfig::default(),
            workers: 0,
        }
    }
}

/// Enumerate, screen and rank configurations for a job on a cluster.
///
/// Returns candidates sorted best-first in two explicit tiers: the
/// simulated finalists ranked by the objective's measured metric, then
/// every remaining screened candidate ranked by its analytic throughput
/// estimate. A finalist always precedes a non-finalist — the two tiers'
/// metrics live on different scales (measured tokens/J vs estimated
/// tokens/s) and are never compared against each other.
///
/// Finalist simulations are independent, so they fan out across an
/// [`Executor`] worker pool (`opts.workers`; `1` is exactly serial) and
/// are reassembled in screening order before ranking, keeping the result
/// deterministic.
///
/// # Errors
///
/// Propagates lowering/simulation errors for finalists (the error of the
/// earliest failing finalist, independent of worker scheduling);
/// screening errors silently drop a candidate (infeasible corners are
/// expected).
pub fn search_configs(
    job: &TrainJob,
    cluster: &Cluster,
    opts: SearchOptions,
) -> Result<Vec<Candidate>, CoreError> {
    // Screening lowers every candidate; finalists are lowered again inside
    // their full simulation. Publishing the screen-phase traces into a
    // shared cache turns that second lowering into a lookup.
    search_configs_with_cache(job, cluster, opts, Arc::new(SimCache::new()))
}

/// [`search_configs`] against a caller-provided cache, so long-lived
/// holders (sweep drivers, the job server) share lowered traces and plans
/// across searches — and across concurrent sweeps — instead of rebuilding
/// them per call. A persistent cache additionally survives the process.
///
/// # Errors
///
/// See [`search_configs`].
pub fn search_configs_with_cache(
    job: &TrainJob,
    cluster: &Cluster,
    opts: SearchOptions,
    cache: Arc<SimCache>,
) -> Result<Vec<Candidate>, CoreError> {
    let specs = valid_configs(job, cluster, EnumerateOptions::default());
    // Screening and finalists build their runs from one base experiment,
    // so both look the lowering up under the same key.
    let base = Experiment::builder()
        .cluster(cluster.clone())
        .job(job.clone())
        .sim_config(opts.sim)
        .cache(cache);
    let mut screened: Vec<Candidate> = Vec::new();
    for spec in specs {
        let Ok(lowering) = base.clone().spec(spec).build().and_then(|e| e.lower()) else {
            continue;
        };
        let Ok(analytic) = estimate(cluster, &lowering.placement, &lowering.lowered.trace) else {
            continue;
        };
        screened.push(Candidate {
            spec,
            analytic,
            report: None,
        });
    }
    // Analytic ranking (throughput; efficiency needs power, so the full
    // simulation refines it among the finalists). A degenerate estimate
    // (NaN) ranks last instead of panicking the comparator.
    screened.sort_by(|a, b| rank_desc(a.analytic.tokens_per_s, b.analytic.tokens_per_s));

    let n = opts.finalists.min(screened.len());
    let finalists: Vec<ParallelismSpec> = screened[..n].iter().map(|c| c.spec).collect();
    let reports = Executor::with_workers(opts.workers)
        .run(&finalists, |_, spec| base.clone().spec(*spec).run());
    for (candidate, report) in screened.iter_mut().zip(reports) {
        candidate.report = Some(report?);
    }

    // Final ranking, in two explicit tiers: simulated finalists by the
    // objective's measured metric, then screened-only candidates by their
    // analytic throughput estimate. The tiers are ordered structurally
    // (report presence), never by comparing measured against estimated
    // values.
    let objective_metric = |r: &RunReport| match opts.objective {
        Objective::Throughput => r.tokens_per_s,
        Objective::Efficiency => r.tokens_per_joule,
    };
    screened.sort_by(|a, b| match (&a.report, &b.report) {
        (Some(ra), Some(rb)) => rank_desc(objective_metric(ra), objective_metric(rb)),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => rank_desc(a.analytic.tokens_per_s, b.analytic.tokens_per_s),
    });
    Ok(screened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::single_hgx_node;
    use charllm_models::presets as models;

    #[test]
    fn search_ranks_feasible_configs() {
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let opts = SearchOptions {
            finalists: 2,
            sim: SimConfig::fast(),
            ..Default::default()
        };
        let ranked = search_configs(&job, &cluster, opts).unwrap();
        assert!(ranked.len() >= 2, "expected several feasible configs");
        // Finalists carry full reports and are sorted by the objective.
        assert!(ranked[0].report.is_some());
        assert!(ranked[1].report.is_some());
        let a = ranked[0].report.as_ref().unwrap().tokens_per_s;
        let b = ranked[1].report.as_ref().unwrap().tokens_per_s;
        assert!(a >= b);
    }

    #[test]
    fn finalists_reuse_screen_phase_lowering() {
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let opts = SearchOptions {
            finalists: 2,
            sim: SimConfig::fast(),
            ..Default::default()
        };
        let ranked = search_configs(&job, &cluster, opts).unwrap();
        for finalist in ranked.iter().filter(|c| c.report.is_some()) {
            let stats = finalist.report.as_ref().unwrap().cache.unwrap();
            assert_eq!(
                stats.lowered_hits, 1,
                "the analytic screen already lowered every finalist"
            );
        }
    }

    #[test]
    fn efficiency_objective_uses_energy() {
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let opts = SearchOptions {
            objective: Objective::Efficiency,
            finalists: 2,
            sim: SimConfig::fast(),
            ..Default::default()
        };
        let ranked = search_configs(&job, &cluster, opts).unwrap();
        let a = ranked[0].report.as_ref().unwrap().tokens_per_joule;
        let b = ranked[1].report.as_ref().unwrap().tokens_per_joule;
        assert!(a >= b);
    }

    #[test]
    fn analytic_screen_orders_like_full_sim_for_extremes() {
        // The screen must put a clearly bad config (pure DP-less deep TP on
        // one node vs balanced) below a clearly good one.
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let opts = SearchOptions {
            finalists: 0,
            sim: SimConfig::fast(),
            ..Default::default()
        };
        let ranked = search_configs(&job, &cluster, opts).unwrap();
        assert!(!ranked.is_empty());
        let first = ranked.first().unwrap().analytic.tokens_per_s;
        let last = ranked.last().unwrap().analytic.tokens_per_s;
        assert!(first >= last);
    }

    #[test]
    fn finalist_tier_strictly_precedes_screened_tier() {
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let opts = SearchOptions {
            finalists: 1,
            sim: SimConfig::fast(),
            ..Default::default()
        };
        let ranked = search_configs(&job, &cluster, opts).unwrap();
        assert!(ranked.len() > 1, "need both tiers populated");
        let boundary = ranked.iter().position(|c| c.report.is_none()).unwrap();
        assert_eq!(boundary, 1, "exactly the one finalist leads");
        assert!(
            ranked[boundary..].iter().all(|c| c.report.is_none()),
            "no simulated candidate may rank below a screened-only one"
        );
        // The screened tier keeps its analytic order.
        let analytic: Vec<f64> = ranked[boundary..]
            .iter()
            .map(|c| c.analytic.tokens_per_s)
            .collect();
        assert!(analytic.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn parallel_search_matches_serial() {
        let cluster = single_hgx_node();
        let job = TrainJob::pretrain(models::gpt3_13b()).with_global_batch(8);
        let serial = SearchOptions {
            finalists: 3,
            sim: SimConfig::fast(),
            workers: 1,
            ..Default::default()
        };
        let parallel = SearchOptions {
            workers: 4,
            ..serial
        };
        let a = search_configs(&job, &cluster, serial).unwrap();
        let b = search_configs(&job, &cluster, parallel).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(
                x.report, y.report,
                "finalist reports identical across worker counts"
            );
        }
    }
}
