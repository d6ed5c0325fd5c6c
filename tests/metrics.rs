//! Cross-layer metrics hub: correctness, export stability, and the two
//! guarantees the observability layer rides on — an observed engine is
//! byte-identical to the plain engine, and a streamed sweep's final
//! snapshot reconciles exactly with the summed per-point reports.

use std::io::Write;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use charllm::prelude::*;
use charllm_telemetry::metrics::MetricsHub;

/// A cloneable writer that accumulates into shared memory, so a test can
/// hand it to a [`ProgressStream`] and read the lines back afterwards.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }
}

fn small_sweep(specs: Vec<ParallelismSpec>) -> Sweep {
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(4);
    Sweep::new(single_hgx_node(), job, specs).with_sim_config(SimConfig::fast())
}

fn spec(label: &str) -> ParallelismSpec {
    ParallelismSpec::parse(label, 8).unwrap()
}

/// Constructible but infeasible on 8 GPUs: the sweep skips (or fails) it.
fn bad_spec() -> ParallelismSpec {
    ParallelismSpec::new(2, 16, 1, 1, false).unwrap()
}

/// One mutation against a deterministic three-series hub.
#[derive(Debug, Clone)]
enum Op {
    Count(u64),
    Gauge(f64),
    Observe(f64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    collection::vec(
        (0u64..3, 0u64..400).prop_map(|(sel, v)| match sel {
            0 => Op::Count(v + 1),
            1 => Op::Gauge(v as f64 * 0.25 - 50.0),
            _ => Op::Observe(v as f64 * 0.01),
        }),
        0..12,
    )
}

fn apply(hub: &Arc<MetricsHub>, ops: &[Op]) {
    let shard = hub.shard(0);
    for op in ops {
        match op {
            Op::Count(v) => shard.counter("ops_total", &[("kind", "test")]).add(*v),
            Op::Gauge(v) => shard.gauge("level", &[]).set(*v),
            Op::Observe(v) => shard.histogram("latency_s", &[], &[0.5, 2.0]).observe(*v),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// snap(a→c) == snap(a→b) + snap(b→c): deltas compose exactly, for
    /// any interleaving of counter/gauge/histogram activity. This is what
    /// lets the sweep stream emit per-point deltas that sum bit-for-bit
    /// to the final snapshot.
    #[test]
    fn snapshot_diffs_compose(ops1 in arb_ops(), ops2 in arb_ops(), ops3 in arb_ops()) {
        let hub = MetricsHub::new(2);
        apply(&hub, &ops1);
        let a = hub.snapshot();
        apply(&hub, &ops2);
        let b = hub.snapshot();
        apply(&hub, &ops3);
        let c = hub.snapshot();
        let direct = c.diff(&a);
        let composed = b.diff(&a).add(&c.diff(&b));
        prop_assert_eq!(
            serde_json::to_string(&direct.to_json()).unwrap(),
            serde_json::to_string(&composed.to_json()).unwrap()
        );
    }
}

#[test]
fn prometheus_and_json_exports_are_stable() {
    let hub = MetricsHub::new(1);
    let shard = hub.shard(0);
    shard.counter("requests_total", &[("code", "200")]).add(3);
    shard.gauge("queue_depth", &[]).set(2.5);
    let h = shard.histogram("latency_s", &[], &[0.1, 1.0]);
    h.observe(0.05);
    h.observe(0.5);
    h.observe(5.0);
    let snap = hub.snapshot();
    assert_eq!(
        snap.prometheus_text(),
        "# TYPE latency_s histogram\n\
         latency_s_bucket{le=\"0.1\"} 1\n\
         latency_s_bucket{le=\"1\"} 2\n\
         latency_s_bucket{le=\"+Inf\"} 3\n\
         latency_s_sum 5.55\n\
         latency_s_count 3\n\
         # TYPE queue_depth gauge\n\
         queue_depth 2.5\n\
         # TYPE requests_total counter\n\
         requests_total{code=\"200\"} 3\n"
    );
    assert_eq!(
        serde_json::to_string(&snap.to_json()).unwrap(),
        r#"{"metrics":[{"name":"latency_s","labels":{},"kind":"histogram","bounds":[0.1,1],"buckets":[1,1,1],"count":3,"sum":5.55},{"name":"queue_depth","labels":{},"kind":"gauge","value":2.5},{"name":"requests_total","labels":{"code":"200"},"kind":"counter","value":3}]}"#
    );
}

#[test]
fn engine_is_byte_identical_with_and_without_hub() {
    let baseline = small_sweep(vec![spec("TP2-PP2")]).workers(1).run().unwrap();
    let enabled = small_sweep(vec![spec("TP2-PP2")])
        .workers(1)
        .with_metrics(MetricsHub::new(2))
        .run()
        .unwrap();
    let json = |r: &RunReport| serde_json::to_string(&r.sim).unwrap();
    assert_eq!(
        json(&baseline[0]),
        json(&enabled[0]),
        "the hub observes the engine; it must never feed back"
    );
}

#[test]
fn engine_gauges_populate_under_enabled_hub() {
    let hub = MetricsHub::new(1);
    let report = Experiment::builder()
        .cluster(single_hgx_node())
        .job(TrainJob::pretrain(gpt3_13b()).with_global_batch(4))
        .parallelism("TP2-PP2")
        .unwrap()
        .sim_config(SimConfig::fast())
        .metrics(hub.shard(0))
        .run()
        .unwrap();
    let snap = hub.snapshot();
    let gauge = |name: &str| {
        snap.gauge(name, &[("worker", "0")])
            .unwrap_or_else(|| panic!("{name} registered"))
    };
    assert!(gauge("sim_events") > 0.0, "event counter published");
    assert!(gauge("sim_time_s") > 0.0, "sim clock published");
    assert!(
        gauge("sim_cal_bucket_drains") > 0.0,
        "calendar drain counter flows through to the hub"
    );
    assert!(gauge("sim_heap_pops") > 0.0);
    // The end-of-run stats and the gauges tell the same story.
    assert!((gauge("sim_time_s") - report.sim.sim_time_s).abs() < 1e-9);
    // Host-side stage timings landed in the shared histogram.
    let stages = snap
        .iter()
        .filter(|(id, _)| id.name == "sim_stage_seconds")
        .count();
    assert_eq!(stages, 4, "lower/plan_setup/event_loop/report series");
}

#[test]
fn streamed_sweep_reconciles_exactly_with_summed_reports() {
    // 4 specs x 2 variants x 4 microbatches = 32 points, parallel workers.
    let job = TrainJob::pretrain(gpt3_13b()).with_global_batch(8);
    let variants = vec![job.clone(), job.clone().with_cc_overlap(true)];
    let specs = vec![
        spec("TP2-PP2"),
        spec("TP4-PP2"),
        spec("TP2-PP4"),
        spec("TP8"),
    ];
    let hub = MetricsHub::new(4);
    let buf = SharedBuf::default();
    let stream = Arc::new(ProgressStream::new(buf.clone()));
    let outcomes = Sweep::new(single_hgx_node(), job, specs)
        .with_job_variants(variants)
        .with_microbatches(vec![1, 2, 4, 8])
        .with_sim_config(SimConfig::fast())
        .workers(4)
        .with_metrics(Arc::clone(&hub))
        .stream(stream)
        .run_outcomes();
    assert_eq!(outcomes.len(), 32);

    // Every line is well-formed; point events arrive in enumeration order
    // with a dense seq, then one terminal sweep_end.
    let lines = buf.lines();
    assert_eq!(lines.len(), 33);
    let events: Vec<ProgressEvent> = lines
        .iter()
        .map(|l| ProgressEvent::from_json_line(l).expect("well-formed JSONL"))
        .collect();
    for (i, e) in events[..32].iter().enumerate() {
        assert_eq!(e.event, "point");
        assert_eq!(e.seq, i as u64);
        assert_eq!(e.index, i, "stream is in enumeration order");
        assert_eq!(e.total, 32);
        assert_eq!(e.point, outcomes[i].point().to_string());
    }
    let end = &events[32];
    assert_eq!(end.event, "sweep_end");
    assert_eq!(end.seq, 32);

    // The final snapshot reconciles exactly with the summed reports.
    let reports: Vec<&RunReport> = outcomes.iter().filter_map(|o| o.report()).collect();
    let snap = hub.snapshot();
    assert_eq!(
        snap.counter("sweep_points_completed_total", &[]),
        reports.len() as u64
    );
    assert_eq!(
        snap.counter("sweep_points_skipped_total", &[]),
        outcomes.iter().filter(|o| o.is_skipped()).count() as u64
    );
    assert_eq!(
        end.completed + end.skipped + end.failed,
        32,
        "terminal event tallies every point"
    );
    let energy_mj: u64 = reports
        .iter()
        .map(|r| (r.energy_per_step_j * 1e3).round() as u64)
        .sum();
    assert_eq!(
        snap.counter("sweep_energy_per_step_mj_total", &[]),
        energy_mj,
        "energy counter is the exact quantized sum of per-point reports"
    );
    // Cache counters agree with the per-report CacheStats sums.
    let (hits, misses) = reports
        .iter()
        .filter_map(|r| r.cache)
        .fold((0u64, 0u64), |(h, m), c| {
            (h + c.hits(), m + c.lookups() - c.hits())
        });
    let hub_hits = snap.counter(
        "cache_lookups_total",
        &[("family", "lowered"), ("result", "hit")],
    ) + snap.counter(
        "cache_lookups_total",
        &[("family", "plans"), ("result", "hit")],
    );
    let hub_misses = snap.counter(
        "cache_lookups_total",
        &[("family", "lowered"), ("result", "miss")],
    ) + snap.counter(
        "cache_lookups_total",
        &[("family", "plans"), ("result", "miss")],
    );
    assert_eq!((hub_hits, hub_misses), (hits, misses));

    // Deltas embedded in the stream sum to the final snapshot for the
    // sweep's own counters (exact: integer arithmetic end to end).
    let mut summed_completed = 0u64;
    for e in &events[..32] {
        if let Some(list) = e.metrics.as_object().and_then(|o| o.get("metrics")) {
            if let Some(arr) = list.as_array() {
                for m in arr {
                    let obj = m.as_object().unwrap();
                    if obj.get("name").and_then(|v| v.as_str())
                        == Some("sweep_points_completed_total")
                    {
                        summed_completed +=
                            obj.get("value").and_then(|v| v.as_f64()).unwrap() as u64;
                    }
                }
            }
        }
    }
    assert_eq!(
        summed_completed,
        reports.len() as u64,
        "per-event deltas sum to the final counter"
    );

    // Worker accounting exists for at least worker 0 and utilization is a
    // sane ratio.
    assert!(snap.counter_sum("sweep_worker_busy_ms_total") > 0 || reports.is_empty());
    let util = snap
        .gauge("sweep_worker_utilization", &[("worker", "0")])
        .expect("worker 0 utilization");
    assert!((0.0..=1.5).contains(&util), "utilization ratio, got {util}");
}

/// The three read paths of a disk-tier cache's counters — cumulative
/// `SimCache::stats`, the summed per-run `RunReport::cache`, and the hub
/// series — agree field by field, cold and warm.
#[test]
fn disk_tier_counters_reconcile_across_all_three_read_paths() {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "charllm_it_reconcile_{}_{nanos}",
        std::process::id()
    ));
    let pass = || {
        let hub = MetricsHub::new(2);
        let cache = Arc::new(
            SimCache::with_metrics(&hub.shard(0))
                .with_disk_tier(&dir)
                .unwrap(),
        );
        let outcomes = small_sweep(vec![spec("TP2-PP2"), spec("TP4-PP2")])
            .with_microbatches(vec![1, 2])
            .workers(2)
            .with_cache(Arc::clone(&cache))
            .run_outcomes();
        assert_eq!(outcomes.len(), 4);
        let summed = outcomes
            .iter()
            .map(|o| o.report().expect("every point completes").cache.unwrap())
            .fold(CacheStats::default(), |acc, s| acc.add(&s));
        assert_eq!(cache.stats(), summed, "cumulative == summed per-run");
        let snap = hub.snapshot();
        let series = |name: &str, family: &str, result: &str| {
            snap.counter(name, &[("family", family), ("result", result)])
        };
        let from_hub = CacheStats {
            lowered_hits: series("cache_lookups_total", "lowered", "hit"),
            lowered_misses: series("cache_lookups_total", "lowered", "miss"),
            plan_hits: series("cache_lookups_total", "plans", "hit"),
            plan_misses: series("cache_lookups_total", "plans", "miss"),
            lowered_disk_hits: series("cache_disk_lookups_total", "lowered", "hit"),
            lowered_disk_misses: series("cache_disk_lookups_total", "lowered", "miss"),
            plan_disk_hits: series("cache_disk_lookups_total", "plans", "hit"),
            plan_disk_misses: series("cache_disk_lookups_total", "plans", "miss"),
            lowered_evictions: 0,
            plan_evictions: 0,
            bytes_written: snap.counter("cache_disk_bytes_written_total", &[]),
        };
        assert_eq!(from_hub, summed, "hub series == summed per-run");
        summed
    };
    let cold = pass();
    assert_eq!(cold.disk_hits(), 0);
    assert!(
        cold.lowered_disk_misses > 0 && cold.bytes_written > 0,
        "{cold}"
    );
    let warm = pass();
    assert!(
        warm.lowered_disk_hits > 0 && warm.plan_disk_hits > 0,
        "{warm}"
    );
    assert_eq!(warm.lowered_misses + warm.plan_misses, 0, "{warm}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stream_without_hub_carries_null_metrics() {
    // A plain one-point sweep, and a strict sweep whose first point fails.
    let sweeps = [
        (small_sweep(vec![spec("TP2-PP2")]), false),
        (
            small_sweep(vec![bad_spec(), spec("TP2-PP2")]).strict(),
            true,
        ),
    ];
    for (sweep, first_fails) in sweeps {
        let buf = SharedBuf::default();
        let outcomes = sweep
            .workers(1)
            .stream(Arc::new(ProgressStream::new(buf.clone())))
            .run_outcomes();
        let events: Vec<ProgressEvent> = buf
            .lines()
            .iter()
            .map(|l| ProgressEvent::from_json_line(l).unwrap())
            .collect();
        assert_eq!(events.len(), outcomes.len() + 1, "a point each + sweep_end");
        assert!(
            events.iter().all(|e| e.metrics == serde_json::Value::Null),
            "no hub => null metrics payloads, not empty snapshots"
        );
        let end = events.last().unwrap();
        assert_eq!(end.event, "sweep_end");
        assert_eq!(
            end.completed + end.skipped + end.failed,
            outcomes.len(),
            "terminal event tallies every point"
        );
        if first_fails {
            assert!(matches!(outcomes[0], SweepOutcome::Failed { .. }));
            assert_eq!(events[0].event, "point");
            assert_eq!(events[0].outcome, "failed");
            assert_eq!(events[0].failed, 1);
            assert_eq!((end.completed, end.failed), (1, 1));
        }
    }
}
