//! `served_sweep_restart`: an in-process `SimServer` restarted over a
//! pre-filled `SimCache` disk tier, driven by two closed-loop HTTP clients
//! that submit sweep jobs, follow each job's stream, fetch its result and
//! now and then download a Perfetto trace.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use serde_json::{json, Value};

use charllm::prelude::*;
use charllm_hw::presets as hw;
use charllm_hw::{Cluster, GpuId};
use charllm_models::presets as models;
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::Simulator;
use charllm_telemetry::{chrome_trace, SpanRecorder};
use charllm_trace::lower::{lower_train, DeviceHints};
use charllm_trace::ExecutionTrace;

use crate::gen::{Catalogue, JobShape};
use crate::spans::Tracer;
use crate::stats::{median, Metrics};
use crate::Pass;
use crate::{http, jsonscan};

const CLIENTS: usize = 2;
/// Op ids of client `c` are `c * CLIENT_OPS + job index + 1`.
const CLIENT_OPS: u64 = 1_000_000;
const SETUP_REPS: usize = 3;
/// Jobs each client runs before the mid-run `/cache` snapshot. The two
/// clients own disjoint catalogue halves and wait for each other there, so
/// the cache counts of this fixed prefix repeat exactly for a seed.
const PREFIX_JOBS: usize = 20;
/// Trace downloads of each client replayed in-process by the traced pass.
const REPLAYS: usize = 2;
const STAGES: [&str; 4] = ["lower", "plan_setup", "event_loop", "report"];
/// Engine gauges each point publishes when its run ends; summed over a
/// job's point lines they give the job's engine counts.
const ENGINE_GAUGES: [&str; 5] = [
    "sim_events",
    "sim_flows_launched",
    "sim_plan_builds",
    "sim_shared_plan_hits",
    "sim_time_s",
];

/// The server's preset vocabulary, resolved the same way `POST /jobs`
/// resolves it.
pub fn resolve(shape: &JobShape) -> (Arc<Cluster>, TrainJob, Vec<ParallelismSpec>) {
    let cluster = match shape.cluster {
        "hgx_h200" => hw::hgx_h200_cluster(),
        "hgx_h100" => hw::hgx_h100_cluster(),
        "mi250" => hw::mi250_cluster(),
        other => unreachable!("catalogue names no cluster {other}"),
    };
    let arch = match shape.model {
        "gpt3_13b" => models::gpt3_13b(),
        "gpt3_30b" => models::gpt3_30b(),
        "llama3_30b" => models::llama3_30b(),
        "llama3_70b" => models::llama3_70b(),
        "mixtral_8x7b" => models::mixtral_8x7b(),
        other => unreachable!("catalogue names no model {other}"),
    };
    let world = cluster.num_gpus();
    let specs = shape
        .specs
        .iter()
        .map(|l| ParallelismSpec::parse(l, world).expect("catalogue specs fill the cluster"))
        .collect();
    let job = TrainJob::pretrain(arch).with_global_batch(shape.global_batch);
    (Arc::new(cluster), job, specs)
}

/// Point 0 of `shape` (its first spec at its first microbatch), lowered.
pub fn point_zero(
    shape: &JobShape,
    tr: &Tracer,
    op: u64,
) -> (Arc<Cluster>, Placement, ExecutionTrace, String) {
    let (cluster, job, specs) = resolve(shape);
    let spec = specs[0];
    let job = job.with_microbatch(shape.microbatches[0]);
    let partition =
        StagePartition::even(job.arch.num_layers, spec.pp).expect("catalogue stages divide");
    let placement = Placement::identity(&cluster, spec.world()).expect("spec fills the cluster");
    let hints = DeviceHints::for_spec(cluster.gpu());
    let trace = tr
        .span("trace.lower", op, || {
            lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints)
        })
        .expect("catalogue points lower")
        .trace;
    let key = SimCache::lowered_key(
        &job,
        &spec,
        PipelineSchedule::OneFOneB,
        &partition,
        &hints,
        None,
    );
    (cluster, placement, trace, key)
}

/// Print → parse → print: the form a point list takes after one trip
/// through the server, so locally built and served lists compare as text.
fn canonical(points: &Value) -> String {
    let text = serde_json::to_string(points).expect("points serialize");
    let back: Value = serde_json::from_str(&text).expect("points reparse");
    serde_json::to_string(&back).expect("points serialize")
}

/// The result document's `points`, built the way the server builds them.
fn points_json(outcomes: &[SweepOutcome]) -> Value {
    let points: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            let point = o.point();
            json!({
                "index": point.index,
                "point": point.to_string(),
                "outcome": if o.report().is_some() { "completed" } else { "skipped" },
                "reason": "",
                "step_time_s": o.report().map_or(0.0, |r| r.step_time_s),
                "tokens_per_s": o.report().map_or(0.0, |r| r.tokens_per_s),
                "energy_per_step_j": o.report().map_or(0.0, |r| r.energy_per_step_j),
            })
        })
        .collect();
    Value::Array(points)
}

/// FNV-1a, to compare a downloaded trace with its replay without keeping
/// either in memory.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One set-up: fill a fresh disk tier with the pre-filled half of the
/// catalogue (cold, through the public `Sweep` API), then bind a new
/// server over a new cache on that directory — the restart.
fn set_up(
    cat: &Catalogue,
    dir: &Path,
    tr: &Tracer,
) -> Result<(SimServer, BTreeMap<usize, String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut expected = BTreeMap::new();
    tr.span("cache.fill", 0, || -> Result<(), String> {
        let cache = Arc::new(
            SimCache::new()
                .with_disk_tier(dir)
                .map_err(|e| e.to_string())?,
        );
        for (i, shape) in cat.shapes.iter().enumerate() {
            if !cat.prefilled[i] {
                continue;
            }
            let (cluster, job, specs) = resolve(shape);
            let outcomes = Sweep::new(cluster, job, specs)
                .with_microbatches(shape.microbatches.clone())
                .with_sim_config(SimConfig::fast())
                .workers(1)
                .with_cache(Arc::clone(&cache))
                .run_outcomes();
            if !outcomes.iter().all(|o| o.report().is_some()) {
                return Err(format!("pre-fill of catalogue shape {i} did not complete"));
            }
            expected.insert(i, canonical(&points_json(&outcomes)));
        }
        Ok(())
    })?;
    let server = tr.span("server.bind", 0, || -> Result<SimServer, String> {
        let cache = SimCache::new()
            .with_disk_tier(dir)
            .map_err(|e| e.to_string())?;
        SimServer::bind(
            "127.0.0.1:0",
            Arc::new(cache),
            ServerConfig {
                job_workers: 2,
                sweep_workers: 1,
            },
        )
        .map_err(|e| e.to_string())
    })?;
    Ok((server, expected))
}

#[derive(Debug, Clone)]
struct Job {
    shape: usize,
    op: u64,
    job_s: f64,
    first_event_s: f64,
    /// Per-stage sums of this job's `sim_stage_seconds`, in `STAGES` order.
    stages: [f64; 4],
    /// `ENGINE_GAUGES` summed over the job's points.
    engine: [f64; 5],
    stream_bytes: usize,
    points: usize,
    gpu_iters: f64,
    canonical_points: String,
    in_prefix: bool,
}

#[derive(Debug, Clone)]
struct Download {
    shape: usize,
    op: u64,
    secs: f64,
    bytes: usize,
    hash: u64,
}

#[derive(Default)]
struct ClientOut {
    jobs: Vec<Job>,
    downloads: Vec<Download>,
    attempted: u64,
    failures: Vec<String>,
}

/// Sum the `field` of every metric called `name` in a snapshot document,
/// per value of `label` listed in `keys` (`label` None: per metric name,
/// with `keys` the names).
fn sum_metrics<const N: usize>(
    metrics: &Value,
    name: Option<&str>,
    label: Option<&str>,
    keys: &[&str; N],
    field: &str,
) -> [f64; N] {
    let mut out = [0.0; N];
    let Some(list) = metrics.get("metrics").and_then(Value::as_array) else {
        return out;
    };
    for m in list {
        let metric = m.get("name").and_then(Value::as_str);
        if name.is_some() && metric != name {
            continue;
        }
        let key = match label {
            Some(l) => m
                .get("labels")
                .and_then(|v| v.get(l))
                .and_then(Value::as_str),
            None => metric,
        };
        if let Some(i) = keys.iter().position(|k| Some(*k) == key) {
            out[i] += m.get(field).and_then(Value::as_f64).unwrap_or(0.0);
        }
    }
    out
}

/// What one served job returned.
struct Served {
    id: u64,
    job_s: f64,
    first_event_s: f64,
    points: Value,
    stream_bytes: usize,
    stages: [f64; 4],
    engine: [f64; 5],
}

fn u64_of(v: &Value, key: &str) -> Option<u64> {
    v.get(key)
        .and_then(Value::as_number)
        .and_then(serde_json::Number::to_u64)
}

/// Submit one job, follow its stream, fetch its result and check it.
fn one_job(addr: SocketAddr, shape: &JobShape, tr: &Tracer, op: u64) -> Result<Served, String> {
    let t0 = Instant::now();
    let submit = tr.span("server.submit", op, || {
        http::request(addr, "POST", "/jobs", Some(&shape.body()))
    })?;
    if submit.status != 202 {
        return Err(format!(
            "submit refused ({}): {}",
            submit.status,
            submit.text()
        ));
    }
    let id = u64_of(&submit.json()?, "job").ok_or("submit response has no job id")?;
    let status = tr.span("server.status", op, || {
        http::request(addr, "GET", &format!("/jobs/{id}"), None)
    })?;
    if status.status != 200 {
        return Err(format!("job {id}: status {}", status.status));
    }
    let stream = tr.span("stream.read", op, || {
        http::request(addr, "GET", &format!("/jobs/{id}/stream"), None)
    })?;
    let first_event_s = stream
        .first_line_at
        .map(|t| t.duration_since(t0).as_secs_f64())
        .ok_or_else(|| format!("job {id}: empty stream"))?;
    let mut events = Vec::new();
    for line in stream.text().lines() {
        events.push(ProgressEvent::from_json_line(line).map_err(|e| format!("job {id}: {e}"))?);
    }
    let end = events
        .pop()
        .ok_or_else(|| format!("job {id}: empty stream"))?;
    if end.event != "sweep_end" {
        return Err(format!("job {id}: stream ends in {:?}", end.event));
    }
    let mut engine = [0.0; 5];
    for e in &events {
        let point = sum_metrics(&e.metrics, None, None, &ENGINE_GAUGES, "value");
        for (total, v) in engine.iter_mut().zip(point) {
            *total += v;
        }
    }
    let result = tr.span("server.result", op, || {
        http::request(addr, "GET", &format!("/jobs/{id}/result"), None)
    })?;
    let job_s = t0.elapsed().as_secs_f64();
    if result.status != 200 {
        return Err(format!("job {id}: result status {}", result.status));
    }
    let doc = result.json()?;
    let total = u64_of(&doc, "total");
    let completed = u64_of(&doc, "completed");
    let failed = u64_of(&doc, "failed");
    if total != Some(shape.points() as u64) || completed != total || failed != Some(0) {
        return Err(format!(
            "job {id}: total {total:?} completed {completed:?} failed {failed:?}"
        ));
    }
    Ok(Served {
        id,
        job_s,
        first_event_s,
        points: doc.get("points").cloned().unwrap_or(Value::Null),
        stream_bytes: stream.body.len(),
        stages: sum_metrics(
            &end.metrics,
            Some("sim_stage_seconds"),
            Some("stage"),
            &STAGES,
            "sum",
        ),
        engine,
    })
}

/// Download the Perfetto trace of a job's point 0 and check it parses and
/// holds events.
fn download(addr: SocketAddr, id: u64, tr: &Tracer, op: u64) -> Result<(f64, usize, u64), String> {
    let t = Instant::now();
    let resp = tr.span("server.trace", op, || {
        http::request(addr, "GET", &format!("/jobs/{id}/trace/0"), None)
    })?;
    let secs = t.elapsed().as_secs_f64();
    if resp.status != 200 {
        return Err(format!("job {id}: trace status {}", resp.status));
    }
    let events = jsonscan::trace_events(&resp.body).map_err(|e| format!("job {id}: trace {e}"))?;
    if events == 0 {
        return Err(format!("job {id}: trace has no events"));
    }
    Ok((secs, resp.body.len(), fnv(&resp.body)))
}

#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    addr: SocketAddr,
    cat: &Catalogue,
    seed: u64,
    deadline: Instant,
    barrier: &Barrier,
    cache_doc: &Mutex<Option<Value>>,
    download_lock: &Mutex<()>,
    expected: &BTreeMap<usize, String>,
    gpu_iters: &[f64],
    tr: &Tracer,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut seen: BTreeMap<usize, String> = expected.clone();
    // Long enough for any run length the benchmark is given.
    let sequence = cat.client_sequence(seed, c, 100_000);
    for (i, &shape_idx) in sequence.iter().enumerate() {
        if i == PREFIX_JOBS {
            barrier.wait();
            if c == 0 {
                match http::request(addr, "GET", "/cache", None).and_then(|r| r.json()) {
                    Ok(doc) => *cache_doc.lock().expect("cache doc poisoned") = Some(doc),
                    Err(e) => out.failures.push(format!("GET /cache: {e}")),
                }
            }
            barrier.wait();
        }
        if i >= PREFIX_JOBS && Instant::now() >= deadline {
            break;
        }
        let shape = &cat.shapes[shape_idx];
        let op = c as u64 * CLIENT_OPS + i as u64 + 1;
        out.attempted += 1;
        let served = match tr.span("op", op, || one_job(addr, shape, tr, op)) {
            Ok(ok) => ok,
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        let id = served.id;
        let canonical_points = canonical(&served.points);
        match seen.get(&shape_idx) {
            Some(first) if *first != canonical_points => out.failures.push(format!(
                "shape {shape_idx}: job {id} points differ from the first served or pre-filled"
            )),
            Some(_) => {}
            None => {
                seen.insert(shape_idx, canonical_points.clone());
            }
        }
        out.jobs.push(Job {
            shape: shape_idx,
            op,
            job_s: served.job_s,
            first_event_s: served.first_event_s,
            stages: served.stages,
            engine: served.engine,
            stream_bytes: served.stream_bytes,
            points: shape.points(),
            gpu_iters: gpu_iters[shape_idx],
            canonical_points,
            in_prefix: i < PREFIX_JOBS,
        });
        // About every 12th job (once per pass over the client's shapes)
        // also downloads a trace. Downloads never overlap, so the process
        // high-water does not depend on how the two clients' passes align.
        if shape_idx == Catalogue::trace_shape(c) {
            out.attempted += 1;
            let one_at_a_time = download_lock.lock().expect("download lock poisoned");
            let got = download(addr, id, tr, op);
            drop(one_at_a_time);
            match got {
                Ok((secs, bytes, hash)) => out.downloads.push(Download {
                    shape: shape_idx,
                    op,
                    secs,
                    bytes,
                    hash,
                }),
                Err(e) => out.failures.push(e),
            }
        }
    }
    out
}

/// Re-run one trace download in process, timing each layer it crosses.
fn replay(cat: &Catalogue, d: &Download, cache: &SimCache, tr: &Tracer) -> Result<(), String> {
    let shape = &cat.shapes[d.shape];
    let (cluster, placement, trace, key) = point_zero(shape, tr, d.op);
    let (shared, _) = tr.span("cache.plans", d.op, || {
        cache.plans(&cluster, &placement, &key, &trace, 1)
    });
    let (_, recorder) = tr
        .span("telemetry.span_run", d.op, || {
            Simulator::with_observer(
                &cluster,
                &placement,
                &trace,
                SimConfig::fast(),
                SpanRecorder::new(),
            )
            .and_then(|s| s.with_shared_plans(shared))
            .and_then(|s| s.run_observed())
        })
        .map_err(|e| e.to_string())?;
    let node_of_gpu: Vec<usize> = (0..cluster.num_gpus())
        .map(|g| cluster.node_of(GpuId(g as u32)).index())
        .collect();
    let events = tr.span("telemetry.chrome_export", d.op, || {
        chrome_trace::export(&recorder, &node_of_gpu)
    });
    let text = tr.span("json.print", d.op, || {
        serde_json::to_string(&events).expect("trace serializes")
    });
    if text.len() != d.bytes || fnv(text.as_bytes()) != d.hash {
        return Err(format!(
            "shape {}: in-process trace ({} B) differs from the download ({} B)",
            d.shape,
            text.len(),
            d.bytes
        ));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, tr: &Tracer, work_dir: &Path) -> Pass {
    let mut pass = Pass::default();
    let cat = Catalogue::generate(seed);
    let fast = SimConfig::fast();
    let gpu_iters: Vec<f64> = cat
        .shapes
        .iter()
        .map(|s| (resolve(s).0.num_gpus() * fast.iterations * s.points()) as f64)
        .collect();

    let mut setup_s = Vec::new();
    let mut live: Option<(SimServer, BTreeMap<usize, String>, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, _, dir)) = live.take() {
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = work_dir.join(format!("cache-{}-{rep}", std::process::id()));
        let t = Instant::now();
        match set_up(&cat, &dir, tr) {
            Ok((server, expected)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                live = Some((server, expected, dir));
            }
            Err(e) => {
                pass.attempted += 1;
                pass.fail(e);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let Some((server, expected, dir)) = live else {
        return pass;
    };
    let addr = server.local_addr();
    let cache = server.cache();

    let barrier = Barrier::new(CLIENTS);
    let cache_doc = Mutex::new(None);
    let download_lock = Mutex::new(());
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (cat, barrier, cache_doc) = (&cat, &barrier, &cache_doc);
                let (download_lock, expected, gpu_iters) = (&download_lock, &expected, &gpu_iters);
                scope.spawn(move || {
                    client(
                        c,
                        addr,
                        cat,
                        seed,
                        deadline,
                        barrier,
                        cache_doc,
                        download_lock,
                        expected,
                        gpu_iters,
                        tr,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    server.shutdown();

    let mut jobs: Vec<Job> = Vec::new();
    let mut downloads: Vec<Download> = Vec::new();
    for out in outs {
        pass.attempted += out.attempted;
        for f in out.failures {
            pass.fail(f);
        }
        jobs.extend(out.jobs);
        downloads.extend(out.downloads);
    }
    jobs.sort_by_key(|j| j.op);
    downloads.sort_by_key(|d| d.op);

    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let first_s: Vec<f64> = jobs.iter().map(|j| j.first_event_s).collect();
    let trace_s: Vec<f64> = downloads.iter().map(|d| d.secs).collect();
    let points: usize = jobs.iter().map(|j| j.points).sum();
    pass.e2e.p50("setup_s", &setup_s, "s");
    pass.e2e.put(
        "gpu_iter_per_s",
        jobs.iter().map(|j| j.gpu_iters).sum::<f64>() / wall_s,
        "gpu-iter/s",
    );
    pass.e2e.p50("op_s.p50", &job_s, "s");
    pass.e2e.tail("op_s.tail", &job_s, "s");
    pass.detail.p50("job_s.p50", &job_s, "s");
    pass.detail.tail("job_s.p90", &job_s, "s");
    pass.detail.p50("first_event_s.p50", &first_s, "s");
    pass.detail.p50("trace_s.p50", &trace_s, "s");
    pass.detail.note(
        "points_per_s",
        points as f64 / wall_s,
        "1/s",
        format!("{points} points in {} jobs over {wall_s:.2} s", jobs.len()),
    );
    pass.fingerprint = jobs
        .iter()
        .filter(|j| j.in_prefix)
        .map(|j| format!("{}:{}", j.shape, j.canonical_points))
        .collect::<Vec<_>>()
        .join(";");

    if tr.on() {
        let client_of = |d: &&Download| d.op / CLIENT_OPS;
        let replays = (0..CLIENTS as u64).flat_map(|c| {
            downloads
                .iter()
                .filter(move |d| client_of(d) == c)
                .take(REPLAYS)
        });
        for d in replays {
            pass.attempted += 1;
            if let Err(e) = replay(&cat, d, &cache, tr) {
                pass.fail(e);
            }
        }
        let doc = cache_doc.lock().expect("cache doc poisoned").clone();
        pass.layers = layers(tr, &jobs, &downloads, doc.as_ref());
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    pass
}

fn layers(tr: &Tracer, jobs: &[Job], downloads: &[Download], cache_doc: Option<&Value>) -> Metrics {
    let mut m = Metrics::default();
    if let Some(stats) = cache_doc.and_then(|d| d.get("stats")) {
        let stats: CacheStats = serde_json::from_value(stats.clone()).unwrap_or_default();
        crate::put_cache_stats(&mut m, &stats);
    }
    let prefix: Vec<&Job> = jobs.iter().filter(|j| j.in_prefix).collect();
    let engine = |i: usize| prefix.iter().map(|j| j.engine[i]).sum::<f64>();
    m.put("sim.events", engine(0), "count");
    m.put("sim.flows_launched", engine(1), "count");
    m.put("sim.plan_builds", engine(2), "count");
    m.put("sim.shared_plan_hits", engine(3), "count");
    let loop_s: f64 = prefix.iter().map(|j| j.stages[2]).sum();
    m.put("sim.host_s_per_sim_s", loop_s / engine(4), "s/s");
    let n = jobs.len().max(1) as f64;
    for (i, stage) in STAGES.iter().enumerate() {
        let total: f64 = jobs.iter().map(|j| j.stages[i]).sum();
        m.note(
            format!("experiment.{stage}_s"),
            total / n,
            "s",
            "mean per job",
        );
    }
    let ms = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|s| s * 1e3).collect() };
    m.p50("server.submit_ms.p50", &ms("server.submit"), "ms");
    m.p50("server.status_ms.p50", &ms("server.status"), "ms");
    m.p50("server.result_ms.p50", &ms("server.result"), "ms");
    let overhead: Vec<f64> = jobs
        .iter()
        .map(|j| j.job_s - j.stages.iter().sum::<f64>())
        .collect();
    m.p50("server.overhead_s.p50", &overhead, "s");
    let first: Vec<f64> = jobs.iter().map(|j| j.first_event_s).collect();
    m.p50("first_event_s.p50", &first, "s");
    let trace_s: Vec<f64> = downloads.iter().map(|d| d.secs).collect();
    m.p50("trace_s.p50", &trace_s, "s");
    let bytes: Vec<f64> = jobs.iter().map(|j| j.stream_bytes as f64).collect();
    m.note("stream.bytes", median(&bytes), "B", "median per job");
    m.p50("trace.lower_s", &tr.durations("trace.lower"), "s");
    m.p50("cache.plans_s", &tr.durations("cache.plans"), "s");
    m.p50(
        "telemetry.span_run_s",
        &tr.durations("telemetry.span_run"),
        "s",
    );
    m.p50(
        "telemetry.chrome_export_s",
        &tr.durations("telemetry.chrome_export"),
        "s",
    );
    m.p50("json.print_s", &tr.durations("json.print"), "s");
    let sizes: Vec<f64> = downloads.iter().map(|d| d.bytes as f64).collect();
    m.p50("trace.bytes", &sizes, "B");
    m
}
