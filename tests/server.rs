//! The sim server end-to-end, over real sockets: concurrent sweep jobs
//! sharing one `SimCache`, live JSONL progress streams whose per-point
//! metric deltas sum exactly to each job's terminal snapshot, result
//! documents that agree with the streams, cooperative cancel, refused
//! oversized requests, and Perfetto trace downloads served off the shared
//! cache, byte-equal to an in-process export.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use serde_json::{Number, Value};

use charllm::prelude::*;
use charllm::server::{http_request, MAX_CONNECTIONS, MAX_FINISHED_JOBS, MAX_QUEUED_JOBS};
use charllm_hw::GpuId;
use charllm_parallel::{Placement, StagePartition};
use charllm_sim::{fnv1a, Simulator};
use charllm_telemetry::{chrome_trace, SpanRecorder};
use charllm_trace::{lower_train, DeviceHints};

fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    std::env::temp_dir().join(format!("charllm_srv_{tag}_{}_{nanos}", std::process::id()))
}

fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_number)
        .and_then(Number::to_u64)
        .unwrap_or_else(|| panic!("{key} is a u64 in {v:?}"))
}

/// Counter series of a `MetricsSnapshot::to_json` document, keyed by
/// name+labels, zero-valued series dropped (a delta may mention a series
/// the final snapshot also holds at the same running total — only the
/// nonzero mass must reconcile).
fn counters_of(metrics: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(list) = metrics.get("metrics").and_then(Value::as_array) else {
        return out;
    };
    for m in list {
        if m.get("kind").and_then(Value::as_str) != Some("counter") {
            continue;
        }
        let value = get_u64(m, "value");
        if value == 0 {
            continue;
        }
        let name = m.get("name").and_then(Value::as_str).unwrap_or("");
        let labels = serde_json::to_string(m.get("labels").unwrap_or(&Value::Null)).unwrap();
        *out.entry(format!("{name}{labels}")).or_insert(0) += value;
    }
    out
}

/// The Chrome trace JSON of one point of the test sweep (GPT3-13B, global
/// batch 4, one HGX node, fast config), recorded and exported in process
/// with no cache involved.
fn in_process_trace(label: &str, microbatch: usize) -> String {
    let cluster = single_hgx_node();
    let job = TrainJob::pretrain(gpt3_13b())
        .with_global_batch(4)
        .with_microbatch(microbatch);
    let spec = ParallelismSpec::parse(label, cluster.num_gpus()).unwrap();
    let partition = StagePartition::even(job.arch.num_layers, spec.pp).unwrap();
    let hints = DeviceHints::for_spec(cluster.gpu());
    let lowered = lower_train(&job, &spec, PipelineSchedule::OneFOneB, &partition, &hints).unwrap();
    let placement = Placement::identity(&cluster, spec.world()).unwrap();
    let (_, recorder) = Simulator::with_observer(
        &cluster,
        &placement,
        &lowered.trace,
        SimConfig::fast(),
        SpanRecorder::new(),
    )
    .unwrap()
    .run_observed()
    .unwrap();
    let node_of_gpu: Vec<usize> = (0..cluster.num_gpus())
        .map(|g| cluster.node_of(GpuId(g as u32)).index())
        .collect();
    serde_json::to_string(&chrome_trace::export(&recorder, &node_of_gpu)).unwrap()
}

#[test]
fn concurrent_jobs_share_one_cache_and_their_streams_reconcile() {
    let dir = scratch_dir("jobs");
    let cache = Arc::new(SimCache::new().with_disk_tier(&dir).unwrap());
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::clone(&cache),
        ServerConfig {
            job_workers: 4,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Four identical 4-point sweeps, submitted back-to-back so the
    // 4-wide worker pool runs them concurrently against the one cache.
    let body = r#"{"kind": "sweep", "cluster": "single_hgx_node", "model": "gpt3_13b",
                   "global_batch": 4, "specs": ["TP2-PP2", "TP4-PP2"],
                   "microbatches": [1, 2], "workers": 1}"#;
    let ids: Vec<u64> = (0..4)
        .map(|_| {
            let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
            assert_eq!(status, 202, "{resp}");
            get_u64(&serde_json::from_str(&resp).unwrap(), "job")
        })
        .collect();

    let mut result_points: Vec<String> = Vec::new();
    for id in &ids {
        // The stream replays from the start and follows until the job
        // finishes (the read blocks on the close-delimited body).
        let (status, stream) =
            http_request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
        assert_eq!(status, 200);
        let events: Vec<ProgressEvent> = stream
            .lines()
            .map(|l| ProgressEvent::from_json_line(l).expect("well-formed JSONL"))
            .collect();
        assert_eq!(events.len(), 5, "4 points + sweep_end");
        let end = events.last().unwrap();
        assert_eq!(end.event, "sweep_end");
        assert_eq!(end.completed + end.skipped + end.failed, 4);
        for (i, e) in events[..4].iter().enumerate() {
            assert_eq!(e.event, "point");
            assert_eq!(e.index, i, "stream is in enumeration order");
        }

        // Per-point metric deltas sum exactly (integer counters) to the
        // job's terminal snapshot: each job's private hub reconciles no
        // matter what its three concurrent neighbors are doing.
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for e in &events[..4] {
            for (k, v) in counters_of(&e.metrics) {
                *summed.entry(k).or_insert(0) += v;
            }
        }
        assert_eq!(
            summed,
            counters_of(&end.metrics),
            "job {id}: streamed deltas must sum to the final snapshot"
        );

        // The result document tells the same story as the stream.
        let (status, result) =
            http_request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 200);
        let result: Value = serde_json::from_str(&result).unwrap();
        assert_eq!(get_u64(&result, "total"), 4);
        assert_eq!(get_u64(&result, "completed"), end.completed as u64);
        assert_eq!(get_u64(&result, "skipped"), end.skipped as u64);
        assert_eq!(get_u64(&result, "failed"), end.failed as u64);
        result_points.push(serde_json::to_string(result.get("points").unwrap()).unwrap());
    }

    // Identical jobs racing through one cache must report identical
    // points — the shared tiers are transparent under concurrency.
    for p in &result_points[1..] {
        assert_eq!(p, &result_points[0]);
    }

    // The shared cache saw every lookup: 4 jobs x 4 points, one lowered
    // and one plan lookup each.
    let (status, cache_body) = http_request(addr, "GET", "/cache", None).unwrap();
    assert_eq!(status, 200);
    let cache_doc: Value = serde_json::from_str(&cache_body).unwrap();
    let stats = cache_doc.get("stats").unwrap();
    assert_eq!(
        get_u64(stats, "lowered_hits") + get_u64(stats, "lowered_misses"),
        16
    );
    assert_eq!(
        get_u64(stats, "plan_hits") + get_u64(stats, "plan_misses"),
        16
    );
    assert_eq!(cache_doc.get("disk").and_then(Value::as_bool), Some(true));
    assert!(
        get_u64(stats, "bytes_written") > 0,
        "finished jobs synced their artifacts to the disk tier"
    );

    // A Perfetto trace for every sweep point, served off the now-warm
    // cache, byte-equal to an in-process export of the same point.
    for (index, (label, microbatch)) in [
        ("TP2-PP2", 1),
        ("TP2-PP2", 2),
        ("TP4-PP2", 1),
        ("TP4-PP2", 2),
    ]
    .into_iter()
    .enumerate()
    {
        let (status, trace) = http_request(
            addr,
            "GET",
            &format!("/jobs/{}/trace/{index}", ids[0]),
            None,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(
            trace == in_process_trace(label, microbatch),
            "trace download for point {index} differs from the in-process export"
        );
        let trace: Value = serde_json::from_str(&trace).unwrap();
        assert!(
            trace
                .get("traceEvents")
                .and_then(Value::as_array)
                .is_some_and(|a| !a.is_empty()),
            "trace export carries events"
        );
    }

    // /metrics exposes the server's own counters.
    let (status, metrics) = http_request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(metrics.contains("server_jobs_submitted_total 4"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_submissions_are_rejected_and_cancel_is_cooperative() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    for bad in [
        r#"{"kind": "sweep"}"#,                                    // no specs
        r#"{"kind": "teapot", "specs": ["TP2"]}"#,                 // bad kind
        r#"{"specs": ["TP2-PP2"], "cluster": "warehouse"}"#,       // bad preset
        r#"{"specs": ["TP3-PP5"], "cluster": "single_hgx_node"}"#, // bad spec
    ] {
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(bad)).unwrap();
        assert_eq!(status, 400, "{bad} must be rejected: {resp}");
    }

    // A worker count no job can use is refused at submit, and the server
    // is still up afterwards.
    let huge = r#"{"specs": ["TP2-PP2"], "cluster": "single_hgx_node", "workers": 1000000000000}"#;
    let (status, resp) = http_request(addr, "POST", "/jobs", Some(huge)).unwrap();
    assert_eq!(status, 400, "oversized workers must be rejected: {resp}");
    let (status, _) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    // Oversized requests are refused once a cap is reached, not read in
    // truncated: a body over 1 MiB from its header alone (413), a 16 KiB
    // header line at the 8 KiB line cap and a 101st header (431). A
    // request exactly at both caps is served.
    let headers = |n: usize| (0..n).map(|i| format!("X-H{i}: 1\r\n")).collect::<String>();
    let padding = |len: usize| format!("X-Padding: {}\r\n", "a".repeat(len));
    for (request, status) in [
        (
            "POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_string(),
            413,
        ),
        (
            format!("GET /healthz HTTP/1.1\r\n{}\r\n", padding(16 << 10)),
            431,
        ),
        (
            format!("GET /healthz HTTP/1.1\r\n{}\r\n", headers(101)),
            431,
        ),
        (
            format!(
                "GET /healthz HTTP/1.1\r\n{}{}\r\n",
                padding((8 << 10) - "X-Padding: \r\n".len()),
                headers(99)
            ),
            200,
        ),
    ] {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        assert!(
            resp.starts_with(&format!("HTTP/1.1 {status} ")),
            "{status}: {resp}"
        );
    }

    // Cancel lands on a many-point job; whatever was still pending is
    // skipped with the cancel reason, and every point stays accounted.
    let body = r#"{"kind": "sweep", "cluster": "single_hgx_node", "model": "gpt3_13b",
                   "global_batch": 4, "specs": ["TP2-PP2", "TP4-PP2", "TP2-PP4", "TP8"],
                   "microbatches": [1, 2, 4], "workers": 1}"#;
    let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
    assert_eq!(status, 202);
    let id = get_u64(&serde_json::from_str(&resp).unwrap(), "job");
    let (status, resp) = http_request(addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        serde_json::from_str::<Value>(&resp)
            .unwrap()
            .get("canceled")
            .and_then(Value::as_bool),
        Some(true)
    );
    // Drain the stream (blocks until the job winds down), then check the
    // result accounts for all 12 points.
    let (_, stream) = http_request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
    let (status, result) = http_request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(status, 200);
    let result: Value = serde_json::from_str(&result).unwrap();
    assert_eq!(get_u64(&result, "total"), 12);
    assert_eq!(
        get_u64(&result, "completed") + get_u64(&result, "skipped") + get_u64(&result, "failed"),
        12
    );
    let canceled_lines = stream.lines().filter(|l| l.contains("canceled")).count();
    if get_u64(&result, "skipped") > 0 {
        assert!(
            canceled_lines > 0,
            "skipped points carry the cancel reason in the stream"
        );
    }

    // Unknown job ids and endpoints 404.
    let (status, _) = http_request(addr, "GET", "/jobs/999/result", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    server.shutdown();
}

#[test]
fn result_points_match_stream_events_and_traces_stay_inside_the_grid() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let submit = |body: &str| {
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 202, "{resp}");
        get_u64(&serde_json::from_str(&resp).unwrap(), "job")
    };

    // TP2-PP2 on one node is dp 2: microbatch 3 does not divide the
    // per-replica batch of 2, so point 1 is skipped.
    let id = submit(
        r#"{"cluster": "single_hgx_node", "global_batch": 4, "specs": ["TP2-PP2"],
            "microbatches": [1, 3], "workers": 1}"#,
    );
    let (_, stream) = http_request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
    let events: Vec<Value> = stream
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let (status, result) = http_request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
    assert_eq!(status, 200);
    let result: Value = serde_json::from_str(&result).unwrap();
    let points = result.get("points").and_then(Value::as_array).unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(events.len(), 3, "2 points + sweep_end");
    let outcome = |v: &Value| v.get("outcome").and_then(Value::as_str).map(str::to_string);
    assert_eq!(outcome(&points[0]).as_deref(), Some("completed"));
    assert_eq!(outcome(&points[1]).as_deref(), Some("skipped"));
    for (i, (point, event)) in points.iter().zip(&events).enumerate() {
        for key in [
            "index",
            "point",
            "outcome",
            "reason",
            "step_time_s",
            "tokens_per_s",
            "energy_per_step_j",
        ] {
            assert_eq!(
                point.get(key),
                event.get(key),
                "points[{i}].{key} differs from stream event {i}"
            );
        }
    }

    // The grid has two points: index 2 is outside it, and so is every
    // index of a search job, which has no grid of its own.
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}/trace/2"), None).unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, _) = http_request(addr, "GET", &format!("/jobs/{id}/trace/1"), None).unwrap();
    assert_eq!(status, 400, "a skipped point has no trace");
    let search = submit(r#"{"kind": "search", "cluster": "single_hgx_node", "finalists": 0}"#);
    let (status, body) =
        http_request(addr, "GET", &format!("/jobs/{search}/trace/0"), None).unwrap();
    assert_eq!(status, 400, "{body}");

    server.shutdown();
}

#[test]
fn connections_past_the_cap_are_answered_503_until_a_slot_frees() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Idle connections hold their slots: the accept thread takes them in
    // order, so every one is counted before the next request arrives.
    let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("open connections"), "{body}");

    // Closing one frees its slot once its handler returns.
    drop(held.pop());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
        if status == 200 {
            break;
        }
        assert_eq!(status, 503, "{body}");
        assert!(
            std::time::Instant::now() < deadline,
            "the freed slot was never reused"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    drop(held);
    server.shutdown();
}

#[test]
fn submissions_past_the_queue_cap_are_answered_503_until_it_drains() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let submit = || {
        let body = r#"{"kind": "sweep", "cluster": "single_hgx_node", "model": "gpt3_13b",
                       "global_batch": 128, "specs": ["TP2-PP2", "TP4-PP2", "TP2-PP4", "TP8"],
                       "microbatches": [1, 2, 4], "workers": 1}"#;
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
        (status, resp)
    };
    let state_of = |id: u64| {
        let (_, resp) = http_request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        let v: Value = serde_json::from_str(&resp).unwrap();
        v.get("state").and_then(Value::as_str).unwrap().to_string()
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    };

    // Hold the one worker on a twelve-point job (seconds in a debug
    // build, against milliseconds per submission), then fill the queue.
    let (status, resp) = submit();
    assert_eq!(status, 202, "{resp}");
    let busy = get_u64(&serde_json::from_str(&resp).unwrap(), "job");
    wait_for("the first job starts", &|| state_of(busy) == "running");
    let mut ids = vec![busy];
    for _ in 0..MAX_QUEUED_JOBS {
        let (status, resp) = submit();
        assert_eq!(status, 202, "{resp}");
        ids.push(get_u64(&serde_json::from_str(&resp).unwrap(), "job"));
    }
    let (status, resp) = submit();
    assert_eq!(status, 503, "{resp}");
    assert!(resp.contains("already waiting"), "{resp}");
    // The refused job was never registered.
    let (_, list) = http_request(addr, "GET", "/jobs", None).unwrap();
    let list: Value = serde_json::from_str(&list).unwrap();
    let listed = list.get("jobs").and_then(Value::as_array).unwrap().len();
    assert_eq!(listed, MAX_QUEUED_JOBS + 1);

    // Canceled jobs wind down at once, so the queue drains and takes
    // submissions again.
    for &id in ids.iter().rev() {
        let (status, _) = http_request(addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
        assert_eq!(status, 200);
    }
    let last = *ids.last().unwrap();
    wait_for("the queue drains", &|| {
        !matches!(state_of(last).as_str(), "queued" | "running")
    });
    let (status, resp) = submit();
    assert_eq!(status, 202, "{resp}");
    let id = get_u64(&serde_json::from_str(&resp).unwrap(), "job");
    http_request(addr, "POST", &format!("/jobs/{id}/cancel"), None).unwrap();
    server.shutdown();
}

#[test]
fn finished_jobs_past_the_cap_are_dropped_oldest_first() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // One point that is skipped before it simulates: microbatch 3 does not
    // divide TP2-PP2's per-replica batch of 2. Reading a job's stream to
    // its end waits for the job to finish.
    let run_job = || {
        let body = r#"{"cluster": "single_hgx_node", "global_batch": 4, "specs": ["TP2-PP2"],
                       "microbatches": [3], "workers": 1}"#;
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 202, "{resp}");
        let id = get_u64(&serde_json::from_str(&resp).unwrap(), "job");
        let (status, _) = http_request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
        assert_eq!(status, 200);
        id
    };
    let ids: Vec<u64> = (0..=MAX_FINISHED_JOBS).map(|_| run_job()).collect();
    let (first, last) = (ids[0], ids[MAX_FINISHED_JOBS]);
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{first}"), None).unwrap();
    assert_eq!(status, 404, "the first finished job is dropped: {body}");
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{first}/result"), None).unwrap();
    assert_eq!(status, 404, "{body}");
    let (status, body) = http_request(addr, "GET", &format!("/jobs/{last}/result"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    let (_, list) = http_request(addr, "GET", "/jobs", None).unwrap();
    let list: Value = serde_json::from_str(&list).unwrap();
    let listed: Vec<u64> = list
        .get("jobs")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|j| get_u64(j, "job"))
        .collect();
    assert_eq!(
        listed,
        ids[1..],
        "the last {MAX_FINISHED_JOBS} finished jobs stay"
    );
    server.shutdown();
}

#[test]
fn a_deeply_nested_body_is_a_bad_request_not_a_crash() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    // 100 KB, under the body cap: one parser recursion per bracket would
    // overflow the connection thread's stack and abort the process.
    for body in ["[".repeat(100_000), r#"{"a":"#.repeat(20_000)] {
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(&body)).unwrap();
        assert_eq!(status, 400, "{resp}");
    }
    let (status, list) = http_request(addr, "GET", "/jobs", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(list, r#"{"jobs":[]}"#);
    server.shutdown();
}

/// The `/result` text of a finished sweep job (one completed and one
/// skipped point) and of a search job, byte for byte: fields in their
/// documented order, floats as the engine computed them.
#[test]
fn result_documents_are_pinned() {
    let server = SimServer::bind(
        "127.0.0.1:0",
        Arc::new(SimCache::new()),
        ServerConfig {
            job_workers: 1,
            sweep_workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let result_of = |body: &str| {
        let (status, resp) = http_request(addr, "POST", "/jobs", Some(body)).unwrap();
        assert_eq!(status, 202, "{resp}");
        let id = get_u64(&serde_json::from_str(&resp).unwrap(), "job");
        // The stream's read returns once the job has finished.
        http_request(addr, "GET", &format!("/jobs/{id}/stream"), None).unwrap();
        let (status, result) =
            http_request(addr, "GET", &format!("/jobs/{id}/result"), None).unwrap();
        assert_eq!(status, 200);
        result
    };

    let sweep = result_of(
        r#"{"cluster": "single_hgx_node", "global_batch": 4, "specs": ["TP2-PP2"],
            "microbatches": [1, 3], "workers": 1}"#,
    );
    assert_eq!(
        sweep,
        concat!(
            r#"{"kind":"sweep","total":2,"completed":1,"skipped":1,"failed":0,"#,
            r#""cache":{"lowered_hits":0,"lowered_misses":1,"plan_hits":0,"plan_misses":1,"#,
            r#""lowered_disk_hits":0,"lowered_disk_misses":0,"plan_disk_hits":0,"plan_disk_misses":0,"#,
            r#""lowered_evictions":0,"plan_evictions":0,"bytes_written":0},"#,
            r#""points":[{"index":0,"point":"TP2-PP2 Base mb1","outcome":"completed","reason":"","#,
            r#""step_time_s":0.31313777712381274,"tokens_per_s":26161.008343496458,"#,
            r#""energy_per_step_j":1174.313824854711},"#,
            r#"{"index":1,"point":"TP2-PP2 Base mb3","outcome":"skipped","#,
            r#""reason":"invalid training job: global batch 4 not divisible by dp 2 x microbatch 3","#,
            r#""step_time_s":0,"tokens_per_s":0,"energy_per_step_j":0}]}"#,
        )
    );

    let search = result_of(
        r#"{"kind": "search", "cluster": "single_hgx_node", "global_batch": 4,
            "finalists": 1, "workers": 1}"#,
    );
    assert_eq!(
        (search.len(), format!("{:#018x}", fnv1a(search.as_bytes()))),
        (1120, "0xcbdd15d969a9630b".to_string()),
        "{search}"
    );
    server.shutdown();
}
