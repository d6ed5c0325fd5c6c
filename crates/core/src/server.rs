//! Sim-as-a-service: a std-only HTTP job server over the simulation stack.
//!
//! ROADMAP item 5 frames the simulator as shared infrastructure queried
//! repeatedly by many users. [`SimServer`] is that deployment shape: a
//! long-running process owning one [`SimCache`] (optionally persistent,
//! see [`SimCache::with_disk_tier`]) that serves concurrent sweep and
//! configuration-search jobs, so every warm-path win — memoized lowering,
//! shared collective plans, the disk tier — compounds across clients
//! instead of evaporating at process exit.
//!
//! # Protocol
//!
//! Plain HTTP/1.1 over [`std::net::TcpListener`] (the vendored-deps
//! constraint rules out any HTTP crate; every response closes the
//! connection, so clients need nothing beyond a socket and a JSON
//! parser). Endpoints:
//!
//! | Method & path          | Meaning                                       |
//! |------------------------|-----------------------------------------------|
//! | `POST /jobs`           | Submit a job (JSON body, see below); `202` + `{"job": id}` |
//! | `GET /jobs`            | List jobs with states                         |
//! | `GET /jobs/{id}`       | One job's status                              |
//! | `GET /jobs/{id}/stream`| Live JSONL [`ProgressEvent`](crate::stream::ProgressEvent) stream (close-delimited) |
//! | `GET /jobs/{id}/result`| Final result document (`404` until done)      |
//! | `POST /jobs/{id}/cancel` | Cooperative cancel (pending points skip)    |
//! | `GET /jobs/{id}/trace/{point}` | Perfetto `traceEvents` JSON for one sweep point |
//! | `GET /cache`           | Shared-cache [`CacheStats`] + tier info       |
//! | `GET /metrics`         | Server-hub Prometheus text                    |
//! | `GET /healthz`         | Liveness probe                                |
//!
//! A job request names presets rather than carrying full topologies —
//! the server owns the cluster zoo:
//!
//! ```json
//! {"kind": "sweep", "cluster": "hgx_h200", "model": "gpt3_13b",
//!  "global_batch": 8, "specs": ["TP2-PP2", "TP4-PP2"],
//!  "microbatches": [1], "fast": true, "workers": 2}
//! ```
//!
//! `"kind": "search"` instead takes `"finalists"` and `"objective"`
//! (`"throughput"` / `"efficiency"`) and runs
//! [`search_configs_with_cache`] over the same shared cache. A job may ask
//! for at most 64 `"workers"`; more is refused with 400.
//!
//! # Concurrency
//!
//! Submitted jobs enter a queue drained by a bounded pool of
//! [`ServerConfig::job_workers`] threads, so up to that many jobs run
//! concurrently, all sharing the one cache; each sweep job additionally
//! fans its points across its own [`Executor`](crate::Executor) pool
//! ([`ServerConfig::sweep_workers`] wide). Every job gets a private
//! [`MetricsHub`], so its streamed snapshot deltas reconcile exactly
//! against its own `sweep_end` snapshot no matter what its neighbors do.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde_json::{json, Value};

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::ParallelismSpec;
use charllm_sim::SimConfig;
use charllm_telemetry::metrics::MetricsHub;

use crate::cache::{CacheStats, SimCache};
use crate::error::CoreError;
use crate::experiment::Experiment;
use crate::search::{search_configs_with_cache, Objective, SearchOptions};
use crate::stream::ProgressStream;
use crate::sweep::Sweep;

/// How long a connection may dribble its request before the server drops
/// it; responses (including long-lived streams) are not bounded.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest request body the server accepts; larger ones are refused with
/// 413 before any of the body is read.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest request or header line the server reads, terminator included;
/// a longer one is refused with 431 once the cap is reached.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines one request may carry; one more is refused with 431.
const MAX_HEADERS: usize = 100;

/// Most worker threads one job may ask for; more is refused with 400 at
/// submit. Each worker gets a metrics shard, so an unchecked count could
/// abort the process on allocation.
const MAX_JOB_WORKERS: usize = 64;

/// Server deployment knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent jobs (the bounded job-worker pool width). Default 4.
    pub job_workers: usize,
    /// `Executor` width inside each sweep/search job (`0` = one per
    /// core — avoid with several job workers). Default 2.
    pub sweep_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            job_workers: 4,
            sweep_workers: 2,
        }
    }
}

/// What a job is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// A parsed, validated job submission.
#[derive(Debug, Clone)]
struct JobRequest {
    kind: String,
    cluster: String,
    model: String,
    global_batch: usize,
    specs: Vec<String>,
    microbatches: Vec<usize>,
    fast: bool,
    workers: usize,
    finalists: usize,
    objective: Objective,
}

impl JobRequest {
    /// Parse a submission body. Absent fields default; unknown presets
    /// and empty grids are rejected here so the queue only ever holds
    /// runnable jobs.
    fn parse(body: &Value, defaults: &ServerConfig) -> Result<JobRequest, String> {
        let get_str = |k: &str, d: &str| -> String {
            body.get(k).and_then(Value::as_str).unwrap_or(d).into()
        };
        let get_usize = |k: &str, d: usize| -> usize {
            body.get(k)
                .and_then(Value::as_number)
                .and_then(serde::Number::to_u64)
                .map_or(d, |v| v as usize)
        };
        let kind = get_str("kind", "sweep");
        if kind != "sweep" && kind != "search" {
            return Err(format!("unknown job kind {kind:?}"));
        }
        let specs: Vec<String> = body
            .get("specs")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        if kind == "sweep" && specs.is_empty() {
            return Err("sweep jobs need a non-empty \"specs\" list".into());
        }
        let microbatches: Vec<usize> = body
            .get("microbatches")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_number)
                    .filter_map(serde::Number::to_u64)
                    .map(|v| v as usize)
                    .collect()
            })
            .filter(|v: &Vec<usize>| !v.is_empty())
            .unwrap_or_else(|| vec![1]);
        let workers = get_usize("workers", defaults.sweep_workers);
        if workers > MAX_JOB_WORKERS {
            return Err(format!("\"workers\" over {MAX_JOB_WORKERS}"));
        }
        let req = JobRequest {
            kind,
            cluster: get_str("cluster", "hgx_h200"),
            model: get_str("model", "gpt3_13b"),
            global_batch: get_usize("global_batch", 8),
            specs,
            microbatches,
            fast: body.get("fast").and_then(Value::as_bool).unwrap_or(true),
            workers,
            finalists: get_usize("finalists", 3),
            objective: match get_str("objective", "throughput").as_str() {
                "throughput" => Objective::Throughput,
                "efficiency" => Objective::Efficiency,
                other => return Err(format!("unknown objective {other:?}")),
            },
        };
        req.resolve()?; // fail fast on bad presets / specs
        Ok(req)
    }

    /// Materialize presets into the concrete cluster, job and spec grid.
    fn resolve(&self) -> Result<(Arc<Cluster>, TrainJob, Vec<ParallelismSpec>), String> {
        use charllm_hw::presets as hw;
        use charllm_models::presets as models;
        let cluster = match self.cluster.as_str() {
            "hgx_h200" => hw::hgx_h200_cluster(),
            "hgx_h100" => hw::hgx_h100_cluster(),
            "mi250" => hw::mi250_cluster(),
            "single_hgx_node" => crate::presets::single_hgx_node(),
            other => return Err(format!("unknown cluster preset {other:?}")),
        };
        let arch = match self.model.as_str() {
            "gpt3_13b" => models::gpt3_13b(),
            "gpt3_30b" => models::gpt3_30b(),
            "gpt3_175b" => models::gpt3_175b(),
            "llama3_30b" => models::llama3_30b(),
            "llama3_70b" => models::llama3_70b(),
            "mixtral_4x7b" => models::mixtral_4x7b(),
            "mixtral_8x7b" => models::mixtral_8x7b(),
            "mixtral_8x22b" => models::mixtral_8x22b(),
            other => return Err(format!("unknown model preset {other:?}")),
        };
        let job = TrainJob::pretrain(arch).with_global_batch(self.global_batch);
        let world = cluster.num_gpus();
        let specs = self
            .specs
            .iter()
            .map(|label| {
                ParallelismSpec::parse(label, world).map_err(|e| format!("bad spec {label:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Arc::new(cluster), job, specs))
    }

    fn sim_config(&self) -> SimConfig {
        if self.fast {
            SimConfig::fast()
        } else {
            SimConfig::default()
        }
    }
}

/// The append-only byte log a job's JSONL stream writes into, shared
/// between the job worker (producer) and any number of `/stream`
/// connections (consumers). Consumers block on the condvar until more
/// bytes arrive or the job finishes, so a stream is live — lines appear
/// as points finish — and late subscribers still replay from the start.
#[derive(Default)]
struct JobSink {
    state: Mutex<SinkState>,
    cv: Condvar,
}

#[derive(Default)]
struct SinkState {
    bytes: Vec<u8>,
    done: bool,
}

impl JobSink {
    fn append(&self, chunk: &[u8]) {
        let mut st = self.state.lock().expect("sink poisoned");
        st.bytes.extend_from_slice(chunk);
        drop(st);
        self.cv.notify_all();
    }

    fn finish(&self) {
        self.state.lock().expect("sink poisoned").done = true;
        self.cv.notify_all();
    }

    /// Bytes past `pos`, blocking until there are any or the job is done.
    /// Returns `(chunk, done)`; an empty chunk with `done` means fully
    /// drained.
    fn wait_from(&self, pos: usize) -> (Vec<u8>, bool) {
        let mut st = self.state.lock().expect("sink poisoned");
        while st.bytes.len() <= pos && !st.done {
            st = self.cv.wait(st).expect("sink poisoned");
        }
        let chunk = st.bytes.get(pos..).map(<[u8]>::to_vec).unwrap_or_default();
        (chunk, st.done)
    }
}

/// `Write` adapter handed to [`ProgressStream`]: every JSONL line the
/// sweep emits lands in the job's sink.
struct SinkWriter(Arc<JobSink>);

impl Write for SinkWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.append(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One submitted job.
struct Job {
    id: u64,
    request: JobRequest,
    state: Mutex<JobState>,
    cancel: Arc<AtomicBool>,
    sink: Arc<JobSink>,
    /// The final result document (or `{"error": ...}` on failure).
    result: Mutex<Option<Value>>,
    /// Total sweep points (0 for search jobs, whose grid is enumerated
    /// inside the search).
    total_points: usize,
}

impl Job {
    fn status(&self) -> Value {
        json!({
            "job": self.id,
            "kind": self.request.kind,
            "state": self.state.lock().expect("job poisoned").label(),
            "canceled": self.cancel.load(Ordering::Relaxed),
            "points": self.total_points,
        })
    }
}

/// Shared server state: the cache, the job registry and the queue.
struct ServerState {
    cfg: ServerConfig,
    cache: Arc<SimCache>,
    hub: Arc<MetricsHub>,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    stop: AtomicBool,
}

impl ServerState {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs poisoned").get(&id).cloned()
    }
}

/// A running sim server: accept loop plus the bounded job-worker pool.
/// Dropping without [`SimServer::shutdown`] detaches the threads (they
/// die with the process); tests and the example shut down explicitly.
pub struct SimServer {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SimServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimServer")
            .field("addr", &self.addr)
            .field("job_workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl SimServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `cache` — typically persistent and/or bounded; the server adds no
    /// tiers of its own. The server registers its own counters
    /// (`server_jobs_*`) on a private hub served at `/metrics`; build the
    /// cache [`with metrics`](SimCache::with_metrics) on that hub via
    /// [`SimServer::bind`]'s sibling pattern if cache series are wanted
    /// there too.
    ///
    /// # Errors
    ///
    /// Propagates socket errors as [`CoreError::Io`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        cache: Arc<SimCache>,
        cfg: ServerConfig,
    ) -> Result<SimServer, CoreError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(ServerState {
            cfg: cfg.clone(),
            cache,
            hub: MetricsHub::new(1),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
        });
        let workers = (0..cfg.job_workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || job_worker(&state))
            })
            .collect();
        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&listener, &state))
        };
        Ok(SimServer {
            state,
            addr: local,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared cache (e.g. to sync or inspect stats out-of-band).
    pub fn cache(&self) -> Arc<SimCache> {
        Arc::clone(&self.state.cache)
    }

    /// Stop accepting, drain nothing further from the queue, wait for
    /// in-flight jobs to finish, and join every thread. Queued-but-unrun
    /// jobs stay `queued` forever; cancel them first if that matters.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.queue_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One job-worker thread: pull ids off the queue until shutdown.
fn job_worker(state: &Arc<ServerState>) {
    loop {
        let id = {
            let mut queue = state.queue.lock().expect("queue poisoned");
            loop {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                queue = state.queue_cv.wait(queue).expect("queue poisoned");
            }
        };
        let Some(job) = state.job(id) else { continue };
        *job.state.lock().expect("job poisoned") = JobState::Running;
        let (final_state, doc) = settle_job(|| run_job(state, &job));
        *job.result.lock().expect("job poisoned") = Some(doc);
        *job.state.lock().expect("job poisoned") = final_state;
        job.sink.finish();
        state
            .hub
            .shard(0)
            .counter(
                "server_jobs_finished_total",
                &[("state", final_state.label())],
            )
            .inc();
    }
}

/// Run a job body to its final state and result document. A panic inside
/// the body becomes a `failed` job carrying the panic message, so the job
/// never stays `running` and the worker thread survives to serve the
/// queue.
fn settle_job(body: impl FnOnce() -> Result<Value, CoreError>) -> (JobState, Value) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(Ok(doc)) => (JobState::Done, doc),
        Ok(Err(e)) => (JobState::Failed, json!({ "error": e.to_string() })),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (
                JobState::Failed,
                json!({ "error": format!("job panicked: {msg}") }),
            )
        }
    }
}

/// Execute one job against the shared cache and produce its result
/// document.
fn run_job(state: &Arc<ServerState>, job: &Arc<Job>) -> Result<Value, CoreError> {
    let req = &job.request;
    let (cluster, train_job, specs) = req.resolve().map_err(CoreError::Incomplete)?;
    if req.kind == "search" {
        let opts = SearchOptions {
            objective: req.objective,
            finalists: req.finalists,
            sim: req.sim_config(),
            workers: req.workers,
        };
        let ranked =
            search_configs_with_cache(&train_job, &cluster, opts, Arc::clone(&state.cache))?;
        // The screen phase lowers without running, so nothing has synced
        // its publications yet; persist them too.
        state.cache.sync_disk()?;
        let candidates: Vec<Value> = ranked
            .iter()
            .map(|c| {
                json!({
                    "spec": c.spec.label(),
                    "analytic_tokens_per_s": c.analytic.tokens_per_s,
                    "tokens_per_s": c.report.as_ref().map_or(0.0, |r| r.tokens_per_s),
                    "tokens_per_joule": c.report.as_ref().map_or(0.0, |r| r.tokens_per_joule),
                    "simulated": c.report.is_some(),
                })
            })
            .collect();
        return Ok(json!({ "kind": "search", "candidates": candidates }));
    }
    // Per-job hub: streamed deltas reconcile against this job's own final
    // snapshot, independent of concurrent neighbors.
    let hub = MetricsHub::new(req.workers.max(1) + 1);
    let stream = Arc::new(ProgressStream::new(SinkWriter(Arc::clone(&job.sink))));
    let sweep = Sweep::new(Arc::clone(&cluster), train_job, specs)
        .with_microbatches(req.microbatches.clone())
        .with_sim_config(req.sim_config())
        .workers(req.workers)
        .with_cache(Arc::clone(&state.cache))
        .with_metrics(Arc::clone(&hub))
        .stream(stream)
        .cancel_flag(Arc::clone(&job.cancel));
    let outcomes = sweep.run_outcomes();
    let mut cache_total = CacheStats::default();
    let points: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            let point = o.point();
            let (outcome, reason) = match o {
                crate::sweep::SweepOutcome::Completed { .. } => ("completed", String::new()),
                crate::sweep::SweepOutcome::Skipped { reason, .. } => ("skipped", reason.clone()),
                crate::sweep::SweepOutcome::Failed { error, .. } => ("failed", error.to_string()),
            };
            if let Some(stats) = o.report().and_then(|r| r.cache) {
                cache_total = cache_total.add(&stats);
            }
            json!({
                "index": point.index,
                "point": point.to_string(),
                "outcome": outcome,
                "reason": reason,
                "step_time_s": o.report().map_or(0.0, |r| r.step_time_s),
                "tokens_per_s": o.report().map_or(0.0, |r| r.tokens_per_s),
                "energy_per_step_j": o.report().map_or(0.0, |r| r.energy_per_step_j),
            })
        })
        .collect();
    let completed = outcomes.iter().filter(|o| o.report().is_some()).count();
    let skipped = outcomes.iter().filter(|o| o.is_skipped()).count();
    Ok(json!({
        "kind": "sweep",
        "total": outcomes.len(),
        "completed": completed,
        "skipped": skipped,
        "failed": outcomes.len() - completed - skipped,
        "cache": serde_json::to_value(cache_total).expect("stats serialize"),
        "points": points,
    }))
}

/// Accept loop: one thread per connection (connections are few and
/// `/stream` ones are long-lived, so a pool would only add latency).
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = conn else { continue };
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            let _ = handle_connection(conn, &state);
        });
    }
}

/// A minimal parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: Value,
}

/// Read one line of at most [`MAX_LINE_BYTES`]. `Ok(None)` when the cap
/// is reached before the line ends: nothing past the cap is read.
fn read_capped_line(reader: &mut impl BufRead) -> Result<Option<String>, CoreError> {
    let mut line = String::new();
    reader.take(MAX_LINE_BYTES as u64).read_line(&mut line)?;
    Ok((line.len() < MAX_LINE_BYTES || line.ends_with('\n')).then_some(line))
}

/// Read one request. `Ok(None)` means the request was refused and already
/// answered: 400 for an unparsable `Content-Length`, 413 for a body over
/// [`MAX_BODY_BYTES`], 431 for a line over [`MAX_LINE_BYTES`] or more than
/// [`MAX_HEADERS`] headers.
fn read_request(conn: &mut TcpStream) -> Result<Option<Request>, CoreError> {
    conn.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let too_large = || {
        format!("request line or header over {MAX_LINE_BYTES} bytes, or over {MAX_HEADERS} headers")
    };
    let Some(line) = read_capped_line(&mut reader)? else {
        return refuse(conn, 431, &too_large());
    };
    let mut parts = line.split_whitespace();
    let bad = || CoreError::Incomplete("malformed request line".into());
    let method = parts.next().ok_or_else(bad)?.to_string();
    let path = parts.next().ok_or_else(bad)?.to_string();
    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let Some(header) = read_capped_line(&mut reader)? else {
            return refuse(conn, 431, &too_large());
        };
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return refuse(conn, 431, &too_large());
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            let Ok(n) = v.parse() else {
                return refuse(conn, 400, "invalid Content-Length");
            };
            content_length = n;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return refuse(
            conn,
            413,
            &format!("request body over {MAX_BODY_BYTES} bytes"),
        );
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = match std::str::from_utf8(&body) {
        Ok(text) if !text.is_empty() => serde_json::from_str(text).unwrap_or(Value::Null),
        _ => Value::Null,
    };
    Ok(Some(Request { method, path, body }))
}

/// Answer a refused request and close the write side: a client still
/// sending the rest of its request then reads the answer and end-of-stream,
/// not a reset, when the connection drops with that rest unread.
fn refuse(conn: &mut TcpStream, status: u16, error: &str) -> Result<Option<Request>, CoreError> {
    respond_json(conn, status, &json!({ "error": error }));
    let _ = conn.shutdown(Shutdown::Write);
    Ok(None)
}

fn respond(conn: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let _ = write!(
        conn,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.flush();
}

fn respond_json(conn: &mut TcpStream, status: u16, body: &Value) {
    respond(
        conn,
        status,
        "application/json",
        &serde_json::to_string(body).expect("response serializes"),
    );
}

fn handle_connection(mut conn: TcpStream, state: &Arc<ServerState>) -> Result<(), CoreError> {
    let Some(req) = read_request(&mut conn)? else {
        return Ok(());
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(&mut conn, 200, "text/plain", "ok\n"),
        ("GET", ["metrics"]) => {
            let text = state.hub.snapshot().prometheus_text();
            respond(&mut conn, 200, "text/plain; version=0.0.4", &text);
        }
        ("GET", ["cache"]) => {
            let stats = state.cache.stats();
            let body = json!({
                "stats": serde_json::to_value(stats).expect("stats serialize"),
                "disk": state.cache.has_disk_tier(),
                "disk_hits": stats.disk_hits(),
                "evictions": stats.evictions(),
            });
            respond_json(&mut conn, 200, &body);
        }
        ("POST", ["jobs"]) => match submit(state, &req.body) {
            Ok(id) => respond_json(&mut conn, 202, &json!({ "job": id })),
            Err(msg) => respond_json(&mut conn, 400, &json!({ "error": msg })),
        },
        ("GET", ["jobs"]) => {
            let jobs = state.jobs.lock().expect("jobs poisoned");
            let mut list: Vec<(u64, Value)> =
                jobs.iter().map(|(id, j)| (*id, j.status())).collect();
            drop(jobs);
            list.sort_by_key(|(id, _)| *id);
            let list: Vec<Value> = list.into_iter().map(|(_, v)| v).collect();
            respond_json(&mut conn, 200, &json!({ "jobs": list }));
        }
        (method, ["jobs", id, rest @ ..]) => {
            let Some(job) = id.parse().ok().and_then(|id| state.job(id)) else {
                respond_json(&mut conn, 404, &json!({ "error": "no such job" }));
                return Ok(());
            };
            match (method, rest) {
                ("GET", []) => respond_json(&mut conn, 200, &job.status()),
                ("GET", ["result"]) => match &*job.result.lock().expect("job poisoned") {
                    Some(doc) => respond_json(&mut conn, 200, doc),
                    None => respond_json(&mut conn, 404, &json!({ "error": "not finished" })),
                },
                ("POST", ["cancel"]) => {
                    job.cancel.store(true, Ordering::SeqCst);
                    respond_json(&mut conn, 200, &job.status());
                }
                ("GET", ["stream"]) => stream_job(&mut conn, &job),
                ("GET", ["trace", point]) => match point.parse::<usize>() {
                    Ok(index) => match perfetto_for_point(state, &job.request, index) {
                        Ok(text) => respond(&mut conn, 200, "application/json", &text),
                        Err(e) => {
                            respond_json(&mut conn, 400, &json!({ "error": e.to_string() }));
                        }
                    },
                    Err(_) => respond_json(&mut conn, 400, &json!({ "error": "bad point index" })),
                },
                _ => respond_json(&mut conn, 404, &json!({ "error": "no such endpoint" })),
            }
        }
        _ => respond_json(&mut conn, 404, &json!({ "error": "no such endpoint" })),
    }
    Ok(())
}

/// Validate, register and enqueue a submission; returns the job id.
fn submit(state: &Arc<ServerState>, body: &Value) -> Result<u64, String> {
    let request = JobRequest::parse(body, &state.cfg)?;
    let total_points = if request.kind == "sweep" {
        request.specs.len() * request.microbatches.len()
    } else {
        0
    };
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        request,
        state: Mutex::new(JobState::Queued),
        cancel: Arc::new(AtomicBool::new(false)),
        sink: Arc::new(JobSink::default()),
        result: Mutex::new(None),
        total_points,
    });
    state.jobs.lock().expect("jobs poisoned").insert(id, job);
    state.queue.lock().expect("queue poisoned").push_back(id);
    state.queue_cv.notify_one();
    state
        .hub
        .shard(0)
        .counter("server_jobs_submitted_total", &[])
        .inc();
    Ok(id)
}

/// Serve a live JSONL stream: replay what the job already emitted, then
/// follow along until it finishes (close-delimited body).
fn stream_job(conn: &mut TcpStream, job: &Arc<Job>) {
    let _ = write!(
        conn,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    );
    let mut pos = 0usize;
    loop {
        let (chunk, done) = job.sink.wait_from(pos);
        pos += chunk.len();
        if !chunk.is_empty() {
            if conn.write_all(&chunk).is_err() {
                return; // consumer went away; the job keeps running
            }
            let _ = conn.flush();
        }
        if done && chunk.is_empty() {
            return;
        }
    }
}

/// Re-run one sweep point with a span recorder attached and export its
/// Chrome `traceEvents` JSON. The point runs as an [`Experiment`] on the
/// shared cache, so a trace download after a sweep costs one extra
/// (observed) simulation, not a cold rebuild.
fn perfetto_for_point(
    state: &Arc<ServerState>,
    req: &JobRequest,
    index: usize,
) -> Result<String, CoreError> {
    let (cluster, job, specs) = req.resolve().map_err(CoreError::Incomplete)?;
    let per_spec = req.microbatches.len();
    if req.kind != "sweep" || index >= specs.len() * per_spec {
        return Err(CoreError::Incomplete(format!(
            "point {index} outside the job's grid"
        )));
    }
    let events = Experiment::builder()
        .cluster(cluster)
        .job(job.with_microbatch(req.microbatches[index % per_spec]))
        .spec(specs[index / per_spec])
        .sim_config(req.sim_config())
        .cache(Arc::clone(&state.cache))
        .build()?
        .chrome_trace()?;
    Ok(serde_json::to_string(&events).expect("trace serializes"))
}

/// Minimal std-only HTTP client for tests, examples and CI smokes: one
/// request, `Connection: close`, returns `(status, body)`. Reading a
/// `/stream` response blocks until the job finishes (the body is
/// close-delimited).
///
/// # Errors
///
/// Propagates socket errors as [`CoreError::Io`] and malformed responses
/// as [`CoreError::Incomplete`].
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), CoreError> {
    let mut conn = TcpStream::connect(addr)?;
    let body = body.unwrap_or("");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: sim\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    conn.flush()?;
    let mut response = String::new();
    let mut reader = BufReader::new(conn);
    reader.read_to_string(&mut response)?;
    let bad = || CoreError::Incomplete("malformed response".into());
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(bad)?;
    Ok((status, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_job_settles_as_failed_and_the_worker_survives() {
        // Drive the worker's guard on its own thread, as the pool does: a
        // panicking body must settle as `failed` with the message, and the
        // thread must go on to run the next job.
        let worker = std::thread::spawn(|| {
            let first = settle_job(|| panic!("point 3 exploded"));
            let second = settle_job(|| Ok(json!({ "kind": "sweep" })));
            (first, second)
        });
        let ((state, doc), (next_state, next_doc)) = worker.join().expect("worker survives");
        assert_eq!(state, JobState::Failed);
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("job panicked: point 3 exploded")
        );
        assert_eq!(next_state, JobState::Done);
        assert_eq!(next_doc.get("kind").and_then(Value::as_str), Some("sweep"));
        let (state, doc) = settle_job(|| panic!("{} of {}", 2, 7));
        assert_eq!(state, JobState::Failed);
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("job panicked: 2 of 7")
        );
    }

    #[test]
    fn job_request_defaults_and_validation() {
        let cfg = ServerConfig::default();
        let req = JobRequest::parse(
            &json!({ "specs": ["TP2-PP2"], "cluster": "single_hgx_node" }),
            &cfg,
        )
        .unwrap();
        assert_eq!(req.kind, "sweep");
        assert_eq!(req.model, "gpt3_13b");
        assert_eq!(req.microbatches, vec![1]);
        assert_eq!(req.workers, cfg.sweep_workers);
        assert!(req.fast);

        assert!(
            JobRequest::parse(&json!({ "kind": "sweep" }), &cfg).is_err(),
            "sweep without specs rejected"
        );
        assert!(
            JobRequest::parse(&json!({ "kind": "teapot", "specs": ["TP2"] }), &cfg).is_err(),
            "unknown kind rejected"
        );
        assert!(
            JobRequest::parse(
                &json!({ "specs": ["TP2-PP2"], "cluster": "warehouse" }),
                &cfg
            )
            .is_err(),
            "unknown cluster rejected at submit time"
        );
        assert!(
            JobRequest::parse(
                &json!({ "specs": ["TP3-PP5"], "cluster": "single_hgx_node" }),
                &cfg
            )
            .is_err(),
            "unparsable spec rejected at submit time"
        );
        assert!(
            JobRequest::parse(
                &json!({ "specs": ["TP2-PP2"], "cluster": "single_hgx_node", "workers": 65 }),
                &cfg
            )
            .is_err(),
            "worker count over the cap rejected at submit time"
        );
    }

    #[test]
    fn health_and_404_over_a_real_socket() {
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
        let (status, body) = http_request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = http_request(addr, "GET", "/jobs/999", None).unwrap();
        assert_eq!(status, 404);
        let (status, body) = http_request(addr, "GET", "/cache", None).unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("disk").and_then(Value::as_bool), Some(false));
        server.shutdown();
    }
}
