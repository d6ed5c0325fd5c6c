//! Sim-as-a-service: a std-only HTTP job server over the simulation stack.
//!
//! The simulator as shared infrastructure, queried repeatedly by many
//! users. [`SimServer`] is that deployment shape: a long-running process
//! owning one [`SimCache`] (optionally persistent,
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
//! [`search_configs_with_cache`] over the same shared cache. An absent
//! field takes its default; a field of the wrong type, an unknown preset
//! or spec label, a `"global_batch"` outside 1..=1024, a microbatch
//! outside that range, more than 64 `"workers"` or more than 1024 grid
//! points is refused with 400.
//!
//! A submission is resolved once, at submit, into the [`Sweep`] (or the
//! search inputs) the job runs; the trace download builds its point
//! through that sweep's own point function.
//!
//! # Concurrency
//!
//! Submitted jobs enter a queue drained by a bounded pool of
//! [`ServerConfig::job_workers`] threads, so up to that many jobs run
//! concurrently, all sharing the one cache; each sweep job additionally
//! fans its points across its own [`Executor`](crate::Executor) pool
//! ([`ServerConfig::sweep_workers`] wide). Each open connection gets a
//! thread of its own, up to [`MAX_CONNECTIONS`]; past that, the accept
//! thread answers 503 without spawning. At most [`MAX_QUEUED_JOBS`] jobs
//! wait in the queue; a submission past that is answered 503. The server
//! keeps the last [`MAX_FINISHED_JOBS`] finished jobs; an older one
//! answers 404, as an unknown id does. Every job gets a private
//! [`MetricsHub`], so its streamed snapshot deltas reconcile exactly
//! against its own `sweep_end` snapshot no matter what its neighbors do.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{ObjectWriter, Serialize};
use serde_json::{json, Map, Value};

use charllm_hw::Cluster;
use charllm_models::TrainJob;
use charllm_parallel::ParallelismSpec;
use charllm_sim::SimConfig;
use charllm_telemetry::metrics::MetricsHub;

use crate::cache::{CacheStats, SimCache};
use crate::error::CoreError;
use crate::search::{search_configs_with_cache, Objective, SearchOptions};
use crate::stream::{PointSummary, ProgressStream};
use crate::sweep::Sweep;

/// How long a connection may dribble its request before the server drops
/// it; responses (including long-lived streams) are not bounded.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest the accept thread waits for a turned-away client (see
/// [`MAX_CONNECTIONS`]) to finish sending and close.
const TURN_AWAY_LINGER: Duration = Duration::from_millis(250);

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

/// Largest `"global_batch"` (and microbatch) a job may ask for; more is
/// refused with 400 at submit. At one GPU of data parallelism and
/// microbatch 1 the global batch is the microbatch count, which sizes every
/// rank's op list during lowering on a job worker. The cap is 8× the
/// paper's global batch of 128; a microbatch above it divides no
/// accepted global batch.
const MAX_GLOBAL_BATCH: usize = 1024;

/// Most points one sweep job may hold (specs × microbatches); more is
/// refused with 400 at submit. The sweep keeps every point's experiment and
/// outcome in memory while it runs.
const MAX_JOB_POINTS: usize = 1024;

/// Most connections the server holds open at once, each on its own
/// thread. One more is answered 503 by the accept thread, which spawns
/// nothing for it; a slot frees when its connection's handler returns.
pub const MAX_CONNECTIONS: usize = 64;

/// Most submitted jobs waiting for a job worker. One more is answered 503
/// at submit, registering nothing; a place frees when a worker takes a job.
pub const MAX_QUEUED_JOBS: usize = 256;

/// Most finished jobs the server keeps, each with its request, stream and
/// result document. Past it the job that finished first is dropped and
/// answers 404, as an unknown id does; queued and running jobs are never
/// dropped.
pub const MAX_FINISHED_JOBS: usize = 256;

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

/// A validated submission, resolved into what the job runs.
#[derive(Debug, Clone)]
enum JobRequest {
    /// A grid sweep. Submit attaches the shared cache, the job's stream and
    /// its cancel flag; the run adds the job's metrics hub.
    Sweep(Box<Sweep>),
    /// A configuration search over every valid spec of the cluster.
    Search {
        cluster: Arc<Cluster>,
        job: Box<TrainJob>,
        opts: SearchOptions,
    },
}

impl JobRequest {
    /// Parse and resolve a submission body. An absent field takes its
    /// default; a field of the wrong type, an unknown preset or spec, a
    /// value past a cap and an empty grid are rejected here, so the queue
    /// only ever holds runnable jobs.
    fn parse(body: &Value, defaults: &ServerConfig) -> Result<JobRequest, String> {
        use charllm_hw::presets as hw;
        use charllm_models::presets as models;
        let Some(fields) = body.as_object() else {
            return Err("a job is a JSON object".into());
        };
        let string = |key: &str, default: &str| -> Result<String, String> {
            let value = field(fields, key, "a string", |v| v.as_str().map(str::to_string))?;
            Ok(value.unwrap_or_else(|| default.to_string()))
        };
        let size_range = format!("an integer in 1..={MAX_GLOBAL_BATCH}");

        let kind = string("kind", "sweep")?;
        let cluster = Arc::new(match string("cluster", "hgx_h200")?.as_str() {
            "hgx_h200" => hw::hgx_h200_cluster(),
            "hgx_h100" => hw::hgx_h100_cluster(),
            "mi250" => hw::mi250_cluster(),
            "single_hgx_node" => crate::presets::single_hgx_node(),
            other => return Err(format!("unknown cluster preset {other:?}")),
        });
        let arch = match string("model", "gpt3_13b")?.as_str() {
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
        let global_batch = field(fields, "global_batch", &size_range, size)?.unwrap_or(8);
        let job = TrainJob::pretrain(arch).with_global_batch(global_batch);
        let labels = field(fields, "specs", "a list of strings", |v| {
            list(v, |label| label.as_str().map(str::to_string))
        })?
        .unwrap_or_default();
        let specs = labels
            .iter()
            .map(|label| {
                ParallelismSpec::parse(label, cluster.num_gpus())
                    .map_err(|e| format!("bad spec {label:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let microbatches = field(
            fields,
            "microbatches",
            &format!("a non-empty list of integers in 1..={MAX_GLOBAL_BATCH}"),
            |v| list(v, size).filter(|mbs| !mbs.is_empty()),
        )?
        .unwrap_or_else(|| vec![1]);
        let sim = if field(fields, "fast", "a boolean", Value::as_bool)?.unwrap_or(true) {
            SimConfig::fast()
        } else {
            SimConfig::default()
        };
        let workers = field(fields, "workers", "a non-negative integer", count)?
            .unwrap_or(defaults.sweep_workers);
        if workers > MAX_JOB_WORKERS {
            return Err(format!("\"workers\" over {MAX_JOB_WORKERS}"));
        }
        let finalists = field(fields, "finalists", "a non-negative integer", count)?.unwrap_or(3);
        let objective = match string("objective", "throughput")?.as_str() {
            "throughput" => Objective::Throughput,
            "efficiency" => Objective::Efficiency,
            other => return Err(format!("unknown objective {other:?}")),
        };
        match kind.as_str() {
            "sweep" => {
                if specs.is_empty() {
                    return Err("sweep jobs need a non-empty \"specs\" list".into());
                }
                let sweep = Sweep::new(cluster, job, specs)
                    .with_microbatches(microbatches)
                    .with_sim_config(sim)
                    .workers(workers);
                if sweep.len() > MAX_JOB_POINTS {
                    return Err(format!("sweep grid over {MAX_JOB_POINTS} points"));
                }
                Ok(JobRequest::Sweep(Box::new(sweep)))
            }
            "search" => Ok(JobRequest::Search {
                cluster,
                job: Box::new(job),
                opts: SearchOptions {
                    objective,
                    finalists,
                    sim,
                    workers,
                },
            }),
            other => Err(format!("unknown job kind {other:?}")),
        }
    }
}

/// An optional field of a job body: `None` when absent, an error naming
/// the field and what it `expected` when `read` cannot take its value.
fn field<T>(
    fields: &Map,
    key: &str,
    expected: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Option<T>, String> {
    fields
        .get(key)
        .map(|v| read(v).ok_or_else(|| format!("{key:?} must be {expected}")))
        .transpose()
}

/// A non-negative integer that fits a `usize`.
fn count(v: &Value) -> Option<usize> {
    v.as_number()
        .and_then(serde::Number::to_u64)
        .and_then(|n| usize::try_from(n).ok())
}

/// A global batch or microbatch size: an integer in 1..=[`MAX_GLOBAL_BATCH`].
fn size(v: &Value) -> Option<usize> {
    count(v).filter(|n| (1..=MAX_GLOBAL_BATCH).contains(n))
}

/// A list whose every item `item` can take.
fn list<T>(v: &Value, item: impl Fn(&Value) -> Option<T>) -> Option<Vec<T>> {
    v.as_array()?.iter().map(item).collect()
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
    /// The final result document's text (or `{"error": ...}` on failure),
    /// printed once when the job settles.
    result: Mutex<Option<Arc<str>>>,
}

impl Job {
    fn status(&self) -> Value {
        // A search enumerates its grid inside the search: 0 points here.
        let (kind, points) = match &self.request {
            JobRequest::Sweep(sweep) => ("sweep", sweep.len()),
            JobRequest::Search { .. } => ("search", 0),
        };
        json!({
            "job": self.id,
            "kind": kind,
            "state": self.state.lock().expect("job poisoned").label(),
            "canceled": self.cancel.load(Ordering::Relaxed),
            "points": points,
        })
    }
}

/// The jobs the server answers for: every queued and running job, and the
/// last [`MAX_FINISHED_JOBS`] finished ones.
#[derive(Default)]
struct JobRegistry {
    by_id: HashMap<u64, Arc<Job>>,
    /// Ids of the finished jobs in `by_id`, in the order they finished.
    finished: VecDeque<u64>,
}

impl JobRegistry {
    /// Count job `id` as finished, dropping the job that finished first
    /// once more than [`MAX_FINISHED_JOBS`] are kept.
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        if self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.by_id.remove(&oldest);
            }
        }
    }
}

/// Shared server state: the cache, the job registry and the queue.
struct ServerState {
    cfg: ServerConfig,
    cache: Arc<SimCache>,
    hub: Arc<MetricsHub>,
    jobs: Mutex<JobRegistry>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    stop: AtomicBool,
    /// Connections being handled (at most [`MAX_CONNECTIONS`]).
    connections: AtomicUsize,
}

impl ServerState {
    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .by_id
            .get(&id)
            .cloned()
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
    /// (`server_jobs_*`) on a private hub served at `/metrics`. That hub
    /// is not reachable from outside the server, so cache series never
    /// appear at `/metrics`, even for a cache built
    /// [`with metrics`](SimCache::with_metrics); read the shared cache's
    /// [`CacheStats`] from `GET /cache` instead.
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
            jobs: Mutex::new(JobRegistry::default()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
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
        let (final_state, text) = settle_job(|| run_job(state, &job));
        *job.result.lock().expect("job poisoned") = Some(text.into());
        *job.state.lock().expect("job poisoned") = final_state;
        // Registered as finished before its stream ends, so a client that
        // has read a stream to its end sees the registry that follows it.
        state.jobs.lock().expect("jobs poisoned").finish(id);
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

/// Run a job body to its final state and result document's text. A panic
/// inside the body becomes a `failed` job carrying the panic message, so
/// the job never stays `running` and the worker thread survives to serve
/// the queue.
fn settle_job(body: impl FnOnce() -> Result<String, CoreError>) -> (JobState, String) {
    let error = |msg: &str| {
        let mut doc = String::new();
        ObjectWriter::new(&mut doc).field("error", msg).end();
        doc
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(Ok(doc)) => (JobState::Done, doc),
        Ok(Err(e)) => (JobState::Failed, error(&e.to_string())),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (JobState::Failed, error(&format!("job panicked: {msg}")))
        }
    }
}

/// One ranked configuration in a search job's result document.
#[derive(Serialize)]
struct CandidateSummary {
    spec: String,
    analytic_tokens_per_s: f64,
    /// Simulated throughput; 0 for a candidate that was only screened.
    tokens_per_s: f64,
    tokens_per_joule: f64,
    simulated: bool,
}

/// Execute one job against the shared cache and write its result
/// document.
fn run_job(state: &Arc<ServerState>, job: &Arc<Job>) -> Result<String, CoreError> {
    let mut doc = String::new();
    let sweep = match &job.request {
        JobRequest::Sweep(sweep) => sweep,
        JobRequest::Search {
            cluster,
            job: train_job,
            opts,
        } => {
            let ranked =
                search_configs_with_cache(train_job, cluster, *opts, Arc::clone(&state.cache))?;
            // The screen phase lowers without running, so nothing has
            // synced its publications yet; persist them too, best-effort
            // like every run's own sync.
            state.cache.sync_disk_best_effort();
            let candidates: Vec<CandidateSummary> = ranked
                .iter()
                .map(|c| CandidateSummary {
                    spec: c.spec.label(),
                    analytic_tokens_per_s: c.analytic.tokens_per_s,
                    tokens_per_s: c.report.as_ref().map_or(0.0, |r| r.tokens_per_s),
                    tokens_per_joule: c.report.as_ref().map_or(0.0, |r| r.tokens_per_joule),
                    simulated: c.report.is_some(),
                })
                .collect();
            ObjectWriter::new(&mut doc)
                .field("kind", "search")
                .field("candidates", candidates)
                .end();
            return Ok(doc);
        }
    };
    // Per-job hub, made per run so a finished job keeps no registry:
    // streamed deltas reconcile against this job's own final snapshot,
    // independent of concurrent neighbors.
    let hub = MetricsHub::new(sweep.worker_count().max(1) + 1);
    let outcomes = sweep.clone().with_metrics(hub).run_outcomes();
    let cache = outcomes
        .iter()
        .filter_map(|o| o.report()?.cache)
        .fold(CacheStats::default(), |total, stats| total.add(&stats));
    let points: Vec<PointSummary> = outcomes.iter().map(PointSummary::of).collect();
    let count = |outcome: &str| points.iter().filter(|p| p.outcome == outcome).count();
    ObjectWriter::new(&mut doc)
        .field("kind", "sweep")
        .field("total", points.len())
        .field("completed", count("completed"))
        .field("skipped", count("skipped"))
        .field("failed", count("failed"))
        .field("cache", cache)
        .field("points", &points)
        .end();
    Ok(doc)
}

/// Accept loop: one thread per connection (connections are few and
/// `/stream` ones are long-lived, so a pool would only add latency), up to
/// [`MAX_CONNECTIONS`] at once.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = conn else { continue };
        if state.connections.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
            state.connections.fetch_sub(1, Ordering::SeqCst);
            turn_away(conn);
            continue;
        }
        let state = Arc::clone(state);
        std::thread::spawn(move || {
            let _ = handle_connection(conn, &state);
            state.connections.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

/// Answer 503 on the accept thread, then read and discard the request
/// until the client closes, for at most [`TURN_AWAY_LINGER`]: closing with
/// request bytes unread, or before they arrive, would reset the connection
/// under the answer.
fn turn_away(mut conn: TcpStream) {
    let error = format!("over {MAX_CONNECTIONS} open connections");
    respond_json(&mut conn, 503, &json!({ "error": error }));
    let _ = conn.shutdown(Shutdown::Write);
    let deadline = Instant::now() + TURN_AWAY_LINGER;
    let mut buf = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if !matches!(conn.read(&mut buf), Ok(n) if n > 0) {
            return;
        }
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
        Ok(text) if !text.is_empty() => serde::parse(text).unwrap_or(Value::Null),
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
        503 => "Service Unavailable",
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
            Err((status, msg)) => respond_json(&mut conn, status, &json!({ "error": msg })),
        },
        ("GET", ["jobs"]) => {
            let jobs = state.jobs.lock().expect("jobs poisoned");
            let mut list: Vec<(u64, Value)> =
                jobs.by_id.iter().map(|(id, j)| (*id, j.status())).collect();
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
                ("GET", ["result"]) => {
                    // The guard drops with this statement, so a slow client
                    // does not hold the job's lock.
                    let text = job.result.lock().expect("job poisoned").clone();
                    match text {
                        Some(text) => respond(&mut conn, 200, "application/json", &text),
                        None => respond_json(&mut conn, 404, &json!({ "error": "not finished" })),
                    }
                }
                ("POST", ["cancel"]) => {
                    job.cancel.store(true, Ordering::SeqCst);
                    respond_json(&mut conn, 200, &job.status());
                }
                ("GET", ["stream"]) => stream_job(&mut conn, &job),
                ("GET", ["trace", point]) => match point.parse::<usize>() {
                    Ok(index) => match perfetto_for_point(&job.request, index) {
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

/// Validate, resolve, register and enqueue a submission; returns the job
/// id, or the status (400 for a bad request, 503 for a full queue) and
/// message to refuse it with. A sweep gets the shared cache, the job's
/// stream and its cancel flag here, once.
fn submit(state: &Arc<ServerState>, body: &Value) -> Result<u64, (u16, String)> {
    let cancel = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(JobSink::default());
    let request = match JobRequest::parse(body, &state.cfg).map_err(|msg| (400, msg))? {
        JobRequest::Sweep(sweep) => JobRequest::Sweep(Box::new(
            sweep
                .with_cache(Arc::clone(&state.cache))
                .stream(Arc::new(ProgressStream::new(SinkWriter(Arc::clone(&sink)))))
                .cancel_flag(Arc::clone(&cancel)),
        )),
        search => search,
    };
    // The queue stays locked from the check to the push, so concurrent
    // submissions cannot overfill it; the job is registered before a
    // worker can take its id.
    let mut queue = state.queue.lock().expect("queue poisoned");
    if queue.len() >= MAX_QUEUED_JOBS {
        return Err((
            503,
            format!("{MAX_QUEUED_JOBS} jobs are already waiting; retry later"),
        ));
    }
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        request,
        state: Mutex::new(JobState::Queued),
        cancel,
        sink,
        result: Mutex::new(None),
    });
    state
        .jobs
        .lock()
        .expect("jobs poisoned")
        .by_id
        .insert(id, job);
    queue.push_back(id);
    drop(queue);
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
/// Chrome `traceEvents` JSON. The point comes from the job's own sweep, on
/// the shared cache, so a trace download after a sweep costs one extra
/// (observed) simulation, not a cold rebuild.
fn perfetto_for_point(req: &JobRequest, index: usize) -> Result<String, CoreError> {
    let point = match req {
        JobRequest::Sweep(sweep) => sweep.point(index),
        JobRequest::Search { .. } => None,
    };
    let Some((_, builder)) = point else {
        return Err(CoreError::Incomplete(format!(
            "point {index} outside the job's grid"
        )));
    };
    builder.build()?.chrome_trace()
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
            let second = settle_job(|| Ok(r#"{"kind":"sweep"}"#.to_string()));
            (first, second)
        });
        let ((state, doc), (next_state, next_doc)) = worker.join().expect("worker survives");
        assert_eq!(state, JobState::Failed);
        assert_eq!(doc, r#"{"error":"job panicked: point 3 exploded"}"#);
        assert_eq!(next_state, JobState::Done);
        assert_eq!(next_doc, r#"{"kind":"sweep"}"#);
        let (state, doc) = settle_job(|| panic!("{} of {}", 2, 7));
        assert_eq!(state, JobState::Failed);
        assert_eq!(doc, r#"{"error":"job panicked: 2 of 7"}"#);
        // A body that returns an error settles with the error's text.
        let (state, doc) = settle_job(|| Err(CoreError::Incomplete("no \"cluster\"".into())));
        assert_eq!(state, JobState::Failed);
        assert_eq!(doc, r#"{"error":"incomplete experiment: no \"cluster\""}"#);
    }

    #[test]
    fn job_request_defaults_and_validation() {
        let cfg = ServerConfig::default();
        let req = JobRequest::parse(
            &json!({ "specs": ["TP2-PP2"], "cluster": "single_hgx_node" }),
            &cfg,
        )
        .unwrap();
        let JobRequest::Sweep(sweep) = req else {
            panic!("the default kind is a sweep, got {req:?}");
        };
        // One spec and the default microbatch list [1]: one point, whose
        // experiment is the default model and global batch at microbatch 1
        // on the fast config.
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep.worker_count(), cfg.sweep_workers);
        let (point, builder) = sweep.point(0).unwrap();
        assert_eq!(point.microbatch, 1);
        let cluster = crate::presets::single_hgx_node();
        let expected = crate::Experiment::builder()
            .cluster(cluster.clone())
            .job(
                TrainJob::pretrain(charllm_models::presets::gpt3_13b())
                    .with_global_batch(8)
                    .with_microbatch(1),
            )
            .spec(ParallelismSpec::parse("TP2-PP2", cluster.num_gpus()).unwrap())
            .sim_config(SimConfig::fast());
        assert_eq!(format!("{builder:?}"), format!("{expected:?}"));
        assert!(sweep.point(1).is_none(), "no point outside the grid");

        for (bad, why) in [
            (json!({ "kind": "sweep" }), "sweep without specs"),
            (
                json!({ "kind": "teapot", "specs": ["TP2"] }),
                "unknown kind",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "cluster": "warehouse" }),
                "unknown cluster",
            ),
            (
                json!({ "specs": ["TP3-PP5"], "cluster": "single_hgx_node" }),
                "unparsable spec",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "cluster": "single_hgx_node", "workers": 65 }),
                "worker count over the cap",
            ),
            (json!({ "specs": ["TP2-PP2", 7] }), "non-string spec entry"),
            (json!({ "specs": "TP2-PP2" }), "specs not a list"),
            (
                json!({ "specs": ["TP2-PP2"], "microbatches": [-4] }),
                "negative microbatch",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "microbatches": ["2"] }),
                "string microbatch",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "microbatches": [1.5] }),
                "fractional microbatch",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "microbatches": [] }),
                "empty microbatch list",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "cluster": 5 }),
                "cluster not a string",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "fast": "no" }),
                "fast not a boolean",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "workers": -1 }),
                "negative workers",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "global_batch": 0 }),
                "zero global batch",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "global_batch": -8 }),
                "negative global batch",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "global_batch": MAX_GLOBAL_BATCH + 1 }),
                "global batch over the cap",
            ),
            (
                json!({ "specs": ["TP2-PP2"], "global_batch": 1_000_000_000_000u64 }),
                "huge global batch",
            ),
            (
                json!({ "specs": vec!["TP8"; 33], "microbatches": (1..=32).collect::<Vec<_>>() }),
                "grid over the cap",
            ),
            (json!(["TP2-PP2"]), "body not an object"),
        ] {
            assert!(
                JobRequest::parse(&bad, &cfg).is_err(),
                "{why} must be rejected at submit time: {bad:?}"
            );
        }
    }

    /// A job body field: absent, a plausible value, or a value of a wrong
    /// type, sign or size. `pick` chooses the shape, `n` the number in it
    /// and `label` the string.
    fn field_value(key: &str, valid: bool, pick: usize, n: i64, label: usize) -> Option<Value> {
        const LABELS: [&str; 22] = [
            "sweep",
            "search",
            "teapot",
            "hgx_h200",
            "single_hgx_node",
            "mi250",
            "warehouse",
            "gpt3_13b",
            "mixtral_8x7b",
            "llama",
            "TP2-PP2",
            "TP8",
            "TP2-PP4",
            "TP3-PP5",
            "TP0",
            "PP0-DP0",
            "TP18446744073709551617",
            "EP4-TP2",
            "",
            "throughput",
            "efficiency",
            "TP2-PP2-DP-1",
        ];
        let text = LABELS[label % LABELS.len()];
        let small = n.rem_euclid(70) as u64;
        if valid {
            return match key {
                "kind" => [None, Some(json!("sweep")), Some(json!("search"))][pick % 3].clone(),
                "cluster" => Some(json!(["single_hgx_node", "hgx_h200", "mi250"][pick % 3])),
                "model" => Some(json!("gpt3_13b")),
                "specs" => Some(json!(["TP2-PP2", "TP8", "TP2-PP4"][..1 + pick % 3])),
                "microbatches" => Some(json!([1 + small % 4, 1 + n.rem_euclid(1100) as u64])),
                "fast" => Some(json!(pick.is_multiple_of(2))),
                "objective" => Some(json!(["throughput", "efficiency"][pick % 2])),
                _ => Some(json!(small)),
            };
        }
        match pick % 12 {
            0 => None,
            1 => Some(json!(n)),
            2 => Some(json!(n as f64 + 0.5)),
            3 => Some(json!(u64::MAX)),
            4 => Some(Value::Null),
            5 => Some(json!(n % 2 == 0)),
            6 => Some(json!(text)),
            7 => Some(json!([text, LABELS[(label + pick) % LABELS.len()]])),
            8 => Some(json!([n, 1, 2])),
            9 => Some(json!([small.to_string()])),
            10 => Some(json!({ "n": n })),
            _ => Some(json!([])),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 400, ..Default::default() })]

        #[test]
        fn malformed_job_bodies_never_panic_and_accepted_ones_fit_the_caps(
            shapes in proptest::collection::vec(
                (0usize..8, 0usize..12, 0usize..64),
                10,
            ),
            numbers in proptest::collection::vec((0usize..3, 0u64..u64::MAX), 10),
        ) {
            const KEYS: [&str; 10] = [
                "kind", "cluster", "model", "global_batch", "specs", "microbatches", "fast",
                "workers", "finalists", "objective",
            ];
            let mut body = Map::new();
            for ((key, &(junk, pick, label)), &(scale, raw)) in
                KEYS.iter().zip(&shapes).zip(&numbers)
            {
                // Small, mid-size or any 64-bit number, negative included.
                let n = match scale {
                    0 => (raw % 84) as i64 - 4,
                    1 => (raw % 2_000_000) as i64 - 1_000_000,
                    _ => raw as i64,
                };
                // One field in eight takes a junk shape.
                if let Some(v) = field_value(key, junk != 0, pick, n, label) {
                    body.insert(*key, v);
                }
            }
            let body = Value::Object(body);
            let parsed = std::panic::catch_unwind(|| {
                JobRequest::parse(&body, &ServerConfig::default())
            });
            let Ok(parsed) = parsed else {
                panic!("JobRequest::parse panicked on {body:?}");
            };
            match parsed {
                Err(msg) => proptest::prop_assert!(!msg.is_empty()),
                Ok(JobRequest::Sweep(sweep)) => {
                    proptest::prop_assert!((1..=MAX_JOB_POINTS).contains(&sweep.len()), "{body:?}");
                    proptest::prop_assert!(sweep.worker_count() <= MAX_JOB_WORKERS, "{body:?}");
                    for index in 0..sweep.len() {
                        let (point, builder) = sweep.point(index).expect("index inside the grid");
                        let experiment = builder.build().expect("a point builds");
                        let job = experiment.job();
                        proptest::prop_assert_eq!(point.index, index);
                        proptest::prop_assert!((1..=MAX_GLOBAL_BATCH).contains(&job.global_batch));
                        proptest::prop_assert!((1..=MAX_GLOBAL_BATCH).contains(&job.microbatch));
                    }
                    proptest::prop_assert!(sweep.point(sweep.len()).is_none());
                }
                Ok(JobRequest::Search { job, opts, .. }) => {
                    proptest::prop_assert!(opts.workers <= MAX_JOB_WORKERS, "{body:?}");
                    proptest::prop_assert!((1..=MAX_GLOBAL_BATCH).contains(&job.global_batch));
                }
            }
        }
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
