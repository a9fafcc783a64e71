//! # nanoleak-serve
//!
//! A long-lived HTTP/JSON leakage-analysis service over
//! `nanoleak-engine`. The paper's estimator is cheap enough to score
//! thousands of vectors per second — a workload shape that wants a
//! resident process with a warm characterization cache, not a
//! cold-start CLI per request. This crate is that process:
//! dependency-free (raw [`std::net`] + the vendored mini-serde JSON
//! codec), deterministic (a sweep served over HTTP is bit-identical
//! to the same [`nanoleak_engine::sweep`](fn@nanoleak_engine::sweep)
//! call in-process), and drain-on-shutdown.
//!
//! ## Service
//!
//! | Route | Does |
//! |---|---|
//! | `GET /healthz` | liveness: `{"status":"ok"}` |
//! | `GET /v1/stats` | requests served, cache hit rate, queue depth, job counts |
//! | `POST /v1/estimate` | mean leakage ± loading impact over N random vectors |
//! | `POST /v1/sweep` | full per-vector statistics ([`nanoleak_engine::SweepStats`]) |
//! | `POST /v1/mlv` | min/max-leakage standby-vector search |
//! | `POST /v1/optimize` | leakage-aware netlist rewriting (returns the optimized netlist) |
//! | `POST /v1/jobs` | submit an async job (`"type"`: `sweep`, `mlv`, `grid`, `mc`, or `optimize`) |
//! | `GET /v1/jobs/{id}` | job status with shard progress, and the result once done |
//! | `GET /v1/jobs/{id}/result` | the final result alone (409 until done) |
//! | `GET /v1/jobs/{id}/result?shard=K` | one shard's partial (202 while pending) |
//! | `GET /v1/jobs/{id}/trace` | span tree + timing breakdown of a finished job |
//! | `DELETE /v1/jobs/{id}` | cancel (queued: immediate; running: at the next shard/cell) |
//! | `GET /metrics` | Prometheus text exposition of every registered metric |
//!
//! Request bodies are JSON objects; every analysis field is optional,
//! with the defaults [`api`] defines for both front-ends (`vectors`
//! 100, `seed` 2005, `temp` 300 K, `vdd_scale` 1.0, `mode` `"lut"`);
//! `nanoleak-cli` runs the same [`api`] handlers. Circuits come as
//! `"target"` (a builtin name like `"s1196"`) or `"bench"` (inline
//! netlist text — the service deliberately never reads files from its
//! own filesystem). `"coarse": true` characterizes on the fast test
//! grid. Per-request work is bounded
//! ([`api::MAX_REQUEST_VECTORS`], [`api::MAX_REQUEST_THREADS`],
//! [`api::MAX_GRID_CELLS`], [`api::MAX_REQUEST_MC_SAMPLES`]). Errors
//! are structured: `{"error": {"code": 422, "message": "..."}}`.
//!
//! Every analysis characterizes at a first-class
//! [`OperatingPoint`](nanoleak_cells::OperatingPoint) (`temp` ×
//! `vdd_scale`), so a single-point request, a grid cell, and a
//! Monte-Carlo nominal at the same conditions share one cache entry.
//!
//! The `"grid"` job type is the batch workhorse: a `temps` ×
//! `vdd_scales` condition matrix (cf. Sultan et al. on
//! leakage-vs-temperature) built by `OperatingPoint::grid`, where
//! every cell characterizes through the shared in-RAM
//! [`MemoLibraryCache`] and runs
//! one deterministic sweep — cells fan across the worker pool in
//! parallel, reduced back in cell order so the matrix is bit-identical
//! to a sequential run.
//!
//! The `"mc"` job type is the paper's Section 5.3 at circuit scale: a
//! circuit-level Monte-Carlo over die-to-die process variation
//! ([`nanoleak_engine::mc_streaming_mode`], one driver whose `"exact"`
//! flag only picks the per-die library provider), streaming per-shard
//! distribution partials through the same `shards_done`/`shards_total`
//! progress and `?shard=K` paging protocol as sharded sweeps, with the
//! merged loaded/unloaded summary bit-identical to an in-process run.
//!
//! ## Optimization
//!
//! `POST /v1/optimize` (and the `"optimize"` job type, which reports
//! one progress unit per finished round) runs the
//! [`nanoleak_opt`](nanoleak_opt::optimize_with) greedy rewriter:
//! canonicalization, commutative pin permutations, and De-Morgan
//! NAND↔NOR remaps, each candidate scored with the compiled estimator
//! at the minimum-leakage vector. The response carries the baseline
//! and improved MLV results (`improved_a` ≤ `baseline_a`, guaranteed),
//! per-round telemetry, and the rewritten netlist as structured JSON
//! (named nets and cells in gate order). Every embedded MLV search
//! goes through the process-wide plan cache, so repeated optimize
//! requests against the same structure skip recompilation —
//! `nanoleak_plan_cache_*` and `nanoleak_opt_*` counters on
//! `GET /metrics` make both visible.
//!
//! ## Scale machinery
//!
//! Three mechanisms keep the service alive under 10^6-vector
//! workloads and millions of requests:
//!
//! * **Streaming sharded sweeps** — `"shard_vectors"` on a sweep job
//!   executes the pattern space in index-order shards
//!   ([`nanoleak_engine::sweep_streaming`]); each shard's partial
//!   stats are paged at `GET /v1/jobs/{id}/result?shard=K` as it
//!   lands, the job body reports `shards_done`/`shards_total`, and
//!   the merged stats are bit-identical to a monolithic sweep.
//! * **HTTP/1.1 keep-alive** — connections serve many requests
//!   through one persistent parse buffer (pipelining-safe), with
//!   `Connection:` negotiation, a per-connection request bound
//!   ([`ServeConfig::keep_alive_requests`]), and an idle deadline
//!   ([`ServeConfig::keep_alive_idle`]) that quietly closes idle
//!   sockets but answers 408 to stalled partial requests. Each
//!   response leaves in one write ([`http::write_response`]): a head
//!   and body written apart would wait on Nagle's algorithm for the
//!   client's delayed ACK, ~43 ms on every kept-alive response.
//! * **Bounded job registry** — finished jobs are evicted
//!   oldest-first past [`ServeConfig::finished_jobs_cap`] (and a
//!   TTL), with `evicted`/`resident` counters in `/v1/stats`, so the
//!   registry no longer grows for the process lifetime.
//!
//! ## Resilience
//!
//! The failure-containment contract, exercised continuously by the
//! `nanoleak-fault` failpoint harness (`--faults` /
//! `$NANOLEAK_FAULTS`) and the `tests/chaos.rs` drills:
//!
//! * **Deadline propagation** — a job's `timeout_ms` field (or the
//!   server-wide [`ServeConfig::default_job_timeout`]) becomes a
//!   deadline carried in the job registry and polled at **shard
//!   boundaries only** — never inside a numeric kernel — so an
//!   expired job fails with error `deadline_exceeded` while every
//!   shard it completed stays paged and bit-identical to an
//!   unhurried run. Expiry is also checked before the executor
//!   starts (a job that aged out in the queue never touches the
//!   engine) and counted in `nanoleak_deadline_exceeded_total`.
//! * **Panic isolation** — each job executes under `catch_unwind`;
//!   a panicking shard fails exactly that job (the panic message is
//!   preserved in the job record as `job panicked: …` and counted in
//!   `nanoleak_jobs_panicked_total`), and a second containment ring
//!   around the worker loop plus the `nanoleak_server_workers_alive`
//!   gauge guarantee the pool never silently decays.
//! * **Admission control** — overload is shed at the door with
//!   `503 + Retry-After` (hint = predicted queue drain time,
//!   clamped to 1–60 s): a full queue, a request whose explicit
//!   `timeout_ms` the current backlog is predicted to outlast, and
//!   the accept-loop connection cap all shed rather than degrade;
//!   clients that pipeline past the per-connection request bound get
//!   each buffered excess answered `429` before the close. Sheds are
//!   accounted by reason in `nanoleak_shed_total` and mirrored under
//!   `resilience` in `/v1/stats`.
//! * **Write deadline** — response writes run under a deadline equal
//!   to the idle deadline ([`ServeConfig::keep_alive_idle`]). A client
//!   that stops reading fills the socket buffers; once a write makes
//!   no progress for that long, the connection closes and counts on
//!   `nanoleak_server_write_timeouts_total`, so such a client can
//!   neither hold a connection thread nor pin graceful shutdown,
//!   which joins every connection thread.
//! * **Fault injection** — `nanoleak-fault` failpoints (`cache-io`,
//!   `cache-corrupt`, `characterize`, `slow-shard`) are compiled in
//!   but cost one relaxed atomic load when disarmed; armed hits are
//!   exposed as `nanoleak_fault_injected_total{point=…}` on
//!   `/metrics`, so chaos drills are observable end-to-end.
//!
//! ## Telemetry
//!
//! The service is instrumented through [`nanoleak_obs`] — metrics,
//! span tracing, and structured logging — with zero extra
//! dependencies:
//!
//! * **Metrics** — `GET /metrics` serves Prometheus text exposition
//!   composed from two registries: the per-instance one in
//!   [`ServerState::telemetry`] (HTTP traffic, job lifecycle, queue,
//!   cache) and the process-global [`nanoleak_obs::global()`] one
//!   (engine / solver / cells instrumentation). Server families are
//!   prefixed `nanoleak_server_*` and `nanoleak_jobs*`; library
//!   families are `nanoleak_{solver,cells,cache,sweep,mc}_*`.
//!   Per-instance cache counters carry a `cache="analysis"|"mc"`
//!   label. `GET /v1/stats` reads the *same* instruments, so the two
//!   views cannot drift.
//! * **Spans** — job execution runs under a
//!   [`nanoleak_obs::span!`] capture at shard granularity
//!   (`job` → `compile` / `estimate` / `merge` / `serialize`, plus
//!   `library` / `characterize` on cache misses). The resulting span
//!   tree is served at `GET /v1/jobs/{id}/trace`, and an aggregate
//!   per-stage breakdown (queue-wait, characterization, compile,
//!   estimate, merge, serialize, total) rides on the job-status body
//!   under `GET /v1/jobs/{id}?debug=timings`. The per-pattern
//!   estimation path stays span-free, preserving the zero-allocation
//!   contract.
//! * **Logs** — library crates never print; leveled JSON lines go to
//!   stderr (`{"ts_ms":…,"level":…,"target":…,"msg":…,"request_id":…}`)
//!   gated by `NANOLEAK_LOG` or the CLI's `--log-level`. Every HTTP
//!   request gets a request id — the client's `X-Request-Id` header
//!   if present (sanitized, length-capped), else a generated
//!   `req-…` id — which is echoed on the response, stamped on log
//!   lines, and carried into the job's span capture when the request
//!   submits a job.
//!
//! ## Anatomy
//!
//! * [`http`] — minimal HTTP/1.1 parsing and responses;
//! * [`router`] — `(method, path)` dispatch + the job executor;
//! * [`api`] — request schemas, defaults, and the engine calls;
//! * [`jobs`] — job registry and lifecycle (queued → running → done /
//!   failed / cancelled);
//! * [`pool`] — the bounded queue feeding the worker pool.
//!
//! [`Server::run`] hosts everything on a [`std::thread::scope`]: N
//! job workers plus one connection thread per request, so shutdown is
//! a join, not a detach. Ctrl-C / SIGTERM (via
//! [`install_signal_handlers`]) stops the accept loop, closes the
//! queue, drains queued jobs, and exits.
//!
//! ## In-process quickstart
//!
//! ```no_run
//! use nanoleak_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(&ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..Default::default()
//! })?;
//! let addr = server.local_addr()?; // resolves the ephemeral port
//! let handle = server.shutdown_handle();
//! std::thread::spawn(move || server.run());
//! // ... drive it over TCP, then:
//! handle.request();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod api;
pub mod http;
pub mod jobs;
pub mod pool;
pub mod router;

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoleak_engine::{LibraryCache, MemoLibraryCache};
use nanoleak_obs::{Counter, Gauge, Histogram, Registry};
use parking_lot::Mutex;
use serde::Serialize;

use jobs::{JobMetrics, JobRegistry};
use pool::{JobQueue, JobReceiver};

/// Configuration of one service instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Job worker threads (`0` = all cores, capped at 16).
    pub threads: usize,
    /// Bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Characterization disk-cache directory (`None` = the engine's
    /// default location).
    pub cache_dir: Option<PathBuf>,
    /// `false` disables the disk layer (RAM memo only).
    pub disk_cache: bool,
    /// Most requests served over one keep-alive connection before the
    /// server closes it (`0` disables keep-alive: one request per
    /// connection). Bounding this recycles connection threads under
    /// pathological clients.
    pub keep_alive_requests: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it. Also the write deadline: a
    /// response write that makes no progress for this long closes the
    /// connection.
    pub keep_alive_idle: Duration,
    /// Most finished (done / failed / cancelled) jobs retained in the
    /// registry; beyond it the oldest-finished are evicted.
    pub finished_jobs_cap: usize,
    /// Finished jobs older than this are evicted regardless of the
    /// cap.
    pub finished_job_ttl: Duration,
    /// Deadline applied to jobs whose request carries no
    /// `timeout_ms` field (`None` = unbounded). Executors stop at the
    /// first shard boundary past the deadline and the job fails with
    /// `deadline_exceeded`.
    pub default_job_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8425".into(),
            threads: 0,
            queue_capacity: 64,
            cache_dir: None,
            disk_cache: true,
            keep_alive_requests: 1000,
            keep_alive_idle: Duration::from_secs(5),
            finished_jobs_cap: 512,
            finished_job_ttl: Duration::from_secs(3600),
            default_job_timeout: None,
        }
    }
}

/// Per-instance observability instruments (`nanoleak-obs`).
///
/// Server-scoped metrics live in a per-instance [`Registry`] rather
/// than the process-global one so that tests hosting several servers
/// in one process each see their own zeroed counters; `GET /metrics`
/// renders this registry *and* [`nanoleak_obs::global()`].
pub struct Telemetry {
    /// The per-instance metrics registry behind `GET /metrics`.
    pub registry: Registry,
    /// HTTP requests served (all routes, protocol errors included).
    pub requests: Counter,
    /// Requests rejected at the framing layer (bad request line,
    /// oversized headers, slow-loris 408, …), one counter per
    /// [`http::ERROR_KINDS`] entry
    /// (`nanoleak_server_protocol_errors_total{kind=…}`).
    pub protocol_errors: [Counter; http::ERROR_KINDS.len()],
    /// Connections closed because a response write made no progress
    /// for the write deadline (the keep-alive idle deadline): a client
    /// that stopped reading.
    pub write_timeouts: Counter,
    /// End-to-end request latency, parse completion to response
    /// serialization.
    pub request_seconds: Histogram,
    /// Work shed because the job queue was saturated
    /// (`nanoleak_shed_total{reason="queue_full"}`).
    pub shed_queue_full: Counter,
    /// Work shed because the queue's predicted drain time already
    /// exceeded the request's own deadline
    /// (`nanoleak_shed_total{reason="predicted_deadline"}`).
    pub shed_predicted_deadline: Counter,
    /// Connections shed at the accept loop's concurrency cap
    /// (`nanoleak_shed_total{reason="connection_limit"}`).
    pub shed_connection_limit: Counter,
    /// Pipelined requests shed past the per-connection request bound
    /// (`nanoleak_shed_total{reason="connection_requests"}`).
    pub shed_connection_requests: Counter,
    /// Job worker threads currently alive. Panic isolation means this
    /// must equal the configured pool size for the process lifetime —
    /// a decay is a contained-panic bug escaping containment.
    pub workers_alive: Gauge,
}

impl Telemetry {
    fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter(
            "nanoleak_server_requests_total",
            "HTTP requests served, protocol errors included",
        );
        let protocol_errors = http::ERROR_KINDS.map(|(_, kind)| {
            registry.counter_with(
                "nanoleak_server_protocol_errors_total",
                "Requests rejected at the HTTP framing layer, by kind",
                &[("kind", kind)],
            )
        });
        let write_timeouts = registry.counter(
            "nanoleak_server_write_timeouts_total",
            "Connections closed because a response write made no progress for the write deadline",
        );
        let request_seconds = registry.histogram(
            "nanoleak_server_request_seconds",
            "End-to-end HTTP request latency in seconds",
        );
        const SHED: &str = "nanoleak_shed_total";
        const SHED_HELP: &str = "Work shed by admission control, by reason";
        let shed_queue_full = registry.counter_with(SHED, SHED_HELP, &[("reason", "queue_full")]);
        let shed_predicted_deadline =
            registry.counter_with(SHED, SHED_HELP, &[("reason", "predicted_deadline")]);
        let shed_connection_limit =
            registry.counter_with(SHED, SHED_HELP, &[("reason", "connection_limit")]);
        let shed_connection_requests =
            registry.counter_with(SHED, SHED_HELP, &[("reason", "connection_requests")]);
        let workers_alive = registry.gauge(
            "nanoleak_server_workers_alive",
            "Job worker threads alive (must equal the configured pool size)",
        );
        Self {
            registry,
            requests,
            protocol_errors,
            write_timeouts,
            request_seconds,
            shed_queue_full,
            shed_predicted_deadline,
            shed_connection_limit,
            shed_connection_requests,
            workers_alive,
        }
    }

    /// The `nanoleak_server_protocol_errors_total` counter for an
    /// [`http::HttpError`] status (`malformed` for a status
    /// [`http::ERROR_KINDS`] does not list).
    fn protocol_error(&self, status: u16) -> &Counter {
        let kind = http::ERROR_KINDS.iter().position(|(s, _)| *s == status).unwrap_or(0);
        &self.protocol_errors[kind]
    }

    /// Total requests shed across every reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full.get()
            + self.shed_predicted_deadline.get()
            + self.shed_connection_limit.get()
            + self.shed_connection_requests.get()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("requests", &self.requests.get()).finish_non_exhaustive()
    }
}

/// Shared state every connection and worker sees.
#[derive(Debug)]
pub struct ServerState {
    /// RAM-first characterization cache (disk-backed unless
    /// disabled).
    pub cache: MemoLibraryCache,
    /// RAM-only cache for Monte-Carlo jobs. Every MC sample is a
    /// unique perturbed die — persisting those libraries would grow
    /// the disk cache without bound (one `.nlc` per die per seed) and
    /// churn the bounded main memo out of its warm nominal entries, so
    /// MC characterizations live in their own bounded RAM memo:
    /// re-submitted same-seed jobs still hit, nothing touches disk.
    pub mc_cache: MemoLibraryCache,
    /// The job registry.
    pub jobs: JobRegistry,
    /// Per-instance metrics instruments (also rendered by
    /// `GET /metrics`).
    pub telemetry: Telemetry,
    queue: Mutex<Option<JobQueue>>,
    queue_capacity: usize,
    workers: usize,
    keep_alive_requests: usize,
    keep_alive_idle: Duration,
    default_job_timeout: Option<Duration>,
    started: Instant,
}

impl ServerState {
    /// A clone of the queue producer, or `None` once shutdown has
    /// closed it.
    pub fn queue_handle(&self) -> Option<JobQueue> {
        self.queue.lock().clone()
    }

    /// Counts one served request (the same counter `GET /metrics`
    /// exposes as `nanoleak_server_requests_total`).
    fn count_request(&self) {
        self.telemetry.requests.inc();
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Job worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Deadline applied to jobs submitted without a `timeout_ms`.
    pub fn default_job_timeout(&self) -> Option<Duration> {
        self.default_job_timeout
    }

    /// Current queue occupancy (depth, capacity).
    pub fn queue_occupancy(&self) -> (u64, usize) {
        (self.queue.lock().as_ref().map_or(0, JobQueue::depth), self.queue_capacity)
    }

    /// The `/v1/stats` snapshot — every counter here is a view over
    /// the same instruments `GET /metrics` renders.
    pub fn stats(&self) -> StatsResponse {
        let cache = self.cache.stats();
        let jobs = self.jobs.counts();
        StatsResponse {
            uptime_s: self.started.elapsed().as_secs_f64(),
            requests: self.telemetry.requests.get(),
            workers: self.workers,
            queue: QueueStats {
                depth: self.queue.lock().as_ref().map_or(0, JobQueue::depth),
                capacity: self.queue_capacity,
            },
            cache: CacheStats {
                memory_hits: cache.memory_hits,
                disk_hits: cache.disk_hits,
                characterizations: cache.characterizations,
                hit_rate: cache.hit_rate(),
                resident: self.cache.resident(),
            },
            jobs: JobStats {
                queued: jobs.queued,
                running: jobs.running,
                done: jobs.done,
                failed: jobs.failed,
                cancelled: jobs.cancelled,
                evicted: jobs.evicted,
                resident: jobs.resident,
            },
            resilience: ResilienceStats {
                shed_queue_full: self.telemetry.shed_queue_full.get(),
                shed_predicted_deadline: self.telemetry.shed_predicted_deadline.get(),
                shed_connection_limit: self.telemetry.shed_connection_limit.get(),
                shed_connection_requests: self.telemetry.shed_connection_requests.get(),
                deadline_exceeded: jobs.deadline_exceeded,
                panicked: jobs.panicked,
                workers_alive: self.telemetry.workers_alive.get().max(0) as u64,
            },
        }
    }
}

/// Body of `GET /v1/stats`.
#[derive(Debug, Clone, Serialize)]
pub struct StatsResponse {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// HTTP requests served (all routes).
    pub requests: u64,
    /// Job worker threads.
    pub workers: usize,
    /// Queue occupancy.
    pub queue: QueueStats,
    /// Characterization-cache counters.
    pub cache: CacheStats,
    /// Job counts by status.
    pub jobs: JobStats,
    /// Overload-shedding and failure-containment counters.
    pub resilience: ResilienceStats,
}

/// Overload-shedding and failure-containment counters (the same
/// instruments `GET /metrics` exposes as `nanoleak_shed_total`,
/// `nanoleak_deadline_exceeded_total`, `nanoleak_jobs_panicked_total`,
/// and `nanoleak_server_workers_alive`).
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceStats {
    /// Jobs rejected because the queue was saturated.
    pub shed_queue_full: u64,
    /// Jobs rejected because predicted queue drain already exceeded
    /// the request's deadline.
    pub shed_predicted_deadline: u64,
    /// Connections rejected at the concurrency cap.
    pub shed_connection_limit: u64,
    /// Pipelined requests rejected past the per-connection bound.
    pub shed_connection_requests: u64,
    /// Jobs failed with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Jobs whose executor panicked (contained).
    pub panicked: u64,
    /// Worker threads alive (equals the configured pool size while
    /// the server runs; panic isolation keeps it from decaying).
    pub workers_alive: u64,
}

/// Queue occupancy.
#[derive(Debug, Clone, Serialize)]
pub struct QueueStats {
    /// Jobs waiting (submitted, not yet picked up).
    pub depth: u64,
    /// The configured bound.
    pub capacity: usize,
}

/// Characterization-cache counters (see
/// [`nanoleak_engine::MemoCacheStats`]).
#[derive(Debug, Clone, Serialize)]
pub struct CacheStats {
    /// Requests served from process RAM.
    pub memory_hits: u64,
    /// Requests served from `*.nlc` disk files.
    pub disk_hits: u64,
    /// Requests that ran the solver.
    pub characterizations: u64,
    /// Fraction of requests that avoided solver work.
    pub hit_rate: f64,
    /// Libraries resident in RAM.
    pub resident: usize,
}

/// Job counts by status.
#[derive(Debug, Clone, Serialize)]
pub struct JobStats {
    /// Waiting in the queue.
    pub queued: u64,
    /// Executing now.
    pub running: u64,
    /// Finished successfully.
    pub done: u64,
    /// Finished with an error.
    pub failed: u64,
    /// Cancelled.
    pub cancelled: u64,
    /// Finished jobs evicted from the registry (cap or TTL) since the
    /// server started.
    pub evicted: u64,
    /// Jobs currently resident in the registry (all statuses) — stays
    /// bounded under churn by the eviction policy.
    pub resident: u64,
}

/// Asks a running [`Server`] to shut down (idempotent, callable from
/// any thread).
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown: stop accepting, drain queued jobs, exit.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Most concurrent connection-handler threads per server; further
/// connections are answered 503 on the accept thread.
const MAX_CONNECTIONS: u64 = 256;

/// Process-wide flag set by [`install_signal_handlers`]; every
/// server instance honors it in addition to its own handle.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT (ctrl-c) and SIGTERM handlers that request
/// graceful shutdown of every [`Server::run`] loop in the process.
/// No-op on non-Unix platforms.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// A bound, not-yet-running service instance.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: ServerState,
    receiver: JobReceiver,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener and builds the shared state. The server
    /// does not accept connections until [`Server::run`].
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = if config.disk_cache {
            let disk = match &config.cache_dir {
                Some(dir) => LibraryCache::new(dir.clone()),
                None => LibraryCache::default_location(),
            };
            MemoLibraryCache::over(disk)
        } else {
            MemoLibraryCache::memory_only()
        };
        let workers = nanoleak_core::exec::resolve_threads(config.threads);
        let (queue, receiver) = pool::job_queue(config.queue_capacity.max(1));
        let telemetry = Telemetry::new();
        let jobs = JobRegistry::with_eviction(jobs::EvictionPolicy {
            finished_cap: config.finished_jobs_cap,
            ttl: config.finished_job_ttl,
        })
        .with_metrics(JobMetrics::register(&telemetry.registry));
        Ok(Self {
            listener,
            state: ServerState {
                cache,
                mc_cache: MemoLibraryCache::memory_only(),
                jobs,
                telemetry,
                queue: Mutex::new(Some(queue)),
                queue_capacity: config.queue_capacity.max(1),
                workers,
                keep_alive_requests: config.keep_alive_requests,
                keep_alive_idle: config.keep_alive_idle,
                default_job_timeout: config.default_job_timeout,
                started: Instant::now(),
            },
            receiver,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port `0` to the real port).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] return.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Read-only access to the shared state (tests, stats).
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Serves until shutdown is requested (via
    /// [`Server::shutdown_handle`] or a signal after
    /// [`install_signal_handlers`]): accepts connections, answers
    /// requests, executes jobs on the worker pool. On shutdown the
    /// accept loop stops, the job queue closes, queued jobs drain,
    /// and every thread is joined before this returns.
    ///
    /// # Errors
    /// Propagates a failure to configure the listener; per-connection
    /// I/O errors are contained.
    pub fn run(self) -> std::io::Result<()> {
        // Non-blocking accept so the loop can poll the shutdown flag.
        self.listener.set_nonblocking(true)?;
        let state = &self.state;
        let receiver = &self.receiver;
        // Cap on concurrent connection-handler threads: a connection
        // flood (thousands of sockets parked in the read timeout)
        // must not translate into thousands of OS threads. Beyond the
        // cap, new connections get an immediate 503 on the accept
        // thread and are closed.
        let active_connections = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..state.workers {
                scope.spawn(move || {
                    // Self-check gauge: a worker increments on entry
                    // and decrements only at clean queue-closed exit,
                    // so `nanoleak_server_workers_alive` decaying
                    // below the pool size means a panic escaped
                    // containment.
                    state.telemetry.workers_alive.inc();
                    while let Some(id) = receiver.next() {
                        // `execute_job` contains job panics itself;
                        // this outer guard is the last line of
                        // defense so even a panic in the registry
                        // bookkeeping costs one job, never a worker.
                        let contained =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                router::execute_job(state, id)
                            }));
                        if contained.is_err() {
                            nanoleak_obs::warn!(
                                "jobs",
                                "job {} escaped executor containment; worker survives",
                                id
                            );
                        }
                    }
                    state.telemetry.workers_alive.dec();
                });
            }
            loop {
                if self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        if active_connections.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                            let _ = stream.set_nonblocking(false);
                            state.telemetry.shed_connection_limit.inc();
                            let overloaded = http::Response::json(
                                503,
                                api::ApiError {
                                    status: 503,
                                    message: "too many connections".into(),
                                }
                                .body(),
                            )
                            .with_retry_after(1);
                            let _ = http::write_response(&stream, &overloaded, true);
                            continue;
                        }
                        active_connections.fetch_add(1, Ordering::Relaxed);
                        let active = Arc::clone(&active_connections);
                        let shutdown = Arc::clone(&self.shutdown);
                        scope.spawn(move || {
                            handle_connection(state, stream, &shutdown);
                            active.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    // Transient accept errors (aborted handshakes):
                    // keep serving.
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            // Close the queue: workers drain what was accepted, then
            // exit; in-flight connection threads finish their one
            // response. The scope joins everything.
            state.queue.lock().take();
        });
        Ok(())
    }
}

/// Longest client-supplied `X-Request-Id` honored verbatim; longer
/// (or non-printable) ids are replaced with a generated one.
const MAX_REQUEST_ID_LEN: usize = 64;

/// The request id for one request: the client's `X-Request-Id` when
/// it is printable ASCII within [`MAX_REQUEST_ID_LEN`], else a fresh
/// generated id.
fn resolve_request_id(request: &http::Request) -> String {
    match request.header("x-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= MAX_REQUEST_ID_LEN
                && id.bytes().all(|b| (0x21..=0x7e).contains(&b)) =>
        {
            id.to_string()
        }
        _ => nanoleak_obs::log::next_request_id(),
    }
}

/// Serves one connection: a keep-alive loop reading requests through
/// one persistent [`http::Conn`] buffer until the client closes, asks
/// for `Connection: close`, idles past the deadline, exceeds the
/// per-connection request bound, or the server starts shutting down.
///
/// Every parsed request runs under a thread-local request id
/// (client-supplied or generated) that is stamped on log lines and
/// echoed back as `X-Request-Id`.
///
/// Writes run under the idle deadline too: without it, a client that
/// stops reading would block this thread in `write` for good, and
/// [`Server::run`], which joins it, with it.
fn handle_connection(state: &ServerState, stream: TcpStream, shutdown: &AtomicBool) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(state.keep_alive_idle));
    let mut conn = http::Conn::new(&stream);
    let mut served: usize = 0;
    let mut bound_hit = false;
    loop {
        // The first request gets the full read budget; follow-ups on
        // a warm connection are bounded by the (shorter) idle
        // deadline, so parked keep-alive sockets release their thread
        // promptly.
        let timeout = if served == 0 { http::READ_TIMEOUT } else { state.keep_alive_idle };
        let (response, keep_alive) = match conn.read_request(timeout) {
            // Clean EOF, or idle past the keep-alive deadline.
            Ok(None) => return,
            Ok(Some(request)) => {
                state.count_request();
                served += 1;
                let request_id = resolve_request_id(&request);
                nanoleak_obs::set_request_id(Some(request_id.clone()));
                let started = Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    router::route(state, &request)
                }));
                let mut response = outcome.unwrap_or_else(|_| {
                    http::Response::json(
                        500,
                        api::ApiError { status: 500, message: "handler panicked".into() }.body(),
                    )
                });
                state.telemetry.request_seconds.record_duration(started.elapsed());
                nanoleak_obs::debug!(
                    "server",
                    "{} {} -> {} in {:.3} ms",
                    request.method,
                    request.path,
                    response.status,
                    started.elapsed().as_secs_f64() * 1e3
                );
                nanoleak_obs::set_request_id(None);
                response.request_id = Some(request_id);
                let keep = request.wants_keep_alive()
                    && served < state.keep_alive_requests
                    && !shutdown.load(Ordering::SeqCst)
                    && !SIGNAL_SHUTDOWN.load(Ordering::SeqCst);
                bound_hit = state.keep_alive_requests > 0 && served >= state.keep_alive_requests;
                (response, keep)
            }
            // Protocol errors (including a stalled partial request —
            // the slow-loris 408) always close: the connection state
            // is unknowable past a framing failure.
            Err(e) => {
                state.count_request();
                state.telemetry.protocol_error(e.status).inc();
                nanoleak_obs::warn!("server", "protocol error {}: {}", e.status, e.message);
                let response = http::Response::json(
                    e.status,
                    api::ApiError { status: e.status, message: e.message }.body(),
                );
                (response, false)
            }
        };
        if !send(state, &stream, &response, !keep_alive) {
            return;
        }
        if !keep_alive {
            // A client that pipelined past the per-connection request
            // bound has more requests already buffered; instead of
            // dropping them silently, answer each with a structured
            // 429 + Retry-After before closing. Plain bound-reached
            // closes (no buffered bytes) stay exactly as before.
            while bound_hit && conn.has_buffered() {
                let Ok(Some(_excess)) = conn.read_request(Duration::from_millis(50)) else {
                    break;
                };
                state.count_request();
                state.telemetry.shed_connection_requests.inc();
                let shed = http::Response::json(
                    429,
                    api::ApiError {
                        status: 429,
                        message: format!(
                            "connection request limit reached ({} per connection)",
                            state.keep_alive_requests
                        ),
                    }
                    .body(),
                )
                .with_retry_after(1);
                if !send(state, &stream, &shed, true) {
                    break;
                }
            }
            return;
        }
    }
}

/// Writes one response on a connection; `false` when the connection
/// is unusable. A write that made no progress for the write deadline
/// counts on `nanoleak_server_write_timeouts_total`.
fn send(state: &ServerState, stream: &TcpStream, response: &http::Response, close: bool) -> bool {
    match http::write_response(stream, response, close) {
        Ok(()) => true,
        Err(e) => {
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
                state.telemetry.write_timeouts.inc();
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_resolves_ephemeral_ports() {
        let server =
            Server::bind(&ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let addr = server.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        assert_eq!(server.state().stats().requests, 0);
    }

    #[test]
    fn run_returns_after_shutdown_request() {
        let server =
            Server::bind(&ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
                .unwrap();
        let handle = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run());
        handle.request();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn stats_snapshot_shape() {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 7,
            threads: 3,
            disk_cache: false,
            ..Default::default()
        })
        .unwrap();
        let stats = server.state().stats();
        assert_eq!(stats.queue.capacity, 7);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.cache.resident, 0);
        // The snapshot serializes to parseable JSON.
        let text = serde::json::to_string(&stats);
        assert!(serde::json::value_from_str(&text).is_ok(), "{text}");
    }
}
