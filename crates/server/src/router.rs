//! Route dispatch: `(method, path)` → handler → [`Response`].
//!
//! Every body is JSON (structured errors included), every unknown
//! route is a JSON 404, and every handler is synchronous — the only
//! asynchronous machinery is the job subsystem behind `/v1/jobs`.

use std::time::{Duration, Instant};

use serde::{json, Serialize, Value};

use crate::api::{self, ApiError, Body};
use crate::http::{Request, Response};
use crate::jobs::{JobKind, JobStatus, DEADLINE_EXCEEDED, JOB_PANICKED};
use crate::ServerState;

/// Largest client-settable `timeout_ms`: one hour. A cap (rather than
/// unbounded) keeps a typo'd `timeout_ms` from pinning a job slot for
/// days; anything longer should simply omit the field.
pub const MAX_JOB_TIMEOUT_MS: u64 = 3_600_000;

fn ok_json<T: Serialize>(value: &T) -> Response {
    Response::json(200, json::to_string(value))
}

fn err_response(e: &ApiError) -> Response {
    Response::json(e.status, e.body())
}

/// Dispatches one request against the server state.
pub fn route(state: &ServerState, req: &Request) -> Response {
    let path = req.path.trim_end_matches('/');
    let path = if path.is_empty() { "/" } else { path };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#),
        ("GET", "/v1/stats") => ok_json(&state.stats()),
        ("GET", "/metrics") => metrics_route(state),
        ("POST", "/v1/estimate") => sync_endpoint(state, req, api::run_estimate),
        ("POST", "/v1/sweep") => sync_endpoint(state, req, api::run_sweep_streaming),
        ("POST", "/v1/mlv") => sync_endpoint(state, req, api::run_mlv),
        ("POST", "/v1/optimize") => sync_endpoint(state, req, api::run_optimize_with),
        ("POST", "/v1/jobs") => submit_job(state, req),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return match rest.split_once('/') {
                    None => job_route(state, method, rest, req),
                    Some((id, "result")) => job_result_route(state, method, id, req),
                    Some((id, "trace")) => job_trace_route(state, method, id),
                    Some(_) => err_response(&ApiError {
                        status: 404,
                        message: format!("no route for {path}"),
                    }),
                };
            }
            let known = matches!(
                path,
                "/healthz"
                    | "/v1/stats"
                    | "/metrics"
                    | "/v1/estimate"
                    | "/v1/sweep"
                    | "/v1/mlv"
                    | "/v1/optimize"
                    | "/v1/jobs"
            );
            if known {
                err_response(&ApiError {
                    status: 405,
                    message: format!("{method} not allowed on {path}"),
                })
            } else {
                err_response(&ApiError { status: 404, message: format!("no route for {path}") })
            }
        }
    }
}

/// `GET /metrics`: Prometheus text exposition. Three sections, one
/// buffer: the per-instance registry (HTTP traffic + job lifecycle),
/// hand-rendered point-in-time families (uptime, workers, queue, the
/// server's characterization memo), then the process-global registry
/// (solver / cells / engine instrumentation).
fn metrics_route(state: &ServerState) -> Response {
    use nanoleak_obs::metrics::{family_header, sample_f64, sample_u64};
    let mut out = String::with_capacity(4096);
    state.telemetry.registry.render_into(&mut out);

    family_header(
        &mut out,
        "nanoleak_server_uptime_seconds",
        "gauge",
        "Seconds since the server started",
    );
    sample_f64(&mut out, "nanoleak_server_uptime_seconds", &[], state.uptime_s());
    family_header(&mut out, "nanoleak_server_workers", "gauge", "Job worker threads");
    sample_u64(&mut out, "nanoleak_server_workers", &[], state.workers() as u64);
    let (depth, capacity) = state.queue_occupancy();
    family_header(
        &mut out,
        "nanoleak_server_queue_depth",
        "gauge",
        "Jobs submitted but not yet picked up by a worker",
    );
    sample_u64(&mut out, "nanoleak_server_queue_depth", &[], depth);
    family_header(
        &mut out,
        "nanoleak_server_queue_capacity",
        "gauge",
        "Configured bound on queued jobs",
    );
    sample_u64(&mut out, "nanoleak_server_queue_capacity", &[], capacity as u64);

    // The per-instance characterization memo (the process-global
    // `nanoleak_cache_*` series in the global registry count every
    // memo in the process).
    let cache = state.cache.stats();
    for (name, kind, help, value) in [
        (
            "nanoleak_server_cache_memory_hits_total",
            "counter",
            "Characterization requests served from process RAM",
            cache.memory_hits,
        ),
        (
            "nanoleak_server_cache_disk_hits_total",
            "counter",
            "Characterization requests served from disk",
            cache.disk_hits,
        ),
        (
            "nanoleak_server_cache_characterizations_total",
            "counter",
            "Characterization requests that ran the solver",
            cache.characterizations,
        ),
        (
            "nanoleak_server_cache_resident",
            "gauge",
            "Libraries resident in RAM",
            state.cache.resident() as u64,
        ),
    ] {
        family_header(&mut out, name, kind, help);
        sample_u64(&mut out, name, &[], value);
    }

    // Fault-injection hit counters (chaos drills only — the family is
    // absent in a clean process, so dashboards can alert on its mere
    // presence in production scrapes).
    let faults = nanoleak_fault::snapshot();
    if !faults.is_empty() {
        family_header(
            &mut out,
            "nanoleak_fault_injected_total",
            "counter",
            "Faults injected by armed failpoints",
        );
        for (point, hits) in &faults {
            sample_u64(
                &mut out,
                "nanoleak_fault_injected_total",
                &[("point", point.as_str())],
                *hits,
            );
        }
    }

    nanoleak_obs::global().render_into(&mut out);
    Response::text(200, out)
}

/// `GET /v1/jobs/{id}/trace`: the span tree captured while the job
/// executed. 202 with the current status until the job finishes, 404
/// for unknown ids.
fn job_trace_route(state: &ServerState, method: &str, id_raw: &str) -> Response {
    if method != "GET" {
        return err_response(&ApiError {
            status: 405,
            message: format!("{method} not allowed on job traces"),
        });
    }
    let Ok(id) = id_raw.parse::<u64>() else {
        return err_response(&ApiError::bad(format!("malformed job id '{id_raw}'")));
    };
    match state.jobs.with_job(id, |job| (job.status, job.trace.clone())) {
        None => err_response(&ApiError { status: 404, message: format!("no job {id}") }),
        Some((status, Some(trace))) => {
            let body = Value::Record(vec![
                ("id".into(), Value::Int(i128::from(id))),
                ("status".into(), Value::Str(status.name().into())),
                ("trace".into(), trace),
            ]);
            Response::json(200, json::value_to_string(&body))
        }
        Some((status, None)) => {
            // No capture yet: queued / still running (or the executor
            // died before attaching one — the status disambiguates).
            let body = Value::Record(vec![
                ("id".into(), Value::Int(i128::from(id))),
                ("status".into(), Value::Str(status.name().into())),
                ("trace".into(), Value::Unit),
            ]);
            Response::json(202, json::value_to_string(&body))
        }
    }
}

/// Runs a synchronous analysis endpoint: parse body, run with no
/// observer, serialize.
fn sync_endpoint<T: Serialize>(
    state: &ServerState,
    req: &Request,
    run: impl FnOnce(
        &nanoleak_engine::MemoLibraryCache,
        &Body,
        &dyn api::JobObserver,
    ) -> Result<T, ApiError>,
) -> Response {
    let text = match req.body_text() {
        Ok(t) => t,
        Err(e) => return err_response(&ApiError { status: e.status, message: e.message }),
    };
    match Body::parse(text).and_then(|body| run(&state.cache, &body, &api::NoopObserver)) {
        Ok(response) => ok_json(&response),
        Err(e) => err_response(&e),
    }
}

/// How long a shed client should wait before retrying: the estimated
/// time to drain the current queue (`depth × avg job seconds /
/// workers`), clamped to `[1, 60]` seconds. Before any job has
/// finished there is no average, so the hint degrades to 1 second.
fn retry_after_seconds(state: &ServerState, depth: u64) -> u64 {
    match state.jobs.avg_job_seconds() {
        Some(avg) if avg > 0.0 => {
            let wait = depth as f64 * avg / state.workers().max(1) as f64;
            (wait.ceil() as u64).clamp(1, 60)
        }
        _ => 1,
    }
}

/// `POST /v1/jobs`: validate shape, apply admission control, register,
/// enqueue. An optional `timeout_ms` field sets the job's deadline
/// (falling back to the server's `--default-job-timeout-ms`, if any);
/// expired deadlines abort the job at the next shard boundary with a
/// `deadline_exceeded` failure. Requests that would predictably miss
/// their deadline given the current backlog are shed up front with a
/// 503 and a `Retry-After` hint, as are queue-full rejections.
fn submit_job(state: &ServerState, req: &Request) -> Response {
    let text = match req.body_text() {
        Ok(t) => t.to_string(),
        Err(e) => return err_response(&ApiError { status: e.status, message: e.message }),
    };
    let parsed = Body::parse(&text).and_then(|body| {
        let raw: String = body.get("type", "sweep".into())?;
        let kind = JobKind::parse(&raw).ok_or_else(|| {
            ApiError::bad(format!("type: expected sweep|mlv|grid|mc|optimize, got '{raw}'"))
        })?;
        let timeout_ms: Option<u64> = body.opt("timeout_ms")?;
        if let Some(ms) = timeout_ms {
            if ms == 0 || ms > MAX_JOB_TIMEOUT_MS {
                return Err(ApiError::bad(format!(
                    "timeout_ms: expected 1..={MAX_JOB_TIMEOUT_MS}, got {ms}"
                )));
            }
        }
        Ok((kind, timeout_ms))
    });
    let (kind, timeout_ms) = match parsed {
        Ok(pair) => pair,
        Err(e) => return err_response(&e),
    };
    let Some(queue) = state.queue_handle() else {
        return err_response(&ApiError { status: 503, message: "server is shutting down".into() });
    };
    let (depth, _) = state.queue_occupancy();
    // Deadline-aware shedding: if the backlog alone is predicted to
    // outlast an explicit client deadline, admitting the job would
    // just burn a worker slot computing a result nobody will read.
    // Only an *explicit* timeout_ms sheds — the server-wide default
    // is a safety net, not a latency SLO.
    if let (Some(ms), Some(avg)) = (timeout_ms, state.jobs.avg_job_seconds()) {
        let predicted_wait_s = depth as f64 * avg / state.workers().max(1) as f64;
        if predicted_wait_s * 1e3 > ms as f64 {
            state.telemetry.shed_predicted_deadline.inc();
            return err_response(&ApiError {
                status: 503,
                message: format!(
                    "predicted queue wait {:.0} ms exceeds timeout_ms {ms}",
                    predicted_wait_s * 1e3
                ),
            })
            .with_retry_after(retry_after_seconds(state, depth));
        }
    }
    let deadline = timeout_ms
        .map(Duration::from_millis)
        .or_else(|| state.default_job_timeout())
        .map(|d| Instant::now() + d);
    let (id, _) = state.jobs.submit_with_deadline(kind, text, deadline);
    if queue.enqueue(id).is_err() {
        // Registered but unplaceable: surface the backpressure and
        // mark the orphan cancelled so it never reads as pending.
        state.jobs.cancel(id);
        state.telemetry.shed_queue_full.inc();
        return err_response(&ApiError {
            status: 503,
            message: format!("job queue full ({} pending)", queue.capacity()),
        })
        .with_retry_after(retry_after_seconds(state, depth.max(queue.capacity() as u64)));
    }
    let body = Value::Record(vec![
        ("id".into(), Value::Int(i128::from(id))),
        ("status".into(), Value::Str("queued".into())),
        ("kind".into(), Value::Str(kind.name().into())),
    ]);
    Response::json(202, json::value_to_string(&body))
}

/// `GET` / `DELETE` on `/v1/jobs/{id}`. `GET ...?debug=timings`
/// appends the per-stage timing breakdown captured while the job
/// executed.
fn job_route(state: &ServerState, method: &str, id_raw: &str, req: &Request) -> Response {
    let Ok(id) = id_raw.parse::<u64>() else {
        return err_response(&ApiError::bad(format!("malformed job id '{id_raw}'")));
    };
    match method {
        "GET" => {
            let timings = req.query_param("debug") == Some("timings");
            match state.jobs.with_job(id, |job| job_body(job, timings)) {
                Some(body) => Response::json(200, json::value_to_string(&body)),
                None => err_response(&ApiError { status: 404, message: format!("no job {id}") }),
            }
        }
        "DELETE" => match state.jobs.cancel(id) {
            Some(status) => {
                let body = Value::Record(vec![
                    ("id".into(), Value::Int(i128::from(id))),
                    ("status".into(), Value::Str(status.name().into())),
                    // A running job flips to cancelled when its
                    // executor next polls the flag.
                    ("cancelling".into(), Value::Bool(status == JobStatus::Running)),
                ]);
                Response::json(200, json::value_to_string(&body))
            }
            None => err_response(&ApiError { status: 404, message: format!("no job {id}") }),
        },
        other => {
            err_response(&ApiError { status: 405, message: format!("{other} not allowed on jobs") })
        }
    }
}

/// `GET /v1/jobs/{id}/result[?shard=K]`: the final result alone, or
/// one shard's partial — the paging interface that replaces polling a
/// single giant job body for streaming jobs.
fn job_result_route(state: &ServerState, method: &str, id_raw: &str, req: &Request) -> Response {
    if method != "GET" {
        return err_response(&ApiError {
            status: 405,
            message: format!("{method} not allowed on job results"),
        });
    }
    let Ok(id) = id_raw.parse::<u64>() else {
        return err_response(&ApiError::bad(format!("malformed job id '{id_raw}'")));
    };
    let Some(shard_raw) = req.query_param("shard") else {
        // No shard: the merged final result, available once done.
        return match state.jobs.with_job(id, |job| (job.status, job.result.clone())) {
            None => err_response(&ApiError { status: 404, message: format!("no job {id}") }),
            Some((JobStatus::Done, Some(result))) => {
                let body = Value::Record(vec![
                    ("id".into(), Value::Int(i128::from(id))),
                    ("status".into(), Value::Str("done".into())),
                    ("result".into(), result),
                ]);
                Response::json(200, json::value_to_string(&body))
            }
            Some((status, _)) => err_response(&ApiError {
                status: 409,
                message: format!("job {id} is {}, not done", status.name()),
            }),
        };
    };
    let Ok(shard) = shard_raw.parse::<usize>() else {
        return err_response(&ApiError::bad(format!("malformed shard index '{shard_raw}'")));
    };
    let Some(page) = state.jobs.with_job(id, |job| {
        (job.shards_total, job.shards.get(shard).cloned().flatten(), job.shards_done(), job.status)
    }) else {
        return err_response(&ApiError { status: 404, message: format!("no job {id}") });
    };
    match page {
        (None, _, _, _) => err_response(&ApiError {
            status: 404,
            message: format!("job {id} has no shard results (not a streaming job, or not started)"),
        }),
        (Some(total), _, _, _) if shard >= total => err_response(&ApiError {
            status: 404,
            message: format!("shard {shard} out of range ({total} shards)"),
        }),
        // A terminal job will never fill the missing slot: answering
        // "pending" would make pacing clients poll forever.
        (Some(_), None, _, status @ (JobStatus::Failed | JobStatus::Cancelled)) => {
            err_response(&ApiError {
                status: 409,
                message: format!("job {id} is {}; shard {shard} was never computed", status.name()),
            })
        }
        (Some(total), None, done, _) => {
            // Declared but not yet computed: 202 tells pollers to
            // come back, with enough progress to pace themselves.
            let body = Value::Record(vec![
                ("id".into(), Value::Int(i128::from(id))),
                ("shard".into(), Value::Int(shard as i128)),
                ("status".into(), Value::Str("pending".into())),
                ("shards_done".into(), Value::Int(done as i128)),
                ("shards_total".into(), Value::Int(total as i128)),
            ]);
            Response::json(202, json::value_to_string(&body))
        }
        (Some(total), Some(partial), done, _) => {
            let body = Value::Record(vec![
                ("id".into(), Value::Int(i128::from(id))),
                ("shard".into(), Value::Int(shard as i128)),
                ("shards_done".into(), Value::Int(done as i128)),
                ("shards_total".into(), Value::Int(total as i128)),
                ("partial".into(), partial),
            ]);
            Response::json(200, json::value_to_string(&body))
        }
    }
}

/// The status body of one job; `with_timings` appends the per-stage
/// breakdown (`?debug=timings`) — `null` until the executor attaches
/// one at finish.
fn job_body(job: &crate::jobs::Job, with_timings: bool) -> Value {
    let mut fields = vec![
        ("id".into(), Value::Int(i128::from(job.id))),
        ("kind".into(), Value::Str(job.kind.name().into())),
        ("status".into(), Value::Str(job.status.name().into())),
        ("age_ms".into(), Value::F64(job.submitted.elapsed().as_secs_f64() * 1e3)),
    ];
    if let Some(total) = job.shards_total {
        fields.push(("shards_total".into(), Value::Int(total as i128)));
        fields.push(("shards_done".into(), Value::Int(job.shards_done() as i128)));
    }
    if let Some(ms) = job.elapsed_ms {
        fields.push(("elapsed_ms".into(), Value::F64(ms)));
    }
    if let Some(result) = &job.result {
        fields.push(("result".into(), result.clone()));
    }
    if let Some(error) = &job.error {
        fields.push(("error".into(), Value::Str(error.clone())));
    }
    if with_timings {
        fields.push(("timings".into(), job.timings.clone().unwrap_or(Value::Unit)));
    }
    Value::Record(fields)
}

/// [`api::JobObserver`] backed by the job registry: partials land in
/// the job's shard table as they complete, and the job's cancel flag
/// — or an expired deadline — aborts the executor at the next
/// shard/cell boundary. Deadlines are only ever enforced here, at
/// unit boundaries, never inside a numeric kernel: a job that misses
/// its deadline keeps every shard it finished, bit-identical to an
/// unhurried run of the same shards.
struct RegistryObserver<'a> {
    state: &'a ServerState,
    id: u64,
    cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
    deadline: Option<Instant>,
}

impl api::JobObserver for RegistryObserver<'_> {
    fn declare(&self, total: usize) {
        self.state.jobs.set_shards_total(self.id, total);
    }

    fn unit(&self, index: usize, partial: Value) {
        self.state.jobs.put_shard(self.id, index, partial);
    }

    fn cancelled(&self) -> bool {
        self.cancel.load(std::sync::atomic::Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Runs the result serialization under a `serialize` span so it shows
/// up as its own stage in the job's trace and timing breakdown.
fn serialized(f: impl FnOnce() -> Value) -> Value {
    let _span = nanoleak_obs::span!("serialize");
    f()
}

/// One captured span as a JSON node with nested children.
fn span_node(trace: &nanoleak_obs::Trace, index: usize) -> Value {
    let span = &trace.spans[index];
    let mut fields = vec![
        ("name".into(), Value::Str(span.name.into())),
        ("start_us".into(), Value::Int(i128::from(span.start_us))),
        ("dur_us".into(), Value::Int(i128::from(span.dur_us))),
    ];
    if !span.attrs.is_empty() {
        let attrs = span.attrs.iter().map(|(k, v)| ((*k).into(), Value::Str(v.clone()))).collect();
        fields.push(("attrs".into(), Value::Record(attrs)));
    }
    let mut children: Vec<usize> =
        (0..trace.spans.len()).filter(|&i| trace.spans[i].parent == Some(span.id)).collect();
    children.sort_by_key(|&i| trace.spans[i].start_us);
    if !children.is_empty() {
        let nodes = children.into_iter().map(|i| span_node(trace, i)).collect();
        fields.push(("children".into(), Value::Seq(nodes)));
    }
    Value::Record(fields)
}

/// The span tree of one capture as the `GET /v1/jobs/{id}/trace`
/// payload. Roots are spans with no (surviving) parent — the ring
/// evicts oldest-ended spans first, and parents always end after
/// their children, so a surviving span's parent is only missing when
/// the ring overflowed (reported via `dropped`).
fn trace_value(trace: &nanoleak_obs::Trace) -> Value {
    let ids: std::collections::HashSet<u32> = trace.spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<usize> = (0..trace.spans.len())
        .filter(|&i| trace.spans[i].parent.is_none_or(|p| !ids.contains(&p)))
        .collect();
    roots.sort_by_key(|&i| trace.spans[i].start_us);
    Value::Record(vec![
        ("request_id".into(), Value::Str(trace.request_id.clone())),
        ("dropped".into(), Value::Int(i128::from(trace.dropped))),
        ("spans".into(), Value::Seq(roots.into_iter().map(|i| span_node(trace, i)).collect())),
    ])
}

/// The `?debug=timings` breakdown: queue wait plus per-stage wall
/// time aggregated over *all* spans of each stage (exact even when
/// the span ring truncated). Stages a job never entered report 0.
fn timings_value(trace: &nanoleak_obs::Trace, queue_wait_ms: f64, total_ms: f64) -> Value {
    let ms = |name: &str| trace.total_us(name) as f64 / 1e3;
    Value::Record(vec![
        ("queue_wait_ms".into(), Value::F64(queue_wait_ms)),
        ("characterize_ms".into(), Value::F64(ms("characterize"))),
        ("library_ms".into(), Value::F64(ms("library"))),
        ("compile_ms".into(), Value::F64(ms("compile"))),
        ("estimate_ms".into(), Value::F64(ms("estimate"))),
        ("merge_ms".into(), Value::F64(ms("merge"))),
        ("serialize_ms".into(), Value::F64(ms("serialize"))),
        ("total_ms".into(), Value::F64(total_ms)),
    ])
}

/// Executes one dequeued job against the engine (called from worker
/// threads). Runs under a span capture rooted at `job`, with the
/// submitting request's id re-adopted so the job's logs and trace
/// correlate with the HTTP request that created it.
pub fn execute_job(state: &ServerState, id: u64) {
    let Some((kind, text, cancel)) = state.jobs.start(id) else {
        return; // cancelled while queued, or unknown
    };
    let deadline = state.jobs.with_job(id, |job| job.deadline).flatten();
    // Expired while queued: fail fast without touching the engine.
    // (If the client also cancelled, the cancel verdict wins below.)
    if deadline.is_some_and(|d| Instant::now() >= d)
        && !cancel.load(std::sync::atomic::Ordering::Relaxed)
    {
        nanoleak_obs::warn!("jobs", "job {} ({}) expired in queue", id, kind.name());
        state.jobs.finish(id, Err(DEADLINE_EXCEEDED.to_string()), 0.0);
        return;
    }
    nanoleak_obs::set_request_id(state.jobs.with_job(id, |job| job.request_id.clone()).flatten());
    let queue_wait_ms = state.jobs.queue_wait_ms(id).unwrap_or(0.0);
    nanoleak_obs::begin_capture();
    let started = std::time::Instant::now();
    let observer = RegistryObserver { state, id, cancel: cancel.clone(), deadline };
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _job_span = nanoleak_obs::span!("job");
            let body = Body::parse(&text)?;
            match kind {
                JobKind::Sweep => api::run_sweep_streaming(&state.cache, &body, &observer)
                    .map(|r| serialized(|| r.to_value())),
                JobKind::Mlv => api::run_mlv(&state.cache, &body, &observer)
                    .map(|r| serialized(|| r.to_value())),
                JobKind::Grid => api::run_grid(&state.cache, &body, &observer)
                    .map(|r| serialized(|| r.to_value())),
                JobKind::Mc => {
                    api::run_mc(&state.cache, &body, &observer).map(|r| serialized(|| r.to_value()))
                }
                // Optimize jobs report one unit per finished round, so
                // pollers watch the objective converge live.
                JobKind::Optimize => api::run_optimize_with(&state.cache, &body, &observer)
                    .map(|r| serialized(|| r.to_value())),
            }
        }));
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let trace = nanoleak_obs::end_capture();
    let result = match outcome {
        Ok(Ok(value)) => Ok(value),
        // The API layer reports a deadline-triggered abort as the same
        // 409 "job cancelled" it uses for client cancels (both ride
        // the observer's `cancelled()` poll). Disambiguate here: an
        // expired deadline with no client cancel is a deadline miss.
        Ok(Err(e))
            if e.status == 409
                && deadline.is_some_and(|d| Instant::now() >= d)
                && !cancel.load(std::sync::atomic::Ordering::Relaxed) =>
        {
            Err(DEADLINE_EXCEEDED.to_string())
        }
        Ok(Err(e)) => Err(e.message),
        // A panicking shard fails exactly this job; the worker thread
        // survives (see the pool loop's outer containment). Keep the
        // payload so operators see *what* tripped, not just that
        // something did.
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            Err(match msg {
                Some(m) => format!("{JOB_PANICKED}: {m}"),
                None => JOB_PANICKED.to_string(),
            })
        }
    };
    match &result {
        Ok(_) => {
            nanoleak_obs::info!("jobs", "job {} ({}) done in {:.1} ms", id, kind.name(), elapsed_ms)
        }
        Err(message) => {
            nanoleak_obs::warn!("jobs", "job {} ({}) failed: {}", id, kind.name(), message);
        }
    }
    state.jobs.set_telemetry(
        id,
        trace_value(&trace),
        timings_value(&trace, queue_wait_ms, elapsed_ms),
    );
    state.jobs.finish(id, result, elapsed_ms);
    nanoleak_obs::set_request_id(None);
}
