//! Chaos drills: the serving stack under injected faults.
//!
//! Each test arms `nanoleak-fault` failpoints against a real server
//! on an ephemeral port and asserts the blast radius stays contained:
//! a panicking shard fails exactly one job, deadlines abort between
//! shards with completed partials intact, and a saturated queue sheds
//! with `503 + Retry-After` instead of melting down.
//!
//! Lives in its own test binary: the fault registry is process-global
//! and must not bleed into the `service.rs` suite. Within this binary
//! the tests serialize on one mutex for the same reason.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use nanoleak_fault::{arm, arm_limited, disarm_all, FaultAction};
use nanoleak_serve::{ServeConfig, Server, ShutdownHandle};
use serde::{json, Value};

fn serial() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    disarm_all();
    guard
}

struct TestServer {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn base_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: None,
            disk_cache: false,
            ..Default::default()
        }
    }

    fn start_cfg(config: ServeConfig) -> Self {
        let server = Server::bind(&config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address");
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Self { addr, handle, thread: Some(thread) }
    }

    fn start(threads: usize, queue_capacity: usize) -> Self {
        Self::start_cfg(ServeConfig { threads, queue_capacity, ..Self::base_config() })
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.request();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

/// One HTTP exchange; returns `(status, headers, body)`.
fn request(
    server: &TestServer,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn field(body: &str, name: &str) -> Option<Value> {
    let v = json::value_from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    let Value::Record(fields) = v else { panic!("not an object: {body}") };
    fields.into_iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn str_field(body: &str, name: &str) -> String {
    match field(body, name) {
        Some(Value::Str(s)) => s,
        other => panic!("field '{name}' not a string ({other:?}) in {body}"),
    }
}

fn int_field(body: &str, name: &str) -> i128 {
    match field(body, name) {
        Some(Value::Int(i)) => i,
        other => panic!("field '{name}' not an int ({other:?}) in {body}"),
    }
}

fn submit(server: &TestServer, body: &str) -> i128 {
    let (status, _, resp) = request(server, "POST", "/v1/jobs", body);
    assert_eq!(status, 202, "{resp}");
    int_field(&resp, "id")
}

/// Polls a job to a terminal state; returns `(state, body)`.
fn wait_for_job(server: &TestServer, id: i128, deadline: Duration) -> (String, String) {
    let start = Instant::now();
    loop {
        let (status, _, body) = request(server, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let state = str_field(&body, "status");
        match state.as_str() {
            "done" | "failed" | "cancelled" => return (state, body),
            "queued" | "running" => {
                assert!(
                    start.elapsed() < deadline,
                    "job {id} still '{state}' after {deadline:?}: {body}"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("unknown status '{other}': {body}"),
        }
    }
}

/// The value of one exact series in a `/metrics` scrape.
fn metric(text: &str, series: &str) -> f64 {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(series) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().unwrap_or_else(|e| panic!("bad value in '{line}': {e}"));
            }
        }
    }
    panic!("series '{series}' not found in:\n{text}");
}

fn scrape(server: &TestServer) -> String {
    let (status, _, text) = request(server, "GET", "/metrics", "");
    assert_eq!(status, 200);
    text
}

const SWEEP: &str = r#"{"type": "sweep", "target": "s838", "vectors": 16, "coarse": true}"#;

/// The headline isolation drill: a worker panicking mid-shard fails
/// exactly that job — with the panic message in the job record — and
/// the worker itself survives to run the next job. The pool never
/// decays.
#[test]
fn worker_panic_fails_one_job_and_the_pool_survives() {
    let _g = serial();
    let server = TestServer::start(1, 8);
    arm_limited("slow-shard", FaultAction::Panic("chaos drill".into()), Some(1));
    let id = submit(&server, SWEEP);
    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "failed", "{body}");
    let error = str_field(&body, "error");
    assert!(error.starts_with("job panicked"), "panic not surfaced: {error}");
    assert!(error.contains("chaos drill"), "payload lost: {error}");

    // The fault self-disarmed after one fire: the same worker thread
    // must pick up and finish the next job.
    let id = submit(&server, SWEEP);
    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done", "worker died with the job: {body}");

    let text = scrape(&server);
    assert_eq!(metric(&text, "nanoleak_jobs_panicked_total"), 1.0);
    assert_eq!(metric(&text, "nanoleak_server_workers_alive"), 1.0, "pool decayed");
    // Hit counters are process-global and persist across disarm (by
    // design — they are the post-drill evidence), so sibling tests in
    // this binary may already have tripped the same point.
    assert!(metric(&text, "nanoleak_fault_injected_total{point=\"slow-shard\"}") >= 1.0);
    disarm_all();
}

/// Deadline propagation: a job with `timeout_ms` aborts between
/// shards once the deadline passes — completed shards stay paged, the
/// error is exactly `deadline_exceeded`, and the counter ticks.
#[test]
fn deadline_stops_a_sharded_sweep_between_shards() {
    let _g = serial();
    let server = TestServer::start(1, 8);
    // Warm the characterization memo so the drill times shards, not
    // the solver.
    let id = submit(&server, SWEEP);
    wait_for_job(&server, id, Duration::from_secs(120));

    arm("slow-shard", FaultAction::SleepMs(150));
    let id = submit(
        &server,
        r#"{"type": "sweep", "target": "s838", "vectors": 64, "shard_vectors": 8,
            "coarse": true, "timeout_ms": 400}"#,
    );
    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    disarm_all();
    assert_eq!(state, "failed", "{body}");
    assert_eq!(str_field(&body, "error"), "deadline_exceeded");
    let done = int_field(&body, "shards_done");
    let total = int_field(&body, "shards_total");
    assert!(done >= 1, "pre-deadline shards must be kept: {body}");
    assert!(done < total, "the deadline should have cut the sweep short: {body}");

    // The completed shards still page individually.
    let (status, _, page) = request(&server, "GET", &format!("/v1/jobs/{id}/result?shard=0"), "");
    assert_eq!(status, 200, "{page}");
    assert!(field(&page, "partial").is_some(), "{page}");

    let text = scrape(&server);
    assert_eq!(metric(&text, "nanoleak_deadline_exceeded_total"), 1.0);
}

/// The server-wide `--default-job-timeout` is a fallback deadline for
/// requests that carry no `timeout_ms` of their own.
#[test]
fn default_job_timeout_applies_when_the_request_sets_none() {
    let _g = serial();
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        default_job_timeout: Some(Duration::from_millis(1)),
        ..TestServer::base_config()
    });
    let id = submit(&server, SWEEP);
    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "failed", "{body}");
    assert_eq!(str_field(&body, "error"), "deadline_exceeded");
}

/// Overload shedding: a saturated queue answers `503` with a
/// `Retry-After` hint instead of a bare error, and the shed is
/// accounted under `nanoleak_shed_total{reason="queue_full"}`.
#[test]
fn saturated_queue_sheds_with_retry_after() {
    let _g = serial();
    let server = TestServer::start(1, 1);
    // Slow shards keep the single worker busy while the queue fills.
    arm("slow-shard", FaultAction::SleepMs(200));
    let slow = r#"{"type": "sweep", "target": "s838", "vectors": 64,
                   "shard_vectors": 8, "coarse": true}"#;
    let mut shed = None;
    for _ in 0..8 {
        let (status, headers, resp) = request(&server, "POST", "/v1/jobs", slow);
        match status {
            202 => {}
            503 => {
                shed = Some((headers, resp));
                break;
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    disarm_all();
    let (headers, resp) = shed.expect("a bounded queue must eventually shed");
    assert!(resp.contains("queue full"), "{resp}");
    let retry: u64 = header(&headers, "retry-after")
        .unwrap_or_else(|| panic!("503 without Retry-After: {headers:?}"))
        .parse()
        .expect("integer Retry-After");
    assert!((1..=60).contains(&retry), "unreasonable hint: {retry}");
    let text = scrape(&server);
    assert!(metric(&text, "nanoleak_shed_total{reason=\"queue_full\"}") >= 1.0);
}

/// An injected characterization failure surfaces as a structured 422
/// on the synchronous path — no 500, no crash — and the next request
/// recovers once the failpoint disarms.
#[test]
fn injected_solver_failure_is_a_structured_422_then_recovers() {
    let _g = serial();
    let server = TestServer::start(1, 8);
    arm_limited("characterize", FaultAction::Error("injected no-convergence".into()), Some(1));
    let body = r#"{"target": "s838", "vectors": 8, "coarse": true}"#;
    let (status, _, resp) = request(&server, "POST", "/v1/sweep", body);
    assert_eq!(status, 422, "{resp}");
    assert!(field(&resp, "error").is_some(), "unstructured failure: {resp}");
    let (status, _, resp) = request(&server, "POST", "/v1/sweep", body);
    assert_eq!(status, 200, "no recovery after disarm: {resp}");
    disarm_all();
}

/// A synchronous handler that panics is contained: the request gets a
/// structured 500, `nanoleak_server_handler_panics_total` and the
/// `/v1/stats` resilience block count it, and the next request is
/// served.
#[test]
fn handler_panic_is_a_counted_500_then_recovers() {
    let _g = serial();
    let server = TestServer::start(1, 8);
    arm_limited("characterize", FaultAction::Panic("handler drill".into()), Some(1));
    let body = r#"{"target": "s838", "vectors": 8, "coarse": true}"#;
    let (status, _, resp) = request(&server, "POST", "/v1/estimate", body);
    assert_eq!(status, 500, "{resp}");
    assert!(field(&resp, "error").is_some(), "unstructured failure: {resp}");
    assert!(resp.contains(r#""message":"handler panicked""#), "{resp}");
    let text = scrape(&server);
    assert_eq!(metric(&text, "nanoleak_server_handler_panics_total"), 1.0);
    assert_eq!(metric(&text, "nanoleak_jobs_panicked_total"), 0.0);
    let (status, _, stats) = request(&server, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let Some(Value::Record(resilience)) = field(&stats, "resilience") else {
        panic!("no resilience block in {stats}")
    };
    let counted = resilience.iter().find(|(name, _)| name == "handler_panics");
    assert!(matches!(counted, Some((_, Value::Int(1)))), "{stats}");
    let (status, _, resp) = request(&server, "POST", "/v1/estimate", body);
    assert_eq!(status, 200, "no recovery after the panic: {resp}");
    disarm_all();
}
