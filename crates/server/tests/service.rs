//! End-to-end integration tests for `nanoleak-serve`: a real server
//! on an ephemeral port, driven by a raw [`TcpStream`] HTTP client.
//!
//! Covers the acceptance criteria of the service PR: `/healthz`
//! answers, a sweep served over HTTP is bit-identical to the same
//! in-process [`sweep`] call, the async job lifecycle runs
//! queued → running → done (and cancels), and malformed JSON /
//! unknown routes come back as structured 4xx errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions, OperatingPoint};
use nanoleak_core::EstimatorMode;
use nanoleak_device::Technology;
use nanoleak_engine::{
    mc_streaming_mode, sweep, McMode, MemoLibraryCache, SweepConfig, SweepStats,
};
use nanoleak_netlist::bench_format::parse_bench;
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use nanoleak_serve::{ServeConfig, Server, ShutdownHandle};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, McSummary, VariationSigmas};
use serde::{json, Deserialize, Value};

/// A running test server; shuts down (and joins) on drop.
struct TestServer {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(threads: usize, queue_capacity: usize) -> Self {
        Self::start_cfg(ServeConfig { threads, queue_capacity, ..Self::base_config() })
    }

    /// Hermetic defaults: ephemeral port, RAM memo only.
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
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.request();
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread").expect("server run");
        }
    }
}

/// One HTTP exchange over a raw TcpStream; returns (status, body).
fn request(server: &TestServer, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Parses a JSON body and extracts a top-level field.
fn field(body: &str, name: &str) -> Value {
    let v = json::value_from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    let Value::Record(fields) = v else { panic!("not an object: {body}") };
    fields
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no field '{name}' in {body}"))
}

/// Asserts the structured error shape and returns its message.
fn assert_error(body: &str, code: u16) -> String {
    let Value::Record(fields) = field(body, "error") else { panic!("no error object: {body}") };
    let mut message = String::new();
    let mut seen_code = 0i128;
    for (name, value) in fields {
        match (name.as_str(), value) {
            ("code", Value::Int(c)) => seen_code = c,
            ("message", Value::Str(m)) => message = m,
            _ => {}
        }
    }
    assert_eq!(seen_code, i128::from(code), "error.code in {body}");
    assert!(!message.is_empty(), "error.message missing in {body}");
    message
}

#[test]
fn healthz_answers() {
    let server = TestServer::start(1, 8);
    let (status, body) = request(&server, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"status":"ok"}"#);
}

#[test]
fn unknown_routes_and_bad_bodies_are_structured_4xx() {
    let server = TestServer::start(1, 8);

    let (status, body) = request(&server, "GET", "/totally/unknown", "");
    assert_eq!(status, 404);
    assert!(assert_error(&body, 404).contains("/totally/unknown"));

    let (status, body) = request(&server, "POST", "/healthz", "");
    assert_eq!(status, 405);
    assert_error(&body, 405);

    let (status, body) = request(&server, "POST", "/v1/sweep", "{not json");
    assert_eq!(status, 400);
    assert!(assert_error(&body, 400).contains("malformed JSON"));

    let (status, body) = request(&server, "POST", "/v1/sweep", r#"{"vectors": 4}"#);
    assert_eq!(status, 400, "missing target: {body}");
    assert_error(&body, 400);

    let (status, body) = request(&server, "POST", "/v1/estimate", r#"{"target": "sXYZ"}"#);
    assert_eq!(status, 422);
    assert!(assert_error(&body, 422).contains("sXYZ"));

    let (status, body) = request(&server, "GET", "/v1/jobs/999", "");
    assert_eq!(status, 404);
    assert_error(&body, 404);

    let (status, body) = request(&server, "DELETE", "/v1/jobs/not-a-number", "");
    assert_eq!(status, 400);
    assert_error(&body, 400);
}

#[test]
fn estimate_endpoint_reports_loading_impact() {
    let server = TestServer::start(1, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/estimate",
        r#"{"target": "s838", "vectors": 5, "coarse": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let Value::F64(mean) = field(&body, "mean_total_a") else { panic!("mean_total_a: {body}") };
    assert!(mean > 0.0, "positive leakage, got {mean}");
    let Value::F64(baseline) = field(&body, "mean_no_loading_a") else { panic!("{body}") };
    assert_ne!(mean, baseline, "loading must move the estimate");
}

/// The acceptance criterion: a sweep served over HTTP equals the
/// in-process `sweep()` call for the same seed, bit for bit.
#[test]
fn http_sweep_is_bit_identical_to_in_process_sweep() {
    let server = TestServer::start(2, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/sweep",
        r#"{"target": "s838", "vectors": 12, "seed": 77, "threads": 2, "coarse": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let http_stats = SweepStats::from_value(&field(&body, "stats")).expect("decode stats");

    let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    );
    let config =
        SweepConfig { vectors: 12, seed: 77, threads: 1, mode: EstimatorMode::Lut, lanes: 0 };
    let local = sweep(&circuit, &lib, &config).expect("local sweep");
    assert_eq!(http_stats, local.stats, "HTTP and in-process sweeps must agree exactly");
}

/// Polls one job until it reaches a terminal status.
fn wait_for_job(server: &TestServer, id: i128, deadline: Duration) -> (String, String) {
    let start = Instant::now();
    loop {
        let (status, body) = request(server, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let Value::Str(state) = field(&body, "status") else { panic!("status: {body}") };
        match state.as_str() {
            "done" | "failed" | "cancelled" => return (state, body),
            "queued" | "running" => {
                assert!(
                    start.elapsed() < deadline,
                    "job {id} still '{state}' after {deadline:?}: {body}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unknown status '{other}': {body}"),
        }
    }
}

#[test]
fn grid_job_lifecycle_queued_to_done_with_deterministic_matrix() {
    let server = TestServer::start(1, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/jobs",
        r#"{"type": "grid", "target": "s838", "vectors": 6, "seed": 5, "coarse": true,
            "temps": [300, 340], "vdd_scales": [0.9, 1.0]}"#,
    );
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };
    let Value::Str(state) = field(&body, "status") else { panic!("status: {body}") };
    assert_eq!(state, "queued");

    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done", "{body}");
    let result = field(&body, "result");
    let Value::Record(result_fields) = &result else { panic!("result: {body}") };
    let matrix = result_fields
        .iter()
        .find(|(n, _)| n == "mean_total_a")
        .map(|(_, v)| Vec::<Vec<f64>>::from_value(v).expect("matrix decodes"))
        .expect("mean_total_a present");
    assert_eq!(matrix.len(), 2, "one row per temperature");
    assert!(matrix.iter().all(|row| row.len() == 2), "one column per vdd scale");
    // Hotter rows leak more at every supply point.
    for col in 0..2 {
        assert!(matrix[1][col] > matrix[0][col], "340 K > 300 K leakage: {matrix:?}");
    }

    // Determinism across the HTTP boundary: the (300 K, 1.0) cell is
    // exactly the in-process sweep mean for the same seed.
    let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    );
    let config =
        SweepConfig { vectors: 6, seed: 5, threads: 0, mode: EstimatorMode::Lut, lanes: 0 };
    let local = sweep(&circuit, &lib, &config).expect("local sweep");
    assert_eq!(matrix[0][1], local.stats.total.mean, "grid cell equals in-process sweep");
}

#[test]
fn queued_jobs_cancel_and_stats_count_everything() {
    // One worker and a deep queue: the first job occupies the worker
    // while the second is cancelled in place.
    let server = TestServer::start(1, 8);
    let submit = |body: &str| {
        let (status, resp) = request(&server, "POST", "/v1/jobs", body);
        assert_eq!(status, 202, "{resp}");
        let Value::Int(id) = field(&resp, "id") else { panic!("id: {resp}") };
        id
    };
    let first = submit(r#"{"type": "sweep", "target": "s838", "vectors": 8, "coarse": true}"#);
    let second = submit(r#"{"type": "sweep", "target": "s838", "vectors": 8, "coarse": true}"#);

    let (status, body) = request(&server, "DELETE", &format!("/v1/jobs/{second}"), "");
    assert_eq!(status, 200, "{body}");
    // Cancelled while queued (or, if the worker already grabbed it,
    // flagged while running) — either way it terminates cancelled or
    // done-before-cancel; a queued cancel must read "cancelled".
    let (state, _) = wait_for_job(&server, second, Duration::from_secs(120));
    assert!(state == "cancelled" || state == "done", "cancel outcome: {state}");

    let (state, _) = wait_for_job(&server, first, Duration::from_secs(120));
    assert_eq!(state, "done", "undisturbed job completes");

    let (status, body) = request(&server, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let Value::Record(jobs) = field(&body, "jobs") else { panic!("jobs: {body}") };
    let count = |name: &str| {
        jobs.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| if let Value::Int(i) = v { Some(*i) } else { None })
            .unwrap_or_else(|| panic!("jobs.{name}: {body}"))
    };
    assert_eq!(count("queued") + count("running"), 0, "everything settled");
    assert!(count("done") >= 1);
    assert_eq!(count("done") + count("cancelled"), 2);
    let Value::Record(cache) = field(&body, "cache") else { panic!("cache: {body}") };
    let characterizations =
        cache.iter().find(|(n, _)| n.as_str() == "characterizations").map(|(_, v)| v.clone());
    assert!(
        matches!(characterizations, Some(Value::Int(n)) if n >= 1),
        "solver ran at least once: {body}"
    );
}

/// Writes one request on an already-open keep-alive stream.
fn write_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n", body.len());
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
}

/// Reads exactly one response off a keep-alive stream; `None` on EOF.
/// Returns `(status, connection_header, body)`.
fn read_one_response(reader: &mut BufReader<&TcpStream>) -> Option<(u16, String, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line).expect("read status line") == 0 {
        return None;
    }
    let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut connection = String::new();
    loop {
        let mut h = String::new();
        reader.read_line(&mut h).expect("read header");
        let t = h.trim();
        if t.is_empty() {
            break;
        }
        if let Some((k, v)) = t.split_once(':') {
            match k.to_ascii_lowercase().as_str() {
                "content-length" => content_length = v.trim().parse().expect("length"),
                "connection" => connection = v.trim().to_string(),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    Some((status, connection, String::from_utf8(body).expect("utf8 body")))
}

/// The keep-alive acceptance criterion: one TCP connection serves
/// 100+ sequential requests, each correctly framed and answered, and
/// promptly: a response written in more than one piece stalls a warm
/// connection on Nagle + the client's delayed ACK (~44 ms median).
#[test]
fn keep_alive_serves_100_requests_on_one_connection() {
    let server = TestServer::start(1, 8);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let read_stream = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(&read_stream);
    let mut round_trips = Vec::new();
    for i in 0..120 {
        let sent = Instant::now();
        // Alternate routes so framing errors can't hide behind
        // identical responses.
        if i % 2 == 0 {
            write_request(&mut stream, "GET", "/healthz", "");
        } else {
            write_request(&mut stream, "GET", "/v1/stats", "");
        }
        let (status, connection, body) =
            read_one_response(&mut reader).unwrap_or_else(|| panic!("EOF at request {i}"));
        round_trips.push(sent.elapsed());
        assert_eq!(status, 200, "request {i}: {body}");
        assert_eq!(connection, "keep-alive", "request {i}");
        if i % 2 == 0 {
            assert_eq!(body, r#"{"status":"ok"}"#);
        }
    }
    // Half of Linux's 40 ms minimum delayed-ACK timer: no round trip
    // may typically wait on one.
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(20), "median round trip {median:?}");
    // Server-side request counter proves it was one warm path, not
    // silent reconnects.
    let (status, body) = request(&server, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let Value::Int(requests) = field(&body, "requests") else { panic!("requests: {body}") };
    assert!(requests >= 121, "all keep-alive requests were counted: {requests}");
}

#[test]
fn connection_close_and_http_10_are_honored() {
    let server = TestServer::start(1, 8);
    // Explicit close: exactly one response, then EOF.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.contains("200 OK") && raw.contains("Connection: close"), "{raw}");

    // HTTP/1.0 defaults to close without asking.
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n").expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.contains("Connection: close"), "{raw}");
}

#[test]
fn keep_alive_request_bound_recycles_the_connection() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        keep_alive_requests: 3,
        ..TestServer::base_config()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let read_stream = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(&read_stream);
    for i in 0..3 {
        write_request(&mut stream, "GET", "/healthz", "");
        let (status, connection, _) = read_one_response(&mut reader).expect("response");
        assert_eq!(status, 200);
        let expect = if i < 2 { "keep-alive" } else { "close" };
        assert_eq!(connection, expect, "request {i} announces the bound");
    }
    assert!(read_one_response(&mut reader).is_none(), "connection closed after the bound");
}

/// The slow-loris case: a complete first request, then a *partial*
/// second request that stalls. The idle deadline must answer 408 and
/// close — not hold the handler thread indefinitely.
#[test]
fn slow_loris_partial_second_request_hits_the_idle_deadline() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        keep_alive_idle: Duration::from_millis(250),
        ..TestServer::base_config()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let read_stream = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(&read_stream);
    write_request(&mut stream, "GET", "/healthz", "");
    let (status, _, _) = read_one_response(&mut reader).expect("first response");
    assert_eq!(status, 200);

    // Half a request line, then silence.
    stream.write_all(b"GET /healthz HTT").expect("partial write");
    let start = Instant::now();
    let (status, connection, body) =
        read_one_response(&mut reader).expect("the stall gets an answer, not a hang");
    assert_eq!(status, 408, "{body}");
    assert_eq!(connection, "close");
    assert!(assert_error(&body, 408).contains("deadline"));
    assert!(start.elapsed() < Duration::from_secs(5), "answered at the idle deadline");
    assert!(read_one_response(&mut reader).is_none(), "connection closed after 408");
}

/// Pipelined `GET /metrics` requests a client never reads: their
/// responses (kilobytes each) far exceed what the loopback socket
/// buffers hold, while the requests themselves (~38 KB) fit in the
/// server's receive buffer, so the client's own write never blocks.
const UNREAD_REQUESTS: usize = 1500;

/// A client that stops reading fills the socket buffers and blocks its
/// connection thread in `write`. The write deadline (the idle
/// deadline) must close that connection, or graceful shutdown, which
/// joins every connection thread, never returns.
#[test]
fn a_client_that_stops_reading_cannot_pin_shutdown() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        keep_alive_idle: Duration::from_millis(250),
        keep_alive_requests: 10 * UNREAD_REQUESTS,
        ..TestServer::base_config()
    });
    let mut stalled = TcpStream::connect(server.addr).expect("connect");
    let pipelined = "GET /metrics HTTP/1.1\r\n\r\n".repeat(UNREAD_REQUESTS);
    stalled.write_all(pipelined.as_bytes()).expect("pipeline");

    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let (_, _, text) = request_full(&server, "GET", "/metrics", "", "");
        if metric(&text, "nanoleak_server_write_timeouts_total") > 0.0 {
            break text;
        }
        assert!(Instant::now() < deadline, "the unread connection never hit its write deadline");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(metric(&text, "nanoleak_server_write_timeouts_total"), 1.0);
    let served = metric(&text, "nanoleak_server_requests_total");
    assert!(served < UNREAD_REQUESTS as f64, "responses outgrew the buffers: {served} served");

    // Shutdown joins every connection thread; it must finish while the
    // client still holds its unread socket open.
    let (done, finished) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(server);
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("graceful shutdown finishes while a client has stopped reading");
    dropper.join().expect("dropper thread");
    drop(stalled);
}

/// An idle keep-alive connection is closed quietly (no 408 spam) once
/// the idle deadline passes.
#[test]
fn idle_keep_alive_connection_closes_quietly() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        keep_alive_idle: Duration::from_millis(200),
        ..TestServer::base_config()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let read_stream = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(&read_stream);
    write_request(&mut stream, "GET", "/healthz", "");
    let (status, _, _) = read_one_response(&mut reader).expect("first response");
    assert_eq!(status, 200);
    // Send nothing more: EOF, not an error response.
    assert!(read_one_response(&mut reader).is_none(), "quiet close on idle");
}

#[test]
fn full_queue_is_backpressure_not_an_error_500() {
    // Capacity-1 queue and one worker: the first job runs, the second
    // waits, the third must bounce with 503.
    let server = TestServer::start(1, 1);
    let body = r#"{"type": "sweep", "target": "s838", "vectors": 64, "coarse": true}"#;
    let mut saw_503 = false;
    for _ in 0..8 {
        let (status, resp) = request(&server, "POST", "/v1/jobs", body);
        match status {
            202 => {}
            503 => {
                assert_error(&resp, 503);
                saw_503 = true;
                break;
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    assert!(saw_503, "a bounded queue must eventually push back");
}

/// The streaming acceptance criterion over HTTP: a sharded sweep job
/// reports per-shard progress, pages each shard's partial, and its
/// merged stats are bit-identical to the in-process monolithic
/// `sweep()` — across two shard sizes and thread counts.
#[test]
fn sharded_sweep_job_pages_partials_and_merges_bit_identically() {
    let server = TestServer::start(2, 8);

    let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    );
    let config =
        SweepConfig { vectors: 12, seed: 77, threads: 1, mode: EstimatorMode::Lut, lanes: 0 };
    let local = sweep(&circuit, &lib, &config).expect("local sweep");

    for (shard_vectors, threads, shards_total) in [(4usize, 2usize, 3i128), (5, 1, 3)] {
        let submit = format!(
            r#"{{"type": "sweep", "target": "s838", "vectors": 12, "seed": 77,
                "threads": {threads}, "shard_vectors": {shard_vectors}, "coarse": true}}"#
        );
        let (status, body) = request(&server, "POST", "/v1/jobs", &submit);
        assert_eq!(status, 202, "{body}");
        let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };

        let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
        assert_eq!(state, "done", "{body}");
        assert_eq!(field(&body, "shards_total"), Value::Int(shards_total), "{body}");
        assert_eq!(field(&body, "shards_done"), Value::Int(shards_total), "{body}");

        // The merged result equals the monolithic in-process sweep.
        let result = field(&body, "result");
        let Value::Record(result_fields) = &result else { panic!("result: {body}") };
        let stats_value =
            &result_fields.iter().find(|(n, _)| n == "stats").expect("stats present").1;
        let http_stats = SweepStats::from_value(stats_value).expect("decode stats");
        assert_eq!(
            http_stats, local.stats,
            "sharded job (shard_vectors {shard_vectors}, threads {threads}) \
             must merge bit-identically"
        );

        // Every shard pages independently, with coherent framing.
        let mut total_vectors = 0i128;
        for shard in 0..shards_total {
            let (status, page) =
                request(&server, "GET", &format!("/v1/jobs/{id}/result?shard={shard}"), "");
            assert_eq!(status, 200, "shard {shard}: {page}");
            assert_eq!(field(&page, "shard"), Value::Int(shard));
            assert_eq!(field(&page, "shards_total"), Value::Int(shards_total));
            let Value::Record(partial) = field(&page, "partial") else { panic!("{page}") };
            let vectors = partial
                .iter()
                .find(|(n, _)| n == "vectors")
                .and_then(|(_, v)| if let Value::Int(n) = v { Some(*n) } else { None })
                .expect("partial.vectors");
            total_vectors += vectors;
        }
        assert_eq!(total_vectors, 12, "shards tile the vector space");

        // Out-of-range shards and the no-shard result page behave.
        let (status, page) =
            request(&server, "GET", &format!("/v1/jobs/{id}/result?shard={shards_total}"), "");
        assert_eq!(status, 404, "{page}");
        assert!(assert_error(&page, 404).contains("out of range"));
        let (status, page) = request(&server, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(status, 200, "{page}");
        let Value::Record(_) = field(&page, "result") else { panic!("{page}") };
    }
}

/// A shard page of a terminal (cancelled) job must answer 409, not
/// 202 "pending" — pacing clients would otherwise poll forever.
#[test]
fn shard_pages_of_cancelled_jobs_are_conflict_not_pending() {
    let server = TestServer::start(1, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/jobs",
        r#"{"type": "sweep", "target": "s838", "vectors": 20000, "shard_vectors": 500,
            "coarse": true}"#,
    );
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };

    // Wait until the executor has declared shards and finished at
    // least one, then cancel between shards.
    let start = Instant::now();
    loop {
        let (_, body) = request(&server, "GET", &format!("/v1/jobs/{id}"), "");
        let done = json::value_from_str(&body)
            .ok()
            .and_then(|v| {
                let Value::Record(fields) = v else { return None };
                fields.into_iter().find(|(n, _)| n == "shards_done").map(|(_, v)| v)
            })
            .and_then(|v| if let Value::Int(n) = v { Some(n) } else { None })
            .unwrap_or(0);
        if done >= 1 {
            break;
        }
        assert!(start.elapsed() < Duration::from_secs(120), "no shard progress: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, body) = request(&server, "DELETE", &format!("/v1/jobs/{id}"), "");
    assert_eq!(status, 200, "{body}");

    let (state, _) = wait_for_job(&server, id, Duration::from_secs(120));
    if state == "cancelled" {
        // The last shard can never arrive now: 409, not 202.
        let (status, page) = request(&server, "GET", &format!("/v1/jobs/{id}/result?shard=39"), "");
        assert_eq!(status, 409, "{page}");
        assert!(assert_error(&page, 409).contains("cancelled"));
        // Completed shards stay pageable.
        let (status, page) = request(&server, "GET", &format!("/v1/jobs/{id}/result?shard=0"), "");
        assert_eq!(status, 200, "{page}");
    } else {
        // The executor won the race and finished first — legal, just
        // means the cancel landed too late to exercise the 409 path.
        assert_eq!(state, "done");
    }
}

/// The MC tentpole over HTTP: a sharded `"mc"` job reports per-shard
/// progress, pages each shard's distribution partial, and its merged
/// summary is **bit-identical** to the in-process exact-mode
/// [`mc_streaming_mode`] run of the same configuration — the serde
/// JSON round trip included.
#[test]
fn mc_job_pages_partials_and_matches_in_process_bit_exactly() {
    let server = TestServer::start(2, 8);
    let bench_text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n";
    let submit = format!(
        r#"{{"type": "mc", "bench": "{}", "samples": 5, "seed": 33, "vectors": 2,
            "sigma_vt": 0.05, "shard_samples": 2, "coarse": true, "exact": true}}"#,
        bench_text.replace('\n', "\\n")
    );
    let (status, body) = request(&server, "POST", "/v1/jobs", &submit);
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };

    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done", "{body}");
    assert_eq!(field(&body, "shards_total"), Value::Int(3), "5 samples in shards of 2: {body}");
    assert_eq!(field(&body, "shards_done"), Value::Int(3), "{body}");

    // Every shard pages independently and tiles the sample space.
    let mut total_samples = 0i128;
    for shard in 0..3 {
        let (status, page) =
            request(&server, "GET", &format!("/v1/jobs/{id}/result?shard={shard}"), "");
        assert_eq!(status, 200, "shard {shard}: {page}");
        let Value::Record(partial) = field(&page, "partial") else { panic!("{page}") };
        let int_of = |name: &str| {
            partial
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| if let Value::Int(n) = v { Some(*n) } else { None })
                .unwrap_or_else(|| panic!("partial.{name}: {page}"))
        };
        assert_eq!(int_of("shard"), shard);
        total_samples += int_of("samples");
    }
    assert_eq!(total_samples, 5, "shards tile the sample space");

    // The merged summary equals the in-process run, bit for bit.
    let result = field(&body, "result");
    let Value::Record(result_fields) = &result else { panic!("result: {body}") };
    let summary_value =
        &result_fields.iter().find(|(n, _)| n == "summary").expect("summary present").1;
    let http_summary = McSummary::from_value(summary_value).expect("decode summary");

    let circuit = normalize(&parse_bench("inline", bench_text).unwrap()).unwrap();
    let config = CircuitMcConfig {
        samples: 5,
        seed: 33,
        sigmas: VariationSigmas::paper_nominal().with_vt_inter(0.05),
        op: OperatingPoint::default(),
        vectors: 2,
        pattern_seed: 33,
        threads: 0,
        char_opts: char_opts_for(&circuit, true),
        lanes: 0,
    };
    let cache = MemoLibraryCache::memory_only();
    let local =
        mc_streaming_mode(&circuit, &Technology::d25(), &cache, &config, McMode::Exact, 2, |_| {
            true
        })
        .expect("local mc")
        .expect("not cancelled");
    assert_eq!(http_summary, local.summary, "HTTP MC must equal in-process MC exactly");
    // Sanity on the physics that rides along: loading shifts the mean.
    assert!(http_summary.mean_shift != 0.0, "loading must move the distribution");

    // The default (fast, delta-from-nominal) path holds the same
    // HTTP-vs-in-process contract against its own in-process run.
    let submit_fast = submit.replace(r#""exact": true"#, r#""exact": false"#);
    let (status, body) = request(&server, "POST", "/v1/jobs", &submit_fast);
    assert_eq!(status, 202, "{body}");
    let Value::Int(fast_id) = field(&body, "id") else { panic!("id: {body}") };
    let (state, body) = wait_for_job(&server, fast_id, Duration::from_secs(120));
    assert_eq!(state, "done", "{body}");
    let result = field(&body, "result");
    let Value::Record(result_fields) = &result else { panic!("result: {body}") };
    let summary_value =
        &result_fields.iter().find(|(n, _)| n == "summary").expect("summary present").1;
    let http_fast = McSummary::from_value(summary_value).expect("decode summary");
    let local_fast =
        mc_streaming_mode(&circuit, &Technology::d25(), &cache, &config, McMode::fast(), 2, |_| {
            true
        })
        .expect("local fast mc")
        .expect("not cancelled");
    assert_eq!(http_fast, local_fast.summary, "HTTP fast MC must equal in-process fast MC");
    let report = http_fast.fast.expect("fast runs self-report");
    assert!(report.max_deviation < report.tol, "deviation within tolerance: {report:?}");
}

/// The job-result-leak fix observed over HTTP: under job churn the
/// registry stays at its finished cap, evictions are surfaced in
/// `/v1/stats`, and evicted jobs 404.
#[test]
fn finished_jobs_are_evicted_under_churn() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        finished_jobs_cap: 3,
        ..TestServer::base_config()
    });
    let mut ids = Vec::new();
    for _ in 0..8 {
        let (status, body) = request(
            &server,
            "POST",
            "/v1/jobs",
            r#"{"type": "sweep", "target": "s838", "vectors": 2, "coarse": true}"#,
        );
        assert_eq!(status, 202, "{body}");
        let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };
        let (state, _) = wait_for_job(&server, id, Duration::from_secs(120));
        assert_eq!(state, "done");
        ids.push(id);
    }

    let (status, body) = request(&server, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let Value::Record(jobs) = field(&body, "jobs") else { panic!("jobs: {body}") };
    let count = |name: &str| {
        jobs.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| if let Value::Int(i) = v { Some(*i) } else { None })
            .unwrap_or_else(|| panic!("jobs.{name}: {body}"))
    };
    assert_eq!(count("resident"), 3, "registry bounded at the cap: {body}");
    assert_eq!(count("evicted"), 5, "{body}");
    assert_eq!(count("done"), 3, "resident finished jobs: {body}");

    // The oldest jobs are gone; the newest survive.
    let (status, _) = request(&server, "GET", &format!("/v1/jobs/{}", ids[0]), "");
    assert_eq!(status, 404, "evicted job 404s");
    let (status, _) = request(&server, "GET", &format!("/v1/jobs/{}", ids[7]), "");
    assert_eq!(status, 200, "newest job still readable");
}

/// The condition-matrix regression pin: the grid executor now derives
/// every cell through the shared `OperatingPoint` path, and its matrix
/// must be bit-identical to the **pre-refactor** reference — the
/// hand-rolled `tech.vdd *= scale` derivation plus one sequential
/// sweep per cell, written out below exactly as the old executor
/// computed it. (This also pins the grid-fan fix: parallel cells
/// cannot move a bit either.)
#[test]
fn parallel_grid_matrix_is_bit_identical_to_sequential() {
    let server = TestServer::start(4, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/jobs",
        r#"{"type": "grid", "target": "s838", "vectors": 4, "seed": 9, "coarse": true,
            "temps": [300, 350], "vdd_scales": [0.9, 1.0]}"#,
    );
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };
    let (state, body) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done", "{body}");
    assert_eq!(field(&body, "shards_done"), Value::Int(4), "one partial per cell");
    let result = field(&body, "result");
    let Value::Record(result_fields) = &result else { panic!("result: {body}") };
    let matrix = result_fields
        .iter()
        .find(|(n, _)| n == "mean_total_a")
        .map(|(_, v)| Vec::<Vec<f64>>::from_value(v).expect("matrix decodes"))
        .expect("mean_total_a present");

    // Sequential reference: one cell at a time, in row-major order,
    // exactly what the pre-fan executor did.
    let circuit = normalize(&iscas_like("s838").unwrap()).unwrap();
    let config =
        SweepConfig { vectors: 4, seed: 9, threads: 1, mode: EstimatorMode::Lut, lanes: 0 };
    let mut expected = Vec::new();
    for temp in [300.0, 350.0] {
        let mut row = Vec::new();
        for scale in [0.9, 1.0] {
            let mut tech = Technology::d25();
            tech.vdd *= scale;
            // The process-wide shared cache keys on the full
            // serialized tech (vdd included), so scaled requests get
            // their own entries and repeated test runs share them.
            let lib = CellLibrary::shared_with_options(
                &tech,
                temp,
                &CharacterizeOptions::coarse(&CellType::ALL),
            );
            let report = sweep(&circuit, &lib, &config).expect("cell sweep");
            row.push(report.stats.total.mean);
        }
        expected.push(row);
    }
    assert_eq!(matrix, expected, "parallel fan must not move a single bit");
}

/// One HTTP exchange that also returns the response headers
/// (lowercased names), for asserting `X-Request-Id` and
/// `Content-Type`.
fn request_full(
    server: &TestServer,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra_headers}Content-Length: {}\r\nConnection: close\r\n\r\n",
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

/// Looks up a response header by (lowercase) name.
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// The value of one exact series (`name` or `name{labels}`) in a
/// Prometheus text exposition.
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

/// A field of a JSON record `Value` (not the top-level body).
fn record_field<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    let Value::Record(fields) = value else { return None };
    fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

#[test]
fn metrics_endpoint_serves_parseable_prometheus_text() {
    let server = TestServer::start(1, 8);
    // Touch a couple of routes so counters move.
    let _ = request(&server, "GET", "/healthz", "");
    let _ = request(&server, "GET", "/v1/stats", "");

    let (status, headers, text) = request_full(&server, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    assert!(
        header(&headers, "content-type").is_some_and(|t| t.starts_with("text/plain")),
        "{headers:?}"
    );

    // Every line is a comment or `series value` with a float value.
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let kind = rest.split_whitespace().next().unwrap_or("");
            assert!(kind == "HELP" || kind == "TYPE", "bad comment line: {line}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(!series.is_empty(), "bad line: {line}");
        assert!(value.parse::<f64>().is_ok(), "unparsable value in: {line}");
    }

    // The expected families from all three sections: the per-instance
    // registry, the hand-rendered point-in-time block, and the
    // process-global registry.
    for family in [
        "nanoleak_server_requests_total",
        "nanoleak_server_protocol_errors_total",
        "nanoleak_server_request_seconds_bucket",
        "nanoleak_server_request_seconds_count",
        "nanoleak_jobs_submitted_total",
        "nanoleak_jobs{status=\"queued\"}",
        "nanoleak_server_uptime_seconds",
        "nanoleak_server_workers",
        "nanoleak_server_queue_depth",
        "nanoleak_server_queue_capacity",
        "nanoleak_server_cache_memory_hits_total{cache=\"analysis\"}",
        "nanoleak_server_cache_memory_hits_total{cache=\"mc\"}",
    ] {
        assert!(text.contains(family), "family '{family}' missing from:\n{text}");
    }
    // The /metrics request counts itself, plus healthz and stats.
    assert!(metric(&text, "nanoleak_server_requests_total") >= 3.0, "{text}");
}

#[test]
fn stats_and_metrics_are_views_over_the_same_instruments() {
    let server = TestServer::start(1, 4);

    // A scripted sequence that moves every counter: a sync estimate,
    // a finished job, and a protocol error.
    let (status, _) = request(
        &server,
        "POST",
        "/v1/estimate",
        r#"{"target": "s838", "vectors": 3, "coarse": true}"#,
    );
    assert_eq!(status, 200);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/jobs",
        r#"{"type": "sweep", "target": "s838", "vectors": 4, "seed": 9, "coarse": true}"#,
    );
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };
    let (state, _) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done");
    let mut broken = TcpStream::connect(server.addr).expect("connect");
    broken.write_all(b"BROKEN\r\n\r\n").expect("write");
    let mut reply = String::new();
    broken.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");

    // The same instruments answer both endpoints. `/metrics` is read
    // first and counts itself; the `/v1/stats` request right after is
    // exactly one more.
    let (status, _, text) = request_full(&server, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    let (status, stats_body) = request(&server, "GET", "/v1/stats", "");
    assert_eq!(status, 200);

    let stats = |path: &[&str]| -> f64 {
        let mut v = field(&stats_body, path[0]);
        for name in &path[1..] {
            v = record_field(&v, name).unwrap_or_else(|| panic!("{path:?}")).clone();
        }
        match v {
            Value::Int(i) => i as f64,
            Value::F64(f) => f,
            other => panic!("{path:?}: {other:?}"),
        }
    };

    assert_eq!(stats(&["requests"]), metric(&text, "nanoleak_server_requests_total") + 1.0);
    assert_eq!(stats(&["workers"]), metric(&text, "nanoleak_server_workers"));
    assert_eq!(stats(&["queue", "depth"]), metric(&text, "nanoleak_server_queue_depth"));
    assert_eq!(stats(&["queue", "capacity"]), metric(&text, "nanoleak_server_queue_capacity"));
    for status_name in ["queued", "running", "done", "failed", "cancelled"] {
        assert_eq!(
            stats(&["jobs", status_name]),
            metric(&text, &format!("nanoleak_jobs{{status=\"{status_name}\"}}")),
            "jobs.{status_name}"
        );
    }
    assert_eq!(stats(&["jobs", "resident"]), metric(&text, "nanoleak_jobs_resident"));
    assert_eq!(stats(&["jobs", "evicted"]), metric(&text, "nanoleak_jobs_evicted_total"));
    for (stat, series) in [
        ("memory_hits", "nanoleak_server_cache_memory_hits_total{cache=\"analysis\"}"),
        ("disk_hits", "nanoleak_server_cache_disk_hits_total{cache=\"analysis\"}"),
        ("characterizations", "nanoleak_server_cache_characterizations_total{cache=\"analysis\"}"),
        ("resident", "nanoleak_server_cache_resident{cache=\"analysis\"}"),
    ] {
        assert_eq!(stats(&["cache", stat]), metric(&text, series), "cache.{stat}");
    }
    assert_eq!(metric(&text, "nanoleak_jobs_submitted_total"), 1.0);
    assert_eq!(metric(&text, "nanoleak_jobs{status=\"done\"}"), 1.0);
    // Every kind is exported from the start; the malformed request
    // line moved only its own.
    for kind in ["malformed", "timeout", "body_too_large", "header_too_large", "version"] {
        let series = format!("nanoleak_server_protocol_errors_total{{kind=\"{kind}\"}}");
        let expected = if kind == "malformed" { 1.0 } else { 0.0 };
        assert_eq!(metric(&text, &series), expected, "{series}");
    }
}

#[test]
fn trace_endpoint_returns_span_tree_and_timings_ride_on_job_status() {
    let server = TestServer::start(1, 8);
    let (status, body) = request(
        &server,
        "POST",
        "/v1/jobs",
        r#"{"type": "sweep", "target": "s838", "vectors": 8, "seed": 3, "coarse": true,
            "shard_vectors": 4}"#,
    );
    assert_eq!(status, 202, "{body}");
    let Value::Int(id) = field(&body, "id") else { panic!("id: {body}") };

    // Unknown jobs are 404.
    let (status, body404) = request(&server, "GET", "/v1/jobs/999999/trace", "");
    assert_eq!(status, 404, "{body404}");

    let (state, _) = wait_for_job(&server, id, Duration::from_secs(120));
    assert_eq!(state, "done");

    let (status, body) = request(&server, "GET", &format!("/v1/jobs/{id}/trace"), "");
    assert_eq!(status, 200, "{body}");
    let trace = field(&body, "trace");
    let Some(Value::Seq(roots)) = record_field(&trace, "spans") else {
        panic!("trace.spans: {body}")
    };
    assert_eq!(roots.len(), 1, "one root span: {body}");
    let root = &roots[0];
    assert_eq!(record_field(root, "name"), Some(&Value::Str("job".into())), "{body}");
    let Some(Value::Seq(children)) = record_field(root, "children") else {
        panic!("job span has stage children: {body}")
    };
    let names: Vec<&str> = children
        .iter()
        .filter_map(|c| match record_field(c, "name") {
            Some(Value::Str(n)) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    for stage in ["compile", "estimate", "merge", "serialize"] {
        assert!(names.contains(&stage), "stage '{stage}' missing from {names:?}");
    }
    // One `estimate` child per shard (8 vectors / 4 per shard).
    assert_eq!(names.iter().filter(|n| **n == "estimate").count(), 2, "{names:?}");

    // `?debug=timings` on the job status body.
    let (status, body) = request(&server, "GET", &format!("/v1/jobs/{id}?debug=timings"), "");
    assert_eq!(status, 200, "{body}");
    let timings = field(&body, "timings");
    let ms = |name: &str| match record_field(&timings, name) {
        Some(Value::F64(v)) => *v,
        other => panic!("timings.{name}: {other:?} in {body}"),
    };
    assert!(ms("total_ms") > 0.0, "{body}");
    assert!(ms("estimate_ms") >= 0.0, "{body}");
    assert!(ms("queue_wait_ms") >= 0.0, "{body}");
    assert!(ms("estimate_ms") + ms("compile_ms") <= ms("total_ms"), "{body}");
    for stage in ["characterize_ms", "library_ms", "merge_ms", "serialize_ms"] {
        assert!(ms(stage) >= 0.0, "{body}");
    }
    // Without the debug flag the field is absent.
    let (_, plain) = request(&server, "GET", &format!("/v1/jobs/{id}"), "");
    assert!(!plain.contains("\"timings\""), "{plain}");
}

#[test]
fn request_ids_are_generated_and_client_ids_echoed() {
    let server = TestServer::start(1, 8);

    let (status, headers, _) = request_full(&server, "GET", "/healthz", "", "");
    assert_eq!(status, 200);
    let generated = header(&headers, "x-request-id").expect("generated id");
    assert!(generated.starts_with("req-"), "{generated}");

    let (status, headers, _) =
        request_full(&server, "GET", "/healthz", "X-Request-Id: my-trace-42\r\n", "");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id"), Some("my-trace-42"));

    // Oversized / non-printable client ids are replaced, not echoed.
    let long = "x".repeat(200);
    let (status, headers, _) =
        request_full(&server, "GET", "/healthz", &format!("X-Request-Id: {long}\r\n"), "");
    assert_eq!(status, 200);
    let replaced = header(&headers, "x-request-id").expect("replacement id");
    assert!(replaced.starts_with("req-"), "{replaced}");
}

/// Hostile `timeout_ms` values are structured 400s, never accepted
/// into the queue.
#[test]
fn timeout_ms_validation_rejects_zero_huge_and_non_integer() {
    let server = TestServer::start(1, 8);
    for bad in ["0", "3600001", "\"soon\"", "-5", "1.5"] {
        let body = format!(
            r#"{{"type": "sweep", "target": "s838", "vectors": 8, "coarse": true, "timeout_ms": {bad}}}"#
        );
        let (status, resp) = request(&server, "POST", "/v1/jobs", &body);
        assert_eq!(status, 400, "timeout_ms {bad} accepted: {resp}");
        assert!(assert_error(&resp, 400).contains("timeout_ms"), "{resp}");
    }
    // A sane value is still admitted.
    let body =
        r#"{"type": "sweep", "target": "s838", "vectors": 8, "coarse": true, "timeout_ms": 60000}"#;
    let (status, resp) = request(&server, "POST", "/v1/jobs", body);
    assert_eq!(status, 202, "{resp}");
}

/// A client that pipelines past the per-connection request bound gets
/// each buffered excess request answered with a structured 429 before
/// the close — not silently dropped.
#[test]
fn pipelined_requests_past_the_bound_are_shed_with_429() {
    let server = TestServer::start_cfg(ServeConfig {
        threads: 1,
        queue_capacity: 8,
        keep_alive_requests: 1,
        ..TestServer::base_config()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let read_stream = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(&read_stream);
    // Three requests land before the server answers the first.
    for _ in 0..3 {
        write_request(&mut stream, "GET", "/healthz", "");
    }
    let (status, connection, _) = read_one_response(&mut reader).expect("first response");
    assert_eq!(status, 200);
    assert_eq!(connection, "close", "the bound closes the connection");
    for i in 1..3 {
        let (status, _, body) =
            read_one_response(&mut reader).expect("excess request answered, not dropped");
        assert_eq!(status, 429, "excess request {i}: {body}");
        assert!(assert_error(&body, 429).contains("request limit"), "{body}");
    }
    assert!(read_one_response(&mut reader).is_none(), "closed after shedding the excess");
}
