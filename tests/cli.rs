//! End-to-end tests of the `nanoleak-cli` binary: the `--format json`
//! machine interface, driven through a real process the way a harness
//! would, and its parity with the HTTP service's response bodies.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use nanoleak_serve::{ServeConfig, Server};
use serde::{json, Deserialize as _, Value};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nanoleak-cli"))
}

/// A tiny two-gate `.bench` circuit written to a temp file.
fn tiny_bench(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("nanoleak-cli-test-{tag}-{}.bench", std::process::id()));
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n")
        .expect("write bench");
    path
}

fn get<'v>(v: &'v Value, name: &str) -> &'v Value {
    let Value::Record(fields) = v else { panic!("expected object, got {v:?}") };
    &fields.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no '{name}' in {v:?}")).1
}

fn run_json(args: &[&str]) -> Value {
    run_json_and_stderr(args).0
}

/// [`run_json`], plus the run's stderr (progress and `[cache]` lines).
fn run_json_and_stderr(args: &[&str]) -> (Value, String) {
    let out = cli().args(args).output().expect("spawn nanoleak-cli");
    assert!(
        out.status.success(),
        "cli {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let value =
        json::value_from_str(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"));
    (value, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// `mlv --format json` emits the service's response type on stdout
/// (stderr carries the progress chatter), and the floats decode
/// bit-exactly across runs — the shortest-round-trip contract.
#[test]
fn mlv_json_output_parses_and_is_deterministic() {
    let bench = tiny_bench("mlv");
    let target = bench.to_str().unwrap();
    let args =
        ["mlv", target, "--strategy", "exhaustive", "--coarse", "--format", "json", "--no-cache"];
    let first = run_json(&args);
    assert_eq!(get(&first, "goal"), &Value::Str("min".into()));
    assert_eq!(get(&first, "strategy"), &Value::Str("exhaustive".into()));
    let objective = f64::from_value(get(&first, "objective_a")).expect("objective_a");
    assert!(objective > 0.0, "positive leakage, got {objective}");
    let Value::Str(vector) = get(&first, "vector") else { panic!("vector: {first:?}") };
    assert_eq!(vector.len(), 2, "two primary inputs");
    // The breakdown components sum to a total near the objective.
    let sum = ["sub_a", "gate_a", "btbt_a"]
        .iter()
        .map(|f| f64::from_value(get(&first, f)).unwrap())
        .sum::<f64>();
    assert!((sum - objective).abs() / objective < 1e-9, "{sum} vs {objective}");

    // A second run decodes to the same bits (only wall-clock differs).
    let second = run_json(&args);
    let again = f64::from_value(get(&second, "objective_a")).unwrap();
    assert_eq!(objective.to_bits(), again.to_bits(), "shortest-round-trip floats");
    let _ = std::fs::remove_file(&bench);
}

/// `mc --format json` carries the full distribution summary, and the
/// same seed reproduces it bit-exactly: the first run traces the
/// fast-MC nominal into a fresh cache directory, the second loads it.
#[test]
fn mc_json_output_carries_the_distribution_summary() {
    let bench = tiny_bench("mc");
    let target = bench.to_str().unwrap();
    let cache =
        std::env::temp_dir().join(format!("nanoleak-cli-test-mc-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let args = [
        "mc",
        target,
        "--samples",
        "3",
        "--seed",
        "9",
        "--sigma-vt",
        "0.05",
        "--coarse",
        "--format",
        "json",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let (first, cold) = run_json_and_stderr(&args);
    assert!(cold.contains("[cache] miss"), "the first run characterizes: {cold}");
    assert_eq!(get(&first, "samples"), &Value::Int(3));
    assert_eq!(get(&first, "seed"), &Value::Int(9));
    let sigmas = get(&first, "sigmas");
    assert_eq!(f64::from_value(get(sigmas, "vt_inter")).unwrap(), 0.05);
    let summary = get(&first, "summary");
    let loaded_mean = f64::from_value(get(get(get(summary, "loaded"), "total"), "mean")).unwrap();
    let unloaded_mean =
        f64::from_value(get(get(get(summary, "unloaded"), "total"), "mean")).unwrap();
    assert!(loaded_mean > 0.0 && unloaded_mean > 0.0);
    assert_ne!(loaded_mean, unloaded_mean, "loading must move the distribution");

    let (second, warm) = run_json_and_stderr(&args);
    assert!(warm.contains("[cache] hit"), "the second run loads the nominal: {warm}");
    let again_mean =
        f64::from_value(get(get(get(get(&second, "summary"), "loaded"), "total"), "mean")).unwrap();
    assert_eq!(loaded_mean.to_bits(), again_mean.to_bits(), "same seed, same bits");
    let _ = std::fs::remove_file(&bench);
    let _ = std::fs::remove_dir_all(&cache);
}

/// Strict flag rejection covers the new subcommand too.
#[test]
fn mc_rejects_unknown_flags_and_bad_values() {
    let bench = tiny_bench("mc-bad");
    let target = bench.to_str().unwrap();
    let out = cli().args(["mc", target, "--bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");

    let out = cli().args(["mc", target, "--samples", "0", "--coarse"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--samples"), "{stderr}");
    let _ = std::fs::remove_file(&bench);
}

/// `--vectors 0` is refused by the shared request resolver before any
/// characterization, so nothing lands in the cache directory.
#[test]
fn estimate_rejects_zero_vectors_before_characterizing() {
    let dir = std::env::temp_dir().join(format!("nanoleak-cli-test-v0-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args(["estimate", "s838", "--vectors", "0", "--coarse", "--format", "json"])
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error:") && first.contains("vectors"), "{stderr}");
    let stored = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(stored, 0, "no library may be characterized or stored");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-byte character straddling a `.bench` keyword's length is an
/// ordinary name, not a panic: a file whose only line is
/// `abcdé = NOT(a)` fails validation with exit 1 and an error line.
#[test]
fn multibyte_bench_names_are_errors_not_panics() {
    let path =
        std::env::temp_dir().join(format!("nanoleak-cli-test-utf8-{}.bench", std::process::id()));
    std::fs::write(&path, "abcdé = NOT(a)\n").expect("write bench");
    let out = cli()
        .args(["estimate", path.to_str().unwrap(), "--coarse", "--no-cache"])
        .output()
        .expect("spawn");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error:") && first.contains("never driven"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// One HTTP exchange with the in-process server; returns the status and
/// the JSON body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).and_then(|()| stream.write_all(body.as_bytes())).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status = raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let (_, text) = raw.split_once("\r\n\r\n").expect("header/body split");
    (status, json::value_from_str(text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}")))
}

/// Drops the wall-clock fields, the only ones allowed to differ.
fn untimed(v: Value) -> Value {
    let Value::Record(fields) = v else { panic!("expected object, got {v:?}") };
    let timing = ["elapsed_ms", "patterns_per_sec", "samples_per_sec"];
    Value::Record(fields.into_iter().filter(|(n, _)| !timing.contains(&n.as_str())).collect())
}

/// The CLI's `--format json` output is the HTTP response body for the
/// same request: estimate, sweep, mlv and optimize through their sync
/// endpoints, mc through a job's result.
#[test]
fn cli_json_equals_the_http_body() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        disk_cache: false,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let cases: [(&str, &[&str], &str); 5] = [
        ("estimate", &["--vectors", "8", "--seed", "3"], r#""vectors": 8, "seed": 3"#),
        (
            "sweep",
            &["--vectors", "40", "--shard-vectors", "16", "--vdd-scale", "0.9"],
            r#""vectors": 40, "shard_vectors": 16, "vdd_scale": 0.9"#,
        ),
        (
            "mlv",
            &["--goal", "max", "--restarts", "2", "--max-steps", "8"],
            r#""goal": "max", "restarts": 2, "max_steps": 8"#,
        ),
        (
            "optimize",
            &["--rounds", "1", "--restarts", "2", "--max-steps", "8", "--no-remap"],
            r#""rounds": 1, "restarts": 2, "max_steps": 8, "remap": false"#,
        ),
        (
            "mc",
            &["--samples", "2", "--vectors", "2", "--seed", "5"],
            r#""samples": 2, "vectors": 2, "seed": 5"#,
        ),
    ];
    for (kind, flags, fields) in cases {
        let mut args = vec![kind, "s838", "--coarse", "--no-cache", "--format", "json"];
        args.extend_from_slice(flags);
        let cli_json = untimed(run_json(&args));
        let http_json = if kind == "mc" {
            let job = format!(r#"{{"type": "mc", "target": "s838", "coarse": true, {fields}}}"#);
            let (status, submitted) = http(addr, "POST", "/v1/jobs", &job);
            assert_eq!(status, 202, "{submitted:?}");
            let Value::Int(id) = get(&submitted, "id").clone() else { panic!("{submitted:?}") };
            let deadline = Instant::now() + Duration::from_secs(300);
            loop {
                let (_, job) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
                if !matches!(get(&job, "status"), Value::Str(s) if s == "queued" || s == "running")
                {
                    break;
                }
                assert!(Instant::now() < deadline, "mc job never finished: {job:?}");
                std::thread::sleep(Duration::from_millis(50));
            }
            let (_, result) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
            get(&result, "result").clone()
        } else {
            let body = format!(r#"{{"target": "s838", "coarse": true, {fields}}}"#);
            let (status, response) = http(addr, "POST", &format!("/v1/{kind}"), &body);
            assert_eq!(status, 200, "{kind}: {response:?}");
            response
        };
        assert_eq!(cli_json, untimed(http_json), "{kind}: CLI and HTTP disagree");
    }
    shutdown.request();
    thread.join().expect("server thread").expect("server run");
}
