//! `nanobench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash nanobench/run.sh --workload paper_suite|mc_s838|serve_mix \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path nanobench/Cargo.toml -- --print-spec
//! ```
//!
//! `run.sh` builds `nanoleak-cli` and this program from source and
//! runs one workload against the real binary: cold `nanoleak-cli …
//! --format json` processes, or a `nanoleak-cli serve` process on
//! loopback. Every compute call runs single-threaded, child processes
//! run one at a time and the HTTP client keeps one request in flight,
//! so the load fits a 2-vCPU host.
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! tracing off. In the CPU-bound workloads (`paper_suite`, `mc_s838`)
//! their times are wall times scaled to a reference host speed by a
//! probe taken around each timed unit, because the host's own speed
//! swings by more than any usable bound (see [`speed`]). With
//! `--trace 1` it measures the per-layer metrics from outside the
//! program, replaying the same calls in-process under the benchmark's
//! own spans (see [`ledger`]). Every input (flags, request
//! bodies, MC and pattern seeds) derives from `--seed`, every run uses
//! its own empty cache directories, and the answers are checked; a
//! failed check counts as a failed operation. The last stdout line is
//! the result; a fuller record (seed, commit, sample counts) goes to
//! `.nanobench/reports/`. `--print-spec` prints the metric lists of
//! `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

mod ctx;
mod http;
mod ledger;
mod mc_s838;
mod paper_suite;
mod procs;
mod prom;
mod report;
mod serve_mix;
mod spec;
mod speed;

const USAGE: &str = "usage: nanobench --cli PATH --workload paper_suite|mc_s838|serve_mix \
                     --seed N --seconds S --trace 0|1\n       nanobench --print-spec";

struct Opts {
    cli: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Opts {
    fn parse(argv: &[String]) -> Result<Opts, String> {
        let mut map = std::collections::BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} expects a value"))?;
            if !matches!(flag.as_str(), "--cli" | "--workload" | "--seed" | "--seconds" | "--trace")
            {
                return Err(format!("unknown argument {flag}"));
            }
            map.insert(flag.as_str(), value.as_str());
        }
        let get = |k: &str| map.get(k).copied().ok_or(format!("missing {k}"));
        let int = |k: &str| get(k)?.parse::<u64>().map_err(|_| format!("{k}: not a whole number"));
        let seconds = int("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        };
        Ok(Opts {
            cli: PathBuf::from(get("--cli")?),
            workload: get("--workload")?.to_string(),
            seed: int("--seed")?,
            seconds,
            trace,
        })
    }
}

/// Removes the run directory (and every cache in it) on exit.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The commit under test: `git rev-parse HEAD` of the checkout, else
/// `unknown` (a source export without git metadata).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-spec") {
        println!("{}", spec::render());
        return ExitCode::SUCCESS;
    }
    let opts = match Opts::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nanobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cli = match std::fs::canonicalize(&opts.cli) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("nanobench: {}: {e}", opts.cli.display());
            return ExitCode::FAILURE;
        }
    };
    let base = PathBuf::from(".nanobench");
    let dir = RunDir(base.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&dir.0) {
        eprintln!("nanobench: {}: {e}", dir.0.display());
        return ExitCode::FAILURE;
    }
    let ctx = ctx::Ctx { cli, seed: opts.seed, seconds: opts.seconds, dir: dir.0.clone() };
    let outcome = match (opts.workload.as_str(), opts.trace) {
        ("paper_suite", false) => paper_suite::run(&ctx),
        ("paper_suite", true) => paper_suite::traced(&ctx),
        ("mc_s838", false) => mc_s838::run(&ctx),
        ("mc_s838", true) => mc_s838::traced(&ctx),
        ("serve_mix", false) => serve_mix::run(&ctx),
        ("serve_mix", true) => serve_mix::traced(&ctx),
        (other, _) => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    drop(dir);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nanobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.note("workload", Value::Str(opts.workload.clone()));
    report.note("seed", Value::Int(i128::from(opts.seed)));
    report.note("seconds", Value::Int(i128::from(opts.seconds)));
    report.note("trace", Value::Bool(opts.trace));
    report.note("commit", Value::Str(commit()));
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note("available_parallelism", Value::Int(cpus as i128));
    let reports = base.join("reports");
    let path = reports.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&reports)
        .and_then(|()| std::fs::write(&path, report.detail_record()))
    {
        eprintln!("nanobench: {}: {e}", path.display());
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
