//! `nanoleak-cli` — leakage analysis of ISCAS89 `.bench` files, Yosys
//! gate-level JSON dumps (see [`nanoleak_netlist::yosys`]) and built-in
//! benchmarks with the loading-aware estimator. `nanoleak-cli --help`
//! lists every subcommand and the flags each one accepts.
//!
//! The analysis subcommands are a thin front-end over the service's
//! request layer, [`nanoleak_serve::api`]: one table
//! ([`REQUEST_FLAGS`]) translates flags into request-body fields
//! (`--vdd-scale 0.9` → `"vdd_scale": 0.9`, `--no-remap` →
//! `"remap": false`), the same `api::run_*` the HTTP router calls runs
//! the request, and the output is rendered from the response it
//! returns — `--format json` prints exactly the HTTP response body.
//! Defaults and validation live in `api` alone. The front-end
//! differences are the ones [`Body::local`] carries: the CLI reads
//! circuit files itself and skips the HTTP request limits.
//!
//! Invoking with a target as the first argument (no subcommand)
//! behaves like `estimate`, preserving the original CLI. Unknown
//! `--flags` are rejected with an error instead of being silently
//! ignored.
//!
//! The characterized cell library is cached on disk between runs
//! (`.nanoleak-cache/` or `$NANOLEAK_CACHE_DIR`); pass `--no-cache`
//! to force re-characterization. A cache directory that cannot be
//! written only warns. Every analysis subcommand gets the same cache.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nanoleak::prelude::*;
use nanoleak_engine::{McShard, SweepShard};
use nanoleak_netlist::RawCircuit;
use nanoleak_serve::api::{
    self, ApiError, Body, EstimateResponse, JobObserver, McResponse, MlvResponse, OptimizeResponse,
    SweepResponse,
};
use nanoleak_serve::{ServeConfig, Server};
use serde::{Deserialize, Serialize, Value};

const USAGE: &str = "\
usage: nanoleak-cli <command> <target> [options]
       nanoleak-cli <target> [estimate options]
       nanoleak-cli serve [serve options]

<target> is a circuit.bench file, a design.json Yosys gate-level dump, or a
built-in name: s838 s1196 s1423 s5378 s9234 s13207 alu88 mult88

commands and the options each accepts:
  estimate   mean leakage and loading impact over random vectors (default)
               [--vectors N] [--seed S] [--temp K] [--vdd-scale X] [--reference]
  sweep      parallel per-vector statistics over the input space
               [--vectors N] [--seed S] [--temp K] [--vdd-scale X] [--threads N]
               [--lanes 0|1|64] [--mode lut|noloading|direct] [--shard-vectors N]
  mlv        minimum/maximum-leakage input-vector search
               [--goal min|max] [--strategy exhaustive|random|hillclimb]
               [--samples N] [--restarts N] [--max-steps N] [--seed S]
               [--temp K] [--vdd-scale X] [--threads N] [--lanes 0|1|64]
  optimize   leakage-aware netlist rewriting (pin permutations and NAND/NOR
             remapping, scored at the extreme vector)
               [--rounds N] [--no-canonicalize] [--no-permute] [--no-remap]
               [--out FILE] and every mlv option
  mc         circuit-level Monte-Carlo leakage distribution under process
             variation (loaded vs unloaded)
               [--samples N] [--vectors N] [--sigma-vt V] [--sigma-vt-intra V]
               [--seed S] [--temp K] [--vdd-scale X] [--threads N]
               [--lanes 0|1|64] [--shard-samples N] [--exact]
  serve      long-lived HTTP/JSON analysis service (no circuit argument)
               [--addr HOST:PORT] [--threads N] [--queue N] [--keep-alive N]
               [--job-cap N] [--default-job-timeout-ms N] [--faults SPEC]
               [--log-level L] [--no-cache] [--cache-dir DIR]
  every command but serve also accepts
               [--format text|json] [--coarse] [--no-cache] [--cache-dir DIR]
               [--circuit-format auto|bench|yosys]

common options:
  --vectors N     random vectors (estimate/sweep; patterns per MC sample for
                  mc; default 100, mc default 1)
  --seed S        RNG seed (default 2005)
  --temp K        temperature in kelvin (default 300)
  --vdd-scale X   supply-scale factor on the nominal Vdd (default 1.0)
  --threads N     worker threads (default: all cores)
  --lanes N       patterns per evaluation word: 64 packs patterns 64-wide
                  through the block kernel, 1 runs 1-pattern blocks on the
                  per-lane kernel, 0 picks automatically: sweeps and MC
                  dies run loaded (lut) patterns per lane until their
                  circuit's plan has run 448 that way, then packed on
                  response tables sized to that work (default 0;
                  results are bit-identical either way)
  --format F      output format: text (default) or json, the response body
                  the HTTP service returns for the same request
  --coarse        characterize on the coarse 4-point test grid (fast,
                  lower LUT resolution)
  --no-cache      re-characterize instead of using the on-disk cache
  --cache-dir D   cache directory (default .nanoleak-cache or $NANOLEAK_CACHE_DIR)
  --circuit-format F  auto (default) | bench | yosys; auto picks by
                  extension (.bench, .json = Yosys gate-level JSON dump)
                  and falls back to the built-in generator names

estimate options:
  --reference     also run the full transistor-level reference solve (text
                  output only)

sweep options:
  --mode M            estimator: lut (default; the paper's loading-aware
                      lookup tables), noloading (loading ignored), or direct
                      (per-gate transistor-level re-solve; slow)
  --shard-vectors N   stream the sweep in shards of N vectors (progress per
                      shard on stderr; merged stats are bit-identical to a
                      monolithic run; default 0 = one shard)

mlv options:
  --goal min|max                       search direction (default min)
  --strategy exhaustive|random|hillclimb   (default hillclimb)
  --samples N     random-strategy samples (default 1024)
  --restarts N    hill-climb restarts (default 8)
  --max-steps N   hill-climb accepted-move limit (default 64)

optimize options (plus all mlv options, which steer the scoring vector):
  --rounds N          optimization-round bound (default 4; each round is a
                      pin-permutation pass, a remap pass, and a vector
                      re-search — the loop stops early on convergence)
  --no-canonicalize   skip the double-inverter / dead-gate pre-pass
  --no-permute        skip the commutative pin-permutation pass
  --no-remap          skip the NAND(!x,!y) <-> INV(NOR(x,y)) remap pass
  --out FILE          also write the optimized netlist as structured JSON

mc options:
  --samples N         Monte-Carlo samples / perturbed dies (default 200)
  --sigma-vt V        inter-die threshold-voltage sigma in volts, the
                      paper's Fig. 11 sweep variable (default 0.030)
  --sigma-vt-intra V  intra-die threshold sigma in volts (default 0.030)
  --shard-samples N   stream the run in shards of N samples (progress per
                      shard on stderr; merged summary is bit-identical to
                      a monolithic run; default 0 = one shard)
  --exact             characterize every die from scratch (bit-exact
                      reference path). Default off: dies derive from the
                      nominal library's recorded sensitivities, traced
                      once per cache directory (~1 s) and stored beside
                      its .nlc, so later runs load them (~1 ms; with
                      --no-cache, once per run). On coarse s838, 64
                      vectors per die, one thread, fast mode runs at
                      0.05x, 0.75x and 2.2x exact's speed at 1, 16 and
                      64 dies on a cold cache directory, and 0.9x, 3.2x
                      and 6.6x on a warm one (break-even near 5 dies).
                      The summary's max/mean deviation from exact is
                      measured on the first four dies, re-solved, so
                      runs of up to four dies pay for them twice.
                      Exact mode neither reads nor writes the cache

serve options:
  --addr A        bind address (default 127.0.0.1:8425)
  --queue N       bound on queued jobs (default 64)
  --keep-alive N  max requests per keep-alive connection (0 = one request
                  per connection; default 1000)
  --job-cap N     finished jobs retained before oldest-first eviction
                  (default 512)
  --default-job-timeout-ms N  deadline applied to jobs whose request
                  carries no timeout_ms field (default: none); expired
                  jobs fail with error deadline_exceeded at the next
                  shard boundary, keeping completed shards
  --faults SPEC   arm fault-injection failpoints for chaos drills,
                  e.g. cache-io=error:disk gone*2;slow-shard=sleep:500
                  ($NANOLEAK_FAULTS applies when the flag is absent)
  --log-level L   off|error|warn|info|debug|trace — JSON-lines log
                  verbosity on stderr (default info; NANOLEAK_LOG
                  applies when the flag is absent)";

/// How a request flag's argument becomes a request-body value.
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// `--flag N`: a non-negative integer.
    Int,
    /// `--flag X`: a float.
    Float,
    /// `--flag WORD`: a string the `api` resolver parses.
    Word,
    /// Bare `--flag`: the boolean field is set to this value.
    Switch(bool),
}

/// Every flag that sets a request-body field: the flag, the field, how
/// the argument is read, and the subcommands that accept it.
const REQUEST_FLAGS: &[(&str, &str, Arg, &str)] = &[
    ("--vectors", "vectors", Arg::Int, "estimate sweep mc"),
    ("--seed", "seed", Arg::Int, "estimate sweep mlv optimize mc"),
    ("--temp", "temp", Arg::Float, "estimate sweep mlv optimize mc"),
    ("--vdd-scale", "vdd_scale", Arg::Float, "estimate sweep mlv optimize mc"),
    ("--coarse", "coarse", Arg::Switch(true), "estimate sweep mlv optimize mc"),
    ("--threads", "threads", Arg::Int, "sweep mlv optimize mc"),
    ("--lanes", "lanes", Arg::Int, "sweep mlv optimize mc"),
    ("--mode", "mode", Arg::Word, "sweep"),
    ("--shard-vectors", "shard_vectors", Arg::Int, "sweep"),
    ("--goal", "goal", Arg::Word, "mlv optimize"),
    ("--strategy", "strategy", Arg::Word, "mlv optimize"),
    ("--samples", "samples", Arg::Int, "mlv optimize mc"),
    ("--restarts", "restarts", Arg::Int, "mlv optimize"),
    ("--max-steps", "max_steps", Arg::Int, "mlv optimize"),
    ("--rounds", "rounds", Arg::Int, "optimize"),
    ("--no-canonicalize", "canonicalize", Arg::Switch(false), "optimize"),
    ("--no-permute", "permute", Arg::Switch(false), "optimize"),
    ("--no-remap", "remap", Arg::Switch(false), "optimize"),
    ("--sigma-vt", "sigma_vt", Arg::Float, "mc"),
    ("--sigma-vt-intra", "sigma_vt_intra", Arg::Float, "mc"),
    ("--shard-samples", "shard_samples", Arg::Int, "mc"),
    ("--exact", "exact", Arg::Switch(true), "mc"),
];

/// Strict argument list: every flag must be consumed by the active
/// subcommand or parsing fails.
struct Args {
    items: Vec<String>,
    used: Vec<bool>,
}

impl Args {
    fn new(items: Vec<String>) -> Self {
        let used = vec![false; items.len()];
        Self { items, used }
    }

    /// Consumes a boolean `--flag`; `true` if present.
    fn take_flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                found = true;
            }
        }
        found
    }

    /// Consumes `--name value`; errors if the value is missing.
    fn take_value(&mut self, name: &str) -> Result<Option<String>, String> {
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                let Some(value) = self.items.get(i + 1) else {
                    return Err(format!("{name} expects a value"));
                };
                if self.used[i + 1] || value.starts_with("--") {
                    return Err(format!("{name} expects a value, got '{value}'"));
                }
                self.used[i + 1] = true;
                return Ok(Some(value.clone()));
            }
        }
        Ok(None)
    }

    /// Consumes `--name value` parsed as `T`, if present.
    fn take_opt<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.take_value(name)?
            .map(|raw| raw.parse().map_err(|_| format!("{name}: cannot parse '{raw}'")))
            .transpose()
    }

    /// Consumes `--name value` parsed as `T`, with a default.
    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.take_opt(name)?.unwrap_or(default))
    }

    /// Consumes the leading positional argument. Only the *first*
    /// item qualifies: a later non-flag token is some flag's value,
    /// and binding it as a positional would mis-parse
    /// `sweep --vectors 10 s1196` (the target must come first).
    fn take_positional(&mut self) -> Option<String> {
        if !self.items.is_empty() && !self.used[0] && !self.items[0].starts_with("--") {
            self.used[0] = true;
            return Some(self.items[0].clone());
        }
        None
    }

    /// Fails if anything was left unconsumed (unknown flags or stray
    /// positionals).
    fn finish(self) -> Result<(), String> {
        let leftover: Vec<&str> = self
            .items
            .iter()
            .zip(&self.used)
            .filter(|(_, &used)| !used)
            .map(|(item, _)| item.as_str())
            .collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("unknown argument(s): {}", leftover.join(" ")))
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    // Subcommand dispatch with backwards compatibility: a first
    // argument that is not a known command is an `estimate` target.
    let command = match raw[0].as_str() {
        "estimate" | "sweep" | "mlv" | "optimize" | "mc" | "serve" => raw.remove(0),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => "estimate".to_string(),
    };

    let mut args = Args::new(raw);
    let result = if command == "serve" {
        // `serve` is the one command without a circuit argument.
        cmd_serve(args)
    } else {
        match args.take_positional() {
            Some(target) => analyze(&command, &target, args),
            None => Err("missing circuit target (the target must come before options)".into()),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}

/// Translates `command`'s flags into request-body fields.
fn request_fields(command: &str, args: &mut Args) -> Result<Vec<(String, Value)>, String> {
    let mut fields = Vec::new();
    for &(flag, field, arg, commands) in REQUEST_FLAGS {
        if !commands.split(' ').any(|c| c == command) {
            continue;
        }
        let value = match arg {
            Arg::Int => args.take_opt::<u64>(flag)?.map(|n| Value::Int(n.into())),
            Arg::Float => args.take_opt(flag)?.map(Value::F64),
            Arg::Word => args.take_value(flag)?.map(Value::Str),
            Arg::Switch(on) => args.take_flag(flag).then_some(Value::Bool(on)),
        };
        fields.extend(value.map(|v| (field.to_string(), v)));
    }
    Ok(fields)
}

/// An `api` error in the CLI's terms: the quoted request fields it
/// names become the flags that set them (`'vectors'` → `--vectors`).
fn cli_error(e: ApiError) -> String {
    REQUEST_FLAGS
        .iter()
        .fold(e.message, |msg, (flag, field, ..)| msg.replace(&format!("'{field}'"), flag))
}

/// Resolves a `.bench` path, Yosys JSON dump, or built-in generator
/// name (`--circuit-format auto|bench|yosys`; auto goes by extension)
/// to a circuit.
fn load_circuit(target: &str, format: Option<String>) -> Result<Circuit, String> {
    let read = || -> Result<String, String> {
        std::fs::read_to_string(target).map_err(|e| format!("cannot read '{target}': {e}"))
    };
    let bench = |text: &str| -> Result<RawCircuit, String> {
        let name = target.trim_end_matches(".bench").to_string();
        parse_bench(&name, text).map_err(|e| format!("{target}: {e}"))
    };
    // The empty name lets the importer keep the JSON module's name.
    let yosys = |text: &str| parse_yosys_json("", text).map_err(|e| format!("{target}: {e}"));
    let raw = match format.as_deref() {
        Some("bench") => bench(&read()?)?,
        Some("yosys") => yosys(&read()?)?,
        None | Some("auto") if target.ends_with(".bench") => bench(&read()?)?,
        None | Some("auto") if target.ends_with(".json") => yosys(&read()?)?,
        None | Some("auto") => {
            api::builtin_circuit(target).ok_or_else(|| format!("unknown circuit '{target}'"))?
        }
        Some(other) => {
            return Err(format!("--circuit-format: expected auto|bench|yosys, got '{other}'"))
        }
    };
    normalize(&raw).map_err(|e| format!("normalization failed: {e}"))
}

/// What the CLI shows of a running request: how its library was
/// obtained (stdout in text mode, stderr under `--format json`) and
/// shard/round progress (stderr). It keeps the library for the text
/// views that need it.
struct Progress {
    json: bool,
    disk: Option<PathBuf>,
    lib: OnceLock<Arc<CellLibrary>>,
}

/// An optimization round as `api::round_to_value` reports it.
#[derive(Deserialize)]
struct Round {
    round: usize,
    rounds_total: usize,
    objective_a: f64,
    accepted_permutations: usize,
    accepted_remaps: usize,
}

impl JobObserver for Progress {
    fn library(&self, lib: &Arc<CellLibrary>, outcome: CacheOutcome, elapsed: Duration) {
        let (name, temp, s) = (&lib.tech.name, lib.temp, elapsed.as_secs_f64());
        let line = match (&self.disk, outcome) {
            (None, _) => format!("characterized {name} @ {temp} K in {s:.2} s (disk cache off)"),
            (Some(dir), CacheOutcome::Hit) => format!(
                "[cache] hit: loaded {name} @ {temp} K from {} in {:.1} ms",
                dir.display(),
                s * 1e3
            ),
            (Some(_), CacheOutcome::Invalidated) => {
                format!(
                    "[cache] stale entry replaced: re-characterized {name} @ {temp} K in {s:.2} s"
                )
            }
            (Some(dir), _) => format!(
                "[cache] miss: characterized {name} @ {temp} K in {s:.2} s (stored in {})",
                dir.display()
            ),
        };
        if self.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
        let _ = self.lib.set(Arc::clone(lib));
    }

    fn unit(&self, _index: usize, partial: Value) {
        if let Ok(s) = SweepShard::from_value(&partial) {
            if s.shards_total > 1 {
                eprintln!(
                    "[sweep] shard {}/{}: {} vectors done (mean {:.4} uA)",
                    s.shard + 1,
                    s.shards_total,
                    s.start + s.vectors,
                    s.stats.total.mean * 1e6
                );
            }
        } else if let Ok(s) = McShard::from_value(&partial) {
            if s.shards_total > 1 {
                eprintln!(
                    "[mc] shard {}/{}: {} samples done (loaded mean {:.4} uA)",
                    s.shard + 1,
                    s.shards_total,
                    s.start + s.samples,
                    s.summary.loaded.total.mean * 1e6
                );
            }
        } else if let Ok(r) = Round::from_value(&partial) {
            eprintln!(
                "[optimize] round {}/{}: objective {:.4} uA ({} permutation(s), {} remap(s))",
                r.round,
                r.rounds_total,
                r.objective_a * 1e6,
                r.accepted_permutations,
                r.accepted_remaps
            );
        }
    }
}

/// Runs one request through the disk cache (`None` = RAM only),
/// reporting progress, and returns the response plus the library it
/// ran on. Unlike the server, which answers a failed cache write with
/// a 500, the CLI warns and answers from RAM.
fn run<T>(
    json: bool,
    disk: Option<LibraryCache>,
    request: impl Fn(&MemoLibraryCache, &Progress) -> Result<T, ApiError>,
) -> Result<(T, Option<Arc<CellLibrary>>), String> {
    let attempt = |disk: Option<LibraryCache>| {
        let progress =
            Progress { json, disk: disk.as_ref().map(|d| d.dir().into()), lib: OnceLock::new() };
        let memo = disk.map_or_else(MemoLibraryCache::memory_only, MemoLibraryCache::over);
        request(&memo, &progress).map(|r| (r, progress.lib.into_inner()))
    };
    match attempt(disk.clone()) {
        Err(e) if e.status == 500 && disk.is_some() => {
            eprintln!("warning: {}; continuing without the disk cache", e.message);
            attempt(None)
        }
        result => result,
    }
    .map_err(cli_error)
}

/// Prints a response: the HTTP body under `--format json`, else `text`.
fn emit<T: Serialize>(json: bool, response: &T, text: impl FnOnce(&T)) {
    if json {
        println!("{}", serde::json::to_string_pretty(response));
    } else {
        text(response);
    }
}

/// Runs one analysis subcommand: flags → request body → `api::run_*`
/// → rendered response.
fn analyze(command: &str, target: &str, mut args: Args) -> Result<(), String> {
    let fields = request_fields(command, &mut args)?;
    let json = match args.take_value("--format")?.as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(format!("--format: expected text|json, got '{other}'")),
    };
    let reference = command == "estimate" && args.take_flag("--reference");
    let out = if command == "optimize" { args.take_value("--out")? } else { None };
    let no_cache = args.take_flag("--no-cache");
    let cache_dir = args.take_value("--cache-dir")?;
    let circuit_format = args.take_value("--circuit-format")?;
    args.finish()?;
    if reference && json {
        // Refusing beats silently dropping the reference solve from
        // the JSON report.
        return Err("--reference is not supported with --format json".to_string());
    }

    let circuit = load_circuit(target, circuit_format)?;
    if !json {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let body = Body::local(fields, target.to_string(), circuit);
    let disk = (!no_cache)
        .then(|| cache_dir.map_or_else(LibraryCache::default_location, LibraryCache::new));
    match command {
        "estimate" => {
            let (r, lib) = run(json, disk, |cache, p| api::run_estimate(cache, &body, p))?;
            emit(json, &r, print_estimate);
            if reference {
                print_reference(&body, &r, &lib.expect("estimate reports its library"))?;
            }
        }
        "sweep" => {
            let (r, _) = run(json, disk, |cache, p| api::run_sweep_streaming(cache, &body, p))?;
            emit(json, &r, print_sweep);
        }
        "mlv" => {
            let (r, lib) = run(json, disk, |cache, p| api::run_mlv(cache, &body, p))?;
            let vdd = lib.expect("mlv reports its library").tech.vdd;
            emit(json, &r, |r| print_mlv(r, vdd));
        }
        "optimize" => {
            let (r, _) = run(json, disk, |cache, p| api::run_optimize_with(cache, &body, p))?;
            if let Some(path) = &out {
                let netlist = serde::json::value_to_string(&r.netlist);
                std::fs::write(path, netlist).map_err(|e| format!("cannot write '{path}': {e}"))?;
                eprintln!("[optimize] wrote optimized netlist to {path}");
            }
            emit(json, &r, print_optimize);
        }
        "mc" => {
            let (r, _) = run(json, disk, |cache, p| api::run_mc(cache, &body, p))?;
            emit(json, &r, print_mc);
        }
        _ => unreachable!("dispatch covers all commands"),
    }
    Ok(())
}

fn print_estimate(r: &EstimateResponse) {
    let avg = &r.loading_impact_avg_components;
    println!("\nleakage over {} random vectors (mean):", r.vectors);
    println!("  without loading : {:10.3} uA", r.mean_no_loading_a * 1e6);
    println!("  with loading    : {:10.3} uA", r.mean_total_a * 1e6);
    println!("  leakage power   : {:10.3} uW (with loading)", r.mean_power_w * 1e6);
    println!("\nloading impact (avg over vectors):");
    println!("  subthreshold    : {:+7.2} %", avg.sub * 100.0);
    println!("  gate tunneling  : {:+7.2} %", avg.gate * 100.0);
    println!("  junction BTBT   : {:+7.2} %", avg.btbt * 100.0);
    println!("  total           : {:+7.2} %", r.loading_impact_avg * 100.0);
    println!("loading impact (max over vectors): {:+7.2} %", r.loading_impact_max * 100.0);
}

/// `estimate --reference`: the full transistor-level solve of the run's
/// first (at most five) vectors, against the estimator's answer. A
/// failed reference is the command's error, so the CLI exits non-zero.
fn print_reference(body: &Body, r: &EstimateResponse, lib: &CellLibrary) -> Result<(), String> {
    let (_, circuit) = api::resolve_circuit(body).map_err(cli_error)?;
    let n = r.vectors.min(5);
    println!("\nrunning full reference solve on {n} vectors (slow) ...");
    let patterns = api::estimate_patterns(&circuit, r.seed, n);
    let loaded = estimate_batch(&circuit, lib, &patterns, EstimatorMode::Lut)
        .map_err(|e| format!("estimation failed: {e}"))?;
    let opts = ReferenceOptions::default();
    let refs = nanoleak_core::reference_batch(&circuit, &lib.tech, lib.temp, &patterns, &opts)
        .map_err(|e| format!("reference failed: {e}"))?;
    let accs: Vec<_> = loaded.iter().zip(&refs).map(|(e, r)| accuracy(e, &r.leakage)).collect();
    let mean_err = accs.iter().map(|a| a.total_rel_err.abs()).sum::<f64>() / accs.len() as f64;
    println!(
        "  reference mean  : {:10.3} uA",
        refs.iter().map(|r| r.leakage.total.total()).sum::<f64>() / n as f64 * 1e6
    );
    println!("  estimator error : {:7.2} % (mean |total|)", mean_err * 100.0);
    Ok(())
}

fn print_sweep(r: &SweepResponse) {
    let (s, ua) = (&r.stats, 1e6);
    let row = |name: &str, st: &Stats| {
        println!(
            "  {name:<6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            st.mean * ua,
            st.std * ua,
            st.min * ua,
            st.p50 * ua,
            st.p90 * ua,
            st.p99 * ua,
            st.max * ua,
        );
    };
    println!("\nper-vector leakage statistics over {} vectors [uA]:", s.vectors);
    println!(
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "mean", "std", "min", "p50", "p90", "p99", "max"
    );
    row("total", &s.total);
    row("sub", &s.sub);
    row("gate", &s.gate);
    row("btbt", &s.btbt);
    println!(
        "\n  min vector : #{:<6} {} ({:.4} uA)",
        s.min.index,
        r.min_vector,
        s.min.leakage.total() * ua
    );
    println!(
        "  max vector : #{:<6} {} ({:.4} uA)",
        s.max.index,
        r.max_vector,
        s.max.leakage.total() * ua
    );
    println!(
        "\n  {} vectors on {} thread(s) in {:.3} s — {:.0} patterns/sec",
        s.vectors,
        r.threads,
        r.elapsed_ms / 1e3,
        r.patterns_per_sec
    );
}

fn print_mlv(r: &MlvResponse, vdd: f64) {
    // "min" / "max" + "imum".
    println!("\n{}imum-leakage vector ({} strategy):", r.goal, r.strategy);
    println!("  vector   : {}", r.vector);
    println!("  leakage  : {:.4} uA total", r.objective_a * 1e6);
    println!(
        "  breakdown: sub {:.4} / gate {:.4} / btbt {:.4} uA",
        r.sub_a * 1e6,
        r.gate_a * 1e6,
        r.btbt_a * 1e6
    );
    println!("  power    : {:.4} uW at {:.2} V", r.objective_a * vdd * 1e6, vdd);
    println!(
        "\n  {} evaluations, {} improving moves, {} restart(s) in {:.3} s",
        r.evaluations,
        r.improving_moves,
        r.restarts,
        r.elapsed_ms / 1e3
    );
}

fn print_optimize(r: &OptimizeResponse) {
    let ua = 1e6;
    println!("\nleakage optimization at the {}imum-leakage vector:", r.goal);
    if r.canonicalized {
        // The pre-pass keeps every gate it does not report removed.
        println!(
            "  canonical : {} -> {} gates ({} inverter pair(s), {} dead gate(s) removed)",
            r.gates_before,
            r.gates_before - r.inverter_pairs_removed - r.dead_gates_removed,
            r.inverter_pairs_removed,
            r.dead_gates_removed
        );
    }
    println!("  baseline  : {:.4} uA at {}", r.baseline_a * ua, r.baseline_vector);
    println!(
        "  improved  : {:.4} uA at {} ({:+.2} %)",
        r.improved_a * ua,
        r.improved_vector,
        -r.improvement_percent
    );
    println!(
        "  rewrites  : {} pin permutation(s), {} NAND/NOR remap(s) over {} round(s)",
        r.accepted_permutations, r.accepted_remaps, r.rounds_run
    );
    println!("  gates     : {} -> {}", r.gates_before, r.gates_after);
    if r.reverted {
        println!("  (no rewrite survived the objective guard; input returned unchanged)");
    }
    println!("\n  {} estimator evaluations in {:.3} s", r.evaluations, r.elapsed_ms / 1e3);
}

fn print_mc(r: &McResponse) {
    let (summary, ua) = (&r.summary, 1e6);
    println!(
        "\nleakage distribution over {} perturbed dies \
         (sigma_vt {:.0} mV inter / {:.0} mV intra, {} vector(s)/sample) [uA]:",
        r.samples,
        r.sigmas.vt_inter * 1e3,
        r.sigmas.vt_intra * 1e3,
        r.vectors
    );
    println!(
        "  {:<6} {:>12} {:>12} {:>12} {:>12}",
        "", "mean(load)", "mean(no)", "std(load)", "std(no)"
    );
    let row = |name: &str, l: &Stats, u: &Stats| {
        println!(
            "  {name:<6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            l.mean * ua,
            u.mean * ua,
            l.std * ua,
            u.std * ua
        );
    };
    row("total", &summary.loaded.total, &summary.unloaded.total);
    row("sub", &summary.loaded.sub, &summary.unloaded.sub);
    row("gate", &summary.loaded.gate, &summary.unloaded.gate);
    row("btbt", &summary.loaded.btbt, &summary.unloaded.btbt);
    println!(
        "\n  loading shifts the total-leakage mean by {:+.2}% and the spread by {:+.2}%",
        summary.mean_shift * 100.0,
        summary.std_shift * 100.0
    );
    println!(
        "\n  {} samples in {:.3} s — {:.1} samples/sec{}",
        r.samples,
        r.elapsed_ms / 1e3,
        r.samples_per_sec,
        if r.exact { " (exact per-die characterization)" } else { "" }
    );
    if let Some(fast) = &summary.fast {
        println!(
            "  fast path: {}/{} dies derived from nominal sensitivities \
             ({} entry fallback(s), max error estimate {:.4})",
            fast.diag.dies_derived,
            fast.diag.dies_derived + fast.diag.dies_full,
            fast.diag.entries_fallback,
            fast.diag.max_error_estimate
        );
        println!(
            "  deviation vs exact over {} probed sample(s): max {:.4}% mean {:.4}% \
             (tolerance {:.2}; use --exact for the bit-exact path)",
            fast.probed,
            fast.max_deviation * 100.0,
            fast.mean_deviation * 100.0,
            fast.tol
        );
    }
}

fn cmd_serve(mut args: Args) -> Result<(), String> {
    let defaults = ServeConfig::default();
    let addr = args.take_value("--addr")?.unwrap_or(defaults.addr);
    let threads = args.take_parsed("--threads", defaults.threads)?;
    let queue_capacity = args.take_parsed("--queue", defaults.queue_capacity)?;
    let keep_alive_requests = args.take_parsed("--keep-alive", defaults.keep_alive_requests)?;
    let finished_jobs_cap = args.take_parsed("--job-cap", defaults.finished_jobs_cap)?;
    // `--default-job-timeout-ms 0` means no deadline, like the default.
    let default_job_timeout = match args.take_opt::<u64>("--default-job-timeout-ms")? {
        Some(ms) => (ms > 0).then(|| Duration::from_millis(ms)),
        None => defaults.default_job_timeout,
    };
    // `--faults` wins over $NANOLEAK_FAULTS; either arms the global
    // failpoint registry before any worker starts.
    let armed_faults = match args.take_value("--faults")? {
        Some(spec) => nanoleak_fault::arm_from_spec(&spec).map_err(|e| format!("--faults: {e}"))?,
        None => nanoleak_fault::arm_from_env()
            .map_err(|e| format!("{}: {e}", nanoleak_fault::ENV_VAR))?,
    };
    // `--log-level` wins; otherwise NANOLEAK_LOG applies (read lazily
    // by nanoleak-obs); otherwise a long-lived service defaults to
    // info so operators see startup and job lines.
    match args.take_value("--log-level")? {
        Some(raw) => {
            let level = nanoleak_obs::Level::parse(&raw)
                .ok_or_else(|| format!("--log-level: unknown level '{raw}'"))?;
            nanoleak_obs::set_level(level);
        }
        None => {
            if std::env::var_os("NANOLEAK_LOG").is_none() {
                nanoleak_obs::set_level(nanoleak_obs::Level::Info);
            }
        }
    }
    if queue_capacity == 0 {
        return Err("--queue must be at least 1".to_string());
    }
    if finished_jobs_cap == 0 {
        return Err("--job-cap must be at least 1".to_string());
    }
    let disk_cache = defaults.disk_cache && !args.take_flag("--no-cache");
    let cache_dir = args.take_value("--cache-dir")?.map(PathBuf::from).or(defaults.cache_dir);
    args.finish()?;

    let config = ServeConfig {
        addr,
        threads,
        queue_capacity,
        cache_dir,
        disk_cache,
        keep_alive_requests,
        finished_jobs_cap,
        default_job_timeout,
        ..defaults
    };
    if armed_faults > 0 {
        nanoleak_obs::warn!(
            "serve",
            "fault injection armed: {} failpoint(s) — chaos drill, not a production posture",
            armed_faults
        );
    }
    nanoleak_serve::install_signal_handlers();
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let stats = server.state().stats();
    // The listening line stays on stdout so scripts can capture the
    // resolved port; everything else is structured stderr logging.
    println!("nanoleak-serve listening on http://{addr}");
    nanoleak_obs::info!(
        "serve",
        "listening on http://{}: {} worker(s), queue capacity {}, disk cache {}, \
         keep-alive {} req/conn, {} finished jobs retained",
        addr,
        stats.workers,
        stats.queue.capacity,
        if config.disk_cache { "on" } else { "off" },
        config.keep_alive_requests,
        config.finished_jobs_cap
    );
    nanoleak_obs::info!(
        "serve",
        "endpoints: /healthz /metrics /v1/stats /v1/estimate /v1/sweep /v1/mlv /v1/optimize \
         /v1/jobs; \
         ctrl-c or SIGTERM drains queued jobs and exits"
    );
    server.run().map_err(|e| format!("server failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut a = args(&["--vectors", "10", "--bogus", "--seed", "1"]);
        let _ = a.take_parsed::<usize>("--vectors", 100).unwrap();
        let _ = a.take_parsed::<u64>("--seed", 2005).unwrap();
        let err = a.finish().unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn stray_positionals_are_rejected() {
        let mut a = args(&["s1196", "extra"]);
        assert_eq!(a.take_positional().as_deref(), Some("s1196"));
        let err = a.finish().unwrap_err();
        assert!(err.contains("extra"));
    }

    #[test]
    fn missing_values_are_rejected() {
        let mut a = args(&["--vectors"]);
        let err = a.take_value("--vectors").unwrap_err();
        assert!(err.contains("expects a value"));
        let mut a = args(&["--vectors", "--seed", "3"]);
        let err = a.take_value("--vectors").unwrap_err();
        assert!(err.contains("expects a value"));
    }

    #[test]
    fn values_and_flags_parse() {
        let mut a = args(&["--threads", "8", "--no-cache", "--temp", "350"]);
        assert_eq!(a.take_parsed::<usize>("--threads", 0).unwrap(), 8);
        assert!(a.take_flag("--no-cache"));
        assert!(!a.take_flag("--reference"));
        assert_eq!(a.take_parsed::<f64>("--temp", 300.0).unwrap(), 350.0);
        a.finish().unwrap();
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let mut a = args(&["--vectors", "many"]);
        let err = a.take_parsed::<usize>("--vectors", 100).unwrap_err();
        assert!(err.contains("--vectors") && err.contains("many"));
    }

    #[test]
    fn flags_translate_into_request_fields() {
        let mut a = args(&["--vdd-scale", "0.9", "--no-remap", "--goal", "max", "--rounds", "2"]);
        let fields = request_fields("optimize", &mut a).unwrap();
        a.finish().unwrap();
        assert_eq!(
            fields,
            [
                ("vdd_scale".to_string(), Value::F64(0.9)),
                ("goal".to_string(), Value::Str("max".into())),
                ("rounds".to_string(), Value::Int(2)),
                ("remap".to_string(), Value::Bool(false)),
            ]
        );
        // Each subcommand takes only its own flags.
        let mut a = args(&["--threads", "2"]);
        assert!(request_fields("estimate", &mut a).unwrap().is_empty());
        assert!(a.finish().unwrap_err().contains("--threads"));
    }

    #[test]
    fn api_errors_name_the_flags() {
        let e = ApiError::bad("'samples' and 'vectors' must be at least 1");
        assert_eq!(cli_error(e), "--samples and --vectors must be at least 1");
    }
}
