//! Request/response schemas of the JSON API, plus the handlers that
//! run the engine — the one request path behind both front-ends.
//!
//! Requests are read from the mini-serde [`Value`] tree by hand, and
//! every field is optional: the defaults and validation rules defined
//! here are the only ones, so a client can POST `{"target": "s1196"}`
//! and nothing more, and `nanoleak-cli` translates its flags into the
//! same fields ([`Body::local`]). Responses are built from
//! `#[derive(Serialize)]` DTOs and encoded with the JSON text codec —
//! floats round-trip bit-exactly, which is what makes the service's
//! sweep results comparable `==` against an in-process
//! [`sweep`](fn@sweep) call and the CLI's `--format json` output
//! equal to the HTTP body.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions, OperatingPoint};
use nanoleak_core::exec::{par_map, resolve_threads};
use nanoleak_core::{estimate_batch, CircuitLeakage, EstimatorMode, LoadingImpact};
use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_engine::{
    mc_streaming_mode, mlv_search, shard_count, sweep, sweep_streaming, CacheOutcome, EngineError,
    McMode, McShard, MemoLibraryCache, MlvConfig, MlvGoal, MlvStrategy, SweepConfig, SweepShard,
    SweepStats,
};
use nanoleak_netlist::bench_format::parse_bench;
use nanoleak_netlist::generate::{alu, iscas_like, multiplier};
use nanoleak_netlist::normalize::normalize;
use nanoleak_netlist::{Circuit, NetId, Pattern, RawCircuit};
use nanoleak_opt::{optimize_with, OptimizeConfig, RoundProgress};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, McSummary, VariationSigmas};
use rand::SeedableRng;
use serde::{json, Deserialize, Serialize, Value};

/// An API-level failure: HTTP status plus message, rendered as the
/// structured error body `{"error": {"code": ..., "message": ...}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (4xx for caller mistakes, 5xx for ours).
    pub status: u16,
    /// Human-readable reason.
    pub message: String,
}

impl ApiError {
    /// A 400 Bad Request.
    pub fn bad(message: impl Into<String>) -> Self {
        Self { status: 400, message: message.into() }
    }

    /// A 422: the request parsed but the analysis cannot run.
    pub fn unprocessable(message: impl Into<String>) -> Self {
        Self { status: 422, message: message.into() }
    }

    /// The JSON error body.
    pub fn body(&self) -> String {
        let v = Value::Record(vec![(
            "error".into(),
            Value::Record(vec![
                ("code".into(), Value::Int(i128::from(self.status))),
                ("message".into(), Value::Str(self.message.clone())),
            ]),
        )]);
        json::value_to_string(&v)
    }
}

// ---------------------------------------------------------------------
// Request parsing.
// ---------------------------------------------------------------------

/// A request body, wrapped for typed field access with defaults.
///
/// The two front-ends differ only in how a body is built:
/// [`Body::parse`] takes HTTP bytes (builtin or inline-`.bench`
/// circuits only, request limits enforced), [`Body::local`] carries a
/// circuit the CLI loaded itself and skips the limits.
#[derive(Debug)]
pub struct Body {
    fields: Vec<(String, Value)>,
    /// The named circuit of a [`Body::local`] request.
    local: Option<(String, Circuit)>,
}

impl Body {
    /// Parses the body text as a JSON object.
    pub fn parse(text: &str) -> Result<Self, ApiError> {
        let v = json::value_from_str(text)
            .map_err(|e| ApiError::bad(format!("malformed JSON body: {e}")))?;
        match v {
            Value::Record(fields) => Ok(Self { fields, local: None }),
            other => Err(ApiError::bad(format!("expected a JSON object, got {other:?}"))),
        }
    }

    /// A request built in-process: `fields` as an HTTP body would carry
    /// them, plus the circuit (reported as `name`) the caller already
    /// loaded, which replaces `"target"`/`"bench"` resolution. The
    /// request limits do not apply — they protect a shared server from
    /// its clients, while a local caller spends its own machine.
    pub fn local(fields: Vec<(String, Value)>, name: String, circuit: Circuit) -> Self {
        Self { fields, local: Some((name, circuit)) }
    }

    /// A count field with a default, refused above `max` on HTTP
    /// requests.
    fn bounded(&self, name: &str, default: usize, max: usize) -> Result<usize, ApiError> {
        let value = self.get(name, default)?;
        if value > max && self.local.is_none() {
            return Err(ApiError::bad(format!("'{name}' of {value} exceeds the limit of {max}")));
        }
        Ok(value)
    }

    /// Typed access to an optional field (absent and `null` are both
    /// `None`).
    pub fn opt<T: Deserialize>(&self, name: &str) -> Result<Option<T>, ApiError> {
        match self.fields.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Value::Unit)) => Ok(None),
            Some((_, v)) => T::from_value(v)
                .map(Some)
                .map_err(|e| ApiError::bad(format!("field '{name}': {e}"))),
        }
    }

    /// Typed access with a default for absent fields.
    pub fn get<T: Deserialize>(&self, name: &str, default: T) -> Result<T, ApiError> {
        Ok(self.opt(name)?.unwrap_or(default))
    }
}

/// The builtin generator circuit called `name`: an ISCAS'89 stand-in
/// (`s838` … `s13207`), `alu88` or `mult88`.
pub fn builtin_circuit(name: &str) -> Option<RawCircuit> {
    match name {
        "alu88" => Some(alu(8)),
        "mult88" => Some(multiplier(8)),
        other => iscas_like(other),
    }
}

/// Resolves the request's circuit: the one a [`Body::local`] request
/// carries, else `"bench"` (inline `.bench` text), which wins over
/// `"target"` (a builtin generator name).
///
/// Unlike the CLI, the service never reads circuit files from its own
/// filesystem — an HTTP `"target"` naming a path would otherwise be a
/// read/probe oracle for anything the server process can open. Remote
/// clients ship netlists inline via `"bench"`.
pub fn resolve_circuit(body: &Body) -> Result<(String, Cow<'_, Circuit>), ApiError> {
    if let Some((name, circuit)) = &body.local {
        return Ok((name.clone(), Cow::Borrowed(circuit)));
    }
    let target: Option<String> = body.opt("target")?;
    let bench: Option<String> = body.opt("bench")?;
    let (name, raw) = match (target, bench) {
        (_, Some(text)) => {
            let raw = parse_bench("inline", &text)
                .map_err(|e| ApiError::unprocessable(format!("bench: {e}")))?;
            ("inline".to_string(), raw)
        }
        (Some(target), None) => {
            let raw = builtin_circuit(&target).ok_or_else(|| {
                ApiError::unprocessable(format!(
                    "unknown circuit '{target}' (builtin names only; \
                     send file contents inline via 'bench')"
                ))
            })?;
            (target, raw)
        }
        (None, None) => return Err(ApiError::bad("missing 'target' (or inline 'bench')")),
    };
    let circuit = normalize(&raw)
        .map_err(|e| ApiError::unprocessable(format!("normalization failed: {e}")))?;
    Ok((name, Cow::Owned(circuit)))
}

/// The technology named by a request (`"d25"` default, `"d50"`).
pub fn resolve_tech(body: &Body) -> Result<Technology, ApiError> {
    match body.get::<String>("tech", "d25".into())?.as_str() {
        "d25" | "D25" => Ok(Technology::d25()),
        "d50" | "D50" => Ok(Technology::d50()),
        other => Err(ApiError::bad(format!("'tech': expected d25|d50, got '{other}'"))),
    }
}

/// The operating conditions of a request: `"temp"` (kelvin, default
/// 300) and `"vdd_scale"` (factor on the nominal supply, default 1.0),
/// validated and bundled as the [`OperatingPoint`] every analysis
/// characterizes through — the same derivation path the grid and MC
/// jobs use, so a single-point request and the matching grid cell name
/// the same cache entry.
pub fn resolve_operating_point(body: &Body) -> Result<OperatingPoint, ApiError> {
    let op = OperatingPoint {
        temp: body.get("temp", 300.0f64)?,
        vdd_scale: body.get("vdd_scale", 1.0f64)?,
    };
    op.validate().map_err(ApiError::bad)?;
    Ok(op)
}

/// Characterization options: the full default grid, or the coarse
/// test grid when the request sets `"coarse": true` (seconds vs.
/// milliseconds of solver work — integration tests and demos want
/// coarse).
pub fn resolve_char_opts(body: &Body) -> Result<CharacterizeOptions, ApiError> {
    if body.get("coarse", false)? {
        Ok(CharacterizeOptions::coarse(&CellType::ALL))
    } else {
        Ok(CharacterizeOptions::default())
    }
}

/// Most vectors (or MLV samples/steps) one HTTP request may ask for — a
/// remote client must not be able to pin a worker for hours.
pub const MAX_REQUEST_VECTORS: usize = 100_000;
/// Much lower vector cap for `mode: "direct"`, whose per-gate
/// transistor-level re-solve is orders of magnitude slower than the
/// LUT path — the same wall-clock budget, mode-adjusted.
pub const MAX_REQUEST_DIRECT_VECTORS: usize = 500;
/// Most worker threads one request may ask for (the engine's own
/// all-cores resolution caps at 16 too).
pub const MAX_REQUEST_THREADS: usize = 16;
/// Most hill-climb restarts one request may ask for.
pub const MAX_REQUEST_RESTARTS: usize = 256;
/// Most shard partials one streaming job may produce (each shard's
/// partial stats stay resident until the job is evicted).
pub const MAX_JOB_SHARDS: usize = 1024;

/// The `"lanes"` field shared by sweep/MLV/MC requests: `0` (auto,
/// the 64-wide block kernel), `64` (block explicitly), or `1` (the
/// scalar reference path). A throughput knob only — results are
/// bit-identical either way.
fn resolve_lanes_field(body: &Body) -> Result<usize, ApiError> {
    let lanes = body.get("lanes", 0usize)?;
    if !matches!(lanes, 0 | 1 | 64) {
        return Err(ApiError::bad(format!(
            "'lanes': expected 0 (auto), 1 (scalar), or 64 (block), got {lanes}"
        )));
    }
    Ok(lanes)
}

fn parse_mode(raw: &str) -> Result<EstimatorMode, ApiError> {
    match raw {
        "lut" => Ok(EstimatorMode::Lut),
        "noloading" => Ok(EstimatorMode::NoLoading),
        "direct" => Ok(EstimatorMode::DirectSolve),
        other => {
            Err(ApiError::bad(format!("'mode': expected lut|noloading|direct, got '{other}'")))
        }
    }
}

/// The sweep parameters of a request, defaults applied and
/// client-controlled work bounded (the direct-solve mode gets a much
/// smaller vector budget than the LUT fast path).
pub fn resolve_sweep_config(body: &Body) -> Result<SweepConfig, ApiError> {
    let mode = parse_mode(&body.get::<String>("mode", "lut".into())?)?;
    let max_vectors = match mode {
        EstimatorMode::DirectSolve => MAX_REQUEST_DIRECT_VECTORS,
        EstimatorMode::Lut | EstimatorMode::NoLoading => MAX_REQUEST_VECTORS,
    };
    let vectors = body.bounded("vectors", 100, max_vectors)?;
    if vectors == 0 {
        return Err(ApiError::bad("'vectors' must be at least 1"));
    }
    Ok(SweepConfig {
        vectors,
        seed: body.get("seed", 2005u64)?,
        threads: body.bounded("threads", 0, MAX_REQUEST_THREADS)?,
        mode,
        lanes: resolve_lanes_field(body)?,
    })
}

/// One shard-size field (`"shard_vectors"` on sweeps,
/// `"shard_samples"` on MC jobs): units per streamed shard (`0` =
/// monolithic), bounded on HTTP requests so one job cannot pin
/// [`MAX_JOB_SHARDS`]+ partials in the registry — a single policy
/// shared by every streaming job kind.
fn resolve_shard_field(body: &Body, field: &str, units: usize) -> Result<usize, ApiError> {
    let shard_size = body.get(field, 0usize)?;
    let shards = shard_count(units, shard_size);
    if shards > MAX_JOB_SHARDS && body.local.is_none() {
        return Err(ApiError::bad(format!(
            "'{field}' of {shard_size} over {units} units yields {shards} shards, \
             exceeding the limit of {MAX_JOB_SHARDS}: every shard partial stays \
             resident in RAM until the job is evicted, so the count is bounded — \
             raise '{field}' to produce fewer, larger shards"
        )));
    }
    Ok(shard_size)
}

/// The `"shard_vectors"` field of a sweep job: vectors per streamed
/// shard (`0` = monolithic), bounded on HTTP requests to at most
/// [`MAX_JOB_SHARDS`] shards.
pub fn resolve_shard_vectors(body: &Body, vectors: usize) -> Result<usize, ApiError> {
    resolve_shard_field(body, "shard_vectors", vectors)
}

/// Observer of a request's progress: the library it runs on and each
/// streamed unit (sweep shards, grid cells, MC shards, optimization
/// rounds). The job executor backs this with the job registry so
/// clients can poll progress and page partials; synchronous endpoints
/// use [`NoopObserver`], and the CLI prints what it observes.
pub trait JobObserver: Sync {
    /// Declares how many units the job will produce, before the first
    /// one runs.
    fn declare(&self, _total: usize) {}
    /// Reports the characterized library the analysis runs on, how the
    /// cache produced it, and how long that took.
    fn library(&self, _lib: &Arc<CellLibrary>, _outcome: CacheOutcome, _elapsed: Duration) {}
    /// Records one finished unit's partial result.
    fn unit(&self, index: usize, partial: Value);
    /// Polled between units; `true` aborts the job.
    fn cancelled(&self) -> bool {
        false
    }
}

/// An observer that discards progress and never cancels.
pub struct NoopObserver;

impl JobObserver for NoopObserver {
    fn unit(&self, _index: usize, _partial: Value) {}
}

/// The structured 409 every executor returns when an observer aborts.
fn cancelled_error() -> ApiError {
    ApiError { status: 409, message: "job cancelled".into() }
}

/// Printable form of a pattern: primary-input bits, then `|` and the
/// DFF state bits when present. Shared by the service responses and
/// the CLI's text/JSON output, so the two transports can never
/// diverge on vector formatting.
pub fn fmt_pattern(p: &Pattern) -> String {
    let bits = |bs: &[bool]| bs.iter().map(|&b| if b { '1' } else { '0' }).collect::<String>();
    if p.states.is_empty() {
        bits(&p.pi)
    } else {
        format!("{}|{}", bits(&p.pi), bits(&p.states))
    }
}

fn library(
    cache: &MemoLibraryCache,
    observer: &dyn JobObserver,
    tech: &Technology,
    op: &OperatingPoint,
    opts: &CharacterizeOptions,
) -> Result<Arc<CellLibrary>, ApiError> {
    let start = Instant::now();
    let (lib, outcome) = cache.get_or_characterize_at(tech, op, opts).map_err(|e| match e {
        // A solver that won't converge on a well-formed request is a
        // processing failure (422, like sweep failures), not a server
        // fault; cache/I-O breakage is genuinely ours (500). The
        // `EngineError` Display already says which stage failed.
        EngineError::Solver(_) => ApiError::unprocessable(e.to_string()),
        other => ApiError { status: 500, message: other.to_string() },
    })?;
    observer.library(&lib, outcome, start.elapsed());
    Ok(lib)
}

// ---------------------------------------------------------------------
// POST /v1/estimate
// ---------------------------------------------------------------------

/// Response of `POST /v1/estimate`: mean leakage with/without loading
/// over N random vectors, mirroring the CLI's `estimate` output.
#[derive(Debug, Clone, Serialize)]
pub struct EstimateResponse {
    /// Resolved circuit name.
    pub target: String,
    /// Gate count of the normalized circuit.
    pub gates: usize,
    /// Primary input + state bit count.
    pub input_bits: usize,
    /// Vectors averaged over.
    pub vectors: usize,
    /// RNG seed.
    pub seed: u64,
    /// Temperature \[K\].
    pub temp: f64,
    /// Mean total leakage, loading modeled \[A\].
    pub mean_total_a: f64,
    /// Mean total leakage, loading ignored \[A\].
    pub mean_no_loading_a: f64,
    /// Mean leakage power at the technology's Vdd \[W\].
    pub mean_power_w: f64,
    /// Average loading impact on total leakage (fraction).
    pub loading_impact_avg: f64,
    /// Average loading impact on each leakage component (fractions).
    pub loading_impact_avg_components: LeakageBreakdown,
    /// Worst-vector loading impact (fraction).
    pub loading_impact_max: f64,
    /// Server-side wall clock \[ms\].
    pub elapsed_ms: f64,
}

/// Runs the estimate endpoint.
pub fn run_estimate(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<EstimateResponse, ApiError> {
    let start = Instant::now();
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let op = resolve_operating_point(body)?;
    let vectors = body.bounded("vectors", 100, MAX_REQUEST_VECTORS)?;
    if vectors == 0 {
        return Err(ApiError::bad("'vectors' must be at least 1"));
    }
    let seed = body.get("seed", 2005u64)?;
    let lib = library(cache, observer, &tech, &op, &resolve_char_opts(body)?)?;

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let patterns = Pattern::random_batch(&circuit, &mut rng, vectors);
    let loaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut)
        .map_err(|e| ApiError::unprocessable(format!("estimation failed: {e}")))?;
    let unloaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::NoLoading)
        .map_err(|e| ApiError::unprocessable(format!("estimation failed: {e}")))?;

    let mean =
        |rs: &[CircuitLeakage]| rs.iter().map(|r| r.total.total()).sum::<f64>() / rs.len() as f64;
    let pairs: Vec<_> = loaded.iter().cloned().zip(unloaded.iter().cloned()).collect();
    let impact = LoadingImpact::from_pairs(&pairs);

    Ok(EstimateResponse {
        target,
        gates: circuit.gate_count(),
        input_bits: circuit.inputs().len() + circuit.state_inputs().len(),
        vectors,
        seed,
        temp: op.temp,
        mean_total_a: mean(&loaded),
        mean_no_loading_a: mean(&unloaded),
        mean_power_w: mean(&loaded) * lib.tech.vdd,
        loading_impact_avg: impact.avg_total,
        loading_impact_avg_components: impact.avg,
        loading_impact_max: impact.max_total,
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

// ---------------------------------------------------------------------
// POST /v1/sweep
// ---------------------------------------------------------------------

/// Response of `POST /v1/sweep`: the full deterministic
/// [`SweepStats`] plus wall-clock telemetry.
#[derive(Debug, Clone, Serialize)]
pub struct SweepResponse {
    /// Resolved circuit name.
    pub target: String,
    /// Gate count of the normalized circuit.
    pub gates: usize,
    /// Temperature \[K\].
    pub temp: f64,
    /// The exact configuration the sweep ran with (defaults applied),
    /// sufficient to reproduce it in-process.
    pub config: SweepConfig,
    /// Shards the sweep executed in (1 = monolithic). Sharding never
    /// changes `stats` — the merge is bit-identical by construction.
    pub shards: usize,
    /// Bit-exact sweep statistics.
    pub stats: SweepStats,
    /// Minimum-leakage vector, printable form.
    pub min_vector: String,
    /// Maximum-leakage vector, printable form.
    pub max_vector: String,
    /// Server-side wall clock \[ms\].
    pub elapsed_ms: f64,
    /// Sweep throughput \[patterns/s\].
    pub patterns_per_sec: f64,
}

/// Runs a sweep in `"shard_vectors"`-sized shards, reporting each
/// shard's [`SweepShard`] partial to `observer` as it completes. The
/// merged stats in the response are bit-identical to a monolithic
/// [`sweep`](fn@sweep) of the same config, for any shard size.
pub fn run_sweep_streaming(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<SweepResponse, ApiError> {
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let op = resolve_operating_point(body)?;
    let config = resolve_sweep_config(body)?;
    let shard_vectors = resolve_shard_vectors(body, config.vectors)?;
    let shards = shard_count(config.vectors, shard_vectors);
    observer.declare(shards);
    let lib = library(cache, observer, &tech, &op, &resolve_char_opts(body)?)?;
    let report = sweep_streaming(&circuit, &lib, &config, shard_vectors, |partial: &SweepShard| {
        observer.unit(partial.shard, partial.to_value());
        !observer.cancelled()
    })
    .map_err(|e| ApiError::unprocessable(format!("sweep failed: {e}")))?;
    let Some(report) = report else {
        return Err(cancelled_error());
    };
    Ok(SweepResponse {
        target,
        gates: circuit.gate_count(),
        temp: op.temp,
        config,
        shards,
        min_vector: fmt_pattern(&report.stats.min.pattern),
        max_vector: fmt_pattern(&report.stats.max.pattern),
        stats: report.stats,
        elapsed_ms: report.telemetry.elapsed.as_secs_f64() * 1e3,
        patterns_per_sec: report.telemetry.patterns_per_sec,
    })
}

// ---------------------------------------------------------------------
// POST /v1/mlv
// ---------------------------------------------------------------------

/// Response of `POST /v1/mlv`: the optimal standby vector found.
#[derive(Debug, Clone, Serialize)]
pub struct MlvResponse {
    /// Resolved circuit name.
    pub target: String,
    /// Search direction (`"min"` / `"max"`).
    pub goal: String,
    /// Strategy that produced the result.
    pub strategy: String,
    /// Best vector, printable form.
    pub vector: String,
    /// Best vector as the raw pattern.
    pub pattern: Pattern,
    /// Total leakage of the vector \[A\].
    pub objective_a: f64,
    /// Subthreshold component \[A\].
    pub sub_a: f64,
    /// Gate-tunneling component \[A\].
    pub gate_a: f64,
    /// Junction BTBT component \[A\].
    pub btbt_a: f64,
    /// Estimator invocations.
    pub evaluations: u64,
    /// Accepted hill-climb moves.
    pub improving_moves: u64,
    /// Restarts executed.
    pub restarts: usize,
    /// Server-side wall clock \[ms\].
    pub elapsed_ms: f64,
}

/// The MLV-search parameters of a request (shared by `/v1/mlv` and
/// `/v1/optimize`): goal, strategy, seed, threads — defaults applied
/// and client-controlled work bounded. Returns the raw goal
/// string alongside the config for response echoing.
pub fn resolve_mlv_config(body: &Body) -> Result<(String, MlvConfig), ApiError> {
    let goal_raw: String = body.get("goal", "min".into())?;
    let goal = match goal_raw.as_str() {
        "min" => MlvGoal::Min,
        "max" => MlvGoal::Max,
        other => return Err(ApiError::bad(format!("'goal': expected min|max, got '{other}'"))),
    };
    let samples = body.bounded("samples", 1024, MAX_REQUEST_VECTORS)?;
    let restarts = body.bounded("restarts", 8, MAX_REQUEST_RESTARTS)?;
    let max_steps = body.bounded("max_steps", 64, MAX_REQUEST_VECTORS)?;
    if samples == 0 || restarts == 0 {
        return Err(ApiError::bad("'samples' and 'restarts' must be at least 1"));
    }
    let strategy = match body.get::<String>("strategy", "hillclimb".into())?.as_str() {
        "hillclimb" => MlvStrategy::HillClimb { restarts, max_steps },
        "exhaustive" => MlvStrategy::Exhaustive,
        "random" => MlvStrategy::Random { samples },
        other => {
            return Err(ApiError::bad(format!(
                "'strategy': expected exhaustive|random|hillclimb, got '{other}'"
            )))
        }
    };
    let config = MlvConfig {
        goal,
        strategy,
        seed: body.get("seed", 2005u64)?,
        threads: body.bounded("threads", 0, MAX_REQUEST_THREADS)?,
        mode: EstimatorMode::Lut,
        lanes: resolve_lanes_field(body)?,
    };
    Ok((goal_raw, config))
}

/// Runs the MLV endpoint.
pub fn run_mlv(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<MlvResponse, ApiError> {
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let op = resolve_operating_point(body)?;
    let (goal_raw, config) = resolve_mlv_config(body)?;
    let lib = library(cache, observer, &tech, &op, &resolve_char_opts(body)?)?;
    let result = mlv_search(&circuit, &lib, &config)
        .map_err(|e| ApiError::unprocessable(format!("MLV search failed: {e}")))?;
    Ok(MlvResponse {
        target,
        goal: goal_raw,
        strategy: result.telemetry.strategy.to_string(),
        vector: fmt_pattern(&result.pattern),
        pattern: result.pattern.clone(),
        objective_a: result.objective,
        sub_a: result.leakage.total.sub,
        gate_a: result.leakage.total.gate,
        btbt_a: result.leakage.total.btbt,
        evaluations: result.telemetry.evaluations,
        improving_moves: result.telemetry.improving_moves,
        restarts: result.telemetry.restarts,
        elapsed_ms: result.telemetry.elapsed.as_secs_f64() * 1e3,
    })
}

// ---------------------------------------------------------------------
// POST /v1/optimize
// ---------------------------------------------------------------------

/// Most optimization rounds one request may ask for — each round is a
/// full pin-permutation pass plus a remap pass plus an MLV re-search.
pub const MAX_REQUEST_OPT_ROUNDS: usize = 16;

/// Structured JSON form of a normalized circuit: named nets, cells in
/// gate order. This is the exact structure (the `.bench` dialect
/// cannot express a normalized circuit's DFF master/slave expansion
/// without re-normalizing it differently on import).
pub fn circuit_to_value(c: &Circuit) -> Value {
    let names = |nets: &[NetId]| {
        Value::Seq(nets.iter().map(|&n| Value::Str(c.net_name(n).to_string())).collect())
    };
    let gates = c
        .gates()
        .iter()
        .map(|g| {
            Value::Record(vec![
                ("cell".into(), Value::Str(g.cell.name().to_string())),
                ("inputs".into(), names(&g.inputs)),
                ("output".into(), Value::Str(c.net_name(g.output).to_string())),
            ])
        })
        .collect();
    Value::Record(vec![
        ("name".into(), Value::Str(c.name().to_string())),
        ("inputs".into(), names(c.inputs())),
        ("state_inputs".into(), names(c.state_inputs())),
        ("outputs".into(), names(c.outputs())),
        ("dff_d".into(), names(c.dff_d_nets())),
        ("gates".into(), Value::Seq(gates)),
    ])
}

/// One optimization round as the job-observer partial / response row.
pub fn round_to_value(r: &RoundProgress) -> Value {
    Value::Record(vec![
        ("round".into(), Value::Int(r.round as i128)),
        ("rounds_total".into(), Value::Int(r.rounds_total as i128)),
        ("accepted_permutations".into(), Value::Int(r.accepted_permutations as i128)),
        ("accepted_remaps".into(), Value::Int(r.accepted_remaps as i128)),
        ("objective_a".into(), Value::F64(r.objective_a)),
        ("baseline_a".into(), Value::F64(r.baseline_a)),
        ("evaluations".into(), Value::Int(i128::from(r.evaluations))),
    ])
}

/// Response of `POST /v1/optimize` (and the `"optimize"` job kind):
/// the leakage-optimized circuit plus the before/after report.
#[derive(Debug, Clone, Serialize)]
pub struct OptimizeResponse {
    /// Resolved circuit name.
    pub target: String,
    /// Search direction the scoring used (`"min"` / `"max"`).
    pub goal: String,
    /// MLV re-search strategy.
    pub strategy: String,
    /// Gate count going in (after normalization).
    pub gates_before: usize,
    /// Gate count of the optimized circuit.
    pub gates_after: usize,
    /// Rounds executed (≤ the configured bound).
    pub rounds_run: usize,
    /// Configured round bound.
    pub max_rounds: usize,
    /// Extreme vector of the input circuit, printable form.
    pub baseline_vector: String,
    /// Objective of the input circuit at its extreme vector \[A\].
    pub baseline_a: f64,
    /// Extreme vector of the optimized circuit, printable form.
    pub improved_vector: String,
    /// Objective of the optimized circuit at its extreme vector \[A\].
    /// Guaranteed `improved_a <= baseline_a`.
    pub improved_a: f64,
    /// Leakage power of the optimized circuit at its vector \[W\].
    pub improved_power_w: f64,
    /// Relative objective improvement (percent).
    pub improvement_percent: f64,
    /// Pin permutations accepted across all rounds.
    pub accepted_permutations: usize,
    /// De Morgan remaps accepted across all rounds.
    pub accepted_remaps: usize,
    /// Whether the canonicalization pre-pass was kept.
    pub canonicalized: bool,
    /// Double-inverter pairs removed by the kept pre-pass.
    pub inverter_pairs_removed: usize,
    /// Dead gates removed by the kept pre-pass.
    pub dead_gates_removed: usize,
    /// `true` when the input circuit was returned unchanged because
    /// no rewrite survived the final objective guard.
    pub reverted: bool,
    /// Total estimator invocations (candidates + MLV searches).
    pub evaluations: u64,
    /// Per-round progress rows.
    pub rounds: Vec<Value>,
    /// The optimized circuit as a structured netlist (see
    /// [`circuit_to_value`]).
    pub netlist: Value,
    /// Server-side wall clock \[ms\].
    pub elapsed_ms: f64,
}

/// Runs a leakage optimization, reporting each round's
/// [`RoundProgress`] to `observer` as it completes (the declared unit
/// count is the configured round bound; early convergence leaves the
/// tail undeclared-but-absent). The observer's cancel flag is polled
/// at round boundaries.
pub fn run_optimize_with(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<OptimizeResponse, ApiError> {
    let start = Instant::now();
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let op = resolve_operating_point(body)?;
    let (goal_raw, mlv) = resolve_mlv_config(body)?;
    let max_rounds = body.bounded("rounds", 4, MAX_REQUEST_OPT_ROUNDS)?;
    if max_rounds == 0 {
        return Err(ApiError::bad("'rounds' must be at least 1"));
    }
    let config = OptimizeConfig {
        mlv,
        max_rounds,
        canonicalize: body.get("canonicalize", true)?,
        permute: body.get("permute", true)?,
        remap: body.get("remap", true)?,
    };
    observer.declare(max_rounds);
    let lib = library(cache, observer, &tech, &op, &resolve_char_opts(body)?)?;
    let result = optimize_with(&circuit, &lib, &config, |round| {
        observer.unit(round.round - 1, round_to_value(round));
        !observer.cancelled()
    })
    .map_err(|e| ApiError::unprocessable(format!("optimization failed: {e}")))?;
    let Some(result) = result else {
        return Err(cancelled_error());
    };
    let (pairs, dead) = result
        .canonical
        .as_ref()
        .map_or((0, 0), |r| (r.inverter_pairs_removed, r.dead_gates_removed));
    Ok(OptimizeResponse {
        target,
        goal: goal_raw,
        strategy: result.baseline.telemetry.strategy.to_string(),
        gates_before: result.gates_before,
        gates_after: result.gates_after,
        rounds_run: result.rounds.len(),
        max_rounds,
        baseline_vector: fmt_pattern(&result.baseline.pattern),
        baseline_a: result.baseline.objective,
        improved_vector: fmt_pattern(&result.improved.pattern),
        improved_a: result.improved.objective,
        improved_power_w: result.improved.objective * lib.tech.vdd,
        improvement_percent: result.improvement_percent(),
        accepted_permutations: result.rounds.iter().map(|r| r.accepted_permutations).sum(),
        accepted_remaps: result.rounds.iter().map(|r| r.accepted_remaps).sum(),
        canonicalized: result.canonical.is_some(),
        inverter_pairs_removed: pairs,
        dead_gates_removed: dead,
        reverted: result.reverted,
        evaluations: result.evaluations,
        rounds: result.rounds.iter().map(round_to_value).collect(),
        netlist: circuit_to_value(&result.circuit),
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

// ---------------------------------------------------------------------
// Condition-grid jobs (temperature × Vdd).
// ---------------------------------------------------------------------

/// Most grid cells a single job may request (each cell is a full
/// characterization + sweep).
pub const MAX_GRID_CELLS: usize = 256;

/// One cell of a condition-grid result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridCell {
    /// Temperature \[K\].
    pub temp: f64,
    /// Vdd scale factor applied to the technology's nominal supply.
    pub vdd_scale: f64,
    /// Supply voltage after scaling \[V\].
    pub vdd: f64,
    /// Mean total leakage over the sweep \[A\].
    pub mean_total_a: f64,
    /// Minimum total leakage over the sweep \[A\].
    pub min_total_a: f64,
    /// Maximum total leakage over the sweep \[A\].
    pub max_total_a: f64,
}

/// Result of a condition-grid job: a temps × vdd_scales matrix of
/// sweep summaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridResult {
    /// Resolved circuit name.
    pub target: String,
    /// Temperature axis \[K\] (rows).
    pub temps: Vec<f64>,
    /// Vdd-scale axis (columns).
    pub vdd_scales: Vec<f64>,
    /// Sweep configuration shared by every cell.
    pub config: SweepConfig,
    /// Row-major cells (`temps.len() * vdd_scales.len()` entries).
    pub cells: Vec<GridCell>,
    /// Mean total leakage matrix \[A\], `matrix[ti][vi]` — the same
    /// numbers as `cells`, shaped for direct plotting.
    pub mean_total_a: Vec<Vec<f64>>,
}

/// Runs a condition-grid job: one deterministic sweep per
/// [`OperatingPoint`] cell, characterizing through the shared memo
/// cache.
///
/// The condition matrix is [`OperatingPoint::grid`] — the one shared
/// temps × vdd_scales derivation (row-major) — so a grid cell and a
/// single-point request at the same conditions name the same cache
/// entry, and no scaling arithmetic lives in this executor.
///
/// Cells are independent, so they **fan across the worker pool** in
/// parallel (row-major cell order) instead of running sequentially on
/// the one worker that popped the job — the grid's latency drops by
/// roughly the fan width. Per-cell results are reduced back in cell
/// order and each cell's sweep stats are thread-count invariant, so
/// the matrix is bit-identical to a sequential run. The observer's
/// cancel flag is polled as each cell starts; completed cells are
/// reported via [`JobObserver::unit`] for incremental paging.
pub fn run_grid(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<GridResult, ApiError> {
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let config = resolve_sweep_config(body)?;
    let opts = resolve_char_opts(body)?;
    let temps: Vec<f64> = body.get("temps", vec![300.0])?;
    let vdd_scales: Vec<f64> = body.get("vdd_scales", vec![1.0])?;
    if temps.is_empty() || vdd_scales.is_empty() {
        return Err(ApiError::bad("'temps' and 'vdd_scales' must be non-empty"));
    }
    let points = OperatingPoint::grid(&temps, &vdd_scales);
    let n_cells = points.len();
    if n_cells > MAX_GRID_CELLS {
        return Err(ApiError::bad(format!(
            "grid of {n_cells} cells exceeds the {MAX_GRID_CELLS}-cell limit"
        )));
    }
    for op in &points {
        op.validate().map_err(ApiError::bad)?;
    }
    observer.declare(n_cells);

    // Split the requested parallelism between the cell fan and each
    // cell's inner sweep (`fan × inner ≈ requested`), so a 2-cell
    // grid on 8 threads still uses all 8 instead of starving the
    // inner sweeps. Sweep stats are thread-count invariant, so the
    // split never moves a bit of the matrix.
    let requested = resolve_threads(config.threads);
    let fan = requested.min(n_cells);
    let cell_config = SweepConfig { threads: (requested / fan).max(1), ..config };
    let per_cell: Vec<Result<GridCell, ApiError>> = par_map(n_cells, fan, |i| {
        if observer.cancelled() {
            return Err(cancelled_error());
        }
        let op = points[i];
        let lib = library(cache, observer, &tech, &op, &opts)?;
        let report = sweep(&circuit, &lib, &cell_config)
            .map_err(|e| ApiError::unprocessable(format!("sweep failed: {e}")))?;
        let cell = GridCell {
            temp: op.temp,
            vdd_scale: op.vdd_scale,
            vdd: lib.tech.vdd,
            mean_total_a: report.stats.total.mean,
            min_total_a: report.stats.total.min,
            max_total_a: report.stats.total.max,
        };
        observer.unit(i, cell.to_value());
        Ok(cell)
    });

    // Sequential cell-order reduction: the first error (in cell
    // order) wins deterministically, and rows assemble exactly as the
    // old sequential loop did.
    let mut cells = Vec::with_capacity(n_cells);
    let mut matrix: Vec<Vec<f64>> = Vec::with_capacity(temps.len());
    for (i, outcome) in per_cell.into_iter().enumerate() {
        let cell = outcome?;
        if i % vdd_scales.len() == 0 || matrix.is_empty() {
            matrix.push(Vec::with_capacity(vdd_scales.len()));
        }
        if let Some(row) = matrix.last_mut() {
            row.push(cell.mean_total_a);
        }
        cells.push(cell);
    }
    Ok(GridResult { target, temps, vdd_scales, config, cells, mean_total_a: matrix })
}

// ---------------------------------------------------------------------
// Circuit-level Monte-Carlo jobs.
// ---------------------------------------------------------------------

/// Most Monte-Carlo samples one job may request. Each sample is a
/// full characterization of a perturbed die — orders of magnitude more
/// solver work than a sweep vector — so the budget is correspondingly
/// smaller than [`MAX_REQUEST_VECTORS`].
pub const MAX_REQUEST_MC_SAMPLES: usize = 2048;

/// Response of an `"mc"` job (and of `nanoleak-cli mc --format json`):
/// the full loaded/unloaded leakage distributions of a circuit under
/// die-to-die process variation.
#[derive(Debug, Clone, Serialize)]
pub struct McResponse {
    /// Resolved circuit name.
    pub target: String,
    /// Gate count of the normalized circuit.
    pub gates: usize,
    /// Monte-Carlo samples drawn.
    pub samples: usize,
    /// Input patterns averaged per sample.
    pub vectors: usize,
    /// Perturbation-stream seed.
    pub seed: u64,
    /// Pattern-stream seed.
    pub pattern_seed: u64,
    /// Temperature \[K\].
    pub temp: f64,
    /// Vdd scale factor on the nominal supply.
    pub vdd_scale: f64,
    /// Variation magnitudes the samples were drawn with.
    pub sigmas: VariationSigmas,
    /// Shards the run executed in (1 = monolithic). Sharding never
    /// changes `summary` — the merge is bit-identical by construction.
    pub shards: usize,
    /// `true` when the request pinned the bit-exact per-die
    /// characterization path (`"exact": true`); `false` is the default
    /// delta-from-nominal fast path, whose measured deviation from the
    /// exact path rides in `summary.fast`.
    pub exact: bool,
    /// Distribution summary (loaded/unloaded statistics, shared-range
    /// histograms, Fig. 11 mean/std shifts). Bit-exact in exact mode;
    /// within the reported linearization error of it in fast mode.
    pub summary: McSummary,
    /// Server-side wall clock \[ms\].
    pub elapsed_ms: f64,
    /// Throughput \[samples/s\].
    pub samples_per_sec: f64,
}

/// The `"shard_samples"` field of an MC job: samples per streamed
/// shard (`0` = monolithic), bounded on HTTP requests to at most
/// [`MAX_JOB_SHARDS`] shards.
pub fn resolve_shard_samples(body: &Body, samples: usize) -> Result<usize, ApiError> {
    resolve_shard_field(body, "shard_samples", samples)
}

/// The Monte-Carlo configuration of a request: defaults applied,
/// work bounded, sigma overrides honored (`"sigma_vt"` is the paper's
/// Fig. 11 sweep variable — the inter-die threshold sigma in volts).
pub fn resolve_mc_config(body: &Body, circuit: &Circuit) -> Result<CircuitMcConfig, ApiError> {
    let samples = body.bounded("samples", 200, MAX_REQUEST_MC_SAMPLES)?;
    let vectors = body.bounded("vectors", 1, MAX_REQUEST_VECTORS)?;
    if samples == 0 || vectors == 0 {
        return Err(ApiError::bad("'samples' and 'vectors' must be at least 1"));
    }
    let mut sigmas = VariationSigmas::paper_nominal();
    if let Some(vt) = body.opt::<f64>("sigma_vt")? {
        sigmas = sigmas.with_vt_inter(vt);
    }
    if let Some(vt) = body.opt::<f64>("sigma_vt_intra")? {
        sigmas = sigmas.with_vt_intra(vt);
    }
    // Reject NaN/absurd magnitudes here, like temp/vdd_scale — a
    // poisoned sigma would otherwise NaN every draw and report the
    // garbage as a successful run.
    sigmas.validate().map_err(ApiError::bad)?;
    let seed = body.get("seed", 2005u64)?;
    Ok(CircuitMcConfig {
        samples,
        seed,
        sigmas,
        op: resolve_operating_point(body)?,
        vectors,
        // Sharing the perturbation seed keeps the request surface
        // small; an explicit "pattern_seed" decouples the two streams.
        pattern_seed: body.get("pattern_seed", seed)?,
        threads: body.bounded("threads", 0, MAX_REQUEST_THREADS)?,
        char_opts: char_opts_for(circuit, body.get("coarse", false)?),
        lanes: resolve_lanes_field(body)?,
    })
}

/// Runs a circuit-level Monte-Carlo job in `"shard_samples"`-sized
/// shards, reporting each shard's [`McShard`] partial to `observer` as
/// it completes. The merged summary is bit-identical to a monolithic
/// [`mc_streaming_mode`] run of the same config and mode, for any shard
/// size and thread count — the same contract the sweep path holds.
///
/// `cache` should be a **RAM-only** memo (the server routes MC jobs
/// through `ServerState::mc_cache`): every sample is a unique
/// perturbed die, and writing those one-shot libraries through a
/// disk-backed cache would grow it without bound.
pub fn run_mc(
    cache: &MemoLibraryCache,
    body: &Body,
    observer: &dyn JobObserver,
) -> Result<McResponse, ApiError> {
    let (target, circuit) = resolve_circuit(body)?;
    let tech = resolve_tech(body)?;
    let config = resolve_mc_config(body, &circuit)?;
    let shard_samples = resolve_shard_samples(body, config.samples)?;
    let shards = shard_count(config.samples, shard_samples);
    let exact = body.get("exact", false)?;
    observer.declare(shards);
    let report = mc_streaming_mode(
        &circuit,
        &tech,
        cache,
        &config,
        if exact { McMode::Exact } else { McMode::Fast },
        shard_samples,
        |partial: &McShard| {
            observer.unit(partial.shard, partial.to_value());
            !observer.cancelled()
        },
    )
    .map_err(|e| ApiError::unprocessable(format!("monte carlo failed: {e}")))?;
    let Some(report) = report else {
        return Err(cancelled_error());
    };
    Ok(McResponse {
        target,
        gates: circuit.gate_count(),
        samples: config.samples,
        vectors: config.vectors,
        seed: config.seed,
        pattern_seed: config.pattern_seed,
        temp: config.op.temp,
        vdd_scale: config.op.vdd_scale,
        sigmas: config.sigmas,
        shards,
        exact,
        summary: report.summary,
        elapsed_ms: report.telemetry.elapsed.as_secs_f64() * 1e3,
        samples_per_sec: report.telemetry.samples_per_sec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_defaults_and_overrides() {
        let b = Body::parse(r#"{"vectors": 12, "temp": 325, "seed": null}"#).unwrap();
        assert_eq!(b.get("vectors", 100usize).unwrap(), 12);
        assert_eq!(b.get("temp", 300.0).unwrap(), 325.0);
        assert_eq!(b.get("seed", 2005u64).unwrap(), 2005, "null falls back to default");
        assert_eq!(b.get("threads", 0usize).unwrap(), 0, "absent falls back to default");
        let err = b.get::<bool>("vectors", false).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("vectors"), "{}", err.message);
    }

    #[test]
    fn non_object_bodies_are_rejected() {
        assert_eq!(Body::parse("[1,2]").unwrap_err().status, 400);
        assert_eq!(Body::parse("{oops").unwrap_err().status, 400);
        let err = Body::parse(r#"{"vectors": "many"}"#)
            .and_then(|b| b.get("vectors", 100usize))
            .unwrap_err();
        assert!(err.message.contains("vectors"), "{}", err.message);
    }

    #[test]
    fn request_work_is_bounded() {
        let b = Body::parse(r#"{"vectors": 200000}"#).unwrap();
        let err = resolve_sweep_config(&b).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("limit"), "{}", err.message);
        let b = Body::parse(r#"{"vectors": 10, "threads": 500000}"#).unwrap();
        assert_eq!(resolve_sweep_config(&b).unwrap_err().status, 400);
    }

    #[test]
    fn target_never_reads_the_filesystem() {
        // Path-shaped targets are unknown builtins, not file reads —
        // no existence oracle over HTTP.
        let b = Body::parse(r#"{"target": "../../etc/secrets.bench"}"#).unwrap();
        let err = resolve_circuit(&b).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("builtin names only"), "{}", err.message);
    }

    #[test]
    fn circuit_resolution_errors_are_structured() {
        let b = Body::parse(r#"{"target": "nope-such-circuit"}"#).unwrap();
        let err = resolve_circuit(&b).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(err.message.contains("nope-such-circuit"));
        let b = Body::parse("{}").unwrap();
        assert_eq!(resolve_circuit(&b).unwrap_err().status, 400);
    }

    #[test]
    fn inline_bench_wins_over_target() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let request = Value::Record(vec![
            ("target".into(), Value::Str("s838".into())),
            ("bench".into(), Value::Str(text.into())),
        ]);
        let b = Body::parse(&json::value_to_string(&request)).unwrap();
        let (name, circuit) = resolve_circuit(&b).unwrap();
        assert_eq!(name, "inline");
        assert_eq!(circuit.inputs().len(), 1);
    }

    #[test]
    fn grid_request_validation() {
        let cache = MemoLibraryCache::memory_only();
        for bad in [
            r#"{"target": "s838", "temps": []}"#,
            r#"{"target": "s838", "temps": [300], "vdd_scales": [0.0]}"#,
            r#"{"target": "s838", "temps": [-5]}"#,
        ] {
            let b = Body::parse(bad).unwrap();
            assert_eq!(run_grid(&cache, &b, &NoopObserver).unwrap_err().status, 400, "{bad}");
        }
        // Oversized grids are refused before any solver work.
        let temps: Vec<String> = (0..30).map(|i| (300 + i).to_string()).collect();
        let big = format!(
            r#"{{"target": "s838", "temps": [{}], "vdd_scales": [1,2,3,4,5,6,7,8,9]}}"#,
            temps.join(",")
        );
        let b = Body::parse(&big).unwrap();
        let err = run_grid(&cache, &b, &NoopObserver).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("cell limit"), "{}", err.message);
    }

    #[test]
    fn shard_vectors_is_bounded_and_defaults_to_monolithic() {
        let b = Body::parse(r#"{"vectors": 100}"#).unwrap();
        assert_eq!(resolve_shard_vectors(&b, 100).unwrap(), 0, "default is one shard");
        let b = Body::parse(r#"{"shard_vectors": 10}"#).unwrap();
        assert_eq!(resolve_shard_vectors(&b, 100).unwrap(), 10);
        // 100_000 vectors in shards of 1 would be 100k partials.
        let b = Body::parse(r#"{"shard_vectors": 1}"#).unwrap();
        let err = resolve_shard_vectors(&b, 100_000).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("shards"), "{}", err.message);
    }

    #[test]
    fn operating_point_resolution_defaults_and_validates() {
        let b = Body::parse("{}").unwrap();
        assert_eq!(resolve_operating_point(&b).unwrap(), OperatingPoint::default());
        let b = Body::parse(r#"{"temp": 350, "vdd_scale": 0.9}"#).unwrap();
        assert_eq!(resolve_operating_point(&b).unwrap(), OperatingPoint::new(350.0, 0.9));
        for bad in [r#"{"temp": -3}"#, r#"{"vdd_scale": 0}"#] {
            let b = Body::parse(bad).unwrap();
            assert_eq!(resolve_operating_point(&b).unwrap_err().status, 400, "{bad}");
        }
    }

    #[test]
    fn mc_request_is_bounded_and_defaults_apply() {
        let circuit = {
            let mut b = nanoleak_netlist::CircuitBuilder::new("t");
            let a = b.add_input("a");
            let y = b.add_gate(CellType::Inv, &[a], "y");
            b.mark_output(y);
            b.build().unwrap()
        };
        let b = Body::parse(r#"{"coarse": true}"#).unwrap();
        let cfg = resolve_mc_config(&b, &circuit).unwrap();
        assert_eq!((cfg.samples, cfg.vectors, cfg.seed, cfg.pattern_seed), (200, 1, 2005, 2005));
        assert_eq!(cfg.sigmas, VariationSigmas::paper_nominal());
        assert_eq!(cfg.char_opts.cells, vec![CellType::Inv], "only the circuit's cells");
        // Sigma override lands on the inter-die component.
        let b = Body::parse(r#"{"sigma_vt": 0.05, "seed": 9}"#).unwrap();
        let cfg = resolve_mc_config(&b, &circuit).unwrap();
        assert_eq!(cfg.sigmas.vt_inter, 0.05);
        assert_eq!(cfg.sigmas.vt_intra, VariationSigmas::paper_nominal().vt_intra);
        assert_eq!(cfg.pattern_seed, 9, "pattern stream follows the seed by default");
        // Non-physical sigmas are rejected like temp/vdd_scale.
        for bad in [r#"{"sigma_vt": -0.1}"#, r#"{"sigma_vt": 1e308}"#] {
            let b = Body::parse(bad).unwrap();
            assert_eq!(resolve_mc_config(&b, &circuit).unwrap_err().status, 400, "{bad}");
        }
        // Work bounds hold.
        let b = Body::parse(r#"{"samples": 1000000}"#).unwrap();
        assert_eq!(resolve_mc_config(&b, &circuit).unwrap_err().status, 400);
        let b = Body::parse(r#"{"samples": 0}"#).unwrap();
        assert_eq!(resolve_mc_config(&b, &circuit).unwrap_err().status, 400);
        // Shard bound mirrors the sweep path.
        let b = Body::parse(r#"{"shard_samples": 1}"#).unwrap();
        assert_eq!(resolve_shard_samples(&b, 2048).unwrap_err().status, 400);
        let b = Body::parse(r#"{"shard_samples": 4}"#).unwrap();
        assert_eq!(resolve_shard_samples(&b, 12).unwrap(), 4);
    }

    #[test]
    fn local_bodies_skip_the_request_limits() {
        let text = r#"{"vectors": 200000, "threads": 32, "shard_vectors": 1}"#;
        let http = Body::parse(text).unwrap();
        assert_eq!(resolve_sweep_config(&http).unwrap_err().status, 400);
        assert_eq!(resolve_shard_vectors(&http, 200_000).unwrap_err().status, 400);
        let circuit = normalize(&builtin_circuit("s838").unwrap()).unwrap();
        let local = Body::local(Body::parse(text).unwrap().fields, "s838".into(), circuit);
        let config = resolve_sweep_config(&local).unwrap();
        assert_eq!((config.vectors, config.threads), (200_000, 32));
        assert!(shard_count(config.vectors, 1) > MAX_JOB_SHARDS);
        assert_eq!(resolve_shard_vectors(&local, config.vectors).unwrap(), 1);
        // The carried circuit replaces "target" resolution.
        let (name, resolved) = resolve_circuit(&local).unwrap();
        assert_eq!(name, "s838");
        assert!(matches!(resolved, Cow::Borrowed(_)));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("lut").unwrap(), EstimatorMode::Lut);
        assert_eq!(parse_mode("noloading").unwrap(), EstimatorMode::NoLoading);
        assert_eq!(parse_mode("direct").unwrap(), EstimatorMode::DirectSolve);
        assert_eq!(parse_mode("spice").unwrap_err().status, 400);
    }

    #[test]
    fn pattern_formatting() {
        let p = Pattern { pi: vec![true, false], states: vec![] };
        assert_eq!(fmt_pattern(&p), "10");
        let p = Pattern { pi: vec![false], states: vec![true] };
        assert_eq!(fmt_pattern(&p), "0|1");
    }

    #[test]
    fn error_bodies_are_valid_json() {
        let e = ApiError::bad("quoted \"text\" here");
        let v = json::value_from_str(&e.body()).unwrap();
        let Value::Record(fields) = v else { panic!("not an object") };
        assert_eq!(fields[0].0, "error");
    }
}
