//! `serve_mix` — `nanoleak-cli serve --threads 1` on loopback, driven
//! by one closed-loop client, because callers of this service wait for
//! their reply.
//!
//! The traffic copies the service's clients in this repository; the
//! benchmark picks no ratio of its own. A round runs two phases one
//! after the other, so `run_s` is their sum and a slowdown in either
//! one shows:
//! - **Estimates.** ROADMAP direction 2 asks for a service benchmark
//!   that drives "a keep-alive client: `/v1/estimate` on s838". The
//!   server's keep-alive acceptance test
//!   (`keep_alive_serves_100_requests_on_one_connection` in
//!   `crates/server/tests/service.rs`) sends 100 requests on one
//!   connection. So each round opens one connection and sends 100
//!   estimates on it, back to back.
//! - **Jobs.** These follow the CI server smoke step
//!   (`.github/workflows/ci.yml`), which `examples/serve_client.rs`
//!   repeats: a sweep job in 4 shards, then an MC job in 2, each
//!   submitted, polled until done, its shards paged and its merged
//!   result fetched. A `/metrics` scrape follows each job. Every one of
//!   these calls opens its own connection, as each `curl` call in CI
//!   does and as the example does with `Connection: close`. No client
//!   in the repository sends estimates on fresh connections. Polls go
//!   back to back: CI's 0.5 s sleeps would round a job's time up to
//!   the sleep and hide it.
//!
//! Why it exists: handler work is small and the memo is warm, so HTTP
//! framing, socket writes, JSON, per-request netlist generation and job
//! bookkeeping dominate — layers neither other workload touches. The
//! engine memo only hits here.
//!
//! Which end-to-end metric each layer metric should move:
//! - `server.handler_ms_p50`, `server.outside_handler_ms_p50`,
//!   `server.response_bytes.estimate`, `netlist.resolve_ms.request`,
//!   `core.estimate_batch_ms.request` → `run_s` (the estimate phase,
//!   through `http_p50_ms` and `http_tail_ms`);
//! - `server.connect_ms_p50`, `server.queue_wait_ms_p50`,
//!   `server.job_*_ms_p50`, `server.polls_per_job`,
//!   `server.response_bytes.{job_status,job_result,shard_page,metrics}`,
//!   `obs.metrics_scrape_ms`, `engine.mc_probe_ms`,
//!   `engine.mc_probe_share`, `engine.mc_merge_ms` → `run_s` (the job
//!   phase, through `job_turnaround_s`);
//! - `cells.characterize_ms`, `cells.sens_build_ms`,
//!   `solver.newton_*.setup` → `setup_s`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use nanoleak_cells::{CharacterizeOptions, OperatingPoint};
use nanoleak_core::{estimate_batch, EstimatorMode};
use nanoleak_device::Technology;
use nanoleak_engine::LibraryCache;
use nanoleak_netlist::Pattern;
use rand::SeedableRng;
use serde::Value;

use crate::ctx::{args, at, finish_per_layer, ms, num, path_arg, text, Ctx, MC_SEED_POOL};
use crate::http::{Conn, Response};
use crate::ledger::{newton, ratio, Ledger};
use crate::procs::Server;
use crate::prom::Scrape;
use crate::report::{median, median_round, seq, tail, Report, Sample};

const EST_CIRCUIT: &str = "s838";
const EST_VECTORS: usize = 100;
/// Estimates per round, all on one kept-alive connection (see the
/// module docs).
const ESTIMATES: usize = 100;
const SWEEP_CIRCUIT: &str = "s1196";
const SWEEP_VECTORS: usize = 2048;
const SWEEP_SHARD: usize = 512;
const MC_CIRCUIT: &str = "s838";
const MC_SAMPLES: usize = 8;
const MC_SHARD: usize = 4;
const MC_VECTORS: usize = 64;
const SETUPS: usize = 3;
/// Approximate cost of one round on the reference host.
const ROUND_S: f64 = 6.0;
const MIN_ROUNDS: usize = 3;
/// Rounds of each kind in the traced run.
const TRACE_ROUNDS: u64 = 3;
/// Client-side guard on one job.
const DEADLINE: Duration = Duration::from_secs(120);
/// The MC seed of the warm-up job: the last step of the walk through
/// the seed pool, which no round reaches (see [`Ctx::mc_seed`]).
const WARM_MC_STEP: u64 = MC_SEED_POOL - 1;

fn json_body(fields: &[(&str, Value)]) -> String {
    serde::json::value_to_string(&Value::Record(
        fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
    ))
}

fn int(x: u64) -> Value {
    Value::Int(i128::from(x))
}

fn str_(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// The closed-loop client: one request in flight, and at most one
/// kept-alive connection, reused across calls.
struct Client {
    addr: std::net::SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    fn new(addr: std::net::SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    /// One call; returns the response and, when a connection was
    /// opened for it, the connect time. A `fresh` call opens its own
    /// connection and closes it. A kept-alive connection the server
    /// has dropped is re-opened once.
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        fresh: bool,
    ) -> std::io::Result<(Response, Option<Duration>)> {
        if fresh {
            let (mut conn, connect) = Conn::open(self.addr)?;
            return Ok((conn.request(method, path, body, true)?, Some(connect)));
        }
        let mut connect = None;
        let reused = self.conn.is_some();
        if !reused {
            let (c, d) = Conn::open(self.addr)?;
            self.conn = Some(c);
            connect = Some(d);
        }
        let conn = self.conn.as_mut().expect("a connection was just ensured");
        match conn.request(method, path, body, false) {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok((resp, connect))
            }
            Err(_) if reused => {
                self.conn = None;
                self.call(method, path, body, false)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// How an estimate's handler time splits across layers, measured
/// in-process on the same request.
#[derive(Default)]
struct Split {
    resolve_ms: f64,
    batch_ms: f64,
}

impl Split {
    /// Times the two library calls of `POST /v1/estimate` — circuit
    /// generation + `normalize`, and both `estimate_batch` arms — over
    /// the service's own cached production library.
    fn measure(cache_dir: &Path, seed: u64) -> Result<Split, String> {
        let (mut resolve, mut batch) = (Vec::new(), Vec::new());
        let tech = OperatingPoint::default().tech(&Technology::d25());
        let (lib, _) = LibraryCache::new(cache_dir)
            .load_or_characterize(&tech, 300.0, &CharacterizeOptions::default())
            .map_err(|e| e.to_string())?;
        for i in 0..9u64 {
            let t = Instant::now();
            let circuit = crate::ctx::circuit(EST_CIRCUIT)?;
            resolve.push(ms(t.elapsed()));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_add(i));
            let patterns = Pattern::random_batch(&circuit, &mut rng, EST_VECTORS);
            let t = Instant::now();
            for mode in [EstimatorMode::Lut, EstimatorMode::NoLoading] {
                std::hint::black_box(
                    estimate_batch(&circuit, &lib, &patterns, mode).map_err(|e| e.to_string())?,
                );
            }
            batch.push(ms(t.elapsed()));
        }
        Ok(Split { resolve_ms: median(&resolve), batch_ms: median(&batch) })
    }
}

/// What the client observed over some rounds.
#[derive(Default)]
struct Tally {
    estimates: Vec<Sample>,
    handler_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    turnaround_s: Vec<f64>,
    polls: Vec<f64>,
    bytes: BTreeMap<&'static str, Vec<f64>>,
    scrape_ms: Vec<f64>,
    timings: Vec<Value>,
    probe_ms: Vec<f64>,
    probe_share: Vec<f64>,
    merge_ms: Vec<f64>,
    /// `(seed, merged stats)` of every finished sweep job.
    sweeps: Vec<(u64, Value)>,
}

/// One round's moving parts.
struct Session<'a> {
    client: &'a mut Client,
    report: &'a mut Report,
    tally: &'a mut Tally,
    ledger: Option<&'a mut Ledger>,
    split: &'a Split,
    /// Also read each finished job's timings and trace.
    traced: bool,
}

impl Session<'_> {
    /// One checked call of a response class; its latency (and connect
    /// time) is charged to the layer that served it.
    fn call(
        &mut self,
        class: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
        fresh: bool,
    ) -> Option<Response> {
        match self.client.call(method, path, body, fresh) {
            Ok((resp, connect)) => {
                let ok = resp.ok();
                self.report.op(
                    ok,
                    &format!(
                        "{method} {path}: HTTP {} {}",
                        resp.status,
                        resp.body.chars().take(200).collect::<String>()
                    ),
                );
                self.tally.bytes.entry(class).or_default().push(resp.body.len() as f64);
                let latency = ms(resp.latency);
                if class == "trace" {
                    // A read only the traced run makes: what tracing
                    // costs.
                    if let Some(l) = self.ledger.as_deref_mut() {
                        l.trace_cost(latency + connect.map_or(0.0, ms));
                    }
                    return ok.then_some(resp);
                }
                if let Some(c) = connect {
                    if fresh {
                        self.tally.connect_ms.push(ms(c));
                    }
                    self.charge("server", ms(c));
                }
                match class {
                    "estimate" => {
                        let handler = serde::json::value_from_str(&resp.body)
                            .ok()
                            .and_then(|v| num(&v, "elapsed_ms"))
                            .unwrap_or(0.0)
                            .min(latency);
                        self.tally.estimates.push(Sample { ms: latency, failed: !ok });
                        self.tally.handler_ms.push(handler);
                        self.tally.outside_ms.push(latency - handler);
                        let netlist = self.split.resolve_ms.min(handler);
                        let core = self.split.batch_ms.min(handler - netlist);
                        self.charge("netlist", netlist);
                        self.charge("core", core);
                        self.charge("server", latency - netlist - core);
                    }
                    "metrics" => {
                        self.tally.scrape_ms.push(latency);
                        self.charge("obs", latency);
                    }
                    _ => self.charge("server", latency),
                }
                ok.then_some(resp)
            }
            Err(e) => {
                self.report.op(false, &format!("{method} {path}: {e}"));
                None
            }
        }
    }

    fn charge(&mut self, layer: &'static str, ms: f64) {
        if let Some(l) = self.ledger.as_deref_mut() {
            l.add(layer, ms);
        }
    }

    /// One checked call on a fresh connection whose body must be JSON.
    fn json(
        &mut self,
        class: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Option<Value> {
        let resp = self.call(class, method, path, body, true)?;
        let v = serde::json::value_from_str(&resp.body).ok();
        self.report.op(v.is_some(), &format!("{method} {path}: body is not JSON"));
        v
    }

    /// Runs one job as the CI smoke step does: submit, poll until
    /// done, page every shard, fetch the merged result and check it,
    /// then scrape `/metrics`. Returns the job id.
    fn job(&mut self, kind: &'static str, seed: u64, body: &str) -> Option<u64> {
        let submitted = Instant::now();
        let v = self.json("job_status", "POST", "/v1/jobs", Some(body))?;
        let Some(id) = num(&v, "id").map(|id| id as u64) else {
            self.report.op(false, "POST /v1/jobs: reply carries no job id");
            return None;
        };
        let mut polls = 0u32;
        let shards = loop {
            if submitted.elapsed() > DEADLINE {
                self.report.op(false, &format!("job {id} did not finish in {DEADLINE:?}"));
                return None;
            }
            polls += 1;
            let v = self.json("job_status", "GET", &format!("/v1/jobs/{id}"), None)?;
            match text(&v, "status") {
                Some("done") => break num(&v, "shards_total").unwrap_or(0.0) as usize,
                Some("queued" | "running") => {}
                other => {
                    self.report.op(false, &format!("job {id} ended {other:?}"));
                    return None;
                }
            }
        };
        for shard in 0..shards {
            self.call(
                "shard_page",
                "GET",
                &format!("/v1/jobs/{id}/result?shard={shard}"),
                None,
                true,
            );
        }
        let merged = self.json("job_result", "GET", &format!("/v1/jobs/{id}/result"), None);
        self.tally.turnaround_s.push(submitted.elapsed().as_secs_f64());
        self.tally.polls.push(f64::from(polls));
        if let Some(merged) = merged {
            match kind {
                "mc" => {
                    let fast =
                        at(&merged, "result.summary.fast").is_some_and(|f| *f != Value::Unit);
                    self.report.op(fast, &format!("mc job {id} result carries no summary.fast"));
                }
                _ => match at(&merged, "result.stats") {
                    Some(stats) => self.tally.sweeps.push((seed, stats.clone())),
                    None => {
                        self.report.op(false, &format!("sweep job {id} result has no stats"));
                    }
                },
            }
        }
        if self.traced {
            self.trace_reads(id, kind);
        }
        self.call("metrics", "GET", "/metrics", None, true);
        Some(id)
    }

    /// The traced run's extra reads of a finished job: its
    /// `?debug=timings` breakdown and its span trace.
    fn trace_reads(&mut self, id: u64, kind: &str) {
        let timings = self
            .call("trace", "GET", &format!("/v1/jobs/{id}?debug=timings"), None, true)
            .and_then(|r| serde::json::value_from_str(&r.body).ok())
            .and_then(|v| at(&v, "timings").cloned());
        let total = timings.as_ref().and_then(|t| num(t, "total_ms")).unwrap_or(0.0);
        self.tally.timings.extend(timings);
        let trace = self
            .call("trace", "GET", &format!("/v1/jobs/{id}/trace"), None, true)
            .and_then(|r| serde::json::value_from_str(&r.body).ok());
        if let (Some(trace), "mc") = (trace, kind) {
            let probe = span_us(&trace, "deviation-probe") as f64 / 1e3;
            self.tally.probe_ms.push(probe);
            self.tally.probe_share.push(if total > 0.0 { probe / total } else { 0.0 });
            self.tally.merge_ms.push(span_us(&trace, "merge") as f64 / 1e3);
        }
    }
}

/// Summed `dur_us` of every span named `name` in a job-trace body.
fn span_us(v: &Value, name: &str) -> u64 {
    fn walk(v: &Value, name: &str) -> u64 {
        let own = match (text(v, "name"), num(v, "dur_us")) {
            (Some(n), Some(d)) if n == name => d as u64,
            _ => 0,
        };
        let kids = match at(v, "children") {
            Some(Value::Seq(items)) => items.iter().map(|c| walk(c, name)).sum(),
            _ => 0,
        };
        own + kids
    }
    match at(v, "trace.spans") {
        Some(Value::Seq(roots)) => roots.iter().map(|s| walk(s, name)).sum(),
        _ => 0,
    }
}

fn mc_body(samples: usize, shard: Option<usize>, seed: u64) -> String {
    let mut fields = vec![
        ("type", str_("mc")),
        ("target", str_(MC_CIRCUIT)),
        ("samples", int(samples as u64)),
        ("vectors", int(MC_VECTORS as u64)),
        ("coarse", Value::Bool(true)),
        ("seed", int(seed)),
        ("threads", int(1)),
    ];
    fields.extend(shard.map(|s| ("shard_samples", int(s as u64))));
    json_body(&fields)
}

/// One round: the estimate phase, then the job phase. Returns the wall
/// time of each phase \[s\].
fn round(ctx: &Ctx, s: &mut Session, index: u64) -> Vec<f64> {
    let start = Instant::now();
    let est_seed = ctx.seed_for(0x700 + index);
    // A new kept-alive connection carries this round's estimates.
    s.client.conn = None;
    for k in 0..ESTIMATES {
        let body = json_body(&[
            ("target", str_(EST_CIRCUIT)),
            ("vectors", int(EST_VECTORS as u64)),
            ("seed", int(nanoleak_core::exec::mix(est_seed, k as u64) >> 11)),
        ]);
        s.call("estimate", "POST", "/v1/estimate", Some(&body), false);
    }
    s.client.conn = None;
    let estimates_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let sweep_seed = ctx.seed_for(0x500 + index);
    let sweep = json_body(&[
        ("type", str_("sweep")),
        ("target", str_(SWEEP_CIRCUIT)),
        ("vectors", int(SWEEP_VECTORS as u64)),
        ("shard_vectors", int(SWEEP_SHARD as u64)),
        ("seed", int(sweep_seed)),
        ("threads", int(1)),
    ]);
    s.job("sweep", sweep_seed, &sweep);
    let mc_seed = ctx.mc_seed(0x600, index);
    s.job("mc", mc_seed, &mc_body(MC_SAMPLES, Some(MC_SHARD), mc_seed));
    vec![estimates_s, start.elapsed().as_secs_f64()]
}

/// A started, warmed service and what its warm-up observed.
struct Warm {
    server: Server,
    client: Client,
    secs: f64,
    estimate_ms: f64,
    mc_job: Option<u64>,
}

/// Spawns the service on a fresh cache directory and warms it: one
/// estimate characterizes the production library, one one-die coarse
/// MC job builds the traced nominal. Returns once both are done.
fn warm(ctx: &Ctx, r: &mut Report, k: usize) -> Result<Warm, String> {
    let dir = ctx.fresh_dir(&format!("cache{k}"))?;
    let start = Instant::now();
    let server = Server::spawn(&ctx.cli, &dir).map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::new(server.addr);
    let mut tally = Tally::default();
    let split = Split::default();
    let mut s = Session {
        client: &mut client,
        report: r,
        tally: &mut tally,
        ledger: None,
        split: &split,
        traced: false,
    };
    let est = json_body(&[
        ("target", str_(EST_CIRCUIT)),
        ("vectors", int(1)),
        ("seed", int(ctx.seed_for(0x20))),
    ]);
    let estimate_ms = s
        .json("estimate", "POST", "/v1/estimate", Some(&est))
        .and_then(|v| num(&v, "elapsed_ms"))
        .unwrap_or(0.0);
    let seed = ctx.mc_seed(0x600, WARM_MC_STEP);
    let mc_job = s.job("mc", seed, &mc_body(1, None, seed));
    let secs = start.elapsed().as_secs_f64();
    Ok(Warm { server, client, secs, estimate_ms, mc_job })
}

/// Re-runs every sweep job's configuration through `nanoleak-cli sweep
/// --format json`: the merged stats must match bit for bit.
fn check_sweeps(ctx: &Ctx, r: &mut Report, sweeps: &[(u64, Value)], cache_dir: &Path) {
    for (seed, stats) in sweeps {
        let (seed, vectors) = (seed.to_string(), SWEEP_VECTORS.to_string());
        let a = args(&[
            "sweep",
            SWEEP_CIRCUIT,
            "--vectors",
            &vectors,
            "--seed",
            &seed,
            "--threads",
            "1",
            "--format",
            "json",
            "--cache-dir",
            &path_arg(cache_dir),
        ]);
        if let Some((_, v)) = ctx.cli_json(r, &a) {
            r.op(
                at(&v, "stats") == Some(stats),
                &format!("sweep job (seed {seed}) stats differ from the CLI sweep"),
            );
        }
    }
}

/// The untraced run: `setup_s`, `run_s`, `peak_rss_mb`.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let w = warm(ctx, &mut r, k)?;
        setup_s.push(w.secs);
        if let Some(old) = kept.replace(w) {
            old.server.stop().map_err(|e| e.to_string())?;
        }
    }
    let Warm { server, mut client, .. } = kept.ok_or("no set-up ran")?;
    // Fewer rounds than pool steps, so no round repeats an MC seed.
    let rounds = ctx.rounds(ROUND_S, MIN_ROUNDS).min(WARM_MC_STEP as usize);
    let mut tally = Tally::default();
    let split = Split::default();
    let mut walls = Vec::new();
    for i in 0..rounds as u64 {
        let mut s = Session {
            client: &mut client,
            report: &mut r,
            tally: &mut tally,
            ledger: None,
            split: &split,
            traced: false,
        };
        walls.push(round(ctx, &mut s, i));
    }
    drop(client);
    let cache_dir = server.cache_dir.clone();
    let peak_kb = server.stop().map_err(|e| e.to_string())?;
    check_sweeps(ctx, &mut r, &tally.sweeps, &cache_dir);
    r.set("setup_s", median(&setup_s), "s");
    r.set("run_s", median_round(&walls), "s");
    r.set("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    r.note("estimate_phase_s", seq(&walls.iter().map(|w| w[0]).collect::<Vec<_>>()));
    r.note("job_phase_s", seq(&walls.iter().map(|w| w[1]).collect::<Vec<_>>()));
    r.note("setup_samples_s", seq(&setup_s));
    r.note("estimates", Value::Int(tally.estimates.len() as i128));
    Ok(r)
}

fn scrape(client: &mut Client, r: &mut Report) -> Scrape {
    match client.call("GET", "/metrics", None, true) {
        Ok((resp, _)) if resp.ok() => {
            r.op(true, "GET /metrics");
            Scrape::parse(&resp.body).unwrap_or_else(|e| {
                r.op(false, &format!("/metrics does not parse: {e}"));
                Scrape::default()
            })
        }
        other => {
            r.op(false, &format!("GET /metrics: {:?}", other.map(|(resp, _)| resp.status)));
            Scrape::default()
        }
    }
}

/// The traced run: one set-up, untraced rounds for the HTTP figures,
/// then traced rounds that also read each job's `?debug=timings` and
/// trace, charging every call to a layer, and `/metrics` diffs around
/// them.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let Warm { server, mut client, estimate_ms, mc_job, .. } = warm(ctx, &mut r, 0)?;
    let warmed = scrape(&mut client, &mut r);
    let (solves, iterations) = newton(&warmed);
    r.set("solver.newton_solves.setup", solves, "count");
    r.set("solver.newton_iterations.setup", iterations, "count");
    r.set("cells.characterize_ms", estimate_ms, "ms");
    if let Some(id) = mc_job {
        if let Ok((resp, _)) = client.call("GET", &format!("/v1/jobs/{id}/trace"), None, true) {
            if let Ok(v) = serde::json::value_from_str(&resp.body) {
                r.set("cells.sens_build_ms", span_us(&v, "library-sens") as f64 / 1e3, "ms");
            }
        }
    }

    let split = Split::measure(&server.cache_dir, ctx.seed_for(0x800))?;
    r.set("netlist.resolve_ms.request", split.resolve_ms, "ms");
    r.set("core.estimate_batch_ms.request", split.batch_ms, "ms");

    let mut plain = Tally::default();
    for i in 0..TRACE_ROUNDS {
        let mut s = Session {
            client: &mut client,
            report: &mut r,
            tally: &mut plain,
            ledger: None,
            split: &split,
            traced: false,
        };
        round(ctx, &mut s, i);
    }
    let ok_ms: Vec<f64> = plain.estimates.iter().filter(|e| !e.failed).map(|e| e.ms).collect();
    r.set("http_p50_ms", median(&ok_ms), "ms");
    if let Some(t) = tail(&plain.estimates) {
        r.set("http_tail_ms", t.ms, "ms");
        r.note("http_tail_percentile", Value::F64(t.percentile));
        r.note("http_tail_samples", Value::Int(t.samples as i128));
    }
    r.set("job_turnaround_s", median(&plain.turnaround_s), "s");

    let before = scrape(&mut client, &mut r);
    let mut ledger = Ledger::new("core");
    let mut t = Tally::default();
    for i in TRACE_ROUNDS..2 * TRACE_ROUNDS {
        let mut s = Session {
            client: &mut client,
            report: &mut r,
            tally: &mut t,
            ledger: Some(&mut ledger),
            split: &split,
            traced: true,
        };
        round(ctx, &mut s, i);
    }
    ledger.finish(&mut r);
    let d = scrape(&mut client, &mut r).since(&before);
    let (solves, iterations) = newton(&d);
    r.set("solver.newton_solves.probe", solves, "count");
    r.set("solver.newton_iterations.probe", iterations, "count");
    let (sum, count) = (
        d.get("nanoleak_delta_library_seconds_sum"),
        d.get("nanoleak_delta_library_seconds_count"),
    );
    r.set(
        "cells.delta_library_ms_per_die",
        if count > 0.0 { sum / count * 1e3 } else { 0.0 },
        "ms",
    );
    r.set(
        "cells.entry_fallbacks",
        d.get("nanoleak_mc_fallback_total{reason=\"tolerance\"}"),
        "count",
    );
    r.set(
        "variation.dies_full",
        d.get("nanoleak_mc_fallback_total{reason=\"unrecognized\"}"),
        "count",
    );
    let blocks = d.get("nanoleak_block_blocks_total");
    let waste = d.get("nanoleak_block_tail_lane_waste_total");
    r.set(
        "engine.block_lane_waste_ratio",
        if blocks > 0.0 { waste / (blocks * 64.0) } else { 0.0 },
        "ratio",
    );
    r.set(
        "engine.plan_cache_hit_ratio",
        ratio(d.get("nanoleak_plan_cache_hits_total"), d.get("nanoleak_plan_cache_misses_total")),
        "ratio",
    );
    let memo_miss =
        d.get("nanoleak_cache_disk_hits_total") + d.get("nanoleak_cache_characterizations_total");
    r.set(
        "engine.memo_hit_ratio",
        ratio(d.get("nanoleak_cache_memory_hits_total"), memo_miss),
        "ratio",
    );

    r.set("server.connect_ms_p50", median(&t.connect_ms), "ms");
    r.set("server.handler_ms_p50", median(&t.handler_ms), "ms");
    r.set("server.outside_handler_ms_p50", median(&t.outside_ms), "ms");
    let timing =
        |key: &str| median(&t.timings.iter().filter_map(|v| num(v, key)).collect::<Vec<_>>());
    r.set("server.queue_wait_ms_p50", timing("queue_wait_ms"), "ms");
    r.set("server.job_characterize_ms_p50", timing("characterize_ms"), "ms");
    r.set("server.job_estimate_ms_p50", timing("estimate_ms"), "ms");
    r.set("server.job_merge_ms_p50", timing("merge_ms"), "ms");
    r.set("server.job_serialize_ms_p50", timing("serialize_ms"), "ms");
    r.set("server.polls_per_job", median(&t.polls), "count");
    for class in ["estimate", "job_status", "job_result", "shard_page", "metrics"] {
        let bytes = t.bytes.get(class).map_or(0.0, |b| median(b));
        r.set(&format!("server.response_bytes.{class}"), bytes, "bytes");
    }
    r.set("obs.metrics_scrape_ms", median(&t.scrape_ms), "ms");
    r.set("engine.mc_probe_ms", median(&t.probe_ms), "ms");
    r.set("engine.mc_probe_share", median(&t.probe_share), "ratio");
    r.set("engine.mc_merge_ms", median(&t.merge_ms), "ms");

    drop(client);
    let cache_dir = server.cache_dir.clone();
    server.stop().map_err(|e| e.to_string())?;
    check_sweeps(ctx, &mut r, &[plain.sweeps, t.sweeps].concat(), &cache_dir);
    r.note("estimates", Value::Int((plain.estimates.len() + t.estimates.len()) as i128));
    finish_per_layer(&mut r);
    Ok(r)
}
