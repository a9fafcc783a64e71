//! `paper_suite` — the paper's Fig. 12 use and the repository's main
//! CLI traffic.
//!
//! Why it exists: after set-up (one cold call fills an empty disk
//! cache with the production 11-point library) every call loads that
//! library in milliseconds, so the work is bound by the `core` plan
//! compile and kernels and the `engine`/`opt` search loops, with
//! almost no solver work. A simulate/resolve-kernel or
//! incremental-evaluation change shows here; an MC-only change must
//! show nothing. Each plan is compiled once per circuit and amortized
//! over a thousand vectors — the opposite of `mc_s838`, which compiles
//! a plan per die and uses it for 64.
//!
//! Which end-to-end metric each layer metric should move:
//! - `core.compile_ms.<c>`, `core.block_prepare_ms.<c>`,
//!   `core.block_patterns_per_s.<c>`, `engine.sweep_ms.<c>`,
//!   `engine.sweep_merge_ms` → `run_s` (through
//!   `sweep_gate_evals_per_s`);
//! - `core.scalar_patterns_per_s.<c>`, `engine.mlv_ms.<c>`,
//!   `engine.mlv_evaluations.<c>`, `opt.*` → `run_s` (through `mlv_s`
//!   and `optimize_s`);
//! - `cells.characterize_ms`, `solver.newton_*.setup` → `setup_s`;
//! - `netlist.resolve_ms`, `engine.library_load_ms`,
//!   `cli.overhead_ms` → `run_s` (per-call fixed costs);
//! - `core.reference_ms_per_vector`, `core.estimator_speedup_x`,
//!   `estimator_err_pct` → none: they record the paper's accuracy and
//!   speed claim beside the timings.

use std::path::Path;
use std::time::Instant;

use nanoleak_cells::{CellLibrary, CharacterizeOptions, OperatingPoint};
use nanoleak_core::{
    accuracy, reference_leakage, CompiledEstimator, EstimatorMode, ReferenceOptions,
};
use nanoleak_device::Technology;
use nanoleak_engine::{
    mlv_search, pattern_for_index, sweep_streaming, LibraryCache, MlvConfig, MlvGoal, MlvStrategy,
    SweepConfig,
};
use nanoleak_opt::{optimize_with, OptimizeConfig};
use serde::Value;

use crate::ctx::{
    args, at, circuit as resolve, cli_overhead_ms, finish_per_layer, num, path_arg, Ctx,
};
use crate::ledger::{ratio, set_newton, Ledger};
use crate::procs::Finished;
use crate::report::{median, median_round, seq, seqs, Report};
use crate::spec::{CIRCUITS, SMALL};
use crate::speed::{Kernel, Probe};

const SWEEP_VECTORS: usize = 1024;
const MLV_RESTARTS: usize = 4;
const MLV_MAX_STEPS: usize = 64;
const OPT_CIRCUIT: &str = "s1196";
const OPT_ROUNDS: usize = 2;
/// The circuit whose default sweep is re-run with `--lanes 1`: the
/// block kernel must give bit-identical statistics.
const LANES_CHECK: &str = "s1196";
const SETUPS: usize = 3;
/// What this workload's time is bound by: the sweeps of the larger
/// circuits and the hill climbs follow the cache-bound probe kernel
/// (see [`crate::speed`]).
const SPEED_KERNELS: &[Kernel] = &[Kernel::Memory];
/// Approximate cost of one round on the reference host (2 vCPUs).
const ROUND_S: f64 = 3.0;
/// Rounds at least. The host's slow spells stretch a large-circuit
/// sweep by up to a third, and a hill climb's length moves with its
/// seed, so each call's median takes six samples.
const MIN_ROUNDS: usize = 6;
const REFERENCE_VECTORS: usize = 2;
/// Minimum measuring time of one steady-state kernel probe.
const PROBE_S: f64 = 0.05;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Sweep,
    ScalarSweep,
    Mlv,
    Optimize,
}

#[derive(Clone, Copy)]
struct Call {
    kind: Kind,
    circuit: &'static str,
    seed: u64,
}

/// Round `round`: a sweep of every suite circuit, the `--lanes 1`
/// re-run, a hill-climb MLV per small circuit, and one optimization.
/// Every round draws its own seeds: a hill climb's length depends on
/// its seed (±20–30% per call), so `run_s`, which takes each call at
/// its median over the rounds, then averages over seeds as well as
/// over the host's noise.
fn calls(ctx: &Ctx, round: u64) -> Vec<Call> {
    let seed = |tag: u64| ctx.seed_for(tag + (round << 12));
    let sweep_seed =
        |c: &str| seed(0x100 + CIRCUITS.iter().position(|x| *x == c).unwrap_or(0) as u64);
    let mut v: Vec<Call> = CIRCUITS
        .iter()
        .map(|&c| Call { kind: Kind::Sweep, circuit: c, seed: sweep_seed(c) })
        .collect();
    v.push(Call { kind: Kind::ScalarSweep, circuit: LANES_CHECK, seed: sweep_seed(LANES_CHECK) });
    for (i, &c) in SMALL.iter().enumerate() {
        v.push(Call { kind: Kind::Mlv, circuit: c, seed: seed(0x200 + i as u64) });
    }
    v.push(Call { kind: Kind::Optimize, circuit: OPT_CIRCUIT, seed: seed(0x300) });
    v
}

fn cli_args(call: &Call, dir: &Path) -> Vec<String> {
    let (seed, dir) = (call.seed.to_string(), path_arg(dir));
    let tail = ["--seed", &seed, "--threads", "1", "--format", "json", "--cache-dir", &dir];
    let vectors = SWEEP_VECTORS.to_string();
    let (restarts, rounds) = (MLV_RESTARTS.to_string(), OPT_ROUNDS.to_string());
    let head: Vec<&str> = match call.kind {
        Kind::Sweep => vec!["sweep", call.circuit, "--vectors", &vectors],
        Kind::ScalarSweep => vec!["sweep", call.circuit, "--vectors", &vectors, "--lanes", "1"],
        Kind::Mlv => vec!["mlv", call.circuit, "--strategy", "hillclimb", "--restarts", &restarts],
        Kind::Optimize => {
            vec!["optimize", call.circuit, "--rounds", &rounds, "--restarts", &restarts]
        }
    };
    args(&[head.as_slice(), &tail].concat())
}

fn setup_args(ctx: &Ctx, dir: &Path) -> Vec<String> {
    let seed = ctx.seed_for(0x10).to_string();
    args(&[
        "estimate",
        "s838",
        "--vectors",
        "1",
        "--seed",
        &seed,
        "--format",
        "json",
        "--cache-dir",
        &path_arg(dir),
    ])
}

/// Runs one round of CLI calls and its answer checks. Returns each
/// call's output and its host-speed scale (see [`crate::speed`]).
fn cli_round(
    ctx: &Ctx,
    r: &mut Report,
    dir: &Path,
    calls: &[Call],
    probe: &mut Probe,
) -> (Vec<Option<(Finished, Value)>>, Vec<f64>) {
    let (outs, scales): (Vec<_>, Vec<_>) =
        calls.iter().map(|c| probe.around(|| ctx.cli_json(r, &cli_args(c, dir)))).unzip();
    let find = |kind: Kind| calls.iter().position(|c| c.kind == kind && c.circuit == LANES_CHECK);
    if let (Some(a), Some(b)) = (find(Kind::Sweep), find(Kind::ScalarSweep)) {
        if let (Some((_, a)), Some((_, b))) = (&outs[a], &outs[b]) {
            let same = at(a, "stats").is_some() && at(a, "stats") == at(b, "stats");
            r.op(
                same,
                &format!("{LANES_CHECK}: --lanes 1 sweep stats differ from the block sweep"),
            );
        }
    }
    for (call, out) in calls.iter().zip(&outs) {
        if let (Kind::Optimize, Some((_, v))) = (call.kind, out) {
            let ok = matches!((num(v, "improved_a"), num(v, "baseline_a")), (Some(i), Some(b)) if i <= b);
            r.op(ok, &format!("{}: optimize reported improved_a > baseline_a", call.circuit));
        }
    }
    (outs, scales)
}

/// The untraced run: `setup_s`, `run_s` (both at the reference speed
/// of the cache-bound probe kernel, see [`crate::speed`]),
/// `peak_rss_mb`.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let mut probe = Probe::new(SPEED_KERNELS);
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut dir = ctx.dir.clone();
    for k in 0..SETUPS {
        dir = ctx.fresh_dir(&format!("cache{k}"))?;
        let (out, scale) = probe.around(|| ctx.cli_json(&mut r, &setup_args(ctx, &dir)));
        if let Some((f, _)) = out {
            setup_wall_s.push(f.wall.as_secs_f64());
            setup_s.push(f.wall.as_secs_f64() * scale);
        }
    }
    let rounds = ctx.rounds(ROUND_S, MIN_ROUNDS);
    let (mut walls, mut scaled, mut peak_kb) = (Vec::new(), Vec::new(), 0u64);
    for round in 0..rounds as u64 {
        let (outs, scales) = cli_round(ctx, &mut r, &dir, &calls(ctx, round), &mut probe);
        let wall: Vec<f64> =
            outs.iter().map(|o| o.as_ref().map_or(0.0, |(f, _)| f.wall.as_secs_f64())).collect();
        scaled.push(wall.iter().zip(&scales).map(|(w, k)| w * k).collect::<Vec<_>>());
        walls.push(wall);
        peak_kb = outs.iter().flatten().map(|(f, _)| f.max_rss_kb).fold(peak_kb, u64::max);
    }
    r.set("setup_s", median(&setup_s), "s");
    r.set("run_s", median_round(&scaled), "s");
    r.set("peak_rss_mb", peak_kb as f64 / 1024.0, "MB");
    r.note("run_wall_s", Value::F64(median_round(&walls)));
    r.note("setup_wall_s", Value::F64(median(&setup_wall_s)));
    r.note("probe_ms", Value::F64(probe.median_ms()));
    r.note("call_s", seqs(&scaled));
    r.note("call_wall_s", seqs(&walls));
    r.note("setup_samples_s", seq(&setup_s));
    r.note("calls_per_round", Value::Int(walls.first().map_or(0, Vec::len) as i128));
    Ok(r)
}

/// Replays set-up and one round in-process under the ledger, with the
/// calls each CLI command makes: library characterize/load, generate +
/// normalize, sweep, MLV, optimize. Each call starts from a cold plan
/// cache, as a fresh process does.
fn replay(calls: &[Call], ledger: &mut Ledger, r: &mut Report, dir: &Path) -> Result<(), String> {
    let tech = OperatingPoint::default().tech(&Technology::d25());
    let opts = CharacterizeOptions::default();
    let store = LibraryCache::new(dir);
    let load = || {
        store
            .load_or_characterize(&tech, 300.0, &opts)
            .map(|(lib, _)| lib)
            .map_err(|e| e.to_string())
    };
    let (lib, i) = ledger.step("engine", load);
    lib?;
    set_newton(r, "setup", &i.diff);
    r.set("cells.characterize_ms", i.ms, "ms");
    let (mut resolve_ms, mut load_ms, mut merge_ms) = (0.0, Vec::new(), 0.0);
    for call in calls {
        nanoleak_engine::plan_cache::clear();
        let (circuit, i) = ledger.step("netlist", || resolve(call.circuit));
        let circuit = circuit?;
        resolve_ms += i.ms;
        let (lib, i) = ledger.step("engine", load);
        let lib = lib?;
        load_ms.push(i.ms);
        let mlv = MlvConfig {
            goal: MlvGoal::Min,
            strategy: MlvStrategy::HillClimb { restarts: MLV_RESTARTS, max_steps: MLV_MAX_STEPS },
            seed: call.seed,
            threads: 1,
            mode: EstimatorMode::Lut,
            lanes: 0,
        };
        let c = call.circuit;
        match call.kind {
            Kind::Sweep | Kind::ScalarSweep => {
                let lanes = if call.kind == Kind::ScalarSweep { 1 } else { 0 };
                let config = SweepConfig {
                    vectors: SWEEP_VECTORS,
                    seed: call.seed,
                    threads: 1,
                    mode: EstimatorMode::Lut,
                    lanes,
                };
                let (out, i) =
                    ledger.step("engine", || sweep_streaming(&circuit, &lib, &config, 0, |_| true));
                out.map_err(|e| e.to_string())?.ok_or("sweep cancelled")?;
                if call.kind == Kind::Sweep {
                    let compile = i.diff.get("nanoleak_plan_cache_compile_seconds_sum") * 1e3;
                    r.set(&format!("core.compile_ms.{c}"), compile, "ms");
                    r.set(
                        &format!("core.block_prepare_ms.{c}"),
                        (i.span_ms("compile") - compile).max(0.0),
                        "ms",
                    );
                    r.set(&format!("engine.sweep_ms.{c}"), i.ms, "ms");
                    merge_ms += i.span_ms("merge");
                }
            }
            Kind::Mlv => {
                let (out, i) = ledger.step("engine", || mlv_search(&circuit, &lib, &mlv));
                let out = out.map_err(|e| e.to_string())?;
                r.set(&format!("engine.mlv_ms.{c}"), i.ms, "ms");
                r.set(
                    &format!("engine.mlv_evaluations.{c}"),
                    out.telemetry.evaluations as f64,
                    "count",
                );
            }
            Kind::Optimize => {
                let config = OptimizeConfig {
                    mlv,
                    max_rounds: OPT_ROUNDS,
                    canonicalize: true,
                    permute: true,
                    remap: true,
                };
                let (out, i) =
                    ledger.step("opt", || optimize_with(&circuit, &lib, &config, |_| true));
                let out = out.map_err(|e| e.to_string())?.ok_or("optimize cancelled")?;
                r.set("opt.evaluations", out.evaluations as f64, "count");
                r.set("opt.rounds", out.rounds.len() as f64, "count");
                r.set("opt.evals_per_s", out.evaluations as f64 / (i.ms / 1e3), "1/s");
                r.set("opt.improvement_pct", out.improvement_percent(), "%");
            }
        }
    }
    r.set("netlist.resolve_ms", resolve_ms, "ms");
    r.set("engine.library_load_ms", median(&load_ms), "ms");
    r.set("engine.sweep_merge_ms", merge_ms, "ms");
    Ok(())
}

/// Steady-state kernel rates (outside the ledger): block patterns/s on
/// every circuit, scalar patterns/s on the MLV circuits.
fn kernel_probes(r: &mut Report, lib: &CellLibrary, seed: u64) -> Result<(), String> {
    for c in CIRCUITS {
        let circuit = resolve(c)?;
        let plan = CompiledEstimator::compile(&circuit, lib).map_err(|e| e.to_string())?;
        plan.prepare_block();
        let mut block = plan.block_scratch();
        let (t, mut n) = (Instant::now(), 0usize);
        while n < 4 || t.elapsed().as_secs_f64() < PROBE_S {
            plan.estimate_index_block_into(&mut block, seed, n * 64, 64, EstimatorMode::Lut)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(block.totals());
            n += 1;
        }
        r.set(
            &format!("core.block_patterns_per_s.{c}"),
            (n * 64) as f64 / t.elapsed().as_secs_f64(),
            "1/s",
        );
        if SMALL.contains(&c) {
            let mut scalar = plan.scratch();
            let (t, mut n) = (Instant::now(), 0usize);
            while n < 64 || t.elapsed().as_secs_f64() < PROBE_S {
                let out = plan
                    .estimate_index_into(&mut scalar, seed, n, EstimatorMode::Lut)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(out);
                n += 1;
            }
            r.set(
                &format!("core.scalar_patterns_per_s.{c}"),
                n as f64 / t.elapsed().as_secs_f64(),
                "1/s",
            );
        }
    }
    Ok(())
}

/// Fig. 12a: the estimator against the full-circuit reference solve on
/// the same vectors of every small circuit (outside the ledger).
fn reference(r: &mut Report, lib: &CellLibrary, seed: u64) -> Result<(), String> {
    let before = crate::prom::global();
    let (mut ref_s, mut est_s, mut errs) = (0.0, 0.0, Vec::new());
    for c in SMALL {
        let circuit = resolve(c)?;
        let plan = CompiledEstimator::compile(&circuit, lib).map_err(|e| e.to_string())?;
        let mut scratch = plan.scratch();
        for k in 0..REFERENCE_VECTORS {
            let pattern = pattern_for_index(&circuit, seed, k);
            let t = Instant::now();
            let reference = reference_leakage(
                &circuit,
                &lib.tech,
                lib.temp,
                &pattern,
                &ReferenceOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            ref_s += t.elapsed().as_secs_f64();
            const REPEAT: usize = 32;
            let t = Instant::now();
            for _ in 0..REPEAT {
                let out = plan
                    .estimate_into(&mut scratch, &pattern, EstimatorMode::Lut)
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(out);
            }
            est_s += t.elapsed().as_secs_f64() / REPEAT as f64;
            let estimate = plan
                .estimate_report(&mut scratch, &pattern, EstimatorMode::Lut)
                .map_err(|e| e.to_string())?;
            errs.push(accuracy(&estimate, &reference.leakage).total_rel_err.abs());
        }
    }
    set_newton(r, "reference", &crate::prom::global().since(&before));
    let n = errs.len() as f64;
    r.set("estimator_err_pct", errs.iter().sum::<f64>() / n * 100.0, "%");
    r.set("core.reference_ms_per_vector", ref_s / n * 1e3, "ms");
    r.set("core.estimator_speedup_x", ref_s / est_s, "x");
    Ok(())
}

/// The traced run: one CLI set-up and round for the end-to-end side,
/// a traced in-process replay of the same calls, then the kernel and
/// accuracy probes.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let calls = calls(ctx, 0);

    let dir = ctx.fresh_dir("cli")?;
    ctx.cli_json(&mut r, &setup_args(ctx, &dir));
    let (outs, _) = cli_round(ctx, &mut r, &dir, &calls, &mut Probe::new(SPEED_KERNELS));
    let mut cli_ms = 0.0;
    let (mut gate_evals, mut sweep_s, mut mlv_s, mut opt_s) = (0.0, 0.0, 0.0, 0.0);
    for (call, out) in calls.iter().zip(&outs) {
        let Some((f, v)) = out else { continue };
        cli_ms += cli_overhead_ms(&mut r, f);
        let wall = f.wall.as_secs_f64();
        match call.kind {
            Kind::Sweep => {
                gate_evals += num(v, "gates").unwrap_or(0.0) * SWEEP_VECTORS as f64;
                sweep_s += wall;
            }
            Kind::ScalarSweep => {}
            Kind::Mlv => mlv_s += wall,
            Kind::Optimize => opt_s += wall,
        }
    }
    r.set("sweep_gate_evals_per_s", gate_evals / sweep_s.max(1e-9), "1/s");
    r.set("mlv_s", mlv_s, "s");
    r.set("optimize_s", opt_s, "s");

    let traced_dir = ctx.fresh_dir("traced")?;
    let mut ledger = Ledger::new("core");
    let before = ledger.scrape();
    replay(&calls, &mut ledger, &mut r, &traced_dir)?;
    let d = ledger.scrape().since(&before);
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
    let traced_ms = ledger.finish(&mut r);
    r.set("cli.overhead_ms", cli_ms, "ms");

    let tech = OperatingPoint::default().tech(&Technology::d25());
    let (lib, _) = LibraryCache::new(&traced_dir)
        .load_or_characterize(&tech, 300.0, &CharacterizeOptions::default())
        .map_err(|e| e.to_string())?;
    kernel_probes(&mut r, &lib, ctx.seed_for(0x100))?;
    reference(&mut r, &lib, ctx.seed_for(0x180))?;
    r.note("traced_replay_ms", Value::F64(traced_ms));
    finish_per_layer(&mut r);
    Ok(r)
}
