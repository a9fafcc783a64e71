//! `mc_s838` — the paper's Figs. 10–11 use: circuit Monte-Carlo on
//! s838 (coarse grid, 64 vectors per die), once in the default fast
//! mode and once with `--exact`, with the same seed so both modes see
//! the same dies.
//!
//! Why it exists: the work is bound by the solver (the traced nominal
//! build, the exact deviation probe, every exact die), per-die library
//! derivation and a plan compile per die used for only 64 vectors —
//! the layers `paper_suite` barely touches. Because both modes see
//! identical dies, speed bought with error shows as worse
//! `mc_*_err_*` figures. The engine memo only ever misses here (once
//! per die), where `serve_mix` only hits.
//!
//! Which end-to-end metric each layer metric should move:
//! - `solver.newton_*.{sens,probe,exact}`,
//!   `cells.characterize_ms_per_die.<cell>`, `cells.sens_build_ms`,
//!   `engine.mc_probe_ms`, `engine.mc_probe_share` → `run_s` (through
//!   `mc_exact_dies_per_s` and `mc_fast_dies_per_s`);
//! - `cells.delta_library_ms_per_die`, `cells.derived_entry_ratio`,
//!   `cells.entry_fallbacks`, `variation.dies_full`,
//!   `core.{compile,loaded_arm,unloaded_arm}_ms_per_die` → `run_s`
//!   (through `mc_fast_dies_per_s`) and the `mc_*_err_*` figures;
//! - `cli.overhead_ms` → `run_s`.

use std::time::Instant;

use nanoleak_cells::DEFAULT_DELTA_TOL;
use nanoleak_core::{BlockScratch, CompiledEstimator, EstimatorMode};
use nanoleak_device::Technology;
use nanoleak_engine::{
    mc_streaming_mode, DeltaLibraryProvider, McMode, McReport, MemoLibraryCache,
};
use nanoleak_netlist::{Circuit, Pattern, PatternBlock};
use nanoleak_variation::{
    char_opts_for, CircuitMcConfig, DeltaProvider, McSummary, VariationSigmas,
    TABLE_AMORTIZE_VECTORS,
};
use rand::SeedableRng;
use serde::{Deserialize, Value};

use crate::ctx::{args, at, cli_overhead_ms, finish_per_layer, ms, path_arg, Ctx};
use crate::ledger::{set_newton, Ledger};
use crate::report::{median, median_round, seq, seqs, Report};
use crate::spec::MC_CELLS;
use crate::speed::{Kernel, Probe};

const CIRCUIT: &str = "s838";
/// Dies per `mc` call.
const DIES: usize = 16;
const VECTORS: usize = 64;
const SIGMA_VT: f64 = 30e-3;
const SETUPS: usize = 3;
/// What this workload's time is bound by: Newton solves and per-die
/// library and plan builds sit between the cache- and compute-bound
/// probe kernels (see [`crate::speed`]).
const SPEED_KERNELS: &[Kernel] = &[Kernel::Memory, Kernel::Compute];
/// Approximate cost of one fast + exact round on the reference host.
const ROUND_S: f64 = 7.5;
/// Rounds at least, so each call's median has five samples.
const MIN_ROUNDS: usize = 5;
/// Dies timed one public call at a time for the per-die split.
const PER_DIE_PROBE: usize = 8;

/// The fast path's error against the exact path on the same dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McErrors {
    /// |fast − exact| / exact of the loaded total-leakage mean \[%\].
    pub mean_err_pct: f64,
    /// |fast − exact| / exact of the loaded total-leakage std \[%\].
    pub std_err_pct: f64,
    /// |fast − exact| of the Fig. 11 `std_shift` \[percentage points\].
    pub std_shift_err_pp: f64,
}

/// Compares a fast summary with the exact one of the same dies.
pub fn compare(fast: &McSummary, exact: &McSummary) -> McErrors {
    let rel = |f: f64, e: f64| (f - e).abs() / e.abs() * 100.0;
    McErrors {
        mean_err_pct: rel(fast.loaded.total.mean, exact.loaded.total.mean),
        std_err_pct: rel(fast.loaded.total.std, exact.loaded.total.std),
        std_shift_err_pp: (fast.std_shift - exact.std_shift).abs() * 100.0,
    }
}

fn mc_args(ctx: &Ctx, samples: usize, exact: bool, dir: &std::path::Path) -> Vec<String> {
    let (samples, vectors, seed) =
        (samples.to_string(), VECTORS.to_string(), ctx.mc_seed(0x400, 0).to_string());
    let mut a = args(&[
        "mc",
        CIRCUIT,
        "--samples",
        &samples,
        "--vectors",
        &vectors,
        "--seed",
        &seed,
        "--threads",
        "1",
        "--coarse",
        "--format",
        "json",
        "--cache-dir",
        &path_arg(dir),
    ]);
    if exact {
        a.push("--exact".into());
    }
    a
}

fn summary(v: &Value) -> Option<McSummary> {
    McSummary::from_value(at(v, "summary")?).ok()
}

/// One fast + exact round through the CLI, with its answer checks.
/// Returns the `(fast, exact)` outputs and their host-speed scales
/// (see [`crate::speed`]).
fn cli_round(
    ctx: &Ctx,
    r: &mut Report,
    dir: &std::path::Path,
    probe: &mut Probe,
) -> ([Option<(crate::procs::Finished, McSummary)>; 2], [f64; 2]) {
    let mut scales = [0.0; 2];
    let outs = [false, true].map(|exact| {
        let (out, scale) = probe.around(|| ctx.cli_json(r, &mc_args(ctx, DIES, exact, dir)));
        scales[usize::from(exact)] = scale;
        let (f, v) = out?;
        let s = summary(&v);
        let ok = s.as_ref().is_some_and(|s| s.samples == DIES && s.fast.is_some() != exact);
        r.op(
            ok,
            &format!(
                "mc --exact={exact}: summary missing, wrong size, or fast report {}",
                if exact { "present" } else { "absent" }
            ),
        );
        Some((f, s?))
    });
    (outs, scales)
}

/// The untraced run: `setup_s`, `run_s` (both at the reference speed
/// of the cache- and compute-bound probe kernels together, see
/// [`crate::speed`]), `peak_rss_mb`.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let mut probe = Probe::new(SPEED_KERNELS);
    // `mc` keeps no persistent state today, so its one-time cost before
    // the first answer is a cold first answer: a one-die fast call on an
    // empty cache directory. Work a later change moves into persistent
    // state lands here.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut dir = ctx.dir.clone();
    for k in 0..SETUPS {
        dir = ctx.fresh_dir(&format!("cache{k}"))?;
        let (out, scale) = probe.around(|| ctx.cli_json(&mut r, &mc_args(ctx, 1, false, &dir)));
        if let Some((f, _)) = out {
            setup_wall_s.push(f.wall.as_secs_f64());
            setup_s.push(f.wall.as_secs_f64() * scale);
        }
    }
    let rounds = ctx.rounds(ROUND_S, MIN_ROUNDS);
    let (mut walls, mut scaled, mut peak_kb) = (Vec::new(), Vec::new(), 0u64);
    let mut first: Option<[Option<McSummary>; 2]> = None;
    for _ in 0..rounds {
        let (outs, scales) = cli_round(ctx, &mut r, &dir, &mut probe);
        let wall: Vec<f64> =
            outs.iter().map(|o| o.as_ref().map_or(0.0, |(f, _)| f.wall.as_secs_f64())).collect();
        scaled.push(wall.iter().zip(&scales).map(|(w, k)| w * k).collect::<Vec<_>>());
        walls.push(wall);
        peak_kb = outs.iter().flatten().map(|(f, _)| f.max_rss_kb).fold(peak_kb, u64::max);
        // Every round repeats the same seed: the summaries must repeat
        // bit for bit (the determinism contract).
        let sums = outs.map(|o| o.map(|(_, s)| s));
        match &first {
            None => first = Some(sums),
            Some(f) => {
                r.op(*f == sums, "mc summaries differ between rounds of the same seed");
            }
        }
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
    r.note("dies_per_call", Value::Int(DIES as i128));
    Ok(r)
}

fn mc_config(ctx: &Ctx, circuit: &Circuit) -> CircuitMcConfig {
    let seed = ctx.mc_seed(0x400, 0);
    CircuitMcConfig {
        samples: DIES,
        seed,
        sigmas: VariationSigmas::paper_nominal().with_vt_inter(SIGMA_VT).with_vt_intra(SIGMA_VT),
        op: Default::default(),
        vectors: VECTORS,
        pattern_seed: seed,
        threads: 1,
        char_opts: char_opts_for(circuit, true),
        lanes: 0,
    }
}

/// Replays both calls in-process under the ledger, each on a fresh RAM
/// memo as each cold process has. Returns the fast call's memo, which
/// holds the traced nominal, and the circuit.
fn replay(
    ctx: &Ctx,
    ledger: &mut Ledger,
    r: &mut Report,
) -> Result<(MemoLibraryCache, Circuit), String> {
    let tech = Technology::d25();
    let (circuit, resolved) = ledger.step("netlist", || crate::ctx::circuit(CIRCUIT));
    let circuit = circuit?;
    r.set("netlist.resolve_ms", resolved.ms, "ms");
    let config = mc_config(ctx, &circuit);
    let fast_memo = MemoLibraryCache::memory_only();
    let nominal = config.op.tech(&tech);
    let (prepared, sens) = ledger.step("cells", || {
        DeltaLibraryProvider::prepare(
            &fast_memo,
            &nominal,
            config.op.temp,
            &config.char_opts,
            DEFAULT_DELTA_TOL,
        )
        .map(|_| ())
    });
    prepared.map_err(|e| e.to_string())?;
    let run = |memo: &MemoLibraryCache, mode: McMode| -> Result<McReport, String> {
        mc_streaming_mode(&circuit, &tech, memo, &config, mode, 0, |_| true)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "mc cancelled".to_string())
    };
    let (fast, f) = ledger.step("engine", || run(&fast_memo, McMode::fast()));
    let fast = fast?;
    let exact_memo = MemoLibraryCache::memory_only();
    let (exact, e) = ledger.step("engine", || run(&exact_memo, McMode::Exact));
    exact?;
    set_newton(r, "sens", &sens.diff);
    set_newton(r, "probe", &f.diff);
    set_newton(r, "exact", &e.diff);
    r.set("cells.sens_build_ms", sens.ms, "ms");
    let probe = f.span_ms("deviation-probe");
    r.set("engine.mc_probe_ms", probe, "ms");
    r.set("engine.mc_probe_share", probe / (sens.ms + f.ms), "ratio");
    r.set("engine.mc_merge_ms", f.span_ms("merge"), "ms");
    let (sum, count) = (
        f.diff.get("nanoleak_delta_library_seconds_sum"),
        f.diff.get("nanoleak_delta_library_seconds_count"),
    );
    r.set(
        "cells.delta_library_ms_per_die",
        if count > 0.0 { sum / count * 1e3 } else { 0.0 },
        "ms",
    );
    if let Some(report) = fast.summary.fast {
        let d = report.diag;
        let entries = (d.entries_derived + d.entries_fallback) as f64;
        r.set(
            "cells.derived_entry_ratio",
            if entries > 0.0 { d.entries_derived as f64 / entries } else { 0.0 },
            "ratio",
        );
        r.set("cells.entry_fallbacks", d.entries_fallback as f64, "count");
        r.set("variation.dies_full", d.dies_full as f64, "count");
    }
    for cell in MC_CELLS {
        let us: u64 = e
            .trace
            .spans
            .iter()
            .filter(|s| {
                s.name == "characterize" && s.attrs.iter().any(|(k, v)| *k == "cell" && v == cell)
            })
            .map(|s| s.dur_us)
            .sum();
        r.set(
            &format!("cells.characterize_ms_per_die.{cell}"),
            us as f64 / 1e3 / DIES as f64,
            "ms",
        );
    }
    if e.trace.dropped > 0 {
        r.note("exact_spans_dropped", Value::Int(i128::from(e.trace.dropped)));
    }
    Ok((fast_memo, circuit))
}

/// Die `index`'s technology, drawn the way the Monte-Carlo engine
/// draws it: one die-wide inter + intra perturbation from stream
/// `mix(seed, index)`.
fn die_tech(nominal: &Technology, config: &CircuitMcConfig, index: usize) -> Technology {
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(nanoleak_core::exec::mix(config.seed, index as u64));
    let inter = config.sigmas.sample_inter(&mut rng);
    let die = inter.combined(&config.sigmas.sample_intra(&mut rng));
    let mut tech = nominal.clone();
    tech.nmos = die.apply(&tech.nmos);
    tech.pmos = die.apply(&tech.pmos);
    tech.vdd += die.dvdd;
    tech
}

/// Times one fast die's public calls — derive the library, compile the
/// plan, run each arm over the shared 64-vector block with the kernel
/// the Monte-Carlo engine picks at this vector count (outside the ledger).
fn per_die(
    ctx: &Ctx,
    r: &mut Report,
    memo: &MemoLibraryCache,
    circuit: &Circuit,
) -> Result<(), String> {
    let tech = Technology::d25();
    let config = mc_config(ctx, circuit);
    let nominal = config.op.tech(&tech);
    let provider = DeltaLibraryProvider::prepare(
        memo,
        &nominal,
        config.op.temp,
        &config.char_opts,
        DEFAULT_DELTA_TOL,
    )
    .map_err(|e| e.to_string())?;
    let mut pack = PatternBlock::for_circuit(circuit);
    for k in 0..VECTORS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(nanoleak_core::exec::mix(
            config.pattern_seed,
            k as u64,
        ));
        pack.push(&Pattern::random(circuit, &mut rng));
    }
    let mut block = BlockScratch::default();
    let (mut compile, mut loaded, mut unloaded) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PER_DIE_PROBE {
        let die = die_tech(&nominal, &config, i);
        let (lib, _) = provider
            .die_library(&die, config.op.temp, &config.char_opts)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let plan = CompiledEstimator::compile(circuit, &lib).map_err(|e| e.to_string())?;
        compile.push(ms(t.elapsed()));
        let t = Instant::now();
        if VECTORS >= TABLE_AMORTIZE_VECTORS {
            plan.estimate_block_into(&mut block, &pack, EstimatorMode::Lut)
        } else {
            plan.estimate_block_scalar_into(&mut block, &pack, EstimatorMode::Lut)
        }
        .map_err(|e| e.to_string())?;
        loaded.push(ms(t.elapsed()));
        let t = Instant::now();
        plan.estimate_block_into(&mut block, &pack, EstimatorMode::NoLoading)
            .map_err(|e| e.to_string())?;
        unloaded.push(ms(t.elapsed()));
    }
    r.set("core.compile_ms_per_die", median(&compile), "ms");
    r.set("core.loaded_arm_ms_per_die", median(&loaded), "ms");
    r.set("core.unloaded_arm_ms_per_die", median(&unloaded), "ms");
    Ok(())
}

/// The traced run: one CLI round for the end-to-end side and the
/// accuracy figures, a traced replay, then the per-die split.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let dir = ctx.fresh_dir("cli")?;
    let ([fast, exact], _) = cli_round(ctx, &mut r, &dir, &mut Probe::new(SPEED_KERNELS));
    if let (Some((ff, fs)), Some((ef, es))) = (&fast, &exact) {
        r.set("mc_fast_dies_per_s", DIES as f64 / ff.wall.as_secs_f64(), "1/s");
        r.set("mc_exact_dies_per_s", DIES as f64 / ef.wall.as_secs_f64(), "1/s");
        let e = compare(fs, es);
        r.set("mc_mean_err_pct", e.mean_err_pct, "%");
        r.set("mc_std_err_pct", e.std_err_pct, "%");
        r.set("mc_std_shift_err_pp", e.std_shift_err_pp, "pp");
    }

    let cli_ms =
        [&fast, &exact].into_iter().flatten().map(|(f, _)| cli_overhead_ms(&mut r, f)).sum();
    r.set("cli.overhead_ms", cli_ms, "ms");

    let mut ledger = Ledger::new("variation");
    let (memo, circuit) = replay(ctx, &mut ledger, &mut r)?;
    let traced_ms = ledger.finish(&mut r);
    per_die(ctx, &mut r, &memo, &circuit)?;
    r.note("traced_replay_ms", Value::F64(traced_ms));
    finish_per_layer(&mut r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::LeakageBreakdown;
    use nanoleak_variation::{summarize, McSample};

    fn samples(loaded: &[f64], unloaded: &[f64]) -> Vec<McSample> {
        let b = |t: f64| LeakageBreakdown { sub: t, gate: 0.0, btbt: 0.0 };
        loaded
            .iter()
            .zip(unloaded)
            .map(|(&l, &u)| McSample { loaded: b(l), unloaded: b(u) })
            .collect()
    }

    #[test]
    fn identical_dies_compare_exactly() {
        let s = summarize(&samples(&[1.0, 2.0, 3.0], &[0.9, 1.9, 2.8]), 8);
        assert_eq!(
            compare(&s, &s),
            McErrors { mean_err_pct: 0.0, std_err_pct: 0.0, std_shift_err_pp: 0.0 }
        );
    }

    #[test]
    fn errors_are_absolute_and_relative_to_exact() {
        let exact = summarize(&samples(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 8);
        // Fast is 10% high on every die: the mean and std are 10% off,
        // and the loaded/unloaded std shift moves from 0 to +10 pp.
        let fast = summarize(&samples(&[1.1, 2.2, 3.3], &[1.0, 2.0, 3.0]), 8);
        let e = compare(&fast, &exact);
        assert!((e.mean_err_pct - 10.0).abs() < 1e-9, "{e:?}");
        assert!((e.std_err_pct - 10.0).abs() < 1e-9, "{e:?}");
        assert!((e.std_shift_err_pp - 10.0).abs() < 1e-9, "{e:?}");
        // An underestimate reads as the same positive error.
        let low = summarize(&samples(&[0.9, 1.8, 2.7], &[1.0, 2.0, 3.0]), 8);
        let e = compare(&low, &exact);
        assert!(
            (e.mean_err_pct - 10.0).abs() < 1e-9 && (e.std_shift_err_pp - 10.0).abs() < 1e-9,
            "{e:?}"
        );
    }
}
