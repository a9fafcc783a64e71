//! Streaming circuit-level Monte-Carlo execution.
//!
//! [`mc_streaming_mode`] runs `nanoleak-variation`'s circuit workload
//! ([`run_circuit_mc_range`], the one driver of both modes) on the
//! shard loop of [`sweep_streaming`](crate::sweep::sweep_streaming):
//! the sample space executes in contiguous index-order shards, each
//! shard yields a serializable [`McShard`] partial (its own
//! [`McSummary`] over the shard) to the caller's callback — the
//! cancellation point — and the raw per-sample series concatenates in
//! index order so the final summary is the *same* sequential reduction
//! a monolithic [`run_circuit_mc`](nanoleak_variation::run_circuit_mc)
//! finishes with. Merged results are therefore **bit-identical for any
//! shard size and thread count**.
//!
//! The mode only picks the driver's [`DeltaProvider`]. Exact mode
//! hands it [`SolverProvider`], which characterizes every die afresh
//! and never asks the memo; fast mode hands it the
//! [`DeltaLibraryProvider`], whose traced nominal comes from the
//! [`MemoLibraryCache`]. Per-die libraries — exact dies, the deviation
//! probe's re-solves and the fast mode's unrecognized-die fallbacks —
//! never enter the memo: each die is drawn once per run, so memoizing
//! it would only churn the memo and, through a disk layer, fill the
//! disk with one-shot entries. The traced nominal is the one memo
//! entry a run makes ([`DeltaLibraryProvider::prepare`], the traced
//! request of the memo's one ladder). A disk-backed memo stores it as
//! the request's `.nlc` and its `.nls` sensitivity sidecar, so the
//! nominal is traced once per cache directory and a later fast run
//! loads it; those two files are all a Monte-Carlo run ever writes. A
//! fast run reports how it got the nominal in its telemetry
//! ([`McTelemetry::nominal`]), as every other request reports its
//! library.
//! Every die's packed blocks, the deviation probe's included, are
//! counted and timed by core's block driver as they run
//! ([`block_metrics`](crate::block_metrics)).

use std::sync::Arc;
use std::time::{Duration, Instant};

use nanoleak_cells::{CellLibrary, DEFAULT_DELTA_TOL};
use nanoleak_device::Technology;
use nanoleak_netlist::Circuit;
use nanoleak_variation::{
    run_circuit_mc_range, summarize, CircuitMcConfig, DeltaProvider, FastMcDiag, FastMcReport,
    McError, McSample, McSummary, SolverProvider, DEFAULT_HIST_BINS,
};
use serde::{Deserialize, Serialize};

use crate::cache::{delta_metrics, CacheOutcome, DeltaLibraryProvider, MemoLibraryCache};
use crate::sweep::{run_shards, Shards};
use crate::EngineError;

/// Process-wide MC shard latency (shard granularity only — the
/// per-sample path inside `run_circuit_mc_range` stays untouched).
fn mc_shard_seconds() -> &'static nanoleak_obs::Histogram {
    static METRIC: std::sync::OnceLock<nanoleak_obs::Histogram> = std::sync::OnceLock::new();
    METRIC.get_or_init(|| {
        nanoleak_obs::global().histogram(
            "nanoleak_mc_shard_seconds",
            "Wall time to run one Monte-Carlo shard (all workers)",
        )
    })
}

impl From<McError> for EngineError {
    fn from(e: McError) -> Self {
        match e {
            McError::Solver(e) => EngineError::Solver(e),
            McError::Estimate(e) => EngineError::Estimate(e),
        }
    }
}

/// One completed shard of a streaming Monte Carlo, yielded to the
/// [`mc_streaming_mode`] callback as soon as its samples are done.
///
/// Serializable so job front-ends can page shard partials to clients
/// incrementally (`GET /v1/jobs/{id}/result?shard=K` in
/// `nanoleak-serve`), exactly like [`SweepShard`](crate::SweepShard).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McShard {
    /// Shard index (0-based, in execution = sample-index order).
    pub shard: usize,
    /// Total shards the run will execute.
    pub shards_total: usize,
    /// Global sample index of this shard's first sample.
    pub start: usize,
    /// Samples in this shard.
    pub samples: usize,
    /// Distribution summary over this shard alone.
    pub summary: McSummary,
}

/// Wall-clock measurements of one MC run (not deterministic; kept
/// separate from the summary so determinism is assertable on the
/// summary alone).
#[derive(Debug, Clone, PartialEq)]
pub struct McTelemetry {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Throughput in samples per second.
    pub samples_per_sec: f64,
    /// A fast run's traced nominal library, how the cache produced it
    /// and how long that took (counted in `elapsed`). `None` on an
    /// exact run, and on a fast run that degraded to exact.
    pub nominal: Option<(Arc<CellLibrary>, CacheOutcome, Duration)>,
}

/// Result of [`mc_streaming_mode`].
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Deterministic distribution summary over all samples. Fast runs
    /// additionally carry their derivation diagnostics and measured
    /// deviation in `summary.fast`.
    pub summary: McSummary,
    /// Wall-clock telemetry.
    pub telemetry: McTelemetry,
}

/// How many leading samples a fast MC re-runs through the bit-exact
/// path after the timed phase to measure the fast path's deviation
/// (reported in [`FastMcReport`]; excluded from `samples_per_sec`).
pub const DEFAULT_DEVIATION_PROBE: usize = 4;

/// Which per-die library provider a Monte-Carlo run hands the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMode {
    /// Every die runs a fresh full characterization
    /// ([`SolverProvider`]) — the bit-exact path.
    Exact,
    /// Dies derive their library from the nominal's traced
    /// sensitivities ([`DeltaLibraryProvider`]) at
    /// [`DEFAULT_DELTA_TOL`], and the first [`DEFAULT_DEVIATION_PROBE`]
    /// samples re-run exactly for the deviation report. Degrades to
    /// [`McMode::Exact`] if the traced nominal characterization fails.
    Fast,
}

impl McMode {
    /// The fast mode, [`McMode::Fast`].
    pub fn fast() -> Self {
        McMode::Fast
    }
}

/// Relative deviation of the fast samples from their exact re-runs:
/// `(max, mean)` over both arms' total leakage of each probed sample.
fn deviation(fast: &[McSample], exact: &[McSample]) -> (f64, f64) {
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    let mut n = 0u32;
    for (f, e) in fast.iter().zip(exact) {
        for (ft, et) in
            [(f.loaded.total(), e.loaded.total()), (f.unloaded.total(), e.unloaded.total())]
        {
            let d = if et == 0.0 {
                if ft == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((ft - et) / et).abs()
            };
            max = max.max(d);
            sum += d;
            n += 1;
        }
    }
    (max, if n == 0 { 0.0 } else { sum / f64::from(n) })
}

/// Runs `config.samples` Monte-Carlo samples in contiguous shards of
/// `shard_samples` (`0` = one monolithic shard), calling `on_shard`
/// after each shard completes. The callback returning `false` cancels
/// the run (`Ok(None)`); otherwise the merged report is returned,
/// bit-identical to a monolithic run of the same config and mode for
/// any shard size, thread count and lane setting.
///
/// `mode` picks the driver's provider once. [`McMode::Exact`] uses
/// [`SolverProvider`], which re-solves every die. [`McMode::Fast`]
/// takes the nominal library with its traced sensitivities from
/// `cache` (RAM, then its disk layer, then the traced
/// characterization) and derives every die's library from it
/// (`nominal + J·Δ` with per-entry fallback); after the timed phase,
/// the first [`DEFAULT_DEVIATION_PROBE`] samples re-run exactly and
/// the measured max/mean relative deviation lands in `summary.fast`
/// (the probe counts toward `elapsed` but not `samples_per_sec`). If
/// the traced nominal characterization fails to solve, the run
/// degrades to exact and `nanoleak_mc_fallback_total{reason="sens-build"}`
/// is incremented. Fast results differ from exact results by the
/// (reported) linearization error. Only the traced nominal enters
/// `cache` (and its disk layer, as one `.nlc` and its `.nls`
/// sidecar); no die library does. The report's
/// [`McTelemetry::nominal`] says how the run got its nominal.
///
/// # Errors
/// The first per-sample failure ([`EngineError::Solver`] /
/// [`EngineError::Estimate`]) in index order, or
/// [`EngineError::Cache`] if the fast mode's traced nominal cannot be
/// written to `cache`'s disk layer.
///
/// # Panics
/// Panics if `config.samples` or `config.vectors` is zero.
pub fn mc_streaming_mode(
    circuit: &Circuit,
    tech: &Technology,
    cache: &MemoLibraryCache,
    config: &CircuitMcConfig,
    mode: McMode,
    shard_samples: usize,
    on_shard: impl FnMut(&McShard) -> bool,
) -> Result<Option<McReport>, EngineError> {
    assert!(config.samples > 0, "MC needs at least one sample");
    let start_time = Instant::now();

    // Fast mode front-loads the one traced nominal; if its
    // characterization fails to solve, the run degrades to the exact
    // path (counted, so operators can see silent degradations at
    // /metrics). A cache that cannot store it fails the run, as it
    // fails every other request.
    let delta = match mode {
        McMode::Exact => None,
        McMode::Fast => match DeltaLibraryProvider::prepare(
            cache,
            &config.op.tech(tech),
            config.op.temp,
            &config.char_opts,
            DEFAULT_DELTA_TOL,
        ) {
            Ok(provider) => Some(provider),
            Err(EngineError::Solver(_)) => {
                delta_metrics().fallback_sens_build.inc();
                None
            }
            Err(e) => return Err(e),
        },
    };
    let nominal =
        delta.as_ref().map(|d| (Arc::clone(d.nominal()), d.outcome(), start_time.elapsed()));
    let provider: &dyn DeltaProvider = match &delta {
        Some(delta) => delta,
        None => &SolverProvider,
    };

    let mut diag = FastMcDiag::default();
    let Some(Shards { items: samples, single }) = run_shards(
        config.samples,
        shard_samples,
        "samples",
        mc_shard_seconds(),
        |start, len| {
            let (samples, shard_diag) =
                run_circuit_mc_range(circuit, tech, provider, config, start, len)?;
            diag.merge(&shard_diag);
            Ok::<_, EngineError>(samples)
        },
        |shard, shards_total, start, samples: &[McSample]| McShard {
            shard,
            shards_total,
            start,
            samples: samples.len(),
            summary: summarize(samples, DEFAULT_HIST_BINS),
        },
        on_shard,
    )?
    else {
        return Ok(None);
    };

    let mc_elapsed = start_time.elapsed();
    let mut summary = match single {
        Some(partial) => partial.summary,
        None => {
            let _span = nanoleak_obs::span!("merge");
            summarize(&samples, DEFAULT_HIST_BINS)
        }
    };
    if let Some(delta) = &delta {
        // Deviation probe, after the timed phase: re-run the leading
        // samples bit-exactly and compare total leakage per arm.
        let probed = DEFAULT_DEVIATION_PROBE.min(config.samples);
        let (max_deviation, mean_deviation) = {
            let _span = nanoleak_obs::span!("deviation-probe", samples = probed);
            let (exact, _) =
                run_circuit_mc_range(circuit, tech, &SolverProvider, config, 0, probed)?;
            deviation(&samples[..probed], &exact)
        };
        summary.fast =
            Some(FastMcReport { diag, tol: delta.tol(), probed, max_deviation, mean_deviation });
    }
    Ok(Some(McReport {
        summary,
        telemetry: McTelemetry {
            elapsed: start_time.elapsed(),
            samples_per_sec: config.samples as f64 / mc_elapsed.as_secs_f64().max(1e-9),
            nominal,
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::shard_count;
    use nanoleak_cells::CellType;
    use nanoleak_netlist::CircuitBuilder;
    use nanoleak_variation::{char_opts_for, run_circuit_mc};

    fn small_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("engine-mc");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let n = b.add_gate(CellType::Nand2, &[a, c], "n");
        let y = b.add_gate(CellType::Inv, &[n], "y");
        b.mark_output(y);
        b.build().unwrap()
    }

    fn config(samples: usize) -> CircuitMcConfig {
        CircuitMcConfig {
            samples,
            seed: 11,
            vectors: 2,
            char_opts: char_opts_for(&small_circuit(), true),
            ..Default::default()
        }
    }

    /// The tentpole acceptance at the engine layer: sharded MC merges
    /// to exactly the monolithic summary across shard sizes and
    /// thread counts.
    #[test]
    fn sharded_mc_is_bit_identical_to_monolithic() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let base = config(7);
        let mono = run_circuit_mc(&circuit, &tech, &SolverProvider, &base).unwrap();
        let mono_summary = mono.summary(DEFAULT_HIST_BINS);
        for shard_samples in [0usize, 1, 3, 7, 16] {
            for threads in [1usize, 3] {
                let cache = MemoLibraryCache::memory_only();
                let cfg = CircuitMcConfig { threads, ..base.clone() };
                let mut seen = Vec::new();
                let report = mc_streaming_mode(
                    &circuit,
                    &tech,
                    &cache,
                    &cfg,
                    McMode::Exact,
                    shard_samples,
                    |s| {
                        seen.push((s.shard, s.start, s.samples));
                        true
                    },
                )
                .unwrap()
                .expect("not cancelled");
                assert_eq!(
                    report.summary, mono_summary,
                    "shard_samples = {shard_samples}, threads = {threads}"
                );
                let expected = shard_count(7, shard_samples);
                assert_eq!(seen.len(), expected);
                // Shards tile the sample space contiguously, in order.
                let mut next = 0;
                for (i, (shard, start, samples)) in seen.iter().enumerate() {
                    assert_eq!((*shard, *start), (i, next));
                    next += samples;
                }
                assert_eq!(next, 7, "shards cover every sample exactly once");
            }
        }
    }

    #[test]
    fn cancel_stops_between_shards() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cache = MemoLibraryCache::memory_only();
        let mut seen = 0;
        let out = mc_streaming_mode(&circuit, &tech, &cache, &config(6), McMode::Exact, 2, |_| {
            seen += 1;
            seen < 2
        })
        .unwrap();
        assert!(out.is_none(), "cancelled runs yield no report");
        assert_eq!(seen, 2, "the cancelling callback is the last one invoked");
    }

    #[test]
    fn dies_never_enter_the_memo() {
        // Exact dies, probe dies and fallbacks get fresh libraries; the
        // fast mode's traced nominal is the one entry a run makes.
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cache = MemoLibraryCache::memory_only();
        let cfg = config(3);
        mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::Exact, 0, |_| true)
            .unwrap()
            .unwrap();
        assert_eq!(cache.resident(), 0, "exact dies stay out of the memo");
        assert_eq!(cache.stats().requests(), 0, "exact mode never asks the memo");
        mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::fast(), 0, |_| true)
            .unwrap()
            .unwrap();
        assert_eq!(cache.resident(), 1, "only the traced nominal is memoized");
    }

    /// The tentpole acceptance at the engine layer, fast arm: the
    /// delta-derived path stays within the linearization tolerance of
    /// the bit-exact path, self-reports its deviation, and is itself
    /// bit-identical across shard sizes and thread counts.
    #[test]
    fn fast_mode_tracks_exact_and_stays_deterministic() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cache = MemoLibraryCache::memory_only();
        let cfg = config(4);
        let exact = mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::Exact, 0, |_| true)
            .unwrap()
            .unwrap();
        assert!(exact.summary.fast.is_none(), "exact runs carry no fast report");
        assert_eq!(
            exact.summary,
            mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::Exact, 0, |_| true)
                .unwrap()
                .unwrap()
                .summary,
            "exact mode re-runs bit-identically"
        );
        let fast = mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::fast(), 0, |_| true)
            .unwrap()
            .unwrap();
        let report = fast.summary.fast.expect("fast runs self-report");
        assert_eq!(report.probed, 4);
        assert!(report.diag.dies_derived > 0, "no die derived: {:?}", report.diag);
        assert!(
            report.max_deviation.is_finite() && report.max_deviation < 0.25,
            "fast path drifted: {report:?}"
        );
        assert!(report.mean_deviation <= report.max_deviation);
        assert!(
            (fast.summary.mean_shift - exact.summary.mean_shift).abs() < 0.05,
            "loading statistics diverged: fast {} vs exact {}",
            fast.summary.mean_shift,
            exact.summary.mean_shift
        );
        // Shard/thread invariance of the *whole* fast summary,
        // deviation report included (the probe is deterministic too).
        for (shard_samples, threads) in [(1usize, 1usize), (3, 3), (0, 2)] {
            let cfg = CircuitMcConfig { threads, ..cfg.clone() };
            let again = mc_streaming_mode(
                &circuit,
                &tech,
                &cache,
                &cfg,
                McMode::fast(),
                shard_samples,
                |_| true,
            )
            .unwrap()
            .unwrap();
            assert_eq!(
                again.summary, fast.summary,
                "shard_samples = {shard_samples}, threads = {threads}"
            );
        }
    }

    #[test]
    fn missing_cell_surfaces_in_index_order() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cache = MemoLibraryCache::memory_only();
        // Characterize only the inverter: every sample fails on the
        // NAND2 at compile time.
        let cfg = CircuitMcConfig {
            char_opts: nanoleak_cells::CharacterizeOptions::coarse(&[CellType::Inv]),
            ..config(2)
        };
        let err = mc_streaming_mode(&circuit, &tech, &cache, &cfg, McMode::Exact, 0, |_| true)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Estimate(nanoleak_core::EstimateError::MissingCell(CellType::Nand2))
        ));
    }
}
