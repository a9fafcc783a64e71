//! The parallel pattern-sweep executor.
//!
//! Fans one circuit across N random input patterns (the paper's
//! "100 random vectors" methodology at scale): every pattern is
//! estimated independently on a worker thread, per-pattern results are
//! materialized in pattern-index order, and all statistics are reduced
//! sequentially over that order — so a sweep's output is bit-identical
//! for any thread count.
//!
//! Every shard runs through the one block driver,
//! [`nanoleak_core::par_blocks`]: its index range tiles into blocks of
//! `resolve_lanes(lanes)` patterns, one work item per block, and
//! [`SweepConfig::lanes`] picks the kernel — 64-pattern blocks on the
//! packed word-parallel kernel, 1-pattern blocks on the per-lane
//! scalar kernel — never the path or the statistics.
//!
//! Large sweeps stream: [`sweep_streaming`] executes the pattern space
//! in contiguous index-order shards, yielding a [`SweepShard`] partial
//! (its own [`SweepStats`] over the shard) after each one. The
//! per-pattern series concatenates in index order and the merged stats
//! are the *same* sequential reduction the monolithic path runs — so
//! they are bit-identical to [`sweep`] for any shard size and thread
//! count. The callback also gives callers a cancellation point between
//! shards. The shard loop itself is shared with Monte-Carlo runs
//! ([`mc_streaming_mode`](crate::mc_streaming_mode)), so both stream,
//! trace, time and fail at shard boundaries alike.

use std::time::Instant;

use nanoleak_cells::CellLibrary;
use nanoleak_core::{
    fill_index_pattern, pack_index_block, par_blocks, resolve_lanes, CompiledEstimator,
    EstimateError, EstimatorMode, Stats,
};
use nanoleak_device::LeakageBreakdown;
use nanoleak_netlist::{Circuit, Pattern};
use serde::{Deserialize, Serialize};

use nanoleak_core::exec::worker_count;

/// Process-wide sweep telemetry (latency histograms only — never on
/// the per-pattern path, which stays zero-allocation).
struct SweepMetrics {
    compile_seconds: nanoleak_obs::Histogram,
    shard_seconds: nanoleak_obs::Histogram,
}

fn sweep_metrics() -> &'static SweepMetrics {
    static METRICS: std::sync::OnceLock<SweepMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SweepMetrics {
        compile_seconds: nanoleak_obs::global().histogram(
            "nanoleak_sweep_compile_seconds",
            "Wall time to compile a (circuit, library) estimator plan",
        ),
        shard_seconds: nanoleak_obs::global().histogram(
            "nanoleak_sweep_shard_seconds",
            "Wall time to estimate one sweep shard (all workers)",
        ),
    })
}

/// Configuration of one pattern sweep.
///
/// Serializable so job front-ends (the `nanoleak-serve` HTTP API)
/// can carry sweep requests and reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Number of random input patterns.
    pub vectors: usize,
    /// Base RNG seed; pattern `i` is drawn from stream `mix(seed, i)`,
    /// so the pattern set is independent of the thread count.
    pub seed: u64,
    /// Worker threads (`0` = all cores, capped at 16).
    pub threads: usize,
    /// Estimator mode for every pattern.
    pub mode: EstimatorMode,
    /// Evaluation lanes: [`LANES`](nanoleak_core::LANES) tiles the
    /// sweep into 64-pattern blocks on the word-parallel kernel; `1`
    /// into 1-pattern blocks on the per-lane scalar kernel; `0` (auto)
    /// lets a `Lut` sweep's plan decide
    /// ([`CompiledEstimator::lut_lanes`]): 64-pattern blocks when the
    /// plan holds its response tables or its per-lane work, this
    /// sweep's vectors included, reaches
    /// [`TABLE_AMORTIZE_VECTORS`](nanoleak_core::TABLE_AMORTIZE_VECTORS),
    /// 1-pattern blocks otherwise (other modes tile at 64). The driver
    /// is the same and the statistics are bit-identical — this is a
    /// throughput knob, never a results knob.
    pub lanes: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self { vectors: 100, seed: 2005, threads: 0, mode: EstimatorMode::Lut, lanes: 0 }
    }
}

/// The pattern the sweep evaluates at `index`
/// ([`fill_index_pattern`]; public so callers can reproduce any sweep
/// sample exactly).
pub fn pattern_for_index(circuit: &Circuit, seed: u64, index: usize) -> Pattern {
    let mut pattern = Pattern::default();
    fill_index_pattern(circuit, seed, index, &mut pattern);
    pattern
}

/// An extreme point of the swept input space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtremeVector {
    /// Sweep index of the pattern (reproducible via
    /// [`pattern_for_index`]).
    pub index: usize,
    /// The pattern itself.
    pub pattern: Pattern,
    /// Its circuit-total leakage breakdown.
    pub leakage: LeakageBreakdown,
}

/// Deterministic sweep output: per-component statistics over the
/// pattern space plus the extreme vectors.
///
/// Serializable (like [`SweepConfig`]) so reports can cross process
/// boundaries — notably as `nanoleak-serve` job results — without
/// losing bit-exactness.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Number of patterns evaluated.
    pub vectors: usize,
    /// Statistics of total leakage \[A\].
    pub total: Stats,
    /// Statistics of the subthreshold component \[A\].
    pub sub: Stats,
    /// Statistics of the gate-tunneling component \[A\].
    pub gate: Stats,
    /// Statistics of the junction BTBT component \[A\].
    pub btbt: Stats,
    /// The lowest-leakage pattern seen (first index on ties).
    pub min: ExtremeVector,
    /// The highest-leakage pattern seen (first index on ties).
    pub max: ExtremeVector,
}

/// Wall-clock measurements of one sweep run (not deterministic; kept
/// separate from [`SweepStats`] so determinism can be asserted on the
/// stats alone).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepTelemetry {
    /// Worker threads the sweep spawned for its largest shard
    /// (`exec::worker_count` over that shard's blocks).
    pub threads: usize,
    /// Wall-clock duration of the sweep.
    pub elapsed: std::time::Duration,
    /// Throughput in patterns per second.
    pub patterns_per_sec: f64,
}

/// Result of [`sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Deterministic statistics.
    pub stats: SweepStats,
    /// Wall-clock telemetry.
    pub telemetry: SweepTelemetry,
}

/// Reduces an index-ordered slice of per-pattern leakage totals into
/// [`SweepStats`]. `start` is the global sweep index of `totals[0]`,
/// so extreme-vector indexes stay reproducible via
/// [`pattern_for_index`] whether the slice is one shard or the whole
/// sweep.
///
/// This is the *single* reduction both the monolithic and the
/// streaming paths run — bit-identity between them is by
/// construction, not by parallel-algebra luck.
fn reduce_stats(
    circuit: &Circuit,
    seed: u64,
    start: usize,
    totals: &[LeakageBreakdown],
) -> SweepStats {
    assert!(!totals.is_empty(), "stats over an empty pattern slice");
    let series = |f: fn(&LeakageBreakdown) -> f64| -> Vec<f64> { totals.iter().map(f).collect() };
    let total_series = series(LeakageBreakdown::total);

    let extreme = |best_is_less: bool| -> ExtremeVector {
        let mut best = 0usize;
        for (i, &t) in total_series.iter().enumerate().skip(1) {
            if (best_is_less && t < total_series[best]) || (!best_is_less && t > total_series[best])
            {
                best = i;
            }
        }
        ExtremeVector {
            index: start + best,
            pattern: pattern_for_index(circuit, seed, start + best),
            leakage: totals[best],
        }
    };

    SweepStats {
        vectors: totals.len(),
        total: Stats::population(&total_series),
        sub: Stats::population(&series(|b| b.sub)),
        gate: Stats::population(&series(|b| b.gate)),
        btbt: Stats::population(&series(|b| b.btbt)),
        min: extreme(true),
        max: extreme(false),
    }
}

/// Estimates the contiguous index range `start .. start + len` on the
/// compiled plan through the one block driver ([`par_blocks`]) on
/// `config.threads` requested workers, returning per-pattern totals in
/// index order.
///
/// `config.lanes` picks the block width and with it the kernel: the
/// range tiles into 64-pattern blocks on the word-parallel kernel, or
/// 1-pattern blocks on the per-lane scalar kernel. Either way the
/// totals are bit-identical.
fn estimate_chunk(
    plan: &CompiledEstimator<'_>,
    config: &SweepConfig,
    start: usize,
    len: usize,
) -> Result<Vec<LeakageBreakdown>, EstimateError> {
    let pack = |block: &mut _, pattern: &mut _, off: usize, count| {
        pack_index_block(plan.circuit(), config.seed, start + off, count, pattern, block);
    };
    let per_block =
        par_blocks(plan, config.lanes, config.threads, len, config.mode, pack, |_, totals| {
            totals.to_vec()
        })?;
    Ok(per_block.concat())
}

/// One completed shard of a streaming sweep, yielded to the
/// [`sweep_streaming`] callback as soon as its patterns are done.
///
/// Serializable so job front-ends can page shard partials to clients
/// incrementally (`GET /v1/jobs/{id}/result?shard=K` in
/// `nanoleak-serve`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepShard {
    /// Shard index (0-based, in execution = pattern-index order).
    pub shard: usize,
    /// Total shards the sweep will execute.
    pub shards_total: usize,
    /// Global sweep index of this shard's first pattern.
    pub start: usize,
    /// Patterns in this shard.
    pub vectors: usize,
    /// Statistics over this shard alone. Extreme-vector indexes are
    /// global sweep indexes (reproducible via [`pattern_for_index`]).
    pub stats: SweepStats,
}

/// Number of shards a streaming sweep of `vectors` patterns executes
/// with the given shard size (`0` means one monolithic shard).
pub fn shard_count(vectors: usize, shard_vectors: usize) -> usize {
    if shard_vectors == 0 {
        1
    } else {
        vectors.div_ceil(shard_vectors)
    }
}

/// What a completed [`run_shards`] hands back: every shard's items
/// concatenated in index order, and the partial of a one-shard run,
/// whose reduction already covers them all.
pub(crate) struct Shards<T, P> {
    pub(crate) items: Vec<T>,
    pub(crate) single: Option<P>,
}

/// The one shard loop of streaming sweeps and Monte-Carlo runs.
///
/// Tiles `items` work items into contiguous index-order shards of
/// `shard_items` (`0` = one monolithic shard). Before each shard the
/// `slow-shard` failpoint may delay or fail the run. Then
/// `estimate(start, len)` computes the shard's items under an
/// `estimate` span, timed on `shard_seconds`; the span's attributes
/// are `shard` and `unit` (`"vectors"` or `"samples"`), the latter
/// holding the shard's item count. `partial(shard, shards_total,
/// start, items)` reduces them into the shard's partial under a
/// `merge` span, and `on_shard` returning `false` cancels the run
/// (`Ok(None)`). The caller reduces the returned items once more only
/// when the run had more than one shard — the same sequential
/// index-order reduction, so merged results are bit-identical for any
/// shard size.
pub(crate) fn run_shards<T, P, E: From<nanoleak_solver::SolverError>>(
    items: usize,
    shard_items: usize,
    unit: &'static str,
    shard_seconds: &nanoleak_obs::Histogram,
    mut estimate: impl FnMut(usize, usize) -> Result<Vec<T>, E>,
    mut partial: impl FnMut(usize, usize, usize, &[T]) -> P,
    mut on_shard: impl FnMut(&P) -> bool,
) -> Result<Option<Shards<T, P>>, E> {
    let shards_total = shard_count(items, shard_items);
    let shard_size = if shard_items == 0 { items } else { shard_items };
    // A one-shard run keeps its shard's items as they are; only a
    // sharded run reserves the concatenation (the price of an exact
    // merge).
    let mut merged = Vec::with_capacity(if shards_total > 1 { items } else { 0 });
    let mut single = None;
    for shard in 0..shards_total {
        let start = shard * shard_size;
        let len = shard_size.min(items - start);
        // Chaos hook at the shard boundary (never inside the kernel):
        // a sleep action models a slow shard, an error action a shard
        // whose solve gave up — both leave lane/shard determinism
        // untouched because no per-item work has started yet.
        if nanoleak_fault::inject("slow-shard").is_some() {
            return Err(nanoleak_solver::SolverError::NoConvergence {
                iterations: 0,
                residual: f64::INFINITY,
            }
            .into());
        }
        let shard_start = Instant::now();
        let shard_out = {
            let _span = nanoleak_obs::capturing().then(|| {
                nanoleak_obs::span::span_with(
                    "estimate",
                    vec![("shard", shard.to_string()), (unit, len.to_string())],
                )
            });
            estimate(start, len)?
        };
        shard_seconds.record_duration(shard_start.elapsed());
        let part = {
            let _span = nanoleak_obs::span!("merge", shard = shard);
            let part = partial(shard, shards_total, start, &shard_out);
            if shards_total == 1 {
                merged = shard_out;
            } else {
                merged.extend(shard_out);
            }
            part
        };
        if !on_shard(&part) {
            return Ok(None);
        }
        if shards_total == 1 {
            single = Some(part);
        }
    }
    Ok(Some(Shards { items: merged, single }))
}

/// Sweeps `config.vectors` random patterns over `circuit` in parallel.
///
/// # Errors
/// The first per-pattern [`EstimateError`], if any (e.g. a cell
/// missing from `library`).
///
/// # Panics
/// Panics if `config.vectors` is zero.
pub fn sweep(
    circuit: &Circuit,
    library: &CellLibrary,
    config: &SweepConfig,
) -> Result<SweepReport, EstimateError> {
    let report = sweep_streaming(circuit, library, config, 0, |_| true)?;
    Ok(report.expect("monolithic sweep cannot be cancelled"))
}

/// Sweeps `config.vectors` patterns in contiguous shards of
/// `shard_vectors` (`0` = one monolithic shard), calling `on_shard`
/// after each shard completes. The callback returning `false` cancels
/// the sweep (`Ok(None)`); otherwise the merged report is returned,
/// bit-identical to [`sweep`] with the same config.
///
/// Shards execute strictly in index order (each internally parallel
/// across `config.threads`), so partials stream to the caller in the
/// same order their series concatenate.
///
/// # Errors
/// The first per-pattern [`EstimateError`], if any.
///
/// # Panics
/// Panics if `config.vectors` is zero.
pub fn sweep_streaming(
    circuit: &Circuit,
    library: &CellLibrary,
    config: &SweepConfig,
    shard_vectors: usize,
    on_shard: impl FnMut(&SweepShard) -> bool,
) -> Result<Option<SweepReport>, EstimateError> {
    assert!(config.vectors > 0, "sweep needs at least one vector");
    let shard_size = if shard_vectors == 0 { config.vectors } else { shard_vectors };
    let start_time = Instant::now();

    // One plan per sweep, shared process-wide via the structural
    // cache — every shard and worker (and any later sweep over an
    // isomorphic netlist) shares the same compile.
    let (shared, lanes) = {
        let _span = nanoleak_obs::span!("compile");
        let compile_start = Instant::now();
        let shared = crate::plan_cache::shared_plan(circuit, library)?;
        // A Lut sweep asks the plan's break-even rule once, for all
        // its vectors. A sweep that is to run on response tables the
        // plan lacks builds them here, so their cost is charged to the
        // compile span, not the first shard (they are cached on the
        // shared plan, so isomorphic re-sweeps skip this too).
        let lanes = match config.mode {
            EstimatorMode::Lut => shared.plan().lut_lanes(config.lanes, config.vectors),
            _ => resolve_lanes(config.lanes),
        };
        sweep_metrics().compile_seconds.record_duration(compile_start.elapsed());
        (shared, lanes)
    };
    let plan = shared.plan();
    let config = &SweepConfig { lanes, ..*config };
    // One work item per block: the largest shard's block count decides
    // how many workers the driver spawns.
    let threads = worker_count(shard_size.min(config.vectors).div_ceil(lanes), config.threads);
    let Some(Shards { items: totals, single }) = run_shards(
        config.vectors,
        shard_vectors,
        "vectors",
        &sweep_metrics().shard_seconds,
        |start, len| estimate_chunk(plan, config, start, len),
        |shard, shards_total, start, totals: &[LeakageBreakdown]| SweepShard {
            shard,
            shards_total,
            start,
            vectors: totals.len(),
            stats: reduce_stats(circuit, config.seed, start, totals),
        },
        on_shard,
    )?
    else {
        return Ok(None);
    };

    let elapsed = start_time.elapsed();
    let stats = match single {
        // A single shard's partial covers the whole sweep with
        // `start == 0`, so it already holds the merged stats (this is
        // the monolithic `sweep()` hot path).
        Some(partial) => partial.stats,
        None => {
            let _span = nanoleak_obs::span!("merge");
            reduce_stats(circuit, config.seed, 0, &totals)
        }
    };
    Ok(Some(SweepReport {
        stats,
        telemetry: SweepTelemetry {
            threads,
            elapsed,
            patterns_per_sec: config.vectors as f64 / elapsed.as_secs_f64().max(1e-9),
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{CellType, CharacterizeOptions};
    use nanoleak_device::Technology;
    use nanoleak_netlist::CircuitBuilder;
    use std::sync::Arc;

    fn library() -> Arc<CellLibrary> {
        CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2]),
        )
    }

    fn small_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("sweep-test");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let d = b.add_input("c");
        let n1 = b.add_gate(CellType::Nand2, &[a, c], "n1");
        let n2 = b.add_gate(CellType::Nand2, &[n1, d], "n2");
        let y = b.add_gate(CellType::Inv, &[n2], "y");
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn stats_are_identical_for_any_thread_count() {
        let circuit = small_circuit();
        let lib = library();
        let base = SweepConfig { vectors: 40, seed: 7, threads: 1, ..Default::default() };
        let one = sweep(&circuit, &lib, &base).unwrap();
        for threads in [2, 3, 8] {
            let cfg = SweepConfig { threads, ..base };
            let multi = sweep(&circuit, &lib, &cfg).unwrap();
            assert_eq!(one.stats, multi.stats, "threads = {threads}");
        }
    }

    #[test]
    fn seed_controls_the_pattern_set() {
        let circuit = small_circuit();
        let lib = library();
        let a = sweep(&circuit, &lib, &SweepConfig { vectors: 16, seed: 1, ..Default::default() })
            .unwrap();
        let b = sweep(&circuit, &lib, &SweepConfig { vectors: 16, seed: 2, ..Default::default() })
            .unwrap();
        assert_ne!(a.stats.total, b.stats.total, "different seeds sample differently");
    }

    #[test]
    fn extremes_bound_the_distribution() {
        let circuit = small_circuit();
        let lib = library();
        let r = sweep(&circuit, &lib, &SweepConfig { vectors: 32, ..Default::default() }).unwrap();
        let s = &r.stats;
        assert_eq!(s.min.leakage.total(), s.total.min);
        assert_eq!(s.max.leakage.total(), s.total.max);
        assert!(s.total.min <= s.total.p50 && s.total.p50 <= s.total.max);
        // The extreme patterns reproduce through pattern_for_index.
        assert_eq!(s.min.pattern, pattern_for_index(&circuit, 2005, s.min.index));
    }

    /// The tentpole acceptance: streamed shards merge to exactly the
    /// monolithic result, across shard sizes *and* thread counts.
    #[test]
    fn sharded_sweep_is_bit_identical_to_monolithic() {
        let circuit = small_circuit();
        let lib = library();
        let base = SweepConfig { vectors: 41, seed: 99, threads: 1, ..Default::default() };
        let mono = sweep(&circuit, &lib, &base).unwrap();
        for shard_vectors in [1, 5, 16, 40, 41, 64] {
            for threads in [1, 3] {
                let cfg = SweepConfig { threads, ..base };
                let mut seen_shards = Vec::new();
                let streamed = sweep_streaming(&circuit, &lib, &cfg, shard_vectors, |s| {
                    seen_shards.push((s.shard, s.start, s.vectors));
                    true
                })
                .unwrap()
                .expect("not cancelled");
                assert_eq!(
                    streamed.stats, mono.stats,
                    "shard_vectors = {shard_vectors}, threads = {threads}"
                );
                let expected_shards = shard_count(41, shard_vectors);
                assert_eq!(seen_shards.len(), expected_shards);
                // Shards tile the index space contiguously, in order.
                let mut next = 0;
                for (i, (shard, start, vectors)) in seen_shards.iter().enumerate() {
                    assert_eq!((*shard, *start), (i, next));
                    next += vectors;
                }
                assert_eq!(next, 41, "shards cover every pattern exactly once");
            }
        }
    }

    #[test]
    fn shard_partials_are_self_consistent() {
        let circuit = small_circuit();
        let lib = library();
        let cfg = SweepConfig { vectors: 20, seed: 3, threads: 2, ..Default::default() };
        let mut partials = Vec::new();
        sweep_streaming(&circuit, &lib, &cfg, 8, |s| {
            partials.push(s.clone());
            true
        })
        .unwrap()
        .unwrap();
        assert_eq!(partials.len(), 3, "20 vectors in shards of 8");
        for p in &partials {
            assert_eq!(p.shards_total, 3);
            assert_eq!(p.stats.vectors, p.vectors);
            // Extreme indexes are global and land inside the shard.
            for idx in [p.stats.min.index, p.stats.max.index] {
                assert!(idx >= p.start && idx < p.start + p.vectors, "{idx} in shard {}", p.shard);
            }
            // ... and reproduce through pattern_for_index.
            assert_eq!(p.stats.min.pattern, pattern_for_index(&circuit, 3, p.stats.min.index));
        }
        // A shard's stats equal a standalone sweep over that range
        // seeded the same way (shard 0 starts at index 0).
        let first = sweep(&circuit, &lib, &SweepConfig { vectors: 8, ..cfg }).unwrap();
        assert_eq!(partials[0].stats, first.stats);
    }

    #[test]
    fn streaming_cancel_stops_between_shards() {
        let circuit = small_circuit();
        let lib = library();
        let cfg = SweepConfig { vectors: 30, seed: 1, threads: 1, ..Default::default() };
        let mut seen = 0;
        let out = sweep_streaming(&circuit, &lib, &cfg, 10, |_| {
            seen += 1;
            seen < 2 // cancel after the second shard reports
        })
        .unwrap();
        assert!(out.is_none(), "cancelled sweeps yield no report");
        assert_eq!(seen, 2, "the cancelling callback is the last one invoked");
    }

    /// The reported worker count is what the block driver spawned for
    /// the largest shard: one work item per `lanes`-pattern block.
    #[test]
    fn telemetry_reports_the_workers_the_driver_spawned() {
        let circuit = small_circuit();
        let lib = library();
        let base = SweepConfig { vectors: 100, seed: 5, threads: 8, ..Default::default() };
        for (lanes, shard_vectors, workers) in [(64, 0, 2), (1, 0, 8), (64, 33, 1), (1, 33, 7)] {
            let cfg = SweepConfig { lanes, ..base };
            let report = sweep_streaming(&circuit, &lib, &cfg, shard_vectors, |_| true)
                .unwrap()
                .expect("not cancelled");
            assert_eq!(
                report.telemetry.threads, workers,
                "lanes = {lanes}, shard_vectors = {shard_vectors}"
            );
        }
    }

    #[test]
    fn shard_count_tiles_the_space() {
        assert_eq!(shard_count(100, 0), 1, "0 means monolithic");
        assert_eq!(shard_count(100, 100), 1);
        assert_eq!(shard_count(100, 33), 4);
        assert_eq!(shard_count(1, 1000), 1);
    }

    #[test]
    fn missing_cell_surfaces_as_error() {
        let circuit = small_circuit();
        let lib = CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&[CellType::Inv]),
        );
        let err = sweep(&circuit, &lib, &SweepConfig::default()).unwrap_err();
        assert!(matches!(err, EstimateError::MissingCell(CellType::Nand2)));
    }
}
