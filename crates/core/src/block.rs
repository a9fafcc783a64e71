//! The one block driver, the one loaded-vs-unloaded evaluator, and
//! their telemetry.
//!
//! Sweeps, all three MLV strategies (both scans and each hill-climb
//! step's bit-flip neighbourhood) and both arms of every loading
//! comparison run through [`par_blocks`]: it tiles a workload's index
//! range into blocks of `resolve_lanes(lanes)` patterns, one work item
//! per block, and runs each block on the kernel its width calls for —
//! the packed word-parallel kernel for 64-lane blocks, the per-lane
//! scalar kernel for 1-lane blocks (which keeps per-pattern
//! parallelism). The tiling width therefore picks the kernel, never
//! the code path or the result: both kernels produce bit-identical
//! lane totals, and callers consume them in index order.
//!
//! [`loading_totals`] is the paper's circuit-level comparison — each
//! pattern's leakage with loading and without it — and the only code
//! that computes it for a pattern stream: every Monte-Carlo die and
//! every `/v1/estimate` request call it. Its loaded arm, like an
//! auto-tiled `Lut` sweep, takes its width from the plan's one
//! break-even rule, [`CompiledEstimator::lut_lanes`]: per-lane until
//! the plan's per-lane work reaches [`TABLE_AMORTIZE_VECTORS`], then
//! packed on response tables no wider than `floor(log2)` of that work
//! ([`prepare_block`](CompiledEstimator::prepare_block) builds them
//! at full width).
//!
//! Every packed block evaluation is counted and timed here, where it
//! runs, so operators can see how much of the load runs word-parallel,
//! how much lane capacity tail blocks waste, and how long the packed
//! kernel takes. The counters live in [`nanoleak_obs::global()`] and
//! therefore surface through `/metrics` and `?debug=timings` like
//! every other library metric. The per-lane arithmetic inside the
//! kernel stays untouched: telemetry is recorded once per block, never
//! per pattern.

use std::time::Instant;

use nanoleak_device::LeakageBreakdown;
use nanoleak_netlist::Pattern;

use crate::error::EstimateError;
use crate::estimator::EstimatorMode;
use crate::exec::par_map_with;
use crate::plan::{resolve_lanes, BlockScratch, CompiledEstimator, PatternBlock, LANES};

/// Process-wide block-kernel telemetry.
pub struct BlockMetrics {
    /// Blocks evaluated through the packed kernel.
    pub blocks: nanoleak_obs::Counter,
    /// Unused lanes of partially-filled tail blocks (a block carrying
    /// `n < 64` patterns wastes `64 - n` lanes of kernel capacity).
    pub tail_lane_waste: nanoleak_obs::Counter,
    /// Wall time of one block evaluation (simulate + resolve).
    pub kernel_seconds: nanoleak_obs::Histogram,
    /// Wall time of one plan's response-table build, layout included
    /// (once per plan: at full width when prepared or on its first
    /// 64-lane `Lut` block, sized to the work when an auto-tiled call
    /// reaches break-even).
    pub table_build_seconds: nanoleak_obs::Histogram,
    /// Terms the built table layouts left to per-lane runtime
    /// evaluation (wider than their plan's width cap), summed over
    /// builds.
    pub runtime_terms: nanoleak_obs::Counter,
}

/// The shared block metrics, registered on first use.
pub fn block_metrics() -> &'static BlockMetrics {
    static METRICS: std::sync::OnceLock<BlockMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| BlockMetrics {
        blocks: nanoleak_obs::global().counter(
            "nanoleak_block_blocks_total",
            "64-lane pattern blocks evaluated through the packed kernel",
        ),
        tail_lane_waste: nanoleak_obs::global().counter(
            "nanoleak_block_tail_lane_waste_total",
            "Unused lanes of partially-filled tail blocks",
        ),
        kernel_seconds: nanoleak_obs::global().histogram(
            "nanoleak_block_kernel_seconds",
            "Wall time to evaluate one pattern block (simulate + resolve)",
        ),
        table_build_seconds: nanoleak_obs::global().histogram(
            "nanoleak_block_table_build_seconds",
            "Wall time to lay out and build one plan's block response tables (once per plan: \
             at full width when prepared or forced to 64 lanes, sized to the per-lane work when \
             an auto-tiled call reaches break-even)",
        ),
        runtime_terms: nanoleak_obs::global().counter(
            "nanoleak_block_runtime_terms_total",
            "Gate terms the built table layouts evaluate per lane at runtime",
        ),
    })
}

/// Evaluates one block on the kernel the tiling width calls for:
/// `lanes` is the resolved width ([`resolve_lanes`]). A [`LANES`]-wide
/// tiling runs the packed kernel — a partial tail block included —
/// and records the block counters and kernel latency; a 1-lane tiling
/// runs the per-lane scalar kernel and records nothing. Totals land in
/// `scratch.totals()` in lane order either way, bit-identical.
///
/// # Errors
/// Forwards the kernel's [`EstimateError`].
fn eval_block_timed(
    plan: &CompiledEstimator<'_>,
    scratch: &mut BlockScratch,
    block: &PatternBlock,
    lanes: usize,
    mode: EstimatorMode,
) -> Result<(), EstimateError> {
    if lanes == 1 {
        return plan.estimate_block_scalar_into(scratch, block, mode);
    }
    let t = Instant::now();
    plan.estimate_block_into(scratch, block, mode)?;
    let m = block_metrics();
    m.kernel_seconds.record_duration(t.elapsed());
    m.blocks.inc();
    m.tail_lane_waste.add((LANES - block.len()) as u64);
    Ok(())
}

/// The block driver: tiles `0..n` into blocks of
/// `resolve_lanes(lanes)` indexes (only the last can be partial) and
/// maps them over `threads` workers, one work item per block. For
/// each block, `pack(block, pattern, start, count)` packs indexes
/// `start..start + count` (with `pattern` as the per-lane buffer),
/// the tiling width's kernel evaluates it (a packed block is counted
/// and timed in [`block_metrics`]), and `reduce(start, totals)` turns
/// the lane totals into the block's output. Each worker keeps one set
/// of buffers, so the per-block loop never allocates beyond what
/// `reduce` does.
///
/// Outputs return in block order, so any fold over them runs in index
/// order and the result is the same for any `threads` or `lanes`.
///
/// # Errors
/// The first block's [`EstimateError`], in block order.
///
/// # Panics
/// If `lanes` is not `0`, `1` or [`LANES`] ([`resolve_lanes`]).
pub fn par_blocks<T: Send>(
    plan: &CompiledEstimator<'_>,
    lanes: usize,
    threads: usize,
    n: usize,
    mode: EstimatorMode,
    pack: impl Fn(&mut PatternBlock, &mut Pattern, usize, usize) + Sync,
    reduce: impl Fn(usize, &[LeakageBreakdown]) -> T + Sync,
) -> Result<Vec<T>, EstimateError> {
    let lanes = resolve_lanes(lanes);
    let init =
        || (plan.block_scratch(), PatternBlock::for_circuit(plan.circuit()), Pattern::default());
    par_map_with(n.div_ceil(lanes), threads, init, |(scratch, block, pattern), b| {
        let start = b * lanes;
        pack(block, pattern, start, lanes.min(n - start));
        eval_block_timed(plan, scratch, block, lanes, mode)?;
        Ok(reduce(start, scratch.totals()))
    })
    .into_iter()
    .collect()
}

/// Break-even of a plan's response tables, in `Lut` lanes: the
/// per-lane work after which
/// [`CompiledEstimator::lut_lanes`] builds them. Each plan counts the
/// lanes its auto-tiled (`lanes = 0`) `Lut` calls run on the per-lane
/// scalar kernel, across calls; the call whose lanes bring that count
/// to this value builds the tables (no wider than `floor(log2)` of
/// the count) and runs packed, as does every later call. So a
/// Monte-Carlo die's fresh plan packs its loaded arm only when one
/// call brings this many vectors, and a cached estimate plan packs
/// once its requests have. Measured per fresh plan on s838 (coarse
/// grid, one thread, 2-vCPU x86-64 host): the tables cost ~19 ms to
/// build and then ~0.8 ms per 64 vectors, the lane-by-lane arm ~4 ms
/// per 64 vectors, so tables break even at 448 vectors (7 blocks,
/// median of 16 runs, range 5–9 blocks). s1196 breaks even at 8
/// blocks, s5378 at 3.
pub const TABLE_AMORTIZE_VECTORS: usize = 7 * LANES;

/// The one loaded-vs-unloaded evaluator: the `n` patterns `pack` lays
/// out (as in [`par_blocks`]), each estimated with loading (`Lut`) and
/// without it (`NoLoading`), as `(loaded, unloaded)` totals in pattern
/// order.
///
/// Each arm runs through [`par_blocks`] on `threads` workers. The
/// unloaded arm tiles at `lanes`; the loaded arm at the width
/// [`CompiledEstimator::lut_lanes`] picks for `lanes` and `n` — at
/// auto lanes, 1-pattern blocks until the plan holds its response
/// tables or its per-lane work reaches [`TABLE_AMORTIZE_VECTORS`],
/// 64-pattern blocks from then on. Every total is bit-identical to a
/// per-pattern [`CompiledEstimator::estimate_into`] call: `lanes`,
/// `threads` and the plan's history move only the cost.
///
/// # Errors
/// The first block's [`EstimateError`], loaded arm first.
///
/// # Panics
/// If `lanes` is not `0`, `1` or [`LANES`] ([`resolve_lanes`]).
pub fn loading_totals(
    plan: &CompiledEstimator<'_>,
    lanes: usize,
    threads: usize,
    n: usize,
    pack: impl Fn(&mut PatternBlock, &mut Pattern, usize, usize) + Sync,
) -> Result<Vec<(LeakageBreakdown, LeakageBreakdown)>, EstimateError> {
    let arm = |mode, lanes| -> Result<Vec<LeakageBreakdown>, EstimateError> {
        Ok(par_blocks(plan, lanes, threads, n, mode, &pack, |_, t| t.to_vec())?.concat())
    };
    let loaded = arm(EstimatorMode::Lut, plan.lut_lanes(lanes, n))?;
    let unloaded = arm(EstimatorMode::NoLoading, lanes)?;
    Ok(loaded.into_iter().zip(unloaded).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_once_and_accumulate() {
        let before = block_metrics().blocks.get();
        // Same statics on re-entry: the registry never double-registers.
        let again = block_metrics();
        again.blocks.inc();
        assert_eq!(block_metrics().blocks.get(), before + 1);
    }
}
