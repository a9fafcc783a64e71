//! The Monte-Carlo block counters count the packed blocks that ran.
//!
//! `nanoleak_block_blocks_total` and `nanoleak_block_tail_lane_waste_total`
//! are process-global, so this binary holds a single test: no other
//! test may evaluate blocks between a reading and the next.

use nanoleak_cells::CellType;
use nanoleak_core::LANES;
use nanoleak_device::Technology;
use nanoleak_engine::{
    block_metrics, mc_streaming_mode, McMode, MemoLibraryCache, DEFAULT_DEVIATION_PROBE,
};
use nanoleak_netlist::{Circuit, CircuitBuilder};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, TABLE_AMORTIZE_VECTORS};

fn inverter_chain() -> Circuit {
    let mut b = CircuitBuilder::new("counter-chain");
    let a = b.add_input("a");
    let m = b.add_gate(CellType::Inv, &[a], "m");
    let y = b.add_gate(CellType::Inv, &[m], "y");
    b.mark_output(y);
    b.build().unwrap()
}

/// Every die evaluated — the timed samples plus, in fast mode, the
/// deviation probe's exact re-runs — runs its unloaded arm as packed
/// blocks, and its loaded arm too once the volume pays for the
/// response tables. Each packed arm's partial tail block wastes its
/// empty lanes.
#[test]
fn mc_counts_the_packed_blocks_every_die_ran() {
    let circuit = inverter_chain();
    let tech = Technology::d25();
    // More samples than the probe re-runs, so the probe's dies are not
    // a copy of the timed ones.
    let samples = DEFAULT_DEVIATION_PROBE + 1;
    // 100 = one full block plus a 36-lane tail, below the table
    // threshold; the threshold plus one ends on a one-lane tail.
    for vectors in [100, TABLE_AMORTIZE_VECTORS + 1] {
        for mode in [McMode::Exact, McMode::fast()] {
            let config = CircuitMcConfig {
                samples,
                seed: 3,
                vectors,
                threads: 1,
                char_opts: char_opts_for(&circuit, true),
                ..Default::default()
            };
            let dies = match mode {
                McMode::Exact => samples,
                McMode::Fast => samples + DEFAULT_DEVIATION_PROBE.min(samples),
            };
            let arms = if vectors >= TABLE_AMORTIZE_VECTORS { 2 } else { 1 };
            let blocks = vectors.div_ceil(LANES);
            let waste = blocks * LANES - vectors;

            let metrics = block_metrics();
            let (blocks_before, waste_before) =
                (metrics.blocks.get(), metrics.tail_lane_waste.get());
            let cache = MemoLibraryCache::memory_only();
            mc_streaming_mode(&circuit, &tech, &cache, &config, mode, 2, |_| true)
                .unwrap()
                .expect("not cancelled");
            assert_eq!(
                metrics.blocks.get() - blocks_before,
                (dies * arms * blocks) as u64,
                "blocks: vectors = {vectors}, {mode:?}"
            );
            assert_eq!(
                metrics.tail_lane_waste.get() - waste_before,
                (dies * arms * waste) as u64,
                "tail lane waste: vectors = {vectors}, {mode:?}"
            );
        }
    }
}
