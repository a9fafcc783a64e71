//! Every workload's block counters count and time the packed blocks
//! that ran, and the table counters count each response-table build.
//!
//! `nanoleak_block_blocks_total`, `nanoleak_block_tail_lane_waste_total`,
//! `nanoleak_block_kernel_seconds`,
//! `nanoleak_block_table_build_seconds` and
//! `nanoleak_block_runtime_terms_total` are process-global, so this
//! binary holds a single test: no other test may evaluate blocks or
//! build tables between a reading and the next.

use nanoleak_cells::{CellLibrary, CellType};
use nanoleak_core::plan::MAX_SUPPORT_BITS;
use nanoleak_core::{CompiledEstimator, LANES};
use nanoleak_device::Technology;
use nanoleak_engine::{
    block_metrics, mc_streaming_mode, mlv_search, sweep_streaming, McMode, MemoLibraryCache,
    MlvConfig, MlvStrategy, SweepConfig, DEFAULT_DEVIATION_PROBE,
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

/// An inverter driving a hub net that loads more two-input gates than
/// a response table has bits, so the terms on the hub evaluate at
/// runtime.
fn hub() -> Circuit {
    let mut b = CircuitBuilder::new("counter-hub");
    let a = b.add_input("a");
    let hub = b.add_gate(CellType::Inv, &[a], "hub");
    let mut side = a;
    for i in 0..=MAX_SUPPORT_BITS {
        side = b.add_gate(CellType::Nand2, &[hub, side], &format!("y{i}"));
        b.mark_output(side);
    }
    b.build().unwrap()
}

/// The `(table builds, runtime terms)` the table counters gained while
/// `run` ran.
fn built<T>(run: impl FnOnce() -> T) -> ((u64, u64), T) {
    let metrics = block_metrics();
    let builds = || metrics.table_build_seconds.snapshot().count();
    let before = (builds(), metrics.runtime_terms.get());
    let out = run();
    ((builds() - before.0, metrics.runtime_terms.get() - before.1), out)
}

/// The `(blocks, tail lane waste)` the counters gained while `run` ran,
/// after checking that the kernel latency histogram timed every
/// counted block.
#[track_caller]
fn counted(run: impl FnOnce()) -> (u64, u64) {
    let metrics = block_metrics();
    let timed = || metrics.kernel_seconds.snapshot().count();
    let before = (metrics.blocks.get(), metrics.tail_lane_waste.get(), timed());
    run();
    let blocks = metrics.blocks.get() - before.0;
    assert_eq!(timed() - before.2, blocks, "timed blocks against counted blocks");
    (blocks, metrics.tail_lane_waste.get() - before.1)
}

/// `(blocks, tail lane waste)` of `n` patterns tiled into 64-lane
/// blocks: `ceil(n / 64)` blocks, the last one wasting its empty lanes.
fn packed(n: usize) -> (u64, u64) {
    let blocks = n.div_ceil(LANES);
    (blocks as u64, (blocks * LANES - n) as u64)
}

/// Sweeps and the MLV scans count `ceil(n / 64)` packed blocks plus
/// their tail waste (a sharded sweep tiles each shard on its own), and
/// so does each hill-climb step over its `bits` flips; `lanes: 1` runs
/// the per-lane scalar kernel and counts nothing. An auto-tiled sweep
/// runs per lane, and counts nothing, until its plan holds its tables
/// or its per-lane work reaches break-even. Every Monte-Carlo die
/// evaluated — the timed samples plus, in fast mode, the deviation
/// probe's exact re-runs — runs its unloaded arm as packed blocks, and
/// its loaded arm too once the volume pays for the response tables.
/// Each packed arm's partial tail block wastes its empty lanes.
///
/// Every response-table build adds one sample to the build histogram
/// and the runtime terms its layout left to the counter: a forced
/// 64-lane sweep on a plan without tables builds once, a re-sweep on
/// the cached plan never, and each Monte-Carlo die whose loaded arm
/// runs packed builds its own plan's tables once.
#[test]
fn every_workload_counts_the_packed_blocks_it_ran() {
    let circuit = inverter_chain();
    let tech = Technology::d25();
    let lib = CellLibrary::shared_with_options(&tech, 300.0, &char_opts_for(&circuit, true));

    // 100 vectors = one full block plus a 36-lane tail; in shards of 33
    // each of the three full shards is one 33-lane block and the last
    // shard one 1-lane block. The rows run in order on one cached plan:
    // its first auto-tiled sweep is 100 lanes of per-lane work, under
    // break-even, so it runs per lane and builds nothing; the forced
    // 64-lane sweep builds the tables; from then on the auto-tiled
    // sweep runs packed, below break-even too.
    let (b33, w33) = packed(33);
    let (b1, w1) = packed(1);
    let sharded = (3 * b33 + b1, 3 * w33 + w1);
    let sweeps = [
        (0, 0, (0, 0), 0),
        (0, LANES, packed(100), 1),
        (0, 1, (0, 0), 0),
        (33, 0, sharded, 0),
        (33, LANES, sharded, 0),
        (33, 1, (0, 0), 0),
    ];
    for (shard_vectors, lanes, expected, builds) in sweeps {
        let config = SweepConfig { vectors: 100, seed: 3, threads: 1, lanes, ..Default::default() };
        let ((built, _), ran) = built(|| {
            counted(|| {
                sweep_streaming(&circuit, &lib, &config, shard_vectors, |_| true)
                    .unwrap()
                    .expect("not cancelled");
            })
        });
        assert_eq!(ran, expected, "sweep: shard_vectors = {shard_vectors}, lanes = {lanes}");
        assert_eq!(built, builds, "table builds: shard_vectors = {shard_vectors}, lanes = {lanes}");
    }

    // The chain has one input bit, so exhaustive search scores 2
    // candidates: one block wasting 62 lanes. A hill-climb step scores
    // the one flip in a 1-lane block; both seeded starts already sit
    // at the minimum, so each of the 2 restarts stops after one step.
    let scans = [
        (MlvStrategy::Random { samples: 100 }, packed(100)),
        (MlvStrategy::Exhaustive, packed(2)),
        (MlvStrategy::HillClimb { restarts: 2, max_steps: 4 }, (2 * b1, 2 * w1)),
    ];
    for (strategy, blocks) in scans {
        for (lanes, expected) in [(0, blocks), (LANES, blocks), (1, (0, 0))] {
            let config = MlvConfig { strategy, threads: 1, lanes, ..Default::default() };
            let ran = counted(|| {
                mlv_search(&circuit, &lib, &config).unwrap();
            });
            assert_eq!(ran, expected, "mlv: {}, lanes = {lanes}", strategy.name());
        }
    }

    // The hub's full-width layout leaves runtime terms. Its first
    // 64-lane sweep builds the shared plan's tables at full width; the
    // second finds them cached.
    let hub = hub();
    let hub_lib = CellLibrary::shared_with_options(&tech, 300.0, &char_opts_for(&hub, true));
    let runtime_terms = CompiledEstimator::compile(&hub, &hub_lib).unwrap().block_runtime_terms();
    assert!(runtime_terms > 0, "the hub must leave terms on the runtime path");
    for expected in [(1, runtime_terms as u64), (0, 0)] {
        let config =
            SweepConfig { vectors: 100, seed: 3, threads: 1, lanes: LANES, ..Default::default() };
        let (ran, _) = built(|| {
            sweep_streaming(&hub, &hub_lib, &config, 0, |_| true).unwrap().expect("not cancelled")
        });
        assert_eq!(ran, expected, "table builds and runtime terms of a hub sweep");
    }

    // More samples than the probe re-runs, so the probe's dies are not
    // a copy of the timed ones.
    let samples = DEFAULT_DEVIATION_PROBE + 1;
    // 100 = one full block plus a 36-lane tail, below the table
    // threshold; the threshold plus one ends on a one-lane tail.
    for vectors in [100, TABLE_AMORTIZE_VECTORS + 1] {
        for mode in [McMode::Exact, McMode::fast()] {
            for lanes in [0, 1] {
                let config = CircuitMcConfig {
                    samples,
                    seed: 3,
                    vectors,
                    threads: 1,
                    char_opts: char_opts_for(&circuit, true),
                    lanes,
                    ..Default::default()
                };
                let dies = match mode {
                    McMode::Exact => samples,
                    McMode::Fast => samples + DEFAULT_DEVIATION_PROBE.min(samples),
                };
                let arms = if vectors >= TABLE_AMORTIZE_VECTORS { 2 } else { 1 };
                let (blocks, waste) = if lanes == 1 { (0, 0) } else { packed(vectors) };

                let cache = MemoLibraryCache::memory_only();
                let ((builds, _), (ran_blocks, ran_waste)) = built(|| {
                    counted(|| {
                        mc_streaming_mode(&circuit, &tech, &cache, &config, mode, 2, |_| true)
                            .unwrap()
                            .expect("not cancelled");
                    })
                });
                let packed_loaded = vectors >= TABLE_AMORTIZE_VECTORS && lanes != 1;
                assert_eq!(
                    builds,
                    if packed_loaded { dies as u64 } else { 0 },
                    "table builds: vectors = {vectors}, {mode:?}, lanes = {lanes}"
                );
                assert_eq!(
                    ran_blocks,
                    dies as u64 * arms * blocks,
                    "blocks: vectors = {vectors}, {mode:?}, lanes = {lanes}"
                );
                assert_eq!(
                    ran_waste,
                    dies as u64 * arms * waste,
                    "tail lane waste: vectors = {vectors}, {mode:?}, lanes = {lanes}"
                );
            }
        }
    }
}
