//! Lane-count bit-identity: every engine workload must return
//! EXACTLY the same results through the 64-wide block kernel
//! (`lanes: 64`, the default) as through the scalar reference path
//! (`lanes: 1`) — for any shard size, thread count, and pattern
//! counts that do and do not divide by the lane width. `lanes` is a
//! throughput knob, never a results knob; these tests pin that
//! contract at the workload level the same way the core crate pins it
//! per block.

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_device::Technology;
use nanoleak_engine::{
    mc_streaming_mode, mlv_search, sweep, sweep_streaming, McMode, MemoLibraryCache, MlvConfig,
    MlvGoal, MlvStrategy, SweepConfig,
};
use nanoleak_netlist::{Circuit, CircuitBuilder};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, VariationSigmas, TABLE_AMORTIZE_VECTORS};
use std::sync::Arc;

fn library() -> Arc<CellLibrary> {
    CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2]),
    )
}

/// A NAND2 chain over `inputs` primary inputs (reconvergence-free but
/// load-bearing: every internal net drives the next stage, so the Lut
/// mode's loading corrections are all exercised).
fn chain_circuit(inputs: usize) -> Circuit {
    let mut b = CircuitBuilder::new("lane-identity");
    let pis: Vec<_> = (0..inputs).map(|i| b.add_input(&format!("i{i}"))).collect();
    let mut prev = b.add_gate(CellType::Nand2, &[pis[0], pis[1]], "n0");
    for (k, &pi) in pis.iter().enumerate().skip(2) {
        prev = b.add_gate(CellType::Nand2, &[prev, pi], &format!("n{}", k - 1));
    }
    let y = b.add_gate(CellType::Inv, &[prev], "y");
    b.mark_output(y);
    b.build().unwrap()
}

/// Sweep: scalar and block paths agree bit-for-bit over full blocks
/// AND a 100-vector count whose 36-lane tail block is partially
/// filled, across shard sizes and thread counts.
#[test]
fn sweep_stats_are_bit_identical_across_lanes() {
    let circuit = chain_circuit(5);
    let lib = library();
    // 100 = 1 full block + a 36-pattern tail; 64 = exactly one block;
    // 7 = a lone tail block.
    for vectors in [7usize, 64, 100] {
        let scalar_cfg =
            SweepConfig { vectors, seed: 42, threads: 1, lanes: 1, ..Default::default() };
        let scalar = sweep(&circuit, &lib, &scalar_cfg).unwrap();
        for lanes in [0usize, 64] {
            for threads in [1usize, 3] {
                let cfg = SweepConfig { lanes, threads, ..scalar_cfg };
                let block = sweep(&circuit, &lib, &cfg).unwrap();
                assert_eq!(
                    scalar.stats, block.stats,
                    "vectors = {vectors}, lanes = {lanes}, threads = {threads}"
                );
                // Shard boundaries that straddle blocks change nothing.
                for shard_vectors in [3usize, 33] {
                    let streamed = sweep_streaming(&circuit, &lib, &cfg, shard_vectors, |_| true)
                        .unwrap()
                        .expect("not cancelled");
                    assert_eq!(
                        scalar.stats, streamed.stats,
                        "vectors = {vectors}, lanes = {lanes}, threads = {threads}, \
                         shard_vectors = {shard_vectors}"
                    );
                }
            }
        }
    }
}

/// MLV exhaustive + random scans: the block path's two-level
/// earliest-wins reduction reproduces the scalar scan's winner (index
/// ties break to the earliest pattern in both), over assignment
/// counts below, at, and above one block.
#[test]
fn mlv_scans_are_bit_identical_across_lanes() {
    let lib = library();
    for goal in [MlvGoal::Min, MlvGoal::Max] {
        // 5 inputs = 32 assignments (tail-only); 7 = 128 (two blocks).
        for inputs in [5usize, 7] {
            let circuit = chain_circuit(inputs);
            for strategy in [MlvStrategy::Exhaustive, MlvStrategy::Random { samples: 70 }] {
                let base = MlvConfig {
                    goal,
                    strategy,
                    seed: 9,
                    threads: 1,
                    lanes: 1,
                    ..Default::default()
                };
                let scalar = mlv_search(&circuit, &lib, &base).unwrap();
                for lanes in [0usize, 64] {
                    for threads in [1usize, 3] {
                        let cfg = MlvConfig { lanes, threads, ..base };
                        let block = mlv_search(&circuit, &lib, &cfg).unwrap();
                        assert_eq!(
                            scalar.pattern, block.pattern,
                            "inputs = {inputs}, {strategy:?}, lanes = {lanes}, threads = {threads}"
                        );
                        assert_eq!(scalar.objective, block.objective);
                        assert_eq!(scalar.leakage, block.leakage);
                        assert_eq!(scalar.telemetry.evaluations, block.telemetry.evaluations);
                    }
                }
            }
        }
    }
}

/// Hill-climb ignores `lanes` entirely (its serial flip loop stays
/// scalar), so any setting returns the identical climb.
#[test]
fn mlv_hill_climb_is_lane_invariant() {
    let circuit = chain_circuit(6);
    let lib = library();
    let strategy = MlvStrategy::HillClimb { restarts: 4, max_steps: 16 };
    let base = MlvConfig { strategy, lanes: 1, ..Default::default() };
    let scalar = mlv_search(&circuit, &lib, &base).unwrap();
    let block = mlv_search(&circuit, &lib, &MlvConfig { lanes: 64, ..base }).unwrap();
    assert_eq!(scalar.pattern, block.pattern);
    assert_eq!(scalar.objective, block.objective);
    assert_eq!(scalar.telemetry.evaluations, block.telemetry.evaluations);
}

/// Monte Carlo: each die's loaded/unloaded arms fold per-pattern
/// sums in the same order whether the patterns run packed or scalar,
/// so summaries match bit-for-bit in both modes — including a per-die
/// vector count (5) that never fills a block, and one just past
/// [`TABLE_AMORTIZE_VECTORS`], where the packed loaded arm switches to
/// the table kernel and ends on a one-lane tail block.
#[test]
fn mc_summaries_are_bit_identical_across_lanes() {
    let circuit = chain_circuit(3);
    let tech = Technology::d25();
    for vectors in [5, TABLE_AMORTIZE_VECTORS + 1] {
        for mode in [McMode::Exact, McMode::fast()] {
            let base = CircuitMcConfig {
                samples: 4,
                seed: 11,
                sigmas: VariationSigmas::paper_nominal(),
                vectors,
                threads: 1,
                lanes: 1,
                char_opts: char_opts_for(&circuit, true),
                ..Default::default()
            };
            let cache = MemoLibraryCache::memory_only();
            let scalar = mc_streaming_mode(&circuit, &tech, &cache, &base, mode, 0, |_| true)
                .unwrap()
                .expect("not cancelled");
            for lanes in [0usize, 64] {
                for threads in [1usize, 3] {
                    for shard_samples in [0usize, 3] {
                        let cfg = CircuitMcConfig { lanes, threads, ..base.clone() };
                        let cache = MemoLibraryCache::memory_only();
                        let block = mc_streaming_mode(
                            &circuit,
                            &tech,
                            &cache,
                            &cfg,
                            mode,
                            shard_samples,
                            |_| true,
                        )
                        .unwrap()
                        .expect("not cancelled");
                        assert_eq!(
                            scalar.summary, block.summary,
                            "vectors = {vectors}, {mode:?}, lanes = {lanes}, threads = \
                             {threads}, shard_samples = {shard_samples}"
                        );
                    }
                }
            }
        }
    }
}
