//! The one loaded-vs-unloaded evaluator against the per-pattern path.
//!
//! Lives in its own test binary: `loading_totals` counts its packed
//! blocks on the process-global block counters, which a core unit test
//! reads.

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_core::{
    loading_totals, pack_index_block, CompiledEstimator, EstimatorMode, TABLE_AMORTIZE_VECTORS,
};
use nanoleak_device::Technology;
use nanoleak_netlist::generate::{random_circuit, RandomCircuitSpec};
use nanoleak_netlist::normalize::normalize;
use nanoleak_netlist::Pattern;
use rand::SeedableRng;

/// Both arms equal per-pattern `estimate_into` totals bit for bit, for
/// explicit patterns and seed-derived streams, at either tiling width
/// and on either side of the plan's break-even (past it the
/// auto-tiled loaded arm runs on the packed table kernel).
#[test]
fn loading_totals_match_per_pattern_estimates() {
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    );
    let circuit =
        normalize(&random_circuit(&RandomCircuitSpec::new("lt", 6, 3, 40, 2, 11))).unwrap();
    let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
    let mut s = plan.scratch();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let explicit = Pattern::random_batch(&circuit, &mut rng, TABLE_AMORTIZE_VECTORS + 1);
    let seed = 17;
    let (lut, nom) = (EstimatorMode::Lut, EstimatorMode::NoLoading);
    for n in [5, 70, TABLE_AMORTIZE_VECTORS + 1] {
        let patterns = &explicit[..n];
        let want_explicit: Vec<_> = patterns
            .iter()
            .map(|p| {
                let loaded = plan.estimate_into(&mut s, p, lut).unwrap();
                (loaded, plan.estimate_into(&mut s, p, nom).unwrap())
            })
            .collect();
        let want_stream: Vec<_> = (0..n)
            .map(|i| {
                let loaded = plan.estimate_index_into(&mut s, seed, i, lut).unwrap();
                (loaded, plan.estimate_index_into(&mut s, seed, i, nom).unwrap())
            })
            .collect();
        for lanes in [0, 1] {
            let got = loading_totals(&plan, lanes, 2, n, |block, _, start, count| {
                block.clear();
                for p in &patterns[start..start + count] {
                    block.push(p);
                }
            })
            .unwrap();
            assert_eq!(got, want_explicit, "explicit patterns: n = {n}, lanes = {lanes}");
            let got = loading_totals(&plan, lanes, 2, n, |block, pattern, start, count| {
                pack_index_block(&circuit, seed, start, count, pattern, block);
            })
            .unwrap();
            assert_eq!(got, want_stream, "index stream: n = {n}, lanes = {lanes}");
        }
    }
}
