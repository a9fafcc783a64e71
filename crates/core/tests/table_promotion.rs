//! A cached plan's auto-tiled loaded arm runs per lane until the
//! plan's per-lane work reaches break-even, then builds its response
//! tables once and runs packed from then on.
//!
//! Reads the process-global block counters as deltas, so this binary
//! holds a single test: no other test may evaluate blocks or build
//! tables between a reading and the next.

use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
use nanoleak_core::{
    block_metrics, loading_totals, pack_index_block, CompiledEstimator, EstimatorMode, LANES,
    TABLE_AMORTIZE_VECTORS,
};
use nanoleak_device::Technology;
use nanoleak_netlist::generate::{random_circuit, RandomCircuitSpec};
use nanoleak_netlist::normalize::normalize;

/// Six 100-pattern calls on one plan: the first four run the loaded
/// arm per lane (400 lanes, under break-even), so only the unloaded
/// arm's two blocks count; the fifth brings the work to 500 and
/// builds the tables, once; it and the sixth run both arms packed.
/// Every pair equals the per-pattern path bit for bit.
#[test]
fn a_cached_plan_builds_its_tables_once_its_per_lane_work_passes_break_even() {
    let lib = CellLibrary::shared_with_options(
        &Technology::d25(),
        300.0,
        &CharacterizeOptions::coarse(&CellType::ALL),
    );
    let circuit =
        normalize(&random_circuit(&RandomCircuitSpec::new("promote", 6, 3, 40, 2, 11))).unwrap();
    let plan = CompiledEstimator::compile(&circuit, &lib).unwrap();
    let mut s = plan.scratch();
    let n: usize = 100;
    let blocks = n.div_ceil(LANES) as u64;
    let promoting = TABLE_AMORTIZE_VECTORS.div_ceil(n);
    assert_eq!(promoting, 5, "400 lanes stay under break-even, 500 reach it");

    let metrics = block_metrics();
    let builds = || metrics.table_build_seconds.snapshot().count();
    for call in 1..=6 {
        let seed = call as u64;
        let before = (metrics.blocks.get(), builds());
        let got = loading_totals(&plan, 0, 2, n, |block, pattern, start, count| {
            pack_index_block(&circuit, seed, start, count, pattern, block);
        })
        .unwrap();
        let (ran, built) = (metrics.blocks.get() - before.0, builds() - before.1);

        let packed_arms = if call < promoting { 1 } else { 2 };
        assert_eq!(ran, packed_arms * blocks, "packed blocks of call {call}");
        assert_eq!(built, u64::from(call == promoting), "table builds of call {call}");
        let want: Vec<_> = (0..n)
            .map(|i| {
                let loaded = plan.estimate_index_into(&mut s, seed, i, EstimatorMode::Lut);
                let unloaded = plan.estimate_index_into(&mut s, seed, i, EstimatorMode::NoLoading);
                (loaded.unwrap(), unloaded.unwrap())
            })
            .collect();
        assert_eq!(got, want, "pairs of call {call}");
    }
}
