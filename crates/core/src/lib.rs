//! # nanoleak-core
//!
//! The primary contribution of the *nanoleak* reproduction of
//! Mukhopadhyay, Bhunia & Roy, DATE 2005: fast, loading-effect-aware
//! estimation of total leakage in nano-scale CMOS logic circuits from
//! their gate-level description.
//!
//! * [`estimator`] — the paper's Fig. 13 algorithm: one topological
//!   pass computing per-net loading currents from characterized
//!   gate-pin tunneling currents, then per-gate leakage as
//!   `f(I_L-IN, I_L-OUT)` lookups. Modes: `NoLoading` (traditional
//!   baseline), `Lut` (the paper's method), `DirectSolve` (ablation).
//! * [`mod@reference`] — the full-circuit nonlinear solver standing in for
//!   SPICE: no truncation, loading propagates everywhere; this is the
//!   accuracy yardstick of Fig. 12a and the denominator of the paper's
//!   ~1000x speedup claim.
//! * [`loading`] — per-net loading-current bookkeeping.
//! * [`plan`] — the compiled estimation pipeline:
//!   [`CompiledEstimator`] flattens a (circuit, library) pair once so
//!   per-pattern evaluation runs allocation-free against a reusable
//!   [`EstimateScratch`], bit-identical to [`estimate`]. This is the
//!   hot path the engine's sweeps and MLV searches run on. Its block
//!   path packs [`LANES`] (= 64) patterns into one `u64` word per net
//!   ([`PatternBlock`]) and evaluates them through a word-parallel
//!   simulate kernel plus a table-driven resolve kernel
//!   ([`CompiledEstimator::estimate_block_into`] /
//!   [`BlockScratch`]), bit-identical to the scalar path.
//! * [`block`] — the one block driver, [`par_blocks`]: sweeps, every
//!   MLV strategy and loading comparisons tile their patterns into
//!   blocks through it, and it counts and times every packed block it
//!   runs ([`block_metrics`], in [`nanoleak_obs::global()`]). Beside it,
//!   [`loading_totals`], the one loaded-vs-unloaded evaluator that
//!   every Monte-Carlo die and every estimate request runs.
//! * [`exec`] — the workspace's deterministic parallel-execution
//!   primitives (SplitMix64 seed streams, index-ordered `par_map`).
//! * [`stats`] — the one summary-statistics type ([`Stats`]) that
//!   sweeps and Monte-Carlo summaries share.
//! * [`report`] — leakage reports, estimator-vs-reference accuracy
//!   and the loading-impact statistics of Figs. 12b/12c.
//!
//! ## Example
//!
//! ```
//! use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
//! use nanoleak_core::{estimate, EstimatorMode};
//! use nanoleak_device::Technology;
//! use nanoleak_netlist::{CircuitBuilder, Pattern};
//!
//! let tech = Technology::d25();
//! let lib = CellLibrary::shared_with_options(
//!     &tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2]));
//!
//! let mut b = CircuitBuilder::new("demo");
//! let a = b.add_input("a");
//! let x = b.add_gate(CellType::Inv, &[a], "x");
//! let y = b.add_gate(CellType::Nand2, &[a, x], "y");
//! b.mark_output(y);
//! let circuit = b.build()?;
//!
//! let with = estimate(&circuit, &lib, &Pattern::zeros(&circuit), EstimatorMode::Lut)?;
//! let without = estimate(&circuit, &lib, &Pattern::zeros(&circuit), EstimatorMode::NoLoading)?;
//! println!("loading changes leakage by {:.2}%",
//!          100.0 * with.total_relative_change(&without));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod block;
pub mod error;
pub mod estimator;
pub mod exec;
pub mod loading;
pub mod plan;
pub mod reference;
pub mod report;
pub mod shared;
pub mod stats;

pub use block::{block_metrics, loading_totals, par_blocks, BlockMetrics, TABLE_AMORTIZE_VECTORS};
pub use error::EstimateError;
pub use estimator::{estimate, estimate_batch, EstimatorMode};
pub use loading::LoadingState;
pub use plan::{
    fill_index_pattern, pack_index_block, resolve_lanes, BlockScratch, CompiledEstimator,
    EstimateScratch, PatternBlock, LANES,
};
pub use reference::{reference_batch, reference_leakage, ReferenceOptions, ReferenceResult};
pub use report::{accuracy, Accuracy, CircuitLeakage, LoadingImpact};
pub use shared::SharedEstimator;
pub use stats::Stats;

#[cfg(test)]
mod proptests {
    use super::*;
    use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
    use nanoleak_device::Technology;
    use nanoleak_netlist::generate::{random_circuit, RandomCircuitSpec};
    use nanoleak_netlist::normalize::normalize;
    use nanoleak_netlist::Pattern;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// On random circuits and patterns, the LUT estimator stays
        /// within a few percent of the untruncated reference, and the
        /// no-loading baseline is finite and positive.
        #[test]
        fn estimator_tracks_reference(seed in any::<u64>()) {
            let tech = Technology::d25();
            let lib = CellLibrary::shared_with_options(
                &tech, 300.0, &CharacterizeOptions::coarse(&CellType::ALL));
            let raw = random_circuit(&RandomCircuitSpec::new("prop", 5, 2, 25, 1, seed));
            let circuit = normalize(&raw).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e3779b9);
            let p = Pattern::random(&circuit, &mut rng);

            let est = estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap();
            let rf = reference_leakage(&circuit, &tech, 300.0, &p, &ReferenceOptions::default())
                .unwrap();
            let acc = accuracy(&est, &rf.leakage);
            prop_assert!(
                acc.total_rel_err.abs() < 0.05,
                "total err {}%", acc.total_rel_err * 100.0
            );
            prop_assert!(est.total.total() > 0.0);
        }
    }
}
