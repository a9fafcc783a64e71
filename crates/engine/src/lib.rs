//! # nanoleak-engine
//!
//! The high-throughput analysis layer over the single-shot Fig. 13
//! estimator of `nanoleak-core`. The paper (Mukhopadhyay, Bhunia &
//! Roy, DATE 2005) shows leakage is strongly input-vector dependent
//! (Fig. 7) and that the loading-aware estimator is fast enough to
//! evaluate thousands of vectors per second — this crate turns that
//! into three production workloads:
//!
//! * [`sweep`](crate::sweep::sweep) — a parallel **pattern-sweep
//!   executor** that fans one circuit across N random input patterns
//!   on a configurable number of threads. Per-pattern RNG streams are
//!   derived from the base seed with SplitMix64, so the results (and
//!   every merged statistic) are bit-identical for any thread count.
//! * [`mlv_search`] — **minimum/maximum leakage input-vector search**
//!   for standby-power optimization, with pluggable strategies:
//!   exhaustive enumeration (small input counts), random sampling,
//!   and greedy bit-flip hill-climbing with parallel restarts. Returns
//!   the best vector, its full leakage report, and search telemetry.
//! * [`LibraryCache`] — a **persistent characterization cache** that
//!   serializes [`CellLibrary`](nanoleak_cells::CellLibrary) LUTs to
//!   disk behind a versioned, checksummed header keyed on the
//!   technology/temperature/options hash, so repeated CLI and bench
//!   runs skip the expensive characterize step entirely. Under the
//!   [`MemoLibraryCache`] every front-end shares, plain and traced
//!   requests walk one RAM → disk → solve ladder; a traced request
//!   (the fast-MC nominal) also stores its sensitivities beside the
//!   library.
//! * [`mc_streaming_mode`] — **circuit-level Monte-Carlo variation**
//!   (the paper's Section 5.3 at circuit scale): sharded, cancellable
//!   execution of `nanoleak-variation`'s one perturbed-die driver,
//!   with merged summaries bit-identical to a monolithic run for any
//!   shard size or thread count. The [`McMode`] only picks the
//!   driver's per-die library provider:
//!   [`SolverProvider`](nanoleak_variation::SolverProvider), which
//!   re-solves every die (exact), or the [`DeltaLibraryProvider`]
//!   (fast). Every die gets a fresh library of its own (see [`mc`]).
//! * [`DeltaLibraryProvider`] — **delta-from-nominal
//!   characterization** for the fast mode: the nominal library is
//!   characterized once per cache directory with traced Newton solves
//!   recording per-`(cell, vector)` sensitivity slabs, and every perturbed die's
//!   library is derived as `nominal + J·Δ` with a per-entry
//!   linearization-error fallback to a full solve. A fast run reports
//!   how it got the nominal ([`McTelemetry::nominal`]), as every other
//!   request reports its library. The exact mode stays available end
//!   to end (`mc --exact`, the server's `"exact"` MC-job flag) and
//!   fast runs self-report their measured deviation from it.
//!
//! Sweeps, every MLV strategy and every Monte-Carlo die evaluate their
//! patterns through `nanoleak-core`'s one block driver,
//! [`nanoleak_core::par_blocks`], which counts and times each packed
//! block where it runs ([`block_metrics`], re-exported here).
//!
//! ## Quickstart
//!
//! ```
//! use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
//! use nanoleak_device::Technology;
//! use nanoleak_engine::{mlv_search, sweep, MlvConfig, SweepConfig};
//! use nanoleak_netlist::CircuitBuilder;
//!
//! let tech = Technology::d25();
//! let lib = CellLibrary::shared_with_options(
//!     &tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2]));
//! let mut b = CircuitBuilder::new("pair");
//! let a = b.add_input("a");
//! let c = b.add_input("b");
//! let n = b.add_gate(CellType::Nand2, &[a, c], "n");
//! let y = b.add_gate(CellType::Inv, &[n], "y");
//! b.mark_output(y);
//! let circuit = b.build()?;
//!
//! // Statistics of leakage over 64 random vectors, on all cores.
//! let report = sweep(&circuit, &lib, &SweepConfig { vectors: 64, ..Default::default() })?;
//! assert!(report.stats.total.min <= report.stats.total.mean);
//!
//! // The standby vector minimizing leakage (2 inputs: exhaustive).
//! let best = mlv_search(&circuit, &lib, &MlvConfig::default())?;
//! assert_eq!(best.leakage.total.total(), report.stats.total.min);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod mc;
pub mod mlv;
pub mod plan_cache;
pub mod sweep;

use std::fmt;

use nanoleak_core::EstimateError;
use nanoleak_solver::SolverError;

pub use cache::{
    CacheOutcome, DeltaLibraryProvider, LibraryCache, MemoCacheStats, MemoLibraryCache,
    CACHE_FORMAT_VERSION, MAX_RESIDENT_LIBRARIES,
};
pub use mc::{mc_streaming_mode, McMode, McReport, McShard, McTelemetry, DEFAULT_DEVIATION_PROBE};
pub use mlv::{mlv_search, MlvConfig, MlvGoal, MlvResult, MlvStrategy, MlvTelemetry};
pub use nanoleak_core::{block_metrics, BlockMetrics};
pub use plan_cache::{shared_plan, MAX_RESIDENT_PLANS};
pub use sweep::{
    pattern_for_index, shard_count, sweep, sweep_streaming, ExtremeVector, SweepConfig,
    SweepReport, SweepShard, SweepStats, SweepTelemetry,
};

/// Errors from the analysis engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A per-pattern estimate failed.
    Estimate(EstimateError),
    /// Characterization failed while filling a cache miss.
    Solver(SolverError),
    /// Exhaustive enumeration was requested for an input space larger
    /// than the enumeration limit.
    SearchSpaceTooLarge {
        /// Primary inputs + DFF state bits of the circuit.
        bits: usize,
        /// Largest enumerable bit count.
        limit: usize,
    },
    /// A cache file could not be read or written.
    Cache(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Estimate(e) => write!(f, "estimation failed: {e}"),
            EngineError::Solver(e) => write!(f, "characterization failed: {e}"),
            EngineError::SearchSpaceTooLarge { bits, limit } => write!(
                f,
                "exhaustive search over {bits} input bits exceeds the {limit}-bit limit; \
                 use the hill-climb or random strategy"
            ),
            EngineError::Cache(msg) => write!(f, "characterization cache: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Estimate(e) => Some(e),
            EngineError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EstimateError> for EngineError {
    fn from(e: EstimateError) -> Self {
        EngineError::Estimate(e)
    }
}

impl From<SolverError> for EngineError {
    fn from(e: SolverError) -> Self {
        EngineError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::CellType;

    #[test]
    fn error_displays_are_informative() {
        let e = EngineError::SearchSpaceTooLarge { bits: 40, limit: 22 };
        assert!(e.to_string().contains("40 input bits"));
        let e: EngineError = EstimateError::MissingCell(CellType::Nor2).into();
        assert!(e.to_string().contains("nor2"));
        let e = EngineError::Cache("bad header".into());
        assert!(e.to_string().contains("bad header"));
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error as _;
        let e: EngineError = EstimateError::BadPattern("x".into()).into();
        assert!(e.source().is_some());
        assert!(EngineError::Cache("y".into()).source().is_none());
    }
}
