//! # nanoleak
//!
//! Loading-effect-aware leakage estimation for nano-scale bulk-CMOS
//! logic circuits — a from-scratch Rust reproduction of
//!
//! > S. Mukhopadhyay, S. Bhunia, K. Roy, *"Modeling and Analysis of
//! > Loading Effect in Leakage of Nano-Scaled Bulk-CMOS Logic
//! > Circuits"*, DATE 2005.
//!
//! In sub-100 nm bulk CMOS the three leakage mechanisms — subthreshold
//! conduction, gate direct tunneling, and junction band-to-band
//! tunneling (BTBT) — interact *between* gates: the tunneling current a
//! gate's fanin/fanout neighbors draw from (or inject into) a net
//! shifts that net's voltage a few millivolts off the rail, which moves
//! every attached gate's leakage by up to ~10%. This crate family
//! models that **loading effect** end to end and implements the paper's
//! fast one-pass estimation algorithm, validated against a full
//! nonlinear circuit solve.
//!
//! This facade re-exports the sub-crates:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`device`] | `nanoleak-device` | compact transistor leakage models |
//! | [`solver`] | `nanoleak-solver` | DC Newton/LU kernels ("virtual SPICE") |
//! | [`cells`] | `nanoleak-cells` | standard cells + loading characterization |
//! | [`netlist`] | `nanoleak-netlist` | gate-level circuits, `.bench`, generators |
//! | [`core`] | `nanoleak-core` | the Fig. 13 estimator + reference simulator |
//! | [`variation`] | `nanoleak-variation` | Monte-Carlo process variation (inverter fixture + circuit-level) |
//! | [`engine`] | `nanoleak-engine` | parallel sweeps, MLV search, streaming MC, characterization + plan caches |
//! | [`opt`] | `nanoleak-opt` | leakage-aware netlist optimization (pin permutations, NAND/NOR remaps) |
//! | [`serve`] | `nanoleak-serve` | long-lived HTTP/JSON service + async grid/MC/optimize jobs |
//!
//! ## Quickstart
//!
//! ```
//! use nanoleak::prelude::*;
//!
//! // 1. Pick the paper's 25 nm technology and characterize the cells.
//! let tech = Technology::d25();
//! let lib = CellLibrary::shared_with_options(
//!     &tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv]));
//!
//! // 2. Build a fanout web: one driver, four loads on its output net.
//! let mut b = CircuitBuilder::new("web");
//! let a = b.add_input("a");
//! let mid = b.add_gate(CellType::Inv, &[a], "mid");
//! for i in 0..4 {
//!     let y = b.add_gate(CellType::Inv, &[mid], &format!("y{i}"));
//!     b.mark_output(y);
//! }
//! let circuit = b.build()?;
//!
//! // 3. Estimate leakage with and without the loading effect.
//! let pattern = Pattern::zeros(&circuit);
//! let loaded = estimate(&circuit, &lib, &pattern, EstimatorMode::Lut)?;
//! let baseline = estimate(&circuit, &lib, &pattern, EstimatorMode::NoLoading)?;
//! assert!(loaded.total.total() != baseline.total.total());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The analysis engine
//!
//! The [`engine`] crate scales the single-shot estimator into batch
//! workloads. Its three subsystems:
//!
//! * **Pattern sweeps** ([`engine::sweep`](nanoleak_engine::sweep::sweep)) —
//!   evaluate N random input patterns in parallel and merge
//!   mean/std/min/max/percentile statistics per leakage component.
//!   Pattern `i` is always drawn from the SplitMix64-derived stream
//!   `mix(seed, i)`, so sweep statistics are bit-identical for any
//!   `--threads` value. Patterns run 64 to the machine word through
//!   the compiled plan's block kernel
//!   ([`CompiledEstimator::estimate_block_into`](nanoleak_core::CompiledEstimator::estimate_block_into));
//!   `--lanes 1` runs 1-pattern blocks on the per-lane kernel, with
//!   bit-identical results either way.
//! * **MLV search** ([`engine::mlv_search`](nanoleak_engine::mlv::mlv_search)) —
//!   find the minimum- (or maximum-) leakage input vector for standby
//!   power, by exhaustive enumeration, random sampling, or parallel
//!   hill-climbing with restarts.
//! * **Characterization cache**
//!   ([`engine::LibraryCache`](nanoleak_engine::cache::LibraryCache)) —
//!   persist characterized [`CellLibrary`](nanoleak_cells::CellLibrary)
//!   LUTs to disk (`*.nlc`: magic/version/key/checksum header + the
//!   serialized library), so repeated runs skip the multi-second
//!   characterize step. Keys hash the full (technology, temperature,
//!   options) request; any mismatch re-characterizes.
//!
//! ```
//! use nanoleak::prelude::*;
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
//! // Per-vector statistics over the input space, all cores.
//! let report = sweep(&circuit, &lib, &SweepConfig { vectors: 32, ..Default::default() })?;
//! // The standby vector with the least leakage.
//! let best = mlv_search(&circuit, &lib, &MlvConfig::default())?;
//! assert!(best.objective <= report.stats.total.min);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! From the CLI: `nanoleak-cli sweep s1196 --vectors 1000 --threads 8`
//! and `nanoleak-cli mlv s838 --strategy hillclimb`.
//!
//! ## The optimizer
//!
//! The [`opt`] crate closes the loop from *estimating* standby leakage
//! to *reducing* it ([`opt::optimize`]): a
//! deterministic greedy pass that permutes commutative gate pins and
//! applies De-Morgan NAND↔NOR remaps, scoring every candidate with the
//! compiled estimator at the minimum-leakage vector and re-searching
//! the vector after each round. The result is guaranteed no worse than
//! the input at its own MLV. From the CLI:
//! `nanoleak-cli optimize s838 --rounds 4`.
//!
//! ## The service
//!
//! `nanoleak-cli serve` hosts the engine as a resident HTTP/JSON
//! service ([`serve`]): synchronous `/v1/estimate`, `/v1/sweep`, and
//! `/v1/mlv` endpoints plus an async job queue whose `"grid"` job
//! type sweeps a temperature × Vdd condition matrix through a shared
//! in-RAM characterization cache. `estimate` and `sweep` also take
//! `--format json` for machine-readable one-shot output, using the
//! same field names the service responds with.

pub use nanoleak_cells as cells;
pub use nanoleak_core as core;
pub use nanoleak_device as device;
pub use nanoleak_engine as engine;
pub use nanoleak_netlist as netlist;
pub use nanoleak_opt as opt;
pub use nanoleak_serve as serve;
pub use nanoleak_solver as solver;
pub use nanoleak_variation as variation;

/// The most commonly used items, one `use` away.
pub mod prelude {
    pub use nanoleak_cells::{
        eval_isolated, eval_loaded, CellLibrary, CellType, CharacterizeOptions, InputVector,
        OperatingPoint,
    };
    pub use nanoleak_core::{
        accuracy, estimate, estimate_batch, reference_leakage, resolve_lanes, BlockScratch,
        CircuitLeakage, CompiledEstimator, EstimateError, EstimateScratch, EstimatorMode,
        LoadingImpact, PatternBlock, ReferenceOptions, Stats, LANES,
    };
    pub use nanoleak_device::{
        Bias, DeviceDesign, LeakageBreakdown, MosKind, Perturbation, Technology, Transistor,
    };
    pub use nanoleak_engine::{
        mc_streaming_mode, mlv_search, sweep, CacheOutcome, EngineError, LibraryCache, McMode,
        MemoLibraryCache, MlvConfig, MlvGoal, MlvResult, MlvStrategy, SweepConfig, SweepReport,
    };
    pub use nanoleak_netlist::{
        bench_format::parse_bench, generate, normalize::normalize, parse_yosys_json, Circuit,
        CircuitBuilder, CircuitStats, Pattern,
    };
    pub use nanoleak_opt::{optimize, optimize_with, OptimizeConfig, OptimizeResult};
    pub use nanoleak_solver::{solve_dc, MosNetlist, NewtonOptions, SolverError};
    pub use nanoleak_variation::{
        run_circuit_mc, run_inverter_mc, CircuitMcConfig, McConfig, McSummary, VariationSigmas,
    };
}
