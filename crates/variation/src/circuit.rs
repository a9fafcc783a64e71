//! Circuit-level Monte-Carlo process variation.
//!
//! The paper's Section 5.3 result — loading widens the leakage
//! distribution under process variation — is demonstrated on a paired
//! inverter fixture ([`crate::run_inverter_mc`], Figs. 10–11). This
//! module scales the question to whole logic circuits: every sample
//! draws a die-wide process perturbation, derives a perturbed
//! [`Technology`], obtains its [`CellLibrary`] from a pluggable
//! [`DeltaProvider`], and estimates the circuit's leakage with and
//! without loading on a compiled [`CompiledEstimator`] plan.
//!
//! One driver, [`run_circuit_mc_range`], serves both modes; only the
//! provider differs. [`SolverProvider`] (and the engine's memo)
//! re-solve every die — the bit-exact mode — while
//! [`SensDeltaProvider`] derives each die from a nominal library's
//! recorded sensitivities — the fast mode.
//!
//! ## Modeling scope
//!
//! The LUT estimator shares one characterized device pair across the
//! whole die, so per-sample variation is **die-wide**: the inter-die
//! deltas (threshold voltage, supply) plus one draw of the intra-die
//! sigmas (channel length, oxide thickness, threshold) applied
//! identically to every transistor. True per-device intra-die
//! resolution remains the inverter fixture's job, where each
//! transistor is solved individually. The split mirrors how the two
//! workloads are used: the fixture reproduces the paper's figures; the
//! circuit workload answers "how wide is my chip's leakage
//! distribution" at production scale.
//!
//! ## Determinism
//!
//! Sample `i` is a pure function of `(config, i)`: its RNG stream is
//! `mix(seed, i)` (the workspace-wide SplitMix64 convention), patterns
//! come from the engine's `mix(pattern_seed, k)` streams, per-sample
//! outputs materialize in index order, and every floating-point
//! reduction (the per-sample vector mean and the summary statistics)
//! runs sequentially over that order. Results are therefore
//! bit-identical for any thread count, and a sharded run that
//! concatenates [`run_circuit_mc_range`] outputs in index order
//! reproduces the monolithic run exactly.

use std::fmt;
use std::sync::Arc;

use nanoleak_cells::{
    delta_library, infer_deltas, CellLibrary, CellType, CharacterizeOptions, LibrarySens,
    OperatingPoint,
};
use nanoleak_core::exec::{mix, par_map_with};
use nanoleak_core::{
    resolve_lanes, BlockScratch, CompiledEstimator, EstimateError, EstimateScratch, EstimatorMode,
    PatternBlock, LANES,
};
use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_netlist::{Circuit, Pattern};
use nanoleak_solver::SolverError;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::mc::{series_of, McSample, Series};
use crate::sigmas::VariationSigmas;
use crate::stats::{Histogram, Stats};

/// Errors from the circuit-level Monte Carlo.
#[derive(Debug, Clone, PartialEq)]
pub enum McError {
    /// A per-sample characterization failed to converge.
    Solver(SolverError),
    /// A per-sample estimate failed (e.g. a cell missing from the
    /// characterized set).
    Estimate(EstimateError),
    /// The library provider failed outside the solver (cache I/O and
    /// the like).
    Library(String),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Solver(e) => write!(f, "sample characterization failed: {e}"),
            McError::Estimate(e) => write!(f, "sample estimation failed: {e}"),
            McError::Library(msg) => write!(f, "library provider: {msg}"),
        }
    }
}

impl std::error::Error for McError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McError::Solver(e) => Some(e),
            McError::Estimate(e) => Some(e),
            McError::Library(_) => None,
        }
    }
}

impl From<SolverError> for McError {
    fn from(e: SolverError) -> Self {
        McError::Solver(e)
    }
}

impl From<EstimateError> for McError {
    fn from(e: EstimateError) -> Self {
        McError::Estimate(e)
    }
}

/// How one die's library was produced by a [`DeltaProvider`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DieDiag {
    /// `true` when the library was derived from nominal sensitivities,
    /// `false` when the die was fully characterized (always, from a
    /// provider that re-solves; on a delta provider, when the die's
    /// perturbation was not recognized as a delta of the nominal).
    pub derived: bool,
    /// `(cell, vector)` entries in the derived library (0 on fallback).
    pub entries: u32,
    /// Entries whose linearization-error estimate exceeded the
    /// tolerance and re-solved exactly.
    pub fallbacks: u32,
    /// Largest per-entry linearization-error estimate seen (log units).
    pub max_est: f64,
}

/// Supplies the library of one perturbed die, reporting how it was
/// produced (delta-derived vs. fully solved).
///
/// Every Monte-Carlo sample asks for a `(tech, temp, options)`
/// library; where that answer comes from is the caller's policy.
/// [`SolverProvider`] characterizes directly (hermetic tests, one-shot
/// runs); the engine layers its `MemoLibraryCache` behind this trait
/// so repeated runs of the same seed hit RAM/disk instead of the
/// solver; [`SensDeltaProvider`] derives dies from nominal
/// sensitivities. Implementations must be deterministic: the same
/// request must yield the same library bit-for-bit, or the MC loses
/// its reproducibility guarantee.
pub trait DeltaProvider: Sync {
    /// The library for one perturbed die, plus derivation diagnostics.
    ///
    /// # Errors
    /// [`McError`] describing the characterization, derivation or
    /// cache failure.
    fn die_library(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, DieDiag), McError>;
}

/// The trivial provider: characterize every die from scratch
/// (`derived: false`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverProvider;

impl DeltaProvider for SolverProvider {
    fn die_library(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, DieDiag), McError> {
        Ok((Arc::new(CellLibrary::characterize(tech, temp, opts)?), DieDiag::default()))
    }
}

/// The reference delta provider: derives each die from a nominal
/// library's recorded sensitivities ([`delta_library`]) when the die's
/// perturbation round-trips through [`infer_deltas`], and falls back
/// to `fallback` (a provider that re-solves) otherwise. The engine
/// wraps this over its RAM memo and adds metrics.
#[derive(Clone)]
pub struct SensDeltaProvider<'a> {
    /// The nominal library the sensitivities were recorded against.
    pub nominal: Arc<CellLibrary>,
    /// Per-`(cell, vector)` sensitivity models from the traced nominal
    /// characterization.
    pub sens: Arc<LibrarySens>,
    /// Per-entry linearization-error tolerance (log units); entries
    /// estimating above it re-solve exactly.
    pub tol: f64,
    /// Full-characterization fallback for unrecognized requests.
    pub fallback: &'a dyn DeltaProvider,
}

impl DeltaProvider for SensDeltaProvider<'_> {
    fn die_library(
        &self,
        tech: &Technology,
        temp: f64,
        opts: &CharacterizeOptions,
    ) -> Result<(Arc<CellLibrary>, DieDiag), McError> {
        if temp == self.nominal.temp && *opts == self.nominal.options {
            if let Some(deltas) = infer_deltas(&self.nominal.tech, tech) {
                let (lib, report) = delta_library(&self.nominal, &self.sens, &deltas, self.tol)?;
                let diag = DieDiag {
                    derived: true,
                    entries: report.entries as u32,
                    fallbacks: report.fallbacks as u32,
                    max_est: report.max_est,
                };
                return Ok((Arc::new(lib), diag));
            }
        }
        self.fallback.die_library(tech, temp, opts)
    }
}

/// Configuration of one circuit-level Monte Carlo.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitMcConfig {
    /// Number of Monte-Carlo samples (perturbed dies).
    pub samples: usize,
    /// Base RNG seed; sample `i` draws from stream `mix(seed, i)`.
    pub seed: u64,
    /// Variation magnitudes (see the modeling-scope note in the module
    /// docs: intra-die sigmas are applied as one die-wide draw).
    pub sigmas: VariationSigmas,
    /// Operating conditions of the nominal die. The per-sample supply
    /// perturbation is applied on top of the scaled nominal.
    pub op: OperatingPoint,
    /// Input patterns averaged per sample (the same engine-convention
    /// pattern set, `mix(pattern_seed, k)`, for every sample — so the
    /// distributions differ only through process variation).
    pub vectors: usize,
    /// Seed of the shared pattern set.
    pub pattern_seed: u64,
    /// Worker threads (`0` = all cores, capped at 16); never changes
    /// the result.
    pub threads: usize,
    /// Characterization options for the per-sample libraries. Use
    /// [`char_opts_for`] to restrict to the circuit's cell set —
    /// characterizing cells the circuit never instantiates is pure
    /// waste at one library per sample.
    pub char_opts: CharacterizeOptions,
    /// Evaluation lanes: `0` (auto) and [`LANES`] pack each sample's
    /// shared pattern set into 64-lane blocks (packed once, reused by
    /// both arms); `1` forces the scalar per-pattern path. Never
    /// changes a bit of the result.
    pub lanes: usize,
}

impl Default for CircuitMcConfig {
    fn default() -> Self {
        Self {
            samples: 1000,
            seed: 2005,
            sigmas: VariationSigmas::paper_nominal(),
            op: OperatingPoint::default(),
            vectors: 1,
            pattern_seed: 2005,
            threads: 0,
            char_opts: CharacterizeOptions::default(),
            lanes: 0,
        }
    }
}

/// Characterization options covering exactly the cells `circuit`
/// instantiates, at coarse (test) or default (production) resolution.
pub fn char_opts_for(circuit: &Circuit, coarse: bool) -> CharacterizeOptions {
    let cells: Vec<CellType> = circuit.cell_histogram().into_iter().map(|(c, _)| c).collect();
    if coarse {
        CharacterizeOptions::coarse(&cells)
    } else {
        CharacterizeOptions { cells, ..CharacterizeOptions::default() }
    }
}

/// Result of [`run_circuit_mc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitMcResult {
    /// The configuration that produced the samples.
    pub config: CircuitMcConfig,
    /// Per-sample paired outcomes, in sample-index order.
    pub samples: Vec<McSample>,
}

impl CircuitMcResult {
    /// Extracts a series over samples.
    pub fn series(&self, which: Series, loaded: bool) -> Vec<f64> {
        series_of(&self.samples, which, loaded)
    }

    /// Statistics of a series.
    pub fn stats(&self, which: Series, loaded: bool) -> Stats {
        crate::mc::stats_of(&self.samples, which, loaded)
    }

    /// The full distribution summary (see [`summarize`]).
    pub fn summary(&self, bins: usize) -> McSummary {
        summarize(&self.samples, bins)
    }
}

/// Distribution summary of one component series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Subthreshold-component statistics \[A\].
    pub sub: Stats,
    /// Gate-tunneling statistics \[A\].
    pub gate: Stats,
    /// Junction-BTBT statistics \[A\].
    pub btbt: Stats,
    /// Total-leakage statistics \[A\].
    pub total: Stats,
    /// Histogram of total leakage. Loaded and unloaded summaries share
    /// one bin range so the panels overlay like the paper's Fig. 10.
    pub histogram: Histogram,
}

/// Distribution summary of a paired Monte-Carlo sample set — the
/// serializable payload MC jobs return over HTTP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McSummary {
    /// Samples summarized.
    pub samples: usize,
    /// Distributions with loading modeled.
    pub loaded: SeriesSummary,
    /// Distributions with loading ignored.
    pub unloaded: SeriesSummary,
    /// Loading-induced shift of the total-leakage mean, as a fraction
    /// of the unloaded mean (paper Fig. 11 left).
    pub mean_shift: f64,
    /// Loading-induced shift of the total-leakage standard deviation,
    /// as a fraction of the unloaded std (paper Fig. 11 right).
    pub std_shift: f64,
    /// Fast-path (delta-derived) diagnostics; `None` on the exact path
    /// (and on per-shard partials — only the engine's final merge
    /// fills it in).
    pub fast: Option<FastMcReport>,
}

/// Per-die library diagnostics of one Monte-Carlo run, summed over
/// dies in sample-index order — deterministic for any thread count or
/// shard split. A provider that re-solves every die reports them all
/// in `dies_full`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FastMcDiag {
    /// Dies whose library was derived from nominal sensitivities.
    pub dies_derived: u64,
    /// Dies that fell back to a full characterization (perturbation
    /// not recognized as a delta of the nominal).
    pub dies_full: u64,
    /// `(cell, vector)` entries served by the delta model.
    pub entries_derived: u64,
    /// Entries whose linearization-error estimate exceeded the
    /// tolerance and re-solved exactly.
    pub entries_fallback: u64,
    /// Largest per-entry linearization-error estimate seen (log units).
    pub max_error_estimate: f64,
}

impl FastMcDiag {
    /// Folds one die's diagnostics in.
    pub fn absorb(&mut self, d: &DieDiag) {
        if d.derived {
            self.dies_derived += 1;
            self.entries_derived += u64::from(d.entries - d.fallbacks);
            self.entries_fallback += u64::from(d.fallbacks);
        } else {
            self.dies_full += 1;
        }
        self.max_error_estimate = self.max_error_estimate.max(d.max_est);
    }

    /// Merges another run segment's diagnostics (shard concatenation).
    pub fn merge(&mut self, o: &FastMcDiag) {
        self.dies_derived += o.dies_derived;
        self.dies_full += o.dies_full;
        self.entries_derived += o.entries_derived;
        self.entries_fallback += o.entries_fallback;
        self.max_error_estimate = self.max_error_estimate.max(o.max_error_estimate);
    }
}

/// The fast path's self-report inside [`McSummary`]: derivation
/// diagnostics plus the measured deviation of the first `probed`
/// samples from the bit-exact path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FastMcReport {
    /// Derivation diagnostics summed over all dies.
    pub diag: FastMcDiag,
    /// The linearization-error tolerance the run used (log units).
    pub tol: f64,
    /// Samples re-run through the exact path for the deviation check.
    pub probed: usize,
    /// Largest relative deviation of a probed sample's total leakage
    /// (max over both arms) from the exact path.
    pub max_deviation: f64,
    /// Mean relative deviation over the probed samples and arms.
    pub mean_deviation: f64,
}

/// Default histogram resolution of MC summaries.
pub const DEFAULT_HIST_BINS: usize = 32;

/// Summarizes a paired sample set: per-component statistics for both
/// arms, total-leakage histograms over one shared `[0, max)` range,
/// and the Fig. 11 mean/std shifts.
///
/// This is a pure sequential function of the index-ordered sample
/// slice — the one reduction both monolithic and sharded runs finish
/// with, so their summaries agree bit-for-bit by construction.
///
/// # Panics
/// Panics on an empty sample set or `bins == 0`.
pub fn summarize(samples: &[McSample], bins: usize) -> McSummary {
    assert!(!samples.is_empty(), "summary of an empty MC sample set");
    let loaded_total = series_of(samples, Series::Total, true);
    let unloaded_total = series_of(samples, Series::Total, false);
    // One shared bin range: slightly past the global max so the
    // extreme sample lands in the last bin, not the outlier bucket.
    let max = loaded_total
        .iter()
        .chain(&unloaded_total)
        .copied()
        .fold(0.0_f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let hi = max * (1.0 + 1e-9);
    let arm = |loaded: bool, totals: &[f64]| SeriesSummary {
        sub: crate::mc::stats_of(samples, Series::Sub, loaded),
        gate: crate::mc::stats_of(samples, Series::Gate, loaded),
        btbt: crate::mc::stats_of(samples, Series::Btbt, loaded),
        total: Stats::of(totals),
        histogram: Histogram::of(totals, 0.0, hi, bins),
    };
    let loaded = arm(true, &loaded_total);
    let unloaded = arm(false, &unloaded_total);
    let mean_shift = (loaded.total.mean - unloaded.total.mean) / unloaded.total.mean;
    let std_shift = (loaded.total.std - unloaded.total.std) / unloaded.total.std;
    McSummary { samples: samples.len(), loaded, unloaded, mean_shift, std_shift, fast: None }
}

/// The perturbed technology of sample `index`: the operating-point
/// nominal with one die-wide draw applied to both device designs and
/// the supply.
fn sample_tech(nominal: &Technology, config: &CircuitMcConfig, index: usize) -> Technology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(mix(config.seed, index as u64));
    let inter = config.sigmas.sample_inter(&mut rng);
    let die = inter.combined(&config.sigmas.sample_intra(&mut rng));
    let mut tech = nominal.clone();
    tech.nmos = die.apply(&tech.nmos);
    tech.pmos = die.apply(&tech.pmos);
    tech.vdd += die.dvdd;
    tech
}

/// Pattern count from which a die's loaded arm builds the block
/// response tables instead of running the lane-by-lane scalar kernel.
/// Every die compiles a fresh plan and evaluates it `vectors` times,
/// so the table build must pay for itself within one die. Measured per
/// fresh plan on s838 (coarse grid, one thread, 2-vCPU x86-64 host):
/// the tables cost ~50 ms to build and then ~0.5 ms per 64 vectors,
/// the lane-by-lane arm ~3.5 ms per 64 vectors, so tables break even
/// at 1152 vectors (median of 9 runs, range 1024–1216). Larger
/// circuits break even sooner (s5378: ~640).
pub const TABLE_AMORTIZE_VECTORS: usize = 18 * LANES;

impl CircuitMcConfig {
    /// Whether each die's loaded (Lut) arm builds the block response
    /// tables: the driver's one pattern-volume rule, the same in both
    /// modes.
    fn loaded_arm_tables(&self) -> bool {
        self.vectors >= TABLE_AMORTIZE_VECTORS
    }

    /// 64-lane blocks one die runs through the word-parallel kernel,
    /// and the unused lanes of their tail blocks: the unloaded arm's
    /// blocks, plus the loaded arm's once it builds tables
    /// ([`TABLE_AMORTIZE_VECTORS`]). `(0, 0)` on the scalar path
    /// (`lanes == 1`).
    pub fn packed_blocks_per_die(&self) -> (u64, u64) {
        if resolve_lanes(self.lanes) == 1 {
            return (0, 0);
        }
        let arms = if self.loaded_arm_tables() { 2 } else { 1 };
        let blocks = self.vectors.div_ceil(LANES);
        (arms * blocks as u64, arms * (blocks * LANES - self.vectors) as u64)
    }
}

/// Per-worker reusable buffers for circuit MC samples. Plans share
/// the circuit's dimensions, so every buffer warms once and then
/// serves each per-die plan allocation-free.
#[derive(Debug, Default)]
struct SampleScratch {
    scalar: EstimateScratch,
    block: BlockScratch,
    pack: PatternBlock,
    pattern: Pattern,
}

/// Evaluates one die's plan over the shared pattern set, returning the
/// (loaded, unloaded) sums in pattern-index order.
///
/// On the block path the loaded (Lut) arm runs the 64-lane kernel with
/// response tables once the pattern volume amortizes them
/// ([`TABLE_AMORTIZE_VECTORS`]) and the per-lane scalar kernel below
/// that. Core guarantees both kernels agree bit-for-bit, so the rule
/// never changes a result, only its cost.
fn evaluate_plan(
    plan: &CompiledEstimator,
    circuit: &Circuit,
    config: &CircuitMcConfig,
    scratch: &mut SampleScratch,
) -> Result<(LeakageBreakdown, LeakageBreakdown), McError> {
    if resolve_lanes(config.lanes) == 1 {
        // Sequential index-order mean over the shared pattern set;
        // both arms run on the same plan (the unloaded arm simply
        // skips the loading pass), so one characterization serves
        // both.
        let scalar = &mut scratch.scalar;
        let mut arm = |mode: EstimatorMode| -> Result<LeakageBreakdown, McError> {
            let mut sum = LeakageBreakdown::ZERO;
            for k in 0..config.vectors {
                sum += plan.estimate_index_into(scalar, config.pattern_seed, k, mode)?;
            }
            Ok(sum)
        };
        Ok((arm(EstimatorMode::Lut)?, arm(EstimatorMode::NoLoading)?))
    } else {
        // Block path: each 64-pattern chunk of the shared set is
        // packed once and reused by both arms. The unloaded arm runs
        // the word-parallel kernel (no tables needed). Each arm's sum
        // adds its per-pattern values in index order, so both means
        // are bit-identical to the scalar path's.
        let tables = config.loaded_arm_tables();
        let mut loaded = LeakageBreakdown::ZERO;
        let mut unloaded = LeakageBreakdown::ZERO;
        if scratch.pack.pi_words().len() != circuit.inputs().len()
            || scratch.pack.state_words().len() != circuit.state_inputs().len()
        {
            scratch.pack = PatternBlock::for_circuit(circuit);
        }
        let mut k = 0usize;
        while k < config.vectors {
            let n = LANES.min(config.vectors - k);
            scratch.pack.clear();
            for j in 0..n {
                let mut rng =
                    rand::rngs::StdRng::seed_from_u64(mix(config.pattern_seed, (k + j) as u64));
                scratch.pattern.fill_random(circuit, &mut rng);
                scratch.pack.push(&scratch.pattern);
            }
            if tables {
                plan.estimate_block_into(&mut scratch.block, &scratch.pack, EstimatorMode::Lut)?;
            } else {
                plan.estimate_block_scalar_into(
                    &mut scratch.block,
                    &scratch.pack,
                    EstimatorMode::Lut,
                )?;
            }
            for t in scratch.block.totals() {
                loaded += *t;
            }
            plan.estimate_block_into(&mut scratch.block, &scratch.pack, EstimatorMode::NoLoading)?;
            for t in scratch.block.totals() {
                unloaded += *t;
            }
            k += n;
        }
        Ok((loaded, unloaded))
    }
}

fn run_circuit_sample(
    circuit: &Circuit,
    nominal: &Technology,
    provider: &dyn DeltaProvider,
    config: &CircuitMcConfig,
    index: usize,
    scratch: &mut SampleScratch,
) -> Result<(McSample, DieDiag), McError> {
    let tech = sample_tech(nominal, config, index);
    let (lib, diag) = provider.die_library(&tech, config.op.temp, &config.char_opts)?;
    let plan = CompiledEstimator::compile(circuit, &lib)?;
    let (loaded, unloaded) = evaluate_plan(&plan, circuit, config, scratch)?;
    let sample = McSample {
        loaded: loaded.scaled(1.0 / config.vectors as f64),
        unloaded: unloaded.scaled(1.0 / config.vectors as f64),
    };
    Ok((sample, diag))
}

/// Runs the contiguous sample range `start .. start + len` of the
/// Monte Carlo, returning paired samples in index order and the
/// provider's per-die diagnostics summed over the range — the one
/// driver of both modes, and the building block streaming front-ends
/// shard over. Each worker keeps one scratch set (scalar, block, and
/// pattern buffers) across its samples — plans share the circuit's
/// dimensions, so everything warms once.
///
/// Samples and diagnostics are bit-identical for any thread count,
/// shard split, or `lanes` setting. With a provider that re-solves
/// every die ([`SolverProvider`], the engine's memo) the samples are
/// the bit-exact reference; a delta provider's differ from them by the
/// linearization error its tolerance admits.
///
/// # Errors
/// The first per-sample [`McError`] in index order.
///
/// # Panics
/// Panics if `config.vectors` is zero.
pub fn run_circuit_mc_range(
    circuit: &Circuit,
    tech: &Technology,
    provider: &dyn DeltaProvider,
    config: &CircuitMcConfig,
    start: usize,
    len: usize,
) -> Result<(Vec<McSample>, FastMcDiag), McError> {
    assert!(config.vectors > 0, "circuit MC needs at least one pattern per sample");
    let nominal = config.op.tech(tech);
    let per_sample: Vec<Result<(McSample, DieDiag), McError>> =
        par_map_with(len, config.threads, SampleScratch::default, |scratch, k| {
            run_circuit_sample(circuit, &nominal, provider, config, start + k, scratch)
        });
    let mut samples = Vec::with_capacity(len);
    let mut diag = FastMcDiag::default();
    for r in per_sample {
        let (sample, die) = r?;
        diag.absorb(&die);
        samples.push(sample);
    }
    Ok((samples, diag))
}

/// Runs the full circuit-level Monte Carlo (all `config.samples`
/// samples, in parallel, bit-identical for any thread count).
///
/// # Errors
/// The first per-sample [`McError`] in index order.
///
/// # Panics
/// Panics if `config.samples` or `config.vectors` is zero.
pub fn run_circuit_mc(
    circuit: &Circuit,
    tech: &Technology,
    provider: &dyn DeltaProvider,
    config: &CircuitMcConfig,
) -> Result<CircuitMcResult, McError> {
    assert!(config.samples > 0, "circuit MC needs at least one sample");
    let (samples, _) = run_circuit_mc_range(circuit, tech, provider, config, 0, config.samples)?;
    Ok(CircuitMcResult { config: config.clone(), samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_netlist::CircuitBuilder;

    /// A small circuit with real gate-to-gate loading: a NAND2 chain
    /// fanning into inverters.
    fn small_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("mc-test");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let n1 = b.add_gate(CellType::Nand2, &[a, c], "n1");
        let n2 = b.add_gate(CellType::Nand2, &[n1, a], "n2");
        let y1 = b.add_gate(CellType::Inv, &[n1], "y1");
        let y2 = b.add_gate(CellType::Inv, &[n2], "y2");
        b.mark_output(y1);
        b.mark_output(y2);
        b.build().unwrap()
    }

    fn small_config(samples: usize) -> CircuitMcConfig {
        CircuitMcConfig {
            samples,
            seed: 7,
            vectors: 2,
            char_opts: char_opts_for(&small_circuit(), true),
            ..Default::default()
        }
    }

    #[test]
    fn char_opts_cover_exactly_the_circuit_cells() {
        let opts = char_opts_for(&small_circuit(), true);
        assert_eq!(opts.cells, vec![CellType::Inv, CellType::Nand2]);
        let full = char_opts_for(&small_circuit(), false);
        assert_eq!(full.points, CharacterizeOptions::default().points);
        assert_eq!(full.cells, opts.cells);
    }

    #[test]
    fn same_seed_reproduces_the_same_sample_set() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cfg = small_config(4);
        let a = run_circuit_mc(&circuit, &tech, &SolverProvider, &cfg).unwrap();
        let b = run_circuit_mc(&circuit, &tech, &SolverProvider, &cfg).unwrap();
        assert_eq!(a, b);
        // A different seed perturbs differently.
        let c =
            run_circuit_mc(&circuit, &tech, &SolverProvider, &CircuitMcConfig { seed: 8, ..cfg })
                .unwrap();
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn thread_count_never_moves_a_bit() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let base = small_config(5);
        let one = run_circuit_mc(
            &circuit,
            &tech,
            &SolverProvider,
            &CircuitMcConfig { threads: 1, ..base.clone() },
        )
        .unwrap();
        for threads in [2, 4] {
            let multi = run_circuit_mc(
                &circuit,
                &tech,
                &SolverProvider,
                &CircuitMcConfig { threads, ..base.clone() },
            )
            .unwrap();
            assert_eq!(one.samples, multi.samples, "threads = {threads}");
            assert_eq!(one.summary(16), multi.summary(16), "threads = {threads}");
        }
    }

    #[test]
    fn range_concatenation_equals_the_monolithic_run() {
        let circuit = small_circuit();
        let tech = Technology::d25();
        let cfg = small_config(6);
        let mono = run_circuit_mc(&circuit, &tech, &SolverProvider, &cfg).unwrap();
        // Shard as 2 + 3 + 1 and concatenate in index order.
        let mut sharded = Vec::new();
        for (start, len) in [(0usize, 2usize), (2, 3), (5, 1)] {
            sharded.extend(
                run_circuit_mc_range(&circuit, &tech, &SolverProvider, &cfg, start, len).unwrap().0,
            );
        }
        assert_eq!(sharded, mono.samples);
        assert_eq!(summarize(&sharded, 16), mono.summary(16));
    }

    #[test]
    fn loading_shifts_the_circuit_distribution() {
        // The tentpole claim at circuit level: the loaded distribution
        // sits above the unloaded one (subthreshold-driven, like the
        // paper's inverter result).
        let circuit = small_circuit();
        let tech = Technology::d25();
        let r = run_circuit_mc(&circuit, &tech, &SolverProvider, &small_config(8)).unwrap();
        let s = r.summary(16);
        assert_eq!(s.samples, 8);
        assert!(s.loaded.total.mean != s.unloaded.total.mean, "loading must move the estimate");
        assert!(s.loaded.sub.mean > s.unloaded.sub.mean, "sub rises under loading");
        // Histograms conserve mass over the shared range.
        for arm in [&s.loaded, &s.unloaded] {
            assert_eq!(arm.histogram.counts.iter().sum::<usize>() + arm.histogram.outliers, 8);
            assert_eq!(arm.histogram.lo, 0.0);
        }
        assert_eq!(s.loaded.histogram.hi, s.unloaded.histogram.hi, "shared bin range");
    }

    #[test]
    fn sample_tech_applies_one_die_wide_draw() {
        let tech = Technology::d25();
        let cfg = small_config(1);
        let t0 = sample_tech(&tech, &cfg, 0);
        let t1 = sample_tech(&tech, &cfg, 1);
        assert_ne!(t0, t1, "different samples, different dies");
        assert_eq!(sample_tech(&tech, &cfg, 0), t0, "per-index draws are pure");
        // Both polarities carry the same vth shift (die-wide draw).
        let dn = t0.nmos.flavor.vth_shift - tech.nmos.flavor.vth_shift;
        let dp = t0.pmos.flavor.vth_shift - tech.pmos.flavor.vth_shift;
        assert_eq!(dn, dp);
        assert!(dn.abs() > 0.0, "the draw actually moved the threshold");
        assert_ne!(t0.vdd, tech.vdd, "supply perturbed");
    }

    #[test]
    fn summary_serializes_and_round_trips() {
        use serde::Deserialize as _;
        let circuit = small_circuit();
        let tech = Technology::d25();
        let r = run_circuit_mc(&circuit, &tech, &SolverProvider, &small_config(3)).unwrap();
        let summary = r.summary(8);
        let text = serde::json::to_string(&summary);
        let back = McSummary::from_value(&serde::json::value_from_str(&text).unwrap()).unwrap();
        assert_eq!(back, summary, "JSON round-trip is bit-exact");
    }
}
