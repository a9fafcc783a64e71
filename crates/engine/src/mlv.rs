//! Minimum/maximum-leakage input-vector (MLV) search.
//!
//! Fig. 7 of the paper shows NAND leakage spanning ~4x across input
//! vectors; at circuit scale the spread makes the *standby vector* a
//! real power knob. This module searches the input space for the
//! extreme vector with three pluggable strategies:
//!
//! * [`MlvStrategy::Exhaustive`] — enumerate all `2^bits` assignments
//!   (primary inputs + DFF state bits); exact, for small circuits;
//! * [`MlvStrategy::Random`] — uniform sampling, sharing the sweep's
//!   seed-derived pattern streams;
//! * [`MlvStrategy::HillClimb`] — greedy single-bit-flip descent with
//!   parallel restarts; near-exact in practice at a tiny fraction of
//!   the exhaustive cost.
//!
//! All three strategies score candidates through the one block
//! driver, [`nanoleak_core::par_blocks`], in blocks of
//! `resolve_lanes(lanes)` candidates: [`MlvConfig::lanes`] picks the
//! kernel — 64-candidate blocks on the packed word-parallel kernel,
//! 1-candidate blocks on the per-lane scalar kernel — never the scan
//! or its winner. The two scans tile their whole candidate range. A
//! hill climb's steps are sequential, but the flips one step scores
//! are not: each step tiles its single-bit-flip neighbourhood on one
//! worker inside its restart.
//!
//! All strategies are deterministic for a given seed regardless of the
//! thread count: candidates are scored in a fixed order and ties
//! resolve to the earliest candidate.

use std::time::Instant;

use nanoleak_cells::CellLibrary;
use nanoleak_core::{
    pack_index_block, par_blocks, resolve_lanes, CircuitLeakage, CompiledEstimator,
    EstimateScratch, EstimatorMode, PatternBlock,
};
use nanoleak_netlist::{Circuit, Pattern};

use crate::sweep::pattern_for_index;
use crate::EngineError;
use nanoleak_core::exec::{par_map_with, resolve_threads};

/// Largest input-bit count [`MlvStrategy::Exhaustive`] will enumerate
/// (`2^22` ≈ 4.2M estimator calls).
pub const MAX_EXHAUSTIVE_BITS: usize = 22;

/// Search direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MlvGoal {
    /// Find the minimum-leakage vector (standby-power optimization).
    #[default]
    Min,
    /// Find the maximum-leakage vector (worst-case bound).
    Max,
}

impl MlvGoal {
    /// `true` if `candidate` strictly beats `incumbent` for this goal.
    fn improves(self, candidate: f64, incumbent: f64) -> bool {
        match self {
            MlvGoal::Min => candidate < incumbent,
            MlvGoal::Max => candidate > incumbent,
        }
    }
}

/// How the input space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlvStrategy {
    /// Enumerate every assignment (up to [`MAX_EXHAUSTIVE_BITS`] bits).
    Exhaustive,
    /// Score `samples` seed-derived random patterns.
    Random {
        /// Number of random patterns.
        samples: usize,
    },
    /// Greedy bit-flip hill climbing from `restarts` random starts,
    /// each limited to `max_steps` accepted moves. Each step scores
    /// every single-bit flip of the current vector as one block scan
    /// and moves to the earliest best flip only when it strictly
    /// beats the current objective.
    HillClimb {
        /// Independent random starts (parallelized).
        restarts: usize,
        /// Accepted-move limit per restart.
        max_steps: usize,
    },
}

impl Default for MlvStrategy {
    fn default() -> Self {
        MlvStrategy::HillClimb { restarts: 8, max_steps: 64 }
    }
}

impl MlvStrategy {
    /// Short name for logs and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            MlvStrategy::Exhaustive => "exhaustive",
            MlvStrategy::Random { .. } => "random",
            MlvStrategy::HillClimb { .. } => "hill-climb",
        }
    }
}

/// Configuration of one MLV search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlvConfig {
    /// Search direction.
    pub goal: MlvGoal,
    /// Exploration strategy.
    pub strategy: MlvStrategy,
    /// Base RNG seed (random starts / random sampling).
    pub seed: u64,
    /// Worker threads (`0` = all cores, capped at 16).
    pub threads: usize,
    /// Estimator mode used to score candidates.
    pub mode: EstimatorMode,
    /// Evaluation lanes: `0` (auto) and
    /// [`LANES`](nanoleak_core::LANES) score candidates in
    /// 64-candidate blocks on the word-parallel kernel; `1` in
    /// 1-candidate blocks on the per-lane scalar kernel. The scan and
    /// the winner are the same either way, for every strategy: a hill
    /// climb's steps are sequential, but each step's flips are scored
    /// as one block scan.
    pub lanes: usize,
}

impl Default for MlvConfig {
    fn default() -> Self {
        Self {
            goal: MlvGoal::Min,
            strategy: MlvStrategy::Exhaustive,
            seed: 2005,
            threads: 0,
            mode: EstimatorMode::Lut,
            lanes: 0,
        }
    }
}

/// Search cost and progress counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlvTelemetry {
    /// Strategy that produced the result.
    pub strategy: &'static str,
    /// Estimator invocations.
    pub evaluations: u64,
    /// Accepted hill-climb moves (0 for other strategies).
    pub improving_moves: u64,
    /// Restarts executed (1 for other strategies).
    pub restarts: usize,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

/// Result of [`mlv_search`]: the best vector found, its full leakage
/// report, and the search telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MlvResult {
    /// The best input pattern found.
    pub pattern: Pattern,
    /// Its full per-gate leakage report.
    pub leakage: CircuitLeakage,
    /// Total leakage of `pattern` \[A\] (the search objective).
    pub objective: f64,
    /// Search cost counters.
    pub telemetry: MlvTelemetry,
}

/// Refills `pattern` with the assignment encoded by the low `bits` of
/// `index`: primary inputs first (bit 0 = first input), then DFF state
/// bits. Allocation-free once the buffers are warm.
fn fill_pattern_from_bits(circuit: &Circuit, index: u64, pattern: &mut Pattern) {
    let n_pi = circuit.inputs().len();
    pattern.pi.clear();
    pattern.pi.extend((0..n_pi).map(|j| index >> j & 1 == 1));
    pattern.states.clear();
    pattern.states.extend((0..circuit.state_inputs().len()).map(|j| index >> (n_pi + j) & 1 == 1));
}

/// Builds the pattern encoded by the low `bits` of `index`.
fn pattern_from_bits(circuit: &Circuit, index: u64) -> Pattern {
    let mut p = Pattern::default();
    fill_pattern_from_bits(circuit, index, &mut p);
    p
}

/// Folds `(candidate, objective)` pairs in iteration order; ties keep
/// the earliest, so the winner is deterministic for any thread count.
fn earliest_best<C>(goal: MlvGoal, scored: impl IntoIterator<Item = (C, f64)>) -> Option<(C, f64)> {
    scored.into_iter().reduce(|best, c| if goal.improves(c.1, best.1) { c } else { best })
}

/// Scores the candidates `0..n` through the one block driver
/// ([`par_blocks`]) and picks the winning `(index, objective)`.
/// `pack` fills a block with candidates `start..start + count`; each
/// block reduces to its earliest-best candidate and the block winners
/// fold in block order by the same rule. Two-level earliest-wins over
/// an ordered tiling picks exactly the candidate a flat scan picks, so
/// the winner is the same for any thread count and `lanes` setting —
/// the winning *pattern* is regenerated from its index by the caller.
fn scan_for_best(
    plan: &CompiledEstimator<'_>,
    config: &MlvConfig,
    threads: usize,
    n: usize,
    pack: impl Fn(&mut PatternBlock, &mut Pattern, usize, usize) + Sync,
) -> Result<(usize, f64), EngineError> {
    let winners =
        par_blocks(plan, config.lanes, threads, n, config.mode, pack, |start, totals| {
            let scored = totals.iter().enumerate().map(|(j, t)| (start + j, t.total()));
            earliest_best(config.goal, scored).expect("blocks are never empty")
        })?;
    Ok(earliest_best(config.goal, winners).expect("scan_for_best evaluates at least one candidate"))
}

/// Searches for the extreme-leakage input vector of `circuit`.
///
/// # Errors
/// * [`EngineError::SearchSpaceTooLarge`] for exhaustive search over
///   more than [`MAX_EXHAUSTIVE_BITS`] input bits;
/// * [`EngineError::Estimate`] if any candidate fails to estimate.
pub fn mlv_search(
    circuit: &Circuit,
    library: &CellLibrary,
    config: &MlvConfig,
) -> Result<MlvResult, EngineError> {
    let start = Instant::now();
    let threads = resolve_threads(config.threads);
    let bits = circuit.inputs().len() + circuit.state_inputs().len();
    if let MlvStrategy::Exhaustive = config.strategy {
        if bits > MAX_EXHAUSTIVE_BITS {
            return Err(EngineError::SearchSpaceTooLarge { bits, limit: MAX_EXHAUSTIVE_BITS });
        }
    }

    // One plan for the whole search — shared process-wide via the
    // structural cache, so repeated searches over isomorphic netlists
    // skip the compile; each scan (each hill-climb step) sizes its
    // per-worker buffers once and scores its blocks allocation-free.
    let shared = crate::plan_cache::shared_plan(circuit, library)?;
    let plan = shared.plan();
    if resolve_lanes(config.lanes) != 1 && config.mode == EstimatorMode::Lut {
        // Charge the response-table build to the search setup, not
        // the first scored block (cached on the shared plan).
        plan.prepare_block();
    }

    let ((pattern, objective), evaluations, improving_moves, restarts) = match config.strategy {
        MlvStrategy::Exhaustive => {
            let n = 1usize << bits;
            let (index, objective) =
                scan_for_best(plan, config, threads, n, |block, pattern, start, count| {
                    block.clear();
                    for i in start..start + count {
                        fill_pattern_from_bits(circuit, i as u64, pattern);
                        block.push(pattern);
                    }
                })?;
            ((pattern_from_bits(circuit, index as u64), objective), n as u64, 0, 1)
        }
        MlvStrategy::Random { samples } => {
            assert!(samples > 0, "random MLV search needs at least one sample");
            let (index, objective) =
                scan_for_best(plan, config, threads, samples, |block, pattern, start, count| {
                    pack_index_block(circuit, config.seed, start, count, pattern, block);
                })?;
            ((pattern_for_index(circuit, config.seed, index), objective), samples as u64, 0, 1)
        }
        MlvStrategy::HillClimb { restarts, max_steps } => {
            assert!(restarts > 0, "hill climb needs at least one restart");
            type ClimbOutcome = Result<((Pattern, f64), u64, u64), EngineError>;
            let climbs: Vec<ClimbOutcome> = par_map_with(
                restarts,
                threads,
                || plan.scratch(),
                |scratch, r| climb(plan, scratch, config, r, max_steps),
            );
            let mut merged = Vec::with_capacity(restarts);
            let (mut evals, mut moves) = (0u64, 0u64);
            for c in climbs {
                let (cand, e, m) = c?;
                evals += e;
                moves += m;
                merged.push(cand);
            }
            let best = earliest_best(config.goal, merged)
                .expect("at least one restart produced a candidate");
            (best, evals, moves, restarts)
        }
    };

    let mut scratch = plan.scratch();
    let leakage = plan.estimate_report(&mut scratch, &pattern, config.mode)?;
    Ok(MlvResult {
        pattern,
        objective,
        leakage,
        telemetry: MlvTelemetry {
            strategy: config.strategy.name(),
            evaluations,
            improving_moves,
            restarts,
            elapsed: start.elapsed(),
        },
    })
}

/// One hill-climb restart: greedy steepest-ascent/descent over
/// single-bit flips. Steps are sequential, but the flips one step
/// scores are not: each step scans its whole neighbourhood through
/// [`scan_for_best`] on one worker (the restarts already fill the
/// workers) and moves to the earliest best flip only when it strictly
/// beats the current objective — the flip a one-at-a-time scan in bit
/// order keeps, since block totals are bit-identical to scalar ones.
fn climb(
    plan: &CompiledEstimator<'_>,
    scratch: &mut EstimateScratch,
    config: &MlvConfig,
    restart: usize,
    max_steps: usize,
) -> Result<((Pattern, f64), u64, u64), EngineError> {
    // Restart streams reuse the sweep's per-index derivation, offset
    // so hill-climb starts differ from sweep/random sample patterns.
    let mut current = pattern_for_index(plan.circuit(), config.seed ^ 0x4d4c56, restart);
    let mut objective = plan.estimate_into(scratch, &current, config.mode)?.total();
    let mut evaluations = 1u64;
    let mut moves = 0u64;
    let bits = current.pi.len() + current.states.len();
    // Without input bits there is no neighbourhood to scan (and a
    // scan needs at least one candidate): the start is the answer.
    let max_steps = if bits == 0 { 0 } else { max_steps };

    for _ in 0..max_steps {
        let (bit, obj) = scan_for_best(plan, config, 1, bits, |block, pattern, start, count| {
            block.clear();
            pattern.pi.clone_from(&current.pi);
            pattern.states.clone_from(&current.states);
            for flip in start..start + count {
                flip_in_place(pattern, flip);
                block.push(pattern);
                flip_in_place(pattern, flip);
            }
        })?;
        evaluations += bits as u64;
        if !config.goal.improves(obj, objective) {
            break;
        }
        flip_in_place(&mut current, bit);
        objective = obj;
        moves += 1;
    }
    Ok(((current, objective), evaluations, moves))
}

/// Flips one bit of `pattern` (primary inputs first, then DFF states)
/// in place.
fn flip_in_place(pattern: &mut Pattern, bit: usize) {
    if bit < pattern.pi.len() {
        pattern.pi[bit] = !pattern.pi[bit];
    } else {
        let s = bit - pattern.pi.len();
        pattern.states[s] = !pattern.states[s];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
    use nanoleak_core::estimate;
    use nanoleak_device::Technology;
    use nanoleak_netlist::CircuitBuilder;
    use std::sync::Arc;

    fn library() -> Arc<CellLibrary> {
        CellLibrary::shared_with_options(
            &Technology::d25(),
            300.0,
            &CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2]),
        )
    }

    fn chain_circuit(inputs: usize) -> Circuit {
        let mut b = CircuitBuilder::new("mlv-test");
        let pis: Vec<_> = (0..inputs).map(|i| b.add_input(&format!("i{i}"))).collect();
        let mut prev = b.add_gate(CellType::Nand2, &[pis[0], pis[1]], "n0");
        for (k, &pi) in pis.iter().enumerate().skip(2) {
            prev = b.add_gate(CellType::Nand2, &[prev, pi], &format!("n{}", k - 1));
        }
        let y = b.add_gate(CellType::Inv, &[prev], "y");
        b.mark_output(y);
        b.build().unwrap()
    }

    #[test]
    fn exhaustive_agrees_with_brute_force_scan() {
        let circuit = chain_circuit(4);
        let lib = library();
        let result = mlv_search(&circuit, &lib, &MlvConfig::default()).unwrap();
        // Independent brute force in plain code.
        let mut best = f64::INFINITY;
        for idx in 0..(1u64 << 4) {
            let p = pattern_from_bits(&circuit, idx);
            let t = estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap().total.total();
            if t < best {
                best = t;
            }
        }
        assert_eq!(result.objective, best);
        assert_eq!(result.telemetry.evaluations, 16);
        assert_eq!(result.leakage.total.total(), result.objective);
    }

    #[test]
    fn max_goal_finds_the_other_extreme() {
        let circuit = chain_circuit(3);
        let lib = library();
        let min =
            mlv_search(&circuit, &lib, &MlvConfig { goal: MlvGoal::Min, ..Default::default() })
                .unwrap();
        let max =
            mlv_search(&circuit, &lib, &MlvConfig { goal: MlvGoal::Max, ..Default::default() })
                .unwrap();
        assert!(max.objective > min.objective);
    }

    #[test]
    fn search_space_guard_rejects_wide_circuits() {
        // One inverter per input: the guard fires on the bit count
        // before any estimator work happens.
        let wide = MAX_EXHAUSTIVE_BITS + 1;
        let mut b = CircuitBuilder::new("wide");
        for i in 0..wide {
            let a = b.add_input(&format!("i{i}"));
            let y = b.add_gate(CellType::Inv, &[a], &format!("y{i}"));
            b.mark_output(y);
        }
        let circuit = b.build().unwrap();
        let lib = library();
        let err = mlv_search(&circuit, &lib, &MlvConfig::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::SearchSpaceTooLarge { bits: wide, limit: MAX_EXHAUSTIVE_BITS }
        );
    }

    #[test]
    fn hill_climb_is_deterministic_across_thread_counts() {
        let circuit = chain_circuit(6);
        let lib = library();
        let strategy = MlvStrategy::HillClimb { restarts: 6, max_steps: 32 };
        let base = MlvConfig { strategy, threads: 1, ..Default::default() };
        let one = mlv_search(&circuit, &lib, &base).unwrap();
        for threads in [2, 5, 8] {
            let multi = mlv_search(&circuit, &lib, &MlvConfig { threads, ..base }).unwrap();
            assert_eq!(one.pattern, multi.pattern, "threads = {threads}");
            assert_eq!(one.objective, multi.objective);
            assert_eq!(one.telemetry.evaluations, multi.telemetry.evaluations);
        }
    }

    #[test]
    fn hill_climb_without_input_bits_stops_after_its_start() {
        let circuit = CircuitBuilder::new("no-inputs").build().unwrap();
        let strategy = MlvStrategy::HillClimb { restarts: 3, max_steps: 8 };
        let result =
            mlv_search(&circuit, &library(), &MlvConfig { strategy, ..Default::default() })
                .unwrap();
        assert_eq!(result.telemetry.evaluations, 3, "one start evaluation per restart");
        assert_eq!(result.telemetry.improving_moves, 0);
    }

    #[test]
    fn random_strategy_improves_with_more_samples() {
        let circuit = chain_circuit(6);
        let lib = library();
        let few = mlv_search(
            &circuit,
            &lib,
            &MlvConfig { strategy: MlvStrategy::Random { samples: 2 }, ..Default::default() },
        )
        .unwrap();
        let many = mlv_search(
            &circuit,
            &lib,
            &MlvConfig { strategy: MlvStrategy::Random { samples: 48 }, ..Default::default() },
        )
        .unwrap();
        assert!(many.objective <= few.objective, "more samples never hurt");
        assert_eq!(many.telemetry.evaluations, 48);
    }
}
