//! # nanoleak-opt
//!
//! Leakage-aware netlist optimization for the *nanoleak* reproduction
//! of the DATE 2005 loading-effect paper.
//!
//! The paper's central observation is that a gate's leakage depends
//! not just on its input vector but on *which* characterized pin each
//! net loads (the loading effect). That turns two purely structural
//! rewrites into free standby-power knobs, because neither changes
//! any logic function:
//!
//! * **pin permutation** — reordering nets within a gate's
//!   commutative pin prefix
//!   ([`CellType::commutative_prefix`](nanoleak_cells::CellType::commutative_prefix));
//! * **De Morgan remapping** — `NAND2(!x, !y)` ⇄ `INV(NOR2(x, y))`,
//!   which retires the feeding inverters when nothing else uses them.
//!
//! [`optimize`] explores both greedily, scoring every candidate with
//! the compiled estimator at the circuit's minimum-leakage vector
//! (from [`mlv_search`](nanoleak_engine::mlv_search)) and
//! re-searching the vector after each round. An optional score-gated
//! [`canonicalize`](nanoleak_netlist::canonicalize) pre-pass
//! (double-inverter elimination, dead-gate sweep) is kept only when
//! the estimator agrees it lowers the objective.
//!
//! ## Contracts
//!
//! * **Function-preserving** — the optimized circuit computes the
//!   same primary-output and DFF next-state functions, positionally.
//! * **Improvement guarantee** — `improved.objective <=
//!   baseline.objective` always; if the heuristics end up worse (a
//!   weak re-search strategy can), the input circuit is returned
//!   unchanged with `reverted = true`.
//! * **Deterministic** — candidates are enumerated in fixed order
//!   (gates by id, permutations lexicographic, identity first) and
//!   scored sequentially; ties keep the earliest candidate, so equal
//!   inputs produce bit-equal outputs for any thread count.
//! * **Allocation-free scoring** — pin-permutation candidates are
//!   applied in place on the compiled plan
//!   ([`CompiledEstimator::permute_gate_inputs`](nanoleak_core::CompiledEstimator::permute_gate_inputs))
//!   and scored with a warm scratch; only the rare remap candidates
//!   rebuild and recompile.
//!
//! Run counters land in [`nanoleak_obs::global`] as `nanoleak_opt_*`.

pub mod optimizer;

pub use optimizer::{optimize, optimize_with, OptimizeConfig, OptimizeResult, RoundProgress};
