//! The paper's fast leakage-estimation algorithm (Fig. 13).
//!
//! For an input pattern: propagate logic values; sum the characterized
//! gate-tunneling pin currents into per-net loading currents; then look
//! up every gate's leakage components as `f(I_L-IN per pin, I_L-OUT)`.
//! The loading effect is truncated at one level (the paper's Section 6
//! argument: a neighbor's-neighbor's gate current barely moves this
//! gate's nodes), which is what removes the need to solve simultaneous
//! KCL equations and makes the estimate a single topological pass.

use nanoleak_cells::{eval_loaded, LoadingGrid};
use nanoleak_netlist::logic::simulate;
use nanoleak_netlist::{Circuit, GateId, Pattern};
use serde::{Deserialize, Serialize};

use crate::error::EstimateError;
use crate::loading::LoadingState;
use crate::report::CircuitLeakage;

/// How per-gate leakage is produced once loading currents are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EstimatorMode {
    /// Traditional estimation: nominal per-gate leakage, loading
    /// ignored (the baseline the paper improves on).
    NoLoading,
    /// The paper's method: characterized lookup tables, additive
    /// multi-pin combination (eq. 5). Fast path.
    #[default]
    Lut,
    /// Ablation: per-gate transistor-level re-solve with the computed
    /// loading currents injected (no interpolation, joint multi-pin
    /// handling) — still one-level truncation. Slower; quantifies pure
    /// LUT error.
    DirectSolve,
}

/// Fig. 13: estimates circuit leakage for one pattern.
///
/// The library must cover every cell type in the circuit and match the
/// technology/temperature of interest.
///
/// # Errors
/// * [`EstimateError::BadPattern`] on arity mismatch;
/// * [`EstimateError::MissingCell`] if a cell is uncharacterized;
/// * [`EstimateError::Solver`] from direct-solve mode.
///
/// # Examples
/// ```
/// use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
/// use nanoleak_core::{estimate, EstimatorMode};
/// use nanoleak_device::Technology;
/// use nanoleak_netlist::{CircuitBuilder, Pattern};
///
/// let tech = Technology::d25();
/// let lib = CellLibrary::shared_with_options(
///     &tech, 300.0, &CharacterizeOptions::coarse(&[CellType::Inv]));
/// let mut b = CircuitBuilder::new("pair");
/// let a = b.add_input("a");
/// let x = b.add_gate(CellType::Inv, &[a], "x");
/// let y = b.add_gate(CellType::Inv, &[x], "y");
/// b.mark_output(y);
/// let circuit = b.build()?;
/// let report = estimate(&circuit, &lib, &Pattern::zeros(&circuit), EstimatorMode::Lut)?;
/// assert!(report.total.total() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate(
    circuit: &Circuit,
    library: &nanoleak_cells::CellLibrary,
    pattern: &Pattern,
    mode: EstimatorMode,
) -> Result<CircuitLeakage, EstimateError> {
    if pattern.pi.len() != circuit.inputs().len() {
        return Err(EstimateError::BadPattern(format!(
            "{} primary-input values for {} inputs",
            pattern.pi.len(),
            circuit.inputs().len()
        )));
    }
    if pattern.states.len() != circuit.state_inputs().len() {
        return Err(EstimateError::BadPattern(format!(
            "{} DFF states for {} flip-flops",
            pattern.states.len(),
            circuit.state_inputs().len()
        )));
    }

    let values = simulate(circuit, &pattern.pi, &pattern.states);
    let state = LoadingState::build(circuit, library, &values)?;

    let grid = library.grid();
    let n_gates = circuit.gate_count();
    let mut per_gate = Vec::with_capacity(n_gates);
    for gid in circuit.topo_order() {
        per_gate.push((gid.0, estimate_gate(circuit, library, &grid, &state, *gid, mode)?));
    }
    // topo_order is a permutation of all gates; restore id order.
    let mut ordered = vec![nanoleak_device::LeakageBreakdown::ZERO; n_gates];
    for (gid, bd) in per_gate {
        ordered[gid] = bd;
    }
    Ok(CircuitLeakage::from_gates(ordered))
}

fn estimate_gate(
    circuit: &Circuit,
    library: &nanoleak_cells::CellLibrary,
    grid: &LoadingGrid,
    state: &LoadingState,
    gid: GateId,
    mode: EstimatorMode,
) -> Result<nanoleak_device::LeakageBreakdown, EstimateError> {
    let gate = circuit.gate(gid);
    let vector = state.gate_vectors[gid.0];
    let vc = library.vector_char(gate.cell, vector).ok_or(EstimateError::MissingCell(gate.cell))?;
    Ok(match mode {
        EstimatorMode::NoLoading => vc.nominal,
        EstimatorMode::Lut => {
            let il_in: Vec<f64> =
                (0..gate.inputs.len()).map(|pin| state.input_loading(circuit, gid, pin)).collect();
            let il_out = state.output_loading(circuit, gid);
            vc.leakage(grid, &il_in, il_out)
        }
        EstimatorMode::DirectSolve => {
            let il_in: Vec<f64> =
                (0..gate.inputs.len()).map(|pin| state.input_loading(circuit, gid, pin)).collect();
            let il_out = state.output_loading(circuit, gid);
            eval_loaded(&library.tech, library.temp, gate.cell, vector, &il_in, il_out)?.breakdown
        }
    })
}

/// Convenience: estimates a batch of patterns on the compiled plan,
/// in parallel across threads when the batch is large.
///
/// The plan is compiled once and each worker keeps one
/// [`crate::EstimateScratch`]; worker counts follow the
/// workspace-wide convention of [`crate::exec::resolve_threads`]
/// (all cores, capped at 16), and results are materialized in pattern
/// order — bit-identical to calling [`estimate`] per pattern, for any
/// core count. Every report keeps each gate's breakdown, which
/// reference comparisons need; loaded-vs-unloaded totals alone come
/// from [`loading_totals`](crate::loading_totals).
///
/// # Errors
/// [`EstimateError::MissingCell`] if the library lacks a used cell
/// (even before any pattern runs), else the first per-pattern error.
pub fn estimate_batch(
    circuit: &Circuit,
    library: &nanoleak_cells::CellLibrary,
    patterns: &[Pattern],
    mode: EstimatorMode,
) -> Result<Vec<CircuitLeakage>, EstimateError> {
    if patterns.is_empty() {
        return Ok(Vec::new());
    }
    let plan = crate::plan::CompiledEstimator::compile(circuit, library)?;
    let results = crate::exec::par_map_with(
        patterns.len(),
        0,
        || plan.scratch(),
        |scratch, i| plan.estimate_report(scratch, &patterns[i], mode),
    );
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{CellLibrary, CellType, CharacterizeOptions};
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

    fn fanout_circuit(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new("fanout");
        let a = b.add_input("a");
        let mid = b.add_gate(CellType::Inv, &[a], "mid");
        for i in 0..n {
            let y = b.add_gate(CellType::Inv, &[mid], &format!("y{i}"));
            b.mark_output(y);
        }
        b.build().unwrap()
    }

    #[test]
    fn loading_raises_total_over_no_loading_for_fanout_web() {
        // A '1' net loaded by 6 inverter pins: the fanout inverters see
        // input loading (sub rises); the driver sees output loading
        // (all fall). Net effect on this topology is positive.
        let circuit = fanout_circuit(6);
        let lib = library();
        let p = Pattern { pi: vec![false], states: vec![] };
        let no = estimate(&circuit, &lib, &p, EstimatorMode::NoLoading).unwrap();
        let with = estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap();
        let rel = with.total_relative_change(&no);
        assert!(rel > 0.005 && rel < 0.15, "loading moved total by {}%", rel * 100.0);
    }

    #[test]
    fn lut_mode_tracks_direct_solve() {
        let circuit = fanout_circuit(6);
        let lib = library();
        let p = Pattern { pi: vec![true], states: vec![] };
        let lut = estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap();
        let direct = estimate(&circuit, &lib, &p, EstimatorMode::DirectSolve).unwrap();
        let rel = (lut.total.total() - direct.total.total()).abs() / direct.total.total();
        assert!(rel < 0.01, "LUT vs direct = {}%", rel * 100.0);
    }

    #[test]
    fn per_gate_report_indexed_by_gate_id() {
        let circuit = fanout_circuit(3);
        let lib = library();
        let p = Pattern { pi: vec![false], states: vec![] };
        let rep = estimate(&circuit, &lib, &p, EstimatorMode::Lut).unwrap();
        assert_eq!(rep.per_gate.len(), 4);
        // Gates 1..3 are identical fanout inverters with identical
        // loading: identical leakage.
        assert_eq!(rep.per_gate[1], rep.per_gate[2]);
        assert_eq!(rep.per_gate[2], rep.per_gate[3]);
    }

    #[test]
    fn bad_pattern_arity_rejected() {
        let circuit = fanout_circuit(2);
        let lib = library();
        let p = Pattern { pi: vec![], states: vec![] };
        assert!(matches!(
            estimate(&circuit, &lib, &p, EstimatorMode::Lut),
            Err(EstimateError::BadPattern(_))
        ));
    }

    #[test]
    fn batch_matches_individual_runs() {
        let circuit = fanout_circuit(4);
        let lib = library();
        let patterns = vec![
            Pattern { pi: vec![false], states: vec![] },
            Pattern { pi: vec![true], states: vec![] },
        ];
        let batch = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut).unwrap();
        for (p, b) in patterns.iter().zip(&batch) {
            let single = estimate(&circuit, &lib, p, EstimatorMode::Lut).unwrap();
            assert_eq!(&single, b);
        }
    }
}
