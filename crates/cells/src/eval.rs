//! Cell-level DC leakage evaluation, isolated or under loading.
//!
//! [`eval_loaded`] reproduces the paper's measurement fixture (Figs. 5–8):
//! every input of the device-under-test is driven by a real
//! transistor-level inverter (so the node has the correct kΩ-scale
//! stiffness), a *loading current* of the chosen magnitude is injected
//! into the input and/or output nodes with the physically correct sign
//! for the node's logic level, and the DUT's leakage components are read
//! from the converged operating point.

use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_solver::{
    solve_dc, solve_dc_traced, DcSolution, DcTrace, MosNetlist, NewtonOptions, NodeId, SolverError,
};

use crate::cell_type::CellType;
use crate::topology::{add_cell, CellPins};
use crate::vector::InputVector;

/// Result of one cell evaluation.
#[derive(Debug, Clone)]
pub struct CellSolution {
    /// Leakage breakdown of the DUT (driver devices excluded).
    pub breakdown: LeakageBreakdown,
    /// Signed current flowing from each input net *into* the DUT's gate
    /// pins \[A\] (positive values pull the net down; this is the
    /// quantity summed into the loading currents of neighbors).
    pub input_pin_currents: Vec<f64>,
    /// Solved input node voltages \[V\].
    pub input_voltages: Vec<f64>,
    /// Solved output node voltage \[V\].
    pub output_voltage: f64,
    /// Logic level of the output for this vector.
    pub output_level: bool,
    /// Solved internal (stack) node voltages \[V\].
    pub internal_voltages: Vec<f64>,
}

/// Signed injection for a loading magnitude at a node of the given
/// logic level: fanout gate pins *inject into* a logic-0 net (lifting
/// it above ground) and *draw from* a logic-1 net (sagging it below
/// VDD).
#[inline]
pub fn loading_injection(magnitude: f64, level: bool) -> f64 {
    if level {
        -magnitude
    } else {
        magnitude
    }
}

/// Leakage of a cell in isolation: inputs pinned to ideal rails, no
/// loading anywhere. This is the traditional (non-loading-aware)
/// per-gate leakage.
///
/// # Errors
/// Propagates solver failures.
pub fn eval_isolated(
    tech: &Technology,
    temp: f64,
    cell: CellType,
    vector: InputVector,
) -> Result<CellSolution, SolverError> {
    assert_eq!(vector.len(), cell.num_inputs(), "{cell}: vector arity mismatch");
    let vdd_v = tech.vdd;
    let mut nl = MosNetlist::new();
    let vdd = nl.add_fixed_node("vdd", vdd_v);
    let gnd = nl.add_fixed_node("gnd", 0.0);
    let ins: Vec<NodeId> = vector
        .iter()
        .enumerate()
        .map(|(i, b)| nl.add_fixed_node(&format!("in{i}"), if b { vdd_v } else { 0.0 }))
        .collect();
    let out = nl.add_node("out");
    let pins = add_cell(&mut nl, tech, cell, &ins, out, vdd, gnd, "dut");

    let output_level = cell.eval_logic(&vector.to_bools());
    let mut guess = vec![0.5 * vdd_v; nl.node_count()];
    guess[out.0] = if output_level { vdd_v } else { 0.0 };
    for &(node, v) in &pins.internals {
        guess[node.0] = v;
    }
    let sol = solve_with_retry(&pins, vdd_v, &guess, |g| {
        solve_dc(&nl, temp, Some(g), &NewtonOptions::default())
    })?;
    Ok(extract(&nl, &sol, &pins, &ins, output_level))
}

/// Leakage of a cell under loading, in the paper's fixture:
///
/// * each input pin is driven by a standard inverter whose input is
///   pinned so the pin sits at its `vector` level;
/// * `il_in[k]` \[A, magnitude >= 0\] is injected at input `k` with the
///   sign given by [`loading_injection`];
/// * `il_out` \[A, magnitude >= 0\] is likewise applied to the output.
///
/// With all magnitudes zero this is the *nominal* loaded operating
/// point: the paper's `L_NOM` reference for the `LD` metrics.
///
/// # Errors
/// Rejects negative magnitudes or wrong `il_in` arity as
/// [`SolverError::BadProblem`]; propagates solver failures.
pub fn eval_loaded(
    tech: &Technology,
    temp: f64,
    cell: CellType,
    vector: InputVector,
    il_in: &[f64],
    il_out: f64,
) -> Result<CellSolution, SolverError> {
    let fx = loaded_fixture(tech, cell, vector, il_in, il_out)?;
    solve_fixture(&fx, temp, &fx.guess)
}

/// The measurement fixture of [`eval_loaded`] before solving: netlist,
/// node bookkeeping, and the Newton initial guess. Built separately so
/// the sensitivity characterization can rebuild the *same* fixture
/// under a perturbed technology and re-evaluate it at a prescribed
/// operating point without another Newton solve.
pub(crate) struct LoadedFixture {
    pub nl: MosNetlist,
    pub ins: Vec<NodeId>,
    pub pins: CellPins,
    pub guess: Vec<f64>,
    pub output_level: bool,
    pub vdd: f64,
}

pub(crate) fn loaded_fixture(
    tech: &Technology,
    cell: CellType,
    vector: InputVector,
    il_in: &[f64],
    il_out: f64,
) -> Result<LoadedFixture, SolverError> {
    assert_eq!(vector.len(), cell.num_inputs(), "{cell}: vector arity mismatch");
    if il_in.len() != cell.num_inputs() {
        return Err(SolverError::BadProblem(format!(
            "{cell}: {} loading entries for {} inputs",
            il_in.len(),
            cell.num_inputs()
        )));
    }
    if il_in.iter().any(|&x| x < 0.0) || il_out < 0.0 {
        return Err(SolverError::BadProblem("loading magnitudes must be non-negative".to_string()));
    }

    let vdd_v = tech.vdd;
    let mut nl = MosNetlist::new();
    let vdd = nl.add_fixed_node("vdd", vdd_v);
    let gnd = nl.add_fixed_node("gnd", 0.0);

    // Drivers: one inverter per input pin, input pinned to the
    // complement so the pin carries the requested level.
    let mut ins = Vec::with_capacity(cell.num_inputs());
    for (i, level) in vector.iter().enumerate() {
        let drv_in = nl.add_fixed_node(&format!("drv_in{i}"), if level { 0.0 } else { vdd_v });
        let pin = nl.add_node(&format!("in{i}"));
        add_cell(&mut nl, tech, CellType::Inv, &[drv_in], pin, vdd, gnd, &format!("drv{i}"));
        nl.set_injection(pin, loading_injection(il_in[i], level));
        ins.push(pin);
    }

    let out = nl.add_node("out");
    let pins = add_cell(&mut nl, tech, cell, &ins, out, vdd, gnd, "dut");
    let output_level = cell.eval_logic(&vector.to_bools());
    nl.set_injection(out, loading_injection(il_out, output_level));

    let mut guess = vec![0.5 * vdd_v; nl.node_count()];
    for (i, level) in vector.iter().enumerate() {
        guess[ins[i].0] = if level { vdd_v } else { 0.0 };
    }
    guess[out.0] = if output_level { vdd_v } else { 0.0 };
    for &(node, v) in &pins.internals {
        guess[node.0] = v;
    }
    Ok(LoadedFixture { nl, ins, pins, guess, output_level, vdd: vdd_v })
}

/// A loaded evaluation that also keeps the solver trace (unknown
/// ordering plus the factored Jacobian at the solution). The `solution`
/// is bit-identical to [`eval_loaded`] on the same inputs; only extra
/// bookkeeping is returned.
pub(crate) struct TracedEval {
    pub solution: CellSolution,
    pub trace: DcTrace,
    /// Unknown-node voltages at the solution, in `trace.unknowns` order.
    pub x_star: Vec<f64>,
}

pub(crate) fn eval_loaded_traced(
    tech: &Technology,
    temp: f64,
    cell: CellType,
    vector: InputVector,
    il_in: &[f64],
    il_out: f64,
) -> Result<TracedEval, SolverError> {
    let fx = loaded_fixture(tech, cell, vector, il_in, il_out)?;
    let (sol, trace) = solve_with_retry(&fx.pins, fx.vdd, &fx.guess, |g| {
        solve_dc_traced(&fx.nl, temp, Some(g), &NewtonOptions::default())
    })?;
    let x_star = trace.unknown_voltages(&sol);
    let solution = extract(&fx.nl, &sol, &fx.pins, &fx.ins, fx.output_level);
    Ok(TracedEval { solution, trace, x_star })
}

/// Solves a fixture from an explicit full-node guess (the sensitivity
/// probes warm-start from a Jacobian-predicted operating point).
pub(crate) fn solve_fixture(
    fx: &LoadedFixture,
    temp: f64,
    guess: &[f64],
) -> Result<CellSolution, SolverError> {
    let sol = solve_with_retry(&fx.pins, fx.vdd, guess, |g| {
        solve_dc(&fx.nl, temp, Some(g), &NewtonOptions::default())
    })?;
    Ok(extract(&fx.nl, &sol, &fx.pins, &fx.ins, fx.output_level))
}

/// Runs `solve` from `guess`, the one way every cell solve starts. A
/// solve that does not converge is retried once with each stack node
/// started at the rail its stack hangs from (its suggested start sits
/// 50 mV inside that rail): on a strongly perturbed die Newton can
/// stall from the 50 mV start yet converge from the rail, as a +120 mV
/// Vt NAND4 with vector `0001` does. A first attempt that converges is
/// returned untouched.
fn solve_with_retry<T>(
    pins: &CellPins,
    vdd: f64,
    guess: &[f64],
    solve: impl Fn(&[f64]) -> Result<T, SolverError>,
) -> Result<T, SolverError> {
    match solve(guess) {
        Err(SolverError::NoConvergence { .. }) if !pins.internals.is_empty() => {
            let mut from_rails = guess.to_vec();
            for &(node, start) in &pins.internals {
                from_rails[node.0] = if start < 0.5 * vdd { 0.0 } else { vdd };
            }
            solve(&from_rails)
        }
        first => first,
    }
}

/// Collects the DUT-only quantities from a converged solution.
fn extract(
    nl: &MosNetlist,
    sol: &DcSolution,
    pins: &CellPins,
    ins: &[NodeId],
    output_level: bool,
) -> CellSolution {
    let mut breakdown = LeakageBreakdown::ZERO;
    let mut pin_currents = vec![0.0; ins.len()];
    for idx in pins.device_range.clone() {
        breakdown += sol.device_breakdowns[idx];
        let dev = &nl.devices()[idx];
        if let Some(k) = ins.iter().position(|n| *n == dev.g) {
            pin_currents[k] += sol.device_currents[idx].g;
        }
    }
    CellSolution {
        breakdown,
        input_pin_currents: pin_currents,
        input_voltages: ins.iter().map(|n| sol.node_voltage(*n)).collect(),
        output_voltage: sol.node_voltage(pins.output),
        output_level,
        internal_voltages: pins.internals.iter().map(|(n, _)| sol.node_voltage(*n)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::consts::NA;

    fn tech() -> Technology {
        Technology::d25()
    }

    #[test]
    fn isolated_inverter_components_in_range() {
        let s =
            eval_isolated(&tech(), 300.0, CellType::Inv, InputVector::parse("0").unwrap()).unwrap();
        assert!(s.output_level);
        assert!(s.breakdown.sub > 100.0 * NA && s.breakdown.sub < 900.0 * NA);
        assert!(s.breakdown.gate > 10.0 * NA && s.breakdown.gate < 500.0 * NA);
        assert!(s.breakdown.btbt > 0.5 * NA && s.breakdown.btbt < 60.0 * NA);
    }

    #[test]
    fn nominal_loaded_matches_isolated_within_percent() {
        // Adding the driver without loading current shifts the input
        // node by only the DUT's own pin current times the driver's
        // output resistance — a couple of mV, so leakage moves < 4%.
        let v = InputVector::parse("0").unwrap();
        let iso = eval_isolated(&tech(), 300.0, CellType::Inv, v).unwrap();
        let nom = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[0.0], 0.0).unwrap();
        let rel = (nom.breakdown.total() - iso.breakdown.total()).abs() / iso.breakdown.total();
        assert!(rel < 0.04, "driver-only shift = {}%", rel * 100.0);
    }

    #[test]
    fn input_loading_lifts_a_low_input_node() {
        let v = InputVector::parse("0").unwrap();
        let s = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[3000.0 * NA], 0.0).unwrap();
        assert!(
            s.input_voltages[0] > 1e-3 && s.input_voltages[0] < 30e-3,
            "Vin = {} mV",
            s.input_voltages[0] * 1e3
        );
    }

    #[test]
    fn input_loading_sags_a_high_input_node() {
        let v = InputVector::parse("1").unwrap();
        let s = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[3000.0 * NA], 0.0).unwrap();
        let droop = tech().vdd - s.input_voltages[0];
        assert!(droop > 0.5e-3 && droop < 30e-3, "droop = {} mV", droop * 1e3);
    }

    #[test]
    fn input_loading_raises_subthreshold_leakage() {
        // Paper Fig. 5a: LD_IN on the subthreshold component is
        // strongly positive with input '0'.
        let v = InputVector::parse("0").unwrap();
        let nom = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[0.0], 0.0).unwrap();
        let load = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[3000.0 * NA], 0.0).unwrap();
        let ld_sub = (load.breakdown.sub - nom.breakdown.sub) / nom.breakdown.sub;
        assert!(ld_sub > 0.04 && ld_sub < 0.30, "LD_IN(sub) = {}%", ld_sub * 100.0);
        // ... while the gate component mildly decreases.
        assert!(load.breakdown.gate < nom.breakdown.gate);
    }

    #[test]
    fn output_loading_reduces_all_components() {
        // Paper Fig. 5b: all three components fall under output loading.
        let v = InputVector::parse("0").unwrap();
        let nom = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[0.0], 0.0).unwrap();
        let load = eval_loaded(&tech(), 300.0, CellType::Inv, v, &[0.0], 3000.0 * NA).unwrap();
        assert!(load.breakdown.sub < nom.breakdown.sub);
        assert!(load.breakdown.gate < nom.breakdown.gate);
        assert!(load.breakdown.btbt < nom.breakdown.btbt);
        let ld_total = (load.breakdown.total() - nom.breakdown.total()) / nom.breakdown.total();
        assert!(ld_total < 0.0 && ld_total > -0.08, "LD_OUT(total) = {}%", ld_total * 100.0);
    }

    #[test]
    fn pin_current_signs_follow_levels() {
        // Net at '1': DUT pin draws (positive); net at '0': pin injects
        // (negative).
        let hi = eval_loaded(
            &tech(),
            300.0,
            CellType::Inv,
            InputVector::parse("1").unwrap(),
            &[0.0],
            0.0,
        )
        .unwrap();
        assert!(hi.input_pin_currents[0] > 10.0 * NA, "{} nA", hi.input_pin_currents[0] / NA);
        let lo = eval_loaded(
            &tech(),
            300.0,
            CellType::Inv,
            InputVector::parse("0").unwrap(),
            &[0.0],
            0.0,
        )
        .unwrap();
        assert!(lo.input_pin_currents[0] < -NA, "{} nA", lo.input_pin_currents[0] / NA);
    }

    #[test]
    fn nand_stacking_effect_suppresses_00_leakage() {
        // Paper Section 4 / ref [8]: with both series NMOS off, the
        // stack node rises and subthreshold leakage collapses relative
        // to the single-off-transistor vectors.
        let l00 = eval_isolated(&tech(), 300.0, CellType::Nand2, InputVector::parse("00").unwrap())
            .unwrap();
        let l01 = eval_isolated(&tech(), 300.0, CellType::Nand2, InputVector::parse("01").unwrap())
            .unwrap();
        let l10 = eval_isolated(&tech(), 300.0, CellType::Nand2, InputVector::parse("10").unwrap())
            .unwrap();
        assert!(l00.breakdown.sub < 0.5 * l01.breakdown.sub, "stacking vs 01");
        assert!(l00.breakdown.sub < 0.5 * l10.breakdown.sub, "stacking vs 10");
        assert!(!l00.internal_voltages.is_empty());
        assert!(l00.internal_voltages[0] > 0.01, "stack node must float up");
    }

    #[test]
    fn nand_vector_dependence_for_sub_dominated_device() {
        // For the subthreshold-dominated D25, '00' is the minimum
        // leakage vector (paper Section 4, citing ref [8]).
        let totals: Vec<f64> = InputVector::all(2)
            .map(|v| eval_isolated(&tech(), 300.0, CellType::Nand2, v).unwrap().breakdown.total())
            .collect();
        let min_idx =
            totals.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(min_idx, InputVector::parse("00").unwrap().index(), "totals = {totals:?}");
    }

    #[test]
    fn gate_dominated_device_prefers_a_different_vector() {
        // Paper Section 4: for a gate-leakage dominated device the
        // minimum-leakage NAND vector is NOT '00' (it has an ON gate
        // path); one of the mixed vectors wins.
        let tech = Technology::d25_g();
        let totals: Vec<f64> = InputVector::all(2)
            .map(|v| eval_isolated(&tech, 300.0, CellType::Nand2, v).unwrap().breakdown.total())
            .collect();
        let min_idx =
            totals.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_ne!(min_idx, InputVector::parse("00").unwrap().index(), "totals = {totals:?}");
    }

    #[test]
    fn strongly_perturbed_nand4_stack_converges() {
        // A Monte-Carlo die (+120 mV Vt, -0.148 nm Tox, +3.8 nm L,
        // +14 mV Vdd) on which Newton stalls from the 50 mV stack-node
        // start for NAND4 vectors 0000 and 0001; the rail restart
        // converges.
        let die = nanoleak_device::Perturbation {
            dl: 3.828240535703536e-9,
            dtox: -1.4761033706512228e-10,
            dvth: 0.12030903968447328,
            dvdd: 0.0140636661469293,
        };
        let mut tech = tech();
        tech.nmos = die.apply(&tech.nmos);
        tech.pmos = die.apply(&tech.pmos);
        tech.vdd += die.dvdd;
        for v in ["0001", "0000"] {
            let v = InputVector::parse(v).unwrap();
            let s = eval_loaded(&tech, 300.0, CellType::Nand4, v, &[0.0; 4], 0.0).unwrap();
            assert!(s.output_level && s.output_voltage > 0.85, "{v}: Vout = {}", s.output_voltage);
            // The stack settles within tens of mV of ground (gate
            // tunneling on this thin-oxide die may pull it below).
            for &x in &s.internal_voltages {
                assert!(x.abs() < 0.05, "{v}: stack node at {x} V");
            }
            assert!(s.breakdown.total() > 0.0);
        }
    }

    #[test]
    fn negative_magnitudes_rejected() {
        let v = InputVector::parse("0").unwrap();
        assert!(matches!(
            eval_loaded(&tech(), 300.0, CellType::Inv, v, &[-1.0], 0.0),
            Err(SolverError::BadProblem(_))
        ));
        assert!(matches!(
            eval_loaded(&tech(), 300.0, CellType::Inv, v, &[0.0], -1.0),
            Err(SolverError::BadProblem(_))
        ));
    }

    #[test]
    fn wrong_loading_arity_rejected() {
        let v = InputVector::parse("00").unwrap();
        assert!(matches!(
            eval_loaded(&tech(), 300.0, CellType::Nand2, v, &[0.0], 0.0),
            Err(SolverError::BadProblem(_))
        ));
    }
}
