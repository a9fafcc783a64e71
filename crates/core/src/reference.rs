//! Full-circuit reference simulator — the role SPICE plays in the paper.
//!
//! Solves the *complete* nonlinear DC network of a gate-level circuit
//! over the same transistor models the estimator's characterization
//! uses. Net voltages are the unknowns; a Gauss–Seidel relaxation
//! sweeps the nets in topological order, solving each net's scalar KCL
//! with a damped Newton update:
//!
//! * the net's **driver** contributes its output current. Each cell
//!   type is the netlist [`add_cell`] builds, with its inputs and its
//!   output as fixed nodes; the driver's stack solve pins them at the
//!   candidate voltages ([`MosNetlist::fix`]) and runs [`solve_dc`]
//!   on the stack nodes, warm-started from the gate's stored ones;
//! * every **fanout pin** contributes its gate-tunneling current,
//!   evaluated over the fanout cell's devices at its stored stack
//!   nodes (refreshed each sweep when that cell is visited as a
//!   driver).
//!
//! Unlike the Fig. 13 estimator, nothing is truncated: loading
//! propagates through as many levels as the physics carries it, which
//! is exactly why this solver is the accuracy yardstick (paper
//! Fig. 12a).

use std::collections::HashMap;

use nanoleak_cells::{add_cell, CellPins, CellType};
use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_netlist::logic::simulate;
use nanoleak_netlist::{Circuit, Gate, Pattern};
use nanoleak_solver::{solve_dc, MosNetlist, NewtonOptions, NodeId, SolverError};

use crate::error::EstimateError;
use crate::exec::par_map;
use crate::report::CircuitLeakage;

/// Options for the reference relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceOptions {
    /// Maximum Gauss–Seidel sweeps over all nets.
    pub max_sweeps: usize,
    /// Convergence threshold on the largest per-sweep net-voltage
    /// change \[V\].
    pub tol_v: f64,
    /// Per-net Newton iterations.
    pub net_iters: usize,
}

impl Default for ReferenceOptions {
    fn default() -> Self {
        Self { max_sweeps: 10, tol_v: 2e-7, net_iters: 6 }
    }
}

/// Result of a reference solve.
#[derive(Debug, Clone)]
pub struct ReferenceResult {
    /// Per-gate and total leakage, with the same attribution rules as
    /// the estimator.
    pub leakage: CircuitLeakage,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Final largest per-sweep voltage change \[V\].
    pub final_dv: f64,
    /// Converged net voltages, indexed by `NetId.0` \[V\].
    pub net_voltages: Vec<f64>,
}

/// A standard cell as [`add_cell`] builds it, with its inputs and its
/// output as fixed nodes, so that only its stack nodes float. A gate's
/// state is a voltage for every node of its cell's netlist.
struct CellModel {
    netlist: MosNetlist,
    pins: CellPins,
    /// The rails at their voltages and the stack nodes at their
    /// suggested points.
    start: Vec<f64>,
}

impl CellModel {
    fn build(tech: &Technology, cell: CellType) -> Self {
        let mut netlist = MosNetlist::new();
        let vdd = netlist.add_fixed_node("vdd", tech.vdd);
        let gnd = netlist.add_fixed_node("gnd", 0.0);
        let ins: Vec<_> = (0..cell.num_inputs())
            .map(|i| netlist.add_fixed_node(&format!("in{i}"), 0.0))
            .collect();
        let out = netlist.add_fixed_node("out", 0.0);
        let pins = add_cell(&mut netlist, tech, cell, &ins, out, vdd, gnd, "m");
        let mut start: Vec<f64> = (0..netlist.node_count())
            .map(|i| netlist.fixed_voltage(NodeId(i)).unwrap_or(0.0))
            .collect();
        for &(node, v) in &pins.internals {
            start[node.0] = v;
        }
        Self { netlist, pins, start }
    }

    /// `state` with the cell's pins moved to the voltages of the nets
    /// `gate` wires them to.
    fn at_nets(&self, state: &[f64], gate: &Gate, net_v: &[f64]) -> Vec<f64> {
        let mut v = state.to_vec();
        for (node, net) in self.pins.inputs.iter().zip(&gate.inputs) {
            v[node.0] = net_v[net.0];
        }
        v[self.pins.output.0] = net_v[gate.output.0];
        v
    }

    /// Drives the output to `vout` with the inputs where `state` holds
    /// them: solves the stack nodes from `state`'s, writes the solution
    /// into `state` and returns the current from the output node into
    /// the cell \[A\].
    fn drive(&mut self, temp: f64, vout: f64, state: &mut Vec<f64>) -> Result<f64, SolverError> {
        state[self.pins.output.0] = vout;
        for &node in self.pins.inputs.iter().chain([&self.pins.output]) {
            self.netlist.fix(node, state[node.0]);
        }
        let sol = solve_dc(&self.netlist, temp, Some(state), &NewtonOptions::default())?;
        let current = sol.node_device_current(&self.netlist, self.pins.output);
        *state = sol.voltages;
        Ok(current)
    }

    /// Gate current from input node `pin` into the devices it gates,
    /// with the nodes at `v` \[A\].
    fn pin_current(&self, temp: f64, pin: NodeId, v: &[f64]) -> f64 {
        let mut total = 0.0;
        for dev in self.netlist.devices().iter().filter(|d| d.g == pin) {
            total += dev.transistor.terminal_currents(dev.bias_at(v), temp).g;
        }
        total
    }

    /// Leakage breakdown of the whole cell with the nodes at `v`.
    fn breakdown(&self, temp: f64, v: &[f64]) -> LeakageBreakdown {
        let mut total = LeakageBreakdown::ZERO;
        for dev in self.netlist.devices() {
            total += dev.transistor.leakage(dev.bias_at(v), temp).1;
        }
        total
    }
}

/// A fanout pin on the net being solved: the load's cell type, the
/// pin's node in that cell, and the load's state.
type Load = (CellType, NodeId, Vec<f64>);

/// Solves the full circuit and reports leakage.
///
/// # Errors
/// [`EstimateError::BadPattern`] on arity mismatch;
/// [`EstimateError::Solver`] if an internal-node solve diverges.
pub fn reference_leakage(
    circuit: &Circuit,
    tech: &Technology,
    temp: f64,
    pattern: &Pattern,
    opts: &ReferenceOptions,
) -> Result<ReferenceResult, EstimateError> {
    if pattern.pi.len() != circuit.inputs().len()
        || pattern.states.len() != circuit.state_inputs().len()
    {
        return Err(EstimateError::BadPattern("pattern arity mismatch".to_string()));
    }
    let vdd = tech.vdd;
    let values = simulate(circuit, &pattern.pi, &pattern.states);

    // Cell models per type.
    let mut models: HashMap<CellType, CellModel> = HashMap::new();
    for gate in circuit.gates() {
        models.entry(gate.cell).or_insert_with(|| CellModel::build(tech, gate.cell));
    }

    // Initial state: every net at its logic rail; stack nodes at their
    // suggested points.
    let mut net_v: Vec<f64> =
        (0..circuit.net_count()).map(|i| if values[i] { vdd } else { 0.0 }).collect();
    let mut states: Vec<Vec<f64>> =
        circuit.gates().iter().map(|g| models[&g.cell].start.clone()).collect();

    let mut sweeps = 0;
    let mut final_dv = f64::INFINITY;
    for sweep in 0..opts.max_sweeps {
        sweeps = sweep + 1;
        let mut max_dv = 0.0_f64;
        for &gid in circuit.topo_order() {
            let gate = circuit.gate(gid);
            let v0 = net_v[gate.output.0];
            let mut state = models[&gate.cell].at_nets(&states[gid.0], gate, &net_v);

            // Residual: current from the net into the driver plus into
            // every fanout pin. Fanout internal states are the stored
            // ones (refreshed when those gates drive their own nets).
            let mut loads: Vec<Load> = circuit
                .net_loads(gate.output)
                .iter()
                .map(|load| {
                    let lg = circuit.gate(load.gate);
                    let m = &models[&lg.cell];
                    (lg.cell, m.pins.inputs[load.pin], m.at_nets(&states[load.gate.0], lg, &net_v))
                })
                .collect();

            let mut v = v0;
            for _ in 0..opts.net_iters {
                let r = net_residual(&mut models, temp, gate.cell, v, &mut state, &mut loads)?;
                if r.abs() < 1e-14 {
                    break;
                }
                let dh = 2e-5;
                let mut state2 = state.clone();
                let r2 =
                    net_residual(&mut models, temp, gate.cell, v + dh, &mut state2, &mut loads)?;
                let g = (r2 - r) / dh;
                if g.abs().partial_cmp(&1e-18) != Some(std::cmp::Ordering::Greater) {
                    break;
                }
                let step = (-r / g).clamp(-0.05, 0.05);
                v = (v + step).clamp(-0.2, vdd + 0.2);
                if step.abs() < 1e-10 {
                    break;
                }
            }
            // Refresh the driver's internal state at the accepted
            // voltage.
            let driver = models.get_mut(&gate.cell).expect("every cell has a model");
            driver.drive(temp, v, &mut state)?;
            states[gid.0] = state;
            net_v[gate.output.0] = v;
            max_dv = max_dv.max((v - v0).abs());
        }
        final_dv = max_dv;
        if max_dv < opts.tol_v {
            break;
        }
    }

    // Accounting pass at the converged state.
    let per_gate = circuit
        .gates()
        .iter()
        .zip(&states)
        .map(|(gate, state)| {
            let model = &models[&gate.cell];
            model.breakdown(temp, &model.at_nets(state, gate, &net_v))
        })
        .collect();

    Ok(ReferenceResult {
        leakage: CircuitLeakage::from_gates(per_gate),
        sweeps,
        final_dv,
        net_voltages: net_v,
    })
}

/// KCL residual at a candidate net voltage `v` (current *out of* the
/// net into all attached devices). The driver, a `cell` in `driver`'s
/// state, is driven to `v` ([`CellModel::drive`]).
fn net_residual(
    models: &mut HashMap<CellType, CellModel>,
    temp: f64,
    cell: CellType,
    v: f64,
    driver: &mut Vec<f64>,
    loads: &mut [Load],
) -> Result<f64, SolverError> {
    let mut total =
        models.get_mut(&cell).expect("every cell has a model").drive(temp, v, driver)?;
    for (cell, pin, state) in loads.iter_mut() {
        state[pin.0] = v;
        total += models[cell].pin_current(temp, *pin, state);
    }
    Ok(total)
}

/// Runs the reference over a batch of patterns in parallel, one work
/// item per pattern on all cores ([`par_map`]), with results in
/// pattern order.
///
/// # Errors
/// The first error in pattern order.
pub fn reference_batch(
    circuit: &Circuit,
    tech: &Technology,
    temp: f64,
    patterns: &[Pattern],
    opts: &ReferenceOptions,
) -> Result<Vec<ReferenceResult>, EstimateError> {
    par_map(patterns.len(), 0, |i| reference_leakage(circuit, tech, temp, &patterns[i], opts))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_cells::{eval_loaded, CellLibrary, CharacterizeOptions, InputVector};
    use nanoleak_netlist::CircuitBuilder;

    fn tech() -> Technology {
        Technology::d25()
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
    fn single_inverter_matches_cell_eval() {
        // A lone inverter driven by a PI has no loading; the reference
        // must agree with the isolated cell solve to sub-percent.
        let mut b = CircuitBuilder::new("one");
        let a = b.add_input("a");
        let y = b.add_gate(CellType::Inv, &[a], "y");
        b.mark_output(y);
        let c = b.build().unwrap();
        let p = Pattern { pi: vec![false], states: vec![] };
        let r = reference_leakage(&c, &tech(), 300.0, &p, &ReferenceOptions::default()).unwrap();
        let iso = nanoleak_cells::eval_isolated(
            &tech(),
            300.0,
            CellType::Inv,
            InputVector::parse("0").unwrap(),
        )
        .unwrap();
        let rel = (r.leakage.total.total() - iso.breakdown.total()).abs() / iso.breakdown.total();
        assert!(rel < 0.01, "reference vs isolated = {}%", rel * 100.0);
    }

    #[test]
    fn fanout_web_sags_the_shared_net() {
        let c = fanout_circuit(6);
        let p = Pattern { pi: vec![false], states: vec![] };
        let r = reference_leakage(&c, &tech(), 300.0, &p, &ReferenceOptions::default()).unwrap();
        let mid = c.find_net("mid").unwrap();
        let v = r.net_voltages[mid.0];
        // Logic 1, pulled below VDD by six gate pins.
        assert!(v < 0.9 - 2e-4, "V(mid) = {v}");
        assert!(v > 0.9 - 0.02, "V(mid) = {v}");
        assert!(r.final_dv < 1e-6, "converged, final_dv = {}", r.final_dv);
    }

    #[test]
    fn reference_agrees_with_loaded_cell_fixture() {
        // The fanout inverters see an input held by a real driver and
        // loaded by 5 sibling pins — the same physics as eval_loaded
        // with that loading magnitude. Totals should agree to ~1-2%.
        let c = fanout_circuit(6);
        let p = Pattern { pi: vec![false], states: vec![] };
        let r = reference_leakage(&c, &tech(), 300.0, &p, &ReferenceOptions::default()).unwrap();
        // Loading current of 5 sibling INV pins at logic '1'.
        let lib = CellLibrary::shared_with_options(
            &tech(),
            300.0,
            &CharacterizeOptions::coarse(&[CellType::Inv]),
        );
        let pin =
            lib.vector_char(CellType::Inv, InputVector::parse("1").unwrap()).unwrap().pin_currents
                [0];
        let fixture = eval_loaded(
            &tech(),
            300.0,
            CellType::Inv,
            InputVector::parse("1").unwrap(),
            &[(5.0 * pin).abs()],
            0.0,
        )
        .unwrap();
        let per_fanout = r.leakage.per_gate[1];
        let rel =
            (per_fanout.total() - fixture.breakdown.total()).abs() / fixture.breakdown.total();
        assert!(rel < 0.02, "reference vs fixture = {}%", rel * 100.0);
    }

    #[test]
    fn nand_chain_with_stack_nodes_converges() {
        let mut b = CircuitBuilder::new("nands");
        let a = b.add_input("a");
        let c2 = b.add_input("b");
        let mut prev = b.add_gate(CellType::Nand2, &[a, c2], "n0");
        for i in 1..6 {
            prev = b.add_gate(CellType::Nand2, &[prev, a], &format!("n{i}"));
        }
        b.mark_output(prev);
        let c = b.build().unwrap();
        for (pa, pb) in [(false, false), (true, false), (true, true)] {
            let p = Pattern { pi: vec![pa, pb], states: vec![] };
            let r =
                reference_leakage(&c, &tech(), 300.0, &p, &ReferenceOptions::default()).unwrap();
            assert!(r.final_dv < 1e-6, "({pa},{pb}): final_dv = {}", r.final_dv);
            assert!(r.leakage.total.total() > 0.0);
        }
    }

    #[test]
    fn pattern_arity_checked() {
        let c = fanout_circuit(2);
        let p = Pattern { pi: vec![], states: vec![] };
        assert!(matches!(
            reference_leakage(&c, &tech(), 300.0, &p, &ReferenceOptions::default()),
            Err(EstimateError::BadPattern(_))
        ));
    }

    #[test]
    fn batch_is_the_per_pattern_solves_in_pattern_order() {
        let c = fanout_circuit(3);
        let opts = ReferenceOptions::default();
        let mut patterns: Vec<Pattern> = [false, true, true, false, true]
            .into_iter()
            .map(|a| Pattern { pi: vec![a], states: vec![] })
            .collect();
        let batch = reference_batch(&c, &tech(), 300.0, &patterns, &opts).unwrap();
        assert_eq!(batch.len(), patterns.len());
        for (r, p) in batch.iter().zip(&patterns) {
            let one = reference_leakage(&c, &tech(), 300.0, p, &opts).unwrap();
            assert_eq!(r.leakage.per_gate, one.leakage.per_gate);
            assert_eq!(r.net_voltages, one.net_voltages);
        }
        // One bad pattern fails the whole batch.
        patterns[3].pi.clear();
        assert!(matches!(
            reference_batch(&c, &tech(), 300.0, &patterns, &opts),
            Err(EstimateError::BadPattern(_))
        ));
    }
}
