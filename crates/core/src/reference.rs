//! Full-circuit reference simulator — the role SPICE plays in the paper.
//!
//! Solves the *complete* nonlinear DC network of a gate-level circuit
//! over the same transistor models the estimator's characterization
//! uses. Net voltages are the unknowns; a Gauss–Seidel relaxation
//! sweeps the nets in topological order, solving each net's scalar KCL
//! with a damped Newton update:
//!
//! * the net's **driver** contributes its output current, obtained by
//!   re-solving the driver cell's internal (stack) nodes with the
//!   candidate output voltage pinned;
//! * every **fanout pin** contributes its gate-tunneling current,
//!   evaluated against the fanout cell's stored internal state (which
//!   is refreshed each sweep when that cell is visited as a driver).
//!
//! Unlike the Fig. 13 estimator, nothing is truncated: loading
//! propagates through as many levels as the physics carries it, which
//! is exactly why this solver is the accuracy yardstick (paper
//! Fig. 12a).

use std::collections::HashMap;

use nanoleak_cells::{add_cell, CellType};
use nanoleak_device::{Bias, LeakageBreakdown, Technology, Transistor};
use nanoleak_netlist::logic::simulate;
use nanoleak_netlist::{Circuit, GateId, Pattern};
use nanoleak_solver::{newton, MosNetlist, NewtonOptions, SolverError};

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

/// Where a cell-model device terminal connects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Vdd,
    Gnd,
    In(usize),
    Out,
    Internal(usize),
}

#[derive(Debug, Clone)]
struct ModelDevice {
    t: Transistor,
    d: NodeRef,
    g: NodeRef,
    s: NodeRef,
    b: NodeRef,
}

/// A standard cell lowered to a flat device list with symbolic node
/// references — evaluated directly against net/internal voltages.
#[derive(Debug, Clone)]
struct CellModel {
    devices: Vec<ModelDevice>,
    internals_init: Vec<f64>,
}

impl CellModel {
    fn build(tech: &Technology, cell: CellType) -> Self {
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let ins: Vec<_> =
            (0..cell.num_inputs()).map(|i| nl.add_fixed_node(&format!("in{i}"), 0.0)).collect();
        let out = nl.add_node("out");
        let pins = add_cell(&mut nl, tech, cell, &ins, out, vdd, gnd, "m");
        let classify = |n: nanoleak_solver::NodeId| -> NodeRef {
            if n == vdd {
                NodeRef::Vdd
            } else if n == gnd {
                NodeRef::Gnd
            } else if n == out {
                NodeRef::Out
            } else if let Some(k) = ins.iter().position(|&i| i == n) {
                NodeRef::In(k)
            } else {
                let k = pins
                    .internals
                    .iter()
                    .position(|&(i, _)| i == n)
                    .expect("node must be an internal");
                NodeRef::Internal(k)
            }
        };
        let devices = nl
            .devices()
            .iter()
            .map(|d| ModelDevice {
                t: d.transistor,
                d: classify(d.d),
                g: classify(d.g),
                s: classify(d.s),
                b: classify(d.b),
            })
            .collect();
        Self { devices, internals_init: pins.internals.iter().map(|&(_, v)| v).collect() }
    }

    #[inline]
    fn resolve(r: NodeRef, vdd: f64, vin: &[f64], vout: f64, internals: &[f64]) -> f64 {
        match r {
            NodeRef::Vdd => vdd,
            NodeRef::Gnd => 0.0,
            NodeRef::In(k) => vin[k],
            NodeRef::Out => vout,
            NodeRef::Internal(k) => internals[k],
        }
    }

    /// Solves the internal stack nodes for pinned pins; `internals` is
    /// both the warm start and the output.
    fn solve_internals(
        &self,
        vdd: f64,
        temp: f64,
        vin: &[f64],
        vout: f64,
        internals: &mut [f64],
    ) -> Result<(), SolverError> {
        if internals.is_empty() {
            return Ok(());
        }
        let residual = |x: &[f64], f: &mut [f64]| {
            f.iter_mut().for_each(|v| *v = 0.0);
            for dev in &self.devices {
                let bias = Bias::new(
                    Self::resolve(dev.g, vdd, vin, vout, x),
                    Self::resolve(dev.d, vdd, vin, vout, x),
                    Self::resolve(dev.s, vdd, vin, vout, x),
                    Self::resolve(dev.b, vdd, vin, vout, x),
                );
                let tc = dev.t.terminal_currents(bias, temp);
                for (node, i) in [(dev.d, tc.d), (dev.g, tc.g), (dev.s, tc.s), (dev.b, tc.b)] {
                    if let NodeRef::Internal(k) = node {
                        f[k] += i;
                    }
                }
            }
        };
        newton::solve(residual, internals, &NewtonOptions::default())?;
        Ok(())
    }

    /// Current flowing from the output node into the cell \[A\].
    fn output_current(
        &self,
        vdd: f64,
        temp: f64,
        vin: &[f64],
        vout: f64,
        internals: &[f64],
    ) -> f64 {
        let mut total = 0.0;
        for dev in &self.devices {
            let bias = Bias::new(
                Self::resolve(dev.g, vdd, vin, vout, internals),
                Self::resolve(dev.d, vdd, vin, vout, internals),
                Self::resolve(dev.s, vdd, vin, vout, internals),
                Self::resolve(dev.b, vdd, vin, vout, internals),
            );
            let tc = dev.t.terminal_currents(bias, temp);
            for (node, i) in [(dev.d, tc.d), (dev.g, tc.g), (dev.s, tc.s), (dev.b, tc.b)] {
                if node == NodeRef::Out {
                    total += i;
                }
            }
        }
        total
    }

    /// Gate-pin current from the net into devices gated by `pin` \[A\].
    fn pin_current(
        &self,
        vdd: f64,
        temp: f64,
        vin: &[f64],
        vout: f64,
        internals: &[f64],
        pin: usize,
    ) -> f64 {
        let mut total = 0.0;
        for dev in &self.devices {
            if dev.g != NodeRef::In(pin) {
                continue;
            }
            let bias = Bias::new(
                vin[pin],
                Self::resolve(dev.d, vdd, vin, vout, internals),
                Self::resolve(dev.s, vdd, vin, vout, internals),
                Self::resolve(dev.b, vdd, vin, vout, internals),
            );
            total += dev.t.terminal_currents(bias, temp).g;
        }
        total
    }

    /// Leakage breakdown of the whole cell.
    fn breakdown(
        &self,
        vdd: f64,
        temp: f64,
        vin: &[f64],
        vout: f64,
        internals: &[f64],
    ) -> LeakageBreakdown {
        let mut total = LeakageBreakdown::ZERO;
        for dev in &self.devices {
            let bias = Bias::new(
                Self::resolve(dev.g, vdd, vin, vout, internals),
                Self::resolve(dev.d, vdd, vin, vout, internals),
                Self::resolve(dev.s, vdd, vin, vout, internals),
                Self::resolve(dev.b, vdd, vin, vout, internals),
            );
            total += dev.t.leakage(bias, temp).1;
        }
        total
    }
}

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

    // Initial state: every net at its logic rail; internals at their
    // suggested points.
    let mut net_v: Vec<f64> =
        (0..circuit.net_count()).map(|i| if values[i] { vdd } else { 0.0 }).collect();
    let mut internals: Vec<Vec<f64>> =
        circuit.gates().iter().map(|g| models[&g.cell].internals_init.clone()).collect();

    let gate_vin = |circuit: &Circuit, gid: GateId, net_v: &[f64]| -> Vec<f64> {
        circuit.gate(gid).inputs.iter().map(|n| net_v[n.0]).collect()
    };

    let mut sweeps = 0;
    let mut final_dv = f64::INFINITY;
    for sweep in 0..opts.max_sweeps {
        sweeps = sweep + 1;
        let mut max_dv = 0.0_f64;
        for &gid in circuit.topo_order() {
            let out_net = circuit.gate(gid).output;
            let v0 = net_v[out_net.0];
            let vin_driver = gate_vin(circuit, gid, &net_v);
            let driver_model = &models[&circuit.gate(gid).cell];

            // Residual: current from the net into the driver plus into
            // every fanout pin. Fanout internal states are the stored
            // ones (refreshed when those gates drive their own nets).
            let mut loads_ctx: Vec<(GateId, usize, Vec<f64>, f64)> = Vec::new();
            for load in circuit.net_loads(out_net) {
                let lg = circuit.gate(load.gate);
                let vin_load = gate_vin(circuit, load.gate, &net_v);
                loads_ctx.push((load.gate, load.pin, vin_load, net_v[lg.output.0]));
            }

            let mut v = v0;
            let mut scratch = internals[gid.0].clone();
            for _ in 0..opts.net_iters {
                let r = eval_net_residual(
                    circuit,
                    &models,
                    driver_model,
                    gid,
                    &vin_driver,
                    v,
                    &mut scratch,
                    &loads_ctx,
                    &internals,
                    vdd,
                    temp,
                )?;
                if r.abs() < 1e-14 {
                    break;
                }
                let dh = 2e-5;
                let mut scratch2 = scratch.clone();
                let r2 = eval_net_residual(
                    circuit,
                    &models,
                    driver_model,
                    gid,
                    &vin_driver,
                    v + dh,
                    &mut scratch2,
                    &loads_ctx,
                    &internals,
                    vdd,
                    temp,
                )?;
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
            driver_model.solve_internals(vdd, temp, &vin_driver, v, &mut scratch)?;
            internals[gid.0] = scratch;
            net_v[out_net.0] = v;
            max_dv = max_dv.max((v - v0).abs());
        }
        final_dv = max_dv;
        if max_dv < opts.tol_v {
            break;
        }
    }

    // Accounting pass at the converged state.
    let mut per_gate = vec![LeakageBreakdown::ZERO; circuit.gate_count()];
    for &gid in circuit.topo_order() {
        let gate = circuit.gate(gid);
        let vin = gate_vin(circuit, gid, &net_v);
        let model = &models[&gate.cell];
        per_gate[gid.0] = model.breakdown(vdd, temp, &vin, net_v[gate.output.0], &internals[gid.0]);
    }

    Ok(ReferenceResult {
        leakage: CircuitLeakage::from_gates(per_gate),
        sweeps,
        final_dv,
        net_voltages: net_v,
    })
}

/// KCL residual at a candidate net voltage `v` (current *out of* the
/// net into all attached devices).
#[allow(clippy::too_many_arguments)]
fn eval_net_residual(
    circuit: &Circuit,
    models: &HashMap<CellType, CellModel>,
    driver_model: &CellModel,
    _driver: GateId,
    vin_driver: &[f64],
    v: f64,
    driver_internals: &mut [f64],
    loads_ctx: &[(GateId, usize, Vec<f64>, f64)],
    internals: &[Vec<f64>],
    vdd: f64,
    temp: f64,
) -> Result<f64, SolverError> {
    driver_model.solve_internals(vdd, temp, vin_driver, v, driver_internals)?;
    let mut total = driver_model.output_current(vdd, temp, vin_driver, v, driver_internals);
    for (lgid, pin, vin_load, vout_load) in loads_ctx {
        let model = &models[&circuit.gate(*lgid).cell];
        let mut vin = vin_load.clone();
        vin[*pin] = v;
        total += model.pin_current(vdd, temp, &vin, *vout_load, &internals[lgid.0], *pin);
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
