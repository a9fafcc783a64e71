//! DC operating-point solve: the "virtual SPICE" entry point.
//!
//! Finds the node voltages at which every floating node satisfies KCL
//! (device currents balance the external injections), then reports the
//! per-device leakage breakdowns at the solution. For leakage analysis
//! this *is* the SPICE run: there are no time constants, only the
//! nonlinear DC equilibrium.

use nanoleak_device::{Bias, BoundParams, LeakageBreakdown, Parts, TerminalCurrents, Terminals};

use crate::error::SolverError;
use crate::netlist::{MosNetlist, NodeId};
use crate::newton::{self, NewtonOptions, NewtonStats};

/// A converged operating point with its leakage accounting.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Voltage of every node (fixed and solved), by node index \[V\].
    pub voltages: Vec<f64>,
    /// KCL-ready terminal currents per device.
    pub device_currents: Vec<TerminalCurrents>,
    /// Leakage mechanism breakdown per device.
    pub device_breakdowns: Vec<LeakageBreakdown>,
    /// Newton convergence statistics.
    pub stats: NewtonStats,
}

impl DcSolution {
    /// Voltage of `node` \[V\].
    pub fn node_voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.0]
    }

    /// Sum of the per-device breakdowns — the cell/circuit leakage in
    /// the paper's accounting (`I_total = I_sub + I_gate + I_btbt`).
    pub fn total_breakdown(&self) -> LeakageBreakdown {
        self.device_breakdowns.iter().fold(LeakageBreakdown::ZERO, |acc, b| acc + *b)
    }

    /// Net current flowing from `node` into device terminals \[A\] —
    /// e.g. the VDD rail current when called on the supply node.
    pub fn node_device_current(&self, netlist: &MosNetlist, node: NodeId) -> f64 {
        let mut total = 0.0;
        for (dev, tc) in netlist.devices().iter().zip(&self.device_currents) {
            if dev.d == node {
                total += tc.d;
            }
            if dev.g == node {
                total += tc.g;
            }
            if dev.s == node {
                total += tc.s;
            }
            if dev.b == node {
                total += tc.b;
            }
        }
        total
    }

    /// Worst KCL residual over floating nodes \[A\] — a solution
    /// quality check independent of the Newton report.
    pub fn kcl_residual(&self, netlist: &MosNetlist) -> f64 {
        netlist
            .unknown_nodes()
            .into_iter()
            .map(|n| (self.node_device_current(netlist, n) - netlist.injection(n)).abs())
            .fold(0.0, f64::max)
    }
}

/// A device's terminal currents in the order the KCL rows sum them:
/// drain, gate, source, bulk.
fn stamp(tc: &TerminalCurrents) -> [f64; 4] {
    [tc.d, tc.g, tc.s, tc.b]
}

/// The KCL equations of one netlist at one temperature, the system the
/// DC solve hands to Newton.
///
/// Row `k` of the residual is the current flowing from the `k`-th
/// floating node into device terminals, summed in device order and
/// drain/gate/source/bulk order within a device, minus the node's
/// injection. Each device is bound to the solve's temperature once. The
/// system keeps every device's mechanism parts and currents at the
/// point of the latest residual, where Newton asks for the Jacobian, so
/// a Jacobian column re-evaluates only the devices with a terminal on
/// the perturbed node, and of those only the parts that terminal feeds
/// ([`BoundParams::parts_moved`]), then re-sums the rows from the kept
/// currents in that same order: every column is bit for bit the dense
/// sweep's, which re-evaluates every device.
struct KclSystem<'a> {
    netlist: &'a MosNetlist,
    /// Every device bound to the solve's temperature.
    bound: Vec<BoundParams<'a>>,
    /// Floating nodes in slot order.
    unknowns: Vec<NodeId>,
    /// Every node's voltage: pinned nodes at their pins, floating nodes
    /// at the point of the latest residual.
    voltages: Vec<f64>,
    /// Injection into each slot's node \[A\].
    injections: Vec<f64>,
    /// Each slot's residual terms as `(device, terminal)` pairs, in
    /// summation order.
    terms: Vec<Vec<(usize, usize)>>,
    /// Each slot's incident devices (any terminal on its node),
    /// ascending, with the terminals they have on it.
    incident: Vec<Vec<(usize, Terminals)>>,
    /// Every device's mechanism parts at `voltages` (empty before the
    /// first [`KclSystem::evaluate`]).
    parts: Vec<Parts>,
    /// Every device's [`stamp`] at `voltages`.
    base: Vec<[f64; 4]>,
    /// `base`, with the current column's devices re-evaluated.
    work: Vec<[f64; 4]>,
}

impl<'a> KclSystem<'a> {
    /// The system of `netlist` at `temp`, with floating nodes starting
    /// from `start` (full node vector; pinned entries are ignored).
    fn new(netlist: &'a MosNetlist, temp: f64, start: &[f64]) -> Self {
        let n_nodes = netlist.node_count();
        let unknowns = netlist.unknown_nodes();
        let mut slot_of: Vec<Option<usize>> = vec![None; n_nodes];
        for (k, node) in unknowns.iter().enumerate() {
            slot_of[node.0] = Some(k);
        }
        let mut terms = vec![Vec::new(); unknowns.len()];
        let mut incident: Vec<Vec<(usize, Terminals)>> = vec![Vec::new(); unknowns.len()];
        for (di, dev) in netlist.devices().iter().enumerate() {
            for (term, node) in [dev.d, dev.g, dev.s, dev.b].into_iter().enumerate() {
                if let Some(k) = slot_of[node.0] {
                    terms[k].push((di, term));
                    if incident[k].last().map(|&(d, _)| d) != Some(di) {
                        let on = Terminals {
                            d: dev.d == node,
                            g: dev.g == node,
                            s: dev.s == node,
                            b: dev.b == node,
                        };
                        incident[k].push((di, on));
                    }
                }
            }
        }
        let voltages =
            (0..n_nodes).map(|i| netlist.fixed_voltage(NodeId(i)).unwrap_or(start[i])).collect();
        let injections = unknowns.iter().map(|n| netlist.injection(*n)).collect();
        let bound: Vec<BoundParams<'a>> =
            netlist.devices().iter().map(|dev| dev.transistor.params().at_temp(temp)).collect();
        let n_dev = bound.len();
        Self {
            netlist,
            bound,
            unknowns,
            voltages,
            injections,
            terms,
            incident,
            parts: Vec::with_capacity(n_dev),
            base: vec![[0.0; 4]; n_dev],
            work: vec![[0.0; 4]; n_dev],
        }
    }

    fn load(&mut self, x: &[f64]) {
        for (node, &v) in self.unknowns.iter().zip(x) {
            self.voltages[node.0] = v;
        }
    }

    /// Whether the floating nodes sit at `x`, bit for bit.
    fn is_at(&self, x: &[f64]) -> bool {
        self.unknowns.iter().zip(x).all(|(n, v)| self.voltages[n.0].to_bits() == v.to_bits())
    }

    fn bias(&self, dev: usize) -> Bias {
        self.netlist.devices()[dev].bias_at(&self.voltages)
    }

    /// Evaluates every device at `voltages` into the kept parts and
    /// currents.
    fn evaluate(&mut self) {
        self.parts.clear();
        for dev in 0..self.bound.len() {
            let parts = self.bound[dev].parts(self.bias(dev));
            self.base[dev] = stamp(&self.bound[dev].currents(&parts));
            self.parts.push(parts);
        }
    }

    /// Row `slot` of the residual over the given device currents.
    fn row(&self, slot: usize, currents: &[[f64; 4]]) -> f64 {
        let mut sum = 0.0;
        for &(dev, term) in &self.terms[slot] {
            sum += currents[dev][term];
        }
        sum - self.injections[slot]
    }

    /// Worst KCL imbalance over the floating nodes at the solution,
    /// summed from the injection up.
    fn worst_residual(&self, device_currents: &[TerminalCurrents]) -> f64 {
        let mut worst = 0.0_f64;
        for (slot, terms) in self.terms.iter().enumerate() {
            let mut sum = -self.injections[slot];
            for &(dev, term) in terms {
                sum += stamp(&device_currents[dev])[term];
            }
            worst = worst.max(sum.abs());
        }
        worst
    }
}

impl newton::System for KclSystem<'_> {
    fn residual(&mut self, x: &[f64], f: &mut [f64]) {
        self.load(x);
        self.evaluate();
        for (slot, fk) in f.iter_mut().enumerate() {
            *fk = self.row(slot, &self.base);
        }
    }

    fn jacobian(&mut self, x: &[f64], f: &[f64], step: f64, jac: &mut [f64]) {
        debug_assert!(self.is_at(x), "the kept parts must be those of the latest residual, at `x`");
        self.work.copy_from_slice(&self.base);
        let n = x.len();
        for j in 0..n {
            let h = newton::column_step(step, x[j]);
            let node = self.unknowns[j];
            self.voltages[node.0] = x[j] + h;
            for &(dev, moved) in &self.incident[j] {
                let bound = &self.bound[dev];
                let parts = bound.parts_moved(&self.parts[dev], self.bias(dev), moved);
                self.work[dev] = stamp(&bound.currents(&parts));
            }
            for i in 0..n {
                jac[i * n + j] = (self.row(i, &self.work) - f[i]) / h;
            }
            for &(dev, _) in &self.incident[j] {
                self.work[dev] = self.base[dev];
            }
            self.voltages[node.0] = x[j];
        }
    }
}

/// Solves the DC operating point of `netlist` at temperature `temp`.
///
/// `guess` optionally seeds every node voltage (length must equal
/// [`MosNetlist::node_count`]); fixed nodes are overridden by their
/// pinned values. Without a guess, unknowns start at half the highest
/// rail.
///
/// # Errors
/// Propagates [`SolverError`] from the Newton kernel; also rejects a
/// guess of the wrong length.
pub fn solve_dc(
    netlist: &MosNetlist,
    temp: f64,
    guess: Option<&[f64]>,
    opts: &NewtonOptions,
) -> Result<DcSolution, SolverError> {
    Ok(solve(netlist, temp, guess, opts, false)?.0)
}

/// The solver-side context of a traced DC solve: which nodes floated,
/// and the Newton Jacobian factored at the converged point.
///
/// Sensitivity extraction uses it to predict how the operating point
/// moves under a small parameter change `p → p + Δp` without
/// re-solving: with `f(v*, p₀) = 0`, the perturbed residual
/// `f(v*, p₀+Δp)` equals `∂f/∂p·Δp` to first order, so
/// `Δv = -J⁻¹ f(v*, p₀+Δp)` — one [`dc_residual_at`] on the perturbed
/// netlist plus one backsolve per axis.
#[derive(Debug, Clone)]
pub struct DcTrace {
    /// Floating nodes in solver slot order (the ordering
    /// [`dc_residual_at`] and [`DcTrace::jacobian`] agree on).
    pub unknowns: Vec<NodeId>,
    /// Factored Jacobian at the solution; `None` when every node is
    /// pinned (nothing to perturb).
    pub jacobian: Option<newton::FactoredJacobian>,
}

impl DcTrace {
    /// The solution's voltages at the floating nodes, in slot order.
    pub fn unknown_voltages(&self, sol: &DcSolution) -> Vec<f64> {
        self.unknowns.iter().map(|n| sol.voltages[n.0]).collect()
    }
}

/// KCL residual of `netlist` evaluated at prescribed unknown voltages
/// (no solve). Slot order matches [`MosNetlist::unknown_nodes`], which
/// for a topology-identical rebuild (same construction order, new
/// device parameters) is the same ordering the traced Jacobian used.
///
/// # Errors
/// [`SolverError::BadProblem`] if `x` does not match the floating-node
/// count.
pub fn dc_residual_at(netlist: &MosNetlist, temp: f64, x: &[f64]) -> Result<Vec<f64>, SolverError> {
    let mut sys = KclSystem::new(netlist, temp, &vec![0.0; netlist.node_count()]);
    if x.len() != sys.unknowns.len() {
        return Err(SolverError::BadProblem(format!(
            "{} unknown voltages for {} floating nodes",
            x.len(),
            sys.unknowns.len()
        )));
    }
    let mut f = vec![0.0; x.len()];
    newton::System::residual(&mut sys, x, &mut f);
    Ok(f)
}

/// [`solve_dc`], additionally returning the [`DcTrace`] (unknown
/// ordering + Jacobian factored at the solution).
///
/// The returned [`DcSolution`] is bit-identical to [`solve_dc`] on the
/// same inputs: the iteration is shared and the Jacobian is built in a
/// separate sweep after convergence.
///
/// # Errors
/// As [`solve_dc`], plus [`SolverError::SingularMatrix`] if the
/// Jacobian at the solution cannot be factored.
pub fn solve_dc_traced(
    netlist: &MosNetlist,
    temp: f64,
    guess: Option<&[f64]>,
    opts: &NewtonOptions,
) -> Result<(DcSolution, DcTrace), SolverError> {
    solve(netlist, temp, guess, opts, true)
}

/// The one DC solve body; `traced` adds the Jacobian factored at the
/// solution.
fn solve(
    netlist: &MosNetlist,
    temp: f64,
    guess: Option<&[f64]>,
    opts: &NewtonOptions,
    traced: bool,
) -> Result<(DcSolution, DcTrace), SolverError> {
    let n_nodes = netlist.node_count();
    let start = match guess {
        Some(g) if g.len() != n_nodes => {
            return Err(SolverError::BadProblem(format!(
                "guess has {} entries for {} nodes",
                g.len(),
                n_nodes
            )));
        }
        Some(g) => g.to_vec(),
        None => {
            let vdd_est = (0..n_nodes)
                .filter_map(|i| netlist.fixed_voltage(NodeId(i)))
                .fold(0.0_f64, f64::max);
            vec![0.5 * vdd_est; n_nodes]
        }
    };
    let mut sys = KclSystem::new(netlist, temp, &start);
    let mut x: Vec<f64> = sys.unknowns.iter().map(|n| sys.voltages[n.0]).collect();
    let mut iterations = 0;
    let mut jacobian = None;
    if x.is_empty() {
        sys.evaluate();
    } else {
        iterations = newton::solve_system(&mut sys, &mut x, opts)?.iterations;
        if traced {
            jacobian = Some(newton::factor_at(&mut sys, &x, opts)?);
        }
    }
    // Newton's latest residual ran at the solution, so the kept parts
    // are the solution's: the accounting reads them.
    debug_assert!(sys.is_at(&x), "the kept parts must be those of the solution");
    let device_currents: Vec<TerminalCurrents> =
        sys.bound.iter().zip(&sys.parts).map(|(dev, parts)| dev.currents(parts)).collect();
    let device_breakdowns =
        sys.bound.iter().zip(&sys.parts).map(|(dev, parts)| dev.breakdown(parts)).collect();
    let residual = sys.worst_residual(&device_currents);
    let sol = DcSolution {
        voltages: sys.voltages,
        device_currents,
        device_breakdowns,
        stats: NewtonStats { iterations, residual },
    };
    Ok((sol, DcTrace { unknowns: sys.unknowns, jacobian }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::consts::NA;
    use nanoleak_device::{Technology, Transistor};

    /// Builds a plain inverter with pinned input; returns (netlist, out).
    fn inverter(vin: f64) -> (MosNetlist, NodeId) {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let input = nl.add_fixed_node("in", vin);
        let out = nl.add_node("out");
        nl.add_mos(Transistor::from_design(&tech.nmos), out, input, gnd, gnd);
        nl.add_mos(Transistor::from_design(&tech.pmos), out, input, vdd, vdd);
        (nl, out)
    }

    #[test]
    fn inverter_output_high_for_input_low() {
        let (nl, out) = inverter(0.0);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let v = sol.node_voltage(out);
        // Output pulled to VDD minus a leakage-induced droop of at most
        // a few mV.
        assert!(v > 0.88 && v <= 0.9005, "Vout = {v}");
        assert!(sol.kcl_residual(&nl) < 1e-14);
    }

    #[test]
    fn inverter_output_low_for_input_high() {
        let (nl, out) = inverter(0.9);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let v = sol.node_voltage(out);
        assert!((-0.0005..0.02).contains(&v), "Vout = {v}");
    }

    #[test]
    fn injection_shifts_output_node() {
        // Pull current out of a logic-1 output: voltage must droop
        // by roughly I/g_on of the PMOS (a few mV at uA scale).
        let (mut nl, out) = inverter(0.0);
        let base = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap().node_voltage(out);
        nl.set_injection(out, -3e-6);
        let loaded =
            solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap().node_voltage(out);
        let droop = base - loaded;
        assert!(droop > 0.5e-3 && droop < 20e-3, "droop = {} mV", droop * 1e3);
    }

    #[test]
    fn breakdown_magnitudes_match_paper_scale() {
        let (nl, _) = inverter(0.0);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let b = sol.total_breakdown();
        assert!(b.sub > 100.0 * NA && b.sub < 900.0 * NA, "sub = {} nA", b.sub / NA);
        assert!(b.gate > 10.0 * NA && b.gate < 500.0 * NA, "gate = {} nA", b.gate / NA);
        assert!(b.btbt > 0.5 * NA && b.btbt < 50.0 * NA, "btbt = {} nA", b.btbt / NA);
    }

    #[test]
    fn vdd_rail_current_is_negative_of_gnd_current_plus_pins() {
        // Conservation: all device terminal currents over all nodes sum
        // to zero, so rail + pinned-input + output currents cancel.
        let (nl, _) = inverter(0.0);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let total: f64 =
            (0..nl.node_count()).map(|i| sol.node_device_current(&nl, NodeId(i))).sum();
        assert!(total.abs() < 1e-15, "global conservation violated: {total:e}");
    }

    #[test]
    fn fully_pinned_netlist_needs_no_newton() {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        nl.add_mos(Transistor::from_design(&tech.nmos), vdd, gnd, gnd, gnd);
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        assert_eq!(sol.stats.iterations, 0);
        assert!(sol.total_breakdown().total() > 0.0);
    }

    #[test]
    fn wrong_guess_length_rejected() {
        let (nl, _) = inverter(0.0);
        let err = solve_dc(&nl, 300.0, Some(&[0.0]), &NewtonOptions::default());
        assert!(matches!(err, Err(SolverError::BadProblem(_))));
    }

    #[test]
    fn traced_dc_solve_is_bit_identical() {
        let (nl, _) = inverter(0.0);
        let plain = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let (traced, trace) = solve_dc_traced(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        for (a, b) in plain.voltages.iter().zip(&traced.voltages) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in plain.device_breakdowns.iter().zip(&traced.device_breakdowns) {
            assert_eq!(a.total().to_bits(), b.total().to_bits());
        }
        assert_eq!(trace.unknowns, nl.unknown_nodes());
        assert!(trace.jacobian.is_some());
        // The residual at the converged unknowns is (numerically) zero.
        let x = trace.unknown_voltages(&traced);
        let f = dc_residual_at(&nl, 300.0, &x).unwrap();
        assert!(inf_norm_of(&f) < 1e-13, "residual at solution: {f:?}");
    }

    fn inf_norm_of(v: &[f64]) -> f64 {
        v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    #[test]
    fn jacobian_predicts_perturbed_operating_point() {
        // Perturb the technology (Vt shift) and predict the new output
        // voltage from the nominal trace: Δv = -J⁻¹ f(v*, p').
        let tech = Technology::d25();
        let build = |dvth: f64| {
            let p = nanoleak_device::Perturbation { dvth, ..Default::default() };
            let design_n = p.apply(&tech.nmos);
            let design_p = p.apply(&tech.pmos);
            let mut nl = MosNetlist::new();
            let vdd = nl.add_fixed_node("vdd", tech.vdd);
            let gnd = nl.add_fixed_node("gnd", 0.0);
            let input = nl.add_fixed_node("in", 0.0);
            let out = nl.add_node("out");
            nl.add_mos(Transistor::from_design(&design_n), out, input, gnd, gnd);
            nl.add_mos(Transistor::from_design(&design_p), out, input, vdd, vdd);
            (nl, out)
        };
        let (nominal, out) = build(0.0);
        let (sol, trace) =
            solve_dc_traced(&nominal, 300.0, None, &NewtonOptions::default()).unwrap();
        let x_star = trace.unknown_voltages(&sol);
        let dvth = 5e-3;
        let (perturbed, _) = build(dvth);
        // f(v*, p') ≈ ∂f/∂p · Δp since f(v*, p0) = 0.
        let mut f = dc_residual_at(&perturbed, 300.0, &x_star).unwrap();
        for fi in f.iter_mut() {
            *fi = -*fi;
        }
        trace.jacobian.as_ref().unwrap().solve(&mut f).unwrap();
        let predicted_out = {
            let slot = trace.unknowns.iter().position(|n| *n == out).unwrap();
            x_star[slot] + f[slot]
        };
        let exact =
            solve_dc(&perturbed, 300.0, None, &NewtonOptions::default()).unwrap().node_voltage(out);
        assert!((predicted_out - exact).abs() < 2e-4, "predicted {predicted_out}, exact {exact}");
    }

    /// The KCL residual as one plain closure over every device — the
    /// dense reference the KCL system must reproduce bit for bit.
    fn dense_residual(nl: &MosNetlist, temp: f64) -> impl Fn(&[f64], &mut [f64]) + '_ {
        let unknowns = nl.unknown_nodes();
        let template: Vec<f64> =
            (0..nl.node_count()).map(|i| nl.fixed_voltage(NodeId(i)).unwrap_or(0.0)).collect();
        move |x: &[f64], f: &mut [f64]| {
            let mut v = template.clone();
            for (k, node) in unknowns.iter().enumerate() {
                v[node.0] = x[k];
            }
            f.iter_mut().for_each(|fi| *fi = 0.0);
            for dev in nl.devices() {
                let tc = dev.transistor.terminal_currents(dev.bias_at(&v), temp);
                for (node, i) in [(dev.d, tc.d), (dev.g, tc.g), (dev.s, tc.s), (dev.b, tc.b)] {
                    if let Some(k) = unknowns.iter().position(|u| *u == node) {
                        f[k] += i;
                    }
                }
            }
            for (k, node) in unknowns.iter().enumerate() {
                f[k] -= nl.injection(*node);
            }
        }
    }

    /// The dense forward-difference sweep: every column re-evaluates
    /// the whole residual.
    fn dense_jacobian(residual: &impl Fn(&[f64], &mut [f64]), x: &[f64], step: f64) -> Vec<f64> {
        let n = x.len();
        let (mut f, mut f_trial) = (vec![0.0; n], vec![0.0; n]);
        residual(x, &mut f);
        let mut jac = vec![0.0; n * n];
        let mut x_pert = x.to_vec();
        for j in 0..n {
            let h = newton::column_step(step, x[j]);
            x_pert[j] = x[j] + h;
            residual(&x_pert, &mut f_trial);
            for i in 0..n {
                jac[i * n + j] = (f_trial[i] - f[i]) / h;
            }
            x_pert[j] = x[j];
        }
        jac
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A NAND4 whose inputs are driven by inverters (the loaded
    /// fixture's shape), with loading injections scaled by `load` on
    /// every pin and the output; returns the netlist and a rail-level
    /// initial guess. At `load` = 0 it is the cells' nominal loaded
    /// fixture, node for node and device for device.
    fn nand4_fixture(tech: &Technology, levels: [bool; 4], load: f64) -> (MosNetlist, Vec<f64>) {
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let n = Transistor::from_design(&tech.nmos);
        let p = Transistor::from_design(&tech.pmos);
        let mut pins = Vec::new();
        for (i, &level) in levels.iter().enumerate() {
            let drv = nl.add_fixed_node(&format!("drv{i}"), if level { 0.0 } else { tech.vdd });
            let pin = nl.add_node(&format!("in{i}"));
            nl.add_mos(n, pin, drv, gnd, gnd);
            nl.add_mos(p, pin, drv, vdd, vdd);
            nl.set_injection(pin, load * if level { -1.5e-6 } else { 2e-6 });
            pins.push(pin);
        }
        let out = nl.add_node("out");
        let mut upper = out;
        for (i, &pin) in pins.iter().enumerate() {
            let lower = if i == 3 { gnd } else { nl.add_node(&format!("x{}", i + 1)) };
            nl.add_mos(n.scaled_width(4.0), upper, pin, lower, gnd);
            upper = lower;
        }
        for &pin in &pins {
            nl.add_mos(p, out, pin, vdd, vdd);
        }
        nl.set_injection(out, load * -3e-6);
        let mut guess = vec![0.05; nl.node_count()];
        for (pin, level) in pins.iter().zip(levels) {
            guess[pin.0] = if level { tech.vdd } else { 0.0 };
        }
        guess[out.0] = tech.vdd;
        (nl, guess)
    }

    /// A Monte-Carlo die (+120 mV Vt, -0.148 nm Tox, +3.8 nm L, +14 mV
    /// Vdd) on which Newton stalls in the nominal NAND4 fixture with
    /// vector `0001` from the 50 mV stack-node start; the cells retry
    /// that solve from the rail.
    fn stalling_die() -> Technology {
        let die = nanoleak_device::Perturbation {
            dl: 3.828240535703536e-9,
            dtox: -1.4761033706512228e-10,
            dvth: 0.12030903968447328,
            dvdd: 0.0140636661469293,
        };
        let mut tech = Technology::d25();
        tech.nmos = die.apply(&tech.nmos);
        tech.pmos = die.apply(&tech.pmos);
        tech.vdd += die.dvdd;
        tech
    }

    /// Two series NMOS (both OFF, inputs 00) under two parallel PMOS;
    /// returns (netlist, output, stack node).
    fn nand2_stack() -> (MosNetlist, NodeId, NodeId) {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let a = nl.add_fixed_node("a", 0.0);
        let b = nl.add_fixed_node("b", 0.0);
        let out = nl.add_node("out");
        let mid = nl.add_node("mid");
        let n = Transistor::from_design(&tech.nmos).scaled_width(2.0);
        let p = Transistor::from_design(&tech.pmos);
        nl.add_mos(n, out, a, mid, gnd);
        nl.add_mos(n, mid, b, gnd, gnd);
        nl.add_mos(p, out, a, vdd, vdd);
        nl.add_mos(p, out, b, vdd, vdd);
        (nl, out, mid)
    }

    /// A three-input NAND (`nand`) or NOR as the reference simulator
    /// solves a driver: inputs and output pinned, so only the series
    /// stack's two nodes float. Devices come in the cells' order: the
    /// series stack from the output out to its rail, then the parallel
    /// devices.
    fn stack3(nand: bool, levels: [bool; 3], vout: f64) -> MosNetlist {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let pins: Vec<NodeId> = levels
            .iter()
            .enumerate()
            .map(|(i, &l)| nl.add_fixed_node(&format!("in{i}"), if l { tech.vdd } else { 0.0 }))
            .collect();
        let out = nl.add_fixed_node("out", vout);
        let n = Transistor::from_design(&tech.nmos);
        let p = Transistor::from_design(&tech.pmos);
        let (series, parallel, rail, other) = if nand {
            (n.scaled_width(3.0), p, gnd, vdd)
        } else {
            (p.scaled_width(3.0), n, vdd, gnd)
        };
        let mut near = out;
        for (i, &pin) in pins.iter().enumerate() {
            let far = if i == 2 { rail } else { nl.add_node(&format!("s{}", i + 1)) };
            nl.add_mos(series, near, pin, far, rail);
            near = far;
        }
        for &pin in &pins {
            nl.add_mos(parallel, out, pin, other, other);
        }
        nl
    }

    /// A PMOS load over a diode-connected NMOS (gate on its drain)
    /// whose bulk is also tied to that drain: one device with three
    /// terminals on one floating node. Its source is a second floating
    /// node, which drains to ground through an OFF device.
    fn diode_connected() -> MosNetlist {
        let tech = Technology::d25();
        let mut nl = MosNetlist::new();
        let vdd = nl.add_fixed_node("vdd", tech.vdd);
        let gnd = nl.add_fixed_node("gnd", 0.0);
        let a = nl.add_node("a");
        let m = nl.add_node("m");
        let n = Transistor::from_design(&tech.nmos);
        let p = Transistor::from_design(&tech.pmos);
        nl.add_mos(p, a, gnd, vdd, vdd);
        nl.add_mos(n, a, a, m, a);
        nl.add_mos(n, m, gnd, gnd, gnd);
        nl.set_injection(m, 1e-7);
        nl
    }

    #[test]
    fn kcl_jacobian_is_the_dense_sweep_bit_for_bit() {
        let step = NewtonOptions::default().jacobian_step;
        let d25 = Technology::d25();
        let (nand4, nand4_guess) = nand4_fixture(&d25, [false, false, false, true], 1.0);
        let (die_nand4, die_guess) =
            nand4_fixture(&stalling_die(), [false, false, false, true], 0.0);
        // Each netlist, its temperature and its own start, if any.
        let cases = [
            (inverter(0.0).0, 300.0, None),
            (inverter(0.9).0, 370.0, None),
            (nand2_stack().0, 300.0, None),
            (nand4.clone(), 370.0, Some(&nand4_guess)),
            (nand4_fixture(&d25, [true, false, true, true], 1.0).0, 300.0, None),
            (diode_connected(), 370.0, None),
            (stack3(true, [false, true, false], 0.896), 300.0, None),
            (stack3(false, [true, false, false], 0.003), 370.0, None),
            (nand4, 400.0, Some(&nand4_guess)),
            (die_nand4, 300.0, Some(&die_guess)),
        ];
        let mut flat_pairs = 0;
        for (case, (nl, temp, start)) in cases.iter().enumerate() {
            let unknowns = nl.unknown_nodes();
            let n = unknowns.len();
            let dense = dense_residual(nl, *temp);
            // Rails, mid-rail and off-rail excursions, the case's own
            // start, and flat points where every floating node sits at
            // one voltage.
            let mut points: Vec<Vec<f64>> = [0.0, 0.013, 0.45, 0.9, -0.02]
                .iter()
                .map(|&v| (0..n).map(|k| v + 0.01 * k as f64).collect())
                .collect();
            points.extend(start.map(|g| unknowns.iter().map(|u| g[u.0]).collect()));
            points.extend([vec![0.05; n], vec![0.45; n]]);
            // At a flat point, a device with its drain and source on two
            // floating nodes has `vd == vs`, and the column that raises
            // one of them flips the device's source/drain order.
            flat_pairs += nl
                .devices()
                .iter()
                .filter(|d| d.d != d.s && unknowns.contains(&d.d) && unknowns.contains(&d.s))
                .count();
            let mut sys = KclSystem::new(nl, *temp, &vec![0.0; nl.node_count()]);
            for (p, x) in points.iter().enumerate() {
                let mut f = vec![0.0; n];
                newton::System::residual(&mut sys, x, &mut f);
                let mut f_dense = vec![0.0; n];
                dense(x, &mut f_dense);
                assert_eq!(bits(&f), bits(&f_dense), "case {case}, point {p}: residual");
                let mut jac = vec![0.0; n * n];
                newton::System::jacobian(&mut sys, x, &f, step, &mut jac);
                let reference = dense_jacobian(&dense, x, step);
                assert_eq!(bits(&jac), bits(&reference), "case {case}, point {p}: jacobian");
            }
        }
        assert!(flat_pairs > 0, "no flat point flips a device");
    }

    #[test]
    fn dc_solve_walks_the_dense_newton_path() {
        let d25 = Technology::d25();
        let (nand4, nand4_guess) = nand4_fixture(&d25, [false, false, false, true], 1.0);
        let (nand4_b, nand4_b_guess) = nand4_fixture(&d25, [true, true, false, true], 1.0);
        let (inv, _) = inverter(0.0);
        let inv_guess = vec![0.45; inv.node_count()];
        let (nand2, _, _) = nand2_stack();
        let nand2_guess = vec![0.45; nand2.node_count()];
        let diode = diode_connected();
        let diode_guess = vec![0.45; diode.node_count()];
        // The stacks start away from the cells' suggested points (50 mV
        // inside the rail).
        let nand3 = stack3(true, [false, true, false], 0.896);
        let nand3_guess = vec![0.3; nand3.node_count()];
        let nor3 = stack3(false, [true, false, false], 0.003);
        let nor3_guess = vec![0.45; nor3.node_count()];
        // Stalls for every iteration: the failure must match too.
        let (stall, stall_guess) = nand4_fixture(&stalling_die(), [false, false, false, true], 0.0);
        let cases = [
            (&inv, &inv_guess),
            (&nand2, &nand2_guess),
            (&nand4, &nand4_guess),
            (&nand4_b, &nand4_b_guess),
            (&diode, &diode_guess),
            (&nand3, &nand3_guess),
            (&nor3, &nor3_guess),
            (&stall, &stall_guess),
        ];
        let opts = NewtonOptions::default();
        let mut stalled = 0;
        for (case, (nl, guess)) in cases.into_iter().enumerate() {
            let sol = solve_dc(nl, 300.0, Some(guess), &opts);
            let unknowns = nl.unknown_nodes();
            let mut x: Vec<f64> = unknowns.iter().map(|u| guess[u.0]).collect();
            match (sol, newton::solve(dense_residual(nl, 300.0), &mut x, &opts)) {
                (Ok(sol), Ok(stats)) => {
                    let solved: Vec<f64> = unknowns.iter().map(|u| sol.voltages[u.0]).collect();
                    assert_eq!(bits(&solved), bits(&x), "case {case}: voltages");
                    assert_eq!(sol.stats.iterations, stats.iterations, "case {case}: iterations");
                    assert!(stats.iterations > 0, "case {case} must iterate");
                }
                (
                    Err(SolverError::NoConvergence { iterations, residual }),
                    Err(SolverError::NoConvergence {
                        iterations: dense_iterations,
                        residual: dense_residual,
                    }),
                ) => {
                    assert_eq!(iterations, dense_iterations, "case {case}: iterations");
                    assert_eq!(
                        residual.to_bits(),
                        dense_residual.to_bits(),
                        "case {case}: residual"
                    );
                    assert_eq!(
                        iterations, opts.max_iter,
                        "case {case}: a stall runs every iteration"
                    );
                    stalled += 1;
                }
                (sol, dense) => panic!("case {case}: {sol:?} against the dense {dense:?}"),
            }
        }
        assert_eq!(stalled, 1, "only the perturbed die stalls");
    }

    #[test]
    fn nand2_stack_node_settles_low() {
        // Two series NMOS (both OFF, inputs 00): the stack node rises to
        // tens of mV — the classic stacking effect (paper Section 4).
        let (nl, out, mid) = nand2_stack();
        let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
        let vmid = sol.node_voltage(mid);
        assert!(vmid > 0.01 && vmid < 0.30, "stack node = {} V", vmid);
        assert!(sol.node_voltage(out) > 0.85);
    }
}
