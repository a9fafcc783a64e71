//! The assembled four-terminal transistor leakage model.
//!
//! [`Transistor`] combines the three mechanism models
//! ([`crate::subthreshold`], [`crate::gate_tunneling`], [`crate::btbt`])
//! into KCL-ready terminal currents plus the per-mechanism breakdown the
//! paper reports. P-channel devices are realized with the polarity
//! transform `I_p(v) = -I_n(-v)` over an n-like core, and the core
//! handles the MOSFET's source/drain symmetry by normalizing to
//! `vds >= 0`.

use serde::{Deserialize, Serialize};

use crate::bias::{Bias, LeakageBreakdown, TerminalCurrents};
use crate::gate_tunneling::GateCurrents;
use crate::params::{logistic, MosParams};
use crate::{btbt, gate_tunneling, subthreshold, DeviceDesign, MosKind};

/// A four-terminal MOSFET with derived electrical parameters.
///
/// ```
/// use nanoleak_device::{Bias, DeviceDesign, MosKind, Transistor};
/// let t = Transistor::new(DeviceDesign::nano25(MosKind::Nmos).derive());
/// // OFF NMOS, drain at VDD: leaks through all three mechanisms.
/// let (tc, bd) = t.leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
/// assert!(bd.sub > 0.0 && bd.gate > 0.0 && bd.btbt > 0.0);
/// assert!(tc.kcl_residual().abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transistor {
    params: MosParams,
}

impl Transistor {
    /// Wraps derived parameters.
    pub fn new(params: MosParams) -> Self {
        Self { params }
    }

    /// Builds directly from a design (`design.derive()`).
    pub fn from_design(design: &DeviceDesign) -> Self {
        Self::new(design.derive())
    }

    /// The electrical parameters.
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Device polarity.
    pub fn kind(&self) -> MosKind {
        self.params.kind
    }

    /// Returns a copy with the channel width scaled by `k` (standard-cell
    /// sizing of series stacks / parallel fingers).
    #[must_use]
    pub fn scaled_width(&self, k: f64) -> Self {
        assert!(k > 0.0, "width scale must be positive");
        let mut p = self.params;
        p.w *= k;
        Self::new(p)
    }

    /// Full leakage evaluation at absolute node voltages `bias` and
    /// temperature `t` \[K\].
    ///
    /// Returns the KCL-ready terminal currents (current from each node
    /// *into* the device; they sum to zero) and the mechanism breakdown
    /// (all magnitudes, attribution per the paper's eq. 6: channel
    /// current counts as subthreshold leakage only for an OFF device —
    /// an ON device merely conducts other devices' leakage).
    pub fn leakage(&self, bias: Bias, t: f64) -> (TerminalCurrents, LeakageBreakdown) {
        let (tc, mech) = self.evaluate(bias, t);
        (tc, mech.breakdown(&self.params, t))
    }

    /// Terminal currents only, the quantity a KCL solver iterates on.
    /// Bit for bit the currents of [`Transistor::leakage`], which runs
    /// the same formula and only adds the mechanism breakdown.
    pub fn terminal_currents(&self, bias: Bias, t: f64) -> TerminalCurrents {
        self.evaluate(bias, t).0
    }

    /// The polarity transform over the n-like core.
    fn evaluate(&self, bias: Bias, t: f64) -> (TerminalCurrents, Mechanisms) {
        match self.params.kind {
            MosKind::Nmos => Self::core(&self.params, bias, t),
            MosKind::Pmos => {
                let (tc, mech) = Self::core(&self.params, bias.negated(), t);
                (tc.negated(), mech)
            }
        }
    }

    /// N-like core: normalizes source/drain order then assembles the
    /// three mechanisms.
    fn core(p: &MosParams, bias: Bias, t: f64) -> (TerminalCurrents, Mechanisms) {
        if bias.vd < bias.vs {
            let (tc, mech) = Self::core_ordered(p, bias.swapped_ds(), t);
            return (tc.swapped_ds(), mech);
        }
        Self::core_ordered(p, bias, t)
    }

    fn core_ordered(p: &MosParams, bias: Bias, t: f64) -> (TerminalCurrents, Mechanisms) {
        debug_assert!(bias.vd >= bias.vs);
        let mut tc = TerminalCurrents::ZERO;

        // Channel (subthreshold / ON) current, drain -> source.
        let i_ch = subthreshold::ids(p, bias.vgs(), bias.vds(), bias.vsb(), t);
        tc.d += i_ch;
        tc.s -= i_ch;

        // Gate oxide tunneling.
        let gc = gate_tunneling::components(p, bias.vg, bias.vd, bias.vs, bias.vb, t);
        tc.g += gc.gate_total();
        tc.s -= gc.igcs + gc.igso;
        tc.d -= gc.igcd + gc.igdo;
        tc.b -= gc.igb;

        // Junction currents (BTBT + diode) at both junctions.
        let jd = btbt::junction_current(p, bias.vdb(), t);
        let js = btbt::junction_current(p, bias.vsb(), t);
        tc.d += jd;
        tc.b -= jd;
        tc.s += js;
        tc.b -= js;

        (tc, Mechanisms { bias, i_ch, gc })
    }
}

/// What the breakdown reads of one core evaluation, in the core's
/// normalized (n-like, `vds >= 0`) frame.
struct Mechanisms {
    bias: Bias,
    i_ch: f64,
    gc: GateCurrents,
}

impl Mechanisms {
    /// Channel current is "subthreshold leakage" only if the device is
    /// OFF, gate counts every oxide component, BTBT counts the pure
    /// tunneling part. The ON/OFF classifier is a logic-state detector
    /// (midpoint well above any leakage-state node excursion, fixed
    /// 25 mV width) so that mV-scale loading shifts and
    /// temperature-induced Vth drift never leak into the attribution
    /// itself.
    fn breakdown(&self, p: &MosParams, t: f64) -> LeakageBreakdown {
        let bias = self.bias;
        let off_weight = 1.0 - logistic((bias.vgs() - (p.vth0 + 0.15)) / 0.025);
        LeakageBreakdown {
            sub: self.i_ch.abs() * off_weight,
            gate: self.gc.magnitude(),
            btbt: btbt::ibtbt(p, bias.vdb(), t) + btbt::ibtbt(p, bias.vsb(), t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::NA;

    fn nmos() -> Transistor {
        Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos))
    }

    fn pmos() -> Transistor {
        Transistor::from_design(&DeviceDesign::nano25(MosKind::Pmos))
    }

    #[test]
    fn kcl_residual_is_zero() {
        for t in [&nmos(), &pmos()] {
            for bias in [
                Bias::new(0.0, 0.9, 0.0, 0.0),
                Bias::new(0.9, 0.9, 0.0, 0.0),
                Bias::new(0.9, 0.02, 0.9, 0.9),
                Bias::new(0.45, 0.7, 0.1, 0.0),
            ] {
                let tc = t.terminal_currents(bias, 300.0);
                assert!(
                    tc.kcl_residual().abs() < 1e-15,
                    "residual {} at {bias:?}",
                    tc.kcl_residual()
                );
            }
        }
    }

    #[test]
    fn off_nmos_drains_current_from_drain_node() {
        // OFF NMOS in inverter (input 0, output 1): subthreshold current
        // enters at the drain (output) node.
        let (tc, bd) = nmos().leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        assert!(tc.d > 100.0 * NA, "drain current = {} nA", tc.d / NA);
        assert!(bd.sub > 100.0 * NA);
        assert!(bd.sub > bd.gate && bd.gate > bd.btbt, "sub-dominated device: {bd:?}");
    }

    #[test]
    fn off_nmos_feeds_its_gate_node() {
        // Edge tunneling pushes current INTO the gate node of an OFF
        // NMOS with a high drain — the loading-effect source current.
        let tc = nmos().terminal_currents(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        assert!(tc.g < -NA, "gate current = {} nA", tc.g / NA);
    }

    #[test]
    fn on_nmos_draws_from_its_gate_node() {
        // ON NMOS (gate high): gate-to-channel tunneling pulls current
        // out of the driving node (vin drops below VDD).
        let tc = nmos().terminal_currents(Bias::new(0.9, 0.0, 0.0, 0.0), 300.0);
        assert!(tc.g > 10.0 * NA, "gate current = {} nA", tc.g / NA);
    }

    #[test]
    fn on_nmos_reports_no_subthreshold_leakage() {
        let (_, bd) = nmos().leakage(Bias::new(0.9, 0.001, 0.0, 0.0), 300.0);
        assert!(bd.sub < 1.0 * NA, "ON device sub attribution = {} nA", bd.sub / NA);
    }

    #[test]
    fn pmos_polarity_mirror() {
        // OFF PMOS in inverter (input 1, output 0): source at VDD,
        // drain at 0, gate at VDD, bulk at VDD.
        let (tc, bd) = pmos().leakage(Bias::new(0.9, 0.0, 0.9, 0.9), 300.0);
        // Subthreshold flows source(VDD) -> drain(0): current enters at
        // source, exits at drain node.
        assert!(tc.s > 100.0 * NA, "source current = {} nA", tc.s / NA);
        assert!(tc.d < 0.0);
        assert!(bd.sub > 100.0 * NA);
        assert!(bd.btbt > 0.5 * NA, "PMOS drain junction BTBT = {} nA", bd.btbt / NA);
    }

    #[test]
    fn off_pmos_feeds_its_gate_node() {
        // OFF PMOS (gate at VDD, drain at 0): |vgd| = VDD across the
        // drain overlap; the p-polarity makes the current flow INTO the
        // device at the gate (the logic-1 input node is pulled DOWN).
        let tc = pmos().terminal_currents(Bias::new(0.9, 0.0, 0.9, 0.9), 300.0);
        assert!(tc.g > 0.0, "gate current = {} nA", tc.g / NA);
    }

    #[test]
    fn on_pmos_pushes_into_its_gate_node() {
        // ON PMOS (gate at 0, source at VDD): channel tunneling pushes
        // current out of the device into the gate node (logic-0 input
        // node is lifted UP). Mirrors the ON-NMOS case.
        let tc = pmos().terminal_currents(Bias::new(0.0, 0.9, 0.9, 0.9), 300.0);
        assert!(tc.g < 0.0, "gate current = {} nA", tc.g / NA);
    }

    #[test]
    fn source_drain_swap_is_consistent() {
        // Evaluating with swapped terminal labels must give swapped
        // currents (device symmetry).
        let t = nmos();
        let a = t.terminal_currents(Bias::new(0.4, 0.9, 0.1, 0.0), 300.0);
        let b = t.terminal_currents(Bias::new(0.4, 0.1, 0.9, 0.0), 300.0);
        assert!((a.d - b.s).abs() < 1e-18);
        assert!((a.s - b.d).abs() < 1e-18);
        assert!((a.g - b.g).abs() < 1e-18);
    }

    #[test]
    fn terminal_currents_are_the_leakage_currents_bit_for_bit() {
        // The solvers iterate on `terminal_currents` and report from
        // `leakage`; both must stamp the same bits. The grid crosses
        // both source/drain orders (vd below and above vs) and the
        // sub-zero and above-rail excursions of loaded nodes.
        let levels = [-0.05, 0.0, 0.013, 0.05, 0.45, 0.887, 0.9, 0.95];
        let bits = |tc: TerminalCurrents| [tc.d, tc.g, tc.s, tc.b].map(f64::to_bits);
        let mut checked = 0;
        for dev in [nmos(), pmos(), nmos().scaled_width(4.0)] {
            for temp in [300.0, 380.0] {
                for vg in levels {
                    for vd in levels {
                        for vs in levels {
                            for vb in [0.0, 0.9] {
                                let bias = Bias::new(vg, vd, vs, vb);
                                let full = dev.leakage(bias, temp).0;
                                let fast = dev.terminal_currents(bias, temp);
                                assert_eq!(bits(fast), bits(full), "{bias:?} at {temp} K");
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 2 * 8 * 8 * 8 * 2);
    }

    #[test]
    fn width_scaling_scales_leakage() {
        let t = nmos();
        let (_, b1) = t.leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        let (_, b2) = t.scaled_width(2.0).leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        assert!((b2.total() / b1.total() - 2.0).abs() < 0.01);
    }
}
