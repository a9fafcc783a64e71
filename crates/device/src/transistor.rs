//! The assembled four-terminal transistor leakage model.
//!
//! [`Transistor`] combines the three mechanism models
//! ([`crate::subthreshold`], [`crate::gate_tunneling`], [`crate::btbt`])
//! into KCL-ready terminal currents plus the per-mechanism breakdown the
//! paper reports. P-channel devices are realized with the polarity
//! transform `I_p(v) = -I_n(-v)` over an n-like core, and the core
//! handles the MOSFET's source/drain symmetry by normalizing to
//! `vds >= 0`.
//!
//! One evaluation splits into [`Parts`]: the channel current, the five
//! gate-tunneling components and each junction's BTBT and diode terms,
//! in the core's frame. Terminal currents and the breakdown are both
//! read off the parts. A caller that moves some terminals of a device
//! whose parts it kept ([`BoundParams::parts_moved`], a DC solve's
//! Jacobian column) re-evaluates only the parts those terminals feed.

use serde::{Deserialize, Serialize};

use crate::bias::{Bias, LeakageBreakdown, TerminalCurrents};
use crate::btbt::Junction;
use crate::gate_tunneling::GateCurrents;
use crate::params::{logistic, BoundParams, MosParams};
use crate::{gate_tunneling, subthreshold, DeviceDesign, MosKind};

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
        let dev = self.params.at_temp(t);
        let parts = dev.parts(bias);
        (dev.currents(&parts), dev.breakdown(&parts))
    }

    /// Terminal currents only, the quantity a KCL solver iterates on.
    /// Bit for bit the currents of [`Transistor::leakage`], which reads
    /// the same parts and only adds the mechanism breakdown.
    pub fn terminal_currents(&self, bias: Bias, t: f64) -> TerminalCurrents {
        let dev = self.params.at_temp(t);
        dev.currents(&dev.parts(bias))
    }
}

/// A set of a device's terminals: those a caller moved since it kept
/// the device's [`Parts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminals {
    /// The drain.
    pub d: bool,
    /// The gate.
    pub g: bool,
    /// The source.
    pub s: bool,
    /// The bulk.
    pub b: bool,
}

/// One device's mechanism parts at one bias, in the core's frame (n-like
/// polarity, source and drain ordered so `vds >= 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parts {
    /// The bias in the core's frame.
    bias: Bias,
    /// Whether the core exchanged the device's source and drain.
    swapped: bool,
    /// Channel current, drain to source.
    i_ch: f64,
    /// Gate tunneling components.
    gc: GateCurrents,
    /// Drain junction, at reverse bias `vdb`.
    jd: Junction,
    /// Source junction, at reverse bias `vsb`.
    js: Junction,
}

impl BoundParams<'_> {
    /// Every part at absolute node voltages `bias`.
    pub fn parts(&self, bias: Bias) -> Parts {
        let (core, swapped) = self.core_frame(bias);
        let (vth, vth_gc) = self.thresholds(&core);
        Parts {
            bias: core,
            swapped,
            i_ch: subthreshold::ids(self, core.vgs(), core.vds(), vth),
            gc: gate_tunneling::components(self, core.vg, core.vd, core.vs, core.vb, vth_gc),
            jd: Junction::at(self, core.vdb()),
            js: Junction::at(self, core.vsb()),
        }
    }

    /// The parts at `bias`, given `kept`, the parts at a bias that
    /// differs from `bias` only at the `moved` terminals. Re-evaluates
    /// only the parts that read a moved terminal, so the result is bit
    /// for bit [`BoundParams::parts`] at `bias`: a drain move leaves
    /// the gate-to-bulk and source-overlap currents and the source
    /// junction alone, a gate move both junctions. A move that flips
    /// the core's source/drain order re-evaluates every part.
    pub fn parts_moved(&self, kept: &Parts, bias: Bias, moved: Terminals) -> Parts {
        let (core, swapped) = self.core_frame(bias);
        if swapped != kept.swapped {
            return self.parts(bias);
        }
        let m = if swapped { Terminals { d: moved.s, s: moved.d, ..moved } } else { moved };
        let mut parts = *kept;
        parts.bias = core;
        // The channel current and the channel tunneling read every
        // terminal.
        let (vth, vth_gc) = self.thresholds(&core);
        parts.i_ch = subthreshold::ids(self, core.vgs(), core.vds(), vth);
        let igc = gate_tunneling::channel(self, core.vg, core.vd, core.vs, vth_gc);
        parts.gc.igcs = 0.5 * igc;
        parts.gc.igcd = 0.5 * igc;
        if m.g || m.s {
            parts.gc.igso = gate_tunneling::overlap(self, core.vg, core.vs);
        }
        if m.g || m.d {
            parts.gc.igdo = gate_tunneling::overlap(self, core.vg, core.vd);
        }
        if m.g || m.b {
            parts.gc.igb = gate_tunneling::bulk(self, core.vg, core.vb);
        }
        if m.d || m.b {
            parts.jd = Junction::at(self, core.vdb());
        }
        if m.s || m.b {
            parts.js = Junction::at(self, core.vsb());
        }
        parts
    }

    /// KCL-ready terminal currents assembled from `parts` (current from
    /// each node *into* the device; they sum to zero).
    pub fn currents(&self, parts: &Parts) -> TerminalCurrents {
        let gc = &parts.gc;
        let mut tc = TerminalCurrents::ZERO;

        // Channel (subthreshold / ON) current, drain -> source.
        tc.d += parts.i_ch;
        tc.s -= parts.i_ch;

        // Gate oxide tunneling.
        tc.g += gc.gate_total();
        tc.s -= gc.igcs + gc.igso;
        tc.d -= gc.igcd + gc.igdo;
        tc.b -= gc.igb;

        // Junction currents (BTBT + diode) at both junctions.
        let jd = parts.jd.current();
        let js = parts.js.current();
        tc.d += jd;
        tc.b -= jd;
        tc.s += js;
        tc.b -= js;

        if parts.swapped {
            tc = tc.swapped_ds();
        }
        match self.p.kind {
            MosKind::Nmos => tc,
            MosKind::Pmos => tc.negated(),
        }
    }

    /// The mechanism breakdown of `parts`.
    ///
    /// Channel current is "subthreshold leakage" only if the device is
    /// OFF, gate counts every oxide component, BTBT counts the pure
    /// tunneling part. The ON/OFF classifier is a logic-state detector
    /// (midpoint well above any leakage-state node excursion, fixed
    /// 25 mV width) so that mV-scale loading shifts and
    /// temperature-induced Vth drift never leak into the attribution
    /// itself.
    pub fn breakdown(&self, parts: &Parts) -> LeakageBreakdown {
        let off_weight = 1.0 - logistic((parts.bias.vgs() - (self.p.vth0 + 0.15)) / 0.025);
        LeakageBreakdown {
            sub: parts.i_ch.abs() * off_weight,
            gate: parts.gc.magnitude(),
            btbt: parts.jd.btbt + parts.js.btbt,
        }
    }

    /// The thresholds of the channel current and of the channel
    /// tunneling at core-frame bias `core`. Both are
    /// [`BoundParams::vth_eff`] at the core's `vds` and `vsb`, but the
    /// tunneling's reads `|vds|` and clamps `vsb` at zero. In the core
    /// frame `vds >= 0`, and `vth_eff` cannot see the sign of a zero,
    /// so whenever `vsb >= 0` the two are one value, evaluated once.
    fn thresholds(&self, core: &Bias) -> (f64, f64) {
        let vth = self.vth_eff(core.vds(), core.vsb());
        if core.vsb() >= 0.0 {
            (vth, vth)
        } else {
            (vth, self.vth_eff(core.vds().abs(), 0.0))
        }
    }

    /// The polarity transform and the source/drain normalization:
    /// `bias` in the core's frame, and whether source and drain were
    /// exchanged.
    fn core_frame(&self, bias: Bias) -> (Bias, bool) {
        let n_like = match self.p.kind {
            MosKind::Nmos => bias,
            MosKind::Pmos => bias.negated(),
        };
        if n_like.vd < n_like.vs {
            (n_like.swapped_ds(), true)
        } else {
            (n_like, false)
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
    fn moving_one_terminal_re_evaluates_to_the_full_parts_bit_for_bit() {
        // A DC solve's Jacobian column moves one node and re-evaluates
        // only the parts its device terminals feed. Over the grid of
        // `terminal_currents_are_the_leakage_currents_bit_for_bit`, a
        // move of each single terminal, up and down, by a
        // forward-difference step or by 20 mV, must give every part of
        // the full evaluation. Steps away from `vd == vs` and 20 mV moves
        // across a nearby level flip the core's source/drain order.
        let levels = [-0.05, 0.0, 0.013, 0.05, 0.45, 0.887, 0.9, 0.95];
        let bits = |dev: &BoundParams, p: &Parts| {
            let (gc, tc) = (p.gc, dev.currents(p));
            let values = [
                p.bias.vg, p.bias.vd, p.bias.vs, p.bias.vb, p.i_ch, gc.igcs, gc.igcd, gc.igso,
                gc.igdo, gc.igb, p.jd.btbt, p.jd.diode, p.js.btbt, p.js.diode, tc.d, tc.g, tc.s,
                tc.b,
            ];
            (p.swapped, values.map(f64::to_bits))
        };
        let (mut checked, mut flips) = (0, 0);
        for dev in [nmos(), pmos(), nmos().scaled_width(4.0)] {
            for temp in [300.0, 380.0] {
                let bound = dev.params().at_temp(temp);
                for vg in levels {
                    for vd in levels {
                        for vs in levels {
                            for vb in [0.0, 0.9] {
                                let bias = Bias::new(vg, vd, vs, vb);
                                let kept = bound.parts(bias);
                                for k in 0..4 {
                                    let moved =
                                        Terminals { d: k == 0, g: k == 1, s: k == 2, b: k == 3 };
                                    for step in [2e-7, -2e-7, 0.02, -0.02] {
                                        let mut at = bias;
                                        let v = match k {
                                            0 => &mut at.vd,
                                            1 => &mut at.vg,
                                            2 => &mut at.vs,
                                            _ => &mut at.vb,
                                        };
                                        *v += step * (1.0 + v.abs());
                                        let full = bound.parts(at);
                                        let fast = bound.parts_moved(&kept, at, moved);
                                        assert_eq!(
                                            bits(&bound, &fast),
                                            bits(&bound, &full),
                                            "{moved:?} to {at:?} from {bias:?} at {temp} K"
                                        );
                                        flips += usize::from(full.swapped != kept.swapped);
                                        checked += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 2 * 8 * 8 * 8 * 2 * 4 * 4);
        assert!(flips > 0, "some steps must flip the source/drain order");
    }

    #[test]
    fn one_threshold_serves_the_channel_current_and_tunneling_bit_for_bit() {
        // The channel current reads `vth_eff(vds, vsb)` and the channel
        // tunneling `vth_eff(|vds|, max(vsb, 0))`, each of which used
        // to evaluate its own. Over biases with `vsb` on both sides of
        // zero, signed zeros at every terminal and both polarities, the
        // parts, full and after a bulk move, must hold what those two
        // separate evaluations give.
        let levels = [-0.3, -0.05, -0.0, 0.0, 0.013, 0.45, 0.9, 0.95];
        let (mut shared, mut own) = (0, 0);
        for dev in [nmos(), pmos(), nmos().scaled_width(4.0)] {
            for temp in [300.0, 400.0] {
                let b = dev.params().at_temp(temp);
                for (k, vb) in levels.into_iter().enumerate() {
                    for vg in levels {
                        for vd in levels {
                            for vs in levels {
                                let bias = Bias::new(vg, vd, vs, vb);
                                let from = Bias { vb: levels[(k + 3) % levels.len()], ..bias };
                                let moved = Terminals { d: false, g: false, s: false, b: true };
                                let full = b.parts(bias);
                                let fast = b.parts_moved(&b.parts(from), bias, moved);
                                let c = full.bias;
                                let vth = b.vth_eff(c.vds(), c.vsb());
                                let i_ch = subthreshold::ids(&b, c.vgs(), c.vds(), vth);
                                let vth_gc = b.vth_eff((c.vd - c.vs).abs(), (c.vs - c.vb).max(0.0));
                                let igc = gate_tunneling::channel(&b, c.vg, c.vd, c.vs, vth_gc);
                                for p in [&full, &fast] {
                                    assert_eq!(
                                        p.i_ch.to_bits(),
                                        i_ch.to_bits(),
                                        "{bias:?} at {temp} K"
                                    );
                                    let half = (0.5 * igc).to_bits();
                                    assert_eq!(p.gc.igcs.to_bits(), half, "{bias:?} at {temp} K");
                                    assert_eq!(p.gc.igcd.to_bits(), half, "{bias:?} at {temp} K");
                                }
                                if c.vsb() >= 0.0 {
                                    shared += 1;
                                } else {
                                    own += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(shared > 0 && own > 0, "{shared} shared, {own} own thresholds");
    }

    #[test]
    fn width_scaling_scales_leakage() {
        let t = nmos();
        let (_, b1) = t.leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        let (_, b2) = t.scaled_width(2.0).leakage(Bias::new(0.0, 0.9, 0.0, 0.0), 300.0);
        assert!((b2.total() / b1.total() - 2.0).abs() < 0.01);
    }
}
