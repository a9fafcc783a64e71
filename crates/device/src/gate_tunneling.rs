//! Gate direct-tunneling current model.
//!
//! In the sub-1.5 nm oxide regime electrons (NMOS) or holes (PMOS)
//! tunnel directly through the gate oxide. Following the BSIM4
//! decomposition the paper uses (its Fig. 2/3), the model produces:
//!
//! * `Igc` — gate-to-channel current, present when the channel is
//!   inverted (ON device), partitioned into `Igcs`/`Igcd`;
//! * `Igso`, `Igdo` — gate-to-source/drain *overlap* (edge) tunneling,
//!   present whenever the gate-to-S/D voltage is non-zero — this is the
//!   component an OFF gate injects into the net that drives it, i.e. the
//!   root cause of the paper's loading effect;
//! * `Igb` — a small gate-to-bulk share.
//!
//! The tunneling density uses the standard direct-tunneling form
//!
//! ```text
//! J(V) = A (V/Tox)^2 exp( -B Tox (1 - (1 - |V|/phi_b)^1.5) / |V| )
//! ```
//!
//! which is exponential in `Tox` (Fig. 4b), super-linear in `V`, and
//! essentially temperature-independent (Fig. 4c).

use crate::params::{logistic, BoundParams, MosParams};

/// Signed gate tunneling components of the n-like core model \[A\].
/// Each value is the current flowing **from the gate into** the named
/// region (negative values flow into the gate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateCurrents {
    /// Gate-to-channel, source-collected half.
    pub igcs: f64,
    /// Gate-to-channel, drain-collected half.
    pub igcd: f64,
    /// Gate-to-source-overlap edge current.
    pub igso: f64,
    /// Gate-to-drain-overlap edge current.
    pub igdo: f64,
    /// Gate-to-bulk current.
    pub igb: f64,
}

impl GateCurrents {
    /// Total current leaving the gate terminal \[A\] (signed).
    #[inline]
    pub fn gate_total(&self) -> f64 {
        self.igcs + self.igcd + self.igso + self.igdo + self.igb
    }

    /// Sum of component magnitudes \[A\] — the "gate leakage" the paper
    /// reports for a device.
    #[inline]
    pub fn magnitude(&self) -> f64 {
        self.igcs.abs() + self.igcd.abs() + self.igso.abs() + self.igdo.abs() + self.igb.abs()
    }
}

/// Direct-tunneling current density for a positive oxide voltage
/// \[A/m^2\]. Returns 0 for `vox <= 0`; use [`j_signed`] for the
/// polarity-aware version.
pub fn j_direct(p: &MosParams, vox: f64) -> f64 {
    if vox <= 0.0 {
        return 0.0;
    }
    let v = vox.min(p.phi_b_ev - 1e-3);
    let barrier = 1.0 - (1.0 - v / p.phi_b_ev).powf(1.5);
    let field = vox / p.tox;
    p.a_gate * field * field * (-p.b_gate * p.tox * barrier / v).exp()
}

/// Polarity-aware tunneling density: `sign(v) * J(|v|)` \[A/m^2\].
/// Positive result means conventional current flowing in the direction
/// of decreasing potential across the oxide.
#[inline]
pub fn j_signed(p: &MosParams, v: f64) -> f64 {
    if v >= 0.0 {
        j_direct(p, v)
    } else {
        -j_direct(p, -v)
    }
}

/// All gate tunneling components at the given n-like node voltages
/// (absolute node voltages), with `vth` the channel's threshold as
/// [`channel`] takes it. Temperature enters only through the
/// inversion factor's thermal voltage, a very weak dependence.
pub fn components(b: &BoundParams, vg: f64, vd: f64, vs: f64, vb: f64, vth: f64) -> GateCurrents {
    let igc = channel(b, vg, vd, vs, vth);
    GateCurrents {
        igcs: 0.5 * igc,
        igcd: 0.5 * igc,
        igso: overlap(b, vg, vs),
        igdo: overlap(b, vg, vd),
        igb: bulk(b, vg, vb),
    }
}

/// Gate-to-channel current `Igc` \[A\], before its even source/drain
/// split. It reads all four terminals: the bulk through `vth`, the
/// threshold at the source end, [`BoundParams::vth_eff`] at `|vds|`
/// and `vsb` clamped at zero.
pub fn channel(b: &BoundParams, vg: f64, vd: f64, vs: f64, vth: f64) -> f64 {
    let p = b.p;
    // Channel tunneling requires an inverted channel: smooth inversion
    // factor keyed to vth at the source end.
    let vgs = vg - vs;
    let f_inv = logistic((vgs - vth) / b.mvt3);
    // When ON, vds ~ 0 and the channel sits near the source potential;
    // reference the oxide voltage to the channel midpoint for symmetry.
    let v_ch = 0.5 * (vs + vd);
    f_inv * b.area * (1.0 - p.igb_frac) * j_signed(p, vg - v_ch)
}

/// Gate-to-bulk current `Igb` \[A\]; reads the gate and the bulk.
pub fn bulk(b: &BoundParams, vg: f64, vb: f64) -> f64 {
    b.area * b.p.igb_frac * j_signed(b.p, vg - vb)
}

/// Edge (overlap) tunneling current from the gate into the source or
/// drain region at `vx` \[A\], present in ON and OFF states alike.
pub fn overlap(b: &BoundParams, vg: f64, vx: f64) -> f64 {
    b.aov * j_signed(b.p, vg - vx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::{NA, NM};
    use crate::{DeviceDesign, MosKind};

    fn nmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Nmos).derive()
    }

    fn pmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Pmos).derive()
    }

    /// [`components`] of `p` at temperature `t`, at the channel's own
    /// threshold.
    fn components_at(p: &MosParams, t: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> GateCurrents {
        let b = p.at_temp(t);
        components(&b, vg, vd, vs, vb, b.vth_eff((vd - vs).abs(), (vs - vb).max(0.0)))
    }

    #[test]
    fn density_zero_without_bias() {
        assert_eq!(j_direct(&nmos(), 0.0), 0.0);
        assert_eq!(j_signed(&nmos(), 0.0), 0.0);
    }

    #[test]
    fn density_odd_in_voltage() {
        let p = nmos();
        assert_eq!(j_signed(&p, 0.5), -j_signed(&p, -0.5));
    }

    #[test]
    fn density_grows_superlinearly_with_voltage() {
        let p = nmos();
        let j1 = j_direct(&p, 0.45);
        let j2 = j_direct(&p, 0.90);
        assert!(j2 > 4.0 * j1, "ratio = {}", j2 / j1);
    }

    #[test]
    fn density_exponential_in_tox() {
        let mut p = nmos();
        let j_thin = j_direct(&p, 0.9);
        p.tox = 1.2 * NM;
        let j_thick = j_direct(&p, 0.9);
        // ~10x per 2 Angstrom is the textbook slope.
        assert!(j_thin / j_thick > 4.0 && j_thin / j_thick < 40.0, "slope = {}", j_thin / j_thick);
    }

    #[test]
    fn on_nmos_gate_current_magnitude() {
        // ON NMOS (inverter input '1'): gate-to-channel dominates, a
        // few hundred nA up to ~1 uA for W = 200 nm (the paper's Fig. 10
        // gate-leakage histogram spans to ~1.5 uA per inverter).
        let p = nmos();
        let gc = components_at(&p, 300.0, 0.9, 0.0, 0.0, 0.0);
        let total = gc.gate_total();
        assert!(total > 150.0 * NA && total < 1500.0 * NA, "Igc = {} nA", total / NA);
        // Current leaves the gate node (positive = gate -> channel).
        assert!(total > 0.0);
        assert!(gc.igcs > 0.0 && gc.igcd > 0.0);
    }

    #[test]
    fn off_nmos_edge_tunneling_into_gate() {
        // OFF NMOS with drain high (inverter input '0'): drain-overlap
        // current flows INTO the gate node (igdo < 0) — this is what
        // lifts a logic-0 input node above ground (loading effect).
        let p = nmos();
        let gc = components_at(&p, 300.0, 0.0, 0.9, 0.0, 0.0);
        assert!(gc.igdo < 0.0, "igdo = {} nA", gc.igdo / NA);
        assert!(gc.igdo.abs() > 1.0 * NA, "igdo = {} nA", gc.igdo / NA);
        // Channel not inverted: igc negligible compared to overlap.
        assert!(gc.igcs.abs() + gc.igcd.abs() < 0.5 * gc.igdo.abs());
    }

    #[test]
    fn pmos_tunneling_much_weaker_than_nmos() {
        let jn = j_direct(&nmos(), 0.9);
        let jp = j_direct(&pmos(), 0.9);
        assert!(jn / jp > 3.0 && jn / jp < 40.0, "n/p = {}", jn / jp);
    }

    #[test]
    fn nearly_temperature_independent() {
        let p = nmos();
        let g300 = components_at(&p, 300.0, 0.9, 0.0, 0.0, 0.0).magnitude();
        let g400 = components_at(&p, 400.0, 0.9, 0.0, 0.0, 0.0).magnitude();
        let rel = (g400 - g300).abs() / g300;
        assert!(rel < 0.05, "gate leakage moved {}% over 100K", rel * 100.0);
    }

    #[test]
    fn magnitude_counts_all_components() {
        let gc = GateCurrents { igcs: 1.0, igcd: -1.0, igso: 2.0, igdo: -3.0, igb: 0.5 };
        assert_eq!(gc.magnitude(), 7.5);
        assert_eq!(gc.gate_total(), -0.5);
    }
}
