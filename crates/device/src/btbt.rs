//! Junction band-to-band tunneling (BTBT) current model.
//!
//! The halo implants that tame short-channel effects dope the
//! source/drain junctions so heavily that, under reverse bias (OFF
//! transistor with drain at VDD), electrons tunnel from the valence band
//! of the p-side to the conduction band of the n-side. We use Kane's
//! model with the peak field of a one-sided step junction:
//!
//! ```text
//! E(Vr)  = sqrt(2 q N_halo (Vr + psi_bi) / eps_si)
//! Ibtbt  = C W E Vr / sqrt(Eg) * exp(-B Eg^1.5 / E)
//! ```
//!
//! It is exponential in the halo doping (Fig. 4a), nearly independent of
//! `Tox` (Fig. 4b), and rises mildly with temperature through the
//! Varshni band-gap narrowing (Fig. 4c). A small ideal-diode term
//! provides the forward-bias clamp and keeps circuit nodes physical.

use crate::consts::{EPS_SI, Q};
use crate::params::{BoundParams, MosParams};

/// Pure BTBT tunneling current of one junction at reverse bias `vr`
/// \[A\]; zero for `vr <= 0`.
pub fn ibtbt(b: &BoundParams, vr: f64) -> f64 {
    if vr <= 0.0 {
        return 0.0;
    }
    let e = junction_field(b.p, vr);
    b.c_w * e * vr / b.sqrt_eg * (b.b_eg / e).exp()
}

/// Peak junction field of the halo-doped one-sided junction \[V/m\].
#[inline]
pub fn junction_field(p: &MosParams, vr: f64) -> f64 {
    (2.0 * Q * p.n_halo * (vr + p.psi_bi).max(0.05) / EPS_SI).sqrt()
}

/// Ideal-diode junction current `I_s W (1 - exp(-vr / vt))` \[A\]
/// (reverse: tiny positive floor; forward: exponential clamp pulling
/// the terminal back toward the bulk).
pub fn diode(b: &BoundParams, vr: f64) -> f64 {
    // Cap the forward exponential so the solver never sees infinities
    // (exp(25) * I_s ~ 10 mA is already a hard clamp at this scale).
    b.i_s * (1.0 - (-vr / b.vt).min(25.0).exp())
}

/// One junction's current at one reverse bias, by term \[A\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Junction {
    /// Pure BTBT tunneling ([`ibtbt`]).
    pub btbt: f64,
    /// Ideal-diode term ([`diode`]).
    pub diode: f64,
}

impl Junction {
    /// Both terms at reverse bias `vr`.
    pub fn at(b: &BoundParams, vr: f64) -> Self {
        Self { btbt: ibtbt(b, vr), diode: diode(b, vr) }
    }

    /// Net current from the n+ terminal into the bulk: BTBT plus diode.
    #[inline]
    pub fn current(&self) -> f64 {
        self.btbt + self.diode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::NA;
    use crate::{DeviceDesign, MosKind};

    fn nmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Nmos).derive()
    }

    fn pmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Pmos).derive()
    }

    #[test]
    fn magnitude_in_calibrated_range() {
        // Fig. 10 puts inverter junction leakage at ~5-20 nA total; a
        // single NMOS junction at full reverse bias is a few nA.
        let i = ibtbt(&nmos().at_temp(300.0), 0.9);
        assert!(i > 0.5 * NA && i < 20.0 * NA, "Ibtbt = {} nA", i / NA);
    }

    #[test]
    fn pmos_junction_leaks_more() {
        // Paper Section 4: "PMOS has a larger junction BTBT current".
        let in_ = ibtbt(&nmos().at_temp(300.0), 0.9);
        let ip = ibtbt(&pmos().at_temp(300.0), 0.9);
        assert!(ip > 2.0 * in_, "p/n = {}", ip / in_);
    }

    #[test]
    fn zero_for_forward_or_zero_bias() {
        assert_eq!(ibtbt(&nmos().at_temp(300.0), 0.0), 0.0);
        assert_eq!(ibtbt(&nmos().at_temp(300.0), -0.3), 0.0);
    }

    #[test]
    fn strongly_increases_with_reverse_bias() {
        let p = nmos();
        let lo = ibtbt(&p.at_temp(300.0), 0.45);
        let hi = ibtbt(&p.at_temp(300.0), 0.90);
        assert!(hi / lo > 3.0, "bias ratio = {}", hi / lo);
    }

    #[test]
    fn exponential_in_halo_doping() {
        let mut p = nmos();
        let base = ibtbt(&p.at_temp(300.0), 0.9);
        p.n_halo *= 2.0;
        let strong = ibtbt(&p.at_temp(300.0), 0.9);
        assert!(strong / base > 20.0, "doping ratio = {}", strong / base);
    }

    #[test]
    fn mildly_increases_with_temperature() {
        let p = nmos();
        let i300 = ibtbt(&p.at_temp(300.0), 0.9);
        let i400 = ibtbt(&p.at_temp(400.0), 0.9);
        let ratio = i400 / i300;
        assert!(ratio > 1.05 && ratio < 4.0, "T ratio = {ratio} (must be mild)");
    }

    #[test]
    fn diode_clamps_forward_bias() {
        let p = nmos();
        // 0.5 V forward bias must produce a large negative (bulk->terminal)
        // current that would pull the node back.
        let i = Junction::at(&p.at_temp(300.0), -0.5).current();
        assert!(i < -1e-7, "forward clamp = {} A", i);
        // Deep reverse: essentially the BTBT value plus a tiny floor.
        let r = Junction::at(&p.at_temp(300.0), 0.9).current();
        assert!((r - ibtbt(&p.at_temp(300.0), 0.9)).abs() < 1e-9);
    }

    #[test]
    fn junction_field_megavolt_per_cm_scale() {
        let e = junction_field(&nmos(), 0.9);
        // 1-4 MV/cm = 1e8-4e8 V/m is the BTBT-relevant regime.
        assert!(e > 1e8 && e < 5e8, "E = {e:.3e} V/m");
    }
}
