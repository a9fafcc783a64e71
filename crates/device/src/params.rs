//! Electrical device parameters consumed by the current models.

use serde::{Deserialize, Serialize};

use crate::consts::{band_gap_ev, thermal_voltage, T_REF};
use crate::MosKind;

/// Electrical parameters of one MOSFET, as derived from a
/// [`crate::DeviceDesign`] by [`crate::DeviceDesign::derive`].
///
/// All models in this crate treat these parameters as describing an
/// *n-like* core device; p-channel behavior is obtained by the polarity
/// transform in [`crate::Transistor`]. Voltages below are therefore
/// n-like (positive `vth0`, positive `vds` in normal operation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosParams {
    /// Device polarity (used by [`crate::Transistor`] for the transform).
    pub kind: MosKind,
    /// Channel width \[m\].
    pub w: f64,
    /// Channel length \[m\].
    pub l: f64,
    /// Gate-S/D overlap length \[m\].
    pub lov: f64,
    /// Oxide thickness \[m\].
    pub tox: f64,
    /// Oxide capacitance per area \[F/m^2\].
    pub cox: f64,
    /// Zero-bias threshold voltage at `T_REF` \[V\] (roll-off included).
    pub vth0: f64,
    /// Subthreshold swing factor `m = 1 + (Cdm + Cit)/Cox`.
    pub m: f64,
    /// Body-effect factor \[V^0.5\].
    pub gamma: f64,
    /// Surface potential `2 phi_F` \[V\].
    pub phi_s: f64,
    /// DIBL coefficient \[V/V\].
    pub eta: f64,
    /// Vth temperature coefficient \[V/K\].
    pub kappa_t: f64,
    /// Low-field mobility at `T_REF` \[m^2/Vs\].
    pub mu0: f64,
    /// Mobility temperature exponent.
    pub mu_exp: f64,
    /// Mobility degradation (incl. S/D series resistance) \[1/V\].
    pub theta: f64,
    /// Gate tunneling prefactor \[A/V^2\].
    pub a_gate: f64,
    /// Gate tunneling exponent slope \[1/m\].
    pub b_gate: f64,
    /// Tunneling barrier \[eV\].
    pub phi_b_ev: f64,
    /// Gate-to-bulk share of area tunneling.
    pub igb_frac: f64,
    /// BTBT prefactor.
    pub c_btbt: f64,
    /// BTBT exponent slope \[V/m per eV^1.5\].
    pub b_btbt: f64,
    /// Junction built-in potential \[V\].
    pub psi_bi: f64,
    /// Halo doping at the junction \[m^-3\] (sets the junction field).
    pub n_halo: f64,
    /// Junction thermal saturation current per width \[A/m\].
    pub i_s_w: f64,
}

impl MosParams {
    /// Binds the parameters to temperature `t` \[K\], evaluating once
    /// every sub-expression of the mechanism models that depends only on
    /// the parameters and the temperature.
    pub fn at_temp(&self, t: f64) -> BoundParams<'_> {
        let vt = thermal_voltage(t);
        let eg = band_gap_ev(t);
        BoundParams {
            p: self,
            vt,
            mvt2: 2.0 * self.m * vt,
            mvt3: 3.0 * self.m * vt,
            sqrt_phi_s: self.phi_s.sqrt(),
            vth_drift: self.kappa_t * (t - T_REF),
            mobility: self.mu0 * (t / T_REF).powf(-self.mu_exp),
            w_over_l: self.w / self.l,
            two_m: 2.0 * self.m,
            area: self.w * self.l,
            aov: self.w * self.lov,
            i_s: self.i_s_w * self.w,
            c_w: self.c_btbt * self.w,
            sqrt_eg: eg.sqrt(),
            b_eg: -self.b_btbt * eg.powf(1.5),
        }
    }
}

/// [`MosParams`] bound to one temperature: the parameters plus every
/// sub-expression of the mechanism models that depends only on them and
/// the temperature, each evaluated once exactly as the models write it,
/// so a model reads the same bits it would compute inline. A DC solve
/// binds each device once; every evaluation then skips the `powf`s and
/// `sqrt`s of the temperature laws.
#[derive(Debug, Clone, Copy)]
pub struct BoundParams<'a> {
    pub(crate) p: &'a MosParams,
    /// Thermal voltage `kT/q` \[V\].
    pub(crate) vt: f64,
    /// `2 m vt`, the smooth overdrive's scale \[V\].
    pub(crate) mvt2: f64,
    /// `3 m vt`, the inversion factor's scale \[V\].
    pub(crate) mvt3: f64,
    /// `sqrt(phi_s)` \[V^0.5\].
    pub(crate) sqrt_phi_s: f64,
    /// `kappa_t (T - T_REF)`, the threshold's thermal drift \[V\].
    pub(crate) vth_drift: f64,
    /// Temperature-scaled mobility `mu0 (T / T_REF)^-mu_exp` \[m^2/Vs\].
    pub(crate) mobility: f64,
    /// `W / L`.
    pub(crate) w_over_l: f64,
    /// `2 m`.
    pub(crate) two_m: f64,
    /// Channel area `W L` \[m^2\].
    pub(crate) area: f64,
    /// Overlap area `W Lov` \[m^2\].
    pub(crate) aov: f64,
    /// Junction saturation current `I_s W` \[A\].
    pub(crate) i_s: f64,
    /// BTBT prefactor times width, `C W`.
    pub(crate) c_w: f64,
    /// `sqrt(Eg(T))` \[eV^0.5\].
    pub(crate) sqrt_eg: f64,
    /// `-B Eg(T)^1.5`, the BTBT exponent's numerator \[V/m\].
    pub(crate) b_eg: f64,
}

impl BoundParams<'_> {
    /// Effective threshold voltage at the given n-like bias \[V\]:
    ///
    /// `Vth = Vth0 + gamma (sqrt(phi_s + Vsb) - sqrt(phi_s)) - eta Vds - kappa_t (T - 300)`
    ///
    /// `Vsb` is clamped at mild forward body bias and the square-root
    /// argument kept positive so the expression stays smooth for the
    /// Newton solver.
    #[inline]
    pub fn vth_eff(&self, vds: f64, vsb: f64) -> f64 {
        let p = self.p;
        let vsb_c = vsb.max(-0.2);
        let root = (p.phi_s + vsb_c).max(0.02).sqrt();
        p.vth0 + p.gamma * (root - self.sqrt_phi_s) - p.eta * vds - self.vth_drift
    }

    /// Smooth overdrive voltage `u = 2 m vt ln(1 + exp((vgs-vth)/(2 m vt)))`,
    /// which tends to `vgs - vth` in strong inversion and to an
    /// exponential in weak inversion. Shared by the drain-current and
    /// gate-tunneling (inversion-factor) models.
    #[inline]
    pub fn smooth_overdrive(&self, vgs: f64, vth: f64) -> f64 {
        self.mvt2 * ln_1p_exp((vgs - vth) / self.mvt2)
    }
}

/// Overflow-safe `ln(1 + exp(x))` (softplus).
#[inline]
pub fn ln_1p_exp(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Smooth logistic `1 / (1 + exp(-x))`, overflow-safe.
#[inline]
pub fn logistic(x: f64) -> f64 {
    if x > 30.0 {
        1.0
    } else if x < -30.0 {
        x.exp()
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceDesign, MosKind};

    fn nparams() -> MosParams {
        DeviceDesign::nano25(MosKind::Nmos).derive()
    }

    #[test]
    fn vth_drops_with_drain_bias_dibl() {
        let p = nparams();
        let v0 = p.at_temp(300.0).vth_eff(0.0, 0.0);
        let v9 = p.at_temp(300.0).vth_eff(0.9, 0.0);
        assert!(v9 < v0);
        assert!((v0 - v9 - p.eta * 0.9).abs() < 1e-12);
    }

    #[test]
    fn vth_rises_with_body_reverse_bias() {
        let p = nparams();
        assert!(p.at_temp(300.0).vth_eff(0.0, 0.3) > p.at_temp(300.0).vth_eff(0.0, 0.0));
    }

    #[test]
    fn vth_drops_with_temperature() {
        let p = nparams();
        assert!(p.at_temp(400.0).vth_eff(0.0, 0.0) < p.at_temp(300.0).vth_eff(0.0, 0.0));
    }

    #[test]
    fn mobility_degrades_with_temperature() {
        let p = nparams();
        assert!(p.at_temp(400.0).mobility < p.at_temp(300.0).mobility);
        assert!((p.at_temp(300.0).mobility - p.mu0).abs() < 1e-15);
    }

    #[test]
    fn ln_1p_exp_limits() {
        assert!((ln_1p_exp(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
        assert!((ln_1p_exp(50.0) - 50.0).abs() < 1e-12);
        assert!(ln_1p_exp(-50.0) > 0.0);
        assert!(ln_1p_exp(-50.0) < 1e-20);
    }

    #[test]
    fn logistic_limits() {
        assert!((logistic(0.0) - 0.5).abs() < 1e-12);
        assert!(logistic(40.0) == 1.0);
        assert!(logistic(-40.0) < 1e-15);
    }

    #[test]
    fn smooth_overdrive_asymptotes() {
        let p = nparams();
        // Strong inversion: u ~ vgs - vth.
        let u = p.at_temp(300.0).smooth_overdrive(0.9, 0.2);
        assert!((u - 0.7).abs() < 0.01);
        // Weak inversion: u small and positive.
        let uw = p.at_temp(300.0).smooth_overdrive(0.0, 0.2);
        assert!(uw > 0.0 && uw < 0.02);
    }
}
