//! Subthreshold (weak inversion) drain current model.
//!
//! A single smooth expression covers weak inversion through the linear
//! region, so the same model both produces the OFF-state leakage *and*
//! holds circuit nodes at the rails through ON devices — the ON-device
//! output conductance is what converts a loading current into the node
//! voltage shift at the heart of the paper's loading effect.
//!
//! With the smooth overdrive `u` from
//! [`BoundParams::smooth_overdrive`](crate::BoundParams::smooth_overdrive):
//!
//! ```text
//! mu_eff = mu(T) / (1 + theta u)
//! Isat   = mu_eff Cox (W/L) u^2 / (2 m)
//! Ids    = Isat (1 - exp(-vds / (vt + u/2)))
//! ```
//!
//! * Weak inversion (`vgs << vth`):
//!   `Ids ∝ exp((vgs - vth)/(m vt)) (1 - exp(-vds/vt))` — the textbook
//!   subthreshold current with swing factor `m`, DIBL through
//!   `vth(vds)`, and the stacking-effect `vds` roll-off.
//! * Strong inversion, small `vds`: conductance
//!   `g ≈ mu_eff Cox (W/L) u / m` — a realistic kΩ-scale ON resistance.

use crate::params::BoundParams;

/// Drain-to-source channel current of the n-like core model \[A\].
///
/// Arguments are n-like terminal differences and the threshold `vth`,
/// [`BoundParams::vth_eff`] at this `vds` and `vsb`, which the caller
/// evaluates once for the channel tunneling too. `vds` must be
/// non-negative (the symmetric source/drain swap is handled by
/// [`crate::Transistor`]).
///
/// # Panics
/// Debug-panics if `vds` is negative.
pub fn ids(b: &BoundParams, vgs: f64, vds: f64, vth: f64) -> f64 {
    debug_assert!(vds >= 0.0, "ids requires vds >= 0, got {vds}");
    let p = b.p;
    let u = b.smooth_overdrive(vgs, vth);
    let mu_eff = b.mobility / (1.0 + p.theta * u);
    let isat = mu_eff * p.cox * b.w_over_l * u * u / b.two_m;
    -isat * (-vds / (b.vt + 0.5 * u)).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::NA;
    use crate::{DeviceDesign, MosKind, MosParams};

    fn nmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Nmos).derive()
    }

    fn pmos() -> MosParams {
        DeviceDesign::nano25(MosKind::Pmos).derive()
    }

    /// [`ids`] of `p` at temperature `t`, at its own threshold.
    fn ids_at(p: &MosParams, t: f64, vgs: f64, vds: f64, vsb: f64) -> f64 {
        let b = p.at_temp(t);
        ids(&b, vgs, vds, b.vth_eff(vds, vsb))
    }

    #[test]
    fn off_current_in_calibrated_range() {
        // OFF NMOS at full drain bias: the paper-scale hundreds of nA.
        let i = ids_at(&nmos(), 300.0, 0.0, 0.9, 0.0);
        assert!(i > 150.0 * NA && i < 600.0 * NA, "Ioff = {} nA", i / NA);
    }

    #[test]
    fn pmos_off_current_same_order() {
        let i = ids_at(&pmos(), 300.0, 0.0, 0.9, 0.0);
        assert!(i > 150.0 * NA && i < 900.0 * NA, "Ioff,p = {} nA", i / NA);
    }

    #[test]
    fn on_conductance_is_kilo_ohm_scale() {
        // Linear-region conductance of the ON device near vds = 0.
        let p = nmos();
        let dv = 1e-4;
        let g = (ids_at(&p, 300.0, 0.9, dv, 0.0) - ids_at(&p, 300.0, 0.9, 0.0, 0.0)) / dv;
        let r = 1.0 / g;
        assert!(r > 300.0 && r < 4000.0, "Ron = {r} ohm");
    }

    #[test]
    fn exponential_gate_voltage_dependence_in_weak_inversion() {
        // One swing (m*vt*ln10 ~ 100 mV) of vgs should move the current
        // ~10x while the device stays in deep weak inversion.
        let p = nmos();
        let vt = crate::consts::thermal_voltage(300.0);
        let swing = p.m * vt * std::f64::consts::LN_10;
        let i0 = ids_at(&p, 300.0, -swing, 0.9, 0.0);
        let i1 = ids_at(&p, 300.0, 0.0, 0.9, 0.0);
        let ratio = i1 / i0;
        assert!(ratio > 7.0 && ratio < 13.0, "decade ratio = {ratio}");
    }

    #[test]
    fn dibl_increases_off_current_with_drain_bias() {
        let p = nmos();
        let lo = ids_at(&p, 300.0, 0.0, 0.45, 0.0);
        let hi = ids_at(&p, 300.0, 0.0, 0.90, 0.0);
        // exp(eta * 0.45 / (m vt)) ~ 2.5-4x for eta ~ 0.1.
        assert!(hi / lo > 2.0 && hi / lo < 8.0, "DIBL ratio = {}", hi / lo);
    }

    #[test]
    fn off_current_grows_steeply_with_temperature() {
        let p = nmos();
        let i300 = ids_at(&p, 300.0, 0.0, 0.9, 0.0);
        let i400 = ids_at(&p, 400.0, 0.0, 0.9, 0.0);
        assert!(i400 / i300 > 4.0, "T ratio = {}", i400 / i300);
    }

    #[test]
    fn stack_source_bias_suppresses_current() {
        // Raising the source (stacking effect): vgs negative, vsb
        // positive, vds reduced => strong suppression.
        let p = nmos();
        let flat = ids_at(&p, 300.0, 0.0, 0.9, 0.0);
        let stacked = ids_at(&p, 300.0, -0.08, 0.82, 0.08);
        assert!(stacked < 0.25 * flat, "stack factor = {}", flat / stacked);
    }

    #[test]
    fn current_vanishes_at_zero_vds() {
        assert_eq!(ids_at(&nmos(), 300.0, 0.0, 0.0, 0.0), 0.0);
    }

    #[test]
    fn current_monotonic_in_vgs() {
        let p = nmos();
        let mut last = 0.0;
        for k in 0..=20 {
            let vgs = -0.2 + 0.06 * k as f64;
            let i = ids_at(&p, 300.0, vgs, 0.9, 0.0);
            assert!(i > last, "non-monotonic at vgs={vgs}");
            last = i;
        }
    }

    #[test]
    fn width_scales_current_linearly() {
        let mut p = nmos();
        let i1 = ids_at(&p, 300.0, 0.0, 0.9, 0.0);
        p.w *= 3.0;
        let i3 = ids_at(&p, 300.0, 0.0, 0.9, 0.0);
        assert!((i3 / i1 - 3.0).abs() < 1e-9);
    }
}
