//! # nanoleak-device
//!
//! Compact leakage models for nano-scale bulk-CMOS transistors — the
//! device layer of the *nanoleak* reproduction of Mukhopadhyay, Bhunia
//! & Roy, *"Modeling and Analysis of Loading Effect in Leakage of
//! Nano-Scaled Bulk-CMOS Logic Circuits"*, DATE 2005.
//!
//! The crate models the paper's three leakage mechanisms as smooth,
//! KCL-ready voltage-controlled current sources (the paper's Fig. 3):
//!
//! * [`subthreshold`] — weak-inversion conduction with DIBL, body
//!   effect, temperature activation, and a realistic ON-state
//!   conductance (so drivers hold nodes with kΩ-scale stiffness);
//! * [`gate_tunneling`] — direct oxide tunneling, split into channel,
//!   overlap-edge, and bulk components with correct signs for every
//!   bias polarity (the *cause* of the loading effect);
//! * [`btbt`] — halo-junction band-to-band tunneling (Kane model) plus
//!   an ideal-diode clamp.
//!
//! A [`Transistor`] assembles the mechanisms for either polarity, and
//! [`MosParams::at_temp`] binds a device to one temperature
//! ([`BoundParams`]) for a solver that evaluates it many times;
//! [`DeviceDesign`] derives all electrical parameters from geometry and
//! doping so process perturbations propagate physically; [`Technology`]
//! bundles matched N/P pairs (the paper's `D25`, `D50`, and the
//! `D25-S`/`D25-G`/`D25-JN` flavors of Fig. 8).
//!
//! ## Quick example
//!
//! ```
//! use nanoleak_device::{Bias, Technology, Transistor};
//!
//! let tech = Technology::d25();
//! let nmos = Transistor::from_design(&tech.nmos);
//! // OFF NMOS of an inverter driving logic 1:
//! let (currents, parts) = nmos.leakage(Bias::new(0.0, tech.vdd, 0.0, 0.0), 300.0);
//! assert!(parts.sub > parts.gate && parts.gate > parts.btbt);
//! assert!(currents.kcl_residual().abs() < 1e-18);
//! ```

pub mod bias;
pub mod btbt;
pub mod consts;
pub mod design;
pub mod doping;
pub mod gate_tunneling;
pub mod geometry;
pub mod params;
pub mod perturb;
pub mod profiles;
pub mod subthreshold;
pub mod transistor;

pub use bias::{Bias, LeakageBreakdown, MosKind, TerminalCurrents};
pub use design::{DeviceDesign, FlavorScales, KindConstants};
pub use doping::Doping;
pub use geometry::Geometry;
pub use params::{BoundParams, MosParams};
pub use perturb::Perturbation;
pub use profiles::Technology;
pub use transistor::{Parts, Terminals, Transistor};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bias(vdd: f64) -> impl Strategy<Value = Bias> {
        let v = move || 0.0..=vdd;
        (v(), v(), v(), prop_oneof![Just(0.0), Just(0.9)])
            .prop_map(|(vg, vd, vs, vb)| Bias::new(vg, vd, vs, vb))
    }

    proptest! {
        /// Charge conservation holds at every bias for both polarities.
        #[test]
        fn kcl_residual_always_zero(bias in arb_bias(0.9), is_n in any::<bool>()) {
            let kind = if is_n { MosKind::Nmos } else { MosKind::Pmos };
            let t = Transistor::from_design(&DeviceDesign::nano25(kind));
            let tc = t.terminal_currents(bias, 300.0);
            prop_assert!(tc.kcl_residual().abs() < 1e-12);
        }

        /// Leakage magnitudes are finite and non-negative everywhere.
        #[test]
        fn breakdown_finite_nonnegative(bias in arb_bias(0.9), temp in 250.0f64..420.0) {
            let t = Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos));
            let (_, bd) = t.leakage(bias, temp);
            prop_assert!(bd.sub.is_finite() && bd.sub >= 0.0);
            prop_assert!(bd.gate.is_finite() && bd.gate >= 0.0);
            prop_assert!(bd.btbt.is_finite() && bd.btbt >= 0.0);
        }

        /// Terminal currents are continuous: small voltage steps cause
        /// proportionally small current steps (no jumps for Newton).
        #[test]
        fn currents_locally_continuous(bias in arb_bias(0.9)) {
            let t = Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos));
            let a = t.terminal_currents(bias, 300.0);
            let mut bias2 = bias;
            bias2.vd += 1e-7;
            let b = t.terminal_currents(bias2, 300.0);
            // Bounded by a generous global conductance of 1 S.
            prop_assert!((a.d - b.d).abs() < 1e-7);
        }

        /// OFF-device subthreshold leakage increases monotonically with
        /// gate voltage over the OFF range.
        #[test]
        fn sub_monotone_in_vgs(vg in 0.0f64..0.12) {
            let t = Transistor::from_design(&DeviceDesign::nano25(MosKind::Nmos));
            let (_, lo) = t.leakage(Bias::new(vg, 0.9, 0.0, 0.0), 300.0);
            let (_, hi) = t.leakage(Bias::new(vg + 0.01, 0.9, 0.0, 0.0), 300.0);
            prop_assert!(hi.sub >= lo.sub);
        }
    }
}
