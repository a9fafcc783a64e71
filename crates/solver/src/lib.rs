//! # nanoleak-solver
//!
//! DC operating-point solver for transistor-level leakage networks —
//! the "virtual SPICE" of the *nanoleak* reproduction of the DATE 2005
//! loading-effect paper.
//!
//! The paper validates its fast estimation algorithm against HSPICE.
//! Here, that golden role is played by a nonlinear DC solve over the
//! same compact models in [`nanoleak_device`]:
//!
//! * [`linear`] — dense LU with partial pivoting (no external
//!   linear-algebra crate is available in the offline set);
//! * [`newton`] — damped Newton–Raphson with a forward-difference
//!   Jacobian, SPICE-style voltage limiting, and a backtracking line
//!   search;
//! * [`netlist`] / [`dc`] — transistor netlists and the operating-point
//!   solve returning per-device leakage breakdowns. Every
//!   transistor-level solve runs through its one body ([`solve_dc`],
//!   or [`solve_dc_traced`] when sensitivities are traced): cell
//!   characterization, Monte-Carlo dies, and the driver stack solves of
//!   `nanoleak-core`'s reference simulator, which pins a cell's inputs
//!   and output with [`MosNetlist::fix`] and lets only its stack nodes
//!   float.
//!
//! ## Example: leakage of an inverter
//!
//! ```
//! use nanoleak_device::{Technology, Transistor};
//! use nanoleak_solver::{solve_dc, MosNetlist, NewtonOptions};
//!
//! let tech = Technology::d25();
//! let mut nl = MosNetlist::new();
//! let vdd = nl.add_fixed_node("vdd", tech.vdd);
//! let gnd = nl.add_fixed_node("gnd", 0.0);
//! let vin = nl.add_fixed_node("in", 0.0);
//! let out = nl.add_node("out");
//! nl.add_mos(Transistor::from_design(&tech.nmos), out, vin, gnd, gnd);
//! nl.add_mos(Transistor::from_design(&tech.pmos), out, vin, vdd, vdd);
//!
//! let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default())?;
//! assert!(sol.node_voltage(out) > 0.88); // logic 1, minus leakage droop
//! assert!(sol.total_breakdown().total() > 0.0);
//! # Ok::<(), nanoleak_solver::SolverError>(())
//! ```

pub mod dc;
pub mod error;
pub mod linear;
pub mod netlist;
pub mod newton;

pub use dc::{dc_residual_at, solve_dc, solve_dc_traced, DcSolution, DcTrace};
pub use error::SolverError;
pub use netlist::{Device, MosNetlist, NodeId};
pub use newton::{FactoredJacobian, NewtonOptions, NewtonStats};

#[cfg(test)]
mod proptests {
    use super::*;
    use nanoleak_device::{Technology, Transistor};
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The solved operating point satisfies KCL for any input level
        /// and any loading injection in the paper's sweep range.
        #[test]
        fn solved_points_satisfy_kcl(
            vin in 0.0f64..=0.9,
            inj_na in -3000.0f64..=3000.0,
        ) {
            let (mut nl, out) = inverter(vin);
            nl.set_injection(out, inj_na * 1e-9);
            let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
            prop_assert!(sol.kcl_residual(&nl) < 1e-13);
        }

        /// Output voltage is a monotone decreasing function of input
        /// voltage for the inverter (DC transfer curve sanity).
        #[test]
        fn inverter_transfer_monotone(vin in 0.0f64..=0.88) {
            let (nl_a, out_a) = inverter(vin);
            let (nl_b, out_b) = inverter(vin + 0.02);
            let va = solve_dc(&nl_a, 300.0, None, &NewtonOptions::default())
                .unwrap().node_voltage(out_a);
            let vb = solve_dc(&nl_b, 300.0, None, &NewtonOptions::default())
                .unwrap().node_voltage(out_b);
            prop_assert!(vb <= va + 1e-6, "V({}) = {va}, V({}) = {vb}", vin, vin + 0.02);
        }

        /// Voltages stay within a whisker of the rails under any
        /// realistic loading.
        #[test]
        fn node_voltages_stay_physical(
            vin in prop_oneof![Just(0.0), Just(0.9)],
            inj_na in -3000.0f64..=3000.0,
        ) {
            let (mut nl, out) = inverter(vin);
            nl.set_injection(out, inj_na * 1e-9);
            let sol = solve_dc(&nl, 300.0, None, &NewtonOptions::default()).unwrap();
            let v = sol.node_voltage(out);
            prop_assert!(v > -0.1 && v < 1.0, "Vout = {v}");
        }
    }
}
