//! # nanoleak-cells
//!
//! Transistor-level standard cells, loading-aware DC evaluation, and
//! leakage characterization — the cell layer of the *nanoleak*
//! reproduction of the DATE 2005 loading-effect paper.
//!
//! * [`CellType`] / [`topology`] — static-CMOS INV/NAND/NOR topologies
//!   with series-stack internal nodes (the stacking effect emerges from
//!   the solve, not from a formula);
//! * [`eval`] — the paper's Fig. 5 measurement fixture: every input
//!   held by a real transistor-level driver, loading currents injected
//!   with the physically correct sign for the node's logic level;
//! * [`characterize`] / [`CellLibrary`] — per-(cell, vector) nominal
//!   leakage, signed gate-pin currents, and loading-response lookup
//!   tables: exactly the `f(I_L-IN, I_L-OUT)` data the paper's Fig. 13
//!   algorithm consumes;
//! * [`sensitivity`] — delta-from-nominal characterization: traced
//!   Newton solves record per-axis log-sensitivities during the nominal
//!   characterization, so a Monte-Carlo die's library can be *derived*
//!   ([`delta_library`]) instead of re-solved, guarded by a per-entry
//!   linearization-error check;
//! * [`operating`] / [`OperatingPoint`] — first-class operating
//!   conditions (temperature, supply scale) that derive the scaled
//!   [`Technology`](nanoleak_device::Technology) and its characterized
//!   library through the shared request-key cache discipline — the one
//!   condition-derivation path the server's grid jobs, the figure
//!   bins, and the Monte-Carlo workloads all flow through.
//!
//! ## Example: the loading effect on an inverter
//!
//! ```
//! use nanoleak_cells::{eval_loaded, CellType, InputVector};
//! use nanoleak_device::Technology;
//!
//! let tech = Technology::d25();
//! let v = InputVector::parse("0").unwrap();
//! let nominal = eval_loaded(&tech, 300.0, CellType::Inv, v, &[0.0], 0.0)?;
//! let loaded = eval_loaded(&tech, 300.0, CellType::Inv, v, &[2e-6], 0.0)?;
//! // Input loading raises subthreshold leakage (paper Fig. 5a).
//! assert!(loaded.breakdown.sub > nominal.breakdown.sub);
//! # Ok::<(), nanoleak_solver::SolverError>(())
//! ```

pub mod cell_type;
pub mod characterize;
pub mod eval;
pub mod library;
pub mod lut;
pub mod operating;
pub mod sensitivity;
pub mod topology;
pub mod vector;

pub use cell_type::CellType;
pub use characterize::{CellChar, CharacterizeOptions, VectorChar};
pub use eval::{eval_isolated, eval_loaded, loading_injection, CellSolution};
pub use library::{fnv1a, CellLibrary};
pub use lut::{BreakdownLut, LoadingGrid, Locus};
pub use operating::OperatingPoint;
pub use sensitivity::{
    apply_deltas, characterize_with_sensitivity, delta_library, infer_deltas, DeltaReport,
    LibrarySens, DEFAULT_DELTA_TOL, PROBE_STEPS, SENS_AXES, SENS_MODEL_VERSION,
};
pub use topology::{add_cell, CellPins};
pub use vector::InputVector;

#[cfg(test)]
mod proptests {
    use super::*;
    use nanoleak_device::Technology;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any loading combination on any inverter/nand2 state solves
        /// and produces finite, non-negative leakage components.
        #[test]
        fn loaded_eval_always_well_formed(
            cell_pick in 0usize..2,
            vec_bits in 0u8..4,
            il0 in 0.0f64..3.0e-6,
            il1 in 0.0f64..3.0e-6,
            ilo in 0.0f64..3.0e-6,
        ) {
            let tech = Technology::d25();
            let cell = [CellType::Inv, CellType::Nand2][cell_pick];
            let k = cell.num_inputs();
            let v = InputVector::from_bits(vec_bits & ((1u8 << k) - 1), k);
            let il: Vec<f64> = [il0, il1][..k].to_vec();
            let sol = eval_loaded(&tech, 300.0, cell, v, &il, ilo).unwrap();
            prop_assert!(sol.breakdown.sub.is_finite() && sol.breakdown.sub >= 0.0);
            prop_assert!(sol.breakdown.gate.is_finite() && sol.breakdown.gate >= 0.0);
            prop_assert!(sol.breakdown.btbt.is_finite() && sol.breakdown.btbt >= 0.0);
            // Nodes stay near the rails (loading shifts are mV-scale).
            for &vi in &sol.input_voltages {
                prop_assert!(vi > -0.05 && vi < 0.95, "Vin = {vi}");
            }
        }

        /// Subthreshold leakage responds monotonically to input loading
        /// magnitude for the canonical '0'-input inverter.
        #[test]
        fn sub_monotone_in_input_loading(lo in 0.0f64..1.4e-6) {
            let tech = Technology::d25();
            let v = InputVector::parse("0").unwrap();
            let hi = lo + 0.8e-6;
            let a = eval_loaded(&tech, 300.0, CellType::Inv, v, &[lo], 0.0).unwrap();
            let b = eval_loaded(&tech, 300.0, CellType::Inv, v, &[hi], 0.0).unwrap();
            prop_assert!(b.breakdown.sub >= a.breakdown.sub * 0.999);
        }
    }
}
