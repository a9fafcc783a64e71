//! First-class operating conditions.
//!
//! Every workload in the stack eventually asks the same question:
//! *analyze this circuit under which conditions?* Before this module,
//! each front-end answered it privately — the server's condition-grid
//! job scaled `Technology::vdd` inline, the temperature figure bins
//! converted Celsius by hand, and the Monte-Carlo fixtures carried a
//! bare `temp` field. [`OperatingPoint`] is the one shared answer: a
//! (temperature, supply-scale) pair that derives the scaled
//! [`Technology`] and, from it, the characterized [`CellLibrary`] —
//! always through [`CellLibrary::request_key`], so the process-wide
//! memo, the engine's RAM memo, and the `*.nlc` disk cache all agree
//! on request identity.
//!
//! The derivation is deliberately tiny (`vdd * vdd_scale`, bit-for-bit
//! the expression the server's grid job used to inline), because its
//! value is not the arithmetic: it is that a `temps × vdd_scales`
//! matrix, a CLI flag pair, and a Monte-Carlo nominal all name the
//! same cache entry when they mean the same physics.

use nanoleak_device::Technology;
use nanoleak_solver::SolverError;
use serde::{Deserialize, Serialize};

use crate::characterize::CharacterizeOptions;
use crate::library::CellLibrary;

/// One operating condition: the temperature the cells run at and the
/// factor applied to the technology's nominal supply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Temperature \[K\].
    pub temp: f64,
    /// Multiplier on the technology's nominal `vdd` (`1.0` = nominal).
    pub vdd_scale: f64,
}

impl Default for OperatingPoint {
    /// Room temperature at nominal supply — the conditions every
    /// single-point workload (CLI estimate/sweep/mlv defaults, the
    /// paper's Section 4 experiments) runs at.
    fn default() -> Self {
        Self { temp: 300.0, vdd_scale: 1.0 }
    }
}

impl OperatingPoint {
    /// An operating point at `temp` kelvin and `vdd_scale` times the
    /// nominal supply.
    pub fn new(temp: f64, vdd_scale: f64) -> Self {
        Self { temp, vdd_scale }
    }

    /// Nominal supply at `temp` kelvin.
    pub fn at_temp(temp: f64) -> Self {
        Self { temp, vdd_scale: 1.0 }
    }

    /// Nominal supply at `t_c` Celsius (the paper's figure axes are in
    /// Celsius; the solver works in kelvin).
    pub fn from_celsius(t_c: f64) -> Self {
        Self::at_temp(t_c + 273.15)
    }

    /// Checks the point is physical: finite positive kelvin and a
    /// finite positive supply scale.
    ///
    /// # Errors
    /// A human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.temp.is_finite() && self.temp > 0.0) {
            return Err(format!("temperature must be positive kelvin, got {}", self.temp));
        }
        if !(self.vdd_scale.is_finite() && self.vdd_scale > 0.0) {
            return Err(format!("vdd scale must be a positive factor, got {}", self.vdd_scale));
        }
        Ok(())
    }

    /// Derives the technology at this operating point: `base` with its
    /// supply scaled by [`OperatingPoint::vdd_scale`].
    ///
    /// The expression is exactly `vdd * vdd_scale` — the same floating
    /// multiply the server's grid job used to perform inline — so
    /// condition matrices produced through this path are bit-identical
    /// to the pre-refactor derivation (and `vdd_scale == 1.0` is an
    /// exact no-op on the supply).
    pub fn tech(&self, base: &Technology) -> Technology {
        let mut scaled = base.clone();
        scaled.vdd *= self.vdd_scale;
        scaled
    }

    /// The cache key of this point's characterization request: the
    /// derived technology and this temperature hashed through
    /// [`CellLibrary::request_key`] — the same key the engine's RAM
    /// memo and `*.nlc` disk cache use.
    pub fn request_key(&self, base: &Technology, opts: &CharacterizeOptions) -> u64 {
        CellLibrary::request_key(&self.tech(base), self.temp, opts)
    }

    /// Characterizes `base` at this operating point (no caching; the
    /// cached paths are [`CellLibrary::shared_with_options`] over
    /// [`OperatingPoint::tech`] and the engine's `MemoLibraryCache`).
    ///
    /// # Errors
    /// Propagates solver failures from the characterization sweeps.
    pub fn characterize(
        &self,
        base: &Technology,
        opts: &CharacterizeOptions,
    ) -> Result<CellLibrary, SolverError> {
        CellLibrary::characterize(&self.tech(base), self.temp, opts)
    }

    /// The row-major `temps × vdd_scales` condition matrix: the cell
    /// at flat index `i` is `(temps[i / vdd_scales.len()],
    /// vdd_scales[i % vdd_scales.len()])` — the iteration order of the
    /// server's grid job and of every sequential reference it is
    /// tested against.
    pub fn grid(temps: &[f64], vdd_scales: &[f64]) -> Vec<OperatingPoint> {
        let mut points = Vec::with_capacity(temps.len() * vdd_scales.len());
        for &temp in temps {
            for &vdd_scale in vdd_scales {
                points.push(Self { temp, vdd_scale });
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_type::CellType;

    #[test]
    fn default_is_room_temperature_nominal_supply() {
        let op = OperatingPoint::default();
        assert_eq!((op.temp, op.vdd_scale), (300.0, 1.0));
        let tech = Technology::d25();
        // Scaling by exactly 1.0 must not move a bit of the supply.
        assert_eq!(op.tech(&tech), tech);
    }

    #[test]
    fn tech_derivation_matches_the_legacy_inline_scaling() {
        // The pre-refactor grid job computed `tech.vdd *= scale`
        // inline; the shared derivation must be bit-identical so
        // refactored condition matrices cannot move.
        let base = Technology::d25();
        for scale in [0.8, 0.9, 1.0, 1.1] {
            let mut legacy = base.clone();
            legacy.vdd *= scale;
            let derived = OperatingPoint::new(300.0, scale).tech(&base);
            assert_eq!(derived, legacy, "scale = {scale}");
            assert_eq!(derived.vdd.to_bits(), legacy.vdd.to_bits(), "scale = {scale}");
        }
    }

    #[test]
    fn celsius_constructor_offsets_exactly() {
        let op = OperatingPoint::from_celsius(25.0);
        assert_eq!(op.temp, 25.0 + 273.15);
        assert_eq!(op.vdd_scale, 1.0);
    }

    #[test]
    fn validation_rejects_nonphysical_points() {
        assert!(OperatingPoint::default().validate().is_ok());
        assert!(OperatingPoint::new(-5.0, 1.0).validate().is_err());
        assert!(OperatingPoint::new(f64::NAN, 1.0).validate().is_err());
        assert!(OperatingPoint::new(300.0, 0.0).validate().is_err());
        assert!(OperatingPoint::new(300.0, f64::INFINITY).validate().is_err());
    }

    #[test]
    fn grid_is_row_major_over_temps_then_scales() {
        let g = OperatingPoint::grid(&[300.0, 350.0], &[0.9, 1.0, 1.1]);
        assert_eq!(g.len(), 6);
        // Flat index i maps to (temps[i / cols], scales[i % cols]).
        for (i, op) in g.iter().enumerate() {
            assert_eq!(op.temp, [300.0, 350.0][i / 3]);
            assert_eq!(op.vdd_scale, [0.9, 1.0, 1.1][i % 3]);
        }
    }

    #[test]
    fn request_keys_follow_the_shared_cache_discipline() {
        let base = Technology::d25();
        let opts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let nominal = OperatingPoint::default().request_key(&base, &opts);
        // Same point, same key (deterministic)...
        assert_eq!(nominal, OperatingPoint::default().request_key(&base, &opts));
        // ...and either axis moving changes it.
        assert_ne!(nominal, OperatingPoint::at_temp(310.0).request_key(&base, &opts));
        assert_ne!(nominal, OperatingPoint::new(300.0, 0.9).request_key(&base, &opts));
        // The key equals hashing the derived request directly — the
        // memo/disk layers cannot disagree with the operating point.
        let op = OperatingPoint::new(325.0, 0.95);
        assert_eq!(
            op.request_key(&base, &opts),
            CellLibrary::request_key(&op.tech(&base), 325.0, &opts)
        );
    }
}
