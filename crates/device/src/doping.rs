//! Doping profile description.
//!
//! The paper's devices use "super halo" profiles (MIT well-tempered
//! device): a heavily doped halo around the source/drain extensions
//! suppresses short-channel effects but intensifies the junction field,
//! trading subthreshold leakage against junction band-to-band tunneling
//! (paper Fig. 4a). We capture that with three scalar concentrations.

use serde::{Deserialize, Serialize};

/// Doping concentrations of a halo-implanted bulk MOSFET \[m^-3\].
///
/// ```
/// use nanoleak_device::Doping;
/// let d = Doping::super_halo_25nm();
/// assert!(d.n_halo > d.n_sub);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Doping {
    /// Halo (pocket) peak concentration \[m^-3\]. Controls the
    /// drain/source junction field and hence BTBT, and tightens the
    /// channel depletion width (less SCE).
    pub n_halo: f64,
    /// Background substrate/well concentration \[m^-3\].
    pub n_sub: f64,
    /// Source/drain doping \[m^-3\] (degenerate), enters the built-in
    /// potential of the junction.
    pub n_sd: f64,
}

impl Doping {
    /// Creates a profile from the three concentrations \[m^-3\].
    ///
    /// # Panics
    /// Panics if any concentration is not strictly positive.
    pub fn new(n_halo: f64, n_sub: f64, n_sd: f64) -> Self {
        assert!(
            n_halo > 0.0 && n_sub > 0.0 && n_sd > 0.0,
            "doping concentrations must be positive"
        );
        Self { n_halo, n_sub, n_sd }
    }

    /// Super-halo profile of the 25 nm device:
    /// halo 1.2e19 cm^-3, substrate 4e18 cm^-3, S/D 1e20 cm^-3.
    pub fn super_halo_25nm() -> Self {
        Self::new(1.2e25, 4.0e24, 1.0e26)
    }

    /// Returns a copy with a different halo concentration \[m^-3\];
    /// used by the Fig. 4a halo sweep.
    #[must_use]
    pub fn with_halo(mut self, n_halo: f64) -> Self {
        assert!(n_halo > 0.0, "doping concentrations must be positive");
        self.n_halo = n_halo;
        self
    }

    /// Effective channel depletion doping \[m^-3\]: geometric mean of the
    /// halo and substrate concentrations. The halo occupies only part of
    /// the channel, so the threshold/body-effect doping sits between the
    /// two; the geometric mean is the standard lumped approximation.
    #[inline]
    pub fn n_channel_eff(&self) -> f64 {
        (self.n_halo * self.n_sub).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_doping_between_halo_and_substrate() {
        let d = Doping::super_halo_25nm();
        let eff = d.n_channel_eff();
        assert!(eff > d.n_sub && eff < d.n_halo);
    }

    #[test]
    fn with_halo_only_changes_halo() {
        let d = Doping::super_halo_25nm().with_halo(2.0e25);
        assert_eq!(d.n_halo, 2.0e25);
        assert_eq!(d.n_sub, Doping::super_halo_25nm().n_sub);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn negative_doping_rejected() {
        let _ = Doping::new(-1.0, 1.0, 1.0);
    }
}
