//! Variation magnitudes and Gaussian perturbation sampling.

use nanoleak_device::consts::NM;
use nanoleak_device::Perturbation;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Standard deviations of the varying process parameters, split into
/// inter-die (shared by all devices of a sample) and intra-die
/// (independent per device) parts as in the paper's Section 5.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationSigmas {
    /// Channel length sigma \[m\] (intra-die).
    pub l: f64,
    /// Oxide thickness sigma \[m\] (intra-die).
    pub tox: f64,
    /// Supply voltage sigma \[V\] (inter-die).
    pub vdd: f64,
    /// Threshold-voltage sigma, inter-die component \[V\].
    pub vt_inter: f64,
    /// Threshold-voltage sigma, intra-die component \[V\].
    pub vt_intra: f64,
}

impl VariationSigmas {
    /// The paper's Fig. 10/11 nominal corner: sigma_L = 2 nm,
    /// sigma_Tox = 0.67 Angstrom, sigma_VDD = 33.3 mV,
    /// sigma_Vt = 30 mV inter and intra.
    ///
    /// (The paper's caption prints sigma_VDD = 333 mV, which would be
    /// 37% of VDD; we use a tenth of that — see EXPERIMENTS.md.)
    pub fn paper_nominal() -> Self {
        Self { l: 2.0 * NM, tox: 0.067 * NM, vdd: 33.3e-3, vt_inter: 30e-3, vt_intra: 30e-3 }
    }

    /// Checks the magnitudes are physical: every sigma finite and
    /// non-negative, voltage sigmas at most 1 V and geometry sigmas at
    /// most 100 nm — generous bounds that still reject the NaN /
    /// 1e308 garbage a request or flag could smuggle into the
    /// perturbation model (where it would poison every draw).
    ///
    /// # Errors
    /// A human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let volts = [("vt_inter", self.vt_inter), ("vt_intra", self.vt_intra), ("vdd", self.vdd)];
        for (name, v) in volts {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                return Err(format!("sigma {name} must be within 0..=1 V, got {v}"));
            }
        }
        for (name, v) in [("l", self.l), ("tox", self.tox)] {
            if !(v.is_finite() && (0.0..=100.0 * NM).contains(&v)) {
                return Err(format!("sigma {name} must be within 0..=100 nm, got {v}"));
            }
        }
        Ok(())
    }

    /// Returns a copy with a different inter-die Vt sigma (the Fig. 11
    /// sweep variable).
    #[must_use]
    pub fn with_vt_inter(mut self, sigma: f64) -> Self {
        self.vt_inter = sigma;
        self
    }

    /// Returns a copy with a different intra-die Vt sigma.
    #[must_use]
    pub fn with_vt_intra(mut self, sigma: f64) -> Self {
        self.vt_intra = sigma;
        self
    }

    /// Samples the inter-die (per-sample, shared) perturbation.
    pub fn sample_inter<R: Rng + ?Sized>(&self, rng: &mut R) -> Perturbation {
        Perturbation {
            dl: 0.0,
            dtox: 0.0,
            dvth: self.vt_inter * gaussian(rng),
            dvdd: self.vdd * gaussian(rng),
        }
    }

    /// Samples the intra-die (per-device) perturbation.
    pub fn sample_intra<R: Rng + ?Sized>(&self, rng: &mut R) -> Perturbation {
        Perturbation {
            dl: self.l * gaussian(rng),
            dtox: self.tox * gaussian(rng),
            dvth: self.vt_intra * gaussian(rng),
            dvdd: 0.0,
        }
    }
}

/// Standard normal variate via Box–Muller (the offline `rand` has no
/// normal distribution without `rand_distr`).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_core::Stats;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..20000).map(|_| gaussian(&mut rng)).collect();
        let s = Stats::sample(&xs);
        assert!(s.mean.abs() < 0.03, "mean = {}", s.mean);
        assert!((s.std - 1.0).abs() < 0.03, "std = {}", s.std);
    }

    #[test]
    fn inter_and_intra_touch_different_parameters() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = VariationSigmas::paper_nominal();
        let inter = s.sample_inter(&mut rng);
        assert_eq!(inter.dl, 0.0);
        assert_eq!(inter.dtox, 0.0);
        let intra = s.sample_intra(&mut rng);
        assert_eq!(intra.dvdd, 0.0);
        assert!(intra.dl.abs() > 0.0);
    }

    #[test]
    fn sampled_sigmas_scale() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = VariationSigmas::paper_nominal().with_vt_inter(50e-3);
        let xs: Vec<f64> = (0..5000).map(|_| s.sample_inter(&mut rng).dvth).collect();
        let st = Stats::sample(&xs);
        assert!((st.std - 50e-3).abs() < 3e-3, "std = {}", st.std);
    }

    #[test]
    fn validation_rejects_nonphysical_sigmas() {
        assert!(VariationSigmas::paper_nominal().validate().is_ok());
        let bad = VariationSigmas::paper_nominal().with_vt_inter(f64::NAN);
        assert!(bad.validate().unwrap_err().contains("vt_inter"));
        let bad = VariationSigmas::paper_nominal().with_vt_intra(-0.01);
        assert!(bad.validate().unwrap_err().contains("vt_intra"));
        let bad = VariationSigmas { l: 1e-3, ..VariationSigmas::paper_nominal() };
        assert!(bad.validate().unwrap_err().contains("100 nm"));
        let bad = VariationSigmas { vdd: 2.0, ..VariationSigmas::paper_nominal() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builders_change_only_their_field() {
        let base = VariationSigmas::paper_nominal();
        let a = base.with_vt_inter(0.05);
        assert_eq!(a.vt_intra, base.vt_intra);
        assert_eq!(a.vt_inter, 0.05);
        let b = base.with_vt_intra(0.09);
        assert_eq!(b.vt_inter, base.vt_inter);
        assert_eq!(b.vt_intra, 0.09);
    }
}
