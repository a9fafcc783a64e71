//! Histograms for Monte-Carlo results (summary statistics are
//! [`nanoleak_core::Stats`], shared with sweeps).

use serde::{Deserialize, Serialize};

/// A fixed-width histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub lo: f64,
    /// Right edge of the last bin.
    pub hi: f64,
    /// Per-bin occurrence counts.
    pub counts: Vec<usize>,
    /// Samples below `lo` / above `hi`.
    pub outliers: usize,
}

impl Histogram {
    /// Builds a histogram of `xs` with `bins` equal bins over
    /// `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn of(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty histogram range");
        let mut counts = vec![0usize; bins];
        let mut outliers = 0usize;
        let w = (hi - lo) / bins as f64;
        for &x in xs {
            if x < lo || x >= hi {
                outliers += 1;
                continue;
            }
            let k = ((x - lo) / w) as usize;
            counts[k.min(bins - 1)] += 1;
        }
        Self { lo, hi, counts, outliers }
    }

    /// Centers of the bins.
    pub fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (0..self.counts.len()).map(|i| self.lo + w * (i as f64 + 0.5)).collect()
    }

    /// The most-occupied bin's center (mode estimate).
    pub fn mode_center(&self) -> f64 {
        let (i, _) =
            self.counts.iter().enumerate().max_by_key(|(_, &c)| c).expect("at least one bin");
        self.centers()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_outliers() {
        let h = Histogram::of(&[0.1, 0.2, 0.55, 0.9, -1.0, 2.0], 0.0, 1.0, 4);
        assert_eq!(h.counts, vec![2, 0, 1, 1]);
        assert_eq!(h.outliers, 2);
        assert_eq!(h.centers().len(), 4);
        assert!((h.mode_center() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn histogram_total_preserved() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let h = Histogram::of(&xs, 0.0, 1.0, 10);
        assert_eq!(h.counts.iter().sum::<usize>() + h.outliers, xs.len());
    }
}
