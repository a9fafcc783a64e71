//! Summary statistics over index-ordered scalar series.

use serde::{Deserialize, Serialize};

/// Summary of one scalar series (e.g. total leakage over a sweep's
/// input-pattern space, or over Monte-Carlo dies): moments, extremes,
/// and percentiles.
///
/// Built by a sequential pass over the series in the order given —
/// pattern- or sample-index order everywhere in the workspace — so the
/// result is bit-identical for any thread count. The constructor picks
/// the standard deviation's denominator: [`Stats::population`] divides
/// by `n` (a sweep summarizes exactly the patterns it evaluated),
/// [`Stats::sample`] by `n - 1` (Monte-Carlo dies estimate a process
/// distribution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation: population (`n`) or sample (`n - 1`)
    /// denominator, per constructor.
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (linear-interpolated).
    pub p50: f64,
    /// 90th percentile (linear-interpolated).
    pub p90: f64,
    /// 99th percentile (linear-interpolated).
    pub p99: f64,
}

impl Stats {
    /// Statistics of a whole population: standard deviation over `n`.
    ///
    /// # Panics
    /// Panics on an empty series or non-finite samples.
    pub fn population(xs: &[f64]) -> Self {
        Self::with_ddof(xs, 0)
    }

    /// Statistics of a random sample: standard deviation over `n - 1`
    /// (0 for a single sample).
    ///
    /// # Panics
    /// Panics on an empty series or non-finite samples.
    pub fn sample(xs: &[f64]) -> Self {
        Self::with_ddof(xs, 1)
    }

    /// The one reduction behind both constructors; `ddof` is the
    /// variance denominator's offset from `n`.
    fn with_ddof(xs: &[f64], ddof: usize) -> Self {
        assert!(!xs.is_empty(), "stats of an empty series");
        assert!(xs.iter().all(|x| x.is_finite()), "non-finite sample in series");
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > ddof {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - ddof) as f64
        } else {
            0.0
        };
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Self {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
        }
    }

    /// Coefficient of variation (`std / mean`); 0 for a zero mean.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std / self.mean
        }
    }
}

/// Linear-interpolated percentile of an already-sorted series.
///
/// Rank indexing audited for small N: `pos = q * (n - 1)` lies in
/// `[0, n - 1]` for any `q` in `[0, 1]`, so `lo = floor(pos)` and
/// `hi = ceil(pos)` are both in-bounds — N = 1 short-circuits, N = 2
/// interpolates between the only two samples, N = 3 hits the middle
/// sample exactly at q = 0.5 (`pos = 1.0`, `lo == hi`, `frac = 0`).
/// Empty series never reach here (the constructors reject them, and
/// the sweep merger skips empty shards).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    debug_assert!(hi < n, "rank {hi} out of bounds for {n} samples (q = {q})");
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_series() {
        let s = Stats::population(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.p50 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let s = Stats::population(&xs);
        assert!((s.p50 - 50.0).abs() < 1e-12);
        assert!((s.p90 - 90.0).abs() < 1e-12);
        assert!((s.p99 - 99.0).abs() < 1e-12);
    }

    #[test]
    fn order_invariance() {
        let a = Stats::population(&[3.0, 1.0, 2.0]);
        let b = Stats::population(&[1.0, 2.0, 3.0]);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.min, b.min);
        // Note: mean/std are summed in input order by design; the
        // engine always presents series in pattern-index order.
    }

    #[test]
    fn singleton_series() {
        let s = Stats::population(&[7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.p99, 7.5);
        assert_eq!(s.std, 0.0);
    }

    /// Regression pins for the small-N rank indexing (exact values,
    /// written as the same FP expressions the reduction computes).
    #[test]
    fn small_n_percentiles_are_pinned() {
        // N = 1: every percentile is the sample itself.
        let s = Stats::population(&[3.25]);
        assert_eq!((s.p50, s.p90, s.p99), (3.25, 3.25, 3.25));

        // N = 2: pos = q, interpolating between the two samples.
        let s = Stats::population(&[3.0, 1.0]);
        assert_eq!(s.p50, 1.0 + (3.0 - 1.0) * 0.5);
        assert_eq!(s.p90, 1.0 + (3.0 - 1.0) * 0.9);
        assert_eq!(s.p99, 1.0 + (3.0 - 1.0) * 0.99);

        // N = 3: pos = 2q; p50 lands exactly on the middle sample
        // (lo == hi == 1, frac 0 — no interpolation artifacts).
        let s = Stats::population(&[4.0, 1.0, 2.0]);
        assert_eq!(s.p50, 2.0);
        let frac90 = 0.90 * 2.0 - 1.0;
        assert_eq!(s.p90, 2.0 + (4.0 - 2.0) * frac90);
        let frac99 = 0.99 * 2.0 - 1.0;
        assert_eq!(s.p99, 2.0 + (4.0 - 2.0) * frac99);
    }

    /// Percentiles never index out of bounds at the q → 1 edge, and
    /// q = 1 degenerates to the max.
    #[test]
    fn rank_edges_stay_in_bounds() {
        for n in 1..=5 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let s = Stats::population(&xs);
            assert!(s.p99 <= s.max && s.p50 >= s.min, "n = {n}");
        }
    }

    #[test]
    fn cv_handles_zero_mean() {
        assert_eq!(Stats::population(&[0.0, 0.0]).cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_panics() {
        Stats::population(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rejected() {
        Stats::population(&[1.0, f64::NAN]);
    }

    #[test]
    fn stats_of_known_sample() {
        let s = Stats::sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - s.std / 5.0).abs() < 1e-15);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let s = Stats::sample(&[3.0]);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_sample_panics() {
        Stats::sample(&[]);
    }
}
