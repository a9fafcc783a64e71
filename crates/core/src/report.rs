//! Leakage reports and estimator-vs-reference comparisons.

use nanoleak_device::LeakageBreakdown;
use serde::{Deserialize, Serialize};

/// Circuit-level leakage result: per-gate breakdowns plus the total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitLeakage {
    /// Breakdown per gate, indexed by `GateId.0`.
    pub per_gate: Vec<LeakageBreakdown>,
    /// Sum over gates.
    pub total: LeakageBreakdown,
}

impl CircuitLeakage {
    /// Builds a report from per-gate breakdowns.
    pub fn from_gates(per_gate: Vec<LeakageBreakdown>) -> Self {
        let total = per_gate.iter().fold(LeakageBreakdown::ZERO, |acc, b| acc + *b);
        Self { per_gate, total }
    }

    /// Leakage power at the given supply \[W\]: `Vdd * I_total`.
    pub fn power(&self, vdd: f64) -> f64 {
        vdd * self.total.total()
    }

    /// Relative change of the *total* leakage against `base`.
    pub fn total_relative_change(&self, base: &Self) -> f64 {
        total_relative(&self.total, &base.total)
    }
}

/// Relative change of `total`'s summed leakage against `base`'s
/// (0 when the base is below 1e-18 A).
fn total_relative(total: &LeakageBreakdown, base: &LeakageBreakdown) -> f64 {
    let b = base.total();
    if b.abs() <= 1e-18 {
        0.0
    } else {
        (total.total() - b) / b
    }
}

/// Accuracy of an estimate against the reference, over one pattern.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accuracy {
    /// Relative error of total leakage (signed).
    pub total_rel_err: f64,
    /// Mean absolute per-gate relative error (gates below 1 pA are
    /// skipped).
    pub mean_gate_rel_err: f64,
    /// Worst per-gate relative error magnitude.
    pub max_gate_rel_err: f64,
}

/// Compares an estimate to a reference solution.
///
/// # Panics
/// Panics if the gate counts differ.
pub fn accuracy(estimate: &CircuitLeakage, reference: &CircuitLeakage) -> Accuracy {
    assert_eq!(
        estimate.per_gate.len(),
        reference.per_gate.len(),
        "reports cover different circuits"
    );
    let total_rel_err = {
        let r = reference.total.total();
        (estimate.total.total() - r) / r
    };
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut worst: f64 = 0.0;
    for (e, r) in estimate.per_gate.iter().zip(&reference.per_gate) {
        let rt = r.total();
        if rt < 1e-12 {
            continue;
        }
        let rel = ((e.total() - rt) / rt).abs();
        sum += rel;
        count += 1;
        worst = worst.max(rel);
    }
    Accuracy {
        total_rel_err,
        mean_gate_rel_err: if count == 0 { 0.0 } else { sum / count as f64 },
        max_gate_rel_err: worst,
    }
}

/// Aggregates the paper's Fig. 12b/12c statistics over a batch of
/// patterns: the average and maximum per-component % change of leakage
/// caused by loading.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadingImpact {
    /// Mean over patterns of the per-component relative change.
    pub avg: LeakageBreakdown,
    /// Mean over patterns of the total-leakage relative change.
    pub avg_total: f64,
    /// Maximum-magnitude per-component relative change over patterns.
    pub max: LeakageBreakdown,
    /// Maximum-magnitude total relative change over patterns.
    pub max_total: f64,
}

impl LoadingImpact {
    /// Computes the impact statistics from per-pattern `(loaded,
    /// unloaded)` leakage totals; the per-component change is the
    /// paper's "% variation in leakage due to loading" of Fig. 12b/c.
    ///
    /// # Panics
    /// Panics on an empty batch.
    pub fn from_pairs(pairs: &[(LeakageBreakdown, LeakageBreakdown)]) -> Self {
        assert!(!pairs.is_empty(), "need at least one pattern");
        let n = pairs.len() as f64;
        let mut avg = LeakageBreakdown::ZERO;
        let mut avg_total = 0.0;
        let mut max = LeakageBreakdown::ZERO;
        let mut max_total: f64 = 0.0;
        let keep_larger = |acc: &mut f64, v: f64| {
            if v.abs() > acc.abs() {
                *acc = v;
            }
        };
        for (loaded, unloaded) in pairs {
            let rel = loaded.relative_to(unloaded, 1e-18);
            let rel_total = total_relative(loaded, unloaded);
            avg += rel;
            avg_total += rel_total;
            keep_larger(&mut max.sub, rel.sub);
            keep_larger(&mut max.gate, rel.gate);
            keep_larger(&mut max.btbt, rel.btbt);
            keep_larger(&mut max_total, rel_total);
        }
        Self { avg: avg.scaled(1.0 / n), avg_total: avg_total / n, max, max_total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(sub: f64, gate: f64, btbt: f64) -> LeakageBreakdown {
        LeakageBreakdown { sub, gate, btbt }
    }

    #[test]
    fn totals_accumulate() {
        let r = CircuitLeakage::from_gates(vec![bd(1.0, 2.0, 3.0), bd(4.0, 5.0, 6.0)]);
        assert_eq!(r.total, bd(5.0, 7.0, 9.0));
        assert!((r.power(0.9) - 0.9 * 21.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_metrics() {
        let est = CircuitLeakage::from_gates(vec![bd(1.1, 0.0, 0.0), bd(2.0, 0.0, 0.0)]);
        let reference = CircuitLeakage::from_gates(vec![bd(1.0, 0.0, 0.0), bd(2.0, 0.0, 0.0)]);
        let a = accuracy(&est, &reference);
        assert!((a.total_rel_err - 0.1 / 3.0).abs() < 1e-12);
        assert!((a.max_gate_rel_err - 0.1).abs() < 1e-12);
        assert!((a.mean_gate_rel_err - 0.05).abs() < 1e-12);
    }

    #[test]
    fn loading_impact_statistics() {
        let unloaded = bd(100.0, 50.0, 10.0);
        let loaded_a = bd(110.0, 49.0, 9.5);
        let loaded_b = bd(104.0, 50.0, 10.0);
        let impact = LoadingImpact::from_pairs(&[(loaded_a, unloaded), (loaded_b, unloaded)]);
        assert!((impact.avg.sub - 0.07).abs() < 1e-12);
        assert!((impact.max.sub - 0.10).abs() < 1e-12);
        assert!(impact.max.gate < 0.0, "gate change is negative");
        assert!(impact.avg_total > 0.0);
    }

    #[test]
    #[should_panic(expected = "different circuits")]
    fn mismatched_reports_panic() {
        let a = CircuitLeakage::from_gates(vec![bd(1.0, 0.0, 0.0)]);
        let b = CircuitLeakage::from_gates(vec![]);
        accuracy(&a, &b);
    }
}
