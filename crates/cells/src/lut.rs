//! The characterized loading-response tables.

use nanoleak_device::LeakageBreakdown;
use serde::{Deserialize, Serialize};

/// Per-component delta tables on one loading grid: loading magnitude
/// \[A\] to leakage *change* \[A\] for each mechanism, piecewise linear
/// with linear extrapolation beyond the sampled range.
///
/// The grid and the three delta columns are stored side by side, so a
/// lookup does one segment search for all three components.
///
/// ```
/// use nanoleak_cells::BreakdownLut;
/// use nanoleak_device::LeakageBreakdown;
/// let d = |sub| LeakageBreakdown { sub, gate: 0.0, btbt: 0.0 };
/// let lut = BreakdownLut::from_samples(&[0.0, 1.0, 2.0], &[d(0.0), d(10.0), d(15.0)]).unwrap();
/// assert_eq!(lut.eval(0.5).sub, 5.0);
/// assert_eq!(lut.eval(3.0).sub, 20.0); // extrapolated from the last segment
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownLut {
    /// Loading magnitudes, strictly increasing.
    xs: Vec<f64>,
    /// Subthreshold delta per knot.
    sub: Vec<f64>,
    /// Gate-tunneling delta per knot.
    gate: Vec<f64>,
    /// Junction BTBT delta per knot.
    btbt: Vec<f64>,
}

impl BreakdownLut {
    /// Builds the table from a loading grid and the breakdown deltas
    /// sampled on it.
    ///
    /// Returns `None` if fewer than two points are given, lengths
    /// differ, `xs` is not strictly increasing, or any value is not
    /// finite.
    pub fn from_samples(xs: &[f64], deltas: &[LeakageBreakdown]) -> Option<Self> {
        let column = |part: fn(&LeakageBreakdown) -> f64| deltas.iter().map(part).collect();
        Self::from_columns(xs.to_vec(), [column(|d| d.sub), column(|d| d.gate), column(|d| d.btbt)])
    }

    /// Builds the table from a loading grid and its `[sub, gate,
    /// btbt]` delta columns, under [`from_samples`](Self::from_samples)'s
    /// acceptance rules.
    pub(crate) fn from_columns(xs: Vec<f64>, [sub, gate, btbt]: [Vec<f64>; 3]) -> Option<Self> {
        let lut = Self { xs, sub, gate, btbt };
        lut.is_well_formed().then_some(lut)
    }

    /// Whether the table is one [`from_samples`](Self::from_samples)
    /// accepts: at least two knots, a strictly increasing grid, one
    /// value per knot in every column, and every value finite. Decoding
    /// bypasses the constructor, so a decoded table is checked with
    /// this before it is evaluated.
    pub(crate) fn is_well_formed(&self) -> bool {
        let n = self.xs.len();
        let [sub, gate, btbt] = self.columns();
        let sound = |c: &[f64]| c.len() == n && c.iter().all(|v| v.is_finite());
        n >= 2
            && self.xs.windows(2).all(|w| w[0] < w[1])
            && [&self.xs, sub, gate, btbt].into_iter().all(sound)
    }

    /// The loading grid \[A\].
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The sampled delta columns, `[sub, gate, btbt]`, one value per
    /// knot of [`xs`](Self::xs).
    pub fn columns(&self) -> [&[f64]; 3] {
        [&self.sub, &self.gate, &self.btbt]
    }

    /// Interpolated (or extrapolated) delta breakdown at loading
    /// magnitude `x` \[A\].
    ///
    /// A NaN `x` yields NaN components (it total-orders above every
    /// finite knot, so the last segment's extrapolation propagates the
    /// NaN) — never a panic.
    pub fn eval(&self, x: f64) -> LeakageBreakdown {
        let n = self.xs.len();
        // Segment selection: clamp to the end segments for
        // extrapolation. total_cmp keeps the search well-defined for
        // NaN inputs, where partial_cmp would panic.
        let seg = match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => {
                return LeakageBreakdown {
                    sub: self.sub[i],
                    gate: self.gate[i],
                    btbt: self.btbt[i],
                }
            }
            Err(0) => 0,
            Err(i) if i >= n => n - 2,
            Err(i) => i - 1,
        };
        // Lerp with the normalized offset factored out: one division
        // for all three columns, and the exact operation order the
        // compiled estimator (`nanoleak-core`'s plan) replicates for
        // bit-identity.
        let d = (x - self.xs[seg]) / (self.xs[seg + 1] - self.xs[seg]);
        let lerp = |ys: &[f64]| ys[seg] + d * (ys[seg + 1] - ys[seg]);
        LeakageBreakdown { sub: lerp(&self.sub), gate: lerp(&self.gate), btbt: lerp(&self.btbt) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table whose three columns are `ys`, `2 * ys` and `-ys`.
    fn lut(xs: &[f64], ys: &[f64]) -> Option<BreakdownLut> {
        let deltas: Vec<LeakageBreakdown> =
            ys.iter().map(|&y| LeakageBreakdown { sub: y, gate: 2.0 * y, btbt: -y }).collect();
        BreakdownLut::from_samples(xs, &deltas)
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(lut(&[0.0], &[1.0]).is_none());
        assert!(lut(&[0.0, 1.0], &[1.0]).is_none());
        assert!(lut(&[0.0, 0.0], &[1.0, 2.0]).is_none());
        assert!(lut(&[1.0, 0.0], &[1.0, 2.0]).is_none());
        assert!(lut(&[0.0, f64::NAN], &[1.0, 2.0]).is_none());
        assert!(lut(&[0.0, 1.0], &[1.0, f64::INFINITY]).is_none());
        assert!(lut(&[0.0, 1.0], &[1.0, 2.0]).is_some_and(|t| t.is_well_formed()));
    }

    #[test]
    fn exact_knots_are_returned() {
        let t = lut(&[0.0, 1.0, 4.0], &[1.0, 3.0, 9.0]).unwrap();
        assert_eq!(t.eval(0.0), LeakageBreakdown { sub: 1.0, gate: 2.0, btbt: -1.0 });
        assert_eq!(t.eval(1.0).sub, 3.0);
        assert_eq!(t.eval(4.0), LeakageBreakdown { sub: 9.0, gate: 18.0, btbt: -9.0 });
    }

    #[test]
    fn interpolation_is_linear_within_segments() {
        let t = lut(&[0.0, 2.0], &[0.0, 10.0]).unwrap();
        let mid = t.eval(0.6);
        assert!((mid.sub - 3.0).abs() < 1e-12);
        assert!((mid.gate - 6.0).abs() < 1e-12);
        assert!((mid.btbt + 3.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_uses_end_segments() {
        let t = lut(&[1.0, 2.0, 3.0], &[1.0, 2.0, 4.0]).unwrap();
        assert!((t.eval(0.0).sub - 0.0).abs() < 1e-12); // slope 1 below
        assert!((t.eval(4.0).sub - 6.0).abs() < 1e-12); // slope 2 above
        assert!((t.eval(4.0).gate - 12.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lut_round_trips_samples() {
        let xs = [0.0, 1e-6, 2e-6];
        let deltas = [
            LeakageBreakdown::ZERO,
            LeakageBreakdown { sub: 1e-9, gate: -2e-10, btbt: 0.0 },
            LeakageBreakdown { sub: 2e-9, gate: -3e-10, btbt: -1e-11 },
        ];
        let b = BreakdownLut::from_samples(&xs, &deltas).unwrap();
        let mid = b.eval(0.5e-6);
        assert!((mid.sub - 0.5e-9).abs() < 1e-18);
        assert!((mid.gate + 1e-10).abs() < 1e-18);
        let at = b.eval(2e-6);
        assert!((at.btbt + 1e-11).abs() < 1e-20);
        for (x, d) in xs.iter().zip(&deltas) {
            assert_eq!(b.eval(*x), *d, "knot {x:e}");
        }
    }

    #[test]
    fn breakdown_lut_rejects_mismatched_lengths() {
        assert!(BreakdownLut::from_samples(&[0.0], &[]).is_none());
        assert!(BreakdownLut::from_samples(&[0.0, 1.0], &[LeakageBreakdown::ZERO]).is_none());
        let short = [vec![1.0, 2.0], vec![1.0], vec![1.0, 2.0]];
        assert!(BreakdownLut::from_columns(vec![0.0, 1.0], short).is_none());
    }

    #[test]
    fn nan_input_propagates_instead_of_panicking() {
        let b = lut(&[0.0, 1.0, 2.0], &[0.0, 10.0, 15.0]).unwrap();
        let out = b.eval(f64::NAN);
        assert!(out.sub.is_nan() && out.gate.is_nan() && out.btbt.is_nan());
    }

    #[test]
    fn serialized_tables_round_trip_bit_for_bit() {
        let t = lut(&[0.0, 1e-6, 3e-6], &[-0.0, 1.0 / 3.0, f64::MIN_POSITIVE]).unwrap();
        let back: BreakdownLut = serde::from_bytes(&serde::to_bytes(&t)).unwrap();
        let bits = |t: &BreakdownLut| -> Vec<u64> {
            t.xs().iter().chain(t.columns().into_iter().flatten()).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&t));
        assert_eq!(back, t);
    }

    #[test]
    fn decoded_tables_are_checked_not_trusted() {
        // Decoding bypasses `from_samples`, so a tampered encoding
        // yields a table only `is_well_formed` rejects.
        let t = lut(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]).unwrap();
        let tamper = |field: &str, edit: &dyn Fn(&mut Vec<serde::Value>)| {
            let mut v = serde::value_from_bytes(&serde::to_bytes(&t)).unwrap();
            let serde::Value::Record(fields) = &mut v else {
                panic!("a table encodes as a record")
            };
            let (_, col) = fields.iter_mut().find(|(name, _)| name == field).unwrap();
            let serde::Value::Seq(items) = col else { panic!("a column encodes as a sequence") };
            edit(items);
            serde::from_bytes::<BreakdownLut>(&serde::value_to_bytes(&v)).unwrap()
        };
        let short = tamper("gate", &|items| {
            items.pop();
        });
        assert!(!short.is_well_formed(), "a short column must be rejected");
        let flat = tamper("xs", &|items| items[2] = serde::Value::F64(1.0));
        assert!(!flat.is_well_formed(), "a non-increasing grid must be rejected");
        let untouched = tamper("xs", &|_| {});
        assert!(untouched.is_well_formed());
    }
}
