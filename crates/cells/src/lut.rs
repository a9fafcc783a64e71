//! The loading grid a library's response tables share, its one
//! segment locator, and the tables themselves. The reference
//! [`BreakdownLut::eval`] and the compiled estimator (`nanoleak-core`'s
//! plan) both read every table through [`LoadingGrid::locate`].

use std::cmp::Ordering;

use nanoleak_device::LeakageBreakdown;
use serde::{Deserialize, Serialize};

/// Where a loading magnitude falls on a [`LoadingGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Locus {
    /// Exactly on knot `i`: a table returns its stored sample.
    Knot(usize),
    /// On segment `i` (or extrapolated from it beyond the grid) at
    /// fraction `d = (x - x_i) / (x_{i+1} - x_i)`.
    Segment(usize, f64),
}

/// The loading-magnitude knots \[A\] every response table of a
/// library is sampled on
/// ([`CharacterizeOptions::grid`](crate::CharacterizeOptions::grid)).
#[derive(Debug, Clone)]
pub struct LoadingGrid {
    /// At least two knots.
    xs: Vec<f64>,
    /// `(n - 1) / xs[n - 1]` when the knots are uniform from zero,
    /// for the O(1) arithmetic segment index; NaN otherwise.
    inv_step: f64,
}

impl LoadingGrid {
    /// A grid over `xs`, well formed or not.
    ///
    /// # Panics
    /// If `xs` holds fewer than two knots.
    pub(crate) fn from_knots(xs: Vec<f64>) -> Self {
        let n = xs.len();
        assert!(n >= 2, "a loading grid needs two knots, got {n}");
        let step = xs[n - 1] / (n - 1) as f64;
        let uniform = xs[0] == 0.0
            && xs[n - 1] > 0.0
            && xs.iter().enumerate().all(|(i, &x)| (x - step * i as f64).abs() <= step * 1e-9);
        let inv_step = if uniform { (n - 1) as f64 / xs[n - 1] } else { f64::NAN };
        Self { xs, inv_step }
    }

    /// Finite, strictly increasing knots: every segment has a width.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.xs.iter().all(|x| x.is_finite()) && self.xs.windows(2).all(|w| w[0] < w[1])
    }

    /// The knots \[A\]; a table column holds one value per knot.
    pub fn knots(&self) -> &[f64] {
        &self.xs
    }

    /// The knot `x` \[A\] equals in total order, else the segment
    /// holding `x`, clamped to the end segments for extrapolation. A
    /// uniform-from-zero grid finds it by an arithmetic index plus a
    /// total-order fix-up, any other by binary search; both pick the
    /// same locus (pinned by this module's tests). A NaN `x` lands on
    /// the last segment with a NaN fraction, never a panic.
    #[inline]
    pub fn locate(&self, x: f64) -> Locus {
        let xs = &self.xs;
        let n = xs.len();
        let seg = if self.inv_step.is_nan() {
            match xs.binary_search_by(|v| v.total_cmp(&x)) {
                Ok(i) => return Locus::Knot(i),
                Err(i) => i.clamp(1, n - 1) - 1,
            }
        } else {
            // NaN and negative x cast to 0; oversized x saturates.
            let mut i = ((x * self.inv_step) as usize).min(n - 2);
            while i > 0 && xs[i].total_cmp(&x) == Ordering::Greater {
                i -= 1;
            }
            while i + 1 < n - 1 && xs[i + 1].total_cmp(&x) != Ordering::Greater {
                i += 1;
            }
            if xs[i].total_cmp(&x) == Ordering::Equal {
                return Locus::Knot(i);
            }
            if xs[i + 1].total_cmp(&x) == Ordering::Equal {
                return Locus::Knot(i + 1);
            }
            i
        };
        Locus::Segment(seg, (x - xs[seg]) / (xs[seg + 1] - xs[seg]))
    }
}

/// Per-component delta tables on a library's [`LoadingGrid`]: loading
/// magnitude \[A\] to leakage *change* \[A\] for each mechanism,
/// piecewise linear with linear extrapolation beyond the sampled
/// range. One [`LoadingGrid::locate`] serves all three columns.
///
/// ```
/// use nanoleak_cells::{BreakdownLut, CharacterizeOptions};
/// use nanoleak_device::LeakageBreakdown;
/// let d = |sub| LeakageBreakdown { sub, gate: 0.0, btbt: 0.0 };
/// let grid = CharacterizeOptions { max_loading: 2.0, points: 3, cells: vec![] }.grid();
/// let lut = BreakdownLut::from_samples(&grid, &[d(0.0), d(10.0), d(15.0)]).unwrap();
/// assert_eq!(lut.eval(&grid, 0.5).sub, 5.0);
/// assert_eq!(lut.eval(&grid, 3.0).sub, 20.0); // extrapolated from the last segment
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownLut {
    /// Subthreshold delta per knot.
    sub: Vec<f64>,
    /// Gate-tunneling delta per knot.
    gate: Vec<f64>,
    /// Junction BTBT delta per knot.
    btbt: Vec<f64>,
}

impl BreakdownLut {
    /// Builds the table from the breakdown deltas sampled on `grid`.
    ///
    /// Returns `None` unless there is one delta per knot and every
    /// value is finite.
    pub fn from_samples(grid: &LoadingGrid, deltas: &[LeakageBreakdown]) -> Option<Self> {
        let column = |part: fn(&LeakageBreakdown) -> f64| deltas.iter().map(part).collect();
        let lut = Self::from_columns([column(|d| d.sub), column(|d| d.gate), column(|d| d.btbt)]);
        lut.is_well_formed(grid.knots().len()).then_some(lut)
    }

    /// The table with these `[sub, gate, btbt]` columns, unchecked.
    pub(crate) fn from_columns([sub, gate, btbt]: [Vec<f64>; 3]) -> Self {
        Self { sub, gate, btbt }
    }

    /// Whether every column holds `knots` finite values, as
    /// [`from_samples`](Self::from_samples) ensures. Decoding bypasses
    /// it, so a decoded table is checked with this before use.
    pub(crate) fn is_well_formed(&self, knots: usize) -> bool {
        self.columns().into_iter().all(|c| c.len() == knots && c.iter().all(|v| v.is_finite()))
    }

    /// The sampled delta columns, `[sub, gate, btbt]`, one value per
    /// knot of the library's grid.
    pub fn columns(&self) -> [&[f64]; 3] {
        [&self.sub, &self.gate, &self.btbt]
    }

    /// Interpolated (or extrapolated) delta breakdown at loading
    /// magnitude `x` \[A\] on `grid`, the grid the table was sampled
    /// on. A NaN `x` yields NaN components — never a panic.
    pub fn eval(&self, grid: &LoadingGrid, x: f64) -> LeakageBreakdown {
        match grid.locate(x) {
            Locus::Knot(i) => {
                LeakageBreakdown { sub: self.sub[i], gate: self.gate[i], btbt: self.btbt[i] }
            }
            // The operation order the compiled estimator replays for
            // bit-identity.
            Locus::Segment(s, d) => {
                let lerp = |ys: &[f64]| ys[s] + d * (ys[s + 1] - ys[s]);
                LeakageBreakdown {
                    sub: lerp(&self.sub),
                    gate: lerp(&self.gate),
                    btbt: lerp(&self.btbt),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed grid over `xs`, if there is one.
    fn grid(xs: &[f64]) -> Option<LoadingGrid> {
        let grid = LoadingGrid::from_knots(xs.to_vec());
        grid.is_well_formed().then_some(grid)
    }

    /// A grid over `xs` and a table on it whose three columns are
    /// `ys`, `2 * ys` and `-ys`.
    fn lut(xs: &[f64], ys: &[f64]) -> Option<(LoadingGrid, BreakdownLut)> {
        let grid = grid(xs)?;
        let deltas: Vec<LeakageBreakdown> =
            ys.iter().map(|&y| LeakageBreakdown { sub: y, gate: 2.0 * y, btbt: -y }).collect();
        let table = BreakdownLut::from_samples(&grid, &deltas)?;
        Some((grid, table))
    }

    #[test]
    fn rejects_malformed_tables() {
        assert!(grid(&[0.0, 0.0]).is_none());
        assert!(grid(&[1.0, 0.0]).is_none());
        assert!(grid(&[0.0, f64::NAN]).is_none());
        assert!(grid(&[0.0, f64::INFINITY]).is_none());
        assert!(lut(&[0.0, 1.0], &[1.0, f64::INFINITY]).is_none());
        assert!(lut(&[0.0, 1.0], &[1.0, 2.0]).is_some_and(|(_, t)| t.is_well_formed(2)));
    }

    #[test]
    fn breakdown_lut_rejects_mismatched_lengths() {
        let g = grid(&[0.0, 1.0]).unwrap();
        assert!(BreakdownLut::from_samples(&g, &[]).is_none());
        assert!(BreakdownLut::from_samples(&g, &[LeakageBreakdown::ZERO]).is_none());
        assert!(BreakdownLut::from_samples(&g, &[LeakageBreakdown::ZERO; 3]).is_none());
        let short = BreakdownLut::from_columns([vec![1.0, 2.0], vec![1.0], vec![1.0, 2.0]]);
        assert!(!short.is_well_formed(2));
    }

    #[test]
    fn exact_knots_are_returned() {
        let (g, t) = lut(&[0.0, 1.0, 4.0], &[1.0, 3.0, 9.0]).unwrap();
        assert_eq!(t.eval(&g, 0.0), LeakageBreakdown { sub: 1.0, gate: 2.0, btbt: -1.0 });
        assert_eq!(t.eval(&g, 1.0).sub, 3.0);
        assert_eq!(t.eval(&g, 4.0), LeakageBreakdown { sub: 9.0, gate: 18.0, btbt: -9.0 });
    }

    #[test]
    fn interpolation_is_linear_within_segments() {
        let (g, t) = lut(&[0.0, 2.0], &[0.0, 10.0]).unwrap();
        let mid = t.eval(&g, 0.6);
        assert!((mid.sub - 3.0).abs() < 1e-12);
        assert!((mid.gate - 6.0).abs() < 1e-12);
        assert!((mid.btbt + 3.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_uses_end_segments() {
        let (g, t) = lut(&[1.0, 2.0, 3.0], &[1.0, 2.0, 4.0]).unwrap();
        assert!((t.eval(&g, 0.0).sub - 0.0).abs() < 1e-12); // slope 1 below
        assert!((t.eval(&g, 4.0).sub - 6.0).abs() < 1e-12); // slope 2 above
        assert!((t.eval(&g, 4.0).gate - 12.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lut_round_trips_samples() {
        let grid = grid(&[0.0, 1e-6, 2e-6]).unwrap();
        let deltas = [
            LeakageBreakdown::ZERO,
            LeakageBreakdown { sub: 1e-9, gate: -2e-10, btbt: 0.0 },
            LeakageBreakdown { sub: 2e-9, gate: -3e-10, btbt: -1e-11 },
        ];
        let b = BreakdownLut::from_samples(&grid, &deltas).unwrap();
        let mid = b.eval(&grid, 0.5e-6);
        assert!((mid.sub - 0.5e-9).abs() < 1e-18);
        assert!((mid.gate + 1e-10).abs() < 1e-18);
        let at = b.eval(&grid, 2e-6);
        assert!((at.btbt + 1e-11).abs() < 1e-20);
        for (x, d) in grid.knots().iter().zip(&deltas) {
            assert_eq!(b.eval(&grid, *x), *d, "knot {x:e}");
        }
    }

    #[test]
    fn nan_input_propagates_instead_of_panicking() {
        let (g, b) = lut(&[0.0, 1.0, 2.0], &[0.0, 10.0, 15.0]).unwrap();
        let out = b.eval(&g, f64::NAN);
        assert!(out.sub.is_nan() && out.gate.is_nan() && out.btbt.is_nan());
    }

    #[test]
    fn serialized_tables_round_trip_bit_for_bit() {
        let (_, t) = lut(&[0.0, 1e-6, 3e-6], &[-0.0, 1.0 / 3.0, f64::MIN_POSITIVE]).unwrap();
        let back: BreakdownLut = serde::from_bytes(&serde::to_bytes(&t)).unwrap();
        let bits = |t: &BreakdownLut| -> Vec<u64> {
            t.columns().into_iter().flatten().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&back), bits(&t));
        assert_eq!(back, t);
    }

    #[test]
    fn decoded_tables_are_checked_not_trusted() {
        // Decoding bypasses `from_samples`, so a tampered encoding
        // yields a table only `is_well_formed` rejects.
        let (_, t) = lut(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]).unwrap();
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
        assert!(!short.is_well_formed(3), "a short column must be rejected");
        let poisoned = tamper("btbt", &|items| items[1] = serde::Value::F64(f64::NAN));
        assert!(!poisoned.is_well_formed(3), "a non-finite value must be rejected");
        let untouched = tamper("sub", &|_| {});
        assert!(untouched.is_well_formed(3));
        assert!(!untouched.is_well_formed(4), "columns are checked against the grid's length");
    }

    #[test]
    fn uniform_segment_index_agrees_with_binary_search_everywhere() {
        // Drive `locate` through knots, midpoints, boundaries, below,
        // beyond, and NaN on the production and coarse grids, once on
        // the arithmetic index and once on the binary search over the
        // same knots.
        use crate::CharacterizeOptions;
        let key = |l: Locus| match l {
            Locus::Knot(i) => (0, i, 0),
            Locus::Segment(i, d) => (1, i, d.to_bits()),
        };
        for opts in [CharacterizeOptions::default(), CharacterizeOptions::coarse(&[])] {
            let uniform = opts.grid();
            assert!(!uniform.inv_step.is_nan(), "grid() layout must be detected uniform");
            let searched = LoadingGrid { inv_step: f64::NAN, ..uniform.clone() };
            let max = opts.max_loading;
            let mut probes = vec![-1.0, -1e-12, 0.0, 1e-9, max, max + 1e-7, 1e-3, f64::NAN];
            for w in uniform.knots().windows(2) {
                probes.push(w[0]);
                probes.push((w[0] + w[1]) / 2.0);
                probes.push(f64::midpoint(w[0], w[1]).next_up());
                probes.push(w[1].next_down());
            }
            for &x in &probes {
                assert_eq!(key(uniform.locate(x)), key(searched.locate(x)), "x = {x:e}");
            }
        }
    }

    #[test]
    fn irregular_grids_fall_back_to_binary_search() {
        let g = grid(&[0.0, 1.0, 10.0, 11.0]).unwrap();
        assert!(g.inv_step.is_nan(), "non-uniform grid must not take the arithmetic path");
        let g = grid(&[1.0, 2.0, 3.0]).unwrap();
        assert!(g.inv_step.is_nan(), "grids not anchored at zero are not uniform");
    }
}
