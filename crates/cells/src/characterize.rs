//! Loading-response characterization of standard cells.
//!
//! For every (cell, input vector) this produces what the paper's fast
//! algorithm (Fig. 13) consumes: the nominal leakage components, the
//! signed gate-pin currents (the cell's own contribution to its nets'
//! loading), and per-pin/per-output lookup tables of the leakage
//! *change* as a function of loading-current magnitude. Multi-input
//! loading is combined additively per the paper's eq. (5).

use std::sync::OnceLock;

use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_obs::{global, Counter, Histogram};
use nanoleak_solver::SolverError;
use serde::{Deserialize, Serialize};

use crate::cell_type::CellType;
use crate::eval::{eval_loaded, CellSolution};
use crate::lut::{BreakdownLut, LoadingGrid};
use crate::vector::InputVector;

/// Process-wide characterization telemetry.
struct CellMetrics {
    cells: Counter,
    seconds: Histogram,
}

impl CellMetrics {
    fn record(&self, elapsed: std::time::Duration) {
        self.cells.inc();
        self.seconds.record_duration(elapsed);
    }
}

pub(crate) fn record_characterized(elapsed: std::time::Duration) {
    cell_metrics().record(elapsed);
}

fn cell_metrics() -> &'static CellMetrics {
    static METRICS: OnceLock<CellMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CellMetrics {
        cells: global().counter(
            "nanoleak_cells_characterized_total",
            "Cell types characterized (all vectors of one cell)",
        ),
        seconds: global().histogram(
            "nanoleak_cells_characterize_seconds",
            "Wall time to characterize one cell type",
        ),
    })
}

/// Options for the characterization sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizeOptions {
    /// Largest loading-current magnitude sampled \[A\]. The paper's
    /// single-gate sweeps reach 3 uA; high-fanout nets in the paper's
    /// benchmark circuits carry more, so the default grid extends to
    /// 7 uA before the tables extrapolate.
    pub max_loading: f64,
    /// Number of samples per axis (including zero).
    pub points: usize,
    /// Cell types to characterize.
    pub cells: Vec<CellType>,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self { max_loading: 7.0e-6, points: 11, cells: CellType::ALL.to_vec() }
    }
}

impl CharacterizeOptions {
    /// A coarse, fast option set for tests (4 points, given cells).
    pub fn coarse(cells: &[CellType]) -> Self {
        Self { max_loading: 3.5e-6, points: 4, cells: cells.to_vec() }
    }

    /// The loading grid every response table is sampled on: `points`
    /// knots (at least two) from zero to `max_loading`. Characterization
    /// rejects a grid whose knots do not strictly increase.
    pub fn grid(&self) -> LoadingGrid {
        let n = self.points.max(2);
        LoadingGrid::from_knots(
            (0..n).map(|i| self.max_loading * i as f64 / (n - 1) as f64).collect(),
        )
    }
}

/// Characterized loading response of one (cell, vector) state, the
/// entry's slot in its library; its tables are sampled on the
/// library's [grid](crate::CellLibrary::grid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorChar {
    /// Nominal leakage components (driver-held pins, zero loading) —
    /// the paper's `L_NOM`.
    pub nominal: LeakageBreakdown,
    /// Signed current each input pin draws from its net at nominal \[A\]
    /// (positive = pulls a logic-1 net down; negative = lifts a
    /// logic-0 net). Summed by the estimator into net loading currents.
    pub pin_currents: Vec<f64>,
    /// Per-input-pin delta tables vs. input-loading magnitude.
    pub input_resp: Vec<BreakdownLut>,
    /// Delta table vs. output-loading magnitude.
    pub output_resp: BreakdownLut,
}

impl VectorChar {
    /// Loading-aware leakage estimate: nominal plus the additive
    /// per-pin input deltas and the output delta (paper eq. 5), read
    /// off the tables on `grid` (the library's), clamped to
    /// non-negative components.
    ///
    /// # Panics
    /// Panics if `il_in.len()` differs from the pin count.
    pub fn leakage(&self, grid: &LoadingGrid, il_in: &[f64], il_out: f64) -> LeakageBreakdown {
        assert_eq!(il_in.len(), self.input_resp.len(), "loading arity");
        let mut b = self.nominal;
        for (lut, &il) in self.input_resp.iter().zip(il_in) {
            b += lut.eval(grid, il.abs());
        }
        b += self.output_resp.eval(grid, il_out.abs());
        b.clamped()
    }

    /// Whether this entry can fill a slot of a `pins`-input cell in a
    /// library whose grid has `knots` knots: one pin current and one
    /// input table per pin, only finite values, and every table
    /// [well formed](BreakdownLut::is_well_formed) on that grid.
    pub(crate) fn is_well_formed(&self, pins: usize, knots: usize) -> bool {
        let LeakageBreakdown { sub, gate, btbt } = self.nominal;
        self.pin_currents.len() == pins
            && self.input_resp.len() == pins
            && [sub, gate, btbt].iter().chain(&self.pin_currents).all(|v| v.is_finite())
            && self.input_resp.iter().chain([&self.output_resp]).all(|t| t.is_well_formed(knots))
    }

    /// The paper's overall loading effect `LD_ALL` (eq. 4) as a
    /// fraction: `(L(il_in, il_out) - L_NOM) / L_NOM` on total leakage.
    pub fn ld_all(&self, grid: &LoadingGrid, il_in: &[f64], il_out: f64) -> f64 {
        let nom = self.nominal.total();
        (self.leakage(grid, il_in, il_out).total() - nom) / nom
    }
}

/// Characterizes one (cell, vector) state: a nominal solve at zero
/// loading, then each input pin's loading sweep over
/// [`CharacterizeOptions::grid`], then the output sweep, each point a
/// direct [`eval_loaded`] solve whose leakage change from the nominal
/// becomes one table sample. The traced characterization behind the
/// Monte-Carlo fast mode runs this same sweep, so its nominal entries
/// are this function's, bit for bit.
///
/// # Errors
/// Propagates solver failures; malformed sweeps surface as
/// [`SolverError::BadProblem`].
pub fn characterize_vector(
    tech: &Technology,
    temp: f64,
    cell: CellType,
    vector: InputVector,
    opts: &CharacterizeOptions,
) -> Result<VectorChar, SolverError> {
    let entries = sweep_vector(cell, opts, |il_in, il_out| {
        Ok(vec![eval_loaded(tech, temp, cell, vector, il_in, il_out)?])
    })?;
    Ok(entries.into_iter().next().expect("one entry per solution"))
}

/// The one characterization sweep of a (cell, vector) state: the
/// nominal solve at zero loading, each input pin's sweep over the
/// grid, then the output sweep, in that order. `solve(il_in, il_out)`
/// solves one loading point and returns one solution per technology
/// it characterizes, in the same order at every point; the sweep
/// builds one [`VectorChar`] per solution, each table sample taken
/// against that solution's own nominal. Zero loading is the nominal
/// itself, so its sample is exactly zero and is not solved.
pub(crate) fn sweep_vector(
    cell: CellType,
    opts: &CharacterizeOptions,
    mut solve: impl FnMut(&[f64], f64) -> Result<Vec<CellSolution>, SolverError>,
) -> Result<Vec<VectorChar>, SolverError> {
    let grid = opts.grid();
    if !grid.is_well_formed() {
        return Err(SolverError::BadProblem("degenerate loading grid".into()));
    }
    let zeros = vec![0.0; cell.num_inputs()];
    let nominal = solve(&zeros, 0.0)?;
    // Delta tables of one axis, one per solution: input pin `Some(p)`
    // or the output (`None`).
    let mut tables = |pin: Option<usize>| -> Result<Vec<BreakdownLut>, SolverError> {
        let mut deltas = vec![Vec::new(); nominal.len()];
        for &x in grid.knots() {
            let loaded = if x == 0.0 {
                None
            } else {
                let mut il = zeros.clone();
                let il_out = match pin {
                    Some(p) => {
                        il[p] = x;
                        0.0
                    }
                    None => x,
                };
                Some(solve(&il, il_out)?)
            };
            for (k, d) in deltas.iter_mut().enumerate() {
                d.push(loaded.as_ref().map_or(LeakageBreakdown::ZERO, |sols| {
                    sols[k].breakdown - nominal[k].breakdown
                }));
            }
        }
        let axis = if pin.is_some() { "input" } else { "output" };
        deltas
            .iter()
            .map(|d| {
                BreakdownLut::from_samples(&grid, d)
                    .ok_or_else(|| SolverError::BadProblem(format!("degenerate {axis} sweep")))
            })
            .collect()
    };
    let mut input_resp = vec![Vec::new(); nominal.len()];
    for pin in 0..cell.num_inputs() {
        for (resp, lut) in input_resp.iter_mut().zip(tables(Some(pin))?) {
            resp.push(lut);
        }
    }
    let output_resp = tables(None)?;
    Ok(nominal
        .into_iter()
        .zip(input_resp)
        .zip(output_resp)
        .map(|((sol, input_resp), output_resp)| VectorChar {
            nominal: sol.breakdown,
            pin_currents: sol.input_pin_currents,
            input_resp,
            output_resp,
        })
        .collect())
}

/// Characterized responses for every vector of one cell type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellChar {
    /// One entry per input vector, indexed by [`InputVector::index`].
    vectors: Vec<VectorChar>,
}

impl CellChar {
    /// Characterizes all `2^k` vectors of `cell`.
    ///
    /// # Errors
    /// Propagates solver failures.
    pub fn characterize(
        tech: &Technology,
        temp: f64,
        cell: CellType,
        opts: &CharacterizeOptions,
    ) -> Result<Self, SolverError> {
        let _span = nanoleak_obs::span!("characterize", cell = cell);
        let started = std::time::Instant::now();
        let mut vectors = Vec::with_capacity(cell.num_vectors());
        for v in InputVector::all(cell.num_inputs()) {
            vectors.push(characterize_vector(tech, temp, cell, v, opts)?);
        }
        cell_metrics().record(started.elapsed());
        Ok(Self { vectors })
    }

    /// Assembles a characterization from per-vector entries already in
    /// [`InputVector::index`] order (the sensitivity path builds these
    /// itself, mixing delta-derived and fully re-solved vectors).
    pub(crate) fn from_vectors(vectors: Vec<VectorChar>) -> Self {
        Self { vectors }
    }

    /// The characterization for an input vector.
    ///
    /// # Panics
    /// Panics if the vector arity does not match the cell.
    pub fn vector(&self, v: InputVector) -> &VectorChar {
        assert_eq!(1 << v.len(), self.vectors.len(), "vector arity {}", v.len());
        &self.vectors[v.index()]
    }

    /// All characterized vectors, in index order.
    pub fn vectors(&self) -> &[VectorChar] {
        &self.vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanoleak_device::consts::NA;

    fn opts() -> CharacterizeOptions {
        CharacterizeOptions::coarse(&[CellType::Inv])
    }

    #[test]
    fn inverter_characterization_matches_direct_eval() {
        let tech = Technology::d25();
        let v = InputVector::parse("0").unwrap();
        let ch = characterize_vector(&tech, 300.0, CellType::Inv, v, &opts()).unwrap();
        let grid = opts().grid();
        // At a grid knot the LUT must reproduce the direct solve
        // exactly (input axis).
        let il = 3.5e-6 / 3.0; // second knot of the 4-point grid
        let direct = eval_loaded(&tech, 300.0, CellType::Inv, v, &[il], 0.0).unwrap();
        let lut = ch.leakage(&grid, &[il], 0.0);
        let rel = (lut.total() - direct.breakdown.total()).abs() / direct.breakdown.total();
        assert!(rel < 1e-9, "knot mismatch {rel}");
        // Between knots, interpolation stays within a fraction of a
        // percent of the direct solve.
        let il = 0.8e-6;
        let direct = eval_loaded(&tech, 300.0, CellType::Inv, v, &[il], 0.0).unwrap();
        let lut = ch.leakage(&grid, &[il], 0.0);
        let rel = (lut.total() - direct.breakdown.total()).abs() / direct.breakdown.total();
        assert!(rel < 5e-3, "interp error {rel}");
    }

    #[test]
    fn ld_all_zero_at_zero_loading() {
        let tech = Technology::d25();
        let v = InputVector::parse("0").unwrap();
        let ch = characterize_vector(&tech, 300.0, CellType::Inv, v, &opts()).unwrap();
        let grid = opts().grid();
        assert!(ch.ld_all(&grid, &[0.0], 0.0).abs() < 1e-12);
    }

    #[test]
    fn input_loading_effect_positive_for_low_input() {
        let tech = Technology::d25();
        let v = InputVector::parse("0").unwrap();
        let ch = characterize_vector(&tech, 300.0, CellType::Inv, v, &opts()).unwrap();
        let grid = opts().grid();
        let ld = ch.ld_all(&grid, &[3000.0 * NA], 0.0);
        assert!(ld > 0.01 && ld < 0.25, "LD_ALL = {}%", ld * 100.0);
    }

    #[test]
    fn output_loading_effect_negative() {
        let tech = Technology::d25();
        let v = InputVector::parse("0").unwrap();
        let ch = characterize_vector(&tech, 300.0, CellType::Inv, v, &opts()).unwrap();
        let grid = opts().grid();
        let ld = ch.ld_all(&grid, &[0.0], 3000.0 * NA);
        assert!(ld < 0.0 && ld > -0.10, "LD_ALL = {}%", ld * 100.0);
    }

    #[test]
    fn nan_loading_clamps_instead_of_panicking() {
        // A NaN loading magnitude (e.g. from upstream numerical junk)
        // must not panic the segment search; the NaN propagates through
        // the delta tables and the non-negative clamp turns each
        // poisoned component into 0.0.
        let tech = Technology::d25();
        let v = InputVector::parse("0").unwrap();
        let ch = characterize_vector(&tech, 300.0, CellType::Inv, v, &opts()).unwrap();
        let grid = opts().grid();
        let out = ch.leakage(&grid, &[f64::NAN], 0.0);
        assert_eq!((out.sub, out.gate, out.btbt), (0.0, 0.0, 0.0));
        let out = ch.leakage(&grid, &[0.0], f64::NAN);
        assert_eq!(out.total(), 0.0);
    }

    #[test]
    fn cell_char_indexes_all_vectors() {
        let tech = Technology::d25();
        let copts = CharacterizeOptions::coarse(&[CellType::Nand2]);
        let ch = CellChar::characterize(&tech, 300.0, CellType::Nand2, &copts).unwrap();
        assert_eq!(ch.vectors().len(), 4);
        for v in InputVector::all(2) {
            let direct = characterize_vector(&tech, 300.0, CellType::Nand2, v, &copts).unwrap();
            assert_eq!(*ch.vector(v), direct, "slot {v:?}");
        }
    }

    #[test]
    fn nand_additive_combination_close_to_joint_solve() {
        // Ablation for eq. (5): loading both NAND2 pins at once; the
        // additive model must stay within ~1% of the joint direct
        // solve on total leakage.
        let tech = Technology::d25();
        let v = InputVector::parse("01").unwrap();
        let copts = CharacterizeOptions::coarse(&[CellType::Nand2]);
        let ch = characterize_vector(&tech, 300.0, CellType::Nand2, v, &copts).unwrap();
        let grid = copts.grid();
        let il = [2000.0 * NA, 2000.0 * NA];
        let joint = eval_loaded(&tech, 300.0, CellType::Nand2, v, &il, 1000.0 * NA).unwrap();
        let additive = ch.leakage(&grid, &il, 1000.0 * NA);
        let rel = (additive.total() - joint.breakdown.total()).abs() / joint.breakdown.total();
        assert!(rel < 0.01, "additive vs joint = {}%", rel * 100.0);
    }
}
