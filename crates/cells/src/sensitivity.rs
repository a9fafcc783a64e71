//! First-order sensitivity characterization and delta-derived libraries.
//!
//! The Monte-Carlo workload perturbs only four technology scalars per
//! die — channel length, oxide thickness, threshold voltage and supply
//! — yet the baseline re-runs the full Newton characterization for
//! every sample. [`characterize_with_sensitivity`] instead runs the
//! *nominal* characterization once with traced solves and, for each
//! variation axis, predicts the perturbed operating point from the
//! factored Jacobian at the solution: with `f(x*, p0) = 0`, a probe
//! step `h` on axis `a` gives `dx ≈ -J⁻¹ · f(x*, p0 + h·e_a)`.
//!
//! The prediction seeds an exact (warm-started, ~2 Newton steps) probe
//! solve, and every stored library value is reduced to a polynomial
//! model of its *logarithm*: each axis is probed at `±h` and `±2h`
//! (`h` ≈ 1σ of the variation model) and fitted with the five-point
//! quartic stencil, which *interpolates* the probes exactly; each axis
//! pair gets a `(+2h,+2h)`/`(-2h,-2h)` corner pair from which a secant
//! cross coefficient `c_ab` is fitted after subtracting the single-axis
//! parts. Leakage is exponential in the threshold shift (a 1σ Vt draw
//! moves subthreshold current severalfold) and its log-slope itself
//! moves with channel length (DIBL and swing), so the log-space form,
//! the high-order single-axis terms, and the cross terms all matter: a
//! die library is derived as
//! `v = v0 · exp(Σ_a P_a(δ_a) + Σ_{a<b} δ_a·δ_b·c_ab)` with `P_a` the
//! per-axis quartic. Values of zero stay zero and sign flips between
//! nominal and probe disable the offending term, so signs are always
//! preserved.
//!
//! [`delta_library`] derives a per-die library from those
//! sensitivities. Each `(cell, vector)` entry is guarded by a
//! linearization-error check: the odd part of what the model misses at
//! the measured corner probes (the cubic-order cross error `μ_k`, the
//! dominant residual term) is extrapolated to the die's draw, and an
//! entry whose estimate exceeds the tolerance falls back to a full
//! Newton characterization of that vector.

use std::collections::BTreeMap;

use nanoleak_device::{LeakageBreakdown, Perturbation, Technology};
use nanoleak_solver::{dc_residual_at, SolverError};

use crate::cell_type::CellType;
use crate::characterize::{
    characterize_vector, record_characterized, CellChar, CharacterizeOptions, VectorChar,
};
use crate::eval::{eval_loaded_traced, loaded_fixture, solve_fixture, CellSolution};
use crate::library::CellLibrary;
use crate::lut::{BreakdownLut, Lut1};
use crate::vector::InputVector;

/// Number of sensitivity axes: Δl, Δtox, ΔVt, ΔVdd — exactly the four
/// fields of a die [`Perturbation`].
pub const SENS_AXES: usize = 4;

/// Single-axis probe step per axis, in physical units
/// (\[m\], \[m\], \[V\], \[V\]). Each axis is probed at `±h` and `±2h`,
/// giving a five-point stencil whose quartic log fit *interpolates*
/// the probes exactly. The steps are roughly one sigma of the default
/// variation model, so `±2h` brackets the draws real dies land on and
/// typical derivations interpolate rather than extrapolate.
pub const PROBE_STEPS: [f64; SENS_AXES] = [2.0e-9, 6.7e-11, 4.2e-2, 3.3e-2];

/// Corner-probe deltas per axis for the pairwise cross terms: `2h`,
/// matching the outermost single-axis probes, so the secant-fitted
/// cross coefficients and the measured corner misfits are
/// representative at ~2σ — the scale that decides whether a die can be
/// delta-derived.
pub const CORNER_STEPS: [f64; SENS_AXES] =
    [2.0 * PROBE_STEPS[0], 2.0 * PROBE_STEPS[1], 2.0 * PROBE_STEPS[2], 2.0 * PROBE_STEPS[3]];

/// Axis pairs carrying a cross-curvature term, in storage order.
pub const SENS_PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

/// Default linearization tolerance, as an estimated *relative* error
/// at the entry's dominant current scale: an entry is delta-derived
/// only while its estimated model error
/// (`VectorSens::error_estimate`, the measured corner-probe log
/// misfits extrapolated to the draw and weighted by each value's
/// relative magnitude) stays below this bound. The estimate is
/// deliberately conservative; calibration against bit-exact
/// re-characterization puts typical accepted-entry deviations well
/// under 2% (and the Monte-Carlo deviation probe reports the realized
/// error on every fast run).
pub const DEFAULT_DELTA_TOL: f64 = 0.15;

/// `nominal` with the axis deltas applied exactly the way the MC
/// sampler applies a die draw: geometry/threshold deltas on both device
/// flavors, the supply delta on the circuit.
pub fn apply_deltas(nominal: &Technology, deltas: &[f64; SENS_AXES]) -> Technology {
    let p = Perturbation { dl: deltas[0], dtox: deltas[1], dvth: deltas[2], dvdd: deltas[3] };
    let mut tech = nominal.clone();
    tech.nmos = p.apply(&tech.nmos);
    tech.pmos = p.apply(&tech.pmos);
    tech.vdd += deltas[3];
    tech
}

/// Recovers the axis deltas that turn `nominal` into `die`, or `None`
/// when `die` is not expressible as a die draw on `nominal` (different
/// technology family, per-flavor asymmetry, a clamped geometry, any
/// field outside the four axes). The candidate deltas are read off the
/// NMOS design and the supply, then *verified* by reapplying them:
/// only an exact reconstruction qualifies, so a false positive is
/// impossible — at worst a representable die fails the round trip and
/// takes the full-characterization path.
pub fn infer_deltas(nominal: &Technology, die: &Technology) -> Option<[f64; SENS_AXES]> {
    let deltas = [
        die.nmos.geometry.l - nominal.nmos.geometry.l,
        die.nmos.geometry.tox - nominal.nmos.geometry.tox,
        die.nmos.flavor.vth_shift - nominal.nmos.flavor.vth_shift,
        die.vdd - nominal.vdd,
    ];
    if deltas.iter().any(|d| !d.is_finite()) {
        return None;
    }
    (apply_deltas(nominal, &deltas) == *die).then_some(deltas)
}

/// Sensitivity record for one `(cell, vector)` entry.
#[derive(Debug, Clone)]
pub struct VectorSens {
    /// Per-axis log-space slopes for every flattened value of the
    /// entry's [`VectorChar`], in [`flatten_values`] order.
    sens: Vec<[f64; SENS_AXES]>,
    /// Per-axis log-space curvatures, same layout.
    curv: Vec<[f64; SENS_AXES]>,
    /// Per-axis third log-derivatives (zero when the wide probes were
    /// unusable for the value), same layout.
    cub: Vec<[f64; SENS_AXES]>,
    /// Per-axis fourth log-derivatives, same layout.
    qrt: Vec<[f64; SENS_AXES]>,
    /// Pairwise log-space cross curvatures, [`SENS_PAIRS`] order.
    cross: Vec<[f64; 6]>,
    /// Odd corner-probe misfit per pair: the part of the measured
    /// corner shift the single-axis + quadratic-cross model misses and
    /// that flips sign with the corner — cubic-order cross error at the
    /// 2σ corner scale, in log units.
    mu: Vec<[f64; 6]>,
    /// Relative magnitude of each value at the nominal,
    /// `|v_i| / max_j |v_j|`. A log-space misfit on a value only
    /// matters in proportion to the value's share of the entry's
    /// currents: near-zero response-LUT deltas routinely carry huge
    /// log misfits while moving the evaluated leakage by nothing, and
    /// an unweighted gate would clamp most of the fast path's win
    /// away on them.
    weight: Vec<f64>,
}

impl VectorSens {
    /// The delta-derived entry for a die: every value scaled by the
    /// log-space model — per-axis quartic plus pairwise cross terms.
    fn apply(&self, template: &VectorChar, deltas: &[f64; SENS_AXES]) -> VectorChar {
        let v0 = flatten_values(template);
        debug_assert_eq!(v0.len(), self.sens.len());
        let vals: Vec<f64> =
            v0.iter().enumerate().map(|(i, v)| v * self.exponent(i, deltas).exp()).collect();
        rebuild_from_values(template, &vals)
    }

    /// Estimated relative model error at a die draw, extrapolated
    /// from the *measured* corner-probe misfits: the odd (cubic-order)
    /// log misfit `μ_k` grows like `r_a·r_b·max(r_a,r_b)`, where
    /// `r_a = δ_a/h_a` is the draw in corner-step units, and each
    /// value's extrapolated misfit is weighted by the value's relative
    /// magnitude `|v_i| / max_j |v_j|` — a small log error ε on a
    /// value v shifts the entry's currents by ≈ `|v|·ε`, so the
    /// weighted worst is an estimated *relative* error at the entry's
    /// dominant current scale, directly comparable to a relative
    /// tolerance like [`DEFAULT_DELTA_TOL`]. Single-axis error is
    /// excluded by construction (the quartic fit interpolates the
    /// single-axis probes exactly), matching the observation that
    /// cross terms dominate what the model misses. Monotone in the
    /// draw magnitude and costs no solver work.
    fn error_estimate(&self, deltas: &[f64; SENS_AXES]) -> f64 {
        let r: Vec<f64> = (0..SENS_AXES).map(|a| (deltas[a] / CORNER_STEPS[a]).abs()).collect();
        let mut worst = 0.0_f64;
        for i in 0..self.mu.len() {
            let mut est = 0.0;
            for (k, &(a, b)) in SENS_PAIRS.iter().enumerate() {
                est += self.mu[i][k].abs() * r[a] * r[b] * r[a].max(r[b]);
            }
            worst = worst.max(self.weight[i] * est);
        }
        worst
    }

    /// The model exponent for one flattened value at arbitrary deltas
    /// (the same sum [`VectorSens::apply`] exponentiates).
    fn exponent(&self, i: usize, deltas: &[f64; SENS_AXES]) -> f64 {
        let (s, c, t, q, x) =
            (&self.sens[i], &self.curv[i], &self.cub[i], &self.qrt[i], &self.cross[i]);
        let mut e = 0.0;
        for a in 0..SENS_AXES {
            let d = deltas[a];
            let d2 = d * d;
            e += d * s[a] + 0.5 * d2 * c[a] + d2 * d * t[a] / 6.0 + d2 * d2 * q[a] / 24.0;
        }
        for (k, &(a, b)) in SENS_PAIRS.iter().enumerate() {
            e += deltas[a] * deltas[b] * x[k];
        }
        e
    }
}

/// Sensitivities for every vector of one cell, in index order.
#[derive(Debug, Clone)]
pub struct CellSens {
    vectors: Vec<VectorSens>,
}

/// Sensitivities for a whole library, keyed like the library itself.
/// Held in RAM next to the nominal [`CellLibrary`]; never serialized.
#[derive(Debug, Clone)]
pub struct LibrarySens {
    cells: BTreeMap<CellType, CellSens>,
}

/// Outcome of one [`delta_library`] derivation.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaReport {
    /// `(cell, vector)` entries processed.
    pub entries: usize,
    /// Entries that breached the tolerance and were fully re-solved.
    pub fallbacks: usize,
    /// Largest estimated relative model error among all entries
    /// (delta-derived or not) — the signal the fallback gate compares
    /// against `tol`.
    pub max_est: f64,
}

/// Characterizes like [`CellLibrary::characterize`] — the returned
/// library is bit-identical to it — while also extracting per-axis
/// sensitivities from the traced solves. Costs roughly one extra
/// Jacobian factorization plus `4` residual probes per Newton solve; no
/// additional solves.
///
/// # Errors
/// Propagates solver failures, including a singular Jacobian at any
/// solution point.
pub fn characterize_with_sensitivity(
    tech: &Technology,
    temp: f64,
    opts: &CharacterizeOptions,
) -> Result<(CellLibrary, LibrarySens), SolverError> {
    let mut cells = BTreeMap::new();
    let mut sens = BTreeMap::new();
    for &cell in &opts.cells {
        let _span = nanoleak_obs::span!("characterize", cell = cell);
        let started = std::time::Instant::now();
        let mut vectors = Vec::with_capacity(cell.num_vectors());
        let mut svectors = Vec::with_capacity(cell.num_vectors());
        for v in InputVector::all(cell.num_inputs()) {
            let (vc, vs) = characterize_vector_traced(tech, temp, cell, v, opts)?;
            vectors.push(vc);
            svectors.push(vs);
        }
        record_characterized(started.elapsed());
        cells.insert(cell, CellChar::from_vectors(cell, vectors));
        sens.insert(cell, CellSens { vectors: svectors });
    }
    let lib = CellLibrary::from_parts(tech.clone(), temp, opts.clone(), cells);
    Ok((lib, LibrarySens { cells: sens }))
}

/// Derives the library of the die `apply_deltas(nominal.tech, deltas)`
/// from the nominal library and its sensitivities.
///
/// Every entry's model error at `deltas` is estimated from the
/// corner-probe misfits recorded at characterization time
/// (`VectorSens::error_estimate`); entries whose estimate exceeds
/// `tol` are fully re-characterized against the die technology.
/// `tol = f64::INFINITY` accepts every entry unconditionally (used for
/// the probe libraries the block-kernel delta tables are compiled
/// from).
///
/// # Errors
/// Propagates solver failures from fallback solves.
pub fn delta_library(
    nominal: &CellLibrary,
    sens: &LibrarySens,
    deltas: &[f64; SENS_AXES],
    tol: f64,
) -> Result<(CellLibrary, DeltaReport), SolverError> {
    let die_tech = apply_deltas(&nominal.tech, deltas);
    let mut report = DeltaReport::default();
    let mut cells = BTreeMap::new();
    for cell in nominal.cell_types() {
        let nchar = nominal.cell(cell).expect("iterating the library's own cells");
        let csens = sens
            .cells
            .get(&cell)
            .ok_or_else(|| SolverError::BadProblem(format!("no sensitivities for {cell}")))?;
        let mut vectors = Vec::with_capacity(nchar.vectors().len());
        for (vc, vs) in nchar.vectors().iter().zip(&csens.vectors) {
            report.entries += 1;
            let est = vs.error_estimate(deltas);
            report.max_est = report.max_est.max(est);
            if est > tol {
                report.fallbacks += 1;
                vectors.push(characterize_vector(
                    &die_tech,
                    nominal.temp,
                    cell,
                    vc.vector,
                    &nominal.options,
                )?);
            } else {
                vectors.push(vs.apply(vc, deltas));
            }
        }
        cells.insert(cell, CellChar::from_vectors(cell, vectors));
    }
    let lib = CellLibrary::from_parts(die_tech, nominal.temp, nominal.options.clone(), cells);
    Ok((lib, report))
}

/// Characterizes one `(cell, vector)` entry with traced solves,
/// returning the entry (bit-identical to
/// [`characterize_vector`]) plus its sensitivity record. For
/// every Newton solve in the sweep, each axis is probed by rebuilding
/// the same fixture under the probe technology, pushing the residual at
/// the nominal solution through the factored Jacobian, and re-reading
/// the leakage at the predicted operating point — so the probe library
/// values follow exactly the quantities the real characterization
/// stores.
fn characterize_vector_traced(
    tech: &Technology,
    temp: f64,
    cell: CellType,
    vector: InputVector,
    opts: &CharacterizeOptions,
) -> Result<(VectorChar, VectorSens), SolverError> {
    // Probe technologies: ±h for each axis (probe `2a` / `2a+1` are
    // the two signs of axis `a`), then a (+h,+h) / (-h,-h) corner pair
    // for each axis pair (probes `8+2k` / `8+2k+1` for pair `k`), then
    // ±2h for each axis (probes `20+2a` / `20+2a+1`) so every axis gets
    // a five-point stencil for the cubic/quartic log terms.
    const CORNER0: usize = 2 * SENS_AXES;
    const WIDE0: usize = CORNER0 + 2 * SENS_PAIRS.len();
    const N_PROBES: usize = WIDE0 + 2 * SENS_AXES;
    let grid = opts.grid();
    let zeros = vec![0.0; cell.num_inputs()];
    let probes: Vec<Technology> = (0..N_PROBES)
        .map(|p| {
            let mut d = [0.0; SENS_AXES];
            let sign = if p % 2 == 0 { 1.0 } else { -1.0 };
            if p < CORNER0 {
                d[p / 2] = sign * PROBE_STEPS[p / 2];
            } else if p < WIDE0 {
                let (a, b) = SENS_PAIRS[(p - CORNER0) / 2];
                d[a] = sign * CORNER_STEPS[a];
                d[b] = sign * CORNER_STEPS[b];
            } else {
                let a = (p - WIDE0) / 2;
                d[a] = sign * 2.0 * PROBE_STEPS[a];
            }
            apply_deltas(tech, &d)
        })
        .collect();

    struct Traced {
        nominal: CellSolution,
        probes: Vec<CellSolution>,
    }
    let eval_all = |il_in: &[f64], il_out: f64| -> Result<Traced, SolverError> {
        let t = eval_loaded_traced(tech, temp, cell, vector, il_in, il_out)?;
        let jac = t
            .trace
            .jacobian
            .as_ref()
            .ok_or_else(|| SolverError::BadProblem("fixture has no unknowns".into()))?;
        let mut probe_sols = Vec::with_capacity(N_PROBES);
        for ptech in &probes {
            let pfx = loaded_fixture(ptech, cell, vector, il_in, il_out)?;
            // f(x*, p0) = 0, so the residual under the probe tech is
            // ∂f/∂p · h and dx = -J⁻¹ f' is the first-order shift of
            // the operating point.
            let mut r = dc_residual_at(&pfx.nl, temp, &t.x_star)?;
            jac.solve(&mut r)?;
            let dv: Vec<f64> = r.iter().map(|d| -d).collect();
            // Solve the probe point exactly, warm-started from the
            // prediction (a couple of Newton steps): the curvature
            // extraction needs true probe values — second differences
            // of *predicted* values would only measure the O(h²)
            // prediction error itself.
            let mut pguess = pfx.guess.clone();
            for (slot, node) in t.trace.unknowns.iter().enumerate() {
                pguess[node.0] = t.x_star[slot] + dv[slot];
            }
            probe_sols.push(solve_fixture(&pfx, temp, &pguess)?);
        }
        Ok(Traced { nominal: t.solution, probes: probe_sols })
    };

    // Mirror characterize_vector's solve sequence exactly: nominal
    // first, then per-pin input sweeps, then the output sweep.
    let nom = eval_all(&zeros, 0.0)?;
    let nominal = nom.nominal.breakdown;
    let probe_nominals: Vec<LeakageBreakdown> = nom.probes.iter().map(|s| s.breakdown).collect();

    let degenerate = |axis: &str| SolverError::BadProblem(format!("degenerate {axis} sweep"));
    let mut input_resp = Vec::with_capacity(cell.num_inputs());
    let mut probe_input_resp: Vec<Vec<BreakdownLut>> = vec![Vec::new(); N_PROBES];
    for pin in 0..cell.num_inputs() {
        let mut deltas = Vec::with_capacity(grid.len());
        let mut pdeltas: Vec<Vec<LeakageBreakdown>> =
            (0..N_PROBES).map(|_| Vec::with_capacity(grid.len())).collect();
        for &x in &grid {
            if x == 0.0 {
                deltas.push(LeakageBreakdown::ZERO);
                for pd in &mut pdeltas {
                    pd.push(LeakageBreakdown::ZERO);
                }
                continue;
            }
            let mut il = zeros.clone();
            il[pin] = x;
            let t = eval_all(&il, 0.0)?;
            deltas.push(t.nominal.breakdown - nominal);
            for (a, pd) in pdeltas.iter_mut().enumerate() {
                pd.push(t.probes[a].breakdown - probe_nominals[a]);
            }
        }
        input_resp
            .push(BreakdownLut::from_samples(&grid, &deltas).ok_or_else(|| degenerate("input"))?);
        for (resp, pd) in probe_input_resp.iter_mut().zip(&pdeltas) {
            resp.push(BreakdownLut::from_samples(&grid, pd).ok_or_else(|| degenerate("input"))?);
        }
    }

    let mut out_deltas = Vec::with_capacity(grid.len());
    let mut probe_out_deltas: Vec<Vec<LeakageBreakdown>> =
        (0..N_PROBES).map(|_| Vec::with_capacity(grid.len())).collect();
    for &x in &grid {
        if x == 0.0 {
            out_deltas.push(LeakageBreakdown::ZERO);
            for pd in &mut probe_out_deltas {
                pd.push(LeakageBreakdown::ZERO);
            }
            continue;
        }
        let t = eval_all(&zeros, x)?;
        out_deltas.push(t.nominal.breakdown - nominal);
        for (a, pd) in probe_out_deltas.iter_mut().enumerate() {
            pd.push(t.probes[a].breakdown - probe_nominals[a]);
        }
    }
    let output_resp =
        BreakdownLut::from_samples(&grid, &out_deltas).ok_or_else(|| degenerate("output"))?;
    let probe_output_resp: Vec<BreakdownLut> = probe_out_deltas
        .iter()
        .map(|pd| BreakdownLut::from_samples(&grid, pd).ok_or_else(|| degenerate("output")))
        .collect::<Result<_, _>>()?;

    let vc = VectorChar {
        cell,
        vector,
        output_level: nom.nominal.output_level,
        nominal,
        pin_currents: nom.nominal.input_pin_currents.clone(),
        input_resp,
        output_resp,
    };

    // Per-probe entries assembled with the same formulas, then reduced
    // to per-axis log-space slope and curvature value by value.
    let v0 = flatten_values(&vc);
    let probe_vals: Vec<Vec<f64>> = probe_input_resp
        .into_iter()
        .zip(probe_output_resp)
        .enumerate()
        .map(|(p, (p_input, p_output))| {
            flatten_values(&VectorChar {
                cell,
                vector,
                output_level: nom.nominal.output_level,
                nominal: probe_nominals[p],
                pin_currents: nom.probes[p].input_pin_currents.clone(),
                input_resp: p_input,
                output_resp: p_output,
            })
        })
        .collect();
    let mut sens = vec![[0.0_f64; SENS_AXES]; v0.len()];
    let mut curv = vec![[0.0_f64; SENS_AXES]; v0.len()];
    let mut cub = vec![[0.0_f64; SENS_AXES]; v0.len()];
    let mut qrt = vec![[0.0_f64; SENS_AXES]; v0.len()];
    let mut cross = vec![[0.0_f64; 6]; v0.len()];
    for a in 0..SENS_AXES {
        let h = PROBE_STEPS[a];
        for (i, &x0) in v0.iter().enumerate() {
            let (s, c, t, q) = log_poly(
                x0,
                probe_vals[2 * a][i],
                probe_vals[2 * a + 1][i],
                probe_vals[WIDE0 + 2 * a][i],
                probe_vals[WIDE0 + 2 * a + 1][i],
                h,
            );
            sens[i][a] = s;
            curv[i][a] = c;
            cub[i][a] = t;
            qrt[i][a] = q;
        }
    }
    let mut mu = vec![[0.0_f64; 6]; v0.len()];
    // Per pair: subtract the (exactly interpolating) single-axis model
    // from each measured corner shift; the even part of what remains is
    // the secant cross coefficient, the odd part is the cubic-order
    // cross misfit that feeds the fallback gate.
    let e_sing = |i: usize, a: usize, d: f64| {
        let d2 = d * d;
        d * sens[i][a]
            + 0.5 * d2 * curv[i][a]
            + d2 * d * cub[i][a] / 6.0
            + d2 * d2 * qrt[i][a] / 24.0
    };
    for (k, &(a, b)) in SENS_PAIRS.iter().enumerate() {
        let (da, db) = (CORNER_STEPS[a], CORNER_STEPS[b]);
        let (pp, mm) = (CORNER0 + 2 * k, CORNER0 + 2 * k + 1);
        for (i, &x0) in v0.iter().enumerate() {
            let (vp, vm) = (probe_vals[pp][i], probe_vals[mm][i]);
            let usable = |v: f64| v != 0.0 && (v < 0.0) == (x0 < 0.0);
            if x0 == 0.0 || !usable(vp) || !usable(vm) {
                continue;
            }
            let l0 = x0.abs().ln();
            let xp = (vp.abs().ln() - l0) - e_sing(i, a, da) - e_sing(i, b, db);
            let xm = (vm.abs().ln() - l0) - e_sing(i, a, -da) - e_sing(i, b, -db);
            cross[i][k] = 0.5 * (xp + xm) / (da * db);
            mu[i][k] = 0.5 * (xp - xm);
        }
    }

    let vmax = v0.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let weight =
        v0.iter().map(|v| if vmax > 0.0 { v.abs() / vmax } else { 0.0 }).collect::<Vec<_>>();

    Ok((vc, VectorSens { sens, curv, cub, qrt, cross, mu, weight }))
}

/// Log-space slope and curvature of one stored value from its `±h`
/// probes. A zero nominal value, or a probe that is zero or flips
/// sign, degrades gracefully: one-sided slope if a single probe is
/// usable, `(0, 0)` (the value is treated as insensitive) otherwise —
/// so `v0 · exp(·)` always keeps the nominal sign and maps exact
/// zeroes to exact zeroes.
fn log_slope_curv(v0: f64, v_plus: f64, v_minus: f64, h: f64) -> (f64, f64) {
    let usable = |v: f64| v != 0.0 && (v < 0.0) == (v0 < 0.0);
    if v0 == 0.0 {
        return (0.0, 0.0);
    }
    let l0 = v0.abs().ln();
    match (usable(v_plus), usable(v_minus)) {
        (true, true) => {
            let (lp, lm) = (v_plus.abs().ln(), v_minus.abs().ln());
            ((lp - lm) / (2.0 * h), (lp - 2.0 * l0 + lm) / (h * h))
        }
        (true, false) => ((v_plus.abs().ln() - l0) / h, 0.0),
        (false, true) => ((l0 - v_minus.abs().ln()) / h, 0.0),
        (false, false) => (0.0, 0.0),
    }
}

/// Five-point log-polynomial fit for one axis: slope, curvature, third
/// and fourth log-derivatives of `ln|v|` from probes at `±h` and `±2h`.
/// The four stencils are exact for a quartic, so the model *exactly*
/// interpolates all five probe values in log space. When the wide
/// probes are unusable the fit degrades to the three-point slope +
/// curvature; when the near probes are partial it degrades further
/// (one-sided slope or nothing) — exactly [`log_slope_curv`].
fn log_poly(v0: f64, v_p: f64, v_m: f64, v_p2: f64, v_m2: f64, h: f64) -> (f64, f64, f64, f64) {
    let usable = |v: f64| v != 0.0 && (v < 0.0) == (v0 < 0.0);
    let (s, c) = log_slope_curv(v0, v_p, v_m, h);
    if v0 == 0.0 || !usable(v_p) || !usable(v_m) || !usable(v_p2) || !usable(v_m2) {
        return (s, c, 0.0, 0.0);
    }
    let l0 = v0.abs().ln();
    let (lp, lm, lp2, lm2) = (v_p.abs().ln(), v_m.abs().ln(), v_p2.abs().ln(), v_m2.abs().ln());
    let s4 = (lm2 - 8.0 * lm + 8.0 * lp - lp2) / (12.0 * h);
    let c4 = (-lm2 + 16.0 * lm - 30.0 * l0 + 16.0 * lp - lp2) / (12.0 * h * h);
    let t = (-lm2 + 2.0 * lm - 2.0 * lp + lp2) / (2.0 * h * h * h);
    let q = (lm2 - 4.0 * lm + 6.0 * l0 - 4.0 * lp + lp2) / (h * h * h * h);
    (s4, c4, t, q)
}

/// Canonical flattening of every f64 a [`VectorChar`] stores: nominal
/// components, pin currents, then the `ys` of each response table
/// (inputs in pin order, output last; `sub`, `gate`, `btbt` per table).
/// [`rebuild_from_values`] consumes the same order.
fn flatten_values(vc: &VectorChar) -> Vec<f64> {
    let mut out = vec![vc.nominal.sub, vc.nominal.gate, vc.nominal.btbt];
    out.extend_from_slice(&vc.pin_currents);
    for lut in vc.input_resp.iter().chain(std::iter::once(&vc.output_resp)) {
        out.extend_from_slice(lut.sub.ys());
        out.extend_from_slice(lut.gate.ys());
        out.extend_from_slice(lut.btbt.ys());
    }
    out
}

/// Rebuilds a [`VectorChar`] from flattened values, taking grids and
/// discrete fields from `template`.
fn rebuild_from_values(template: &VectorChar, vals: &[f64]) -> VectorChar {
    struct Cursor<'a> {
        vals: &'a [f64],
        pos: usize,
    }
    impl<'a> Cursor<'a> {
        fn take(&mut self, n: usize) -> &'a [f64] {
            let s = &self.vals[self.pos..self.pos + n];
            self.pos += n;
            s
        }
        fn lut(&mut self, tpl: &Lut1) -> Lut1 {
            Lut1::new(tpl.xs().to_vec(), self.take(tpl.ys().len()).to_vec())
                .expect("template grid stays valid")
        }
        fn blut(&mut self, tpl: &BreakdownLut) -> BreakdownLut {
            BreakdownLut {
                sub: self.lut(&tpl.sub),
                gate: self.lut(&tpl.gate),
                btbt: self.lut(&tpl.btbt),
            }
        }
    }
    let mut c = Cursor { vals, pos: 0 };
    let nom = c.take(3);
    let nominal = LeakageBreakdown { sub: nom[0], gate: nom[1], btbt: nom[2] };
    let pin_currents = c.take(template.pin_currents.len()).to_vec();
    let input_resp = template.input_resp.iter().map(|tpl| c.blut(tpl)).collect();
    let output_resp = c.blut(&template.output_resp);
    debug_assert_eq!(c.pos, vals.len());
    VectorChar {
        cell: template.cell,
        vector: template.vector,
        output_level: template.output_level,
        nominal,
        pin_currents,
        input_resp,
        output_resp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> CharacterizeOptions {
        CharacterizeOptions::coarse(&[CellType::Inv, CellType::Nand2])
    }

    #[test]
    fn sensitivity_characterization_is_bit_identical_to_plain() {
        let tech = Technology::d25();
        let plain = CellLibrary::characterize(&tech, 300.0, &opts()).unwrap();
        let (lib, _sens) = characterize_with_sensitivity(&tech, 300.0, &opts()).unwrap();
        assert_eq!(lib, plain, "traced characterization must not move a single bit");
    }

    #[test]
    fn zero_deltas_reproduce_the_nominal_library_exactly() {
        let tech = Technology::d25();
        let (lib, sens) = characterize_with_sensitivity(&tech, 300.0, &opts()).unwrap();
        let (derived, report) =
            delta_library(&lib, &sens, &[0.0; SENS_AXES], DEFAULT_DELTA_TOL).unwrap();
        assert_eq!(derived, lib, "exp(0) scaling must be the identity");
        assert_eq!(report.fallbacks, 0, "a zero draw cannot breach the tolerance");
        assert_eq!(report.max_est, 0.0, "the error estimate is identically zero at zero deltas");
    }

    #[test]
    fn one_sigma_die_is_predicted_within_a_few_percent() {
        let tech = Technology::d25();
        let copts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let (lib, sens) = characterize_with_sensitivity(&tech, 300.0, &copts).unwrap();
        // A representative 1-sigma die draw of the default MC model.
        let deltas = [2.0e-9, 6.7e-11, 0.03, -0.033];
        let (derived, report) = delta_library(&lib, &sens, &deltas, DEFAULT_DELTA_TOL).unwrap();
        assert_eq!(report.fallbacks, 0, "1-sigma must ride the fast path");
        let die = apply_deltas(&tech, &deltas);
        assert_eq!(derived.tech, die);
        let exact = CellLibrary::characterize(&die, 300.0, &copts).unwrap();
        let v = InputVector::parse("0").unwrap();
        let d = derived.vector_char(CellType::Inv, v).unwrap();
        let e = exact.vector_char(CellType::Inv, v).unwrap();
        let rel = (d.nominal.total() - e.nominal.total()).abs() / e.nominal.total();
        assert!(rel < 0.03, "nominal total off by {}%", rel * 100.0);
        // Loaded estimates track too (tables and nominal together).
        let l_d = d.leakage(&[2.0e-6], 1.0e-6).total();
        let l_e = e.leakage(&[2.0e-6], 1.0e-6).total();
        let rel = (l_d - l_e).abs() / l_e;
        assert!(rel < 0.03, "loaded estimate off by {}%", rel * 100.0);
        // And the exact library moved far enough that the delta model
        // is doing real work.
        let nom_total = lib.vector_char(CellType::Inv, v).unwrap().nominal.total();
        assert!(
            (e.nominal.total() - nom_total).abs() / nom_total > 0.3,
            "die draw should move leakage by tens of percent"
        );
    }

    #[test]
    fn tight_tolerance_forces_full_fallback_bit_equal_to_exact() {
        let tech = Technology::d25();
        let copts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let (lib, sens) = characterize_with_sensitivity(&tech, 300.0, &copts).unwrap();
        // Multi-axis so the cross-misfit estimate is strictly positive
        // (single-axis draws are interpolated and estimate zero).
        let deltas = [1.0e-9, 0.0, 0.02, 0.0];
        let (derived, report) = delta_library(&lib, &sens, &deltas, 0.0).unwrap();
        assert_eq!(report.fallbacks, report.entries);
        let die = apply_deltas(&tech, &deltas);
        let exact = CellLibrary::characterize(&die, 300.0, &copts).unwrap();
        assert_eq!(derived, exact, "fallback entries are real solves");
    }

    #[test]
    fn infer_deltas_round_trips_mc_style_draws() {
        let tech = Technology::d25();
        let deltas = [1.3e-9, -2.5e-11, 0.017, -0.008];
        let die = apply_deltas(&tech, &deltas);
        let got = infer_deltas(&tech, &die).expect("die draw must be recognized");
        assert_eq!(apply_deltas(&tech, &got), die);
        // Identity die.
        assert_eq!(infer_deltas(&tech, &tech.clone()), Some([0.0; SENS_AXES]));
        // A technology that differs outside the four axes is rejected.
        let mut alien = die.clone();
        alien.nmos.geometry.w *= 1.01;
        assert_eq!(infer_deltas(&tech, &alien), None);
        // Per-flavor asymmetry (intra-cell mismatch) is rejected too.
        let mut skewed = die.clone();
        skewed.pmos.flavor.vth_shift += 0.01;
        assert_eq!(infer_deltas(&tech, &skewed), None);
    }

    #[test]
    fn probe_library_matches_unchecked_single_axis_delta() {
        // The block-kernel delta tables are compiled from unchecked
        // single-axis probe libraries; their values must be exactly
        // v0 * exp(s * h) with the recorded sensitivity.
        let tech = Technology::d25();
        let copts = CharacterizeOptions::coarse(&[CellType::Inv]);
        let (lib, sens) = characterize_with_sensitivity(&tech, 300.0, &copts).unwrap();
        let mut deltas = [0.0; SENS_AXES];
        deltas[2] = PROBE_STEPS[2];
        let (probe, report) = delta_library(&lib, &sens, &deltas, f64::INFINITY).unwrap();
        assert_eq!(report.fallbacks, 0);
        let v = InputVector::parse("1").unwrap();
        let p = probe.vector_char(CellType::Inv, v).unwrap();
        let n = lib.vector_char(CellType::Inv, v).unwrap();
        // Raising Vt by ~1 sigma (42 mV) must *lower* subthreshold
        // leakage severalfold (the exponential the log-space model
        // captures), and by construction the probe value is exactly
        // interpolated, so the huge shift is still accurate.
        assert!(p.nominal.sub < 0.7 * n.nominal.sub);
        assert!(p.nominal.sub > 0.05 * n.nominal.sub);
    }
}
