//! Damped Newton–Raphson for small nonlinear KCL systems.
//!
//! The residual is the vector of node-current imbalances; the Jacobian
//! is formed by forward differences, one column per unknown. Every
//! transistor-level solve runs on one system, the DC solve's KCL
//! system in [`crate::dc`], whose columns re-evaluate only the devices
//! on the perturbed node. The tests keep the dense form beside it, a
//! residual closure whose every column re-evaluates the whole
//! residual, and the KCL system reproduces it bit for bit. Two
//! SPICE-style safeguards make the exponential device models
//! tractable: per-component step limiting (voltages move at most
//! `max_step` per iteration) and a backtracking line search on the
//! residual norm.

use std::sync::OnceLock;

use nanoleak_obs::{global, Counter};

use crate::error::SolverError;
use crate::linear::{inf_norm, lu_backsolve, lu_factor, lu_solve};

/// Process-wide Newton telemetry (registered once, incremented per
/// solve; plain atomic adds, so safe from parallel sections).
struct NewtonMetrics {
    solves: Counter,
    failures: Counter,
    iterations: Counter,
}

fn metrics() -> &'static NewtonMetrics {
    static METRICS: OnceLock<NewtonMetrics> = OnceLock::new();
    METRICS.get_or_init(|| NewtonMetrics {
        solves: global()
            .counter("nanoleak_solver_newton_solves_total", "Completed Newton solves (converged)"),
        failures: global().counter(
            "nanoleak_solver_newton_failures_total",
            "Newton solves that failed to converge or degenerated",
        ),
        iterations: global().counter(
            "nanoleak_solver_newton_iterations_total",
            "Newton iterations summed over all solves",
        ),
    })
}

/// Counts one finished solve in the global registry.
fn count_solve(iterations: usize, converged: bool) {
    let m = metrics();
    m.iterations.add(iterations as u64);
    if converged {
        m.solves.inc();
    } else {
        m.failures.inc();
    }
}

/// Options controlling the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Residual infinity-norm tolerance \[A\].
    pub tol_residual: f64,
    /// Step infinity-norm below which the iteration is declared
    /// stationary (and accepted if the residual is loose-tolerable).
    pub tol_step: f64,
    /// Per-component voltage step limit \[V\].
    pub max_step: f64,
    /// Forward-difference step for the Jacobian \[V\].
    pub jacobian_step: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iter: 120,
            tol_residual: 1e-15,
            tol_step: 1e-13,
            max_step: 0.12,
            jacobian_step: 2e-7,
        }
    }
}

/// Convergence statistics of a successful solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonStats {
    /// Newton iterations performed.
    pub iterations: usize,
    /// Final residual infinity-norm \[A\].
    pub residual: f64,
}

/// Solves `residual(x) = 0`, updating `x` in place, with the dense
/// Jacobian sweep: the reference the KCL system is checked against.
#[cfg(test)]
pub(crate) fn solve<F>(
    residual: F,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonStats, SolverError>
where
    F: Fn(&[f64], &mut [f64]),
{
    solve_system(&mut Dense::new(residual, x.len()), x, opts)
}

/// A nonlinear system the iteration runs on: its residual, and the
/// forward-difference Jacobian of that residual. When the iteration
/// succeeds, its latest [`System::residual`] call was at the returned
/// point, so a system may keep what it evaluated there.
pub(crate) trait System {
    /// Writes the residual at `x` into `f`.
    fn residual(&mut self, x: &[f64], f: &mut [f64]);

    /// Writes the forward-difference Jacobian at `x` into `jac`
    /// (row-major, `n × n`): column `j` is `(f(x + h e_j) - f) / h`
    /// with `h = column_step(step, x[j])`. `f` is the residual at `x`,
    /// and `x` the point of the latest [`System::residual`] call.
    fn jacobian(&mut self, x: &[f64], f: &[f64], step: f64, jac: &mut [f64]);
}

/// The forward-difference step of a Jacobian column whose unknown sits
/// at `xj`: `step` relative to `1 + |xj|`.
#[inline]
pub(crate) fn column_step(step: f64, xj: f64) -> f64 {
    step * (1.0 + xj.abs())
}

/// A residual closure, differenced densely: every Jacobian column
/// re-evaluates the whole residual.
#[cfg(test)]
struct Dense<F> {
    residual: F,
    x_pert: Vec<f64>,
    f_trial: Vec<f64>,
}

#[cfg(test)]
impl<F: Fn(&[f64], &mut [f64])> Dense<F> {
    fn new(residual: F, n: usize) -> Self {
        Self { residual, x_pert: vec![0.0; n], f_trial: vec![0.0; n] }
    }
}

#[cfg(test)]
impl<F: Fn(&[f64], &mut [f64])> System for Dense<F> {
    fn residual(&mut self, x: &[f64], f: &mut [f64]) {
        (self.residual)(x, f);
    }

    fn jacobian(&mut self, x: &[f64], f: &[f64], step: f64, jac: &mut [f64]) {
        let n = x.len();
        self.x_pert.copy_from_slice(x);
        for j in 0..n {
            let h = column_step(step, x[j]);
            self.x_pert[j] = x[j] + h;
            (self.residual)(&self.x_pert, &mut self.f_trial);
            for i in 0..n {
                jac[i * n + j] = (self.f_trial[i] - f[i]) / h;
            }
            self.x_pert[j] = x[j];
        }
    }
}

/// Runs the iteration on `sys` and counts the solve in the global
/// registry.
pub(crate) fn solve_system<S: System>(
    sys: &mut S,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonStats, SolverError> {
    let result = solve_inner(sys, x, opts);
    match &result {
        Ok(stats) => count_solve(stats.iterations, true),
        Err(SolverError::NoConvergence { iterations, .. }) => count_solve(*iterations, false),
        Err(_) => count_solve(0, false),
    }
    result
}

/// The Newton Jacobian at a converged solution, LU-factored for reuse
/// across many right-hand sides.
///
/// Sensitivity extraction solves `J dv = -∂f/∂p · h` once per
/// perturbation axis; factoring `J` a single time makes each axis one
/// O(n²) backsolve instead of an O(n³) refactorization.
#[derive(Debug, Clone)]
pub struct FactoredJacobian {
    lu: Vec<f64>,
    piv: Vec<usize>,
    n: usize,
}

impl FactoredJacobian {
    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `J x = b` in place against the factored Jacobian.
    ///
    /// # Errors
    /// [`SolverError::BadProblem`] if `b.len() != dim()`.
    pub fn solve(&self, b: &mut [f64]) -> Result<(), SolverError> {
        lu_backsolve(&self.lu, &self.piv, b)
    }
}

/// The forward-difference Jacobian of `sys` at `x`, LU-factored.
pub(crate) fn factor_at<S: System>(
    sys: &mut S,
    x: &[f64],
    opts: &NewtonOptions,
) -> Result<FactoredJacobian, SolverError> {
    let n = x.len();
    let mut f = vec![0.0; n];
    let mut jac = vec![0.0; n * n];
    sys.residual(x, &mut f);
    sys.jacobian(x, &f, opts.jacobian_step, &mut jac);
    let mut piv = Vec::new();
    lu_factor(&mut jac, &mut piv)?;
    Ok(FactoredJacobian { lu: jac, piv, n })
}

fn solve_inner<S: System>(
    sys: &mut S,
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonStats, SolverError> {
    let n = x.len();
    if n == 0 {
        return Err(SolverError::BadProblem("zero unknowns".to_string()));
    }
    let mut f = vec![0.0; n];
    let mut f_trial = vec![0.0; n];
    let mut jac = vec![0.0; n * n];
    let mut dx = vec![0.0; n];
    let mut x_trial = vec![0.0; n];

    sys.residual(x, &mut f);
    let mut fnorm = inf_norm(&f);

    for iter in 0..opts.max_iter {
        if fnorm <= opts.tol_residual {
            return Ok(NewtonStats { iterations: iter, residual: fnorm });
        }
        sys.jacobian(x, &f, opts.jacobian_step, &mut jac);
        // Newton direction: J dx = -f.
        dx.copy_from_slice(&f);
        for v in dx.iter_mut() {
            *v = -*v;
        }
        lu_solve(&mut jac, &mut dx)?;
        // Per-component voltage limiting.
        let dmax = inf_norm(&dx);
        if dmax > opts.max_step {
            let scale = opts.max_step / dmax;
            for v in dx.iter_mut() {
                *v *= scale;
            }
        }
        // Backtracking line search: accept the first step that reduces
        // the residual norm; fall back to the smallest step otherwise
        // (keeps progress on the stiff exponentials).
        let mut alpha = 1.0;
        let mut accepted = false;
        for _ in 0..8 {
            for i in 0..n {
                x_trial[i] = x[i] + alpha * dx[i];
            }
            sys.residual(&x_trial, &mut f_trial);
            let trial_norm = inf_norm(&f_trial);
            if trial_norm < fnorm {
                x.copy_from_slice(&x_trial);
                f.copy_from_slice(&f_trial);
                fnorm = trial_norm;
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            // Take the tiny step anyway; if it is truly stationary and
            // the residual is still large, report failure below.
            for i in 0..n {
                x[i] += alpha * dx[i];
            }
            sys.residual(x, &mut f);
            fnorm = inf_norm(&f);
            if inf_norm(&dx) * alpha < opts.tol_step {
                break;
            }
        }
        if inf_norm(&dx).min(dmax) < opts.tol_step && fnorm <= opts.tol_residual.max(1e-12) {
            return Ok(NewtonStats { iterations: iter + 1, residual: fnorm });
        }
    }
    if fnorm <= opts.tol_residual.max(1e-12) {
        // Accept a slightly loose stall: 1e-12 A is far below the nA
        // leakage scale of interest.
        return Ok(NewtonStats { iterations: opts.max_iter, residual: fnorm });
    }
    Err(SolverError::NoConvergence { iterations: opts.max_iter, residual: fnorm })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_square_root_pair() {
        // x^2 = 4, y = x (two coupled equations).
        let mut x = vec![1.0, 0.0];
        let stats = solve(
            |x, f| {
                f[0] = x[0] * x[0] - 4.0;
                f[1] = x[1] - x[0];
            },
            &mut x,
            &NewtonOptions { max_step: 10.0, ..Default::default() },
        )
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!(stats.iterations > 0);
    }

    #[test]
    fn linear_system_in_one_iteration_family() {
        // f(x) = A x - b with A = [[2, 1], [1, 3]].
        let mut x = vec![0.0, 0.0];
        let stats = solve(
            |x, f| {
                f[0] = 2.0 * x[0] + x[1] - 3.0;
                f[1] = x[0] + 3.0 * x[1] - 5.0;
            },
            &mut x,
            &NewtonOptions { max_step: 100.0, ..Default::default() },
        )
        .unwrap();
        assert!((x[0] - 0.8).abs() < 1e-9, "{x:?} after {stats:?}");
        assert!((x[1] - 1.4).abs() < 1e-9);
    }

    #[test]
    fn stiff_exponential_diode_divider() {
        // Node between a 1k resistor to 1 V and a diode to ground:
        // (v - 1)/1000 + 1e-14 (exp(v/0.02585) - 1) = 0.
        let vt = 0.02585;
        let mut x = vec![0.5];
        solve(
            |x, f| {
                f[0] = (x[0] - 1.0) / 1000.0 + 1e-14 * ((x[0] / vt).min(40.0).exp() - 1.0);
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        let v = x[0];
        // Diode drop ~0.55-0.65 V at ~0.4 mA.
        assert!(v > 0.5 && v < 0.7, "v = {v}");
        let res = (v - 1.0) / 1000.0 + 1e-14 * ((v / vt).exp() - 1.0);
        assert!(res.abs() < 1e-12, "residual = {res:e}");
    }

    #[test]
    fn nanoamp_scale_system_meets_tight_tolerance() {
        // Current balance at nA scale: g1 (v - 0.9) + g2 v = 3 nA.
        let g1 = 1e-6;
        let g2 = 5e-7;
        let mut x = vec![0.0];
        let stats = solve(
            |x, f| {
                f[0] = g1 * (x[0] - 0.9) + g2 * x[0] - 3e-9;
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!(stats.residual <= 1e-15);
        let expect = (g1 * 0.9 + 3e-9) / (g1 + g2);
        assert!((x[0] - expect).abs() < 1e-9);
    }

    #[test]
    fn no_convergence_is_reported() {
        // f(x) = 1 (no root).
        let mut x = vec![0.0];
        let err = solve(|_, f| f[0] = 1.0, &mut x, &NewtonOptions::default());
        assert!(matches!(
            err,
            Err(SolverError::SingularMatrix { .. }) | Err(SolverError::NoConvergence { .. })
        ));
    }

    #[test]
    fn zero_unknowns_rejected() {
        let mut x: Vec<f64> = vec![];
        assert!(matches!(
            solve(|_, _| {}, &mut x, &NewtonOptions::default()),
            Err(SolverError::BadProblem(_))
        ));
    }

    #[test]
    fn step_limiting_tames_wild_starts() {
        // Start far away on a cubic; unlimited Newton would overshoot
        // through the inflection.
        let mut x = vec![50.0];
        solve(
            |x, f| f[0] = x[0] * x[0] * x[0] - 8.0,
            &mut x,
            &NewtonOptions { max_step: 5.0, max_iter: 400, ..Default::default() },
        )
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-7);
    }
}
