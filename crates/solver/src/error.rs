//! Solver error types.

use std::error::Error;
use std::fmt;

/// Errors produced by the numerical kernels and the DC solver.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The Jacobian (or a linear system) was numerically singular.
    SingularMatrix {
        /// Pivot column where elimination broke down.
        pivot: usize,
    },
    /// Newton iteration did not reach the residual tolerance.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual infinity-norm \[A\].
        residual: f64,
    },
    /// The problem was malformed (e.g. zero unknowns where some are
    /// required, or mismatched dimensions).
    BadProblem(String),
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::SingularMatrix { pivot } => {
                write!(f, "singular matrix at pivot column {pivot}")
            }
            SolverError::NoConvergence { iterations, residual } => write!(
                f,
                "newton iteration did not converge after {iterations} iterations \
                 (residual {residual:.3e} A)"
            ),
            SolverError::BadProblem(msg) => write!(f, "malformed problem: {msg}"),
        }
    }
}

impl Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SolverError::NoConvergence { iterations: 12, residual: 3.2e-9 };
        let s = e.to_string();
        assert!(s.contains("12"));
        assert!(s.contains("newton"));
        let e = SolverError::SingularMatrix { pivot: 3 };
        assert!(e.to_string().contains("pivot column 3"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(SolverError::BadProblem("x".into()));
    }
}
