//! Error types for the statistics substrate.

use std::fmt;

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input slice was empty but the operation needs at least one element.
    EmptyInput {
        /// Name of the operation that failed.
        operation: &'static str,
    },
    /// Two paired inputs had different lengths.
    LengthMismatch {
        /// Name of the operation that failed.
        operation: &'static str,
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A parameter was outside its admissible domain.
    InvalidParameter {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        message: String,
    },
    /// A numerical routine failed to converge.
    ConvergenceFailure {
        /// Name of the routine.
        routine: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A matrix operation failed (singular matrix, not positive definite, ...).
    LinearAlgebra {
        /// Description of the failure.
        message: String,
    },
    /// The regression design matrix is rank deficient or otherwise unusable.
    Regression {
        /// Description of the failure.
        message: String,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput { operation } => {
                write!(f, "{operation}: input is empty")
            }
            StatsError::LengthMismatch {
                operation,
                left,
                right,
            } => write!(
                f,
                "{operation}: paired inputs have different lengths ({left} vs {right})"
            ),
            StatsError::InvalidParameter { parameter, message } => {
                write!(f, "invalid parameter `{parameter}`: {message}")
            }
            StatsError::ConvergenceFailure {
                routine,
                iterations,
            } => write!(
                f,
                "{routine} failed to converge after {iterations} iterations"
            ),
            StatsError::LinearAlgebra { message } => write!(f, "linear algebra error: {message}"),
            StatsError::Regression { message } => write!(f, "regression error: {message}"),
        }
    }
}

impl std::error::Error for StatsError {}

impl StatsError {
    /// A [`StatsError::InvalidParameter`] whose message `message` builds
    /// here, out of line. The Beta–Binomial chain is `#[inline]` into
    /// per-edge loops (see [`crate::bayes`]); its refusals pass the refused
    /// values by value to this cold function, so the straight-line path
    /// neither formats nor keeps those values addressable for a formatter.
    #[cold]
    #[inline(never)]
    pub(crate) fn invalid_parameter(
        parameter: &'static str,
        message: impl FnOnce() -> String,
    ) -> Self {
        StatsError::InvalidParameter {
            parameter,
            message: message(),
        }
    }
}

/// Convenience result alias for statistical routines.
pub type StatsResult<T> = Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_empty_input() {
        let err = StatsError::EmptyInput { operation: "mean" };
        assert_eq!(err.to_string(), "mean: input is empty");
    }

    #[test]
    fn display_length_mismatch() {
        let err = StatsError::LengthMismatch {
            operation: "pearson",
            left: 3,
            right: 5,
        };
        assert!(err.to_string().contains("pearson"));
        assert!(err.to_string().contains("3"));
        assert!(err.to_string().contains("5"));
    }

    #[test]
    fn display_invalid_parameter() {
        let err = StatsError::InvalidParameter {
            parameter: "alpha",
            message: "must be positive".to_string(),
        };
        assert!(err.to_string().contains("alpha"));
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<StatsError>();
    }
}
