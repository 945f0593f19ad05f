use std::error::Error;
use std::fmt;

use udse_linalg::LinalgError;

/// Errors arising while building or fitting regression models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RegressError {
    /// A term references a predictor index outside the dataset.
    UnknownVariable {
        /// The offending variable index.
        var: usize,
        /// Number of variables in the dataset.
        available: usize,
    },
    /// Not enough observations to estimate the requested coefficients.
    TooFewObservations {
        /// Observations available.
        observations: usize,
        /// Coefficients requested (including intercept).
        coefficients: usize,
    },
    /// The response contains a value invalid under the chosen transform
    /// (e.g. a negative value under `Sqrt`, non-positive under `Log`).
    InvalidResponse {
        /// Index of the offending observation.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A prediction row has the wrong number of variables.
    RowLength {
        /// Expected variable count.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The dataset rows are ragged or empty.
    MalformedDataset,
    /// A level list handed to [`crate::FittedModel::compile`] is empty or
    /// not strictly increasing.
    BadLevels {
        /// Predictor index of the offending level list.
        var: usize,
    },
    /// The underlying least-squares solve failed (e.g. collinear terms).
    Linalg(LinalgError),
}

impl fmt::Display for RegressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressError::UnknownVariable { var, available } => {
                write!(f, "term references variable {var} but dataset has {available}")
            }
            RegressError::TooFewObservations { observations, coefficients } => write!(
                f,
                "cannot estimate {coefficients} coefficients from {observations} observations"
            ),
            RegressError::InvalidResponse { index, value } => {
                write!(f, "response value {value} at index {index} invalid under transform")
            }
            RegressError::RowLength { expected, got } => {
                write!(f, "prediction row has {got} values, expected {expected}")
            }
            RegressError::MalformedDataset => write!(f, "dataset rows are ragged or empty"),
            RegressError::BadLevels { var } => {
                write!(f, "level list for variable {var} is empty or not strictly increasing")
            }
            RegressError::Linalg(e) => write!(f, "least-squares solve failed: {e}"),
        }
    }
}

impl Error for RegressError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RegressError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for RegressError {
    fn from(e: LinalgError) -> Self {
        RegressError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = RegressError::UnknownVariable { var: 7, available: 3 };
        assert!(e.to_string().contains('7'));
        let e = RegressError::Linalg(LinalgError::RankDeficient { pivot: 2 });
        assert!(e.to_string().contains("least-squares"));
    }

    #[test]
    fn source_chains_linalg() {
        use std::error::Error;
        let e = RegressError::from(LinalgError::RankDeficient { pivot: 0 });
        assert!(e.source().is_some());
    }
}
