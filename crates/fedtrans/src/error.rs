use std::fmt;

use ft_fedsim::SimError;
use ft_model::ModelError;

/// Error raised by the FedTrans runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedTransError {
    /// A model operation failed.
    Model(ModelError),
    /// A simulator operation failed.
    Sim(SimError),
    /// The configuration is inconsistent with the dataset or devices.
    BadConfig {
        /// Explanation of the inconsistency.
        detail: String,
    },
}

impl fmt::Display for FedTransError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedTransError::Model(e) => write!(f, "model error: {e}"),
            FedTransError::Sim(e) => write!(f, "simulator error: {e}"),
            FedTransError::BadConfig { detail } => write!(f, "bad FedTrans config: {detail}"),
        }
    }
}

impl std::error::Error for FedTransError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FedTransError::Model(e) => Some(e),
            FedTransError::Sim(e) => Some(e),
            FedTransError::BadConfig { .. } => None,
        }
    }
}

impl From<ModelError> for FedTransError {
    fn from(e: ModelError) -> Self {
        FedTransError::Model(e)
    }
}

impl From<SimError> for FedTransError {
    fn from(e: SimError) -> Self {
        FedTransError::Sim(e)
    }
}

/// Maps FedTrans errors onto the simulator error type the shared
/// [`ft_fedsim::driver::Method`] hooks speak.
impl From<FedTransError> for SimError {
    fn from(e: FedTransError) -> Self {
        match e {
            FedTransError::Sim(e) => e,
            FedTransError::Model(e) => SimError::Model(e),
            FedTransError::BadConfig { detail } => SimError::BadConfig { detail },
        }
    }
}
