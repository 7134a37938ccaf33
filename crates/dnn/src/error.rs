//! Error type for DNN operations.

use std::error::Error;
use std::fmt;

use dlk_dram::DramError;

/// Errors returned by DNN operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnnError {
    /// Tensor shapes do not match an operation's requirements.
    ShapeMismatch {
        /// Description of the failed operation.
        op: &'static str,
        /// Left-hand shape (rows, cols).
        lhs: (usize, usize),
        /// Right-hand shape (rows, cols).
        rhs: (usize, usize),
    },
    /// A weight index is out of range.
    BadWeightIndex {
        /// Layer index.
        layer: usize,
        /// Flat weight index within the layer.
        index: usize,
    },
    /// DRAM rejected a storage operation.
    Dram(DramError),
    /// The model does not fit the provided DRAM region.
    RegionTooSmall {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A network's `SkipStart`/`SkipAdd` residual markers are not
    /// properly paired.
    UnbalancedSkip,
    /// The backward pass met a forward-pass cache recorded for a
    /// different kind of layer.
    TapeMismatch {
        /// Plan position of the layer.
        position: usize,
    },
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            DnnError::BadWeightIndex { layer, index } => {
                write!(f, "weight index {index} out of range in layer {layer}")
            }
            DnnError::Dram(err) => write!(f, "dram error: {err}"),
            DnnError::RegionTooSmall { needed, available } => {
                write!(f, "model needs {needed} bytes but region has {available}")
            }
            DnnError::UnbalancedSkip => {
                write!(f, "unbalanced SkipStart/SkipAdd residual markers")
            }
            DnnError::TapeMismatch { position } => {
                write!(f, "backward cache at plan position {position} does not match its layer")
            }
        }
    }
}

impl Error for DnnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DnnError::Dram(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DramError> for DnnError {
    fn from(err: DramError) -> Self {
        DnnError::Dram(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_shapes() {
        let err = DnnError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) };
        let text = err.to_string();
        assert!(text.contains("matmul") && text.contains("(2, 3)"));
    }

    #[test]
    fn dram_source_preserved() {
        let err = DnnError::from(DramError::InvalidBank(2));
        assert!(Error::source(&err).is_some());
    }
}
