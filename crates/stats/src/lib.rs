//! # aml-stats
//!
//! Statistical utilities used throughout the interpretable-AutoML
//! reproduction: descriptive statistics, rank computations with midrank tie
//! handling, the one-sided Wilcoxon signed-rank test used for every p-value
//! the paper reports (Table 1 and §4.2), and helpers that format pairwise
//! significance matrices.
//!
//! Everything in this crate is implemented from scratch (the paper used
//! `scipy.stats.wilcoxon`); the exact small-sample distribution is computed
//! by dynamic programming and is property-tested against brute-force
//! enumeration of all sign assignments.
//!
//! ## Example
//!
//! ```
//! use aml_stats::wilcoxon::{wilcoxon_signed_rank, Alternative};
//!
//! // Paired balanced-accuracy scores of two feedback strategies over the
//! // same 10 test sets. We ask: is strategy `a` worse than strategy `b`?
//! let a = [0.61, 0.64, 0.60, 0.66, 0.63, 0.65, 0.62, 0.59, 0.61, 0.64];
//! let b = [0.68, 0.71, 0.69, 0.74, 0.70, 0.72, 0.69, 0.66, 0.70, 0.73];
//! let res = wilcoxon_signed_rank(&a, &b, Alternative::Less).unwrap();
//! assert!(res.p_value < 0.05, "a is significantly worse than b");
//! ```

pub mod descriptive;
pub mod ranks;
pub mod summary;
pub mod wilcoxon;

pub use descriptive::{mean, median, percentile, sample_std, sample_var, Summary};
pub use ranks::{midranks, tie_correction};
pub use summary::{PairwiseMatrix, SignificanceCell};
pub use wilcoxon::{wilcoxon_signed_rank, Alternative, WilcoxonResult};

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input slice was empty (or became empty after dropping zero
    /// differences, for the Wilcoxon test).
    EmptyInput,
    /// Paired-sample tests require both slices to have identical length.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// An input contained a NaN or infinite value.
    NonFiniteInput,
    /// A probability or quantile argument was outside `[0, 1]`.
    InvalidProbability(f64),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample is empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples differ in length: {left} vs {right}")
            }
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
            StatsError::InvalidProbability(p) => {
                write!(f, "probability argument {p} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

pub(crate) fn check_finite(xs: &[f64]) -> Result<()> {
    if xs.iter().any(|x| !x.is_finite()) {
        Err(StatsError::NonFiniteInput)
    } else {
        Ok(())
    }
}
