//! # aml-interpret
//!
//! Model-agnostic interpretation tools — the machinery behind the paper's
//! feedback algorithm:
//!
//! * [`ale`] — first-order **Accumulated Local Effects** (Apley & Zhu), the
//!   interpretation method the paper uses ("we use ALE in this work");
//! * [`pdp`] — partial dependence curves (an alternative method the
//!   paper's §3 alludes to with "and other model-agnostic interpretation
//!   methods");
//! * [`variance`] — the cross-model ALE mean/std bands of Figures 1 and 2:
//!   "Compute the standard deviation across the ALE values of models in ℳ";
//! * [`region`] — extraction of the feature subspaces where the std exceeds
//!   the threshold 𝒯, represented as the paper's union of half-space systems
//!   `∪ᵢ Aᵢx ≤ bᵢ` (e.g. `x ≤ 45 ∪ x ≥ 99`);
//! * [`plot`] — CSV / ASCII / SVG rendering of mean±std ALE bands (the
//!   "average ALE plots (along with error-bars)" returned to the user).
//!
//! ## Example
//!
//! ```
//! use aml_dataset::synth;
//! use aml_interpret::{ale::{ale_curve, AleConfig}, grid::Grid};
//! use aml_models::{DecisionTree, tree::TreeParams};
//!
//! let ds = synth::two_moons(200, 0.2, 1).unwrap();
//! let model = DecisionTree::fit(&ds, TreeParams::default()).unwrap();
//! let grid = Grid::quantile(&ds.column(0).unwrap(), 16).unwrap();
//! let curve = ale_curve(&model, &ds, 0, &grid, &AleConfig::default()).unwrap();
//! assert_eq!(curve.values.len(), curve.grid.len());
//! ```

pub mod ale;
pub mod grid;
pub mod pdp;
pub mod plot;
pub mod region;
pub mod variance;

pub use ale::{ale_curve, AleConfig, AleCurve};
pub use grid::Grid;
pub use region::{FeatureRegions, HalfspaceSystem, Interval};
pub use variance::{ale_band, AleBand};

/// Errors from interpretation routines.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpretError {
    /// The evaluation dataset is empty.
    EmptyData,
    /// The requested feature index is out of range.
    BadFeature {
        /// Offending feature index.
        index: usize,
        /// Number of features.
        n_features: usize,
    },
    /// The grid has fewer than 2 points (no interval to accumulate over).
    DegenerateGrid,
    /// The target class index is out of range.
    BadClass {
        /// Offending class index.
        class: usize,
        /// Number of classes.
        n_classes: usize,
    },
    /// No models were supplied for a cross-model computation.
    NoModels,
    /// Model layer failure.
    Model(aml_models::ModelError),
    /// Dataset layer failure.
    Data(aml_dataset::DataError),
    /// Invalid threshold or other parameter.
    InvalidParameter(String),
}

impl std::fmt::Display for InterpretError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpretError::EmptyData => write!(f, "evaluation dataset is empty"),
            InterpretError::BadFeature { index, n_features } => {
                write!(f, "feature {index} out of range (< {n_features})")
            }
            InterpretError::DegenerateGrid => write!(f, "grid needs at least 2 points"),
            InterpretError::BadClass { class, n_classes } => {
                write!(f, "class {class} out of range (< {n_classes})")
            }
            InterpretError::NoModels => write!(f, "no models supplied"),
            InterpretError::Model(e) => write!(f, "model error: {e}"),
            InterpretError::Data(e) => write!(f, "dataset error: {e}"),
            InterpretError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
        }
    }
}

impl std::error::Error for InterpretError {}

impl From<aml_models::ModelError> for InterpretError {
    fn from(e: aml_models::ModelError) -> Self {
        InterpretError::Model(e)
    }
}

impl From<aml_dataset::DataError> for InterpretError {
    fn from(e: aml_dataset::DataError) -> Self {
        InterpretError::Data(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InterpretError>;
