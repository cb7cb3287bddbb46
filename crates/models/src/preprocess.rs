//! Feature preprocessing: standardization.
//!
//! Distance- and gradient-based models (kNN, logistic regression, linear
//! SVM) need comparable feature scales; tree models do not. The AutoML
//! search space pairs each model family with an appropriate scaler through
//! [`crate::pipeline::Pipeline`].

use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// A fitted feature transformer.
pub trait Transformer: Send + Sync {
    /// Transform one row in place.
    fn transform_row(&self, row: &mut [f64]) -> Result<()>;

    /// Transform every row of a dataset into a new dataset.
    fn transform(&self, ds: &Dataset) -> Result<Dataset> {
        let mut out = ds.empty_like();
        for i in 0..ds.n_rows() {
            let mut row = ds.row(i).to_vec();
            self.transform_row(&mut row)?;
            out.push_row(&row, ds.label(i))?;
        }
        Ok(out)
    }
}

/// Z-score standardization: `x ← (x − mean) / std`, with constant columns
/// mapped to 0 (std clamped away from zero).
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit per-column mean and standard deviation on `ds`.
    pub fn fit(ds: &Dataset) -> Result<Self> {
        if ds.is_empty() {
            return Err(ModelError::EmptyTrainingSet);
        }
        let n = ds.n_rows() as f64;
        let d = ds.n_features();
        let mut means = vec![0.0; d];
        for i in 0..ds.n_rows() {
            for (j, &v) in ds.row(i).iter().enumerate() {
                means[j] += v / n;
            }
        }
        let mut vars = vec![0.0; d];
        for i in 0..ds.n_rows() {
            for (j, &v) in ds.row(i).iter().enumerate() {
                vars[j] += (v - means[j]) * (v - means[j]) / n;
            }
        }
        let stds = vars.iter().map(|v| v.sqrt().max(1e-12)).collect();
        Ok(Standardizer { means, stds })
    }

    /// Per-column means learned at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations learned at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

impl Transformer for Standardizer {
    fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        if row.len() != self.means.len() {
            return Err(ModelError::DimensionMismatch {
                expected: self.means.len(),
                got: row.len(),
            });
        }
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - self.means[j]) / self.stds[j];
        }
        Ok(())
    }
}

/// Which scaler (if any) a pipeline applies before its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalerKind {
    /// No preprocessing (tree models).
    None,
    /// [`Standardizer`].
    Standard,
}

/// A fitted scaler matching [`ScalerKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum FittedScaler {
    /// Identity.
    None,
    /// Fitted standardizer.
    Standard(Standardizer),
}

impl FittedScaler {
    /// Fit the scaler of the given kind on `ds`.
    pub fn fit(kind: ScalerKind, ds: &Dataset) -> Result<Self> {
        Ok(match kind {
            ScalerKind::None => FittedScaler::None,
            ScalerKind::Standard => FittedScaler::Standard(Standardizer::fit(ds)?),
        })
    }
}

impl Transformer for FittedScaler {
    fn transform_row(&self, row: &mut [f64]) -> Result<()> {
        match self {
            FittedScaler::None => Ok(()),
            FittedScaler::Standard(s) => s.transform_row(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::Dataset;

    fn ds() -> Dataset {
        Dataset::from_rows(
            &[
                vec![0.0, 100.0],
                vec![10.0, 100.0],
                vec![20.0, 100.0],
                vec![30.0, 100.0],
            ],
            &[0, 0, 1, 1],
            2,
        )
        .unwrap()
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let s = Standardizer::fit(&ds()).unwrap();
        let t = s.transform(&ds()).unwrap();
        let col = t.column(0).unwrap();
        let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
        let var: f64 = col.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / col.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn standardizer_constant_column_maps_to_zero() {
        let s = Standardizer::fit(&ds()).unwrap();
        let t = s.transform(&ds()).unwrap();
        assert!(t.column(1).unwrap().iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn transform_checks_dimensions() {
        let s = Standardizer::fit(&ds()).unwrap();
        let mut bad = vec![1.0];
        assert!(s.transform_row(&mut bad).is_err());
    }

    #[test]
    fn fitted_scaler_none_is_identity() {
        let f = FittedScaler::fit(ScalerKind::None, &ds()).unwrap();
        let mut row = vec![3.0, 7.0];
        f.transform_row(&mut row).unwrap();
        assert_eq!(row, vec![3.0, 7.0]);
    }

    #[test]
    fn empty_fit_rejected() {
        let empty = ds().empty_like();
        assert!(Standardizer::fit(&empty).is_err());
    }
}
