//! Partial dependence (PDP) curves.
//!
//! The paper's algorithm uses ALE, but §3 notes that "other model-agnostic
//! interpretation methods" slot into the same framework. PDP is the obvious
//! alternative, and the ablation benches compare PDP-variance
//! feedback against ALE-variance feedback.

use crate::ale::AleConfig;
use crate::grid::Grid;
use crate::{InterpretError, Result};
use aml_dataset::Dataset;
use aml_models::Classifier;

/// A partial-dependence curve: the average model response with one feature
/// clamped to each grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PdpCurve {
    /// Explained feature.
    pub feature: usize,
    /// Grid points.
    pub grid: Vec<f64>,
    /// `mean_i f(z, x_{-j}(i))` at each grid point.
    pub values: Vec<f64>,
}

fn validate(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    config: &AleConfig,
) -> Result<()> {
    if data.is_empty() {
        return Err(InterpretError::EmptyData);
    }
    if feature >= data.n_features() {
        return Err(InterpretError::BadFeature {
            index: feature,
            n_features: data.n_features(),
        });
    }
    if config.target_class >= model.n_classes() {
        return Err(InterpretError::BadClass {
            class: config.target_class,
            n_classes: model.n_classes(),
        });
    }
    Ok(())
}

/// Compute the PDP curve of `model` for `feature` over `data`.
pub fn pdp_curve(
    model: &dyn Classifier,
    data: &Dataset,
    feature: usize,
    grid: &Grid,
    config: &AleConfig,
) -> Result<PdpCurve> {
    validate(model, data, feature, config)?;
    aml_telemetry::ledger::emit_with(|| aml_telemetry::LedgerEvent::AleCurveComputed {
        feature: feature as u64,
        model: model.name().to_string(),
        method: "pdp".to_string(),
        grid_points: grid.points().len() as u64,
        rows: data.n_rows() as u64,
    });
    let mut values = Vec::with_capacity(grid.points().len());
    let mut row_buf = vec![0.0; data.n_features()];
    for &z in grid.points() {
        let mut acc = 0.0;
        for i in 0..data.n_rows() {
            row_buf.copy_from_slice(data.row(i));
            row_buf[feature] = z;
            acc += model.predict_proba_row(&row_buf)?[config.target_class];
        }
        values.push(acc / data.n_rows() as f64);
    }
    Ok(PdpCurve {
        feature,
        grid: grid.points().to_vec(),
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::synth;

    struct LinearInX0;
    impl Classifier for LinearInX0 {
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            2
        }
        fn predict_proba_row(&self, row: &[f64]) -> aml_models::Result<Vec<f64>> {
            let p = row[0].clamp(0.0, 1.0);
            Ok(vec![1.0 - p, p])
        }
        fn name(&self) -> &'static str {
            "linear_in_x0"
        }
    }

    #[test]
    fn pdp_of_linear_model_equals_identity() {
        let ds = synth::noisy_xor(200, 0.0, 1).unwrap();
        let grid = Grid::uniform(aml_dataset::FeatureDomain::continuous(0.0, 1.0), 5).unwrap();
        let pdp = pdp_curve(&LinearInX0, &ds, 0, &grid, &AleConfig::default()).unwrap();
        for (z, v) in pdp.grid.iter().zip(&pdp.values) {
            assert!((v - z).abs() < 1e-12, "PDP({z}) = {v}");
        }
    }

    #[test]
    fn bad_inputs_rejected() {
        let ds = synth::two_moons(50, 0.2, 4).unwrap();
        let grid = Grid::quantile(&ds.column(0).unwrap(), 4).unwrap();
        assert!(pdp_curve(&LinearInX0, &ds, 9, &grid, &AleConfig::default()).is_err());
    }
}
