//! # interpretable-automl
//!
//! Facade crate for the full workspace — a from-scratch Rust reproduction of
//! *"Interpretable Feedback for AutoML and a Proposal for Domain-customized
//! AutoML for Networking"* (HotNets '21).
//!
//! Everything is re-exported under topical modules:
//!
//! * [`stats`] — Wilcoxon signed-rank test, descriptive statistics,
//!   pairwise significance tables;
//! * [`data`] — dataset representation, splits, CSV, synthetic toys;
//! * [`models`] — eight classical classifiers, metrics, pipelines,
//!   soft-voting ensembles;
//! * [`automl`] — the mini auto-sklearn (search + Caruana ensemble
//!   selection);
//! * [`interpret`] — ALE, PDP, cross-model variance bands, region
//!   extraction, plot rendering;
//! * [`netsim`] — the deterministic congestion-control simulator
//!   (Pantheon substitute) and the "Scream vs rest" data generator;
//! * [`fwgen`] — the synthetic Internet-Firewall dataset generator
//!   (UCI substitute);
//! * [`feedback`] — **the paper's contribution**: Within-/Cross-ALE
//!   interpretable feedback, the active-learning baselines, and the
//!   evaluate→feedback→retrain experiment loop.
//!
//! ## Quickstart
//!
//! ```
//! use interpretable_automl::automl::{AutoMl, AutoMlConfig};
//! use interpretable_automl::data::synth;
//! use interpretable_automl::feedback::{AleFeedback, AleMode};
//!
//! // 1. Train AutoML on (deliberately noisy) data.
//! let train = synth::noisy_xor(300, 0.1, 7).unwrap();
//! let run = AutoMl::new(AutoMlConfig { n_candidates: 8, seed: 1, ..Default::default() })
//!     .fit(&train)
//!     .unwrap();
//!
//! // 2. Ask the feedback algorithm where the ensemble is confused.
//! let ale = AleFeedback { mode: AleMode::Within, ..Default::default() };
//! let (analysis, feedback) = ale.feedback(&[run], &train).unwrap();
//!
//! // 3. The regions + ALE bands are the interpretable answer.
//! println!("{}", feedback.describe());
//! assert_eq!(analysis.bands.len(), train.n_features());
//! ```

pub use aml_automl as automl;
pub use aml_core as feedback;
pub use aml_dataset as data;
pub use aml_fwgen as fwgen;
pub use aml_interpret as interpret;
pub use aml_models as models;
pub use aml_netsim as netsim;
pub use aml_stats as stats;
