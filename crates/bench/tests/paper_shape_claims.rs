//! The paper's shape claims, pinned over the committed medium-scale,
//! seed-1 artifacts in `results/medium/` (the protocol EXPERIMENTS.md
//! reports). No simulation runs: the p-values are a pure function of
//! the committed paired scores, and the Fig 1 region a pure function of
//! the committed ALE bands.

use aml_core::ale_feedback::quantile_std;
use aml_dataset::FeatureDomain;
use aml_interpret::{AleBand, FeatureRegions};
use aml_stats::{PairwiseMatrix, SignificanceCell};
use aml_telemetry::json::{self, Value};
use std::path::PathBuf;

fn artifact(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/medium")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// P(X, Y) from `table1_scream_scores.json`: small when X beats Y.
fn table1_p(x: &str, y: &str) -> f64 {
    let scores = json::parse(&artifact("table1_scream_scores.json")).unwrap();
    let mut matrix = PairwiseMatrix::new();
    for name in [x, y] {
        matrix
            .add(name, scores.f64_array_field(name).unwrap())
            .unwrap();
    }
    match matrix.p_value(0, 1) {
        SignificanceCell::P(p) => p,
        other => panic!("P({x}, {y}) is {other:?}"),
    }
}

#[test]
fn within_ale_beats_no_feedback() {
    // EXPERIMENTS.md: 0.0014 (the paper: 0.0009).
    let p = table1_p("Within-ALE", "Without feedback");
    assert!(p < 0.05, "P(Within-ALE, Without feedback) = {p}");
}

#[test]
fn upsampling_does_not_lose_to_no_feedback() {
    // EXPERIMENTS.md: 1.5e-5 (the paper: 2.4e-7).
    let p = table1_p("Upsampling", "Without feedback");
    assert!(p < 0.05, "P(Upsampling, Without feedback) = {p}");
}

fn band(v: &Value) -> AleBand {
    AleBand {
        feature: v.u64_field("feature").unwrap() as usize,
        feature_name: v.str_field("feature_name").unwrap(),
        grid: v.f64_array_field("grid").unwrap(),
        mean: v.f64_array_field("mean").unwrap(),
        std: v.f64_array_field("std").unwrap(),
        n_models: v.u64_field("n_models").unwrap() as usize,
    }
}

#[test]
fn fig1_link_rate_region_covers_the_low_end_but_not_the_high_end() {
    let features = json::parse(&artifact("fig1_all_features.json")).unwrap();
    let bands: Vec<AleBand> = features.as_arr().unwrap().iter().map(band).collect();
    // The figure's threshold: the median rule over every feature's band.
    let threshold = quantile_std(&bands, 0.5).unwrap();

    // The link-rate band as the figure's CSV has it (grid,mean,std).
    let mut link_rate = bands
        .iter()
        .find(|b| b.feature_name == "config.link_rate")
        .unwrap()
        .clone();
    let rows: Vec<Vec<f64>> = artifact("fig1_link_rate.csv")
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(|x| x.parse().unwrap()).collect())
        .collect();
    link_rate.grid = rows.iter().map(|r| r[0]).collect();
    link_rate.mean = rows.iter().map(|r| r[1]).collect();
    link_rate.std = rows.iter().map(|r| r[2]).collect();
    let domain = FeatureDomain::continuous(1.0, 120.0);
    let region = FeatureRegions::from_band(&link_rate, threshold, domain).unwrap();

    // Low end: the region starts at the domain's lower bound.
    let first = region.intervals.first().expect("a region was flagged");
    assert_eq!(first.lo, domain.lo(), "{}", region.describe());
    // High end, as the medium artifact shows it: the std falls to about
    // 0.0096 from x = 100.7 to the grid's end at 120, below the threshold,
    // so the region stops at 100.7 (quick scale reached x >= 98.1).
    let tail: Vec<(f64, f64)> = link_rate
        .grid
        .iter()
        .zip(&link_rate.std)
        .filter(|(x, _)| **x >= 100.7)
        .map(|(x, s)| (*x, *s))
        .collect();
    assert_eq!(tail.len(), 5);
    assert!(tail
        .iter()
        .all(|(_, s)| *s < threshold && (s - 0.0096).abs() < 1e-4));
    let last = region.intervals.last().unwrap();
    assert!((last.hi - 100.71).abs() < 0.01, "{}", region.describe());
    assert!(!region.contains(domain.hi()), "{}", region.describe());
}
