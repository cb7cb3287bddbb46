//! Criterion micro-benchmarks: model fitting and prediction for every
//! family in the AutoML search space. These set the per-candidate cost
//! that dominates AutoML wall-clock.

use aml_automl::{CandidateConfig, ModelFamily};
use aml_dataset::synth;
use aml_fwgen::{generate, FwGenConfig};

use aml_microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fit(c: &mut Criterion) {
    let train = synth::gaussian_blobs(400, 4, 3, 1.5, 1).unwrap();
    let mut group = c.benchmark_group("model_fit_400x4");
    group.sample_size(10);
    for family in ModelFamily::ALL {
        let config = CandidateConfig::sample(family, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &config,
            |b, cfg| b.iter(|| cfg.fit(&train).expect("fit")),
        );
    }
    group.finish();
}

/// Every family on firewall-shaped training data: `aml_fwgen` rows (11
/// features, 4 classes) at the size of a Table 2 training split. Tree
/// fits cost more per node here than on the low-dimensional blobs above.
fn bench_fit_fwgen(c: &mut Criterion) {
    // Reset-both lifted to 1% so all four classes appear, as in the
    // firewall experiments.
    let train = generate(&FwGenConfig {
        n: 600,
        seed: 11,
        priors: Some([0.567, 0.229, 0.194, 0.010]),
    })
    .unwrap();
    let mut group = c.benchmark_group("model_fit_600x11_fwgen");
    group.sample_size(10);
    for family in ModelFamily::ALL {
        let config = CandidateConfig::sample(family, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &config,
            |b, cfg| b.iter(|| cfg.fit(&train).expect("fit")),
        );
    }
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let train = synth::gaussian_blobs(400, 4, 3, 1.5, 1).unwrap();
    let test = synth::gaussian_blobs(200, 4, 3, 1.5, 2).unwrap();
    let mut group = c.benchmark_group("model_predict_200x4");
    for family in ModelFamily::ALL {
        let model = CandidateConfig::sample(family, 7).fit(&train).expect("fit");
        group.bench_with_input(
            BenchmarkId::from_parameter(family.name()),
            &model,
            |b, m| b.iter(|| m.predict_proba(&test).expect("predict")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_fit_fwgen, bench_predict);
criterion_main!(benches);
