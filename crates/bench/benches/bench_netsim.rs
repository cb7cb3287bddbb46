//! Criterion benchmarks for the network simulator: full simulation runs
//! per protocol, per flow count, and condition-labeling cost (the
//! data-generation hot path behind every Scream-vs-rest dataset).

use aml_microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use aml_netsim::cc::CcKind;
use aml_netsim::runner::{label_condition, run_all};
use aml_netsim::sim::{SimConfig, Simulation};
use aml_netsim::NetworkCondition;

fn cond(mbps: f64, rtt: f64, loss: f64, flows: usize) -> NetworkCondition {
    NetworkCondition {
        link_rate_mbps: mbps,
        rtt_ms: rtt,
        loss_rate: loss,
        n_flows: flows,
    }
}

fn bench_single_protocol_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_run_10mbps_40ms");
    group.sample_size(10);
    for kind in CcKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| {
                Simulation::new(SimConfig::for_condition(cond(10.0, 40.0, 0.0, 1), k, 1))
                    .expect("config")
                    .run()
                    .expect("run")
            })
        });
    }
    group.finish();
}

/// All six protocols on one lossy fast path, by flow count: the event
/// core keeps per-flow slots, so its cost must not grow with the flows
/// faster than the traffic does (64 is the most `from_row` accepts).
fn bench_flow_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_run_flows");
    group.sample_size(10);
    for n_flows in [1, 6, 64] {
        let condition = cond(100.0, 100.0, 0.01, n_flows);
        group.bench_with_input(
            BenchmarkId::from_parameter(n_flows),
            &condition,
            |b, &cnd| {
                b.iter(|| {
                    for kind in CcKind::ALL {
                        Simulation::new(SimConfig::for_condition(cnd, kind, 1))
                            .expect("config")
                            .run()
                            .expect("run");
                    }
                })
            },
        );
    }
    group.finish();
}

fn label_scenarios() -> [(&'static str, NetworkCondition); 3] {
    [
        ("slow_3mbps", cond(3.0, 40.0, 0.01, 1)),
        ("mid_20mbps", cond(20.0, 60.0, 0.0, 2)),
        ("fast_100mbps", cond(100.0, 30.0, 0.0, 1)),
    ]
}

/// Racing all six protocols, against the early-exit label on the same
/// scenarios: the difference per scenario is what the early exit saves.
fn bench_labeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("run_all_6");
    group.sample_size(10);
    for (name, condition) in label_scenarios() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &condition, |b, &cnd| {
            b.iter(|| run_all(cnd, 7).expect("run_all"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("label_condition_early_exit");
    group.sample_size(10);
    for (name, condition) in label_scenarios() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &condition, |b, &cnd| {
            b.iter(|| label_condition(cnd, 7).expect("label"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_protocol_run,
    bench_flow_counts,
    bench_labeling
);
criterion_main!(benches);
