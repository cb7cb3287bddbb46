//! Per-layer metrics. Two sources, and no instrumentation inside any
//! crate: the benchmark's own timers around each public call it makes, and
//! the span totals and counters the layers already export through
//! `aml_telemetry::global().snapshot()`.

use aml_automl::{CandidateConfig, ModelFamily};
use aml_dataset::Dataset;
use aml_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span totals (calls, seconds) and counters of a traced section.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    spans: BTreeMap<String, (u64, f64)>,
    counters: BTreeMap<String, u64>,
}

impl Totals {
    pub fn from_snapshot(s: &Snapshot) -> Totals {
        Totals {
            spans: s
                .spans
                .iter()
                .map(|sp| (sp.name.clone(), (sp.calls, sp.total_secs())))
                .collect(),
            counters: s.counters.iter().cloned().collect(),
        }
    }

    fn matching<'a>(&'a self, base: &'a str) -> impl Iterator<Item = &'a (u64, f64)> + 'a {
        self.spans.iter().filter_map(move |(name, v)| {
            (name == base || name.strip_prefix(base).is_some_and(|r| r.starts_with('[')))
                .then_some(v)
        })
    }

    /// Total seconds of span `base`, labeled variants (`base[..]`) included.
    pub fn span_s(&self, base: &str) -> f64 {
        self.matching(base).map(|v| v.1).sum()
    }

    pub fn span_calls(&self, base: &str) -> u64 {
        self.matching(base).map(|v| v.0).sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Every per-layer metric with its unit, in report order. A workload
/// reports all of them; a layer it does not exercise reads 0.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("netsim.datagen_s", "s"),
        ("netsim.scenarios_per_s", "1/s"),
        ("netsim.oracle_s", "s"),
        ("netsim.oracle_rows", "count"),
        ("netsim.sim_runs", "count"),
        ("netsim.sims_per_label", "ratio"),
        ("netsim.events_per_s", "1/s"),
        ("netsim.fanout_efficiency", "ratio"),
        ("fwgen.generate_s", "s"),
        ("automl.fit_s", "s"),
        ("automl.fits", "count"),
        ("automl.candidates_trained", "count"),
        ("automl.fit_ms_per_candidate", "ms"),
        ("automl.select_s", "s"),
        ("automl.trials_failed", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for f in ModelFamily::ALL {
        out.push((format!("models.fit_ms.{}", f.name()), "ms"));
    }
    for f in ModelFamily::ALL {
        out.push((format!("models.predict_rows_per_s.{}", f.name()), "1/s"));
    }
    for (n, u) in [
        ("interpret.band_s", "s"),
        ("interpret.ale_cells", "count"),
        ("interpret.ale_predictions", "count"),
        ("interpret.predictions_per_s", "1/s"),
    ] {
        out.push((n.to_string(), u));
    }
    // Scream runs every strategy any workload runs.
    for &s in crate::batch::Batch::Scream.strategies() {
        out.push((format!("core.round_s.{}", crate::batch::slug(s)), "s"));
    }
    for (n, u) in [
        ("core.augment_s", "s"),
        ("core.committee_s", "s"),
        ("core.refit_s", "s"),
        ("core.score_s", "s"),
        ("serve.submit_ms_p50", "ms"),
        ("serve.worker_s_p50", "s"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.backlog_max", "count"),
        ("serve.refused", "count"),
        ("serve.gen_lag_ms_max", "ms"),
        ("telemetry.trace_overhead_frac", "ratio"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Per-layer values by metric name.
pub type Layers = BTreeMap<String, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer metrics read from span totals and counters, each divided
/// by `per` (passes), so runs of different length compare.
/// `threads` is the labeling fan-out width.
pub fn from_totals(t: &Totals, per: f64, threads: usize, out: &mut Layers) {
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let sim_runs = t.counter("netsim.sim.runs") as f64;
    let scenario_s = t.span_s("netsim.scenario");
    put("netsim.sim_runs", sim_runs / per);
    put(
        "netsim.sims_per_label",
        ratio(sim_runs, t.counter("netsim.labels") as f64),
    );
    put(
        "netsim.events_per_s",
        ratio(t.counter("netsim.sim.events") as f64, scenario_s),
    );
    put(
        "netsim.fanout_efficiency",
        ratio(scenario_s, threads as f64 * t.span_s("netsim.labeling")),
    );
    let fit_s = t.span_s("automl.fit");
    let candidates = t.counter("automl.candidates_trained") as f64;
    put("automl.fit_s", fit_s / per);
    put("automl.fits", t.span_calls("automl.fit") as f64 / per);
    put("automl.candidates_trained", candidates / per);
    put(
        "automl.fit_ms_per_candidate",
        ratio(fit_s * 1e3, candidates),
    );
    put("automl.select_s", t.span_s("automl.select.greedy") / per);
    let band_s = t.span_s("interpret.variance.band");
    let predictions = t.counter("interpret.ale.predictions") as f64;
    put("interpret.band_s", band_s / per);
    put(
        "interpret.ale_cells",
        t.counter("interpret.ale.cells") as f64 / per,
    );
    put("interpret.ale_predictions", predictions / per);
    put("interpret.predictions_per_s", ratio(predictions, band_s));
    for (name, span) in [
        ("core.augment_s", "core.strategy.augment"),
        ("core.committee_s", "core.strategy.committee"),
        ("core.refit_s", "core.strategy.refit"),
        ("core.score_s", "core.strategy.score"),
    ] {
        put(name, t.span_s(span) / per);
    }
}

/// The models probe: for each family, `CandidateConfig::sample(family,
/// seed).fit(train)` and then `predict_proba` on the test rows, timed by
/// the benchmark. Returns false if any fit or prediction failed.
pub fn models_probe(train: &Dataset, test: &Dataset, seed: u64, out: &mut Layers) -> bool {
    let mut ok = true;
    for family in ModelFamily::ALL {
        let t = Instant::now();
        let model = match CandidateConfig::sample(family, seed).fit(train) {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "[perfbench] models probe: {} fit failed: {e}",
                    family.name()
                );
                ok = false;
                continue;
            }
        };
        let fit_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        ok &= model.predict_proba(test).is_ok();
        let predict_s = t.elapsed().as_secs_f64();
        out.insert(format!("models.fit_ms.{}", family.name()), fit_ms);
        out.insert(
            format!("models.predict_rows_per_s.{}", family.name()),
            ratio(test.n_rows() as f64, predict_s),
        );
    }
    ok
}
