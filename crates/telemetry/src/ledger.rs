//! Experiment ledger: typed, versioned ML-level events of a run.
//!
//! Spans and counters (PRs 1–2) describe the *system* — where time and
//! allocations go. The ledger describes the *experiment*: which candidate
//! configurations the search tried and at which halving rung they were
//! eliminated, what the final ensemble is composed of, how accuracy /
//! label budget / suggested regions evolved across feedback rounds, and
//! the provenance of every ALE curve. One [`LedgerEvent`] per fact,
//! serialized as one JSON line with a fixed field order
//! ([`LedgerEvent::to_json_line`]).
//!
//! ## Determinism
//!
//! Ledger events carry **no wall-clock or thread identity** — timing
//! lives in spans and histograms. Trial ids are the sequential sampling
//! indices assigned before any parallel work starts, so the multiset of
//! ledger lines is identical whether the search runs on 1 or N threads;
//! sorting the lines yields byte-identical content. The determinism test
//! in `aml-automl` relies on this, which makes the ledger double as a
//! correctness oracle for the parallel search.
//!
//! ## Off-is-free
//!
//! Emission is gated on a dedicated atomic ([`active`]) that is only set
//! when a ledger-consuming sink is installed. [`emit_with`] takes a
//! closure so argument construction (config debug strings, band copies)
//! is skipped entirely when no ledger sink is listening.
//!
//! ## Versioning
//!
//! [`LEDGER_SCHEMA_VERSION`] is stamped into the ledger file header and
//! bumped on any breaking change to a line shape (field rename/removal,
//! semantic change). Adding a new event type or a new trailing field is
//! backward compatible and does not bump the version. The golden test in
//! `aml-bench` pins every line shape.

use crate::json::{f64_array, number, string_literal, u64_array, Precision::Shortest};
use crate::registry::Snapshot;
use crate::sink::{RunHeader, Sink, SpanEvent};
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Version of the ledger line shapes; stamped into the file header and
/// pinned by the `ledger_golden` test. Bump on breaking changes only.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// A typed hyperparameter value as sampled for one trial. Rendered into
/// the `trial_started` line's trailing `params` object: `Int` as a bare
/// integer, `Float` via the shortest round-trip form, `Cat` as a string
/// tag matching one of the dimension's declared `choices`.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Integer-valued dimension (tree depth, neighbour count, …).
    Int(i64),
    /// Real-valued dimension (regularization strength, smoothing, …).
    Float(f64),
    /// Categorical dimension (split criterion, weighting scheme, …).
    Cat(String),
}

impl ParamValue {
    pub(crate) fn to_json(&self) -> String {
        match self {
            ParamValue::Int(v) => format!("{v}"),
            ParamValue::Float(v) => number(*v, Shortest),
            ParamValue::Cat(tag) => string_literal(tag),
        }
    }
}

/// One declared hyperparameter dimension of a model family, as described
/// by the once-per-run `search_space` ledger event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceDim {
    /// Dimension name; matches the key in each trial's `params` map.
    pub name: String,
    /// Value kind: `int`, `float`, or `cat`.
    pub kind: String,
    /// Sampling scale: `linear` or `log10` (uniform in log-space).
    pub scale: String,
    /// Inclusive lower bound of the declared range (0 for `cat`).
    pub lo: f64,
    /// Inclusive upper bound of the declared range (0 for `cat`).
    pub hi: f64,
    /// Declared category tags (empty for numeric dimensions).
    pub choices: Vec<String>,
}

/// The declared search space of one model family.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceFamily {
    /// Model family name (matches `trial_*` lines).
    pub family: String,
    /// Declared dimensions in sampling order.
    pub dims: Vec<SpaceDim>,
}

/// One member of a selected ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleMember {
    /// Trial id of the leaderboard candidate (joins with `trial_*` lines).
    pub trial: u64,
    /// Model family name (`forest`, `logreg`, …).
    pub family: String,
    /// Ensemble weight (greedy-selection pick count).
    pub weight: f64,
    /// Validation score of the member on the inner split.
    pub score: f64,
}

/// One ML-level fact about the run. See the module docs for the
/// determinism contract (no wall time, no thread ids).
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerEvent {
    /// A candidate configuration enters training at a halving rung.
    TrialStarted {
        /// Stable trial id: the sequential sampling index of the config.
        trial: u64,
        /// Successive-halving rung (0 = first, smallest data fraction).
        rung: u64,
        /// Model family name.
        family: String,
        /// Human-readable hyperparameter dump of the configuration.
        config: String,
        /// Typed hyperparameter map in the family's declared dimension
        /// order. Trailing field added without a schema bump (see the
        /// module docs' versioning policy); joins with the run's
        /// `search_space` event for range/scale context.
        params: Vec<(String, ParamValue)>,
    },
    /// A candidate finished training and was scored on the rung's
    /// validation data.
    TrialFinished {
        /// Stable trial id (matches the `TrialStarted` line).
        trial: u64,
        /// Successive-halving rung.
        rung: u64,
        /// Model family name.
        family: String,
        /// Validation accuracy at this rung.
        score: f64,
    },
    /// A candidate failed to train (degenerate subsample, solver error,
    /// panic, budget timeout, or a non-finite score).
    TrialFailed {
        /// Stable trial id.
        trial: u64,
        /// Successive-halving rung.
        rung: u64,
        /// Model family name.
        family: String,
        /// Failure class: `error` (fit/scoring returned an error),
        /// `panic` (the sandbox caught an unwind), `timeout` (the
        /// `--max-trial-time` budget expired), or `nonfinite` (the
        /// validation score was NaN/inf). Trailing field added without a
        /// schema bump (see the module docs' versioning policy).
        reason: String,
    },
    /// The greedy ensemble selection committed to its final members.
    EnsembleSelected {
        /// Ensemble validation score on the inner split.
        val_score: f64,
        /// The selected members with their weights.
        members: Vec<EnsembleMember>,
    },
    /// One feedback round (strategy application) completed.
    RoundCompleted {
        /// Process-wide round sequence number (see [`next_round`]).
        round: u64,
        /// Strategy name (`Within-ALE`, `Random`, …).
        strategy: String,
        /// Mean accuracy across the round's test sets.
        acc_mean: f64,
        /// Minimum accuracy across the round's test sets.
        acc_min: f64,
        /// Maximum accuracy across the round's test sets.
        acc_max: f64,
        /// Labeled points added to the training set this round.
        points_added: u64,
        /// Number of suggested half-space intervals this round.
        regions: u64,
        /// Mean ALE cross-model std over all grid cells (0 if no ALE).
        ale_std_mean: f64,
        /// Max ALE cross-model std over all grid cells (0 if no ALE).
        ale_std_max: f64,
    },
    /// The feedback loop suggested under-explored regions for a feature,
    /// with the ALE mean±std band they were derived from.
    RegionSuggested {
        /// Feature index.
        feature: u64,
        /// Feature name.
        name: String,
        /// Std threshold above which a cell counts as uncertain.
        threshold: f64,
        /// Suggested `[lo, hi]` intervals in feature units.
        intervals: Vec<(f64, f64)>,
        /// ALE grid cell centers.
        grid: Vec<f64>,
        /// Cross-model mean ALE value per cell.
        mean: Vec<f64>,
        /// Cross-model std of the ALE value per cell.
        std: Vec<f64>,
    },
    /// The declared search space: every family's hyperparameter
    /// dimensions with their ranges, scales, and categorical choices.
    /// Emitted once per run, before the first trial (see
    /// [`claim_search_space_emission`]).
    SearchSpace {
        /// One entry per model family, in registration order.
        families: Vec<SpaceFamily>,
    },
    /// Provenance of one computed interpretability curve.
    AleCurveComputed {
        /// Feature index the curve explains.
        feature: u64,
        /// Name of the explained model.
        model: String,
        /// Curve method (`ale` or `pdp`).
        method: String,
        /// Number of grid points.
        grid_points: u64,
        /// Number of data rows the curve was computed over.
        rows: u64,
    },
    /// Per-feature distribution summary of one split (train/eval) at one
    /// feedback round, feeding the quality plane's drift scores.
    /// Additive event type, no schema bump (see the versioning policy).
    DatasetProfile {
        /// Process-wide round sequence number.
        round: u64,
        /// Split name (`train` or `eval`).
        split: String,
        /// Rows in the split.
        rows: u64,
        /// Rows per class (class balance), class-index order.
        class_counts: Vec<u64>,
        /// Per-feature summaries with fixed-edge histograms.
        features: Vec<crate::quality::FeatureProfile>,
    },
    /// Raw model-quality tallies of one feedback round, computed from
    /// the refit ensemble's eval predictions. Carries only counts and
    /// sums; accuracy/PRF1/ECE are derived on the read side so a
    /// recompute from the ledger is byte-identical. Additive event
    /// type, no schema bump.
    ModelDiagnostics {
        /// Process-wide round sequence number.
        round: u64,
        /// Strategy applied this round.
        strategy: String,
        /// Eval rows the tallies cover.
        rows: u64,
        /// Class names, confusion-matrix order.
        classes: Vec<String>,
        /// Confusion matrix, `confusion[true][pred]`.
        confusion: Vec<Vec<u64>>,
        /// Multiclass Brier score (mean over rows of the squared
        /// probability-vector error).
        brier: f64,
        /// Predictions per reliability confidence bin.
        bin_count: Vec<u64>,
        /// Sum of predicted max-probabilities per confidence bin.
        bin_conf_sum: Vec<f64>,
        /// Correct predictions per confidence bin.
        bin_hit: Vec<u64>,
        /// Mean ALE ±σ band width (2σ) over all grid cells; 0 without
        /// ALE feedback.
        ale_band_width: f64,
    },
}

impl LedgerEvent {
    /// Serialize as one JSON line (no trailing newline) with fixed field
    /// order. Pinned by the `ledger_golden` test in `aml-bench`.
    pub fn to_json_line(&self) -> String {
        match self {
            LedgerEvent::TrialStarted {
                trial,
                rung,
                family,
                config,
                params,
            } => {
                let mut out = format!(
                    "{{\"type\":\"trial_started\",\"trial\":{trial},\"rung\":{rung},\"family\":{},\"config\":{},\"params\":{{",
                    string_literal(family),
                    string_literal(config),
                );
                for (i, (name, value)) in params.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", string_literal(name), value.to_json());
                }
                out.push_str("}}");
                out
            }
            LedgerEvent::TrialFinished {
                trial,
                rung,
                family,
                score,
            } => format!(
                "{{\"type\":\"trial_finished\",\"trial\":{trial},\"rung\":{rung},\"family\":{},\"score\":{}}}",
                string_literal(family),
                number(*score, Shortest),
            ),
            LedgerEvent::TrialFailed {
                trial,
                rung,
                family,
                reason,
            } => format!(
                "{{\"type\":\"trial_failed\",\"trial\":{trial},\"rung\":{rung},\"family\":{},\"reason\":{}}}",
                string_literal(family),
                string_literal(reason),
            ),
            LedgerEvent::EnsembleSelected { val_score, members } => {
                let mut out = format!(
                    "{{\"type\":\"ensemble_selected\",\"val_score\":{},\"members\":[",
                    number(*val_score, Shortest)
                );
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"trial\":{},\"family\":{},\"weight\":{},\"score\":{}}}",
                        m.trial,
                        string_literal(&m.family),
                        number(m.weight, Shortest),
                        number(m.score, Shortest),
                    );
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::RoundCompleted {
                round,
                strategy,
                acc_mean,
                acc_min,
                acc_max,
                points_added,
                regions,
                ale_std_mean,
                ale_std_max,
            } => format!(
                "{{\"type\":\"round_completed\",\"round\":{round},\"strategy\":{},\"acc_mean\":{},\"acc_min\":{},\"acc_max\":{},\"points_added\":{points_added},\"regions\":{regions},\"ale_std_mean\":{},\"ale_std_max\":{}}}",
                string_literal(strategy),
                number(*acc_mean, Shortest),
                number(*acc_min, Shortest),
                number(*acc_max, Shortest),
                number(*ale_std_mean, Shortest),
                number(*ale_std_max, Shortest),
            ),
            LedgerEvent::RegionSuggested {
                feature,
                name,
                threshold,
                intervals,
                grid,
                mean,
                std,
            } => {
                let mut ivals = String::from("[");
                for (i, (lo, hi)) in intervals.iter().enumerate() {
                    if i > 0 {
                        ivals.push(',');
                    }
                    let _ = write!(ivals, "[{},{}]", number(*lo, Shortest), number(*hi, Shortest));
                }
                ivals.push(']');
                format!(
                    "{{\"type\":\"region_suggested\",\"feature\":{feature},\"name\":{},\"threshold\":{},\"intervals\":{ivals},\"grid\":{},\"mean\":{},\"std\":{}}}",
                    string_literal(name),
                    number(*threshold, Shortest),
                    f64_array(grid, Shortest),
                    f64_array(mean, Shortest),
                    f64_array(std, Shortest),
                )
            }
            LedgerEvent::SearchSpace { families } => {
                let mut out = String::from("{\"type\":\"search_space\",\"families\":[");
                for (i, fam) in families.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"family\":{},\"dims\":[", string_literal(&fam.family));
                    for (j, d) in fam.dims.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let mut choices = String::from("[");
                        for (k, c) in d.choices.iter().enumerate() {
                            if k > 0 {
                                choices.push(',');
                            }
                            choices.push_str(&string_literal(c));
                        }
                        choices.push(']');
                        let _ = write!(
                            out,
                            "{{\"name\":{},\"kind\":{},\"scale\":{},\"lo\":{},\"hi\":{},\"choices\":{choices}}}",
                            string_literal(&d.name),
                            string_literal(&d.kind),
                            string_literal(&d.scale),
                            number(d.lo, Shortest),
                            number(d.hi, Shortest),
                        );
                    }
                    out.push_str("]}");
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::AleCurveComputed {
                feature,
                model,
                method,
                grid_points,
                rows,
            } => format!(
                "{{\"type\":\"ale_curve\",\"feature\":{feature},\"model\":{},\"method\":{},\"grid_points\":{grid_points},\"rows\":{rows}}}",
                string_literal(model),
                string_literal(method),
            ),
            LedgerEvent::DatasetProfile {
                round,
                split,
                rows,
                class_counts,
                features,
            } => {
                let mut out = format!(
                    "{{\"type\":\"dataset_profile\",\"round\":{round},\"split\":{},\"rows\":{rows},\"class_counts\":{},\"features\":[",
                    string_literal(split),
                    u64_array(class_counts),
                );
                for (i, f) in features.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&f.to_json());
                }
                out.push_str("]}");
                out
            }
            LedgerEvent::ModelDiagnostics {
                round,
                strategy,
                rows,
                classes,
                confusion,
                brier,
                bin_count,
                bin_conf_sum,
                bin_hit,
                ale_band_width,
            } => {
                let mut out = format!(
                    "{{\"type\":\"model_diagnostics\",\"round\":{round},\"strategy\":{},\"rows\":{rows},\"classes\":[",
                    string_literal(strategy),
                );
                for (i, c) in classes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&string_literal(c));
                }
                out.push_str("],\"confusion\":[");
                for (i, row) in confusion.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&u64_array(row));
                }
                let _ = write!(
                    out,
                    "],\"brier\":{},\"bin_count\":{},\"bin_conf_sum\":{},\"bin_hit\":{},\"ale_band_width\":{}}}",
                    number(*brier, Shortest),
                    u64_array(bin_count),
                    f64_array(bin_conf_sum, Shortest),
                    u64_array(bin_hit),
                    number(*ale_band_width, Shortest),
                );
                out
            }
        }
    }
}

/// Whether any installed sink consumes ledger events — the hot-path gate
/// for emission (one relaxed atomic load).
static LEDGER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether a ledger-consuming sink is installed.
#[inline]
pub fn active() -> bool {
    LEDGER_ACTIVE.load(Ordering::Relaxed)
}

pub(crate) fn set_active(on: bool) {
    LEDGER_ACTIVE.store(on, Ordering::Release);
}

/// Deliver `event` to every installed ledger-consuming sink. No-op when
/// none is installed; prefer [`emit_with`] when building the event
/// allocates.
pub fn emit(event: &LedgerEvent) {
    if active() {
        crate::searchview::observe(event);
        crate::quality::observe(event);
        crate::sink::emit_ledger_event(event);
    }
}

/// Build (lazily) and deliver a ledger event. The closure only runs when
/// a ledger sink is installed, so emission sites stay allocation-free in
/// the common no-sink case.
#[inline]
pub fn emit_with(f: impl FnOnce() -> LedgerEvent) {
    if active() {
        let event = f();
        crate::searchview::observe(&event);
        crate::quality::observe(&event);
        crate::sink::emit_ledger_event(&event);
    }
}

/// Whether this run's `search_space` event has already been emitted.
/// The search loop runs once per strategy/round within a workload, but
/// the declared space never changes — one descriptor line per run keeps
/// the ledger lean and the 1-vs-N-worker sorted-line identity intact.
static SEARCH_SPACE_EMITTED: AtomicBool = AtomicBool::new(false);

/// Claim the right to emit this run's single `search_space` event.
/// Returns `true` exactly once per run (until [`reset_search_space_gate`]).
/// Callers must only claim while [`active`] — claiming with no sink
/// listening would silently swallow the event for the armed run.
pub fn claim_search_space_emission() -> bool {
    SEARCH_SPACE_EMITTED
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
}

/// Mark the `search_space` event as already emitted without claiming it —
/// the `--resume` path: the checkpointed run's ledger already carries the
/// line, and appending a second copy would break resume byte-identity.
pub fn mark_search_space_emitted() {
    SEARCH_SPACE_EMITTED.store(true, Ordering::Relaxed);
}

/// Re-arm the once-per-run `search_space` gate; called when sinks finish
/// so the next run in the same process gets its own descriptor line.
pub fn reset_search_space_gate() {
    SEARCH_SPACE_EMITTED.store(false, Ordering::Relaxed);
}

/// Process-wide feedback-round sequence counter (see [`next_round`]).
static NEXT_ROUND: AtomicU64 = AtomicU64::new(0);

/// Next process-wide feedback-round sequence number (0, 1, 2, …).
/// Strategies run sequentially within a workload, so this is
/// deterministic for a given run.
pub fn next_round() -> u64 {
    NEXT_ROUND.fetch_add(1, Ordering::Relaxed)
}

/// Fast-forward the round counter so a `--resume`d run continues the
/// sequence where the checkpointed run left off — round numbers in the
/// appended ledger lines must match the uninterrupted run's.
pub fn set_next_round(next: u64) {
    NEXT_ROUND.store(next, Ordering::Relaxed);
}

/// Ledger sink: one JSON line per [`LedgerEvent`], preceded by a header
/// line identifying the run and the schema version:
///
/// ```text
/// {"type":"ledger","schema_version":1,"run_id":"…","workload":"…","seed":1,"git":"…"}
/// ```
///
/// Ignores span closes entirely; write failures are counted in the
/// `telemetry.events_dropped` counter rather than crashing the run.
pub struct LedgerJsonlSink {
    target: String,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl LedgerJsonlSink {
    /// Create (truncate) `path` and write the ledger header line.
    pub fn create(path: &Path, header: &RunHeader) -> std::io::Result<LedgerJsonlSink> {
        let file: Box<dyn Write + Send> = Box::new(std::fs::File::create(path)?);
        LedgerJsonlSink::from_writer(file, &path.display().to_string(), header)
    }

    /// Reopen an existing ledger for append, without writing a header —
    /// the resume path: the original run's header (and the rounds kept by
    /// the checkpoint) are already in the file. The caller is responsible
    /// for truncating the file to the checkpoint's recorded length first.
    pub fn append(path: &Path) -> std::io::Result<LedgerJsonlSink> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(LedgerJsonlSink {
            target: path.display().to_string(),
            writer: Mutex::new(BufWriter::new(Box::new(file))),
        })
    }

    /// Wrap an arbitrary writer (tests inject failing writers here).
    pub fn from_writer(
        writer: Box<dyn Write + Send>,
        target: &str,
        header: &RunHeader,
    ) -> std::io::Result<LedgerJsonlSink> {
        let mut writer = BufWriter::new(writer);
        writeln!(
            writer,
            "{{\"type\":\"ledger\",\"schema_version\":{LEDGER_SCHEMA_VERSION},\"run_id\":{},\"workload\":{},\"seed\":{},\"git\":{}}}",
            string_literal(&header.run_id),
            string_literal(&header.workload),
            header.seed,
            string_literal(&header.git),
        )?;
        Ok(LedgerJsonlSink {
            target: target.to_string(),
            writer: Mutex::new(writer),
        })
    }
}

impl Sink for LedgerJsonlSink {
    fn on_span_close(&self, _event: &SpanEvent) {}

    fn on_ledger_event(&self, event: &LedgerEvent) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if writeln!(w, "{}", event.to_json_line()).is_err() {
            crate::counter_add("telemetry.events_dropped", 1);
        }
    }

    fn wants_ledger(&self) -> bool {
        true
    }

    fn flush_now(&self) -> std::io::Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }

    fn finish(&self, _snapshot: &Snapshot) -> std::io::Result<()> {
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }

    fn target(&self) -> String {
        self.target.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let line = LedgerEvent::TrialFinished {
            trial: 1,
            rung: 0,
            family: "mlp".into(),
            score: f64::NAN,
        }
        .to_json_line();
        assert!(line.contains("\"score\":null"), "{line}");
    }

    #[test]
    fn trial_started_params_render_as_trailing_typed_map() {
        let line = LedgerEvent::TrialStarted {
            trial: 7,
            rung: 0,
            family: "knn".into(),
            config: "KnnConfig { k: 5 }".into(),
            params: vec![
                ("k".into(), ParamValue::Int(5)),
                ("weights".into(), ParamValue::Cat("distance".into())),
                ("smoothing".into(), ParamValue::Float(1e-7)),
            ],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"trial_started\",\"trial\":7,\"rung\":0,\"family\":\"knn\",\"config\":\"KnnConfig { k: 5 }\",\"params\":{\"k\":5,\"weights\":\"distance\",\"smoothing\":0.0000001}}"
        );
    }

    #[test]
    fn search_space_line_describes_every_dimension() {
        let line = LedgerEvent::SearchSpace {
            families: vec![SpaceFamily {
                family: "knn".into(),
                dims: vec![
                    SpaceDim {
                        name: "k".into(),
                        kind: "int".into(),
                        scale: "linear".into(),
                        lo: 1.0,
                        hi: 25.0,
                        choices: vec![],
                    },
                    SpaceDim {
                        name: "weights".into(),
                        kind: "cat".into(),
                        scale: "linear".into(),
                        lo: 0.0,
                        hi: 0.0,
                        choices: vec!["uniform".into(), "distance".into()],
                    },
                ],
            }],
        }
        .to_json_line();
        assert_eq!(
            line,
            "{\"type\":\"search_space\",\"families\":[{\"family\":\"knn\",\"dims\":[{\"name\":\"k\",\"kind\":\"int\",\"scale\":\"linear\",\"lo\":1,\"hi\":25,\"choices\":[]},{\"name\":\"weights\",\"kind\":\"cat\",\"scale\":\"linear\",\"lo\":0,\"hi\":0,\"choices\":[\"uniform\",\"distance\"]}]}]}"
        );
    }

    #[test]
    fn search_space_gate_claims_once_until_reset() {
        let _guard = crate::test_lock::hold();
        reset_search_space_gate();
        assert!(claim_search_space_emission());
        assert!(!claim_search_space_emission(), "second claim must fail");
        reset_search_space_gate();
        assert!(claim_search_space_emission(), "reset re-arms the gate");
        mark_search_space_emitted();
        reset_search_space_gate();
    }

    #[test]
    fn ledger_sink_writes_header_and_event_lines() {
        let dir = std::env::temp_dir().join(format!("aml_ledger_sink_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let header = RunHeader {
            run_id: "w-s1-p1".into(),
            workload: "w".into(),
            seed: 1,
            git: "abc".into(),
        };
        let sink = LedgerJsonlSink::create(&path, &header).unwrap();
        sink.on_ledger_event(&LedgerEvent::TrialFailed {
            trial: 3,
            rung: 1,
            family: "mlp".into(),
            reason: "error".into(),
        });
        sink.finish(&Snapshot::default()).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0],
            "{\"type\":\"ledger\",\"schema_version\":1,\"run_id\":\"w-s1-p1\",\"workload\":\"w\",\"seed\":1,\"git\":\"abc\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"trial_failed\",\"trial\":3,\"rung\":1,\"family\":\"mlp\",\"reason\":\"error\"}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Fails every write; exercises the ledger's drop accounting.
    struct FailingWriter;

    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn failed_ledger_writes_count_as_dropped_events() {
        let _guard = crate::test_lock::hold();
        crate::set_level(crate::TelemetryLevel::Summary);
        crate::global().reset();
        // The header line fits in the BufWriter's buffer, so creation
        // succeeds even over a dead writer — same as the event sink.
        let sink =
            LedgerJsonlSink::from_writer(Box::new(FailingWriter), "failing", &RunHeader::default())
                .unwrap();
        // An event larger than the buffer forces a real write — which
        // fails and must be accounted, not silently lost.
        sink.on_ledger_event(&LedgerEvent::TrialFailed {
            trial: 1,
            rung: 0,
            family: "x".repeat(16 * 1024),
            reason: "error".into(),
        });
        let snap = crate::global().snapshot();
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "telemetry.events_dropped" && *v >= 1),
            "{:?}",
            snap.counters
        );
        assert!(sink.finish(&snap).is_err(), "flush over a dead writer");
        crate::set_level(crate::TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn emit_with_skips_closure_when_inactive() {
        let _guard = crate::test_lock::hold();
        assert!(!active(), "no ledger sink should be installed here");
        let mut ran = false;
        emit_with(|| {
            ran = true;
            LedgerEvent::TrialFailed {
                trial: 0,
                rung: 0,
                family: "x".into(),
                reason: "error".into(),
            }
        });
        assert!(!ran, "closure must not run without a ledger sink");
    }
}
