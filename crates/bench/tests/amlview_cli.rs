//! `amlview` driven as a process: for each plane, `--json` re-emits a
//! rendered artifact byte for byte, `--compare` diffs two inputs, and the
//! exit codes keep their contract (0 ok, 1 parse failure, 2 usage error).

use aml_telemetry::ledger::{LedgerEvent, ParamValue, SpaceDim, SpaceFamily};
use aml_telemetry::searchview::TrialRec;
use aml_telemetry::tracetree::Node;
use aml_telemetry::{crit, quality, searchview, Snapshot};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn amlview(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_amlview"))
        .args(args)
        .output()
        .expect("spawn amlview")
}

fn node(id: u64, parent: u64, name: &str, start_ns: u64, total_ns: u64, parallel: bool) -> Node {
    Node {
        id,
        parent,
        name: name.into(),
        start_ns,
        total_ns,
        parallel,
    }
}

/// A critical-path report over a small fabricated trace tree, scaled by
/// `k` so two reports differ.
fn crit_json(k: u64) -> String {
    let nodes = vec![
        node(10, 0, "bench.datagen", 0, 2_000_000 * k, false),
        node(11, 10, "netsim.scenario", 100, 700_000 * k, true),
        node(12, 10, "netsim.scenario", 200, 800_000 * k, true),
        node(20, 0, "bench.strategies", 2_100_000 * k, 1_000_000, false),
    ];
    crit::analyze(&nodes, &Snapshot::default()).render_json()
}

/// A search report over one declared family and four trials.
fn search_json(best: f64) -> String {
    let space = vec![SpaceFamily {
        family: "knn".into(),
        dims: vec![SpaceDim {
            name: "k".into(),
            kind: "int".into(),
            scale: "linear".into(),
            lo: 1.0,
            hi: 30.0,
            choices: Vec::new(),
        }],
    }];
    let trials: Vec<TrialRec> = [(1, 0.6), (5, best), (15, 0.7), (29, 0.5)]
        .iter()
        .enumerate()
        .map(|(i, &(k, score))| TrialRec {
            trial: i as u64,
            rung: 0,
            family: "knn".into(),
            params: vec![("k".into(), ParamValue::Int(k))],
            score: Some(score),
            failed: None,
        })
        .collect();
    searchview::analyze(&space, &trials, 0).render_json()
}

/// A quality report over one round's model diagnostics.
fn quality_json(hits: u64) -> String {
    let diagnostics = LedgerEvent::ModelDiagnostics {
        round: 0,
        strategy: "within_ale".into(),
        rows: 10,
        classes: vec!["a".into(), "b".into()],
        confusion: vec![vec![hits, 5 - hits], vec![1, 4]],
        brier: 0.2,
        bin_count: vec![4, 6],
        bin_conf_sum: vec![2.4, 5.1],
        bin_hit: vec![2, hits],
        ale_band_width: 0.1,
    };
    quality::report_from_events([&diagnostics], None, 0).render_json()
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn amlview_reemits_compares_and_keeps_exit_codes() {
    let dir = std::env::temp_dir().join(format!("aml_amlview_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let planes = [
        ("crit", crit_json(1), crit_json(2)),
        ("search", search_json(0.9), search_json(0.8)),
        ("quality", quality_json(4), quality_json(3)),
    ];
    for (plane, a_text, b_text) in &planes {
        let a = write(&dir, &format!("{plane}_a.json"), a_text);
        let b = write(&dir, &format!("{plane}_b.json"), b_text);
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());

        let out = amlview(&[plane, "--json", a]);
        assert_eq!(out.status.code(), Some(0), "{plane} --json: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            *a_text,
            "{plane} --json bytes"
        );

        let out = amlview(&[plane, a]);
        assert_eq!(out.status.code(), Some(0), "{plane} table: {out:?}");
        assert!(!out.stdout.is_empty(), "{plane} table is empty");

        let out = amlview(&[plane, "--compare", a, b]);
        assert_eq!(out.status.code(), Some(0), "{plane} --compare: {out:?}");
        assert!(!out.stdout.is_empty(), "{plane} --compare is empty");

        let out = amlview(&[plane, "--compare", a]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{plane} --compare with one input"
        );
    }

    let crit_file = dir.join("crit_a.json");
    let crit_file = crit_file.to_str().unwrap();
    assert_eq!(amlview(&["bogus", crit_file]).status.code(), Some(2));
    assert_eq!(amlview(&[]).status.code(), Some(2));
    let out = amlview(&["quality", crit_file]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "crit.json read as quality: {out:?}"
    );
    assert!(out.stdout.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}
