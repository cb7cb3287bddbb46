//! `amlview` — inspect the critical-path, search and quality reports a
//! run leaves behind.
//!
//! Each plane reads its own inputs: `crit` reads `crit.json` from
//! `--crit-out`; `search` and `quality` recompute their report from any
//! `ledger.jsonl` or read back a rendered `search.json` / `quality.json`.
//! For each input `amlview` prints the human-readable table or the pinned
//! JSON (`--json`, byte-identical to the `--*-out` artifact), or — with
//! `--compare A B` — the before/after delta someone checks around a
//! change.
//!
//! Exit codes: 0 ok, 1 input failed to parse, 2 usage error.

use aml_bench::{critview, qualityview, searchview};
use aml_telemetry::{CritReport, QualityReport, SearchReport};
use std::path::{Path, PathBuf};

const USAGE: &str = "\
amlview — print critical-path, search and quality reports from run artifacts

usage:
  amlview PLANE INPUT...
  amlview PLANE --compare A B
  amlview PLANE --json INPUT...

  PLANE                   crit     critical-path report: crit.json written by
                                   --crit-out (also served live at /crit)
                          search   search observability: ledger.jsonl written
                                   by --ledger-out, or search.json written by
                                   --search-out (told apart by shape)
                          quality  model/data quality: ledger.jsonl written by
                                   --ledger-out, or quality.json written by
                                   --quality-out (told apart by shape)
  --compare               diff two inputs — crit: wall / chain / cpu deltas,
                          per-phase totals, Amdahl ceiling, scenario costs;
                          search: fit counts, per-family best score,
                          coverage, top-importance dimension; quality: final
                          and balanced accuracy, macro F1, Brier, ECE,
                          per-feature PSI drift
  --json                  emit the pinned JSON instead of the table
                          (byte-identical to the --crit-out / --search-out /
                          --quality-out artifact; for quality, when the run
                          used no --quality-ref baseline)

exit codes: 0 ok, 1 an input failed to parse, 2 usage error";

struct Opts {
    plane: String,
    compare: bool,
    json: bool,
    inputs: Vec<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (plane, rest) = args.split_first().ok_or("expected a plane")?;
    if !["crit", "search", "quality"].contains(&plane.as_str()) {
        return Err(format!(
            "unknown plane '{plane}' (expected crit|search|quality)"
        ));
    }
    let mut opts = Opts {
        plane: plane.clone(),
        compare: false,
        json: false,
        inputs: Vec::new(),
    };
    for arg in rest {
        match arg.as_str() {
            "--compare" => opts.compare = true,
            "--json" => opts.json = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            path => opts.inputs.push(PathBuf::from(path)),
        }
    }
    if opts.compare && opts.inputs.len() != 2 {
        return Err(format!(
            "--compare expects exactly two inputs, got {}",
            opts.inputs.len()
        ));
    }
    if opts.inputs.is_empty() {
        return Err("expected at least one input".into());
    }
    Ok(opts)
}

/// How one plane reads an input and prints a report.
struct Plane<R> {
    parse: fn(&str) -> Result<R, String>,
    table: fn(&R) -> String,
    json: fn(&R) -> String,
    compare: fn(&R, &R) -> String,
}

impl<R> Plane<R> {
    fn load(&self, path: &Path) -> Result<R, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| (self.parse)(&text).map_err(|e| format!("{}: {e}", path.display())))
    }

    /// Print what `opts` asks for; returns the exit code.
    fn run(&self, opts: &Opts) -> i32 {
        if opts.compare {
            return match (self.load(&opts.inputs[0]), self.load(&opts.inputs[1])) {
                (Ok(a), Ok(b)) => {
                    print!("{}", (self.compare)(&a, &b));
                    0
                }
                (a, b) => {
                    for msg in [a.err(), b.err()].into_iter().flatten() {
                        eprintln!("error: {msg}");
                    }
                    1
                }
            };
        }
        let mut code = 0;
        for path in &opts.inputs {
            match self.load(path) {
                Ok(report) => {
                    if opts.inputs.len() > 1 {
                        println!("== {} ==", path.display());
                    }
                    let render = if opts.json { self.json } else { self.table };
                    print!("{}", render(&report));
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    code = 1;
                }
            }
        }
        code
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match opts.plane.as_str() {
        "crit" => Plane {
            parse: critview::parse_crit,
            table: CritReport::render_table,
            json: CritReport::render_json,
            compare: critview::render_compare,
        }
        .run(&opts),
        "search" => Plane {
            parse: searchview::parse_search_artifact,
            table: SearchReport::render_table,
            json: SearchReport::render_json,
            compare: searchview::render_compare,
        }
        .run(&opts),
        _ => Plane {
            parse: qualityview::parse_quality_artifact,
            table: QualityReport::render_table,
            json: QualityReport::render_json,
            compare: qualityview::render_compare,
        }
        .run(&opts),
    };
    if code != 0 {
        std::process::exit(code);
    }
}
