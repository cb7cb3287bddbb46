//! `perfbench` — end-to-end and per-layer benchmark of the ALE feedback
//! loop, on two workloads (see `perfbench/README.md`).
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scream|firewall --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs with telemetry off and prints the end-to-end metrics;
//! `--trace 1` pairs untraced and traced passes and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//!
//! The same executable is also the `amlserve` server (`perfbench
//! amlserve ...`) and its job worker (`perfbench --worker <jobdir>`),
//! both thin wrappers over `aml_bench::amlserve`, for the serve probe of
//! firewall's traced run.

mod batch;
mod digests;
mod layers;
mod machine;
mod serve;
mod stats;

use aml_bench::amlserve::{run_server, run_worker, ServerConfig};
use aml_telemetry::{json_string_literal, TelemetryLevel};
use batch::{Batch, THREADS};
use layers::{Layers, Totals};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload scream|firewall --seed N --seconds S --trace 0|1
       perfbench --print-digests --workload scream|firewall";

/// End-to-end metrics, reported by every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ale_round_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// Process starts per input set of a run; the median of them all is
/// `setup_s`. They are spread between the passes, so the machine's drift
/// over the run moves them as it moves the passes.
const SETUP_PROBES_PER_PASS: usize = 5;

/// Process starts before the first pass, unmeasured, so the executable's
/// pages are as warm for the first measured start as for the last.
const SETUP_WARM_UPS: usize = 3;

struct Args {
    workload: Batch,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
    setup_probe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Batch::Scream,
        name: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        print_digests: false,
        setup_probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                args.name = value()?;
                args.workload = match args.name.as_str() {
                    "scream" => Batch::Scream,
                    "firewall" => Batch::Firewall,
                    other => return Err(format!("unknown workload '{other}'")),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            "--print-digests" => args.print_digests = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.name.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A run's outcome: metrics in report order, operations attempted and
/// failed, and whether every output check passed.
struct Report {
    metrics: Vec<(String, String, f64)>,
    attempted: usize,
    failed: usize,
    correct: bool,
    /// Extra human-readable lines (sample counts and the like).
    notes: Vec<String>,
}

impl Report {
    fn print(&mut self) {
        println!("{:<40} {:>16}  unit", "metric", "value");
        for (name, unit, value) in &mut self.metrics {
            if !value.is_finite() {
                self.correct = false;
                *value = 0.0;
            }
            println!("{name:<40} {value:>16.6}  {unit}");
        }
        println!(
            "{:<40} {:>16.6}  ratio ({} of {} operations failed)",
            "failed_frac",
            stats::failed_frac(self.failed, self.attempted),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            println!("{note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_string_literal(name),
                    json_string_literal(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

fn end_to_end(values: [f64; 7]) -> Vec<(String, String, f64)> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (n.to_string(), u.to_string(), v))
        .collect()
}

fn per_layer(layers: &Layers) -> Vec<(String, String, f64)> {
    layers::catalogue()
        .into_iter()
        .map(|(n, u)| {
            let v = layers.get(&n).copied().unwrap_or(0.0);
            (n, u.to_string(), v)
        })
        .collect()
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(f64::NAN)
}

fn peak_rss_mb() -> f64 {
    machine::vm_hwm_kb("self").unwrap_or(0) as f64 / 1024.0
}

/// Set-up time: start `count` fresh processes and push, for each, the
/// time from spawn until it would make its first workload call.
fn probe_setup(name: &str, seed: u64, count: usize, samples: &mut Vec<f64>) {
    let exe = std::env::current_exe().expect("current_exe");
    for _ in 0..count {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", name, "--seed"])
            .arg(seed.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn setup probe");
        let mut line = String::new();
        let ready = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line).is_ok())
            .unwrap_or(false);
        let elapsed = started.elapsed().as_secs_f64();
        let _ = child.wait();
        if ready && line.trim() == "ready" {
            samples.push(elapsed);
        }
    }
}

/// Input set of pass `i` of a run at `seed`.
fn input_index(seed: u64, i: usize, n: usize) -> usize {
    ((seed % n as u64) as usize + i) % n
}

/// Whether another unit of work of the typical length fits the budget.
fn fits(start: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

/// Percentile `q` of the rounds of one pass.
fn pass_round_percentile(p: &batch::Pass, q: f64) -> f64 {
    let walls: Vec<f64> = p.rounds.iter().map(|r| r.wall_s).collect();
    stats::percentile(&walls, q).unwrap_or(f64::NAN)
}

fn run_batch(w: Batch, args: &Args) -> Report {
    if args.trace {
        return trace_batch(w, args);
    }
    probe_setup(&args.name, args.seed, SETUP_WARM_UPS, &mut Vec::new());
    let mut setups = Vec::new();
    // Whole cycles through the corpus, starting where the seed says, so
    // every run measures the same inputs; another cycle only if it fits.
    let n = w.n_inputs();
    let start = Instant::now();
    let mut passes = Vec::new();
    while fits(start, passes.len() / n, args.seconds) {
        for _ in 0..n {
            let idx = input_index(args.seed, passes.len(), n);
            probe_setup(&args.name, args.seed, SETUP_PROBES_PER_PASS, &mut setups);
            passes.push(batch::run_pass(w, idx));
        }
    }
    let rounds: Vec<&batch::Round> = passes.iter().flat_map(|p| &p.rounds).collect();
    let round_s: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    // Per pass, the mean of its ALE rounds: free-sampling and pool ALE
    // rounds differ several-fold, so a median over single rounds would
    // sit between the two groups.
    let ale_s: Vec<f64> = passes
        .iter()
        .map(|p| {
            let ale: Vec<f64> = p
                .rounds
                .iter()
                .filter(|r| batch::is_ale(r.strategy))
                .map(|r| r.wall_s)
                .collect();
            ale.iter().sum::<f64>() / ale.len() as f64
        })
        .collect();
    let per_pass = |q: f64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| pass_round_percentile(p, q) * 1e3)
            .collect()
    };
    let failed = rounds.iter().filter(|r| !r.ok).count();
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    Report {
        metrics: end_to_end([
            median(&setups),
            median(&wall),
            median(&ale_s),
            peak_rss_mb(),
            median(&per_pass(0.5)),
            median(&per_pass(0.95)),
            round_s.len() as f64 / round_s.iter().sum::<f64>(),
        ]),
        attempted: rounds.len(),
        failed,
        correct: true,
        notes: vec![format!(
            "passes {} ({} cycle(s) of {n} input sets) | rounds {}",
            passes.len(),
            passes.len() / n,
            rounds.len(),
        )],
    }
}

/// One pass with telemetry on, a ledger summary collector installed,
/// and both taken down again after it.
fn traced_pass(w: Batch, idx: usize) -> (batch::Pass, u64) {
    aml_telemetry::set_level(TelemetryLevel::Summary);
    let summary = aml_core::summary::install_collector();
    let pass = batch::run_pass(w, idx);
    aml_telemetry::sink::finish(&aml_telemetry::Snapshot::default());
    aml_telemetry::set_level(TelemetryLevel::Off);
    (pass, summary.snapshot().trials_failed)
}

fn trace_batch(w: Batch, args: &Args) -> Report {
    aml_telemetry::global().reset();
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut traced = Vec::new();
    let mut trials_failed = 0;
    let mut attempted = 0;
    let mut failed = 0;
    while fits(start, pairs.len(), args.seconds) {
        let idx = input_index(args.seed, pairs.len(), w.n_inputs());
        // Alternate which pass of a pair runs first, so warm caches and
        // machine drift do not bias the overhead one way.
        let (plain, (pass, tf)) = if pairs.len() % 2 == 0 {
            let plain = batch::run_pass(w, idx);
            (plain, traced_pass(w, idx))
        } else {
            let traced = traced_pass(w, idx);
            (batch::run_pass(w, idx), traced)
        };
        trials_failed += tf;
        for r in plain.rounds.iter().chain(&pass.rounds) {
            attempted += 1;
            failed += usize::from(!r.ok);
        }
        pairs.push((plain.wall_s, pass.wall_s));
        traced.push(pass);
    }
    let n = traced.len() as f64;
    let totals = Totals::from_snapshot(&aml_telemetry::global().snapshot());
    let mut l = Layers::new();
    layers::from_totals(&totals, n, THREADS, &mut l);
    let sum = |f: fn(&batch::Pass) -> f64| traced.iter().map(f).sum::<f64>();
    let gen_s = sum(|p| p.gen_s);
    let wall_s = sum(|p| p.wall_s) / n;
    let share = |layer_s: f64| {
        format!(
            "{:.1} of {wall_s:.1} s ({:.0}%)",
            layer_s,
            100.0 * layer_s / wall_s
        )
    };
    let mut notes = vec![format!(
        "traced passes {} (each paired with an untraced one, alternating which runs first)",
        traced.len()
    )];
    match w {
        Batch::Scream => {
            l.insert("netsim.datagen_s".into(), gen_s / n);
            let rows = sum(|p| p.gen_rows as f64);
            l.insert("netsim.scenarios_per_s".into(), rows / gen_s);
            l.insert("netsim.oracle_s".into(), sum(|p| p.oracle_s) / n);
            l.insert(
                "netsim.oracle_rows".into(),
                sum(|p| p.oracle_rows as f64) / n,
            );
            let netsim_s = (gen_s + sum(|p| p.oracle_s)) / n;
            notes.push(format!(
                "netsim datagen + oracle per traced pass: {}",
                share(netsim_s)
            ));
        }
        Batch::Firewall => {
            l.insert("fwgen.generate_s".into(), gen_s / n);
            let fit_band_s =
                (totals.span_s("automl.fit") + totals.span_s("interpret.variance.band")) / n;
            notes.push(format!(
                "automl fits + ALE bands per traced pass: {}",
                share(fit_band_s)
            ));
        }
    }
    for s in w.strategies() {
        let walls: Vec<f64> = traced
            .iter()
            .flat_map(|p| &p.rounds)
            .filter(|r| r.strategy == *s)
            .map(|r| r.wall_s)
            .collect();
        l.insert(format!("core.round_s.{}", batch::slug(*s)), median(&walls));
    }
    l.insert("automl.trials_failed".into(), trials_failed as f64 / n);
    l.insert(
        "telemetry.trace_overhead_frac".into(),
        stats::trace_overhead_frac(&pairs).unwrap_or(f64::NAN),
    );
    let first = &traced[0];
    let probe_ok = layers::models_probe(&first.train, &first.test, args.seed, &mut l);
    if w == Batch::Firewall {
        let (a, f) = serve_probe(args.seed, &mut l);
        attempted += a;
        failed += f;
    }
    // A cache hit must not silently remove netsim from the scream loop.
    let netsim_ran = w != Batch::Scream || totals.counter("netsim.sim.runs") > 0;
    if !netsim_ran {
        eprintln!("[perfbench] scream traced run made no netsim simulations");
    }
    Report {
        metrics: per_layer(&l),
        attempted,
        failed,
        correct: probe_ok && netsim_ran,
        notes,
    }
}

/// Work directory for server data, inside the checkout.
fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()))
}

fn remove_work_dir(work: &Path) {
    let _ = std::fs::remove_dir_all(work);
    let _ = std::fs::remove_dir(".bench_work");
}

/// Start `amlserve` in `work`; the run cannot go on without it.
fn start_server(work: &Path) -> serve::Server {
    let exe = std::env::current_exe().expect("current_exe");
    serve::Server::start(&exe, work).unwrap_or_else(|e| {
        eprintln!("[perfbench] cannot start amlserve: {e}");
        remove_work_dir(work);
        exit(1);
    })
}

/// The serve layer's figures over one probe: client timers,
/// `result.json` worker walls and the `/metrics` queue gauge.
fn serve_layers(probe: &serve::Probe, l: &mut Layers) {
    let jobs = &probe.jobs;
    l.insert(
        "serve.submit_ms_p50".into(),
        median(&jobs.iter().map(|j| j.submit_ms).collect::<Vec<_>>()),
    );
    l.insert(
        "serve.worker_s_p50".into(),
        median(&serve::ok_values(jobs, |j| j.worker_s)),
    );
    l.insert(
        "serve.overhead_ms_p50".into(),
        median(&serve::ok_values(jobs, |j| {
            j.worker_s.map(|w| j.latency_ms - w * 1e3)
        })),
    );
    l.insert("serve.backlog_max".into(), probe.queued_gauge_max as f64);
    l.insert(
        "serve.refused".into(),
        jobs.iter().filter(|j| j.refused).count() as f64,
    );
    l.insert(
        "serve.gen_lag_ms_max".into(),
        jobs.iter().map(|j| j.lag_ms).fold(0.0, f64::max),
    );
}

/// The serve layer, measured in firewall's traced run: a fresh
/// `amlserve`, a few unmeasured jobs to warm it, then
/// [`serve::PROBE_JOBS`] jobs at [`serve::RATE`]. Returns the jobs
/// attempted and failed.
fn serve_probe(seed: u64, l: &mut Layers) -> (usize, usize) {
    let work = work_dir();
    let server = start_server(&work);
    serve::run_jobs(&server, 20.0, 4, 0);
    let first = input_index(seed, 0, serve::N_INPUTS);
    let probe = serve::run_jobs(&server, serve::RATE, serve::PROBE_JOBS, first);
    server.stop();
    remove_work_dir(&work);
    serve_layers(&probe, l);
    let failed = probe.jobs.iter().filter(|j| !j.ok()).count();
    (probe.jobs.len(), failed)
}

/// Print the pinned-output tables for `digests.rs`; firewall's also
/// pins the serve probe's jobs.
fn print_digests(w: Batch, name: &str) {
    println!("pub const {}: &[(u64, &[u64])] = &[", name.to_uppercase());
    for idx in 0..w.n_inputs() {
        let pass = batch::run_pass(w, idx);
        eprintln!(
            "input {idx}: pass {:.3} s, inputs generated in {:.3} s",
            pass.wall_s, pass.gen_s
        );
        let rounds: Vec<String> = pass
            .digest
            .1
            .iter()
            .map(|d| format!("0x{d:016x}"))
            .collect();
        println!("    (0x{:016x}, &[{}]),", pass.digest.0, rounds.join(", "));
    }
    println!("];");
    if w != Batch::Firewall {
        return;
    }
    let work = work_dir();
    let server = start_server(&work);
    let run = serve::run_jobs(&server, 4.0, serve::N_INPUTS, 0);
    println!("pub const SERVE_FINAL_ACC: &[u64] = &[");
    for job in &run.jobs {
        let acc = job
            .id
            .as_ref()
            .and_then(|id| serve::final_acc(&server.data.join("jobs").join(id)));
        match acc {
            Some(acc) => println!("    0x{:016x}, // {acc}", acc.to_bits()),
            None => println!("    // input {}: no result", job.input),
        }
    }
    println!("];");
    server.stop();
    remove_work_dir(&work);
}

/// `perfbench --worker <jobdir>`: run one amlserve job.
fn worker_mode(argv: &[String]) -> ! {
    let Some(dir) = argv.get(1) else {
        eprintln!("--worker requires a job directory");
        exit(2);
    };
    // The server adds `--inject-crash` only under a fault plan, and the
    // probe's server has none.
    exit(run_worker(Path::new(dir), false));
}

/// `perfbench amlserve --addr A --data D`: the server, with
/// [`serve::WORKERS`] workers.
fn server_mode(argv: &[String]) -> ! {
    let mut cfg = ServerConfig::new(".bench_work/amlserve");
    cfg.workers = serve::WORKERS;
    cfg.tenant_max_running = serve::WORKERS;
    // One tenant submits every job, and they must not exhaust its token
    // budget or overflow the queue into refusals.
    cfg.tenant_budget = u64::MAX / 2;
    cfg.queue_cap = 256;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} expects a value");
            exit(2);
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value.clone(),
            "--data" => cfg.data_dir = PathBuf::from(value),
            other => {
                eprintln!("unknown amlserve flag '{other}'");
                exit(2);
            }
        }
    }
    if let Err(e) = run_server(cfg) {
        eprintln!("amlserve: {e}");
        exit(1);
    }
    exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--worker") => worker_mode(&argv),
        Some("amlserve") => server_mode(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };
    aml_telemetry::set_level(TelemetryLevel::Off);
    if args.setup_probe {
        // Everything before the first workload call is done: report it.
        println!("ready");
        return;
    }
    let w = args.workload;
    if args.print_digests {
        print_digests(w, &args.name);
        return;
    }
    let input_seeds: Vec<u64> = (0..w.n_inputs())
        .map(|i| w.input_seed(input_index(args.seed, i, w.n_inputs())))
        .collect();
    println!(
        "{}",
        machine::record(&args.name, args.seed, &input_seeds, THREADS)
    );
    run_batch(w, &args).print();
}
