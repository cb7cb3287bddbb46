//! Bit-for-bit pin of the simulator's outputs.
//!
//! Every `SimOutcome` and `FlowStats` field of a fixed grid (all six
//! protocols × both queue disciplines × eight conditions) is rendered as
//! hex bits and compared with `outcome_golden.txt`. A label is one bit of
//! an outcome; this pin catches any change to the event order, the loss
//! draws, the RTT estimator or the delay statistics, however small.
//!
//! The golden file changes only with an intended change of simulator
//! results. Regenerate it with
//! `cargo test -p aml-netsim --test outcome_golden -- --ignored --nocapture`
//! and say why in the change that commits it.

use aml_netsim::cc::CcKind;
use aml_netsim::sim::{QueueKind, SimConfig, SimOutcome, Simulation};
use aml_netsim::NetworkCondition;

/// `(link Mbps, RTT ms, loss, flows, queue BDP multiple, seed)`.
const GRID: [(f64, f64, f64, usize, f64, u64); 8] = [
    (10.0, 40.0, 0.0, 1, 1.0, 1),
    (20.0, 60.0, 0.01, 1, 2.0, 2),
    (50.0, 20.0, 0.02, 2, 0.5, 3),
    (12.0, 50.0, 0.01, 6, 1.5, 4),
    (30.0, 80.0, 0.005, 64, 1.0, 5),
    (1.0, 200.0, 0.05, 2, 1.0, 6),
    (5.0, 150.0, 0.0, 3, 3.0, 7),
    (80.0, 10.0, 0.001, 4, 0.75, 8),
];

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render_one(out: &SimOutcome, head: &str, text: &mut String) {
    text.push_str(&format!(
        "{head} tp={} mean={} p95={} drops={}\n",
        hex(out.total_throughput_mbps),
        hex(out.mean_delay_ms),
        hex(out.p95_delay_ms),
        out.queue_drops
    ));
    for (i, f) in out.flows.iter().enumerate() {
        text.push_str(&format!(
            "  flow {i} tp={} mean={} p95={} rtt={} lost={} delivered={}\n",
            hex(f.throughput_mbps),
            hex(f.mean_delay_ms),
            hex(f.p95_delay_ms),
            hex(f.mean_rtt_ms),
            f.lost_packets,
            f.delivered_packets
        ));
    }
}

fn render_grid() -> String {
    let mut text = String::new();
    for (ci, &(mbps, rtt_ms, loss_rate, n_flows, queue_mult, seed)) in GRID.iter().enumerate() {
        let condition = NetworkCondition {
            link_rate_mbps: mbps,
            rtt_ms,
            loss_rate,
            n_flows,
        };
        for queue_kind in [QueueKind::DropTail, QueueKind::Red] {
            for kind in CcKind::ALL {
                let mut cfg = SimConfig::for_condition(condition, kind, seed);
                cfg.queue_bdp_mult = queue_mult;
                cfg.queue_kind = queue_kind;
                let out = Simulation::new(cfg)
                    .expect("grid configs are valid")
                    .run()
                    .expect("grid sims terminate");
                let head = format!("cond {ci} {queue_kind:?} {}", kind.name());
                render_one(&out, &head, &mut text);
            }
        }
    }
    text
}

#[test]
fn outcomes_match_the_golden_bits() {
    let golden = include_str!("outcome_golden.txt");
    let actual = render_grid();
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "simulator outcomes differ from outcome_golden.txt at line {}:\n  got:    {}\n  golden: {}",
            first + 1,
            actual.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>")
        );
    }
}

/// Prints the grid in the golden file's format (see the module docs).
#[test]
#[ignore]
fn print_outcome_golden() {
    print!("{}", render_grid());
}
