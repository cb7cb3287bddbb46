//! Per-span *self-time* profile with collapsed-stack (folded) output,
//! rendered from the causal trace tree ([`crate::tracetree`]).
//!
//! The registry's span aggregates answer "how long did `automl.search.run`
//! take in total?" — but a span's total includes every child span nested
//! inside it, so the totals cannot be compared to find the hot code. This
//! module attributes each node's **self** time ([`Tree::self_time`]: its
//! interval minus the union of its children's) to its logical stack —
//! the `root;child;leaf` chain of parent links, handoffs included, so a
//! worker's spans nest under the span that fanned them out. Time a span
//! spends waiting on its fan-out is *blocked*, not self. The result is
//! written in the collapsed-stack "folded" format that flamegraph tooling
//! (`flamegraph.pl`, inferno, speedscope) loads directly:
//!
//! ```text
//! bench.datagen;netsim.labeling;netsim.scenario;netsim.runner.label 853450
//! bench.strategies;core.strategy.run[Cross-ALE] 8464
//! ```
//!
//! (one line per distinct stack, value = self time in microseconds).
//! `--profile-out` arms the tree collector; nothing else is collected.

use crate::crit::{fmt_ns, Tree};
use crate::tracetree::Node;
use std::collections::HashMap;
use std::path::Path;

/// Aggregated profile entry for one distinct span stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStat {
    /// Exclusive (self) wall time, in nanoseconds.
    pub self_ns: u64,
    /// Time spent waiting on parallel children, in nanoseconds.
    pub blocked_ns: u64,
    /// Number of spans with this exact stack.
    pub calls: u64,
}

/// Fold `nodes` (any order) into `(stack, stat)` pairs, sorted by stack
/// string for deterministic output.
pub fn fold(nodes: &[Node]) -> Vec<(String, StackStat)> {
    let tree = Tree::new(nodes);
    // Distinct stacks, keyed by (parent stack, name): a node stores only
    // its stack's index, never its own copy of the string.
    let mut stacks: Vec<(String, StackStat)> = Vec::new();
    let mut index: HashMap<(usize, &str), usize> = HashMap::new();
    // The parent's stack index, set as the walk passes each parent.
    let mut parent_stack = vec![usize::MAX; nodes.len()];
    for i in tree.preorder() {
        let parent = parent_stack[i];
        let name = nodes[i].name.as_str();
        let k = *index.entry((parent, name)).or_insert_with(|| {
            let key = match stacks.get(parent) {
                Some((prefix, _)) => format!("{prefix};{name}"),
                None => name.to_string(),
            };
            stacks.push((key, StackStat::default()));
            stacks.len() - 1
        });
        for &c in &tree.children[i] {
            parent_stack[c] = k;
        }
        let split = tree.self_time(i);
        let stat = &mut stacks[k].1;
        stat.self_ns = stat.self_ns.saturating_add(split.self_ns);
        stat.blocked_ns = stat.blocked_ns.saturating_add(split.blocked_ns);
        stat.calls += 1;
    }
    stacks.sort_by(|a, b| a.0.cmp(&b.0));
    stacks
}

/// Render `entries` in collapsed-stack folded format: one
/// `stack;frames;joined <self_us>` line per stack, sorted, value in
/// microseconds. The format is pinned by a golden test.
pub fn render_folded(entries: &[(String, StackStat)]) -> String {
    let mut out = String::new();
    for (stack, stat) in entries {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&(stat.self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// Fold the collected tree, write it to `path` in folded format, and
/// return its top-10 table for the run summary.
pub fn write_folded(path: &Path) -> std::io::Result<String> {
    let entries = fold(&crate::tracetree::entries());
    std::fs::write(path, render_folded(&entries))?;
    Ok(render_top_table(&entries, 10, crate::tracetree::dropped()))
}

/// Stats aggregated per span *name* (summed over every stack whose leaf
/// is that name), sorted by self time descending — the "where did the
/// time actually go" view.
pub fn top_self_time(entries: &[(String, StackStat)]) -> Vec<(String, StackStat)> {
    let mut by_leaf: HashMap<&str, StackStat> = HashMap::new();
    for (stack, stat) in entries {
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        let e = by_leaf.entry(leaf).or_default();
        e.self_ns = e.self_ns.saturating_add(stat.self_ns);
        e.blocked_ns = e.blocked_ns.saturating_add(stat.blocked_ns);
        e.calls += stat.calls;
    }
    let mut out: Vec<(String, StackStat)> = by_leaf
        .into_iter()
        .map(|(name, stat)| (name.to_string(), stat))
        .collect();
    out.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Render the top-`n` self-time table shown in the run summary, noting
/// the `dropped` spans the collector's cap left out.
pub fn render_top_table(entries: &[(String, StackStat)], n: usize, dropped: u64) -> String {
    let top = top_self_time(entries);
    if top.is_empty() {
        return String::new();
    }
    let grand: u64 = top.iter().map(|(_, s)| s.self_ns).sum();
    let mut out = String::from("self time (exclusive, from the trace tree):\n");
    out.push_str(&format!(
        "  {:<44} {:>7} {:>11} {:>11} {:>6}\n",
        "span", "calls", "self", "blocked", "%"
    ));
    for (name, stat) in top.iter().take(n) {
        let pct = if grand == 0 {
            0.0
        } else {
            stat.self_ns as f64 * 100.0 / grand as f64
        };
        out.push_str(&format!(
            "  {:<44} {:>7} {:>11} {:>11} {:>5.1}%\n",
            name,
            stat.calls,
            fmt_ns(stat.self_ns),
            fmt_ns(stat.blocked_ns),
            pct
        ));
    }
    if dropped > 0 {
        out.push_str(&format!(
            "  ({dropped} spans closed after the {}-node cap and are missing; their recorded children fold as roots)\n",
            crate::tracetree::MAX_NODES
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_level, span, test_lock, tracetree, TelemetryLevel};

    fn run_nested_program() {
        let _root = span("test.profile.root");
        std::thread::sleep(std::time::Duration::from_millis(2));
        for _ in 0..2 {
            let _mid = span("test.profile.mid");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _leaf = span("test.profile.leaf");
        }
    }

    #[test]
    fn nested_spans_fold_into_stacks_with_self_time() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        tracetree::reset();
        tracetree::set_active(true);
        run_nested_program();
        tracetree::set_active(false);

        let nodes = tracetree::entries();
        let entries = fold(&nodes);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            vec![
                "test.profile.root",
                "test.profile.root;test.profile.mid",
                "test.profile.root;test.profile.mid;test.profile.leaf",
            ]
        );
        let get = |k: &str| entries.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("test.profile.root").calls, 1);
        assert_eq!(get("test.profile.root;test.profile.mid").calls, 2);
        assert_eq!(
            get("test.profile.root;test.profile.mid;test.profile.leaf").calls,
            2
        );

        // Self times sum to the root node's total wall time: with serial
        // children, exclusive accounting partitions the root exactly.
        let root_total = nodes
            .iter()
            .find(|n| n.name == "test.profile.root")
            .unwrap()
            .total_ns;
        let self_sum: u64 = entries.iter().map(|(_, s)| s.self_ns).sum();
        assert_eq!(self_sum, root_total);
        // The root slept ~2ms outside its children; nothing ran in
        // parallel, so nothing was blocked.
        assert!(get("test.profile.root").self_ns >= 1_000_000);
        assert!(entries.iter().all(|(_, s)| s.blocked_ns == 0));

        tracetree::reset();
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn inactive_collector_folds_nothing() {
        let _guard = test_lock::hold();
        set_level(TelemetryLevel::Summary);
        crate::global().reset();
        tracetree::reset();
        assert!(!tracetree::active());
        run_nested_program();
        assert!(fold(&tracetree::entries()).is_empty());
        assert_eq!(render_top_table(&[], 10, 0), "");
        set_level(TelemetryLevel::Off);
        crate::global().reset();
    }

    #[test]
    fn top_self_time_aggregates_by_leaf_and_sorts_desc() {
        let stat = |self_ns, blocked_ns, calls| StackStat {
            self_ns,
            blocked_ns,
            calls,
        };
        let entries = vec![
            ("a".to_string(), stat(5_000, 90_000, 1)),
            ("a;b".to_string(), stat(100_000, 0, 3)),
            ("c;b".to_string(), stat(50_000, 7_000, 2)),
        ];
        let top = top_self_time(&entries);
        assert_eq!(top[0], ("b".to_string(), stat(150_000, 7_000, 5)));
        assert_eq!(top[1], ("a".to_string(), stat(5_000, 90_000, 1)));
        let table = render_top_table(&entries, 10, 0);
        assert!(table.contains("self time"), "{table}");
        assert!(table.contains("blocked"), "{table}");
        assert!(table.contains('b'), "{table}");
        assert!(!table.contains("missing"), "{table}");
        let capped = render_top_table(&entries, 10, 42);
        assert!(capped.contains("42 spans closed after"), "{capped}");
    }

    #[test]
    fn folded_rendering_is_stable() {
        let entries = vec![
            (
                "root".to_string(),
                StackStat {
                    self_ns: 1_500,
                    blocked_ns: 0,
                    calls: 1,
                },
            ),
            (
                "root;leaf".to_string(),
                StackStat {
                    self_ns: 2_000_000,
                    blocked_ns: 0,
                    calls: 4,
                },
            ),
        ];
        assert_eq!(render_folded(&entries), "root 1\nroot;leaf 2000\n");
    }
}
