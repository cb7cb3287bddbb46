//! Pairwise significance matrices in the layout of the paper's Table 1.
//!
//! Table 1 reports, per algorithm, its balanced accuracy (`mean ± std`) and
//! p-values `P(x, y)` of the one-sided Wilcoxon test with alternative
//! "`y` has less balanced accuracy than `x`": a small `P(x, y)` says `x`
//! beats `y`. [`PairwiseMatrix`] holds the paired score vectors for every
//! algorithm and renders that table.

use crate::descriptive::Summary;
use crate::wilcoxon::{wilcoxon_signed_rank, Alternative};
use crate::{Result, StatsError};

/// One cell of the significance matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum SignificanceCell {
    /// Diagonal — an algorithm is never compared against itself.
    NotApplicable,
    /// One-sided p-value for "column is worse than row".
    P(f64),
    /// The test degenerated (all paired differences were exactly zero).
    Degenerate,
}

impl std::fmt::Display for SignificanceCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignificanceCell::NotApplicable => write!(f, "NA"),
            SignificanceCell::P(p) => {
                if *p >= 0.01 {
                    write!(f, "{p:.3}")
                } else {
                    write!(f, "{p:.2e}")
                }
            }
            SignificanceCell::Degenerate => write!(f, "degen"),
        }
    }
}

/// Paired per-test-set scores for a set of named algorithms, plus rendering
/// of the paper-style comparison table.
#[derive(Debug, Clone)]
pub struct PairwiseMatrix {
    names: Vec<String>,
    scores: Vec<Vec<f64>>,
}

impl PairwiseMatrix {
    /// Create an empty matrix.
    pub fn new() -> Self {
        PairwiseMatrix {
            names: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Register an algorithm with its per-test-set scores. All algorithms
    /// must supply the same number of scores (paired design).
    ///
    /// # Errors
    /// [`StatsError::LengthMismatch`] when the score vector length differs
    /// from previously added algorithms; [`StatsError::EmptyInput`] on an
    /// empty score vector.
    pub fn add(&mut self, name: impl Into<String>, scores: Vec<f64>) -> Result<()> {
        if scores.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if let Some(first) = self.scores.first() {
            if first.len() != scores.len() {
                return Err(StatsError::LengthMismatch {
                    left: first.len(),
                    right: scores.len(),
                });
            }
        }
        crate::check_finite(&scores)?;
        self.names.push(name.into());
        self.scores.push(scores);
        Ok(())
    }

    /// Algorithm names in insertion order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Scores of algorithm `i`.
    pub fn scores(&self, i: usize) -> &[f64] {
        &self.scores[i]
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no algorithm has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `P(row, col)`: one-sided Wilcoxon p-value for the alternative
    /// "col's scores are less than row's" (small when row beats col).
    pub fn p_value(&self, row: usize, col: usize) -> SignificanceCell {
        if row == col {
            return SignificanceCell::NotApplicable;
        }
        match wilcoxon_signed_rank(&self.scores[col], &self.scores[row], Alternative::Less) {
            Ok(r) => SignificanceCell::P(r.p_value),
            Err(_) => SignificanceCell::Degenerate,
        }
    }

    /// Per-algorithm summaries (mean ± std etc.).
    pub fn summaries(&self) -> Result<Vec<Summary>> {
        self.scores.iter().map(|s| Summary::of(s)).collect()
    }

    /// Render a table in the paper's format: one row per algorithm with its
    /// balanced accuracy and the p-values against each algorithm named in
    /// `against` (Table 1 uses "no feedback", "within ALE", "cross ALE").
    ///
    /// Unknown names in `against` are skipped silently so callers can reuse
    /// one column layout across experiments.
    pub fn render(&self, against: &[&str]) -> Result<String> {
        let cols: Vec<usize> = against
            .iter()
            .filter_map(|a| self.names.iter().position(|n| n == a))
            .collect();
        let summaries = self.summaries()?;

        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>18}",
            "Algorithm (X)", "balanced accuracy"
        ));
        for &c in &cols {
            out.push_str(&format!(" {:>22}", format!("P(X, {})", self.names[c])));
        }
        out.push('\n');
        out.push_str(&"-".repeat(28 + 19 + cols.len() * 23));
        out.push('\n');
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("{:<28} {:>18}", name, summaries[i].pct()));
            for &c in &cols {
                out.push_str(&format!(" {:>22}", self.p_value(i, c).to_string()));
            }
            out.push('\n');
        }
        Ok(out)
    }
}

impl Default for PairwiseMatrix {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> PairwiseMatrix {
        let mut m = PairwiseMatrix::new();
        m.add("weak", vec![0.5, 0.52, 0.48, 0.51, 0.49, 0.50, 0.53, 0.47])
            .unwrap();
        m.add(
            "strong",
            vec![0.7, 0.72, 0.69, 0.71, 0.68, 0.73, 0.70, 0.69],
        )
        .unwrap();
        m
    }

    #[test]
    fn diagonal_is_na() {
        let m = demo();
        assert_eq!(m.p_value(0, 0), SignificanceCell::NotApplicable);
    }

    #[test]
    fn dominating_row_has_small_p_against_dominated_column() {
        // "strong" beats "weak" on every paired set.
        let m = demo();
        match m.p_value(1, 0) {
            SignificanceCell::P(p) => assert!(p < 0.05, "P(strong, weak) = {p}"),
            other => panic!("unexpected {other:?}"),
        }
        match m.p_value(0, 1) {
            SignificanceCell::P(p) => assert!(p > 0.9, "P(weak, strong) = {p}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut m = demo();
        assert!(matches!(
            m.add("bad", vec![0.1, 0.2]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn render_contains_all_rows_and_columns() {
        let m = demo();
        let t = m.render(&["weak", "strong"]).unwrap();
        assert!(t.contains("weak"));
        assert!(t.contains("strong"));
        assert!(t.contains("P(X, weak)"));
        assert!(t.contains("NA"));
    }

    #[test]
    fn render_skips_unknown_column() {
        let m = demo();
        let t = m.render(&["nonexistent", "weak"]).unwrap();
        assert!(!t.contains("nonexistent"));
        assert!(t.contains("P(X, weak)"));
    }

    #[test]
    fn degenerate_cell_for_identical_scores() {
        let mut m = PairwiseMatrix::new();
        m.add("a", vec![0.5, 0.5, 0.5]).unwrap();
        m.add("b", vec![0.5, 0.5, 0.5]).unwrap();
        assert_eq!(m.p_value(0, 1), SignificanceCell::Degenerate);
    }

    #[test]
    fn cell_display_formats() {
        assert_eq!(SignificanceCell::P(0.123).to_string(), "0.123");
        assert_eq!(SignificanceCell::P(0.0001).to_string(), "1.00e-4");
        assert_eq!(SignificanceCell::NotApplicable.to_string(), "NA");
    }
}
