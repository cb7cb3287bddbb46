//! The benchmark's own arithmetic: percentiles, the failed fraction and
//! the tracing overhead.
//! Pure functions over recorded samples, so each rule is unit-tested.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 0.5)
}

/// Percentile `q` in `[0, 1]` by linear interpolation between the
/// closest ranks of the sorted samples; `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (sorted[pos.floor() as usize], sorted[pos.ceil() as usize]);
    Some(lo + (hi - lo) * (pos - pos.floor()))
}

/// Failed operations over attempted ones (0 when nothing was attempted).
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Slowdown of traced work over the same work untraced: the median of
/// the paired ratios, minus one. Pairs with a non-positive untraced time
/// are skipped; `None` when no pair is usable.
pub fn trace_overhead_frac(pairs: &[(f64, f64)]) -> Option<f64> {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(untraced, _)| *untraced > 0.0)
        .map(|(untraced, traced)| traced / untraced)
        .collect();
    median(&ratios).map(|r| r - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_interpolate() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(percentile(&[10.0, 0.0], 1.0), Some(10.0));
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(5, 5), 1.0);
    }

    #[test]
    fn trace_overhead_is_median_paired_ratio_minus_one() {
        assert_eq!(trace_overhead_frac(&[]), None);
        assert_eq!(trace_overhead_frac(&[(0.0, 1.0)]), None);
        let pairs = [(2.0, 2.2), (1.0, 1.05), (4.0, 5.0)];
        let o = trace_overhead_frac(&pairs).unwrap();
        assert!((o - 0.1).abs() < 1e-12, "{o}");
        // Traced faster than untraced (noise) reads as a negative overhead.
        assert!(trace_overhead_frac(&[(1.0, 0.9)]).unwrap() < 0.0);
    }
}
