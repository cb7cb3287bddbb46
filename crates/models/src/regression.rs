//! Variance-reduction regression tree — the weak learner inside
//! [`crate::gbdt::GradientBoosting`].
//!
//! Fits real-valued targets by greedily minimizing within-node sum of
//! squared errors. Only what boosting needs is implemented: depth/leaf-size
//! controls and a leaf-value rule (boosting replaces leaf means with
//! Newton-step values).
//!
//! Boosting grows many trees on the same rows, so `TreeGrower` sorts each
//! feature's rows once and every tree it grows starts from that order. A
//! node is a contiguous range of the per-feature sorted buffers and of one
//! buffer of its rows in ascending index order; a split partitions each
//! buffer's range stably in place. The stable partition keeps every range
//! exactly what sorting the node's ascending rows by value would give (ties
//! in row-index order), so each tree is the same as a per-node sort grows.

use crate::{ModelError, Result};
use aml_dataset::Dataset;

/// Hyperparameters for [`RegressionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegTreeParams {
    /// Maximum depth (0 = single leaf).
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for RegTreeParams {
    fn default() -> Self {
        RegTreeParams {
            max_depth: 3,
            min_samples_leaf: 5,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum RNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<RNode>,
    n_features: usize,
}

impl RegressionTree {
    /// Fit on the features of `ds` against real targets `y`; each leaf
    /// predicts the mean target of its rows.
    ///
    /// # Errors
    /// Empty data, length mismatch, or non-finite targets.
    pub fn fit(ds: &Dataset, y: &[f64], params: &RegTreeParams) -> Result<Self> {
        TreeGrower::new(ds)?.grow(y, params, |_, mean| mean)
    }

    /// Predicted value for one row.
    pub fn predict_row(&self, row: &[f64]) -> Result<f64> {
        if row.len() != self.n_features {
            return Err(ModelError::DimensionMismatch {
                expected: self.n_features,
                got: row.len(),
            });
        }
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                RNode::Leaf { value } => return Ok(*value),
                RNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    }
                }
            }
        }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, RNode::Leaf { .. }))
            .count()
    }
}

/// Grows [`RegressionTree`]s on one dataset's rows, sorting each feature
/// once for all of them.
pub(crate) struct TreeGrower {
    n_rows: usize,
    n_features: usize,
    /// Feature-major copy of the data: `cols[f * n_rows + i]` is row `i`'s
    /// feature `f`.
    cols: Vec<f64>,
    /// Feature-major rows in ascending (value, row index) order per feature.
    presorted: Vec<usize>,
    /// Working copy of `presorted`, partitioned node by node.
    sorted: Vec<usize>,
    /// Rows, ascending within every node's range.
    rows: Vec<usize>,
    /// Right-hand rows of the partition in progress.
    scratch: Vec<usize>,
    /// Which side of the split in progress each row goes to.
    go_left: Vec<bool>,
    /// Nodes of the tree being grown.
    nodes: Vec<RNode>,
    /// `(start, end, value)` of each leaf of the last grown tree, as ranges
    /// of `rows`.
    leaves: Vec<(usize, usize, f64)>,
}

impl TreeGrower {
    /// Sort every feature of `ds` once.
    ///
    /// # Errors
    /// Empty data.
    pub(crate) fn new(ds: &Dataset) -> Result<Self> {
        if ds.is_empty() {
            return Err(ModelError::EmptyTrainingSet);
        }
        let (n, n_features) = (ds.n_rows(), ds.n_features());
        let cols: Vec<f64> = (0..n_features)
            .flat_map(|f| (0..n).map(move |i| ds.row(i)[f]))
            .collect();
        let mut presorted = Vec::with_capacity(n * n_features);
        for col in cols.chunks_exact(n) {
            let start = presorted.len();
            presorted.extend(0..n);
            // Stable, so tied values keep ascending row order.
            presorted[start..].sort_by(|&a, &b| {
                col[a]
                    .partial_cmp(&col[b])
                    .expect("dataset rejects non-finite values")
            });
        }
        Ok(TreeGrower {
            n_rows: n,
            n_features,
            cols,
            sorted: presorted.clone(),
            presorted,
            rows: (0..n).collect(),
            scratch: Vec::with_capacity(n),
            go_left: vec![false; n],
            nodes: Vec::new(),
            leaves: Vec::new(),
        })
    }

    /// Grow one tree against targets `y`. Each leaf's value is
    /// `leaf_value(rows, mean)`: the leaf's rows in ascending order and the
    /// mean of their targets.
    ///
    /// # Errors
    /// Length mismatch, non-finite targets, or `min_samples_leaf == 0`.
    pub(crate) fn grow(
        &mut self,
        y: &[f64],
        params: &RegTreeParams,
        mut leaf_value: impl FnMut(&[usize], f64) -> f64,
    ) -> Result<RegressionTree> {
        if y.len() != self.n_rows {
            return Err(ModelError::DimensionMismatch {
                expected: self.n_rows,
                got: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NumericalFailure(
                "non-finite regression target".into(),
            ));
        }
        if params.min_samples_leaf == 0 {
            return Err(ModelError::InvalidHyperparameter(
                "min_samples_leaf must be >= 1".into(),
            ));
        }
        self.sorted.copy_from_slice(&self.presorted);
        for (i, r) in self.rows.iter_mut().enumerate() {
            *r = i;
        }
        self.leaves.clear();
        self.grow_node(y, params, &mut leaf_value, 0, self.n_rows, 0);
        Ok(RegressionTree {
            nodes: std::mem::take(&mut self.nodes),
            n_features: self.n_features,
        })
    }

    /// Each leaf of the last grown tree: its rows (ascending) and value.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (&[usize], f64)> {
        self.leaves
            .iter()
            .map(|&(start, end, value)| (&self.rows[start..end], value))
    }

    /// Grow the node holding `rows[start..end]`; returns its node id.
    fn grow_node(
        &mut self,
        y: &[f64],
        params: &RegTreeParams,
        leaf_value: &mut impl FnMut(&[usize], f64) -> f64,
        start: usize,
        end: usize,
        depth: usize,
    ) -> usize {
        let len = end - start;
        let rows = &self.rows[start..end];
        let mean = rows.iter().map(|&i| y[i]).sum::<f64>() / len as f64;
        let sse: f64 = rows.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

        let best = if depth >= params.max_depth || len < 2 * params.min_samples_leaf || sse <= 1e-12
        {
            None
        } else {
            self.best_split(y, params, start, end)
        };
        let Some((feature, threshold)) = best else {
            let value = leaf_value(rows, mean);
            self.leaves.push((start, end, value));
            self.nodes.push(RNode::Leaf { value });
            return self.nodes.len() - 1;
        };

        let col = &self.cols[feature * self.n_rows..(feature + 1) * self.n_rows];
        for &i in rows {
            self.go_left[i] = col[i] <= threshold;
        }
        let n_left = partition(&mut self.rows[start..end], &self.go_left, &mut self.scratch);
        for sorted in self.sorted.chunks_exact_mut(self.n_rows) {
            partition(&mut sorted[start..end], &self.go_left, &mut self.scratch);
        }

        let id = self.nodes.len();
        self.nodes.push(RNode::Leaf { value: 0.0 }); // placeholder
        let mid = start + n_left;
        let left = self.grow_node(y, params, leaf_value, start, mid, depth + 1);
        let right = self.grow_node(y, params, leaf_value, mid, end, depth + 1);
        self.nodes[id] = RNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    /// Best `(feature, threshold)` for the node at `start..end` by SSE
    /// reduction, from running sums in each feature's sorted order.
    fn best_split(
        &self,
        y: &[f64],
        params: &RegTreeParams,
        start: usize,
        end: usize,
    ) -> Option<(usize, f64)> {
        let len = end - start;
        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for (f, (col, sorted)) in self
            .cols
            .chunks_exact(self.n_rows)
            .zip(self.sorted.chunks_exact(self.n_rows))
            .enumerate()
        {
            let sorted = &sorted[start..end];
            let total_sum: f64 = sorted.iter().map(|&i| y[i]).sum();
            let mut left_sum = 0.0;
            for pos in 0..len - 1 {
                left_sum += y[sorted[pos]];
                let v_here = col[sorted[pos]];
                let v_next = col[sorted[pos + 1]];
                if v_here == v_next {
                    continue;
                }
                let n_left = pos + 1;
                let n_right = len - n_left;
                if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                    continue;
                }
                // SSE reduction = sum²_L/n_L + sum²_R/n_R − sum²/n (constant
                // term dropped; maximizing the first two maximizes the gain).
                let right_sum = total_sum - left_sum;
                let score =
                    left_sum * left_sum / n_left as f64 + right_sum * right_sum / n_right as f64;
                if score > best.map_or(f64::NEG_INFINITY, |(s, _, _)| s) {
                    best = Some((score, f, 0.5 * (v_here + v_next)));
                }
            }
        }
        best.map(|(_, feature, threshold)| (feature, threshold))
    }
}

/// Stable in-place partition of `buf`: rows with `go_left[row]` first.
/// Returns the number of those rows.
fn partition(buf: &mut [usize], go_left: &[bool], scratch: &mut Vec<usize>) -> usize {
    scratch.clear();
    let mut n_left = 0;
    for pos in 0..buf.len() {
        let row = buf[pos];
        if go_left[row] {
            buf[n_left] = row;
            n_left += 1;
        } else {
            scratch.push(row);
        }
    }
    buf[n_left..].copy_from_slice(scratch);
    n_left
}

/// The grower as it was before presorting: every node sorts its rows per
/// feature. Tests check the presorted grower against it bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{RNode, RegTreeParams, RegressionTree};
    use aml_dataset::Dataset;

    /// Fit with leaf means; also returns each leaf's node id and rows.
    pub(crate) fn fit(
        ds: &Dataset,
        y: &[f64],
        params: &RegTreeParams,
    ) -> (RegressionTree, Vec<(usize, Vec<usize>)>) {
        let mut nodes = Vec::new();
        let mut leaves = Vec::new();
        let indices: Vec<usize> = (0..ds.n_rows()).collect();
        grow(ds, y, params, &mut nodes, &mut leaves, indices, 0);
        let tree = RegressionTree {
            nodes,
            n_features: ds.n_features(),
        };
        (tree, leaves)
    }

    /// Replace each leaf's value with `f(leaf rows)`.
    pub(crate) fn relabel(
        tree: &mut RegressionTree,
        leaves: &[(usize, Vec<usize>)],
        f: impl Fn(&[usize]) -> f64,
    ) {
        for (id, members) in leaves {
            tree.nodes[*id] = RNode::Leaf { value: f(members) };
        }
    }

    fn grow(
        ds: &Dataset,
        y: &[f64],
        params: &RegTreeParams,
        nodes: &mut Vec<RNode>,
        leaves: &mut Vec<(usize, Vec<usize>)>,
        indices: Vec<usize>,
        depth: usize,
    ) -> usize {
        let n = indices.len() as f64;
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / n;
        let sse: f64 = indices.iter().map(|&i| (y[i] - mean) * (y[i] - mean)).sum();

        let mut best: Option<(f64, usize, f64)> = None;
        if !(depth >= params.max_depth
            || indices.len() < 2 * params.min_samples_leaf
            || sse <= 1e-12)
        {
            for f in 0..ds.n_features() {
                let mut sorted = indices.clone();
                sorted.sort_by(|&a, &b| ds.row(a)[f].partial_cmp(&ds.row(b)[f]).unwrap());
                let total_sum: f64 = sorted.iter().map(|&i| y[i]).sum();
                let mut left_sum = 0.0;
                for pos in 0..sorted.len() - 1 {
                    left_sum += y[sorted[pos]];
                    let v_here = ds.row(sorted[pos])[f];
                    let v_next = ds.row(sorted[pos + 1])[f];
                    if v_here == v_next {
                        continue;
                    }
                    let n_left = pos + 1;
                    let n_right = sorted.len() - n_left;
                    if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                        continue;
                    }
                    let right_sum = total_sum - left_sum;
                    let score = left_sum * left_sum / n_left as f64
                        + right_sum * right_sum / n_right as f64;
                    if score > best.map_or(f64::NEG_INFINITY, |(s, _, _)| s) {
                        best = Some((score, f, 0.5 * (v_here + v_next)));
                    }
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            nodes.push(RNode::Leaf { value: mean });
            leaves.push((nodes.len() - 1, indices));
            return nodes.len() - 1;
        };
        let (l, r): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| ds.row(i)[feature] <= threshold);
        let id = nodes.len();
        nodes.push(RNode::Leaf { value: 0.0 });
        let left = grow(ds, y, params, nodes, leaves, l, depth + 1);
        let right = grow(ds, y, params, nodes, leaves, r, depth + 1);
        nodes[id] = RNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aml_dataset::Dataset;

    fn step_data() -> (Dataset, Vec<f64>) {
        // y = 0 for x < 0.5, y = 10 for x >= 0.5
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 0.5 { 0.0 } else { 10.0 })
            .collect();
        let labels = vec![0usize; 40];
        (Dataset::from_rows(&rows, &labels, 1).unwrap(), y)
    }

    #[test]
    fn learns_step_function() {
        let (ds, y) = step_data();
        let t = RegressionTree::fit(
            &ds,
            &y,
            &RegTreeParams {
                max_depth: 2,
                min_samples_leaf: 1,
            },
        )
        .unwrap();
        assert!((t.predict_row(&[0.2]).unwrap() - 0.0).abs() < 1e-9);
        assert!((t.predict_row(&[0.8]).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_predicts_mean() {
        let (ds, y) = step_data();
        let t = RegressionTree::fit(
            &ds,
            &y,
            &RegTreeParams {
                max_depth: 0,
                min_samples_leaf: 1,
            },
        )
        .unwrap();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        assert!((t.predict_row(&[0.3]).unwrap() - mean).abs() < 1e-9);
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn leaf_value_rule_overrides_means() {
        let (ds, y) = step_data();
        let mut grower = TreeGrower::new(&ds).unwrap();
        let t = grower
            .grow(&y, &RegTreeParams::default(), |rows, _| rows.len() as f64)
            .unwrap();
        assert_eq!(t.predict_row(&[0.1]).unwrap(), 20.0);
        assert_eq!(t.predict_row(&[0.9]).unwrap(), 20.0);
        let leaves: Vec<(Vec<usize>, f64)> =
            grower.leaves().map(|(r, v)| (r.to_vec(), v)).collect();
        assert_eq!(
            leaves,
            vec![((0..20).collect(), 20.0), ((20..40).collect(), 20.0)]
        );
    }

    /// x = 0..6, y = [1, 1, 1, 5, 5, 9]. Root scores ΣL²/nL + ΣR²/nR at the
    /// five cuts: 89.2, 102, 123.3, 114, 114.8, so the root splits at 2.5.
    /// The left leaf is pure (1). On the right (5, 5, 9) the cuts score 123
    /// and 131, so it splits at 4.5 into leaves 5 and 9. With
    /// `min_samples_leaf = 2` only the cuts at 1.5, 2.5 and 3.5 qualify,
    /// the root still splits at 2.5, and the right node's 3 rows are under
    /// `2 * min_samples_leaf`, so it stays a leaf at the mean 19/3.
    #[test]
    fn hand_checked_tree() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let ds = Dataset::from_rows(&rows, &[0; 6], 1).unwrap();
        let y = [1.0, 1.0, 1.0, 5.0, 5.0, 9.0];
        let params = |min_samples_leaf| RegTreeParams {
            max_depth: 2,
            min_samples_leaf,
        };
        let t = RegressionTree::fit(&ds, &y, &params(1)).unwrap();
        assert_eq!(t.n_leaves(), 3);
        for (x, want) in [(0.0, 1.0), (2.5, 1.0), (2.6, 5.0), (4.5, 5.0), (4.6, 9.0)] {
            assert_eq!(t.predict_row(&[x]).unwrap(), want, "x = {x}");
        }
        let t = RegressionTree::fit(&ds, &y, &params(2)).unwrap();
        assert_eq!(t.n_leaves(), 2);
        assert_eq!(t.predict_row(&[2.5]).unwrap(), 1.0);
        assert_eq!(t.predict_row(&[2.6]).unwrap(), 19.0 / 3.0);
    }

    #[test]
    fn rejects_mismatched_targets() {
        let (ds, _) = step_data();
        assert!(RegressionTree::fit(&ds, &[1.0], &RegTreeParams::default()).is_err());
    }

    #[test]
    fn rejects_nan_target() {
        let (ds, mut y) = step_data();
        y[0] = f64::NAN;
        assert!(RegressionTree::fit(&ds, &y, &RegTreeParams::default()).is_err());
    }

    #[test]
    fn min_samples_leaf_respected() {
        let (ds, y) = step_data();
        let t = RegressionTree::fit(
            &ds,
            &y,
            &RegTreeParams {
                max_depth: 10,
                min_samples_leaf: 10,
            },
        )
        .unwrap();
        assert!(t.n_leaves() <= 4);
    }
}
