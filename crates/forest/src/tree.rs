//! CART decision trees with the Gini impurity criterion.
//!
//! Trees store class *distributions* at leaves (not just the majority
//! class) so that forests can average calibrated probabilities — the score
//! vectors the extensible wrapper redistributes.

use diagnet_rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// Tree-growing configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (paper: 10).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features examined per split; `None` = all
    /// (single trees), forests typically use `√m`.
    pub n_feature_candidates: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 10,
            min_samples_split: 2,
            n_feature_candidates: None,
        }
    }
}

/// A tree node. Indices refer into [`DecisionTree::nodes`].
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    /// Terminal node holding a class distribution.
    Leaf {
        /// Normalised class frequencies of the training samples that
        /// reached this leaf.
        probs: Vec<f32>,
    },
    /// Internal split: `feature < threshold` goes left, else right.
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// Per-feature split counts — a cheap proxy for Gini importance used to
/// compare the forest's notion of informative features against DiagNet's
/// attention (NetPoirot-style analysis).
fn accumulate_split_counts(nodes: &[Node], out: &mut [usize]) {
    for node in nodes {
        if let Node::Split { feature, .. } = node {
            if let Some(slot) = out.get_mut(*feature) {
                *slot += 1;
            }
        }
    }
}

/// A fitted CART classification tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

/// Split-search buffers, allocated once per tree and reused at every node.
#[derive(Default)]
struct Scratch {
    sorted: Vec<(f32, usize)>,
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
}

/// Gini impurity of a class-count histogram.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

impl DecisionTree {
    /// Fit a tree on `rows` (each of equal length) with integer labels
    /// `y < n_classes`. `indices` selects the training subset (bootstrap
    /// sample for forests); `rng` drives feature subsampling.
    ///
    /// # Panics
    /// Panics if inputs are inconsistent or empty.
    pub fn fit(
        config: &TreeConfig,
        rows: &[Vec<f32>],
        y: &[usize],
        n_classes: usize,
        indices: &[usize],
        rng: &mut SplitMix64,
    ) -> Self {
        assert_eq!(rows.len(), y.len(), "DecisionTree::fit: row/label mismatch");
        assert!(!indices.is_empty(), "DecisionTree::fit: empty index set");
        assert!(n_classes > 0, "DecisionTree::fit: need at least one class");
        assert!(
            y.iter().all(|&l| l < n_classes),
            "DecisionTree::fit: label out of range"
        );
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes,
        };
        let mut idx = indices.to_vec();
        tree.build(config, rows, y, &mut idx, 0, rng, &mut Scratch::default());
        tree
    }

    /// Recursively grow the subtree over `indices`, returning its node id.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        config: &TreeConfig,
        rows: &[Vec<f32>],
        y: &[usize],
        indices: &mut [usize],
        depth: usize,
        rng: &mut SplitMix64,
        ws: &mut Scratch,
    ) -> usize {
        let mut counts = vec![0usize; self.n_classes];
        for &i in indices.iter() {
            counts[y[i]] += 1;
        }
        let total = indices.len();
        let node_gini = gini(&counts, total);
        let make_leaf = |counts: &[usize]| Node::Leaf {
            probs: counts.iter().map(|&c| c as f32 / total as f32).collect(),
        };
        if depth >= config.max_depth || total < config.min_samples_split || node_gini == 0.0 {
            self.nodes.push(make_leaf(&counts));
            return self.nodes.len() - 1;
        }
        let n_features = rows[0].len();
        let candidates: Vec<usize> = match config.n_feature_candidates {
            Some(k) if k < n_features => rng.sample_indices(n_features, k),
            _ => (0..n_features).collect(),
        };
        // Best split: (weighted child impurity, feature, threshold).
        let mut best: Option<(f64, usize, f32)> = None;
        let sorted = &mut ws.sorted;
        for &feat in &candidates {
            sorted.clear();
            sorted.extend(indices.iter().map(|&i| (rows[i][feat], y[i])));
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            ws.left_counts.clear();
            ws.left_counts.resize(self.n_classes, 0);
            ws.right_counts.clear();
            ws.right_counts.extend_from_slice(&counts);
            for w in 0..total - 1 {
                let (v, cls) = sorted[w];
                ws.left_counts[cls] += 1;
                ws.right_counts[cls] -= 1;
                let next_v = sorted[w + 1].0;
                if next_v <= v {
                    continue; // no boundary between equal values
                }
                let n_left = w + 1;
                let n_right = total - n_left;
                let score = (n_left as f64 * gini(&ws.left_counts, n_left)
                    + n_right as f64 * gini(&ws.right_counts, n_right))
                    / total as f64;
                // Zero-gain splits are accepted (`<=`): problems like XOR
                // have no first-level gain yet are separable deeper down.
                if best.map_or(score <= node_gini, |(b, _, _)| score < b) {
                    best = Some((score, feat, 0.5 * (v + next_v)));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            self.nodes.push(make_leaf(&counts));
            return self.nodes.len() - 1;
        };
        // Partition indices in place.
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if rows[indices[lo]][feature] < threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        debug_assert!(lo > 0 && lo < indices.len(), "split must separate samples");
        // Reserve this node's slot before recursing so children get later
        // ids and the tree serialises in preorder.
        let node_id = self.nodes.len();
        self.nodes.push(Node::Leaf { probs: Vec::new() }); // placeholder
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = self.build(config, rows, y, left_idx, depth + 1, rng, ws);
        let right = self.build(config, rows, y, right_idx, depth + 1, rng, ws);
        self.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    /// Class-probability estimate for one sample.
    pub fn predict_proba(&self, row: &[f32]) -> Vec<f32> {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { probs } => return probs.clone(),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Accumulate this tree's probability estimate into `out` (len
    /// `n_classes`), avoiding a per-call allocation in forest voting.
    pub fn accumulate_proba(&self, row: &[f32], out: &mut [f32]) {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { probs } => {
                    for (o, &p) in out.iter_mut().zip(probs) {
                        *o += p;
                    }
                    return;
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Most likely class for one sample.
    pub fn predict(&self, row: &[f32]) -> usize {
        let probs = self.predict_proba(row);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of nodes (for size assertions / benchmarks).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulate this tree's per-feature split counts into `out`.
    pub fn accumulate_feature_usage(&self, out: &mut [usize]) {
        accumulate_split_counts(&self.nodes, out);
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially separable 1-D dataset.
    fn step_data(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32]).collect();
        let y: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        (rows, y)
    }

    fn all_indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn learns_a_step_function() {
        let (rows, y) = step_data(40);
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &all_indices(40),
            &mut SplitMix64::new(1),
        );
        for (row, &label) in rows.iter().zip(&y) {
            assert_eq!(tree.predict(row), label);
        }
        // A single split suffices.
        assert_eq!(tree.n_nodes(), 3);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn respects_max_depth() {
        // XOR-ish data needs depth 2; cap at 1 and verify the cap.
        let rows = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![0, 1, 1, 0];
        let cfg = TreeConfig {
            max_depth: 1,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&cfg, &rows, &y, 2, &all_indices(4), &mut SplitMix64::new(2));
        assert!(tree.depth() <= 1);
        let deep = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &all_indices(4),
            &mut SplitMix64::new(2),
        );
        for (row, &label) in rows.iter().zip(&y) {
            assert_eq!(deep.predict(row), label, "depth-unlimited tree solves XOR");
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let rows = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            3,
            &all_indices(3),
            &mut SplitMix64::new(3),
        );
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict_proba(&[2.0]), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn constant_features_yield_prior_leaf() {
        let rows = vec![vec![5.0]; 10];
        let y: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &all_indices(10),
            &mut SplitMix64::new(4),
        );
        assert_eq!(tree.n_nodes(), 1, "no valid split on constant data");
        assert_eq!(tree.predict_proba(&[5.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (rows, y) = step_data(30);
        let cfg = TreeConfig {
            max_depth: 2,
            min_samples_split: 10,
            ..Default::default()
        };
        let tree = DecisionTree::fit(
            &cfg,
            &rows,
            &y,
            2,
            &all_indices(30),
            &mut SplitMix64::new(5),
        );
        for row in &rows {
            let p = tree.predict_proba(row);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn bootstrap_subset_training() {
        let (rows, y) = step_data(40);
        // Train only on even indices; still learns the boundary.
        let subset: Vec<usize> = (0..40).step_by(2).collect();
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &subset,
            &mut SplitMix64::new(6),
        );
        assert_eq!(tree.predict(&[5.0]), 0);
        assert_eq!(tree.predict(&[35.0]), 1);
    }

    #[test]
    fn feature_subsampling_still_learns_with_redundancy() {
        // Two redundant informative features; examining 1 per split is
        // always enough.
        let rows: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32, i as f32 * 2.0]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let cfg = TreeConfig {
            n_feature_candidates: Some(1),
            ..Default::default()
        };
        let tree = DecisionTree::fit(
            &cfg,
            &rows,
            &y,
            2,
            &all_indices(40),
            &mut SplitMix64::new(7),
        );
        let correct = rows
            .iter()
            .zip(&y)
            .filter(|(r, &l)| tree.predict(r) == l)
            .count();
        assert_eq!(correct, 40);
    }

    #[test]
    fn accumulate_matches_predict_proba() {
        let (rows, y) = step_data(20);
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &all_indices(20),
            &mut SplitMix64::new(8),
        );
        let mut acc = vec![0.25f32, 0.5];
        tree.accumulate_proba(&[3.0], &mut acc);
        let p = tree.predict_proba(&[3.0]);
        assert!((acc[0] - 0.25 - p[0]).abs() < 1e-6);
        assert!((acc[1] - 0.5 - p[1]).abs() < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, y) = step_data(50);
        let cfg = TreeConfig {
            n_feature_candidates: Some(1),
            ..Default::default()
        };
        let t1 = DecisionTree::fit(
            &cfg,
            &rows,
            &y,
            2,
            &all_indices(50),
            &mut SplitMix64::new(9),
        );
        let t2 = DecisionTree::fit(
            &cfg,
            &rows,
            &y,
            2,
            &all_indices(50),
            &mut SplitMix64::new(9),
        );
        assert_eq!(format!("{t1:?}"), format!("{t2:?}"));
    }

    #[test]
    fn feature_usage_counts_splits() {
        let (rows, y) = step_data(40);
        let tree = DecisionTree::fit(
            &TreeConfig::default(),
            &rows,
            &y,
            2,
            &all_indices(40),
            &mut SplitMix64::new(31),
        );
        let mut usage = vec![0usize; 1];
        tree.accumulate_feature_usage(&mut usage);
        assert_eq!(
            usage[0],
            tree.n_nodes() / 2,
            "every split uses the single feature"
        );
    }

    /// `DecisionTree::build` as it was before the split-search buffers were
    /// hoisted into [`Scratch`]: fresh vectors at every node and candidate.
    fn reference_build(
        tree: &mut DecisionTree,
        config: &TreeConfig,
        rows: &[Vec<f32>],
        y: &[usize],
        indices: &mut [usize],
        depth: usize,
        rng: &mut SplitMix64,
    ) -> usize {
        let mut counts = vec![0usize; tree.n_classes];
        for &i in indices.iter() {
            counts[y[i]] += 1;
        }
        let total = indices.len();
        let node_gini = gini(&counts, total);
        let make_leaf = |counts: &[usize]| Node::Leaf {
            probs: counts.iter().map(|&c| c as f32 / total as f32).collect(),
        };
        if depth >= config.max_depth || total < config.min_samples_split || node_gini == 0.0 {
            tree.nodes.push(make_leaf(&counts));
            return tree.nodes.len() - 1;
        }
        let n_features = rows[0].len();
        let candidates: Vec<usize> = match config.n_feature_candidates {
            Some(k) if k < n_features => rng.sample_indices(n_features, k),
            _ => (0..n_features).collect(),
        };
        let mut best: Option<(f64, usize, f32)> = None;
        for &feat in &candidates {
            let mut sorted: Vec<(f32, usize)> =
                indices.iter().map(|&i| (rows[i][feat], y[i])).collect();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut left_counts = vec![0usize; tree.n_classes];
            let mut right_counts = counts.clone();
            for w in 0..total - 1 {
                let (v, cls) = sorted[w];
                left_counts[cls] += 1;
                right_counts[cls] -= 1;
                let next_v = sorted[w + 1].0;
                if next_v <= v {
                    continue;
                }
                let n_left = w + 1;
                let n_right = total - n_left;
                let score = (n_left as f64 * gini(&left_counts, n_left)
                    + n_right as f64 * gini(&right_counts, n_right))
                    / total as f64;
                if best.map_or(score <= node_gini, |(b, _, _)| score < b) {
                    best = Some((score, feat, 0.5 * (v + next_v)));
                }
            }
        }
        let Some((_, feature, threshold)) = best else {
            tree.nodes.push(make_leaf(&counts));
            return tree.nodes.len() - 1;
        };
        let mut lo = 0usize;
        let mut hi = indices.len();
        while lo < hi {
            if rows[indices[lo]][feature] < threshold {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        let node_id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { probs: Vec::new() });
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = reference_build(tree, config, rows, y, left_idx, depth + 1, rng);
        let right = reference_build(tree, config, rows, y, right_idx, depth + 1, rng);
        tree.nodes[node_id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_id
    }

    /// Reusing one scratch per tree is buffer reuse only: same comparisons
    /// in the same order, so the tree is the one the per-node vectors grew.
    #[test]
    fn scratch_reuse_grows_the_same_tree_as_per_node_buffers() {
        // (samples, features, classes, candidates per split)
        let shapes = [(240, 6, 3, Some(2)), (90, 12, 5, None)];
        for (n, n_features, n_classes, n_feature_candidates) in shapes {
            for seed in [1u64, 2, 3] {
                let mut data = SplitMix64::new(SplitMix64::derive(seed, n as u64));
                // Quantised values, so equal neighbours (no boundary) occur.
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|_| {
                        (0..n_features)
                            .map(|_| data.next_below(16) as f32 * 0.25)
                            .collect()
                    })
                    .collect();
                let y: Vec<usize> = (0..n).map(|_| data.next_below(n_classes)).collect();
                let bootstrap: Vec<usize> = (0..n).map(|_| data.next_below(n)).collect();
                let config = TreeConfig {
                    n_feature_candidates,
                    ..Default::default()
                };
                let tree = DecisionTree::fit(
                    &config,
                    &rows,
                    &y,
                    n_classes,
                    &bootstrap,
                    &mut SplitMix64::new(seed),
                );
                let mut reference = DecisionTree {
                    nodes: Vec::new(),
                    n_classes,
                };
                reference_build(
                    &mut reference,
                    &config,
                    &rows,
                    &y,
                    &mut bootstrap.clone(),
                    0,
                    &mut SplitMix64::new(seed),
                );
                assert!(tree.n_nodes() > 3, "shape too easy to exercise the search");
                assert_eq!(format!("{tree:?}"), format!("{reference:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        DecisionTree::fit(
            &TreeConfig::default(),
            &[vec![1.0]],
            &[5],
            2,
            &[0],
            &mut SplitMix64::new(1),
        );
    }
}
