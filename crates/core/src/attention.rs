//! Gradient-based attention (paper §III-E).
//!
//! DiagNet returns from the coarse fault-family prediction to the input
//! feature space by backpropagating the *ideal-label* cross-entropy loss
//! `L* = −log y_argmax(y)` down to the input features and normalising the
//! absolute partial derivatives (Eq. 1):
//!
//! ```text
//! γ̂_j = |∇_j| / Σ_k |∇_k|,     ∇_j = ∂L*/∂x_j
//! ```
//!
//! A large `γ̂_j` means feature `j` strongly influences the model's most
//! confident coarse prediction — the white-box analogue of Grad-CAM-style
//! saliency, exploiting full knowledge of the network's weights.

use diagnet_nn::loss::{ideal_label_grad, ideal_label_grad_into};
use diagnet_nn::network::Network;
use diagnet_nn::tensor::Matrix;
use diagnet_nn::workspace::{BackwardWorkspace, ForwardWorkspace};

/// Eq. 1: normalised absolute gradients. Falls back to uniform when all
/// gradients vanish (a perfectly confident prediction). Allocating wrapper
/// around [`normalize_gradients_into`].
pub fn normalize_gradients(grads: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; grads.len()];
    normalize_gradients_into(grads, &mut out);
    out
}

/// Eq. 1 into a caller-provided slice of the same length — bit-identical
/// to [`normalize_gradients`], zero allocations.
///
/// # Panics
/// Panics if `out.len() != grads.len()`.
// lint: no_alloc
pub fn normalize_gradients_into(grads: &[f32], out: &mut [f32]) {
    assert_eq!(
        out.len(),
        grads.len(),
        "normalize_gradients: length mismatch"
    );
    let total: f32 = grads.iter().map(|g| g.abs()).sum();
    if total <= 0.0 || !total.is_finite() {
        out.fill(1.0 / grads.len() as f32);
        return;
    }
    for (o, g) in out.iter_mut().zip(grads) {
        *o = g.abs() / total;
    }
}

/// Reusable buffers for the fused saliency backward: the forward pass's
/// activations serve both the caller's coarse-probability read (via
/// [`SaliencyWorkspace::logits`]) and the ideal-label backward, and every
/// intermediate lives in the workspace — steady-state scoring never
/// touches the allocator. Create once per thread (or scoring session) and
/// pass to [`attention_scores_batch_ws`].
#[derive(Debug)]
pub struct SaliencyWorkspace {
    pub(crate) fws: ForwardWorkspace,
    pub(crate) bws: BackwardWorkspace,
}

impl SaliencyWorkspace {
    /// An empty workspace shaped for `network` (buffers grow on first use).
    pub fn new(network: &Network) -> Self {
        SaliencyWorkspace {
            fws: ForwardWorkspace::new(network),
            bws: BackwardWorkspace::new(network),
        }
    }

    /// Whether this workspace was shaped for `network`'s architecture.
    /// Long-lived holders use this to rebuild after a model swap.
    pub fn matches(&self, network: &Network) -> bool {
        self.fws.matches(network)
    }

    /// The logits of the last [`attention_scores_batch_ws`] forward pass
    /// (the backward only reads the forward state, so these stay valid).
    pub fn logits(&self) -> &Matrix {
        self.fws.output()
    }

    /// The raw input gradient of the last backward pass, one row per
    /// sample (before Eq. 1 normalisation).
    pub fn input_grad(&self) -> &Matrix {
        self.bws.input_grad()
    }
}

/// Attention scores `γ̂` for one (already normalised) input row.
pub fn attention_scores(network: &Network, normalized_row: &[f32]) -> Vec<f32> {
    let x = Matrix::from_row(normalized_row.to_vec());
    let grad = network.input_gradient(&x, ideal_label_grad);
    normalize_gradients(grad.row(0))
}

/// Attention scores for a batch of rows (one γ̂ vector per row). The
/// backward pass runs over the whole batch at once; per-row gradients are
/// then normalised independently. Allocating wrapper around
/// [`attention_scores_batch_ws`].
pub fn attention_scores_batch(network: &Network, rows: &Matrix) -> Vec<Vec<f32>> {
    let mut ws = SaliencyWorkspace::new(network);
    let mut gammas = Matrix::zeros(0, 0);
    attention_scores_batch_ws(network, rows, &mut ws, &mut gammas);
    (0..gammas.rows()).map(|i| gammas.row(i).to_vec()).collect()
}

/// Fused batched attention: **one** cached forward pass feeds both the
/// logits (readable afterwards via [`SaliencyWorkspace::logits`], e.g. for
/// the coarse softmax) and the ideal-label backward; `gammas` receives one
/// Eq.-1-normalised row per sample. Zero heap allocations once `ws` and
/// `gammas` are warm. Scores are bit-identical to
/// [`attention_scores_batch`].
// lint: no_alloc
pub fn attention_scores_batch_ws(
    network: &Network,
    rows: &Matrix,
    ws: &mut SaliencyWorkspace,
    gammas: &mut Matrix,
) {
    // A bare network has no owner to keep an `InputGradPlan` fresh, so the
    // Dense layers transpose into scratch; `DiagNet` ranks with its plan.
    network.input_gradient_ws(rows, &mut ws.fws, &mut ws.bws, None, ideal_label_grad_into);
    let grad = ws.bws.input_grad();
    gammas.resize(grad.rows(), grad.cols()); // lint: allow(no_alloc, reason = "grows the caller's scratch once per batch size; steady-state calls reuse it")
    for i in 0..grad.rows() {
        normalize_gradients_into(grad.row(i), gammas.row_mut(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet_nn::layer::Layer;
    use diagnet_nn::optim::SgdNesterov;
    use diagnet_nn::train::{TrainConfig, Trainer};
    use diagnet_rng::SplitMix64;

    #[test]
    fn normalisation_sums_to_one_and_uses_abs() {
        let g = normalize_gradients(&[-2.0, 1.0, 1.0]);
        assert!((g.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((g[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn zero_gradients_fall_back_to_uniform() {
        let g = normalize_gradients(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(g, vec![0.25; 4]);
    }

    /// Train a classifier where only feature 0 carries signal; attention
    /// must concentrate on it.
    #[test]
    fn attention_finds_the_informative_feature() {
        let mut rng = SplitMix64::new(1);
        let n = 300;
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let cls = i % 2;
            let signal = if cls == 0 { -2.0 } else { 2.0 };
            rows.push(vec![
                rng.normal_with(signal, 0.3),
                rng.normal_with(0.0, 1.0),
                rng.normal_with(0.0, 1.0),
            ]);
            y.push(cls);
        }
        let x = Matrix::from_rows(&rows);
        let mut net = Network::new(vec![
            Layer::dense(3, 16, 1),
            Layer::relu(),
            Layer::dense(16, 2, 2),
        ]);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 32,
            patience: None,
            ..Default::default()
        };
        Trainer::new(cfg, SgdNesterov::new(0.1, 0.9, 0.0))
            .fit(&mut net, &x, &y, None, 5)
            .unwrap();
        // Average attention over many samples.
        let mut mean = vec![0.0f32; 3];
        for row in rows.iter().take(100) {
            let a = attention_scores(&net, row);
            for (m, v) in mean.iter_mut().zip(&a) {
                *m += v;
            }
        }
        assert!(
            mean[0] > mean[1] * 2.0 && mean[0] > mean[2] * 2.0,
            "attention should focus on feature 0: {mean:?}"
        );
    }

    #[test]
    fn workspace_reuse_is_bitwise_stable_across_batches() {
        let net = Network::new(vec![
            Layer::dense(4, 8, 3),
            Layer::relu(),
            Layer::dense(8, 3, 4),
        ]);
        let mut rng = SplitMix64::new(11);
        let mut mk = |n: usize| {
            Matrix::from_rows(
                &(0..n)
                    .map(|_| (0..4).map(|_| rng.normal()).collect())
                    .collect::<Vec<Vec<f32>>>(),
            )
        };
        let (a, b) = (mk(5), mk(3));
        let mut ws = SaliencyWorkspace::new(&net);
        assert!(ws.matches(&net));
        let mut gammas = Matrix::zeros(0, 0);
        // Warm (and dirty) the buffers on a larger batch, then shrink.
        attention_scores_batch_ws(&net, &a, &mut ws, &mut gammas);
        attention_scores_batch_ws(&net, &b, &mut ws, &mut gammas);
        let fresh = attention_scores_batch(&net, &b);
        assert_eq!(gammas.rows(), fresh.len());
        for (i, row) in fresh.iter().enumerate() {
            assert_eq!(gammas.row(i), row.as_slice());
        }
        // The fused forward's logits must match a plain forward pass.
        assert_eq!(ws.logits().data(), net.forward(&b).data());
    }

    #[test]
    fn batch_matches_single() {
        let net = Network::new(vec![
            Layer::dense(4, 8, 3),
            Layer::relu(),
            Layer::dense(8, 3, 4),
        ]);
        let mut rng = SplitMix64::new(9);
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|_| (0..4).map(|_| rng.normal()).collect())
            .collect();
        let batch = attention_scores_batch(&net, &Matrix::from_rows(&rows));
        for (row, b) in rows.iter().zip(&batch) {
            let single = attention_scores(&net, row);
            for (s, bb) in single.iter().zip(b) {
                assert!((s - bb).abs() < 1e-5);
            }
        }
    }
}
