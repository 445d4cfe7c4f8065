//! Networks: layer stacks with forward, backward and input-gradient passes.

use crate::error::NnError;
use crate::layer::{Layer, LayerCache, LayerGrads};
use crate::loss::{softmax, softmax_cross_entropy_weighted, softmax_cross_entropy_weighted_into};
use crate::tensor::Matrix;
use crate::workspace::{BackwardWorkspace, ForwardWorkspace};
use serde::{Deserialize, Serialize};

/// Parameter gradients for a whole network, mirroring its layer structure.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// One gradient holder per layer (`LayerGrads::None` for ReLU etc.).
    pub layers: Vec<LayerGrads>,
}

impl Gradients {
    /// All-zero gradients shaped like `net`.
    pub fn zeros_like(net: &Network) -> Self {
        Gradients {
            layers: net.layers.iter().map(Layer::zero_grads).collect(),
        }
    }

    /// Reset to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.layers {
            match g {
                LayerGrads::None => {}
                LayerGrads::Dense { dw, db } | LayerGrads::LandPool { dk: dw, db } => {
                    dw.fill_zero();
                    db.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
    }
}

/// The transposed weights (`Wᵀ`, `out × in`) of every Dense layer, which a
/// backward-to-input pass multiplies by, built once by
/// [`Network::input_grad_plan`] for weights that no longer change — a
/// published model's. Passed to [`Network::backward_ws`] it replaces the
/// per-call transpose into scratch with the same bytes in the same kernel,
/// so gradients are bit-identical with and without it. It holds the Dense
/// weights a second time (≈ 0.9 MB for the paper model). Whoever owns the
/// network owns the plan and must rebuild it when a weight changes; debug
/// builds verify it against the live weights on every use.
#[derive(Debug, Clone)]
pub struct InputGradPlan {
    /// `Wᵀ` per layer, `Some` exactly at the Dense layers.
    wt: Vec<Option<Matrix>>,
}

impl InputGradPlan {
    /// Whether every `Wᵀ` is still the bitwise transpose of `net`'s live
    /// weights (and the layer structure is the one the plan was built for).
    pub fn matches(&self, net: &Network) -> bool {
        self.wt.len() == net.layers.len()
            && self
                .wt
                .iter()
                .zip(&net.layers)
                .all(|(wt, layer)| match (wt, layer) {
                    (Some(wt), Layer::Dense(d)) => {
                        let (m, n) = (d.w.rows(), d.w.cols());
                        (wt.rows(), wt.cols()) == (n, m)
                            && (0..m).all(|i| {
                                (0..n).all(|j| d.w.get(i, j).to_bits() == wt.get(j, i).to_bits())
                            })
                    }
                    (None, Layer::Dense(_)) | (Some(_), _) => false,
                    (None, _) => true,
                })
    }
}

/// A feed-forward network. The final layer produces **logits**; call
/// [`Network::predict_proba`] for softmax probabilities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    /// Ordered layers, input to output.
    pub layers: Vec<Layer>,
}

impl Network {
    /// Build a network from layers.
    ///
    /// # Panics
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "Network::new: need at least one layer");
        Network { layers }
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// True when every parameter of every layer is finite — see
    /// [`Layer::params_finite`].
    pub fn params_finite(&self) -> bool {
        self.layers.iter().all(Layer::params_finite)
    }

    /// Number of parameters in non-frozen layers.
    pub fn num_trainable_params(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| !l.is_frozen())
            .map(|l| l.num_params())
            .sum()
    }

    /// Transpose the weights of every Dense layer once, for
    /// backward-to-input passes over weights that stay fixed (see
    /// [`InputGradPlan`]).
    pub fn input_grad_plan(&self) -> InputGradPlan {
        InputGradPlan {
            wt: self
                .layers
                .iter()
                .map(|layer| match layer {
                    Layer::Dense(d) => Some(d.w.transpose()),
                    _ => None,
                })
                .collect(),
        }
    }

    /// Forward pass to logits. Allocating wrapper around
    /// [`Network::forward_ws`]; callers on the hot path should hold a
    /// [`ForwardWorkspace`] and call that directly.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = ForwardWorkspace::new(self);
        self.forward_ws(x, &mut ws);
        ws.into_output()
    }

    /// Cached forward pass into a reusable workspace; returns the logits
    /// (also available as `ws.output()`). Performs zero heap allocations
    /// once `ws` has warmed up at the current batch size.
    // lint: no_alloc
    pub fn forward_ws<'w>(&self, x: &Matrix, ws: &'w mut ForwardWorkspace) -> &'w Matrix {
        assert_eq!(
            ws.num_layers(),
            self.layers.len(),
            "forward_ws: workspace shaped for a different network"
        );
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.activations.split_at_mut(i);
            let input = if i == 0 { x } else { &done[i - 1] };
            layer.forward_cached_into(input, &mut rest[0], &mut ws.caches[i], &mut ws.scratch[i]);
        }
        ws.output()
    }

    /// Backward pass through the state left in `fws` by
    /// [`Network::forward_ws`] on the same `x`. On entry
    /// `bws.grad_logits_mut()` must hold `∂L/∂logits`; on exit
    /// `bws.input_grad()` holds `∂L/∂x`. Parameter gradients are
    /// accumulated into `grads` when provided. `plan` supplies every Dense
    /// layer's `Wᵀ` when the weights are frozen (serving) and `bws`'s `Wᵀ`
    /// scratch stays empty; training passes `None` and each Dense layer
    /// transposes into that scratch per call.
    // lint: no_alloc
    pub fn backward_ws(
        &self,
        x: &Matrix,
        fws: &ForwardWorkspace,
        grads: Option<&mut Gradients>,
        bws: &mut BackwardWorkspace,
        plan: Option<&InputGradPlan>,
    ) {
        assert_eq!(
            fws.num_layers(),
            self.layers.len(),
            "backward_ws: workspace shaped for a different network"
        );
        if let Some(gs) = &grads {
            assert_eq!(
                gs.layers.len(),
                self.layers.len(),
                "backward_ws: gradient holder mismatch"
            );
        }
        debug_assert!(
            plan.is_none_or(|p| p.matches(self)),
            "backward_ws: stale InputGradPlan — the network's weights changed after it was built"
        );
        let mut gs = grads;
        for i in (0..self.layers.len()).rev() {
            let input = if i == 0 { x } else { &fws.activations[i - 1] };
            let layer_grads = gs.as_deref_mut().map(|g| &mut g.layers[i]);
            self.layers[i].backward_into(
                input,
                &fws.caches[i],
                &bws.cur,
                &mut bws.next,
                layer_grads,
                &mut bws.scratch,
                plan.and_then(|p| p.wt.get(i)?.as_ref()),
            );
            std::mem::swap(&mut bws.cur, &mut bws.next);
        }
    }

    /// Workspace-based [`Network::loss_gradients_weighted`]: forward,
    /// softmax cross-entropy, backward, all through reusable buffers.
    /// Returns the mean loss; parameter gradients are accumulated into
    /// `grads`.
    pub fn loss_gradients_weighted_ws(
        &self,
        x: &Matrix,
        targets: &[usize],
        class_weights: Option<&[f32]>,
        grads: &mut Gradients,
        fws: &mut ForwardWorkspace,
        bws: &mut BackwardWorkspace,
    ) -> f32 {
        self.forward_ws(x, fws);
        let loss = softmax_cross_entropy_weighted_into(
            fws.output(),
            targets,
            class_weights,
            bws.grad_logits_mut(),
        );
        self.backward_ws(x, fws, Some(grads), bws, None);
        loss
    }

    /// Forward pass returning softmax probabilities, one row per sample.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        softmax(&self.forward(x))
    }

    /// Predicted class per sample (argmax of logits).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows()).map(|i| logits.argmax_row(i)).collect()
    }

    /// Training forward pass: returns all activations (`len = layers + 1`,
    /// `activations[0] = x`) and per-layer caches.
    pub fn forward_all(&self, x: &Matrix) -> (Vec<Matrix>, Vec<LayerCache>) {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        let mut caches = Vec::with_capacity(self.layers.len());
        activations.push(x.clone());
        for layer in &self.layers {
            let (out, cache) = layer.forward_cached(activations.last().expect("non-empty"));
            activations.push(out);
            caches.push(cache);
        }
        (activations, caches)
    }

    /// Backward pass from `grad_logits` (gradient w.r.t. the final layer's
    /// output). Accumulates parameter gradients into `grads` and returns the
    /// gradient w.r.t. the network input.
    pub fn backward(
        &self,
        activations: &[Matrix],
        caches: &[LayerCache],
        grad_logits: Matrix,
        grads: Option<&mut Gradients>,
    ) -> Matrix {
        assert_eq!(
            activations.len(),
            self.layers.len() + 1,
            "backward: activation count mismatch"
        );
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "backward: cache count mismatch"
        );
        let mut grad = grad_logits;
        match grads {
            Some(gs) => {
                assert_eq!(
                    gs.layers.len(),
                    self.layers.len(),
                    "backward: gradient holder mismatch"
                );
                for (i, layer) in self.layers.iter().enumerate().rev() {
                    grad =
                        layer.backward(&activations[i], &caches[i], &grad, Some(&mut gs.layers[i]));
                }
            }
            None => {
                for (i, layer) in self.layers.iter().enumerate().rev() {
                    grad = layer.backward(&activations[i], &caches[i], &grad, None);
                }
            }
        }
        grad
    }

    /// One full training step's gradient computation: forward, softmax
    /// cross-entropy against `targets`, backward. Returns the mean loss.
    pub fn loss_gradients(&self, x: &Matrix, targets: &[usize], grads: &mut Gradients) -> f32 {
        self.loss_gradients_weighted(x, targets, None, grads)
    }

    /// [`Network::loss_gradients`] with optional per-class loss weights.
    pub fn loss_gradients_weighted(
        &self,
        x: &Matrix,
        targets: &[usize],
        class_weights: Option<&[f32]>,
        grads: &mut Gradients,
    ) -> f32 {
        let (activations, caches) = self.forward_all(x);
        let logits = activations.last().expect("non-empty");
        let (loss, grad_logits) = softmax_cross_entropy_weighted(logits, targets, class_weights);
        self.backward(&activations, &caches, grad_logits, Some(grads));
        loss
    }

    /// Gradient of an arbitrary output-space gradient w.r.t. the **input
    /// features**, without touching parameters. `make_grad` receives the
    /// logits and must return `∂L/∂logits`. This is the primitive behind
    /// DiagNet's attention mechanism (§III-E). Allocating wrapper around
    /// [`Network::input_gradient_ws`].
    pub fn input_gradient<F>(&self, x: &Matrix, make_grad: F) -> Matrix
    where
        F: FnOnce(&Matrix) -> Matrix,
    {
        let mut fws = ForwardWorkspace::new(self);
        let mut bws = BackwardWorkspace::new(self);
        self.input_gradient_ws(x, &mut fws, &mut bws, None, |logits, grad| {
            *grad = make_grad(logits);
        });
        bws.cur
    }

    /// Workspace-based [`Network::input_gradient`]: **one** cached forward
    /// pass serves both the caller's read of the logits and the backward —
    /// the allocating wrapper used to run the forward twice on the scoring
    /// path (`forward` for probabilities, then `forward_all` again here).
    /// `make_grad` receives the logits of this call's forward pass and
    /// writes `∂L/∂logits` into the provided buffer; on exit
    /// `bws.input_grad()` holds `∂L/∂x` and `fws.output()` still holds the
    /// logits (the backward only reads `fws`). `plan` is handed to
    /// [`Network::backward_ws`]. Zero heap allocations once both
    /// workspaces are warm.
    // lint: no_alloc
    pub fn input_gradient_ws<F>(
        &self,
        x: &Matrix,
        fws: &mut ForwardWorkspace,
        bws: &mut BackwardWorkspace,
        plan: Option<&InputGradPlan>,
        make_grad: F,
    ) where
        F: FnOnce(&Matrix, &mut Matrix),
    {
        self.forward_ws(x, fws);
        make_grad(fws.output(), &mut bws.cur);
        self.backward_ws(x, fws, None, bws, plan);
    }

    /// Output width produced for inputs of `in_dim` features; validates all
    /// intermediate widths.
    pub fn out_dim(&self, in_dim: usize) -> Result<usize, NnError> {
        let mut dim = in_dim;
        for (i, layer) in self.layers.iter().enumerate() {
            // `Layer::out_dim` panics on mismatch; convert to an error here
            // so callers can validate untrusted dimensions.
            let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.out_dim(dim)));
            match ok {
                Ok(d) => dim = d,
                Err(_) => {
                    return Err(NnError::ShapeMismatch {
                        context: format!("layer {i}"),
                        expected: 0,
                        actual: dim,
                    })
                }
            }
        }
        Ok(dim)
    }

    /// Freeze every layer whose index is in `indices` (and thaw the rest).
    pub fn freeze_only(&mut self, indices: &[usize]) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.set_frozen(indices.contains(&i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolOp;
    use crate::rng::SplitMix64;

    fn tiny_net() -> Network {
        Network::new(vec![
            Layer::dense(4, 6, 1),
            Layer::relu(),
            Layer::dense(6, 3, 2),
        ])
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.next_f32() * 2.0 - 1.0)
                .collect(),
        )
    }

    #[test]
    fn forward_shapes() {
        let net = tiny_net();
        let y = net.forward(&Matrix::zeros(5, 4));
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn predict_proba_rows_normalised() {
        let net = tiny_net();
        let p = net.predict_proba(&random_matrix(3, 4, 5));
        for r in 0..3 {
            assert!((p.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn out_dim_validates() {
        let net = tiny_net();
        assert_eq!(net.out_dim(4).unwrap(), 3);
        assert!(net.out_dim(7).is_err());
    }

    #[test]
    fn num_params_and_freezing() {
        let mut net = tiny_net();
        assert_eq!(net.num_params(), 4 * 6 + 6 + 6 * 3 + 3);
        assert_eq!(net.num_trainable_params(), net.num_params());
        net.freeze_only(&[0]);
        assert_eq!(net.num_trainable_params(), 6 * 3 + 3);
    }

    /// End-to-end gradient check through a realistic DiagNet-shaped stack
    /// (LandPool + MLP) against finite differences of the CE loss.
    #[test]
    fn full_network_gradcheck() {
        let net = Network::new(vec![
            Layer::land_pool(3, 2, 2, vec![PoolOp::Avg, PoolOp::Max], 3),
            Layer::dense(3 * 2 + 2, 5, 4),
            Layer::relu(),
            Layer::dense(5, 3, 5),
        ]);
        let x = random_matrix(3, 4 * 2 + 2, 7);
        let targets = [0usize, 2, 1];
        let mut grads = Gradients::zeros_like(&net);
        net.loss_gradients(&x, &targets, &mut grads);
        let loss_of = |n: &Network| {
            let logits = n.forward(&x);
            crate::loss::cross_entropy_loss(&logits, &targets)
        };
        let eps = 1e-2f32;
        // Spot-check dense weights of the first dense layer.
        let LayerGrads::Dense { dw, .. } = &grads.layers[1] else {
            panic!()
        };
        for (r, c) in [(0, 0), (3, 2), (7, 4)] {
            let mut np = net.clone();
            let mut nm = net.clone();
            let (Layer::Dense(dp), Layer::Dense(dm)) = (&mut np.layers[1], &mut nm.layers[1])
            else {
                panic!()
            };
            dp.w.set(r, c, dp.w.get(r, c) + eps);
            dm.w.set(r, c, dm.w.get(r, c) - eps);
            let num = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
            assert!(
                (dw.get(r, c) - num).abs() < 1e-2,
                "dW({r},{c}): analytic {} vs numeric {}",
                dw.get(r, c),
                num
            );
        }
        // Spot-check the LandPool kernel.
        let LayerGrads::LandPool { dk, .. } = &grads.layers[0] else {
            panic!()
        };
        for (r, c) in [(0, 0), (2, 1)] {
            let mut np = net.clone();
            let mut nm = net.clone();
            let (Layer::LandPool(lp), Layer::LandPool(lm)) = (&mut np.layers[0], &mut nm.layers[0])
            else {
                panic!()
            };
            lp.kernel.set(r, c, lp.kernel.get(r, c) + eps);
            lm.kernel.set(r, c, lm.kernel.get(r, c) - eps);
            let num = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
            assert!(
                (dk.get(r, c) - num).abs() < 1e-2,
                "dK({r},{c}): analytic {} vs numeric {}",
                dk.get(r, c),
                num
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let net = tiny_net();
        let x = random_matrix(1, 4, 11);
        let targets = [1usize];
        let gin = net.input_gradient(&x, |logits| {
            crate::loss::softmax_cross_entropy(logits, &targets).1
        });
        let loss_of = |x: &Matrix| crate::loss::cross_entropy_loss(&net.forward(x), &targets);
        let eps = 1e-2f32;
        for c in 0..4 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            assert!((gin.get(0, c) - num).abs() < 1e-2);
        }
    }

    fn landpool_net() -> Network {
        Network::new(vec![
            Layer::land_pool(
                3,
                2,
                2,
                vec![PoolOp::Avg, PoolOp::Max, PoolOp::Percentile(50)],
                3,
            ),
            Layer::dense(3 * 3 + 2, 5, 4),
            Layer::relu(),
            Layer::dense(5, 3, 5),
        ])
    }

    /// The workspace path must be bit-identical to the allocating path —
    /// both route through the same `*_into` kernels.
    #[test]
    fn forward_ws_matches_allocating_forward() {
        use crate::workspace::ForwardWorkspace;
        let net = landpool_net();
        let mut ws = ForwardWorkspace::new(&net);
        for (batch, seed) in [(4usize, 21u64), (9, 22), (1, 23), (4, 24)] {
            let x = random_matrix(batch, 4 * 2 + 2, seed);
            let expected = net.forward(&x);
            let got = net.forward_ws(&x, &mut ws);
            assert_eq!(got, &expected, "batch {batch}");
        }
    }

    #[test]
    fn loss_gradients_ws_matches_allocating() {
        use crate::workspace::{BackwardWorkspace, ForwardWorkspace};
        let net = landpool_net();
        let x = random_matrix(6, 4 * 2 + 2, 31);
        let targets = [0usize, 2, 1, 1, 0, 2];
        let mut grads_ref = Gradients::zeros_like(&net);
        let loss_ref = net.loss_gradients(&x, &targets, &mut grads_ref);
        let mut grads_ws = Gradients::zeros_like(&net);
        let mut fws = ForwardWorkspace::new(&net);
        let mut bws = BackwardWorkspace::new(&net);
        // Run twice through the same workspaces: the second pass reuses
        // warm buffers and must still agree exactly.
        for _ in 0..2 {
            grads_ws.zero();
            let loss_ws = net.loss_gradients_weighted_ws(
                &x,
                &targets,
                None,
                &mut grads_ws,
                &mut fws,
                &mut bws,
            );
            assert_eq!(loss_ref, loss_ws);
            for (a, b) in grads_ref.layers.iter().zip(&grads_ws.layers) {
                match (a, b) {
                    (LayerGrads::None, LayerGrads::None) => {}
                    (LayerGrads::Dense { dw, db }, LayerGrads::Dense { dw: ow, db: ob })
                    | (
                        LayerGrads::LandPool { dk: dw, db },
                        LayerGrads::LandPool { dk: ow, db: ob },
                    ) => {
                        assert_eq!(dw, ow);
                        assert_eq!(db, ob);
                    }
                    _ => panic!("variant mismatch"),
                }
            }
        }
    }

    #[test]
    fn backward_ws_input_grad_matches_input_gradient() {
        use crate::workspace::{BackwardWorkspace, ForwardWorkspace};
        let net = tiny_net();
        let x = random_matrix(3, 4, 41);
        let targets = [1usize, 0, 2];
        let expected = net.input_gradient(&x, |logits| {
            crate::loss::softmax_cross_entropy(logits, &targets).1
        });
        let mut fws = ForwardWorkspace::new(&net);
        let mut bws = BackwardWorkspace::new(&net);
        net.forward_ws(&x, &mut fws);
        let (_, grad_logits) = crate::loss::softmax_cross_entropy(fws.output(), &targets);
        bws.grad_logits_mut().copy_from(&grad_logits);
        net.backward_ws(&x, &fws, None, &mut bws, None);
        assert_eq!(bws.input_grad(), &expected);
    }

    /// A backward pass fed `Wᵀ` from an [`InputGradPlan`] must equal the
    /// one that transposes into scratch bit for bit: same kernel, same
    /// bytes. The Dense input widths (11, 45, 37) make `dX = dY · Wᵀ` end
    /// on the strip kernel's 8-wide tile and its scalar tail, and the
    /// all-zero input rows come out of the first ReLU all zero, so their
    /// `dY` rows take the kernel's zero-skip.
    #[test]
    fn planned_backward_is_bit_identical_to_transposing_backward() {
        use crate::workspace::{BackwardWorkspace, ForwardWorkspace};
        let mut net = Network::new(vec![
            Layer::land_pool(
                3,
                2,
                2,
                vec![PoolOp::Avg, PoolOp::Max, PoolOp::Percentile(50)],
                3,
            ),
            Layer::dense(3 * 3 + 2, 45, 4),
            Layer::relu(),
            Layer::dense(45, 37, 5),
            Layer::relu(),
            Layer::dense(37, 3, 6),
        ]);
        let Layer::Dense(first) = &mut net.layers[1] else {
            panic!()
        };
        first.b.fill(-0.05);
        let plan = net.input_grad_plan();
        assert!(plan.matches(&net));
        let mut fws = ForwardWorkspace::new(&net);
        let mut transposing = BackwardWorkspace::new(&net);
        let mut planned = BackwardWorkspace::new(&net);
        for (batch, seed) in [(1usize, 51u64), (7, 52), (64, 53), (1, 54)] {
            let mut x = random_matrix(batch, 4 * 2 + 2, seed);
            if batch > 1 {
                x.row_mut(0).fill(0.0);
                x.row_mut(batch - 1).fill(0.0);
            }
            let targets: Vec<usize> = (0..batch).map(|i| i % 3).collect();
            net.forward_ws(&x, &mut fws);
            if batch > 1 {
                assert!(fws.activation(2).row(0).iter().all(|&v| v == 0.0));
            }
            let (_, grad_logits) = crate::loss::softmax_cross_entropy(fws.output(), &targets);
            transposing.grad_logits_mut().copy_from(&grad_logits);
            net.backward_ws(&x, &fws, None, &mut transposing, None);
            planned.grad_logits_mut().copy_from(&grad_logits);
            net.backward_ws(&x, &fws, None, &mut planned, Some(&plan));
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(planned.input_grad()),
                bits(transposing.input_grad()),
                "batch {batch}"
            );
            assert!(planned.input_grad().norm() > 0.0, "batch {batch}");
        }
        // The plan describes the weights it was built from, nothing later.
        let Layer::Dense(last) = &mut net.layers[5] else {
            panic!()
        };
        last.w.set(36, 2, last.w.get(36, 2) + 1.0);
        assert!(!plan.matches(&net));
        assert!(net.input_grad_plan().matches(&net));
    }

    /// The paper shape, bare and behind its LandPool: every Dense layer —
    /// the 317×512 one included — gets a `Wᵀ`, so a planned pass never
    /// transposes (its scratch `Wᵀ` stays 0×0) and is still bit-identical
    /// to the transposing one, and an edit to any Dense layer's weights
    /// makes the plan stale. Row 0 of the wider batches is all zero and
    /// leaves the first ReLU all zero, as in the test above.
    #[test]
    fn every_dense_layer_is_planned() {
        use crate::workspace::{BackwardWorkspace, ForwardWorkspace};
        let mlp = vec![
            Layer::dense(317, 512, 7),
            Layer::relu(),
            Layer::dense(512, 128, 8),
            Layer::relu(),
            Layer::dense(128, 7, 9),
        ];
        let mut pooled = vec![Layer::land_pool(24, 5, 5, PoolOp::standard_bank(), 6)];
        pooled.extend(mlp.iter().cloned());
        for (layers, in_width) in [(mlp, 317), (pooled, 10 * 5 + 5)] {
            let mut net = Network::new(layers);
            let is_dense: Vec<bool> = net
                .layers
                .iter()
                .map(|l| matches!(l, Layer::Dense(_)))
                .collect();
            let first_dense = is_dense.iter().position(|&d| d).unwrap();
            let Layer::Dense(first) = &mut net.layers[first_dense] else {
                panic!()
            };
            first.b.fill(-0.05);
            let plan = net.input_grad_plan();
            let held: Vec<bool> = plan.wt.iter().map(Option::is_some).collect();
            assert_eq!(held, is_dense);
            assert!(plan.matches(&net));

            let mut fws = ForwardWorkspace::new(&net);
            let mut transposing = BackwardWorkspace::new(&net);
            let mut planned = BackwardWorkspace::new(&net);
            for (batch, seed) in [(1usize, 61u64), (7, 62), (64, 63)] {
                let mut x = random_matrix(batch, in_width, seed);
                if batch > 1 {
                    x.row_mut(0).fill(0.0);
                }
                let targets: Vec<usize> = (0..batch).map(|i| i % 7).collect();
                net.forward_ws(&x, &mut fws);
                if batch > 1 {
                    let relu_out = fws.activation(first_dense + 1);
                    assert!(relu_out.row(0).iter().all(|&v| v == 0.0));
                }
                let (_, grad_logits) = crate::loss::softmax_cross_entropy(fws.output(), &targets);
                transposing.grad_logits_mut().copy_from(&grad_logits);
                net.backward_ws(&x, &fws, None, &mut transposing, None);
                planned.grad_logits_mut().copy_from(&grad_logits);
                net.backward_ws(&x, &fws, None, &mut planned, Some(&plan));
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(planned.input_grad()),
                    bits(transposing.input_grad()),
                    "batch {batch}"
                );
                assert!(planned.input_grad().norm() > 0.0, "batch {batch}");
            }
            let wt = &planned.scratch.wt;
            assert_eq!((wt.rows(), wt.cols()), (0, 0));
            assert!(!transposing.scratch.wt.data().is_empty());

            for i in (0..net.layers.len()).filter(|&i| is_dense[i]) {
                let mut edited = net.clone();
                let Layer::Dense(d) = &mut edited.layers[i] else {
                    panic!()
                };
                let (r, c) = (d.w.rows() - 1, d.w.cols() / 2);
                d.w.set(r, c, d.w.get(r, c) + 0.5);
                assert!(!plan.matches(&edited), "edit to layer {i} went unnoticed");
            }
        }
    }

    #[test]
    fn gradients_zero_resets() {
        let net = tiny_net();
        let mut grads = Gradients::zeros_like(&net);
        net.loss_gradients(&random_matrix(4, 4, 13), &[0, 1, 2, 0], &mut grads);
        let LayerGrads::Dense { dw, .. } = &grads.layers[0] else {
            panic!()
        };
        assert!(dw.norm() > 0.0);
        grads.zero();
        let LayerGrads::Dense { dw, .. } = &grads.layers[0] else {
            panic!()
        };
        assert_eq!(dw.norm(), 0.0);
    }
}
