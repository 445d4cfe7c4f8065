//! Reusable forward/backward workspaces: the zero-allocation hot path.
//!
//! The allocating APIs (`Network::forward`, `Layer::forward_cached`, …)
//! create a fresh `Matrix` per layer per call, which makes the allocator
//! the bottleneck of both training epochs and high-throughput scoring. The
//! types here own every buffer those passes need — per-layer activations,
//! caches, pooling scratch and ping-pong gradient buffers — so a caller
//! creates them **once** per training run or scoring session and reuses
//! them across mini-batches and epochs. After the first pass at a given
//! batch size ("warm-up"), a forward pass performs zero heap allocations;
//! [`crate::tensor::Matrix::resize`] only adjusts lengths within existing
//! capacity.
//!
//! ```
//! use diagnet_nn::prelude::*;
//! use diagnet_nn::workspace::ForwardWorkspace;
//!
//! let net = Network::new(vec![Layer::dense(4, 8, 1), Layer::relu(), Layer::dense(8, 2, 2)]);
//! let mut ws = ForwardWorkspace::new(&net);
//! let x = Matrix::zeros(16, 4);
//! for _ in 0..3 {
//!     let logits = net.forward_ws(&x, &mut ws); // no allocation after the first pass
//!     assert_eq!(logits.cols(), 2);
//! }
//! ```

use crate::layer::{Layer, LayerCache};
use crate::network::Network;
use crate::pool::PoolScratch;
use crate::tensor::Matrix;

/// Per-task scratch for the LandPool pooling loops: one gathered filter
/// column, its gradient, the per-op outputs and the percentile sort
/// indices. Buffers grow to their steady-state size on first use and are
/// then reused verbatim.
#[derive(Debug, Default)]
pub struct PoolRowScratch {
    /// One filter's values across landmarks (length ℓ, forward only).
    pub(crate) col: Vec<f32>,
    /// Per-op outputs or upstream gradients (length `ops.len()`).
    pub(crate) op_out: Vec<f32>,
    /// One row's filter outputs transposed to `f × ℓ` (backward only):
    /// each filter's landmark column becomes a contiguous slice, so the
    /// pooling sub-gradients stream instead of striding.
    pub(crate) ft: Vec<f32>,
    /// Gradient w.r.t. `ft`, same `f × ℓ` layout (backward only).
    pub(crate) dft: Vec<f32>,
    /// Percentile sort indices.
    pub(crate) sort: PoolScratch,
}

/// Per-layer forward scratch owned by a [`ForwardWorkspace`].
#[derive(Debug)]
pub enum LayerScratch {
    /// Dense and ReLU need no scratch beyond the output buffer.
    None,
    /// LandPool scratch.
    LandPool {
        /// Gathered landmark blocks, `(batch·ℓ) × k`.
        xl: Matrix,
        /// One pooling scratch per parallel task.
        rows: Vec<PoolRowScratch>,
    },
}

impl LayerScratch {
    /// The scratch variant matching `layer`.
    pub fn for_layer(layer: &Layer) -> LayerScratch {
        match layer {
            Layer::LandPool(_) => LayerScratch::LandPool {
                xl: Matrix::zeros(0, 0),
                rows: Vec::new(),
            },
            _ => LayerScratch::None,
        }
    }
}

/// Owns everything a cached forward pass writes: one activation matrix and
/// one cache per layer, plus per-layer scratch. Created once per network
/// (shapes follow the data, so the same workspace serves any batch size).
#[derive(Debug)]
pub struct ForwardWorkspace {
    /// `activations[i]` is the output of layer `i` (the input matrix is
    /// *not* copied; callers pass it alongside the workspace).
    pub(crate) activations: Vec<Matrix>,
    /// Per-layer backward caches.
    pub(crate) caches: Vec<LayerCache>,
    /// Per-layer forward scratch.
    pub(crate) scratch: Vec<LayerScratch>,
}

impl ForwardWorkspace {
    /// An empty workspace shaped for `net`. Buffers are grown lazily by the
    /// first forward pass.
    pub fn new(net: &Network) -> Self {
        ForwardWorkspace {
            activations: net.layers.iter().map(|_| Matrix::zeros(0, 0)).collect(),
            caches: net.layers.iter().map(|_| LayerCache::None).collect(),
            scratch: net.layers.iter().map(LayerScratch::for_layer).collect(),
        }
    }

    /// The last forward pass's logits.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("workspace: empty network")
    }

    /// Consume the workspace, keeping only the logits.
    pub fn into_output(mut self) -> Matrix {
        self.activations.pop().expect("workspace: empty network")
    }

    /// Output of layer `i` from the last forward pass.
    pub fn activation(&self, i: usize) -> &Matrix {
        &self.activations[i]
    }

    /// Number of layers this workspace was shaped for.
    pub fn num_layers(&self) -> usize {
        self.activations.len()
    }

    /// Whether this workspace was shaped for `net`'s architecture (layer
    /// count and per-layer scratch variants). Long-lived callers (e.g. a
    /// thread-local scoring workspace) use this to detect that the model
    /// behind them was swapped and rebuild instead of panicking inside a
    /// pass. Buffer *contents* are irrelevant: every pass overwrites them
    /// in full.
    pub fn matches(&self, net: &Network) -> bool {
        self.activations.len() == net.layers.len()
            && self
                .scratch
                .iter()
                .zip(&net.layers)
                .all(|(s, l)| match (s, l) {
                    (LayerScratch::LandPool { .. }, Layer::LandPool(_)) => true,
                    (LayerScratch::None, Layer::LandPool(_)) => false,
                    (LayerScratch::LandPool { .. }, _) => false,
                    (LayerScratch::None, _) => true,
                })
    }
}

/// Scratch buffers for `Layer::backward_into`, shared by every layer of a
/// network (sizes follow the largest layer; `Matrix::resize` keeps
/// capacity when shrinking).
#[derive(Debug, Default)]
pub struct BackwardScratch {
    /// Gathered landmark blocks, `(batch·ℓ) × k` (LandPool only).
    pub(crate) xl: Matrix,
    /// Gradient of every per-landmark filter output, `(batch·ℓ) × f`.
    pub(crate) df: Matrix,
    /// Gradient w.r.t. the gathered landmark blocks, `(batch·ℓ) × k`.
    pub(crate) dxl: Matrix,
    /// Transposed Dense weights (`Wᵀ`, `out × in`) so `dX = dY · Wᵀ` runs
    /// through the streaming [`crate::linalg::matmul_into`] kernel instead
    /// of the latency-bound dot-product form. Written by every Dense layer
    /// of a pass without an
    /// [`InputGradPlan`](crate::network::InputGradPlan) — training, where
    /// `W` moves every step, and the allocating wrappers; a pass with one
    /// never touches it, so it stays empty in a serving worker.
    pub(crate) wt: Matrix,
    /// One pooling scratch per parallel task.
    pub(crate) rows: Vec<PoolRowScratch>,
}

/// Owns the ping-pong gradient buffers of a backward pass. The caller
/// writes `∂L/∂logits` into [`BackwardWorkspace::grad_logits_mut`], runs
/// `Network::backward_ws`, and reads `∂L/∂input` back from
/// [`BackwardWorkspace::input_grad`] — two matrices serve the whole stack
/// because each layer consumes one and produces the other.
#[derive(Debug, Default)]
pub struct BackwardWorkspace {
    /// Holds `∂L/∂logits` before the pass and `∂L/∂input` after it.
    pub(crate) cur: Matrix,
    /// The other half of the ping-pong pair.
    pub(crate) next: Matrix,
    /// Layer scratch (LandPool DF/XL buffers).
    pub(crate) scratch: BackwardScratch,
}

impl BackwardWorkspace {
    /// An empty backward workspace (buffers grow lazily on first use).
    pub fn new(_net: &Network) -> Self {
        BackwardWorkspace::default()
    }

    /// Buffer the caller seeds with `∂L/∂logits` before `backward_ws`.
    pub fn grad_logits_mut(&mut self) -> &mut Matrix {
        &mut self.cur
    }

    /// Gradient w.r.t. the network input, valid after `backward_ws`.
    pub fn input_grad(&self) -> &Matrix {
        &self.cur
    }
}
