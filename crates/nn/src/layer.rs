//! Network layers: dense, ReLU and the paper's LandPooling layer.
//!
//! Layers are a closed enum rather than trait objects: the DiagNet
//! architecture is fixed and small, the enum serialises cleanly with serde,
//! and match-based dispatch lets the compiler inline the hot paths.

use crate::init;
use crate::linalg::{
    add_bias, column_sums_acc, matmul_at_acc, matmul_bt_into, matmul_into, transpose_into,
};
use crate::pool::{pool_backward_cached, pool_forward_capture, PoolOp, PoolStats};
use crate::tensor::Matrix;
use crate::workspace::{BackwardScratch, LayerScratch, PoolRowScratch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Batch rows per parallel pooling task.
const POOL_ROWS_PER_TASK: usize = 8;
/// Total pooled values (`batch·ℓ·f`) above which the pooling loops run in
/// parallel. Rows are independent and tasks write disjoint output chunks,
/// so the parallel and serial paths produce identical results.
const POOL_PAR_VALUES: usize = 4096;

/// Copy the landmark prefix (`ℓ·k` values) of every row of `x` into `xl`,
/// shaped `(batch·ℓ) × k`, skipping the trailing local features. This is
/// the gather that lets one GEMM convolve the whole batch.
fn gather_landmarks(x: &Matrix, ell: usize, k: usize, xl: &mut Matrix) {
    let (batch, width) = (x.rows(), x.cols());
    xl.resize(batch * ell, k);
    let xd = x.data();
    let xld = xl.data_mut();
    for r in 0..batch {
        xld[r * ell * k..(r + 1) * ell * k].copy_from_slice(&xd[r * width..r * width + ell * k]);
    }
}

/// A fully-connected layer: `y = x · W + b` with `W ∈ R^{in × out}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weights, stored `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias, length `out_dim`.
    pub b: Vec<f32>,
    /// Frozen layers are skipped by the optimiser (used by the paper's
    /// general → specialised transfer, §IV-F).
    pub frozen: bool,
}

/// The LandPooling layer (paper §III-C, Fig. 3).
///
/// The input row is `[x[1] … x[ℓ] | local]` where each `x[λ] ∈ R^k` holds
/// the `k` metrics measured against landmark `λ` and `local` holds the
/// client-side features. The layer applies a **shared** kernel
/// `K ∈ R^{f×k}` and bias `b ∈ R^f` to every landmark block
/// (`F[λ] = K·x[λ] + b` — a non-overlapping convolution), then flattens the
/// variable number of landmarks with a bank of global pooling operations Ω
/// applied per filter. Local features pass through unchanged.
///
/// Output layout: `[op₀(f₀) … op₀(f_{f-1}) | op₁(…) … | local]`, i.e.
/// `ops.len() × f + n_local` values — **independent of ℓ**, which is what
/// makes the model root-cause extensible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LandPool {
    /// Shared convolution kernel, `f × k`.
    pub kernel: Matrix,
    /// Shared bias, length `f`.
    pub bias: Vec<f32>,
    /// The Ω pooling bank.
    pub ops: Vec<PoolOp>,
    /// Number of metrics per landmark (k).
    pub k: usize,
    /// Number of trailing local features passed through unchanged.
    pub n_local: usize,
    /// Frozen layers are skipped by the optimiser.
    pub frozen: bool,
}

impl LandPool {
    /// Number of convolution filters (f).
    pub fn filters(&self) -> usize {
        self.kernel.rows()
    }

    /// Output width (independent of the number of landmarks).
    pub fn out_dim(&self) -> usize {
        self.ops.len() * self.filters() + self.n_local
    }

    /// Number of landmarks implied by an input of `width` features.
    ///
    /// # Panics
    /// Panics if `width` is not `ℓ·k + n_local` for a positive integer ℓ.
    pub fn landmarks_for_width(&self, width: usize) -> usize {
        assert!(
            width > self.n_local && (width - self.n_local).is_multiple_of(self.k),
            "LandPool: input width {} incompatible with k={} and {} local features",
            width,
            self.k,
            self.n_local
        );
        (width - self.n_local) / self.k
    }
}

/// Cached intermediate state produced by `forward_cached`, consumed by
/// `backward`.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// Layers whose backward pass only needs the input (Dense, ReLU).
    None,
    /// LandPooling caches the per-landmark convolution outputs: one `ℓ×f`
    /// matrix per batch row, flattened to `batch × (ℓ·f)`, plus the
    /// pooling facts (sorted orders, means, arg-extrema) the backward pass
    /// replays instead of recomputing.
    LandPool {
        /// Per-row convolution outputs, `batch × (ℓ·f)` (row-major λ-then-f).
        f_values: Matrix,
        /// Number of landmarks in this batch's input.
        ell: usize,
        /// Captured sorted order per (row, filter) site, `batch·f·ℓ`
        /// flat (written only when the op bank contains a percentile).
        order: Vec<u32>,
        /// Captured mean/arg-extrema per (row, filter) site, `batch·f`.
        stats: Vec<PoolStats>,
    },
}

/// Parameter gradients for one layer.
#[derive(Debug, Clone)]
pub enum LayerGrads {
    /// Parameter-free layer.
    None,
    /// Dense gradients.
    Dense {
        /// `∂L/∂W`, same shape as `Dense::w`.
        dw: Matrix,
        /// `∂L/∂b`.
        db: Vec<f32>,
    },
    /// LandPool gradients.
    LandPool {
        /// `∂L/∂K`, same shape as `LandPool::kernel`.
        dk: Matrix,
        /// `∂L/∂b`.
        db: Vec<f32>,
    },
}

impl LayerGrads {
    /// In-place accumulation (used when summing gradients across batches).
    pub fn add_assign(&mut self, other: &LayerGrads) {
        match (self, other) {
            (LayerGrads::None, LayerGrads::None) => {}
            (LayerGrads::Dense { dw, db }, LayerGrads::Dense { dw: ow, db: ob }) => {
                dw.add_assign(ow);
                for (a, b) in db.iter_mut().zip(ob) {
                    *a += b;
                }
            }
            (LayerGrads::LandPool { dk, db }, LayerGrads::LandPool { dk: ok, db: ob }) => {
                dk.add_assign(ok);
                for (a, b) in db.iter_mut().zip(ob) {
                    *a += b;
                }
            }
            _ => panic!("LayerGrads::add_assign: mismatched variants"),
        }
    }

    /// Scale all gradients (e.g. to average over a batch).
    pub fn scale(&mut self, factor: f32) {
        match self {
            LayerGrads::None => {}
            LayerGrads::Dense { dw, db } | LayerGrads::LandPool { dk: dw, db } => {
                dw.scale(factor);
                for b in db.iter_mut() {
                    *b *= factor;
                }
            }
        }
    }
}

/// A single network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// Element-wise rectified linear unit.
    ReLU,
    /// The DiagNet LandPooling layer.
    LandPool(LandPool),
}

impl Layer {
    /// A dense layer with He-initialised weights (suitable before ReLU).
    pub fn dense(in_dim: usize, out_dim: usize, seed: u64) -> Layer {
        Layer::Dense(Dense {
            w: init::he(in_dim, out_dim, in_dim, seed),
            b: vec![0.0; out_dim],
            frozen: false,
        })
    }

    /// A ReLU activation layer.
    pub fn relu() -> Layer {
        Layer::ReLU
    }

    /// A LandPooling layer with a Xavier-initialised shared kernel.
    pub fn land_pool(
        filters: usize,
        k: usize,
        n_local: usize,
        ops: Vec<PoolOp>,
        seed: u64,
    ) -> Layer {
        assert!(!ops.is_empty(), "land_pool: Ω bank must not be empty");
        assert!(k > 0, "land_pool: k must be positive");
        Layer::LandPool(LandPool {
            kernel: init::xavier(filters, k, k, filters, seed),
            bias: vec![0.0; filters],
            ops,
            k,
            n_local,
            frozen: false,
        })
    }

    /// Output width for an input of `in_dim` features.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            Layer::Dense(d) => {
                assert_eq!(
                    in_dim,
                    d.w.rows(),
                    "Dense layer expects {} inputs, got {in_dim}",
                    d.w.rows()
                );
                d.w.cols()
            }
            Layer::ReLU => in_dim,
            Layer::LandPool(lp) => {
                // Validates the width as a side effect.
                lp.landmarks_for_width(in_dim);
                lp.out_dim()
            }
        }
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense(d) => d.w.rows() * d.w.cols() + d.b.len(),
            Layer::ReLU => 0,
            Layer::LandPool(lp) => lp.kernel.rows() * lp.kernel.cols() + lp.bias.len(),
        }
    }

    /// True when every parameter of this layer is finite (no NaN/Inf) —
    /// the load-time/publish-time health check of corrupted or diverged
    /// models.
    pub fn params_finite(&self) -> bool {
        match self {
            Layer::Dense(d) => {
                d.w.data().iter().all(|v| v.is_finite()) && d.b.iter().all(|v| v.is_finite())
            }
            Layer::ReLU => true,
            Layer::LandPool(lp) => {
                lp.kernel.data().iter().all(|v| v.is_finite())
                    && lp.bias.iter().all(|v| v.is_finite())
            }
        }
    }

    /// Whether the optimiser should skip this layer.
    pub fn is_frozen(&self) -> bool {
        match self {
            Layer::Dense(d) => d.frozen,
            Layer::ReLU => true,
            Layer::LandPool(lp) => lp.frozen,
        }
    }

    /// Freeze or thaw this layer (no-op for parameter-free layers).
    pub fn set_frozen(&mut self, frozen: bool) {
        match self {
            Layer::Dense(d) => d.frozen = frozen,
            Layer::ReLU => {}
            Layer::LandPool(lp) => lp.frozen = frozen,
        }
    }

    /// An all-zero gradient holder matching this layer's parameters.
    pub fn zero_grads(&self) -> LayerGrads {
        match self {
            Layer::Dense(d) => LayerGrads::Dense {
                dw: Matrix::zeros(d.w.rows(), d.w.cols()),
                db: vec![0.0; d.b.len()],
            },
            Layer::ReLU => LayerGrads::None,
            Layer::LandPool(lp) => LayerGrads::LandPool {
                dk: Matrix::zeros(lp.kernel.rows(), lp.kernel.cols()),
                db: vec![0.0; lp.bias.len()],
            },
        }
    }

    /// Inference forward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_cached(x).0
    }

    /// Training forward pass: also returns the cache `backward` needs.
    /// Allocating wrapper around [`Layer::forward_cached_into`].
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, LayerCache) {
        let mut out = Matrix::zeros(0, 0);
        let mut cache = LayerCache::None;
        let mut scratch = LayerScratch::for_layer(self);
        self.forward_cached_into(x, &mut out, &mut cache, &mut scratch);
        (out, cache)
    }

    /// Training forward pass into caller-owned buffers: `out` receives the
    /// activations, `cache` the state `backward_into` needs, and `scratch`
    /// (from [`crate::workspace::ForwardWorkspace`]) holds reusable
    /// intermediates. Allocation-free once the buffers reach steady-state
    /// capacity.
    pub fn forward_cached_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        cache: &mut LayerCache,
        scratch: &mut LayerScratch,
    ) {
        match self {
            Layer::Dense(d) => {
                assert_eq!(x.cols(), d.w.rows(), "Dense forward: width mismatch");
                matmul_into(x, &d.w, out);
                add_bias(out, &d.b);
                *cache = LayerCache::None;
            }
            Layer::ReLU => {
                out.copy_from(x);
                for v in out.data_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                *cache = LayerCache::None;
            }
            Layer::LandPool(lp) => {
                let ell = lp.landmarks_for_width(x.cols());
                let (f, k) = (lp.filters(), lp.k);
                let n_ops = lp.ops.len();
                let land_width = n_ops * f;
                let out_width = land_width + lp.n_local;
                let (batch, in_width) = (x.rows(), x.cols());
                let LayerScratch::LandPool { xl, rows } = scratch else {
                    panic!("LandPool forward: scratch has wrong variant");
                };
                // One GEMM convolves the whole batch: gather every row's
                // landmark blocks, multiply by the shared kernel, add bias.
                gather_landmarks(x, ell, k, xl);
                if !matches!(cache, LayerCache::LandPool { .. }) {
                    *cache = LayerCache::LandPool {
                        f_values: Matrix::zeros(0, 0),
                        ell: 0,
                        order: Vec::new(),
                        stats: Vec::new(),
                    };
                }
                let LayerCache::LandPool {
                    f_values,
                    ell: cached_ell,
                    order,
                    stats,
                } = cache
                else {
                    unreachable!()
                };
                matmul_bt_into(xl, &lp.kernel, f_values); // (batch·ℓ) × f
                add_bias(f_values, &lp.bias);
                // Same data viewed as batch × (ℓ·f), row-major λ-then-f.
                f_values.resize(batch, ell * f);
                *cached_ell = ell;
                // The capture buffers are always sized (even when no op
                // needs the sorted order) so the chunked zips below never
                // run dry; unused entries are simply never read.
                order.resize(batch * f * ell, 0);
                stats.resize(batch * f, PoolStats::default());

                out.resize(batch, out_width);
                let pool_rows = |out_chunk: &mut [f32],
                                 f_chunk: &[f32],
                                 x_chunk: &[f32],
                                 order_chunk: &mut [u32],
                                 stats_chunk: &mut [PoolStats],
                                 rs: &mut PoolRowScratch| {
                    rs.op_out.resize(n_ops, 0.0);
                    for ((((out_row, frow), in_row), row_order), row_stats) in out_chunk
                        .chunks_exact_mut(out_width)
                        .zip(f_chunk.chunks_exact(ell * f))
                        .zip(x_chunk.chunks_exact(in_width))
                        .zip(order_chunk.chunks_exact_mut(f * ell))
                        .zip(stats_chunk.chunks_exact_mut(f))
                    {
                        for j in 0..f {
                            rs.col.clear();
                            rs.col.extend((0..ell).map(|lam| frow[lam * f + j]));
                            row_stats[j] = pool_forward_capture(
                                &rs.col,
                                &lp.ops,
                                &mut rs.op_out,
                                &mut rs.sort,
                                &mut row_order[j * ell..(j + 1) * ell],
                            );
                            for (oi, &v) in rs.op_out.iter().enumerate() {
                                out_row[oi * f + j] = v;
                            }
                        }
                        out_row[land_width..].copy_from_slice(&in_row[ell * k..]);
                    }
                };
                if batch * ell * f >= POOL_PAR_VALUES {
                    let n_tasks = batch.div_ceil(POOL_ROWS_PER_TASK);
                    if rows.len() < n_tasks {
                        rows.resize_with(n_tasks, PoolRowScratch::default);
                    }
                    out.data_mut()
                        .par_chunks_mut(POOL_ROWS_PER_TASK * out_width)
                        .zip(f_values.data().par_chunks(POOL_ROWS_PER_TASK * ell * f))
                        .zip(x.data().par_chunks(POOL_ROWS_PER_TASK * in_width))
                        .zip(order.par_chunks_mut(POOL_ROWS_PER_TASK * f * ell))
                        .zip(stats.par_chunks_mut(POOL_ROWS_PER_TASK * f))
                        .zip(rows[..n_tasks].par_iter_mut())
                        .for_each(|(((((oc, fc), xc), orc), stc), rs)| {
                            pool_rows(oc, fc, xc, orc, stc, rs)
                        });
                } else {
                    if rows.is_empty() {
                        rows.push(PoolRowScratch::default());
                    }
                    pool_rows(
                        out.data_mut(),
                        f_values.data(),
                        x.data(),
                        order,
                        stats,
                        &mut rows[0],
                    );
                }
            }
        }
    }

    /// Backward pass.
    ///
    /// `input` is the activation that was fed to `forward_cached`, `cache`
    /// its cache, `grad_out` the loss gradient w.r.t. this layer's output.
    /// Returns the gradient w.r.t. the input; if `grads` is `Some`,
    /// parameter gradients are **accumulated** into it. Allocating wrapper
    /// around [`Layer::backward_into`].
    pub fn backward(
        &self,
        input: &Matrix,
        cache: &LayerCache,
        grad_out: &Matrix,
        grads: Option<&mut LayerGrads>,
    ) -> Matrix {
        let mut grad_in = Matrix::zeros(0, 0);
        let mut scratch = BackwardScratch::default();
        self.backward_into(
            input,
            cache,
            grad_out,
            &mut grad_in,
            grads,
            &mut scratch,
            None,
        );
        grad_in
    }

    /// Backward pass into caller-owned buffers: `grad_in` receives the
    /// gradient w.r.t. the input, `scratch` (from
    /// [`crate::workspace::BackwardWorkspace`]) holds the LandPool DF/XL
    /// intermediates. Allocation-free once buffers reach steady-state
    /// capacity, except for the gradient GEMMs' batch-partial parallel
    /// path.
    ///
    /// `dense_wt` is this layer's `Wᵀ` from an
    /// [`InputGradPlan`](crate::network::InputGradPlan) when the weights
    /// are frozen (serving); `None` (training, where `W` moves every step)
    /// transposes into `scratch` on each call. Ignored by ReLU and LandPool.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into(
        &self,
        input: &Matrix,
        cache: &LayerCache,
        grad_out: &Matrix,
        grad_in: &mut Matrix,
        grads: Option<&mut LayerGrads>,
        scratch: &mut BackwardScratch,
        dense_wt: Option<&Matrix>,
    ) {
        match self {
            Layer::Dense(d) => {
                // dX = dY · Wᵀ with Wᵀ materialised (by the plan, else
                // into scratch here): O(in·out) data movement lets the
                // O(batch·in·out) product run through the streaming
                // register-strip kernel instead of matmul_bt_into's
                // serially-dependent dot products — the difference
                // between FP-add latency and FMA throughput. Both forms
                // accumulate each element in ascending-k order, and both
                // sources of Wᵀ feed the same kernel the same bytes, so
                // results are bit-identical.
                let wt = match dense_wt {
                    Some(wt) => wt,
                    None => {
                        transpose_into(&d.w, &mut scratch.wt);
                        &scratch.wt
                    }
                };
                matmul_into(grad_out, wt, grad_in);
                if let Some(LayerGrads::Dense { dw, db }) = grads {
                    matmul_at_acc(input, grad_out, dw);
                    column_sums_acc(grad_out, db);
                } else if grads.is_some() {
                    panic!("Dense backward: gradient holder has wrong variant");
                }
            }
            Layer::ReLU => {
                grad_in.copy_from(grad_out);
                for (g, &x) in grad_in.data_mut().iter_mut().zip(input.data()) {
                    if x <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Layer::LandPool(lp) => {
                let LayerCache::LandPool {
                    f_values,
                    ell,
                    order,
                    stats,
                } = cache
                else {
                    panic!("LandPool backward: missing cache");
                };
                let ell = *ell;
                let (f, k) = (lp.filters(), lp.k);
                let n_ops = lp.ops.len();
                let land_width = n_ops * f;
                let (batch, in_width) = (input.rows(), input.cols());
                let gout_width = grad_out.cols();

                // 1. DF: gradient of every per-landmark filter output,
                //    built per row through the pooling sub-gradients and
                //    laid out `(batch·ℓ) × f` so the parameter and input
                //    gradients below are plain GEMMs over the whole batch.
                scratch.df.resize(batch * ell, f);
                let build_df = |df_chunk: &mut [f32],
                                f_chunk: &[f32],
                                g_chunk: &[f32],
                                order_chunk: &[u32],
                                stats_chunk: &[PoolStats],
                                rs: &mut PoolRowScratch| {
                    rs.op_out.resize(n_ops, 0.0);
                    rs.ft.resize(ell * f, 0.0);
                    rs.dft.resize(ell * f, 0.0);
                    for ((((df_row, frow), gout_row), row_order), row_stats) in df_chunk
                        .chunks_exact_mut(ell * f)
                        .zip(f_chunk.chunks_exact(ell * f))
                        .zip(g_chunk.chunks_exact(gout_width))
                        .zip(order_chunk.chunks_exact(f * ell))
                        .zip(stats_chunk.chunks_exact(f))
                    {
                        // Transpose the row's ℓ×f filter outputs to f×ℓ up
                        // front: every filter's landmark column becomes one
                        // contiguous slice, so the pooling sub-gradients
                        // stream over it instead of gathering stride-f
                        // elements per filter. Pure data movement — values
                        // and the per-op gradient order are unchanged.
                        for (lam, fr) in frow.chunks_exact(f).enumerate() {
                            for (j, &v) in fr.iter().enumerate() {
                                rs.ft[j * ell + lam] = v;
                            }
                        }
                        rs.dft.iter_mut().for_each(|g| *g = 0.0);
                        for j in 0..f {
                            for (oi, og) in rs.op_out.iter_mut().enumerate() {
                                *og = gout_row[oi * f + j];
                            }
                            // Replay the forward's captured sort/mean/
                            // arg-extrema instead of recomputing them —
                            // the single biggest cost of the serving
                            // backward, and bit-identical by construction.
                            pool_backward_cached(
                                &rs.ft[j * ell..(j + 1) * ell],
                                &lp.ops,
                                &rs.op_out,
                                &mut rs.dft[j * ell..(j + 1) * ell],
                                &row_order[j * ell..(j + 1) * ell],
                                row_stats[j],
                            );
                        }
                        // Scatter back to the ℓ-major layout the GEMMs
                        // below expect.
                        for (lam, dr) in df_row.chunks_exact_mut(f).enumerate() {
                            for (j, o) in dr.iter_mut().enumerate() {
                                *o = rs.dft[j * ell + lam];
                            }
                        }
                    }
                };
                if batch * ell * f >= POOL_PAR_VALUES {
                    let n_tasks = batch.div_ceil(POOL_ROWS_PER_TASK);
                    if scratch.rows.len() < n_tasks {
                        scratch.rows.resize_with(n_tasks, PoolRowScratch::default);
                    }
                    scratch
                        .df
                        .data_mut()
                        .par_chunks_mut(POOL_ROWS_PER_TASK * ell * f)
                        .zip(f_values.data().par_chunks(POOL_ROWS_PER_TASK * ell * f))
                        .zip(grad_out.data().par_chunks(POOL_ROWS_PER_TASK * gout_width))
                        .zip(order.par_chunks(POOL_ROWS_PER_TASK * f * ell))
                        .zip(stats.par_chunks(POOL_ROWS_PER_TASK * f))
                        .zip(scratch.rows[..n_tasks].par_iter_mut())
                        .for_each(|(((((dc, fc), gc), orc), stc), rs)| {
                            build_df(dc, fc, gc, orc, stc, rs)
                        });
                } else {
                    if scratch.rows.is_empty() {
                        scratch.rows.push(PoolRowScratch::default());
                    }
                    build_df(
                        scratch.df.data_mut(),
                        f_values.data(),
                        grad_out.data(),
                        order,
                        stats,
                        &mut scratch.rows[0],
                    );
                }

                // 2. Parameter gradients in two batched reductions:
                //    dK += DFᵀ · XL and db += column sums of DF.
                if let Some(LayerGrads::LandPool { dk, db }) = grads {
                    gather_landmarks(input, ell, k, &mut scratch.xl);
                    matmul_at_acc(&scratch.df, &scratch.xl, dk);
                    column_sums_acc(&scratch.df, db);
                } else if grads.is_some() {
                    panic!("LandPool backward: gradient holder has wrong variant");
                }

                // 3. dXL = DF · K, scattered back to the landmark prefix of
                //    each input row; local features pass straight through.
                matmul_into(&scratch.df, &lp.kernel, &mut scratch.dxl);
                grad_in.resize(batch, in_width);
                let gind = grad_in.data_mut();
                let dxld = scratch.dxl.data();
                let goutd = grad_out.data();
                for r in 0..batch {
                    let gin_row = &mut gind[r * in_width..(r + 1) * in_width];
                    gin_row[..ell * k].copy_from_slice(&dxld[r * ell * k..(r + 1) * ell * k]);
                    let gout_row = &goutd[r * gout_width..(r + 1) * gout_width];
                    gin_row[ell * k..].copy_from_slice(&gout_row[land_width..]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn dense_forward_shapes_and_bias() {
        let mut layer = Layer::dense(3, 2, 1);
        if let Layer::Dense(d) = &mut layer {
            d.b = vec![1.0, -1.0];
        }
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert_eq!(y.row(0), &[1.0, -1.0]); // zero input → bias only
    }

    #[test]
    fn relu_clamps_negative() {
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]);
        let y = Layer::relu().forward(&x);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let x = Matrix::from_rows(&[vec![-1.0, 0.5]]);
        let layer = Layer::relu();
        let (_, cache) = layer.forward_cached(&x);
        let g = Matrix::from_rows(&[vec![3.0, 3.0]]);
        let gi = layer.backward(&x, &cache, &g, None);
        assert_eq!(gi.row(0), &[0.0, 3.0]);
    }

    #[test]
    fn landpool_output_width_independent_of_landmarks() {
        let layer = Layer::land_pool(4, 3, 2, PoolOp::small_bank(), 2);
        let x5 = Matrix::zeros(1, 5 * 3 + 2);
        let x9 = Matrix::zeros(1, 9 * 3 + 2);
        assert_eq!(layer.forward(&x5).cols(), 3 * 4 + 2);
        assert_eq!(layer.forward(&x9).cols(), 3 * 4 + 2);
    }

    #[test]
    fn landpool_local_passthrough() {
        let layer = Layer::land_pool(2, 2, 3, vec![PoolOp::Avg], 3);
        let mut x = Matrix::zeros(1, 2 * 2 + 3);
        x.row_mut(0)[4..].copy_from_slice(&[7.0, 8.0, 9.0]);
        let y = layer.forward(&x);
        assert_eq!(&y.row(0)[2..], &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn landpool_permutation_invariant_over_landmarks() {
        // Pooling is commutative: permuting landmark blocks must not change
        // the output. This is the heart of root-cause extensibility.
        let layer = Layer::land_pool(5, 4, 2, PoolOp::standard_bank(), 7);
        let mut rng = SplitMix64::new(99);
        let blocks: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..4).map(|_| rng.next_f32()).collect())
            .collect();
        let local = [0.3f32, -0.4];
        let build = |order: &[usize]| {
            let mut row = Vec::new();
            for &i in order {
                row.extend_from_slice(&blocks[i]);
            }
            row.extend_from_slice(&local);
            Matrix::from_row(row)
        };
        let y1 = layer.forward(&build(&[0, 1, 2, 3, 4, 5]));
        let y2 = layer.forward(&build(&[5, 3, 1, 0, 4, 2]));
        assert!(y1.max_abs_diff(&y2) < 1e-5);
    }

    /// Finite-difference check of the full LandPool backward pass:
    /// input gradients, kernel gradients and bias gradients.
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn landpool_gradcheck() {
        let layer = Layer::land_pool(3, 2, 2, vec![PoolOp::Avg, PoolOp::Max, PoolOp::Var], 11);
        let x = random_matrix(2, 4 * 2 + 2, 13);
        let (y, cache) = layer.forward_cached(&x);
        // Loss = sum of outputs → grad_out = ones.
        let gout = Matrix::full(y.rows(), y.cols(), 1.0);
        let mut grads = layer.zero_grads();
        let gin = layer.backward(&x, &cache, &gout, Some(&mut grads));
        let loss = |l: &Layer, x: &Matrix| -> f32 { l.forward(x).data().iter().sum() };
        let eps = 1e-2f32;
        // Input gradients.
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!(
                    (gin.get(r, c) - num).abs() < 2e-2,
                    "input grad ({r},{c}): {} vs {}",
                    gin.get(r, c),
                    num
                );
            }
        }
        // Kernel and bias gradients.
        let LayerGrads::LandPool { dk, db } = &grads else {
            unreachable!()
        };
        let Layer::LandPool(lp) = &layer else {
            unreachable!()
        };
        for j in 0..lp.kernel.rows() {
            for c in 0..lp.kernel.cols() {
                let mut lp_p = lp.clone();
                lp_p.kernel.set(j, c, lp.kernel.get(j, c) + eps);
                let mut lp_m = lp.clone();
                lp_m.kernel.set(j, c, lp.kernel.get(j, c) - eps);
                let num = (loss(&Layer::LandPool(lp_p), &x) - loss(&Layer::LandPool(lp_m), &x))
                    / (2.0 * eps);
                assert!(
                    (dk.get(j, c) - num).abs() < 5e-2,
                    "kernel grad ({j},{c}): {} vs {}",
                    dk.get(j, c),
                    num
                );
            }
            let mut lp_p = lp.clone();
            lp_p.bias[j] += eps;
            let mut lp_m = lp.clone();
            lp_m.bias[j] -= eps;
            let num =
                (loss(&Layer::LandPool(lp_p), &x) - loss(&Layer::LandPool(lp_m), &x)) / (2.0 * eps);
            assert!(
                (db[j] - num).abs() < 5e-2,
                "bias grad {j}: {} vs {}",
                db[j],
                num
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn dense_gradcheck() {
        let layer = Layer::dense(3, 2, 17);
        let x = random_matrix(4, 3, 19);
        let (y, cache) = layer.forward_cached(&x);
        let gout = Matrix::full(y.rows(), y.cols(), 1.0);
        let mut grads = layer.zero_grads();
        let gin = layer.backward(&x, &cache, &gout, Some(&mut grads));
        let loss = |l: &Layer, x: &Matrix| -> f32 { l.forward(x).data().iter().sum() };
        let eps = 1e-2f32;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!((gin.get(r, c) - num).abs() < 1e-2);
            }
        }
        let LayerGrads::Dense { dw, db } = &grads else {
            unreachable!()
        };
        let Layer::Dense(d) = &layer else {
            unreachable!()
        };
        for r in 0..d.w.rows() {
            for c in 0..d.w.cols() {
                let mut dp = d.clone();
                dp.w.set(r, c, d.w.get(r, c) + eps);
                let mut dm = d.clone();
                dm.w.set(r, c, d.w.get(r, c) - eps);
                let num = (loss(&Layer::Dense(dp), &x) - loss(&Layer::Dense(dm), &x)) / (2.0 * eps);
                assert!((dw.get(r, c) - num).abs() < 2e-2);
            }
        }
        for j in 0..d.b.len() {
            let mut dp = d.clone();
            dp.b[j] += eps;
            let mut dm = d.clone();
            dm.b[j] -= eps;
            let num = (loss(&Layer::Dense(dp), &x) - loss(&Layer::Dense(dm), &x)) / (2.0 * eps);
            assert!((db[j] - num).abs() < 2e-2);
        }
    }

    #[test]
    fn freeze_flags() {
        let mut layer = Layer::dense(2, 2, 21);
        assert!(!layer.is_frozen());
        layer.set_frozen(true);
        assert!(layer.is_frozen());
        assert!(
            Layer::relu().is_frozen(),
            "parameter-free layers report frozen"
        );
    }

    #[test]
    fn param_counts() {
        assert_eq!(Layer::dense(317, 512, 1).num_params(), 317 * 512 + 512);
        assert_eq!(Layer::relu().num_params(), 0);
        assert_eq!(
            Layer::land_pool(24, 5, 5, PoolOp::standard_bank(), 1).num_params(),
            24 * 5 + 24
        );
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn landpool_rejects_bad_width() {
        let layer = Layer::land_pool(2, 3, 1, vec![PoolOp::Avg], 1);
        layer.forward(&Matrix::zeros(1, 9)); // (9-1) % 3 != 0
    }
}
