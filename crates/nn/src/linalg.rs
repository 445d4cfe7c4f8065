//! Matrix products, parallelised with rayon.
//!
//! Three product flavours cover everything backpropagation needs:
//!
//! * [`matmul`]      — `C = A · B`        (forward pass `Y = X · W`, Dense
//!   weights being stored `in × out` — see [`crate::layer::Dense`] — and
//!   the Dense input gradient `dX = dY · Wᵀ` against a materialised `Wᵀ`)
//! * [`matmul_bt`]   — `C = A · Bᵀ`       (the LandPool convolution
//!   `F = XL · Kᵀ`, kernel stored `f × k`)
//! * [`matmul_at`]   — `C = Aᵀ · B`       (weight gradients: `dW = Xᵀ · dY`)
//!
//! Only the Dense input gradient needs a transposed operand in memory,
//! because the streaming kernel behind [`matmul`] is an order of magnitude
//! faster than [`matmul_bt`]'s dot products. Who owns that `Wᵀ` depends on
//! whether the weights still move: for frozen weights (a published model
//! being served) an [`InputGradPlan`](crate::network::InputGradPlan)
//! holds one `Wᵀ` per Dense layer, built once per model, and a backward
//! pass is one [`matmul_into`] per layer; for training, where `W` changes
//! every step, [`transpose_into`] rebuilds it in the backward scratch on
//! every call. Both feed the same kernel the same bytes.
//!
//! Every kernel also exists as a `*_into` variant ([`matmul_into`],
//! [`matmul_bt_into`], [`matmul_at_into`], plus the accumulating
//! [`matmul_at_acc`] and [`column_sums_acc`]) that writes into a
//! caller-provided buffer; the allocating functions are thin wrappers.
//! The `*_into` family is what the workspace-based hot path uses: after
//! warm-up, no call here touches the allocator.
//!
//! ## Tiling
//!
//! Kernels process `MB`-row blocks and tile the reduction dimension in
//! `KB`-wide slabs, so the slab of `B` a block needs is loaded into cache
//! once and reused by every row of the block instead of re-streamed per
//! row. With row-major storage the inner loops stream contiguously, which
//! lets LLVM auto-vectorise them.
//!
//! ## Parallel dispatch
//!
//! Dispatch keys on the *work size* `m·k·n` (the multiply-accumulate
//! count), not on the row count alone: wide-but-short products (a 4-row
//! gradient batch against a 512-wide layer) parallelise over columns,
//! batch-heavy `Aᵀ·B` reductions with narrow outputs parallelise over
//! batch tiles, and tiny products stay serial whatever their shape. Every
//! path accumulates each output element in the same fixed order, and the
//! tile sizes are compile-time constants, so results depend only on the
//! inputs — never on the number of worker threads.

use crate::tensor::Matrix;
use rayon::prelude::*;

/// Multiply-accumulate count above which a product is worth parallelising
/// (~15 µs of serial work — comfortably above rayon's dispatch overhead).
const PAR_MACS: usize = 48 * 1024;
/// Element count above which cheap element-wise passes parallelise.
const PAR_ELEMS: usize = 1 << 18;
/// Rows per task and per cache tile.
const MB: usize = 8;
/// Reduction-dimension tile: keeps a `KB × n` slab of `B` hot across a
/// whole row block.
const KB: usize = 128;
/// Column chunk for the few-rows-but-wide parallel paths.
const JB: usize = 64;
/// Batch tile for `Aᵀ·B` partials and parallel column sums.
const SB: usize = 512;
/// f32 elements per lane-tile accumulator of the streaming kernel. Sized
/// so one tile maps onto whole vector registers on every x86-64 baseline
/// (two SSE2 `xmm`, one AVX `ymm`); the fixed-size array loops below
/// auto-vectorise on stable Rust with no intrinsics.
const LANES: usize = 8;
/// Lane tiles held in registers per output-row strip. `STRIPE` tiles give
/// the out-of-order core `STRIPE` independent FMA chains per lane, hiding
/// the ~4-cycle FP-add latency that a single running sum would serialise
/// on; 4 × [f32; 8] also stays within the 16 vector registers of the
/// SSE2/AVX baselines, so the accumulators never spill.
const STRIPE: usize = 4;

/// Streaming row kernel: `out[j] += Σ_kk row_a[kk] · b_rows[kk·n + j0+j]`
/// for one output-row segment `out` covering columns `j0..j0+out.len()`
/// of a product whose `B` slab starts at `b_rows` (row stride `n`).
///
/// The segment is walked in register strips of `STRIPE × LANES` columns:
/// each strip loads its running sums once, accumulates every `kk` of the
/// slab entirely in registers, and stores once — instead of a load/store
/// round-trip per `kk` per element. An 8-wide tile handles the mid-size
/// remainder and the final `< LANES` columns fall back to the plain
/// streaming loop.
///
/// Per output element this performs exactly the same additions in exactly
/// the same (ascending `kk`, zero-skipping) order as the scalar loop it
/// replaces — tiling only changes *where* the running sum lives, so
/// results are bit-identical and stay thread-count-independent.
// lint: no_alloc
#[inline]
fn accum_row_cols(row_a: &[f32], b_rows: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    let w = out.len();
    let mut j = 0;
    while j + STRIPE * LANES <= w {
        let mut acc = [[0.0f32; LANES]; STRIPE];
        for (t, tile) in acc.iter_mut().enumerate() {
            tile.copy_from_slice(&out[j + t * LANES..j + (t + 1) * LANES]);
        }
        for (kk, &av) in row_a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let base = kk * n + j0 + j;
            let brow = &b_rows[base..base + STRIPE * LANES];
            for (t, tile) in acc.iter_mut().enumerate() {
                for (o, &bv) in tile.iter_mut().zip(&brow[t * LANES..(t + 1) * LANES]) {
                    *o += av * bv;
                }
            }
        }
        for (t, tile) in acc.iter().enumerate() {
            out[j + t * LANES..j + (t + 1) * LANES].copy_from_slice(tile);
        }
        j += STRIPE * LANES;
    }
    while j + LANES <= w {
        let mut acc = [0.0f32; LANES];
        acc.copy_from_slice(&out[j..j + LANES]);
        for (kk, &av) in row_a.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let base = kk * n + j0 + j;
            for (o, &bv) in acc.iter_mut().zip(&b_rows[base..base + LANES]) {
                *o += av * bv;
            }
        }
        out[j..j + LANES].copy_from_slice(&acc);
        j += LANES;
    }
    if j == w {
        return;
    }
    // Narrow tail: the original streaming form (same per-element order).
    let tail = &mut out[j..];
    let tw = tail.len();
    for (kk, &av) in row_a.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let base = kk * n + j0 + j;
        for (o, &bv) in tail.iter_mut().zip(&b_rows[base..base + tw]) {
            *o += av * bv;
        }
    }
}

#[inline]
fn par_macs(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= PAR_MACS
}

/// Whether an element-wise pass over `elems` values is worth
/// parallelising. Shared by [`add_bias`], [`column_sums`] and the
/// LandPool pooling loops, so every hot-path dispatch decision lives here.
#[inline]
pub fn par_elems(elems: usize) -> bool {
    elems >= PAR_ELEMS
}

/// `A (m×k) · B (k×n) = C (m×n)`, written into `c` (resized as needed).
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
// lint: no_alloc
pub fn matmul_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimensions differ");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    c.resize(m, n); // lint: allow(no_alloc, reason = "grows the caller's scratch once per shape; steady-state calls reuse it")
    let (ad, bd) = (a.data(), b.data());
    // i-k-j loop order through the register-strip kernel: `B` rows stream
    // contiguously and each strip of `C` lives in registers for a whole
    // k-tile. k is tiled so the `KB × n` slab of `B` is reused by every
    // row of a block before the next slab is touched.
    let block = |c_rows: &mut [f32], a_rows: &[f32]| {
        c_rows.fill(0.0);
        if k == 0 {
            return;
        }
        let rows = a_rows.len() / k;
        for kb in (0..k).step_by(KB) {
            let kend = (kb + KB).min(k);
            for r in 0..rows {
                let row_a = &a_rows[r * k + kb..r * k + kend];
                let row_out = &mut c_rows[r * n..(r + 1) * n];
                accum_row_cols(row_a, &bd[kb * n..], n, 0, row_out);
            }
        }
    };
    if par_macs(m, k, n) && m >= 2 * MB {
        c.data_mut()
            .par_chunks_mut(MB * n)
            .zip(ad.par_chunks(MB * k))
            .for_each(|(cc, aa)| block(cc, aa));
    } else if par_macs(m, k, n) && n >= 2 * JB {
        // Few rows but plenty of work: parallelise each row over column
        // chunks (k-ascending accumulation, identical to the serial path).
        for r in 0..m {
            let row_a = &ad[r * k..(r + 1) * k];
            c.data_mut()[r * n..(r + 1) * n]
                .par_chunks_mut(JB)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    chunk.fill(0.0);
                    accum_row_cols(row_a, bd, n, ci * JB, chunk);
                });
        }
    } else {
        block(c.data_mut(), ad);
    }
}

/// `A (m×k) · B (k×n) = C (m×n)`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_into(a, b, &mut c);
    c
}

/// `A (m×k) · Bᵀ (k×n) = C (m×n)` where `B` is stored `n×k`, written into
/// `c` (resized as needed).
///
/// # Panics
/// Panics if `A.cols() != B.cols()`.
// lint: no_alloc
pub fn matmul_bt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(a.cols(), b.cols(), "matmul_bt: inner dimensions differ");
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    c.resize(m, n); // lint: allow(no_alloc, reason = "grows the caller's scratch once per shape; steady-state calls reuse it")
    if k == 0 {
        c.data_mut().fill(0.0);
        return;
    }
    let (ad, bd) = (a.data(), b.data());
    // Dot-product kernel; `B` rows iterate in the outer loop so each `brow`
    // stays in cache for the whole row block.
    let block = |c_rows: &mut [f32], a_rows: &[f32]| {
        let rows = a_rows.len() / k;
        for (j, brow) in bd.chunks_exact(k).enumerate() {
            for r in 0..rows {
                let row_a = &a_rows[r * k..(r + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in row_a.iter().zip(brow) {
                    acc += av * bv;
                }
                c_rows[r * n + j] = acc;
            }
        }
    };
    if par_macs(m, k, n) && m >= 2 * MB {
        c.data_mut()
            .par_chunks_mut(MB * n)
            .zip(ad.par_chunks(MB * k))
            .for_each(|(cc, aa)| block(cc, aa));
    } else if par_macs(m, k, n) && n >= 2 {
        // Few rows, many independent dot products: parallelise over `B`
        // rows instead (the single-sample attention backward lands here).
        for r in 0..m {
            let row_a = &ad[r * k..(r + 1) * k];
            c.data_mut()[r * n..(r + 1) * n]
                .par_chunks_mut(JB)
                .zip(bd.par_chunks(JB * k))
                .for_each(|(chunk, brows)| {
                    for (o, brow) in chunk.iter_mut().zip(brows.chunks_exact(k)) {
                        let mut acc = 0.0f32;
                        for (&av, &bv) in row_a.iter().zip(brow) {
                            acc += av * bv;
                        }
                        *o = acc;
                    }
                });
        }
    } else {
        block(c.data_mut(), ad);
    }
}

/// `A (m×k) · Bᵀ (k×n) = C (m×n)` where `B` is stored `n×k`.
///
/// # Panics
/// Panics if `A.cols() != B.cols()`.
pub fn matmul_bt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_bt_into(a, b, &mut c);
    c
}

/// Cache-blocked transpose of `a` into `out` (resized as needed) — the
/// one transpose of this crate; [`Matrix::transpose`] wraps it.
///
/// A Dense backward without an
/// [`InputGradPlan`](crate::network::InputGradPlan) (training) uses this
/// to materialise `Wᵀ` into scratch — once per Dense layer per call,
/// since `W` moved since the last one — and then feeds `dX = dY · Wᵀ`
/// through the streaming [`matmul_into`] kernel, whose register-strip
/// accumulation is an order of magnitude faster than the
/// serially-dependent dot-product form of [`matmul_bt_into`]. The
/// transpose is O(in·out) data movement against the O(batch·in·out)
/// product: cheap beside a training batch, most of a single-row backward,
/// which is why serving builds its plan with it once and never calls it
/// again.
// lint: no_alloc
pub fn transpose_into(a: &Matrix, out: &mut Matrix) {
    let (m, n) = (a.rows(), a.cols());
    out.resize(n, m); // lint: allow(no_alloc, reason = "grows the caller's scratch once per shape; steady-state calls reuse it")
    const TB: usize = 32;
    let src = a.data();
    let dst = out.data_mut();
    for i0 in (0..m).step_by(TB) {
        let iend = (i0 + TB).min(m);
        for j0 in (0..n).step_by(TB) {
            let jend = (j0 + TB).min(n);
            for i in i0..iend {
                for j in j0..jend {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

fn matmul_at_impl(a: &Matrix, b: &Matrix, c: &mut Matrix, accumulate: bool) {
    assert_eq!(a.rows(), b.rows(), "matmul_at: batch dimensions differ");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if accumulate {
        assert_eq!(
            (c.rows(), c.cols()),
            (k, n),
            "matmul_at_acc: output shape mismatch"
        );
    } else {
        c.resize(k, n);
        c.data_mut().fill(0.0);
    }
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (ad, bd) = (a.data(), b.data());
    // Each task owns a band of output rows and scans the batch in SB-row
    // tiles so the matching slabs of `A` and `B` stay cache-resident.
    let band = |i0: usize, c_rows: &mut [f32]| {
        let rows = c_rows.len() / n;
        for sb in (0..m).step_by(SB) {
            let send = (sb + SB).min(m);
            for ri in 0..rows {
                let i = i0 + ri;
                let row_out = &mut c_rows[ri * n..(ri + 1) * n];
                for s in sb..send {
                    let av = ad[s * k + i];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bd[s * n..(s + 1) * n];
                    for (o, &bv) in row_out.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
        }
    };
    if par_macs(m, k, n) && k >= 2 * MB {
        c.data_mut()
            .par_chunks_mut(MB * n)
            .enumerate()
            .for_each(|(bi, cc)| band(bi * MB, cc));
    } else if par_macs(m, k, n) && m >= 2 * SB {
        // Narrow output but a huge batch — the seed dispatch keyed on `k`
        // alone and ran these serially. Compute fixed-size batch partials
        // in parallel and combine them in tile order: the tile size is a
        // constant, so the result is independent of the thread count.
        let parts: Vec<Matrix> = ad
            .par_chunks(SB * k)
            .zip(bd.par_chunks(SB * n))
            .map(|(ac, bc)| {
                let mut p = Matrix::zeros(k, n);
                let pd = p.data_mut();
                let rows = ac.len() / k;
                for s in 0..rows {
                    let arow = &ac[s * k..(s + 1) * k];
                    let brow = &bc[s * n..(s + 1) * n];
                    for (i, &av) in arow.iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        let row_out = &mut pd[i * n..(i + 1) * n];
                        for (o, &bv) in row_out.iter_mut().zip(brow) {
                            *o += av * bv;
                        }
                    }
                }
                p
            })
            .collect();
        for p in &parts {
            c.add_assign(p);
        }
    } else {
        band(0, c.data_mut());
    }
}

/// `Aᵀ (m×k) · B (m×n) = C (k×n)` where `A` is stored `m×k`, written into
/// `c` (resized as needed).
///
/// # Panics
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_at_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    matmul_at_impl(a, b, c, false);
}

/// `C += Aᵀ · B` — the accumulating flavour used for weight gradients,
/// which sum over mini-batches anyway.
///
/// # Panics
/// Panics if `A.rows() != B.rows()` or `c` is not `A.cols() × B.cols()`.
pub fn matmul_at_acc(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    matmul_at_impl(a, b, c, true);
}

/// `Aᵀ (m×k) · B (m×n) = C (k×n)` where `A` is stored `m×k`.
///
/// Used for weight gradients: the reduction runs over the batch dimension
/// `m`.
///
/// # Panics
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(0, 0);
    matmul_at_into(a, b, &mut c);
    c
}

/// Adds `bias` (length `n`) to every row of the `m×n` matrix. Parallel for
/// large batches.
///
/// # Panics
/// Panics if `bias.len() != x.cols()`.
// lint: no_alloc
pub fn add_bias(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "add_bias: width mismatch");
    let n = x.cols();
    if n == 0 {
        return;
    }
    let apply = |chunk: &mut [f32]| {
        for row in chunk.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    };
    if par_elems(x.rows() * n) {
        x.data_mut().par_chunks_mut(MB * n).for_each(apply);
    } else {
        apply(x.data_mut());
    }
}

/// Sums the rows of `x` into a length-`cols` vector (bias gradients).
pub fn column_sums(x: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; x.cols()];
    column_sums_acc(x, &mut out);
    out
}

/// Adds the column sums of `x` into `out` (accumulating bias-gradient
/// flavour; no allocation on the serial path). Parallel for large batches
/// via fixed-size row-tile partials combined in order, so the result does
/// not depend on the thread count.
///
/// # Panics
/// Panics if `out.len() != x.cols()`.
pub fn column_sums_acc(x: &Matrix, out: &mut [f32]) {
    let n = x.cols();
    assert_eq!(out.len(), n, "column_sums: width mismatch");
    if n == 0 {
        return;
    }
    if par_elems(x.rows() * n) {
        let parts: Vec<Vec<f32>> = x
            .data()
            .par_chunks(SB * n)
            .map(|chunk| {
                let mut p = vec![0.0f32; n];
                for row in chunk.chunks_exact(n) {
                    for (o, &v) in p.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                p
            })
            .collect();
        for p in &parts {
            for (o, &v) in out.iter_mut().zip(p) {
                *o += v;
            }
        }
    } else {
        for row in x.data().chunks_exact(n) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols)
            .map(|_| rng.next_f32() * 2.0 - 1.0)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = random_matrix(13, 7, 1);
        let b = random_matrix(7, 5, 2);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn matmul_bt_matches_transpose() {
        let a = random_matrix(9, 6, 3);
        let b = random_matrix(4, 6, 4);
        let c = matmul_bt(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b.transpose())) < 1e-5);
    }

    #[test]
    fn matmul_at_matches_transpose() {
        let a = random_matrix(11, 3, 5);
        let b = random_matrix(11, 4, 6);
        let c = matmul_at(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a.transpose(), &b)) < 1e-5);
    }

    #[test]
    fn matmul_large_parallel_path() {
        // Exercise the row-parallel branch (work size above PAR_MACS).
        let a = random_matrix(64, 64, 7);
        let b = random_matrix(64, 32, 8);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_single_row_column_parallel_path() {
        // m = 1 but m·k·n ≥ PAR_MACS: the column-parallel branch.
        let a = random_matrix(1, 320, 9);
        let b = random_matrix(320, 256, 10);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn matmul_bt_few_rows_parallel_path() {
        // m below the row-parallel cutoff, work size above PAR_MACS.
        let a = random_matrix(3, 200, 11);
        let b = random_matrix(150, 200, 12);
        let c = matmul_bt(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b.transpose())) < 1e-4);
    }

    #[test]
    fn matmul_at_narrow_output_wide_batch() {
        // The seed bug class: k tiny, batch huge — must still be correct
        // on the batch-partials branch.
        let a = random_matrix(1200, 3, 13);
        let b = random_matrix(1200, 16, 14);
        let c = matmul_at(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a.transpose(), &b)) < 1e-3);
    }

    #[test]
    fn into_variants_overwrite_dirty_buffers() {
        let a = random_matrix(6, 5, 15);
        let b = random_matrix(5, 4, 16);
        let mut c = Matrix::full(9, 9, 123.0);
        matmul_into(&a, &b, &mut c);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);

        let bt = random_matrix(4, 5, 17);
        let mut c = Matrix::full(2, 2, -7.0);
        matmul_bt_into(&a, &bt, &mut c);
        assert!(c.max_abs_diff(&naive_matmul(&a, &bt.transpose())) < 1e-5);

        let b2 = random_matrix(6, 3, 18);
        let mut c = Matrix::full(1, 1, 42.0);
        matmul_at_into(&a, &b2, &mut c);
        assert!(c.max_abs_diff(&naive_matmul(&a.transpose(), &b2)) < 1e-5);
    }

    #[test]
    fn matmul_at_acc_accumulates() {
        let a = random_matrix(7, 4, 19);
        let b = random_matrix(7, 3, 20);
        let mut c = Matrix::full(4, 3, 1.0);
        matmul_at_acc(&a, &b, &mut c);
        let mut expected = naive_matmul(&a.transpose(), &b);
        for v in expected.data_mut() {
            *v += 1.0;
        }
        assert!(c.max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_matrix(5, 5, 9);
        let mut id = Matrix::zeros(5, 5);
        for i in 0..5 {
            id.set(i, i, 1.0);
        }
        assert!(matmul(&a, &id).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&id, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_covers_all_strip_widths() {
        // 45 columns = one 32-wide register strip + one 8-wide tile + a
        // 5-wide streaming tail in every output row.
        let a = random_matrix(6, 33, 25);
        let b = random_matrix(33, 45, 26);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-4);
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let a = random_matrix(13, 7, 22);
        let mut t = Matrix::full(2, 2, 9.0);
        transpose_into(&a, &mut t);
        let expected = a.transpose();
        assert_eq!((t.rows(), t.cols()), (expected.rows(), expected.cols()));
        assert_eq!(t.data(), expected.data());
    }

    #[test]
    fn streaming_and_dot_product_forms_agree_bitwise() {
        // Dense::backward_into computes `dY · Wᵀ` by transposing into
        // scratch and streaming through matmul_into. Both forms
        // accumulate each output element in ascending-k order, so on
        // non-degenerate inputs the results are bit-identical.
        let a = random_matrix(24, 96, 23);
        let b = random_matrix(48, 96, 24);
        let via_bt = matmul_bt(&a, &b);
        let mut wt = Matrix::zeros(0, 0);
        transpose_into(&b, &mut wt);
        let via_stream = matmul(&a, &wt);
        assert_eq!(via_bt.data(), via_stream.data());
    }

    #[test]
    fn add_bias_and_column_sums() {
        let mut x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        add_bias(&mut x, &[10.0, 20.0]);
        assert_eq!(x.row(0), &[11.0, 22.0]);
        assert_eq!(column_sums(&x), vec![24.0, 46.0]);
        let mut acc = vec![1.0f32, 1.0];
        column_sums_acc(&x, &mut acc);
        assert_eq!(acc, vec![25.0, 47.0]);
    }

    #[test]
    fn column_sums_large_parallel_path() {
        let x = random_matrix(3000, 128, 21);
        let serial: Vec<f32> = (0..x.cols())
            .map(|j| (0..x.rows()).map(|i| x.get(i, j)).sum())
            .collect();
        for (a, b) in column_sums(&x).iter().zip(&serial) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }
}
