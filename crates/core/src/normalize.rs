//! Per-metric-kind feature standardisation.
//!
//! Statistics are computed **per metric kind** (all landmarks' RTTs share
//! one mean/std, all download bandwidths another, …) rather than per
//! feature. This is what keeps the model *root-cause extensible*: a
//! landmark that never appeared during training still gets features scaled
//! exactly like its trained peers, so the shared convolution kernel sees
//! them in-distribution.

use diagnet_nn::tensor::Matrix;
use diagnet_sim::metrics::{FeatureSchema, K_LANDMARK_METRICS, N_LOCAL_METRICS};
use serde::{Deserialize, Serialize};

/// Number of distinct metric kinds (5 landmark + 5 local).
pub const N_KINDS: usize = K_LANDMARK_METRICS + N_LOCAL_METRICS;

/// Variance-stabilising transform applied *before* the z-score. Network
/// path metrics are heavy-tailed and multiplicative (congestion scales
/// RTT, Mathis couples bandwidth to `1/√loss`), so they are compressed
/// with `log1p`; packet-loss ratios are first scaled so that the 10⁻⁴–10⁻¹
/// range spreads out; client load metrics are already in `[0, 1]` and stay
/// linear.
#[inline]
// lint: no_alloc
pub fn stabilize(kind: usize, v: f32) -> f32 {
    match kind {
        // Rtt, DownBw, UpBw, Jitter, GatewayRtt, GatewayJitter.
        0 | 1 | 2 | 3 | 5 | 6 => v.max(0.0).ln_1p(),
        // LossRetrans: ratios live in [1e-4, 1e-1]; spread before log.
        4 => (v.max(0.0) * 1000.0).ln_1p(),
        // CpuLoad, MemLoad, ConnCount.
        _ => v,
    }
}

/// Clamp bound on standardised values. Training-distribution z-scores are
/// single digits; the linear kinds (CpuLoad, MemLoad, ConnCount) skip the
/// log transform, so an adversarial or corrupted raw value like 1e30 would
/// otherwise ride straight into the network and overflow `f32` inside the
/// matmuls. ±1e4 is far outside anything a sane probe produces (identity
/// for real data) while keeping activations finite for arbitrary finite
/// inputs.
pub const MAX_ABS_Z: f32 = 1e4;

/// A fitted per-kind z-score normaliser.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: [f32; N_KINDS],
    std: [f32; N_KINDS],
    /// Whether the [`stabilize`] transform precedes the z-score.
    stabilized: bool,
}

impl Normalizer {
    /// Fit on training rows laid out in `schema`'s feature order, with the
    /// variance-stabilising transform enabled (the default pipeline).
    ///
    /// # Panics
    /// Panics if `rows` is empty or a row width mismatches the schema.
    pub fn fit(schema: &FeatureSchema, rows: &[Vec<f32>]) -> Self {
        Self::fit_with(schema, rows, true)
    }

    /// Fit with an explicit choice of stabilisation (the `false` variant
    /// z-scores raw metric values; used by the normalisation ablation).
    pub fn fit_with(schema: &FeatureSchema, rows: &[Vec<f32>], stabilized: bool) -> Self {
        assert!(!rows.is_empty(), "Normalizer::fit: empty training set");
        let m = schema.n_features();
        let mut sum = [0.0f64; N_KINDS];
        let mut sum_sq = [0.0f64; N_KINDS];
        let mut count = [0usize; N_KINDS];
        let transform = |kind: usize, v: f32| if stabilized { stabilize(kind, v) } else { v };
        for row in rows {
            assert_eq!(row.len(), m, "Normalizer::fit: row width mismatch");
            for (j, &v) in row.iter().enumerate() {
                let kind = schema.feature(j).kind_index();
                let t = transform(kind, v) as f64;
                sum[kind] += t;
                sum_sq[kind] += t * t;
                count[kind] += 1;
            }
        }
        let mut mean = [0.0f32; N_KINDS];
        let mut std = [1.0f32; N_KINDS];
        for k in 0..N_KINDS {
            if count[k] > 0 {
                let n = count[k] as f64;
                let mu = sum[k] / n;
                let var = (sum_sq[k] / n - mu * mu).max(0.0);
                mean[k] = mu as f32;
                // Floor keeps constant features finite after scaling.
                std[k] = (var.sqrt() as f32).max(1e-6);
            }
        }
        Normalizer {
            mean,
            std,
            stabilized,
        }
    }

    /// Incremental flavour of [`Normalizer::fit_with`] for data that never
    /// materialises: create an accumulator, feed every training row once
    /// (in any chunk grouping, as long as row order is preserved), then
    /// [`finish`](NormalizerAccumulator::finish). See
    /// [`NormalizerAccumulator`] for the bit-identity contract.
    pub fn accumulator(stabilized: bool) -> NormalizerAccumulator {
        NormalizerAccumulator {
            sum: [0.0; N_KINDS],
            sum_sq: [0.0; N_KINDS],
            count: [0; N_KINDS],
            rows: 0,
            stabilized,
        }
    }

    /// Standardise one value of a given metric kind (stabilising
    /// transform when enabled, then z-score, clamped to ±[`MAX_ABS_Z`]).
    /// NaN inputs map to the clamp bound rather than propagating.
    #[inline]
    // lint: no_alloc
    pub fn apply_value(&self, kind: usize, v: f32) -> f32 {
        let t = if self.stabilized {
            stabilize(kind, v)
        } else {
            v
        };
        let z = (t - self.mean[kind]) / self.std[kind];
        if z.is_nan() {
            MAX_ABS_Z
        } else {
            z.clamp(-MAX_ABS_Z, MAX_ABS_Z)
        }
    }

    /// Standardise a row laid out in `schema`'s order, into a new vector.
    pub fn apply(&self, schema: &FeatureSchema, row: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; row.len()];
        self.apply_into(schema, row, &mut out);
        out
    }

    /// Standardise a row into a caller-provided slice of the same length —
    /// the zero-allocation flavour of [`Normalizer::apply`], bit-identical
    /// to it.
    ///
    /// # Panics
    /// Panics if `row` or `out` mismatch the schema width.
    // lint: no_alloc
    pub fn apply_into(&self, schema: &FeatureSchema, row: &[f32], out: &mut [f32]) {
        assert_eq!(
            row.len(),
            schema.n_features(),
            "Normalizer::apply: row width mismatch"
        );
        assert_eq!(
            out.len(),
            row.len(),
            "Normalizer::apply: out width mismatch"
        );
        for (j, (o, &v)) in out.iter_mut().zip(row).enumerate() {
            *o = self.apply_value(schema.feature(j).kind_index(), v);
        }
    }

    /// Standardise many rows.
    pub fn apply_batch(&self, schema: &FeatureSchema, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| self.apply(schema, r)).collect()
    }

    /// Standardise many rows straight into one row-major matrix — the
    /// zero-copy entry point of the batched scoring path. Values are
    /// bit-identical to [`Normalizer::apply`] applied row by row.
    pub fn apply_matrix(&self, schema: &FeatureSchema, rows: &[Vec<f32>]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.apply_matrix_into(schema, rows, &mut out);
        out
    }

    /// Standardise many rows into a caller-provided matrix (resized as
    /// needed) — the reusable-buffer entry point of the fused scoring
    /// path. Bit-identical to [`Normalizer::apply_matrix`]; zero heap
    /// allocations once `out` has warmed up at the batch size.
    ///
    /// # Panics
    /// Panics if a row width mismatches the schema.
    // lint: no_alloc
    pub fn apply_matrix_into<R: AsRef<[f32]>>(
        &self,
        schema: &FeatureSchema,
        rows: &[R],
        out: &mut Matrix,
    ) {
        let m = schema.n_features();
        out.resize(rows.len(), m); // lint: allow(no_alloc, reason = "grows the caller's scratch once per batch size; steady-state calls reuse it")
        for (row, orow) in rows.iter().zip(out.data_mut().chunks_exact_mut(m.max(1))) {
            self.apply_into(schema, row.as_ref(), orow);
        }
    }

    /// Mean of a metric kind (for inspection).
    pub fn mean_of(&self, kind: usize) -> f32 {
        self.mean[kind]
    }

    /// Standard deviation of a metric kind.
    pub fn std_of(&self, kind: usize) -> f32 {
        self.std[kind]
    }
}

/// Streaming statistics for [`Normalizer::fit_with`] over rows that never
/// exist in one `Vec`.
///
/// Bit-identity contract: the per-kind `f64` sums are added in exactly the
/// order rows are fed, with the same transform as `fit_with`, so feeding
/// the training rows once in dataset order — in chunks of *any* size —
/// then calling [`finish`](Self::finish) yields a normaliser bit-identical
/// to `Normalizer::fit_with` on the materialised rows.
#[derive(Debug, Clone)]
pub struct NormalizerAccumulator {
    sum: [f64; N_KINDS],
    sum_sq: [f64; N_KINDS],
    count: [usize; N_KINDS],
    rows: usize,
    stabilized: bool,
}

impl NormalizerAccumulator {
    /// Accumulate one training row laid out in `schema`'s feature order.
    ///
    /// # Panics
    /// Panics if the row width mismatches the schema.
    pub fn add_row(&mut self, schema: &FeatureSchema, row: &[f32]) {
        assert_eq!(
            row.len(),
            schema.n_features(),
            "NormalizerAccumulator: row width mismatch"
        );
        for (j, &v) in row.iter().enumerate() {
            let kind = schema.feature(j).kind_index();
            let t = if self.stabilized {
                stabilize(kind, v)
            } else {
                v
            } as f64;
            self.sum[kind] += t;
            self.sum_sq[kind] += t * t;
            self.count[kind] += 1;
        }
        self.rows += 1;
    }

    /// Number of rows accumulated so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Finish into a fitted [`Normalizer`] (same math as
    /// [`Normalizer::fit_with`]).
    ///
    /// # Panics
    /// Panics when no rows were accumulated, mirroring `fit_with` on an
    /// empty training set.
    pub fn finish(&self) -> Normalizer {
        assert!(self.rows > 0, "NormalizerAccumulator: empty training set");
        let mut mean = [0.0f32; N_KINDS];
        let mut std = [1.0f32; N_KINDS];
        for k in 0..N_KINDS {
            if self.count[k] > 0 {
                let n = self.count[k] as f64;
                let mu = self.sum[k] / n;
                let var = (self.sum_sq[k] / n - mu * mu).max(0.0);
                mean[k] = mu as f32;
                std[k] = (var.sqrt() as f32).max(1e-6);
            }
        }
        Normalizer {
            mean,
            std,
            stabilized: self.stabilized,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diagnet_sim::{Dataset, DatasetConfig, World};

    fn sample_rows() -> (FeatureSchema, Vec<Vec<f32>>) {
        let world = World::new();
        let ds = Dataset::generate(&world, &DatasetConfig::small(&world, 3)).expect("generate");
        let schema = FeatureSchema::known();
        let (rows, _) = ds.to_rows(&schema, 0.0);
        (schema, rows)
    }

    #[test]
    fn accumulator_matches_batch_fit_bitwise() {
        let (schema, rows) = sample_rows();
        for stabilized in [true, false] {
            let batch = Normalizer::fit_with(&schema, &rows, stabilized);
            // Any chunking of the same row order must give the same sums.
            for chunk in [1usize, 7, rows.len()] {
                let mut acc = Normalizer::accumulator(stabilized);
                for part in rows.chunks(chunk) {
                    for row in part {
                        acc.add_row(&schema, row);
                    }
                }
                assert_eq!(acc.rows(), rows.len());
                assert_eq!(acc.finish(), batch, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn normalised_kinds_have_zero_mean_unit_std() {
        let (schema, rows) = sample_rows();
        let norm = Normalizer::fit(&schema, &rows);
        let out = norm.apply_batch(&schema, &rows);
        // Check the RTT kind (kind 0) aggregated over all landmarks.
        let mut vals = Vec::new();
        for row in &out {
            for (j, &v) in row.iter().enumerate() {
                if schema.feature(j).kind_index() == 0 {
                    vals.push(v);
                }
            }
        }
        let n = vals.len() as f32;
        let mean = vals.iter().sum::<f32>() / n;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 1e-3, "mean = {mean}");
        assert!((var - 1.0).abs() < 1e-2, "var = {var}");
    }

    #[test]
    fn shared_stats_generalise_to_unseen_landmarks() {
        // Fit on the 7 known landmarks, apply to the full 10-landmark
        // schema: hidden-landmark features are scaled by kind, not left
        // raw.
        let world = World::new();
        let ds = Dataset::generate(&world, &DatasetConfig::small(&world, 4)).expect("generate");
        let known = FeatureSchema::known();
        let full = FeatureSchema::full();
        let (train_rows, _) = ds.to_rows(&known, 0.0);
        let norm = Normalizer::fit(&known, &train_rows);
        let (full_rows, _) = ds.to_rows(&full, 0.0);
        let out = norm.apply_batch(&full, &full_rows);
        // Hidden-landmark RTTs land in a sane standardised range.
        let unknown = full.unknown_relative_to(&known);
        for row in out.iter().take(50) {
            for &j in &unknown {
                assert!(row[j].abs() < 15.0, "feature {j} badly scaled: {}", row[j]);
            }
        }
    }

    #[test]
    fn constant_kind_does_not_blow_up() {
        let schema = FeatureSchema::known();
        let rows = vec![vec![5.0; schema.n_features()]; 10];
        let norm = Normalizer::fit(&schema, &rows);
        let out = norm.apply(&schema, &rows[0]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn apply_is_deterministic_and_invertible_in_distribution() {
        let (schema, rows) = sample_rows();
        let norm = Normalizer::fit(&schema, &rows);
        assert_eq!(norm.apply(&schema, &rows[0]), norm.apply(&schema, &rows[0]));
        // Round-trip one value by hand (through the stabilising transform).
        let kind = schema.feature(0).kind_index();
        let z = norm.apply_value(kind, rows[0][0]);
        let back = z * norm.std_of(kind) + norm.mean_of(kind);
        assert!((back - stabilize(kind, rows[0][0])).abs() < 1e-3);
    }

    #[test]
    fn raw_variant_skips_stabilisation() {
        let (schema, rows) = sample_rows();
        let raw = Normalizer::fit_with(&schema, &rows, false);
        let kind = schema.feature(0).kind_index();
        let z = raw.apply_value(kind, rows[0][0]);
        let back = z * raw.std_of(kind) + raw.mean_of(kind);
        assert!(
            (back - rows[0][0]).abs() < 1e-2,
            "raw variant must z-score untransformed values"
        );
        assert_ne!(raw, Normalizer::fit(&schema, &rows));
    }

    #[test]
    fn apply_matrix_is_bitwise_identical_to_apply() {
        let (schema, rows) = sample_rows();
        let norm = Normalizer::fit(&schema, &rows);
        let m = norm.apply_matrix(&schema, &rows);
        assert_eq!(m.rows(), rows.len());
        assert_eq!(m.cols(), schema.n_features());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(m.row(i), norm.apply(&schema, row).as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn apply_rejects_bad_width() {
        let (schema, rows) = sample_rows();
        let norm = Normalizer::fit(&schema, &rows);
        norm.apply(&schema, &[1.0, 2.0]);
    }
}
