//! Deterministic random-number utilities.
//!
//! The whole reproduction pipeline is seed-driven: the simulator, weight
//! initialisation, mini-batch shuffling and forest bootstrapping all derive
//! their randomness from explicit `u64` seeds. Parallel code paths derive
//! *per-item* seeds with [`SplitMix64`], so results are bit-identical
//! however many threads run them — rayon's pool, or the one scoped `std`
//! thread `DiagNet::train` fits its forest on — and in whatever order.

/// SplitMix64 — a tiny, high-quality 64-bit PRNG / seed mixer.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014). Used both as a standalone generator and to
/// derive independent per-item seeds from `(base_seed, index)` pairs.
///
/// ```
/// use diagnet_rng::SplitMix64;
/// let mut rng = SplitMix64::new(42);
/// let a = rng.next_f32();
/// assert!((0.0..1.0).contains(&a));
/// // Per-item seeds for deterministic parallel fan-out:
/// assert_eq!(SplitMix64::derive(42, 7), SplitMix64::derive(42, 7));
/// assert_ne!(SplitMix64::derive(42, 7), SplitMix64::derive(42, 8));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa bits of uniformly distributed randomness.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below: bound must be positive");
        // Multiplicative range reduction (Lemire); bias is < 2^-64 per call,
        // irrelevant for simulation purposes.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as usize
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        // Avoid ln(0) by flooring u1 at the smallest positive step.
        let u1 = self.next_f32().max(1e-7);
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal()
    }

    /// Log-normal sample: `exp(N(mu, sigma))`. Heavy-tailed noise for the
    /// network simulator.
    pub fn log_normal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal_with(mu, sigma).exp()
    }

    /// Exponential sample with rate `lambda`.
    pub fn exponential(&mut self, lambda: f32) -> f32 {
        -((1.0 - self.next_f32()).max(1e-7)).ln() / lambda
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// Derive an independent seed for item `index` under `base` —
    /// the canonical way to fan out determinism across rayon tasks.
    pub fn derive(base: u64, index: u64) -> u64 {
        let mut mixer = SplitMix64::new(base ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
        mixer.next_u64()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `n` distinct indices from `[0, bound)` (order not specified).
    ///
    /// # Panics
    /// Panics if `n > bound`.
    pub fn sample_indices(&mut self, bound: usize, n: usize) -> Vec<usize> {
        assert!(n <= bound, "sample_indices: n ({n}) > bound ({bound})");
        let mut idx: Vec<usize> = (0..bound).collect();
        // Partial Fisher–Yates: after i swaps the first i entries are a
        // uniform sample without replacement.
        for i in 0..n {
            let j = i + self.next_below(bound - i);
            idx.swap(i, j);
        }
        idx.truncate(n);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut rng = SplitMix64::new(9);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = rng.next_below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_roughly_standard() {
        let mut rng = SplitMix64::new(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SplitMix64::new(13);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let f = hits as f32 / 20_000.0;
        assert!((f - 0.3).abs() < 0.02, "freq = {f}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(17);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..50).collect::<Vec<_>>(),
            "shuffle left slice untouched"
        );
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SplitMix64::new(19);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 30);
        assert!(s.iter().all(|&v| v < 100));
    }

    #[test]
    fn derive_is_stable_and_spreads() {
        assert_eq!(SplitMix64::derive(5, 0), SplitMix64::derive(5, 0));
        assert_ne!(SplitMix64::derive(5, 0), SplitMix64::derive(5, 1));
        assert_ne!(SplitMix64::derive(5, 0), SplitMix64::derive(6, 0));
    }

    #[test]
    fn exponential_positive_mean_close() {
        let mut rng = SplitMix64::new(23);
        let n = 30_000;
        let mean = (0..n).map(|_| rng.exponential(2.0)).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }
}
