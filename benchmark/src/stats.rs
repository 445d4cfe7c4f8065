//! Order statistics over the benchmark's own samples: exact nearest-rank
//! percentiles inside a window, and median and quartiles across windows or
//! runs.

use crate::spec::Better;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so spreads printed here equal the ones
/// computed from the result lines. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median; 0 when it cannot
/// be formed (fewer than two values, or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The value a tenth of the way into `values` from the metric's better end
/// (nearest rank: the second best of twenty, the best of up to ten).
///
/// The machine is shared, and it has moods: for seconds at a time everything
/// runs 1.4 times slower, then fast again. What the other tenants do only
/// ever makes a window (a cycle) worse, so the windows near the better end
/// are the ones that were left alone. They repeat from run to run, where the
/// median lands in whichever mood held for most of the run; a change to the
/// code moves every window.
pub fn better_decile(values: &[f64], better: Better) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let rank = (v.len() as f64 / 10.0).ceil() as usize;
    v.get(rank.max(1) - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let v = [15, 20, 35, 40, 50];
        // Ranks: ceil(0.05*5)=1, ceil(0.3*5)=2, ceil(0.4*5)=2, ceil(0.5*5)=3.
        assert_eq!(percentile_sorted(&v, 5.0), Some(15));
        assert_eq!(percentile_sorted(&v, 30.0), Some(20));
        assert_eq!(percentile_sorted(&v, 40.0), Some(20));
        assert_eq!(percentile_sorted(&v, 50.0), Some(35));
        assert_eq!(percentile_sorted(&v, 90.0), Some(50));
        assert_eq!(percentile_sorted(&v, 100.0), Some(50));
        assert_eq!(percentile_sorted(&v, 0.0), Some(15));
        assert_eq!(percentile_sorted(&[], 50.0), None);
        // Ten values: p90 is the ninth, p50 the fifth.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&ten, 90.0), Some(9));
        assert_eq!(percentile_sorted(&ten, 50.0), Some(5));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_agree_with_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_better_decile_is_near_the_better_end() {
        let windows = [100.0, 104.0, 2_000.0, 98.0, 101.0];
        assert_eq!(better_decile(&windows, Better::Lower), Some(98.0));
        assert_eq!(better_decile(&windows, Better::Higher), Some(2_000.0));
        // Quartiles of [98, 100, 101, 104, 2000] are 99 and 1052.
        assert!((spread(&windows) - (1052.0 - 99.0) / 101.0).abs() < 1e-12);

        // Of twenty values the second from the better end, of one the one.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(better_decile(&twenty, Better::Lower), Some(2.0));
        assert_eq!(better_decile(&twenty, Better::Higher), Some(19.0));
        assert_eq!(better_decile(&twenty[..15], Better::Lower), Some(2.0));
        assert_eq!(better_decile(&[5.0, 3.0, 4.0], Better::Higher), Some(5.0));
        assert_eq!(better_decile(&[7.0], Better::Lower), Some(7.0));
        assert_eq!(better_decile(&[], Better::Lower), None);
    }
}
