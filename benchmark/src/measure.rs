//! From measured requests to the numbers that are reported.

use crate::loadgen::{Kind, Sample};
use crate::spec::Better;
use crate::stats::{better_decile, percentile_sorted, spread};
use std::time::Duration;

/// The samples of one window (or, without a server, of one cycle) and the
/// time they were measured over.
pub struct Window<'a> {
    pub samples: &'a [Sample],
    pub seconds: f64,
}

/// Cuts samples ordered by `start_ns` into `count` equal windows of the
/// measured time.
pub fn equal_windows(samples: &[Sample], measure: Duration, count: usize) -> Vec<Window<'_>> {
    let width = measure.as_nanos() as u64 / count as u64;
    let mut rest = samples;
    (1..=count as u64)
        .map(|i| {
            let split = if i == count as u64 {
                rest.len()
            } else {
                rest.partition_point(|s| s.start_ns < i * width)
            };
            let (head, tail) = rest.split_at(split);
            rest = tail;
            Window {
                samples: head,
                seconds: width as f64 / 1e9,
            }
        })
        .collect()
}

/// Latency of one kind of request: each percentile is exact (nearest rank)
/// inside a window and reported as the windows' better decile, for the reason
/// given at [`better_decile`].
pub struct Latency {
    pub p50_us: f64,
    pub p90_us: f64,
    /// Answered requests of this kind in all windows.
    pub samples: usize,
    /// Quartile distance of the windows' medians over their median: how much
    /// the machine's moods moved this kind of request during the run.
    pub window_spread: f64,
    /// Over the whole run; diagnostics only.
    pub p99_us: f64,
    pub max_us: f64,
}

pub struct Summary {
    pub diagnose: Option<Latency>,
    pub submit: Option<Latency>,
    /// Correctly answered requests per second: the better decile of the
    /// windows' rates, and the spread of those rates.
    pub throughput_rps: f64,
    pub throughput_spread: f64,
    /// Share of the requests sent that failed or were not answered within the
    /// limit, over the whole run: a stall must not vanish under a median.
    pub slo_miss_frac: f64,
    pub sent: usize,
    pub failed: usize,
    pub late_p50_us: f64,
    pub late_p90_us: f64,
}

fn sorted_ns(samples: &[Sample], kind: Kind) -> Vec<u64> {
    let mut ns: Vec<u64> = samples
        .iter()
        .filter(|s| s.kind == kind && s.ok)
        .map(|s| s.latency_ns)
        .collect();
    ns.sort_unstable();
    ns
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn latency(windows: &[Window<'_>], kind: Kind) -> Option<Latency> {
    let per_window: Vec<Vec<u64>> = windows
        .iter()
        .map(|w| sorted_ns(w.samples, kind))
        .filter(|sorted| !sorted.is_empty())
        .collect();
    let of_windows = |p: f64| -> Vec<f64> {
        per_window
            .iter()
            .filter_map(|sorted| percentile_sorted(sorted, p).map(us))
            .collect()
    };
    let medians = of_windows(50.0);
    let mut whole: Vec<u64> = per_window.iter().flatten().copied().collect();
    whole.sort_unstable();
    Some(Latency {
        p50_us: better_decile(&medians, Better::Lower)?,
        p90_us: better_decile(&of_windows(90.0), Better::Lower)?,
        samples: whole.len(),
        window_spread: spread(&medians),
        p99_us: us(percentile_sorted(&whole, 99.0)?),
        max_us: us(*whole.last()?),
    })
}

pub fn summarize(windows: &[Window<'_>], slo: Duration) -> Result<Summary, String> {
    let all = || windows.iter().flat_map(|w| w.samples.iter());
    let sent = all().count();
    if sent == 0 {
        return Err("nothing was measured".to_string());
    }
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.samples.iter().filter(|s| s.ok).count() as f64 / w.seconds)
        .collect();
    let missed = all()
        .filter(|s| !s.ok || s.latency_ns > slo.as_nanos() as u64)
        .count();
    let mut late: Vec<u64> = all().map(|s| s.late_ns).collect();
    late.sort_unstable();
    Ok(Summary {
        diagnose: latency(windows, Kind::Diagnose),
        submit: latency(windows, Kind::Submit),
        throughput_rps: better_decile(&rates, Better::Higher).ok_or("no window")?,
        throughput_spread: spread(&rates),
        slo_miss_frac: missed as f64 / sent as f64,
        sent,
        failed: all().filter(|s| !s.ok).count(),
        late_p50_us: us(percentile_sorted(&late, 50.0).unwrap_or(0)),
        late_p90_us: us(percentile_sorted(&late, 90.0).unwrap_or(0)),
    })
}

/// Place of the true cause among the scores, 0 being first: the number of
/// causes that score strictly higher, as `diagnet_eval` ranks the truth.
pub fn rank_of(scores: &[f32], cause: usize) -> usize {
    scores.iter().filter(|&&s| s > scores[cause]).count()
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: Kind, start_ms: u64, latency_us: u64, ok: bool) -> Sample {
        Sample {
            kind,
            start_ns: start_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
            late_ns: 0,
            ok,
        }
    }

    #[test]
    fn windows_split_the_measured_time_evenly() {
        let samples: Vec<Sample> = [0, 400, 999, 1000, 1500, 2999]
            .iter()
            .map(|&ms| sample(Kind::Diagnose, ms, 10, true))
            .collect();
        let windows = equal_windows(&samples, Duration::from_secs(3), 3);
        let sizes: Vec<usize> = windows.iter().map(|w| w.samples.len()).collect();
        assert_eq!(sizes, [3, 2, 1]);
        assert!(windows.iter().all(|w| w.seconds == 1.0));
    }

    #[test]
    fn a_run_is_summarized_per_window_and_the_tail_over_the_whole() {
        let mut samples = Vec::new();
        // Two quiet windows and one with a stall; a failed submit in the last.
        for (window, latencies) in [
            [100, 110, 120, 130],
            [100, 110, 120, 130],
            [100, 110, 120, 30_000],
        ]
        .iter()
        .enumerate()
        {
            for (i, &l) in latencies.iter().enumerate() {
                samples.push(sample(
                    Kind::Diagnose,
                    window as u64 * 1000 + i as u64,
                    l,
                    true,
                ));
            }
        }
        samples.push(sample(Kind::Submit, 2500, 40, false));
        samples.push(sample(Kind::Submit, 2600, 50, true));
        let windows = equal_windows(&samples, Duration::from_secs(3), 3);
        let s = summarize(&windows, Duration::from_millis(10)).unwrap();

        // In each window p50 is the second of four and p90 the fourth: 130,
        // 130 and 30 000, of which the best is reported.
        let diagnose = s.diagnose.unwrap();
        assert_eq!(
            (diagnose.p50_us, diagnose.p90_us, diagnose.samples),
            (110.0, 130.0, 12)
        );
        assert_eq!(diagnose.max_us, 30_000.0);
        // Only answered submits have a latency.
        assert_eq!(s.submit.unwrap().samples, 1);
        assert_eq!((s.sent, s.failed), (14, 1));
        // 4, 4 and 5 answered in the one-second windows.
        assert_eq!(s.throughput_rps, 5.0);
        // The stalled and the failed request both miss the limit.
        assert!((s.slo_miss_frac - 2.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn rank_counts_strictly_higher_scores() {
        let scores = [0.1, 0.5, 0.5, 0.9];
        assert_eq!(rank_of(&scores, 3), 0);
        assert_eq!(rank_of(&scores, 1), 1);
        assert_eq!(rank_of(&scores, 2), 1);
        assert_eq!(rank_of(&scores, 0), 3);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
