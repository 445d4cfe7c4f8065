//! Structured tracing spans.
//!
//! [`span`] starts a timed span; on drop it records the duration into the
//! global registry's `diagnet_span_duration_seconds{span="…"}` histogram
//! and — when `DIAGNET_TRACE=1` is set in the environment — emits one
//! structured JSON event line to stderr:
//!
//! ```text
//! {"event":"span","span":"core.rank_causes_batch","seq":17,"duration_us":1234.5}
//! ```
//!
//! The per-span cost is one registry lookup — a read lock and a few string
//! comparisons, no allocation once the span's histogram exists — plus two
//! clock reads, so spans belong around *stages* (a ranking call, a batch
//! forward pass, a retrain generation), not around per-element inner
//! loops. With the `enabled` feature off, [`span`] is a no-op that never
//! reads the clock.

/// Name of the histogram every span records into (label `span` carries
/// the span name).
pub const SPAN_HISTOGRAM: &str = "diagnet_span_duration_seconds";

#[cfg(feature = "enabled")]
mod imp {
    use super::SPAN_HISTOGRAM;
    use crate::histogram::Histogram;
    use crate::registry::global;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    fn trace_events_enabled() -> bool {
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            std::env::var("DIAGNET_TRACE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false)
        })
    }

    fn next_seq() -> u64 {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        SEQ.fetch_add(1, Ordering::Relaxed)
    }

    /// A running span; records its duration when dropped.
    #[derive(Debug)]
    pub struct Span {
        name: &'static str,
        hist: Histogram,
        start: Instant,
    }

    /// Start a span named `name`, recording into the global registry.
    pub fn span(name: &'static str) -> Span {
        let hist = global().histogram(
            SPAN_HISTOGRAM,
            &[("span", name)],
            "wall-clock duration of instrumented pipeline stages",
        );
        Span {
            name,
            hist,
            start: Instant::now(),
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let elapsed = self.start.elapsed().as_secs_f64();
            self.hist.observe(elapsed);
            if trace_events_enabled() {
                eprintln!(
                    "{{\"event\":\"span\",\"span\":\"{}\",\"seq\":{},\"duration_us\":{:.1}}}",
                    self.name,
                    next_seq(),
                    elapsed * 1e6
                );
            }
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    /// A no-op span (`enabled` feature off).
    #[derive(Debug)]
    pub struct Span;

    /// No-op: never reads the clock, records nothing.
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span
    }
}

pub use imp::{span, Span};

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use crate::registry::global;

    #[test]
    fn span_records_into_global_registry() {
        {
            let _s = span("obs.test_span");
        }
        let snap = global().snapshot();
        let hist = snap
            .histogram(SPAN_HISTOGRAM, &[("span", "obs.test_span")])
            .expect("span histogram registered");
        assert!(hist.count >= 1);
    }

    /// Every span of one name lands in the one registry entry a direct
    /// lookup of that name returns (`tests/zero_alloc_scoring.rs` counts
    /// the allocations of the same loop: none after the first span).
    #[test]
    fn repeated_spans_share_one_registry_entry() {
        for _ in 0..1_001 {
            drop(span("obs.test_repeat"));
        }
        let hist = global().histogram(SPAN_HISTOGRAM, &[("span", "obs.test_repeat")], "ignored");
        assert_eq!(hist.count(), 1_001);
        let label = [("span".to_string(), "obs.test_repeat".to_string())];
        let snap = global().snapshot();
        assert_eq!(snap.metrics.iter().filter(|m| m.labels == label).count(), 1);
    }
}
