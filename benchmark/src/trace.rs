//! Spans recorded from the benchmark's own code around its calls into each
//! layer, kept in memory and written out when the traced run ends.
//!
//! The product is not changed to record spans, so a call that runs *inside*
//! another (the JSON parse inside the router's dispatch) cannot be timed
//! where it happens. The replay times the outer call, then makes the inner
//! calls again on the same input directly after it, and links them to the
//! outer span as their parent. A parent's self time is its duration minus
//! the durations of the spans that name it as parent.

use crate::stats::percentile_sorted;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span whose call contains this one.
    pub parent: Option<usize>,
    /// Spans of one replayed request share this.
    pub request: usize,
    /// Calls the span covers: more than one where a single call is too short
    /// to time on its own.
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    requests: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// An identifier for the spans of the next replayed request.
    pub fn new_request(&mut self) -> usize {
        self.requests += 1;
        self.requests
    }

    /// Runs `f`, which makes `calls` calls, inside a new span; returns the
    /// span's index and what `f` returned.
    pub fn block<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            calls,
        });
        (self.spans.len() - 1, result)
    }

    /// A span around one call.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        self.block(name, parent, request, 1, f)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Median time of one call over the spans of `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> Option<f64> {
        // Picoseconds, so that a span over many short calls keeps its digits.
        let mut per_call: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) * 1000 / s.calls)
            .collect();
        per_call.sort_unstable();
        Some(percentile_sorted(&per_call, 50.0)? as f64 / 1e6)
    }

    /// Median self time over the spans of `name`, in microseconds.
    pub fn self_p50_us(&self, name: &str) -> Option<f64> {
        let mut inside = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                inside[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .zip(&inside)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(*children))
            .collect();
        own.sort_unstable();
        Some(percentile_sorted(&own, 50.0)? as f64 / 1e3)
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            requests: 0,
        }
    }

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        calls: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            calls,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_the_spans_that_name_it_parent() {
        let t = tracer_with(vec![
            span("dispatch", 0, 10_000, None, 1),
            span("parse", 10_000, 12_000, Some(0), 1),
            span("diagnose", 12_000, 18_000, Some(0), 1),
            span("rank", 18_000, 23_000, Some(2), 1),
        ]);
        assert_eq!(t.p50_us("dispatch"), Some(10.0));
        assert_eq!(t.self_p50_us("dispatch"), Some(2.0));
        assert_eq!(t.self_p50_us("diagnose"), Some(1.0));
        assert_eq!(t.self_p50_us("rank"), Some(5.0));
        assert_eq!(t.p50_us("absent"), None);
    }

    #[test]
    fn a_block_reports_the_time_of_one_of_its_calls() {
        let t = tracer_with(vec![
            span("check", 0, 25_000, None, 1000),
            span("check", 0, 35_000, None, 1000),
        ]);
        // 25 ns and 35 ns a call; nearest rank of two takes the first.
        assert_eq!(t.p50_us("check"), Some(0.025));
    }

    #[test]
    fn spans_are_recorded_in_order_and_written_out() {
        let mut t = Tracer::new();
        let (outer, value) = t.span("outer", None, 7, || 41 + 1);
        let (inner, _) = t.block("inner", Some(outer), 7, 3, || ());
        assert_eq!((outer, inner, value, t.len()), (0, 1, 42, 2));
        let json = t.to_json();
        assert!(json.contains("\"name\": \"outer\""));
        assert!(json.contains("\"parent\": 0, \"request\": 7, \"calls\": 3"));
        assert!(json.contains("\"parent\": null"));
    }
}
