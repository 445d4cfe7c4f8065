//! The metrics registry: named, labelled metrics with get-or-register
//! semantics and point-in-time snapshots.
//!
//! Registration takes a write lock; a metric that already exists is
//! returned under a read lock, without allocating. Handles ([`Counter`],
//! [`Gauge`], [`Histogram`]) are cheap clones sharing atomics with the
//! registry, so hot paths register once (at construction, or behind a
//! `OnceLock`) and then record lock-free.

use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge};
use crate::snapshot::Snapshot;

#[cfg(feature = "enabled")]
use crate::histogram::DEFAULT_LATENCY_BOUNDS;
#[cfg(feature = "enabled")]
use crate::snapshot::{HistogramSnapshot, MetricSnapshot, MetricValue};
#[cfg(feature = "enabled")]
use std::collections::BTreeMap;
#[cfg(feature = "enabled")]
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
#[cfg(feature = "enabled")]
use std::sync::RwLock;

/// Label pairs as passed at registration sites.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// Whether `labels` (in the caller's order) is the sorted, owned label set
/// `stored`.
#[cfg(feature = "enabled")]
fn same_labels(stored: &[(String, String)], labels: Labels<'_>) -> bool {
    stored.len() == labels.len()
        && labels
            .iter()
            .all(|(k, v)| stored.iter().any(|(sk, sv)| sk == k && sv == v))
}

#[cfg(feature = "enabled")]
#[derive(Debug, Clone)]
enum Entry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[cfg(feature = "enabled")]
impl Entry {
    fn kind(&self) -> &'static str {
        match self {
            Entry::Counter(_) => "counter",
            Entry::Gauge(_) => "gauge",
            Entry::Histogram(_) => "histogram",
        }
    }
}

#[cfg(feature = "enabled")]
#[derive(Debug)]
struct Registered {
    entry: Entry,
    help: String,
}

/// One metric name's series, keyed by their sorted label pairs.
#[cfg(feature = "enabled")]
type Series = BTreeMap<Vec<(String, String)>, Registered>;

/// A collection of named metrics. Most consumers use the process-wide
/// [`global`] registry; tests that need exact counts create their own.
#[cfg(feature = "enabled")]
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// By metric name, then by labels: iteration is in (name, labels)
    /// order and a lookup needs no owned key.
    inner: RwLock<BTreeMap<String, Series>>,
}

#[cfg(feature = "enabled")]
impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn get_or_register(
        &self,
        name: &str,
        labels: Labels<'_>,
        help: &str,
        make: impl FnOnce() -> Entry,
    ) -> Entry {
        // A metric that exists is found by comparing the borrowed name and
        // labels against the stored ones: per-request lookups (every span,
        // every routed request) allocate nothing.
        if let Some(series) = self.inner.read().expect("metrics lock").get(name) {
            if let Some((_, found)) = series.iter().find(|(l, _)| same_labels(l, labels)) {
                return found.entry.clone();
            }
        }
        let mut owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        owned.sort();
        let mut map = self.inner.write().expect("metrics lock");
        map.entry(name.to_string())
            .or_default()
            .entry(owned)
            .or_insert_with(|| Registered {
                entry: make(),
                help: help.to_string(),
            })
            .entry
            .clone()
    }

    /// Get or register a counter. Panics if `name`+`labels` already names
    /// a metric of a different kind (a programming error).
    pub fn counter(&self, name: &str, labels: Labels<'_>, help: &str) -> Counter {
        match self.get_or_register(name, labels, help, || Entry::Counter(Counter::detached())) {
            Entry::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Get or register a gauge. Panics on kind mismatch.
    pub fn gauge(&self, name: &str, labels: Labels<'_>, help: &str) -> Gauge {
        match self.get_or_register(name, labels, help, || Entry::Gauge(Gauge::detached())) {
            Entry::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Get or register a latency histogram with the default 1 µs – 10 s
    /// bucket ladder. Panics on kind mismatch.
    pub fn histogram(&self, name: &str, labels: Labels<'_>, help: &str) -> Histogram {
        self.histogram_with(name, labels, help, &DEFAULT_LATENCY_BOUNDS)
    }

    /// Get or register a histogram with explicit bucket bounds. The bounds
    /// of an already-registered histogram win (first registration fixes
    /// them). Panics on kind mismatch.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: Labels<'_>,
        help: &str,
        bounds: &[f64],
    ) -> Histogram {
        match self.get_or_register(name, labels, help, || {
            Entry::Histogram(Histogram::detached(bounds))
        }) {
            Entry::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name and
    /// labels (deterministic render order). Values are read with relaxed
    /// loads: a snapshot taken during concurrent recording is a consistent
    /// "roughly now", not a linearisation point.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.inner.read().expect("metrics lock");
        let metrics: Vec<MetricSnapshot> = map
            .iter()
            .flat_map(|(name, series)| {
                series.iter().map(move |(labels, reg)| MetricSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    help: reg.help.clone(),
                    value: match &reg.entry {
                        Entry::Counter(c) => MetricValue::Counter(c.get()),
                        Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                        Entry::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                            bounds: h.core.bounds.clone(),
                            counts: h
                                .core
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: h.core.count.load(Ordering::Relaxed),
                            sum: f64::from_bits(h.core.sum_bits.load(Ordering::Relaxed)),
                        }),
                    },
                })
            })
            .collect();
        // Both map levels are ordered, so `metrics` comes out already in
        // deterministic (name, labels) render order.
        Snapshot { metrics }
    }
}

/// No-op registry (`enabled` feature off): registration hands out no-op
/// handles and snapshots are empty.
#[cfg(not(feature = "enabled"))]
#[derive(Debug, Default)]
pub struct MetricsRegistry;

#[cfg(not(feature = "enabled"))]
impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry
    }

    /// A no-op counter.
    #[inline(always)]
    pub fn counter(&self, _name: &str, _labels: Labels<'_>, _help: &str) -> Counter {
        Counter
    }

    /// A no-op gauge.
    #[inline(always)]
    pub fn gauge(&self, _name: &str, _labels: Labels<'_>, _help: &str) -> Gauge {
        Gauge
    }

    /// A no-op histogram.
    #[inline(always)]
    pub fn histogram(&self, _name: &str, _labels: Labels<'_>, _help: &str) -> Histogram {
        Histogram
    }

    /// A no-op histogram.
    #[inline(always)]
    pub fn histogram_with(
        &self,
        _name: &str,
        _labels: Labels<'_>,
        _help: &str,
        _bounds: &[f64],
    ) -> Histogram {
        Histogram
    }

    /// Always empty.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            metrics: Vec::new(),
        }
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry every DiagNet subsystem records into by
/// default. Created lazily on first use.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", &[("backend", "diagnet")], "requests");
        let b = reg.counter("requests_total", &[("backend", "diagnet")], "ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels → different cell.
        let c = reg.counter("requests_total", &[("backend", "forest")], "requests");
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("a", "1"), ("b", "2")], "");
        let b = reg.counter("m", &[("b", "2"), ("a", "1")], "");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[], "");
        reg.gauge("m", &[], "");
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", &[], "last").inc();
        reg.gauge("a_gauge", &[], "first").set(4.0);
        reg.histogram("m_seconds", &[], "middle").observe(0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["a_gauge", "m_seconds", "z_total"]);
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let n_threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    // Each thread registers on its own: get-or-register must
                    // converge on one cell.
                    let c = reg.counter("contended_total", &[], "");
                    let h = reg.histogram_with("contended_hist", &[], "", &[0.5]);
                    for i in 0..per_thread {
                        c.inc();
                        h.observe((i % 2) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("contended_total", &[]),
            Some(n_threads * per_thread)
        );
        let hist = snap.histogram("contended_hist", &[]).unwrap();
        assert_eq!(hist.count, n_threads * per_thread);
        assert_eq!(hist.counts.iter().sum::<u64>(), n_threads * per_thread);
        // Exactly half the observations were 0.0 (≤ 0.5), half 1.0 (overflow).
        assert_eq!(hist.counts[0], n_threads * per_thread / 2);
        assert_eq!(hist.counts[1], n_threads * per_thread / 2);
        assert_eq!(hist.sum, (n_threads * per_thread / 2) as f64);
    }
}
