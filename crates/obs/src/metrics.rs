//! Metrics registry: named counters, gauges and log2-bucketed
//! histograms with quantiles.
//!
//! The registry uses interior mutability (`RefCell`) so that a single
//! shared `&MetricsRegistry` can be threaded through call layers
//! without fighting the borrow checker; it is consequently not `Sync`
//! and is meant for single-threaded instrumented runs. It is also the
//! metrics-only [`Tracer`](crate::Tracer) probe.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sub-buckets per power of two: bucket edges grow by a factor of
/// `2^(1/16) ≈ 1.044`, bounding the relative error of a reported
/// quantile to ±2.2% — HDR-histogram-style resolution at a fixed
/// 16 KiB per histogram.
const SUB_BUCKETS: usize = 16;
/// Smallest tracked exponent: values below `2^-60` (≈ 8.7e-19, well
/// under a nanosecond in seconds) collapse into the first bucket.
const MIN_EXP: i32 = -60;
/// Largest tracked exponent: values above `2^64` (≈ 1.8e19) collapse
/// into the last bucket.
const MAX_EXP: i32 = 64;
const N_BUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BUCKETS;

/// A log2-bucketed histogram: positive values land in geometric
/// buckets of width `2^(1/16)`; zero, negative and NaN values share a
/// dedicated underflow bucket (their exact contribution still lands in
/// `sum`/`min`/`max`). Quantiles come from a cumulative bucket walk —
/// the reported value is the geometric midpoint of the rank's bucket,
/// clamped to the exact observed `[min, max]`, so `quantile(1.0)` is
/// the exact maximum and every quantile has bounded relative error.
#[derive(Debug, Clone, Default)]
pub struct Log2Histogram {
    /// Lazily allocated positive-value buckets (`N_BUCKETS` once the
    /// first positive value arrives).
    counts: Vec<u64>,
    /// Values `<= 0` (and NaN), which have no log2 bucket.
    zero_or_less: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Log2Histogram {
    /// An empty histogram. Allocates its bucket array on first record.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            zero_or_less: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(value: f64) -> usize {
        let idx = (value.log2() - f64::from(MIN_EXP)) * SUB_BUCKETS as f64;
        if idx < 0.0 {
            0
        } else if idx >= N_BUCKETS as f64 {
            N_BUCKETS - 1
        } else {
            idx as usize
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value > 0.0 {
            if self.counts.is_empty() {
                self.counts = vec![0; N_BUCKETS];
            }
            self.counts[Self::bucket_of(value)] += 1;
        } else {
            self.zero_or_less += 1;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest rank, with
    /// relative error bounded by the `2^(1/16)` bucket width; 0 when
    /// empty. `quantile(0.0)` and `quantile(1.0)` are the exact
    /// observed minimum and maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.zero_or_less;
        let mut rep = 0.0; // underflow-bucket representative
        if cum < rank {
            for (i, n) in self.counts.iter().enumerate() {
                cum += n;
                if cum >= rank {
                    let mid = (i as f64 + 0.5) / SUB_BUCKETS as f64 + f64::from(MIN_EXP);
                    rep = mid.exp2();
                    break;
                }
            }
        }
        rep.clamp(self.min, self.max)
    }

    /// Aggregate view with p50/p95/p99.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Aggregate view of a histogram, for rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty; exact).
    pub min: f64,
    /// Largest observation (0 when empty; exact).
    pub max: f64,
    /// Median, within the log2 bucket resolution (±2.2%).
    pub p50: f64,
    /// 95th percentile, within the log2 bucket resolution.
    pub p95: f64,
    /// 99th percentile, within the log2 bucket resolution.
    pub p99: f64,
}

impl HistogramSummary {
    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A named metric value, as returned by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins measurement.
    Gauge(f64),
    /// Distribution summary.
    Histogram(HistogramSummary),
}

impl MetricValue {
    /// Short kind label (`"counter"` / `"gauge"` / `"histogram"`).
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Human-readable rendering of the value alone.
    pub fn render(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => format!("{v:.6}"),
            MetricValue::Histogram(h) => format!(
                "n={} mean={:.6} p50={:.6} p95={:.6} p99={:.6} min={:.6} max={:.6}",
                h.count,
                h.mean(),
                h.p50,
                h.p95,
                h.p99,
                h.min,
                h.max
            ),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

/// Registry of named counters, gauges and log2-bucketed histograms.
///
/// Metric names are dot-namespaced by subsystem (`miec.candidates`,
/// `local_search.relocates_accepted`) and never contain commas, so they
/// embed safely in the CSV renderings of `esvm-analysis` tables.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RefCell<Inner>,
}

impl MetricsRegistry {
    /// An empty registry. Allocates nothing until the first metric is
    /// recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = inner.counters.get_mut(name) {
            *c += delta;
        } else {
            inner.counters.insert(name.to_owned(), delta);
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(g) = inner.gauges.get_mut(name) {
            *g = value;
        } else {
            inner.gauges.insert(name.to_owned(), value);
        }
    }

    /// Records `value` in the histogram `name`, creating it if needed.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Log2Histogram::new();
            h.record(value);
            inner.histograms.insert(name.to_owned(), h);
        }
    }

    /// Current value of the counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of the gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Summary of the histogram `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.inner.borrow().histograms.get(name).map(Log2Histogram::summary)
    }

    /// True when no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.borrow();
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty()
    }

    /// Every metric, sorted by name within kind (counters, then gauges,
    /// then histograms).
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let inner = self.inner.borrow();
        let mut rows = Vec::with_capacity(
            inner.counters.len() + inner.gauges.len() + inner.histograms.len(),
        );
        for (name, v) in &inner.counters {
            rows.push((name.clone(), MetricValue::Counter(*v)));
        }
        for (name, v) in &inner.gauges {
            rows.push((name.clone(), MetricValue::Gauge(*v)));
        }
        for (name, h) in &inner.histograms {
            rows.push((name.clone(), MetricValue::Histogram(h.summary())));
        }
        rows
    }

    /// Plain-text rendering: one aligned `name kind value` line per
    /// metric.
    pub fn render(&self) -> String {
        let rows = self.snapshot();
        let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in rows {
            let _ = writeln!(out, "{name:<width$}  {:<9}  {}", value.kind(), value.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.add("a.hits", 2);
        m.add("a.hits", 3);
        assert_eq!(m.counter("a.hits"), 5);
        assert_eq!(m.counter("a.misses"), 0);
        assert!(!m.is_empty());
    }

    #[test]
    fn gauges_last_write_wins() {
        let m = MetricsRegistry::new();
        m.set_gauge("energy.total", 1.0);
        m.set_gauge("energy.total", 4.5);
        assert_eq!(m.gauge("energy.total"), Some(4.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_summary_tracks_exact_moments() {
        let m = MetricsRegistry::new();
        for v in [0.5, 1.0, 2.0, 1000.0] {
            m.observe("d", v);
        }
        let h = m.histogram("d").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1003.5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1000.0);
        assert!((h.mean() - 250.875).abs() < 1e-12);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Log2Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        // Each quantile must land within the 2^(1/16) bucket width of
        // the exact nearest-rank answer.
        for (q, exact) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got / exact).log2().abs() <= 1.0 / SUB_BUCKETS as f64,
                "q={q}: got {got}, exact {exact}"
            );
        }
        // The extreme quantiles are exact: clamped to observed min/max.
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.quantile(0.0), 1.0);
        let s = h.summary();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn zero_and_negative_values_share_the_underflow_bucket() {
        let mut h = Log2Histogram::new();
        h.record(0.0);
        h.record(-2.5);
        h.record(4.0);
        assert_eq!(h.count(), 3);
        let s = h.summary();
        assert_eq!(s.min, -2.5);
        assert_eq!(s.max, 4.0);
        // p50 rank 2 falls in the underflow bucket; its representative
        // 0.0 is within the observed range so it survives the clamp.
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn empty_histogram_summarises_to_zeros() {
        let h = Log2Histogram::new();
        assert!(h.is_empty());
        let s = h.summary();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99),
            (0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn extreme_magnitudes_clamp_into_edge_buckets() {
        let mut h = Log2Histogram::new();
        h.record(1e-300);
        h.record(1e300);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        // Representatives overshoot the bucket range but the clamp to
        // observed extremes keeps quantiles inside [min, max].
        assert!(h.quantile(0.1) >= 1e-300);
        assert_eq!(h.summary().min, 1e-300);
    }

    #[test]
    fn render_includes_percentiles() {
        let m = MetricsRegistry::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.observe("lat", v);
        }
        let rendered = m.render();
        for needle in ["n=4", "mean=2.5", "p50=", "p95=", "p99=", "min=1.0", "max=4.0"] {
            assert!(rendered.contains(needle), "{rendered}");
        }
    }

    #[test]
    fn snapshot_orders_counters_gauges_histograms() {
        let m = MetricsRegistry::new();
        m.observe("h.x", 1.0);
        m.add("c.b", 1);
        m.add("c.a", 1);
        m.set_gauge("g.y", 2.0);
        let names: Vec<String> = m.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["c.a", "c.b", "g.y", "h.x"]);
        assert!(m.render().contains("counter"));
    }
}
