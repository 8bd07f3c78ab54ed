//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Metrics are registered by name (convention: `applab_<crate>_<name>`,
//! with `_total` for counters) in a process-global [`Registry`] and are
//! updated lock-free through [`Counter`]/[`Gauge`]/[`Histogram`] handles.
//! Handles are `Arc`s into the registry, so a component can keep its own
//! handle for per-instance reads while the registry remains the single
//! source of truth for exposition. Per-instance series are distinguished
//! with labels (see [`Registry::counter_with`] and [`next_instance_id`]).
//!
//! Two exposition formats are supported: Prometheus text exposition
//! ([`Registry::to_prometheus`]) and a JSON snapshot
//! ([`Registry::to_json`]) that the `exp_*` experiment harnesses dump as
//! `METRICS_<experiment>.json` when they finish.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An exponentially weighted moving average over an `f64` signal,
/// readable and updatable lock-free (the value is stored as `f64` bits
/// in an `AtomicU64`; there is no atomic f64 in std).
///
/// This is the smoothing element behind control decisions that must
/// react to a *trend*, not a single sample — the service's queue-delay
/// shedder feeds every measured admission wait through one of these and
/// sheds when the smoothed delay crosses its target. Unlike [`Counter`]
/// / [`Gauge`] / [`Histogram`] an `Ewma` is not registered in a
/// [`Registry`]: the owner keeps the handle for its decisions and
/// mirrors the value into a gauge for exposition.
#[derive(Debug, Default)]
pub struct Ewma {
    bits: AtomicU64,
}

impl Ewma {
    /// An EWMA starting at zero (the first observation dominates when
    /// `alpha` is large; callers that want seed-free startup can treat a
    /// zero reading as "no signal yet").
    pub fn new() -> Self {
        Ewma::default()
    }

    /// Fold `sample` in with weight `alpha` (`0.0..=1.0`): the stored
    /// value becomes `alpha * sample + (1 - alpha) * value`. Returns the
    /// updated average. Concurrent observers race politely through a
    /// compare-exchange loop; each sample is folded in exactly once.
    pub fn observe(&self, sample: f64, alpha: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} out of range");
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = alpha * sample + (1.0 - alpha) * f64::from_bits(cur);
            match self.bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current smoothed value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Reset the average to zero.
    pub fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram in the Prometheus style: `bounds[i]` is the
/// inclusive upper bound of bucket `i`, and one extra overflow bucket
/// (`+Inf`) catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last one is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, stored as `f64` bits and updated with a
    /// compare-exchange loop (no atomic f64 in std).
    sum_bits: AtomicU64,
}

impl Histogram {
    /// `bounds` must be strictly increasing (checked in debug builds).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Exponential bounds: `start, start*factor, ...` (`n` bounds).
    pub fn exponential(start: f64, factor: f64, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        let mut v = start;
        for _ in 0..n {
            out.push(v);
            v *= factor;
        }
        out
    }

    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Upper bounds (exclusive of the overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// Prometheus-style: the target rank is located in its bucket and
    /// the value is linearly interpolated between the bucket's bounds
    /// (the first bucket interpolates up from 0). Observations in the
    /// overflow bucket clamp to the last finite bound — a histogram can
    /// not see above its bounds. Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target observation, 1-based; q=0 maps to rank 1.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let counts = self.bucket_counts();
        let mut cumulative = 0u64;
        for (i, n) in counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += n;
            if rank <= cumulative {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: clamp to the last finite bound
                    // (or 0 for a bound-less histogram).
                    return Some(self.bounds.last().copied().unwrap_or(0.0));
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let into = (rank - prev) as f64 / *n as f64;
                return Some(lower + (upper - lower) * into);
            }
        }
        Some(self.bounds.last().copied().unwrap_or(0.0))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A thread-safe name → metric table.
#[derive(Default)]
pub struct Registry {
    // BTreeMap: exposition output is sorted and therefore stable (the
    // Prometheus golden test depends on this).
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or register a labeled counter, e.g.
    /// `counter_with("applab_sdl_cache_hits_total", &[("instance", "3")])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = render_key(name, labels);
        if let Some(Metric::Counter(c)) = self.metrics.read().expect("registry lock").get(&key) {
            return c.clone();
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(key.clone())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {key} is already registered with a different type"),
        }
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = render_key(name, labels);
        if let Some(Metric::Gauge(g)) = self.metrics.read().expect("registry lock").get(&key) {
            return g.clone();
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(key.clone())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {key} is already registered with a different type"),
        }
    }

    /// Get or register the histogram `name`. The bounds of the first
    /// registration win; later calls ignore `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Get or register a labeled histogram, e.g. a per-endpoint latency
    /// series. The bounds of the first registration win.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let key = render_key(name, labels);
        if let Some(Metric::Histogram(h)) = self.metrics.read().expect("registry lock").get(&key) {
            return h.clone();
        }
        let mut metrics = self.metrics.write().expect("registry lock");
        match metrics
            .entry(key.clone())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {key} is already registered with a different type"),
        }
    }

    /// Zero every registered metric (handles stay valid). Benches use this
    /// to scope a snapshot to one experiment.
    pub fn reset(&self) {
        for metric in self.metrics.read().expect("registry lock").values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Prometheus text exposition format, sorted by series name.
    pub fn to_prometheus(&self) -> String {
        let metrics = self.metrics.read().expect("registry lock");
        let mut out = String::new();
        let mut last_base = String::new();
        for (key, metric) in metrics.iter() {
            let base = base_name(key);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if base != last_base {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_base = base.to_string();
            }
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{key} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{key} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, n) in counts.iter().enumerate() {
                        cumulative += n;
                        let le = match h.bounds().get(i) {
                            Some(b) => format_f64(*b),
                            None => "+Inf".to_string(),
                        };
                        out.push_str(&format!("{key}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{key}_sum {}\n", format_f64(h.sum())));
                    out.push_str(&format!("{key}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}, "slo": {...}}`, sorted by series name. The
    /// `slo` section carries interpolated p50/p95/p99/max estimates
    /// (see [`Histogram::quantile`]) for every nonempty histogram.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.read().expect("registry lock");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        let mut slo = String::new();
        for (key, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    push_entry(&mut counters, key, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    push_entry(&mut gauges, key, &g.get().to_string());
                }
                Metric::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds().iter().map(|b| format_f64(*b)).collect();
                    let counts: Vec<String> =
                        h.bucket_counts().iter().map(u64::to_string).collect();
                    let value = format!(
                        "{{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                        bounds.join(", "),
                        counts.join(", "),
                        format_f64(h.sum()),
                        h.count()
                    );
                    push_entry(&mut histograms, key, &value);
                    if let Some(entry) = SloEntry::from_histogram(key, h) {
                        let value = format!(
                            "{{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                            entry.count,
                            format_f64(entry.p50),
                            format_f64(entry.p95),
                            format_f64(entry.p99),
                            format_f64(entry.max)
                        );
                        push_entry(&mut slo, key, &value);
                    }
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{counters}}},\n  \"gauges\": {{{gauges}}},\n  \"histograms\": {{{histograms}}},\n  \"slo\": {{{slo}}}\n}}\n"
        )
    }

    /// Quantile summaries for every nonempty histogram (optionally only
    /// those whose key starts with `prefix`), sorted by series name —
    /// the operator's SLO view.
    pub fn slo_report(&self, prefix: &str) -> SloReport {
        let metrics = self.metrics.read().expect("registry lock");
        let mut entries = Vec::new();
        for (key, metric) in metrics.iter() {
            if let Metric::Histogram(h) = metric {
                if key.starts_with(prefix) {
                    if let Some(entry) = SloEntry::from_histogram(key, h) {
                        entries.push(entry);
                    }
                }
            }
        }
        SloReport { entries }
    }
}

/// Quantile summary of one histogram series.
#[derive(Debug, Clone)]
pub struct SloEntry {
    /// The series key, labels included.
    pub series: String,
    /// Observations recorded.
    pub count: u64,
    /// Interpolated 50th percentile.
    pub p50: f64,
    /// Interpolated 95th percentile.
    pub p95: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// Upper estimate (clamped to the last finite bound).
    pub max: f64,
}

impl SloEntry {
    fn from_histogram(key: &str, h: &Histogram) -> Option<SloEntry> {
        Some(SloEntry {
            series: key.to_string(),
            count: h.count(),
            p50: h.quantile(0.50)?,
            p95: h.quantile(0.95)?,
            p99: h.quantile(0.99)?,
            max: h.quantile(1.0)?,
        })
    }
}

/// A set of [`SloEntry`]s with a plain-text table rendering, emitted by
/// `examples/ops.rs`.
#[derive(Debug, Clone, Default)]
pub struct SloReport {
    /// One row per histogram series, sorted by series name.
    pub entries: Vec<SloEntry>,
}

impl SloReport {
    /// An aligned text table (seconds rendered as milliseconds).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<64} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "series", "count", "p50_ms", "p95_ms", "p99_ms", "max_ms"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<64} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                e.series,
                e.count,
                e.p50 * 1e3,
                e.p95 * 1e3,
                e.p99 * 1e3,
                e.max * 1e3
            ));
        }
        out
    }
}

fn push_entry(section: &mut String, key: &str, value: &str) {
    if !section.is_empty() {
        section.push(',');
    }
    section.push_str("\n    ");
    crate::json::push_string(section, key);
    section.push_str(": ");
    section.push_str(value);
}

/// `name{k="v",...}` with labels sorted by key; bare `name` without labels.
fn render_key(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid metric name {name:?}"
    );
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    // Prometheus label-value escaping: backslash first, then quote and
    // newline — a raw newline in a label value would corrupt the text
    // exposition format.
    let rendered: Vec<String> = sorted
        .iter()
        .map(|(k, v)| {
            format!(
                "{k}=\"{}\"",
                v.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
            )
        })
        .collect();
    format!("{name}{{{}}}", rendered.join(","))
}

fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Shortest clean rendering: integral values without trailing `.0` noise.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process-global registry. Everything instrumented in the applab
/// crates registers here.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A process-unique id for per-instance metric labels (caches, transports).
pub fn next_instance_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("applab_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same handle.
        assert_eq!(r.counter("applab_test_total").get(), 5);
        let g = r.gauge("applab_test_size");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn labels_are_sorted_and_distinct() {
        let r = Registry::new();
        let a = r.counter_with("applab_x_total", &[("b", "2"), ("a", "1")]);
        let b = r.counter_with("applab_x_total", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1, "label order must not split the series");
        let other = r.counter_with("applab_x_total", &[("a", "9")]);
        assert_eq!(other.get(), 0);
        assert!(r
            .to_prometheus()
            .contains("applab_x_total{a=\"1\",b=\"2\"} 1"));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("applab_dup");
        r.gauge("applab_dup");
    }

    #[test]
    fn json_snapshot_escapes_label_quotes() {
        let r = Registry::new();
        r.counter_with("applab_j_total", &[("k", "v")]).inc();
        let json = r.to_json();
        assert!(
            json.contains("\"applab_j_total{k=\\\"v\\\"}\": 1"),
            "{json}"
        );
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), None);
        h.observe(1.5);
        assert!(h.quantile(0.5).is_some());
        assert_eq!(h.quantile(1.5), None, "q outside [0,1] is rejected");
        assert_eq!(h.quantile(-0.1), None);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        // All observations land in the (2.0, 4.0] bucket: quantiles
        // interpolate linearly between the bucket's bounds.
        let h = Histogram::new(&[2.0, 4.0]);
        for _ in 0..4 {
            h.observe(3.0);
        }
        // Ranks 1..=4 of 4 map to 2.5, 3.0, 3.5, 4.0.
        assert_eq!(h.quantile(0.25), Some(2.5));
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        // The first bucket interpolates up from zero.
        let h = Histogram::new(&[8.0]);
        h.observe(1.0);
        assert_eq!(h.quantile(0.5), Some(8.0), "rank 1 of 1 fills the bucket");
    }

    #[test]
    fn quantile_spans_buckets_and_clamps_overflow() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5); // bucket (0, 1]
        h.observe(1.5); // bucket (1, 2]
        h.observe(99.0); // overflow
        h.observe(99.0); // overflow
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        // Overflow observations clamp to the last finite bound: the
        // histogram cannot see above its bounds.
        assert_eq!(h.quantile(0.99), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn labeled_histograms_are_distinct_series() {
        let r = Registry::new();
        let a = r.histogram_with("applab_h_seconds", &[("endpoint", "a")], &[1.0]);
        let b = r.histogram_with("applab_h_seconds", &[("endpoint", "b")], &[1.0]);
        a.observe(0.5);
        assert_eq!(b.count(), 0, "labels split the series");
        assert_eq!(
            r.histogram_with("applab_h_seconds", &[("endpoint", "a")], &[1.0])
                .count(),
            1
        );
        let report = r.slo_report("applab_h_seconds");
        assert_eq!(report.entries.len(), 1, "empty series are skipped");
        assert_eq!(report.entries[0].series, "applab_h_seconds{endpoint=\"a\"}");
    }

    #[test]
    fn json_snapshot_has_slo_section() {
        let r = Registry::new();
        let h = r.histogram("applab_q_seconds", &[1.0, 2.0]);
        for _ in 0..4 {
            h.observe(1.5);
        }
        let json = r.to_json();
        assert!(
            json.contains("\"applab_q_seconds\": {\"count\": 4, \"p50\": 1.5, \"p95\": 2, \"p99\": 2, \"max\": 2}"),
            "{json}"
        );
    }

    /// Golden escaping check: label values with quotes, backslashes and
    /// newlines must survive both exposition formats.
    #[test]
    fn exposition_escapes_hostile_label_values() {
        let r = Registry::new();
        r.counter_with("applab_esc_total", &[("path", "a\"b\\c\nd")])
            .inc();
        let prom = r.to_prometheus();
        assert!(
            prom.contains("applab_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{prom}"
        );
        // No raw newline inside any sample line: each metric stays on
        // one line of the text exposition.
        let line = prom
            .lines()
            .find(|l| l.starts_with("applab_esc_total"))
            .expect("series rendered");
        assert!(line.ends_with(" 1"), "{line}");
        let json = r.to_json();
        // JSON doubles the escaping: the key holds the Prometheus-
        // rendered series name, then JSON-escapes it.
        assert!(
            json.contains("\"applab_esc_total{path=\\\"a\\\\\\\"b\\\\\\\\c\\\\nd\\\"}\": 1"),
            "{json}"
        );
    }

    #[test]
    fn ewma_smooths_and_resets() {
        let e = Ewma::new();
        assert_eq!(e.value(), 0.0, "starts at zero");
        assert_eq!(e.observe(10.0, 0.5), 5.0);
        assert_eq!(e.observe(10.0, 0.5), 7.5);
        // Zero samples decay the average back down.
        assert_eq!(e.observe(0.0, 0.5), 3.75);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    fn exponential_bounds() {
        assert_eq!(
            Histogram::exponential(1.0, 10.0, 4),
            vec![1.0, 10.0, 100.0, 1000.0]
        );
    }
}
