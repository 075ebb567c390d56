//! Measurement: named counters and latency histograms.
//!
//! Experiments record into a [`Metrics`] sink and read back counters,
//! means, and percentiles when printing tables. Percentiles use exact
//! order statistics over recorded samples (sample counts in these
//! experiments are small enough that sketches are unnecessary, and
//! exactness aids reproducibility).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A latency histogram backed by raw samples.
///
/// Percentile reads take `&self`: the sorted order is cached in a
/// [`RefCell`] and rebuilt lazily after mutation, so read-only surfaces
/// (Display, the Prometheus exposition) never need `&mut` access.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: RefCell<Vec<u64>>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted.get_mut().clear();
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all samples, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|s| *s as u128).sum();
        SimDuration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Exact sum of all samples, in nanoseconds.
    ///
    /// Returned as `u128`: long simulations can accumulate more than
    /// `u64::MAX` nanoseconds of samples, and the old `SimDuration`
    /// return silently saturated there.
    pub fn total(&self) -> u128 {
        self.samples.iter().map(|s| *s as u128).sum()
    }

    /// The sum as a `SimDuration`, or `None` if it overflows one.
    pub fn checked_total(&self) -> Option<SimDuration> {
        u64::try_from(self.total())
            .ok()
            .map(SimDuration::from_nanos)
    }

    /// Largest sample, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest sample, or zero if empty.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// Exact percentile (`q` in `[0, 100]`) by nearest-rank, or zero if
    /// empty. The sorted order is computed on first read after a
    /// mutation and cached.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        {
            let mut cache = self.sorted.borrow_mut();
            if cache.len() != self.samples.len() {
                cache.clear();
                cache.extend_from_slice(&self.samples);
                cache.sort_unstable();
            }
        }
        Self::percentile_of_sorted(&self.sorted.borrow(), q)
    }

    /// Exact quantile (`q` in `[0, 1]`) by nearest-rank, or zero if
    /// empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        self.percentile(q * 100.0)
    }

    fn percentile_of_sorted(sorted: &[u64], q: f64) -> SimDuration {
        if sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        SimDuration::from_nanos(sorted[rank])
    }

    /// Median sample.
    pub fn p50(&self) -> SimDuration {
        self.percentile(50.0)
    }

    /// 99th percentile sample.
    pub fn p99(&self) -> SimDuration {
        self.percentile(99.0)
    }
}

/// A windowed time-series gauge over `SimTime` buckets.
///
/// Samples recorded at a virtual time land in `floor(t / bucket)`; each
/// bucket keeps the sum and count, so readers get the bucket mean. Used
/// for quantities that vary over a run (device utilization, queue depth)
/// where one whole-job histogram would hide the shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket: SimDuration,
    points: BTreeMap<u64, (f64, u64)>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(bucket > SimDuration::ZERO, "zero-width gauge bucket");
        TimeSeries {
            bucket,
            points: BTreeMap::new(),
        }
    }

    /// The bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Records one sample at virtual time `t`.
    pub fn record(&mut self, t: SimTime, value: f64) {
        let idx = t.as_nanos() / self.bucket.as_nanos();
        let slot = self.points.entry(idx).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    /// Number of non-empty buckets.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates `(bucket_start, mean)` in time order.
    pub fn means(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().map(|(idx, (sum, n))| {
            (
                SimTime::from_nanos(idx * self.bucket.as_nanos()),
                sum / (*n).max(1) as f64,
            )
        })
    }

    /// Mean over every recorded sample, or zero if empty.
    pub fn overall_mean(&self) -> f64 {
        let (sum, n) = self
            .points
            .values()
            .fold((0.0, 0u64), |(s, c), (ps, pc)| (s + ps, c + pc));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Renders a label set as a canonical `{k=v,k2=v2}` suffix. Labels are
/// sorted by key so the same set always produces the same metric key.
fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort();
    let mut key = String::with_capacity(name.len() + 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

/// A named collection of counters, histograms, and windowed gauges.
///
/// Counters and histograms may carry **labels** (per-tier, per-node,
/// per-backend, ...): a labeled series is stored under the canonical key
/// `name{k=v,...}`, so it sorts next to its base name in listings and
/// merges across sinks like any other series.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, TimeSeries>,
}

impl Metrics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increments the named counter by one.
    pub fn bump(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a duration sample into the named histogram.
    pub fn observe(&mut self, name: &str, d: SimDuration) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(d);
    }

    /// Mutable access to a histogram (created empty on first use).
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Read access to a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Adds `delta` to a labeled counter.
    pub fn add_labeled(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self.counters.entry(labeled_key(name, labels)).or_insert(0) += delta;
    }

    /// Increments a labeled counter by one.
    pub fn bump_labeled(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.add_labeled(name, labels, 1);
    }

    /// Reads a labeled counter (zero if never touched).
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&labeled_key(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Sums a counter across every label combination (`name` and all
    /// `name{...}` series).
    pub fn counter_across_labels(&self, name: &str) -> u64 {
        let prefix = format!("{name}{{");
        self.counters
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Records a duration sample into a labeled histogram.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], d: SimDuration) {
        self.histograms
            .entry(labeled_key(name, labels))
            .or_default()
            .record(d);
    }

    /// Read access to a labeled histogram, if it exists.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(&labeled_key(name, labels))
    }

    /// Records a gauge sample at virtual time `t`; the series is created
    /// with `bucket` width on first use (later `bucket` values are
    /// ignored for an existing series).
    pub fn gauge_record(&mut self, name: &str, bucket: SimDuration, t: SimTime, value: f64) {
        self.gauges
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(bucket))
            .record(t, value);
    }

    /// Read access to a gauge series, if it exists.
    pub fn gauge(&self, name: &str) -> Option<&TimeSeries> {
        self.gauges.get(name)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> Vec<&str> {
        self.counters.keys().map(String::as_str).collect()
    }

    /// All histogram names, sorted.
    pub fn histogram_names(&self) -> Vec<&str> {
        self.histograms.keys().map(String::as_str).collect()
    }

    /// Merges another sink into this one (counters add, samples append,
    /// gauge buckets combine).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.samples.extend_from_slice(&h.samples);
            mine.sorted.get_mut().clear();
        }
        for (k, g) in &other.gauges {
            let mine = self
                .gauges
                .entry(k.clone())
                .or_insert_with(|| TimeSeries::new(g.bucket));
            for (idx, (sum, n)) in &g.points {
                let slot = mine.points.entry(*idx).or_insert((0.0, 0));
                slot.0 += sum;
                slot.1 += n;
            }
        }
    }
}

/// Sanitizes a metric or label name into the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format.
fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Splits a canonical `name{k=v,...}` series key back into its base name
/// and label pairs (both sanitized for exposition).
fn split_series(key: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = key.find('{') else {
        return (prom_name(key), Vec::new());
    };
    let name = prom_name(&key[..brace]);
    let body = key[brace + 1..].trim_end_matches('}');
    let labels = body
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (prom_name(k), prom_label_value(v)),
            None => (prom_name(pair), String::new()),
        })
        .collect();
    (name, labels)
}

/// Renders one exposition line: `name{labels} value`.
fn prom_line(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

impl Metrics {
    /// Renders every series in the Prometheus text exposition format.
    ///
    /// Counters export as `counter`; histograms as `summary` series with
    /// `quantile="0.5"` / `quantile="0.99"` labels plus `_sum`/`_count`
    /// (values in nanoseconds); gauges as their overall mean. Names are
    /// sanitized into the Prometheus grammar (`.` becomes `_`), labeled
    /// series keep their labels, and output order follows the sinks'
    /// sorted key order, so the exposition is deterministic.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for (key, v) in &self.counters {
            let (name, labels) = split_series(key);
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} counter\n"));
            }
            prom_line(&mut out, &name, &labels, &v.to_string());
        }
        for (key, h) in &self.histograms {
            let (name, labels) = split_series(key);
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} summary\n"));
            }
            for (q, d) in [("0.5", h.quantile(0.5)), ("0.99", h.quantile(0.99))] {
                let mut with_q = labels.clone();
                with_q.push(("quantile".to_string(), q.to_string()));
                prom_line(&mut out, &name, &with_q, &d.as_nanos().to_string());
            }
            prom_line(
                &mut out,
                &format!("{name}_sum"),
                &labels,
                &h.total().to_string(),
            );
            prom_line(
                &mut out,
                &format!("{name}_count"),
                &labels,
                &h.count().to_string(),
            );
        }
        for (key, g) in &self.gauges {
            let (name, labels) = split_series(key);
            if typed.insert(name.clone()) {
                out.push_str(&format!("# TYPE {name} gauge\n"));
            }
            prom_line(
                &mut out,
                &name,
                &labels,
                &format!("{:.6}", g.overall_mean()),
            );
        }
        out
    }
}

/// Validates Prometheus text-exposition output: every non-comment line
/// must match the `name{label="value",...} value` grammar and no series
/// (name plus full label set) may repeat. Returns the series count.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", ln + 1));
        // Split the series key from the value at the last space outside
        // braces (label values may contain spaces).
        let split = match line.rfind('}') {
            Some(close) => match line[close + 1..].strip_prefix(' ') {
                Some(_) => close + 1,
                None => return err("expected space after label set"),
            },
            None => match line.find(' ') {
                Some(sp) => sp,
                None => return err("expected `name value`"),
            },
        };
        let (series, value) = (&line[..split], line[split + 1..].trim());
        if value.is_empty() || value.parse::<f64>().is_err() {
            return err("value is not a number");
        }
        let (name, labels) = match series.find('{') {
            None => (series, ""),
            Some(b) => {
                if !series.ends_with('}') {
                    return err("unterminated label set");
                }
                (&series[..b], &series[b + 1..series.len() - 1])
            }
        };
        if !valid_name(name) {
            return err("bad metric name");
        }
        if !labels.is_empty() {
            for pair in labels.split("\",") {
                let pair = pair.strip_suffix('"').unwrap_or(pair);
                let Some((k, v)) = pair.split_once("=\"") else {
                    return err("label is not key=\"value\"");
                };
                if !valid_name(k) {
                    return err("bad label name");
                }
                if v.contains('"') {
                    return err("unescaped quote in label value");
                }
            }
        }
        if !seen.insert(series.to_string()) {
            return Err(format!("line {}: duplicate series {series:?}", ln + 1));
        }
    }
    Ok(seen.len())
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k}: {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k}: n={} mean={} p50={} p99={} max={}",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(99.0),
                h.max()
            )?;
        }
        for (k, g) in &self.gauges {
            writeln!(
                f,
                "{k}: buckets={} bucket_width={} mean={:.3}",
                g.len(),
                g.bucket(),
                g.overall_mean()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.bump("tasks");
        m.add("tasks", 4);
        assert_eq!(m.counter("tasks"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for us in [1u64, 2, 3, 4, 100] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean().as_micros(), 22);
        assert_eq!(h.min().as_micros(), 1);
        assert_eq!(h.max().as_micros(), 100);
        assert_eq!(h.p50().as_micros(), 3);
        assert_eq!(h.total(), SimDuration::from_micros(110).as_nanos() as u128);
        assert_eq!(h.checked_total(), Some(SimDuration::from_micros(110)));
    }

    #[test]
    fn total_does_not_saturate_past_u64() {
        // Regression: the old implementation clamped the sum to
        // u64::MAX nanoseconds, silently corrupting long-run totals.
        let mut h = Histogram::new();
        for _ in 0..4 {
            h.record(SimDuration::from_nanos(u64::MAX / 2));
        }
        let expected = (u64::MAX / 2) as u128 * 4;
        assert!(expected > u64::MAX as u128);
        assert_eq!(h.total(), expected);
        assert_eq!(h.checked_total(), None);
        // Small totals still fit.
        let mut small = Histogram::new();
        small.record(SimDuration::from_nanos(7));
        assert_eq!(small.checked_total(), Some(SimDuration::from_nanos(7)));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.percentile(0.0).as_micros(), 1);
        assert_eq!(h.percentile(100.0).as_micros(), 100);
        assert_eq!(h.p99().as_micros(), 99);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert!(h.is_empty());
    }

    #[test]
    fn observe_via_metrics() {
        let mut m = Metrics::new();
        m.observe("lat", SimDuration::from_micros(10));
        m.observe("lat", SimDuration::from_micros(20));
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        assert_eq!(m.histogram_mut("lat").mean().as_micros(), 15);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.add("x", 1);
        a.observe("h", SimDuration::from_micros(1));
        let mut b = Metrics::new();
        b.add("x", 2);
        b.observe("h", SimDuration::from_micros(3));
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn display_lists_everything() {
        let mut m = Metrics::new();
        m.add("c", 7);
        m.observe("h", SimDuration::from_micros(5));
        let s = m.to_string();
        assert!(s.contains("c: 7"));
        assert!(s.contains("h: n=1"));
    }

    #[test]
    fn display_includes_percentiles() {
        let mut m = Metrics::new();
        for us in 1..=100u64 {
            m.observe("lat", SimDuration::from_micros(us));
        }
        let s = m.to_string();
        assert!(s.contains("p50=51.000us"), "missing p50 in {s:?}");
        assert!(s.contains("p99=99.000us"), "missing p99 in {s:?}");
    }

    #[test]
    fn histogram_names_listed() {
        let mut m = Metrics::new();
        m.observe("b", SimDuration::from_micros(1));
        m.observe("a", SimDuration::from_micros(1));
        m.bump("c");
        assert_eq!(m.histogram_names(), vec!["a", "b"]);
        assert_eq!(m.counter_names(), vec!["c"]);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let mut m = Metrics::new();
        m.bump_labeled("tier.hit", &[("tier", "hbm")]);
        m.add_labeled("tier.hit", &[("tier", "pooled")], 2);
        m.bump_labeled("tier.hit", &[("tier", "hbm")]);
        assert_eq!(m.counter_labeled("tier.hit", &[("tier", "hbm")]), 2);
        assert_eq!(m.counter_labeled("tier.hit", &[("tier", "pooled")]), 2);
        assert_eq!(m.counter_labeled("tier.hit", &[("tier", "local")]), 0);
        assert_eq!(m.counter_across_labels("tier.hit"), 4);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut m = Metrics::new();
        m.bump_labeled("x", &[("b", "2"), ("a", "1")]);
        m.bump_labeled("x", &[("a", "1"), ("b", "2")]);
        assert_eq!(m.counter_labeled("x", &[("a", "1"), ("b", "2")]), 2);
        assert_eq!(m.counter_names(), vec!["x{a=1,b=2}"]);
    }

    #[test]
    fn labeled_histograms_record() {
        let mut m = Metrics::new();
        m.observe_labeled("stall", &[("node", "3")], SimDuration::from_micros(4));
        let h = m.histogram_labeled("stall", &[("node", "3")]).unwrap();
        assert_eq!(h.count(), 1);
        assert!(m.histogram_labeled("stall", &[("node", "4")]).is_none());
    }

    #[test]
    fn gauge_buckets_by_time() {
        let mut m = Metrics::new();
        let bucket = SimDuration::from_millis(1);
        m.gauge_record("util", bucket, SimTime::from_micros(100), 0.5);
        m.gauge_record("util", bucket, SimTime::from_micros(200), 1.0);
        m.gauge_record("util", bucket, SimTime::from_micros(1500), 0.0);
        let g = m.gauge("util").unwrap();
        assert_eq!(g.len(), 2);
        let means: Vec<(u64, f64)> = g.means().map(|(t, v)| (t.as_millis(), v)).collect();
        assert_eq!(means, vec![(0, 0.75), (1, 0.0)]);
        assert!((g.overall_mean() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_take_shared_ref() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_micros(us));
        }
        let r = &h; // read-only access is enough
        assert_eq!(r.p50().as_micros(), 51);
        assert_eq!(r.p99().as_micros(), 99);
        assert_eq!(r.quantile(0.5), r.percentile(50.0));
        assert_eq!(r.quantile(1.0).as_micros(), 100);
        // The cache invalidates on further mutation.
        h.record(SimDuration::from_micros(1000));
        assert_eq!(h.percentile(100.0).as_micros(), 1000);
    }

    #[test]
    fn prometheus_exposition_round_trips() {
        let mut m = Metrics::new();
        m.add("control.msgs", 42);
        m.bump_labeled("tier.hit", &[("tier", "hbm")]);
        m.bump_labeled("tier.hit", &[("tier", "pooled")]);
        for us in 1..=10u64 {
            m.observe("query_latency", SimDuration::from_micros(us));
        }
        m.observe_labeled("stall", &[("node", "3")], SimDuration::from_micros(7));
        m.gauge_record(
            "util",
            SimDuration::from_millis(1),
            SimTime::from_micros(5),
            0.5,
        );
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE control_msgs counter"));
        assert!(text.contains("control_msgs 42"));
        assert!(text.contains("tier_hit{tier=\"hbm\"} 1"));
        assert!(text.contains("query_latency{quantile=\"0.5\"}"));
        assert!(text.contains("query_latency_count 10"));
        assert!(text.contains("stall{node=\"3\",quantile=\"0.99\"} 7000"));
        assert!(text.contains("util 0.500000"));
        let series = validate_prometheus(&text).expect("exposition validates");
        assert!(series >= 10, "expected many series, got {series}");
        // Determinism: rendering twice is byte-identical.
        assert_eq!(text, m.to_prometheus());
    }

    #[test]
    fn prometheus_validator_rejects_bad_lines() {
        assert!(
            validate_prometheus("ok 1\nok 2").is_err(),
            "duplicate series"
        );
        assert!(validate_prometheus("bad-name 1").is_err(), "bad name");
        assert!(validate_prometheus("x notanumber").is_err(), "bad value");
        assert!(validate_prometheus("x{k=v} 1").is_err(), "unquoted label");
        assert!(validate_prometheus("# HELP anything goes\nx{k=\"v\"} 1").is_ok());
    }

    #[test]
    fn merge_combines_gauges() {
        let bucket = SimDuration::from_millis(1);
        let mut a = Metrics::new();
        a.gauge_record("g", bucket, SimTime::from_micros(10), 1.0);
        let mut b = Metrics::new();
        b.gauge_record("g", bucket, SimTime::from_micros(20), 3.0);
        a.merge(&b);
        assert!((a.gauge("g").unwrap().overall_mean() - 2.0).abs() < 1e-9);
    }
}
