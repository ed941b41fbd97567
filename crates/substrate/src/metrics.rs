//! A zero-dependency, lock-cheap metrics registry.
//!
//! The serving layer needs three metric kinds — monotonic [`Counter`]s,
//! [`Gauge`]s, and latency [`HistogramMetric`]s (backed by the
//! log-bucketed [`crate::timing::Histogram`]) — grouped into *families*
//! (one name + help + kind) whose *series* are distinguished by label
//! sets, and rendered as a Prometheus-style text exposition. What it
//! deliberately does not need: a background thread, a global, or a
//! lock on the hot path. A counter increment is one relaxed atomic
//! add; a histogram record is one uncontended mutex plus a couple of
//! shifts.
//!
//! Handles are cheap clones detached from the registry: registering
//! the same `(name, labels)` twice returns a handle to the same
//! underlying series, so independent components can share a metric by
//! name alone. A [`Registry::disabled`] registry hands out no-op
//! handles whose operations compile down to a single branch on a
//! `None` — the "metrics off" configuration costs neither atomics nor
//! clock reads (timers skip `Instant::now` entirely).
//!
//! Cross-shard aggregation goes through [`Snapshot`]: each shard owns
//! its own registry, snapshots are merged (counters and gauges add,
//! histograms bucket-merge — preserving quantiles exactly at bucket
//! resolution), and the merged snapshot renders once. This is how the
//! `METRICS` wire opcode produces one engine-wide exposition from N
//! independent shard registries.
//!
//! Naming scheme (see DESIGN.md §8): every family is prefixed
//! `storypivot_`, counters end in `_total`, durations are nanosecond
//! histograms ending in `_duration_ns`, and per-shard series carry a
//! `shard="N"` label.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::timing::Histogram;

/// The kind of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing `u64` (rendered as `counter`).
    Counter,
    /// A signed instantaneous value (rendered as `gauge`).
    Gauge,
    /// A log-bucketed value distribution (rendered as `summary` with
    /// `quantile` series plus `_sum`/`_count`).
    Histogram,
}

impl Kind {
    fn exposition_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "summary",
        }
    }
}

#[derive(Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Mutex<Histogram>>),
}

struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their rendered label set (`""` for unlabeled,
    /// `shard="0"` style otherwise) — `BTreeMap` keeps the exposition
    /// deterministic.
    series: BTreeMap<String, Slot>,
}

struct Inner {
    families: Mutex<BTreeMap<String, Family>>,
}

/// A handle-based metrics registry. Cloning shares the same registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Render a label slice (`[("shard", "0")]`) into its canonical series
/// key: keys sorted, values escaped, `key="value"` joined by commas.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                other => out.push(other),
            }
        }
        out.push('"');
    }
    out
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit()))
}

impl Registry {
    /// A live registry: handles record, [`Registry::render`] exposes.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner {
                families: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op, and
    /// [`Registry::render`] returns an empty exposition. This is the
    /// "metrics compiled out" configuration the overhead benchmark
    /// compares against.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn slot(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Option<Slot> {
        let inner = self.inner.as_ref()?;
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        let mut families = inner.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered as {:?} and {kind:?}",
            family.kind
        );
        let slot = family
            .series
            .entry(label_key(labels))
            .or_insert_with(|| match kind {
                Kind::Counter => Slot::Counter(Arc::new(AtomicU64::new(0))),
                Kind::Gauge => Slot::Gauge(Arc::new(AtomicI64::new(0))),
                Kind::Histogram => Slot::Histogram(Arc::new(Mutex::new(Histogram::new()))),
            });
        Some(slot.clone())
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labeled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.slot(name, help, Kind::Counter, labels) {
            Some(Slot::Counter(c)) => Counter(Some(c)),
            _ => Counter(None),
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.slot(name, help, Kind::Gauge, labels) {
            Some(Slot::Gauge(g)) => Gauge(Some(g)),
            _ => Gauge(None),
        }
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramMetric {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a labeled histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramMetric {
        match self.slot(name, help, Kind::Histogram, labels) {
            Some(Slot::Histogram(h)) => HistogramMetric(Some(h)),
            _ => HistogramMetric(None),
        }
    }

    /// Copy the registry's current values into a mergeable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let mut out = Snapshot::default();
        let Some(inner) = self.inner.as_ref() else {
            return out;
        };
        let families = inner.families.lock().unwrap_or_else(|e| e.into_inner());
        for (name, family) in families.iter() {
            let mut snap = SnapFamily {
                help: family.help.clone(),
                kind: family.kind,
                series: BTreeMap::new(),
            };
            for (labels, slot) in &family.series {
                let value = match slot {
                    Slot::Counter(c) => SnapValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => SnapValue::Gauge(g.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => {
                        SnapValue::Histogram(h.lock().unwrap_or_else(|e| e.into_inner()).clone())
                    }
                };
                snap.series.insert(labels.clone(), value);
            }
            out.families.insert(name.clone(), snap);
        }
        out
    }

    /// Render the current values as a Prometheus-style text exposition.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A monotonic counter handle (no-op when detached).
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// An instantaneous signed gauge handle (no-op when detached).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A distribution handle over [`Histogram`] (no-op when detached).
/// The serving layer records nanoseconds, but values are dimensionless.
#[derive(Clone, Default)]
pub struct HistogramMetric(Option<Arc<Mutex<Histogram>>>);

impl HistogramMetric {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap_or_else(|e| e.into_inner()).record(v);
        }
    }

    /// Start a timer that records elapsed nanoseconds when dropped.
    /// A detached handle returns a timer that never reads the clock.
    #[inline]
    pub fn start(&self) -> Stopwatch {
        Stopwatch(self.0.as_ref().map(|h| (Arc::clone(h), Instant::now())))
    }

    /// Number of recorded observations (0 when detached).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.lock().unwrap_or_else(|e| e.into_inner()).count())
    }

    /// Quantile `q` of the recorded values (0 when detached/empty).
    pub fn percentile(&self, q: f64) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.lock().unwrap_or_else(|e| e.into_inner()).percentile(q))
    }
}

/// Records elapsed nanoseconds into its histogram on drop; see
/// [`HistogramMetric::start`].
pub struct Stopwatch(Option<(Arc<Mutex<Histogram>>, Instant)>);

impl Stopwatch {
    /// Drop the timer without recording anything.
    pub fn discard(mut self) {
        self.0 = None;
    }
}

impl Drop for Stopwatch {
    fn drop(&mut self) {
        if let Some((h, started)) = self.0.take() {
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            h.lock().unwrap_or_else(|e| e.into_inner()).record(ns);
        }
    }
}

// ---- snapshots --------------------------------------------------------

/// One series' captured value.
#[derive(Debug, Clone)]
enum SnapValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct SnapFamily {
    help: String,
    kind: Kind,
    series: BTreeMap<String, SnapValue>,
}

/// A point-in-time copy of a registry's values, mergeable across
/// registries (one per shard) and renderable as a text exposition.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    families: BTreeMap<String, SnapFamily>,
}

impl Snapshot {
    /// Fold another snapshot into this one: counters and gauges add,
    /// histograms bucket-merge. Families present only in `other` are
    /// copied over; a kind mismatch on the same name keeps `self`'s
    /// side (and is a programming error caught in debug builds).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.families {
            let Some(ours) = self.families.get_mut(name) else {
                self.families.insert(name.clone(), theirs.clone());
                continue;
            };
            debug_assert_eq!(ours.kind, theirs.kind, "kind mismatch merging {name}");
            if ours.kind != theirs.kind {
                continue;
            }
            for (labels, value) in &theirs.series {
                match (ours.series.get_mut(labels), value) {
                    (Some(SnapValue::Counter(a)), SnapValue::Counter(b)) => {
                        *a = a.saturating_add(*b)
                    }
                    (Some(SnapValue::Gauge(a)), SnapValue::Gauge(b)) => *a = a.saturating_add(*b),
                    (Some(SnapValue::Histogram(a)), SnapValue::Histogram(b)) => a.merge(b),
                    (None, v) => {
                        ours.series.insert(labels.clone(), v.clone());
                    }
                    _ => debug_assert!(false, "series kind mismatch merging {name}"),
                }
            }
        }
    }

    /// The captured counter value for `(name, labels)`, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            SnapValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The captured gauge value for `(name, labels)`, if present.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            SnapValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The captured histogram for `(name, labels)`, if present.
    pub fn histogram_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            SnapValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Render as a Prometheus-style text exposition: `# HELP` and
    /// `# TYPE` comments per family, one `name{labels} value` line per
    /// series. Histograms render as summaries — `quantile` series for
    /// p50/p95/p99 plus `_sum` and `_count` lines. [`sample`] reads a
    /// value back out.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            out.push_str(&format!("# HELP {name} {}\n", family.help.replace('\n', " ")));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.exposition_name()));
            for (labels, value) in &family.series {
                match value {
                    SnapValue::Counter(v) => {
                        out.push_str(&render_line(name, labels, &[], &v.to_string()))
                    }
                    SnapValue::Gauge(v) => {
                        out.push_str(&render_line(name, labels, &[], &v.to_string()))
                    }
                    SnapValue::Histogram(h) => {
                        for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                            out.push_str(&render_line(
                                name,
                                labels,
                                &[("quantile", qs)],
                                &h.percentile(q).to_string(),
                            ));
                        }
                        let sum_name = format!("{name}_sum");
                        let count_name = format!("{name}_count");
                        let mean = h.mean();
                        let sum = (mean * h.count() as f64).round() as u64;
                        out.push_str(&render_line(&sum_name, labels, &[], &sum.to_string()));
                        out.push_str(&render_line(
                            &count_name,
                            labels,
                            &[],
                            &h.count().to_string(),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Read one value back out of a text exposition rendered by
/// [`Snapshot::render`] — the read half of the format this module
/// writes. Returns the value of the series called `name` whose label
/// set equals `labels` exactly (order does not matter), or `None` when
/// no line matches. A summary's quantiles are addressed with an extra
/// `("quantile", "0.5")` label, its `_sum`/`_count` lines by their
/// suffixed names.
pub fn sample(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut want: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    want.sort_unstable();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let (series_name, mut got) = match series.split_once('{') {
                Some((n, rest)) => (n, parse_labels(rest.strip_suffix('}')?)?),
                None => (series, Vec::new()),
            };
            got.sort_unstable();
            if series_name == name && got == want {
                value.parse().ok()
            } else {
                None
            }
        })
}

/// Parse a rendered label set (`a="x",b="y\"z"`, braces stripped) into
/// unescaped `(key, value)` pairs; `None` on malformed input.
fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let (key, after) = rest.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = after.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    other => value.push(other),
                },
                (_, c) => value.push(c),
            }
        };
        out.push((key.to_string(), value));
        rest = &after[end + 1..];
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
    Some(out)
}

fn render_line(name: &str, labels: &str, extra: &[(&str, &str)], value: &str) -> String {
    let extra_rendered = label_key(extra);
    let all = match (labels.is_empty(), extra_rendered.is_empty()) {
        (true, true) => String::new(),
        (false, true) => labels.to_string(),
        (true, false) => extra_rendered,
        (false, false) => format!("{labels},{extra_rendered}"),
    };
    if all.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{all}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_record_and_render() {
        let reg = Registry::new();
        let c = reg.counter("storypivot_test_total", "things counted");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = reg.gauge_with("storypivot_depth", "queue depth", &[("shard", "0")]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);

        let h = reg.histogram("storypivot_lat_ns", "latency");
        for v in [10u64, 100, 1_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);

        let text = reg.render();
        assert!(text.contains("# TYPE storypivot_test_total counter"));
        assert!(text.contains("storypivot_test_total 5"));
        assert!(text.contains("# TYPE storypivot_depth gauge"));
        assert!(text.contains("storypivot_depth{shard=\"0\"} 5"));
        assert!(text.contains("# TYPE storypivot_lat_ns summary"));
        assert!(text.contains("storypivot_lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("storypivot_lat_ns_count 3"));
    }

    #[test]
    fn same_name_and_labels_share_a_series() {
        let reg = Registry::new();
        let a = reg.counter("storypivot_shared_total", "shared");
        let b = reg.counter("storypivot_shared_total", "shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // Different labels are distinct series.
        let c = reg.counter_with("storypivot_shared_total", "shared", &[("shard", "1")]);
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn disabled_registry_is_a_cheap_noop() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("storypivot_off_total", "off");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = reg.histogram("storypivot_off_ns", "off");
        let t = h.start();
        drop(t);
        h.record(5);
        assert_eq!(h.count(), 0);
        assert_eq!(reg.render(), "");
    }

    #[test]
    fn stopwatch_records_elapsed_and_discard_skips() {
        let reg = Registry::new();
        let h = reg.histogram("storypivot_sw_ns", "stopwatch");
        {
            let _t = h.start();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), 1);
        h.start().discard();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_merge_sums_and_bucket_merges() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("storypivot_m_total", "m").add(3);
        b.counter("storypivot_m_total", "m").add(4);
        a.gauge("storypivot_m_depth", "d").set(2);
        b.gauge("storypivot_m_depth", "d").set(5);
        let ha = a.histogram("storypivot_m_ns", "ns");
        let hb = b.histogram("storypivot_m_ns", "ns");
        let mut combined = Histogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &ha } else { &hb };
            target.record(v * 13 % 2048);
            combined.record(v * 13 % 2048);
        }
        // A family only one side has must survive the merge.
        b.counter("storypivot_only_b_total", "b only").add(9);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter_value("storypivot_m_total", &[]), Some(7));
        assert_eq!(snap.gauge_value("storypivot_m_depth", &[]), Some(7));
        assert_eq!(snap.counter_value("storypivot_only_b_total", &[]), Some(9));
        let merged = snap.histogram_value("storypivot_m_ns", &[]).unwrap();
        assert_eq!(merged.count(), combined.count());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(merged.percentile(q), combined.percentile(q));
        }
    }

    #[test]
    fn sample_inverts_render() {
        let reg = Registry::new();
        reg.counter("storypivot_plain_total", "plain").add(3);
        reg.counter_with("storypivot_lab_total", "lab", &[("shard", "0")])
            .add(5);
        reg.counter_with("storypivot_lab_total", "lab", &[("shard", "1")])
            .add(7);
        reg.gauge("storypivot_level", "level").set(-4);
        reg.gauge_with(
            "storypivot_pair",
            "pair",
            &[("shard", "2"), ("kind", "a\"b,c")],
        )
        .set(9);
        let h = reg.histogram_with("storypivot_lat_ns", "lat", &[("shard", "0")]);
        let u = reg.histogram("storypivot_bare_ns", "bare");
        for v in [10u64, 100, 1_000, 10_000] {
            h.record(v);
            u.record(v);
        }
        let snap = reg.snapshot();
        let text = snap.render();

        assert_eq!(sample(&text, "storypivot_plain_total", &[]), Some(3.0));
        assert_eq!(
            sample(&text, "storypivot_lab_total", &[("shard", "0")]),
            Some(5.0)
        );
        assert_eq!(
            sample(&text, "storypivot_lab_total", &[("shard", "1")]),
            Some(7.0)
        );
        assert_eq!(sample(&text, "storypivot_level", &[]), Some(-4.0));
        // Label order does not matter; escaped values round-trip.
        assert_eq!(
            sample(
                &text,
                "storypivot_pair",
                &[("kind", "a\"b,c"), ("shard", "2")]
            ),
            Some(9.0)
        );
        // Summaries: quantiles carry the series' labels plus `quantile`.
        let hist = snap
            .histogram_value("storypivot_lat_ns", &[("shard", "0")])
            .unwrap();
        for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            assert_eq!(
                sample(
                    &text,
                    "storypivot_lat_ns",
                    &[("quantile", qs), ("shard", "0")]
                ),
                Some(hist.percentile(q) as f64)
            );
            assert_eq!(
                sample(&text, "storypivot_bare_ns", &[("quantile", qs)]),
                Some(hist.percentile(q) as f64)
            );
        }
        assert_eq!(
            sample(&text, "storypivot_lat_ns_count", &[("shard", "0")]),
            Some(4.0)
        );
        assert_eq!(sample(&text, "storypivot_bare_ns_count", &[]), Some(4.0));
        let sum = (hist.mean() * 4.0).round();
        assert_eq!(sample(&text, "storypivot_bare_ns_sum", &[]), Some(sum));

        // A label set must match exactly, and a name is never a prefix.
        assert_eq!(sample(&text, "storypivot_lab_total", &[]), None);
        assert_eq!(
            sample(&text, "storypivot_lab_total", &[("shard", "9")]),
            None
        );
        assert_eq!(sample(&text, "storypivot_plain", &[]), None);
        assert_eq!(sample(&text, "storypivot_lat_ns", &[("shard", "0")]), None);
        assert_eq!(sample("", "storypivot_plain_total", &[]), None);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("storypivot_esc_total", "esc", &[("path", "a\"b\\c\nd")])
            .inc();
        let text = reg.render();
        assert!(text.contains("storypivot_esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
