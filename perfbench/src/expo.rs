//! Parser for the text exposition `pivotd` serves over METRICS.
//!
//! Only what the benchmark reads is kept: one value per series, keyed
//! by metric name and label set. Summary quantile series carry a
//! `quantile` label and are kept apart from the `_sum`/`_count` series,
//! which are the ones that can be subtracted across two scrapes.

use std::collections::BTreeMap;

/// One series: its labels (sorted by key) and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// `(key, value)` label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A parsed exposition: metric name → every series of that name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    metrics: BTreeMap<String, Vec<Series>>,
}

impl Exposition {
    /// Parse exposition text. Comment lines are skipped; any other line
    /// that is not `name[{labels}] value` is an error.
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut metrics: BTreeMap<String, Vec<Series>> = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("exposition line {}: cannot parse {line:?}", n + 1);
            let (series, value) = line.rsplit_once(' ').ok_or_else(bad)?;
            let value: f64 = value.parse().map_err(|_| bad())?;
            let (name, labels) = match series.split_once('{') {
                None => (series, Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').ok_or_else(bad)?;
                    (name, parse_labels(body).ok_or_else(bad)?)
                }
            };
            metrics
                .entry(name.to_string())
                .or_default()
                .push(Series { labels, value });
        }
        Ok(Exposition { metrics })
    }

    /// Every series of `name` (empty when absent).
    pub fn series(&self, name: &str) -> &[Series] {
        self.metrics.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of `name` over all its non-quantile series (0 when absent):
    /// the cross-shard total of a counter, gauge or summary `_sum`.
    pub fn total(&self, name: &str) -> f64 {
        self.series(name)
            .iter()
            .filter(|s| !s.labels.iter().any(|(k, _)| k == "quantile"))
            .map(|s| s.value)
            .sum()
    }

    /// The largest `quantile="q"` value of `name` across label sets
    /// (per-shard summaries cannot be merged from quantiles; the worst
    /// shard is the conservative reading).
    pub fn max_quantile(&self, name: &str, q: &str) -> Option<f64> {
        self.series(name)
            .iter()
            .filter(|s| s.labels.iter().any(|(k, v)| k == "quantile" && v == q))
            .map(|s| s.value)
            .reduce(f64::max)
    }

    /// `after.total(name) - self.total(name)`.
    pub fn delta(&self, after: &Exposition, name: &str) -> f64 {
        after.total(name) - self.total(name)
    }
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let (key, tail) = rest.split_once("=\"")?;
        // Values are escaped Prometheus-style; a closing quote is one not
        // preceded by a backslash.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in tail.char_indices() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => {
                    end = Some(i);
                    break;
                }
                _ => escaped = false,
            }
        }
        let end = end?;
        let value = tail[..end].replace("\\\"", "\"").replace("\\\\", "\\");
        out.push((key.trim().to_string(), value));
        rest = tail[end + 1..].trim_start_matches(',');
    }
    out.sort();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPTURED: &str = include_str!("../testdata/metrics.txt");

    #[test]
    fn captured_exposition_parses() {
        let e = Exposition::parse(CAPTURED).expect("captured exposition parses");
        assert_eq!(e.total("storypivot_ingest_total"), 6365.0);
        // Per-shard counters sum across shards.
        assert_eq!(
            e.total("storypivot_wal_appended_bytes_total"),
            543138.0 + 557145.0
        );
        assert_eq!(e.total("storypivot_shard_snapshot_epoch"), 3144.0 + 3231.0);
        // Summary `_count`/`_sum` series are their own names.
        assert_eq!(
            e.total("storypivot_shard_ingest_latency_ns_count"),
            3139.0 + 3226.0
        );
        assert_eq!(e.total("storypivot_wal_sync_duration_ns_count"), 99.0);
        // Quantile series never leak into totals.
        assert_eq!(e.total("storypivot_align_duration_ns"), 0.0);
        assert_eq!(
            e.max_quantile("storypivot_align_duration_ns", "0.5"),
            Some(4194304.0)
        );
        assert_eq!(
            e.max_quantile("storypivot_shard_ingest_latency_ns", "0.5"),
            Some(155648.0)
        );
        assert_eq!(e.total("storypivot_missing_total"), 0.0);
    }

    #[test]
    fn deltas_subtract_totals() {
        let before = Exposition::parse("a_total 5\nb{shard=\"0\"} 1\nb{shard=\"1\"} 2\n").unwrap();
        let after = Exposition::parse("a_total 9\nb{shard=\"0\"} 4\nb{shard=\"1\"} 2\n").unwrap();
        assert_eq!(before.delta(&after, "a_total"), 4.0);
        assert_eq!(before.delta(&after, "b"), 3.0);
    }

    #[test]
    fn labels_with_escapes_and_malformed_lines() {
        let e = Exposition::parse("m{a=\"x\\\"y\",b=\"z\"} 1.5\n").unwrap();
        let s = &e.series("m")[0];
        assert_eq!(
            s.labels,
            vec![("a".into(), "x\"y".into()), ("b".into(), "z".into())]
        );
        assert_eq!(s.value, 1.5);
        assert!(Exposition::parse("m{a=\"x\" 1").is_err());
        assert!(Exposition::parse("m notanumber").is_err());
        assert!(Exposition::parse("justaname").is_err());
    }
}
