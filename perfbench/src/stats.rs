//! Order statistics over exact samples.
//!
//! Latencies are kept as raw nanosecond samples (not bucketed), so a
//! percentile is an observed value with all its digits. The tail
//! percentile a sample supports follows the rule that at least ten
//! samples must lie beyond it: p99 needs about 1,000 samples.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as measured.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The percentiles a tail is reported at, highest first.
const TAILS: [f64; 5] = [0.99, 0.98, 0.95, 0.90, 0.75];

/// The highest of [`TAILS`] that `n` samples support (p50 when none
/// does): the tail percentile reported for a sample of `n`.
pub fn tail_q(n: usize) -> f64 {
    TAILS.into_iter().find(|&q| supports(n, q)).unwrap_or(0.5)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency sample set: raw nanoseconds, sorted on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Record one observation in nanoseconds.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Fold another set in.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q` percentile in microseconds (`None` when empty).
    pub fn percentile_us(&mut self, q: f64) -> Option<f64> {
        self.sort();
        percentile(&self.ns, q).map(|ns| ns as f64 / 1e3)
    }
}

/// Percentiles per window: `(due, value)` samples are split into
/// `windows` equal spans of due time covering every sample, and each
/// non-empty window's nearest-rank percentile `q(window size)` is
/// returned (values divided by 1,000: ns in, µs out). The median of
/// these is steadier than one percentile over the whole run, because
/// one long stall or one burst of outside load moves a single window
/// only.
pub fn windowed(samples: &[(u64, u64)], windows: usize, q: impl Fn(usize) -> f64) -> Vec<f64> {
    let Some(last) = samples.iter().map(|&(at, _)| at).max() else {
        return Vec::new();
    };
    let windows = windows.max(1);
    let span = last / windows as u64 + 1;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for &(at, v) in samples {
        per[((at / span) as usize).min(windows - 1)].push(v);
    }
    per.into_iter()
        .filter(|w| !w.is_empty())
        .map(|mut w| {
            w.sort_unstable();
            percentile(&w, q(w.len())).expect("non-empty window") as f64 / 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selects_observed_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Ranks round up: 0.5 of 3 samples is the 2nd.
        assert_eq!(percentile(&[1, 2, 3], 0.5), Some(2));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(200, 0.95));
        assert!(!supports(199, 0.95));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn windows_split_by_due_time() {
        // Ten samples over due times 0..=9; two windows of five.
        let samples: Vec<(u64, u64)> = (0..10).map(|i| (i, (i + 1) * 1_000)).collect();
        assert_eq!(windowed(&samples, 2, |_| 1.0), vec![5.0, 10.0]);
        assert_eq!(windowed(&samples, 2, |_| 0.0), vec![1.0, 6.0]);
        assert_eq!(windowed(&samples, 1, |_| 0.5), vec![5.0]);
        // A stall confined to one window moves only that window.
        let mut stalled = samples.clone();
        stalled[9].1 = 1_000_000;
        let w = windowed(&stalled, 5, |_| 1.0);
        assert_eq!(w.len(), 5);
        assert_eq!(median(&w), 6.0);
        // Empty windows are skipped; no samples, no windows.
        assert_eq!(
            windowed(&[(0, 1_000), (90, 2_000)], 10, |_| 0.5),
            vec![1.0, 2.0]
        );
        assert!(windowed(&[], 3, |_| 0.5).is_empty());
        // The tail rule picks each window's percentile from its size.
        let big: Vec<(u64, u64)> = (0..2_000).map(|i| (i, i * 1_000)).collect();
        assert_eq!(windowed(&big, 2, tail_q), vec![989.0, 1_989.0]);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(tail_q(1_000), 0.99);
        assert_eq!(tail_q(999), 0.98);
        assert_eq!(tail_q(500), 0.98);
        assert_eq!(tail_q(499), 0.95);
        assert_eq!(tail_q(200), 0.95);
        assert_eq!(tail_q(125), 0.90);
        assert_eq!(tail_q(40), 0.75);
        assert_eq!(tail_q(5), 0.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::default();
        for ns in [3_000u64, 1_000, 2_000] {
            s.push(ns);
        }
        assert_eq!(s.percentile_us(0.5), Some(2.0));
        let mut t = Samples::default();
        t.push(10_000);
        s.extend(&t);
        assert_eq!(s.percentile_us(1.0), Some(10.0));
        assert_eq!(s.len(), 4);
    }
}
