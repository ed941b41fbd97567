//! In-memory spans for the traced replay, and self time per layer.
//!
//! A span is one call into a layer's public API: name, start, end, the
//! span that caused it and the op it belongs to. Spans are appended to
//! a vector while the replay runs and only read afterwards. A disabled
//! tracer never reads the clock, so the same replay code gives the
//! untraced baseline the overhead is measured against.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `wal.append`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The op this call served (`u32::MAX` for drain-time work).
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span; pass it to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Records spans when enabled; does nothing (and reads no clock) when
/// disabled.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u32) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`]; spans close innermost
    /// first.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let end = self.now();
            self.spans[idx as usize].end = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Calls recorded.
    pub calls: u64,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Sum of self time: duration minus the time covered by direct
    /// children (ns).
    pub self_ns: u64,
    /// Longest single call (ns).
    pub max_ns: u64,
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.dur();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Aggregate spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur();
        e.self_ns += own;
        e.max_ns = e.max_ns.max(s.dur());
    }
    out
}

/// Write spans as tab-separated text: `op name start end parent`.
pub fn render(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 40);
    out.push_str("op\tname\tstart_ns\tend_ns\tparent\n");
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        let op = if s.op == u32::MAX { -1 } else { s.op as i64 };
        out.push_str(&format!(
            "{op}\t{}\t{}\t{}\t{parent}\n",
            s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) ─ a [10,40) ─ a.inner [15,25)
        //              └ b [50,90)
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            span("b", 50, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let layers = by_layer(&spans);
        assert_eq!(layers["root"].self_ns, 30);
        assert_eq!(layers["a"].total_ns, 30);
        assert_eq!(layers["a"].self_ns, 20);
        // Self times partition the root's wall time.
        let covered: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn repeated_names_aggregate() {
        let spans = [
            span("op", 0, 10, ROOT),
            span("wal.append", 1, 4, 0),
            span("op", 10, 30, ROOT),
            span("wal.append", 12, 20, 2),
        ];
        let layers = by_layer(&spans);
        assert_eq!(layers["wal.append"].calls, 2);
        assert_eq!(layers["wal.append"].total_ns, 11);
        assert_eq!(layers["wal.append"].max_ns, 8);
        assert_eq!(layers["op"].self_ns, 7 + 12);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, || ());
        let outer = t.enter("outer", 8);
        t.span("inner", 8, || std::hint::black_box(1 + 1));
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[2].op, 8);
        assert!(s[1].start <= s[2].start && s[2].end <= s[1].end);
        assert!(render(s).lines().count() == 4);

        let mut off = Tracer::new(false);
        let o = off.enter("x", 0);
        off.exit(o);
        assert_eq!(off.span("y", 0, || 3), 3);
        assert!(off.spans().is_empty());
    }
}
