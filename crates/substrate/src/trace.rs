//! A fixed-capacity ring buffer of recent engine events.
//!
//! When a shard worker panics, supervision rebuilds the shard from its
//! checkpoint and journal — which repairs the state but destroys the
//! evidence: the sequence of operations that led up to the poison op is
//! gone. [`TraceRing`] keeps that evidence cheaply. Each shard owns one
//! ring (single-threaded, no locking), pushes one fixed-size record per
//! engine event (ingest, checkpoint, restart…), and the supervisor
//! dumps the ring — newest events last — before rebuilding, turning a
//! silent two-strike quarantine into a diagnosable artifact.
//!
//! A record is a sequence number, a static label and one `u64` value
//! (an op fingerprint, a generation, a document id), so pushing never
//! allocates or formats; text is produced only by [`TraceRing::render`].
//!
//! The ring is bounded: pushing beyond capacity evicts the oldest
//! event, and a monotonically increasing sequence number makes the
//! eviction visible in the dump (`seq` gaps at the top mean history was
//! truncated).

use std::collections::VecDeque;

/// A bounded ring of `(seq, label, value)` events; see the module docs.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<(u64, &'static str, u64)>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            capacity,
            next_seq: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// Append one event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn push(&mut self, label: &'static str, value: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back((seq, label, value));
        seq
    }

    /// Render the retained events as one line each, oldest first:
    /// `#<seq> <label> <value in hex>`. A truncation header records how
    /// many older events were evicted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let evicted = self.next_seq - self.events.len() as u64;
        if evicted > 0 {
            out.push_str(&format!("... {evicted} earlier events evicted ...\n"));
        }
        for (seq, label, value) in &self.events {
            out.push_str(&format!("#{seq:06} {label} {value:#x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_retains_in_order_up_to_capacity() {
        let mut ring = TraceRing::new(3);
        assert_eq!(ring.render(), "");
        for i in 0..3u64 {
            assert_eq!(ring.push("ev", i), i);
        }
        assert_eq!(ring.render(), "#000000 ev 0x0\n#000001 ev 0x1\n#000002 ev 0x2\n");
    }

    #[test]
    fn overflow_evicts_oldest_and_keeps_sequence() {
        let mut ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.push("ev", i);
        }
        assert_eq!(
            ring.render(),
            "... 3 earlier events evicted ...\n#000003 ev 0x3\n#000004 ev 0x4\n"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = TraceRing::new(0);
        ring.push("a", 0);
        assert_eq!(ring.push("b", 0xbeef), 1);
        assert_eq!(ring.render(), "... 1 earlier events evicted ...\n#000001 b 0xbeef\n");
    }
}
