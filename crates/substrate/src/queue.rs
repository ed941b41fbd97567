//! A bounded multi-producer multi-consumer queue.
//!
//! `std::sync::mpsc::sync_channel` is bounded but hides the current
//! queue depth and has no close-and-drain semantics, both of which the
//! serving layer needs: depth feeds the METRICS gauges, and close lets a
//! shard worker drain outstanding work before exiting. This is the
//! narrow slice of `crossbeam-channel` the workspace actually uses,
//! built on [`Mutex`] + [`Condvar`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity (non-blocking push only); the value is
    /// handed back so the caller can retry or reject upstream.
    Full(T),
    /// The queue was closed; no further values will ever be accepted.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A cloneable handle to a bounded FIFO queue. All clones share the
/// same queue; any handle may push, pop, or close.
pub struct Bounded<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Bounded<T> {
    fn clone(&self) -> Self {
        Bounded {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded")
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Bounded<T> {
    /// A queue holding at most `capacity` items (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a bounded queue needs capacity >= 1");
        Bounded {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                }),
                capacity,
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // Poisoning only matters if a holder panicked mid-mutation;
        // every critical section here is a few field accesses.
        match self.inner.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Push without blocking. Returns the value on a full or closed
    /// queue — the backpressure signal the server turns into BUSY.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(value));
        }
        if state.items.len() >= self.inner.capacity {
            return Err(PushError::Full(value));
        }
        state.items.push_back(value);
        drop(state);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Push, blocking while the queue is full. Returns the value back
    /// when the queue is (or becomes) closed.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(value);
            }
            if state.items.len() < self.inner.capacity {
                state.items.push_back(value);
                drop(state);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            state = match self.inner.not_full.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Pop, blocking while the queue is empty. Returns `None` only once
    /// the queue is closed **and** drained — a worker loop of
    /// `while let Some(job) = q.pop()` therefore processes every job
    /// accepted before the close.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(v) = state.items.pop_front() {
                drop(state);
                self.inner.not_full.notify_one();
                return Some(v);
            }
            if state.closed {
                return None;
            }
            state = match self.inner.not_empty.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Pop without blocking (`None` when empty, closed or not).
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.lock();
        let v = state.items.pop_front();
        drop(state);
        if v.is_some() {
            self.inner.not_full.notify_one();
        }
        v
    }

    /// Current number of queued items (a gauge; racy by nature).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Close the queue: future pushes fail, queued items remain
    /// poppable, and blocked poppers wake up once drained.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Whether [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_and_capacity() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Bounded::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.push("d"), Err("d"));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = Bounded::new(1);
        q.try_push(0u32).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push(1).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q: Bounded<u8> = Bounded::new(1);
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Bounded::new(8);
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    q.push(p * 1000 + i).unwrap();
                }
            }));
        }
        let mut got = Vec::new();
        for _ in 0..400 {
            got.push(q.pop().unwrap());
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 400, "every pushed item arrives exactly once");
    }
}
