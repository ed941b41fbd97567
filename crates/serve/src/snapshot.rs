//! Epoch-versioned, immutable per-shard read snapshots.
//!
//! Every QUERY_STORIES and GET_STORY used to ride the same bounded
//! MPSC queue as ingest, so a read flash-crowd competed with writes
//! for shard-worker time. Instead, each shard worker now periodically
//! publishes a [`ShardSnapshot`] — an immutable, id-sorted copy of its
//! story partition — into a [`SnapshotSlot`]. Publication is an `Arc`
//! swap behind a readers–writer lock held for nanoseconds: readers
//! clone the `Arc` and release the lock, so queries never block the
//! writer and the writer never blocks queries. I/O workers answer
//! reads directly from the slots on the connection's own thread,
//! bypassing the shard queues entirely.
//!
//! Freshness is a policy, not an accident: the worker republishes
//! after every `snapshot_every_ops` applied mutations or whenever the
//! current snapshot is older than `snapshot_max_age_ms`, whichever
//! trips first (see [`crate::server::ServerConfig`]). The default of
//! one op per epoch preserves read-your-writes exactly: a client that
//! saw its ingest acked is guaranteed the next query reflects it,
//! because the worker publishes before it replies.

use std::sync::{Arc, PoisonError, RwLock};

use crate::proto::StorySummary;
use storypivot_types::StoryId;

/// An immutable snapshot of one shard's story partition.
#[derive(Debug, Default)]
pub struct ShardSnapshot {
    /// Publication sequence number: bumped on every publish, starting
    /// at 1 for the post-recovery snapshot (epoch 0 is the empty
    /// pre-recovery placeholder).
    pub epoch: u64,
    /// Every story on the shard, sorted by story id; member lists are
    /// sorted too (the engine's partition order).
    pub stories: Vec<StorySummary>,
}

impl ShardSnapshot {
    /// Look up one story by id (binary search over the sorted vec).
    pub fn get(&self, id: StoryId) -> Option<&StorySummary> {
        self.stories
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &self.stories[i])
    }
}

/// A cloneable slot holding a shard's newest published snapshot.
///
/// The shard worker is the only publisher; I/O workers (and tests) are
/// the readers. Swap-on-publish means a reader that loaded the old
/// `Arc` keeps a consistent view for as long as it likes without
/// holding any lock.
///
/// Lock poisoning is ignored: the guarded value is a single `Arc`, so
/// a thread that panics while holding the lock cannot leave it half
/// written, and a shard worker that dies mid-publish must not wedge
/// the I/O workers that answer reads from the slot.
#[derive(Clone, Debug, Default)]
pub struct SnapshotSlot {
    inner: Arc<RwLock<Arc<ShardSnapshot>>>,
}

impl SnapshotSlot {
    /// An empty epoch-0 slot (what readers see before recovery ends).
    pub fn new() -> SnapshotSlot {
        SnapshotSlot::default()
    }

    /// Swap in a freshly built snapshot.
    pub fn publish(&self, snap: Arc<ShardSnapshot>) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = snap;
    }

    /// Clone out the current snapshot; the lock is held only for the
    /// `Arc` clone.
    pub fn load(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{SnippetId, SourceId, TimeRange, Timestamp};

    fn summary(id: u32) -> StorySummary {
        StorySummary {
            id: StoryId::new(id),
            source: SourceId::new(1),
            lifespan: TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(1)),
            members: vec![SnippetId::new(id)],
        }
    }

    #[test]
    fn get_binary_searches_the_sorted_stories() {
        let snap = ShardSnapshot {
            epoch: 1,
            stories: vec![summary(2), summary(5), summary(9)],
        };
        assert_eq!(snap.get(StoryId::new(5)).unwrap().id, StoryId::new(5));
        assert!(snap.get(StoryId::new(4)).is_none());
        assert!(ShardSnapshot::default().get(StoryId::new(0)).is_none());
    }

    #[test]
    fn publish_swaps_for_every_clone_and_old_readers_keep_their_view() {
        let slot = SnapshotSlot::new();
        let reader = slot.clone();
        assert_eq!(reader.load().epoch, 0);
        let old = reader.load();
        slot.publish(Arc::new(ShardSnapshot {
            epoch: 1,
            stories: vec![summary(3)],
        }));
        // The clone sees the new epoch; the Arc loaded earlier still
        // reads the old, consistent view.
        assert_eq!(reader.load().epoch, 1);
        assert_eq!(old.epoch, 0);
        assert!(old.stories.is_empty());
    }

    #[test]
    fn survives_a_poisoning_panic() {
        let slot = SnapshotSlot::new();
        let writer = slot.clone();
        let result = std::thread::spawn(move || {
            let _guard = writer.inner.write().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(result.is_err());
        assert!(slot.inner.is_poisoned());
        // Readers and the publisher carry on regardless.
        assert_eq!(slot.load().epoch, 0);
        slot.publish(Arc::new(ShardSnapshot { epoch: 1, stories: vec![summary(1)] }));
        assert_eq!(slot.load().epoch, 1);
    }

    #[test]
    fn concurrent_readers_see_only_published_epochs_in_order() {
        let slot = SnapshotSlot::new();
        let publishes = 2_000u64;
        std::thread::scope(|scope| {
            let writer = slot.clone();
            scope.spawn(move || {
                for epoch in 1..=publishes {
                    let stories = vec![summary(epoch as u32)];
                    writer.publish(Arc::new(ShardSnapshot { epoch, stories }));
                }
            });
            for _ in 0..4 {
                let reader = slot.clone();
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..500 {
                        let snap = reader.load();
                        // Epochs never go backwards, and every snapshot
                        // is whole: its one story matches its epoch.
                        assert!(snap.epoch >= last);
                        last = snap.epoch;
                        if snap.epoch > 0 {
                            assert_eq!(snap.stories[0].id, StoryId::new(snap.epoch as u32));
                        }
                    }
                });
            }
        });
        assert_eq!(slot.load().epoch, publishes);
    }
}
