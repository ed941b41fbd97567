//! Durability integration: checkpoint generations and the operation
//! journal working together across a simulated restart.

use storypivot::core::checkpoint;
use storypivot::core::config::PivotConfig;
use storypivot::core::oplog::{replay_op, ReplayOp};
use storypivot::core::pipeline::{DynamicPivot, PipelinePolicy};
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::substrate::prop;
use storypivot::substrate::rng::RngExt;
use storypivot::substrate::wal::{self, SyncPolicy, Wal};
use storypivot::types::DAY;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("storypivot-persist-{name}-{}", std::process::id()));
    p
}

fn corpus(target: usize, seed: u64) -> storypivot::gen::Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_sources(4)
            .with_seed(seed)
            .with_target_snippets(target),
    )
    .build()
}

/// The global partition as sorted member-id lists, for comparing engines.
fn partition(p: &StoryPivot) -> Vec<Vec<u32>> {
    let mut v: Vec<Vec<u32>> = p
        .global_stories()
        .iter()
        .map(|g| {
            let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
            m.sort_unstable();
            m
        })
        .collect();
    v.sort();
    v
}

/// The deployment pattern `pivotd` runs per shard: a checkpoint
/// generation plus the journal of ops applied after it reconstruct the
/// live engine exactly.
#[test]
fn snapshot_plus_wal_reconstructs_the_store() {
    let c = corpus(300, 71);
    let ckpt_dir = tmp("ckpt");
    let wal_path = tmp("wal");
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_file(&wal_path).ok();

    // Live engine: first half checkpointed, second half journaled.
    let mut live = StoryPivot::new(PivotConfig::default());
    let (mut wal, _) = Wal::open(&wal_path, SyncPolicy::Never).unwrap();
    for s in &c.sources {
        live.add_source_registered(s.clone()).unwrap();
    }
    let half = c.len() / 2;
    for s in &c.snippets[..half] {
        live.ingest(s.clone()).unwrap();
    }
    checkpoint::write_generation(&ckpt_dir, 0, 1, &live.save_checkpoint()).unwrap();
    for s in &c.snippets[half..] {
        live.ingest(s.clone()).unwrap();
        wal.append(&ReplayOp::Ingest(s.clone()).to_bytes()).unwrap();
    }
    // Also delete something the checkpoint holds.
    let victim = c.snippets[0].doc;
    live.remove_document(victim).unwrap();
    wal.append(&ReplayOp::RemoveDoc(victim).to_bytes()).unwrap();
    wal.sync().unwrap();
    drop(wal);

    // "Restart": newest checkpoint generation + journal replay.
    let (pivot, generation) =
        checkpoint::load_newest(&ckpt_dir, 0, PivotConfig::default()).unwrap().unwrap();
    assert_eq!(generation, 1);
    let mut restored = DynamicPivot::from_pivot(
        pivot,
        PipelinePolicy {
            align_every: 0,
            ..PipelinePolicy::default()
        },
    );
    let journal = wal::scan(&wal_path).unwrap();
    assert!(!journal.damaged());
    for payload in &journal.records {
        assert!(replay_op(&mut restored, &ReplayOp::decode(payload).unwrap()).unwrap());
    }
    let restored = restored.pivot_mut();
    assert_eq!(restored.store().len(), live.store().len());
    assert_eq!(restored.store().stats(), live.store().stats());
    for s in live.store().iter() {
        assert_eq!(restored.store().get(s.id), Some(s));
    }
    live.align();
    restored.align();
    assert_eq!(partition(restored), partition(&live));

    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_file(&wal_path).ok();
}

/// Full engine restart via checkpoint: identified state carries over and
/// continued ingestion converges with the never-restarted engine.
#[test]
fn checkpoint_restart_converges_with_uninterrupted_run() {
    let c = corpus(400, 72);
    let half = c.len() / 2;

    // Uninterrupted reference.
    let mut reference = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        reference.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        reference.ingest(s.clone()).unwrap();
    }
    reference.align();

    // Interrupted run: ingest half, checkpoint, "restart", finish.
    let mut first = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        first.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets[..half] {
        first.ingest(s.clone()).unwrap();
    }
    let bytes = first.save_checkpoint();
    drop(first);

    let mut resumed =
        StoryPivot::load_checkpoint(PivotConfig::temporal(14 * DAY), &bytes).unwrap();
    for s in &c.snippets[half..] {
        resumed.ingest(s.clone()).unwrap();
    }
    resumed.align();
    resumed.check_invariants().unwrap();

    // Same number of snippets; identical global partitions.
    assert_eq!(resumed.store().len(), reference.store().len());
    assert_eq!(partition(&resumed), partition(&reference));
}

#[test]
fn checkpoints_round_trip_arbitrary_engine_states() {
    prop::run(12, |rng| {
        let seed: u64 = rng.random();
        let target = rng.random_range(50usize..250);
        let removals = rng.random_range(0usize..10);

        let c = corpus(target, seed);
        let mut pivot = StoryPivot::new(PivotConfig::default());
        for s in &c.sources {
            pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
        }
        for s in &c.snippets {
            pivot.ingest(s.clone()).unwrap();
        }
        // Random-ish mutations before checkpointing.
        for i in 0..removals.min(c.len()) {
            let id = c.snippets[i * 7 % c.len()].id;
            let _ = pivot.remove_snippet(id);
        }
        pivot.align();

        let bytes = pivot.save_checkpoint();
        let restored = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap();
        assert_eq!(restored.store().len(), pivot.store().len());
        assert_eq!(restored.story_count(), pivot.story_count());
        for sn in pivot.store().iter() {
            assert_eq!(restored.story_of(sn.id), pivot.story_of(sn.id));
        }
        restored.check_invariants().unwrap();
    });
}
