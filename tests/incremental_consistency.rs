//! Consistency of the incremental machinery: incremental alignment vs
//! full alignment, source onboarding, and snapshot persistence.

use std::collections::HashSet;

use storypivot::core::config::PivotConfig;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::prelude::*;
use storypivot::types::DAY;

fn corpus(target: usize, sources: u32, seed: u64) -> storypivot::gen::Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_sources(sources)
            .with_seed(seed)
            .with_target_snippets(target),
    )
    .build()
}

fn partition(pivot: &StoryPivot) -> Vec<Vec<u32>> {
    let mut p: Vec<Vec<u32>> = pivot
        .global_stories()
        .iter()
        .map(|g| {
            let mut m: Vec<u32> = g.members.iter().map(|&(id, _)| id.raw()).collect();
            m.sort_unstable();
            m
        })
        .collect();
    p.sort();
    p
}

#[test]
fn incremental_alignment_equals_full_alignment() {
    let c = corpus(900, 6, 50);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    // Ingest in three waves, aligning incrementally after each.
    let waves = c.snippets.chunks(c.len() / 3 + 1);
    for wave in waves {
        for s in wave {
            pivot.ingest(s.clone()).unwrap();
        }
        pivot.align_incremental();
    }
    let incremental = partition(&pivot);
    // A final full pass from the same state must agree.
    pivot.align();
    assert_eq!(incremental, partition(&pivot));
}

#[test]
fn onboarding_a_source_incrementally_matches_full_realignment() {
    let c = corpus(900, 8, 51);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        if s.source.raw() < 6 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    pivot.align();
    for s in &c.snippets {
        if s.source.raw() >= 6 {
            pivot.ingest(s.clone()).unwrap();
        }
    }
    let mut full = pivot.clone();
    pivot.align_incremental();
    full.align();
    assert_eq!(partition(&pivot), partition(&full));
    // Incremental pass reuses prior decisions: fewer pairs scored.
    assert!(
        pivot.alignment().unwrap().pairs_scored < full.alignment().unwrap().pairs_scored,
        "incremental {} vs full {}",
        pivot.alignment().unwrap().pairs_scored,
        full.alignment().unwrap().pairs_scored
    );
}

#[test]
fn store_snapshot_round_trips_and_rebuilds_identically() {
    let c = corpus(400, 4, 52);
    let mut pivot = StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();

    // Persist the engine, reload, rebuild a pivot from its store.
    let bytes = pivot.save_checkpoint();
    let restored = StoryPivot::load_checkpoint(PivotConfig::default(), &bytes).unwrap();
    let loaded = restored.store();

    assert_eq!(loaded.len(), pivot.store().len());
    assert_eq!(loaded.stats(), pivot.store().stats());

    // Re-identify from the loaded store: same inputs → same partition.
    let mut rebuilt = StoryPivot::new(PivotConfig::default());
    for s in loaded.sources() {
        rebuilt.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    let mut snippets: Vec<Snippet> = loaded.iter().cloned().collect();
    snippets.sort_by_key(|s| s.id); // original delivery order = id order
    for s in snippets {
        rebuilt.ingest(s).unwrap();
    }
    rebuilt.align();
    assert_eq!(partition(&rebuilt), partition(&pivot));
}

#[test]
fn document_remove_then_readd_converges() {
    let c = corpus(500, 4, 53);
    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();
    let stories_before = pivot.story_count();
    let store_before = pivot.store().len();

    // Remove 10 documents then re-add their snippets.
    let docs: Vec<DocId> = (0..10u32).map(DocId::new).collect();
    let mut removed_snippets = Vec::new();
    for &d in &docs {
        let ids: HashSet<SnippetId> = pivot.store().snippets_of_doc(d).into_iter().collect();
        for &s in &ids {
            removed_snippets.push(pivot.store().get(s).unwrap().clone());
        }
        pivot.remove_document(d).unwrap();
    }
    pivot.align_incremental();
    assert_eq!(pivot.store().len(), store_before - removed_snippets.len());

    for s in removed_snippets {
        pivot.ingest(s).unwrap();
    }
    pivot.align_incremental();
    assert_eq!(pivot.store().len(), store_before);
    // Story structure converges to a similar size (exact equality is not
    // guaranteed — identification is order-dependent — but the count
    // must be in the same ballpark).
    let diff = (pivot.story_count() as i64 - stories_before as i64).abs();
    assert!(diff <= stories_before as i64 / 5, "story count drifted: {stories_before} -> {}", pivot.story_count());
}

#[test]
fn dirty_tracking_is_conservative() {
    let c = corpus(300, 3, 54);
    let mut pivot = StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    assert!(pivot.dirty_count() > 0);
    pivot.align();
    assert_eq!(pivot.dirty_count(), 0);
    // Incremental alignment with nothing dirty is a no-op on results.
    let p1 = partition(&pivot);
    pivot.align_incremental();
    assert_eq!(p1, partition(&pivot));
}
