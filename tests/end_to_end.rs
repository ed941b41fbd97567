//! End-to-end integration: generator → pivot → metrics, across crates.

use storypivot::core::config::PivotConfig;
use storypivot::eval::run::{run, RunOptions};
use storypivot::gen::{CorpusBuilder, GenConfig};
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

#[test]
fn temporal_pipeline_reaches_quality_floor() {
    let c = corpus(1_500, 8, 42);
    let r = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
    assert!(r.si_f1() > 0.8, "SI F1 {}", r.si_f1());
    assert!(r.sa_f1() > 0.8, "SA F1 {}", r.sa_f1());
    assert!(r.global_stories <= r.stories);
    assert!(r.global_stories >= c.truth.story_count() / 3);
}

#[test]
fn complete_mode_costs_more_comparisons_than_temporal() {
    let c = corpus(1_000, 6, 43);
    let t = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
    let f = run(&c, PivotConfig::complete(), RunOptions::default());
    assert!(
        f.comparisons > 2 * t.comparisons,
        "complete {} vs temporal {}",
        f.comparisons,
        t.comparisons
    );
}

#[test]
fn refinement_does_not_hurt_and_usually_helps() {
    let c = corpus(1_200, 8, 44);
    let base = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
    let refined = run(
        &c,
        PivotConfig::temporal(14 * DAY),
        RunOptions {
            refine: true,
            ..RunOptions::default()
        },
    );
    assert!(
        refined.sa_f1() >= base.sa_f1() - 0.02,
        "refine must not collapse quality: {} -> {}",
        base.sa_f1(),
        refined.sa_f1()
    );
}

#[test]
fn every_snippet_lands_in_exactly_one_global_story() {
    let c = corpus(800, 5, 45);
    let mut pivot = storypivot::prelude::StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();

    let mut seen = std::collections::HashSet::new();
    for g in pivot.global_stories() {
        for &(m, _) in &g.members {
            assert!(seen.insert(m), "snippet {m} appears in two global stories");
        }
    }
    assert_eq!(seen.len(), c.len(), "every snippet is covered");

    // Per-source stories partition snippets too.
    let mut story_members = std::collections::HashSet::new();
    for src in &c.sources {
        for st in pivot.stories_of_source(src.id) {
            assert_eq!(st.source(), src.id);
            for &m in &st.story.members {
                assert!(story_members.insert(m));
            }
        }
    }
    assert_eq!(story_members.len(), c.len());
}

#[test]
fn sketch_alignment_quality_close_to_exact() {
    let c = corpus(1_000, 10, 46);
    let exact = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
    let mut cfg = PivotConfig::temporal(14 * DAY);
    cfg.align.use_sketches = true;
    let sketched = run(&c, cfg, RunOptions::default());
    assert!(
        (exact.sa_f1() - sketched.sa_f1()).abs() < 0.1,
        "sketch F1 {} vs exact {}",
        sketched.sa_f1(),
        exact.sa_f1()
    );
}

#[test]
fn out_of_order_delivery_degrades_gracefully() {
    let c = corpus(1_000, 8, 47);
    assert!(c.inversion_fraction() > 0.0, "stream should be out of order");
    let delivery = run(&c, PivotConfig::temporal(14 * DAY), RunOptions::default());
    let sorted = run(
        &c,
        PivotConfig::temporal(14 * DAY),
        RunOptions {
            delivery_order: false,
            ..RunOptions::default()
        },
    );
    assert!(
        delivery.si_f1() > sorted.si_f1() - 0.1,
        "out-of-order {} vs in-order {}",
        delivery.si_f1(),
        sorted.si_f1()
    );
}

#[test]
fn removing_a_source_removes_its_stories_and_keeps_the_rest() {
    let c = corpus(600, 4, 49);
    let mut pivot = storypivot::prelude::StoryPivot::new(PivotConfig::default());
    for s in &c.sources {
        pivot.add_source_with_lag(s.name.clone(), s.kind, s.typical_lag);
    }
    for s in &c.snippets {
        pivot.ingest(s.clone()).unwrap();
    }
    pivot.align();

    let victim = c.sources[0].id;
    let victim_snips = c.snippets.iter().filter(|s| s.source == victim).count();
    let removed = pivot.remove_source(victim).unwrap();
    assert_eq!(removed, victim_snips);
    pivot.align_incremental();
    for g in pivot.global_stories() {
        assert!(!g.sources.contains(&victim), "global stories must drop the source");
        for &(m, _) in &g.members {
            assert_ne!(pivot.store().get(m).unwrap().source, victim);
        }
    }
    assert_eq!(pivot.store().len(), c.len() - victim_snips);
}
