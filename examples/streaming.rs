//! Dynamic, out-of-order ingestion (paper §2.4): a [`StoryPivot`]
//! consumes the corpus in *delivery* order — publication lag means event
//! timestamps arrive scrambled — re-aligning incrementally every 200
//! snippets and printing live story counts.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use storypivot::core::config::PivotConfig;
use storypivot::core::pivot::StoryPivot;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::types::DAY;

/// Re-align incrementally after this many ingested snippets.
const ALIGN_EVERY: usize = 200;

fn main() {
    let corpus = CorpusBuilder::new(
        GenConfig::default()
            .with_sources(8)
            .with_target_snippets(2_000),
    )
    .build();
    println!(
        "streaming {} snippets (inversion fraction {:.2} — the stream is genuinely out of order)",
        corpus.len(),
        corpus.inversion_fraction()
    );

    let mut pivot = StoryPivot::new(PivotConfig::temporal(14 * DAY));
    for src in &corpus.sources {
        pivot.add_source_with_lag(src.name.clone(), src.kind, src.typical_lag);
    }

    let mut late = 0usize;
    let mut aligns = 0usize;
    let mut last_seen = storypivot::types::Timestamp::MIN;
    for (i, s) in corpus.snippets.iter().enumerate() {
        if s.timestamp < last_seen {
            late += 1;
        }
        last_seen = last_seen.max(s.timestamp);
        pivot.ingest(s.clone()).expect("valid snippet");
        if (i + 1) % ALIGN_EVERY == 0 {
            pivot.align_incremental();
            aligns += 1;
        }
        if (i + 1) % 500 == 0 {
            println!(
                "after {:>5} snippets: {:>4} per-source stories, {:>4} global stories, {} arrived late",
                i + 1,
                pivot.story_count(),
                pivot.global_stories().len(),
                late,
            );
        }
    }

    pivot.align_incremental();
    let moves = pivot.refine().move_count();
    println!(
        "\nfinal: {} per-source stories, {} global stories ({} cross-source), {} refinement moves",
        pivot.story_count(),
        pivot.global_stories().len(),
        pivot.alignment().unwrap().cross_source_stories().count(),
        moves,
    );
    println!("automatic incremental alignments along the way: {aligns}");
}
