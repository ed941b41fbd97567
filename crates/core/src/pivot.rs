//! The StoryPivot engine: store + identification + alignment +
//! refinement behind one API.

use std::collections::{HashMap, HashSet};

use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::{
    DocId, Error, GlobalStory, GlobalStoryId, Result, Snippet, SnippetId, Source, SourceId,
    SourceKind, StoryId,
};

use crate::align::{AlignOutcome, Aligner};
use crate::config::PivotConfig;
use crate::identify::{Identifier, IdentifyDecision, STORY_ID_STRIDE};
use crate::metrics::EngineMetrics;
use crate::refine::{refine_once, RefineReport};
use crate::state::StoryState;

/// The story detection engine described by the paper's Figure 1:
/// extraction results go in as [`Snippet`]s, per-source stories come out
/// of identification, and integrated global stories come out of
/// alignment (+ refinement).
///
/// ```
/// use storypivot_core::config::PivotConfig;
/// use storypivot_core::pivot::StoryPivot;
/// use storypivot_types::{EntityId, Snippet, SnippetId, SourceKind, TermId, Timestamp};
///
/// let mut pivot = StoryPivot::new(PivotConfig::default());
/// let nyt = pivot.add_source("New York Times", SourceKind::Newspaper);
/// let wsj = pivot.add_source("Wall Street Journal", SourceKind::Newspaper);
///
/// let t = Timestamp::from_ymd(2014, 7, 17);
/// for (i, src) in [nyt, wsj].into_iter().enumerate() {
///     pivot.ingest(
///         Snippet::builder(SnippetId::new(i as u32), src, t)
///             .entity(EntityId::new(0), 1.0)   // Ukraine
///             .entity(EntityId::new(1), 1.0)   // Malaysia Airlines
///             .term(TermId::new(0), 1.0)       // "crash"
///             .build(),
///     ).unwrap();
/// }
/// pivot.align();
/// assert_eq!(pivot.global_stories().len(), 1);
/// assert!(pivot.global_stories()[0].is_cross_source());
/// ```
#[derive(Debug, Clone)]
pub struct StoryPivot {
    pub(crate) config: PivotConfig,
    pub(crate) store: EventStore,
    pub(crate) identifiers: HashMap<SourceId, Identifier>,
    pub(crate) aligner: Aligner,
    pub(crate) outcome: Option<AlignOutcome>,
    pub(crate) dirty: HashSet<StoryId>,
    pub(crate) source_ids: IdGen<SourceId>,
    pub(crate) snippet_ids: IdGen<SnippetId>,
    pub(crate) doc_ids: IdGen<DocId>,
    pub(crate) metrics: EngineMetrics,
}

impl StoryPivot {
    /// Build an engine from a validated configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use
    /// [`StoryPivot::try_new`] to handle invalid configs gracefully.
    pub fn new(config: PivotConfig) -> Self {
        Self::try_new(config).expect("invalid PivotConfig")
    }

    /// Build an engine, reporting configuration errors.
    pub fn try_new(config: PivotConfig) -> Result<Self> {
        config.validate()?;
        Ok(StoryPivot {
            aligner: Aligner::new(config.align.clone(), config.identify.weights),
            config,
            store: EventStore::new(),
            identifiers: HashMap::new(),
            outcome: None,
            dirty: HashSet::new(),
            source_ids: IdGen::new(),
            snippet_ids: IdGen::new(),
            doc_ids: IdGen::new(),
            metrics: EngineMetrics::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PivotConfig {
        &self.config
    }

    /// Attach engine metric handles (default: detached no-ops). The
    /// serving layer registers one set per shard registry; summing the
    /// shard registries reproduces an unsharded engine's counters.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        self.metrics = metrics;
    }

    /// The attached engine metric handles.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Read access to the underlying event store.
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    // ---- sources -----------------------------------------------------

    /// Register a new data source and return its id.
    ///
    /// # Panics
    /// Panics when more than [`STORY_ID_STRIDE`]-supported sources
    /// (2³²⁄2²⁴ = 256) are registered — story ids are partitioned by
    /// source, so engines serving disjoint source sets (one per shard)
    /// never collide on a story id.
    pub fn add_source<S: Into<String>>(&mut self, name: S, kind: SourceKind) -> SourceId {
        self.add_source_with_lag(name, kind, 0)
    }

    /// Register a new data source with a typical reporting lag (seconds).
    pub fn add_source_with_lag<S: Into<String>>(
        &mut self,
        name: S,
        kind: SourceKind,
        lag: i64,
    ) -> SourceId {
        let id = self.source_ids.next_id();
        assert!(
            id.raw() < u32::MAX / STORY_ID_STRIDE,
            "too many sources for the story-id partitioning scheme"
        );
        self.store
            .register_source(Source::new(id, name, kind).with_lag(lag))
            .expect("fresh source id cannot collide");
        self.identifiers.insert(
            id,
            Identifier::new(id, self.config.identify.clone(), self.config.sketch),
        );
        id
    }

    /// Register a source whose id was allocated *externally*. Sharded
    /// deployments (`storypivot-serve`) allocate source ids centrally
    /// and route each source to one shard engine; the shard must then
    /// register the source under exactly that id so story-id
    /// partitioning stays globally consistent. The internal allocator
    /// is advanced past the given id so locally allocated sources never
    /// collide with externally allocated ones.
    pub fn add_source_registered(&mut self, source: Source) -> Result<SourceId> {
        let id = source.id;
        if id.raw() >= u32::MAX / STORY_ID_STRIDE {
            return Err(Error::InvalidConfig(format!(
                "source id {id} exceeds the story-id partitioning limit ({})",
                u32::MAX / STORY_ID_STRIDE
            )));
        }
        if self.identifiers.contains_key(&id) {
            return Err(Error::Duplicate(format!("source {id}")));
        }
        self.store.register_source(source)?;
        self.identifiers.insert(
            id,
            Identifier::new(id, self.config.identify.clone(), self.config.sketch),
        );
        if id.raw() >= self.source_ids.allocated() {
            self.source_ids = IdGen::starting_at(id.raw() + 1);
        }
        Ok(id)
    }

    /// Remove a source together with its snippets and stories. Returns
    /// how many snippets were evicted. Previously computed alignment is
    /// invalidated incrementally (§2.4: sources can disappear).
    pub fn remove_source(&mut self, id: SourceId) -> Result<usize> {
        let ident = self.identifiers.remove(&id).ok_or(Error::UnknownSource(id))?;
        for story in ident.story_ids() {
            self.dirty.insert(story);
        }
        let evicted = self.store.remove_source(id)?;
        Ok(evicted.len())
    }

    /// Registered sources, ordered by id.
    pub fn sources(&self) -> Vec<&Source> {
        self.store.sources().collect()
    }

    // ---- id allocation helpers ----------------------------------------

    /// Allocate a fresh snippet id (callers may also manage their own).
    pub fn fresh_snippet_id(&mut self) -> SnippetId {
        self.snippet_ids.next_id()
    }

    /// Allocate a fresh document id.
    pub fn fresh_doc_id(&mut self) -> DocId {
        self.doc_ids.next_id()
    }

    // ---- ingestion ------------------------------------------------------

    /// Ingest one snippet: store it, identify its story within its
    /// source, and mark the touched story dirty for incremental
    /// re-alignment. Returns the per-source story it joined.
    pub fn ingest(&mut self, snippet: Snippet) -> Result<StoryId> {
        Ok(self.ingest_detailed(snippet)?.story)
    }

    /// Like [`StoryPivot::ingest`] but returns the full identification
    /// decision (creation flag, best score, merges, comparison count).
    pub fn ingest_detailed(&mut self, snippet: Snippet) -> Result<IdentifyDecision> {
        let source = snippet.source;
        let ident = self
            .identifiers
            .get_mut(&source)
            .ok_or(Error::UnknownSource(source))?;
        self.store.insert(snippet.clone())?;
        let timer = self.metrics.identify_duration.start();
        let decision = ident.assign(&snippet, &self.store);
        drop(timer);
        self.metrics.ingest_total.inc();
        self.metrics.identify_compared_total.add(decision.compared as u64);
        if decision.created {
            self.metrics.identify_new_story_total.inc();
        } else {
            self.metrics.identify_assigned_total.inc();
        }
        self.metrics.identify_merge_total.add(decision.merged.len() as u64);
        self.metrics.story_cache_hits_total.add(decision.cache_hits as u64);
        self.metrics.story_cache_misses_total.add(decision.cache_misses as u64);
        self.dirty.insert(decision.story);
        for &m in &decision.merged {
            self.dirty.insert(m);
        }
        if ident.maintenance_due() {
            self.metrics.maintenance_runs_total.inc();
            let report = ident.maintain(&self.store);
            self.metrics.identify_split_total.add(report.splits.len() as u64);
            for (orig, fragments) in report.splits {
                self.dirty.insert(orig);
                self.dirty.extend(fragments);
            }
        }
        Ok(decision)
    }

    /// Ingest a batch sequentially (in the given order).
    pub fn ingest_batch<I: IntoIterator<Item = Snippet>>(
        &mut self,
        snippets: I,
    ) -> Result<Vec<IdentifyDecision>> {
        snippets.into_iter().map(|s| self.ingest_detailed(s)).collect()
    }

    // ---- removal ---------------------------------------------------------

    /// Remove one snippet (store + story), marking its story dirty.
    ///
    /// The cached alignment outcome is scrubbed immediately: queries
    /// issued between the removal and the next (incremental) alignment
    /// must not surface the removed snippet, nor a story whose last
    /// snippet just vanished.
    pub fn remove_snippet(&mut self, id: SnippetId) -> Result<()> {
        let snippet = self.store.remove(id)?;
        if let Some(ident) = self.identifiers.get_mut(&snippet.source) {
            if let Some(story) = ident.remove_snippet(&snippet, &self.store) {
                self.dirty.insert(story);
                let story_died = ident.story(story).is_none();
                self.scrub_outcome(id, story, story_died);
            }
        }
        Ok(())
    }

    /// Evict a removed snippet (and, when it was the story's last
    /// member, its now-dead story) from the cached [`AlignOutcome`] so
    /// reads stay consistent until the next alignment rebuilds it.
    fn scrub_outcome(&mut self, snippet: SnippetId, story: StoryId, story_died: bool) {
        let Some(outcome) = self.outcome.as_mut() else { return };
        outcome.snippet_to_global.remove(&snippet);
        if let Some(&gid) = outcome.story_to_global.get(&story) {
            if let Ok(idx) = outcome.global_stories.binary_search_by_key(&gid, |g| g.id) {
                let g = &mut outcome.global_stories[idx];
                g.members.retain(|&(m, _)| m != snippet);
                if story_died {
                    g.member_stories.retain(|&s| s != story);
                    let mut sources: Vec<SourceId> = g
                        .member_stories
                        .iter()
                        .map(|&s| crate::refine::story_source(s))
                        .collect();
                    sources.sort_unstable();
                    sources.dedup();
                    g.sources = sources;
                }
                if g.member_stories.is_empty() {
                    outcome.global_stories.remove(idx);
                }
            }
        }
        if story_died {
            outcome.story_to_global.remove(&story);
            outcome.accepted_pairs.retain(|&(a, b)| a != story && b != story);
        }
    }

    /// Remove a whole document (the demo's remove-document interaction,
    /// §4.2.1). Returns how many snippets were evicted.
    pub fn remove_document(&mut self, doc: DocId) -> Result<usize> {
        let ids = self.store.snippets_of_doc(doc);
        if ids.is_empty() {
            return Err(Error::UnknownDocument(doc));
        }
        let n = ids.len();
        for id in ids {
            self.remove_snippet(id)?;
        }
        Ok(n)
    }

    /// Forcibly reassign a snippet to another story of its source (a
    /// what-if/error-injection hook used by the demo's interactive
    /// exploration and by the refinement experiments). The target story
    /// is created when it does not exist; pass
    /// [`StoryPivot::fresh_story_id_for`] output to open a new one.
    pub fn reassign_snippet(&mut self, id: SnippetId, story: StoryId) -> Result<()> {
        let snippet = self.store.get_or_err(id)?.clone();
        let ident = self
            .identifiers
            .get_mut(&snippet.source)
            .ok_or(Error::UnknownSource(snippet.source))?;
        if let Some(old) = ident.remove_snippet(&snippet, &self.store) {
            self.dirty.insert(old);
        }
        ident.force_assign(&snippet, story);
        self.dirty.insert(story);
        Ok(())
    }

    /// Allocate a fresh story id in `source` (for
    /// [`StoryPivot::reassign_snippet`]).
    pub fn fresh_story_id_for(&mut self, source: SourceId) -> Result<StoryId> {
        self.identifiers
            .get_mut(&source)
            .map(Identifier::fresh_story_id)
            .ok_or(Error::UnknownSource(source))
    }

    /// Run the merge/split maintenance pass over every source now
    /// (ordinarily it runs automatically every
    /// `identify.maintenance_every` ingests). Returns all splits as
    /// `(original story, fragment ids)`; affected stories are marked
    /// dirty for incremental re-alignment.
    pub fn run_maintenance(&mut self) -> Vec<(StoryId, Vec<StoryId>)> {
        let mut splits = Vec::new();
        let mut sources: Vec<SourceId> = self.identifiers.keys().copied().collect();
        sources.sort_unstable();
        for source in sources {
            let ident = self.identifiers.get_mut(&source).expect("listed source");
            self.metrics.maintenance_runs_total.inc();
            let report = ident.maintain(&self.store);
            self.metrics.identify_split_total.add(report.splits.len() as u64);
            for (orig, fragments) in report.splits {
                self.dirty.insert(orig);
                self.dirty.extend(fragments.iter().copied());
                splits.push((orig, fragments));
            }
        }
        splits
    }

    // ---- alignment ----------------------------------------------------------

    fn collect_states(&self) -> Vec<&StoryState> {
        let mut ids: Vec<SourceId> = self.identifiers.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .flat_map(|id| {
                let ident = &self.identifiers[id];
                ident
                    .story_ids()
                    .into_iter()
                    .map(move |sid| ident.story(sid).expect("listed story exists"))
            })
            .collect()
    }

    /// Run story alignment from scratch and return the outcome.
    pub fn align(&mut self) -> &AlignOutcome {
        let timer = self.metrics.align_duration.start();
        let outcome = self.aligner.align(&self.collect_states(), &self.store);
        drop(timer);
        self.metrics.align_runs_total.inc();
        self.metrics.align_pairs_total.add(outcome.pairs_scored as u64);
        self.dirty.clear();
        self.outcome = Some(outcome);
        self.outcome.as_ref().expect("just set")
    }

    /// Run alignment incrementally: only story pairs touching a dirty
    /// story are rescored; everything else reuses the previous outcome.
    /// Falls back to a full pass when no previous outcome exists.
    pub fn align_incremental(&mut self) -> &AlignOutcome {
        let timer = self.metrics.align_duration.start();
        let outcome = match &self.outcome {
            Some(prev) => self.aligner.align_incremental(
                &self.collect_states(),
                &self.store,
                prev,
                &self.dirty,
            ),
            None => self.aligner.align(&self.collect_states(), &self.store),
        };
        drop(timer);
        self.metrics.align_runs_total.inc();
        self.metrics.align_pairs_total.add(outcome.pairs_scored as u64);
        self.dirty.clear();
        self.outcome = Some(outcome);
        self.outcome.as_ref().expect("just set")
    }

    /// Number of stories currently marked dirty (ingested/changed since
    /// the last alignment).
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Run story refinement (Figure 1d): repeatedly move snippets whose
    /// cross-source cohesion contradicts their assignment, re-aligning
    /// between rounds, until a round makes no move or the configured
    /// round budget is exhausted.
    pub fn refine(&mut self) -> RefineReport {
        let timer = self.metrics.refine_duration.start();
        let mut report = RefineReport::default();
        for _ in 0..self.config.refine.max_rounds {
            if self.outcome.is_none() || !self.dirty.is_empty() {
                self.align_incremental();
            }
            let outcome = self.outcome.as_ref().expect("aligned above").clone();
            let moves = refine_once(
                &self.store,
                &mut self.identifiers,
                &outcome,
                &self.config.refine,
                &self.config.identify.weights,
            );
            report.rounds += 1;
            if moves.is_empty() {
                break;
            }
            for m in &moves {
                self.dirty.insert(m.from_story);
                self.dirty.insert(m.to_story);
            }
            report.moves.extend(moves);
            self.align_incremental();
        }
        drop(timer);
        self.metrics.refine_moves_total.add(report.move_count() as u64);
        self.metrics.refine_rounds_total.add(report.rounds as u64);
        report
    }

    // ---- inspection ------------------------------------------------------------

    /// The integrated global stories from the most recent alignment
    /// (empty before the first [`StoryPivot::align`] call).
    pub fn global_stories(&self) -> &[GlobalStory] {
        self.outcome
            .as_ref()
            .map(|o| o.global_stories.as_slice())
            .unwrap_or(&[])
    }

    /// The full outcome of the most recent alignment.
    pub fn alignment(&self) -> Option<&AlignOutcome> {
        self.outcome.as_ref()
    }

    /// The per-source story a snippet belongs to.
    pub fn story_of(&self, snippet: SnippetId) -> Option<StoryId> {
        let source = self.store.get(snippet)?.source;
        self.identifiers.get(&source)?.story_of(snippet)
    }

    /// The global story a snippet belongs to (after alignment).
    pub fn global_of(&self, snippet: SnippetId) -> Option<GlobalStoryId> {
        self.outcome.as_ref()?.snippet_to_global.get(&snippet).copied()
    }

    /// All story states of one source, ordered by story id.
    pub fn stories_of_source(&self, source: SourceId) -> Vec<&StoryState> {
        match self.identifiers.get(&source) {
            Some(ident) => ident
                .story_ids()
                .into_iter()
                .map(|id| ident.story(id).expect("listed story exists"))
                .collect(),
            None => Vec::new(),
        }
    }

    /// One story's state, looked up across sources.
    pub fn story(&self, id: StoryId) -> Option<&StoryState> {
        self.identifiers
            .get(&crate::refine::story_source(id))
            .and_then(|ident| ident.story(id))
    }

    /// Total number of per-source stories.
    pub fn story_count(&self) -> usize {
        self.identifiers.values().map(Identifier::story_count).sum()
    }

    /// The per-source story partition: every story with its members,
    /// ordered by story id, members sorted. Identification is
    /// per-source, so this partition is invariant under sharding by
    /// source — the serving layer's QUERY_STORIES frame and the
    /// served-vs-in-process equivalence tests are built on it.
    pub fn story_partition(&self) -> Vec<(StoryId, Vec<SnippetId>)> {
        let mut out: Vec<(StoryId, Vec<SnippetId>)> = self
            .identifiers
            .values()
            .flat_map(|ident| {
                ident.story_ids().into_iter().map(move |sid| {
                    let mut members: Vec<SnippetId> = ident
                        .story(sid)
                        .expect("listed story exists")
                        .story
                        .members
                        .clone();
                    members.sort_unstable();
                    (sid, members)
                })
            })
            .collect();
        out.sort_unstable_by_key(|&(sid, _)| sid);
        out
    }

    /// Verify the engine's internal invariants, returning a description
    /// of the first violation found. Intended for tests and debugging;
    /// cost is linear in the corpus.
    ///
    /// Checked invariants:
    /// 1. every stored snippet is assigned to exactly one story of its
    ///    source, and every story member is a stored snippet;
    /// 2. story lifespans cover their members' timestamps;
    /// 3. when an alignment outcome exists, its global stories partition
    ///    the per-source stories (modulo stories changed since).
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| Err(Error::Invariant(msg));

        // (1) + (2)
        let mut assigned = std::collections::HashSet::new();
        for (source, ident) in &self.identifiers {
            for story_id in ident.story_ids() {
                let state = ident.story(story_id).expect("listed story exists");
                if state.is_empty() {
                    return fail(format!("story {story_id} is empty but alive"));
                }
                for &m in &state.story.members {
                    let Some(sn) = self.store.get(m) else {
                        return fail(format!("story {story_id} references missing snippet {m}"));
                    };
                    if sn.source != *source {
                        return fail(format!("snippet {m} of {} in story of {source}", sn.source));
                    }
                    if ident.story_of(m) != Some(story_id) {
                        return fail(format!("assignment map disagrees for {m}"));
                    }
                    if !state.lifespan().contains(sn.timestamp) {
                        return fail(format!(
                            "snippet {m} at {} outside story {story_id} lifespan {}",
                            sn.timestamp,
                            state.lifespan()
                        ));
                    }
                    if !assigned.insert(m) {
                        return fail(format!("snippet {m} belongs to two stories"));
                    }
                }
            }
        }
        for sn in self.store.iter() {
            if !assigned.contains(&sn.id) {
                return fail(format!("stored snippet {} is unassigned", sn.id));
            }
        }

        // (3) — only meaningful right after alignment (dirty == 0).
        if let Some(outcome) = &self.outcome {
            if self.dirty.is_empty() {
                let mut covered = std::collections::HashSet::new();
                for g in &outcome.global_stories {
                    for &s in &g.member_stories {
                        if !covered.insert(s) {
                            return fail(format!("story {s} in two global stories"));
                        }
                    }
                }
                for ident in self.identifiers.values() {
                    for story_id in ident.story_ids() {
                        if !covered.contains(&story_id) {
                            return fail(format!("story {story_id} missing from alignment"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::{EntityId, EventType, TermId, Timestamp, DAY};

    fn snip(pivot: &mut StoryPivot, source: SourceId, day: i64, entities: &[u32], terms: &[u32]) -> SnippetId {
        let id = pivot.fresh_snippet_id();
        let mut b = Snippet::builder(id, source, Timestamp::from_secs(day * DAY))
            .event_type(EventType::Accident);
        for &e in entities {
            b = b.entity(EntityId::new(e), 1.0);
        }
        for &t in terms {
            b = b.term(TermId::new(t), 1.0);
        }
        pivot.ingest(b.build()).unwrap();
        id
    }

    #[test]
    fn end_to_end_two_sources() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("NYT", SourceKind::Newspaper);
        let b = pivot.add_source("WSJ", SourceKind::Newspaper);
        for day in 0..5 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        assert_eq!(pivot.story_count(), 2);
        pivot.align();
        assert_eq!(pivot.global_stories().len(), 1);
        assert!(pivot.global_stories()[0].is_cross_source());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = PivotConfig::default();
        cfg.identify.match_threshold = 7.0;
        assert!(StoryPivot::try_new(cfg).is_err());
    }

    #[test]
    fn unknown_source_ingest_fails() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let s = Snippet::builder(SnippetId::new(0), SourceId::new(9), Timestamp::EPOCH).build();
        assert!(matches!(pivot.ingest(s), Err(Error::UnknownSource(_))));
    }

    #[test]
    fn dirty_tracking_and_incremental_alignment() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for day in 0..3 {
            snip(&mut pivot, a, day, &[1, 2], &[10]);
            snip(&mut pivot, b, day, &[1, 2], &[10]);
        }
        assert!(pivot.dirty_count() > 0);
        pivot.align();
        assert_eq!(pivot.dirty_count(), 0);
        snip(&mut pivot, a, 3, &[1, 2], &[10]);
        assert_eq!(pivot.dirty_count(), 1);
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn document_removal_updates_stories() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let doc = pivot.fresh_doc_id();
        let id0 = pivot.fresh_snippet_id();
        pivot
            .ingest(
                Snippet::builder(id0, a, Timestamp::EPOCH)
                    .doc(doc)
                    .entity(EntityId::new(1), 1.0)
                    .build(),
            )
            .unwrap();
        assert_eq!(pivot.story_count(), 1);
        assert_eq!(pivot.remove_document(doc).unwrap(), 1);
        assert_eq!(pivot.story_count(), 0);
        assert!(pivot.remove_document(doc).is_err());
    }

    #[test]
    fn source_removal_prunes_everything() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        snip(&mut pivot, a, 0, &[1], &[1]);
        snip(&mut pivot, b, 0, &[1], &[1]);
        pivot.align();
        assert_eq!(pivot.remove_source(a).unwrap(), 1);
        pivot.align_incremental();
        assert_eq!(pivot.global_stories().len(), 1);
        assert_eq!(pivot.global_stories()[0].sources, vec![b]);
    }

    #[test]
    fn refine_fixes_injected_error() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        // Two clear stories in both sources.
        let mut crash_snips = Vec::new();
        for day in 0..3 {
            crash_snips.push(snip(&mut pivot, a, day, &[1, 2], &[10, 11]));
            snip(&mut pivot, a, day, &[7, 8], &[20, 21]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[7, 8], &[20, 21]);
        }
        // Inject an error: force the last crash snippet into the sports
        // story of source a.
        let victim_id = crash_snips[2];
        let victim = pivot.store().get(victim_id).unwrap().clone();
        let sports_story = pivot
            .stories_of_source(a)
            .iter()
            .map(|s| s.id())
            .find(|&sid| sid != pivot.story_of(victim_id).unwrap())
            .unwrap();
        let right_story = pivot.story_of(victim_id).unwrap();
        {
            let ident = pivot.identifiers.get_mut(&a).unwrap();
            ident.remove_snippet(&victim, &pivot.store);
            ident.force_assign(&victim, sports_story);
        }
        pivot.dirty.insert(sports_story);
        pivot.dirty.insert(right_story);

        let report = pivot.refine();
        assert!(report.move_count() >= 1, "refinement must correct the error");
        assert_eq!(pivot.story_of(victim_id), Some(right_story));
    }

    #[test]
    fn externally_registered_sources_interleave_with_local_ones() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        // A sharded server registers sources 1 and 3 on this shard.
        for id in [1u32, 3] {
            let got = pivot
                .add_source_registered(Source::new(SourceId::new(id), format!("s{id}"), SourceKind::Wire))
                .unwrap();
            assert_eq!(got.raw(), id);
        }
        // Registering the same id twice is refused.
        assert!(pivot
            .add_source_registered(Source::new(SourceId::new(3), "dup", SourceKind::Blog))
            .is_err());
        // A locally allocated source continues past the external ids.
        let local = pivot.add_source("local", SourceKind::Newspaper);
        assert_eq!(local.raw(), 4);
        // Ids beyond the story-partitioning limit are refused.
        assert!(pivot
            .add_source_registered(Source::new(SourceId::new(u32::MAX / 256), "big", SourceKind::Wire))
            .is_err());
        // Ingest works against the external ids.
        snip(&mut pivot, SourceId::new(1), 0, &[1, 2], &[1]);
        snip(&mut pivot, SourceId::new(3), 0, &[1, 2], &[1]);
        pivot.align();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn story_partition_lists_every_snippet_once() {
        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        let mut all = Vec::new();
        for day in 0..4 {
            all.push(snip(&mut pivot, a, day, &[1, 2], &[1]));
            all.push(snip(&mut pivot, b, day, &[8, 9], &[8]));
        }
        let partition = pivot.story_partition();
        assert_eq!(partition.len(), pivot.story_count());
        let mut members: Vec<SnippetId> =
            partition.iter().flat_map(|(_, m)| m.iter().copied()).collect();
        members.sort_unstable();
        all.sort_unstable();
        assert_eq!(members, all);
        // Ordered by story id, and each story's id maps back to it.
        for w in partition.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for (sid, m) in &partition {
            assert_eq!(pivot.story_of(m[0]), Some(*sid));
        }
    }

    #[test]
    fn global_stories_empty_before_alignment() {
        let pivot = StoryPivot::new(PivotConfig::default());
        assert!(pivot.global_stories().is_empty());
        assert!(pivot.alignment().is_none());
    }

    #[test]
    fn removing_last_snippet_scrubs_alignment_and_window() {
        use crate::query::{query_stories, StoryQuery};

        let mut pivot = StoryPivot::new(PivotConfig::default());
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        // A healthy cross-source story plus a lone single-snippet story
        // in source a with disjoint content.
        for day in 0..3 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        let lone = snip(&mut pivot, a, 1, &[77, 78], &[90, 91]);
        let lone_story = pivot.story_of(lone).unwrap();
        pivot.align();
        let before = pivot.global_stories().len();
        assert_eq!(before, 2);

        pivot.remove_snippet(lone).unwrap();

        // The dead story must vanish from alignment results, not linger
        // until the next align pass.
        assert_eq!(pivot.global_stories().len(), before - 1);
        let outcome = pivot.alignment().unwrap();
        assert!(!outcome.snippet_to_global.contains_key(&lone));
        assert!(!outcome.story_to_global.contains_key(&lone_story));
        assert!(outcome
            .global_stories
            .iter()
            .all(|g| !g.member_stories.contains(&lone_story)
                && g.members.iter().all(|&(m, _)| m != lone)));
        // Queries over the cached alignment see no trace of it either.
        let hits = query_stories(&pivot, &StoryQuery::entity(EntityId::new(77)));
        assert!(hits.is_empty());
        // No stale window-index entry survives in the store.
        assert!(pivot
            .store()
            .window(a, Timestamp::from_secs(DAY), 10 * DAY)
            .iter()
            .all(|s| s.id != lone));

        // Removing a non-last snippet keeps the story but drops the
        // member from the cached alignment.
        let keep = snip(&mut pivot, a, 3, &[1, 2], &[10, 11]);
        pivot.align();
        pivot.remove_snippet(keep).unwrap();
        let outcome = pivot.alignment().unwrap();
        assert_eq!(outcome.global_stories.len(), 1);
        assert!(outcome.global_stories[0].members.iter().all(|&(m, _)| m != keep));
        assert!(!outcome.snippet_to_global.contains_key(&keep));

        pivot.align();
        pivot.check_invariants().unwrap();
        assert_eq!(pivot.global_stories().len(), 1);
    }

    #[test]
    fn engine_metrics_count_hot_path_work() {
        use storypivot_substrate::metrics::Registry;

        let registry = Registry::new();
        let mut pivot = StoryPivot::new(PivotConfig::default());
        pivot.set_metrics(EngineMetrics::register(&registry));
        let a = pivot.add_source("a", SourceKind::Newspaper);
        let b = pivot.add_source("b", SourceKind::Newspaper);
        for day in 0..4 {
            snip(&mut pivot, a, day, &[1, 2], &[10, 11]);
            snip(&mut pivot, b, day, &[1, 2], &[10, 11]);
        }
        pivot.align();
        pivot.refine();

        let m = pivot.metrics();
        assert_eq!(m.ingest_total.get(), 8);
        // Every snippet either joined a story or opened one.
        assert_eq!(
            m.identify_assigned_total.get() + m.identify_new_story_total.get(),
            8
        );
        assert_eq!(m.align_runs_total.get(), 1);
        assert!(m.identify_duration.count() == 8);
        let save = pivot.save_checkpoint();
        assert!(!save.is_empty());
        assert_eq!(m.checkpoint_save_duration.count(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("storypivot_ingest_total", &[]), Some(8));
    }

    #[test]
    fn out_of_order_stream_converges_to_batch_result() {
        // Ingest the same logical stream in order and shuffled, aligning
        // incrementally every 3 snippets; after a final align + refine
        // both must produce the same snippet partition.
        let run = |order: &[usize]| {
            let mut pivot = StoryPivot::new(PivotConfig::default());
            let a = pivot.add_source("a", SourceKind::Newspaper);
            let b = pivot.add_source("b", SourceKind::Newspaper);
            // 2 stories × 2 sources × 5 days.
            let mut stream = Vec::new();
            for day in 0..5i64 {
                for (src, e) in [(a, 1u32), (a, 50), (b, 1), (b, 50)] {
                    stream.push((src, day, e));
                }
            }
            for (n, &i) in order.iter().enumerate() {
                let (src, day, e) = stream[i];
                let id = pivot.fresh_snippet_id();
                let s = Snippet::builder(id, src, Timestamp::from_secs(day * DAY))
                    .entity(EntityId::new(e), 1.0)
                    .entity(EntityId::new(e + 1), 1.0)
                    .term(TermId::new(e), 1.0)
                    .build();
                pivot.ingest(s).unwrap();
                if (n + 1) % 3 == 0 {
                    pivot.align_incremental();
                }
            }
            pivot.align_incremental();
            pivot.refine();
            // Partition as sets of (source, day, entity) member keys,
            // ignoring snippet ids (which differ between orders).
            let mut partition: Vec<Vec<(u32, i64, u32)>> = pivot
                .global_stories()
                .iter()
                .map(|g| {
                    let mut v: Vec<(u32, i64, u32)> = g
                        .members
                        .iter()
                        .map(|&(m, _)| {
                            let sn = pivot.store().get(m).unwrap();
                            let e = sn.entities().keys().next().unwrap().raw();
                            (sn.source.raw(), sn.timestamp.secs(), e)
                        })
                        .collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            partition.sort();
            partition
        };

        let in_order: Vec<usize> = (0..20).collect();
        // A fixed "late local coverage" shuffle: reverse within days.
        let shuffled: Vec<usize> = in_order
            .chunks(4)
            .flat_map(|c| c.iter().rev().copied())
            .collect();
        assert_eq!(run(&in_order), run(&shuffled));
    }
}
