//! Story alignment across data sources (paper §2.3).
//!
//! Alignment finds per-source stories that "contain the same semantic
//! information" and integrates them into global stories. Two stories
//! align when their **content** is similar *and* their **temporal
//! evolution** is similar — "it is highly unlikely that two stories c₁
//! and c₂ are similar if c₁ ends at tᵢ and c₂ starts at tⱼ with
//! tᵢ ≪ tⱼ". Within an integrated story, each snippet either **aligns**
//! (has a temporally-proximate counterpart in another source) or
//! **enriches** (source-exclusive extras such as special reports).
//!
//! The aligner supports both full recomputation and **incremental**
//! re-alignment against a previous outcome — the capability that makes
//! adding a new data source cheap (paper §2.1: "as new sources become
//! available, we first identify the stories associated with them and
//! then align them with existing stories").

use std::collections::{HashMap, HashSet};

use storypivot_store::EventStore;
use storypivot_types::ids::IdGen;
use storypivot_types::{
    EntityId, GlobalStory, GlobalStoryId, SnippetId, SnippetRole, StoryId,
};

use crate::config::AlignConfig;
use crate::sim::SimWeights;
use crate::state::StoryState;
use crate::unionfind::UnionFind;

/// The result of an alignment pass.
#[derive(Debug, Clone, Default)]
pub struct AlignOutcome {
    /// Integrated stories, sorted by id. Every per-source story appears
    /// in exactly one global story (singletons included — unaligned
    /// stories "still hold interest for a variety of users").
    pub global_stories: Vec<GlobalStory>,
    /// Per-source story → its global story.
    pub story_to_global: HashMap<StoryId, GlobalStoryId>,
    /// Snippet → global story (derived convenience map).
    pub snippet_to_global: HashMap<SnippetId, GlobalStoryId>,
    /// The story pairs whose combined similarity passed the threshold.
    pub accepted_pairs: Vec<(StoryId, StoryId)>,
    /// Number of candidate pairs scored in this pass (perf metric).
    pub pairs_scored: usize,
}

impl AlignOutcome {
    /// Look up a global story by id.
    pub fn global_story(&self, id: GlobalStoryId) -> Option<&GlobalStory> {
        self.global_stories
            .binary_search_by_key(&id, |g| g.id)
            .ok()
            .map(|i| &self.global_stories[i])
    }

    /// Global stories corroborated by more than one source.
    pub fn cross_source_stories(&self) -> impl Iterator<Item = &GlobalStory> + '_ {
        self.global_stories.iter().filter(|g| g.is_cross_source())
    }
}

/// Cross-source story aligner.
#[derive(Debug, Clone)]
pub struct Aligner {
    cfg: AlignConfig,
    weights: SimWeights,
}

impl Aligner {
    /// Build an aligner from configuration.
    pub fn new(cfg: AlignConfig, weights: SimWeights) -> Self {
        Aligner { cfg, weights }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AlignConfig {
        &self.cfg
    }

    /// Combined story–story similarity: content (exact or sketched)
    /// gated by lag-tolerant evolution similarity.
    pub fn story_pair_score(&self, a: &StoryState, b: &StoryState) -> f64 {
        // Cheap temporal prune first: stories whose lifespans are
        // further apart than the lag tolerance cannot align.
        let max_gap = (self.cfg.max_lag_buckets + 1) * self.cfg.bucket_width;
        if a.lifespan().gap(b.lifespan()) > max_gap {
            return 0.0;
        }
        let content = if self.cfg.use_sketches {
            a.content_sim_sketch(b)
        } else {
            a.content_sim_exact(b)
        };
        if content == 0.0 {
            return 0.0;
        }
        // Containment, not cosine: a sparse source's short story must be
        // able to align with a prolific source's long story; disjoint
        // lifespans still gate to zero (§2.3).
        let evolution = a
            .signature
            .containment_similarity(&b.signature, self.cfg.max_lag_buckets);
        content * evolution
    }

    /// Score candidate pairs. Returns the accepted `(story, story)`
    /// pairs, in `pairs` order.
    fn score_pairs(
        &self,
        states: &[&StoryState],
        pairs: &[(usize, usize)],
    ) -> Vec<(StoryId, StoryId)> {
        pairs
            .iter()
            .filter(|&&(i, j)| {
                self.story_pair_score(states[i], states[j]) >= self.cfg.align_threshold
            })
            .map(|&(i, j)| (states[i].id(), states[j].id()))
            .collect()
    }

    /// Full alignment over all per-source stories.
    pub fn align(&self, states: &[&StoryState], store: &EventStore) -> AlignOutcome {
        self.align_internal(states, store, None, None)
    }

    /// Incremental alignment: pairs between two *clean* stories reuse
    /// their accept/reject decision from `previous`; only pairs with at
    /// least one endpoint in `dirty` are (re)scored.
    pub fn align_incremental(
        &self,
        states: &[&StoryState],
        store: &EventStore,
        previous: &AlignOutcome,
        dirty: &HashSet<StoryId>,
    ) -> AlignOutcome {
        self.align_internal(states, store, Some(previous), Some(dirty))
    }

    fn align_internal(
        &self,
        states: &[&StoryState],
        store: &EventStore,
        previous: Option<&AlignOutcome>,
        dirty: Option<&HashSet<StoryId>>,
    ) -> AlignOutcome {
        let live: HashSet<StoryId> = states.iter().map(|s| s.id()).collect();
        let index_of: HashMap<StoryId, usize> =
            states.iter().enumerate().map(|(i, s)| (s.id(), i)).collect();

        // ---- candidate generation via shared entities ----------------
        let mut entity_index: HashMap<EntityId, Vec<usize>> = HashMap::new();
        for (i, s) in states.iter().enumerate() {
            for e in s.entities.keys() {
                entity_index.entry(e).or_default().push(i);
            }
        }
        let mut shared: HashMap<(usize, usize), usize> = HashMap::new();
        for posting in entity_index.values() {
            for (pi, &i) in posting.iter().enumerate() {
                for &j in &posting[pi + 1..] {
                    let key = if i < j { (i, j) } else { (j, i) };
                    // Cross-source pairs only: same-source grouping is
                    // identification's job.
                    if states[i].source() != states[j].source() {
                        *shared.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }

        // ---- pair scoring (incremental reuse where possible) ----------
        let mut accepted: Vec<(StoryId, StoryId)> = Vec::new();

        // Collect the pairs that actually need scoring this pass.
        let mut to_score: Vec<(usize, usize)> = Vec::new();
        if let (Some(prev), Some(dirty)) = (previous, dirty) {
            // Reuse accepted pairs between clean, still-live stories.
            for &(a, b) in &prev.accepted_pairs {
                if live.contains(&a) && live.contains(&b) && !dirty.contains(&a) && !dirty.contains(&b)
                {
                    accepted.push((a, b));
                }
            }
            for (&(i, j), &overlap) in &shared {
                if overlap < self.cfg.min_shared_entities {
                    continue;
                }
                if !dirty.contains(&states[i].id()) && !dirty.contains(&states[j].id()) {
                    continue; // decision reused above
                }
                to_score.push((i, j));
            }
        } else {
            for (&(i, j), &overlap) in &shared {
                if overlap >= self.cfg.min_shared_entities {
                    to_score.push((i, j));
                }
            }
        }
        let pairs_scored = to_score.len();
        accepted.extend(self.score_pairs(states, &to_score));

        // Deterministic order for downstream grouping.
        accepted.sort_unstable();
        accepted.dedup();

        // ---- grouping --------------------------------------------------
        let mut uf = UnionFind::new(states.len());
        for &(a, b) in &accepted {
            if let (Some(&i), Some(&j)) = (index_of.get(&a), index_of.get(&b)) {
                uf.union(i, j);
            }
        }

        let mut outcome = AlignOutcome {
            accepted_pairs: accepted,
            pairs_scored,
            ..AlignOutcome::default()
        };

        let mut ids = IdGen::<GlobalStoryId>::new();
        for group in uf.groups() {
            let gid = ids.next_id();
            let mut global = GlobalStory::new(gid);
            for &i in &group {
                let state = states[i];
                global.member_stories.push(state.id());
                global.add_source(state.source());
                outcome.story_to_global.insert(state.id(), gid);
            }
            global.member_stories.sort_unstable();

            // ---- aligning/enriching classification --------------------
            // Collect (snippet, source, timestamp) for all members.
            let mut members: Vec<&storypivot_types::Snippet> = Vec::new();
            for &i in &group {
                for &m in &states[i].story.members {
                    if let Some(sn) = store.get(m) {
                        members.push(sn);
                    }
                }
            }
            members.sort_by_key(|s| (s.timestamp, s.id));
            for (mi, &sn) in members.iter().enumerate() {
                let role = if global.sources.len() > 1
                    && self.has_counterpart(sn, mi, &members)
                {
                    SnippetRole::Aligning
                } else {
                    SnippetRole::Enriching
                };
                global.add_member(sn.id, role, sn.timestamp);
                outcome.snippet_to_global.insert(sn.id, gid);
            }
            outcome.global_stories.push(global);
        }
        outcome
    }

    /// Whether `sn` (at sorted position `pos` in `members`) has a
    /// counterpart: a content-similar snippet from a *different source*
    /// within the counterpart lag.
    fn has_counterpart(
        &self,
        sn: &storypivot_types::Snippet,
        pos: usize,
        members: &[&storypivot_types::Snippet],
    ) -> bool {
        let lag = self.cfg.counterpart_lag;
        // Bind the probe once: the outward scans re-score `sn` against
        // every neighbour, so probe-side state is hoisted out.
        let scorer = self.weights.probe(&sn.content);
        let term_slice = sn.terms().as_slice();
        let term_norm = sn.terms().norm();
        // members is sorted by timestamp: scan outwards until the lag
        // bound is exceeded in both directions.
        let check = |other: &storypivot_types::Snippet| -> bool {
            other.source != sn.source
                && other.timestamp.distance(sn.timestamp) <= lag
                && scorer.score(&other.content) >= self.cfg.counterpart_threshold
                && storypivot_types::kernel::cosine(
                    term_slice,
                    term_norm,
                    other.terms().as_slice(),
                    other.terms().norm(),
                ) >= self.cfg.counterpart_term_floor
        };
        for other in members[pos + 1..].iter() {
            if other.timestamp.distance(sn.timestamp) > lag {
                break;
            }
            if check(other) {
                return true;
            }
        }
        for other in members[..pos].iter().rev() {
            if other.timestamp.distance(sn.timestamp) > lag {
                break;
            }
            if check(other) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IdentifyConfig, MatchMode, SketchConfig};
    use crate::identify::Identifier;
    use storypivot_types::{
        EntityId, EventType, Snippet, Source, SourceId, SourceKind, TermId, Timestamp, DAY,
    };

    struct Fixture {
        store: EventStore,
        idents: Vec<Identifier>,
        next_id: u32,
    }

    impl Fixture {
        fn new(sources: u32) -> Self {
            let mut store = EventStore::new();
            let mut idents = Vec::new();
            for i in 0..sources {
                store
                    .register_source(Source::new(SourceId::new(i), format!("s{i}"), SourceKind::Newspaper))
                    .unwrap();
                idents.push(Identifier::new(
                    SourceId::new(i),
                    IdentifyConfig {
                        mode: MatchMode::Temporal { omega: 7 * DAY },
                        maintenance_every: 0,
                        ..IdentifyConfig::default()
                    },
                    SketchConfig::default(),
                ));
            }
            Fixture {
                store,
                idents,
                next_id: 0,
            }
        }

        fn ingest(&mut self, source: u32, day: i64, entities: &[u32], terms: &[u32]) -> SnippetId {
            let id = SnippetId::new(self.next_id);
            self.next_id += 1;
            let mut b = Snippet::builder(id, SourceId::new(source), Timestamp::from_secs(day * DAY))
                .event_type(EventType::Accident);
            for &e in entities {
                b = b.entity(EntityId::new(e), 1.0);
            }
            for &t in terms {
                b = b.term(TermId::new(t), 1.0);
            }
            let s = b.build();
            self.store.insert(s.clone()).unwrap();
            self.idents[source as usize].assign(&s, &self.store);
            id
        }

        fn states(&self) -> Vec<&StoryState> {
            self.idents.iter().flat_map(|i| i.stories()).collect()
        }

        fn align(&self) -> AlignOutcome {
            Aligner::new(AlignConfig::default(), SimWeights::default())
                .align(&self.states(), &self.store)
        }
    }

    #[test]
    fn same_story_across_sources_aligns() {
        let mut f = Fixture::new(2);
        // Both sources report the same evolving story.
        for day in 0..5 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
        let g = out.cross_source_stories().next().unwrap();
        assert_eq!(g.source_count(), 2);
        assert_eq!(g.len(), 10);
        // Every snippet has a same-day counterpart in the other source.
        assert_eq!(g.aligning().count(), 10);
    }

    #[test]
    fn unrelated_stories_stay_apart() {
        let mut f = Fixture::new(2);
        for day in 0..3 {
            f.ingest(0, day, &[1, 2], &[10]);
            f.ingest(1, day, &[7, 8], &[20]);
        }
        let out = f.align();
        assert_eq!(out.global_stories.len(), 2);
        assert_eq!(out.cross_source_stories().count(), 0);
    }

    #[test]
    fn temporally_disjoint_stories_do_not_align() {
        let mut f = Fixture::new(2);
        // Same content, but source 1 reports it three months later —
        // "highly unlikely" to be the same story (§2.3).
        for day in 0..3 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day + 90, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 0);
    }

    #[test]
    fn lagged_source_still_aligns() {
        let mut f = Fixture::new(2);
        // Source 1 reports each event one day later (typical lag).
        for day in 0..5 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day + 1, &[1, 2], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
    }

    #[test]
    fn enriching_snippets_are_classified() {
        let mut f = Fixture::new(2);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        // A source-0 exclusive background report: same entities (so it
        // stays in the story) but distinct description terms and no
        // same-time counterpart.
        let special = f.ingest(0, 2, &[1, 2], &[30, 31, 32]);
        let out = f.align();
        let g = out
            .global_story(*out.snippet_to_global.get(&special).unwrap())
            .unwrap();
        assert_eq!(g.role_of(special), Some(SnippetRole::Enriching));
        assert!(g.aligning().count() >= 8);
    }

    #[test]
    fn singleton_stories_survive_alignment() {
        let mut f = Fixture::new(2);
        f.ingest(0, 0, &[1], &[10]);
        let out = f.align();
        assert_eq!(out.global_stories.len(), 1);
        let g = &out.global_stories[0];
        assert!(!g.is_cross_source());
        // Single-source members are enriching by definition.
        assert_eq!(g.enriching().count(), 1);
    }

    #[test]
    fn three_sources_chain_into_one_global_story() {
        let mut f = Fixture::new(3);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2, 3], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
            f.ingest(2, day, &[2, 3], &[10, 11]);
        }
        let out = f.align();
        assert_eq!(out.cross_source_stories().count(), 1);
        assert_eq!(out.cross_source_stories().next().unwrap().source_count(), 3);
    }

    #[test]
    fn incremental_alignment_matches_full() {
        let mut f = Fixture::new(2);
        for day in 0..4 {
            f.ingest(0, day, &[1, 2], &[10, 11]);
            f.ingest(1, day, &[1, 2], &[10, 11]);
        }
        let aligner = Aligner::new(AlignConfig::default(), SimWeights::default());
        let full0 = aligner.align(&f.states(), &f.store);

        // New snippets arrive in source 1 (dirtying its story).
        let v = f.ingest(1, 4, &[1, 2], &[10, 11]);
        let dirty_story = f.idents[1].story_of(v).unwrap();
        let dirty: HashSet<StoryId> = [dirty_story].into_iter().collect();

        let incremental = aligner.align_incremental(&f.states(), &f.store, &full0, &dirty);
        let full1 = aligner.align(&f.states(), &f.store);

        // Same grouping (compare member-story partitions).
        let partition = |o: &AlignOutcome| -> Vec<Vec<StoryId>> {
            let mut p: Vec<Vec<StoryId>> = o
                .global_stories
                .iter()
                .map(|g| g.member_stories.clone())
                .collect();
            p.sort();
            p
        };
        assert_eq!(partition(&incremental), partition(&full1));
        // And the incremental pass scored fewer or equal pairs.
        assert!(incremental.pairs_scored <= full1.pairs_scored);
    }

    #[test]
    fn sketch_mode_agrees_on_clear_cases() {
        let mut f = Fixture::new(2);
        for day in 0..5 {
            f.ingest(0, day, &[1, 2, 3, 4], &[10, 11, 12]);
            f.ingest(1, day, &[1, 2, 3, 4], &[10, 11, 12]);
            f.ingest(0, day, &[50, 51], &[60, 61]);
        }
        let cfg = AlignConfig {
            use_sketches: true,
            ..AlignConfig::default()
        };
        let out = Aligner::new(cfg, SimWeights::default()).align(&f.states(), &f.store);
        assert_eq!(out.cross_source_stories().count(), 1);
    }

    #[test]
    fn empty_input_aligns_to_nothing() {
        let f = Fixture::new(1);
        let out = f.align();
        assert!(out.global_stories.is_empty());
        assert_eq!(out.pairs_scored, 0);
    }
}
