//! The output check and story quality against ground truth.

use std::collections::{BTreeMap, HashSet};

use storypivot_core::refine::story_source;
use storypivot_eval::metrics::{pairwise_counts, Clustering, PairCounts};
use storypivot_gen::GroundTruth;
use storypivot_serve::proto::StorySummary;
use storypivot_types::{SnippetId, StoryId};

/// Every acknowledged snippet must be in exactly one story, and no
/// snippet that was never acknowledged may be served. Snippets of a
/// partially acknowledged batch may be either. Returns the violations
/// found (empty when the partition is correct).
pub fn check_partition(
    stories: &[StorySummary],
    acked: &[SnippetId],
    uncertain: &[SnippetId],
) -> Vec<String> {
    let acked: HashSet<SnippetId> = acked.iter().copied().collect();
    let uncertain: HashSet<SnippetId> = uncertain.iter().copied().collect();
    let mut seen: HashSet<SnippetId> = HashSet::with_capacity(acked.len());
    let mut problems = Vec::new();
    for story in stories {
        for &m in &story.members {
            if !seen.insert(m) {
                problems.push(format!("snippet {m} appears in more than one story"));
            } else if !acked.contains(&m) && !uncertain.contains(&m) {
                problems.push(format!("snippet {m} was never acknowledged but is served"));
            }
        }
    }
    let missing = acked.iter().filter(|id| !seen.contains(id)).count();
    if missing > 0 {
        problems.push(format!(
            "{missing} acknowledged snippets are missing from the partition"
        ));
    }
    problems.truncate(20);
    problems
}

/// Pairwise F1 of a per-source partition against the ground truth,
/// micro-averaged over sources: pair counts are summed across sources
/// before precision and recall are taken. Story ids are partitioned by
/// source, so a story's source is read off its id.
pub fn pair_f1<'a>(
    partition: impl IntoIterator<Item = (StoryId, &'a [SnippetId])>,
    truth: &GroundTruth,
) -> f64 {
    let mut per_source: BTreeMap<u32, (Clustering, Clustering)> = BTreeMap::new();
    for (story, members) in partition {
        for member in members {
            let Some(label) = truth.label_of(*member) else {
                continue;
            };
            let (pred, gold) = per_source.entry(story_source(story).raw()).or_default();
            pred.assign(member.raw() as u64, story.raw() as u64);
            gold.assign(member.raw() as u64, label as u64);
        }
    }
    let mut total = PairCounts::default();
    for (pred, gold) in per_source.values() {
        total.add(pairwise_counts(pred, gold));
    }
    total.scores().f1
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_core::identify::STORY_ID_STRIDE;
    use storypivot_types::{SourceId, TimeRange, Timestamp};

    fn story(id: u32, members: &[u32]) -> StorySummary {
        StorySummary {
            id: StoryId::new(id),
            source: SourceId::new(0),
            lifespan: TimeRange::new(Timestamp::from_secs(0), Timestamp::from_secs(1)),
            members: members.iter().map(|&m| SnippetId::new(m)).collect(),
        }
    }

    fn ids(v: &[u32]) -> Vec<SnippetId> {
        v.iter().map(|&m| SnippetId::new(m)).collect()
    }

    #[test]
    fn partition_check_accepts_exact_cover_only() {
        let stories = [story(1, &[1, 2]), story(2, &[3])];
        assert!(check_partition(&stories, &ids(&[1, 2, 3]), &[]).is_empty());
        // Missing acknowledged snippet.
        assert_eq!(check_partition(&stories, &ids(&[1, 2, 3, 4]), &[]).len(), 1);
        // Served snippet that was never acknowledged...
        assert_eq!(check_partition(&stories, &ids(&[1, 2]), &[]).len(), 1);
        // ... unless its batch was only partly acknowledged.
        assert!(check_partition(&stories, &ids(&[1, 2]), &ids(&[3])).is_empty());
        // Duplicate membership.
        let dup = [story(1, &[1, 2]), story(2, &[2])];
        assert!(!check_partition(&dup, &ids(&[1, 2]), &[]).is_empty());
    }

    #[test]
    fn f1_is_micro_averaged_per_source() {
        let mut truth = GroundTruth::new();
        for (snippet, label, source) in [(1, 10, 0), (2, 10, 0), (3, 11, 0), (4, 20, 1), (5, 20, 1)]
        {
            truth.record(SnippetId::new(snippet), label, SourceId::new(source));
        }
        let s1 = STORY_ID_STRIDE;
        let perfect = [
            (StoryId::new(0), ids(&[1, 2])),
            (StoryId::new(1), ids(&[3])),
            (StoryId::new(s1), ids(&[4, 5])),
        ];
        let f1 = pair_f1(perfect.iter().map(|(s, m)| (*s, m.as_slice())), &truth);
        assert!((f1 - 1.0).abs() < 1e-12);
        // Lumping source 0 into one story: pairs 3 predicted, 1 true in
        // source 0; source 1 perfect. Micro: tp 2, pred 4, actual 2.
        let lumped = [
            (StoryId::new(0), ids(&[1, 2, 3])),
            (StoryId::new(s1), ids(&[4, 5])),
        ];
        let f1 = pair_f1(lumped.iter().map(|(s, m)| (*s, m.as_slice())), &truth);
        let (p, r) = (2.0 / 4.0, 1.0);
        assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }
}
