//! The workloads: each fixes its corpus, its traffic and the server's
//! flags. Only the seed varies between runs, and the same seed gives
//! the same inputs.

use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_substrate::wal::SyncPolicy;
use storypivot_types::Snippet;

/// Snippets per INGEST_BATCH.
pub const BATCH: usize = 64;
/// Shards and I/O workers every workload's server runs with.
pub const SHARDS: usize = 2;

/// The two traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop single-snippet INGEST on two connections.
    PacedIngest,
    /// Closed-loop INGEST_BATCH on one connection, durable journal.
    BulkLoad,
}

/// A workload's fixed definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Traffic shape.
    pub kind: Kind,
    /// Corpus sources.
    pub sources: u32,
    /// Corpus size target (the generator lands near it).
    pub target_snippets: usize,
    /// Snippets sent in INGEST_BATCHes by a bulk load. A fixed count,
    /// so corpus sizes that vary with the seed do not vary the work.
    pub batch_snippets: usize,
    /// Open-loop ingest rate (ev/s); 0 for closed loop.
    pub ingest_rate: f64,
    /// Server `--align-every`.
    pub align_every: usize,
    /// Server `--fsync`.
    pub fsync: SyncPolicy,
    /// Served rounds per run (fresh server each), for medians of the
    /// per-round metrics.
    pub rounds: usize,
    /// Due-time windows per round for the latency percentiles (fewer
    /// when a window would hold under 1,000 samples).
    pub windows: usize,
}

impl Spec {
    /// The `pivotd` flags this workload runs with (state directories
    /// and the port file are added by the caller).
    pub fn server_flags(&self) -> Vec<String> {
        [
            "--shards",
            &SHARDS.to_string(),
            "--io-workers",
            "1",
            "--align-every",
            &self.align_every.to_string(),
            "--snapshot-every-ops",
            "1",
            "--fsync",
            &self.fsync.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Spec; 2] = [
    // Engine-bound: identification, periodic alignment passes that
    // stall a shard, and the per-op snapshot rebuild do most of the
    // work. The rate is about half of what the seed sustains closed-loop
    // on the whole corpus (about 2,600 ev/s on 2 cores). A round stops
    // after 8 s (9,600 snippets): per-op cost grows with the corpus,
    // and past about 18,000 snippets this rate saturates a shard. Five
    // rounds on separate corpora steady the per-round medians.
    Spec {
        name: "paced_ingest",
        kind: Kind::PacedIngest,
        sources: 8,
        target_snippets: 19_000,
        batch_snippets: 0,
        ingest_rate: 1_200.0,
        align_every: 256,
        fsync: SyncPolicy::EveryN(64),
        rounds: 5,
        windows: 12,
    },
    // Durable backfill: per-op fsync, the batch wire path and many
    // small per-source streams; alignment waits for the drain. A round
    // loads 4,000 snippets (about 0.4 s) and drains in under a second;
    // the drain's refinement grows faster than the corpus (about 3 s
    // at 8,000), so many small rounds give steadier medians than a few
    // large ones in the same time.
    Spec {
        name: "bulk_load",
        kind: Kind::BulkLoad,
        sources: 50,
        // The generator lands between about 5,100 and 9,200 snippets
        // for this target, so every round has its 4,000.
        target_snippets: 6_000,
        batch_snippets: 4_000,
        ingest_rate: 0.0,
        align_every: 0,
        fsync: SyncPolicy::Always,
        rounds: 30,
        windows: 1,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// One request of the timed phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// INGEST one snippet.
    Ingest(Snippet),
    /// INGEST_BATCH.
    Batch(Vec<Snippet>),
}

/// An op with its due time (ns after the timed phase starts). Closed
/// loop lanes ignore `due`: each op is due when the previous one is
/// acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due time, nanoseconds from the start of the timed phase.
    pub due: u64,
    /// The request.
    pub op: Op,
}

/// One connection's traffic.
#[derive(Debug, Clone, Default)]
pub struct Lane {
    /// Closed loop: send the next op only after the previous ack.
    pub closed: bool,
    /// Ops in send order.
    pub ops: Vec<Planned>,
}

/// Everything one run sends, derived from the seed alone.
pub struct Inputs {
    /// The generated corpus (sources, snippets, ground truth).
    pub corpus: Corpus,
    /// The timed phase's connections (at most two).
    pub lanes: Vec<Lane>,
}

fn ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// The seed of round `round` of a run: each round of a run gets its own
/// corpus, so a run's medians span several corpora.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut state = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    storypivot_substrate::rng::splitmix64(&mut state)
}

/// Build a run's inputs.
pub fn build(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    let corpus = CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed)
            .with_sources(spec.sources)
            .with_target_snippets(spec.target_snippets),
    )
    .build();
    let lanes = match spec.kind {
        Kind::PacedIngest => {
            // Snippet i is due at i / rate on the connection of its
            // source, so both connections follow one global schedule.
            let mut lanes = vec![Lane::default(), Lane::default()];
            let n = ((spec.ingest_rate * seconds) as usize).min(corpus.snippets.len());
            for (i, s) in corpus.snippets[..n].iter().enumerate() {
                lanes[s.source.raw() as usize % 2].ops.push(Planned {
                    due: ns(i as f64 / spec.ingest_rate),
                    op: Op::Ingest(s.clone()),
                });
            }
            lanes
        }
        Kind::BulkLoad => {
            let n = spec.batch_snippets.min(corpus.snippets.len());
            let batches = corpus.snippets[..n]
                .chunks(BATCH)
                .map(|c| Planned {
                    due: 0,
                    op: Op::Batch(c.to_vec()),
                })
                .collect();
            vec![Lane {
                closed: true,
                ops: batches,
            }]
        }
    };
    Inputs { corpus, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = by_name("paced_ingest").unwrap();
        let a = build(&spec, 3, 2.0);
        let b = build(&spec, 3, 2.0);
        assert_eq!(a.lanes[0].ops, b.lanes[0].ops);
        assert_eq!(a.lanes[1].ops, b.lanes[1].ops);
        let c = build(&spec, 4, 2.0);
        assert_ne!(a.lanes[0].ops, c.lanes[0].ops);
    }

    #[test]
    fn paced_schedule_splits_by_source_and_keeps_rate() {
        let spec = by_name("paced_ingest").unwrap();
        let inputs = build(&spec, 1, 2.0);
        let ingests: Vec<(u64, &Snippet)> = inputs
            .lanes
            .iter()
            .flat_map(|l| &l.ops)
            .filter_map(|p| match &p.op {
                Op::Ingest(s) => Some((p.due, s)),
                _ => None,
            })
            .collect();
        assert_eq!(ingests.len(), 2_400);
        for (k, lane) in inputs.lanes.iter().enumerate() {
            assert!(lane.ops.windows(2).all(|w| w[0].due <= w[1].due));
            for p in &lane.ops {
                if let Op::Ingest(s) = &p.op {
                    assert_eq!(s.source.raw() as usize % 2, k);
                }
            }
        }
        // Due order is the corpus order.
        let mut ingests = ingests;
        ingests.sort_by_key(|&(due, _)| due);
        let order: Vec<_> = ingests.iter().map(|(_, s)| s.id).collect();
        let corpus: Vec<_> = inputs.corpus.snippets[..2_400]
            .iter()
            .map(|s| s.id)
            .collect();
        assert_eq!(order, corpus);
    }

    #[test]
    fn batch_workloads_send_a_fixed_count() {
        for seed in 0..20 {
            let spec = by_name("bulk_load").unwrap();
            let inputs = build(&spec, round_seed(seed, 0), 1.0);
            let sent: usize = inputs.lanes[0]
                .ops
                .iter()
                .map(|p| match &p.op {
                    Op::Batch(b) => b.len(),
                    _ => 0,
                })
                .sum();
            assert_eq!(sent, spec.batch_snippets, "seed {seed}");
        }
        assert_ne!(round_seed(1, 0), round_seed(1, 1));
        assert_eq!(round_seed(1, 1), round_seed(1, 1));
    }
}
