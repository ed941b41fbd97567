//! Overload behavior of the read and write paths: snapshot staleness
//! stays inside the freshness policy across a worker stall, concurrent
//! degraded reads never observe a torn snapshot, and deadline-expired
//! writes are shed before the WAL or engine see them.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::{BackoffPolicy, Client};
use storypivot_serve::server::{serve, ServerConfig};
use storypivot_serve::IngestReply;
use storypivot_substrate::metrics::sample;

fn corpus(seed: u64, events: usize) -> Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed)
            .with_sources(1)
            .with_target_snippets(events),
    )
    .build()
}

fn register_all(client: &mut Client, corpus: &Corpus) {
    for source in &corpus.sources {
        let got = client.add_source(&source.name, source.kind, source.typical_lag).unwrap();
        assert_eq!(got, source.id);
    }
}

/// Total snippets visible through the served partition.
fn visible_members(client: &mut Client) -> usize {
    client.query_stories().unwrap().iter().map(|s| s.members.len()).sum()
}

/// `snapshot_every_ops` large enough to never trigger on its own: reads
/// go stale while writes land. The moment the worker touches its next
/// job past `snapshot_max_age_ms`, everything applied so far must be
/// published — a stalled-then-resumed worker cannot exceed the bound.
#[test]
fn held_back_writes_republish_within_the_freshness_bound() {
    let cfg = ServerConfig {
        shards: 1,
        align_every: 0,
        snapshot_every_ops: 1_000_000,
        snapshot_max_age_ms: 40,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let corpus = corpus(29, 12);
    register_all(&mut client, &corpus);
    let (first, last) = corpus.snippets.split_at(corpus.snippets.len() - 1);
    for snippet in first {
        client.ingest_backoff(snippet, Default::default()).unwrap();
    }

    // Stall: no jobs arrive while the snapshot goes stale past the bound.
    std::thread::sleep(Duration::from_millis(80));

    // Resume with one more write. The worker must publish the held-back
    // ops (stale past 40ms) *before* applying it, so everything acked
    // before the stall is immediately visible.
    client.ingest_backoff(&last[0], Default::default()).unwrap();
    assert!(
        visible_members(&mut client) >= first.len(),
        "resume must republish every write acked before the stall"
    );

    // Any job past the bound flushes the remainder — a read-only
    // METRICS probe (itself a shard-queue job) is enough; no further
    // writes are required.
    std::thread::sleep(Duration::from_millis(80));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let _ = client.metrics().unwrap();
        if visible_members(&mut client) == corpus.snippets.len() {
            break;
        }
        assert!(Instant::now() < deadline, "final write never became visible");
        std::thread::sleep(Duration::from_millis(10));
    }

    client.shutdown().unwrap();
    handle.join();
}

/// Readers hammer QUERY_STORIES while writers saturate a depth-1 queue:
/// every response must be an internally consistent snapshot (no member
/// in two stories, visible history never shrinks), and the reads taken
/// while the queue was full must show up in
/// `storypivot_degraded_reads_total`.
#[test]
fn degraded_reads_never_observe_a_torn_snapshot() {
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        align_every: 0,
        worker_delay: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();
    let mut setup = Client::connect(addr).unwrap();

    let corpus = corpus(31, 45);
    register_all(&mut setup, &corpus);

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = corpus
        .snippets
        .chunks(corpus.snippets.len() / 3)
        .map(|chunk| {
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let policy = BackoffPolicy { max_attempts: 1_000, ..BackoffPolicy::default() };
                for snippet in &chunk {
                    client.ingest_backoff(snippet, policy).unwrap();
                }
            })
        })
        .collect();

    let reader = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut floor = 0usize;
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let stories = client.query_stories().unwrap();
                let mut seen = BTreeSet::new();
                for story in &stories {
                    for m in &story.members {
                        assert!(seen.insert(m.raw()), "snippet {m} appears in two stories");
                    }
                }
                assert!(
                    seen.len() >= floor,
                    "visible history shrank from {floor} to {} members",
                    seen.len()
                );
                floor = seen.len();
                reads += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            reads
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 10, "the reader must have raced the writers");

    // With three writers against a depth-1 queue, some reads landed
    // while the queue sat full — the degraded-read counter saw them.
    let exposition = setup.metrics().unwrap();
    assert!(
        sample(&exposition, "storypivot_degraded_reads_total", &[]).unwrap() > 0.0,
        "saturated-queue reads must be counted as degraded"
    );

    setup.shutdown().unwrap();
    handle.join();
}

/// With a 1 ms budget against a 25 ms worker delay every single-snippet
/// ingest expires in queue: the reply is SHED with a retry hint, the
/// engine never sees the snippet, and the shed counter records it.
#[test]
fn expired_work_is_shed_before_it_touches_the_engine() {
    let cfg = ServerConfig {
        shards: 1,
        align_every: 0,
        worker_delay: Duration::from_millis(25),
        deadline_ms: 1,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let corpus = corpus(37, 4);
    register_all(&mut client, &corpus);

    let mut shed = 0u32;
    for snippet in &corpus.snippets {
        match client.ingest(snippet).unwrap() {
            IngestReply::Shed { retry_after_ms } => {
                assert!(retry_after_ms >= 1, "shed replies must carry a retry hint");
                shed += 1;
            }
            other => panic!("expected SHED under an expired budget, got {other:?}"),
        }
    }
    assert_eq!(shed, corpus.snippets.len() as u32);

    // Shed before the engine: nothing was applied, only counted.
    assert_eq!(visible_members(&mut client), 0, "shed writes must not reach the engine");
    let exposition = client.metrics().unwrap();
    assert_eq!(sample(&exposition, "storypivot_shed_total", &[("shard", "0")]), Some(shed as f64));

    client.shutdown().unwrap();
    handle.join();
}
