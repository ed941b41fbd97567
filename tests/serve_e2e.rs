//! End-to-end serving tests: a loopback pivotd server must reach the
//! same story partition as in-process ingest of the same corpus, BUSY
//! backpressure must engage (and recover) under a tiny queue, and a
//! graceful SHUTDOWN must leave a restorable checkpoint.

use std::path::PathBuf;

use storypivot::core::config::PivotConfig;
use storypivot::core::pivot::StoryPivot;
use storypivot::gen::{CorpusBuilder, GenConfig};
use storypivot::serve::client::Client;
use storypivot::serve::load::{replay, LoadOptions};
use storypivot::serve::server::{serve, ServerConfig};
use storypivot::serve::{BackoffPolicy, IngestReply};
use storypivot::substrate::metrics::sample;
use storypivot::types::{EntityId, Snippet, SnippetId, SourceKind, TermId, Timestamp};

/// The story partition as (story id, sorted member ids), sorted by id —
/// the serving layer's summaries and the engine's own partition project
/// onto the same shape.
type Partition = Vec<(u32, Vec<u32>)>;

fn partition_of_engine(pivot: &StoryPivot) -> Partition {
    pivot
        .story_partition()
        .into_iter()
        .map(|(id, members)| (id.raw(), members.into_iter().map(|m| m.raw()).collect()))
        .collect()
}

fn partition_of_summaries(summaries: &[storypivot::serve::StorySummary]) -> Partition {
    let mut out: Partition = summaries
        .iter()
        .map(|s| (s.id.raw(), s.members.iter().map(|m| m.raw()).collect()))
        .collect();
    out.sort();
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// align_every = 0 aligns only when draining, so the engine's state is
/// a pure function of the per-shard ingest sequence — exactly what the
/// wire adds nothing to. That makes served-vs-in-process equality exact
/// rather than approximate.
fn flush_only_config(shards: usize, checkpoint_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        shards,
        align_every: 0,
        checkpoint_dir,
        ..ServerConfig::default()
    }
}

#[test]
fn served_partition_matches_in_process_and_checkpoint_restores() {
    for align_every in [0, 16] {
        served_partition_matches_twin(align_every);
    }
}

/// One shard running `align_every` against an in-process `StoryPivot`
/// twin that ingests the same stream and aligns at the same cadence.
fn served_partition_matches_twin(align_every: usize) {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(42).with_sources(4).with_target_snippets(300),
    )
    .build();
    let ckpt = scratch_dir(&format!("single-align{align_every}"));

    let cfg = ServerConfig { align_every, ..flush_only_config(1, Some(ckpt.clone())) };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    let report = replay(addr, &corpus, &LoadOptions { connections: 1, ..LoadOptions::default() })
        .unwrap();
    assert_eq!(report.events as usize, corpus.len());

    // In-process twin: same config, same cadence, same delivery order.
    let mut twin = StoryPivot::new(PivotConfig::default());
    for source in &corpus.sources {
        twin.add_source_with_lag(source.name.clone(), source.kind, source.typical_lag);
    }
    for (i, snippet) in corpus.snippets.iter().enumerate() {
        twin.ingest(snippet.clone()).unwrap();
        if align_every > 0 && (i + 1) % align_every == 0 {
            twin.align_incremental();
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let served = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(served, partition_of_engine(&twin), "served partition must match in-process");

    let text = client.metrics().unwrap();
    assert_eq!(sample(&text, "storypivot_ingest_total", &[]), Some(corpus.len() as f64));
    // The shard ran its cadence on live ingests and nowhere else.
    let align_runs = corpus.len().checked_div(align_every).unwrap_or(0);
    assert_eq!(
        sample(&text, "storypivot_align_runs_total", &[]),
        Some(align_runs as f64),
        "align_every = {align_every}"
    );
    // Exactly one shard: its labelled series exist, a second's do not.
    let capacity =
        |shard: &str| sample(&text, "storypivot_shard_queue_capacity", &[("shard", shard)]);
    assert!(capacity("0").is_some());
    assert_eq!(capacity("1"), None);

    // Graceful shutdown: the ack means drained + checkpointed (a
    // generation-numbered file written atomically via temp + rename).
    client.shutdown().unwrap();
    handle.join();
    let (restored, generation) =
        storypivot::core::checkpoint::load_newest(&ckpt, 0, PivotConfig::default())
            .unwrap()
            .expect("shutdown must write a shard 0 checkpoint generation");
    assert!(generation >= 1, "shutdown checkpoint must carry a generation");

    // The checkpoint restores the *drained* engine (drain runs a final
    // align + refine before saving) — drain the twin to match.
    twin.align_incremental();
    twin.refine();
    assert_eq!(
        partition_of_engine(&restored),
        partition_of_engine(&twin),
        "restored checkpoint must match the drained in-process engine"
    );
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn sharded_server_matches_sharded_in_process_replica() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(43).with_sources(6).with_target_snippets(400),
    )
    .build();

    let shards = 3;
    let handle = serve("127.0.0.1:0", flush_only_config(shards, None)).unwrap();
    let addr = handle.addr();

    // Connections = shards, so lane k (sources ≡ k mod 3) feeds shard k
    // in exactly per-lane delivery order.
    let report = replay(
        addr,
        &corpus,
        &LoadOptions { connections: shards, ..LoadOptions::default() },
    )
    .unwrap();
    assert_eq!(report.events as usize, corpus.len());

    // In-process replica of the sharded topology.
    let mut replicas: Vec<StoryPivot> =
        (0..shards).map(|_| StoryPivot::new(PivotConfig::default())).collect();
    for source in &corpus.sources {
        let shard = source.id.raw() as usize % shards;
        replicas[shard].add_source_registered(source.clone()).unwrap();
    }
    for snippet in &corpus.snippets {
        let shard = snippet.source.raw() as usize % shards;
        replicas[shard].ingest(snippet.clone()).unwrap();
    }
    let mut expected: Partition = replicas
        .iter()
        .flat_map(partition_of_engine)
        .collect();
    expected.sort();

    let mut client = Client::connect(addr).unwrap();
    let served = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(served, expected, "sharded served partition must match the sharded replica");

    // Story ids are partitioned by source, so per-source identification
    // is shard-invariant: every source contributes the same stories it
    // would in any other topology.
    let single_sourced: std::collections::BTreeSet<u32> = served
        .iter()
        .map(|(id, _)| id / storypivot::core::identify::STORY_ID_STRIDE)
        .collect();
    assert!(single_sourced.len() > 1, "multiple sources must own stories");

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn tiny_queue_pushes_back_with_busy_and_recovers() {
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        align_every: 0,
        retry_after_ms: 5,
        worker_delay: std::time::Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    let mut setup = Client::connect(addr).unwrap();
    setup.add_source("slow", SourceKind::Wire, 0).unwrap();

    // Three producers hammer a 1-deep queue served at 10 ms/job: pushes
    // must bounce with BUSY, and retrying must land every snippet.
    let producers = 3u32;
    let per_producer = 5u32;
    let mut threads = Vec::new();
    for p in 0..producers {
        threads.push(std::thread::spawn(move || -> (u64, u32) {
            let mut client = Client::connect(addr).unwrap();
            let mut busy = 0u64;
            for i in 0..per_producer {
                let id = p * per_producer + i;
                let snippet = Snippet::builder(
                    SnippetId::new(id),
                    storypivot::types::SourceId::new(0),
                    Timestamp::from_secs(i as i64 * 3_600),
                )
                .entity(EntityId::new(id % 3), 1.0)
                .term(TermId::new(id % 3), 1.0)
                .build();
                // First a raw attempt so BUSY is observable, then retry
                // until the snippet lands.
                match client.ingest(&snippet).unwrap() {
                    IngestReply::Assigned(_) => {}
                    IngestReply::Busy { retry_after_ms }
                    | IngestReply::Shed { retry_after_ms } => {
                        busy += 1;
                        assert!(retry_after_ms > 0, "BUSY must carry a retry hint");
                        std::thread::sleep(std::time::Duration::from_millis(retry_after_ms as u64));
                        let policy =
                            BackoffPolicy { max_attempts: 1_001, ..BackoffPolicy::default() };
                        client.ingest_backoff(&snippet, policy).unwrap();
                    }
                }
            }
            (busy, per_producer)
        }));
    }
    let mut busy_total = 0u64;
    let mut sent = 0u32;
    for t in threads {
        let (busy, n) = t.join().unwrap();
        busy_total += busy;
        sent += n;
    }
    assert_eq!(sent, producers * per_producer);
    assert!(
        busy_total > 0,
        "three producers on a 1-deep, 10ms-per-job queue must see BUSY at least once"
    );

    // Every snippet eventually landed, and the server counted the
    // rejections it issued.
    let text = setup.metrics().unwrap();
    assert_eq!(
        sample(&text, "storypivot_ingest_total", &[]),
        Some((producers * per_producer) as f64)
    );
    // One shard, so its BUSY gauge is the server-wide total.
    let busy_rejections = sample(&text, "storypivot_shard_busy_rejections", &[("shard", "0")]);
    assert!(busy_rejections.unwrap() >= busy_total as f64);

    setup.shutdown().unwrap();
    handle.join();
}

#[test]
fn metrics_exposition_matches_in_process_engine() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(44).with_sources(3).with_target_snippets(250),
    )
    .build();

    // One shard so the served engine sees the exact same ingest
    // sequence as the in-process twin.
    let handle = serve("127.0.0.1:0", flush_only_config(1, None)).unwrap();
    let addr = handle.addr();
    let report = replay(addr, &corpus, &LoadOptions { connections: 1, ..LoadOptions::default() })
        .unwrap();
    assert_eq!(report.events as usize, corpus.len());

    // Twin with its own live registry, fed identically.
    let registry = storypivot::substrate::metrics::Registry::new();
    let mut twin = StoryPivot::new(PivotConfig::default());
    twin.set_metrics(storypivot::core::EngineMetrics::register(&registry));
    for source in &corpus.sources {
        twin.add_source_with_lag(source.name.clone(), source.kind, source.typical_lag);
    }
    for snippet in &corpus.snippets {
        twin.ingest(snippet.clone()).unwrap();
    }
    let twin_metrics = twin.metrics().clone();

    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap();

    // Counter values in the exposition must equal engine-side truth.
    assert_eq!(sample(&text, "storypivot_ingest_total", &[]), Some(corpus.len() as f64));
    assert_eq!(
        sample(&text, "storypivot_identify_assigned_total", &[]),
        Some(twin_metrics.identify_assigned_total.get() as f64),
    );
    assert_eq!(
        sample(&text, "storypivot_identify_new_story_total", &[]),
        Some(twin_metrics.identify_new_story_total.get() as f64),
    );
    assert_eq!(
        sample(&text, "storypivot_identify_compared_total", &[]),
        Some(twin_metrics.identify_compared_total.get() as f64),
    );
    // The per-stage duration histogram saw one observation per snippet.
    assert_eq!(
        sample(&text, "storypivot_identify_duration_ns_count", &[]),
        Some(corpus.len() as f64),
    );
    // Exposition structure: HELP/TYPE headers and the shard-labeled
    // serving series are present.
    assert!(text.contains("# HELP storypivot_ingest_total"));
    assert!(text.contains("# TYPE storypivot_ingest_total counter"));
    assert!(text.contains("storypivot_shard_queue_capacity{shard=\"0\"}"));
    assert!(text.contains("storypivot_shard_ingest_latency_ns_count{shard=\"0\"}"));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn metrics_merge_across_shards_sums_counters() {
    let corpus = CorpusBuilder::new(
        GenConfig::default().with_seed(45).with_sources(6).with_target_snippets(300),
    )
    .build();
    let shards = 3;
    let handle = serve("127.0.0.1:0", flush_only_config(shards, None)).unwrap();
    let addr = handle.addr();
    replay(addr, &corpus, &LoadOptions { connections: shards, ..LoadOptions::default() }).unwrap();

    let mut client = Client::connect(addr).unwrap();
    let text = client.metrics().unwrap();
    // Engine counters are shard-invariant: the merged total equals the
    // full corpus no matter how sources were partitioned.
    assert_eq!(sample(&text, "storypivot_ingest_total", &[]), Some(corpus.len() as f64));
    assert_eq!(
        sample(&text, "storypivot_identify_duration_ns_count", &[]),
        Some(corpus.len() as f64),
    );
    // Every shard's labeled serving series survives the merge.
    for shard in 0..shards {
        assert!(
            text.contains(&format!("storypivot_shard_queue_capacity{{shard=\"{shard}\"}}")),
            "missing shard {shard} series in:\n{text}"
        );
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn shutdown_is_idempotent_and_drains_pending_work() {
    let cfg = ServerConfig {
        shards: 2,
        align_every: 0,
        worker_delay: std::time::Duration::from_millis(2),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    client.add_source("a", SourceKind::Wire, 0).unwrap();
    client.add_source("b", SourceKind::Blog, 0).unwrap();
    let batch: Vec<Snippet> = (0..40u32)
        .map(|i| {
            Snippet::builder(
                SnippetId::new(i),
                storypivot::types::SourceId::new(i % 2),
                Timestamp::from_secs(i as i64 * 3_600),
            )
            .entity(EntityId::new(i % 5), 1.0)
            .build()
        })
        .collect();
    assert_eq!(client.ingest_batch(batch).unwrap(), 40);

    // Two concurrent SHUTDOWNs: both must ack, neither may hang.
    let second = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.shutdown()
    });
    client.shutdown().unwrap();
    second.join().unwrap().unwrap();
    handle.join();
}

#[test]
fn query_storm_bypasses_the_shard_write_queue() {
    // A 1-deep queue drained at 100 ms/job: if reads still enqueued,
    // a 100-query storm would need ≥ 10 s and trip BUSY constantly.
    // Served from the published snapshots they finish in milliseconds
    // and the write queue stays empty throughout.
    let cfg = ServerConfig {
        shards: 1,
        queue_depth: 1,
        align_every: 0,
        worker_delay: std::time::Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.add_source("s", SourceKind::Wire, 0).unwrap();
    let snippet = Snippet::builder(
        SnippetId::new(0),
        storypivot::types::SourceId::new(0),
        Timestamp::from_secs(0),
    )
    .entity(EntityId::new(1), 1.0)
    .build();
    let story = match client.ingest(&snippet).unwrap() {
        IngestReply::Assigned(id) => id,
        other => panic!("expected assignment, got {other:?}"),
    };

    let storm = 100u64;
    let start = std::time::Instant::now();
    for _ in 0..storm / 2 {
        let stories = client.query_stories().unwrap();
        assert_eq!(stories.len(), 1, "snapshot must already hold the acked ingest");
        let got = client.get_story(story).unwrap();
        assert_eq!(got.id, story);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "query storm took {elapsed:?} — reads are riding the write queue again"
    );

    // Every snapshot-served read was counted, and the queue was empty
    // when the shard measured itself (the metrics job is the only rider).
    let text = client.metrics().unwrap();
    let shard0 = &[("shard", "0")];
    assert_eq!(sample(&text, "storypivot_shard_queries_total", shard0), Some(storm as f64));
    assert_eq!(
        sample(&text, "storypivot_shard_queue_depth", shard0),
        Some(0.0),
        "reads must not occupy the write queue"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn pipelined_requests_return_in_order_past_the_pipeline_cap() {
    // Write a burst of requests without reading a single response, then
    // collect them all: replies must arrive in request order even
    // though shards complete out of order, and the burst is larger than
    // max_pipeline so the server must stall reads and resume without
    // losing a frame.
    let handle = serve(
        "127.0.0.1:0",
        ServerConfig {
            shards: 4,
            align_every: 0,
            max_pipeline: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.add_source("pipelined", SourceKind::Wire, 0).unwrap();

    let reqs: Vec<storypivot::serve::Request> = (0..64u32)
        .map(|i| {
            storypivot::serve::Request::IngestSnippet(
                Snippet::builder(
                    SnippetId::new(i),
                    storypivot::types::SourceId::new(0),
                    Timestamp::from_secs(i as i64 * 3_600),
                )
                .entity(EntityId::new(777), 1.0)
                .build(),
            )
        })
        .collect();
    let responses = client.pipelined(&reqs).unwrap();
    assert_eq!(responses.len(), 64);
    for (i, resp) in responses.iter().enumerate() {
        match resp {
            storypivot::serve::Response::Ingested(_) => {}
            other => panic!("request {i}: expected Ingested, got {other:?}"),
        }
    }

    // Interleave kinds: the reply *types* prove ordering (a swap would
    // pair a query with an ingest slot).
    let mixed = vec![
        storypivot::serve::Request::QueryStories,
        storypivot::serve::Request::Metrics,
        storypivot::serve::Request::QueryStories,
    ];
    let replies = client.pipelined(&mixed).unwrap();
    assert!(matches!(replies[0], storypivot::serve::Response::Stories(_)));
    assert!(matches!(replies[1], storypivot::serve::Response::Metrics { .. }));
    assert!(matches!(replies[2], storypivot::serve::Response::Stories(_)));
    match &replies[0] {
        storypivot::serve::Response::Stories(stories) => {
            assert_eq!(stories.iter().map(|s| s.members.len()).sum::<usize>(), 64)
        }
        _ => unreachable!(),
    }

    client.shutdown().unwrap();
    handle.join();
}
