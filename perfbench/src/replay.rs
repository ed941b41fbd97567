//! In-process replay of a run's inputs through each layer's public
//! functions, in the order a `pivotd` shard makes the same calls.
//!
//! One thread, one engine per shard (sources routed by `source mod
//! shards`, as the server routes them). Per request:
//!
//! 1. `Request::encode`, then `Request::decode_borrowed` (+ `to_owned`);
//! 2. per snippet `ReplayOp::to_bytes`, `Wal::append`, and `Wal::sync`
//!    on the workload's fsync cadence (the journal is opened with
//!    `SyncPolicy::Never` so append and sync are timed apart);
//! 3. `StoryPivot::ingest_detailed` with live `EngineMetrics` attached;
//! 4. `align_incremental` on the server's `--align-every` cadence;
//! 5. the snapshot rebuild `publish_snapshot` performs:
//!    `story_partition`, `story(id).lifespan()`, the sort, the publish;
//! 6. the reply's `Response::encode`.
//!
//! Then the read path answers a fixed set of reads over the snapshots
//! the ingest left: [`QUERIES`] QUERY_STORIES (the merge of every
//! shard's snapshot) and one GET_STORY per story (a lookup), each with
//! its `Response::encode`. The served workloads send no reads, so this
//! is where the read path is measured. At drain, per shard:
//! `align_incremental`, `refine`, the snapshot rebuild,
//! `save_checkpoint` and `write_generation`.
//!
//! Spans are recorded only when traced; the untraced replay runs the
//! same calls and is the baseline the tracing overhead is measured
//! against.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use storypivot_core::checkpoint::write_generation;
use storypivot_core::refine::story_source;
use storypivot_core::{EngineMetrics, PivotConfig, ReplayOp, StoryPivot};
use storypivot_serve::proto::{Request, RequestRef, Response, StorySummary};
use storypivot_serve::snapshot::{ShardSnapshot, SnapshotSlot};
use storypivot_substrate::metrics::Registry;
use storypivot_substrate::wal::{SyncPolicy, Wal};
use storypivot_types::{Snippet, SnippetId, StoryId};

use crate::spans::{Span, Tracer};
use crate::workload::{Inputs, Op, Spec, SHARDS};

/// QUERY_STORIES answered by the read pass.
pub const QUERIES: u64 = 16;

/// What a replay measured and produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// The final per-source partition, ordered by story id.
    pub partition: Vec<(StoryId, Vec<SnippetId>)>,
    /// Wall time of the whole replay, drain included (s).
    pub wall_s: f64,
    /// Wall time until the drain started (s).
    pub ingest_wall_s: f64,
    /// Snippets ingested.
    pub snippets: u64,
    /// Ingest requests replayed (a batch is one request).
    pub requests: u64,
    /// GET_STORYs answered by the read pass.
    pub gets: u64,
    /// Framed bytes of the read pass's QUERY_STORIES replies.
    pub query_resp_bytes: u64,
    /// Encoded request bytes (framed) summed over requests.
    pub req_bytes: u64,
    /// Alignment passes during ingest (drain passes excluded).
    pub align_ms: Vec<f64>,
    /// Dirty stories at each ingest-time alignment pass.
    pub align_dirty: Vec<usize>,
    /// Refinement moves at drain.
    pub refine_moves: u64,
    /// Refinement time at drain, summed over shards (ms).
    pub refine_ms: f64,
    /// Checkpoint bytes written at drain.
    pub checkpoint_bytes: u64,
    /// Story members copied by each ingest's snapshot rebuild.
    pub copied: Vec<u64>,
    /// Identification time from the engine's own histogram (ns).
    pub identify_ns: u64,
    /// Spans (empty unless traced).
    pub spans: Vec<Span>,
}

struct Shard {
    engine: StoryPivot,
    since_align: usize,
    wal: Wal,
    appends: u32,
    slot: SnapshotSlot,
    epoch: u64,
}

/// Requests in the order the server receives them: the timed lanes
/// merged by due time.
fn requests(inputs: &Inputs) -> Vec<&Op> {
    let mut timed: Vec<(u64, usize, &Op)> = Vec::new();
    for lane in &inputs.lanes {
        for p in &lane.ops {
            timed.push((p.due, timed.len(), &p.op));
        }
    }
    timed.sort_by_key(|&(due, seq, _)| (due, seq));
    timed.into_iter().map(|(_, _, op)| op).collect()
}

/// Replay `inputs` under `spec`'s server settings, recording spans when
/// `traced`. `state_dir` receives the journals and checkpoints.
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    traced: bool,
    state_dir: &Path,
) -> std::io::Result<Replay> {
    std::fs::create_dir_all(state_dir)?;
    let registry = Registry::new();
    let metrics = EngineMetrics::register(&registry);
    let mut shards: Vec<Shard> = (0..SHARDS)
        .map(|i| -> std::io::Result<Shard> {
            let mut engine = StoryPivot::new(PivotConfig::default());
            engine.set_metrics(metrics.clone());
            let (wal, _) = Wal::open(&state_dir.join(format!("shard{i}.wal")), SyncPolicy::Never)?;
            Ok(Shard {
                engine,
                since_align: 0,
                wal,
                appends: 0,
                slot: SnapshotSlot::new(),
                epoch: 0,
            })
        })
        .collect::<std::io::Result<_>>()?;
    for source in &inputs.corpus.sources {
        shards[source.id.raw() as usize % SHARDS]
            .engine
            .add_source_registered(source.clone())
            .map_err(std::io::Error::other)?;
    }

    // Requests are built before the clock starts: they are the client's
    // work, not a layer's.
    let timed: Vec<Request> = requests(inputs)
        .into_iter()
        .map(|op| match op {
            Op::Ingest(s) => Request::IngestSnippet(s.clone()),
            Op::Batch(b) => Request::IngestBatch(b.clone()),
        })
        .collect();

    let mut buffers = (Vec::with_capacity(1 << 16), Vec::with_capacity(1 << 16));
    let identify_before = identify_ns(&registry);
    let mut out = Replay::default();
    let mut t = Tracer::new(traced);
    let start = Instant::now();
    let root = t.enter("replay", u32::MAX);
    for (n, req) in timed.iter().enumerate() {
        step(
            spec,
            &mut shards,
            req,
            n as u32,
            &mut t,
            &mut out,
            &mut buffers,
        )?;
    }
    out.ingest_wall_s = start.elapsed().as_secs_f64();

    // The read pass, over the snapshots the ingest left.
    let reads = t.enter("reads", u32::MAX);
    let mut op = timed.len() as u32;
    let resp = &mut buffers.1;
    for _ in 0..QUERIES {
        out.query_resp_bytes += read(&shards, &Request::QueryStories, op, &mut t, resp);
        op += 1;
    }
    let ids: Vec<StoryId> = shards
        .iter()
        .flat_map(|sh| {
            sh.slot
                .load()
                .stories
                .iter()
                .map(|s| s.id)
                .collect::<Vec<_>>()
        })
        .collect();
    for id in ids {
        read(&shards, &Request::GetStory(id), op, &mut t, resp);
        out.gets += 1;
        op += 1;
    }
    t.exit(reads);

    // Drain: what the server's SHUTDOWN does on every shard.
    let drain = t.enter("drain", u32::MAX);
    for (i, sh) in shards.iter_mut().enumerate() {
        t.span("align.pass", u32::MAX, || {
            sh.engine.align_incremental();
        });
        let r = Instant::now();
        let report = t.span("refine", u32::MAX, || sh.engine.refine());
        out.refine_ms += r.elapsed().as_secs_f64() * 1e3;
        out.refine_moves += report.move_count() as u64;
        t.span("snapshot.publish", u32::MAX, || publish(sh));
        let bytes = t.span("checkpoint.save", u32::MAX, || sh.engine.save_checkpoint());
        out.checkpoint_bytes += bytes.len() as u64;
        t.span("checkpoint.write", u32::MAX, || {
            write_generation(state_dir, i, 1, &bytes)
        })
        .map_err(std::io::Error::other)?;
    }
    t.exit(drain);
    t.exit(root);
    out.wall_s = start.elapsed().as_secs_f64();

    let mut partition: Vec<(StoryId, Vec<SnippetId>)> = shards
        .iter()
        .flat_map(|sh| sh.engine.story_partition())
        .collect();
    partition.sort_unstable_by_key(|(id, _)| *id);
    out.partition = partition;
    out.identify_ns = identify_ns(&registry) - identify_before;
    out.spans = t.spans().to_vec();
    Ok(out)
}

/// Identification time recorded so far by the engines' own histogram.
fn identify_ns(registry: &Registry) -> u64 {
    registry
        .snapshot()
        .histogram_value("storypivot_identify_duration_ns", &[])
        .map_or(0, |h| (h.mean() * h.count() as f64).round() as u64)
}

/// Replay one ingest request as op `op`: wire decode, then per snippet
/// the journal, the engine, the alignment cadence and the snapshot
/// rebuild; then the reply encode.
fn step(
    spec: &Spec,
    shards: &mut [Shard],
    req: &Request,
    op: u32,
    t: &mut Tracer,
    out: &mut Replay,
    (wire, resp): &mut (Vec<u8>, Vec<u8>),
) -> std::io::Result<()> {
    let top = t.enter("op", op);
    out.requests += 1;
    wire.clear();
    t.span("proto.encode", op, || req.encode(wire));
    out.req_bytes += 4 + wire.len() as u64;
    let snippets: Vec<Snippet> = t.span("proto.decode", op, || {
        match Request::decode_borrowed(wire) {
            Ok(RequestRef::IngestSnippet(s)) => vec![s.to_owned()],
            Ok(RequestRef::IngestBatch(b)) => b.to_owned(),
            Ok(_) => Vec::new(),
            Err(e) => panic!("replayed request failed to decode: {e}"),
        }
    });
    let mut last_story = StoryId::new(0);
    for snippet in snippets {
        let sh = &mut shards[snippet.source.raw() as usize % SHARDS];
        let bytes = t.span("oplog.encode", op, || {
            ReplayOp::Ingest(snippet.clone()).to_bytes()
        });
        let wal = &mut sh.wal;
        t.span("wal.append", op, || wal.append(&bytes))?;
        sh.appends += 1;
        let sync = match spec.fsync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(k) => sh.appends >= k,
            SyncPolicy::Never => false,
        };
        if sync {
            t.span("wal.sync", op, || wal.sync())?;
            sh.appends = 0;
        }
        let engine = &mut sh.engine;
        let decision = t
            .span("engine.ingest", op, || engine.ingest_detailed(snippet))
            .map_err(std::io::Error::other)?;
        last_story = decision.story;
        out.snippets += 1;
        sh.since_align += 1;
        if spec.align_every > 0 && sh.since_align >= spec.align_every {
            out.align_dirty.push(sh.engine.dirty_count());
            let a = Instant::now();
            t.span("align.pass", op, || {
                sh.engine.align_incremental();
            });
            out.align_ms.push(a.elapsed().as_secs_f64() * 1e3);
            sh.since_align = 0;
        }
        let copied = t.span("snapshot.publish", op, || publish(sh));
        out.copied.push(copied);
    }
    let response = match req {
        Request::IngestBatch(b) => Response::BatchIngested(b.len() as u32),
        _ => Response::Ingested(last_story),
    };
    resp.clear();
    t.span("proto.resp_encode", op, || response.encode(resp));
    t.exit(top);
    Ok(())
}

/// Answer one read as an I/O worker does, from the published snapshots:
/// QUERY_STORIES merges every shard's stories (span `read.query`),
/// GET_STORY looks one up in its shard's (span `read.get`); the reply's
/// encode is a child span. Returns the framed reply bytes.
fn read(shards: &[Shard], req: &Request, op: u32, t: &mut Tracer, resp: &mut Vec<u8>) -> u64 {
    let top = t.enter(
        if matches!(req, Request::QueryStories) {
            "read.query"
        } else {
            "read.get"
        },
        op,
    );
    let response = match req {
        Request::GetStory(id) => match shards[story_source(*id).raw() as usize % SHARDS]
            .slot
            .load()
            .get(*id)
        {
            Some(s) => Response::Story(s.clone()),
            None => Response::from_error(&storypivot_types::Error::UnknownStory(*id)),
        },
        _ => {
            let mut stories = Vec::new();
            for sh in shards {
                stories.extend_from_slice(&sh.slot.load().stories);
            }
            stories.sort_unstable_by_key(|s: &StorySummary| s.id);
            Response::Stories(stories)
        }
    };
    resp.clear();
    t.span("proto.resp_encode", op, || response.encode(resp));
    t.exit(top);
    4 + resp.len() as u64
}

/// The snapshot rebuild `pivotd` runs after every applied op: the
/// id-sorted partition with lifespans, swapped into the shard's slot.
/// Returns the story members copied.
fn publish(sh: &mut Shard) -> u64 {
    let pivot = &sh.engine;
    let mut copied = 0u64;
    let mut stories: Vec<StorySummary> = pivot
        .story_partition()
        .into_iter()
        .map(|(id, members)| {
            copied += members.len() as u64;
            StorySummary {
                id,
                source: story_source(id),
                lifespan: pivot
                    .story(id)
                    .expect("partitioned story exists")
                    .lifespan(),
                members,
            }
        })
        .collect();
    stories.sort_unstable_by_key(|s| s.id);
    sh.epoch += 1;
    sh.slot.publish(Arc::new(ShardSnapshot {
        epoch: sh.epoch,
        stories,
    }));
    copied
}
