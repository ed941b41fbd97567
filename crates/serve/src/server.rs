//! The sharded, backpressured, crash-safe TCP server.
//!
//! Topology: one acceptor thread, a fixed pool of connection-
//! multiplexing *I/O worker* threads, and N *shard* worker threads.
//! Each shard owns a full [`StoryPivot`] engine holding a disjoint
//! subset of sources (`source id mod N`), so identification — which is
//! per-source by construction (paper §2.1) — is embarrassingly
//! parallel across shards, and alignment runs per shard over its own
//! sources.
//!
//! # The serving runtime
//!
//! Connections are nonblocking sockets owned by I/O workers; each
//! worker drives its set through a [`substrate::net`] `poll(2)` loop
//! and a per-connection state machine: accumulate bytes into a pooled
//! read buffer ([`substrate::pool`]), peel complete frames with
//! [`frame_ready`], decode them *in place* with
//! [`Request::decode_borrowed`] (zero heap allocations for small
//! frames), dispatch, and stream responses back through queued
//! vectored writes. Requests pipeline: a connection may have up to
//! `max_pipeline` requests in flight, and responses are re-sequenced
//! (a per-request `seq` plus a reorder map) so the wire order always
//! matches the request order, exactly as the one-thread-per-connection
//! runtime behaved. An optional `idle_timeout` reaps connections that
//! complete no frame for the configured window, which also bounds
//! slow-loris readers.
//!
//! I/O workers never block: every frame becomes a [`Job`] routed to
//! its shard through a bounded queue ([`substrate::queue::Bounded`]),
//! and the shard replies by posting a completion event back to the
//! owning worker's inbox (a wake-channel nudges the poller). When an
//! ingest hits a full queue the worker replies BUSY with a retry-after
//! hint instead of buffering — memory is bounded by
//! `shards × queue_depth` jobs no matter how fast clients push. Batch
//! ingests and control frames (remove/metrics/shutdown) want
//! backpressure, not retries: their pushes park in a pending list (the
//! connection stops parsing, preserving per-connection order) and are
//! retried until queue space frees up.
//!
//! # Durability
//!
//! With a `wal_dir` configured, every state-changing job is journaled
//! to the shard's write-ahead log ([`substrate::wal`], payloads are
//! [`core::oplog::ReplayOp`]) *before* it touches the engine. On
//! startup each shard loads its newest valid generation checkpoint
//! (`shard{i}.g{N}.spvc`, written atomically via temp file + rename)
//! and replays the WAL tail on top; replay is idempotent, so the crash
//! window between "checkpoint written" and "WAL truncated" is safe.
//! Live writes, this replay and a follower's replicated records all
//! reach the engine through one shard-worker apply path: the debug
//! poison hook, [`ReplayOp::apply`], and an incremental alignment
//! after every `align_every` successful ingests.
//! Once the WAL grows past `checkpoint_every_bytes` the shard writes a
//! fresh generation and truncates the log, bounding recovery time.
//!
//! # Supervision
//!
//! A panic inside an engine apply is caught in the worker
//! (`catch_unwind`); the shard's engine is rebuilt from checkpoint +
//! WAL and the worker keeps draining its queue — other shards never
//! notice. An operation that panics the shard *again* during the
//! rebuild replay is quarantined: appended to the shard's dead-letter
//! file (`shard{i}.dead`), skipped by all future replays, and rejected
//! if resubmitted. METRICS reports both per shard
//! (`storypivot_shard_restarts`, `storypivot_shard_quarantined`).
//!
//! SHUTDOWN drains: a dedicated orchestrator thread pushes a `Drain`
//! job behind all accepted work on every shard, each shard runs a final
//! alignment + refinement on its engine and writes a checkpoint
//! generation, the queues are closed, and only then is the ack sent
//! (to the initiator and to every connection that sent a concurrent
//! SHUTDOWN).
//!
//! # Observability
//!
//! Each shard owns a private [`substrate::metrics::Registry`]; its
//! engine, WAL, and the per-shard serving series (queue depth, sources,
//! stories, snippets, WAL bytes, checkpoint age, restarts, quarantined
//! ops, snapshot reads, BUSY rejections — labeled `shard="N"`) all
//! record into it. I/O workers hold clones of the shard's read counter
//! and BUSY gauge and bump them directly, so the registry is the only
//! place a serving counter lives. The server additionally keeps one
//! registry for the I/O layer: open connections, pipeline depth,
//! buffer-pool checkouts and byte high-water, and transient accept
//! failures. The `METRICS` opcode snapshots every shard's registry plus the server
//! registry, merges the snapshots (counters add, histograms merge
//! bucket-wise), and renders one Prometheus-style text exposition.
//! Each shard also keeps a fixed-capacity [`substrate::trace::TraceRing`]
//! of recent engine events; when an apply panics, the ring is dumped to
//! stderr (and `shard{i}.trace` next to the durable state) *before* the
//! engine is rebuilt, preserving the lead-up to the crash.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use storypivot_core::checkpoint;
use storypivot_core::config::PivotConfig;
use storypivot_core::metrics::EngineMetrics;
use storypivot_core::oplog::{self, Applied, ReplayOp};
use storypivot_core::pivot::StoryPivot;
use storypivot_core::refine::story_source;
use storypivot_substrate::fault::FaultHook;
use storypivot_substrate::metrics::{Counter, Gauge, HistogramMetric, Registry, Snapshot};
use storypivot_substrate::net;
use storypivot_substrate::pool::{BufferPool, PooledBuf};
use storypivot_substrate::queue::{Bounded, PushError};
use storypivot_substrate::trace::TraceRing;
use storypivot_substrate::wal::{self, SyncPolicy, Wal, WalMetrics};
use storypivot_types::{DocId, Error, Result, Snippet, Source, SourceId};

use crate::proto::{frame_into, frame_ready, Request, RequestRef, Response, StorySummary};
use crate::replica;
use crate::snapshot::{ShardSnapshot, SnapshotSlot};

/// The maximum number of sources the story-id partitioning scheme
/// supports (see `core::identify::STORY_ID_STRIDE`).
const MAX_SOURCES: u32 = 256;

/// Upper bound on WAL bytes shipped per REPL_FRAME. Whole records
/// only — the read is trimmed to the last record boundary — and well
/// under `MAX_FRAME_LEN` with response framing around it.
const REPL_BATCH_BYTES: usize = 1 << 20;

/// Ingesting a snippet with this exact headline makes the owning shard
/// worker panic — **in debug builds only** — providing a failure
/// injection hook for exercising the supervision path (engine restart,
/// two-strike dead-letter quarantine) from integration tests. Release
/// builds treat it as an ordinary headline.
pub const POISON_HEADLINE: &str = "__pivotd_poison_panic__";

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shard worker threads (engines). Sources are routed by
    /// `source id mod shards`.
    pub shards: usize,
    /// Bounded depth of each shard's job queue; a full queue turns
    /// single-snippet ingests into BUSY replies.
    pub queue_depth: usize,
    /// Engine configuration applied to every shard.
    pub pivot: PivotConfig,
    /// Per-shard incremental re-alignment period: every shard runs
    /// [`StoryPivot::align_incremental`] after this many successful
    /// ingests (0 = only when draining).
    pub align_every: usize,
    /// Where checkpoint generations are written
    /// (`shard{i}.g{N}.spvc`, atomic temp-file + rename); `None`
    /// disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Where per-shard write-ahead logs live (`shard{i}.wal`); `None`
    /// disables journaling (and with it crash recovery of un-checkpointed
    /// work).
    pub wal_dir: Option<PathBuf>,
    /// When each WAL append is forced to disk.
    pub fsync: SyncPolicy,
    /// Write a checkpoint generation and truncate the WAL once it
    /// exceeds this many bytes (0 disables size-triggered checkpoints;
    /// requires both `wal_dir` and `checkpoint_dir`).
    pub checkpoint_every_bytes: u64,
    /// The retry-after hint carried by BUSY replies, in milliseconds.
    pub retry_after_ms: u32,
    /// Artificial per-job delay in each shard worker. Zero in
    /// production; tests use it to hold a queue full deterministically.
    pub worker_delay: Duration,
    /// Number of connection-multiplexing I/O worker threads. Every
    /// connection is pinned to one worker for its lifetime.
    pub io_workers: usize,
    /// Maximum requests a single connection may have in flight
    /// (dispatched, response not yet queued for write) before the
    /// worker stops reading from it.
    pub max_pipeline: usize,
    /// Reap a connection that completes no frame for this long
    /// (also bounds slow-loris readers); `None` never reaps.
    pub idle_timeout: Option<Duration>,
    /// Run as a read-only follower replica of the leader at this
    /// address: bootstrap each shard from the leader's newest
    /// checkpoint, tail its WAL over REPL_SUBSCRIBE, serve reads from
    /// snapshots, and answer every write with a NOT_LEADER redirect.
    /// Requires `wal_dir` (the follower keeps a byte-identical WAL
    /// copy as its durable replication cursor).
    pub leader: Option<String>,
    /// Publish a fresh read snapshot after this many applied
    /// mutations. The default of 1 republishes after every op, which
    /// preserves exact read-your-writes; raising it trades staleness
    /// (bounded by `snapshot_max_age_ms`) for less copying on hot
    /// write paths.
    pub snapshot_every_ops: u64,
    /// Also republish whenever the current snapshot is older than this
    /// many milliseconds *and* ops have been applied since it was
    /// built (checked as the worker processes jobs).
    pub snapshot_max_age_ms: u64,
    /// Per-request deadline budget for single-snippet ingests, in
    /// milliseconds. A write that has already waited in its shard queue
    /// longer than this is shed (SHED reply, counted in
    /// `storypivot_shed_total`) instead of applied late. Zero disables
    /// shedding.
    pub deadline_ms: u64,
    /// Deterministic fault-injection plan consulted by WAL appends,
    /// checkpoint writes, and replica-tail connections. `None` (and any
    /// release build) injects nothing; `pivotd` fills it from the
    /// `STORYPIVOT_FAULTS` environment variable.
    pub faults: Option<storypivot_substrate::fault::FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 1024,
            pivot: PivotConfig::default(),
            align_every: 256,
            checkpoint_dir: None,
            wal_dir: None,
            fsync: SyncPolicy::Always,
            checkpoint_every_bytes: 8 * 1024 * 1024,
            retry_after_ms: 10,
            worker_delay: Duration::ZERO,
            io_workers: 2,
            max_pipeline: 64,
            idle_timeout: None,
            leader: None,
            snapshot_every_ops: 1,
            snapshot_max_age_ms: 100,
            deadline_ms: 0,
            faults: None,
        }
    }
}

/// The reply half of a shard job: a one-shot callback the shard worker
/// invokes with the response. Replies built from a connection carry a
/// drop-guard, so a job that dies with its worker still produces an
/// error response instead of a hung client.
pub(crate) type Reply = Box<dyn FnOnce(Response) + Send>;

/// Reply callback for metrics snapshots (merged by the I/O layer).
pub(crate) type SnapReply = Box<dyn FnOnce(Snapshot) + Send>;

/// A replica shard's durable replication position: the checkpoint
/// generation it bootstrapped from plus the byte length of its local
/// WAL copy. Because the follower appends the leader's record payloads
/// through the same deterministic framing, its WAL is byte-identical
/// to the leader's — so "my WAL length" *is* "the leader offset I have
/// everything before", and a restart recovers the cursor for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReplCursor {
    /// Checkpoint generation the WAL tail applies on top of.
    pub(crate) generation: u64,
    /// Local WAL length == leader WAL offset fully replicated.
    pub(crate) wal_len: u64,
    /// Ops applied since the generation (drives the lag-in-ops gauge).
    pub(crate) ops: u64,
}

/// Acknowledgement channel for replication jobs: the puller thread
/// blocks on the paired receiver until the shard worker reports the
/// cursor it reached (or why it couldn't).
pub(crate) type ReplAck = SyncSender<Result<ReplCursor>>;

/// Work routed to one shard.
pub(crate) enum Job {
    AddSource(Source, Reply),
    /// A single-snippet ingest; the `Instant` is when the job was
    /// enqueued, so the shard worker can shed it once its deadline
    /// budget (`ServerConfig::deadline_ms`) has already elapsed.
    Ingest(Snippet, Reply, Instant),
    IngestMany(Vec<Snippet>, Reply),
    RemoveDoc(DocId, Reply),
    /// Snapshot the shard's metrics registry (merged by the I/O layer).
    Metrics(SnapReply),
    /// Flush + checkpoint; the shard replies once its state is durable.
    Drain(Reply),
    /// Leader side of REPL_SUBSCRIBE: ship WAL records from
    /// `wal_offset` (or a checkpoint if the follower's generation is
    /// stale).
    Repl {
        /// Generation the follower believes it is on.
        generation: u64,
        /// Leader-WAL byte offset the follower has replicated through.
        wal_offset: u64,
        /// Where the REPL_FRAME / REPL_CHECKPOINT response goes.
        reply: Reply,
    },
    /// Follower side: install the leader's checkpoint bytes verbatim
    /// and reset the local WAL.
    ReplBootstrap {
        /// The leader's checkpoint generation.
        generation: u64,
        /// Raw checkpoint bytes (empty = start from a fresh engine).
        checkpoint: Vec<u8>,
        /// Cursor acknowledgement back to the puller.
        ack: ReplAck,
    },
    /// Follower side: append + apply a batch of leader WAL records
    /// (an empty batch is a cursor probe).
    ReplApply {
        /// Concatenated whole WAL records, leader framing intact.
        records: Vec<u8>,
        /// Cursor acknowledgement back to the puller.
        ack: ReplAck,
    },
}

/// Lock a mutex, riding through poisoning (no invariant here spans the
/// critical section).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A completion or new-connection event posted to an I/O worker.
enum IoEvent {
    /// The acceptor handed this worker a fresh connection.
    NewConn(TcpStream),
    /// A response for request `seq` on connection `conn` is ready;
    /// `close` ends the connection once the response is flushed.
    Deliver {
        conn: u64,
        seq: u64,
        resp: Response,
        close: bool,
    },
}

/// An I/O worker's mailbox. `send` never blocks (lock, push, wake), so
/// shard workers can deliver completions without ever waiting on the
/// I/O layer — there is no lock cycle between the two.
struct Inbox {
    events: Mutex<Vec<IoEvent>>,
    waker: net::Waker,
    /// Connections currently assigned to this worker (acceptor
    /// load-balances on it).
    load: AtomicI64,
}

impl Inbox {
    fn send(&self, ev: IoEvent) {
        lock(&self.events).push(ev);
        self.waker.wake();
    }

    fn take_into(&self, into: &mut Vec<IoEvent>) {
        std::mem::swap(&mut *lock(&self.events), into);
    }

    fn is_empty(&self) -> bool {
        lock(&self.events).is_empty()
    }
}

/// The address of one in-flight request: which worker, which
/// connection, which pipeline slot.
#[derive(Clone)]
struct Dest {
    inbox: Arc<Inbox>,
    conn: u64,
    seq: u64,
}

impl Dest {
    fn deliver(&self, resp: Response, close: bool) {
        self.inbox.send(IoEvent::Deliver {
            conn: self.conn,
            seq: self.seq,
            resp,
            close,
        });
    }
}

fn unavailable() -> Response {
    Response::Error {
        code: 7,
        message: "shard worker unavailable".into(),
    }
}

/// Wrap a [`Dest`] as a [`Reply`]. If the shard drops the job without
/// invoking it (worker died, queue destroyed), the guard delivers an
/// error so the client never hangs — the callback equivalent of the
/// old `await_reply` fallback.
fn direct_reply(dest: Dest) -> Reply {
    let mut guard = DestGuard(Some(dest));
    Box::new(move |resp| {
        if let Some(d) = guard.0.take() {
            d.deliver(resp, false);
        }
    })
}

struct DestGuard(Option<Dest>);

impl Drop for DestGuard {
    fn drop(&mut self) {
        if let Some(d) = self.0.take() {
            d.deliver(unavailable(), false);
        }
    }
}

/// A fan-out/fan-in completion: N shard parts merge into one response
/// once the last part lands. Parts complete in any order; the merge
/// sees them indexed by shard position. `fail` short-circuits once
/// (first failure wins, later parts are ignored).
struct FanIn<T> {
    state: Mutex<FanState<T>>,
    dest: Dest,
}

type MergeFn<T> = Box<dyn FnOnce(Vec<T>) -> Response + Send>;

struct FanState<T> {
    parts: Vec<Option<T>>,
    remaining: usize,
    merge: Option<MergeFn<T>>,
}

impl<T> FanIn<T> {
    fn new(dest: Dest, n: usize, merge: MergeFn<T>) -> Arc<FanIn<T>> {
        Arc::new(FanIn {
            state: Mutex::new(FanState {
                parts: (0..n).map(|_| None).collect(),
                remaining: n,
                merge: Some(merge),
            }),
            dest,
        })
    }

    fn part(&self, idx: usize, value: T) {
        let done = {
            let mut st = lock(&self.state);
            if st.merge.is_none() || st.parts[idx].is_some() {
                None
            } else {
                st.parts[idx] = Some(value);
                st.remaining -= 1;
                if st.remaining == 0 {
                    let merge = st.merge.take().expect("checked above");
                    let parts = st.parts.iter_mut().map(|p| p.take().expect("all landed")).collect();
                    Some((merge, parts))
                } else {
                    None
                }
            }
        };
        if let Some((merge, parts)) = done {
            self.dest.deliver(merge(parts), false);
        }
    }

    fn fail(&self, resp: Response) {
        let failed = lock(&self.state).merge.take().is_some();
        if failed {
            self.dest.deliver(resp, false);
        }
    }
}

/// Wrap one fan-in slot as a reply callback; the drop-guard fails the
/// whole fan if the shard drops the job uninvoked.
fn part_reply<T: Send + 'static>(fan: Arc<FanIn<T>>, idx: usize) -> Box<dyn FnOnce(T) + Send> {
    let mut guard = FanGuard { fan: Some(fan), idx };
    Box::new(move |value| {
        if let Some(f) = guard.fan.take() {
            f.part(guard.idx, value);
        }
    })
}

struct FanGuard<T> {
    fan: Option<Arc<FanIn<T>>>,
    #[allow(dead_code)]
    idx: usize,
}

impl<T> Drop for FanGuard<T> {
    fn drop(&mut self) {
        if let Some(f) = self.fan.take() {
            f.fail(unavailable());
        }
    }
}

/// Invoke a job's reply with `resp` (defusing its drop-guard); a
/// metrics job carries a snapshot-typed reply and is simply dropped,
/// which fails its fan through the guard. Replication acks get a
/// typed error so the puller backs off instead of hanging.
fn fail_job(job: Job, resp: Response) {
    match job {
        Job::AddSource(_, r)
        | Job::Ingest(_, r, _)
        | Job::IngestMany(_, r)
        | Job::RemoveDoc(_, r)
        | Job::Drain(r)
        | Job::Repl { reply: r, .. } => r(resp),
        Job::Metrics(_) => {}
        Job::ReplBootstrap { ack, .. } | Job::ReplApply { ack, .. } => {
            let _ = ack.send(Err(Error::Io(
                "shard queue rejected the replication job".into(),
            )));
        }
    }
}

fn fail_job_closed(job: Job) {
    fail_job(
        job,
        Response::Error {
            code: 7,
            message: "server is shutting down".into(),
        },
    );
}

/// Server-wide I/O-layer metric handles (one registry, unlabeled —
/// they describe the whole serving runtime, not one shard).
struct IoMetrics {
    connections_open: Gauge,
    pipeline_depth: Gauge,
    pool_buffers_outstanding: Gauge,
    pool_bytes_highwater: Gauge,
    accept_errors: Counter,
    degraded_reads: Counter,
}

impl IoMetrics {
    fn register(registry: &Registry) -> IoMetrics {
        IoMetrics {
            connections_open: registry.gauge(
                "storypivot_connections_open",
                "Open client connections across all I/O workers.",
            ),
            pipeline_depth: registry.gauge(
                "storypivot_pipeline_depth",
                "Requests dispatched whose responses are not yet queued for write.",
            ),
            pool_buffers_outstanding: registry.gauge(
                "storypivot_pool_buffers_outstanding",
                "Frame buffers currently checked out of the serving buffer pool.",
            ),
            pool_bytes_highwater: registry.gauge(
                "storypivot_pool_bytes_highwater",
                "High-water mark of bytes charged to checked-out frame buffers.",
            ),
            accept_errors: registry.counter(
                "storypivot_accept_errors_total",
                "Transient accept(2) failures (e.g. EMFILE) that triggered backoff.",
            ),
            degraded_reads: registry.counter(
                "storypivot_degraded_reads_total",
                "Snapshot reads answered while the target shard's write queue was \
                 saturated (degraded-read mode).",
            ),
        }
    }
}

/// State shared between the acceptor, I/O workers, shard workers,
/// replica pullers, and [`ServerHandle`].
pub(crate) struct Shared {
    queues: Vec<Bounded<Job>>,
    /// Each shard's serving handles; I/O workers bump the read counter
    /// and the BUSY gauge straight into the shard's registry.
    shard_metrics: Vec<ShardServeMetrics>,
    /// One published read snapshot per shard; I/O workers answer
    /// QUERY_STORIES/GET_STORY from these without touching the queues.
    snapshots: Vec<SnapshotSlot>,
    /// `Some(addr)` when this server is a read-only follower replica:
    /// writes are answered with a NOT_LEADER redirect to `addr`.
    leader: Option<String>,
    next_source: AtomicU32,
    shutting_down: AtomicBool,
    done: AtomicBool,
    retry_after_ms: u32,
    /// Per-shard EWMA of single-snippet ingest service time in
    /// nanoseconds, maintained by the shard workers. The BUSY path
    /// multiplies it by the queue depth to turn the flat retry-after
    /// hint into one proportional to the actual backlog drain time.
    service_ewma_ns: Vec<Arc<AtomicU64>>,
    inboxes: Vec<Arc<Inbox>>,
    /// Frame buffers for reads and encoded responses.
    pool: BufferPool,
    /// The I/O layer's own registry, merged into METRICS expositions.
    registry: Registry,
    io_metrics: IoMetrics,
    connections: AtomicI64,
    /// Total requests dispatched whose responses have not yet been
    /// queued for write (the pipeline-depth gauge's source of truth).
    inflight: AtomicI64,
    conn_ids: AtomicU64,
    /// Connections whose SHUTDOWN arrived while another connection's
    /// shutdown was already draining; each gets an ack when it's done.
    shutdown_waiters: Mutex<Vec<Dest>>,
}

impl Shared {
    fn shard_of_source(&self, source: SourceId) -> usize {
        source.raw() as usize % self.queues.len()
    }

    /// Whether a SHUTDOWN has completed (replica pullers poll this to
    /// know when to stop tailing the leader).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    /// Queue-depth-proportional retry hint for a shard: the estimated
    /// drain time of the jobs already queued (depth × EWMA of observed
    /// per-snippet service time). Floored at the configured flat
    /// `retry_after_ms` — which is also the exact hint before the first
    /// ingest has seeded the EWMA — and capped so a hostile queue depth
    /// can never park clients for minutes.
    fn busy_hint(&self, shard: usize) -> u32 {
        retry_hint(
            self.queues[shard].len(),
            self.service_ewma_ns[shard].load(Ordering::Relaxed),
            self.retry_after_ms,
        )
    }

    /// Degraded-read accounting: a snapshot read served while the
    /// target shard's write queue is saturated would have stalled (or
    /// been rejected) if reads went through the queue. Counting them
    /// makes the degraded mode observable at METRICS.
    fn note_degraded_read(&self, shard: usize) {
        let q = &self.queues[shard];
        if q.len() >= q.capacity() {
            self.io_metrics.degraded_reads.inc();
        }
    }

    /// Refresh the I/O gauges from their atomic sources.
    fn sync_io_gauges(&self) {
        let m = &self.io_metrics;
        m.connections_open.set(self.connections.load(Ordering::Relaxed));
        m.pipeline_depth.set(self.inflight.load(Ordering::Relaxed));
        let ps = self.pool.stats();
        m.pool_buffers_outstanding.set(ps.outstanding as i64);
        m.pool_bytes_highwater.set(ps.bytes_highwater as i64);
    }
}

/// A running server: its bound address plus the thread handles needed
/// to wait for a client-driven SHUTDOWN.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a SHUTDOWN has completed (queues closed, checkpoints
    /// written, acceptor stopping).
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::SeqCst)
    }

    /// Block until the server shuts down (a client must send SHUTDOWN),
    /// then join every shard worker, the acceptor, and the I/O workers.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.io_workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Bind and start serving. `addr` may use port 0 for an ephemeral port;
/// the bound address is available via [`ServerHandle::addr`].
///
/// Before any client is accepted, every shard recovers: newest valid
/// checkpoint generation, then WAL tail replay. Source-id allocation
/// resumes past the highest recovered source.
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> Result<ServerHandle> {
    if cfg.shards == 0 {
        return Err(Error::InvalidConfig("serve: shards must be >= 1".into()));
    }
    if cfg.queue_depth == 0 {
        return Err(Error::InvalidConfig("serve: queue_depth must be >= 1".into()));
    }
    if cfg.io_workers == 0 {
        return Err(Error::InvalidConfig("serve: io_workers must be >= 1".into()));
    }
    if cfg.max_pipeline == 0 {
        return Err(Error::InvalidConfig("serve: max_pipeline must be >= 1".into()));
    }
    if cfg.snapshot_every_ops == 0 {
        return Err(Error::InvalidConfig(
            "serve: snapshot_every_ops must be >= 1".into(),
        ));
    }
    if cfg.leader.is_some() && cfg.wal_dir.is_none() {
        return Err(Error::InvalidConfig(
            "serve: replica mode requires --wal-dir (the follower's WAL copy \
             is its durable replication cursor)"
                .into(),
        ));
    }
    cfg.pivot.validate()?;
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let queues: Vec<Bounded<Job>> = (0..cfg.shards).map(|_| Bounded::new(cfg.queue_depth)).collect();
    let snapshots: Vec<SnapshotSlot> = (0..cfg.shards).map(|_| SnapshotSlot::new()).collect();
    let service_ewma_ns: Vec<Arc<AtomicU64>> =
        (0..cfg.shards).map(|_| Arc::new(AtomicU64::new(0))).collect();

    // Recover every shard before serving: clients must never observe a
    // partially recovered partition. Each worker publishes its first
    // snapshot at the end of recovery, so the read path is live (and
    // consistent) before the listener accepts anyone.
    let mut shard_workers = Vec::with_capacity(cfg.shards);
    for (idx, queue) in queues.iter().enumerate() {
        shard_workers.push(ShardWorker::recover(
            idx,
            &cfg,
            queue.clone(),
            snapshots[idx].clone(),
            Arc::clone(&service_ewma_ns[idx]),
        )?);
    }
    let shard_metrics: Vec<ShardServeMetrics> =
        shard_workers.iter().map(|w| w.serve_metrics.clone()).collect();
    // Resume source-id allocation past everything the checkpoints and
    // WALs brought back.
    let next_source = shard_workers
        .iter()
        .flat_map(|w| w.engine.sources().into_iter().map(|s| s.id.raw()))
        .max()
        .map_or(0, |m| m + 1);

    let mut inboxes = Vec::with_capacity(cfg.io_workers);
    let mut wake_rxs = Vec::with_capacity(cfg.io_workers);
    for _ in 0..cfg.io_workers {
        let (waker, rx) =
            net::wake_pair().map_err(|e| Error::Io(format!("serve: wake channel: {e}")))?;
        inboxes.push(Arc::new(Inbox {
            events: Mutex::new(Vec::new()),
            waker,
            load: AtomicI64::new(0),
        }));
        wake_rxs.push(rx);
    }

    let registry = Registry::new();
    let io_metrics = IoMetrics::register(&registry);
    let shared = Arc::new(Shared {
        queues: queues.clone(),
        shard_metrics,
        snapshots,
        leader: cfg.leader.clone(),
        next_source: AtomicU32::new(next_source),
        shutting_down: AtomicBool::new(false),
        done: AtomicBool::new(false),
        retry_after_ms: cfg.retry_after_ms,
        service_ewma_ns,
        inboxes,
        pool: BufferPool::new(8 * 1024, 1024),
        registry,
        io_metrics,
        connections: AtomicI64::new(0),
        inflight: AtomicI64::new(0),
        conn_ids: AtomicU64::new(0),
        shutdown_waiters: Mutex::new(Vec::new()),
    });

    let mut workers = Vec::with_capacity(cfg.shards);
    for shard in shard_workers {
        let idx = shard.idx;
        workers.push(
            std::thread::Builder::new()
                .name(format!("pivot-shard-{idx}"))
                .spawn(move || shard.run())
                .map_err(|e| Error::Io(format!("spawn shard worker: {e}")))?,
        );
    }

    let mut io_workers = Vec::with_capacity(cfg.io_workers);
    for (i, wake_rx) in wake_rxs.into_iter().enumerate() {
        let worker = IoWorker {
            shared: Arc::clone(&shared),
            inbox: Arc::clone(&shared.inboxes[i]),
            wake_rx,
            poller: net::Poller::new(),
            conns: HashMap::new(),
            pending: Vec::new(),
            events_buf: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
            max_pipeline: cfg.max_pipeline,
            idle_timeout: cfg.idle_timeout,
            last_reap: Instant::now(),
            done_seen: None,
        };
        io_workers.push(
            std::thread::Builder::new()
                .name(format!("pivot-io-{i}"))
                .spawn(move || worker.run())
                .map_err(|e| Error::Io(format!("spawn io worker: {e}")))?,
        );
    }

    let accept_shared = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("pivot-accept".into())
        .spawn(move || accept_loop(listener, accept_shared))
        .map_err(|e| Error::Io(format!("spawn acceptor: {e}")))?;

    // Follower replica: one puller thread per shard tails the leader's
    // WAL and feeds ReplBootstrap/ReplApply jobs to the local worker.
    if let Some(leader) = &cfg.leader {
        for (i, queue) in queues.iter().enumerate() {
            let sid = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &sid)];
            let ctx = replica::PullerCtx {
                shard: i,
                leader: leader.clone(),
                queue: queue.clone(),
                shared: Arc::clone(&shared),
                lag_ops: shared.registry.gauge_with(
                    "storypivot_replica_lag_ops",
                    "Ops the leader has applied that this replica shard has not.",
                    labels,
                ),
                lag_bytes: shared.registry.gauge_with(
                    "storypivot_replica_lag_bytes",
                    "Leader WAL bytes not yet replicated to this shard.",
                    labels,
                ),
                reconnects: shared.registry.gauge_with(
                    "storypivot_replica_reconnects",
                    "Reconnect attempts to the leader by this shard's puller \
                     (the initial connection is not counted).",
                    labels,
                ),
                drop_fault: cfg
                    .faults
                    .as_ref()
                    .map(|p| p.hook("repl_drop", i as u64))
                    .unwrap_or_else(storypivot_substrate::fault::FaultHook::inert),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pivot-repl-{i}"))
                    .spawn(move || replica::run_puller(ctx))
                    .map_err(|e| Error::Io(format!("spawn replica puller: {e}")))?,
            );
        }
    }

    Ok(ServerHandle {
        addr: bound,
        shared,
        acceptor: Some(acceptor),
        workers,
        io_workers,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = Duration::from_millis(1);
    // Small deterministic LCG for backoff jitter: persistent accept
    // errors (EMFILE across many servers on one host) must not march
    // every acceptor in lockstep.
    let mut jitter_state: u64 = 0x9e37_79b9_7f4a_7c15;
    loop {
        if shared.done.load(Ordering::SeqCst) {
            // Grace sweep: the kernel may have completed handshakes (or
            // have SYNs in flight) that dropping the listener would RST
            // mid-request. Serve them for a short window — post-done
            // dispatch acks SHUTDOWN immediately and rejects mutations
            // with a typed shutting-down error — so a client that
            // connected concurrently with shutdown gets a well-formed
            // reply instead of a connection reset.
            let grace = Instant::now() + Duration::from_millis(50);
            while Instant::now() < grace {
                match listener.accept() {
                    Ok((stream, _)) => hand_off(&shared, stream),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                hand_off(&shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (EMFILE, ECONNABORTED, …):
                // back off exponentially with jitter instead of
                // hot-spinning the accept loop.
                shared.io_metrics.accept_errors.inc();
                jitter_state = jitter_state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let jitter = (jitter_state >> 56) as u32; // 0..=255
                std::thread::sleep(backoff + backoff * jitter / 512); // +0..50%
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// Assign a fresh connection to the least-loaded I/O worker.
fn hand_off(shared: &Arc<Shared>, stream: TcpStream) {
    let inbox = shared
        .inboxes
        .iter()
        .min_by_key(|ib| ib.load.load(Ordering::Relaxed))
        .expect("io_workers >= 1");
    inbox.load.fetch_add(1, Ordering::Relaxed);
    inbox.send(IoEvent::NewConn(stream));
}

/// Drive a SHUTDOWN to completion on a dedicated thread (it blocks on
/// full queues and on shard acks, which an I/O worker never may):
/// push a `Drain` behind all accepted work on every shard, await the
/// acks, close the queues, mark done, then ack the initiator and every
/// parked waiter.
fn run_shutdown(shared: Arc<Shared>, initiator: Dest) {
    let mut pending = Vec::with_capacity(shared.queues.len());
    for queue in &shared.queues {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Response>(1);
        let reply: Reply = Box::new(move |resp| {
            let _ = tx.send(resp);
        });
        // The Drain sits behind all previously accepted work: by the
        // time a shard replies, its queue prefix has been fully applied.
        if queue.push(Job::Drain(reply)).is_ok() {
            pending.push(rx);
        }
    }
    let mut failure = None;
    for rx in pending {
        match rx.recv() {
            Ok(Response::ShutdownAck) => {}
            Ok(other) => failure = Some(other),
            Err(_) => failure = Some(unavailable()),
        }
    }
    for queue in &shared.queues {
        queue.close();
    }
    shared.done.store(true, Ordering::SeqCst);
    initiator.deliver(failure.unwrap_or(Response::ShutdownAck), true);
    let waiters = std::mem::take(&mut *lock(&shared.shutdown_waiters));
    for w in waiters {
        w.deliver(Response::ShutdownAck, true);
    }
    // Nudge every worker so it notices `done` promptly.
    for inbox in &shared.inboxes {
        inbox.waker.wake();
    }
}

// ---- the I/O worker --------------------------------------------------

/// Poller token reserved for the worker's wake channel.
const WAKE_TOKEN: usize = usize::MAX;

#[cfg(unix)]
fn raw_fd(s: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_s: &TcpStream) -> i32 {
    -1
}

/// An encoded response waiting for its pipeline turn, plus whether the
/// connection closes once it is flushed.
type ReadyFrame = (PooledBuf, bool);

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Accumulated unparsed bytes; `None` between frames, so idle
    /// connections hold no pool buffer.
    rd: Option<PooledBuf>,
    /// Encoded responses queued for the socket, in wire order.
    outbox: VecDeque<PooledBuf>,
    /// Bytes of `outbox.front()` already written.
    front_written: usize,
    /// Out-of-order completions parked until their sequence turn.
    ready: BTreeMap<u64, ReadyFrame>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to move into the outbox.
    next_write: u64,
    /// Parsing paused: a control push is waiting for queue space
    /// (preserves per-connection request order under backpressure).
    stalled: bool,
    /// A close-flagged response entered the outbox (or the stream
    /// desynchronised); flush what's queued, then drop the connection.
    closing: bool,
    /// The peer half-closed its write side; parse what's buffered,
    /// flush the responses, then drop the connection.
    eof: bool,
    /// Last time a complete frame was parsed (idle/slow-loris clock —
    /// partial reads do not count as progress).
    last_progress: Instant,
}

impl Conn {
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write
    }
}

struct PendingPush {
    conn: u64,
    pushes: VecDeque<(usize, Job)>,
}

/// A connection-multiplexing worker: one `poll(2)` loop over its
/// assigned sockets plus its inbox wake channel.
struct IoWorker {
    shared: Arc<Shared>,
    inbox: Arc<Inbox>,
    wake_rx: net::WakeReceiver,
    poller: net::Poller,
    conns: HashMap<u64, Conn>,
    pending: Vec<PendingPush>,
    events_buf: Vec<IoEvent>,
    scratch: Vec<u8>,
    max_pipeline: usize,
    idle_timeout: Option<Duration>,
    last_reap: Instant,
    done_seen: Option<Instant>,
}

impl IoWorker {
    fn run(mut self) {
        loop {
            if self.done_seen.is_none() && self.shared.done.load(Ordering::SeqCst) {
                self.done_seen = Some(Instant::now());
            }
            if let Some(t0) = self.done_seen {
                // Post-shutdown lame duck: keep answering (dispatch now
                // yields typed shutting-down errors) long enough for the
                // acceptor's grace sweep and in-flight deliveries, then
                // exit regardless.
                let now = Instant::now();
                let idle =
                    self.conns.is_empty() && self.pending.is_empty() && self.inbox.is_empty();
                let deadline = t0 + Duration::from_millis(500);
                let idle_ok = t0 + Duration::from_millis(120);
                if now >= deadline || (idle && now >= idle_ok) {
                    break;
                }
            }

            let mut timeout = Duration::from_millis(200);
            if let Some(idle) = self.idle_timeout {
                timeout = timeout.min(std::cmp::max(idle / 4, Duration::from_millis(10)));
            }
            if !self.pending.is_empty() {
                timeout = Duration::from_millis(1);
            }
            if self.done_seen.is_some() {
                timeout = timeout.min(Duration::from_millis(20));
            }

            let max_pipeline = self.max_pipeline as u64;
            self.poller.clear();
            self.poller.register(self.wake_rx.fd(), WAKE_TOKEN, net::READABLE);
            for (&id, conn) in &self.conns {
                let mut interest = 0u8;
                if !conn.closing && !conn.eof && !conn.stalled && conn.inflight() < max_pipeline {
                    interest |= net::READABLE;
                }
                if !conn.outbox.is_empty() {
                    interest |= net::WRITABLE;
                }
                if interest != 0 {
                    self.poller.register(conn.fd, id as usize, interest);
                }
            }
            if self.poller.poll(Some(timeout)).is_err() {
                // poll(2) itself failing is unrecoverable spin fuel;
                // sleep the tick instead of burning the core.
                std::thread::sleep(timeout);
            }

            let events: Vec<net::Event> = self.poller.events().collect();
            for ev in events {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                let id = ev.token as u64;
                if ev.readable {
                    self.read_conn(id);
                }
                if ev.writable {
                    self.flush_conn(id);
                }
            }

            let mut inbox_events = std::mem::take(&mut self.events_buf);
            self.inbox.take_into(&mut inbox_events);
            for ev in inbox_events.drain(..) {
                match ev {
                    IoEvent::NewConn(stream) => self.add_conn(stream),
                    IoEvent::Deliver {
                        conn,
                        seq,
                        resp,
                        close,
                    } => self.finish(conn, seq, resp, close),
                }
            }
            self.events_buf = inbox_events;

            self.retry_pending();
            self.maybe_reap();
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.remove_conn(id);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let fd = raw_fd(&stream);
        if fd < 0 {
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let id = self.shared.conn_ids.fetch_add(1, Ordering::Relaxed);
        self.shared.connections.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(
            id,
            Conn {
                stream,
                fd,
                rd: None,
                outbox: VecDeque::new(),
                front_written: 0,
                ready: BTreeMap::new(),
                next_seq: 0,
                next_write: 0,
                stalled: false,
                closing: false,
                eof: false,
                last_progress: Instant::now(),
            },
        );
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let inflight = conn.inflight() as i64;
            if inflight != 0 {
                self.shared.inflight.fetch_sub(inflight, Ordering::Relaxed);
            }
            self.shared.connections.fetch_sub(1, Ordering::Relaxed);
            self.inbox.load.fetch_sub(1, Ordering::Relaxed);
            // Parked pushes for this connection would only produce
            // replies to a dead peer; dropping them fires the guards,
            // whose deliveries no-op against the removed id.
            self.pending.retain(|p| p.conn != id);
        }
    }

    /// Drop the connection once everything owed to the peer is out.
    fn close_if_drained(&mut self, id: u64) {
        let drained = match self.conns.get(&id) {
            Some(c) => (c.closing || c.eof) && c.outbox.is_empty() && c.inflight() == 0,
            None => false,
        };
        if drained {
            self.remove_conn(id);
        }
    }

    /// Pull bytes off the socket into the pooled read buffer, then
    /// parse. Bounded per event (4 × scratch) so one firehose client
    /// cannot starve the rest of the poll set.
    fn read_conn(&mut self, id: u64) {
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.closing || conn.eof {
                return;
            }
            for _ in 0..4 {
                match (&conn.stream).read(&mut self.scratch) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        let rd = match conn.rd.as_mut() {
                            Some(rd) => rd,
                            None => conn.rd.insert(self.shared.pool.checkout()),
                        };
                        rd.extend_from_slice(&self.scratch[..n]);
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if broken {
            self.remove_conn(id);
            return;
        }
        self.parse_conn(id);
        self.close_if_drained(id);
    }

    /// Peel complete frames off the read buffer and dispatch them,
    /// until the buffer runs dry, the pipeline cap is hit, or a push
    /// stalls the connection.
    fn parse_conn(&mut self, id: u64) {
        let max_pipeline = self.max_pipeline as u64;
        loop {
            let (seq, total, mut rd) = {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if conn.stalled || conn.closing || conn.inflight() >= max_pipeline {
                    return;
                }
                let Some(buf) = conn.rd.as_ref() else { return };
                match frame_ready(buf) {
                    Ok(None) => return,
                    Ok(Some(total)) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.last_progress = Instant::now();
                        let rd = conn.rd.take().expect("checked above");
                        (seq, total, rd)
                    }
                    Err(e) => {
                        // Torn/oversized frame: the stream position is
                        // no longer trustworthy. Report once and close;
                        // buffered bytes are garbage now.
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.rd = None;
                        self.shared.inflight.fetch_add(1, Ordering::Relaxed);
                        self.finish(id, seq, Response::from_error(&e), true);
                        return;
                    }
                }
            };
            self.shared.inflight.fetch_add(1, Ordering::Relaxed);
            self.handle_request(id, seq, &rd[4..total]);
            let leftover = rd.len() - total;
            if leftover > 0 {
                rd.drain(..total);
            }
            if let Some(conn) = self.conns.get_mut(&id) {
                if leftover > 0 {
                    conn.rd = Some(rd);
                }
                // leftover == 0: dropping `rd` checks it back into the
                // pool — idle connections pin no buffer.
            }
        }
    }

    /// Decode one frame in place and dispatch it. Every request gets a
    /// pipeline slot (`seq`); responses are delivered through `finish`,
    /// directly for local errors or via the shard reply path.
    fn handle_request(&mut self, id: u64, seq: u64, payload: &[u8]) {
        let dest = Dest {
            inbox: Arc::clone(&self.inbox),
            conn: id,
            seq,
        };
        let req = match Request::decode_borrowed(payload) {
            Ok(req) => req,
            // Garbage opcode / truncated body: reply, then close.
            Err(e) => {
                self.finish(id, seq, Response::from_error(&e), true);
                return;
            }
        };
        // A follower replica serves reads only: every mutation (and a
        // replication subscribe — replicas don't chain) is answered
        // with a redirect to the leader, without touching the queues.
        if let Some(leader) = &self.shared.leader {
            if matches!(
                req,
                RequestRef::AddSource { .. }
                    | RequestRef::IngestSnippet(_)
                    | RequestRef::IngestBatch(_)
                    | RequestRef::RemoveDoc(_)
                    | RequestRef::ReplSubscribe { .. }
            ) {
                let leader = leader.clone();
                self.finish(id, seq, Response::NotLeader { leader }, false);
                return;
            }
        }
        match req {
            RequestRef::AddSource { name, kind, lag } => {
                let sid = self.shared.next_source.fetch_add(1, Ordering::SeqCst);
                if sid >= MAX_SOURCES {
                    let e = Error::InvalidConfig(format!(
                        "source limit reached ({MAX_SOURCES}): story-id partitioning supports \
                         at most {MAX_SOURCES} sources"
                    ));
                    self.finish(id, seq, Response::from_error(&e), false);
                    return;
                }
                let source = Source::new(SourceId::new(sid), name.to_string(), kind).with_lag(lag);
                let shard = self.shared.shard_of_source(source.id);
                self.push_one(id, shard, Job::AddSource(source, direct_reply(dest)));
            }
            RequestRef::IngestSnippet(sref) => {
                // The BUSY fast path: one snippet, one `try_push`. A
                // full shard queue is the client's problem (retry after
                // the hint), never the server's memory.
                let shard = self.shared.shard_of_source(sref.source);
                let job = Job::Ingest(sref.to_owned(), direct_reply(dest), Instant::now());
                match self.shared.queues[shard].try_push(job) {
                    Ok(()) => {}
                    Err(PushError::Full(job)) => {
                        self.shared.shard_metrics[shard].busy_rejections.add(1);
                        fail_job(
                            job,
                            Response::Busy {
                                retry_after_ms: self.shared.busy_hint(shard),
                            },
                        );
                    }
                    Err(PushError::Closed(job)) => fail_job_closed(job),
                }
            }
            RequestRef::IngestBatch(batch) => {
                // Split by shard (preserving order within each shard);
                // the fan-in sums the per-shard counts.
                let n_shards = self.shared.queues.len();
                let mut by_shard: Vec<Vec<Snippet>> = vec![Vec::new(); n_shards];
                for sref in batch.iter() {
                    by_shard[self.shared.shard_of_source(sref.source)].push(sref.to_owned());
                }
                let participating: Vec<usize> =
                    (0..n_shards).filter(|&i| !by_shard[i].is_empty()).collect();
                if participating.is_empty() {
                    self.finish(id, seq, Response::BatchIngested(0), false);
                    return;
                }
                let fan = FanIn::new(
                    dest,
                    participating.len(),
                    Box::new(|parts: Vec<Response>| {
                        let mut total = 0u32;
                        for r in parts {
                            match r {
                                Response::BatchIngested(n) => total += n,
                                other => return other,
                            }
                        }
                        Response::BatchIngested(total)
                    }),
                );
                let mut jobs = VecDeque::with_capacity(participating.len());
                for (k, &shard) in participating.iter().enumerate() {
                    jobs.push_back((
                        shard,
                        Job::IngestMany(
                            std::mem::take(&mut by_shard[shard]),
                            part_reply(Arc::clone(&fan), k),
                        ),
                    ));
                }
                self.push_jobs(id, jobs);
            }
            // Reads never touch the shard queues: they merge the
            // published snapshots right here on the I/O worker, so a
            // query flash-crowd cannot starve (or be starved by)
            // ingest. `dest` is unused — the response is finished
            // synchronously in this call.
            RequestRef::QueryStories => {
                let mut stories = Vec::new();
                for (shard, slot) in self.shared.snapshots.iter().enumerate() {
                    let snap = slot.load();
                    stories.extend_from_slice(&snap.stories);
                    self.shared.shard_metrics[shard].queries.inc();
                    self.shared.note_degraded_read(shard);
                }
                stories.sort_unstable_by_key(|s: &StorySummary| s.id);
                self.finish(id, seq, Response::Stories(stories), false);
            }
            RequestRef::GetStory(story) => {
                let shard = self.shared.shard_of_source(story_source(story));
                self.shared.shard_metrics[shard].queries.inc();
                self.shared.note_degraded_read(shard);
                let resp = match self.shared.snapshots[shard].load().get(story) {
                    Some(summary) => Response::Story(summary.clone()),
                    None => Response::from_error(&Error::UnknownStory(story)),
                };
                self.finish(id, seq, resp, false);
            }
            RequestRef::ReplSubscribe {
                shard,
                generation,
                wal_offset,
            } => {
                let n = self.shared.queues.len();
                if shard as usize >= n {
                    let e = Error::InvalidConfig(format!(
                        "REPL_SUBSCRIBE for shard {shard}, but the leader has {n} shards"
                    ));
                    self.finish(id, seq, Response::from_error(&e), false);
                    return;
                }
                self.push_one(
                    id,
                    shard as usize,
                    Job::Repl {
                        generation,
                        wal_offset,
                        reply: direct_reply(dest),
                    },
                );
            }
            RequestRef::RemoveDoc(doc) => self.broadcast(
                id,
                dest,
                move |r| Job::RemoveDoc(doc, r),
                Box::new(move |parts| {
                    let mut total = 0u32;
                    for r in parts {
                        match r {
                            Response::Removed(n) => total += n,
                            other => return other,
                        }
                    }
                    if total == 0 {
                        Response::from_error(&Error::UnknownDocument(doc))
                    } else {
                        Response::Removed(total)
                    }
                }),
            ),
            RequestRef::Shutdown => self.handle_shutdown(dest),
            RequestRef::Metrics => {
                // Snapshot every shard's registry plus the I/O layer's
                // own, merge, and render one exposition.
                let shared = Arc::clone(&self.shared);
                self.broadcast(
                    id,
                    dest,
                    Job::Metrics,
                    Box::new(move |snaps: Vec<Snapshot>| {
                        shared.sync_io_gauges();
                        let mut merged = shared.registry.snapshot();
                        for s in &snaps {
                            merged.merge(s);
                        }
                        Response::Metrics {
                            text: merged.render(),
                        }
                    }),
                );
            }
        }
    }

    /// Fan one job out to every shard and merge the replies.
    fn broadcast<T: Send + 'static>(
        &mut self,
        conn_id: u64,
        dest: Dest,
        make_job: impl Fn(Box<dyn FnOnce(T) + Send>) -> Job,
        merge: MergeFn<T>,
    ) {
        let n = self.shared.queues.len();
        let fan = FanIn::new(dest, n, merge);
        let mut jobs = VecDeque::with_capacity(n);
        for shard in 0..n {
            jobs.push_back((shard, make_job(part_reply(Arc::clone(&fan), shard))));
        }
        self.push_jobs(conn_id, jobs);
    }

    fn push_one(&mut self, conn_id: u64, shard: usize, job: Job) {
        let mut jobs = VecDeque::with_capacity(1);
        jobs.push_back((shard, job));
        self.push_jobs(conn_id, jobs);
    }

    /// Push control-plane jobs to their shard queues without blocking:
    /// a full queue parks the remainder in the pending list and stalls
    /// the connection's parser (backpressure with order preserved); a
    /// closed queue fails every remaining job with the shutting-down
    /// error.
    fn push_jobs(&mut self, conn_id: u64, mut jobs: VecDeque<(usize, Job)>) {
        while let Some((shard, job)) = jobs.pop_front() {
            match self.shared.queues[shard].try_push(job) {
                Ok(()) => {}
                Err(PushError::Full(job)) => {
                    jobs.push_front((shard, job));
                    if let Some(conn) = self.conns.get_mut(&conn_id) {
                        conn.stalled = true;
                    }
                    self.pending.push(PendingPush {
                        conn: conn_id,
                        pushes: jobs,
                    });
                    return;
                }
                Err(PushError::Closed(job)) => {
                    fail_job_closed(job);
                    for (_, j) in jobs.drain(..) {
                        fail_job_closed(j);
                    }
                    break;
                }
            }
        }
        // Everything pushed (or failed-closed): release the parser if a
        // previous attempt had stalled it.
        let unstalled = match self.conns.get_mut(&conn_id) {
            Some(conn) if conn.stalled => {
                conn.stalled = false;
                true
            }
            _ => false,
        };
        if unstalled {
            self.parse_conn(conn_id);
        }
    }

    /// Re-attempt parked pushes (shard workers may have drained queue
    /// space since last tick).
    fn retry_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            self.push_jobs(p.conn, p.pushes);
        }
    }

    /// A response landed for `(conn, seq)`: encode it into a pooled
    /// buffer, park it in the reorder map, move every in-order entry to
    /// the outbox, and opportunistically flush.
    fn finish(&mut self, id: u64, seq: u64, resp: Response, close: bool) {
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if seq < conn.next_write || conn.ready.contains_key(&seq) {
                return; // stale or duplicate completion
            }
            let mut buf = self.shared.pool.checkout();
            frame_into(buf.as_mut_vec(), |b| resp.encode(b));
            conn.ready.insert(seq, (buf, close));
            while let Some((buf, close)) = conn.ready.remove(&conn.next_write) {
                conn.outbox.push_back(buf);
                conn.next_write += 1;
                self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
                if close {
                    conn.closing = true;
                }
            }
        }
        self.flush_conn(id);
        // Pipeline slack may have returned: resume parsing buffered
        // frames (no-op while a parse is already on the stack — it
        // holds the read buffer).
        let resume = match self.conns.get(&id) {
            Some(c) => !c.stalled && !c.closing && c.rd.is_some(),
            None => false,
        };
        if resume {
            self.parse_conn(id);
        }
    }

    /// Write as much of the outbox as the socket accepts, gathering up
    /// to 16 frames per `write_vectored` call.
    fn flush_conn(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            if conn.outbox.is_empty() {
                break;
            }
            let result = {
                let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(conn.outbox.len().min(16));
                for (i, buf) in conn.outbox.iter().take(16).enumerate() {
                    let start = if i == 0 { conn.front_written } else { 0 };
                    iov.push(IoSlice::new(&buf[start..]));
                }
                (&conn.stream).write_vectored(&iov)
            };
            match result {
                Ok(0) => {
                    self.remove_conn(id);
                    return;
                }
                Ok(n) => {
                    let mut n = n + conn.front_written;
                    while let Some(front) = conn.outbox.front() {
                        if n >= front.len() {
                            n -= front.len();
                            conn.outbox.pop_front();
                        } else {
                            break;
                        }
                    }
                    conn.front_written = n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.remove_conn(id);
                    return;
                }
            }
        }
        self.close_if_drained(id);
    }

    /// SHUTDOWN: idempotent across connections. The first caller
    /// spawns the orchestrator; concurrent callers park as waiters and
    /// are acked when the drain completes; post-done callers ack
    /// immediately.
    fn handle_shutdown(&mut self, dest: Dest) {
        if self.shared.done.load(Ordering::SeqCst) {
            dest.deliver(Response::ShutdownAck, true);
            return;
        }
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            let mut waiters = lock(&self.shared.shutdown_waiters);
            // Re-check under the waiters lock: the orchestrator flushes
            // waiters after setting `done` while holding it, so either
            // we see done here or it will see us there.
            if self.shared.done.load(Ordering::SeqCst) {
                drop(waiters);
                dest.deliver(Response::ShutdownAck, true);
            } else {
                waiters.push(dest);
            }
            return;
        }
        let shared = Arc::clone(&self.shared);
        if let Err(e) = std::thread::Builder::new()
            .name("pivot-shutdown".into())
            .spawn(move || run_shutdown(shared, dest))
        {
            eprintln!("pivotd: failed to spawn shutdown thread: {e}");
        }
    }

    /// Throttled idle sweep: connections with no completed frame inside
    /// the window, nothing in flight, and nothing left to write are
    /// reaped. A slow-loris client that trickles bytes without ever
    /// completing a frame never advances the progress clock, so it is
    /// reaped on the same schedule.
    fn maybe_reap(&mut self) {
        let Some(idle) = self.idle_timeout else { return };
        let now = Instant::now();
        if now.duration_since(self.last_reap) < Duration::from_millis(100) {
            return;
        }
        self.last_reap = now;
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.closing
                    && c.inflight() == 0
                    && c.outbox.is_empty()
                    && now.duration_since(c.last_progress) > idle
            })
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.remove_conn(id);
        }
    }
}
// ---- shard worker ----------------------------------------------------

/// The debug-only failure-injection hook: runs in the shard's one apply
/// path, so live writes, rebuild replay and replication all hit it and
/// an injected panic is deterministic across restarts (which is what
/// earns it a second strike and the quarantine).
fn poison_check(op: &ReplayOp) {
    if cfg!(debug_assertions) {
        if let ReplayOp::Ingest(snippet) = op {
            if snippet.content.headline == POISON_HEADLINE {
                panic!("injected poison snippet (debug-only failure hook)");
            }
        }
    }
}

/// Trace-ring label for a mutation.
fn op_label(op: &ReplayOp) -> &'static str {
    match op {
        ReplayOp::AddSource(_) => "add_source",
        ReplayOp::Ingest(_) => "ingest",
        ReplayOp::RemoveDoc(_) => "remove_doc",
    }
}

/// Per-shard serving-layer metric handles, labeled `shard="N"` so the
/// merged exposition keeps them distinguishable across shards.
#[derive(Clone)]
struct ShardServeMetrics {
    queue_depth: Gauge,
    queue_capacity: Gauge,
    sources: Gauge,
    stories: Gauge,
    snippets: Gauge,
    wal_bytes: Gauge,
    checkpoint_age_ops: Gauge,
    queries: Counter,
    restarts: Gauge,
    quarantined: Gauge,
    busy_rejections: Gauge,
    shed: Counter,
    ingest_latency: HistogramMetric,
    snapshot_epoch: Gauge,
    snapshot_age_ops: Gauge,
}

impl ShardServeMetrics {
    fn register(registry: &Registry, shard: usize) -> Self {
        let id = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &id)];
        ShardServeMetrics {
            queue_depth: registry.gauge_with(
                "storypivot_shard_queue_depth",
                "Jobs currently waiting in the shard's bounded queue.",
                labels,
            ),
            queue_capacity: registry.gauge_with(
                "storypivot_shard_queue_capacity",
                "Capacity of the shard's bounded queue.",
                labels,
            ),
            sources: registry.gauge_with(
                "storypivot_shard_sources",
                "Sources registered on the shard.",
                labels,
            ),
            stories: registry.gauge_with(
                "storypivot_shard_stories",
                "Per-source stories alive on the shard.",
                labels,
            ),
            snippets: registry.gauge_with(
                "storypivot_shard_snippets",
                "Snippets stored on the shard.",
                labels,
            ),
            wal_bytes: registry.gauge_with(
                "storypivot_shard_wal_bytes",
                "Bytes in the shard's write-ahead log (0 when journaling is off \
                 or a checkpoint just truncated it).",
                labels,
            ),
            checkpoint_age_ops: registry.gauge_with(
                "storypivot_shard_checkpoint_age_ops",
                "Mutations applied since the shard's last checkpoint (the replay \
                 debt a crash right now would incur).",
                labels,
            ),
            queries: registry.counter_with(
                "storypivot_shard_queries_total",
                "Snapshot reads (QUERY_STORIES, GET_STORY) served for the shard.",
                labels,
            ),
            restarts: registry.gauge_with(
                "storypivot_shard_restarts",
                "Engine rebuilds after a panic on this shard.",
                labels,
            ),
            quarantined: registry.gauge_with(
                "storypivot_shard_quarantined",
                "Operations dead-lettered on this shard.",
                labels,
            ),
            busy_rejections: registry.gauge_with(
                "storypivot_shard_busy_rejections",
                "Ingests rejected with BUSY because the queue was full.",
                labels,
            ),
            shed: registry.counter_with(
                "storypivot_shed_total",
                "Admitted ingests dropped unapplied because they waited in the \
                 queue past the per-request deadline (--deadline-ms).",
                labels,
            ),
            ingest_latency: registry.histogram_with(
                "storypivot_shard_ingest_latency_ns",
                "End-to-end shard-side ingest latency (journal + apply) in nanoseconds.",
                labels,
            ),
            snapshot_epoch: registry.gauge_with(
                "storypivot_shard_snapshot_epoch",
                "Publication count of the shard's lock-free read snapshot.",
                labels,
            ),
            snapshot_age_ops: registry.gauge_with(
                "storypivot_shard_snapshot_age_ops",
                "Mutations applied since the current read snapshot was published.",
                labels,
            ),
        }
    }
}

struct ShardWorker {
    idx: usize,
    engine: StoryPivot,
    /// Engine config, kept for rebuilds.
    pivot_cfg: PivotConfig,
    /// Run an incremental alignment after this many successful ingests
    /// (0 = only when draining).
    align_every: usize,
    /// Successful ingests since the last alignment; restarts at zero
    /// whenever the engine is rebuilt, bootstrapped or drained.
    since_align: usize,
    /// EWMA of single-snippet ingest service time in nanoseconds,
    /// shared with the I/O workers so BUSY/SHED retry hints scale with
    /// how long the queued work will actually take to drain.
    service_ewma: Arc<AtomicU64>,
    /// Per-request queueing budget; zero disables deadline shedding.
    deadline: Duration,
    /// Floor for retry-after hints (the configured flat value).
    retry_floor_ms: u32,
    /// Debug/test-gated fault consulted before each checkpoint write.
    checkpoint_fault: FaultHook,
    queue: Bounded<Job>,
    /// Where published read snapshots go (shared with I/O workers).
    slot: SnapshotSlot,
    snapshot_epoch: u64,
    /// Mutations applied since the last publish.
    snapshot_age_ops: u64,
    snapshot_every_ops: u64,
    snapshot_max_age: Duration,
    last_publish: Instant,
    /// Follower replica: skip local checkpoint scheduling (generation
    /// and WAL position are the leader's to advance).
    replica: bool,
    /// The shard's private metrics registry; engine, WAL, and serving
    /// gauges all record here, and `METRICS` snapshots it.
    registry: Registry,
    /// Engine handles, re-attached to every rebuilt engine.
    engine_metrics: EngineMetrics,
    serve_metrics: ShardServeMetrics,
    /// Recent engine events, dumped when an apply panics.
    trace: TraceRing,
    /// Where the panic-time trace dump is written (next to the WAL or
    /// checkpoints); `None` keeps the dump on stderr only.
    trace_path: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every_bytes: u64,
    worker_delay: Duration,
    wal: Option<Wal>,
    wal_path: Option<PathBuf>,
    /// Dead-letter file for quarantined ops (next to the WAL, or the
    /// checkpoint dir when journaling is off).
    dead_path: Option<PathBuf>,
    dead: Option<Wal>,
    /// Newest checkpoint generation written or loaded so far.
    generation: u64,
    ops_since_checkpoint: u64,
    /// Panic count per op fingerprint; two strikes quarantine.
    strikes: HashMap<u64, u32>,
    /// Fingerprints of dead-lettered ops: skipped on replay, rejected
    /// on resubmission.
    quarantine: HashSet<u64>,
}

impl ShardWorker {
    /// Build shard `idx` from durable state: load the dead-letter set,
    /// open (and tail-repair) the WAL, restore the newest valid
    /// checkpoint generation, and replay the WAL tail on top.
    fn recover(
        idx: usize,
        cfg: &ServerConfig,
        queue: Bounded<Job>,
        slot: SnapshotSlot,
        service_ewma: Arc<AtomicU64>,
    ) -> Result<ShardWorker> {
        let state_dir = cfg.wal_dir.as_ref().or(cfg.checkpoint_dir.as_ref());
        let dead_path = state_dir.map(|d| d.join(format!("shard{idx}.dead")));
        let trace_path = state_dir.map(|d| d.join(format!("shard{idx}.trace")));

        let mut quarantine = HashSet::new();
        if let Some(path) = &dead_path {
            match wal::scan(path) {
                Ok(scan) => {
                    quarantine.extend(scan.records.iter().map(|p| oplog::fingerprint(p)));
                }
                Err(e) => eprintln!(
                    "pivotd: shard {idx}: dead-letter file {} unreadable: {e}",
                    path.display()
                ),
            }
        }

        let registry = Registry::new();
        let engine_metrics = EngineMetrics::register(&registry);
        let serve_metrics = ShardServeMetrics::register(&registry, idx);
        serve_metrics.quarantined.set(quarantine.len() as i64);
        serve_metrics.queue_capacity.set(queue.capacity() as i64);

        let mut worker = ShardWorker {
            idx,
            engine: StoryPivot::new(cfg.pivot.clone()),
            pivot_cfg: cfg.pivot.clone(),
            align_every: cfg.align_every,
            since_align: 0,
            service_ewma,
            deadline: Duration::from_millis(cfg.deadline_ms),
            retry_floor_ms: cfg.retry_after_ms,
            checkpoint_fault: cfg
                .faults
                .as_ref()
                .map(|p| p.hook("checkpoint", idx as u64))
                .unwrap_or_else(FaultHook::inert),
            queue,
            slot,
            snapshot_epoch: 0,
            snapshot_age_ops: 0,
            snapshot_every_ops: cfg.snapshot_every_ops,
            snapshot_max_age: Duration::from_millis(cfg.snapshot_max_age_ms),
            last_publish: Instant::now(),
            replica: cfg.leader.is_some(),
            registry,
            engine_metrics,
            serve_metrics,
            trace: TraceRing::new(256),
            trace_path,
            checkpoint_dir: cfg.checkpoint_dir.clone(),
            checkpoint_every_bytes: cfg.checkpoint_every_bytes,
            worker_delay: cfg.worker_delay,
            wal: None,
            wal_path: None,
            dead_path,
            dead: None,
            generation: 0,
            ops_since_checkpoint: 0,
            strikes: HashMap::new(),
            quarantine,
        };

        if let Some(wal_dir) = &cfg.wal_dir {
            std::fs::create_dir_all(wal_dir)
                .map_err(|e| Error::Io(format!("create {}: {e}", wal_dir.display())))?;
            let path = wal_dir.join(format!("shard{idx}.wal"));
            let (mut wal, scan) = Wal::open(&path, cfg.fsync)
                .map_err(|e| Error::Io(format!("open wal {}: {e}", path.display())))?;
            let shard_label = idx.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard_label)];
            wal.set_metrics(WalMetrics {
                append_duration: worker.registry.histogram_with(
                    "storypivot_wal_append_duration_ns",
                    "Duration of each WAL append in nanoseconds.",
                    labels,
                ),
                sync_duration: worker.registry.histogram_with(
                    "storypivot_wal_sync_duration_ns",
                    "Duration of each WAL fsync in nanoseconds.",
                    labels,
                ),
                appended_bytes: worker.registry.counter_with(
                    "storypivot_wal_appended_bytes_total",
                    "Journal bytes appended, framing included.",
                    labels,
                ),
            });
            if scan.damaged() {
                eprintln!(
                    "pivotd: shard {idx}: wal {} had a torn tail; dropped {} trailing bytes",
                    path.display(),
                    scan.dropped_bytes
                );
            }
            if let Some(plan) = &cfg.faults {
                wal.set_faults(storypivot_substrate::wal::WalFaults {
                    enospc: plan.hook("wal_enospc", idx as u64),
                    short_write: plan.hook("wal_short", idx as u64),
                });
            }
            worker.wal_path = Some(path);
            worker.wal = Some(wal);
        }

        worker.rebuild();
        Ok(worker)
    }

    fn run(mut self) {
        while let Some(job) = self.queue.pop() {
            if !self.worker_delay.is_zero() {
                std::thread::sleep(self.worker_delay);
            }
            // Time half of the freshness policy: ops held back by a
            // large `snapshot_every_ops` still reach readers once the
            // snapshot outlives `snapshot_max_age`.
            if self.snapshot_age_ops > 0 && self.last_publish.elapsed() >= self.snapshot_max_age {
                self.publish_snapshot();
            }
            match job {
                Job::AddSource(source, reply) => reply(self.add_source(source)),
                Job::Ingest(snippet, reply, enqueued) => {
                    // Deadline shedding: work that waited past the
                    // client's budget is answered with SHED *before*
                    // the WAL or engine see it — under saturation the
                    // worker spends its time on requests someone is
                    // still waiting for. Only single-snippet ingests
                    // carry a budget; batches and control ops park for
                    // backpressure at admission instead.
                    if !self.deadline.is_zero() && enqueued.elapsed() > self.deadline {
                        reply(self.shed(snippet));
                    } else {
                        reply(self.ingest(snippet));
                    }
                }
                Job::IngestMany(batch, reply) => reply(self.ingest_many(batch)),
                Job::RemoveDoc(doc, reply) => reply(self.remove_doc(doc)),
                Job::Metrics(reply) => reply(self.metrics_snapshot()),
                Job::Drain(reply) => reply(self.drain()),
                Job::Repl {
                    generation,
                    wal_offset,
                    reply,
                } => reply(self.repl(generation, wal_offset)),
                Job::ReplBootstrap {
                    generation,
                    checkpoint,
                    ack,
                } => {
                    let _ = ack.send(self.repl_bootstrap(generation, checkpoint));
                }
                Job::ReplApply { records, ack } => {
                    let _ = ack.send(self.repl_apply(&records));
                }
            }
        }
    }

    /// Journal, then apply. The encoded op is both the WAL payload and
    /// the input of its quarantine fingerprint.
    fn mutate(&mut self, op: ReplayOp) -> Result<Applied> {
        let bytes = op.to_bytes();
        let fp = oplog::fingerprint(&bytes);
        self.trace.push(op_label(&op), fp);
        if self.quarantine.contains(&fp) {
            return Err(Error::Invariant(format!(
                "operation {fp:#018x} is quarantined on shard {} \
                 (dead-lettered after repeated panics)",
                self.idx
            )));
        }
        if let Some(w) = &mut self.wal {
            w.append(&bytes)
                .map_err(|e| Error::Io(format!("shard {} wal append: {e}", self.idx)))?;
        }
        let result = self.apply_supervised(&op, fp);
        if result.is_ok() {
            self.ops_since_checkpoint += 1;
            self.maybe_checkpoint();
            self.note_applied();
        }
        result
    }

    /// The one engine apply path. Live writes, WAL rebuild and
    /// replicated records all come through here: the debug poison
    /// hook, then [`ReplayOp::apply`], then the `align_every` cadence,
    /// which counts successful ingests and runs an incremental
    /// alignment on every `align_every`-th.
    fn apply(&mut self, op: &ReplayOp) -> Result<Applied> {
        poison_check(op);
        let applied = op.apply(&mut self.engine)?;
        if let Applied::Story(_) = applied {
            self.since_align += 1;
            if self.align_every > 0 && self.since_align >= self.align_every {
                self.engine.align_incremental();
                self.since_align = 0;
            }
        }
        Ok(applied)
    }

    /// [`ShardWorker::apply`] under `catch_unwind`. A panic rebuilds the
    /// engine from durable state and becomes an error instead of
    /// killing the worker; the op's strike count decides quarantine.
    fn apply_supervised(&mut self, op: &ReplayOp, fp: u64) -> Result<Applied> {
        match catch_unwind(AssertUnwindSafe(|| self.apply(op))) {
            Ok(result) => result,
            Err(_) => {
                self.serve_metrics.restarts.add(1);
                *self.strikes.entry(fp).or_insert(0) += 1;
                self.dump_trace(fp);
                self.rebuild();
                let quarantined_now = self.quarantine.contains(&fp);
                Err(Error::Invariant(format!(
                    "shard {} panicked applying the operation; engine rebuilt from \
                     checkpoint + wal{}",
                    self.idx,
                    if quarantined_now {
                        " and the operation was quarantined"
                    } else {
                        ""
                    }
                )))
            }
        }
    }

    /// Dump the shard's recent-event trace before the engine is torn
    /// down: stderr always, plus `shard{i}.trace` when a durable state
    /// directory exists. Best effort — a failed write never blocks the
    /// rebuild.
    fn dump_trace(&mut self, fp: u64) {
        let dump = format!(
            "pivotd: shard {}: panic applying op {fp:#018x}; recent events:\n{}",
            self.idx,
            self.trace.render()
        );
        eprintln!("{dump}");
        if let Some(path) = &self.trace_path {
            if let Err(e) = std::fs::write(path, &dump) {
                eprintln!(
                    "pivotd: shard {}: trace dump to {} failed: {e}",
                    self.idx,
                    path.display()
                );
            }
        }
    }

    /// Refresh the gauges that mirror engine and journal state, then
    /// snapshot the shard's registry.
    fn metrics_snapshot(&self) -> Snapshot {
        let m = &self.serve_metrics;
        let pivot = &self.engine;
        m.queue_depth.set(self.queue.len() as i64);
        m.sources.set(pivot.sources().len() as i64);
        m.stories.set(pivot.story_count() as i64);
        m.snippets.set(pivot.store().len() as i64);
        m.wal_bytes
            .set(self.wal.as_ref().map_or(0, Wal::len) as i64);
        m.checkpoint_age_ops.set(self.ops_since_checkpoint as i64);
        self.registry.snapshot()
    }

    /// Build an immutable, id-sorted copy of the current partition and
    /// swap it into the shared slot. Runs on the shard thread *before*
    /// the triggering op's reply is delivered, so acked writes are
    /// always visible to the next read.
    fn publish_snapshot(&mut self) {
        self.snapshot_epoch += 1;
        let mut stories = self.summaries();
        stories.sort_unstable_by_key(|s| s.id);
        self.slot.publish(Arc::new(ShardSnapshot {
            epoch: self.snapshot_epoch,
            stories,
        }));
        self.snapshot_age_ops = 0;
        self.last_publish = Instant::now();
        self.serve_metrics.snapshot_epoch.set(self.snapshot_epoch as i64);
        self.serve_metrics.snapshot_age_ops.set(0);
    }

    /// Freshness policy after one applied mutation: republish every
    /// `snapshot_every_ops` ops, or sooner once the snapshot is older
    /// than `snapshot_max_age`.
    fn note_applied(&mut self) {
        self.snapshot_age_ops += 1;
        if self.snapshot_age_ops >= self.snapshot_every_ops
            || self.last_publish.elapsed() >= self.snapshot_max_age
        {
            self.publish_snapshot();
        } else {
            self.serve_metrics.snapshot_age_ops.set(self.snapshot_age_ops as i64);
        }
    }

    /// Reconstruct the engine from the newest valid checkpoint plus the
    /// WAL tail, replaying straight into `self.engine`. An op that
    /// panics during replay earns a strike; at two strikes it is
    /// dead-lettered, and the replay restarts from the checkpoint
    /// without it. Terminates: every restart either quarantines an op
    /// or arms its second strike.
    fn rebuild(&mut self) {
        self.trace.push("rebuild", 0);
        'replay: loop {
            self.engine = self.engine_from_checkpoint();
            self.since_align = 0;
            let records = match &self.wal_path {
                Some(path) => match wal::scan(path) {
                    Ok(scan) => scan.records,
                    Err(e) => {
                        eprintln!(
                            "pivotd: shard {}: wal scan failed during rebuild: {e}",
                            self.idx
                        );
                        Vec::new()
                    }
                },
                None => Vec::new(),
            };
            for payload in &records {
                let fp = oplog::fingerprint(payload);
                if self.quarantine.contains(&fp) {
                    continue;
                }
                let op = match ReplayOp::decode(payload) {
                    Ok(op) => op,
                    Err(e) => {
                        eprintln!("pivotd: shard {}: undecodable wal record skipped: {e}", self.idx);
                        continue;
                    }
                };
                match catch_unwind(AssertUnwindSafe(|| self.apply(&op))) {
                    // A duplicate is already in the checkpoint this
                    // journal tail rides behind.
                    Ok(Ok(_)) | Ok(Err(Error::Duplicate(_))) => {}
                    Ok(Err(e)) => eprintln!(
                        "pivotd: shard {}: replay error (op skipped): {e}",
                        self.idx
                    ),
                    Err(_) => {
                        self.serve_metrics.restarts.add(1);
                        let strikes = self.strikes.entry(fp).or_insert(0);
                        *strikes += 1;
                        if *strikes >= 2 {
                            self.quarantine_op(payload, fp);
                        }
                        continue 'replay;
                    }
                }
            }
            // A rebuilt engine starts with detached handles; point it
            // back at the shard's registry.
            self.engine.set_metrics(self.engine_metrics.clone());
            // Readers must see the rebuilt partition, not the
            // pre-panic (or pre-recovery empty) one.
            self.publish_snapshot();
            return;
        }
    }

    /// Newest valid checkpoint generation, or a fresh engine.
    fn engine_from_checkpoint(&mut self) -> StoryPivot {
        if let Some(dir) = &self.checkpoint_dir {
            let timer = self.engine_metrics.checkpoint_load_duration.start();
            match checkpoint::load_newest(dir, self.idx, self.pivot_cfg.clone()) {
                Ok(Some((pivot, generation))) => {
                    drop(timer);
                    self.generation = self.generation.max(generation);
                    return pivot;
                }
                Ok(None) => timer.discard(),
                Err(e) => {
                    timer.discard();
                    eprintln!(
                        "pivotd: shard {}: checkpoint load failed ({e}); starting empty",
                        self.idx
                    );
                }
            }
        }
        StoryPivot::new(self.pivot_cfg.clone())
    }

    /// Dead-letter an op: remember its fingerprint and append its
    /// journal payload to `shard{i}.dead` so the quarantine survives
    /// restarts.
    fn quarantine_op(&mut self, payload: &[u8], fp: u64) {
        if !self.quarantine.insert(fp) {
            return;
        }
        self.serve_metrics.quarantined.add(1);
        eprintln!(
            "pivotd: shard {}: quarantining operation {fp:#018x} after repeated panics",
            self.idx
        );
        if let Some(path) = &self.dead_path {
            let outcome = match self.dead.as_mut() {
                Some(d) => d.append(payload).map(|_| ()),
                None => match Wal::open(path, SyncPolicy::Always) {
                    Ok((mut d, _)) => {
                        let r = d.append(payload).map(|_| ());
                        self.dead = Some(d);
                        r
                    }
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = outcome {
                eprintln!(
                    "pivotd: shard {}: dead-letter write to {} failed: {e}",
                    self.idx,
                    path.display()
                );
            }
        }
    }

    /// Size-triggered checkpoint: once the WAL is past the threshold,
    /// persist a generation and truncate the log.
    fn maybe_checkpoint(&mut self) {
        // A replica never checkpoints on its own: its generation is
        // the leader's, and truncating the WAL would desync the
        // byte-identical copy that serves as the replication cursor.
        if self.replica {
            return;
        }
        if self.checkpoint_every_bytes == 0 || self.checkpoint_dir.is_none() {
            return;
        }
        let due = self
            .wal
            .as_ref()
            .is_some_and(|w| w.len() >= self.checkpoint_every_bytes);
        if due {
            if let Err(e) = self.checkpoint_now() {
                eprintln!("pivotd: shard {}: periodic checkpoint failed: {e}", self.idx);
            }
        }
    }

    /// Write checkpoint generation N+1 (atomic temp-file + rename),
    /// then truncate the WAL. Crashing between the two is safe: replay
    /// of the stale tail is idempotent.
    fn checkpoint_now(&mut self) -> Result<()> {
        let Some(dir) = self.checkpoint_dir.clone() else {
            return Ok(());
        };
        // Injected checkpoint failure: fails before the generation
        // advances, so the newest valid on-disk generation (plus the
        // intact WAL) still reconstructs the exact partition.
        if self.checkpoint_fault.fire() {
            self.trace.push("checkpoint_fault", self.generation);
            return Err(Error::Io(format!(
                "shard {}: injected fault: checkpoint write failed",
                self.idx
            )));
        }
        let bytes = self.engine.save_checkpoint();
        self.generation += 1;
        self.trace.push("checkpoint", self.generation);
        checkpoint::write_generation(&dir, self.idx, self.generation, &bytes)?;
        if let Some(w) = &mut self.wal {
            w.reset()
                .map_err(|e| Error::Io(format!("shard {} wal reset: {e}", self.idx)))?;
        }
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    fn add_source(&mut self, source: Source) -> Response {
        match self.mutate(ReplayOp::AddSource(source)) {
            Ok(Applied::Source(id)) => Response::SourceAdded(id),
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    /// Drop an expired ingest and tell the client when the queue should
    /// have drained enough to be worth a fresh attempt.
    fn shed(&mut self, snippet: Snippet) -> Response {
        self.trace.push("shed", snippet.doc.raw() as u64);
        self.serve_metrics.shed.inc();
        Response::Shed {
            retry_after_ms: retry_hint(
                self.queue.len(),
                self.service_ewma.load(Ordering::Relaxed),
                self.retry_floor_ms,
            ),
        }
    }

    /// Fold one observed service time into the shared EWMA (α = 1/8).
    fn note_service(&self, elapsed_ns: u64) {
        let prev = self.service_ewma.load(Ordering::Relaxed);
        let next = if prev == 0 {
            elapsed_ns
        } else {
            prev - prev / 8 + elapsed_ns / 8
        };
        self.service_ewma.store(next, Ordering::Relaxed);
    }

    fn ingest(&mut self, snippet: Snippet) -> Response {
        let t = Instant::now();
        match self.mutate(ReplayOp::Ingest(snippet)) {
            Ok(Applied::Story(story)) => {
                let elapsed = t.elapsed().as_nanos() as u64;
                self.serve_metrics.ingest_latency.record(elapsed);
                self.note_service(elapsed);
                Response::Ingested(story)
            }
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn ingest_many(&mut self, batch: Vec<Snippet>) -> Response {
        let mut count = 0u32;
        for snippet in batch {
            let t = Instant::now();
            match self.mutate(ReplayOp::Ingest(snippet)) {
                Ok(Applied::Story(_)) => {
                    let elapsed = t.elapsed().as_nanos() as u64;
                    self.serve_metrics.ingest_latency.record(elapsed);
                    self.note_service(elapsed);
                    count += 1;
                }
                Ok(_) => return internal_shape_error(),
                Err(e) => {
                    return Response::Error {
                        code: crate::proto::error_code(&e),
                        message: format!("{e} (after {count} snippets of the batch)"),
                    }
                }
            }
        }
        Response::BatchIngested(count)
    }

    fn summaries(&self) -> Vec<StorySummary> {
        let pivot = &self.engine;
        pivot
            .story_partition()
            .into_iter()
            .map(|(id, members)| StorySummary {
                id,
                source: story_source(id),
                lifespan: pivot.story(id).expect("partitioned story exists").lifespan(),
                members,
            })
            .collect()
    }

    /// Leader side of one replication poll. The handler runs on the
    /// shard thread, so `generation`, `ops_since_checkpoint`, and the
    /// WAL length are mutually consistent — there is no race with a
    /// concurrent checkpoint.
    fn repl(&mut self, generation: u64, wal_offset: u64) -> Response {
        let Some(wal) = self.wal.as_ref() else {
            return Response::from_error(&Error::InvalidConfig(format!(
                "shard {}: replication requires the leader to run with --wal-dir",
                self.idx
            )));
        };
        let wal_len = wal.len();
        if generation == self.generation && wal_offset <= wal_len {
            let path = self.wal_path.as_ref().expect("wal implies wal_path");
            match wal::read_records_range(path, wal_offset, REPL_BATCH_BYTES) {
                Ok(records) => Response::ReplFrame {
                    generation: self.generation,
                    next_offset: wal_offset + records.len() as u64,
                    leader_wal_len: wal_len,
                    leader_ops: self.ops_since_checkpoint,
                    records,
                },
                Err(e) => Response::from_error(&Error::Io(format!(
                    "shard {}: replication read at offset {wal_offset}: {e}",
                    self.idx
                ))),
            }
        } else {
            // The follower is on an older generation (or a diverged
            // offset): re-bootstrap it from the newest checkpoint,
            // shipped verbatim so both sides agree on the bytes.
            match self
                .checkpoint_dir
                .as_deref()
                .map(|d| checkpoint::newest_generation_bytes(d, self.idx))
            {
                Some(Ok(Some((gen, bytes)))) => Response::ReplCheckpoint {
                    generation: gen,
                    checkpoint: bytes,
                },
                // No checkpoint on disk: the follower starts from an
                // empty engine at the leader's generation and tails
                // the WAL from offset 0.
                Some(Ok(None)) | None => Response::ReplCheckpoint {
                    generation: self.generation,
                    checkpoint: Vec::new(),
                },
                Some(Err(e)) => Response::from_error(&e),
            }
        }
    }

    /// Follower side: install the leader's checkpoint bytes verbatim
    /// (persisting the same generation locally), reset the WAL copy,
    /// and publish the bootstrapped partition.
    fn repl_bootstrap(&mut self, generation: u64, bytes: Vec<u8>) -> Result<ReplCursor> {
        let engine = if bytes.is_empty() {
            StoryPivot::new(self.pivot_cfg.clone())
        } else {
            StoryPivot::load_checkpoint(self.pivot_cfg.clone(), &bytes)?
        };
        if let Some(dir) = &self.checkpoint_dir {
            if !bytes.is_empty() {
                checkpoint::write_generation(dir, self.idx, generation, &bytes)?;
            }
        }
        if let Some(w) = &mut self.wal {
            w.reset()
                .map_err(|e| Error::Io(format!("shard {} wal reset: {e}", self.idx)))?;
        }
        self.engine = engine;
        self.engine.set_metrics(self.engine_metrics.clone());
        self.since_align = 0;
        self.generation = generation;
        self.ops_since_checkpoint = 0;
        self.trace.push("repl_bootstrap", generation);
        self.publish_snapshot();
        Ok(self.repl_cursor())
    }

    /// Follower side: append each shipped record to the local WAL
    /// (reproducing the leader's bytes exactly), then apply it through
    /// the shard's one apply path — a duplicate from a resubscribe
    /// overlap is a no-op, same as WAL-tail replay after a crash.
    fn repl_apply(&mut self, records: &[u8]) -> Result<ReplCursor> {
        let (payloads, consumed) = wal::split_records(records);
        if consumed != records.len() {
            return Err(Error::Codec(format!(
                "shard {}: replication frame carried {} undecodable trailing bytes",
                self.idx,
                records.len() - consumed
            )));
        }
        let mut applied = false;
        for payload in payloads {
            let op = ReplayOp::decode(payload)?;
            if let Some(w) = &mut self.wal {
                w.append(payload)
                    .map_err(|e| Error::Io(format!("shard {} wal append: {e}", self.idx)))?;
            }
            // Same error policy as rebuild(): a duplicate (from a
            // resubscribe overlap) is a no-op, and any other record the
            // engine rejects is logged and skipped, not fatal — the
            // leader already applied (or skipped) it.
            match self.apply_supervised(&op, oplog::fingerprint(payload)) {
                Ok(_) | Err(Error::Duplicate(_)) => {}
                Err(e) => eprintln!(
                    "pivotd: shard {}: replicated op rejected (skipped): {e}",
                    self.idx
                ),
            }
            self.ops_since_checkpoint += 1;
            applied = true;
        }
        if applied {
            self.publish_snapshot();
        }
        Ok(self.repl_cursor())
    }

    fn repl_cursor(&self) -> ReplCursor {
        ReplCursor {
            generation: self.generation,
            wal_len: self.wal.as_ref().map_or(0, Wal::len),
            ops: self.ops_since_checkpoint,
        }
    }

    fn remove_doc(&mut self, doc: DocId) -> Response {
        match self.mutate(ReplayOp::RemoveDoc(doc)) {
            Ok(Applied::Removed(n)) => Response::Removed(n),
            Ok(_) => internal_shape_error(),
            Err(e) => Response::from_error(&e),
        }
    }

    fn drain(&mut self) -> Response {
        self.trace.push("drain", 0);
        self.engine.align_incremental();
        self.engine.refine();
        self.since_align = 0;
        // Refinement can move snippets; publish so late readers see
        // the final partition.
        self.publish_snapshot();
        // A replica's durable state is already exactly the leader's
        // checkpoint + WAL copy; writing a local generation would
        // desync the replication cursor.
        if !self.replica && self.checkpoint_dir.is_some() {
            if let Err(e) = self.checkpoint_now() {
                return Response::Error {
                    code: 7,
                    message: format!("shard {} checkpoint failed: {e}", self.idx),
                };
            }
        }
        Response::ShutdownAck
    }
}

fn internal_shape_error() -> Response {
    Response::Error {
        code: 6,
        message: "internal: mutation produced a mismatched result shape".into(),
    }
}

/// Expected queue drain time as a retry-after hint, in milliseconds:
/// `depth × ewma_ns`, clamped to `[floor_ms, max(10s, floor_ms)]`.
/// A zero EWMA (no ingest observed yet) degenerates to the floor.
fn retry_hint(depth: usize, ewma_ns: u64, floor_ms: u32) -> u32 {
    let est_ms = (depth as u64).saturating_mul(ewma_ns) / 1_000_000;
    let cap = 10_000u64.max(floor_ms as u64);
    est_ms.max(floor_ms as u64).min(cap) as u32
}
