//! The load generator: replay a [`storypivot_gen`] corpus against a
//! running server and measure throughput and latency.
//!
//! Snippets are partitioned across M connections *by source* (source id
//! mod M), so each source's stream stays on one connection and arrives
//! at its shard in delivery order — the same ordering guarantee an
//! in-process engine has. Each connection paces itself toward the
//! target aggregate rate and absorbs BUSY replies with the client's
//! jittered exponential backoff (seeded per snippet, honoring the
//! server's retry-after hint). A plain corpus replay is a one-segment
//! chaos script, so both modes share one replay loop and retry typed
//! rejections the same way.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use storypivot_gen::scenario::{ScenarioOp, Script};
use storypivot_gen::Corpus;
use storypivot_substrate::timing::Histogram;
use storypivot_types::{DocId, Error, Result, Snippet, Source, StoryId};

use crate::client::{BackoffPolicy, Client, RetryStats};
use crate::proto::{frame, Request, MAX_FRAME_LEN};

/// Load-generation options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent connections (sources are split across them).
    pub connections: usize,
    /// Target aggregate ingest rate in events/second (0 = as fast as
    /// possible).
    pub rate: u64,
    /// How many BUSY replies to absorb per snippet before giving up.
    pub max_retries: u32,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            connections: 4,
            rate: 0,
            max_retries: 100,
        }
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Snippets successfully ingested.
    pub events: u64,
    /// BUSY replies absorbed (each one cost a retry round-trip).
    pub busy_retries: u64,
    /// SHED replies absorbed: ingests the server admitted but dropped
    /// past their deadline budget. Counted apart from BUSY because they
    /// cost the server queue residency, not just an admission check.
    pub shed_retries: u64,
    /// Typed rejections absorbed (e.g. an injected journal fault
    /// failing the append). The server applies nothing on a rejection —
    /// append-before-apply — so the replay retries the snippet, up to
    /// 50 times per snippet.
    pub rejected_retries: u64,
    /// Wall-clock time of the replay.
    pub wall: Duration,
    /// Per-request round-trip latency (nanoseconds).
    pub latency: Histogram,
}

impl LoadReport {
    /// Achieved throughput in events/second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.events as f64 / self.wall.as_secs_f64()
    }

    /// Median round-trip latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency.percentile(0.50) as f64 / 1e3
    }

    /// 95th-percentile round-trip latency in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.latency.percentile(0.95) as f64 / 1e3
    }

    /// 99th-percentile round-trip latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.percentile(0.99) as f64 / 1e3
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} events in {:.2}s → {:.0} ev/s; rtt p50/p95/p99 {:.1}/{:.1}/{:.1} µs; \
             {} busy retries; {} shed retries; {} rejected retries",
            self.events,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.p50_us(),
            self.p95_us(),
            self.p99_us(),
            self.busy_retries,
            self.shed_retries,
            self.rejected_retries,
        )
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"events\": {},\n",
                "  \"busy_retries\": {},\n",
                "  \"shed_retries\": {},\n",
                "  \"rejected_retries\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"throughput_ev_per_s\": {:.2},\n",
                "  \"rtt_p50_us\": {:.2},\n",
                "  \"rtt_p95_us\": {:.2},\n",
                "  \"rtt_p99_us\": {:.2}\n",
                "}}"
            ),
            self.events,
            self.busy_retries,
            self.shed_retries,
            self.rejected_retries,
            self.wall.as_secs_f64(),
            self.throughput(),
            self.p50_us(),
            self.p95_us(),
            self.p99_us(),
        )
    }
}

/// Register the corpus's sources (connection 0) and replay its snippet
/// stream over `connections` lanes paced toward `opts.rate`: a
/// [`replay_script`] of [`Script::from_corpus`].
///
/// The server allocates source ids sequentially from zero against a
/// fresh engine, which matches the corpus's own numbering; a mismatch
/// (server not fresh) is an error.
pub fn replay<A: ToSocketAddrs>(addr: A, corpus: &Corpus, opts: &LoadOptions) -> Result<LoadReport> {
    replay_script(addr, &Script::from_corpus(corpus, opts.rate), opts)
}

// ---- chaos scenario replay -------------------------------------------

/// One segment's work, pre-split for the lanes: control ops run on
/// lane 0 with barriers around them so no lane ingests a snippet of a
/// source that is not registered yet, and no document is retracted
/// before every lane has finished the segment's ingests.
struct SegmentPlan {
    rate: u64,
    gap_ms: u64,
    adds: Vec<Source>,
    per_lane: Vec<Vec<Snippet>>,
    removes: Vec<DocId>,
}

/// Replay a compiled chaos [`Script`] against a running server.
///
/// Like [`replay`], snippets are partitioned across `opts.connections`
/// lanes by source id, so each source's stream stays in order. The
/// lanes advance segment by segment behind barriers: lane 0 plays the
/// segment's mid-stream ADD_SOURCE ops (and, after everyone's ingests,
/// its REMOVE_DOC retractions); every lane observes the segment's
/// dormancy gap and paces toward its share of the segment's rate.
pub fn replay_script<A: ToSocketAddrs>(
    addr: A,
    script: &Script,
    opts: &LoadOptions,
) -> Result<LoadReport> {
    if opts.connections == 0 {
        return Err(Error::InvalidConfig("loadgen: connections must be >= 1".into()));
    }
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::InvalidConfig("loadgen: address resolved to nothing".into()))?;

    let mut setup = Client::connect(addr)?;
    for source in &script.sources {
        let got = setup.add_source(&source.name, source.kind, source.typical_lag)?;
        if got != source.id {
            return Err(Error::InvalidConfig(format!(
                "server allocated source id {got} where the script expects {} — \
                 is the server fresh?",
                source.id
            )));
        }
    }

    let lanes = opts.connections;
    let plans: Vec<SegmentPlan> = script
        .segments
        .iter()
        .map(|seg| {
            let mut plan = SegmentPlan {
                rate: seg.rate,
                gap_ms: seg.gap_ms,
                adds: Vec::new(),
                per_lane: vec![Vec::new(); lanes],
                removes: Vec::new(),
            };
            for op in &seg.ops {
                match op {
                    ScenarioOp::AddSource(s) => plan.adds.push(s.clone()),
                    ScenarioOp::Ingest(s) => {
                        plan.per_lane[s.source.raw() as usize % lanes].push(s.clone())
                    }
                    ScenarioOp::RemoveDoc(d) => plan.removes.push(*d),
                }
            }
            plan
        })
        .collect();
    let plans = std::sync::Arc::new(plans);
    let gate = std::sync::Arc::new(std::sync::Barrier::new(lanes));

    let backoff = BackoffPolicy {
        max_attempts: opts.max_retries.saturating_add(1),
        ..BackoffPolicy::default()
    };
    let start = Instant::now();
    let mut handles = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let plans = std::sync::Arc::clone(&plans);
        let gate = std::sync::Arc::clone(&gate);
        handles.push(std::thread::spawn(move || -> Result<(u64, RetryStats, u64, Histogram)> {
            let mut client = Client::connect(addr)?;
            let mut hist = Histogram::new();
            let mut events = 0u64;
            let mut retries = RetryStats::default();
            let mut rejected = 0u64;
            for plan in plans.iter() {
                gate.wait();
                if plan.gap_ms > 0 {
                    std::thread::sleep(Duration::from_millis(plan.gap_ms));
                }
                // Mid-stream registrations land before any lane may
                // ingest the new sources' snippets.
                if lane == 0 {
                    for source in &plan.adds {
                        let got =
                            client.add_source(&source.name, source.kind, source.typical_lag)?;
                        if got != source.id {
                            return Err(Error::InvalidConfig(format!(
                                "server allocated source id {got} where the script expects {}",
                                source.id
                            )));
                        }
                    }
                }
                gate.wait();
                let per_lane_rate = plan.rate as f64 / lanes as f64;
                let seg_start = Instant::now();
                for (i, snippet) in plan.per_lane[lane].iter().enumerate() {
                    if per_lane_rate > 0.0 {
                        let due = Duration::from_secs_f64(i as f64 / per_lane_rate);
                        let elapsed = seg_start.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                    }
                    let t = Instant::now();
                    let mut attempts = 0u32;
                    let r = loop {
                        match client.ingest_backoff(snippet, backoff) {
                            Ok((_, r)) => break r,
                            // A typed rejection (a chaos server failing
                            // the journal append, say) applied nothing —
                            // append-before-apply — so a straight retry
                            // is safe. Bounded, so a dead server still
                            // fails the lane instead of spinning.
                            Err(_) if attempts < 50 => {
                                attempts += 1;
                                rejected += 1;
                            }
                            Err(e) => return Err(e),
                        }
                    };
                    retries.busy += r.busy;
                    retries.shed += r.shed;
                    hist.record(t.elapsed().as_nanos() as u64);
                    events += 1;
                }
                gate.wait();
                // Retractions only after every lane's ingests landed.
                if lane == 0 {
                    for doc in &plan.removes {
                        client.remove_doc(*doc)?;
                    }
                }
            }
            Ok((events, retries, rejected, hist))
        }));
    }

    let mut report = LoadReport {
        events: 0,
        busy_retries: 0,
        shed_retries: 0,
        rejected_retries: 0,
        wall: Duration::ZERO,
        latency: Histogram::new(),
    };
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok((events, retries, rejected, hist))) => {
                report.events += events;
                report.busy_retries += retries.busy as u64;
                report.shed_retries += retries.shed as u64;
                report.rejected_retries += rejected;
                report.latency.merge(&hist);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("loadgen scenario lane panicked".into())),
        }
    }
    report.wall = start.elapsed();
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

// ---- read fan-out ----------------------------------------------------

/// Options for the read fan-out bench: round-robin QUERY_STORIES
/// across a leader and its follower replicas.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Total QUERY_STORIES round trips to issue (split across threads).
    pub requests: u64,
    /// Concurrent reader threads; each holds one connection per target.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            requests: 2_000,
            threads: 4,
        }
    }
}

/// Per-target slice of a [`QueryReport`].
#[derive(Debug, Clone)]
pub struct TargetReport {
    /// The target's address, as given.
    pub addr: String,
    /// Round trips this target answered.
    pub requests: u64,
    /// Round-trip latency against this target (nanoseconds).
    pub latency: Histogram,
}

/// What a read fan-out run measured.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// One entry per target, in the order the targets were given.
    pub targets: Vec<TargetReport>,
    /// Total round trips across all targets.
    pub requests: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl QueryReport {
    /// Aggregate achieved throughput in queries/second.
    pub fn qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.requests as f64 / self.wall.as_secs_f64()
    }

    /// Human-readable summary: one aggregate line plus one per target.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} queries over {} targets in {:.2}s → {:.0} q/s",
            self.requests,
            self.targets.len(),
            self.wall.as_secs_f64(),
            self.qps(),
        );
        for t in &self.targets {
            let _ = write!(
                out,
                "\n  {}: {} reqs; rtt p50/p95/p99 {:.1}/{:.1}/{:.1} µs",
                t.addr,
                t.requests,
                t.latency.percentile(0.50) as f64 / 1e3,
                t.latency.percentile(0.95) as f64 / 1e3,
                t.latency.percentile(0.99) as f64 / 1e3,
            );
        }
        out
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            concat!(
                "{{\n",
                "  \"requests\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"qps\": {:.2},\n",
                "  \"targets\": [\n",
            ),
            self.requests,
            self.wall.as_secs_f64(),
            self.qps(),
        );
        for (i, t) in self.targets.iter().enumerate() {
            let _ = write!(
                out,
                concat!(
                    "    {{\"addr\": \"{}\", \"requests\": {}, ",
                    "\"rtt_p50_us\": {:.2}, \"rtt_p95_us\": {:.2}, ",
                    "\"rtt_p99_us\": {:.2}}}{}\n",
                ),
                t.addr,
                t.requests,
                t.latency.percentile(0.50) as f64 / 1e3,
                t.latency.percentile(0.95) as f64 / 1e3,
                t.latency.percentile(0.99) as f64 / 1e3,
                if i + 1 == self.targets.len() { "" } else { "," },
            );
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Issue `opts.requests` QUERY_STORIES round trips round-robined over
/// `targets` (typically the leader plus its replicas), from
/// `opts.threads` concurrent readers, and report aggregate throughput
/// plus per-target round-trip latency.
///
/// Each thread opens its own connection to every target and starts its
/// rotation at a different offset, so the load lands evenly even when
/// the request count doesn't divide cleanly.
pub fn query_fanout(targets: &[String], opts: &QueryOptions) -> Result<QueryReport> {
    if targets.is_empty() || opts.threads == 0 {
        return Err(Error::InvalidConfig(
            "query fan-out: need at least one target and one thread".into(),
        ));
    }
    let start = Instant::now();
    let mut handles = Vec::with_capacity(opts.threads);
    for t in 0..opts.threads {
        let share =
            opts.requests / opts.threads as u64 + u64::from((t as u64) < opts.requests % opts.threads as u64);
        let targets: Vec<String> = targets.to_vec();
        handles.push(std::thread::spawn(move || -> Result<Vec<(u64, Histogram)>> {
            let mut conns = Vec::with_capacity(targets.len());
            for addr in &targets {
                conns.push(Client::connect(addr.as_str())?);
            }
            let mut per_target: Vec<(u64, Histogram)> =
                targets.iter().map(|_| (0, Histogram::new())).collect();
            for i in 0..share {
                let which = (t as u64 + i) as usize % conns.len();
                let at = Instant::now();
                conns[which].query_stories()?;
                per_target[which].1.record(at.elapsed().as_nanos() as u64);
                per_target[which].0 += 1;
            }
            Ok(per_target)
        }));
    }

    let mut report = QueryReport {
        targets: targets
            .iter()
            .map(|addr| TargetReport {
                addr: addr.clone(),
                requests: 0,
                latency: Histogram::new(),
            })
            .collect(),
        requests: 0,
        wall: Duration::ZERO,
    };
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(per_target)) => {
                for (slot, (requests, hist)) in report.targets.iter_mut().zip(per_target) {
                    slot.requests += requests;
                    slot.latency.merge(&hist);
                    report.requests += requests;
                }
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("query fan-out reader thread panicked".into())),
        }
    }
    report.wall = start.elapsed();
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

// ---- connection storm ------------------------------------------------

/// Options for the many-connection trickle mode: hold `connections`
/// open sockets and send each one a tiny request every `interval`,
/// for `rounds` rounds — the workload shape the multiplexed serving
/// runtime exists for (thread-per-connection dies here first).
#[derive(Debug, Clone)]
pub struct StormOptions {
    /// Sockets to hold open for the whole run.
    pub connections: usize,
    /// Client-side driver threads the sockets are split across.
    pub drivers: usize,
    /// Trickle rounds: every round sends one request per connection.
    pub rounds: usize,
    /// Pacing between rounds (each connection sees one request per
    /// interval). `ZERO` trickles as fast as the drivers can.
    pub interval: Duration,
}

impl Default for StormOptions {
    fn default() -> Self {
        StormOptions {
            connections: 1000,
            drivers: 8,
            rounds: 10,
            interval: Duration::from_millis(100),
        }
    }
}

/// What a connection storm measured.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Connections successfully opened and held.
    pub connections: usize,
    /// Requests completed (round trips).
    pub requests: u64,
    /// Wall-clock time from first connect to last response.
    pub wall: Duration,
    /// Time to open every connection.
    pub connect_wall: Duration,
    /// Per-request round-trip latency (nanoseconds).
    pub latency: Histogram,
}

impl StormReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} conns (opened in {:.2}s), {} reqs in {:.2}s; rtt p50/p95/p99 {:.1}/{:.1}/{:.1} µs",
            self.connections,
            self.connect_wall.as_secs_f64(),
            self.requests,
            self.wall.as_secs_f64(),
            self.latency.percentile(0.50) as f64 / 1e3,
            self.latency.percentile(0.95) as f64 / 1e3,
            self.latency.percentile(0.99) as f64 / 1e3,
        )
    }

    /// A JSON object (same shape as the bench harness artifacts).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"connections\": {},\n",
                "  \"requests\": {},\n",
                "  \"wall_secs\": {:.6},\n",
                "  \"connect_wall_secs\": {:.6},\n",
                "  \"rtt_p50_us\": {:.2},\n",
                "  \"rtt_p95_us\": {:.2},\n",
                "  \"rtt_p99_us\": {:.2}\n",
                "}}"
            ),
            self.connections,
            self.requests,
            self.wall.as_secs_f64(),
            self.connect_wall.as_secs_f64(),
            self.latency.percentile(0.50) as f64 / 1e3,
            self.latency.percentile(0.95) as f64 / 1e3,
            self.latency.percentile(0.99) as f64 / 1e3,
        )
    }
}

/// One unbuffered storm lane connection: raw `TcpStream` (no
/// `BufReader`/`BufWriter`), so client-side memory per connection is
/// just the socket — the measurement isolates *server-side* per-
/// connection cost.
fn storm_round_trip(
    stream: &mut TcpStream,
    request: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<()> {
    stream.write_all(request)?;
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(Error::Codec(format!("storm: bad response frame length {len}")));
    }
    scratch.resize(len as usize, 0);
    stream.read_exact(scratch)?;
    Ok(())
}

/// Open `opts.connections` sockets and trickle tiny requests over all
/// of them. The probe request is `GetStory` on a story id that cannot
/// exist, so every round trip is a real dispatch through a shard queue
/// and back (the typed unknown-story error response), with no server
/// state required and no state mutated.
pub fn conn_storm<A: ToSocketAddrs>(addr: A, opts: &StormOptions) -> Result<StormReport> {
    if opts.connections == 0 || opts.drivers == 0 {
        return Err(Error::InvalidConfig(
            "storm: connections and drivers must be >= 1".into(),
        ));
    }
    let addr: SocketAddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| Error::InvalidConfig("storm: address resolved to nothing".into()))?;
    let drivers = opts.drivers.min(opts.connections);
    let request = frame(|b| Request::GetStory(StoryId::new(u32::MAX)).encode(b));

    let start = Instant::now();
    let mut handles = Vec::with_capacity(drivers);
    for d in 0..drivers {
        // Spread the remainder so lane sizes differ by at most one.
        let share = opts.connections / drivers + usize::from(d < opts.connections % drivers);
        let request = request.clone();
        let rounds = opts.rounds;
        let interval = opts.interval;
        handles.push(std::thread::spawn(
            move || -> Result<(usize, u64, Duration, Histogram)> {
                let mut conns = Vec::with_capacity(share);
                for i in 0..share {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    conns.push(stream);
                    // Stagger connects so the listener backlog never
                    // overflows into SYN-retry stalls.
                    if i % 64 == 63 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                let connect_wall = start.elapsed();
                let mut hist = Histogram::new();
                let mut requests = 0u64;
                let mut scratch = Vec::with_capacity(256);
                let trickle_start = Instant::now();
                for round in 0..rounds {
                    if !interval.is_zero() {
                        let due = interval * round as u32;
                        let elapsed = trickle_start.elapsed();
                        if due > elapsed {
                            std::thread::sleep(due - elapsed);
                        }
                    }
                    for stream in &mut conns {
                        let t = Instant::now();
                        storm_round_trip(stream, &request, &mut scratch)?;
                        hist.record(t.elapsed().as_nanos() as u64);
                        requests += 1;
                    }
                }
                Ok((conns.len(), requests, connect_wall, hist))
            },
        ));
    }

    let mut report = StormReport {
        connections: 0,
        requests: 0,
        wall: Duration::ZERO,
        connect_wall: Duration::ZERO,
        latency: Histogram::new(),
    };
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok((conns, requests, connect_wall, hist))) => {
                report.connections += conns;
                report.requests += requests;
                report.connect_wall = report.connect_wall.max(connect_wall);
                report.latency.merge(&hist);
            }
            Ok(Err(e)) => failure = Some(e),
            Err(_) => failure = Some(Error::Io("storm driver thread panicked".into())),
        }
    }
    report.wall = start.elapsed();
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_and_summary_are_well_formed() {
        let mut latency = Histogram::new();
        for v in [1_000u64, 2_000, 50_000] {
            latency.record(v);
        }
        let r = LoadReport {
            events: 3,
            busy_retries: 1,
            shed_retries: 2,
            rejected_retries: 4,
            wall: Duration::from_millis(30),
            latency,
        };
        assert!(r.throughput() > 99.0 && r.throughput() < 101.0);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"events\": 3"));
        assert!(json.contains("\"busy_retries\": 1"));
        assert!(json.contains("\"shed_retries\": 2"));
        assert!(json.contains("\"rejected_retries\": 4"));
        assert!(r.summary().contains("3 events"));
        assert!(r.summary().contains("2 shed retries"));
        assert!(r.summary().contains("4 rejected retries"));
    }

    #[test]
    fn query_report_json_lists_every_target() {
        let mut latency = Histogram::new();
        latency.record(10_000);
        let r = QueryReport {
            targets: vec![
                TargetReport {
                    addr: "127.0.0.1:7411".into(),
                    requests: 2,
                    latency: latency.clone(),
                },
                TargetReport {
                    addr: "127.0.0.1:7412".into(),
                    requests: 1,
                    latency,
                },
            ],
            requests: 3,
            wall: Duration::from_millis(30),
        };
        assert!(r.qps() > 99.0 && r.qps() < 101.0);
        let json = r.to_json();
        assert!(json.contains("\"requests\": 3"));
        assert!(json.contains("127.0.0.1:7412"));
        // Exactly one separating comma between the two target objects.
        assert_eq!(json.matches("},\n").count(), 1);
        assert!(r.summary().contains("2 targets"));
    }

    #[test]
    fn query_fanout_rejects_empty_inputs() {
        assert!(query_fanout(&[], &QueryOptions::default()).is_err());
        let opts = QueryOptions {
            threads: 0,
            ..QueryOptions::default()
        };
        assert!(query_fanout(&["127.0.0.1:1".into()], &opts).is_err());
    }
}
