//! The served run: a real `pivotd` process driven over TCP.
//!
//! Set-up (spawn, source registration) is timed apart from
//! the timed phase. The timed phase is driven by two threads over at
//! most two connections: the sender sends every op at its due time (or,
//! on a closed-loop lane, as soon as the previous op is acknowledged)
//! and never slows down because the server did, up to the server's
//! pipeline cap; the receiver polls both sockets and matches each
//! response to its op in order. Every op is timed from its due time, so
//! a stall also counts against the ops that queued behind it.
//!
//! `load::replay` in the serve crate instead starts each op's clock
//! when it is actually sent and sends the next op only after the
//! previous reply, so a stalled shard delays the schedule rather than
//! the measured latency; that is why its p99 hides alignment stalls.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use storypivot_serve::client::Client;
use storypivot_serve::proto::{frame, frame_ready, Request, Response, ResponseRef, StorySummary};
use storypivot_substrate::net::{Poller, READABLE};
use storypivot_types::SnippetId;

use crate::stats::Samples;
use crate::workload::{Inputs, Lane, Op, Spec};

/// Requests one connection may have in flight (`pivotd`'s default
/// `--max-pipeline`).
pub const MAX_PIPELINE: usize = 64;
/// BUSY/SHED replies absorbed per op before it counts as failed.
const MAX_RETRIES: u32 = 50;
/// How long past the schedule's length the phase may run before ops
/// still unsent or in flight count as failed. A closed-loop lane sends
/// its whole fixed count however long that takes, up to this limit.
const COMPLETION_GRACE: Duration = Duration::from_secs(30);
/// How long `pivotd` may take to write its port file.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors of the served run's steps.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Result of the served run's steps.
pub type Result<T> = std::result::Result<T, Error>;

/// A running `pivotd`.
pub struct Server {
    child: Child,
    /// Its listening address.
    pub addr: SocketAddr,
}

impl Server {
    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the process to exit after SHUTDOWN (killing it past
    /// `timeout`); returns whether it exited cleanly by itself.
    pub fn wait_exit(mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.kill();
                    return false;
                }
            }
        }
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Start `pivotd` with `spec`'s flags on state under `dir`, and wait
/// until it has written its port file.
pub fn spawn(pivotd: &Path, spec: &Spec, dir: &Path) -> Result<Server> {
    std::fs::create_dir_all(dir)?;
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let log = std::fs::File::create(dir.join("pivotd.log"))?;
    let mut child = Command::new(pivotd)
        .args(spec.server_flags())
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--wal-dir")
        .arg(dir.join("wal"))
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", pivotd.display()))?;
    let deadline = Instant::now() + START_TIMEOUT;
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse::<u16>().ok()) {
                return Ok(Server {
                    child,
                    addr: SocketAddr::from(([127, 0, 0, 1], port)),
                });
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "pivotd exited during start-up ({status}); see {}",
                dir.join("pivotd.log").display()
            )
            .into());
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("pivotd did not write its port file in time".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Set-up time split into its parts (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Spawn to port file written.
    pub spawn_s: f64,
    /// Every source registered.
    pub register_s: f64,
}

impl Setup {
    /// Spawn to ready.
    pub fn total(&self) -> f64 {
        self.spawn_s + self.register_s
    }
}

/// Spawn and register the corpus's sources. Returns the server with the
/// control connection used for set-up.
pub fn set_up(
    pivotd: &Path,
    spec: &Spec,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(Server, Client, Setup)> {
    let t0 = Instant::now();
    let server = spawn(pivotd, spec, dir)?;
    let t1 = Instant::now();
    let mut control = Client::connect(server.addr)?;
    for source in &inputs.corpus.sources {
        let got = control.add_source(&source.name, source.kind, source.typical_lag)?;
        if got != source.id {
            return Err(format!(
                "server allocated source {got} where the corpus has {}",
                source.id
            )
            .into());
        }
    }
    let t2 = Instant::now();
    Ok((
        server,
        control,
        Setup {
            spawn_s: (t1 - t0).as_secs_f64(),
            register_s: (t2 - t1).as_secs_f64(),
        },
    ))
}

/// What the generator measured in the timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Ingest `(due, latency)`: due time after the phase started and
    /// latency from due time to ack (ns).
    pub ingest: Vec<(u64, u64)>,
    /// How late each first send ran against its due time (ns).
    pub lag: Samples,
    /// Ops the phase had to send: every op of every lane (one never
    /// sent counts as failed).
    pub attempted: u64,
    /// Ops that ended unacknowledged.
    pub failed: u64,
    /// Ops sent per lane (a prefix of each lane).
    pub sent_per_lane: Vec<usize>,
    /// Snippets whose ingest was acknowledged.
    pub acked: Vec<SnippetId>,
    /// Snippets of partially acknowledged batches: they may or may not
    /// have been applied.
    pub uncertain: Vec<SnippetId>,
    /// BUSY replies absorbed.
    pub busy: u64,
    /// SHED replies absorbed.
    pub shed: u64,
    /// Start to the last ingest acknowledgement (s).
    pub ingest_wall_s: f64,
    /// First failure's description, if any op failed.
    pub first_error: Option<String>,
}

struct Flight {
    idx: usize,
    due: Instant,
    attempt: u32,
}

enum Event {
    /// An op of `lane` completed (acked or failed) at `at`.
    Done { lane: usize, at: Instant },
    /// Resend op `idx` of `lane` after `after`.
    Retry {
        lane: usize,
        idx: usize,
        due: Instant,
        attempt: u32,
        after: Duration,
    },
}

/// Frame every op of a lane up front, so the send loop only writes.
fn encode(lane: &Lane) -> Vec<Vec<u8>> {
    lane.ops
        .iter()
        .map(|p| {
            let req = match &p.op {
                Op::Ingest(s) => Request::IngestSnippet(s.clone()),
                Op::Batch(b) => Request::IngestBatch(b.clone()),
            };
            frame(|b| req.encode(b))
        })
        .collect()
}

/// Drive the timed phase against `addr`. `seconds` is the schedule's
/// length; every op is sent, and the phase ends when all are settled or
/// [`COMPLETION_GRACE`] past that length.
pub fn drive(addr: SocketAddr, lanes: &[Lane], seconds: f64) -> Result<Timed> {
    let frames: Vec<Vec<Vec<u8>>> = lanes.iter().map(encode).collect();
    let mut streams = Vec::new();
    for _ in lanes {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        streams.push(s);
    }
    let readers: Vec<TcpStream> = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<std::io::Result<_>>()?;
    let inflight: Vec<Mutex<VecDeque<Flight>>> =
        lanes.iter().map(|_| Mutex::new(VecDeque::new())).collect();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Event>();
    // A short lead lets both threads settle before the first op is due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(seconds) + COMPLETION_GRACE;

    let (mut timed, recv) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(lanes, readers, &inflight, &stop, tx, t0));
        let sent = send(lanes, &frames, &mut streams, &inflight, &rx, t0, deadline);
        stop.store(true, Ordering::SeqCst);
        let recv = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string());
        (sent, recv)
    });
    let recv = recv?;
    timed.attempted = lanes.iter().map(|l| l.ops.len() as u64).sum();
    timed.ingest = recv.ingest;
    timed.acked = recv.acked;
    timed.uncertain = recv.uncertain;
    timed.busy = recv.busy;
    timed.shed = recv.shed;
    timed.ingest_wall_s = recv.last_ingest.map_or(0.0, |l| (l - t0).as_secs_f64());
    // Ops still in flight when the grace period ran out never completed,
    // and ops never sent did not run at all: either way the phase did
    // less than its fixed work, so they count as failed.
    let stranded: u64 = inflight
        .iter()
        .map(|q| q.lock().expect("inflight lock").len() as u64)
        .sum();
    let unsent: u64 = lanes
        .iter()
        .zip(&timed.sent_per_lane)
        .map(|(lane, &sent)| (lane.ops.len() - sent) as u64)
        .sum();
    timed.failed = recv.failed + stranded + unsent;
    timed.first_error = recv.first_error.or_else(|| {
        (stranded + unsent > 0)
            .then(|| format!("{stranded} ops never completed and {unsent} were never sent"))
    });
    Ok(timed)
}

/// The sender: writes each op when due, honoring the pipeline cap, and
/// resends BUSY/SHED-rejected ingests after the server's hint.
fn send(
    lanes: &[Lane],
    frames: &[Vec<Vec<u8>>],
    streams: &mut [TcpStream],
    inflight: &[Mutex<VecDeque<Flight>>],
    events: &mpsc::Receiver<Event>,
    t0: Instant,
    deadline: Instant,
) -> Timed {
    let n = lanes.len();
    let mut next = vec![0usize; n];
    let mut retries: Vec<VecDeque<(Instant, usize, Instant, u32)>> = vec![VecDeque::new(); n];
    // Closed-loop lanes: when the previous op completed (its successor's
    // due time), `None` while one is outstanding.
    let mut ready: Vec<Option<Instant>> = vec![Some(t0); n];
    let mut out = Timed::default();
    let mut wbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut broken = vec![false; n];
    loop {
        let now = Instant::now();
        for k in 0..n {
            if broken[k] {
                continue;
            }
            wbuf.clear();
            let mut q = inflight[k].lock().expect("inflight lock");
            while q.len() < MAX_PIPELINE {
                if let Some(&(at, idx, due, attempt)) = retries[k].front() {
                    if at <= now {
                        retries[k].pop_front();
                        wbuf.extend_from_slice(&frames[k][idx]);
                        q.push_back(Flight { idx, due, attempt });
                        continue;
                    }
                }
                let idx = next[k];
                if idx >= lanes[k].ops.len() {
                    break;
                }
                let due = if lanes[k].closed {
                    match ready[k] {
                        Some(at) => at.max(t0),
                        None => break,
                    }
                } else {
                    t0 + Duration::from_nanos(lanes[k].ops[idx].due)
                };
                if due > now {
                    break;
                }
                out.lag.push((now - due).as_nanos() as u64);
                wbuf.extend_from_slice(&frames[k][idx]);
                q.push_back(Flight {
                    idx,
                    due,
                    attempt: 0,
                });
                next[k] += 1;
                if lanes[k].closed {
                    ready[k] = None;
                    break;
                }
            }
            drop(q);
            if !wbuf.is_empty() && streams[k].write_all(&wbuf).is_err() {
                // The receiver sees the same failure and fails the
                // outstanding ops; nothing more is sent on this lane.
                broken[k] = true;
            }
        }

        let finished = (0..n).all(|k| {
            (broken[k] || next[k] >= lanes[k].ops.len())
                && retries[k].is_empty()
                && inflight[k].lock().expect("inflight lock").is_empty()
        });
        if finished || now >= deadline {
            break;
        }

        // Sleep until the next due op or retry, or until the receiver
        // reports a completion (which may free pipeline room or release
        // a closed-loop lane).
        let mut wake = deadline;
        for k in 0..n {
            // A lane at its pipeline cap waits for a completion instead.
            if broken[k] || inflight[k].lock().expect("inflight lock").len() >= MAX_PIPELINE {
                continue;
            }
            if let Some(&(at, ..)) = retries[k].front() {
                wake = wake.min(at);
            }
            if next[k] < lanes[k].ops.len() {
                if !lanes[k].closed {
                    wake = wake.min(t0 + Duration::from_nanos(lanes[k].ops[next[k]].due));
                } else if let Some(at) = ready[k] {
                    wake = wake.min(at.max(t0));
                }
            }
        }
        let mut handle = |ev: Event| match ev {
            Event::Done { lane, at } => {
                if lanes[lane].closed {
                    ready[lane] = Some(at);
                }
            }
            Event::Retry {
                lane,
                idx,
                due,
                attempt,
                after,
            } => {
                retries[lane].push_back((Instant::now() + after, idx, due, attempt));
            }
        };
        let now = Instant::now();
        if wake > now {
            match events.recv_timeout(wake - now) {
                Ok(ev) => handle(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        while let Ok(ev) = events.try_recv() {
            handle(ev);
        }
    }
    out.sent_per_lane = next;
    out
}

#[derive(Default)]
struct Received {
    ingest: Vec<(u64, u64)>,
    acked: Vec<SnippetId>,
    uncertain: Vec<SnippetId>,
    busy: u64,
    shed: u64,
    failed: u64,
    last_ingest: Option<Instant>,
    first_error: Option<String>,
}

impl Received {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

/// The receiver: polls every lane's socket and settles each response
/// against the oldest op in flight on that lane.
fn receive(
    lanes: &[Lane],
    mut readers: Vec<TcpStream>,
    inflight: &[Mutex<VecDeque<Flight>>],
    stop: &AtomicBool,
    events: mpsc::Sender<Event>,
    t0: Instant,
) -> Received {
    let mut r = Received::default();
    let mut bufs: Vec<Vec<u8>> = lanes.iter().map(|_| Vec::with_capacity(1 << 16)).collect();
    let mut closed = vec![false; lanes.len()];
    let mut poller = Poller::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        poller.clear();
        for (k, s) in readers.iter().enumerate() {
            if !closed[k] {
                poller.register(s.as_raw_fd(), k, READABLE);
            }
        }
        if poller.is_empty() {
            break;
        }
        if poller.poll(Some(Duration::from_millis(20))).is_err() {
            continue;
        }
        let ready: Vec<usize> = poller.events().map(|e| e.token).collect();
        for k in ready {
            match readers[k].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    closed[k] = true;
                    let mut q = inflight[k].lock().expect("inflight lock");
                    while q.pop_front().is_some() {
                        r.fail(format!("lane {k}: connection closed with ops in flight"));
                    }
                    let _ = events.send(Event::Done {
                        lane: k,
                        at: Instant::now(),
                    });
                    continue;
                }
                Ok(got) => bufs[k].extend_from_slice(&chunk[..got]),
            }
            let mut consumed = 0;
            loop {
                let total = match frame_ready(&bufs[k][consumed..]) {
                    Ok(Some(total)) => total,
                    Ok(None) => break,
                    Err(e) => {
                        r.fail(format!("lane {k}: bad reply frame: {e}"));
                        closed[k] = true;
                        break;
                    }
                };
                let now = Instant::now();
                let payload = &bufs[k][consumed + 4..consumed + total];
                let (flight, wake_sender) = {
                    let mut q = inflight[k].lock().expect("inflight lock");
                    let full = q.len() >= MAX_PIPELINE;
                    let flight = q.pop_front();
                    (flight, full || q.is_empty())
                };
                let Some(flight) = flight else {
                    r.fail(format!("lane {k}: reply with nothing in flight"));
                    consumed += total;
                    continue;
                };
                let op = &lanes[k].ops[flight.idx].op;
                settle(&mut r, &events, k, op, &flight, payload, now, t0);
                // The sender waits on completions only to release a
                // closed-loop lane or a lane at its pipeline cap, and to
                // notice that the phase is over.
                if lanes[k].closed || wake_sender {
                    let _ = events.send(Event::Done { lane: k, at: now });
                }
                consumed += total;
            }
            bufs[k].drain(..consumed);
        }
    }
    r
}

/// Classify one response.
#[allow(clippy::too_many_arguments)]
fn settle(
    r: &mut Received,
    events: &mpsc::Sender<Event>,
    lane: usize,
    op: &Op,
    flight: &Flight,
    payload: &[u8],
    now: Instant,
    t0: Instant,
) {
    let sample = (
        flight.due.saturating_duration_since(t0).as_nanos() as u64,
        (now - flight.due).as_nanos() as u64,
    );
    let resp = match Response::decode_borrowed(payload) {
        Ok(resp) => resp,
        Err(e) => return r.fail(format!("undecodable reply: {e}")),
    };
    let retry = |r: &mut Received, hint: u32| {
        if flight.attempt < MAX_RETRIES {
            let _ = events.send(Event::Retry {
                lane,
                idx: flight.idx,
                due: flight.due,
                attempt: flight.attempt + 1,
                after: Duration::from_millis(hint.clamp(1, 100) as u64),
            });
            false
        } else {
            r.fail("retries exhausted".into());
            true
        }
    };
    match (op, resp) {
        (Op::Ingest(_) | Op::Batch(_), ResponseRef::Busy { retry_after_ms }) => {
            r.busy += 1;
            retry(r, retry_after_ms);
        }
        (Op::Ingest(_) | Op::Batch(_), ResponseRef::Shed { retry_after_ms }) => {
            r.shed += 1;
            retry(r, retry_after_ms);
        }
        (Op::Ingest(s), ResponseRef::Ingested(_)) => {
            r.ingest.push(sample);
            r.acked.push(s.id);
            r.last_ingest = Some(now);
        }
        (Op::Batch(b), ResponseRef::BatchIngested(n)) if n as usize == b.len() => {
            r.ingest.push(sample);
            r.acked.extend(b.iter().map(|s| s.id));
            r.last_ingest = Some(now);
        }
        (Op::Batch(b), other) => {
            r.uncertain.extend(b.iter().map(|s| s.id));
            r.fail(format!(
                "batch not fully acknowledged: {:?}",
                other.to_owned()
            ));
        }
        (_, other) => r.fail(format!(
            "unexpected reply to {}: {:?}",
            op_name(op),
            other.to_owned()
        )),
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Ingest(_) => "INGEST",
        Op::Batch(_) => "INGEST_BATCH",
    }
}

/// `pivotd`'s CPU time so far (user + system, ms) from `/proc/<pid>/stat`.
pub fn cpu_ms(pid: u32) -> Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_cpu_ms(&stat).ok_or_else(|| format!("cannot parse /proc/{pid}/stat").into())
}

/// Parse utime + stime (fields 14 and 15, clock ticks of 10 ms) from a
/// `/proc/<pid>/stat` line. The command name may contain spaces and
/// parentheses, so fields are counted after the last `)`.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest starts at field 3 (state).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
}

/// `pivotd`'s peak resident set (VmHWM, MiB) from `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mib(&status)
}

/// Parse the `VmHWM:` line of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The machine's CPU time so far as `(steal, total)` clock ticks, from
/// `/proc/stat`. Steal is time the hypervisor gave this machine's vCPUs
/// to other guests while they had work to run.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    parse_host_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Parse the aggregate `cpu` line of `/proc/stat`: user, nice, system,
/// idle, iowait, irq, softirq, steal (guest time is already inside user).
pub fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// SHUTDOWN over `control` and wait for the ack; returns its latency.
pub fn shut_down(control: &mut Client) -> Result<f64> {
    let t = Instant::now();
    control.shutdown()?;
    Ok(t.elapsed().as_secs_f64())
}

/// Restart `pivotd` on the state a drained run left behind and read the
/// partition it serves, which is the partition after the final
/// alignment and refinement.
pub fn served_partition(pivotd: &Path, spec: &Spec, dir: &Path) -> Result<Vec<StorySummary>> {
    let mut server = spawn(pivotd, spec, dir)?;
    let stories = Client::connect(server.addr)?.query_stories();
    server.kill();
    Ok(stories?)
}

/// Set-up only, repeated for the set-up time's median: spawn, register,
/// then kill (no drain).
pub fn set_up_only(pivotd: &Path, spec: &Spec, inputs: &Inputs, dir: &Path) -> Result<Setup> {
    let (mut server, _control, setup) = set_up(pivotd, spec, inputs, dir)?;
    server.kill();
    let _ = std::fs::remove_dir_all(dir);
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storypivot_types::StoryId;

    /// A one-connection server that answers every request with an
    /// ingest ack, after `delay(i)` for the i-th request.
    fn fake_server(delay: fn(usize) -> Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut i = 0;
            while let Ok(Some(_)) = storypivot_serve::proto::read_frame(&mut conn) {
                std::thread::sleep(delay(i));
                let reply = frame(|b| Response::Ingested(StoryId::new(0)).encode(b));
                if conn.write_all(&reply).is_err() {
                    break;
                }
                i += 1;
            }
        });
        (addr, handle)
    }

    fn ingest_lane(n: usize, every_ms: u64, closed: bool) -> Lane {
        let corpus = storypivot_gen::CorpusBuilder::new(
            storypivot_gen::GenConfig::default().with_target_snippets(200),
        )
        .build();
        Lane {
            closed,
            ops: corpus.snippets[..n]
                .iter()
                .enumerate()
                .map(|(i, s)| crate::workload::Planned {
                    due: i as u64 * every_ms * 1_000_000,
                    op: Op::Ingest(s.clone()),
                })
                .collect(),
        }
    }

    #[test]
    fn open_loop_times_from_due_and_keeps_sending_through_a_stall() {
        // The first reply stalls 60 ms; 20 ops are due 1 ms apart. An
        // open-loop sender still sends each op on time (small lag), and
        // the ops queued behind the stall are charged the wait.
        let (addr, server) = fake_server(|i| Duration::from_millis(if i == 0 { 60 } else { 0 }));
        let lanes = [ingest_lane(20, 1, false)];
        let t = drive(addr, &lanes, 0.02).unwrap();
        let mut lag = t.lag.clone();
        let lat = |q: f64| crate::stats::windowed(&t.ingest, 1, |_| q)[0];
        assert_eq!(t.attempted, 20);
        assert_eq!(t.failed, 0);
        assert_eq!(t.acked.len(), 20);
        assert_eq!(t.lag.len(), 20);
        // Sends ran on schedule, not behind the stalled reply.
        assert!(lag.percentile_us(0.5).unwrap() < 20_000.0);
        // Op k waited about 60 - k ms, so the median is well above the
        // stall-free latency and the first op carries the whole stall.
        assert!(lat(1.0) >= 59_000.0);
        assert!(lat(0.5) >= 35_000.0);
        server.join().unwrap();
    }

    #[test]
    fn closed_loop_waits_for_each_ack() {
        // The schedule length (1 ms) is far shorter than six round trips:
        // a closed-loop lane still sends its whole fixed count.
        let (addr, server) = fake_server(|_| Duration::from_millis(5));
        let lanes = [ingest_lane(6, 0, true)];
        let t = drive(addr, &lanes, 0.001).unwrap();
        assert_eq!(t.attempted, 6);
        let mut lag = t.lag.clone();
        let lat = |q: f64| crate::stats::windowed(&t.ingest, 1, |_| q)[0];
        assert_eq!(t.acked.len(), 6);
        assert_eq!(t.failed, 0);
        // Six sequential round trips of at least 5 ms each.
        assert!(t.ingest_wall_s >= 0.030);
        // Each op is due when the previous ack arrived; its latency is
        // one round trip, not the time spent waiting for its turn.
        assert!(lat(1.0) < 5_000.0 + lag.percentile_us(1.0).unwrap() + 20_000.0);
        assert!(lat(0.0) >= 5_000.0);
        server.join().unwrap();
    }

    #[test]
    fn proc_parsers() {
        let stat = "4242 (pivot d) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9 0 100 2000 300";
        assert_eq!(parse_cpu_ms(stat), Some(3250.0));
        assert_eq!(parse_cpu_ms("garbage"), None);
        let status = "Name:\tpivotd\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("Name: x\n"), None);
        let host = "cpu  100 0 20 500 30 0 5 45 0 0\ncpu0 50 0 10 250 15 0 2 22 0 0\n";
        assert_eq!(parse_host_ticks(host), Some((45, 700)));
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
    }
}
