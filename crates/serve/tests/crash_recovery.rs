//! Crash-equivalence: SIGKILL a real `pivotd` process mid-stream and
//! prove the restarted daemon serves exactly the partition an
//! uninterrupted in-process run produces. Exercises the whole
//! durability stack — WAL append/fsync, torn-tail repair, checkpoint
//! generations, startup replay — through the public binary.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use storypivot_core::config::PivotConfig;
use storypivot_core::pivot::StoryPivot;
use storypivot_gen::{Corpus, CorpusBuilder, GenConfig};
use storypivot_serve::client::Client;
use storypivot_serve::proto::StorySummary;
use storypivot_substrate::metrics::sample;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("storypivot-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the real pivotd binary and wait for its port file. The caller
/// owns reaping (each test kills or shuts the daemon down and waits);
/// on the timeout path below the child is killed and reaped here.
#[allow(clippy::zombie_processes)]
fn spawn_pivotd(extra: &[&str], port_file: &Path) -> (Child, SocketAddr) {
    let _ = std::fs::remove_file(port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pivotd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pivotd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(raw) = std::fs::read_to_string(port_file) {
            if let Ok(port) = raw.trim().parse::<u16>() {
                return (child, SocketAddr::from(([127, 0, 0, 1], port)));
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("pivotd did not write its port file");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Partition as story id → sorted member ids; exact at any
/// `--align-every`, since identification alone determines it (alignment
/// never moves a snippet; only the drain-time refinement does).
fn partition_of_summaries(stories: &[StorySummary]) -> BTreeMap<u32, Vec<u32>> {
    stories
        .iter()
        .map(|s| {
            let mut members: Vec<u32> = s.members.iter().map(|m| m.raw()).collect();
            members.sort_unstable();
            (s.id.raw(), members)
        })
        .collect()
}

fn partition_of_engine(engine: &StoryPivot) -> BTreeMap<u32, Vec<u32>> {
    engine
        .story_partition()
        .into_iter()
        .map(|(id, members)| {
            let mut members: Vec<u32> = members.iter().map(|m| m.raw()).collect();
            members.sort_unstable();
            (id.raw(), members)
        })
        .collect()
}

fn corpus(seed: u64, events: usize) -> Corpus {
    CorpusBuilder::new(
        GenConfig::default()
            .with_seed(seed)
            .with_sources(4)
            .with_target_snippets(events),
    )
    .build()
}

/// The uninterrupted twin: one engine, same stream, never drained.
fn twin_of(corpus: &Corpus) -> StoryPivot {
    let mut twin = StoryPivot::new(PivotConfig::default());
    for source in &corpus.sources {
        twin.add_source_registered(source.clone()).unwrap();
    }
    for snippet in &corpus.snippets {
        twin.ingest(snippet.clone()).unwrap();
    }
    twin
}

fn ingest_all(client: &mut Client, corpus: &Corpus) {
    for source in &corpus.sources {
        let got = client
            .add_source(&source.name, source.kind, source.typical_lag)
            .unwrap();
        assert_eq!(got, source.id, "fresh server must allocate corpus ids");
    }
    for snippet in &corpus.snippets {
        client
            .ingest_backoff(snippet, Default::default())
            .expect("acked ingest");
    }
}

/// Load a fresh daemon running `--align-every align_every`, SIGKILL it,
/// restart it on the same directories, and check the recovered
/// partition. Live apply and WAL replay both run the alignment cadence.
fn sigkill_mid_stream_recovers(align_every: &str) {
    let wal = scratch(&format!("wal-align{align_every}"));
    let ckpt = scratch(&format!("ckpt-align{align_every}"));
    let port_file = wal.join("port");
    let wal_s = wal.to_str().unwrap().to_string();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let args = [
        "--shards",
        "2",
        "--align-every",
        align_every,
        "--fsync",
        "always",
        "--wal-dir",
        &wal_s,
        "--checkpoint-dir",
        &ckpt_s,
    ];

    let corpus = corpus(7, 240);
    let (mut child, addr) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr).unwrap();
    ingest_all(&mut client, &corpus);
    // Every snippet above was acknowledged under --fsync always; the
    // partition served *before* the crash is the reference.
    let before = partition_of_summaries(&client.query_stories().unwrap());
    drop(client);

    // SIGKILL: no drain, no checkpoint, no flush — only the WAL.
    child.kill().unwrap();
    let _ = child.wait();

    let (mut child2, addr2) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr2).unwrap();
    let after = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(after, before, "restart must reconstruct the acked partition");
    // And both equal the uninterrupted in-process run.
    assert_eq!(after, partition_of_engine(&twin_of(&corpus)));

    // Recovered engines keep allocating past recovered source ids.
    let extra = client.add_source("post-crash", corpus.sources[0].kind, 0).unwrap();
    assert_eq!(extra.raw(), corpus.sources.len() as u32);

    client.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn sigkill_mid_stream_recovers_the_exact_partition() {
    for align_every in ["0", "16"] {
        sigkill_mid_stream_recovers(align_every);
    }
}

#[test]
fn sigkill_with_periodic_checkpoints_recovers_and_truncates() {
    let wal = scratch("wal-periodic");
    let ckpt = scratch("ckpt-periodic");
    let port_file = wal.join("port");
    let wal_s = wal.to_str().unwrap().to_string();
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    // A checkpoint every 4 KiB of journal: the 240-event stream crosses
    // the threshold many times, so recovery replays checkpoint + a
    // short tail rather than the whole history.
    let args = [
        "--shards",
        "2",
        "--align-every",
        "0",
        "--fsync",
        "every:8",
        "--checkpoint-every-bytes",
        "4096",
        "--wal-dir",
        &wal_s,
        "--checkpoint-dir",
        &ckpt_s,
    ];

    let corpus = corpus(11, 240);
    let (mut child, addr) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr).unwrap();
    ingest_all(&mut client, &corpus);
    let before = partition_of_summaries(&client.query_stories().unwrap());
    let text = client.metrics().unwrap();
    drop(client);
    // Size-triggered checkpoints must have fired and truncated: no
    // shard's journal holds anywhere near the whole stream.
    for shard in ["0", "1"] {
        let wal_bytes = sample(&text, "storypivot_shard_wal_bytes", &[("shard", shard)])
            .unwrap_or_else(|| panic!("shard {shard} wal bytes missing from:\n{text}"));
        assert!(
            wal_bytes < (64 * 1024) as f64,
            "shard {shard} wal grew to {wal_bytes} bytes despite periodic checkpoints"
        );
    }
    let generations = std::fs::read_dir(&ckpt)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".spvc"))
        .count();
    assert!(generations >= 1, "periodic checkpoints must leave generation files");

    child.kill().unwrap();
    let _ = child.wait();

    // Under fsync every:8, up to 7 acked appends per shard may be lost
    // by the kill — but this test's writes all hit the OS page cache
    // and the process (not the machine) died, so the journal is whole.
    let (mut child2, addr2) = spawn_pivotd(&args, &port_file);
    let mut client = Client::connect(addr2).unwrap();
    let after = partition_of_summaries(&client.query_stories().unwrap());
    assert_eq!(after, before, "checkpoint + wal tail must rebuild the partition");
    client.shutdown().unwrap();
    let status = child2.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&ckpt);
}
