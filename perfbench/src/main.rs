//! perfbench — the end-to-end and per-layer benchmark for `pivotd`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paced_ingest --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. It builds `pivotd` from the
//! workspace, generates the workload's inputs from the seed, drives a
//! real `pivotd` process over TCP, checks the served partition, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of an in-process traced replay of the same inputs
//! (`--trace 1`). The last line of standard output is one JSON object.
//! `--workload all` runs every workload in turn. See `README.md`.

mod check;
mod expo;
mod replay;
mod served;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use expo::Exposition;
use replay::Replay;
use served::{Setup, Timed};
use stats::{median, Samples};
use storypivot_serve::proto::StorySummary;
use workload::{Inputs, Spec, SHARDS};

/// Set-ups per run for the set-up time's median (rounds included).
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
        workload::ALL.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// Build `pivotd` from the workspace in the current directory and
/// return the binary's path.
fn build_pivotd() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "storypivot-serve",
            "--bin",
            "pivotd",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pivotd failed ({status})"));
    }
    let bin = target_dir().join("release").join("pivotd");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    bin.canonicalize().map_err(|e| e.to_string())
}

/// Cargo's build directory, as cargo itself resolves it from here.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where runs keep server state and spans: under the build directory.
fn work_root() -> PathBuf {
    target_dir().join("perfbench")
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one workload run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    detail: String,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    pivotd: &Path,
) -> Result<Outcome, String> {
    let root = work_root().join(format!("{}-{seed}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = run_in(spec, seed, seconds, trace, pivotd, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

/// One served round: a fresh `pivotd`, set-up, the timed phase, the
/// drain, and the output check on the partition it then serves.
struct Round {
    setup: Setup,
    timed: Timed,
    before: Exposition,
    after: Exposition,
    cpu_ms: f64,
    rss_mib: f64,
    drain_s: f64,
    stories: Vec<StorySummary>,
    problems: Vec<String>,
}

fn served_round(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    pivotd: &Path,
    dir: &Path,
) -> Result<Round, String> {
    let e = |what: &'static str| move |err: served::Error| format!("{what}: {err}");
    let (server, mut control, setup) =
        served::set_up(pivotd, spec, inputs, dir).map_err(e("set-up"))?;
    let pid = server.pid();
    let before = Exposition::parse(&control.metrics().map_err(|err| format!("METRICS: {err}"))?)?;
    let cpu0 = served::cpu_ms(pid).map_err(e("cpu"))?;
    let timed = served::drive(server.addr, &inputs.lanes, seconds).map_err(e("timed phase"))?;
    let cpu1 = served::cpu_ms(pid).map_err(e("cpu"))?;
    let after = Exposition::parse(&control.metrics().map_err(|err| format!("METRICS: {err}"))?)?;
    let rss = served::peak_rss_mib(pid).unwrap_or(0.0);
    let drain_s = served::shut_down(&mut control).map_err(e("SHUTDOWN"))?;
    drop(control);
    let rss_mib = served::peak_rss_mib(pid).map_or(rss, |late| late.max(rss));
    let clean_exit = server.wait_exit(Duration::from_secs(30));
    let stories = served::served_partition(pivotd, spec, dir).map_err(e("served partition"))?;

    let mut problems = Vec::new();
    if !clean_exit {
        problems.push("pivotd did not exit cleanly after SHUTDOWN".to_string());
    }
    problems.extend(check::check_partition(
        &stories,
        &timed.acked,
        &timed.uncertain,
    ));
    let ingest_delta = before.delta(&after, "storypivot_ingest_total");
    if ingest_delta != timed.acked.len() as f64 {
        problems.push(format!(
            "storypivot_ingest_total grew by {ingest_delta} but {} ingests were acknowledged",
            timed.acked.len()
        ));
    }
    Ok(Round {
        setup,
        timed,
        before,
        after,
        cpu_ms: cpu1 - cpu0,
        rss_mib,
        drain_s,
        stories,
        problems,
    })
}

fn run_in(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    pivotd: &Path,
    root: &Path,
) -> Result<Outcome, String> {
    // Each round has its own corpus; together their open-loop schedules
    // last `seconds`, while a closed-loop round loads its fixed count.
    // A traced run needs one round: its per-layer numbers have no bound.
    let rounds_wanted = if trace { 1 } else { spec.rounds };
    let round_seconds = seconds / spec.rounds as f64;
    let mut detail = String::new();
    let mut all_inputs = Vec::new();
    for r in 0..rounds_wanted {
        let inputs = workload::build(spec, workload::round_seed(seed, r), round_seconds);
        let _ = writeln!(
            detail,
            "== {} seed {seed} round {r}: corpus {} snippets / {} sources; lanes {}",
            spec.name,
            inputs.corpus.len(),
            inputs.corpus.sources.len(),
            inputs
                .lanes
                .iter()
                .map(|l| format!(
                    "{}{}",
                    l.ops.len(),
                    if l.closed { " closed" } else { " open" }
                ))
                .collect::<Vec<_>>()
                .join(", "),
        );
        all_inputs.push(inputs);
    }

    // Dirty pages left by whatever ran before (a build, say) would
    // otherwise be written back during the timed phases.
    let _ = Command::new("sync").status();
    let host_before = served::host_cpu_ticks();

    // Set-up is timed in every round and in extra set-up-only passes,
    // for a steady median.
    let mut setups: Vec<Setup> = Vec::new();
    for r in rounds_wanted..SETUPS {
        let dir = root.join(format!("setup{r}"));
        setups.push(
            served::set_up_only(pivotd, spec, &all_inputs[0], &dir)
                .map_err(|err| format!("set-up: {err}"))?,
        );
    }
    let mut rounds = Vec::new();
    for (r, inputs) in all_inputs.iter().enumerate() {
        let round = served_round(
            spec,
            inputs,
            round_seconds,
            pivotd,
            &root.join(format!("round{r}")),
        )?;
        setups.push(round.setup);
        rounds.push(round);
    }

    // Steal (vCPU time the hypervisor gave to other guests) slows every
    // timing of a run at once; the report shows it so such runs can be
    // told apart.
    if let (Some((s0, t0)), Some((s1, t1))) = (host_before, served::host_cpu_ticks()) {
        let steal = ratio((s1 - s0) as f64, (t1 - t0) as f64) * 100.0;
        let _ = writeln!(
            detail,
            "host: CPU steal {steal:.1}% during the served rounds"
        );
        if steal >= 5.0 {
            let _ = writeln!(
                detail,
                "FLAG: the hypervisor withheld {steal:.1}% of this machine's CPU time; timings run slow"
            );
        }
    }

    let setup_median = median(&setups.iter().map(Setup::total).collect::<Vec<_>>());
    let _ = writeln!(
        detail,
        "setup: median {setup_median:.4} s over {} set-ups",
        setups.len()
    );
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut f1s = Vec::new();
    let mut lag = Samples::default();
    for (r, round) in rounds.iter().enumerate() {
        let t = &round.timed;
        let f1 = check::pair_f1(
            round.stories.iter().map(|s| (s.id, s.members.as_slice())),
            &all_inputs[r].corpus.truth,
        );
        f1s.push(f1);
        let _ = writeln!(
            detail,
            "round {r}: setup spawn {:.4} s + registration {:.4} s; {} ops sent, {} failed, {} snippets acknowledged \
             ({} uncertain); busy {} shed {}; {:.3} s to last ingest ack; drain {:.3} s; {} stories served, pair F1 {f1:.4}",
            round.setup.spawn_s,
            round.setup.register_s,
            t.attempted,
            t.failed,
            t.acked.len(),
            t.uncertain.len(),
            t.busy,
            t.shed,
            t.ingest_wall_s,
            round.drain_s,
            round.stories.len(),
        );
        if let Some(err) = &t.first_error {
            let _ = writeln!(detail, "round {r}: first failure: {err}");
        }
        problems.extend(round.problems.iter().map(|p| format!("round {r}: {p}")));
        attempted += t.attempted;
        failed += t.failed;
        lag.extend(&t.lag);
    }
    if attempted == 0 {
        problems.push("no op was attempted".to_string());
    }

    // Latency percentiles: the median over every round's due-time
    // windows of the window's percentile.
    // Windows hold at least 1,000 samples where a round has them; a
    // smaller window reports the highest percentile its size supports.
    let window_count = |n: usize| spec.windows.min(n / 1_000).max(1);
    let windows = |tail: bool| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| {
                let samples = &r.timed.ingest;
                let q = move |n: usize| if tail { stats::tail_q(n) } else { 0.5 };
                stats::windowed(samples, window_count(samples.len()), q)
            })
            .collect()
    };
    let ingest_p50 = windows(false);
    let ingest_p99 = windows(true);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let per_window = rounds
        .iter()
        .map(|r| r.timed.ingest.len() / window_count(r.timed.ingest.len()))
        .min()
        .unwrap_or(0);
    let _ = writeln!(
        detail,
        "ingest: p50 per window [{}] us; tail per window [{}] us; ~{per_window} samples per window, so the tail is p{}",
        list(&ingest_p50),
        list(&ingest_p99),
        stats::tail_q(per_window) * 100.0,
    );
    let _ = writeln!(
        detail,
        "ingest latency (median over windows): p50 {:.1} us, tail {:.1} us",
        median(&ingest_p50),
        median(&ingest_p99),
    );
    let (lag_p50, lag_p99) = (
        lag.percentile_us(0.5).unwrap_or(0.0),
        lag.percentile_us(0.99).unwrap_or(0.0),
    );
    let _ = writeln!(
        detail,
        "generator lag: p50 {lag_p50:.1} us, p99 {lag_p99:.1} us over {} sends",
        lag.len()
    );
    if lag_p50 * 4.0 >= median(&ingest_p50) || lag_p99 * 4.0 >= median(&ingest_p99) {
        let _ = writeln!(
            detail,
            "FLAG: generator lag is comparable to ingest latency; this run measures the generator"
        );
    }
    for p in &problems {
        let _ = writeln!(detail, "CHECK FAILED: {p}");
    }

    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let metrics =
        if trace {
            let round = &rounds[0];
            let mut inputs = all_inputs.swap_remove(0);
            // Replay exactly what was sent.
            for (lane, &sent) in inputs.lanes.iter_mut().zip(&round.timed.sent_per_lane) {
                lane.ops.truncate(sent);
            }
            // The same inputs in process: untraced (the baseline, and the
            // single-threaded partition) and traced.
            let untraced = replay::run(spec, &inputs, false, &root.join("replay0"))
                .map_err(|err| format!("replay: {err}"))?;
            let traced = replay::run(spec, &inputs, true, &root.join("replay1"))
                .map_err(|err| format!("traced replay: {err}"))?;
            let inproc_f1 = check::pair_f1(
                untraced
                    .partition
                    .iter()
                    .map(|(id, members)| (*id, members.as_slice())),
                &inputs.corpus.truth,
            );
            let served_pairs: Vec<_> = round
                .stories
                .iter()
                .map(|s| (s.id, s.members.clone()))
                .collect();
            let _ =
                writeln!(
            detail,
            "in-process single-threaded pair F1 {inproc_f1:.4} (served {:.4}); partitions {}",
            f1s[0],
            if served_pairs == untraced.partition { "identical" } else { "differ" }
        );
            let mut metrics =
                layer_metrics(round, &mut lag, median(&ingest_p50), &untraced, &traced);
            // Served latencies vary too much between runs on a shared 2-vCPU
            // machine to carry a bound; they are reported here, unbounded.
            metrics.push(m("ingest_p50_us", median(&ingest_p50), "us"));
            metrics.push(m("ingest_p99_us", median(&ingest_p99), "us"));
            let spans_path = work_root().join(format!("spans-{}-seed{seed}.tsv", spec.name));
            if std::fs::write(&spans_path, spans::render(&traced.spans)).is_ok() {
                let _ = writeln!(detail, "spans written to {}", spans_path.display());
            }
            let _ = write!(detail, "{}", layer_table(&traced));
            metrics
        } else {
            vec![
                m("setup_s", setup_median, "s"),
                m(
                    "ingest_ev_per_s",
                    per_round(&|r| ratio(r.timed.acked.len() as f64, r.timed.ingest_wall_s)),
                    "ev/s",
                ),
                m("drain_s", per_round(&|r| r.drain_s), "s"),
                m(
                    "cpu_ms_per_kop",
                    per_round(&|r| ratio(r.cpu_ms, r.timed.acked.len() as f64 / 1e3)),
                    "ms",
                ),
                m("peak_rss_mib", per_round(&|r| r.rss_mib), "MiB"),
                m("pair_f1", median(&f1s), "ratio"),
            ]
        };
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        detail,
    })
}

/// Per-layer metrics: served counters (METRICS deltas over the timed
/// phase) for the work the server did, and the traced replay's spans
/// for the time each layer's calls took.
fn layer_metrics(
    round: &Round,
    lag: &mut Samples,
    ingest_p50: f64,
    untraced: &Replay,
    traced: &Replay,
) -> Vec<Metric> {
    let (timed, before, after) = (&round.timed, &round.before, &round.after);
    let d = |name: &str| before.delta(after, name);
    let layers = spans::by_layer(&traced.spans);
    let total = |name: &str| layers.get(name).map_or(0, |l| l.total_ns) as f64;
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls) as f64;
    let acked = timed.acked.len() as f64;
    let ingest_ops = timed.ingest.len() as f64;
    let snippets = traced.snippets as f64;
    let requests = traced.requests as f64;
    let service_p50 = after
        .max_quantile("storypivot_shard_ingest_latency_ns", "0.5")
        .unwrap_or(0.0)
        / 1e3;
    let service_p99 = after
        .max_quantile("storypivot_shard_ingest_latency_ns", "0.99")
        .unwrap_or(0.0)
        / 1e3;
    let align_runs = d("storypivot_align_runs_total");
    let cache_hits = d("storypivot_story_cache_hits_total");
    let cache_misses = d("storypivot_story_cache_misses_total");
    let identify_count = d("storypivot_identify_duration_ns_count");
    let align_ms: Vec<f64> = traced.align_ms.clone();
    let align_ns: f64 = align_ms.iter().fold(0.0, |a, b| a + b) * 1e6;
    let engine_ns = total("engine.ingest");
    let unattributed: u64 = {
        let own = spans::self_times(&traced.spans);
        traced
            .spans
            .iter()
            .zip(own)
            .filter(|(s, _)| matches!(s.name, "replay" | "op" | "reads" | "drain"))
            .map(|(_, o)| o)
            .sum()
    };
    let root_ns = total("replay");
    let quarter = traced.copied.len() / 4;
    let mean_u64 = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    vec![
        m(
            "gen.lag_p99_us",
            lag.percentile_us(0.99).unwrap_or(0.0),
            "us",
        ),
        m("gen.ops_attempted", timed.attempted as f64, "count"),
        m(
            "proto.encode_ns_per_op",
            ratio(total("proto.encode"), requests),
            "ns",
        ),
        m(
            "proto.decode_ns_per_op",
            ratio(total("proto.decode"), requests),
            "ns",
        ),
        m(
            "proto.req_bytes_per_op",
            ratio(traced.req_bytes as f64, requests),
            "B",
        ),
        m(
            "proto.resp_bytes_per_query",
            ratio(traced.query_resp_bytes as f64, replay::QUERIES as f64),
            "B",
        ),
        m("server.service_p50_us", service_p50, "us"),
        m("server.service_p99_us", service_p99, "us"),
        // A batch is served by both shards side by side, each applying
        // its share of the batch's snippets one after another.
        m(
            "server.residual_p50_us",
            ingest_p50 - service_p50 * (acked / ingest_ops / SHARDS as f64).max(1.0),
            "us",
        ),
        m(
            "queue.busy_rejections",
            d("storypivot_shard_busy_rejections"),
            "count",
        ),
        m("queue.shed", d("storypivot_shed_total"), "count"),
        m(
            "wal.append_us_per_op",
            ratio(total("wal.append"), snippets) / 1e3,
            "us",
        ),
        m(
            "wal.sync_us_per_op",
            ratio(total("wal.sync"), snippets) / 1e3,
            "us",
        ),
        m(
            "wal.syncs",
            d("storypivot_wal_sync_duration_ns_count"),
            "count",
        ),
        m(
            "wal.syncs_per_op",
            ratio(d("storypivot_wal_sync_duration_ns_count"), acked),
            "ratio",
        ),
        m(
            "wal.bytes_per_op",
            ratio(d("storypivot_wal_appended_bytes_total"), acked),
            "B",
        ),
        m(
            "oplog.encode_ns_per_op",
            ratio(total("oplog.encode"), snippets),
            "ns",
        ),
        m(
            "identify.us_per_op",
            ratio(d("storypivot_identify_duration_ns_sum"), identify_count) / 1e3,
            "us",
        ),
        m(
            "identify.compared_per_op",
            ratio(d("storypivot_identify_compared_total"), acked),
            "count",
        ),
        m(
            "identify.cache_hit_ratio",
            ratio(cache_hits, cache_hits + cache_misses),
            "ratio",
        ),
        m(
            "identify.new_story_ratio",
            ratio(d("storypivot_identify_new_story_total"), acked),
            "ratio",
        ),
        m(
            "maintain.us_per_op",
            ratio(engine_ns - traced.identify_ns as f64, snippets) / 1e3,
            "us",
        ),
        m(
            "maintain.runs",
            d("storypivot_maintenance_runs_total"),
            "count",
        ),
        m(
            "maintain.splits",
            d("storypivot_identify_split_total"),
            "count",
        ),
        m("align.passes", align_runs, "count"),
        m(
            "align.ms_per_pass_p50",
            if align_ms.is_empty() {
                0.0
            } else {
                median(&align_ms)
            },
            "ms",
        ),
        m(
            "align.ms_per_pass_max",
            align_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        ),
        m(
            "align.pairs_per_pass",
            ratio(d("storypivot_align_pairs_total"), align_runs),
            "count",
        ),
        m(
            "align.dirty_per_pass",
            ratio(
                traced.align_dirty.iter().sum::<usize>() as f64,
                traced.align_dirty.len() as f64,
            ),
            "count",
        ),
        m(
            "align.engine_share",
            ratio(align_ns, align_ns + engine_ns),
            "ratio",
        ),
        m("refine.ms_per_pass", traced.refine_ms / 2.0, "ms"),
        m("refine.moves", traced.refine_moves as f64, "count"),
        m(
            "snapshot.publishes",
            d("storypivot_shard_snapshot_epoch"),
            "count",
        ),
        m(
            "snapshot.us_per_publish",
            ratio(total("snapshot.publish"), calls("snapshot.publish")) / 1e3,
            "us",
        ),
        m(
            "snapshot.members_copied_per_op",
            mean_u64(&traced.copied),
            "count",
        ),
        m(
            "snapshot.copied_per_op_q1",
            mean_u64(&traced.copied[..quarter]),
            "count",
        ),
        m(
            "snapshot.copied_per_op_q4",
            mean_u64(&traced.copied[traced.copied.len() - quarter..]),
            "count",
        ),
        m(
            "query.us_per_op",
            ratio(total("read.query"), calls("read.query")) / 1e3,
            "us",
        ),
        m(
            "query.get_us_per_op",
            ratio(total("read.get"), calls("read.get")) / 1e3,
            "us",
        ),
        m("checkpoint.save_ms", total("checkpoint.save") / 1e6, "ms"),
        m("checkpoint.bytes", traced.checkpoint_bytes as f64, "B"),
        m(
            "engine.single_thread_ev_per_s",
            ratio(untraced.snippets as f64, untraced.ingest_wall_s),
            "ev/s",
        ),
        m(
            "trace.overhead_pct",
            ratio(traced.wall_s - untraced.wall_s, untraced.wall_s) * 100.0,
            "%",
        ),
        m(
            "trace.unattributed_share",
            ratio(unattributed as f64, root_ns),
            "ratio",
        ),
    ]
}

/// Self time per layer of the traced replay, as a table.
fn layer_table(traced: &Replay) -> String {
    let layers = spans::by_layer(&traced.spans);
    let root = layers.get("replay").map_or(1, |l| l.total_ns.max(1)) as f64;
    let mut out = format!(
        "traced replay: {:.3} s wall, {} spans\n",
        traced.wall_s,
        traced.spans.len()
    );
    let _ = writeln!(
        out,
        "  {:<20} {:>9} {:>12} {:>8} {:>12}",
        "layer", "calls", "self_ms", "share", "max_us"
    );
    let mut rows: Vec<_> = layers.iter().collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    for (name, l) in rows {
        let _ = writeln!(
            out,
            "  {:<20} {:>9} {:>12.3} {:>7.2}% {:>12.1}",
            name,
            l.calls,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 / root * 100.0,
            l.max_ns as f64 / 1e3
        );
    }
    let ident = traced.identify_ns as f64;
    let _ = writeln!(
        out,
        "  engine.ingest splits into identify {:.3} ms and maintenance/store {:.3} ms",
        ident / 1e6,
        (layers.get("engine.ingest").map_or(0, |l| l.total_ns) as f64 - ident) / 1e6
    );
    out
}

fn json_line(outcome: &Outcome) -> String {
    let mut metrics = BTreeMap::new();
    for metric in &outcome.metrics {
        metrics.insert(
            metric.name,
            format!(
                "{{\"value\": {}, \"unit\": \"{}\"}}",
                num(metric.value),
                metric.unit
            ),
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A JSON number with all its digits (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let specs: Vec<Spec> = if args.workload == "all" {
        workload::ALL.to_vec()
    } else {
        match workload::by_name(&args.workload) {
            Some(s) => vec![s],
            None => return usage(&format!("unknown workload {:?}", args.workload)),
        }
    };
    let pivotd = match build_pivotd() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::create_dir_all(work_root());
    let mut ok = true;
    let mut lines = Vec::new();
    for spec in &specs {
        match run(spec, args.seed, args.seconds, args.trace, &pivotd) {
            Ok(outcome) => {
                print!("{}", outcome.detail);
                for metric in &outcome.metrics {
                    println!(
                        "{:<34} {:>16.4} {}",
                        format!("{}.{}", spec.name, metric.name),
                        metric.value,
                        metric.unit
                    );
                }
                ok &= outcome.correct;
                lines.push(json_line(&outcome));
            }
            Err(msg) => {
                eprintln!("perfbench: {}: {msg}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    for line in &lines {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the output check failed");
        ExitCode::FAILURE
    }
}
