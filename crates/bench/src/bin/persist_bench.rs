//! Durability cost and recovery speed of the `deltaos-store` subsystem.
//!
//! Three questions, answered against a multi-client drive like the
//! service stress bench's, every row over the wire (one connection per
//! client):
//!
//! 1. **What does the WAL cost?** Aggregate throughput with durability
//!    off versus on under each [`FsyncPolicy`] (`Os`, `Always`, and the
//!    pipelined group commit). The acceptance gate requires pipelined
//!    group commit to run at least twice `Always`'s throughput on every
//!    host, and to keep ≥ 50% of the WAL-off throughput on hosts with
//!    ≥ 4 CPUs (below that this ratio is recorded but not enforced,
//!    since client threads and runtime loops fight for cores).
//! 2. **How fast is recovery?** Cold-start time and replayed-record
//!    counts for the same workload at different checkpoint intervals —
//!    from "pure WAL replay" down to tight compaction.
//! 3. **Is recovery exact?** Every restart is checked bit-identical:
//!    the recovered service's deterministic counters must equal the
//!    final counters the live run reported at the end of its drive.
//!
//! Full mode writes `BENCH_persist.json` at the repository root;
//! `--smoke` runs a miniature (debug builds allowed, no JSON, no gate).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, DurabilityConfig, Event, FsyncPolicy, Request, Response, SessionId,
    TcpClient,
};
use deltaos_sim::Stats;
use rand::{Rng, SeedableRng, StdRng};

struct Drive {
    shards: usize,
    sessions: usize,
    clients: usize,
    dims: u16,
    rounds: usize,
    edits_per_round: usize,
}

const FULL: Drive = Drive {
    shards: 4,
    sessions: 32,
    clients: 4,
    dims: 32,
    rounds: 60,
    edits_per_round: 15,
};

const SMOKE: Drive = Drive {
    shards: 2,
    sessions: 4,
    clients: 2,
    dims: 8,
    rounds: 4,
    edits_per_round: 5,
};

/// The counters a deterministic replay must reproduce exactly
/// (timing-dependent ones — the store I/O tallies — excluded).
const DETERMINISTIC_KEYS: &[&str] = &[
    "service.events",
    "service.batches",
    "service.probes",
    "service.rejected_events",
    "service.cache_hits",
    "service.reductions",
    "service.sessions_opened",
    "service.sessions_closed",
    "service.sessions_open",
];

fn deterministic(stats: &Stats) -> Vec<u64> {
    DETERMINISTIC_KEYS
        .iter()
        .map(|k| stats.counter(k))
        .collect()
}

fn random_event(rng: &mut StdRng, dims: u16) -> Event {
    let p = ProcId(rng.gen_range(0..dims));
    let q = ResId(rng.gen_range(0..dims));
    match rng.gen_range(0..8u32) {
        0..=2 => Event::Request { p, q },
        3 | 4 => Event::Grant { q, p },
        5 => Event::Release { q, p },
        6 => Event::Probe,
        _ => Event::WouldDeadlock { p, q },
    }
}

fn open_request(drive: &Drive) -> Request {
    Request::Open {
        resources: drive.dims,
        processes: drive.dims,
    }
}

fn opened(resp: Response) -> SessionId {
    match resp {
        Response::Opened(sid) => sid,
        other => panic!("open failed: {other:?}"),
    }
}

/// Drives the workload through `clients` threads, one wire connection
/// each, keeping up to a window of batches in flight per connection.
/// Blocking rows use a window of one. The pipelined policy gets a window
/// several rounds deep (under the runtime's per-connection pipeline
/// cap): its group-commit scheduler needs in-flight depth to batch
/// fsyncs — a strictly blocking client would degenerate to one flush per
/// op. Returns wall seconds.
fn drive_clients(runtime: &CoreRuntime, drive: &Drive, pipelined: bool) -> f64 {
    assert_eq!(drive.sessions % drive.clients, 0);
    let addr = runtime.local_addr();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..drive.clients {
            scope.spawn(move || {
                let mut conn = TcpClient::connect(addr).expect("connect");
                let mut rng = StdRng::seed_from_u64(0x9E85 ^ t as u64);
                let per_thread = drive.sessions / drive.clients;
                let sids: Vec<_> = (0..per_thread)
                    .map(|_| opened(conn.call(&open_request(drive)).expect("open call")))
                    .collect();
                let window = if pipelined { 4 * sids.len() } else { 1 };
                let mut in_flight = 0usize;
                let recv = |conn: &mut TcpClient| match conn.recv().expect("reply") {
                    Response::Batch(_) => {}
                    other => panic!("batch failed: {other:?}"),
                };
                for _ in 0..drive.rounds {
                    for &sid in &sids {
                        let events: Vec<Event> = (0..drive.edits_per_round)
                            .map(|_| random_event(&mut rng, drive.dims))
                            .collect();
                        conn.send(&Request::Batch {
                            session: sid,
                            events,
                        })
                        .expect("send batch");
                        in_flight += 1;
                        while in_flight >= window {
                            recv(&mut conn);
                            in_flight -= 1;
                        }
                    }
                }
                for _ in 0..in_flight {
                    recv(&mut conn);
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

struct RunOut {
    events: u64,
    elapsed_secs: f64,
    wal_records: u64,
    commits: u64,
    fsyncs: u64,
    /// Group-commit scheduler tallies (zero outside `Pipelined` runs):
    /// flush count / largest flush, peak withheld-reply depth, and the
    /// worst per-shard commit-latency percentiles in microseconds.
    pipeline_batches: u64,
    pipeline_batch_max: u64,
    pipeline_withheld_peak: u64,
    pipeline_commit_p50_us: u64,
    pipeline_commit_p99_us: u64,
    /// Per-shard deterministic counter vectors at shutdown.
    final_counters: Vec<Vec<u64>>,
}

impl RunOut {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }
}

fn start(config: CoreConfig) -> CoreRuntime {
    CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime")
}

fn run(config: CoreConfig, drive: &Drive, pipelined: bool) -> RunOut {
    let runtime = start(config);
    let elapsed_secs = drive_clients(&runtime, drive, pipelined);
    // Every reply is in, so the rows cover the whole drive.
    let per_shard = runtime.shard_stats();
    runtime.stop();
    let mut events = 0;
    let mut wal_records = 0;
    let mut commits = 0;
    let mut fsyncs = 0;
    let mut pipeline_batches = 0;
    let mut pipeline_batch_max = 0u64;
    let mut pipeline_withheld_peak = 0u64;
    let mut pipeline_commit_p50_us = 0u64;
    let mut pipeline_commit_p99_us = 0u64;
    for s in &per_shard {
        events += s.counter("service.events");
        wal_records += s.counter("store.wal_records");
        commits += s.counter("store.commits");
        fsyncs += s.counter("store.fsyncs");
        pipeline_batches += s.counter("store.pipeline_batches");
        pipeline_batch_max = pipeline_batch_max.max(s.counter("store.pipeline_batch_max"));
        pipeline_withheld_peak =
            pipeline_withheld_peak.max(s.counter("store.pipeline_withheld_peak"));
        pipeline_commit_p50_us =
            pipeline_commit_p50_us.max(s.counter("store.pipeline_commit_p50_us"));
        pipeline_commit_p99_us =
            pipeline_commit_p99_us.max(s.counter("store.pipeline_commit_p99_us"));
    }
    RunOut {
        events,
        elapsed_secs,
        wal_records,
        commits,
        fsyncs,
        pipeline_batches,
        pipeline_batch_max,
        pipeline_withheld_peak,
        pipeline_commit_p50_us,
        pipeline_commit_p99_us,
        final_counters: per_shard.iter().map(deterministic).collect(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deltaos-persist-bench-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The drive's shard count on one loop per host CPU.
fn base_config(drive: &Drive) -> CoreConfig {
    CoreConfig {
        loops: 0,
        shards: drive.shards,
        ..CoreConfig::default()
    }
}

fn durable_config(drive: &Drive, dir: &Path, fsync: FsyncPolicy, ckpt_every: u64) -> CoreConfig {
    CoreConfig {
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync,
            checkpoint_every_records: ckpt_every,
            // Keep the WAL at shutdown so the recovery measurement
            // actually replays it.
            checkpoint_on_shutdown: false,
            repl_ack: false,
        }),
        ..base_config(drive)
    }
}

/// Restarts a runtime over `dir`, times the cold start, and asserts the
/// recovered counters are bit-identical to the live run's final ones.
struct Recovered {
    recovery_secs: f64,
    replayed_records: u64,
    recovered_sessions: u64,
}

fn restart_and_verify(config: CoreConfig, live: &RunOut) -> Recovered {
    let t0 = Instant::now();
    let runtime = start(config);
    let recovery_secs = t0.elapsed().as_secs_f64();
    let replayed_records = runtime.recovery().iter().map(|r| r.replayed_records).sum();
    let recovered_sessions = runtime.recovery().iter().map(|r| r.live_sessions).sum();
    let per_shard = runtime.shard_stats();
    for (shard, stats) in per_shard.iter().enumerate() {
        assert_eq!(
            deterministic(stats),
            live.final_counters[shard],
            "shard {shard}: recovery is not bit-identical to the live run"
        );
    }
    runtime.stop();
    Recovered {
        recovery_secs,
        replayed_records,
        recovered_sessions,
    }
}

struct PolicyRow {
    mode: &'static str,
    out: RunOut,
}

fn policy_label(p: FsyncPolicy) -> &'static str {
    match p {
        FsyncPolicy::Os => "wal_os",
        FsyncPolicy::Always => "wal_always",
        FsyncPolicy::Pipelined { .. } => "pipelined",
    }
}

/// The tentpole configuration: appends decoupled from fsync, replies
/// withheld until durable, flushes grouped by the per-core scheduler.
const PIPELINED: FsyncPolicy = FsyncPolicy::Pipelined {
    max_records: 32,
    deadline: Duration::from_micros(500),
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let drive = if smoke { &SMOKE } else { &FULL };

    if !smoke && cfg!(debug_assertions) {
        eprintln!("persist_bench: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    println!("=== persist_bench: WAL cost + snapshot/restore recovery ===");

    // --- 1. Throughput: WAL off, then each fsync policy. -------------
    let baseline = run(base_config(drive), drive, false);
    println!(
        "wal_off: {} events in {:.3}s -> {:.0} events/sec",
        baseline.events,
        baseline.elapsed_secs,
        baseline.events_per_sec()
    );

    let mut rows: Vec<PolicyRow> = Vec::new();
    for policy in [FsyncPolicy::Os, FsyncPolicy::Always, PIPELINED] {
        let label = policy_label(policy);
        let pipelined = matches!(policy, FsyncPolicy::Pipelined { .. });
        let dir = fresh_dir(label);
        let out = run(
            durable_config(drive, &dir, policy, u64::MAX),
            drive,
            pipelined,
        );
        println!(
            "{label}: {} events in {:.3}s -> {:.0} events/sec ({} records, {} commits, {} fsyncs)",
            out.events,
            out.elapsed_secs,
            out.events_per_sec(),
            out.wal_records,
            out.commits,
            out.fsyncs
        );
        if pipelined {
            println!(
                "  pipeline: {} flushes (max {} records), withheld peak {}, \
                 commit latency p50 {}us p99 {}us",
                out.pipeline_batches,
                out.pipeline_batch_max,
                out.pipeline_withheld_peak,
                out.pipeline_commit_p50_us,
                out.pipeline_commit_p99_us
            );
        }
        // Determinism check rides along on every durable run.
        let rec = restart_and_verify(durable_config(drive, &dir, policy, u64::MAX), &out);
        println!(
            "  recovery: {} records, {} sessions in {:.4}s (bit-identical)",
            rec.replayed_records, rec.recovered_sessions, rec.recovery_secs
        );
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(PolicyRow { mode: label, out });
    }

    // --- 2. Recovery time vs checkpoint interval. --------------------
    struct RecoveryRow {
        checkpoint_every: u64,
        wal_records_at_rest: u64,
        rec: Recovered,
    }
    let mut sweep: Vec<RecoveryRow> = Vec::new();
    let intervals = if smoke {
        vec![u64::MAX, 16]
    } else {
        vec![u64::MAX, 256, 64]
    };
    for every in intervals {
        let tag = if every == u64::MAX {
            "ckpt-none".to_string()
        } else {
            format!("ckpt-{every}")
        };
        let dir = fresh_dir(&tag);
        let out = run(durable_config(drive, &dir, PIPELINED, every), drive, true);
        let rec = restart_and_verify(durable_config(drive, &dir, PIPELINED, every), &out);
        println!(
            "{tag}: replayed {} of {} records, {} sessions, recovery {:.4}s (bit-identical)",
            rec.replayed_records, out.wal_records, rec.recovered_sessions, rec.recovery_secs
        );
        let _ = std::fs::remove_dir_all(&dir);
        sweep.push(RecoveryRow {
            checkpoint_every: every,
            wal_records_at_rest: out.wal_records,
            rec,
        });
    }

    // --- 3. Acceptance. ----------------------------------------------
    let always = rows
        .iter()
        .find(|r| r.mode == "wal_always")
        .expect("fsync-always row");
    let pipe = rows
        .iter()
        .find(|r| r.mode == "pipelined")
        .expect("pipelined row");
    let pipe_ratio = pipe.out.events_per_sec() / baseline.events_per_sec();
    let pipe_vs_always = pipe.out.events_per_sec() / always.out.events_per_sec();
    let host_cpus = deltaos_core::par::host_cpus();
    let armed = host_cpus >= 4;
    // The withheld-reply scheduler must actually group: far fewer
    // fsyncs than logical commits, on every host.
    let grouped = pipe.out.fsyncs * 4 <= pipe.out.commits.max(1);
    let pass = grouped && pipe_vs_always >= 2.0 && (!armed || pipe_ratio >= 0.5);
    println!(
        "pipelined throughput ratio {pipe_ratio:.3} vs off ({} on {host_cpus} CPUs), \
         {pipe_vs_always:.3} vs wal_always (gate: >= 2.0 everywhere), \
         {} fsyncs / {} commits",
        if armed {
            "gate >= 0.5 armed"
        } else {
            "recorded only"
        },
        pipe.out.fsyncs,
        pipe.out.commits
    );

    if smoke {
        // The miniature drive is too shallow for meaningful grouping
        // (and the gate never arms in smoke); presence checks only.
        assert!(baseline.events > 0 && always.out.wal_records > 0);
        assert!(pipe.out.wal_records > 0);
        println!("smoke ok");
        return;
    }

    // --- JSON emission. ----------------------------------------------
    let throughput_rows: Vec<String> = std::iter::once(format!(
        "    {{\"mode\": \"wal_off\", \"events\": {}, \"elapsed_secs\": {:.3}, \"events_per_sec\": {:.0}}}",
        baseline.events,
        baseline.elapsed_secs,
        baseline.events_per_sec()
    ))
    .chain(rows.iter().map(|r| {
        let pipeline = if r.mode == "pipelined" {
            format!(
                ", \"flushes\": {}, \"flush_max_records\": {}, \"withheld_peak\": {}, \"commit_p50_us\": {}, \"commit_p99_us\": {}",
                r.out.pipeline_batches,
                r.out.pipeline_batch_max,
                r.out.pipeline_withheld_peak,
                r.out.pipeline_commit_p50_us,
                r.out.pipeline_commit_p99_us
            )
        } else {
            String::new()
        };
        format!(
            "    {{\"mode\": \"{}\", \"events\": {}, \"elapsed_secs\": {:.3}, \"events_per_sec\": {:.0}, \"wal_records\": {}, \"commits\": {}, \"fsyncs\": {}{}}}",
            r.mode,
            r.out.events,
            r.out.elapsed_secs,
            r.out.events_per_sec(),
            r.out.wal_records,
            r.out.commits,
            r.out.fsyncs,
            pipeline
        )
    }))
    .collect();
    let recovery_rows: Vec<String> = sweep
        .iter()
        .map(|row| {
            let every = if row.checkpoint_every == u64::MAX {
                "null".to_string()
            } else {
                row.checkpoint_every.to_string()
            };
            format!(
                "    {{\"checkpoint_every_records\": {every}, \"wal_records_at_rest\": {}, \"replayed_records\": {}, \"recovered_sessions\": {}, \"recovery_secs\": {:.6}, \"bit_identical\": true}}",
                row.wal_records_at_rest,
                row.rec.replayed_records,
                row.rec.recovered_sessions,
                row.rec.recovery_secs
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persist_bench\",\n",
            "  \"config\": {{\"shards\": {}, \"sessions\": {}, \"clients\": {}, ",
            "\"dims\": {}, \"rounds\": {}, \"edits_per_round\": {}}},\n",
            "  \"throughput\": [\n{}\n  ],\n",
            "  \"recovery\": [\n{}\n  ],\n",
            "  \"acceptance\": {{\"ratio_pipelined_vs_off\": {:.3}, \"required_ratio\": 0.5, ",
            "\"ratio_pipelined_vs_always\": {:.3}, \"required_ratio_vs_always\": 2.0, ",
            "\"gate_requires_cpus\": 4, \"host_cpus\": {}, \"armed\": {}, \"pass\": {}}}\n",
            "}}\n"
        ),
        drive.shards,
        drive.sessions,
        drive.clients,
        drive.dims,
        drive.rounds,
        drive.edits_per_round,
        throughput_rows.join(",\n"),
        recovery_rows.join(",\n"),
        pipe_ratio,
        pipe_vs_always,
        host_cpus,
        armed,
        pass
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, &json).expect("write BENCH_persist.json");
    println!("wrote {path}");
    assert!(
        pass,
        "acceptance failed: pipelined ratio {pipe_ratio:.3} (floor 0.5 where armed), \
         pipelined vs wal_always {pipe_vs_always:.3} (floor 2.0), grouped={grouped}"
    );
}
