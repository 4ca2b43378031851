//! TCP transport sweep of the runtime: 256 concurrent connections, each
//! pipelining small batches to its own session, against the
//! [`CoreRuntime`] that executes the shards inline on its pinned loops.
//! With the per-event work deliberately cheap, the drive is
//! transport-bound: framing, syscalls, coalesced writes and cross-loop
//! forwarding dominate.
//!
//! Before any number is reported, every connection's full event log is
//! replayed through a fresh in-process [`Session`] and the wire results
//! asserted bit-identical — pipelining and out-of-order shard completion
//! must never reorder or perturb per-session results. The loops must
//! also block in `poll(2)` throughout (zero busy ticks), and the
//! pipeline is sized so no request answers `Busy`.
//!
//! Emits `BENCH_frontend.json` at the repository root with aggregate
//! events/sec and round-trip p50/p99 (log-linear histogram).
//!
//! `--smoke` runs a 16-connection miniature (debug builds allowed, no
//! JSON) for CI.

use std::net::SocketAddr;
use std::time::Instant;

use deltaos_core::{ProcId, ResId};
use deltaos_service::{
    CoreConfig, CoreRuntime, Event, EventResult, Request, Response, Session, SessionId, TcpClient,
};
use deltaos_sim::Histogram;
use rand::{Rng, SeedableRng, StdRng};

#[derive(Clone, Copy)]
struct Drive {
    /// Total concurrent connections (= sessions).
    conns: usize,
    /// Client threads; each owns `conns / client_threads` connections.
    client_threads: usize,
    /// Batch frames in flight per connection before reading replies.
    pipeline: usize,
    /// Pipelined rounds per connection.
    rounds: usize,
    /// Events per batch frame — small, so transport dominates.
    events_per_batch: usize,
    dims: u16,
    shards: usize,
}

const FULL: Drive = Drive {
    conns: 256,
    client_threads: 16,
    pipeline: 4,
    rounds: 30,
    events_per_batch: 8,
    dims: 24,
    shards: 4,
};

const SMOKE: Drive = Drive {
    conns: 16,
    client_threads: 4,
    pipeline: 2,
    rounds: 3,
    events_per_batch: 4,
    dims: 8,
    shards: 2,
};

/// Cheap deterministic edit mix (no probes — the reduction is not what
/// this bench measures).
fn random_event(rng: &mut StdRng, dims: u16) -> Event {
    let p = ProcId(rng.gen_range(0..dims));
    let q = ResId(rng.gen_range(0..dims));
    match rng.gen_range(0..6u32) {
        0..=2 => Event::Request { p, q },
        3 | 4 => Event::Grant { q, p },
        _ => Event::Release { q, p },
    }
}

struct ConnLog {
    events: Vec<Event>,
    results: Vec<EventResult>,
}

struct ThreadReport {
    rtts: Histogram,
    logs: Vec<ConnLog>,
}

/// Drives `conns_per_thread` connections through `rounds` pipelined
/// rounds: write `pipeline` batch frames, then read the `pipeline`
/// replies, timing each round's full turnaround.
fn drive_thread(addr: SocketAddr, thread_id: usize, drive: &Drive) -> ThreadReport {
    let per_thread = drive.conns / drive.client_threads;
    let mut rng = StdRng::seed_from_u64(0xF0F0 ^ thread_id as u64);
    let mut conns: Vec<(TcpClient, SessionId, ConnLog)> = (0..per_thread)
        .map(|_| {
            let mut cli = TcpClient::connect(addr).expect("connect");
            let sid = match cli
                .call(&Request::Open {
                    resources: drive.dims,
                    processes: drive.dims,
                })
                .expect("open call")
            {
                Response::Opened(sid) => sid,
                other => panic!("open answered {other:?}"),
            };
            (
                cli,
                sid,
                ConnLog {
                    events: Vec::new(),
                    results: Vec::new(),
                },
            )
        })
        .collect();

    let mut rtts = Histogram::new();
    for _ in 0..drive.rounds {
        for (cli, sid, log) in conns.iter_mut() {
            let t0 = Instant::now();
            for _ in 0..drive.pipeline {
                let batch: Vec<Event> = (0..drive.events_per_batch)
                    .map(|_| random_event(&mut rng, drive.dims))
                    .collect();
                cli.send(&Request::Batch {
                    session: *sid,
                    events: batch.clone(),
                })
                .expect("pipelined send");
                log.events.extend_from_slice(&batch);
            }
            for _ in 0..drive.pipeline {
                match cli.recv().expect("pipelined recv") {
                    Response::Batch(mut r) => log.results.append(&mut r),
                    other => panic!("batch answered {other:?} (sizing must preclude Busy)"),
                }
            }
            rtts.record(t0.elapsed().as_nanos() as u64);
        }
    }

    for (cli, sid, _) in conns.iter_mut() {
        match cli.call(&Request::Close { session: *sid }).expect("close") {
            Response::Closed => {}
            other => panic!("close answered {other:?}"),
        }
    }
    ThreadReport {
        rtts,
        logs: conns.into_iter().map(|(_, _, log)| log).collect(),
    }
}

struct Outcome {
    loops: usize,
    events: u64,
    elapsed_secs: f64,
    rtts: Histogram,
}

impl Outcome {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }
}

/// Runs one full drive against a fresh runtime, asserts replay identity
/// for every connection, and returns the aggregate outcome.
fn run(drive: &Drive) -> Outcome {
    assert_eq!(drive.conns % drive.client_threads, 0);
    let config = CoreConfig {
        loops: 0, // auto: one pinned loop per host CPU
        shards: drive.shards,
        max_sessions_per_shard: drive.conns,
        max_pipeline: drive.pipeline * 4,
        ..CoreConfig::default()
    };
    let loops = config.resolved_loops();
    let server = CoreRuntime::bind("127.0.0.1:0", config).expect("bind runtime");
    let addr = server.local_addr();

    let start = Instant::now();
    let reports: Vec<ThreadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drive.client_threads)
            .map(|t| scope.spawn(move || drive_thread(addr, t, drive)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let fs = server.frontend_stats();
    assert_eq!(fs.desynced, 0, "well-formed traffic must never desync");
    assert_eq!(
        fs.busy_replies, 0,
        "pipeline sized under the cap; Busy would skew the measurement"
    );
    let ticks: u64 = server.core_stats().iter().map(|c| c.busy_poll_ticks).sum();
    assert_eq!(
        ticks, 0,
        "loops must block in poll(2); a busy tick means a lost wakeup"
    );
    server.stop();

    // Replay identity: the wire results of every connection must be
    // bit-identical to an in-process single-threaded replay of its log.
    let mut events = 0u64;
    let mut rtts = Histogram::new();
    for r in &reports {
        rtts.merge(&r.rtts);
        for log in &r.logs {
            assert_eq!(log.events.len(), log.results.len());
            events += log.events.len() as u64;
            let mut session = Session::new(drive.dims, drive.dims);
            let expected: Vec<EventResult> =
                log.events.iter().map(|&ev| session.apply(ev)).collect();
            assert_eq!(
                log.results, expected,
                "wire results diverged from in-process replay"
            );
        }
    }

    Outcome {
        loops,
        events,
        elapsed_secs,
        rtts,
    }
}

fn report(drive: &Drive, o: &Outcome) {
    println!(
        "{} conns x {} rounds, pipeline {}, {} events/batch, {} shards on {} loops",
        drive.conns, drive.rounds, drive.pipeline, drive.events_per_batch, drive.shards, o.loops
    );
    println!(
        "  {} events in {:.3}s -> {:.0} events/sec; round RTT p50 {} ns p99 {} ns ({} samples)",
        o.events,
        o.elapsed_secs,
        o.events_per_sec(),
        o.rtts.percentile(0.50),
        o.rtts.percentile(0.99),
        o.rtts.count()
    );
}

fn to_json(drive: &Drive, o: &Outcome, host_cpus: usize) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"frontend_scaling\",\n",
            "  \"host_cpus\": {},\n",
            "  \"config\": {{\"conns\": {}, \"client_threads\": {}, \"pipeline\": {}, ",
            "\"rounds\": {}, \"events_per_batch\": {}, \"dims\": {}, \"shards\": {}, ",
            "\"loops\": {}}},\n",
            "  \"replay_identity\": {{\"wire_vs_in_process_bit_identical\": true}},\n",
            "  \"events\": {},\n",
            "  \"elapsed_secs\": {:.3},\n",
            "  \"events_per_sec\": {:.0},\n",
            "  \"round_rtt_ns\": {{\"p50\": {}, \"p99\": {}, \"samples\": {}}}\n",
            "}}\n"
        ),
        host_cpus,
        drive.conns,
        drive.client_threads,
        drive.pipeline,
        drive.rounds,
        drive.events_per_batch,
        drive.dims,
        drive.shards,
        o.loops,
        o.events,
        o.elapsed_secs,
        o.events_per_sec(),
        o.rtts.percentile(0.50),
        o.rtts.percentile(0.99),
        o.rtts.count()
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let o = run(&SMOKE);
        report(&SMOKE, &o);
        assert!(o.events > 0);
        println!("smoke ok");
        return;
    }

    if cfg!(debug_assertions) {
        // Debug throughput would corrupt the tracked BENCH_frontend.json.
        eprintln!("frontend_scaling: debug build — rerun with --release (or use --smoke)");
        std::process::exit(2);
    }

    let host_cpus = deltaos_core::par::host_cpus();
    println!("=== frontend_scaling: 256-connection pipelined sweep ({host_cpus} host CPUs) ===");
    let o = run(&FULL);
    report(&FULL, &o);
    let json = to_json(&FULL, &o, host_cpus);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_frontend.json");
    std::fs::write(path, &json).expect("write BENCH_frontend.json");
    println!("wrote {path}");
}
