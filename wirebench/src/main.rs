//! deltaos wire benchmark.
//!
//! One process: an in-process `CoreRuntime` with one loop owning every
//! shard, driven by one client thread over two TCP connections as a
//! closed loop. Every reply is checked against a reference replay. See
//! `README.md` beside this crate for the workloads and the metric map.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload wire-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is non-zero if any reply fails the oracle.

mod gen;
mod host;
mod replay;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deltaos_service::{
    CoreConfig, CoreRuntime, CoreStats, DurabilityConfig, FrontendStats, FsyncPolicy, Request,
    Response, ShardStats,
};

use gen::{Gen, Shape, Workload};
use host::{Gauges, Host};
use replay::{Timing, Verdict};
use wire::{Conn, Live, PhaseOut, Schedule};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// How the durable workload logs in the measured runs: every command is
/// written to the WAL, which the OS flushes. Replies that wait for
/// `fdatasync` are left out of the gated figures: on a virtual machine
/// whose disk is emulated on the guest's own CPU budget, fsync latency
/// follows host steal (see README.md).
const WAL_FSYNC: FsyncPolicy = FsyncPolicy::Os;

/// The pipelined group commit of `persist_bench`, run by the traced
/// run of the durable workload for the WAL ledger.
const GROUP_COMMIT: FsyncPolicy = FsyncPolicy::Pipelined {
    max_records: 32,
    deadline: Duration::from_micros(500),
};

/// The runtime under test: one loop, one shard, and for the durable
/// workload a WAL in `dir` synced by `fsync`.
fn config(dir: Option<&Path>, fsync: FsyncPolicy) -> CoreConfig {
    CoreConfig {
        loops: 1,
        shards: 1,
        durability: dir.map(|d| DurabilityConfig {
            dir: d.to_path_buf(),
            fsync,
            checkpoint_every_records: 4096,
            // Keep the WAL at shutdown so the restart replays it.
            checkpoint_on_shutdown: false,
            repl_ack: false,
        }),
        ..CoreConfig::default()
    }
}

/// Binds a runtime whose threads run on CPU 0 while the calling client
/// thread runs on CPU 1: two busy threads, one per CPU of a 2-CPU host,
/// placed the same way on every run.
fn bind(cfg: CoreConfig) -> io::Result<CoreRuntime> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    host::pin_current_thread(0, cpus);
    let rt = CoreRuntime::bind("127.0.0.1:0", cfg);
    host::pin_current_thread(1, cpus);
    rt
}

/// A set-up runtime with its sessions opened and preloaded.
struct Server {
    rt: CoreRuntime,
    conns: [Conn; 2],
    live: Vec<Live>,
    loop_stat: String,
}

fn set_up(
    workload: Workload,
    seed: u64,
    shapes: &[Shape],
    dir: Option<&Path>,
    fsync: FsyncPolicy,
) -> io::Result<(Server, f64)> {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d)?;
    }
    let t0 = Instant::now();
    let rt = bind(config(dir, fsync))?;
    let mut conns = [
        Conn::connect(rt.local_addr())?,
        Conn::connect(rt.local_addr())?,
    ];
    let gens = (0..shapes.len())
        .map(|i| Gen::new(workload, seed, i, shapes[i]))
        .collect();
    let live = wire::open_sessions(&mut conns, gens, workload.depth())?;
    let secs = t0.elapsed().as_secs_f64();
    let loop_stat = host::thread_schedstat("deltaos-core-0")
        .ok_or_else(|| io::Error::other("runtime loop thread not found"))?;
    Ok((
        Server {
            rt,
            conns,
            live,
            loop_stat,
        },
        secs,
    ))
}

/// The server-side counters read around a phase.
struct Counters {
    shard: ShardStats,
    frontend: FrontendStats,
    core: CoreStats,
}

impl Counters {
    fn read(server: &mut Server) -> io::Result<Counters> {
        match server.conns[0].call(&Request::Stats)? {
            Response::Stats { shards, .. } if shards.len() == 1 => Ok(Counters {
                shard: shards[0],
                frontend: server.rt.frontend_stats(),
                core: server.rt.core_stats()[0],
            }),
            other => Err(io::Error::other(format!("Stats answered {other:?}"))),
        }
    }

    /// The in-process counters only, with the shard's as in `before`.
    fn read_local(server: &Server, before: &Counters) -> Counters {
        Counters {
            shard: before.shard,
            frontend: server.rt.frontend_stats(),
            core: server.rt.core_stats()[0],
        }
    }
}

/// One closed-loop phase and the counters around it.
struct Phase {
    out: PhaseOut,
    before: Counters,
    after: Counters,
}

fn run_phase(
    server: &mut Server,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> io::Result<Phase> {
    let before = Counters::read(server)?;
    let window = Duration::from_secs(seconds);
    let loop_stat = server.loop_stat.clone();
    let sched = Schedule {
        depth: workload.depth(),
        seed,
        warmup: (window / 10).min(Duration::from_secs(1)),
        window,
        traced,
    };
    let out = wire::drive(&mut server.conns, &mut server.live, &sched, || {
        Gauges::read(&loop_stat)
    })?;
    if out.lost > 0 {
        // A lost reply may still arrive and would answer the next call.
        return Ok(Phase {
            out,
            after: Counters::read_local(server, &before),
            before,
        });
    }
    let after = Counters::read(server)?;
    Ok(Phase { out, before, after })
}

/// Restarts a runtime over `dir`, and checks every session's recovered
/// snapshot against the reference broker's. Returns the recovery time,
/// the WAL records replayed and the sessions that differ.
fn verify_recovery(
    dir: &Path,
    live: &[Live],
    snapshots: &[Vec<u8>],
) -> io::Result<(f64, u64, u64)> {
    let t0 = Instant::now();
    let rt = bind(config(Some(dir), WAL_FSYNC))?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed = rt.recovery().iter().map(|r| r.replayed_records).sum();
    let mut conn = Conn::connect(rt.local_addr())?;
    let mut differ = 0;
    for (l, want) in live.iter().zip(snapshots) {
        match conn.call(&Request::Snapshot { session: l.sid })? {
            Response::Snapshot(bytes) if bytes == *want => {}
            _ => differ += 1,
        }
    }
    drop(conn);
    rt.stop();
    Ok((recovery_ms, replayed, differ))
}

/// A finished phase: the phase, its oracle verdict, and (durable only)
/// the recovery check.
struct Checked {
    phase: Phase,
    verdict: Verdict,
    recovery: Option<(f64, u64, u64)>,
}

impl Checked {
    /// Lost and failed replies, plus sessions whose recovered snapshot
    /// differs, plus one if the server's counters disagree with the
    /// replay's.
    fn failed(&self) -> u64 {
        self.phase.out.lost
            + self.verdict.failed
            + self.recovery.map_or(0, |r| r.2)
            + u64::from(!self.counters_agree())
    }

    /// The shard's engine and broker counters moved by exactly what the
    /// reference replay counted over the phase.
    fn counters_agree(&self) -> bool {
        let (a, b) = (&self.phase.before.shard, &self.phase.after.shard);
        let (e, k) = (&self.verdict.engine, &self.verdict.broker);
        if b.broker_grants + b.broker_deferrals + b.broker_give_ups > 0 {
            b.broker_grants - a.broker_grants == k.grants
                && b.broker_deferrals - a.broker_deferrals == k.deferrals
                && b.broker_give_ups - a.broker_give_ups == k.give_ups
        } else {
            b.cache_hits - a.cache_hits == e.cache_hits
                && b.dense_reductions - a.dense_reductions == e.dense_reductions
                && b.sparse_reductions - a.sparse_reductions == e.sparse_reductions
        }
    }
}

/// Stops the runtime, replays the phase through the oracle and, for
/// the durable workload, restarts over the store and checks recovery.
fn finish(
    server: Server,
    phase: Phase,
    args: &Args,
    shapes: &[Shape],
    dir: Option<&Path>,
    timing: Option<&mut Timing>,
) -> io::Result<Checked> {
    let Server {
        rt, conns, live, ..
    } = server;
    drop(conns);
    rt.stop();
    let verdict = replay::replay(args.workload, args.seed, shapes, &live, timing);
    let recovery = match dir {
        Some(d) => Some(verify_recovery(d, &live, &verdict.snapshots)?),
        None => None,
    };
    Ok(Checked {
        phase,
        verdict,
        recovery,
    })
}

/// The untraced run: `SETUPS` set-ups (the last one is measured), the
/// phase, and its oracle. Returns the set-up times too.
fn untraced_run(
    args: &Args,
    shapes: &[Shape],
    dir: Option<&Path>,
) -> io::Result<(Checked, Vec<f64>)> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        // Each extra set-up is stopped again before the next binds.
        let (s, secs) = set_up(args.workload, args.seed, shapes, dir, WAL_FSYNC)?;
        setups.push(secs);
        drop(s);
    }
    let (mut server, secs) = set_up(args.workload, args.seed, shapes, dir, WAL_FSYNC)?;
    setups.push(secs);
    let phase = run_phase(&mut server, args.workload, args.seed, args.seconds, false)?;
    Ok((finish(server, phase, args, shapes, dir, None)?, setups))
}

/// Nearest-rank percentile of raw samples (sorted in place).
fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A metric: name, value, unit, and the sample count behind it.
type Metric = (&'static str, f64, &'static str, u64);

/// The run's metrics: those of the JSON result, and those only printed.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    printed: Vec<Metric>,
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, n: u64) {
        self.metrics.push((name, finite(value), unit, n));
    }

    /// A metric printed with the others but kept out of the JSON result.
    fn print_only(&mut self, name: &'static str, value: f64, unit: &'static str, n: u64) {
        self.printed.push((name, finite(value), unit, n));
    }

    fn print_lines(&self) {
        for (name, value, unit, n) in self.metrics.iter().chain(&self.printed) {
            println!("{name:<34} {value:>16.4} {unit:<6} n={n}");
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Exact median and p99 of a window's reply times, in microseconds,
/// with their sample count.
fn reply_times(out: &mut PhaseOut) -> (f64, f64, u64) {
    let n = out.latency_ns.len() as u64;
    let p50 = percentile(&mut out.latency_ns, 0.50) / 1e3;
    (p50, percentile(&mut out.latency_ns, 0.99) / 1e3, n)
}

/// Whole-window figures: replied ops over the window's length, and
/// exact percentiles over every reply of the window pooled together.
/// The reply times are printed but left out of the JSON result: with a
/// fixed number of requests outstanding they follow from `ops_per_s`
/// (Little's law) and amplify the host's drift (see README.md); the
/// traced run reports them instead.
fn end_to_end(r: &mut Report, c: &mut Checked, setups: &[f64]) {
    let out = &mut c.phase.out;
    let (g0, g1) = out.gauges;
    let ops = out.window_ops;
    r.add("ops_per_s", ratio(ops as f64, out.window_s), "1/s", ops);
    let (p50, p99, n) = reply_times(out);
    r.print_only("reply_p50_us", p50, "us", n);
    r.print_only("reply_p99_us", p99, "us", n);
    r.add(
        "cpu_us_per_op",
        ratio(g0.server_cpu_us(&g1), ops as f64),
        "us",
        ops,
    );
    r.add("setup_s", median(setups), "s", setups.len() as u64);
}

/// Per-layer ledger of a traced phase; `overhead_pct` compares its
/// `ops_per_s` with the untraced phase run just before it.
fn per_layer(r: &mut Report, c: &Checked, t: &Timing, overhead_pct: f64, steal_pct: f64) {
    let p = &c.phase;
    let v = &c.verdict;
    let (s0, s1) = (&p.before.shard, &p.after.shard);
    let (f0, f1) = (&p.before.frontend, &p.after.frontend);
    let (k0, k1) = (&p.before.core, &p.after.core);
    let (g0, g1) = p.out.gauges;
    let ops = p.out.ops as f64;
    let requests = p.out.requests;
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    // Engine counts from the server's shard stats; a broker-only run
    // probes inside its brokers, which shard stats do not count, so it
    // takes the bit-identical replay's counts instead.
    let e = &v.engine;
    let (probes, hits, dense, sparse) = if s1.probes > s0.probes {
        (
            d(s0.probes, s1.probes),
            d(s0.cache_hits, s1.cache_hits),
            d(s0.dense_reductions, s1.dense_reductions),
            d(s0.sparse_reductions, s1.sparse_reductions),
        )
    } else {
        let f = |x: u64| x as f64;
        (
            f(e.probes),
            f(e.cache_hits),
            f(e.dense_reductions),
            f(e.sparse_reductions),
        )
    };

    let mut probe_ns = t.probe_ns.clone();
    let session_ns = t.edit_ns as f64 + probe_ns.iter().sum::<u64>() as f64;
    let broker = &t.broker;
    let broker_ns: u64 = [&broker.acquire_ns, &broker.release_ns, &broker.give_up_ns]
        .iter()
        .flat_map(|v| v.iter())
        .sum();
    let loop_ns_per_op = ratio(d(g0.loop_cpu_ns, g1.loop_cpu_ns), p.out.window_ops as f64);

    r.add(
        "session.edit_ns",
        ratio(t.edit_ns as f64, t.edits as f64),
        "ns",
        t.edits,
    );
    let n_probe = probe_ns.len() as u64;
    r.add(
        "session.probe_ns_p50",
        percentile(&mut probe_ns, 0.50),
        "ns",
        n_probe,
    );
    r.add(
        "session.probe_ns_p99",
        percentile(&mut probe_ns, 0.99),
        "ns",
        n_probe,
    );
    r.add(
        "engine.cache_hit_ratio",
        ratio(hits, probes),
        "ratio",
        probes as u64,
    );
    let pl = &v.polls;
    r.add(
        "engine.clean_poll_hit_ratio",
        ratio(pl.clean_hits as f64, pl.clean_polls as f64),
        "ratio",
        pl.clean_polls,
    );
    r.add(
        "engine.after_wd_poll_hit_ratio",
        ratio(pl.wd_hits as f64, pl.wd_polls as f64),
        "ratio",
        pl.wd_polls,
    );
    r.add(
        "engine.dense_per_kprobe",
        1e3 * ratio(dense, probes),
        "count",
        probes as u64,
    );
    r.add(
        "engine.sparse_per_kprobe",
        1e3 * ratio(sparse, probes),
        "count",
        probes as u64,
    );
    r.add(
        "engine.full_rebuilds_per_kprobe",
        1e3 * ratio(e.full_rebuilds as f64, e.probes as f64),
        "count",
        e.probes,
    );
    r.add(
        "engine.deltas_per_sync",
        ratio(e.deltas_applied as f64, e.delta_syncs as f64),
        "count",
        e.delta_syncs,
    );

    r.add(
        "proto.encode_ns_per_frame",
        ratio(t.encode_ns as f64, t.frames as f64),
        "ns",
        t.frames,
    );
    r.add(
        "proto.decode_ns_per_frame",
        ratio(t.decode_ns as f64, t.frames as f64),
        "ns",
        t.frames,
    );
    r.add(
        "proto.bytes_per_op",
        ratio(
            d(f0.bytes_in, f1.bytes_in) + d(f0.bytes_out, f1.bytes_out),
            ops,
        ),
        "B",
        requests,
    );

    r.add(
        "runtime.loop_ns_per_op",
        loop_ns_per_op,
        "ns",
        p.out.window_ops,
    );
    let modelled = ratio(
        session_ns + broker_ns as f64 + t.server_codec_ns as f64,
        ops,
    );
    r.add(
        "runtime.residual_ns_per_op",
        loop_ns_per_op - modelled,
        "ns",
        p.out.window_ops,
    );
    r.add(
        "runtime.inline_ratio",
        ratio(
            d(k0.inline_ops, k1.inline_ops),
            d(k0.frames_in, k1.frames_in),
        ),
        "ratio",
        requests,
    );
    r.add(
        "runtime.busy_poll_ticks",
        k1.busy_poll_ticks as f64,
        "count",
        1,
    );

    let mut acquire_ns = broker.acquire_ns.clone();
    let mut release_ns = broker.release_ns.clone();
    let (n_acq, n_rel) = (acquire_ns.len() as u64, release_ns.len() as u64);
    let cmds = if broker_ns > 0 { ops } else { 0.0 };
    r.add(
        "broker.acquire_ns_p50",
        percentile(&mut acquire_ns, 0.50),
        "ns",
        n_acq,
    );
    r.add(
        "broker.release_ns_p50",
        percentile(&mut release_ns, 0.50),
        "ns",
        n_rel,
    );
    r.add(
        "broker.grant_ratio",
        ratio(d(s0.broker_grants, s1.broker_grants), n_acq as f64),
        "ratio",
        n_acq,
    );
    r.add(
        "broker.deferrals_per_kcmd",
        1e3 * ratio(d(s0.broker_deferrals, s1.broker_deferrals), cmds),
        "count",
        cmds as u64,
    );
    r.add(
        "broker.give_ups_per_kcmd",
        1e3 * ratio(d(s0.broker_give_ups, s1.broker_give_ups), cmds),
        "count",
        cmds as u64,
    );

    r.add(
        "wal.disk_bytes_per_op",
        ratio(d(g0.write_bytes, g1.write_bytes), p.out.window_ops as f64),
        "B",
        p.out.window_ops,
    );
    let (rec_ms, replayed) = c.recovery.map_or((0.0, 0), |r| (r.0, r.1));
    r.add(
        "durable.recovery_ms",
        rec_ms,
        "ms",
        u64::from(c.recovery.is_some()),
    );
    r.add("durable.replayed_records", replayed as f64, "count", 1);

    r.add(
        "client.gen_ns_per_op",
        ratio(p.out.spans.gen.ns as f64, ops),
        "ns",
        p.out.spans.gen.count,
    );
    r.add("trace.overhead_pct", overhead_pct, "%", 2);
    r.add("host.steal_pct", steal_pct, "%", 2);
}

/// The WAL group-commit ledger of the durable workload's phase under
/// [`GROUP_COMMIT`] (all 0 on the memory-only workloads), with that
/// phase's own throughput, median reply time and host steal.
fn group_commit(r: &mut Report, g: Option<&mut Checked>) {
    let Some(g) = g else {
        for (name, unit) in [
            ("wal.fsyncs_per_kop", "count"),
            ("wal.records_per_flush", "count"),
            ("wal.withheld_peak", "count"),
            ("wal.commit_p50_us", "us"),
            ("wal.commit_p99_us", "us"),
            ("group_commit.ops_per_s", "1/s"),
            ("group_commit.reply_p50_us", "us"),
            ("group_commit.steal_pct", "%"),
        ] {
            r.add(name, 0.0, unit, 0);
        }
        return;
    };
    let p = &mut g.phase;
    let (s0, s1) = (&p.before.shard, &p.after.shard);
    let ops = p.out.ops as f64;
    let fsyncs = s1.pipeline_fsyncs.saturating_sub(s0.pipeline_fsyncs) as f64;
    r.add(
        "wal.fsyncs_per_kop",
        1e3 * ratio(fsyncs, ops),
        "count",
        fsyncs as u64,
    );
    r.add(
        "wal.records_per_flush",
        ratio(ops, fsyncs),
        "count",
        fsyncs as u64,
    );
    r.add(
        "wal.withheld_peak",
        s1.pipeline_withheld_peak as f64,
        "count",
        1,
    );
    // The server's own histogram: bucket upper bounds, ±25% resolution.
    r.add(
        "wal.commit_p50_us",
        s1.pipeline_commit_p50_us as f64,
        "us",
        fsyncs as u64,
    );
    r.add(
        "wal.commit_p99_us",
        s1.pipeline_commit_p99_us as f64,
        "us",
        fsyncs as u64,
    );
    let out = &mut p.out;
    let (g0, g1) = out.gauges;
    let n = out.latency_ns.len() as u64;
    r.add(
        "group_commit.ops_per_s",
        ratio(out.window_ops as f64, out.window_s),
        "1/s",
        out.window_ops,
    );
    r.add(
        "group_commit.reply_p50_us",
        percentile(&mut out.latency_ns, 0.50) / 1e3,
        "us",
        n,
    );
    r.add("group_commit.steal_pct", g0.steal_pct(&g1), "%", 1);
}

/// One line per phase: its host steal and what the oracle found.
fn print_check(c: &Checked) {
    let p = &c.phase.out;
    let (g0, g1) = p.gauges;
    println!(
        "phase host.steal_pct={:.3} failed_ratio={} n={} lost={} checked={} counters_agree={} disk_bytes_per_op={:.3}",
        g0.steal_pct(&g1),
        ratio(c.failed() as f64, p.requests as f64),
        p.requests,
        p.lost,
        c.verdict.checked,
        c.counters_agree(),
        ratio(g1.write_bytes.saturating_sub(g0.write_bytes) as f64, p.window_ops as f64),
    );
}

fn print_spans(p: &Phase) {
    let s = &p.out.spans;
    for (name, span) in [
        ("client.gen", s.gen),
        ("client.encode", s.encode),
        ("client.write", s.write),
        ("client.wait", s.wait),
        ("client.read", s.read),
        ("client.digest", s.digest),
    ] {
        println!(
            "span {name:<14} count={:<10} total_ms={:.3} mean_ns={:.1}",
            span.count,
            span.ns as f64 / 1e6,
            ratio(span.ns as f64, span.count as f64)
        );
    }
}

/// Runs the benchmark in a scratch directory beside this crate, which
/// is removed afterwards whatever the outcome.
fn run(args: &Args) -> io::Result<bool> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work)?;
    let result = measure(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Removes `work/` too once no other run is using it.
    let _ = std::fs::remove_dir(&root);
    result
}

fn measure(args: &Args, work: &Path) -> io::Result<bool> {
    let host = Host::describe();
    let shapes = args.workload.shapes();
    let dir: Option<PathBuf> = args.workload.durable().then(|| work.join("store"));
    let dir = dir.as_deref();
    println!(
        "host cpus={} model=\"{}\" kernel={} store_fs={}",
        host.cpus,
        host.model,
        host.kernel,
        host::fs_type(work)
    );
    println!(
        "workload={} seed={} seconds={} trace={} loops=1 client_threads=1 connections=2 outstanding_per_conn={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.depth()
    );

    let mut report = Report::default();
    let (attempted, failed) = if !args.trace {
        let (mut c, setups) = untraced_run(args, &shapes, dir)?;
        print_check(&c);
        end_to_end(&mut report, &mut c, &setups);
        (c.phase.out.requests, c.failed())
    } else {
        let (mut server, _) = set_up(args.workload, args.seed, &shapes, dir, WAL_FSYNC)?;
        let phase = run_phase(&mut server, args.workload, args.seed, args.seconds, false)?;
        let mut plain = finish(server, phase, args, &shapes, dir, None)?;
        let (mut server, _) = set_up(args.workload, args.seed, &shapes, dir, WAL_FSYNC)?;
        let phase = run_phase(&mut server, args.workload, args.seed, args.seconds, true)?;
        let mut timing = Timing {
            overhead_ns: replay::timer_overhead_ns(),
            ..Timing::default()
        };
        let traced = finish(server, phase, args, &shapes, dir, Some(&mut timing))?;
        // The durable workload once more under group commit, untraced.
        let mut group = match dir {
            Some(_) => {
                let (mut server, _) =
                    set_up(args.workload, args.seed, &shapes, dir, GROUP_COMMIT)?;
                let phase = run_phase(&mut server, args.workload, args.seed, args.seconds, false)?;
                Some(finish(server, phase, args, &shapes, dir, None)?)
            }
            None => None,
        };
        print_check(&plain);
        print_check(&traced);
        group.iter().for_each(print_check);
        let (a0, a1) = plain.phase.out.gauges;
        let (b0, b1) = traced.phase.out.gauges;
        let steal = (a0.steal_pct(&a1) + b0.steal_pct(&b1)) / 2.0;
        let rate = |o: &PhaseOut| ratio(o.window_ops as f64, o.window_s);
        let (untraced_ops, traced_ops) = (rate(&plain.phase.out), rate(&traced.phase.out));
        let overhead = 100.0 * ratio(untraced_ops - traced_ops, untraced_ops);
        per_layer(&mut report, &traced, &timing, overhead, steal);
        group_commit(&mut report, group.as_mut());
        let (p50, p99, n) = reply_times(&mut plain.phase.out);
        report.add("reply_p50_us", p50, "us", n);
        report.add("reply_p99_us", p99, "us", n);
        print_spans(&traced.phase);
        let group_counts = group.as_ref().map_or((0, 0), |g| (g.phase.out.requests, g.failed()));
        (
            plain.phase.out.requests + traced.phase.out.requests + group_counts.0,
            plain.failed() + traced.failed() + group_counts.1,
        )
    };
    report.print_lines();
    let correct = failed == 0;
    println!("{}", report.json(correct, attempted, failed));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    }
}
