//! The oracle. After a phase, every session's requests are regenerated
//! from the seed and replayed through a fresh reference object — a
//! `Session` for detection, a `Broker` for avoidance — and the digest of
//! the reply the reference encodes must equal the digest of the reply
//! the server sent, request by request. A traced phase's replay also
//! times each layer's public calls: `Session::apply`, the broker
//! commands, and the four codec functions.

use std::hint::black_box;
use std::time::Instant;

use deltaos_core::engine::EngineStats;
use deltaos_core::ResId;
use deltaos_service::proto::{decode_request, decode_response, encode_request, encode_response};
use deltaos_service::{BrokerCounters, Event, EventResult, Request, Response, Session};

use crate::gen::{BrokerTimes, Class, Gen, Op, Shape, Workload};
use crate::wire::{digest, Live};

/// Cost of one `Instant::now()` pair, subtracted from every timed call
/// (median of many back-to-back pairs).
pub fn timer_overhead_ns() -> u64 {
    let mut v: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Per-layer times collected while replaying a traced phase.
#[derive(Debug, Default)]
pub struct Timing {
    pub overhead_ns: u64,
    /// `Session::apply` on edits (sum, count) and on probes (samples).
    pub edit_ns: u64,
    pub edits: u64,
    pub probe_ns: Vec<u64>,
    /// Codec time over request + response frames.
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub frames: u64,
    /// The server's share of the codec: request decode + reply encode.
    pub server_codec_ns: u64,
    pub broker: BrokerTimes,
}

impl Timing {
    fn since(&self, t: Instant) -> u64 {
        (t.elapsed().as_nanos() as u64).saturating_sub(self.overhead_ns)
    }

    /// Times the four codec calls for one request/reply pair.
    fn codec(&mut self, req: &Request, resp: &Response) {
        let t = Instant::now();
        let req_bytes = black_box(encode_request(black_box(req)));
        let enc_req = self.since(t);
        let t = Instant::now();
        black_box(decode_request(&req_bytes).ok());
        let dec_req = self.since(t);
        let t = Instant::now();
        let resp_bytes = black_box(encode_response(black_box(resp)));
        let enc_resp = self.since(t);
        let t = Instant::now();
        black_box(decode_response(&resp_bytes).ok());
        let dec_resp = self.since(t);
        self.encode_ns += enc_req + enc_resp;
        self.decode_ns += dec_req + dec_resp;
        self.server_codec_ns += dec_req + enc_resp;
        self.frames += 2;
    }
}

/// Cache behaviour of the engine by poll kind, from the replay (the
/// replay is bit-identical to the server, so its engine counts are the
/// server's).
#[derive(Debug, Default, Clone, Copy)]
pub struct PollLedger {
    pub clean_polls: u64,
    pub clean_hits: u64,
    pub wd_polls: u64,
    pub wd_hits: u64,
}

/// What the oracle found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies compared.
    pub checked: u64,
    /// Replies whose digest differs from the reference reply's, or
    /// whose reference reply breaks an invariant checked independently.
    pub failed: u64,
    /// Engine counters accumulated after set-up, summed over sessions
    /// (the broker's probe engine for avoidance sessions).
    pub engine: EngineStats,
    pub polls: PollLedger,
    pub broker: BrokerCounters,
    /// Per session, the reference broker's final snapshot encoding.
    pub snapshots: Vec<Vec<u8>>,
}

/// Replays every session of a phase; `timing` is filled when given.
pub fn replay(
    workload: Workload,
    seed: u64,
    shapes: &[Shape],
    live: &[Live],
    mut timing: Option<&mut Timing>,
) -> Verdict {
    let mut v = Verdict::default();
    for (i, (l, &shape)) in live.iter().zip(shapes).enumerate() {
        match Gen::new(workload, seed, i, shape) {
            Gen::Detect(mut g) => {
                let mut session = Session::new(shape.resources, shape.processes);
                let mut script = Some(g.preload(l.sid)).into_iter();
                let mut base = None;
                for &want in &l.replies {
                    let op = match script.next() {
                        Some(op) => op,
                        None => {
                            base.get_or_insert_with(|| session.engine_stats());
                            g.next(l.sid)
                        }
                    };
                    // Probes end their batch, so the mirror, already past
                    // the batch's edits, holds the graph each one sees.
                    let deadlock = match &op.req {
                        Request::Batch { events, .. } => match events.last() {
                            Some(&Event::WouldDeadlock { p, q }) => {
                                wait_cycle(shape.processes, &g.wait_edges(Some((p, q))))
                            }
                            _ => wait_cycle(shape.processes, &g.wait_edges(None)),
                        },
                        _ => false,
                    };
                    // Set-up traffic is checked but not timed.
                    let t = timing.as_deref_mut().filter(|_| op.class != Class::Setup);
                    let (resp, sound) = apply_batch(&mut session, &op, deadlock, &mut v.polls, t);
                    let t = timing.as_deref_mut().filter(|_| op.class != Class::Setup);
                    check(&mut v, &op.req, &resp, want, sound, t);
                }
                let end = session.engine_stats();
                add_engine(&mut v.engine, &end, &base.unwrap_or(end));
            }
            Gen::Avoid(mut g) => {
                if timing.is_some() {
                    g.times = Some(BrokerTimes::default());
                }
                let mut script = g.setup(l.sid).into_iter();
                for &want in &l.replies {
                    match script.next().or_else(|| g.next(l.sid)) {
                        Some((op, resp)) => {
                            // Avoidance keeps the tracked graph acyclic.
                            let rag = g.broker.rag();
                            let edges: Vec<(u16, u16)> = (0..rag.resources())
                                .filter_map(|q| Some((rag.owner(ResId(q as u16))?, q)))
                                .flat_map(|(owner, q)| {
                                    rag.requesters(ResId(q as u16))
                                        .iter()
                                        .map(move |p| (p.0, owner.0))
                                })
                                .collect();
                            let sound = !wait_cycle(shape.processes, &edges);
                            let t = timing.as_deref_mut().filter(|_| op.class != Class::Setup);
                            check(&mut v, &op.req, &resp, want, sound, t)
                        }
                        None => {
                            v.checked += 1;
                            v.failed += 1;
                        }
                    }
                }
                if let (Some(t), Some(times)) = (timing.as_deref_mut(), g.times.take()) {
                    t.broker.acquire_ns.extend(times.acquire_ns);
                    t.broker.release_ns.extend(times.release_ns);
                    t.broker.give_up_ns.extend(times.give_up_ns);
                }
                add_engine(
                    &mut v.engine,
                    &g.broker.engine_stats(),
                    &EngineStats::default(),
                );
                let c = g.broker.counters();
                v.broker.grants += c.grants;
                v.broker.deferrals += c.deferrals;
                v.broker.give_ups += c.give_ups;
                v.snapshots.push(g.broker.snapshot(l.sid.0).encode());
            }
        }
    }
    v
}

fn check(
    v: &mut Verdict,
    req: &Request,
    resp: &Response,
    want: u64,
    sound: bool,
    timing: Option<&mut Timing>,
) {
    v.checked += 1;
    if !sound || digest(&encode_response(resp)) != want {
        v.failed += 1;
    }
    if let Some(t) = timing {
        t.codec(req, resp);
    }
}

/// Applies one batch event by event, as the server's session does, and
/// checks each result against what holds independently of the program:
/// the mirror emits only edits the RAG accepts, so every edit must be
/// acknowledged, and the batch's closing probe must report `deadlock`,
/// the verdict of the benchmark's own wait-for-graph check. Returns the
/// reply and whether every check held.
fn apply_batch(
    session: &mut Session,
    op: &Op,
    deadlock: bool,
    polls: &mut PollLedger,
    mut timing: Option<&mut Timing>,
) -> (Response, bool) {
    let Request::Batch { events, .. } = &op.req else {
        unreachable!("detection generators emit batches only");
    };
    let hits = session.engine_stats().cache_hits;
    let mut results = Vec::with_capacity(events.len());
    let mut sound = true;
    for (i, &ev) in events.iter().enumerate() {
        let probe = matches!(ev, Event::Probe | Event::WouldDeadlock { .. });
        let r = match timing.as_deref_mut() {
            Some(t) => {
                let at = Instant::now();
                let r = session.apply(ev);
                let ns = t.since(at);
                if probe {
                    t.probe_ns.push(ns);
                } else {
                    t.edit_ns += ns;
                    t.edits += 1;
                }
                r
            }
            None => session.apply(ev),
        };
        sound &= match &r {
            EventResult::Outcome(o) => probe && i + 1 == events.len() && o.deadlock == deadlock,
            r => !probe && *r == EventResult::Ack,
        };
        results.push(r);
    }
    let hit = session.engine_stats().cache_hits - hits;
    match op.class {
        Class::CleanPoll => {
            polls.clean_polls += 1;
            polls.clean_hits += hit;
        }
        Class::PollAfterWd => {
            polls.wd_polls += 1;
            polls.wd_hits += hit;
        }
        _ => {}
    }
    (Response::Batch(results), sound)
}

/// Kahn's algorithm over a wait-for graph (`p → p'`: p waits for a
/// resource p' holds). With single-unit resources a cycle is exactly a
/// deadlock, so this is an oracle that shares no code with the engine.
fn wait_cycle(processes: u16, edges: &[(u16, u16)]) -> bool {
    let n = processes as usize;
    let mut indeg = vec![0u32; n];
    let mut start = vec![0usize; n + 1];
    for &(a, b) in edges {
        start[a as usize + 1] += 1;
        indeg[b as usize] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut adj = vec![0u16; edges.len()];
    for &(a, b) in edges {
        adj[next[a as usize]] = b;
        next[a as usize] += 1;
    }
    let mut free: Vec<usize> = (0..n).filter(|&p| indeg[p] == 0).collect();
    let mut done = 0;
    while let Some(p) = free.pop() {
        done += 1;
        for &b in &adj[start[p]..start[p + 1]] {
            indeg[b as usize] -= 1;
            if indeg[b as usize] == 0 {
                free.push(b as usize);
            }
        }
    }
    done < n
}

fn add_engine(sum: &mut EngineStats, end: &EngineStats, base: &EngineStats) {
    sum.probes += end.probes - base.probes;
    sum.cache_hits += end.cache_hits - base.cache_hits;
    sum.delta_syncs += end.delta_syncs - base.delta_syncs;
    sum.deltas_applied += end.deltas_applied - base.deltas_applied;
    sum.full_rebuilds += end.full_rebuilds - base.full_rebuilds;
    sum.dense_reductions += end.dense_reductions - base.dense_reductions;
    sum.sparse_reductions += end.sparse_reductions - base.sparse_reductions;
}
