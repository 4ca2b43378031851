//! Seeded request generators, one per session.
//!
//! Every session owns its own random stream (derived from the run seed
//! and the session's index) and a client-side mirror of its state, so
//! the k-th request of a session is the same whatever order the closed
//! loop happens to interleave sessions in. That is what lets the oracle
//! regenerate a session's whole request sequence after the run instead
//! of storing it: replaying the generator against a fresh `Session` or
//! `Broker` reproduces every request and the reply the server owed it.
//!
//! * Detection sessions mirror the RAG's edges (owner per resource, the
//!   live request edges), which is enough to emit only edits the RAG
//!   accepts — no probe runs on the client.
//! * Avoidance sessions mirror through a reference [`Broker`]: broker
//!   decisions (granted, queued, parked, asked to give up) decide which
//!   commands a process may issue next, and only the broker knows them.

use std::time::Instant;

use deltaos_core::avoid::ReleaseOutcome;
use deltaos_core::par::ParConfig;
use deltaos_core::{Priority, ProcId, ResId};
use deltaos_service::{AvoidanceMode, Broker, Event, Request, Response, SessionId};

/// SplitMix64: tiny, seedable, and good enough to shape workloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `stream` under run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    ProbeLarge,
    AvoidDurable,
}

/// One session's dimensions and the edge counts its mirror steers to.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub resources: u16,
    pub processes: u16,
    /// Grant edges the random walk hovers around.
    pub grants: usize,
    /// Request edges the random walk hovers around.
    pub requests: usize,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wire-small" => Some(Workload::WireSmall),
            "probe-large" => Some(Workload::ProbeLarge),
            "avoid-durable" => Some(Workload::AvoidDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire-small",
            Workload::ProbeLarge => "probe-large",
            Workload::AvoidDurable => "avoid-durable",
        }
    }

    /// Requests kept outstanding on each of the two connections.
    pub fn depth(self) -> usize {
        match self {
            Workload::WireSmall | Workload::AvoidDurable => 32,
            Workload::ProbeLarge => 8,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::AvoidDurable
    }

    /// The sessions, in index order (session `i` is driven over
    /// connection `i % 2`).
    pub fn shapes(self) -> Vec<Shape> {
        let shape = |resources, processes, grants, requests| Shape {
            resources,
            processes,
            grants,
            requests,
        };
        match self {
            Workload::WireSmall => vec![shape(16, 16, 8, 20); 512],
            Workload::ProbeLarge => {
                // 16 dense 256² sessions (≈2% density, below the sparse
                // engine's area floor) and 2 sparse 1024² ones held near
                // 2‰, under the 4‰ sparse threshold.
                let mut v = vec![shape(256, 256, 160, 1100); 16];
                v.insert(5, shape(1024, 1024, 600, 1500));
                v.insert(12, shape(1024, 1024, 600, 1500));
                v
            }
            Workload::AvoidDurable => vec![shape(16, 16, 0, 0); 64],
        }
    }
}

/// What a generated request is, for the per-class ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Set-up traffic (preload batches, priorities).
    Setup,
    /// Detection batch with edits, ending in a probe.
    Edits,
    /// Probe-only poll of a session unchanged since its last probe.
    CleanPoll,
    /// A batch holding a single `WouldDeadlock`.
    WdOnly,
    /// Probe-only poll right after a `WdOnly` batch.
    PollAfterWd,
    /// Broker command: `Acquire`, `BrokerRelease` or `GiveUpAck`.
    Command,
}

/// One generated request and the ops it carries (events for detection,
/// commands for the broker).
pub struct Op {
    pub req: Request,
    pub ops: u32,
    pub class: Class,
}

/// A session's generator: detection or avoidance.
pub enum Gen {
    Detect(DetectGen),
    Avoid(Box<AvoidGen>),
}

impl Gen {
    pub fn new(workload: Workload, seed: u64, index: usize, shape: Shape) -> Gen {
        match workload {
            Workload::AvoidDurable => Gen::Avoid(Box::new(AvoidGen::new(seed, index, shape))),
            _ => Gen::Detect(DetectGen::new(workload, seed, index, shape)),
        }
    }

    /// The request that opens the session.
    pub fn open(&self) -> Request {
        match self {
            Gen::Detect(g) => Request::Open {
                resources: g.shape.resources,
                processes: g.shape.processes,
            },
            Gen::Avoid(g) => Request::OpenAvoid {
                resources: g.resources,
                processes: g.processes,
                mode: AvoidanceMode::FastPath,
            },
        }
    }

    /// Set-up requests that follow the open: the preload batch for
    /// detection, one `SetPriority` per process for avoidance.
    pub fn setup(&mut self, sid: SessionId) -> Vec<Op> {
        match self {
            Gen::Detect(g) => vec![g.preload(sid)],
            Gen::Avoid(g) => g.setup(sid).into_iter().map(|(op, _)| op).collect(),
        }
    }

    /// The session's next request, or `None` when it has nothing valid
    /// to send (an avoidance session whose processes are all blocked).
    pub fn next(&mut self, sid: SessionId) -> Option<Op> {
        match self {
            Gen::Detect(g) => Some(g.next(sid)),
            Gen::Avoid(g) => g.next(sid).map(|(op, _)| op),
        }
    }
}

const NONE: u16 = u16::MAX;
const ABSENT: u32 = u32::MAX;

/// Edge mirror of one detection session.
pub struct DetectGen {
    workload: Workload,
    rng: Rng,
    pub shape: Shape,
    /// Owner per resource (`NONE` when free).
    owner: Vec<u16>,
    /// Owned resources, for a uniform pick; `owned_at[q]` indexes it.
    owned: Vec<u16>,
    owned_at: Vec<u32>,
    /// Live request edges `(p, q)`; `req_at[q * processes + p]` indexes it.
    reqs: Vec<(u16, u16)>,
    req_at: Vec<u32>,
    /// The last batch was `WouldDeadlock`-only.
    after_wd: bool,
}

impl DetectGen {
    fn new(workload: Workload, seed: u64, index: usize, shape: Shape) -> DetectGen {
        let (r, p) = (shape.resources as usize, shape.processes as usize);
        DetectGen {
            workload,
            rng: Rng::new(seed, index as u64),
            shape,
            owner: vec![NONE; r],
            owned: Vec::new(),
            owned_at: vec![ABSENT; r],
            reqs: Vec::new(),
            req_at: vec![ABSENT; r * p],
            after_wd: false,
        }
    }

    fn slot(&self, p: u16, q: u16) -> usize {
        q as usize * self.shape.processes as usize + p as usize
    }

    fn add_req(&mut self, p: u16, q: u16) {
        let s = self.slot(p, q);
        self.req_at[s] = self.reqs.len() as u32;
        self.reqs.push((p, q));
    }

    fn remove_req(&mut self, p: u16, q: u16) {
        let s = self.slot(p, q);
        let at = self.req_at[s];
        if at == ABSENT {
            return;
        }
        self.req_at[s] = ABSENT;
        self.reqs.swap_remove(at as usize);
        if let Some(&(mp, mq)) = self.reqs.get(at as usize) {
            let moved = self.slot(mp, mq);
            self.req_at[moved] = at;
        }
    }

    /// A random `(p, q)` the RAG would accept as a new request edge.
    fn free_pair(&mut self) -> Option<(u16, u16)> {
        for _ in 0..32 {
            let p = self.rng.below(self.shape.processes as usize) as u16;
            let q = self.rng.below(self.shape.resources as usize) as u16;
            if self.owner[q as usize] != p && self.req_at[self.slot(p, q)] == ABSENT {
                return Some((p, q));
            }
        }
        None
    }

    fn grant_edit(&mut self) -> Option<Event> {
        let add = self.rng.below(2 * self.shape.grants.max(1)) >= self.owned.len();
        if add {
            for _ in 0..32 {
                let q = self.rng.below(self.shape.resources as usize) as u16;
                if self.owner[q as usize] == NONE {
                    let p = self.rng.below(self.shape.processes as usize) as u16;
                    // A grant consumes p's pending request on q, if any.
                    self.remove_req(p, q);
                    self.owner[q as usize] = p;
                    self.owned_at[q as usize] = self.owned.len() as u32;
                    self.owned.push(q);
                    return Some(Event::Grant {
                        q: ResId(q),
                        p: ProcId(p),
                    });
                }
            }
        }
        if self.owned.is_empty() {
            return None;
        }
        let at = self.rng.below(self.owned.len());
        let q = self.owned.swap_remove(at);
        if let Some(&moved) = self.owned.get(at) {
            self.owned_at[moved as usize] = at as u32;
        }
        self.owned_at[q as usize] = ABSENT;
        let p = std::mem::replace(&mut self.owner[q as usize], NONE);
        Some(Event::Release {
            q: ResId(q),
            p: ProcId(p),
        })
    }

    fn request_edit(&mut self) -> Option<Event> {
        let add = self.rng.below(2 * self.shape.requests.max(1)) >= self.reqs.len();
        if add {
            if let Some((p, q)) = self.free_pair() {
                self.add_req(p, q);
                return Some(Event::Request {
                    p: ProcId(p),
                    q: ResId(q),
                });
            }
        }
        if self.reqs.is_empty() {
            return None;
        }
        let (p, q) = self.reqs[self.rng.below(self.reqs.len())];
        self.remove_req(p, q);
        // p requests q, so p is not q's owner: the release withdraws
        // the request edge.
        Some(Event::Release {
            q: ResId(q),
            p: ProcId(p),
        })
    }

    fn edit(&mut self) -> Event {
        loop {
            let e = if self.rng.percent(50) {
                self.grant_edit()
            } else {
                self.request_edit()
            };
            if let Some(e) = e {
                return e;
            }
        }
    }

    fn would_deadlock(&mut self) -> Event {
        match self.free_pair() {
            Some((p, q)) => Event::WouldDeadlock {
                p: ProcId(p),
                q: ResId(q),
            },
            None => Event::Probe,
        }
    }

    /// The wait-for edges `p → owner(q)` of the mirrored graph, plus
    /// those of the tentative request `extra`.
    pub fn wait_edges(&self, extra: Option<(ProcId, ResId)>) -> Vec<(u16, u16)> {
        let extra = extra.map(|(p, q)| (p.0, q.0));
        self.reqs
            .iter()
            .chain(extra.iter())
            .filter_map(|&(p, q)| {
                let owner = self.owner[q as usize];
                (owner != NONE).then_some((p, owner))
            })
            .collect()
    }

    /// Brings the session to its target edge counts, then probes once
    /// so the engine's mirror and result cache are warm.
    pub fn preload(&mut self, sid: SessionId) -> Op {
        let mut events = Vec::new();
        while self.owned.len() < self.shape.grants {
            let q = self.rng.below(self.shape.resources as usize) as u16;
            if self.owner[q as usize] == NONE {
                let p = self.rng.below(self.shape.processes as usize) as u16;
                self.owner[q as usize] = p;
                self.owned_at[q as usize] = self.owned.len() as u32;
                self.owned.push(q);
                events.push(Event::Grant {
                    q: ResId(q),
                    p: ProcId(p),
                });
            }
        }
        while self.reqs.len() < self.shape.requests {
            if let Some((p, q)) = self.free_pair() {
                self.add_req(p, q);
                events.push(Event::Request {
                    p: ProcId(p),
                    q: ResId(q),
                });
            }
        }
        events.push(Event::Probe);
        Op {
            ops: events.len() as u32,
            req: Request::Batch {
                session: sid,
                events,
            },
            class: Class::Setup,
        }
    }

    pub fn next(&mut self, sid: SessionId) -> Op {
        let (events, class) = match self.workload {
            Workload::WireSmall => {
                let mut events: Vec<Event> = (0..7).map(|_| self.edit()).collect();
                events.push(if self.rng.percent(75) {
                    Event::Probe
                } else {
                    self.would_deadlock()
                });
                (events, Class::Edits)
            }
            _ if self.after_wd => {
                self.after_wd = false;
                (vec![Event::Probe], Class::PollAfterWd)
            }
            _ => match self.rng.below(100) {
                0..=24 => (vec![Event::Probe], Class::CleanPoll),
                25..=34 => {
                    self.after_wd = true;
                    (vec![self.would_deadlock()], Class::WdOnly)
                }
                _ => {
                    let n = 1 + self.rng.below(3);
                    let mut events: Vec<Event> = (0..n).map(|_| self.edit()).collect();
                    events.push(Event::Probe);
                    (events, Class::Edits)
                }
            },
        };
        Op {
            ops: events.len() as u32,
            req: Request::Batch {
                session: sid,
                events,
            },
            class,
        }
    }
}

/// A broker command before it is bound to a session id.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    SetPriority(u16),
    Acquire(u16, u16),
    Release(u16, u16),
    GiveUpAck(u16),
}

/// Wall time spent in reference-broker calls, per command kind; filled
/// only while the oracle replays a traced run.
#[derive(Debug, Default)]
pub struct BrokerTimes {
    pub acquire_ns: Vec<u64>,
    pub release_ns: Vec<u64>,
    pub give_up_ns: Vec<u64>,
}

/// Broker mirror of one avoidance session: a reference [`Broker`] plus
/// the lock discipline of the tasks behind it. A process blocked on an
/// acquire issues nothing until granted, except the `GiveUpAck` it was
/// asked for; a running process releases what it holds or acquires
/// something new.
pub struct AvoidGen {
    rng: Rng,
    resources: u16,
    processes: u16,
    pub broker: Broker,
    /// Per process: the resource its last acquire is queued or parked on.
    waiting: Vec<Option<u16>>,
    /// Per process: a give-up ask naming it is outstanding.
    asked: Vec<bool>,
    pub times: Option<BrokerTimes>,
}

impl AvoidGen {
    fn new(seed: u64, index: usize, shape: Shape) -> AvoidGen {
        let (r, p) = (shape.resources, shape.processes);
        AvoidGen {
            rng: Rng::new(seed, index as u64),
            resources: r,
            processes: p,
            broker: Broker::new(r, p, false, None, ParConfig::default()),
            waiting: vec![None; p as usize],
            asked: vec![false; p as usize],
            times: None,
        }
    }

    /// One `SetPriority` per process, with the replies owed.
    pub fn setup(&mut self, sid: SessionId) -> Vec<(Op, Response)> {
        (0..self.processes)
            .map(|p| {
                let cmd = Cmd::SetPriority(p);
                let resp = self.apply(cmd);
                (self.op(sid, cmd), resp)
            })
            .collect()
    }

    fn op(&self, sid: SessionId, cmd: Cmd) -> Op {
        let (req, class) = match cmd {
            Cmd::SetPriority(p) => (
                Request::SetPriority {
                    session: sid,
                    p: ProcId(p),
                    priority: Self::priority(p),
                },
                Class::Setup,
            ),
            Cmd::Acquire(p, q) => (
                Request::Acquire {
                    session: sid,
                    p: ProcId(p),
                    q: ResId(q),
                    wait: false,
                },
                Class::Command,
            ),
            Cmd::Release(p, q) => (
                Request::BrokerRelease {
                    session: sid,
                    p: ProcId(p),
                    q: ResId(q),
                },
                Class::Command,
            ),
            Cmd::GiveUpAck(p) => (
                Request::GiveUpAck {
                    session: sid,
                    p: ProcId(p),
                },
                Class::Command,
            ),
        };
        Op { req, ops: 1, class }
    }

    /// Distinct priorities, so R-dl arbitration has a strict order.
    fn priority(p: u16) -> Priority {
        Priority::new((p % 200) as u8)
    }

    /// Runs `cmd` on the reference broker and folds its decision into
    /// the discipline state.
    fn apply(&mut self, cmd: Cmd) -> Response {
        let t0 = self.times.as_ref().map(|_| Instant::now());
        let resp = match cmd {
            Cmd::SetPriority(p) => self.broker.set_priority(ProcId(p), Self::priority(p)),
            Cmd::Acquire(p, q) => self.broker.acquire(ProcId(p), ResId(q)).0,
            Cmd::Release(p, q) => self.broker.release(ProcId(p), ResId(q)).0,
            Cmd::GiveUpAck(p) => self.broker.give_up_ack(ProcId(p)).0,
        };
        if let (Some(t0), Some(times)) = (t0, self.times.as_mut()) {
            let ns = t0.elapsed().as_nanos() as u64;
            if !matches!(resp, Response::Rejected(_)) {
                match cmd {
                    Cmd::Acquire(..) => times.acquire_ns.push(ns),
                    Cmd::Release(..) => times.release_ns.push(ns),
                    Cmd::GiveUpAck(_) => times.give_up_ns.push(ns),
                    Cmd::SetPriority(_) => {}
                }
            }
        }
        match (&cmd, &resp) {
            (Cmd::Acquire(p, q), Response::Deferred { .. }) => self.waiting[*p as usize] = Some(*q),
            (Cmd::Acquire(p, q), Response::GiveUp { ask, .. }) => {
                self.waiting[*p as usize] = Some(*q);
                self.asked[ask.target.index()] = true;
            }
            (Cmd::GiveUpAck(p), _) => self.asked[*p as usize] = false,
            _ => {}
        }
        if let Response::Resolved {
            outcome: ReleaseOutcome::Livelock { ask: Some(ask) },
            ..
        } = &resp
        {
            self.asked[ask.target.index()] = true;
        }
        resp
    }

    /// Clears `p`'s wait once the broker granted (or dropped) it.
    fn refresh(&mut self, p: u16) {
        if let Some(q) = self.waiting[p as usize] {
            let granted = self.broker.rag().owner(ResId(q)) == Some(ProcId(p));
            if granted || !self.broker.is_waiting(ProcId(p), ResId(q)) {
                self.waiting[p as usize] = None;
            }
        }
    }

    /// A command for the first process, from a random start, that the
    /// discipline lets act; `None` when every process is blocked.
    fn propose(&mut self) -> Option<Cmd> {
        let n = self.processes as usize;
        let first = self.rng.below(n);
        for k in 0..n {
            let p = ((first + k) % n) as u16;
            self.refresh(p);
            if self.asked[p as usize] {
                return Some(Cmd::GiveUpAck(p));
            }
            if self.waiting[p as usize].is_some() {
                continue;
            }
            let held = self.broker.rag().held_by(ProcId(p));
            if !held.is_empty() && (held.len() >= 2 || self.rng.percent(50)) {
                return Some(Cmd::Release(p, held[self.rng.below(held.len())].0));
            }
            // p holds at most one resource here; step past it.
            let mut q = self.rng.below(self.resources as usize) as u16;
            if self.broker.rag().owner(ResId(q)) == Some(ProcId(p)) {
                q = (q + 1) % self.resources;
            }
            return Some(Cmd::Acquire(p, q));
        }
        None
    }

    /// The next command the mirror accepts, with the reply the server
    /// owes it. Proposals the reference broker rejects change no state
    /// and are never sent. `None` means the session is stuck for good:
    /// only its own commands could change its state.
    pub fn next(&mut self, sid: SessionId) -> Option<(Op, Response)> {
        for _ in 0..4 * self.processes as usize {
            let Some(cmd) = self.propose() else {
                // Asks can be raised by commands whose replies do not
                // carry them; resync from the broker's own ledger.
                if self.resync_asks() {
                    continue;
                }
                return None;
            };
            let resp = self.apply(cmd);
            if !matches!(resp, Response::Rejected(_)) {
                return Some((self.op(sid, cmd), resp));
            }
        }
        None
    }

    /// Flags every process an outstanding ask names; `true` if any flag
    /// was new.
    fn resync_asks(&mut self) -> bool {
        let mut new = false;
        if let Some(b) = self.broker.snapshot(0).broker {
            for ask in b.outstanding {
                new |= !std::mem::replace(&mut self.asked[ask.target.index()], true);
            }
        }
        new
    }
}
