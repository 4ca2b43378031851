//! The service runtime: N pinned per-core loops, each owning a set of
//! shards and running them inline, behind one TCP acceptor and an
//! in-process [`Client`].
//!
//! The paper moves the deadlock unit next to the processors it serves,
//! so no request crosses between components to reach it. The runtime
//! does the same in software: each loop *owns* a set of shards
//! (`ShardCore`s) and runs their `DetectEngine`s, broker waiter tables
//! and durability logging **inline** on the loop thread. A request whose
//! session lives on the serving loop is decoded, executed and answered
//! without any cross-thread hand-off; there is no request queue and no
//! poll tick of any kind.
//!
//! Routing follows shard ownership (`session_id % shards`, shard `s`
//! owned by loop `s % loops`):
//!
//! * **Connection migration (fd hand-off)** — at `Open`/`OpenAvoid`/
//!   `Restore` the connection's *affinity* becomes the owning loop of
//!   the newly opened session. Once the connection is quiescent (no
//!   pending replies, no write backlog) it is handed over wholesale —
//!   socket, read buffer, counters — to that loop, making subsequent
//!   requests same-core. The quiescence requirement guarantees no
//!   in-flight completion can target the old loop.
//! * **Cross-core forwarding** — the minority of requests whose session
//!   lives elsewhere (multi-session connections, traffic racing ahead
//!   of migration, every in-process [`Client`] call) is forwarded over
//!   a per-core inbox; the owning loop executes inline and sends the
//!   reply back the same way. Every enqueue writes one byte to the
//!   receiving loop's self-pipe, so loops block in `poll(2)` with **no
//!   timeout** and are woken exactly when work arrives
//!   ([`CoreStats::busy_poll_ticks`] asserts it).
//!
//! Per connection the loop does incremental zero-copy framing, request
//! pipelining with submission-order replies, in-band [`Response::Busy`]
//! past [`CoreConfig::max_pipeline`], coalesced writes, and idle /
//! slow-loris reaping. Broker grants for blocked acquires are pushed to
//! whichever connection or client parked them; with durability every
//! mutation is written ahead, replies wait out the group commit under
//! [`deltaos_store::FsyncPolicy::Pipelined`], and the WAL is compacted
//! into a checkpoint every
//! [`DurabilityConfig::checkpoint_every_records`] records.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deltaos_core::par;
use deltaos_sim::Stats;

use crate::durable::{DurabilityConfig, RecoveryInfo};
use crate::proto::{
    decode_request, encode_response_into, AvoidanceMode, CoreStats, ErrorCode, Event,
    FrontendStats, Request, Response, SessionId, WireError, MAX_FRAME,
};
use crate::shard::{BrokerCmd, ServiceError, ShardCore};
use crate::tcp::stats_rows;

/// Raw `poll(2)` binding — the only non-std surface this crate touches,
/// and still libc-free: std already links the platform C library, so a
/// direct `extern "C"` declaration suffices.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};

    #[cfg(target_os = "macos")]
    type Nfds = u32;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// `struct pollfd` — identical layout on every supported unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses (`-1` waits
    /// forever), retrying on `EINTR`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Bytes asked of the socket per `read(2)` when filling a frame buffer.
const READ_CHUNK: usize = 64 * 1024;

/// Monotonic transport counters, shared by the acceptor and every loop.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    closed: AtomicU64,
    reaped_idle: AtomicU64,
    reaped_partial: AtomicU64,
    desynced: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    busy_replies: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl Counters {
    /// Snapshot as the wire-visible [`FrontendStats`] (also served
    /// in-band through the `Stats` response).
    fn snapshot(&self) -> FrontendStats {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let closed = self.closed.load(Ordering::Relaxed);
        FrontendStats {
            accepted,
            active: accepted.saturating_sub(closed),
            closed,
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            reaped_partial: self.reaped_partial.load(Ordering::Relaxed),
            desynced: self.desynced.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            replies_out: self.replies_out.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Incremental reassembly over a growable buffer: bytes land at the
/// tail, complete frames are consumed from `pos`, and [`compact`]
/// reclaims the consumed prefix between poll iterations. The buffer
/// owns the bytes; frame payloads are borrowed slices of it — no
/// per-frame allocation or copy.
///
/// [`compact`]: FrameBuf::compact
#[derive(Debug, Default)]
struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// What one readable event yielded.
enum ReadOutcome {
    /// Bytes appended (possibly 0 if the socket was already drained);
    /// `true` when the peer also half-closed.
    Progress(usize, bool),
    /// Transport error; the connection is unusable.
    Broken,
}

impl FrameBuf {
    /// Appends raw bytes (test seam; the live path reads straight from
    /// the socket via [`FrameBuf::fill_from`]).
    #[cfg(test)]
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads from `stream` until it would block (or EOF/error),
    /// appending to the tail.
    fn fill_from(&mut self, stream: &mut TcpStream) -> ReadOutcome {
        let mut total = 0usize;
        loop {
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            match stream.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    return ReadOutcome::Progress(total, true);
                }
                Ok(n) => {
                    self.buf.truncate(old + n);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.buf.truncate(old);
                    return ReadOutcome::Progress(total, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.buf.truncate(old);
                }
                Err(_) => {
                    self.buf.truncate(old);
                    return ReadOutcome::Broken;
                }
            }
        }
    }

    /// Pops the next complete frame as a payload range into the buffer,
    /// `Ok(None)` while the head frame is still partial.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the length prefix exceeds
    /// [`MAX_FRAME`] — framing is lost and the stream must be dropped.
    fn next_frame(&mut self) -> Result<Option<(usize, usize)>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let prefix: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len: len as u64 });
        }
        if avail - 4 < len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some((start, start + len)))
    }

    /// The payload bytes of a range returned by [`FrameBuf::next_frame`].
    fn slice(&self, (a, b): (usize, usize)) -> &[u8] {
        &self.buf[a..b]
    }

    /// Drops the consumed prefix so the buffer only holds the (at most
    /// one) partial frame at its head.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos.., 0);
            let keep = self.buf.len() - self.pos;
            self.buf.truncate(keep);
            self.pos = 0;
        }
    }

    /// `true` while an incomplete frame (or stray bytes) sits in the
    /// buffer — the state the slow-loris deadline polices.
    fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

/// Runtime construction parameters: loop and shard topology, per-shard
/// admission control, durability, and the per-connection transport
/// limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Pinned loop threads; `0` auto-sizes to the host CPUs (1..=8).
    pub loops: usize,
    /// Shards (deadlock units); `0` matches the resolved loop count.
    /// Sessions pin by `session_id % shards`, shard `s` lives on loop
    /// `s % loops`.
    pub shards: usize,
    /// Admission control: maximum live sessions per shard.
    pub max_sessions_per_shard: usize,
    /// Admission control: maximum events per batch.
    pub max_batch: usize,
    /// Admission control: maximum session dimension (rows or columns).
    pub max_dim: u16,
    /// Pin loop `i` to CPU `i` (a placement hint, like everywhere else).
    pub pin_cpus: bool,
    /// Durability: per-shard WAL + checkpoints, recovered before the
    /// acceptor starts.
    pub durability: Option<DurabilityConfig>,
    /// Start every shard as a read-only replica: mutations answer
    /// `ReadOnlyReplica` and state advances only through
    /// [`Client::repl_apply`] feeding it a primary's WAL records, until
    /// a `Promote` under a strictly larger epoch lands.
    pub replica: bool,
    /// Maximum in-flight requests per connection; overflow answers
    /// [`Response::Busy`] in-band.
    pub max_pipeline: usize,
    /// Write-backlog bytes at which the loop stops reading from a
    /// connection.
    pub max_write_buf: usize,
    /// Idle-connection reap timeout.
    pub idle_timeout: Duration,
    /// Partial-frame (slow-loris) reap deadline.
    pub partial_frame_deadline: Duration,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            loops: 1,
            shards: 0,
            max_sessions_per_shard: 1024,
            max_batch: crate::proto::MAX_BATCH,
            max_dim: 4096,
            pin_cpus: false,
            durability: None,
            replica: false,
            max_pipeline: 64,
            max_write_buf: 256 * 1024,
            idle_timeout: Duration::from_secs(60),
            partial_frame_deadline: Duration::from_secs(10),
        }
    }
}

impl CoreConfig {
    /// One pinned loop per host CPU (1..=8), shards matching.
    pub fn auto_sized() -> CoreConfig {
        CoreConfig {
            loops: par::host_cpus().clamp(1, 8),
            pin_cpus: true,
            ..CoreConfig::default()
        }
    }

    /// The loop-thread count `bind` will spawn.
    pub fn resolved_loops(&self) -> usize {
        if self.loops > 0 {
            self.loops
        } else {
            par::host_cpus().clamp(1, 8)
        }
    }

    /// The shard count `bind` will create.
    pub fn resolved_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            self.resolved_loops()
        }
    }
}

/// Per-loop monotonic counters, readable from any thread (the `Stats`
/// op snapshots all loops from whichever loop serves it).
#[derive(Default)]
struct LoopCounters {
    conns: AtomicU64,
    frames_in: AtomicU64,
    replies_out: AtomicU64,
    inline_ops: AtomicU64,
    cross_core_forwards: AtomicU64,
    migrations_in: AtomicU64,
    wakeups: AtomicU64,
    busy_poll_ticks: AtomicU64,
}

fn core_stats_snapshot(per_loop: &[LoopCounters]) -> Vec<CoreStats> {
    per_loop
        .iter()
        .enumerate()
        .map(|(i, lc)| CoreStats {
            core: i as u16,
            conns: lc.conns.load(Ordering::Relaxed),
            frames_in: lc.frames_in.load(Ordering::Relaxed),
            replies_out: lc.replies_out.load(Ordering::Relaxed),
            inline_ops: lc.inline_ops.load(Ordering::Relaxed),
            cross_core_forwards: lc.cross_core_forwards.load(Ordering::Relaxed),
            migrations_in: lc.migrations_in.load(Ordering::Relaxed),
            wakeups: lc.wakeups.load(Ordering::Relaxed),
            busy_poll_ticks: lc.busy_poll_ticks.load(Ordering::Relaxed),
        })
        .collect()
}

/// Addresses one request read from a connection: the loop housing the
/// connection, the connection, and the request's per-connection
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ticket {
    home: usize,
    conn: u64,
    seq: u64,
}

/// Where a request's reply goes. [`ShardCore`] parks these for blocked
/// acquires and the group commit withholds them; delivery routes by
/// variant.
pub(crate) enum ReplySlot {
    /// A connection's request: routed back by loop + connection + seq.
    Conn(Ticket),
    /// An in-process [`Client`] call, answered over its own channel.
    Local(Sender<Response>),
}

/// A session operation, executable on whichever loop owns the shard.
enum ExecJob {
    Open {
        session: SessionId,
        resources: u16,
        processes: u16,
    },
    OpenAvoid {
        session: SessionId,
        resources: u16,
        processes: u16,
        mode: AvoidanceMode,
    },
    Batch {
        session: SessionId,
        events: Vec<Event>,
    },
    Close {
        session: SessionId,
    },
    Snapshot {
        session: SessionId,
    },
    Restore {
        session: SessionId,
        snapshot: Vec<u8>,
    },
    Broker {
        session: SessionId,
        cmd: BrokerCmd,
    },
    /// Client-forced durability barrier: fsync the owning shard's WAL,
    /// release its withheld replies, answer the durable frontier. The
    /// session is a routing key only.
    Sync {
        session: SessionId,
    },
    /// Replication poll against the shard `session` routes to (the
    /// shard-addressed ops reuse session routing with
    /// `session = shard`, which pins to exactly that shard).
    Subscribe {
        session: SessionId,
        from_seq: u64,
        acked_seq: u64,
    },
    /// Replication posture read; `session = shard`, as above.
    ReplicaStatus {
        session: SessionId,
    },
    /// Failover promotion; `session = shard`, as above.
    Promote {
        session: SessionId,
        epoch: u64,
    },
    /// Follower ingest of a primary's WAL records; `session = shard`,
    /// as above. In-process only ([`Client::repl_apply`]).
    ReplApply {
        session: SessionId,
        records: Vec<(u64, u64, Vec<u8>)>,
    },
}

impl ExecJob {
    fn session(&self) -> SessionId {
        match self {
            ExecJob::Open { session, .. }
            | ExecJob::OpenAvoid { session, .. }
            | ExecJob::Batch { session, .. }
            | ExecJob::Close { session }
            | ExecJob::Snapshot { session }
            | ExecJob::Restore { session, .. }
            | ExecJob::Broker { session, .. }
            | ExecJob::Sync { session }
            | ExecJob::Subscribe { session, .. }
            | ExecJob::ReplicaStatus { session }
            | ExecJob::Promote { session, .. }
            | ExecJob::ReplApply { session, .. } => *session,
        }
    }

    /// `true` for the ops that allocate a session id: the connection's
    /// affinity follows the new session.
    fn opens(&self) -> bool {
        matches!(
            self,
            ExecJob::Open { .. } | ExecJob::OpenAvoid { .. } | ExecJob::Restore { .. }
        )
    }
}

/// Inter-loop message. Every send is paired with one byte down the
/// receiving loop's self-pipe, so the receiver is always *woken*, never
/// polled for.
enum CoreMsg {
    /// A freshly accepted socket from the acceptor (round-robin).
    Accept(TcpStream),
    /// A quiescent connection handed over to its affine loop.
    Migrate(Box<CConn>),
    /// Run a session operation on the shard this loop owns and deliver
    /// the reply to `slot`.
    Exec { slot: ReplySlot, job: ExecJob },
    /// A completed reply for a request this loop houses.
    Done { conn: u64, seq: u64, resp: Response },
    /// Collect this loop's shard rows for a `Stats` request.
    StatsAsk { ticket: Ticket },
    /// The rows answering a [`CoreMsg::StatsAsk`].
    StatsReply {
        conn: u64,
        seq: u64,
        from: usize,
        rows: Vec<Stats>,
    },
    /// Send this loop's shard rows to an in-process caller.
    Rows(Sender<Vec<Stats>>),
}

/// One submitted-but-unanswered request, in submission order.
enum Slot {
    /// Answer known (in-band error, `Busy`, or a delivered completion).
    Ready(Response),
    /// Executing on another loop, or parked in a broker waiter table.
    Wait,
    /// A `Stats` fan-out: per-loop shard rows, filled as replies arrive.
    Stats(Vec<Option<Vec<Stats>>>),
}

/// Per-connection state: framing, write coalescing, reap bookkeeping,
/// and the pending FIFO of [`Slot`]s keyed by sequence number —
/// completions arrive as messages, never by polling.
struct CConn {
    id: u64,
    stream: TcpStream,
    rbuf: FrameBuf,
    wbuf: Vec<u8>,
    wpos: usize,
    next_seq: u64,
    pending: VecDeque<(u64, Slot)>,
    /// The loop this connection should live on: the owner of its most
    /// recently opened session. Migration happens at quiescence.
    affine: usize,
    last_activity: Instant,
    partial_since: Option<Instant>,
    peer_closed: bool,
    dead: bool,
}

impl CConn {
    fn new(id: u64, stream: TcpStream, home: usize, now: Instant) -> CConn {
        CConn {
            id,
            stream,
            rbuf: FrameBuf::default(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            affine: home,
            last_activity: now,
            partial_since: None,
            peer_closed: false,
            dead: false,
        }
    }

    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Appends one length-prefixed response frame to the write buffer.
    fn push_response(&mut self, resp: &Response, counters: &Counters, lc: &LoopCounters) {
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0u8; 4]);
        encode_response_into(resp, &mut self.wbuf);
        let len = self.wbuf.len() - at - 4;
        debug_assert!(len <= MAX_FRAME, "server response exceeds MAX_FRAME");
        self.wbuf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
        counters.replies_out.fetch_add(1, Ordering::Relaxed);
        lc.replies_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves completed replies, in submission order, into the write
    /// buffer — stopping at the first slot still waiting, which is what
    /// keeps pipelined responses positionally matched.
    fn pump_replies(&mut self, counters: &Counters, lc: &LoopCounters) {
        while let Some((_, Slot::Ready(_))) = self.pending.front() {
            let Some((_, Slot::Ready(resp))) = self.pending.pop_front() else {
                unreachable!("front was Ready");
            };
            self.push_response(&resp, counters, lc);
        }
    }

    /// Writes as much backlog as the socket accepts (coalesced replies).
    fn flush(&mut self, counters: &Counters) {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                    counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= READ_CHUNK {
            self.wbuf.copy_within(self.wpos.., 0);
            let keep = self.wbuf.len() - self.wpos;
            self.wbuf.truncate(keep);
            self.wpos = 0;
        }
        if progressed {
            self.last_activity = Instant::now();
        }
    }
}

/// What every loop, the acceptor and every in-process [`Client`] share:
/// the per-loop inboxes and their self-pipe wakes, the session-id
/// allocator, the transport counters and the routing constants.
#[derive(Clone)]
struct Mesh {
    inboxes: Vec<Sender<CoreMsg>>,
    wakes: Arc<Vec<UnixStream>>,
    next_session: Arc<AtomicU64>,
    counters: Arc<Counters>,
    loop_counters: Arc<Vec<LoopCounters>>,
    loops: usize,
    shards_total: usize,
    max_dim: u16,
    max_batch: usize,
}

impl Mesh {
    /// The loop owning `session`'s shard.
    fn owner(&self, session: SessionId) -> usize {
        (session.0 % self.shards_total as u64) as usize % self.loops
    }

    /// Sends `msg` to loop `target` and wakes it. Fails only after stop,
    /// when the receiving loop has already exited.
    fn send_to(&self, target: usize, msg: CoreMsg) -> bool {
        if self.inboxes[target].send(msg).is_err() {
            return false;
        }
        let _ = (&self.wakes[target]).write(&[1]);
        true
    }

    /// Every shard's counter rows, shard order, gathered from every
    /// loop. `None` once the runtime stopped. Blocks: never call it from
    /// a loop thread.
    fn shard_rows(&self) -> Option<Vec<Stats>> {
        let (tx, rx) = mpsc::channel();
        for target in 0..self.loops {
            if !self.send_to(target, CoreMsg::Rows(tx.clone())) {
                return None;
            }
        }
        drop(tx);
        let mut rows = Vec::new();
        for _ in 0..self.loops {
            rows.extend(rx.recv().ok()?);
        }
        rows.sort_by_key(|s| s.counter("service.shard_id"));
        Some(rows)
    }

    /// The wire `Stats` response over `rows` (already in shard order).
    fn stats_response(&self, rows: &[Stats]) -> Response {
        Response::Stats {
            shards: stats_rows(rows),
            frontend: Some(self.counters.snapshot()),
            cores: core_stats_snapshot(&self.loop_counters),
        }
    }

    /// Validates a session request and binds it to an [`ExecJob`];
    /// admission failures come back as in-band error responses. Opens
    /// allocate the session id here, on the submitting side.
    fn to_job(&self, req: Request) -> Result<ExecJob, Box<Response>> {
        let dims_ok = |r: u16, p: u16| r != 0 && p != 0 && r <= self.max_dim && p <= self.max_dim;
        let alloc = || SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
        let shard = |shard: u16| {
            if (shard as usize) < self.shards_total {
                Ok(SessionId(shard as u64))
            } else {
                Err(Box::new(error_response(ServiceError::UnknownSession)))
            }
        };
        Ok(match req {
            Request::Open {
                resources,
                processes,
            } => {
                if !dims_ok(resources, processes) {
                    return Err(Box::new(error_response(ServiceError::BadDimensions)));
                }
                ExecJob::Open {
                    session: alloc(),
                    resources,
                    processes,
                }
            }
            Request::OpenAvoid {
                resources,
                processes,
                mode,
            } => {
                if !dims_ok(resources, processes) {
                    return Err(Box::new(error_response(ServiceError::BadDimensions)));
                }
                ExecJob::OpenAvoid {
                    session: alloc(),
                    resources,
                    processes,
                    mode,
                }
            }
            Request::Batch { session, events } => {
                if events.len() > self.max_batch {
                    return Err(Box::new(error_response(ServiceError::BatchTooLarge)));
                }
                ExecJob::Batch { session, events }
            }
            Request::Close { session } => ExecJob::Close { session },
            Request::Snapshot { session } => ExecJob::Snapshot { session },
            Request::Restore { snapshot } => ExecJob::Restore {
                session: alloc(),
                snapshot,
            },
            Request::SetPriority {
                session,
                p,
                priority,
            } => ExecJob::Broker {
                session,
                cmd: BrokerCmd::SetPriority { p, priority },
            },
            Request::Acquire {
                session,
                p,
                q,
                wait,
            } => ExecJob::Broker {
                session,
                cmd: BrokerCmd::Acquire { p, q, wait },
            },
            Request::BrokerRelease { session, p, q } => ExecJob::Broker {
                session,
                cmd: BrokerCmd::Release { p, q },
            },
            Request::GiveUpAck { session, p } => ExecJob::Broker {
                session,
                cmd: BrokerCmd::GiveUpAck { p },
            },
            Request::Sync { session } => ExecJob::Sync { session },
            // Shard-addressed replication ops ride session routing with
            // `session = shard`: `shard % shards_total == shard`, so the
            // job lands on exactly the named shard's owning loop.
            Request::Subscribe {
                shard: s,
                from_seq,
                acked_seq,
            } => ExecJob::Subscribe {
                session: shard(s)?,
                from_seq,
                acked_seq,
            },
            Request::ReplicaStatus { shard: s } => ExecJob::ReplicaStatus { session: shard(s)? },
            Request::Promote { shard: s, epoch } => ExecJob::Promote {
                session: shard(s)?,
                epoch,
            },
            // Handled by the callers before `to_job` (it fans out, it
            // does not execute on a single shard).
            Request::Stats => unreachable!("Stats is routed before to_job"),
        })
    }
}

/// Everything a loop owns besides its connections — split so borrow
/// scopes stay honest while one connection is being served.
struct LoopEnv {
    me: usize,
    cfg: CoreConfig,
    mesh: Mesh,
    /// The shards this loop owns (`shard % loops == me`), run inline.
    shards: HashMap<usize, ShardCore>,
    /// Completed replies for locally housed requests, applied between
    /// borrow scopes (an inline broker command can complete requests of
    /// *other* connections on this same loop).
    deliveries: Vec<(u64, u64, Response)>,
    /// Cross-core requests this loop has sent and not yet seen answered
    /// — the "work in flight" half of the busy-tick assertion.
    cross_outstanding: usize,
    /// Under `FsyncPolicy::Pipelined` (or follower-ack gating): per owned
    /// shard, replies whose LSN is appended but not yet releasable, in
    /// submission order as `(lsn, appended-at, slot, response)`.
    /// Released by [`LoopEnv::release_shard`] once the release floor
    /// covers them.
    withheld: HashMap<usize, VecDeque<(u64, Instant, ReplySlot, Response)>>,
}

impl LoopEnv {
    fn lc(&self) -> &LoopCounters {
        &self.mesh.loop_counters[self.me]
    }

    fn shard_of(&self, session: SessionId) -> usize {
        (session.0 % self.mesh.shards_total as u64) as usize
    }

    /// Parks a reply until `lsn` is releasable on `shard`, or delivers it
    /// right away when the op carried no withhold LSN (non-pipelined
    /// policy, read-only op, broker re-attach).
    fn deliver_or_withhold(
        &mut self,
        shard: usize,
        lsn: Option<u64>,
        slot: ReplySlot,
        resp: Response,
    ) {
        match lsn {
            Some(lsn) => {
                let q = self.withheld.entry(shard).or_default();
                q.push_back((lsn, Instant::now(), slot, resp));
                let depth = q.len() as u64;
                if let Some(core) = self.shards.get_mut(&shard) {
                    core.pipeline.on_withheld(depth);
                }
            }
            None => self.deliver(slot, resp),
        }
    }

    /// Delivers the withheld replies `shard`'s release floor (durable
    /// frontier, clamped to the follower ack under `repl_ack`) now
    /// covers, in submission order.
    fn release_shard(&mut self, shard: usize) {
        let durable = match self.shards.get(&shard) {
            Some(core) => core.release_floor(),
            None => return,
        };
        let Some(q) = self.withheld.get_mut(&shard) else {
            return;
        };
        let now = Instant::now();
        let mut released = Vec::new();
        while q.front().is_some_and(|(lsn, _, _, _)| *lsn <= durable) {
            released.push(q.pop_front().expect("checked front"));
        }
        if released.is_empty() {
            return;
        }
        if let Some(core) = self.shards.get_mut(&shard) {
            for (_, since, _, _) in &released {
                core.pipeline.on_release(now.duration_since(*since));
            }
        }
        for (_, _, slot, resp) in released {
            self.deliver(slot, resp);
        }
    }

    /// Group-commit flush for one owned shard: one fsync makes every
    /// appended record durable, then the withheld replies drain.
    fn flush_shard(&mut self, shard: usize) {
        if let Some(core) = self.shards.get_mut(&shard) {
            let before = core.durable_lsn();
            let durable = core.sync_barrier();
            core.pipeline.on_flush(durable.saturating_sub(before));
        }
        self.release_shard(shard);
    }

    /// Trigger (b): the poll-timeout arm of the commit deadline — the
    /// soonest `appended-at + deadline` across shards with withheld
    /// replies, as a poll timeout (ms, rounded up). `None` when nothing
    /// is withheld.
    fn withheld_timeout_ms(&self, now: Instant) -> Option<i32> {
        let mut best: Option<Duration> = None;
        for (shard, q) in &self.withheld {
            let Some((_, since, _, _)) = q.front() else {
                continue;
            };
            let Some((_, deadline)) = self.shards.get(shard).and_then(|c| c.pipeline_params())
            else {
                continue;
            };
            let left = (*since + deadline).saturating_duration_since(now);
            best = Some(best.map_or(left, |b| b.min(left)));
        }
        // +1 rounds up so a sub-millisecond remainder still blocks.
        best.map(|d| (d.as_millis().min(1000) as i32) + 1)
    }

    /// Trigger (b), firing half: flush every shard whose oldest withheld
    /// reply has aged past the commit deadline.
    fn flush_expired(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .withheld
            .iter()
            .filter_map(|(shard, q)| {
                let (_, since, _, _) = q.front()?;
                let (_, deadline) = self.shards.get(shard)?.pipeline_params()?;
                (now.saturating_duration_since(*since) >= deadline).then_some(*shard)
            })
            .collect();
        for shard in expired {
            self.flush_shard(shard);
        }
    }

    /// Trigger (c): the loop is about to block with nothing left to do —
    /// sync every non-empty batch now instead of sitting on replies
    /// until the deadline. This is the common-case batch boundary: all
    /// frames read in one poll cycle share one fsync.
    fn flush_idle(&mut self) {
        let pending: Vec<usize> = self
            .withheld
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(shard, _)| *shard)
            .collect();
        for shard in pending {
            self.flush_shard(shard);
        }
    }

    /// Routes one completed reply to its requester: the loop housing the
    /// connection, or the in-process caller's channel.
    fn deliver(&mut self, slot: ReplySlot, resp: Response) {
        match slot {
            ReplySlot::Conn(t) if t.home == self.me => self.deliveries.push((t.conn, t.seq, resp)),
            ReplySlot::Conn(t) => {
                self.mesh.send_to(
                    t.home,
                    CoreMsg::Done {
                        conn: t.conn,
                        seq: t.seq,
                        resp,
                    },
                );
            }
            // A caller that gave up dropped its receiver; nothing to do.
            ReplySlot::Local(tx) => {
                let _ = tx.send(resp);
            }
        }
    }

    /// Executes a session operation on the owned shard, delivering the
    /// primary reply plus any broker wakes/failures it caused, then runs
    /// the shard's periodic checkpoint and group-commit triggers.
    fn run_job(&mut self, slot: ReplySlot, job: ExecJob) {
        let shard = self.shard_of(job.session());
        debug_assert_eq!(shard % self.mesh.loops, self.me, "job routed to non-owner");
        let Some(core) = self.shards.get_mut(&shard) else {
            self.deliver(slot, Response::Error(ErrorCode::Shutdown));
            return;
        };
        match job {
            ExecJob::Open {
                session,
                resources,
                processes,
            } => {
                let resp = respond(
                    core.open(session, resources, processes)
                        .map(Response::Opened),
                );
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, slot, resp);
            }
            ExecJob::OpenAvoid {
                session,
                resources,
                processes,
                mode,
            } => {
                let resp = respond(
                    core.open_avoid(session, resources, processes, mode)
                        .map(Response::Opened),
                );
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, slot, resp);
            }
            ExecJob::Batch { session, events } => {
                let resp = respond(core.batch(session, &events).map(Response::Batch));
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, slot, resp);
            }
            ExecJob::Close { session } => {
                let (result, dead) = core.close(session);
                let lsn = core.take_withhold_lsn();
                let resp = respond(result.map(|()| Response::Closed));
                self.deliver_or_withhold(shard, lsn, slot, resp);
                // Waiters parked on the closed broker session can never
                // be granted — fail them instead of leaking hangs. The
                // errors ride the close's LSN like any reply it caused.
                for t in dead {
                    self.deliver_or_withhold(
                        shard,
                        lsn,
                        t,
                        Response::Error(ErrorCode::UnknownSession),
                    );
                }
            }
            ExecJob::Snapshot { session } => {
                let resp = respond(core.snapshot_blob(session).map(Response::Snapshot));
                self.deliver(slot, resp);
            }
            ExecJob::Restore { session, snapshot } => {
                let resp = respond(core.restore(session, &snapshot).map(Response::Opened));
                let lsn = core.take_withhold_lsn();
                self.deliver_or_withhold(shard, lsn, slot, resp);
            }
            ExecJob::Broker { session, cmd } => {
                let out = core.broker(session, cmd, slot);
                // The command's reply and the waiters it woke all ride
                // the command's LSN (re-attaches didn't log: deliver).
                let lsn = core.take_withhold_lsn();
                if let Some((t, result)) = out.reply {
                    let resp = respond(result);
                    self.deliver_or_withhold(shard, lsn, t, resp);
                }
                for t in out.woken {
                    self.deliver_or_withhold(
                        shard,
                        lsn,
                        t,
                        Response::Granted {
                            cycles: 0,
                            probes: 0,
                        },
                    );
                }
            }
            ExecJob::Sync { .. } => {
                // Client-forced barrier: flush this shard (releasing
                // every withheld reply), then answer the frontier. The
                // withheld replies all carry smaller sequence numbers on
                // their connections, so they pump out first.
                let before = core.durable_lsn();
                let durable = core.sync_barrier();
                core.pipeline.on_flush(durable.saturating_sub(before));
                self.release_shard(shard);
                self.deliver(
                    slot,
                    Response::Synced {
                        durable_lsn: durable,
                    },
                );
            }
            ExecJob::Subscribe {
                from_seq,
                acked_seq,
                ..
            } => {
                // Followers pull durable records only: flush first so a
                // fresh append does not stall replication until the
                // commit deadline. The poll's piggybacked ack may also
                // advance the repl_ack release floor — drain after.
                self.flush_shard(shard);
                let resp = {
                    let core = self.shards.get_mut(&shard).expect("owned shard");
                    respond(core.subscribe(from_seq, acked_seq))
                };
                self.release_shard(shard);
                self.deliver(slot, resp);
            }
            ExecJob::ReplicaStatus { .. } => {
                let resp = Response::ReplicaStatus(core.replica_status());
                self.deliver(slot, resp);
            }
            ExecJob::Promote { epoch, .. } => {
                let resp = respond(core.promote(epoch));
                self.deliver(slot, resp);
            }
            ExecJob::ReplApply { records, .. } => {
                let resp = respond(core.repl_apply(&records));
                self.deliver(slot, resp);
            }
        }
        let Some(core) = self.shards.get_mut(&shard) else {
            return;
        };
        // Compaction: checkpoint + WAL truncation once enough records
        // accumulated. Its WAL sync moves the durable frontier forward,
        // so withheld replies may be releasable right after.
        let checkpointed = core.maybe_checkpoint(false);
        // Trigger (a): flush as soon as the unsynced batch reaches the
        // policy's `max_records`.
        let full = core
            .pipeline_params()
            .is_some_and(|(max_records, _)| core.unsynced_records() >= max_records.max(1) as u64);
        if full {
            self.flush_shard(shard);
        } else if checkpointed {
            self.release_shard(shard);
        }
    }

    /// This loop's shard rows, shard-id order.
    fn own_rows(&self) -> Vec<Stats> {
        let mut ids: Vec<usize> = self.shards.keys().copied().collect();
        ids.sort_unstable();
        ids.iter().map(|s| self.shards[s].report()).collect()
    }

    /// Assembles the wire `Stats` response once every loop has reported.
    fn finish_stats(&self, rows: Vec<Option<Vec<Stats>>>) -> Response {
        let mut flat: Vec<Stats> = rows.into_iter().flatten().flatten().collect();
        flat.sort_by_key(|s| s.counter("service.shard_id"));
        self.mesh.stats_response(&flat)
    }
}

/// Maps a typed service failure to its wire response.
fn error_response(e: ServiceError) -> Response {
    Response::Error(e.into())
}

/// Maps a service result to its wire response.
fn respond(r: Result<Response, ServiceError>) -> Response {
    r.unwrap_or_else(error_response)
}

/// Fills waiting slots from the delivery buffer. Deliveries for
/// connections that died in the meantime are discarded — the slot died
/// with the connection.
fn apply_deliveries(env: &mut LoopEnv, conns: &mut [CConn]) {
    for (conn_id, seq, resp) in env.deliveries.drain(..) {
        let Some(c) = conns.iter_mut().find(|c| c.id == conn_id) else {
            continue;
        };
        if let Some((_, slot)) = c.pending.iter_mut().find(|(s, _)| *s == seq) {
            *slot = Slot::Ready(resp);
        }
    }
}

/// Consumes every complete frame in `c`'s read buffer: decode in place,
/// execute inline when this loop owns the session's shard, forward
/// otherwise. Undecodable frames answer `BadRequest` in-band, frames
/// past the pipeline cap answer `Busy`, and a framing error (oversized
/// length prefix) drops the connection.
fn process_conn_frames(env: &mut LoopEnv, c: &mut CConn) {
    loop {
        match c.rbuf.next_frame() {
            Err(_) => {
                env.mesh.counters.desynced.fetch_add(1, Ordering::Relaxed);
                c.dead = true;
                return;
            }
            Ok(None) => break,
            Ok(Some(range)) => {
                env.mesh.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                env.lc().frames_in.fetch_add(1, Ordering::Relaxed);
                let seq = c.next_seq;
                c.next_seq += 1;
                let over_depth = c.pending.len() >= env.cfg.max_pipeline;
                let ticket = Ticket {
                    home: env.me,
                    conn: c.id,
                    seq,
                };
                let slot = match decode_request(c.rbuf.slice(range)) {
                    Err(_) => Slot::Ready(Response::Error(ErrorCode::BadRequest)),
                    Ok(_) if over_depth => {
                        env.mesh
                            .counters
                            .busy_replies
                            .fetch_add(1, Ordering::Relaxed);
                        Slot::Ready(Response::Busy)
                    }
                    Ok(Request::Stats) => {
                        let mut rows = vec![None; env.mesh.loops];
                        rows[env.me] = Some(env.own_rows());
                        if env.mesh.loops == 1 {
                            Slot::Ready(env.finish_stats(rows))
                        } else {
                            for target in 0..env.mesh.loops {
                                if target != env.me {
                                    env.mesh.send_to(target, CoreMsg::StatsAsk { ticket });
                                    env.cross_outstanding += 1;
                                }
                            }
                            Slot::Stats(rows)
                        }
                    }
                    Ok(req) => match env.mesh.to_job(req) {
                        Err(resp) => Slot::Ready(*resp),
                        Ok(job) => {
                            let owner = env.mesh.owner(job.session());
                            if job.opens() {
                                c.affine = owner;
                            }
                            if owner == env.me {
                                env.lc().inline_ops.fetch_add(1, Ordering::Relaxed);
                                env.run_job(ReplySlot::Conn(ticket), job);
                            } else {
                                env.lc().cross_core_forwards.fetch_add(1, Ordering::Relaxed);
                                env.cross_outstanding += 1;
                                env.mesh.send_to(
                                    owner,
                                    CoreMsg::Exec {
                                        slot: ReplySlot::Conn(ticket),
                                        job,
                                    },
                                );
                            }
                            Slot::Wait
                        }
                    },
                };
                c.pending.push_back((seq, slot));
            }
        }
    }
    c.rbuf.compact();
    c.partial_since = if c.rbuf.has_partial() {
        c.partial_since.or(Some(Instant::now()))
    } else {
        None
    };
}

/// Smallest remaining time until any reap deadline, as a poll timeout.
/// This is the *only* source of finite poll timeouts: completions are
/// fd-signalled (self-pipe), so there is nothing to tick for.
fn reap_timeout_ms(conns: &[CConn], cfg: &CoreConfig, now: Instant) -> i32 {
    let mut best: Option<Duration> = None;
    let mut consider = |d: Duration| {
        best = Some(best.map_or(d, |b| b.min(d)));
    };
    for c in conns {
        if c.pending.is_empty() {
            consider(cfg.idle_timeout.saturating_sub(now - c.last_activity));
        }
        if let Some(t) = c.partial_since {
            consider(cfg.partial_frame_deadline.saturating_sub(now - t));
        }
    }
    match best {
        None => -1,
        // +1 rounds up so we never spin on a sub-millisecond remainder.
        Some(d) => (d.as_millis().min(1000) as i32) + 1,
    }
}

struct CoreCtx {
    me: usize,
    cfg: CoreConfig,
    mesh: Mesh,
    stop: Arc<AtomicBool>,
    inbox: Receiver<CoreMsg>,
    wake_rx: UnixStream,
    ready_tx: Sender<(usize, u64, Vec<RecoveryInfo>)>,
    go_rx: Receiver<()>,
}

fn run_core_loop(ctx: CoreCtx) {
    if ctx.cfg.pin_cpus {
        par::pin_current_thread(ctx.me);
    }
    // Build (and, with durability, recover) the owned shards before the
    // acceptor starts: no request may observe a half-recovered service.
    let mut shards: HashMap<usize, ShardCore> = HashMap::new();
    for shard in (ctx.me..ctx.mesh.shards_total).step_by(ctx.mesh.loops) {
        shards.insert(
            shard,
            ShardCore::new(
                shard,
                ctx.cfg.max_sessions_per_shard,
                ctx.cfg.max_dim,
                ctx.cfg.durability.as_ref(),
                ctx.cfg.replica,
            ),
        );
    }
    let mut max_next = 0u64;
    let mut infos = Vec::new();
    for core in shards.values() {
        if let Some(info) = core.recovery_info() {
            max_next = max_next.max(info.next_session);
            infos.push(info);
        }
    }
    let _ = ctx.ready_tx.send((ctx.me, max_next, infos));
    // Wait for bind to seed the shared session counter from every
    // loop's recovery high-water mark.
    if ctx.go_rx.recv().is_err() {
        return;
    }

    let mut env = LoopEnv {
        me: ctx.me,
        cfg: ctx.cfg,
        mesh: ctx.mesh,
        shards,
        deliveries: Vec::new(),
        cross_outstanding: 0,
        withheld: HashMap::new(),
    };
    let mut conns: Vec<CConn> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut wake_rx = ctx.wake_rx;
    loop {
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        let now = Instant::now();
        // Drain the inbox: adopted connections, forwarded work, and
        // completions from other loops.
        while let Ok(msg) = ctx.inbox.try_recv() {
            match msg {
                CoreMsg::Accept(stream) => {
                    let id = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
                    conns.push(CConn::new(id, stream, env.me, now));
                }
                CoreMsg::Migrate(c) => {
                    env.lc().migrations_in.fetch_add(1, Ordering::Relaxed);
                    conns.push(*c);
                }
                CoreMsg::Exec { slot, job } => env.run_job(slot, job),
                CoreMsg::Done { conn, seq, resp } => {
                    env.cross_outstanding = env.cross_outstanding.saturating_sub(1);
                    env.deliveries.push((conn, seq, resp));
                }
                CoreMsg::StatsAsk { ticket } => {
                    let rows = env.own_rows();
                    env.mesh.send_to(
                        ticket.home,
                        CoreMsg::StatsReply {
                            conn: ticket.conn,
                            seq: ticket.seq,
                            from: env.me,
                            rows,
                        },
                    );
                }
                CoreMsg::StatsReply {
                    conn,
                    seq,
                    from,
                    rows,
                } => {
                    env.cross_outstanding = env.cross_outstanding.saturating_sub(1);
                    if let Some(c) = conns.iter_mut().find(|c| c.id == conn) {
                        if let Some((_, slot)) = c.pending.iter_mut().find(|(s, _)| *s == seq) {
                            if let Slot::Stats(got) = slot {
                                got[from] = Some(rows);
                                if got.iter().all(Option::is_some) {
                                    let rows = std::mem::take(got);
                                    *slot = Slot::Ready(env.finish_stats(rows));
                                }
                            }
                        }
                    }
                }
                CoreMsg::Rows(tx) => {
                    let _ = tx.send(env.own_rows());
                }
            }
        }
        apply_deliveries(&mut env, &mut conns);
        // Complete what finished, then flush.
        for c in conns.iter_mut() {
            c.pump_replies(&env.mesh.counters, &env.mesh.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.mesh.counters);
            }
        }
        // Hand quiescent connections to their affine loop: with no
        // pending replies and no backlog, nothing in flight can target
        // this loop, so the fd (and every buffer) moves wholesale.
        let mut i = 0;
        while i < conns.len() {
            let c = &conns[i];
            if c.affine != env.me
                && !c.dead
                && !c.peer_closed
                && c.pending.is_empty()
                && c.backlog() == 0
            {
                let c = conns.swap_remove(i);
                let target = c.affine;
                env.mesh.send_to(target, CoreMsg::Migrate(Box::new(c)));
            } else {
                i += 1;
            }
        }
        // Reap and drop in one pass.
        conns.retain(|c| {
            let drained = c.pending.is_empty() && c.backlog() == 0;
            let mut reap = c.dead || (c.peer_closed && drained);
            if !reap {
                if let Some(t) = c.partial_since {
                    if now - t >= env.cfg.partial_frame_deadline {
                        env.mesh
                            .counters
                            .reaped_partial
                            .fetch_add(1, Ordering::Relaxed);
                        reap = true;
                    }
                }
            }
            if !reap && c.pending.is_empty() && now - c.last_activity >= env.cfg.idle_timeout {
                env.mesh
                    .counters
                    .reaped_idle
                    .fetch_add(1, Ordering::Relaxed);
                reap = true;
            }
            if reap {
                env.mesh.counters.closed.fetch_add(1, Ordering::Relaxed);
            }
            !reap
        });
        env.lc().conns.store(conns.len() as u64, Ordering::Relaxed);
        // Register interest: the self-pipe, then one slot per conn.
        fds.clear();
        fds.push(sys::PollFd {
            fd: wake_rx.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        });
        for c in &conns {
            let mut events = 0;
            if !c.peer_closed && c.backlog() < env.cfg.max_write_buf {
                events |= sys::POLLIN;
            }
            if c.backlog() > 0 {
                events |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        // Trigger (c): about to block with every readable frame already
        // processed — the batch boundary. One fsync covers everything
        // appended this poll cycle, and the withheld replies it releases
        // pump out below before the next poll... unless new deliveries
        // for *other* loops' requests still ride the self-pipe, which
        // poll then reports instantly.
        env.flush_idle();
        apply_deliveries(&mut env, &mut conns);
        for c in conns.iter_mut() {
            c.pump_replies(&env.mesh.counters, &env.mesh.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.mesh.counters);
            }
        }
        // No degraded tick: completions arrive as self-pipe wakeups, so
        // the only finite timeouts are reap deadlines — and, under the
        // pipelined policy, the commit deadline of withheld replies
        // (trigger (b), a backstop: the idle flush above usually empties
        // the batch first).
        let timeout = reap_timeout_ms(&conns, &env.cfg, now);
        let commit_timeout = env.withheld_timeout_ms(now);
        let timeout = match commit_timeout {
            Some(t) if timeout < 0 => t,
            Some(t) => timeout.min(t),
            None => timeout,
        };
        let Ok(ready) = sys::poll_fds(&mut fds, timeout) else {
            break;
        };
        if ready == 0 && env.cross_outstanding > 0 && commit_timeout.is_none() {
            // A timeout fired while cross-core work was in flight; in
            // steady state this never happens (the wake pipe is an fd).
            // A commit-deadline timeout is work, not a degraded tick.
            env.lc().busy_poll_ticks.fetch_add(1, Ordering::Relaxed);
        }
        env.flush_expired(Instant::now());
        // Drain wake bytes (coalesced; one byte per notification).
        if fds[0].revents != 0 {
            env.lc().wakeups.fetch_add(1, Ordering::Relaxed);
            let mut sink = [0u8; 64];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        // Serve readable/writable sockets.
        for (i, c) in conns.iter_mut().enumerate() {
            let re = fds[1 + i].revents;
            if re == 0 {
                continue;
            }
            if re & sys::POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            if re & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 {
                match c.rbuf.fill_from(&mut c.stream) {
                    ReadOutcome::Progress(n, eof) => {
                        if n > 0 {
                            env.mesh
                                .counters
                                .bytes_in
                                .fetch_add(n as u64, Ordering::Relaxed);
                            c.last_activity = Instant::now();
                            process_conn_frames(&mut env, c);
                        }
                        if eof {
                            c.peer_closed = true;
                        }
                        if n == 0 && !eof && re & sys::POLLERR != 0 {
                            c.dead = true;
                        }
                    }
                    ReadOutcome::Broken => c.dead = true,
                }
            }
        }
        // Eager turnaround: inline executions (the common, same-core
        // case) completed during the reads above — answer them in the
        // same iteration, no hand-off, no tick.
        apply_deliveries(&mut env, &mut conns);
        for c in conns.iter_mut() {
            c.pump_replies(&env.mesh.counters, &env.mesh.loop_counters[env.me]);
            if c.backlog() > 0 {
                c.flush(&env.mesh.counters);
            }
        }
    }
    // Teardown: drain the commit pipeline (best-effort delivery of
    // withheld replies), run shutdown durability per owned shard (final
    // checkpoint or WAL sync), then drop the connections with the loop.
    env.flush_idle();
    // Replies still parked after the flush are gated on a follower ack
    // that will never arrive (the runtime is stopping); locally durable
    // is the most a dying process can promise, so deliver.
    let gated: Vec<(usize, u64, Instant, ReplySlot, Response)> = env
        .withheld
        .iter_mut()
        .flat_map(|(shard, q)| {
            let shard = *shard;
            q.drain(..)
                .map(move |(lsn, since, t, r)| (shard, lsn, since, t, r))
        })
        .collect();
    let now = Instant::now();
    for (shard, _, since, slot, resp) in gated {
        if let Some(core) = env.shards.get_mut(&shard) {
            core.pipeline.on_release(now.duration_since(since));
        }
        env.deliver(slot, resp);
    }
    apply_deliveries(&mut env, &mut conns);
    for c in conns.iter_mut() {
        c.pump_replies(&env.mesh.counters, &env.mesh.loop_counters[env.me]);
        if c.backlog() > 0 {
            c.flush(&env.mesh.counters);
        }
    }
    for core in env.shards.values_mut() {
        core.finish();
    }
    let n = conns.len() as u64;
    env.mesh.counters.closed.fetch_add(n, Ordering::Relaxed);
}

/// Global connection-id source — ids must be unique across loops
/// because connections migrate between them.
static NEXT_CONN: AtomicU64 = AtomicU64::new(0);

/// The running service: acceptor + N pinned loops, each owning its
/// shards outright.
///
/// Construction: [`CoreRuntime::bind`]; in-process callers use
/// [`CoreRuntime::client`], remote ones [`crate::TcpClient`]. Dropping
/// the handle stops the acceptor and joins every loop (open connections
/// drop; durable shards run their shutdown checkpoint/sync first).
pub struct CoreRuntime {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    mesh: Mesh,
    recovery: Vec<RecoveryInfo>,
    accept_thread: Option<JoinHandle<()>>,
    loop_threads: Vec<JoinHandle<()>>,
}

impl CoreRuntime {
    /// Binds `addr` (port 0 for ephemeral), builds and recovers every
    /// shard on its owning loop, seeds the shared session counter from
    /// the recovery high-water marks, and only then starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind/pipe/spawn failures.
    ///
    /// # Panics
    ///
    /// On any durability storage failure (fail-stop: a service that
    /// cannot log must not acknowledge work).
    pub fn bind(addr: &str, cfg: CoreConfig) -> io::Result<CoreRuntime> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let loops = cfg.resolved_loops();
        let shards_total = cfg.resolved_shards();
        if let Some(d) = &cfg.durability {
            deltaos_store::init_dir(&d.dir, shards_total as u32)
                .unwrap_or_else(|e| panic!("store init failed: {e}"));
        }
        let stop = Arc::new(AtomicBool::new(false));

        // Wire the mesh: every loop can reach every inbox and wake pipe.
        let mut inboxes = Vec::with_capacity(loops);
        let mut inbox_rxs = Vec::with_capacity(loops);
        let mut wake_rxs = Vec::with_capacity(loops);
        let mut wakes = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (tx, rx) = mpsc::channel();
            inboxes.push(tx);
            inbox_rxs.push(rx);
            let (rx_end, tx_end) = UnixStream::pair()?;
            rx_end.set_nonblocking(true)?;
            tx_end.set_nonblocking(true)?;
            wake_rxs.push(rx_end);
            wakes.push(tx_end);
        }
        let mesh = Mesh {
            inboxes,
            wakes: Arc::new(wakes),
            next_session: Arc::new(AtomicU64::new(0)),
            counters: Arc::new(Counters::default()),
            loop_counters: Arc::new((0..loops).map(|_| LoopCounters::default()).collect()),
            loops,
            shards_total,
            max_dim: cfg.max_dim,
            max_batch: cfg.max_batch,
        };

        let (ready_tx, ready_rx) = mpsc::channel();
        let mut go_txs = Vec::with_capacity(loops);
        let mut loop_threads = Vec::with_capacity(loops);
        for (me, (inbox, wake_rx)) in inbox_rxs.into_iter().zip(wake_rxs).enumerate() {
            let (go_tx, go_rx) = mpsc::channel();
            go_txs.push(go_tx);
            let ctx = CoreCtx {
                me,
                cfg: cfg.clone(),
                mesh: mesh.clone(),
                stop: Arc::clone(&stop),
                inbox,
                wake_rx,
                ready_tx: ready_tx.clone(),
                go_rx,
            };
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("deltaos-core-{me}"))
                    .spawn(move || run_core_loop(ctx))?,
            );
        }
        drop(ready_tx);

        // Recovery handshake: collect every loop's high-water mark
        // before any of them serves a byte.
        let mut recovery = Vec::new();
        let mut max_next = 0u64;
        for _ in 0..loops {
            let Ok((_, loop_max, infos)) = ready_rx.recv() else {
                break;
            };
            max_next = max_next.max(loop_max);
            recovery.extend(infos);
        }
        recovery.sort_by_key(|r| r.shard);
        mesh.next_session.store(max_next, Ordering::Relaxed);
        for go in &go_txs {
            let _ = go.send(());
        }

        // Acceptor: round-robin hand-off; migration rebalances after.
        let accept_stop = Arc::clone(&stop);
        let accept_mesh = mesh.clone();
        let accept_thread = std::thread::Builder::new()
            .name("deltaos-core-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    accept_mesh
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    accept_mesh.send_to(next, CoreMsg::Accept(stream));
                    next = (next + 1) % accept_mesh.loops;
                }
            })?;

        Ok(CoreRuntime {
            addr: local,
            stop,
            mesh,
            recovery,
            accept_thread: Some(accept_thread),
            loop_threads,
        })
    }

    /// A new in-process client handle.
    pub fn client(&self) -> Client {
        Client {
            mesh: self.mesh.clone(),
        }
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the transport counters.
    pub fn frontend_stats(&self) -> FrontendStats {
        self.mesh.counters.snapshot()
    }

    /// Snapshot of the per-loop counters, loop order.
    pub fn core_stats(&self) -> Vec<CoreStats> {
        core_stats_snapshot(&self.mesh.loop_counters)
    }

    /// Every shard's counters (index = shard id), as the loops report
    /// them right now — the full `service.*` / `store.*` key set, of
    /// which the wire `Stats` response carries a fixed subset. Empty
    /// once the runtime stopped.
    pub fn shard_stats(&self) -> Vec<Stats> {
        self.mesh.shard_rows().unwrap_or_default()
    }

    /// The per-loop counters as flat `service.core<N>.*` keys (plus the
    /// summed `service.cross_core_forwards`), for dashboards that speak
    /// [`Stats`] rather than the wire structs.
    pub fn stats(&self) -> Stats {
        let mut s = Stats::new();
        let mut forwards = 0u64;
        for c in self.core_stats() {
            let n = c.core;
            s.add(&format!("service.core{n}.conns"), c.conns);
            s.add(&format!("service.core{n}.frames_in"), c.frames_in);
            s.add(&format!("service.core{n}.replies_out"), c.replies_out);
            s.add(&format!("service.core{n}.inline_ops"), c.inline_ops);
            s.add(
                &format!("service.core{n}.cross_core_forwards"),
                c.cross_core_forwards,
            );
            s.add(&format!("service.core{n}.migrations_in"), c.migrations_in);
            s.add(&format!("service.core{n}.wakeups"), c.wakeups);
            s.add(
                &format!("service.core{n}.busy_poll_ticks"),
                c.busy_poll_ticks,
            );
            forwards += c.cross_core_forwards;
        }
        s.add("service.cross_core_forwards", forwards);
        s
    }

    /// What recovery found per durable shard (shard order; empty
    /// without durability).
    pub fn recovery(&self) -> &[RecoveryInfo] {
        &self.recovery
    }

    /// Stops accepting, wakes every loop, and joins all threads. Open
    /// connections drop; durable shards run their shutdown checkpoint
    /// or WAL sync before the loop exits.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        for w in self.mesh.wakes.iter() {
            let _ = (&*w).write(&[1]);
        }
        // The acceptor blocks in `incoming()`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for CoreRuntime {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.halt();
        }
    }
}

impl std::fmt::Debug for CoreRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreRuntime")
            .field("addr", &self.addr)
            .field("loops", &self.loop_threads.len())
            .finish_non_exhaustive()
    }
}

/// Cheap, cloneable in-process handle to a [`CoreRuntime`]: the same
/// [`Request`]/[`Response`] contract as the wire, without the socket.
/// Each call is forwarded to the owning loop's inbox (self-pipe wake),
/// executed inline there, and answered over a private channel, so the
/// calling thread blocks for its own reply only — a `wait`ing
/// `Acquire` blocks until another caller's release grants it. Safe from
/// any thread except the runtime's own loop threads. After the runtime
/// stopped every call answers [`ErrorCode::Shutdown`].
#[derive(Clone)]
pub struct Client {
    mesh: Mesh,
}

impl Client {
    /// Runs one request and blocks for its response.
    pub fn call(&self, req: Request) -> Response {
        if let Request::Stats = req {
            return match self.mesh.shard_rows() {
                Some(rows) => self.mesh.stats_response(&rows),
                None => Response::Error(ErrorCode::Shutdown),
            };
        }
        match self.mesh.to_job(req) {
            Ok(job) => self.exec(job),
            Err(resp) => *resp,
        }
    }

    /// Follower ingest, the one in-process-only op: mirrors a primary's
    /// WAL records (as pulled by a wire `Subscribe` against it) into
    /// replica `shard` byte-for-byte and applies them through the
    /// recovery interpreter. Answers [`Response::ReplicaStatus`], whose
    /// `durable_seq` is what the tailer acks back to the primary;
    /// `EpochFenced` on a primary or for records below the local epoch,
    /// `SubscribeGap` on a sequence gap, `UnknownSession` for an
    /// out-of-range shard.
    pub fn repl_apply(&self, shard: u16, records: Vec<(u64, u64, Vec<u8>)>) -> Response {
        if shard as usize >= self.mesh.shards_total {
            return error_response(ServiceError::UnknownSession);
        }
        self.exec(ExecJob::ReplApply {
            session: SessionId(shard as u64),
            records,
        })
    }

    fn exec(&self, job: ExecJob) -> Response {
        let (tx, rx) = mpsc::channel();
        let owner = self.mesh.owner(job.session());
        let sent = self.mesh.send_to(
            owner,
            CoreMsg::Exec {
                slot: ReplySlot::Local(tx),
                job,
            },
        );
        // A stopped loop drops its inbox (and any parked slot) with it,
        // which closes the channel.
        match sent.then(|| rx.recv().ok()).flatten() {
            Some(resp) => resp,
            None => Response::Error(ErrorCode::Shutdown),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("loops", &self.mesh.loops)
            .field("shards", &self.mesh.shards_total)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, write_frame, EventResult};
    use deltaos_core::{ProcId, ResId};

    /// Three representative frames, length-prefixed, as one byte stream.
    fn frame_stream() -> (Vec<u8>, Vec<Vec<u8>>) {
        let payloads = vec![
            encode_request(&Request::Stats),
            encode_request(&Request::Open {
                resources: 7,
                processes: 9,
            }),
            encode_request(&Request::Batch {
                session: SessionId(3),
                events: vec![crate::proto::Event::Probe; 5],
            }),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        (wire, payloads)
    }

    /// Collects every currently-complete frame payload (owned, for
    /// comparison only — the live path borrows).
    fn drain(fb: &mut FrameBuf) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(range) = fb.next_frame().unwrap() {
            out.push(fb.slice(range).to_vec());
        }
        fb.compact();
        out
    }

    #[test]
    fn reassembles_one_byte_at_a_time() {
        let (wire, payloads) = frame_stream();
        let mut fb = FrameBuf::default();
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            got.extend(drain(&mut fb));
            // Compaction never strands bytes: buffer holds at most the
            // partial head frame.
            assert!(fb.buf.len() < 4 + payloads.iter().map(Vec::len).max().unwrap() + 1);
        }
        assert_eq!(got, payloads);
        assert!(!fb.has_partial(), "no residue after the final byte");
    }

    #[test]
    fn reassembles_across_every_split_point() {
        let (wire, payloads) = frame_stream();
        for cut in 0..=wire.len() {
            let mut fb = FrameBuf::default();
            let mut got = Vec::new();
            fb.extend(&wire[..cut]);
            got.extend(drain(&mut fb));
            fb.extend(&wire[cut..]);
            got.extend(drain(&mut fb));
            assert_eq!(got, payloads, "split at byte {cut}");
        }
    }

    #[test]
    fn whole_stream_in_one_chunk_yields_all_frames() {
        let (wire, payloads) = frame_stream();
        let mut fb = FrameBuf::default();
        fb.extend(&wire);
        assert_eq!(drain(&mut fb), payloads);
    }

    #[test]
    fn oversized_prefix_is_a_framing_error() {
        let mut fb = FrameBuf::default();
        fb.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn partial_flag_tracks_the_head_frame() {
        let (wire, _) = frame_stream();
        let mut fb = FrameBuf::default();
        assert!(!fb.has_partial());
        fb.extend(&wire[..2]); // half a length prefix
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial());
        fb.extend(&wire[2..]);
        let _ = drain(&mut fb);
        assert!(!fb.has_partial());
    }

    #[test]
    fn auto_sizing_stays_in_bounds() {
        let auto = CoreConfig::auto_sized();
        assert!((1..=8).contains(&auto.resolved_loops()));
        assert_eq!(auto.resolved_shards(), auto.resolved_loops());
        let fixed = CoreConfig {
            loops: 3,
            shards: 7,
            ..CoreConfig::default()
        };
        assert_eq!(fixed.resolved_loops(), 3);
        assert_eq!(fixed.resolved_shards(), 7);
    }

    fn small() -> CoreRuntime {
        CoreRuntime::bind(
            "127.0.0.1:0",
            CoreConfig {
                loops: 2,
                shards: 2,
                max_sessions_per_shard: 4,
                max_batch: 16,
                max_dim: 64,
                ..CoreConfig::default()
            },
        )
        .expect("bind")
    }

    fn open(client: &Client, resources: u16, processes: u16) -> Response {
        client.call(Request::Open {
            resources,
            processes,
        })
    }

    fn batch(client: &Client, session: SessionId, events: Vec<Event>) -> Response {
        client.call(Request::Batch { session, events })
    }

    fn opened(resp: Response) -> SessionId {
        match resp {
            Response::Opened(sid) => sid,
            other => panic!("expected Opened, got {other:?}"),
        }
    }

    #[test]
    fn open_batch_probe_close_roundtrip() {
        let runtime = small();
        let client = runtime.client();
        let sid = opened(open(&client, 2, 2));
        let q = ResId;
        let p = ProcId;
        let Response::Batch(results) = batch(
            &client,
            sid,
            vec![
                Event::Grant { q: q(0), p: p(0) },
                Event::Grant { q: q(1), p: p(1) },
                Event::Request { p: p(0), q: q(1) },
                Event::Request { p: p(1), q: q(0) },
                Event::Probe,
            ],
        ) else {
            panic!("batch refused");
        };
        assert_eq!(results.len(), 5);
        match results[4] {
            EventResult::Outcome(o) => assert!(o.deadlock),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            client.call(Request::Close { session: sid }),
            Response::Closed
        );
        assert_eq!(
            batch(&client, sid, vec![Event::Probe]),
            Response::Error(ErrorCode::UnknownSession)
        );
        let mut merged = Stats::new();
        for s in &runtime.shard_stats() {
            merged.merge(s);
        }
        // The post-close batch was refused before ingestion, so only the
        // accepted 5-event batch counts.
        assert_eq!(merged.counter("service.events"), 5);
        assert_eq!(merged.counter("service.probes"), 1);
        assert_eq!(merged.counter("service.sessions_closed"), 1);
    }

    #[test]
    fn sessions_spread_across_shards_and_ids_are_unique() {
        let runtime = small();
        let client = runtime.client();
        let ids: Vec<SessionId> = (0..8).map(|_| opened(open(&client, 4, 4))).collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        let per_shard = runtime.shard_stats();
        assert_eq!(per_shard.len(), 2);
        for s in &per_shard {
            assert_eq!(s.counter("service.sessions_open"), 4);
        }
        match client.call(Request::Stats) {
            Response::Stats { shards, cores, .. } => {
                assert_eq!(shards.len(), 2);
                assert_eq!(cores.len(), 2);
            }
            other => panic!("stats answered {other:?}"),
        }
    }

    #[test]
    fn admission_control_rejects_bad_opens_and_big_batches() {
        let runtime = small();
        let client = runtime.client();
        let bad = Response::Error(ErrorCode::BadDimensions);
        assert_eq!(open(&client, 0, 4), bad);
        assert_eq!(open(&client, 4, 65), bad);
        // Shard capacity: 4 per shard × 2 shards; the 9th (round-robin)
        // open must hit a full shard.
        let mut hit_cap = false;
        for _ in 0..9 {
            match open(&client, 2, 2) {
                Response::Opened(_) => {}
                Response::Error(ErrorCode::TooManySessions) => {
                    hit_cap = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(hit_cap, "per-shard session cap must engage");
        assert_eq!(
            batch(&client, SessionId(0), vec![Event::Probe; 17]),
            Response::Error(ErrorCode::BatchTooLarge)
        );
        assert_eq!(
            client.repl_apply(9, Vec::new()),
            Response::Error(ErrorCode::UnknownSession)
        );
    }

    #[test]
    fn snapshot_restore_clones_a_live_session() {
        let runtime = small();
        let client = runtime.client();
        let sid = opened(open(&client, 4, 4));
        let (p, q) = (ProcId, ResId);
        let Response::Batch(results) = batch(
            &client,
            sid,
            vec![
                Event::Grant { q: q(0), p: p(0) },
                Event::Grant { q: q(1), p: p(1) },
                Event::Request { p: p(0), q: q(1) },
                Event::Request { p: p(1), q: q(0) },
                Event::Probe,
            ],
        ) else {
            panic!("batch refused");
        };
        let EventResult::Outcome(orig) = results[4] else {
            panic!("probe must yield an outcome");
        };
        let Response::Snapshot(blob) = client.call(Request::Snapshot { session: sid }) else {
            panic!("snapshot refused");
        };
        let copy = opened(client.call(Request::Restore { snapshot: blob }));
        assert_ne!(copy, sid, "restore allocates a fresh id");
        // The clone answers probes exactly as the original would.
        let probe = Response::Batch(vec![EventResult::Outcome(orig)]);
        assert_eq!(batch(&client, copy, vec![Event::Probe]), probe);
        // And both sessions stay independently live.
        assert_eq!(
            client.call(Request::Close { session: sid }),
            Response::Closed
        );
        assert_eq!(batch(&client, copy, vec![Event::Probe]), probe);
        // Garbage is refused with a typed error.
        assert_eq!(
            client.call(Request::Restore {
                snapshot: vec![0xAB; 10]
            }),
            Response::Error(ErrorCode::InvalidSnapshot)
        );
        assert_eq!(
            client.call(Request::Snapshot {
                session: SessionId(9999)
            }),
            Response::Error(ErrorCode::UnknownSession)
        );
    }

    #[test]
    fn calls_after_stop_fail_typed() {
        let runtime = small();
        let client = runtime.client();
        let sid = opened(open(&client, 2, 2));
        runtime.stop();
        let down = Response::Error(ErrorCode::Shutdown);
        assert_eq!(batch(&client, sid, vec![Event::Probe]), down);
        assert_eq!(open(&client, 2, 2), down);
        assert_eq!(client.call(Request::Stats), down);
    }
}
