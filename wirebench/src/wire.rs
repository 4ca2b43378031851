//! The client: two TCP connections driven from one thread as a closed
//! loop. Each connection keeps a fixed number of requests outstanding;
//! a reply frees a slot and the slot is refilled at once, so the server
//! sees constant concurrency, never a rate. Sessions are bound to one
//! connection (`index % 2`), so each session's requests stay in order
//! and its replies arrive in generation order.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use deltaos_service::proto::{decode_response, encode_request_into};
use deltaos_service::{Request, Response, SessionId};

use crate::gen::{Gen, Rng};
use crate::host::Gauges;

/// A reply not received within this long of the client's last wait
/// starting is lost: far above the 500 µs fsync deadline and any
/// checkpoint, so only a reply the server never sends reaches it.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// 64-bit digest of a reply payload; the oracle compares it with the
/// digest of the reply the reference replay encodes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h
}

/// One request in flight.
struct Pending {
    session: u32,
    ops: u32,
    sent: Instant,
}

/// A framed connection with a reusable read buffer and write batch.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    wbuf: Vec<u8>,
    pending: VecDeque<Pending>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Blocking set-up calls fail rather than hang on a lost reply.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            rbuf: vec![0; 64 * 1024],
            rstart: 0,
            rend: 0,
            wbuf: Vec::with_capacity(64 * 1024),
            pending: VecDeque::new(),
        })
    }

    /// Appends one length-prefixed request frame to the write batch.
    pub fn push(&mut self, req: &Request) {
        let at = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0; 4]);
        encode_request_into(req, &mut self.wbuf);
        let len = (self.wbuf.len() - at - 4) as u32;
        self.wbuf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.wbuf)?;
        self.wbuf.clear();
        Ok(())
    }

    /// One `read` into the buffer; it blocks (up to the read timeout)
    /// unless the socket is known to be readable.
    fn fill(&mut self) -> io::Result<()> {
        if self.rend == self.rbuf.len() {
            self.rbuf.copy_within(self.rstart..self.rend, 0);
            self.rend -= self.rstart;
            self.rstart = 0;
            if self.rend == self.rbuf.len() {
                self.rbuf.resize(self.rbuf.len() * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.rbuf[self.rend..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.rend += n;
        Ok(())
    }

    /// The next complete frame's payload range, if buffered.
    fn frame(&mut self) -> Option<(usize, usize)> {
        let avail = self.rend - self.rstart;
        if avail < 4 {
            return None;
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&self.rbuf[self.rstart..self.rstart + 4]);
        let len = u32::from_le_bytes(prefix) as usize;
        if avail - 4 < len {
            return None;
        }
        let start = self.rstart + 4;
        self.rstart = start + len;
        if self.rstart == self.rend {
            self.rstart = 0;
            self.rend = 0;
        }
        Some((start, start + len))
    }

    /// Sends `reqs` keeping at most `depth` in flight, handing each
    /// reply payload to `on_reply` in order.
    pub fn exchange(
        &mut self,
        reqs: &[Request],
        depth: usize,
        mut on_reply: impl FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        let (mut sent, mut got) = (0, 0);
        while got < reqs.len() {
            while sent < reqs.len() && sent - got < depth {
                self.push(&reqs[sent]);
                sent += 1;
            }
            self.flush()?;
            self.fill()?;
            while let Some((a, b)) = self.frame() {
                on_reply(got, &self.rbuf[a..b]);
                got += 1;
            }
        }
        Ok(())
    }

    /// One blocking request/response round trip.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let mut out = None;
        self.exchange(std::slice::from_ref(req), 1, |_, payload| {
            out = Some(decode_response(payload));
        })?;
        out.expect("exchange answers every request")
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// One session as the client drives it.
pub struct Live {
    pub gen: Gen,
    pub sid: SessionId,
    /// Reply digests, in the session's request order (set-up included).
    pub replies: Vec<u64>,
}

/// Opens every session and sends its set-up requests, recording the
/// set-up reply digests. Session `i` goes over connection `i % 2`.
pub fn open_sessions(conns: &mut [Conn; 2], gens: Vec<Gen>, depth: usize) -> io::Result<Vec<Live>> {
    let mut live: Vec<Live> = gens
        .into_iter()
        .map(|gen| Live {
            gen,
            sid: SessionId(u64::MAX),
            replies: Vec::new(),
        })
        .collect();
    for (ci, conn) in conns.iter_mut().enumerate() {
        let mine: Vec<usize> = (ci..live.len()).step_by(2).collect();
        let opens: Vec<Request> = mine.iter().map(|&i| live[i].gen.open()).collect();
        let mut bad = None;
        conn.exchange(&opens, depth, |k, payload| match decode_response(payload) {
            Ok(Response::Opened(sid)) => live[mine[k]].sid = sid,
            other => bad = Some(format!("open answered {other:?}")),
        })?;
        if let Some(bad) = bad {
            return Err(io::Error::other(bad));
        }
        let mut reqs = Vec::new();
        let mut owner = Vec::new();
        for &i in &mine {
            let sid = live[i].sid;
            for op in live[i].gen.setup(sid) {
                reqs.push(op.req);
                owner.push(i);
            }
        }
        conn.exchange(&reqs, depth, |k, payload| {
            live[owner[k]].replies.push(digest(payload));
        })?;
    }
    Ok(live)
}

/// Aggregated client-side span: how often and how long.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub count: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.count += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// Spans the traced phase records around the benchmark's own calls:
/// the generator and its mirror, the request codec, the socket calls
/// and the wait for replies, and the reply digest.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spans {
    pub gen: Span,
    pub encode: Span,
    pub write: Span,
    pub wait: Span,
    pub read: Span,
    pub digest: Span,
}

/// What one closed-loop phase produced.
pub struct PhaseOut {
    /// Measured window length, between the two gauge reads, in seconds.
    pub window_s: f64,
    /// Ops (events or broker commands) replied inside the window.
    pub window_ops: u64,
    /// Send → reply time of every request replied inside the window.
    pub latency_ns: Vec<u64>,
    /// Requests and ops sent in the phase (warm-up and drain included).
    pub requests: u64,
    pub ops: u64,
    /// Requests whose reply never came (see [`REPLY_TIMEOUT`]); the
    /// phase stops at the first such wait.
    pub lost: u64,
    pub spans: Spans,
    /// Gauges read at the window's start and end.
    pub gauges: (Gauges, Gauges),
}

/// How a phase is driven.
#[derive(Clone, Copy)]
pub struct Schedule {
    /// Requests kept outstanding per connection.
    pub depth: usize,
    /// Seeds the choice of session for each refill.
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    /// Record client spans.
    pub traced: bool,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Waits until any connection with requests in flight is readable (or
/// hung up). Returns which are, or all `false` after [`REPLY_TIMEOUT`].
fn wait_readable(conns: &[Conn; 2]) -> io::Result<[bool; 2]> {
    let mut fds: Vec<PollFd> = Vec::with_capacity(2);
    let mut which = Vec::with_capacity(2);
    for (ci, conn) in conns.iter().enumerate() {
        if !conn.pending.is_empty() {
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            which.push(ci);
        }
    }
    loop {
        // SAFETY: `fds` is a live array of `fds.len()` `struct pollfd`
        // (int, short, short), which the kernel reads and whose
        // `revents` it writes before returning.
        let rc = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as u64,
                REPLY_TIMEOUT.as_millis() as i32,
            )
        };
        if rc >= 0 {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let mut ready = [false; 2];
    for (fd, &ci) in fds.iter().zip(&which) {
        ready[ci] = fd.revents != 0;
    }
    Ok(ready)
}

/// Runs one closed-loop phase: the warm-up, then the measured window,
/// then a drain that collects every outstanding reply. `gauge` is read
/// exactly at the window's two edges. Both connections are waited on at
/// once, and each reply is timed as soon as its connection is read.
pub fn drive(
    conns: &mut [Conn; 2],
    live: &mut [Live],
    sched: &Schedule,
    mut gauge: impl FnMut() -> Gauges,
) -> io::Result<PhaseOut> {
    let Schedule {
        depth,
        seed,
        warmup,
        window,
        traced,
    } = *sched;
    let mut rng = Rng::new(seed, u64::MAX);
    let mine: [Vec<u32>; 2] = [
        (0..live.len() as u32).step_by(2).collect(),
        (1..live.len() as u32).step_by(2).collect(),
    ];
    let mut spans = Spans::default();
    let mut latency_ns = Vec::new();
    let (mut requests, mut ops, mut window_ops, mut lost) = (0u64, 0u64, 0u64, 0u64);
    let t0 = Instant::now();
    let (win_start, win_end) = (t0 + warmup, t0 + warmup + window);
    let mut start: Option<(Instant, Gauges)> = None;
    let mut edges = None;
    loop {
        let now = Instant::now();
        if start.is_none() && edges.is_none() && now >= win_start {
            start = Some((Instant::now(), gauge()));
        }
        if edges.is_none() && now >= win_end {
            let (t_start, g0) = start.take().expect("window starts before it ends");
            let g1 = gauge();
            edges = Some(((Instant::now() - t_start).as_secs_f64(), g0, g1));
        }
        let open = edges.is_none();
        if open {
            for (ci, conn) in conns.iter_mut().enumerate() {
                let first_new = conn.pending.len();
                while conn.pending.len() < depth {
                    let t = traced.then(Instant::now);
                    let op = next_op(live, &mine[ci], &mut rng)?;
                    if let Some(t) = t {
                        spans.gen.add(t);
                    }
                    let t = traced.then(Instant::now);
                    conn.push(&op.1.req);
                    if let Some(t) = t {
                        spans.encode.add(t);
                    }
                    conn.pending.push_back(Pending {
                        session: op.0,
                        ops: op.1.ops,
                        sent: now,
                    });
                    requests += 1;
                    ops += u64::from(op.1.ops);
                }
                if !conn.wbuf.is_empty() {
                    // A request's clock starts when its frame is written.
                    let sent = Instant::now();
                    for p in conn.pending.range_mut(first_new..) {
                        p.sent = sent;
                    }
                    conn.flush()?;
                    if traced {
                        spans.write.add(sent);
                    }
                }
            }
        }
        if conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        let t = traced.then(Instant::now);
        let ready = wait_readable(conns)?;
        if let Some(t) = t {
            spans.wait.add(t);
        }
        if ready == [false; 2] {
            lost = conns.iter().map(|c| c.pending.len() as u64).sum();
            break;
        }
        for (ci, conn) in conns.iter_mut().enumerate() {
            if !ready[ci] {
                continue;
            }
            let t = traced.then(Instant::now);
            conn.fill()?;
            if let Some(t) = t {
                spans.read.add(t);
            }
            let at = Instant::now();
            let in_window = start.is_some() && open;
            while let Some((a, b)) = conn.frame() {
                let p = conn
                    .pending
                    .pop_front()
                    .ok_or_else(|| io::Error::other("reply without a request"))?;
                let t = traced.then(Instant::now);
                live[p.session as usize]
                    .replies
                    .push(digest(&conn.rbuf[a..b]));
                if let Some(t) = t {
                    spans.digest.add(t);
                }
                if in_window {
                    window_ops += u64::from(p.ops);
                    latency_ns.push((at - p.sent).as_nanos() as u64);
                }
            }
        }
    }
    let (window_s, g0, g1) = match edges {
        Some(e) => e,
        // Replies were lost before the window closed: no figures.
        None => (0.0, Gauges::default(), Gauges::default()),
    };
    Ok(PhaseOut {
        window_s,
        window_ops,
        latency_ns,
        requests,
        ops,
        lost,
        spans,
        gauges: (g0, g1),
    })
}

/// Picks a session of this connection at random and asks it for a
/// request; sessions with nothing valid to send are skipped.
fn next_op(live: &mut [Live], mine: &[u32], rng: &mut Rng) -> io::Result<(u32, crate::gen::Op)> {
    let first = rng.below(mine.len());
    for k in 0..mine.len() {
        let i = mine[(first + k) % mine.len()];
        let l = &mut live[i as usize];
        if let Some(op) = l.gen.next(l.sid) {
            return Ok((i, op));
        }
    }
    Err(io::Error::other("every session of a connection is blocked"))
}
