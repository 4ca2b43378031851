//! Blocking TCP client for the service wire protocol, plus the mapping
//! from per-shard [`Stats`] to the wire's [`ShardStats`] rows.
//!
//! Each call is one length-prefixed request frame of [`crate::proto`]
//! answered by one response frame; replies to pipelined requests arrive
//! in submission order.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};

use deltaos_sim::Stats;

use crate::proto::{
    decode_response, encode_request_into, read_frame_into, write_frame, Request, Response,
    ShardStats, WireError,
};

/// Maps per-shard [`Stats`] snapshots to the wire's [`ShardStats`] rows.
pub(crate) fn stats_rows(per_shard: &[Stats]) -> Vec<ShardStats> {
    per_shard
        .iter()
        .map(|s| ShardStats {
            shard: s.counter("service.shard_id") as u16,
            events: s.counter("service.events"),
            probes: s.counter("service.probes"),
            cache_hits: s.counter("service.cache_hits"),
            dense_reductions: s.counter("service.dense_reductions"),
            sparse_reductions: s.counter("service.sparse_reductions"),
            live_edges: s.counter("service.live_edges"),
            density_permille: s.counter("service.density_permille"),
            broker_grants: s.counter("service.broker_grants"),
            broker_deferrals: s.counter("service.broker_deferrals"),
            broker_give_ups: s.counter("service.broker_give_ups"),
            broker_livelocks: s.counter("service.broker_livelocks"),
            broker_waiters: s.counter("service.broker_waiters"),
            pipeline_fsyncs: s.counter("store.fsyncs"),
            pipeline_batches: s.counter("store.pipeline_batches"),
            pipeline_batch_max: s.counter("store.pipeline_batch_max"),
            pipeline_withheld_peak: s.counter("store.pipeline_withheld_peak"),
            pipeline_commit_p50_us: s.counter("store.pipeline_commit_p50_us"),
            pipeline_commit_p99_us: s.counter("store.pipeline_commit_p99_us"),
            repl_lag_records: s.counter("store.repl_lag_records"),
            follower_acked_seq: s.counter("store.follower_acked_seq"),
            epoch: s.counter("store.epoch"),
            promotions: s.counter("store.promotions"),
        })
        .collect()
}

/// Blocking TCP client speaking the service wire protocol.
///
/// [`TcpClient::call`] is the strict request/response path;
/// [`TcpClient::send`] / [`TcpClient::recv`] split it so a caller can
/// **pipeline** — write several requests before reading the replies,
/// which arrive in submission order, so the k-th response always
/// answers the k-th request.
#[derive(Debug)]
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Reusable encode scratch — no allocation per sent frame.
    wscratch: Vec<u8>,
    /// Reusable frame-payload scratch — no allocation per received frame.
    rscratch: Vec<u8>,
}

impl TcpClient {
    /// Connects to a server speaking the service wire protocol.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            wscratch: Vec::new(),
            rscratch: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing, transport or decoding.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Writes (and flushes) one request frame without waiting for the
    /// response; pair with [`TcpClient::recv`], one recv per send, in
    /// order.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing or transport.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        self.wscratch.clear();
        encode_request_into(req, &mut self.wscratch);
        write_frame(&mut self.writer, &self.wscratch)
    }

    /// Blocks for the next response frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing, transport or decoding.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        read_frame_into(&mut self.reader, &mut self.rscratch)?;
        decode_response(&self.rscratch)
    }
}
