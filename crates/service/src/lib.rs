//! # deltaos-service — sharded multi-session deadlock service
//!
//! The paper's DDU/DAU is a *shared* unit: one hardware block arbitrates
//! deadlock questions for every PE in the SoC. This crate is the
//! software analogue at fleet scale — one service owning many
//! independent RAG **sessions**, sharded across pinned per-core loops,
//! each session backed by its own persistent incremental
//! [`DetectEngine`](deltaos_core::engine::DetectEngine) so the
//! epoch/journal/result-cache machinery pays off across batches.
//!
//! Layering:
//!
//! * [`session`] — one RAG + engine, applying [`proto::Event`]s in order.
//! * [`broker`] — per-session deadlock-*avoidance* sessions: clients
//!   acquire/release through the wire and the Algorithm-3 avoider decides,
//!   deferring (blocking) conflicting acquires until a release frees them.
//! * [`shard`] — one shard's deadlock unit: session and broker tables,
//!   parked waiters, admission control, durability and counters.
//! * [`durable`] — opt-in persistence: per-shard WAL + checkpoints via
//!   `deltaos-store`, bit-identical recovery, group-commit scheduling.
//! * [`replica`] — the WAL-streaming follower: a tailer pulling wire
//!   `Subscribe` segments into a replica-mode runtime, heartbeat death
//!   detection and epoch-fenced promotion.
//! * [`proto`] — the length-prefixed binary wire protocol with a total,
//!   panic-free decoder.
//! * [`core_runtime`] — the runtime: N pinned `poll(2)` loops owning
//!   their shards outright and executing them inline, with connection
//!   migration (fd hand-off) to the owning loop, self-pipe-woken
//!   cross-core forwarding, and the in-process [`Client`].
//! * [`tcp`] — the blocking [`TcpClient`] for the wire protocol.
//!
//! The crate is unix-only: the runtime drives sockets with `poll(2)`.
//!
//! ```
//! use deltaos_service::{CoreConfig, CoreRuntime, Event, Request, Response};
//! use deltaos_core::{ProcId, ResId};
//!
//! let runtime = CoreRuntime::bind("127.0.0.1:0", CoreConfig::default()).unwrap();
//! let client = runtime.client();
//! let Response::Opened(session) = client.call(Request::Open {
//!     resources: 8,
//!     processes: 8,
//! }) else {
//!     panic!("open refused");
//! };
//! let reply = client.call(Request::Batch {
//!     session,
//!     events: vec![
//!         Event::Grant { q: ResId(0), p: ProcId(0) },
//!         Event::WouldDeadlock { p: ProcId(1), q: ResId(0) },
//!     ],
//! });
//! assert!(matches!(reply, Response::Batch(_)));
//! runtime.stop();
//! ```

pub mod broker;
pub mod core_runtime;
pub mod durable;
pub mod proto;
pub mod replica;
pub mod session;
pub mod shard;
pub mod tcp;

pub use broker::{Broker, BrokerCounters};
pub use core_runtime::{Client, CoreConfig, CoreRuntime};
pub use deltaos_store::FsyncPolicy;
pub use durable::{DurabilityConfig, RecoveryInfo};
pub use proto::{
    AvoidanceMode, CoreStats, ErrorCode, Event, EventResult, FrontendStats, RejectReason,
    ReplStatus, Request, Response, SessionId, ShardStats, WireError, MAX_BATCH, MAX_FRAME,
};
pub use replica::{ReplicaTailer, TailerConfig, TailerReport};
pub use session::{BatchTally, Session};
pub use shard::ServiceError;
pub use tcp::TcpClient;
