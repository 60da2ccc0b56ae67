//! `ssfad` — the always-on analysis daemon.
//!
//! The FAST'08 study's headline result is that disks are *not* the
//! dominant contributor to storage subsystem failures: physical
//! interconnects (27–68% of failures) and protocol stacks (5–10%) carry
//! much of the blame. A reproduction that only ever analyzes pristine
//! in-process corpora therefore misses the regime the paper is about.
//! This crate turns the one-shot pipeline into a long-running service
//! whose *own ingest path* is built to survive the failure classes the
//! study catalogs:
//!
//! - **Transport faults** — agents stream shard frames over TCP using the
//!   checksummed `SSFC` codec ([`ssfa_logs::frame`]) as the wire
//!   envelope; mid-frame disconnects, duplicated/reordered frames, and
//!   garbage preambles are detected by framing and checksums, never
//!   absorbed ([`wire`]).
//! - **Producer faults** — stalled writers are cut off by heartbeat-based
//!   idle timeouts; dead agents reconnect with capped exponential backoff
//!   and seeded jitter ([`clock`]), resuming from a per-session cursor so
//!   nothing is absorbed twice ([`bus`]).
//! - **Operator/data faults** — each tenant streams into its own
//!   [`ssfa_core::StudyFold`] behind its own [`ssfa_logs::Strictness`]
//!   policy; a corrupt stream quarantines *that tenant only* ([`bus`]).
//! - **Overload** — per-tenant ingest queues are bounded; a slow consumer
//!   sheds frames *without acknowledging them* (the sender's cursor does
//!   not advance, so shed data is retransmitted, not lost), with the
//!   shedding accounted in [`ssfa_pipeline::RunHealth`].
//!
//! The deterministic soak test (`tests/daemon_soak.rs` at the workspace
//! root) drives multiple tenants over loopback TCP through seeded wire
//! faults ([`ssfa_logs::faults::WireFaultInjector`]) and proves every
//! surviving tenant's live summary is *byte-identical* to the offline
//! [`ssfa_pipeline::Pipeline::run_source`] result over the same corpus.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod bus;
pub mod clock;
pub mod server;
pub mod wal;
pub mod wire;

pub use agent::{AgentConfig, AgentError, AgentReport, ReplayAgent};
pub use bus::{Admission, BusConfig, IngestBus, TenantReport, TenantStats};
pub use clock::{Backoff, BackoffConfig, Stopwatch};
pub use server::{DrainReport, Server, ServerConfig, ServerHandle};
pub use wal::{SetAside, WalRecord, WriteAheadLog, DEFAULT_SEGMENT_BYTES};
pub use wire::{
    expect_message, read_message, write_message, Cursor, Hello, Message, MessageKind, WireError,
};
