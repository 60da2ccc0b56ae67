//! The ingest bus: per-tenant folds, cursors, bounded queues, and
//! quarantine — the daemon's absorption state machine, with no sockets in
//! sight (the TCP layer in [`crate::server`] is a thin shell over this).
//!
//! # The cursor contract
//!
//! Every `(tenant, session)` pair owns a **cursor**: the next stream
//! sequence number the bus will admit. The cursor advances *only* when a
//! frame is accepted into the tenant's queue, and the server only ever
//! reports the cursor in `ACK`/`WELCOME` replies. Everything robust about
//! the daemon falls out of this single invariant:
//!
//! - **No duplicate absorption.** A retransmitted or duplicated frame
//!   arrives with `seq < cursor` and is dropped on sight — reconnecting
//!   agents resume from the `WELCOME` cursor, so a frame that survived a
//!   torn connection is never folded twice.
//! - **Shedding loses nothing.** When a tenant's bounded queue is full,
//!   the frame is shed *without advancing the cursor* — i.e. dropped
//!   un-acked. The sender's end-of-stream `ACK` shows the stall and it
//!   retransmits from the cursor; [`ssfa_pipeline::RunHealth`] counts the
//!   shed volume as deferred work, not loss.
//! - **Reordering is absorbed, not misfolded.** Frames up to
//!   [`BusConfig::reorder_window`] ahead of the cursor wait in a
//!   per-session buffer and are admitted in order the moment the gap
//!   fills; anything further out is shed un-acked as above.
//!
//! # Quarantine
//!
//! Each tenant classifies under its own [`Strictness`]. A strict tenant
//! whose stream yields a corrupt inner frame or a classification error is
//! **quarantined**: its fold stops accepting, the failure is recorded as a
//! [`ChunkQuarantine`] in its own `RunHealth`, and subsequent `ACK`s carry
//! the reason so its agents stop retransmitting. Other tenants never
//! observe any of this — the blast radius of a poisoned stream is exactly
//! one tenant, the paper's argument about fault isolation domains applied
//! to the analyzer itself.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use ssfa_core::StudyFold;
use ssfa_logs::frame::FrameHeader;
use ssfa_logs::{Classifier, Strictness};
use ssfa_model::SystemId;
use ssfa_pipeline::{ChunkQuarantine, JsonSummarySink, RunHealth, Sink};

use crate::wal::{WalRecord, WriteAheadLog};

/// Bus-wide tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Bound on each tenant's ingest queue (frames admitted but not yet
    /// classified). A slow consumer sheds above this — bounded memory is
    /// non-negotiable for a long-running daemon.
    pub queue_capacity: usize,
    /// How many frames ahead of the cursor a session may buffer for
    /// in-order admission (absorbs wire reordering without re-requesting).
    pub reorder_window: u64,
}

impl Default for BusConfig {
    fn default() -> BusConfig {
        BusConfig {
            queue_capacity: 64,
            reorder_window: 8,
        }
    }
}

/// Operational counters for one tenant. These are *volatile* — how many
/// duplicates or sheds occur depends on wire timing — and deliberately
/// kept out of the deterministic summary; they exist for operators and
/// for tests asserting that recovery machinery actually engaged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// `HELLO`s accepted for this tenant (= connections that got to work).
    pub hellos: u64,
    /// Frames admitted into the queue (acked).
    pub frames_admitted: u64,
    /// Frames dropped as already-absorbed (`seq < cursor`).
    pub duplicates_dropped: u64,
    /// Frames buffered out-of-order and later admitted.
    pub reordered_buffered: u64,
    /// Frames shed un-acked (queue full or beyond the reorder window).
    pub frames_shed: u64,
    /// Frames dropped because the tenant was already quarantined.
    pub quarantine_dropped: u64,
}

/// What the bus did with one `DATA` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Accepted and acked: the cursor moved past it.
    Admitted,
    /// Out of order but within the reorder window: held, not yet acked.
    Buffered,
    /// Below the cursor: already absorbed once, dropped.
    Duplicate,
    /// Dropped un-acked (backpressure or beyond the reorder window); the
    /// sender will retransmit after its end-of-stream `ACK`.
    Shed,
    /// Tenant is quarantined; dropped, and the sender learns why from its
    /// next `ACK`.
    Quarantined,
}

/// One session's receive state.
#[derive(Debug, Default)]
struct Session {
    /// Next sequence number to admit.
    cursor: u64,
    /// Out-of-order frames waiting for the gap to fill: `seq → frame`.
    window: BTreeMap<u64, Vec<u8>>,
}

/// One tenant's complete state, behind one lock.
#[derive(Debug)]
struct TenantInner {
    strictness: Strictness,
    sessions: BTreeMap<String, Session>,
    /// Admitted-but-unclassified frames: `(seq, inner frame bytes)`.
    queue: VecDeque<(u64, Vec<u8>)>,
    fold: StudyFold,
    health: RunHealth,
    stats: TenantStats,
    /// `Some(reason)` once quarantined; never cleared.
    quarantined: Option<String>,
    /// Set at drain: the absorber exits once the queue empties.
    closed: bool,
}

/// A tenant cell: state plus the condvar its absorber sleeps on.
#[derive(Debug)]
struct TenantCell {
    inner: Mutex<TenantInner>,
    work: Condvar,
}

/// Everything known about one tenant at drain time.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: String,
    /// The live `JsonSummarySink` document — for a fully-absorbed,
    /// non-quarantined tenant, byte-identical to the offline pipeline's
    /// summary over the same corpus.
    pub summary: Vec<u8>,
    /// The tenant's run-health audit.
    pub health: RunHealth,
    /// Volatile operational counters.
    pub stats: TenantStats,
    /// Quarantine reason, if the tenant was poisoned.
    pub quarantined: Option<String>,
}

/// The multi-tenant ingest bus. Cheap to share: the server hands one
/// `Arc<IngestBus>` to every connection thread.
#[derive(Debug)]
pub struct IngestBus {
    config: BusConfig,
    tenants: Mutex<BTreeMap<String, Arc<TenantCell>>>,
    /// Absorber threads, joined at drain.
    absorbers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Write-ahead log, when the daemon runs durable (`--wal`): every
    /// admitted frame is appended *before* it is acknowledged, so acked
    /// work survives a crash and unlogged work is retransmitted.
    wal: Option<Arc<WriteAheadLog>>,
    /// Set while [`IngestBus::replay_wal`] runs: replayed frames came
    /// *from* the log, so they must not be re-appended to it.
    replaying: AtomicBool,
}

impl IngestBus {
    /// An empty bus.
    pub fn new(config: BusConfig) -> IngestBus {
        IngestBus {
            config,
            tenants: Mutex::new(BTreeMap::new()),
            absorbers: Mutex::new(Vec::new()),
            wal: None,
            replaying: AtomicBool::new(false),
        }
    }

    /// An empty bus that appends every admission to `wal` before acking
    /// it. Pair with [`IngestBus::replay_wal`] at startup to restore the
    /// previous run's admitted stream.
    pub fn with_wal(config: BusConfig, wal: Arc<WriteAheadLog>) -> IngestBus {
        IngestBus {
            wal: Some(wal),
            ..IngestBus::new(config)
        }
    }

    /// Replays records recovered by [`WriteAheadLog::open`] through the
    /// ordinary `hello`/`admit` path — the same cursor and exactly-once
    /// machinery live traffic uses — without re-appending them to the
    /// log. Call before accepting connections. Backpressure is honored
    /// by waiting for the absorbers rather than shedding (a shed here
    /// would drop a frame that was already acknowledged).
    ///
    /// Returns `(frames_admitted, tenants_touched)`.
    pub fn replay_wal(self: &Arc<Self>, records: Vec<WalRecord>) -> (u64, u64) {
        self.replaying.store(true, Ordering::SeqCst);
        let mut frames = 0u64;
        let mut tenants = BTreeSet::new();
        for record in records {
            if self
                .hello(&record.tenant, &record.session, record.strictness)
                .is_err()
            {
                continue;
            }
            tenants.insert(record.tenant.clone());
            loop {
                match self.admit(
                    &record.tenant,
                    &record.session,
                    record.seq,
                    record.frame.clone(),
                ) {
                    Admission::Shed => thread::yield_now(),
                    Admission::Admitted => {
                        frames += 1;
                        break;
                    }
                    // Duplicate (already past the cursor) or quarantined:
                    // nothing further to restore from this record.
                    _ => break,
                }
            }
        }
        self.replaying.store(false, Ordering::SeqCst);
        (frames, tenants.len() as u64)
    }

    /// Appends one about-to-be-admitted frame to the WAL, unless the bus
    /// is volatile or mid-replay. An append failure is returned as the
    /// quarantine reason — a durable daemon must not ack what it cannot
    /// log.
    fn wal_append(
        &self,
        strictness: Strictness,
        tenant: &str,
        session: &str,
        seq: u64,
        frame: &[u8],
    ) -> Result<(), String> {
        let Some(wal) = &self.wal else { return Ok(()) };
        if self.replaying.load(Ordering::Relaxed) {
            return Ok(());
        }
        wal.append(tenant, strictness, session, seq, frame)
            .map_err(|e| format!("wal append failed: {e}"))
    }

    /// Registers (or rejoins) a `(tenant, session)` pair and returns the
    /// authoritative cursor plus any quarantine reason — the `WELCOME`
    /// payload. The first `HELLO` for a tenant fixes its [`Strictness`]
    /// and starts its absorber; a later `HELLO` disagreeing on strictness
    /// is rejected (one tenant, one error policy).
    ///
    /// # Errors
    ///
    /// A human-readable refusal, relayed to the client as `ERROR`.
    pub fn hello(
        self: &Arc<Self>,
        tenant: &str,
        session: &str,
        strictness: Strictness,
    ) -> Result<(u64, Option<String>), String> {
        if tenant.is_empty() || session.is_empty() {
            return Err("tenant and session must be non-empty".to_owned());
        }
        let cell = self.tenant_cell(tenant, Some(strictness));
        let mut inner = cell.inner.lock().expect("tenant lock poisoned");
        if inner.strictness != strictness {
            return Err(format!(
                "tenant `{tenant}` is {:?}; this session asked for {strictness:?}",
                inner.strictness
            ));
        }
        inner.stats.hellos += 1;
        let cursor = inner.sessions.entry(session.to_owned()).or_default().cursor;
        Ok((cursor, inner.quarantined.clone()))
    }

    /// Looks up (creating if asked) a tenant cell, spawning its absorber
    /// on creation.
    fn tenant_cell(self: &Arc<Self>, tenant: &str, create: Option<Strictness>) -> Arc<TenantCell> {
        let mut tenants = self.tenants.lock().expect("bus lock poisoned");
        if let Some(cell) = tenants.get(tenant) {
            return Arc::clone(cell);
        }
        let strictness = create.unwrap_or_default();
        let cell = Arc::new(TenantCell {
            inner: Mutex::new(TenantInner {
                strictness,
                sessions: BTreeMap::new(),
                queue: VecDeque::new(),
                fold: StudyFold::new(),
                health: RunHealth {
                    strictness,
                    ..RunHealth::default()
                },
                stats: TenantStats::default(),
                quarantined: None,
                closed: false,
            }),
            work: Condvar::new(),
        });
        tenants.insert(tenant.to_owned(), Arc::clone(&cell));
        let absorber_cell = Arc::clone(&cell);
        // One long-lived absorber per tenant; pool discipline (tracking,
        // joining at drain) is enforced right here in the bus.
        // lint: allow(no-raw-spawn) per-tenant absorber, joined in drain()
        let handle = thread::spawn(move || absorb_loop(&absorber_cell));
        self.absorbers
            .lock()
            .expect("absorber registry poisoned")
            .push(handle);
        cell
    }

    /// Admits one `DATA` frame for `(tenant, session)` under the cursor
    /// contract (see the module docs). Never blocks on classification —
    /// admission is a queue push; the tenant's absorber classifies
    /// asynchronously.
    pub fn admit(&self, tenant: &str, session: &str, seq: u64, frame: Vec<u8>) -> Admission {
        let cell = {
            let tenants = self.tenants.lock().expect("bus lock poisoned");
            match tenants.get(tenant) {
                Some(cell) => Arc::clone(cell),
                None => return Admission::Quarantined,
            }
        };
        let mut inner = cell.inner.lock().expect("tenant lock poisoned");
        if inner.quarantined.is_some() {
            inner.stats.quarantine_dropped += 1;
            return Admission::Quarantined;
        }
        let Some(session_state) = inner.sessions.get(session) else {
            return Admission::Quarantined;
        };
        let cursor = session_state.cursor;
        if seq < cursor {
            inner.stats.duplicates_dropped += 1;
            return Admission::Duplicate;
        }
        if seq == cursor {
            if inner.queue.len() >= self.config.queue_capacity {
                shed(&mut inner, &frame);
                return Admission::Shed;
            }
            let strictness = inner.strictness;
            // Durability before acknowledgment: the append happens before
            // the frame can advance the cursor. If the log refuses, the
            // tenant quarantines — a durable daemon must not ack what it
            // cannot replay.
            if let Err(reason) = self.wal_append(strictness, tenant, session, seq, &frame) {
                inner.quarantined = Some(reason);
                inner.queue.clear();
                return Admission::Quarantined;
            }
            inner.queue.push_back((seq, frame));
            inner.stats.frames_admitted += 1;
            // The gap just filled: admit consecutive buffered frames
            // while the queue has room. Frames that stay buffered remain
            // un-acked and will be retransmitted if never admitted.
            let mut next = cursor + 1;
            let mut wal_failure = None;
            loop {
                if inner.queue.len() >= self.config.queue_capacity {
                    break;
                }
                let buffered = inner
                    .sessions
                    .get_mut(session)
                    .expect("session checked above")
                    .window
                    .remove(&next);
                let Some(frame) = buffered else {
                    break;
                };
                if let Err(reason) = self.wal_append(strictness, tenant, session, next, &frame) {
                    wal_failure = Some(reason);
                    break;
                }
                inner.queue.push_back((next, frame));
                inner.stats.frames_admitted += 1;
                next += 1;
            }
            inner
                .sessions
                .get_mut(session)
                .expect("session checked above")
                .cursor = next;
            if let Some(reason) = wal_failure {
                inner.quarantined = Some(reason);
                inner.queue.clear();
                return Admission::Quarantined;
            }
            cell.work.notify_one();
            return Admission::Admitted;
        }
        if seq <= cursor.saturating_add(self.config.reorder_window) {
            let session_state = inner
                .sessions
                .get_mut(session)
                .expect("session checked above");
            session_state.window.insert(seq, frame);
            inner.stats.reordered_buffered += 1;
            return Admission::Buffered;
        }
        shed(&mut inner, &frame);
        Admission::Shed
    }

    /// The `ACK` payload for `(tenant, session)`: authoritative cursor
    /// plus quarantine reason.
    pub fn cursor(&self, tenant: &str, session: &str) -> (u64, Option<String>) {
        let tenants = self.tenants.lock().expect("bus lock poisoned");
        let Some(cell) = tenants.get(tenant) else {
            return (0, None);
        };
        let inner = cell.inner.lock().expect("tenant lock poisoned");
        let cursor = inner.sessions.get(session).map_or(0, |s| s.cursor);
        (cursor, inner.quarantined.clone())
    }

    /// Renders a tenant's *live* run summary — the same
    /// [`JsonSummarySink`] document the offline pipeline emits, built
    /// from a snapshot of the fold mid-stream.
    ///
    /// # Errors
    ///
    /// Unknown tenant, relayed to the client as `ERROR`.
    pub fn status(&self, tenant: &str) -> Result<Vec<u8>, String> {
        let (fold, health) = self.snapshot(tenant)?;
        let study = fold.finish();
        let mut sink = JsonSummarySink::new(Vec::new());
        sink.consume(&study, &health)
            .expect("Vec<u8> writes are infallible");
        Ok(sink.into_inner())
    }

    /// Renders a tenant's live [`RunHealth`] audit as text. The shedding
    /// counters are always appended as their own `key=value` lines (even
    /// at zero) so operators and scrapers can watch backpressure without
    /// parsing the prose report.
    ///
    /// # Errors
    ///
    /// Unknown tenant.
    pub fn health_text(&self, tenant: &str) -> Result<String, String> {
        let (_, health) = self.snapshot(tenant)?;
        Ok(format!(
            "{health}\nframes_shed={}\nlines_shed={}\n",
            health.frames_shed, health.lines_shed
        ))
    }

    /// Tenant ids currently registered.
    pub fn tenant_ids(&self) -> Vec<String> {
        self.tenants
            .lock()
            .expect("bus lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    fn snapshot(&self, tenant: &str) -> Result<(StudyFold, RunHealth), String> {
        let tenants = self.tenants.lock().expect("bus lock poisoned");
        let cell = tenants
            .get(tenant)
            .ok_or_else(|| format!("unknown tenant `{tenant}`"))?;
        let inner = cell.inner.lock().expect("tenant lock poisoned");
        Ok((inner.fold.clone(), inner.health.clone()))
    }

    /// Graceful drain: lets every absorber finish its queue, joins them
    /// all, and returns one [`TenantReport`] per tenant. The bus accepts
    /// no new work afterwards (admissions find tenants closed —
    /// the server stops its connection threads first).
    pub fn drain(&self) -> Vec<TenantReport> {
        let cells: Vec<(String, Arc<TenantCell>)> = {
            let tenants = self.tenants.lock().expect("bus lock poisoned");
            tenants
                .iter()
                .map(|(k, v)| (k.clone(), Arc::clone(v)))
                .collect()
        };
        for (_, cell) in &cells {
            let mut inner = cell.inner.lock().expect("tenant lock poisoned");
            inner.closed = true;
            cell.work.notify_all();
        }
        let handles: Vec<_> =
            std::mem::take(&mut *self.absorbers.lock().expect("absorber registry poisoned"));
        for handle in handles {
            handle.join().expect("absorber thread panicked");
        }
        cells
            .into_iter()
            .map(|(tenant, cell)| {
                let inner = cell.inner.lock().expect("tenant lock poisoned");
                let study = inner.fold.clone().finish();
                let mut sink = JsonSummarySink::new(Vec::new());
                sink.consume(&study, &inner.health)
                    .expect("Vec<u8> writes are infallible");
                TenantReport {
                    tenant,
                    summary: sink.into_inner(),
                    health: inner.health.clone(),
                    stats: inner.stats,
                    quarantined: inner.quarantined.clone(),
                }
            })
            .collect()
    }
}

/// Sheds one frame un-acked, accounting its deferred volume.
fn shed(inner: &mut TenantInner, frame: &[u8]) {
    inner.stats.frames_shed += 1;
    inner.health.frames_shed += 1;
    if let Ok(header) = FrameHeader::parse(frame) {
        inner.health.lines_shed += header.line_count;
    }
}

/// One tenant's absorber: pops admitted frames, classifies them *outside*
/// the tenant lock (classification dominates; admission must never wait
/// on it), and folds the result in. Exits when the bus drains.
fn absorb_loop(cell: &TenantCell) {
    loop {
        let (seq, frame, strictness) = {
            let mut inner = cell.inner.lock().expect("tenant lock poisoned");
            loop {
                if let Some((seq, frame)) = inner.queue.pop_front() {
                    break (seq, frame, inner.strictness);
                }
                if inner.closed {
                    return;
                }
                inner = cell.work.wait(inner).expect("tenant lock poisoned");
            }
        };
        let outcome = classify_frame(&frame, strictness);
        let mut inner = cell.inner.lock().expect("tenant lock poisoned");
        if inner.quarantined.is_some() {
            continue;
        }
        inner.health.shards_total += 1;
        inner.health.chunks_total += 1;
        match outcome {
            Ok((input, shard_health)) => {
                inner.fold.push(input);
                inner.health.shards_processed += 1;
                inner.health.chunks_processed += 1;
                inner.health.add_line_counts(&shard_health);
            }
            Err((reason, system, lines)) => match strictness {
                // Strict: the tenant is poisoned. Record the loss exactly
                // and stop absorbing — the queue is abandoned, agents
                // learn the reason from their next ACK.
                Strictness::Strict => {
                    inner.health.quarantined.push(ChunkQuarantine {
                        chunk: seq as usize,
                        shards: seq as usize..seq as usize + 1,
                        systems: system.into_iter().collect(),
                        attempts: 1,
                        reason: reason.clone(),
                        lines_lost: lines,
                    });
                    inner.quarantined = Some(format!("frame {seq}: {reason}"));
                    inner.queue.clear();
                }
                // Lenient: a frame that cannot even be decoded is one
                // dropped shard, counted, stream continues.
                Strictness::Lenient => {
                    inner.health.shards_dropped += 1;
                    inner.health.chunks_processed += 1;
                }
            },
        }
    }
}

/// Decodes and classifies one inner corpus frame. On error, reports the
/// reason plus whatever identity/loss accounting the frame header still
/// offers.
///
/// The classification itself inherits the zero-copy hot path (DESIGN
/// §13): `feed_bytes` validates the payload as UTF-8 once, splits lines
/// with a byte scan, and parses each into a borrowed
/// [`ssfa_logs::LogLineRef`] over the frame's own bytes — the daemon
/// allocates per frame, never per line.
#[allow(clippy::type_complexity)]
fn classify_frame(
    frame: &[u8],
    strictness: Strictness,
) -> Result<
    (ssfa_logs::AnalysisInput, ssfa_logs::ShardHealth),
    (String, Option<SystemId>, Option<u64>),
> {
    let (header, text) = match ssfa_logs::frame::decode_frame_text(frame) {
        Ok(decoded) => decoded,
        Err(e) => {
            let identity = FrameHeader::parse(frame).ok();
            return Err((
                format!("inner frame: {e}"),
                identity.map(|h| SystemId::from(h.system_id)),
                identity.map(|h| h.line_count),
            ));
        }
    };
    let mut classifier = Classifier::with_strictness(strictness);
    let fed = classifier
        .feed_bytes(text.as_bytes())
        .err()
        .map(|e| e.to_string());
    if let Some(reason) = fed {
        return Err((
            reason,
            Some(SystemId::from(header.system_id)),
            Some(header.line_count),
        ));
    }
    match classifier.finish_with_health() {
        Ok(ok) => Ok(ok),
        Err(e) => Err((
            e.to_string(),
            Some(SystemId::from(header.system_id)),
            Some(header.line_count),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::frame::encode_frame;

    fn bus(capacity: usize, window: u64) -> Arc<IngestBus> {
        Arc::new(IngestBus::new(BusConfig {
            queue_capacity: capacity,
            reorder_window: window,
        }))
    }

    /// A tiny but classifiable shard: configuration records only.
    fn config_frame(system: u32, lines: &str) -> Vec<u8> {
        let mut out = Vec::new();
        let count = lines.lines().count() as u64;
        encode_frame(&mut out, system, count, lines.as_bytes());
        out
    }

    fn empty_frame(system: u32) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, system, 0, b"");
        out
    }

    #[test]
    fn duplicate_and_reordered_frames_absorb_exactly_once() {
        let bus = bus(16, 4);
        bus.hello("t", "s", Strictness::Lenient).unwrap();
        // Out of order: 1 buffers, 0 admits and drains the window.
        assert_eq!(bus.admit("t", "s", 1, empty_frame(1)), Admission::Buffered);
        assert_eq!(bus.admit("t", "s", 0, empty_frame(0)), Admission::Admitted);
        // Both are now acked.
        assert_eq!(bus.cursor("t", "s").0, 2);
        // A late duplicate of either is refused.
        assert_eq!(bus.admit("t", "s", 0, empty_frame(0)), Admission::Duplicate);
        assert_eq!(bus.admit("t", "s", 1, empty_frame(1)), Admission::Duplicate);
        let report = bus.drain().remove(0);
        assert_eq!(report.health.shards_total, 2);
        assert_eq!(report.health.shards_processed, 2);
        assert_eq!(report.stats.duplicates_dropped, 2);
        assert_eq!(report.stats.reordered_buffered, 1);
    }

    #[test]
    fn beyond_window_frames_are_shed_unacked() {
        let bus = bus(16, 2);
        bus.hello("t", "s", Strictness::Lenient).unwrap();
        let far = empty_frame(9);
        assert_eq!(bus.admit("t", "s", 7, far), Admission::Shed);
        let (cursor, _) = bus.cursor("t", "s");
        assert_eq!(cursor, 0, "shed frames must not advance the cursor");
        let report = bus.drain().remove(0);
        assert_eq!(report.health.frames_shed, 1);
        assert_eq!(report.stats.frames_shed, 1);
    }

    #[test]
    fn full_queue_sheds_with_exact_line_accounting() {
        // Capacity 1 and a stalled absorber: the second in-order frame
        // must shed, and its line count must land in lines_shed.
        let bus = bus(1, 4);
        bus.hello("t", "s", Strictness::Lenient).unwrap();
        // Stall the absorber by grabbing the cell lock through a long
        // admission burst — simpler: rely on capacity 1 and immediate
        // second admit racing the absorber. To make it deterministic,
        // fill the queue while the absorber is still waking up: admit one
        // frame, then immediately try more until one sheds.
        let mut shed_lines = 0u64;
        let mut seq = 0u64;
        let mut sheds = 0;
        while sheds == 0 && seq < 10_000 {
            let frame = config_frame(seq as u32, "x\n");
            match bus.admit("t", "s", seq, frame) {
                Admission::Admitted => seq += 1,
                Admission::Shed => {
                    shed_lines += 1;
                    sheds += 1;
                }
                other => panic!("unexpected admission {other:?}"),
            }
        }
        let report = bus.drain().remove(0);
        if sheds > 0 {
            assert_eq!(report.health.frames_shed, sheds);
            assert_eq!(report.health.lines_shed, shed_lines);
            // Shed ≠ lost: the cursor stayed behind, so the volume is
            // deferred, and what *was* admitted is fully absorbed.
            assert_eq!(
                report.health.shards_total as u64 + report.health.frames_shed,
                seq + report.health.frames_shed
            );
        }
    }

    #[test]
    fn strict_tenant_quarantines_alone() {
        let bus = bus(16, 4);
        bus.hello("good", "s", Strictness::Strict).unwrap();
        bus.hello("bad", "s", Strictness::Strict).unwrap();
        // Poison: hand the bus a body that is not an inner frame at all.
        assert_eq!(
            bus.admit("bad", "s", 0, b"junk".to_vec()),
            Admission::Admitted
        );
        assert_eq!(
            bus.admit("good", "s", 0, empty_frame(0)),
            Admission::Admitted
        );
        let reports = bus.drain();
        let bad = reports.iter().find(|r| r.tenant == "bad").unwrap();
        let good = reports.iter().find(|r| r.tenant == "good").unwrap();
        assert!(bad.quarantined.is_some(), "bad tenant must quarantine");
        assert_eq!(bad.health.chunks_quarantined(), 1);
        assert!(good.quarantined.is_none(), "good tenant must be untouched");
        assert_eq!(good.health.shards_processed, 1);
        assert!(good.health.is_clean());
    }

    #[test]
    fn lenient_tenant_counts_undecodable_frames_as_dropped_shards() {
        let bus = bus(16, 4);
        bus.hello("t", "s", Strictness::Lenient).unwrap();
        assert_eq!(
            bus.admit("t", "s", 0, b"junk".to_vec()),
            Admission::Admitted
        );
        assert_eq!(bus.admit("t", "s", 1, empty_frame(1)), Admission::Admitted);
        let report = bus.drain().remove(0);
        assert!(report.quarantined.is_none());
        assert_eq!(report.health.shards_total, 2);
        assert_eq!(report.health.shards_dropped, 1);
        assert_eq!(report.health.shards_processed, 1);
    }

    #[test]
    fn strictness_conflict_is_refused() {
        let bus = bus(16, 4);
        bus.hello("t", "a", Strictness::Strict).unwrap();
        assert!(bus.hello("t", "b", Strictness::Lenient).is_err());
        // Same policy is fine, and the new session starts at cursor 0.
        let (cursor, quarantined) = bus.hello("t", "b", Strictness::Strict).unwrap();
        assert_eq!((cursor, quarantined), (0, None));
        bus.drain();
    }
}
