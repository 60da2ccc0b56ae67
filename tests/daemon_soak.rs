//! The daemon soak: multiple tenants streaming corpora over loopback TCP
//! — one clean, one through heavy seeded wire faults, one poisoned — must
//! converge to summaries **byte-identical** to the offline
//! `Pipeline::run_source` result for every surviving tenant, with
//! quarantine isolated to the poisoned tenant and its loss accounted
//! exactly.
//!
//! This is the daemon's acceptance test. The offline oracle runs with
//! `threads(1).chunk_systems(1)` because the ingest bus absorbs one frame
//! at a time (1 frame = 1 shard = 1 chunk in its `RunHealth`); the
//! summaries must then agree byte for byte, which simultaneously proves
//! the cursor contract (a single double-absorbed or dropped frame would
//! change the counts) and the shed-is-not-loss claim (frames shed under
//! backpressure are retransmitted, so they never dent the final numbers).

use std::path::{Path, PathBuf};

use ssfa::daemon::{
    AgentConfig, BackoffConfig, BusConfig, ReplayAgent, Server, ServerConfig, ServerHandle,
    TenantReport,
};
use ssfa::logs::frame::FrameHeader;
use ssfa::logs::{CascadeStyle, CorpusReader, CorpusWriter, Strictness, WireFaultSpec, HEADER_LEN};
use ssfa::pipeline::{JsonSummarySink, RunHealth, Sink};
use ssfa::{FileSource, Pipeline};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-daemon-soak-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a small seeded corpus and returns the pipeline that describes
/// it (the oracle reruns the same configuration offline).
fn build_corpus(dir: &Path, seed: u64) -> Pipeline {
    let base = Pipeline::new().scale(0.001).seed(seed);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(dir)
        .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
        .expect("corpus builds");
    base
}

/// The offline oracle: the same corpus through `Pipeline::run_source`,
/// one shard per chunk on one thread, rendered by the same
/// `JsonSummarySink` the daemon uses.
fn oracle_summary(base: &Pipeline, dir: &Path, strictness: Strictness) -> (Vec<u8>, RunHealth) {
    let source = FileSource::open(dir).expect("oracle corpus opens");
    let (study, _, health) = base
        .clone()
        .threads(1)
        .chunk_systems(1)
        .strictness(strictness)
        .run_source(&source)
        .expect("offline oracle runs");
    let mut sink = JsonSummarySink::new(Vec::new());
    sink.consume(&study, &health)
        .expect("Vec<u8> writes are infallible");
    (sink.into_inner(), health)
}

fn tenant<'a>(reports: &'a [TenantReport], name: &str) -> &'a TenantReport {
    reports
        .iter()
        .find(|r| r.tenant == name)
        .unwrap_or_else(|| panic!("tenant {name} missing from drain report"))
}

fn soak_server(queue_capacity: usize) -> ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        heartbeat_ms: 25,
        idle_ticks_limit: 3,
        bus: BusConfig {
            queue_capacity,
            reorder_window: 8,
        },
        wal: None,
    })
    .expect("bind loopback")
}

/// A durable soak server: same tuning, admissions write-ahead-logged to
/// `wal`.
fn durable_server(queue_capacity: usize, wal: &Path) -> ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        heartbeat_ms: 25,
        idle_ticks_limit: 3,
        bus: BusConfig {
            queue_capacity,
            reorder_window: 8,
        },
        wal: Some(wal.to_path_buf()),
    })
    .expect("bind loopback")
}

#[test]
fn faulted_multi_tenant_soak_converges_to_offline_summaries() {
    let tmp_a = TempDir::new("tenant-a");
    let tmp_b = TempDir::new("tenant-b");
    let tmp_c = TempDir::new("tenant-c");
    let base_a = build_corpus(&tmp_a.0, 11);
    let base_b = build_corpus(&tmp_b.0, 22);
    build_corpus(&tmp_c.0, 33);

    // A deliberately small queue so fast senders outrun the absorbers and
    // the backpressure/shed/retransmit path gets real exercise.
    let server = soak_server(8);
    let addr = server.addr();

    // tenant-a: a clean control stream.
    let agent_a =
        ReplayAgent::from_corpus(AgentConfig::clean("tenant-a", "s1"), &tmp_a.0).expect("corpus a");

    // tenant-b: every wire fault class at once — cuts, stalls past the
    // idle window, duplicates, reorders, garbage bursts — on a tight
    // seeded backoff schedule.
    let mut config_b = AgentConfig::clean("tenant-b", "s1");
    config_b.faults = WireFaultSpec {
        cut_per_frame: 0.05,
        stall_per_frame: 0.02,
        duplicate_per_frame: 0.08,
        swap_per_frame: 0.08,
        garbage_per_frame: 0.04,
    };
    config_b.fault_seed = 0xB0B;
    config_b.stall_ms = 120; // > 25ms * 3 ticks: a stall draws a hangup
    config_b.max_attempts = 64;
    config_b.backoff = BackoffConfig {
        base_ms: 2,
        cap_ms: 20,
        seed: 7,
    };
    let agent_b = ReplayAgent::from_corpus(config_b, &tmp_b.0).expect("corpus b");

    // tenant-c: a strict tenant whose stream carries one poisoned inner
    // frame (payload byte flipped after the header was written, so the
    // frame checksum convicts it on arrival).
    let poison_at = 5usize;
    let reader_c = CorpusReader::open(&tmp_c.0).expect("corpus c opens");
    let mut frames_c: Vec<Vec<u8>> = (0..reader_c.shard_count())
        .map(|s| reader_c.read_shard_frame(s).expect("shard reads"))
        .collect();
    assert!(frames_c.len() > poison_at, "corpus c too small to poison");
    let poisoned_lines = FrameHeader::parse(&frames_c[poison_at])
        .expect("intact header")
        .line_count;
    frames_c[poison_at][HEADER_LEN + 3] ^= 0x40;
    let agent_c = ReplayAgent::new(AgentConfig::clean("tenant-c", "s1"), frames_c);

    let total_a = agent_a.stream_len();
    let total_b = agent_b.stream_len();

    #[expect(
        clippy::disallowed_methods,
        reason = "soak harness: three concurrent agents, all joined below"
    )]
    let run_a = std::thread::spawn(move || agent_a.run(addr));
    #[expect(
        clippy::disallowed_methods,
        reason = "soak harness: three concurrent agents, all joined below"
    )]
    let run_b = std::thread::spawn(move || agent_b.run(addr));
    #[expect(
        clippy::disallowed_methods,
        reason = "soak harness: three concurrent agents, all joined below"
    )]
    let run_c = std::thread::spawn(move || agent_c.run(addr));
    let report_a = run_a.join().expect("agent a").expect("tenant-a replay");
    let report_b = run_b.join().expect("agent b").expect("tenant-b replay");
    // tenant-c's agent-side outcome is racy (the final ACK may beat the
    // absorber to the poison frame); the *drained* state below is not.
    let _ = run_c.join().expect("agent c");

    assert!(report_a.quarantined.is_none());
    assert_eq!(report_a.final_cursor, total_a);
    assert_eq!(report_a.ledger.faults_injected(), 0);

    assert!(report_b.quarantined.is_none());
    assert_eq!(report_b.final_cursor, total_b);
    assert!(
        report_b.ledger.faults_injected() > 0,
        "fault plan was a no-op: {:?}",
        report_b.ledger
    );
    assert!(
        report_b.connections > 1,
        "wire faults must have forced at least one reconnect: {report_b:?}"
    );

    let drained = server.finish();
    assert_eq!(drained.tenants.len(), 3);

    // Surviving tenants: byte-identical to the offline pipeline.
    let (oracle_a, oracle_health_a) = oracle_summary(&base_a, &tmp_a.0, Strictness::Strict);
    let (oracle_b, oracle_health_b) = oracle_summary(&base_b, &tmp_b.0, Strictness::Strict);
    let a = tenant(&drained.tenants, "tenant-a");
    let b = tenant(&drained.tenants, "tenant-b");
    assert!(a.quarantined.is_none());
    assert!(b.quarantined.is_none());
    assert_eq!(
        String::from_utf8_lossy(&a.summary),
        String::from_utf8_lossy(&oracle_a),
        "tenant-a summary diverged from the offline oracle"
    );
    assert_eq!(
        String::from_utf8_lossy(&b.summary),
        String::from_utf8_lossy(&oracle_b),
        "tenant-b summary diverged from the offline oracle despite faults"
    );
    assert_eq!(a.health.lines_seen, oracle_health_a.lines_seen);
    assert_eq!(b.health.lines_seen, oracle_health_b.lines_seen);
    assert_eq!(b.health.shards_processed as u64, total_b);
    assert_eq!(b.health.lines_skipped_total(), 0);
    // Shed accounting is volatile (it depends on absorber timing) but
    // must be internally consistent between the operator counters and the
    // health audit.
    assert_eq!(a.health.frames_shed, a.stats.frames_shed);
    assert_eq!(b.health.frames_shed, b.stats.frames_shed);

    // The poisoned tenant quarantined alone, with exact loss accounting.
    let c = tenant(&drained.tenants, "tenant-c");
    let reason = c.quarantined.as_deref().expect("tenant-c must quarantine");
    assert!(
        reason.starts_with(&format!("frame {poison_at}:")),
        "wrong frame convicted: {reason}"
    );
    assert_eq!(c.health.chunks_quarantined(), 1);
    let q = &c.health.quarantined[0];
    assert_eq!(q.chunk, poison_at);
    assert_eq!(q.shards, poison_at..poison_at + 1);
    assert_eq!(q.lines_lost, Some(poisoned_lines));
    // Everything before the poison was absorbed; nothing after it was.
    assert_eq!(c.health.shards_processed, poison_at);
    assert_eq!(c.health.shards_total, poison_at + 1);
}

/// The cursor contract, pinned directly: a session that replays half its
/// stream, disconnects, and later replays the *whole* stream absorbs each
/// frame exactly once — the resumed agent adopts the `WELCOME` cursor and
/// transmits only the un-absorbed suffix.
#[test]
fn resumed_session_absorbs_each_frame_exactly_once() {
    let tmp = TempDir::new("resume");
    let base = build_corpus(&tmp.0, 44);
    let server = soak_server(64);
    let addr = server.addr();

    let reader = CorpusReader::open(&tmp.0).expect("corpus opens");
    let frames: Vec<Vec<u8>> = (0..reader.shard_count())
        .map(|s| reader.read_shard_frame(s).expect("shard reads"))
        .collect();
    let total = frames.len() as u64;
    let half = frames.len() / 2;
    assert!(half > 0, "corpus too small to split");

    // First connection: an agent that only knows the first half, as if
    // the stream tore at the midpoint.
    let first = ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames[..half].to_vec());
    let report = first.run(addr).expect("half replay");
    assert_eq!(report.final_cursor, half as u64);

    // Second connection, same session, full stream: the WELCOME cursor
    // must skip the absorbed prefix entirely.
    let second = ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames);
    let report = second.run(addr).expect("resumed replay");
    assert_eq!(report.connections, 1);
    assert_eq!(report.final_cursor, total);

    let drained = server.finish();
    let acme = tenant(&drained.tenants, "acme");
    // Exactly-once: the fold saw each of the `total` frames once — a
    // single duplicate would inflate these counts and break the oracle
    // byte-identity below.
    assert_eq!(acme.health.shards_total as u64, total);
    assert_eq!(acme.health.shards_processed as u64, total);
    assert_eq!(acme.stats.duplicates_dropped, 0);
    let (oracle, _) = oracle_summary(&base, &tmp.0, Strictness::Strict);
    assert_eq!(
        String::from_utf8_lossy(&acme.summary),
        String::from_utf8_lossy(&oracle),
        "resumed session diverged from the offline oracle"
    );
}

/// Mid-run daemon kill with a WAL: the first daemon is abandoned without
/// a drain — no graceful shutdown, no flush beyond the per-admission
/// write-ahead appends — and a second daemon over the same WAL directory
/// must replay itself back to the acked cursor, let the agent resume with
/// only the unsent suffix, and converge to a summary byte-identical to
/// the uninterrupted offline pipeline.
#[test]
fn daemon_killed_mid_soak_recovers_from_wal() {
    let tmp = TempDir::new("wal-corpus");
    let wal = TempDir::new("wal-log");
    let base = build_corpus(&tmp.0, 55);

    let reader = CorpusReader::open(&tmp.0).expect("corpus opens");
    let frames: Vec<Vec<u8>> = (0..reader.shard_count())
        .map(|s| reader.read_shard_frame(s).expect("shard reads"))
        .collect();
    let total = frames.len() as u64;
    let half = frames.len() / 2;
    assert!(half > 0, "corpus too small to split");

    // First daemon: absorb the first half of the stream, then die. The
    // handle is dropped without `finish()` — connection and absorber
    // threads are orphaned mid-flight, exactly like a `kill -9` as far
    // as the WAL is concerned (only per-admission appends hit disk).
    let first = durable_server(64, &wal.0);
    let agent = ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames[..half].to_vec());
    let report = agent.run(first.addr()).expect("half replay");
    assert_eq!(report.final_cursor, half as u64);
    drop(first);

    // Second daemon, same WAL: spawn replays the log before binding, so
    // the resuming agent's WELCOME cursor already covers the absorbed
    // prefix and it transmits only the suffix.
    let second = durable_server(64, &wal.0);
    let agent = ReplayAgent::new(AgentConfig::clean("acme", "s1"), frames);
    let report = agent.run(second.addr()).expect("resumed replay");
    assert_eq!(report.connections, 1);
    assert_eq!(report.final_cursor, total);

    let drained = second.finish();
    let acme = tenant(&drained.tenants, "acme");
    assert!(acme.quarantined.is_none());
    assert_eq!(acme.health.shards_total as u64, total);
    assert_eq!(acme.health.shards_processed as u64, total);
    assert_eq!(
        acme.stats.duplicates_dropped, 0,
        "the resumed agent must skip the replayed prefix, not re-send it"
    );
    let (oracle, _) = oracle_summary(&base, &tmp.0, Strictness::Strict);
    assert_eq!(
        String::from_utf8_lossy(&acme.summary),
        String::from_utf8_lossy(&oracle),
        "post-kill recovery diverged from the uninterrupted offline pipeline"
    );
}
