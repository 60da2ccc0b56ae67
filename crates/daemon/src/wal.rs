//! The daemon's write-ahead log: a rotating, per-tenant durable record of
//! every `DATA` frame the bus **admitted**, so a restarted `ssfad`
//! replays its way back to the exact fold state it died with.
//!
//! # What is logged, and why that is enough
//!
//! The bus appends a record at the moment of admission — after the cursor
//! check, before the frame is acknowledged. That ordering is the whole
//! correctness argument:
//!
//! - An **acked** frame is durable: the agent will never retransmit it,
//!   and replay re-admits it through the same cursor machinery, so it is
//!   folded exactly once.
//! - A frame lost **before** its append (shed, torn connection, crash
//!   between admit and append — impossible, the append happens first —
//!   or a torn tail record from a crash mid-write) was never acked, so
//!   the agent's cursor still points at it and it is retransmitted on
//!   reconnect. A torn tail is therefore *dropped*, not an error.
//!
//! Records are `SSFC` frames (`ssfa_logs::frame`): `line_count` carries
//! the stream sequence number, the payload is
//! `[u32 session-name length LE][session name][inner corpus frame]`.
//! Single-bit flips and truncations are rejected by the same checksum
//! arithmetic as corpus shards.
//!
//! # Layout
//!
//! ```text
//! wal-dir/
//!   <tenant>/            # tenant id, percent-encoded for path safety
//!     META               # "strict\n" | "lenient\n" — the tenant policy
//!     wal-00000.seg      # records, rotated by size
//!     wal-00001.seg
//! ```
//!
//! Segments rotate once they exceed [`WriteAheadLog::segment_bytes`];
//! replay reads segments in index order. Appends are flushed to the OS
//! per record (durable against a daemon crash; an OS crash may cost the
//! un-synced tail, which — being unacked or retransmittable — is safe).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ssfa_logs::frame::{decode_frame, encode_frame};
use ssfa_logs::{write_atomic, Strictness};

/// Default segment rotation threshold (bytes).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// Characters a tenant id may use verbatim in its directory name;
/// everything else is `%XX`-encoded (injectively, so distinct tenants
/// never collide on disk).
fn is_path_safe(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || matches!(byte, b'.' | b'_' | b'-')
}

/// Percent-encodes a tenant id into a filesystem-safe directory name.
pub fn encode_tenant_dir(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len());
    for &byte in tenant.as_bytes() {
        // `%` itself is never path-safe output for a literal, so the
        // encoding stays reversible.
        if is_path_safe(byte) && byte != b'%' {
            out.push(byte as char);
        } else {
            out.push_str(&format!("%{byte:02X}"));
        }
    }
    out
}

/// Reverses [`encode_tenant_dir`]. `None` when the name is not a valid
/// encoding (stray file in the WAL directory).
pub fn decode_tenant_dir(dir_name: &str) -> Option<String> {
    let bytes = dir_name.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hex = std::str::from_utf8(hex).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The WAL segment file name for `segment`.
pub fn segment_file_name(segment: usize) -> String {
    format!("wal-{segment:05}.seg")
}

/// One replayable record: an admitted `DATA` frame with its full
/// admission identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Tenant the frame was admitted for.
    pub tenant: String,
    /// The tenant's strictness policy (from its `META` file).
    pub strictness: Strictness,
    /// Session the frame arrived on.
    pub session: String,
    /// Stream sequence number the frame was admitted at.
    pub seq: u64,
    /// The inner corpus frame bytes.
    pub frame: Vec<u8>,
}

/// Append state for one tenant.
#[derive(Debug)]
struct TenantLog {
    dir: PathBuf,
    /// Index of the segment currently being appended.
    segment: usize,
    /// Bytes already in that segment.
    written: u64,
    /// Open handle to it.
    file: File,
}

/// The rotating write-ahead log. Cheap to share behind an `Arc`; appends
/// for different tenants serialize on one lock (admission is already a
/// short critical section, and WAL writes are small).
#[derive(Debug)]
pub struct WriteAheadLog {
    dir: PathBuf,
    segment_bytes: u64,
    tenants: Mutex<BTreeMap<String, TenantLog>>,
}

impl WriteAheadLog {
    /// Opens (creating if missing) the WAL at `dir` and scans every
    /// tenant's existing segments, returning the log plus all replayable
    /// records in `(tenant, segment, offset)` order. A torn record at the
    /// tail of a tenant's last segment is dropped (see module docs); a
    /// corrupt record anywhere else truncates that tenant's replay at the
    /// corruption point — everything after it was admitted later and
    /// will be retransmitted by agents resuming from their acked cursor.
    ///
    /// # Errors
    ///
    /// Filesystem errors only; corruption is never an error.
    pub fn open(
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> std::io::Result<(WriteAheadLog, Vec<WalRecord>)> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut tenants = BTreeMap::new();
        let mut records = Vec::new();
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for tenant_dir in entries {
            let Some(name) = tenant_dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(tenant) = decode_tenant_dir(name) else {
                continue;
            };
            let Some(strictness) = read_meta(&tenant_dir) else {
                continue;
            };
            let mut segments: Vec<usize> = Vec::new();
            for entry in std::fs::read_dir(&tenant_dir)? {
                let entry = entry?;
                if let Some(index) = parse_segment_name(&entry.file_name().to_string_lossy()) {
                    segments.push(index);
                }
            }
            segments.sort_unstable();
            let mut last = TenantLog {
                dir: tenant_dir.clone(),
                segment: 0,
                written: 0,
                file: open_segment(&tenant_dir, 0)?,
            };
            for &segment in &segments {
                let path = tenant_dir.join(segment_file_name(segment));
                let mut bytes = Vec::new();
                File::open(&path)?.read_to_end(&mut bytes)?;
                let consumed = scan_segment(&bytes, &tenant, strictness, &mut records);
                if segment == *segments.last().expect("non-empty") {
                    last = TenantLog {
                        dir: tenant_dir.clone(),
                        segment,
                        written: consumed,
                        file: open_segment(&tenant_dir, segment)?,
                    };
                    // Drop a torn tail so the next append starts at a
                    // record boundary.
                    if consumed < bytes.len() as u64 {
                        last.file.set_len(consumed)?;
                    }
                } else if consumed < bytes.len() as u64 {
                    // Corruption mid-history: stop replaying this tenant
                    // here. Later records re-arrive via retransmission.
                    break;
                }
            }
            tenants.insert(tenant, last);
        }
        Ok((
            WriteAheadLog {
                dir,
                segment_bytes: segment_bytes.max(1),
                tenants: Mutex::new(tenants),
            },
            records,
        ))
    }

    /// Where the log lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment rotation threshold.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Appends one admitted frame durably. Creates the tenant's directory
    /// and `META` on first use; rotates the segment when it exceeds the
    /// threshold.
    ///
    /// # Errors
    ///
    /// Filesystem errors; on error nothing is acked, so the caller must
    /// treat the frame as not admitted.
    pub fn append(
        &self,
        tenant: &str,
        strictness: Strictness,
        session: &str,
        seq: u64,
        frame: &[u8],
    ) -> std::io::Result<()> {
        let mut payload = Vec::with_capacity(4 + session.len() + frame.len());
        payload.extend_from_slice(&(session.len() as u32).to_le_bytes());
        payload.extend_from_slice(session.as_bytes());
        payload.extend_from_slice(frame);
        let mut record = Vec::new();
        encode_frame(&mut record, 0, seq, &payload);

        let mut tenants = self.tenants.lock().expect("wal lock poisoned");
        if !tenants.contains_key(tenant) {
            let tenant_dir = self.dir.join(encode_tenant_dir(tenant));
            std::fs::create_dir_all(&tenant_dir)?;
            write_meta(&tenant_dir, strictness)?;
            tenants.insert(
                tenant.to_owned(),
                TenantLog {
                    dir: tenant_dir.clone(),
                    segment: 0,
                    written: 0,
                    file: open_segment(&tenant_dir, 0)?,
                },
            );
        }
        let log = tenants.get_mut(tenant).expect("inserted above");
        if log.written > 0 && log.written + record.len() as u64 > self.segment_bytes {
            log.file.sync_all()?;
            log.segment += 1;
            log.written = 0;
            log.file = open_segment(&log.dir, log.segment)?;
        }
        log.file.write_all(&record)?;
        log.file.flush()?;
        log.written += record.len() as u64;
        Ok(())
    }
}

/// Decodes as many records as `bytes` holds for one tenant, appending
/// them to `records`. Returns how many bytes were consumed cleanly — a
/// trailing partial or corrupt record is not consumed.
fn scan_segment(
    bytes: &[u8],
    tenant: &str,
    strictness: Strictness,
    records: &mut Vec<WalRecord>,
) -> u64 {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Ok((header, payload)) = decode_frame(&bytes[offset..]) else {
            break;
        };
        let Some(record) = parse_record_payload(payload) else {
            break;
        };
        records.push(WalRecord {
            tenant: tenant.to_owned(),
            strictness,
            session: record.0,
            seq: header.line_count,
            frame: record.1,
        });
        offset += header.frame_len() as usize;
    }
    offset as u64
}

/// Splits a record payload into `(session, inner frame)`.
fn parse_record_payload(payload: &[u8]) -> Option<(String, Vec<u8>)> {
    let len_bytes: [u8; 4] = payload.get(..4)?.try_into().ok()?;
    let session_len = u32::from_le_bytes(len_bytes) as usize;
    let session = payload.get(4..4 + session_len)?;
    let session = std::str::from_utf8(session).ok()?.to_owned();
    Some((session, payload[4 + session_len..].to_vec()))
}

fn parse_segment_name(name: &str) -> Option<usize> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn open_segment(tenant_dir: &Path, segment: usize) -> std::io::Result<File> {
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(tenant_dir.join(segment_file_name(segment)))
}

fn write_meta(tenant_dir: &Path, strictness: Strictness) -> std::io::Result<()> {
    let text = match strictness {
        Strictness::Strict => "strict\n",
        Strictness::Lenient => "lenient\n",
    };
    write_atomic(&tenant_dir.join("META"), text.as_bytes())
}

fn read_meta(tenant_dir: &Path) -> Option<Strictness> {
    match std::fs::read_to_string(tenant_dir.join("META"))
        .ok()?
        .trim()
    {
        "strict" => Some(Strictness::Strict),
        "lenient" => Some(Strictness::Lenient),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("ssfa-wal-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn frame(system: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, system, 1, body);
        out
    }

    #[test]
    fn tenant_dir_encoding_round_trips() {
        for tenant in ["plain", "with space", "a/b", "per%cent", "tenant-1.x_y"] {
            let encoded = encode_tenant_dir(tenant);
            assert!(
                encoded.bytes().all(|b| is_path_safe(b) || b == b'%'),
                "{encoded} must be path-safe"
            );
            assert_eq!(decode_tenant_dir(&encoded).as_deref(), Some(tenant));
        }
    }

    #[test]
    fn append_replay_round_trips_across_rotation() {
        let dir = TempDir::new("rotate");
        // A tiny segment threshold so a handful of records rotates.
        let (wal, records) = WriteAheadLog::open(dir.path(), 128).unwrap();
        assert!(records.is_empty());
        for seq in 0..10u64 {
            wal.append(
                "t/1",
                Strictness::Lenient,
                "s",
                seq,
                &frame(seq as u32, b"x\n"),
            )
            .unwrap();
        }
        drop(wal);
        let tenant_dir = dir.path().join(encode_tenant_dir("t/1"));
        let segments = std::fs::read_dir(&tenant_dir)
            .unwrap()
            .filter(|e| {
                parse_segment_name(&e.as_ref().unwrap().file_name().to_string_lossy()).is_some()
            })
            .count();
        assert!(segments > 1, "expected rotation, got {segments} segment(s)");

        let (_, replayed) = WriteAheadLog::open(dir.path(), 128).unwrap();
        assert_eq!(replayed.len(), 10);
        for (seq, record) in replayed.iter().enumerate() {
            assert_eq!(record.tenant, "t/1");
            assert_eq!(record.strictness, Strictness::Lenient);
            assert_eq!(record.session, "s");
            assert_eq!(record.seq, seq as u64);
            assert_eq!(record.frame, frame(seq as u32, b"x\n"));
        }
    }

    #[test]
    fn torn_tail_is_dropped_and_overwritten() {
        let dir = TempDir::new("torn");
        let (wal, _) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        wal.append("t", Strictness::Strict, "s", 0, &frame(0, b"a\n"))
            .unwrap();
        wal.append("t", Strictness::Strict, "s", 1, &frame(1, b"b\n"))
            .unwrap();
        drop(wal);
        // Tear the last record: chop bytes off the segment tail.
        let seg = dir
            .path()
            .join(encode_tenant_dir("t"))
            .join(segment_file_name(0));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

        let (wal, replayed) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        assert_eq!(replayed.len(), 1, "torn record must be dropped");
        assert_eq!(replayed[0].seq, 0);
        // The torn bytes are truncated away, so a new append lands on a
        // clean boundary and the log reads back whole.
        wal.append("t", Strictness::Strict, "s", 1, &frame(1, b"b\n"))
            .unwrap();
        drop(wal);
        let (_, replayed) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].seq, 1);
    }
}
