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
//! Single-bit flips and truncations are rejected by the same four-lane
//! checksum as corpus shards. Each record is encoded from those three
//! parts into one buffer that every append reuses.
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
//!
//! # Recovery reads through read-only maps
//!
//! [`WriteAheadLog::open`] maps each segment read-only (the vendored
//! `memmap2`, as `MmapSource` maps corpus segments), checks every
//! record's checksum over the map, and hands each inner frame back as a
//! [`FrameBytes`] range of that map: recovery copies no frame. No live
//! map ever covers a byte the log writes later:
//!
//! - sealed segments are never reopened for writing;
//! - the segment where a tenant's replay stops (a torn tail or a corrupt
//!   record) is cut *before* it is mapped for replay (scan; if torn,
//!   drop that scan, truncate, map and scan again), and the segments
//!   after it are renamed out of the replay namespace;
//! - appends only extend a segment past the length any map of it has.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use memmap2::Mmap;
use ssfa_logs::frame::{decode_frame, encode_frame_parts, HEADER_LEN};
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

/// The bytes of one inner corpus frame as the bus queues it: owned when
/// it came off the wire, or a range of a read-only WAL segment map when
/// recovery read it back. Clones of a mapped frame share the map, which
/// is unmapped when the last of them drops.
#[derive(Debug, Clone)]
pub struct FrameBytes(FrameRepr);

#[derive(Debug, Clone)]
enum FrameRepr {
    Owned(Vec<u8>),
    Mapped { map: Arc<Mmap>, range: Range<usize> },
}

impl From<Vec<u8>> for FrameBytes {
    fn from(bytes: Vec<u8>) -> FrameBytes {
        FrameBytes(FrameRepr::Owned(bytes))
    }
}

impl Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            FrameRepr::Owned(bytes) => bytes,
            FrameRepr::Mapped { map, range } => &map[range.clone()],
        }
    }
}

impl PartialEq for FrameBytes {
    fn eq(&self, other: &FrameBytes) -> bool {
        **self == **other
    }
}

impl Eq for FrameBytes {}

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
    /// The inner corpus frame bytes, a range of the segment's map.
    pub frame: FrameBytes,
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

/// What [`WriteAheadLog::open`] set aside for one tenant whose replay
/// stopped before the end of its log: where it stopped, the bytes cut
/// off that segment, and the later segments renamed out of the replay
/// namespace. A torn tail of the last segment (a crash mid-append) is
/// reported too, with no later segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAside {
    /// The tenant whose log was cut.
    pub tenant: String,
    /// The segment where replay stopped.
    pub segment: usize,
    /// The offset in that segment where replay stopped; appends continue
    /// there.
    pub offset: u64,
    /// Bytes past `offset` cut off that segment.
    pub cut_bytes: u64,
    /// The later segments, each with its new `wal-NNNNN.seg.orphanK`
    /// file name and its size in bytes, in segment order.
    pub orphaned: Vec<(String, u64)>,
}

impl SetAside {
    /// Bytes kept out of replay: the cut tail plus every orphaned segment.
    pub fn bytes(&self) -> u64 {
        self.cut_bytes + self.orphaned.iter().map(|(_, bytes)| bytes).sum::<u64>()
    }
}

impl std::fmt::Display for SetAside {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant {}: WAL replay stopped at {} offset {}; {} byte(s) cut there",
            self.tenant,
            segment_file_name(self.segment),
            self.offset,
            self.cut_bytes
        )?;
        if let (Some((first, _)), Some((last, _))) = (self.orphaned.first(), self.orphaned.last()) {
            write!(
                f,
                ", {} later segment(s) set aside ({first} .. {last})",
                self.orphaned.len()
            )?;
        }
        write!(f, ", {} byte(s) in all not replayed", self.bytes())
    }
}

/// The rotating write-ahead log. Cheap to share behind an `Arc`; appends
/// for different tenants serialize on one lock (admission is already a
/// short critical section, and WAL writes are small).
#[derive(Debug)]
pub struct WriteAheadLog {
    dir: PathBuf,
    segment_bytes: u64,
    appender: Mutex<Appender>,
    set_aside: Vec<SetAside>,
}

/// What an append holds the lock for.
#[derive(Debug)]
struct Appender {
    tenants: BTreeMap<String, TenantLog>,
    /// The record being encoded, reused by every append.
    record: Vec<u8>,
}

impl WriteAheadLog {
    /// Opens (creating if missing) the WAL at `dir` and scans every
    /// tenant's existing segments, returning the log plus all replayable
    /// records in `(tenant, segment, offset)` order.
    ///
    /// A tenant's replay stops at its first torn or corrupt record. That
    /// segment is cut there and the tenant's appends continue at the
    /// cut; the segments after it are renamed out of the `wal-NNNNN.seg`
    /// namespace (kept, never replayed). A torn tail of the last segment
    /// is a crash mid-append: that record was never acked, so its agent
    /// retransmits it (see module docs). Records after a corruption
    /// elsewhere were acked, and are lost to replay: an agent that has
    /// its final `ACK` has exited and sends nothing again.
    /// [`WriteAheadLog::set_aside`] lists what each such cut kept out of
    /// replay.
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
        let mut set_aside = Vec::new();
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
            let mut last = None;
            for (position, &segment) in segments.iter().enumerate() {
                let path = tenant_dir.join(segment_file_name(segment));
                let scanned_from = records.len();
                let mut map = map_segment(&path)?;
                let mut consumed = scan_segment(&map, &tenant, strictness, &mut records);
                let clean = consumed == map.len() as u64;
                if clean && position + 1 < segments.len() {
                    continue;
                }
                let file = open_segment(&tenant_dir, segment)?;
                if !clean {
                    // Replay stops at a torn tail or a corrupt record, and
                    // the next append starts at that record boundary. A
                    // map must never cover bytes that change, so the
                    // scan's frames and map go first, the file is cut,
                    // and the clean prefix is mapped afresh. Later
                    // segments leave the replay namespace.
                    records.truncate(scanned_from);
                    let cut_bytes = map.len() as u64 - consumed;
                    drop(map);
                    file.set_len(consumed)?;
                    map = map_segment(&path)?;
                    consumed = scan_segment(&map, &tenant, strictness, &mut records);
                    let orphaned = segments[position + 1..]
                        .iter()
                        .map(|&later| orphan_segment(&tenant_dir, later))
                        .collect::<std::io::Result<_>>()?;
                    set_aside.push(SetAside {
                        tenant: tenant.clone(),
                        segment,
                        offset: consumed,
                        cut_bytes,
                        orphaned,
                    });
                }
                last = Some(TenantLog {
                    dir: tenant_dir.clone(),
                    segment,
                    written: consumed,
                    file,
                });
                break;
            }
            let last = match last {
                Some(last) => last,
                None => TenantLog {
                    dir: tenant_dir.clone(),
                    segment: 0,
                    written: 0,
                    file: open_segment(&tenant_dir, 0)?,
                },
            };
            tenants.insert(tenant, last);
        }
        Ok((
            WriteAheadLog {
                dir,
                segment_bytes: segment_bytes.max(1),
                appender: Mutex::new(Appender {
                    tenants,
                    record: Vec::new(),
                }),
                set_aside,
            },
            records,
        ))
    }

    /// What [`WriteAheadLog::open`] kept out of replay, one entry per
    /// tenant whose replay stopped early, in tenant order. Empty after a
    /// clean open.
    pub fn set_aside(&self) -> &[SetAside] {
        &self.set_aside
    }

    /// Where the log lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment rotation threshold.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_bytes
    }

    /// Appends one admitted frame and flushes it to the OS, which survives
    /// a daemon crash but not an OS crash: `sync_all` runs only when a
    /// segment rotates (`ROADMAP.md` item 11). Creates the tenant's
    /// directory and `META` on first use; rotates the segment when it
    /// exceeds the threshold.
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
        let mut appender = self.appender.lock().expect("wal lock poisoned");
        let Appender { tenants, record } = &mut *appender;
        record.clear();
        encode_frame_parts(
            record,
            0,
            seq,
            &[
                &(session.len() as u32).to_le_bytes(),
                session.as_bytes(),
                frame,
            ],
        );
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
        log.file.write_all(record)?;
        log.file.flush()?;
        log.written += record.len() as u64;
        Ok(())
    }
}

/// Maps one segment read-only (see the module docs for why no map ever
/// covers bytes written later).
fn map_segment(path: &Path) -> std::io::Result<Arc<Mmap>> {
    Ok(Arc::new(Mmap::map_read_only(&File::open(path)?)?))
}

/// Decodes as many records as `map` holds for one tenant, appending them
/// to `records` with each inner frame a range of `map`. Returns how many
/// bytes were consumed cleanly — a trailing partial or corrupt record is
/// not consumed.
fn scan_segment(
    map: &Arc<Mmap>,
    tenant: &str,
    strictness: Strictness,
    records: &mut Vec<WalRecord>,
) -> u64 {
    let mut offset = 0usize;
    while offset < map.len() {
        let Ok((header, payload)) = decode_frame(&map[offset..]) else {
            break;
        };
        let Some((session, inner)) = parse_record_payload(payload) else {
            break;
        };
        let payload_start = offset + HEADER_LEN;
        records.push(WalRecord {
            tenant: tenant.to_owned(),
            strictness,
            session: session.to_owned(),
            seq: header.line_count,
            frame: FrameBytes(FrameRepr::Mapped {
                map: Arc::clone(map),
                range: payload_start + inner.start..payload_start + inner.end,
            }),
        });
        offset += header.frame_len() as usize;
    }
    offset as u64
}

/// Splits a record payload into its session and the range of the inner
/// frame within the payload.
fn parse_record_payload(payload: &[u8]) -> Option<(&str, Range<usize>)> {
    let len_bytes: [u8; 4] = payload.get(..4)?.try_into().ok()?;
    let session_len = u32::from_le_bytes(len_bytes) as usize;
    let session = payload.get(4..4 + session_len)?;
    let session = std::str::from_utf8(session).ok()?;
    Some((session, 4 + session_len..payload.len()))
}

fn parse_segment_name(name: &str) -> Option<usize> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Renames segment `segment` to the first free `wal-NNNNN.seg.orphanK`,
/// so no later recovery replays it and no later rotation overwrites it.
/// Returns the new file name and the segment's size.
fn orphan_segment(tenant_dir: &Path, segment: usize) -> std::io::Result<(String, u64)> {
    let name = segment_file_name(segment);
    let target = (0..)
        .map(|k| format!("{name}.orphan{k}"))
        .find(|target| !tenant_dir.join(target).exists())
        .expect("an unused orphan name");
    let from = tenant_dir.join(name);
    let bytes = std::fs::metadata(&from)?.len();
    std::fs::rename(from, tenant_dir.join(&target))?;
    Ok((target, bytes))
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
        ssfa_logs::frame::encode_frame(&mut out, system, 1, body);
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

        let (wal, replayed) = WriteAheadLog::open(dir.path(), 128).unwrap();
        assert!(
            wal.set_aside().is_empty(),
            "a clean open sets nothing aside"
        );
        assert_eq!(replayed.len(), 10);
        for (seq, record) in replayed.iter().enumerate() {
            assert_eq!(record.tenant, "t/1");
            assert_eq!(record.strictness, Strictness::Lenient);
            assert_eq!(record.session, "s");
            assert_eq!(record.seq, seq as u64);
            assert_eq!(*record.frame, frame(seq as u32, b"x\n"));
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
        let torn = &wal.set_aside()[0];
        assert_eq!((torn.segment, torn.offset), (0, bytes.len() as u64 / 2));
        assert_eq!(torn.cut_bytes, bytes.len() as u64 / 2 - 7);
        assert!(torn.orphaned.is_empty());
        // The torn bytes are truncated away, so a new append lands on a
        // clean boundary and the log reads back whole.
        wal.append("t", Strictness::Strict, "s", 1, &frame(1, b"b\n"))
            .unwrap();
        drop(wal);
        let (_, replayed) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].seq, 1);
    }

    /// The frame appended at `seq` by the tests below.
    fn numbered_frame(seq: u64) -> Vec<u8> {
        frame(
            seq as u32,
            format!("line {seq}\n")
                .repeat(seq as usize % 7 + 1)
                .as_bytes(),
        )
    }

    fn append_range(wal: &WriteAheadLog, seqs: std::ops::Range<u64>) {
        for seq in seqs {
            wal.append("t", Strictness::Lenient, "s", seq, &numbered_frame(seq))
                .unwrap();
        }
    }

    fn assert_records(records: &[WalRecord], seqs: std::ops::Range<u64>) {
        assert_eq!(records.len() as u64, seqs.end - seqs.start);
        for (record, seq) in records.iter().zip(seqs) {
            assert_eq!(record.seq, seq);
            assert_eq!(record.session, "s");
            assert_eq!(*record.frame, numbered_frame(seq), "frame {seq}");
        }
    }

    #[test]
    fn recovery_survives_a_torn_tail_written_under_its_own_maps() {
        let dir = TempDir::new("cycle");
        let seg = dir
            .path()
            .join(encode_tenant_dir("t"))
            .join(segment_file_name(0));
        let (wal, _) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        append_range(&wal, 0..5);
        drop(wal);
        for cycle in 1..4u64 {
            // Recover (the frames are ranges of the last segment's map),
            // keep appending under that map, then tear the segment's tail
            // the way a crash mid-append would.
            let (wal, recovered) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
            assert_records(&recovered, 0..5 * cycle);
            append_range(&wal, 5 * cycle..5 * cycle + 5);
            drop(wal);
            let mut torn = Vec::new();
            encode_frame_parts(&mut torn, 0, 99, &[b"not a whole record"]);
            let mut file = OpenOptions::new().append(true).open(&seg).unwrap();
            file.write_all(&torn[..torn.len() - 3]).unwrap();
            drop(file);
            assert_records(&recovered, 0..5 * cycle);
        }
        let (_, recovered) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        assert_records(&recovered, 0..20);
    }

    /// Five 79-byte records fill a 400-byte segment, so 60 records span
    /// twelve segments and a flip in the middle of `wal-00002.seg`
    /// corrupts seq 12. Recovery must cut that segment there and append
    /// after seq 11, not at the end of segment 0.
    #[test]
    fn appends_after_a_mid_history_corruption_continue_at_the_cut() {
        let dir = TempDir::new("mid");
        let tenant_dir = dir.path().join(encode_tenant_dir("t"));
        let append = |wal: &WriteAheadLog, seqs: std::ops::RangeInclusive<u64>| {
            for seq in seqs {
                wal.append(
                    "t",
                    Strictness::Lenient,
                    "s",
                    seq,
                    &frame(seq as u32, b"x\n"),
                )
                .unwrap();
            }
        };
        let seqs = |records: &[WalRecord]| records.iter().map(|r| r.seq).collect::<Vec<_>>();
        let (wal, _) = WriteAheadLog::open(dir.path(), 400).unwrap();
        append(&wal, 0..=59);
        drop(wal);
        let seg = tenant_dir.join(segment_file_name(2));
        let mut bytes = std::fs::read(&seg).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&seg, bytes).unwrap();

        let (wal, recovered) = WriteAheadLog::open(dir.path(), 400).unwrap();
        assert_eq!(seqs(&recovered), (0..=11).collect::<Vec<_>>());
        // Segment 2 holds seqs 10..=14, so replay stops after its second
        // record: seqs 12..=14 are cut, and segments 3..=11 are set aside
        // whole.
        let record_len = 79;
        let orphaned: Vec<_> = (3..=11)
            .map(|segment| {
                (
                    format!("{}.orphan0", segment_file_name(segment)),
                    5 * record_len,
                )
            })
            .collect();
        assert_eq!(
            wal.set_aside(),
            [SetAside {
                tenant: "t".to_owned(),
                segment: 2,
                offset: 2 * record_len,
                cut_bytes: 3 * record_len,
                orphaned,
            }]
        );
        assert_eq!(wal.set_aside()[0].bytes(), 48 * record_len);
        append(&wal, 12..=16);
        drop(wal);
        drop(recovered);
        let (wal, recovered) = WriteAheadLog::open(dir.path(), 400).unwrap();
        assert_eq!(seqs(&recovered), (0..=16).collect::<Vec<_>>());
        assert!(
            wal.set_aside().is_empty(),
            "a clean open sets nothing aside"
        );
        for record in &recovered {
            assert_eq!(*record.frame, frame(record.seq as u32, b"x\n"));
        }
        // The nine segments past the cut left the replay namespace, but
        // their bytes stay on disk.
        let orphans = std::fs::read_dir(&tenant_dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy();
                name.starts_with("wal-") && parse_segment_name(&name).is_none()
            })
            .count();
        assert_eq!(orphans, 9);
    }

    #[test]
    fn mapped_frames_stay_valid_while_appends_grow_their_segment() {
        let dir = TempDir::new("grow");
        let (wal, _) = WriteAheadLog::open(dir.path(), 1 << 30).unwrap();
        append_range(&wal, 0..10);
        drop(wal);
        let (wal, recovered) = WriteAheadLog::open(dir.path(), 1 << 30).unwrap();
        // Grow the mapped segment's file well past its mapped length and
        // several pages beyond.
        append_range(&wal, 10..2_000);
        assert_records(&recovered, 0..10);
        drop(wal);
        assert_records(&recovered, 0..10);
        let (_, all) = WriteAheadLog::open(dir.path(), 1 << 30).unwrap();
        assert_records(&all, 0..2_000);
    }

    #[test]
    fn a_record_is_one_frame_around_session_and_inner_frame() {
        let dir = TempDir::new("layout");
        let (wal, _) = WriteAheadLog::open(dir.path(), 1 << 20).unwrap();
        let inner = frame(3, b"a\nb\n");
        wal.append("t", Strictness::Strict, "sess", 9, &inner)
            .unwrap();
        wal.append("t", Strictness::Strict, "s2", 10, &inner)
            .unwrap();
        drop(wal);
        let mut expected = Vec::new();
        for (session, seq) in [("sess", 9), ("s2", 10)] {
            let mut payload = (session.len() as u32).to_le_bytes().to_vec();
            payload.extend_from_slice(session.as_bytes());
            payload.extend_from_slice(&inner);
            ssfa_logs::frame::encode_frame(&mut expected, 0, seq, &payload);
        }
        let seg = dir
            .path()
            .join(encode_tenant_dir("t"))
            .join(segment_file_name(0));
        assert_eq!(std::fs::read(seg).unwrap(), expected);
    }
}
