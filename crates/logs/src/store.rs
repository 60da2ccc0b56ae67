//! The on-disk sharded corpus store: build once, analyze many times.
//!
//! A corpus directory holds the rendered support logs of one `(fleet,
//! seed)` run so analysis never has to re-simulate or re-render:
//!
//! ```text
//! corpus/
//!   MANIFEST            run metadata + shard index + per-shard digests
//!   segment-00000.seg   shard frames 0..segment_shards, concatenated
//!   segment-00001.seg   ...
//! ```
//!
//! Each shard (one system's self-contained log) is stored as one binary
//! frame — fixed-width header plus UTF-8 corpus text — defined by
//! [`crate::frame`]. Frames are packed into *segment* files of
//! [`CorpusWriter::segment_shards`] shards each, so a full-scale fleet
//! (~39k systems) is a few dozen files, not tens of thousands.
//!
//! The `MANIFEST` is line-oriented text: run parameters (seed, cascade
//! style, free-form `param` pairs recorded by the builder), then one
//! `shard` record per shard carrying its segment, byte offset, payload
//! length, line count, owning system, and FNV-1a digest. The digest in
//! the manifest and the checksum in the frame header are written from the
//! same [`crate::frame::encode_frame`] call and re-checked against each
//! other on every read, so tampering with either is caught
//! ([`CorpusError::DigestMismatch`]).
//!
//! Storage integrity is the corpus's whole job — bytes at rest rot
//! (Gray & van Ingen, MSR-TR-2005-166) — so every read path routes
//! through the one shared codec in [`crate::frame`]; see the
//! corruption-detection notes there.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ssfa_model::Fleet;
use ssfa_sim::SimOutput;

use crate::cascade::CascadeStyle;
use crate::corpus::{LogBook, LogError};
use crate::frame::{self, FrameError, FrameHeader, HEADER_LEN};
use crate::render::NoiseParams;
use crate::shard::{render_system_log, ShardPlan};

/// The manifest file name inside a corpus directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The manifest format line this build writes and accepts.
pub const MANIFEST_VERSION_LINE: &str = "ssfa-corpus v1";

/// Default shards per segment file: a full-scale fleet (~39k systems)
/// packs into ~77 segment files of a few hundred MiB of text each.
pub const DEFAULT_SEGMENT_SHARDS: usize = 512;

/// Errors from corpus build, open, read, and verify, each with a pinned
/// `Display` rendering (the negative-path suite asserts exact messages).
#[derive(Debug)]
pub enum CorpusError {
    /// The directory holds no `MANIFEST` (an empty or non-corpus dir).
    MissingManifest {
        /// The manifest path that was not found.
        path: PathBuf,
    },
    /// The directory already holds a corpus and the writer refuses to
    /// clobber it.
    AlreadyExists {
        /// The existing manifest path.
        path: PathBuf,
    },
    /// A manifest line failed to parse or violated the layout invariants.
    Manifest {
        /// 1-based line number in the manifest.
        line_no: usize,
        /// What was wrong.
        what: String,
    },
    /// A frame failed to decode (bad magic, version, truncation, checksum).
    Frame {
        /// Shard index the frame belongs to.
        shard: usize,
        /// Segment file index holding it.
        segment: usize,
        /// The codec's typed error.
        source: FrameError,
    },
    /// The manifest's digest for a shard disagrees with the digest stored
    /// in the frame header (one of the two was tampered with).
    DigestMismatch {
        /// Shard index.
        shard: usize,
        /// Digest recorded in the manifest.
        manifest: u64,
        /// Checksum stored in the frame header.
        frame: u64,
    },
    /// A manifest field for a shard disagrees with the frame header.
    EntryMismatch {
        /// Shard index.
        shard: usize,
        /// Which field disagreed.
        field: &'static str,
        /// The manifest's value.
        manifest: u64,
        /// The frame's value.
        frame: u64,
    },
    /// A segment file continues past its last frame.
    TrailingBytes {
        /// Segment file index.
        segment: usize,
        /// How many bytes of trailing garbage follow the last frame.
        bytes: u64,
    },
    /// A shard payload passed its checksum but failed to parse as corpus
    /// text (deep verification only).
    Log(LogError),
    /// Underlying filesystem error.
    Io {
        /// What was being done.
        what: String,
        /// The OS error.
        source: io::Error,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::MissingManifest { path } => {
                write!(f, "corpus manifest not found: {}", path.display())
            }
            CorpusError::AlreadyExists { path } => {
                write!(
                    f,
                    "corpus directory already holds a manifest: {}",
                    path.display()
                )
            }
            CorpusError::Manifest { line_no, what } => {
                write!(f, "corpus manifest line {line_no}: {what}")
            }
            CorpusError::Frame {
                shard,
                segment,
                source,
            } => {
                write!(f, "corpus shard {shard} (segment {segment}): {source}")
            }
            CorpusError::DigestMismatch {
                shard,
                manifest,
                frame,
            } => {
                write!(
                    f,
                    "corpus shard {shard}: manifest digest {manifest:016x} disagrees with frame \
                     digest {frame:016x}"
                )
            }
            CorpusError::EntryMismatch {
                shard,
                field,
                manifest,
                frame,
            } => {
                write!(
                    f,
                    "corpus shard {shard}: manifest {field} {manifest} disagrees with frame \
                     {field} {frame}"
                )
            }
            CorpusError::TrailingBytes { segment, bytes } => {
                write!(
                    f,
                    "corpus segment {segment}: {bytes} trailing byte(s) after the last frame"
                )
            }
            CorpusError::Log(e) => write!(f, "corpus payload failed to parse: {e}"),
            CorpusError::Io { what, source } => {
                write!(f, "corpus i/o error ({what}): {source}")
            }
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Frame { source, .. } => Some(source),
            CorpusError::Log(e) => Some(e),
            CorpusError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<LogError> for CorpusError {
    fn from(e: LogError) -> Self {
        CorpusError::Log(e)
    }
}

fn io_err(what: impl Into<String>) -> impl FnOnce(io::Error) -> CorpusError {
    let what = what.into();
    move |source| CorpusError::Io { what, source }
}

/// Publishes `bytes` at `path` atomically: writes them to a sibling
/// `<name>.tmp`, syncs that file to disk, then renames it over `path`. A
/// crash at any point leaves either the previous file (or none) or the
/// complete new one, never a torn or empty one. The parent directory is
/// not synced, so a crash may still roll back the rename itself.
///
/// # Errors
///
/// The first I/O error from creating, writing, syncing or renaming; on
/// error `path` is untouched (a stray `.tmp` may remain).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// One shard's record in the manifest index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEntry {
    /// Segment file index holding the shard's frame.
    pub segment: usize,
    /// Byte offset of the frame (header start) within the segment file.
    pub offset: u64,
    /// Payload bytes of the frame.
    pub payload_len: u64,
    /// Rendered log lines in the payload (what quarantine accounting
    /// charges when the shard is lost — no re-render needed).
    pub line_count: u64,
    /// Owning system id.
    pub system_id: u32,
    /// FNV-1a digest, equal to the frame header's checksum.
    pub checksum: u64,
}

/// A parsed corpus manifest: the run's identity plus the shard index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Simulation/noise seed the corpus was rendered with.
    pub seed: u64,
    /// Cascade style of the rendered logs.
    pub style: CascadeStyle,
    /// Shards per segment file the writer used.
    pub segment_shards: usize,
    /// Free-form `(key, value)` parameters recorded by the builder
    /// (e.g. fleet scale).
    pub params: Vec<(String, String)>,
    /// Per-shard index, in shard (= fleet system) order.
    pub shards: Vec<ShardEntry>,
    /// Number of segment files.
    pub segments: usize,
    /// Total payload bytes across all shards.
    pub total_payload_bytes: u64,
}

pub(crate) fn style_name(style: CascadeStyle) -> &'static str {
    match style {
        CascadeStyle::Full => "full",
        CascadeStyle::RaidOnly => "raid-only",
    }
}

pub(crate) fn style_from_name(name: &str) -> Option<CascadeStyle> {
    match name {
        "full" => Some(CascadeStyle::Full),
        "raid-only" => Some(CascadeStyle::RaidOnly),
        _ => None,
    }
}

impl Manifest {
    /// Renders the manifest to its canonical text form (deterministic:
    /// the same corpus always serializes to identical bytes).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.shards.len() * 72);
        out.push_str(MANIFEST_VERSION_LINE);
        out.push('\n');
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "style {}", style_name(self.style));
        let _ = writeln!(out, "segment_shards {}", self.segment_shards);
        let _ = writeln!(out, "shards {}", self.shards.len());
        let _ = writeln!(out, "segments {}", self.segments);
        for (key, value) in &self.params {
            let _ = writeln!(out, "param {key} {value}");
        }
        for (i, e) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "shard {i} {} {} {} {} {} {:016x}",
                e.segment, e.offset, e.payload_len, e.line_count, e.system_id, e.checksum,
            );
        }
        let _ = writeln!(out, "total_payload_bytes {}", self.total_payload_bytes);
        out
    }

    /// Parses a manifest, validating the layout invariants: shard records
    /// in order, frames abutting within each segment, segments used in
    /// order, and totals consistent.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Manifest`] with the offending line number.
    pub fn parse(text: &str) -> Result<Manifest, CorpusError> {
        let bad = |line_no: usize, what: String| CorpusError::Manifest { line_no, what };
        let mut lines = text.lines().enumerate();
        let (_, first) = lines
            .next()
            .ok_or_else(|| bad(1, "empty manifest".into()))?;
        if first != MANIFEST_VERSION_LINE {
            return Err(bad(
                1,
                format!("expected header `{MANIFEST_VERSION_LINE}`, found `{first}`"),
            ));
        }

        let mut seed = None;
        let mut style = None;
        let mut segment_shards = None;
        let mut declared_shards = None;
        let mut declared_segments = None;
        let mut params = Vec::new();
        let mut shards: Vec<ShardEntry> = Vec::new();
        let mut total = None;

        for (idx, raw) in lines {
            let line_no = idx + 1;
            let mut fields = raw.split_ascii_whitespace();
            let Some(key) = fields.next() else {
                continue; // blank line
            };
            let rest: Vec<&str> = fields.collect();
            let one = |what: &str| -> Result<&str, CorpusError> {
                if rest.len() == 1 {
                    Ok(rest[0])
                } else {
                    Err(bad(line_no, format!("`{key}` needs exactly one {what}")))
                }
            };
            match key {
                "seed" => {
                    seed = Some(one("integer")?.parse::<u64>().map_err(|_| {
                        bad(line_no, format!("`seed` is not an integer: {}", rest[0]))
                    })?);
                }
                "style" => {
                    let name = one("name")?;
                    style =
                        Some(style_from_name(name).ok_or_else(|| {
                            bad(line_no, format!("unknown cascade style `{name}`"))
                        })?);
                }
                "segment_shards" => {
                    let n = one("integer")?
                        .parse::<usize>()
                        .map_err(|_| bad(line_no, "`segment_shards` is not an integer".into()))?;
                    if n == 0 {
                        return Err(bad(line_no, "`segment_shards` must be positive".into()));
                    }
                    segment_shards = Some(n);
                }
                "shards" => {
                    declared_shards = Some(
                        one("integer")?
                            .parse::<usize>()
                            .map_err(|_| bad(line_no, "`shards` is not an integer".into()))?,
                    );
                }
                "segments" => {
                    declared_segments = Some(
                        one("integer")?
                            .parse::<usize>()
                            .map_err(|_| bad(line_no, "`segments` is not an integer".into()))?,
                    );
                }
                "param" => {
                    if rest.len() < 2 {
                        return Err(bad(line_no, "`param` needs a key and a value".into()));
                    }
                    params.push((rest[0].to_owned(), rest[1..].join(" ")));
                }
                "shard" => {
                    if rest.len() != 7 {
                        return Err(bad(
                            line_no,
                            format!("`shard` needs 7 fields, found {}", rest.len()),
                        ));
                    }
                    let num = |i: usize, what: &str| -> Result<u64, CorpusError> {
                        rest[i]
                            .parse::<u64>()
                            .map_err(|_| bad(line_no, format!("shard {what} is not an integer")))
                    };
                    let index = num(0, "index")? as usize;
                    if index != shards.len() {
                        return Err(bad(
                            line_no,
                            format!(
                                "shard records out of order: expected {}, found {index}",
                                shards.len()
                            ),
                        ));
                    }
                    let entry = ShardEntry {
                        segment: num(1, "segment")? as usize,
                        offset: num(2, "offset")?,
                        payload_len: num(3, "payload length")?,
                        line_count: num(4, "line count")?,
                        system_id: u32::try_from(num(5, "system id")?)
                            .map_err(|_| bad(line_no, "shard system id overflows u32".into()))?,
                        checksum: u64::from_str_radix(rest[6], 16)
                            .map_err(|_| bad(line_no, "shard digest is not hex".into()))?,
                    };
                    // Frames must tile their segment: a new segment starts
                    // at offset 0, and within a segment each frame abuts
                    // the previous frame's end.
                    let expected = match shards.last() {
                        Some(prev) if prev.segment == entry.segment => (
                            prev.segment,
                            prev.offset + HEADER_LEN as u64 + prev.payload_len,
                        ),
                        Some(prev) => (prev.segment + 1, 0),
                        None => (0, 0),
                    };
                    if (entry.segment, entry.offset) != expected {
                        return Err(bad(
                            line_no,
                            format!(
                                "shard {index} at segment {} offset {} does not abut the previous \
                                 frame (expected segment {} offset {})",
                                entry.segment, entry.offset, expected.0, expected.1,
                            ),
                        ));
                    }
                    shards.push(entry);
                }
                "total_payload_bytes" => {
                    total = Some(one("integer")?.parse::<u64>().map_err(|_| {
                        bad(line_no, "`total_payload_bytes` is not an integer".into())
                    })?);
                }
                other => {
                    return Err(bad(line_no, format!("unknown manifest key `{other}`")));
                }
            }
        }

        let require = |what: &str, ok: bool| -> Result<(), CorpusError> {
            if ok {
                Ok(())
            } else {
                Err(bad(0, format!("missing `{what}` record")))
            }
        };
        require("seed", seed.is_some())?;
        require("style", style.is_some())?;
        require("segment_shards", segment_shards.is_some())?;
        require("total_payload_bytes", total.is_some())?;
        let segments = shards.last().map_or(0, |e| e.segment + 1);
        if declared_shards != Some(shards.len()) {
            return Err(bad(
                0,
                format!(
                    "`shards` declares {:?} but {} shard records follow",
                    declared_shards,
                    shards.len()
                ),
            ));
        }
        if declared_segments != Some(segments) {
            return Err(bad(
                0,
                format!(
                    "`segments` declares {:?} but the shard records span {segments}",
                    declared_segments
                ),
            ));
        }
        let actual_total: u64 = shards.iter().map(|e| e.payload_len).sum();
        if total != Some(actual_total) {
            return Err(bad(
                0,
                format!(
                    "`total_payload_bytes` declares {:?} but the shard records sum to \
                     {actual_total}",
                    total
                ),
            ));
        }
        Ok(Manifest {
            seed: seed.expect("checked above"),
            style: style.expect("checked above"),
            segment_shards: segment_shards.expect("checked above"),
            params,
            shards,
            segments,
            total_payload_bytes: actual_total,
        })
    }
}

/// What a corpus build or verification walked: the summary printed by the
/// `ssfa corpus` CLI and asserted by the differential suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSummary {
    /// Shards written or verified.
    pub shards: usize,
    /// Segment files.
    pub segments: usize,
    /// Total payload (rendered corpus text) bytes.
    pub payload_bytes: u64,
    /// Total rendered log lines.
    pub lines: u64,
}

impl fmt::Display for CorpusSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shard(s) in {} segment file(s), {} payload bytes, {} log lines",
            self.shards, self.segments, self.payload_bytes, self.lines
        )
    }
}

/// Segment file name for index `segment`.
pub fn segment_file_name(segment: usize) -> String {
    format!("segment-{segment:05}.seg")
}

/// Renders a seeded run to an on-disk sharded corpus: one frame per
/// system shard, packed into segment files, indexed by a `MANIFEST`.
///
/// The rendered bytes are exactly what the in-memory pipeline's
/// `SimSource` yields (cascade style from the builder, no benign noise,
/// noise stream keyed by the run seed), which is what makes disk-backed
/// analysis bit-identical to in-memory analysis — the differential suite
/// proves it.
#[derive(Debug, Clone)]
pub struct CorpusWriter {
    dir: PathBuf,
    segment_shards: usize,
    params: Vec<(String, String)>,
}

impl CorpusWriter {
    /// A writer targeting `dir` (created if absent) with
    /// [`DEFAULT_SEGMENT_SHARDS`] shards per segment file.
    pub fn new(dir: impl Into<PathBuf>) -> CorpusWriter {
        CorpusWriter {
            dir: dir.into(),
            segment_shards: DEFAULT_SEGMENT_SHARDS,
            params: Vec::new(),
        }
    }

    /// Sets how many shards each segment file packs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn segment_shards(mut self, n: usize) -> CorpusWriter {
        assert!(n > 0, "segments must hold at least one shard");
        self.segment_shards = n;
        self
    }

    /// Records a free-form `(key, value)` parameter in the manifest
    /// (e.g. the fleet scale the builder used). Keys must be single
    /// tokens; values may contain spaces.
    #[must_use]
    pub fn param(mut self, key: impl Into<String>, value: impl Into<String>) -> CorpusWriter {
        let key = key.into();
        assert!(
            !key.is_empty() && !key.contains(char::is_whitespace),
            "param keys must be single non-empty tokens"
        );
        self.params.push((key, value.into()));
        self
    }

    /// Renders every shard of `(fleet, output)` and writes the corpus.
    /// Shards render in fleet system order with no benign noise and the
    /// noise stream keyed by `seed` — the same parameters the in-memory
    /// `SimSource` uses.
    ///
    /// The manifest is written last, with [`write_atomic`], so a
    /// crashed build leaves a directory that readers reject as missing
    /// its manifest rather than a silently short corpus.
    ///
    /// # Errors
    ///
    /// [`CorpusError::AlreadyExists`] if `dir` already holds a manifest,
    /// otherwise [`CorpusError::Io`] on filesystem failures.
    pub fn write(
        &self,
        fleet: &Fleet,
        output: &SimOutput,
        style: CascadeStyle,
        seed: u64,
    ) -> Result<CorpusSummary, CorpusError> {
        let manifest_path = self.dir.join(MANIFEST_NAME);
        if manifest_path.exists() {
            return Err(CorpusError::AlreadyExists {
                path: manifest_path,
            });
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(io_err(format!("create {}", self.dir.display())))?;

        let plan = ShardPlan::new(fleet, output);
        let n = plan.shard_count();
        let mut entries = Vec::with_capacity(n);
        let mut lines_total = 0u64;
        let mut frame_buf = Vec::new();
        let mut segment: Option<(usize, BufWriter<File>, u64)> = None;

        for shard in 0..n {
            let seg_index = shard / self.segment_shards;
            if segment.as_ref().map(|(i, _, _)| *i) != Some(seg_index) {
                self.finish_segment(segment.take())?;
                let path = self.dir.join(segment_file_name(seg_index));
                let file =
                    File::create(&path).map_err(io_err(format!("create {}", path.display())))?;
                segment = Some((seg_index, BufWriter::new(file), 0));
            }
            let (_, writer, offset) = segment.as_mut().expect("segment just opened");

            let book = render_system_log(
                fleet,
                output,
                &plan,
                shard,
                style,
                NoiseParams::none(),
                seed,
            );
            let text = book.to_text();
            let system_id = fleet.systems()[shard].id.0;
            frame_buf.clear();
            let header = frame::encode_frame(
                &mut frame_buf,
                system_id,
                book.len() as u64,
                text.as_bytes(),
            );
            writer
                .write_all(&frame_buf)
                .map_err(io_err(format!("write shard {shard}")))?;
            entries.push(ShardEntry {
                segment: seg_index,
                offset: *offset,
                payload_len: header.payload_len,
                line_count: header.line_count,
                system_id,
                checksum: header.checksum,
            });
            *offset += header.frame_len();
            lines_total += header.line_count;
        }
        self.finish_segment(segment.take())?;

        let manifest = Manifest {
            seed,
            style,
            segment_shards: self.segment_shards,
            params: self.params.clone(),
            shards: entries,
            segments: n.div_ceil(self.segment_shards),
            total_payload_bytes: 0, // recomputed below
        };
        let manifest = Manifest {
            total_payload_bytes: manifest.shards.iter().map(|e| e.payload_len).sum(),
            ..manifest
        };
        write_atomic(&manifest_path, manifest.to_text().as_bytes())
            .map_err(io_err(format!("publish {}", manifest_path.display())))?;

        Ok(CorpusSummary {
            shards: manifest.shards.len(),
            segments: manifest.segments,
            payload_bytes: manifest.total_payload_bytes,
            lines: lines_total,
        })
    }

    /// Flushes and syncs a finished segment file.
    fn finish_segment(
        &self,
        segment: Option<(usize, BufWriter<File>, u64)>,
    ) -> Result<(), CorpusError> {
        if let Some((index, writer, _)) = segment {
            let file = writer.into_inner().map_err(|e| CorpusError::Io {
                what: format!("flush segment {index}"),
                source: e.into_error(),
            })?;
            file.sync_all()
                .map_err(io_err(format!("sync segment {index}")))?;
        }
        Ok(())
    }
}

/// Read access to an on-disk corpus: manifest metadata plus validated
/// per-shard reads. Opening parses only the manifest; shard payloads are
/// read (and integrity-checked) on demand.
#[derive(Debug)]
pub struct CorpusReader {
    dir: PathBuf,
    manifest: Manifest,
}

impl CorpusReader {
    /// Opens the corpus at `dir` by parsing its `MANIFEST`.
    ///
    /// # Errors
    ///
    /// [`CorpusError::MissingManifest`] when `dir` has no manifest (e.g.
    /// an empty directory), [`CorpusError::Manifest`] on parse failures,
    /// [`CorpusError::Io`] on filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CorpusReader, CorpusError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_NAME);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(CorpusError::MissingManifest { path });
            }
            Err(e) => return Err(io_err(format!("read {}", path.display()))(e)),
        };
        let manifest = Manifest::parse(&text)?;
        Ok(CorpusReader { dir, manifest })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shards in the corpus.
    pub fn shard_count(&self) -> usize {
        self.manifest.shards.len()
    }

    /// Path of segment file `segment`.
    pub fn segment_path(&self, segment: usize) -> PathBuf {
        self.dir.join(segment_file_name(segment))
    }

    /// Cross-checks a decoded frame header against the manifest's record
    /// for `shard` — the one place manifest/frame agreement is defined.
    /// Public so external readers over the same segment bytes (the
    /// mmap-backed pipeline source) apply the identical check instead of
    /// growing their own.
    ///
    /// # Errors
    ///
    /// [`CorpusError::DigestMismatch`] when the digests disagree,
    /// [`CorpusError::EntryMismatch`] when another field does.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn cross_check(&self, shard: usize, header: &FrameHeader) -> Result<(), CorpusError> {
        let entry = &self.manifest.shards[shard];
        if header.checksum != entry.checksum {
            return Err(CorpusError::DigestMismatch {
                shard,
                manifest: entry.checksum,
                frame: header.checksum,
            });
        }
        let fields: [(&'static str, u64, u64); 3] = [
            ("payload length", entry.payload_len, header.payload_len),
            ("line count", entry.line_count, header.line_count),
            (
                "system id",
                u64::from(entry.system_id),
                u64::from(header.system_id),
            ),
        ];
        for (field, manifest, frame) in fields {
            if manifest != frame {
                return Err(CorpusError::EntryMismatch {
                    shard,
                    field,
                    manifest,
                    frame,
                });
            }
        }
        Ok(())
    }

    /// Reads, integrity-checks, and returns one shard's corpus text via
    /// buffered positioned reads — the `FileSource` read path. The frame
    /// is verified once, by [`CorpusReader::read_shard_frame`], and its
    /// buffer becomes the returned `String` with the header stripped in
    /// place, so the payload is neither hashed nor copied twice.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Frame`] when the frame is corrupt (truncation, bad
    /// magic/version, checksum mismatch, a payload that is not UTF-8 —
    /// the same [`FrameError::PayloadNotUtf8`] offset
    /// [`frame::decode_frame_text`] reports),
    /// [`CorpusError::DigestMismatch`] / [`CorpusError::EntryMismatch`]
    /// when the frame disagrees with the manifest, [`CorpusError::Io`] on
    /// filesystem errors.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn read_shard_text(&self, shard: usize) -> Result<String, CorpusError> {
        let mut bytes = self.read_shard_frame(shard)?;
        bytes.drain(..HEADER_LEN);
        String::from_utf8(bytes).map_err(|e| CorpusError::Frame {
            shard,
            segment: self.manifest.shards[shard].segment,
            source: FrameError::PayloadNotUtf8 {
                at: e.utf8_error().valid_up_to(),
            },
        })
    }

    /// Reads and integrity-checks one shard's *encoded frame* — header and
    /// payload bytes exactly as they sit in the segment file. This is the
    /// replay path: the `ssfad` ingest protocol carries whole corpus
    /// frames, so an agent streams these bytes onto the wire verbatim
    /// without re-encoding (and therefore cannot re-encode *differently*).
    ///
    /// # Errors
    ///
    /// As [`CorpusReader::read_shard_text`], minus the UTF-8 check (the
    /// payload is not decoded here).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn read_shard_frame(&self, shard: usize) -> Result<Vec<u8>, CorpusError> {
        let entry = self.manifest.shards[shard];
        let path = self.segment_path(entry.segment);
        let mut file = File::open(&path).map_err(io_err(format!("open {}", path.display())))?;
        file.seek(SeekFrom::Start(entry.offset))
            .map_err(io_err(format!("seek shard {shard}")))?;

        let framed = |source| CorpusError::Frame {
            shard,
            segment: entry.segment,
            source,
        };
        // Read header + payload in one bounded read: what the manifest
        // says the frame occupies, and not a byte more.
        let want = HEADER_LEN as u64 + entry.payload_len;
        let mut bytes = Vec::with_capacity(want as usize);
        file.take(want)
            .read_to_end(&mut bytes)
            .map_err(io_err(format!("read shard {shard}")))?;
        let header = FrameHeader::parse(&bytes).map_err(framed)?;
        self.cross_check(shard, &header)?;
        frame::decode_frame(&bytes).map_err(framed)?;
        Ok(bytes)
    }

    /// Reads and parses one shard into a [`LogBook`].
    ///
    /// # Errors
    ///
    /// As [`CorpusReader::read_shard_text`], plus [`CorpusError::Log`] on
    /// parse failure.
    pub fn read_shard(&self, shard: usize) -> Result<LogBook, CorpusError> {
        Ok(LogBook::from_text(&self.read_shard_text(shard)?)?)
    }

    /// Walks the whole corpus validating every frame against its header
    /// checksum and its manifest record, and every segment file for
    /// trailing garbage. With `deep`, each payload is additionally parsed
    /// as corpus text and its line count re-checked — the `ssfa corpus
    /// verify --deep` mode.
    ///
    /// # Errors
    ///
    /// The first integrity violation found, as the same typed errors the
    /// read path raises — verification and reading share one codec, so
    /// they cannot disagree about what "corrupt" means.
    pub fn verify(&self, deep: bool) -> Result<CorpusSummary, CorpusError> {
        let mut lines = 0u64;
        let mut shard = 0usize;
        for segment in 0..self.manifest.segments {
            let path = self.segment_path(segment);
            let bytes = std::fs::read(&path).map_err(io_err(format!("read {}", path.display())))?;
            let mut offset = 0u64;
            while shard < self.manifest.shards.len()
                && self.manifest.shards[shard].segment == segment
            {
                let framed = |source| CorpusError::Frame {
                    shard,
                    segment,
                    source,
                };
                let (header, text) =
                    frame::decode_frame_text(&bytes[offset as usize..]).map_err(framed)?;
                self.cross_check(shard, &header)?;
                if deep {
                    let book = LogBook::from_text(text)?;
                    if book.len() as u64 != header.line_count {
                        return Err(CorpusError::EntryMismatch {
                            shard,
                            field: "parsed line count",
                            manifest: header.line_count,
                            frame: book.len() as u64,
                        });
                    }
                }
                lines += header.line_count;
                offset += header.frame_len();
                shard += 1;
            }
            if offset != bytes.len() as u64 {
                return Err(CorpusError::TrailingBytes {
                    segment,
                    bytes: bytes.len() as u64 - offset,
                });
            }
        }
        Ok(CorpusSummary {
            shards: self.manifest.shards.len(),
            segments: self.manifest.segments,
            payload_bytes: self.manifest.total_payload_bytes,
            lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_model::FleetConfig;
    use ssfa_sim::Simulator;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("ssfa-store-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn write_atomic_replaces_the_target_and_leaves_no_tmp() {
        let tmp = TempDir::new("atomic");
        std::fs::create_dir_all(&tmp.0).unwrap();
        let target = tmp.0.join("MANIFEST");
        write_atomic(&target, b"first\n").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first\n");
        write_atomic(&target, b"second, longer\n").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second, longer\n");
        let names: Vec<_> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["MANIFEST"], "no .tmp may survive a publish");
    }

    fn small_run() -> (Fleet, SimOutput) {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.001), 21);
        let out = Simulator::default().run(&fleet, 21);
        (fleet, out)
    }

    #[test]
    fn build_verify_and_read_back_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let (fleet, out) = small_run();
        let summary = CorpusWriter::new(&tmp.0)
            .segment_shards(7)
            .param("scale", "0.001")
            .write(&fleet, &out, CascadeStyle::RaidOnly, 21)
            .unwrap();
        assert_eq!(summary.shards, fleet.systems().len());
        assert_eq!(summary.segments, fleet.systems().len().div_ceil(7));

        let reader = CorpusReader::open(&tmp.0).unwrap();
        assert_eq!(reader.shard_count(), summary.shards);
        assert_eq!(reader.manifest().seed, 21);
        assert_eq!(
            reader.manifest().params,
            vec![("scale".to_owned(), "0.001".to_owned())]
        );
        assert_eq!(reader.verify(true).unwrap(), summary);

        // Every shard reads back as exactly the book SimSource would load.
        let plan = ShardPlan::new(&fleet, &out);
        for shard in 0..reader.shard_count() {
            let expected = render_system_log(
                &fleet,
                &out,
                &plan,
                shard,
                CascadeStyle::RaidOnly,
                NoiseParams::none(),
                21,
            );
            assert_eq!(reader.read_shard(shard).unwrap(), expected, "shard {shard}");
        }
    }

    #[test]
    fn manifest_text_round_trips() {
        let tmp = TempDir::new("manifest");
        let (fleet, out) = small_run();
        CorpusWriter::new(&tmp.0)
            .param("scale", "0.001")
            .param("note", "two words")
            .write(&fleet, &out, CascadeStyle::Full, 3)
            .unwrap();
        let text = std::fs::read_to_string(tmp.0.join(MANIFEST_NAME)).unwrap();
        let manifest = Manifest::parse(&text).unwrap();
        assert_eq!(manifest.to_text(), text);
        assert_eq!(manifest.style, CascadeStyle::Full);
        assert_eq!(manifest.params[1].1, "two words");
    }

    #[test]
    fn writer_refuses_to_clobber_an_existing_corpus() {
        let tmp = TempDir::new("clobber");
        let (fleet, out) = small_run();
        let writer = CorpusWriter::new(&tmp.0);
        writer
            .write(&fleet, &out, CascadeStyle::RaidOnly, 1)
            .unwrap();
        let err = writer
            .write(&fleet, &out, CascadeStyle::RaidOnly, 1)
            .unwrap_err();
        assert!(matches!(err, CorpusError::AlreadyExists { .. }), "{err}");
    }

    #[test]
    fn corpus_bytes_are_deterministic() {
        let tmp_a = TempDir::new("det-a");
        let tmp_b = TempDir::new("det-b");
        let (fleet, out) = small_run();
        for dir in [&tmp_a.0, &tmp_b.0] {
            CorpusWriter::new(dir)
                .segment_shards(5)
                .write(&fleet, &out, CascadeStyle::RaidOnly, 21)
                .unwrap();
        }
        let names: Vec<String> = {
            let mut names: Vec<String> = std::fs::read_dir(&tmp_a.0)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert!(names.contains(&MANIFEST_NAME.to_owned()));
        for name in names {
            let a = std::fs::read(tmp_a.0.join(&name)).unwrap();
            let b = std::fs::read(tmp_b.0.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs between identical builds");
        }
    }
}
