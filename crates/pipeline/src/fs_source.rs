//! Disk-backed [`Source`] implementations over an on-disk corpus
//! (`ssfa_logs::store`): [`FileSource`] reads shard frames with buffered
//! positioned reads, [`MmapSource`] maps each segment file once and feeds
//! the parser zero-copy `&str` views with no intermediate `String`.
//!
//! Both decode through the one shared frame codec (`ssfa_logs::frame`)
//! and cross-check every frame against the corpus manifest, so a
//! corrupted shard — flipped byte, truncation, wrong magic or version,
//! manifest disagreement — surfaces as a load panic carrying the typed
//! error's message. The engine's existing panic-isolation boundary then
//! applies the configured [`ssfa_logs::Strictness`]: strict aborts the
//! run with [`crate::PipelineError::Worker`]; lenient retries once and
//! quarantines the chunk with **exact** loss accounting, because both
//! sources answer [`Source::system_ids`] and [`Source::count_lines`] from
//! the manifest without touching the (possibly corrupt) shard bytes.
//!
//! Corruption that slips every checksum but breaks line syntax is the
//! classifier's to judge, not the source's: shards load as
//! [`ShardData::Text`] and feed the byte-oriented parser, so strict mode
//! reports the exact bad line as [`crate::PipelineError::Log`] and
//! lenient mode skips and counts it like any other malformed line.

use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use memmap2::Mmap;
use ssfa_logs::store::{CorpusError, CorpusReader};
use ssfa_logs::{decode_frame_text, ChunkPlan, DEFAULT_CHUNK_TARGET_BYTES};
use ssfa_model::SystemId;

use crate::plan::ChunkPolicy;
use crate::source::{ShardData, Source};

/// Plans chunks for a manifest-backed source: fixed counts need no sizes;
/// the auto policy uses the manifest's exact payload lengths (where
/// `SimSource` can only estimate).
fn plan_corpus_chunks(reader: &CorpusReader, policy: ChunkPolicy) -> ChunkPlan {
    match policy {
        ChunkPolicy::Fixed(n) => ChunkPlan::fixed_count(reader.shard_count(), n),
        ChunkPolicy::Auto => {
            let sizes: Vec<u64> = reader
                .manifest()
                .shards
                .iter()
                .map(|e| e.payload_len)
                .collect();
            ChunkPlan::by_bytes(&sizes, DEFAULT_CHUNK_TARGET_BYTES as u64)
        }
    }
}

/// Manifest-answered [`Source::system_ids`]: valid even when the shard's
/// frame bytes are corrupt, which is what makes quarantine accounting
/// exact.
fn corpus_system_ids(reader: &CorpusReader, shard: usize) -> Vec<SystemId> {
    vec![SystemId(reader.manifest().shards[shard].system_id)]
}

/// A [`Source`] over an on-disk corpus using buffered positioned reads:
/// open the segment file, seek to the shard's frame, read exactly the
/// frame, verify, hand the text to the classifier. Cheap to open (only the
/// manifest is read) and reads only the shards the engine asks for.
#[derive(Debug)]
pub struct FileSource {
    reader: CorpusReader,
    /// Shard loads served so far — the resume proof's witness that an
    /// incremental run touched only the new epoch's shards.
    loads: AtomicU64,
}

impl FileSource {
    /// Opens the corpus at `dir` by parsing its manifest. No shard bytes
    /// are read until [`Source::load`].
    ///
    /// # Errors
    ///
    /// As [`CorpusReader::open`].
    pub fn open(dir: impl AsRef<Path>) -> Result<FileSource, CorpusError> {
        Ok(FileSource {
            reader: CorpusReader::open(dir.as_ref())?,
            loads: AtomicU64::new(0),
        })
    }

    /// The underlying corpus reader.
    pub fn reader(&self) -> &CorpusReader {
        &self.reader
    }

    /// How many shard payloads [`Source::load`] has served since open.
    pub fn shard_reads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }
}

impl Source for FileSource {
    fn shard_count(&self) -> usize {
        self.reader.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        plan_corpus_chunks(&self.reader, policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        match self.reader.read_shard_text(shard) {
            Ok(text) => ShardData::Text(Cow::Owned(text)),
            Err(e) => panic!("{e}"),
        }
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        corpus_system_ids(&self.reader, shard)
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.reader.manifest().shards[shard].line_count
    }
}

/// A [`Source`] over an on-disk corpus using memory-mapped segment files:
/// every segment is mapped read-only once at open, and each load slices
/// the shard's frame straight out of the map — header parse, checksum
/// verify, UTF-8 check, and line parsing all run over the mapped bytes
/// with no intermediate `String` copy of the payload.
///
/// Safety invariants of the mapping (see the `memmap2` stand-in's docs):
/// maps are read-only and private, and the corpus is write-once by
/// construction, so nothing mutates the files while they are mapped; even
/// an out-of-contract mutation is caught by the per-frame checksum rather
/// than silently parsed.
#[derive(Debug)]
pub struct MmapSource {
    reader: CorpusReader,
    /// One read-only map per segment file, in segment order.
    segments: Vec<Mmap>,
    /// Shard loads served so far — same witness as [`FileSource`]'s; a
    /// map is established per segment up front, but decode + verify work
    /// still happens per load.
    loads: AtomicU64,
}

impl MmapSource {
    /// Opens the corpus at `dir` and maps every segment file read-only.
    ///
    /// # Errors
    ///
    /// As [`CorpusReader::open`], plus [`CorpusError::Io`] if a segment
    /// file cannot be opened or mapped.
    pub fn open(dir: impl AsRef<Path>) -> Result<MmapSource, CorpusError> {
        let reader = CorpusReader::open(dir.as_ref())?;
        let mut segments = Vec::with_capacity(reader.manifest().segments);
        for segment in 0..reader.manifest().segments {
            let path = reader.segment_path(segment);
            let map = std::fs::File::open(&path)
                .and_then(|file| Mmap::map_read_only(&file))
                .map_err(|source| CorpusError::Io {
                    what: format!("map {}", path.display()),
                    source,
                })?;
            segments.push(map);
        }
        Ok(MmapSource {
            reader,
            segments,
            loads: AtomicU64::new(0),
        })
    }

    /// The underlying corpus reader.
    pub fn reader(&self) -> &CorpusReader {
        &self.reader
    }

    /// How many shard payloads [`Source::load`] has served since open.
    pub fn shard_reads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Decodes shard `shard` out of its mapped segment, returning the
    /// payload as a borrowed `&str` view into the map.
    fn shard_text(&self, shard: usize) -> Result<&str, CorpusError> {
        let entry = self.reader.manifest().shards[shard];
        let map = &self.segments[entry.segment];
        let framed = |source| CorpusError::Frame {
            shard,
            segment: entry.segment,
            source,
        };
        let bytes = map.get(entry.offset as usize..).ok_or_else(|| {
            framed(ssfa_logs::FrameError::Truncated {
                what: "header",
                needed: ssfa_logs::HEADER_LEN as u64,
                available: 0,
            })
        })?;
        let (header, text) = decode_frame_text(bytes).map_err(framed)?;
        self.reader.cross_check(shard, &header)?;
        Ok(text)
    }
}

impl Source for MmapSource {
    fn shard_count(&self) -> usize {
        self.reader.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        plan_corpus_chunks(&self.reader, policy)
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        match self.shard_text(shard) {
            Ok(text) => ShardData::Text(Cow::Borrowed(text)),
            Err(e) => panic!("{e}"),
        }
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        corpus_system_ids(&self.reader, shard)
    }

    fn count_lines(&self, shard: usize) -> u64 {
        self.reader.manifest().shards[shard].line_count
    }
}
