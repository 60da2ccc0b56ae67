//! Negative paths of the on-disk corpus subsystem, with pinned error
//! messages: every way a corpus can be wrong — truncated final frame, bad
//! magic, version mismatch, manifest/frame digest disagreement, empty
//! directory — must surface as the documented typed error with the exact
//! `Display` rendering asserted here.
//!
//! The second half proves the quarantine contract: under
//! `Strictness::Lenient` a single flipped payload byte in shard *k*
//! quarantines exactly that shard — its system id, its manifest line
//! count, nothing else — while strict mode aborts the run. Both disk
//! sources ([`ssfa::FileSource`], [`ssfa::MmapSource`]) are exercised,
//! because they must agree with `corpus verify` on what "corrupt" means
//! (they all decode through the one shared `ssfa_logs::frame` codec).

use std::path::{Path, PathBuf};

use ssfa::logs::{
    encode_frame, CascadeStyle, CorpusError, CorpusReader, CorpusWriter, FrameError, Strictness,
    HEADER_LEN, MANIFEST_NAME,
};
use ssfa::model::SystemId;
use ssfa::pipeline::Source;
use ssfa::{FileSource, MmapSource, Pipeline, PipelineError};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-corpus-neg-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a small single-segment corpus and returns the base pipeline
/// whose in-memory run it mirrors.
fn build_corpus(dir: &Path, scale: f64, seed: u64) -> Pipeline {
    let base = Pipeline::new().scale(scale).seed(seed);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(dir)
        .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
        .expect("corpus builds");
    base
}

fn segment0(dir: &Path) -> PathBuf {
    dir.join("segment-00000.seg")
}

/// XORs one byte of a file at `offset`.
fn flip_byte(path: &Path, offset: usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= mask;
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn empty_directory_is_a_missing_manifest() {
    let tmp = TempDir::new("empty");
    let err = CorpusReader::open(&tmp.0).unwrap_err();
    assert!(
        matches!(err, CorpusError::MissingManifest { .. }),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        format!(
            "corpus manifest not found: {}",
            tmp.0.join(MANIFEST_NAME).display()
        )
    );
    // Both sources refuse identically.
    assert!(FileSource::open(&tmp.0).is_err());
    assert!(MmapSource::open(&tmp.0).is_err());
}

#[test]
fn truncated_final_frame_is_typed_and_pinned() {
    let tmp = TempDir::new("truncated");
    build_corpus(&tmp.0, 0.001, 3);
    let seg = segment0(&tmp.0);
    let len = std::fs::metadata(&seg).unwrap().len();
    // Cut one byte off the final frame's payload.
    let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    file.set_len(len - 1).unwrap();
    drop(file);

    let reader = CorpusReader::open(&tmp.0).unwrap();
    let last = reader.shard_count() - 1;
    let entry = reader.manifest().shards[last];
    let err = reader.verify(false).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "corpus shard {last} (segment 0): truncated frame payload: need {} bytes, have {}",
            entry.payload_len,
            entry.payload_len - 1
        )
    );
    // The per-shard read path reports the same truncation.
    let read_err = reader.read_shard_text(last).unwrap_err();
    assert!(
        matches!(
            read_err,
            CorpusError::Frame { shard, .. } if shard == last
        ),
        "{read_err:?}"
    );
}

#[test]
fn bad_magic_is_typed_and_pinned() {
    let tmp = TempDir::new("magic");
    build_corpus(&tmp.0, 0.001, 3);
    // 'S' ^ 0x01 = 'R': the frame now opens "RSFC".
    flip_byte(&segment0(&tmp.0), 0, 0x01);
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let err = reader.verify(false).unwrap_err();
    assert_eq!(
        err.to_string(),
        "corpus shard 0 (segment 0): bad frame magic: expected [53, 53, 46, 43], \
         found [52, 53, 46, 43]"
    );
}

#[test]
fn version_mismatch_is_typed_and_pinned() {
    let tmp = TempDir::new("version");
    build_corpus(&tmp.0, 0.001, 3);
    // Version field is bytes 4..8 little-endian; 2 ^ 3 = 1.
    flip_byte(&segment0(&tmp.0), 4, 0x03);
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let err = reader.verify(false).unwrap_err();
    assert_eq!(
        err.to_string(),
        "corpus shard 0 (segment 0): unsupported frame version 1 (this build reads version 2)"
    );
}

#[test]
fn manifest_digest_disagreement_is_typed_and_pinned() {
    let tmp = TempDir::new("digest");
    build_corpus(&tmp.0, 0.001, 3);
    let manifest_path = tmp.0.join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let honest = reader.manifest().shards[0].checksum;
    // Rewrite shard 0's digest with its bitwise complement, preserving
    // the hex-16 format so the manifest still parses.
    let doctored = text.replace(&format!("{honest:016x}"), &format!("{:016x}", !honest));
    assert_ne!(doctored, text, "digest not found in manifest");
    std::fs::write(&manifest_path, doctored).unwrap();

    let reader = CorpusReader::open(&tmp.0).unwrap();
    let err = reader.verify(false).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "corpus shard 0: manifest digest {:016x} disagrees with frame digest {:016x}",
            !honest, honest
        )
    );
    // The read path applies the identical cross-check.
    let read_err = reader.read_shard_text(0).unwrap_err();
    assert!(
        matches!(read_err, CorpusError::DigestMismatch { shard: 0, .. }),
        "{read_err:?}"
    );
}

/// A hand-built frame whose checksum and manifest entry are both honest
/// but whose payload is not UTF-8 (the writer never emits one): the
/// per-shard read path and `corpus verify` report the codec's pinned
/// error, and both disk-backed sources refuse the shard identically.
#[test]
fn non_utf8_payload_is_typed_and_pinned() {
    let tmp = TempDir::new("not-utf8");
    let base = build_corpus(&tmp.0, 0.001, 3);
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let entry = reader.manifest().shards[0];
    let mut payload = reader.read_shard_frame(0).unwrap()[HEADER_LEN..].to_vec();
    payload[5] = 0xff;
    let mut frame = Vec::new();
    let header = encode_frame(&mut frame, entry.system_id, entry.line_count, &payload);
    let seg = segment0(&tmp.0);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[entry.offset as usize..][..frame.len()].copy_from_slice(&frame);
    std::fs::write(&seg, bytes).unwrap();
    let manifest_path = tmp.0.join(MANIFEST_NAME);
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let doctored = text.replace(
        &format!("{:016x}", entry.checksum),
        &format!("{:016x}", header.checksum),
    );
    assert_ne!(doctored, text, "digest not found in manifest");
    std::fs::write(&manifest_path, doctored).unwrap();

    let reader = CorpusReader::open(&tmp.0).unwrap();
    let err = reader.read_shard_text(0).unwrap_err();
    assert!(
        matches!(
            err,
            CorpusError::Frame {
                shard: 0,
                segment: 0,
                source: FrameError::PayloadNotUtf8 { at: 5 },
            }
        ),
        "{err:?}"
    );
    let pinned = "corpus shard 0 (segment 0): frame payload is not UTF-8 (first invalid byte at 5)";
    assert_eq!(err.to_string(), pinned);
    assert_eq!(reader.verify(false).unwrap_err().to_string(), pinned);

    let pipeline = base.threads(1).chunk_systems(1).lenient();
    let file = FileSource::open(&tmp.0).unwrap();
    let mmap = MmapSource::open(&tmp.0).unwrap();
    let (_, _, file_health) = pipeline.run_source(&file).unwrap();
    let (_, _, mmap_health) = pipeline.run_source(&mmap).unwrap();
    assert_eq!(file_health, mmap_health);
    assert_eq!(file_health.quarantined.len(), 1, "{file_health}");
    let q = &file_health.quarantined[0];
    assert_eq!(q.shards, 0..1);
    assert!(q.reason.ends_with(pinned), "{:?}", q.reason);
}

#[test]
fn trailing_garbage_after_the_last_frame_is_typed_and_pinned() {
    let tmp = TempDir::new("trailing");
    build_corpus(&tmp.0, 0.001, 3);
    let seg = segment0(&tmp.0);
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(b"junk");
    std::fs::write(&seg, bytes).unwrap();
    let err = CorpusReader::open(&tmp.0)
        .unwrap()
        .verify(false)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "corpus segment 0: 4 trailing byte(s) after the last frame"
    );
}

/// One flipped payload byte in shard k, analyzed leniently: exactly that
/// shard's chunk is quarantined, charging exactly its system id and its
/// manifest line count — the acceptance criterion's "exact RunHealth loss
/// accounting". Checked for both disk-backed sources.
#[test]
fn lenient_flip_quarantines_exactly_the_corrupt_shard() {
    let tmp = TempDir::new("lenient-flip");
    let base = build_corpus(&tmp.0, 0.001, 2008);
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let k = reader.shard_count() / 2;
    let entry = reader.manifest().shards[k];
    // First payload byte of shard k's frame.
    flip_byte(&segment0(&tmp.0), entry.offset as usize + HEADER_LEN, 0x40);

    let total = reader.shard_count();
    let pipeline = base
        .threads(2)
        .chunk_systems(1)
        .strictness(Strictness::Lenient);
    let file = FileSource::open(&tmp.0).unwrap();
    let mmap = MmapSource::open(&tmp.0).unwrap();
    for (name, source) in [("file", &file as &dyn Source), ("mmap", &mmap)] {
        let (study, _, health) = pipeline.run_source(source).unwrap();
        assert!(
            !study.input().failures.is_empty(),
            "{name}: best-effort study still produced"
        );
        assert_eq!(health.shards_processed, total - 1, "{name}");
        assert_eq!(health.shards_quarantined(), 1, "{name}");
        assert_eq!(health.quarantined.len(), 1, "{name}");
        let q = &health.quarantined[0];
        assert_eq!(q.shards, k..k + 1, "{name}");
        assert_eq!(q.systems, vec![SystemId(entry.system_id)], "{name}");
        assert_eq!(q.lines_lost, Some(entry.line_count), "{name}");
        assert_eq!(q.attempts, 2, "{name}: one retry, then quarantine");
        assert!(
            q.reason.contains("frame checksum mismatch: stored"),
            "{name}: reason carries the codec's typed message, got {:?}",
            q.reason
        );
        assert_eq!(health.lines_lost(), Some(entry.line_count), "{name}");
        assert_eq!(
            health.lines_seen + entry.line_count,
            reader
                .manifest()
                .shards
                .iter()
                .map(|e| e.line_count)
                .sum::<u64>(),
            "{name}: every line is either seen or accounted lost"
        );
    }

    // `corpus verify` agrees with both sources on what is corrupt.
    let verify_err = reader.verify(false).unwrap_err();
    assert!(
        matches!(
            verify_err,
            CorpusError::Frame { shard, .. } if shard == k
        ),
        "{verify_err:?}"
    );
}

/// The same flipped byte under strict mode: the run aborts with a worker
/// error naming the corrupt chunk, rather than producing a study.
#[test]
fn strict_flip_aborts_the_run() {
    let tmp = TempDir::new("strict-flip");
    let base = build_corpus(&tmp.0, 0.001, 2008);
    let reader = CorpusReader::open(&tmp.0).unwrap();
    let entry = reader.manifest().shards[0];
    flip_byte(&segment0(&tmp.0), entry.offset as usize + HEADER_LEN, 0x40);

    let pipeline = base.threads(1).chunk_systems(1);
    let source = FileSource::open(&tmp.0).unwrap();
    let err = pipeline.run_source(&source).unwrap_err();
    match err {
        PipelineError::Worker { what } => {
            assert!(
                what.contains("frame checksum mismatch"),
                "strict abort carries the codec message: {what}"
            );
        }
        other => panic!("expected a worker abort, got {other:?}"),
    }
}
