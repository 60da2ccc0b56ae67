//! Acceptance suite for persistent fold epochs: resuming from a
//! checkpoint must (1) produce the identical study a cold run produces,
//! and (2) *touch only the shards that arrived after the last durable
//! epoch* — witnessed by the disk sources' read counters, not inferred
//! from timing.
//!
//! The incremental scenario mirrors the paper's operational reality: a
//! storage-log archive grows by a month of fresh shards, and re-rendering
//! Table 1 should cost one epoch of folding, not a re-read of the years
//! already absorbed. The "older" corpus here is a byte-level prefix of
//! the full one (same seed, same rendered frames, truncated manifest),
//! exactly what an appending `CorpusWriter` run would have left behind.

use std::path::{Path, PathBuf};

use ssfa::logs::checkpoint::CheckpointWriter;
use ssfa::logs::{CascadeStyle, Manifest, HEADER_LEN, MANIFEST_NAME};
use ssfa::{FileSource, Pipeline};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-ckpt-resume-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn table1(study: &ssfa::core::Study) -> String {
    let mut out = String::new();
    for row in study.table1() {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

fn build_corpus(dir: &Path) {
    let base = Pipeline::new().scale(SCALE).seed(SEED);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    ssfa::logs::CorpusWriter::new(dir)
        .write(&fleet, &output, CascadeStyle::RaidOnly, SEED)
        .expect("corpus builds");
}

/// Materializes the corpus as it looked `keep` shards ago: segment
/// files cut at the last kept frame's end, manifest truncated to match.
/// Frames abut from offset 0 within each segment, so any shard-count
/// prefix is itself a valid corpus.
fn prefix_corpus(full: &Path, out: &Path, keep: usize) {
    let text = std::fs::read_to_string(full.join(MANIFEST_NAME)).expect("manifest reads");
    let mut manifest = Manifest::parse(&text).expect("manifest parses");
    assert!(keep > 0 && keep < manifest.shards.len(), "bad prefix size");
    manifest.shards.truncate(keep);
    manifest.segments = manifest.shards.last().map_or(0, |e| e.segment + 1);
    manifest.total_payload_bytes = manifest.shards.iter().map(|e| e.payload_len).sum();

    std::fs::create_dir_all(out).expect("prefix dir creates");
    for segment in 0..manifest.segments {
        let name = format!("segment-{segment:05}.seg");
        let bytes = std::fs::read(full.join(&name)).expect("segment reads");
        let end = manifest
            .shards
            .iter()
            .filter(|e| e.segment == segment)
            .map(|e| e.offset as usize + HEADER_LEN + e.payload_len as usize)
            .max()
            .expect("kept segment holds at least one shard");
        std::fs::write(out.join(&name), &bytes[..end]).expect("segment prefix writes");
    }
    std::fs::write(out.join(MANIFEST_NAME), manifest.to_text()).expect("manifest writes");
}

#[test]
fn appending_new_shards_refolds_only_the_new_epoch() {
    let full = TempDir::new("full");
    let old = TempDir::new("old");
    let ckpt = TempDir::new("store");
    build_corpus(&full.0);

    let total = {
        let text = std::fs::read_to_string(full.0.join(MANIFEST_NAME)).expect("manifest reads");
        Manifest::parse(&text)
            .expect("manifest parses")
            .shards
            .len()
    };
    let keep = (total * 2) / 3;
    prefix_corpus(&full.0, &old.0, keep);

    let pipeline = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(2)
        .chunk_systems(1)
        .epoch_chunks(1);

    // Last month: fold the archive as it stood, checkpointing each epoch.
    let source = FileSource::open(&old.0).expect("prefix corpus opens");
    pipeline
        .run_source_checkpointed(&source, &ckpt.0)
        .expect("cold checkpointed run succeeds");
    assert_eq!(
        source.shard_reads(),
        keep as u64,
        "the cold run reads the whole prefix"
    );

    // This month: the corpus has grown; resume must absorb only the tail.
    let source = FileSource::open(&full.0).expect("grown corpus opens");
    let (study, _, health) = pipeline
        .resume_from(&source, &ckpt.0)
        .expect("resumed run succeeds");
    assert_eq!(
        source.shard_reads(),
        (total - keep) as u64,
        "resume must re-read only the shards after the last durable epoch"
    );
    assert_eq!(
        health.shards_total,
        total - keep,
        "health audits the increment"
    );
    assert!(health.is_clean(), "{health}");

    // And the incremental study is bit-identical to folding everything.
    let source = FileSource::open(&full.0).expect("oracle corpus opens");
    let (cold, _, _) = pipeline.run_source(&source).expect("cold oracle runs");
    assert_eq!(source.shard_reads(), total as u64);
    assert_eq!(
        table1(&study),
        table1(&cold),
        "incremental Table 1 diverged from the cold full fold"
    );
}

/// A checkpoint written by a future snapshot schema is refused with the
/// exact operator-facing message, not absorbed or clobbered.
#[test]
fn future_snapshot_version_is_refused_with_pinned_message() {
    let full = TempDir::new("ver-corpus");
    let ckpt = TempDir::new("ver-store");
    build_corpus(&full.0);
    CheckpointWriter::create(
        &ckpt.0,
        ssfa::core::SNAPSHOT_VERSION + 1,
        SEED,
        CascadeStyle::RaidOnly,
    )
    .expect("future-versioned store creates");

    let source = FileSource::open(&full.0).expect("corpus opens");
    let err = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .resume_from(&source, &ckpt.0)
        .expect_err("future snapshot schema must be refused");
    assert_eq!(
        err.to_string(),
        "checkpoint snapshot failed: unsupported snapshot version 3 \
         (this build reads version 2)"
    );
}

/// A checkpoint folded from a different corpus is refused with the
/// disagreeing identity field named.
#[test]
fn foreign_corpus_checkpoint_is_refused_with_pinned_message() {
    let full = TempDir::new("foreign-corpus");
    let ckpt = TempDir::new("foreign-store");
    build_corpus(&full.0);
    CheckpointWriter::create(
        &ckpt.0,
        ssfa::core::SNAPSHOT_VERSION,
        999,
        CascadeStyle::RaidOnly,
    )
    .expect("foreign-seeded store creates");

    let source = FileSource::open(&full.0).expect("corpus opens");
    let err = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .resume_from(&source, &ckpt.0)
        .expect_err("foreign corpus checkpoint must be refused");
    assert_eq!(
        err.to_string(),
        "checkpoint store failed: checkpoint/corpus disagreement on seed: \
         checkpoint has 999, corpus has 7"
    );
}
