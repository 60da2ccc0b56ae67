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
use std::sync::atomic::{AtomicBool, Ordering};

use ssfa::core::StudyFold;
use ssfa::logs::checkpoint::{CheckpointReader, CheckpointWriter};
use ssfa::logs::{CascadeStyle, ChunkPlan, Manifest, HEADER_LEN, MANIFEST_NAME};
use ssfa::model::SystemId;
use ssfa::pipeline::{ChunkPolicy, ShardData, Source};
use ssfa::{FileSource, ManifestSource, MmapSource, Pipeline};

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
    build_corpus_at(dir, SCALE, SEED);
}

fn build_corpus_at(dir: &Path, scale: f64, seed: u64) {
    let base = Pipeline::new().scale(scale).seed(seed);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    ssfa::logs::CorpusWriter::new(dir)
        .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
        .expect("corpus builds");
}

fn shard_count(corpus: &Path) -> usize {
    let text = std::fs::read_to_string(corpus.join(MANIFEST_NAME)).expect("manifest reads");
    Manifest::parse(&text)
        .expect("manifest parses")
        .shards
        .len()
}

/// Total bytes of the files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("dir lists")
        .map(|entry| {
            entry
                .expect("dir entry")
                .metadata()
                .expect("metadata")
                .len()
        })
        .sum()
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

    let total = shard_count(&full.0);
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

/// A store whose restore chains a whole epoch, deltas and a whole epoch:
/// a cold run over last month's corpus ends in a whole epoch, a resume
/// over the grown corpus appends deltas and a whole epoch, and a
/// truncation into those deltas leaves the first run's whole epoch as
/// the base the deltas merge onto. Every resume must equal a cold run,
/// and the last epoch of every finished run is the finished fold.
#[test]
fn a_restore_merges_deltas_onto_the_previous_runs_whole_epoch() {
    let full = TempDir::new("chain-full");
    let old = TempDir::new("chain-old");
    let ckpt = TempDir::new("chain-store");
    build_corpus(&full.0);
    let total = shard_count(&full.0);
    let keep = (total * 2) / 3;
    prefix_corpus(&full.0, &old.0, keep);
    let pipeline = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(2)
        .chunk_systems(1);

    let (cold_prefix, _, _) = pipeline
        .run_source_checkpointed(&MmapSource::open(&old.0).expect("prefix opens"), &ckpt.0)
        .expect("cold checkpointed run succeeds");
    assert_last_epoch_is_the_fold(&ckpt.0, &cold_prefix);

    let source = MmapSource::open(&full.0).expect("grown corpus opens");
    let (cold, _, _) = pipeline.run_source(&source).expect("cold oracle runs");
    let (grown, _, _) = pipeline
        .resume_from(&source, &ckpt.0)
        .expect("resume over the grown corpus succeeds");
    assert_eq!(grown.input(), cold.input(), "resume over the grown corpus");
    assert_last_epoch_is_the_fold(&ckpt.0, &cold);

    // Keep the first run's epochs and half of the second run's deltas.
    let restored = keep + (total - keep) / 2;
    {
        let mut writer = CheckpointWriter::append_to(&ckpt.0).expect("checkpoint reopens");
        assert_eq!(writer.manifest().epochs.len(), total, "one epoch per shard");
        writer.truncate_to(restored).expect("checkpoint truncates");
        let manifest = writer.manifest();
        assert_eq!(
            manifest.fold_base(restored - 1),
            keep - 1,
            "the restore base is the first run's whole last epoch"
        );
        assert!(
            manifest.epochs[keep..].iter().all(|e| !e.is_whole()),
            "the second run's kept epochs are deltas"
        );
    }
    let source = FileSource::open(&full.0).expect("grown corpus opens");
    let (study, _, health) = pipeline
        .resume_from(&source, &ckpt.0)
        .expect("resume over merged deltas succeeds");
    assert_eq!(
        source.shard_reads(),
        (total - restored) as u64,
        "the restore reads no absorbed shard"
    );
    assert!(health.is_clean(), "{health}");
    assert_eq!(study.input(), cold.input(), "resume over merged deltas");
    assert_eq!(table1(&study), table1(&cold));
    assert_last_epoch_is_the_fold(&ckpt.0, &cold);
}

/// A strict run that fails at chunk `k` keeps the epochs before it: the
/// engine absorbs outcomes in chunk order up to the first failure, so
/// every epoch wholly before `k` is durable and verifies, none at or past
/// `k` is written, and a resume after the repair reads only from `k` on.
#[test]
fn a_strict_failure_keeps_the_epochs_before_it_durable() {
    let corpus = TempDir::new("strict-corpus");
    let ckpt = TempDir::new("strict-store");
    build_corpus(&corpus.0);
    let total = shard_count(&corpus.0);
    let pipeline = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(2)
        .chunk_systems(1)
        .epoch_chunks(1);
    let (cold, _, _) = pipeline
        .run_source(&FileSource::open(&corpus.0).expect("corpus opens"))
        .expect("cold run succeeds");

    // Flip one payload byte of shard `k`, which is chunk `k`.
    let text = std::fs::read_to_string(corpus.0.join(MANIFEST_NAME)).expect("manifest reads");
    let manifest = Manifest::parse(&text).expect("manifest parses");
    let k = (total / 2..total)
        .find(|&shard| manifest.shards[shard].payload_len > 0)
        .expect("a non-empty shard in the second half");
    assert!(k > 2, "{k} of {total} shards");
    let entry = &manifest.shards[k];
    let segment = corpus.0.join(format!("segment-{:05}.seg", entry.segment));
    let mut bytes = std::fs::read(&segment).expect("segment reads");
    let at = entry.offset as usize + HEADER_LEN + entry.payload_len as usize / 2;
    bytes[at] ^= 0x20;
    std::fs::write(&segment, &bytes).expect("corrupt segment writes");

    let err = pipeline
        .run_source_checkpointed(&FileSource::open(&corpus.0).expect("corpus opens"), &ckpt.0)
        .map(|_| ())
        .expect_err("a corrupt shard fails a strict run");
    assert!(
        matches!(err, ssfa::PipelineError::Worker { .. }),
        "expected a worker error, got {err}"
    );
    let reader = CheckpointReader::open(&ckpt.0).expect("checkpoint opens");
    reader.verify().expect("every written epoch verifies");
    assert_eq!(
        reader.epoch_count(),
        k,
        "exactly the epochs wholly before chunk {k} are durable"
    );
    assert_eq!(reader.manifest().covered_shards(), k);

    bytes[at] ^= 0x20;
    std::fs::write(&segment, &bytes).expect("segment restores");
    let source = FileSource::open(&corpus.0).expect("corpus opens");
    let (study, _, health) = pipeline
        .resume_from(&source, &ckpt.0)
        .expect("resume after the repair succeeds");
    assert_eq!(
        source.shard_reads(),
        (total - k) as u64,
        "resume reads only the shards from the first missing epoch on"
    );
    assert!(health.is_clean(), "{health}");
    assert_eq!(table1(&study), table1(&cold));
}

/// A [`FileSource`] whose load of shard `held` waits until the checkpoint
/// in `ckpt` lists an epoch: it polls every 10 ms, and after 1,000 polls
/// (10 s) records the timeout and loads anyway.
struct HoldsShardForAnEpoch<'a> {
    inner: FileSource,
    held: usize,
    ckpt: &'a Path,
    timed_out: AtomicBool,
}

impl Source for HoldsShardForAnEpoch<'_> {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }
    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        self.inner.plan_chunks(policy)
    }
    fn load(&self, shard: usize) -> ShardData<'_> {
        if shard == self.held {
            let epoch_listed =
                || CheckpointReader::open(self.ckpt).is_ok_and(|reader| reader.epoch_count() > 0);
            let mut polls = 0;
            while !epoch_listed() {
                if polls == 1_000 {
                    self.timed_out.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                polls += 1;
            }
        }
        self.inner.load(shard)
    }
    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        self.inner.system_ids(shard)
    }
    fn count_lines(&self, shard: usize) -> u64 {
        self.inner.count_lines(shard)
    }
}

impl ManifestSource for HoldsShardForAnEpoch<'_> {
    fn manifest(&self) -> &Manifest {
        self.inner.manifest()
    }
}

/// Epochs are written while workers classify: the last chunk's shard is
/// not loaded until epoch 0 is durable, which a run that folds only
/// after every chunk is classified never allows.
#[test]
fn an_epoch_is_durable_before_the_last_chunk_is_classified() {
    let corpus = TempDir::new("streaming-corpus");
    let ckpt = TempDir::new("streaming-store");
    build_corpus(&corpus.0);
    let pipeline = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .threads(2)
        .chunk_systems(1)
        .epoch_chunks(1);
    let (cold, _, _) = pipeline
        .run_source(&FileSource::open(&corpus.0).expect("corpus opens"))
        .expect("cold run succeeds");
    let source = HoldsShardForAnEpoch {
        inner: FileSource::open(&corpus.0).expect("corpus opens"),
        held: shard_count(&corpus.0) - 1,
        ckpt: &ckpt.0,
        timed_out: AtomicBool::new(false),
    };
    let (study, _, health) = pipeline
        .run_source_checkpointed(&source, &ckpt.0)
        .expect("checkpointed run succeeds");
    assert!(
        !source.timed_out.load(Ordering::SeqCst),
        "no epoch was durable 10 s into loading the last chunk's shard"
    );
    assert!(health.is_clean(), "{health}");
    assert_eq!(table1(&study), table1(&cold));
}

/// The checkpoint's last epoch is whole and decodes to `study`'s fold.
fn assert_last_epoch_is_the_fold(ckpt: &Path, study: &ssfa::core::Study) {
    let reader = CheckpointReader::open(ckpt).expect("checkpoint opens");
    let last = reader.epoch_count() - 1;
    assert!(
        reader.manifest().epochs[last].is_whole(),
        "the last epoch must hold the whole fold"
    );
    let fold = StudyFold::from_snapshot(&reader.read_epoch(last).expect("last epoch reads"))
        .expect("last epoch decodes");
    assert_eq!(fold.finish().input(), study.input());
}

/// Checkpoint bytes grow linearly with the corpus: doubling the fleet may
/// at most roughly double the checkpoint directory, and every epoch but
/// the whole-fold last one holds only its own chunks, so all epochs
/// together hold about two folds. Epochs that each held the cumulative
/// fold would grow with the square of the corpus. The checkpoint twin of
/// `tests/pipeline_roundtrip.rs::fold_snapshot_grows_linearly_with_scale`.
#[test]
fn checkpoint_bytes_grow_linearly_with_scale() {
    let measure = |scale: f64| {
        let corpus = TempDir::new(&format!("linear-corpus-{scale}"));
        let ckpt = TempDir::new(&format!("linear-store-{scale}"));
        build_corpus_at(&corpus.0, scale, 1234);
        let source = MmapSource::open(&corpus.0).expect("corpus opens");
        Pipeline::new()
            .scale(scale)
            .seed(1234)
            .threads(2)
            .run_source_checkpointed(&source, &ckpt.0)
            .expect("checkpointed run succeeds");
        let reader = CheckpointReader::open(&ckpt.0).expect("checkpoint opens");
        let epochs = &reader.manifest().epochs;
        assert!(
            epochs.len() >= 4,
            "{} epochs at scale {scale}",
            epochs.len()
        );
        let payload: u64 = epochs.iter().map(|e| e.payload_len).sum();
        let last = epochs.last().expect("epochs").payload_len;
        assert!(
            payload as f64 <= 2.1 * last as f64,
            "scale {scale}: {} epochs hold {payload} payload bytes, the last {last}",
            epochs.len()
        );
        dir_bytes(&ckpt.0)
    };
    let (small, large) = (measure(0.01), measure(0.02));
    assert!(
        large as f64 <= 2.2 * small as f64,
        "checkpoint grew {small} -> {large} bytes for a 2x corpus"
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
