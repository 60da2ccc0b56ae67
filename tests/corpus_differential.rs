//! The corpus differential suite: disk-backed analysis must be
//! bit-identical to in-memory analysis.
//!
//! For every grid point — scales {0.001, 0.01} × seeds {1988, 2008} ×
//! threads {1, 4} — a corpus is built once to a temp directory
//! (`CorpusWriter`), then the staged engine runs the same configuration
//! over three sources: the in-memory [`ssfa::pipeline::SimSource`], the
//! buffered [`ssfa::FileSource`], and the zero-copy [`ssfa::MmapSource`].
//! All three Table 1 reports must be byte-identical.
//!
//! This extends `tests/engine_grid.rs`'s golden pinning to disk: the
//! scale-0.002 / seed-7 corpus must reproduce the *pre-refactor* golden
//! (`tests/golden/table1.txt`) through both disk-backed sources. The
//! golden file is deliberately NOT regenerated — it predates the corpus
//! subsystem entirely, so a match proves the disk round trip changed no
//! observable output.

use std::path::PathBuf;

use ssfa::logs::{CorpusReader, CorpusWriter};
use ssfa::pipeline::{SimSource, Source};
use ssfa::{FileSource, MmapSource, Pipeline};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-corpus-diff-{}-{tag}", std::process::id()));
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

/// Runs `pipeline` over `source` and renders the Table 1 report.
fn report(pipeline: &Pipeline, source: &dyn Source) -> String {
    let (study, _, health) = pipeline.run_source(source).expect("clean corpus analyzes");
    assert!(health.is_clean(), "clean corpus lost data: {health}");
    table1(&study)
}

#[test]
fn disk_backed_sources_match_sim_source_across_the_grid() {
    for scale in [0.001, 0.01] {
        for seed in [1988u64, 2008] {
            let tmp = TempDir::new(&format!("grid-{scale}-{seed}"));
            let base = Pipeline::new().scale(scale).seed(seed);
            let fleet = base.build_fleet();
            let output = base.simulate(&fleet);
            let style = ssfa::logs::CascadeStyle::RaidOnly; // the Pipeline default
            CorpusWriter::new(&tmp.0)
                .write(&fleet, &output, style, seed)
                .expect("corpus builds");

            // The corpus is read-verified once up front, exactly as the
            // CLI's `corpus verify` would.
            CorpusReader::open(&tmp.0)
                .expect("manifest parses")
                .verify(true)
                .expect("fresh corpus verifies deeply");

            let sim = SimSource::new(&fleet, &output, style, seed);
            let file = FileSource::open(&tmp.0).expect("file source opens");
            let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
            assert_eq!(file.shard_count(), fleet.systems().len());
            assert_eq!(mmap.shard_count(), fleet.systems().len());

            for threads in [1, 4] {
                let pipeline = base.clone().threads(threads);
                let expected = report(&pipeline, &sim);
                assert_eq!(
                    report(&pipeline, &file),
                    expected,
                    "FileSource diverged (scale={scale}, seed={seed}, threads={threads})"
                );
                assert_eq!(
                    report(&pipeline, &mmap),
                    expected,
                    "MmapSource diverged (scale={scale}, seed={seed}, threads={threads})"
                );
            }
        }
    }
}

/// The disk-backed extension of `tests/engine_grid.rs`: the corpus round
/// trip must reproduce the pre-refactor golden byte for byte, through
/// both disk-backed sources, under both chunking policies.
#[test]
fn disk_backed_sources_match_the_pre_refactor_golden() {
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table1.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", golden_path.display()));

    let tmp = TempDir::new("golden");
    let base = Pipeline::new().scale(0.002).seed(7);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(&tmp.0)
        .write(&fleet, &output, ssfa::logs::CascadeStyle::RaidOnly, 7)
        .expect("corpus builds");

    let file = FileSource::open(&tmp.0).expect("file source opens");
    let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
    for fixed_chunks in [false, true] {
        let mut pipeline = base.clone().threads(4);
        if fixed_chunks {
            pipeline = pipeline.chunk_systems(1);
        }
        for (name, source) in [("file", &file as &dyn Source), ("mmap", &mmap)] {
            assert_eq!(
                report(&pipeline, source),
                golden,
                "{name} source diverged from golden (chunk-1={fixed_chunks})"
            );
        }
    }
}

/// The borrowed/owned accounting differential: a corrupt shard must
/// produce *identical* lenient-mode degraded output whether the frame
/// reached the worker through the owned path ([`FileSource`], which
/// copies the payload into a `String`) or the borrowed path
/// ([`MmapSource`], which feeds the classifier straight out of the map).
/// Both paths panic the worker on the checksum mismatch, so the chunk is
/// retried then quarantined — and the quarantine record (systems, shard
/// range, attempts, reason, `lines_lost`), the rest of `RunHealth`, the
/// `StreamStats`, and the merged Table 1 must all match field for field.
#[test]
fn corrupt_shard_quarantine_is_identical_for_borrowed_and_owned_paths() {
    let tmp = TempDir::new("quarantine");
    let base = Pipeline::new().scale(0.002).seed(7);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(&tmp.0)
        .write(&fleet, &output, ssfa::logs::CascadeStyle::RaidOnly, 7)
        .expect("corpus builds");

    // Flip one payload byte in the middle of a mid-corpus shard's frame.
    // Any flip breaks the FNV digest, which both sources verify before
    // handing text to the classifier.
    let reader = CorpusReader::open(&tmp.0).expect("manifest parses");
    let victim = reader.shard_count() / 2;
    let entry = reader.manifest().shards[victim];
    let seg_path = reader.segment_path(entry.segment);
    let mut bytes = std::fs::read(&seg_path).expect("segment reads");
    let at = entry.offset as usize + ssfa::logs::HEADER_LEN + entry.payload_len as usize / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&seg_path, &bytes).expect("segment rewrites");

    let file = FileSource::open(&tmp.0).expect("file source opens");
    let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
    for threads in [1, 4] {
        // One system per chunk so the quarantine blast radius is exactly
        // the corrupted shard.
        let pipeline = base.clone().threads(threads).lenient().chunk_systems(1);
        let (study_f, stats_f, health_f) =
            pipeline.run_source(&file).expect("lenient run degrades");
        let (study_m, stats_m, health_m) =
            pipeline.run_source(&mmap).expect("lenient run degrades");

        // The record itself must be exact and identical across paths.
        assert_eq!(health_f.quarantined.len(), 1, "{health_f}");
        let q = &health_f.quarantined[0];
        assert_eq!(q.shards, victim..victim + 1);
        assert_eq!(q.systems, vec![ssfa::model::SystemId(entry.system_id)]);
        assert_eq!(q.attempts, 2, "one retry before quarantine");
        assert_eq!(
            q.lines_lost,
            Some(entry.line_count),
            "loss is charged from the manifest, not a re-read of the bad frame"
        );
        assert_eq!(health_f.quarantined, health_m.quarantined);
        assert_eq!(health_f, health_m, "RunHealth diverged (threads={threads})");
        assert_eq!(stats_f, stats_m, "StreamStats diverged (threads={threads})");
        assert_eq!(
            table1(&study_f),
            table1(&study_m),
            "degraded Table 1 diverged (threads={threads})"
        );
    }
}

/// Rebuilding the same `(fleet, seed)` corpus twice yields byte-identical
/// directories — the determinism contract `ssfa-lint` enforces statically,
/// checked dynamically at the corpus level.
#[test]
fn corpus_builds_are_reproducible_byte_for_byte() {
    let a = TempDir::new("repro-a");
    let b = TempDir::new("repro-b");
    let base = Pipeline::new().scale(0.001).seed(1988);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    for dir in [&a.0, &b.0] {
        CorpusWriter::new(dir)
            .segment_shards(16)
            .write(&fleet, &output, ssfa::logs::CascadeStyle::RaidOnly, 1988)
            .expect("corpus builds");
    }
    let mut names: Vec<String> = std::fs::read_dir(&a.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.iter().any(|n| n == "MANIFEST"));
    for name in names {
        let left = std::fs::read(a.0.join(&name)).unwrap();
        let right = std::fs::read(b.0.join(&name)).unwrap();
        assert_eq!(left, right, "{name} differs between identical builds");
    }
}
