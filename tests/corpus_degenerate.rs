//! Degenerate-corpus coverage for the disk-backed sources: a zero-shard
//! manifest, an empty segment file (both the benign stray kind and the
//! malignant truncated kind), and a single-system fleet. Each must be
//! handled deliberately — empty analyses complete cleanly, truncation is
//! a loud typed failure with exact loss accounting, and a one-shard
//! corpus flows through both sources and any thread count.

use std::path::PathBuf;

use ssfa::logs::store::segment_file_name;
use ssfa::logs::{CascadeStyle, CorpusReader, CorpusWriter, Manifest, MANIFEST_NAME};
use ssfa::model::{Fleet, FleetConfig, SystemClass};
use ssfa::pipeline::Source;
use ssfa::sim::Simulator;
use ssfa::{FileSource, MmapSource, Pipeline, StreamStats};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-corpus-degen-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A syntactically valid corpus directory holding zero shards.
fn write_zero_shard_corpus(dir: &std::path::Path) {
    let manifest = Manifest {
        seed: 0,
        style: CascadeStyle::RaidOnly,
        segment_shards: 512,
        params: Vec::new(),
        shards: Vec::new(),
        segments: 0,
        total_payload_bytes: 0,
    };
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(MANIFEST_NAME), manifest.to_text()).unwrap();
}

#[test]
fn zero_shard_manifest_analyzes_to_a_clean_empty_run() {
    let tmp = TempDir::new("zero-shard");
    write_zero_shard_corpus(&tmp.0);
    // A stray empty segment file must not confuse anything: the manifest
    // declares zero segments, so no reader ever opens it.
    std::fs::write(tmp.0.join(segment_file_name(0)), b"").unwrap();

    let reader = CorpusReader::open(&tmp.0).expect("zero-shard manifest parses");
    assert_eq!(reader.shard_count(), 0);
    let summary = reader.verify(true).expect("empty corpus verifies");
    assert_eq!((summary.shards, summary.segments, summary.lines), (0, 0, 0));

    let file = FileSource::open(&tmp.0).expect("file source opens");
    let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
    assert_eq!(file.shard_count(), 0);
    assert_eq!(mmap.shard_count(), 0);

    for source in [&file as &dyn Source, &mmap] {
        let (study, stats, health) = Pipeline::new()
            .threads(1)
            .run_source(source)
            .expect("empty analysis completes");
        assert_eq!(study.input().topology.systems.len(), 0);
        assert_eq!(study.input().failures.len(), 0);
        assert_eq!(stats, StreamStats::default());
        assert_eq!((health.shards_total, health.chunks_total), (0, 0));
        assert!(health.is_clean(), "{health}");
        assert_eq!(health.coverage(), 1.0);
    }
}

#[test]
fn truncated_to_empty_segment_fails_loudly_with_exact_accounting() {
    let tmp = TempDir::new("empty-segment");
    let base = Pipeline::new().scale(0.001).seed(9);
    let fleet = base.build_fleet();
    let output = base.simulate(&fleet);
    CorpusWriter::new(&tmp.0)
        .write(&fleet, &output, CascadeStyle::RaidOnly, 9)
        .expect("corpus builds");

    // Simulate the classic partial-write failure: the segment file exists
    // but holds zero bytes, while the manifest still promises shards.
    let reader = CorpusReader::open(&tmp.0).expect("manifest parses");
    let shards = reader.shard_count();
    let promised_lines: u64 = reader.manifest().shards.iter().map(|e| e.line_count).sum();
    assert!(shards > 1, "need a multi-shard corpus to make loss visible");
    std::fs::write(tmp.0.join(segment_file_name(0)), b"").unwrap();

    // Verification convicts shard 0 with the typed frame error.
    let err = CorpusReader::open(&tmp.0)
        .unwrap()
        .verify(false)
        .unwrap_err();
    assert!(
        err.to_string().contains("corpus shard 0"),
        "wrong conviction: {err}"
    );

    // Both sources still *open* (the manifest is intact; mapping an empty
    // file is an empty slice, not an error) — the failure surfaces on
    // load, where strictness policy applies.
    let file = FileSource::open(&tmp.0).expect("file source opens on manifest alone");
    let mmap = MmapSource::open(&tmp.0).expect("mmap source maps the empty segment");

    // Strict: the run aborts with the shard's typed error in the message.
    let err = Pipeline::new()
        .threads(1)
        .run_source(&file)
        .expect_err("strict run must refuse a truncated corpus");
    assert!(
        err.to_string().contains("corpus shard"),
        "error lost the shard identity: {err}"
    );

    // Lenient: every chunk quarantines, and — because loss accounting is
    // answered from the manifest, never from the unreadable bytes — the
    // lines lost are counted exactly.
    let (study, _, health) = Pipeline::new()
        .threads(1)
        .chunk_systems(1)
        .lenient()
        .run_source(&mmap)
        .expect("lenient run completes degraded");
    assert_eq!(study.input().topology.systems.len(), 0);
    assert_eq!(health.shards_total, shards);
    assert_eq!(health.shards_processed, 0);
    assert_eq!(health.chunks_quarantined(), shards);
    assert_eq!(health.coverage(), 0.0);
    assert_eq!(health.lines_lost(), Some(promised_lines));
}

#[test]
fn single_system_fleet_round_trips_through_both_sources() {
    let tmp = TempDir::new("single-system");
    let mut config = FleetConfig::paper().only_classes(&[SystemClass::NearLine]);
    config.classes[0].n_systems = 1;
    let fleet = Fleet::build(&config, 13);
    assert_eq!(fleet.systems().len(), 1);
    let output = Simulator::default().run(&fleet, 13);
    CorpusWriter::new(&tmp.0)
        .write(&fleet, &output, CascadeStyle::RaidOnly, 13)
        .expect("one-shard corpus builds");

    let file = FileSource::open(&tmp.0).expect("file source opens");
    let mmap = MmapSource::open(&tmp.0).expect("mmap source opens");
    assert_eq!(file.shard_count(), 1);
    assert_eq!(mmap.shard_count(), 1);

    let mut reports = Vec::new();
    for threads in [1, 4] {
        for source in [&file as &dyn Source, &mmap] {
            let (study, _, health) = Pipeline::new()
                .threads(threads)
                .run_source(source)
                .expect("one-shard analysis completes");
            assert_eq!(study.input().topology.systems.len(), 1);
            assert_eq!((health.shards_total, health.chunks_total), (1, 1));
            assert!(health.is_clean(), "{health}");
            reports.push(format!("{:?}", study.table1()));
        }
    }
    // One shard, any source, any thread count: identical reports.
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "single-shard reports diverged across sources/threads"
    );
}
