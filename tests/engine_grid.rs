//! Acceptance grid for the staged engine refactor: every execution-path
//! configuration — {monolithic, streaming} × {chunk-1, chunk-auto} ×
//! {1, 4} threads — must reproduce the *pre-refactor* golden Table 1
//! byte for byte.
//!
//! The golden file (`tests/golden/table1.txt`) was committed before the
//! engine existed and is deliberately NOT regenerated here: this test is
//! the proof that dismantling the root crate into `ssfa-pipeline`'s stage
//! seams changed no observable output.
//!
//! The checkpoint-resume grid extends the same pinning to persistent
//! fold epochs: a cold checkpointed run, a run resumed from a truncated
//! checkpoint, and a resume over a fully-covered checkpoint must all
//! reproduce the identical golden through both disk-backed sources.

use std::path::PathBuf;

use ssfa::logs::checkpoint::CheckpointWriter;
use ssfa::logs::{CascadeStyle, CorpusWriter};
use ssfa::{FileSource, MmapSource, Pipeline};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

fn golden_table1() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table1.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()))
}

fn table1(study: &ssfa::core::Study) -> String {
    let mut out = String::new();
    for row in study.table1() {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

#[test]
fn streaming_grid_matches_the_pre_refactor_golden() {
    let golden = golden_table1();
    for threads in [1, 4] {
        for fixed_chunks in [false, true] {
            let mut pipeline = Pipeline::new().scale(SCALE).seed(SEED).threads(threads);
            if fixed_chunks {
                pipeline = pipeline.chunk_systems(1);
            }
            let (study, _, _) = pipeline.run().unwrap();
            assert_eq!(
                table1(&study),
                golden,
                "streaming diverged from golden (threads={threads}, chunk-1={fixed_chunks})"
            );
        }
    }
}

#[test]
fn monolithic_oracles_match_the_pre_refactor_golden() {
    let golden = golden_table1();
    let (mono, _, _) = Pipeline::new()
        .scale(SCALE)
        .seed(SEED)
        .run_monolithic()
        .unwrap();
    assert_eq!(
        table1(&mono),
        golden,
        "engine-hosted monolithic configuration diverged from golden"
    );
}

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-engine-grid-{}-{tag}", std::process::id()));
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
fn checkpoint_resume_matches_the_golden_across_the_grid() {
    let golden = golden_table1();
    let corpus = TempDir::new("ckpt-corpus");
    {
        let base = Pipeline::new().scale(SCALE).seed(SEED);
        let fleet = base.build_fleet();
        let output = base.simulate(&fleet);
        // RaidOnly is the Pipeline default the golden was rendered with.
        CorpusWriter::new(&corpus.0)
            .write(&fleet, &output, CascadeStyle::RaidOnly, SEED)
            .expect("corpus builds");
    }

    for mmap in [false, true] {
        for threads in [1usize, 4] {
            for fixed_chunks in [false, true] {
                let tag = format!("ckpt-{mmap}-{threads}-{fixed_chunks}");
                let ckpt = TempDir::new(&tag);
                let mut pipeline = Pipeline::new()
                    .scale(SCALE)
                    .seed(SEED)
                    .threads(threads)
                    .epoch_chunks(1);
                if fixed_chunks {
                    pipeline = pipeline.chunk_systems(1);
                }

                // One closure per grid point so FileSource/MmapSource
                // stay concrete types for the generic entry points.
                let run = |resume: bool| {
                    let result = if mmap {
                        let source = MmapSource::open(&corpus.0).expect("mmap source opens");
                        if resume {
                            pipeline.resume_from(&source, &ckpt.0)
                        } else {
                            pipeline.run_source_checkpointed(&source, &ckpt.0)
                        }
                    } else {
                        let source = FileSource::open(&corpus.0).expect("file source opens");
                        if resume {
                            pipeline.resume_from(&source, &ckpt.0)
                        } else {
                            pipeline.run_source_checkpointed(&source, &ckpt.0)
                        }
                    };
                    let (study, _, _) = result.expect("checkpointed run succeeds");
                    table1(&study)
                };
                let grid_point = format!("mmap={mmap}, threads={threads}, chunk-1={fixed_chunks}");

                let cold = run(false);
                assert_eq!(
                    cold, golden,
                    "cold checkpointed run diverged ({grid_point})"
                );

                // Drop all but the first durable epoch, then resume: the
                // tail must be refolded on top of the snapshot and land
                // on the identical golden.
                CheckpointWriter::append_to(&ckpt.0)
                    .expect("checkpoint reopens")
                    .truncate_to(1)
                    .expect("checkpoint truncates");
                let resumed = run(true);
                assert_eq!(resumed, golden, "truncated resume diverged ({grid_point})");

                // Resuming a fully-covered checkpoint folds zero new
                // chunks — pure snapshot decode — and must still match.
                let noop = run(true);
                assert_eq!(noop, golden, "no-op resume diverged ({grid_point})");
            }
        }
    }
}
