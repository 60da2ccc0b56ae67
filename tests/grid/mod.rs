//! The engine grid: the one determinism harness for the staged engine.
//! However a fleet's corpus is read, chunked, threaded or checkpointed,
//! the analysis must not change.
//!
//! A test hands [`run_grid`] its fleets ([`Case`]s) and the grid points
//! each runs. Each fleet is built once, with its monolithic reference
//! ([`Pipeline::run_monolithic`]) and, when it has disk or checkpoint
//! points, its deep-verified on-disk corpus. A grid point is a thread
//! count × chunk policy × source (the simulator's [`SimSource`], the
//! buffered [`FileSource`], the zero-copy [`MmapSource`]) × checkpoint
//! leg (none, cold, resumed from a truncated checkpoint, resumed over a
//! fully covered one). Every run is compared with:
//!
//! - its sibling sources at the same point, first, so a failure names
//!   the source that diverged;
//! - the reference's [`AnalysisInput`](ssfa::logs::AnalysisInput) (every
//!   lifetime, failure record and topology entry) and its Table 1 rows;
//! - for the golden fleet (scale 0.002, seed 7, the default cascade
//!   style), the Table 1 bytes of `tests/golden/table1.txt`, through the
//!   reference. That file predates the staged engine, the corpus and the
//!   checkpoints, and is deliberately never regenerated here;
//! - the `RunHealth` line counters: a clean run whose chunks all
//!   completed, that saw exactly the reference's lines whenever it read
//!   the whole corpus.
//!
//! The callers are `tests/engine_grid.rs` (the golden fleet),
//! `tests/pipeline_differential.rs`, `tests/chunking.rs` and
//! `tests/corpus_differential.rs`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ssfa::core::Study;
use ssfa::logs::checkpoint::CheckpointWriter;
use ssfa::logs::{CascadeStyle, CorpusReader, CorpusWriter};
use ssfa::pipeline::{ManifestSource, SimSource, Source};
use ssfa::{FileSource, MmapSource, Pipeline, RunHealth, StreamStats};

/// A chunk policy: `Some(n)` systems per chunk, `None` the auto
/// byte-budget policy.
pub type Chunk = Option<usize>;

/// One fleet and the grid points it runs.
pub struct Case {
    pub scale: f64,
    pub seed: u64,
    pub style: CascadeStyle,
    /// `(threads, chunk)` points run over the simulator source.
    pub sim: Vec<(usize, Chunk)>,
    /// Points run over both disk-backed sources. Where a point is a sim
    /// point too, the disk runs are also held to their simulator sibling.
    pub disk: Vec<(usize, Chunk)>,
    /// Points run through the four checkpoint legs over both disk-backed
    /// sources.
    pub checkpoint: Vec<(usize, Chunk)>,
}

impl Case {
    pub fn new(scale: f64, seed: u64) -> Case {
        Case {
            scale,
            seed,
            // The Pipeline default, which the golden was rendered with.
            style: CascadeStyle::RaidOnly,
            sim: Vec::new(),
            disk: Vec::new(),
            checkpoint: Vec::new(),
        }
    }

    /// Whether this is the fleet `tests/golden/table1.txt` was rendered
    /// from.
    fn golden(&self) -> bool {
        self.scale == 0.002 && self.seed == 7 && self.style == CascadeStyle::RaidOnly
    }
}

/// Every `(threads, chunk)` pair.
pub fn cross(threads: &[usize], chunks: &[Chunk]) -> Vec<(usize, Chunk)> {
    threads
        .iter()
        .flat_map(|&t| chunks.iter().map(move |&c| (t, c)))
        .collect()
}

fn configured(base: &Pipeline, threads: usize, chunk: Chunk) -> Pipeline {
    let pipeline = base.clone().threads(threads);
    match chunk {
        Some(n) => pipeline.chunk_systems(n),
        None => pipeline,
    }
}

/// A study's Table 1 rows, one `Debug` line each: the golden's format.
pub fn table1(study: &Study) -> String {
    let mut out = String::new();
    for row in study.table1() {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

fn golden_table1() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table1.txt");
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()))
}

/// A self-deleting scratch directory under the system temp dir, unique
/// to its process and call, so tests running in parallel never share one.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("ssfa-engine-grid-{pid}-{n}-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which part of the corpus a run read, and so which line count its
/// health must report.
#[derive(Clone, Copy)]
enum Coverage {
    /// The whole corpus: exactly the reference's lines.
    Full,
    /// The tail past a restored checkpoint epoch.
    Tail,
    /// Nothing: a resume over a fully covered checkpoint.
    None,
}

/// What one engine run returns.
struct Run {
    study: Study,
    stats: StreamStats,
    health: RunHealth,
}

impl From<(Study, StreamStats, RunHealth)> for Run {
    fn from((study, stats, health): (Study, StreamStats, RunHealth)) -> Run {
        Run {
            study,
            stats,
            health,
        }
    }
}

/// The reference a run is held to.
struct Reference {
    study: Study,
    table1: String,
    lines: u64,
}

impl Reference {
    fn check(&self, point: &str, run: &Run, coverage: Coverage) {
        let Run { study, health, .. } = run;
        assert!(health.is_clean(), "{point}: run lost data: {health}");
        assert_eq!(
            health.chunks_processed, health.chunks_total,
            "{point}: {health}"
        );
        match coverage {
            Coverage::Full => assert_eq!(
                health.lines_seen, self.lines,
                "{point}: line count diverged from the reference"
            ),
            Coverage::Tail => assert!(health.lines_seen < self.lines, "{point}: {health}"),
            Coverage::None => assert_eq!(health.shards_total, 0, "{point}: {health}"),
        }
        assert_eq!(
            study.input(),
            self.study.input(),
            "{point}: analysis input diverged from the monolithic reference"
        );
        assert_eq!(
            table1(study),
            self.table1,
            "{point}: Table 1 diverged from the reference"
        );
    }
}

/// Builds each case's fleet, reference and corpus once, then runs each
/// of its grid points once against them.
pub fn run_grid(cases: &[Case]) {
    for case in cases {
        let fleet_label = format!("scale {}, seed {}, {:?}", case.scale, case.seed, case.style);
        let base = Pipeline::new()
            .scale(case.scale)
            .seed(case.seed)
            .cascade_style(case.style);
        let fleet = base.build_fleet();
        let output = base.simulate(&fleet);
        let (study, _, health) = base.run_monolithic().expect("reference runs");
        let reference = Reference {
            table1: table1(&study),
            lines: health.lines_seen,
            study,
        };
        if case.golden() {
            assert_eq!(
                reference.table1,
                golden_table1(),
                "monolithic reference diverged from the golden ({fleet_label})"
            );
        }

        let corpus = TempDir::new(&format!("{}-{}-{:?}", case.scale, case.seed, case.style));
        let sources = (!case.disk.is_empty() || !case.checkpoint.is_empty()).then(|| {
            CorpusWriter::new(&corpus.0)
                .write(&fleet, &output, case.style, case.seed)
                .expect("corpus builds");
            // Read-verified once up front, as `ssfa corpus verify` would.
            CorpusReader::open(&corpus.0)
                .expect("manifest parses")
                .verify(true)
                .expect("fresh corpus verifies deeply");
            let file = FileSource::open(&corpus.0).expect("file source opens");
            let mmap = MmapSource::open(&corpus.0).expect("mmap source opens");
            assert_eq!(file.shard_count(), fleet.systems().len());
            assert_eq!(mmap.shard_count(), fleet.systems().len());
            (file, mmap)
        });

        let sim = SimSource::new(&fleet, &output, case.style, case.seed);
        let disk_only = case.disk.iter().filter(|point| !case.sim.contains(point));
        for &(threads, chunk) in case.sim.iter().chain(disk_only) {
            let pipeline = configured(&base, threads, chunk);
            let at = format!("{fleet_label}, {threads} threads, chunk {chunk:?}");
            let sibling = case.sim.contains(&(threads, chunk)).then(|| {
                let run = Run::from(pipeline.run_source(&sim).expect("sim run"));
                reference.check(&format!("sim at {at}"), &run, Coverage::Full);
                run
            });
            if !case.disk.contains(&(threads, chunk)) {
                continue;
            }
            let (file, mmap) = sources.as_ref().expect("disk points have a corpus");
            let file = Run::from(pipeline.run_source(file).expect("file run"));
            let mmap = Run::from(pipeline.run_source(mmap).expect("mmap run"));
            if let Some(sibling) = &sibling {
                for (name, run) in [("file", &file), ("mmap", &mmap)] {
                    assert_eq!(
                        run.study.input(),
                        sibling.study.input(),
                        "{name} at {at}: diverged from its sim sibling"
                    );
                }
            }
            assert_disk_siblings(&format!("mmap at {at}"), &mmap, &file);
            reference.check(&format!("file at {at}"), &file, Coverage::Full);
            reference.check(&format!("mmap at {at}"), &mmap, Coverage::Full);
        }

        for &(threads, chunk) in &case.checkpoint {
            let (file, mmap) = sources.as_ref().expect("checkpoint points have a corpus");
            let pipeline = configured(&base, threads, chunk).epoch_chunks(1);
            let at = format!("{fleet_label}, {threads} threads, chunk {chunk:?}");
            let tag = format!("ckpt-{threads}-{chunk:?}");
            let file_legs = checkpoint_legs(&pipeline, file, &format!("{tag}-file"));
            let mmap_legs = checkpoint_legs(&pipeline, mmap, &format!("{tag}-mmap"));
            for ((leg, coverage, file), (_, _, mmap)) in file_legs.iter().zip(&mmap_legs) {
                assert_disk_siblings(&format!("mmap {leg} at {at}"), mmap, file);
                reference.check(&format!("file {leg} at {at}"), file, *coverage);
                reference.check(&format!("mmap {leg} at {at}"), mmap, *coverage);
            }
        }
    }
}

/// The two disk-backed sources read the same frames, so they must agree
/// on everything a run reports: the study, the stream statistics and the
/// health audit. (The simulator source feeds parsed lines, and the auto
/// policy plans its chunks from estimates, so it agrees with them on the
/// study only.)
fn assert_disk_siblings(point: &str, mmap: &Run, file: &Run) {
    assert_eq!(
        mmap.study.input(),
        file.study.input(),
        "{point}: analysis input diverged from its file sibling"
    );
    assert_eq!(
        mmap.stats, file.stats,
        "{point}: stream stats diverged from its file sibling"
    );
    assert_eq!(
        mmap.health, file.health,
        "{point}: run health diverged from its file sibling"
    );
}

/// Runs the four checkpoint legs over `source` in a fresh checkpoint
/// directory: cold; resumed after truncating to the first epoch (the
/// tail is refolded on top of its snapshot); resumed after truncating to
/// the middle epoch, whose restore merges every delta epoch after the
/// first (at least two whenever the plan has four or more chunks); and
/// resumed again over the now fully covered checkpoint (one decode of
/// the whole-fold last epoch).
fn checkpoint_legs<S: ManifestSource>(
    pipeline: &Pipeline,
    source: &S,
    tag: &str,
) -> [(&'static str, Coverage, Run); 4] {
    let ckpt = TempDir::new(tag);
    let truncate = |keep: usize| {
        CheckpointWriter::append_to(&ckpt.0)
            .expect("checkpoint reopens")
            .truncate_to(keep)
            .expect("checkpoint truncates");
    };
    let cold = pipeline
        .run_source_checkpointed(source, &ckpt.0)
        .expect("checkpointed run succeeds");
    truncate(1);
    let resumed = pipeline
        .resume_from(source, &ckpt.0)
        .expect("truncated resume succeeds");
    let epochs = CheckpointWriter::append_to(&ckpt.0)
        .expect("checkpoint reopens")
        .manifest()
        .epochs
        .len();
    truncate(epochs / 2 + 1);
    let middle = pipeline
        .resume_from(source, &ckpt.0)
        .expect("middle resume succeeds");
    let noop = pipeline
        .resume_from(source, &ckpt.0)
        .expect("no-op resume succeeds");
    [
        ("cold", Coverage::Full, cold.into()),
        ("truncated resume", Coverage::Tail, resumed.into()),
        ("middle resume", Coverage::Tail, middle.into()),
        ("no-op resume", Coverage::None, noop.into()),
    ]
}
