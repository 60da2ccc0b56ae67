//! Set-up: the seeded on-disk corpus every workload reads, and the
//! simulator's ground truth the outputs are checked against.

use std::path::{Path, PathBuf};

use ssfa_logs::{CascadeStyle, CorpusWriter};
use ssfa_pipeline::Pipeline;

use crate::trace::Trace;

/// Worker threads for simulation and analysis.
pub const THREADS: usize = 2;

/// The pipeline configuration every workload uses: the paper's fleet at
/// `scale`, RAID-only cascades, [`THREADS`] workers.
pub fn pipeline(scale: f64, seed: u64) -> Pipeline {
    Pipeline::new()
        .scale(scale)
        .seed(seed)
        .cascade_style(CascadeStyle::RaidOnly)
        .threads(THREADS)
}

/// What the simulator knows about a corpus, independently of any
/// analysis path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// Systems in the fleet (one shard each).
    pub systems: u64,
    /// Disk instances ever installed.
    pub lifetimes: u64,
    /// Exposed storage-subsystem failures.
    pub failures: u64,
    /// Exposure in disk-years.
    pub disk_years: f64,
    /// Rendered log lines.
    pub lines: u64,
    /// Corpus payload bytes.
    pub payload_bytes: u64,
}

/// A corpus on disk with its ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The corpus directory.
    pub dir: PathBuf,
    /// Fleet scale it was built at.
    pub scale: f64,
    /// Seed it was built from.
    pub seed: u64,
    /// The simulator's ground truth for it.
    pub truth: Truth,
}

/// Removes `dir` if it exists.
///
/// # Errors
///
/// The file system error, stringified.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// Total bytes of the regular files under `dir`.
///
/// # Errors
///
/// The file system error, stringified.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Builds the fleet, simulates it, and writes its corpus into `dir`
/// (replacing anything there): `Pipeline::build_fleet`,
/// `Pipeline::simulate`, `CorpusWriter::write`, each in its own span.
///
/// # Errors
///
/// Corpus write or directory errors, stringified.
pub fn build_corpus(
    dir: &Path,
    scale: f64,
    seed: u64,
    trace: &mut Trace,
) -> Result<Corpus, String> {
    clear_dir(dir)?;
    let pipeline = pipeline(scale, seed);
    let fleet = trace.span("model.build_fleet", |_| pipeline.build_fleet());
    let output = trace.span("sim.simulate", |_| pipeline.simulate(&fleet));
    let written = trace.span("logs.corpus_write", |_| {
        CorpusWriter::new(dir)
            .param("scale", format!("{scale}"))
            .param("source", "ssfa-perfbench")
            .write(&fleet, &output, CascadeStyle::RaidOnly, seed)
    });
    let summary = written.map_err(|e| format!("corpus write: {e}"))?;
    trace.count("logs.corpus_bytes", summary.payload_bytes as f64);
    trace.count("logs.corpus_lines", summary.lines as f64);
    Ok(Corpus {
        dir: dir.to_path_buf(),
        scale,
        seed,
        truth: Truth {
            systems: fleet.systems().len() as u64,
            lifetimes: output.disks().len() as u64,
            failures: output.exposed_records().len() as u64,
            disk_years: output.total_disk_years(),
            lines: summary.lines,
            payload_bytes: summary.payload_bytes,
        },
    })
}
