//! `ssfa` — Storage Subsystem Failure Analysis.
//!
//! A Rust reproduction of the FAST'08 study *"Are Disks the Dominant
//! Contributor for Storage Failures? A Comprehensive Study of Storage
//! Subsystem Failure Characteristics"* (Jiang, Hu, Zhou, Kanevsky).
//!
//! The original study analyzed 44 months of NetApp AutoSupport logs from
//! ~39,000 deployed storage systems. That corpus is proprietary, so this
//! workspace substitutes a calibrated synthetic fleet — and keeps the
//! paper's *pipeline* honest: the analysis consumes only rendered support
//! logs, never simulator ground truth.
//!
//! The crates:
//!
//! - [`model`] — failure taxonomy, component catalogs, fleet config/layout.
//! - [`stats`] — distributions, MLE fits, hypothesis tests (from scratch).
//! - [`sim`] — background hazards + correlated shock episodes over a fleet.
//! - [`logs`] — AutoSupport-style log rendering/parsing + the RAID-layer
//!   failure classifier.
//! - [`core`] — the study analysis: AFR breakdowns, burstiness, P(N)
//!   correlation, Findings 1–11.
//! - [`pipeline`] — the staged execution engine behind [`Pipeline`]:
//!   [`Source`](pipeline::Source) → classify → fold →
//!   [`Sink`](pipeline::Sink) over one chunked worker pool.
//! - [`daemon`] — `ssfad`, the always-on analysis service: a framed TCP
//!   ingest bus with per-tenant folds and quarantine, session cursors,
//!   bounded backpressure, and reconnect/backoff replay agents
//!   (DESIGN §12).
//!
//! This root crate is a thin facade: everything here is a re-export of
//! [`ssfa-pipeline`](pipeline) (the engine) or the domain crates, kept so
//! existing `ssfa::...` paths compile unchanged.
//!
//! # Quickstart
//!
//! ```
//! use ssfa::prelude::*;
//!
//! // 0.2% scale of the paper's fleet (about 80 systems, ~3,500 disks).
//! let pipeline = ssfa::Pipeline::new().scale(0.002).seed(7);
//! let (study, _stats, _health) = pipeline.run()?;
//!
//! let fig4 = study.afr_by_class(false);
//! for class in SystemClass::ALL {
//!     println!("{}: {:.2}%", class, fig4[&class].total_afr() * 100.0);
//! }
//! # Ok::<(), ssfa::PipelineError>(())
//! ```
//!
//! # Scaling to full fleet size
//!
//! `scale(1.0)` reproduces the paper's complete fleet: ~39,000 systems and
//! ~1.8 M disk instances, whose rendered support log runs to hundreds of
//! MiB of text. [`Pipeline::run`] handles that by streaming: the log is
//! rendered as one self-contained *shard per system*, shards are batched
//! into *chunks* (an automatic policy targets ~256 KiB of rendered text
//! per chunk; [`Pipeline::chunk_systems`] pins an exact batch size), and
//! worker threads pull chunks off a shared queue. One classifier serves a
//! whole chunk — amortizing per-shard setup — but shards are rendered,
//! fed, and dropped one at a time, so each worker holds only one shard of
//! corpus at peak regardless of chunk size. Per-chunk
//! [`ssfa_logs::AnalysisInput`] partials are then merged in fleet order, so
//! the result is bit-identical to classifying the monolithic corpus
//! ([`Pipeline::run_monolithic`]) for any
//! `(fleet, seed, threads, chunking)` tuple —
//! `tests/pipeline_differential.rs` proves this on every push.
//!
//! Simulated shards travel from render to classify as parsed lines, the
//! same representation the monolithic oracle consumes; on-disk corpora
//! ([`FileSource`], [`MmapSource`]) feed their text straight to the
//! parser. Fault-injected runs render every shard to text to corrupt it.
//!
//! ```no_run
//! use ssfa::Pipeline;
//!
//! // Full fleet on 8 workers: peak corpus memory stays at one shard
//! // (a few hundred KiB), not the multi-hundred-MiB monolithic text.
//! let (study, stats, health) = Pipeline::new().scale(1.0).threads(8).run()?;
//! println!("{} subsystem failures", study.input().failures.len());
//!
//! // The same run reports its chunking and memory behavior:
//! println!(
//!     "{} shards in {} chunks, peak resident shard {} bytes of {} total corpus bytes",
//!     health.shards_total, health.chunks_total, stats.max_shard_bytes, stats.total_bytes,
//! );
//! # Ok::<(), ssfa::PipelineError>(())
//! ```
//!
//! # Degraded mode
//!
//! Real support corpora are lossy. [`Pipeline::lenient`] switches the
//! classify stage to skip-and-count, isolates every chunk behind a panic
//! boundary (one retry, then quarantine of the whole chunk, with an exact
//! count of the systems and lines lost), and every run returns a
//! [`RunHealth`] audit report accounting for every skipped line and lost
//! shard. A deterministic
//! fault-injection harness ([`ssfa_logs::faults`], wired in with
//! [`Pipeline::faults`]) exists to prove the accounting exact:
//!
//! ```
//! use ssfa::prelude::*;
//!
//! let (study, _stats, health) = ssfa::Pipeline::new()
//!     .scale(0.002)
//!     .seed(7)
//!     .lenient()
//!     .faults(FaultSpec::uniform(1e-3))
//!     .run()?;
//! assert_eq!(health.lines_skipped_malformed, health.ledger.expect_malformed);
//! println!("{health}");
//! # drop(study);
//! # Ok::<(), ssfa::PipelineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ssfa_core as core;
pub use ssfa_daemon as daemon;
pub use ssfa_logs as logs;
pub use ssfa_model as model;
pub use ssfa_pipeline as pipeline;
pub use ssfa_sim as sim;
pub use ssfa_stats as stats;

// The historical `ssfa::...` pipeline surface, now defined in
// `ssfa-pipeline`. Every pre-refactor public path stays valid.
pub use ssfa_pipeline::workqueue;
pub use ssfa_pipeline::{
    ChunkQuarantine, FileSource, ManifestSource, MmapSource, Pipeline, PipelineError, RunHealth,
    StreamStats,
};

/// Convenience re-exports for examples and downstream binaries.
pub mod prelude {
    pub use crate::{ChunkQuarantine, RunHealth};
    pub use ssfa_core::{AfrBreakdown, FindingsReport, Scope, Study};
    pub use ssfa_logs::{
        classify, render_support_log, CascadeStyle, FaultSpec, LogBook, ShardHealth, Strictness,
    };
    pub use ssfa_model::{
        DiskModelId, FailureType, Fleet, FleetConfig, LayoutPolicy, PathConfig, ShelfModel,
        SimDuration, SimTime, SystemClass,
    };
    pub use ssfa_sim::{Calibration, SimOutput, Simulator};
}
