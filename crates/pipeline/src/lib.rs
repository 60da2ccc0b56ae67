//! `ssfa-pipeline` — the staged streaming engine behind [`Pipeline`].
//!
//! The FAST'08 study's methodology is a fixed pipeline: parse
//! AutoSupport-style support logs, classify events into the four failure
//! types, fold the per-system partials into fleet-wide statistics. This
//! crate implements that pipeline **once**, as a single chunked
//! worker-pool executor (the private `exec` module). The classify and
//! fold steps are direct calls — [`ssfa_logs::Classifier`] per chunk,
//! one [`ssfa_core::StudyFold`] per run — and two seams stay open where
//! callers plug in different implementations:
//!
//! | Stage       | Trait         | Shipped implementations |
//! |-------------|---------------|-------------------------|
//! | [`Source`]  | yields shard corpora | [`SimSource`] (one shard per simulated system), [`MonolithicSource`] (the whole corpus as one shard), [`FileSource`] and [`MmapSource`] (an on-disk corpus) |
//! | [`Sink`]    | writes run artifacts | [`TextReportSink`], [`JsonSummarySink`] |
//!
//! Each shard reaches the classifier in the form its source produced —
//! parsed lines from the simulator sources, corpus text (borrowed
//! straight from the map for [`MmapSource`]) from the disk-backed ones —
//! so no stage chooses a representation. Only
//! [`Pipeline::faults`] renders shards to text first, to corrupt them.
//!
//! The entry points — [`Pipeline::run`], [`Pipeline::run_monolithic`],
//! [`Pipeline::run_source`], [`Pipeline::run_source_checkpointed`] and
//! [`Pipeline::resume_from`] — are *configurations* of that one engine,
//! not separate code paths, and all return the same
//! `(Study, StreamStats, RunHealth)` triple: the monolithic reference is
//! simply a [`MonolithicSource`] in a single chunk on a single worker.
//! Hand the study and [`RunHealth`] to a [`Sink`] with [`Sink::consume`].
//!
//! Shards batch into chunks per [`ChunkPolicy`], worker threads pull
//! chunks off the model-checked [`workqueue`], each chunk runs one
//! classifier fed shard by shard (load → feed → drop, so
//! peak corpus residency stays one shard), failures retry then
//! quarantine under [`ssfa_logs::Strictness::Lenient`], and per-chunk
//! partials fold in chunk order, so scheduling never changes the result.
//!
//! Downstream code normally uses the root `ssfa` facade, which re-exports
//! everything here; depend on this crate directly only to implement a
//! custom stage (e.g. a file-backed [`Source`]) and drive it with
//! [`Pipeline::run_source`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod checkpoint;
mod chunk;
pub mod error;
mod exec;
pub mod fs_source;
pub mod health;
pub mod plan;
pub mod quarantine;
pub mod sink;
pub mod source;
pub mod workqueue;

pub use builder::Pipeline;
pub use checkpoint::ManifestSource;
pub use error::PipelineError;
pub use fs_source::{FileSource, MmapSource};
pub use health::{RunHealth, StreamStats};
pub use plan::ChunkPolicy;
pub use quarantine::ChunkQuarantine;
pub use sink::{JsonSummarySink, Sink, TextReportSink};
pub use source::{MonolithicSource, ShardData, SimSource, Source};
