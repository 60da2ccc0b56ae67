//! `ssfa-pipeline` — the staged streaming engine behind [`Pipeline`].
//!
//! The FAST'08 study's methodology is a fixed pipeline: parse
//! AutoSupport-style support logs, classify events into the four failure
//! types, fold the per-system partials into fleet-wide statistics. This
//! crate implements that pipeline **once**, as a single chunked
//! worker-pool executor (the private `exec` module) behind five explicit
//! stage seams:
//!
//! | Stage       | Trait         | Shipped implementations |
//! |-------------|---------------|-------------------------|
//! | [`Source`]  | yields shard corpora | [`SimSource`] (one shard per simulated system), [`MonolithicSource`] (the whole corpus as one shard) |
//! | [`Transport`] | moves a shard from source to classifier | [`ParsedLines`], [`TextRoundTrip`], [`InjectedText`] (fault injection) |
//! | [`Classify`] | per-chunk classifier lifecycle | [`RaidClassify`] (wraps [`ssfa_logs::Classifier`]) |
//! | [`Reduce`]  | folds [`ssfa_logs::AnalysisInput`] partials | [`StudyReduce`] (incremental [`ssfa_core::StudyFold`]) |
//! | [`Sink`]    | writes run artifacts | [`TextReportSink`], [`JsonSummarySink`] |
//!
//! Every public entry point — [`Pipeline::run`],
//! [`Pipeline::run_with_health`], [`Pipeline::run_streaming_with_stats`],
//! [`Pipeline::run_monolithic`] — is a *configuration* of that one
//! engine, not a separate code path: the monolithic reference is simply a
//! [`MonolithicSource`] in a single chunk on a single worker.
//!
//! The engine itself is unchanged in behavior from the pre-refactor root
//! crate (the differential and golden-snapshot suites prove
//! bit-identity): shards batch into chunks per [`ChunkPolicy`], worker
//! threads pull chunks off the model-checked [`workqueue`], each chunk
//! runs one classifier fed shard by shard (render → transport → feed →
//! drop, so peak corpus residency stays one shard), failures retry then
//! quarantine under [`ssfa_logs::Strictness::Lenient`], and per-chunk
//! partials fold — in chunk order — through the [`Reduce`] stage.
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
pub mod classify;
pub mod error;
mod exec;
pub mod fs_source;
pub mod health;
pub mod plan;
pub mod quarantine;
pub mod reduce;
pub mod sink;
pub mod source;
pub mod transport;
pub mod workqueue;

pub use builder::Pipeline;
pub use checkpoint::{plan_epochs, CheckpointSink, Epoch, ManifestSource};
pub use classify::{Classify, RaidClassify};
pub use error::PipelineError;
pub use fs_source::{FileSource, MmapSource};
pub use health::{RunHealth, StreamStats};
pub use plan::ChunkPolicy;
pub use quarantine::ChunkQuarantine;
pub use reduce::{Reduce, StudyReduce};
pub use sink::{JsonSummarySink, Sink, TextReportSink};
pub use source::{MonolithicSource, ShardData, SimSource, Source};
pub use transport::{Delivery, InjectedText, ParsedLines, TextRoundTrip, Transport};
