//! AutoSupport-style storage support logs: rendering, parsing, cascades,
//! and RAID-layer failure classification.
//!
//! The FAST'08 study works from *support logs*: when a failure happens,
//! events propagate up the I/O stack (Fibre Channel → SCSI → RAID), and the
//! RAID layer — which sits directly above the storage subsystem — tags the
//! resulting event with a failure type (paper §2.5, Figure 3). This crate
//! reproduces that pipeline for the synthetic fleet:
//!
//! - [`event`]: the typed log events of each layer, with the text rendering
//!   shown in the paper's Figure 3 (e.g. `[fci.device.timeout:error]:
//!   Adapter 8 encountered a device timeout on device 8.24`), plus
//!   configuration-snapshot records carrying topology and disk
//!   install/remove information.
//! - [`cascade`]: expands one failure into the multi-line event cascade a
//!   real system would log.
//! - [`corpus`]: a line-oriented log corpus ([`LogBook`]) that renders to
//!   and parses from plain text.
//! - [`mod@classify`]: the analysis-side classifier that re-derives topology,
//!   disk lifetimes, and typed failure records *from the text corpus
//!   alone* — the paper's methodology, with no access to simulator ground
//!   truth.
//!
//! # Example
//!
//! ```
//! use ssfa_logs::{classify::classify, render::render_support_log, CascadeStyle, LogBook};
//! use ssfa_model::{Fleet, FleetConfig};
//! use ssfa_sim::Simulator;
//!
//! let fleet = Fleet::build(&FleetConfig::paper().scaled(0.0005), 3);
//! let output = Simulator::default().run(&fleet, 3);
//! let book = render_support_log(&fleet, &output, CascadeStyle::Full);
//!
//! // The analysis pipeline works from text alone.
//! let reparsed = LogBook::from_text(&book.to_text())?;
//! let analysis_input = classify(&reparsed)?;
//! assert_eq!(analysis_input.failures.len(), output.exposed_records().len());
//! # Ok::<(), ssfa_logs::LogError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade;
pub mod checkpoint;
pub mod classify;
pub mod corpus;
pub mod event;
pub mod faults;
pub mod frame;
pub mod intern;
pub mod render;
pub mod shard;
pub mod store;
pub mod view;

pub use cascade::{CascadeInput, CascadeStyle};
pub use checkpoint::{
    corpus_epoch_digest, CheckpointError, CheckpointManifest, CheckpointReader, CheckpointWriter,
    EpochEntry,
};
pub use classify::{
    classify, AnalysisInput, Classifier, DiskLifetime, ShardHealth, Strictness, Topology,
};
pub use corpus::{is_blank_line, LogBook, LogError};
pub use event::{LogEvent, LogLine, Severity};
pub use faults::{
    FaultInjector, FaultLedger, FaultSpec, ShardFate, WireAction, WireFaultInjector,
    WireFaultLedger, WireFaultSpec, WirePlan,
};
pub use frame::{
    checksum64, decode_frame, decode_frame_text, encode_frame, encode_frame_parts, Checksum,
    FrameError, FrameHeader, FRAME_MAGIC, FRAME_VERSION, HEADER_LEN,
};
pub use intern::TagId;
pub use render::{render_support_log, render_support_log_noisy, NoiseParams};
pub use shard::{render_system_log, ChunkPlan, ShardPlan, DEFAULT_CHUNK_TARGET_BYTES};
pub use store::{
    write_atomic, CorpusError, CorpusReader, CorpusSummary, CorpusWriter, Manifest, ShardEntry,
    DEFAULT_SEGMENT_SHARDS, MANIFEST_NAME,
};
pub use view::{EventRef, LogLineRef, SlotsRef};
