//! Checkpointed, resumable engine runs: epoch planning and the
//! checkpoint sink that makes fold state durable at epoch boundaries.
//!
//! An **epoch** is a contiguous chunk range of a corpus-backed source's
//! chunk plan, keyed to the corpus manifest by the shard range it covers
//! and a digest over those shards' checksums. As the engine folds chunks
//! in order, the sink snapshots the [`StudyFold`]
//! ([`StudyFold::to_snapshot`]) at each epoch's last chunk and appends it
//! to an on-disk [`CheckpointWriter`] — one `SSFC` frame per epoch,
//! manifest rewritten atomically after each, so each epoch is published
//! atomically and a crash leaves nothing torn. The engine folds only
//! after every worker has joined, so all epochs are written after
//! classification: a crash during classification writes no new epoch
//! (folding while workers run is `ROADMAP.md` item 1).
//!
//! [`Pipeline::run_source_checkpointed`] runs cold while writing epochs;
//! [`Pipeline::resume_from`] restores the newest epoch whose shard
//! boundary still aligns with the current chunk plan, then absorbs only
//! the chunks past it. Cold and resumed runs are bit-identical because
//! the fold sequence is identical: the snapshot *is* the fold state after
//! the covered chunks, and the engine feeds the remaining partials in the
//! same order a cold run would.
//!
//! [`Pipeline::run_source_checkpointed`]: crate::Pipeline::run_source_checkpointed
//! [`Pipeline::resume_from`]: crate::Pipeline::resume_from

use std::ops::Range;

use ssfa_core::StudyFold;
use ssfa_logs::checkpoint::{corpus_epoch_digest, CheckpointWriter};
use ssfa_logs::store::Manifest;
use ssfa_logs::ChunkPlan;

use crate::error::PipelineError;
use crate::fs_source::{FileSource, MmapSource};
use crate::source::Source;

/// A [`Source`] whose shards come from an on-disk corpus, and can
/// therefore key checkpoint epochs to the corpus manifest. Both
/// [`FileSource`] and [`MmapSource`] implement it.
pub trait ManifestSource: Source {
    /// The manifest of the corpus this source serves shards of.
    fn manifest(&self) -> &Manifest;
}

impl ManifestSource for FileSource {
    fn manifest(&self) -> &Manifest {
        self.reader().manifest()
    }
}

impl ManifestSource for MmapSource {
    fn manifest(&self) -> &Manifest {
        self.reader().manifest()
    }
}

/// One planned epoch: a contiguous chunk range and the shard range those
/// chunks cover, in plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Epoch {
    /// Index of this epoch in the checkpoint (global, counting restored
    /// epochs a resume kept).
    pub(crate) index: usize,
    /// The chunk range the epoch covers in the current plan.
    pub(crate) chunks: Range<usize>,
    /// The shard range those chunks cover — what keys the epoch to the
    /// corpus manifest.
    pub(crate) shards: Range<usize>,
}

/// Plans the epochs for the not-yet-folded tail of `plan`: chunks
/// `first_chunk..` grouped `chunks_per_epoch` at a time (the final epoch
/// takes whatever remains), with epoch indices continuing from
/// `base_epoch`.
///
/// # Panics
///
/// Panics if `chunks_per_epoch` is zero.
pub(crate) fn plan_epochs(
    plan: &ChunkPlan,
    first_chunk: usize,
    chunks_per_epoch: usize,
    base_epoch: usize,
) -> Vec<Epoch> {
    assert!(chunks_per_epoch > 0, "epochs must hold at least one chunk");
    let n_chunks = plan.chunk_count();
    let mut epochs = Vec::new();
    let mut start = first_chunk;
    while start < n_chunks {
        let end = (start + chunks_per_epoch).min(n_chunks);
        epochs.push(Epoch {
            index: base_epoch + epochs.len(),
            chunks: start..end,
            shards: plan.shard_range(start).start..plan.shard_range(end - 1).end,
        });
        start = end;
    }
    epochs
}

/// The chunk index that begins exactly at shard `shard_end` of `plan`,
/// `Some(chunk_count)` when `shard_end` is the plan's total shard count
/// (a fully-caught-up checkpoint), or `None` when no chunk boundary
/// falls there — the epoch cannot seed a resume under this plan.
pub(crate) fn chunk_starting_at(plan: &ChunkPlan, shard_end: usize) -> Option<usize> {
    let n_chunks = plan.chunk_count();
    for chunk in 0..n_chunks {
        let range = plan.shard_range(chunk);
        if range.start == shard_end {
            return Some(chunk);
        }
        if range.start > shard_end {
            return None;
        }
    }
    if n_chunks > 0 && plan.shard_range(n_chunks - 1).end == shard_end {
        return Some(n_chunks);
    }
    None
}

/// The engine-side half of a checkpointed run: observes the fold after
/// every chunk (on the reassembly thread, in chunk order) and writes an
/// epoch frame whenever a planned epoch's last chunk has been absorbed.
#[derive(Debug)]
pub(crate) struct CheckpointSink<'a> {
    writer: CheckpointWriter,
    corpus: &'a Manifest,
    epochs: Vec<Epoch>,
    next: usize,
}

impl<'a> CheckpointSink<'a> {
    /// Wraps `writer` to durably record `epochs` (in order) as the run
    /// reaches them, digesting shard ranges against `corpus`.
    pub(crate) fn new(writer: CheckpointWriter, epochs: Vec<Epoch>, corpus: &'a Manifest) -> Self {
        CheckpointSink {
            writer,
            corpus,
            epochs,
            next: 0,
        }
    }

    /// Called after `chunk`'s partial folds: writes the pending epoch's
    /// frame if `chunk` completes it, otherwise does nothing.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Checkpoint`] if the epoch frame or manifest
    /// cannot be persisted — the run aborts rather than silently losing
    /// durability.
    pub(crate) fn on_chunk(&mut self, chunk: usize, fold: &StudyFold) -> Result<(), PipelineError> {
        let Some(epoch) = self.epochs.get(self.next) else {
            return Ok(());
        };
        if chunk + 1 != epoch.chunks.end {
            return Ok(());
        }
        let digest = corpus_epoch_digest(self.corpus, epoch.shards.clone());
        let payload = fold.to_snapshot();
        self.writer
            .write_epoch(epoch.shards.clone(), epoch.chunks.len(), digest, &payload)?;
        self.next += 1;
        Ok(())
    }
}
