//! Checkpointed, resumable engine runs: epoch planning and the
//! checkpoint sink that makes fold state durable at epoch boundaries.
//!
//! An **epoch** is a contiguous chunk range of a corpus-backed source's
//! chunk plan, keyed to the corpus manifest by the shard range it covers
//! and a digest over those shards' checksums. The engine hands the sink
//! each chunk's partial in chunk order; the sink folds the partials of
//! the open epoch into a pending *delta* [`StudyFold`]. At the epoch's
//! last chunk it snapshots the delta ([`StudyFold::to_snapshot`]),
//! appends it to an on-disk [`CheckpointWriter`] — one `SSFC` frame per
//! epoch, manifest rewritten atomically after each, so each epoch is
//! published atomically and a crash leaves nothing torn — and only then
//! merges the delta into the run's fold. A checkpointed run thus writes
//! each shard's fold state once, not once per later epoch.
//!
//! The run's last planned epoch is the exception: the sink merges first
//! and writes the *whole* fold. A caught-up or appended-corpus resume then
//! restores it with one decode, and the last epoch of any finished run is
//! the finished fold.
//!
//! The engine hands over each chunk's partial as soon as it and every
//! chunk before it are classified, so epochs are written while workers
//! classify later chunks: a crash mid-run keeps every epoch already
//! written.
//!
//! [`Pipeline::run_source_checkpointed`] runs cold while writing epochs;
//! [`Pipeline::resume_from`] restores the newest epoch whose shard
//! boundary still aligns with the current chunk plan — the newest whole
//! epoch at or before it, merged with the deltas after that, in order
//! (`restore_fold`) — then absorbs only the chunks past it. Cold and
//! resumed runs are bit-identical: [`StudyFold::merge`] is
//! byte-associative (DESIGN §15), so the restored fold *is* the fold
//! after the covered chunks, and the engine feeds the remaining partials
//! in the same order a cold run would.
//!
//! [`Pipeline::run_source_checkpointed`]: crate::Pipeline::run_source_checkpointed
//! [`Pipeline::resume_from`]: crate::Pipeline::resume_from

use std::ops::Range;

use ssfa_core::StudyFold;
use ssfa_logs::checkpoint::{corpus_epoch_digest, CheckpointReader, CheckpointWriter};
use ssfa_logs::store::Manifest;
use ssfa_logs::{AnalysisInput, ChunkPlan};

use crate::error::PipelineError;
use crate::exec::push_partial;
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

/// The fold through epoch `epoch` of `reader`'s checkpoint: the newest
/// whole epoch at or before it, merged with every delta after that, in
/// epoch order.
///
/// # Errors
///
/// [`PipelineError::Checkpoint`] if an epoch frame fails its checks,
/// [`PipelineError::Snapshot`] if a payload fails to decode.
pub(crate) fn restore_fold(
    reader: &CheckpointReader,
    epoch: usize,
) -> Result<StudyFold, PipelineError> {
    let base = reader.manifest().fold_base(epoch);
    let mut fold = StudyFold::from_snapshot(&reader.read_epoch(base)?)?;
    for delta in base + 1..=epoch {
        fold.merge(StudyFold::from_snapshot(&reader.read_epoch(delta)?)?);
    }
    Ok(fold)
}

/// The engine-side half of a checkpointed run: absorbs every chunk's
/// partial (on the reassembly thread, in chunk order) into the open
/// epoch's delta, and writes an epoch frame whenever a planned epoch's
/// last chunk has been absorbed.
#[derive(Debug)]
pub(crate) struct CheckpointSink<'a> {
    writer: CheckpointWriter,
    corpus: &'a Manifest,
    epochs: Vec<Epoch>,
    next: usize,
    /// The chunk the sink must absorb next; an epoch's snapshot matches
    /// its shard range only if every chunk before it was seen, in order.
    next_chunk: usize,
    /// The fold of the open epoch's chunks absorbed so far.
    delta: StudyFold,
}

impl<'a> CheckpointSink<'a> {
    /// Wraps `writer` to durably record `epochs` (in order) as the run
    /// reaches them, digesting shard ranges against `corpus`. The run
    /// starts at `first_chunk`.
    pub(crate) fn new(
        writer: CheckpointWriter,
        epochs: Vec<Epoch>,
        corpus: &'a Manifest,
        first_chunk: usize,
    ) -> Self {
        CheckpointSink {
            writer,
            corpus,
            epochs,
            next: 0,
            next_chunk: first_chunk,
            delta: StudyFold::new(),
        }
    }

    /// Absorbs `chunk`'s partial into the open epoch's delta. If `chunk`
    /// completes the epoch, writes the delta's frame and then merges the
    /// delta into `fold` — or, for the run's last planned epoch, merges
    /// first and writes the whole `fold`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::ChunkOrder`] if `chunk` is not the chunk after the
    /// last one seen, so no epoch is published over a fold that skipped or
    /// reordered chunks; [`PipelineError::Checkpoint`] if the epoch frame
    /// or manifest cannot be persisted — the run aborts rather than
    /// silently losing durability.
    pub(crate) fn absorb(
        &mut self,
        chunk: usize,
        partial: Option<AnalysisInput>,
        fold: &mut StudyFold,
    ) -> Result<(), PipelineError> {
        if chunk != self.next_chunk {
            return Err(PipelineError::ChunkOrder {
                expected: self.next_chunk,
                received: chunk,
            });
        }
        self.next_chunk += 1;
        let Some(epoch) = self.epochs.get(self.next) else {
            // Past the planned epochs (they tile the run, so only a
            // caller bug lands here): nothing to record.
            return push_partial(chunk, partial, fold);
        };
        if let Some(partial) = partial {
            self.delta.push(partial);
        }
        if chunk + 1 != epoch.chunks.end {
            return Ok(());
        }
        let digest = corpus_epoch_digest(self.corpus, epoch.shards.clone());
        let delta = std::mem::take(&mut self.delta);
        if self.next + 1 == self.epochs.len() {
            fold.merge(delta);
            self.writer.write_whole_epoch(
                epoch.shards.clone(),
                epoch.chunks.len(),
                digest,
                &fold.to_snapshot(),
            )?;
        } else {
            self.writer.write_epoch(
                epoch.shards.clone(),
                epoch.chunks.len(),
                digest,
                &delta.to_snapshot(),
            )?;
            fold.merge(delta);
        }
        self.next += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::store::ShardEntry;
    use ssfa_logs::CascadeStyle;

    /// A four-shard corpus manifest, one shard per chunk.
    fn corpus() -> Manifest {
        let shards = (0..4)
            .map(|i| ShardEntry {
                segment: 0,
                offset: i * 100,
                payload_len: 64,
                line_count: 3,
                system_id: i as u32,
                checksum: 0x1000 + i,
            })
            .collect();
        Manifest {
            seed: 7,
            style: CascadeStyle::RaidOnly,
            segment_shards: 4,
            params: Vec::new(),
            shards,
            segments: 1,
            total_payload_bytes: 256,
        }
    }

    /// Two epochs of two chunks each over `corpus()`, from `first_chunk`.
    fn sink<'a>(
        dir: &std::path::Path,
        corpus: &'a Manifest,
        first_chunk: usize,
    ) -> CheckpointSink<'a> {
        let _ = std::fs::remove_dir_all(dir);
        let writer = CheckpointWriter::create(dir, 1, 7, CascadeStyle::RaidOnly).unwrap();
        let epochs = [0..2, 2..4]
            .into_iter()
            .enumerate()
            .filter(|(_, chunks)| chunks.start >= first_chunk)
            .map(|(index, chunks)| Epoch {
                index,
                shards: chunks.clone(),
                chunks,
            })
            .collect();
        CheckpointSink::new(writer, epochs, corpus, first_chunk)
    }

    /// A partial that adds one to the fold's partial count and nothing
    /// else, so a snapshot's count says which chunks it folds.
    fn partial() -> Option<AnalysisInput> {
        Some(AnalysisInput::default())
    }

    #[test]
    fn deltas_precede_a_whole_last_epoch_and_the_fold_sees_each_chunk_once() {
        let dir = std::env::temp_dir().join(format!("ssfa-sink-delta-{}", std::process::id()));
        let corpus = corpus();
        let mut fold = StudyFold::new();
        let mut cold = sink(&dir, &corpus, 0);
        for chunk in 0..4 {
            cold.absorb(chunk, partial(), &mut fold).unwrap();
        }
        assert_eq!(fold.len(), 4, "every chunk folds exactly once");
        let reader = CheckpointReader::open(&dir).unwrap();
        let folded = |epoch| {
            StudyFold::from_snapshot(&reader.read_epoch(epoch).unwrap())
                .unwrap()
                .len()
        };
        let entries = &reader.manifest().epochs;
        assert_eq!((entries[0].fold_start, folded(0)), (0, 2), "epoch 0");
        assert_eq!(
            (entries[1].fold_start, folded(1)),
            (0, 4),
            "the last epoch holds the whole fold"
        );
        assert_eq!(restore_fold(&reader, 1).unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn middle_epochs_are_deltas_that_restore_in_order() {
        let dir = std::env::temp_dir().join(format!("ssfa-sink-middle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = corpus();
        let writer = CheckpointWriter::create(&dir, 1, 7, CascadeStyle::RaidOnly).unwrap();
        let plan = ChunkPlan::fixed_count(4, 1);
        let mut cold = CheckpointSink::new(writer, plan_epochs(&plan, 0, 1, 0), &corpus, 0);
        let mut fold = StudyFold::new();
        for chunk in 0..4 {
            cold.absorb(chunk, partial(), &mut fold).unwrap();
        }
        let reader = CheckpointReader::open(&dir).unwrap();
        let starts: Vec<usize> = reader
            .manifest()
            .epochs
            .iter()
            .map(|e| e.fold_start)
            .collect();
        assert_eq!(starts, [0, 1, 2, 0]);
        let restored: Vec<usize> = (0..4)
            .map(|epoch| restore_fold(&reader, epoch).unwrap().len())
            .collect();
        assert_eq!(restored, [1, 2, 3, 4], "epoch k restores k + 1 chunks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_out_of_order_chunk_is_refused_and_publishes_no_epoch() {
        let dir = std::env::temp_dir().join(format!("ssfa-sink-order-{}", std::process::id()));
        let corpus = corpus();
        let mut fold = StudyFold::new();

        let mut in_order = sink(&dir, &corpus, 0);
        for chunk in 0..4 {
            in_order.absorb(chunk, None, &mut fold).unwrap();
        }
        assert_eq!(in_order.writer.manifest().epochs.len(), 2);

        // Chunk 1 never arrives: chunk 2 would otherwise not close an
        // epoch, but chunk 3 would publish epoch 1 over a fold missing 1.
        let mut skipped = sink(&dir, &corpus, 0);
        skipped.absorb(0, None, &mut fold).unwrap();
        let err = skipped.absorb(2, None, &mut fold).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::ChunkOrder {
                    expected: 1,
                    received: 2
                }
            ),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "chunks folded out of order: expected chunk 1, received chunk 2"
        );
        assert!(skipped.writer.manifest().epochs.is_empty());

        // A resume starts at its first chunk; chunk 1 would re-fold the
        // restored epoch.
        let mut resumed = sink(&dir, &corpus, 2);
        let err = resumed.absorb(1, None, &mut fold).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::ChunkOrder {
                    expected: 2,
                    received: 1
                }
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
