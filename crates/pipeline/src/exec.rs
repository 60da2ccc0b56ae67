//! The staged engine: one chunked executor that every `Pipeline` entry
//! point is a configuration of.
//!
//! Chunks run on [`ssfa_model::run_ordered`], the workspace's one
//! model-checked batch pool: workers claim chunk indices from a shared
//! counter (static splits strand workers behind uneven chunks), and the
//! pool hands each outcome back in chunk order as soon as it and every
//! chunk before it are done, so scheduling cannot affect the result. The
//! fold and the checkpoint sink run on the calling thread while workers
//! classify later chunks, and workers run at most a fixed window of
//! chunks ahead of the fold, so about that many partials are alive at
//! once, not the whole run's.
//!
//! [`Engine::run_from`] is also the checkpoint seam: it starts the plan
//! at an arbitrary chunk (everything before it is assumed already folded
//! into the [`StudyFold`] by a snapshot restore) and hands each chunk's
//! partial, in chunk order, to an `absorb` callback that folds it — the
//! place a checkpoint sink sees epoch boundaries. A cold run is
//! `run_from(.., StudyFold::new(), 0, push_partial)`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ssfa_core::{Study, StudyFold};
use ssfa_logs::{AnalysisInput, FaultInjector, Strictness};
use ssfa_model::run_ordered;

use crate::chunk::process_chunk;
use crate::error::{panic_message, PipelineError};
use crate::health::{RunHealth, StreamStats};
use crate::plan::ChunkPolicy;
use crate::source::Source;

/// One engine run's configuration: everything that is not a stage.
#[derive(Debug, Clone)]
pub(crate) struct Engine {
    pub(crate) threads: usize,
    pub(crate) strictness: Strictness,
    pub(crate) policy: ChunkPolicy,
    /// Corrupts every shard on its way to the classifier; `None` feeds
    /// shards as their source produced them.
    pub(crate) injector: Option<FaultInjector>,
}

impl Engine {
    /// Drives `source` through the RAID-layer classifier
    /// from `first_chunk` of the source's chunk plan, folds each chunk's
    /// partial — in chunk order — into `fold`, and returns the finished
    /// study with the run's stream statistics and health audit.
    ///
    /// Chunks before `first_chunk` are assumed already folded into `fold`
    /// (a checkpoint restore) and are neither loaded nor counted. Each
    /// chunk's partial (`None` for a quarantined chunk) goes, in chunk
    /// order on the calling thread and while workers classify later
    /// chunks, to `absorb(chunk, partial, &mut fold)`, which must fold it
    /// into `fold` by the time the last chunk returns ([`push_partial`]
    /// does so at once). A failed chunk stops the run after every chunk
    /// before it is absorbed; an `absorb` error stops it at once.
    ///
    /// Stats and health cover only the chunks this call processed (the
    /// increment), so a fully-caught-up resume reports an empty, clean
    /// run.
    pub(crate) fn run_from(
        &self,
        source: &dyn Source,
        mut fold: StudyFold,
        first_chunk: usize,
        mut absorb: impl FnMut(
            usize,
            Option<AnalysisInput>,
            &mut StudyFold,
        ) -> Result<(), PipelineError>,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        if source.shard_count() == 0 {
            return Ok((
                fold.finish(),
                StreamStats::default(),
                RunHealth {
                    strictness: self.strictness,
                    ..RunHealth::default()
                },
            ));
        }
        let chunks = source.plan_chunks(self.policy);
        let n_chunks = chunks.chunk_count();
        let first_chunk = first_chunk.min(n_chunks);
        let new_chunks = n_chunks - first_chunk;
        let new_shards: usize = (first_chunk..n_chunks)
            .map(|chunk| chunks.shard_range(chunk).len())
            .sum();

        let mut stats = StreamStats::default();
        let mut health = RunHealth {
            strictness: self.strictness,
            shards_total: new_shards,
            chunks_total: new_chunks,
            ..RunHealth::default()
        };
        run_ordered(
            new_chunks,
            self.threads,
            |slot| {
                let chunk = slot + first_chunk;
                let range = chunks.shard_range(chunk);
                let injector = self.injector.as_ref();
                catch_unwind(AssertUnwindSafe(|| {
                    process_chunk(source, injector, self.strictness, chunk, range)
                }))
                // A panic that escaped the per-chunk isolation boundary —
                // pool-level, not data-level.
                .unwrap_or_else(|payload| {
                    Err(PipelineError::Worker {
                        what: panic_message(payload.as_ref()),
                    })
                })
            },
            |slot, outcome| {
                stats.max_shard_bytes = stats.max_shard_bytes.max(outcome.max_shard_bytes);
                stats.total_bytes += outcome.total_bytes;
                health.shards_processed += outcome.systems_processed;
                health.shards_dropped += outcome.systems_dropped;
                health.shards_retried += outcome.systems_retried;
                if outcome.quarantine.is_none() {
                    health.chunks_processed += 1;
                }
                health.quarantined.extend(outcome.quarantine);
                health.add_line_counts(&outcome.health);
                health.ledger.merge(&outcome.ledger);
                absorb(
                    slot + first_chunk,
                    outcome.partial.map(|partial| *partial),
                    &mut fold,
                )
            },
        )?;
        Ok((fold.finish(), stats, health))
    }
}

/// The plain run's `absorb` for [`Engine::run_from`]: folds each partial
/// as it arrives.
pub(crate) fn push_partial(
    _chunk: usize,
    partial: Option<AnalysisInput>,
    fold: &mut StudyFold,
) -> Result<(), PipelineError> {
    if let Some(partial) = partial {
        fold.push(partial);
    }
    Ok(())
}
