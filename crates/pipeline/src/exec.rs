//! The staged engine: one chunked worker-pool executor that every
//! `Pipeline` entry point is a configuration of.
//!
//! Workers pull chunk indices from the shared, model-checked
//! [`crate::workqueue`] (static splits strand workers behind uneven
//! chunks); outcomes are reassembled in chunk order before they fold, so
//! scheduling cannot affect the result.
//!
//! [`Engine::run_from`] is also the checkpoint seam: it starts the plan
//! at an arbitrary chunk (everything before it is assumed already folded
//! into the [`StudyFold`] by a snapshot restore) and surfaces an in-order
//! per-chunk observer callback — the epoch boundary — after each partial
//! folds. A cold run is `run_from(.., StudyFold::new(), 0, no-op)`.

use ssfa_core::{Study, StudyFold};
use ssfa_logs::{FaultInjector, Strictness};

use crate::chunk::process_chunk;
use crate::error::{panic_message, PipelineError};
use crate::health::{RunHealth, StreamStats};
use crate::plan::ChunkPolicy;
use crate::source::Source;
use crate::workqueue::{worker_loop, ChunkStatus, StdChunkQueue};

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
    /// (a checkpoint restore) and are neither loaded nor counted. After
    /// each chunk's outcome is absorbed, in chunk order,
    /// `observer(chunk, &fold)` runs on the reassembly thread; an
    /// observer error aborts the run.
    ///
    /// Stats and health cover only the chunks this call processed (the
    /// increment), so a fully-caught-up resume reports an empty, clean
    /// run.
    pub(crate) fn run_from(
        &self,
        source: &dyn Source,
        mut fold: StudyFold,
        first_chunk: usize,
        mut observer: impl FnMut(usize, &StudyFold) -> Result<(), PipelineError>,
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

        let queue = StdChunkQueue::new(new_chunks);
        let workers = self.threads.min(new_chunks);
        let mut collected: Vec<(usize, Result<_, PipelineError>)> = Vec::with_capacity(new_chunks);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let chunks = &chunks;
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        worker_loop(queue, |slot| {
                            let chunk = slot + first_chunk;
                            let result = process_chunk(
                                source,
                                self.injector.as_ref(),
                                self.strictness,
                                chunk,
                                chunks.shard_range(chunk),
                            );
                            let status = if result.is_err() {
                                ChunkStatus::Fatal
                            } else {
                                ChunkStatus::Done
                            };
                            mine.push((chunk, result));
                            status
                        });
                        mine
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(mine) => collected.extend(mine),
                    // A panic that escaped the per-chunk isolation
                    // boundary — pool-level, not data-level.
                    Err(payload) => collected.push((
                        usize::MAX,
                        Err(PipelineError::Worker {
                            what: panic_message(payload.as_ref()),
                        }),
                    )),
                }
            }
        });
        collected.sort_by_key(|(chunk, _)| *chunk);

        let mut stats = StreamStats::default();
        let mut health = RunHealth {
            strictness: self.strictness,
            shards_total: new_shards,
            chunks_total: new_chunks,
            ..RunHealth::default()
        };
        for (chunk, result) in collected {
            // `?` here surfaces the lowest-index chunk's error first.
            let outcome = result?;
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
            if let Some(partial) = outcome.partial {
                fold.push(*partial);
            }
            observer(chunk, &fold)?;
        }
        Ok((fold.finish(), stats, health))
    }
}
