//! Per-chunk processing: one classifier per chunk, fed shard by shard
//! through the transport, inside a panic-isolation boundary with the
//! retry/quarantine policy.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ssfa_logs::{AnalysisInput, Classifier, FaultLedger, LogError, ShardHealth, Strictness};

use crate::error::{panic_message, PipelineError};
use crate::quarantine::ChunkQuarantine;
use crate::source::Source;
use crate::transport::Transport;

/// What one chunk's isolated processing produced: either a merged partial
/// with its counters, or a quarantine record. The partial is boxed so the
/// struct stays small for the quarantined case.
#[derive(Default)]
pub(crate) struct ChunkOutcome {
    pub(crate) partial: Option<Box<AnalysisInput>>,
    pub(crate) health: ShardHealth,
    pub(crate) ledger: FaultLedger,
    pub(crate) systems_processed: usize,
    pub(crate) systems_dropped: usize,
    pub(crate) systems_retried: usize,
    pub(crate) quarantine: Option<ChunkQuarantine>,
    pub(crate) max_shard_bytes: usize,
    pub(crate) total_bytes: usize,
}

/// Processes one chunk end to end inside a panic-isolation boundary,
/// applying the retry/quarantine policy. One classifier serves the whole
/// chunk — that is the amortization — but shards are still loaded, fed,
/// and dropped one at a time, so the worker never holds more than one
/// shard of corpus.
pub(crate) fn process_chunk(
    source: &dyn Source,
    transport: &dyn Transport,
    strictness: Strictness,
    chunk: usize,
    range: std::ops::Range<usize>,
) -> Result<ChunkOutcome, PipelineError> {
    let mut attempt: u32 = 0;
    loop {
        // A fresh ledger per attempt: a quarantined chunk's lines never
        // reach the merge, so its injection record must not reach the
        // run ledger either.
        let mut ledger = FaultLedger::default();
        let mut dropped = 0usize;
        let mut max_shard_bytes = 0usize;
        let mut total_bytes = 0usize;
        let outcome = catch_unwind(AssertUnwindSafe(
            || -> Result<(AnalysisInput, ShardHealth), LogError> {
                let mut classifier = Classifier::with_strictness(strictness);
                for shard in range.clone() {
                    let data = source.load(shard);
                    let delivery =
                        transport.convey(shard, attempt, data, &mut classifier, &mut ledger)?;
                    if delivery.dropped {
                        dropped += 1;
                    } else {
                        max_shard_bytes = max_shard_bytes.max(delivery.bytes);
                        total_bytes += delivery.bytes;
                    }
                }
                classifier.finish_with_health()
            },
        ));
        match outcome {
            Ok(Ok((partial, health))) => {
                return Ok(ChunkOutcome {
                    partial: Some(Box::new(partial)),
                    health,
                    ledger,
                    systems_processed: range.len() - dropped,
                    systems_dropped: dropped,
                    systems_retried: if attempt > 0 { range.len() } else { 0 },
                    quarantine: None,
                    max_shard_bytes,
                    total_bytes,
                });
            }
            Ok(Err(err)) => {
                // In lenient mode the classifier absorbs everything
                // skippable, so only I/O-grade failures reach here:
                // quarantine rather than abort.
                if strictness == Strictness::Strict {
                    return Err(err.into());
                }
                return Ok(quarantine_outcome(
                    source,
                    chunk,
                    range,
                    attempt,
                    err.to_string(),
                ));
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                if strictness == Strictness::Strict {
                    let first = source.system_ids(range.start);
                    let first = first.first().map_or(u32::MAX, |id| id.0);
                    return Err(PipelineError::Worker {
                        what: format!(
                            "chunk {chunk} (shards {}..{}, first sys-{first}) panicked: {msg}",
                            range.start, range.end,
                        ),
                    });
                }
                if attempt == 0 {
                    attempt = 1;
                    continue;
                }
                return Ok(quarantine_outcome(
                    source,
                    chunk,
                    range,
                    attempt,
                    format!("worker panicked twice: {msg}"),
                ));
            }
        }
    }
}

/// Builds the outcome for a quarantined chunk: no partial, no ledger
/// contribution, and an exact accounting of what was lost — every system
/// in the chunk by id, plus the rendered line count of each shard
/// (re-counted under its own panic guard, since something in this chunk
/// just panicked).
fn quarantine_outcome(
    source: &dyn Source,
    chunk: usize,
    range: std::ops::Range<usize>,
    attempt: u32,
    reason: String,
) -> ChunkOutcome {
    let systems: Vec<_> = range
        .clone()
        .flat_map(|shard| source.system_ids(shard))
        .collect();
    let mut lines_lost = Some(0u64);
    for shard in range.clone() {
        let count = catch_unwind(AssertUnwindSafe(|| source.count_lines(shard))).ok();
        lines_lost = match (lines_lost, count) {
            (Some(total), Some(n)) => Some(total + n),
            _ => None,
        };
    }
    ChunkOutcome {
        systems_retried: if attempt > 0 { range.len() } else { 0 },
        quarantine: Some(ChunkQuarantine {
            chunk,
            shards: range,
            systems,
            attempts: attempt + 1,
            reason,
            lines_lost,
        }),
        ..ChunkOutcome::default()
    }
}
