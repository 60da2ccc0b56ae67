//! Per-chunk processing: one classifier per chunk, fed shard by shard in
//! the form each source produced, inside a panic-isolation boundary with
//! the retry/quarantine policy.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ssfa_logs::{
    AnalysisInput, Classifier, FaultInjector, FaultLedger, LogError, ShardFate, ShardHealth,
    Strictness,
};

use crate::error::{panic_message, PipelineError};
use crate::quarantine::ChunkQuarantine;
use crate::source::{ShardData, Source};

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
/// shard of corpus. With an `injector`, every shard is corrupted on its
/// way to the classifier (see [`feed_shard`]).
pub(crate) fn process_chunk(
    source: &dyn Source,
    injector: Option<&FaultInjector>,
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
                    match feed_shard(data, injector, shard, attempt, &mut classifier, &mut ledger)?
                    {
                        Some(bytes) => {
                            max_shard_bytes = max_shard_bytes.max(bytes);
                            total_bytes += bytes;
                        }
                        None => dropped += 1,
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

/// Feeds one shard to `classifier` in the form its source produced and
/// returns the corpus bytes fed, or `None` when fault injection dropped
/// the whole upload.
///
/// Parsed shards hand their lines straight over, counted in resident
/// bytes. Text shards — borrowed straight from an mmap or owned — stream
/// through the byte-oriented parser, counted in text bytes. Only an
/// `injector` renders a shard to text first, because it corrupts bytes;
/// its faults are keyed by `(shard, attempt)`, never by chunk, so the
/// landed ledger is invariant under chunking.
fn feed_shard(
    data: ShardData<'_>,
    injector: Option<&FaultInjector>,
    shard: usize,
    attempt: u32,
    classifier: &mut Classifier,
    ledger: &mut FaultLedger,
) -> Result<Option<usize>, LogError> {
    let Some(injector) = injector else {
        return match data {
            ShardData::Parsed(book) => {
                classifier.feed_book(&book)?;
                Ok(Some(book.resident_bytes()))
            }
            ShardData::Text(text) => feed_text(text.as_bytes(), classifier).map(Some),
        };
    };
    let text = data.into_text();
    match injector.corrupt_shard(shard, attempt, &text, ledger) {
        ShardFate::Processed(bytes) => {
            drop(text);
            feed_text(&bytes, classifier).map(Some)
        }
        ShardFate::Dropped => Ok(None),
    }
}

/// Feeds one shard's text and ends it at its own EOF, so a tail cut off
/// before its newline cannot glue onto the next shard's first line.
fn feed_text(bytes: &[u8], classifier: &mut Classifier) -> Result<usize, LogError> {
    classifier.feed_bytes(bytes)?;
    classifier.flush_tail()?;
    Ok(bytes.len())
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

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use ssfa_logs::{FaultSpec, LogEvent, LogLine};
    use ssfa_model::{SimTime, SystemId};

    use super::*;

    /// Two text shards, each cut off before its trailing newline: both the
    /// plain and the injected path must end a shard at its EOF, so both
    /// lines parse on their own instead of gluing into one malformed line.
    #[test]
    fn a_shard_without_a_trailing_newline_ends_at_its_eof() {
        let line = LogLine::new(
            SystemId(1),
            SimTime::from_secs(1_000),
            LogEvent::FciAdapterReset { adapter: 8 },
        )
        .to_string();
        let injector = FaultInjector::new(FaultSpec::none(), 0);
        for injector in [None, Some(&injector)] {
            let mut classifier = Classifier::lenient();
            let mut ledger = FaultLedger::default();
            for shard in 0..2 {
                let data = ShardData::Text(Cow::Borrowed(&line));
                let fed = feed_shard(data, injector, shard, 0, &mut classifier, &mut ledger);
                assert_eq!(
                    fed.unwrap(),
                    Some(line.len() + usize::from(injector.is_some()))
                );
            }
            let (_, health) = classifier.finish_with_health().unwrap();
            assert_eq!(
                (health.lines_seen, health.malformed_skipped),
                (2, 0),
                "injected: {}",
                injector.is_some()
            );
        }
    }
}
