//! The `Transport` stage: what representation a shard travels in between
//! the [`crate::Source`] and the classifier.
//!
//! The seam has three shipped implementations: [`ParsedLines`],
//! [`TextRoundTrip`] and [`InjectedText`]. Transports see one shard at a
//! time and drop it after feeding, which is what keeps peak corpus
//! residency at one shard.
//!
//! Shards arrive as [`ShardData`] — already-parsed lines from the
//! simulator sources, corpus text (possibly borrowed straight from an
//! mmap) from the disk-backed ones. [`ParsedLines`] feeds each
//! representation natively, so a text shard goes mapped bytes →
//! borrowed-slice parser → classifier with no intermediate allocation per
//! line; [`TextRoundTrip`] forces the text representation to exercise the
//! full serialize/re-parse round trip.

use ssfa_logs::{Classifier, FaultInjector, FaultLedger, FaultSpec, LogError, ShardFate};

use crate::source::ShardData;

/// What conveying one shard produced, for the run's stream statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Corpus bytes the shard occupied in this transport's representation
    /// (rendered text bytes for text-shaped deliveries, in-memory parsed
    /// line bytes for parsed ones).
    pub bytes: usize,
    /// The shard never reached the classifier (fault injection dropped
    /// the whole upload). `bytes` is zero.
    pub dropped: bool,
}

/// Moves one shard from the source into a chunk's classifier.
///
/// Implementations must be [`Sync`]: worker threads convey shards of
/// different chunks concurrently. `shard` and `attempt` identify the
/// delivery for deterministic fault keying; `ledger` records any faults
/// landed on the way.
pub trait Transport: Sync {
    /// Feeds `data` into `classifier`, consuming the shard.
    ///
    /// # Errors
    ///
    /// Returns the classifier's [`LogError`] — under
    /// [`ssfa_logs::Strictness::Strict`] the first bad line, under
    /// [`ssfa_logs::Strictness::Lenient`] only I/O-grade failures.
    fn convey(
        &self,
        shard: usize,
        attempt: u32,
        data: ShardData<'_>,
        classifier: &mut Classifier,
        ledger: &mut FaultLedger,
    ) -> Result<Delivery, LogError>;
}

/// The default transport: feeds each shard in the representation it
/// arrived in. Parsed shards hand [`ssfa_logs::LogLine`]s straight to the
/// classifier — the same representation the monolithic oracle consumes;
/// text shards stream through the classifier's byte-oriented parser,
/// which borrows every message slice from the shard buffer instead of
/// allocating owned lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParsedLines;

impl Transport for ParsedLines {
    fn convey(
        &self,
        _shard: usize,
        _attempt: u32,
        data: ShardData<'_>,
        classifier: &mut Classifier,
        _ledger: &mut FaultLedger,
    ) -> Result<Delivery, LogError> {
        let bytes = match data {
            ShardData::Parsed(book) => {
                let bytes = book.resident_bytes();
                classifier.feed_book(&book)?;
                bytes
            }
            ShardData::Text(text) => {
                classifier.feed_bytes(text.as_bytes())?;
                // Per-shard-file EOF: a truncated tail must not glue onto
                // the next shard's first line.
                classifier.flush_tail()?;
                text.len()
            }
        };
        Ok(Delivery {
            bytes,
            dropped: false,
        })
    }
}

/// Serializes every shard to corpus text and re-parses it — the full
/// on-disk round trip production corpora arrive as. Slower than
/// [`ParsedLines`] for simulator shards (which must render first), and
/// kept differentially tested for exactly that reason.
#[derive(Debug, Clone, Copy, Default)]
pub struct TextRoundTrip;

impl Transport for TextRoundTrip {
    fn convey(
        &self,
        _shard: usize,
        _attempt: u32,
        data: ShardData<'_>,
        classifier: &mut Classifier,
        _ledger: &mut FaultLedger,
    ) -> Result<Delivery, LogError> {
        let text = data.into_text();
        classifier.feed_bytes(text.as_bytes())?;
        // Restore per-shard-file EOF semantics: a truncated tail must not
        // glue onto the next shard's first line.
        classifier.flush_tail()?;
        Ok(Delivery {
            bytes: text.len(),
            dropped: false,
        })
    }
}

/// [`TextRoundTrip`] with a deterministic, seedable [`FaultInjector`]
/// corrupting each shard's bytes on the way — the chaos-engineering
/// transport every fault-injected run uses (the injector corrupts bytes,
/// so injection implies the text representation).
///
/// Faults stay keyed by `(shard, attempt)`, not by chunk, so the landed
/// ledger is invariant under chunking and the retry path re-rolls its
/// corruption.
#[derive(Debug)]
pub struct InjectedText {
    injector: FaultInjector,
}

impl InjectedText {
    /// A fault-injecting transport for `spec`, keyed off the run `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> InjectedText {
        InjectedText {
            injector: FaultInjector::new(spec, seed),
        }
    }
}

impl Transport for InjectedText {
    fn convey(
        &self,
        shard: usize,
        attempt: u32,
        data: ShardData<'_>,
        classifier: &mut Classifier,
        ledger: &mut FaultLedger,
    ) -> Result<Delivery, LogError> {
        let text = data.into_text();
        match self.injector.corrupt_shard(shard, attempt, &text, ledger) {
            ShardFate::Processed(bytes) => {
                drop(text);
                classifier.feed_bytes(&bytes)?;
                classifier.flush_tail()?;
                Ok(Delivery {
                    bytes: bytes.len(),
                    dropped: false,
                })
            }
            ShardFate::Dropped => Ok(Delivery {
                bytes: 0,
                dropped: true,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use ssfa_logs::{LogEvent, LogLine};
    use ssfa_model::{SimTime, SystemId};

    use super::*;

    /// Two text shards, each cut off before its trailing newline: every
    /// transport must end a shard at its EOF, so both lines parse on
    /// their own instead of gluing into one malformed line.
    #[test]
    fn a_shard_without_a_trailing_newline_ends_at_its_eof() {
        let line = LogLine::new(
            SystemId(1),
            SimTime::from_secs(1_000),
            LogEvent::FciAdapterReset { adapter: 8 },
        )
        .to_string();
        let injected = InjectedText::new(FaultSpec::none(), 0);
        let transports: [&dyn Transport; 3] = [&ParsedLines, &TextRoundTrip, &injected];
        for transport in transports {
            let mut classifier = Classifier::lenient();
            let mut ledger = FaultLedger::default();
            for shard in 0..2 {
                let data = ShardData::Text(Cow::Borrowed(&line));
                transport
                    .convey(shard, 0, data, &mut classifier, &mut ledger)
                    .unwrap();
            }
            let (_, health) = classifier.finish_with_health().unwrap();
            assert_eq!((health.lines_seen, health.malformed_skipped), (2, 0));
        }
    }
}
