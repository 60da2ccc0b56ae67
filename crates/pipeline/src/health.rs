//! Run-level audit reports: [`StreamStats`] (how the corpus was sharded
//! and how much was resident) and [`RunHealth`] (what was ingested,
//! skipped, dropped, retried, and quarantined).

use ssfa_logs::{FaultLedger, ShardHealth, Strictness};

use crate::quarantine::ChunkQuarantine;

/// How much corpus a streaming run held — the evidence behind the
/// bounded-memory claim: `max_shard_bytes` (the largest corpus buffer any
/// worker held) versus `total_bytes` (what the monolithic path would have
/// held at once). How the corpus was sharded and chunked is in
/// [`RunHealth::shards_total`] and [`RunHealth::chunks_total`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Largest single shard the run held at once, in the unit of the form
    /// it was fed in: in-memory parsed line bytes for parsed shards
    /// (the simulator sources), corpus-text bytes for text shards (the
    /// disk-backed sources), corrupted text bytes under fault injection.
    pub max_shard_bytes: usize,
    /// Total corpus bytes across all shards, in the same unit as
    /// `max_shard_bytes`.
    pub total_bytes: usize,
}

/// The degraded-mode audit report: exactly what a streaming run ingested,
/// skipped, dropped, retried, and quarantined.
///
/// In strict mode with no fault injection every counter besides
/// `shards_total`/`shards_processed`/`lines_seen` is zero — a clean bill
/// of health. In lenient mode the report is the contract that nothing was
/// silently lost: every line the pipeline saw is either ingested or
/// counted in a skip bucket, and every shard is processed, dropped,
/// or quarantined.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// Error policy the run used.
    pub strictness: Strictness,
    /// Shards the plan contained (= systems in the fleet).
    pub shards_total: usize,
    /// Chunks the shards were batched into.
    pub chunks_total: usize,
    /// Chunks that completed (their shards are processed or individually
    /// dropped, never quarantined).
    pub chunks_processed: usize,
    /// Shards fully classified and merged.
    pub shards_processed: usize,
    /// Shards dropped whole by fault injection (upload never arrived).
    pub shards_dropped: usize,
    /// Shards re-processed because their chunk's worker panicked once and
    /// was retried (every shard in a retried chunk counts).
    pub shards_retried: usize,
    /// Chunks excluded from the merge after repeated failure.
    pub quarantined: Vec<ChunkQuarantine>,
    /// Complete non-blank lines fed to per-shard classifiers.
    pub lines_seen: u64,
    /// Lines skipped as unparseable or non-UTF-8.
    pub lines_skipped_malformed: u64,
    /// Lines skipped for referencing undeclared topology.
    pub lines_skipped_missing_topology: u64,
    /// The fault injector's own ledger for the run (all-zero when no
    /// faults were injected).
    pub ledger: FaultLedger,
    /// Frames shed un-acknowledged by an ingest bus under backpressure
    /// (always zero for offline engine runs — a shed frame is *not* lost:
    /// because it was never acknowledged, the sender's cursor does not
    /// advance past it and it is retransmitted).
    pub frames_shed: u64,
    /// Log lines carried by shed frames — the transient volume
    /// backpressure deferred, not a loss bucket.
    pub lines_shed: u64,
}

impl RunHealth {
    /// Adds one classified shard's (or chunk's) line tally to the run's
    /// line counters: lines seen and both skip buckets.
    pub fn add_line_counts(&mut self, lines: &ShardHealth) {
        self.lines_seen += lines.lines_seen;
        self.lines_skipped_malformed += lines.malformed_skipped;
        self.lines_skipped_missing_topology += lines.missing_topology_skipped;
    }

    /// Number of quarantined chunks.
    pub fn chunks_quarantined(&self) -> usize {
        self.quarantined.len()
    }

    /// Number of shards lost to quarantined chunks (each quarantined
    /// chunk loses every system it held).
    pub fn shards_quarantined(&self) -> usize {
        self.quarantined
            .iter()
            .map(ChunkQuarantine::systems_lost)
            .sum()
    }

    /// Exactly how many rendered log lines the quarantined chunks held,
    /// or `None` if any chunk's loss could not be counted (its shards no
    /// longer render).
    pub fn lines_lost(&self) -> Option<u64> {
        self.quarantined
            .iter()
            .try_fold(0u64, |total, q| Some(total + q.lines_lost?))
    }

    /// Fraction of shards fully classified and merged, in `[0, 1]`.
    ///
    /// An empty run (zero shards planned — an empty fleet, or a source
    /// with nothing to yield) is vacuously complete: `1.0`, never `NaN`.
    pub fn coverage(&self) -> f64 {
        if self.shards_total == 0 {
            return 1.0;
        }
        self.shards_processed as f64 / self.shards_total as f64
    }

    /// Total lines skipped for any reason.
    pub fn lines_skipped_total(&self) -> u64 {
        self.lines_skipped_malformed + self.lines_skipped_missing_topology
    }

    /// Whether nothing was lost: every shard processed, every line
    /// ingested, no retries.
    pub fn is_clean(&self) -> bool {
        self.shards_processed == self.shards_total
            && self.shards_retried == 0
            && self.quarantined.is_empty()
            && self.lines_skipped_total() == 0
    }
}

impl std::fmt::Display for RunHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "run health ({:?}): {}/{} shards processed ({:.2}% coverage) \
             in {}/{} chunks, {} dropped, {} retried, {} quarantined",
            self.strictness,
            self.shards_processed,
            self.shards_total,
            self.coverage() * 100.0,
            self.chunks_processed,
            self.chunks_total,
            self.shards_dropped,
            self.shards_retried,
            self.shards_quarantined(),
        )?;
        write!(
            f,
            "lines: {} seen, {} skipped ({} malformed, {} missing-topology)",
            self.lines_seen,
            self.lines_skipped_total(),
            self.lines_skipped_malformed,
            self.lines_skipped_missing_topology,
        )?;
        if self.frames_shed > 0 {
            write!(
                f,
                "\nbackpressure: {} frame(s) shed un-acked ({} line(s) deferred for retransmit)",
                self.frames_shed, self.lines_shed,
            )?;
        }
        for q in &self.quarantined {
            write!(
                f,
                "\nquarantined chunk {} (shards {}..{}, {} system(s), ",
                q.chunk,
                q.shards.start,
                q.shards.end,
                q.systems_lost(),
            )?;
            match q.lines_lost {
                Some(lines) => write!(f, "{lines} line(s) lost)")?,
                None => write!(f, "lines lost uncountable)")?,
            }
            write!(f, " after {} attempt(s): {}", q.attempts, q.reason)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty run — zero shards planned, nothing processed — must read
    /// as vacuously complete, not as a division by zero.
    #[test]
    fn empty_run_coverage_is_one_not_nan() {
        let health = RunHealth::default();
        assert_eq!(health.shards_total, 0);
        assert_eq!(health.coverage(), 1.0);
        assert!(health.coverage().is_finite());
        assert!(health.is_clean());
        assert_eq!(health.lines_lost(), Some(0));
        let rendered = format!("{health}");
        assert!(
            rendered.contains("0/0 shards processed (100.00% coverage)"),
            "empty-run display should show 100% coverage, got: {rendered}"
        );
        assert!(
            !rendered.contains("NaN"),
            "display leaked a NaN: {rendered}"
        );
    }

    /// Zero shards *processed* out of a non-empty plan is 0.0, the other
    /// boundary of the ratio.
    #[test]
    fn total_loss_coverage_is_zero() {
        let health = RunHealth {
            shards_total: 5,
            ..RunHealth::default()
        };
        assert_eq!(health.coverage(), 0.0);
        assert!(!health.is_clean());
    }

    /// A quarantine record over an empty shard range (never produced by
    /// the engine, but constructible) counts zero systems and zero lines
    /// rather than underflowing or panicking.
    #[test]
    fn empty_quarantine_record_counts_zero() {
        let q = ChunkQuarantine {
            chunk: 0,
            shards: 0..0,
            systems: Vec::new(),
            attempts: 1,
            reason: "synthetic".to_owned(),
            lines_lost: Some(0),
        };
        assert_eq!(q.systems_lost(), 0);
        let health = RunHealth {
            shards_total: 3,
            shards_processed: 3,
            quarantined: vec![q],
            ..RunHealth::default()
        };
        assert_eq!(health.chunks_quarantined(), 1);
        assert_eq!(health.shards_quarantined(), 0);
        assert_eq!(health.lines_lost(), Some(0));
        // Quarantine presence alone must still mark the run unclean.
        assert!(!health.is_clean());
    }

    /// One uncountable chunk poisons the total line count (None), even
    /// when other chunks counted fine.
    #[test]
    fn uncountable_quarantine_poisons_lines_lost() {
        let counted = ChunkQuarantine {
            chunk: 0,
            shards: 0..1,
            systems: Vec::new(),
            attempts: 2,
            reason: "counted".to_owned(),
            lines_lost: Some(41),
        };
        let uncountable = ChunkQuarantine {
            lines_lost: None,
            chunk: 1,
            shards: 1..2,
            systems: Vec::new(),
            attempts: 2,
            reason: "render panicked".to_owned(),
        };
        let health = RunHealth {
            quarantined: vec![counted, uncountable],
            ..RunHealth::default()
        };
        assert_eq!(health.lines_lost(), None);
        let rendered = format!("{health}");
        assert!(rendered.contains("41 line(s) lost"));
        assert!(rendered.contains("lines lost uncountable"));
    }
}
