//! The `Source` stage: where shard corpora come from.
//!
//! This module holds the trait and the simulator-backed sources; the
//! on-disk corpus readers ([`crate::FileSource`], [`crate::MmapSource`])
//! implement the same trait. Any other shard layout plugs in the same
//! way: implement [`Source`] over it and drive it with
//! [`crate::Pipeline::run_source`].

use std::borrow::Cow;

use ssfa_logs::{
    is_blank_line, render_support_log, render_system_log, CascadeStyle, ChunkPlan, LogBook,
    NoiseParams, ShardPlan, DEFAULT_CHUNK_TARGET_BYTES,
};
use ssfa_model::{Fleet, SystemId};
use ssfa_sim::SimOutput;

use crate::plan::ChunkPolicy;

/// One shard's corpus in whichever representation the source produced it.
///
/// The simulator-backed sources render parsed [`LogBook`]s; the disk-backed
/// sources hand over corpus *text* — borrowed straight out of the mmap for
/// [`crate::MmapSource`], owned for [`crate::FileSource`] — and the
/// chunk worker feeds it to the classifier's byte-oriented parser without
/// ever materializing owned [`ssfa_logs::LogLine`]s. The lifetime ties a
/// borrowed payload to the source that loaded it.
#[derive(Debug)]
pub enum ShardData<'a> {
    /// Already-parsed lines (the simulator sources render these directly).
    Parsed(LogBook),
    /// Corpus text, as it sits on disk. `Cow::Borrowed` means zero-copy
    /// all the way from the mapped segment file to the classifier.
    Text(Cow<'a, str>),
}

impl<'a> ShardData<'a> {
    /// Converts to corpus text, rendering parsed lines if needed.
    pub fn into_text(self) -> Cow<'a, str> {
        match self {
            ShardData::Parsed(book) => Cow::Owned(book.to_text()),
            ShardData::Text(text) => text,
        }
    }

    /// Number of rendered log lines this shard holds (blank lines, as
    /// [`ssfa_logs::is_blank_line`] defines them, are not log lines — the
    /// classifier skips them without counting).
    pub fn count_lines(&self) -> u64 {
        match self {
            ShardData::Parsed(book) => book.len() as u64,
            ShardData::Text(text) => text
                .lines()
                .filter(|line| !is_blank_line(line.as_bytes()))
                .count() as u64,
        }
    }
}

/// A corpus of shard-grained support logs the engine can pull from.
///
/// A shard is the unit of memory residency (workers load, feed, and drop
/// one at a time) and of loss accounting (quarantine reports the systems
/// and lines behind each shard). Implementations must be [`Sync`]: worker
/// threads call [`Source::load`] concurrently for different shards.
pub trait Source: Sync {
    /// Number of shards this source yields. Zero is a valid empty run.
    fn shard_count(&self) -> usize;

    /// Batches shards `0..shard_count()` into the contiguous, in-order
    /// chunks the engine will schedule. The source owns the plan because
    /// only it knows shard sizes (the byte-budget policy needs estimates).
    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan;

    /// Loads (for the simulator-backed sources: renders) one shard's
    /// corpus, in whichever representation the source holds it — see
    /// [`ShardData`]. Called once per shard per attempt, from worker
    /// threads.
    fn load(&self, shard: usize) -> ShardData<'_>;

    /// The systems whose logs live in `shard`, for quarantine accounting.
    fn system_ids(&self, shard: usize) -> Vec<SystemId>;

    /// Number of rendered log lines in `shard`, for exact loss accounting
    /// when a chunk is quarantined. The default re-loads the shard and
    /// counts; sources with cheaper metadata may override.
    fn count_lines(&self, shard: usize) -> u64 {
        self.load(shard).count_lines()
    }
}

/// The production source: one self-contained shard per simulated system,
/// rendered on demand in fleet order from a [`ShardPlan`].
#[derive(Debug)]
pub struct SimSource<'a> {
    fleet: &'a Fleet,
    output: &'a SimOutput,
    plan: ShardPlan,
    style: CascadeStyle,
    seed: u64,
}

impl<'a> SimSource<'a> {
    /// Plans one shard per system of `fleet` for the run `output`.
    pub fn new(
        fleet: &'a Fleet,
        output: &'a SimOutput,
        style: CascadeStyle,
        seed: u64,
    ) -> SimSource<'a> {
        SimSource {
            fleet,
            output,
            plan: ShardPlan::new(fleet, output),
            style,
            seed,
        }
    }

    /// The underlying shard plan.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }
}

impl Source for SimSource<'_> {
    fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    fn plan_chunks(&self, policy: ChunkPolicy) -> ChunkPlan {
        match policy {
            ChunkPolicy::Fixed(n) => ChunkPlan::fixed(&self.plan, n),
            ChunkPolicy::Auto => ChunkPlan::auto(
                &self.plan,
                self.fleet,
                self.style,
                DEFAULT_CHUNK_TARGET_BYTES,
            ),
        }
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        ShardData::Parsed(render_system_log(
            self.fleet,
            self.output,
            &self.plan,
            shard,
            self.style,
            NoiseParams::none(),
            self.seed,
        ))
    }

    fn system_ids(&self, shard: usize) -> Vec<SystemId> {
        vec![self.fleet.systems()[shard].id]
    }
}

/// The reference source: the *entire* monolithic corpus as one shard, in
/// the chronological cross-system order of
/// [`ssfa_logs::render_support_log`] — exactly what the pre-refactor
/// `run_monolithic` classified in one pass.
///
/// Configured as one chunk on one worker, this turns the staged engine
/// into the single-buffer correctness oracle the streaming configuration
/// is differentially tested against: same engine, different source, so a
/// divergence isolates the sharded render/merge path.
#[derive(Debug)]
pub struct MonolithicSource<'a> {
    fleet: &'a Fleet,
    output: &'a SimOutput,
    style: CascadeStyle,
}

impl<'a> MonolithicSource<'a> {
    /// A whole-corpus source for `fleet` and the run `output`.
    pub fn new(
        fleet: &'a Fleet,
        output: &'a SimOutput,
        style: CascadeStyle,
    ) -> MonolithicSource<'a> {
        MonolithicSource {
            fleet,
            output,
            style,
        }
    }
}

impl Source for MonolithicSource<'_> {
    fn shard_count(&self) -> usize {
        usize::from(!self.fleet.systems().is_empty())
    }

    fn plan_chunks(&self, _policy: ChunkPolicy) -> ChunkPlan {
        // One shard; every policy degenerates to a single chunk.
        ChunkPlan::whole(self.shard_count())
    }

    fn load(&self, shard: usize) -> ShardData<'_> {
        assert_eq!(shard, 0, "monolithic source has exactly one shard");
        ShardData::Parsed(render_support_log(self.fleet, self.output, self.style))
    }

    fn system_ids(&self, _shard: usize) -> Vec<SystemId> {
        self.fleet.systems().iter().map(|s| s.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use ssfa_logs::{Classifier, LogError};

    use super::*;

    /// The malformed line number of a failed parse, `None` on success.
    fn malformed_at<T>(result: Result<T, LogError>) -> Option<usize> {
        match result {
            Ok(_) => None,
            Err(LogError::Malformed { line_no, .. }) => Some(line_no),
            Err(other) => panic!("expected a malformed-line error, got {other}"),
        }
    }

    /// Every reader applies one blank-line rule: Unicode-only whitespace
    /// is a malformed line to both parsers and a counted line to both
    /// counters; ASCII whitespace is blank everywhere.
    #[test]
    fn readers_agree_on_what_a_blank_line_is() {
        for (text, lines) in [
            ("\u{a0}\n", 1),
            ("\u{3000}\n", 1),
            ("\u{85}\n", 1),
            (" \t\r\n", 0),
        ] {
            let mut strict = Classifier::new();
            let fed = strict
                .feed_bytes(text.as_bytes())
                .and_then(|()| strict.finish());
            let expected = (lines == 1).then_some(1);
            assert_eq!(malformed_at(LogBook::from_text(text)), expected, "{text:?}");
            assert_eq!(malformed_at(fed), expected, "{text:?}");

            let mut lenient = Classifier::lenient();
            lenient.feed_bytes(text.as_bytes()).unwrap();
            let (_, health) = lenient.finish_with_health().unwrap();
            let count = ShardData::Text(Cow::Borrowed(text)).count_lines();
            assert_eq!((count, health.lines_seen), (lines, lines), "{text:?}");
        }
    }
}
