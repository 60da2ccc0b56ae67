//! The [`Pipeline`] builder: fleet → simulation → support log →
//! classified analysis input → [`ssfa_core::Study`], with every entry
//! point expressed as a configuration of the one staged engine and
//! returning the same `(Study, StreamStats, RunHealth)` result.

use std::path::Path;

use ssfa_core::{SnapshotError, Study, StudyFold, SNAPSHOT_VERSION};
use ssfa_logs::checkpoint::{CheckpointReader, CheckpointWriter, CHECKPOINT_NAME};
use ssfa_logs::{AnalysisInput, CascadeStyle, FaultInjector, FaultSpec, Strictness};
use ssfa_model::{Fleet, FleetConfig, LayoutPolicy};
use ssfa_sim::{Calibration, SimOutput, Simulator};

use crate::checkpoint::{
    chunk_starting_at, plan_epochs, restore_fold, CheckpointSink, ManifestSource,
};
use crate::error::PipelineError;
use crate::exec::{push_partial, Engine};
use crate::health::{RunHealth, StreamStats};
use crate::plan::ChunkPolicy;
use crate::source::{MonolithicSource, SimSource, Source};

/// The end-to-end pipeline: fleet → simulation → support log → classified
/// analysis input → [`ssfa_core::Study`].
///
/// Every stage is deterministic for a given `(scale, seed, calibration)`.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: FleetConfig,
    calibration: Calibration,
    seed: u64,
    style: CascadeStyle,
    threads: usize,
    strictness: Strictness,
    faults: FaultSpec,
    chunking: ChunkPolicy,
    epoch_chunks: usize,
}

impl Pipeline {
    /// A pipeline over the paper's full-scale fleet with the paper
    /// calibration. Use [`Pipeline::scale`] to shrink it.
    pub fn new() -> Pipeline {
        Pipeline {
            config: FleetConfig::paper(),
            calibration: Calibration::paper(),
            seed: 0,
            style: CascadeStyle::RaidOnly,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            strictness: Strictness::Strict,
            faults: FaultSpec::none(),
            chunking: ChunkPolicy::Auto,
            epoch_chunks: 1,
        }
    }

    /// Groups `n` chunks per checkpoint epoch for
    /// [`Pipeline::run_source_checkpointed`] and
    /// [`Pipeline::resume_from`]. The default, `1`, writes an epoch after
    /// every chunk, the finest-grained resume. Each epoch but the run's
    /// last holds only its own chunks' fold, so the checkpoint's bytes
    /// do not depend on the epoch size; larger epochs save only the
    /// per-epoch frame and manifest syncs. Fold results are bit-identical
    /// for every epoch size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn epoch_chunks(mut self, n: usize) -> Pipeline {
        assert!(n > 0, "epochs must hold at least one chunk");
        self.epoch_chunks = n;
        self
    }

    /// Batches exactly `n` systems per streaming work unit. `1` reproduces
    /// the original one-shard-per-work-unit scheduling; `n >=` fleet size
    /// degenerates to a single chunk. The default is an automatic policy
    /// targeting [`ssfa_logs::DEFAULT_CHUNK_TARGET_BYTES`] (~256 KiB) of
    /// rendered text per chunk, which amortizes per-shard classifier setup
    /// without raising peak memory: chunk workers still render, feed, and
    /// drop one shard at a time. Results are bit-identical for every chunk
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn chunk_systems(mut self, n: usize) -> Pipeline {
        assert!(n > 0, "chunks must hold at least one system");
        self.chunking = ChunkPolicy::Fixed(n);
        self
    }

    /// Sets the number of simulation worker threads. Output is
    /// bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Pipeline {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Scales the fleet population (1.0 = the paper's ~39,000 systems).
    #[must_use]
    pub fn scale(mut self, factor: f64) -> Pipeline {
        self.config = self.config.scaled(factor);
        self
    }

    /// Sets the run seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Pipeline {
        self.seed = seed;
        self
    }

    /// Replaces the fleet configuration entirely.
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Pipeline {
        self.config = config;
        self
    }

    /// Replaces the hazard calibration (e.g. for ablations).
    #[must_use]
    pub fn calibration(mut self, calibration: Calibration) -> Pipeline {
        self.calibration = calibration;
        self
    }

    /// Applies a layout policy fleet-wide (RAID-layout ablation).
    #[must_use]
    pub fn layout(mut self, layout: LayoutPolicy) -> Pipeline {
        self.config = self.config.with_layout(layout);
        self
    }

    /// Chooses how verbose rendered cascades are. [`CascadeStyle::Full`]
    /// renders Figure-3-style multi-line cascades; the default
    /// [`CascadeStyle::RaidOnly`] keeps large corpora compact.
    #[must_use]
    pub fn cascade_style(mut self, style: CascadeStyle) -> Pipeline {
        self.style = style;
        self
    }

    /// Sets the error policy for the classify stage. The default,
    /// [`Strictness::Strict`], is the original fail-fast behavior; with
    /// [`Strictness::Lenient`] bad lines are skipped and counted,
    /// panicking chunk workers get one retry and are then quarantined,
    /// and the [`RunHealth`] every entry point returns accounts for every
    /// skip. At fault rate zero the two policies are bit-identical.
    #[must_use]
    pub fn strictness(mut self, strictness: Strictness) -> Pipeline {
        self.strictness = strictness;
        self
    }

    /// Shorthand for [`Pipeline::strictness`]`(Strictness::Lenient)`.
    #[must_use]
    pub fn lenient(self) -> Pipeline {
        self.strictness(Strictness::Lenient)
    }

    /// Installs a fault-injection spec: every shard, as corpus text
    /// (simulated shards are rendered first), is corrupted through a
    /// deterministic, seedable [`FaultInjector`] before it reaches the
    /// classifier.
    /// [`FaultSpec::none`] (the default) bypasses injection entirely.
    /// Injection is a test/chaos-engineering facility; pair a non-trivial
    /// spec with [`Pipeline::lenient`] unless the point is to watch
    /// strict mode abort.
    ///
    /// # Panics
    ///
    /// Panics if the spec's rates are invalid (see
    /// [`FaultSpec::validate`]).
    #[must_use]
    pub fn faults(mut self, spec: FaultSpec) -> Pipeline {
        spec.validate();
        self.faults = spec;
        self
    }

    /// Builds the fleet only.
    pub fn build_fleet(&self) -> Fleet {
        Fleet::build(&self.config, self.seed)
    }

    /// Runs the simulation only.
    pub fn simulate(&self, fleet: &Fleet) -> SimOutput {
        Simulator::new(self.calibration.clone()).run_parallel(fleet, self.seed, self.threads)
    }

    /// Renders the monolithic support-log corpus for a run.
    pub fn render(&self, fleet: &Fleet, output: &SimOutput) -> ssfa_logs::LogBook {
        ssfa_logs::render_support_log(fleet, output, self.style)
    }

    /// Runs the full pipeline to a [`ssfa_core::Study`] via the chunked
    /// streaming configuration: each system's log renders into its own
    /// shard ([`SimSource`]), shards batch into chunks (see
    /// [`Pipeline::chunk_systems`]), worker threads classify chunks
    /// concurrently, and the per-chunk partials fold — in system order —
    /// into one [`StudyFold`].
    ///
    /// Alongside the study it returns the [`StreamStats`] (how much
    /// corpus text was resident at peak) and the [`RunHealth`] audit
    /// report: how many shards and lines made it through, what was
    /// skipped and why, which chunks were retried or quarantined. With
    /// [`Pipeline::lenient`] a corrupt corpus yields a best-effort study
    /// plus an exact accounting of the loss, instead of an abort.
    ///
    /// Memory stays bounded by the largest shard (plus the classified
    /// partials), never the whole rendered corpus; the study is
    /// bit-identical to [`Pipeline::run_monolithic`]'s for every
    /// `(fleet, seed, threads, chunking)` tuple.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Log`] if a shard fails to classify (which
    /// would indicate a bug — rendered corpora are always classifiable)
    /// and [`PipelineError::Worker`] if a worker thread panics. In
    /// lenient mode, only worker-pool failures outside the per-chunk
    /// isolation boundary surface as errors.
    pub fn run(&self) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        let fleet = self.build_fleet();
        let output = self.simulate(&fleet);
        self.run_source(&SimSource::new(&fleet, &output, self.style, self.seed))
    }

    /// The single-buffer reference configuration: the whole corpus as one
    /// [`MonolithicSource`] shard, classified strictly in one chunk on
    /// one worker. Peak memory is proportional to the full corpus — use
    /// [`Pipeline::run`] for large fleets; this configuration exists as
    /// the correctness oracle the streaming configuration is
    /// differentially tested against (same engine, different source, so a
    /// divergence isolates the sharded render/merge path). Fault
    /// injection, [`Pipeline::strictness`] and the chunking policy do not
    /// apply here: the reference is always the clean, strict, parsed-line
    /// corpus.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Log`] if the rendered corpus fails to
    /// classify.
    pub fn run_monolithic(&self) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        let fleet = self.build_fleet();
        let output = self.simulate(&fleet);
        let reference = Pipeline {
            threads: 1,
            strictness: Strictness::Strict,
            faults: FaultSpec::none(),
            chunking: ChunkPolicy::Fixed(usize::MAX),
            ..self.clone()
        };
        reference.run_source(&MonolithicSource::new(&fleet, &output, self.style))
    }

    /// Runs the staged engine over a caller-provided [`Source`] with this
    /// pipeline's fault injection, strictness, chunking, and thread
    /// configuration — the extension point for non-simulator corpora
    /// (file- or mmap-backed shard readers) and for test harnesses that
    /// permute or filter shard order.
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::run`].
    pub fn run_source(
        &self,
        source: &dyn Source,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        self.run_engine(source, StudyFold::new(), 0, push_partial)
    }

    /// [`Pipeline::run_source`] over a corpus-backed source, writing one
    /// durable checkpoint epoch per [`Pipeline::epoch_chunks`] chunks
    /// into `dir` as the fold advances. The directory must not already
    /// hold a checkpoint (use [`Pipeline::resume_from`] to continue one);
    /// it is created if missing.
    ///
    /// Each epoch is a single `SSFC` frame holding the
    /// [`ssfa_core::StudyFold`] snapshot of that epoch's own chunks (a
    /// delta), keyed to the corpus manifest by shard range and
    /// shard-checksum digest, so the checkpoint grows linearly with the
    /// corpus. The last epoch instead holds the whole fold, which is the
    /// finished run's fold state and what a later resume decodes first.
    /// The checkpoint manifest is rewritten atomically (temp file + sync +
    /// rename) after every epoch frame, so each epoch is published
    /// atomically and a crash leaves nothing torn. Epochs are written
    /// while workers classify later chunks: the engine folds each chunk
    /// as soon as it and every chunk before it are classified, so a crash
    /// mid-run keeps every epoch already written. A failed chunk still
    /// lets every epoch wholly before it be written before the error
    /// returns.
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::run_source`], plus
    /// [`PipelineError::Checkpoint`] if the store cannot be created or
    /// written.
    pub fn run_source_checkpointed<S: ManifestSource>(
        &self,
        source: &S,
        dir: &Path,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        let writer = CheckpointWriter::create(
            dir,
            SNAPSHOT_VERSION,
            source.manifest().seed,
            source.manifest().style,
        )?;
        self.run_checkpointed(source, writer, 0, StudyFold::new())
    }

    /// Resumes a checkpointed analysis: restores the fold through the
    /// newest epoch in `dir` whose shard boundary aligns with the current
    /// chunk plan (the newest whole epoch at or before it, merged with
    /// the delta epochs after that, in order), then runs the engine over
    /// only the chunks past it — an appended
    /// corpus is absorbed by re-reading just the new shards. Epochs past
    /// the alignment point (possible when a re-plan moved chunk
    /// boundaries) are truncated and recomputed. The result is
    /// bit-identical to a cold run over the full corpus.
    ///
    /// An empty or missing checkpoint directory degrades to a cold
    /// [`Pipeline::run_source_checkpointed`] run, so `resume_from` is
    /// safe to use unconditionally.
    ///
    /// # Errors
    ///
    /// As for [`Pipeline::run_source_checkpointed`], plus
    /// [`PipelineError::Checkpoint`] when the checkpoint is corrupt or
    /// disagrees with the corpus manifest, and
    /// [`PipelineError::Snapshot`] when an epoch payload was written by
    /// an incompatible schema version.
    pub fn resume_from<S: ManifestSource>(
        &self,
        source: &S,
        dir: &Path,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        if !dir.join(CHECKPOINT_NAME).exists() {
            return self.run_source_checkpointed(source, dir);
        }
        let corpus = source.manifest();
        let reader = CheckpointReader::open(dir)?;
        reader.manifest().validate_against(corpus)?;
        if reader.manifest().payload_version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: reader.manifest().payload_version,
            }
            .into());
        }
        // The newest epoch whose covered-shard boundary is still a chunk
        // boundary of the current plan can seed the fold; anything after
        // it is stale under this plan and gets recomputed.
        let plan = source.plan_chunks(self.chunking);
        let mut keep = 0;
        let mut first_chunk = 0;
        for (index, epoch) in reader.manifest().epochs.iter().enumerate().rev() {
            if let Some(chunk) = chunk_starting_at(&plan, epoch.shard_end) {
                keep = index + 1;
                first_chunk = chunk;
                break;
            }
        }
        let fold = match keep.checked_sub(1) {
            Some(epoch) => restore_fold(&reader, epoch)?,
            None => StudyFold::new(),
        };
        let mut writer = CheckpointWriter::append_to(dir)?;
        writer.truncate_to(keep)?;
        self.run_checkpointed(source, writer, first_chunk, fold)
    }

    /// The engine leg shared by [`Pipeline::run_source_checkpointed`] and
    /// [`Pipeline::resume_from`]: plans the remaining epochs, then runs
    /// from `first_chunk` with a [`CheckpointSink`] absorbing every partial.
    fn run_checkpointed<S: ManifestSource>(
        &self,
        source: &S,
        writer: CheckpointWriter,
        first_chunk: usize,
        fold: StudyFold,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        let corpus = source.manifest();
        let plan = source.plan_chunks(self.chunking);
        let epochs = plan_epochs(
            &plan,
            first_chunk,
            self.epoch_chunks,
            writer.manifest().epochs.len(),
        );
        let mut sink = CheckpointSink::new(writer, epochs, corpus, first_chunk);
        self.run_engine(source, fold, first_chunk, |chunk, partial, fold| {
            sink.absorb(chunk, partial, fold)
        })
    }

    /// Runs the engine with this pipeline's threads, strictness, chunking
    /// and fault injection from `first_chunk`, folding into `fold` (empty for a
    /// cold run, a restored snapshot on resume) through `absorb` (see
    /// [`Engine::run_from`]).
    fn run_engine(
        &self,
        source: &dyn Source,
        fold: StudyFold,
        first_chunk: usize,
        absorb: impl FnMut(usize, Option<AnalysisInput>, &mut StudyFold) -> Result<(), PipelineError>,
    ) -> Result<(Study, StreamStats, RunHealth), PipelineError> {
        let engine = Engine {
            threads: self.threads,
            strictness: self.strictness,
            policy: self.chunking,
            injector: (!self.faults.is_none())
                .then(|| FaultInjector::new(self.faults.clone(), self.seed)),
        };
        engine.run_from(source, fold, first_chunk, absorb)
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_is_deterministic() {
        let (a, _, _) = Pipeline::new().scale(0.001).seed(5).run().unwrap();
        let (b, _, _) = Pipeline::new().scale(0.001).seed(5).run().unwrap();
        assert_eq!(a.input().failures, b.input().failures);
        assert_eq!(a.input().lifetimes.len(), b.input().lifetimes.len());
    }

    #[test]
    fn builder_methods_compose() {
        let p = Pipeline::new()
            .scale(0.001)
            .seed(9)
            .layout(LayoutPolicy::SameShelf)
            .calibration(Calibration::paper().without_episodes())
            .cascade_style(CascadeStyle::Full);
        let (study, _, _) = p.run().unwrap();
        assert!(!study.input().failures.is_empty());
    }
}
