//! Sharded corpus rendering: one shard per system.
//!
//! A full-scale fleet renders to a corpus far bigger than a workstation
//! wants to hold as one `String`. Real AutoSupport archives have the same
//! shape and the same remedy: each system's log is its own file. This
//! module reproduces that layout — a [`ShardPlan`] splits a run's ground
//! truth by owning system, [`render_system_log`] renders any single
//! system's shard independently, and a [`ChunkPlan`] batches contiguous
//! shards into work units.
//!
//! Two properties make shards safe to process concurrently:
//!
//! 1. **Self-containment** — a shard opens with the system's own
//!    configuration snapshot, so the classifier can resolve every event in
//!    the shard without seeing any other shard.
//! 2. **Decomposability** — the monolithic corpus
//!    ([`crate::render_support_log_noisy`]) is *defined* as the
//!    chronologically merged concatenation of all shards, so per-shard
//!    classification folded with [`crate::AnalysisInput::absorb`] and
//!    [`crate::AnalysisInput::canonicalize`] is bit-identical to
//!    classifying the monolithic corpus.
//!
//! Benign noise is seeded **per disk instance** (not from one sequential
//! stream over the whole fleet), which is what makes property 2 hold with
//! noise enabled: a disk emits the same noise lines whether its system is
//! rendered alone or as part of the full corpus.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssfa_model::time::SECS_PER_YEAR;
use ssfa_model::{Fleet, SimDuration, SimTime, SystemId};
use ssfa_sim::rng::derive;
use ssfa_sim::{RemovalReason, SimOutput};

use crate::cascade::{expand, CascadeInput, CascadeStyle};
use crate::corpus::LogBook;
use crate::event::{LogEvent, LogLine};
use crate::render::NoiseParams;

/// Domain separator folded into the noise seed so noise streams never
/// collide with simulation streams derived from the same run seed.
pub(crate) const NOISE_STREAM: u64 = 0x4E01_5E00;

/// An index of one run's ground truth by owning system: which disk
/// records and which failure occurrences belong in each system's shard.
///
/// Building the plan is one pass over the output; rendering any shard
/// afterwards touches only that shard's records.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// `output.disks()` indices per system, in `fleet.systems()` order.
    disks: Vec<Vec<u32>>,
    /// `output.occurrences()` indices per system, preserving the global
    /// detection order within each system.
    occurrences: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Indexes `output` by the systems of `fleet`.
    ///
    /// # Panics
    ///
    /// Panics if the output references a system the fleet does not have
    /// (which would mean the output came from a different fleet).
    pub fn new(fleet: &Fleet, output: &SimOutput) -> ShardPlan {
        let shard_of: HashMap<SystemId, usize> = fleet
            .systems()
            .iter()
            .enumerate()
            .map(|(i, sys)| (sys.id, i))
            .collect();
        let n = fleet.systems().len();
        let mut disks = vec![Vec::new(); n];
        let mut occurrences = vec![Vec::new(); n];
        for (i, disk) in output.disks().iter().enumerate() {
            let shard = *shard_of
                .get(&disk.system)
                .expect("disk from an unknown system");
            disks[shard].push(u32::try_from(i).expect("disk index fits in u32"));
        }
        for (i, occ) in output.occurrences().iter().enumerate() {
            let shard = *shard_of
                .get(&occ.system)
                .expect("occurrence from an unknown system");
            occurrences[shard].push(u32::try_from(i).expect("occurrence index fits in u32"));
        }
        ShardPlan { disks, occurrences }
    }

    /// Number of shards (= number of systems).
    pub fn shard_count(&self) -> usize {
        self.disks.len()
    }

    /// Estimated line count of one shard's rendered (noise-free) text,
    /// from the plan's indices alone — no rendering happens. Used by
    /// [`ChunkPlan::auto`] to balance chunks; the estimate deliberately
    /// overcounts slightly (every disk is assumed to have a removal
    /// record) so auto chunks err on the small side.
    pub fn estimated_shard_lines(&self, fleet: &Fleet, shard: usize, style: CascadeStyle) -> usize {
        let sys = &fleet.systems()[shard];
        let cfg = 1 + sys.shelves.len() + sys.raid_groups.len();
        let lifecycle = 2 * self.disks[shard].len();
        let cascade = match style {
            CascadeStyle::RaidOnly => 1,
            CascadeStyle::Full => 6,
        };
        cfg + lifecycle + cascade * self.occurrences[shard].len()
    }

    /// Estimated rendered-text bytes of one shard
    /// ([`ShardPlan::estimated_shard_lines`] × a typical line width).
    pub fn estimated_shard_bytes(&self, fleet: &Fleet, shard: usize, style: CascadeStyle) -> usize {
        self.estimated_shard_lines(fleet, shard, style) * EST_BYTES_PER_LINE
    }
}

/// Typical rendered corpus line width, for chunk planning only.
const EST_BYTES_PER_LINE: usize = 120;

/// Default [`ChunkPlan::auto`] target: ~256 KiB of rendered shard text per
/// chunk — large enough to amortize per-work-unit setup (classifier
/// construction, partial merging, scheduling) across many small systems,
/// small enough that a fleet still splits into plenty of parallel work.
pub const DEFAULT_CHUNK_TARGET_BYTES: usize = 256 * 1024;

/// A partition of a [`ShardPlan`]'s shards into contiguous *chunks*: the
/// work units of the streaming pipeline.
///
/// One shard per system is the right unit for self-containment, but a
/// terrible unit for scheduling when systems are small — at small scales
/// per-shard setup dominates the wall clock. A chunk batches a contiguous
/// run of shards into one work unit (one classifier, one partial, one
/// scheduling slot) while each shard inside it still renders, injects, and
/// feeds individually, so per-disk noise seeding, fault injection keyed by
/// shard index, and peak residency of one shard are all unchanged.
///
/// Chunks are always contiguous in fleet system order and cover every
/// shard exactly once, so merging per-chunk partials in chunk order is the
/// same merge — bit-identical — as merging per-shard partials in shard
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Half-open shard ranges, in order, covering `0..shard_count`.
    ranges: Vec<std::ops::Range<usize>>,
}

impl ChunkPlan {
    /// One chunk per shard — exactly the pre-chunking pipeline.
    pub fn per_shard(plan: &ShardPlan) -> ChunkPlan {
        ChunkPlan::fixed(plan, 1)
    }

    /// Fixed-size chunks of `systems_per_chunk` shards (the last chunk
    /// takes the remainder). `usize::MAX` (or anything ≥ the fleet) gives
    /// one chunk spanning the whole corpus.
    ///
    /// # Panics
    ///
    /// Panics if `systems_per_chunk` is zero.
    pub fn fixed(plan: &ShardPlan, systems_per_chunk: usize) -> ChunkPlan {
        assert!(
            systems_per_chunk > 0,
            "chunks must hold at least one system"
        );
        let n = plan.shard_count();
        let ranges = (0..n)
            .step_by(systems_per_chunk.min(n.max(1)))
            .map(|start| start..(start + systems_per_chunk).min(n))
            .collect();
        ChunkPlan { ranges }
    }

    /// Fixed-size chunks over a bare shard count, for sources that have no
    /// [`ShardPlan`] (e.g. manifest-backed corpus readers): the same
    /// partition as [`ChunkPlan::fixed`], which is implemented on top of
    /// this.
    ///
    /// # Panics
    ///
    /// Panics if `systems_per_chunk` is zero.
    pub fn fixed_count(shards: usize, systems_per_chunk: usize) -> ChunkPlan {
        assert!(
            systems_per_chunk > 0,
            "chunks must hold at least one system"
        );
        let ranges = (0..shards)
            .step_by(systems_per_chunk.min(shards.max(1)))
            .map(|start| start..(start + systems_per_chunk).min(shards))
            .collect();
        ChunkPlan { ranges }
    }

    /// Greedy byte-budget chunking over known per-shard sizes, for sources
    /// that store exact shard byte counts (e.g. a corpus manifest) instead
    /// of estimating them from a [`ShardPlan`]: the same greedy close as
    /// [`ChunkPlan::auto`] — accumulate shards until `target_bytes`, an
    /// oversized shard gets its own chunk, every chunk holds at least one
    /// shard.
    pub fn by_bytes(sizes: &[u64], target_bytes: u64) -> ChunkPlan {
        let n = sizes.len();
        let mut ranges = Vec::new();
        let mut start = 0;
        let mut bytes = 0u64;
        for (shard, &size) in sizes.iter().enumerate() {
            if shard > start && bytes.saturating_add(size) > target_bytes {
                ranges.push(start..shard);
                start = shard;
                bytes = 0;
            }
            bytes = bytes.saturating_add(size);
        }
        if start < n {
            ranges.push(start..n);
        }
        ChunkPlan { ranges }
    }

    /// One chunk spanning all of `shards` shards (`0..shards`), or no
    /// chunks at all when `shards` is zero. This is the plan a
    /// single-shard source (e.g. a monolithic whole-corpus shard) uses
    /// regardless of policy.
    pub fn whole(shards: usize) -> ChunkPlan {
        let mut ranges = Vec::new();
        if shards > 0 {
            ranges.push(0..shards);
        }
        ChunkPlan { ranges }
    }

    /// Greedy auto-chunking: accumulate shards until the chunk's estimated
    /// rendered text reaches `target_bytes`, then start the next chunk. A
    /// shard bigger than the target gets a chunk of its own; every chunk
    /// holds at least one shard.
    pub fn auto(
        plan: &ShardPlan,
        fleet: &Fleet,
        style: CascadeStyle,
        target_bytes: usize,
    ) -> ChunkPlan {
        let n = plan.shard_count();
        let mut ranges = Vec::new();
        let mut start = 0;
        let mut bytes = 0usize;
        for shard in 0..n {
            let est = plan.estimated_shard_bytes(fleet, shard, style);
            if shard > start && bytes + est > target_bytes {
                ranges.push(start..shard);
                start = shard;
                bytes = 0;
            }
            bytes += est;
        }
        if start < n {
            ranges.push(start..n);
        }
        ChunkPlan { ranges }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.ranges.len()
    }

    /// The shard range of one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn shard_range(&self, chunk: usize) -> std::ops::Range<usize> {
        self.ranges[chunk].clone()
    }

    /// Iterates the chunks' shard ranges in order.
    pub fn iter(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.ranges.iter().cloned()
    }

    /// Total shards covered (= the plan's shard count).
    pub fn shard_count(&self) -> usize {
        self.ranges.iter().map(std::ops::Range::len).sum()
    }
}

/// Renders one system's shard: its configuration snapshot, its disks'
/// lifecycle records and benign noise, and its failure cascades, in
/// chronological order.
///
/// The concatenation of every shard, re-sorted chronologically, is exactly
/// the monolithic corpus of [`crate::render_support_log_noisy`] — that
/// function is implemented on top of this one.
///
/// # Panics
///
/// Panics if `shard` is out of range for the plan.
pub fn render_system_log(
    fleet: &Fleet,
    output: &SimOutput,
    plan: &ShardPlan,
    shard: usize,
    style: CascadeStyle,
    noise: NoiseParams,
    noise_seed: u64,
) -> LogBook {
    let sys = &fleet.systems()[shard];
    let mut book = LogBook::new();

    // Configuration snapshot at install time.
    let t = sys.installed_at;
    book.push(LogLine::new(
        sys.id,
        t,
        LogEvent::CfgSystem {
            class: sys.class,
            disk_model: sys.disk_model,
            shelf_model: sys.shelf_model,
            paths: sys.path_config,
            layout: ssfa_model::LayoutPolicy::SpanShelves,
        },
    ));
    for &shelf_id in &sys.shelves {
        let shelf = fleet.shelf(shelf_id);
        book.push(LogLine::new(
            sys.id,
            t,
            LogEvent::CfgShelf {
                shelf: shelf.id,
                model: shelf.model,
                fc_loop: shelf.fc_loop,
                adapter: shelf.adapter,
                position: shelf.loop_position,
                bays: shelf.bays,
            },
        ));
    }
    for &rg_id in &sys.raid_groups {
        let rg = fleet.raid_group(rg_id);
        book.push(LogLine::new(
            sys.id,
            t,
            LogEvent::CfgRaidGroup {
                rg: rg.id,
                raid_type: rg.raid_type,
                slots: rg.slots.clone(),
            },
        ));
    }

    // Disk lifecycle records.
    let study_end = SimTime::study_end();
    for &i in &plan.disks[shard] {
        let disk = &output.disks()[i as usize];
        book.push(LogLine::new(
            disk.system,
            disk.installed_at,
            LogEvent::CfgDiskInstall {
                serial: disk.id.serial(),
                model: disk.model,
                slot: disk.slot,
                device: fleet.device_addr(disk.slot),
            },
        ));
        // End-of-study removals are not events — the study window just
        // closes; the classifier fills those in.
        if disk.removal_reason == RemovalReason::Failed && disk.removed_at < study_end {
            book.push(LogLine::new(
                disk.system,
                disk.removed_at,
                LogEvent::CfgDiskRemove {
                    serial: disk.id.serial(),
                    reason: "failed".into(),
                },
            ));
        }
    }

    // Benign noise, seeded per disk instance so every shard draws the same
    // noise lines the monolithic render would.
    let total_noise = noise.medium_errors_per_disk_year + noise.transient_timeouts_per_disk_year;
    if total_noise > 0.0 {
        let medium_share = noise.medium_errors_per_disk_year / total_noise;
        let rate_per_sec = total_noise / SECS_PER_YEAR as f64;
        for &i in &plan.disks[shard] {
            let disk = &output.disks()[i as usize];
            let mut rng = StdRng::seed_from_u64(derive(noise_seed ^ NOISE_STREAM, disk.id.0));
            let device = fleet.device_addr(disk.slot);
            let mut t = disk.installed_at;
            loop {
                let u: f64 = rng.gen();
                let gap = (-(1.0 - u).ln() / rate_per_sec).ceil().max(1.0);
                t += SimDuration::from_secs(gap as u64);
                if t >= disk.removed_at {
                    break;
                }
                let event = if rng.gen::<f64>() < medium_share {
                    LogEvent::DiskMediumError {
                        device,
                        sector: rng.gen::<u64>() % 976_773_168,
                    }
                } else {
                    LogEvent::FciDeviceTimeout { device }
                };
                book.push(LogLine::new(disk.system, t, event));
            }
        }
    }

    // Failure cascades, in the system's detection order.
    for &i in &plan.occurrences[shard] {
        let occ = &output.occurrences()[i as usize];
        let input = CascadeInput {
            host: occ.system,
            detected_at: occ.detected_at,
            failure_type: occ.failure_type,
            masked: occ.masked,
            device: occ.device,
            serial: occ.disk.serial(),
        };
        book.extend_lines(expand(&input, style));
    }

    book.sort_chronological();
    book
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::render::{render_support_log_noisy, NoiseParams};
    use ssfa_model::FleetConfig;
    use ssfa_sim::Simulator;

    fn small_run() -> (Fleet, SimOutput) {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), 33);
        let out = Simulator::default().run(&fleet, 33);
        (fleet, out)
    }

    fn one_system_run() -> (Fleet, SimOutput) {
        // `scaled` floors at one system per class, so a single retained
        // class at a vanishing factor is exactly one system.
        let config = FleetConfig::paper()
            .only_classes(&[ssfa_model::SystemClass::HighEnd])
            .scaled(1e-9);
        let fleet = Fleet::build(&config, 33);
        assert_eq!(fleet.systems().len(), 1);
        let out = Simulator::default().run(&fleet, 33);
        (fleet, out)
    }

    /// `ChunkPlan::whole` at both boundaries: zero shards plans zero
    /// chunks (an empty corpus has no work units, not one empty one), and
    /// any positive count plans exactly one covering chunk.
    #[test]
    fn whole_plan_handles_the_empty_corpus() {
        let empty = ChunkPlan::whole(0);
        assert_eq!(empty.chunk_count(), 0);
        assert_eq!(empty.shard_count(), 0);
        assert_eq!(empty.iter().count(), 0);

        let five = ChunkPlan::whole(5);
        assert_eq!(five.chunk_count(), 1);
        assert_eq!(five.shard_range(0), 0..5);
        assert_eq!(five.shard_count(), 5);
    }

    /// A shard whose estimate alone exceeds the byte budget must get a
    /// chunk of its own — never merge with a neighbor, never be skipped.
    /// A 1-byte target makes *every* shard oversized, so auto degenerates
    /// to the per-shard plan.
    #[test]
    fn oversize_shards_each_get_their_own_chunk() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        for shard in 0..plan.shard_count() {
            assert!(
                plan.estimated_shard_bytes(&fleet, shard, CascadeStyle::RaidOnly) > 1,
                "fixture shard {shard} too small to be oversized"
            );
        }
        let chunks = ChunkPlan::auto(&plan, &fleet, CascadeStyle::RaidOnly, 1);
        assert_eq!(chunks, ChunkPlan::per_shard(&plan));
        for range in chunks.iter() {
            assert_eq!(range.len(), 1);
        }
    }

    /// On a one-system fleet every policy — per-shard, fixed(1), auto at
    /// the default target, whole — is the same single-chunk plan.
    #[test]
    fn one_system_fleet_collapses_every_policy_to_one_chunk() {
        let (fleet, out) = one_system_run();
        let plan = ShardPlan::new(&fleet, &out);
        assert_eq!(plan.shard_count(), 1);
        let per_shard = ChunkPlan::per_shard(&plan);
        for chunks in [
            ChunkPlan::fixed(&plan, 1),
            ChunkPlan::auto(
                &plan,
                &fleet,
                CascadeStyle::RaidOnly,
                DEFAULT_CHUNK_TARGET_BYTES,
            ),
            ChunkPlan::auto(&plan, &fleet, CascadeStyle::RaidOnly, 1),
            ChunkPlan::whole(plan.shard_count()),
        ] {
            assert_eq!(chunks, per_shard);
            assert_eq!(chunks.chunk_count(), 1);
            assert_eq!(chunks.shard_range(0), 0..1);
        }
    }

    #[test]
    fn plan_partitions_everything_exactly_once() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        assert_eq!(plan.shard_count(), fleet.systems().len());
        let disk_total: usize = plan.disks.iter().map(Vec::len).sum();
        let occ_total: usize = plan.occurrences.iter().map(Vec::len).sum();
        assert_eq!(disk_total, out.disks().len());
        assert_eq!(occ_total, out.occurrences().len());
    }

    #[test]
    fn shards_concatenate_to_the_monolithic_corpus() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        let noise = NoiseParams::realistic();
        let mono = render_support_log_noisy(&fleet, &out, CascadeStyle::Full, noise, 5);
        let mut concat = LogBook::new();
        for shard in 0..plan.shard_count() {
            let piece = render_system_log(&fleet, &out, &plan, shard, CascadeStyle::Full, noise, 5);
            concat.extend_lines(piece.iter().cloned());
        }
        concat.sort_chronological();
        assert_eq!(concat, mono);
    }

    #[test]
    fn each_shard_is_classifiable_in_isolation() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        for shard in 0..plan.shard_count() {
            let book = render_system_log(
                &fleet,
                &out,
                &plan,
                shard,
                CascadeStyle::Full,
                NoiseParams::none(),
                0,
            );
            let partial = classify(&book).expect("shard is self-contained");
            assert_eq!(partial.topology.systems.len(), 1);
        }
    }

    #[test]
    fn merged_shard_classification_equals_monolithic() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        let mono = render_support_log_noisy(
            &fleet,
            &out,
            CascadeStyle::RaidOnly,
            NoiseParams::realistic(),
            11,
        );
        let expected = classify(&mono).unwrap();
        let mut merged = crate::AnalysisInput::default();
        for shard in 0..plan.shard_count() {
            let book = render_system_log(
                &fleet,
                &out,
                &plan,
                shard,
                CascadeStyle::RaidOnly,
                NoiseParams::realistic(),
                11,
            );
            merged.absorb(classify(&book).unwrap());
        }
        merged.canonicalize();
        assert_eq!(merged, expected);
    }

    #[test]
    fn chunk_plans_partition_shards_contiguously() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        let n = plan.shard_count();
        for chunks in [
            ChunkPlan::per_shard(&plan),
            ChunkPlan::fixed(&plan, 3),
            ChunkPlan::fixed(&plan, usize::MAX),
            ChunkPlan::auto(&plan, &fleet, CascadeStyle::RaidOnly, 8 * 1024),
            ChunkPlan::auto(
                &plan,
                &fleet,
                CascadeStyle::RaidOnly,
                DEFAULT_CHUNK_TARGET_BYTES,
            ),
        ] {
            assert_eq!(chunks.shard_count(), n, "{chunks:?}");
            let mut next = 0;
            for range in chunks.iter() {
                assert_eq!(range.start, next, "chunks must be contiguous: {chunks:?}");
                assert!(!range.is_empty(), "empty chunk in {chunks:?}");
                next = range.end;
            }
            assert_eq!(next, n);
        }
        assert_eq!(ChunkPlan::per_shard(&plan).chunk_count(), n);
        assert_eq!(ChunkPlan::fixed(&plan, usize::MAX).chunk_count(), 1);
    }

    #[test]
    fn auto_chunks_respect_the_byte_target() {
        let (fleet, out) = small_run();
        let plan = ShardPlan::new(&fleet, &out);
        let target = 16 * 1024;
        let chunks = ChunkPlan::auto(&plan, &fleet, CascadeStyle::RaidOnly, target);
        assert!(
            chunks.chunk_count() > 1,
            "target small enough to split this fleet"
        );
        for range in chunks.iter() {
            let est: usize = range
                .clone()
                .map(|s| plan.estimated_shard_bytes(&fleet, s, CascadeStyle::RaidOnly))
                .sum();
            // A chunk may overshoot by at most its last shard (greedy close).
            let last = plan.estimated_shard_bytes(&fleet, range.end - 1, CascadeStyle::RaidOnly);
            assert!(
                range.len() == 1 || est <= target + last,
                "chunk {range:?} estimated {est} bytes vs target {target}"
            );
        }
    }
}
