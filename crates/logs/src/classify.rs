//! The analysis-side classifier: re-derives topology, disk lifetimes, and
//! typed failure records from a log corpus.
//!
//! This is the study's methodology as code. The classifier never sees
//! simulator ground truth; it reads the same artifacts the paper's authors
//! had — configuration snapshots and event lines — and "by keeping track of
//! events generated by lower layers" recognizes the RAID-layer events that
//! tag each storage subsystem failure with its type (paper §2.5).

use std::collections::BTreeMap;

use ssfa_model::{
    DeviceAddr, DiskInstanceId, DiskModelId, FailureRecord, FailureType, HashIndex, LayoutPolicy,
    LoopId, PathConfig, RaidGroupId, RaidType, ShelfId, ShelfModel, SimTime, SlotAddr, SystemClass,
    SystemId,
};

use crate::corpus::{is_blank_line, LogBook, LogError};
use crate::event::LogLine;
use crate::view::{EventRef, LogLineRef};

/// How the classifier treats bad lines.
///
/// Real support corpora are lossy — truncated uploads, garbled lines,
/// references to devices no configuration record declared. [`Strictness`]
/// decides whether such a line aborts classification or is skipped and
/// counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strictness {
    /// Fail fast: the first [`LogError::Malformed`] or
    /// [`LogError::MissingTopology`] aborts classification. This is the
    /// original behavior and remains the default.
    #[default]
    Strict,
    /// Skip-and-count: malformed lines and unresolvable topology
    /// references are skipped, each tallied by kind in [`ShardHealth`].
    /// I/O errors still propagate — losing the byte stream itself is not
    /// a data-quality problem the classifier can account for.
    Lenient,
}

/// Per-classifier data-quality tally: what was fed and what was skipped.
///
/// In [`Strictness::Strict`] mode the skip counters stay zero (the first
/// skippable error aborts instead). Healths from per-shard classifiers
/// [`merge`](ShardHealth::merge) into a run-level total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Complete non-blank lines fed (parsed or skipped).
    pub lines_seen: u64,
    /// Lines skipped because they were not valid UTF-8 or failed to parse.
    pub malformed_skipped: u64,
    /// Lines skipped because they referenced a device, shelf, RAID group,
    /// or serial no configuration record declared.
    pub missing_topology_skipped: u64,
}

impl ShardHealth {
    /// Total lines skipped for any reason.
    pub fn skipped_total(&self) -> u64 {
        self.malformed_skipped + self.missing_topology_skipped
    }

    /// Whether every line fed was ingested.
    pub fn is_clean(&self) -> bool {
        self.skipped_total() == 0
    }

    /// Folds another classifier's tally into this one.
    pub fn merge(&mut self, other: &ShardHealth) {
        self.lines_seen += other.lines_seen;
        self.malformed_skipped += other.malformed_skipped;
        self.missing_topology_skipped += other.missing_topology_skipped;
    }
}

/// System-level metadata recovered from `cfg.system` records.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemMeta {
    /// Capability class.
    pub class: SystemClass,
    /// Disk model populated throughout the system.
    pub disk_model: DiskModelId,
    /// Shelf enclosure model.
    pub shelf_model: ShelfModel,
    /// Single or dual paths.
    pub paths: PathConfig,
    /// RAID layout policy.
    pub layout: LayoutPolicy,
    /// Install time (timestamp of the `cfg.system` record).
    pub installed_at: SimTime,
}

/// Shelf metadata recovered from `cfg.shelf` records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShelfMeta {
    /// Owning system.
    pub system: SystemId,
    /// Enclosure model.
    pub model: ShelfModel,
    /// FC loop.
    pub fc_loop: LoopId,
    /// Populated bays.
    pub bays: u8,
}

/// RAID-group metadata recovered from `cfg.raidgroup` records.
#[derive(Debug, Clone, PartialEq)]
pub struct RaidGroupMeta {
    /// Owning system.
    pub system: SystemId,
    /// RAID level.
    pub raid_type: RaidType,
}

/// The fleet topology as recovered from configuration records.
///
/// Every map is a [`BTreeMap`], not a `HashMap`: analysis code iterates
/// these (AFR denominators, per-shelf tallies), and iteration order must
/// not depend on hasher seeds or insertion history for report output to be
/// byte-identical across shardings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    /// Systems by id.
    pub systems: BTreeMap<SystemId, SystemMeta>,
    /// Shelves by id.
    pub shelves: BTreeMap<ShelfId, ShelfMeta>,
    /// RAID groups by id.
    pub raid_groups: BTreeMap<RaidGroupId, RaidGroupMeta>,
}

/// Shelves, counted from the first one a classifier saw, that get a dense
/// slot → RAID-group row. A shelf further away, or below the first, is
/// kept in the spill map.
const DENSE_SHELVES: u64 = 1024;
/// Bays per dense shelf row. Every shelf model in the study has 14 bays;
/// a bay at or past this stride is kept in the spill map.
const DENSE_BAYS: u8 = 16;
/// Systems, counted from the first one a classifier saw, that get a
/// dense device table. Others are kept in the spill map.
const DENSE_SYSTEMS: u64 = 1024;
/// Adapters per system that get a dense target table; an adapter first
/// seen after this many is kept in the spill map.
const DENSE_ADAPTERS: usize = 16;

/// The dense slot of `id` in a table based at the first id seen: `id −
/// base` when that is below `cap`, else `None` (the spill), as it is for
/// ids below the base and before any base exists.
#[inline]
fn dense_offset(base: Option<u64>, id: u64, cap: u64) -> Option<usize> {
    let offset = id.checked_sub(base?)?;
    (offset < cap).then_some(offset as usize)
}

/// The classifier's placement index: device → slot → RAID group, the
/// lookups that place each RAID-layer event in its subsystem (paper
/// §2.5). Only classification reads it, so it lives and dies with the
/// [`Classifier`] and never reaches an [`AnalysisInput`].
///
/// Both lookups are dense tables over ids offset from the first id seen,
/// because a classifier is fed contiguous systems (a chunk, or one frame)
/// whose fleet-assigned ids are contiguous too. Each table grows only to
/// the highest offset written. Ids past a fixed cap, or below the first,
/// go to an ordered spill map instead, so a table never outgrows its cap
/// however far apart the ids are: hostile ids cost time, never memory
/// (DESIGN §13.5). A key's home never moves, so every write still
/// replaces the last one for its key, as a map's would.
#[derive(Debug, Default)]
struct Placement {
    /// Slot → RAID group membership.
    slot_to_group: SlotGroups,
    /// (system, device address) → slot.
    device_to_slot: DeviceSlots,
}

/// Slot → RAID group: row `shelf − base`, column `bay`.
#[derive(Debug, Default)]
struct SlotGroups {
    /// The first shelf seen; rows are offsets from it.
    base: Option<u64>,
    /// Row-major `(shelf − base) × DENSE_BAYS + bay`.
    dense: Vec<Option<RaidGroupId>>,
    /// Slots outside the dense rows.
    spill: BTreeMap<SlotAddr, RaidGroupId>,
}

impl SlotGroups {
    /// The dense index of `slot`, or `None` when it lives in the spill.
    #[inline]
    fn index(&self, slot: SlotAddr) -> Option<usize> {
        let row = dense_offset(self.base, slot.shelf.0.into(), DENSE_SHELVES)?;
        (slot.bay < DENSE_BAYS).then(|| row * DENSE_BAYS as usize + slot.bay as usize)
    }

    fn insert(&mut self, slot: SlotAddr, rg: RaidGroupId) {
        self.base.get_or_insert(slot.shelf.0.into());
        match self.index(slot) {
            Some(i) => {
                if i >= self.dense.len() {
                    // Whole rows, so one shelf's bays grow the table once.
                    let row_end = (i / DENSE_BAYS as usize + 1) * DENSE_BAYS as usize;
                    self.dense.resize(row_end, None);
                }
                self.dense[i] = Some(rg);
            }
            None => {
                self.spill.insert(slot, rg);
            }
        }
    }

    #[inline]
    fn get(&self, slot: SlotAddr) -> Option<RaidGroupId> {
        match self.index(slot) {
            Some(i) => self.dense.get(i).copied().flatten(),
            None => self.spill.get(&slot).copied(),
        }
    }
}

/// (system, adapter, target) → slot, keyed by system first: the
/// monolithic corpus interleaves systems line by line, and a per-system
/// table keeps each system's devices apart whatever the line order.
#[derive(Debug, Default)]
struct DeviceSlots {
    /// The first system seen; `systems` is indexed by offsets from it.
    base: Option<u64>,
    /// Per system offset, its adapters in first-seen order.
    systems: Vec<Vec<AdapterTargets>>,
    /// Devices outside the dense tables.
    spill: BTreeMap<(SystemId, DeviceAddr), SlotAddr>,
}

/// One adapter's targets → slot, grown to the highest target written.
#[derive(Debug)]
struct AdapterTargets {
    adapter: u8,
    targets: Vec<Option<SlotAddr>>,
}

impl DeviceSlots {
    /// The dense offset of `host`, or `None` when it lives in the spill.
    #[inline]
    fn offset(&self, host: SystemId) -> Option<usize> {
        dense_offset(self.base, host.0.into(), DENSE_SYSTEMS)
    }

    fn insert(&mut self, host: SystemId, device: DeviceAddr, slot: SlotAddr) {
        self.base.get_or_insert(host.0.into());
        let Some(offset) = self.offset(host) else {
            self.spill.insert((host, device), slot);
            return;
        };
        if offset >= self.systems.len() {
            self.systems.resize_with(offset + 1, Vec::new);
        }
        let adapters = &mut self.systems[offset];
        let lane = match adapters.iter().position(|a| a.adapter == device.adapter) {
            Some(lane) => lane,
            None if adapters.len() < DENSE_ADAPTERS => {
                adapters.push(AdapterTargets {
                    adapter: device.adapter,
                    targets: Vec::new(),
                });
                adapters.len() - 1
            }
            // Lanes are never removed, so an adapter that finds them
            // full now always will: its devices stay in the spill.
            None => {
                self.spill.insert((host, device), slot);
                return;
            }
        };
        let targets = &mut adapters[lane].targets;
        let t = device.target as usize;
        if t >= targets.len() {
            targets.resize(t + 1, None);
        }
        targets[t] = Some(slot);
    }

    #[inline]
    fn get(&self, host: SystemId, device: DeviceAddr) -> Option<SlotAddr> {
        let dense = self
            .offset(host)
            .and_then(|offset| self.systems.get(offset))
            .and_then(|adapters| adapters.iter().find(|a| a.adapter == device.adapter));
        match dense {
            Some(lane) => lane.targets.get(device.target as usize).copied().flatten(),
            None => self.spill.get(&(host, device)).copied(),
        }
    }
}

/// Disk instances, counted from the first one a classifier saw, that get
/// a dense open-lifetime entry. Replacement disks, whose ids the fleet
/// assigns after every initial disk, usually land in the spill.
const DENSE_DISKS: u64 = 16 * 1024;

/// Open lifetimes: disk instance → index into the classifier's
/// `lifetimes`, dense over ids offset from the first disk seen, with a
/// hash spill for the rest (the same home-never-moves rule as
/// [`Placement`]).
#[derive(Debug, Default)]
struct OpenDisks {
    /// The first disk seen; `dense` is indexed by offsets from it.
    base: Option<u64>,
    /// Lifetime index per offset; `usize::MAX` when closed or never open.
    dense: Vec<usize>,
    /// Disks outside the dense range.
    spill: HashIndex<DiskInstanceId, usize>,
}

impl OpenDisks {
    #[inline]
    fn offset(&self, disk: DiskInstanceId) -> Option<usize> {
        dense_offset(self.base, disk.0, DENSE_DISKS)
    }

    fn insert(&mut self, disk: DiskInstanceId, lifetime: usize) {
        self.base.get_or_insert(disk.0);
        match self.offset(disk) {
            Some(i) => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, usize::MAX);
                }
                self.dense[i] = lifetime;
            }
            None => {
                self.spill.insert(disk, lifetime);
            }
        }
    }

    fn remove(&mut self, disk: DiskInstanceId) -> Option<usize> {
        match self.offset(disk) {
            Some(i) => {
                let entry = self.dense.get_mut(i)?;
                let lifetime = std::mem::replace(entry, usize::MAX);
                (lifetime != usize::MAX).then_some(lifetime)
            }
            None => self.spill.remove(&disk),
        }
    }
}

impl Placement {
    /// The RAID group a slot belongs to.
    fn group_of(&self, slot: SlotAddr) -> Result<RaidGroupId, LogError> {
        self.slot_to_group
            .get(slot)
            .ok_or_else(|| LogError::MissingTopology {
                what: format!("raid group of {slot}"),
            })
    }

    /// Resolves the placement of a device within a system.
    fn resolve(
        &self,
        shelves: &BTreeMap<ShelfId, ShelfMeta>,
        host: SystemId,
        device: DeviceAddr,
    ) -> Result<(SlotAddr, RaidGroupId, LoopId), LogError> {
        let slot =
            self.device_to_slot
                .get(host, device)
                .ok_or_else(|| LogError::MissingTopology {
                    what: format!("device {device} on sys-{}", host.0),
                })?;
        let rg = self.group_of(slot)?;
        let shelf = shelves
            .get(&slot.shelf)
            .ok_or_else(|| LogError::MissingTopology {
                what: format!("shelf {}", slot.shelf),
            })?;
        Ok((slot, rg, shelf.fc_loop))
    }
}

/// One disk instance's recovered service record.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskLifetime {
    /// Instance id (decoded from the serial number).
    pub disk: DiskInstanceId,
    /// Product model.
    pub model: DiskModelId,
    /// Slot occupied.
    pub slot: SlotAddr,
    /// Owning system.
    pub system: SystemId,
    /// RAID group membership.
    pub raid_group: RaidGroupId,
    /// When the instance entered service.
    pub installed_at: SimTime,
    /// When it left service (`None` while open; closed at study end by
    /// [`classify`]).
    pub removed_at: SimTime,
    /// Whether the removal was a failure (`reason=failed`).
    pub removed_by_failure: bool,
}

impl DiskLifetime {
    /// Service time in years.
    pub fn service_years(&self) -> f64 {
        self.removed_at.duration_since(self.installed_at).as_years()
    }
}

/// Everything the analysis needs, recovered purely from logs.
///
/// The `lifetimes` and `failures` vectors are in **canonical order**
/// (lifetimes by `(installed_at, disk)`, failures by
/// [`FailureRecord::chronological`]), so two `AnalysisInput`s recovered
/// from the same fleet history compare equal regardless of how the corpus
/// was sharded or which order the shards were classified in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisInput {
    /// Recovered topology.
    pub topology: Topology,
    /// Recovered per-disk lifetimes.
    pub lifetimes: Vec<DiskLifetime>,
    /// Recovered, classified storage subsystem failures (RAID-layer events
    /// only — masked failures never appear).
    pub failures: Vec<FailureRecord>,
}

impl AnalysisInput {
    /// Total exposure in disk-years.
    pub fn total_disk_years(&self) -> f64 {
        self.lifetimes.iter().map(DiskLifetime::service_years).sum()
    }

    /// Re-establishes canonical ordering after construction or merging.
    ///
    /// Idempotent; a fold of partials ([`AnalysisInput::absorb`]) calls it
    /// once at the end.
    pub fn canonicalize(&mut self) {
        // Both sorts are stable. Failure keys can tie (one disk, two RAID
        // events in the same scrub hour), but tied records always come
        // from a single system's shard, where every classification order
        // preserves their relative corpus order — so stability makes the
        // result path-independent.
        self.lifetimes.sort_by(|a, b| {
            a.installed_at
                .cmp(&b.installed_at)
                .then(a.disk.cmp(&b.disk))
        });
        self.failures.sort_by(FailureRecord::chronological);
    }

    /// Folds one partial into this accumulator *without* re-establishing
    /// canonical order: topology maps union, lifetimes and failures
    /// append. Absorb each partial as it arrives (in shard order), then
    /// call [`AnalysisInput::canonicalize`] once at the end; for shards
    /// produced by [`crate::shard::render_system_log`], the result is
    /// bit-identical to classifying the monolithic corpus.
    pub fn absorb(&mut self, partial: AnalysisInput) {
        self.topology.systems.extend(partial.topology.systems);
        self.topology.shelves.extend(partial.topology.shelves);
        self.topology
            .raid_groups
            .extend(partial.topology.raid_groups);
        self.lifetimes.extend(partial.lifetimes);
        self.failures.extend(partial.failures);
    }
}

/// Classifies a corpus: builds topology from `cfg.*` records, tracks disk
/// install/remove lifecycles, and turns each RAID-layer event into a typed
/// [`FailureRecord`].
///
/// Lifetimes still open at the end of the corpus are closed at the study
/// end. Lines may appear in any order as long as a device's configuration
/// records precede its failure events chronologically (which
/// [`LogBook::sort_chronological`] guarantees for rendered corpora).
///
/// # Errors
///
/// Returns [`LogError::MissingTopology`] when an event references a device,
/// shelf, or RAID group no configuration record declared.
pub fn classify(book: &LogBook) -> Result<AnalysisInput, LogError> {
    let mut classifier = Classifier::new();
    classifier.feed_book(book)?;
    classifier.finish()
}

/// An incremental classifier: the state machine behind [`classify`],
/// exposed so corpora can be processed shard by shard — or byte chunk by
/// byte chunk — in bounded memory.
///
/// Feed it complete [`LogLine`]s ([`Classifier::feed_line`] /
/// [`Classifier::feed_book`]) or raw text fragments that may split lines
/// at arbitrary byte positions ([`Classifier::feed_bytes`]); then call
/// [`Classifier::finish`] for the [`AnalysisInput`]. Feeding the shards of
/// one fleet history in any grouping produces partials whose fold
/// ([`AnalysisInput::absorb`], then [`AnalysisInput::canonicalize`]) is
/// bit-identical to one classifier fed the monolithic corpus.
#[derive(Debug, Default)]
pub struct Classifier {
    topology: Topology,
    /// Device → slot → RAID group lookups; dropped at finish.
    placement: Placement,
    lifetimes: Vec<DiskLifetime>,
    /// Lifetimes not yet closed by a removal.
    open: OpenDisks,
    failures: Vec<FailureRecord>,
    /// Partial trailing line carried between [`Classifier::feed_bytes`]
    /// calls.
    tail: Vec<u8>,
    /// 1-based number of the next text line, for error reporting.
    line_no: usize,
    /// Error policy: fail fast or skip-and-count.
    strictness: Strictness,
    /// Data-quality tally (skip counters stay zero in strict mode).
    health: ShardHealth,
}

impl Classifier {
    /// A strict classifier with no corpus fed yet.
    pub fn new() -> Classifier {
        Classifier::default()
    }

    /// A classifier with an explicit error policy.
    pub fn with_strictness(strictness: Strictness) -> Classifier {
        Classifier {
            strictness,
            ..Classifier::default()
        }
    }

    /// A skip-and-count classifier
    /// ([`Classifier::with_strictness`]`(Strictness::Lenient)`).
    pub fn lenient() -> Classifier {
        Classifier::with_strictness(Strictness::Lenient)
    }

    /// The error policy in effect.
    pub fn strictness(&self) -> Strictness {
        self.strictness
    }

    /// The data-quality tally so far (final totals come from
    /// [`Classifier::finish_with_health`]).
    pub fn health(&self) -> ShardHealth {
        self.health
    }

    /// Applies the strictness policy to a feed error: lenient mode counts
    /// skippable kinds and swallows them; everything else propagates.
    fn absorb(&mut self, err: LogError) -> Result<(), LogError> {
        match (self.strictness, &err) {
            (Strictness::Lenient, LogError::Malformed { .. }) => {
                self.health.malformed_skipped += 1;
                Ok(())
            }
            (Strictness::Lenient, LogError::MissingTopology { .. }) => {
                self.health.missing_topology_skipped += 1;
                Ok(())
            }
            _ => Err(err),
        }
    }

    /// Feeds one parsed line.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::MissingTopology`] when the line references a
    /// device, shelf, or RAID group no earlier configuration record
    /// declared.
    pub fn feed_line(&mut self, line: &LogLine) -> Result<(), LogError> {
        self.feed_view(&LogLineRef::from_owned(line))
    }

    /// Feeds one borrowed line view — the zero-copy twin of
    /// [`Classifier::feed_line`], which delegates here, so both feed paths
    /// share one state machine. Only state-changing records (installs,
    /// topology, failures) copy their strings into owned storage; noise
    /// events cost no allocation at all (`tests/parse_allocs.rs`).
    ///
    /// # Errors
    ///
    /// As for [`Classifier::feed_line`].
    pub fn feed_view(&mut self, line: &LogLineRef<'_>) -> Result<(), LogError> {
        let Classifier {
            topology,
            placement,
            lifetimes,
            open,
            failures,
            ..
        } = self;
        match &line.event {
            EventRef::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => {
                topology.systems.insert(
                    line.host,
                    SystemMeta {
                        class: *class,
                        disk_model: *disk_model,
                        shelf_model: *shelf_model,
                        paths: *paths,
                        layout: *layout,
                        installed_at: line.at,
                    },
                );
            }
            EventRef::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => {
                topology.shelves.insert(
                    *shelf,
                    ShelfMeta {
                        system: line.host,
                        model: *model,
                        fc_loop: *fc_loop,
                        bays: *bays,
                    },
                );
                // Pre-register the device address of every bay of this
                // shelf. Targets are `u8`: a position past 15 wraps.
                for bay in 0..*bays {
                    let target = position.wrapping_mul(16).wrapping_add(bay);
                    placement.device_to_slot.insert(
                        line.host,
                        DeviceAddr::new(*adapter, target),
                        SlotAddr { shelf: *shelf, bay },
                    );
                }
            }
            EventRef::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => {
                for slot in slots.iter() {
                    placement.slot_to_group.insert(slot, *rg);
                }
                topology.raid_groups.insert(
                    *rg,
                    RaidGroupMeta {
                        system: line.host,
                        raid_type: *raid_type,
                    },
                );
            }
            EventRef::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => {
                let disk = DiskInstanceId::from_serial(serial).ok_or_else(|| {
                    LogError::MissingTopology {
                        what: format!("serial {serial}"),
                    }
                })?;
                placement.device_to_slot.insert(line.host, *device, *slot);
                let rg = placement.group_of(*slot)?;
                open.insert(disk, lifetimes.len());
                lifetimes.push(DiskLifetime {
                    disk,
                    model: *model,
                    slot: *slot,
                    system: line.host,
                    raid_group: rg,
                    installed_at: line.at,
                    removed_at: SimTime::study_end(),
                    removed_by_failure: false,
                });
            }
            EventRef::CfgDiskRemove { serial, reason } => {
                let disk = DiskInstanceId::from_serial(serial).ok_or_else(|| {
                    LogError::MissingTopology {
                        what: format!("serial {serial}"),
                    }
                })?;
                if let Some(idx) = open.remove(disk) {
                    lifetimes[idx].removed_at = line.at;
                    lifetimes[idx].removed_by_failure = *reason == "failed";
                }
            }
            EventRef::RaidDiskMissing { device, serial }
            | EventRef::RaidDiskFailed { device, serial }
            | EventRef::RaidProtocolError { device, serial }
            | EventRef::RaidDiskSlow { device, serial } => {
                let failure_type = match &line.event {
                    EventRef::RaidDiskMissing { .. } => FailureType::PhysicalInterconnect,
                    EventRef::RaidDiskFailed { .. } => FailureType::Disk,
                    EventRef::RaidProtocolError { .. } => FailureType::Protocol,
                    EventRef::RaidDiskSlow { .. } => FailureType::Performance,
                    _ => unreachable!("outer match narrows to RAID events"),
                };
                let disk = DiskInstanceId::from_serial(serial).ok_or_else(|| {
                    LogError::MissingTopology {
                        what: format!("serial {serial}"),
                    }
                })?;
                let (slot, raid_group, fc_loop) =
                    placement.resolve(&topology.shelves, line.host, *device)?;
                failures.push(FailureRecord {
                    detected_at: line.at,
                    failure_type,
                    disk,
                    system: line.host,
                    shelf: slot.shelf,
                    raid_group,
                    fc_loop,
                    device: *device,
                });
            }
            // Lower-layer noise carries no classification weight; the RAID
            // layer has already integrated it (paper §2.5).
            _ => {}
        }
        Ok(())
    }

    /// Feeds every line of a parsed corpus, in corpus order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Classifier::feed_line`] error (in lenient
    /// mode, skippable errors are counted instead).
    pub fn feed_book(&mut self, book: &LogBook) -> Result<(), LogError> {
        for line in book {
            self.health.lines_seen += 1;
            if let Err(err) = self.feed_line(line) {
                self.absorb(err)?;
            }
        }
        Ok(())
    }

    /// Feeds a raw text fragment. Fragments may split a line — or a
    /// multi-byte UTF-8 character — at any byte position; the partial tail
    /// is buffered until its newline arrives (or [`Classifier::finish`]
    /// flushes it, covering shards without a trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for unparseable or non-UTF-8
    /// complete lines.
    pub fn feed_bytes(&mut self, chunk: &[u8]) -> Result<(), LogError> {
        // Validating the whole chunk up front lets the common case split
        // lines as `&str` (`find('\n')` lowers to `memchr`) and skip the
        // per-line UTF-8 check. A chunk with any invalid sequence takes
        // the per-line byte path, which localizes the rejection to the
        // offending line exactly as before.
        if let Ok(text) = std::str::from_utf8(chunk) {
            let mut rest = text;
            while let Some(nl) = rest.find('\n') {
                let head = &rest[..nl];
                rest = &rest[nl + 1..];
                if self.tail.is_empty() {
                    self.feed_str_line(head)?;
                } else {
                    self.feed_joined_tail(head.as_bytes())?;
                }
            }
            self.tail.extend_from_slice(rest.as_bytes());
            return Ok(());
        }
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, after) = rest.split_at(nl);
            rest = &after[1..];
            if self.tail.is_empty() {
                self.feed_raw_line(head)?;
            } else {
                self.feed_joined_tail(head)?;
            }
        }
        self.tail.extend_from_slice(rest);
        Ok(())
    }

    /// Completes the buffered partial tail with `head` and feeds the
    /// joined line, reusing the tail's allocation: take it out, complete
    /// the line, feed, then hand the cleared buffer back so the next
    /// split line costs no fresh allocation. The joined line re-validates
    /// as UTF-8 (the split may have landed mid-character).
    fn feed_joined_tail(&mut self, head: &[u8]) -> Result<(), LogError> {
        let mut scratch = std::mem::take(&mut self.tail);
        scratch.extend_from_slice(head);
        let result = self.feed_raw_line(&scratch);
        scratch.clear();
        self.tail = scratch;
        result
    }

    /// Parses and feeds one complete raw text line (no newline).
    fn feed_raw_line(&mut self, raw: &[u8]) -> Result<(), LogError> {
        match std::str::from_utf8(raw) {
            Ok(text) => self.feed_str_line(text),
            // Invalid UTF-8 is never all-ASCII-whitespace, so the line
            // counts as seen and malformed, same as an unparseable one.
            Err(_) => {
                self.line_no += 1;
                self.health.lines_seen += 1;
                let err = LogError::malformed(self.line_no, raw);
                self.absorb(err)
            }
        }
    }

    /// Parses and feeds one complete, already-validated text line.
    fn feed_str_line(&mut self, raw: &str) -> Result<(), LogError> {
        self.line_no += 1;
        if is_blank_line(raw.as_bytes()) {
            return Ok(());
        }
        self.health.lines_seen += 1;
        let result = match LogLineRef::parse(raw) {
            Some(view) => self.feed_view(&view),
            None => Err(LogError::malformed(self.line_no, raw.as_bytes())),
        };
        match result {
            Ok(()) => Ok(()),
            Err(err) => self.absorb(err),
        }
    }

    /// Flushes any buffered partial line as a complete line — the
    /// *file-boundary* marker for feeding several shard files through one
    /// classifier. A shard file that ends without a trailing newline (a
    /// truncated upload, say) ends at its EOF; without the flush its
    /// partial last line would glue onto the first line of the next shard
    /// fed, silently changing what both lines parse as. Call this after
    /// each file's bytes; [`Classifier::finish`] calls it implicitly for
    /// the last one.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if the flushed partial line fails
    /// to parse — in strict mode; lenient mode counts it like any other
    /// skip.
    pub fn flush_tail(&mut self) -> Result<(), LogError> {
        if !self.tail.is_empty() {
            let mut scratch = std::mem::take(&mut self.tail);
            let result = self.feed_raw_line(&scratch);
            scratch.clear();
            self.tail = scratch;
            result?;
        }
        Ok(())
    }

    /// Flushes any buffered partial line, canonicalizes, and returns the
    /// recovered [`AnalysisInput`]. The placement index is dropped here:
    /// nothing after classification reads it.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if a buffered final line (one with
    /// no trailing newline) fails to parse — in strict mode; lenient mode
    /// counts it like any other skip.
    pub fn finish(self) -> Result<AnalysisInput, LogError> {
        self.finish_with_health().map(|(input, _)| input)
    }

    /// [`Classifier::finish`], also returning the data-quality tally.
    ///
    /// # Errors
    ///
    /// Same as [`Classifier::finish`].
    pub fn finish_with_health(mut self) -> Result<(AnalysisInput, ShardHealth), LogError> {
        self.flush_tail()?;
        let mut input = AnalysisInput {
            topology: self.topology,
            lifetimes: self.lifetimes,
            failures: self.failures,
        };
        input.canonicalize();
        Ok((input, self.health))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LogEvent, LogLine};

    fn cfg_lines() -> Vec<LogLine> {
        let host = SystemId(1);
        let t0 = SimTime::from_secs(1_000_000);
        vec![
            LogLine::new(
                host,
                t0,
                LogEvent::CfgSystem {
                    class: SystemClass::LowEnd,
                    disk_model: DiskModelId::new('D', 2),
                    shelf_model: ShelfModel::A,
                    paths: PathConfig::SinglePath,
                    layout: LayoutPolicy::SpanShelves,
                },
            ),
            LogLine::new(
                host,
                t0,
                LogEvent::CfgShelf {
                    shelf: ShelfId(10),
                    model: ShelfModel::A,
                    fc_loop: LoopId(5),
                    adapter: 8,
                    position: 1,
                    bays: 2,
                },
            ),
            LogLine::new(
                host,
                t0,
                LogEvent::CfgRaidGroup {
                    rg: RaidGroupId(3),
                    raid_type: RaidType::Raid4,
                    slots: vec![
                        SlotAddr {
                            shelf: ShelfId(10),
                            bay: 0,
                        },
                        SlotAddr {
                            shelf: ShelfId(10),
                            bay: 1,
                        },
                    ],
                },
            ),
            LogLine::new(
                host,
                t0,
                LogEvent::CfgDiskInstall {
                    serial: DiskInstanceId(100).serial(),
                    model: DiskModelId::new('D', 2),
                    slot: SlotAddr {
                        shelf: ShelfId(10),
                        bay: 0,
                    },
                    device: DeviceAddr::new(8, 16),
                },
            ),
        ]
    }

    #[test]
    fn classify_builds_topology_and_lifetimes() {
        let book: LogBook = cfg_lines().into_iter().collect();
        let input = classify(&book).unwrap();
        assert_eq!(input.topology.systems.len(), 1);
        assert_eq!(input.topology.shelves.len(), 1);
        assert_eq!(input.topology.raid_groups.len(), 1);
        assert_eq!(input.lifetimes.len(), 1);
        let lt = &input.lifetimes[0];
        assert_eq!(lt.disk, DiskInstanceId(100));
        assert_eq!(lt.removed_at, SimTime::study_end());
        assert!(!lt.removed_by_failure);
        assert!(input.failures.is_empty());
    }

    #[test]
    fn raid_events_become_typed_failure_records() {
        let mut lines = cfg_lines();
        let host = SystemId(1);
        lines.push(LogLine::new(
            host,
            SimTime::from_secs(2_000_000),
            LogEvent::RaidDiskMissing {
                device: DeviceAddr::new(8, 16),
                serial: DiskInstanceId(100).serial(),
            },
        ));
        lines.push(LogLine::new(
            host,
            SimTime::from_secs(3_000_000),
            LogEvent::RaidDiskSlow {
                device: DeviceAddr::new(8, 16),
                serial: DiskInstanceId(100).serial(),
            },
        ));
        let book: LogBook = lines.into_iter().collect();
        let input = classify(&book).unwrap();
        assert_eq!(input.failures.len(), 2);
        assert_eq!(
            input.failures[0].failure_type,
            FailureType::PhysicalInterconnect
        );
        assert_eq!(input.failures[0].shelf, ShelfId(10));
        assert_eq!(input.failures[0].raid_group, RaidGroupId(3));
        assert_eq!(input.failures[0].fc_loop, LoopId(5));
        assert_eq!(input.failures[1].failure_type, FailureType::Performance);
    }

    /// Folding is independent of partial order even when install times
    /// tie across partials: canonical order breaks the tie by disk.
    #[test]
    fn merge_breaks_install_time_ties_by_disk() {
        let partial = |disk: u64| AnalysisInput {
            lifetimes: vec![DiskLifetime {
                disk: DiskInstanceId(disk),
                model: DiskModelId::new('D', 2),
                slot: SlotAddr {
                    shelf: ShelfId(10),
                    bay: 0,
                },
                system: SystemId(disk as u32),
                raid_group: RaidGroupId(3),
                installed_at: SimTime::from_secs(1_000),
                removed_at: SimTime::study_end(),
                removed_by_failure: false,
            }],
            ..AnalysisInput::default()
        };
        let fold = |disks: [u64; 2]| {
            let mut acc = AnalysisInput::default();
            for disk in disks {
                acc.absorb(partial(disk));
            }
            acc.canonicalize();
            acc
        };
        let forward = fold([7, 2]);
        let backward = fold([2, 7]);
        assert_eq!(forward, backward);
        assert_eq!(forward.lifetimes[0].disk, DiskInstanceId(2));
    }

    #[test]
    fn disk_removal_closes_lifetime() {
        let mut lines = cfg_lines();
        let host = SystemId(1);
        lines.push(LogLine::new(
            host,
            SimTime::from_secs(5_000_000),
            LogEvent::CfgDiskRemove {
                serial: DiskInstanceId(100).serial(),
                reason: "failed".to_owned(),
            },
        ));
        let book: LogBook = lines.into_iter().collect();
        let input = classify(&book).unwrap();
        let lt = &input.lifetimes[0];
        assert_eq!(lt.removed_at, SimTime::from_secs(5_000_000));
        assert!(lt.removed_by_failure);
        assert!(input.total_disk_years() > 0.0);
    }

    #[test]
    fn unknown_device_is_a_topology_error() {
        let mut lines = cfg_lines();
        lines.push(LogLine::new(
            SystemId(1),
            SimTime::from_secs(2_000_000),
            LogEvent::RaidDiskFailed {
                device: DeviceAddr::new(99, 99),
                serial: DiskInstanceId(100).serial(),
            },
        ));
        let book: LogBook = lines.into_iter().collect();
        assert!(matches!(
            classify(&book),
            Err(LogError::MissingTopology { .. })
        ));
    }

    #[test]
    fn lower_layer_noise_is_ignored() {
        let mut lines = cfg_lines();
        for _ in 0..5 {
            lines.push(LogLine::new(
                SystemId(1),
                SimTime::from_secs(1_500_000),
                LogEvent::FciDeviceTimeout {
                    device: DeviceAddr::new(8, 16),
                },
            ));
        }
        let book: LogBook = lines.into_iter().collect();
        let input = classify(&book).unwrap();
        assert!(input.failures.is_empty());
    }

    /// The timestamp of every hand-made line below.
    const AT: &str = "Thu Jul 13 11:55:43 PDT 2006";

    fn at() -> SimTime {
        SimTime::from_secs(79_876_543)
    }

    /// One hand-made corpus line.
    fn text_line(host: u32, tag: &str, message: &str) -> String {
        format!("sys-{host} {AT} [{tag}]: {message}\n")
    }

    fn cfg_system(host: u32) -> String {
        text_line(
            host,
            "cfg.system:info",
            "class=lowend disk_model=D-2 shelf_model=A paths=1 layout=span-shelves",
        )
    }

    fn cfg_shelf(
        host: u32,
        shelf: u32,
        fc_loop: u32,
        adapter: u8,
        position: u8,
        bays: u8,
    ) -> String {
        text_line(
            host,
            "cfg.shelf:info",
            &format!(
                "shelf={shelf} model=A loop={fc_loop} adapter={adapter} position={position} \
                 bays={bays}"
            ),
        )
    }

    fn cfg_raidgroup(host: u32, rg: u32, slots: &str) -> String {
        text_line(
            host,
            "cfg.raidgroup:info",
            &format!("rg={rg} type=RAID4 slots={slots}"),
        )
    }

    fn install(host: u32, disk: u64, shelf: u32, bay: u8, device: &str) -> String {
        let serial = DiskInstanceId(disk).serial();
        text_line(
            host,
            "cfg.disk.install:info",
            &format!("serial={serial} model=D-2 shelf={shelf} bay={bay} device={device}"),
        )
    }

    fn disk_failed(host: u32, disk: u64, device: &str) -> String {
        let serial = DiskInstanceId(disk).serial();
        text_line(
            host,
            "raid.config.filesystem.disk.failed:error",
            &format!("File system Disk {device} S/N [{serial}] has failed."),
        )
    }

    /// Feeds `lines` as one text fragment and finishes.
    fn classify_text(
        strictness: Strictness,
        lines: &[String],
    ) -> Result<(AnalysisInput, ShardHealth), LogError> {
        let mut classifier = Classifier::with_strictness(strictness);
        classifier.feed_bytes(lines.concat().as_bytes())?;
        classifier.finish_with_health()
    }

    /// A `Disk` failure record at [`at`].
    fn failed(
        disk: u64,
        host: u32,
        shelf: u32,
        rg: u32,
        fc_loop: u32,
        device: DeviceAddr,
    ) -> FailureRecord {
        FailureRecord {
            detected_at: at(),
            failure_type: FailureType::Disk,
            disk: DiskInstanceId(disk),
            system: SystemId(host),
            shelf: ShelfId(shelf),
            raid_group: RaidGroupId(rg),
            fc_loop: LoopId(fc_loop),
            device,
        }
    }

    /// Shelf 7 comes first and fixes the dense base; shelf 0 lies below
    /// it and shelf 4,000,000,000 past the cap, so both resolve through
    /// the spill.
    #[test]
    fn shelves_below_and_far_past_the_first_resolve() {
        const FAR: u32 = 4_000_000_000;
        let lines = [
            cfg_system(3),
            cfg_shelf(3, 7, 70, 8, 0, 2),
            cfg_shelf(3, 0, 71, 9, 0, 2),
            cfg_shelf(3, FAR, 72, 10, 0, 2),
            cfg_raidgroup(3, 1, "7:0,7:1"),
            cfg_raidgroup(3, 2, "0:0,0:1"),
            cfg_raidgroup(3, 3, &format!("{FAR}:0,{FAR}:1")),
            install(3, 10, 7, 1, "8.1"),
            install(3, 11, 0, 1, "9.1"),
            install(3, 12, FAR, 1, "10.1"),
            disk_failed(3, 10, "8.1"),
            disk_failed(3, 11, "9.1"),
            disk_failed(3, 12, "10.1"),
        ];
        let (input, health) = classify_text(Strictness::Strict, &lines).unwrap();
        assert_eq!(
            input.failures,
            vec![
                failed(10, 3, 7, 1, 70, DeviceAddr::new(8, 1)),
                failed(11, 3, 0, 2, 71, DeviceAddr::new(9, 1)),
                failed(12, 3, FAR, 3, 72, DeviceAddr::new(10, 1)),
            ]
        );
        let groups: Vec<RaidGroupId> = input.lifetimes.iter().map(|l| l.raid_group).collect();
        assert_eq!(groups, [RaidGroupId(1), RaidGroupId(2), RaidGroupId(3)]);
        assert_eq!(health.lines_seen, lines.len() as u64);
        assert!(health.is_clean());
    }

    /// A 20-bay shelf: bays 16 and up fall outside the dense row stride,
    /// so they must not alias the next shelf's first bays.
    #[test]
    fn bays_past_the_dense_stride_resolve() {
        let lines = [
            cfg_system(1),
            cfg_shelf(1, 40, 5, 8, 0, 20),
            cfg_shelf(1, 41, 6, 9, 0, 2),
            cfg_raidgroup(1, 6, "40:15,40:16"),
            cfg_raidgroup(1, 7, "40:17,40:19"),
            cfg_raidgroup(1, 8, "41:0,41:1"),
            disk_failed(1, 1, "8.15"),
            disk_failed(1, 2, "8.16"),
            disk_failed(1, 3, "8.19"),
            disk_failed(1, 4, "9.0"),
        ];
        let (input, _) = classify_text(Strictness::Strict, &lines).unwrap();
        assert_eq!(
            input.failures,
            vec![
                failed(1, 1, 40, 6, 5, DeviceAddr::new(8, 15)),
                failed(2, 1, 40, 6, 5, DeviceAddr::new(8, 16)),
                failed(3, 1, 40, 7, 5, DeviceAddr::new(8, 19)),
                failed(4, 1, 41, 8, 6, DeviceAddr::new(9, 0)),
            ]
        );
    }

    /// Targets are `u8`: position 16 wraps bay 1 to target 1, in debug
    /// builds as in release.
    #[test]
    fn positions_past_15_wrap_their_targets() {
        let lines = [
            cfg_shelf(1, 40, 5, 8, 16, 2),
            cfg_raidgroup(1, 6, "40:0,40:1"),
            disk_failed(1, 1, "8.1"),
        ];
        let (input, _) = classify_text(Strictness::Strict, &lines).unwrap();
        assert_eq!(
            input.failures,
            vec![failed(1, 1, 40, 6, 5, DeviceAddr::new(8, 1))]
        );
    }

    /// One system with more adapters than the dense cap: the adapters
    /// first seen after the cap resolve through the spill.
    #[test]
    fn adapters_past_the_dense_cap_resolve() {
        let n = DENSE_ADAPTERS as u8 + 3;
        let mut lines = vec![cfg_system(2)];
        for a in 0..n {
            let shelf = 100 + a as u32;
            lines.push(cfg_shelf(2, shelf, 500 + a as u32, a, 1, 1));
            lines.push(cfg_raidgroup(2, 900 + a as u32, &format!("{shelf}:0")));
        }
        for a in 0..n {
            lines.push(disk_failed(2, a as u64, &format!("{a}.16")));
        }
        let (input, _) = classify_text(Strictness::Strict, &lines).unwrap();
        let expected: Vec<FailureRecord> = (0..n)
            .map(|a| {
                let a32 = a as u32;
                failed(
                    a as u64,
                    2,
                    100 + a32,
                    900 + a32,
                    500 + a32,
                    DeviceAddr::new(a, 16),
                )
            })
            .collect();
        assert_eq!(input.failures, expected);
    }

    /// Three systems whose lines alternate and whose devices share one
    /// address: systems 4 and 5 get dense tables (4 comes first), system
    /// 3 lies below the first and spills, and each failure resolves in
    /// its own system.
    #[test]
    fn interleaved_systems_keep_their_devices_apart() {
        let lines = [
            cfg_system(4),
            cfg_system(5),
            cfg_system(3),
            cfg_shelf(4, 40, 2, 8, 0, 2),
            cfg_shelf(5, 50, 1, 8, 0, 2),
            cfg_shelf(3, 30, 3, 8, 0, 2),
            cfg_raidgroup(5, 51, "50:0,50:1"),
            cfg_raidgroup(3, 31, "30:0,30:1"),
            cfg_raidgroup(4, 41, "40:0,40:1"),
            install(4, 400, 40, 0, "8.0"),
            install(5, 500, 50, 0, "8.0"),
            install(3, 300, 30, 0, "8.0"),
            disk_failed(5, 500, "8.0"),
            disk_failed(4, 400, "8.0"),
            disk_failed(3, 300, "8.0"),
            disk_failed(5, 501, "8.1"),
        ];
        let (input, _) = classify_text(Strictness::Strict, &lines).unwrap();
        assert_eq!(
            input.failures,
            vec![
                failed(300, 3, 30, 31, 3, DeviceAddr::new(8, 0)),
                failed(400, 4, 40, 41, 2, DeviceAddr::new(8, 0)),
                failed(500, 5, 50, 51, 1, DeviceAddr::new(8, 0)),
                failed(501, 5, 50, 51, 1, DeviceAddr::new(8, 1)),
            ]
        );
    }

    /// The shelf record maps device 8.0 to bay 0; a later install puts it
    /// at bay 3, and the last write wins.
    #[test]
    fn a_later_install_redefines_a_device() {
        let lines = [
            cfg_system(1),
            cfg_shelf(1, 10, 5, 8, 0, 4),
            cfg_raidgroup(1, 1, "10:0,10:1"),
            cfg_raidgroup(1, 2, "10:2,10:3"),
            install(1, 7, 10, 3, "8.0"),
            disk_failed(1, 7, "8.0"),
        ];
        let (input, _) = classify_text(Strictness::Strict, &lines).unwrap();
        assert_eq!(
            input.failures,
            vec![failed(7, 1, 10, 2, 5, DeviceAddr::new(8, 0))]
        );
    }

    /// Removals close lifetimes wherever the disk id lies: the first
    /// disk fixes the dense base, one lies below it and one past the cap.
    /// A disk installed twice keeps its first lifetime open: the removal
    /// closes the later one, as a map's last write would.
    #[test]
    fn removals_close_lifetimes_across_the_dense_range() {
        let far = 1_000 + DENSE_DISKS + 5;
        let remove = |disk: u64, reason: &str| {
            let serial = DiskInstanceId(disk).serial();
            text_line(
                1,
                "cfg.disk.remove:info",
                &format!("serial={serial} reason={reason}"),
            )
        };
        let lines = [
            cfg_shelf(1, 10, 5, 8, 0, 4),
            cfg_raidgroup(1, 1, "10:0,10:1,10:2,10:3"),
            install(1, 1_000, 10, 0, "8.0"),
            install(1, 10, 10, 1, "8.1"),
            install(1, far, 10, 2, "8.2"),
            install(1, 1_000, 10, 3, "8.3"),
            remove(10, "failed"),
            remove(far, "study_end"),
            remove(1_000, "failed"),
            // Already closed: a no-op.
            remove(1_000, "study_end"),
        ];
        let (input, health) = classify_text(Strictness::Strict, &lines).unwrap();
        let closed: Vec<(u64, u8, bool, bool)> = input
            .lifetimes
            .iter()
            .map(|l| {
                let open = l.removed_at == SimTime::study_end();
                (l.disk.0, l.slot.bay, open, l.removed_by_failure)
            })
            .collect();
        assert_eq!(
            closed,
            [
                (10, 1, false, true),
                (1_000, 0, true, false),
                (1_000, 3, false, true),
                (far, 2, false, false),
            ]
        );
        assert!(health.is_clean());
    }

    /// RAID events before any topology: strict mode names what is
    /// missing, lenient mode skips and counts each line.
    #[test]
    fn raid_events_before_topology_are_missing_topology() {
        let missing = |lines: &[String]| match classify_text(Strictness::Strict, lines) {
            Err(LogError::MissingTopology { what }) => what,
            other => panic!("expected MissingTopology, got {other:?}"),
        };
        // No device at all.
        let early = disk_failed(1, 7, "8.16");
        assert_eq!(
            missing(std::slice::from_ref(&early)),
            "device 8.16 on sys-1"
        );
        // A device whose slot has no RAID group.
        let no_group = [cfg_shelf(1, 10, 5, 8, 1, 1), early.clone()];
        assert_eq!(missing(&no_group), "raid group of shelf-10/bay0");
        // An install into a slot with no RAID group.
        assert_eq!(
            missing(&[install(1, 7, 10, 0, "8.16")]),
            "raid group of shelf-10/bay0"
        );
        // A device and group whose shelf no record declared.
        let no_shelf = [
            cfg_raidgroup(1, 1, "10:0"),
            install(1, 7, 10, 0, "8.16"),
            early.clone(),
        ];
        assert_eq!(missing(&no_shelf), "shelf shelf-10");

        let mut lenient = vec![early.clone(), early.clone()];
        lenient.extend(cfg_lines().iter().map(|l| format!("{l}\n")));
        lenient.push(disk_failed(1, 100, "8.16"));
        lenient.push(disk_failed(1, 100, "9.16"));
        let (input, health) = classify_text(Strictness::Lenient, &lenient).unwrap();
        assert_eq!(
            health,
            ShardHealth {
                lines_seen: 8,
                malformed_skipped: 0,
                missing_topology_skipped: 3,
            }
        );
        assert_eq!(
            input.failures,
            vec![failed(100, 1, 10, 3, 5, DeviceAddr::new(8, 16))]
        );
    }

    #[test]
    fn shelf_records_preregister_all_bay_devices() {
        // Shelf at position 1 with 2 bays: devices 8.16 and 8.17. Only bay
        // 0 has an install record, so bay 1's device resolves through the
        // shelf record's pre-registration alone.
        let mut lines = cfg_lines();
        lines.push(LogLine::new(
            SystemId(1),
            SimTime::from_secs(2_000_000),
            LogEvent::RaidDiskFailed {
                device: DeviceAddr::new(8, 17),
                serial: DiskInstanceId(101).serial(),
            },
        ));
        let book: LogBook = lines.into_iter().collect();
        let input = classify(&book).unwrap();
        assert_eq!(input.failures.len(), 1);
        let failure = &input.failures[0];
        assert_eq!(failure.shelf, ShelfId(10));
        assert_eq!(failure.raid_group, RaidGroupId(3));
        assert_eq!(failure.fc_loop, LoopId(5));
    }
}
