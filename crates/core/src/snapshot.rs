//! Canonical binary snapshot of a [`StudyFold`]: the persistent form of
//! the incremental analysis state.
//!
//! A snapshot is a versioned little-endian byte image of the fold's
//! accumulator (the `AnalysisInput` system, shelf and RAID-group maps,
//! lifetimes, failures) plus its partial count. Every record has a fixed
//! width, so a snapshot's size is linear in the records the analysis
//! reads; the classifier's device → slot → RAID-group placement index
//! never reaches the fold. The encoding is *canonical*: the same fold state
//! always serializes to identical bytes (`BTreeMap`s iterate in key
//! order; vectors are written in their current append order, which the
//! fold re-establishes deterministically), so checkpoint equality can be
//! checked bytewise and checkpoint digests are stable across runs.
//!
//! The format carries no checksum of its own — snapshots travel inside
//! `SSFC` frames (see `ssfa_logs::checkpoint`), which FNV-checksum the
//! whole payload and reject single-bit flips. What this module *does*
//! pin is the schema: [`SNAPSHOT_VERSION`] leads the image, and a
//! mismatch is refused with a typed, pinned-`Display` error rather than
//! a garbage decode. Bumping the version is a contract change: the
//! `ssfa-lint` contract-sync rule requires the documented schema in
//! DESIGN §15 to name the same version this module compiles with.
//!
//! Decoding is defensive throughout: every read is bounds-checked
//! (`Truncated`), every enum/bool/char byte is range-checked
//! (`Invalid`), and trailing bytes after the last field are refused
//! (`TrailingBytes`) — a truncated or bit-flipped snapshot that somehow
//! slipped past the frame checksum still cannot produce a silently
//! wrong fold.

use std::fmt;

use ssfa_logs::classify::{DiskLifetime, RaidGroupMeta, ShelfMeta, SystemMeta, Topology};
use ssfa_logs::AnalysisInput;
use ssfa_model::{
    DeviceAddr, DiskFamily, DiskInstanceId, DiskModelId, FailureRecord, FailureType, LayoutPolicy,
    LoopId, PathConfig, RaidGroupId, RaidType, ShelfId, ShelfModel, SimTime, SlotAddr, SystemClass,
    SystemId,
};

use crate::study::StudyFold;

/// The snapshot schema version this build writes and reads. Bump it on
/// any layout change — old snapshots are refused, never reinterpreted.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Errors from [`StudyFold::from_snapshot`], each with a pinned
/// `Display` rendering (the negative-path suite asserts exact messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading version word names a schema this build does not read.
    UnsupportedVersion {
        /// The version found in the snapshot.
        found: u32,
    },
    /// The image ended before a field could be read in full.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// Bytes the field needs.
        needed: usize,
        /// Bytes remaining in the image.
        available: usize,
    },
    /// A field decoded to a value outside its domain (enum discriminant,
    /// bool byte, or char scalar).
    Invalid {
        /// Which field was out of range.
        what: &'static str,
        /// The raw value found.
        found: u64,
    },
    /// Bytes remain after the last field — the image is not exactly one
    /// snapshot.
    TrailingBytes {
        /// How many bytes follow the last field.
        bytes: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads version \
                     {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated {
                what,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated snapshot {what}: need {needed} bytes, have {available}"
                )
            }
            SnapshotError::Invalid { what, found } => {
                write!(f, "snapshot {what} has invalid value {found}")
            }
            SnapshotError::TrailingBytes { bytes } => {
                write!(
                    f,
                    "snapshot has {bytes} trailing byte(s) after the last field"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// Encoding. Plain pushes onto a Vec — every field is fixed-width LE or a
// u64-length-prefixed sequence, so the writer cannot produce an image the
// reader rejects.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_slot(out: &mut Vec<u8>, s: SlotAddr) {
    put_u32(out, s.shelf.0);
    put_u8(out, s.bay);
}

fn put_device(out: &mut Vec<u8>, d: DeviceAddr) {
    put_u8(out, d.adapter);
    put_u8(out, d.target);
}

fn put_disk_model(out: &mut Vec<u8>, m: DiskModelId) {
    put_u32(out, m.family.0 as u32);
    put_u8(out, m.capacity_point);
}

fn put_class(out: &mut Vec<u8>, c: SystemClass) {
    put_u8(out, c.index() as u8);
}

fn put_shelf_model(out: &mut Vec<u8>, m: ShelfModel) {
    put_u8(
        out,
        match m {
            ShelfModel::A => 0,
            ShelfModel::B => 1,
            ShelfModel::C => 2,
        },
    );
}

fn put_paths(out: &mut Vec<u8>, p: PathConfig) {
    put_u8(
        out,
        match p {
            PathConfig::SinglePath => 0,
            PathConfig::DualPath => 1,
        },
    );
}

fn put_layout(out: &mut Vec<u8>, l: LayoutPolicy) {
    put_u8(
        out,
        match l {
            LayoutPolicy::SpanShelves => 0,
            LayoutPolicy::SameShelf => 1,
        },
    );
}

fn put_raid_type(out: &mut Vec<u8>, r: RaidType) {
    put_u8(
        out,
        match r {
            RaidType::Raid4 => 0,
            RaidType::Raid6 => 1,
        },
    );
}

fn put_failure_type(out: &mut Vec<u8>, t: FailureType) {
    put_u8(out, t.index() as u8);
}

fn put_system_meta(out: &mut Vec<u8>, m: &SystemMeta) {
    put_class(out, m.class);
    put_disk_model(out, m.disk_model);
    put_shelf_model(out, m.shelf_model);
    put_paths(out, m.paths);
    put_layout(out, m.layout);
    put_u64(out, m.installed_at.0);
}

fn put_shelf_meta(out: &mut Vec<u8>, m: &ShelfMeta) {
    put_u32(out, m.system.0);
    put_shelf_model(out, m.model);
    put_u32(out, m.fc_loop.0);
    put_u8(out, m.bays);
}

fn put_raid_group_meta(out: &mut Vec<u8>, m: &RaidGroupMeta) {
    put_u32(out, m.system.0);
    put_raid_type(out, m.raid_type);
}

fn put_lifetime(out: &mut Vec<u8>, lt: &DiskLifetime) {
    put_u64(out, lt.disk.0);
    put_disk_model(out, lt.model);
    put_slot(out, lt.slot);
    put_u32(out, lt.system.0);
    put_u32(out, lt.raid_group.0);
    put_u64(out, lt.installed_at.0);
    put_u64(out, lt.removed_at.0);
    put_bool(out, lt.removed_by_failure);
}

fn put_failure(out: &mut Vec<u8>, r: &FailureRecord) {
    put_u64(out, r.detected_at.0);
    put_failure_type(out, r.failure_type);
    put_u64(out, r.disk.0);
    put_u32(out, r.system.0);
    put_u32(out, r.shelf.0);
    put_u32(out, r.raid_group.0);
    put_u32(out, r.fc_loop.0);
    put_device(out, r.device);
}

// ---------------------------------------------------------------------------
// Decoding. Every read is bounds-checked against the remaining image and
// every discriminant is range-checked; sequences are read element by
// element (no length-trusting preallocation, so a corrupt length prefix
// fails fast on the first missing element instead of allocating).

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn len(&mut self, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u64(what)?;
        usize::try_from(n).map_err(|_| SnapshotError::Invalid { what, found: n })
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Invalid {
                what,
                found: u64::from(b),
            }),
        }
    }

    fn slot(&mut self, what: &'static str) -> Result<SlotAddr, SnapshotError> {
        Ok(SlotAddr {
            shelf: ShelfId(self.u32(what)?),
            bay: self.u8(what)?,
        })
    }

    fn device(&mut self, what: &'static str) -> Result<DeviceAddr, SnapshotError> {
        Ok(DeviceAddr {
            adapter: self.u8(what)?,
            target: self.u8(what)?,
        })
    }

    fn disk_model(&mut self, what: &'static str) -> Result<DiskModelId, SnapshotError> {
        let raw = self.u32(what)?;
        let family = char::from_u32(raw).ok_or(SnapshotError::Invalid {
            what,
            found: u64::from(raw),
        })?;
        Ok(DiskModelId {
            family: DiskFamily(family),
            capacity_point: self.u8(what)?,
        })
    }

    fn variant<T: Copy>(&mut self, what: &'static str, table: &[T]) -> Result<T, SnapshotError> {
        let b = self.u8(what)?;
        table
            .get(usize::from(b))
            .copied()
            .ok_or(SnapshotError::Invalid {
                what,
                found: u64::from(b),
            })
    }

    fn system_meta(&mut self) -> Result<SystemMeta, SnapshotError> {
        Ok(SystemMeta {
            class: self.variant("system class", &SystemClass::ALL)?,
            disk_model: self.disk_model("disk model")?,
            shelf_model: self.variant("shelf model", &ShelfModel::ALL)?,
            paths: self.variant("path config", &PathConfig::ALL)?,
            layout: self.variant(
                "layout policy",
                &[LayoutPolicy::SpanShelves, LayoutPolicy::SameShelf],
            )?,
            installed_at: SimTime(self.u64("system install time")?),
        })
    }

    fn shelf_meta(&mut self) -> Result<ShelfMeta, SnapshotError> {
        Ok(ShelfMeta {
            system: SystemId(self.u32("shelf system")?),
            model: self.variant("shelf model", &ShelfModel::ALL)?,
            fc_loop: LoopId(self.u32("shelf fc loop")?),
            bays: self.u8("shelf bays")?,
        })
    }

    fn raid_group_meta(&mut self) -> Result<RaidGroupMeta, SnapshotError> {
        Ok(RaidGroupMeta {
            system: SystemId(self.u32("raid group system")?),
            raid_type: self.variant("raid type", &RaidType::ALL)?,
        })
    }

    fn lifetime(&mut self) -> Result<DiskLifetime, SnapshotError> {
        Ok(DiskLifetime {
            disk: DiskInstanceId(self.u64("lifetime disk")?),
            model: self.disk_model("lifetime disk model")?,
            slot: self.slot("lifetime slot")?,
            system: SystemId(self.u32("lifetime system")?),
            raid_group: RaidGroupId(self.u32("lifetime raid group")?),
            installed_at: SimTime(self.u64("lifetime install time")?),
            removed_at: SimTime(self.u64("lifetime removal time")?),
            removed_by_failure: self.bool("lifetime removal flag")?,
        })
    }

    fn failure(&mut self) -> Result<FailureRecord, SnapshotError> {
        Ok(FailureRecord {
            detected_at: SimTime(self.u64("failure detection time")?),
            failure_type: self.variant("failure type", &FailureType::ALL)?,
            disk: DiskInstanceId(self.u64("failure disk")?),
            system: SystemId(self.u32("failure system")?),
            shelf: ShelfId(self.u32("failure shelf")?),
            raid_group: RaidGroupId(self.u32("failure raid group")?),
            fc_loop: LoopId(self.u32("failure fc loop")?),
            device: self.device("failure device")?,
        })
    }
}

pub(crate) fn encode(acc: &AnalysisInput, partials: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        64 + acc.topology.systems.len() * 24 + acc.lifetimes.len() * 40 + acc.failures.len() * 40,
    );
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, partials as u64);

    put_len(&mut out, acc.topology.systems.len());
    for (&id, meta) in &acc.topology.systems {
        put_u32(&mut out, id.0);
        put_system_meta(&mut out, meta);
    }
    put_len(&mut out, acc.topology.shelves.len());
    for (&id, meta) in &acc.topology.shelves {
        put_u32(&mut out, id.0);
        put_shelf_meta(&mut out, meta);
    }
    put_len(&mut out, acc.topology.raid_groups.len());
    for (&id, meta) in &acc.topology.raid_groups {
        put_u32(&mut out, id.0);
        put_raid_group_meta(&mut out, meta);
    }

    put_len(&mut out, acc.lifetimes.len());
    for lt in &acc.lifetimes {
        put_lifetime(&mut out, lt);
    }
    put_len(&mut out, acc.failures.len());
    for r in &acc.failures {
        put_failure(&mut out, r);
    }
    out
}

pub(crate) fn decode(bytes: &[u8]) -> Result<(AnalysisInput, usize), SnapshotError> {
    let mut r = Reader::new(bytes);
    let version = r.u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let partials = r.len("partial count")?;

    let mut topology = Topology::default();
    let n = r.len("system count")?;
    for _ in 0..n {
        let id = SystemId(r.u32("system id")?);
        topology.systems.insert(id, r.system_meta()?);
    }
    let n = r.len("shelf count")?;
    for _ in 0..n {
        let id = ShelfId(r.u32("shelf id")?);
        topology.shelves.insert(id, r.shelf_meta()?);
    }
    let n = r.len("raid group count")?;
    for _ in 0..n {
        let id = RaidGroupId(r.u32("raid group id")?);
        topology.raid_groups.insert(id, r.raid_group_meta()?);
    }

    let n = r.len("lifetime count")?;
    let mut lifetimes = Vec::new();
    for _ in 0..n {
        lifetimes.push(r.lifetime()?);
    }
    let n = r.len("failure count")?;
    let mut failures = Vec::new();
    for _ in 0..n {
        failures.push(r.failure()?);
    }

    if r.remaining() != 0 {
        return Err(SnapshotError::TrailingBytes {
            bytes: r.remaining(),
        });
    }
    Ok((
        AnalysisInput {
            topology,
            lifetimes,
            failures,
        },
        partials,
    ))
}

impl StudyFold {
    /// Serializes the fold to its canonical binary image (see the module
    /// docs for the layout). `from_snapshot(to_snapshot())` restores a
    /// fold that is indistinguishable from this one: identical
    /// accumulator bytes, identical partial count, identical
    /// [`StudyFold::finish`] output.
    pub fn to_snapshot(&self) -> Vec<u8> {
        encode(self.acc_ref(), self.len())
    }

    /// Restores a fold from a snapshot image.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a version mismatch, truncation, an
    /// out-of-domain field, or trailing bytes.
    pub fn from_snapshot(bytes: &[u8]) -> Result<StudyFold, SnapshotError> {
        let (acc, partials) = decode(bytes)?;
        Ok(StudyFold::from_parts(acc, partials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::classify::classify;
    use ssfa_logs::render::render_support_log;
    use ssfa_logs::CascadeStyle;
    use ssfa_model::{Fleet, FleetConfig};
    use ssfa_sim::Simulator;

    fn fold_at(scale: f64, seed: u64) -> StudyFold {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(scale), seed);
        let output = Simulator::default().run(&fleet, seed);
        let book = render_support_log(&fleet, &output, CascadeStyle::RaidOnly);
        let mut fold = StudyFold::new();
        fold.push(classify(&book).expect("classify"));
        fold
    }

    /// One shared fold/image pair — building it dominates test wall time
    /// in the dev profile, so every test reads the same instance.
    fn sample_fold() -> &'static StudyFold {
        static FOLD: std::sync::OnceLock<StudyFold> = std::sync::OnceLock::new();
        FOLD.get_or_init(|| fold_at(0.002, 99))
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let fold = sample_fold().clone();
        let image = fold.to_snapshot();
        let restored = StudyFold::from_snapshot(&image).expect("restore");
        assert_eq!(restored.len(), fold.len());
        assert_eq!(
            restored.to_snapshot(),
            image,
            "re-snapshot is bytewise stable"
        );
        assert_eq!(
            format!("{:?}", restored.finish().table1()),
            format!("{:?}", fold.finish().table1()),
        );
    }

    #[test]
    fn empty_fold_round_trips() {
        let image = StudyFold::new().to_snapshot();
        let restored = StudyFold::from_snapshot(&image).expect("restore");
        assert!(restored.is_empty());
        assert_eq!(restored.to_snapshot(), image);
    }

    #[test]
    fn version_mismatch_is_refused_with_pinned_display() {
        let mut image = sample_fold().to_snapshot();
        image[0..4].copy_from_slice(&1u32.to_le_bytes());
        let err = StudyFold::from_snapshot(&image).unwrap_err();
        assert_eq!(err, SnapshotError::UnsupportedVersion { found: 1 });
        assert_eq!(
            err.to_string(),
            "unsupported snapshot version 1 (this build reads version 2)"
        );
    }

    /// The fold holds only what the analysis reads, each record at a
    /// fixed width: any per-device or per-slot state would add bytes
    /// this sum does not account for.
    #[test]
    fn snapshot_length_is_fixed_width_per_record() {
        let fold = sample_fold();
        let acc = fold.acc_ref();
        // Version and partial count, then five u64 length prefixes.
        let header = 4 + 8 + 5 * 8;
        // id + class, disk model (family, capacity), shelf model, paths,
        // layout, install time.
        let system = 4 + 1 + 5 + 1 + 1 + 1 + 8;
        // id + system, model, loop, bays.
        let shelf = 4 + 4 + 1 + 4 + 1;
        // id + system, RAID type.
        let raid_group = 4 + 4 + 1;
        // disk, model, slot, system, RAID group, install, removal, flag.
        let lifetime = 8 + 5 + 5 + 4 + 4 + 8 + 8 + 1;
        // time, type, disk, system, shelf, RAID group, loop, device.
        let failure = 8 + 1 + 8 + 4 + 4 + 4 + 4 + 2;
        assert!(!acc.failures.is_empty(), "fixture must carry failures");
        assert_eq!(
            fold.to_snapshot().len(),
            header
                + system * acc.topology.systems.len()
                + shelf * acc.topology.shelves.len()
                + raid_group * acc.topology.raid_groups.len()
                + lifetime * acc.lifetimes.len()
                + failure * acc.failures.len()
        );
    }

    #[test]
    fn truncation_at_any_sampled_cut_is_typed() {
        let image = sample_fold().to_snapshot();
        // Every cut through the header and first records, then a fixed
        // stride across the body (exhaustive would be O(len²)).
        let cuts = (0..image.len().min(256)).chain((256..image.len()).step_by(97));
        for cut in cuts {
            match StudyFold::from_snapshot(&image[..cut]) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("truncation at {cut} must be Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let mut image = sample_fold().to_snapshot();
        image.push(0);
        assert_eq!(
            StudyFold::from_snapshot(&image).unwrap_err(),
            SnapshotError::TrailingBytes { bytes: 1 }
        );
    }

    #[test]
    fn merge_is_associative_down_to_snapshot_bytes() {
        let (a, b, c) = (sample_fold().clone(), fold_at(0.001, 2), fold_at(0.001, 3));

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);

        assert_eq!(left.len(), right.len());
        assert_eq!(
            left.to_snapshot(),
            right.to_snapshot(),
            "merge must be associative at the byte level (map union and vec append both are)"
        );
        assert_eq!(
            format!("{:?}", left.finish().table1()),
            format!("{:?}", right.finish().table1()),
        );
    }
}
