//! Typed log events and their text rendering.
//!
//! Every line in a support log is `<host> <timestamp> [<tag>:<severity>]:
//! <message>`, matching the layout shown in the paper's Figure 3. Events
//! come in three groups: Fibre-Channel/SCSI layer events emitted while a
//! failure propagates, RAID-layer events that *classify* the failure (the
//! four storage subsystem failure types), and `cfg.*` records that carry
//! the configuration snapshots (topology, disk installs/removals) the
//! analysis needs for exposure accounting.

use std::fmt;

use ssfa_model::{
    DeviceAddr, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId, RaidType, ShelfId,
    ShelfModel, SimTime, SlotAddr, SystemClass, SystemId,
};

use crate::view::{EventRef, LogLineRef};

/// Severity of a log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational record.
    Info,
    /// Warning — degraded but operating.
    Warning,
    /// Error — a failure happened.
    Error,
}

impl Severity {
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    pub(crate) fn from_tag(tag: &str) -> Option<Severity> {
        match tag {
            "info" => Some(Severity::Info),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One typed log event.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    // --- Fibre Channel layer ---------------------------------------------
    /// FC adapter saw a device stop responding.
    FciDeviceTimeout {
        /// The unresponsive device.
        device: DeviceAddr,
    },
    /// FC adapter was reset in an attempt to recover.
    FciAdapterReset {
        /// The adapter being reset.
        adapter: u8,
    },

    // --- SCSI layer --------------------------------------------------------
    /// Host adapter aborted an in-flight command.
    ScsiCmdAborted {
        /// The device whose command was aborted.
        device: DeviceAddr,
    },
    /// Selection timeout: target did not respond; I/O will be retried.
    ScsiSelectionTimeout {
        /// The silent target.
        device: DeviceAddr,
    },
    /// All retries failed; no path to the device remains.
    ScsiNoMorePaths {
        /// The unreachable device.
        device: DeviceAddr,
    },
    /// Multipath failover rerouted I/O through the redundant network.
    ScsiPathFailover {
        /// The device whose primary path failed.
        device: DeviceAddr,
    },
    /// A medium error was detected and the sector remapped.
    DiskMediumError {
        /// The disk reporting the error.
        device: DeviceAddr,
        /// The broken sector's LBA.
        sector: u64,
    },
    /// Response violating the protocol; driver/firmware incompatibility.
    ScsiProtocolViolation {
        /// The misbehaving device.
        device: DeviceAddr,
    },
    /// An I/O took longer than the service threshold.
    ScsiSlowResponse {
        /// The slow device.
        device: DeviceAddr,
        /// Observed completion latency in milliseconds.
        latency_ms: u32,
    },

    // --- RAID layer (classification-bearing) -------------------------------
    /// Disk is missing from the filesystem: a physical interconnect
    /// failure (paper Figure 3).
    RaidDiskMissing {
        /// The missing disk's address.
        device: DeviceAddr,
        /// The missing disk's serial number.
        serial: String,
    },
    /// Disk failed (media/mechanics or proactive fail-out): a disk failure.
    RaidDiskFailed {
        /// The failed disk's address.
        device: DeviceAddr,
        /// The failed disk's serial number.
        serial: String,
    },
    /// Disk visible but requests misbehaving: a protocol failure.
    RaidProtocolError {
        /// The affected disk's address.
        device: DeviceAddr,
        /// The affected disk's serial number.
        serial: String,
    },
    /// Disk cannot serve I/O in time: a performance failure.
    RaidDiskSlow {
        /// The slow disk's address.
        device: DeviceAddr,
        /// The slow disk's serial number.
        serial: String,
    },

    // --- Configuration snapshot records ------------------------------------
    /// System-level configuration record.
    CfgSystem {
        /// Capability class.
        class: SystemClass,
        /// Disk model populated throughout the system.
        disk_model: DiskModelId,
        /// Shelf enclosure model in use.
        shelf_model: ShelfModel,
        /// Single or dual FC paths.
        paths: PathConfig,
        /// RAID layout policy.
        layout: LayoutPolicy,
    },
    /// Shelf enclosure record.
    CfgShelf {
        /// Fleet-unique shelf id.
        shelf: ShelfId,
        /// Enclosure model.
        model: ShelfModel,
        /// FC loop the shelf is chained on.
        fc_loop: LoopId,
        /// Host adapter number.
        adapter: u8,
        /// Position on the loop.
        position: u8,
        /// Populated bays.
        bays: u8,
    },
    /// RAID group membership record.
    CfgRaidGroup {
        /// Fleet-unique RAID group id.
        rg: RaidGroupId,
        /// RAID level.
        raid_type: RaidType,
        /// Member slots.
        slots: Vec<SlotAddr>,
    },
    /// A disk instance entered service in a slot.
    CfgDiskInstall {
        /// Serial of the installed disk.
        serial: String,
        /// Product model.
        model: DiskModelId,
        /// Slot occupied.
        slot: SlotAddr,
        /// Device address of the slot.
        device: DeviceAddr,
    },
    /// A disk instance left service.
    CfgDiskRemove {
        /// Serial of the removed disk.
        serial: String,
        /// `failed` or `study_end`.
        reason: String,
    },
}

impl LogEvent {
    /// The subsystem tag rendered inside `[tag:severity]`.
    pub fn tag(&self) -> &'static str {
        EventRef::from_owned(self).tag().as_str()
    }

    /// The line severity (a function of the tag alone).
    pub fn severity(&self) -> Severity {
        EventRef::from_owned(self).tag().severity()
    }

    /// Renders the human-readable message after `]: `.
    pub fn message(&self) -> String {
        let mut out = String::new();
        self.push_message(&mut out);
        out
    }

    /// Appends the message after `]: ` to a `String` via literal pushes
    /// and direct digit writes — the one message renderer, behind
    /// [`LogEvent::message`], `Display`, and the corpus hot path
    /// ([`crate::LogBook::to_text`]). One literal line per variant is
    /// pinned by a unit test below.
    pub fn push_message(&self, out: &mut String) {
        match self {
            LogEvent::FciDeviceTimeout { device } => {
                out.push_str("Adapter ");
                push_decimal(out, device.adapter as u64);
                out.push_str(" encountered a device timeout on device ");
                push_device(out, device);
            }
            LogEvent::FciAdapterReset { adapter } => {
                out.push_str("Resetting Fibre Channel adapter ");
                push_decimal(out, *adapter as u64);
                out.push('.');
            }
            LogEvent::ScsiCmdAborted { device } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(": Command aborted by host adapter:");
            }
            LogEvent::ScsiSelectionTimeout { device } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(
                    ": Adapter/target error: Targeted device did not respond \
                     to requested I/O. I/O will be retried.",
                );
            }
            LogEvent::ScsiNoMorePaths { device } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(": No more paths to device. All retries have failed.");
            }
            LogEvent::ScsiPathFailover { device } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(": Primary path failed. I/O rerouted through redundant path.");
            }
            LogEvent::DiskMediumError { device, sector } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(": Medium error detected on sector ");
                push_decimal(out, *sector);
                out.push_str(". Sector remapped.");
            }
            LogEvent::ScsiProtocolViolation { device } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(
                    ": Protocol violation in command response. \
                     Driver or firmware incompatibility suspected.",
                );
            }
            LogEvent::ScsiSlowResponse { device, latency_ms } => {
                out.push_str("Device ");
                push_device(out, device);
                out.push_str(": I/O completion exceeded service threshold (");
                push_decimal(out, *latency_ms as u64);
                out.push_str(" ms).");
            }
            LogEvent::RaidDiskMissing { device, serial } => {
                push_raid_prefix(out, device, serial);
                out.push_str(" is missing.");
            }
            LogEvent::RaidDiskFailed { device, serial } => {
                push_raid_prefix(out, device, serial);
                out.push_str(" has failed.");
            }
            LogEvent::RaidProtocolError { device, serial } => {
                push_raid_prefix(out, device, serial);
                out.push_str(" is not responding correctly to I/O requests.");
            }
            LogEvent::RaidDiskSlow { device, serial } => {
                push_raid_prefix(out, device, serial);
                out.push_str(" cannot serve I/O requests in a timely manner.");
            }
            LogEvent::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => {
                out.push_str("class=");
                out.push_str(class.tag());
                out.push_str(" disk_model=");
                push_disk_model(out, disk_model);
                out.push_str(" shelf_model=");
                out.push(shelf_model.letter());
                out.push_str(" paths=");
                push_decimal(out, paths.paths() as u64);
                out.push_str(" layout=");
                out.push_str(layout.label());
            }
            LogEvent::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => {
                out.push_str("shelf=");
                push_decimal(out, shelf.0 as u64);
                out.push_str(" model=");
                out.push(model.letter());
                out.push_str(" loop=");
                push_decimal(out, fc_loop.0 as u64);
                out.push_str(" adapter=");
                push_decimal(out, *adapter as u64);
                out.push_str(" position=");
                push_decimal(out, *position as u64);
                out.push_str(" bays=");
                push_decimal(out, *bays as u64);
            }
            LogEvent::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => {
                out.push_str("rg=");
                push_decimal(out, rg.0 as u64);
                out.push_str(" type=");
                out.push_str(raid_type.label());
                out.push_str(" slots=");
                for (i, s) in slots.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_decimal(out, s.shelf.0 as u64);
                    out.push(':');
                    push_decimal(out, s.bay as u64);
                }
            }
            LogEvent::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => {
                out.push_str("serial=");
                out.push_str(serial);
                out.push_str(" model=");
                push_disk_model(out, model);
                out.push_str(" shelf=");
                push_decimal(out, slot.shelf.0 as u64);
                out.push_str(" bay=");
                push_decimal(out, slot.bay as u64);
                out.push_str(" device=");
                push_device(out, device);
            }
            LogEvent::CfgDiskRemove { serial, reason } => {
                out.push_str("serial=");
                out.push_str(serial);
                out.push_str(" reason=");
                out.push_str(reason);
            }
        }
    }

    /// Heap bytes this event holds beyond its inline enum footprint —
    /// the variable part of [`LogLine::resident_bytes`].
    fn heap_bytes(&self) -> usize {
        match self {
            LogEvent::RaidDiskMissing { serial, .. }
            | LogEvent::RaidDiskFailed { serial, .. }
            | LogEvent::RaidProtocolError { serial, .. }
            | LogEvent::RaidDiskSlow { serial, .. } => serial.len(),
            LogEvent::CfgRaidGroup { slots, .. } => slots.len() * std::mem::size_of::<SlotAddr>(),
            LogEvent::CfgDiskInstall { serial, .. } => serial.len(),
            LogEvent::CfgDiskRemove { serial, reason } => serial.len() + reason.len(),
            _ => 0,
        }
    }
}

/// Appends `v`'s decimal digits without going through `fmt`.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Appends `adapter.target`, matching [`DeviceAddr`]'s `Display`.
fn push_device(out: &mut String, device: &DeviceAddr) {
    push_decimal(out, device.adapter as u64);
    out.push('.');
    push_decimal(out, device.target as u64);
}

/// Appends `family-capacity`, matching [`DiskModelId`]'s `Display`.
fn push_disk_model(out: &mut String, model: &DiskModelId) {
    out.push(model.family.0);
    out.push('-');
    push_decimal(out, model.capacity_point as u64);
}

/// Appends the shared `File system Disk <device> S/N [<serial>]` prefix
/// of the RAID-layer messages.
fn push_raid_prefix(out: &mut String, device: &DeviceAddr, serial: &str) {
    out.push_str("File system Disk ");
    push_device(out, device);
    out.push_str(" S/N [");
    out.push_str(serial);
    out.push(']');
}

/// One complete log line: host, timestamp, event.
#[derive(Debug, Clone, PartialEq)]
pub struct LogLine {
    /// The storage system that emitted the line.
    pub host: SystemId,
    /// When the line was emitted.
    pub at: SimTime,
    /// The typed event.
    pub event: LogEvent,
}

impl LogLine {
    /// Creates a line.
    pub fn new(host: SystemId, at: SimTime, event: LogEvent) -> Self {
        LogLine { host, at, event }
    }

    /// In-memory footprint of this line: its inline size plus the heap its
    /// event owns. This is what a worker actually holds resident when the
    /// streaming pipeline carries parsed lines instead of rendered text —
    /// the unit of [`crate::LogBook::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<LogLine>() + self.event.heap_bytes()
    }

    /// Appends the rendered line to `out` via direct pushes — the one
    /// line renderer, behind `Display` and the corpus hot path
    /// ([`crate::LogBook::to_text`]).
    pub fn render_into(&self, out: &mut String) {
        out.push_str("sys-");
        push_decimal(out, self.host.0 as u64);
        out.push(' ');
        self.at.civil().push_into(out);
        out.push_str(" [");
        out.push_str(self.event.tag());
        out.push(':');
        out.push_str(self.event.severity().tag());
        out.push_str("]: ");
        self.event.push_message(out);
    }

    /// Parses one rendered line: the borrowed parser
    /// ([`LogLineRef::parse`]) promoted to owned storage.
    ///
    /// Returns `None` for malformed lines (the classifier skips them, as
    /// real log pipelines must).
    pub fn parse(line: &str) -> Option<LogLine> {
        LogLineRef::parse(line).map(|view| view.to_owned())
    }
}

impl fmt::Display for LogLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render_into(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_model::DiskInstanceId;

    fn roundtrip(event: LogEvent) {
        let line = LogLine::new(SystemId(42), SimTime::from_secs(79_876_543), event);
        let text = line.to_string();
        let parsed = LogLine::parse(&text).unwrap_or_else(|| panic!("failed to parse: {text}"));
        assert_eq!(parsed, line, "round-trip mismatch for: {text}");
    }

    #[test]
    fn figure_3_interconnect_cascade_lines_round_trip() {
        let d = DeviceAddr::new(8, 24);
        roundtrip(LogEvent::FciDeviceTimeout { device: d });
        roundtrip(LogEvent::FciAdapterReset { adapter: 8 });
        roundtrip(LogEvent::ScsiCmdAborted { device: d });
        roundtrip(LogEvent::ScsiSelectionTimeout { device: d });
        roundtrip(LogEvent::ScsiNoMorePaths { device: d });
        roundtrip(LogEvent::RaidDiskMissing {
            device: d,
            serial: DiskInstanceId(12345).serial(),
        });
    }

    #[test]
    fn all_other_events_round_trip() {
        let d = DeviceAddr::new(9, 31);
        let serial = DiskInstanceId(7).serial();
        roundtrip(LogEvent::ScsiPathFailover { device: d });
        roundtrip(LogEvent::DiskMediumError {
            device: d,
            sector: 123_456_789,
        });
        roundtrip(LogEvent::ScsiProtocolViolation { device: d });
        roundtrip(LogEvent::ScsiSlowResponse {
            device: d,
            latency_ms: 30_000,
        });
        roundtrip(LogEvent::RaidDiskFailed {
            device: d,
            serial: serial.clone(),
        });
        roundtrip(LogEvent::RaidProtocolError {
            device: d,
            serial: serial.clone(),
        });
        roundtrip(LogEvent::RaidDiskSlow { device: d, serial });
    }

    #[test]
    fn cfg_records_round_trip() {
        roundtrip(LogEvent::CfgSystem {
            class: SystemClass::MidRange,
            disk_model: DiskModelId::new('D', 2),
            shelf_model: ShelfModel::B,
            paths: PathConfig::DualPath,
            layout: LayoutPolicy::SpanShelves,
        });
        roundtrip(LogEvent::CfgShelf {
            shelf: ShelfId(1234),
            model: ShelfModel::C,
            fc_loop: LoopId(88),
            adapter: 9,
            position: 2,
            bays: 13,
        });
        roundtrip(LogEvent::CfgRaidGroup {
            rg: RaidGroupId(55),
            raid_type: RaidType::Raid6,
            slots: vec![
                SlotAddr {
                    shelf: ShelfId(1),
                    bay: 0,
                },
                SlotAddr {
                    shelf: ShelfId(2),
                    bay: 0,
                },
                SlotAddr {
                    shelf: ShelfId(3),
                    bay: 1,
                },
            ],
        });
        roundtrip(LogEvent::CfgDiskInstall {
            serial: DiskInstanceId(31337).serial(),
            model: DiskModelId::new('H', 2),
            slot: SlotAddr {
                shelf: ShelfId(9),
                bay: 13,
            },
            device: DeviceAddr::new(8, 45),
        });
        roundtrip(LogEvent::CfgDiskRemove {
            serial: DiskInstanceId(31337).serial(),
            reason: "failed".to_owned(),
        });
    }

    /// One literal line per variant — the byte-level pin on the single
    /// renderer, covering the Figure-3 cascade tags a `RaidOnly` corpus
    /// golden never renders.
    #[test]
    fn every_event_kind_renders_its_pinned_line() {
        let d = DeviceAddr::new(8, 24);
        let serial = || "3EL00000O6H".to_owned();
        let slot = |shelf, bay| SlotAddr {
            shelf: ShelfId(shelf),
            bay,
        };
        let cases = [
            (
                LogEvent::FciDeviceTimeout { device: d },
                "[fci.device.timeout:error]: Adapter 8 encountered a device timeout on device 8.24",
            ),
            (
                LogEvent::FciAdapterReset { adapter: 8 },
                "[fci.adapter.reset:info]: Resetting Fibre Channel adapter 8.",
            ),
            (
                LogEvent::ScsiCmdAborted { device: d },
                "[scsi.cmd.abortedByHost:error]: Device 8.24: Command aborted by host adapter:",
            ),
            (
                LogEvent::ScsiSelectionTimeout { device: d },
                "[scsi.cmd.selectionTimeout:error]: Device 8.24: Adapter/target error: \
                 Targeted device did not respond to requested I/O. I/O will be retried.",
            ),
            (
                LogEvent::ScsiNoMorePaths { device: d },
                "[scsi.cmd.noMorePaths:error]: Device 8.24: No more paths to device. \
                 All retries have failed.",
            ),
            (
                LogEvent::ScsiPathFailover { device: d },
                "[scsi.path.failover:info]: Device 8.24: Primary path failed. \
                 I/O rerouted through redundant path.",
            ),
            (
                LogEvent::DiskMediumError {
                    device: d,
                    sector: 123_456_789,
                },
                "[disk.ioMediumError:warning]: Device 8.24: Medium error detected on \
                 sector 123456789. Sector remapped.",
            ),
            (
                LogEvent::ScsiProtocolViolation { device: d },
                "[scsi.cmd.protocolViolation:error]: Device 8.24: Protocol violation in \
                 command response. Driver or firmware incompatibility suspected.",
            ),
            (
                LogEvent::ScsiSlowResponse {
                    device: d,
                    latency_ms: 30_000,
                },
                "[scsi.cmd.slowResponse:warning]: Device 8.24: I/O completion exceeded \
                 service threshold (30000 ms).",
            ),
            (
                LogEvent::RaidDiskMissing {
                    device: d,
                    serial: serial(),
                },
                "[raid.config.filesystem.disk.missing:info]: File system Disk 8.24 \
                 S/N [3EL00000O6H] is missing.",
            ),
            (
                LogEvent::RaidDiskFailed {
                    device: d,
                    serial: serial(),
                },
                "[raid.config.filesystem.disk.failed:error]: File system Disk 8.24 \
                 S/N [3EL00000O6H] has failed.",
            ),
            (
                LogEvent::RaidProtocolError {
                    device: d,
                    serial: serial(),
                },
                "[raid.config.filesystem.disk.protocolError:error]: File system Disk 8.24 \
                 S/N [3EL00000O6H] is not responding correctly to I/O requests.",
            ),
            (
                LogEvent::RaidDiskSlow {
                    device: d,
                    serial: serial(),
                },
                "[raid.config.filesystem.disk.slow:warning]: File system Disk 8.24 \
                 S/N [3EL00000O6H] cannot serve I/O requests in a timely manner.",
            ),
            (
                LogEvent::CfgSystem {
                    class: SystemClass::MidRange,
                    disk_model: DiskModelId::new('D', 2),
                    shelf_model: ShelfModel::B,
                    paths: PathConfig::SinglePath,
                    layout: LayoutPolicy::SameShelf,
                },
                "[cfg.system:info]: class=midrange disk_model=D-2 shelf_model=B paths=1 \
                 layout=same-shelf",
            ),
            (
                LogEvent::CfgShelf {
                    shelf: ShelfId(1234),
                    model: ShelfModel::C,
                    fc_loop: LoopId(88),
                    adapter: 9,
                    position: 2,
                    bays: 13,
                },
                "[cfg.shelf:info]: shelf=1234 model=C loop=88 adapter=9 position=2 bays=13",
            ),
            (
                LogEvent::CfgRaidGroup {
                    rg: RaidGroupId(55),
                    raid_type: RaidType::Raid6,
                    slots: vec![slot(1, 0), slot(2, 7)],
                },
                "[cfg.raidgroup:info]: rg=55 type=RAID6 slots=1:0,2:7",
            ),
            (
                LogEvent::CfgDiskInstall {
                    serial: serial(),
                    model: DiskModelId::new('H', 2),
                    slot: slot(9, 13),
                    device: DeviceAddr::new(8, 45),
                },
                "[cfg.disk.install:info]: serial=3EL00000O6H model=H-2 shelf=9 bay=13 \
                 device=8.45",
            ),
            (
                LogEvent::CfgDiskRemove {
                    serial: serial(),
                    reason: "study_end".to_owned(),
                },
                "[cfg.disk.remove:info]: serial=3EL00000O6H reason=study_end",
            ),
        ];
        assert_eq!(cases.len(), crate::intern::ALL_TAGS.len());
        for (event, tail) in cases {
            let line = LogLine::new(SystemId(42), SimTime::from_secs(79_876_543), event);
            assert_eq!(
                line.to_string(),
                format!("sys-42 Thu Jul 13 11:55:43 PDT 2006 {tail}")
            );
        }
        // An empty member list and a single-digit (space-padded) day.
        let line = LogLine::new(
            SystemId(0),
            SimTime::from_secs(3600),
            LogEvent::CfgRaidGroup {
                rg: RaidGroupId(0),
                raid_type: RaidType::Raid4,
                slots: Vec::new(),
            },
        );
        assert_eq!(
            line.to_string(),
            "sys-0 Thu Jan  1 01:00:00 PDT 2004 [cfg.raidgroup:info]: rg=0 type=RAID4 slots="
        );
    }

    #[test]
    fn rendered_line_matches_paper_layout() {
        // The paper's Figure 3 example.
        let at = ssfa_model::CivilDateTime {
            year: 2006,
            month: 7,
            day: 23,
            hour: 5,
            minute: 43,
            second: 36,
            weekday: 0,
        }
        .to_sim_time()
        .unwrap();
        let line = LogLine::new(
            SystemId(7),
            at,
            LogEvent::FciDeviceTimeout {
                device: DeviceAddr::new(8, 24),
            },
        );
        assert_eq!(
            line.to_string(),
            "sys-7 Sun Jul 23 05:43:36 PDT 2006 [fci.device.timeout:error]: \
             Adapter 8 encountered a device timeout on device 8.24"
        );
    }

    #[test]
    fn raid_events_carry_classifiable_tags() {
        let d = DeviceAddr::new(1, 2);
        let s = "3EL00000001".to_owned();
        assert_eq!(
            LogEvent::RaidDiskMissing {
                device: d,
                serial: s.clone()
            }
            .tag(),
            "raid.config.filesystem.disk.missing"
        );
        assert!(LogEvent::RaidDiskFailed {
            device: d,
            serial: s.clone()
        }
        .tag()
        .starts_with("raid."));
        assert!(LogEvent::RaidProtocolError {
            device: d,
            serial: s.clone()
        }
        .tag()
        .starts_with("raid."));
        assert!(LogEvent::RaidDiskSlow {
            device: d,
            serial: s
        }
        .tag()
        .starts_with("raid."));
    }
}
