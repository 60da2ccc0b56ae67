//! The interned subsystem-tag table for the parse/classify hot path.
//!
//! [`TagId`] is the closed set of subsystem tags that can appear inside
//! `[tag:severity]`. The parser resolves the tag text to a `TagId` once;
//! every later decision (severity check, event-layout dispatch) is an
//! integer compare instead of a string compare. It is also the crate's
//! one tag table: [`crate::LogEvent::tag`] and
//! [`crate::LogEvent::severity`] read their answers from here.

use crate::event::Severity;

/// Interned subsystem tag: one variant per tag string the support-log
/// format defines. `repr(u8)` so classifier dispatch is a jump table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TagId {
    /// `fci.device.timeout`
    FciDeviceTimeout,
    /// `fci.adapter.reset`
    FciAdapterReset,
    /// `scsi.cmd.abortedByHost`
    ScsiCmdAborted,
    /// `scsi.cmd.selectionTimeout`
    ScsiSelectionTimeout,
    /// `scsi.cmd.noMorePaths`
    ScsiNoMorePaths,
    /// `scsi.path.failover`
    ScsiPathFailover,
    /// `disk.ioMediumError`
    DiskMediumError,
    /// `scsi.cmd.protocolViolation`
    ScsiProtocolViolation,
    /// `scsi.cmd.slowResponse`
    ScsiSlowResponse,
    /// `raid.config.filesystem.disk.missing`
    RaidDiskMissing,
    /// `raid.config.filesystem.disk.failed`
    RaidDiskFailed,
    /// `raid.config.filesystem.disk.protocolError`
    RaidProtocolError,
    /// `raid.config.filesystem.disk.slow`
    RaidDiskSlow,
    /// `cfg.system`
    CfgSystem,
    /// `cfg.shelf`
    CfgShelf,
    /// `cfg.raidgroup`
    CfgRaidGroup,
    /// `cfg.disk.install`
    CfgDiskInstall,
    /// `cfg.disk.remove`
    CfgDiskRemove,
}

/// Every tag, for exhaustive table tests.
pub const ALL_TAGS: [TagId; 18] = [
    TagId::FciDeviceTimeout,
    TagId::FciAdapterReset,
    TagId::ScsiCmdAborted,
    TagId::ScsiSelectionTimeout,
    TagId::ScsiNoMorePaths,
    TagId::ScsiPathFailover,
    TagId::DiskMediumError,
    TagId::ScsiProtocolViolation,
    TagId::ScsiSlowResponse,
    TagId::RaidDiskMissing,
    TagId::RaidDiskFailed,
    TagId::RaidProtocolError,
    TagId::RaidDiskSlow,
    TagId::CfgSystem,
    TagId::CfgShelf,
    TagId::CfgRaidGroup,
    TagId::CfgDiskInstall,
    TagId::CfgDiskRemove,
];

impl TagId {
    /// Resolves tag text to its interned id. Returns `None` for unknown
    /// tags, which [`crate::LogLine::parse`] rejects.
    pub fn lookup(tag: &str) -> Option<TagId> {
        Some(match tag {
            "fci.device.timeout" => TagId::FciDeviceTimeout,
            "fci.adapter.reset" => TagId::FciAdapterReset,
            "scsi.cmd.abortedByHost" => TagId::ScsiCmdAborted,
            "scsi.cmd.selectionTimeout" => TagId::ScsiSelectionTimeout,
            "scsi.cmd.noMorePaths" => TagId::ScsiNoMorePaths,
            "scsi.path.failover" => TagId::ScsiPathFailover,
            "disk.ioMediumError" => TagId::DiskMediumError,
            "scsi.cmd.protocolViolation" => TagId::ScsiProtocolViolation,
            "scsi.cmd.slowResponse" => TagId::ScsiSlowResponse,
            "raid.config.filesystem.disk.missing" => TagId::RaidDiskMissing,
            "raid.config.filesystem.disk.failed" => TagId::RaidDiskFailed,
            "raid.config.filesystem.disk.protocolError" => TagId::RaidProtocolError,
            "raid.config.filesystem.disk.slow" => TagId::RaidDiskSlow,
            "cfg.system" => TagId::CfgSystem,
            "cfg.shelf" => TagId::CfgShelf,
            "cfg.raidgroup" => TagId::CfgRaidGroup,
            "cfg.disk.install" => TagId::CfgDiskInstall,
            "cfg.disk.remove" => TagId::CfgDiskRemove,
            _ => return None,
        })
    }

    /// The tag text this id interns.
    pub fn as_str(self) -> &'static str {
        match self {
            TagId::FciDeviceTimeout => "fci.device.timeout",
            TagId::FciAdapterReset => "fci.adapter.reset",
            TagId::ScsiCmdAborted => "scsi.cmd.abortedByHost",
            TagId::ScsiSelectionTimeout => "scsi.cmd.selectionTimeout",
            TagId::ScsiNoMorePaths => "scsi.cmd.noMorePaths",
            TagId::ScsiPathFailover => "scsi.path.failover",
            TagId::DiskMediumError => "disk.ioMediumError",
            TagId::ScsiProtocolViolation => "scsi.cmd.protocolViolation",
            TagId::ScsiSlowResponse => "scsi.cmd.slowResponse",
            TagId::RaidDiskMissing => "raid.config.filesystem.disk.missing",
            TagId::RaidDiskFailed => "raid.config.filesystem.disk.failed",
            TagId::RaidProtocolError => "raid.config.filesystem.disk.protocolError",
            TagId::RaidDiskSlow => "raid.config.filesystem.disk.slow",
            TagId::CfgSystem => "cfg.system",
            TagId::CfgShelf => "cfg.shelf",
            TagId::CfgRaidGroup => "cfg.raidgroup",
            TagId::CfgDiskInstall => "cfg.disk.install",
            TagId::CfgDiskRemove => "cfg.disk.remove",
        }
    }

    /// The fixed severity every line carrying this tag renders with
    /// (severity is a function of the tag alone).
    pub fn severity(self) -> Severity {
        match self {
            TagId::FciDeviceTimeout
            | TagId::ScsiCmdAborted
            | TagId::ScsiSelectionTimeout
            | TagId::ScsiNoMorePaths
            | TagId::ScsiProtocolViolation
            | TagId::RaidDiskFailed
            | TagId::RaidProtocolError => Severity::Error,
            TagId::DiskMediumError | TagId::ScsiSlowResponse | TagId::RaidDiskSlow => {
                Severity::Warning
            }
            _ => Severity::Info,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_strings_round_trip_through_the_intern_table() {
        for tag in ALL_TAGS {
            assert_eq!(TagId::lookup(tag.as_str()), Some(tag));
        }
        assert_eq!(TagId::lookup("raid.config.filesystem.disk.unknown"), None);
        assert_eq!(TagId::lookup(""), None);
    }
}
