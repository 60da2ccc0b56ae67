//! Borrowed, zero-allocation views of log lines.
//!
//! [`LogLineRef`] is the hot-path twin of [`LogLine`]:
//! the same grammar, the same accept/reject decisions, but every
//! variable-width field (`serial`, `reason`, the raid-group member list)
//! is a slice borrowed from the input text instead of an owned `String`.
//! A chunk worker can therefore parse and classify a whole rendered shard
//! without allocating per line — the classifier consumes the view and
//! only the handful of state-changing records (installs, topology) ever
//! reach owned storage.
//!
//! This is the crate's only line parser: [`LogLine::parse`] is
//! `LogLineRef::parse(..).map(to_owned)`, and [`LogLineRef::from_owned`]
//! lets the owned feed path reuse the view classifier. Each byte-level
//! fast path below bails to a general counterpart (DESIGN §13); the test
//! module holds the render round-trip property, per fast path the
//! property that it returns `None` or exactly the general answer and
//! that its composed entry point equals the general answer alone, and
//! the coverage property that every rendered line takes the fast paths.

use ssfa_model::{
    DeviceAddr, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId, RaidType, ShelfId,
    ShelfModel, SimTime, SlotAddr, SystemClass, SystemId,
};

use crate::event::{LogEvent, LogLine, Severity};
use crate::intern::TagId;

/// A raid-group member list that is either still rendered text
/// (validated during parse, iterated lazily) or a borrowed slice of an
/// owned event's slots. Either way iteration yields [`SlotAddr`]s
/// without allocating.
#[derive(Debug, Clone, Copy)]
pub enum SlotsRef<'a> {
    /// Validated `shelf:bay,shelf:bay,...` text borrowed from the line.
    Text(&'a str),
    /// Slots borrowed from an owned [`LogEvent::CfgRaidGroup`].
    Slice(&'a [SlotAddr]),
}

impl<'a> SlotsRef<'a> {
    /// Validates and wraps a rendered member list: comma-separated
    /// `shelf:bay` pairs, every pair must split on `:` with a `u32` shelf
    /// and `u8` bay — so an empty list (or any bad pair) rejects.
    fn parse(text: &'a str) -> Option<SlotsRef<'a>> {
        // Byte-level restatement of the grammar above. `,` and `:` are
        // ASCII so byte splits land on the same boundaries as str splits,
        // and `valid_uint` accepts exactly the strings `u32`/`u8` `parse`
        // does (one optional `+`, then digits, within range).
        for pair in text.as_bytes().split(|&b| b == b',') {
            let colon = pair.iter().position(|&b| b == b':')?;
            if !valid_uint(&pair[..colon], u32::MAX as u64) || !valid_uint(&pair[colon + 1..], 255)
            {
                return None;
            }
        }
        Some(SlotsRef::Text(text))
    }

    /// Iterates the member slots. Infallible: text variants were fully
    /// validated at parse time.
    pub fn iter(&self) -> SlotsIter<'a> {
        match self {
            SlotsRef::Text(text) => SlotsIter::Text(text.split(',')),
            SlotsRef::Slice(slots) => SlotsIter::Slice(slots.iter()),
        }
    }

    /// Collects the members into an owned vector, for promotion to an
    /// owned [`LogEvent::CfgRaidGroup`].
    pub fn to_vec(&self) -> Vec<SlotAddr> {
        self.iter().collect()
    }
}

/// Iterator over a [`SlotsRef`]'s members.
#[derive(Debug)]
pub enum SlotsIter<'a> {
    /// Lazily re-parsing validated text.
    Text(std::str::Split<'a, char>),
    /// Walking a borrowed slice.
    Slice(std::slice::Iter<'a, SlotAddr>),
}

impl Iterator for SlotsIter<'_> {
    type Item = SlotAddr;

    fn next(&mut self) -> Option<SlotAddr> {
        match self {
            SlotsIter::Text(split) => {
                let pair = split.next()?;
                let (shelf, bay) = pair.split_once(':').expect("validated by SlotsRef::parse");
                Some(SlotAddr {
                    shelf: ShelfId(shelf.parse().expect("validated by SlotsRef::parse")),
                    bay: bay.parse().expect("validated by SlotsRef::parse"),
                })
            }
            SlotsIter::Slice(iter) => iter.next().copied(),
        }
    }
}

/// Borrowed twin of [`LogEvent`]: identical variants and fixed-width
/// fields, with `&str` slices where the owned event holds `String`s.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// See [`LogEvent::FciDeviceTimeout`].
    FciDeviceTimeout {
        /// The unresponsive device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::FciAdapterReset`].
    FciAdapterReset {
        /// The adapter being reset.
        adapter: u8,
    },
    /// See [`LogEvent::ScsiCmdAborted`].
    ScsiCmdAborted {
        /// The device whose command was aborted.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiSelectionTimeout`].
    ScsiSelectionTimeout {
        /// The silent target.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiNoMorePaths`].
    ScsiNoMorePaths {
        /// The unreachable device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiPathFailover`].
    ScsiPathFailover {
        /// The device whose primary path failed.
        device: DeviceAddr,
    },
    /// See [`LogEvent::DiskMediumError`].
    DiskMediumError {
        /// The disk reporting the error.
        device: DeviceAddr,
        /// The broken sector's LBA.
        sector: u64,
    },
    /// See [`LogEvent::ScsiProtocolViolation`].
    ScsiProtocolViolation {
        /// The misbehaving device.
        device: DeviceAddr,
    },
    /// See [`LogEvent::ScsiSlowResponse`].
    ScsiSlowResponse {
        /// The slow device.
        device: DeviceAddr,
        /// Observed completion latency in milliseconds.
        latency_ms: u32,
    },
    /// See [`LogEvent::RaidDiskMissing`].
    RaidDiskMissing {
        /// The missing disk's address.
        device: DeviceAddr,
        /// The missing disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidDiskFailed`].
    RaidDiskFailed {
        /// The failed disk's address.
        device: DeviceAddr,
        /// The failed disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidProtocolError`].
    RaidProtocolError {
        /// The affected disk's address.
        device: DeviceAddr,
        /// The affected disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::RaidDiskSlow`].
    RaidDiskSlow {
        /// The slow disk's address.
        device: DeviceAddr,
        /// The slow disk's serial number, borrowed from the line.
        serial: &'a str,
    },
    /// See [`LogEvent::CfgSystem`].
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
    /// See [`LogEvent::CfgShelf`].
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
    /// See [`LogEvent::CfgRaidGroup`].
    CfgRaidGroup {
        /// Fleet-unique RAID group id.
        rg: RaidGroupId,
        /// RAID level.
        raid_type: RaidType,
        /// Member slots (borrowed; iterate without allocating).
        slots: SlotsRef<'a>,
    },
    /// See [`LogEvent::CfgDiskInstall`].
    CfgDiskInstall {
        /// Serial of the installed disk, borrowed from the line.
        serial: &'a str,
        /// Product model.
        model: DiskModelId,
        /// Slot occupied.
        slot: SlotAddr,
        /// Device address of the slot.
        device: DeviceAddr,
    },
    /// See [`LogEvent::CfgDiskRemove`].
    CfgDiskRemove {
        /// Serial of the removed disk, borrowed from the line.
        serial: &'a str,
        /// `failed` or `study_end`, borrowed from the line.
        reason: &'a str,
    },
}

/// Positional fast path for the renderer's canonical `k=v` message
/// layout: the given keys in exactly this order, single-space separated,
/// no other whitespace anywhere, no trailing tokens. `None` means "not
/// canonical", at which point [`kv_scan`] falls back to the byte scan —
/// so this only ever accepts messages where both readings agree, and the
/// last value being space-free means trailing duplicates (which last-wins
/// scanning would resolve differently) always take the fallback.
fn canonical_kv<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> Option<[Option<&'a str>; N]> {
    if msg
        .bytes()
        .any(|b| b >= 0x80 || (b != b' ' && ascii_space(b)))
    {
        return None;
    }
    let mut out = [None; N];
    let mut rest = msg;
    for (i, key) in keys.iter().enumerate() {
        rest = rest.strip_prefix(key)?.strip_prefix('=')?;
        if i + 1 == N {
            if rest.contains(' ') {
                return None;
            }
            out[i] = Some(rest);
        } else {
            let (value, next) = rest.split_once(' ')?;
            out[i] = Some(value);
            rest = next;
        }
    }
    Some(out)
}

/// Last-wins scan for `key=value` whitespace-separated tokens: per key,
/// the value of its *last* occurrence; unknown keys and tokens without
/// `=` are ignored.
fn kv_scan<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    canonical_kv(msg, keys)
        .or_else(|| kv_scan_ascii(msg, keys))
        .unwrap_or_else(|| kv_scan_unicode(msg, keys))
}

/// Byte-level [`kv_scan`] for pure-ASCII messages; `None` for anything
/// else. On ASCII input the `ascii_space` set is exactly the sub-0x80
/// slice of `char::is_whitespace`, so token boundaries match
/// `split_whitespace` and the first `=` within a token matches
/// `split_once('=')`.
fn kv_scan_ascii<'a, const N: usize>(
    msg: &'a str,
    keys: [&str; N],
) -> Option<[Option<&'a str>; N]> {
    if !msg.is_ascii() {
        return None;
    }
    let bytes = msg.as_bytes();
    let mut out = [None; N];
    let mut i = 0;
    while i < bytes.len() {
        while i < bytes.len() && ascii_space(bytes[i]) {
            i += 1;
        }
        let start = i;
        let mut eq = usize::MAX;
        while i < bytes.len() && !ascii_space(bytes[i]) {
            if eq == usize::MAX && bytes[i] == b'=' {
                eq = i;
            }
            i += 1;
        }
        if eq != usize::MAX {
            let key = &msg[start..eq];
            let value = &msg[eq + 1..i];
            for (k, want) in keys.iter().enumerate() {
                if key == *want {
                    out[k] = Some(value);
                    break;
                }
            }
        }
    }
    Some(out)
}

/// The general [`kv_scan`]: Unicode-aware `split_whitespace` tokens.
fn kv_scan_unicode<'a, const N: usize>(msg: &'a str, keys: [&str; N]) -> [Option<&'a str>; N] {
    let mut out = [None; N];
    for token in msg.split_whitespace() {
        if let Some((key, value)) = token.split_once('=') {
            for (i, want) in keys.iter().enumerate() {
                if key == *want {
                    out[i] = Some(value);
                    break;
                }
            }
        }
    }
    out
}

/// ASCII bytes `char::is_whitespace` treats as whitespace (the only ones
/// below 0x80): tab, LF, VT, FF, CR, space.
#[inline]
fn ascii_space(c: u8) -> bool {
    matches!(c, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ')
}

/// Fused byte-level fast path for the renderer's canonical
/// `cfg.disk.install` message (`serial=S model=F-N shelf=D bay=D
/// device=A.T`, plain digits, single spaces). `cfg.disk.install` is by
/// far the most common line in a rendered corpus, so this is the hottest
/// arm of [`EventRef::parse`]. Any deviation — exotic whitespace, signs,
/// overflow, trailing tokens — returns `None` and the caller re-reads the
/// message through [`parse_disk_install`], so this path only ever accepts
/// inputs where both readings agree.
fn parse_disk_install_fast(msg: &str) -> Option<EventRef<'_>> {
    let b = msg.as_bytes();
    let rest = b.strip_prefix(b"serial=")?;
    // Serial token: printable ASCII up to a single `' '`. Anything else
    // (other whitespace, 0x80+) bails so tokenization stays byte-for-byte
    // with `split_whitespace`.
    let mut n = 0;
    while n < rest.len() && rest[n] != b' ' {
        if rest[n] >= 0x80 || ascii_space(rest[n]) {
            return None;
        }
        n += 1;
    }
    let serial = &msg[7..7 + n];
    let b = rest[n..].strip_prefix(b" model=")?;
    let (family, b) = match b {
        [f @ b'A'..=b'Z', b'-', rest @ ..] => (*f as char, rest),
        _ => return None,
    };
    let (cap, b) = strip_u8(b)?;
    let b = b.strip_prefix(b" shelf=")?;
    let (shelf, b) = strip_u32(b)?;
    let b = b.strip_prefix(b" bay=")?;
    let (bay, b) = strip_u8(b)?;
    let b = b.strip_prefix(b" device=")?;
    let (adapter, b) = strip_u8(b)?;
    let b = b.strip_prefix(b".")?;
    let (target, b) = strip_u8(b)?;
    if !b.is_empty() || cap == 0 {
        return None;
    }
    Some(EventRef::CfgDiskInstall {
        serial,
        model: DiskModelId::new(family, cap),
        slot: SlotAddr {
            shelf: ShelfId(shelf),
            bay,
        },
        device: DeviceAddr::new(adapter, target),
    })
}

/// The general `cfg.disk.install` message parser, over [`kv_scan`].
fn parse_disk_install(msg: &str) -> Option<EventRef<'_>> {
    let [serial, model, shelf, bay, device] =
        kv_scan(msg, ["serial", "model", "shelf", "bay", "device"]);
    Some(EventRef::CfgDiskInstall {
        serial: serial?,
        model: DiskModelId::parse(model?)?,
        slot: SlotAddr {
            shelf: ShelfId(shelf?.parse().ok()?),
            bay: bay?.parse().ok()?,
        },
        device: device?.parse().ok()?,
    })
}

/// Accepts exactly the strings `u32::from_str`-family parsers do for an
/// unsigned integer bounded by `max`: one optional `+`, then one or more
/// digits (leading zeros fine), value in range. `max` must be at most
/// `u32::MAX` so the running value cannot overflow `u64`.
fn valid_uint(b: &[u8], max: u64) -> bool {
    let digits = match b.first() {
        Some(b'+') => &b[1..],
        _ => b,
    };
    if digits.is_empty() {
        return false;
    }
    let mut v: u64 = 0;
    for &c in digits {
        if !c.is_ascii_digit() {
            return false;
        }
        v = v * 10 + (c - b'0') as u64;
        if v > max {
            return false;
        }
    }
    true
}

/// Strips a leading plain-digit `u8` (no sign), bailing on overflow so
/// the fallback parser makes the accept/reject call.
#[inline]
fn strip_u8(b: &[u8]) -> Option<(u8, &[u8])> {
    let (v, rest) = strip_u32(b)?;
    Some((u8::try_from(v).ok()?, rest))
}

/// Strips a leading plain-digit `u32` (no sign), bailing on overflow.
#[inline]
fn strip_u32(b: &[u8]) -> Option<(u32, &[u8])> {
    let mut v: u64 = 0;
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v * 10 + (b[i] - b'0') as u64;
        if v > u32::MAX as u64 {
            return None;
        }
        i += 1;
    }
    if i == 0 {
        return None;
    }
    Some((v as u32, &b[i..]))
}

fn device_after(msg: &str, prefix: &str) -> Option<DeviceAddr> {
    let rest = msg.strip_prefix(prefix)?;
    let end = rest.find([':', ' '])?;
    rest[..end].parse().ok()
}

fn device_and_serial(msg: &str) -> Option<(DeviceAddr, &str)> {
    let rest = msg.strip_prefix("File system Disk ")?;
    let sp = rest.find(' ')?;
    let device: DeviceAddr = rest[..sp].parse().ok()?;
    let open = rest.find('[')?;
    let close = rest.find(']')?;
    if close <= open + 1 {
        return None;
    }
    Some((device, &rest[open + 1..close]))
}

impl<'a> EventRef<'a> {
    /// Parses a message into a borrowed event, given the interned tag.
    /// Returns `None` when the message does not match the tag's layout.
    pub fn parse(tag: TagId, message: &'a str) -> Option<EventRef<'a>> {
        match tag {
            TagId::FciDeviceTimeout => {
                let idx = message.rfind(" on device ")?;
                let device: DeviceAddr = message[idx + 11..].trim().parse().ok()?;
                Some(EventRef::FciDeviceTimeout { device })
            }
            TagId::FciAdapterReset => {
                let rest = message.strip_prefix("Resetting Fibre Channel adapter ")?;
                let adapter: u8 = rest.trim_end_matches('.').parse().ok()?;
                Some(EventRef::FciAdapterReset { adapter })
            }
            TagId::ScsiCmdAborted => Some(EventRef::ScsiCmdAborted {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiSelectionTimeout => Some(EventRef::ScsiSelectionTimeout {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiNoMorePaths => Some(EventRef::ScsiNoMorePaths {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiPathFailover => Some(EventRef::ScsiPathFailover {
                device: device_after(message, "Device ")?,
            }),
            TagId::DiskMediumError => {
                let device = device_after(message, "Device ")?;
                let idx = message.find("sector ")?;
                let rest = &message[idx + 7..];
                let end = rest.find('.')?;
                let sector: u64 = rest[..end].parse().ok()?;
                Some(EventRef::DiskMediumError { device, sector })
            }
            TagId::ScsiProtocolViolation => Some(EventRef::ScsiProtocolViolation {
                device: device_after(message, "Device ")?,
            }),
            TagId::ScsiSlowResponse => {
                let device = device_after(message, "Device ")?;
                let open = message.find('(')?;
                let end = message.find(" ms)")?;
                let latency_ms: u32 = message[open + 1..end].parse().ok()?;
                Some(EventRef::ScsiSlowResponse { device, latency_ms })
            }
            TagId::RaidDiskMissing => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskMissing { device, serial })
            }
            TagId::RaidDiskFailed => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskFailed { device, serial })
            }
            TagId::RaidProtocolError => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidProtocolError { device, serial })
            }
            TagId::RaidDiskSlow => {
                let (device, serial) = device_and_serial(message)?;
                Some(EventRef::RaidDiskSlow { device, serial })
            }
            TagId::CfgSystem => {
                let [class, disk_model, shelf_model, paths, layout] = kv_scan(
                    message,
                    ["class", "disk_model", "shelf_model", "paths", "layout"],
                );
                Some(EventRef::CfgSystem {
                    class: SystemClass::from_tag(class?)?,
                    disk_model: DiskModelId::parse(disk_model?)?,
                    shelf_model: ShelfModel::from_letter(shelf_model?.chars().next()?)?,
                    paths: match paths? {
                        "1" => PathConfig::SinglePath,
                        "2" => PathConfig::DualPath,
                        _ => return None,
                    },
                    layout: match layout? {
                        "span-shelves" => LayoutPolicy::SpanShelves,
                        "same-shelf" => LayoutPolicy::SameShelf,
                        _ => return None,
                    },
                })
            }
            TagId::CfgShelf => {
                let [shelf, model, fc_loop, adapter, position, bays] = kv_scan(
                    message,
                    ["shelf", "model", "loop", "adapter", "position", "bays"],
                );
                Some(EventRef::CfgShelf {
                    shelf: ShelfId(shelf?.parse().ok()?),
                    model: ShelfModel::from_letter(model?.chars().next()?)?,
                    fc_loop: LoopId(fc_loop?.parse().ok()?),
                    adapter: adapter?.parse().ok()?,
                    position: position?.parse().ok()?,
                    bays: bays?.parse().ok()?,
                })
            }
            TagId::CfgRaidGroup => {
                let [rg, raid_type, slots] = kv_scan(message, ["rg", "type", "slots"]);
                Some(EventRef::CfgRaidGroup {
                    rg: RaidGroupId(rg?.parse().ok()?),
                    raid_type: match raid_type? {
                        "RAID4" => RaidType::Raid4,
                        "RAID6" => RaidType::Raid6,
                        _ => return None,
                    },
                    slots: SlotsRef::parse(slots?)?,
                })
            }
            TagId::CfgDiskInstall => {
                parse_disk_install_fast(message).or_else(|| parse_disk_install(message))
            }
            TagId::CfgDiskRemove => {
                let [serial, reason] = kv_scan(message, ["serial", "reason"]);
                Some(EventRef::CfgDiskRemove {
                    serial: serial?,
                    reason: reason?,
                })
            }
        }
    }

    /// Converts the view into an owned [`LogEvent`], allocating only the
    /// fields the owned representation must hold.
    pub fn to_owned(&self) -> LogEvent {
        match *self {
            EventRef::FciDeviceTimeout { device } => LogEvent::FciDeviceTimeout { device },
            EventRef::FciAdapterReset { adapter } => LogEvent::FciAdapterReset { adapter },
            EventRef::ScsiCmdAborted { device } => LogEvent::ScsiCmdAborted { device },
            EventRef::ScsiSelectionTimeout { device } => LogEvent::ScsiSelectionTimeout { device },
            EventRef::ScsiNoMorePaths { device } => LogEvent::ScsiNoMorePaths { device },
            EventRef::ScsiPathFailover { device } => LogEvent::ScsiPathFailover { device },
            EventRef::DiskMediumError { device, sector } => {
                LogEvent::DiskMediumError { device, sector }
            }
            EventRef::ScsiProtocolViolation { device } => {
                LogEvent::ScsiProtocolViolation { device }
            }
            EventRef::ScsiSlowResponse { device, latency_ms } => {
                LogEvent::ScsiSlowResponse { device, latency_ms }
            }
            EventRef::RaidDiskMissing { device, serial } => LogEvent::RaidDiskMissing {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidDiskFailed { device, serial } => LogEvent::RaidDiskFailed {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidProtocolError { device, serial } => LogEvent::RaidProtocolError {
                device,
                serial: serial.to_owned(),
            },
            EventRef::RaidDiskSlow { device, serial } => LogEvent::RaidDiskSlow {
                device,
                serial: serial.to_owned(),
            },
            EventRef::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => LogEvent::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            },
            EventRef::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => LogEvent::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            },
            EventRef::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => LogEvent::CfgRaidGroup {
                rg,
                raid_type,
                slots: slots.to_vec(),
            },
            EventRef::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => LogEvent::CfgDiskInstall {
                serial: serial.to_owned(),
                model,
                slot,
                device,
            },
            EventRef::CfgDiskRemove { serial, reason } => LogEvent::CfgDiskRemove {
                serial: serial.to_owned(),
                reason: reason.to_owned(),
            },
        }
    }

    /// Borrows a view from an owned event (the owned feed path delegates
    /// through this, so both paths share one classifier implementation).
    pub fn from_owned(event: &'a LogEvent) -> EventRef<'a> {
        match event {
            LogEvent::FciDeviceTimeout { device } => EventRef::FciDeviceTimeout { device: *device },
            LogEvent::FciAdapterReset { adapter } => {
                EventRef::FciAdapterReset { adapter: *adapter }
            }
            LogEvent::ScsiCmdAborted { device } => EventRef::ScsiCmdAborted { device: *device },
            LogEvent::ScsiSelectionTimeout { device } => {
                EventRef::ScsiSelectionTimeout { device: *device }
            }
            LogEvent::ScsiNoMorePaths { device } => EventRef::ScsiNoMorePaths { device: *device },
            LogEvent::ScsiPathFailover { device } => EventRef::ScsiPathFailover { device: *device },
            LogEvent::DiskMediumError { device, sector } => EventRef::DiskMediumError {
                device: *device,
                sector: *sector,
            },
            LogEvent::ScsiProtocolViolation { device } => {
                EventRef::ScsiProtocolViolation { device: *device }
            }
            LogEvent::ScsiSlowResponse { device, latency_ms } => EventRef::ScsiSlowResponse {
                device: *device,
                latency_ms: *latency_ms,
            },
            LogEvent::RaidDiskMissing { device, serial } => EventRef::RaidDiskMissing {
                device: *device,
                serial,
            },
            LogEvent::RaidDiskFailed { device, serial } => EventRef::RaidDiskFailed {
                device: *device,
                serial,
            },
            LogEvent::RaidProtocolError { device, serial } => EventRef::RaidProtocolError {
                device: *device,
                serial,
            },
            LogEvent::RaidDiskSlow { device, serial } => EventRef::RaidDiskSlow {
                device: *device,
                serial,
            },
            LogEvent::CfgSystem {
                class,
                disk_model,
                shelf_model,
                paths,
                layout,
            } => EventRef::CfgSystem {
                class: *class,
                disk_model: *disk_model,
                shelf_model: *shelf_model,
                paths: *paths,
                layout: *layout,
            },
            LogEvent::CfgShelf {
                shelf,
                model,
                fc_loop,
                adapter,
                position,
                bays,
            } => EventRef::CfgShelf {
                shelf: *shelf,
                model: *model,
                fc_loop: *fc_loop,
                adapter: *adapter,
                position: *position,
                bays: *bays,
            },
            LogEvent::CfgRaidGroup {
                rg,
                raid_type,
                slots,
            } => EventRef::CfgRaidGroup {
                rg: *rg,
                raid_type: *raid_type,
                slots: SlotsRef::Slice(slots),
            },
            LogEvent::CfgDiskInstall {
                serial,
                model,
                slot,
                device,
            } => EventRef::CfgDiskInstall {
                serial,
                model: *model,
                slot: *slot,
                device: *device,
            },
            LogEvent::CfgDiskRemove { serial, reason } => {
                EventRef::CfgDiskRemove { serial, reason }
            }
        }
    }

    /// The interned tag for this event's variant.
    pub fn tag(&self) -> TagId {
        match self {
            EventRef::FciDeviceTimeout { .. } => TagId::FciDeviceTimeout,
            EventRef::FciAdapterReset { .. } => TagId::FciAdapterReset,
            EventRef::ScsiCmdAborted { .. } => TagId::ScsiCmdAborted,
            EventRef::ScsiSelectionTimeout { .. } => TagId::ScsiSelectionTimeout,
            EventRef::ScsiNoMorePaths { .. } => TagId::ScsiNoMorePaths,
            EventRef::ScsiPathFailover { .. } => TagId::ScsiPathFailover,
            EventRef::DiskMediumError { .. } => TagId::DiskMediumError,
            EventRef::ScsiProtocolViolation { .. } => TagId::ScsiProtocolViolation,
            EventRef::ScsiSlowResponse { .. } => TagId::ScsiSlowResponse,
            EventRef::RaidDiskMissing { .. } => TagId::RaidDiskMissing,
            EventRef::RaidDiskFailed { .. } => TagId::RaidDiskFailed,
            EventRef::RaidProtocolError { .. } => TagId::RaidProtocolError,
            EventRef::RaidDiskSlow { .. } => TagId::RaidDiskSlow,
            EventRef::CfgSystem { .. } => TagId::CfgSystem,
            EventRef::CfgShelf { .. } => TagId::CfgShelf,
            EventRef::CfgRaidGroup { .. } => TagId::CfgRaidGroup,
            EventRef::CfgDiskInstall { .. } => TagId::CfgDiskInstall,
            EventRef::CfgDiskRemove { .. } => TagId::CfgDiskRemove,
        }
    }
}

/// Borrowed twin of [`LogLine`]: one parsed line whose event borrows
/// from the input text. The lifetime ties the view to the chunk buffer
/// (or mmap'd segment) it was parsed from.
#[derive(Debug, Clone, Copy)]
pub struct LogLineRef<'a> {
    /// The storage system that emitted the line.
    pub host: SystemId,
    /// When the line was emitted.
    pub at: SimTime,
    /// The interned subsystem tag.
    pub tag: TagId,
    /// The typed event, borrowing its strings from the line.
    pub event: EventRef<'a>,
}

impl<'a> LogLineRef<'a> {
    /// Parses one rendered line without allocating.
    ///
    /// Returns `None` for malformed lines, including a severity that
    /// disagrees with the tag's fixed [`TagId::severity`].
    pub fn parse(line: &'a str) -> Option<LogLineRef<'a>> {
        Self::parse_canonical(line).or_else(|| Self::parse_general(line))
    }

    /// The general line parser: whitespace-tolerant token splitting, the
    /// reference every fast path in [`LogLineRef::parse`] bails to.
    fn parse_general(line: &'a str) -> Option<LogLineRef<'a>> {
        let line = line.trim_end();
        let (host_tok, rest) = line.split_once(' ')?;
        let host = SystemId(host_tok.strip_prefix("sys-")?.parse().ok()?);
        let rest = rest.trim_start();
        let bracket = rest.find('[')?;
        let ts_text = rest[..bracket].trim();
        let at = SimTime::parse_log_timestamp(ts_text)?;
        let rest = &rest[bracket + 1..];
        let close = rest.find("]: ")?;
        let (tag_text, severity_tag) = rest[..close].rsplit_once(':')?;
        let severity = Severity::from_tag(severity_tag)?;
        let message = &rest[close + 3..];
        let tag = TagId::lookup(tag_text)?;
        let event = EventRef::parse(tag, message)?;
        if tag.severity() != severity {
            return None;
        }
        Some(LogLineRef {
            host,
            at,
            tag,
            event,
        })
    }

    /// Single-byte-walk fast path for the renderer's exact line layout:
    /// `sys-D Www Mmm dd HH:MM:SS TZm yyyy [tag:sev]: msg` with single
    /// separators and nothing trailing. Any deviation — extra spaces,
    /// trailing whitespace, a non-ASCII byte anywhere it would change
    /// tokenization — returns `None` so the general path above makes the
    /// call.
    fn parse_canonical(line: &'a str) -> Option<LogLineRef<'a>> {
        let b = line.as_bytes();
        // `trim_end` must be an identity: last byte ASCII and non-space.
        // (Unicode whitespace ends in a 0x80+ byte, so this check covers
        // multi-byte trailers too.)
        let &last = b.last()?;
        if last >= 0x80 || ascii_space(last) {
            return None;
        }
        let rest = b.strip_prefix(b"sys-")?;
        let (host, rest) = strip_u32(rest)?;
        let rest = rest.strip_prefix(b" ")?;
        // The timestamp region is exactly 28 canonical bytes followed by
        // ` [`; `SimTime::parse_log_timestamp` re-checks the layout and
        // bails (to the general path) on anything non-canonical. The `[`
        // scan keeps the general parser's bracket search honest: its
        // `find('[')` must land on byte 29, not inside a free-content
        // weekday/timezone token.
        if rest.len() < 30 || rest[28] != b' ' || rest[29] != b'[' || rest[..28].contains(&b'[') {
            return None;
        }
        let ts = std::str::from_utf8(&rest[..28]).ok()?;
        let at = SimTime::parse_log_timestamp(ts)?;
        let offset = line.len() - rest.len() + 30;
        let rest = &line[offset..];
        // First `]` must begin the `]: ` separator, and the bracket body
        // must hold exactly one `:` — the general parser splits on the
        // *last* colon, which only coincides with this reading in the
        // canonical single-colon case.
        let close = rest.find(']')?;
        let inside = &rest[..close];
        if !rest[close..].starts_with("]: ") {
            return None;
        }
        let colon = inside.find(':')?;
        let (tag_text, severity_tag) = (&inside[..colon], &inside[colon + 1..]);
        if severity_tag.contains(':') {
            return None;
        }
        let severity = Severity::from_tag(severity_tag)?;
        let message = &rest[close + 3..];
        let tag = TagId::lookup(tag_text)?;
        let event = EventRef::parse(tag, message)?;
        if tag.severity() != severity {
            return None;
        }
        Some(LogLineRef {
            host: SystemId(host),
            at,
            tag,
            event,
        })
    }

    /// Converts the view into an owned [`LogLine`].
    pub fn to_owned(&self) -> LogLine {
        LogLine {
            host: self.host,
            at: self.at,
            event: self.event.to_owned(),
        }
    }

    /// Borrows a view from an owned line.
    pub fn from_owned(line: &'a LogLine) -> LogLineRef<'a> {
        let event = EventRef::from_owned(&line.event);
        LogLineRef {
            host: line.host,
            at: line.at,
            tag: event.tag(),
            event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use ssfa_model::{CivilDateTime, DiskInstanceId};

    /// A `u32` id over the type's full range: uniform, with one draw in
    /// two landing on an edge — 0, either side of `u16::MAX`, or
    /// `u32::MAX`.
    fn id_u32() -> impl Strategy<Value = u32> {
        (0usize..8, 0u32..=u32::MAX).prop_map(|(pick, v)| {
            [0, u16::MAX as u32, u16::MAX as u32 + 1, u32::MAX]
                .get(pick)
                .copied()
                .unwrap_or(v)
        })
    }

    /// A `u8` field over its full range, with the same edge weighting: 0,
    /// 15 and 16 (the dense bay stride), 255.
    fn id_u8() -> impl Strategy<Value = u8> {
        (0usize..8, 0u8..=u8::MAX)
            .prop_map(|(pick, v)| [0, 15, 16, u8::MAX].get(pick).copied().unwrap_or(v))
    }

    /// Generated events of all 18 variants: `kind` picks the variant and
    /// the remaining draws fill its fields across their full ranges.
    fn arb_event() -> impl Strategy<Value = LogEvent> {
        (
            0usize..18,
            (id_u8(), id_u8(), id_u8()),
            0u64..36u64.pow(8),
            (0u64..u64::MAX, id_u32(), id_u32()),
            (0usize..4, 0usize..6, b'A'..=b'Z', 1u8..=255),
            vec((id_u32(), id_u8()), 1..5),
        )
            .prop_map(
                |(
                    kind,
                    (adapter, target, small),
                    n,
                    (big, mid, id),
                    (class, pick, family, cap),
                    slots,
                )| {
                    let device = DeviceAddr::new(adapter, target);
                    let serial = DiskInstanceId(n).serial();
                    let model = DiskModelId::new(family as char, cap);
                    match kind {
                        0 => LogEvent::FciDeviceTimeout { device },
                        1 => LogEvent::FciAdapterReset { adapter },
                        2 => LogEvent::ScsiCmdAborted { device },
                        3 => LogEvent::ScsiSelectionTimeout { device },
                        4 => LogEvent::ScsiNoMorePaths { device },
                        5 => LogEvent::ScsiPathFailover { device },
                        6 => LogEvent::DiskMediumError {
                            device,
                            sector: big,
                        },
                        7 => LogEvent::ScsiProtocolViolation { device },
                        8 => LogEvent::ScsiSlowResponse {
                            device,
                            latency_ms: mid,
                        },
                        9 => LogEvent::RaidDiskMissing { device, serial },
                        10 => LogEvent::RaidDiskFailed { device, serial },
                        11 => LogEvent::RaidProtocolError { device, serial },
                        12 => LogEvent::RaidDiskSlow { device, serial },
                        13 => LogEvent::CfgSystem {
                            class: SystemClass::ALL[class],
                            disk_model: model,
                            shelf_model: ShelfModel::ALL[pick % 3],
                            paths: PathConfig::ALL[pick % 2],
                            layout: [LayoutPolicy::SpanShelves, LayoutPolicy::SameShelf][pick / 3],
                        },
                        14 => LogEvent::CfgShelf {
                            shelf: ShelfId(id),
                            model: ShelfModel::ALL[pick % 3],
                            fc_loop: LoopId(mid),
                            adapter,
                            position: target,
                            bays: small,
                        },
                        15 => LogEvent::CfgRaidGroup {
                            rg: RaidGroupId(id),
                            raid_type: RaidType::ALL[pick % 2],
                            slots: slots
                                .into_iter()
                                .map(|(shelf, bay)| SlotAddr {
                                    shelf: ShelfId(shelf),
                                    bay,
                                })
                                .collect(),
                        },
                        16 => LogEvent::CfgDiskInstall {
                            serial,
                            model,
                            slot: SlotAddr {
                                shelf: ShelfId(id),
                                bay: small,
                            },
                            device,
                        },
                        _ => LogEvent::CfgDiskRemove {
                            serial,
                            reason: ["failed", "study_end"][pick % 2].to_owned(),
                        },
                    }
                },
            )
    }

    /// One rendered line per variant — the seeds the mutation generators
    /// below edit.
    fn sample_lines() -> Vec<String> {
        let d = DeviceAddr::new(8, 24);
        let serial = DiskInstanceId(31337).serial();
        let events = vec![
            LogEvent::FciDeviceTimeout { device: d },
            LogEvent::FciAdapterReset { adapter: 8 },
            LogEvent::ScsiCmdAborted { device: d },
            LogEvent::ScsiSelectionTimeout { device: d },
            LogEvent::ScsiNoMorePaths { device: d },
            LogEvent::ScsiPathFailover { device: d },
            LogEvent::DiskMediumError {
                device: d,
                sector: 123_456_789,
            },
            LogEvent::ScsiProtocolViolation { device: d },
            LogEvent::ScsiSlowResponse {
                device: d,
                latency_ms: 30_000,
            },
            LogEvent::RaidDiskMissing {
                device: d,
                serial: serial.clone(),
            },
            LogEvent::RaidDiskFailed {
                device: d,
                serial: serial.clone(),
            },
            LogEvent::RaidProtocolError {
                device: d,
                serial: serial.clone(),
            },
            LogEvent::RaidDiskSlow {
                device: d,
                serial: serial.clone(),
            },
            LogEvent::CfgSystem {
                class: SystemClass::MidRange,
                disk_model: DiskModelId::new('D', 2),
                shelf_model: ShelfModel::B,
                paths: PathConfig::DualPath,
                layout: LayoutPolicy::SpanShelves,
            },
            LogEvent::CfgShelf {
                shelf: ShelfId(1234),
                model: ShelfModel::C,
                fc_loop: LoopId(88),
                adapter: 9,
                position: 2,
                bays: 13,
            },
            LogEvent::CfgRaidGroup {
                rg: RaidGroupId(55),
                raid_type: RaidType::Raid6,
                slots: vec![
                    SlotAddr {
                        shelf: ShelfId(1),
                        bay: 0,
                    },
                    SlotAddr {
                        shelf: ShelfId(2),
                        bay: 7,
                    },
                ],
            },
            LogEvent::CfgDiskInstall {
                serial: serial.clone(),
                model: DiskModelId::new('H', 2),
                slot: SlotAddr {
                    shelf: ShelfId(9),
                    bay: 13,
                },
                device: DeviceAddr::new(8, 45),
            },
            LogEvent::CfgDiskRemove {
                serial,
                reason: "failed".to_owned(),
            },
        ];
        events
            .into_iter()
            .map(|event| {
                LogLine::new(SystemId(42), SimTime::from_secs(79_876_543), event).to_string()
            })
            .collect()
    }

    /// The bail property on one input: every fast path in this module
    /// returns `None` or exactly its general counterpart's answer, and
    /// every composed entry point equals its general-only answer, so a
    /// dropped fallback fails here too. The message-level checks run on
    /// the text after `]: ` (or the whole input when there is none) under
    /// every key set the parser scans with.
    fn assert_fast_paths_agree(line: &str) -> Result<(), TestCaseError> {
        let general = LogLineRef::parse_general(line).map(|v| v.to_owned());
        if let Some(fast) = LogLineRef::parse_canonical(line) {
            prop_assert_eq!(
                Some(fast.to_owned()),
                general.clone(),
                "parse_canonical on {:?}",
                line
            );
        }
        prop_assert_eq!(
            LogLineRef::parse(line).map(|v| v.to_owned()),
            general,
            "LogLineRef::parse on {:?}",
            line
        );
        let msg = line.split_once("]: ").map_or(line, |(_, msg)| msg);
        let general = parse_disk_install(msg).map(|e| e.to_owned());
        if let Some(fast) = parse_disk_install_fast(msg) {
            prop_assert_eq!(
                Some(fast.to_owned()),
                general.clone(),
                "disk install fast path on {:?}",
                msg
            );
        }
        prop_assert_eq!(
            EventRef::parse(TagId::CfgDiskInstall, msg).map(|e| e.to_owned()),
            general,
            "cfg.disk.install parse on {:?}",
            msg
        );
        kv_paths_agree(
            msg,
            ["class", "disk_model", "shelf_model", "paths", "layout"],
        )?;
        kv_paths_agree(
            msg,
            ["shelf", "model", "loop", "adapter", "position", "bays"],
        )?;
        kv_paths_agree(msg, ["rg", "type", "slots"])?;
        kv_paths_agree(msg, ["serial", "model", "shelf", "bay", "device"])?;
        kv_paths_agree(msg, ["serial", "reason"])
    }

    /// `canonical_kv` against the byte scan, the byte scan against the
    /// Unicode token scan, and the composed `kv_scan` against the Unicode
    /// token scan alone.
    fn kv_paths_agree<const N: usize>(msg: &str, keys: [&str; N]) -> Result<(), TestCaseError> {
        let general = kv_scan_unicode(msg, keys);
        let bytes = kv_scan_ascii(msg, keys);
        if let Some(fast) = bytes {
            prop_assert_eq!(fast, general, "byte scan on {:?}", msg);
        }
        if let Some(fast) = canonical_kv(msg, keys) {
            prop_assert_eq!(Some(fast), bytes, "canonical_kv on {:?}", msg);
        }
        prop_assert_eq!(kv_scan(msg, keys), general, "kv_scan on {:?}", msg);
        Ok(())
    }

    proptest! {
        /// Render then parse is the identity, for every variant.
        #[test]
        fn every_rendered_line_parses_back_to_itself(
            host in id_u32(),
            secs in 0u64..400_000_000,
            event in arb_event(),
        ) {
            let line = LogLine::new(SystemId(host), SimTime::from_secs(secs), event);
            let text = line.to_string();
            prop_assert_eq!(LogLine::parse(&text), Some(line), "round trip of {:?}", text);
            assert_fast_paths_agree(&text)?;
        }

        /// Arbitrary unicode soup.
        #[test]
        fn arbitrary_input_takes_the_general_verdict(line in ".{0,200}") {
            assert_fast_paths_agree(&line)?;
        }

        /// Near-miss lines with the right skeleton but fuzzed fields.
        #[test]
        fn near_miss_lines_take_the_general_verdict(
            host in "[0-9+ ]{0,12}",
            ts in "[A-Za-z0-9 :+\\[\\]]{0,40}",
            tag in "[a-z.:]{0,24}",
            sev in "[a-z:]{0,10}",
            payload in "[a-z0-9=. \\-]{0,80}",
        ) {
            assert_fast_paths_agree(&format!("sys-{host} {ts} [{tag}:{sev}]: {payload}"))?;
        }

        /// Trailing whitespace and extra interior spaces keep the line
        /// valid for the general path but break fixed offsets.
        #[test]
        fn padded_lines_take_the_general_verdict(extra_ws in 0usize..4, trailing in "[ \t]{0,3}") {
            for line in sample_lines() {
                prop_assert!(LogLine::parse(&line).is_some(), "rendered line must parse: {}", line);
                assert_fast_paths_agree(&line)?;
                assert_fast_paths_agree(&format!("{line}{trailing}"))?;
                assert_fast_paths_agree(&line.replacen(' ', &" ".repeat(1 + extra_ws), 3))?;
            }
        }

        /// Single-character deletion at every position: shifts every
        /// fixed offset.
        #[test]
        fn single_character_deletion_takes_the_general_verdict(idx in 0usize..200) {
            for line in sample_lines() {
                if idx < line.len() && line.is_char_boundary(idx) && line.is_char_boundary(idx + 1) {
                    assert_fast_paths_agree(&format!("{}{}", &line[..idx], &line[idx + 1..]))?;
                }
            }
        }

        /// Truncation at every char boundary, mid-message and
        /// mid-timestamp included.
        #[test]
        fn prefix_truncation_takes_the_general_verdict(idx in 0usize..200) {
            for line in sample_lines() {
                if idx < line.len() && line.is_char_boundary(idx) {
                    assert_fast_paths_agree(&line[..idx])?;
                }
            }
        }

        /// Single-character substitution with the characters that gate
        /// fast-path branches: signs, separators, brackets, NUL, a
        /// non-ASCII char, and Unicode whitespace.
        #[test]
        fn single_character_substitution_takes_the_general_verdict(
            idx in 0usize..200,
            pick in 0usize..12,
        ) {
            let repl = ['+', '-', ' ', ':', '[', ']', '=', '0', '\u{0}', '\u{e9}', '\u{a0}', '\u{2028}'][pick];
            for line in sample_lines() {
                if idx < line.len() && line.is_char_boundary(idx) && line.is_char_boundary(idx + 1) {
                    assert_fast_paths_agree(&format!("{}{repl}{}", &line[..idx], &line[idx + 1..]))?;
                }
            }
        }
    }

    proptest! {
        // Enough cases that every variant, installs included, meets
        // shelves past `u16::MAX` many times over.
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Fast-path coverage: the renderer's own output never needs a
        /// fallback. `parse_canonical` accepts every rendered line, the
        /// fused decoder every rendered install, and `canonical_kv` every
        /// rendered `k=v` message, with every id drawn over its type's
        /// full range.
        #[test]
        fn every_rendered_line_takes_the_fast_paths(
            host in id_u32(),
            secs in 0u64..400_000_000,
            event in arb_event(),
        ) {
            let line = LogLine::new(SystemId(host), SimTime::from_secs(secs), event);
            let text = line.to_string();
            prop_assert_eq!(
                LogLineRef::parse_canonical(&text).map(|v| v.to_owned()),
                Some(line.clone()),
                "parse_canonical bailed on {:?}",
                text
            );
            let (_, msg) = text.split_once("]: ").expect("rendered separator");
            let fast = match line.event {
                LogEvent::CfgDiskInstall { .. } => parse_disk_install_fast(msg).is_some(),
                LogEvent::CfgSystem { .. } => canonical_kv(
                    msg,
                    ["class", "disk_model", "shelf_model", "paths", "layout"],
                )
                .is_some(),
                LogEvent::CfgShelf { .. } => canonical_kv(
                    msg,
                    ["shelf", "model", "loop", "adapter", "position", "bays"],
                )
                .is_some(),
                LogEvent::CfgRaidGroup { .. } => {
                    canonical_kv(msg, ["rg", "type", "slots"]).is_some()
                }
                LogEvent::CfgDiskRemove { .. } => {
                    canonical_kv(msg, ["serial", "reason"]).is_some()
                }
                _ => true,
            };
            prop_assert!(fast, "a message fast path bailed on {:?}", msg);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `cfg.disk.install` payloads: signed numerals (std `parse`
        /// accepts a leading `+`), zero and overflowed fields, duplicate
        /// keys, reordered keys, junk tails, and non-ASCII whitespace.
        /// Half the cases keep a plain family letter and the plain layout,
        /// and at most one field is signed, so the fused decoder runs to
        /// completion often enough to be tested.
        #[test]
        fn disk_install_payloads_take_the_general_verdict(
            serial in "[A-Z0-9+]{0,12}",
            family in "[A-Za-z+]{0,2}",
            plain_family in 0u8..2,
            cap in 0u64..400,
            cap_edge in 0usize..4,
            shelf in 0u64..80_000,
            bay in 0u64..300,
            adapter in 0u64..300,
            target in 0u64..300,
            signed in 0u8..8,
            variant in 0u8..10,
        ) {
            let family = if plain_family == 0 { family } else { "H".to_owned() };
            let cap = [0, 255, 256, cap][cap_edge];
            let p = |field: u8| if field == signed { "+" } else { "" };
            let base = format!(
                "serial={serial} model={family}-{}{cap} shelf={}{shelf} bay={}{bay} device={}{adapter}.{}{target}",
                p(0), p(1), p(2), p(3), p(4),
            );
            let msg = match variant {
                0 => format!("{base} shelf=9"),
                1 => format!("{base} trailing junk"),
                2 => format!("bay={bay} {base}"),
                3 => base.replace(' ', "  "),
                4 => format!("{base}\u{a0}"),
                _ => base,
            };
            assert_fast_paths_agree(&format!(
                "sys-17 Thu Jul 13 12:22:23 PDT 2006 [cfg.disk.install:info]: {msg}"
            ))?;
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let cases = [
            "",
            "garbage line",
            "sys-x Sun Jul 23 05:43:36 PDT 2006 [a:info]: b",
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [unknown.tag:error]: whatever",
            // Severity mismatch.
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [fci.device.timeout:info]: \
             Adapter 8 encountered a device timeout on device 8.24",
            // Truncated payload.
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [raid.config.filesystem.disk.missing:info]: \
             File system Disk 8.24 S/N [",
            // Raid group with a malformed member pair.
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.raidgroup:info]: \
             rg=55 type=RAID6 slots=1:0,borked",
            // Empty member list.
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.raidgroup:info]: rg=55 type=RAID6 slots=",
            // Multi-colon tag: severity splits off the last colon, leaving
            // an unknown tag.
            "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info:info]: \
             serial=3ELAAAAAAAA reason=failed",
            // `[` inside the weekday token: the bracket search lands in the
            // timestamp.
            "sys-1 S[n Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info]: \
             serial=3ELAAAAAAAA reason=failed",
        ];
        for text in cases {
            assert!(LogLine::parse(text).is_none(), "accepted: {text:?}");
        }
    }

    /// Inputs the canonical fast paths bail on, pinned to the general
    /// parser's verdict.
    #[test]
    fn fast_path_seams_take_the_general_verdict() {
        let at = CivilDateTime {
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
        let remove = |host: u32, reason: &str| {
            Some(LogLine::new(
                SystemId(host),
                at,
                LogEvent::CfgDiskRemove {
                    serial: "3ELAAAAAAAA".to_owned(),
                    reason: reason.to_owned(),
                },
            ))
        };
        let cases = [
            // `+`-signed numerals: std `parse` accepts them.
            (
                "sys-+7 Sun Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info]: \
                 serial=3ELAAAAAAAA reason=failed",
                remove(7, "failed"),
            ),
            // Duplicate keys: the last occurrence wins.
            (
                "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info]: \
                 serial=3ELAAAAAAAA reason=study_end reason=failed",
                remove(1, "failed"),
            ),
            // Non-ASCII whitespace separates tokens and trims off the end.
            (
                "sys-1 Sun Jul 23 05:43:36 PDT 2006 [cfg.disk.remove:info]: \
                 serial=3ELAAAAAAAA\u{2028}reason=study_end\u{a0}",
                remove(1, "study_end"),
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(LogLine::parse(text), expected, "{text:?}");
        }
        // Signed numerals in the fused `cfg.disk.install` decoder: it bails
        // and the kv parser accepts.
        let signed = "serial=3ELAAAAAAAA model=B-2 shelf=+3 bay=7 device=8.+24";
        assert!(parse_disk_install_fast(signed).is_none());
        assert_eq!(
            parse_disk_install(signed).map(|event| event.to_owned()),
            Some(LogEvent::CfgDiskInstall {
                serial: "3ELAAAAAAAA".to_owned(),
                model: DiskModelId::new('B', 2),
                slot: SlotAddr {
                    shelf: ShelfId(3),
                    bay: 7,
                },
                device: DeviceAddr::new(8, 24),
            })
        );
    }

    #[test]
    fn from_owned_round_trips_through_to_owned() {
        for text in sample_lines() {
            let owned = LogLine::parse(&text).unwrap();
            let view = LogLineRef::from_owned(&owned);
            assert_eq!(view.tag.as_str(), owned.event.tag());
            assert_eq!(view.to_owned(), owned);
        }
    }
}
