//! The parser's zero-allocation contract, checked on the code that runs.
//!
//! A counting `#[global_allocator]` tallies allocations per thread, so
//! the test harness's parallel tests cannot disturb each other's counts.
//! Two contracts:
//!
//! - `LogLineRef::parse` makes **zero** allocations on every line shape
//!   it meets: the canonical rendering of every event variant, a padded
//!   line (general line and timestamp parsers), a Unicode-whitespace
//!   `k=v` message (the Unicode token scan), a signed-numeral
//!   `cfg.disk.install` (the install fast path bails), and near-miss
//!   lines it rejects.
//! - A warmed classifier's second `feed_bytes` pass over noise lines
//!   makes zero allocations, whole and in odd-sized fragments that split
//!   lines (the tail-reuse path).
//! - `Classifier::new` makes zero allocations (the daemon makes one per
//!   frame), and ids far apart cost a classifier no memory for the gap
//!   between them: two shelves 4,000,000,000 apart, with their RAID
//!   groups, allocate at most [`GAP_BYTES_LIMIT`] bytes.
//!
//! Every parse is also checked against the expected line, so a parser
//! that stopped allocating by rejecting everything fails too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssfa::logs::{Classifier, LogEvent, LogLine, LogLineRef};
use ssfa::model::{
    DeviceAddr, DiskInstanceId, DiskModelId, LayoutPolicy, LoopId, PathConfig, RaidGroupId,
    RaidType, ShelfId, ShelfModel, SimTime, SlotAddr, SystemClass, SystemId,
};

/// The most a classifier may allocate for two shelves, however far apart
/// their ids are.
const GAP_BYTES_LIMIT: u64 = 64 * 1024;

thread_local! {
    /// Allocator calls made by this thread. `const`-initialized and
    /// `Drop`-free, so touching it from inside the allocator never
    /// allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with` rather than `with`: a thread being torn down may still
    // free memory after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// A [`System`]-delegating allocator that counts allocation calls and
/// the bytes they ask for (a `realloc` is one allocator round trip, so it
/// counts too).
struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded verbatim to `System::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded verbatim to `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: forwarded verbatim to `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (result, ALLOCS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread.
fn counting_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let result = f();
    (result, BYTES.with(Cell::get) - before)
}

fn device() -> DeviceAddr {
    DeviceAddr::new(8, 24)
}

fn serial() -> String {
    DiskInstanceId(31337).serial()
}

/// The sample of the variant declared after `event`'s, or `None` after
/// the last. The match has no wildcard arm, so a new `LogEvent` variant
/// does not compile until it is given an arm here and linked into the
/// chain that [`every_variant`] walks.
fn next_variant(event: &LogEvent) -> Option<LogEvent> {
    Some(match event {
        LogEvent::FciDeviceTimeout { .. } => LogEvent::FciAdapterReset { adapter: 8 },
        LogEvent::FciAdapterReset { .. } => LogEvent::ScsiCmdAborted { device: device() },
        LogEvent::ScsiCmdAborted { .. } => LogEvent::ScsiSelectionTimeout { device: device() },
        LogEvent::ScsiSelectionTimeout { .. } => LogEvent::ScsiNoMorePaths { device: device() },
        LogEvent::ScsiNoMorePaths { .. } => LogEvent::ScsiPathFailover { device: device() },
        LogEvent::ScsiPathFailover { .. } => LogEvent::DiskMediumError {
            device: device(),
            sector: 123_456_789,
        },
        LogEvent::DiskMediumError { .. } => LogEvent::ScsiProtocolViolation { device: device() },
        LogEvent::ScsiProtocolViolation { .. } => LogEvent::ScsiSlowResponse {
            device: device(),
            latency_ms: 30_000,
        },
        LogEvent::ScsiSlowResponse { .. } => LogEvent::RaidDiskMissing {
            device: device(),
            serial: serial(),
        },
        LogEvent::RaidDiskMissing { .. } => LogEvent::RaidDiskFailed {
            device: device(),
            serial: serial(),
        },
        LogEvent::RaidDiskFailed { .. } => LogEvent::RaidProtocolError {
            device: device(),
            serial: serial(),
        },
        LogEvent::RaidProtocolError { .. } => LogEvent::RaidDiskSlow {
            device: device(),
            serial: serial(),
        },
        LogEvent::RaidDiskSlow { .. } => LogEvent::CfgSystem {
            class: SystemClass::MidRange,
            disk_model: DiskModelId::new('D', 2),
            shelf_model: ShelfModel::B,
            paths: PathConfig::DualPath,
            layout: LayoutPolicy::SpanShelves,
        },
        LogEvent::CfgSystem { .. } => LogEvent::CfgShelf {
            shelf: ShelfId(1234),
            model: ShelfModel::C,
            fc_loop: LoopId(88),
            adapter: 9,
            position: 2,
            bays: 13,
        },
        LogEvent::CfgShelf { .. } => LogEvent::CfgRaidGroup {
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
        LogEvent::CfgRaidGroup { .. } => install(),
        LogEvent::CfgDiskInstall { .. } => LogEvent::CfgDiskRemove {
            serial: serial(),
            reason: "failed".to_owned(),
        },
        LogEvent::CfgDiskRemove { .. } => return None,
    })
}

fn install() -> LogEvent {
    LogEvent::CfgDiskInstall {
        serial: serial(),
        model: DiskModelId::new('H', 2),
        slot: SlotAddr {
            shelf: ShelfId(9),
            bay: 13,
        },
        device: DeviceAddr::new(8, 45),
    }
}

/// One event per `LogEvent` variant, in declaration order.
fn every_variant() -> Vec<LogEvent> {
    let mut events = vec![LogEvent::FciDeviceTimeout { device: device() }];
    while let Some(next) = next_variant(events.last().expect("seeded")) {
        events.push(next);
    }
    events
}

fn line(event: LogEvent) -> LogLine {
    LogLine::new(SystemId(42), SimTime::from_secs(79_876_543), event)
}

/// Asserts `text` parses to `expected` without allocating.
fn assert_parses_without_allocating(text: &str, expected: Option<&LogLine>) {
    let (view, allocs) = counting(|| LogLineRef::parse(text));
    assert_eq!(allocs, 0, "LogLineRef::parse allocated on {text:?}");
    assert_eq!(
        view.map(|v| v.to_owned()).as_ref(),
        expected,
        "wrong verdict on {text:?}"
    );
}

#[test]
fn the_variant_list_covers_every_tag() {
    let mut tags: Vec<&str> = every_variant().iter().map(LogEvent::tag).collect();
    tags.sort_unstable();
    let mut all: Vec<&str> = ssfa::logs::intern::ALL_TAGS
        .iter()
        .map(|t| t.as_str())
        .collect();
    all.sort_unstable();
    assert_eq!(tags, all);
}

#[test]
fn canonical_lines_parse_without_allocating() {
    for event in every_variant() {
        let owned = line(event);
        assert_parses_without_allocating(&owned.to_string(), Some(&owned));
    }
}

/// Doubled separators inside the timestamp and trailing whitespace: the
/// canonical line and timestamp fast paths bail, the general parsers
/// decide.
#[test]
fn padded_lines_parse_without_allocating() {
    for event in every_variant() {
        let owned = line(event);
        let padded = format!("{} \t", owned.to_string().replacen(' ', "  ", 3));
        assert_parses_without_allocating(&padded, Some(&owned));
    }
}

/// Unicode line separators between `k=v` tokens: the canonical and byte
/// scans bail, the Unicode token scan decides.
#[test]
fn unicode_whitespace_kv_lines_parse_without_allocating() {
    let kv_lines: Vec<LogLine> = every_variant()
        .into_iter()
        .filter(|event| event.tag().starts_with("cfg."))
        .map(line)
        .collect();
    assert_eq!(kv_lines.len(), 5);
    for owned in &kv_lines {
        let text = owned.to_string();
        let (head, message) = text.split_once("]: ").expect("rendered separator");
        let spaced = format!("{head}]: {}", message.replace(' ', "\u{2028}"));
        assert_parses_without_allocating(&spaced, Some(owned));
    }
}

/// `+`-signed numerals: the fused install decoder bails, the `k=v`
/// parser accepts them as std `parse` does.
#[test]
fn signed_install_lines_parse_without_allocating() {
    let owned = line(install());
    let text = owned.to_string();
    let signed = text
        .replace("shelf=9", "shelf=+9")
        .replace("device=8.45", "device=8.+45");
    assert_ne!(signed, text);
    assert_parses_without_allocating(&signed, Some(&owned));
}

/// Lines one edit away from valid are rejected without allocating.
#[test]
fn near_miss_lines_are_rejected_without_allocating() {
    for event in every_variant() {
        let text = line(event).to_string();
        let (head, _) = text.split_once("]: ").expect("rendered separator");
        let bracket = head.find('[').expect("rendered tag");
        let near_misses = [
            // Empty message.
            format!("{head}]: "),
            // Extra colon in the tag bracket.
            format!("{head}:info]: {}", &text[head.len() + 3..]),
            // Unknown tag.
            text.replacen('[', "[x", 1),
            // Non-numeric host.
            text.replacen("sys-42", "sys-4x", 1),
            // Timestamp cut short.
            format!("{}{}", &head[..bracket - 6], &text[bracket - 1..]),
        ];
        for near_miss in near_misses {
            assert_parses_without_allocating(&near_miss, None);
        }
    }
}

/// Every lower-layer noise variant, rendered `copies` times over.
fn noise_text(copies: usize) -> String {
    let mut one = String::new();
    for event in every_variant() {
        if !event.tag().starts_with("raid.") && !event.tag().starts_with("cfg.") {
            line(event).render_into(&mut one);
            one.push('\n');
        }
    }
    one.repeat(copies)
}

/// Feeds `text` in `fragment`-byte pieces.
fn feed_fragments(classifier: &mut Classifier, text: &str, fragment: usize) {
    for piece in text.as_bytes().chunks(fragment) {
        classifier.feed_bytes(piece).expect("noise parses");
    }
}

#[test]
fn warmed_classifier_feeds_noise_without_allocating() {
    let text = noise_text(256);
    // Fragments that do not divide the line lengths split lines
    // mid-token, so joined tails are fed too.
    for fragment in [text.len(), 4096, 97, 13] {
        let mut classifier = Classifier::new();
        feed_fragments(&mut classifier, &text, fragment);
        let ((), allocs) = counting(|| feed_fragments(&mut classifier, &text, fragment));
        assert_eq!(allocs, 0, "second pass in {fragment}-byte fragments");
    }
}

#[test]
fn creating_a_classifier_does_not_allocate() {
    let (classifier, allocs) = counting(Classifier::new);
    assert_eq!(allocs, 0, "Classifier::new allocated");
    drop(classifier);
}

/// Two 14-bay shelves 4,000,000,000 ids apart, each with a RAID group, in
/// both orders: the classifier's memory follows what the lines declare,
/// not the distance between their ids.
#[test]
fn far_apart_shelf_ids_cost_no_memory_for_the_gap() {
    let shelf_lines = |shelf: u32| {
        let slots = (0..14).map(|bay| SlotAddr {
            shelf: ShelfId(shelf),
            bay,
        });
        let mut text = String::new();
        for event in [
            LogEvent::CfgShelf {
                shelf: ShelfId(shelf),
                model: ShelfModel::C,
                fc_loop: LoopId(shelf),
                adapter: 9,
                position: 0,
                bays: 14,
            },
            LogEvent::CfgRaidGroup {
                rg: RaidGroupId(shelf),
                raid_type: RaidType::Raid6,
                slots: slots.collect(),
            },
        ] {
            line(event).render_into(&mut text);
            text.push('\n');
        }
        text
    };
    for shelves in [[0, 4_000_000_000], [4_000_000_000, 0]] {
        let text: String = shelves.map(shelf_lines).concat();
        let mut classifier = Classifier::new();
        let (fed, bytes) = counting_bytes(|| classifier.feed_bytes(text.as_bytes()));
        fed.expect("shelf lines parse");
        assert!(
            bytes <= GAP_BYTES_LIMIT,
            "shelves {shelves:?} allocated {bytes} bytes"
        );
        let input = classifier.finish().expect("classifies");
        assert_eq!(input.topology.shelves.len(), 2);
        assert_eq!(input.topology.raid_groups.len(), 2);
    }
}
