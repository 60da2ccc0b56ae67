//! Deterministic fault injection for shard corpora.
//!
//! Real AutoSupport archives are not clean: uploads get truncated, lines
//! get garbled in transit, serial numbers reference devices nobody ever
//! configured, and whole system bundles simply never arrive. The analysis
//! has to tolerate — and *account for* — that loss, the way the disk
//! population studies built on lossy field telemetry do. This module is
//! the adversary: a seedable [`FaultInjector`] that corrupts rendered
//! shard text with a configurable mix of faults, while keeping an exact
//! [`FaultLedger`] of what it did and what the classifier is therefore
//! expected to skip.
//!
//! Two properties make the harness usable as a test oracle:
//!
//! 1. **Determinism.** Every decision is drawn from an RNG derived from
//!    `(seed, shard)` alone — never from the worker thread, the attempt
//!    number, or wall-clock — so a run corrupts identically at any thread
//!    count, and a retried shard re-corrupts byte-identically.
//! 2. **Landed-fault accounting.** A fault only counts once it is
//!    guaranteed to have an observable effect. A bit flip that happens to
//!    leave the line parseable is re-rolled (and eventually recorded in
//!    [`FaultLedger::faults_not_landed`]), so
//!    [`FaultLedger::expect_malformed`] and
//!    [`FaultLedger::expect_missing_topology`] predict the lenient
//!    classifier's skip counters *exactly*, not approximately.
//!
//! Structural configuration records (`cfg.system`, `cfg.shelf`,
//! `cfg.raidgroup`) are immune to line corruption: destroying one would
//! cascade into an unpredictable number of `MissingTopology` skips on
//! every later event of that shelf or group, which breaks exact
//! accounting. Disk lifecycle records (`cfg.disk.install` / `.remove`)
//! and event lines carry no such downstream resolution dependency (bay
//! devices are pre-registered by their shelf record) and stay fair game.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssfa_model::DeviceAddr;
use ssfa_sim::rng::derive;

use crate::corpus::is_blank_line;
use crate::event::{LogEvent, LogLine};

/// Domain separator folded into the fault seed so corruption streams never
/// collide with simulation or noise streams derived from the same run seed.
pub(crate) const FAULT_STREAM: u64 = 0xFA01_7500;

/// Device address rewritten into orphaned RAID events. Never declared by
/// any configuration record: shelf records pre-register targets
/// `position * 16 + bay` with per-loop positions and bays far below 16
/// each, so target 255 is unreachable for every fleet configuration.
const ORPHAN_DEVICE: DeviceAddr = DeviceAddr {
    adapter: 255,
    target: 255,
};

/// How many alternative mutations to try before declaring that a fault
/// could not land on a line (e.g. every candidate bit flip left the line
/// parseable — astronomically unlikely, but bounded).
const LANDING_ATTEMPTS: usize = 32;

/// Per-fault rates for one injection run. All line rates are per rendered
/// line, shard rates per shard; a single uniform draw per line picks at
/// most one line fault, so the line rates must sum to at most 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability a line gets one bit flipped (verified to make the line
    /// unparseable; structural `cfg.*` records are immune).
    pub bit_flip_per_line: f64,
    /// Probability a line is truncated at a random byte (verified
    /// unparseable; structural `cfg.*` records are immune).
    pub truncate_line_per_line: f64,
    /// Probability a line is emitted twice.
    pub duplicate_per_line: f64,
    /// Probability a line of non-UTF-8 garbage is inserted after a line.
    pub garbage_per_line: f64,
    /// Probability a RAID event line has its device rewritten to a device
    /// no configuration record ever declared (rate applies only to
    /// `raid.*` lines; other lines are unaffected by this draw).
    pub orphan_per_line: f64,
    /// Probability two adjacent non-`cfg` event lines are swapped.
    pub reorder_per_line: f64,
    /// Probability a whole shard is dropped (upload never arrived).
    pub drop_per_shard: f64,
    /// Probability a shard is cut short mid-line (truncated upload).
    pub truncate_per_shard: f64,
    /// Shards whose worker panics on **every** attempt (simulates a
    /// persistent classify bug → quarantine after the bounded retry).
    pub panic_shards: BTreeSet<usize>,
    /// Shards whose worker panics on the **first** attempt only
    /// (simulates a transient crash → the bounded retry succeeds).
    pub panic_once_shards: BTreeSet<usize>,
}

impl FaultSpec {
    /// No faults at all — the identity spec.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// Every fault kind at the same `rate` (line faults per line, shard
    /// faults per shard), no panics.
    ///
    /// # Panics
    ///
    /// Panics if the implied line-fault total exceeds 1.
    pub fn uniform(rate: f64) -> FaultSpec {
        let spec = FaultSpec {
            bit_flip_per_line: rate,
            truncate_line_per_line: rate,
            duplicate_per_line: rate,
            garbage_per_line: rate,
            orphan_per_line: rate,
            reorder_per_line: rate,
            drop_per_shard: rate,
            truncate_per_shard: rate,
            panic_shards: BTreeSet::new(),
            panic_once_shards: BTreeSet::new(),
        };
        spec.validate();
        spec
    }

    /// Whether this spec can never alter anything.
    pub fn is_none(&self) -> bool {
        self.line_fault_total() == 0.0
            && self.reorder_per_line == 0.0
            && self.drop_per_shard == 0.0
            && self.truncate_per_shard == 0.0
            && self.panic_shards.is_empty()
            && self.panic_once_shards.is_empty()
    }

    fn line_fault_total(&self) -> f64 {
        self.bit_flip_per_line
            + self.truncate_line_per_line
            + self.duplicate_per_line
            + self.garbage_per_line
            + self.orphan_per_line
    }

    /// Asserts every rate is a probability and the single-draw line fault
    /// rates sum to at most 1.
    ///
    /// # Panics
    ///
    /// Panics when a rate is out of range.
    pub fn validate(&self) {
        for (name, rate) in [
            ("bit_flip_per_line", self.bit_flip_per_line),
            ("truncate_line_per_line", self.truncate_line_per_line),
            ("duplicate_per_line", self.duplicate_per_line),
            ("garbage_per_line", self.garbage_per_line),
            ("orphan_per_line", self.orphan_per_line),
            ("reorder_per_line", self.reorder_per_line),
            ("drop_per_shard", self.drop_per_shard),
            ("truncate_per_shard", self.truncate_per_shard),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} = {rate} is not a probability"
            );
        }
        assert!(
            self.line_fault_total() <= 1.0,
            "line fault rates sum to {} > 1",
            self.line_fault_total()
        );
    }
}

/// Exact record of what an injection run did — the oracle the degraded
/// pipeline's `RunHealth` is checked against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Shards the injector examined (processed or dropped).
    pub shards_seen: usize,
    /// Shards dropped whole.
    pub shards_dropped: usize,
    /// Shards cut short mid-corpus.
    pub shards_truncated: usize,
    /// Lines entering the injector across non-dropped shards.
    pub lines_in: u64,
    /// Lines leaving the injector — exactly what the classifier will see.
    pub lines_out: u64,
    /// Complete lines lost to shard truncation.
    pub lines_lost_truncation: u64,
    /// Bit flips that landed (line made unparseable).
    pub bit_flips: u64,
    /// Line truncations that landed (line made unparseable).
    pub line_truncations: u64,
    /// Lines emitted twice.
    pub lines_duplicated: u64,
    /// Adjacent event-line swaps applied.
    pub lines_reordered: u64,
    /// Non-UTF-8 garbage lines inserted.
    pub garbage_lines: u64,
    /// RAID events rewritten to reference an undeclared device.
    pub orphaned_refs: u64,
    /// Faults drawn that could not land (ineligible or revertible) and
    /// were skipped without effect.
    pub faults_not_landed: u64,
    /// Lines the lenient classifier must skip as `Malformed`.
    pub expect_malformed: u64,
    /// Lines the lenient classifier must skip as `MissingTopology`.
    pub expect_missing_topology: u64,
}

impl FaultLedger {
    /// Folds another ledger (e.g. a different shard's) into this one.
    pub fn merge(&mut self, other: &FaultLedger) {
        self.shards_seen += other.shards_seen;
        self.shards_dropped += other.shards_dropped;
        self.shards_truncated += other.shards_truncated;
        self.lines_in += other.lines_in;
        self.lines_out += other.lines_out;
        self.lines_lost_truncation += other.lines_lost_truncation;
        self.bit_flips += other.bit_flips;
        self.line_truncations += other.line_truncations;
        self.lines_duplicated += other.lines_duplicated;
        self.lines_reordered += other.lines_reordered;
        self.garbage_lines += other.garbage_lines;
        self.orphaned_refs += other.orphaned_refs;
        self.faults_not_landed += other.faults_not_landed;
        self.expect_malformed += other.expect_malformed;
        self.expect_missing_topology += other.expect_missing_topology;
    }

    /// Total faults that landed with an observable effect.
    pub fn faults_landed(&self) -> u64 {
        self.bit_flips
            + self.line_truncations
            + self.lines_duplicated
            + self.lines_reordered
            + self.garbage_lines
            + self.orphaned_refs
            + self.lines_lost_truncation
            + self.shards_dropped as u64
    }
}

/// What became of one shard after injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFate {
    /// The (possibly mutated) shard bytes to feed the classifier.
    Processed(Vec<u8>),
    /// The shard never arrived; nothing to feed.
    Dropped,
}

/// The corruption engine: applies a [`FaultSpec`] to shard text with a
/// per-shard RNG derived from the run seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    seed: u64,
}

impl FaultInjector {
    /// An injector for one run.
    ///
    /// # Panics
    ///
    /// Panics if the spec's rates are invalid (see [`FaultSpec::validate`]).
    pub fn new(spec: FaultSpec, seed: u64) -> FaultInjector {
        spec.validate();
        FaultInjector { spec, seed }
    }

    /// The spec in effect.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Corrupts one shard's rendered text, recording every decision in
    /// `ledger`. Deterministic in `(seed, shard)`: the `attempt` number
    /// only controls the deliberate-panic faults, never the corruption
    /// stream, so a retried shard re-corrupts identically.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is listed in [`FaultSpec::panic_shards`], or in
    /// [`FaultSpec::panic_once_shards`] with `attempt == 0` — that *is*
    /// the fault being injected.
    pub fn corrupt_shard(
        &self,
        shard: usize,
        attempt: u32,
        text: &str,
        ledger: &mut FaultLedger,
    ) -> ShardFate {
        if self.spec.panic_shards.contains(&shard)
            || (attempt == 0 && self.spec.panic_once_shards.contains(&shard))
        {
            panic!("fault injection: deliberate worker panic on shard {shard} (attempt {attempt})");
        }

        let mut rng = StdRng::seed_from_u64(derive(derive(self.seed, FAULT_STREAM), shard as u64));
        ledger.shards_seen += 1;

        if rng.gen_bool(self.spec.drop_per_shard) {
            ledger.shards_dropped += 1;
            return ShardFate::Dropped;
        }

        let mut lines: Vec<Vec<u8>> = text
            .split('\n')
            .filter(|l| !l.is_empty())
            .map(|l| l.as_bytes().to_vec())
            .collect();
        ledger.lines_in += lines.len() as u64;

        // Shard truncation first, so later per-line faults only ever touch
        // surviving lines (a fault on a line that then gets cut would leave
        // the ledger overcounting).
        let mut mangled_tail: Option<usize> = None;
        if lines.len() >= 2 && rng.gen_bool(self.spec.truncate_per_shard) {
            let cut = rng.gen_range(0..lines.len());
            let lost = (lines.len() - cut - 1) as u64;
            lines.truncate(cut + 1);
            let tail_landed = truncate_verified(&mut lines[cut], &mut rng);
            if lost > 0 || tail_landed {
                ledger.shards_truncated += 1;
                ledger.lines_lost_truncation += lost;
                if tail_landed {
                    ledger.expect_malformed += 1;
                    mangled_tail = Some(cut);
                }
            } else {
                ledger.faults_not_landed += 1;
            }
        }

        // Per-line faults: one uniform draw per line picks at most one
        // fault, so landed effects never compound on a single line.
        let s = &self.spec;
        let t_flip = s.bit_flip_per_line;
        let t_trunc = t_flip + s.truncate_line_per_line;
        let t_dup = t_trunc + s.duplicate_per_line;
        let t_garbage = t_dup + s.garbage_per_line;
        let t_orphan = t_garbage + s.orphan_per_line;

        let mut out: Vec<Vec<u8>> = Vec::with_capacity(lines.len());
        for (i, mut line) in lines.into_iter().enumerate() {
            if mangled_tail == Some(i) {
                out.push(line);
                continue;
            }
            let r: f64 = rng.gen();
            if r < t_flip {
                if corruptible(&line) && bit_flip_verified(&mut line, &mut rng) {
                    ledger.bit_flips += 1;
                    ledger.expect_malformed += 1;
                } else {
                    ledger.faults_not_landed += 1;
                }
            } else if r < t_trunc {
                if corruptible(&line) && truncate_verified(&mut line, &mut rng) {
                    ledger.line_truncations += 1;
                    ledger.expect_malformed += 1;
                } else {
                    ledger.faults_not_landed += 1;
                }
            } else if r < t_dup {
                ledger.lines_duplicated += 1;
                out.push(line.clone());
            } else if r < t_garbage {
                ledger.garbage_lines += 1;
                ledger.expect_malformed += 1;
                out.push(line);
                out.push(garbage_line(&mut rng));
                continue;
            } else if r < t_orphan {
                // A draw landing on a non-RAID line is not a fault — the
                // orphan rate is defined per RAID line.
                if let Some(orphaned) = orphan_raid_event(&line) {
                    line = orphaned;
                    ledger.orphaned_refs += 1;
                    ledger.expect_missing_topology += 1;
                }
            }
            out.push(line);
        }

        // Reorder pass: swap adjacent pairs only when both are parseable
        // non-`cfg` event lines, so a swap can never move a topology
        // declaration after an event that needs it.
        if s.reorder_per_line > 0.0 {
            for i in 0..out.len().saturating_sub(1) {
                if rng.gen_bool(s.reorder_per_line) {
                    if swappable(&out[i]) && swappable(&out[i + 1]) {
                        out.swap(i, i + 1);
                        ledger.lines_reordered += 1;
                    } else {
                        ledger.faults_not_landed += 1;
                    }
                }
            }
        }

        ledger.lines_out += out.len() as u64;
        let mut bytes = Vec::with_capacity(text.len() + 64);
        for line in &out {
            bytes.extend_from_slice(line);
            bytes.push(b'\n');
        }
        ShardFate::Processed(bytes)
    }
}

/// Domain separator for the wire-level fault stream, distinct from
/// [`FAULT_STREAM`] so corpus corruption and transport corruption drawn
/// from the same run seed never correlate.
pub(crate) const WIRE_FAULT_STREAM: u64 = 0xFA01_7501;

/// Per-frame rates for wire-level fault injection on a framed byte
/// stream (the `ssfad` ingest bus). These model the *transport* failure
/// domain the paper says dominates disks — interconnect and protocol
/// faults between producer and analyzer — rather than data corruption
/// inside a shard: every fault here is visible to (and survivable by)
/// the wire protocol's checksums, cursors, and reconnect machinery.
///
/// A single uniform draw per frame picks at most one fault, so the rates
/// must sum to at most 1 (validated like [`FaultSpec`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireFaultSpec {
    /// Probability a frame is cut mid-transmission and the connection
    /// dropped (models a failing interconnect / abrupt peer death).
    pub cut_per_frame: f64,
    /// Probability the writer stalls before a frame for longer than the
    /// server's idle limit (models a hung HBA or wedged producer; the
    /// server must disconnect, not wait forever).
    pub stall_per_frame: f64,
    /// Probability a frame is transmitted twice (models retransmission
    /// by a confused transport; the receiver must not absorb it twice).
    pub duplicate_per_frame: f64,
    /// Probability a frame is swapped with its successor (models
    /// reordering across a multi-path transport).
    pub swap_per_frame: f64,
    /// Probability a burst of non-protocol garbage precedes the frame
    /// (models a desynchronized or noisy stream; the receiver must
    /// detect it by framing, not crash or mis-absorb).
    pub garbage_per_frame: f64,
}

impl WireFaultSpec {
    /// No wire faults — the identity spec.
    pub fn none() -> WireFaultSpec {
        WireFaultSpec::default()
    }

    /// Every wire fault kind at the same per-frame `rate`.
    ///
    /// # Panics
    ///
    /// Panics if the implied per-frame total exceeds 1.
    pub fn uniform(rate: f64) -> WireFaultSpec {
        let spec = WireFaultSpec {
            cut_per_frame: rate,
            stall_per_frame: rate,
            duplicate_per_frame: rate,
            swap_per_frame: rate,
            garbage_per_frame: rate,
        };
        spec.validate();
        spec
    }

    /// Whether this spec can never perturb the stream.
    pub fn is_none(&self) -> bool {
        self.total() == 0.0
    }

    fn total(&self) -> f64 {
        self.cut_per_frame
            + self.stall_per_frame
            + self.duplicate_per_frame
            + self.swap_per_frame
            + self.garbage_per_frame
    }

    /// Asserts every rate is a probability and the single-draw totals
    /// stay at most 1.
    ///
    /// # Panics
    ///
    /// Panics when a rate is out of range.
    pub fn validate(&self) {
        for (name, rate) in [
            ("cut_per_frame", self.cut_per_frame),
            ("stall_per_frame", self.stall_per_frame),
            ("duplicate_per_frame", self.duplicate_per_frame),
            ("swap_per_frame", self.swap_per_frame),
            ("garbage_per_frame", self.garbage_per_frame),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} = {rate} is not a probability"
            );
        }
        assert!(
            self.total() <= 1.0,
            "wire fault rates sum to {} > 1",
            self.total()
        );
    }
}

/// Exact record of the wire faults one sender injected — what the soak
/// test checks the daemon's recovery accounting against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFaultLedger {
    /// Frames the planner examined.
    pub frames_planned: u64,
    /// Frames cut mid-transmission (each forces a disconnect).
    pub frames_cut: u64,
    /// Stalls inserted before a frame.
    pub stalls: u64,
    /// Frames transmitted twice.
    pub frames_duplicated: u64,
    /// Adjacent frame pairs swapped on the wire.
    pub frames_swapped: u64,
    /// Garbage bursts inserted between frames.
    pub garbage_bursts: u64,
}

impl WireFaultLedger {
    /// Folds another sender's ledger into this one.
    pub fn merge(&mut self, other: &WireFaultLedger) {
        self.frames_planned += other.frames_planned;
        self.frames_cut += other.frames_cut;
        self.stalls += other.stalls;
        self.frames_duplicated += other.frames_duplicated;
        self.frames_swapped += other.frames_swapped;
        self.garbage_bursts += other.garbage_bursts;
    }

    /// Total wire faults injected.
    pub fn faults_injected(&self) -> u64 {
        self.frames_cut
            + self.stalls
            + self.frames_duplicated
            + self.frames_swapped
            + self.garbage_bursts
    }
}

/// How one frame should be perturbed on the wire. Produced by
/// [`WireFaultInjector::plan_frame`]; interpreted by the sender (the
/// daemon's replay agent) because only the sender owns the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAction {
    /// Transmit the frame unmodified.
    Send,
    /// Transmit the frame twice, back to back.
    SendTwice,
    /// Transmit the frame, then transmit the *next* frame before this
    /// one would normally complete — i.e. swap this frame with its
    /// successor. The sender buffers one frame to honor this.
    SwapWithNext,
    /// Transmit only the first `cut_at` bytes of the frame, then drop
    /// the connection. `cut_at` is strictly inside the frame, so the
    /// receiver observes a mid-frame disconnect.
    CutAt(usize),
    /// Pause for at least the receiver's idle limit before transmitting
    /// the frame (a stalled writer; the sender sleeps, the receiver is
    /// expected to hang up).
    StallThenSend,
}

/// One frame's wire plan: optional garbage burst first, then the action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePlan {
    /// Non-protocol bytes to inject before the frame, if any. Never
    /// starts with a valid frame magic, so the receiver's framing layer
    /// is guaranteed to reject it.
    pub pre_garbage: Option<Vec<u8>>,
    /// How to transmit the frame itself.
    pub action: WireAction,
}

impl WirePlan {
    /// The no-fault plan.
    pub fn clean() -> WirePlan {
        WirePlan {
            pre_garbage: None,
            action: WireAction::Send,
        }
    }
}

/// Deterministic wire-fault planner: decisions are drawn from an RNG
/// derived from `(seed, connection attempt)` alone, advanced one draw per
/// frame, so a faulted run replays identically — and a frame that was cut
/// or stalled on attempt `n` is *not* automatically faulted again on
/// attempt `n + 1`, which is what lets a retrying sender converge instead
/// of looping on a deterministic poison frame.
#[derive(Debug, Clone)]
pub struct WireFaultInjector {
    spec: WireFaultSpec,
    seed: u64,
}

impl WireFaultInjector {
    /// An injector for one sender.
    ///
    /// # Panics
    ///
    /// Panics if the spec's rates are invalid (see
    /// [`WireFaultSpec::validate`]).
    pub fn new(spec: WireFaultSpec, seed: u64) -> WireFaultInjector {
        spec.validate();
        WireFaultInjector { spec, seed }
    }

    /// The spec in effect.
    pub fn spec(&self) -> &WireFaultSpec {
        &self.spec
    }

    /// The per-connection-attempt RNG: every frame sent on one attempt
    /// draws from this stream in order.
    pub fn attempt_rng(&self, attempt: u32) -> StdRng {
        StdRng::seed_from_u64(derive(
            derive(self.seed, WIRE_FAULT_STREAM),
            u64::from(attempt),
        ))
    }

    /// Plans one frame's transmission. `rng` must be the
    /// [`WireFaultInjector::attempt_rng`] for the current connection
    /// attempt, advanced only by this method; `frame_len` is the encoded
    /// frame's width (a cut lands strictly inside it); `last` suppresses
    /// `SwapWithNext` (there is no successor to swap with).
    pub fn plan_frame(
        &self,
        rng: &mut StdRng,
        frame_len: usize,
        last: bool,
        ledger: &mut WireFaultLedger,
    ) -> WirePlan {
        ledger.frames_planned += 1;
        let s = &self.spec;
        let t_cut = s.cut_per_frame;
        let t_stall = t_cut + s.stall_per_frame;
        let t_dup = t_stall + s.duplicate_per_frame;
        let t_swap = t_dup + s.swap_per_frame;
        let t_garbage = t_swap + s.garbage_per_frame;
        let r: f64 = rng.gen();
        if r < t_cut && frame_len >= 2 {
            ledger.frames_cut += 1;
            let cut_at = rng.gen_range(1..frame_len);
            return WirePlan {
                pre_garbage: None,
                action: WireAction::CutAt(cut_at),
            };
        }
        if r < t_stall {
            ledger.stalls += 1;
            return WirePlan {
                pre_garbage: None,
                action: WireAction::StallThenSend,
            };
        }
        if r < t_dup {
            ledger.frames_duplicated += 1;
            return WirePlan {
                pre_garbage: None,
                action: WireAction::SendTwice,
            };
        }
        if r < t_swap && !last {
            ledger.frames_swapped += 1;
            return WirePlan {
                pre_garbage: None,
                action: WireAction::SwapWithNext,
            };
        }
        if r < t_garbage {
            ledger.garbage_bursts += 1;
            return WirePlan {
                pre_garbage: Some(garbage_line(rng)),
                action: WireAction::Send,
            };
        }
        WirePlan::clean()
    }
}

/// Parses a candidate line if it is valid UTF-8 and a valid log line.
fn parse_line(raw: &[u8]) -> Option<LogLine> {
    LogLine::parse(std::str::from_utf8(raw).ok()?)
}

/// Whether a line may be destroyed without cascading into unpredictable
/// downstream skips: everything except the structural topology records.
fn corruptible(raw: &[u8]) -> bool {
    match parse_line(raw) {
        Some(line) => !matches!(
            line.event,
            LogEvent::CfgSystem { .. } | LogEvent::CfgShelf { .. } | LogEvent::CfgRaidGroup { .. }
        ),
        // Already unparseable (shouldn't happen for rendered corpora, but
        // be conservative): corrupting it further cannot change counts.
        None => false,
    }
}

/// A mutated line "lands" when it is non-blank and no longer parses —
/// guaranteeing exactly one `Malformed` skip in the lenient classifier,
/// which skips blank lines silently.
fn lands_as_malformed(raw: &[u8]) -> bool {
    !is_blank_line(raw) && parse_line(raw).is_none()
}

/// Flips one random bit so the line no longer parses. Returns `false` if
/// no candidate flip landed within the attempt budget.
fn bit_flip_verified(line: &mut [u8], rng: &mut StdRng) -> bool {
    for _ in 0..LANDING_ATTEMPTS {
        let idx = rng.gen_range(0..line.len());
        let bit = 1u8 << rng.gen_range(0u8..8);
        let flipped = line[idx] ^ bit;
        if flipped == b'\n' {
            continue; // must not split the line in two
        }
        let original = line[idx];
        line[idx] = flipped;
        if lands_as_malformed(line) {
            return true;
        }
        line[idx] = original;
    }
    false
}

/// Truncates the line at a random byte so it no longer parses. Returns
/// `false` if no cut landed within the attempt budget.
fn truncate_verified(line: &mut Vec<u8>, rng: &mut StdRng) -> bool {
    if line.len() < 2 {
        return false;
    }
    for _ in 0..LANDING_ATTEMPTS {
        let cut = rng.gen_range(1..line.len());
        if lands_as_malformed(&line[..cut]) {
            line.truncate(cut);
            return true;
        }
    }
    false
}

/// A short burst of non-UTF-8 bytes: guaranteed malformed (0xFF is never
/// valid in UTF-8) and newline-free.
fn garbage_line(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(4usize..=40);
    let mut bytes = Vec::with_capacity(len);
    bytes.push(0xFF);
    for _ in 1..len {
        bytes.push(rng.gen_range(0x80u8..=0xFE));
    }
    bytes
}

/// Rewrites a RAID event's device to [`ORPHAN_DEVICE`], which no
/// configuration record can declare — the classifier resolves it to a
/// guaranteed `MissingTopology`. Returns `None` for non-RAID lines.
fn orphan_raid_event(raw: &[u8]) -> Option<Vec<u8>> {
    let line = parse_line(raw)?;
    let event = match line.event {
        LogEvent::RaidDiskMissing { serial, .. } => LogEvent::RaidDiskMissing {
            device: ORPHAN_DEVICE,
            serial,
        },
        LogEvent::RaidDiskFailed { serial, .. } => LogEvent::RaidDiskFailed {
            device: ORPHAN_DEVICE,
            serial,
        },
        LogEvent::RaidProtocolError { serial, .. } => LogEvent::RaidProtocolError {
            device: ORPHAN_DEVICE,
            serial,
        },
        LogEvent::RaidDiskSlow { serial, .. } => LogEvent::RaidDiskSlow {
            device: ORPHAN_DEVICE,
            serial,
        },
        _ => return None,
    };
    Some(
        LogLine::new(line.host, line.at, event)
            .to_string()
            .into_bytes(),
    )
}

/// Whether a line may participate in a reorder swap: parseable and not a
/// configuration record of any kind.
fn swappable(raw: &[u8]) -> bool {
    parse_line(raw).is_some_and(|line| !line.event.tag().starts_with("cfg."))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{Classifier, Strictness};
    use crate::render::{render_support_log, NoiseParams};
    use crate::shard::{render_system_log, ShardPlan};
    use crate::CascadeStyle;
    use ssfa_model::{Fleet, FleetConfig};
    use ssfa_sim::Simulator;

    fn shard_text(seed: u64, shard: usize) -> String {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), seed);
        let out = Simulator::default().run(&fleet, seed);
        let plan = ShardPlan::new(&fleet, &out);
        render_system_log(
            &fleet,
            &out,
            &plan,
            shard,
            CascadeStyle::RaidOnly,
            NoiseParams::none(),
            seed,
        )
        .to_text()
    }

    #[test]
    fn wire_zero_spec_plans_clean_frames() {
        let injector = WireFaultInjector::new(WireFaultSpec::none(), 9);
        let mut rng = injector.attempt_rng(0);
        let mut ledger = WireFaultLedger::default();
        for _ in 0..64 {
            assert_eq!(
                injector.plan_frame(&mut rng, 100, false, &mut ledger),
                WirePlan::clean()
            );
        }
        assert_eq!(ledger.frames_planned, 64);
        assert_eq!(ledger.faults_injected(), 0);
    }

    #[test]
    fn wire_plans_are_deterministic_per_attempt() {
        let injector = WireFaultInjector::new(WireFaultSpec::uniform(0.1), 42);
        let plan_all = |attempt: u32| {
            let mut rng = injector.attempt_rng(attempt);
            let mut ledger = WireFaultLedger::default();
            let plans: Vec<WirePlan> = (0..200)
                .map(|i| injector.plan_frame(&mut rng, 80 + i, i == 199, &mut ledger))
                .collect();
            (plans, ledger)
        };
        let (p0a, l0a) = plan_all(0);
        let (p0b, l0b) = plan_all(0);
        assert_eq!(p0a, p0b, "same attempt must replay identically");
        assert_eq!(l0a, l0b);
        let (p1, _) = plan_all(1);
        assert_ne!(p0a, p1, "attempts must draw from distinct streams");
    }

    #[test]
    fn wire_ledger_accounts_for_every_planned_fault() {
        let injector = WireFaultInjector::new(WireFaultSpec::uniform(0.08), 7);
        let mut rng = injector.attempt_rng(2);
        let mut ledger = WireFaultLedger::default();
        let mut counted = WireFaultLedger::default();
        for i in 0..500usize {
            let plan = injector.plan_frame(&mut rng, 120, i == 499, &mut ledger);
            if plan.pre_garbage.is_some() {
                counted.garbage_bursts += 1;
            }
            match plan.action {
                WireAction::Send => {}
                WireAction::SendTwice => counted.frames_duplicated += 1,
                WireAction::SwapWithNext => {
                    assert!(i < 499, "last frame must never swap");
                    counted.frames_swapped += 1;
                }
                WireAction::CutAt(at) => {
                    assert!(
                        (1..120).contains(&at),
                        "cut must land strictly inside the frame"
                    );
                    counted.frames_cut += 1;
                }
                WireAction::StallThenSend => counted.stalls += 1,
            }
        }
        assert_eq!(ledger.frames_planned, 500);
        assert_eq!(ledger.frames_cut, counted.frames_cut);
        assert_eq!(ledger.stalls, counted.stalls);
        assert_eq!(ledger.frames_duplicated, counted.frames_duplicated);
        assert_eq!(ledger.frames_swapped, counted.frames_swapped);
        assert_eq!(ledger.garbage_bursts, counted.garbage_bursts);
        assert!(
            ledger.faults_injected() > 0,
            "an 0.08-uniform spec over 500 frames should land faults"
        );
    }

    #[test]
    fn wire_garbage_never_opens_with_frame_magic() {
        let spec = WireFaultSpec {
            garbage_per_frame: 1.0,
            ..WireFaultSpec::default()
        };
        let injector = WireFaultInjector::new(spec, 3);
        let mut rng = injector.attempt_rng(0);
        let mut ledger = WireFaultLedger::default();
        for _ in 0..100 {
            let plan = injector.plan_frame(&mut rng, 64, false, &mut ledger);
            let garbage = plan.pre_garbage.expect("rate 1.0 must always inject");
            assert!(!garbage.starts_with(&crate::frame::FRAME_MAGIC));
        }
        assert_eq!(ledger.garbage_bursts, 100);
    }

    #[test]
    fn zero_spec_is_identity() {
        let text = shard_text(3, 0);
        let injector = FaultInjector::new(FaultSpec::none(), 7);
        let mut ledger = FaultLedger::default();
        match injector.corrupt_shard(0, 0, &text, &mut ledger) {
            ShardFate::Processed(bytes) => assert_eq!(bytes, text.as_bytes()),
            ShardFate::Dropped => panic!("zero spec dropped a shard"),
        }
        assert_eq!(ledger.faults_landed(), 0);
        assert_eq!(ledger.lines_in, ledger.lines_out);
    }

    #[test]
    fn corruption_is_deterministic_and_attempt_independent() {
        let text = shard_text(5, 1);
        let injector = FaultInjector::new(FaultSpec::uniform(0.05), 11);
        let mut l1 = FaultLedger::default();
        let mut l2 = FaultLedger::default();
        let a = injector.corrupt_shard(1, 0, &text, &mut l1);
        let b = injector.corrupt_shard(1, 3, &text, &mut l2);
        assert_eq!(
            a, b,
            "attempt number must not perturb the corruption stream"
        );
        assert_eq!(l1, l2);
    }

    #[test]
    fn ledger_predicts_lenient_skip_counts_exactly() {
        for seed in [1u64, 2, 9] {
            let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), seed);
            let out = Simulator::default().run(&fleet, seed);
            let plan = ShardPlan::new(&fleet, &out);
            let injector = FaultInjector::new(FaultSpec::uniform(0.04), seed);
            for shard in 0..plan.shard_count() {
                let text = render_system_log(
                    &fleet,
                    &out,
                    &plan,
                    shard,
                    CascadeStyle::RaidOnly,
                    NoiseParams::none(),
                    seed,
                )
                .to_text();
                let mut ledger = FaultLedger::default();
                let bytes = match injector.corrupt_shard(shard, 0, &text, &mut ledger) {
                    ShardFate::Processed(bytes) => bytes,
                    ShardFate::Dropped => continue,
                };
                let mut classifier = Classifier::with_strictness(Strictness::Lenient);
                classifier.feed_bytes(&bytes).unwrap();
                let (_, health) = classifier.finish_with_health().unwrap();
                assert_eq!(health.lines_seen, ledger.lines_out, "shard {shard}");
                assert_eq!(
                    health.malformed_skipped, ledger.expect_malformed,
                    "shard {shard}"
                );
                assert_eq!(
                    health.missing_topology_skipped, ledger.expect_missing_topology,
                    "shard {shard}"
                );
            }
        }
    }

    #[test]
    fn orphan_rewrite_targets_an_undeclared_device() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), 3);
        let out = Simulator::default().run(&fleet, 3);
        let text = render_support_log(&fleet, &out, CascadeStyle::RaidOnly).to_text();
        let mut corpus = Vec::new();
        let mut orphaned = 0;
        for raw in text.lines() {
            match orphan_raid_event(raw.as_bytes()) {
                Some(line) => {
                    corpus.extend_from_slice(&line);
                    orphaned += 1;
                }
                None => corpus.extend_from_slice(raw.as_bytes()),
            }
            corpus.push(b'\n');
        }
        assert!(orphaned > 0, "fixture must carry RAID events");
        let mut classifier = Classifier::lenient();
        classifier.feed_bytes(&corpus).unwrap();
        let (input, health) = classifier.finish_with_health().unwrap();
        assert_eq!(
            health.missing_topology_skipped, orphaned,
            "a fleet declared the orphan device; pick a different sentinel"
        );
        assert!(input.failures.is_empty());
    }

    #[test]
    #[should_panic(expected = "deliberate worker panic")]
    fn panic_shards_panic() {
        let spec = FaultSpec {
            panic_shards: BTreeSet::from([4]),
            ..FaultSpec::none()
        };
        let injector = FaultInjector::new(spec, 0);
        let mut ledger = FaultLedger::default();
        let _ = injector.corrupt_shard(4, 0, "x\n", &mut ledger);
    }

    #[test]
    fn panic_once_shards_recover_on_retry() {
        let spec = FaultSpec {
            panic_once_shards: BTreeSet::from([2]),
            ..FaultSpec::none()
        };
        let injector = FaultInjector::new(spec, 0);
        let text = shard_text(3, 2);
        let mut ledger = FaultLedger::default();
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut scratch = FaultLedger::default();
            injector.corrupt_shard(2, 0, &text, &mut scratch)
        }));
        assert!(first.is_err(), "attempt 0 must panic");
        match injector.corrupt_shard(2, 1, &text, &mut ledger) {
            ShardFate::Processed(bytes) => assert_eq!(bytes, text.as_bytes()),
            ShardFate::Dropped => panic!("retry dropped the shard"),
        }
    }
}
