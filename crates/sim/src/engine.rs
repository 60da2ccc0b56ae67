//! The simulation engine: drives all failure processes over a fleet.
//!
//! Systems are simulated independently — each from RNG streams derived
//! deterministically from the run seed and the system's index — so results
//! are exactly reproducible for a (fleet, seed) pair.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::Rng;

use ssfa_model::{
    run_ordered, DiskInstall, DiskInstanceId, FailureType, Fleet, PathConfig, SimDuration, SimTime,
    SlotAddr, StorageSystem,
};

use crate::background::{poisson_process_times, resolve_replacements, span_at, ServiceSpan};
use crate::calibration::{Calibration, EpisodeParams};
use crate::episodes::{assign_hits_to_disks, generate_episodes, Episode};
use crate::occurrence::{DiskRecord, FailureOccurrence, FailureSource, RemovalReason, SimOutput};
use crate::rng::{stream_rng, STREAM_BACKGROUND, STREAM_DETECTION, STREAM_EPISODES};

/// Simulates fleet failure behaviour over the 44-month study window.
#[derive(Debug, Clone)]
pub struct Simulator {
    calibration: Calibration,
}

/// Systems per work item of [`Simulator::run_parallel`]: small enough
/// that two workers stay balanced although fleet order puts the large
/// systems last, large enough that claiming costs nothing.
const SYSTEMS_PER_CHUNK: usize = 64;

/// High bit marking a chunk-local replacement-disk id before the
/// deterministic global renumbering as chunks are appended in order.
const LOCAL_REPLACEMENT_FLAG: u64 = 1 << 63;

/// One chunk's simulation output, its systems in order, with chunk-local
/// replacement ids.
#[derive(Debug, Default)]
struct ChunkResult {
    occurrences: Vec<FailureOccurrence>,
    disks: Vec<DiskRecord>,
    /// Number of replacement instances allocated by the chunk's systems.
    replacements: u64,
}

/// A candidate failure instant before replacement/masking resolution.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    at: SimTime,
    slot_idx: usize,
    failure_type: FailureType,
    source: FailureSource,
}

/// Per-slot static metadata gathered once per system.
struct SlotInfo {
    addr: SlotAddr,
    device: ssfa_model::DeviceAddr,
    raid_group: ssfa_model::RaidGroupId,
    fc_loop: ssfa_model::LoopId,
    /// The disk installed when the system entered the field.
    initial: DiskInstanceId,
}

impl Simulator {
    /// Creates a simulator with the given calibration.
    ///
    /// # Panics
    ///
    /// Panics if the calibration fails [`Calibration::validate`].
    pub fn new(calibration: Calibration) -> Self {
        calibration.validate().expect("invalid calibration");
        Simulator { calibration }
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Runs the simulation, returning every ground-truth occurrence and
    /// disk lifetime record.
    pub fn run(&self, fleet: &Fleet, seed: u64) -> SimOutput {
        self.run_parallel(fleet, seed, 1)
    }

    /// Runs the simulation across `threads` worker threads.
    ///
    /// Workers claim chunks of 64 systems in fleet order through
    /// [`run_ordered`], so the large systems late in the fleet do not
    /// strand one worker, and each chunk's results are appended, in system
    /// order, as soon as the chunks before it are; [`Simulator::run`] is
    /// the same path on one thread. Output is bit-identical for any thread
    /// count: every system draws from RNG streams derived only from
    /// `(seed, system index)`, and replacement-disk instance ids are
    /// assigned as chunks are appended, in system order.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run_parallel(&self, fleet: &Fleet, seed: u64, threads: usize) -> SimOutput {
        assert!(threads > 0, "need at least one worker thread");
        let study_end = SimTime::study_end();
        let systems = fleet.systems();
        let n_chunks = systems.len().div_ceil(SYSTEMS_PER_CHUNK);
        let mut occurrences = Vec::new();
        let mut disks = Vec::new();
        // Replacement ids continue past the fleet's disks, numbered by a
        // prefix sum over the chunks' replacement counts in system order.
        let mut base = fleet.disk_count() as u64;
        let Ok(()) = run_ordered(
            n_chunks,
            threads,
            |chunk| {
                let start = chunk * SYSTEMS_PER_CHUNK;
                let end = (start + SYSTEMS_PER_CHUNK).min(systems.len());
                let mut result = ChunkResult::default();
                for sys in &systems[start..end] {
                    self.simulate_system(fleet, sys, seed, study_end, &mut result);
                }
                Ok::<_, Infallible>(result)
            },
            |_, mut result| {
                let remap = |id: DiskInstanceId| -> DiskInstanceId {
                    if id.0 & LOCAL_REPLACEMENT_FLAG != 0 {
                        DiskInstanceId(base + (id.0 & !LOCAL_REPLACEMENT_FLAG))
                    } else {
                        id
                    }
                };
                for occ in &mut result.occurrences {
                    occ.disk = remap(occ.disk);
                }
                for disk in &mut result.disks {
                    disk.id = remap(disk.id);
                }
                base += result.replacements;
                occurrences.append(&mut result.occurrences);
                disks.append(&mut result.disks);
                Ok(())
            },
        );
        SimOutput::new(occurrences, disks)
    }

    /// Simulates one system, appending its output to `result`.
    fn simulate_system(
        &self,
        fleet: &Fleet,
        sys: &StorageSystem,
        seed: u64,
        study_end: SimTime,
        result: &mut ChunkResult,
    ) {
        let install = sys.installed_at;
        if install >= study_end {
            return;
        }
        let ChunkResult {
            occurrences,
            disks,
            replacements: next_local,
        } = result;
        let window = (install, study_end);
        let cal = &self.calibration;
        let mut bg_rng = stream_rng(seed, STREAM_BACKGROUND, sys.id.0 as u64);
        let mut ep_rng = stream_rng(seed, STREAM_EPISODES, sys.id.0 as u64);
        let mut det_rng = stream_rng(seed, STREAM_DETECTION, sys.id.0 as u64);

        // --- Per-system rates -------------------------------------------
        let spec = fleet
            .disk_catalog()
            .get(sys.disk_model)
            .expect("fleet validated against catalog");
        let class = cal.class_rates(sys.class);
        let shelf_spec = fleet
            .shelf_catalog()
            .get(sys.shelf_model)
            .expect("fleet validated");
        let episode_factor = shelf_spec.episode_rate_factor;

        let disk_total = spec.disk_afr;
        let ic_total = class.interconnect
            * fleet
                .shelf_catalog()
                .interconnect_multiplier(sys.shelf_model, sys.disk_model);
        let proto_total = class.protocol * spec.protocol_factor;
        let perf_total = class.performance * spec.performance_factor;
        let total_rate = |ty: FailureType| match ty {
            FailureType::Disk => disk_total,
            FailureType::PhysicalInterconnect => ic_total,
            FailureType::Protocol => proto_total,
            FailureType::Performance => perf_total,
        };

        // Shelf-scope episode processes, with the enclosure's episode-rate
        // factor applied (keeping each type's total rate constant by
        // compensating in the background share below).
        let scale = |p: EpisodeParams| EpisodeParams {
            rate_share: (p.rate_share * episode_factor).min(1.0),
            ..p
        };
        let shelf_processes: [(EpisodeParams, FailureType); 4] = [
            (scale(cal.shelf_cooling), FailureType::Disk),
            (
                scale(cal.shelf_backplane),
                FailureType::PhysicalInterconnect,
            ),
            (scale(cal.shelf_driver), FailureType::Protocol),
            (scale(cal.shelf_perf), FailureType::Performance),
        ];
        // Background share per type = 1 − (scaled shelf share) − loop share.
        let background_rate = |ty: FailureType| {
            let shelf_share = shelf_processes
                .iter()
                .filter(|(_, t)| *t == ty)
                .map(|(p, _)| p.rate_share)
                .sum::<f64>();
            let loop_share = if ty == FailureType::PhysicalInterconnect {
                cal.loop_network.rate_share
            } else {
                0.0
            };
            total_rate(ty) * (1.0 - shelf_share - loop_share).max(0.0)
        };

        // --- Slot inventory ----------------------------------------------
        // Slots indexed system-locally, shelf rank × bays + bay; shelves
        // and loops reference ranges of this vector. A system's shelves
        // have consecutive ids and one bay count, and its initial disks are
        // one contiguous range (in RAID layout order), which is scattered
        // here into slot order.
        let first_shelf = sys.shelves[0].index();
        let bays = usize::from(fleet.shelf(sys.shelves[0]).bays);
        let mut installs: Vec<Option<&DiskInstall>> = vec![None; sys.shelves.len() * bays];
        for disk in fleet.initial_disks_of(sys) {
            installs[(disk.slot.shelf.index() - first_shelf) * bays + usize::from(disk.slot.bay)] =
                Some(disk);
        }
        let mut slots: Vec<SlotInfo> = Vec::with_capacity(installs.len());
        let mut shelf_slot_ranges: Vec<(usize, usize)> = Vec::with_capacity(sys.shelves.len());
        for &shelf_id in &sys.shelves {
            let shelf = fleet.shelf(shelf_id);
            let start = slots.len();
            for bay in 0..shelf.bays {
                let install = installs[slots.len()].expect("every slot has an initial disk");
                debug_assert_eq!(
                    install.slot,
                    SlotAddr {
                        shelf: shelf_id,
                        bay
                    }
                );
                slots.push(SlotInfo {
                    addr: install.slot,
                    device: shelf.device_addr(bay),
                    raid_group: install.raid_group,
                    fc_loop: shelf.fc_loop,
                    initial: install.id,
                });
            }
            shelf_slot_ranges.push((start, slots.len()));
        }

        // --- Candidate generation ----------------------------------------
        let mut candidates: Vec<Candidate> = Vec::new();

        // Background processes, one per slot per type.
        for ty in FailureType::ALL {
            let rate = background_rate(ty);
            if rate <= 0.0 {
                continue;
            }
            for (slot_idx, _) in slots.iter().enumerate() {
                for at in poisson_process_times(rate, window.0, window.1, &mut bg_rng) {
                    candidates.push(Candidate {
                        at,
                        slot_idx,
                        failure_type: ty,
                        source: FailureSource::Background,
                    });
                }
            }
        }

        // Shelf-scope episodes.
        for (range_idx, &(start, end)) in shelf_slot_ranges.iter().enumerate() {
            let _ = range_idx;
            let scope = end - start;
            for (params, ty) in &shelf_processes {
                let episodes: Vec<Episode> = generate_episodes(
                    total_rate(*ty),
                    scope,
                    window,
                    params,
                    *ty,
                    FailureSource::ShelfEpisode,
                    &mut ep_rng,
                );
                for episode in episodes {
                    let targets = assign_hits_to_disks(&episode, scope, &mut ep_rng);
                    for (&at, local) in episode.hits.iter().zip(targets) {
                        candidates.push(Candidate {
                            at,
                            slot_idx: start + local,
                            failure_type: *ty,
                            source: FailureSource::ShelfEpisode,
                        });
                    }
                }
            }
        }

        // Loop-scope network episodes (physical interconnect).
        for &loop_id in &sys.loops {
            let loop_shelves = &fleet.loops()[loop_id.index()].shelves;
            // Scope: all slots of the loop's shelves, as system-local
            // indices (shelves of a system are contiguous in `slots`).
            let mut scope_slots: Vec<usize> = Vec::new();
            for (&(start, end), &shelf_id) in shelf_slot_ranges.iter().zip(&sys.shelves) {
                if loop_shelves.contains(&shelf_id) {
                    scope_slots.extend(start..end);
                }
            }
            let episodes = generate_episodes(
                ic_total,
                scope_slots.len(),
                window,
                &cal.loop_network,
                FailureType::PhysicalInterconnect,
                FailureSource::LoopEpisode,
                &mut ep_rng,
            );
            for episode in episodes {
                let targets = assign_hits_to_disks(&episode, scope_slots.len(), &mut ep_rng);
                for (&at, local) in episode.hits.iter().zip(targets) {
                    candidates.push(Candidate {
                        at,
                        slot_idx: scope_slots[local],
                        failure_type: FailureType::PhysicalInterconnect,
                        source: FailureSource::LoopEpisode,
                    });
                }
            }
        }

        // --- Replacement resolution & attribution -------------------------
        let replacement_delay = SimDuration::from_days(cal.replacement_delay_days);
        // Per-slot: service spans and the instance id of each span.
        let mut slot_spans: Vec<Vec<ServiceSpan>> = Vec::with_capacity(slots.len());
        let mut slot_instances: Vec<Vec<DiskInstanceId>> = Vec::with_capacity(slots.len());

        // Disk-failure candidates per slot (with their source, for ground
        // truth).
        let mut disk_cands: Vec<Vec<(SimTime, FailureSource)>> = vec![Vec::new(); slots.len()];
        for c in candidates
            .iter()
            .filter(|c| c.failure_type == FailureType::Disk)
        {
            disk_cands[c.slot_idx].push((c.at, c.source));
        }

        for (slot_idx, slot) in slots.iter().enumerate() {
            let mut times: Vec<SimTime> = disk_cands[slot_idx].iter().map(|(t, _)| *t).collect();
            let spans = resolve_replacements(install, study_end, replacement_delay, &mut times);
            disk_cands[slot_idx].sort_unstable_by_key(|(t, _)| *t);

            let mut ids = Vec::with_capacity(spans.len());
            for (i, span) in spans.iter().enumerate() {
                let id = if i == 0 {
                    slot.initial
                } else {
                    // Chunk-local replacement id; the in-order append
                    // rewrites it into the global instance-id space.
                    let id = DiskInstanceId(LOCAL_REPLACEMENT_FLAG | *next_local);
                    *next_local += 1;
                    id
                };
                ids.push(id);
                disks.push(DiskRecord {
                    id,
                    model: sys.disk_model,
                    slot: slot.addr,
                    system: sys.id,
                    raid_group: slot.raid_group,
                    installed_at: span.start,
                    removed_at: span.end,
                    removal_reason: if span.failed_at.is_some() {
                        RemovalReason::Failed
                    } else {
                        RemovalReason::StudyEnded
                    },
                });
                // Emit the disk-failure occurrence that ended this span.
                if let Some(at) = span.failed_at {
                    let source = disk_cands[slot_idx]
                        .iter()
                        .find(|(t, _)| *t == at)
                        .map(|(_, s)| *s)
                        .unwrap_or(FailureSource::Background);
                    if let Some(occ) = self.finish_occurrence(
                        at,
                        FailureType::Disk,
                        source,
                        false,
                        id,
                        slot,
                        sys,
                        study_end,
                        &mut det_rng,
                    ) {
                        occurrences.push(occ);
                    }
                }
            }
            slot_spans.push(spans);
            slot_instances.push(ids);
        }

        // Non-disk candidates: attribute to the instance in service, mask
        // interconnect failures on dual-path systems.
        let dual_path = sys.path_config == PathConfig::DualPath;
        for c in candidates
            .iter()
            .filter(|c| c.failure_type != FailureType::Disk)
        {
            let Some(span_idx) = span_at(&slot_spans[c.slot_idx], c.at) else {
                continue; // slot empty (awaiting replacement)
            };
            let id = slot_instances[c.slot_idx][span_idx];
            let masked = dual_path
                && c.failure_type == FailureType::PhysicalInterconnect
                && det_rng.gen::<f64>() < cal.multipath_mask_probability;
            if let Some(occ) = self.finish_occurrence(
                c.at,
                c.failure_type,
                c.source,
                masked,
                id,
                &slots[c.slot_idx],
                sys,
                study_end,
                &mut det_rng,
            ) {
                occurrences.push(occ);
            }
        }
    }

    /// Applies detection lag and assembles the occurrence record. Returns
    /// `None` for failures whose detection falls outside the study window.
    fn finish_occurrence(
        &self,
        at: SimTime,
        failure_type: FailureType,
        source: FailureSource,
        masked: bool,
        disk: DiskInstanceId,
        slot: &SlotInfo,
        sys: &StorageSystem,
        study_end: SimTime,
        det_rng: &mut StdRng,
    ) -> Option<FailureOccurrence> {
        let lag_secs =
            (det_rng.gen::<f64>() * self.calibration.scrub_interval_hours * 3_600.0) as u64;
        let detected_at = at + SimDuration::from_secs(lag_secs);
        if detected_at >= study_end {
            return None;
        }
        Some(FailureOccurrence {
            occurred_at: at,
            detected_at,
            failure_type,
            source,
            masked,
            disk,
            slot: slot.addr,
            system: sys.id,
            raid_group: slot.raid_group,
            fc_loop: slot.fc_loop,
            device: slot.device,
        })
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new(Calibration::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_model::{FleetConfig, SystemClass};

    fn small_output(seed: u64) -> (Fleet, SimOutput) {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.003), seed);
        let out = Simulator::default().run(&fleet, seed);
        (fleet, out)
    }

    #[test]
    fn simulation_is_deterministic() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), 3);
        let a = Simulator::default().run(&fleet, 3);
        let b = Simulator::default().run(&fleet, 3);
        assert_eq!(a.occurrences(), b.occurrences());
        assert_eq!(a.disks(), b.disks());
        let c = Simulator::default().run(&fleet, 4);
        assert_ne!(a.occurrences().len(), c.occurrences().len());
    }

    #[test]
    fn parallel_output_is_bit_identical_to_serial() {
        let one_system = FleetConfig::paper()
            .scaled(0.0001)
            .only_classes(&[SystemClass::HighEnd]);
        for (config, seed) in [(FleetConfig::paper().scaled(0.004), 77), (one_system, 76)] {
            let fleet = Fleet::build(&config, seed);
            let systems = fleet.systems().len();
            assert!(
                !systems.is_multiple_of(SYSTEMS_PER_CHUNK),
                "{systems} systems leave no partial chunk"
            );
            let sim = Simulator::default();
            let serial = sim.run(&fleet, seed);
            assert!(!serial.disks().is_empty());
            for threads in [2, 3, 4, 8] {
                let parallel = sim.run_parallel(&fleet, seed, threads);
                assert_eq!(
                    serial.occurrences(),
                    parallel.occurrences(),
                    "{systems} systems, {threads} threads"
                );
                assert_eq!(
                    serial.disks(),
                    parallel.disks(),
                    "{systems} systems, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_handles_more_threads_than_systems() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.0001), 78);
        let sim = Simulator::default();
        let serial = sim.run(&fleet, 78);
        let parallel = sim.run_parallel(&fleet, 78, 64);
        assert_eq!(serial.occurrences(), parallel.occurrences());
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_panics() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.0001), 79);
        let _ = Simulator::default().run_parallel(&fleet, 79, 0);
    }

    #[test]
    fn replacement_ids_are_dense_after_initial_range() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.003), 80);
        let out = Simulator::default().run_parallel(&fleet, 80, 4);
        let initial = fleet.disk_count() as u64;
        let mut replacement_ids: Vec<u64> = out
            .disks()
            .iter()
            .filter(|d| d.id.0 >= initial)
            .map(|d| d.id.0)
            .collect();
        replacement_ids.sort_unstable();
        assert!(!replacement_ids.is_empty());
        for (i, id) in replacement_ids.iter().enumerate() {
            assert_eq!(*id, initial + i as u64, "replacement ids must be dense");
        }
    }

    #[test]
    fn all_four_failure_types_occur() {
        let (_, out) = small_output(5);
        let counts = out.exposed_counts();
        for ty in FailureType::ALL {
            assert!(counts.get(ty) > 0, "no {ty} events at all");
        }
    }

    #[test]
    fn detection_lag_is_within_one_scrub_interval() {
        let (_, out) = small_output(6);
        for occ in out.occurrences() {
            let lag = occ.detected_at.duration_since(occ.occurred_at);
            assert!(lag.as_hours() <= 1.0, "lag {lag}");
        }
    }

    #[test]
    fn occurrences_fall_within_study_window() {
        let (_, out) = small_output(7);
        let end = SimTime::study_end();
        for occ in out.occurrences() {
            assert!(occ.detected_at < end);
            assert!(occ.occurred_at.as_secs() > 0);
        }
    }

    #[test]
    fn only_dual_path_interconnect_failures_are_masked() {
        let (fleet, out) = small_output(8);
        let mut saw_masked = false;
        for occ in out.occurrences() {
            if occ.masked {
                saw_masked = true;
                assert_eq!(occ.failure_type, FailureType::PhysicalInterconnect);
                assert_eq!(
                    fleet.system(occ.system).path_config,
                    PathConfig::DualPath,
                    "masked failure on a single-path system"
                );
            }
        }
        assert!(
            saw_masked,
            "expected some masked failures in mid/high-end systems"
        );
    }

    #[test]
    fn masking_probability_near_calibration() {
        let fleet = Fleet::build(
            &FleetConfig::paper()
                .scaled(0.04)
                .only_classes(&[SystemClass::HighEnd]),
            9,
        );
        let out = Simulator::default().run(&fleet, 9);
        let mut masked = 0u64;
        let mut total = 0u64;
        for occ in out
            .occurrences()
            .iter()
            .filter(|o| o.failure_type == FailureType::PhysicalInterconnect)
        {
            if fleet.system(occ.system).path_config == PathConfig::DualPath {
                total += 1;
                masked += occ.masked as u64;
            }
        }
        assert!(
            total > 100,
            "not enough dual-path interconnect failures: {total}"
        );
        let frac = masked as f64 / total as f64;
        assert!((0.45..0.65).contains(&frac), "masked fraction {frac}");
    }

    #[test]
    fn failed_disks_are_replaced_with_new_instances() {
        let (fleet, out) = small_output(10);
        let initial = fleet.disk_count() as u64;
        let replacements: Vec<_> = out.disks().iter().filter(|d| d.id.0 >= initial).collect();
        assert!(!replacements.is_empty(), "no replacements happened");
        // Every replacement record follows a failed record in the same slot.
        for rep in &replacements {
            let predecessor = out
                .disks()
                .iter()
                .filter(|d| d.slot == rep.slot && d.removed_at <= rep.installed_at)
                .max_by_key(|d| d.removed_at)
                .expect("replacement has a predecessor");
            assert_eq!(predecessor.removal_reason, RemovalReason::Failed);
        }
        // Disk-failure occurrences match failed disk records.
        let failed_records = out
            .disks()
            .iter()
            .filter(|d| d.removal_reason == RemovalReason::Failed)
            .count();
        let disk_failures = out
            .occurrences()
            .iter()
            .filter(|o| o.failure_type == FailureType::Disk)
            .count();
        // Detection-window truncation can drop a few occurrences relative
        // to failed records, never the other way.
        assert!(disk_failures <= failed_records);
        assert!(failed_records - disk_failures <= failed_records / 10 + 5);
    }

    #[test]
    fn disk_lifetimes_partition_slot_time() {
        let (_, out) = small_output(11);
        let mut by_slot: std::collections::BTreeMap<_, Vec<&DiskRecord>> =
            std::collections::BTreeMap::new();
        for d in out.disks() {
            by_slot.entry(d.slot).or_default().push(d);
        }
        for (slot, mut recs) in by_slot {
            recs.sort_by_key(|d| d.installed_at);
            for pair in recs.windows(2) {
                assert!(
                    pair[0].removed_at <= pair[1].installed_at,
                    "overlapping lifetimes in {slot}"
                );
            }
            // The last instance either survives to study end, or it failed
            // close enough to the boundary that its replacement would land
            // after the study window (`resolve_replacements` leaves the
            // slot empty in that case).
            let last = recs.last().unwrap();
            if last.removed_at != SimTime::study_end() {
                assert_eq!(
                    last.removal_reason,
                    RemovalReason::Failed,
                    "early-ending last instance must have failed in {slot}"
                );
                let delay = SimDuration::from_days(Calibration::paper().replacement_delay_days);
                assert!(
                    last.removed_at + delay >= SimTime::study_end(),
                    "slot {slot} left empty before the replacement window: \
                     removed at {:?}, study end {:?}",
                    last.removed_at,
                    SimTime::study_end(),
                );
            }
        }
    }

    #[test]
    fn exposure_weighted_event_rate_is_sane() {
        let (_, out) = small_output(12);
        let rate = out.exposed_counts().total() as f64 / out.total_disk_years();
        // Overall subsystem AFR across the mixed fleet: 2%..6%.
        assert!((0.015..0.07).contains(&rate), "overall rate {rate}");
    }

    #[test]
    fn episodes_generate_a_meaningful_share_of_interconnect_failures() {
        let (_, out) = small_output(13);
        let ic: Vec<_> = out
            .occurrences()
            .iter()
            .filter(|o| o.failure_type == FailureType::PhysicalInterconnect)
            .collect();
        let episodic = ic
            .iter()
            .filter(|o| {
                matches!(
                    o.source,
                    FailureSource::ShelfEpisode | FailureSource::LoopEpisode
                )
            })
            .count();
        let frac = episodic as f64 / ic.len() as f64;
        assert!(
            (0.5..0.9).contains(&frac),
            "episodic interconnect fraction {frac}"
        );
    }

    #[test]
    fn without_episodes_ablation_removes_episodic_sources() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.002), 14);
        let out = Simulator::new(Calibration::paper().without_episodes()).run(&fleet, 14);
        assert!(out
            .occurrences()
            .iter()
            .all(|o| o.source == FailureSource::Background));
        // Totals stay in the same ballpark (shares folded into background).
        let base = Simulator::default().run(&fleet, 14);
        let a = out.exposed_counts().total() as f64;
        let b = base.exposed_counts().total() as f64;
        assert!(
            (a / b - 1.0).abs() < 0.25,
            "ablation changed totals too much: {a} vs {b}"
        );
    }
}
