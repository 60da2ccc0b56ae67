//! Materialized fleet: systems, shelves, loops, RAID groups, and the initial
//! disk population.
//!
//! [`Fleet::build`] turns a [`FleetConfig`] into a concrete topology,
//! deterministically from a seed. The fleet is *static* — it describes
//! layout and the initial installs; disk replacements over the study period
//! are managed by the simulator, which allocates fresh
//! [`DiskInstanceId`]s beyond the initial range.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::class::{PathConfig, SystemClass};
use crate::config::{ClassConfig, FleetConfig};
use crate::disk::DiskModelId;
use crate::id::{DeviceAddr, DiskInstanceId, LoopId, RaidGroupId, ShelfId, SlotAddr, SystemId};
use crate::raid::RaidType;
use crate::shelf::ShelfModel;
use crate::time::SimTime;

/// An FC loop: the physical interconnect shared by a chain of shelves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcLoop {
    /// Fleet-unique loop id.
    pub id: LoopId,
    /// Owning system.
    pub system: SystemId,
    /// Shelves chained on this loop, in chain order.
    pub shelves: Vec<ShelfId>,
}

/// One shelf enclosure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shelf {
    /// Fleet-unique shelf id.
    pub id: ShelfId,
    /// Owning system.
    pub system: SystemId,
    /// Enclosure product model.
    pub model: ShelfModel,
    /// The FC loop this shelf is chained on.
    pub fc_loop: LoopId,
    /// Host adapter number within the system (identifies the loop in logs).
    pub adapter: u8,
    /// Position of this shelf on its loop (0-based), used to derive
    /// device target numbers.
    pub loop_position: u8,
    /// Number of populated bays.
    pub bays: u8,
}

impl Shelf {
    /// Adapter-relative device address of a bay on this shelf, as printed
    /// in support logs (e.g. `8.24`).
    pub fn device_addr(&self, bay: u8) -> DeviceAddr {
        DeviceAddr::new(self.adapter, self.loop_position * 16 + bay)
    }
}

/// One RAID group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaidGroup {
    /// Fleet-unique RAID group id.
    pub id: RaidGroupId,
    /// Owning system.
    pub system: SystemId,
    /// RAID level.
    pub raid_type: RaidType,
    /// Member slots (data + parity).
    pub slots: Vec<SlotAddr>,
}

/// One storage system: a head plus its storage subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageSystem {
    /// Fleet-unique system id.
    pub id: SystemId,
    /// Capability class.
    pub class: SystemClass,
    /// The (single) disk model this system is populated with.
    pub disk_model: DiskModelId,
    /// The (single) shelf enclosure model this system uses.
    pub shelf_model: ShelfModel,
    /// Single or dual FC paths.
    pub path_config: PathConfig,
    /// When the system entered the field.
    pub installed_at: SimTime,
    /// Shelves belonging to this system.
    pub shelves: Vec<ShelfId>,
    /// FC loops belonging to this system.
    pub loops: Vec<LoopId>,
    /// RAID groups belonging to this system.
    pub raid_groups: Vec<RaidGroupId>,
}

/// A disk instance installed in a slot at some time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskInstall {
    /// Instance id (initial installs are `0..Fleet::disk_count()`).
    pub id: DiskInstanceId,
    /// Disk product model.
    pub model: DiskModelId,
    /// Physical position.
    pub slot: SlotAddr,
    /// RAID group membership of the slot.
    pub raid_group: RaidGroupId,
    /// Install time (= system install time for initial installs).
    pub installed_at: SimTime,
}

/// A complete, materialized fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    systems: Vec<StorageSystem>,
    shelves: Vec<Shelf>,
    loops: Vec<FcLoop>,
    raid_groups: Vec<RaidGroup>,
    initial_disks: Vec<DiskInstall>,
    /// `initial_disks[disk_starts[i]..disk_starts[i + 1]]` are system
    /// `i`'s initial disks; one entry per system plus a leading 0.
    disk_starts: Vec<usize>,
    disk_catalog: crate::disk::DiskCatalog,
    shelf_catalog: crate::shelf::ShelfCatalog,
}

impl Fleet {
    /// Materializes a fleet from a configuration, deterministically for a
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`].
    pub fn build(config: &FleetConfig, seed: u64) -> Fleet {
        config.validate().expect("invalid fleet config");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5f_f1ee_7000_0001);
        let study_end = SimTime::study_end().as_secs();

        let mut fleet = Fleet {
            systems: Vec::new(),
            shelves: Vec::new(),
            loops: Vec::new(),
            raid_groups: Vec::new(),
            initial_disks: Vec::new(),
            disk_starts: vec![0],
            disk_catalog: config.disk_catalog.clone(),
            shelf_catalog: config.shelf_catalog.clone(),
        };

        for class_cfg in &config.classes {
            for _ in 0..class_cfg.n_systems {
                fleet.add_system(class_cfg, study_end, &mut rng);
            }
        }
        fleet
    }

    fn add_system(&mut self, cfg: &ClassConfig, study_end: u64, rng: &mut StdRng) {
        let sys_id = SystemId(self.systems.len() as u32);
        let (shelf_model, disk_model) = pick_weighted2(&cfg.mix, rng);
        let path_config = cfg.path_config_for(rng.gen::<f64>());
        let (w0, w1) = cfg.install_window;
        let frac = rng.gen_range(w0..w1.max(w0 + 1e-9));
        let installed_at = SimTime::from_secs((frac * study_end as f64) as u64);

        // Shelf count: mean ± 40%, at least one.
        let spread = cfg.shelves_per_system * 0.4;
        let n_shelves = (rng
            .gen_range(cfg.shelves_per_system - spread..=cfg.shelves_per_system + spread)
            .round() as i64)
            .max(1) as u32;

        let mut shelf_ids = Vec::with_capacity(n_shelves as usize);
        let mut loop_ids = Vec::new();
        // Chain shelves onto loops of `shelves_per_loop`.
        let mut pos_on_loop: u8 = 0;
        let mut adapter: u8 = 7; // first FC adapter number, for log realism
        let mut current_loop: Option<usize> = None;
        for _ in 0..n_shelves {
            if current_loop.is_none() || pos_on_loop >= cfg.shelves_per_loop {
                let loop_id = LoopId(self.loops.len() as u32);
                self.loops.push(FcLoop {
                    id: loop_id,
                    system: sys_id,
                    shelves: Vec::new(),
                });
                loop_ids.push(loop_id);
                current_loop = Some(loop_id.index());
                pos_on_loop = 0;
                adapter = adapter.wrapping_add(1);
            }
            let loop_idx = current_loop.expect("loop allocated above");
            let shelf_id = ShelfId(self.shelves.len() as u32);
            self.shelves.push(Shelf {
                id: shelf_id,
                system: sys_id,
                model: shelf_model,
                fc_loop: LoopId(loop_idx as u32),
                adapter,
                loop_position: pos_on_loop,
                bays: cfg.disks_per_shelf,
            });
            self.loops[loop_idx].shelves.push(shelf_id);
            shelf_ids.push(shelf_id);
            pos_on_loop += 1;
        }

        // Carve RAID groups loop by loop so spanning groups share an
        // interconnect, as in the studied systems.
        let mut raid_group_ids = Vec::new();
        for loop_id in &loop_ids {
            let loop_shelves = &self.loops[loop_id.index()].shelves;
            for slots in cfg
                .layout
                .assign(loop_shelves, cfg.disks_per_shelf, cfg.raid_group_size)
            {
                let rg_id = RaidGroupId(self.raid_groups.len() as u32);
                let raid_type = if rng.gen::<f64>() < cfg.raid6_fraction {
                    RaidType::Raid6
                } else {
                    RaidType::Raid4
                };
                for slot in &slots {
                    self.initial_disks.push(DiskInstall {
                        id: DiskInstanceId(self.initial_disks.len() as u64),
                        model: disk_model,
                        slot: *slot,
                        raid_group: rg_id,
                        installed_at,
                    });
                }
                self.raid_groups.push(RaidGroup {
                    id: rg_id,
                    system: sys_id,
                    raid_type,
                    slots,
                });
                raid_group_ids.push(rg_id);
            }
        }

        self.systems.push(StorageSystem {
            id: sys_id,
            class: cfg.class,
            disk_model,
            shelf_model,
            path_config,
            installed_at,
            shelves: shelf_ids,
            loops: loop_ids,
            raid_groups: raid_group_ids,
        });
        self.disk_starts.push(self.initial_disks.len());
    }

    /// All systems, indexed by [`SystemId`].
    pub fn systems(&self) -> &[StorageSystem] {
        &self.systems
    }

    /// All shelves, indexed by [`ShelfId`].
    pub fn shelves(&self) -> &[Shelf] {
        &self.shelves
    }

    /// All FC loops, indexed by [`LoopId`].
    pub fn loops(&self) -> &[FcLoop] {
        &self.loops
    }

    /// All RAID groups, indexed by [`RaidGroupId`].
    pub fn raid_groups(&self) -> &[RaidGroup] {
        &self.raid_groups
    }

    /// The initial disk population (instance ids `0..disk_count()`).
    ///
    /// Each system's initial disks form one contiguous id range, in system
    /// order, with exactly one disk per slot of the system's shelves (which
    /// have consecutive [`ShelfId`]s and one bay count);
    /// [`Fleet::initial_disks_of`] returns that range. Within it disks
    /// follow the RAID layout, not bay order.
    pub fn initial_disks(&self) -> &[DiskInstall] {
        &self.initial_disks
    }

    /// The initial disks of one system: a contiguous slice of
    /// [`Fleet::initial_disks`].
    pub fn initial_disks_of(&self, system: &StorageSystem) -> &[DiskInstall] {
        let i = system.id.index();
        &self.initial_disks[self.disk_starts[i]..self.disk_starts[i + 1]]
    }

    /// Number of initially-installed disks.
    pub fn disk_count(&self) -> usize {
        self.initial_disks.len()
    }

    /// System owning a shelf.
    pub fn system_of_shelf(&self, shelf: ShelfId) -> &StorageSystem {
        &self.systems[self.shelves[shelf.index()].system.index()]
    }

    /// Shelf record for an id.
    pub fn shelf(&self, id: ShelfId) -> &Shelf {
        &self.shelves[id.index()]
    }

    /// System record for an id.
    pub fn system(&self, id: SystemId) -> &StorageSystem {
        &self.systems[id.index()]
    }

    /// RAID group record for an id.
    pub fn raid_group(&self, id: RaidGroupId) -> &RaidGroup {
        &self.raid_groups[id.index()]
    }

    /// RAID group that a slot belongs to: a scan of the owning system's
    /// initial disks.
    pub fn raid_group_of(&self, slot: SlotAddr) -> Option<RaidGroupId> {
        let shelf = self.shelves.get(slot.shelf.index())?;
        self.initial_disks_of(self.system(shelf.system))
            .iter()
            .find(|disk| disk.slot == slot)
            .map(|disk| disk.raid_group)
    }

    /// Device address of a slot as printed in logs.
    pub fn device_addr(&self, slot: SlotAddr) -> DeviceAddr {
        self.shelf(slot.shelf).device_addr(slot.bay)
    }

    /// The disk catalog this fleet was built against.
    pub fn disk_catalog(&self) -> &crate::disk::DiskCatalog {
        &self.disk_catalog
    }

    /// The shelf catalog this fleet was built against.
    pub fn shelf_catalog(&self) -> &crate::shelf::ShelfCatalog {
        &self.shelf_catalog
    }

    /// Iterates systems of one class.
    pub fn systems_of_class(
        &self,
        class: SystemClass,
    ) -> impl Iterator<Item = &StorageSystem> + '_ {
        self.systems.iter().filter(move |s| s.class == class)
    }

    /// Composition summary per class, for reports and sanity checks.
    pub fn stats(&self) -> Vec<FleetClassStats> {
        SystemClass::ALL
            .into_iter()
            .filter_map(|class| {
                let systems: Vec<&StorageSystem> = self.systems_of_class(class).collect();
                if systems.is_empty() {
                    return None;
                }
                let shelves: usize = systems.iter().map(|s| s.shelves.len()).sum();
                let raid_groups: usize = systems.iter().map(|s| s.raid_groups.len()).sum();
                let slots: usize = systems
                    .iter()
                    .flat_map(|s| s.shelves.iter())
                    .map(|&sh| self.shelf(sh).bays as usize)
                    .sum();
                let dual = systems
                    .iter()
                    .filter(|s| s.path_config == crate::class::PathConfig::DualPath)
                    .count();
                let spans: Vec<usize> = systems
                    .iter()
                    .flat_map(|s| s.raid_groups.iter())
                    .map(|&rg| crate::layout::shelves_spanned(&self.raid_group(rg).slots))
                    .collect();
                let avg_span = spans.iter().sum::<usize>() as f64 / spans.len() as f64;
                Some(FleetClassStats {
                    class,
                    systems: systems.len(),
                    shelves,
                    slots,
                    raid_groups,
                    dual_path_systems: dual,
                    avg_shelves_per_system: shelves as f64 / systems.len() as f64,
                    avg_raid_group_span: avg_span,
                })
            })
            .collect()
    }
}

/// Composition summary of one class within a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetClassStats {
    /// The class summarized.
    pub class: SystemClass,
    /// Systems of this class.
    pub systems: usize,
    /// Shelf enclosures.
    pub shelves: usize,
    /// Populated disk slots (= initial disk installs).
    pub slots: usize,
    /// RAID groups.
    pub raid_groups: usize,
    /// Systems configured with dual paths.
    pub dual_path_systems: usize,
    /// Mean shelves per system.
    pub avg_shelves_per_system: f64,
    /// Mean number of distinct shelves a RAID group spans.
    pub avg_raid_group_span: f64,
}

/// Draws one pair from a weighted joint mix (weights need not be
/// normalized).
fn pick_weighted2<A: Copy, B: Copy>(mix: &[(A, B, f64)], rng: &mut StdRng) -> (A, B) {
    let total: f64 = mix.iter().map(|(_, _, w)| w).sum();
    debug_assert!(total > 0.0, "mix weights must not all be zero");
    let mut u = rng.gen::<f64>() * total;
    for (a, b, w) in mix {
        u -= w;
        if u <= 0.0 {
            return (*a, *b);
        }
    }
    let last = mix.last().expect("non-empty mix");
    (last.0, last.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{shelves_spanned, LayoutPolicy};

    fn small_fleet() -> Fleet {
        Fleet::build(&FleetConfig::paper().scaled(0.002), 7)
    }

    #[test]
    fn build_is_deterministic_for_a_seed() {
        let cfg = FleetConfig::paper().scaled(0.001);
        let a = Fleet::build(&cfg, 42);
        let b = Fleet::build(&cfg, 42);
        assert_eq!(a.systems(), b.systems());
        assert_eq!(a.initial_disks(), b.initial_disks());
        let c = Fleet::build(&cfg, 43);
        assert!(
            !(a.initial_disks().len() == c.initial_disks().len()
                && a.systems()[0].disk_model == c.systems()[0].disk_model
                && a.systems()[0].installed_at == c.systems()[0].installed_at),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn ids_are_dense_and_consistent() {
        let fleet = small_fleet();
        for (i, sys) in fleet.systems().iter().enumerate() {
            assert_eq!(sys.id.index(), i);
            for &shelf_id in &sys.shelves {
                assert_eq!(fleet.shelf(shelf_id).system, sys.id);
            }
            for &rg_id in &sys.raid_groups {
                assert_eq!(fleet.raid_group(rg_id).system, sys.id);
            }
        }
        for (i, disk) in fleet.initial_disks().iter().enumerate() {
            assert_eq!(disk.id.index(), i);
            assert_eq!(fleet.raid_group_of(disk.slot), Some(disk.raid_group));
        }
        let shelf = fleet.shelves()[0];
        let past_last_bay = SlotAddr {
            shelf: shelf.id,
            bay: shelf.bays,
        };
        let past_last_shelf = SlotAddr {
            shelf: ShelfId(fleet.shelves().len() as u32),
            bay: 0,
        };
        assert_eq!(fleet.raid_group_of(past_last_bay), None);
        assert_eq!(fleet.raid_group_of(past_last_shelf), None);
    }

    #[test]
    fn each_system_owns_one_contiguous_range_of_initial_disks() {
        for scale in [0.002, 0.01] {
            let fleet = Fleet::build(&FleetConfig::paper().scaled(scale), 5);
            let mut next_id = 0;
            for sys in fleet.systems() {
                let disks = fleet.initial_disks_of(sys);
                let first = sys.shelves[0].index();
                for (rank, shelf) in sys.shelves.iter().enumerate() {
                    assert_eq!(shelf.index(), first + rank, "{} shelf ids", sys.id);
                }
                let bays: Vec<usize> = sys
                    .shelves
                    .iter()
                    .map(|&s| usize::from(fleet.shelf(s).bays))
                    .collect();
                assert!(bays.iter().all(|&b| b == bays[0]), "{} bay counts", sys.id);
                let mut installs: Vec<Vec<u32>> = bays.iter().map(|&b| vec![0; b]).collect();
                for disk in disks {
                    assert_eq!(disk.id.index(), next_id, "{} disk ids", sys.id);
                    next_id += 1;
                    assert_eq!(fleet.shelf(disk.slot.shelf).system, sys.id);
                    installs[disk.slot.shelf.index() - first][usize::from(disk.slot.bay)] += 1;
                }
                assert!(
                    installs.iter().flatten().all(|&n| n == 1),
                    "{}: every slot needs exactly one initial disk",
                    sys.id
                );
            }
            assert_eq!(next_id, fleet.disk_count(), "scale {scale}");
        }
    }

    #[test]
    fn every_slot_belongs_to_exactly_one_raid_group() {
        let fleet = small_fleet();
        let total_slots: usize = fleet.shelves().iter().map(|s| s.bays as usize).sum();
        assert_eq!(fleet.disk_count(), total_slots);
        let in_groups: usize = fleet.raid_groups().iter().map(|g| g.slots.len()).sum();
        assert_eq!(in_groups, total_slots);
    }

    #[test]
    fn raid_groups_span_multiple_shelves_by_default() {
        let fleet = small_fleet();
        // Average spanning should be close to shelves_per_loop (~2-3) for
        // groups larger than one shelf's share.
        let mut spans = Vec::new();
        for rg in fleet.raid_groups().iter().filter(|g| g.slots.len() >= 6) {
            spans.push(shelves_spanned(&rg.slots));
        }
        let avg = spans.iter().sum::<usize>() as f64 / spans.len() as f64;
        assert!(avg > 1.8, "average span {avg} too low");
    }

    #[test]
    fn same_shelf_layout_produces_single_shelf_groups() {
        let cfg = FleetConfig::paper()
            .scaled(0.002)
            .with_layout(LayoutPolicy::SameShelf);
        let fleet = Fleet::build(&cfg, 7);
        for rg in fleet.raid_groups() {
            assert_eq!(shelves_spanned(&rg.slots), 1);
        }
    }

    #[test]
    fn class_proportions_roughly_match_table_1() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.01), 11);
        let nearline = fleet.systems_of_class(SystemClass::NearLine).count();
        let low_end = fleet.systems_of_class(SystemClass::LowEnd).count();
        // Low-end systems outnumber near-line roughly 4.5 : 1.
        let ratio = low_end as f64 / nearline as f64;
        assert!((3.5..5.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn install_times_fall_inside_study_window() {
        let fleet = small_fleet();
        let end = SimTime::study_end();
        for sys in fleet.systems() {
            assert!(sys.installed_at < end);
        }
        for disk in fleet.initial_disks() {
            assert!(disk.installed_at < end);
        }
    }

    #[test]
    fn device_addresses_are_unique_within_a_system() {
        let fleet = small_fleet();
        for sys in fleet.systems() {
            let mut addrs = Vec::new();
            for &shelf_id in &sys.shelves {
                let shelf = fleet.shelf(shelf_id);
                for bay in 0..shelf.bays {
                    addrs.push(shelf.device_addr(bay));
                }
            }
            let n = addrs.len();
            addrs.sort();
            addrs.dedup();
            assert_eq!(addrs.len(), n, "duplicate device address in {}", sys.id);
        }
    }

    #[test]
    fn loops_partition_system_shelves() {
        let fleet = small_fleet();
        for sys in fleet.systems() {
            let via_loops: usize = sys
                .loops
                .iter()
                .map(|l| fleet.loops()[l.index()].shelves.len())
                .sum();
            assert_eq!(via_loops, sys.shelves.len());
        }
    }

    #[test]
    fn one_disk_and_shelf_model_per_system_drawn_from_mix() {
        let fleet = small_fleet();
        let cfg = FleetConfig::paper();
        for sys in fleet.systems() {
            let class_cfg = cfg.class(sys.class).unwrap();
            assert!(class_cfg
                .mix
                .iter()
                .any(|(s, m, _)| *s == sys.shelf_model && *m == sys.disk_model));
        }
    }

    #[test]
    fn fleet_stats_summarize_composition() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.01), 13);
        let stats = fleet.stats();
        assert_eq!(stats.len(), 4);
        let total_systems: usize = stats.iter().map(|s| s.systems).sum();
        assert_eq!(total_systems, fleet.systems().len());
        let total_slots: usize = stats.iter().map(|s| s.slots).sum();
        assert_eq!(total_slots, fleet.disk_count());
        for s in &stats {
            assert!(s.avg_shelves_per_system >= 1.0);
            assert!(s.avg_raid_group_span >= 1.0);
            if !s.class.supports_multipathing() {
                assert_eq!(s.dual_path_systems, 0);
            }
        }
        // Near-line and mid/high-end systems are multi-shelf; RAID groups
        // span shelves on average.
        let nl = stats
            .iter()
            .find(|s| s.class == SystemClass::NearLine)
            .unwrap();
        assert!(nl.avg_shelves_per_system > 4.0);
        assert!(nl.avg_raid_group_span > 1.5);
    }

    #[test]
    fn dual_path_only_on_supporting_classes_and_about_a_third() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.01), 3);
        for sys in fleet.systems() {
            if sys.path_config == PathConfig::DualPath {
                assert!(sys.class.supports_multipathing());
            }
        }
        let mid: Vec<_> = fleet.systems_of_class(SystemClass::MidRange).collect();
        let dual = mid
            .iter()
            .filter(|s| s.path_config == PathConfig::DualPath)
            .count();
        let frac = dual as f64 / mid.len() as f64;
        assert!((0.2..0.5).contains(&frac), "dual-path fraction {frac}");
    }
}
