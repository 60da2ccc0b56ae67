//! Fleet configuration: per-class population specs mirroring the paper's
//! Table 1.
//!
//! [`FleetConfig::paper`] reproduces the studied fleet's composition —
//! ~39,000 systems across four classes, ~155,000 shelves, ~1.8 M disks —
//! and [`FleetConfig::scaled`] shrinks it proportionally for tests and
//! benches. Disk/shelf model mixes per class follow the combinations shown
//! in the paper's Figure 5.

use crate::class::{PathConfig, SystemClass};
use crate::disk::{DiskCatalog, DiskModelId};
use crate::layout::LayoutPolicy;
use crate::shelf::{ShelfCatalog, ShelfModel, SHELF_BAYS};

/// Most shelves one FC loop can address: a device's target is
/// `loop_position * 16 + bay` in a `u8` ([`crate::Shelf::device_addr`]),
/// so loop positions run `0..16`.
pub const MAX_SHELVES_PER_LOOP: u8 = 16;

/// Population and composition parameters for one system class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassConfig {
    /// Which class this config describes.
    pub class: SystemClass,
    /// Number of systems of this class in the fleet.
    pub n_systems: u32,
    /// Mean number of shelf enclosures per system (sampled per system with
    /// ±40% spread, minimum 1).
    pub shelves_per_system: f64,
    /// Populated bays per shelf (≤ [`SHELF_BAYS`]).
    pub disks_per_shelf: u8,
    /// Target RAID group size in disks.
    pub raid_group_size: u8,
    /// Shelves chained on one FC loop (the paper's RAID groups span about
    /// 3 shelves, which share an interconnect); at most
    /// [`MAX_SHELVES_PER_LOOP`].
    pub shelves_per_loop: u8,
    /// Fraction of RAID groups built as RAID6 (the rest are RAID4).
    pub raid6_fraction: f64,
    /// Fraction of subsystems configured with dual paths (only meaningful
    /// for classes that support multipathing; ~1/3 in the study §4.3).
    pub dual_path_fraction: f64,
    /// Joint (shelf model, disk model) mix: one combination per system is
    /// drawn. Joint, because the paper's Figure 5 shows that which disk
    /// models appear with which shelf models is *not* independent (e.g.
    /// mid-range Shelf C hosts only disks B-1/C-1/G-1/H-1).
    pub mix: Vec<(ShelfModel, DiskModelId, f64)>,
    /// System install window as fractions of the study period `[start, end)`.
    pub install_window: (f64, f64),
    /// How RAID groups are carved out of shelves.
    pub layout: LayoutPolicy,
}

impl ClassConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.disks_per_shelf == 0 || self.disks_per_shelf > SHELF_BAYS {
            return Err(format!(
                "{}: disks_per_shelf {} outside 1..={SHELF_BAYS}",
                self.class, self.disks_per_shelf
            ));
        }
        if self.raid_group_size == 0 {
            return Err(format!("{}: raid_group_size must be positive", self.class));
        }
        if self.shelves_per_loop == 0 {
            return Err(format!("{}: shelves_per_loop must be positive", self.class));
        }
        if self.shelves_per_loop > MAX_SHELVES_PER_LOOP {
            return Err(format!(
                "{}: shelves_per_loop {} exceeds the {MAX_SHELVES_PER_LOOP} shelves a loop can \
                 address",
                self.class, self.shelves_per_loop
            ));
        }
        if self.shelves_per_system < 1.0 {
            return Err(format!("{}: shelves_per_system must be >= 1", self.class));
        }
        if !(0.0..=1.0).contains(&self.raid6_fraction) {
            return Err(format!("{}: raid6_fraction outside [0,1]", self.class));
        }
        if !(0.0..=1.0).contains(&self.dual_path_fraction) {
            return Err(format!("{}: dual_path_fraction outside [0,1]", self.class));
        }
        if self.dual_path_fraction > 0.0 && !self.class.supports_multipathing() {
            return Err(format!("{} does not support multipathing", self.class));
        }
        if self.mix.is_empty() {
            return Err(format!("{}: empty shelf/disk mix", self.class));
        }
        if self.mix.iter().any(|(_, _, w)| *w < 0.0) {
            return Err(format!("{}: negative mix weight", self.class));
        }
        let (start, end) = self.install_window;
        if !(0.0..=1.0).contains(&start) || !(start..=1.0).contains(&end) {
            return Err(format!(
                "{}: install window [{start},{end}] invalid",
                self.class
            ));
        }
        Ok(())
    }

    /// Expected number of shelves contributed by this class.
    pub fn expected_shelves(&self) -> f64 {
        self.n_systems as f64 * self.shelves_per_system
    }

    /// Expected number of initially-installed disks contributed by this
    /// class (replacements during the study add more instances on top).
    pub fn expected_disks(&self) -> f64 {
        self.expected_shelves() * self.disks_per_shelf as f64
    }

    /// The paths configuration drawn for a uniform sample `u ∈ [0,1)`.
    pub fn path_config_for(&self, u: f64) -> PathConfig {
        if self.class.supports_multipathing() && u < self.dual_path_fraction {
            PathConfig::DualPath
        } else {
            PathConfig::SinglePath
        }
    }
}

/// Configuration for a whole synthetic fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Per-class population specs.
    pub classes: Vec<ClassConfig>,
    /// Disk model catalog in effect.
    pub disk_catalog: DiskCatalog,
    /// Shelf model catalog in effect.
    pub shelf_catalog: ShelfCatalog,
}

impl FleetConfig {
    /// The full-scale configuration mirroring the paper's Table 1:
    /// ~39,000 systems, ~155,000 shelves, ~1.8 M disks across four classes.
    pub fn paper() -> Self {
        let m = |s: &str| DiskModelId::parse(s).expect("catalog model id");
        let nearline = ClassConfig {
            class: SystemClass::NearLine,
            n_systems: 4_927,
            shelves_per_system: 6.8,
            disks_per_shelf: 13,
            raid_group_size: 7,
            shelves_per_loop: 3,
            raid6_fraction: 0.35,
            dual_path_fraction: 0.0,
            mix: vec![
                (ShelfModel::C, m("I-1"), 0.24),
                (ShelfModel::C, m("J-1"), 0.22),
                (ShelfModel::C, m("J-2"), 0.20),
                (ShelfModel::C, m("K-1"), 0.18),
                (ShelfModel::C, m("I-2"), 0.16),
            ],
            install_window: (0.20, 0.95),
            layout: LayoutPolicy::SpanShelves,
        };
        let low_end = ClassConfig {
            class: SystemClass::LowEnd,
            n_systems: 22_031,
            shelves_per_system: 1.7,
            disks_per_shelf: 7,
            raid_group_size: 6,
            shelves_per_loop: 2,
            raid6_fraction: 0.30,
            dual_path_fraction: 0.0,
            mix: vec![
                // Figure 5(b)/(c): the same five disk models appear with
                // both low-end shelf models.
                (ShelfModel::A, m("A-2"), 0.13),
                (ShelfModel::A, m("A-3"), 0.12),
                (ShelfModel::A, m("D-2"), 0.11),
                (ShelfModel::A, m("D-3"), 0.10),
                (ShelfModel::A, m("H-2"), 0.04),
                (ShelfModel::B, m("A-2"), 0.13),
                (ShelfModel::B, m("A-3"), 0.12),
                (ShelfModel::B, m("D-2"), 0.11),
                (ShelfModel::B, m("D-3"), 0.10),
                (ShelfModel::B, m("H-2"), 0.04),
            ],
            install_window: (0.25, 0.95),
            layout: LayoutPolicy::SpanShelves,
        };
        let mid_range = ClassConfig {
            class: SystemClass::MidRange,
            n_systems: 7_154,
            shelves_per_system: 7.4,
            disks_per_shelf: 11,
            raid_group_size: 7,
            shelves_per_loop: 3,
            raid6_fraction: 0.35,
            dual_path_fraction: 1.0 / 3.0,
            mix: vec![
                // Shelf C combination (Figure 5d): B-1, C-1, G-1, H-1 only.
                (ShelfModel::C, m("B-1"), 0.11),
                (ShelfModel::C, m("C-1"), 0.10),
                (ShelfModel::C, m("G-1"), 0.09),
                (ShelfModel::C, m("H-1"), 0.05),
                // Shelf B combination (Figure 5e).
                (ShelfModel::B, m("A-1"), 0.07),
                (ShelfModel::B, m("A-2"), 0.09),
                (ShelfModel::B, m("C-1"), 0.08),
                (ShelfModel::B, m("C-2"), 0.08),
                (ShelfModel::B, m("D-1"), 0.06),
                (ShelfModel::B, m("D-2"), 0.10),
                (ShelfModel::B, m("D-3"), 0.06),
                (ShelfModel::B, m("E-1"), 0.05),
                (ShelfModel::B, m("H-1"), 0.03),
                (ShelfModel::B, m("H-2"), 0.03),
            ],
            install_window: (0.10, 0.90),
            layout: LayoutPolicy::SpanShelves,
        };
        let high_end = ClassConfig {
            class: SystemClass::HighEnd,
            n_systems: 5_003,
            shelves_per_system: 6.7,
            disks_per_shelf: 13,
            raid_group_size: 9,
            shelves_per_loop: 3,
            raid6_fraction: 0.40,
            dual_path_fraction: 1.0 / 3.0,
            mix: vec![
                (ShelfModel::B, m("A-2"), 0.12),
                (ShelfModel::B, m("A-3"), 0.12),
                (ShelfModel::B, m("C-2"), 0.11),
                (ShelfModel::B, m("D-2"), 0.13),
                (ShelfModel::B, m("D-3"), 0.11),
                (ShelfModel::B, m("E-1"), 0.10),
                (ShelfModel::B, m("F-1"), 0.11),
                (ShelfModel::B, m("F-2"), 0.11),
                (ShelfModel::B, m("H-1"), 0.05),
                (ShelfModel::B, m("H-2"), 0.04),
            ],
            install_window: (0.05, 0.90),
            layout: LayoutPolicy::SpanShelves,
        };
        FleetConfig {
            classes: vec![nearline, low_end, mid_range, high_end],
            disk_catalog: DiskCatalog::paper(),
            shelf_catalog: ShelfCatalog::paper(),
        }
    }

    /// Returns a copy with every class population multiplied by `factor`
    /// (rounded, minimum 1 system per class).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        for class in &mut self.classes {
            class.n_systems = ((class.n_systems as f64 * factor).round() as u32).max(1);
        }
        self
    }

    /// Returns a copy with every class using the given layout policy
    /// (for the RAID-layout ablation).
    pub fn with_layout(mut self, layout: LayoutPolicy) -> Self {
        for class in &mut self.classes {
            class.layout = layout;
        }
        self
    }

    /// Returns a copy restricted to the given classes.
    pub fn only_classes(mut self, keep: &[SystemClass]) -> Self {
        self.classes.retain(|c| keep.contains(&c.class));
        self
    }

    /// The config for one class, if present.
    pub fn class(&self, class: SystemClass) -> Option<&ClassConfig> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Validates all class configs and that every referenced disk/shelf
    /// model exists in the catalogs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("no classes configured".to_owned());
        }
        for class in &self.classes {
            class.validate()?;
            for (shelf, model, _) in &class.mix {
                if self.disk_catalog.get(*model).is_none() {
                    return Err(format!("{}: unknown disk model {model}", class.class));
                }
                let expected = class.class.disk_type();
                let actual = self.disk_catalog.get(*model).expect("checked").disk_type;
                if actual != expected {
                    return Err(format!(
                        "{}: disk model {model} is {actual} but class uses {expected}",
                        class.class
                    ));
                }
                if self.shelf_catalog.get(*shelf).is_none() {
                    return Err(format!("{}: unknown shelf model {shelf}", class.class));
                }
            }
        }
        Ok(())
    }

    /// Total expected initial disk population.
    pub fn expected_disks(&self) -> f64 {
        self.classes.iter().map(ClassConfig::expected_disks).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_validates() {
        FleetConfig::paper()
            .validate()
            .expect("paper config is valid");
    }

    /// Every class of the paper fleet with `n` shelves per loop and
    /// enough shelves per system to fill whole loops.
    fn with_shelves_per_loop(n: u8) -> FleetConfig {
        let mut cfg = FleetConfig::paper().scaled(0.001);
        for class in &mut cfg.classes {
            class.shelves_per_loop = n;
            class.shelves_per_system = 40.0;
        }
        cfg
    }

    #[test]
    fn a_loop_of_more_shelves_than_targets_address_is_rejected() {
        let err = with_shelves_per_loop(17).validate().unwrap_err();
        assert_eq!(
            err,
            "Near-line: shelves_per_loop 17 exceeds the 16 shelves a loop can address"
        );
    }

    #[test]
    fn a_full_loop_gives_every_device_its_own_address() {
        let fleet = crate::Fleet::build(&with_shelves_per_loop(MAX_SHELVES_PER_LOOP), 3);
        let mut full_loops = 0;
        for fc_loop in fleet.loops() {
            let mut addrs: Vec<_> = fc_loop
                .shelves
                .iter()
                .flat_map(|&id| {
                    let shelf = fleet.shelf(id);
                    (0..shelf.bays).map(move |bay| shelf.device_addr(bay))
                })
                .collect();
            let devices = addrs.len();
            addrs.sort();
            addrs.dedup();
            assert_eq!(
                addrs.len(),
                devices,
                "loop {:?} reuses an address",
                fc_loop.id
            );
            full_loops += usize::from(fc_loop.shelves.len() == usize::from(MAX_SHELVES_PER_LOOP));
        }
        assert!(full_loops > 0, "no loop was filled");
    }

    #[test]
    fn paper_scale_matches_table_1() {
        let cfg = FleetConfig::paper();
        let systems: u32 = cfg.classes.iter().map(|c| c.n_systems).sum();
        assert_eq!(systems, 4_927 + 22_031 + 7_154 + 5_003); // ~39k

        let shelves: f64 = cfg.classes.iter().map(ClassConfig::expected_shelves).sum();
        assert!(
            (140_000.0..175_000.0).contains(&shelves),
            "shelves = {shelves}"
        );

        let disks = cfg.expected_disks();
        assert!(
            (1_300_000.0..1_900_000.0).contains(&disks),
            "disks = {disks}"
        );
    }

    #[test]
    fn scaling_shrinks_proportionally_with_floor_of_one() {
        let cfg = FleetConfig::paper().scaled(0.01);
        let le = cfg.class(SystemClass::LowEnd).unwrap();
        assert_eq!(le.n_systems, 220);
        let tiny = FleetConfig::paper().scaled(1e-9);
        for class in &tiny.classes {
            assert_eq!(class.n_systems, 1);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = FleetConfig::paper().scaled(0.0);
    }

    #[test]
    fn validation_rejects_cross_type_disk_mix() {
        let mut cfg = FleetConfig::paper();
        // Put a SATA model into the low-end (FC) mix.
        cfg.classes[1]
            .mix
            .push((ShelfModel::A, DiskModelId::new('I', 1), 0.5));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_multipathing_on_low_end() {
        let mut cfg = FleetConfig::paper();
        cfg.classes[1].dual_path_fraction = 0.5;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("multipathing"), "{err}");
    }

    #[test]
    fn validation_rejects_overfull_shelves() {
        let mut cfg = FleetConfig::paper();
        cfg.classes[0].disks_per_shelf = 15;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_install_window() {
        let mut cfg = FleetConfig::paper();
        cfg.classes[0].install_window = (0.9, 0.2);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn path_config_sampling_respects_class_support() {
        let cfg = FleetConfig::paper();
        let le = cfg.class(SystemClass::LowEnd).unwrap();
        assert_eq!(le.path_config_for(0.0), PathConfig::SinglePath);
        let mr = cfg.class(SystemClass::MidRange).unwrap();
        assert_eq!(mr.path_config_for(0.0), PathConfig::DualPath);
        assert_eq!(mr.path_config_for(0.99), PathConfig::SinglePath);
    }

    #[test]
    fn only_classes_filters() {
        let cfg = FleetConfig::paper().only_classes(&[SystemClass::MidRange]);
        assert_eq!(cfg.classes.len(), 1);
        assert_eq!(cfg.classes[0].class, SystemClass::MidRange);
    }

    #[test]
    fn with_layout_applies_everywhere() {
        let cfg = FleetConfig::paper().with_layout(LayoutPolicy::SameShelf);
        assert!(cfg
            .classes
            .iter()
            .all(|c| c.layout == LayoutPolicy::SameShelf));
    }
}
