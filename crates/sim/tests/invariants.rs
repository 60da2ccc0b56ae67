//! Simulation invariants under randomized configurations: whatever the
//! knobs, the output must stay internally consistent.

use proptest::prelude::*;

use ssfa_model::{FailureType, Fleet, FleetConfig, SimTime};
use ssfa_sim::{Calibration, RemovalReason, Simulator};

fn tiny_config(scale_millis: u64) -> FleetConfig {
    FleetConfig::paper().scaled(scale_millis as f64 / 1_000_000.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn output_is_internally_consistent(
        seed in 0u64..5_000,
        scale_millis in 3u64..12,
        mask_centi in 0u32..=100,
    ) {
        let config = tiny_config(scale_millis);
        let fleet = Fleet::build(&config, seed);
        let cal = Calibration::paper().with_mask_probability(mask_centi as f64 / 100.0);
        let out = Simulator::new(cal).run(&fleet, seed);
        let study_end = SimTime::study_end();

        // Every occurrence is attributable and inside the window.
        for occ in out.occurrences() {
            prop_assert!(occ.detected_at >= occ.occurred_at);
            prop_assert!(occ.detected_at < study_end);
            prop_assert!(occ.system.index() < fleet.systems().len());
            prop_assert!(fleet.raid_group_of(occ.slot).is_some());
            if occ.masked {
                prop_assert_eq!(occ.failure_type, FailureType::PhysicalInterconnect);
            }
        }

        // Disk lifetimes are positive-length, bounded, and every failed
        // record has a matching disk-failure occurrence unless detection
        // fell past the study end.
        let mut failed_records = 0usize;
        for disk in out.disks() {
            prop_assert!(disk.installed_at < disk.removed_at);
            prop_assert!(disk.removed_at <= study_end);
            if disk.removal_reason == RemovalReason::Failed {
                failed_records += 1;
            } else {
                prop_assert_eq!(disk.removed_at, study_end);
            }
        }
        let disk_failures = out
            .occurrences()
            .iter()
            .filter(|o| o.failure_type == FailureType::Disk)
            .count();
        prop_assert!(disk_failures <= failed_records);

        // Exposure equals the per-slot union of lifetimes: no slot can
        // accumulate more service time than the study window.
        use std::collections::BTreeMap;
        let mut per_slot: BTreeMap<_, f64> = BTreeMap::new();
        for d in out.disks() {
            *per_slot.entry(d.slot).or_default() += d.service_years();
        }
        let window_years = study_end.as_years();
        for (slot, years) in per_slot {
            prop_assert!(years <= window_years + 1e-9, "{slot}: {years} yr");
        }
    }

    #[test]
    fn full_masking_exposes_no_interconnect_failures_on_dual_paths(
        seed in 0u64..1_000,
    ) {
        let config = FleetConfig::paper()
            .scaled(0.002)
            .only_classes(&[ssfa_model::SystemClass::HighEnd]);
        let fleet = Fleet::build(&config, seed);
        let out = Simulator::new(Calibration::paper().with_mask_probability(1.0))
            .run(&fleet, seed);
        for rec in out.exposed_records() {
            if rec.failure_type == FailureType::PhysicalInterconnect {
                let sys = fleet.system(rec.system);
                prop_assert_eq!(sys.path_config, ssfa_model::PathConfig::SinglePath);
            }
        }
    }

    #[test]
    fn seeds_change_outcomes_but_not_structure(seed in 0u64..1_000) {
        let config = tiny_config(5);
        let fleet = Fleet::build(&config, seed);
        let out = Simulator::default().run(&fleet, seed);
        // Structure: initial disk records always exist for every slot.
        let initial = fleet.disk_count();
        let initial_records = out
            .disks()
            .iter()
            .filter(|d| d.id.index() < initial)
            .count();
        prop_assert_eq!(initial_records, initial);
    }
}
