//! Property-based tests over the workspace's core data structures,
//! spanning crates (log round-trips against model types, analysis
//! invariants against generated records).

use proptest::prelude::*;

use ssfa::core::tbf::TbfAnalysis;
use ssfa::core::Scope;
use ssfa::logs::{LogEvent, LogLine};
use ssfa::model::{
    DeviceAddr, DiskInstanceId, DiskModelId, FailureRecord, FailureType, LayoutPolicy, LoopId,
    PathConfig, RaidGroupId, RaidType, ShelfId, ShelfModel, SimTime, SlotAddr, SystemClass,
    SystemId,
};

fn arb_device() -> impl Strategy<Value = DeviceAddr> {
    (0u8..=255, 0u8..=255).prop_map(|(a, t)| DeviceAddr::new(a, t))
}

fn arb_serial() -> impl Strategy<Value = String> {
    (0u64..36u64.pow(8)).prop_map(|n| DiskInstanceId(n).serial())
}

fn arb_time() -> impl Strategy<Value = SimTime> {
    // Anywhere in the 44-month study window.
    (0u64..SimTime::study_end().as_secs()).prop_map(SimTime::from_secs)
}

/// Events of all 18 variants: `kind` picks the variant, the other
/// draws fill its fields.
fn arb_event() -> impl Strategy<Value = LogEvent> {
    (
        0u8..18,
        arb_device(),
        arb_serial(),
        (0u64..u64::MAX, 0u32..u32::MAX, 0u8..=255),
        (0usize..4, 0usize..6, b'A'..=b'Z', 1u8..=255),
        proptest::collection::vec((0u32..u32::MAX, 0u8..=255), 1..5),
    )
        .prop_map(
            |(kind, device, serial, (big, mid, small), (class, pick, family, cap), slots)| {
                let model = DiskModelId::new(family as char, cap);
                match kind {
                    0 => LogEvent::FciDeviceTimeout { device },
                    1 => LogEvent::FciAdapterReset {
                        adapter: device.adapter,
                    },
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
                        shelf: ShelfId(mid),
                        model: ShelfModel::ALL[pick % 3],
                        fc_loop: LoopId(mid / 2),
                        adapter: device.adapter,
                        position: device.target,
                        bays: small,
                    },
                    15 => LogEvent::CfgRaidGroup {
                        rg: RaidGroupId(mid),
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
                            shelf: ShelfId(mid),
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

proptest! {
    #[test]
    fn any_failure_log_line_round_trips(
        host in 0u32..1_000_000,
        at in arb_time(),
        event in arb_event(),
    ) {
        let line = LogLine::new(SystemId(host), at, event);
        let text = line.to_string();
        let parsed = LogLine::parse(&text);
        prop_assert_eq!(parsed, Some(line));
    }

    #[test]
    fn sim_time_civil_round_trips(at in arb_time()) {
        let civil = at.civil();
        prop_assert_eq!(civil.to_sim_time(), Some(at));
        // And through the log-timestamp text form.
        let text = civil.to_string();
        let reparsed = ssfa::model::CivilDateTime::parse_log_timestamp(&text).unwrap();
        prop_assert_eq!(reparsed.to_sim_time(), Some(at));
    }

    #[test]
    fn serials_round_trip(n in 0u64..36u64.pow(8)) {
        let id = DiskInstanceId(n);
        prop_assert_eq!(DiskInstanceId::from_serial(&id.serial()), Some(id));
    }

    #[test]
    fn device_addresses_round_trip(device in arb_device()) {
        let parsed: DeviceAddr = device.to_string().parse().unwrap();
        prop_assert_eq!(parsed, device);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(
        mut data in proptest::collection::vec(0.0f64..1e9, 1..200),
        probes in proptest::collection::vec(0.0f64..1e9, 0..50),
    ) {
        data.sort_by(f64::total_cmp);
        let ecdf = ssfa::stats::ecdf::Ecdf::new(&data).unwrap();
        let mut sorted_probes = probes;
        sorted_probes.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for p in sorted_probes {
            let v = ecdf.eval(p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev);
            prev = v;
        }
        prop_assert_eq!(ecdf.eval(f64::MAX), 1.0);
    }

    #[test]
    fn tbf_gap_count_never_exceeds_records_minus_groups(
        times in proptest::collection::vec(0u64..100_000_000u64, 2..120),
        shelves in proptest::collection::vec(0u32..5u32, 2..120),
    ) {
        let n = times.len().min(shelves.len());
        let records: Vec<FailureRecord> = (0..n)
            .map(|i| FailureRecord {
                detected_at: SimTime::from_secs(times[i]),
                failure_type: FailureType::Disk,
                disk: DiskInstanceId(i as u64),
                system: SystemId(0),
                shelf: ShelfId(shelves[i]),
                raid_group: RaidGroupId(shelves[i]),
                fc_loop: LoopId(0),
                device: DeviceAddr::new(1, 1),
            })
            .collect();
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        let groups: std::collections::BTreeSet<u32> =
            records.iter().map(|r| r.shelf.0).collect();
        prop_assert!(tbf.overall().len() <= n.saturating_sub(groups.len()));
        // All gaps non-negative and finite.
        for &gap in &tbf.overall().gaps_secs {
            prop_assert!(gap >= 0.0 && gap.is_finite());
        }
    }

    #[test]
    fn afr_breakdown_merge_is_commutative_and_additive(
        counts_a in proptest::collection::vec(0u64..500, 4),
        counts_b in proptest::collection::vec(0u64..500, 4),
        years_a in 1.0f64..10_000.0,
        years_b in 1.0f64..10_000.0,
    ) {
        use ssfa::model::FailureCounts;
        let make = |counts: &[u64], years: f64| {
            let mut fc = FailureCounts::new();
            for (ty, &n) in FailureType::ALL.iter().zip(counts) {
                fc.add(*ty, n);
            }
            ssfa::core::AfrBreakdown::new(fc, years)
        };
        let mut ab = make(&counts_a, years_a);
        ab.merge(&make(&counts_b, years_b));
        let mut ba = make(&counts_b, years_b);
        ba.merge(&make(&counts_a, years_a));
        prop_assert_eq!(&ab, &ba);
        prop_assert!((ab.disk_years() - (years_a + years_b)).abs() < 1e-9);
        let total: u64 = counts_a.iter().chain(&counts_b).sum();
        prop_assert_eq!(ab.counts().total(), total);
    }

    #[test]
    fn layout_policies_always_partition_slots(
        n_shelves in 1u32..8,
        bays in 1u8..=14,
        group in 1u8..=16,
        span in proptest::bool::ANY,
    ) {
        use ssfa::model::LayoutPolicy;
        let shelves: Vec<ShelfId> = (0..n_shelves).map(ShelfId).collect();
        let policy =
            if span { LayoutPolicy::SpanShelves } else { LayoutPolicy::SameShelf };
        let groups = policy.assign(&shelves, bays, group);
        let mut slots: Vec<_> = groups.iter().flatten().collect();
        prop_assert_eq!(slots.len(), n_shelves as usize * bays as usize);
        slots.sort();
        slots.dedup();
        prop_assert_eq!(slots.len(), n_shelves as usize * bays as usize);
        for g in &groups {
            prop_assert!(!g.is_empty());
            prop_assert!(g.len() <= group as usize);
        }
    }

    #[test]
    fn disk_model_notation_round_trips(
        family in proptest::char::range('A', 'Z'),
        point in 1u8..10,
    ) {
        let id = DiskModelId::new(family, point);
        prop_assert_eq!(DiskModelId::parse(&id.to_string()), Some(id));
    }
}
