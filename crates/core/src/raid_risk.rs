//! RAID data-loss risk under correlated failures — the paper's motivating
//! extension.
//!
//! The paper's conclusion calls for "a revisit to resiliency mechanisms
//! such as RAID that assume independent failures" (§7): a RAID4 group
//! loses data when a *second* member fails before the first is rebuilt,
//! RAID6 on the third. Classic reliability math (e.g. the original RAID
//! paper \[13\]) computes that probability assuming failures arrive
//! independently at each disk. This module measures the *actual* rate of
//! concurrent-failure incidents in the analyzed data and compares it with
//! the independence prediction — quantifying exactly how much the standard
//! model underestimates data-loss risk on bursty, correlated failures.

use std::collections::BTreeMap;

use ssfa_logs::AnalysisInput;
use ssfa_model::{FailureType, HashIndex, RaidType, SimDuration, SimTime};

use crate::tbf::DEDUP_WINDOW;

/// Which failures count as "a member became unavailable" for RAID math.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskFailureSet {
    /// Only whole-disk failures (the classic RAID model's assumption).
    DiskOnly,
    /// Disk failures plus physical interconnect failures — the disks that
    /// "appear to be missing from the system" also drop out of the array
    /// (the study's argument for why interconnect failures matter).
    DiskAndInterconnect,
}

impl RiskFailureSet {
    /// Whether a failure type is in this set.
    pub fn includes(self, ty: FailureType) -> bool {
        match self {
            RiskFailureSet::DiskOnly => ty == FailureType::Disk,
            RiskFailureSet::DiskAndInterconnect => {
                matches!(ty, FailureType::Disk | FailureType::PhysicalInterconnect)
            }
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RiskFailureSet::DiskOnly => "disk failures only",
            RiskFailureSet::DiskAndInterconnect => "disk + interconnect failures",
        }
    }
}

/// Concurrent-failure risk measured for one RAID level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaidRiskResult {
    /// RAID level analyzed.
    pub raid_type: RaidType,
    /// Which failures were counted.
    pub failure_set: RiskFailureSet,
    /// The assumed repair/rebuild window.
    pub repair_window: SimDuration,
    /// Number of RAID groups of this level.
    pub groups: usize,
    /// Total observed group-years.
    pub group_years: f64,
    /// Failures counted across those groups (after deduplication).
    pub failures: usize,
    /// Incidents where more concurrent member failures accumulated within
    /// one repair window than the level tolerates (data-loss candidates:
    /// ≥ 2 for RAID4, ≥ 3 for RAID6, all on distinct disks).
    pub incidents: u64,
    /// Observed incident rate per group-year.
    pub empirical_rate: f64,
    /// Incident rate predicted by the independence model with each group's
    /// own observed failure rate.
    pub independent_rate: f64,
}

impl RaidRiskResult {
    /// How many times the independence assumption underestimates the
    /// data-loss-candidate rate (`None` when the prediction is zero).
    pub fn underestimation_factor(&self) -> Option<f64> {
        if self.independent_rate > 0.0 {
            Some(self.empirical_rate / self.independent_rate)
        } else {
            None
        }
    }
}

/// Measures concurrent-failure incidents per RAID level.
///
/// An *incident* is a maximal cluster of failures of the chosen set, on
/// distinct disks of one RAID group, where at least `tolerance + 1`
/// failures fall within one `repair_window`. Incidents are counted with a
/// sliding window over the group's deduplicated failure times; a cluster of
/// `k > tolerance + 1` failures still counts once (it is one data-loss
/// event, not several).
///
/// The independence prediction uses each group's own observed failure rate
/// `λ`: clusters of `m = tolerance + 1` events arrive at rate
/// `λ · (λw)^(m−1) / (m−1)!` (the standard Poisson cluster approximation
/// behind MTTDL formulas), summed over groups weighted by observed years.
pub fn raid_data_loss_risk(
    input: &AnalysisInput,
    repair_window: SimDuration,
    failure_set: RiskFailureSet,
) -> Vec<RaidRiskResult> {
    // Group failures (deduplicated per disk+type) by RAID group.
    let mut per_group: HashIndex<u32, Vec<(SimTime, u64)>> = HashIndex::new();
    {
        let mut sorted: Vec<_> = input
            .failures
            .iter()
            .filter(|r| failure_set.includes(r.failure_type))
            .collect();
        sorted.sort_by(|a, b| ssfa_model::FailureRecord::chronological(a, b));
        let mut last_seen: HashIndex<(u64, FailureType), SimTime> = HashIndex::new();
        for rec in sorted {
            let key = (rec.disk.0, rec.failure_type);
            let dup = last_seen
                .get(&key)
                .is_some_and(|&prev| rec.detected_at.duration_since(prev) <= DEDUP_WINDOW);
            last_seen.insert(key, rec.detected_at);
            if !dup {
                per_group
                    .entry(rec.raid_group.0)
                    .or_default()
                    .push((rec.detected_at, rec.disk.0));
            }
        }
    }

    // Observation window per group: from system install to study end.
    let study_end = SimTime::study_end();
    // Iterated below with floating-point accumulation: BTreeMap keeps the
    // summation order (and thus the low-order bits) independent of hasher
    // state.
    let group_meta: BTreeMap<u32, (RaidType, f64)> = input
        .topology
        .raid_groups
        .iter()
        .filter_map(|(id, meta)| {
            let sys = input.topology.systems.get(&meta.system)?;
            let years = study_end.duration_since(sys.installed_at).as_years();
            Some((id.0, (meta.raid_type, years)))
        })
        .collect();

    RaidType::ALL
        .into_iter()
        .map(|raid_type| {
            let tolerance = raid_type.fault_tolerance() as usize;
            let needed = tolerance + 1;
            let w_years = repair_window.as_years();

            let mut groups = 0usize;
            let mut group_years = 0.0f64;
            let mut failures = 0usize;
            let mut incidents = 0u64;
            let mut independent_rate_weighted = 0.0f64;

            for (&rg, &(rt, years)) in &group_meta {
                if rt != raid_type || years <= 0.0 {
                    continue;
                }
                groups += 1;
                group_years += years;
                let events = per_group.get(&rg).map(Vec::as_slice).unwrap_or(&[]);
                failures += events.len();

                // Sliding-window scan for clusters of `needed` failures on
                // distinct disks; advance past each found cluster so one
                // burst counts once.
                let mut i = 0;
                while i < events.len() {
                    let window_end = events[i].0 + repair_window;
                    let mut disks: Vec<u64> = vec![events[i].1];
                    let mut j = i + 1;
                    while j < events.len() && events[j].0 <= window_end {
                        if !disks.contains(&events[j].1) {
                            disks.push(events[j].1);
                        }
                        if disks.len() >= needed {
                            break;
                        }
                        j += 1;
                    }
                    if disks.len() >= needed {
                        incidents += 1;
                        i = j + 1; // consume the cluster
                    } else {
                        i += 1;
                    }
                }

                // Independence prediction from this group's own rate.
                let lambda = events.len() as f64 / years;
                if lambda > 0.0 {
                    let mut cluster_rate = lambda;
                    let mut factorial = 1.0;
                    for k in 1..needed {
                        cluster_rate *= lambda * w_years;
                        factorial *= k as f64;
                    }
                    independent_rate_weighted += (cluster_rate / factorial) * years;
                }
            }

            let empirical_rate = if group_years > 0.0 {
                incidents as f64 / group_years
            } else {
                0.0
            };
            let independent_rate = if group_years > 0.0 {
                independent_rate_weighted / group_years
            } else {
                0.0
            };
            RaidRiskResult {
                raid_type,
                failure_set,
                repair_window,
                groups,
                group_years,
                failures,
                incidents,
                empirical_rate,
                independent_rate,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::classify::{RaidGroupMeta, SystemMeta};
    use ssfa_logs::Topology;
    use ssfa_model::{
        DeviceAddr, DiskInstanceId, DiskModelId, FailureRecord, LayoutPolicy, LoopId, PathConfig,
        RaidGroupId, ShelfId, ShelfModel, SystemClass, SystemId,
    };

    /// Builds a minimal AnalysisInput: `n_groups` RAID4 groups in service
    /// from t=0, with the given failure times per group.
    fn input_with(n_groups: u32, failures: Vec<(u32, u64, u64)>) -> AnalysisInput {
        let mut topology = Topology::default();
        topology.systems.insert(
            SystemId(0),
            SystemMeta {
                class: SystemClass::MidRange,
                disk_model: DiskModelId::new('D', 2),
                shelf_model: ShelfModel::B,
                paths: PathConfig::SinglePath,
                layout: LayoutPolicy::SpanShelves,
                installed_at: SimTime::ZERO,
            },
        );
        for g in 0..n_groups {
            topology.raid_groups.insert(
                RaidGroupId(g),
                RaidGroupMeta {
                    system: SystemId(0),
                    raid_type: RaidType::Raid4,
                },
            );
        }
        let failures = failures
            .into_iter()
            .map(|(rg, disk, t)| FailureRecord {
                detected_at: SimTime::from_secs(t),
                failure_type: FailureType::Disk,
                disk: DiskInstanceId(disk),
                system: SystemId(0),
                shelf: ShelfId(0),
                raid_group: RaidGroupId(rg),
                fc_loop: LoopId(0),
                device: DeviceAddr::new(8, 16),
            })
            .collect();
        AnalysisInput {
            topology,
            lifetimes: Vec::new(),
            failures,
        }
    }

    const DAY: u64 = 86_400;

    #[test]
    fn two_failures_within_window_are_one_incident() {
        let input = input_with(10, vec![(0, 1, 100 * DAY), (0, 2, 100 * DAY + DAY / 2)]);
        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskOnly,
        );
        let raid4 = &results[0];
        assert_eq!(raid4.raid_type, RaidType::Raid4);
        assert_eq!(raid4.incidents, 1);
        assert_eq!(raid4.failures, 2);
        assert!(raid4.empirical_rate > 0.0);
    }

    #[test]
    fn two_failures_outside_window_are_no_incident() {
        let input = input_with(10, vec![(0, 1, 100 * DAY), (0, 2, 105 * DAY)]);
        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskOnly,
        );
        assert_eq!(results[0].incidents, 0);
    }

    #[test]
    fn same_disk_repeats_do_not_form_an_incident() {
        // Two failures of the same disk 2 days apart (outside the dedup
        // window, inside a 7-day repair window): not a double failure.
        let input = input_with(10, vec![(0, 1, 100 * DAY), (0, 1, 102 * DAY)]);
        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(7.0),
            RiskFailureSet::DiskOnly,
        );
        assert_eq!(results[0].incidents, 0);
    }

    #[test]
    fn triple_burst_counts_once() {
        let input = input_with(
            10,
            vec![
                (0, 1, 100 * DAY),
                (0, 2, 100 * DAY + 3_600),
                (0, 3, 100 * DAY + 7_200),
            ],
        );
        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskOnly,
        );
        assert_eq!(results[0].incidents, 1, "one burst, one incident");
    }

    #[test]
    fn interconnect_failures_count_only_in_the_wider_set() {
        let mut input = input_with(10, vec![(0, 1, 100 * DAY)]);
        input.failures.push(FailureRecord {
            detected_at: SimTime::from_secs(100 * DAY + 600),
            failure_type: FailureType::PhysicalInterconnect,
            disk: DiskInstanceId(2),
            system: SystemId(0),
            shelf: ShelfId(0),
            raid_group: RaidGroupId(0),
            fc_loop: LoopId(0),
            device: DeviceAddr::new(8, 17),
        });
        let disk_only = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskOnly,
        );
        assert_eq!(disk_only[0].incidents, 0);
        let both = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskAndInterconnect,
        );
        assert_eq!(both[0].incidents, 1);
    }

    #[test]
    fn independence_prediction_is_positive_when_failures_exist() {
        let input = input_with(5, vec![(0, 1, 10 * DAY), (1, 2, 600 * DAY)]);
        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(3.0),
            RiskFailureSet::DiskOnly,
        );
        let raid4 = &results[0];
        assert!(raid4.independent_rate > 0.0);
        assert_eq!(raid4.incidents, 0);
        assert_eq!(raid4.underestimation_factor(), Some(0.0));
    }

    #[test]
    fn correlated_bursts_beat_the_independence_prediction_end_to_end() {
        // Real pipeline data: bursty interconnect failures make concurrent
        // member loss far more common than the independence model expects.
        use ssfa_logs::{classify, render_support_log, CascadeStyle};
        use ssfa_model::{Fleet, FleetConfig};
        use ssfa_sim::Simulator;
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.02), 90);
        let out = Simulator::default().run(&fleet, 90);
        let book = render_support_log(&fleet, &out, CascadeStyle::RaidOnly);
        let input = classify(&book).unwrap();

        let results = raid_data_loss_risk(
            &input,
            SimDuration::from_days(1.0),
            RiskFailureSet::DiskAndInterconnect,
        );
        for r in &results {
            assert!(r.groups > 100, "{}: too few groups", r.raid_type);
            if r.incidents >= 5 {
                let factor = r.underestimation_factor().expect("prediction positive");
                assert!(
                    factor > 2.0,
                    "{}: correlated incidents should exceed independence prediction, got x{factor:.1}",
                    r.raid_type
                );
            }
        }
    }
}
