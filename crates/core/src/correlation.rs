//! Failure correlation analysis (paper §5.2, Figure 10).
//!
//! Under independence, the probability that a shelf (or RAID group)
//! experiences exactly two failures in a window `T` relates to the
//! single-failure probability as `P(2) = P(1)²/2` — and generally
//! `P(N) = P(1)^N / N!` (paper equations 3–4). The analysis computes the
//! empirical `P(1)` and `P(2)` from the first `T` of each group's service
//! and compares the empirical `P(2)` against the theoretical value; a
//! large excess means failures are positively correlated.

use ssfa_model::{FailureRecord, FailureType, HashIndex, SimDuration, SimTime};
use ssfa_stats::special::std_normal_quantile;

use crate::tbf::DEDUP_WINDOW;

/// Grouping scope for burstiness/correlation analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Group failures by shelf enclosure.
    Shelf,
    /// Group failures by RAID group.
    RaidGroup,
}

impl Scope {
    /// The grouping key of a record under this scope.
    pub fn key(self, rec: &FailureRecord) -> u32 {
        match self {
            Scope::Shelf => rec.shelf.0,
            Scope::RaidGroup => rec.raid_group.0,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scope::Shelf => "shelf enclosure",
            Scope::RaidGroup => "RAID group",
        }
    }
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A group eligible for the correlation analysis: its key and the start of
/// its observation window (system install time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupWindow {
    /// Scope key (shelf or RAID group id).
    pub key: u32,
    /// When the group entered service.
    pub in_service_from: SimTime,
}

/// Correlation analysis result for one failure type at one scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationResult {
    /// The failure type analyzed.
    pub failure_type: FailureType,
    /// Number of groups observed for at least `T`.
    pub groups: usize,
    /// Empirical `P(1)`: fraction of groups with exactly one failure in
    /// their first `T` of service.
    pub empirical_p1: f64,
    /// Empirical `P(2)`: fraction with exactly two failures.
    pub empirical_p2: f64,
    /// Theoretical `P(2) = P(1)²/2` under independence.
    pub theoretical_p2: f64,
    /// `empirical_p2 / theoretical_p2` (`None` when the theoretical value
    /// is zero).
    pub inflation: Option<f64>,
    /// Two-sided z statistic for `empirical_p2 == theoretical_p2`.
    pub z: f64,
}

impl CorrelationResult {
    /// Whether the empirical `P(2)` differs from the independence
    /// prediction at the given confidence (e.g. `0.995`).
    pub fn significant_at(&self, confidence: f64) -> bool {
        let z_crit = std_normal_quantile(0.5 + confidence / 2.0);
        self.z.abs() > z_crit
    }

    /// Theoretical `P(N) = P(1)^N / N!` under independence (paper eq. 4).
    pub fn theoretical_pn(&self, n: u32) -> f64 {
        let mut factorial = 1.0;
        for k in 2..=n {
            factorial *= k as f64;
        }
        self.empirical_p1.powi(n as i32) / factorial
    }
}

/// Computes the correlation analysis for every failure type at one scope.
///
/// * `groups` — every group (shelf or RAID group) in the fleet with its
///   service start; groups with less than `window` of service before the
///   study end are excluded (paper: "only storage systems that have been
///   in the field for one year or more are considered");
/// * `records` — classified failures (deduplicated internally);
/// * `window` — the observation window `T` (the paper uses one year).
pub fn correlation_by_type(
    scope: Scope,
    groups: &[GroupWindow],
    records: &[FailureRecord],
    window: SimDuration,
) -> [CorrelationResult; 4] {
    let study_end = SimTime::study_end();
    let eligible: Vec<&GroupWindow> = groups
        .iter()
        .filter(|g| g.in_service_from + window <= study_end)
        .collect();

    // Count failures per (group, type) within the group's first `window`.
    let window_of: HashIndex<u32, SimTime> = eligible
        .iter()
        .map(|g| (g.key, g.in_service_from))
        .collect();
    let mut counts: HashIndex<(u32, FailureType), u32> = HashIndex::new();

    // Dedup same-disk same-type repeats, mirroring the TBF analysis.
    let mut sorted: Vec<&FailureRecord> = records.iter().collect();
    sorted.sort_by(|a, b| FailureRecord::chronological(a, b));
    let mut last_seen: HashIndex<(ssfa_model::DiskInstanceId, FailureType), SimTime> =
        HashIndex::new();
    for rec in sorted {
        let dedup_key = (rec.disk, rec.failure_type);
        let dup = match last_seen.get(&dedup_key) {
            Some(&prev) => rec.detected_at.duration_since(prev) <= DEDUP_WINDOW,
            None => false,
        };
        last_seen.insert(dedup_key, rec.detected_at);
        if dup {
            continue;
        }
        let key = scope.key(rec);
        if let Some(&from) = window_of.get(&key) {
            if rec.detected_at >= from && rec.detected_at < from + window {
                *counts.entry((key, rec.failure_type)).or_insert(0) += 1;
            }
        }
    }

    FailureType::ALL.map(|ty| {
        let n = eligible.len();
        let mut exactly_one = 0usize;
        let mut exactly_two = 0usize;
        for g in &eligible {
            match counts.get(&(g.key, ty)).copied().unwrap_or(0) {
                1 => exactly_one += 1,
                2 => exactly_two += 1,
                _ => {}
            }
        }
        let p1 = if n == 0 {
            0.0
        } else {
            exactly_one as f64 / n as f64
        };
        let p2 = if n == 0 {
            0.0
        } else {
            exactly_two as f64 / n as f64
        };
        let theory = p1 * p1 / 2.0;
        // z test on the count of two-failure groups against the
        // independence prediction.
        let z = if n > 0 && theory > 0.0 {
            let se = (theory * (1.0 - theory) / n as f64).sqrt();
            (p2 - theory) / se
        } else {
            0.0
        };
        CorrelationResult {
            failure_type: ty,
            groups: n,
            empirical_p1: p1,
            empirical_p2: p2,
            theoretical_p2: theory,
            inflation: if theory > 0.0 {
                Some(p2 / theory)
            } else {
                None
            },
            z,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_model::{DeviceAddr, DiskInstanceId, LoopId, RaidGroupId, ShelfId, SystemId};

    fn rec(t: u64, disk: u64, shelf: u32, ty: FailureType) -> FailureRecord {
        FailureRecord {
            detected_at: SimTime::from_secs(t),
            failure_type: ty,
            disk: DiskInstanceId(disk),
            system: SystemId(0),
            shelf: ShelfId(shelf),
            raid_group: RaidGroupId(shelf),
            fc_loop: LoopId(0),
            device: DeviceAddr::new(8, 16),
        }
    }

    fn groups(n: u32) -> Vec<GroupWindow> {
        (0..n)
            .map(|k| GroupWindow {
                key: k,
                in_service_from: SimTime::ZERO,
            })
            .collect()
    }

    const YEAR: u64 = 31_557_600;

    #[test]
    fn counts_exactly_one_and_exactly_two() {
        // Shelf 0: one disk failure; shelf 1: two; shelf 2: three; rest: none.
        let records = vec![
            rec(100, 1, 0, FailureType::Disk),
            rec(100, 2, 1, FailureType::Disk),
            rec(200_000, 3, 1, FailureType::Disk),
            rec(100, 4, 2, FailureType::Disk),
            rec(200_000, 5, 2, FailureType::Disk),
            rec(400_000, 6, 2, FailureType::Disk),
        ];
        let results = correlation_by_type(
            Scope::Shelf,
            &groups(100),
            &records,
            SimDuration::from_secs(YEAR),
        );
        let disk = results[FailureType::Disk.index()];
        assert_eq!(disk.groups, 100);
        assert!((disk.empirical_p1 - 0.01).abs() < 1e-12);
        assert!((disk.empirical_p2 - 0.01).abs() < 1e-12);
        assert!((disk.theoretical_p2 - 0.00005).abs() < 1e-12);
        assert!(disk.inflation.unwrap() > 100.0);
    }

    #[test]
    fn failures_outside_the_window_do_not_count() {
        let records = vec![
            rec(100, 1, 0, FailureType::Disk),
            rec(2 * YEAR, 2, 0, FailureType::Disk), // beyond first year
        ];
        let results = correlation_by_type(
            Scope::Shelf,
            &groups(10),
            &records,
            SimDuration::from_secs(YEAR),
        );
        let disk = results[FailureType::Disk.index()];
        assert!((disk.empirical_p1 - 0.1).abs() < 1e-12);
        assert_eq!(disk.empirical_p2, 0.0);
    }

    #[test]
    fn groups_without_a_full_window_are_excluded() {
        let mut gs = groups(10);
        // Half the shelves installed too late to observe a full year.
        let end = SimTime::study_end();
        for g in gs.iter_mut().take(5) {
            g.in_service_from = end.saturating_sub(SimDuration::from_secs(YEAR / 2));
        }
        let results = correlation_by_type(Scope::Shelf, &gs, &[], SimDuration::from_secs(YEAR));
        assert_eq!(results[0].groups, 5);
    }

    #[test]
    fn duplicates_are_filtered_before_counting() {
        let records = vec![
            rec(100, 1, 0, FailureType::Protocol),
            rec(700, 1, 0, FailureType::Protocol), // same disk, 10 min later
        ];
        let results = correlation_by_type(
            Scope::Shelf,
            &groups(10),
            &records,
            SimDuration::from_secs(YEAR),
        );
        let proto = results[FailureType::Protocol.index()];
        assert!((proto.empirical_p1 - 0.1).abs() < 1e-12);
        assert_eq!(proto.empirical_p2, 0.0);
    }

    #[test]
    fn independence_produces_no_significant_excess() {
        // Simulate independent Poisson failures across many shelves.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let n_groups = 20_000u32;
        fn rate_f64() -> f64 {
            0.05 // expected failures per group-year
        }
        let mut records = Vec::new();
        let mut disk_id = 0u64;
        let limit = (-rate_f64()).exp();
        for shelf in 0..n_groups {
            // Poisson(rate) count in the window (Knuth's method).
            let mut k = 0;
            let mut p: f64 = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p < limit {
                    break;
                }
                k += 1;
            }
            for _ in 0..k {
                disk_id += 1;
                let t = (rng.gen::<f64>() * YEAR as f64) as u64;
                records.push(rec(t, disk_id, shelf, FailureType::Disk));
            }
        }
        let results = correlation_by_type(
            Scope::Shelf,
            &groups(n_groups),
            &records,
            SimDuration::from_secs(YEAR),
        );
        let disk = results[FailureType::Disk.index()];
        // Inflation should be close to 1 and not significant at 99.5%.
        let inflation = disk.inflation.unwrap();
        assert!((0.6..1.6).contains(&inflation), "inflation {inflation}");
        assert!(!disk.significant_at(0.995), "z = {}", disk.z);
    }

    #[test]
    fn theoretical_pn_follows_equation_4() {
        let r = CorrelationResult {
            failure_type: FailureType::Disk,
            groups: 100,
            empirical_p1: 0.1,
            empirical_p2: 0.0,
            theoretical_p2: 0.005,
            inflation: None,
            z: 0.0,
        };
        assert!((r.theoretical_pn(1) - 0.1).abs() < 1e-12);
        assert!((r.theoretical_pn(2) - 0.005).abs() < 1e-12);
        assert!((r.theoretical_pn(3) - 0.1f64.powi(3) / 6.0).abs() < 1e-15);
    }

    #[test]
    fn scope_keys_select_the_right_field() {
        let mut r = rec(0, 1, 5, FailureType::Disk);
        r.raid_group = RaidGroupId(9);
        assert_eq!(Scope::Shelf.key(&r), 5);
        assert_eq!(Scope::RaidGroup.key(&r), 9);
    }
}
