//! Time-between-failure analysis (paper §5.1, Figure 9).
//!
//! Failures are grouped by shelf enclosure or RAID group; within each
//! group, consecutive detection-time gaps form the time-between-failure
//! sample. Duplicate failures (the same disk re-reporting the same failure
//! type in short succession) are filtered first, as the paper does, so the
//! distribution reflects failures of *different* disks sharing a
//! component. Disk-failure gaps are additionally fitted against the
//! paper's three candidate models.

use ssfa_model::{DiskInstanceId, FailureRecord, FailureType, HashIndex, SimDuration, SimTime};
use ssfa_stats::ecdf::Ecdf;
use ssfa_stats::fit::{fit_all, FittedModel};
use ssfa_stats::hypothesis::{chi_square_gof, ChiSquareResult};

use crate::correlation::Scope;

/// The burstiness threshold the paper quotes: 10,000 seconds.
pub const BURST_THRESHOLD_SECS: f64 = 10_000.0;

/// Window within which a same-disk same-type repeat is considered a
/// duplicate report of one failure (deduplication, paper §5.1).
pub const DEDUP_WINDOW: SimDuration = SimDuration(24 * 3_600);

/// Gap statistics for one failure type (or the overall stream).
#[derive(Debug, Clone)]
pub struct GapAnalysis {
    /// The gaps, in seconds, in occurrence order.
    pub gaps_secs: Vec<f64>,
    /// Empirical CDF over the gaps (`None` when fewer than 1 gap).
    pub ecdf: Option<Ecdf>,
}

impl GapAnalysis {
    fn from_gaps(gaps_secs: Vec<f64>) -> Self {
        let ecdf = if gaps_secs.is_empty() {
            None
        } else {
            Ecdf::new(&gaps_secs).ok()
        };
        GapAnalysis { gaps_secs, ecdf }
    }

    /// Number of gaps observed.
    pub fn len(&self) -> usize {
        self.gaps_secs.len()
    }

    /// Whether no gaps were observed.
    pub fn is_empty(&self) -> bool {
        self.gaps_secs.is_empty()
    }

    /// Fraction of gaps at or below `threshold_secs` (the paper's
    /// "X% of failures arrive within 10,000 seconds of the previous one").
    pub fn fraction_within(&self, threshold_secs: f64) -> f64 {
        match &self.ecdf {
            Some(e) => e.eval(threshold_secs),
            None => 0.0,
        }
    }

    /// Samples the empirical CDF at `n` log-spaced points between `lo` and
    /// `hi` seconds — the series of the paper's Figure 9 (log-scaled time
    /// axis from 1 s to 10⁸ s). Returns an empty vector when no gaps were
    /// observed.
    pub fn cdf_series(&self, lo_secs: f64, hi_secs: f64, n: usize) -> Vec<(f64, f64)> {
        match &self.ecdf {
            Some(e) => e.log_spaced_series(lo_secs, hi_secs, n),
            None => Vec::new(),
        }
    }

    /// Fits the paper's candidate distributions (exponential, Weibull,
    /// Gamma) to the gaps and runs a chi-square goodness-of-fit for each.
    ///
    /// Returns `(model, chi-square result)` pairs; models whose fit or test
    /// prerequisites fail are omitted. Zero gaps (same detection second)
    /// are nudged to one second, since the fits require positive support.
    pub fn fit_candidates(&self, bins: usize) -> Vec<(FittedModel, ChiSquareResult)> {
        let data: Vec<f64> = self.gaps_secs.iter().map(|&g| g.max(1.0)).collect();
        let Ok(fits) = fit_all(&data) else {
            return Vec::new();
        };
        fits.into_iter()
            .filter_map(|fit| {
                chi_square_gof(&data, fit.dist.as_ref(), bins, fit.params)
                    .ok()
                    .map(|gof| (fit, gof))
            })
            .collect()
    }
}

/// Complete time-between-failure analysis at one scope.
#[derive(Debug, Clone)]
pub struct TbfAnalysis {
    /// Which grouping produced this analysis.
    pub scope: Scope,
    /// Gap analysis per failure type.
    per_type: [GapAnalysis; 4],
    /// Gap analysis over the merged (all-types) stream.
    overall: GapAnalysis,
}

impl TbfAnalysis {
    /// Groups failures by the scope's key and computes gap samples.
    ///
    /// Records need not be sorted; duplicates are filtered per
    /// [`DEDUP_WINDOW`].
    pub fn compute(scope: Scope, records: &[FailureRecord]) -> TbfAnalysis {
        // One stable sort by (scope key, detection order) lays each group
        // out contiguously, in key order, chronologically within — so the
        // gap-sample vectors are filled in the same order however the
        // records were produced.
        let mut sorted: Vec<&FailureRecord> = records.iter().collect();
        sorted.sort_by(|a, b| {
            scope
                .key(a)
                .cmp(&scope.key(b))
                .then_with(|| FailureRecord::chronological(a, b))
        });

        let mut per_type_gaps: [Vec<f64>; 4] = Default::default();
        let mut overall_gaps: Vec<f64> = Vec::new();
        let mut last_seen = HashIndex::new();
        let mut kept = Vec::new();

        for group in sorted.chunk_by(|a, b| scope.key(a) == scope.key(b)) {
            dedup_into(group, &mut last_seen, &mut kept);

            let mut last_of_type: [Option<SimTime>; 4] = [None; 4];
            for rec in &kept {
                let last = &mut last_of_type[rec.failure_type.index()];
                if let Some(prev) = *last {
                    let gap = rec.detected_at.duration_since(prev).as_secs() as f64;
                    per_type_gaps[rec.failure_type.index()].push(gap);
                }
                *last = Some(rec.detected_at);
            }
            for pair in kept.windows(2) {
                let gap = pair[1]
                    .detected_at
                    .duration_since(pair[0].detected_at)
                    .as_secs();
                overall_gaps.push(gap as f64);
            }
        }

        TbfAnalysis {
            scope,
            per_type: per_type_gaps.map(GapAnalysis::from_gaps),
            overall: GapAnalysis::from_gaps(overall_gaps),
        }
    }

    /// Gap analysis for one failure type.
    pub fn for_type(&self, ty: FailureType) -> &GapAnalysis {
        &self.per_type[ty.index()]
    }

    /// Gap analysis over the merged stream of all four types.
    pub fn overall(&self) -> &GapAnalysis {
        &self.overall
    }
}

/// Refills `kept` with one chronologically sorted group minus its
/// same-disk same-type repeats within [`DEDUP_WINDOW`]. `last_seen` is
/// scratch, cleared here, so one map serves every group.
fn dedup_into<'a>(
    sorted: &[&'a FailureRecord],
    last_seen: &mut HashIndex<(DiskInstanceId, FailureType), SimTime>,
    kept: &mut Vec<&'a FailureRecord>,
) {
    last_seen.clear();
    kept.clear();
    for &rec in sorted {
        let key = (rec.disk, rec.failure_type);
        let dup = match last_seen.get(&key) {
            Some(&prev) => rec.detected_at.duration_since(prev) <= DEDUP_WINDOW,
            None => false,
        };
        last_seen.insert(key, rec.detected_at);
        if !dup {
            kept.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_model::{DeviceAddr, LoopId, RaidGroupId, ShelfId, SystemId};

    fn rec(t: u64, disk: u64, shelf: u32, ty: FailureType) -> FailureRecord {
        FailureRecord {
            detected_at: SimTime::from_secs(t),
            failure_type: ty,
            disk: DiskInstanceId(disk),
            system: SystemId(0),
            shelf: ShelfId(shelf),
            raid_group: RaidGroupId(shelf), // 1:1 for test simplicity
            fc_loop: LoopId(0),
            device: DeviceAddr::new(8, 16),
        }
    }

    #[test]
    fn gaps_are_computed_within_groups_only() {
        let records = vec![
            rec(1_000, 1, 0, FailureType::Disk),
            rec(5_000, 2, 0, FailureType::Disk),
            // Different shelf: independent stream, no cross-group gap.
            rec(6_000, 3, 1, FailureType::Disk),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        let disk = tbf.for_type(FailureType::Disk);
        assert_eq!(disk.gaps_secs, vec![4_000.0]);
        assert_eq!(tbf.overall().gaps_secs, vec![4_000.0]);
    }

    #[test]
    fn overall_stream_merges_types() {
        let records = vec![
            rec(1_000, 1, 0, FailureType::Disk),
            rec(3_000, 2, 0, FailureType::Protocol),
            rec(9_000, 3, 0, FailureType::Disk),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        assert_eq!(tbf.overall().gaps_secs, vec![2_000.0, 6_000.0]);
        assert_eq!(tbf.for_type(FailureType::Disk).gaps_secs, vec![8_000.0]);
        assert!(tbf.for_type(FailureType::Protocol).is_empty());
    }

    #[test]
    fn duplicates_same_disk_same_type_are_filtered() {
        let records = vec![
            rec(1_000, 1, 0, FailureType::PhysicalInterconnect),
            // Same disk re-reports 10 minutes later: duplicate.
            rec(1_600, 1, 0, FailureType::PhysicalInterconnect),
            rec(50_000, 2, 0, FailureType::PhysicalInterconnect),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        let ic = tbf.for_type(FailureType::PhysicalInterconnect);
        assert_eq!(ic.gaps_secs, vec![49_000.0]);
    }

    #[test]
    fn same_disk_different_type_is_not_a_duplicate() {
        let records = vec![
            rec(1_000, 1, 0, FailureType::PhysicalInterconnect),
            rec(2_000, 1, 0, FailureType::Protocol),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        assert_eq!(tbf.overall().gaps_secs, vec![1_000.0]);
    }

    #[test]
    fn same_disk_same_type_after_window_is_kept() {
        let records = vec![
            rec(1_000, 1, 0, FailureType::Disk),
            rec(1_000 + 30 * 3_600, 1, 0, FailureType::Disk),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        assert_eq!(tbf.for_type(FailureType::Disk).len(), 1);
    }

    #[test]
    fn interleaved_unsorted_groups_match_group_then_sort() {
        use FailureType::{Disk, Performance, PhysicalInterconnect as Ic, Protocol};
        // Three shelves' records, interleaved and out of order. Shelf 5
        // holds a same-second tie (disks 51 and 52 at t=1,000) and disk
        // 51's Ic repeats: 1,600 repeats 1,000 inside the window; 87,500
        // is within the window of that (dropped) 1,600 report, so it is
        // dropped too; 200,000 is kept.
        let records = vec![
            rec(3_000, 50, 5, Ic),
            rec(10_000, 10, 1, Disk),
            rec(7_000, 30, 3, Performance),
            rec(200_000, 51, 5, Ic),
            rec(1_000, 51, 5, Ic),
            rec(4_000, 11, 1, Protocol),
            rec(2_000, 31, 3, Performance),
            rec(87_500, 51, 5, Ic),
            rec(1_000, 52, 5, Disk),
            rec(4_000, 12, 1, Protocol),
            rec(1_600, 51, 5, Ic),
            rec(30_000, 13, 1, Disk),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        // Groups contribute in shelf order 1, 3, 5.
        assert_eq!(tbf.for_type(Disk).gaps_secs, vec![20_000.0]);
        assert_eq!(tbf.for_type(Ic).gaps_secs, vec![2_000.0, 197_000.0]);
        assert_eq!(tbf.for_type(Protocol).gaps_secs, vec![0.0]);
        assert_eq!(tbf.for_type(Performance).gaps_secs, vec![5_000.0]);
        assert_eq!(
            tbf.overall().gaps_secs,
            vec![0.0, 6_000.0, 20_000.0, 5_000.0, 0.0, 2_000.0, 197_000.0]
        );
    }

    #[test]
    fn raid_group_scope_regroups() {
        let mut a = rec(1_000, 1, 0, FailureType::Disk);
        let mut b = rec(2_000, 2, 1, FailureType::Disk);
        // Same RAID group spanning two shelves.
        a.raid_group = RaidGroupId(7);
        b.raid_group = RaidGroupId(7);
        let records = vec![a, b];
        let by_shelf = TbfAnalysis::compute(Scope::Shelf, &records);
        assert!(by_shelf.overall().is_empty());
        let by_rg = TbfAnalysis::compute(Scope::RaidGroup, &records);
        assert_eq!(by_rg.overall().gaps_secs, vec![1_000.0]);
    }

    #[test]
    fn fraction_within_threshold() {
        let records = vec![
            rec(0, 1, 0, FailureType::Disk),
            rec(5_000, 2, 0, FailureType::Disk),
            rec(1_000_000, 3, 0, FailureType::Disk),
        ];
        let tbf = TbfAnalysis::compute(Scope::Shelf, &records);
        let g = tbf.overall();
        assert_eq!(g.len(), 2);
        assert!((g.fraction_within(BURST_THRESHOLD_SECS) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fit_candidates_on_synthetic_gamma_gaps() {
        use rand::SeedableRng;
        use ssfa_stats::dist::{ContinuousDist, Gamma};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = Gamma::new(2.0, 50_000.0).unwrap();
        let gaps: Vec<f64> = (0..2_000).map(|_| g.sample(&mut rng)).collect();
        let analysis = GapAnalysis::from_gaps(gaps);
        let fits = analysis.fit_candidates(15);
        assert_eq!(fits.len(), 3);
        // Gamma should not be rejected; exponential should be.
        let result = |name: &str| {
            fits.iter()
                .find(|(m, _)| m.dist.name() == name)
                .map(|(_, r)| *r)
                .unwrap()
        };
        assert!(!result("Gamma").rejects_at(0.05));
        assert!(result("Exponential").rejects_at(0.05));
    }

    #[test]
    fn empty_records_produce_empty_analysis() {
        let tbf = TbfAnalysis::compute(Scope::Shelf, &[]);
        assert!(tbf.overall().is_empty());
        assert_eq!(tbf.overall().fraction_within(1e4), 0.0);
        assert!(tbf.overall().fit_candidates(10).is_empty());
    }
}
