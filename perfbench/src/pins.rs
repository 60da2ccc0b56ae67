//! Pinned outputs for the default seed at each fleet scale the workloads
//! use. A change that alters Table 1 or the summary counts for these
//! inputs fails the benchmark's correctness check.

use crate::check::Summary;

/// The expected output for one (scale, seed).
#[derive(Debug)]
pub struct Pin {
    /// Fleet scale.
    pub scale: f64,
    /// Seed.
    pub seed: u64,
    /// Table 1 rows, `Debug`-formatted.
    pub table1: &'static [&'static str],
    /// `JsonSummarySink` counts: systems, lifetimes, failures, lines_seen.
    pub counts: [u64; 4],
    /// `JsonSummarySink` disk-years.
    pub disk_years: &'static str,
}

impl Pin {
    /// The pinned summary.
    pub fn summary(&self) -> Summary {
        let [systems, lifetimes, failures, lines_seen] = self.counts;
        Summary {
            systems,
            lifetimes,
            failures,
            disk_years: self.disk_years.to_owned(),
            lines_seen,
        }
    }
}

/// The pin for `(scale, seed)`, if there is one.
pub fn lookup(scale: f64, seed: u64) -> Option<&'static Pin> {
    PINS.iter().find(|p| p.scale == scale && p.seed == seed)
}

/// Every pin: seed 2008 at the two fleet scales the workloads use.
pub const PINS: &[Pin] = &[
    Pin {
        scale: 1.0,
        seed: 2008,
        table1: &[
            "Table1Row { class: NearLine, systems: 4927, shelves: 33412, disks: 447136, raid_groups: 66824, has_dual_path: false, disk_years: 676676.2454405768, counts: FailureCounts { counts: [12865, 6271, 2320, 1413] } }",
            "Table1Row { class: LowEnd, systems: 22031, shelves: 36511, disks: 259102, raid_groups: 58542, has_dual_path: false, disk_years: 374861.82336654287, counts: FailureCounts { counts: [3548, 10703, 1806, 1246] } }",
            "Table1Row { class: MidRange, systems: 7154, shelves: 53066, disks: 594400, raid_groups: 90799, has_dual_path: true, disk_years: 1083306.096122355, counts: FailureCounts { counts: [10722, 16665, 3751, 3274] } }",
            "Table1Row { class: HighEnd, systems: 5003, shelves: 33525, disks: 443371, raid_groups: 55703, has_dual_path: true, disk_years: 838755.3915298617, counts: FailureCounts { counts: [7588, 17306, 2311, 401] } }",
        ],
        counts: [39115, 1744009, 102190, 2371285],
        disk_years: "2973599.556",
    },
    Pin {
        scale: 0.1,
        seed: 2008,
        table1: &[
            "Table1Row { class: NearLine, systems: 493, shelves: 3344, disks: 44729, raid_groups: 6688, has_dual_path: false, disk_years: 67692.88352770876, counts: FailureCounts { counts: [1268, 624, 243, 159] } }",
            "Table1Row { class: LowEnd, systems: 2203, shelves: 3613, disks: 25634, raid_groups: 5816, has_dual_path: false, disk_years: 37290.82111738514, counts: FailureCounts { counts: [344, 1049, 179, 156] } }",
            "Table1Row { class: MidRange, systems: 715, shelves: 5209, disks: 58412, raid_groups: 8915, has_dual_path: true, disk_years: 103701.60884931327, counts: FailureCounts { counts: [1118, 1634, 396, 350] } }",
            "Table1Row { class: HighEnd, systems: 500, shelves: 3388, disks: 44790, raid_groups: 5629, has_dual_path: true, disk_years: 86040.49888064836, counts: FailureCounts { counts: [752, 1564, 227, 37] } }",
        ],
        counts: [3911, 173565, 10100, 235937],
        disk_years: "294725.812",
    },
];
