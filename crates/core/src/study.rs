//! The [`Study`] orchestrator: computes every table and figure of the
//! paper from one [`AnalysisInput`].

use std::collections::BTreeMap;

use ssfa_logs::classify::SystemMeta;
use ssfa_logs::AnalysisInput;
use ssfa_model::{
    DiskModelId, FailureCounts, PathConfig, ShelfModel, SimDuration, SystemClass, SystemId,
};
use ssfa_stats::hypothesis::{poisson_two_rate_test, TTestResult};

use crate::afr::AfrBreakdown;
use crate::correlation::{correlation_by_type, CorrelationResult, GroupWindow, Scope};
use crate::tbf::TbfAnalysis;

/// One row of the paper's Table 1 (fleet overview per system class).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// System class.
    pub class: SystemClass,
    /// Number of systems.
    pub systems: usize,
    /// Number of shelf enclosures.
    pub shelves: usize,
    /// Number of disks ever installed (instances, incl. replacements).
    pub disks: usize,
    /// Number of RAID groups.
    pub raid_groups: usize,
    /// Whether any subsystem of the class runs dual paths.
    pub has_dual_path: bool,
    /// Exposure in disk-years.
    pub disk_years: f64,
    /// Failure events per type.
    pub counts: FailureCounts,
}

/// One panel of Figure 5: AFR by disk model for a (class, shelf) pairing.
#[derive(Debug, Clone)]
pub struct Fig5Panel {
    /// System class of the panel.
    pub class: SystemClass,
    /// Shelf model of the panel.
    pub shelf_model: ShelfModel,
    /// Rows: one breakdown per disk model, sorted by model id.
    pub rows: Vec<(DiskModelId, AfrBreakdown)>,
}

/// One panel of Figure 6: AFR by shelf model for one disk model (low-end).
#[derive(Debug, Clone)]
pub struct Fig6Panel {
    /// The disk model held fixed.
    pub disk_model: DiskModelId,
    /// Breakdowns per shelf model, sorted by model.
    pub rows: Vec<(ShelfModel, AfrBreakdown)>,
    /// Significance test on the physical-interconnect rate between the
    /// first two shelf models (`None` with fewer than two rows).
    pub interconnect_test: Option<TTestResult>,
}

/// One panel of Figure 7: AFR by path configuration for one class.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// The system class (mid-range or high-end).
    pub class: SystemClass,
    /// Breakdown for single-path subsystems.
    pub single: AfrBreakdown,
    /// Breakdown for dual-path subsystems.
    pub dual: AfrBreakdown,
    /// Significance test on the physical-interconnect rate.
    pub interconnect_test: Option<TTestResult>,
}

/// The analysis orchestrator.
#[derive(Debug, Clone)]
pub struct Study {
    input: AnalysisInput,
}

/// The one way per-shard (or per-chunk) [`AnalysisInput`] partials
/// combine: push them one at a time — in shard order — and finish into a
/// [`Study`].
///
/// The fold absorbs each partial as it arrives (topology maps union,
/// lifetimes/failures append) and re-establishes canonical order exactly
/// once at [`StudyFold::finish`], never holding more than the running
/// accumulator. For the shards of one fleet history the result is
/// bit-identical to classifying the monolithic corpus. The streaming
/// pipeline's engine folds every chunk's partial into one of these.
#[derive(Debug, Clone, Default)]
pub struct StudyFold {
    acc: AnalysisInput,
    partials: usize,
}

impl StudyFold {
    /// An empty fold. Finishing it immediately yields the empty study.
    pub fn new() -> StudyFold {
        StudyFold::default()
    }

    /// Folds one partial into the accumulator.
    pub fn push(&mut self, partial: AnalysisInput) {
        self.acc.absorb(partial);
        self.partials += 1;
    }

    /// Number of partials folded so far.
    pub fn len(&self) -> usize {
        self.partials
    }

    /// Whether no partial has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.partials == 0
    }

    /// Merges another fold into this one: topology maps union,
    /// lifetime/failure vectors append, partial counts add.
    ///
    /// `merge` is **associative** — the property that makes fold state a
    /// legitimate persistent artifact. Both constituent operations are:
    /// map union with last-writer-wins (every writer stores the same
    /// value for a given key, since each system's topology is rendered
    /// once) and vector append (concatenation). `(a ⊕ b) ⊕ c` and
    /// `a ⊕ (b ⊕ c)` therefore produce byte-identical accumulators even
    /// *before* canonicalization; the snapshot tests pin this at the
    /// serialized-byte level.
    pub fn merge(&mut self, other: StudyFold) {
        self.acc.absorb(other.acc);
        self.partials += other.partials;
    }

    /// Canonicalizes the accumulator and wraps it as a [`Study`].
    pub fn finish(mut self) -> Study {
        self.acc.canonicalize();
        Study::new(self.acc)
    }

    /// The raw accumulator, for the snapshot codec.
    pub(crate) fn acc_ref(&self) -> &AnalysisInput {
        &self.acc
    }

    /// Reassembles a fold from its decoded parts (snapshot restore).
    pub(crate) fn from_parts(acc: AnalysisInput, partials: usize) -> StudyFold {
        StudyFold { acc, partials }
    }
}

impl Study {
    /// Wraps an analysis input (typically produced by
    /// [`ssfa_logs::classify()`]).
    pub fn new(input: AnalysisInput) -> Study {
        Study { input }
    }

    /// The underlying input.
    pub fn input(&self) -> &AnalysisInput {
        &self.input
    }

    /// Groups exposure and failure counts by an arbitrary key derived from
    /// each record's owning system. Records whose key function returns
    /// `None` are excluded (from both numerator and denominator), and a
    /// key no record reaches has no entry.
    ///
    /// `key` is evaluated exactly once per system in the topology, not
    /// once per record, so it must be pure. Each cell still sums its
    /// records in canonical order, so the result is the same, bit for
    /// bit, as accumulating record by record.
    pub fn breakdown_by<K, F>(&self, key: F) -> BTreeMap<K, AfrBreakdown>
    where
        K: Ord,
        F: Fn(SystemId, &SystemMeta) -> Option<K>,
    {
        // Callers iterate these breakdowns (often accumulating floats), so
        // the map must iterate in key order, not hasher order.
        let mut cell_no: BTreeMap<K, usize> = BTreeMap::new();
        let cell_of = SystemColumn::build(&self.input.topology.systems, |id, meta| {
            let k = key(id, meta)?;
            let next = cell_no.len();
            Some(*cell_no.entry(k).or_insert(next))
        });
        let mut cells: Vec<Option<AfrBreakdown>> = vec![None; cell_no.len()];
        for lt in &self.input.lifetimes {
            if let Some(&Some(c)) = cell_of.get(lt.system) {
                cells[c]
                    .get_or_insert_with(AfrBreakdown::empty)
                    .add_exposure(lt.service_years());
            }
        }
        for rec in &self.input.failures {
            if let Some(&Some(c)) = cell_of.get(rec.system) {
                cells[c]
                    .get_or_insert_with(AfrBreakdown::empty)
                    .record(rec.failure_type);
            }
        }
        cell_no
            .into_iter()
            .filter_map(|(k, c)| cells[c].take().map(|b| (k, b)))
            .collect()
    }

    /// Table 1: fleet overview per system class.
    pub fn table1(&self) -> Vec<Table1Row> {
        let mut rows: Vec<Table1Row> = SystemClass::ALL
            .into_iter()
            .map(|class| Table1Row {
                class,
                systems: 0,
                shelves: 0,
                disks: 0,
                raid_groups: 0,
                has_dual_path: false,
                disk_years: 0.0,
                counts: FailureCounts::new(),
            })
            .collect();
        for meta in self.input.topology.systems.values() {
            let i = meta.class.index();
            rows[i].systems += 1;
            rows[i].has_dual_path |= meta.paths == PathConfig::DualPath;
        }
        let class_of =
            SystemColumn::build(&self.input.topology.systems, |_, meta| meta.class.index());
        for shelf in self.input.topology.shelves.values() {
            if let Some(&i) = class_of.get(shelf.system) {
                rows[i].shelves += 1;
            }
        }
        for rg in self.input.topology.raid_groups.values() {
            if let Some(&i) = class_of.get(rg.system) {
                rows[i].raid_groups += 1;
            }
        }
        for lt in &self.input.lifetimes {
            if let Some(&i) = class_of.get(lt.system) {
                rows[i].disks += 1;
                rows[i].disk_years += lt.service_years();
            }
        }
        for rec in &self.input.failures {
            if let Some(&i) = class_of.get(rec.system) {
                rows[i].counts.record(rec.failure_type);
            }
        }
        rows
    }

    /// Figure 4: AFR breakdown per system class, optionally excluding
    /// subsystems built from the problematic disk family `H`
    /// (4a = `true`, 4b = `false`).
    pub fn afr_by_class(&self, include_problematic: bool) -> BTreeMap<SystemClass, AfrBreakdown> {
        self.breakdown_by(|_, meta| {
            if !include_problematic && meta.disk_model.family.is_problematic() {
                None
            } else {
                Some(meta.class)
            }
        })
    }

    /// AFR breakdown for every (class, shelf model, disk model)
    /// combination present in the fleet.
    pub fn afr_by_environment(
        &self,
    ) -> BTreeMap<(SystemClass, ShelfModel, DiskModelId), AfrBreakdown> {
        self.breakdown_by(|_, meta| Some((meta.class, meta.shelf_model, meta.disk_model)))
    }

    /// Figure 5: the paper's six (class, shelf model) panels with AFR by
    /// disk model. Panels with no population are omitted.
    pub fn fig5_panels(&self) -> Vec<Fig5Panel> {
        const PANELS: [(SystemClass, ShelfModel); 6] = [
            (SystemClass::NearLine, ShelfModel::C),
            (SystemClass::LowEnd, ShelfModel::A),
            (SystemClass::LowEnd, ShelfModel::B),
            (SystemClass::MidRange, ShelfModel::C),
            (SystemClass::MidRange, ShelfModel::B),
            (SystemClass::HighEnd, ShelfModel::B),
        ];
        let env = self.afr_by_environment();
        PANELS
            .into_iter()
            .filter_map(|(class, shelf_model)| {
                let rows: Vec<(DiskModelId, AfrBreakdown)> = env
                    .iter()
                    .filter(|((c, s, _), _)| *c == class && *s == shelf_model)
                    .map(|((_, _, d), b)| (*d, b.clone()))
                    .collect();
                if rows.is_empty() {
                    return None;
                }
                Some(Fig5Panel {
                    class,
                    shelf_model,
                    rows,
                })
            })
            .collect()
    }

    /// Figure 6: low-end AFR by shelf enclosure model for each disk model
    /// used with both shelves, with a significance test on the
    /// physical-interconnect rate.
    pub fn fig6_panels(&self) -> Vec<Fig6Panel> {
        let env = self.breakdown_by(|_, meta| {
            (meta.class == SystemClass::LowEnd).then_some((meta.disk_model, meta.shelf_model))
        });
        let mut models: Vec<DiskModelId> = env.keys().map(|(d, _)| *d).collect();
        models.dedup();
        models
            .into_iter()
            .filter_map(|disk_model| {
                let rows: Vec<(ShelfModel, AfrBreakdown)> = env
                    .iter()
                    .filter(|((d, _), _)| *d == disk_model)
                    .map(|((_, s), b)| (*s, b.clone()))
                    .collect();
                if rows.len() < 2 {
                    return None;
                }
                let interconnect_test = interconnect_rate_test(&rows[0].1, &rows[1].1);
                Some(Fig6Panel {
                    disk_model,
                    rows,
                    interconnect_test,
                })
            })
            .collect()
    }

    /// Figure 7: single- vs dual-path AFR for the multipathing-capable
    /// classes, with a significance test on the interconnect rate.
    pub fn fig7_panels(&self) -> Vec<Fig7Panel> {
        [SystemClass::MidRange, SystemClass::HighEnd]
            .into_iter()
            .filter_map(|class| {
                let by_path =
                    self.breakdown_by(|_, meta| (meta.class == class).then_some(meta.paths));
                let single = by_path.get(&PathConfig::SinglePath)?.clone();
                let dual = by_path.get(&PathConfig::DualPath)?.clone();
                let interconnect_test = interconnect_rate_test(&single, &dual);
                Some(Fig7Panel {
                    class,
                    single,
                    dual,
                    interconnect_test,
                })
            })
            .collect()
    }

    /// Figure 9: time-between-failure analysis at one scope.
    pub fn tbf(&self, scope: Scope) -> TbfAnalysis {
        TbfAnalysis::compute(scope, &self.input.failures)
    }

    /// The group observation windows for correlation analysis at a scope:
    /// every shelf (or RAID group), starting service at its system's
    /// install time.
    pub fn group_windows(&self, scope: Scope) -> Vec<GroupWindow> {
        let topology = &self.input.topology;
        let installed_at = SystemColumn::build(&topology.systems, |_, meta| meta.installed_at);
        let window = |key: u32, system: SystemId| {
            Some(GroupWindow {
                key,
                in_service_from: *installed_at.get(system)?,
            })
        };
        match scope {
            Scope::Shelf => topology
                .shelves
                .iter()
                .filter_map(|(id, meta)| window(id.0, meta.system))
                .collect(),
            Scope::RaidGroup => topology
                .raid_groups
                .iter()
                .filter_map(|(id, meta)| window(id.0, meta.system))
                .collect(),
        }
    }

    /// Figure 10: the P(1)/P(2) correlation analysis at one scope, over a
    /// window `T` (the paper's default is one year).
    pub fn correlation(&self, scope: Scope, window: SimDuration) -> [CorrelationResult; 4] {
        let groups = self.group_windows(scope);
        correlation_by_type(scope, &groups, &self.input.failures, window)
    }

    /// The paper's robustness check (§5.2.2): the correlation analysis over
    /// several window lengths `T` ("we have set T to 3 months, 6 months,
    /// and 2 years ... in all cases, similar correlations were observed").
    pub fn correlation_sweep(
        &self,
        scope: Scope,
        windows: &[SimDuration],
    ) -> Vec<(SimDuration, [CorrelationResult; 4])> {
        let groups = self.group_windows(scope);
        windows
            .iter()
            .map(|&w| {
                (
                    w,
                    correlation_by_type(scope, &groups, &self.input.failures, w),
                )
            })
            .collect()
    }

    /// Per-disk-model AFR spread across environments (Finding 4): for each
    /// disk model deployed in at least two (class, shelf model)
    /// environments with meaningful exposure, the coefficient of variation
    /// of its *disk* AFR and of its *subsystem* AFR across those
    /// environments.
    pub fn disk_model_spread(&self, min_disk_years: f64) -> Vec<ModelSpread> {
        let env = self.afr_by_environment();
        let mut by_model: BTreeMap<DiskModelId, Vec<&AfrBreakdown>> = BTreeMap::new();
        for ((_, _, model), b) in &env {
            if b.disk_years() >= min_disk_years {
                by_model.entry(*model).or_default().push(b);
            }
        }
        let mut spreads: Vec<ModelSpread> = by_model
            .into_iter()
            .filter(|(_, envs)| envs.len() >= 2)
            .filter_map(|(model, envs)| {
                let disk: Vec<f64> = envs
                    .iter()
                    .map(|b| b.afr(ssfa_model::FailureType::Disk))
                    .collect();
                let subsystem: Vec<f64> = envs.iter().map(|b| b.total_afr()).collect();
                let cv = |xs: &[f64]| {
                    ssfa_stats::summary::Summary::of(xs)
                        .ok()
                        .and_then(|s| s.coefficient_of_variation())
                };
                Some(ModelSpread {
                    model,
                    environments: envs.len(),
                    disk_afr_cv: cv(&disk)?,
                    subsystem_afr_cv: cv(&subsystem)?,
                })
            })
            .collect();
        spreads.sort_by_key(|s| s.model);
        spreads
    }
}

impl Study {
    /// Chi-square homogeneity test per disk model across its environments
    /// (Finding 4 support): are the per-environment *disk* failure rates
    /// consistent with one pooled rate, and are the per-environment
    /// *subsystem* rates?
    ///
    /// Returns, per model with ≥ 2 environments of at least
    /// `min_disk_years` exposure, the p-values of the disk-rate and
    /// subsystem-rate homogeneity tests.
    pub fn disk_model_homogeneity(&self, min_disk_years: f64) -> Vec<ModelHomogeneity> {
        let env = self.afr_by_environment();
        let mut by_model: BTreeMap<DiskModelId, Vec<&AfrBreakdown>> = BTreeMap::new();
        for ((_, _, model), b) in &env {
            if b.disk_years() >= min_disk_years {
                by_model.entry(*model).or_default().push(b);
            }
        }
        let homogeneity_p = |cells: &[&AfrBreakdown], events: &dyn Fn(&AfrBreakdown) -> u64| {
            let total_events: u64 = cells.iter().map(|b| events(b)).sum();
            let total_exposure: f64 = cells.iter().map(|b| b.disk_years()).sum();
            if total_events == 0 || total_exposure <= 0.0 {
                return 1.0;
            }
            let pooled = total_events as f64 / total_exposure;
            let statistic: f64 = cells
                .iter()
                .map(|b| {
                    let expected = pooled * b.disk_years();
                    let observed = events(b) as f64;
                    (observed - expected).powi(2) / expected.max(1e-12)
                })
                .sum();
            ssfa_stats::special::chi_square_sf(statistic, (cells.len() - 1) as f64)
        };
        let mut out: Vec<ModelHomogeneity> = by_model
            .into_iter()
            .filter(|(_, cells)| cells.len() >= 2)
            .map(|(model, cells)| ModelHomogeneity {
                model,
                environments: cells.len(),
                disk_p: homogeneity_p(&cells, &|b| b.counts().get(ssfa_model::FailureType::Disk)),
                subsystem_p: homogeneity_p(&cells, &|b| b.counts().total()),
            })
            .collect();
        out.sort_by_key(|h| h.model);
        out
    }
}

/// Homogeneity test results for one disk model across environments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelHomogeneity {
    /// The disk model.
    pub model: DiskModelId,
    /// Number of environments considered.
    pub environments: usize,
    /// p-value: per-environment disk failure rates share one pooled rate.
    pub disk_p: f64,
    /// p-value: per-environment subsystem failure rates share one pooled
    /// rate.
    pub subsystem_p: f64,
}

/// Per-model AFR spread across environments (Finding 4 support).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpread {
    /// The disk model.
    pub model: DiskModelId,
    /// Number of environments the model appears in.
    pub environments: usize,
    /// Coefficient of variation of the disk AFR across environments.
    pub disk_afr_cv: f64,
    /// Coefficient of variation of the subsystem AFR across environments.
    pub subsystem_afr_cv: f64,
}

/// One value per system of a topology, in `SystemId` order, looked up
/// by a record's owning system.
///
/// The fleet numbers its systems densely from zero, so a system's rank
/// is usually its id: [`SystemColumn::get`] probes that slot first and
/// falls back to a binary search, so sparse or out-of-range ids cost
/// time, never memory.
struct SystemColumn<T> {
    by_rank: Vec<(SystemId, T)>,
}

impl<T> SystemColumn<T> {
    /// Evaluates `value` once per system, in key order.
    fn build(
        systems: &BTreeMap<SystemId, SystemMeta>,
        mut value: impl FnMut(SystemId, &SystemMeta) -> T,
    ) -> SystemColumn<T> {
        SystemColumn {
            by_rank: systems
                .iter()
                .map(|(&id, meta)| (id, value(id, meta)))
                .collect(),
        }
    }

    /// The value of system `id`, or `None` if the topology lacks it.
    fn get(&self, id: SystemId) -> Option<&T> {
        match self.by_rank.get(id.index()) {
            Some((probe, value)) if *probe == id => Some(value),
            _ => {
                let rank = self.by_rank.binary_search_by_key(&id, |(probe, _)| *probe);
                rank.ok().map(|r| &self.by_rank[r].1)
            }
        }
    }
}

/// Poisson two-rate test on the physical-interconnect AFRs of two
/// breakdowns.
fn interconnect_rate_test(a: &AfrBreakdown, b: &AfrBreakdown) -> Option<TTestResult> {
    let ty = ssfa_model::FailureType::PhysicalInterconnect;
    poisson_two_rate_test(
        a.counts().get(ty),
        a.disk_years(),
        b.counts().get(ty),
        b.disk_years(),
    )
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::classify::classify;
    use ssfa_logs::render::render_support_log;
    use ssfa_logs::CascadeStyle;
    use ssfa_model::{FailureType, Fleet, FleetConfig};
    use ssfa_sim::Simulator;

    fn study(scale: f64, seed: u64) -> Study {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(scale), seed);
        let out = Simulator::default().run(&fleet, seed);
        let book = render_support_log(&fleet, &out, CascadeStyle::RaidOnly);
        Study::new(classify(&book).expect("classification succeeds"))
    }

    /// One moderately-sized study shared by the statistics-sensitive tests
    /// (built once; scale 0.015 keeps every (model, shelf) cell populated).
    fn shared_study() -> &'static Study {
        static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| study(0.015, 4242))
    }

    /// A hand-made input whose system ids are not dense: 0, 7, 9 and one
    /// near `u32::MAX`; system 9 owns no records, and one lifetime, one
    /// failure, one shelf and one RAID group name a system (123) the
    /// topology lacks.
    fn sparse_study() -> Study {
        use ssfa_logs::classify::{DiskLifetime, RaidGroupMeta, ShelfMeta};
        use ssfa_model::{
            DeviceAddr, DiskInstanceId, FailureRecord, LayoutPolicy, LoopId, RaidGroupId, RaidType,
            ShelfId, SimTime, SlotAddr,
        };
        const FAR: SystemId = SystemId(4_000_000_000);
        let system = |class, family, shelf_model, paths| SystemMeta {
            class,
            disk_model: DiskModelId::new(family, 1),
            shelf_model,
            paths,
            layout: LayoutPolicy::SpanShelves,
            installed_at: SimTime::from_secs(0),
        };
        let mut input = AnalysisInput::default();
        let topology = &mut input.topology;
        for (id, meta) in [
            (
                SystemId(0),
                system(
                    SystemClass::LowEnd,
                    'A',
                    ShelfModel::A,
                    PathConfig::SinglePath,
                ),
            ),
            (
                SystemId(7),
                system(
                    SystemClass::MidRange,
                    'A',
                    ShelfModel::B,
                    PathConfig::DualPath,
                ),
            ),
            (
                SystemId(9),
                system(
                    SystemClass::NearLine,
                    'I',
                    ShelfModel::C,
                    PathConfig::SinglePath,
                ),
            ),
            (
                FAR,
                system(
                    SystemClass::HighEnd,
                    'B',
                    ShelfModel::B,
                    PathConfig::SinglePath,
                ),
            ),
        ] {
            topology.systems.insert(id, meta);
        }
        for (shelf, system) in [(0, SystemId(0)), (1, FAR), (2, SystemId(123))] {
            let meta = ShelfMeta {
                system,
                model: ShelfModel::B,
                fc_loop: LoopId(0),
                bays: 14,
            };
            topology.shelves.insert(ShelfId(shelf), meta);
        }
        for (rg, system) in [(0, SystemId(7)), (1, SystemId(123))] {
            let meta = RaidGroupMeta {
                system,
                raid_type: RaidType::Raid4,
            };
            topology.raid_groups.insert(RaidGroupId(rg), meta);
        }
        let lifetime = |disk, system, years| DiskLifetime {
            disk: DiskInstanceId(disk),
            model: DiskModelId::new('A', 1),
            slot: SlotAddr {
                shelf: ShelfId(0),
                bay: 0,
            },
            system,
            raid_group: RaidGroupId(0),
            installed_at: SimTime::from_secs(0),
            removed_at: SimTime::from_years(years),
            removed_by_failure: false,
        };
        input.lifetimes = vec![
            lifetime(1, SystemId(0), 2.0),
            lifetime(2, SystemId(7), 1.0),
            lifetime(3, SystemId(123), 5.0),
            lifetime(4, FAR, 3.0),
            lifetime(5, SystemId(0), 0.5),
        ];
        let failure = |disk, system, failure_type| FailureRecord {
            detected_at: SimTime::from_secs(disk * 100),
            failure_type,
            disk: DiskInstanceId(disk),
            system,
            shelf: ShelfId(0),
            raid_group: RaidGroupId(0),
            fc_loop: LoopId(0),
            device: DeviceAddr::new(8, 16),
        };
        input.failures = vec![
            failure(1, SystemId(0), FailureType::Disk),
            failure(2, SystemId(7), FailureType::Protocol),
            failure(3, SystemId(123), FailureType::Performance),
            failure(4, FAR, FailureType::Disk),
            failure(5, SystemId(0), FailureType::PhysicalInterconnect),
        ];
        Study::new(input)
    }

    fn breakdown(counts: [u64; 4], disk_years: f64) -> AfrBreakdown {
        let mut b = AfrBreakdown::empty();
        for ty in FailureType::ALL {
            for _ in 0..counts[ty.index()] {
                b.record(ty);
            }
        }
        b.add_exposure(disk_years);
        b
    }

    #[test]
    fn breakdown_by_resolves_sparse_ids_and_skips_unknown_systems() {
        let s = sparse_study();
        let by_class = s.breakdown_by(|_, meta| Some(meta.class));
        let expected: BTreeMap<SystemClass, AfrBreakdown> = [
            (SystemClass::LowEnd, breakdown([1, 1, 0, 0], 2.5)),
            (SystemClass::MidRange, breakdown([0, 0, 1, 0], 1.0)),
            (SystemClass::HighEnd, breakdown([1, 0, 0, 0], 3.0)),
        ]
        .into_iter()
        .collect();
        // NearLine's system owns no records, so its key has no entry.
        assert_eq!(by_class, expected);

        let by_shelf = s.breakdown_by(|_, meta| {
            (meta.class != SystemClass::MidRange).then_some(meta.shelf_model)
        });
        let expected: BTreeMap<ShelfModel, AfrBreakdown> = [
            (ShelfModel::A, breakdown([1, 1, 0, 0], 2.5)),
            (ShelfModel::B, breakdown([1, 0, 0, 0], 3.0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(by_shelf, expected);
    }

    #[test]
    fn table1_resolves_sparse_ids_and_skips_unknown_systems() {
        let rows = sparse_study().table1();
        let row = |class: SystemClass| &rows[class.index()];
        let counts = |c: [u64; 4]| *breakdown(c, 0.0).counts();
        assert_eq!(
            *row(SystemClass::NearLine),
            Table1Row {
                class: SystemClass::NearLine,
                systems: 1,
                shelves: 0,
                disks: 0,
                raid_groups: 0,
                has_dual_path: false,
                disk_years: 0.0,
                counts: counts([0; 4]),
            }
        );
        assert_eq!(
            *row(SystemClass::LowEnd),
            Table1Row {
                class: SystemClass::LowEnd,
                systems: 1,
                shelves: 1,
                disks: 2,
                raid_groups: 0,
                has_dual_path: false,
                disk_years: 2.5,
                counts: counts([1, 1, 0, 0]),
            }
        );
        assert_eq!(
            *row(SystemClass::MidRange),
            Table1Row {
                class: SystemClass::MidRange,
                systems: 1,
                shelves: 0,
                disks: 1,
                raid_groups: 1,
                has_dual_path: true,
                disk_years: 1.0,
                counts: counts([0, 0, 1, 0]),
            }
        );
        assert_eq!(
            *row(SystemClass::HighEnd),
            Table1Row {
                class: SystemClass::HighEnd,
                systems: 1,
                shelves: 1,
                disks: 1,
                raid_groups: 0,
                has_dual_path: false,
                disk_years: 3.0,
                counts: counts([1, 0, 0, 0]),
            }
        );
    }

    #[test]
    fn system_column_is_sized_by_systems_not_by_ids() {
        let s = sparse_study();
        let column = SystemColumn::build(&s.input().topology.systems, |id, _| id.0);
        assert_eq!(column.by_rank.len(), 4);
        assert!(column.by_rank.capacity() < 16, "no id-sized allocation");
        for id in [0, 7, 9, 4_000_000_000] {
            assert_eq!(column.get(SystemId(id)), Some(&id));
        }
        for id in [1, 3, 8, 123, 3_999_999_999, u32::MAX] {
            assert_eq!(column.get(SystemId(id)), None);
        }
    }

    #[test]
    fn breakdown_by_evaluates_key_once_per_system() {
        for s in [&sparse_study(), shared_study()] {
            let calls = std::cell::Cell::new(0usize);
            s.breakdown_by(|_, meta| {
                calls.set(calls.get() + 1);
                Some(meta.class)
            });
            assert_eq!(calls.get(), s.input().topology.systems.len());
        }
    }

    #[test]
    fn table1_row_totals_are_consistent() {
        let s = shared_study();
        let rows = s.table1();
        assert_eq!(rows.len(), 4);
        let systems: usize = rows.iter().map(|r| r.systems).sum();
        assert_eq!(systems, s.input().topology.systems.len());
        let disks: usize = rows.iter().map(|r| r.disks).sum();
        assert_eq!(disks, s.input().lifetimes.len());
        let events: u64 = rows.iter().map(|r| r.counts.total()).sum();
        assert_eq!(events as usize, s.input().failures.len());
        // Dual paths only in mid-range / high-end.
        assert!(!rows[SystemClass::NearLine.index()].has_dual_path);
        assert!(!rows[SystemClass::LowEnd.index()].has_dual_path);
        assert!(rows[SystemClass::MidRange.index()].has_dual_path);
        assert!(rows[SystemClass::HighEnd.index()].has_dual_path);
    }

    #[test]
    fn afr_by_class_partitions_everything_when_h_included() {
        let s = shared_study();
        let by_class = s.afr_by_class(true);
        let total_years: f64 = by_class.values().map(|b| b.disk_years()).sum();
        assert!((total_years - s.input().total_disk_years()).abs() / total_years < 1e-9);
        let total_events: u64 = by_class.values().map(|b| b.counts().total()).sum();
        assert_eq!(total_events as usize, s.input().failures.len());
    }

    #[test]
    fn excluding_problematic_family_reduces_population() {
        let s = shared_study();
        let with_h = s.afr_by_class(true);
        let without_h = s.afr_by_class(false);
        let y_with: f64 = with_h.values().map(|b| b.disk_years()).sum();
        let y_without: f64 = without_h.values().map(|b| b.disk_years()).sum();
        assert!(y_without < y_with);
        // Disk-H systems exist in low-end, mid-range, high-end configs.
        let le_with = with_h[&SystemClass::LowEnd].total_afr();
        let le_without = without_h[&SystemClass::LowEnd].total_afr();
        assert!(
            le_without < le_with,
            "excluding H should lower low-end AFR ({le_without} vs {le_with})"
        );
    }

    #[test]
    fn fig5_panels_cover_the_paper_combinations() {
        let s = shared_study();
        let panels = s.fig5_panels();
        assert_eq!(panels.len(), 6, "all six panels populated at this scale");
        for p in &panels {
            assert!(!p.rows.is_empty());
            for (model, b) in &p.rows {
                assert!(b.disk_years() > 0.0, "{model} has no exposure");
            }
        }
    }

    #[test]
    fn fig6_panels_have_both_shelves_and_tests() {
        let s = shared_study();
        let panels = s.fig6_panels();
        assert!(
            panels.len() >= 4,
            "expected >=4 low-end disk models, got {}",
            panels.len()
        );
        for p in &panels {
            assert_eq!(p.rows.len(), 2);
            assert!(p.interconnect_test.is_some());
        }
    }

    #[test]
    fn fig7_has_single_and_dual_for_both_classes() {
        let s = shared_study();
        let panels = s.fig7_panels();
        assert_eq!(panels.len(), 2);
        for p in &panels {
            assert!(
                p.single.disk_years() > p.dual.disk_years(),
                "2/3 single path"
            );
            // Dual path must show a lower interconnect AFR.
            let ty = FailureType::PhysicalInterconnect;
            assert!(p.dual.afr(ty) < p.single.afr(ty), "{}", p.class);
        }
    }

    #[test]
    fn group_windows_cover_all_groups() {
        let s = study(0.002, 37);
        assert_eq!(
            s.group_windows(Scope::Shelf).len(),
            s.input().topology.shelves.len()
        );
        assert_eq!(
            s.group_windows(Scope::RaidGroup).len(),
            s.input().topology.raid_groups.len()
        );
    }

    #[test]
    fn correlation_runs_at_both_scopes() {
        let s = shared_study();
        for scope in [Scope::Shelf, Scope::RaidGroup] {
            let results = s.correlation(scope, SimDuration::from_years(1.0));
            for r in results {
                assert!(r.groups > 0);
                assert!(r.empirical_p1 >= 0.0 && r.empirical_p1 <= 1.0);
            }
        }
    }

    #[test]
    fn disk_model_spread_reports_multi_environment_models() {
        let s = shared_study();
        let spreads = s.disk_model_spread(50.0);
        assert!(!spreads.is_empty(), "some models span environments");
        for sp in &spreads {
            assert!(sp.environments >= 2);
            assert!(sp.disk_afr_cv >= 0.0);
        }
    }

    #[test]
    fn homogeneity_tests_separate_disk_from_subsystem_rates() {
        let s = shared_study();
        let tests = s.disk_model_homogeneity(500.0);
        assert!(!tests.is_empty());
        for t in &tests {
            assert!(
                (0.0..=1.0).contains(&t.disk_p),
                "{}: disk p {}",
                t.model,
                t.disk_p
            );
            assert!((0.0..=1.0).contains(&t.subsystem_p));
            assert!(t.environments >= 2);
        }
        // Aggregate: subsystem rates reject homogeneity more often.
        let disk_rejects = tests.iter().filter(|t| t.disk_p < 0.05).count();
        let sub_rejects = tests.iter().filter(|t| t.subsystem_p < 0.05).count();
        assert!(
            sub_rejects > disk_rejects,
            "{sub_rejects} vs {disk_rejects}"
        );
    }

    #[test]
    fn correlation_sweep_keeps_inflation_across_windows() {
        let s = shared_study();
        let windows = [
            SimDuration::from_years(0.5),
            SimDuration::from_years(1.0),
            SimDuration::from_years(2.0),
        ];
        let sweep = s.correlation_sweep(Scope::Shelf, &windows);
        assert_eq!(sweep.len(), 3);
        for (w, results) in &sweep {
            let ic = results[ssfa_model::FailureType::PhysicalInterconnect.index()];
            let inflation = ic.inflation.expect("theory positive");
            assert!(inflation > 1.5, "window {w}: inflation {inflation}");
        }
        // Longer windows observe fewer eligible groups (ramped installs).
        assert!(sweep[2].1[0].groups <= sweep[0].1[0].groups);
    }
}
