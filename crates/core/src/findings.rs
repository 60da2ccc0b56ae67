//! Typed evaluation of the paper's Findings 1–11.
//!
//! Each finding is re-checked against the analyzed data with explicit,
//! slightly-loosened acceptance bands (the paper's numbers come from one
//! particular fleet; the bands accept any dataset exhibiting the same
//! *shape*). The evidence string records the actual measurements so
//! reports stay auditable.

use ssfa_model::{FailureType, SimDuration, SystemClass};

use crate::correlation::Scope;
use crate::study::Study;
use crate::tbf::{TbfAnalysis, BURST_THRESHOLD_SECS};

/// One evaluated finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The paper's finding number (1–11).
    pub id: u8,
    /// Short restatement of the claim.
    pub title: &'static str,
    /// Whether the analyzed data exhibits the claimed shape.
    pub pass: bool,
    /// The measurements backing the verdict.
    pub evidence: String,
}

/// All eleven findings evaluated against one study.
#[derive(Debug, Clone)]
pub struct FindingsReport {
    /// The findings in paper order.
    pub findings: Vec<Finding>,
}

impl FindingsReport {
    /// Evaluates Findings 1–11.
    pub fn evaluate(study: &Study) -> FindingsReport {
        let shelf = study.tbf(Scope::Shelf);
        let raid_group = study.tbf(Scope::RaidGroup);
        let findings = vec![
            finding_1(study),
            finding_2(study),
            finding_3(study),
            finding_4(study),
            finding_5(study),
            finding_6(study),
            finding_7(study),
            finding_8(&shelf),
            finding_9(&shelf, &raid_group),
            finding_10(&raid_group),
            finding_11(study),
        ];
        FindingsReport { findings }
    }

    /// Whether every finding passed.
    pub fn all_pass(&self) -> bool {
        self.findings.iter().all(|f| f.pass)
    }

    /// The findings that failed.
    pub fn failed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.pass).collect()
    }
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Finding 1: disk failures contribute 20–55%; physical interconnect
/// 27–68%; protocol and performance failures are noticeable.
fn finding_1(study: &Study) -> Finding {
    let by_class = study.afr_by_class(false);
    let mut pass = true;
    let mut parts = Vec::new();
    for class in SystemClass::ALL {
        let Some(b) = by_class.get(&class) else {
            continue;
        };
        let disk = b.share(FailureType::Disk).unwrap_or(0.0);
        let ic = b.share(FailureType::PhysicalInterconnect).unwrap_or(0.0);
        let proto = b.share(FailureType::Protocol).unwrap_or(0.0);
        let perf = b.share(FailureType::Performance).unwrap_or(0.0);
        // Slightly widened paper bands.
        pass &= (0.15..=0.62).contains(&disk);
        pass &= (0.22..=0.75).contains(&ic);
        pass &= proto > 0.01;
        pass &= perf > 0.002;
        parts.push(format!(
            "{}: disk {} ic {} proto {} perf {}",
            class.label(),
            pct(disk),
            pct(ic),
            pct(proto),
            pct(perf)
        ));
    }
    Finding {
        id: 1,
        title: "Disk failures are 20-55% of subsystem failures; interconnect 27-68%",
        pass,
        evidence: parts.join("; "),
    }
}

/// Finding 2: near-line disks fail more than low-end disks, yet near-line
/// *subsystems* fail less than low-end subsystems.
fn finding_2(study: &Study) -> Finding {
    let by_class = study.afr_by_class(false);
    let (Some(nl), Some(le)) = (
        by_class.get(&SystemClass::NearLine),
        by_class.get(&SystemClass::LowEnd),
    ) else {
        return Finding {
            id: 2,
            title: "Disk AFR is not indicative of subsystem AFR",
            pass: false,
            evidence: "missing class data".into(),
        };
    };
    let nl_disk = nl.afr(FailureType::Disk);
    let le_disk = le.afr(FailureType::Disk);
    let pass = nl_disk > le_disk && nl.total_afr() < le.total_afr();
    Finding {
        id: 2,
        title: "Disk AFR is not indicative of subsystem AFR",
        pass,
        evidence: format!(
            "near-line disk {} vs low-end disk {}; near-line subsystem {} vs low-end {}",
            pct(nl_disk),
            pct(le_disk),
            pct(nl.total_afr()),
            pct(le.total_afr())
        ),
    }
}

/// Finding 3: subsystems using the problematic family show about twice the
/// AFR of their peers.
fn finding_3(study: &Study) -> Finding {
    let env = study.afr_by_environment();
    let mut h = crate::afr::AfrBreakdown::empty();
    let mut rest = crate::afr::AfrBreakdown::empty();
    for ((class, _, model), b) in &env {
        if *class == SystemClass::NearLine {
            continue; // family H is an FC family
        }
        if model.family.is_problematic() {
            h.merge(b);
        } else {
            rest.merge(b);
        }
    }
    let ratio = if rest.total_afr() > 0.0 {
        h.total_afr() / rest.total_afr()
    } else {
        0.0
    };
    Finding {
        id: 3,
        title: "The problematic disk family doubles subsystem AFR",
        pass: ratio > 1.5,
        evidence: format!(
            "family-H subsystems {} vs others {} (x{ratio:.1})",
            pct(h.total_afr()),
            pct(rest.total_afr())
        ),
    }
}

/// Finding 4: a disk model's disk AFR is stable across environments, but
/// its subsystem AFR varies strongly.
fn finding_4(study: &Study) -> Finding {
    // Homogeneity chi-square per model: disk failure rates should be
    // consistent with one pooled rate across environments (homogeneous),
    // while subsystem rates should not. This is noise-robust, unlike raw
    // CV comparisons, because the test accounts for per-cell exposure.
    let tests = study.disk_model_homogeneity(1_000.0);
    if tests.is_empty() {
        return Finding {
            id: 4,
            title: "Disk AFR is stable across environments; subsystem AFR is not",
            pass: false,
            evidence: "no disk model spans multiple environments with enough exposure".into(),
        };
    }
    let n = tests.len();
    let disk_rejects = tests.iter().filter(|t| t.disk_p < 0.05).count();
    let subsystem_rejects = tests.iter().filter(|t| t.subsystem_p < 0.05).count();
    Finding {
        id: 4,
        title: "Disk AFR is stable across environments; subsystem AFR is not",
        // Disk rates rarely reject homogeneity; subsystem rates mostly do.
        pass: disk_rejects * 3 <= n && subsystem_rejects * 2 >= n,
        evidence: format!(
            "rate-homogeneity rejected (p<0.05) for {disk_rejects}/{n} models on disk AFR \
             vs {subsystem_rejects}/{n} on subsystem AFR"
        ),
    }
}

/// Finding 5: AFR does not grow with disk capacity within a family.
fn finding_5(study: &Study) -> Finding {
    let env = study.afr_by_environment();
    // Compare disk AFRs of capacity-adjacent models of the same family
    // within the same environment.
    let mut comparisons = 0usize;
    let mut increases = 0usize;
    let mut evidence = Vec::new();
    for ((class, shelf, model), b) in &env {
        if b.disk_years() < 200.0 {
            continue;
        }
        let bigger = ssfa_model::DiskModelId {
            family: model.family,
            capacity_point: model.capacity_point + 1,
        };
        if let Some(nb) = env.get(&(*class, *shelf, bigger)) {
            if nb.disk_years() < 200.0 {
                continue;
            }
            comparisons += 1;
            let small_afr = b.afr(FailureType::Disk);
            let big_afr = nb.afr(FailureType::Disk);
            // Count as an increase only if clearly above sampling noise.
            if big_afr > small_afr * 1.3 {
                increases += 1;
                evidence.push(format!(
                    "{model}->{bigger} ({} -> {})",
                    pct(small_afr),
                    pct(big_afr)
                ));
            }
        }
    }
    Finding {
        id: 5,
        title: "AFR does not increase with disk capacity",
        pass: comparisons > 0 && increases * 2 <= comparisons,
        evidence: format!(
            "{increases}/{comparisons} capacity steps show a clear AFR increase{}",
            if evidence.is_empty() {
                String::new()
            } else {
                format!(" ({})", evidence.join(", "))
            }
        ),
    }
}

/// Finding 6: the shelf enclosure model significantly shifts interconnect
/// failures, and the better shelf depends on the disk model.
fn finding_6(study: &Study) -> Finding {
    let panels = study.fig6_panels();
    let mut a_wins = 0usize;
    let mut b_wins = 0usize;
    let mut significant = 0usize;
    let mut parts = Vec::new();
    for p in &panels {
        let ic = |i: usize| p.rows[i].1.afr(FailureType::PhysicalInterconnect);
        if ic(0) < ic(1) {
            a_wins += 1;
        } else {
            b_wins += 1;
        }
        if let Some(t) = &p.interconnect_test {
            if t.significant_at(0.995) {
                significant += 1;
            }
        }
        parts.push(format!(
            "{}: {}={} {}={}",
            p.disk_model,
            p.rows[0].0.letter(),
            pct(ic(0)),
            p.rows[1].0.letter(),
            pct(ic(1))
        ));
    }
    Finding {
        id: 6,
        title: "Shelf model strongly impacts interconnect failures; best shelf differs by disk model",
        pass: a_wins >= 1 && b_wins >= 1 && significant >= 1,
        evidence: format!(
            "{} panels, shelf A wins {a_wins}, shelf B wins {b_wins}, {significant} significant at 99.5%: {}",
            panels.len(),
            parts.join("; ")
        ),
    }
}

/// Finding 7: dual paths cut interconnect AFR 50–60% and subsystem AFR
/// 30–40%, at high significance.
fn finding_7(study: &Study) -> Finding {
    let panels = study.fig7_panels();
    let mut pass = !panels.is_empty();
    let mut parts = Vec::new();
    for p in &panels {
        let ty = FailureType::PhysicalInterconnect;
        let ic_cut = 1.0 - p.dual.afr(ty) / p.single.afr(ty).max(1e-12);
        let total_cut = 1.0 - p.dual.total_afr() / p.single.total_afr().max(1e-12);
        let significant = p
            .interconnect_test
            .as_ref()
            .map(|t| t.significant_at(0.999))
            .unwrap_or(false);
        pass &= (0.35..=0.75).contains(&ic_cut);
        pass &= (0.15..=0.60).contains(&total_cut);
        pass &= significant;
        parts.push(format!(
            "{}: interconnect -{:.0}% subsystem -{:.0}% (99.9% significant: {})",
            p.class.label(),
            ic_cut * 100.0,
            total_cut * 100.0,
            significant
        ));
    }
    Finding {
        id: 7,
        title: "Dual paths cut interconnect AFR 50-60% and subsystem AFR 30-40%",
        pass,
        evidence: parts.join("; "),
    }
}

/// Finding 8: interconnect/protocol/performance failures are much more
/// bursty than disk failures (shelf scope).
fn finding_8(tbf: &TbfAnalysis) -> Finding {
    let frac = |ty: FailureType| tbf.for_type(ty).fraction_within(BURST_THRESHOLD_SECS);
    let disk = frac(FailureType::Disk);
    let ic = frac(FailureType::PhysicalInterconnect);
    let proto = frac(FailureType::Protocol);
    let perf = frac(FailureType::Performance);
    let overall = tbf.overall().fraction_within(BURST_THRESHOLD_SECS);
    Finding {
        id: 8,
        title: "Non-disk failure types show much stronger temporal locality than disk failures",
        pass: ic > disk + 0.15 && proto > disk && perf > disk && overall > 0.25,
        evidence: format!(
            "P(gap<10^4s): disk {} ic {} proto {} perf {} overall {}",
            pct(disk),
            pct(ic),
            pct(proto),
            pct(perf),
            pct(overall)
        ),
    }
}

/// Finding 9: RAID-group failures are less bursty than shelf failures.
fn finding_9(shelf: &TbfAnalysis, raid_group: &TbfAnalysis) -> Finding {
    let shelf = shelf.overall().fraction_within(BURST_THRESHOLD_SECS);
    let rg = raid_group.overall().fraction_within(BURST_THRESHOLD_SECS);
    Finding {
        id: 9,
        title: "RAID groups spanning shelves see less bursty failures than shelves",
        pass: rg < shelf,
        evidence: format!(
            "P(gap<10^4s): shelf {} vs RAID group {}",
            pct(shelf),
            pct(rg)
        ),
    }
}

/// Finding 10: RAID-group failures still show strong temporal locality.
fn finding_10(raid_group: &TbfAnalysis) -> Finding {
    let rg = raid_group.overall().fraction_within(BURST_THRESHOLD_SECS);
    Finding {
        id: 10,
        title: "RAID-group failures still exhibit strong temporal locality",
        pass: rg > 0.10,
        evidence: format!("P(gap<10^4s) within a RAID group: {}", pct(rg)),
    }
}

/// Finding 11: for every failure type, empirical P(2) far exceeds the
/// independence prediction.
fn finding_11(study: &Study) -> Finding {
    let results = study.correlation(Scope::Shelf, SimDuration::from_years(1.0));
    let mut pass = true;
    let mut parts = Vec::new();
    for r in &results {
        let inflation = r.inflation.unwrap_or(0.0);
        pass &= inflation > 2.0;
        pass &= r.significant_at(0.995);
        parts.push(format!(
            "{}: empirical {} vs theoretical {} (x{:.1})",
            r.failure_type.tag(),
            pct(r.empirical_p2),
            pct(r.theoretical_p2),
            inflation
        ));
    }
    Finding {
        id: 11,
        title: "Failures are not independent: P(2) far exceeds P(1)^2/2",
        pass,
        evidence: parts.join("; "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssfa_logs::classify::classify;
    use ssfa_logs::render::render_support_log;
    use ssfa_logs::CascadeStyle;
    use ssfa_model::{Fleet, FleetConfig};
    use ssfa_sim::Simulator;

    #[test]
    fn findings_report_has_eleven_entries_with_evidence() {
        let fleet = Fleet::build(&FleetConfig::paper().scaled(0.004), 41);
        let out = Simulator::default().run(&fleet, 41);
        let book = render_support_log(&fleet, &out, CascadeStyle::RaidOnly);
        let study = Study::new(classify(&book).unwrap());
        let report = FindingsReport::evaluate(&study);
        assert_eq!(report.findings.len(), 11);
        for f in &report.findings {
            assert!(!f.evidence.is_empty(), "finding {} has no evidence", f.id);
            assert!(!f.title.is_empty());
        }
        let ids: Vec<u8> = report.findings.iter().map(|f| f.id).collect();
        assert_eq!(ids, (1..=11).collect::<Vec<u8>>());
    }
}
