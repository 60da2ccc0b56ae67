//! The paper's result *shapes*, end to end: who wins, by roughly what
//! factor, where the crossovers fall. Absolute values are calibration; the
//! assertions here are the orderings and bands the paper reports.

use std::sync::OnceLock;

use ssfa::prelude::*;

/// One shared 12%-scale study (about 4,700 systems / 220,000 disks): large
/// enough that every per-cell statistic has real power, small enough that
/// the whole suite stays fast.
fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        ssfa::Pipeline::new()
            .scale(0.12)
            .seed(20_08)
            .run()
            .expect("pipeline runs")
            .0
    })
}

#[test]
fn finding1_disks_are_not_dominant_in_primary_classes() {
    let by_class = study().afr_by_class(false);
    for class in [
        SystemClass::LowEnd,
        SystemClass::MidRange,
        SystemClass::HighEnd,
    ] {
        let b = &by_class[&class];
        let disk_share = b.share(FailureType::Disk).unwrap();
        let ic_share = b.share(FailureType::PhysicalInterconnect).unwrap();
        assert!(
            ic_share > disk_share,
            "{class}: interconnect {ic_share} should exceed disk {disk_share}"
        );
        assert!(
            (0.15..0.62).contains(&disk_share),
            "{class}: disk share {disk_share}"
        );
    }
    // Near-line is the one class where disks carry the majority.
    let nl = &by_class[&SystemClass::NearLine];
    assert!(nl.share(FailureType::Disk).unwrap() > 0.45);
}

#[test]
fn figure4_class_afr_crossover() {
    let by_class = study().afr_by_class(false);
    let nl = &by_class[&SystemClass::NearLine];
    let le = &by_class[&SystemClass::LowEnd];
    // SATA disks fail ~2x more than FC disks...
    assert!(nl.afr(FailureType::Disk) > 1.5 * le.afr(FailureType::Disk));
    // ...yet near-line subsystems are *more* reliable than low-end ones.
    assert!(nl.total_afr() < le.total_afr());
    // Absolute bands, generous around the paper's 3.4% / 4.6%.
    assert!(
        (0.025..0.045).contains(&nl.total_afr()),
        "nl {}",
        nl.total_afr()
    );
    assert!(
        (0.035..0.060).contains(&le.total_afr()),
        "le {}",
        le.total_afr()
    );
    // FC disk AFR below 1%, SATA around 2%.
    assert!(le.afr(FailureType::Disk) < 0.011);
    assert!((0.015..0.025).contains(&nl.afr(FailureType::Disk)));
}

#[test]
fn figure5_problematic_family_doubles_afr() {
    let env = study().afr_by_environment();
    let mut h_rates = Vec::new();
    let mut healthy_rates = Vec::new();
    for ((class, _, model), b) in &env {
        if *class == SystemClass::NearLine || b.disk_years() < 500.0 {
            continue;
        }
        if model.family.is_problematic() {
            h_rates.push(b.total_afr());
        } else {
            healthy_rates.push(b.total_afr());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(!h_rates.is_empty() && !healthy_rates.is_empty());
    let ratio = mean(&h_rates) / mean(&healthy_rates);
    assert!((1.4..3.5).contains(&ratio), "H-family AFR ratio {ratio}");
}

#[test]
fn figure6_shelf_choice_depends_on_disk_model() {
    let panels = study().fig6_panels();
    let ic = FailureType::PhysicalInterconnect;
    let better_shelf = |model: &str| {
        let panel = panels
            .iter()
            .find(|p| p.disk_model.to_string() == model)
            .unwrap_or_else(|| panic!("panel for {model}"));
        if panel.rows[0].1.afr(ic) < panel.rows[1].1.afr(ic) {
            panel.rows[0].0
        } else {
            panel.rows[1].0
        }
    };
    // The paper's interoperability pattern: B wins for A-2, A wins for D-2/D-3.
    assert_eq!(better_shelf("A-2"), ShelfModel::B);
    assert_eq!(better_shelf("D-2"), ShelfModel::A);
    assert_eq!(better_shelf("D-3"), ShelfModel::A);
    // And at least one panel reaches 99.5% significance even at this
    // reduced scale (the paper, at ~17x our exposure, gets all four).
    let significant = panels
        .iter()
        .filter(|p| {
            p.interconnect_test
                .as_ref()
                .is_some_and(|t| t.significant_at(0.995))
        })
        .count();
    assert!(significant >= 1, "no significant panels");
}

#[test]
fn figure7_multipath_cuts_interconnect_failures() {
    let panels = study().fig7_panels();
    assert_eq!(panels.len(), 2);
    for panel in &panels {
        let ic = FailureType::PhysicalInterconnect;
        let cut = 1.0 - panel.dual.afr(ic) / panel.single.afr(ic);
        assert!(
            (0.40..0.70).contains(&cut),
            "{}: interconnect cut {cut}",
            panel.class
        );
        let total_cut = 1.0 - panel.dual.total_afr() / panel.single.total_afr();
        assert!(
            (0.15..0.55).contains(&total_cut),
            "{}: total cut {total_cut}",
            panel.class
        );
        assert!(panel
            .interconnect_test
            .as_ref()
            .expect("test computed")
            .significant_at(0.999));
    }
}

#[test]
fn figure9_burstiness_ordering() {
    let shelf = study().tbf(Scope::Shelf);
    let rg = study().tbf(Scope::RaidGroup);
    let f = |t: &ssfa::core::TbfAnalysis, ty: FailureType| t.for_type(ty).fraction_within(1e4);

    // Interconnect most bursty, disk least (shelf scope).
    assert!(f(&shelf, FailureType::PhysicalInterconnect) > 0.5);
    assert!(f(&shelf, FailureType::Disk) < 0.25);
    assert!(f(&shelf, FailureType::PhysicalInterconnect) > f(&shelf, FailureType::Disk) + 0.25);
    // Overall: near the paper's 48% (shelf) and 30% (RAID group), and
    // strictly ordered.
    let shelf_overall = shelf.overall().fraction_within(1e4);
    let rg_overall = rg.overall().fraction_within(1e4);
    assert!(
        (0.30..0.60).contains(&shelf_overall),
        "shelf overall {shelf_overall}"
    );
    assert!(
        (0.15..0.45).contains(&rg_overall),
        "rg overall {rg_overall}"
    );
    assert!(rg_overall < shelf_overall);
}

#[test]
fn figure9_gamma_is_best_disk_failure_model() {
    let tbf = study().tbf(Scope::Shelf);
    let fits = tbf.for_type(FailureType::Disk).fit_candidates(15);
    assert_eq!(fits.len(), 3, "all three candidates fit");
    let best = fits
        .iter()
        .min_by(|a, b| f64::total_cmp(&a.0.aic(), &b.0.aic()))
        .expect("non-empty");
    assert_eq!(
        best.0.dist.name(),
        "Gamma",
        "paper: Gamma best fits disk gaps"
    );
    // And the exponential (independence) model is decisively worse.
    let exp = fits
        .iter()
        .find(|(m, _)| m.dist.name() == "Exponential")
        .unwrap();
    assert!(exp.0.aic() > best.0.aic() + 100.0);
}

#[test]
fn figure10_correlation_inflation() {
    for scope in [Scope::Shelf, Scope::RaidGroup] {
        let results = study().correlation(scope, SimDuration::from_years(1.0));
        for r in &results {
            let inflation = r.inflation.expect("theoretical P(2) positive");
            assert!(
                inflation > 1.8,
                "{scope} {}: inflation {inflation}",
                r.failure_type
            );
            // Shelf scope carries the paper's full significance bar; the
            // RAID-group scope has ~40% fewer multi-failure groups at our
            // reduced scale, so it gets 99% instead of 99.5%.
            let bar = if matches!(scope, Scope::Shelf) {
                0.995
            } else {
                0.99
            };
            assert!(
                r.significant_at(bar),
                "{scope} {}: not significant (z = {})",
                r.failure_type,
                r.z
            );
        }
        // Disk failures are the least correlated type (paper: x6 vs x10-25).
        let disk = results[FailureType::Disk.index()].inflation.unwrap();
        let others = [
            results[FailureType::PhysicalInterconnect.index()]
                .inflation
                .unwrap(),
            results[FailureType::Protocol.index()].inflation.unwrap(),
            results[FailureType::Performance.index()].inflation.unwrap(),
        ];
        let max_other = others.iter().cloned().fold(0.0, f64::max);
        assert!(
            disk < max_other,
            "{scope}: disk {disk} vs max other {max_other}"
        );
    }
}

#[test]
fn all_eleven_findings_reproduce_at_scale() {
    let report = FindingsReport::evaluate(study());
    let failed: Vec<String> = report
        .failed()
        .iter()
        .map(|f| format!("Finding {}: {}", f.id, f.evidence))
        .collect();
    assert!(failed.is_empty(), "failed findings:\n{}", failed.join("\n"));
}
