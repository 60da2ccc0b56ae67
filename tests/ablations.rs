//! Ablation tests: the mechanisms behind the paper's findings, switched
//! off one at a time.

use ssfa::prelude::*;

#[test]
fn without_episodes_failures_become_independent() {
    let base = ssfa::Pipeline::new().scale(0.02).seed(55);
    let (with, _, _) = base.clone().run().expect("with episodes");
    let (without, _, _) = base
        .calibration(Calibration::paper().without_episodes())
        .run()
        .expect("without episodes");

    // Burstiness collapses.
    let bursty_with = with.tbf(Scope::Shelf).overall().fraction_within(1e4);
    let bursty_without = without.tbf(Scope::Shelf).overall().fraction_within(1e4);
    assert!(bursty_with > 0.30, "episodes on: {bursty_with}");
    assert!(bursty_without < 0.05, "episodes off: {bursty_without}");

    // P(2) inflation collapses toward the independence prediction.
    let corr_with = with.correlation(Scope::Shelf, SimDuration::from_years(1.0));
    let corr_without = without.correlation(Scope::Shelf, SimDuration::from_years(1.0));
    let ic = FailureType::PhysicalInterconnect.index();
    assert!(corr_with[ic].inflation.unwrap() > 2.5);
    let independent = corr_without[ic].inflation.unwrap();
    assert!(
        (0.4..1.8).contains(&independent),
        "independent inflation {independent}"
    );

    // Total failure volume is preserved (shares folded into background).
    let a = with.input().failures.len() as f64;
    let b = without.input().failures.len() as f64;
    assert!((a / b - 1.0).abs() < 0.15, "volume changed: {a} vs {b}");
}

#[test]
fn same_shelf_layout_concentrates_bursts_in_raid_groups() {
    let (span, _, _) = ssfa::Pipeline::new()
        .scale(0.02)
        .seed(56)
        .layout(LayoutPolicy::SpanShelves)
        .run()
        .expect("span");
    let (same, _, _) = ssfa::Pipeline::new()
        .scale(0.02)
        .seed(56)
        .layout(LayoutPolicy::SameShelf)
        .run()
        .expect("same");

    let span_rg = span.tbf(Scope::RaidGroup).overall().fraction_within(1e4);
    let same_rg = same.tbf(Scope::RaidGroup).overall().fraction_within(1e4);
    assert!(
        same_rg > span_rg + 0.05,
        "same-shelf RG burstiness {same_rg} should clearly exceed spanning {span_rg}"
    );

    // Shelf-scope burstiness is unaffected by RAID layout.
    let span_shelf = span.tbf(Scope::Shelf).overall().fraction_within(1e4);
    let same_shelf = same.tbf(Scope::Shelf).overall().fraction_within(1e4);
    assert!((span_shelf - same_shelf).abs() < 0.08);
}

#[test]
fn masking_probability_drives_exposed_interconnect_rate_monotonically() {
    let mut rates = Vec::new();
    for p in [0.0, 0.5, 1.0] {
        let (study, _, _) = ssfa::Pipeline::new()
            .scale(0.02)
            .seed(57)
            .calibration(Calibration::paper().with_mask_probability(p))
            .run()
            .expect("pipeline");
        let panels = study.fig7_panels();
        let dual_ic: f64 = panels
            .iter()
            .map(|panel| panel.dual.afr(FailureType::PhysicalInterconnect))
            .sum::<f64>()
            / panels.len() as f64;
        rates.push(dual_ic);
    }
    assert!(
        rates[0] > rates[1] && rates[1] > rates[2],
        "not monotone: {rates:?}"
    );
    assert!(
        rates[2] < 1e-6,
        "full masking must expose nothing, got {}",
        rates[2]
    );
    // Half masking halves the exposed rate (within sampling tolerance).
    let ratio = rates[1] / rates[0];
    assert!((0.35..0.65).contains(&ratio), "half-masking ratio {ratio}");
}

#[test]
fn single_path_fleets_show_no_dual_panels() {
    // Force dual adoption to zero: Figure 7 has nothing to compare.
    let mut config = FleetConfig::paper().scaled(0.01);
    for class in &mut config.classes {
        class.dual_path_fraction = 0.0;
    }
    let (study, _, _) = ssfa::Pipeline::new()
        .config(config)
        .seed(58)
        .run()
        .expect("pipeline");
    assert!(study.fig7_panels().is_empty());
}
