//! End-to-end pipeline integrity: the analysis must re-derive the
//! simulator's ground truth *through the text log corpus*, exactly.

use ssfa::prelude::*;

fn pipeline() -> ssfa::Pipeline {
    ssfa::Pipeline::new().scale(0.003).seed(1234)
}

#[test]
fn classifier_matches_ground_truth_through_full_cascades() {
    let p = pipeline().cascade_style(CascadeStyle::Full);
    let fleet = p.build_fleet();
    let output = p.simulate(&fleet);
    let book = p.render(&fleet, &output);

    // Round-trip through text — the corpus a real analysis would start from.
    let text = book.to_text();
    let reparsed = LogBook::from_text(&text).expect("rendered corpus parses");
    assert_eq!(reparsed.len(), book.len());

    let input = classify(&reparsed).expect("classification succeeds");
    let mut truth = output.exposed_records();
    truth.sort_by(ssfa::model::FailureRecord::chronological);
    assert_eq!(input.failures, truth);
}

#[test]
fn compact_and_full_corpora_classify_identically() {
    let p_full = pipeline().cascade_style(CascadeStyle::Full);
    let p_compact = pipeline().cascade_style(CascadeStyle::RaidOnly);
    let (a, _, _) = p_full.run().expect("full pipeline");
    let (b, _, _) = p_compact.run().expect("compact pipeline");
    assert_eq!(a.input().failures, b.input().failures);
    assert_eq!(a.input().lifetimes.len(), b.input().lifetimes.len());
}

#[test]
fn disk_year_accounting_matches_ground_truth() {
    let p = pipeline();
    let fleet = p.build_fleet();
    let output = p.simulate(&fleet);
    let book = p.render(&fleet, &output);
    let input = classify(&book).expect("classification succeeds");

    let truth = output.total_disk_years();
    let derived = input.total_disk_years();
    assert!(
        (truth - derived).abs() / truth < 1e-9,
        "disk-years: truth {truth} vs derived {derived}"
    );
    assert_eq!(input.lifetimes.len(), output.disks().len());

    // Every failed lifetime in the derived set corresponds to a
    // ground-truth replacement.
    let failed_derived = input
        .lifetimes
        .iter()
        .filter(|lt| lt.removed_by_failure)
        .count();
    let failed_truth = output
        .disks()
        .iter()
        .filter(|d| d.removal_reason == ssfa::sim::RemovalReason::Failed)
        .count();
    assert_eq!(failed_derived, failed_truth);
}

#[test]
fn pipeline_is_deterministic_and_seed_sensitive() {
    let (a, _, _) = pipeline().run().expect("run a");
    let (b, _, _) = pipeline().run().expect("run b");
    assert_eq!(a.input().failures, b.input().failures);
    // Debug output is part of the result: no hasher seed may reach it.
    assert_eq!(
        format!("{:?}", pipeline().build_fleet()),
        format!("{:?}", pipeline().build_fleet())
    );

    let (c, _, _) = ssfa::Pipeline::new()
        .scale(0.003)
        .seed(1235)
        .run()
        .expect("run c");
    assert_ne!(
        a.input().failures.len(),
        c.input().failures.len(),
        "different seeds should differ (lengths equal would be a huge coincidence)"
    );
}

#[test]
fn every_failure_record_references_valid_topology() {
    let (study, _, _) = pipeline().run().expect("pipeline");
    let input = study.input();
    for rec in &input.failures {
        assert!(input.topology.systems.contains_key(&rec.system));
        let shelf = input.topology.shelves.get(&rec.shelf).expect("shelf known");
        assert_eq!(shelf.system, rec.system);
        let rg = input
            .topology
            .raid_groups
            .get(&rec.raid_group)
            .expect("rg known");
        assert_eq!(rg.system, rec.system);
        assert_eq!(shelf.fc_loop, rec.fc_loop);
    }
}

#[test]
fn table1_composition_tracks_fleet_scale() {
    let (study, _, _) = pipeline().run().expect("pipeline");
    let rows = study.table1();
    // Low-end systems are by far the most numerous class (paper Table 1).
    let by_class: std::collections::BTreeMap<_, _> = rows.iter().map(|r| (r.class, r)).collect();
    assert!(by_class[&SystemClass::LowEnd].systems > by_class[&SystemClass::NearLine].systems * 2);
    // Disk counts dominated by near-line / mid-range / high-end.
    assert!(by_class[&SystemClass::MidRange].disks > by_class[&SystemClass::LowEnd].disks);
    // Every class saw failures of every type at this scale.
    for row in &rows {
        assert!(row.counts.total() > 0, "{} has no failures", row.class);
        assert!(row.disk_years > 0.0);
    }
}

/// Fold state must grow linearly with the corpus: doubling the fleet may
/// at most roughly double the finished fold's snapshot. Quadratic state
/// (or per-device state that outgrows the records) breaks the bound.
#[test]
fn fold_snapshot_grows_linearly_with_scale() {
    let snapshot_len = |scale: f64| {
        let (study, _, _) = ssfa::Pipeline::new()
            .scale(scale)
            .seed(1234)
            .run()
            .expect("pipeline");
        let mut fold = ssfa::core::StudyFold::new();
        fold.push(study.input().clone());
        fold.to_snapshot().len()
    };
    let (small, large) = (snapshot_len(0.01), snapshot_len(0.02));
    assert!(
        large as f64 <= 2.2 * small as f64,
        "fold snapshot grew {small} -> {large} bytes for a 2x corpus"
    );
}
