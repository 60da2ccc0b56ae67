//! Insertion-order permutation test: report output must be byte-identical
//! no matter what order the classifier's maps were populated in.
//!
//! The analysis structures (`Topology`, the study breakdowns) are
//! `BTreeMap`s precisely so that iteration — and every floating-point
//! accumulation driven by it — happens in key order rather than hasher or
//! insertion order. This test proves it end to end: rebuild the same
//! `AnalysisInput` with every map populated in reversed (and rotated)
//! insertion order, and assert the rendered study output is *byte for
//! byte* the same, including float low-order bits.

use ssfa::Pipeline;
use ssfa_core::{Scope, Study, StudyFold};
use ssfa_logs::classify::{AnalysisInput, Topology};
use ssfa_model::SimDuration;

const SCALE: f64 = 0.004;
const SEED: u64 = 11;

/// Rebuilds `input` with each topology map re-inserted in a permuted
/// order, and lifetimes/failures concatenated from rotated halves (then
/// re-canonicalized by a `StudyFold`, exactly like the sharded pipeline
/// does).
fn permuted(input: &AnalysisInput, rotate: usize) -> Study {
    fn reinsert<K: Ord + Clone, V: Clone>(
        src: &std::collections::BTreeMap<K, V>,
        rotate: usize,
    ) -> std::collections::BTreeMap<K, V> {
        let mut entries: Vec<(K, V)> = src.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        entries.reverse();
        let n = entries.len().max(1);
        entries.rotate_left(rotate % n);
        entries.into_iter().collect()
    }
    let topology = Topology {
        systems: reinsert(&input.topology.systems, rotate),
        shelves: reinsert(&input.topology.shelves, rotate),
        raid_groups: reinsert(&input.topology.raid_groups, rotate),
    };
    let mut lifetimes = input.lifetimes.clone();
    let mut failures = input.failures.clone();
    let lt_cut = lifetimes.len() / 2;
    let f_cut = failures.len() / 2;
    lifetimes.rotate_left(lt_cut);
    failures.rotate_left(f_cut);
    // finish() restores canonical order, as it does for real shard partials.
    let mut fold = StudyFold::new();
    fold.push(AnalysisInput {
        topology,
        lifetimes,
        failures,
    });
    fold.finish()
}

/// Renders every report surface whose float accumulations ride on map
/// iteration order.
fn render_report(study: &Study) -> String {
    let mut out = String::new();
    for row in study.table1() {
        out.push_str(&format!("{row:?}\n"));
    }
    for (key, breakdown) in study.afr_by_class(true) {
        out.push_str(&format!("{key:?} {breakdown:?}\n"));
    }
    for panel in study.fig5_panels() {
        out.push_str(&format!("{panel:?}\n"));
    }
    for panel in study.fig6_panels() {
        out.push_str(&format!("{panel:?}\n"));
    }
    for spread in study.disk_model_spread(1.0) {
        out.push_str(&format!("{spread:?}\n"));
    }
    for h in study.disk_model_homogeneity(1.0) {
        out.push_str(&format!("{h:?}\n"));
    }
    out.push_str(&format!("{:?}\n", study.tbf(Scope::Shelf)));
    out.push_str(&format!(
        "{:?}\n",
        study.correlation(Scope::Shelf, SimDuration::from_days(365.0))
    ));
    for risk in ssfa_core::raid_data_loss_risk(
        study.input(),
        SimDuration::from_days(7.0),
        ssfa_core::RiskFailureSet::DiskOnly,
    ) {
        out.push_str(&format!("{risk:?}\n"));
    }
    out
}

#[test]
fn report_is_identical_under_permuted_insertion_order() {
    let (study, _, _) = Pipeline::new().scale(SCALE).seed(SEED).run().unwrap();
    let baseline = render_report(&study);
    assert!(
        !baseline.is_empty() && study.input().failures.len() > 1,
        "fixture must exercise the report paths"
    );
    for rotate in [1, 2, 5] {
        let permuted_study = permuted(study.input(), rotate);
        let report = render_report(&permuted_study);
        assert_eq!(
            report, baseline,
            "report output changed under insertion-order permutation (rotate={rotate})"
        );
    }
}
