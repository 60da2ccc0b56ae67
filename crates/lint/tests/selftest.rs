//! `lint-selftest`: the cross-artifact rule proves itself on a dedicated
//! fixture — three crates, one placed in `deterministic_paths`, one in
//! `coverage_exempt` and one in neither: only the unplaced crate fires,
//! and placing it silences the rule. A seeded fixture with one violation
//! per rule shows every rule fires exactly once.

use ssfa_lint::{check_workspace, Config, ScanResult};
use std::path::Path;

fn scan(name: &str, config: &Config) -> ScanResult {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/selftest")
        .join(name);
    check_workspace(&root, config).expect("scan")
}

/// The fixture policy before the `stray` crate is placed.
const UNPLACED: Config = Config {
    deterministic_paths: &["crates/placed"],
    coverage_exempt: &["crates/exempt"],
    skip: &[],
};

#[test]
fn firing_fixtures_produce_only_their_rule() {
    let result = scan("contract-sync", &UNPLACED);
    assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
    let finding = &result.findings[0];
    assert_eq!(finding.rule, "contract-sync", "{finding}");
    assert_eq!(finding.path, "crates/stray/Cargo.toml", "{finding}");
    assert!(
        finding.message.contains("`crates/stray`"),
        "the finding must name the crate: {finding}"
    );
    assert!(result.allowed.is_empty(), "{:?}", result.allowed);
}

#[test]
fn clean_fixtures_are_silent() {
    let placed = Config {
        skip: &["crates/stray"],
        ..UNPLACED
    };
    let result = scan("contract-sync", &placed);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    assert!(result.allowed.is_empty(), "{:?}", result.allowed);
}

/// The seeded fixture plants exactly one violation per rule: hash-order
/// iteration, a partial float ordering, and a crate outside the policy.
#[test]
fn seeded_fixture_fires_each_contract_exactly_once() {
    let result = scan("seeded", &Config::default());
    let mut rules: Vec<&str> = result.findings.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec!["contract-sync", "no-float-keys", "no-hashmap-iter"],
        "{:?}",
        result.findings
    );
}
