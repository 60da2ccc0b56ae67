//! Golden tests for the scanner: each directory under `tests/fixtures/`
//! is a miniature workspace root scanned under the policy its test
//! builds, and `expected.txt` pins the exact human-rendered report.
//!
//! After an intentional behavior change, copy the report the failing
//! assertion prints into the fixture's `expected.txt`.

use ssfa_lint::{check_workspace, Config, ScanResult};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Scans fixture `name` under `config` and checks the human report
/// against its `expected.txt`.
fn run_golden(name: &str, config: &Config) -> ScanResult {
    let root = fixture(name);
    let result = check_workspace(&root, config).expect("scan");
    let golden = root.join("expected.txt");
    let want =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    assert_eq!(
        result.render_human(),
        want,
        "scanner output drifted for fixture `{name}`"
    );
    result
}

#[test]
fn violations_fixture_flags_every_rule() {
    let result = run_golden("violations", &Config::default());
    // Beyond the golden: make sure every rule actually fires.
    let fired: std::collections::BTreeSet<&str> = result.findings.iter().map(|d| d.rule).collect();
    for rule in ssfa_lint::rules::RULES {
        assert!(fired.contains(rule), "rule {rule} produced no finding");
    }
}

#[test]
fn suppression_comments_silence_each_rule() {
    let result = run_golden("suppressed", &Config::default());
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    let rules: Vec<&str> = result.allowed.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        ["no-hashmap-iter", "no-float-keys", "no-float-keys"],
        "{:?}",
        result.allowed
    );
}

#[test]
fn path_lists_scope_the_rules() {
    // no-hashmap-iter applies only under deterministic_paths, and skip
    // hides a file entirely.
    let config = Config {
        deterministic_paths: &["core"],
        skip: &["vendored"],
        ..Config::default()
    };
    let result = run_golden("scoped", &config);
    assert_eq!(result.files_scanned, 2, "vendored/ is skipped");
    assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
    assert_eq!(result.findings[0].rule, "no-hashmap-iter");
    assert_eq!(result.findings[0].path, "core/tally.rs");
}
