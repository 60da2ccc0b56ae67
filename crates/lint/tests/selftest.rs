//! `lint-selftest`: the cross-artifact rule proves itself on dedicated
//! fixtures — a firing fixture (only that rule fires, with a pinned
//! count), a clean fixture (silent), and an allow fixture (the finding
//! moves to the allowed list). A seeded fixture with one violation per
//! rule pins the stable JSON and `--github` renderings as goldens.
//!
//! Re-bless goldens after an intentional output change with
//! `SSFA_LINT_BLESS=1 cargo test -p ssfa-lint --test selftest`.

use ssfa_lint::{check_workspace, Config, ScanResult};
use std::path::{Path, PathBuf};

/// (family directory, findings expected from its firing fixture).
const FAMILIES: [(&str, usize); 1] = [("contract-sync", 1)];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/selftest")
        .join(name)
}

fn scan(name: &str) -> ScanResult {
    let root = fixture(name);
    let config = Config::load(&root).expect("fixture lint.toml must parse");
    check_workspace(&root, &config).expect("scan")
}

#[test]
fn firing_fixtures_produce_only_their_rule() {
    for (rule, expected) in FAMILIES {
        let result = scan(&format!("{rule}/firing"));
        assert_eq!(
            result.findings.len(),
            expected,
            "{rule}/firing: {:?}",
            result.findings
        );
        for finding in &result.findings {
            assert_eq!(finding.rule, rule, "{rule}/firing leaked {finding}");
        }
        assert!(
            result.allowed.is_empty(),
            "{rule}/firing: {:?}",
            result.allowed
        );
    }
}

#[test]
fn clean_fixtures_are_silent() {
    for (rule, _) in FAMILIES {
        let result = scan(&format!("{rule}/clean"));
        assert!(
            result.findings.is_empty(),
            "{rule}/clean: {:?}",
            result.findings
        );
        assert!(
            result.allowed.is_empty(),
            "{rule}/clean: {:?}",
            result.allowed
        );
    }
}

#[test]
fn allow_fixtures_suppress_into_the_allowed_list() {
    for (rule, _) in FAMILIES {
        let result = scan(&format!("{rule}/allow"));
        assert!(
            result.findings.is_empty(),
            "{rule}/allow: {:?}",
            result.findings
        );
        assert_eq!(
            result.allowed.len(),
            1,
            "{rule}/allow: {:?}",
            result.allowed
        );
        assert_eq!(result.allowed[0].rule, rule);
    }
}

/// The seeded fixture plants exactly one violation per rule: hash-order
/// iteration, a partial float ordering, and an undocumented snapshot
/// schema version.
#[test]
fn seeded_fixture_fires_each_contract_exactly_once() {
    let result = scan("seeded");
    let mut rules: Vec<&str> = result.findings.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec!["contract-sync", "no-float-keys", "no-hashmap-iter"],
        "{:?}",
        result.findings
    );
}

/// Pins both machine renderings byte-for-byte: the JSON report consumed by
/// tooling and the `--github` workflow-command stream consumed by CI.
#[test]
fn seeded_fixture_machine_renderings_are_stable() {
    let result = scan("seeded");
    for (golden, got) in [
        ("expected.json", result.to_json()),
        ("expected.github", result.render_github()),
    ] {
        let path = fixture("seeded").join(golden);
        if std::env::var_os("SSFA_LINT_BLESS").is_some() {
            std::fs::write(&path, &got).expect("bless golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run with SSFA_LINT_BLESS=1)", path.display()));
        assert_eq!(got, want, "{golden} drifted — if intentional, re-bless");
    }
}
