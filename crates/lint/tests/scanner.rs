//! Golden tests for the scanner: each directory under `tests/fixtures/`
//! is a miniature workspace root (its own `lint.toml` if present), and
//! `expected.txt` pins the exact human-rendered report.
//!
//! Regenerate goldens after an intentional behavior change with
//! `SSFA_LINT_BLESS=1 cargo test -p ssfa-lint --test scanner`.

use ssfa_lint::{check_workspace, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_golden(name: &str) {
    let root = fixture(name);
    let config = Config::load(&root).expect("fixture lint.toml must parse");
    let result = check_workspace(&root, &config).expect("scan");
    let got = result.render_human();
    let golden = root.join("expected.txt");
    if std::env::var_os("SSFA_LINT_BLESS").is_some() {
        std::fs::write(&golden, &got).expect("bless golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("{}: {e} (run with SSFA_LINT_BLESS=1)", golden.display()));
    assert_eq!(
        got, want,
        "scanner output drifted for fixture `{name}` — if intentional, re-bless"
    );
}

#[test]
fn violations_fixture_flags_every_rule() {
    run_golden("violations");
    // Beyond the golden: make sure every rule actually fires. The fixture
    // lint.toml matters here — contract-sync needs its [contracts] section.
    let root = fixture("violations");
    let config = Config::load(&root).expect("fixture lint.toml must parse");
    let result = check_workspace(&root, &config).expect("scan");
    let fired: std::collections::BTreeSet<&str> = result.findings.iter().map(|d| d.rule).collect();
    for rule in ssfa_lint::rules::RULES {
        assert!(fired.contains(rule), "rule {rule} produced no finding");
    }
}

#[test]
fn suppression_comments_silence_each_rule() {
    run_golden("suppressed");
    let root = fixture("suppressed");
    let result = check_workspace(&root, &Config::default()).expect("scan");
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
    run_golden("scoped");
    let root = fixture("scoped");
    let config = Config::load(&root).expect("parse");
    let result = check_workspace(&root, &config).expect("scan");
    assert_eq!(result.files_scanned, 2, "vendored/ is skipped");
    assert_eq!(result.findings.len(), 1, "{:?}", result.findings);
    assert_eq!(result.findings[0].rule, "no-hashmap-iter");
    assert_eq!(result.findings[0].path, "core/tally.rs");
}

#[test]
fn json_report_is_well_formed_for_violations() {
    let root = fixture("violations");
    let json = check_workspace(&root, &Config::default())
        .expect("scan")
        .to_json();
    // No serde in the workspace: check shape, balance, and key content.
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in {json}");
    for key in ["files_scanned", "findings", "allowed"] {
        assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
    }
    assert!(json.contains("\"rule\":\"no-hashmap-iter\""));
    assert!(json.contains("\"path\":\"bad.rs\""));
}
