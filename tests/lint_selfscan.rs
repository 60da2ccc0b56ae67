//! The single runner of the `ssfa-lint` rules: the workspace must scan
//! clean under its reviewed [`POLICY`] — contract-sync's crate coverage
//! included — `DESIGN.md` must document the current snapshot schema
//! version, and the clippy configuration that enforces the wall-clock,
//! raw-thread and SAFETY contracts must stay in place.

use ssfa_lint::{check_workspace, Config};
use std::path::Path;

/// The workspace's reviewed determinism policy (DESIGN §9).
const POLICY: Config = Config {
    // Crates whose output feeds the paper tables/figures: iteration order
    // in these paths must never depend on hasher state.
    deterministic_paths: &[
        "crates/core",
        "crates/daemon",
        "crates/lint",
        "crates/logs",
        "crates/memmap2",
        "crates/model",
        "crates/pipeline",
        "crates/sim",
        "crates/stats",
        "src",
        "tests",
        "examples",
    ],
    // Reviewed as out of scope for the determinism lists: bench
    // harnesses, whose output is timings rather than paper results, and
    // vendored dependency subsets that keep upstream idioms.
    coverage_exempt: &[
        "crates/bench",
        "crates/criterion",
        "crates/loom",
        "crates/proptest",
        "crates/rand",
    ],
    // Deliberately-broken snippets the scanner tests feed in by hand.
    skip: &["crates/lint/tests/fixtures"],
};

/// Methods clippy's `disallowed_methods` must keep rejecting.
const DISALLOWED_METHODS: [&str; 5] = [
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder::spawn",
];

/// `(Cargo.toml section, lint)` pairs `[workspace.lints]` must keep on.
const WORKSPACE_LINTS: [(&str, &str); 3] = [
    ("[workspace.lints.rust]", "unsafe_op_in_unsafe_fn"),
    ("[workspace.lints.clippy]", "undocumented_unsafe_blocks"),
    (
        "[workspace.lints.clippy]",
        "allow_attributes_without_reason",
    ),
];

/// The body of TOML `section`: the lines after its header up to the next
/// header, with `#` comments dropped.
fn toml_section<'a>(text: &'a str, section: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|line| line.trim() != section)
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(|line| line.split('#').next().unwrap_or_default().trim())
        .collect()
}

#[test]
fn workspace_scans_clean_under_the_reviewed_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let result = check_workspace(root, &POLICY).expect("scan");
    assert!(
        result.findings.is_empty(),
        "workspace lint findings:\n{}",
        result.render_human()
    );
    assert!(result.files_scanned > 100, "{}", result.files_scanned);

    // A snapshot schema bump must re-document the persisted layout
    // (DESIGN §15). "current" keeps a version quoted elsewhere in the
    // document (an error message, a plan) from satisfying the check.
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let phrase = format!(
        "current snapshot schema version {}",
        ssfa::core::SNAPSHOT_VERSION
    );
    assert!(
        design.contains(&phrase),
        "SNAPSHOT_VERSION changed but DESIGN.md never says `{phrase}`"
    );

    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    for method in DISALLOWED_METHODS {
        assert!(
            clippy.contains(&format!("path = \"{method}\"")),
            "clippy.toml no longer disallows `{method}`"
        );
    }

    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    for (section, lint) in WORKSPACE_LINTS {
        let on = toml_section(&manifest, section).iter().any(|line| {
            line.split_once('=').is_some_and(|(key, level)| {
                key.trim() == lint && matches!(level.trim(), "\"warn\"" | "\"deny\"")
            })
        });
        assert!(on, "Cargo.toml {section} no longer turns on `{lint}`");
    }

    // Workspace lints reach only the crates that inherit them.
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let crate_manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        let text = std::fs::read_to_string(&crate_manifest).expect("crate manifest");
        assert!(
            toml_section(&text, "[lints]").contains(&"workspace = true"),
            "{} does not inherit [workspace.lints]",
            crate_manifest.display()
        );
    }
}
