//! The static contracts no compiler lint names exactly, and a pin on the
//! configuration that makes clippy hold the rest (DESIGN §9):
//!
//! - no `*.rs` file in the tree orders floats with `partial_cmp(..)`
//!   followed by `.unwrap()` or `.expect(..)`, on its line or the next
//!   (use `f64::total_cmp`);
//! - `DESIGN.md` documents the current snapshot schema version;
//! - `clippy.toml` keeps disallowing the wall-clock and raw-thread methods
//!   and the hash containers, root `Cargo.toml` keeps the three
//!   `[workspace.lints]` entries, and every crate inherits them.

use std::path::{Path, PathBuf};

/// `(clippy.toml array, path)` pairs clippy must keep rejecting.
const DISALLOWED: [(&str, &str); 7] = [
    ("disallowed-methods", "std::time::Instant::now"),
    ("disallowed-methods", "std::time::SystemTime::now"),
    ("disallowed-methods", "std::thread::spawn"),
    ("disallowed-methods", "std::thread::scope"),
    ("disallowed-methods", "std::thread::Builder::spawn"),
    ("disallowed-types", "std::collections::HashMap"),
    ("disallowed-types", "std::collections::HashSet"),
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

/// The float ordering that panics on NaN, and the calls that make it so
/// when they follow it. Constants, so that no line of this file matches
/// its own scan.
const PARTIAL_CMP: &str = "partial_cmp";
const UNCHECKED: [&str; 2] = [".unwrap()", ".expect("];

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

/// The entry lines of the top-level TOML array `key = [`, up to its
/// closing `]`.
fn toml_array<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    text.lines()
        .skip_while(|line| line.split('=').next().map(str::trim) != Some(key))
        .skip(1)
        .take_while(|line| line.trim() != "]")
        .collect()
}

/// Every `*.rs` file under `dir`, skipping `target/` and dot-directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Whether the code of `line` (before any `//`) calls `partial_cmp` and
/// unwraps it, later on the line or as the `next` link of the chain (the
/// layout rustfmt gives a long chain).
fn unwraps_partial_cmp(line: &str, next: &str) -> bool {
    fn code(text: &str) -> &str {
        text.split("//").next().unwrap_or_default()
    }
    let next = code(next).trim_start();
    code(line).split_once(PARTIAL_CMP).is_some_and(|(_, tail)| {
        UNCHECKED
            .iter()
            .any(|call| tail.contains(call) || next.starts_with(call))
    })
}

#[test]
fn workspace_scans_clean_under_the_reviewed_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut files = Vec::new();
    rust_sources(root, &mut files);
    files.sort();
    let mut findings = String::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("UTF-8 source");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if unwraps_partial_cmp(line, lines.get(i + 1).unwrap_or(&"")) {
                let rel = file.strip_prefix(root).unwrap_or(file);
                findings.push_str(&format!("{}:{}: {}\n", rel.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        findings.is_empty(),
        "{PARTIAL_CMP} result unwrapped (panics on NaN); order floats with f64::total_cmp:\n{findings}"
    );
    assert!(files.len() > 100, "{} files scanned", files.len());

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
    for (key, path) in DISALLOWED {
        let listed = toml_array(&clippy, key)
            .iter()
            .any(|entry| entry.contains(&format!("path = \"{path}\"")));
        assert!(listed, "clippy.toml `{key}` no longer lists `{path}`");
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
