//! `contract-sync`: cross-artifact consistency checks.
//!
//! Two edges between artifacts that must move together:
//!
//! - every workspace crate under `crate_roots` is covered by
//!   `deterministic_paths`/`skip` or explicitly reviewed in
//!   `coverage_exempt` — a new crate cannot silently dodge the
//!   determinism rules;
//! - the snapshot schema version declared in `snapshot_schema`
//!   (`pub const SNAPSHOT_VERSION: u32 = <n>`) is described in
//!   `snapshot_doc` as the phrase `snapshot schema version <n>` — a
//!   version bump cannot land without touching the design doc that
//!   specifies the persisted layout.
//!
//! Bench configs need no edge here: `bench_pipeline --check` already
//! rejects a gated config the baseline lacks (`baseline is missing
//! <config>.<key>`), and an ungated config is ungated with or without a
//! baseline entry (DESIGN §9).

use crate::config::Config;
use crate::diag::Diagnostic;
use std::path::Path;

/// Runs every contract check, each gated on its `[contracts]` keys.
pub fn contract_sync(root: &Path, config: &Config, out: &mut Vec<Diagnostic>) {
    let Some(contracts) = &config.contracts else {
        return;
    };

    if let Some(roots) = &contracts.crate_roots {
        check_crate_coverage(root, roots, config, out);
    }

    if let (Some(schema_rel), Some(doc_rel)) = (&contracts.snapshot_schema, &contracts.snapshot_doc)
    {
        match (
            std::fs::read_to_string(root.join(schema_rel)),
            std::fs::read_to_string(root.join(doc_rel)),
        ) {
            (Ok(schema_src), Ok(doc_src)) => {
                check_snapshot_doc(schema_rel, &schema_src, doc_rel, &doc_src, out);
            }
            (schema, doc) => {
                for (rel, result) in [(schema_rel, &schema), (doc_rel, &doc)] {
                    if let Err(e) = result {
                        out.push(Diagnostic {
                            rule: "contract-sync",
                            path: "lint.toml".into(),
                            line: 0,
                            col: 0,
                            message: format!("[contracts] source `{rel}` is unreadable: {e}"),
                            help: "fix the path in lint.toml [contracts] or restore the file"
                                .into(),
                        });
                    }
                }
            }
        }
    }
}

/// Extracts the declared snapshot schema version:
/// `pub const SNAPSHOT_VERSION: u32 = <n>;` (rustfmt keeps the whole
/// item on one line). Returns `(version, 1-based line)`.
fn snapshot_version(src: &str) -> Option<(u64, usize)> {
    for (i, line) in src.lines().enumerate() {
        let Some(rest) = line
            .trim()
            .strip_prefix("pub const SNAPSHOT_VERSION: u32 = ")
        else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(version) = digits.parse() {
            return Some((version, i + 1));
        }
    }
    None
}

/// The snapshot schema version in the source must be described in the
/// design doc as the phrase `snapshot schema version <n>`: bumping the
/// const without rewriting the documented layout is an error, as is
/// losing the const itself.
fn check_snapshot_doc(
    schema_rel: &str,
    schema_src: &str,
    doc_rel: &str,
    doc_src: &str,
    out: &mut Vec<Diagnostic>,
) {
    let Some((version, line)) = snapshot_version(schema_src) else {
        out.push(Diagnostic {
            rule: "contract-sync",
            path: schema_rel.to_string(),
            line: 1,
            col: 1,
            message: "no `pub const SNAPSHOT_VERSION: u32 = <n>;` declaration found".into(),
            help: "the [contracts] snapshot_schema source must declare the schema version \
                   as a literal const"
                .into(),
        });
        return;
    };
    let phrase = format!("snapshot schema version {version}");
    if !doc_src.contains(&phrase) {
        out.push(Diagnostic {
            rule: "contract-sync",
            path: schema_rel.to_string(),
            line,
            col: 1,
            message: format!("SNAPSHOT_VERSION is {version} but {doc_rel} never says `{phrase}`"),
            help: format!(
                "a schema bump must re-document the persisted layout: update the snapshot \
                 section of {doc_rel} to describe `{phrase}`"
            ),
        });
    }
}

/// Every crate directory (contains `Cargo.toml`) under `roots` must be
/// covered by a scanner path list or `coverage_exempt`.
fn check_crate_coverage(root: &Path, roots: &str, config: &Config, out: &mut Vec<Diagnostic>) {
    let dir = root.join(roots);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        out.push(Diagnostic {
            rule: "contract-sync",
            path: "lint.toml".into(),
            line: 0,
            col: 0,
            message: format!("[contracts] crate_roots `{roots}` is not a readable directory"),
            help: "fix the path in lint.toml [contracts]".into(),
        });
        return;
    };
    let mut crates: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| format!("{roots}/{}", e.file_name().to_string_lossy()))
        .collect();
    crates.sort();
    let lists = [
        &config.deterministic_paths,
        &config.skip,
        &config.coverage_exempt,
    ];
    for krate in crates {
        let covered = lists.iter().any(|list| {
            list.iter()
                .any(|p| *p == krate || krate.starts_with(&format!("{p}/")))
        });
        if !covered {
            out.push(Diagnostic {
                rule: "contract-sync",
                path: "lint.toml".into(),
                line: 0,
                col: 0,
                message: format!(
                    "crate `{krate}` is not covered by deterministic_paths, skip, \
                     or coverage_exempt"
                ),
                help: "decide the crate's determinism posture in lint.toml: add it to \
                       deterministic_paths (default) or coverage_exempt with review"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_version_extracts_the_literal_const() {
        let src = "//! docs\npub const SNAPSHOT_VERSION: u32 = 7;\n";
        assert_eq!(snapshot_version(src), Some((7, 2)));
        assert_eq!(snapshot_version("const OTHER: u32 = 1;\n"), None);
    }

    #[test]
    fn snapshot_doc_in_sync_is_clean() {
        let schema = "pub const SNAPSHOT_VERSION: u32 = 1;\n";
        let doc = "The current snapshot schema version 1 is declared once.\n";
        let mut out = Vec::new();
        check_snapshot_doc("snap.rs", schema, "DESIGN.md", doc, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn snapshot_version_bump_without_doc_update_is_an_error() {
        let schema = "pub const SNAPSHOT_VERSION: u32 = 2;\n";
        let doc = "The current snapshot schema version 1 is declared once.\n";
        let mut out = Vec::new();
        check_snapshot_doc("snap.rs", schema, "DESIGN.md", doc, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].path, "snap.rs");
        assert_eq!(out[0].line, 1);
        assert!(out[0].message.contains("snapshot schema version 2"));
    }

    #[test]
    fn missing_snapshot_const_is_an_error() {
        let mut out = Vec::new();
        check_snapshot_doc(
            "snap.rs",
            "// nothing here\n",
            "DESIGN.md",
            "doc\n",
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("SNAPSHOT_VERSION"));
    }
}
