//! `contract-sync`: cross-artifact consistency checks.
//!
//! The bench gate, lint.toml, and CI form a triangle that was previously
//! kept consistent by hand. This rule pins the edges:
//!
//! - every bench config name in the `[contracts] bench_configs` source
//!   has a baseline entry in `bench_baseline` (an unbaselined config
//!   silently escapes the perf gate — that is an error); a baseline entry
//!   with no config is drift in the other direction (a warning);
//! - every workspace crate under `crate_roots` is covered by
//!   `deterministic_paths`/`skip` or explicitly reviewed in
//!   `coverage_exempt` — a new crate cannot silently dodge the
//!   determinism rules;
//! - the snapshot schema version declared in `snapshot_schema`
//!   (`pub const SNAPSHOT_VERSION: u32 = <n>`) is described in
//!   `snapshot_doc` as the phrase `snapshot schema version <n>` — a
//!   version bump cannot land without touching the design doc that
//!   specifies the persisted layout.

use crate::config::Config;
use crate::diag::{Diagnostic, Level};
use std::path::Path;

/// Runs every contract check, each gated on its `[contracts]` keys.
pub fn contract_sync(root: &Path, config: &Config, out: &mut Vec<Diagnostic>) {
    let Some(contracts) = &config.contracts else {
        return;
    };

    if let (Some(bench_rel), Some(baseline_rel)) =
        (&contracts.bench_configs, &contracts.bench_baseline)
    {
        match (
            std::fs::read_to_string(root.join(bench_rel)),
            std::fs::read_to_string(root.join(baseline_rel)),
        ) {
            (Ok(bench_src), Ok(baseline_src)) => {
                check_bench_baseline(bench_rel, &bench_src, baseline_rel, &baseline_src, out);
            }
            (bench, baseline) => {
                for (rel, result) in [(bench_rel, &bench), (baseline_rel, &baseline)] {
                    if let Err(e) = result {
                        out.push(Diagnostic {
                            rule: "contract-sync",
                            level: Level::Error,
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
                            level: Level::Error,
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
            level: Level::Error,
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
            level: Level::Error,
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

/// Extracts bench config names: a string literal alone on its line
/// followed by a bare `true,`/`false,` line — the tuple shape
/// `("name", timed, Box::new(..))` formatted by rustfmt.
fn bench_config_names(src: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim();
        let Some(name) = t.strip_prefix('"').and_then(|r| r.strip_suffix("\",")) else {
            continue;
        };
        if name.is_empty() || name.contains('"') {
            continue;
        }
        let next = lines[i + 1..]
            .iter()
            .map(|l| l.trim())
            .find(|l| !l.is_empty());
        if matches!(next, Some("true,") | Some("false,")) {
            out.push((name.to_string(), i + 1));
        }
    }
    out
}

/// Extracts `"name": "<x>"` entries from the baseline JSON (the key may
/// sit anywhere on the line — compact objects put it after `{`).
fn baseline_names(src: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let Some(at) = line.find("\"name\"") else {
            continue;
        };
        let Some(value) = line[at + "\"name\"".len()..].trim_start().strip_prefix(':') else {
            continue;
        };
        let Some(rest) = value.trim_start().strip_prefix('"') else {
            continue;
        };
        if let Some(end) = rest.find('"') {
            out.push((rest[..end].to_string(), i + 1));
        }
    }
    out
}

fn check_bench_baseline(
    bench_rel: &str,
    bench_src: &str,
    baseline_rel: &str,
    baseline_src: &str,
    out: &mut Vec<Diagnostic>,
) {
    let configs = bench_config_names(bench_src);
    let baselines = baseline_names(baseline_src);
    for (name, line) in &configs {
        if !baselines.iter().any(|(b, _)| b == name) {
            out.push(Diagnostic {
                rule: "contract-sync",
                level: Level::Error,
                path: bench_rel.to_string(),
                line: *line,
                col: 1,
                message: format!("bench config `{name}` has no baseline entry in {baseline_rel}"),
                help: "every bench config must be gated: re-bless the baseline \
                       (SSFA_BENCH_BLESS) so the new config gets wall/peak bounds"
                    .into(),
            });
        }
    }
    for (name, line) in &baselines {
        if !configs.iter().any(|(c, _)| c == name) {
            out.push(Diagnostic {
                rule: "contract-sync",
                level: Level::Warning,
                path: baseline_rel.to_string(),
                line: *line,
                col: 1,
                message: format!("baseline entry `{name}` has no bench config in {bench_rel}"),
                help: "delete the orphaned baseline entry (the config it gated is gone)".into(),
            });
        }
    }
}

/// Every crate directory (contains `Cargo.toml`) under `roots` must be
/// covered by a scanner path list or `coverage_exempt`.
fn check_crate_coverage(root: &Path, roots: &str, config: &Config, out: &mut Vec<Diagnostic>) {
    let dir = root.join(roots);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        out.push(Diagnostic {
            rule: "contract-sync",
            level: Level::Error,
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
                level: Level::Error,
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
    fn bench_names_extract_from_tuple_shape() {
        let src = "let configs = vec![\n    (\n        \"monolithic\",\n        true,\n        Box::new(|| {}),\n    ),\n    (\n        \"corpus_file\",\n        false,\n        Box::new(|| {}),\n    ),\n];\n";
        let names: Vec<String> = bench_config_names(src)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["monolithic", "corpus_file"]);
    }

    #[test]
    fn baseline_names_extract_from_json_lines() {
        let src = "{\n  \"configs\": [\n    { \"name\": \"monolithic\", \"wall\": 1 },\n    {\n      \"name\": \"corpus_file\",\n      \"wall\": 2\n    }\n  ]\n}\n";
        let names: Vec<String> = baseline_names(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["monolithic", "corpus_file"]);
    }

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
        assert_eq!(out[0].level, Level::Error);
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

    #[test]
    fn drift_both_directions_config_is_error_baseline_is_warning() {
        let bench = "(\n\"gated\",\ntrue,\n)\n(\n\"new_config\",\nfalse,\n)\n";
        let baseline = "\"name\": \"gated\",\n\"name\": \"ghost\",\n";
        let mut out = Vec::new();
        check_bench_baseline("bench.rs", bench, "base.json", baseline, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("new_config"));
        assert_eq!(out[0].level, Level::Error);
        assert_eq!(out[0].path, "bench.rs");
        assert!(out[1].message.contains("ghost"));
        assert_eq!(out[1].level, Level::Warning);
        assert_eq!(out[1].path, "base.json");
    }
}
