//! # ssfa-lint: the workspace determinism/concurrency analyzer
//!
//! A library with one runner: the tier-1 test `tests/lint_selfscan.rs`
//! at the workspace root passes the reviewed [`Config`] policy to
//! [`check_workspace`] and fails on any finding (`cargo test --test
//! lint_selfscan`). The scan reads every `.rs` file in the workspace with
//! a hand-rolled token-level lexer (no `syn`, fully offline) and enforces
//! the determinism rules the reproduction depends on — see [`rules`] for
//! the list and DESIGN.md ("Static analysis & determinism guarantees")
//! for the rationale.
//!
//! It holds the contracts clippy cannot express: hash-order iteration,
//! float ordering, and cross-artifact sync. Findings are individually
//! suppressible with a justification comment on or above the line.

pub mod config;
pub mod contracts;
pub mod diag;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use diag::{Diagnostic, ScanResult};

use rules::SourceFile;
use std::path::{Path, PathBuf};

/// Directories never scanned regardless of configuration.
const ALWAYS_SKIP: [&str; 3] = [".git", "target", ".claude"];

/// Collects every `.rs` file under `root` (workspace-relative,
/// `/`-separated, sorted — the scan must itself be deterministic), honoring
/// the config's `skip` prefixes.
///
/// # Errors
///
/// Propagates directory-walk I/O errors.
pub fn collect_sources(root: &Path, config: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if ALWAYS_SKIP.contains(&name.as_ref()) || Config::under(&rel, config.skip) {
                    continue;
                }
                stack.push(path);
            } else if rel.ends_with(".rs") && !Config::under(&rel, config.skip) {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, `/`-separated.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every rule over the workspace at `root` under `config`.
///
/// # Errors
///
/// Propagates file-read I/O errors; the scan itself cannot fail.
pub fn check_workspace(root: &Path, config: &Config) -> std::io::Result<ScanResult> {
    let paths = collect_sources(root, config)?;
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let source = std::fs::read_to_string(path)?;
        files.push(SourceFile {
            rel: rel_path(root, path),
            stripped: lexer::strip(&source),
        });
    }

    let index = rules::HashNameIndex::build(&files);
    let mut raw: Vec<Diagnostic> = Vec::new();
    for file in &files {
        rules::no_hashmap_iter(file, &index, config, &mut raw);
        rules::no_float_keys(file, &mut raw);
    }

    // Cross-artifact contract: crate coverage.
    contracts::contract_sync(root, config, &mut raw)?;

    // Apply suppression comments.
    let by_rel: std::collections::BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let (allowed, mut findings): (Vec<Diagnostic>, Vec<Diagnostic>) =
        raw.into_iter().partition(|d| {
            by_rel
                .get(d.path.as_str())
                .is_some_and(|file| rules::suppressed(file, d.rule, d.line))
        });
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });

    Ok(ScanResult {
        findings,
        allowed,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_is_slash_separated() {
        let root = Path::new("/tmp/ws");
        assert_eq!(
            rel_path(root, Path::new("/tmp/ws/crates/core/src/afr.rs")),
            "crates/core/src/afr.rs"
        );
    }
}
