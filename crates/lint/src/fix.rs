//! `ssfa-lint fix`: mechanical suppression-comment insertion.
//!
//! The fixer does not rewrite logic — converting a `HashMap` to a
//! `BTreeMap` is a human decision about key ordering. What it *can* do
//! mechanically is mark every current finding with a
//! `// lint: allow(<rule>) TODO: justify` comment directly above the
//! flagged line, turning a red run into an explicit, grep-able burndown.
//!
//! Safety properties (pinned by the smoke tests):
//! - it never touches a file outside the workspace root it was given;
//! - `--dry-run` writes nothing, ever;
//! - on a clean tree it is a no-op, and a second run after applying is
//!   also a no-op (idempotence).

use crate::diag::Diagnostic;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One planned insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// Absolute path of the file to modify.
    pub path: PathBuf,
    /// 1-based line the comment is inserted *above*.
    pub line: usize,
    /// The comment line to insert (indentation matched to the target).
    pub insert: String,
}

/// Rules the fixer never plans for: their findings live in config or
/// cross-artifact state (lint.toml, baseline JSON), where a suppression
/// comment is either impossible or the wrong move — config drift is fixed
/// by fixing the config, not by blessing the drift.
const NOFIX_RULES: [&str; 2] = ["unused-allow", "contract-sync"];

/// Plans the suppression edits for `findings`. Diagnostics without a
/// source line and `NOFIX_RULES` findings are skipped — deleting or
/// rewriting config is not the fixer's call.
pub fn plan(root: &Path, findings: &[Diagnostic]) -> std::io::Result<Vec<Edit>> {
    let mut edits = Vec::new();
    for d in findings {
        if d.line == 0 || NOFIX_RULES.contains(&d.rule) {
            continue;
        }
        let path = root.join(&d.path);
        let source = std::fs::read_to_string(&path)?;
        let target = source.lines().nth(d.line - 1).unwrap_or_default();
        let indent: String = target.chars().take_while(|c| *c == ' ').collect();
        edits.push(Edit {
            path,
            line: d.line,
            insert: format!("{indent}// lint: allow({}) TODO: justify", d.rule),
        });
    }
    Ok(edits)
}

/// Applies `edits`, refusing any path that escapes `root`.
///
/// # Errors
///
/// Returns an error (before writing anything) if an edit's path does not
/// canonicalize under `root`; propagates I/O errors otherwise.
pub fn apply(root: &Path, edits: &[Edit]) -> std::io::Result<usize> {
    let root = root.canonicalize()?;
    // Validate every target before touching any file.
    for edit in edits {
        let canonical = edit.path.canonicalize()?;
        if !canonical.starts_with(&root) {
            return Err(std::io::Error::other(format!(
                "refusing to edit {} outside workspace {}",
                canonical.display(),
                root.display()
            )));
        }
    }
    // Group by file, insert bottom-up so line numbers stay valid.
    let mut by_file: BTreeMap<&PathBuf, Vec<&Edit>> = BTreeMap::new();
    for edit in edits {
        by_file.entry(&edit.path).or_default().push(edit);
    }
    let mut written = 0usize;
    for (path, mut file_edits) in by_file {
        file_edits.sort_by_key(|e| std::cmp::Reverse(e.line));
        let source = std::fs::read_to_string(path)?;
        let mut lines: Vec<&str> = source.lines().collect();
        let inserts: Vec<String> = file_edits.iter().map(|e| e.insert.clone()).collect();
        for (edit, insert) in file_edits.iter().zip(&inserts) {
            lines.insert(edit.line - 1, insert);
        }
        let mut out = lines.join("\n");
        if source.ends_with('\n') {
            out.push('\n');
        }
        std::fs::write(path, out)?;
        written += 1;
    }
    Ok(written)
}

/// Human rendering of a dry run.
pub fn render_plan(root: &Path, edits: &[Edit]) -> String {
    if edits.is_empty() {
        return "fix: nothing to do (clean tree)\n".to_string();
    }
    let mut out = String::new();
    for edit in edits {
        out.push_str(&format!(
            "fix: {}:{}: insert `{}`\n",
            crate::rel_path(root, &edit.path),
            edit.line,
            edit.insert.trim_start()
        ));
    }
    out.push_str(&format!("fix: {} insertion(s) planned\n", edits.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_refuses_paths_outside_root() {
        let dir = std::env::temp_dir().join("ssfa_lint_fix_escape_test");
        std::fs::create_dir_all(&dir).unwrap();
        let inside = dir.join("ok.rs");
        std::fs::write(&inside, "fn main() {}\n").unwrap();
        let outside = std::env::temp_dir().join("ssfa_lint_fix_outside.rs");
        std::fs::write(&outside, "fn main() {}\n").unwrap();
        let edits = vec![Edit {
            path: outside.clone(),
            line: 1,
            insert: "// nope".into(),
        }];
        let err = apply(&dir, &edits).unwrap_err();
        assert!(err.to_string().contains("outside workspace"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&outside).unwrap(),
            "fn main() {}\n",
            "the file outside the root must be untouched"
        );
        std::fs::remove_file(outside).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn plan_matches_indentation() {
        let dir = std::env::temp_dir().join("ssfa_lint_fix_indent_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.rs"), "fn f() {\n    thread::spawn(|| {});\n}\n").unwrap();
        let findings = vec![Diagnostic {
            rule: "no-raw-spawn",
            level: crate::diag::Level::Error,
            path: "a.rs".into(),
            line: 2,
            col: 5,
            message: String::new(),
            help: String::new(),
        }];
        let edits = plan(&dir, &findings).unwrap();
        assert_eq!(edits.len(), 1);
        assert_eq!(
            edits[0].insert,
            "    // lint: allow(no-raw-spawn) TODO: justify"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
