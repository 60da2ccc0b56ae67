//! Diagnostics and their rustc-style human rendering.

use std::fmt;

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (e.g. `no-hashmap-iter`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the match.
    pub col: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix or justify it.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        write!(f, "   = help: {}", self.help)
    }
}

/// Everything one [`crate::check_workspace`] scan produced.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    /// Findings not covered by a suppression comment.
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a `// lint: allow(<rule>)` comment (counted
    /// in the summary line so every exception stays visible, but they do
    /// not fail the run).
    pub allowed: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl ScanResult {
    /// Human (rustc-style) rendering of the findings plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.to_string());
            out.push_str("\n\n");
        }
        out.push_str(&format!(
            "{} file(s) scanned, {} finding(s), {} suppressed\n",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "no-float-keys",
            path: "src/lib.rs".into(),
            line: 7,
            col: 13,
            message: "float ordering via `partial_cmp(..).unwrap()`".into(),
            help: "use `f64::total_cmp`".into(),
        }
    }

    #[test]
    fn human_rendering_is_rustc_shaped() {
        let text = sample().to_string();
        assert!(text.starts_with("error[no-float-keys]:"));
        assert!(text.contains("--> src/lib.rs:7:13"));
        assert!(text.contains("= help:"));
    }
}
