//! Diagnostics: rustc-style human rendering and a stable `--json` form.

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

impl Diagnostic {
    /// GitHub Actions workflow-command rendering
    /// (`::error file=…,line=…,col=…,title=…::message`).
    pub fn to_github(&self) -> String {
        format!(
            "::error file={},line={},col={},title={}::{}",
            escape_property(&self.path),
            self.line,
            self.col,
            escape_property(&format!("ssfa-lint[{}]", self.rule)),
            escape_data(&format!("{} (help: {})", self.message, self.help)),
        )
    }
}

/// Workflow-command property escaping (`%`, CR, LF, `:`, `,`).
fn escape_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Workflow-command data escaping (`%`, CR, LF).
fn escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Everything one `check` run produced.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    /// Findings not covered by a suppression comment.
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a `// lint: allow(<rule>)` comment (reported
    /// in JSON so every exception stays visible, but they do not fail the
    /// run).
    pub allowed: Vec<Diagnostic>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Minimal JSON string escaping (the only JSON writer this crate needs).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One finding as JSON. Every finding fails the run, so `level` is always
/// `"error"`; the key stays for readers of the report schema.
fn diag_json(d: &Diagnostic) -> String {
    format!(
        "{{\"rule\":{},\"level\":\"error\",\"path\":{},\"line\":{},\"col\":{},\"message\":{},\"help\":{}}}",
        json_str(d.rule),
        json_str(&d.path),
        d.line,
        d.col,
        json_str(&d.message),
        json_str(&d.help)
    )
}

impl ScanResult {
    /// The stable JSON document `check --json` emits (and CI archives).
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(diag_json).collect();
        let allowed: Vec<String> = self.allowed.iter().map(diag_json).collect();
        format!(
            "{{\"files_scanned\":{},\"findings\":[{}],\"allowed\":[{}]}}\n",
            self.files_scanned,
            findings.join(","),
            allowed.join(",")
        )
    }

    /// GitHub Actions annotation rendering: one workflow command per
    /// finding (the job's own exit code carries pass/fail).
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&d.to_github());
            out.push('\n');
        }
        out
    }

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

    #[test]
    fn github_mode_emits_escaped_workflow_commands() {
        let mut d = sample();
        d.message = "line one\nline two, 50% done".into();
        let cmd = d.to_github();
        assert!(
            cmd.starts_with(
                "::error file=src/lib.rs,line=7,col=13,title=ssfa-lint[no-float-keys]::"
            ),
            "{cmd}"
        );
        assert!(cmd.contains("line one%0Aline two, 50%25 done"), "{cmd}");
        assert!(
            !cmd[2..].contains('\n'),
            "data newlines must be escaped: {cmd}"
        );
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut result = ScanResult::default();
        let mut d = sample();
        d.message = "quote \" and\nnewline".into();
        result.findings.push(d);
        result.files_scanned = 3;
        let json = result.to_json();
        assert!(json.contains("\"files_scanned\":3"));
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.ends_with("\"allowed\":[]}\n"), "{json}");
    }
}
