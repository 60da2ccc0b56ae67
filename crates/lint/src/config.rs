//! `lint.toml`: the scanner's path lists and contract sources.
//!
//! Parsed by a tiny hand-rolled TOML-subset reader (sections, string and
//! string-array values, `#` comments) — the workspace is offline, so no
//! `toml` crate. The format is deliberately small; anything unrecognized
//! is a hard error so a typo cannot silently disable a rule.
//!
//! There is no path-scoped allowlist: a reviewed exception is an inline
//! `// lint: allow(<rule>) <reason>` next to the code it justifies.

use std::path::Path;

/// `[contracts]` section: the cross-artifact sources of truth the
/// `contract-sync` rule keeps consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contracts {
    /// Directory of workspace member crates; every crate under it must be
    /// covered by a scanner path list or `coverage_exempt`.
    pub crate_roots: Option<String>,
    /// Source file declaring `pub const SNAPSHOT_VERSION: u32 = <n>`
    /// (e.g. `crates/core/src/snapshot.rs`); paired with `snapshot_doc`.
    pub snapshot_schema: Option<String>,
    /// Document that must describe the current snapshot schema (contain
    /// the phrase `snapshot schema version <n>`), so a version bump
    /// cannot land without touching the design doc (e.g. `DESIGN.md`).
    pub snapshot_doc: Option<String>,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes (relative to the root) treated as deterministic code
    /// for `no-hashmap-iter`.
    pub deterministic_paths: Vec<String>,
    /// Crates deliberately outside the determinism path lists (the
    /// `contract-sync` coverage check accepts them as reviewed).
    pub coverage_exempt: Vec<String>,
    /// Path prefixes the scanner skips entirely (fixtures, build output).
    pub skip: Vec<String>,
    /// Cross-artifact contract sources, if configured.
    pub contracts: Option<Contracts>,
}

impl Config {
    /// Parses `lint.toml` text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside
    /// the accepted subset or an unknown section or key.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        #[derive(PartialEq)]
        enum Section {
            None,
            Scanner,
            Contracts,
        }
        let mut section = Section::None;

        let mut lines = text.lines().enumerate();
        while let Some((no, raw)) = lines.next() {
            let mut line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: keep consuming until the bracket closes.
            if line.contains('[') && line.contains('=') && !line.contains(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_toml_comment(cont).trim();
                    line.push_str(cont);
                    if cont.contains(']') {
                        break;
                    }
                }
            }
            let line = line.as_str();
            if line == "[scanner]" {
                section = Section::Scanner;
                continue;
            }
            if line == "[contracts]" {
                section = Section::Contracts;
                config.contracts.get_or_insert_with(Contracts::default);
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("lint.toml line {}: unknown section {line}", no + 1));
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml line {}: expected `key = value`", no + 1))?;
            let key = key.trim();
            let value = value.trim();
            match section {
                Section::Scanner => {
                    let list = parse_string_array(value)
                        .ok_or_else(|| format!("lint.toml line {}: expected an array", no + 1))?;
                    match key {
                        "deterministic_paths" => config.deterministic_paths = list,
                        "coverage_exempt" => config.coverage_exempt = list,
                        "skip" => config.skip = list,
                        _ => {
                            return Err(format!(
                                "lint.toml line {}: unknown [scanner] key `{key}`",
                                no + 1
                            ))
                        }
                    }
                }
                Section::Contracts => {
                    let s = parse_string(value)
                        .ok_or_else(|| format!("lint.toml line {}: expected a string", no + 1))?;
                    let contracts = config.contracts.as_mut().expect("inside [contracts]");
                    match key {
                        "crate_roots" => contracts.crate_roots = Some(s),
                        "snapshot_schema" => contracts.snapshot_schema = Some(s),
                        "snapshot_doc" => contracts.snapshot_doc = Some(s),
                        _ => {
                            return Err(format!(
                                "lint.toml line {}: unknown [contracts] key `{key}`",
                                no + 1
                            ))
                        }
                    }
                }
                Section::None => {
                    return Err(format!(
                        "lint.toml line {}: key outside any section",
                        no + 1
                    ))
                }
            }
        }
        Ok(config)
    }

    /// Loads and parses `root/lint.toml`. A missing file is an empty
    /// config (every rule applies everywhere).
    ///
    /// # Errors
    ///
    /// Propagates read and [`Config::parse`] errors.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint.toml");
        if !path.exists() {
            return Ok(Config::default());
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Config::parse(&text)
    }

    /// Whether `rel` (workspace-relative, `/`-separated) is under any of
    /// the given prefixes.
    pub fn under(rel: &str, prefixes: &[String]) -> bool {
        prefixes
            .iter()
            .any(|p| rel == p || rel.starts_with(&format!("{p}/")))
    }
}

/// Drops a trailing `# comment` (respecting quoted strings).
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Option<String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Some(v[1..v.len() - 1].to_string())
    } else {
        None
    }
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let v = value.trim();
    let inner = v.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_scanner_section() {
        let text = r#"
# reviewed policy
[scanner]
deterministic_paths = ["crates/core", "src"]
skip = ["target"]
"#;
        let config = Config::parse(text).unwrap();
        assert_eq!(config.deterministic_paths, vec!["crates/core", "src"]);
        assert_eq!(config.skip, vec!["target"]);
    }

    #[test]
    fn multi_line_arrays_parse() {
        let text = "[scanner]\nskip = [\n    \"a\", # fixture\n    \"b/c\",\n]\n";
        let config = Config::parse(text).unwrap();
        assert_eq!(config.skip, vec!["a", "b/c"]);
    }

    #[test]
    fn contracts_section_and_coverage_exemptions_parse() {
        let text = r#"
[scanner]
coverage_exempt = ["crates/rand"]

[contracts]
crate_roots = "crates"
snapshot_schema = "crates/core/src/snapshot.rs"
snapshot_doc = "DESIGN.md"
"#;
        let config = Config::parse(text).unwrap();
        assert_eq!(config.coverage_exempt, vec!["crates/rand"]);
        let contracts = config.contracts.as_ref().unwrap();
        assert_eq!(contracts.crate_roots.as_deref(), Some("crates"));
        assert_eq!(
            contracts.snapshot_schema.as_deref(),
            Some("crates/core/src/snapshot.rs")
        );
        assert_eq!(contracts.snapshot_doc.as_deref(), Some("DESIGN.md"));
    }

    #[test]
    fn unknown_contracts_key_is_a_hard_error() {
        let err = Config::parse("[contracts]\nbench_configs = \"x\"\n").unwrap_err();
        assert!(err.contains("bench_configs"), "{err}");
    }

    #[test]
    fn unknown_keys_are_hard_errors() {
        let err = Config::parse("[scanner]\ntypo_key = [\"x\"]\n").unwrap_err();
        assert!(err.contains("typo_key"), "{err}");
    }

    #[test]
    fn under_matches_prefixes_not_substrings() {
        let prefixes = vec!["crates/core".to_string()];
        assert!(Config::under("crates/core/src/afr.rs", &prefixes));
        assert!(Config::under("crates/core", &prefixes));
        assert!(!Config::under("crates/core2/src/x.rs", &prefixes));
    }
}
