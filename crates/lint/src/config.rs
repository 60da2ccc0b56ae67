//! The scanner's policy: which paths each rule covers and which crates
//! the coverage check accepts.
//!
//! A policy is a plain Rust value: the workspace's reviewed policy is a
//! `const` in the tier-1 test that runs the scan (`tests/lint_selfscan.rs`
//! at the workspace root), and each fixture test builds its own.
//!
//! There is no path-scoped allowlist: a reviewed exception is an inline
//! `// lint: allow(<rule>) <reason>` next to the code it justifies.

/// Path lists, all workspace-relative and `/`-separated.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Path prefixes treated as deterministic code for `no-hashmap-iter`;
    /// empty means everywhere.
    pub deterministic_paths: &'static [&'static str],
    /// Crates deliberately outside the determinism path lists (the
    /// `contract-sync` coverage check accepts them as reviewed).
    pub coverage_exempt: &'static [&'static str],
    /// Path prefixes the scanner skips entirely (fixtures, build output).
    pub skip: &'static [&'static str],
}

impl Config {
    /// Whether `rel` (workspace-relative, `/`-separated) is under any of
    /// the given prefixes.
    pub fn under(rel: &str, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| {
            rel.strip_prefix(p)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_matches_prefixes_not_substrings() {
        let prefixes = ["crates/core"];
        assert!(Config::under("crates/core/src/afr.rs", &prefixes));
        assert!(Config::under("crates/core", &prefixes));
        assert!(!Config::under("crates/core2/src/x.rs", &prefixes));
    }
}
