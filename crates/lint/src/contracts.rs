//! `contract-sync`: every workspace crate under `crates/` is covered by
//! `deterministic_paths`/`skip` or explicitly reviewed in
//! `coverage_exempt`, so a new crate cannot silently dodge the
//! determinism rules.
//!
//! The snapshot schema documentation needs no scan: the tier-1 test
//! that runs this lint asserts `DESIGN.md` names the current
//! `SNAPSHOT_VERSION` directly. Bench configs need no edge either:
//! `bench_pipeline --check` already rejects a gated config the baseline
//! lacks (DESIGN §9).

use crate::config::Config;
use crate::diag::Diagnostic;
use std::path::Path;

/// The directory of workspace member crates (`members = ["crates/*"]`).
const CRATE_ROOTS: &str = "crates";

/// Every crate directory (contains `Cargo.toml`) under `crates/`
/// must be covered by a scanner path list or `coverage_exempt`. A root
/// without that directory has no crates to check.
///
/// # Errors
///
/// Propagates directory-walk I/O errors other than a missing directory.
pub fn contract_sync(
    root: &Path,
    config: &Config,
    out: &mut Vec<Diagnostic>,
) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(root.join(CRATE_ROOTS)) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut crates = Vec::new();
    for entry in entries {
        let entry = entry?;
        if entry.path().join("Cargo.toml").is_file() {
            crates.push(format!(
                "{CRATE_ROOTS}/{}",
                entry.file_name().to_string_lossy()
            ));
        }
    }
    crates.sort();
    for krate in crates {
        let covered = [
            config.deterministic_paths,
            config.skip,
            config.coverage_exempt,
        ]
        .iter()
        .any(|list| Config::under(&krate, list));
        if !covered {
            out.push(Diagnostic {
                rule: "contract-sync",
                path: format!("{krate}/Cargo.toml"),
                line: 1,
                col: 1,
                message: format!(
                    "crate `{krate}` is not covered by deterministic_paths, skip, \
                     or coverage_exempt"
                ),
                help: "decide the crate's determinism posture in the lint policy: add it \
                       to deterministic_paths (default) or coverage_exempt with review"
                    .into(),
            });
        }
    }
    Ok(())
}
