//! End-to-end tests of the `ssfa-lint` binary: exit codes, the
//! seeded-violation path the CI gate depends on, and the `fix` safety
//! contract (dry-run writes nothing; apply is idempotent and suppresses
//! the findings it annotates).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ssfa-lint")
}

fn run(root: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .args(["--root", root.to_str().unwrap()])
        .output()
        .expect("spawn ssfa-lint")
}

/// A scratch workspace under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssfa_lint_cli_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tree_snapshot(root: &Path) -> Vec<(PathBuf, String)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            (p, text)
        })
        .collect()
}

#[test]
fn clean_tree_exits_zero_and_seeded_violation_exits_one_with_location() {
    let root = scratch("seeded");
    std::fs::write(root.join("clean.rs"), "pub fn f() -> u32 { 7 }\n").unwrap();
    let out = run(&root, &["check"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Seed one violation; the gate must go red and name the line.
    std::fs::write(
        root.join("seeded.rs"),
        "pub fn t(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    )
    .unwrap();
    let out = run(&root, &["check"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("seeded.rs:2:25"),
        "missing file:line:col in\n{text}"
    );
    assert!(text.contains("no-float-keys"), "{text}");

    std::fs::remove_dir_all(root).ok();
}

#[test]
fn config_error_exits_two() {
    let root = scratch("badconfig");
    std::fs::write(root.join("lint.toml"), "[scanner]\nbogus_key = [\"x\"]\n").unwrap();
    let out = run(&root, &["check"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bogus_key"), "{err}");
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn fix_dry_run_never_writes_and_apply_is_idempotent() {
    let root = scratch("fix");
    std::fs::write(
        root.join("hot.rs"),
        "pub fn t(a: f64, b: f64) {\n    let o = a.partial_cmp(&b).unwrap();\n    drop(o);\n}\n",
    )
    .unwrap();

    // Dry run: reports the planned edit, exits 1, changes nothing.
    let before = tree_snapshot(&root);
    let out = run(&root, &["fix", "--dry-run"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot.rs:2"), "{text}");
    assert_eq!(tree_snapshot(&root), before, "dry run must not write");

    // Apply: inserts the suppression comment; check now passes (the
    // TODO-justify comment is a valid allow marker, by design — it turns
    // a red run into a grep-able burndown).
    let out = run(&root, &["fix"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let patched = std::fs::read_to_string(root.join("hot.rs")).unwrap();
    assert!(
        patched.contains("    // lint: allow(no-float-keys) TODO: justify"),
        "{patched}"
    );
    let out = run(&root, &["check"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Second dry run on the now-clean tree: no-op, exit 0.
    let after_apply = tree_snapshot(&root);
    let out = run(&root, &["fix", "--dry-run"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("nothing to do"));
    assert_eq!(tree_snapshot(&root), after_apply, "idempotence");

    std::fs::remove_dir_all(root).ok();
}

#[test]
fn github_flag_emits_workflow_commands() {
    let root = scratch("github");
    std::fs::write(
        root.join("hot.rs"),
        "// lint: zero-alloc\npub fn hot(id: u32) -> String {\n    id.to_string()\n}\n",
    )
    .unwrap();
    let out = run(&root, &["check", "--github"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("::error file=hot.rs,line=3,col=8,title=ssfa-lint[no-alloc-hot-path]::"),
        "{text}"
    );

    // The two machine modes cannot be combined: usage error on stderr.
    let out = run(&root, &["check", "--json", "--github"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");

    std::fs::remove_dir_all(root).ok();
}

#[test]
fn json_flag_emits_machine_readable_report() {
    let root = scratch("json");
    std::fs::write(
        root.join("bad.rs"),
        "pub fn r(a: f64, b: f64) { let o = a.partial_cmp(&b).expect(\"nan\"); drop(o); }\n",
    )
    .unwrap();
    let out = run(&root, &["check", "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\":\"no-float-keys\""), "{text}");
    assert!(text.contains("\"files_scanned\":1"), "{text}");
    std::fs::remove_dir_all(root).ok();
}
