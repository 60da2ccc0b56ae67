//! End-to-end tests of the `ssfa-lint` binary: exit codes, the
//! seeded-violation path the CI gate depends on, and the machine output
//! modes.

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
fn github_flag_emits_workflow_commands() {
    let root = scratch("github");
    std::fs::write(
        root.join("rank.rs"),
        "pub fn rank(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    )
    .unwrap();
    let out = run(&root, &["check", "--github"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("::error file=rank.rs,line=2,col=25,title=ssfa-lint[no-float-keys]::"),
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
