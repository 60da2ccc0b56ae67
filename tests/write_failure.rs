//! A write that fails part-way through a durable artifact leaves the last
//! durable state intact and a clean rerun converges. Each probe runs the
//! `ssfa` binary under `sh -c "trap '' XFSZ; ulimit -f N; exec …"`: with
//! `SIGXFSZ` ignored, a write past `N` blocks of one file fails with
//! `EFBIG` ("File too large") at an exact offset, with no code seam.
//!
//! `RLIMIT_FSIZE` is per file, so this models one write failing, not one
//! disk shared between artifacts. `ulimit -f` counts 512-byte blocks in
//! dash and 1 KiB blocks in bash, so the probes assert outcomes, never
//! offsets: both limits fail the same artifact.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-write-failure-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp dir is UTF-8")
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const SSFA: &str = env!("CARGO_BIN_EXE_ssfa");

/// Runs `ssfa args` with every file it writes capped at `blocks`.
fn ssfa_limited(blocks: u32, args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg(format!(
            "trap '' XFSZ; ulimit -f {blocks}; exec \"$0\" \"$@\""
        ))
        .arg(SSFA)
        .args(args)
        .output()
        .expect("spawn sh")
}

/// Runs `ssfa args` unlimited, asserts exit 0, and returns its stdout.
fn ssfa_ok(args: &[&str]) -> String {
    let out = Command::new(SSFA).args(args).output().expect("spawn ssfa");
    assert_eq!(
        out.status.code(),
        Some(0),
        "ssfa {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Asserts a limited run failed at runtime (exit 1) with `EFBIG` and an
/// error naming `artifact`.
fn assert_write_failed(out: &Output, artifact: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(artifact) && stderr.contains("File too large"),
        "the error must name {artifact:?} and EFBIG: {stderr}"
    );
}

/// Study rows only: drops the stats line and the run-health audit, which
/// describe the run (a resume analyzes fewer shards) rather than the study.
fn report_only(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|line| {
            !line.contains("shards in") && !line.contains("run health") && !line.contains("lines:")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

/// `ssfa corpus build` of the scale-0.01, seed-7 corpus into `out`.
fn build_args(out: &str) -> [&str; 8] {
    [
        "corpus", "build", "--out", out, "--scale", "0.01", "--seed", "7",
    ]
}

#[test]
fn corpus_build_past_the_file_limit_leaves_no_manifest_and_rebuilds() {
    let corpus = TempDir::new("build");
    let build = build_args(corpus.path());
    assert_write_failed(&ssfa_limited(128, &build), "corpus i/o error (write shard ");
    assert!(
        !corpus.0.join("MANIFEST").exists(),
        "a failed build must not publish a MANIFEST"
    );

    ssfa_ok(&build);
    let verified = ssfa_ok(&["corpus", "verify", corpus.path(), "--deep"]);
    assert!(verified.starts_with("verified "), "{verified}");

    let fresh = TempDir::new("fresh");
    ssfa_ok(&build_args(fresh.path()));
    let manifest = |dir: &Path| std::fs::read(dir.join("MANIFEST")).expect("MANIFEST");
    assert_eq!(
        manifest(&corpus.0),
        manifest(&fresh.0),
        "a rebuild over a failed build must match a fresh build"
    );
}

#[test]
fn resume_past_the_file_limit_keeps_durable_epochs_and_converges() {
    let corpus = TempDir::new("corpus");
    let ckpt = TempDir::new("ckpt");
    ssfa_ok(&build_args(corpus.path()));
    let cold = ssfa_ok(&["corpus", "analyze", corpus.path()]);

    let resume = ["corpus", "analyze", corpus.path(), "--resume", ckpt.path()];
    let failed = ssfa_limited(200, &resume);
    assert_write_failed(&failed, "publishing ");
    let stderr = String::from_utf8_lossy(&failed.stderr);
    assert!(stderr.contains("epoch-"), "{stderr}");

    let verified = ssfa_ok(&["checkpoint", "verify", ckpt.path()]);
    assert!(
        verified.starts_with("verified ") && !verified.contains(": 0 epoch(s)"),
        "the epochs published before the failure must verify: {verified}"
    );

    let resumed = ssfa_ok(&resume);
    assert_eq!(
        report_only(&resumed),
        report_only(&cold),
        "the rerun must finish with the cold report"
    );
    let strays: Vec<_> = std::fs::read_dir(&ckpt.0)
        .expect("checkpoint dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter(|name| name.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(strays.is_empty(), "stray temporaries: {strays:?}");
}
