//! A successful `ssfa corpus analyze`, end to end through the CLI: build a
//! tiny corpus, verify every frame, analyze it through both disk-backed
//! sources, resume it from a checkpoint, and verify that checkpoint. The
//! refusals live in `tests/cli_usage.rs`.
//!
//! The last stdout line is the stats line
//! `"{shards} shards in {chunks} chunks, peak resident shard …"`; scripts
//! grep for `shards in`, so its wording is pinned here.

use std::path::{Path, PathBuf};
use std::process::Command;

use ssfa::pipeline::{ChunkPolicy, Source};
use ssfa::FileSource;

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-cli-analyze-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `ssfa` with `args`, asserts exit 0, and returns its stdout.
fn ssfa_ok(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ssfa"))
        .args(args)
        .output()
        .expect("spawn ssfa");
    assert_eq!(
        out.status.code(),
        Some(0),
        "ssfa {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// A `verify` subcommand's whole stdout is one `verified <dir>: …` line.
fn assert_verified(stdout: &str, dir: &str) {
    assert!(
        stdout.starts_with(&format!("verified {dir}: ")) && stdout.lines().count() == 1,
        "unexpected verify output: {stdout:?}"
    );
}

fn analyze(corpus: &Path, extra: &[&str]) -> String {
    let mut args = vec![
        "corpus",
        "analyze",
        corpus.to_str().unwrap(),
        "--threads",
        "2",
    ];
    args.extend_from_slice(extra);
    ssfa_ok(&args)
}

/// The report without the lines that describe the run rather than the
/// study: the stats line and the run-health audit.
fn report_only(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|line| {
            !line.contains("shards in") && !line.contains("run health") && !line.contains("lines:")
        })
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn corpus_analyze_agrees_across_sources_and_resume() {
    let corpus = TempDir::new("corpus");
    let ckpt = TempDir::new("ckpt");
    let dir = corpus.0.to_str().unwrap();
    ssfa_ok(&[
        "corpus", "build", "--out", dir, "--scale", "0.002", "--seed", "7",
    ]);
    assert_verified(&ssfa_ok(&["corpus", "verify", dir, "--deep"]), dir);

    let file = analyze(&corpus.0, &["--source", "file"]);
    let mmap = analyze(&corpus.0, &["--source", "mmap"]);
    assert_eq!(
        file, mmap,
        "file and mmap sources must print identical reports"
    );

    let source = FileSource::open(&corpus.0).expect("built corpus opens");
    let shards = source.reader().manifest().shards.len();
    let chunks = source.plan_chunks(ChunkPolicy::Auto).chunk_count();
    assert!(shards > 1, "the corpus should hold several shards");
    let stats = file.lines().last().expect("analyze prints a stats line");
    let expected = format!("{shards} shards in {chunks} chunks, peak resident shard ");
    assert!(
        stats.starts_with(&expected) && stats.ends_with(" corpus bytes"),
        "stats line changed: {stats:?}, expected it to start with {expected:?}"
    );
    assert!(
        report_only(&file).lines().count() > 1,
        "the report must hold Table 1 rows:\n{file}"
    );

    let ckpt_dir = ckpt.0.to_str().unwrap();
    let cold = analyze(&corpus.0, &["--resume", ckpt_dir]);
    assert_verified(&ssfa_ok(&["checkpoint", "verify", ckpt_dir]), ckpt_dir);
    let warm = analyze(&corpus.0, &["--resume", ckpt_dir]);
    assert_eq!(
        report_only(&cold),
        report_only(&file),
        "cold --resume diverged"
    );
    assert_eq!(
        report_only(&warm),
        report_only(&cold),
        "warm --resume diverged"
    );
    assert!(
        warm.lines()
            .last()
            .is_some_and(|line| line.starts_with("0 shards in 0 chunks")),
        "a caught-up resume analyzes nothing new:\n{warm}"
    );
}
