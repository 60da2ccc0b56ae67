//! A successful `ssfa corpus analyze`, end to end through the CLI: build a
//! tiny corpus, verify every frame, analyze it through both disk-backed
//! sources, resume it from a checkpoint, and verify that checkpoint. Two
//! failure paths sit here because they need such a run: a hand-edited
//! checkpoint manifest, and a reader that closes standard output early.
//! The other refusals live in `tests/cli_usage.rs`.
//!
//! The last stdout line is the stats line
//! `"{shards} shards in {chunks} chunks, peak resident shard …"`; scripts
//! grep for `shards in`, so its wording is pinned here.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use ssfa::logs::checkpoint::{CheckpointManifest, EpochEntry, CHECKPOINT_NAME};
use ssfa::logs::CascadeStyle;
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

fn ssfa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssfa"))
        .args(args)
        .output()
        .expect("spawn ssfa")
}

/// Runs `ssfa` with `args`, asserts exit 0, and returns its stdout.
fn ssfa_ok(args: &[&str]) -> String {
    let out = ssfa(args);
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

fn build_small_corpus(corpus: &TempDir) {
    ssfa_ok(&[
        "corpus",
        "build",
        "--out",
        corpus.0.to_str().unwrap(),
        "--scale",
        "0.002",
        "--seed",
        "7",
    ]);
}

/// The edit that once passed unnoticed: the last epoch holds the whole
/// fold, and setting its fold start to its shard start makes it a valid
/// delta to the layout checks. A resume then merged it onto epoch 0 and
/// counted those shards twice; `checkpoint verify` passed. The
/// manifest's closing checksum line now refuses it on both paths.
#[test]
fn a_hand_edited_fold_start_fails_verify_and_resume() {
    let corpus = TempDir::new("edit-corpus");
    let ckpt = TempDir::new("edit-ckpt");
    build_small_corpus(&corpus);
    let ckpt_dir = ckpt.0.to_str().unwrap();
    analyze(&corpus.0, &["--resume", ckpt_dir]);

    let path = ckpt.0.join(CHECKPOINT_NAME);
    let text = std::fs::read_to_string(&path).expect("manifest reads");
    let manifest = CheckpointManifest::parse(&text).expect("manifest parses");
    let last = manifest.epochs.len() - 1;
    let entry = manifest.epochs[last];
    assert!(last > 0 && entry.is_whole(), "{text}");
    let whole = format!(
        "\nepoch {last} {} {} 0 ",
        entry.shard_start, entry.shard_end
    );
    let delta = format!(
        "\nepoch {last} {} {} {} ",
        entry.shard_start, entry.shard_end, entry.shard_start
    );
    let edited = text.replace(&whole, &delta);
    assert_ne!(edited, text, "the edit must take effect");
    std::fs::write(&path, edited).expect("manifest rewrites");

    let corpus_dir = corpus.0.to_str().unwrap();
    for args in [
        vec!["checkpoint", "verify", ckpt_dir],
        vec!["corpus", "analyze", corpus_dir, "--resume", ckpt_dir],
    ] {
        let out = ssfa(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "ssfa {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains(&format!(
                    "checkpoint manifest {} fails its checksum: the file records ",
                    path.display()
                )),
            "ssfa {args:?}: {stderr}"
        );
    }
}

/// Runs `ssfa` with its standard output on a pipe that is closed after
/// the first line, and returns that line and the run's outcome.
fn first_line_then_close(args: &[&str]) -> (String, Output) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ssfa"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ssfa");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line reads");
    // The reader is dropped here, closing the pipe's read end.
    (first, child.wait_with_output().expect("ssfa exits"))
}

#[test]
fn a_reader_that_closes_early_ends_the_command_cleanly() {
    // `checkpoint ls` reads only the manifest: one with enough epochs
    // that the listing overflows any pipe buffer, so the early close is
    // certain to cut it.
    let ckpt = TempDir::new("pipe-ckpt");
    std::fs::create_dir_all(&ckpt.0).expect("dir");
    let epochs = 4000;
    let manifest = CheckpointManifest {
        payload_version: 2,
        corpus_seed: 7,
        corpus_style: CascadeStyle::RaidOnly,
        epochs: (0..epochs)
            .map(|i| EpochEntry {
                shard_start: i,
                shard_end: i + 1,
                fold_start: if i == 0 { 0 } else { i },
                chunks: 1,
                payload_len: 64,
                checksum: i as u64,
                corpus_digest: i as u64,
            })
            .collect(),
    };
    std::fs::write(ckpt.0.join(CHECKPOINT_NAME), manifest.to_text()).expect("manifest writes");
    let ckpt_dir = ckpt.0.to_str().unwrap();
    let listing = ssfa_ok(&["checkpoint", "ls", ckpt_dir]);
    assert_eq!(listing.lines().count(), epochs + 1);
    assert!(listing.len() > 256 * 1024, "{} bytes", listing.len());

    let corpus = TempDir::new("pipe-corpus");
    build_small_corpus(&corpus);
    let corpus_dir = corpus.0.to_str().unwrap();
    for args in [
        vec!["checkpoint", "ls", ckpt_dir],
        vec!["corpus", "analyze", corpus_dir],
    ] {
        let (first, out) = first_line_then_close(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!first.is_empty(), "ssfa {args:?} printed nothing");
        assert!(!stderr.contains("panicked"), "ssfa {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "ssfa {args:?}: {stderr}");
    }
}
