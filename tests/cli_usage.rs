//! Pins the CLI error contract for both binaries: usage errors (unknown
//! commands, unknown flags, invalid values) print the usage text to
//! **stderr** and exit **2** — never a panic, never exit 1, and never a
//! word on stdout. Runtime failures (a missing corpus directory) exit 1
//! without the usage dump. A WAL that recovery had to cut is reported on
//! stdout before `ssfad serve` starts listening.

use std::process::{Command, Output};

fn ssfa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssfa"))
        .args(args)
        .output()
        .expect("spawn ssfa")
}

fn ssfad(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssfad"))
        .args(args)
        .output()
        .expect("spawn ssfad")
}

fn assert_usage_refusal(out: &Output, binary: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{binary}: usage errors must exit 2, got {:?} (stderr: {stderr})",
        out.status.code()
    );
    assert!(
        stderr.contains("usage:"),
        "{binary}: usage text must go to stderr, got: {stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "{binary}: the specific error must be named, got: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{binary}: refusals must not write stdout, got: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_commands_and_subcommands_exit_2_with_usage() {
    assert_usage_refusal(&ssfa(&[]), "ssfa");
    assert_usage_refusal(&ssfa(&["frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfa(&["corpus"]), "ssfa");
    assert_usage_refusal(&ssfa(&["corpus", "frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfa(&["checkpoint"]), "ssfa");
    assert_usage_refusal(&ssfa(&["checkpoint", "frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfa(&["agent"]), "ssfa");
    assert_usage_refusal(&ssfa(&["agent", "frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfad(&[]), "ssfad");
    assert_usage_refusal(&ssfad(&["frobnicate"]), "ssfad");
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    assert_usage_refusal(&ssfa(&["corpus", "build", "--frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfa(&["corpus", "analyze", "dir", "--frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfa(&["checkpoint", "ls", "dir", "--frobnicate"]), "ssfa");
    assert_usage_refusal(
        &ssfa(&["checkpoint", "verify", "dir", "--frobnicate"]),
        "ssfa",
    );
    assert_usage_refusal(&ssfa(&["agent", "replay", "dir", "--frobnicate"]), "ssfa");
    assert_usage_refusal(&ssfad(&["serve", "--frobnicate"]), "ssfad");
    assert_usage_refusal(&ssfad(&["status"]), "ssfad");
}

#[test]
fn invalid_values_are_usage_errors_not_panics() {
    // --threads 0 used to reach Pipeline::threads(0) and panic; it must
    // be a polite usage refusal on every subcommand that accepts it.
    assert_usage_refusal(
        &ssfa(&["corpus", "build", "--out", "x", "--threads", "0"]),
        "ssfa",
    );
    assert_usage_refusal(&ssfa(&["corpus", "analyze", "x", "--threads", "0"]), "ssfa");
    assert_usage_refusal(
        &ssfa(&["corpus", "build", "--out", "x", "--segment-shards", "0"]),
        "ssfa",
    );
    assert_usage_refusal(
        &ssfa(&["corpus", "build", "--out", "x", "--scale", "banana"]),
        "ssfa",
    );
    assert_usage_refusal(
        &ssfa(&["corpus", "build", "--out", "x", "--scale", "-1"]),
        "ssfa",
    );
    assert_usage_refusal(
        &ssfa(&[
            "agent",
            "replay",
            "x",
            "--addr",
            "not-an-addr",
            "--tenant",
            "t",
        ]),
        "ssfa",
    );
    assert_usage_refusal(
        &ssfa(&[
            "agent",
            "replay",
            "x",
            "--addr",
            "127.0.0.1:1",
            "--tenant",
            "t",
            "--max-attempts",
            "0",
        ]),
        "ssfa",
    );
    assert_usage_refusal(&ssfad(&["serve", "--heartbeat-ms", "0"]), "ssfad");
    assert_usage_refusal(&ssfad(&["serve", "--idle-ticks", "0"]), "ssfad");
    assert_usage_refusal(&ssfad(&["serve", "--queue-capacity", "0"]), "ssfad");
    // Checkpoint-resume flags: value-less or zero-valued epochs, and
    // epoch granularity without a checkpoint directory to apply it to,
    // are all usage refusals.
    assert_usage_refusal(&ssfa(&["corpus", "analyze", "dir", "--resume"]), "ssfa");
    assert_usage_refusal(
        &ssfa(&[
            "corpus",
            "analyze",
            "dir",
            "--resume",
            "ckpt",
            "--epoch-chunks",
            "0",
        ]),
        "ssfa",
    );
    assert_usage_refusal(
        &ssfa(&["corpus", "analyze", "dir", "--epoch-chunks", "2"]),
        "ssfa",
    );
    assert_usage_refusal(&ssfad(&["serve", "--wal"]), "ssfad");
}

#[test]
fn missing_required_arguments_exit_2() {
    assert_usage_refusal(&ssfa(&["corpus", "build"]), "ssfa");
    assert_usage_refusal(&ssfa(&["corpus", "verify"]), "ssfa");
    assert_usage_refusal(&ssfa(&["checkpoint", "ls"]), "ssfa");
    assert_usage_refusal(&ssfa(&["checkpoint", "verify"]), "ssfa");
    assert_usage_refusal(&ssfa(&["agent", "replay"]), "ssfa");
    assert_usage_refusal(&ssfa(&["agent", "replay", "some-dir"]), "ssfa");
    assert_usage_refusal(&ssfad(&["health", "127.0.0.1:1"]), "ssfad");
}

#[test]
fn version_flag_prints_one_line_and_exits_0() {
    for (out, name) in [
        (ssfa(&["--version"]), "ssfa"),
        (ssfad(&["--version"]), "ssfad"),
    ] {
        assert_eq!(out.status.code(), Some(0), "{name} --version must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("{name} ")) && stdout.trim_end().contains('.'),
            "{name} --version must print `{name} <semver>`, got: {stdout}"
        );
        assert!(
            out.stderr.is_empty(),
            "{name} --version must not write stderr"
        );
    }
}

#[test]
fn runtime_failures_exit_1_without_usage_dump() {
    // A well-formed invocation over a nonexistent corpus is a runtime
    // error: exit 1, one error line, no usage text.
    let out = ssfa(&["corpus", "verify", "/nonexistent/corpus"]);
    assert_eq!(out.status.code(), Some(1), "runtime errors exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "runtime errors must not dump usage: {stderr}"
    );
}

#[test]
fn serve_warns_before_listening_about_wal_records_it_set_aside() {
    use ssfa::daemon::WriteAheadLog;
    use ssfa::logs::Strictness;

    let dir = std::env::temp_dir().join(format!("ssfa-cli-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Twenty records in 400-byte segments, then one byte flipped in the
    // second segment: replay stops there and the later segments are set
    // aside.
    let (wal, _) = WriteAheadLog::open(&dir, 400).expect("wal opens");
    for seq in 0..20u64 {
        let mut frame = Vec::new();
        ssfa::logs::frame::encode_frame(&mut frame, seq as u32, 1, b"x\n");
        wal.append("t", Strictness::Lenient, "s", seq, &frame)
            .expect("record appends");
    }
    drop(wal);
    let segment = dir.join("t").join(ssfa::daemon::wal::segment_file_name(1));
    let mut bytes = std::fs::read(&segment).expect("segment reads");
    bytes[10] ^= 0x01;
    std::fs::write(&segment, bytes).expect("segment writes");

    let wal_dir = dir.to_str().expect("utf-8 temp path");
    let out = ssfad(&["serve", "--addr", "127.0.0.1:0", "--wal", wal_dir]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    let warning = lines
        .iter()
        .position(|line| {
            line.starts_with("WARNING: tenant t: WAL replay stopped at wal-00001.seg offset 0")
        })
        .unwrap_or_else(|| panic!("no WARNING line for tenant t: {stdout}"));
    let listening = lines
        .iter()
        .position(|line| line.starts_with("ssfad listening on"))
        .expect("a listening line");
    assert!(warning < listening, "{stdout}");
    assert_eq!(
        lines
            .iter()
            .filter(|line| line.starts_with("WARNING:"))
            .count(),
        1,
        "one line per affected tenant: {stdout}"
    );
}
