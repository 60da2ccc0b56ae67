//! Property suite for the checkpoint store (`ssfa_logs::checkpoint`),
//! mirroring the shard-frame suite (`frame_props.rs`): checkpoint
//! epochs ride the same `SSFC` codec as corpus shards, so they inherit
//! the same fault model and must inherit the same guarantees —
//!
//! 1. **any** single flipped byte in an epoch frame file — header or
//!    snapshot payload, any position, any nonzero XOR mask — is rejected
//!    on read, never absorbed into a resumed fold;
//! 2. truncating an epoch file anywhere is rejected as a typed codec
//!    failure, never a short parse;
//!
//! plus pinned `Display` strings for the negative paths a resuming
//! operator actually sees: a checkpoint-format version mismatch, a
//! checkpoint folded from a different corpus, and a manifest entry
//! disagreeing with its epoch frame (an edit that also rewrote the
//! manifest's closing checksum line, which any other edit fails).

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use ssfa_logs::checkpoint::{
    CheckpointError, CheckpointReader, CheckpointWriter, CHECKPOINT_NAME, CHECKPOINT_VERSION_LINE,
};
use ssfa_logs::{checksum64, CascadeStyle, Manifest};

/// A self-deleting scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ssfa-ckpt-props-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One-epoch checkpoint store over an arbitrary snapshot payload.
fn one_epoch_store(dir: &Path, payload: &[u8]) -> CheckpointReader {
    let mut writer =
        CheckpointWriter::create(dir, 1, 42, CascadeStyle::RaidOnly).expect("store creates");
    writer
        .write_epoch(0..3, 1, 0xfeed_f00d, payload)
        .expect("epoch writes");
    CheckpointReader::open(dir).expect("store reopens")
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 1..300)
}

proptest! {
    // Each case touches the filesystem; a smaller case count keeps the
    // suite fast while still sweeping positions and masks.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn epoch_frames_reject_any_single_flipped_byte(
        payload in arb_payload(),
        position in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let tmp = TempDir::new("bitflip");
        let reader = one_epoch_store(&tmp.0, &payload);
        let path = reader.epoch_path(0);
        let mut bytes = std::fs::read(&path).expect("epoch file reads");
        let position = position % bytes.len();
        bytes[position] ^= mask;
        std::fs::write(&path, &bytes).expect("tampered epoch writes");

        prop_assert!(
            reader.read_epoch(0).is_err(),
            "flip at byte {} (mask {:#04x}) of a {}-byte epoch frame was absorbed",
            position, mask, bytes.len(),
        );
    }

    #[test]
    fn epoch_truncation_is_rejected(
        payload in arb_payload(),
        keep_frac in 0.0f64..1.0,
    ) {
        let tmp = TempDir::new("truncate");
        let reader = one_epoch_store(&tmp.0, &payload);
        let path = reader.epoch_path(0);
        let bytes = std::fs::read(&path).expect("epoch file reads");
        let keep = ((bytes.len() as f64) * keep_frac) as usize;
        prop_assert!(keep < bytes.len());
        std::fs::write(&path, &bytes[..keep]).expect("truncated epoch writes");

        let err = reader.read_epoch(0).expect_err("truncated epoch must be refused");
        prop_assert!(
            matches!(err, CheckpointError::Frame { epoch: 0, .. }),
            "truncation to {keep} bytes must surface as a typed codec failure, got {err:?}",
        );
    }
}

/// An unknown checkpoint-format version is refused at open with the
/// exact message an operator sees after a format bump.
#[test]
fn format_version_mismatch_display_is_pinned() {
    let tmp = TempDir::new("version");
    one_epoch_store(&tmp.0, b"snapshot");
    let path = tmp.0.join(CHECKPOINT_NAME);
    let text = std::fs::read_to_string(&path).expect("manifest reads");
    let bumped = text.replace(CHECKPOINT_VERSION_LINE, "ssfa-checkpoint v4");
    assert_ne!(text, bumped, "header replacement must take effect");
    std::fs::write(&path, bumped).expect("manifest rewrites");

    let err = CheckpointReader::open(&tmp.0).expect_err("future format must be refused");
    assert_eq!(
        err.to_string(),
        "checkpoint manifest line 1: expected header `ssfa-checkpoint v3`, \
         found `ssfa-checkpoint v4`"
    );
}

/// A checkpoint keyed to one corpus refuses to resume against another,
/// naming the first disagreeing identity field.
#[test]
fn corpus_disagreement_display_is_pinned() {
    let tmp = TempDir::new("corpus-id");
    let reader = one_epoch_store(&tmp.0, b"snapshot");
    let corpus = Manifest {
        seed: 43,
        style: CascadeStyle::RaidOnly,
        segment_shards: 64,
        params: Vec::new(),
        shards: Vec::new(),
        segments: 0,
        total_payload_bytes: 0,
    };
    let err = reader
        .manifest()
        .validate_against(&corpus)
        .expect_err("foreign corpus must be refused");
    assert_eq!(
        err.to_string(),
        "checkpoint/corpus disagreement on seed: checkpoint has 42, corpus has 43"
    );
}

/// Tampering with a manifest epoch entry (here: its digest field) is
/// caught by the frame cross-check, with both digests named.
#[test]
fn manifest_epoch_disagreement_display_is_pinned() {
    let tmp = TempDir::new("entry-tamper");
    let reader = one_epoch_store(&tmp.0, b"snapshot");
    let recorded = reader.manifest().epochs[0].checksum;
    let tampered = recorded ^ 1;

    let path = tmp.0.join(CHECKPOINT_NAME);
    let text = std::fs::read_to_string(&path).expect("manifest reads");
    let edited = text.replace(&format!("{recorded:016x}"), &format!("{tampered:016x}"));
    assert_ne!(text, edited, "digest replacement must take effect");
    // Rewrite the closing checksum line too, so that the manifest opens
    // and the frame cross-check is what catches the edit.
    let body = &edited[..edited.rfind("checksum ").expect("checksum line")];
    let resealed = format!("{body}checksum {:016x}\n", checksum64(body.as_bytes()));
    std::fs::write(&path, resealed).expect("manifest rewrites");

    let reader = CheckpointReader::open(&tmp.0).expect("layout still parses");
    let err = reader
        .read_epoch(0)
        .expect_err("manifest/epoch disagreement must be refused");
    assert_eq!(
        err.to_string(),
        format!(
            "checkpoint epoch 0: manifest digest {tampered:016x} disagrees with \
             frame digest {recorded:016x}"
        )
    );
}
