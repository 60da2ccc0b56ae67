//! The on-disk shard frame codec: one fixed-width binary header plus one
//! UTF-8 corpus-text payload per shard.
//!
//! This module is the **single** definition of what a well-formed frame
//! is. The corpus writer ([`crate::store::CorpusWriter`]), the verifier
//! ([`crate::store::CorpusReader::verify`]), and both disk-backed pipeline
//! sources decode through [`FrameHeader::parse`] and
//! [`FrameHeader::verify_payload`], so "corrupt" cannot mean different
//! things on different paths — the drift the duplicated-checksum bug
//! class produces (satellite of ISSUE 6).
//!
//! # Layout (version 2)
//!
//! All integers are **little-endian**. The header is exactly
//! [`HEADER_LEN`] = 36 bytes:
//!
//! | offset | size | field        | contents                                  |
//! |--------|------|--------------|-------------------------------------------|
//! | 0      | 4    | magic        | `b"SSFC"` ([`FRAME_MAGIC`])               |
//! | 4      | 4    | version      | `u32` = 2 ([`FRAME_VERSION`])             |
//! | 8      | 4    | system id    | `u32` owning-system id                    |
//! | 12     | 8    | line count   | `u64` rendered log lines in the payload   |
//! | 20     | 8    | payload len  | `u64` payload bytes following the header  |
//! | 28     | 8    | checksum     | `u64` [`Checksum`] of bytes 0..28 ++ payload |
//!
//! The payload is the shard's rendered corpus text
//! ([`crate::LogBook::to_text`]), newline-terminated UTF-8. Version 1
//! frames (byte-serial FNV-1a digests) are refused with
//! [`FrameError::UnsupportedVersion`]; `ssfa corpus build --force`
//! rebuilds a corpus in the current version.
//!
//! # Corruption detection
//!
//! The checksum covers every header field *and* the payload, so a flip in
//! the length or identity fields is caught even when the payload is
//! intact. [`Checksum`] reads the covered bytes as little-endian `u64`
//! words dealt round-robin to four lanes, and each lane step is a
//! bijection of the lane for a fixed word and of the word for a fixed
//! lane. So **any single flipped bit or byte at a fixed length is
//! guaranteed — not just overwhelmingly likely — to change the
//! digest**: the flip changes exactly one word, hence exactly one lane
//! step's output; every later step of that lane is injective in the
//! lane; the other lanes are untouched; and the XOR that joins the lanes
//! and the final mix are both injective in any one lane. That is exactly
//! the bit-rot fault model of [`crate::faults`]
//! (`FaultSpec::bitflip_rate`), and the property suite
//! (`crates/logs/tests/frame_props.rs`) proves the rejection end to end,
//! bit by bit, at every lane and block edge. A cut frame is caught by the
//! length fields, not by the digest: [`decode_frame`] reports it as
//! [`FrameError::Truncated`].

use std::fmt;

/// The four magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SSFC";

/// The frame format version this build writes and accepts. Version 2
/// replaced the byte-serial FNV-1a digest with the four-lane
/// [`Checksum`].
pub const FRAME_VERSION: u32 = 2;

/// Fixed header width in bytes.
pub const HEADER_LEN: usize = 36;

/// Bytes of the header covered by the checksum (everything before the
/// checksum field itself).
const CHECKSUMMED_PREFIX: usize = 28;

/// Independent lanes of [`Checksum`].
const LANES: usize = 4;
/// Bytes per lane word.
const WORD: usize = 8;
/// Bytes per block: one word for each lane.
const BLOCK: usize = LANES * WORD;
/// Distinct lane seeds (the first hex digits of pi), so that words
/// exchanged between lanes do not leave the lanes' XOR unchanged.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];
/// The odd multiplier of the lane step (a 64-bit prime).
const LANE_PRIME: u64 = 0x9E37_79B1_85EB_CA87;
/// The lane step's rotation. Without it bit 63 of a word would only
/// ever reach bit 63 of its lane, and two flips at bit 63 of two words
/// in one lane would cancel.
const LANE_ROTATE: u32 = 31;

/// Streaming four-lane digest: the checksum of every `SSFC` frame.
///
/// Lane `i` absorbs the little-endian `u64` words `4k + i` of the byte
/// stream as `lane = ((lane ^ word) * P).rotate_left(31)` with `P` odd;
/// xor, odd multiply and rotation are each bijections, so the step is a
/// bijection of the lane for a fixed word and of the word for a fixed
/// lane (the single-flip argument in the module docs). The four lanes
/// have no data dependency on each other, so the loop runs at word speed
/// rather than a byte per multiply. A block of fewer than 32 bytes waits
/// inside the digest until the next [`Checksum::update`] completes it,
/// so the digest of a byte string does not depend on how it was split
/// across calls. [`Checksum::value`] zero-pads the last partial block,
/// folds the lanes together with XOR, mixes in the total length, and
/// finishes with an invertible avalanche.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// The pending partial block; bytes from `pending` on are zero.
    block: [u8; BLOCK],
    /// Bytes of `block` absorbed from the input.
    pending: usize,
    /// Total bytes absorbed.
    len: u64,
}

impl Checksum {
    /// A fresh digest over no bytes.
    pub fn new() -> Checksum {
        Checksum {
            lanes: LANE_SEEDS,
            block: [0; BLOCK],
            pending: 0,
            len: 0,
        }
    }

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.pending > 0 {
            let take = (BLOCK - self.pending).min(bytes.len());
            self.block[self.pending..self.pending + take].copy_from_slice(&bytes[..take]);
            self.pending += take;
            bytes = &bytes[take..];
            if self.pending < BLOCK {
                return;
            }
            absorb(&mut self.lanes, std::slice::from_ref(&self.block));
            self.block = [0; BLOCK];
            self.pending = 0;
        }
        let (blocks, rest) = bytes.as_chunks::<BLOCK>();
        absorb(&mut self.lanes, blocks);
        self.block[..rest.len()].copy_from_slice(rest);
        self.pending = rest.len();
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending > 0 {
            absorb(&mut lanes, std::slice::from_ref(&self.block));
        }
        let folded = lanes.iter().fold(self.len, |h, lane| h ^ lane);
        avalanche(folded)
    }
}

/// Runs whole blocks through the four lanes.
#[inline]
fn absorb(lanes: &mut [u64; LANES], blocks: &[[u8; BLOCK]]) {
    let mut state = *lanes;
    for block in blocks {
        let (words, _) = block.as_chunks::<WORD>();
        for (lane, word) in state.iter_mut().zip(words) {
            *lane = ((*lane ^ u64::from_le_bytes(*word)).wrapping_mul(LANE_PRIME))
                .rotate_left(LANE_ROTATE);
        }
    }
    *lanes = state;
}

/// The 64-bit finalizer of MurmurHash3: each step is invertible, so it
/// spreads every input bit over the output without merging two inputs.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

/// One-shot digest of a byte string.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.value()
}

/// A decoded (and structurally validated) frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Owning-system id of the shard in this frame.
    pub system_id: u32,
    /// Rendered log lines in the payload.
    pub line_count: u64,
    /// Payload bytes following the header.
    pub payload_len: u64,
    /// [`Checksum`] of the header's checksummed prefix and the payload.
    pub checksum: u64,
}

/// Everything that can be wrong with a frame, as a typed error with a
/// pinned `Display` rendering (the negative-path suite asserts the exact
/// messages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The version field names a format this build does not read.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The byte stream ends before the frame does.
    Truncated {
        /// Which part of the frame was cut short.
        what: &'static str,
        /// Bytes the frame needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The stored checksum does not match the recomputed digest.
    ChecksumMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed over header prefix + payload.
        computed: u64,
    },
    /// The payload passed its checksum but is not valid UTF-8 (cannot
    /// happen for frames this codec wrote; defends against hand-built
    /// frames).
    PayloadNotUtf8 {
        /// Byte offset of the first invalid sequence within the payload.
        at: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(
                    f,
                    "bad frame magic: expected {:02x?}, found {:02x?}",
                    FRAME_MAGIC, found
                )
            }
            FrameError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported frame version {found} (this build reads version {FRAME_VERSION})"
                )
            }
            FrameError::Truncated {
                what,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated frame {what}: need {needed} bytes, have {available}"
                )
            }
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:016x}, computed {computed:016x}"
                )
            }
            FrameError::PayloadNotUtf8 { at } => {
                write!(f, "frame payload is not UTF-8 (first invalid byte at {at})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameHeader {
    /// Parses and structurally validates one header from the first
    /// [`HEADER_LEN`] bytes of `bytes`: magic, version, and width checks
    /// happen here; payload integrity needs
    /// [`FrameHeader::verify_payload`].
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] if fewer than [`HEADER_LEN`] bytes are
    /// available, [`FrameError::BadMagic`] /
    /// [`FrameError::UnsupportedVersion`] on field mismatches.
    pub fn parse(bytes: &[u8]) -> Result<FrameHeader, FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                what: "header",
                needed: HEADER_LEN as u64,
                available: bytes.len() as u64,
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("fixed slice");
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("fixed slice"));
        if version != FRAME_VERSION {
            return Err(FrameError::UnsupportedVersion { found: version });
        }
        Ok(FrameHeader {
            system_id: u32::from_le_bytes(bytes[8..12].try_into().expect("fixed slice")),
            line_count: u64::from_le_bytes(bytes[12..20].try_into().expect("fixed slice")),
            payload_len: u64::from_le_bytes(bytes[20..28].try_into().expect("fixed slice")),
            checksum: u64::from_le_bytes(bytes[28..36].try_into().expect("fixed slice")),
        })
    }

    /// Serializes this header (recomputing nothing — the caller provides a
    /// consistent `checksum` via [`encode_frame`]).
    fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&FRAME_MAGIC);
        out[4..8].copy_from_slice(&FRAME_VERSION.to_le_bytes());
        out[8..12].copy_from_slice(&self.system_id.to_le_bytes());
        out[12..20].copy_from_slice(&self.line_count.to_le_bytes());
        out[20..28].copy_from_slice(&self.payload_len.to_le_bytes());
        out[28..36].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Recomputes the digest over this header's checksummed prefix and
    /// `payload`, and compares it to the stored checksum. This is *the*
    /// corruption check — every reader goes through it.
    ///
    /// # Errors
    ///
    /// [`FrameError::ChecksumMismatch`] with both digests on disagreement.
    pub fn verify_payload(&self, payload: &[u8]) -> Result<(), FrameError> {
        let computed = self.compute_checksum(&[payload]);
        if computed != self.checksum {
            return Err(FrameError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            });
        }
        Ok(())
    }

    /// The digest a frame with this header's fields and the payload
    /// `parts` (concatenated) should carry.
    fn compute_checksum(&self, parts: &[&[u8]]) -> u64 {
        let mut c = Checksum::new();
        c.update(&self.to_bytes()[..CHECKSUMMED_PREFIX]);
        for part in parts {
            c.update(part);
        }
        c.value()
    }

    /// Total encoded frame width: header plus payload.
    pub fn frame_len(&self) -> u64 {
        HEADER_LEN as u64 + self.payload_len
    }
}

/// Encodes one shard frame — header and payload — appending to `out`.
/// Returns the written header (whose `checksum` is what a manifest
/// records as the shard's digest).
pub fn encode_frame(
    out: &mut Vec<u8>,
    system_id: u32,
    line_count: u64,
    payload: &[u8],
) -> FrameHeader {
    encode_frame_parts(out, system_id, line_count, &[payload])
}

/// [`encode_frame`] for a payload held in pieces: the frame's payload is
/// the concatenation of `parts`, written without first being copied into
/// one buffer.
pub fn encode_frame_parts(
    out: &mut Vec<u8>,
    system_id: u32,
    line_count: u64,
    parts: &[&[u8]],
) -> FrameHeader {
    let mut header = FrameHeader {
        system_id,
        line_count,
        payload_len: parts.iter().map(|part| part.len() as u64).sum(),
        checksum: 0,
    };
    header.checksum = header.compute_checksum(parts);
    out.reserve(header.frame_len() as usize);
    out.extend_from_slice(&header.to_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    header
}

/// Decodes one frame from the front of `bytes`, borrowing the payload —
/// the zero-copy entry point the mmap-backed source reads through.
/// Trailing bytes after the frame are allowed (frames are concatenated
/// inside segment files); the consumed width is `header.frame_len()`.
///
/// # Errors
///
/// Any [`FrameError`]: structural header errors from
/// [`FrameHeader::parse`], [`FrameError::Truncated`] when the payload
/// runs past `bytes`, and [`FrameError::ChecksumMismatch`] from
/// [`FrameHeader::verify_payload`].
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameHeader, &[u8]), FrameError> {
    let header = FrameHeader::parse(bytes)?;
    let end = header.frame_len();
    if (bytes.len() as u64) < end {
        return Err(FrameError::Truncated {
            what: "payload",
            needed: header.payload_len,
            available: bytes.len() as u64 - HEADER_LEN as u64,
        });
    }
    let payload = &bytes[HEADER_LEN..end as usize];
    header.verify_payload(payload)?;
    Ok((header, payload))
}

/// [`decode_frame`], then checks the payload is UTF-8 and returns it as
/// `&str` — what corpus readers feed the line parser, with no
/// intermediate `String`.
///
/// # Errors
///
/// As [`decode_frame`], plus [`FrameError::PayloadNotUtf8`].
pub fn decode_frame_text(bytes: &[u8]) -> Result<(FrameHeader, &str), FrameError> {
    let (header, payload) = decode_frame(bytes)?;
    let text = std::str::from_utf8(payload).map_err(|e| FrameError::PayloadNotUtf8 {
        at: e.valid_up_to(),
    })?;
    Ok((header, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, 42, 3, b"line a\nline b\nline c\n");
        out
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = sample_frame();
        let (header, payload) = decode_frame(&frame).unwrap();
        assert_eq!(header.system_id, 42);
        assert_eq!(header.line_count, 3);
        assert_eq!(payload, b"line a\nline b\nline c\n");
        assert_eq!(header.frame_len() as usize, frame.len());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut out = Vec::new();
        encode_frame(&mut out, 7, 0, b"");
        let (header, payload) = decode_frame(&out).unwrap();
        assert_eq!(header.payload_len, 0);
        assert!(payload.is_empty());
    }

    #[test]
    fn trailing_bytes_are_tolerated_by_decode() {
        let mut frame = sample_frame();
        let clean_len = frame.len();
        frame.extend_from_slice(b"next frame starts here");
        let (header, _) = decode_frame(&frame).unwrap();
        assert_eq!(header.frame_len() as usize, clean_len);
    }

    #[test]
    fn short_header_is_truncated() {
        let frame = sample_frame();
        let err = decode_frame(&frame[..HEADER_LEN - 1]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated frame header: need 36 bytes, have 35"
        );
    }

    #[test]
    fn short_payload_is_truncated() {
        let frame = sample_frame();
        let err = decode_frame(&frame[..frame.len() - 1]).unwrap_err();
        assert!(
            matches!(
                err,
                FrameError::Truncated {
                    what: "payload",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_magic_is_rejected_before_anything_else() {
        let mut frame = sample_frame();
        frame[0] = b'X';
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected_without_checksum_recompute() {
        let mut frame = sample_frame();
        frame[4] = 3;
        assert_eq!(
            decode_frame(&frame).unwrap_err(),
            FrameError::UnsupportedVersion { found: 3 }
        );
    }

    #[test]
    fn version_1_frames_are_refused() {
        let mut frame = sample_frame();
        frame[4] = 1;
        assert_eq!(
            decode_frame(&frame).unwrap_err().to_string(),
            "unsupported frame version 1 (this build reads version 2)"
        );
    }

    #[test]
    fn payload_flip_fails_the_checksum() {
        let mut frame = sample_frame();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_field_flip_fails_the_checksum() {
        // Flip a system-id byte: payload untouched, but the digest covers
        // the header prefix, so the mismatch is still caught.
        let mut frame = sample_frame();
        frame[8] ^= 0x80;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn non_utf8_payload_is_typed_not_panicked() {
        let mut out = Vec::new();
        encode_frame(&mut out, 1, 1, &[0x66, 0xFF, 0x67]);
        assert_eq!(
            decode_frame_text(&out).unwrap_err(),
            FrameError::PayloadNotUtf8 { at: 1 }
        );
    }

    #[test]
    fn checksum_is_streaming_equal_to_oneshot() {
        let mut c = Checksum::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.value(), checksum64(b"hello world"));
    }

    /// 100 bytes: three whole blocks and a ragged tail.
    fn sample_bytes() -> Vec<u8> {
        (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect()
    }

    #[test]
    fn every_split_of_a_buffer_digests_like_the_whole() {
        let bytes = sample_bytes();
        let whole = checksum64(&bytes);
        for a in 0..=bytes.len() {
            for b in a..=bytes.len() {
                let mut c = Checksum::new();
                c.update(&bytes[..a]);
                c.update(&bytes[a..b]);
                c.update(&bytes[b..]);
                assert_eq!(c.value(), whole, "split at {a} and {b}");
            }
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_digest() {
        // The last block is zero-padded; the total length keeps a real
        // trailing zero apart from the padding.
        let mut bytes = sample_bytes();
        let digests: Vec<u64> = (0..BLOCK + 1)
            .map(|_| {
                let d = checksum64(&bytes);
                bytes.push(0);
                d
            })
            .collect();
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), digests.len());
        assert_ne!(checksum64(b""), checksum64(&[0]));
    }

    #[test]
    fn two_top_bit_flips_in_one_lane_do_not_cancel() {
        // Words 0 and 4 feed lane 0. Without the lane rotation, bit 63 of
        // a word reaches only bit 63 of its lane, so these two flips
        // would cancel.
        let bytes = sample_bytes();
        let mut flipped = bytes.clone();
        flipped[7] ^= 0x80;
        flipped[BLOCK + 7] ^= 0x80;
        assert_ne!(checksum64(&flipped), checksum64(&bytes));
    }

    #[test]
    fn exchanging_words_between_lanes_changes_the_digest() {
        // In one block, swapping words 0 and 1 swaps what lanes 0 and 1
        // hold; only distinct lane seeds keep their XOR apart.
        let bytes = &sample_bytes()[..BLOCK];
        let mut swapped = bytes.to_vec();
        swapped[..2 * WORD].rotate_left(WORD);
        assert_ne!(checksum64(&swapped), checksum64(bytes));
    }

    #[test]
    fn a_payload_in_parts_encodes_like_the_joined_payload() {
        let payload = sample_bytes();
        let mut joined = Vec::new();
        let header = encode_frame(&mut joined, 5, 2, &payload);
        let mut parts = vec![0xEE];
        let parted = encode_frame_parts(
            &mut parts,
            5,
            2,
            &[&payload[..3], &[], &payload[3..40], &payload[40..]],
        );
        assert_eq!(parted, header);
        assert_eq!(parts[0], 0xEE, "appends after what `out` held");
        assert_eq!(&parts[1..], joined.as_slice());
    }
}
