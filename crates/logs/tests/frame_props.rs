//! Property suite for the shard frame codec (`ssfa_logs::frame`):
//!
//! 1. encode → decode round-trips arbitrary payloads exactly;
//! 2. **any** single flipped byte — header or payload, any position, any
//!    nonzero XOR mask — is rejected by the decoder, never silently
//!    mis-parsed; and, exhaustively, every single flipped bit of frames
//!    whose payloads end at the checksum's lane and block edges;
//! 3. every cut of an encoded frame is a typed `Truncated` error;
//! 4. the streaming digest equals the one-shot digest however its input
//!    is split.
//!
//! Property 2 is the codec's fault-model alignment with
//! `ssfa_logs::faults` (`FaultSpec::bitflip_rate` flips exactly these
//! bytes at rest): a flip changes one little-endian word, so one lane of
//! the four-lane `Checksum`, and every step after it is injective in that
//! lane, so a fixed-length corruption provably changes the digest. This
//! suite demonstrates it end to end, including flips in the length fields
//! (which change the parse geometry, not just the digest) and in the
//! checksum field itself.

use proptest::prelude::*;

use ssfa_logs::frame::{checksum64, decode_frame, encode_frame, Checksum, FrameError, HEADER_LEN};

/// Payload lengths at the checksum's edges. The 28-byte header prefix
/// comes first, so the covered bytes end just before, on and just after
/// an 8-byte lane word and a 32-byte block.
const EDGE_PAYLOADS: [usize; 11] = [0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 100];

fn edge_frame(payload_len: usize) -> Vec<u8> {
    let payload: Vec<u8> = (0..payload_len)
        .map(|i| (i as u8).wrapping_mul(151) ^ 0x3C)
        .collect();
    let mut frame = Vec::new();
    encode_frame(&mut frame, 0x0102_0304, payload_len as u64, &payload);
    frame
}

#[test]
fn every_single_bit_flip_at_lane_and_block_edges_is_rejected() {
    let mut flips = 0usize;
    for payload_len in EDGE_PAYLOADS {
        let clean = edge_frame(payload_len);
        assert!(decode_frame(&clean).is_ok(), "{payload_len}-byte payload");
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut frame = clean.clone();
                frame[byte] ^= 1 << bit;
                let outcome = decode_frame(&frame);
                assert!(
                    outcome.is_err(),
                    "bit {bit} of byte {byte} flipped in a frame with a {payload_len}-byte \
                     payload decoded as {outcome:?}"
                );
                flips += 1;
            }
        }
    }
    let payload_bytes: usize = EDGE_PAYLOADS.iter().sum();
    assert_eq!(
        flips,
        8 * (EDGE_PAYLOADS.len() * HEADER_LEN + payload_bytes)
    );
}

#[test]
fn every_cut_at_lane_and_block_edges_is_truncated() {
    for payload_len in EDGE_PAYLOADS {
        let frame = edge_frame(payload_len);
        for keep in 0..frame.len() {
            let err = decode_frame(&frame[..keep]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut to {keep} of {} bytes: {err:?}",
                frame.len()
            );
        }
    }
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..=255, 0..300)
}

proptest! {
    #[test]
    fn encode_decode_round_trips_arbitrary_payloads(
        system_id in 0u32..u32::MAX,
        line_count in 0u64..1_000_000,
        payload in arb_payload(),
    ) {
        let mut frame = Vec::new();
        let written = encode_frame(&mut frame, system_id, line_count, &payload);
        prop_assert_eq!(frame.len(), HEADER_LEN + payload.len());
        prop_assert_eq!(written.frame_len() as usize, frame.len());

        let (header, decoded) = decode_frame(&frame).expect("clean frame decodes");
        prop_assert_eq!(header, written);
        prop_assert_eq!(header.system_id, system_id);
        prop_assert_eq!(header.line_count, line_count);
        prop_assert_eq!(header.payload_len as usize, payload.len());
        prop_assert_eq!(decoded, payload.as_slice());
    }

    #[test]
    fn any_single_flipped_byte_is_rejected(
        system_id in 0u32..u32::MAX,
        line_count in 0u64..1_000_000,
        payload in arb_payload(),
        position in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let mut frame = Vec::new();
        encode_frame(&mut frame, system_id, line_count, &payload);
        let position = position % frame.len();
        frame[position] ^= mask;

        prop_assert!(
            decode_frame(&frame).is_err(),
            "flip at byte {} (mask {:#04x}) of a {}-byte frame decoded successfully",
            position, mask, frame.len(),
        );
    }

    /// A flip in the magic or version bytes must be rejected *as such* —
    /// structurally, before any checksum work — so corrupt frames and
    /// format-mismatched frames stay distinguishable.
    #[test]
    fn identity_byte_flips_are_structurally_typed(
        payload in arb_payload(),
        position in 0usize..8,
        mask in 1u8..=255,
    ) {
        let mut frame = Vec::new();
        encode_frame(&mut frame, 9, 2, &payload);
        frame[position] ^= mask;
        let err = decode_frame(&frame).unwrap_err();
        if position < 4 {
            prop_assert!(matches!(err, FrameError::BadMagic { .. }), "{err:?}");
        } else {
            prop_assert!(matches!(err, FrameError::UnsupportedVersion { .. }), "{err:?}");
        }
    }

    /// Truncating an encoded frame anywhere — mid-header or mid-payload —
    /// is always a typed `Truncated` error, never a short parse.
    #[test]
    fn any_truncation_is_rejected_as_truncated(
        payload in proptest::collection::vec(0u8..=255, 1..200),
        keep_frac in 0.0f64..1.0,
    ) {
        let mut frame = Vec::new();
        encode_frame(&mut frame, 3, 1, &payload);
        let keep = ((frame.len() as f64) * keep_frac) as usize;
        prop_assert!(keep < frame.len());
        let err = decode_frame(&frame[..keep]).unwrap_err();
        prop_assert!(matches!(err, FrameError::Truncated { .. }), "{err:?}");
    }

    /// Fed in two pieces at every split point, and in three pieces at
    /// two arbitrary ones, a buffer digests to its one-shot checksum.
    #[test]
    fn every_split_digests_like_the_one_shot_checksum(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        first in 0usize..=300,
        second in 0usize..=300,
    ) {
        let whole = checksum64(&bytes);
        for at in 0..=bytes.len() {
            let mut two = Checksum::new();
            two.update(&bytes[..at]);
            two.update(&bytes[at..]);
            prop_assert_eq!(two.value(), whole, "split at {}", at);
        }
        let a = first.min(second) % (bytes.len() + 1);
        let b = (first.max(second) % (bytes.len() + 1)).max(a);
        let mut three = Checksum::new();
        three.update(&bytes[..a]);
        three.update(&bytes[a..b]);
        three.update(&bytes[b..]);
        prop_assert_eq!(three.value(), whole, "split at {} and {}", a, b);
    }
}
