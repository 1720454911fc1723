//! Property-based tests over the `bnb serve` wire protocol, read
//! through the [`FrameAssembler`] the server and the load clients run:
//! every message round-trips byte-exactly however the stream is split,
//! and *any* byte sequence decodes to either a message or a typed error
//! — never a panic, never an unbounded allocation.

use bnb::serve::protocol::{
    decode_body, FrameAssembler, Message, RetryReason, WireError, HEADER_LEN, MAX_BODY, OP_ERROR,
    OP_RETRY, OP_ROUTED, OP_SHUTDOWN, OP_SUBMIT, VERSION,
};
use bnb::serve::ErrorCode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds one of the five message shapes from a flat tuple of raw
/// ingredients (the vendored proptest has no `prop_oneof!`, so the
/// discriminant is explicit).
fn build_message(
    kind: u8,
    tenant: u16,
    request_id: u64,
    lines: Vec<u32>,
    text: Vec<u8>,
) -> Message {
    match kind {
        0 => Message::Submit {
            tenant,
            request_id,
            dests: lines,
        },
        1 => Message::Routed {
            tenant,
            request_id,
            sources: lines,
        },
        2 => Message::Retry {
            tenant,
            request_id,
            reason: RetryReason::from_u8(1 + (lines.len() as u8 % 3)).unwrap(),
        },
        3 => Message::Error {
            tenant,
            request_id,
            code: ErrorCode::from_u8(1 + (lines.len() as u8 % 2)).unwrap(),
            // Printable ASCII keeps the message valid UTF-8 by construction.
            message: text.iter().map(|b| (b' ' + b % 95) as char).collect(),
        },
        _ => Message::Shutdown { tenant, request_id },
    }
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        0u8..5,
        any::<u16>(),
        any::<u64>(),
        proptest::collection::vec(any::<u32>(), 0..=256),
        proptest::collection::vec(any::<u8>(), 0..=120),
    )
        .prop_map(|(kind, tenant, request_id, lines, text)| {
            build_message(kind, tenant, request_id, lines, text)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for every message shape.
    #[test]
    fn any_message_round_trips(msg in arb_message()) {
        let bytes = msg.to_bytes();
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        prop_assert_eq!(len, bytes.len() - 4, "length prefix covers the body exactly");
        prop_assert_eq!(decode_body(&bytes[4..]), Ok(msg.clone()));
        let mut asm = FrameAssembler::new();
        asm.feed(&bytes);
        prop_assert_eq!(asm.next_frame().unwrap().map(|(m, _ns)| m), Some(msg));
        prop_assert!(asm.peek().is_empty());
    }

    /// One to four messages sent back to back and fed in pieces cut at
    /// random points (drawn from `seed`) decode in order: a frame pops
    /// exactly once, when its last byte lands.
    #[test]
    fn split_feeds_decode_in_order(
        msgs in proptest::collection::vec(arb_message(), 1..=4),
        seed in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        for msg in &msgs {
            msg.encode(&mut wire);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let cut_count = rng.random_range(0..=16usize);
        let mut cuts: Vec<usize> = (0..cut_count)
            .map(|_| rng.random_range(0..=wire.len()))
            .collect();
        cuts.push(wire.len());
        cuts.sort_unstable();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut fed = 0;
        for cut in cuts {
            asm.feed(&wire[fed..cut]);
            fed = cut;
            while let Some((msg, _ns)) = asm.next_frame().unwrap() {
                got.push(msg);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert!(asm.peek().is_empty());
    }

    /// Arbitrary garbage bodies never panic: always a Message or a typed
    /// WireError.
    #[test]
    fn arbitrary_bytes_decode_to_message_or_typed_error(
        body in proptest::collection::vec(any::<u8>(), 0..=512),
    ) {
        let _ = decode_body(&body); // must return, never panic
    }

    /// Truncating a valid frame anywhere yields a typed error, never a
    /// panic and never a wrong message.
    #[test]
    fn truncation_never_panics(msg in arb_message(), pick in any::<u64>()) {
        let bytes = msg.to_bytes();
        let body = &bytes[4..];
        if body.len() > 1 {
            let cut = (pick % body.len() as u64) as usize; // strictly shorter
            prop_assert!(decode_body(&body[..cut]).is_err());
        }
    }

    /// Flipping any single byte of a valid frame either still decodes (it
    /// hit a payload byte) or fails with a typed error — never a panic.
    #[test]
    fn single_byte_corruption_is_handled(
        msg in arb_message(),
        pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let bytes = msg.to_bytes();
        let mut body = bytes[4..].to_vec();
        let i = (pick % body.len() as u64) as usize;
        body[i] ^= xor;
        let _ = decode_body(&body); // must return, never panic
    }

    /// The framed reader survives arbitrary byte streams fed in random
    /// chunks: every outcome is a message, "need more bytes", or a typed
    /// error, and it never buffers more than one largest frame before
    /// the error.
    #[test]
    fn framed_reader_never_panics_on_garbage(
        stream in proptest::collection::vec(any::<u8>(), 0..=512),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut asm = FrameAssembler::new();
        let mut fed = 0;
        'feed: while fed < stream.len() {
            let chunk = rng.random_range(1..=stream.len() - fed);
            asm.feed(&stream[fed..fed + chunk]);
            fed += chunk;
            loop {
                match asm.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    // Connection-fatal: a reader stops here.
                    Err(_) => break 'feed,
                }
            }
            prop_assert!(asm.peek().len() <= MAX_BODY + 4);
        }
    }
}

#[test]
fn oversized_length_prefixes_are_refused_without_allocation() {
    // 0xFFFF_FFFF would be a 4 GiB body; the reader must refuse from the
    // prefix alone.
    let mut asm = FrameAssembler::new();
    asm.feed(&[0xFF, 0xFF, 0xFF, 0xFF]);
    match asm.next_frame() {
        Err(WireError::Oversized { len, max }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, MAX_BODY as u64);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert_eq!(asm.peek().len(), 4, "nothing past the prefix is buffered");
}

#[test]
fn header_constants_match_the_design_doc() {
    // DESIGN.md §14 pins these; a drift here is a wire break.
    assert_eq!(VERSION, 1);
    assert_eq!(HEADER_LEN, 12);
    assert_eq!(
        [OP_SUBMIT, OP_ROUTED, OP_RETRY, OP_ERROR, OP_SHUTDOWN],
        [0x01, 0x02, 0x03, 0x04, 0x05]
    );
    assert_eq!(RetryReason::QueueFull.as_u8(), 1);
    assert_eq!(RetryReason::TenantQuota.as_u8(), 2);
    assert_eq!(RetryReason::Draining.as_u8(), 3);
}
