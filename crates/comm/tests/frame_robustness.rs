//! Seeded fuzz suite for the socket frame protocol: truncated,
//! corrupted, and oversized frames must always yield a clean
//! [`DecodeError`] — never a panic, never an unbounded allocation, and
//! never a hang (the decoder consumes only the bytes it was given).
//!
//! The stream under attack is a valid multi-frame byte sequence; each
//! fuzz case mutates it with a deterministic in-repo RNG so failures
//! reproduce exactly.

use dsk_comm::frame::{
    read_frame, read_frame_into, DecodeError, Frame, FrameKind, Hello, FRAME_HEADER_LEN,
    HELLO_PAYLOAD_LEN, MAX_FRAME_PAYLOAD,
};
use dsk_comm::rendezvous::{self, Roster, MAX_ROSTER_MEMBERS};

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn valid_stream(rng: &mut Rng) -> Vec<u8> {
    let kinds = [
        FrameKind::Data,
        FrameKind::Hello,
        FrameKind::Bye,
        FrameKind::Outcome,
        FrameKind::Error,
    ];
    let mut bytes = Vec::new();
    for _ in 0..1 + rng.below(4) {
        let payload: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
        let f = Frame {
            kind: kinds[rng.below(kinds.len())],
            src: rng.below(16) as u32,
            context: rng.next(),
            tag: rng.below(1024) as u32,
            payload,
        };
        bytes.extend_from_slice(&f.to_bytes());
    }
    bytes
}

/// Drain a byte stream through the frame decoder until it errors or
/// ends; must terminate and never panic. Every stream goes through
/// both readers — fresh buffers ([`read_frame`]) and one buffer
/// recycled from frame to frame the way the socket reader threads do
/// ([`read_frame_into`]), starting out large and dirty — and the two
/// must agree frame for frame and error for error.
fn drain(bytes: &[u8]) -> Result<usize, DecodeError> {
    let (mut fresh, mut pooled) = (bytes, bytes);
    let mut recycled = vec![0xEEu8; 1 << 16];
    let mut n = 0;
    loop {
        let a = read_frame(&mut fresh);
        let b = read_frame_into(&mut pooled, |_| std::mem::take(&mut recycled));
        assert_eq!(a, b, "pooled reader diverged at frame {n}");
        match b? {
            Some(frame) => recycled = frame.payload,
            None => return Ok(n),
        }
        n += 1;
    }
}

#[test]
fn valid_streams_decode_fully() {
    let mut rng = Rng(0xD5C);
    for _ in 0..200 {
        let stream = valid_stream(&mut rng);
        let n = drain(&stream).expect("valid stream must decode");
        assert!(n >= 1);
    }
}

#[test]
fn truncation_at_every_offset_is_a_clean_error() {
    let mut rng = Rng(42);
    for _ in 0..50 {
        let stream = valid_stream(&mut rng);
        for cut in 1..stream.len() {
            match drain(&stream[..cut]) {
                // A cut on a frame boundary decodes a prefix cleanly.
                Ok(_) => {}
                Err(
                    DecodeError::Truncated { .. }
                    | DecodeError::BadMagic(_)
                    | DecodeError::Oversized { .. },
                ) => {}
                Err(e) => panic!("unexpected decode failure at cut {cut}: {e:?}"),
            }
        }
    }
}

#[test]
fn random_byte_corruption_never_panics() {
    let mut rng = Rng(7777);
    for case in 0..500 {
        let mut stream = valid_stream(&mut rng);
        // Flip 1–4 random bytes.
        for _ in 0..1 + rng.below(4) {
            let i = rng.below(stream.len());
            stream[i] ^= (1 + rng.below(255)) as u8;
        }
        // Whatever happened, the decoder returns; panics/hangs fail the
        // test harness itself.
        let _ = drain(&stream);
        let _ = case;
    }
}

#[test]
fn oversized_length_fields_are_rejected_before_allocating() {
    let mut rng = Rng(31337);
    for _ in 0..100 {
        let mut stream = valid_stream(&mut rng);
        // Overwrite the first frame's length field with something huge.
        let huge = (MAX_FRAME_PAYLOAD as u32).saturating_add(1 + rng.below(1 << 20) as u32);
        stream[24..28].copy_from_slice(&huge.to_le_bytes());
        match drain(&stream) {
            Err(DecodeError::Oversized { len }) => {
                assert!(len as usize > MAX_FRAME_PAYLOAD);
            }
            other => panic!("oversized frame must be rejected, got {other:?}"),
        }
    }
}

#[test]
fn garbage_prefix_is_bad_magic() {
    let mut rng = Rng(99);
    for _ in 0..100 {
        let mut garbage: Vec<u8> = (0..FRAME_HEADER_LEN + rng.below(32))
            .map(|_| rng.next() as u8)
            .collect();
        // Ensure the magic really is wrong.
        garbage[0] = 0;
        match drain(&garbage) {
            Err(DecodeError::BadMagic(_)) | Err(DecodeError::Truncated { .. }) => {}
            other => panic!("garbage must not decode, got {other:?}"),
        }
    }
}

/// Rendezvous roster payloads under fuzz: truncation at every offset,
/// random corruption, and absurd member counts must all yield a typed
/// [`DecodeError`] without panicking or allocating unboundedly.
#[test]
fn roster_payload_fuzz_yields_typed_errors() {
    let mut rng = Rng(0x2057E2);
    for _ in 0..200 {
        let members: Vec<u32> = (0..rng.below(12)).map(|_| rng.below(64) as u32).collect();
        let roster = Roster {
            epoch: rng.next(),
            members,
        };
        let good = roster.to_payload();
        assert_eq!(Roster::from_payload(&good).unwrap(), roster);

        // Truncation at every offset is Truncated (or, for a cut that
        // lands before the member list of a shorter count, BadPadding
        // is impossible — the count no longer matches).
        for cut in 0..good.len() {
            assert!(
                Roster::from_payload(&good[..cut]).is_err(),
                "cut {cut} of {} must fail",
                good.len()
            );
        }
        // Trailing garbage is rejected (byte-exact framing).
        let mut long = good.clone();
        for _ in 0..1 + rng.below(8) {
            long.push(rng.next() as u8);
        }
        assert_eq!(
            Roster::from_payload(&long),
            Err(DecodeError::TrailingBytes {
                extra: long.len() - good.len()
            })
        );

        // Random byte flips decode to *something typed* or a different
        // (valid) roster — never a panic, never a giant allocation.
        let mut bent = good.clone();
        if !bent.is_empty() {
            let i = rng.below(bent.len());
            bent[i] ^= (1 + rng.below(255)) as u8;
            let _ = Roster::from_payload(&bent);
        }
    }
    // A count field claiming more members than the hard bound is
    // Oversized, checked before any allocation happens.
    let mut evil = 1u64.to_le_bytes().to_vec();
    evil.extend_from_slice(&((MAX_ROSTER_MEMBERS as u32) + 1).to_le_bytes());
    assert!(matches!(
        Roster::from_payload(&evil),
        Err(DecodeError::Oversized { .. })
    ));
}

/// Hello payloads (the 20-byte rendezvous handshake record) reject
/// every wrong length — including a short record without the protocol
/// version — and survive byte corruption with typed errors only.
#[test]
fn hello_payload_fuzz_yields_typed_errors() {
    let mut rng = Rng(0xBEEF_E110);
    let good = rendezvous::local_hello(3, 8, 5).to_payload();
    assert_eq!(good.len(), HELLO_PAYLOAD_LEN);

    // Every truncation fails typed — notably the 16 identity bytes
    // without the protocol version must not decode as a valid Hello.
    for cut in 0..good.len() {
        assert!(
            matches!(
                Hello::from_payload(&good[..cut]),
                Err(DecodeError::Truncated { .. })
            ),
            "short Hello of {cut} bytes must be Truncated"
        );
    }
    // Oversize (trailing bytes) fails the exact-length check too.
    let mut long = good.clone();
    long.push(0);
    assert_eq!(
        Hello::from_payload(&long),
        Err(DecodeError::TrailingBytes { extra: 1 })
    );

    // Corrupted-but-well-sized Hellos decode structurally (the payload
    // is fixed-width) — the *semantic* gate is validate_peer, which
    // must answer every such frame with a typed HandshakeError or Ok,
    // never a panic.
    for _ in 0..300 {
        let mut bent = good.clone();
        for _ in 0..1 + rng.below(6) {
            let i = rng.below(bent.len());
            bent[i] ^= (1 + rng.below(255)) as u8;
        }
        // Every well-sized payload decodes (each field takes any
        // value); the decoded Hello must survive the semantic gate.
        if let Ok(h) = Hello::from_payload(&bent) {
            let _ = rendezvous::validate_peer(&h);
        }
    }
}

/// A replayed Hello from a stale epoch decodes fine (framing is not the
/// epoch gate) but carries the wrong epoch — the field the launcher's
/// validation rejects. This pins the division of labor: framing errors
/// are typed `DecodeError`s, stale-epoch replays are caught by the
/// epoch field surviving the roundtrip intact.
#[test]
fn replayed_epoch_hello_roundtrips_with_its_stale_epoch() {
    let stale = rendezvous::local_hello(2, 4, 3);
    let replay = Hello::from_payload(&stale.to_payload()).unwrap();
    assert_eq!(replay.epoch, 3);
    assert_eq!(rendezvous::validate_peer(&replay), Ok(()));
    // The launcher-side epoch check (validate_hello) is exercised
    // end-to-end by the socket_world suite; here we pin that a replay
    // cannot masquerade as the current epoch at the framing layer.
    let current_epoch = 9u64;
    assert_ne!(replay.epoch, current_epoch);
}

#[test]
fn header_field_corruption_maps_to_typed_errors() {
    let f = Frame::data(3, 0x1234, 9, vec![1, 2, 3]);
    // Bad kind.
    let mut b = f.to_bytes();
    b[4] = 250;
    assert!(matches!(drain(&b), Err(DecodeError::BadKind(250))));
    // Bad padding.
    let mut b = f.to_bytes();
    b[6] = 1;
    assert!(matches!(drain(&b), Err(DecodeError::BadPadding(_))));
}
