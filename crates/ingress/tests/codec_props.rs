//! Codec robustness: proptest round-trips over every message type plus
//! adversarial decodes. The invariant under attack: **no byte sequence a
//! peer can send makes the codec panic, allocate unboundedly, or emit a
//! wrong message** — malformed input always surfaces as a typed
//! [`ProtoError`].

use bytes::{Buf, BytesMut};
use gestures::{Gesture, ALL_GESTURES, NUM_GESTURES};
use ingress::codec::{
    encode_busy, encode_bye, encode_decision, encode_error, encode_frame, encode_goodbye,
    encode_hello, encode_welcome, DecisionMsg, Decoded, Decoder, ErrorCode, FrameMsg, ProtoError,
    DECISION_LEN, KIND_FRAME, MAX_BODY, WIRE_VERSION,
};
use ingress::loadgen::synthetic_sample_into;
use kinematics::KinematicSample;
use proptest::prelude::*;

/// Everything the protocol can say, in owned form for equality checks.
#[derive(Debug, Clone, PartialEq)]
enum Msg {
    Hello { wants_context: bool },
    Frame { seq: u32, context: Option<Gesture>, sample: KinematicSample },
    Goodbye,
    Welcome { session: u64 },
    Busy { active: u32, cap: u32 },
    Decision(DecisionMsg),
    Error { code: ErrorCode },
    Bye { delivered: u64 },
}

fn encode(msg: &Msg, out: &mut BytesMut) {
    match msg {
        Msg::Hello { wants_context } => encode_hello(out, *wants_context),
        Msg::Frame { seq, context, sample } => encode_frame(out, *seq, *context, sample),
        Msg::Goodbye => encode_goodbye(out),
        Msg::Welcome { session } => encode_welcome(out, *session),
        Msg::Busy { active, cap } => encode_busy(out, *active, *cap),
        Msg::Decision(d) => encode_decision(out, d),
        Msg::Error { code } => encode_error(out, *code),
        Msg::Bye { delivered } => encode_bye(out, *delivered),
    }
}

/// Derives one arbitrary message from a seed — cheaper than a dedicated
/// Strategy per variant and just as thorough under proptest's seed
/// exploration.
fn arb_msg(seed: u64) -> Msg {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 11
    };
    match next() % 8 {
        0 => Msg::Hello { wants_context: next() % 2 == 0 },
        1 => {
            let nmanip = (next() % 4) as usize; // 0..=3 manipulators
            let context = if next() % 2 == 0 {
                None
            } else {
                Gesture::from_index((next() as usize) % NUM_GESTURES)
            };
            let mut sample = KinematicSample::default();
            synthetic_sample_into(next(), next(), nmanip, &mut sample);
            Msg::Frame { seq: next() as u32, context, sample }
        }
        2 => Msg::Goodbye,
        3 => Msg::Welcome { session: next() },
        4 => Msg::Busy { active: next() as u32, cap: next() as u32 },
        5 => Msg::Decision(DecisionMsg {
            seq: next() as u32,
            warm: next() % 2 == 0,
            alert: next() % 2 == 0,
            gesture: (next() % NUM_GESTURES as u64) as u8,
            score_bits: next() as u32,
            compute_ms_bits: next() as u32,
        }),
        6 => Msg::Error {
            code: ErrorCode::from_u8((next() % 8 + 1) as u8).expect("codes 1..=8 all decode"),
        },
        _ => Msg::Bye { delivered: next() },
    }
}

fn decode_one(dec: &mut Decoder, frame: &mut FrameMsg) -> Option<Msg> {
    match dec.decode_next(frame).expect("well-formed bytes must decode") {
        None => None,
        Some(Decoded::Hello { wants_context }) => Some(Msg::Hello { wants_context }),
        Some(Decoded::Frame) => Some(Msg::Frame {
            seq: frame.seq,
            context: frame.context,
            sample: frame.sample.clone(),
        }),
        Some(Decoded::Goodbye) => Some(Msg::Goodbye),
        Some(Decoded::Welcome { session }) => Some(Msg::Welcome { session }),
        Some(Decoded::Busy { active, cap }) => Some(Msg::Busy { active, cap }),
        Some(Decoded::Decision(d)) => Some(Msg::Decision(d)),
        Some(Decoded::Error { code }) => Some(Msg::Error { code }),
        Some(Decoded::Bye { delivered }) => Some(Msg::Bye { delivered }),
    }
}

proptest! {
    /// Round trip over all message types, with the byte stream re-chunked
    /// at an arbitrary granularity: any split of the stream across reads
    /// reassembles into exactly the encoded message sequence.
    #[test]
    fn round_trips_across_arbitrary_read_boundaries(
        seed in 0u64..1_000_000,
        count in 1usize..8,
        chunk in 1usize..64,
    ) {
        let msgs: Vec<Msg> = (0..count).map(|i| arb_msg(seed.wrapping_add(i as u64 * 7919))).collect();
        let mut wire = BytesMut::new();
        for m in &msgs {
            encode(m, &mut wire);
        }

        let mut dec = Decoder::new();
        let mut frame = FrameMsg::default();
        let mut got = Vec::new();
        for piece in wire.chunk().chunks(chunk) {
            dec.extend(piece);
            loop {
                // `has_message` announces exactly the decodes that succeed.
                let announced = dec.has_message();
                let Some(m) = decode_one(&mut dec, &mut frame) else {
                    prop_assert!(!announced);
                    break;
                };
                prop_assert!(announced);
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Frame samples survive the wire **bit-exactly**: every f32 keeps its
    /// bit pattern (the property the e2e socket-vs-in-process equality
    /// stands on).
    #[test]
    fn frame_floats_are_bit_preserved(seed in 0u64..1_000_000, nmanip in 1usize..5) {
        let mut sample = KinematicSample::default();
        synthetic_sample_into(seed, seed ^ 0xABCD, nmanip, &mut sample);
        let mut wire = BytesMut::new();
        encode_frame(&mut wire, 7, None, &sample);

        let mut dec = Decoder::new();
        let mut frame = FrameMsg::default();
        dec.extend(wire.chunk());
        prop_assert_eq!(dec.decode_next(&mut frame), Ok(Some(Decoded::Frame)));
        let sent = sample.to_vec();
        let got = frame.sample.to_vec();
        prop_assert_eq!(sent.len(), got.len());
        for (a, b) in sent.iter().zip(got.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Truncating a well-formed message anywhere *strictly inside* it
    /// never yields a message (and never errors — the decoder just waits
    /// for the rest).
    #[test]
    fn truncated_messages_decode_to_none(seed in 0u64..1_000_000, cut_frac in 0u32..1000) {
        let msg = arb_msg(seed);
        let mut wire = BytesMut::new();
        encode(&msg, &mut wire);
        let total = wire.len();
        let cut = (total - 1) * cut_frac as usize / 1000;

        let mut dec = Decoder::new();
        let mut frame = FrameMsg::default();
        dec.extend(&wire.chunk()[..cut]);
        prop_assert!(!dec.has_message());
        prop_assert_eq!(dec.decode_next(&mut frame), Ok(None));
        // The remainder completes it.
        dec.extend(&wire.chunk()[cut..]);
        prop_assert!(dec.has_message());
        prop_assert!(matches!(dec.decode_next(&mut frame), Ok(Some(_))));
    }

    /// A garbage version byte is rejected on every message kind.
    #[test]
    fn garbage_version_byte_rejected(seed in 0u64..1_000_000, raw_version in 0u16..256) {
        let version = if raw_version as u8 == WIRE_VERSION { WIRE_VERSION + 1 } else { raw_version as u8 };
        let msg = arb_msg(seed);
        let mut wire = BytesMut::new();
        encode(&msg, &mut wire);
        let mut bytes = wire.chunk().to_vec();
        bytes[4] = version; // byte 4 = first body byte = version
        let mut dec = Decoder::new();
        let mut frame = FrameMsg::default();
        dec.extend(&bytes);
        prop_assert_eq!(
            dec.decode_next(&mut frame),
            Err(ProtoError::BadVersion { got: version })
        );
    }

    /// Flipping body bytes of a FRAME never panics: every outcome is a
    /// clean decode or a typed error.
    #[test]
    fn mutated_frame_bodies_never_panic(
        seed in 0u64..1_000_000,
        victim in 0usize..100,
        raw_value in 0u16..256,
    ) {
        let mut sample = KinematicSample::default();
        synthetic_sample_into(seed, 3, 2, &mut sample);
        let mut wire = BytesMut::new();
        encode_frame(&mut wire, 1, Some(ALL_GESTURES[seed as usize % NUM_GESTURES]), &sample);
        let mut bytes = wire.chunk().to_vec();
        let idx = 4 + victim % (bytes.len() - 4); // keep the length prefix honest
        bytes[idx] = raw_value as u8;

        let mut dec = Decoder::new();
        let mut frame = FrameMsg::default();
        dec.extend(&bytes);
        let _ = dec.decode_next(&mut frame); // must return, not panic
    }
}

#[test]
fn oversized_length_prefix_rejected_before_any_buffering() {
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    // Claim a 512 MiB body; send only the prefix.
    let declared = 512usize * 1024 * 1024;
    dec.extend(&(declared as u32).to_le_bytes());
    assert!(dec.has_message(), "the rejection is ready without the body");
    assert_eq!(dec.decode_next(&mut frame), Err(ProtoError::Oversized { declared }));
    // Nothing was buffered beyond the 4 prefix bytes — the attack never
    // drove an allocation.
    assert!(dec.pending() <= 4, "oversized prefix must not grow the buffer");
    assert!(declared > MAX_BODY);
}

#[test]
fn decision_is_decision_len_bytes() {
    let mut wire = BytesMut::new();
    encode_decision(&mut wire, &DecisionMsg::from_decision(9, None));
    assert_eq!(wire.len(), DECISION_LEN);
}

#[test]
fn unknown_kind_byte_rejected() {
    let mut wire = BytesMut::new();
    wire.extend_from_slice(&3u32.to_le_bytes());
    wire.extend_from_slice(&[WIRE_VERSION, 0x7E, 0x00]);
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    dec.extend(wire.chunk());
    assert_eq!(dec.decode_next(&mut frame), Err(ProtoError::BadKind { got: 0x7E }));
}

#[test]
fn frame_with_invalid_gesture_byte_rejected() {
    // FRAME with context byte 0x20 (no such gesture; 0xFF would mean none).
    let body = [WIRE_VERSION, KIND_FRAME, 0, 0, 0, 0, 0x20, 0];
    let mut wire = BytesMut::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    dec.extend(wire.chunk());
    assert_eq!(dec.decode_next(&mut frame), Err(ProtoError::BadGesture { got: 0x20 }));
}

#[test]
fn frame_with_non_finite_float_rejected() {
    // NaN, +inf and -inf in each variable of a two-manipulator FRAME.
    let mut sample = KinematicSample::default();
    synthetic_sample_into(5, 9, 2, &mut sample);
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for at in 0..sample.to_vec().len() {
            let mut vars = sample.to_vec();
            vars[at] = bad;
            let mut wire = BytesMut::new();
            encode_frame(&mut wire, 1, None, &KinematicSample::from_slice(&vars, 2));
            let mut dec = Decoder::new();
            let mut frame = FrameMsg::default();
            dec.extend(wire.chunk());
            let got = dec.decode_next(&mut frame);
            assert_eq!(got, Err(ProtoError::NonFinite), "{bad} in variable {at}");
        }
    }
    assert_eq!(ErrorCode::from(ProtoError::NonFinite), ErrorCode::Malformed);
}

#[test]
fn frame_with_lying_manipulator_count_rejected() {
    // Declares 3 manipulators but carries bytes for none.
    let body = [WIRE_VERSION, KIND_FRAME, 0, 0, 0, 0, 0xFF, 3];
    let mut wire = BytesMut::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    dec.extend(wire.chunk());
    assert_eq!(dec.decode_next(&mut frame), Err(ProtoError::Truncated));
}

#[test]
fn trailing_bytes_after_payload_rejected() {
    // GOODBYE with one stray payload byte.
    let body = [WIRE_VERSION, 0x03, 0xAA];
    let mut wire = BytesMut::new();
    wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wire.extend_from_slice(&body);
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    dec.extend(wire.chunk());
    assert_eq!(dec.decode_next(&mut frame), Err(ProtoError::TrailingBytes));
}

/// Steady-state decode is allocation-free: a warm decoder fed whole
/// frames one at a time keeps reusing the same scratch (observable as
/// the FrameMsg manipulator capacity staying put).
#[test]
fn warm_decode_reuses_frame_capacity() {
    let mut sample = KinematicSample::default();
    synthetic_sample_into(99, 0, 2, &mut sample);
    let mut dec = Decoder::new();
    let mut frame = FrameMsg::default();
    let mut wire = BytesMut::new();
    let mut warm_capacity = 0;
    for seq in 0..100u32 {
        encode_frame(&mut wire, seq, None, &sample);
        dec.extend(wire.chunk());
        wire.clear();
        assert_eq!(dec.decode_next(&mut frame), Ok(Some(Decoded::Frame)));
        assert_eq!(frame.seq, seq);
        if seq == 0 {
            warm_capacity = frame.sample.manipulators.capacity();
        } else {
            assert_eq!(
                frame.sample.manipulators.capacity(),
                warm_capacity,
                "decode scratch reallocated after warm-up (frame {seq})"
            );
        }
    }
}
