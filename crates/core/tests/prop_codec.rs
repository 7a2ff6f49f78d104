//! Property tests for the wire layer: payload codec round trips and
//! robustness of `Message::decode` against arbitrary (hostile) bytes.

use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId};
use mrts::msg::{Message, MsgDecodeError, MAX_ROUTE_LEN};
use proptest::prelude::*;

fn arb_ptr() -> impl Strategy<Value = MobilePtr> {
    (any::<u16>(), 0u64..(1 << 48)).prop_map(|(h, s)| MobilePtr::new(ObjectId::new(h, s)))
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        arb_ptr(),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..256),
        prop::collection::vec(any::<u16>(), 0..8),
    )
        .prop_map(|(to, h, payload, route)| {
            let mut m = Message::new(to, HandlerId(h), payload);
            m.route = route.into_iter().map(|r| r as NodeId).collect();
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn message_roundtrip(m in arb_message()) {
        let bytes = m.encode();
        // `wire_size` is documented as an upper bound on the encoded
        // length; transfer-time charging and spill budgeting rely on it.
        prop_assert!(bytes.len() <= m.wire_size());
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary input must either decode into something or fail
        // cleanly with a typed MsgDecodeError — never panic or
        // over-allocate wildly.
        let _ = Message::decode(&bytes);
    }

    /// A frame announcing a route longer than [`MAX_ROUTE_LEN`] must be
    /// rejected with the typed cap error — before the decoder loops on the
    /// hostile count — not misreported as a short buffer.
    #[test]
    fn oversized_route_count_is_a_typed_error(
        m in arb_message(),
        n in (MAX_ROUTE_LEN as u32 + 1)..=u32::MAX,
    ) {
        let mut w = PayloadWriter::new();
        w.ptr(m.to).u32(m.handler.0).bytes(&m.payload);
        w.u32(n); // hostile route count, no entries follow
        prop_assert_eq!(
            Message::decode(&w.finish()),
            Err(MsgDecodeError::RouteTooLong(n as usize))
        );
    }

    #[test]
    fn decode_never_panics_on_truncations(m in arb_message(), cut in any::<prop::sample::Index>()) {
        let bytes = m.encode();
        let cut = cut.index(bytes.len() + 1);
        let _ = Message::decode(&bytes[..cut.min(bytes.len())]);
    }

    #[test]
    fn payload_writer_reader_mixed(
        u8s in prop::collection::vec(any::<u8>(), 0..8),
        u32s in prop::collection::vec(any::<u32>(), 0..8),
        f64s in prop::collection::vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), 0..8),
        blob in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut w = PayloadWriter::new();
        for &v in &u8s { w.u8(v); }
        for &v in &u32s { w.u32(v); }
        for &v in &f64s { w.f64(v); }
        w.bytes(&blob);
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        for &v in &u8s { prop_assert_eq!(r.u8().unwrap(), v); }
        for &v in &u32s { prop_assert_eq!(r.u32().unwrap(), v); }
        for &v in &f64s { prop_assert_eq!(r.f64().unwrap(), v); }
        prop_assert_eq!(r.bytes().unwrap(), &blob[..]);
        prop_assert_eq!(r.remaining(), 0);
    }
}
