//! Property tests for the record/replay codecs — the decision log and
//! the replay artifact around it: round trips, byte-cap truncation,
//! cut-anywhere truncation tolerance, and robustness of the strict
//! decoders against arbitrary (hostile) bytes.

use mrts::replay::{
    CanonicalStream, Decision, DecisionLog, IoKind, ReplayArtifact, ReplayDecodeError,
    DEFAULT_LOG_BYTE_CAP,
};
use proptest::prelude::*;

fn arb_decision() -> impl Strategy<Value = Decision> {
    (
        0u8..7,
        any::<u8>(),
        any::<u16>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(variant, kind, node, tag, word)| match variant {
            0 => Decision::FabricRecv { src: node, tag },
            1 => Decision::FabricEmpty,
            2 => Decision::IoDone {
                // The five live wire tags (0 and 4 are retired).
                kind: IoKind::from_u8([1, 2, 3, 5, 6][kind as usize % 5])
                    .expect("every live kind is encodable"),
                oid: word,
            },
            3 => Decision::IoEmpty,
            4 => Decision::FlushDeferred {
                dest: node,
                seq: word,
            },
            5 => Decision::TimerExpire {
                dest: node,
                seq: word,
            },
            _ => Decision::PumpEnd,
        })
}

fn arb_log() -> impl Strategy<Value = DecisionLog> {
    prop::collection::vec(prop::collection::vec(arb_decision(), 0..64), 0..5)
        .prop_map(|nodes| DecisionLog { nodes })
}

/// Any text, multi-byte characters included (an audit lane is `Debug`
/// text).
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

fn arb_artifact() -> impl Strategy<Value = ReplayArtifact> {
    let lane = || prop::collection::vec(arb_text(), 0..6);
    (
        arb_text(),
        any::<u64>(),
        arb_log(),
        prop::collection::vec(lane(), 0..4),
    )
        .prop_map(|(harness, seed, decisions, nodes)| ReplayArtifact {
            harness,
            seed,
            decisions,
            recorded: CanonicalStream { nodes },
        })
}

fn is_prefix_of(shorter: &DecisionLog, longer: &DecisionLog) -> bool {
    shorter.nodes.len() <= longer.nodes.len()
        && shorter
            .nodes
            .iter()
            .zip(&longer.nodes)
            .all(|(s, l)| s.len() <= l.len() && s[..] == l[..s.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decision_log_roundtrips(log in arb_log()) {
        let (bytes, truncated) = log.encode(DEFAULT_LOG_BYTE_CAP);
        prop_assert!(!truncated, "default cap must fit a small log");
        let back = DecisionLog::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, log);
    }

    /// A byte cap never produces an undecodable log: whole tail
    /// decisions are dropped, so what remains is a valid per-node
    /// prefix of the original.
    #[test]
    fn byte_cap_yields_a_decodable_prefix(log in arb_log(), cap in 16usize..256) {
        let (bytes, truncated) = log.encode(cap);
        let back = DecisionLog::decode(&bytes).expect("capped encoding decodes");
        prop_assert!(is_prefix_of(&back, &log));
        if !truncated {
            prop_assert_eq!(back, log);
        }
    }

    /// A valid encoding cut anywhere short of its end is a typed error —
    /// never a panic, and never a shorter log.
    #[test]
    fn truncated_log_is_a_typed_error(log in arb_log(), cut_frac in 0.0f64..1.0) {
        let (bytes, _) = log.encode(DEFAULT_LOG_BYTE_CAP);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(DecisionLog::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn artifact_roundtrips(art in arb_artifact()) {
        let bytes = art.encode(DEFAULT_LOG_BYTE_CAP);
        let back = ReplayArtifact::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, art);
    }

    /// Every field is counted or length-prefixed, so an artifact cut
    /// anywhere short of its end is a typed error — never a panic, and
    /// never a shorter artifact.
    #[test]
    fn truncated_artifact_is_a_typed_error(art in arb_artifact(), cut_frac in 0.0f64..1.0) {
        let bytes = art.encode(DEFAULT_LOG_BYTE_CAP);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        prop_assert!(ReplayArtifact::decode(&bytes[..cut]).is_err());
    }

    /// The strict decoders are total over arbitrary bytes: a typed error
    /// or a valid value, never a panic.
    #[test]
    fn hostile_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = DecisionLog::decode(&bytes);
        let _ = ReplayArtifact::decode(&bytes);
        // The same noise as the canonical stream of an artifact whose
        // header, harness, seed and log are valid: an empty stream
        // encodes as its one count byte, which the noise replaces.
        let empty = ReplayArtifact {
            harness: "h".into(),
            seed: 0,
            decisions: DecisionLog::new(1),
            recorded: CanonicalStream::default(),
        };
        let mut framed = empty.encode(DEFAULT_LOG_BYTE_CAP);
        framed.pop();
        framed.extend_from_slice(&bytes);
        let _ = ReplayArtifact::decode(&framed);
        // The same noise behind a version-2 header (a node's lanes split
        // in two) is refused by version, before the noise is read.
        let mut v2 = framed;
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        prop_assert_eq!(ReplayArtifact::decode(&v2), Err(ReplayDecodeError::BadVersion(2)));
    }
}
