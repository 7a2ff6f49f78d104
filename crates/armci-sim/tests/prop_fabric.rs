//! Property tests for the simulated fabric: per-pair message ordering and
//! payload integrity under arbitrary operation sequences.

use armci_sim::{Fabric, NetworkModel};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn payloads_arrive_intact_and_in_order(
        msgs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..40)
    ) {
        let mut eps = Fabric::new(2, NetworkModel::instant());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for (i, m) in msgs.iter().enumerate() {
            a.am_send(1, i as u32, m.clone());
        }
        for (i, m) in msgs.iter().enumerate() {
            let got = b.recv_timeout(Duration::from_secs(1)).expect("message lost");
            prop_assert_eq!(got.handler, i as u32, "order violated");
            prop_assert_eq!(&got.payload, m);
            prop_assert_eq!(got.src, 0);
        }
        prop_assert!(b.try_recv().is_none());
    }

    #[test]
    fn interleaved_senders_preserve_per_pair_order(
        n_a in 1usize..30, n_b in 1usize..30
    ) {
        let mut eps = Fabric::new(3, NetworkModel::instant());
        let mut c = eps.pop().unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // Interleave sends from two sources.
        for i in 0..n_a.max(n_b) {
            if i < n_a {
                a.am_send(2, i as u32, vec![0]);
            }
            if i < n_b {
                b.am_send(2, i as u32, vec![1]);
            }
        }
        let mut last_a = None;
        let mut last_b = None;
        for _ in 0..n_a + n_b {
            let m = c.recv_timeout(Duration::from_secs(1)).expect("lost");
            let last = if m.payload[0] == 0 { &mut last_a } else { &mut last_b };
            if let Some(prev) = *last {
                prop_assert!(m.handler > prev, "per-pair order violated");
            }
            *last = Some(m.handler);
        }
    }
}
