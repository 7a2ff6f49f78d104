//! The reliable-delivery and termination protocol core, extracted from
//! the threaded engine as pure state machines.
//!
//! [`ReliableSender`], [`ReliableReceiver`] and [`Safra`] hold *all* of
//! the protocol-visible state of the ack/retransmit/dedup layer and of
//! Safra's termination ring, and [`Safra::on_idle`] makes the ring's one
//! decision; `threaded.rs` owns only the physical concerns wrapped around
//! them (fault injection, backoff timers, deferred transmissions, the
//! sends themselves). The types are plain data (BTree containers, no
//! clocks), so `tests/relnet_explore.rs` clones, hashes and compares them
//! to enumerate every delivery order, drop and duplicate of a small
//! 3-node run and checks:
//!
//! * exactly-once, per-edge-FIFO release under duplication + reordering;
//! * retransmit give-up restoring the global Safra sum *before* the
//!   ring can observe quiescence;
//! * termination declared only once every message is released or
//!   cancelled.
//!
//! Invariant the two sides maintain together: at any instant,
//! `sum over nodes of Safra.counter == logical sends not yet released
//! and not cancelled`; termination is declared only when a whole white
//! probe round sums to zero.

use crate::ids::NodeId;
use std::collections::BTreeMap;

/// Sender half of the reliable edge: per-destination sequence numbers
/// plus the unacknowledged-frame buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReliableSender {
    send_seq: BTreeMap<NodeId, u64>,
    unacked: BTreeMap<(NodeId, u64), Pending>,
}

/// One logical message awaiting acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Pending {
    pub tag: u32,
    /// Full frame including the 8-byte little-endian sequence prefix,
    /// ready to resend byte-identically.
    pub frame: Vec<u8>,
    /// Retransmissions so far (the initial transmission is attempt 0).
    pub attempts: u32,
}

/// What a due retransmission timer should do, decided by
/// [`ReliableSender::on_timer`].
#[derive(Debug)]
pub enum TimerAction {
    /// Already acknowledged (or cancelled) — nothing to do.
    Acked,
    /// Resend this frame; `attempt` is the new attempt ordinal.
    Retransmit {
        tag: u32,
        frame: Vec<u8>,
        attempt: u32,
    },
    /// The retry budget is exhausted: the logical send is cancelled and
    /// the caller must escalate (restore the Safra sum, re-route or
    /// declare the peer unreachable).
    GiveUp {
        tag: u32,
        frame: Vec<u8>,
        attempts: u32,
    },
}

impl ReliableSender {
    pub fn new() -> ReliableSender {
        ReliableSender::default()
    }

    /// Assign the next sequence number on the `self → dest` edge and
    /// buffer the frame for retransmission. Returns `(seq, frame)`;
    /// the caller transmits the frame (possibly through a fault plan).
    pub fn next_frame(&mut self, dest: NodeId, tag: u32, payload: &[u8]) -> (u64, Vec<u8>) {
        let s = self.send_seq.entry(dest).or_insert(0);
        let seq = *s;
        *s += 1;
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(payload);
        self.unacked.insert(
            (dest, seq),
            Pending {
                tag,
                frame: frame.clone(),
                attempts: 0,
            },
        );
        (seq, frame)
    }

    /// An ack arrived for `(dest, seq)`. Returns whether the frame was
    /// still outstanding (duplicate acks return `false`).
    pub fn on_ack(&mut self, dest: NodeId, seq: u64) -> bool {
        self.unacked.remove(&(dest, seq)).is_some()
    }

    /// A retransmission timer fired for `(dest, seq)`. Bumps the attempt
    /// count and decides between resending and giving up; on
    /// [`TimerAction::GiveUp`] the frame is dropped from the buffer.
    pub fn on_timer(&mut self, dest: NodeId, seq: u64, limit: u32) -> TimerAction {
        let Some(p) = self.unacked.get_mut(&(dest, seq)) else {
            return TimerAction::Acked;
        };
        p.attempts += 1;
        if p.attempts > limit {
            let p = self
                .unacked
                .remove(&(dest, seq))
                .expect("entry fetched above");
            TimerAction::GiveUp {
                tag: p.tag,
                frame: p.frame,
                attempts: p.attempts,
            }
        } else {
            TimerAction::Retransmit {
                tag: p.tag,
                frame: p.frame.clone(),
                attempt: p.attempts,
            }
        }
    }

    /// Outstanding logical messages.
    pub fn outstanding(&self) -> usize {
        self.unacked.len()
    }
}

/// Receiver half: duplicate suppression plus in-order (per-source)
/// release. Frames are *held* above the release watermark so handler
/// execution is exactly-once and FIFO per edge no matter how the fabric
/// duplicated or reordered the physical transmissions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReliableReceiver {
    /// Next sequence number to release, per source.
    expected: BTreeMap<NodeId, u64>,
    /// Received frames above the watermark, held for in-order release.
    held: BTreeMap<NodeId, BTreeMap<u64, (u32, Vec<u8>)>>,
}

impl ReliableReceiver {
    pub fn new() -> ReliableReceiver {
        ReliableReceiver::default()
    }

    /// A frame arrived. Returns `false` for a duplicate (already
    /// released or already held — the caller still acks it, because the
    /// previous ack may have raced the sender's retransmit timer), or
    /// `true` if the frame is now held for release.
    pub fn accept(&mut self, src: NodeId, seq: u64, tag: u32, payload: Vec<u8>) -> bool {
        let exp = self.expected.get(&src).copied().unwrap_or(0);
        if seq < exp || self.held.get(&src).is_some_and(|h| h.contains_key(&seq)) {
            return false;
        }
        self.held
            .entry(src)
            .or_default()
            .insert(seq, (tag, payload));
        true
    }

    /// Pop the next consecutive frame from the watermark up, if present.
    /// Call in a loop: each return is one logical message, in per-source
    /// sequence order, exactly once.
    pub fn next_release(&mut self, src: NodeId) -> Option<(u32, Vec<u8>)> {
        let exp = self.expected.entry(src).or_insert(0);
        let f = self.held.get_mut(&src)?.remove(exp)?;
        *exp += 1;
        Some(f)
    }

    /// Frames held out-of-order (diagnostics).
    pub fn held_frames(&self) -> usize {
        self.held.values().map(|h| h.len()).sum()
    }
}

/// Safra's termination-detection state for one node.
///
/// Nodes count logical sends (+1) and deliveries (−1); delivering or
/// cancelling a message also blackens the node. Node 0 circulates a
/// token summing the counters; a probe that comes back white to a
/// white, idle node 0 with `token_q + counter == 0` proves no message
/// is in flight anywhere. Cancelling an undeliverable message
/// ([`Safra::on_cancel`]) subtracts the send exactly like a delivery
/// would — and blackens the node, so the probe round that overlapped
/// the cancellation can never report clean.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Safra {
    pub counter: i64,
    pub color_black: bool,
    pub has_token: bool,
    pub token_black: bool,
    pub token_q: i64,
    pub initiated: bool,
}

/// What an idle node does on the ring, decided by [`Safra::on_idle`].
/// The caller sends the token or broadcasts the exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingStep {
    /// Nothing to do: the token is elsewhere.
    Wait,
    /// Send the token `(black, q)` to ring successor `to`.
    Pass { to: NodeId, black: bool, q: i64 },
    /// Node 0 holds a clean probe (or there are no peers): the
    /// computation is quiescent.
    Terminate,
}

impl Safra {
    pub fn new() -> Safra {
        Safra::default()
    }

    /// A logical data message was sent to a peer.
    pub fn on_send(&mut self) {
        self.counter += 1;
    }

    /// A logical data message was delivered (released to its handler).
    pub fn on_deliver(&mut self) {
        self.counter -= 1;
        self.color_black = true;
    }

    /// A logical send was cancelled (retransmit give-up). Restores the
    /// global sum the send incremented and blackens the node: the
    /// in-flight probe round must not be trusted.
    pub fn on_cancel(&mut self) {
        self.counter -= 1;
        self.color_black = true;
    }

    /// The ring token arrived carrying `(black, q)`.
    pub fn on_token(&mut self, black: bool, q: i64) {
        self.has_token = true;
        self.token_black = black;
        self.token_q = q;
    }

    /// The ring step of an idle `node` out of `n_nodes` (the caller
    /// checks idleness). Node 0 starts a probe, or judges the returned
    /// one: clean means terminate, dirty means start another. Every
    /// other node holding the token forwards it.
    pub fn on_idle(&mut self, node: NodeId, n_nodes: usize) -> RingStep {
        if n_nodes == 1 {
            return RingStep::Terminate;
        }
        if node != 0 {
            if !self.has_token {
                return RingStep::Wait;
            }
            let (black, q) = self.forward_token();
            let to = ((node as usize + 1) % n_nodes) as NodeId;
            return RingStep::Pass { to, black, q };
        }
        if self.initiated {
            if !self.has_token {
                return RingStep::Wait;
            }
            self.has_token = false;
            if self.probe_clean() {
                return RingStep::Terminate;
            }
        }
        self.start_probe();
        RingStep::Pass {
            to: 1,
            black: false,
            q: 0,
        }
    }

    /// Node 0, holding a returned probe: does it prove global
    /// quiescence? (The caller must separately be idle.)
    fn probe_clean(&self) -> bool {
        !self.token_black && !self.color_black && self.token_q + self.counter == 0
    }

    /// An intermediate idle node forwards the token: consume it, fold in
    /// this node's color and counter, whiten, and return `(black, q)`
    /// for the next hop.
    fn forward_token(&mut self) -> (bool, i64) {
        self.has_token = false;
        let black = self.token_black || self.color_black;
        let q = self.token_q + self.counter;
        self.color_black = false;
        (black, q)
    }

    /// Node 0 starts (or restarts) a probe round: consume any held
    /// token and whiten. The caller sends the fresh token, white with
    /// `q = 0`.
    fn start_probe(&mut self) {
        self.initiated = true;
        self.has_token = false;
        self.color_black = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_assigns_per_edge_sequences() {
        let mut s = ReliableSender::new();
        let (a0, f) = s.next_frame(1, 7, b"x");
        let (a1, _) = s.next_frame(1, 7, b"y");
        let (b0, _) = s.next_frame(2, 7, b"z");
        assert_eq!((a0, a1, b0), (0, 1, 0));
        assert_eq!(&f[..8], &0u64.to_le_bytes());
        assert_eq!(&f[8..], b"x");
        assert_eq!(s.outstanding(), 3);
        assert!(s.on_ack(1, 0));
        assert!(!s.on_ack(1, 0), "duplicate ack is a no-op");
        assert_eq!(s.outstanding(), 2);
    }

    #[test]
    fn timer_retransmits_then_gives_up() {
        let mut s = ReliableSender::new();
        let (seq, frame) = s.next_frame(1, 7, b"m");
        for attempt in 1..=2u32 {
            match s.on_timer(1, seq, 2) {
                TimerAction::Retransmit {
                    frame: f,
                    attempt: a,
                    ..
                } => {
                    assert_eq!(f, frame);
                    assert_eq!(a, attempt);
                }
                other => panic!("expected retransmit, got {other:?}"),
            }
        }
        match s.on_timer(1, seq, 2) {
            TimerAction::GiveUp { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected give-up, got {other:?}"),
        }
        assert_eq!(s.outstanding(), 0);
        assert!(matches!(s.on_timer(1, seq, 2), TimerAction::Acked));
    }

    #[test]
    fn receiver_is_exactly_once_and_fifo_under_dup_and_reorder() {
        let mut r = ReliableReceiver::new();
        // Arrivals: 1, 1 (dup), 0, 2, 0 (dup after release).
        assert!(r.accept(3, 1, 7, vec![1]));
        assert!(!r.accept(3, 1, 7, vec![1]), "held duplicate suppressed");
        assert!(r.next_release(3).is_none(), "gap: nothing to release");
        assert!(r.accept(3, 0, 7, vec![0]));
        let mut out = Vec::new();
        while let Some((_, p)) = r.next_release(3) {
            out.push(p[0]);
        }
        assert_eq!(out, vec![0, 1]);
        assert!(r.accept(3, 2, 7, vec![2]));
        assert!(!r.accept(3, 0, 7, vec![0]), "released duplicate suppressed");
        assert_eq!(r.next_release(3).map(|(_, p)| p[0]), Some(2));
        assert_eq!(r.held_frames(), 0);
    }

    #[test]
    fn safra_cancel_restores_sum_and_blackens() {
        let mut a = Safra::new();
        let mut b = Safra::new();
        a.on_send();
        assert_eq!(a.counter + b.counter, 1, "one message in flight");
        // The message is lost; the sender gives up.
        a.on_cancel();
        assert_eq!(a.counter + b.counter, 0, "sum restored");
        assert!(a.color_black, "cancel taints the current probe round");
        // A probe round after the cancel: a is whitened by starting it,
        // and the round comes back clean.
        let RingStep::Pass { to: 1, black, q } = a.on_idle(0, 2) else {
            panic!("node 0 starts a probe");
        };
        assert_eq!(b.on_idle(1, 2), RingStep::Wait, "no token yet");
        b.on_token(black, q);
        let RingStep::Pass { to: 0, black, q } = b.on_idle(1, 2) else {
            panic!("node 1 forwards the token home");
        };
        a.on_token(black, q);
        assert_eq!(a.on_idle(0, 2), RingStep::Terminate);
    }
}
