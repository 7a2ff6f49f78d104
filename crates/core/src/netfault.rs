//! Network fault injection: deterministic, seed-scheduled message faults
//! for both MRTS engines.
//!
//! [`crate::fault`] made *storage* failures a first-class, reproducible
//! part of the runtime; this module does the same for the *fabric*. A
//! [`NetFaultPlan`] describes a deterministic schedule of message drops,
//! duplications, reorders and delays (optionally restricted to one
//! directed edge, optionally with a transient partition window, optionally
//! killing a node outright mid-run). The threaded engine applies it to
//! every physical transmission of its reliable-delivery layer (sequence
//! numbers + positive acks + bounded-exponential retransmit, see
//! `DESIGN.md` §11); the DES models the same faults on its virtual
//! channels by perturbing delivery times and charging retransmits.
//!
//! Determinism contract (same as the storage plan): every decision is a
//! pure function of `(seed, edge, sequence number, attempt)` — never of
//! wall-clock time or thread interleaving. Re-running a plan injects the
//! identical fault sequence.
//!
//! **Bounded-drop guarantee.** A physical transmission is only ever
//! dropped while `attempt < max_drops_per_msg`; from that attempt on the
//! plan lets the message through. A *live* destination therefore always
//! acknowledges within `max_drops_per_msg + 1` transmissions, which makes
//! retransmit exhaustion a reliable dead-node / stale-hint signal rather
//! than bad luck: the engines escalate (invalidate the directory hint,
//! re-route to home, finally declare the node unreachable) only when the
//! peer really is gone.

use crate::audit::mix64;
use crate::ids::NodeId;
use std::time::Duration;

/// The kinds of message fault a [`NetFaultPlan`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// The transmission never arrives; the sender's retransmit timer
    /// recovers it.
    Drop,
    /// The transmission arrives twice; receiver-side dedup suppresses the
    /// second copy.
    Duplicate,
    /// The transmission arrives late (one configured delay).
    Delay,
    /// The transmission is held back long enough to arrive after messages
    /// sent later on the same edge.
    Reorder,
}

/// The fate of one physical transmission, drawn deterministically from the
/// plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetDecision {
    /// Do not deliver this transmission at all.
    pub drop: bool,
    /// Deliver a second copy of this transmission.
    pub duplicate: bool,
    /// Deliver this transmission late by this much (`ZERO`: on time).
    /// Reorder faults use a multiple of the plan delay so the message
    /// lands behind later traffic on the same edge.
    pub delay: Duration,
}

/// A deterministic, seed-scheduled schedule of fabric faults.
///
/// Rates are in permille (0‥=1000) per physical transmission. The
/// partition window is expressed in per-edge logical sequence numbers:
/// messages whose sequence number falls inside
/// `[partition_at, partition_at + partition_len)` are dropped on every
/// attempt the bounded-drop guarantee allows — a transient partition that
/// heals after a few retransmit backoffs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Permille of transmissions dropped.
    pub drop_permille: u16,
    /// Permille of transmissions duplicated.
    pub dup_permille: u16,
    /// Permille of transmissions delayed by `delay`.
    pub delay_permille: u16,
    /// Permille of transmissions held back past later traffic.
    pub reorder_permille: u16,
    /// The base added latency of one delay fault.
    pub delay: Duration,
    /// Restrict injection to this directed `(from, to)` edge (`None`: all
    /// edges).
    pub only_edge: Option<(NodeId, NodeId)>,
    /// Per-edge sequence number at which the partition window opens
    /// (`None`: never).
    pub partition_at: Option<u64>,
    /// Length of the partition window in sequence numbers.
    pub partition_len: u64,
    /// A transmission is never dropped once its per-message attempt count
    /// reaches this bound (see module docs).
    pub max_drops_per_msg: u32,
    /// Threaded engine only: this node goes silent (crashes) after
    /// processing the given number of messages. The survivors detect the
    /// death through retransmit exhaustion and the run fails with
    /// [`crate::fault::MrtsError::NodeUnreachable`]; recovery restores a
    /// checkpoint onto the surviving nodes (see `tests/chaos.rs`).
    pub kill_node: Option<(NodeId, u64)>,
}

impl NetFaultPlan {
    /// A quiet plan: no faults until rates are raised.
    pub fn new(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            drop_permille: 0,
            dup_permille: 0,
            delay_permille: 0,
            reorder_permille: 0,
            delay: Duration::from_micros(500),
            only_edge: None,
            partition_at: None,
            partition_len: 0,
            max_drops_per_msg: 3,
            kill_node: None,
        }
    }

    pub fn with_drops(mut self, permille: u16) -> Self {
        self.drop_permille = permille;
        self
    }

    pub fn with_dups(mut self, permille: u16) -> Self {
        self.dup_permille = permille;
        self
    }

    pub fn with_delay(mut self, permille: u16, delay: Duration) -> Self {
        self.delay_permille = permille;
        self.delay = delay;
        self
    }

    pub fn with_reorder(mut self, permille: u16) -> Self {
        self.reorder_permille = permille;
        self
    }

    /// Restrict injection to the directed edge `from → to`.
    pub fn for_edge(mut self, from: NodeId, to: NodeId) -> Self {
        self.only_edge = Some((from, to));
        self
    }

    /// Open a transient partition covering `len` sequence numbers per edge
    /// starting at sequence number `at`.
    pub fn with_partition(mut self, at: u64, len: u64) -> Self {
        self.partition_at = Some(at);
        self.partition_len = len;
        self
    }

    /// Kill `node` after it has processed `after_msgs` messages (threaded
    /// engine).
    pub fn with_kill_node(mut self, node: NodeId, after_msgs: u64) -> Self {
        self.kill_node = Some((node, after_msgs));
        self
    }

    fn edge_matches(&self, from: NodeId, to: NodeId) -> bool {
        self.only_edge.is_none_or(|e| e == (from, to))
    }

    fn in_partition(&self, seq: u64) -> bool {
        self.partition_at
            .is_some_and(|at| seq >= at && seq < at + self.partition_len)
    }

    /// Deterministic permille draw for fault class `tag` on transmission
    /// `(edge, seq, attempt)`. The sequence number is hashed before it
    /// meets the seed: XORing it in raw would alias nearby seeds with
    /// nearby sequence numbers (`seed ^ δ` at `seq` equals `seed` at
    /// `seq ^ δ`), making whole groups of sweep seeds draw the same
    /// fault schedule permuted.
    fn draw(&self, tag: u64, edge: u64, seq: u64, attempt: u32) -> u16 {
        let x = self.seed
            ^ tag.wrapping_mul(0x9E37_79B9)
            ^ edge.wrapping_mul(0xA24B_AED4)
            ^ mix64(seq)
            ^ ((attempt as u64) << 48);
        (mix64(x) % 1000) as u16
    }

    /// Decide the fate of attempt number `attempt` (0-based) of logical
    /// message `seq` on the directed edge `from → to`. Pure in all inputs.
    pub fn decide(&self, from: NodeId, to: NodeId, seq: u64, attempt: u32) -> NetDecision {
        let mut d = NetDecision::default();
        if from == to || !self.edge_matches(from, to) {
            return d;
        }
        let edge = ((from as u64) << 32) | to as u64;
        if attempt < self.max_drops_per_msg
            && (self.in_partition(seq)
                || self.draw(TAG_DROP, edge, seq, attempt) < self.drop_permille)
        {
            d.drop = true;
            return d;
        }
        if self.draw(TAG_DUP, edge, seq, attempt) < self.dup_permille {
            d.duplicate = true;
        }
        if self.draw(TAG_REORDER, edge, seq, attempt) < self.reorder_permille {
            // Hold the message back far enough to land behind traffic sent
            // after it (several base delays).
            d.delay = self.delay * 4;
        } else if self.draw(TAG_DELAY, edge, seq, attempt) < self.delay_permille {
            d.delay = self.delay;
        }
        d
    }

    /// Does this plan kill `node`?
    pub fn kills(&self, node: NodeId) -> Option<u64> {
        self.kill_node
            .and_then(|(n, after)| (n == node).then_some(after))
    }
}

const TAG_DROP: u64 = 1;
const TAG_DUP: u64 = 2;
const TAG_DELAY: u64 = 3;
const TAG_REORDER: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_transparent() {
        let p = NetFaultPlan::new(1);
        for seq in 0..100 {
            let d = p.decide(0, 1, seq, 0);
            assert_eq!(d, NetDecision::default());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let run = |seed: u64| -> Vec<bool> {
            let p = NetFaultPlan::new(seed).with_drops(300);
            (0..200).map(|s| p.decide(0, 1, s, 0).drop).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let drops = run(42).iter().filter(|&&d| d).count();
        assert!(
            (30..=90).contains(&drops),
            "300‰ over 200 transmissions should land near 60, got {drops}"
        );
    }

    #[test]
    fn drops_are_bounded_per_message() {
        let p = NetFaultPlan::new(7).with_drops(1000);
        for seq in 0..50u64 {
            for attempt in 0..p.max_drops_per_msg {
                assert!(p.decide(0, 1, seq, attempt).drop);
            }
            assert!(
                !p.decide(0, 1, seq, p.max_drops_per_msg).drop,
                "attempt {} of seq {seq} must get through",
                p.max_drops_per_msg
            );
        }
    }

    #[test]
    fn edge_restriction_spares_other_edges() {
        let p = NetFaultPlan::new(11).with_drops(1000).for_edge(0, 1);
        assert!(p.decide(0, 1, 0, 0).drop);
        assert!(!p.decide(1, 0, 0, 0).drop, "reverse edge untouched");
        assert!(!p.decide(0, 2, 0, 0).drop);
    }

    #[test]
    fn local_sends_are_never_faulted() {
        let p = NetFaultPlan::new(3).with_drops(1000).with_dups(1000);
        assert_eq!(p.decide(2, 2, 5, 0), NetDecision::default());
    }

    #[test]
    fn partition_window_covers_sequences_then_heals() {
        let p = NetFaultPlan::new(5).with_partition(10, 5);
        for seq in 10..15u64 {
            assert!(p.decide(0, 1, seq, 0).drop, "seq {seq} inside partition");
            // ... but the bounded-drop guarantee still lets retransmits out.
            assert!(!p.decide(0, 1, seq, p.max_drops_per_msg).drop);
        }
        assert!(!p.decide(0, 1, 9, 0).drop);
        assert!(!p.decide(0, 1, 15, 0).drop);
    }

    #[test]
    fn delay_and_reorder_produce_latencies() {
        let delayed = NetFaultPlan::new(9).with_delay(1000, Duration::from_micros(200));
        let d = delayed.decide(0, 1, 0, 0);
        assert_eq!(d.delay, Duration::from_micros(200));
        let reordered = NetFaultPlan::new(9).with_reorder(1000);
        let r = reordered.decide(0, 1, 0, 0);
        assert!(r.delay > reordered.delay, "reorder holds back further");
    }

    #[test]
    fn kill_plan_names_its_victim() {
        let p = NetFaultPlan::new(1).with_kill_node(2, 40);
        assert_eq!(p.kills(2), Some(40));
        assert_eq!(p.kills(0), None);
        assert_eq!(NetFaultPlan::new(1).kills(2), None);
    }
}
