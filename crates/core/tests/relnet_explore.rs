//! Every delivery order, drop and duplicate of a small 3-node run,
//! enumerated over the production reliable-delivery and termination
//! state machines (`mrts::relnet`).
//!
//! Three nodes on Safra's ring (0 → 1 → 2 → 0) run a small diffusing
//! computation ([`SCRIPT`]). A state is each node's protocol state
//! (`ReliableSender`, `ReliableReceiver`, `Safra`), its released list and
//! script position, plus the multiset of frames in flight. A depth-first
//! search with a visited set of 64-bit state fingerprints enumerates every
//! transition: deliver a frame, run a handler, fire a retransmit timer,
//! take a ring step. The fabric decides each transmission's fate as it is
//! sent, as the engine's fault plan does, and the explorer branches on
//! every fate the bounds allow. The worker glue around the state machines
//! is mirrored from `threaded.rs`; each mirror names the code it copies.
//!
//! Fabrics, both the engine's:
//! * **FIFO** — fault-free: per-edge FIFO, no acks, tokens in line with
//!   data. Every run without a net-fault plan takes this path.
//! * **Faulty** — under the reliable layer: any frame may arrive in any
//!   order; a data frame or ack may be dropped (once per logical message,
//!   twice per run) or, in a run of its own, duplicated (once per run).
//!   Ring tokens are never dropped, as in the engine. The engine's fault
//!   plan never touches acks; faulting them here only widens the model.
//! * **Severed** — the reliable layer with one directed edge cut for
//!   data: its sender exhausts a small retry limit and cancels the send,
//!   as `Worker::escalate` does for a lost hint push.
//!
//! Properties: at every state the Safra counters sum to logical sends −
//! releases − cancels, no message is released twice or out of per-edge
//! order, a live run never gives up, and termination is declared only
//! once every message is released or cancelled and every handler has run;
//! once quiescent, the ring terminates within two more probes. At every
//! terminal state nothing is unacked or held, every message is released
//! (or cancelled, when severed) and termination was declared. A violation
//! panics with the transition sequence from the initial state.

use mrts::fault::ENGINE_RETRY;
use mrts::ids::NodeId;
use mrts::netfault::NetFaultPlan;
use mrts::relnet::{ReliableReceiver, ReliableSender, RingStep, Safra, TimerAction};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

const N: usize = 3;
/// The data tag every scripted message travels under (`AM_MSG`).
const TAG: u32 = 1;

/// One logical message of the diffusing computation: `from → to`, and
/// the messages its handler sends.
struct Msg {
    name: &'static str,
    from: NodeId,
    to: NodeId,
    children: &'static [usize],
}

const fn msg(name: &'static str, from: NodeId, to: NodeId, children: &'static [usize]) -> Msg {
    Msg {
        name,
        from,
        to,
        children,
    }
}

const A: usize = 0;
const B: usize = 1;
const W: usize = 2;
const X: usize = 3;
const V: usize = 4;
/// Node 0 starts by sending `a` and `b` on one edge, so per-edge order
/// matters. `a`'s handler sends `w` to node 1, which the token may
/// already have passed; `w`'s handler fans out into `x` and `v`.
const SCRIPT: [Msg; 5] = [
    msg("a", 0, 2, &[W]),
    msg("b", 0, 2, &[]),
    msg("w", 2, 1, &[X, V]),
    msg("x", 1, 0, &[]),
    msg("v", 1, 2, &[]),
];
const START: &[usize] = &[A, B];

fn bit(m: usize) -> u8 {
    1 << m
}

fn edge(m: usize) -> (NodeId, NodeId) {
    (SCRIPT[m].from, SCRIPT[m].to)
}

#[derive(Clone, Copy)]
struct Fabric {
    /// Under the reliable layer, frames in any order; otherwise per-edge
    /// FIFO.
    reliable: bool,
    /// Drops allowed per run (at most one per logical message).
    drops: u32,
    /// Duplicates allowed per run (at most one per logical message).
    dups: u32,
    /// Data frames on this directed edge never arrive.
    severed: Option<(NodeId, NodeId)>,
    retry_limit: u32,
}

impl Fabric {
    /// The reliable layer without faults, at `Worker::net_attempt_limit`
    /// under the default fault plan.
    fn reliable() -> Fabric {
        Fabric {
            reliable: true,
            drops: 0,
            dups: 0,
            severed: None,
            retry_limit: ENGINE_RETRY.max_attempts + 2 * NetFaultPlan::new(0).max_drops_per_msg + 4,
        }
    }
}

/// A frame in flight, `(src, dst, ..)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Frame {
    /// `(src, dst, msg, bytes)`: `bytes` is what the engine sends, the
    /// payload alone on the FIFO fabric and the reliable layer's
    /// sequence-prefixed frame otherwise; `msg` names the logical message
    /// for the fault budget.
    Data(NodeId, NodeId, usize, Vec<u8>),
    /// `(src, dst, msg, seq)`.
    Ack(NodeId, NodeId, usize, u64),
    /// `(src, dst, black, q)`.
    Token(NodeId, NodeId, bool, i64),
}

impl Frame {
    fn edge(&self) -> (NodeId, NodeId) {
        match *self {
            Frame::Data(src, dst, ..) | Frame::Ack(src, dst, ..) | Frame::Token(src, dst, ..) => {
                (src, dst)
            }
        }
    }

    /// The logical message a data frame or ack belongs to.
    fn msg(&self) -> Option<usize> {
        match *self {
            Frame::Data(_, _, m, _) | Frame::Ack(_, _, m, _) => Some(m),
            Frame::Token(..) => None,
        }
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Frame::Data(src, dst, m, _) => write!(f, "data {} {src}→{dst}", SCRIPT[m].name),
            Frame::Ack(src, dst, m, _) => write!(f, "ack of {} {src}→{dst}", SCRIPT[m].name),
            Frame::Token(src, dst, black, q) => {
                let colour = if black { "black" } else { "white" };
                write!(f, "token {src}→{dst} ({colour}, q={q})")
            }
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Start,
    Deliver(Frame),
    Run { node: NodeId, msg: usize },
    Retransmit { node: NodeId, msg: usize },
    GiveUp { node: NodeId, msg: usize },
    Ring { node: NodeId, step: RingStep },
}

/// The fate the fabric gave one transmission of a step.
#[derive(Clone, Debug)]
enum Fault {
    Drop(Frame),
    Duplicate(Frame),
    Cut(Frame),
}

/// One edge of the state graph: a step and the faults on its sends.
struct Transition {
    step: Step,
    faults: Vec<Fault>,
}

impl fmt::Display for Transition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.step {
            Step::Start => write!(f, "node 0 starts")?,
            Step::Deliver(fr) => write!(f, "deliver {fr}")?,
            Step::Run { node, msg } => {
                write!(f, "node {node} runs the handler of {}", SCRIPT[*msg].name)?
            }
            Step::Retransmit { node, msg } => {
                write!(f, "node {node} retransmits {}", SCRIPT[*msg].name)?
            }
            Step::GiveUp { node, msg } => {
                write!(f, "node {node} gives up on {}", SCRIPT[*msg].name)?
            }
            Step::Ring { node, step } => write!(f, "node {node} ring step {step:?}")?,
        }
        for fault in &self.faults {
            match fault {
                Fault::Drop(fr) => write!(f, "; drop {fr}")?,
                Fault::Duplicate(fr) => write!(f, "; duplicate {fr}")?,
                Fault::Cut(fr) => write!(f, "; cut {fr}")?,
            }
        }
        Ok(())
    }
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Node {
    safra: Safra,
    tx: ReliableSender,
    rx: ReliableReceiver,
    /// Logical messages released to handlers here, in release order.
    released: Vec<usize>,
    /// Script position: handlers run so far (a prefix of `released`).
    ran: usize,
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct World {
    started: bool,
    nodes: [Node; N],
    /// Frames in flight: per-edge send order on the FIFO fabric (sorted
    /// by edge), a sorted multiset under the reliable layer.
    flight: Vec<Frame>,
    /// This step's transmissions, before the fabric decides their fate.
    outbox: Vec<Frame>,
    /// Per logical message: sent, cancelled, dropped once, duplicated once.
    sent: u8,
    cancelled: u8,
    dropped: u8,
    duplicated: u8,
    /// Per-edge sequence number of each sent message.
    seqs: [u64; SCRIPT.len()],
    terminated: bool,
}

/// What some explored path showed (every explored transition lies on a
/// path from the initial state).
#[derive(Default, Debug)]
struct Seen {
    drop: bool,
    duplicate: bool,
    retransmit: bool,
    give_up: bool,
    dirty_probe: bool,
    behind_token: bool,
}

impl World {
    /// Mirrors `Worker::am` for a remote data message: Safra counts the
    /// logical send once; under the reliable layer `Worker::net_send`
    /// assigns the sequence number and buffers the frame.
    fn send(&mut self, fabric: Fabric, m: usize) {
        let (from, to) = edge(m);
        let earlier = (0..SCRIPT.len()).filter(|&o| self.sent & bit(o) != 0 && edge(o) == edge(m));
        self.seqs[m] = earlier.count() as u64;
        self.sent |= bit(m);
        let node = &mut self.nodes[from as usize];
        node.safra.on_send();
        let bytes = if fabric.reliable {
            let (seq, frame) = node.tx.next_frame(to, TAG, &[m as u8]);
            assert_eq!(seq, self.seqs[m], "per-edge sequence numbers");
            frame
        } else {
            vec![m as u8]
        };
        self.outbox.push(Frame::Data(from, to, m, bytes));
    }

    /// Every fate of this step's transmissions, as `Worker::transmit`
    /// draws them from the fault plan: on time (in any order, under the
    /// reliable layer), dropped or duplicated within the bounds, or lost
    /// on the cut edge. Tokens are never faulted.
    fn fates(mut self, fabric: Fabric, seen: &mut Seen) -> Vec<(Vec<Fault>, World)> {
        let outbox = std::mem::take(&mut self.outbox);
        let mut fates = vec![(Vec::new(), self)];
        for f in outbox {
            let mut next = Vec::new();
            for (faults, mut w) in fates {
                let with = |fault: Fault| [faults.clone(), vec![fault]].concat();
                if matches!(f, Frame::Data(..)) && fabric.severed == Some(f.edge()) {
                    next.push((with(Fault::Cut(f.clone())), w));
                    continue;
                }
                if let Some(m) = f.msg() {
                    if w.dropped & bit(m) == 0 && w.dropped.count_ones() < fabric.drops {
                        seen.drop = true;
                        let mut d = w.clone();
                        d.dropped |= bit(m);
                        next.push((with(Fault::Drop(f.clone())), d));
                    }
                    if w.duplicated & bit(m) == 0 && w.duplicated.count_ones() < fabric.dups {
                        seen.duplicate = true;
                        let mut d = w.clone();
                        d.duplicated |= bit(m);
                        d.flight.extend([f.clone(), f.clone()]);
                        next.push((with(Fault::Duplicate(f.clone())), d));
                    }
                }
                w.flight.push(f.clone());
                next.push((faults, w));
            }
            fates = next;
        }
        for (_, w) in &mut fates {
            if fabric.reliable {
                w.flight.sort();
            } else {
                // Stable: keeps each edge's FIFO order, forgets the order
                // between edges.
                w.flight.sort_by_key(Frame::edge);
            }
        }
        fates
    }

    /// Mirrors `Worker::idle` (no loads, I/O or steals in this model).
    fn idle(&self, n: usize) -> bool {
        let node = &self.nodes[n];
        (n != 0 || self.started)
            && node.ran == node.released.len()
            && node.tx.outstanding() == 0
            && node.rx.held_frames() == 0
    }

    /// Has the current probe's token gone past node `n` (n ≠ 0)?
    fn token_passed(&self, n: usize) -> bool {
        // Ring positions: held by k = 2k, in flight k → k+1 = 2k + 1,
        // back home at node 0 = 2N.
        let held = (0..N).find(|&k| self.nodes[k].safra.has_token);
        let in_flight = self.flight.iter().find_map(|f| match *f {
            Frame::Token(src, ..) => Some(src as usize),
            _ => None,
        });
        let pos = match (held, in_flight) {
            (Some(0), _) => 2 * N,
            (Some(k), _) => 2 * k,
            (None, Some(src)) => 2 * src + 1,
            (None, None) => return false,
        };
        pos > 2 * n
    }

    /// Deliver one frame at its destination.
    fn deliver(&mut self, fabric: Fabric, frame: Frame, seen: &mut Seen) {
        match frame {
            // `Worker::on_fabric`'s `AM_TOKEN` arm.
            Frame::Token(_, dst, black, q) => self.nodes[dst as usize].safra.on_token(black, q),
            // `Worker::on_fabric`'s `AM_ACK` arm.
            Frame::Ack(src, dst, _, seq) => {
                self.nodes[dst as usize].tx.on_ack(src, seq);
            }
            Frame::Data(src, dst, _, bytes) if fabric.reliable => {
                // `Worker::on_net_arrival`: ack every arrival, duplicates
                // included, then release in order.
                let seq = u64::from_le_bytes(bytes[..8].try_into().expect("seq prefix"));
                let msg = bytes[8] as usize;
                self.outbox.push(Frame::Ack(dst, src, msg, seq));
                let rx = &mut self.nodes[dst as usize].rx;
                if rx.accept(src, seq, TAG, bytes[8..].to_vec()) {
                    while let Some((_, payload)) = self.nodes[dst as usize].rx.next_release(src) {
                        self.release(dst, payload[0] as usize, seen);
                    }
                }
            }
            // `Worker::on_fabric` without a net layer.
            Frame::Data(_, dst, _, bytes) => self.release(dst, bytes[0] as usize, seen),
        }
    }

    /// Mirrors `Worker::release`: Safra counts the delivery, the handler
    /// is queued.
    fn release(&mut self, n: NodeId, msg: usize, seen: &mut Seen) {
        seen.behind_token |= n != 0 && self.token_passed(n as usize);
        let node = &mut self.nodes[n as usize];
        node.safra.on_deliver();
        node.released.push(msg);
    }

    /// Every step enabled here, before the fabric's faults.
    fn steps(&self, fabric: Fabric, seen: &mut Seen) -> Vec<(Step, World)> {
        let mut out = Vec::new();
        if self.terminated {
            return out;
        }
        if !self.started {
            let mut next = self.clone();
            next.started = true;
            for &m in START {
                next.send(fabric, m);
            }
            out.push((Step::Start, next));
            return out;
        }
        for (i, f) in self.flight.iter().enumerate() {
            // Identical copies are interchangeable: deliver the first.
            let copy = i > 0 && self.flight[i - 1] == *f;
            let fifo_blocked =
                !fabric.reliable && self.flight[..i].iter().any(|g| g.edge() == f.edge());
            if !copy && !fifo_blocked {
                let mut next = self.clone();
                next.flight.remove(i);
                next.deliver(fabric, f.clone(), seen);
                out.push((Step::Deliver(f.clone()), next));
            }
        }
        for n in 0..N {
            let node = &self.nodes[n];
            // `Worker::step` runs the next queued handler; its sends go
            // through `Worker::am`.
            if node.ran < node.released.len() {
                let msg = node.released[node.ran];
                let mut next = self.clone();
                next.nodes[n].ran += 1;
                for &c in SCRIPT[msg].children {
                    next.send(fabric, c);
                }
                let node = n as NodeId;
                out.push((Step::Run { node, msg }, next));
            }
            // `Worker::try_pass_token`.
            if self.idle(n) {
                let mut next = self.clone();
                let step = next.nodes[n].safra.on_idle(n as NodeId, N);
                match step {
                    RingStep::Wait => continue,
                    RingStep::Pass { to, black, q } => {
                        seen.dirty_probe |= n == 0 && node.safra.has_token;
                        next.outbox.push(Frame::Token(n as NodeId, to, black, q));
                    }
                    RingStep::Terminate => next.terminated = true,
                }
                let node = n as NodeId;
                out.push((Step::Ring { node, step }, next));
            }
        }
        if fabric.reliable {
            out.extend((0..SCRIPT.len()).filter_map(|m| self.fire_timer(fabric, m, seen)));
        }
        out
    }

    /// Mirrors `Worker::fire_timer`. The engine's timeout exceeds a round
    /// trip, so a timer fires only for a frame with no copy and no ack in
    /// flight. A give-up cancels the send the way `Worker::escalate` does
    /// for a lost hint push.
    fn fire_timer(&self, fabric: Fabric, m: usize, seen: &mut Seen) -> Option<(Step, World)> {
        if self.sent & bit(m) == 0 || self.flight.iter().any(|f| f.msg() == Some(m)) {
            return None;
        }
        let (from, to) = edge(m);
        let mut next = self.clone();
        let node = &mut next.nodes[from as usize];
        match node.tx.on_timer(to, self.seqs[m], fabric.retry_limit) {
            TimerAction::Acked => None,
            TimerAction::Retransmit { frame, .. } => {
                seen.retransmit = true;
                next.outbox.push(Frame::Data(from, to, m, frame));
                Some((Step::Retransmit { node: from, msg: m }, next))
            }
            TimerAction::GiveUp { .. } => {
                seen.give_up = true;
                node.safra.on_cancel();
                next.cancelled |= bit(m);
                Some((Step::GiveUp { node: from, msg: m }, next))
            }
        }
    }

    fn released(&self, m: usize) -> bool {
        self.nodes[SCRIPT[m].to as usize].released.contains(&m)
    }

    /// Every sent message released or cancelled, every handler run.
    fn computation_over(&self) -> bool {
        (0..SCRIPT.len())
            .all(|m| self.sent & bit(m) == 0 || self.released(m) || self.cancelled & bit(m) != 0)
            && self.nodes.iter().all(|n| n.ran == n.released.len())
    }

    fn check_state(&self, fabric: Fabric) -> Result<(), String> {
        let counters: i64 = self.nodes.iter().map(|n| n.safra.counter).sum();
        let releases: usize = self.nodes.iter().map(|n| n.released.len()).sum();
        let expected =
            self.sent.count_ones() as i64 - releases as i64 - self.cancelled.count_ones() as i64;
        if counters != expected {
            return Err(format!(
                "Safra counters sum to {counters}, but sends − releases − cancels = {expected}"
            ));
        }
        for (d, node) in self.nodes.iter().enumerate() {
            for (p, &m) in node.released.iter().enumerate() {
                let before = &node.released[..p];
                if before.contains(&m) {
                    return Err(format!("{} released twice", SCRIPT[m].name));
                }
                let overtaken = (0..SCRIPT.len()).find(|&o| {
                    edge(o) == edge(m)
                        && self.seqs[o] < self.seqs[m]
                        && self.sent & bit(o) != 0
                        && self.cancelled & bit(o) == 0
                        && !before.contains(&o)
                });
                if let Some(o) = overtaken {
                    let (m, o) = (SCRIPT[m].name, SCRIPT[o].name);
                    return Err(format!("node {d} released {m} before {o}, sent first"));
                }
            }
        }
        if fabric.severed.is_none() && self.cancelled != 0 {
            return Err("a live run gave up on a message".into());
        }
        if self.terminated && !self.computation_over() {
            return Err("termination declared while the computation is still running".into());
        }
        if !self.terminated && self.quiescent() && !self.ring_settles() {
            return Err("quiescent, but two more probe rounds do not terminate".into());
        }
        Ok(())
    }

    /// Nothing left but the ring: every message released or cancelled,
    /// every handler run, nothing unacked or held, only the token in
    /// flight.
    fn quiescent(&self) -> bool {
        self.started
            && self.computation_over()
            && (0..N).all(|n| self.idle(n))
            && self.flight.iter().all(|f| matches!(f, Frame::Token(..)))
    }

    /// From a quiescent state, ring steps alone reach `Terminate` within
    /// two probe rounds after the current one (a round is N hops, a hop
    /// a ring step and a delivery).
    fn ring_settles(&self) -> bool {
        let mut w = self.clone();
        for _ in 0..3 * 2 * N {
            if let Some(Frame::Token(_, dst, black, q)) = w.flight.pop() {
                w.nodes[dst as usize].safra.on_token(black, q);
                continue;
            }
            let n = (0..N).find(|&n| w.nodes[n].safra.has_token).unwrap_or(0);
            match w.nodes[n].safra.on_idle(n as NodeId, N) {
                RingStep::Terminate => return true,
                RingStep::Pass { to, black, q } => {
                    w.flight.push(Frame::Token(n as NodeId, to, black, q))
                }
                RingStep::Wait => return false,
            }
        }
        false
    }

    fn check_terminal(&self, fabric: Fabric) -> Result<(), String> {
        if !self.terminated {
            return Err("no transition left, but termination was never declared".into());
        }
        let stuck = (self.nodes.iter()).position(|n| n.tx.outstanding() + n.rx.held_frames() != 0);
        if let Some(n) = stuck {
            return Err(format!("node {n} ends with an unacked or held frame"));
        }
        let lost = (0..SCRIPT.len()).find(|&m| {
            let cancelled = self.cancelled & bit(m) != 0 && fabric.severed == Some(edge(m));
            !self.released(m) && !cancelled
        });
        if let Some(m) = lost {
            return Err(format!("{} was never released", SCRIPT[m].name));
        }
        Ok(())
    }
}

struct Explorer {
    fabric: Fabric,
    visited: HashSet<u64>,
    path: Vec<Transition>,
    seen: Seen,
    terminal: usize,
}

fn fingerprint(w: &World) -> u64 {
    let mut h = DefaultHasher::new();
    w.hash(&mut h);
    h.finish()
}

impl Explorer {
    fn run(fabric: Fabric) -> Explorer {
        let mut e = Explorer {
            fabric,
            visited: HashSet::new(),
            path: Vec::new(),
            seen: Seen::default(),
            terminal: 0,
        };
        let init = World::default();
        e.visited.insert(fingerprint(&init));
        if let Err(trace) = e.dfs(init) {
            panic!("{trace}");
        }
        e
    }

    fn dfs(&mut self, w: World) -> Result<(), String> {
        let fabric = self.fabric;
        if let Err(why) = w.check_state(fabric) {
            return Err(self.trace(&why));
        }
        let mut next = Vec::new();
        for (step, w) in w.steps(fabric, &mut self.seen) {
            for (faults, w) in w.fates(fabric, &mut self.seen) {
                let step = step.clone();
                next.push((Transition { step, faults }, w));
            }
        }
        if next.is_empty() {
            self.terminal += 1;
            if let Err(why) = w.check_terminal(fabric) {
                return Err(self.trace(&why));
            }
        }
        for (t, n) in next {
            if self.visited.insert(fingerprint(&n)) {
                self.path.push(t);
                self.dfs(n)?;
                self.path.pop();
            }
        }
        Ok(())
    }

    fn trace(&self, why: &str) -> String {
        let mut s = format!(
            "violation: {why}\ncounterexample, {} transitions from the initial state:\n",
            self.path.len()
        );
        for (i, t) in self.path.iter().enumerate() {
            s += &format!("{:4}. {t}\n", i + 1);
        }
        s
    }

    fn report(&self, name: &str) -> usize {
        let states = self.visited.len();
        println!(
            "{name}: {states} states, {} terminal, {:?}",
            self.terminal, self.seen
        );
        states
    }
}

#[test]
fn fifo_fabric_delivers_exactly_once_and_terminates() {
    let e = Explorer::run(Fabric {
        reliable: false,
        ..Fabric::reliable()
    });
    let states = e.report("fifo");
    assert!(states >= 1_200, "explored only {states} states");
    let s = &e.seen;
    assert!(s.dirty_probe && s.behind_token, "ring unexercised: {s:?}");
}

#[test]
fn dropped_frames_and_acks_are_retransmitted_and_released_once() {
    let e = Explorer::run(Fabric {
        drops: 2,
        ..Fabric::reliable()
    });
    let states = e.report("drops");
    assert!(states >= 50_000, "explored only {states} states");
    let s = &e.seen;
    assert!(s.drop && s.retransmit, "faults unexercised: {s:?}");
    assert!(s.dirty_probe && s.behind_token, "ring unexercised: {s:?}");
    assert!(!s.give_up, "a live run gave up");
}

#[test]
fn a_duplicated_frame_or_ack_is_released_once() {
    let e = Explorer::run(Fabric {
        dups: 1,
        ..Fabric::reliable()
    });
    let states = e.report("duplicate");
    assert!(states >= 18_000, "explored only {states} states");
    let s = &e.seen;
    assert!(s.duplicate, "faults unexercised: {s:?}");
    assert!(s.dirty_probe && s.behind_token, "ring unexercised: {s:?}");
}

#[test]
fn severed_edge_gives_up_and_the_ring_still_terminates() {
    let e = Explorer::run(Fabric {
        severed: Some(edge(X)),
        retry_limit: 1,
        ..Fabric::reliable()
    });
    let states = e.report("severed");
    assert!(states >= 700, "explored only {states} states");
    let s = &e.seen;
    assert!(s.retransmit && s.give_up, "give-up unexercised: {s:?}");
    assert!(s.dirty_probe, "ring unexercised: {s:?}");
}
