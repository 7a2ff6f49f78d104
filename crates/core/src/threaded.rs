//! The threaded execution engine: one OS thread per simulated node.
//!
//! This mode is the shape of the paper's actual deployment: every node runs
//! a control loop draining active messages from the in-process
//! [`armci_sim`] fabric, executing message handlers, spilling mobile
//! objects through a per-node I/O thread pool (a real [`SegmentStore`]
//! when a spill directory is configured), and participating in **Safra's
//! ring-token termination detection**. Handlers may spawn child tasks on
//! the node's computing-layer pool (work-stealing or FIFO).
//!
//! ## Driving the node core
//!
//! What to evict, elide, spill, load and prefetch, where a message goes,
//! who learns an object's location, how an object migrates and installs —
//! all of it is decided by the node's `NodeCore` (`node.rs`), the same
//! state machine the virtual-time engine runs. A worker is its **driver**:
//! after every core transition it drains the core's buffers (`drain`) —
//! I/O commands into the node's I/O pool, messages onto the fabric through
//! the one `NetMsg::encode`/`decode` pair (a local send loops straight
//! back into the core), runnable objects into the ready queue — and feeds
//! the pool's completions (`on_io`) and the fabric's frames (`on_net`)
//! back. What is this engine's own:
//!
//! * **The fabric side of messaging** — Safra's counters, the reliable
//!   ack/retransmit layer and the race detector's happens-before stamps
//!   all sit in `am` and the receive path, below `NetMsg`.
//! * **One input gateway** — every nondeterministic read (the next
//!   fabric frame, the next I/O completion, the due reliable-layer
//!   timers) goes through `Inputs`, which records or replays its answers
//!   (`mrts::replay`); the worker acts on them the same way in every mode.
//! * **When to steal, and what a victim may give** — a node asks after
//!   `STEAL_PATIENCE` empty polls of the fabric, and a victim hands over
//!   *resident* objects with queued work (its backlog). Both are
//!   functions of the inputs, so a replay re-derives them.
//! * **Busy means "has ready work"** — a queued load is look-ahead while
//!   the node's ready queue is non-empty, and a load that completes with
//!   ready work remaining was masked by computation. The node keeps
//!   executing in-core objects while loads are in flight.
//! * **Non-blocking storage ops** — `io_threads` workers share the spill
//!   store; object pack/unpack runs on them, off the node's control
//!   thread, and an eviction round lands as batched appends on the
//!   segmented spill log, one request per few segments of footprint.
//! * **The post-run state** — a worker's control loop ends without
//!   loading anything back: it hands its core (resident objects, and the
//!   spill key of every other one) back to the [`Runtime`], which keeps
//!   each node's store until it is dropped or run again. The shared
//!   result accessors read a spilled object from its store, decode, visit
//!   and drop it, so the process's memory follows the budget after
//!   `run()` as it does inside.
//! * **Deferred boot** — objects created, pinned or posted to before a
//!   run are queued and applied by the run's workers before they start,
//!   without admission (nothing is running yet to evict for).
//!
//! Statistics are wall-clock: computation is time spent inside handlers
//! (and packing/unpacking, wherever it runs), disk is the I/O pool's
//! measured busy time, and communication is charged from the configured
//! network model per message (the in-process fabric itself is too fast to
//! measure meaningfully).

#[allow(unused_imports)]
use crate::audit::{audit_emit, RuntimeEvent};
use crate::compute::{ExecutorKind, FifoPool, SequentialBackend, TaskBackend, WorkStealingPool};
use crate::config::MrtsConfig;
use crate::ctx::Ctx;
use crate::fault::{is_out_of_space, FaultPlan, FaultyStore, MrtsError, ENGINE_RETRY};
use crate::ids::{NodeId, ObjectId};
use crate::netfault::{NetFaultKind, NetFaultPlan};
use crate::node::{Entry, IoCmd, MetaOp, NetMsg, NodeCore};
use crate::object::{MobileObject, Registry};
use crate::relnet::{ReliableReceiver, ReliableSender, RingStep, Safra, TimerAction};
use crate::replay::{Decision, DecisionLog, IoKind, REPLAY_WAIT};
use crate::runtime::{home_of, hooks::Hooks, shared_store, Boot, Engine, Runtime, SharedStore};
use crate::sched::VictimCursor;
use crate::stats::{NodeStats, RunStats};
use crate::storage::{MemStore, SegmentStore, StorageBackend};
use armci_sim::{ActiveMessage, Endpoint, Fabric, NetworkModel};
use crossbeam_channel as channel;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

// Control-ring tags. Everything else on the fabric is a [`NetMsg`], which
// owns its tags and payload encodings.
const AM_TOKEN: u32 = 7;
const AM_EXIT: u32 = 8;
/// Positive acknowledgement of one reliable-layer sequence number
/// (net-fault runs only; see [`NetLayer`]).
const AM_ACK: u32 = 9;

/// Retransmissions of an unacknowledged frame after the fast ones, each
/// [`PATIENT_BACKOFF`] apart, before its peer is declared unreachable.
const PATIENT_RETRANSMITS: u32 = 4;
/// Backoff of the patient retransmissions and of the final wait. A
/// receiver acks only between handlers, so a live peer can stay silent for
/// as long as its longest handler runs; giving up takes at least
/// `(PATIENT_RETRANSMITS + 1) × PATIENT_BACKOFF` = 1.25 s (DESIGN.md §11).
const PATIENT_BACKOFF: Duration = Duration::from_millis(250);

enum IoReq {
    /// Pack every object on the I/O thread and persist the batch through
    /// one [`StorageBackend::store_batch`] call — a single coalesced
    /// append (one syscall, one sync decision) on the segment log.
    StoreBatch {
        items: Vec<(u64, ObjectId, Box<dyn MobileObject>)>,
    },
    Load {
        key: u64,
        oid: ObjectId,
    },
    /// Install the locality-curve rank per spill key in the store (see
    /// [`StorageBackend::set_key_ranks`]). Fire-and-forget: no `IoDone`
    /// reply, so it never counts against `outstanding_io`.
    SetRanks(Vec<(u64, u64)>),
    /// Health check of the spill store (degraded-mode recovery).
    Probe,
    Shutdown,
}

enum IoDone {
    /// A whole [`IoReq::StoreBatch`] landed; `items` are per-object
    /// `(oid, packed_len)` in batch order.
    StoredBatch {
        items: Vec<(ObjectId, usize)>,
        io_dur: Duration,
        pack_dur: Duration,
        retries: u32,
        faults: usize,
        pool_hits: usize,
        /// Compactions triggered by this batch that rewrote live records
        /// in locality-curve order.
        reorders: usize,
    },
    /// A batch store was rejected as a whole after exhausting the retry
    /// policy, or with `ENOSPC` (a prefix may have landed, but no record
    /// is trusted); every object is reconstituted from its packed bytes
    /// for the control thread to reinstate in-core.
    StoreBatchFailed {
        items: Vec<(ObjectId, Box<dyn MobileObject>)>,
        io_dur: Duration,
        pack_dur: Duration,
        retries: u32,
        faults: usize,
    },
    Loaded {
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        packed_len: usize,
        io_dur: Duration,
        unpack_dur: Duration,
        retries: u32,
        faults: usize,
        /// Sequential-read tracker drained from the store with this load:
        /// `(loads served, segment switches)` — see
        /// [`StorageBackend::take_read_stats`].
        seg_reads: u64,
        seg_switches: u64,
    },
    /// A spilled object could not be read back — unrecoverable (the
    /// object exists nowhere else).
    LoadFailed {
        oid: ObjectId,
        error: std::io::Error,
        attempts: u32,
        retries: u32,
        faults: usize,
    },
    Probed {
        ok: bool,
        faults: usize,
    },
}

/// The `(kind, key)` identity of an I/O completion, for decision
/// matching during record/replay: the pool's per-key ordering makes it
/// unique among in-flight operations (batches are identified by their
/// first object; health probes carry no key).
fn io_done_key(d: &IoDone) -> (IoKind, u64) {
    match d {
        IoDone::StoredBatch { items, .. } => (
            IoKind::StoredBatch,
            items.first().map_or(0, |(oid, _)| oid.0),
        ),
        IoDone::StoreBatchFailed { items, .. } => (
            IoKind::StoreBatchFailed,
            items.first().map_or(0, |(oid, _)| oid.0),
        ),
        IoDone::Loaded { oid, .. } => (IoKind::Loaded, oid.0),
        IoDone::LoadFailed { oid, .. } => (IoKind::LoadFailed, oid.0),
        IoDone::Probed { .. } => (IoKind::Probed, 0),
    }
}

/// Record/replay mode of a worker's [`Inputs`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Live answers, nothing logged (the default).
    Off,
    /// Live answers, each one logged.
    Record,
    /// Answers from the log, for as long as it can be followed.
    Replay,
}

/// What the reliable layer's pump must act on now.
#[derive(Clone, Copy)]
enum Due {
    /// Transmit the deferred frame `(dest, seq)`.
    Flush(NodeId, u64),
    /// The retransmit timer of `(dest, seq)` expired.
    Timer(NodeId, u64),
}

/// Fabric and I/O poll granularity of an idle or replay wait.
const POLL_WAIT: Duration = Duration::from_micros(500);

/// A worker's one input gateway (see `mrts::replay`). Every read whose
/// answer is nondeterministic goes through it: which fabric frame is
/// next, which I/O completion is next, which deferred flushes and
/// retransmit timers are due. Live, the channels and the wall clock
/// answer, and record mode logs each answer; in replay mode the log
/// answers. The worker acts on every answer with the same code in all
/// three modes, and what else it decides — when to steal and what to
/// grant included — is a function of these answers and its own state.
struct Inputs {
    mode: Mode,
    /// Record: the answers so far. Replay: the answers to give.
    log: Vec<Decision>,
    cursor: usize,
    /// Replay: frames and completions that arrived before the log
    /// called for them.
    held_frames: VecDeque<ActiveMessage>,
    held_io: VecDeque<IoDone>,
    /// Replay fell back to live answers (the log could not be followed,
    /// or the run is over); held items are answered first.
    live: bool,
    divergences: usize,
}

impl Inputs {
    fn new(mode: Mode, log: Vec<Decision>) -> Inputs {
        Inputs {
            mode,
            log,
            cursor: 0,
            held_frames: VecDeque::new(),
            held_io: VecDeque::new(),
            live: false,
            divergences: 0,
        }
    }

    /// Replay: take the next logged answer (`None`: the log is exhausted).
    fn logged(&mut self) -> Option<Decision> {
        self.cursor += 1;
        self.log.get(self.cursor - 1).copied()
    }

    /// The log can no longer be followed: count it once and answer live
    /// from here on.
    fn diverge(&mut self) {
        if !self.live {
            self.live = true;
            self.divergences += 1;
        }
    }

    /// Which fabric frame is next: a non-blocking poll, or (`idle`) one
    /// that waits briefly.
    fn fabric(&mut self, ep: &mut Endpoint, idle: bool) -> Option<ActiveMessage> {
        let poll = |ep: &mut Endpoint| {
            if idle {
                ep.recv_timeout(POLL_WAIT)
            } else {
                ep.try_recv()
            }
        };
        match self.mode {
            Mode::Off => poll(ep),
            Mode::Record => {
                let am = poll(ep);
                self.log.push(match &am {
                    Some(m) => Decision::FabricRecv {
                        src: m.src,
                        tag: m.handler,
                    },
                    None => Decision::FabricEmpty,
                });
                am
            }
            Mode::Replay => {
                if !self.live {
                    match self.logged() {
                        // Frames the recorded run had not yet seen may sit
                        // in the channel; they stay there.
                        Some(Decision::FabricEmpty) => return None,
                        Some(Decision::FabricRecv { src, tag }) => {
                            // Per-edge FIFO: the next frame from `src` is
                            // the recorded one.
                            let held = &mut self.held_frames;
                            match await_held(held, || ep.recv_timeout(POLL_WAIT), |m| m.src == src)
                            {
                                Some(m) if m.handler == tag => return Some(m),
                                Some(m) => held.push_front(m),
                                None => {}
                            }
                        }
                        _ => {}
                    }
                    self.diverge();
                }
                self.held_frames.pop_front().or_else(|| poll(ep))
            }
        }
    }

    /// Which I/O completion is next: a non-blocking poll, or
    /// (`blocking`, the post-termination drain) a wait for one — which
    /// never answers `IoEmpty`.
    fn io(&mut self, rx: &channel::Receiver<IoDone>, blocking: bool) -> Option<IoDone> {
        let poll = || {
            if blocking {
                rx.recv().ok()
            } else {
                rx.try_recv().ok()
            }
        };
        match self.mode {
            Mode::Off => poll(),
            Mode::Record => {
                let done = poll();
                match &done {
                    Some(d) => {
                        let (kind, oid) = io_done_key(d);
                        self.log.push(Decision::IoDone { kind, oid });
                    }
                    None if !blocking => self.log.push(Decision::IoEmpty),
                    None => {}
                }
                done
            }
            Mode::Replay => {
                if !self.live {
                    match self.logged() {
                        Some(Decision::IoEmpty) if !blocking => return None,
                        Some(Decision::IoDone { kind, oid }) => {
                            let key = |d: &IoDone| io_done_key(d) == (kind, oid);
                            let next = await_held(
                                &mut self.held_io,
                                || rx.recv_timeout(POLL_WAIT).ok(),
                                key,
                            );
                            if next.is_some() {
                                return next;
                            }
                        }
                        _ => {}
                    }
                    self.diverge();
                }
                self.held_io.pop_front().or_else(poll)
            }
        }
    }

    /// Which deferred flushes and retransmit timers are due at `now`,
    /// flushes first; each logged answer list ends with `PumpEnd`.
    fn due(&mut self, net: &NetLayer, now: Instant) -> Vec<Due> {
        match self.mode {
            Mode::Off => net.due_by_clock(now),
            Mode::Record => {
                let due = net.due_by_clock(now);
                for &d in &due {
                    self.log.push(match d {
                        Due::Flush(dest, seq) => Decision::FlushDeferred { dest, seq },
                        Due::Timer(dest, seq) => Decision::TimerExpire { dest, seq },
                    });
                }
                self.log.push(Decision::PumpEnd);
                due
            }
            Mode::Replay => {
                let mut due = Vec::new();
                while !self.live {
                    match self.logged() {
                        Some(Decision::PumpEnd) => return due,
                        Some(Decision::FlushDeferred { dest, seq })
                            if net.deferred_at(dest, seq).is_some() =>
                        {
                            due.push(Due::Flush(dest, seq))
                        }
                        Some(Decision::TimerExpire { dest, seq }) => {
                            due.push(Due::Timer(dest, seq))
                        }
                        // Exhausted, a foreign decision, or a flush of a
                        // frame that is not deferred.
                        _ => self.diverge(),
                    }
                }
                net.due_by_clock(now)
            }
        }
    }

    /// The worker stopped: fold the counters into `stats` and hand back
    /// what was recorded. Answers are live from here on, held items
    /// first. Answers the replayed log still holds mean the recorded run
    /// did more than this one — one last divergence, unless the node
    /// `crashed` (a crash truncates the schedule by design).
    fn finish(&mut self, stats: &mut NodeStats, crashed: bool) -> Vec<Decision> {
        match self.mode {
            Mode::Record => {
                self.mode = Mode::Off;
                stats.decisions_recorded += self.log.len();
                return std::mem::take(&mut self.log);
            }
            Mode::Replay if !crashed && self.cursor < self.log.len() => self.diverge(),
            _ => {}
        }
        self.live = true;
        stats.replay_divergences += self.divergences;
        Vec::new()
    }
}

/// Replay's wait for the item the log names: the first held one that
/// `matches`, else the first such arrival from `poll` within
/// [`REPLAY_WAIT`], holding back every other arrival. `None`: it never
/// came.
fn await_held<T>(
    held: &mut VecDeque<T>,
    mut poll: impl FnMut() -> Option<T>,
    matches: impl Fn(&T) -> bool,
) -> Option<T> {
    if let Some(i) = held.iter().position(&matches) {
        return held.remove(i);
    }
    let deadline = Instant::now() + REPLAY_WAIT;
    while Instant::now() < deadline {
        match poll() {
            Some(x) if matches(&x) => return Some(x),
            Some(x) => held.push_back(x),
            None => {}
        }
    }
    None
}

/// The reliable-layer sequence number a frame carries in its first
/// eight bytes.
fn frame_seq(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[..8].try_into().expect("seq prefix"))
}

/// Reliable-delivery state for one node, active only when
/// [`MrtsConfig::net_fault`] is set (fault-free runs bypass the layer
/// entirely, so their fast path is untouched).
///
/// Every remote data message (every tag except `AM_TOKEN` / `AM_EXIT` /
/// `AM_ACK`) gets a per-destination sequence number, is buffered until the
/// receiver acknowledges it, and is retransmitted on a bounded-exponential
/// backoff ([`RetryPolicy`]). The receiver acks every arrival, suppresses
/// duplicates, and *releases* frames strictly in per-source sequence
/// order — restoring the per-edge FIFO the fault-free fabric provides, so
/// handler execution under drop/duplicate/reorder faults is exactly-once
/// and in-order, and the mesh comes out byte-identical. The token/exit
/// control ring is deliberately out of scope: it models a reliable
/// control plane and stays out of the race detector's channel FIFOs,
/// whose stamp order faults would otherwise scramble (see `DESIGN.md`
/// §11).
struct NetLayer {
    plan: NetFaultPlan,
    /// Protocol state, sender half: sequence assignment plus the
    /// unacknowledged-frame buffer (see [`crate::relnet`]; the same
    /// state machine `tests/relnet_explore.rs` enumerates).
    tx: ReliableSender,
    /// Protocol state, receiver half: dedup plus in-order release.
    rx: ReliableReceiver,
    /// Backoff deadline per outstanding frame. Physical timing lives
    /// here, outside the deterministic protocol core.
    timers: HashMap<(NodeId, u64), Instant>,
    /// Transmissions deferred by an injected delay/reorder fault:
    /// `(due, dest, tag, frame)`.
    deferred: Vec<(Instant, NodeId, u32, Vec<u8>)>,
    /// Handlers executed on this node, for the kill countdown.
    handlers_run: u64,
    /// This node crashes once `handlers_run` reaches this bound — after
    /// finishing that handler (its sends are in flight, possibly
    /// unacknowledged) but before touching anything else.
    kill_at: Option<u64>,
}

impl NetLayer {
    /// Where the deferred transmission of `(dest, seq)` sits.
    fn deferred_at(&self, dest: NodeId, seq: u64) -> Option<usize> {
        (self.deferred.iter()).position(|(_, d, _, frame)| *d == dest && frame_seq(frame) == seq)
    }

    /// Deferred frames and retransmit timers whose time has come by the
    /// wall clock, flushes first.
    fn due_by_clock(&self, now: Instant) -> Vec<Due> {
        let flushes = (self.deferred.iter())
            .filter(|(t, ..)| *t <= now)
            .map(|(_, dest, _, frame)| Due::Flush(*dest, frame_seq(frame)));
        let timers = (self.timers.iter())
            .filter(|(_, t)| **t <= now)
            .map(|(&(dest, seq), _)| Due::Timer(dest, seq));
        flushes.chain(timers).collect()
    }

    /// Retransmissions that follow [`ENGINE_RETRY`]'s fast backoff: enough
    /// for the bounded-drop guarantee to land both a frame and its ack
    /// with margin.
    fn fast_retransmits(&self) -> u32 {
        ENGINE_RETRY.max_attempts + 2 * self.plan.max_drops_per_msg
    }

    /// Retransmissions before a destination is declared unreachable: the
    /// fast ones, then [`PATIENT_RETRANSMITS`] more, so only a peer silent
    /// for longer than any handler runs ever exhausts it.
    fn attempt_limit(&self) -> u32 {
        self.fast_retransmits() + PATIENT_RETRANSMITS
    }

    /// Backoff before the timer of `seq` fires for the `attempt`-th time
    /// (1-based).
    fn backoff(&self, attempt: u32, seq: u64) -> Duration {
        if attempt <= self.fast_retransmits() {
            ENGINE_RETRY.delay(attempt, seq)
        } else {
            PATIENT_BACKOFF
        }
    }
}

struct Worker {
    node: NodeId,
    n_nodes: usize,
    cfg: MrtsConfig,
    registry: std::sync::Arc<Registry>,
    ep: Endpoint,
    /// The node's out-of-core and control layers: object table, budget,
    /// locality, load queue and prefetch window, directory, routing,
    /// migration, node statistics and the audit sink. This worker is its
    /// driver (see [`Worker::drain`], [`Worker::on_net`], [`Worker::on_io`]).
    core: NodeCore,
    ready: VecDeque<ObjectId>,
    io_tx: channel::Sender<IoReq>,
    io_rx: channel::Receiver<IoDone>,
    outstanding_io: usize,
    backend: Box<dyn TaskBackend>,
    next_obj_seq: u64,
    safra: Safra,
    done: bool,
    /// Reliable-delivery layer; `Some` only under a net-fault plan.
    net: Option<NetLayer>,
    /// Crashed by the plan's `kill_node`: silent until the exit broadcast.
    dead: bool,
    /// A degraded-mode health probe is in the I/O pool.
    probe_inflight: bool,
    /// First unrecoverable storage failure seen by this node.
    fatal: Option<MrtsError>,
    /// Every nondeterministic read, recorded or replayed.
    inputs: Inputs,
    /// Round-robin victim selection for work stealing.
    victim_cursor: VictimCursor,
    /// Consecutive empty idle polls; a steal fires only after
    /// [`Self::STEAL_PATIENCE`] of them, so transient gaps don't migrate work.
    empty_polls: u32,
    /// Consecutive denials since the last successful steal or local
    /// handler run; at `n_nodes - 1` every peer said no and requests stop
    /// until new work arrives (otherwise an all-idle fabric would trade
    /// steal requests forever and Safra could never terminate).
    deny_streak: u32,
    #[cfg(any(feature = "audit", debug_assertions))]
    race: Option<std::sync::Arc<crate::audit::RaceDetector>>,
}

/// Footprint of one [`IoReq::StoreBatch`], in spill-log segments: an
/// eviction larger than this goes to the pool as several requests.
const STORE_REQ_SEGMENTS: usize = 4;

/// The threaded engine's *now* for the node core. Handlers have returned
/// by the time the control loop consults the core, so no object is ever
/// still busy "until later": every time is zero.
const NOW: Duration = Duration::ZERO;

impl Worker {
    fn comm_charge(&mut self, bytes: usize) {
        self.core.stats.comm += self.cfg.net.transfer_time(bytes);
    }

    /// Happens-before edge out: stamp this node's vector clock onto the
    /// (self → to) channel. Must pair 1:1 with fabric sends so the
    /// detector's channel FIFOs stay aligned with the fabric's.
    #[allow(unused_variables)]
    fn race_send(&self, to: NodeId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        {
            if let Some(r) = self.race.as_ref() {
                r.on_send(self.node, to);
            }
        }
    }

    /// Happens-before edge in: join the sender's stamp from the
    /// (from → self) channel.
    #[allow(unused_variables)]
    fn race_recv(&self, from: NodeId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        {
            if let Some(r) = self.race.as_ref() {
                r.on_recv(self.node, from);
            }
        }
    }

    /// Record a (write) access to a mobile object's bytes by this worker
    /// thread. Every touch of object state — handler execution, pack for
    /// spill or migration, unpack on load or install — is a write from the
    /// detector's point of view.
    #[allow(unused_variables)]
    fn race_access(&self, oid: ObjectId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        {
            if let Some(r) = self.race.as_ref() {
                r.on_access(self.node, oid, true);
            }
        }
    }

    fn am(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        let bytes = payload.len();
        if self.net.is_some() && dest != self.node {
            if tag == AM_TOKEN || tag == AM_EXIT {
                // Control ring: modeled as a reliable control plane (out of
                // fault scope) and kept out of the race detector's channel
                // FIFOs, whose stamp order would no longer match the data
                // stream's under faults.
                self.ep.am_send(dest, tag, payload);
                self.comm_charge(bytes);
                return;
            }
            // Reliable-delivery path. Safra, the race detector, and the
            // comm meter account the *logical* send exactly once, here —
            // retransmits and duplicate copies are invisible to them.
            self.race_send(dest);
            self.comm_charge(bytes);
            self.safra.on_send();
            self.net_send(dest, tag, payload);
            return;
        }
        self.race_send(dest);
        self.ep.am_send(dest, tag, payload);
        if dest != self.node {
            self.comm_charge(bytes);
            if tag != AM_TOKEN && tag != AM_EXIT {
                self.safra.on_send();
            }
        }
    }

    // ----- reliable delivery (net-fault runs) -------------------------------

    /// Assign the next sequence number on the `self → dest` edge, record
    /// the frame for retransmission, and physically transmit it.
    fn net_send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        let (seq, frame) = {
            let net = self.net.as_mut().expect("net layer");
            let (seq, frame) = net.tx.next_frame(dest, tag, &payload);
            let due = Instant::now() + net.backoff(1, seq);
            net.timers.insert((dest, seq), due);
            (seq, frame)
        };
        self.transmit(dest, tag, seq, frame, 0);
    }

    /// One physical transmission, subject to the fault plan. Drops,
    /// duplicates and delays are injected here — below the logical
    /// accounting, so they only show up as retransmits and suppressed
    /// duplicates, never as semantics.
    fn transmit(&mut self, dest: NodeId, tag: u32, seq: u64, frame: Vec<u8>, attempt: u32) {
        let plan = self.net.as_ref().expect("net layer").plan;
        let d = plan.decide(self.node, dest, seq, attempt);
        if d.drop {
            self.core.stats.messages_dropped += 1;
            audit_emit!(
                self.core.audit,
                RuntimeEvent::NetFault {
                    node: self.node,
                    dest,
                    kind: NetFaultKind::Drop
                }
            );
            return;
        }
        if d.duplicate {
            audit_emit!(
                self.core.audit,
                RuntimeEvent::NetFault {
                    node: self.node,
                    dest,
                    kind: NetFaultKind::Duplicate
                }
            );
            self.ep.am_send(dest, tag, frame.clone());
        }
        if d.delay.is_zero() {
            self.ep.am_send(dest, tag, frame);
        } else {
            #[allow(unused_variables)] // consumed only by audit_emit!
            let kind = if d.delay > plan.delay {
                NetFaultKind::Reorder
            } else {
                NetFaultKind::Delay
            };
            audit_emit!(
                self.core.audit,
                RuntimeEvent::NetFault {
                    node: self.node,
                    dest,
                    kind
                }
            );
            self.net.as_mut().expect("net layer").deferred.push((
                Instant::now() + d.delay,
                dest,
                tag,
                frame,
            ));
        }
    }

    /// Arrival of a reliable-layer frame: ack it, dedup it, hold it for
    /// in-order release. Handler execution happens only at release, so a
    /// duplicated or reordered transmission can never run a handler twice
    /// or out of order.
    fn on_net_arrival(&mut self, am: ActiveMessage) {
        let src = am.src;
        let seq = frame_seq(&am.payload);
        // Ack every arrival, duplicates included: the previous ack may
        // have raced the sender's retransmit timer.
        self.core.stats.acks_sent += 1;
        self.comm_charge(8);
        self.ep.am_send(src, AM_ACK, seq.to_le_bytes().to_vec());
        let accepted = self.net.as_mut().expect("net layer").rx.accept(
            src,
            seq,
            am.handler,
            am.payload[8..].to_vec(),
        );
        if !accepted {
            self.core.stats.dup_suppressed += 1;
            audit_emit!(
                self.core.audit,
                RuntimeEvent::DupSuppressed {
                    node: self.node,
                    src,
                    seq
                }
            );
            return;
        }
        // Release every consecutive frame from the watermark up.
        while let Some((tag, payload)) = self.net.as_mut().expect("net layer").rx.next_release(src)
        {
            self.release(src, tag, &payload);
            if self.done {
                break;
            }
        }
    }

    /// In-order release of one logical message: every fault-free receive
    /// effect (happens-before edge, Safra counter, comm charge, handler
    /// dispatch) happens here, exactly once per logical message.
    fn release(&mut self, src: NodeId, tag: u32, payload: &[u8]) {
        self.race_recv(src);
        self.safra.on_deliver();
        self.comm_charge(payload.len());
        self.on_frame(src, tag, payload);
    }

    /// Crash this node if the plan's kill countdown has expired.
    fn check_kill(&mut self) -> bool {
        if self.dead {
            return true;
        }
        if let Some(net) = self.net.as_ref() {
            if net.kill_at.is_some_and(|k| net.handlers_run >= k) {
                self.dead = true;
            }
        }
        self.dead
    }

    /// Drive the reliable layer's timers: flush the deferred (delayed)
    /// transmissions and fire the retransmit timers the input gateway
    /// says are due, escalating once a peer exhausts the retry budget.
    fn net_pump(&mut self) {
        let Some(net) = self.net.as_ref() else { return };
        if self.dead || self.done {
            return;
        }
        let now = Instant::now();
        for due in self.inputs.due(net, now) {
            match due {
                Due::Flush(dest, seq) => {
                    let net = self.net.as_mut().expect("net layer");
                    if let Some(i) = net.deferred_at(dest, seq) {
                        let (_, dest, tag, frame) = net.deferred.swap_remove(i);
                        self.ep.am_send(dest, tag, frame);
                    }
                }
                Due::Timer(dest, seq) => {
                    self.fire_timer(dest, seq, now);
                    if self.done {
                        break; // a give-up brought the run down
                    }
                }
            }
        }
    }

    /// One retransmit timer is due: ask the protocol state what that
    /// means and do it (re-arm and retransmit, or give up and escalate).
    fn fire_timer(&mut self, dest: NodeId, seq: u64, now: Instant) {
        let net = self.net.as_mut().expect("net layer");
        let limit = net.attempt_limit();
        let action = net.tx.on_timer(dest, seq, limit);
        match &action {
            TimerAction::Retransmit { attempt, .. } => {
                let due = now + net.backoff(attempt + 1, seq);
                net.timers.insert((dest, seq), due);
            }
            TimerAction::Acked | TimerAction::GiveUp { .. } => {
                net.timers.remove(&(dest, seq));
            }
        }
        match action {
            TimerAction::Acked => {}
            TimerAction::GiveUp {
                tag,
                frame,
                attempts,
            } => self.escalate(dest, tag, &frame, attempts),
            TimerAction::Retransmit {
                tag,
                frame,
                attempt,
            } => {
                self.core.stats.retransmits += 1;
                audit_emit!(
                    self.core.audit,
                    RuntimeEvent::Retransmit {
                        node: self.node,
                        dest,
                        seq,
                        attempt
                    }
                );
                self.transmit(dest, tag, seq, frame, attempt);
            }
        }
    }

    /// A peer exhausted the retransmit budget — under the bounded-drop
    /// guarantee that means it is dead, or the hint that routed us there
    /// is stale. Cancel the logical send (restoring the global Safra sum)
    /// and either let the core re-route the message on what routing state
    /// survives ([`NodeCore::reroute`]) or declare the peer unreachable.
    fn escalate(&mut self, dest: NodeId, tag: u32, frame: &[u8], attempts: u32) {
        self.safra.on_cancel();
        let rerouted = match NetMsg::decode(tag, &frame[8..]) {
            // A lazy hint push is an optimization; losing one is safe.
            Ok(NetMsg::DirUpdate { .. }) => return,
            Ok(NetMsg::Msg(msg)) => self.core.reroute(msg, dest, NOW),
            _ => false,
        };
        if rerouted {
            self.drain();
        } else {
            // Unrecoverable: the peer is gone and the in-flight message
            // cannot be re-routed.
            self.fail(MrtsError::NodeUnreachable {
                node: self.node,
                dest,
                attempts,
            });
        }
    }

    /// Record the first unrecoverable error of this node and bring the
    /// whole computation down: every peer gets an exit.
    fn fail(&mut self, err: MrtsError) {
        self.fatal.get_or_insert(err);
        for n in 0..self.n_nodes as NodeId {
            if n != self.node {
                self.am(n, AM_EXIT, vec![]);
            }
        }
        self.done = true;
        audit_emit!(self.core.audit, RuntimeEvent::Terminate { node: self.node });
    }

    // ----- message dispatch -------------------------------------------------

    fn on_fabric(&mut self, am: ActiveMessage) {
        if self.net.is_some() && am.src != self.node {
            match am.handler {
                AM_ACK => {
                    let seq = u64::from_le_bytes(am.payload[..8].try_into().expect("ack seq"));
                    let net = self.net.as_mut().expect("net layer");
                    net.tx.on_ack(am.src, seq);
                    net.timers.remove(&(am.src, seq));
                    return;
                }
                // Control ring: delivered directly, no race stamp (see
                // `am`).
                AM_TOKEN | AM_EXIT => {}
                _ => {
                    self.on_net_arrival(am);
                    return;
                }
            }
        } else {
            self.race_recv(am.src);
        }
        if am.src != self.node && am.handler != AM_TOKEN && am.handler != AM_EXIT {
            self.safra.on_deliver();
            self.comm_charge(am.payload.len());
        }
        match am.handler {
            AM_TOKEN => {
                self.safra.on_token(
                    am.payload[0] != 0,
                    i64::from_le_bytes(
                        am.payload[1..9]
                            .try_into()
                            .expect("ring token payload is 9 bytes"),
                    ),
                );
            }
            AM_EXIT => {
                self.done = true;
                audit_emit!(self.core.audit, RuntimeEvent::Terminate { node: self.node });
            }
            other => self.on_frame(am.src, other, &am.payload),
        }
    }

    /// One data frame (every tag except TOKEN/EXIT/ACK). Under the reliable
    /// layer this runs exactly once per logical message, at in-order
    /// release. A frame outside the [`NetMsg`] vocabulary fails the run
    /// with a typed error.
    fn on_frame(&mut self, src: NodeId, tag: u32, payload: &[u8]) {
        match NetMsg::decode(tag, payload) {
            Ok(msg) => self.on_net(msg),
            Err(_) => self.fail(MrtsError::BadFrame {
                node: self.node,
                src,
                tag,
            }),
        }
    }

    /// Hand one message to the core — off the fabric, or a local send
    /// looped back — and carry out what it decided. What is this engine's
    /// own: the race detector sees an install's unpack, the steal trigger
    /// learns how its request was answered, and a steal request is
    /// answered with this engine's pick.
    fn on_net(&mut self, msg: NetMsg) {
        let installed = match &msg {
            NetMsg::Install(install) => Some(install.oid),
            _ => None,
        };
        let was_asking = self.core.awaiting_steal;
        let thief = self.core.on_net(msg, NOW, &self.registry);
        if let Some(oid) = installed {
            self.race_access(oid);
        }
        if was_asking && !self.core.awaiting_steal {
            // A grant re-arms the thief; a denial counts toward giving up.
            self.deny_streak = match installed {
                Some(_) => 0,
                None => self.deny_streak + 1,
            };
        }
        if let Some(thief) = thief {
            self.answer_steal(thief);
        }
        self.drain();
    }

    // ----- driving the node core ----------------------------------------------

    /// Carry out what the core decided since the last drain, in its
    /// order: pack/unpack time is charged as compute, newly runnable
    /// objects join the ready queue, messages go on the fabric — a local
    /// one loops straight back into [`Worker::on_net`], which drains what
    /// *it* produces before the next entry is looked at, so local traffic
    /// is handled depth-first and synchronously — and I/O goes to the
    /// pool. Called after every core transition that can produce any of
    /// them.
    fn drain(&mut self) {
        for (wall, _) in self.core.codec_work.drain(..) {
            self.core.stats.comp += wall;
        }
        self.ready.extend(self.core.runnable.drain(..));
        if !self.core.out.is_empty() {
            let mut out = std::mem::take(&mut self.core.out);
            for (dest, msg, _) in out.drain(..) {
                if dest == self.node {
                    self.on_net(msg);
                    continue;
                }
                if let NetMsg::Install(install) = &msg {
                    // The object was packed and is gone from this node.
                    self.left_core(install.oid);
                }
                self.am(dest, msg.tag(), msg.encode());
            }
            debug_assert!(
                self.core.out.is_empty(),
                "loop-backs drain what they produce"
            );
            self.core.out = out;
        }
        self.flush_io();
    }

    /// Perform the I/O the core asked for since the last flush: hand
    /// stores and loads to the I/O pool (pack and unpack run there, off
    /// this control thread) and keep the run queue and the race detector
    /// in step with objects that left core. Called after every core
    /// transition that can evict or load.
    fn flush_io(&mut self) {
        if self.core.cmds.is_empty() {
            return;
        }
        let mut cmds = std::mem::take(&mut self.core.cmds);
        for cmd in cmds.drain(..) {
            match cmd {
                IoCmd::Elided(oid) => self.left_core(oid),
                IoCmd::Store(items) => {
                    // One request per few segments of footprint (one
                    // object at least), each answered on its own: the pack
                    // buffers a pool thread holds at once follow
                    // `segment_bytes`, not the size of the eviction.
                    let limit = STORE_REQ_SEGMENTS * self.cfg.segment_bytes;
                    let mut batch = Vec::new();
                    let mut bytes = 0;
                    for (key, oid, obj) in items {
                        self.left_core(oid);
                        let footprint = self.core.entry(oid).footprint;
                        if !batch.is_empty() && bytes + footprint > limit {
                            self.send_store(std::mem::take(&mut batch));
                            bytes = 0;
                        }
                        bytes += footprint;
                        batch.push((key, oid, obj));
                    }
                    self.send_store(batch);
                }
                IoCmd::Load { key, oid, .. } => {
                    self.outstanding_io += 1;
                    self.io_tx
                        .send(IoReq::Load { key, oid })
                        .expect("I/O pool outlives the worker");
                }
                IoCmd::SetRanks(ranks) => {
                    // Fire-and-forget: no IoDone reply, no outstanding_io
                    // accounting.
                    self.io_tx
                        .send(IoReq::SetRanks(ranks))
                        .expect("I/O pool outlives the worker");
                }
            }
        }
        self.core.cmds = cmds;
    }

    fn send_store(&mut self, items: Vec<(u64, ObjectId, Box<dyn MobileObject>)>) {
        self.outstanding_io += 1;
        self.io_tx
            .send(IoReq::StoreBatch { items })
            .expect("I/O pool outlives the worker");
    }

    /// `oid` was evicted or migrated away: its bytes were touched
    /// (dropped, handed to the pool, or packed), and it is no longer
    /// runnable.
    fn left_core(&mut self, oid: ObjectId) {
        self.race_access(oid);
        self.ready.retain(|&r| r != oid);
    }

    /// Feed one I/O-pool completion back into the core. The pool's own
    /// measurements (busy time, pack/unpack time, retries, injected
    /// faults) are this engine's to count; what the completion *means* for
    /// residency is the core's.
    fn on_io(&mut self, done: IoDone) {
        self.outstanding_io -= 1;
        match done {
            IoDone::StoredBatch {
                items,
                io_dur,
                pack_dur,
                retries,
                faults,
                pool_hits,
                reorders,
            } => {
                self.core.stats.disk += io_dur;
                self.core.stats.comp += pack_dur;
                self.core.stats.io_retries += retries as usize;
                self.core.stats.faults_injected += faults;
                self.core.stats.buffer_pool_hits += pool_hits;
                self.core.stats.compaction_reorders += reorders;
                for (oid, packed_len) in items {
                    self.core.store_landed(oid, packed_len);
                }
            }
            IoDone::StoreBatchFailed {
                items,
                io_dur,
                pack_dur,
                retries,
                faults,
            } => {
                self.core.stats.disk += io_dur;
                self.core.stats.comp += pack_dur;
                self.core.stats.io_retries += retries as usize;
                self.core.stats.faults_injected += faults;
                self.core.stats.io_gave_up += 1;
                // Whole-batch failure: a prefix of the batch may have
                // landed, but no record is trusted — every object goes
                // back in core, marked dirty, before any of them moves on.
                let oids: Vec<ObjectId> = items.iter().map(|(oid, _)| *oid).collect();
                for (oid, obj) in items {
                    self.core.store_failed(oid, obj);
                    self.race_access(oid);
                }
                for oid in oids {
                    self.core.resume(oid, NOW);
                }
                self.drain();
            }
            IoDone::LoadFailed {
                oid,
                error,
                attempts,
                retries,
                faults,
            } => {
                self.core.stats.io_retries += retries as usize;
                self.core.stats.faults_injected += faults;
                self.core.load_failed(oid);
                // Unrecoverable: the object exists nowhere else.
                self.fail(MrtsError::LoadFailed {
                    node: self.node,
                    oid,
                    attempts,
                    source: error,
                });
            }
            IoDone::Probed { ok, faults } => {
                self.probe_inflight = false;
                self.core.stats.faults_injected += faults;
                if ok {
                    self.core.leave_degraded(NOW);
                    self.flush_io();
                }
            }
            IoDone::Loaded {
                oid,
                obj,
                packed_len,
                io_dur,
                unpack_dur,
                retries,
                faults,
                seg_reads,
                seg_switches,
            } => {
                self.core.stats.disk += io_dur;
                self.core.stats.comp += unpack_dur;
                self.core.stats.io_retries += retries as usize;
                self.core.stats.faults_injected += faults;
                self.core.stats.segment_reads += seg_reads as usize;
                self.core.stats.segment_switches += seg_switches as usize;
                // Overlap classification: a load that completes while
                // resident work remains was masked by computation.
                let miss = self.ready.is_empty();
                self.core.complete_load(oid, obj, packed_len, miss);
                self.race_access(oid);
                self.core.resume(oid, NOW);
                self.drain();
            }
        }
    }

    // ----- handler execution -----------------------------------------------------

    /// Execute one queued message of one ready object. Returns false if no
    /// work was available.
    fn step(&mut self) -> bool {
        // Entries gone stale since they were queued (evicted, migrated,
        // drained through an earlier entry) are skipped.
        let (oid, (mut obj, old_footprint, msg)) = loop {
            let Some(oid) = self.ready.pop_front() else {
                return false;
            };
            if let Some(taken) = self.core.begin_handler(oid) {
                break (oid, taken);
            }
        };
        self.race_access(oid);

        let handler = self.registry.handler(msg.handler);
        let src = *msg.route.first().unwrap_or(&self.node);
        let mut next_seq = self.next_obj_seq;
        let mut ctx = Ctx::new(self.node, msg.to, src, &mut next_seq, self.backend.as_mut());
        let t0 = Instant::now();
        handler(obj.as_mut(), &mut ctx, &msg.payload);
        let dur = t0.elapsed();
        self.core.stats.comp += dur;
        // Handler time with storage ops in flight is measured I/O–compute
        // overlap (the paper's headline quantity).
        if self.outstanding_io > 0 {
            self.core.stats.overlapped += dur;
        }
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        self.next_obj_seq = next_seq;
        self.core
            .finish_handler(oid, obj, old_footprint, &effects, NOW);
        if !self.core.entry(oid).queue.is_empty() {
            self.ready.push_back(oid);
        }
        self.core.apply_effects(effects, NOW);
        self.drain();
        // Hard budget enforcement (handlers grow objects in place), then
        // advisory soft-threshold swapping.
        self.core.enforce_budget(None, NOW);
        self.core.soft_swap(NOW);
        self.flush_io();
        true
    }

    // ----- work stealing ----------------------------------------------------

    /// Steal patience: how many consecutive idle observations a node
    /// accumulates before it issues a steal request. Small values steal
    /// eagerly (lower idle time, more migration traffic); large values
    /// only steal under sustained starvation.
    const STEAL_PATIENCE: u32 = 2;

    /// Victim side of the steal protocol: pick and answer. This engine's
    /// backlog sits in the queues of resident objects, so those are the
    /// eligible ones. The pick is a total order over the core's state,
    /// which the inputs determine, so a replay picks the same object.
    fn answer_steal(&mut self, thief: NodeId) {
        match self.core.steal_pick(Entry::is_in_core) {
            Some(oid) => self.core.grant_steal(oid, thief, NOW),
            None => self.core.deny_steal(thief, NOW),
        }
    }

    /// Thief side: fire one steal request if this node has been idle for
    /// [`Self::STEAL_PATIENCE`] empty polls and peers remain untried. The
    /// empty polls are logged inputs and the victim comes from a
    /// round-robin cursor, so a replay steals at exactly the recorded
    /// points, from the recorded victims.
    fn maybe_steal(&mut self) {
        if !self.cfg.work_stealing
            || self.n_nodes < 2
            || self.done
            || self.dead
            || self.core.awaiting_steal
            || !self.ready.is_empty()
            || self.outstanding_io > 0
            || self.core.has_pending_loads()
            || (self.deny_streak as usize) >= self.n_nodes - 1
            || self.empty_polls < Self::STEAL_PATIENCE
        {
            return;
        }
        let Some(victim) = self.victim_cursor.next_victim(self.node, self.n_nodes) else {
            return;
        };
        self.core.request_steal(victim, NOW);
        self.drain();
    }

    // ----- termination ------------------------------------------------------------

    fn idle(&self) -> bool {
        self.ready.is_empty()
            && self.outstanding_io == 0
            && !self.core.has_pending_loads()
            // A thief awaiting a steal answer is not quiet: the granted
            // install (or the deny) is still in flight toward it.
            && !self.core.awaiting_steal
            // Under faults a node with an unacked message, a deferred
            // transmission, or a held-back frame is *not* quiet: Safra must
            // never see it idle, or termination could be declared with a
            // retransmit still owed. (The counter sum already protects the
            // released/unacked window; these checks close the rest.)
            && self.net.as_ref().is_none_or(|n| {
                n.tx.outstanding() == 0 && n.deferred.is_empty() && n.rx.held_frames() == 0
            })
    }

    fn send_token(&mut self, to: NodeId, black: bool, q: i64) {
        let mut payload = vec![u8::from(black)];
        payload.extend_from_slice(&q.to_le_bytes());
        self.am(to, AM_TOKEN, payload);
    }

    /// Safra's algorithm, when idle: [`Safra::on_idle`] decides the ring
    /// step; this sends the token or, on quiescence, the exit.
    fn try_pass_token(&mut self) {
        if !self.idle() {
            return;
        }
        match self.safra.on_idle(self.node, self.n_nodes) {
            RingStep::Wait => {}
            RingStep::Pass { to, black, q } => self.send_token(to, black, q),
            RingStep::Terminate => {
                for n in 1..self.n_nodes as NodeId {
                    self.am(n, AM_EXIT, vec![]);
                }
                self.done = true;
                audit_emit!(self.core.audit, RuntimeEvent::Terminate { node: self.node });
            }
        }
    }

    /// While degraded, keep one health probe of the spill store in the
    /// I/O pool; its completion decides whether to exit degraded mode.
    fn maybe_probe(&mut self) {
        if self.core.ooc.is_degraded() && !self.probe_inflight && !self.done {
            self.probe_inflight = true;
            self.outstanding_io += 1;
            self.io_tx.send(IoReq::Probe).ok();
        }
    }

    fn run(mut self) -> WorkerResult {
        while !self.done {
            // 0. A transition since the last turn broke a per-node
            //    invariant (debug builds): bring the run down with it.
            if let Some(v) = self.core.violation.take() {
                self.fail(MrtsError::Invariant(v));
                break;
            }
            // 1. Drain the fabric.
            while let Some(am) = self.inputs.fabric(&mut self.ep, false) {
                self.on_fabric(am);
                if self.done || self.dead {
                    break;
                }
            }
            if self.dead {
                return self.run_dead();
            }
            if self.done {
                break;
            }
            // 2. Reliable-delivery timers: deferred transmissions and
            //    retransmit backoffs (no-op without a net-fault plan).
            self.net_pump();
            if self.done {
                break;
            }
            // 3. Drain I/O completions.
            while let Some(done) = self.inputs.io(&self.io_rx, false) {
                self.on_io(done);
            }
            // 4. Issue queued loads under the prefetch window, so the disk
            //    streams while step() executes resident work.
            self.core.pump_loads(!self.ready.is_empty(), NOW);
            self.flush_io();
            self.maybe_probe();
            // 5. Execute one handler.
            if self.step() {
                // Local progress re-arms the steal heuristics.
                self.empty_polls = 0;
                self.deny_streak = 0;
                if self.net.is_some() {
                    self.net.as_mut().expect("net layer").handlers_run += 1;
                    if self.check_kill() {
                        return self.run_dead();
                    }
                }
                continue;
            }
            // 6. Idle: try to steal work, run the termination protocol,
            //    then block briefly. The blocking poll is the engine's
            //    idle-time measurement point: nothing ready, nothing in
            //    the I/O pool, just waiting on peers.
            self.maybe_steal();
            self.try_pass_token();
            if self.done {
                break;
            }
            let t_idle = Instant::now();
            let am = self.inputs.fabric(&mut self.ep, true);
            self.core.stats.idle += t_idle.elapsed();
            match am {
                Some(am) => {
                    self.empty_polls = 0;
                    self.on_fabric(am);
                    if self.dead {
                        return self.run_dead();
                    }
                }
                None => {
                    self.core.stats.idle_ticks += 1;
                    self.empty_polls += 1;
                }
            }
        }
        // Drain outstanding I/O: every store has landed (or failed back
        // into core) before the table is handed over.
        while self.outstanding_io > 0 {
            match self.inputs.io(&self.io_rx, true) {
                Some(done) => self.on_io(done),
                None => break, // pool gone; nothing more will arrive
            }
            self.core.pump_loads(!self.ready.is_empty(), NOW);
            self.flush_io();
        }
        audit_emit!(
            self.core.audit,
            RuntimeEvent::Shutdown {
                node: self.node,
                used: self.core.ooc.used()
            }
        );
        // Sealed while the table is still whole: debug builds check the
        // books against it.
        self.core.seal_stats();
        if let Some(v) = self.core.violation.take() {
            self.fatal.get_or_insert(MrtsError::Invariant(v));
        }
        // Nothing is loaded for extraction: what is on disk stays there,
        // and the runtime reads it from this node's store on demand.
        for _ in 0..self.cfg.io_threads {
            self.io_tx.send(IoReq::Shutdown).ok();
        }
        let decisions = self.inputs.finish(&mut self.core.stats, false);
        WorkerResult {
            node: self.node,
            core: self.core,
            next_seq: self.next_obj_seq,
            fatal: self.fatal,
            decisions,
        }
    }

    /// Crashed-node mode (`NetFaultPlan::kill_node`): the worker goes
    /// silent — no sends, no acks, no handler execution — and merely
    /// drains its inbox until a survivor's retransmit exhaustion escalates
    /// into an exit broadcast that releases the thread. Its objects are
    /// lost with it, exactly like a real node crash; recovery is the
    /// checkpoint subsystem's job (see `crate::checkpoint` and
    /// `tests/chaos.rs`).
    fn run_dead(mut self) -> WorkerResult {
        audit_emit!(self.core.audit, RuntimeEvent::Terminate { node: self.node });
        // A crash truncates the schedule by design: nothing more is
        // logged, and what the log still holds is not a divergence. Held
        // frames and completions are answered first, then live ones.
        let decisions = self.inputs.finish(&mut self.core.stats, true);
        loop {
            // Keep the I/O pool from backing up while we linger.
            while self.inputs.io(&self.io_rx, false).is_some() {
                self.outstanding_io = self.outstanding_io.saturating_sub(1);
            }
            // Anything but the exit is discarded unanswered — the node is
            // gone.
            let am = self.inputs.fabric(&mut self.ep, true);
            if am.is_some_and(|am| am.handler == AM_EXIT) {
                break;
            }
        }
        while self.outstanding_io > 0 && self.inputs.io(&self.io_rx, true).is_some() {
            self.outstanding_io -= 1;
        }
        for _ in 0..self.cfg.io_threads {
            self.io_tx.send(IoReq::Shutdown).ok();
        }
        self.core.seal_stats();
        // The node's objects are lost with it.
        self.core.table.clear();
        WorkerResult {
            node: self.node,
            core: self.core,
            next_seq: self.next_obj_seq,
            fatal: None,
            decisions,
        }
    }
}

struct WorkerResult {
    node: NodeId,
    /// The node's core as the control loop left it: its table says where
    /// each object is (resident, or the key it sits under in the store).
    core: NodeCore,
    next_seq: u64,
    fatal: Option<MrtsError>,
    /// This worker's decision stream (record mode only; empty otherwise).
    decisions: Vec<Decision>,
}

/// Bounded pool of reusable pack buffers shared by one node's I/O pool
/// workers: at most `max` idle buffers are kept, the rest are dropped.
struct BufferPool {
    /// Leaf lock: held only to pop or push one buffer.
    bufs: parking_lot::Mutex<Vec<Vec<u8>>>,
    max: usize,
}

impl BufferPool {
    fn new(max: usize) -> Self {
        BufferPool {
            bufs: parking_lot::Mutex::new(Vec::new()),
            max,
        }
    }

    /// A buffer to pack into, plus whether it came from the pool (its
    /// capacity is reused — no fresh allocation on the hot path).
    fn get(&self) -> (Vec<u8>, bool) {
        match self.bufs.lock().pop() {
            Some(b) => (b, true),
            None => (Vec::new(), false),
        }
    }

    fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut g = self.bufs.lock();
        if g.len() < self.max {
            g.push(buf);
        }
    }
}

/// Spawn the node's I/O pool: `n_threads` workers sharing one spill store
/// behind a mutex. Pack/unpack run on the pool **outside** the store lock,
/// so serialization of one object overlaps the disk op of another and the
/// node's control thread never blocks on either. Pack buffers are drawn
/// from a bounded [`BufferPool`] and recycled after each store — and load
/// result buffers feed back into it. The store is handed back as well: it
/// outlives the pool, and the runtime reads spilled results from it.
fn spawn_io_pool(
    node: NodeId,
    store: Box<dyn StorageBackend>,
    registry: std::sync::Arc<Registry>,
    n_threads: usize,
    audit: Option<std::sync::Arc<dyn crate::audit::EventSink>>,
) -> (
    channel::Sender<IoReq>,
    channel::Receiver<IoDone>,
    Vec<std::thread::JoinHandle<()>>,
    SharedStore,
) {
    let retry = ENGINE_RETRY;
    let (req_tx, req_rx) = channel::unbounded::<IoReq>();
    let (done_tx, done_rx) = channel::unbounded::<IoDone>();
    let store = shared_store(store);
    let pool = std::sync::Arc::new(BufferPool::new(n_threads * 2 + 2));
    let mut handles = Vec::with_capacity(n_threads);
    for t in 0..n_threads {
        let req_rx = req_rx.clone();
        let done_tx = done_tx.clone();
        let store = store.clone();
        let pool = pool.clone();
        let registry = registry.clone();
        let audit = audit.clone();
        let handle = std::thread::Builder::new()
            .name(format!("mrts-io-{t}"))
            .spawn(move || {
                while let Ok(req) = req_rx.recv() {
                    match req {
                        IoReq::StoreBatch { items } => {
                            // Pack every object into a pooled buffer, then
                            // land the whole batch through one
                            // `store_batch` call under one lock hold: a
                            // single coalesced append on the segment log
                            // (an eviction of one object is a batch of one).
                            let t0 = Instant::now();
                            let mut pool_hits = 0usize;
                            let mut packed: Vec<(u64, Vec<u8>, ObjectId)> =
                                Vec::with_capacity(items.len());
                            for (key, oid, obj) in items {
                                let (mut buf, hit) = pool.get();
                                pool_hits += usize::from(hit);
                                Registry::pack_into(obj.as_ref(), &mut buf);
                                drop(obj);
                                packed.push((key, buf, oid));
                            }
                            let pack_dur = t0.elapsed();
                            let first = packed[0].2;
                            let t1 = Instant::now();
                            let mut retries = 0u32;
                            let mut faults = 0usize;
                            let mut reorders = 0usize;
                            let mut attempt = 0u32;
                            // Retry with real backoff sleeps (outside the
                            // store lock). A torn write is repaired by the
                            // retry overwriting the same keys: per-key
                            // ordering means no load races these stores.
                            let outcome = loop {
                                attempt += 1;
                                let pairs: Vec<(u64, &[u8])> =
                                    packed.iter().map(|(k, b, _)| (*k, b.as_slice())).collect();
                                let (res, fr, cr) = {
                                    let mut s = store.lock();
                                    let res = s.store_batch(&pairs);
                                    // Drained unconditionally so the backend's
                                    // report buffers never accumulate.
                                    (res, s.take_fault_reports(), s.take_compaction_reports())
                                };
                                faults += fr.len();
                                reorders += count_reorders(&cr);
                                emit_faults(node, &fr, &audit);
                                emit_compactions(node, &cr, &audit);
                                match res {
                                    Ok(()) => break Ok(()),
                                    Err(e) => {
                                        if attempt >= retry.max_attempts || is_out_of_space(&e) {
                                            break Err(e);
                                        }
                                        retries += 1;
                                        emit_retry(node, first, attempt, &audit);
                                        std::thread::sleep(retry.delay(attempt, packed[0].0));
                                    }
                                }
                            };
                            let io_dur = t1.elapsed();
                            let done = match outcome {
                                Ok(()) => {
                                    let mut out = Vec::with_capacity(packed.len());
                                    for (_, buf, oid) in packed {
                                        out.push((oid, buf.len()));
                                        pool.put(buf);
                                    }
                                    IoDone::StoredBatch {
                                        items: out,
                                        io_dur,
                                        pack_dur,
                                        retries,
                                        faults,
                                        pool_hits,
                                        reorders,
                                    }
                                }
                                Err(_) => IoDone::StoreBatchFailed {
                                    // The store rejected the batch: rebuild
                                    // the objects from the packed bytes so
                                    // the control thread can reinstate them.
                                    items: packed
                                        .iter()
                                        .map(|(_, b, oid)| {
                                            let obj = registry.unpack(b).expect(
                                                "store holds pack output of registered types",
                                            );
                                            (*oid, obj)
                                        })
                                        .collect(),
                                    io_dur,
                                    pack_dur,
                                    retries,
                                    faults,
                                },
                            };
                            done_tx.send(done).ok();
                        }
                        IoReq::Load { key, oid } => {
                            let t0 = Instant::now();
                            let mut retries = 0u32;
                            let mut faults = 0usize;
                            let mut seg_reads = 0u64;
                            let mut seg_switches = 0u64;
                            let mut attempt = 0u32;
                            let outcome = loop {
                                attempt += 1;
                                let (res, fr, rs) = {
                                    let mut s = store.lock();
                                    (s.load(key), s.take_fault_reports(), s.take_read_stats())
                                };
                                faults += fr.len();
                                seg_reads += rs.0;
                                seg_switches += rs.1;
                                emit_faults(node, &fr, &audit);
                                match res {
                                    Ok(b) => break Ok(b),
                                    Err(e) => {
                                        if attempt >= retry.max_attempts {
                                            break Err(e);
                                        }
                                        retries += 1;
                                        emit_retry(node, oid, attempt, &audit);
                                        std::thread::sleep(retry.delay(attempt, key));
                                    }
                                }
                            };
                            let io_dur = t0.elapsed();
                            let done = match outcome {
                                Ok(bytes) => {
                                    let packed_len = bytes.len();
                                    let t1 = Instant::now();
                                    let obj = registry
                                        .unpack(&bytes)
                                        .expect("store holds pack output of registered types");
                                    let unpack_dur = t1.elapsed();
                                    // The loaded allocation feeds the pack
                                    // buffer pool for future stores.
                                    pool.put(bytes);
                                    IoDone::Loaded {
                                        oid,
                                        obj,
                                        packed_len,
                                        io_dur,
                                        unpack_dur,
                                        retries,
                                        faults,
                                        seg_reads,
                                        seg_switches,
                                    }
                                }
                                Err(error) => IoDone::LoadFailed {
                                    oid,
                                    error,
                                    attempts: attempt,
                                    retries,
                                    faults,
                                },
                            };
                            done_tx.send(done).ok();
                        }
                        IoReq::SetRanks(ranks) => {
                            // Fire-and-forget placement hint: no reply.
                            store.lock().set_key_ranks(&ranks);
                        }
                        IoReq::Probe => {
                            let (ok, fr) = {
                                let mut s = store.lock();
                                (s.probe().is_ok(), s.take_fault_reports())
                            };
                            emit_faults(node, &fr, &audit);
                            done_tx
                                .send(IoDone::Probed {
                                    ok,
                                    faults: fr.len(),
                                })
                                .ok();
                        }
                        IoReq::Shutdown => break,
                    }
                }
            })
            .expect("spawn io thread");
        handles.push(handle);
    }
    (req_tx, done_rx, handles, store)
}

/// Forward injected-fault reports from the I/O pool to the audit sink
/// (compiled out without the `audit` feature in release builds).
#[allow(unused_variables)]
fn emit_faults(
    node: NodeId,
    reports: &[crate::fault::FaultReport],
    audit: &Option<std::sync::Arc<dyn crate::audit::EventSink>>,
) {
    #[cfg(any(feature = "audit", debug_assertions))]
    {
        if let Some(sink) = audit.as_ref() {
            for r in reports {
                sink.record(&RuntimeEvent::Fault {
                    node,
                    kind: r.kind,
                    key: r.key,
                });
            }
        }
    }
}

/// Emit a retry event from an I/O pool thread.
#[allow(unused_variables)]
fn emit_retry(
    node: NodeId,
    oid: ObjectId,
    attempt: u32,
    audit: &Option<std::sync::Arc<dyn crate::audit::EventSink>>,
) {
    #[cfg(any(feature = "audit", debug_assertions))]
    {
        if let Some(sink) = audit.as_ref() {
            sink.record(&RuntimeEvent::Retry { node, oid, attempt });
        }
    }
}

/// Forward compaction reports from the I/O pool to the audit sink. The
/// emission body compiles out in release builds without the `audit`
/// feature, but callers drain the reports either way.
#[allow(unused_variables)]
fn emit_compactions(
    node: NodeId,
    reports: &[crate::storage::CompactionReport],
    audit: &Option<std::sync::Arc<dyn crate::audit::EventSink>>,
) {
    #[cfg(any(feature = "audit", debug_assertions))]
    {
        if let Some(sink) = audit.as_ref() {
            for r in reports {
                sink.record(&RuntimeEvent::Compaction {
                    node,
                    live_objects_before: r.live_objects_before,
                    live_objects_after: r.live_objects_after,
                    live_bytes_before: r.live_bytes_before,
                    live_bytes_after: r.live_bytes_after,
                    reclaimed_bytes: r.reclaimed_bytes,
                });
                if r.curve_ordered > 0 {
                    sink.record(&RuntimeEvent::CompactionReorder {
                        node,
                        curve_ordered: r.curve_ordered,
                        live_objects: r.live_objects_after,
                    });
                }
            }
        }
    }
}

/// Compactions in `reports` that rewrote live records in curve order
/// (counted outside the `audit` cfg — the stats counter must not depend on
/// whether auditing is compiled in).
fn count_reorders(reports: &[crate::storage::CompactionReport]) -> usize {
    reports.iter().filter(|r| r.curve_ordered > 0).count()
}

/// The threaded MRTS runtime: [`Runtime`] on the [`Threads`] engine.
pub type ThreadedRuntime = Runtime<Threads>;

/// The threaded engine's state between runs: the queued boot actions and
/// the record/replay and race-detection settings of the next run. See the
/// module docs.
pub struct Threads {
    /// Boot actions for the next run, applied by its workers before they
    /// start.
    boot: Vec<Boot>,
    /// Record every worker's nondeterministic decisions next run.
    record_decisions: bool,
    /// Replay the next run against this recorded decision log.
    replay_log: Option<DecisionLog>,
    /// The decision log captured by the last recorded run.
    captured: Option<DecisionLog>,
    #[cfg(any(feature = "audit", debug_assertions))]
    race: Option<std::sync::Arc<crate::audit::RaceDetector>>,
}

impl Engine for Threads {}

impl Hooks for Threads {
    /// No stores until a run opens them (under `spill_dir`, if set).
    fn new(_cfg: &MrtsConfig) -> (Self, Vec<SharedStore>) {
        let engine = Threads {
            boot: Vec::new(),
            record_decisions: false,
            replay_log: None,
            captured: None,
            #[cfg(any(feature = "audit", debug_assertions))]
            race: None,
        };
        (engine, Vec::new())
    }

    /// Boot actions wait for the next run.
    fn boot(rt: &mut ThreadedRuntime, action: Boot) {
        rt.engine.boot.push(action);
    }

    fn run(rt: &mut ThreadedRuntime) -> Result<RunStats, MrtsError> {
        rt.run_workers()
    }

    fn quiescent(rt: &ThreadedRuntime) -> bool {
        rt.engine.boot.is_empty()
    }
}

impl ThreadedRuntime {
    /// Attach a happens-before race detector sized for this runtime's node
    /// count. Every fabric send/receive contributes a vector-clock edge and
    /// every object access is checked against the last conflicting access.
    #[cfg(any(feature = "audit", debug_assertions))]
    pub fn attach_race_detector(&mut self, det: std::sync::Arc<crate::audit::RaceDetector>) {
        self.engine.race = Some(det);
    }

    /// Record every nondeterministic decision of the next run: which
    /// fabric edge won each poll, which I/O completion landed when, and
    /// when each reliable-layer deferred flush / retransmit timer fired.
    /// Retrieve the log afterwards with
    /// [`ThreadedRuntime::take_decision_log`]. Always available (the
    /// decision stream is engine state, not audit instrumentation).
    pub fn record_decisions(&mut self) {
        self.engine.record_decisions = true;
    }

    /// Replay the next run against a recorded decision log: every
    /// worker substitutes the recorded outcomes for live nondeterminism.
    /// A worker that cannot follow its schedule (event mismatch, wait
    /// timeout, log exhaustion) counts a `replay_divergences` and falls
    /// back to live execution rather than deadlocking.
    pub fn replay_decisions(&mut self, log: DecisionLog) {
        self.engine.replay_log = Some(log);
    }

    /// The decision log captured by the last run started after
    /// [`ThreadedRuntime::record_decisions`], if any.
    pub fn take_decision_log(&mut self) -> Option<DecisionLog> {
        self.engine.captured.take()
    }

    /// Run to distributed termination: one worker per node, started from
    /// fresh cores and the queued boot actions. The failing node of a
    /// failed run broadcasts an exit to every peer, so all workers stop
    /// and join. Afterwards each node's core and store stay for the result
    /// accessors until the next run or drop.
    fn run_workers(&mut self) -> Result<RunStats, MrtsError> {
        let n = self.cfg.nodes;
        let endpoints = Fabric::new(n, NetworkModel::instant());
        let registry = std::sync::Arc::new(std::mem::take(&mut self.registry));
        // A replay log is consumed by the run it drives.
        let replay_log = self.engine.replay_log.take();

        // The result state describes one run. The last run's stores go
        // (and their spill directories with them) before new ones open
        // under the same paths.
        self.cores.clear();
        self.stores.clear();

        let mut workers: Vec<Worker> = Vec::with_capacity(n);
        let mut io_handles = Vec::with_capacity(n);
        for (i, ep) in endpoints.into_iter().enumerate() {
            let store: Box<dyn StorageBackend> = match &self.cfg.spill_dir {
                Some(dir) => {
                    let node_dir = dir.join(format!("node-{i}"));
                    Box::new(
                        SegmentStore::open(
                            node_dir,
                            self.cfg.segment_bytes,
                            self.cfg.segment_garbage_frac,
                        )
                        .expect("spill dir")
                        .cleanup_on_drop(true),
                    )
                }
                None => Box::new(MemStore::new()),
            };
            // Per-node seed offset: each node draws its own fault schedule,
            // like distinct physical disks failing independently. Latency
            // spikes really sleep here (wall-clock engine).
            let store: Box<dyn StorageBackend> = match self.cfg.fault {
                Some(plan) => Box::new(
                    FaultyStore::new(
                        store,
                        FaultPlan {
                            seed: plan.seed.wrapping_add(i as u64),
                            ..plan
                        },
                    )
                    .with_real_sleep(true),
                ),
                None => store,
            };
            #[cfg(any(feature = "audit", debug_assertions))]
            let pool_audit = self.audit.clone();
            #[cfg(not(any(feature = "audit", debug_assertions)))]
            let pool_audit: Option<std::sync::Arc<dyn crate::audit::EventSink>> = None;
            let (io_tx, io_rx, handles, store) = spawn_io_pool(
                i as NodeId,
                store,
                registry.clone(),
                self.cfg.io_threads,
                pool_audit,
            );
            io_handles.extend(handles);
            self.stores.push(store);
            let backend: Box<dyn TaskBackend> = if self.cfg.cores_per_node <= 1 {
                Box::new(SequentialBackend)
            } else {
                match self.cfg.executor {
                    ExecutorKind::WorkStealing => {
                        Box::new(WorkStealingPool::new(self.cfg.cores_per_node))
                    }
                    ExecutorKind::Fifo => Box::new(FifoPool::new(self.cfg.cores_per_node)),
                }
            };
            #[allow(unused_mut)] // mutated only when auditing is compiled in
            let mut core = NodeCore::new(i as NodeId, &self.cfg);
            #[cfg(any(feature = "audit", debug_assertions))]
            {
                core.audit = self.audit.clone();
            }
            workers.push(Worker {
                node: i as NodeId,
                n_nodes: n,
                cfg: self.cfg.clone(),
                registry: registry.clone(),
                ep,
                core,
                ready: VecDeque::new(),
                io_tx,
                io_rx,
                outstanding_io: 0,
                backend,
                next_obj_seq: self.next_seq[i],
                safra: Safra::new(),
                done: false,
                net: self.cfg.net_fault.map(|plan| NetLayer {
                    plan,
                    tx: ReliableSender::new(),
                    rx: ReliableReceiver::new(),
                    timers: HashMap::new(),
                    deferred: Vec::new(),
                    handlers_run: 0,
                    kill_at: plan.kills(i as NodeId),
                }),
                dead: false,
                probe_inflight: false,
                fatal: None,
                inputs: match &replay_log {
                    // A node absent from the log replays an empty
                    // schedule: immediate divergence + live fallback.
                    Some(log) => {
                        Inputs::new(Mode::Replay, log.nodes.get(i).cloned().unwrap_or_default())
                    }
                    None if self.engine.record_decisions => Inputs::new(Mode::Record, Vec::new()),
                    None => Inputs::new(Mode::Off, Vec::new()),
                },
                victim_cursor: VictimCursor::new(),
                empty_polls: 0,
                deny_streak: 0,
                #[cfg(any(feature = "audit", debug_assertions))]
                race: self.engine.race.clone(),
            });
        }

        // Apply the boot actions. Homes wrap modulo the node count (a
        // restore onto fewer nodes; matches `NodeCore::next_hop`).
        for action in self.engine.boot.drain(..) {
            match action {
                Boot::Create {
                    node,
                    id,
                    obj,
                    priority,
                    locked,
                } => {
                    let home = home_of(id, n);
                    if home != node as usize {
                        workers[home].core.learn_location(id, node);
                    }
                    // Bootstrap creation bypasses admission (threads are
                    // not running yet), so the budget may overshoot.
                    let core = &mut workers[node as usize].core;
                    core.create(id, obj, priority, locked, false, NOW);
                }
                Boot::Lock(p) => {
                    let w = &mut workers[home_of(p.id, n)];
                    w.core.on_meta(p.id, MetaOp::Lock, NOW);
                }
                Boot::Post(msg) => {
                    let w = &mut workers[home_of(msg.to.id, n)];
                    w.core.send(msg, NOW);
                    w.drain();
                }
            }
        }

        let t0 = Instant::now();
        let mut joins = Vec::with_capacity(n);
        for w in workers {
            joins.push(std::thread::spawn(move || w.run()));
        }
        let mut results: Vec<WorkerResult> = joins
            .into_iter()
            .map(|j| j.join().expect("worker panic"))
            .collect();
        let total = t0.elapsed();
        results.sort_unstable_by_key(|r| r.node);
        let mut fatal: Option<MrtsError> = None;
        let mut captured = DecisionLog::new(n);
        for r in results {
            captured.nodes[r.node as usize] = r.decisions;
            let seq = &mut self.next_seq[r.node as usize];
            *seq = (*seq).max(r.next_seq);
            self.cores.push(r.core);
            fatal = fatal.or(r.fatal);
        }
        if self.engine.record_decisions {
            self.engine.captured = Some(captured);
        }
        // The I/O pool threads hold registry clones for unpacking; join
        // them before reclaiming the registry.
        for h in io_handles {
            let _ = h.join();
        }
        self.registry = std::sync::Arc::try_unwrap(registry)
            .unwrap_or_else(|_| panic!("registry still shared"));
        match fatal {
            Some(e) => Err(e),
            None => Ok(RunStats {
                total,
                nodes: self.cores.iter().map(|c| c.stats.clone()).collect(),
                // Workers accumulate overlap directly (handler time with
                // storage ops in flight), so `overlap_pct` reports the
                // measurement instead of the busy-excess estimate.
                measured_overlap: true,
            }),
        }
    }
}
