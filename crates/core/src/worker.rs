//! The one worker loop: one node's control loop, on either clock.
//!
//! A worker drives its node's `NodeCore` (`node.rs`): after every core
//! transition it carries out what the core buffered (`carry_out`) — I/O
//! commands to the node's spill executor, messages onto the fabric
//! through the one `NetMsg::encode`/`decode` pair (a local send loops
//! straight back into the core), runnable objects into the ready queue —
//! and feeds the executor's completions (`on_io`) and the fabric's frames
//! (`on_net`) back. Around the core it runs the protocol the paper's control layer
//! is made of:
//!
//! * **Safra's ring-token termination detection** — the counters sit in
//!   `am` and the receive path, below `NetMsg`;
//! * **the reliable layer** (net-fault runs only) — sequence numbers,
//!   acks, retransmits on a backoff, receiver dedup and in-order release
//!   ([`crate::relnet`]), plus a node kill from the plan;
//! * **work stealing** — a node asks after `STEAL_PATIENCE` empty polls
//!   (one, if it holds no object at all), and a victim hands over a
//!   *resident* object with queued work;
//! * **busy means "has ready work"** — a queued load is look-ahead while
//!   the ready queue is non-empty, and a load that completes with ready
//!   work remaining was masked by computation.
//!
//! Every input whose answer depends on time — the next fabric frame, the
//! next I/O completion, the due reliable-layer timers, the clock itself,
//! what a handler costs and when its effects come back — comes through one
//! [`Gateway`]. Three implement it: the live gateway (`threaded.rs`: an OS
//! thread per worker, an I/O thread pool, the wall clock, recording), the
//! virtual one (`des.rs`: one event heap steps every worker in virtual-time
//! order, and a handler whose cost is known up front runs on a helper
//! thread and lands at its virtual end) and the replayed one (`replay.rs`:
//! a recorded log answers, one thread steps every worker). A handler is
//! started ([`Job`]) and landed ([`Worker::land`]) in two parts, so its
//! effects are one more gateway answer ([`Gateway::execute`]); the live and
//! replayed gateways run it in place. The worker acts on every answer with
//! the same code under all three.

#[allow(unused_imports)]
use crate::audit::{audit_emit, RuntimeEvent};
use crate::compute::{ParallelReport, TaskBackend};
use crate::config::MrtsConfig;
use crate::ctx::{Ctx, Effect};
use crate::fault::{MrtsError, ENGINE_RETRY};
use crate::ids::{NodeId, ObjectId};
use crate::msg::Message;
use crate::netfault::{NetFaultKind, NetFaultPlan};
use crate::node::{IoCmd, NetMsg, NodeCore, State};
use crate::object::{HandlerFn, MobileObject, Registry};
use crate::relnet::{ReliableReceiver, ReliableSender, RingStep, Safra, TimerAction};
use crate::replay::Decision;
use crate::sched::VictimCursor;
use crate::spill_io::{BufferPool, IoReport, Loaded, SpillIo, Stored};
use crate::stats::NodeStats;
use armci_sim::ActiveMessage;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
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

/// Fabric and I/O poll granularity of an idle wait: a live worker blocks
/// this long at most, a virtual one wakes this much later to poll again.
pub(crate) const POLL_WAIT: Duration = Duration::from_micros(500);

/// Steal patience: how many consecutive empty polls a node that holds
/// objects accumulates before it issues a steal request, so transient gaps
/// don't migrate work. A node that holds none asks at its first.
const STEAL_PATIENCE: u32 = 2;

/// Footprint of one [`IoReq::StoreBatch`], in spill-log segments: an
/// eviction larger than this goes to the executor as several requests.
const STORE_REQ_SEGMENTS: usize = 4;

/// A request to the node's spill executor.
pub(crate) enum IoReq {
    /// Pack every object and persist the batch through one
    /// [`crate::storage::StorageBackend::store_batch`] call — a single
    /// coalesced append (one syscall, one sync decision) on the segment
    /// log.
    StoreBatch {
        items: Vec<(u64, ObjectId, Box<dyn MobileObject>)>,
    },
    Load {
        key: u64,
        oid: ObjectId,
    },
    /// Health check of the spill store (degraded-mode recovery).
    Probe,
}

impl IoReq {
    /// Run the request on the node's spill executor `io` (for the I/O pool,
    /// the virtual disk and a replay alike).
    pub(crate) fn run(self, io: &SpillIo, pool: &BufferPool, reg: &Registry) -> IoDone {
        match self {
            // An eviction of one object is a batch of one.
            IoReq::StoreBatch { items } => IoDone::Stored(io.store(pool, items, reg, false)),
            IoReq::Load { key, oid } => IoDone::Loaded(io.load(pool, key, oid, reg)),
            IoReq::Probe => {
                let (report, ok) = io.probe();
                IoDone::Probed(report, ok)
            }
        }
    }
}

/// A spill-executor completion: its outcome, the report still to be
/// folded into the node's counters and audit stream.
pub(crate) enum IoDone {
    /// An [`IoReq::StoreBatch`] landed, or was rejected as a whole.
    Stored(Stored),
    /// A load came back, or failed for good.
    Loaded(Loaded),
    /// A health probe: whether the store accepts writes again.
    Probed(IoReport, bool),
}

/// What the reliable layer's pump must act on now.
#[derive(Clone, Copy)]
pub(crate) enum Due {
    /// Transmit the deferred frame `(dest, seq)`.
    Flush(NodeId, u64),
    /// The retransmit timer of `(dest, seq)` expired.
    Timer(NodeId, u64),
}

/// A handler taken off its object's queue with all it touches (object,
/// message, the node's next object id): it runs on any thread
/// ([`Job::run`]), and what it did lands on its worker ([`Worker::land`]).
pub(crate) struct Job {
    node: NodeId,
    oid: ObjectId,
    obj: Box<dyn MobileObject>,
    old_footprint: usize,
    msg: Message,
    handler: HandlerFn,
    next_seq: u64,
}

/// A job that ran, with what its handler did, not yet applied.
pub(crate) struct Ran {
    job: Job,
    wall: Duration,
    effects: Vec<Effect>,
    tasks: Vec<ParallelReport>,
}

impl Job {
    /// The payload bytes the handler processes (what a deterministic
    /// charge is made of).
    pub(crate) fn bytes(&self) -> usize {
        self.msg.payload.len()
    }

    /// Run the handler, its child tasks on `backend`.
    pub(crate) fn run(mut self, backend: &mut dyn TaskBackend) -> Ran {
        let src = *self.msg.route.first().unwrap_or(&self.node);
        let mut ctx = Ctx::new(self.node, self.msg.to, src, &mut self.next_seq, backend);
        let t0 = Instant::now();
        (self.handler)(self.obj.as_mut(), &mut ctx, &self.msg.payload);
        let wall = t0.elapsed();
        let (effects, tasks) = (ctx.effects, ctx.parallel_reports);
        Ran {
            job: self,
            wall,
            effects,
            tasks,
        }
    }
}

/// A gateway's answer to "which fabric frame is next".
pub(crate) enum Recv {
    Frame(ActiveMessage),
    Empty,
    /// Replay only: a frame its sender has not sent yet. The turn stops at
    /// this read, and the next one resumes there.
    Later,
}

/// A worker's one input gateway: everything whose answer depends on time.
pub(crate) trait Gateway {
    /// Now, on this gateway's clock.
    fn now(&self) -> Duration;
    /// Which fabric frame is next: a non-blocking poll, or (`idle`) the
    /// idle wait.
    fn fabric(&mut self, idle: bool) -> Recv;
    /// Put one frame on the fabric.
    fn send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>);
    /// Which I/O completion is next: a non-blocking poll, or (`blocking`,
    /// the post-termination drain) a wait for one. A blocking poll answers
    /// `None` only in virtual time, where the completion has not arrived
    /// yet, or in a replay that left its log; a live one waits for it.
    fn io(&mut self, blocking: bool) -> Option<IoDone>;
    /// Hand one request to the node's spill executor.
    fn submit(&mut self, req: IoReq);
    /// Which deferred flushes and retransmit timers of `net` are due now,
    /// flushes first.
    fn due(&mut self, net: &NetLayer) -> Vec<Due>;
    /// When the next of `net`'s flushes or timers comes due, if any can
    /// without a new input (the virtual engine's wake-up).
    fn next_due(&self, net: &NetLayer) -> Option<Duration> {
        net.next_deadline(|_, _| true)
    }
    /// The reliable layer sent logical frame `seq` to `dest`, `bytes`
    /// long without its sequence number, whatever the fault plan does to
    /// its transmissions.
    fn sent(&mut self, _dest: NodeId, _seq: u64, _bytes: usize) {}
    /// Run one handler. By default here and now; `None` means it runs
    /// elsewhere and the engine lands it later ([`Worker::land`]), before
    /// anything can observe its effects.
    fn execute(&mut self, job: Job, backend: &mut dyn TaskBackend) -> Option<Ran> {
        Some(job.run(backend))
    }
    /// The compute time to book for a stretch of work measured at `wall`
    /// that processed `bytes` bytes, with its child-task batches `tasks`.
    /// On the wall clock, `wall` itself: child tasks ran on the node's
    /// real pool.
    fn charge(&mut self, wall: Duration, _bytes: usize, _tasks: &[ParallelReport]) -> Duration {
        wall
    }
    /// The worker stopped (`crashed`: it was killed): fold the gateway's
    /// counters into `stats` and hand back what it recorded.
    fn finish(&mut self, stats: &mut NodeStats, crashed: bool) -> Vec<Decision>;
}

/// The reliable-layer sequence number a frame carries in its first
/// eight bytes.
fn frame_seq(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[..8].try_into().expect("seq prefix"))
}

/// What a frame between two nodes of a net-fault run is to the reliable
/// layer: a copy of data frame `seq`, an ack of `seq`, or the control ring.
pub(crate) enum Wire {
    Data(u64),
    Ack(u64),
    Ring,
}

impl Wire {
    pub(crate) fn of(tag: u32, payload: &[u8]) -> Wire {
        match tag {
            AM_TOKEN | AM_EXIT => Wire::Ring,
            AM_ACK => Wire::Ack(frame_seq(payload)),
            _ => Wire::Data(frame_seq(payload)),
        }
    }
}

/// Reliable-delivery state for one node, active only when
/// [`MrtsConfig::net_fault`] is set (fault-free runs bypass the layer
/// entirely, so their fast path is untouched).
///
/// Every remote data message (every tag except `AM_TOKEN` / `AM_EXIT` /
/// `AM_ACK`) gets a per-destination sequence number, is buffered until the
/// receiver acknowledges it, and is retransmitted on a bounded-exponential
/// backoff ([`ENGINE_RETRY`], then patient). The receiver acks every
/// arrival, suppresses duplicates, and *releases* frames strictly in
/// per-source sequence order — restoring the per-edge FIFO the fault-free
/// fabric provides, so handler execution under drop/duplicate/reorder
/// faults is exactly-once and in-order, and the mesh comes out
/// byte-identical. Which deadlines have come, and which frames are lost,
/// is the gateway's answer ([`Gateway::due`]). The token/exit control
/// ring is deliberately out of scope: it models a reliable control plane
/// and stays out of the race detector's channel FIFOs, whose stamp order
/// faults would otherwise scramble (see `DESIGN.md` §11).
pub(crate) struct NetLayer {
    plan: NetFaultPlan,
    /// Protocol state, sender half: sequence assignment plus the
    /// unacknowledged-frame buffer (see [`crate::relnet`]; the same
    /// state machine `tests/relnet_explore.rs` enumerates).
    tx: ReliableSender,
    /// Protocol state, receiver half: dedup plus in-order release.
    rx: ReliableReceiver,
    /// Backoff deadline per outstanding frame, on the gateway's clock.
    /// Timing lives here, outside the deterministic protocol core.
    timers: HashMap<(NodeId, u64), Duration>,
    /// Transmissions deferred by an injected delay/reorder fault:
    /// `(due, dest, tag, frame)`.
    deferred: Vec<(Duration, NodeId, u32, Vec<u8>)>,
    /// Handlers executed on this node, for the kill countdown.
    handlers_run: u64,
    /// This node crashes once `handlers_run` reaches this bound — after
    /// finishing that handler (its sends are in flight, possibly
    /// unacknowledged) but before touching anything else.
    kill_at: Option<u64>,
}

impl NetLayer {
    fn new(plan: NetFaultPlan, node: NodeId) -> NetLayer {
        NetLayer {
            plan,
            tx: ReliableSender::new(),
            rx: ReliableReceiver::new(),
            timers: HashMap::new(),
            deferred: Vec::new(),
            handlers_run: 0,
            kill_at: plan.kills(node),
        }
    }

    /// Where the deferred transmission of `(dest, seq)` sits.
    pub(crate) fn deferred_at(&self, dest: NodeId, seq: u64) -> Option<usize> {
        (self.deferred.iter()).position(|(_, d, _, frame)| *d == dest && frame_seq(frame) == seq)
    }

    /// Deferred frames and retransmit timers whose time has come by
    /// `now`: flushes first, in the order they were deferred, then timers
    /// by deadline (and edge and sequence number, so a tie never depends
    /// on the map's order).
    pub(crate) fn due_by_clock(&self, now: Duration) -> Vec<Due> {
        self.due_where(|t| t <= now, |_, _| true)
    }

    /// [`Self::due_by_clock`] with the clock's two answers given: whether
    /// a deadline has `come`, and whether the frame `(dest, seq)` is
    /// `lost` (the timer of a frame that is not lost never fires).
    pub(crate) fn due_where(
        &self,
        come: impl Fn(Duration) -> bool,
        lost: impl Fn(NodeId, u64) -> bool,
    ) -> Vec<Due> {
        let flushes = (self.deferred.iter())
            .filter(|(t, ..)| come(*t))
            .map(|(_, dest, _, frame)| Due::Flush(*dest, frame_seq(frame)));
        let mut timers: Vec<_> = (self.timers.iter())
            .filter(|&(&(dest, seq), &t)| come(t) && lost(dest, seq))
            .map(|(&(dest, seq), &t)| (t, dest, seq))
            .collect();
        timers.sort_unstable();
        let timers = timers
            .into_iter()
            .map(|(_, dest, seq)| Due::Timer(dest, seq));
        flushes.chain(timers).collect()
    }

    /// The earliest deferred flush, or retransmit timer of a `lost` frame.
    pub(crate) fn next_deadline(&self, lost: impl Fn(NodeId, u64) -> bool) -> Option<Duration> {
        let flushes = self.deferred.iter().map(|(t, ..)| *t);
        let timers = (self.timers.iter())
            .filter(|&(&(dest, seq), _)| lost(dest, seq))
            .map(|(_, &t)| t);
        flushes.chain(timers).min()
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

/// One node's control loop (see the module docs), over gateway `G`.
pub(crate) struct Worker<G> {
    node: NodeId,
    n_nodes: usize,
    cfg: MrtsConfig,
    registry: Arc<Registry>,
    /// The node's out-of-core and control layers: object table, budget,
    /// load queue and prefetch window, directory, routing,
    /// migration, node statistics and the audit sink. This worker drives it
    /// (see [`Worker::carry_out`], [`Worker::on_net`], [`Worker::on_io`]).
    pub(crate) core: NodeCore,
    /// Everything time answers (see [`Gateway`]).
    pub(crate) gate: G,
    ready: VecDeque<ObjectId>,
    outstanding_io: usize,
    backend: Box<dyn TaskBackend>,
    next_obj_seq: u64,
    safra: Safra,
    done: bool,
    /// The last turn ended idle: the next one begins with the idle wait.
    waiting: bool,
    /// The last turn stopped in the drain at [`Recv::Later`]: resume there.
    draining: bool,
    /// Reliable-delivery layer; `Some` only under a net-fault plan.
    net: Option<NetLayer>,
    /// Crashed by the plan's `kill_node`: silent until the exit broadcast.
    dead: bool,
    /// A degraded-mode health probe is with the executor.
    probe_inflight: bool,
    /// First unrecoverable error seen by this node.
    fatal: Option<MrtsError>,
    /// What the gateway recorded, once the worker stopped or crashed.
    decisions: Vec<Decision>,
    /// Round-robin victim selection for work stealing.
    victim_cursor: VictimCursor,
    /// Consecutive empty idle polls; a steal fires only after
    /// [`STEAL_PATIENCE`] of them (one, for a node that holds nothing).
    empty_polls: u32,
    /// Consecutive denials since the last successful steal or local
    /// handler run; at `n_nodes - 1` every peer said no and requests stop
    /// until new work arrives (otherwise an all-idle fabric would trade
    /// steal requests forever and Safra could never terminate).
    deny_streak: u32,
    #[cfg(any(feature = "audit", debug_assertions))]
    pub(crate) race: Option<Arc<crate::audit::RaceDetector>>,
}

/// A stopped worker's hand-back to the runtime.
pub(crate) struct WorkerResult {
    pub node: NodeId,
    /// The node's core as the control loop left it: its table says where
    /// each object is (resident, or the key it sits under in the store).
    pub core: NodeCore,
    pub next_seq: u64,
    pub fatal: Option<MrtsError>,
    /// This worker's decision stream (live record mode only; else empty).
    pub decisions: Vec<Decision>,
}

impl<G: Gateway> Worker<G> {
    pub(crate) fn new(
        cfg: &MrtsConfig,
        registry: Arc<Registry>,
        core: NodeCore,
        next_obj_seq: u64,
        backend: Box<dyn TaskBackend>,
        gate: G,
    ) -> Self {
        let node = core.node;
        Worker {
            node,
            n_nodes: cfg.nodes,
            cfg: cfg.clone(),
            registry,
            core,
            gate,
            ready: VecDeque::new(),
            outstanding_io: 0,
            backend,
            next_obj_seq,
            safra: Safra::new(),
            done: false,
            waiting: false,
            draining: false,
            net: cfg.net_fault.map(|plan| NetLayer::new(plan, node)),
            dead: false,
            probe_inflight: false,
            fatal: None,
            decisions: Vec::new(),
            victim_cursor: VictimCursor::new(),
            empty_polls: 0,
            deny_streak: 0,
            #[cfg(any(feature = "audit", debug_assertions))]
            race: None,
        }
    }

    fn comm_charge(&mut self, bytes: usize) {
        self.core.stats.comm += self.cfg.net.transfer_time(bytes);
    }

    /// Happens-before edge out: stamp this node's vector clock onto the
    /// (self → to) channel. Must pair 1:1 with fabric sends so the
    /// detector's channel FIFOs stay aligned with the fabric's.
    #[allow(unused_variables)]
    fn race_send(&self, to: NodeId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        if let Some(r) = self.race.as_ref() {
            r.on_send(self.node, to);
        }
    }

    /// Happens-before edge in: join the sender's stamp from the
    /// (from → self) channel.
    #[allow(unused_variables)]
    fn race_recv(&self, from: NodeId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        if let Some(r) = self.race.as_ref() {
            r.on_recv(self.node, from);
        }
    }

    /// Record a (write) access to a mobile object's bytes by this worker.
    /// Every touch of object state — handler execution, pack for spill or
    /// migration, unpack on load or install — is a write from the
    /// detector's point of view.
    #[allow(unused_variables)]
    fn race_access(&self, oid: ObjectId) {
        #[cfg(any(feature = "audit", debug_assertions))]
        if let Some(r) = self.race.as_ref() {
            r.on_access(self.node, oid, true);
        }
    }

    fn am(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        let bytes = payload.len();
        if dest != self.node {
            // Logical bytes, once per send: acks, retransmits and
            // duplicate copies are the reliable layer's own.
            self.core.stats.bytes_sent += bytes as u64;
        }
        if self.net.is_some() && dest != self.node {
            if tag == AM_TOKEN || tag == AM_EXIT {
                // Control ring: modeled as a reliable control plane (out of
                // fault scope) and kept out of the race detector's channel
                // FIFOs, whose stamp order would no longer match the data
                // stream's under faults.
                self.gate.send(dest, tag, payload);
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
        self.gate.send(dest, tag, payload);
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
        let now = self.gate.now();
        let (seq, frame) = {
            let net = self.net.as_mut().expect("net layer");
            let (seq, frame) = net.tx.next_frame(dest, tag, &payload);
            net.timers.insert((dest, seq), now + net.backoff(1, seq));
            (seq, frame)
        };
        self.gate.sent(dest, seq, payload.len());
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
            self.gate.send(dest, tag, frame.clone());
        }
        if d.delay.is_zero() {
            self.gate.send(dest, tag, frame);
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
            let due = self.gate.now() + d.delay;
            let net = self.net.as_mut().expect("net layer");
            net.deferred.push((due, dest, tag, frame));
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
        self.gate.send(src, AM_ACK, seq.to_le_bytes().to_vec());
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

    /// Drive the reliable layer's timers: flush the deferred (delayed)
    /// transmissions and fire the retransmit timers the gateway says are
    /// due, escalating once a peer exhausts the retry budget.
    fn net_pump(&mut self) {
        let Some(net) = self.net.as_ref() else { return };
        for due in self.gate.due(net) {
            match due {
                Due::Flush(dest, seq) => {
                    let net = self.net.as_mut().expect("net layer");
                    if let Some(i) = net.deferred_at(dest, seq) {
                        let (_, dest, tag, frame) = net.deferred.swap_remove(i);
                        self.gate.send(dest, tag, frame);
                    }
                }
                Due::Timer(dest, seq) => {
                    self.fire_timer(dest, seq);
                    if self.done {
                        break; // a give-up brought the run down
                    }
                }
            }
        }
    }

    /// One retransmit timer is due: ask the protocol state what that
    /// means and do it (re-arm and retransmit, or give up and escalate).
    fn fire_timer(&mut self, dest: NodeId, seq: u64) {
        let now = self.gate.now();
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
            Ok(NetMsg::Msg(msg)) => self.core.reroute(msg, dest),
            _ => false,
        };
        if rerouted {
            self.carry_out();
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
    /// looped back — and carry out what it decided. What is the worker's
    /// own: the race detector sees an install's unpack, the steal trigger
    /// learns how its request was answered, and a steal request is
    /// answered with the victim's pick.
    fn on_net(&mut self, msg: NetMsg) {
        let installed = match &msg {
            NetMsg::Install(install) => Some(install.oid),
            _ => None,
        };
        let was_asking = self.core.awaiting_steal;
        let thief = self.core.on_net(msg, &self.registry);
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
            // The pick is a total order over the core's state, which the
            // inputs determine, so a replay picks the same object.
            match self.core.steal_pick() {
                Some(oid) => self.core.grant_steal(oid, thief),
                None => self.core.deny_steal(thief),
            }
        }
        self.carry_out();
    }

    // ----- driving the node core ----------------------------------------------

    /// Carry out what the core decided since the last call, in its
    /// order: pack/unpack time is charged as compute, newly runnable
    /// objects join the ready queue, messages go on the fabric — a local
    /// one loops straight back into [`Worker::on_net`], which drains what
    /// *it* produces before the next entry is looked at, so local traffic
    /// is handled depth-first and synchronously — and I/O goes to the
    /// executor. Called after every core transition that can produce any
    /// of them.
    pub(crate) fn carry_out(&mut self) {
        let codec = std::mem::take(&mut self.core.codec_work);
        for (wall, bytes) in codec {
            self.core.stats.comp += self.gate.charge(wall, bytes, &[]);
        }
        self.ready.extend(self.core.runnable.drain(..));
        if !self.core.out.is_empty() {
            let mut out = std::mem::take(&mut self.core.out);
            for (dest, msg) in out.drain(..) {
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

    /// Hand the I/O the core asked for since the last flush to the spill
    /// executor (pack and unpack run there, off the control loop) and keep
    /// the run queue and the race detector in step with objects that left
    /// core. Called after every core transition that can evict or load.
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
                    // buffers an executor holds at once follow
                    // `segment_bytes`, not the size of the eviction.
                    let limit = STORE_REQ_SEGMENTS * self.cfg.segment_bytes;
                    let mut batch = Vec::new();
                    let mut bytes = 0;
                    for (key, oid, obj) in items {
                        self.left_core(oid);
                        let footprint = self.core.entry(oid).footprint;
                        if !batch.is_empty() && bytes + footprint > limit {
                            self.submit(IoReq::StoreBatch {
                                items: std::mem::take(&mut batch),
                            });
                            bytes = 0;
                        }
                        bytes += footprint;
                        batch.push((key, oid, obj));
                    }
                    self.submit(IoReq::StoreBatch { items: batch });
                }
                IoCmd::Load { key, oid } => self.submit(IoReq::Load { key, oid }),
            }
        }
        self.core.cmds = cmds;
    }

    /// Hand one request that will be answered to the executor.
    fn submit(&mut self, req: IoReq) {
        self.outstanding_io += 1;
        self.gate.submit(req);
    }

    /// `oid` was evicted or migrated away: its bytes were touched
    /// (dropped, handed to the executor, or packed), and it is no longer
    /// runnable.
    fn left_core(&mut self, oid: ObjectId) {
        self.race_access(oid);
        self.ready.retain(|&r| r != oid);
    }

    /// Feed one executor completion back into the core. Its busy and
    /// pack/unpack time come as the gateway's clock measured them; what
    /// the executor met is folded by the core, and what the completion
    /// *means* for residency is the core's.
    fn on_io(&mut self, done: IoDone) {
        self.outstanding_io -= 1;
        let (report, codec) = match &done {
            IoDone::Stored(stored) => (&stored.report, stored.pack_dur),
            IoDone::Loaded(loaded) => (&loaded.report, loaded.unpack_dur),
            IoDone::Probed(report, _) => (report, Duration::ZERO),
        };
        self.core.fold_io(report);
        self.core.stats.disk += report.io_dur;
        self.core.stats.comp += codec;
        match done {
            IoDone::Stored(stored) => {
                let Some(objs) = stored.rejected else {
                    for (oid, packed_len) in stored.packed {
                        self.core.store_landed(oid, packed_len);
                    }
                    return;
                };
                // Whole-batch failure: a prefix of the batch may have
                // landed, but no record is trusted — every object goes
                // back in core, marked dirty, before any of them moves on.
                for (&(oid, _), obj) in stored.packed.iter().zip(objs) {
                    self.core.store_failed(oid, obj);
                    self.race_access(oid);
                }
                for (oid, _) in stored.packed {
                    self.core.resume(oid);
                }
                self.carry_out();
            }
            IoDone::Loaded(loaded) => {
                let oid = loaded.report.oid;
                match loaded.outcome {
                    Ok((obj, packed_len)) => {
                        // Overlap classification: a load that completes
                        // while resident work remains was masked by
                        // computation.
                        let miss = self.ready.is_empty();
                        self.core.complete_load(oid, obj, packed_len, miss);
                        self.race_access(oid);
                        self.core.resume(oid);
                        self.carry_out();
                    }
                    // Unrecoverable: the object exists nowhere else.
                    Err(err) => {
                        self.core.load_failed(oid);
                        self.fail(err);
                    }
                }
            }
            IoDone::Probed(_, ok) => {
                self.probe_inflight = false;
                if ok {
                    self.core.leave_degraded();
                    self.flush_io();
                }
            }
        }
    }

    // ----- handler execution -----------------------------------------------------

    /// Start one queued message of one ready object, to land now or (run
    /// elsewhere by the gateway) later. Returns false if no work was ready.
    fn step(&mut self) -> bool {
        // Entries gone stale since they were queued (evicted, migrated,
        // drained through an earlier entry) are skipped.
        let (oid, (obj, old_footprint, msg)) = loop {
            let Some(oid) = self.ready.pop_front() else {
                return false;
            };
            if let Some(taken) = self.core.begin_handler(oid) {
                break (oid, taken);
            }
        };
        self.race_access(oid);
        let job = Job {
            node: self.node,
            oid,
            obj,
            old_footprint,
            handler: self.registry.handler(msg.handler),
            msg,
            next_seq: self.next_obj_seq,
        };
        if let Some(ran) = self.gate.execute(job, self.backend.as_mut()) {
            self.land(ran);
        }
        true
    }

    /// Apply what a handler did: charge it, put its object back, carry out
    /// its effects, then enforce the budget.
    pub(crate) fn land(&mut self, ran: Ran) {
        let dur = self.gate.charge(ran.wall, ran.job.bytes(), &ran.tasks);
        self.core.stats.comp += dur;
        // Handler time with storage ops in flight is I/O–compute overlap
        // (the paper's headline quantity).
        if self.outstanding_io > 0 {
            self.core.stats.overlapped += dur;
        }
        let job = ran.job;
        self.next_obj_seq = job.next_seq;
        (self.core).finish_handler(job.oid, job.obj, job.old_footprint);
        if !self.core.entry(job.oid).queue.is_empty() {
            self.ready.push_back(job.oid);
        }
        self.core.apply_effects(ran.effects);
        self.carry_out();
        // Hard budget enforcement (handlers grow objects in place), then
        // advisory soft-threshold swapping.
        self.core.enforce_budget(None);
        self.core.soft_swap();
        self.flush_io();
    }

    // ----- work stealing ----------------------------------------------------

    /// Thief side: fire one steal request if this node has been idle long
    /// enough (see [`STEAL_PATIENCE`]) and peers remain untried. The empty
    /// polls are gateway answers and the victim comes from a round-robin
    /// cursor, so a replay steals at exactly the recorded points, from the
    /// recorded victims.
    fn try_steal(&mut self) {
        if !self.cfg.work_stealing
            || self.n_nodes < 2
            || self.done
            || self.dead
            || self.core.awaiting_steal
            || !self.ready.is_empty()
            || self.outstanding_io > 0
            || self.core.has_pending_loads()
            || (self.deny_streak as usize) >= self.n_nodes - 1
            || self.empty_polls == 0
            || (self.empty_polls < STEAL_PATIENCE && !self.holds_nothing())
        {
            return;
        }
        let Some(victim) = self.victim_cursor.next_victim(self.node, self.n_nodes) else {
            return;
        };
        self.core.request_steal(victim);
        self.carry_out();
    }

    /// Every object this node ever had has moved on: nothing here can
    /// become work again without a message.
    fn holds_nothing(&self) -> bool {
        (self.core.table.values()).all(|e| matches!(e.state, State::Moved(_)))
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

    /// While degraded, keep one health probe of the spill store with the
    /// executor; its completion decides whether to exit degraded mode.
    fn maybe_probe(&mut self) {
        if self.core.ooc.is_degraded() && !self.probe_inflight && !self.done {
            self.probe_inflight = true;
            self.submit(IoReq::Probe);
        }
    }

    // ----- the loop -----------------------------------------------------------------

    /// Run to the end on a gateway that blocks (live). A worker that
    /// unwinds first tells every peer to exit, so no peer waits on it
    /// forever; its panic then goes on to whoever joins it.
    pub(crate) fn run(mut self) -> WorkerResult {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| while self.turn() {})) {
            for n in (0..self.n_nodes as NodeId).filter(|&n| n != self.node) {
                self.gate.send(n, AM_EXIT, Vec::new());
            }
            resume_unwind(panic);
        }
        self.finish()
    }

    /// One turn of the control loop; false once the worker has stopped.
    /// A live gateway blocks inside the idle wait and the final I/O
    /// drain; a virtual one answers at once, and the virtual engine calls the
    /// next turn when [`Worker::next_turn`] says; a replayed one ends the
    /// turn at a frame not sent yet.
    pub(crate) fn turn(&mut self) -> bool {
        if self.done {
            // Drain outstanding I/O: every store has landed (or failed
            // back into core) before the table is handed over. A crashed
            // node only discards.
            while self.outstanding_io > 0 {
                let Some(done) = self.gate.io(true) else {
                    return true; // virtual time: its arrival wakes this worker
                };
                if self.dead {
                    self.outstanding_io -= 1;
                    continue;
                }
                self.on_io(done);
                self.core.pump_loads(!self.ready.is_empty());
                self.flush_io();
            }
            return false;
        }
        if self.dead {
            // Crashed-node mode: silent — no sends, no acks, no handlers —
            // until the exit broadcast. Completions are dropped so nothing
            // backs up; anything but the exit is discarded unanswered.
            while self.gate.io(false).is_some() {
                self.outstanding_io -= 1;
            }
            while let Recv::Frame(am) = self.gate.fabric(true) {
                if am.handler == AM_EXIT {
                    self.done = true;
                    break;
                }
            }
            return true;
        }
        if std::mem::take(&mut self.waiting) {
            // The idle wait: the engine's idle-time measurement point —
            // nothing ready, nothing with the executor, just waiting on
            // peers.
            let t_idle = self.gate.now();
            let am = self.gate.fabric(true);
            self.core.stats.idle += self.gate.now().saturating_sub(t_idle);
            match am {
                Recv::Frame(am) => {
                    self.empty_polls = 0;
                    self.on_fabric(am);
                }
                Recv::Empty => {
                    self.core.stats.idle_ticks += 1;
                    self.empty_polls += 1;
                }
                Recv::Later => {
                    self.waiting = true;
                    return true;
                }
            }
        }
        // 0. A transition since the last turn broke a per-node invariant
        //    (debug builds): bring the run down with it.
        if !std::mem::take(&mut self.draining) {
            if let Some(v) = self.core.violation.take() {
                self.fail(MrtsError::Invariant(v));
            }
        }
        // 1. Drain the fabric.
        while !self.done {
            match self.gate.fabric(false) {
                Recv::Frame(am) => self.on_fabric(am),
                Recv::Empty => break,
                Recv::Later => {
                    self.draining = true;
                    return true;
                }
            }
        }
        if self.done {
            return true;
        }
        // 2. Reliable-delivery timers: deferred transmissions and
        //    retransmit backoffs (no-op without a net-fault plan).
        self.net_pump();
        if self.done {
            return true;
        }
        // 3. Drain I/O completions.
        while let Some(done) = self.gate.io(false) {
            self.on_io(done);
        }
        // 4. Issue queued loads under the prefetch window, so the disk
        //    streams while step() executes resident work.
        self.core.pump_loads(!self.ready.is_empty());
        self.flush_io();
        self.maybe_probe();
        // 5. Start one handler.
        if self.step() {
            // Local progress re-arms the steal heuristics.
            self.empty_polls = 0;
            self.deny_streak = 0;
            if let Some(net) = self.net.as_mut() {
                net.handlers_run += 1;
                if net.kill_at.is_some_and(|k| net.handlers_run >= k) {
                    self.die();
                }
            }
            return true;
        }
        // 6. Idle: try to steal work, run the termination protocol, then
        //    wait (next turn).
        self.try_steal();
        self.try_pass_token();
        self.waiting = !self.done;
        true
    }

    /// Crash this node (`NetFaultPlan::kill_node`): it goes silent until a
    /// survivor's retransmit exhaustion escalates into an exit broadcast.
    /// Its objects are lost with it, exactly like a real node crash;
    /// recovery is the checkpoint subsystem's job (see
    /// `crate::checkpoint` and `tests/chaos.rs`).
    fn die(&mut self) {
        self.dead = true;
        audit_emit!(self.core.audit, RuntimeEvent::Terminate { node: self.node });
        // A crash truncates the schedule by design: nothing more is
        // recorded, and what a replayed log still holds is no divergence.
        self.decisions = self.gate.finish(&mut self.core.stats, true);
    }

    /// When this worker needs its next turn, on its gateway's clock (for
    /// the virtual engine, whose gateway never blocks): now while it has work; else
    /// at its next reliable-layer deadline or idle poll; else (`None`)
    /// when its next frame or completion arrives. An idle worker polls
    /// when it steals (so empty polls count as they do live) or has loads
    /// queued (a paced load issues on a later pump).
    pub(crate) fn next_turn(&self) -> Option<Duration> {
        let now = self.gate.now();
        if self.done {
            return (self.outstanding_io == 0).then_some(now);
        }
        if self.dead {
            return None;
        }
        if !self.waiting {
            return Some(now);
        }
        let polls = self.cfg.work_stealing || self.core.has_pending_loads();
        let poll = polls.then_some(now + POLL_WAIT);
        let timer = self.net.as_ref().and_then(|net| self.gate.next_due(net));
        poll.into_iter().chain(timer).min()
    }

    /// The worker stopped: close the books and hand the core back.
    pub(crate) fn finish(mut self) -> WorkerResult {
        if self.dead {
            self.core.seal_stats();
            // The node's objects are lost with it.
            self.core.table.clear();
            self.fatal = None;
        } else {
            audit_emit!(
                self.core.audit,
                RuntimeEvent::Shutdown {
                    node: self.node,
                    used: self.core.ooc.used()
                }
            );
            // Sealed while the table is still whole: debug builds check
            // the books against it.
            self.core.seal_stats();
            if let Some(v) = self.core.violation.take() {
                self.fatal.get_or_insert(MrtsError::Invariant(v));
            }
            self.decisions = self.gate.finish(&mut self.core.stats, false);
        }
        WorkerResult {
            node: self.node,
            core: self.core,
            next_seq: self.next_obj_seq,
            fatal: self.fatal,
            decisions: self.decisions,
        }
    }
}
