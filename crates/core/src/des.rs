//! The deterministic virtual-time (discrete-event) execution engine.
//!
//! This engine *really executes* the application — handlers run, objects
//! serialize, data moves — but node-level parallelism, network transfers,
//! and disk I/O are accounted on **virtual clocks** instead of wall time:
//!
//! * every handler execution is timed with `Instant` and charged to the
//!   destination node's earliest-free virtual core (scaled by
//!   `compute_scale`); intra-handler task batches are charged their modeled
//!   parallel makespan (see [`crate::compute::ExecutorKind::makespan`]);
//! * a message from node *i* to node *j* becomes visible at
//!   `send_time + latency + bytes/bandwidth`; both nodes accrue
//!   communication busy time. Which node that is, who learns the object's
//!   location on delivery, how an object migrates and installs is decided
//!   by each node's `NodeCore` (`node.rs`); this engine ships the
//!   `NetMsg`s it emits at their modelled sizes and executes objects it
//!   reports runnable right away;
//! * unloading/loading an object occupies one of the node's `io_threads`
//!   virtual disk channels for `seek + bytes/bandwidth`; the disk runs
//!   concurrently with the cores, which is where the paper's
//!   computation/I/O *overlap* comes from. What to evict, load and
//!   prefetch is the core's decision too — the same state machine the
//!   threaded engine runs; this engine is its driver, executing the
//!   core's I/O commands synchronously on the virtual channels.
//!
//! Two work-stealing rules are this engine's own: a steal fires on behalf
//! of a peer that has *no event scheduled* (virtual time can see idleness
//! directly), and a victim hands over *non-resident* objects with queued
//! work — resident ones execute on arrival, so only those hold a backlog.
//!
//! The result is a deterministic simulation whose reported quantities
//! (per-PE speed, overheads, comp/comm/disk shares, overlap) have the same
//! meaning as the paper's cluster measurements — the substitution required
//! because this reproduction runs on a single-core host (see DESIGN.md).

#[allow(unused_imports)]
use crate::audit::{audit_emit, RuntimeEvent};
use crate::compute::SequentialBackend;
use crate::config::MrtsConfig;
use crate::ctx::Ctx;
use crate::fault::{
    is_out_of_space, load_spilled, FaultPlan, FaultyStore, MrtsError, ENGINE_RETRY,
};
use crate::ids::{HandlerId, MobilePtr, NodeId, ObjectId};
use crate::msg::Message;
use crate::node::{Entry, IoCmd, MetaOp, NetMsg, NodeCore, State};
use crate::object::{MobileObject, Registry};
use crate::stats::RunStats;
use crate::storage::{MemStore, StorageBackend};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Size in bytes charged for a directory-update service message.
const DIR_UPDATE_BYTES: usize = 32;
/// Size charged for control messages (migrate and steal requests).
const CTL_BYTES: usize = 64;

struct NodeState {
    /// The node's out-of-core and control layers: object table, budget,
    /// locality, load queue and prefetch window, directory, routing,
    /// migration, node statistics. This engine is its driver on virtual
    /// disk channels and a virtual network (see [`DesRuntime::drain`]).
    core: NodeCore,
    /// A [`MemStore`] in fault-free runs; wrapped in a
    /// [`FaultyStore`] when the config carries a fault plan.
    store: Box<dyn StorageBackend>,
    core_free: Vec<Duration>,
    /// Earliest-free time per virtual disk channel (`io_threads` of them —
    /// the modeled I/O parallelism of the storage pipeline).
    disk_free: Vec<Duration>,
    /// Per spilled object, the virtual time at which its on-disk bytes
    /// become valid (the end of its store). Disk-model state: set by
    /// [`DesRuntime::exec_store`], consumed by the reload, which must not
    /// start earlier.
    disk_ready_at: HashMap<ObjectId, Duration>,
    next_obj_seq: u64,
    /// Reusable pack buffer for spills (the virtual-time analogue of the
    /// threaded engine's I/O-pool buffer pool).
    pack_buf: Vec<u8>,
}

enum EvKind {
    /// A message arriving at a node (or looping back to its sender).
    Net(NetMsg),
    /// A disk load completed.
    Loaded(ObjectId),
}

/// Virtual-time steal eligibility: resident objects execute on arrival,
/// so only *non-resident* ones hold a backlog a thief could relieve.
fn holds_backlog(e: &Entry) -> bool {
    matches!(e.state, State::OnDisk | State::Loading)
}

struct Event {
    at: Duration,
    seq: u64,
    node: NodeId,
    kind: EvKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The virtual-time MRTS engine. See the module docs.
pub struct DesRuntime {
    cfg: MrtsConfig,
    registry: Registry,
    nodes: Vec<NodeState>,
    events: BinaryHeap<Reverse<Event>>,
    now: Duration,
    event_seq: u64,
    end_time: Duration,
    ran: bool,
    /// When set, same-timestamp event tie-breaks are permuted through a
    /// seeded bijection (see [`DesRuntime::set_schedule_seed`]).
    schedule_seed: Option<u64>,
    /// Set when a spilled object could not be read back: the run aborts
    /// and [`DesRuntime::try_run`] surfaces the typed error.
    fatal: Option<MrtsError>,
    /// Per-directed-edge logical message counter for the network fault
    /// model (sequence numbers the fault plan draws against).
    net_seq: HashMap<(NodeId, NodeId), u64>,
    /// Events currently scheduled per node; a node at zero has nothing
    /// coming and is the virtual-time notion of "idle" work stealing keys
    /// off (the threaded engine's empty-poll streak, collapsed).
    pending_events: Vec<usize>,
    #[cfg(any(feature = "audit", debug_assertions))]
    audit: Option<std::sync::Arc<dyn crate::audit::EventSink>>,
}

impl DesRuntime {
    pub fn new(cfg: MrtsConfig) -> Self {
        cfg.validate().expect("invalid MrtsConfig");
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState {
                core: NodeCore::new(i as NodeId, &cfg),
                store: match cfg.fault {
                    // Per-node seed offset: each node draws its own fault
                    // schedule, like distinct physical disks failing
                    // independently.
                    Some(plan) => Box::new(FaultyStore::new(
                        Box::new(MemStore::new()),
                        FaultPlan {
                            seed: plan.seed.wrapping_add(i as u64),
                            ..plan
                        },
                    )),
                    None => Box::new(MemStore::new()) as Box<dyn StorageBackend>,
                },
                core_free: vec![Duration::ZERO; cfg.cores_per_node],
                disk_free: vec![Duration::ZERO; cfg.io_threads],
                disk_ready_at: HashMap::new(),
                next_obj_seq: 0,
                pack_buf: Vec::new(),
            })
            .collect();
        let n = cfg.nodes;
        DesRuntime {
            cfg,
            registry: Registry::new(),
            nodes,
            events: BinaryHeap::new(),
            now: Duration::ZERO,
            event_seq: 0,
            end_time: Duration::ZERO,
            ran: false,
            schedule_seed: None,
            fatal: None,
            net_seq: HashMap::new(),
            pending_events: vec![0; n],
            #[cfg(any(feature = "audit", debug_assertions))]
            audit: None,
        }
    }

    /// Attach a runtime-event sink (an
    /// [`InvariantChecker`](crate::audit::InvariantChecker), an
    /// [`EventLog`](crate::audit::EventLog), …). Available in debug builds
    /// and under the `audit` feature; release builds without the feature
    /// compile the instrumentation out entirely.
    #[cfg(any(feature = "audit", debug_assertions))]
    pub fn attach_audit(&mut self, sink: std::sync::Arc<dyn crate::audit::EventSink>) {
        for n in &mut self.nodes {
            n.core.audit = Some(sink.clone());
        }
        self.audit = Some(sink);
    }

    /// Permute same-timestamp event ordering with a deterministic seed.
    ///
    /// Events at equal virtual time are normally processed in creation
    /// (FIFO) order. With a seed, the tie-break sequence numbers are
    /// passed through a seeded bijection ([`crate::audit::mix64`]), so
    /// each seed explores a different — but reproducible — legal schedule.
    /// The runtime invariants and application results must be identical
    /// across seeds; `tests/audit_invariants.rs` sweeps several. `None`
    /// restores FIFO.
    pub fn set_schedule_seed(&mut self, seed: Option<u64>) {
        self.schedule_seed = seed;
    }

    pub fn config(&self) -> &MrtsConfig {
        &self.cfg
    }

    /// Register an object type decoder.
    pub fn register_type(&mut self, tag: crate::ids::TypeTag, decode: crate::object::DecodeFn) {
        self.registry.register_type(tag, decode);
    }

    /// Register a message handler.
    pub fn register_handler(
        &mut self,
        id: HandlerId,
        name: &'static str,
        f: crate::object::HandlerFn,
    ) {
        self.registry.register_handler(id, name, f);
    }

    // ----- bootstrap API ---------------------------------------------------

    /// Create a mobile object on `node` before (or between) runs.
    pub fn create_object(
        &mut self,
        node: NodeId,
        obj: Box<dyn MobileObject>,
        priority: u8,
    ) -> MobilePtr {
        let n = &mut self.nodes[node as usize];
        let id = ObjectId::new(node, n.next_obj_seq);
        n.next_obj_seq += 1;
        n.core.create(id, obj, priority, Duration::ZERO);
        self.flush(node, Duration::ZERO);
        MobilePtr::new(id)
    }

    /// Pin an object before the run.
    pub fn lock_object(&mut self, ptr: MobilePtr) {
        let node = self.owner_of(ptr.id);
        (self.nodes[node as usize].core).on_meta(ptr.id, MetaOp::Lock, Duration::ZERO);
    }

    /// Post an initial message (delivered at virtual time zero, or "now"
    /// between the runs of a multi-phase driver).
    pub fn post(&mut self, to: MobilePtr, handler: HandlerId, payload: Vec<u8>) {
        let node = self.owner_of(to.id);
        let msg = Message::new(to, handler, payload);
        self.nodes[node as usize].core.send(msg, Duration::ZERO);
        self.drain(node, Duration::ZERO);
    }

    fn owner_of(&self, oid: ObjectId) -> NodeId {
        // Follow Moved tombstones from the home node (wrapped: a
        // checkpoint may be restored onto fewer nodes than minted the id).
        let mut n = (oid.home() as usize % self.nodes.len()) as NodeId;
        for _ in 0..self.cfg.nodes + 1 {
            match self.nodes[n as usize].core.table.get(&oid) {
                Some(Entry {
                    state: State::Moved(f),
                    ..
                }) => n = *f,
                Some(_) => return n,
                None => return n,
            }
        }
        n
    }

    /// Compute charge for a measured `wall` interval that processed
    /// `bytes` bytes of work product: measured (scaled) wall time
    /// normally, a synthetic size-proportional cost under
    /// [`MrtsConfig::deterministic_compute`] — the synthetic cost keeps
    /// the virtual schedule a pure function of the inputs.
    fn compute_charge(&self, wall: Duration, bytes: usize) -> Duration {
        if self.cfg.deterministic_compute {
            Duration::from_nanos(1_000 + bytes as u64)
        } else {
            wall.mul_f64(self.cfg.compute_scale)
        }
    }

    /// Virtual-time cost of recovering from an injected fault (storage
    /// retry backoff, injected latency, retransmit backoff, fabric
    /// delay). Charged normally; zero under
    /// [`MrtsConfig::deterministic_compute`], which makes transient-fault
    /// recovery *schedule-transparent*: a chaos run executes the exact
    /// event order of its fault-free twin (faults still count in the
    /// stats and audit stream), so byte-identity of the results is a
    /// provable property rather than a lucky seed. Degraded-mode entry
    /// (ENOSPC) is exempt — suspending eviction is a semantic change,
    /// not a timing charge.
    fn fault_penalty(&self, d: Duration) -> Duration {
        if self.cfg.deterministic_compute {
            Duration::ZERO
        } else {
            d
        }
    }

    // ----- event plumbing ----------------------------------------------------

    fn push_event(&mut self, at: Duration, node: NodeId, kind: EvKind) {
        // Posts issued between runs arrive "now", not at virtual time
        // zero — this keeps multi-phase drivers (post, run, post, run)
        // from scheduling into the past.
        let at = at.max(self.now);
        let raw = self.event_seq;
        self.event_seq += 1;
        // The bijection keeps sequence numbers unique, so permuting them
        // only reshuffles same-timestamp ties, never drops an event.
        let seq = match self.schedule_seed {
            Some(s) => crate::audit::mix64(s ^ raw),
            None => raw,
        };
        self.end_time = self.end_time.max(at);
        self.pending_events[node as usize] += 1;
        self.events.push(Reverse(Event {
            at,
            seq,
            node,
            kind,
        }));
    }

    /// Send a message (or control traffic) from `from` to `to_node`,
    /// charging both sides. Local sends are free.
    ///
    /// When a network fault plan is configured, the fate of the shipment
    /// is modeled on the virtual channel: dropped transmissions are
    /// recovered by charged retransmissions after the retry policy's
    /// backoff (the bounded-drop guarantee of
    /// [`crate::netfault::NetFaultPlan`] means delivery always succeeds
    /// eventually — the DES has no dead nodes), duplicates are suppressed
    /// by the modeled receiver dedup without re-running the handler, and
    /// delay/reorder faults skew the arrival time, which reorders the
    /// event heap exactly as a reordering fabric would. The final
    /// delivery is positively acknowledged (counted, not charged).
    fn ship(
        &mut self,
        at: Duration,
        from: NodeId,
        to_node: NodeId,
        bytes: usize,
        node_kind: EvKind,
    ) {
        if from == to_node {
            self.push_event(at, to_node, node_kind);
            return;
        }
        let transfer = self.cfg.net.transfer_time(bytes);
        self.nodes[from as usize].core.stats.comm += transfer;
        self.nodes[to_node as usize].core.stats.comm += transfer;
        self.nodes[from as usize].core.stats.bytes_sent += bytes as u64;
        let mut arrive = at + transfer;
        if let Some(plan) = self.cfg.net_fault {
            let seq_slot = self.net_seq.entry((from, to_node)).or_insert(0);
            let seq = *seq_slot;
            *seq_slot += 1;
            let mut attempt = 0u32;
            loop {
                let d = plan.decide(from, to_node, seq, attempt);
                if d.drop {
                    // The sender's ack timeout recovers the loss: charge
                    // the backoff plus a fresh transfer for the
                    // retransmission.
                    self.nodes[from as usize].core.stats.messages_dropped += 1;
                    self.nodes[from as usize].core.stats.retransmits += 1;
                    self.nodes[from as usize].core.stats.comm += transfer;
                    self.nodes[to_node as usize].core.stats.comm += transfer;
                    self.nodes[from as usize].core.stats.bytes_sent += bytes as u64;
                    audit_emit!(
                        self.audit,
                        RuntimeEvent::NetFault {
                            node: from,
                            dest: to_node,
                            kind: crate::netfault::NetFaultKind::Drop,
                        }
                    );
                    attempt += 1;
                    audit_emit!(
                        self.audit,
                        RuntimeEvent::Retransmit {
                            node: from,
                            dest: to_node,
                            seq,
                            attempt,
                        }
                    );
                    arrive += self.fault_penalty(ENGINE_RETRY.delay(attempt, seq) + transfer);
                    continue;
                }
                if d.duplicate {
                    // The duplicate copy reaches the receiver, whose
                    // sequence-number dedup suppresses it: the handler
                    // will run exactly once.
                    self.nodes[to_node as usize].core.stats.dup_suppressed += 1;
                    audit_emit!(
                        self.audit,
                        RuntimeEvent::NetFault {
                            node: from,
                            dest: to_node,
                            kind: crate::netfault::NetFaultKind::Duplicate,
                        }
                    );
                    audit_emit!(
                        self.audit,
                        RuntimeEvent::DupSuppressed {
                            node: to_node,
                            src: from,
                            seq,
                        }
                    );
                }
                if !d.delay.is_zero() {
                    audit_emit!(
                        self.audit,
                        RuntimeEvent::NetFault {
                            node: from,
                            dest: to_node,
                            kind: if d.delay > plan.delay {
                                crate::netfault::NetFaultKind::Reorder
                            } else {
                                crate::netfault::NetFaultKind::Delay
                            },
                        }
                    );
                    arrive += self.fault_penalty(d.delay);
                }
                break;
            }
            // Every delivered data message is positively acknowledged.
            self.nodes[to_node as usize].core.stats.acks_sent += 1;
        }
        self.push_event(arrive, to_node, node_kind);
    }

    // ----- main loop -----------------------------------------------------------

    /// Run to quiescence; returns the run's statistics. The runtime can be
    /// inspected afterwards ([`DesRuntime::with_object`]) and re-posted to
    /// for a second phase. Panics if a spilled object became unreadable —
    /// use [`DesRuntime::try_run`] to handle that as a typed error.
    pub fn run(&mut self) -> RunStats {
        self.try_run()
            .unwrap_or_else(|e| panic!("MRTS run failed: {e}"))
    }

    /// Like [`DesRuntime::run`], but surfaces unrecoverable storage
    /// failures (a spilled object unreadable after exhausting the retry
    /// policy) as [`MrtsError`] instead of panicking. The run stops at the
    /// failing event; the heap retains the unprocessed remainder.
    pub fn try_run(&mut self) -> Result<RunStats, MrtsError> {
        self.ran = true;
        while let Some(Reverse(ev)) = self.events.pop() {
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.pending_events[ev.node as usize] =
                self.pending_events[ev.node as usize].saturating_sub(1);
            self.handle(ev);
            if let Some(err) = self.fatal.take() {
                return Err(err);
            }
        }
        // Quiescence: the event heap drained, so the computation
        // terminated — every node observes it.
        #[cfg(any(feature = "audit", debug_assertions))]
        for node in 0..self.nodes.len() as NodeId {
            audit_emit!(self.audit, RuntimeEvent::Terminate { node });
            audit_emit!(
                self.audit,
                RuntimeEvent::Shutdown {
                    node,
                    used: self.nodes[node as usize].core.ooc.used()
                }
            );
        }
        for n in &mut self.nodes {
            n.core.seal_stats();
        }
        Ok(self.collect_stats())
    }

    fn collect_stats(&self) -> RunStats {
        let mut total = self.end_time;
        for n in &self.nodes {
            for &c in &n.core_free {
                total = total.max(c);
            }
            for &d in &n.disk_free {
                total = total.max(d);
            }
        }
        RunStats {
            total,
            // Virtual time has no wall-clock overlap measurement; the
            // busy-excess estimate in `overlap_pct` applies instead.
            measured_overlap: false,
            nodes: self
                .nodes
                .iter()
                .map(|n| {
                    let mut s = n.core.stats.clone();
                    // Virtual-time idleness: the makespan minus this
                    // node's compute time — the span it spent waiting on
                    // the disk, the network, or a phase's stragglers.
                    s.idle = total.saturating_sub(s.comp);
                    s
                })
                .collect(),
        }
    }

    fn handle(&mut self, ev: Event) {
        let node = ev.node;
        match ev.kind {
            EvKind::Net(msg) => self.on_net(node, msg),
            EvKind::Loaded(oid) => self.on_loaded(node, oid),
        }
        // A node that still has queued work after this event may feed an
        // idle peer.
        self.maybe_steal(node);
        // Every event may queue or unblock loads (messages arriving for
        // on-disk objects, evictions of queued objects, completed loads
        // freeing window slots); issue what the window allows.
        let now = self.now;
        self.pump(node, now);
        // A degraded node re-probes its backend on every event it handles;
        // the first healthy probe restores normal eviction.
        if self.nodes[node as usize].core.ooc.is_degraded() {
            self.probe_degraded(node, now);
        }
    }

    /// Re-probe a degraded node's spill store; on success exit degraded
    /// mode and immediately shed the footprint overshoot accumulated while
    /// evictions were suspended.
    fn probe_degraded(&mut self, node: NodeId, at: Duration) {
        let ok = self.nodes[node as usize].store.probe().is_ok();
        self.drain_store_faults(node);
        if ok {
            self.nodes[node as usize].core.leave_degraded(at);
            self.flush(node, at);
        }
    }

    /// Drain fault reports from a node's store: count them, emit audit
    /// events, and return the total injected latency (charged to the
    /// virtual disk channel by the caller).
    fn drain_store_faults(&mut self, node: NodeId) -> Duration {
        let reports = self.nodes[node as usize].store.take_fault_reports();
        let mut latency = Duration::ZERO;
        for r in &reports {
            latency += r.delay;
            self.nodes[node as usize].core.stats.faults_injected += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::Fault {
                    node,
                    kind: r.kind,
                    key: r.key
                }
            );
        }
        latency
    }

    // ----- driving the node core -----------------------------------------------

    /// Hand one arrived message to the node's core and carry out what it
    /// decided. A steal request is answered with this engine's pick (see
    /// [`holds_backlog`]); a grant travels through the ordinary migration
    /// path — load if spilled, then install at the thief.
    fn on_net(&mut self, node: NodeId, msg: NetMsg) {
        let now = self.now;
        let core = &mut self.nodes[node as usize].core;
        if let Some(thief) = core.on_net(msg, now, &self.registry) {
            match core.steal_pick(holds_backlog) {
                Some(oid) => core.grant_steal(oid, thief, now),
                None => core.deny_steal(thief, now),
            }
        }
        self.drain(node, now);
    }

    /// Carry out what `node`'s core decided since the last drain, in its
    /// order: pack/unpack time is charged as compute, every message is
    /// shipped at its modelled size (a local one becomes an event on the
    /// same node), I/O runs on the virtual disk channels at `at`, and
    /// objects that became runnable execute right away. Called after
    /// every core transition that can produce any of them.
    fn drain(&mut self, node: NodeId, at: Duration) {
        let work = std::mem::take(&mut self.nodes[node as usize].core.codec_work);
        let charge = work.iter().map(|&(wall, n)| self.compute_charge(wall, n));
        let charge: Duration = charge.sum();
        self.nodes[node as usize].core.stats.comp += charge;
        let mut out = std::mem::take(&mut self.nodes[node as usize].core.out);
        for (dest, msg, not_before) in out.drain(..) {
            let bytes = match &msg {
                NetMsg::Msg(m) => m.wire_size(),
                NetMsg::DirUpdate { .. } => DIR_UPDATE_BYTES,
                NetMsg::Install(install) => install.packed.len(),
                NetMsg::MigrateReq { .. }
                | NetMsg::Meta { .. }
                | NetMsg::StealReq { .. }
                | NetMsg::StealDeny { .. } => CTL_BYTES,
            };
            self.ship(not_before, node, dest, bytes, EvKind::Net(msg));
        }
        self.nodes[node as usize].core.out = out;
        self.flush(node, at);
        let mut runnable = std::mem::take(&mut self.nodes[node as usize].core.runnable);
        for oid in runnable.drain(..) {
            // Drain the object's queue in arrival order, for as long as it
            // stays in core (a handler's own creations may evict it, and
            // the eviction has then queued its reload).
            while let Some((obj, old_footprint, msg)) =
                self.nodes[node as usize].core.begin_handler(oid)
            {
                self.execute(node, oid, obj, old_footprint, msg);
            }
        }
        self.nodes[node as usize].core.runnable = runnable;
    }

    /// Issue queued loads (see [`NodeCore::pump_loads`]): a load is
    /// look-ahead while a virtual core is busy beyond `at`. Nothing polls
    /// in virtual time — the pump only runs when an event arrives — so a
    /// non-empty queue with nothing in flight would never be pumped again:
    /// the front entry is forced through ([`NodeCore::force_front_load`]).
    fn pump(&mut self, node: NodeId, at: Duration) {
        let n = &mut self.nodes[node as usize];
        if !n.core.has_pending_loads() {
            return;
        }
        let busy = n.core_free.iter().any(|&c| c > at);
        n.core.pump_loads(busy, at);
        n.core.force_front_load(at);
        self.flush(node, at);
    }

    /// Perform the I/O the core asked for since the last flush, at virtual
    /// time `at`, synchronously on the node's virtual disk channels.
    /// Called after every core transition that can evict or load.
    fn flush(&mut self, node: NodeId, at: Duration) {
        if self.nodes[node as usize].core.cmds.is_empty() {
            return;
        }
        let mut cmds = std::mem::take(&mut self.nodes[node as usize].core.cmds);
        for cmd in cmds.drain(..) {
            match cmd {
                // Nothing to model: no bytes move, and the stored copy
                // became valid before the load that brought the object in.
                IoCmd::Elided(_) => {}
                IoCmd::SetRanks(ranks) => self.nodes[node as usize].store.set_key_ranks(&ranks),
                IoCmd::Store(items) => {
                    // One batched append: only the first store pays the
                    // seek component.
                    for (i, (key, oid, obj)) in items.into_iter().enumerate() {
                        self.exec_store(node, key, oid, obj, at, i > 0);
                    }
                }
                IoCmd::Load {
                    oid, packed_len, ..
                } => {
                    // The bytes are read (and faults injected) when the
                    // load completes; see `on_loaded`.
                    let ready = self.nodes[node as usize].disk_ready_at.remove(&oid);
                    let dur = self.cfg.disk.op_time(packed_len);
                    let end = self.occupy_disk(node, at.max(ready.unwrap_or_default()), dur);
                    self.push_event(end, node, EvKind::Loaded(oid));
                }
            }
        }
        let core = &mut self.nodes[node as usize].core;
        debug_assert!(core.cmds.is_empty(), "commands appended during a flush");
        core.cmds = cmds;
    }

    /// Occupy the node's earliest-free virtual disk channel for `dur`,
    /// starting no earlier than `not_before`; returns the completion time.
    fn occupy_disk(&mut self, node: NodeId, not_before: Duration, dur: Duration) -> Duration {
        let n = &mut self.nodes[node as usize];
        let ch = (0..n.disk_free.len())
            .min_by_key(|&i| n.disk_free[i])
            .expect("node has at least one disk channel");
        let end = not_before.max(n.disk_free[ch]) + dur;
        n.disk_free[ch] = end;
        n.core.stats.disk += dur;
        self.end_time = self.end_time.max(end);
        end
    }

    /// Serialize one evicted object to the (modeled) disk. Store failures
    /// are retried with bounded backoff; exhaustion (or `ENOSPC`) hands
    /// the object back to the core ([`NodeCore::store_failed`]) instead of
    /// panicking.
    ///
    /// `coalesce` marks a store that joins an earlier one from the same
    /// batch in a single append: it is charged transfer time only (the
    /// seek component was paid by the first store).
    fn exec_store(
        &mut self,
        node: NodeId,
        key: u64,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        at: Duration,
        coalesce: bool,
    ) {
        // Real serialization, charged as compute. The object is kept alive
        // until the store succeeds so a failed store can reinstate it.
        // Packs into the node's reusable buffer.
        let t0 = Instant::now();
        let mut bytes = std::mem::take(&mut self.nodes[node as usize].pack_buf);
        let pool_hit = bytes.capacity() > 0;
        Registry::pack_into(obj.as_ref(), &mut bytes);
        let pack = self.compute_charge(t0.elapsed(), bytes.len());
        let packed_len = bytes.len();
        self.nodes[node as usize].core.stats.comp += pack;
        // Retry loop: each failed attempt charges one disk op plus the
        // backoff delay to the virtual channel. A torn write is repaired by
        // the retry overwriting the same key (nothing can load the key
        // while its store is still in progress — per-object ordering).
        let mut attempt = 0u32;
        let mut penalty = Duration::ZERO;
        let outcome = loop {
            attempt += 1;
            match self.nodes[node as usize].store.store(key, &bytes) {
                Ok(()) => break Ok(()),
                Err(e) => {
                    let injected = self.drain_store_faults(node);
                    penalty += self.fault_penalty(injected);
                    if attempt >= ENGINE_RETRY.max_attempts || is_out_of_space(&e) {
                        break Err(e);
                    }
                    penalty += self.fault_penalty(
                        self.cfg.disk.op_time(packed_len) + ENGINE_RETRY.delay(attempt, key),
                    );
                    self.nodes[node as usize].core.stats.io_retries += 1;
                    audit_emit!(self.audit, RuntimeEvent::Retry { node, oid, attempt });
                }
            }
        };
        let injected = self.drain_store_faults(node);
        penalty += self.fault_penalty(injected);
        self.nodes[node as usize].pack_buf = bytes;

        if outcome.is_err() {
            // Charge the wasted disk time. The object can only have
            // queued messages if its queue is being drained in place
            // (resident objects execute on arrival), and that drain finds
            // it back in core — nothing to re-deliver here.
            self.nodes[node as usize].core.stats.io_gave_up += 1;
            if !penalty.is_zero() {
                self.occupy_disk(node, at, penalty);
            }
            self.nodes[node as usize].core.store_failed(oid, obj);
            return;
        }
        drop(obj);
        // A coalesced store appends to the same segment the batch's first
        // store opened: charge transfer time only, refunding the seek.
        let op = self.cfg.disk.op_time(packed_len);
        let dur = if coalesce {
            op.saturating_sub(self.cfg.disk.seek) + penalty
        } else {
            op + penalty
        };
        let end = self.occupy_disk(node, at, dur);
        let n = &mut self.nodes[node as usize];
        n.core.stats.buffer_pool_hits += usize::from(pool_hit);
        // A reload of this object must start after its bytes are valid.
        n.disk_ready_at.insert(oid, end);
        n.core.store_landed(oid, packed_len);
    }

    fn on_loaded(&mut self, node: NodeId, oid: ObjectId) {
        let (key, packed_len) = {
            let e = self.nodes[node as usize].core.entry(oid);
            (
                e.spill_key.expect("loading object has a spill key"),
                e.packed_len,
            )
        };
        // Read the spilled bytes back, retrying transient faults with
        // bounded backoff charged to the virtual disk channel. Exhaustion
        // is unrecoverable (the object exists nowhere else): abort the run
        // with a typed error.
        let mut attempt = 0u32;
        let mut penalty = Duration::ZERO;
        let bytes = loop {
            attempt += 1;
            match self.nodes[node as usize].store.load(key) {
                Ok(b) => break b,
                Err(source) => {
                    let injected = self.drain_store_faults(node);
                    penalty += self.fault_penalty(injected);
                    if attempt >= ENGINE_RETRY.max_attempts {
                        let n = &mut self.nodes[node as usize];
                        n.core.load_failed(oid);
                        n.core.stats.disk += penalty;
                        self.fatal = Some(MrtsError::LoadFailed {
                            node,
                            oid,
                            attempts: attempt,
                            source,
                        });
                        return;
                    }
                    penalty += self.fault_penalty(
                        self.cfg.disk.op_time(packed_len) + ENGINE_RETRY.delay(attempt, key),
                    );
                    self.nodes[node as usize].core.stats.io_retries += 1;
                    audit_emit!(self.audit, RuntimeEvent::Retry { node, oid, attempt });
                }
            }
        };
        let injected = self.drain_store_faults(node);
        penalty += self.fault_penalty(injected);
        if !penalty.is_zero() {
            self.occupy_disk(node, self.now, penalty);
        }
        debug_assert_eq!(bytes.len(), packed_len);
        // Real unpack, charged as compute.
        let t0 = Instant::now();
        let obj = self
            .registry
            .unpack(&bytes)
            .expect("spill bytes were packed by this runtime from a registered type");
        let unpack = self.compute_charge(t0.elapsed(), bytes.len());
        let now = self.now;
        let n = &mut self.nodes[node as usize];
        n.core.stats.comp += unpack;
        // Overlap classification: a load completing while a virtual core
        // is still busy was masked by computation.
        let miss = !n.core_free.iter().any(|&c| c > now);
        n.core.complete_load(oid, obj, packed_len, miss);
        n.core.resume(oid, now);
        self.drain(node, now);
    }

    // ----- handler execution --------------------------------------------------

    /// Run one handler on an object the core has taken out
    /// ([`NodeCore::begin_handler`]) and charge it to a virtual core.
    fn execute(
        &mut self,
        node: NodeId,
        oid: ObjectId,
        mut obj: Box<dyn MobileObject>,
        old_footprint: usize,
        msg: Message,
    ) {
        let handler = self.registry.handler(msg.handler);
        let arrival_floor = self.nodes[node as usize].core.entry(oid).obj_free_at;

        let mut next_seq = self.nodes[node as usize].next_obj_seq;
        let mut backend = SequentialBackend;
        let src_node = *msg.route.first().unwrap_or(&node);
        let mut ctx = Ctx::new(node, msg.to, src_node, &mut next_seq, &mut backend);
        let t0 = Instant::now();
        handler(obj.as_mut(), &mut ctx, &msg.payload);
        let wall = t0.elapsed();

        // Virtual duration: measured serial time outside parallel sections,
        // plus each section's modeled makespan on this node's cores.
        let reports = std::mem::take(&mut ctx.parallel_reports);
        let effects = std::mem::take(&mut ctx.effects);
        drop(ctx);
        self.nodes[node as usize].next_obj_seq = next_seq;
        let tasks_wall: Duration = reports.iter().map(|r| r.wall).sum();
        let tasks_virtual: Duration = reports
            .iter()
            .map(|r| {
                self.cfg
                    .executor
                    .makespan(&r.durations, self.cfg.cores_per_node)
            })
            .sum();
        let vdur = if self.cfg.deterministic_compute {
            self.compute_charge(Duration::ZERO, msg.payload.len())
        } else {
            (wall.saturating_sub(tasks_wall) + tasks_virtual).mul_f64(self.cfg.compute_scale)
        };

        // Schedule on the earliest-free virtual core.
        let end = {
            let n = &mut self.nodes[node as usize];
            let core = (0..n.core_free.len())
                .min_by_key(|&i| n.core_free[i])
                .expect("node has at least one core");
            let start = self.now.max(arrival_floor).max(n.core_free[core]);
            let end = start + vdur;
            n.core_free[core] = end;
            n.core.stats.comp += vdur;
            end
        };
        self.end_time = self.end_time.max(end);

        // Put the object back (busy until `end`); its sends teach the
        // locality curve before they dispatch.
        let core = &mut self.nodes[node as usize].core;
        core.finish_handler(oid, obj, old_footprint, &effects, end);
        core.apply_effects(effects, end);
        // Hard budget enforcement (handlers grow objects in place), then
        // advisory soft-threshold swapping. The object itself is protected:
        // its queue may be mid-drain.
        core.enforce_budget(Some(oid), end);
        core.soft_swap(end);
        self.drain(node, end);
    }

    // ----- work stealing ----------------------------------------------------

    /// After each handled event: if this node has a backlog to spare and a
    /// peer has gone completely quiet, fire a steal request on the idle
    /// peer's behalf. The protocol still runs thief → victim and pays
    /// control-message latency both ways, as on a real fabric; only the
    /// *trigger* is this engine's — virtual time can see "no events
    /// scheduled" directly where a real thief counts empty polls.
    fn maybe_steal(&mut self, node: NodeId) {
        if !self.cfg.work_stealing || self.nodes.len() < 2 {
            return;
        }
        // Keep at least one queued task at home: stealing the victim's
        // last one just moves the imbalance around.
        if self.nodes[node as usize].core.steal_backlog(holds_backlog) < 2 {
            return;
        }
        let thief = (0..self.nodes.len() as NodeId).find(|&t| {
            t != node
                && self.pending_events[t as usize] == 0
                && !self.nodes[t as usize].core.awaiting_steal
        });
        let Some(thief) = thief else { return };
        let now = self.now;
        let core = &mut self.nodes[thief as usize].core;
        core.stats.idle_ticks += 1;
        core.request_steal(node, now);
        self.drain(thief, now);
    }

    // ----- inspection (post-run) ---------------------------------------------------

    /// Packed bytes of the spilled object `oid` of `node`, read from the
    /// node's store post-run (uncharged: there is no virtual clock left).
    fn load_packed(&mut self, node: NodeId, oid: ObjectId, key: u64) -> Result<Vec<u8>, MrtsError> {
        let store = &mut self.nodes[node as usize].store;
        load_spilled(node, oid, key, || store.load(key))
    }

    /// Visit an object wherever it is (following migrations, loading from
    /// the spill store if needed — uncharged; for result extraction).
    /// Panics if a spilled object is unreadable; see
    /// [`DesRuntime::try_with_object`].
    pub fn with_object<R>(&mut self, ptr: MobilePtr, f: impl FnOnce(&dyn MobileObject) -> R) -> R {
        self.try_with_object(ptr, f)
            .unwrap_or_else(|e| panic!("MRTS result extraction failed: {e}"))
    }

    /// [`DesRuntime::with_object`], surfacing a spilled object that stays
    /// unreadable under the engines' retry policy as
    /// [`MrtsError::LoadFailed`].
    pub fn try_with_object<R>(
        &mut self,
        ptr: MobilePtr,
        f: impl FnOnce(&dyn MobileObject) -> R,
    ) -> Result<R, MrtsError> {
        let node = self.owner_of(ptr.id);
        let e = self.nodes[node as usize]
            .core
            .table
            .get(&ptr.id)
            .unwrap_or_else(|| panic!("no object {:?}", ptr.id));
        match &e.state {
            State::InCore(obj) => Ok(f(obj.as_ref())),
            State::OnDisk | State::Loading => {
                let key = e.spill_key.expect("on-disk object has a key");
                let bytes = self.load_packed(node, ptr.id, key)?;
                let obj = self
                    .registry
                    .unpack(&bytes)
                    .expect("spill bytes were packed by this runtime from a registered type");
                Ok(f(obj.as_ref()))
            }
            State::Executing => unreachable!("no handler is running post-run"),
            State::Moved(_) => unreachable!("owner_of follows tombstones"),
        }
    }

    /// Visit every live object (post-run; arbitrary order). Panics if a
    /// spilled object is unreadable; see
    /// [`DesRuntime::try_for_each_object`].
    pub fn for_each_object(&mut self, f: impl FnMut(ObjectId, &dyn MobileObject)) {
        self.try_for_each_object(f)
            .unwrap_or_else(|e| panic!("MRTS result extraction failed: {e}"))
    }

    /// [`DesRuntime::for_each_object`], stopping at the first spilled
    /// object that stays unreadable ([`MrtsError::LoadFailed`]).
    pub fn try_for_each_object(
        &mut self,
        mut f: impl FnMut(ObjectId, &dyn MobileObject),
    ) -> Result<(), MrtsError> {
        for node in 0..self.nodes.len() {
            let oids: Vec<ObjectId> = self.nodes[node]
                .core
                .table
                .iter()
                .filter(|(_, e)| !matches!(e.state, State::Moved(_)))
                .map(|(&oid, _)| oid)
                .collect();
            for oid in oids {
                self.try_with_object(MobilePtr::new(oid), |obj| f(oid, obj))?;
            }
        }
        Ok(())
    }

    // ----- checkpoint support (see crate::checkpoint) ------------------------

    /// Install an object from a checkpoint entry (bootstrap-time).
    pub(crate) fn install_from_checkpoint(
        &mut self,
        node: NodeId,
        oid: ObjectId,
        packed: &[u8],
        priority: u8,
        locked: bool,
    ) {
        let obj = self
            .registry
            .unpack(packed)
            .expect("checkpoint entries hold pack output of registered types");
        let footprint = obj.footprint();
        self.nodes[node as usize]
            .core
            .admit(footprint, Duration::ZERO);
        self.flush(node, Duration::ZERO);
        let prev = self.nodes[node as usize].core.insert_resident(
            oid,
            obj,
            priority,
            locked,
            0,
            Duration::ZERO,
        );
        assert!(prev.is_none(), "checkpoint restore collided with {oid:?}");
        audit_emit!(
            self.audit,
            RuntimeEvent::Create {
                node,
                oid,
                footprint
            }
        );
        self.nodes[node as usize].core.audit_budget(false);
    }

    /// Raise per-node object-id allocation watermarks (restore path).
    pub(crate) fn set_seq_watermarks(&mut self, seq: &[u64]) {
        for (i, &s) in seq.iter().enumerate() {
            if let Some(n) = self.nodes.get_mut(i) {
                n.next_obj_seq = n.next_obj_seq.max(s);
            }
        }
        // Objects restored from a differently-sized cluster keep their
        // original home ids; make sure every node's allocator clears every
        // restored id of its own home.
        for node in 0..self.nodes.len() {
            let max_seq = self.nodes[node]
                .core
                .table
                .keys()
                .filter(|oid| oid.home() as usize == node)
                .map(|oid| oid.seq() + 1)
                .max()
                .unwrap_or(0);
            let n = &mut self.nodes[node];
            n.next_obj_seq = n.next_obj_seq.max(max_seq);
        }
    }

    /// Snapshot every live object (must be quiescent: no events pending).
    pub(crate) fn snapshot_objects(
        &mut self,
    ) -> (Vec<crate::checkpoint::CheckpointEntry>, Vec<u64>) {
        assert!(
            self.events.is_empty(),
            "checkpoint requires quiescence (run() completed)"
        );
        let mut out = Vec::new();
        for node in 0..self.nodes.len() {
            // Hash order would leak into the entry order (and from there
            // into the restored runtime's install order, which schedules
            // work): sort so two captures of the same state encode
            // identically, matching the threaded engine's checkpoint.
            let mut oids: Vec<ObjectId> = self.nodes[node].core.table.keys().copied().collect();
            oids.sort_unstable_by_key(|o| o.0);
            for oid in oids {
                let e = self.nodes[node].core.entry(oid);
                let (priority, locked) = (e.priority, e.locked);
                let queued: Vec<Message> = e.queue.iter().cloned().collect();
                let packed = match &e.state {
                    State::InCore(obj) => Registry::pack(obj.as_ref()),
                    State::OnDisk | State::Loading => {
                        let key = e.spill_key.expect("spilled object has key");
                        self.load_packed(node as NodeId, oid, key)
                            .unwrap_or_else(|e| panic!("MRTS checkpoint failed: {e}"))
                    }
                    State::Executing => unreachable!("quiescent"),
                    State::Moved(_) => continue,
                };
                out.push(crate::checkpoint::CheckpointEntry {
                    node: node as NodeId,
                    oid,
                    priority,
                    locked,
                    packed,
                    queued,
                });
            }
        }
        let next_seq = self.nodes.iter().map(|n| n.next_obj_seq).collect();
        (out, next_seq)
    }

    /// Number of live objects across all nodes.
    pub fn num_objects(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.core
                    .table
                    .values()
                    .filter(|e| !matches!(e.state, State::Moved(_)))
                    .count()
            })
            .sum()
    }
}
