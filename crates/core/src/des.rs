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
use crate::fault::{is_out_of_space, FaultPlan, FaultyStore, MrtsError, ENGINE_RETRY};
use crate::ids::{NodeId, ObjectId};
use crate::msg::Message;
use crate::node::{Entry, IoCmd, MetaOp, NetMsg, State};
use crate::object::{MobileObject, Registry};
use crate::runtime::{home_of, hooks::Hooks, shared_store, Boot, Engine, Runtime, SharedStore};
use crate::stats::RunStats;
use crate::storage::{MemStore, StorageBackend};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// Size in bytes charged for a directory-update service message.
const DIR_UPDATE_BYTES: usize = 32;
/// Size charged for control messages (migrate and steal requests).
const CTL_BYTES: usize = 64;

/// The virtual-time MRTS runtime: [`Runtime`] on the [`Des`] engine.
pub type DesRuntime = Runtime<Des>;

/// One node's virtual clocks. Its `NodeCore` (object table, budget,
/// locality, load queue and prefetch window, directory, routing,
/// migration, node statistics) and its spill store are the runtime's;
/// this engine drives them on virtual disk channels and a virtual network
/// (see `drain`).
struct NodeState {
    core_free: Vec<Duration>,
    /// Earliest-free time per virtual disk channel (`io_threads` of them —
    /// the modeled I/O parallelism of the storage pipeline).
    disk_free: Vec<Duration>,
    /// Per spilled object, the virtual time at which its on-disk bytes
    /// become valid (the end of its store). Disk-model state: set by
    /// `exec_store`, consumed by the reload, which must not start earlier.
    disk_ready_at: HashMap<ObjectId, Duration>,
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

/// The virtual-time engine's state: the event heap and every node's
/// virtual clocks. See the module docs.
pub struct Des {
    nodes: Vec<NodeState>,
    events: BinaryHeap<Reverse<Event>>,
    now: Duration,
    event_seq: u64,
    end_time: Duration,
    /// When set, same-timestamp event tie-breaks are permuted through a
    /// seeded bijection (see [`DesRuntime::set_schedule_seed`]).
    schedule_seed: Option<u64>,
    /// Set when a spilled object could not be read back: the run aborts
    /// and `try_run` surfaces the typed error.
    fatal: Option<MrtsError>,
    /// Per-directed-edge logical message counter for the network fault
    /// model (sequence numbers the fault plan draws against).
    net_seq: HashMap<(NodeId, NodeId), u64>,
    /// Events currently scheduled per node; a node at zero has nothing
    /// coming and is the virtual-time notion of "idle" work stealing keys
    /// off (the threaded engine's empty-poll streak, collapsed).
    pending_events: Vec<usize>,
}

impl Engine for Des {}

impl Hooks for Des {
    fn new(cfg: &MrtsConfig) -> (Self, Vec<SharedStore>) {
        let nodes = (0..cfg.nodes)
            .map(|_| NodeState {
                core_free: vec![Duration::ZERO; cfg.cores_per_node],
                disk_free: vec![Duration::ZERO; cfg.io_threads],
                disk_ready_at: HashMap::new(),
                pack_buf: Vec::new(),
            })
            .collect();
        let stores = (0..cfg.nodes)
            .map(|i| {
                shared_store(match cfg.fault {
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
                })
            })
            .collect();
        let engine = Des {
            nodes,
            events: BinaryHeap::new(),
            now: Duration::ZERO,
            event_seq: 0,
            end_time: Duration::ZERO,
            schedule_seed: None,
            fatal: None,
            net_seq: HashMap::new(),
            pending_events: vec![0; cfg.nodes],
        };
        (engine, stores)
    }

    /// Boot actions land at once, at virtual time zero (events issued
    /// between runs are clamped to "now"): a creation is admitted — and
    /// may evict — like a handler's, a post becomes an event.
    fn boot(rt: &mut DesRuntime, action: Boot) {
        const T0: Duration = Duration::ZERO;
        match action {
            Boot::Create {
                node,
                id,
                obj,
                priority,
                locked,
            } => {
                let home = home_of(id, rt.cores.len());
                if home != node as usize {
                    rt.cores[home].learn_location(id, node);
                }
                rt.cores[node as usize].create(id, obj, priority, locked, true, T0);
                rt.flush(node, T0);
            }
            Boot::Lock(ptr) => {
                let node = rt.locate(ptr.id);
                rt.cores[node as usize].on_meta(ptr.id, MetaOp::Lock, T0);
            }
            Boot::Post(msg) => {
                let node = rt.locate(msg.to.id);
                rt.cores[node as usize].send(msg, T0);
                rt.drain(node, T0);
            }
        }
    }

    fn run(rt: &mut DesRuntime) -> Result<RunStats, MrtsError> {
        rt.run_events()
    }

    fn quiescent(rt: &DesRuntime) -> bool {
        rt.engine.events.is_empty()
    }
}

impl DesRuntime {
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
        self.engine.schedule_seed = seed;
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
        let at = at.max(self.engine.now);
        let raw = self.engine.event_seq;
        self.engine.event_seq += 1;
        // The bijection keeps sequence numbers unique, so permuting them
        // only reshuffles same-timestamp ties, never drops an event.
        let seq = match self.engine.schedule_seed {
            Some(s) => crate::audit::mix64(s ^ raw),
            None => raw,
        };
        self.engine.end_time = self.engine.end_time.max(at);
        self.engine.pending_events[node as usize] += 1;
        self.engine.events.push(Reverse(Event {
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
        self.cores[from as usize].stats.comm += transfer;
        self.cores[to_node as usize].stats.comm += transfer;
        self.cores[from as usize].stats.bytes_sent += bytes as u64;
        let mut arrive = at + transfer;
        if let Some(plan) = self.cfg.net_fault {
            let seq_slot = self.engine.net_seq.entry((from, to_node)).or_insert(0);
            let seq = *seq_slot;
            *seq_slot += 1;
            let mut attempt = 0u32;
            loop {
                let d = plan.decide(from, to_node, seq, attempt);
                if d.drop {
                    // The sender's ack timeout recovers the loss: charge
                    // the backoff plus a fresh transfer for the
                    // retransmission.
                    self.cores[from as usize].stats.messages_dropped += 1;
                    self.cores[from as usize].stats.retransmits += 1;
                    self.cores[from as usize].stats.comm += transfer;
                    self.cores[to_node as usize].stats.comm += transfer;
                    self.cores[from as usize].stats.bytes_sent += bytes as u64;
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
                    self.cores[to_node as usize].stats.dup_suppressed += 1;
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
            self.cores[to_node as usize].stats.acks_sent += 1;
        }
        self.push_event(arrive, to_node, node_kind);
    }

    // ----- main loop -----------------------------------------------------------

    /// Process events until the heap is empty (quiescence) or a fatal
    /// error: a spilled object unreadable after exhausting the retry
    /// policy or, in debug builds, a broken invariant. A failed run stops
    /// at the failing event; the heap retains the unprocessed remainder.
    /// The runtime can be inspected afterwards and re-posted to for a
    /// second phase.
    fn run_events(&mut self) -> Result<RunStats, MrtsError> {
        loop {
            // A broken invariant ends the run like any fatal error,
            // including one broken while the run was being set up.
            let broken = self.cores.iter_mut().find_map(|c| c.violation.take());
            if let Some(err) = self
                .engine
                .fatal
                .take()
                .or(broken.map(MrtsError::Invariant))
            {
                return Err(err);
            }
            let Some(Reverse(ev)) = self.engine.events.pop() else {
                break;
            };
            debug_assert!(ev.at >= self.engine.now, "time went backwards");
            self.engine.now = ev.at;
            self.engine.pending_events[ev.node as usize] =
                self.engine.pending_events[ev.node as usize].saturating_sub(1);
            self.handle(ev);
        }
        // Quiescence: the event heap drained, so the computation
        // terminated — every node observes it.
        #[cfg(any(feature = "audit", debug_assertions))]
        for node in 0..self.cores.len() as NodeId {
            audit_emit!(self.audit, RuntimeEvent::Terminate { node });
            audit_emit!(
                self.audit,
                RuntimeEvent::Shutdown {
                    node,
                    used: self.cores[node as usize].ooc.used()
                }
            );
        }
        for c in &mut self.cores {
            c.seal_stats();
            if let Some(v) = c.violation.take() {
                return Err(MrtsError::Invariant(v));
            }
        }
        Ok(self.collect_stats())
    }

    fn collect_stats(&self) -> RunStats {
        let mut total = self.engine.end_time;
        for n in &self.engine.nodes {
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
                .cores
                .iter()
                .map(|c| {
                    let mut s = c.stats.clone();
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
        let now = self.engine.now;
        self.pump(node, now);
        // A degraded node re-probes its backend on every event it handles;
        // the first healthy probe restores normal eviction.
        if self.cores[node as usize].ooc.is_degraded() {
            self.probe_degraded(node, now);
        }
    }

    /// Re-probe a degraded node's spill store; on success exit degraded
    /// mode and immediately shed the footprint overshoot accumulated while
    /// evictions were suspended.
    fn probe_degraded(&mut self, node: NodeId, at: Duration) {
        let ok = self.stores[node as usize].lock().probe().is_ok();
        self.drain_store_faults(node);
        if ok {
            self.cores[node as usize].leave_degraded(at);
            self.flush(node, at);
        }
    }

    /// Drain fault reports from a node's store: count them, emit audit
    /// events, and return the total injected latency (charged to the
    /// virtual disk channel by the caller).
    fn drain_store_faults(&mut self, node: NodeId) -> Duration {
        let reports = self.stores[node as usize].lock().take_fault_reports();
        let mut latency = Duration::ZERO;
        for r in &reports {
            latency += r.delay;
            self.cores[node as usize].stats.faults_injected += 1;
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
        let now = self.engine.now;
        let core = &mut self.cores[node as usize];
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
        let work = std::mem::take(&mut self.cores[node as usize].codec_work);
        let charge = work.iter().map(|&(wall, n)| self.compute_charge(wall, n));
        let charge: Duration = charge.sum();
        self.cores[node as usize].stats.comp += charge;
        let mut out = std::mem::take(&mut self.cores[node as usize].out);
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
        self.cores[node as usize].out = out;
        self.flush(node, at);
        let mut runnable = std::mem::take(&mut self.cores[node as usize].runnable);
        for oid in runnable.drain(..) {
            // Drain the object's queue in arrival order, for as long as it
            // stays in core (a handler's own creations may evict it, and
            // the eviction has then queued its reload).
            while let Some((obj, old_footprint, msg)) = self.cores[node as usize].begin_handler(oid)
            {
                self.execute(node, oid, obj, old_footprint, msg);
            }
        }
        self.cores[node as usize].runnable = runnable;
    }

    /// Issue queued loads (see [`NodeCore::pump_loads`]): a load is
    /// look-ahead while a virtual core is busy beyond `at`. Nothing polls
    /// in virtual time — the pump only runs when an event arrives — so a
    /// non-empty queue with nothing in flight would never be pumped again:
    /// the front entry is forced through ([`NodeCore::force_front_load`]).
    fn pump(&mut self, node: NodeId, at: Duration) {
        let core = &mut self.cores[node as usize];
        if !core.has_pending_loads() {
            return;
        }
        let busy = self.engine.nodes[node as usize]
            .core_free
            .iter()
            .any(|&c| c > at);
        core.pump_loads(busy, at);
        core.force_front_load(at);
        self.flush(node, at);
    }

    /// Perform the I/O the core asked for since the last flush, at virtual
    /// time `at`, synchronously on the node's virtual disk channels.
    /// Called after every core transition that can evict or load.
    fn flush(&mut self, node: NodeId, at: Duration) {
        if self.cores[node as usize].cmds.is_empty() {
            return;
        }
        let mut cmds = std::mem::take(&mut self.cores[node as usize].cmds);
        for cmd in cmds.drain(..) {
            match cmd {
                // Nothing to model: no bytes move, and the stored copy
                // became valid before the load that brought the object in.
                IoCmd::Elided(_) => {}
                IoCmd::SetRanks(ranks) => self.stores[node as usize].lock().set_key_ranks(&ranks),
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
                    let ready = self.engine.nodes[node as usize].disk_ready_at.remove(&oid);
                    let dur = self.cfg.disk.op_time(packed_len);
                    let end = self.occupy_disk(node, at.max(ready.unwrap_or_default()), dur);
                    self.push_event(end, node, EvKind::Loaded(oid));
                }
            }
        }
        let core = &mut self.cores[node as usize];
        debug_assert!(core.cmds.is_empty(), "commands appended during a flush");
        core.cmds = cmds;
    }

    /// Occupy the node's earliest-free virtual disk channel for `dur`,
    /// starting no earlier than `not_before`; returns the completion time.
    fn occupy_disk(&mut self, node: NodeId, not_before: Duration, dur: Duration) -> Duration {
        let n = &mut self.engine.nodes[node as usize];
        let ch = (0..n.disk_free.len())
            .min_by_key(|&i| n.disk_free[i])
            .expect("node has at least one disk channel");
        let end = not_before.max(n.disk_free[ch]) + dur;
        n.disk_free[ch] = end;
        self.cores[node as usize].stats.disk += dur;
        self.engine.end_time = self.engine.end_time.max(end);
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
        let mut bytes = std::mem::take(&mut self.engine.nodes[node as usize].pack_buf);
        let pool_hit = bytes.capacity() > 0;
        Registry::pack_into(obj.as_ref(), &mut bytes);
        let pack = self.compute_charge(t0.elapsed(), bytes.len());
        let packed_len = bytes.len();
        self.cores[node as usize].stats.comp += pack;
        // Retry loop: each failed attempt charges one disk op plus the
        // backoff delay to the virtual channel. A torn write is repaired by
        // the retry overwriting the same key (nothing can load the key
        // while its store is still in progress — per-object ordering).
        let mut attempt = 0u32;
        let mut penalty = Duration::ZERO;
        let outcome = loop {
            attempt += 1;
            let stored = self.stores[node as usize].lock().store(key, &bytes);
            match stored {
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
                    self.cores[node as usize].stats.io_retries += 1;
                    audit_emit!(self.audit, RuntimeEvent::Retry { node, oid, attempt });
                }
            }
        };
        let injected = self.drain_store_faults(node);
        penalty += self.fault_penalty(injected);
        self.engine.nodes[node as usize].pack_buf = bytes;

        if outcome.is_err() {
            // Charge the wasted disk time. The object can only have
            // queued messages if its queue is being drained in place
            // (resident objects execute on arrival), and that drain finds
            // it back in core — nothing to re-deliver here.
            self.cores[node as usize].stats.io_gave_up += 1;
            if !penalty.is_zero() {
                self.occupy_disk(node, at, penalty);
            }
            self.cores[node as usize].store_failed(oid, obj);
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
        let core = &mut self.cores[node as usize];
        core.stats.buffer_pool_hits += usize::from(pool_hit);
        // A reload of this object must start after its bytes are valid.
        self.engine.nodes[node as usize]
            .disk_ready_at
            .insert(oid, end);
        core.store_landed(oid, packed_len);
    }

    fn on_loaded(&mut self, node: NodeId, oid: ObjectId) {
        let (key, packed_len) = {
            let e = self.cores[node as usize].entry(oid);
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
            let loaded = self.stores[node as usize].lock().load(key);
            match loaded {
                Ok(b) => break b,
                Err(source) => {
                    let injected = self.drain_store_faults(node);
                    penalty += self.fault_penalty(injected);
                    if attempt >= ENGINE_RETRY.max_attempts {
                        let core = &mut self.cores[node as usize];
                        core.load_failed(oid);
                        core.stats.disk += penalty;
                        self.engine.fatal = Some(MrtsError::LoadFailed {
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
                    self.cores[node as usize].stats.io_retries += 1;
                    audit_emit!(self.audit, RuntimeEvent::Retry { node, oid, attempt });
                }
            }
        };
        let injected = self.drain_store_faults(node);
        penalty += self.fault_penalty(injected);
        if !penalty.is_zero() {
            self.occupy_disk(node, self.engine.now, penalty);
        }
        debug_assert_eq!(bytes.len(), packed_len);
        // Real unpack, charged as compute.
        let t0 = Instant::now();
        let obj = self
            .registry
            .unpack(&bytes)
            .expect("spill bytes were packed by this runtime from a registered type");
        let unpack = self.compute_charge(t0.elapsed(), bytes.len());
        let now = self.engine.now;
        let core = &mut self.cores[node as usize];
        core.stats.comp += unpack;
        // Overlap classification: a load completing while a virtual core
        // is still busy was masked by computation.
        let miss = !self.engine.nodes[node as usize]
            .core_free
            .iter()
            .any(|&c| c > now);
        core.complete_load(oid, obj, packed_len, miss);
        core.resume(oid, now);
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
        let arrival_floor = self.cores[node as usize].entry(oid).obj_free_at;

        let mut next_seq = self.next_seq[node as usize];
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
        self.next_seq[node as usize] = next_seq;
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
            let n = &mut self.engine.nodes[node as usize];
            let core = (0..n.core_free.len())
                .min_by_key(|&i| n.core_free[i])
                .expect("node has at least one core");
            let start = self.engine.now.max(arrival_floor).max(n.core_free[core]);
            let end = start + vdur;
            n.core_free[core] = end;
            self.cores[node as usize].stats.comp += vdur;
            end
        };
        self.engine.end_time = self.engine.end_time.max(end);

        // Put the object back (busy until `end`); its sends teach the
        // locality curve before they dispatch.
        let core = &mut self.cores[node as usize];
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
        if !self.cfg.work_stealing || self.engine.nodes.len() < 2 {
            return;
        }
        // Keep at least one queued task at home: stealing the victim's
        // last one just moves the imbalance around.
        if self.cores[node as usize].steal_backlog(holds_backlog) < 2 {
            return;
        }
        let thief = (0..self.engine.nodes.len() as NodeId).find(|&t| {
            t != node
                && self.engine.pending_events[t as usize] == 0
                && !self.cores[t as usize].awaiting_steal
        });
        let Some(thief) = thief else { return };
        let now = self.engine.now;
        let core = &mut self.cores[thief as usize];
        core.stats.idle_ticks += 1;
        core.request_steal(node, now);
        self.drain(thief, now);
    }
}
