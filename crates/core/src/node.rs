//! One node of the runtime, sans I/O: the out-of-core layer and the
//! control layer.
//!
//! [`NodeCore`] owns what a node needs to decide *when* and *what* to
//! swap — the object table and its index of resident objects, the budget
//! manager, the queue of pending loads and the prefetch window — and
//! *where* an object is — the lazily updated directory and the forwarding
//! tombstones in the table. It implements every step of both pipelines
//! once, for both engines:
//!
//! ```text
//! admit ─▶ evict ─┬─▶ elide (clean: drop the copy, no I/O)
//!                 └─▶ spill (dirty: one batched store)
//! message for an on-disk object ─▶ queue_load ─▶ pump_loads ─▶ issue_load
//!
//! handler effects ─▶ apply_effects ─▶ send ─┬─▶ held here: loop back
//!                                           └─▶ forward: join the route, next_hop
//! NetMsg off the wire ─▶ on_net ─┬─▶ Msg: deliver (lazy DirUpdate to every hop) / forward
//!                                ├─▶ MigrateReq ─▶ do_migrate ─▶ Install + home DirUpdate
//!                                ├─▶ Install: admit, insert, re-route the carried queue
//!                                └─▶ DirUpdate / Meta / StealReq / StealDeny
//! ```
//!
//! The core performs no I/O, sends nothing and reads no clock. Every
//! method is a state transition without a time argument (the worker
//! consults the core between handlers, never during one) that appends
//! what it wants done to three buffers, each in the order it must be
//! performed: disk operations to [`NodeCore::cmds`] as [`IoCmd`]s,
//! messages to [`NodeCore::out`] as `(destination, NetMsg)` — a
//! destination equal to this node is a local send the worker loops back —
//! and objects that just gained runnable work to [`NodeCore::runnable`]. The one worker loop (`worker.rs`) drives it,
//! under either clock: it drains the buffers into the node's
//! spill executor, the fabric and a ready deque, and feeds completions
//! and arrivals back through [`NodeCore::complete_load`],
//! [`NodeCore::store_landed`], [`NodeCore::store_failed`] and
//! [`NodeCore::on_net`]. Statistics and audit events for all of these
//! transitions are recorded here, so the two engines cannot count, route
//! or report them differently.
//!
//! *When* an idle node asks for work is its worker's call (empty polls,
//! on either clock); *which* object a victim hands over is
//! [`NodeCore::steal_pick`].

#[allow(unused_imports)]
use crate::audit::{audit_emit, RuntimeEvent};
use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::config::MrtsConfig;
use crate::ctx::Effect;
use crate::directory::Directory;
use crate::ids::{NodeId, ObjectId, ObjectMap, ObjectSet};
use crate::msg::{Message, MsgDecodeError};
use crate::object::{timed, MobileObject, Registry};
use crate::ooc::{EvictCandidate, OocManager, PREFETCH_WINDOW_BYTES, PREFETCH_WINDOW_OBJECTS};
use crate::policy::AccessMeta;
use crate::spill_io::IoReport;
use crate::stats::NodeStats;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::time::Duration;

// Wire tags of the data-plane active messages. The threaded engine's
// control ring (token, exit, ack) keeps its own tags beside these.
const AM_MSG: u32 = 1;
const AM_DIR_UPDATE: u32 = 2;
const AM_MIGRATE_REQ: u32 = 3;
const AM_INSTALL: u32 = 4;
const AM_META: u32 = 6;
/// An idle node asking a peer for one ready task.
const AM_STEAL_REQ: u32 = 10;
/// The victim had nothing stealable. A grant has no tag of its own — the
/// stolen object arrives as a regular `AM_INSTALL`.
const AM_STEAL_DENY: u32 = 11;

/// Check one per-node invariant ([`crate::audit::Invariant`]) at the
/// transition `$at` that could break it. Debug builds only. The first
/// failure is kept in [`NodeCore::violation`], naming the node, the
/// transition and (in the detail) the object; the driver ends the run
/// with it as [`crate::fault::MrtsError::Invariant`]. The core carries
/// on, so a violation never panics a worker thread.
macro_rules! check {
    ($core:expr, $ok:expr, $inv:ident, $at:expr, $($detail:tt)+) => {{
        #[cfg(debug_assertions)]
        if !$ok && $core.violation.is_none() {
            $core.violation = Some(crate::audit::Violation {
                invariant: crate::audit::Invariant::$inv,
                detail: format!("node {} {}: {}", $core.node, $at, format_args!($($detail)+)),
            });
        }
    }};
}

const META_LOCK: u8 = 0;
const META_UNLOCK: u8 = 1;
const META_PRIO: u8 = 2;

/// Metadata operation routed to an object's owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MetaOp {
    Lock,
    Unlock,
    SetPriority(u8),
}

impl MetaOp {
    fn on(self, oid: ObjectId) -> NetMsg {
        NetMsg::Meta { oid, op: self }
    }
}

/// A migrating object: everything the destination needs to take over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Install {
    pub(crate) oid: ObjectId,
    pub(crate) priority: u8,
    pub(crate) locked: bool,
    /// Sender-side mutation version; the receiver installs at
    /// `version + 1` (installing counts as a mutation), so its dirty
    /// tracking stays in sync.
    pub(crate) version: u64,
    pub(crate) packed: Vec<u8>,
    /// The object's undelivered messages travel with it.
    pub(crate) queue: VecDeque<Message>,
}

/// Everything one node says to another, in both engines: the threaded
/// engine puts [`NetMsg::encode`] on the fabric under [`NetMsg::tag`], the
/// virtual-time engine schedules the value itself as an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum NetMsg {
    /// Application message for a mobile object.
    Msg(Message),
    /// Lazy directory update: `oid` was seen at `loc`.
    DirUpdate { oid: ObjectId, loc: NodeId },
    /// Request to ship an object to `dest`.
    MigrateReq { oid: ObjectId, dest: NodeId },
    /// Metadata operation routed to the object's owner.
    Meta { oid: ObjectId, op: MetaOp },
    /// A migrated (or stolen) object arriving.
    Install(Install),
    /// An idle node asking this node for one queued task.
    StealReq { thief: NodeId },
    /// The named victim had nothing stealable.
    StealDeny { victim: NodeId },
}

/// A frame that is not a [`NetMsg`]: a tag this vocabulary does not have,
/// or a payload its tag cannot parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WireError {
    UnknownTag(u32),
    Malformed,
}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Malformed
    }
}

impl From<MsgDecodeError> for WireError {
    fn from(_: MsgDecodeError) -> Self {
        WireError::Malformed
    }
}

impl NetMsg {
    pub(crate) fn tag(&self) -> u32 {
        match self {
            NetMsg::Msg(_) => AM_MSG,
            NetMsg::DirUpdate { .. } => AM_DIR_UPDATE,
            NetMsg::MigrateReq { .. } => AM_MIGRATE_REQ,
            NetMsg::Meta { .. } => AM_META,
            NetMsg::Install(_) => AM_INSTALL,
            NetMsg::StealReq { .. } => AM_STEAL_REQ,
            NetMsg::StealDeny { .. } => AM_STEAL_DENY,
        }
    }

    /// The payload that travels under [`NetMsg::tag`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            NetMsg::Msg(m) => return m.encode(),
            NetMsg::DirUpdate { oid, loc: node } | NetMsg::MigrateReq { oid, dest: node } => {
                w.u64(oid.0).u16(*node);
            }
            NetMsg::Meta { oid, op } => {
                let (code, arg) = match *op {
                    MetaOp::Lock => (META_LOCK, 0),
                    MetaOp::Unlock => (META_UNLOCK, 0),
                    MetaOp::SetPriority(v) => (META_PRIO, v),
                };
                w.u64(oid.0).u8(code).u8(arg);
            }
            NetMsg::Install(i) => {
                w = PayloadWriter::with_capacity(i.packed.len() + 64);
                w.u64(i.oid.0)
                    .u8(i.priority)
                    .u8(u8::from(i.locked))
                    .u64(i.version)
                    .bytes(&i.packed)
                    .u32(i.queue.len() as u32);
                for m in &i.queue {
                    w.bytes(&m.encode());
                }
            }
            NetMsg::StealReq { thief: node } | NetMsg::StealDeny { victim: node } => {
                w.u16(*node);
            }
        }
        w.finish()
    }

    /// Inverse of [`NetMsg::encode`] for a frame received under `tag`.
    pub(crate) fn decode(tag: u32, payload: &[u8]) -> Result<NetMsg, WireError> {
        let mut r = PayloadReader::new(payload);
        Ok(match tag {
            AM_MSG => NetMsg::Msg(Message::decode(payload)?),
            AM_DIR_UPDATE => NetMsg::DirUpdate {
                oid: ObjectId(r.u64()?),
                loc: r.u16()?,
            },
            AM_MIGRATE_REQ => NetMsg::MigrateReq {
                oid: ObjectId(r.u64()?),
                dest: r.u16()?,
            },
            AM_META => {
                let oid = ObjectId(r.u64()?);
                let op = match (r.u8()?, r.u8()?) {
                    (META_LOCK, _) => MetaOp::Lock,
                    (META_UNLOCK, _) => MetaOp::Unlock,
                    (META_PRIO, v) => MetaOp::SetPriority(v),
                    _ => return Err(WireError::Malformed),
                };
                NetMsg::Meta { oid, op }
            }
            AM_INSTALL => {
                let oid = ObjectId(r.u64()?);
                let (priority, locked, version) = (r.u8()?, r.u8()? != 0, r.u64()?);
                let packed = r.bytes()?.to_vec();
                let n_msgs = r.u32()? as usize;
                // Every queued message takes at least its length prefix:
                // a count the payload cannot hold is damage, not a reason
                // to allocate.
                if n_msgs > r.remaining() / 4 {
                    return Err(WireError::Malformed);
                }
                let mut queue = VecDeque::with_capacity(n_msgs);
                for _ in 0..n_msgs {
                    queue.push_back(Message::decode(r.bytes()?)?);
                }
                NetMsg::Install(Install {
                    oid,
                    priority,
                    locked,
                    version,
                    packed,
                    queue,
                })
            }
            AM_STEAL_REQ => NetMsg::StealReq { thief: r.u16()? },
            AM_STEAL_DENY => NetMsg::StealDeny { victim: r.u16()? },
            other => return Err(WireError::UnknownTag(other)),
        })
    }
}

/// Where an object's bytes are.
pub(crate) enum State {
    InCore(Box<dyn MobileObject>),
    OnDisk,
    Loading,
    /// Temporarily taken out for handler execution.
    Executing,
    /// Migrated away; forward messages to the node.
    Moved(NodeId),
}

/// One object-table entry.
pub(crate) struct Entry {
    pub(crate) state: State,
    pub(crate) queue: VecDeque<Message>,
    pub(crate) meta: AccessMeta,
    pub(crate) priority: u8,
    pub(crate) locked: bool,
    pub(crate) footprint: usize,
    /// Size of the last packed image (set when its store lands).
    pub(crate) packed_len: usize,
    pub(crate) spill_key: Option<u64>,
    /// Set when the object must be shipped to another node once available.
    pub(crate) pending_migration: Option<NodeId>,
    /// The object sits in `pending_loads` awaiting issue.
    load_queued: bool,
    /// The object's latest store has been issued and has not landed: a
    /// load for its key must wait (an I/O pool is not FIFO).
    store_inflight: bool,
    /// Mutation version: bumped after every handler run and on migration
    /// install, never by a read-only load. The dirty-tracking basis for
    /// clean-eviction elision.
    pub(crate) version: u64,
    /// The mutation version the on-disk bytes correspond to (`None` until
    /// the first store is issued, and after any store failure).
    stored_version: Option<u64>,
}

impl Entry {
    pub(crate) fn is_in_core(&self) -> bool {
        matches!(self.state, State::InCore(_))
    }

    /// On-disk bytes current: a spill key exists, the last store landed,
    /// and no handler has mutated the object since that store. Evicting a
    /// clean object needs no re-pack and no write.
    fn is_clean(&self) -> bool {
        self.spill_key.is_some()
            && !self.store_inflight
            && self.stored_version == Some(self.version)
    }
}

/// One I/O operation the core wants performed, in buffer order.
pub(crate) enum IoCmd {
    /// Pack and persist every `(key, oid, object)` as one batched append.
    /// The objects have already left the table; answer each with
    /// [`NodeCore::store_landed`] or [`NodeCore::store_failed`].
    Store(Vec<(u64, ObjectId, Box<dyn MobileObject>)>),
    /// Read `key` back and unpack it; answer with
    /// [`NodeCore::complete_load`] or [`NodeCore::load_failed`].
    Load { key: u64, oid: ObjectId },
    /// No I/O: the resident copy of a clean object was dropped. Drivers
    /// that track residency outside the table (a run queue, a race
    /// detector) observe it here.
    Elided(ObjectId),
}

/// The out-of-core and control state machine of one node. See the module
/// docs.
pub(crate) struct NodeCore {
    pub(crate) node: NodeId,
    /// Nodes in this run: homes and directory hints wrap into it.
    n_nodes: usize,
    pub(crate) table: ObjectMap<Entry>,
    /// Every id whose entry is `InCore` or `Executing`, and possibly ids
    /// that have left core since: they are dropped when an eviction round
    /// scans the set ([`NodeCore::evict_candidates`]), so a round costs
    /// what is resident, not what the node has ever held.
    resident: ObjectSet,
    /// Last known location of objects that are not here, updated lazily
    /// by the deliveries of messages this node sent or forwarded.
    dir: Directory,
    /// A steal request of this node is out and unanswered (the answer is
    /// an `Install` or a `StealDeny`): the node is not quiet, and must not
    /// ask again. Set by [`NodeCore::request_steal`].
    pub(crate) awaiting_steal: bool,
    pub(crate) ooc: OocManager,
    /// Queued-but-on-disk objects awaiting a load slot, in arrival order.
    pending_loads: VecDeque<ObjectId>,
    /// Loads issued and not yet completed, for the prefetch window.
    inflight_load_objs: usize,
    inflight_load_bytes: usize,
    next_spill_key: u64,
    pub(crate) stats: NodeStats,
    /// I/O the driver has yet to perform, oldest first. Drivers drain it
    /// after every call that can append to it and hand the (empty) vector
    /// back so its capacity is reused.
    pub(crate) cmds: Vec<IoCmd>,
    /// Messages the driver has yet to send, oldest first, as
    /// `(destination, message)`. A destination equal to this
    /// node is a local send: the driver feeds it back to
    /// [`NodeCore::on_net`]. Drained like `cmds`.
    pub(crate) out: Vec<(NodeId, NetMsg)>,
    /// Resident objects that went from "nothing to run" to "has queued
    /// work" since the driver last looked, in that order.
    pub(crate) runnable: Vec<ObjectId>,
    /// Wall time and byte count of every pack and unpack the core did
    /// (migration, install) since the driver last looked; the driver
    /// charges them as compute in its own clock.
    pub(crate) codec_work: Vec<(Duration, usize)>,
    /// The first per-node invariant a transition broke (see `check!`);
    /// the driver takes it and ends the run. Always `None` in release
    /// builds.
    pub(crate) violation: Option<crate::audit::Violation>,
    #[cfg(any(feature = "audit", debug_assertions))]
    pub(crate) audit: Option<std::sync::Arc<dyn crate::audit::EventSink>>,
}

impl NodeCore {
    pub(crate) fn new(node: NodeId, cfg: &MrtsConfig) -> Self {
        NodeCore {
            node,
            n_nodes: cfg.nodes,
            table: ObjectMap::default(),
            resident: ObjectSet::default(),
            dir: Directory::new(),
            awaiting_steal: false,
            ooc: OocManager::new(
                cfg.mem_budget,
                cfg.hard_threshold_mult,
                cfg.soft_threshold_frac,
                cfg.policy,
            ),
            pending_loads: VecDeque::new(),
            inflight_load_objs: 0,
            inflight_load_bytes: 0,
            next_spill_key: 0,
            stats: NodeStats::default(),
            cmds: Vec::new(),
            out: Vec::new(),
            runnable: Vec::new(),
            codec_work: Vec::new(),
            violation: None,
            #[cfg(any(feature = "audit", debug_assertions))]
            audit: None,
        }
    }

    pub(crate) fn entry(&self, oid: ObjectId) -> &Entry {
        self.table
            .get(&oid)
            .expect("tracked object has a table entry")
    }

    pub(crate) fn entry_mut(&mut self, oid: ObjectId) -> &mut Entry {
        self.table
            .get_mut(&oid)
            .expect("tracked object has a table entry")
    }

    /// The object lives on this node (in any residency state), as opposed
    /// to unknown here or migrated away.
    pub(crate) fn holds(&self, oid: ObjectId) -> bool {
        matches!(self.table.get(&oid), Some(e) if !matches!(e.state, State::Moved(_)))
    }

    /// Loads are queued and not yet issued.
    pub(crate) fn has_pending_loads(&self) -> bool {
        !self.pending_loads.is_empty()
    }

    /// Track a new resident object (created, installed by a migration, or
    /// restored from a checkpoint) and account its footprint. Admission
    /// is the caller's call ([`NodeCore::admit`]). Returns the entry it
    /// replaced, if any.
    pub(crate) fn insert_resident(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        priority: u8,
        locked: bool,
        version: u64,
    ) -> Option<Entry> {
        let footprint = obj.footprint();
        let tick = self.ooc.tick();
        self.ooc.note_in(footprint);
        self.resident.insert(oid);
        self.table.insert(
            oid,
            Entry {
                state: State::InCore(obj),
                queue: VecDeque::new(),
                meta: AccessMeta::new(tick),
                priority,
                locked,
                footprint,
                packed_len: 0,
                spill_key: None,
                pending_migration: None,
                load_queued: false,
                store_inflight: false,
                version,
                stored_version: None,
            },
        )
    }

    /// Emit a memory-accounting snapshot. `enforced` marks snapshots
    /// taken right after an admission decision, where debug builds hold
    /// the books to the budget ([`NodeCore::check_books`]); reload
    /// completions and objects a failed store puts back are
    /// accounting-only (the layer deliberately overshoots there, see
    /// [`NodeCore::admit_for_load`]).
    #[allow(unused_variables)]
    pub(crate) fn audit_budget(&mut self, enforced: bool) {
        audit_emit!(
            self.audit,
            RuntimeEvent::Budget {
                node: self.node,
                used: self.ooc.used(),
                budget: self.ooc.budget(),
                hard_reserve: self.ooc.hard_reserve(),
                // Degraded mode deliberately overshoots the budget.
                enforced: enforced && !self.ooc.is_degraded(),
            }
        );
        #[cfg(debug_assertions)]
        if enforced {
            self.check_books("admission", true);
        }
    }

    /// The one table scan of the per-node checks (debug builds): the
    /// budget manager's `used` equals the sum of in-core footprints
    /// (invariant 7) and, after an admission, stays within budget + hard
    /// reserve + pinned bytes + the largest object (invariant 4; the
    /// slack covers victims that are pinned and the one-object admission
    /// overshoot). An object out for execution is still in core.
    #[cfg(debug_assertions)]
    fn check_books(&mut self, at: &str, admission: bool) {
        let (mut held, mut pinned, mut largest) = (0usize, 0usize, 0usize);
        for e in self.table.values() {
            if matches!(e.state, State::InCore(_) | State::Executing) {
                held += e.footprint;
                pinned += if e.locked { e.footprint } else { 0 };
                largest = largest.max(e.footprint);
            }
        }
        let (used, budget, reserve) = (self.ooc.used(), self.ooc.budget(), self.ooc.hard_reserve());
        check!(
            self,
            held == used,
            AccountingImbalance,
            at,
            "used is {used} B but in-core objects sum to {held} B"
        );
        let cap = (budget.saturating_add(reserve))
            .saturating_add(pinned)
            .saturating_add(largest);
        check!(
            self,
            !admission || self.ooc.is_degraded() || used <= cap,
            BudgetExceeded,
            at,
            "{used} B in core, over budget {budget} B + reserve {reserve} B + pinned {pinned} B \
             + one-object slack {largest} B"
        );
    }

    // ----- admission and eviction -------------------------------------------

    /// Make room for `incoming` bytes (hard-threshold admission for
    /// created/installed objects; may displace objects with queued work —
    /// their reload is queued so nothing is lost).
    pub(crate) fn admit(&mut self, incoming: usize) {
        let need = self.ooc.needed_for_admission(incoming);
        if need > 0 {
            self.evict_bytes(need, true, None);
        }
    }

    /// Admission for a disk *load*. Never displaces objects with queued
    /// messages: a displaced-queued object immediately queues its own
    /// reload, and two loads displacing each other's queued objects is an
    /// evict/reload livelock. Prefer briefly overshooting the budget
    /// instead.
    fn admit_for_load(&mut self, incoming: usize) {
        let need = self.ooc.needed_for_admission(incoming);
        if need > 0 {
            self.evict_bytes(need, false, None);
        }
    }

    /// Post-handler budget enforcement: objects grow during handlers
    /// (meshes refine in place), which no admission path sees. `except`
    /// protects an object whose message queue the driver is draining in
    /// place (evicting it mid-drain would reorder its messages).
    pub(crate) fn enforce_budget(&mut self, except: Option<ObjectId>) {
        // Degraded: the store is rejecting writes, so evicting would only
        // burn retries; knowingly overshoot until the backend recovers.
        if !self.ooc.enabled() || self.ooc.is_degraded() {
            return;
        }
        let over = self.ooc.used().saturating_sub(self.ooc.budget());
        if over > 0 {
            self.evict_bytes(over, true, except);
        }
    }

    /// Soft-threshold advisory swap of idle objects.
    pub(crate) fn soft_swap(&mut self) {
        let excess = self.ooc.soft_excess();
        if excess > 0 {
            self.evict_bytes(excess, false, None);
        }
    }

    /// A probe found the spill store healthy again: leave degraded mode
    /// and shed the footprint overshoot accumulated while evictions were
    /// suspended. No-op if the node was not degraded.
    pub(crate) fn leave_degraded(&mut self) {
        if self.ooc.exit_degraded() {
            self.stats.degraded_mode_transitions += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::Degraded {
                    node: self.node,
                    on: false
                }
            );
            self.enforce_budget(None);
            self.soft_swap();
        }
    }

    /// The eviction candidates: every object in core that is not pinned,
    /// not leaving, not `except` and, unless `allow_queued`, has nothing
    /// queued. Built from the resident index, whose ids that left core are
    /// dropped here; the order is the set's, which victim selection's
    /// total order makes irrelevant.
    fn evict_candidates(
        &mut self,
        allow_queued: bool,
        except: Option<ObjectId>,
    ) -> Vec<EvictCandidate> {
        let table = &self.table;
        let mut candidates = Vec::new();
        self.resident.retain(|&oid| {
            let Some(e) = table.get(&oid) else {
                return false;
            };
            match e.state {
                State::InCore(_) => {}
                State::Executing => return true,
                _ => return false,
            }
            if !e.locked
                && e.pending_migration.is_none()
                && (allow_queued || e.queue.is_empty())
                && Some(oid) != except
            {
                candidates.push(EvictCandidate {
                    oid,
                    footprint: e.footprint,
                    meta: e.meta,
                    priority: e.priority,
                    queued_msgs: e.queue.len(),
                    clean: e.is_clean(),
                    cluster: None,
                    lkey: 0,
                });
            }
            true
        });
        candidates
    }

    /// Evict at least `need` bytes: offer every evictable resident object
    /// to the budget manager, elide the clean victims (their on-disk bytes
    /// are current) and take the dirty remainder out of core as one
    /// batched [`IoCmd::Store`]. The eviction is accounted here, when it
    /// is issued; a store that later fails is reversed by
    /// [`NodeCore::store_failed`].
    fn evict_bytes(&mut self, need: usize, allow_queued: bool, except: Option<ObjectId>) {
        let mut candidates = self.evict_candidates(allow_queued, except);
        let victims = self.ooc.pick_victims(&mut candidates, need);
        let mut dirty = Vec::new();
        for oid in victims {
            if !self.try_elide(oid) {
                dirty.push(oid);
            }
        }
        let mut items: Vec<(u64, ObjectId, Box<dyn MobileObject>)> =
            Vec::with_capacity(dirty.len());
        for oid in dirty {
            let next = &mut self.next_spill_key;
            let e = self
                .table
                .get_mut(&oid)
                .expect("tracked object has a table entry");
            check!(
                self,
                !e.locked,
                PinnedEviction,
                "evict_bytes",
                "{oid:?} is locked"
            );
            check!(
                self,
                !self.ooc.is_degraded(),
                DegradedEviction,
                "evict_bytes",
                "{oid:?} is spilled while the store rejects writes"
            );
            let obj = match std::mem::replace(&mut e.state, State::OnDisk) {
                State::InCore(o) => o,
                _ => unreachable!("eviction candidates are in core"),
            };
            e.store_inflight = true;
            // The object cannot mutate while out of core, so the version
            // at issue is the version the packed bytes carry.
            e.stored_version = Some(e.version);
            let key = *e.spill_key.get_or_insert_with(|| {
                let k = *next;
                *next += 1;
                k
            });
            let footprint = e.footprint;
            let has_queue = !e.queue.is_empty();
            self.ooc.note_out(footprint);
            self.ooc.note_spilled(footprint);
            audit_emit!(
                self.audit,
                RuntimeEvent::Unload {
                    node: self.node,
                    oid,
                    footprint
                }
            );
            self.stats.evictions += 1;
            self.stats.stores += 1;
            // An object evicted with queued messages still owes work: its
            // messages were spilled with it, so queue the reload (it
            // issues once the store lands).
            if has_queue {
                self.queue_load(oid);
            }
            items.push((key, oid, obj));
        }
        if items.len() >= 2 {
            self.stats.spill_batches += 1;
        }
        if !items.is_empty() {
            self.cmds.push(IoCmd::Store(items));
        }
    }

    /// Clean-eviction elision: drop the resident copy of a clean object
    /// without re-packing or re-writing — the on-disk bytes are already
    /// current. Returns `false` (caller must store) when the object is
    /// dirty.
    fn try_elide(&mut self, oid: ObjectId) -> bool {
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        if !e.is_in_core() || !e.is_clean() {
            return false;
        }
        check!(
            self,
            !e.locked,
            PinnedEviction,
            "try_elide",
            "{oid:?} is locked"
        );
        check!(
            self,
            e.stored_version == Some(e.version) && !e.store_inflight,
            StaleElision,
            "try_elide",
            "{oid:?} is at version {} but its landed image holds {:?}",
            e.version,
            e.stored_version
        );
        // Dropping the old state drops the resident copy.
        e.state = State::OnDisk;
        let footprint = e.footprint;
        let has_queue = !e.queue.is_empty();
        self.ooc.note_out(footprint);
        self.ooc.note_spilled(footprint);
        audit_emit!(
            self.audit,
            RuntimeEvent::ElidedUnload {
                node: self.node,
                oid,
                footprint,
                version: e.version,
                stored_version: e.stored_version.expect("clean object has a stored version"),
            }
        );
        self.stats.evictions += 1;
        self.stats.evictions_elided += 1;
        self.stats.bytes_write_avoided += e.packed_len as u64;
        self.cmds.push(IoCmd::Elided(oid));
        if has_queue {
            self.queue_load(oid);
        }
        true
    }

    // ----- loads and prefetch -----------------------------------------------

    /// Note that `oid` (on disk) has pending work; the load is issued by
    /// [`NodeCore::pump_loads`] under the prefetch window.
    pub(crate) fn queue_load(&mut self, oid: ObjectId) {
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        if e.load_queued || !matches!(e.state, State::OnDisk) {
            return;
        }
        e.load_queued = true;
        self.pending_loads.push_back(oid);
    }

    /// Bytes reclaimable by evicting only objects with no pending work —
    /// the only victims a look-ahead load is allowed to displace.
    fn idle_evictable_bytes(&self) -> usize {
        (self.resident.iter())
            .filter_map(|oid| self.table.get(oid))
            .filter(|e| {
                e.is_in_core() && !e.locked && e.pending_migration.is_none() && e.queue.is_empty()
            })
            .map(|e| e.footprint)
            .sum()
    }

    /// Drop the pending load at `idx`: its reason to load evaporated.
    fn cancel_load(&mut self, oid: ObjectId, idx: usize) {
        self.pending_loads.remove(idx);
        self.entry_mut(oid).load_queued = false;
        self.stats.prefetch_cancels += 1;
    }

    /// Issue queued loads. A **look-ahead** load (the node is `busy`: it
    /// still has resident work to run) stays inside the prefetch window
    /// and is paced so it never displaces an object with queued messages;
    /// a **demand** load (nothing resident to run) is bounded by the
    /// object window only, and an urgent one (a migration or a lock
    /// waiting on the object) always makes progress. Entries whose reason
    /// to load evaporated are cancelled here.
    pub(crate) fn pump_loads(&mut self, busy: bool) {
        if self.pending_loads.is_empty() {
            return;
        }
        let mut idle_evictable: Option<usize> = None;
        let mut i = 0;
        while i < self.pending_loads.len() {
            let oid = self.pending_loads[i];
            let e = self.entry(oid);
            let urgent = e.pending_migration.is_some() || e.locked;
            let wants = matches!(e.state, State::OnDisk) && (urgent || !e.queue.is_empty());
            let (store_inflight, footprint, packed_len) =
                (e.store_inflight, e.footprint, e.packed_len);
            if !wants {
                self.cancel_load(oid, i);
                continue;
            }
            if store_inflight {
                // Per-key ordering: an I/O pool is not FIFO, so the load
                // must wait for this object's store to land.
                i += 1;
                continue;
            }
            let look_ahead = busy && !urgent;
            if look_ahead {
                if self.ooc.is_degraded() {
                    // Disk pressure: shed prefetch entirely; only demand
                    // and urgent loads keep flowing.
                    i += 1;
                    continue;
                }
                if self.inflight_load_objs >= PREFETCH_WINDOW_OBJECTS {
                    break;
                }
                if self.inflight_load_objs > 0
                    && self.inflight_load_bytes.saturating_add(packed_len) > PREFETCH_WINDOW_BYTES
                {
                    break;
                }
                let need = self.ooc.needed_for_admission(footprint);
                if need > 0 {
                    let avail = *idle_evictable.get_or_insert_with(|| self.idle_evictable_bytes());
                    if need > avail {
                        // Paced: admission would thrash queued objects.
                        i += 1;
                        continue;
                    }
                }
            } else if self.inflight_load_objs >= PREFETCH_WINDOW_OBJECTS {
                // Demand loads keep the pipe bounded too.
                break;
            }
            self.pending_loads.remove(i);
            self.entry_mut(oid).load_queued = false;
            self.issue_load(oid, look_ahead);
            // Issuing may have evicted; recompute pacing headroom lazily.
            idle_evictable = None;
        }
    }

    /// Begin loading an on-disk object: account it against the window,
    /// admit its (approximate) footprint, append the [`IoCmd::Load`].
    fn issue_load(&mut self, oid: ObjectId, look_ahead: bool) {
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        check!(
            self,
            matches!(e.state, State::OnDisk),
            EventOrder,
            "issue_load",
            "{oid:?} is not on disk"
        );
        e.state = State::Loading;
        let key = e.spill_key.expect("on-disk object has a spill key");
        let (footprint, packed_len) = (e.footprint, e.packed_len);
        self.inflight_load_objs += 1;
        self.inflight_load_bytes += packed_len;
        if look_ahead {
            // The window `pump_loads` keeps: at most the object cap in
            // flight, and the byte cap unless this is the only load.
            check!(
                self,
                self.inflight_load_objs <= PREFETCH_WINDOW_OBJECTS
                    && (self.inflight_load_objs == 1
                        || self.inflight_load_bytes <= PREFETCH_WINDOW_BYTES),
                PrefetchWindowExceeded,
                "issue_load",
                "{oid:?} makes {} loads / {} B in flight, window {PREFETCH_WINDOW_OBJECTS} / \
                 {PREFETCH_WINDOW_BYTES} B",
                self.inflight_load_objs,
                self.inflight_load_bytes
            );
            self.stats.prefetch_issued += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::Prefetch {
                    node: self.node,
                    oid,
                    inflight_objects: self.inflight_load_objs,
                    window_objects: PREFETCH_WINDOW_OBJECTS,
                    inflight_bytes: self.inflight_load_bytes,
                    window_bytes: PREFETCH_WINDOW_BYTES,
                }
            );
        }
        self.admit_for_load(footprint);
        self.stats.loads += 1;
        self.stats.bytes_from_disk += packed_len as u64;
        self.cmds.push(IoCmd::Load { key, oid });
    }

    // ----- completions --------------------------------------------------------

    /// A load came back: `obj` is the unpacked object, `packed_len` the
    /// bytes read, `miss` whether the node had nothing else to run when it
    /// completed (the load was *not* masked by computation).
    pub(crate) fn complete_load(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        packed_len: usize,
        miss: bool,
    ) {
        self.inflight_load_objs -= 1;
        self.inflight_load_bytes = self.inflight_load_bytes.saturating_sub(packed_len);
        if miss {
            self.stats.prefetch_misses += 1;
        } else {
            self.stats.prefetch_hits += 1;
        }
        let footprint = obj.footprint();
        let tick = self.ooc.tick();
        self.ooc.note_in(footprint);
        self.resident.insert(oid);
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        check!(
            self,
            matches!(e.state, State::Loading),
            EventOrder,
            "complete_load",
            "{oid:?} was not loading"
        );
        // Read-amplification accounting: the load was *demanded* if the
        // object still has work waiting (queued messages, a pending
        // migration, or a lock); a load that nothing asks for any more
        // counts only in `bytes_from_disk`, making waste visible.
        let demanded = !e.queue.is_empty() || e.pending_migration.is_some() || e.locked;
        if demanded {
            self.stats.bytes_demanded += packed_len as u64;
        }
        // Admission charged the stale footprint estimate; the object
        // reports its real one.
        e.state = State::InCore(obj);
        e.footprint = footprint;
        e.meta.touch(tick);
        audit_emit!(
            self.audit,
            RuntimeEvent::Load {
                node: self.node,
                oid,
                footprint
            }
        );
        self.audit_budget(false);
    }

    /// A load was abandoned after exhausting its retries. Unrecoverable
    /// for the run (the object exists nowhere else); this only releases
    /// the window slot ([`NodeCore::fold_io`] counts the failure).
    pub(crate) fn load_failed(&mut self, oid: ObjectId) {
        let packed_len = self.entry(oid).packed_len;
        self.inflight_load_objs -= 1;
        self.inflight_load_bytes = self.inflight_load_bytes.saturating_sub(packed_len);
    }

    /// Fold what one spill operation met into the node's counters, and
    /// announce it in attempt order: each attempt's `Fault`s, then its
    /// `Retry` if it was retried. Called on the node's own thread, so the
    /// events keep program order with the rest of the node's stream.
    pub(crate) fn fold_io(&mut self, r: &IoReport) {
        let s = &mut self.stats;
        s.faults_injected += r.faults.len();
        s.io_retries += r.retries as usize;
        s.io_gave_up += usize::from(r.gave_up);
        s.segment_reads += r.seg_reads;
        s.segment_switches += r.seg_switches;
        s.buffer_pool_hits += r.pool_hits;
        #[cfg(any(feature = "audit", debug_assertions))]
        for attempt in 1..=r.retries + 1 {
            for (_, f) in r.faults.iter().filter(|(a, _)| *a == attempt) {
                audit_emit!(
                    self.audit,
                    RuntimeEvent::Fault {
                        node: self.node,
                        kind: f.kind,
                        key: f.key
                    }
                );
            }
            if attempt <= r.retries {
                audit_emit!(
                    self.audit,
                    RuntimeEvent::Retry {
                        node: self.node,
                        oid: r.oid,
                        attempt
                    }
                );
            }
        }
    }

    /// The store of `oid` issued by an [`IoCmd::Store`] reached the disk
    /// as `packed_len` bytes; loads of the object may now issue.
    pub(crate) fn store_landed(&mut self, oid: ObjectId, packed_len: usize) {
        self.stats.bytes_to_disk += packed_len as u64;
        let e = self.entry_mut(oid);
        e.store_inflight = false;
        e.packed_len = packed_len;
    }

    /// The store of `oid` was rejected after exhausting the retry policy
    /// (or with `ENOSPC`). Graceful degradation: reinstate `obj` in-core,
    /// balance the eager `Unload` with a `Load`, distrust whatever bytes
    /// did land (a torn prefix must never be elided against), and stop
    /// evicting until a probe finds the backend healthy again.
    pub(crate) fn store_failed(&mut self, oid: ObjectId, obj: Box<dyn MobileObject>) {
        let footprint = obj.footprint();
        let tick = self.ooc.tick();
        self.ooc.note_in(footprint);
        self.resident.insert(oid);
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        check!(
            self,
            matches!(e.state, State::OnDisk) && e.store_inflight,
            EventOrder,
            "store_failed",
            "{oid:?} had no store in flight"
        );
        e.store_inflight = false;
        e.stored_version = None;
        e.state = State::InCore(obj);
        e.footprint = footprint;
        e.meta.touch(tick);
        audit_emit!(
            self.audit,
            RuntimeEvent::Load {
                node: self.node,
                oid,
                footprint
            }
        );
        if self.ooc.enter_degraded() {
            self.stats.degraded_entries += 1;
            self.stats.degraded_mode_transitions += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::Degraded {
                    node: self.node,
                    on: true
                }
            );
        }
        self.audit_budget(false);
    }

    // ----- handler execution --------------------------------------------------

    /// Take a resident object out to handle its next queued message.
    /// Returns the object, its footprint before the call and the message
    /// — the delivery is announced and counted here — or `None` (nothing
    /// changed) if the object is not in core or has nothing queued.
    pub(crate) fn begin_handler(
        &mut self,
        oid: ObjectId,
    ) -> Option<(Box<dyn MobileObject>, usize, Message)> {
        let e = self.table.get_mut(&oid).filter(|e| e.is_in_core())?;
        let msg = e.queue.pop_front()?;
        let State::InCore(obj) = std::mem::replace(&mut e.state, State::Executing) else {
            unreachable!("checked in core above")
        };
        self.stats.handlers_run += 1;
        self.stats.msgs_local += usize::from(msg.route.is_empty());
        self.stats.msgs_remote += usize::from(!msg.route.is_empty());
        audit_emit!(
            self.audit,
            RuntimeEvent::Deliver {
                node: self.node,
                oid
            }
        );
        Some((obj, e.footprint, msg))
    }

    /// Put the object back after its handler ran: account
    /// growth or shrinkage and mark it dirty. Budget enforcement is a
    /// separate step
    /// ([`NodeCore::enforce_budget`], [`NodeCore::soft_swap`]) because the
    /// driver applies the handler's effects in between.
    pub(crate) fn finish_handler(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        old_footprint: usize,
    ) {
        let new_footprint = obj.footprint();
        let tick = self.ooc.tick();
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        check!(
            self,
            matches!(e.state, State::Executing),
            NonResidentDelivery,
            "finish_handler",
            "{oid:?} left core while its handler ran"
        );
        e.state = State::InCore(obj);
        e.meta.touch(tick);
        e.footprint = new_footprint;
        // Dirty tracking: the handler may have mutated the object, so any
        // spilled bytes are stale from here on.
        e.version += 1;
        self.ooc.note_resize(old_footprint, new_footprint);
        if old_footprint != new_footprint {
            audit_emit!(
                self.audit,
                RuntimeEvent::Resize {
                    node: self.node,
                    oid,
                    old: old_footprint,
                    new: new_footprint
                }
            );
        }
    }

    // ----- control layer: effects, routing, the directory --------------------

    /// Interpret a handler's effects, in order: sends go through the one [`NodeCore::send`] rule,
    /// metadata and migration requests are addressed to the object's
    /// owner, creations are admitted and tracked on the spot.
    pub(crate) fn apply_effects(&mut self, effects: Vec<Effect>) {
        for eff in effects {
            match eff {
                Effect::Send {
                    to,
                    handler,
                    payload,
                } => self.send(Message::new(to, handler, payload)),
                Effect::Create { id, obj, priority } => self.create(id, obj, priority, false),
                Effect::Lock(p) => self.send_to_owner(p.id, MetaOp::Lock.on(p.id)),
                Effect::Unlock(p) => self.send_to_owner(p.id, MetaOp::Unlock.on(p.id)),
                Effect::SetPriority(p, v) => {
                    self.send_to_owner(p.id, MetaOp::SetPriority(v).on(p.id))
                }
                Effect::Migrate(p, dest) => {
                    self.send_to_owner(p.id, NetMsg::MigrateReq { oid: p.id, dest })
                }
            }
        }
    }

    /// Track and announce an object created (or restored) on this node,
    /// pinned if `locked`, after making room for it.
    pub(crate) fn create(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        priority: u8,
        locked: bool,
    ) {
        let footprint = obj.footprint();
        self.admit(footprint);
        self.insert_resident(oid, obj, priority, locked, 0);
        if locked {
            audit_emit!(
                self.audit,
                RuntimeEvent::Pin {
                    node: self.node,
                    oid
                }
            );
        }
        audit_emit!(
            self.audit,
            RuntimeEvent::Create {
                node: self.node,
                oid,
                footprint
            }
        );
        self.audit_budget(true);
    }

    /// Remember that `oid`, which is not here, lives on `node` (a restore
    /// placed it away from this, its home node).
    pub(crate) fn learn_location(&mut self, oid: ObjectId, node: NodeId) {
        self.dir.update(oid, node);
    }

    /// An object's home node in *this* run. After a checkpoint restore
    /// onto fewer nodes than the capture ran with, ids homed on a lost
    /// node wrap onto a survivor — the same modulo the restore placement
    /// uses, so routing and placement agree.
    fn home_of(&self, oid: ObjectId) -> NodeId {
        (oid.home() as usize % self.n_nodes) as NodeId
    }

    /// Where traffic for `oid` goes from here: nowhere, if the object is
    /// here; else to the forwarding tombstone it left behind if it
    /// departed from this node, else to the directory hint (wrapped like
    /// the home: a restored hint may name a node this run does not have),
    /// else to its home. This node itself, for an object that is not here,
    /// means there is nowhere left to look.
    pub(crate) fn next_hop(&self, oid: ObjectId) -> NodeId {
        match self.table.get(&oid).map(|e| &e.state) {
            Some(State::Moved(to)) => return *to,
            Some(_) => return self.node,
            None => {}
        }
        let hint = (self.dir.lookup(oid) as usize % self.n_nodes) as NodeId;
        if hint == self.node {
            self.home_of(oid)
        } else {
            hint
        }
    }

    /// The one send rule, for a message posted on this node (by a handler,
    /// or by the application before the run). A message for an object
    /// held here loops back through the out-buffer with an empty route (it
    /// is local). One that leaves the node is forwarded like any
    /// misdirected message, so the sender is the first entry of its
    /// route: the delivery's lazy update teaches the sender where the
    /// object is, and `route.first()` names the true source node.
    pub(crate) fn send(&mut self, msg: Message) {
        audit_emit!(
            self.audit,
            RuntimeEvent::Post {
                node: self.node,
                oid: msg.to.id
            }
        );
        if self.holds(msg.to.id) {
            self.out.push((self.node, NetMsg::Msg(msg)));
        } else {
            self.forward(msg);
        }
    }

    /// Address control traffic about `oid` to this node if the object is
    /// here (the driver loops it back), else to the next hop.
    fn send_to_owner(&mut self, oid: ObjectId, msg: NetMsg) {
        self.out.push((self.next_hop(oid), msg));
    }

    /// Pass a message for an object that is not here along the
    /// last-known-location chain, recording this node on its route.
    fn forward(&mut self, mut msg: Message) {
        let oid = msg.to.id;
        let next = self.next_hop(oid);
        assert_ne!(
            next, self.node,
            "message for unknown object {oid:?} stuck at node {next}"
        );
        msg.route.push(self.node);
        self.stats.msgs_forwarded += 1;
        audit_emit!(
            self.audit,
            RuntimeEvent::Forward {
                node: self.node,
                oid,
                to: next
            }
        );
        self.out.push((next, NetMsg::Msg(msg)));
    }

    /// One message arrived at this node (off the wire, or looped back by
    /// the driver): the single dispatch of the [`NetMsg`] vocabulary.
    ///
    /// Returns the thief of a steal request, which the driver must now
    /// answer with [`NodeCore::grant_steal`] or [`NodeCore::deny_steal`]
    /// (the pick is [`NodeCore::steal_pick`]).
    #[must_use]
    pub(crate) fn on_net(&mut self, msg: NetMsg, registry: &Registry) -> Option<NodeId> {
        match msg {
            NetMsg::Msg(m) => self.deliver(m),
            NetMsg::DirUpdate { oid, loc } => {
                self.dir.update(oid, loc);
                audit_emit!(
                    self.audit,
                    RuntimeEvent::DirUpdate {
                        node: self.node,
                        oid,
                        loc
                    }
                );
            }
            NetMsg::MigrateReq { oid, dest } => self.on_migrate_req(oid, dest),
            NetMsg::Meta { oid, op } => self.on_meta(oid, op),
            NetMsg::Install(install) => self.on_install(install, registry),
            NetMsg::StealReq { thief } => {
                audit_emit!(
                    self.audit,
                    RuntimeEvent::StealRequest {
                        node: self.node,
                        thief
                    }
                );
                return Some(thief);
            }
            NetMsg::StealDeny { victim } => {
                debug_assert_ne!(victim, self.node, "a deny answers a request to a peer");
                // Announced by the victim when it denied (`deny_steal`).
                self.awaiting_steal = false;
            }
        }
        None
    }

    /// A message reached this node. If its object is here, queue it — the
    /// messages of an out-of-core object wait out of core with it — and
    /// send one lazy directory update to every node the message passed
    /// through; otherwise pass it on.
    fn deliver(&mut self, msg: Message) {
        let oid = msg.to.id;
        if !self.holds(oid) {
            return self.forward(msg);
        }
        for &hop in &msg.route {
            if hop != self.node {
                let loc = self.node;
                self.out.push((hop, NetMsg::DirUpdate { oid, loc }));
            }
        }
        let e = self.entry_mut(oid);
        let had_work = !e.queue.is_empty();
        e.queue.push_back(msg);
        match e.state {
            State::InCore(_) => {
                if !had_work {
                    self.runnable.push(oid);
                }
            }
            State::OnDisk => self.queue_load(oid),
            State::Loading => {}
            State::Executing => unreachable!("handlers finish before the next message arrives"),
            State::Moved(_) => unreachable!("held objects are not tombstones"),
        }
    }

    /// Apply a metadata operation to an object held here; chase the
    /// object if it is not.
    pub(crate) fn on_meta(&mut self, oid: ObjectId, op: MetaOp) {
        if !self.holds(oid) {
            let next = self.next_hop(oid);
            // Nowhere left to look: the object was destroyed. Drop it.
            if next != self.node {
                self.out.push((next, op.on(oid)));
            }
            return;
        }
        let e = self
            .table
            .get_mut(&oid)
            .expect("held object has a table entry");
        match op {
            MetaOp::Lock => {
                e.locked = true;
                audit_emit!(
                    self.audit,
                    RuntimeEvent::Pin {
                        node: self.node,
                        oid
                    }
                );
            }
            MetaOp::Unlock => {
                e.locked = false;
                audit_emit!(
                    self.audit,
                    RuntimeEvent::Unpin {
                        node: self.node,
                        oid
                    }
                );
            }
            MetaOp::SetPriority(v) => e.priority = v,
        }
    }

    // ----- control layer: migration and installation -------------------------

    fn on_migrate_req(&mut self, oid: ObjectId, dest: NodeId) {
        if !self.holds(oid) {
            let next = self.next_hop(oid);
            if next != self.node {
                self.out.push((next, NetMsg::MigrateReq { oid, dest }));
            }
            return;
        }
        // Already where it should be, whatever its residency: loading a
        // spilled object only to ship it to itself would leave a tombstone
        // pointing at this node and count a migration that moved nothing.
        if dest == self.node {
            return;
        }
        match self.entry(oid).state {
            State::InCore(_) => self.do_migrate(oid, dest),
            // Load it first (urgent: bypasses the prefetch window);
            // `resume` ships it when it is back.
            State::OnDisk => {
                self.entry_mut(oid).pending_migration = Some(dest);
                self.queue_load(oid);
            }
            State::Loading => self.entry_mut(oid).pending_migration = Some(dest),
            State::Executing => unreachable!("handlers finish before the next request is served"),
            State::Moved(_) => unreachable!("held objects are not tombstones"),
        }
    }

    /// Pack and ship a resident object to `dest`, leaving a forwarding
    /// tombstone; its queued messages travel along, and its home node is
    /// told where it went.
    fn do_migrate(&mut self, oid: ObjectId, dest: NodeId) {
        let e = self.entry_mut(oid);
        e.pending_migration = None;
        let obj = match std::mem::replace(&mut e.state, State::Moved(dest)) {
            State::InCore(o) => o,
            other => {
                e.state = other;
                return;
            }
        };
        let queue = std::mem::take(&mut e.queue);
        let (priority, locked, footprint, version) = (e.priority, e.locked, e.footprint, e.version);
        let (packed, wall) = timed(|| Registry::pack(obj.as_ref()));
        drop(obj);
        self.codec_work.push((wall, packed.len()));
        self.ooc.note_out(footprint);
        self.stats.migrations += 1;
        // Emitted before the install leaves, so the checker sees the
        // departure strictly before the arrival.
        audit_emit!(
            self.audit,
            RuntimeEvent::MigrateOut {
                node: self.node,
                oid,
                to: dest,
                queued: queue.len(),
                footprint
            }
        );
        let install = Install {
            oid,
            priority,
            locked,
            version,
            packed,
            queue,
        };
        self.out.push((dest, NetMsg::Install(install)));
        self.dir.update(oid, dest);
        audit_emit!(
            self.audit,
            RuntimeEvent::DirUpdate {
                node: self.node,
                oid,
                loc: dest
            }
        );
        let home = self.home_of(oid);
        if home != self.node && home != dest {
            self.out.push((home, NetMsg::DirUpdate { oid, loc: dest }));
        }
    }

    /// `oid` is back in core (loaded, or reinstated after a failed
    /// store): a migration that was waiting on it wins over queued work —
    /// the queue travels inside the install — otherwise it is runnable
    /// if it has any.
    pub(crate) fn resume(&mut self, oid: ObjectId) {
        let e = self.entry(oid);
        if let Some(dest) = e.pending_migration {
            self.do_migrate(oid, dest);
        } else if !e.queue.is_empty() {
            self.runnable.push(oid);
        }
    }

    fn on_install(&mut self, i: Install, registry: &Registry) {
        // An install that lands while a steal request is out is its
        // answer: count the stolen task.
        if std::mem::take(&mut self.awaiting_steal) {
            self.stats.tasks_stolen += 1;
        }
        let (obj, wall) = timed(|| registry.unpack(&i.packed));
        let obj =
            obj.expect("install bytes were packed by the sending node from a registered type");
        self.codec_work.push((wall, i.packed.len()));
        let (oid, footprint) = (i.oid, obj.footprint());
        self.admit(footprint);
        // Installing is a mutation; any bytes spilled on the old node are
        // unreachable here.
        self.insert_resident(oid, obj, i.priority, i.locked, i.version + 1);
        self.dir.update(oid, self.node);
        audit_emit!(
            self.audit,
            RuntimeEvent::MigrateIn {
                node: self.node,
                oid,
                queued: i.queue.len(),
                footprint
            }
        );
        audit_emit!(
            self.audit,
            RuntimeEvent::DirUpdate {
                node: self.node,
                oid,
                loc: self.node
            }
        );
        self.audit_budget(true);
        // Re-route the messages that travelled with the object, in order.
        for m in i.queue {
            self.out.push((self.node, NetMsg::Msg(m)));
        }
    }

    /// The reliable layer gave up delivering `msg` to `dead`: whatever
    /// pointed there is stale. Drop the directory hint and a tombstone
    /// naming the dead peer, then re-route — locally if the object came
    /// back while the send was in flight, else toward wherever the
    /// remaining knowledge points. `false`: it points nowhere new.
    pub(crate) fn reroute(&mut self, msg: Message, dead: NodeId) -> bool {
        let oid = msg.to.id;
        if self.dir.invalidate(oid) {
            self.stats.hints_invalidated += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::HintInvalidated {
                    node: self.node,
                    oid,
                    loc: dead
                }
            );
        }
        if matches!(self.table.get(&oid), Some(e) if matches!(e.state, State::Moved(to) if to == dead))
        {
            self.table.remove(&oid);
        }
        let next = self.next_hop(oid);
        if next == dead || (next == self.node && !self.holds(oid)) {
            return false;
        }
        self.out.push((next, NetMsg::Msg(msg)));
        true
    }

    // ----- control layer: work stealing ---------------------------------------

    /// The steal victim's rule: the *resident* object with the deepest
    /// message queue, ties broken by smallest id, that is not pinned and
    /// not already migrating (the legality rule `grant_steal` checks).
    /// A node's backlog sits in the queues of resident objects; a spilled
    /// one would have to load before it could leave. A total order, so
    /// the hash map's iteration order cannot leak into the result (replay
    /// depends on the pick being a pure function of state).
    pub(crate) fn steal_pick(&self) -> Option<ObjectId> {
        (self.table.iter())
            .filter(|(_, e)| {
                e.is_in_core() && !e.locked && e.pending_migration.is_none() && !e.queue.is_empty()
            })
            .max_by_key(|(oid, e)| (e.queue.len(), Reverse(oid.0)))
            .map(|(&oid, _)| oid)
    }

    /// Hand `oid` to `thief`: an ordinary migration (load first if
    /// spilled), checked and announced while the object is still held
    /// here, against pre-migration state.
    pub(crate) fn grant_steal(&mut self, oid: ObjectId, thief: NodeId) {
        check!(
            self,
            matches!(self.table.get(&oid), Some(e) if !matches!(e.state, State::Moved(_))
                && !e.locked && e.pending_migration.is_none()),
            IllegalSteal,
            "grant_steal",
            "{oid:?} for thief {thief} is not held here, is locked or is already leaving"
        );
        audit_emit!(
            self.audit,
            RuntimeEvent::StealGrant {
                node: self.node,
                oid,
                to: thief
            }
        );
        self.on_migrate_req(oid, thief);
    }

    /// Nothing to hand over: re-arm the thief. Announced here, by the
    /// victim in its own program order, like the grant — every event a
    /// core emits carries its own node.
    pub(crate) fn deny_steal(&mut self, thief: NodeId) {
        let victim = self.node;
        audit_emit!(
            self.audit,
            RuntimeEvent::StealDeny {
                node: victim,
                to: thief
            }
        );
        self.out.push((thief, NetMsg::StealDeny { victim }));
    }

    /// Thief side: ask `victim` for one task. *When* to ask is the
    /// driver's call.
    pub(crate) fn request_steal(&mut self, victim: NodeId) {
        self.stats.steal_requests += 1;
        self.awaiting_steal = true;
        let thief = self.node;
        self.out.push((victim, NetMsg::StealReq { thief }));
    }

    /// Close out the counters a run reports: the peak footprint comes
    /// from the budget manager's own high-water mark (the single source
    /// of truth for in-core accounting).
    pub(crate) fn seal_stats(&mut self) {
        #[cfg(debug_assertions)]
        self.check_books("seal_stats", false);
        self.stats.peak_mem = self.ooc.peak_used;
    }
}

#[cfg(test)]
mod tests {
    //! The sans-I/O shape lets the residency and routing rules be tested
    //! with no threads, no store and no fabric: drive a `NodeCore`, read
    //! its command, message and runnable buffers.

    use super::*;
    use crate::ids::{HandlerId, MobilePtr, TypeTag};
    use std::any::Any;

    struct Blob(usize);

    impl MobileObject for Blob {
        fn type_tag(&self) -> TypeTag {
            TypeTag(1)
        }
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.extend_from_slice(&(self.0 as u64).to_le_bytes());
        }
        fn footprint(&self) -> usize {
            self.0
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn oid(seq: u64) -> ObjectId {
        ObjectId::new(0, seq)
    }

    fn core(budget: usize) -> NodeCore {
        NodeCore::new(0, &MrtsConfig::out_of_core(1, budget))
    }

    fn resident(c: &mut NodeCore, seq: u64, footprint: usize) -> ObjectId {
        c.insert_resident(oid(seq), Box::new(Blob(footprint)), 128, false, 0);
        oid(seq)
    }

    /// An object already on disk, clean, whose image is `packed_len` bytes.
    fn on_disk(c: &mut NodeCore, seq: u64, footprint: usize, packed_len: usize) -> ObjectId {
        let id = resident(c, seq, footprint);
        c.ooc.note_out(footprint);
        let e = c.entry_mut(id);
        e.state = State::OnDisk;
        e.spill_key = Some(1000 + seq);
        e.stored_version = Some(e.version);
        e.packed_len = packed_len;
        id
    }

    fn post(c: &mut NodeCore, id: ObjectId) {
        c.entry_mut(id)
            .queue
            .push_back(Message::new(MobilePtr::new(id), HandlerId(1), Vec::new()));
    }

    fn loads(c: &NodeCore) -> Vec<ObjectId> {
        c.cmds
            .iter()
            .filter_map(|cmd| match cmd {
                IoCmd::Load { oid, .. } => Some(*oid),
                _ => None,
            })
            .collect()
    }

    fn stores(c: &NodeCore) -> Vec<Vec<ObjectId>> {
        c.cmds
            .iter()
            .filter_map(|cmd| match cmd {
                IoCmd::Store(items) => Some(items.iter().map(|(_, oid, _)| *oid).collect()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn look_ahead_obeys_both_windows_and_demand_only_the_object_window() {
        let mb = 1 << 20;
        let queue_six = |packed_len: usize| {
            let mut c = core(usize::MAX / 4);
            for seq in 0..6 {
                let id = on_disk(&mut c, seq, 64, packed_len);
                post(&mut c, id);
                c.queue_load(id);
            }
            c
        };
        // Small images: the object window binds, busy or not.
        for busy in [true, false] {
            let mut c = queue_six(1024);
            c.pump_loads(busy);
            assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS);
            c.pump_loads(busy);
            assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS, "window is full");
        }
        // 1.5 MB images: look-ahead stops at the byte window (3.0 + 1.5 >
        // 4 MB), demand loads fill the object window regardless.
        let mut c = queue_six(3 * mb / 2);
        c.pump_loads(true);
        assert_eq!(loads(&c).len(), 2);
        assert!(c.inflight_load_bytes <= PREFETCH_WINDOW_BYTES);
        assert_eq!(c.stats.prefetch_issued, 2);
        let mut c = queue_six(3 * mb / 2);
        c.pump_loads(false);
        assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS);
        assert_eq!(c.stats.prefetch_issued, 0);
        // A completion frees a slot.
        let first = loads(&c)[0];
        c.complete_load(first, Box::new(Blob(64)), 3 * mb / 2, true);
        c.pump_loads(false);
        assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS + 1);
    }

    #[test]
    fn load_admission_spares_queued_objects_and_enforcement_spares_the_excepted_one() {
        let mut c = core(1000);
        let (a, b, idle) = (
            resident(&mut c, 1, 300),
            resident(&mut c, 2, 300),
            resident(&mut c, 3, 300),
        );
        post(&mut c, a);
        post(&mut c, b);
        // 900 used + 600 incoming: 500 over, but only `idle` may go.
        c.admit_for_load(600);
        assert_eq!(stores(&c), vec![vec![idle]]);
        assert!(c.entry(a).is_in_core() && c.entry(b).is_in_core());

        // Over budget by growth; `a` is the only candidate left besides
        // `b`, and it is excepted.
        let mut c = core(500);
        let (a, b) = (resident(&mut c, 1, 300), resident(&mut c, 2, 300));
        c.enforce_budget(Some(a));
        assert_eq!(stores(&c), vec![vec![b]]);
        assert!(c.entry(a).is_in_core());
        c.enforce_budget(Some(a));
        assert_eq!(stores(&c).len(), 1, "nothing else may be evicted");
        assert!(c.entry(a).is_in_core());
    }

    #[test]
    fn eviction_elides_the_clean_and_batches_the_dirty_into_one_store() {
        let mut c = core(1000);
        let (a, b) = (resident(&mut c, 1, 300), resident(&mut c, 2, 300));
        // `clean` went out and came back untouched: its image is current.
        let clean = on_disk(&mut c, 3, 300, 77);
        post(&mut c, clean);
        c.queue_load(clean);
        c.pump_loads(false);
        c.complete_load(clean, Box::new(Blob(300)), 77, true);
        c.entry_mut(clean).queue.clear();
        c.cmds.clear();

        c.admit(1000);
        assert_eq!(stores(&c).len(), 1, "one batched store");
        let mut batch = stores(&c).remove(0);
        batch.sort();
        assert_eq!(batch, vec![a, b], "only the dirty victims are written");
        assert!(c
            .cmds
            .iter()
            .any(|cmd| matches!(cmd, IoCmd::Elided(id) if *id == clean)));
        assert_eq!(c.stats.evictions, 3);
        assert_eq!(c.stats.evictions_elided, 1);
        assert_eq!(c.stats.bytes_write_avoided, 77);
        assert_eq!(c.stats.stores, 2);
        assert_eq!(c.stats.spill_batches, 1);
        assert_eq!(c.ooc.used(), 0);
    }

    #[test]
    fn failed_store_reinstates_marks_dirty_and_enters_degraded_once() {
        let mut c = core(500);
        let (a, b) = (resident(&mut c, 1, 300), resident(&mut c, 2, 300));
        c.admit(500);
        let Some(IoCmd::Store(items)) = c.cmds.pop() else {
            panic!("expected one store")
        };
        assert_eq!(items.len(), 2);
        assert_eq!(c.ooc.used(), 0);
        for (_, id, obj) in items {
            c.store_failed(id, obj);
        }
        for id in [a, b] {
            let e = c.entry(id);
            assert!(e.is_in_core());
            assert_eq!(e.stored_version, None, "a torn image is never trusted");
            assert!(!e.is_clean() && !e.store_inflight);
        }
        assert_eq!(c.ooc.used(), 600);
        assert!(c.ooc.is_degraded());
        assert_eq!(c.stats.degraded_entries, 1);
        assert_eq!(c.stats.degraded_mode_transitions, 1);
        // Degraded: admission stops demanding evictions.
        c.admit(500);
        c.enforce_budget(None);
        assert!(c.cmds.is_empty());
        // A healthy probe sheds the overshoot again.
        c.leave_degraded();
        assert_eq!(c.stats.degraded_mode_transitions, 2);
        assert!(!stores(&c).is_empty());
        assert!(c.ooc.used() <= 500);
    }
    // ----- control layer --------------------------------------------------------

    /// Node `node` of a four-node run, budget 1000.
    fn core_at(node: NodeId) -> NodeCore {
        NodeCore::new(node, &MrtsConfig::out_of_core(4, 1000))
    }

    fn blob_registry() -> Registry {
        let mut r = Registry::new();
        r.register_type(TypeTag(1), |buf| {
            let mut r = PayloadReader::new(buf);
            Ok(Box::new(Blob(r.u64()? as usize)))
        });
        r
    }

    fn msg_to(id: ObjectId, tag: u8, route: &[NodeId]) -> Message {
        let mut m = Message::new(MobilePtr::new(id), HandlerId(1), vec![tag]);
        m.route = route.to_vec();
        m
    }

    /// Feed `msg` to the core as if it had just arrived.
    fn arrive(c: &mut NodeCore, msg: NetMsg) -> Option<NodeId> {
        c.on_net(msg, &blob_registry())
    }

    /// Complete the load of `id` that the core just issued.
    fn load_back(c: &mut NodeCore, id: ObjectId, footprint: usize) {
        assert_eq!(loads(c), vec![id]);
        c.cmds.clear();
        let packed_len = c.entry(id).packed_len;
        c.complete_load(id, Box::new(Blob(footprint)), packed_len, true);
    }

    #[test]
    fn a_message_for_an_object_not_held_follows_the_tombstone_before_the_hint() {
        let mut c = core_at(1);
        let x = resident(&mut c, 7, 100);
        assert_eq!(arrive(&mut c, NetMsg::MigrateReq { oid: x, dest: 2 }), None);
        // A later lazy update names node 3; the tombstone still says 2.
        arrive(&mut c, NetMsg::DirUpdate { oid: x, loc: 3 });
        assert_eq!(c.dir.lookup(x), 3);
        c.out.clear();
        arrive(&mut c, NetMsg::Msg(msg_to(x, 0, &[0])));
        assert_eq!(c.out, vec![(2, NetMsg::Msg(msg_to(x, 0, &[0, 1])))]);
        assert_eq!(c.stats.msgs_forwarded, 1);
        assert!(c.runnable.is_empty());
        // With no tombstone the hint decides; with neither, the home.
        let y = ObjectId::new(0, 8);
        arrive(&mut c, NetMsg::DirUpdate { oid: y, loc: 3 });
        assert_eq!((c.next_hop(y), c.next_hop(ObjectId::new(0, 9))), (3, 0));
    }

    #[test]
    fn delivery_sends_one_lazy_update_to_every_hop_but_itself() {
        let mut c = core_at(2);
        let x = resident(&mut c, 7, 100);
        // The message passed through this node once before (the object
        // was elsewhere then): no update to self.
        arrive(&mut c, NetMsg::Msg(msg_to(x, 0, &[0, 2, 1])));
        let update = NetMsg::DirUpdate { oid: x, loc: 2 };
        assert_eq!(c.out, vec![(0, update.clone()), (1, update)]);
        assert_eq!(c.runnable, vec![x]);
        assert_eq!(c.stats.msgs_forwarded, 0);
        // A second message finds queued work: not announced again, and a
        // local one (empty route) teaches nobody.
        c.out.clear();
        arrive(&mut c, NetMsg::Msg(msg_to(x, 1, &[])));
        assert!(c.out.is_empty());
        assert_eq!(c.runnable, vec![x]);
        assert_eq!(c.entry(x).queue.len(), 2);
    }

    /// Fails with the rule the virtual-time engine had: only a resident
    /// object returned early, a spilled one was loaded and shipped to
    /// itself.
    #[test]
    fn migrate_to_self_is_a_no_op_in_every_residency_state() {
        let mut c = core_at(1);
        let in_core = resident(&mut c, 1, 100);
        let spilled = on_disk(&mut c, 2, 100, 10);
        let loading = on_disk(&mut c, 3, 100, 10);
        post(&mut c, loading);
        c.queue_load(loading);
        c.pump_loads(false);
        c.cmds.clear();
        for id in [in_core, spilled, loading] {
            assert_eq!(
                arrive(&mut c, NetMsg::MigrateReq { oid: id, dest: 1 }),
                None
            );
            assert_eq!(c.entry(id).pending_migration, None, "{id:?}");
        }
        assert!(!c.has_pending_loads(), "a load was queued");
        assert!(c.cmds.is_empty() && c.out.is_empty() && c.codec_work.is_empty());
        assert_eq!(c.stats.migrations, 0);
        assert!(c.entry(in_core).is_in_core());
        assert!(matches!(c.entry(spilled).state, State::OnDisk));
        assert!(matches!(c.entry(loading).state, State::Loading));
    }

    #[test]
    fn a_spilled_object_is_loaded_on_demand_and_shipped_before_its_queue_runs() {
        let mut c = core_at(1);
        let x = on_disk(&mut c, 7, 100, 10);
        // Queued behind the request: it must travel, not run here.
        arrive(&mut c, NetMsg::MigrateReq { oid: x, dest: 3 });
        arrive(&mut c, NetMsg::Msg(msg_to(x, 5, &[])));
        assert!(c.out.is_empty() && c.has_pending_loads());
        // Busy node, full pacing: an urgent load issues anyway, as demand.
        c.pump_loads(true);
        assert_eq!(c.stats.prefetch_issued, 0);
        load_back(&mut c, x, 100);
        c.resume(x);
        assert!(c.runnable.is_empty(), "the queue must not run here");
        let [(3, NetMsg::Install(i)), (0, NetMsg::DirUpdate { loc: 3, .. })] = &c.out[..] else {
            panic!("expected the install, then the home's update: {:?}", c.out)
        };
        assert_eq!((i.oid, i.queue.len()), (x, 1));
        assert_eq!(i.queue[0], msg_to(x, 5, &[]));
        assert!(matches!(c.entry(x).state, State::Moved(3)));
        assert_eq!((c.stats.migrations, c.ooc.used()), (1, 0));
        assert_eq!(
            c.codec_work.len(),
            1,
            "the pack is handed to the driver to charge"
        );
        // Without a pending migration, the same load makes it runnable.
        let y = on_disk(&mut c, 8, 100, 10);
        arrive(&mut c, NetMsg::Msg(msg_to(y, 0, &[])));
        c.pump_loads(false);
        load_back(&mut c, y, 100);
        c.resume(y);
        assert_eq!(c.runnable, vec![y]);
    }

    #[test]
    fn install_admits_first_bumps_the_version_and_reroutes_the_queue_in_order() {
        let mut c = core_at(2);
        let old = resident(&mut c, 1, 600);
        let x = ObjectId::new(0, 7);
        let install = Install {
            oid: x,
            priority: 9,
            locked: true,
            version: 41,
            packed: Registry::pack(&Blob(600)),
            queue: VecDeque::from([msg_to(x, 1, &[0]), msg_to(x, 2, &[])]),
        };
        c.request_steal(1);
        c.out.clear();
        assert_eq!(arrive(&mut c, NetMsg::Install(install)), None);
        // 600 resident + 600 arriving against 1000: the resident one goes.
        assert_eq!(stores(&c), vec![vec![old]]);
        let e = c.entry(x);
        assert!(e.is_in_core() && e.locked);
        assert_eq!((e.version, e.priority, e.footprint), (42, 9, 600));
        // Bytes spilled on the old node are unreachable here: never elided
        // against.
        assert!(!e.is_clean() && e.stored_version.is_none());
        assert_eq!((c.dir.lookup(x), c.next_hop(x)), (2, 2));
        // The carried queue loops back through the driver, in order, with
        // the routes it had.
        let carried = [msg_to(x, 1, &[0]), msg_to(x, 2, &[])].map(|m| (2, NetMsg::Msg(m)));
        assert_eq!(c.out, carried);
        assert!(c.runnable.is_empty());
        // It answered the steal request that was out.
        assert!(!c.awaiting_steal);
        assert_eq!((c.stats.tasks_stolen, c.stats.steal_requests), (1, 1));
    }

    #[test]
    fn next_hop_wraps_hints_and_homes_into_the_cluster() {
        // Restored onto two nodes; the id was minted on node 5.
        let mut c = NodeCore::new(0, &MrtsConfig::out_of_core(2, 1000));
        let x = ObjectId::new(5, 1);
        assert_eq!(c.next_hop(x), 1, "home 5 wraps to 1");
        c.dir.update(x, 3);
        assert_eq!(c.next_hop(x), 1, "hint 3 wraps to 1");
        // A hint that wraps onto this node falls back to the home.
        c.dir.update(x, 4);
        assert_eq!(c.next_hop(x), 1);
        // Control traffic for it leaves accordingly.
        c.apply_effects(vec![Effect::Lock(MobilePtr::new(x))]);
        assert_eq!(c.out, vec![(1, MetaOp::Lock.on(x))]);
    }

    #[test]
    fn steal_pick_is_deepest_queue_then_smallest_id_and_never_pinned_or_migrating() {
        let mut c = core_at(0);
        let depth = |c: &mut NodeCore, id, n| (0..n).for_each(|_| post(c, id));
        // Resident: 9 and 4 tie at two messages; 5 is deeper but pinned,
        // 6 is deeper but already migrating; 3 has nothing to steal.
        for seq in [9, 4, 5, 6, 3] {
            resident(&mut c, seq, 10);
        }
        depth(&mut c, oid(9), 2);
        depth(&mut c, oid(4), 2);
        depth(&mut c, oid(5), 3);
        depth(&mut c, oid(6), 3);
        c.entry_mut(oid(5)).locked = true;
        c.entry_mut(oid(6)).pending_migration = Some(2);
        // Spilled: 20 is deepest.
        for (seq, n) in [(20, 4), (21, 1)] {
            let id = on_disk(&mut c, seq, 10, 5);
            depth(&mut c, id, n);
        }
        // Spilled ones are never picked, however deep.
        assert_eq!(c.steal_pick(), Some(oid(4)));
        // A grant is an ordinary migration; a denial is one message.
        c.grant_steal(oid(4), 3);
        assert!(matches!(c.entry(oid(4)).state, State::Moved(3)));
        assert!(matches!(&c.out[0], (3, NetMsg::Install(i)) if i.queue.len() == 2));
        c.out.clear();
        c.deny_steal(3);
        assert_eq!(c.out, vec![(3, NetMsg::StealDeny { victim: 0 })]);
    }

    /// A runnable entry can go stale (its object was evicted after it
    /// was queued): the handler must not run, and nothing may change —
    /// the message waits out of core with its object (invariant 2).
    #[test]
    fn begin_handler_skips_an_object_that_is_not_in_core() {
        let mut c = core(1000);
        let x = on_disk(&mut c, 1, 100, 10);
        post(&mut c, x);
        assert!(c.begin_handler(x).is_none());
        let e = c.entry(x);
        assert!(matches!(e.state, State::OnDisk) && e.queue.len() == 1);
        assert_eq!(c.stats.handlers_run, 0);
    }

    /// An object evicted with queued work queues its own reload; if the
    /// store then fails, the object is back in core and the reload must
    /// be dropped, not issued against an object that is not on disk.
    #[test]
    fn a_reload_queued_behind_a_failed_store_is_dropped() {
        let mut c = core(500);
        let x = resident(&mut c, 1, 300);
        post(&mut c, x);
        c.admit(500);
        let Some(IoCmd::Store(items)) = c.cmds.pop() else {
            panic!("expected one store")
        };
        assert!(c.has_pending_loads());
        for (_, id, obj) in items {
            c.store_failed(id, obj);
        }
        c.pump_loads(false);
        assert!(!c.has_pending_loads());
        assert!(c.cmds.is_empty(), "a load for an object in core");
        assert!(c.entry(x).is_in_core());
    }

    /// An object evicted clean once, and mutated by a handler since, is
    /// written on its next eviction, never elided: the handler's version
    /// bump is what makes its on-disk image stale (invariant 11).
    #[test]
    fn a_handler_run_dirties_the_image_so_the_next_eviction_stores() {
        let mut c = core(1000);
        let x = on_disk(&mut c, 1, 100, 10);
        post(&mut c, x);
        c.queue_load(x);
        c.pump_loads(false);
        load_back(&mut c, x, 100);
        assert!(c.entry(x).is_clean(), "reloaded untouched: clean");
        let (obj, footprint, _) = c.begin_handler(x).expect("queued work");
        c.finish_handler(x, obj, footprint);
        c.admit(1000);
        assert_eq!(stores(&c), vec![vec![x]], "the mutation is written");
        assert_eq!(c.stats.evictions_elided, 0);
    }

    /// The image a migrated object left on its old node is unreachable
    /// from the new one: an object that was clean there arrives dirty,
    /// and its first eviction on the new node stores, never elides.
    #[test]
    fn a_migrated_object_is_never_elided_against_the_old_nodes_image() {
        let mut from = core_at(0);
        let x = resident(&mut from, 1, 600);
        let e = from.entry_mut(x);
        (e.spill_key, e.stored_version) = (Some(1001), Some(e.version));
        assert!(from.entry(x).is_clean(), "elidable on the old node");
        arrive(&mut from, NetMsg::MigrateReq { oid: x, dest: 1 });
        let (1, NetMsg::Install(install)) = from.out.remove(0) else {
            panic!("expected the install first: {:?}", from.out)
        };
        let mut to = core_at(1);
        arrive(&mut to, NetMsg::Install(install));
        assert!(!to.entry(x).is_clean(), "clean on arrival");
        to.admit(1000);
        assert_eq!(stores(&to), vec![vec![x]], "the image is written here");
        assert_eq!(to.stats.evictions_elided, 0);
        assert!(to.violation.is_none(), "{:?}", to.violation);
    }

    /// The eviction candidates taken from the resident index are those of
    /// a full-table scan after every transition in or out of core: create,
    /// handle, evict, load, elide, a failed store, migrate and install.
    #[test]
    fn resident_index_yields_the_candidates_of_a_full_table_scan() {
        fn agree(c: &mut NodeCore, step: &str) {
            for allow_queued in [false, true] {
                for except in [None, Some(oid(2))] {
                    let mut want: Vec<_> = (c.table.iter())
                        .filter(|(&id, e)| {
                            e.is_in_core()
                                && !e.locked
                                && e.pending_migration.is_none()
                                && (allow_queued || e.queue.is_empty())
                                && Some(id) != except
                        })
                        .map(|(&id, e)| (id, e.footprint, e.queue.len(), e.is_clean()))
                        .collect();
                    let mut got: Vec<_> = (c.evict_candidates(allow_queued, except).iter())
                        .map(|k| (k.oid, k.footprint, k.queued_msgs, k.clean))
                        .collect();
                    want.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, want, "after {step}, {allow_queued} {except:?}");
                }
            }
        }
        let mut c = NodeCore::new(0, &MrtsConfig::out_of_core(4, 10_000));
        let [a, b, d] = [1, 2, 3].map(|seq| {
            c.create(oid(seq), Box::new(Blob(200)), 128, seq == 3);
            oid(seq)
        });
        post(&mut c, b);
        agree(&mut c, "create");
        let (obj, footprint, _) = c.begin_handler(b).expect("b has a message");
        agree(&mut c, "begin_handler");
        c.finish_handler(b, obj, footprint);
        agree(&mut c, "finish_handler");

        // The least recently used idle object goes out as a store.
        c.evict_bytes(1, false, None);
        assert_eq!(stores(&c), vec![vec![a]]);
        c.cmds.clear();
        agree(&mut c, "evict");
        c.store_landed(a, 50);
        post(&mut c, a);
        c.queue_load(a);
        c.pump_loads(false);
        agree(&mut c, "issue_load");
        load_back(&mut c, a, 200);
        agree(&mut c, "complete_load");

        // Untouched since its load, `a` is clean: it is elided.
        c.entry_mut(a).queue.clear();
        c.evict_bytes(1, false, Some(b));
        assert!(matches!(c.cmds[..], [IoCmd::Elided(id)] if id == a));
        c.cmds.clear();
        agree(&mut c, "elide");

        c.evict_bytes(1, false, None);
        let Some(IoCmd::Store(items)) = c.cmds.pop() else {
            panic!("expected b's store")
        };
        agree(&mut c, "evict");
        for (_, id, obj) in items {
            c.store_failed(id, obj);
        }
        agree(&mut c, "store_failed");
        c.leave_degraded();

        arrive(&mut c, NetMsg::MigrateReq { oid: b, dest: 1 });
        agree(&mut c, "migrate");
        let x = ObjectId::new(2, 9);
        let install = Install {
            oid: x,
            priority: 128,
            locked: false,
            version: 0,
            packed: Registry::pack(&Blob(100)),
            queue: VecDeque::new(),
        };
        arrive(&mut c, NetMsg::Install(install));
        arrive(&mut c, MetaOp::Unlock.on(d));
        agree(&mut c, "install and unlock");
        assert!(c.violation.is_none(), "{:?}", c.violation);
    }

    /// Each per-node invariant check, tripped by corrupting one field or
    /// by driving a transition its guard would have refused: the core
    /// keeps the first violation, naming the node, the transition and the
    /// object.
    #[cfg(debug_assertions)]
    mod invariants {
        use super::*;
        use crate::audit::Invariant;

        fn assert_broken(c: &mut NodeCore, invariant: Invariant, at: &str, oid: ObjectId) {
            let v = c
                .violation
                .take()
                .unwrap_or_else(|| panic!("{invariant:?} not flagged"));
            assert_eq!(v.invariant, invariant, "{v}");
            assert!(
                v.detail.starts_with(&format!("node {} {at}: ", c.node)),
                "{v}"
            );
            assert!(v.detail.contains(&format!("{oid:?}")), "{v}");
        }

        #[test]
        fn pinned_eviction_is_named() {
            let mut c = core(1000);
            let x = resident(&mut c, 1, 100);
            let e = c.entry_mut(x);
            (e.spill_key, e.stored_version) = (Some(1001), Some(e.version));
            e.locked = true;
            assert!(c.try_elide(x));
            assert_broken(&mut c, Invariant::PinnedEviction, "try_elide", x);
        }

        #[test]
        fn handler_on_an_object_that_left_core_is_named() {
            let mut c = core(1000);
            let x = resident(&mut c, 1, 100);
            post(&mut c, x);
            let (obj, footprint, _) = c.begin_handler(x).expect("queued work");
            c.entry_mut(x).state = State::OnDisk;
            c.finish_handler(x, obj, footprint);
            assert_broken(&mut c, Invariant::NonResidentDelivery, "finish_handler", x);
        }

        #[test]
        fn budget_overrun_past_the_slack_is_named() {
            // Three 100-byte objects against a 100-byte budget, placed
            // without admission: pinning one is slack enough, and then
            // the one-object slack covers the rest; unpinned it is not.
            let mut c = core(100);
            let ids = [1, 2, 3].map(|seq| resident(&mut c, seq, 100));
            c.entry_mut(ids[0]).locked = true;
            c.audit_budget(true);
            assert!(c.violation.is_none(), "{:?}", c.violation);
            c.entry_mut(ids[0]).locked = false;
            c.audit_budget(true);
            let v = c.violation.take().expect("over budget");
            assert_eq!(v.invariant, Invariant::BudgetExceeded, "{v}");
            assert!(
                v.detail.starts_with("node 0 admission: 300 B in core"),
                "{v}"
            );
        }

        #[test]
        fn footprint_drift_is_named_at_the_next_admission() {
            let mut c = core(1000);
            let x = resident(&mut c, 1, 100);
            c.entry_mut(x).footprint = 90;
            c.create(oid(2), Box::new(Blob(10)), 128, false);
            let v = c.violation.take().expect("books out of balance");
            assert_eq!(v.invariant, Invariant::AccountingImbalance, "{v}");
            assert_eq!(
                v.detail,
                "node 0 admission: used is 110 B but in-core objects sum to 100 B"
            );
        }

        #[test]
        fn accounting_drift_is_named_when_stats_are_sealed() {
            let mut c = core(1000);
            resident(&mut c, 1, 100);
            c.ooc.note_out(10);
            c.seal_stats();
            let v = c.violation.take().expect("books out of balance");
            assert_eq!(v.invariant, Invariant::AccountingImbalance, "{v}");
            assert!(v.detail.starts_with("node 0 seal_stats: "), "{v}");
        }

        #[test]
        fn prefetch_past_the_window_is_named() {
            let mut c = core(usize::MAX / 4);
            let x = on_disk(&mut c, 1, 100, 10);
            c.inflight_load_objs = PREFETCH_WINDOW_OBJECTS;
            c.issue_load(x, true);
            assert_broken(&mut c, Invariant::PrefetchWindowExceeded, "issue_load", x);
        }

        #[test]
        fn load_of_an_object_not_loading_is_named() {
            let mut c = core(1000);
            let x = resident(&mut c, 1, 100);
            c.inflight_load_objs = 1;
            c.complete_load(x, Box::new(Blob(100)), 10, true);
            assert_broken(&mut c, Invariant::EventOrder, "complete_load", x);
        }

        #[test]
        fn degraded_eviction_is_named() {
            let mut c = core(500);
            let x = resident(&mut c, 1, 300);
            assert!(c.ooc.enter_degraded());
            c.evict_bytes(100, true, None);
            assert_broken(&mut c, Invariant::DegradedEviction, "evict_bytes", x);
        }

        #[test]
        fn illegal_steal_is_named() {
            let mut c = core_at(0);
            let x = resident(&mut c, 1, 100);
            post(&mut c, x);
            c.entry_mut(x).locked = true;
            c.grant_steal(x, 1);
            assert_broken(&mut c, Invariant::IllegalSteal, "grant_steal", x);
        }
    }

    /// Every event a core emits carries its own node: the replay stream
    /// files events into per-node lanes, and one filed under a peer from
    /// this node's thread races the peer's own emissions. Fails with the
    /// thief announcing the victim's deny when it arrives.
    #[cfg(any(feature = "audit", debug_assertions))]
    #[test]
    fn steal_answers_are_announced_by_the_node_that_gives_them() {
        use crate::audit::EventLog;
        let mut cores = [core_at(0), core_at(1)];
        let logs = [0, 1].map(|_| std::sync::Arc::new(EventLog::new()));
        for (c, log) in cores.iter_mut().zip(&logs) {
            c.audit = Some(log.clone());
        }
        let [victim, thief] = &mut cores;
        let x = resident(victim, 7, 100);
        // Nothing queued: denied. One message queued: granted.
        for queued in [false, true] {
            if queued {
                post(victim, x);
            }
            thief.request_steal(0);
            let (to, request) = thief.out.remove(0);
            assert_eq!(to, 0);
            let asker = arrive(victim, request).expect("a steal request names its thief");
            match victim.steal_pick() {
                Some(pick) => victim.grant_steal(pick, asker),
                None => victim.deny_steal(asker),
            }
            for (dest, answer) in std::mem::take(&mut victim.out) {
                if dest == 1 {
                    arrive(thief, answer);
                }
            }
            assert!(!thief.awaiting_steal);
        }
        assert_eq!(
            (thief.stats.steal_requests, thief.stats.tasks_stolen),
            (2, 1)
        );
        for (node, log) in logs.iter().enumerate() {
            let events = log.snapshot();
            let denies = events
                .iter()
                .filter(|ev| matches!(ev, RuntimeEvent::StealDeny { .. }))
                .count();
            assert_eq!(denies, usize::from(node == 0), "{events:?}");
            for ev in &events {
                assert_eq!(crate::replay::event_node(ev), node as NodeId, "{ev:?}");
            }
        }
    }

    /// Every arm of `on_net` announces what it did: per variant, a state in
    /// which its arm has something to announce and the event it must then
    /// emit, named through a `match` with no wildcard, so a new variant
    /// does not compile until it has a row here. A steal denial is
    /// announced by the victim when it denies (see the test above): the
    /// arm that receives it emits nothing.
    /// A spill operation's report lands in the counters, and its faults
    /// and retries are announced attempt by attempt: each attempt's
    /// faults, then its retry.
    #[cfg(any(feature = "audit", debug_assertions))]
    #[test]
    fn fold_io_counts_and_announces_in_attempt_order() {
        use crate::audit::EventLog;
        use crate::fault::{FaultKind, FaultOp, FaultReport};
        let fault = |kind| FaultReport {
            kind,
            op: FaultOp::Store,
            key: 4,
            delay: Duration::ZERO,
        };
        let mut c = core_at(1);
        let log = std::sync::Arc::new(EventLog::new());
        c.audit = Some(log.clone());
        let mut r = IoReport::new(ObjectId::new(1, 4));
        r.faults = vec![
            (1, fault(FaultKind::TornWrite)),
            (2, fault(FaultKind::TransientEio)),
            (3, fault(FaultKind::Latency)),
        ];
        r.retries = 2;
        (r.seg_reads, r.seg_switches, r.pool_hits) = (3, 1, 2);
        c.fold_io(&r);
        let events: Vec<String> = (log.snapshot().iter()).map(|e| format!("{e:?}")).collect();
        assert_eq!(
            events,
            [
                "Fault { node: 1, kind: TornWrite, key: 4 }",
                "Retry { node: 1, oid: obj:1:4, attempt: 1 }",
                "Fault { node: 1, kind: TransientEio, key: 4 }",
                "Retry { node: 1, oid: obj:1:4, attempt: 2 }",
                "Fault { node: 1, kind: Latency, key: 4 }",
            ]
        );
        let s = &c.stats;
        assert_eq!((s.faults_injected, s.io_retries, s.io_gave_up), (3, 2, 0));
        let (read, switched) = (s.segment_reads, s.segment_switches);
        assert_eq!((read, switched), (3, 1));
        assert_eq!(s.buffer_pool_hits, 2);
        r.gave_up = true;
        c.fold_io(&r);
        assert_eq!(c.stats.io_gave_up, 1);
    }

    #[cfg(any(feature = "audit", debug_assertions))]
    #[test]
    fn every_arm_of_on_net_announces_what_it_did() {
        use crate::audit::EventLog;
        /// The kind of event an arm must emit; `None`: nothing.
        type Announces = Option<fn(&RuntimeEvent) -> bool>;
        let elsewhere = ObjectId::new(0, 9);
        let mut next = sample_after(None);
        while let Some(sample) = next {
            let mut c = core_at(1);
            let x = resident(&mut c, 7, 100);
            let log = std::sync::Arc::new(EventLog::new());
            c.audit = Some(log.clone());
            let (msg, announces): (NetMsg, Announces) = match &sample {
                NetMsg::Msg(_) => (
                    NetMsg::Msg(msg_to(elsewhere, 0, &[])),
                    Some(|ev| matches!(ev, RuntimeEvent::Forward { .. })),
                ),
                NetMsg::DirUpdate { .. } => (
                    NetMsg::DirUpdate {
                        oid: elsewhere,
                        loc: 3,
                    },
                    Some(|ev| matches!(ev, RuntimeEvent::DirUpdate { .. })),
                ),
                NetMsg::MigrateReq { .. } => (
                    NetMsg::MigrateReq { oid: x, dest: 2 },
                    Some(|ev| matches!(ev, RuntimeEvent::MigrateOut { .. })),
                ),
                NetMsg::Meta { .. } => (
                    MetaOp::Lock.on(x),
                    Some(|ev| matches!(ev, RuntimeEvent::Pin { .. })),
                ),
                NetMsg::Install(_) => (
                    NetMsg::Install(Install {
                        oid: elsewhere,
                        priority: 0,
                        locked: false,
                        version: 0,
                        packed: Registry::pack(&Blob(100)),
                        queue: VecDeque::new(),
                    }),
                    Some(|ev| matches!(ev, RuntimeEvent::MigrateIn { .. })),
                ),
                NetMsg::StealReq { .. } => (
                    NetMsg::StealReq { thief: 0 },
                    Some(|ev| matches!(ev, RuntimeEvent::StealRequest { .. })),
                ),
                NetMsg::StealDeny { .. } => (NetMsg::StealDeny { victim: 0 }, None),
            };
            let _ = arrive(&mut c, msg.clone());
            let events = log.snapshot();
            match announces {
                Some(announced) => assert!(events.iter().any(announced), "{msg:?}: {events:?}"),
                None => assert!(events.is_empty(), "{msg:?}: {events:?}"),
            }
            next = sample_after(Some(&sample));
        }
    }

    /// One sample per variant, chained through a `match` with no wildcard:
    /// a new variant does not compile until it has a sample here, and so a
    /// round trip and a wire literal below.
    fn sample_after(prev: Option<&NetMsg>) -> Option<NetMsg> {
        let oid = ObjectId::new(2, 17);
        Some(match prev {
            None => NetMsg::Msg(Message {
                to: MobilePtr::new(oid),
                handler: HandlerId(9),
                payload: vec![1, 2, 3],
                route: vec![3, 1],
            }),
            Some(NetMsg::Msg(_)) => NetMsg::DirUpdate { oid, loc: 0x0305 },
            Some(NetMsg::DirUpdate { .. }) => NetMsg::MigrateReq { oid, dest: 4 },
            Some(NetMsg::MigrateReq { .. }) => MetaOp::SetPriority(200).on(oid),
            Some(NetMsg::Meta { .. }) => NetMsg::Install(Install {
                oid,
                priority: 7,
                locked: true,
                version: 0x0102,
                packed: vec![0xAA, 0xBB],
                queue: VecDeque::from([Message::new(MobilePtr::new(oid), HandlerId(9), vec![])]),
            }),
            Some(NetMsg::Install(_)) => NetMsg::StealReq { thief: 3 },
            Some(NetMsg::StealReq { .. }) => NetMsg::StealDeny { victim: 258 },
            Some(NetMsg::StealDeny { .. }) => return None,
        })
    }

    /// The bytes the threaded engine put on the fabric before `NetMsg`
    /// existed, written out by hand from the formats it built inline.
    #[test]
    fn every_variant_round_trips_and_keeps_its_wire_bytes() {
        const OID: [u8; 8] = [17, 0, 0, 0, 0, 0, 2, 0];
        let cat = |parts: &[&[u8]]| parts.concat();
        let queued = cat(&[&OID, &[9, 0, 0, 0], &[0; 4], &[0; 4]]);
        let wire: Vec<(u32, Vec<u8>)> = vec![
            (
                1,
                cat(&[
                    &OID,
                    &[9, 0, 0, 0],
                    &[3, 0, 0, 0, 1, 2, 3],
                    &[2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0],
                ]),
            ),
            (2, cat(&[&OID, &[5, 3]])),
            (3, cat(&[&OID, &[4, 0]])),
            (6, cat(&[&OID, &[2, 200]])),
            (
                4,
                cat(&[
                    &OID,
                    &[7, 1],
                    &[2, 1, 0, 0, 0, 0, 0, 0],
                    &[2, 0, 0, 0, 0xAA, 0xBB],
                    &[1, 0, 0, 0],
                    &[20, 0, 0, 0],
                    &queued,
                ]),
            ),
            (10, vec![3, 0]),
            (11, vec![2, 1]),
        ];
        let samples: Vec<NetMsg> =
            std::iter::successors(sample_after(None), |m| sample_after(Some(m))).collect();
        assert_eq!(samples.len(), wire.len());
        for (m, (tag, bytes)) in samples.iter().zip(&wire) {
            assert_eq!((m.tag(), &m.encode()), (*tag, bytes), "{m:?}");
            assert_eq!(NetMsg::decode(*tag, bytes).as_ref(), Ok(m));
        }
        let oid = ObjectId::new(2, 17);
        for (op, code) in [(MetaOp::Lock, [0, 0]), (MetaOp::Unlock, [1, 0])] {
            assert_eq!(op.on(oid).encode(), cat(&[&OID, &code]));
            assert_eq!(NetMsg::decode(6, &cat(&[&OID, &code])), Ok(op.on(oid)));
        }
        // Not part of the vocabulary: the control ring's tags, a tag
        // nobody has, damaged payloads. Errors, never panics.
        for tag in [0, 5, 7, 8, 9, 12, u32::MAX] {
            assert_eq!(NetMsg::decode(tag, &[]), Err(WireError::UnknownTag(tag)));
        }
        for (tag, bytes) in &wire {
            for cut in 0..bytes.len() {
                assert_eq!(
                    NetMsg::decode(*tag, &bytes[..cut]),
                    Err(WireError::Malformed)
                );
            }
        }
        assert_eq!(
            NetMsg::decode(6, &cat(&[&OID, &[3, 0]])),
            Err(WireError::Malformed)
        );
        let huge_queue = cat(&[&OID, &[7, 1], &[0; 8], &[0; 4], &[0xFF; 4]]);
        assert_eq!(NetMsg::decode(4, &huge_queue), Err(WireError::Malformed));
    }
}
