//! The out-of-core layer of one node, sans I/O.
//!
//! [`NodeCore`] owns what a node needs to decide *when* and *what* to
//! swap — the object table, the budget manager, the locality map, the
//! queue of pending loads and the prefetch window — and implements every
//! step of the residency pipeline once, for both engines:
//!
//! ```text
//! admit ─▶ evict ─┬─▶ elide (clean: drop the copy, no I/O)
//!                 └─▶ spill (dirty: one batched store)
//! message for an on-disk object ─▶ queue_load ─▶ pump_loads ─▶ issue_load
//! load completed as a demand miss ─▶ cluster_prefetch ─▶ queue (hinted)
//! ```
//!
//! The core performs no I/O and reads no clock. Every method is a state
//! transition that takes the caller's notion of *now* (virtual time in
//! the discrete-event engine; always zero in the threaded engine, whose
//! handlers are over by the time the control loop asks) and appends the
//! I/O it wants done to [`NodeCore::cmds`] as [`IoCmd`]s, in the order
//! they must be performed. An engine is a **driver**: it drains the
//! command buffer into its own notion of a disk — an I/O thread pool, or
//! virtual disks charged in virtual time — and feeds completions back
//! through [`NodeCore::complete_load`], [`NodeCore::store_landed`] and
//! [`NodeCore::store_failed`]. Statistics and audit events for these
//! transitions are recorded here, so the two engines cannot count or
//! report them differently.
//!
//! Messaging, the directory, migration, installation and work stealing
//! still live in the drivers; they reach into [`NodeCore::table`] for the
//! per-object state they share with this layer.

#[allow(unused_imports)]
use crate::audit::{audit_emit, RuntimeEvent};
use crate::config::MrtsConfig;
use crate::ctx::Effect;
use crate::ids::{NodeId, ObjectId};
use crate::locality::{LocalityMap, CLUSTER_OBJECTS, PREFETCH_MATES, UNRANKED};
use crate::msg::Message;
use crate::object::MobileObject;
use crate::ooc::{EvictCandidate, OocManager, PREFETCH_WINDOW_BYTES, PREFETCH_WINDOW_OBJECTS};
use crate::policy::AccessMeta;
use crate::stats::NodeStats;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

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
    /// Queued by cluster prefetch (a demand load faulted on a clustermate)
    /// rather than by pending work of its own; keeps the entry alive in
    /// `pending_loads` despite an empty queue, and is counted/cleared when
    /// the load issues.
    prefetch_hint: bool,
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
    /// Time at which this object's previous handler finishes; it cannot
    /// be evicted before.
    pub(crate) obj_free_at: Duration,
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
    Load {
        key: u64,
        oid: ObjectId,
        packed_len: usize,
    },
    /// Install the locality-curve rank per spill key in the store
    /// (fire-and-forget; the store's `set_key_ranks`).
    SetRanks(Vec<(u64, u64)>),
    /// No I/O: the resident copy of a clean object was dropped. Drivers
    /// that track residency outside the table (a run queue, a race
    /// detector) observe it here.
    Elided(ObjectId),
}

/// The out-of-core state machine of one node. See the module docs.
pub(crate) struct NodeCore {
    /// Labels this node's audit events.
    #[cfg(any(feature = "audit", debug_assertions))]
    node: NodeId,
    /// `MrtsConfig::locality`: learn adjacency, evict and prefetch by
    /// cluster, ship curve ranks to the store.
    locality_on: bool,
    pub(crate) table: HashMap<ObjectId, Entry>,
    pub(crate) ooc: OocManager,
    /// Adjacency-learned locality ordering (see `mrts::locality`); fed
    /// from handler sends, consumed by eviction, cluster prefetch, and
    /// rank shipping to the spill store. A pure function of the edge set,
    /// so both engines agree on it.
    locality: LocalityMap,
    /// Ordering generation last shipped to the store via
    /// [`IoCmd::SetRanks`], plus the `next_spill_key` watermark at that
    /// shipment (spill keys are assigned monotonically, so the watermark
    /// bounds how many keys are new since).
    ranks_gen: u64,
    ranks_keys: usize,
    /// Curve key of the most recent demand anchor; successive anchors
    /// estimate which way the access front is moving along the curve, so
    /// cluster prefetch pulls mates ahead of the front, not behind it.
    last_anchor_key: u64,
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
    #[cfg(any(feature = "audit", debug_assertions))]
    pub(crate) audit: Option<std::sync::Arc<dyn crate::audit::EventSink>>,
}

impl NodeCore {
    #[allow(unused_variables)] // `node` only labels audit events
    pub(crate) fn new(node: NodeId, cfg: &MrtsConfig) -> Self {
        NodeCore {
            #[cfg(any(feature = "audit", debug_assertions))]
            node,
            locality_on: cfg.locality,
            table: HashMap::new(),
            ooc: OocManager::new(
                cfg.mem_budget,
                cfg.hard_threshold_mult,
                cfg.soft_threshold_frac,
                cfg.policy,
            ),
            locality: LocalityMap::new(CLUSTER_OBJECTS),
            ranks_gen: 0,
            ranks_keys: 0,
            last_anchor_key: 0,
            pending_loads: VecDeque::new(),
            inflight_load_objs: 0,
            inflight_load_bytes: 0,
            next_spill_key: 0,
            stats: NodeStats::default(),
            cmds: Vec::new(),
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
    /// is the caller's call ([`NodeCore::admit`]): bootstrap paths skip
    /// it. The object cannot be evicted before `now`. Returns the entry it
    /// replaced, if any.
    pub(crate) fn insert_resident(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        priority: u8,
        locked: bool,
        version: u64,
        now: Duration,
    ) -> Option<Entry> {
        let footprint = obj.footprint();
        let tick = self.ooc.tick();
        self.ooc.note_in(footprint);
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
                prefetch_hint: false,
                store_inflight: false,
                version,
                stored_version: None,
                obj_free_at: now,
            },
        )
    }

    /// Emit a memory-accounting snapshot for the invariant checker.
    /// `enforced` marks snapshots taken right after an admission decision
    /// (held to the budget invariant); reload completions and bootstrap
    /// are accounting-only (the layer deliberately overshoots there, see
    /// [`NodeCore::admit_for_load`]).
    #[allow(unused_variables)]
    pub(crate) fn audit_budget(&self, enforced: bool) {
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
    }

    // ----- admission and eviction -------------------------------------------

    /// Make room for `incoming` bytes (hard-threshold admission for
    /// created/installed objects; may displace objects with queued work —
    /// their reload is queued so nothing is lost).
    pub(crate) fn admit(&mut self, incoming: usize, now: Duration) {
        let need = self.ooc.needed_for_admission(incoming);
        if need > 0 {
            self.evict_bytes(need, true, None, now);
        }
    }

    /// Admission for a disk *load*. Never displaces objects with queued
    /// messages: a displaced-queued object immediately queues its own
    /// reload, and two loads displacing each other's queued objects is an
    /// evict/reload livelock. Prefer briefly overshooting the budget
    /// instead.
    fn admit_for_load(&mut self, incoming: usize, now: Duration) {
        let need = self.ooc.needed_for_admission(incoming);
        if need > 0 {
            self.evict_bytes(need, false, None, now);
        }
    }

    /// Post-handler budget enforcement: objects grow during handlers
    /// (meshes refine in place), which no admission path sees. `except`
    /// protects an object whose message queue the driver is draining in
    /// place (evicting it mid-drain would reorder its messages).
    pub(crate) fn enforce_budget(&mut self, except: Option<ObjectId>, now: Duration) {
        // Degraded: the store is rejecting writes, so evicting would only
        // burn retries; knowingly overshoot until the backend recovers.
        if !self.ooc.enabled() || self.ooc.is_degraded() {
            return;
        }
        let over = self.ooc.used().saturating_sub(self.ooc.budget());
        if over > 0 {
            self.evict_bytes(over, true, except, now);
        }
    }

    /// Soft-threshold advisory swap of idle objects.
    pub(crate) fn soft_swap(&mut self, now: Duration) {
        let excess = self.ooc.soft_excess();
        if excess > 0 {
            self.evict_bytes(excess, false, None, now);
        }
    }

    /// A probe found the spill store healthy again: leave degraded mode
    /// and shed the footprint overshoot accumulated while evictions were
    /// suspended. No-op if the node was not degraded.
    pub(crate) fn leave_degraded(&mut self, now: Duration) {
        if self.ooc.exit_degraded() {
            self.stats.degraded_mode_transitions += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::Degraded {
                    node: self.node,
                    on: false
                }
            );
            self.enforce_budget(None, now);
            self.soft_swap(now);
        }
    }

    /// Evict at least `need` bytes: offer every evictable resident object
    /// to the budget manager, elide the clean victims (their on-disk bytes
    /// are current) and take the dirty remainder out of core as one
    /// batched [`IoCmd::Store`]. The eviction is accounted here, when it
    /// is issued; a store that later fails is reversed by
    /// [`NodeCore::store_failed`].
    fn evict_bytes(
        &mut self,
        need: usize,
        allow_queued: bool,
        except: Option<ObjectId>,
        now: Duration,
    ) {
        let locality = self.locality_on;
        if locality {
            self.locality.maybe_rebuild();
            self.push_ranks_if_stale();
        }
        let mut candidates: Vec<EvictCandidate> = self
            .table
            .iter()
            .filter(|(&oid, e)| {
                e.is_in_core()
                    && !e.locked
                    && e.obj_free_at <= now
                    && e.pending_migration.is_none()
                    && (allow_queued || e.queue.is_empty())
                    && Some(oid) != except
            })
            .map(|(&oid, e)| EvictCandidate {
                oid,
                footprint: e.footprint,
                meta: e.meta,
                priority: e.priority,
                queued_msgs: e.queue.len(),
                clean: e.is_clean(),
                cluster: if locality {
                    self.locality.cluster_of(oid)
                } else {
                    None
                },
                lkey: self.locality.key_of(oid).unwrap_or(UNRANKED),
            })
            .collect();
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

    /// Ship the locality-curve ranks of all spilled objects to the store
    /// when the ordering changed or enough new spill keys appeared since
    /// the last shipment — a cleaning pass then relocates live records in
    /// curve order.
    fn push_ranks_if_stale(&mut self) {
        let gen = self.locality.generation();
        if gen == 0 {
            return;
        }
        // O(1) staleness gate before the table scan: `next_spill_key`
        // only grows, so it bounds how many spill keys can be new since
        // the last shipment.
        if gen == self.ranks_gen && (self.next_spill_key as usize) < self.ranks_keys + 32 {
            return;
        }
        let ranks = self.locality.ranks_for(
            self.table
                .iter()
                .filter_map(|(&oid, e)| e.spill_key.map(|k| (oid, k))),
        );
        self.ranks_gen = gen;
        self.ranks_keys = self.next_spill_key as usize;
        if !ranks.is_empty() {
            self.cmds.push(IoCmd::SetRanks(ranks));
        }
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

    /// Cluster prefetch: a demanded load of `anchor` just completed as a
    /// miss (the node stalled on it), so enqueue the anchor's nearest
    /// on-disk clustermates as hinted look-ahead loads — only on the side
    /// of the curve the demand front is moving toward (mates behind the
    /// front were just used; prefetching them is guaranteed waste under a
    /// tight budget). Triggering on demand misses rather than on every
    /// load keeps the speculation bounded: queue-visible work is already
    /// covered by the ordinary look-ahead window, and a miss is precisely
    /// the signal that the front moved somewhere that window could not
    /// see. The mates flow through [`NodeCore::pump_loads`] window/pacing
    /// (the hint only keeps them wanted despite their empty queues), so
    /// the prefetch budget and degraded-mode shedding apply unchanged.
    fn cluster_prefetch(&mut self, anchor: ObjectId) {
        if !self.locality_on {
            return;
        }
        self.locality.maybe_rebuild();
        let Some(key) = self.locality.key_of(anchor) else {
            return;
        };
        let forward = key >= self.last_anchor_key;
        self.last_anchor_key = key;
        for oid in self
            .locality
            .companions_toward(anchor, PREFETCH_MATES, forward)
        {
            let Some(e) = self.table.get_mut(&oid) else {
                continue;
            };
            if e.load_queued || !matches!(e.state, State::OnDisk) {
                continue;
            }
            e.load_queued = true;
            e.prefetch_hint = true;
            self.pending_loads.push_back(oid);
        }
    }

    /// Bytes reclaimable by evicting only objects with no pending work —
    /// the only victims a look-ahead load is allowed to displace.
    fn idle_evictable_bytes(&self, now: Duration) -> usize {
        self.table
            .values()
            .filter(|e| {
                e.is_in_core()
                    && !e.locked
                    && e.obj_free_at <= now
                    && e.pending_migration.is_none()
                    && e.queue.is_empty()
            })
            .map(|e| e.footprint)
            .sum()
    }

    /// Drop the pending load at `idx`: its reason to load evaporated, or
    /// it is a hint-only entry that cannot issue right now. A cluster
    /// prefetch that cannot issue is stale by the time conditions change,
    /// and keeping it queued wedges termination — a node with a non-empty
    /// load queue never reports idle.
    fn cancel_hint(&mut self, oid: ObjectId, idx: usize) {
        self.pending_loads.remove(idx);
        let e = self.entry_mut(oid);
        e.load_queued = false;
        e.prefetch_hint = false;
        self.stats.prefetch_cancels += 1;
    }

    /// Issue queued loads. A **look-ahead** load (the node is `busy`: it
    /// still has resident work to run) stays inside the prefetch window
    /// and is paced so it never displaces an object with queued messages;
    /// a **demand** load (nothing resident to run) is bounded by the
    /// object window only, and an urgent one (a migration or a lock
    /// waiting on the object) always makes progress. Entries whose reason
    /// to load evaporated are cancelled here.
    pub(crate) fn pump_loads(&mut self, busy: bool, now: Duration) {
        if self.pending_loads.is_empty() {
            return;
        }
        let mut idle_evictable: Option<usize> = None;
        let mut i = 0;
        while i < self.pending_loads.len() {
            let oid = self.pending_loads[i];
            let e = self.entry(oid);
            let urgent = e.pending_migration.is_some() || e.locked;
            let hinted = e.prefetch_hint;
            let demanded = !e.queue.is_empty();
            let wants = matches!(e.state, State::OnDisk) && (urgent || demanded || hinted);
            let (store_inflight, footprint, packed_len) =
                (e.store_inflight, e.footprint, e.packed_len);
            if !wants {
                self.cancel_hint(oid, i);
                continue;
            }
            if store_inflight {
                // Per-key ordering: an I/O pool is not FIFO, so the load
                // must wait for this object's store to land.
                i += 1;
                continue;
            }
            // A hinted (cluster-prefetched) load is look-ahead by nature:
            // while nothing queued demands it, it must respect the window,
            // the pacing, and degraded-mode shedding even when the node
            // happens to be idle. Once a message has queued up behind it,
            // it is a demand load like any other: on an idle node nothing
            // will ever free the headroom pacing waits for, and a parked
            // entry keeps the node from ever reporting idle.
            let look_ahead = busy || (hinted && !demanded);
            // A hint with nothing queued behind it is pure opportunism: if
            // it cannot issue under the current gates it must be dropped,
            // not parked — nothing else will ever change an idle node's
            // pacing headroom, and termination detection refuses to call
            // a node idle while its load queue is non-empty.
            let hint_only = hinted && !urgent && !demanded;
            if look_ahead && !urgent {
                if self.ooc.is_degraded() {
                    // Disk pressure: shed prefetch entirely; only demand
                    // and urgent loads keep flowing.
                    if hint_only {
                        self.cancel_hint(oid, i);
                        continue;
                    }
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
                    let avail =
                        *idle_evictable.get_or_insert_with(|| self.idle_evictable_bytes(now));
                    if need > avail {
                        // Paced: admission would thrash queued objects.
                        if hint_only {
                            self.cancel_hint(oid, i);
                            continue;
                        }
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
            self.issue_load(oid, look_ahead && !urgent, now);
            // Issuing may have evicted; recompute pacing headroom lazily.
            idle_evictable = None;
        }
    }

    /// Progress guarantee for a driver that never polls. A driver with a
    /// control loop pumps again on its next turn, when headroom or the
    /// window may have changed; one that only pumps when an event arrives
    /// (virtual time: nothing happens between events) must not leave a
    /// non-empty queue with nothing in flight — no completion would ever
    /// pump again, and the queued work would be silently dropped. Such a
    /// driver calls this after every [`NodeCore::pump_loads`]: if nothing
    /// is in flight, the front entry is forced through as a demand load.
    pub(crate) fn force_front_load(&mut self, now: Duration) {
        if self.inflight_load_objs > 0 {
            return;
        }
        if let Some(oid) = self.pending_loads.pop_front() {
            let e = self.entry_mut(oid);
            debug_assert!(!e.store_inflight, "forced load would race its own store");
            e.load_queued = false;
            self.issue_load(oid, false, now);
        }
    }

    /// Begin loading an on-disk object: account it against the window,
    /// admit its (approximate) footprint, append the [`IoCmd::Load`].
    fn issue_load(&mut self, oid: ObjectId, look_ahead: bool, now: Duration) {
        let e = self.entry_mut(oid);
        debug_assert!(matches!(e.state, State::OnDisk));
        e.state = State::Loading;
        let hinted = std::mem::replace(&mut e.prefetch_hint, false);
        let key = e.spill_key.expect("on-disk object has a spill key");
        let (footprint, packed_len) = (e.footprint, e.packed_len);
        self.inflight_load_objs += 1;
        self.inflight_load_bytes += packed_len;
        if hinted {
            self.stats.cluster_prefetches += 1;
            audit_emit!(
                self.audit,
                RuntimeEvent::ClusterPrefetch {
                    node: self.node,
                    oid,
                    cluster: self.locality.cluster_of(oid).unwrap_or(0),
                }
            );
        }
        if look_ahead {
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
        self.admit_for_load(footprint, now);
        self.stats.loads += 1;
        self.stats.bytes_from_disk += packed_len as u64;
        self.cmds.push(IoCmd::Load {
            key,
            oid,
            packed_len,
        });
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
        let e = self
            .table
            .get_mut(&oid)
            .expect("tracked object has a table entry");
        debug_assert!(matches!(e.state, State::Loading));
        // Read-amplification accounting: the load was *demanded* if the
        // object has actual work waiting (queued messages, a pending
        // migration, or a lock); a cluster-prefetched load that nothing
        // asked for yet counts only in `bytes_from_disk`, making waste
        // visible.
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
        // A demanded load that stalled the node is the access front
        // arriving somewhere look-ahead did not predict — pull the
        // anchor's cluster mates behind it before the front stalls on
        // them too.
        if miss && demanded {
            self.cluster_prefetch(oid);
        }
    }

    /// A load was abandoned after exhausting its retries. Unrecoverable
    /// for the run (the object exists nowhere else); this only releases
    /// the window slot and counts the failure.
    pub(crate) fn load_failed(&mut self, oid: ObjectId) {
        let packed_len = self.entry(oid).packed_len;
        self.inflight_load_objs -= 1;
        self.inflight_load_bytes = self.inflight_load_bytes.saturating_sub(packed_len);
        self.stats.io_gave_up += 1;
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
        let e = self.entry_mut(oid);
        debug_assert!(matches!(e.state, State::OnDisk));
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

    /// Take a resident object out for the duration of a handler call.
    /// Returns the object and its footprint before the call, or `None`
    /// (nothing changed) if the object is not in core.
    pub(crate) fn begin_handler(
        &mut self,
        oid: ObjectId,
    ) -> Option<(Box<dyn MobileObject>, usize)> {
        let e = self.entry_mut(oid);
        match std::mem::replace(&mut e.state, State::Executing) {
            State::InCore(obj) => Some((obj, e.footprint)),
            other => {
                e.state = other;
                None
            }
        }
    }

    /// Put the object back after its handler ran until `free_at`: account
    /// growth or shrinkage, mark it dirty, and learn the locality edges of
    /// its sends. Budget enforcement is a separate step
    /// ([`NodeCore::enforce_budget`], [`NodeCore::soft_swap`]) because the
    /// driver applies the handler's effects in between.
    pub(crate) fn finish_handler(
        &mut self,
        oid: ObjectId,
        obj: Box<dyn MobileObject>,
        old_footprint: usize,
        effects: &[Effect],
        free_at: Duration,
    ) {
        let new_footprint = obj.footprint();
        let tick = self.ooc.tick();
        let e = self.entry_mut(oid);
        e.state = State::InCore(obj);
        e.obj_free_at = free_at;
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
        // Locality learning: an object-to-object send is exactly the
        // buffer-zone adjacency (subdomains talk to their mesh neighbors),
        // so each send contributes an edge to the curve ordering.
        if self.locality_on {
            for eff in effects {
                if let Effect::Send { to, .. } = eff {
                    self.locality.note_edge(oid, to.id);
                }
            }
        }
    }

    /// Close out the counters a run reports: the peak footprint comes
    /// from the budget manager's own high-water mark (the single source
    /// of truth for in-core accounting), and the curve digest is a pure
    /// function of the learned edge set — both engines must agree on it
    /// for the same application.
    pub(crate) fn seal_stats(&mut self) {
        self.stats.peak_mem = self.ooc.peak_used;
        if self.locality_on {
            self.stats.locality_digest = self.locality.digest();
        }
    }
}

#[cfg(test)]
mod tests {
    //! The sans-I/O shape lets the residency rules be tested with no
    //! threads and no store: drive a `NodeCore`, read the command buffer.

    use super::*;
    use crate::ids::{HandlerId, MobilePtr, TypeTag};
    use std::any::Any;

    struct Blob(usize);

    impl MobileObject for Blob {
        fn type_tag(&self) -> TypeTag {
            TypeTag(1)
        }
        fn encode(&self, _buf: &mut Vec<u8>) {}
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

    const T0: Duration = Duration::ZERO;

    fn oid(seq: u64) -> ObjectId {
        ObjectId::new(0, seq)
    }

    fn core(budget: usize) -> NodeCore {
        NodeCore::new(0, &MrtsConfig::out_of_core(1, budget))
    }

    fn resident(c: &mut NodeCore, seq: u64, footprint: usize) -> ObjectId {
        c.insert_resident(oid(seq), Box::new(Blob(footprint)), 128, false, 0, T0);
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

    /// What cluster prefetch does to a mate: queue it with a hint.
    fn hint(c: &mut NodeCore, id: ObjectId) {
        let e = c.entry_mut(id);
        e.load_queued = true;
        e.prefetch_hint = true;
        c.pending_loads.push_back(id);
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

    /// A node whose only resident object has queued work (so nothing is
    /// idle-evictable and every look-ahead load is paced) plus one hinted
    /// on-disk object that does not fit beside it.
    fn paced_hint() -> (NodeCore, ObjectId) {
        let mut c = core(1000);
        let r = resident(&mut c, 1, 600);
        post(&mut c, r);
        let h = on_disk(&mut c, 2, 600, 100);
        hint(&mut c, h);
        (c, h)
    }

    #[test]
    fn hinted_load_with_a_queued_message_issues_as_demand_on_an_idle_node() {
        let (mut c, h) = paced_hint();
        post(&mut c, h);
        c.pump_loads(false, T0);
        assert_eq!(
            loads(&c),
            vec![h],
            "a demanded load must not wait on pacing"
        );
        assert!(!c.has_pending_loads());
        assert_eq!(c.stats.prefetch_issued, 0, "classified as demand");
        assert_eq!(c.stats.cluster_prefetches, 1, "still counted as a hint hit");
        assert_eq!(c.stats.prefetch_cancels, 0);
        // Load admission never displaces the queued resident object: the
        // budget is overshot instead.
        assert!(stores(&c).is_empty());
        assert!(c.entry(oid(1)).is_in_core());
    }

    /// The PR 15 termination wedge: a hint-only entry that cannot issue
    /// must leave the queue, or the node never reports idle. Fails under
    /// `look_ahead = busy || hinted` with park-instead-of-cancel.
    #[test]
    fn hint_only_load_that_is_paced_or_shed_is_cancelled_not_parked() {
        let (mut c, h) = paced_hint();
        c.pump_loads(false, T0);
        assert!(!c.has_pending_loads(), "a parked hint wedges termination");
        assert_eq!(c.stats.prefetch_cancels, 1);
        assert!(c.cmds.is_empty());
        assert!(matches!(c.entry(h).state, State::OnDisk));
        assert!(!c.entry(h).load_queued && !c.entry(h).prefetch_hint);

        // Same under disk pressure, with room to spare.
        let mut c = core(10_000);
        let h = on_disk(&mut c, 1, 600, 100);
        hint(&mut c, h);
        assert!(c.ooc.enter_degraded());
        c.pump_loads(false, T0);
        assert!(!c.has_pending_loads());
        assert_eq!(c.stats.prefetch_cancels, 1);
        assert!(c.cmds.is_empty());
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
            c.pump_loads(busy, T0);
            assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS);
            c.pump_loads(busy, T0);
            assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS, "window is full");
        }
        // 1.5 MB images: look-ahead stops at the byte window (3.0 + 1.5 >
        // 4 MB), demand loads fill the object window regardless.
        let mut c = queue_six(3 * mb / 2);
        c.pump_loads(true, T0);
        assert_eq!(loads(&c).len(), 2);
        assert!(c.inflight_load_bytes <= PREFETCH_WINDOW_BYTES);
        assert_eq!(c.stats.prefetch_issued, 2);
        let mut c = queue_six(3 * mb / 2);
        c.pump_loads(false, T0);
        assert_eq!(loads(&c).len(), PREFETCH_WINDOW_OBJECTS);
        assert_eq!(c.stats.prefetch_issued, 0);
        // A completion frees a slot.
        let first = loads(&c)[0];
        c.complete_load(first, Box::new(Blob(64)), 3 * mb / 2, true);
        c.pump_loads(false, T0);
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
        c.admit_for_load(600, T0);
        assert_eq!(stores(&c), vec![vec![idle]]);
        assert!(c.entry(a).is_in_core() && c.entry(b).is_in_core());

        // Over budget by growth; `a` is the only candidate left besides
        // `b`, and it is excepted.
        let mut c = core(500);
        let (a, b) = (resident(&mut c, 1, 300), resident(&mut c, 2, 300));
        c.enforce_budget(Some(a), T0);
        assert_eq!(stores(&c), vec![vec![b]]);
        assert!(c.entry(a).is_in_core());
        c.enforce_budget(Some(a), T0);
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
        c.pump_loads(false, T0);
        c.complete_load(clean, Box::new(Blob(300)), 77, true);
        c.entry_mut(clean).queue.clear();
        c.cmds.clear();

        c.admit(1000, T0);
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
        c.admit(500, T0);
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
        c.admit(500, T0);
        c.enforce_budget(None, T0);
        assert!(c.cmds.is_empty());
        // A healthy probe sheds the overshoot again.
        c.leave_degraded(T0);
        assert_eq!(c.stats.degraded_mode_transitions, 2);
        assert!(!stores(&c).is_empty());
        assert!(c.ooc.used() <= 500);
    }
}
