//! Runtime auditing: canonical event stream, invariant checking, and a
//! happens-before race detector for both MRTS engines.
//!
//! The engines ([`crate::des::DesRuntime`] and
//! [`crate::threaded::ThreadedRuntime`]) are instrumented to emit a
//! [`RuntimeEvent`] for every semantically meaningful transition of a
//! mobile object: creation, load/unload (spill), pin/unpin, message
//! post/delivery/forward, directory updates, migration out/in, in-place
//! resize, budget snapshots, and termination/shutdown. Any [`EventSink`] can observe the stream; the
//! two shipped sinks are:
//!
//! * [`EventLog`] — records everything, for offline inspection;
//! * [`InvariantChecker`] — validates the cross-node invariants online
//!   and either panics at the first violation ([`FailMode::Panic`]) or
//!   collects violations for later assertion ([`FailMode::Collect`]).
//!
//! Instrumentation is compiled in only under `debug_assertions` or the
//! `audit` cargo feature; release builds without the feature carry **no
//! event-emission code and no sink fields** (the `audit_emit!` macro
//! expands to nothing), so auditing is zero-cost where it is not wanted.
//!
//! ## Checked invariants
//!
//! Rules about one node's state are checked on that state by the node
//! core (`node.rs`), at the transition that could break them, in every
//! debug build, sink or no sink: 1 pinned objects are never evicted; 2 a
//! handler's object stays out for execution until it finishes; 4 after an
//! admission, `used ≤ budget + hard_reserve + pinned + largest-object`
//! (the slack covers pinned victims and the one-object overshoot); 7
//! `used` equals the sum of in-core footprints; 8 look-ahead loads stay
//! inside the prefetch window; 10 no dirty eviction while the store
//! rejects writes; 11 an elided eviction's on-disk image is current; 13 a
//! steal grants an object held here, unpinned and not already leaving;
//! and the per-node half of [`Invariant::EventOrder`] (loads issue only
//! for on-disk objects and complete only for loading ones, only a store in
//! flight can fail). A violation ends the run as
//! [`crate::fault::MrtsError::Invariant`], naming the node, the transition
//! and the object.
//!
//! What no single node can see, [`InvariantChecker`] checks on the event
//! stream, over a model of each object's holder, the migrations in flight
//! and the posted-but-undelivered messages:
//!
//! 2. (cross-node half) a handler runs on the node that holds the object;
//! 3. **message queues travel with objects** — the queued count announced
//!    at `MigrateOut` equals the count observed at `MigrateIn`;
//! 5. **forwarding chains are acyclic and converge** — the `Moved`
//!    tombstone walk from any hint reaches the object's holder or
//!    in-flight destination without revisiting a node, and a streak cap
//!    backstops it against routing livelock;
//! 6. **termination only at quiescence** — at `Terminate` no posted
//!    message is undelivered and no migration is in flight;
//! 12. **handlers execute exactly once per post** — a duplicate that
//!     escaped receiver-side dedup drives the outstanding count negative;
//! 14. **jobs never interfere** — on the separate [`ServiceEvent`] stream,
//!     concurrently active jobs hold disjoint node domains, and a
//!     quarantined job is never readmitted.
//!
//! Here [`Invariant::EventOrder`] flags stream-impossible sequences
//! (installing a migration that never departed, departing from a node
//! that does not hold the object, …), so the model never desynchronizes.

use crate::ids::{NodeId, ObjectId};
use crate::lock;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Mutex;

/// SplitMix64 finalizer: a cheap bijection on `u64`. Used by the DES
/// engine's schedule-permutation mode to reshuffle same-timestamp
/// tie-breaks (bijectivity keeps event sequence numbers unique) and
/// available to tests that need a seedable hash.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One semantically meaningful runtime transition, as emitted by the
/// engines. Byte counts are object footprints (see
/// [`crate::object::MobileObject::footprint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// A mobile object materialized on `node` (bootstrap or handler
    /// `create`).
    Create {
        node: NodeId,
        oid: ObjectId,
        footprint: usize,
    },
    /// An on-disk object was brought back in-core.
    Load {
        node: NodeId,
        oid: ObjectId,
        footprint: usize,
    },
    /// An in-core object was spilled to disk.
    Unload {
        node: NodeId,
        oid: ObjectId,
        footprint: usize,
    },
    /// A clean in-core object was evicted without a write: the resident
    /// copy was dropped because the on-disk bytes are already current.
    /// `version` is the object's mutation version at eviction time and
    /// `stored_version` the version last written to disk; a legal
    /// elision has them equal (invariant 11).
    ElidedUnload {
        node: NodeId,
        oid: ObjectId,
        footprint: usize,
        version: u64,
        stored_version: u64,
    },
    /// The object was locked in memory.
    Pin { node: NodeId, oid: ObjectId },
    /// The lock was released.
    Unpin { node: NodeId, oid: ObjectId },
    /// A point-to-point message destined for `oid` entered the system
    /// on `node` (the posting node, not the eventual delivery node).
    Post { node: NodeId, oid: ObjectId },
    /// A handler ran against `oid` on `node` (consumes one `Post`).
    Deliver { node: NodeId, oid: ObjectId },
    /// A message for `oid` was re-routed from `node` towards `to`
    /// (the object is not here; a `Moved` tombstone or the directory
    /// pointed onward).
    Forward {
        node: NodeId,
        oid: ObjectId,
        to: NodeId,
    },
    /// `node` learned (or recorded) that `oid` now lives at `loc`.
    DirUpdate {
        node: NodeId,
        oid: ObjectId,
        loc: NodeId,
    },
    /// `oid` departed `node` towards `to`, carrying `queued` pending
    /// messages.
    MigrateOut {
        node: NodeId,
        oid: ObjectId,
        to: NodeId,
        queued: usize,
        footprint: usize,
    },
    /// `oid` installed on `node` with `queued` pending messages.
    MigrateIn {
        node: NodeId,
        oid: ObjectId,
        queued: usize,
        footprint: usize,
    },
    /// `oid`'s footprint changed in place after a handler ran.
    Resize {
        node: NodeId,
        oid: ObjectId,
        old: usize,
        new: usize,
    },
    /// A memory-accounting snapshot. `enforced` snapshots follow an
    /// admission decision (invariant 4); unenforced ones (reload
    /// completions, objects a failed store puts back) are
    /// accounting-only.
    Budget {
        node: NodeId,
        used: usize,
        budget: usize,
        hard_reserve: usize,
        enforced: bool,
    },
    /// The prefetcher issued a look-ahead load for `oid`; the announced
    /// in-flight totals include this load and are held to the window
    /// caps.
    Prefetch {
        node: NodeId,
        oid: ObjectId,
        inflight_objects: usize,
        window_objects: usize,
        inflight_bytes: usize,
        window_bytes: usize,
    },
    /// `node` decided (or was told) the computation terminated.
    Terminate { node: NodeId },
    /// `node` shut down reporting `used` in-core bytes still accounted.
    Shutdown { node: NodeId, used: usize },
    /// The spill store faulted (injected or real) on an operation against
    /// `key`.
    Fault {
        node: NodeId,
        kind: crate::fault::FaultKind,
        key: u64,
    },
    /// A storage operation for `oid` is being retried (`attempt` is
    /// 1-based: the first retry after the initial failure is attempt 1).
    Retry {
        node: NodeId,
        oid: ObjectId,
        attempt: u32,
    },
    /// `node` entered (`on = true`) or left (`on = false`) degraded mode:
    /// evictions stop, prefetch sheds, objects stay resident until the
    /// backend accepts writes again.
    Degraded { node: NodeId, on: bool },
    /// The network fault plan hit a transmission from `node` towards
    /// `dest` (injected drop/duplicate/delay/reorder).
    NetFault {
        node: NodeId,
        dest: NodeId,
        kind: crate::netfault::NetFaultKind,
    },
    /// The reliable-delivery layer retransmitted sequence number `seq`
    /// from `node` to `dest` (`attempt` is 1-based).
    Retransmit {
        node: NodeId,
        dest: NodeId,
        seq: u64,
        attempt: u32,
    },
    /// Receiver-side dedup on `node` suppressed a duplicate delivery of
    /// sequence number `seq` from `src` — the handler did not run again.
    DupSuppressed { node: NodeId, src: NodeId, seq: u64 },
    /// `node` dropped its directory hint for `oid` (which pointed at
    /// `loc`) after repeated delivery failure; routing falls back to the
    /// object's home.
    HintInvalidated {
        node: NodeId,
        oid: ObjectId,
        loc: NodeId,
    },
    /// An idle node `thief` asked `node` for ready work (work stealing;
    /// see `mrts::sched`).
    StealRequest { node: NodeId, thief: NodeId },
    /// `node` answered a steal request by granting `oid` to thief `to`.
    /// The handover must be legal: `oid` present on `node` (in-core or
    /// on its disk) and unpinned (invariant 13). The migration that ships
    /// it emits `MigrateOut`/`MigrateIn` as usual.
    StealGrant {
        node: NodeId,
        oid: ObjectId,
        to: NodeId,
    },
    /// `node` had nothing stealable for thief `to`.
    StealDeny { node: NodeId, to: NodeId },
}

/// Observer of the runtime event stream. Must be thread-safe: the
/// threaded engine invokes it concurrently from every worker.
pub trait EventSink: Send + Sync {
    fn record(&self, ev: &RuntimeEvent);
}

/// A sink that keeps every event, in arrival order.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<RuntimeEvent>>,
}

impl EventLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> Vec<RuntimeEvent> {
        lock(&self.events).clone()
    }

    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for EventLog {
    fn record(&self, ev: &RuntimeEvent) {
        lock(&self.events).push(ev.clone());
    }
}

/// Forward every event to several sinks. The runtimes take a single
/// sink; harnesses that need both an [`InvariantChecker`] and an
/// [`EventLog`] (e.g. record/replay) attach one of these.
pub struct FanOut {
    sinks: Vec<std::sync::Arc<dyn EventSink>>,
}

impl FanOut {
    pub fn new(sinks: Vec<std::sync::Arc<dyn EventSink>>) -> Self {
        Self { sinks }
    }
}

impl EventSink for FanOut {
    fn record(&self, ev: &RuntimeEvent) {
        for s in &self.sinks {
            s.record(ev);
        }
    }
}

/// What to do when an invariant breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Panic at the first violation (fail fast; for CI gates).
    Panic,
    /// Record violations; the caller inspects [`InvariantChecker::violations`].
    Collect,
}

/// The runtime invariants (see module docs): the per-node ones are
/// checked on the node core, the cross-node ones by [`InvariantChecker`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    PinnedEviction,
    NonResidentDelivery,
    QueueLostInMigration,
    BudgetExceeded,
    ForwardingCycle,
    EarlyTermination,
    AccountingImbalance,
    /// A look-ahead load overran the configured prefetch window.
    PrefetchWindowExceeded,
    /// An object was evicted on a node that had declared degraded mode.
    DegradedEviction,
    /// A clean eviction skipped its write while the on-disk bytes were
    /// stale (mutation version ahead of the last stored version).
    StaleElision,
    /// A handler executed more often than messages were posted — a
    /// duplicated transmission slipped past receiver-side dedup.
    DuplicateDelivery,
    /// A steal grant handed over an object that was pinned, absent, or
    /// already leaving the granting node.
    IllegalSteal,
    /// Two concurrently active jobs were granted overlapping node
    /// domains, or a quarantined job was resubmitted — either breaks the
    /// job service's fault-domain isolation guarantee.
    CrossJobInterference,
    /// A protocol-impossible transition for the state it applies to
    /// (catch-all that keeps each model honest).
    EventOrder,
}

/// One detected violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub invariant: Invariant,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.invariant, self.detail)
    }
}

struct MigRecord {
    to: NodeId,
    queued: usize,
}

#[derive(Default)]
struct CheckState {
    /// Node each object was created on or last installed on (its
    /// departure node while it migrates).
    loc: HashMap<ObjectId, NodeId>,
    /// Departed-but-not-installed migrations, FIFO per object.
    in_flight: HashMap<ObjectId, VecDeque<MigRecord>>,
    /// The `Moved` tombstone graph: for each object, stale-location →
    /// forwarding-target edges.
    moved_edges: HashMap<ObjectId, HashMap<NodeId, NodeId>>,
    /// Posted-but-undelivered message count (global).
    outstanding: i64,
    /// Consecutive forwards per object since it last made progress
    /// (delivery or install); a runaway streak means a routing livelock.
    forward_streak: HashMap<ObjectId, u32>,
    /// Active job → granted node domain (service-level stream). Domains
    /// of concurrently active jobs must be disjoint (invariant 14).
    job_domains: HashMap<u64, Vec<NodeId>>,
    /// Jobs the service has quarantined — they may never be readmitted.
    job_quarantined: HashSet<u64>,
    /// Jobs that already completed — their ids may not be reused.
    job_completed: HashSet<u64>,
    violations: Vec<Violation>,
    events: u64,
}

impl CheckState {
    /// The node that holds `oid` now: where it was created or last
    /// installed, unless it is in flight.
    fn holder(&self, oid: ObjectId) -> Option<NodeId> {
        if self.in_flight.get(&oid).is_some_and(|q| !q.is_empty()) {
            return None;
        }
        self.loc.get(&oid).copied()
    }
}

/// Online checker for the cross-node runtime invariants listed in the
/// module docs.
///
/// Thread-safe; attach one instance to a whole run (both engines) via
/// `attach_audit` and call [`InvariantChecker::assert_clean`] afterwards
/// (or use [`FailMode::Panic`] to fail fast inside the run).
pub struct InvariantChecker {
    mode: FailMode,
    /// Forward-streak cap backstopping cycle detection (invariant 5).
    forward_streak_limit: u32,
    state: Mutex<CheckState>,
}

impl InvariantChecker {
    pub fn new(mode: FailMode) -> Self {
        InvariantChecker {
            mode,
            forward_streak_limit: 256,
            state: Mutex::new(CheckState::default()),
        }
    }

    /// Override the forward-livelock streak cap (default 256). Legitimate
    /// lazy-directory chains are bounded by a few hops per message; the
    /// cap only needs to be far above `hops × queued messages`.
    pub fn with_forward_limit(mode: FailMode, limit: u32) -> Self {
        let mut c = Self::new(mode);
        c.forward_streak_limit = limit;
        c
    }

    pub fn violations(&self) -> Vec<Violation> {
        lock(&self.state).violations.clone()
    }

    pub fn events_seen(&self) -> u64 {
        lock(&self.state).events
    }

    /// Panics (listing every violation) unless the run was clean.
    pub fn assert_clean(&self) {
        let st = lock(&self.state);
        if !st.violations.is_empty() {
            let list: Vec<String> = st.violations.iter().map(|v| v.to_string()).collect();
            drop(st);
            panic!("runtime invariants violated:\n  {}", list.join("\n  "));
        }
    }

    /// Commit what one event turned up: panic on the first violation in
    /// [`FailMode::Panic`], keep them all otherwise.
    fn commit(&self, st: &mut CheckState, found: Vec<(Invariant, String)>) {
        for (invariant, detail) in found {
            if self.mode == FailMode::Panic {
                panic!("MRTS invariant violated — {invariant:?}: {detail}");
            }
            st.violations.push(Violation { invariant, detail });
        }
    }
}

/// Walk the tombstone graph from `start`. The walk is clean when it
/// reaches the object's holder, any in-flight migration destination, or a
/// node with no tombstone (the engine then re-routes via the home node).
/// Revisiting a node is a forwarding cycle; the detail lists the walk in
/// visit order, so one schedule always yields the same text.
fn walk_chain(st: &CheckState, oid: ObjectId, start: NodeId) -> Option<Violation> {
    let holder = st.holder(oid);
    let in_flight_to = |n: NodeId| {
        st.in_flight
            .get(&oid)
            .is_some_and(|q| q.iter().any(|r| r.to == n))
    };
    let mut cur = start;
    let mut path: Vec<NodeId> = Vec::new();
    loop {
        if holder == Some(cur) || in_flight_to(cur) {
            return None; // converged to where the object is (or will be)
        }
        if path.contains(&cur) {
            return Some(Violation {
                invariant: Invariant::ForwardingCycle,
                detail: format!(
                    "{oid:?}: tombstone walk from node {start} revisits node {cur} (path {path:?})"
                ),
            });
        }
        path.push(cur);
        match st.moved_edges.get(&oid).and_then(|m| m.get(&cur)) {
            Some(&next) => cur = next,
            None => return None, // chain end: engine falls back to the home node
        }
    }
}

impl EventSink for InvariantChecker {
    fn record(&self, ev: &RuntimeEvent) {
        use Invariant::*;
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        st.events += 1;
        let mut found = Vec::new();
        let mut flag = |invariant: Invariant, detail: String| found.push((invariant, detail));
        match ev {
            RuntimeEvent::Create { node, oid, .. } => {
                let earlier = st.loc.insert(*oid, *node);
                if earlier.is_some() {
                    flag(EventOrder, format!("{oid:?} created twice"));
                }
            }
            RuntimeEvent::Post { .. } => st.outstanding += 1,
            RuntimeEvent::Deliver { node, oid } => {
                st.outstanding -= 1;
                if st.outstanding < 0 {
                    flag(
                        DuplicateDelivery,
                        format!(
                            "handler ran against {oid:?} on node {node} with no outstanding post \
                             — a duplicated transmission slipped past dedup"
                        ),
                    );
                }
                st.forward_streak.remove(oid);
                let holder = st.holder(*oid);
                if holder != Some(*node) {
                    let at = format!("{oid:?} on node {node} but its holder is {holder:?}");
                    flag(NonResidentDelivery, format!("handler ran against {at}"));
                }
            }
            RuntimeEvent::Forward { node, oid, to } => {
                if to == node {
                    flag(
                        ForwardingCycle,
                        format!("{oid:?} forwarded from node {node} to itself"),
                    );
                }
                let streak = st.forward_streak.entry(*oid).or_insert(0);
                *streak += 1;
                if *streak == self.forward_streak_limit {
                    let why = "without a delivery or install (routing livelock)";
                    flag(
                        ForwardingCycle,
                        format!("{oid:?} forwarded {streak} times {why}"),
                    );
                }
                if let Some(v) = walk_chain(st, *oid, *to) {
                    flag(v.invariant, v.detail);
                }
            }
            RuntimeEvent::DirUpdate { node: _, oid, loc } => {
                if let Some(v) = walk_chain(st, *oid, *loc) {
                    flag(v.invariant, v.detail);
                }
            }
            RuntimeEvent::MigrateOut {
                node,
                oid,
                to,
                queued,
                ..
            } => {
                let holder = st.holder(*oid);
                if holder != Some(*node) {
                    flag(
                        EventOrder,
                        format!("{oid:?} migrated out of node {node} but its holder is {holder:?}"),
                    );
                }
                st.moved_edges.entry(*oid).or_default().insert(*node, *to);
                st.in_flight.entry(*oid).or_default().push_back(MigRecord {
                    to: *to,
                    queued: *queued,
                });
            }
            RuntimeEvent::MigrateIn {
                node, oid, queued, ..
            } => {
                match st.in_flight.get_mut(oid).and_then(|q| q.pop_front()) {
                    Some(rec) => {
                        if rec.to != *node {
                            flag(
                                EventOrder,
                                format!(
                                    "{oid:?} installed on node {node} but was shipped to node {}",
                                    rec.to
                                ),
                            );
                        }
                        if rec.queued != *queued {
                            let sent = rec.queued;
                            flag(
                                QueueLostInMigration,
                                format!("{oid:?} departed with {sent} queued messages but installed with {queued}"),
                            );
                        }
                    }
                    None => flag(
                        EventOrder,
                        format!("{oid:?} installed on node {node} without a matching departure"),
                    ),
                }
                st.forward_streak.remove(oid);
                st.loc.insert(*oid, *node);
                // The object is here now: any stale tombstone on this node
                // is overwritten by the engine.
                if let Some(edges) = st.moved_edges.get_mut(oid) {
                    edges.remove(node);
                }
            }
            RuntimeEvent::Terminate { node } => {
                if st.outstanding != 0 {
                    flag(
                        EarlyTermination,
                        format!(
                            "node {node} terminated with {} posted-but-undelivered messages",
                            st.outstanding
                        ),
                    );
                }
                let in_flight: Vec<ObjectId> = st
                    .in_flight
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(oid, _)| *oid)
                    .collect();
                if !in_flight.is_empty() {
                    flag(
                        EarlyTermination,
                        format!("node {node} terminated with migrations in flight: {in_flight:?}"),
                    );
                }
            }
            // Residency, budget, prefetch, steal and degraded-mode events
            // are one node's business, checked on its core; fault and
            // network events mark where a layer failed or recovered.
            // None of them moves the model.
            _ => {}
        }
        self.commit(st, found);
    }
}

// ---------------------------------------------------------------------------
// Job-service event stream
// ---------------------------------------------------------------------------

/// One job-lifecycle transition, as emitted by [`crate::service::JobService`].
///
/// Service events are a **separate stream** from [`RuntimeEvent`]: runtime
/// events are per-node (every variant carries its node — the canonical
/// replay stream depends on that), while job events are service-scoped and
/// span many nodes. Keeping them apart means the replay encoding and the
/// per-run checker state are untouched by service concerns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceEvent {
    /// A job passed admission control and was granted a node domain and a
    /// memory budget.
    JobAdmitted {
        job: u64,
        nodes: Vec<NodeId>,
        budget: usize,
    },
    /// A failed attempt is being retried (attempt numbers start at 1; the
    /// retry announces the attempt about to run).
    JobRetry { job: u64, attempt: u32 },
    /// The job exhausted its attempts (or tripped an invariant) and was
    /// quarantined; it may never be resubmitted.
    JobQuarantined { job: u64, attempts: u32 },
    /// The job's node domain lost node `from`; its domain is released and
    /// the job will be re-granted onto survivors (a fresh `JobAdmitted`).
    JobRecovered { job: u64, from: NodeId },
    /// The job finished and released its domain.
    JobCompleted { job: u64 },
}

/// Observer of the service event stream (the job-service analogue of
/// [`EventSink`]).
pub trait ServiceEventSink: Send + Sync {
    fn record_service(&self, ev: &ServiceEvent);
}

/// A sink that keeps every service event, in arrival order.
#[derive(Default)]
pub struct ServiceLog {
    events: Mutex<Vec<ServiceEvent>>,
}

impl ServiceLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> Vec<ServiceEvent> {
        lock(&self.events).clone()
    }
}

impl ServiceEventSink for ServiceLog {
    fn record_service(&self, ev: &ServiceEvent) {
        lock(&self.events).push(ev.clone());
    }
}

impl ServiceEventSink for InvariantChecker {
    /// Invariant 14: **jobs never interfere** — the node domains of
    /// concurrently active jobs are pairwise disjoint, and a quarantined
    /// job is never readmitted. Lifecycle-impossible transitions (retry of
    /// an inactive job, double completion, id reuse) fall under
    /// [`Invariant::EventOrder`], as in the per-run stream.
    fn record_service(&self, ev: &ServiceEvent) {
        use Invariant::{CrossJobInterference, EventOrder};
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        st.events += 1;
        let mut found = Vec::new();
        let mut flag = |invariant: Invariant, detail: String| found.push((invariant, detail));
        match ev {
            ServiceEvent::JobAdmitted { job, nodes, budget } => {
                if st.job_quarantined.contains(job) {
                    flag(
                        CrossJobInterference,
                        format!("quarantined job {job} was readmitted"),
                    );
                }
                if st.job_completed.contains(job) {
                    flag(
                        EventOrder,
                        format!("completed job {job} was readmitted (job ids are unique)"),
                    );
                }
                if st.job_domains.contains_key(job) {
                    flag(
                        EventOrder,
                        format!("job {job} admitted while already active"),
                    );
                }
                if *budget == 0 {
                    flag(
                        EventOrder,
                        format!("job {job} admitted with a zero memory budget"),
                    );
                }
                for (other, domain) in &st.job_domains {
                    if *other == *job {
                        continue;
                    }
                    let overlap: Vec<NodeId> = nodes
                        .iter()
                        .copied()
                        .filter(|n| domain.contains(n))
                        .collect();
                    if !overlap.is_empty() {
                        flag(
                            CrossJobInterference,
                            format!(
                                "job {job} granted nodes {overlap:?} already owned by \
                                 active job {other}"
                            ),
                        );
                    }
                }
                st.job_domains.insert(*job, nodes.clone());
            }
            ServiceEvent::JobRetry { job, attempt } => {
                if !st.job_domains.contains_key(job) {
                    flag(
                        EventOrder,
                        format!("job {job} retried (attempt {attempt}) while not active"),
                    );
                }
            }
            ServiceEvent::JobQuarantined { job, attempts } => {
                // Quarantine is legal straight from the queue (a domain
                // that became unsatisfiable) — no active-domain check.
                if st.job_completed.contains(job) {
                    flag(
                        EventOrder,
                        format!("completed job {job} quarantined (after {attempts} attempts)"),
                    );
                }
                if !st.job_quarantined.insert(*job) {
                    flag(EventOrder, format!("job {job} quarantined twice"));
                }
                st.job_domains.remove(job);
            }
            ServiceEvent::JobRecovered { job, from } => match st.job_domains.remove(job) {
                Some(domain) if domain.contains(from) => {}
                Some(domain) => flag(
                    EventOrder,
                    format!("job {job} recovered from node {from} outside its domain {domain:?}"),
                ),
                None => flag(EventOrder, format!("job {job} recovered while not active")),
            },
            ServiceEvent::JobCompleted { job } => {
                if st.job_domains.remove(job).is_none() {
                    flag(EventOrder, format!("job {job} completed while not active"));
                }
                st.job_completed.insert(*job);
            }
        }
        self.commit(st, found);
    }
}

// ---------------------------------------------------------------------------
// Happens-before race detection
// ---------------------------------------------------------------------------

/// A classic vector clock over the worker threads of the threaded engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    pub fn tick(&mut self, i: usize) {
        self.0[i] += 1;
    }

    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `self ≤ other` component-wise: the event stamped `self`
    /// happens-before (or equals) one stamped `other`.
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// One detected race: two accesses to the same mobile object unordered
/// by the happens-before relation.
#[derive(Clone, Debug)]
pub struct RaceReport {
    pub oid: ObjectId,
    pub first: (NodeId, AccessKind),
    pub second: (NodeId, AccessKind),
}

#[derive(Default)]
struct ObjHistory {
    last_write: Option<(NodeId, VectorClock)>,
    /// Reads since the last write, at most one (the latest) per thread.
    reads: Vec<(NodeId, VectorClock)>,
}

struct RaceState {
    clocks: Vec<VectorClock>,
    /// Per (sender, receiver) FIFO of send stamps — matches the fabric's
    /// per-pair ordered delivery, so each receive joins the clock of the
    /// exact send it observed.
    channels: HashMap<(NodeId, NodeId), VecDeque<VectorClock>>,
    objects: HashMap<ObjectId, ObjHistory>,
    races: Vec<RaceReport>,
}

/// Vector-clock happens-before race detector over mobile-object accesses
/// in the threaded engine.
///
/// The engine's only inter-thread edges are active messages: every
/// `am_send` calls [`RaceDetector::on_send`] before the message becomes
/// visible, every fabric receipt calls [`RaceDetector::on_recv`], and
/// every object access (handler execution, pack/unpack for migration or
/// spill) calls [`RaceDetector::on_access`]. Two accesses to one object
/// unordered by the resulting happens-before relation are a race: the
/// object moved between threads without a carrying message.
pub struct RaceDetector {
    inner: Mutex<RaceState>,
}

impl RaceDetector {
    pub fn new(n_threads: usize) -> Self {
        RaceDetector {
            inner: Mutex::new(RaceState {
                clocks: vec![VectorClock::new(n_threads); n_threads],
                channels: HashMap::new(),
                objects: HashMap::new(),
                races: Vec::new(),
            }),
        }
    }

    /// A message is about to leave `from` for `to`.
    pub fn on_send(&self, from: NodeId, to: NodeId) {
        let mut st = lock(&self.inner);
        st.clocks[from as usize].tick(from as usize);
        let stamp = st.clocks[from as usize].clone();
        st.channels.entry((from, to)).or_default().push_back(stamp);
    }

    /// A message from `from` arrived at `at`.
    pub fn on_recv(&self, at: NodeId, from: NodeId) {
        let mut st = lock(&self.inner);
        let stamp = st.channels.get_mut(&(from, at)).and_then(|q| q.pop_front());
        if let Some(stamp) = stamp {
            st.clocks[at as usize].join(&stamp);
        }
        st.clocks[at as usize].tick(at as usize);
    }

    /// Thread `thread` touched `oid`.
    pub fn on_access(&self, thread: NodeId, oid: ObjectId, write: bool) {
        let mut st = lock(&self.inner);
        st.clocks[thread as usize].tick(thread as usize);
        let now = st.clocks[thread as usize].clone();
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let hist = st.objects.entry(oid).or_default();
        let mut found: Vec<RaceReport> = Vec::new();
        if let Some((t, wc)) = &hist.last_write {
            if *t != thread && !wc.leq(&now) {
                found.push(RaceReport {
                    oid,
                    first: (*t, AccessKind::Write),
                    second: (thread, kind),
                });
            }
        }
        if write {
            for (t, rc) in &hist.reads {
                if *t != thread && !rc.leq(&now) {
                    found.push(RaceReport {
                        oid,
                        first: (*t, AccessKind::Read),
                        second: (thread, kind),
                    });
                }
            }
            hist.last_write = Some((thread, now));
            hist.reads.clear();
        } else {
            hist.reads.retain(|(t, _)| *t != thread);
            hist.reads.push((thread, now));
        }
        st.races.extend(found);
    }

    pub fn races(&self) -> Vec<RaceReport> {
        lock(&self.inner).races.clone()
    }

    pub fn assert_race_free(&self) {
        let st = lock(&self.inner);
        if !st.races.is_empty() {
            let list: Vec<String> = st.races.iter().map(|r| format!("{r:?}")).collect();
            drop(st);
            panic!("data races on mobile objects:\n  {}", list.join("\n  "));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine-side emission
// ---------------------------------------------------------------------------

/// Emit a [`RuntimeEvent`] through an `Option<Arc<dyn EventSink>>` slot.
///
/// Compiled away entirely (slot access, event construction and all) in
/// release builds without the `audit` feature — the macro body sits
/// inside a `#[cfg]`-gated block, so the tokens never reach name
/// resolution.
macro_rules! audit_emit {
    ($slot:expr, $ev:expr) => {{
        #[cfg(any(feature = "audit", debug_assertions))]
        {
            if let Some(sink) = $slot.as_ref() {
                let ev: $crate::audit::RuntimeEvent = $ev;
                $crate::audit::EventSink::record(&**sink, &ev);
            }
        }
    }};
}
pub(crate) use audit_emit;

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(seq: u64) -> ObjectId {
        ObjectId::new(0, seq)
    }

    fn create(node: NodeId) -> RuntimeEvent {
        RuntimeEvent::Create {
            node,
            oid: oid(1),
            footprint: 100,
        }
    }

    fn post(seq: u64) -> RuntimeEvent {
        RuntimeEvent::Post {
            node: 0,
            oid: oid(seq),
        }
    }

    fn deliver(node: NodeId) -> RuntimeEvent {
        RuntimeEvent::Deliver { node, oid: oid(1) }
    }

    #[test]
    fn mix64_is_injective_on_a_prefix() {
        let mut seen = HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)));
        }
        // And not the identity.
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn event_log_records_in_order() {
        let log = EventLog::new();
        let events = [post(1), post(2)];
        for ev in &events {
            log.record(ev);
        }
        assert_eq!(log.snapshot(), events);
    }

    #[test]
    fn vector_clock_orders_and_joins() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(0);
        assert!(!a.leq(&b));
        b.join(&a);
        b.tick(1);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
    }

    #[test]
    fn clean_lifecycle_has_no_violations() {
        let c = InvariantChecker::new(FailMode::Collect);
        c.record(&create(0));
        c.record(&post(1));
        c.record(&deliver(0));
        c.record(&RuntimeEvent::Unload {
            node: 0,
            oid: oid(1),
            footprint: 100,
        });
        c.record(&RuntimeEvent::Load {
            node: 0,
            oid: oid(1),
            footprint: 100,
        });
        c.record(&RuntimeEvent::Terminate { node: 0 });
        c.record(&RuntimeEvent::Shutdown { node: 0, used: 100 });
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.events_seen(), 7);
        c.assert_clean();
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let c = InvariantChecker::new(FailMode::Collect);
        c.record(&create(0));
        c.record(&post(1));
        c.record(&deliver(0));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        // The same message delivered again (dedup failed): one post, two
        // handler executions.
        c.record(&deliver(0));
        assert!(
            c.violations()
                .iter()
                .any(|v| v.invariant == Invariant::DuplicateDelivery),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn net_fault_events_are_observability_only() {
        let c = InvariantChecker::new(FailMode::Panic);
        c.record(&RuntimeEvent::NetFault {
            node: 0,
            dest: 1,
            kind: crate::netfault::NetFaultKind::Drop,
        });
        c.record(&RuntimeEvent::Retransmit {
            node: 0,
            dest: 1,
            seq: 7,
            attempt: 1,
        });
        c.record(&RuntimeEvent::DupSuppressed {
            node: 1,
            src: 0,
            seq: 7,
        });
        c.record(&RuntimeEvent::HintInvalidated {
            node: 0,
            oid: oid(1),
            loc: 2,
        });
        assert_eq!(c.events_seen(), 4);
    }

    /// A forwarding cycle over four stale tombstones (left by installs
    /// that landed elsewhere) reads the same in every checker: the detail
    /// lists the walk in visit order, not a hash set's order.
    #[test]
    fn forwarding_cycle_detail_is_the_same_in_every_checker() {
        let detail = || {
            let c = InvariantChecker::new(FailMode::Collect);
            c.record(&create(9));
            for (from, to) in [(1, 2), (2, 3), (3, 4), (4, 1)] {
                let (oid, queued, footprint) = (oid(1), 0, 100);
                c.record(&RuntimeEvent::MigrateOut {
                    node: from,
                    oid,
                    to,
                    queued,
                    footprint,
                });
                c.record(&RuntimeEvent::MigrateIn {
                    node: 9,
                    oid,
                    queued,
                    footprint,
                });
            }
            c.record(&RuntimeEvent::Forward {
                node: 0,
                oid: oid(1),
                to: 1,
            });
            let violations = c.violations();
            let mut cycles = violations
                .iter()
                .filter(|v| v.invariant == Invariant::ForwardingCycle);
            let cycle = cycles.next().expect("a forwarding cycle");
            assert!(cycles.next().is_none(), "{violations:?}");
            cycle.detail.clone()
        };
        let first = detail();
        assert!(first.ends_with("(path [1, 2, 3, 4])"), "{first}");
        assert_eq!(first, detail());
    }

    #[test]
    #[should_panic(expected = "MRTS invariant violated")]
    fn panic_mode_fails_fast() {
        let c = InvariantChecker::new(FailMode::Panic);
        c.record(&create(0));
        // A handler with no post behind it.
        c.record(&deliver(0));
    }
}
