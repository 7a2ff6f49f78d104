//! The one public runtime API, over either clock.
//!
//! [`Runtime<E>`] is MRTS as an application sees it: register types and
//! handlers, create mobile objects, pin them, post messages, run to
//! quiescence, read the results back, checkpoint and restore. All of that
//! is written once, here. The engine `E` supplies the clock and nothing
//! else — [`crate::des::Des`] (virtual time, one stepping thread) or
//! [`crate::threaded::Threads`] (wall time, one OS thread per node): its
//! spill stores, and how a run steps the workers `Runtime::workers`
//! builds.
//!
//! The state around a run is one rule for both clocks. One `NodeCore`
//! per node and one spill store per node (behind a lock, so reads take
//! `&self`) live as long as the runtime, with the per-node object-id
//! allocators. A boot action — [`Runtime::create_object`],
//! [`Runtime::lock_object`], [`Runtime::post`], a checkpoint restore —
//! lands on the cores at once: a creation is admitted (and may evict)
//! like a handler's, a pin or a post goes to the node that holds the
//! object. What a core buffers for its worker (stores, frames, runnable
//! objects) is carried out when the next run starts, and a core whose
//! buffers are empty is quiescent. A run takes the cores and hands them
//! back, so after it each object table says where every object is —
//! resident, or the spill key it sits under — with its priority, pin and
//! queued messages, and the next run continues from there. Engine-only
//! extras stay inherent on the concrete aliases
//! ([`crate::des::DesRuntime`], [`crate::threaded::ThreadedRuntime`]).

use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::compute::TaskBackend;
use crate::config::MrtsConfig;
use crate::fault::MrtsError;
use crate::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use crate::msg::Message;
use crate::node::{Entry, MetaOp, NodeCore, State};
use crate::object::{DecodeFn, HandlerFn, MobileObject, Registry};
use crate::replay::Decision;
use crate::spill_io::SharedStore;
use crate::stats::RunStats;
use crate::worker::{Gateway, Worker, WorkerResult};
use std::sync::Arc;

/// Packed bytes of the spilled object `oid` of `node`, read from its
/// store (uncharged: result extraction is outside every clock).
fn load_packed(
    stores: &[SharedStore],
    node: NodeId,
    oid: ObjectId,
    key: u64,
) -> Result<Vec<u8>, MrtsError> {
    let mut bytes = Vec::new();
    stores[node as usize].read(key, oid, &mut bytes).1?;
    Ok(bytes)
}

/// A spilled object, read from its node's store and decoded.
fn read_spilled(
    stores: &[SharedStore],
    registry: &Registry,
    node: NodeId,
    oid: ObjectId,
    key: u64,
) -> Result<Box<dyn MobileObject>, MrtsError> {
    let bytes = load_packed(stores, node, oid, key)?;
    Ok(registry
        .unpack(&bytes)
        .expect("store holds pack output of registered types"))
}

/// An execution engine: the clock a [`Runtime`] runs on. Sealed — the
/// engines are [`crate::des::Des`] and [`crate::threaded::Threads`].
pub trait Engine: hooks::Hooks {}

pub(crate) mod hooks {
    use super::*;

    /// What an engine supplies to [`Runtime`]. Public in a private
    /// module, so nothing outside the crate can name or implement it.
    pub trait Hooks: Sized {
        /// The engine's own state, plus one spill store per node for the
        /// runtime's lifetime.
        fn new(cfg: &MrtsConfig) -> (Self, Vec<SharedStore>);
        /// Run to quiescence.
        fn run(rt: &mut Runtime<Self>) -> Result<RunStats, MrtsError>;
    }
}

/// An object's home node in a cluster of `nodes`: after a checkpoint
/// restore onto fewer nodes, homes wrap (see `NodeCore::next_hop`).
pub(crate) fn home_of(oid: ObjectId, nodes: usize) -> usize {
    oid.home() as usize % nodes
}

/// The MRTS runtime on engine `E`. Use it through
/// [`crate::des::DesRuntime`] or [`crate::threaded::ThreadedRuntime`], or
/// write code generic over `E: Engine` to run it on both.
pub struct Runtime<E> {
    pub(crate) cfg: MrtsConfig,
    pub(crate) registry: Registry,
    /// Next object sequence number per node: ids created by the
    /// application, by handlers and by restores all come from here.
    pub(crate) next_seq: Vec<u64>,
    /// One out-of-core and control core per node. After a run its table
    /// holds every object of that node (or the tombstone it left).
    pub(crate) cores: Vec<NodeCore>,
    /// One spill store per node; spilled results are read from here.
    pub(crate) stores: Vec<SharedStore>,
    #[cfg(any(feature = "audit", debug_assertions))]
    pub(crate) audit: Option<Arc<dyn crate::audit::EventSink>>,
    /// Set only on the wall clock (`ThreadedRuntime::attach_race_detector`).
    #[cfg(any(feature = "audit", debug_assertions))]
    pub(crate) race: Option<Arc<crate::audit::RaceDetector>>,
    pub(crate) engine: E,
}

impl<E: Engine> Runtime<E> {
    pub fn new(cfg: MrtsConfig) -> Self {
        cfg.validate().expect("invalid MrtsConfig");
        let (engine, stores) = E::new(&cfg);
        Runtime {
            registry: Registry::new(),
            next_seq: vec![0; cfg.nodes],
            cores: (0..cfg.nodes)
                .map(|i| NodeCore::new(i as NodeId, &cfg))
                .collect(),
            stores,
            #[cfg(any(feature = "audit", debug_assertions))]
            audit: None,
            #[cfg(any(feature = "audit", debug_assertions))]
            race: None,
            engine,
            cfg,
        }
    }

    pub fn config(&self) -> &MrtsConfig {
        &self.cfg
    }

    /// Attach a runtime-event sink (an
    /// [`InvariantChecker`](crate::audit::InvariantChecker), an
    /// [`EventLog`](crate::audit::EventLog), …). The threaded engine's
    /// workers share it, which linearizes their streams; emissions are
    /// ordered so causally related events reach it in causal order. Attach
    /// it before creating objects to see their births. Available in debug
    /// builds and under the `audit` feature; release builds without the
    /// feature compile the instrumentation out.
    #[cfg(any(feature = "audit", debug_assertions))]
    pub fn attach_audit(&mut self, sink: Arc<dyn crate::audit::EventSink>) {
        for c in &mut self.cores {
            c.audit = Some(sink.clone());
        }
        self.audit = Some(sink);
    }

    /// Register an object type decoder.
    pub fn register_type(&mut self, tag: TypeTag, decode: DecodeFn) {
        self.registry.register_type(tag, decode);
    }

    /// Register a message handler.
    pub fn register_handler(&mut self, id: HandlerId, name: &'static str, f: HandlerFn) {
        self.registry.register_handler(id, name, f);
    }

    // ----- bootstrap ---------------------------------------------------------

    /// Create a mobile object on `node` before (or between) runs; its id
    /// is the next one of `node`'s allocator. It is admitted like a
    /// handler's creation: the objects it evicts are stored when the next
    /// run starts.
    pub fn create_object(
        &mut self,
        node: NodeId,
        obj: Box<dyn MobileObject>,
        priority: u8,
    ) -> MobilePtr {
        let seq = &mut self.next_seq[node as usize];
        let id = ObjectId::new(node, *seq);
        *seq += 1;
        self.place(node, id, obj, priority, false);
        MobilePtr::new(id)
    }

    /// Create object `id` on `node`. When `node` is not the id's home (a
    /// checkpoint restored it elsewhere), the home core's directory learns
    /// where it went, so routing from the home finds it.
    pub(crate) fn place(
        &mut self,
        node: NodeId,
        id: ObjectId,
        obj: Box<dyn MobileObject>,
        priority: u8,
        locked: bool,
    ) {
        let home = home_of(id, self.cores.len());
        if home != node as usize {
            self.cores[home].learn_location(id, node);
        }
        self.cores[node as usize].create(id, obj, priority, locked);
    }

    /// Pin an object in memory, on the node that holds it.
    pub fn lock_object(&mut self, ptr: MobilePtr) {
        let node = self.locate(ptr.id);
        self.cores[node as usize].on_meta(ptr.id, MetaOp::Lock);
    }

    /// Post a message to an object before (or between) runs; the node that
    /// holds it delivers it when the next run starts.
    pub fn post(&mut self, to: MobilePtr, handler: HandlerId, payload: Vec<u8>) {
        let node = self.locate(to.id);
        self.cores[node as usize].send(Message::new(to, handler, payload));
    }

    /// No core has buffered work for a worker: nothing a checkpoint would
    /// miss is pending.
    fn quiescent(&self) -> bool {
        (self.cores.iter()).all(|c| c.out.is_empty() && c.runnable.is_empty() && c.cmds.is_empty())
    }

    // ----- running -----------------------------------------------------------

    /// Run to quiescence; returns the run's statistics. Panics if a
    /// spilled object became unreadable — use [`Runtime::try_run`] to
    /// handle that as a typed error.
    pub fn run(&mut self) -> RunStats {
        self.try_run()
            .unwrap_or_else(|e| panic!("MRTS run failed: {e}"))
    }

    /// Like [`Runtime::run`], but surfaces unrecoverable storage failures
    /// (a spilled object unreadable after exhausting the retry policy)
    /// and, in debug builds, broken invariants as [`MrtsError`] instead of
    /// panicking.
    pub fn try_run(&mut self) -> Result<RunStats, MrtsError> {
        E::run(self)
    }

    /// The workers of one run, in node order, built alike for every
    /// gateway: each takes its node's core and id allocator, a compute
    /// backend from `backend` (the clock's) and the gateway `gate(node,
    /// store)`, and carries out what its core buffered since the last run
    /// before the run starts. The race detector, set on the wall clock
    /// only, watches every worker. [`Runtime::collect`] takes the cores
    /// back.
    pub(crate) fn workers<G: Gateway>(
        &mut self,
        registry: &Arc<Registry>,
        backend: impl Fn(&MrtsConfig) -> Box<dyn TaskBackend>,
        mut gate: impl FnMut(usize, &SharedStore) -> G,
    ) -> Vec<Worker<G>> {
        let cores = std::mem::take(&mut self.cores);
        (cores.into_iter().enumerate())
            .map(|(i, core)| {
                let (seq, gate) = (self.next_seq[i], gate(i, &self.stores[i]));
                #[allow(unused_mut)] // mutated only when auditing is compiled in
                let mut w = Worker::new(
                    &self.cfg,
                    registry.clone(),
                    core,
                    seq,
                    backend(&self.cfg),
                    gate,
                );
                #[cfg(any(feature = "audit", debug_assertions))]
                {
                    w.race = self.race.clone();
                }
                w.carry_out();
                w
            })
            .collect()
    }

    /// Take back what a run's workers hand over, in node order: each
    /// node's core, its id allocator's high mark, and its recorded
    /// decisions (to `decisions`). Returns the first node's fatal error.
    pub(crate) fn collect(
        &mut self,
        results: Vec<WorkerResult>,
        mut decisions: impl FnMut(NodeId, Vec<Decision>),
    ) -> Option<MrtsError> {
        let mut fatal = None;
        for r in results {
            debug_assert_eq!(r.node as usize, self.cores.len(), "results in node order");
            let seq = &mut self.next_seq[r.node as usize];
            *seq = (*seq).max(r.next_seq);
            self.cores.push(r.core);
            fatal = fatal.or(r.fatal);
            decisions(r.node, r.decisions);
        }
        fatal
    }

    // ----- results -----------------------------------------------------------

    /// The node that holds `oid`, else its home (where routing starts).
    pub(crate) fn locate(&self, oid: ObjectId) -> NodeId {
        let holder = self.cores.iter().position(|c| c.holds(oid));
        holder.unwrap_or_else(|| home_of(oid, self.cores.len())) as NodeId
    }

    /// Visit an object wherever it is. A spilled object is read from its
    /// node's store, decoded, visited and dropped. Panics if it is
    /// unreadable; see [`Runtime::try_with_object`].
    pub fn with_object<R>(&self, ptr: MobilePtr, f: impl FnOnce(&dyn MobileObject) -> R) -> R {
        self.try_with_object(ptr, f)
            .unwrap_or_else(|e| panic!("MRTS result extraction failed: {e}"))
    }

    /// [`Runtime::with_object`], surfacing a spilled object that stays
    /// unreadable under the engines' retry policy as
    /// [`MrtsError::LoadFailed`].
    pub fn try_with_object<R>(
        &self,
        ptr: MobilePtr,
        f: impl FnOnce(&dyn MobileObject) -> R,
    ) -> Result<R, MrtsError> {
        let node = self.locate(ptr.id);
        let e = (self.cores[node as usize].table.get(&ptr.id))
            .filter(|e| !matches!(e.state, State::Moved(_)))
            .unwrap_or_else(|| panic!("no object {:?}", ptr.id));
        match &e.state {
            State::InCore(obj) => Ok(f(obj.as_ref())),
            State::OnDisk | State::Loading => {
                let key = e.spill_key.expect("spilled object has a key");
                let obj = read_spilled(&self.stores, &self.registry, node, ptr.id, key)?;
                Ok(f(obj.as_ref()))
            }
            State::Executing | State::Moved(_) => unreachable!("no handler runs at quiescence"),
        }
    }

    /// Visit every live object (arbitrary order). Spilled objects stream
    /// through: `io_threads` readers load and decode ahead of the visit,
    /// each holding one object, so at most `io_threads + 1` decoded
    /// spilled objects exist at any time. Panics if one is unreadable; see
    /// [`Runtime::try_for_each_object`].
    pub fn for_each_object(&self, f: impl FnMut(ObjectId, &dyn MobileObject)) {
        self.try_for_each_object(f)
            .unwrap_or_else(|e| panic!("MRTS result extraction failed: {e}"))
    }

    /// [`Runtime::for_each_object`], stopping at the first spilled object
    /// that stays unreadable ([`MrtsError::LoadFailed`]).
    pub fn try_for_each_object(
        &self,
        mut f: impl FnMut(ObjectId, &dyn MobileObject),
    ) -> Result<(), MrtsError> {
        let mut spilled = Vec::new();
        for (node, core) in self.cores.iter().enumerate() {
            for (&oid, e) in &core.table {
                match &e.state {
                    State::InCore(obj) => f(oid, obj.as_ref()),
                    State::OnDisk | State::Loading => {
                        let key = e.spill_key.expect("spilled object has a key");
                        spilled.push((oid, node as NodeId, key));
                    }
                    State::Moved(_) => {}
                    State::Executing => unreachable!("no handler runs at quiescence"),
                }
            }
        }
        let readers = self.cfg.io_threads.min(spilled.len());
        let (stores, registry) = (&self.stores, &self.registry);
        // A rendezvous channel: a reader that has decoded its object waits
        // for the visitor before it reads the next.
        let (tx, rx) = std::sync::mpsc::sync_channel(0);
        std::thread::scope(|scope| {
            for r in 0..readers {
                let (tx, spilled) = (tx.clone(), &spilled);
                scope.spawn(move || {
                    for &(oid, node, key) in spilled.iter().skip(r).step_by(readers) {
                        let obj = read_spilled(stores, registry, node, oid, key);
                        if tx.send((oid, obj)).is_err() {
                            break; // the visit stopped at an error
                        }
                    }
                });
            }
            drop(tx);
            for (oid, obj) in rx {
                f(oid, obj?.as_ref());
            }
            Ok(())
        })
    }

    /// Number of live objects across all nodes.
    pub fn num_objects(&self) -> usize {
        let live = |e: &&Entry| !matches!(e.state, State::Moved(_));
        self.cores
            .iter()
            .map(|c| c.table.values().filter(live).count())
            .sum()
    }

    // ----- checkpoint ---------------------------------------------------------

    /// Capture all live application state: every object's placement, id,
    /// priority, pin, packed bytes and queued messages, sorted by object
    /// id so two captures of the same state encode identically, plus the
    /// id allocators. A spilled object's bytes are copied from its store,
    /// not decoded and packed again. Must be called at quiescence (after a
    /// run returns, or before one when no boot action left buffered
    /// work); panics if a spilled object stays unreadable.
    pub fn checkpoint(&self) -> Checkpoint {
        assert!(
            self.quiescent(),
            "checkpoint requires quiescence (run() completed)"
        );
        let mut objects = Vec::new();
        for (node, core) in self.cores.iter().enumerate() {
            let node = node as NodeId;
            for (&oid, e) in &core.table {
                let packed = match &e.state {
                    State::InCore(obj) => Registry::pack(obj.as_ref()),
                    State::OnDisk | State::Loading => {
                        let key = e.spill_key.expect("spilled object has a key");
                        (load_packed(&self.stores, node, oid, key))
                            .unwrap_or_else(|e| panic!("MRTS checkpoint failed: {e}"))
                    }
                    State::Moved(_) => continue,
                    State::Executing => unreachable!("no handler runs at quiescence"),
                };
                objects.push(CheckpointEntry {
                    node,
                    oid,
                    priority: e.priority,
                    locked: e.locked,
                    packed,
                    queued: e.queue.iter().cloned().collect(),
                });
            }
        }
        objects.sort_unstable_by_key(|e| e.oid.0);
        Checkpoint {
            objects,
            next_seq: self.next_seq.clone(),
        }
    }
}
