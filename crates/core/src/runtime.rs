//! The one public runtime API, over either clock.
//!
//! [`Runtime<E>`] is MRTS as an application sees it: register types and
//! handlers, create mobile objects, pin them, post messages, run to
//! quiescence, read the results back, checkpoint and restore. All of that
//! is written once, here. The engine `E` supplies the clock and nothing
//! else — [`crate::des::Des`] (virtual time, one host thread) or
//! [`crate::threaded::Threads`] (wall time, one OS thread per node) —
//! through a small sealed hook set:
//!
//! * **how a boot action lands** (object creation, pin, post): the
//!   virtual-time engine applies it to its node cores at once, with
//!   admission; the threaded engine queues it for the next run, whose
//!   workers apply it before they start, without admission;
//! * **how it runs**: [`Runtime::try_run`] hands the runtime to the engine;
//! * **whether it is quiescent**, so [`Runtime::checkpoint`] can refuse a
//!   capture that would miss pending work.
//!
//! Everything else is shared state both engines maintain the same way: one
//! `NodeCore` per node (after a run, its object table says where every
//! object is — resident, or the spill key it sits under — with its
//! priority, pin and queued messages), one spill store per node behind a
//! lock (so reads take `&self`), and the per-node object-id allocators.
//! Engine-only extras stay inherent on the concrete aliases
//! ([`crate::des::DesRuntime`], [`crate::threaded::ThreadedRuntime`]).

use crate::checkpoint::{Checkpoint, CheckpointEntry};
use crate::config::MrtsConfig;
use crate::fault::MrtsError;
use crate::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use crate::msg::Message;
use crate::node::{Entry, NodeCore, State};
use crate::object::{DecodeFn, HandlerFn, MobileObject, Registry};
use crate::spill_io::SharedStore;
use crate::stats::RunStats;

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
        /// The engine's own state, plus the per-node spill stores it
        /// starts with (it may replace them per run).
        fn new(cfg: &MrtsConfig) -> (Self, Vec<SharedStore>);
        /// Apply (or queue) one bootstrap action.
        fn boot(rt: &mut Runtime<Self>, action: Boot);
        /// Run to quiescence.
        fn run(rt: &mut Runtime<Self>) -> Result<RunStats, MrtsError>;
        /// No work is pending that a checkpoint would miss.
        fn quiescent(rt: &Runtime<Self>) -> bool;
    }

    /// A bootstrap action, issued before (or between) runs.
    pub enum Boot {
        /// Place object `id` on `node`. When `node` is not the id's home
        /// (a checkpoint restored it elsewhere), the home core's directory
        /// learns where it went, so routing from the home finds it.
        Create {
            node: NodeId,
            id: ObjectId,
            obj: Box<dyn MobileObject>,
            priority: u8,
            locked: bool,
        },
        Lock(MobilePtr),
        Post(Message),
    }
}

pub(crate) use hooks::Boot;

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
    pub(crate) audit: Option<std::sync::Arc<dyn crate::audit::EventSink>>,
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
    pub fn attach_audit(&mut self, sink: std::sync::Arc<dyn crate::audit::EventSink>) {
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
    /// is the next one of `node`'s allocator.
    pub fn create_object(
        &mut self,
        node: NodeId,
        obj: Box<dyn MobileObject>,
        priority: u8,
    ) -> MobilePtr {
        let seq = &mut self.next_seq[node as usize];
        let id = ObjectId::new(node, *seq);
        *seq += 1;
        E::boot(
            self,
            Boot::Create {
                node,
                id,
                obj,
                priority,
                locked: false,
            },
        );
        MobilePtr::new(id)
    }

    /// Pin an object in memory before the run.
    pub fn lock_object(&mut self, ptr: MobilePtr) {
        E::boot(self, Boot::Lock(ptr));
    }

    /// Post an initial message (delivered when the run starts, or "now"
    /// between the runs of a multi-phase virtual-time driver).
    pub fn post(&mut self, to: MobilePtr, handler: HandlerId, payload: Vec<u8>) {
        E::boot(self, Boot::Post(Message::new(to, handler, payload)));
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
    /// not decoded and packed again. Must be called at quiescence (before
    /// the first run of a virtual-time runtime, or after a run returns);
    /// panics if a spilled object stays unreadable.
    pub fn checkpoint(&self) -> Checkpoint {
        assert!(
            E::quiescent(self),
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
