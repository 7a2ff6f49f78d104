//! Handler context: the API a message handler sees.
//!
//! Handlers interact with the runtime exclusively through [`Ctx`]: sending
//! messages, creating mobile objects, locking/prioritizing them, and
//! spawning parallel child tasks. Every mutation is recorded as an
//! [`Effect`] and applied by the engine *after* the handler returns — this
//! keeps handlers pure with respect to the runtime state, makes the
//! discrete-event and threaded executions share one semantics, and matches
//! the paper's "post messages, don't call" programming model.

use crate::compute::{ParallelReport, Task, TaskBackend};
use crate::ids::{HandlerId, MobilePtr, NodeId, ObjectId};
use crate::object::MobileObject;

/// A runtime mutation requested by a handler.
pub enum Effect {
    /// Post a message. A local send is queued like any other and runs in
    /// a later turn of the target's node: there is no direct call.
    Send {
        to: MobilePtr,
        handler: HandlerId,
        payload: Vec<u8>,
    },
    /// Create a new mobile object on this node.
    Create {
        id: ObjectId,
        obj: Box<dyn MobileObject>,
        priority: u8,
    },
    /// Pin an object in memory (it will not be swapped out).
    Lock(MobilePtr),
    /// Release a pin.
    Unlock(MobilePtr),
    /// Swapping-priority hint (higher = keep in-core longer).
    SetPriority(MobilePtr, u8),
    /// Move an object to another node.
    Migrate(MobilePtr, NodeId),
}

impl std::fmt::Debug for Effect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Effect::Send {
                to,
                handler,
                payload,
            } => write!(f, "Send({to:?}, {handler:?}, {}B)", payload.len()),
            Effect::Create { id, priority, .. } => write!(f, "Create({id:?}, prio={priority})"),
            Effect::Lock(p) => write!(f, "Lock({p:?})"),
            Effect::Unlock(p) => write!(f, "Unlock({p:?})"),
            Effect::SetPriority(p, v) => write!(f, "SetPriority({p:?}, {v})"),
            Effect::Migrate(p, n) => write!(f, "Migrate({p:?} -> node {n})"),
        }
    }
}

/// The context passed to every message handler invocation.
pub struct Ctx<'a> {
    node: NodeId,
    self_ptr: MobilePtr,
    src_node: NodeId,
    next_seq: &'a mut u64,
    backend: &'a mut dyn TaskBackend,
    pub(crate) effects: Vec<Effect>,
    pub(crate) parallel_reports: Vec<ParallelReport>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        node: NodeId,
        self_ptr: MobilePtr,
        src_node: NodeId,
        next_seq: &'a mut u64,
        backend: &'a mut dyn TaskBackend,
    ) -> Self {
        Ctx {
            node,
            self_ptr,
            src_node,
            next_seq,
            backend,
            effects: Vec::new(),
            parallel_reports: Vec::new(),
        }
    }

    /// The node this handler is executing on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Mobile pointer of the object this handler was delivered to.
    pub fn self_ptr(&self) -> MobilePtr {
        self.self_ptr
    }

    /// Node that sent the message being handled.
    pub fn src_node(&self) -> NodeId {
        self.src_node
    }

    /// Post a message to a mobile object (local, remote, or out-of-core —
    /// the runtime routes it).
    pub fn send(&mut self, to: MobilePtr, handler: HandlerId, payload: Vec<u8>) {
        self.effects.push(Effect::Send {
            to,
            handler,
            payload,
        });
    }

    /// Create a new mobile object on this node; the returned pointer is
    /// valid immediately (messages may be sent to it in the same handler).
    pub fn create(&mut self, obj: Box<dyn MobileObject>) -> MobilePtr {
        self.create_with_priority(obj, 128)
    }

    /// [`Ctx::create`] with an explicit swapping priority.
    pub fn create_with_priority(&mut self, obj: Box<dyn MobileObject>, priority: u8) -> MobilePtr {
        let id = ObjectId::new(self.node, *self.next_seq);
        *self.next_seq += 1;
        let ptr = MobilePtr::new(id);
        self.effects.push(Effect::Create { id, obj, priority });
        ptr
    }

    /// Pin an object in memory.
    pub fn lock(&mut self, p: MobilePtr) {
        self.effects.push(Effect::Lock(p));
    }

    /// Unpin an object.
    pub fn unlock(&mut self, p: MobilePtr) {
        self.effects.push(Effect::Unlock(p));
    }

    /// Hint the out-of-core layer about an object's importance.
    pub fn set_priority(&mut self, p: MobilePtr, priority: u8) {
        self.effects.push(Effect::SetPriority(p, priority));
    }

    /// Request migration of an object to another node.
    pub fn migrate(&mut self, p: MobilePtr, to: NodeId) {
        self.effects.push(Effect::Migrate(p, to));
    }

    /// Run child tasks through the computing layer, blocking until all
    /// complete. In the threaded mode this executes on the node's pool
    /// (work-stealing or FIFO); in the virtual-time mode the tasks run
    /// serially while being measured, and the engine charges the modeled
    /// parallel makespan.
    pub fn run_tasks(&mut self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        let report = self.backend.run_parallel(tasks);
        self.parallel_reports.push(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::SequentialBackend;
    use crate::ids::ObjectId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn test_ctx<'a>(next_seq: &'a mut u64, backend: &'a mut SequentialBackend) -> Ctx<'a> {
        Ctx::new(3, MobilePtr::new(ObjectId::new(3, 0)), 1, next_seq, backend)
    }

    #[test]
    fn create_allocates_sequential_ids_on_this_node() {
        let mut seq = 10;
        let mut backend = SequentialBackend;
        let mut ctx = test_ctx(&mut seq, &mut backend);
        let obj = Box::new(crate::object::test_objects::Counter::new(0, 0));
        let p1 = ctx.create(obj);
        let obj = Box::new(crate::object::test_objects::Counter::new(0, 0));
        let p2 = ctx.create(obj);
        assert_eq!(p1.id, ObjectId::new(3, 10));
        assert_eq!(p2.id, ObjectId::new(3, 11));
        assert_eq!(ctx.effects.len(), 2);
        drop(ctx);
        assert_eq!(seq, 12);
    }

    #[test]
    fn effects_are_recorded_in_order() {
        let mut seq = 0;
        let mut backend = SequentialBackend;
        let mut ctx = test_ctx(&mut seq, &mut backend);
        let p = MobilePtr::new(ObjectId::new(0, 5));
        ctx.send(p, HandlerId(1), vec![1]);
        ctx.lock(p);
        ctx.set_priority(p, 200);
        ctx.unlock(p);
        let kinds: Vec<&str> = ctx
            .effects
            .iter()
            .map(|e| match e {
                Effect::Send { .. } => "send",
                Effect::Lock(_) => "lock",
                Effect::Unlock(_) => "unlock",
                Effect::SetPriority(..) => "prio",
                _ => "?",
            })
            .collect();
        assert_eq!(kinds, vec!["send", "lock", "prio", "unlock"]);
    }

    #[test]
    fn run_tasks_executes_and_reports() {
        let mut seq = 0;
        let mut backend = SequentialBackend;
        let mut ctx = test_ctx(&mut seq, &mut backend);
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Task> = (0..5)
            .map(|_| {
                let c = counter.clone();
                let t: Task = Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
                t
            })
            .collect();
        ctx.run_tasks(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(ctx.parallel_reports.len(), 1);
        assert_eq!(ctx.parallel_reports[0].durations.len(), 5);
        // Empty batch records nothing.
        ctx.run_tasks(vec![]);
        assert_eq!(ctx.parallel_reports.len(), 1);
    }
}
