//! The virtual clock: every node's worker, stepped in virtual-time order
//! by one thread, with handlers running on helper threads.
//!
//! This engine runs the same worker loop as the live one (`worker.rs`):
//! handlers run, objects serialize, frames are encoded and decoded, Safra's
//! token circles, the reliable layer acks, retransmits and dedups. Only
//! time is simulated, behind each worker's gateway:
//!
//! * **the fabric** delivers a frame at `now + NetModel::transfer_time`,
//!   first in, first out per edge. A net-fault plan acts on each frame as
//!   it does live, so drops, duplicates, delays, kills and give-ups run
//!   for real, in exact time. A retransmit timer fires only for a frame
//!   that is lost: no copy of it or ack of it is still on the fabric.
//!   Under [`MrtsConfig::deterministic_compute`] recovery costs no
//!   virtual time, as for the disk: a lost frame is resent at once and
//!   every copy lands in the slot of its fault-free delivery, so a
//!   net-chaos run's data frames keep the fault-free schedule;
//! * **the disk**: a store, load or probe runs the node's spill executor
//!   (`spill_io.rs`) when it is issued and occupies the earliest-free of
//!   the node's `io_threads` virtual channels for `DiskModel::op_time` per
//!   attempt plus the waits it met; its completion arrives at the end;
//! * **compute**: a handler advances its node's clock by a synthetic
//!   size-proportional cost under [`MrtsConfig::deterministic_compute`],
//!   else by its measured wall time × `compute_scale`, child-task batches
//!   charged their modeled parallel makespan
//!   ([`crate::compute::ExecutorKind::makespan`]). Pack and unpack are
//!   charged the same way, to the node's compute;
//! * **waiting**: an idle worker sleeps until its next frame, completion
//!   or reliable-layer timer; one that steals (or has loads queued) also
//!   wakes every `POLL_WAIT`, so its empty polls count as they do live.
//!
//! One event heap holds every arrival and wake-up. Same-time ties break in
//! creation order, or in a seeded permutation of it
//! ([`DesRuntime::set_schedule_seed`]): an event's key is where it was
//! created — the pop index of the event being handled and its rank among
//! that event's pushes — so a push has the same key whenever it physically
//! happens.
//!
//! **Handlers on real cores.** Under `deterministic_compute` without a
//! net-fault plan a handler's charge is known before it runs, and its
//! effects reach no other node before its end, `start + charge`. So it
//! runs on a helper thread while the node's clock and next turn move to
//! the end; it *lands* (effects carried out under the push context it left
//! in) just before the first event at or after its end, and other nodes
//! run meanwhile. The pop order, so every result, is that of running in
//! place. Net-fault runs run in place: a landing node's sends would move
//! the frame maps other nodes' loss checks read. The helpers are a fifo
//! `compute::Pool`, the pool type of the live engine and the computing
//! layer; while a landing waits for its handler, the stepping thread runs
//! queued handlers itself.
//!
//! Virtual time persists from one run to the next, as the runtime's cores
//! and stores do. The reported quantities (per-PE speed, overheads,
//! comp/comm/disk shares, overlap) have the meaning of the paper's cluster
//! measurements — the substitution required because this reproduction
//! runs on a small host (see DESIGN.md).

use crate::compute::{ParallelReport, Pool, SequentialBackend, TaskBackend};
use crate::config::{MrtsConfig, NetModel};
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::object::Registry;
use crate::replay::Decision;
use crate::runtime::{hooks::Hooks, Engine, Runtime};
use crate::spill_io::{open_stores, BufferPool, SharedStore};
use crate::stats::{NodeStats, RunStats};
use crate::worker::{Due, Gateway, IoDone, IoReq, Job, NetLayer, Ran, Recv, Wire, Worker};
use armci_sim::ActiveMessage;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::resume_unwind;
#[cfg(test)]
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[cfg(test)]
mod tests;

/// The virtual-time MRTS runtime: [`Runtime`] on the [`Des`] engine.
pub type DesRuntime = Runtime<Des>;

/// A reliable frame: `(src, dest, seq)`.
type Key = (NodeId, NodeId, u64);

/// A handed-off handler that ran, or the panic it ended in.
type Landed = std::thread::Result<Ran>;

/// What reaches a node at an event.
enum Arrival {
    Frame(ActiveMessage),
    Done(IoDone),
    /// Its worker's turn.
    Wake,
}

/// Where an event was created: the pop index of the event being handled
/// (0 before the first pop) and its rank among that event's pushes.
type Origin = (u64, u32);

struct Event {
    at: Duration,
    /// Same-time tie-break: the seeded permutation of `origin` (0 without
    /// a seed), then `origin` itself, which no other event shares.
    key: (u64, Origin),
    node: NodeId,
    what: Arrival,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
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
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// The virtual cluster every node's gateway shares.
struct World {
    events: BinaryHeap<Reverse<Event>>,
    /// Events popped so far.
    pops: u64,
    /// The origin of the next push.
    origin: Origin,
    schedule_seed: Option<u64>,
    /// Per node: its worker's clock.
    clock: Vec<Duration>,
    /// Per node: the time of its next scheduled turn.
    wake: Vec<Option<Duration>>,
    /// Per node: frames and completions that arrived, not yet read.
    frames: Vec<VecDeque<ActiveMessage>>,
    done: Vec<VecDeque<IoDone>>,
    /// Per node: earliest-free time of each virtual disk channel.
    disk_free: Vec<Vec<Duration>>,
    /// Latest arrival per directed edge: the fabric is FIFO per edge.
    edge: HashMap<(NodeId, NodeId), Duration>,
    /// Net-fault runs: per reliable frame `(src, dest, seq)`, its copies
    /// and acks on the fabric or unread at their receiver. A frame with
    /// none (and no deferred copy at its sender) is lost.
    on_wire: HashMap<Key, u32>,
    /// Deterministic net-fault runs: the arrival its fault-free delivery
    /// would have, per reliable frame not yet read.
    slot: HashMap<Key, Duration>,
    /// Per node: killed by the net-fault plan.
    dead: Vec<bool>,
    /// Handlers handed off to helper threads, one per node at most: each
    /// lands before the first event at or after its `end`, and its pushes
    /// go on from its `origin`.
    flights: Vec<(Duration, NodeId, Origin)>,
}

impl World {
    fn new(n: usize, start: Duration, io_threads: usize, schedule_seed: Option<u64>) -> World {
        World {
            events: BinaryHeap::new(),
            pops: 0,
            origin: (0, 0),
            schedule_seed,
            clock: vec![start; n],
            wake: vec![None; n],
            frames: (0..n).map(|_| VecDeque::new()).collect(),
            done: (0..n).map(|_| VecDeque::new()).collect(),
            disk_free: vec![vec![start; io_threads]; n],
            edge: HashMap::new(),
            on_wire: HashMap::new(),
            slot: HashMap::new(),
            dead: vec![false; n],
            flights: Vec::new(),
        }
    }

    fn push(&mut self, at: Duration, node: NodeId, what: Arrival) {
        let origin = self.origin;
        self.origin.1 += 1;
        // A bijection of the packed origin: a seed only reshuffles ties,
        // and the origin breaks the rare collision of the packing.
        let packed = origin.0 << 32 | u64::from(origin.1);
        let tie = self
            .schedule_seed
            .map_or(0, |s| crate::audit::mix64(s ^ packed));
        self.events.push(Reverse(Event {
            at,
            key: (tie, origin),
            node,
            what,
        }));
    }

    /// The next event; what handling it pushes gets a fresh origin.
    fn pop(&mut self) -> Option<Event> {
        self.pops += 1;
        self.origin = (self.pops, 0);
        self.events.pop().map(|Reverse(ev)| ev)
    }

    /// The handed-off handler to land before the next event: the earliest
    /// ending, if it ends at or before that event (or no event is left).
    fn landing(&mut self) -> Option<(Duration, NodeId, Origin)> {
        let (k, &(end, ..)) = self.flights.iter().enumerate().min_by_key(|&(_, f)| f)?;
        let next = self.events.peek().map(|Reverse(ev)| ev.at);
        next.is_none_or(|at| end <= at)
            .then(|| self.flights.swap_remove(k))
    }

    /// Give `node` a turn at `at` (or when its clock gets there), unless
    /// it has one sooner.
    fn wake_at(&mut self, node: NodeId, at: Duration) {
        let at = at.max(self.clock[node as usize]);
        let slot = &mut self.wake[node as usize];
        if slot.is_none_or(|w| at < w) {
            *slot = Some(at);
            self.push(at, node, Arrival::Wake);
        }
    }

    /// When a frame `src` sends now over `bytes` reaches `dest`: after
    /// the transfer, and never at or before the frame sent ahead of it on
    /// this edge, so no tie-break permutation can reorder the two.
    fn arrival(&mut self, src: NodeId, dest: NodeId, bytes: usize, net: &NetModel) -> Duration {
        let mut at = self.clock[src as usize];
        if dest != src {
            at += net.transfer_time(bytes);
        }
        let last = self.edge.entry((src, dest)).or_default();
        at = at.max(*last + Duration::from_nanos(1));
        *last = at;
        at
    }

    /// Where the run ended: a worker drains its I/O before it stops, so
    /// the latest clock is past every disk channel's work.
    fn end(&self) -> Duration {
        self.clock.iter().copied().max().unwrap_or_default()
    }
}

/// A worker's gateway in virtual time (see the module docs).
struct Sim {
    node: NodeId,
    world: Rc<RefCell<World>>,
    store: SharedStore,
    registry: Arc<Registry>,
    /// Pack and load buffers. One operation runs at a time, but a batch
    /// of n objects draws n buffers; the pool keeps one of them for the
    /// next operation. (Keeping eight or more raises `pcdm_des8`'s
    /// resident set ~8 % for ~12 % more pool hits.)
    pool: BufferPool,
    cfg: MrtsConfig,
    /// The run's helper threads, when handlers may be handed off.
    helpers: Option<Rc<Pool>>,
    /// Where this node's handed-off handler sends what it ran.
    ran: (mpsc::Sender<Landed>, mpsc::Receiver<Landed>),
    /// The charge of this node's handler in flight, booked on its clock
    /// when it was handed off.
    prepaid: Option<Duration>,
}

impl Sim {
    /// The reliable frame a frame from `src` to `dest` belongs to on a
    /// net-fault run, and whether it is a copy of it (else its ack).
    fn wire(&self, src: NodeId, dest: NodeId, tag: u32, payload: &[u8]) -> Option<(Key, bool)> {
        if self.cfg.net_fault.is_none() || src == dest {
            return None;
        }
        match Wire::of(tag, payload) {
            Wire::Data(seq) => Some(((src, dest, seq), true)),
            Wire::Ack(seq) => Some(((dest, src, seq), false)),
            Wire::Ring => None,
        }
    }

    /// Frame `seq` to `dest` is lost: no copy of it waits at this node,
    /// travels, or sits unread at `dest`, and no ack of it is on its way.
    fn lost(&self, world: &World, net: &NetLayer, dest: NodeId, seq: u64) -> bool {
        net.deferred_at(dest, seq).is_none() && !world.on_wire.contains_key(&(self.node, dest, seq))
    }

    /// Compute charge for work measured at `wall` over `bytes` bytes.
    fn cost(&self, wall: Duration, bytes: usize) -> Duration {
        if self.cfg.deterministic_compute {
            Duration::from_nanos(1_000 + bytes as u64)
        } else {
            wall.mul_f64(self.cfg.compute_scale)
        }
    }

    /// This node's handed-off handler, run. Until it is, the stepping
    /// thread runs queued handlers itself; a helper's panic is resumed.
    fn landed(&self) -> Ran {
        let helpers = self.helpers.as_ref().expect("only helpers take handlers");
        let ran = loop {
            if let Ok(ran) = self.ran.1.try_recv() {
                break ran;
            }
            // Nothing is queued, so a helper runs it.
            if !helpers.run_queued() {
                break self.ran.1.recv().expect("the gateway holds a sender");
            }
        };
        ran.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// Put an operation over `bytes` on the earliest-free disk channel
    /// from now — one disk op, plus one per retried attempt and the waits
    /// it met — and deliver its completion at the end. Under
    /// [`MrtsConfig::deterministic_compute`] the faults cost nothing: a
    /// storage-chaos run keeps the schedule of its fault-free twin, so
    /// its results are byte-identical by construction (faults still count
    /// in the stats and the audit stream).
    fn complete(&self, mut done: IoDone, bytes: usize) {
        let report = match &mut done {
            IoDone::Stored(s) => &mut s.report,
            IoDone::Loaded(l) => &mut l.report,
            IoDone::Probed(r, _) => r,
        };
        let op = self.cfg.disk.op_time(bytes);
        report.io_dur = match self.cfg.deterministic_compute {
            true => op,
            false => op * (report.retries + 1) + report.waited,
        };
        let dur = report.io_dur;
        let mut w = self.world.borrow_mut();
        let now = w.clock[self.node as usize];
        let channels = &mut w.disk_free[self.node as usize];
        let ch = (channels.iter().enumerate())
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            .expect("a node has at least one disk channel");
        let end = now.max(channels[ch]) + dur;
        channels[ch] = end;
        w.push(end, self.node, Arrival::Done(done));
    }
}

impl Gateway for Sim {
    fn now(&self) -> Duration {
        self.world.borrow().clock[self.node as usize]
    }

    fn fabric(&mut self, _idle: bool) -> Recv {
        let mut w = self.world.borrow_mut();
        let Some(am) = w.frames[self.node as usize].pop_front() else {
            return Recv::Empty;
        };
        if let Some((key, data)) = self.wire(am.src, self.node, am.handler, &am.payload) {
            if let Some(n) = w.on_wire.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    w.on_wire.remove(&key);
                }
            }
            if data {
                w.slot.remove(&key);
                if w.dead[self.node as usize] {
                    // Discarded unacked: the sender's timer may fire now.
                    let now = w.clock[self.node as usize];
                    w.wake_at(am.src, now);
                }
            }
        }
        Recv::Frame(am)
    }

    /// A copy of a reliable frame lands in its fault-free slot while that
    /// is still ahead (deterministic runs: recovery took no time).
    fn send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        let wire = self.wire(self.node, dest, tag, &payload);
        let mut w = self.world.borrow_mut();
        let now = w.clock[self.node as usize];
        let slot = wire.and_then(|(key, _)| w.slot.get(&key).copied());
        let at = match slot {
            Some(at) if at > now => at,
            _ => w.arrival(self.node, dest, payload.len(), &self.cfg.net),
        };
        if let Some((key, data)) = wire {
            // A copy to a dead node is lost on arrival.
            if !(data && w.dead[dest as usize]) {
                *w.on_wire.entry(key).or_default() += 1;
            }
        }
        let am = ActiveMessage {
            src: self.node,
            handler: tag,
            payload,
        };
        w.push(at, dest, Arrival::Frame(am));
    }

    fn io(&mut self, _blocking: bool) -> Option<IoDone> {
        self.world.borrow_mut().done[self.node as usize].pop_front()
    }

    /// The request runs now; pack and unpack are charged as compute.
    fn submit(&mut self, req: IoReq) {
        let mut done = req.run(&self.store, &self.pool, &self.registry);
        let (codec, bytes) = match &mut done {
            IoDone::Stored(s) => (&mut s.pack_dur, s.packed.iter().map(|&(_, n)| n).sum()),
            IoDone::Loaded(l) => (&mut l.unpack_dur, l.outcome.as_ref().map_or(0, |o| o.1)),
            IoDone::Probed(..) => return self.complete(done, 0),
        };
        *codec = self.cost(*codec, bytes);
        self.complete(done, bytes);
    }

    /// Under [`MrtsConfig::deterministic_compute`] recovery costs no
    /// virtual time: a deferred frame goes out, and a lost frame is
    /// resent, at once. Otherwise each waits for its deadline.
    fn due(&mut self, net: &NetLayer) -> Vec<Due> {
        let (now, free) = (self.now(), self.cfg.deterministic_compute);
        let w = self.world.borrow();
        net.due_where(|t| free || t <= now, |d, s| self.lost(&w, net, d, s))
    }

    fn next_due(&self, net: &NetLayer) -> Option<Duration> {
        let w = self.world.borrow();
        let next = net.next_deadline(|d, s| self.lost(&w, net, d, s));
        match self.cfg.deterministic_compute {
            true => next.map(|_| w.clock[self.node as usize]),
            false => next,
        }
    }

    /// Deterministic runs: reserve the arrival the frame's fault-free
    /// delivery has, which every copy of it takes.
    fn sent(&mut self, dest: NodeId, seq: u64, bytes: usize) {
        if self.cfg.deterministic_compute && dest != self.node {
            let mut w = self.world.borrow_mut();
            let at = w.arrival(self.node, dest, bytes, &self.cfg.net);
            w.slot.insert((self.node, dest, seq), at);
        }
    }

    /// With helpers, the charge is known up front: the clock moves to the
    /// handler's end now, the node's next turn is reserved there, and the
    /// handler runs on a helper until it lands (see the module docs).
    fn execute(&mut self, job: Job, backend: &mut dyn TaskBackend) -> Option<Ran> {
        let Some(helpers) = &self.helpers else {
            return Some(job.run(backend));
        };
        let cost = self.cost(Duration::ZERO, job.bytes());
        let (i, mut w) = (self.node as usize, self.world.borrow_mut());
        w.clock[i] += cost;
        let (end, origin) = (w.clock[i], w.origin);
        w.wake[i] = Some(end);
        w.flights.push((end, self.node, origin));
        self.prepaid = Some(cost);
        helpers.submit(move || job.run(&mut SequentialBackend), self.ran.0.clone());
        None
    }

    /// The handler's cost, added to the node's clock (at hand-off, for a
    /// handler that ran on a helper).
    fn charge(&mut self, wall: Duration, bytes: usize, tasks: &[ParallelReport]) -> Duration {
        if let Some(cost) = self.prepaid.take() {
            return cost;
        }
        let cost = if self.cfg.deterministic_compute || tasks.is_empty() {
            self.cost(wall, bytes)
        } else {
            // Measured serial time outside parallel sections, plus each
            // section's modeled makespan on this node's cores.
            let (executor, cores) = (self.cfg.executor, self.cfg.cores_per_node);
            let serial = wall.saturating_sub(tasks.iter().map(|r| r.wall).sum());
            let sections = tasks.iter().map(|r| executor.makespan(&r.durations, cores));
            (serial + sections.sum::<Duration>()).mul_f64(self.cfg.compute_scale)
        };
        self.world.borrow_mut().clock[self.node as usize] += cost;
        cost
    }

    fn finish(&mut self, _stats: &mut NodeStats, crashed: bool) -> Vec<Decision> {
        if crashed {
            self.world.borrow_mut().dead[self.node as usize] = true;
        }
        Vec::new()
    }
}

/// The virtual-time engine's state between runs. See the module docs.
pub struct Des {
    /// Where the last run ended: the next one starts there.
    now: Duration,
    /// When set, same-timestamp event tie-breaks are permuted through a
    /// seeded bijection (see [`DesRuntime::set_schedule_seed`]).
    schedule_seed: Option<u64>,
}

impl Engine for Des {}

impl Hooks for Des {
    fn new(cfg: &MrtsConfig) -> (Self, Vec<SharedStore>) {
        let engine = Des {
            now: Duration::ZERO,
            schedule_seed: None,
        };
        (engine, open_stores(cfg, false))
    }

    fn run(rt: &mut DesRuntime) -> Result<RunStats, MrtsError> {
        rt.run_virtual()
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

    /// Run every node's worker in virtual time (see [`step_all`]), handing
    /// handlers off to helper threads when their charge is known up front.
    fn run_virtual(&mut self) -> Result<RunStats, MrtsError> {
        let n = self.cfg.nodes;
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let (start, seed) = (self.engine.now, self.engine.schedule_seed);
        let world = World::new(n, start, self.cfg.io_threads, seed);
        let world = Rc::new(RefCell::new(world));
        // 8 MiB stacks, a main thread's: what a handler run in place gets.
        // The last owner's drop, unwinding too, runs what is queued and
        // ends every helper.
        let count = helper_count(&self.cfg);
        let helpers = (count > 0).then(|| Rc::new(Pool::fifo(count, "mrts-des", Some(8 << 20))));
        let cfg = self.cfg.clone();
        let sim = |i: usize, store: &SharedStore| Sim {
            node: i as NodeId,
            world: world.clone(),
            store: store.clone(),
            registry: registry.clone(),
            pool: BufferPool::new(1),
            cfg: cfg.clone(),
            helpers: helpers.clone(),
            ran: mpsc::channel(),
            prepaid: None,
        };
        let workers = self.workers(&registry, |_| Box::new(SequentialBackend), sim);
        let results = step_all(&world, workers);
        let end = world.borrow().end();
        self.engine.now = end;
        self.registry =
            Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
        if let Some(err) = self.collect(results, |_, _| {}) {
            return Err(err);
        }
        let nodes = (self.cores.iter())
            .map(|c| NodeStats {
                // Virtual-time idleness: the makespan minus this node's
                // compute — the span it waited on the disk, the network,
                // or a phase's stragglers.
                idle: end.saturating_sub(c.stats.comp),
                ..c.stats.clone()
            })
            .collect();
        Ok(RunStats {
            total: end,
            nodes,
            // Per-resource virtual clocks: `overlap_pct` reports the
            // busy-time excess, not handler time with I/O in flight.
            measured_overlap: false,
        })
    }
}

/// Step every node's worker in virtual-time order until all have stopped:
/// after Safra's termination, or once a failing node's exit reached
/// everyone. Before each event, every handed-off handler that ends at or
/// before it lands.
fn step_all(world: &RefCell<World>, workers: Vec<Worker<Sim>>) -> Vec<crate::worker::WorkerResult> {
    let n = workers.len();
    let mut workers: Vec<_> = workers.into_iter().map(Some).collect();
    // Every node's first turn, at its clock: the run's start.
    (0..n).for_each(|i| world.borrow_mut().wake_at(i as NodeId, Duration::ZERO));
    let mut results: Vec<_> = (0..n).map(|_| None).collect();
    let mut running = n;
    // (A closure, so that its borrow ends before a landing runs.)
    let landing = || world.borrow_mut().landing();
    while running > 0 {
        while let Some((_, node, origin)) = landing() {
            let i = node as usize;
            let mut w = world.borrow_mut();
            (w.origin, w.wake[i]) = (origin, None);
            drop(w);
            let w = workers[i].as_mut().expect("a running worker");
            let ran = w.gate.landed();
            w.land(ran);
            schedule(world, w);
        }
        let ev = world.borrow_mut().pop();
        let ev = ev.unwrap_or_else(|| {
            panic!("virtual-time run stalled: {running} workers wait on nothing scheduled")
        });
        let i = ev.node as usize;
        let Some(w) = workers[i].as_mut() else {
            continue; // it stopped; what still arrives is dropped
        };
        let turn = {
            let mut world = world.borrow_mut();
            match ev.what {
                // An arrival wakes its worker (now, or when its clock
                // gets there).
                Arrival::Frame(am) => {
                    world.frames[i].push_back(am);
                    world.wake_at(ev.node, ev.at);
                    false
                }
                Arrival::Done(done) => {
                    world.done[i].push_back(done);
                    world.wake_at(ev.node, ev.at);
                    false
                }
                Arrival::Wake if world.wake[i] == Some(ev.at) => {
                    world.wake[i] = None;
                    world.clock[i] = world.clock[i].max(ev.at);
                    true
                }
                Arrival::Wake => false, // superseded by a sooner turn
            }
        };
        if !turn {
            continue;
        }
        if !w.turn() {
            results[i] = workers[i].take().map(Worker::finish);
            running -= 1;
        } else if w.gate.prepaid.is_none() {
            // (A handed-off handler's landing schedules its next turn.)
            schedule(world, w);
        }
    }
    (results.into_iter())
        .map(|r| r.expect("every worker stopped"))
        .collect()
}

/// Give `w` its next turn when it asks for one.
fn schedule(world: &RefCell<World>, w: &Worker<Sim>) {
    if let Some(at) = w.next_turn() {
        world.borrow_mut().wake_at(w.gate.node, at);
    }
}

/// How many helper threads a run gets: one per core beyond the calling
/// thread's, one per node beyond the first at most, and none unless every
/// handler's charge is known before it runs.
fn helper_count(cfg: &MrtsConfig) -> usize {
    if !cfg.deterministic_compute || cfg.net_fault.is_some() {
        return 0;
    }
    #[cfg(test)]
    if let Some(n) = tests::HELPERS.with(std::cell::Cell::get) {
        return n;
    }
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    (cores - 1).min(cfg.nodes - 1)
}
