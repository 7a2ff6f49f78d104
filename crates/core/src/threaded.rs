//! The live clock: one OS thread per node, the wall clock, real I/O.
//!
//! This is the shape of the paper's actual deployment. Every node runs the
//! one worker loop (`worker.rs`: its `NodeCore`, Safra's termination ring,
//! the reliable layer, work stealing) on its own thread, draining active
//! messages from the in-process [`armci_sim`] fabric and spilling through a
//! per-node I/O thread pool (a real [`crate::storage::SegmentStore`] when a
//! spill directory is configured). Handlers may spawn child tasks on the
//! node's computing-layer pool (work-stealing or FIFO).
//!
//! What is this clock's own is only what the wall clock needs:
//!
//! * **The live gateway** — the worker's inputs come from the fabric
//!   endpoint (a blocking receive of at most `POLL_WAIT` when idle), the
//!   I/O pool's completion channel and `Instant`. Each answer can be
//!   recorded or replayed (`mrts::replay`), so a run's schedule can be
//!   re-executed; the worker acts on it the same way in every mode.
//! * **Non-blocking storage ops** — `io_threads` workers run the node's
//!   spill executor (`spill_io.rs`), so object pack/unpack, retries and
//!   their backoff sleeps happen off the node's control thread, and an
//!   eviction round lands as batched appends on the segmented spill log.
//! * **The race detector** — happens-before stamps on every fabric send
//!   and receive, and an access check on every touch of an object.
//! * **The post-run state** — each node's store stays with the
//!   [`Runtime`] until it is dropped or run again, so the result accessors
//!   read spilled objects from it and the process's memory follows the
//!   budget after `run()` as it does inside.
//! * **Deferred boot** — objects created, pinned or posted to before a
//!   run are queued and applied by the run's workers before they start,
//!   without admission (nothing is running yet to evict for).
//!
//! Statistics are wall-clock: computation is time spent inside handlers
//! (and packing/unpacking, wherever it runs), disk is the I/O pool's
//! measured busy time, and communication is charged from the configured
//! network model per message (the in-process fabric itself is too fast to
//! measure meaningfully).

use crate::compute::{
    ExecutorKind, FifoPool, ParallelReport, SequentialBackend, TaskBackend, WorkStealingPool,
};
use crate::config::MrtsConfig;
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::node::{MetaOp, NodeCore};
use crate::object::Registry;
use crate::replay::{Decision, DecisionLog, IoKind, REPLAY_WAIT};
use crate::runtime::{home_of, hooks::Hooks, Boot, Engine, Runtime};
use crate::spill_io::{open_stores, BufferPool, SharedStore};
use crate::stats::{NodeStats, RunStats};
use crate::worker::{Due, Gateway, IoDone, IoReq, NetLayer, Worker, WorkerResult, POLL_WAIT};
use armci_sim::{ActiveMessage, Endpoint, Fabric, NetworkModel};
use crossbeam_channel as channel;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `(kind, key)` identity of an I/O completion, for decision
/// matching during record/replay: the pool's per-key ordering makes it
/// unique among in-flight operations (batches are identified by their
/// first object; health probes carry no key).
fn io_done_key(d: &IoDone) -> (IoKind, u64) {
    match d {
        IoDone::Stored(s) if s.rejected.is_none() => (IoKind::StoredBatch, s.report.oid.0),
        IoDone::Stored(s) => (IoKind::StoreBatchFailed, s.report.oid.0),
        IoDone::Loaded(l) if l.outcome.is_ok() => (IoKind::Loaded, l.report.oid.0),
        IoDone::Loaded(l) => (IoKind::LoadFailed, l.report.oid.0),
        IoDone::Probed(..) => (IoKind::Probed, 0),
    }
}

/// Record/replay mode of a worker's [`Inputs`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Live answers, nothing logged (the default).
    Off,
    /// Live answers, each one logged.
    Record,
    /// Answers from the log, for as long as it can be followed.
    Replay,
}

/// The record/replay half of the live gateway (see `mrts::replay`): which
/// fabric frame is next, which I/O completion is next, which deferred
/// flushes and retransmit timers are due. Live, the channels and the wall
/// clock answer, and record mode logs each answer; in replay mode the log
/// answers. The worker acts on every answer with the same code in all
/// three modes, and what else it decides — when to steal and what to
/// grant included — is a function of these answers and its own state.
struct Inputs {
    mode: Mode,
    /// Record: the answers so far. Replay: the answers to give.
    log: Vec<Decision>,
    cursor: usize,
    /// Replay: frames and completions that arrived before the log
    /// called for them.
    held_frames: VecDeque<ActiveMessage>,
    held_io: VecDeque<IoDone>,
    /// Replay fell back to live answers (the log could not be followed,
    /// or the run is over); held items are answered first.
    live: bool,
    divergences: usize,
}

impl Inputs {
    fn new(mode: Mode, log: Vec<Decision>) -> Inputs {
        Inputs {
            mode,
            log,
            cursor: 0,
            held_frames: VecDeque::new(),
            held_io: VecDeque::new(),
            live: false,
            divergences: 0,
        }
    }

    /// Replay: take the next logged answer (`None`: the log is exhausted).
    fn logged(&mut self) -> Option<Decision> {
        self.cursor += 1;
        self.log.get(self.cursor - 1).copied()
    }

    /// The log can no longer be followed: count it once and answer live
    /// from here on.
    fn diverge(&mut self) {
        if !self.live {
            self.live = true;
            self.divergences += 1;
        }
    }

    /// Which fabric frame is next: a non-blocking poll, or (`idle`) one
    /// that waits briefly.
    fn fabric(&mut self, ep: &mut Endpoint, idle: bool) -> Option<ActiveMessage> {
        let poll = |ep: &mut Endpoint| {
            if idle {
                ep.recv_timeout(POLL_WAIT)
            } else {
                ep.try_recv()
            }
        };
        match self.mode {
            Mode::Off => poll(ep),
            Mode::Record => {
                let am = poll(ep);
                self.log.push(match &am {
                    Some(m) => Decision::FabricRecv {
                        src: m.src,
                        tag: m.handler,
                    },
                    None => Decision::FabricEmpty,
                });
                am
            }
            Mode::Replay => {
                if !self.live {
                    match self.logged() {
                        // Frames the recorded run had not yet seen may sit
                        // in the channel; they stay there.
                        Some(Decision::FabricEmpty) => return None,
                        Some(Decision::FabricRecv { src, tag }) => {
                            // Per-edge FIFO: the next frame from `src` is
                            // the recorded one.
                            let held = &mut self.held_frames;
                            match await_held(held, || ep.recv_timeout(POLL_WAIT), |m| m.src == src)
                            {
                                Some(m) if m.handler == tag => return Some(m),
                                Some(m) => held.push_front(m),
                                None => {}
                            }
                        }
                        _ => {}
                    }
                    self.diverge();
                }
                self.held_frames.pop_front().or_else(|| poll(ep))
            }
        }
    }

    /// Which I/O completion is next: a non-blocking poll, or
    /// (`blocking`, the post-termination drain) a wait for one — which
    /// never answers `IoEmpty`. Only a panicking I/O thread ends the pool
    /// while its worker runs; what it held will never land, so the worker
    /// goes down with it.
    fn io(&mut self, rx: &channel::Receiver<IoDone>, blocking: bool) -> Option<IoDone> {
        let poll = || {
            let got = match blocking {
                true => rx.recv().map_err(|_| channel::TryRecvError::Disconnected),
                false => rx.try_recv(),
            };
            match got {
                Ok(done) => Some(done),
                Err(channel::TryRecvError::Empty) => None,
                Err(channel::TryRecvError::Disconnected) => {
                    panic!("the node's I/O pool is gone: an I/O thread panicked")
                }
            }
        };
        match self.mode {
            Mode::Off => poll(),
            Mode::Record => {
                let done = poll();
                match &done {
                    Some(d) => {
                        let (kind, oid) = io_done_key(d);
                        self.log.push(Decision::IoDone { kind, oid });
                    }
                    None if !blocking => self.log.push(Decision::IoEmpty),
                    None => {}
                }
                done
            }
            Mode::Replay => {
                if !self.live {
                    match self.logged() {
                        Some(Decision::IoEmpty) if !blocking => return None,
                        Some(Decision::IoDone { kind, oid }) => {
                            let key = |d: &IoDone| io_done_key(d) == (kind, oid);
                            let next = await_held(
                                &mut self.held_io,
                                || rx.recv_timeout(POLL_WAIT).ok(),
                                key,
                            );
                            if next.is_some() {
                                return next;
                            }
                        }
                        _ => {}
                    }
                    self.diverge();
                }
                self.held_io.pop_front().or_else(poll)
            }
        }
    }

    /// Which deferred flushes and retransmit timers are due at `now`,
    /// flushes first; each logged answer list ends with `PumpEnd`.
    fn due(&mut self, net: &NetLayer, now: Duration) -> Vec<Due> {
        match self.mode {
            Mode::Off => net.due_by_clock(now),
            Mode::Record => {
                let due = net.due_by_clock(now);
                for &d in &due {
                    self.log.push(match d {
                        Due::Flush(dest, seq) => Decision::FlushDeferred { dest, seq },
                        Due::Timer(dest, seq) => Decision::TimerExpire { dest, seq },
                    });
                }
                self.log.push(Decision::PumpEnd);
                due
            }
            Mode::Replay => {
                let mut due = Vec::new();
                while !self.live {
                    match self.logged() {
                        Some(Decision::PumpEnd) => return due,
                        Some(Decision::FlushDeferred { dest, seq })
                            if net.deferred_at(dest, seq).is_some() =>
                        {
                            due.push(Due::Flush(dest, seq))
                        }
                        Some(Decision::TimerExpire { dest, seq }) => {
                            due.push(Due::Timer(dest, seq))
                        }
                        // Exhausted, a foreign decision, or a flush of a
                        // frame that is not deferred.
                        _ => self.diverge(),
                    }
                }
                net.due_by_clock(now)
            }
        }
    }

    /// The worker stopped: fold the counters into `stats` and hand back
    /// what was recorded. Answers are live from here on, held items
    /// first. Answers the replayed log still holds mean the recorded run
    /// did more than this one — one last divergence, unless the node
    /// `crashed` (a crash truncates the schedule by design).
    fn finish(&mut self, stats: &mut NodeStats, crashed: bool) -> Vec<Decision> {
        match self.mode {
            Mode::Record => {
                self.mode = Mode::Off;
                stats.decisions_recorded += self.log.len();
                return std::mem::take(&mut self.log);
            }
            Mode::Replay if !crashed && self.cursor < self.log.len() => self.diverge(),
            _ => {}
        }
        self.live = true;
        stats.replay_divergences += self.divergences;
        Vec::new()
    }
}

/// A worker's gateway on the wall clock: the fabric endpoint, the I/O
/// pool's channels and `Instant`, each read through [`Inputs`].
struct Live {
    ep: Endpoint,
    io_tx: channel::Sender<IoReq>,
    io_rx: channel::Receiver<IoDone>,
    /// The gateway's clock starts at the run's start.
    epoch: Instant,
    inputs: Inputs,
}

impl Gateway for Live {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn fabric(&mut self, idle: bool) -> Option<ActiveMessage> {
        self.inputs.fabric(&mut self.ep, idle)
    }

    fn send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        self.ep.am_send(dest, tag, payload);
    }

    fn io(&mut self, blocking: bool) -> Option<IoDone> {
        self.inputs.io(&self.io_rx, blocking)
    }

    fn submit(&mut self, req: IoReq) {
        self.io_tx.send(req).expect("I/O pool outlives the worker");
    }

    fn due(&mut self, net: &NetLayer) -> Vec<Due> {
        let now = self.now();
        self.inputs.due(net, now)
    }

    /// Measured wall time, child tasks included: they ran on the node's
    /// real pool.
    fn charge(&mut self, wall: Duration, _bytes: usize, _tasks: &[ParallelReport]) -> Duration {
        wall
    }

    fn finish(&mut self, stats: &mut NodeStats, crashed: bool) -> Vec<Decision> {
        self.inputs.finish(stats, crashed)
    }
}

/// Replay's wait for the item the log names: the first held one that
/// `matches`, else the first such arrival from `poll` within
/// [`REPLAY_WAIT`], holding back every other arrival. `None`: it never
/// came.
fn await_held<T>(
    held: &mut VecDeque<T>,
    mut poll: impl FnMut() -> Option<T>,
    matches: impl Fn(&T) -> bool,
) -> Option<T> {
    if let Some(i) = held.iter().position(&matches) {
        return held.remove(i);
    }
    let deadline = Instant::now() + REPLAY_WAIT;
    while Instant::now() < deadline {
        match poll() {
            Some(x) if matches(&x) => return Some(x),
            Some(x) => held.push_back(x),
            None => {}
        }
    }
    None
}

/// Spawn the node's I/O pool: `n_threads` workers running the node's
/// spill executor. Pack/unpack run on the pool **outside** the store
/// lock, so serialization of one object overlaps the disk op of another
/// and the node's control thread never blocks on either. Both directions
/// draw their buffer from one bounded [`BufferPool`], which goes with the
/// pool when the run ends: the pool stops once its worker drops the
/// request channel.
fn spawn_io_pool(
    io: SharedStore,
    registry: Arc<Registry>,
    n_threads: usize,
) -> (
    channel::Sender<IoReq>,
    channel::Receiver<IoDone>,
    Vec<std::thread::JoinHandle<()>>,
) {
    let (req_tx, req_rx) = channel::unbounded::<IoReq>();
    let (done_tx, done_rx) = channel::unbounded::<IoDone>();
    let pool = Arc::new(BufferPool::new(n_threads * 2 + 2));
    let handles = (0..n_threads)
        .map(|t| {
            let (req_rx, done_tx) = (req_rx.clone(), done_tx.clone());
            let (io, pool, registry) = (io.clone(), pool.clone(), registry.clone());
            let serve = move || {
                while let Ok(req) = req_rx.recv() {
                    let done = match req {
                        // An eviction of one object is a batch of one.
                        IoReq::StoreBatch { items } => {
                            IoDone::Stored(io.store(&pool, items, &registry, false))
                        }
                        IoReq::Load { key, oid } => {
                            IoDone::Loaded(io.load(&pool, key, oid, &registry))
                        }
                        IoReq::Probe => {
                            let (report, ok) = io.probe();
                            IoDone::Probed(report, ok)
                        }
                        // Fire-and-forget placement hint: no reply.
                        IoReq::SetRanks(ranks) => {
                            io.lock().set_key_ranks(&ranks);
                            continue;
                        }
                    };
                    done_tx.send(done).ok();
                }
            };
            let thread = std::thread::Builder::new().name(format!("mrts-io-{t}"));
            thread.spawn(serve).expect("spawn io thread")
        })
        .collect();
    (req_tx, done_rx, handles)
}

/// The threaded MRTS runtime: [`Runtime`] on the [`Threads`] engine.
pub type ThreadedRuntime = Runtime<Threads>;

/// The threaded engine's state between runs: the queued boot actions and
/// the record/replay and race-detection settings of the next run. See the
/// module docs.
pub struct Threads {
    /// Boot actions for the next run, applied by its workers before they
    /// start.
    boot: Vec<Boot>,
    /// Record every worker's nondeterministic decisions next run.
    record_decisions: bool,
    /// Replay the next run against this recorded decision log.
    replay_log: Option<DecisionLog>,
    /// The decision log captured by the last recorded run.
    captured: Option<DecisionLog>,
    #[cfg(any(feature = "audit", debug_assertions))]
    race: Option<Arc<crate::audit::RaceDetector>>,
}

impl Engine for Threads {}

impl Hooks for Threads {
    /// No stores until a run opens them (under `spill_dir`, if set).
    fn new(_cfg: &MrtsConfig) -> (Self, Vec<SharedStore>) {
        let engine = Threads {
            boot: Vec::new(),
            record_decisions: false,
            replay_log: None,
            captured: None,
            #[cfg(any(feature = "audit", debug_assertions))]
            race: None,
        };
        (engine, Vec::new())
    }

    /// Boot actions wait for the next run.
    fn boot(rt: &mut ThreadedRuntime, action: Boot) {
        rt.engine.boot.push(action);
    }

    fn run(rt: &mut ThreadedRuntime) -> Result<RunStats, MrtsError> {
        rt.run_workers()
    }

    fn quiescent(rt: &ThreadedRuntime) -> bool {
        rt.engine.boot.is_empty()
    }
}

impl ThreadedRuntime {
    /// Attach a happens-before race detector sized for this runtime's node
    /// count. Every fabric send/receive contributes a vector-clock edge and
    /// every object access is checked against the last conflicting access.
    #[cfg(any(feature = "audit", debug_assertions))]
    pub fn attach_race_detector(&mut self, det: Arc<crate::audit::RaceDetector>) {
        self.engine.race = Some(det);
    }

    /// Record every nondeterministic decision of the next run: which
    /// fabric edge won each poll, which I/O completion landed when, and
    /// when each reliable-layer deferred flush / retransmit timer fired.
    /// Retrieve the log afterwards with
    /// [`ThreadedRuntime::take_decision_log`]. Always available (the
    /// decision stream is engine state, not audit instrumentation).
    pub fn record_decisions(&mut self) {
        self.engine.record_decisions = true;
    }

    /// Replay the next run against a recorded decision log: every
    /// worker substitutes the recorded outcomes for live nondeterminism.
    /// A worker that cannot follow its schedule (event mismatch, wait
    /// timeout, log exhaustion) counts a `replay_divergences` and falls
    /// back to live execution rather than deadlocking.
    pub fn replay_decisions(&mut self, log: DecisionLog) {
        self.engine.replay_log = Some(log);
    }

    /// The decision log captured by the last run started after
    /// [`ThreadedRuntime::record_decisions`], if any.
    pub fn take_decision_log(&mut self) -> Option<DecisionLog> {
        self.engine.captured.take()
    }

    /// Run to distributed termination: one worker per node, started from
    /// fresh cores and the queued boot actions. The failing node of a
    /// failed run broadcasts an exit to every peer, so all workers stop
    /// and join. Afterwards each node's core and store stay for the result
    /// accessors until the next run or drop.
    fn run_workers(&mut self) -> Result<RunStats, MrtsError> {
        let n = self.cfg.nodes;
        let endpoints = Fabric::new(n, NetworkModel::instant());
        let registry = Arc::new(std::mem::take(&mut self.registry));
        // A replay log is consumed by the run it drives.
        let replay_log = self.engine.replay_log.take();

        // The result state describes one run. The last run's stores go
        // (and their spill directories with them) before new ones open
        // under the same paths.
        self.cores.clear();
        self.stores.clear();
        self.stores = open_stores(&self.cfg, true);

        let mut workers: Vec<Worker<Live>> = Vec::with_capacity(n);
        let mut io_handles = Vec::with_capacity(n);
        for (i, ep) in endpoints.into_iter().enumerate() {
            let (io_tx, io_rx, handles) = spawn_io_pool(
                self.stores[i].clone(),
                registry.clone(),
                self.cfg.io_threads,
            );
            io_handles.extend(handles);
            let backend: Box<dyn TaskBackend> = match self.cfg.executor {
                _ if self.cfg.cores_per_node <= 1 => Box::new(SequentialBackend),
                ExecutorKind::WorkStealing => {
                    Box::new(WorkStealingPool::new(self.cfg.cores_per_node))
                }
                ExecutorKind::Fifo => Box::new(FifoPool::new(self.cfg.cores_per_node)),
            };
            #[allow(unused_mut)] // mutated only when auditing is compiled in
            let mut core = NodeCore::new(i as NodeId, &self.cfg);
            #[cfg(any(feature = "audit", debug_assertions))]
            {
                core.audit = self.audit.clone();
            }
            let (mode, log) = match &replay_log {
                // A node absent from the log replays an empty schedule:
                // immediate divergence + live fallback.
                Some(log) => (Mode::Replay, log.nodes.get(i).cloned().unwrap_or_default()),
                None if self.engine.record_decisions => (Mode::Record, Vec::new()),
                None => (Mode::Off, Vec::new()),
            };
            let gate = Live {
                ep,
                io_tx,
                io_rx,
                epoch: Instant::now(),
                inputs: Inputs::new(mode, log),
            };
            let seq = self.next_seq[i];
            #[allow(unused_mut)] // mutated only when auditing is compiled in
            let mut w = Worker::new(&self.cfg, registry.clone(), core, seq, backend, gate);
            #[cfg(any(feature = "audit", debug_assertions))]
            {
                w.race = self.engine.race.clone();
            }
            workers.push(w);
        }

        // Apply the boot actions. Homes wrap modulo the node count (a
        // restore onto fewer nodes; matches `NodeCore::next_hop`).
        const T0: Duration = Duration::ZERO;
        for action in self.engine.boot.drain(..) {
            match action {
                Boot::Create {
                    node,
                    id,
                    obj,
                    priority,
                    locked,
                } => {
                    let home = home_of(id, n);
                    if home != node as usize {
                        workers[home].core.learn_location(id, node);
                    }
                    // Bootstrap creation bypasses admission (threads are
                    // not running yet), so the budget may overshoot.
                    let core = &mut workers[node as usize].core;
                    core.create(id, obj, priority, locked, false, T0);
                }
                Boot::Lock(p) => {
                    let w = &mut workers[home_of(p.id, n)];
                    w.core.on_meta(p.id, MetaOp::Lock, T0);
                }
                Boot::Post(msg) => {
                    let w = &mut workers[home_of(msg.to.id, n)];
                    w.core.send(msg, T0);
                    w.carry_out();
                }
            }
        }

        let t0 = Instant::now();
        let mut joins = Vec::with_capacity(n);
        for w in workers {
            joins.push(std::thread::spawn(move || w.run()));
        }
        let results: Vec<WorkerResult> = joins
            .into_iter()
            .map(|j| j.join().expect("worker panic"))
            .collect();
        let total = t0.elapsed();
        // The I/O pool threads hold registry clones for unpacking; join
        // them before reclaiming the registry.
        for h in io_handles {
            let _ = h.join();
        }
        self.registry =
            Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
        let mut captured = DecisionLog::new(n);
        let fatal = self.collect(results, |node, decisions| {
            captured.nodes[node as usize] = decisions
        });
        if self.engine.record_decisions {
            self.engine.captured = Some(captured);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(RunStats {
                total,
                nodes: self.cores.iter().map(|c| c.stats.clone()).collect(),
                // Workers accumulate overlap directly (handler time with
                // storage ops in flight), so `overlap_pct` reports the
                // measurement instead of the busy-excess estimate.
                measured_overlap: true,
            }),
        }
    }
}
