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
//!   recorded (`mrts::replay`), so a run's schedule can be re-executed.
//!   A replay runs none of this clock: the same workers, built by the same
//!   constructor, are stepped on the calling thread by `mrts::replay`.
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

use crate::compute::{ExecutorKind, FifoPool, SequentialBackend, TaskBackend, WorkStealingPool};
use crate::config::MrtsConfig;
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::node::{MetaOp, NodeCore};
use crate::object::Registry;
use crate::replay::{io_decision, Decision, DecisionLog, Replay};
use crate::runtime::{home_of, hooks::Hooks, Boot, Engine, Runtime};
use crate::spill_io::{open_stores, BufferPool, SharedStore};
use crate::stats::{NodeStats, RunStats};
use crate::worker::{Due, Gateway, IoDone, IoReq, NetLayer, Recv, Worker, WorkerResult, POLL_WAIT};
use armci_sim::{Endpoint, Fabric, NetworkModel};
use crossbeam_channel as channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A worker's gateway on the wall clock: the fabric endpoint, the I/O
/// pool's channels and `Instant`. In record mode it logs every answer it
/// gives (see `mrts::replay`).
struct Live {
    ep: Endpoint,
    io_tx: channel::Sender<IoReq>,
    io_rx: channel::Receiver<IoDone>,
    /// The gateway's clock starts at the run's start.
    epoch: Instant,
    /// Record mode: the answers so far.
    log: Option<Vec<Decision>>,
}

impl Live {
    fn record(&mut self, d: Decision) {
        if let Some(log) = &mut self.log {
            log.push(d);
        }
    }
}

impl Gateway for Live {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn fabric(&mut self, idle: bool) -> Recv {
        let am = match idle {
            true => self.ep.recv_timeout(POLL_WAIT),
            false => self.ep.try_recv(),
        };
        self.record(match &am {
            Some(m) => Decision::FabricRecv {
                src: m.src,
                tag: m.handler,
            },
            None => Decision::FabricEmpty,
        });
        am.map_or(Recv::Empty, Recv::Frame)
    }

    fn send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        self.ep.am_send(dest, tag, payload);
    }

    /// A blocking read never answers `None`: only a panicking I/O thread
    /// ends the pool while its worker runs, and what it held will never
    /// land, so the worker goes down with it.
    fn io(&mut self, blocking: bool) -> Option<IoDone> {
        const GONE: &str = "the node's I/O pool is gone: an I/O thread panicked";
        let done = match self.io_rx.try_recv() {
            Err(channel::TryRecvError::Empty) if !blocking => None,
            Err(channel::TryRecvError::Empty) => Some(self.io_rx.recv().expect(GONE)),
            got => Some(got.expect(GONE)),
        };
        self.record(done.as_ref().map_or(Decision::IoEmpty, io_decision));
        done
    }

    fn submit(&mut self, req: IoReq) {
        self.io_tx.send(req).expect("I/O pool outlives the worker");
    }

    /// By the wall clock; each logged answer list ends with `PumpEnd`.
    fn due(&mut self, net: &NetLayer) -> Vec<Due> {
        let due = net.due_by_clock(self.now());
        for &d in &due {
            self.record(match d {
                Due::Flush(dest, seq) => Decision::FlushDeferred { dest, seq },
                Due::Timer(dest, seq) => Decision::TimerExpire { dest, seq },
            });
        }
        self.record(Decision::PumpEnd);
        due
    }

    /// Recording stops here: a crash ends the schedule by design.
    fn finish(&mut self, stats: &mut NodeStats, _crashed: bool) -> Vec<Decision> {
        let log = self.log.take().unwrap_or_default();
        stats.decisions_recorded += log.len();
        log
    }
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
                    if let Some(done) = req.run(&io, &pool, &registry) {
                        done_tx.send(done).ok();
                    }
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

    /// Replay the next run against a recorded decision log: the run's
    /// workers are built as for a live run and stepped on the calling
    /// thread, each gateway answering from the log (see `mrts::replay`).
    /// A run that leaves its log fails with
    /// [`MrtsError::ReplayDiverged`], naming the node and the decision.
    pub fn replay_decisions(&mut self, log: DecisionLog) {
        self.engine.replay_log = Some(log);
    }

    /// The decision log captured by the last run started after
    /// [`ThreadedRuntime::record_decisions`], if any.
    pub fn take_decision_log(&mut self) -> Option<DecisionLog> {
        self.engine.captured.take()
    }

    /// Run to distributed termination, live or (with a log set) as a
    /// replay. The failing node of a failed run broadcasts an exit to every
    /// peer, so all workers stop. Afterwards each node's core and store
    /// stay for the result accessors until the next run or drop.
    fn run_workers(&mut self) -> Result<RunStats, MrtsError> {
        let n = self.cfg.nodes;
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let (results, diverged, total) = match self.engine.replay_log.take() {
            // A replay log is consumed by the run it drives.
            Some(log) => {
                let mut replay = Replay::new(log, n, registry.clone());
                let workers = self.workers(&registry, |i, store| replay.gate(i, store));
                let t0 = Instant::now();
                let (results, diverged) = replay.step(workers);
                (results, diverged, t0.elapsed())
            }
            None => {
                let (results, total) = self.run_live(&registry);
                (results, None, total)
            }
        };
        self.registry =
            Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
        let mut captured = DecisionLog::new(n);
        let fatal = self.collect(results, |node, decisions| {
            captured.nodes[node as usize] = decisions
        });
        if self.engine.record_decisions {
            self.engine.captured = Some(captured);
        }
        match diverged.or(fatal) {
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

    /// One worker per node on its own thread, each with its I/O pool, to
    /// the end: their hand-backs and the wall time they ran.
    fn run_live(&mut self, registry: &Arc<Registry>) -> (Vec<WorkerResult>, Duration) {
        let mut endpoints = Fabric::new(self.cfg.nodes, NetworkModel::instant()).into_iter();
        let (io_threads, record) = (self.cfg.io_threads, self.engine.record_decisions);
        let mut io_handles = Vec::new();
        let workers = self.workers(registry, |_, store| {
            let (io_tx, io_rx, handles) =
                spawn_io_pool(store.clone(), registry.clone(), io_threads);
            io_handles.extend(handles);
            Live {
                ep: endpoints.next().expect("one endpoint per node"),
                io_tx,
                io_rx,
                epoch: Instant::now(),
                log: record.then(Vec::new),
            }
        });
        let t0 = Instant::now();
        let joins: Vec<_> = (workers.into_iter())
            .map(|w| std::thread::spawn(move || w.run()))
            .collect();
        let results = (joins.into_iter())
            .map(|j| j.join().expect("worker panic"))
            .collect();
        let total = t0.elapsed();
        // The I/O pool threads hold registry clones for unpacking; join
        // them before the registry is reclaimed.
        for h in io_handles {
            let _ = h.join();
        }
        (results, total)
    }

    /// The run's workers, built alike for a live run and a replay: fresh
    /// cores over freshly opened stores, each node with its compute
    /// backend and the gateway `gate(node, store)`, and the queued boot
    /// actions applied.
    fn workers<G: Gateway>(
        &mut self,
        registry: &Arc<Registry>,
        mut gate: impl FnMut(usize, &SharedStore) -> G,
    ) -> Vec<Worker<G>> {
        let n = self.cfg.nodes;
        // The result state describes one run. The last run's stores go
        // (and their spill directories with them) before new ones open
        // under the same paths.
        self.cores.clear();
        self.stores.clear();
        self.stores = open_stores(&self.cfg, true);
        let mut workers: Vec<Worker<G>> = Vec::with_capacity(n);
        for i in 0..n {
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
            let gate = gate(i, &self.stores[i]);
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
        workers
    }
}
