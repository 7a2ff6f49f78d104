//! The live clock: one OS thread per node, the wall clock, real I/O.
//!
//! This is the shape of the paper's actual deployment. Every node runs the
//! one worker loop (`worker.rs`: its `NodeCore`, Safra's termination ring,
//! the reliable layer, work stealing) on its own thread, draining active
//! messages from the in-process [`armci_sim`] fabric and spilling through a
//! per-node I/O pool (a real [`crate::storage::SegmentStore`] when a spill
//! directory is configured). Handlers may spawn child tasks on the node's
//! computing-layer pool (work-stealing or FIFO). Both pools are a
//! `compute::Pool`, and both go with the worker that owns them.
//!
//! What is this clock's own is only what the wall clock needs:
//!
//! * **The live gateway** — the worker's inputs come from the fabric
//!   endpoint (a blocking receive of at most `POLL_WAIT` when idle), the
//!   I/O pool's completion channel and `Instant`. Each answer can be
//!   recorded (`mrts::replay`), so a run's schedule can be re-executed.
//!   A replay runs none of this clock: the same workers, built by the same
//!   constructor (`Runtime::workers`), are stepped on the calling thread
//!   by `mrts::replay`.
//! * **Non-blocking storage ops** — the `io_threads` threads of a fifo
//!   pool run the node's spill executor (`spill_io.rs`), so object
//!   pack/unpack, retries and their backoff sleeps happen off the node's
//!   control thread, and an eviction round lands as batched appends on the
//!   segmented spill log. Each job sends its completion, or the panic it
//!   ended in, over an `mpsc` channel; the worker resumes such a panic.
//! * **The race detector** — happens-before stamps on every fabric send
//!   and receive, and an access check on every touch of an object.
//! * **Real spill directories** — with a spill directory configured, each
//!   node's store is a segment log under `node-<i>`, opened with the
//!   [`Runtime`] and removed when it is dropped. Between runs the result
//!   accessors read spilled objects from it, so the process's memory
//!   follows the budget after `run()` as it does inside, and the next run
//!   continues from it.
//!
//! Statistics are wall-clock: computation is time spent inside handlers
//! (and packing/unpacking, wherever it runs), disk is the I/O pool's
//! measured busy time, and communication is charged from the configured
//! network model per message (the in-process fabric itself is too fast to
//! measure meaningfully).

use crate::compute::{
    ExecutorKind, FifoPool, Pool, SequentialBackend, TaskBackend, WorkStealingPool,
};
use crate::config::MrtsConfig;
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::object::Registry;
use crate::replay::{io_decision, Decision, DecisionLog, Replay};
use crate::runtime::{hooks::Hooks, Engine, Runtime};
use crate::spill_io::{open_stores, BufferPool, SharedStore};
use crate::stats::{NodeStats, RunStats};
use crate::worker::{Due, Gateway, IoDone, IoReq, NetLayer, Recv, WorkerResult, POLL_WAIT};
use armci_sim::{Endpoint, Fabric, NetworkModel};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A worker's gateway on the wall clock: the fabric endpoint, the node's
/// I/O pool with its completion channel, and `Instant`. In record mode it
/// logs every answer it gives (see `mrts::replay`). The I/O pool is joined
/// when the gateway drops, with its worker.
struct Live {
    ep: Endpoint,
    /// `io_threads` threads running the node's spill executor.
    io: Pool,
    exec: Arc<Exec>,
    /// Each job's completion, or the panic it ended in.
    done: mpsc::Receiver<std::thread::Result<IoDone>>,
    /// The gateway's clock starts at the run's start.
    epoch: Instant,
    /// Record mode: the answers so far.
    log: Option<Vec<Decision>>,
}

/// What every I/O job of a node runs against, and its way back. Pack and
/// unpack run on the pool **outside** the store lock, so serialization of
/// one object overlaps the disk op of another and the node's control
/// thread never blocks on either. Both directions draw their buffer from
/// one bounded [`BufferPool`].
struct Exec {
    store: SharedStore,
    bufs: BufferPool,
    registry: Arc<Registry>,
    done: mpsc::Sender<std::thread::Result<IoDone>>,
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

    /// A blocking read waits for the next completion: the gateway holds a
    /// sender, and every job that owes a completion sends one, or its
    /// panic, which is resumed here, on the worker.
    fn io(&mut self, blocking: bool) -> Option<IoDone> {
        let done = match blocking {
            false => self.done.try_recv().ok(),
            true => Some(self.done.recv().expect("the gateway holds a sender")),
        };
        let done = done.map(|ran| ran.unwrap_or_else(|panic| resume_unwind(panic)));
        self.record(done.as_ref().map_or(Decision::IoEmpty, io_decision));
        done
    }

    fn submit(&mut self, req: IoReq) {
        let exec = self.exec.clone();
        self.io.spawn(Box::new(move || {
            let run = || req.run(&exec.store, &exec.bufs, &exec.registry);
            exec.done.send(catch_unwind(AssertUnwindSafe(run))).ok();
        }));
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

/// A node's computing-layer pool, as configured.
fn node_pool(cfg: &MrtsConfig) -> Box<dyn TaskBackend> {
    match cfg.executor {
        _ if cfg.cores_per_node <= 1 => Box::new(SequentialBackend),
        ExecutorKind::WorkStealing => Box::new(WorkStealingPool::new(cfg.cores_per_node)),
        ExecutorKind::Fifo => Box::new(FifoPool::new(cfg.cores_per_node)),
    }
}

/// The threaded MRTS runtime: [`Runtime`] on the [`Threads`] engine.
pub type ThreadedRuntime = Runtime<Threads>;

/// The threaded engine's state between runs: the wall time run so far and
/// the record/replay settings of the next run. See the module docs.
pub struct Threads {
    /// Wall time of every run so far: a run's total adds to it, the way
    /// virtual time carries on from one run to the next.
    elapsed: Duration,
    /// Record every worker's nondeterministic decisions next run.
    record_decisions: bool,
    /// Replay the next run against this recorded decision log.
    replay_log: Option<DecisionLog>,
    /// The decision log captured by the last recorded run.
    captured: Option<DecisionLog>,
}

impl Engine for Threads {}

impl Hooks for Threads {
    /// The stores live under `spill_dir`, if set, until the runtime drops.
    fn new(cfg: &MrtsConfig) -> (Self, Vec<SharedStore>) {
        let engine = Threads {
            elapsed: Duration::ZERO,
            record_decisions: false,
            replay_log: None,
            captured: None,
        };
        (engine, open_stores(cfg, true))
    }

    fn run(rt: &mut ThreadedRuntime) -> Result<RunStats, MrtsError> {
        rt.run_workers()
    }
}

impl ThreadedRuntime {
    /// Attach a happens-before race detector sized for this runtime's node
    /// count. Every fabric send/receive contributes a vector-clock edge and
    /// every object access is checked against the last conflicting access.
    #[cfg(any(feature = "audit", debug_assertions))]
    pub fn attach_race_detector(&mut self, det: Arc<crate::audit::RaceDetector>) {
        self.race = Some(det);
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
    /// peer, so all workers stop.
    fn run_workers(&mut self) -> Result<RunStats, MrtsError> {
        let n = self.cfg.nodes;
        let registry = Arc::new(std::mem::take(&mut self.registry));
        let (results, diverged, took) = match self.engine.replay_log.take() {
            // A replay log is consumed by the run it drives.
            Some(log) => {
                let mut replay = Replay::new(log, n, registry.clone());
                let workers = self.workers(&registry, node_pool, |i, store| replay.gate(i, store));
                let t0 = Instant::now();
                let (results, diverged) = replay.step(workers);
                (results, diverged, t0.elapsed())
            }
            None => {
                let (results, took) = self.run_live(&registry);
                (results, None, took)
            }
        };
        self.engine.elapsed += took;
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
                total: self.engine.elapsed,
                nodes: self.cores.iter().map(|c| c.stats.clone()).collect(),
                // Workers accumulate overlap directly (handler time with
                // storage ops in flight), so `overlap_pct` reports the
                // measurement instead of the busy-excess estimate.
                measured_overlap: true,
            }),
        }
    }

    /// One worker per node on its own thread, each with its I/O pool, to
    /// the end: their hand-backs and the wall time they ran. A worker's
    /// panic is resumed here with its own payload.
    fn run_live(&mut self, registry: &Arc<Registry>) -> (Vec<WorkerResult>, Duration) {
        let mut endpoints = Fabric::new(self.cfg.nodes, NetworkModel::instant()).into_iter();
        let (io_threads, record) = (self.cfg.io_threads, self.engine.record_decisions);
        let workers = self.workers(registry, node_pool, |_, store| {
            let (done_tx, done) = mpsc::channel();
            let exec = Exec {
                store: store.clone(),
                bufs: BufferPool::new(io_threads * 2 + 2),
                registry: registry.clone(),
                done: done_tx,
            };
            Live {
                ep: endpoints.next().expect("one endpoint per node"),
                io: Pool::fifo(io_threads, "mrts-io"),
                exec: Arc::new(exec),
                done,
                epoch: Instant::now(),
                log: record.then(Vec::new),
            }
        });
        let t0 = Instant::now();
        let joins: Vec<_> = (workers.into_iter())
            .map(|w| std::thread::spawn(move || w.run()))
            .collect();
        // Each I/O pool, holding registry clones, is joined by then.
        let results = (joins.into_iter())
            .map(|j| j.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect();
        (results, t0.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HandlerId, TypeTag};
    use crate::object::test_objects::{Counter, COUNTER_TAG};
    use crate::object::MobileObject;
    use crate::within_seconds;
    use std::any::Any;

    /// An object whose spill panics.
    struct Bomb;

    impl MobileObject for Bomb {
        fn type_tag(&self) -> TypeTag {
            TypeTag(0xB0)
        }

        fn encode(&self, _: &mut Vec<u8>) {
            panic!("the bomb went off in encode")
        }

        fn footprint(&self) -> usize {
            10_000
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A spill job that panics fails the run with its own message, at the
    /// default two I/O threads: the other thread outlives it.
    #[test]
    fn a_panicking_spill_job_fails_the_run_with_its_message() {
        let panic = within_seconds(10, || {
            let run = || {
                let mut rt = ThreadedRuntime::new(MrtsConfig::out_of_core(1, 40_000));
                rt.register_type(COUNTER_TAG, Counter::decode);
                // Lowest priority: the first victim.
                rt.create_object(0, Box::new(Bomb), 0);
                for i in 0..7 {
                    rt.create_object(0, Box::new(Counter::new(i, 10_000)), 255);
                }
                rt.run();
            };
            catch_unwind(run).expect_err("the run fails")
        });
        assert_eq!(panic.downcast_ref(), Some(&"the bomb went off in encode"));
    }

    fn h_panic(_: &mut dyn MobileObject, _: &mut crate::ctx::Ctx, _: &[u8]) {
        panic!("the handler on node 1 went off")
    }

    /// A handler that panics on a node other than 0 fails the run with its
    /// own message: the unwinding worker tells node 0 to exit, so the join
    /// in node order does not wait on node 0 forever.
    #[test]
    fn a_panicking_handler_on_node_1_fails_the_run_with_its_message() {
        let panic = within_seconds(10, || {
            let run = || {
                let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(2));
                rt.register_type(COUNTER_TAG, Counter::decode);
                rt.register_handler(HandlerId(1), "panic", h_panic);
                let ptr = rt.create_object(1, Box::new(Counter::new(0, 100)), 128);
                rt.post(ptr, HandlerId(1), Vec::new());
                rt.run();
            };
            catch_unwind(run).expect_err("the run fails")
        });
        assert_eq!(
            panic.downcast_ref(),
            Some(&"the handler on node 1 went off")
        );
    }
}
