//! The computing layer: task-parallel execution inside message handlers.
//!
//! The paper's MRTS wraps two industrial multi-threading technologies —
//! Intel TBB (work-stealing) and Apple GCD (global dispatch queue) — behind
//! a uniform interface; message handlers are tasks that may spawn child
//! tasks. This module provides the same shape:
//!
//! * [`TaskBackend`] — the uniform interface: run a batch of tasks to
//!   completion, reporting per-task durations;
//! * `Pool` — a fixed set of named threads on `std::sync` alone, in one
//!   of two disciplines. *Stealing*: a deque per thread; its owner takes
//!   its newest task, an idle thread steals a peer's oldest. *Fifo*: one
//!   global queue. The runtime's one pool: both backends below, the live
//!   I/O pool (`threaded.rs`) and the virtual clock's helpers (`des.rs`);
//! * [`WorkStealingPool`] — TBB-like, and [`FifoPool`] — GCD-like: the
//!   backends over a `Pool` of either discipline;
//! * [`SequentialBackend`] — runs tasks serially while *measuring* them;
//!   used by the discrete-event (virtual-time) mode, which converts the
//!   measurements into a parallel makespan via [`ExecutorKind::makespan`].

use crate::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A child task spawned by a message handler.
pub type Task = Box<dyn FnOnce() + Send>;

/// What a parallel section did: per-task durations plus the wall-clock time
/// the section took on this backend.
#[derive(Clone, Debug, Default)]
pub struct ParallelReport {
    pub durations: Vec<Duration>,
    pub wall: Duration,
}

/// Uniform interface over the multi-threading technologies.
pub trait TaskBackend: Send {
    /// Run all tasks to completion.
    fn run_parallel(&mut self, tasks: Vec<Task>) -> ParallelReport;
}

/// Which computing-layer implementation a runtime uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// TBB-like work stealing.
    WorkStealing,
    /// GCD-like global FIFO dispatch queue.
    Fifo,
}

impl ExecutorKind {
    /// Modeled per-task dispatch overhead, used by the virtual-time mode.
    /// The FIFO queue pays a contended global-queue access per task; the
    /// work-stealing deques are mostly uncontended. The constants are
    /// calibrated to reproduce the paper's observation that the GCD
    /// implementation is "slightly slower" with similar trends.
    pub fn per_task_overhead(&self) -> Duration {
        match self {
            ExecutorKind::WorkStealing => Duration::from_nanos(200),
            ExecutorKind::Fifo => Duration::from_nanos(900),
        }
    }

    /// Virtual completion time of a task batch on `cores` cores under
    /// greedy list scheduling with this backend's per-task overhead.
    pub fn makespan(&self, durations: &[Duration], cores: usize) -> Duration {
        assert!(cores > 0);
        let ovh = self.per_task_overhead();
        let mut load = vec![Duration::ZERO; cores];
        for &d in durations {
            let idx = (0..cores)
                .min_by_key(|&i| load[i])
                .expect("scheduler has at least one core");
            load[idx] += d + ovh;
        }
        load.into_iter().max().unwrap_or(Duration::ZERO)
    }
}

// ----- sequential (measuring) backend -------------------------------------

/// Runs tasks serially, timing each — the measurement source for the
/// discrete-event mode's makespan model.
#[derive(Default)]
pub struct SequentialBackend;

impl TaskBackend for SequentialBackend {
    fn run_parallel(&mut self, tasks: Vec<Task>) -> ParallelReport {
        let start = Instant::now();
        let mut durations = Vec::with_capacity(tasks.len());
        for t in tasks {
            let t0 = Instant::now();
            t();
            durations.push(t0.elapsed());
        }
        ParallelReport {
            durations,
            wall: start.elapsed(),
        }
    }
}

// ----- the pool ----------------------------------------------------------------

/// A fixed set of named threads over one `Mutex` of queues and a
/// `Condvar`, in one of two disciplines (see the module docs). Idle
/// threads block. Dropping the pool closes it: its threads run what is
/// still queued, then end, and the drop joins them.
///
/// A task should not panic: one that does ends its thread. Whoever must
/// learn of a panic queues the task with [`Pool::submit`].
pub(crate) struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared {
    /// A leaf lock: held to queue or take tasks, never while one runs.
    queues: Mutex<Queues>,
    /// A task was queued, or the pool closed.
    cv: Condvar,
}

struct Queues {
    /// Stealing: one deque per thread. Fifo: the one global queue.
    deques: Vec<VecDeque<Task>>,
    /// The deque the next queued task goes to: round robin.
    next: usize,
    closed: bool,
}

impl Queues {
    /// Thread `me`'s next task. One deque (fifo, or stealing on one
    /// thread) is a queue. Of several, the owner takes its newest task,
    /// and an idle thread steals the oldest of the first peer that has
    /// one.
    fn take(&mut self, me: usize) -> Option<Task> {
        let n = self.deques.len();
        if n == 1 {
            return self.deques[0].pop_front();
        }
        (self.deques[me].pop_back())
            .or_else(|| (1..n).find_map(|k| self.deques[(me + k) % n].pop_front()))
    }
}

impl Pool {
    /// TBB-like: `threads` threads named `<name>-<i>`, a deque each.
    pub(crate) fn stealing(threads: usize, name: &str) -> Pool {
        Pool::new(threads, threads, name, None)
    }

    /// GCD-like: `threads` threads named `<name>-<i>`, one global queue,
    /// and a `stack` of that many bytes each if given.
    pub(crate) fn fifo(threads: usize, name: &str, stack: Option<usize>) -> Pool {
        Pool::new(threads, 1, name, stack)
    }

    fn new(threads: usize, deques: usize, name: &str, stack: Option<usize>) -> Pool {
        assert!(threads > 0);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                deques: (0..deques).map(|_| VecDeque::new()).collect(),
                next: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        let threads = (0..threads)
            .map(|me| {
                let shared = shared.clone();
                let mut thread = std::thread::Builder::new().name(format!("{name}-{me}"));
                if let Some(bytes) = stack {
                    thread = thread.stack_size(bytes);
                }
                (thread.spawn(move || shared.serve(me))).expect("spawn pool thread")
            })
            .collect();
        Pool { shared, threads }
    }

    /// Queue one task.
    pub(crate) fn spawn(&self, task: Task) {
        let mut queues = lock(&self.shared.queues);
        let k = queues.next;
        queues.next = (k + 1) % queues.deques.len();
        queues.deques[k].push_back(task);
        drop(queues);
        self.shared.cv.notify_one();
    }

    /// Queue `run`; what it returns, or the panic it ended in, goes to `done`.
    pub(crate) fn submit<R: Send + 'static>(
        &self,
        run: impl FnOnce() -> R + Send + 'static,
        done: mpsc::Sender<std::thread::Result<R>>,
    ) {
        self.spawn(Box::new(move || {
            done.send(catch_unwind(AssertUnwindSafe(run))).ok();
        }));
    }

    /// Run thread 0's next task on the caller, which helps while it waits; false if none.
    pub(crate) fn run_queued(&self) -> bool {
        let task = lock(&self.shared.queues).take(0);
        task.map(|task| task()).is_some()
    }

    /// Run all tasks to completion; each reports its duration at its own
    /// index, in whatever order they finish. A task's panic is resumed
    /// here once the whole batch has finished.
    pub(crate) fn run_parallel(&self, tasks: Vec<Task>) -> ParallelReport {
        let start = Instant::now();
        let n = tasks.len();
        let (tx, rx) = mpsc::channel();
        for (i, task) in tasks.into_iter().enumerate() {
            let timed = move || {
                let t0 = Instant::now();
                task();
                (i, t0.elapsed())
            };
            self.submit(timed, tx.clone());
        }
        drop(tx);
        let (mut durations, mut panic) = (vec![Duration::ZERO; n], None);
        for ran in rx {
            match ran {
                Ok((i, d)) => durations[i] = d,
                Err(p) => panic = panic.or(Some(p)),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        ParallelReport {
            durations,
            wall: start.elapsed(),
        }
    }
}

impl Shared {
    /// Thread `me`'s loop: run tasks until the pool is closed and empty.
    fn serve(&self, me: usize) {
        let mut queues = lock(&self.queues);
        loop {
            match queues.take(me) {
                Some(task) => {
                    drop(queues);
                    task();
                    queues = lock(&self.queues);
                }
                None if queues.closed => return,
                None => queues = self.cv.wait(queues).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queues).closed = true;
        self.shared.cv.notify_all();
        for t in self.threads.drain(..) {
            t.join().ok();
        }
    }
}

// ----- the two backends ----------------------------------------------------------

/// TBB-like backend: a stealing `Pool`.
pub struct WorkStealingPool(Pool);

impl WorkStealingPool {
    pub fn new(n_workers: usize) -> Self {
        WorkStealingPool(Pool::stealing(n_workers, "mrts-ws"))
    }
}

impl TaskBackend for WorkStealingPool {
    fn run_parallel(&mut self, tasks: Vec<Task>) -> ParallelReport {
        self.0.run_parallel(tasks)
    }
}

/// GCD-like backend: a fifo `Pool`.
pub struct FifoPool(Pool);

impl FifoPool {
    pub fn new(n_workers: usize) -> Self {
        FifoPool(Pool::fifo(n_workers, "mrts-fifo", None))
    }
}

impl TaskBackend for FifoPool {
    fn run_parallel(&mut self, tasks: Vec<Task>) -> ParallelReport {
        self.0.run_parallel(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::within_seconds;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_tasks(n: usize, counter: &Arc<AtomicU64>) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let c = counter.clone();
                let t: Task = Box::new(move || {
                    // A little real work so durations are nonzero.
                    let mut acc = i as u64;
                    for k in 0..1000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    c.fetch_add(1, Ordering::Relaxed);
                });
                t
            })
            .collect()
    }

    #[test]
    fn sequential_backend_runs_and_measures() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut b = SequentialBackend;
        let rep = b.run_parallel(counting_tasks(10, &counter));
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(rep.durations.len(), 10);
        assert!(rep.wall >= rep.durations.iter().copied().sum::<Duration>() / 2);
    }

    #[test]
    fn work_stealing_pool_completes_all_tasks() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = WorkStealingPool::new(3);
        let rep = pool.run_parallel(counting_tasks(100, &counter));
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(rep.durations.len(), 100);
        // Re-use the pool.
        pool.run_parallel(counting_tasks(50, &counter));
        assert_eq!(counter.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn fifo_pool_completes_all_tasks() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = FifoPool::new(2);
        let rep = pool.run_parallel(counting_tasks(64, &counter));
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(rep.durations.len(), 64);
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut pool = WorkStealingPool::new(2);
        let rep = pool.run_parallel(vec![]);
        assert!(rep.durations.is_empty());
        let mut b = SequentialBackend;
        assert!(b.run_parallel(vec![]).durations.is_empty());
    }

    /// Results arrive out of order; each duration still lands at its
    /// task's index.
    #[test]
    fn run_parallel_reports_each_duration_at_its_index() {
        for mut pool in [
            Box::new(WorkStealingPool::new(2)) as Box<dyn TaskBackend>,
            Box::new(FifoPool::new(2)),
        ] {
            let tasks: Vec<Task> = (0..7)
                .map(|i| {
                    let ms = if i == 3 { 200 } else { 1 };
                    Box::new(move || std::thread::sleep(Duration::from_millis(ms))) as Task
                })
                .collect();
            let rep = pool.run_parallel(tasks);
            assert!(rep.durations[3] >= Duration::from_millis(200), "{rep:?}");
            for (i, d) in rep.durations.iter().enumerate().filter(|&(i, _)| i != 3) {
                assert!(*d < Duration::from_millis(150), "task {i} took {d:?}");
            }
        }
    }

    /// A panicking child task fails the batch with its own message, once
    /// every other task has run, and leaves the pool usable.
    #[test]
    fn a_panicking_task_fails_its_batch_and_not_the_pool() {
        within_seconds(10, || {
            for mut pool in [
                Box::new(WorkStealingPool::new(2)) as Box<dyn TaskBackend>,
                Box::new(FifoPool::new(2)),
            ] {
                let counter = Arc::new(AtomicU64::new(0));
                let mut tasks = counting_tasks(20, &counter);
                tasks.insert(5, Box::new(|| panic!("child task 5 failed")));
                let panic = catch_unwind(AssertUnwindSafe(|| pool.run_parallel(tasks)));
                let panic = panic.expect_err("the batch fails");
                assert_eq!(panic.downcast_ref(), Some(&"child task 5 failed"));
                assert_eq!(counter.load(Ordering::SeqCst), 20);
                pool.run_parallel(counting_tasks(10, &counter));
                assert_eq!(counter.load(Ordering::SeqCst), 30);
            }
        });
    }

    /// Dropping a pool runs every task still queued before it joins.
    #[test]
    fn dropping_a_pool_runs_what_is_queued() {
        for pool in [
            Pool::stealing(2, "test-ws"),
            Pool::fifo(1, "test-fifo", None),
        ] {
            let counter = Arc::new(AtomicU64::new(0));
            for task in counting_tasks(50, &counter) {
                pool.spawn(task);
            }
            drop(pool);
            assert_eq!(counter.load(Ordering::SeqCst), 50);
        }
    }

    /// On two threads, task A waits for task C, and C sits behind A in A's
    /// thread's deque: only a steal runs C, so without one this hangs.
    #[test]
    fn an_idle_thread_steals_a_peers_oldest_task() {
        within_seconds(10, || {
            let pool = Pool::stealing(2, "test-steal");
            let (started_tx, started) = mpsc::channel();
            let (c_ran_tx, c_ran) = mpsc::channel();
            let (a_done_tx, a_done) = mpsc::channel();
            // A goes to thread 0's deque, B to thread 1's, C to thread 0's.
            pool.spawn(Box::new(move || {
                started_tx.send(()).unwrap();
                c_ran.recv().unwrap();
                a_done_tx.send(()).unwrap();
            }));
            started.recv().unwrap();
            pool.spawn(Box::new(|| {}));
            pool.spawn(Box::new(move || c_ran_tx.send(()).unwrap()));
            a_done.recv().unwrap();
        });
    }

    /// With the pool's one thread blocked, a caller that waits runs the
    /// queued task itself; on an empty queue it has nothing to run.
    #[test]
    fn run_queued_runs_a_task_on_the_caller() {
        within_seconds(10, || {
            let pool = Pool::fifo(1, "test-caller", None);
            let (started_tx, started) = mpsc::channel();
            let (release_tx, release) = mpsc::channel::<()>();
            pool.spawn(Box::new(move || {
                started_tx.send(()).unwrap();
                release.recv().unwrap();
            }));
            started.recv().unwrap();
            let (ran_tx, ran) = mpsc::channel();
            pool.submit(|| std::thread::current().id(), ran_tx);
            assert!(pool.run_queued(), "the second task was queued");
            let on = ran.try_recv().expect("it ran").expect("without a panic");
            assert_eq!(on, std::thread::current().id(), "on the caller");
            assert!(!pool.run_queued(), "nothing is left to run");
            release_tx.send(()).unwrap();
        });
    }

    #[test]
    fn makespan_models_parallelism() {
        let d = vec![Duration::from_millis(10); 8];
        let ws = ExecutorKind::WorkStealing;
        let serial: Duration = d.iter().map(|&t| t + ws.per_task_overhead()).sum();
        let quad = ws.makespan(&d, 4);
        assert!(
            quad < serial / 3,
            "4-core makespan {quad:?} should be ~serial/4 of {serial:?}"
        );
        // Perfect split: 8 × 10ms on 4 cores = 20ms (+ overhead).
        assert!(quad >= Duration::from_millis(20));
        assert!(quad < Duration::from_millis(21));
        // One core degenerates to serial.
        assert_eq!(ws.makespan(&d, 1), serial);
    }

    #[test]
    fn fifo_overhead_exceeds_work_stealing() {
        let d = vec![Duration::from_micros(5); 1000];
        let ws = ExecutorKind::WorkStealing.makespan(&d, 4);
        let fifo = ExecutorKind::Fifo.makespan(&d, 4);
        assert!(
            fifo > ws,
            "GCD-like dispatch must cost more: {fifo:?} vs {ws:?}"
        );
    }

    #[test]
    fn makespan_handles_uneven_tasks() {
        // One long task dominates.
        let mut d = vec![Duration::from_millis(1); 10];
        d.push(Duration::from_millis(100));
        let m = ExecutorKind::WorkStealing.makespan(&d, 4);
        assert!(m >= Duration::from_millis(100));
        assert!(m < Duration::from_millis(110));
    }
}
