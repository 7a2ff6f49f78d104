//! The spill executor: every operation on a node's spill store, written
//! once for both engines and for the reads after a run.
//!
//! A store batch, a load and a health probe each run against the node's
//! store under its lock, are retried under [`ENGINE_RETRY`] (`ENOSPC`
//! stops at once), and drain the store's fault, compaction and read
//! reports after every attempt, so none of those buffers grows. A store
//! packs into buffers from the caller's [`BufferPool`] and hands every
//! buffer back, whether the batch landed or not; a rejected batch returns
//! its objects. A load reads into a pooled buffer and unpacks from it.
//! Each operation returns an [`IoReport`] of what it met — the faults of
//! every attempt, its retries, the time it waited, the cleaning passes and
//! reads it caused — which `NodeCore::fold_io` folds into the node's
//! counters and audit stream on the control thread.
//!
//! What stays the caller's is time. [`SpillIo::new`] takes how to wait out
//! a retry backoff or an injected latency: a live executor sleeps (outside
//! the store lock), a virtual one does not wait and charges
//! [`IoReport::waited`] to its virtual disk channel instead. Each clock
//! charges the pack, I/O and unpack durations its own way.

use crate::config::MrtsConfig;
use crate::fault::{is_out_of_space, FaultPlan, FaultReport, FaultyStore, MrtsError, ENGINE_RETRY};
use crate::ids::{NodeId, ObjectId};
use crate::lock;
use crate::object::{MobileObject, Registry};
use crate::storage::{MemStore, SegmentStore, StorageBackend};
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One node's spill store and its executor, shared by whatever performs
/// the node's I/O during a run and read by the result accessors after it.
pub(crate) type SharedStore = Arc<SpillIo>;

/// Every node's spill store, on either clock: a segment log under
/// `node-<i>` of the spill directory when `live` (in memory without one),
/// in memory in virtual time. Under a storage fault plan each is wrapped
/// in its own schedule (`plan.seed + node`, like distinct physical disks
/// failing independently). A live executor sleeps out its waits; a
/// virtual one only reports them.
pub(crate) fn open_stores(cfg: &MrtsConfig, live: bool) -> Vec<SharedStore> {
    (0..cfg.nodes)
        .map(|i| {
            let store: Box<dyn StorageBackend> = match &cfg.spill_dir {
                Some(dir) if live => Box::new(
                    SegmentStore::open(
                        dir.join(format!("node-{i}")),
                        cfg.segment_bytes,
                        cfg.segment_garbage_frac,
                    )
                    .expect("spill dir")
                    .cleanup_on_drop(true),
                ),
                _ => Box::new(MemStore::new()),
            };
            let store: Box<dyn StorageBackend> = match cfg.fault {
                Some(plan) => Box::new(FaultyStore::new(
                    store,
                    FaultPlan {
                        seed: plan.seed.wrapping_add(i as u64),
                        ..plan
                    },
                )),
                None => store,
            };
            let wait: fn(Duration) = if live { std::thread::sleep } else { |_| {} };
            SpillIo::new(i as NodeId, store, wait)
        })
        .collect()
}

/// A node's spill store and the one definition of every operation on it
/// (see the module docs). Public in a private module, like the engine
/// hooks: nothing outside the crate can name it.
pub struct SpillIo {
    node: NodeId,
    /// A leaf lock: each hold is one store call and the report drains
    /// after it; no wait happens under it.
    store: Mutex<Box<dyn StorageBackend>>,
    /// Waits out a retry backoff or an injected latency.
    wait: fn(Duration),
}

/// What one spill operation met on its way, for the node's counters and
/// audit stream (`NodeCore::fold_io`).
#[derive(Debug)]
pub(crate) struct IoReport {
    /// The object the operation's `Retry` events name: a batch's first.
    pub oid: ObjectId,
    /// Every injected fault, with the 1-based attempt that drew it.
    pub faults: Vec<(u32, FaultReport)>,
    /// Failed attempts that were retried: the operation made
    /// `retries + 1` attempts.
    pub retries: u32,
    /// The store or load failed for good.
    pub gave_up: bool,
    /// Injected latency and retry backoff, waited out through the
    /// executor's `wait`.
    pub waited: Duration,
    /// Wall-clock time of the attempts, waits included.
    pub io_dur: Duration,
    /// The store's sequential-read tracker: loads served and segment
    /// switches ([`StorageBackend::take_read_stats`]).
    pub seg_reads: usize,
    pub seg_switches: usize,
    /// Pack buffers of a landed batch that came from the pool.
    pub pool_hits: usize,
}

impl IoReport {
    pub(crate) fn new(oid: ObjectId) -> IoReport {
        IoReport {
            oid,
            faults: Vec::new(),
            retries: 0,
            gave_up: false,
            waited: Duration::ZERO,
            io_dur: Duration::ZERO,
            seg_reads: 0,
            seg_switches: 0,
            pool_hits: 0,
        }
    }
}

/// The outcome of [`SpillIo::store`].
pub(crate) struct Stored {
    pub report: IoReport,
    /// `(oid, packed_len)` per object, in batch order.
    pub packed: Vec<(ObjectId, usize)>,
    pub pack_dur: Duration,
    /// The batch was rejected as a whole after exhausting the retry
    /// policy, or with `ENOSPC` (a prefix may have landed, but no record
    /// is trusted): every object, in batch order, to reinstate in core.
    pub rejected: Option<Vec<Box<dyn MobileObject>>>,
}

/// The outcome of [`SpillIo::load`]: the object and its packed length,
/// or the typed error of an unreadable one.
pub(crate) struct Loaded {
    pub report: IoReport,
    pub outcome: Result<(Box<dyn MobileObject>, usize), MrtsError>,
    pub unpack_dur: Duration,
}

impl SpillIo {
    pub(crate) fn new(
        node: NodeId,
        store: Box<dyn StorageBackend>,
        wait: fn(Duration),
    ) -> SharedStore {
        Arc::new(SpillIo {
            node,
            store: Mutex::new(store),
            wait,
        })
    }

    /// The store itself, for calls outside the spill policy (placement
    /// hints, inspection).
    pub(crate) fn lock(&self) -> MutexGuard<'_, Box<dyn StorageBackend>> {
        lock(&self.store)
    }

    /// Run `op` against the store until it succeeds or fails for good,
    /// recording every attempt in `report`; `salt` keys the backoff
    /// jitter. A torn write is repaired by the retry overwriting the same
    /// keys: per-key ordering means no load races a store.
    fn attempt<T>(
        &self,
        report: &mut IoReport,
        salt: u64,
        mut op: impl FnMut(&mut dyn StorageBackend) -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let res = loop {
            let attempt = report.retries + 1;
            let (res, faults, (reads, switches)) = {
                let mut s = self.lock();
                let res = op(s.as_mut());
                let faults = s.take_fault_reports();
                // Nothing reads a pass's report; draining keeps them bounded.
                s.take_compaction_reports();
                (res, faults, s.take_read_stats())
            };
            let mut pause: Duration = faults.iter().map(|f| f.delay).sum();
            report
                .faults
                .extend(faults.into_iter().map(|f| (attempt, f)));
            report.seg_reads += reads as usize;
            report.seg_switches += switches as usize;
            let retry = res
                .as_ref()
                .is_err_and(|e| attempt < ENGINE_RETRY.max_attempts && !is_out_of_space(e));
            if retry {
                report.retries += 1;
                pause += ENGINE_RETRY.delay(attempt, salt);
            }
            if !pause.is_zero() {
                (self.wait)(pause);
                report.waited += pause;
            }
            if !retry {
                break res;
            }
        };
        report.io_dur += t0.elapsed();
        res
    }

    /// Pack `items` into pooled buffers and land them through one
    /// [`StorageBackend::store_batch`] call — a single coalesced append on
    /// the segment log. An object is dropped once packed, unless `keep`:
    /// then a rejected batch hands back the very objects it was given
    /// rather than ones rebuilt from their packed bytes.
    pub(crate) fn store(
        &self,
        pool: &BufferPool,
        items: Vec<(u64, ObjectId, Box<dyn MobileObject>)>,
        registry: &Registry,
        keep: bool,
    ) -> Stored {
        let t0 = Instant::now();
        let mut report = IoReport::new(items[0].1);
        let (mut hits, mut kept) = (0, Vec::new());
        let mut packed = Vec::with_capacity(items.len());
        let mut bufs = Vec::with_capacity(items.len());
        for (key, oid, obj) in items {
            let (mut buf, hit) = pool.get();
            hits += usize::from(hit);
            Registry::pack_into(obj.as_ref(), &mut buf);
            packed.push((oid, buf.len()));
            bufs.push((key, buf));
            if keep {
                kept.push(obj);
            }
        }
        let pack_dur = t0.elapsed();
        let batch: Vec<(u64, &[u8])> = bufs.iter().map(|(k, b)| (*k, b.as_slice())).collect();
        let landed = (self.attempt(&mut report, bufs[0].0, |s| s.store_batch(&batch))).is_ok();
        report.gave_up = !landed;
        let rejected = match (landed, keep) {
            (true, _) => {
                report.pool_hits = hits;
                None
            }
            (false, true) => Some(kept),
            (false, false) => Some(
                (bufs.iter())
                    .map(|(_, b)| {
                        (registry.unpack(b)).expect("store holds pack output of registered types")
                    })
                    .collect(),
            ),
        };
        for (_, buf) in bufs {
            pool.put(buf);
        }
        Stored {
            report,
            packed,
            pack_dur,
            rejected,
        }
    }

    /// Read the packed bytes of spilled object `oid` (spill key `key`)
    /// into `buf`. Exhaustion is the object's loss: `MrtsError::LoadFailed`.
    pub(crate) fn read(
        &self,
        key: u64,
        oid: ObjectId,
        buf: &mut Vec<u8>,
    ) -> (IoReport, Result<(), MrtsError>) {
        let mut report = IoReport::new(oid);
        let res = self.attempt(&mut report, key, |s| s.load_into(key, buf));
        report.gave_up = res.is_err();
        let res = res.map_err(|source| MrtsError::LoadFailed {
            node: self.node,
            oid,
            attempts: report.retries + 1,
            source,
        });
        (report, res)
    }

    /// [`SpillIo::read`] into a pooled buffer, unpacked from it.
    pub(crate) fn load(
        &self,
        pool: &BufferPool,
        key: u64,
        oid: ObjectId,
        registry: &Registry,
    ) -> Loaded {
        let (mut buf, _) = pool.get();
        let (report, res) = self.read(key, oid, &mut buf);
        let t0 = Instant::now();
        let outcome = res.map(|()| {
            let obj = registry.unpack(&buf);
            let obj = obj.expect("store holds pack output of registered types");
            (obj, buf.len())
        });
        let unpack_dur = t0.elapsed();
        pool.put(buf);
        Loaded {
            report,
            outcome,
            unpack_dur,
        }
    }

    /// Health check of the store (degraded-mode recovery): whether it
    /// accepts writes again.
    pub(crate) fn probe(&self) -> (IoReport, bool) {
        let mut report = IoReport::new(ObjectId(0));
        let ok = self.attempt(&mut report, 0, |s| s.probe()).is_ok();
        (report, ok)
    }
}

/// Bounded pool of reusable pack and load buffers: at most `max` idle
/// buffers are kept, the rest are dropped.
pub(crate) struct BufferPool {
    /// Leaf lock: held only to pop or push one buffer.
    bufs: Mutex<Vec<Vec<u8>>>,
    max: usize,
}

impl BufferPool {
    pub(crate) fn new(max: usize) -> Self {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
            max,
        }
    }

    /// A buffer to pack or load into, plus whether it came from the pool
    /// (its capacity is reused — no fresh allocation on the hot path).
    fn get(&self) -> (Vec<u8>, bool) {
        match lock(&self.bufs).pop() {
            Some(b) => (b, true),
            None => (Vec::new(), false),
        }
    }

    /// Return a buffer with its contents: `pack_into` clears what it
    /// packs into, and a load overwrites all but what it has to grow, so
    /// a buffer that keeps its length skips zeroing it again.
    fn put(&self, buf: Vec<u8>) {
        let mut g = lock(&self.bufs);
        if g.len() < self.max {
            g.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyStore};
    use crate::object::test_objects::{Counter, COUNTER_TAG};
    use crate::storage::MemStore;

    fn faulty(plan: FaultPlan) -> SharedStore {
        let store = FaultyStore::new(Box::new(MemStore::new()), plan);
        SpillIo::new(0, Box::new(store), |_| {})
    }

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register_type(COUNTER_TAG, Counter::decode);
        reg
    }

    fn batch(n: u64) -> Vec<(u64, ObjectId, Box<dyn MobileObject>)> {
        (0..n)
            .map(|i| {
                let obj: Box<dyn MobileObject> = Box::new(Counter::new(i, 100));
                (i, ObjectId::new(0, i), obj)
            })
            .collect()
    }

    fn value(obj: &dyn MobileObject) -> u64 {
        obj.as_any()
            .downcast_ref::<Counter>()
            .expect("a counter")
            .value
    }

    /// A batch rejected with `ENOSPC` is not retried, gives every object
    /// back (rebuilt, or the very ones given) and every pack buffer back
    /// to the pool.
    #[test]
    fn a_rejected_batch_returns_its_objects_and_its_buffers() {
        let reg = registry();
        for keep in [false, true] {
            let io = faulty(FaultPlan::new(1).with_enospc_window(0, 100));
            let pool = BufferPool::new(8);
            let s = io.store(&pool, batch(3), &reg, keep);
            assert!(s.report.gave_up && s.report.retries == 0, "{:?}", s.report);
            assert_eq!(s.report.faults.len(), 1);
            assert_eq!(s.report.faults[0].1.kind, FaultKind::Enospc);
            assert_eq!(s.report.pool_hits, 0, "no hit counts for a rejected batch");
            let back = s.rejected.expect("rejected");
            assert_eq!(
                back.iter().map(|o| value(o.as_ref())).collect::<Vec<_>>(),
                [0, 1, 2]
            );
            assert_eq!(lock(&pool.bufs).len(), 3, "the batch's buffers are pooled");
            // The next batch reuses them.
            let io = faulty(FaultPlan::new(1));
            let s = io.store(&pool, batch(3), &reg, keep);
            assert!(s.rejected.is_none() && s.report.pool_hits == 3);
        }
    }

    /// Transient faults are retried with backoff; each attempt's faults
    /// are reported under its number, and the waits add up.
    #[test]
    fn transient_faults_are_retried_and_reported_per_attempt() {
        let reg = registry();
        let plan = FaultPlan::new(17)
            .with_eio(500)
            .with_latency(300, Duration::from_micros(7));
        let io = faulty(plan);
        let pool = BufferPool::new(2);
        let (mut retried, mut delayed) = (0, Duration::ZERO);
        for i in 0..40u64 {
            let obj: Box<dyn MobileObject> = Box::new(Counter::new(i, 10));
            let s = io.store(&pool, vec![(i, ObjectId::new(0, i), obj)], &reg, false);
            let r = &s.report;
            assert_eq!(r.gave_up, s.rejected.is_some());
            assert!(!r.gave_up || r.retries + 1 == ENGINE_RETRY.max_attempts);
            // Every failed attempt drew exactly one EIO; each retry's
            // backoff and every injected latency were waited out.
            let failed = r.retries + u32::from(r.gave_up);
            let eio = r
                .faults
                .iter()
                .filter(|(_, f)| f.kind == FaultKind::TransientEio);
            let numbers: Vec<u32> = eio.map(|(a, _)| *a).collect();
            assert_eq!(numbers, (1..=failed).collect::<Vec<_>>());
            let latency: Duration = r.faults.iter().map(|(_, f)| f.delay).sum();
            let backoff: Duration = (1..=r.retries).map(|a| ENGINE_RETRY.delay(a, i)).sum();
            assert_eq!(r.waited, backoff + latency);
            (retried, delayed) = (retried + r.retries, delayed + latency);
        }
        assert!(retried > 0, "a 50 % fault rate never retried");
        assert!(!delayed.is_zero(), "a 30 % latency rate never fired");
    }

    /// A read that keeps failing is the object's loss, typed.
    #[test]
    fn an_exhausted_read_is_a_typed_loss() {
        let mut plan = FaultPlan::new(3);
        plan.load_eio_permille = 1000;
        let io = faulty(plan);
        let (r, res) = io.read(9, ObjectId::new(0, 9), &mut Vec::new());
        assert!(r.gave_up && r.retries + 1 == ENGINE_RETRY.max_attempts);
        assert!(matches!(
            res,
            Err(MrtsError::LoadFailed { attempts, .. }) if attempts == ENGINE_RETRY.max_attempts
        ));
    }

    /// Reads after a run (`for_each_object`, `checkpoint`) go through the
    /// executor too, so a fault plan that keeps injecting leaves nothing
    /// behind in the store's report buffer.
    #[test]
    fn post_run_reads_drain_the_fault_reports() {
        let plan = FaultPlan::new(5).with_latency(1000, Duration::from_micros(1));
        let mut rt = crate::des::DesRuntime::new(
            crate::config::MrtsConfig::out_of_core(1, 2_000).with_faults(plan),
        );
        rt.register_type(COUNTER_TAG, Counter::decode);
        for i in 0..8 {
            rt.create_object(0, Box::new(Counter::new(i, 500)), 128);
        }
        rt.run();
        assert!(!rt.stores[0].lock().is_empty(), "nothing spilled");
        rt.stores[0].lock().take_fault_reports();
        for _ in 0..3 {
            rt.for_each_object(|_, _| {});
            rt.checkpoint();
        }
        let left = rt.stores[0].lock().take_fault_reports();
        assert!(left.is_empty(), "{} reports left behind", left.len());
    }
}
