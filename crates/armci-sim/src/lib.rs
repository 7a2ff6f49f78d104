//! In-process simulated cluster fabric with ARMCI-style one-sided
//! communication.
//!
//! The original MRTS runs on clusters and uses ARMCI (Aggregate Remote
//! Memory Copy Interface) for low-level one-sided inter-node communication:
//! data transfer operations, atomic operations, memory management, and
//! locks. This crate reproduces that API surface for a *simulated* cluster:
//! the "nodes" are threads of one process, connected by a [`Fabric`]
//! providing
//!
//! * **active messages** ([`Endpoint::am_send`]) — one-sided sends of
//!   `(handler, payload)` pairs that need no posted receive,
//! * **one-sided memory** — [`Endpoint::put`], [`Endpoint::get`], and
//!   [`Endpoint::accumulate_u64`] against registered remote regions,
//! * **global locks** ([`Endpoint::lock`] / [`Endpoint::unlock`]) and a
//!   [`Endpoint::barrier`],
//! * a configurable [`NetworkModel`] (per-message latency + bandwidth) that
//!   delays message visibility, and
//! * per-endpoint traffic statistics ([`Endpoint::stats`]) used by the
//!   runtime's communication accounting.
//!
//! Everything is deterministic when the network model is
//! [`NetworkModel::instant`] and the threads are driven deterministically.

// Runtime code says why a value cannot be absent (`.expect`); tests unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of a simulated node.
pub type NodeId = u16;

/// A delivered active message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActiveMessage {
    pub src: NodeId,
    pub handler: u32,
    pub payload: Vec<u8>,
}

/// Latency/bandwidth model for message visibility.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Fixed per-message latency.
    pub latency: Duration,
    /// Bytes per second; `f64::INFINITY` disables the bandwidth term.
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Zero latency, infinite bandwidth: messages are visible immediately.
    pub fn instant() -> Self {
        NetworkModel {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
        }
    }

    /// A model resembling a 2000s-era cluster interconnect.
    pub fn cluster() -> Self {
        NetworkModel {
            latency: Duration::from_micros(50),
            bandwidth: 100e6,
        }
    }

    /// Transfer time for a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        if self.bandwidth.is_finite() && self.bandwidth > 0.0 {
            self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
        } else {
            self.latency
        }
    }
}

#[derive(Debug)]
struct TimedMsg {
    deliver_at: Instant,
    seq: u64,
    msg: ActiveMessage,
}

impl PartialEq for TimedMsg {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for TimedMsg {}
impl PartialOrd for TimedMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

// Every lock in this file is a leaf: each hold is one block that takes no
// other lock and sends nothing; `region()` releases `regions` before the
// caller locks the region it returns.

#[derive(Default)]
struct Inbox {
    /// Leaf lock.
    heap: Mutex<BinaryHeap<Reverse<TimedMsg>>>,
    cond: Condvar,
}

#[derive(Default)]
struct BarrierState {
    /// Leaf lock: (waiting, generation).
    count: Mutex<(usize, u64)>,
    cond: Condvar,
}

/// Traffic counters for one endpoint.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    pub msgs_sent: usize,
    pub bytes_sent: usize,
    pub msgs_received: usize,
    pub bytes_received: usize,
    pub puts: usize,
    pub gets: usize,
}

/// Each region's memory sits behind its own leaf lock.
type RegionMap = HashMap<(NodeId, u64), Arc<Mutex<Vec<u8>>>>;

struct Shared {
    n: usize,
    model: NetworkModel,
    inboxes: Vec<Inbox>,
    /// Leaf lock: held only to insert or clone out one region.
    regions: Mutex<RegionMap>,
    /// Leaf lock: the global-lock table.
    locks: Mutex<HashMap<u64, NodeId>>,
    locks_cond: Condvar,
    barrier: BarrierState,
    seq: AtomicU64,
    live_endpoints: AtomicUsize,
}

/// The simulated interconnect; create one per simulated cluster.
pub struct Fabric;

impl Fabric {
    /// Build a fabric with `n` nodes; returns one [`Endpoint`] per node.
    /// `Fabric` is a constructor namespace only -- all state lives in the
    /// endpoints' shared core, so there is no `Self` to return.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize, model: NetworkModel) -> Vec<Endpoint> {
        assert!(n > 0 && n <= u16::MAX as usize);
        let shared = Arc::new(Shared {
            n,
            model,
            inboxes: (0..n).map(|_| Inbox::default()).collect(),
            regions: Mutex::new(HashMap::new()),
            locks: Mutex::new(HashMap::new()),
            locks_cond: Condvar::new(),
            barrier: BarrierState::default(),
            seq: AtomicU64::new(0),
            live_endpoints: AtomicUsize::new(n),
        });
        (0..n)
            .map(|i| Endpoint {
                node: i as NodeId,
                shared: shared.clone(),
                stats: TrafficStats::default(),
            })
            .collect::<Vec<_>>()
    }
}

/// One node's handle to the fabric.
pub struct Endpoint {
    node: NodeId,
    shared: Arc<Shared>,
    stats: TrafficStats,
}

impl Endpoint {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the fabric.
    pub fn num_nodes(&self) -> usize {
        self.shared.n
    }

    /// Traffic counters for this endpoint.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    // ----- active messages ------------------------------------------------

    /// One-sided send: the receiver needs no matching receive call; the
    /// message becomes visible after the network model's delay.
    pub fn am_send(&mut self, dest: NodeId, handler: u32, payload: Vec<u8>) {
        assert!((dest as usize) < self.shared.n, "no such node {dest}");
        let bytes = payload.len();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        let deliver_at = Instant::now() + self.shared.model.transfer_time(bytes);
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let inbox = &self.shared.inboxes[dest as usize];
        inbox.heap.lock().push(Reverse(TimedMsg {
            deliver_at,
            seq,
            msg: ActiveMessage {
                src: self.node,
                handler,
                payload,
            },
        }));
        inbox.cond.notify_one();
    }

    /// Non-blocking receive of the next ripe message.
    pub fn try_recv(&mut self) -> Option<ActiveMessage> {
        let inbox = &self.shared.inboxes[self.node as usize];
        let mut heap = inbox.heap.lock();
        if let Some(Reverse(top)) = heap.peek() {
            if top.deliver_at <= Instant::now() {
                let msg = heap.pop().expect("peek() just returned this entry").0.msg;
                self.stats.msgs_received += 1;
                self.stats.bytes_received += msg.payload.len();
                return Some(msg);
            }
        }
        None
    }

    /// Blocking receive with a timeout. Returns `None` on timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ActiveMessage> {
        let deadline = Instant::now() + timeout;
        let inbox = &self.shared.inboxes[self.node as usize];
        let mut heap = inbox.heap.lock();
        loop {
            let now = Instant::now();
            if let Some(Reverse(top)) = heap.peek() {
                if top.deliver_at <= now {
                    let msg = heap.pop().expect("peek() just returned this entry").0.msg;
                    self.stats.msgs_received += 1;
                    self.stats.bytes_received += msg.payload.len();
                    return Some(msg);
                }
                // Wait until the head ripens or the deadline passes.
                let wake = top.deliver_at.min(deadline);
                if wake <= now {
                    return None;
                }
                inbox.cond.wait_until(&mut heap, wake);
            } else {
                if now >= deadline {
                    return None;
                }
                inbox.cond.wait_until(&mut heap, deadline);
            }
            if Instant::now() >= deadline
                && heap.peek().is_none_or(|Reverse(t)| t.deliver_at > deadline)
            {
                return None;
            }
        }
    }

    /// Number of queued (possibly not yet ripe) messages.
    pub fn pending(&self) -> usize {
        self.shared.inboxes[self.node as usize].heap.lock().len()
    }

    // ----- one-sided memory -------------------------------------------------

    /// Register a region of `size` bytes under `key` on this node. Remote
    /// nodes address it as `(node, key)`.
    pub fn register_region(&mut self, key: u64, size: usize) {
        let mut regions = self.shared.regions.lock();
        let prev = regions.insert((self.node, key), Arc::new(Mutex::new(vec![0; size])));
        assert!(prev.is_none(), "region {key} already registered");
    }

    fn region(&self, node: NodeId, key: u64) -> Arc<Mutex<Vec<u8>>> {
        self.shared
            .regions
            .lock()
            .get(&(node, key))
            .unwrap_or_else(|| panic!("no region {key} on node {node}"))
            .clone()
    }

    /// One-sided write into a remote (or local) region.
    pub fn put(&mut self, node: NodeId, key: u64, offset: usize, data: &[u8]) {
        let region = self.region(node, key);
        let mut mem = region.lock();
        mem[offset..offset + data.len()].copy_from_slice(data);
        self.stats.puts += 1;
        self.stats.bytes_sent += data.len();
    }

    /// One-sided read from a remote (or local) region.
    pub fn get(&mut self, node: NodeId, key: u64, offset: usize, len: usize) -> Vec<u8> {
        let region = self.region(node, key);
        let mem = region.lock();
        self.stats.gets += 1;
        self.stats.bytes_received += len;
        mem[offset..offset + len].to_vec()
    }

    /// Atomic fetch-and-add on a little-endian u64 in a remote region;
    /// returns the previous value.
    pub fn accumulate_u64(&mut self, node: NodeId, key: u64, offset: usize, delta: u64) -> u64 {
        let region = self.region(node, key);
        let mut mem = region.lock();
        let old = u64::from_le_bytes(
            mem[offset..offset + 8]
                .try_into()
                .expect("accumulate window is 8 bytes"),
        );
        mem[offset..offset + 8].copy_from_slice(&old.wrapping_add(delta).to_le_bytes());
        old
    }

    // ----- global locks and barrier ------------------------------------------

    /// Acquire global lock `id` (blocking; not reentrant).
    pub fn lock(&self, id: u64) {
        let mut locks = self.shared.locks.lock();
        while locks.contains_key(&id) {
            assert_ne!(
                locks.get(&id),
                Some(&self.node),
                "global lock {id} is not reentrant"
            );
            self.shared.locks_cond.wait(&mut locks);
        }
        locks.insert(id, self.node);
    }

    /// Release global lock `id`; panics if this node does not hold it.
    pub fn unlock(&self, id: u64) {
        let mut locks = self.shared.locks.lock();
        match locks.remove(&id) {
            Some(owner) if owner == self.node => {}
            other => panic!(
                "unlock of lock {id} not held by node {} ({other:?})",
                self.node
            ),
        }
        self.shared.locks_cond.notify_all();
    }

    /// Barrier over all live endpoints of the fabric.
    pub fn barrier(&self) {
        let total = self.shared.live_endpoints.load(Ordering::SeqCst);
        let mut guard = self.shared.barrier.count.lock();
        let gen = guard.1;
        guard.0 += 1;
        if guard.0 >= total {
            guard.0 = 0;
            guard.1 += 1;
            self.shared.barrier.cond.notify_all();
        } else {
            while guard.1 == gen {
                self.shared.barrier.cond.wait(&mut guard);
            }
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shared.live_endpoints.fetch_sub(1, Ordering::SeqCst);
        // A dying endpoint may strand a barrier; wake waiters so they can
        // re-check the live count. (The runtime never drops endpoints while
        // a barrier is in flight, but tests might.)
        self.shared.barrier.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn am_roundtrip_two_nodes() {
        let mut eps = Fabric::new(2, NetworkModel::instant());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.am_send(1, 7, vec![1, 2, 3]);
        let msg = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.src, 0);
        assert_eq!(msg.handler, 7);
        assert_eq!(msg.payload, vec![1, 2, 3]);
        assert_eq!(a.stats().msgs_sent, 1);
        assert_eq!(b.stats().msgs_received, 1);
        assert_eq!(b.stats().bytes_received, 3);
    }

    #[test]
    fn self_send_works() {
        let mut eps = Fabric::new(1, NetworkModel::instant());
        let mut a = eps.pop().unwrap();
        a.am_send(0, 42, vec![]);
        assert_eq!(a.try_recv().unwrap().handler, 42);
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn latency_delays_visibility() {
        let model = NetworkModel {
            latency: Duration::from_millis(30),
            bandwidth: f64::INFINITY,
        };
        let mut eps = Fabric::new(2, model);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.am_send(1, 1, vec![0; 16]);
        // Not visible immediately...
        assert!(b.try_recv().is_none());
        assert_eq!(b.pending(), 1);
        // ...but visible after the latency.
        let msg = b.recv_timeout(Duration::from_millis(500));
        assert!(msg.is_some());
    }

    #[test]
    fn message_order_preserved_between_endpoints() {
        let mut eps = Fabric::new(2, NetworkModel::instant());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100u32 {
            a.am_send(1, i, vec![]);
        }
        for i in 0..100u32 {
            let m = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.handler, i, "messages must arrive in send order");
        }
    }

    #[test]
    fn put_get_accumulate() {
        let mut eps = Fabric::new(2, NetworkModel::instant());
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.register_region(5, 64);
        a.put(1, 5, 8, &[9, 9, 9]);
        assert_eq!(a.get(1, 5, 8, 3), vec![9, 9, 9]);
        assert_eq!(b.get(1, 5, 8, 3), vec![9, 9, 9]);
        let old = a.accumulate_u64(1, 5, 16, 10);
        assert_eq!(old, 0);
        let old = b.accumulate_u64(1, 5, 16, 5);
        assert_eq!(old, 10);
        assert_eq!(
            u64::from_le_bytes(a.get(1, 5, 16, 8).try_into().unwrap()),
            15
        );
    }

    #[test]
    #[should_panic(expected = "no region")]
    fn unknown_region_panics() {
        let mut eps = Fabric::new(1, NetworkModel::instant());
        let mut a = eps.pop().unwrap();
        a.get(0, 99, 0, 1);
    }

    #[test]
    fn global_locks_mutual_exclusion() {
        let eps = Fabric::new(4, NetworkModel::instant());
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for ep in eps {
            let counter = counter.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    ep.lock(1);
                    // Critical section: non-atomic read-modify-write.
                    let v = *counter.lock();
                    thread::yield_now();
                    *counter.lock() = v + 1;
                    ep.unlock(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 400);
    }

    #[test]
    fn barrier_synchronizes_all_nodes() {
        let eps = Fabric::new(4, NetworkModel::instant());
        let flag = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for (i, ep) in eps.into_iter().enumerate() {
            let flag = flag.clone();
            handles.push(thread::spawn(move || {
                for round in 0..10 {
                    if i == 0 {
                        flag.store(round + 1, Ordering::SeqCst);
                    }
                    ep.barrier();
                    // After the barrier, everyone must see round+1.
                    assert_eq!(flag.load(Ordering::SeqCst), round + 1);
                    ep.barrier();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cross_thread_am_traffic() {
        let mut eps = Fabric::new(3, NetworkModel::instant());
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let (mut a, mut b, mut c) = (a, b, c);
        let t1 = thread::spawn(move || {
            for i in 0..50 {
                a.am_send(2, i, vec![i as u8]);
            }
            a
        });
        let t2 = thread::spawn(move || {
            for i in 0..50 {
                b.am_send(2, 100 + i, vec![i as u8]);
            }
            b
        });
        let mut got = 0;
        while got < 100 {
            if c.recv_timeout(Duration::from_secs(2)).is_some() {
                got += 1;
            } else {
                panic!("timed out after {got} messages");
            }
        }
        t1.join().unwrap();
        t2.join().unwrap();
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn transfer_time_model() {
        let m = NetworkModel {
            latency: Duration::from_micros(100),
            bandwidth: 1e6, // 1 MB/s
        };
        let t = m.transfer_time(1_000_000);
        assert!((t.as_secs_f64() - 1.0001).abs() < 1e-6);
        assert_eq!(
            NetworkModel::instant().transfer_time(1 << 30),
            Duration::ZERO
        );
    }
}
