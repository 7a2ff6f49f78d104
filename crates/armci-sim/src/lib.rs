//! In-process simulated cluster fabric with ARMCI-style active messages.
//!
//! The original MRTS runs on clusters and uses ARMCI (Aggregate Remote
//! Memory Copy Interface) for low-level one-sided inter-node communication.
//! The runtime needs one part of it, and this crate reproduces that part
//! for a *simulated* cluster: the "nodes" are threads of one process,
//! connected by a [`Fabric`] providing
//!
//! * **active messages** ([`Endpoint::am_send`]) — one-sided sends of
//!   `(handler, payload)` pairs that need no posted receive, and
//! * a configurable [`NetworkModel`] (per-message latency + bandwidth) that
//!   delays message visibility.
//!
//! Everything is deterministic when the network model is
//! [`NetworkModel::instant`] and the threads are driven deterministically.

// Runtime code says why a value cannot be absent (`.expect`); tests unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// A 2000s-era cluster interconnect (in line with SciClone/STEMS).
    pub fn cluster() -> Self {
        NetworkModel {
            latency: Duration::from_micros(50),
            bandwidth: 100e6,
        }
    }

    /// Zero latency, infinite bandwidth: messages are visible immediately.
    pub fn instant() -> Self {
        NetworkModel {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
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
// other lock and sends nothing. A poisoned lock still hands out its guard.

#[derive(Default)]
struct Inbox {
    /// Leaf lock.
    heap: Mutex<BinaryHeap<Reverse<TimedMsg>>>,
    cond: Condvar,
}

impl Inbox {
    fn lock(&self) -> MutexGuard<'_, BinaryHeap<Reverse<TimedMsg>>> {
        self.heap.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Shared {
    n: usize,
    model: NetworkModel,
    inboxes: Vec<Inbox>,
    seq: AtomicU64,
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
            seq: AtomicU64::new(0),
        });
        (0..n)
            .map(|i| Endpoint {
                node: i as NodeId,
                shared: shared.clone(),
            })
            .collect::<Vec<_>>()
    }
}

/// One node's handle to the fabric.
pub struct Endpoint {
    node: NodeId,
    shared: Arc<Shared>,
}

impl Endpoint {
    /// One-sided send: the receiver needs no matching receive call; the
    /// message becomes visible after the network model's delay.
    pub fn am_send(&mut self, dest: NodeId, handler: u32, payload: Vec<u8>) {
        assert!((dest as usize) < self.shared.n, "no such node {dest}");
        let deliver_at = Instant::now() + self.shared.model.transfer_time(payload.len());
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let inbox = &self.shared.inboxes[dest as usize];
        inbox.lock().push(Reverse(TimedMsg {
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
        let mut heap = inbox.lock();
        if let Some(Reverse(top)) = heap.peek() {
            if top.deliver_at <= Instant::now() {
                return Some(heap.pop().expect("peek() just returned this entry").0.msg);
            }
        }
        None
    }

    /// Blocking receive with a timeout. Returns `None` on timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<ActiveMessage> {
        let deadline = Instant::now() + timeout;
        let inbox = &self.shared.inboxes[self.node as usize];
        let mut heap = inbox.lock();
        loop {
            let now = Instant::now();
            match heap.peek() {
                Some(Reverse(top)) if top.deliver_at <= now => {
                    return Some(heap.pop().expect("peek() just returned this entry").0.msg);
                }
                _ if now >= deadline => return None,
                // Wait until the head ripens or the deadline passes.
                top => {
                    let wake = top.map_or(deadline, |Reverse(t)| t.deliver_at.min(deadline));
                    let waited = inbox.cond.wait_timeout(heap, wake - now);
                    heap = waited.unwrap_or_else(PoisonError::into_inner).0;
                }
            }
        }
    }

    /// Number of queued (possibly not yet ripe) messages.
    pub fn pending(&self) -> usize {
        self.shared.inboxes[self.node as usize].lock().len()
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
        assert!(b.try_recv().is_none());
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
