//! Fault tolerance: deterministic storage fault injection, retry policy,
//! and the typed error surfaced when recovery is impossible.
//!
//! The paper's conclusion argues that "check and restore functionality
//! for fault tolerance can be implemented with little effort on top of
//! the out-of-core subsystem". This module supplies the testing half of
//! that claim: [`FaultyStore`] wraps any [`StorageBackend`] and injects
//! **seed-scheduled, deterministic faults** — transient `EIO`, torn
//! (short) writes, an `ENOSPC` window, and latency spikes — so both
//! engines can be driven through storage failures reproducibly. The
//! recovery half lives in the spill executor both engines share (retry
//! under [`ENGINE_RETRY`]), in degraded mode ([`crate::ooc::OocManager`])
//! and in [`crate::checkpoint`] (crash/restart).
//!
//! Determinism contract: every injected fault is a pure function of the
//! plan seed and a per-operation counter (`mix64(seed ^ op-tag ^ count)`),
//! never of wall-clock time or thread interleaving. A retry advances the
//! counter, so a "transient" fault really is transient: the retried
//! operation draws a fresh decision. Running the same plan twice injects
//! the same fault sequence.

use crate::audit::mix64;
use crate::ids::{NodeId, ObjectId};
use crate::storage::{CompactionReport, StorageBackend};
use std::io;
use std::time::Duration;

/// The kinds of storage fault [`FaultyStore`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation fails with `EIO`; nothing was written or read.
    TransientEio,
    /// A store wrote only a prefix of the payload before failing — the
    /// backend now holds a corrupt record for that key until a retry
    /// overwrites it.
    TornWrite,
    /// The device is full: stores (and probes) fail with `ENOSPC` for a
    /// configured window of operations.
    Enospc,
    /// The operation succeeds but only after an added delay.
    Latency,
}

/// Which storage operation a fault hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOp {
    Store,
    Load,
    Probe,
}

/// One injected fault, drained by the engine through
/// [`StorageBackend::take_fault_reports`] for stats and audit events.
#[derive(Clone, Copy, Debug)]
pub struct FaultReport {
    pub kind: FaultKind,
    pub op: FaultOp,
    pub key: u64,
    /// Added delay (zero for non-latency faults), reported rather than
    /// slept: the spill executor waits it out on the engine's clock.
    pub delay: Duration,
}

/// A deterministic, seed-scheduled fault schedule.
///
/// Rates are in permille (0‥=1000) per operation; each store/load draws an
/// independent decision from `mix64(seed ^ tag ^ op-counter)`. The
/// `ENOSPC` window is expressed in store-operation counts: stores (and
/// backend probes, which advance the same counter) fail while the counter
/// is inside `[enospc_at, enospc_at + enospc_len)` — probing is what
/// eventually moves the counter past the window, so degraded mode exits
/// deterministically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision (and retry jitter, via the config).
    pub seed: u64,
    /// Permille of stores failing with a transient `EIO`.
    pub store_eio_permille: u16,
    /// Permille of loads failing with a transient `EIO`.
    pub load_eio_permille: u16,
    /// Permille of stores writing only half the payload before failing.
    pub torn_write_permille: u16,
    /// Permille of operations hit by a latency spike.
    pub latency_permille: u16,
    /// The added delay of one latency spike.
    pub latency: Duration,
    /// Store-op counter at which the `ENOSPC` window opens (`None`: never).
    pub enospc_at: Option<u64>,
    /// Length of the `ENOSPC` window in store/probe operations.
    pub enospc_len: u64,
    /// Restrict injection to this key (`None`: all keys). Probes and the
    /// `ENOSPC` window ignore the restriction — a full disk is full for
    /// every key.
    pub only_key: Option<u64>,
}

impl FaultPlan {
    /// A quiet plan: no faults until rates are raised.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            store_eio_permille: 0,
            load_eio_permille: 0,
            torn_write_permille: 0,
            latency_permille: 0,
            latency: Duration::from_micros(500),
            enospc_at: None,
            enospc_len: 0,
            only_key: None,
        }
    }

    /// A quiet plan whose seed is scoped to `job`: jobs sharing one base
    /// chaos `seed` draw from independent fault streams, so one job's
    /// retries never perturb another job's fault schedule. This is the
    /// per-job fault-domain contract of [`crate::service::JobService`].
    pub fn for_job(seed: u64, job: u64) -> Self {
        FaultPlan::new(mix64(seed ^ job.wrapping_mul(0xA24B_AED4_963E_E407)))
    }

    /// Transient `EIO` on both stores and loads at `permille`.
    pub fn with_eio(mut self, permille: u16) -> Self {
        self.store_eio_permille = permille;
        self.load_eio_permille = permille;
        self
    }

    pub fn with_torn_writes(mut self, permille: u16) -> Self {
        self.torn_write_permille = permille;
        self
    }

    pub fn with_latency(mut self, permille: u16, delay: Duration) -> Self {
        self.latency_permille = permille;
        self.latency = delay;
        self
    }

    /// Open an `ENOSPC` window covering `len` store operations starting at
    /// store-op counter `at`.
    pub fn with_enospc_window(mut self, at: u64, len: u64) -> Self {
        self.enospc_at = Some(at);
        self.enospc_len = len;
        self
    }

    pub fn for_key(mut self, key: u64) -> Self {
        self.only_key = Some(key);
        self
    }

    /// Deterministic permille draw for operation number `count` of the
    /// operation class `tag`.
    fn draw(&self, tag: u64, count: u64) -> u16 {
        (mix64(self.seed ^ tag.wrapping_mul(0x9E37_79B9) ^ count) % 1000) as u16
    }

    fn key_matches(&self, key: u64) -> bool {
        self.only_key.is_none_or(|k| k == key)
    }

    fn in_enospc_window(&self, store_ops: u64) -> bool {
        self.enospc_at
            .is_some_and(|at| store_ops >= at && store_ops < at + self.enospc_len)
    }
}

const TAG_STORE_EIO: u64 = 1;
const TAG_LOAD_EIO: u64 = 2;
const TAG_TORN: u64 = 3;
const TAG_LAT_STORE: u64 = 4;
const TAG_LAT_LOAD: u64 = 5;

fn eio(what: &str, key: u64) -> io::Error {
    // Raw EIO so callers can distinguish media errors from NotFound.
    io::Error::new(
        io::Error::from_raw_os_error(5).kind(),
        format!("injected EIO: {what} key {key}"),
    )
}

fn enospc() -> io::Error {
    io::Error::new(
        io::Error::from_raw_os_error(28).kind(),
        "injected ENOSPC: device full",
    )
}

/// True when an error is the out-of-space class that triggers degraded
/// mode rather than a plain retry-and-give-up.
pub fn is_out_of_space(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
        || e.kind() == io::Error::from_raw_os_error(28).kind()
        || e.to_string().contains("ENOSPC")
}

/// A [`StorageBackend`] wrapper injecting the faults of a [`FaultPlan`].
///
/// Fault decisions are drawn per operation from the plan seed; every
/// retry advances the per-class counter and so draws fresh. Torn writes
/// really corrupt the inner backend (a half-payload record is stored)
/// before the error returns — safe under both engines because per-key
/// ordering means nothing loads a key while its store is still being
/// retried, and the retry overwrites the torn record.
pub struct FaultyStore {
    inner: Box<dyn StorageBackend>,
    plan: FaultPlan,
    store_ops: u64,
    load_ops: u64,
    reports: Vec<FaultReport>,
}

impl FaultyStore {
    pub fn new(inner: Box<dyn StorageBackend>, plan: FaultPlan) -> Self {
        FaultyStore {
            inner,
            plan,
            store_ops: 0,
            load_ops: 0,
            reports: Vec::new(),
        }
    }

    fn report(&mut self, kind: FaultKind, op: FaultOp, key: u64, delay: Duration) {
        self.reports.push(FaultReport {
            kind,
            op,
            key,
            delay,
        });
    }

    /// Draw the faults of one load attempt: the same schedule whether it
    /// goes through `load` or `load_into`.
    fn load_faults(&mut self, key: u64) -> io::Result<()> {
        let count = self.load_ops;
        self.load_ops += 1;
        if self.plan.key_matches(key)
            && self.plan.draw(TAG_LOAD_EIO, count) < self.plan.load_eio_permille
        {
            self.report(FaultKind::TransientEio, FaultOp::Load, key, Duration::ZERO);
            return Err(eio("load", key));
        }
        self.maybe_latency(TAG_LAT_LOAD, count, FaultOp::Load, key);
        Ok(())
    }

    fn maybe_latency(&mut self, tag: u64, count: u64, op: FaultOp, key: u64) {
        if self.plan.key_matches(key) && self.plan.draw(tag, count) < self.plan.latency_permille {
            self.report(FaultKind::Latency, op, key, self.plan.latency);
        }
    }
}

impl StorageBackend for FaultyStore {
    fn store(&mut self, key: u64, data: &[u8]) -> io::Result<()> {
        let count = self.store_ops;
        self.store_ops += 1;
        if self.plan.in_enospc_window(count) {
            self.report(FaultKind::Enospc, FaultOp::Store, key, Duration::ZERO);
            return Err(enospc());
        }
        if self.plan.key_matches(key) {
            if self.plan.draw(TAG_TORN, count) < self.plan.torn_write_permille {
                // Half the payload reaches the backend before the failure.
                let _ = self.inner.store(key, &data[..data.len() / 2]);
                self.report(FaultKind::TornWrite, FaultOp::Store, key, Duration::ZERO);
                return Err(eio("torn write", key));
            }
            if self.plan.draw(TAG_STORE_EIO, count) < self.plan.store_eio_permille {
                self.report(FaultKind::TransientEio, FaultOp::Store, key, Duration::ZERO);
                return Err(eio("store", key));
            }
        }
        self.maybe_latency(TAG_LAT_STORE, count, FaultOp::Store, key);
        self.inner.store(key, data)
    }

    fn load(&mut self, key: u64) -> io::Result<Vec<u8>> {
        self.load_faults(key)?;
        self.inner.load(key)
    }

    fn load_into(&mut self, key: u64, buf: &mut Vec<u8>) -> io::Result<()> {
        self.load_faults(key)?;
        self.inner.load_into(key, buf)
    }

    fn remove(&mut self, key: u64) -> io::Result<()> {
        self.inner.remove(key)
    }

    fn bytes_stored(&self) -> u64 {
        self.inner.bytes_stored()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn probe(&mut self) -> io::Result<()> {
        // A probe advances the store-op counter, so a finite ENOSPC
        // window always drains: degraded mode exits deterministically.
        let count = self.store_ops;
        self.store_ops += 1;
        if self.plan.in_enospc_window(count) {
            self.report(FaultKind::Enospc, FaultOp::Probe, 0, Duration::ZERO);
            return Err(enospc());
        }
        self.inner.probe()
    }

    fn take_compaction_reports(&mut self) -> Vec<CompactionReport> {
        self.inner.take_compaction_reports()
    }

    fn take_fault_reports(&mut self) -> Vec<FaultReport> {
        std::mem::take(&mut self.reports)
    }

    fn take_read_stats(&mut self) -> (u64, u64) {
        self.inner.take_read_stats()
    }
}

/// Bounded exponential backoff for storage retries, with deterministic
/// seed-derived jitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retrying.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Cap on the exponential delay (jitter may add up to 25% more).
    pub max_delay: Duration,
    /// Seed for the jitter draw (combined with a per-operation salt).
    pub jitter_seed: u64,
}

/// Retry/backoff policy of every spill-store operation, applied by the
/// spill executor both engines share (also paces message retransmission
/// in the reliable-delivery layer).
pub const ENGINE_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_delay: Duration::from_micros(200),
    max_delay: Duration::from_millis(10),
    jitter_seed: 0,
};

impl Default for RetryPolicy {
    fn default() -> Self {
        ENGINE_RETRY
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the delay after the
    /// first failure is `delay(1, _)`). Deterministic in `(self, salt)`.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let backoff = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        let jitter_span = (backoff.as_nanos() / 4) as u64;
        let jitter = if jitter_span == 0 {
            0
        } else {
            mix64(self.jitter_seed ^ salt.wrapping_mul(0xA24B_AED4) ^ attempt as u64) % jitter_span
        };
        backoff + Duration::from_nanos(jitter)
    }
}

/// Typed runtime failure: what the engines return instead of panicking
/// when recovery is impossible.
#[derive(Debug)]
pub enum MrtsError {
    /// A spilled object could not be read back after exhausting retries —
    /// its state is lost, the run cannot continue.
    LoadFailed {
        node: NodeId,
        oid: ObjectId,
        attempts: u32,
        source: io::Error,
    },
    /// A checkpoint image was rejected (truncated, bad magic, or an
    /// incomplete segmented capture).
    CheckpointCorrupt(String),
    /// A peer never acknowledged a message despite exhausting the
    /// retransmit budget *after* directory-hint invalidation and
    /// re-routing to the object's home — the node is dead or partitioned
    /// away for good. Recovery is a checkpoint restore onto the surviving
    /// nodes (see `crate::checkpoint`).
    NodeUnreachable {
        /// The node that gave up.
        node: NodeId,
        /// The peer that never answered.
        dest: NodeId,
        /// Physical transmissions attempted for the abandoned message.
        attempts: u32,
    },
    /// A frame arrived that is not part of the node-to-node vocabulary:
    /// an unknown tag, or a payload its tag cannot parse. The fabric is
    /// in-process, so this is a bug or memory damage, never line noise —
    /// but it fails the run instead of panicking a worker thread.
    BadFrame {
        /// The node that received the frame.
        node: NodeId,
        /// The node it came from.
        src: NodeId,
        tag: u32,
    },
    /// A node's state broke one of the runtime invariants at a transition
    /// (debug builds check them on every node; see `crate::audit`). The
    /// violation names the node, the transition and the object.
    Invariant(crate::audit::Violation),
    /// A replay left its decision log (`crate::replay`): at decision `index`
    /// of `node`, the worker met `found` where the log says `expected`.
    ReplayDiverged {
        node: NodeId,
        index: usize,
        expected: Option<crate::replay::Decision>,
        found: String,
    },
}

impl std::fmt::Display for MrtsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrtsError::LoadFailed {
                node,
                oid,
                attempts,
                source,
            } => write!(
                f,
                "node {node}: load of spilled {oid:?} failed after {attempts} attempts: {source}"
            ),
            MrtsError::CheckpointCorrupt(why) => write!(f, "checkpoint corrupt: {why}"),
            MrtsError::NodeUnreachable {
                node,
                dest,
                attempts,
            } => write!(
                f,
                "node {node}: peer {dest} unreachable after {attempts} transmissions"
            ),
            MrtsError::BadFrame { node, src, tag } => {
                write!(
                    f,
                    "node {node}: undecodable frame from node {src}, tag {tag}"
                )
            }
            MrtsError::Invariant(v) => write!(f, "invariant violated: {v}"),
            MrtsError::ReplayDiverged {
                node,
                index,
                expected,
                found,
            } => write!(
                f,
                "node {node}: replay diverged at decision {index}: expected {expected:?}, found {found}"
            ),
        }
    }
}

impl std::error::Error for MrtsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MrtsError::LoadFailed { source, .. } => Some(source),
            MrtsError::CheckpointCorrupt(_)
            | MrtsError::NodeUnreachable { .. }
            | MrtsError::BadFrame { .. }
            | MrtsError::Invariant(_)
            | MrtsError::ReplayDiverged { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStore;

    fn faulty(plan: FaultPlan) -> FaultyStore {
        FaultyStore::new(Box::new(MemStore::new()), plan)
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut s = faulty(FaultPlan::new(1));
        s.store(1, b"hello").unwrap();
        assert_eq!(s.load(1).unwrap(), b"hello");
        s.remove(1).unwrap();
        s.probe().unwrap();
        assert!(s.take_fault_reports().is_empty());
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut s = faulty(FaultPlan::new(seed).with_eio(300));
            (0..100u64).map(|k| s.store(k, b"x").is_err()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seed, different sequence");
        let faults = run(42).iter().filter(|&&e| e).count();
        assert!(
            (10..=60).contains(&faults),
            "300‰ over 100 ops should land near 30, got {faults}"
        );
    }

    #[test]
    fn transient_eio_clears_on_retry() {
        // At a 100% rate every op fails; at partial rates a failed op's
        // retry draws a fresh decision, so a bounded retry loop always
        // makes progress at sub-certainty rates.
        let mut s = faulty(FaultPlan::new(7).with_eio(400));
        for key in 0..50u64 {
            let mut done = false;
            for _ in 0..20 {
                if s.store(key, &[key as u8; 8]).is_ok() {
                    done = true;
                    break;
                }
            }
            assert!(done, "store of key {key} never succeeded");
        }
        for key in 0..50u64 {
            let mut got = None;
            for _ in 0..20 {
                if let Ok(v) = s.load(key) {
                    got = Some(v);
                    break;
                }
            }
            assert_eq!(got.unwrap(), vec![key as u8; 8]);
        }
        let reports = s.take_fault_reports();
        assert!(reports
            .iter()
            .all(|r| r.kind == FaultKind::TransientEio || r.kind == FaultKind::Latency));
        assert!(!reports.is_empty());
    }

    #[test]
    fn torn_write_corrupts_then_retry_overwrites() {
        let mut s = faulty(FaultPlan::new(3).with_torn_writes(1000));
        let payload = vec![0xABu8; 64];
        let err = s.store(9, &payload).unwrap_err();
        assert!(err.to_string().contains("torn"));
        // The backend now holds the corrupt half-record.
        assert_eq!(s.load(9).unwrap().len(), 32);
        // A plan that stops tearing lets the retry overwrite it.
        s.plan.torn_write_permille = 0;
        s.store(9, &payload).unwrap();
        assert_eq!(s.load(9).unwrap(), payload);
    }

    #[test]
    fn enospc_window_opens_and_drains_via_probes() {
        let mut s = faulty(FaultPlan::new(5).with_enospc_window(2, 3));
        s.store(0, b"a").unwrap();
        s.store(1, b"b").unwrap();
        // Window open: ops 2, 3, 4 fail.
        for k in 2..5u64 {
            let e = s.store(k, b"x").unwrap_err();
            assert!(is_out_of_space(&e), "{e}");
        }
        // Counter is now 5 — past the window; probe and stores succeed.
        s.probe().unwrap();
        s.store(9, b"ok").unwrap();
        let enospc_count = s
            .take_fault_reports()
            .iter()
            .filter(|r| r.kind == FaultKind::Enospc)
            .count();
        assert_eq!(enospc_count, 3);
    }

    #[test]
    fn probes_drain_the_window_without_stores() {
        let mut s = faulty(FaultPlan::new(5).with_enospc_window(0, 4));
        assert!(s.probe().is_err());
        assert!(s.probe().is_err());
        assert!(s.probe().is_err());
        assert!(s.probe().is_err());
        s.probe().unwrap();
        s.store(1, b"x").unwrap();
    }

    #[test]
    fn load_into_draws_the_same_faults_as_load() {
        let plan = FaultPlan::new(17)
            .with_eio(300)
            .with_latency(200, Duration::from_micros(5));
        let run = |pooled: bool| {
            let mut s = faulty(plan);
            for key in 0..20u64 {
                while s.store(key, &[key as u8; 16]).is_err() {}
            }
            s.take_fault_reports();
            let mut buf = Vec::new();
            let got: Vec<Option<Vec<u8>>> = (0..200u64)
                .map(|i| match pooled {
                    true => s.load_into(i % 20, &mut buf).ok().map(|()| buf.clone()),
                    false => s.load(i % 20).ok(),
                })
                .collect();
            let faults: Vec<(FaultKind, u64)> = s
                .take_fault_reports()
                .iter()
                .map(|r| (r.kind, r.key))
                .collect();
            (got, faults)
        };
        let (loaded, load_faults) = run(false);
        assert!(loaded.iter().any(Option::is_none), "some loads must fail");
        assert_eq!(run(true), (loaded, load_faults));
    }

    #[test]
    fn per_key_restriction_spares_other_keys() {
        let mut s = faulty(FaultPlan::new(11).with_eio(1000).for_key(42));
        s.store(1, b"fine").unwrap();
        assert!(s.store(42, b"doomed").is_err());
        assert_eq!(s.load(1).unwrap(), b"fine");
    }

    #[test]
    fn latency_reports_carry_delay() {
        let mut s = faulty(FaultPlan::new(13).with_latency(1000, Duration::from_micros(250)));
        s.store(1, b"x").unwrap();
        s.load(1).unwrap();
        let reports = s.take_fault_reports();
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .all(|r| r.kind == FaultKind::Latency && r.delay == Duration::from_micros(250)));
    }

    #[test]
    fn retry_policy_backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(1, 9), p.delay(1, 9));
        assert_ne!(p.delay(1, 9), p.delay(2, 9), "jitter varies by attempt");
        let mut prev = Duration::ZERO;
        for attempt in 1..=12 {
            let d = p.delay(attempt, 0);
            assert!(d >= prev || d >= p.max_delay, "backoff grows to the cap");
            assert!(d <= p.max_delay + p.max_delay / 4, "cap + 25% jitter");
            prev = d.min(p.max_delay);
        }
    }

    #[test]
    fn mrts_error_displays_and_sources() {
        let e = MrtsError::LoadFailed {
            node: 2,
            oid: ObjectId::new(2, 7),
            attempts: 4,
            source: eio("load", 9),
        };
        assert!(e.to_string().contains("after 4 attempts"));
        assert!(std::error::Error::source(&e).is_some());
        let c = MrtsError::CheckpointCorrupt("bad magic".into());
        assert!(c.to_string().contains("bad magic"));
    }
}
