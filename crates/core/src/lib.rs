//! # MRTS — the Multi-layered Run-Time System
//!
//! A Rust reproduction of the out-of-core parallel runtime of Kot,
//! Chernikov & Chrisochoides (IPDPS 2011): location-independent **mobile
//! objects** addressed by **mobile pointers**, one-sided **active
//! messages** executed by registered handlers, an **out-of-core layer**
//! that spills objects (and their message queues) to disk under memory
//! pressure, a **control layer** with a lazily-updated distributed object
//! directory and migration, and a **computing layer** wrapping two
//! task-parallel backends (work-stealing / global FIFO).
//!
//! The runtime is one API, [`runtime::Runtime<E>`], over either of two
//! clocks — and one implementation of the out-of-core and control layers:
//! the private `node` module's `NodeCore` decides what to evict, elide,
//! spill, load and prefetch, routes messages, keeps the directory,
//! migrates and installs objects behind one `NetMsg` vocabulary, performs
//! no I/O and sends nothing itself. One worker loop (the private `worker`
//! module: Safra's termination ring, the reliable-delivery layer, work
//! stealing) drives it under both clocks, through a gateway that answers
//! every question about time. Bootstrap, the state kept between runs,
//! result access, checkpoint and restore are written once, on
//! `Runtime<E>`; the engine `E` only supplies its stores and runs:
//!
//! * [`des::DesRuntime`] (`Runtime<des::Des>`) — deterministic
//!   **virtual-time** execution: every node's worker really runs, stepped
//!   on one host thread in virtual-time order, while handler, network and
//!   disk costs are charged on virtual clocks. This mode regenerates the
//!   paper's evaluation on a machine with any number of cores.
//! * [`threaded::ThreadedRuntime`] (`Runtime<threaded::Threads>`) — real
//!   OS threads, one worker per simulated node, exchanging active
//!   messages over the in-process [`armci_sim`] fabric, with real
//!   file-backed spill and record/replay.
//!
//! Code generic over `E: `[`runtime::Engine`] runs on both.
//!
//! See the `pumg-methods` crate for complete applications (the out-of-core
//! parallel mesh generation methods of the paper) and `DESIGN.md` at the
//! workspace root for the system inventory.

// Runtime code says why a value cannot be absent (`.expect`); tests unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod audit;
pub mod checkpoint;
pub mod codec;
pub mod compute;
pub mod config;
pub mod ctx;
pub mod des;
pub mod directory;
pub mod fault;
pub mod ids;
pub mod locality;
pub mod msg;
pub mod netfault;
mod node;
pub mod object;
pub mod ooc;
pub mod policy;
pub mod relnet;
pub mod replay;
pub mod runtime;
pub mod sched;
pub mod service;
mod spill_io;
pub mod stats;
pub mod storage;
pub mod threaded;
mod worker;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// `m`'s guard, poisoned or not: a panic under one of the crate's locks
/// surfaces where it happened, and the next holder carries on.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` on a thread of its own and wait at most `secs` for it, so a run
/// that hangs fails its test instead of hanging it.
#[cfg(test)]
pub(crate) fn within_seconds<R: Send + 'static>(
    secs: u64,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(f))));
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(out) => out.unwrap_or_else(|panic| resume_unwind(panic)),
        Err(_) => panic!("the run hung"),
    }
}

/// The commonly used names in one import.
pub mod prelude {
    pub use crate::audit::{
        EventLog, EventSink, FailMode, FanOut, InvariantChecker, RaceDetector, RuntimeEvent,
        ServiceEvent, ServiceEventSink, ServiceLog,
    };
    pub use crate::codec::{PayloadReader, PayloadWriter};
    pub use crate::compute::ExecutorKind;
    pub use crate::config::{MrtsConfig, NetModel};
    pub use crate::ctx::Ctx;
    pub use crate::des::{Des, DesRuntime};
    pub use crate::fault::{FaultKind, FaultPlan, FaultyStore, MrtsError, RetryPolicy};
    pub use crate::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
    pub use crate::netfault::{NetFaultKind, NetFaultPlan};
    pub use crate::object::{MobileObject, ObjectDecodeError, Registry};
    pub use crate::policy::PolicyKind;
    pub use crate::replay::{Decision, DecisionLog, DivergenceReport, ReplayArtifact};
    pub use crate::runtime::{Engine, Runtime};
    pub use crate::sched::{ConflictSet, PhaseGate, RegionDag};
    pub use crate::service::{
        AdmissionError, Job, JobAttempt, JobFailure, JobId, JobOutcome, JobProgress, JobService,
        JobSpec, JobState, QuarantineArtifact, ServiceConfig, ServiceStats,
    };
    pub use crate::stats::RunStats;
    pub use crate::storage::DiskModel;
    pub use crate::threaded::{ThreadedRuntime, Threads};
}
