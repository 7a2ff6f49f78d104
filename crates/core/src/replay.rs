//! Deterministic record/replay for the threaded engine.
//!
//! The threaded engine is live nondeterminism end to end: which active
//! message wins the control loop's drain, which I/O completion lands
//! first, when a retransmit backoff expires. A failing chaos schedule is
//! therefore a heisenbug — the seed pins the *fault plan*, not the
//! *schedule*. This module converts every such failure into a replayable
//! artifact by putting the worker's inputs behind one gateway that logs
//! every answer (the contract of `SNIPPETS.md` snippet 3):
//!
//! * **Record** — the live gateway (`threaded.rs`) appends every answer
//!   it gives (which fabric frame is next, which I/O completion is next,
//!   which deferred flushes and retransmit timers are due) to a per-node
//!   log of [`Decision`]s; the run's canonical audit stream is captured
//!   alongside it.
//! * **Replay** — a third gateway (`Replayed`) answers from the log, and
//!   one thread steps every worker: no fabric, I/O pool or worker thread.
//!   Frames wait in one FIFO per edge, a spill request runs when it is
//!   issued, due flushes and timers are read off the log; only a frame
//!   can be asked for before its sender has run ("later": another node
//!   steps). Everything else — steals included — is a pure function of
//!   these answers. Leaving the log — a mismatch, a log that runs out,
//!   answers left when a node stops, a round in which no node moves —
//!   fails the run with [`MrtsError::ReplayDiverged`]; there is no
//!   fallback. The replayed audit stream is then compared event for event
//!   with the recorded one, and the first mismatch per node is reported
//!   with its index and a surrounding window.
//!
//! The comparison is over the **canonical** stream ([`canonicalize`]):
//! events rendered as their `Debug` text, one lane per node, in program
//! order — every event of a node is emitted by its worker, the storage
//! faults and retries of an I/O completion included, when the worker
//! folds that completion in. Under a storage fault plan the lane is a
//! deterministic sequence only with `io_threads = 1`: fault draws follow
//! the store's operation counter, and which pool thread reaches it first
//! is not recorded (see the determinism contract table in `DESIGN.md`
//! §14).

use crate::audit::RuntimeEvent;
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::object::Registry;
use crate::spill_io::{BufferPool, SharedStore};
use crate::stats::NodeStats;
use crate::worker::{Due, Gateway, IoDone, IoReq, NetLayer, Recv, Worker, WorkerResult};
use armci_sim::ActiveMessage;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default byte cap for an encoded decision log: generous for any chaos
/// schedule in the tree (a full OPCDM sweep schedule records well under
/// a megabyte per node) while bounding a runaway recording.
pub const DEFAULT_LOG_BYTE_CAP: usize = 32 << 20;

// ---------------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------------

/// Which I/O completion variant a recorded [`Decision::IoDone`] released
/// (mirrors the threaded engine's internal `IoDone` enum). Every store is
/// a batch — an eviction of one object is a batch of one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    StoredBatch,
    StoreBatchFailed,
    Loaded,
    LoadFailed,
    Probed,
}

impl IoKind {
    // Wire tags 0 and 4 (the single-object `Stored` / `StoreFailed`
    // completions) are retired: they decode as `BadIoKind`, and no new
    // kind reuses them.
    pub fn from_u8(b: u8) -> Option<IoKind> {
        Some(match b {
            1 => IoKind::StoredBatch,
            2 => IoKind::StoreBatchFailed,
            3 => IoKind::Loaded,
            5 => IoKind::LoadFailed,
            6 => IoKind::Probed,
            _ => return None,
        })
    }

    pub fn as_u8(self) -> u8 {
        match self {
            IoKind::StoredBatch => 1,
            IoKind::StoreBatchFailed => 2,
            IoKind::Loaded => 3,
            IoKind::LoadFailed => 5,
            IoKind::Probed => 6,
        }
    }
}

/// One recorded answer of a worker's input gateway. The log is a
/// per-node sequence of these; everything the worker does between
/// inputs is a pure function of them, so replaying the inputs replays
/// the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// A fabric receive returned the next message from `src` carrying
    /// active-message tag `tag` (per-edge FIFO makes "next from `src`"
    /// a complete identification).
    FabricRecv { src: NodeId, tag: u32 },
    /// A fabric receive found nothing ripe (drain loop ends / idle wait
    /// timed out).
    FabricEmpty,
    /// The I/O pool delivered the completion of kind `kind` for object
    /// `oid` (0 for completions without an object, i.e. health probes).
    /// Per-key ordering in the pool makes `(kind, oid)` unique among
    /// in-flight operations.
    IoDone { kind: IoKind, oid: u64 },
    /// The I/O completion drain found nothing pending.
    IoEmpty,
    /// The reliable layer flushed the deferred (delayed/reordered)
    /// transmission of sequence number `seq` towards `dest`.
    FlushDeferred { dest: NodeId, seq: u64 },
    /// The retransmit backoff timer for `(dest, seq)` fired.
    TimerExpire { dest: NodeId, seq: u64 },
    /// The list of due flushes and timers handed to the reliable layer's
    /// pump ends here.
    PumpEnd,
}

// Decision wire tags. 7 and 8 (the steal request and grant, now derived
// from the inputs instead of logged) are retired: they decode as
// `BadDecisionTag`, and no new decision reuses them.
const D_FABRIC_RECV: u8 = 0;
const D_FABRIC_EMPTY: u8 = 1;
const D_IO_DONE: u8 = 2;
const D_IO_EMPTY: u8 = 3;
const D_FLUSH_DEFERRED: u8 = 4;
const D_TIMER_EXPIRE: u8 = 5;
const D_PUMP_END: u8 = 6;

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, ReplayDecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or(ReplayDecodeError::Truncated { at: *pos })?;
        *pos += 1;
        if shift >= 64 {
            return Err(ReplayDecodeError::VarintOverflow { at: *pos });
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ReplayDecodeError> {
    let b = *buf
        .get(*pos)
        .ok_or(ReplayDecodeError::Truncated { at: *pos })?;
    *pos += 1;
    Ok(b)
}

// ---------------------------------------------------------------------------
// Decision log codec
// ---------------------------------------------------------------------------

/// Typed decode failure of a decision log, artifact, or event stream.
#[derive(Debug, PartialEq, Eq)]
pub enum ReplayDecodeError {
    /// The buffer ended inside a record.
    Truncated {
        at: usize,
    },
    BadMagic,
    BadVersion(u32),
    BadDecisionTag {
        at: usize,
        tag: u8,
    },
    BadIoKind {
        at: usize,
        kind: u8,
    },
    VarintOverflow {
        at: usize,
    },
    /// A declared count would overrun the remaining buffer — rejected
    /// before allocating for a hostile length.
    CountTooLarge {
        at: usize,
        count: u64,
    },
    BadUtf8 {
        at: usize,
    },
}

impl fmt::Display for ReplayDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayDecodeError::Truncated { at } => write!(f, "truncated at byte {at}"),
            ReplayDecodeError::BadMagic => write!(f, "bad magic (not a replay file)"),
            ReplayDecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            ReplayDecodeError::BadDecisionTag { at, tag } => {
                write!(f, "unknown decision tag {tag} at byte {at}")
            }
            ReplayDecodeError::BadIoKind { at, kind } => {
                write!(f, "unknown io-completion kind {kind} at byte {at}")
            }
            ReplayDecodeError::VarintOverflow { at } => {
                write!(f, "varint overflow at byte {at}")
            }
            ReplayDecodeError::CountTooLarge { at, count } => {
                write!(f, "count {count} at byte {at} overruns the buffer")
            }
            ReplayDecodeError::BadUtf8 { at } => write!(f, "invalid utf-8 at byte {at}"),
        }
    }
}

impl std::error::Error for ReplayDecodeError {}

const LOG_MAGIC: &[u8; 8] = b"MRTSDLG1";
const LOG_VERSION: u32 = 1;
/// Header flag: the encoder hit its byte cap and dropped tail decisions.
const FLAG_TRUNCATED: u8 = 1;

/// The per-node decision streams of one recorded run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecisionLog {
    pub nodes: Vec<Vec<Decision>>,
}

impl DecisionLog {
    pub fn new(n_nodes: usize) -> DecisionLog {
        DecisionLog {
            nodes: vec![Vec::new(); n_nodes],
        }
    }

    /// Total decisions across nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compact binary encoding under `cap` bytes. Runs of the payloadless
    /// decisions (`FabricEmpty` / `IoEmpty` / `PumpEnd` — the bulk of an
    /// idle control loop) are run-length encoded. When the cap is hit,
    /// whole tail decisions are dropped (never a partial record) and the
    /// truncation flag is set in the header; a truncated log replays as
    /// far as it goes, then diverges (`expected: None`).
    /// Returns the bytes and whether truncation occurred.
    pub fn encode(&self, cap: usize) -> (Vec<u8>, bool) {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(LOG_MAGIC);
        out.extend_from_slice(&LOG_VERSION.to_le_bytes());
        let flags_at = out.len();
        out.push(0);
        put_varint(&mut out, self.nodes.len() as u64);
        let mut truncated = false;
        for decisions in &self.nodes {
            let mut section = Vec::new();
            let mut count = 0usize;
            let mut i = 0usize;
            while i < decisions.len() {
                let mut rec = Vec::new();
                let run = encode_decision_run(&decisions[i..], &mut rec);
                // +10 covers the section's own count varint.
                if truncated || out.len() + section.len() + rec.len() + 10 > cap {
                    truncated = true;
                    break;
                }
                section.extend_from_slice(&rec);
                count += run;
                i += run;
            }
            put_varint(&mut out, count as u64);
            out.extend_from_slice(&section);
        }
        if truncated {
            out[flags_at] |= FLAG_TRUNCATED;
        }
        (out, truncated)
    }

    /// Strict decode: any malformed or truncated byte is a typed error.
    pub fn decode(buf: &[u8]) -> Result<DecisionLog, ReplayDecodeError> {
        if buf.len() < 8 || &buf[..8] != LOG_MAGIC {
            return Err(ReplayDecodeError::BadMagic);
        }
        if buf.len() < 13 {
            return Err(ReplayDecodeError::Truncated { at: buf.len() });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes checked"));
        if version != LOG_VERSION {
            return Err(ReplayDecodeError::BadVersion(version));
        }
        let mut pos = 13usize; // past magic + version + flags
        let n_nodes = get_varint(buf, &mut pos)?;
        // A node section is ≥ 1 byte; a count beyond the buffer is hostile.
        if n_nodes > buf.len() as u64 {
            let count = n_nodes;
            return Err(ReplayDecodeError::CountTooLarge { at: pos, count });
        }
        let mut log = DecisionLog::default();
        for _ in 0..n_nodes {
            let count = get_varint(buf, &mut pos)?;
            // RLE means the decision count can far exceed the byte count;
            // bound it at 2^32 per node (far past any real recording)
            // rather than against the buffer length.
            if count > (1 << 32) {
                return Err(ReplayDecodeError::CountTooLarge { at: pos, count });
            }
            let mut decisions = Vec::new();
            while (decisions.len() as u64) < count {
                let at = pos;
                decode_decision_run(buf, &mut pos, &mut decisions)?;
                // A valid encoder never lets a run overshoot the declared
                // count; a hostile one is rejected before the next record.
                if decisions.len() as u64 > count {
                    return Err(ReplayDecodeError::CountTooLarge { at, count });
                }
            }
            log.nodes.push(decisions);
        }
        Ok(log)
    }
}

/// Encode `decisions[0]` (coalescing a run of identical payloadless
/// decisions) into `out`; returns how many decisions were consumed.
fn encode_decision_run(decisions: &[Decision], out: &mut Vec<u8>) -> usize {
    let d = decisions[0];
    let run_tag = match d {
        Decision::FabricEmpty => Some(D_FABRIC_EMPTY),
        Decision::IoEmpty => Some(D_IO_EMPTY),
        Decision::PumpEnd => Some(D_PUMP_END),
        _ => None,
    };
    if let Some(tag) = run_tag {
        let run = decisions.iter().take_while(|x| **x == d).count();
        out.push(tag);
        put_varint(out, run as u64);
        return run;
    }
    match d {
        Decision::FabricRecv { src, tag } => {
            out.push(D_FABRIC_RECV);
            put_varint(out, u64::from(src));
            put_varint(out, u64::from(tag));
        }
        Decision::IoDone { kind, oid } => {
            out.push(D_IO_DONE);
            out.push(kind.as_u8());
            put_varint(out, oid);
        }
        Decision::FlushDeferred { dest, seq } => {
            out.push(D_FLUSH_DEFERRED);
            put_varint(out, u64::from(dest));
            put_varint(out, seq);
        }
        Decision::TimerExpire { dest, seq } => {
            out.push(D_TIMER_EXPIRE);
            put_varint(out, u64::from(dest));
            put_varint(out, seq);
        }
        Decision::FabricEmpty | Decision::IoEmpty | Decision::PumpEnd => {
            unreachable!("handled as runs above")
        }
    }
    1
}

fn decode_decision_run(
    buf: &[u8],
    pos: &mut usize,
    out: &mut Vec<Decision>,
) -> Result<(), ReplayDecodeError> {
    let at = *pos;
    let tag = get_u8(buf, pos)?;
    match tag {
        D_FABRIC_EMPTY | D_IO_EMPTY | D_PUMP_END => {
            let run = get_varint(buf, pos)?;
            // Each run element was a real recorded decision: a run longer
            // than any plausible recording is a hostile count.
            if run > (1 << 32) {
                return Err(ReplayDecodeError::CountTooLarge { at, count: run });
            }
            let d = match tag {
                D_FABRIC_EMPTY => Decision::FabricEmpty,
                D_IO_EMPTY => Decision::IoEmpty,
                _ => Decision::PumpEnd,
            };
            for _ in 0..run {
                out.push(d);
            }
        }
        D_FABRIC_RECV => {
            let src = get_varint(buf, pos)? as NodeId;
            let t = get_varint(buf, pos)? as u32;
            out.push(Decision::FabricRecv { src, tag: t });
        }
        D_IO_DONE => {
            let kat = *pos;
            let k = get_u8(buf, pos)?;
            let kind =
                IoKind::from_u8(k).ok_or(ReplayDecodeError::BadIoKind { at: kat, kind: k })?;
            let oid = get_varint(buf, pos)?;
            out.push(Decision::IoDone { kind, oid });
        }
        D_FLUSH_DEFERRED => {
            let dest = get_varint(buf, pos)? as NodeId;
            let seq = get_varint(buf, pos)?;
            out.push(Decision::FlushDeferred { dest, seq });
        }
        D_TIMER_EXPIRE => {
            let dest = get_varint(buf, pos)? as NodeId;
            let seq = get_varint(buf, pos)?;
            out.push(Decision::TimerExpire { dest, seq });
        }
        other => return Err(ReplayDecodeError::BadDecisionTag { at, tag: other }),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Canonical audit stream + divergence detection
// ---------------------------------------------------------------------------

/// The node a runtime event is attributed to. Total: every variant
/// carries its node, and this `match` names every variant, so the
/// canonical stream's per-node lanes cannot miss one.
pub fn event_node(ev: &RuntimeEvent) -> NodeId {
    use RuntimeEvent::*;
    match ev {
        Create { node, .. }
        | Load { node, .. }
        | Unload { node, .. }
        | ElidedUnload { node, .. }
        | Pin { node, .. }
        | Unpin { node, .. }
        | Post { node, .. }
        | Deliver { node, .. }
        | Forward { node, .. }
        | DirUpdate { node, .. }
        | MigrateOut { node, .. }
        | MigrateIn { node, .. }
        | Resize { node, .. }
        | Budget { node, .. }
        | Prefetch { node, .. }
        | Terminate { node }
        | Shutdown { node, .. }
        | Fault { node, .. }
        | Retry { node, .. }
        | Degraded { node, .. }
        | NetFault { node, .. }
        | Retransmit { node, .. }
        | DupSuppressed { node, .. }
        | HintInvalidated { node, .. }
        | StealRequest { node, .. }
        | StealGrant { node, .. }
        | StealDeny { node, .. } => *node,
    }
}

/// The canonical form of a run's audit stream: one lane per node, each
/// event rendered as its `Debug` text, in program order (see module
/// docs). The derived rendering names every field, and `ObjectId`'s
/// `obj:{home}:{seq}` is injective, so equal text is an equal event; two
/// runs are byte-identical iff their canonical streams are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CanonicalStream {
    pub nodes: Vec<Vec<String>>,
}

impl CanonicalStream {
    pub fn total_events(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }
}

/// Partition a shared-sink event log into the canonical per-node form.
/// The shared sink linearizes all threads, but each node's events come
/// from its one worker thread and keep program order.
pub fn canonicalize(events: &[RuntimeEvent], n_nodes: usize) -> CanonicalStream {
    let mut nodes = vec![Vec::new(); n_nodes];
    for ev in events {
        // A foreign event (e.g. a stale sink reused across runs) is
        // skipped.
        if let Some(lane) = nodes.get_mut(event_node(ev) as usize) {
            lane.push(format!("{ev:?}"));
        }
    }
    CanonicalStream { nodes }
}

/// A count or length at `pos`, rejected before anything is allocated for
/// it if it exceeds the whole buffer (every counted item is ≥ 1 byte).
fn get_len(buf: &[u8], pos: &mut usize) -> Result<usize, ReplayDecodeError> {
    let at = *pos;
    let n = get_varint(buf, pos)?;
    if n > buf.len() as u64 {
        return Err(ReplayDecodeError::CountTooLarge { at, count: n });
    }
    Ok(n as usize)
}

/// Length-prefixed bytes at `pos`.
fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], ReplayDecodeError> {
    let len = get_len(buf, pos)?;
    let bytes =
        (buf.get(*pos..*pos + len)).ok_or(ReplayDecodeError::Truncated { at: buf.len() })?;
    *pos += len;
    Ok(bytes)
}

/// Length-prefixed UTF-8 at `pos`.
fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, ReplayDecodeError> {
    let bytes = get_bytes(buf, pos)?;
    let at = *pos - bytes.len();
    (std::str::from_utf8(bytes).map(str::to_owned)).map_err(|_| ReplayDecodeError::BadUtf8 { at })
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_lane(lane: &[String], out: &mut Vec<u8>) {
    put_varint(out, lane.len() as u64);
    for ev in lane {
        put_str(ev, out);
    }
}

fn decode_lane(buf: &[u8], pos: &mut usize) -> Result<Vec<String>, ReplayDecodeError> {
    let n = get_len(buf, pos)?;
    (0..n).map(|_| get_str(buf, pos)).collect()
}

impl CanonicalStream {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.nodes.len() as u64);
        for lane in &self.nodes {
            encode_lane(lane, out);
        }
    }

    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<CanonicalStream, ReplayDecodeError> {
        let n = get_len(buf, pos)?;
        let nodes = (0..n)
            .map(|_| decode_lane(buf, pos))
            .collect::<Result<_, _>>()?;
        Ok(CanonicalStream { nodes })
    }
}

/// The first mismatch between a node's recorded and live lane.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub node: NodeId,
    /// Index of the first differing event in the lane.
    pub index: usize,
    /// Recorded event at `index` (`None`: the recorded lane ended here).
    pub expected: Option<String>,
    /// Live event at `index` (`None`: the live lane ended here).
    pub actual: Option<String>,
    /// Rendered events surrounding the divergence (±3 on each side),
    /// recorded vs live, for the triage report.
    pub window: Vec<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "node {} diverges at event {}:", self.node, self.index)?;
        writeln!(f, "  expected: {}", or_end(self.expected.as_ref()))?;
        writeln!(f, "  actual:   {}", or_end(self.actual.as_ref()))?;
        for line in &self.window {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of comparing a replayed run's canonical audit stream against
/// the recorded one: at most one (first) divergence per node.
#[derive(Clone, Debug, Default)]
pub struct DivergenceReport {
    pub divergences: Vec<Divergence>,
    /// Events compared equal (vacuity guard: a clean report over zero
    /// events proves nothing).
    pub events_compared: usize,
}

impl DivergenceReport {
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(
                f,
                "replay clean: {} events byte-identical",
                self.events_compared
            );
        }
        writeln!(
            f,
            "replay DIVERGED ({} node(s), {} events compared):",
            self.divergences.len(),
            self.events_compared
        )?;
        for d in &self.divergences {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// One side of a divergence, or the end of its lane.
fn or_end(ev: Option<&String>) -> &str {
    ev.map_or("<end of lane>", String::as_str)
}

fn compare_lane(node: NodeId, recorded: &[String], live: &[String], report: &mut DivergenceReport) {
    let common = recorded.len().min(live.len());
    let idx = (0..common).find(|&i| recorded[i] != live[i]);
    let idx = match idx {
        Some(i) => i,
        None if recorded.len() == live.len() => {
            report.events_compared += common;
            return;
        }
        None => common,
    };
    report.events_compared += idx;
    let hi = (idx + 4).min(recorded.len().max(live.len()));
    let window = (idx.saturating_sub(3)..hi)
        .map(|i| {
            let mark = if i == idx { ">" } else { " " };
            format!(
                "{mark}{i:>6}  recorded={}  live={}",
                or_end(recorded.get(i)),
                or_end(live.get(i))
            )
        })
        .collect();
    report.divergences.push(Divergence {
        node,
        index: idx,
        expected: recorded.get(idx).cloned(),
        actual: live.get(idx).cloned(),
        window,
    });
}

/// Compare a live run's canonical stream against the recorded one and
/// report the first divergence per node.
pub fn compare(recorded: &CanonicalStream, live: &CanonicalStream) -> DivergenceReport {
    let mut report = DivergenceReport::default();
    let n = recorded.nodes.len().max(live.nodes.len());
    for i in 0..n {
        let r = recorded.nodes.get(i).map_or(&[][..], Vec::as_slice);
        let l = live.nodes.get(i).map_or(&[][..], Vec::as_slice);
        compare_lane(i as NodeId, r, l, &mut report);
    }
    report
}

// ---------------------------------------------------------------------------
// Replay artifact (decision log + recorded stream + harness identity)
// ---------------------------------------------------------------------------

const ART_MAGIC: &[u8; 8] = b"MRTSART1";
/// Version 3: one lane per node (version 2 split each node into a control
/// and a sorted I/O-pool lane; version 1 held binary-coded events).
const ART_VERSION: u32 = 3;

/// Load/save failure of a replay artifact or decision log.
#[derive(Debug)]
pub enum ReplayLoadError {
    Io(std::io::Error),
    Decode(ReplayDecodeError),
}

impl fmt::Display for ReplayLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayLoadError::Io(e) => write!(f, "io: {e}"),
            ReplayLoadError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for ReplayLoadError {}

/// Everything needed to re-execute a recorded schedule: which harness
/// produced it, under which fault seed, the decision log, and the
/// recorded canonical audit stream to diff the replay against.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayArtifact {
    /// Harness identifier (e.g. `chaos-net-threaded`); the umbrella
    /// crate's `harness::harness_config` maps it back to a configuration.
    pub harness: String,
    /// Fault-plan seed of the recorded schedule.
    pub seed: u64,
    pub decisions: DecisionLog,
    pub recorded: CanonicalStream,
}

impl ReplayArtifact {
    pub fn encode(&self, cap: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(ART_MAGIC);
        out.extend_from_slice(&ART_VERSION.to_le_bytes());
        put_str(&self.harness, &mut out);
        put_varint(&mut out, self.seed);
        let (log_bytes, _) = self.decisions.encode(cap);
        put_varint(&mut out, log_bytes.len() as u64);
        out.extend_from_slice(&log_bytes);
        self.recorded.encode(&mut out);
        out
    }

    pub fn decode(buf: &[u8]) -> Result<ReplayArtifact, ReplayDecodeError> {
        if buf.len() < 8 || &buf[..8] != ART_MAGIC {
            return Err(ReplayDecodeError::BadMagic);
        }
        if buf.len() < 12 {
            return Err(ReplayDecodeError::Truncated { at: buf.len() });
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes checked"));
        if version != ART_VERSION {
            return Err(ReplayDecodeError::BadVersion(version));
        }
        let mut pos = 12usize;
        let harness = get_str(buf, &mut pos)?;
        let seed = get_varint(buf, &mut pos)?;
        let decisions = DecisionLog::decode(get_bytes(buf, &mut pos)?)?;
        let recorded = CanonicalStream::decode(buf, &mut pos)?;
        Ok(ReplayArtifact {
            harness,
            seed,
            decisions,
            recorded,
        })
    }

    pub fn save(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.encode(cap))
    }

    pub fn load(path: &Path) -> Result<ReplayArtifact, ReplayLoadError> {
        let bytes = std::fs::read(path).map_err(ReplayLoadError::Io)?;
        ReplayArtifact::decode(&bytes).map_err(ReplayLoadError::Decode)
    }
}

// ---------------------------------------------------------------------------
// Replay: the gateway that answers from the log, and the stepper
// ---------------------------------------------------------------------------

/// The decision that names an I/O completion: its kind and key, which the
/// executor's per-key ordering makes unique among in-flight operations
/// (batches are identified by their first object; health probes carry no
/// key).
pub(crate) fn io_decision(d: &IoDone) -> Decision {
    let (kind, oid) = match d {
        IoDone::Stored(s) if s.rejected.is_none() => (IoKind::StoredBatch, s.report.oid.0),
        IoDone::Stored(s) => (IoKind::StoreBatchFailed, s.report.oid.0),
        IoDone::Loaded(l) if l.outcome.is_ok() => (IoKind::Loaded, l.report.oid.0),
        IoDone::Loaded(l) => (IoKind::LoadFailed, l.report.oid.0),
        IoDone::Probed(..) => (IoKind::Probed, 0),
    };
    Decision::IoDone { kind, oid }
}

/// What every gateway of one replay shares.
#[derive(Default)]
struct Shared {
    /// Frames sent and not yet read, one FIFO per edge `src * n + dest`.
    edges: Vec<VecDeque<ActiveMessage>>,
    /// The first divergence of any node.
    diverged: Option<MrtsError>,
}

/// A replay of one decision log over a run's workers: it builds each
/// node's [`Replayed`] gateway, then steps the workers (see the module
/// docs).
pub(crate) struct Replay {
    log: DecisionLog,
    registry: Arc<Registry>,
    shared: Rc<RefCell<Shared>>,
}

impl Replay {
    /// A node the log does not cover replays an empty schedule.
    pub(crate) fn new(mut log: DecisionLog, n: usize, registry: Arc<Registry>) -> Replay {
        log.nodes.resize(n, Vec::new());
        let shared = Rc::new(RefCell::new(Shared::default()));
        shared.borrow_mut().edges.resize_with(n * n, VecDeque::new);
        Replay {
            log,
            registry,
            shared,
        }
    }

    /// Node `node`'s gateway over its spill store.
    pub(crate) fn gate(&mut self, node: usize, store: &SharedStore) -> Replayed {
        Replayed {
            node: node as NodeId,
            n: self.log.nodes.len(),
            log: std::mem::take(&mut self.log.nodes[node]),
            cursor: 0,
            crashed: false,
            shared: self.shared.clone(),
            done: VecDeque::new(),
            store: store.clone(),
            // One request runs at a time.
            pool: BufferPool::new(1),
            registry: self.registry.clone(),
            epoch: Instant::now(),
        }
    }

    /// Step the workers on this thread: each runs turns until one takes no
    /// answer from the log (it waits for a frame not sent yet), or until
    /// it stops or crashes, then the next node runs. A round in which no
    /// node moves is a divergence, and so is any a gateway meets; the run
    /// stops at the first. Returns every worker's hand-back, in node
    /// order, and that divergence.
    pub(crate) fn step(
        self,
        workers: Vec<Worker<Replayed>>,
    ) -> (Vec<WorkerResult>, Option<MrtsError>) {
        let mut slots: Vec<_> = workers.into_iter().map(Some).collect();
        let mut results: Vec<_> = slots.iter().map(|_| None).collect();
        let diverged = || self.shared.borrow().diverged.is_some();
        while !diverged() && slots.iter().any(Option::is_some) {
            let mut moved = false;
            for (slot, result) in slots.iter_mut().zip(&mut results) {
                while let Some(w) = slot.as_mut().filter(|_| !diverged()) {
                    let cursor = w.gate.cursor;
                    // A crashed node's last steps are silent: it only
                    // discards what reaches it.
                    if !w.turn() || w.gate.crashed {
                        *result = slot.take().map(Worker::finish);
                    } else if w.gate.cursor == cursor {
                        break;
                    }
                    moved = true;
                }
            }
            if !moved {
                self.stalled(&slots);
            }
        }
        // A diverged run stops where it is.
        let results = (slots.into_iter().zip(results))
            .map(|(slot, r)| r.or_else(|| slot.map(Worker::finish)))
            .map(|r| r.expect("every worker stopped"));
        let err = self.shared.borrow_mut().diverged.take();
        (results.collect(), err)
    }

    /// No node can move: blame the first whose next frame no running node
    /// can send (its own, or a stopped node's), else the first.
    fn stalled(&self, slots: &[Option<Worker<Replayed>>]) {
        let waiting: Vec<&Replayed> = slots.iter().flatten().map(|w| &w.gate).collect();
        let stuck = |g: &&&Replayed| match g.log.get(g.cursor) {
            Some(&Decision::FabricRecv { src, .. }) => {
                src == g.node || slots[src as usize].is_none()
            }
            _ => true,
        };
        let g = waiting.iter().find(stuck).or(waiting.first());
        g.expect("a running worker")
            .diverge("no node can move".into(), ());
    }
}

/// A worker's gateway during a replay (see the module docs): the node's
/// log answers through a cursor, and the replay's edges carry its frames.
pub(crate) struct Replayed {
    node: NodeId,
    n: usize,
    log: Vec<Decision>,
    /// The next logged answer.
    cursor: usize,
    /// Killed by the net-fault plan, which ends its recording.
    crashed: bool,
    shared: Rc<RefCell<Shared>>,
    /// Completions of requests that ran, not yet read.
    done: VecDeque<IoDone>,
    store: SharedStore,
    pool: BufferPool,
    registry: Arc<Registry>,
    /// The gateway's clock, which only feeds statistics.
    epoch: Instant,
}

impl Replayed {
    /// The logged answer due now; `None` once the log is used up, or once
    /// the run has diverged.
    fn peek(&self) -> Option<Decision> {
        let diverged = self.shared.borrow().diverged.is_some();
        self.log.get(self.cursor).copied().filter(|_| !diverged)
    }

    /// The worker met `found` where the logged answer was due: the run has
    /// left its log (the first divergence of the run is kept). Hands
    /// `answer` back to the worker, which the stepper stops after its turn.
    fn diverge<T>(&self, found: String, answer: T) -> T {
        let (node, index, expected) = (self.node, self.cursor, self.log.get(self.cursor).copied());
        (self.shared.borrow_mut().diverged).get_or_insert(MrtsError::ReplayDiverged {
            node,
            index,
            expected,
            found,
        });
        answer
    }
}

impl Gateway for Replayed {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn fabric(&mut self, _idle: bool) -> Recv {
        let answer = match self.peek() {
            Some(Decision::FabricEmpty) => Recv::Empty,
            Some(Decision::FabricRecv { src, tag }) => {
                let mut shared = self.shared.borrow_mut();
                let edge = &mut shared.edges[src as usize * self.n + self.node as usize];
                match edge.front().map(|am| am.handler) {
                    None => return Recv::Later,
                    Some(t) if t == tag => Recv::Frame(edge.pop_front().expect("a front frame")),
                    Some(t) => {
                        drop(shared);
                        return self.diverge(format!("tag {t} from node {src}"), Recv::Later);
                    }
                }
            }
            _ => return self.diverge("a fabric read".into(), Recv::Later),
        };
        self.cursor += 1;
        answer
    }

    fn send(&mut self, dest: NodeId, tag: u32, payload: Vec<u8>) {
        let src = self.node;
        let am = ActiveMessage {
            src,
            handler: tag,
            payload,
        };
        let edge = src as usize * self.n + dest as usize;
        self.shared.borrow_mut().edges[edge].push_back(am);
    }

    fn io(&mut self, blocking: bool) -> Option<IoDone> {
        let at = match self.peek() {
            Some(Decision::IoEmpty) if !blocking => None,
            Some(logged @ Decision::IoDone { .. }) => {
                let at = self.done.iter().position(|d| io_decision(d) == logged);
                if at.is_none() {
                    let pending: Vec<_> = self.done.iter().map(io_decision).collect();
                    return self.diverge(format!("completions {pending:?}"), None);
                }
                at
            }
            _ => return self.diverge("an I/O read".into(), None),
        };
        self.cursor += 1;
        at.and_then(|at| self.done.remove(at))
    }

    /// The request runs now: its completion is there when the log names it.
    fn submit(&mut self, req: IoReq) {
        self.done
            .push_back(req.run(&self.store, &self.pool, &self.registry));
    }

    fn due(&mut self, net: &NetLayer) -> Vec<Due> {
        let mut due = Vec::new();
        loop {
            let next = match self.peek() {
                Some(Decision::PumpEnd) => break,
                Some(Decision::FlushDeferred { dest, seq })
                    if net.deferred_at(dest, seq).is_some() =>
                {
                    Due::Flush(dest, seq)
                }
                Some(Decision::TimerExpire { dest, seq }) => Due::Timer(dest, seq),
                _ => return self.diverge("a due flush or timer read".into(), Vec::new()),
            };
            self.cursor += 1;
            due.push(next);
        }
        self.cursor += 1;
        due
    }

    fn finish(&mut self, _stats: &mut NodeStats, crashed: bool) -> Vec<Decision> {
        self.crashed = crashed;
        if !crashed && self.cursor < self.log.len() {
            self.diverge("the worker stopped".into(), ());
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::ids::ObjectId;
    use crate::netfault::NetFaultKind;

    fn sample_log() -> DecisionLog {
        DecisionLog {
            nodes: vec![
                vec![
                    Decision::FabricRecv { src: 1, tag: 1 },
                    Decision::FabricEmpty,
                    Decision::FabricEmpty,
                    Decision::IoDone {
                        kind: IoKind::Loaded,
                        oid: 0xDEAD_BEEF,
                    },
                    Decision::IoEmpty,
                    Decision::PumpEnd,
                    Decision::PumpEnd,
                    Decision::PumpEnd,
                ],
                vec![
                    Decision::TimerExpire { dest: 0, seq: 7 },
                    Decision::FlushDeferred { dest: 0, seq: 9 },
                    Decision::PumpEnd,
                ],
            ],
        }
    }

    #[test]
    fn decision_log_roundtrip() {
        let log = sample_log();
        let (bytes, truncated) = log.encode(DEFAULT_LOG_BYTE_CAP);
        assert!(!truncated);
        assert_eq!(DecisionLog::decode(&bytes).unwrap(), log);
        // Every live io-completion kind round-trips through its wire tag;
        // tags 0 and 4 are retired and must stay undecodable.
        for tag in 0..=7u8 {
            match IoKind::from_u8(tag) {
                Some(kind) => assert_eq!(kind.as_u8(), tag),
                None => assert!(matches!(tag, 0 | 4 | 7), "tag {tag} lost its kind"),
            }
        }
        for retired in [0u8, 4] {
            assert_eq!(
                decode_decision_run(&[D_IO_DONE, retired, 0], &mut 0, &mut Vec::new()),
                Err(ReplayDecodeError::BadIoKind {
                    at: 1,
                    kind: retired
                })
            );
        }
        // The steal request and grant (tags 7 and 8) are retired too.
        for retired in [7u8, 8] {
            assert_eq!(
                decode_decision_run(&[retired, 1], &mut 0, &mut Vec::new()),
                Err(ReplayDecodeError::BadDecisionTag {
                    at: 0,
                    tag: retired
                })
            );
        }
    }

    #[test]
    fn empty_runs_are_rle_compressed() {
        let log = DecisionLog {
            nodes: vec![vec![Decision::FabricEmpty; 10_000]],
        };
        let (bytes, truncated) = log.encode(DEFAULT_LOG_BYTE_CAP);
        assert!(!truncated);
        assert!(
            bytes.len() < 64,
            "10k-empty run should RLE to a handful of bytes, got {}",
            bytes.len()
        );
        assert_eq!(DecisionLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn byte_cap_drops_whole_tail_decisions() {
        let log = DecisionLog {
            nodes: vec![(0..1000)
                .map(|i| Decision::FabricRecv { src: 1, tag: i })
                .collect()],
        };
        let (bytes, truncated) = log.encode(256);
        assert!(truncated);
        assert!(bytes.len() <= 256);
        let back = DecisionLog::decode(&bytes).unwrap();
        assert!(!back.nodes[0].is_empty());
        assert!(back.nodes[0].len() < 1000);
        assert_eq!(back.nodes[0][..], log.nodes[0][..back.nodes[0].len()]);
    }

    /// A torn log is not replayed in part: every cut short of the end is
    /// a typed error.
    #[test]
    fn every_proper_prefix_of_a_log_is_a_typed_error() {
        let (bytes, _) = sample_log().encode(DEFAULT_LOG_BYTE_CAP);
        for cut in 0..bytes.len() {
            assert!(
                DecisionLog::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn garbage_is_a_typed_error_never_a_panic() {
        assert_eq!(DecisionLog::decode(b""), Err(ReplayDecodeError::BadMagic));
        assert_eq!(
            DecisionLog::decode(b"NOTMAGIC everything after is noise"),
            Err(ReplayDecodeError::BadMagic)
        );
        let mut bytes = sample_log().encode(DEFAULT_LOG_BYTE_CAP).0;
        bytes[8] = 0xFF; // version
        assert!(matches!(
            DecisionLog::decode(&bytes),
            Err(ReplayDecodeError::BadVersion(_))
        ));
    }

    fn sample_events() -> Vec<RuntimeEvent> {
        vec![
            RuntimeEvent::Create {
                node: 0,
                oid: ObjectId(1),
                footprint: 100,
            },
            RuntimeEvent::Post {
                node: 0,
                oid: ObjectId(1),
            },
            RuntimeEvent::Deliver {
                node: 0,
                oid: ObjectId(1),
            },
            RuntimeEvent::Fault {
                node: 0,
                kind: FaultKind::TornWrite,
                key: 9,
            },
            RuntimeEvent::NetFault {
                node: 0,
                dest: 1,
                kind: NetFaultKind::Reorder,
            },
            RuntimeEvent::StealRequest { node: 1, thief: 0 },
            RuntimeEvent::StealGrant {
                node: 1,
                oid: ObjectId(3),
                to: 0,
            },
            RuntimeEvent::StealDeny { node: 1, to: 2 },
            RuntimeEvent::Terminate { node: 1 },
            RuntimeEvent::Shutdown { node: 1, used: 0 },
        ]
    }

    /// Text equality is event equality: every pair of distinct events,
    /// near twins included, canonicalizes to distinct streams.
    #[test]
    fn canonical_text_keeps_distinct_events_distinct() {
        let mut events = sample_events();
        events.extend([
            // `oid` 1 is home 0, seq 1; these differ only in home or node.
            RuntimeEvent::Deliver {
                node: 0,
                oid: ObjectId::new(1, 1),
            },
            RuntimeEvent::Deliver {
                node: 1,
                oid: ObjectId(1),
            },
            RuntimeEvent::Fault {
                node: 0,
                kind: FaultKind::TransientEio,
                key: 9,
            },
            RuntimeEvent::StealDeny { node: 2, to: 1 },
            RuntimeEvent::Shutdown { node: 1, used: 10 },
        ]);
        for a in &events {
            for b in &events {
                let text = |ev: &RuntimeEvent| canonicalize(std::slice::from_ref(ev), 3);
                assert_eq!(a == b, text(a) == text(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn canonicalize_partitions_by_node() {
        let events = sample_events();
        let c = canonicalize(&events, 2);
        assert_eq!(c.nodes.len(), 2);
        // Node 0: Create, Post, Deliver, Fault, NetFault, in that order.
        assert_eq!(c.nodes[0].len(), 5);
        assert!(c.nodes[0][3].starts_with("Fault {"));
        // Node 1: the three steal events, Terminate, Shutdown.
        assert_eq!(c.nodes[1].len(), 5);
    }

    /// Storage faults are compared in program order like every other
    /// event: a swapped pair is a divergence.
    #[test]
    fn fault_events_are_compared_in_order() {
        let a = vec![
            RuntimeEvent::Fault {
                node: 0,
                kind: FaultKind::TransientEio,
                key: 1,
            },
            RuntimeEvent::Fault {
                node: 0,
                kind: FaultKind::Latency,
                key: 2,
            },
        ];
        let b: Vec<RuntimeEvent> = a.iter().rev().cloned().collect();
        let report = compare(&canonicalize(&a, 1), &canonicalize(&b, 1));
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].index, 0);
    }

    #[test]
    fn compare_reports_first_divergence_with_window() {
        let recorded = canonicalize(&sample_events(), 2);
        let mut live_events = sample_events();
        live_events[2] = RuntimeEvent::Deliver {
            node: 0,
            oid: ObjectId(99),
        };
        let live = canonicalize(&live_events, 2);
        let report = compare(&recorded, &live);
        assert!(!report.is_clean());
        let d = &report.divergences[0];
        assert_eq!(d.node, 0);
        assert_eq!(d.index, 2);
        assert_eq!(
            d.expected.as_deref(),
            Some("Deliver { node: 0, oid: obj:0:1 }")
        );
        assert_eq!(
            d.actual.as_deref(),
            Some("Deliver { node: 0, oid: obj:0:99 }")
        );
        assert!(!d.window.is_empty());
        let rendered = format!("{report}");
        assert!(rendered.contains("diverges at event 2"));
    }

    #[test]
    fn compare_flags_length_mismatch() {
        let recorded = canonicalize(&sample_events(), 2);
        let mut short = sample_events();
        short.truncate(3);
        let report = compare(&recorded, &canonicalize(&short, 2));
        assert!(!report.is_clean());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.expected.is_some() && d.actual.is_none()));
        // Identical streams are clean and non-vacuous.
        let clean = compare(&recorded, &recorded);
        assert!(clean.is_clean());
        assert_eq!(clean.events_compared, sample_events().len());
    }

    #[test]
    fn artifact_roundtrip() {
        let art = ReplayArtifact {
            harness: "chaos-net-threaded".into(),
            seed: 42,
            decisions: sample_log(),
            recorded: canonicalize(&sample_events(), 2),
        };
        let bytes = art.encode(DEFAULT_LOG_BYTE_CAP);
        assert_eq!(ReplayArtifact::decode(&bytes).unwrap(), art);
        assert_eq!(
            ReplayArtifact::decode(b"junk"),
            Err(ReplayDecodeError::BadMagic)
        );
        for cut in [13, bytes.len() / 2, bytes.len() - 1] {
            assert!(ReplayArtifact::decode(&bytes[..cut]).is_err());
        }
        // Versions 1 (binary-coded lanes) and 2 (split lanes) are not
        // read back.
        for old in [1u32, 2] {
            let mut stale = bytes.clone();
            stale[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                ReplayArtifact::decode(&stale),
                Err(ReplayDecodeError::BadVersion(old))
            );
        }
    }
}
