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
//! * **Record mode** — every answer of a worker's input gateway (which
//!   fabric frame is next, which I/O completion is next, which deferred
//!   flushes and retransmit timers are due) appends a [`Decision`] to a
//!   per-node log; the run's canonical audit stream is captured
//!   alongside it.
//! * **Replay mode** — the gateway answers from the log: fabric messages
//!   are released in the logged source order (per-edge FIFO makes "next
//!   message from `src`" unambiguous), I/O completions are released when
//!   the log says they landed, and deferred flushes and retransmit timers
//!   fire at the logged points instead of by the wall clock. Everything
//!   else — steals included — is a pure function of those inputs. The
//!   replayed run's audit stream is then compared event-for-event against
//!   the recorded one; the first mismatch per node is reported with its
//!   index and a surrounding window.
//!
//! The comparison is over the **canonical** stream ([`canonicalize`]):
//! events rendered as their `Debug` text, partitioned per node, and
//! within a node into the control-thread lane (strictly ordered — the
//! worker thread emits them in program order) and the I/O-pool lane
//! (`Fault` / `Retry` / `Compaction` / `CompactionReorder`, emitted by
//! pool threads and compared as a sorted multiset, since the shared sink
//! interleaves pool threads arbitrarily). With `io_threads = 1` the pool
//! multiset is fully deterministic too; wider pools replay the pool lane
//! best-effort (see the determinism contract table in `DESIGN.md` §14).
//!
//! Everything here is pure data + codecs; the gateway lives in
//! [`crate::threaded`].

use crate::audit::RuntimeEvent;
use crate::ids::NodeId;
use std::fmt;
use std::path::Path;

/// Default byte cap for an encoded decision log: generous for any chaos
/// schedule in the tree (a full OPCDM sweep schedule records well under
/// a megabyte per node) while bounding a runaway recording.
pub const DEFAULT_LOG_BYTE_CAP: usize = 32 << 20;

/// Replay-mode patience: how long a replaying worker waits for the next
/// recorded event (a fabric frame from the logged edge, an I/O completion
/// for the logged key) before declaring a divergence and falling back to
/// live execution.
pub const REPLAY_WAIT: std::time::Duration = std::time::Duration::from_secs(2);

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
    /// far as it goes, then the workers fall back to live execution.
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
        let (log, err) = Self::decode_inner(buf);
        match err {
            Some(e) => Err(e),
            None => Ok(log),
        }
    }

    /// Truncation-tolerant decode: salvages every complete decision
    /// before the first malformed byte (a crash-truncated log is still a
    /// replayable prefix). Returns the salvaged log and the error that
    /// stopped the parse, if any.
    pub fn decode_lossy(buf: &[u8]) -> (DecisionLog, Option<ReplayDecodeError>) {
        Self::decode_inner(buf)
    }

    fn decode_inner(buf: &[u8]) -> (DecisionLog, Option<ReplayDecodeError>) {
        let mut log = DecisionLog::default();
        if buf.len() < 8 || &buf[..8] != LOG_MAGIC {
            return (log, Some(ReplayDecodeError::BadMagic));
        }
        if buf.len() < 13 {
            return (log, Some(ReplayDecodeError::Truncated { at: buf.len() }));
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes checked"));
        if version != LOG_VERSION {
            return (log, Some(ReplayDecodeError::BadVersion(version)));
        }
        let mut pos = 13usize; // past magic + version + flags
        let n_nodes = match get_varint(buf, &mut pos) {
            Ok(n) => n,
            Err(e) => return (log, Some(e)),
        };
        // A node section is ≥ 1 byte; a count beyond the buffer is hostile.
        if n_nodes > buf.len() as u64 {
            return (
                log,
                Some(ReplayDecodeError::CountTooLarge {
                    at: pos,
                    count: n_nodes,
                }),
            );
        }
        for _ in 0..n_nodes {
            let mut decisions = Vec::new();
            let count = match get_varint(buf, &mut pos) {
                Ok(c) => c,
                Err(e) => {
                    log.nodes.push(decisions);
                    return (log, Some(e));
                }
            };
            // RLE means the decision count can far exceed the byte count;
            // bound it at 2^32 per node (far past any real recording)
            // rather than against the buffer length.
            if count > (1 << 32) {
                log.nodes.push(decisions);
                return (
                    log,
                    Some(ReplayDecodeError::CountTooLarge { at: pos, count }),
                );
            }
            while (decisions.len() as u64) < count {
                let at = pos;
                match decode_decision_run(buf, &mut pos, &mut decisions) {
                    Ok(()) => {}
                    Err(e) => {
                        log.nodes.push(decisions);
                        return (log, Some(e));
                    }
                }
                // A valid encoder never lets a run overshoot the declared
                // count; a hostile one is rejected before the next record.
                if decisions.len() as u64 > count {
                    decisions.truncate(count as usize);
                    log.nodes.push(decisions);
                    return (log, Some(ReplayDecodeError::CountTooLarge { at, count }));
                }
            }
            log.nodes.push(decisions);
        }
        (log, None)
    }

    /// Write the encoded log (under `cap`) to `path`.
    pub fn save(&self, path: &Path, cap: usize) -> std::io::Result<bool> {
        let (bytes, truncated) = self.encode(cap);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, bytes)?;
        Ok(truncated)
    }

    /// Read and strictly decode a log from `path`.
    pub fn load(path: &Path) -> Result<DecisionLog, ReplayLoadError> {
        let bytes = std::fs::read(path).map_err(ReplayLoadError::Io)?;
        DecisionLog::decode(&bytes).map_err(ReplayLoadError::Decode)
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
        | Compaction { node, .. }
        | ClusterPrefetch { node, .. }
        | CompactionReorder { node, .. }
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

/// Is this event emitted by an I/O-pool thread (as opposed to the
/// node's control thread)? Pool-lane events are compared as a sorted
/// multiset — the shared sink interleaves pool threads arbitrarily.
pub fn is_pool_event(ev: &RuntimeEvent) -> bool {
    matches!(
        ev,
        RuntimeEvent::Fault { .. }
            | RuntimeEvent::Retry { .. }
            | RuntimeEvent::Compaction { .. }
            | RuntimeEvent::CompactionReorder { .. }
    )
}

/// One node's partitioned event streams, each event rendered as its
/// `Debug` text: the derived rendering names every field, and
/// `ObjectId`'s `obj:{home}:{seq}` is injective, so equal text is an
/// equal event.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeLanes {
    /// Control-thread events in emission (program) order.
    pub control: Vec<String>,
    /// I/O-pool-thread events as a sorted multiset.
    pub pool: Vec<String>,
}

/// The canonical form of a run's audit stream: per-node, per-lane (see
/// module docs). Two runs are byte-identical iff their canonical
/// streams are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CanonicalStream {
    pub nodes: Vec<NodeLanes>,
}

impl CanonicalStream {
    pub fn total_events(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.control.len() + n.pool.len())
            .sum()
    }
}

/// Partition a shared-sink event log into the canonical per-node,
/// per-lane form. The shared sink linearizes all threads, but each
/// thread's own events keep program order, so per-node control lanes
/// are deterministic; pool lanes are sorted into a multiset.
pub fn canonicalize(events: &[RuntimeEvent], n_nodes: usize) -> CanonicalStream {
    let mut nodes = vec![NodeLanes::default(); n_nodes];
    for ev in events {
        let Some(lanes) = nodes.get_mut(event_node(ev) as usize) else {
            continue; // foreign event (e.g. a stale sink reused across runs)
        };
        let lane = if is_pool_event(ev) {
            &mut lanes.pool
        } else {
            &mut lanes.control
        };
        lane.push(format!("{ev:?}"));
    }
    for lanes in &mut nodes {
        lanes.pool.sort();
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
        for lanes in &self.nodes {
            encode_lane(&lanes.control, out);
            encode_lane(&lanes.pool, out);
        }
    }

    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<CanonicalStream, ReplayDecodeError> {
        let n = get_len(buf, pos)?;
        let nodes = (0..n)
            .map(|_| {
                let control = decode_lane(buf, pos)?;
                let pool = decode_lane(buf, pos)?;
                Ok(NodeLanes { control, pool })
            })
            .collect::<Result<_, _>>()?;
        Ok(CanonicalStream { nodes })
    }
}

/// Which lane a divergence was found in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    Control,
    Pool,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Control => write!(f, "control"),
            Lane::Pool => write!(f, "pool"),
        }
    }
}

/// The first mismatch between a recorded and a live lane.
#[derive(Clone, Debug)]
pub struct Divergence {
    pub node: NodeId,
    pub lane: Lane,
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
        writeln!(
            f,
            "node {} [{} lane] diverges at event {}:",
            self.node, self.lane, self.index
        )?;
        writeln!(f, "  expected: {}", or_end(self.expected.as_ref()))?;
        writeln!(f, "  actual:   {}", or_end(self.actual.as_ref()))?;
        for line in &self.window {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of comparing a replayed run's canonical audit stream against
/// the recorded one: at most one (first) divergence per node and lane.
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
            "replay DIVERGED ({} lane(s), {} events compared):",
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

fn compare_lane(
    node: NodeId,
    lane: Lane,
    recorded: &[String],
    live: &[String],
    report: &mut DivergenceReport,
) {
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
        lane,
        index: idx,
        expected: recorded.get(idx).cloned(),
        actual: live.get(idx).cloned(),
        window,
    });
}

/// Compare a live run's canonical stream against the recorded one and
/// report the first divergence per node and lane.
pub fn compare(recorded: &CanonicalStream, live: &CanonicalStream) -> DivergenceReport {
    let mut report = DivergenceReport::default();
    let n = recorded.nodes.len().max(live.nodes.len());
    let empty = NodeLanes::default();
    for i in 0..n {
        let r = recorded.nodes.get(i).unwrap_or(&empty);
        let l = live.nodes.get(i).unwrap_or(&empty);
        compare_lane(
            i as NodeId,
            Lane::Control,
            &r.control,
            &l.control,
            &mut report,
        );
        compare_lane(i as NodeId, Lane::Pool, &r.pool, &l.pool, &mut report);
    }
    report
}

// ---------------------------------------------------------------------------
// Replay artifact (decision log + recorded stream + harness identity)
// ---------------------------------------------------------------------------

const ART_MAGIC: &[u8; 8] = b"MRTSART1";
/// Version 2: lanes are `Debug` text (version 1 held binary-coded events).
const ART_VERSION: u32 = 2;

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

    #[test]
    fn truncated_log_decodes_lossy_to_a_prefix() {
        let log = sample_log();
        let (bytes, _) = log.encode(DEFAULT_LOG_BYTE_CAP);
        for cut in 13..bytes.len() {
            let (partial, err) = DecisionLog::decode_lossy(&bytes[..cut]);
            assert!(err.is_some(), "cut at {cut} decoded clean");
            // Salvaged decisions are a prefix of the real per-node logs.
            for (full, part) in log.nodes.iter().zip(&partial.nodes) {
                assert!(part.len() <= full.len());
                assert_eq!(&full[..part.len()], &part[..]);
            }
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
    fn canonicalize_partitions_by_node_and_lane() {
        let events = sample_events();
        let c = canonicalize(&events, 2);
        assert_eq!(c.nodes.len(), 2);
        // Node 0: Create, Post, Deliver, NetFault on control; Fault on pool.
        assert_eq!(c.nodes[0].control.len(), 4);
        assert_eq!(c.nodes[0].pool.len(), 1);
        // Node 1: the three steal events, Terminate, Shutdown — all
        // control-lane (steals are worker-thread decisions).
        assert_eq!(c.nodes[1].control.len(), 5);
        assert!(c.nodes[1].pool.is_empty());
    }

    #[test]
    fn pool_lane_is_order_insensitive() {
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
        assert_eq!(canonicalize(&a, 1), canonicalize(&b, 1));
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
        assert_eq!(d.lane, Lane::Control);
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
        // Version 1 (binary-coded lanes) is not read back.
        let mut v1 = bytes;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            ReplayArtifact::decode(&v1),
            Err(ReplayDecodeError::BadVersion(1))
        );
    }
}
