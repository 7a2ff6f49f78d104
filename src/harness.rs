//! The chaos and replay harness shared by the integration tests and the
//! `replay` tool.
//!
//! Every schedule runs OPCDM on [`params`]`(nodes)` at [`BUDGET`] bytes
//! per node. A harness id plus a fault seed fully determines a threaded
//! schedule's configuration ([`harness_config`]), and the node count rides
//! in the recorded stream, so a persisted [`ReplayArtifact`] is
//! self-describing: [`replay_artifact`] rebuilds the workload, re-executes
//! it under the recorded decision log and diffs the live canonical audit
//! stream against the recorded one.
//!
//! Debug builds only: recording needs the runtime's audit stream, which
//! release builds compile out.

use crate::methods::domain::Workload;
use crate::methods::ooc_pcdm::{opcdm_collect, opcdm_setup};
use crate::methods::pcdm::PcdmParams;
use crate::mrts::audit::{EventLog, EventSink, FanOut, RaceDetector};
use crate::mrts::config::MrtsConfig;
use crate::mrts::fault::FaultPlan;
use crate::mrts::netfault::NetFaultPlan;
use crate::mrts::replay::{
    canonicalize, compare, CanonicalStream, DecisionLog, DivergenceReport, ReplayArtifact,
    DEFAULT_LOG_BYTE_CAP,
};
use crate::mrts::stats::RunStats;
use crate::mrts::threaded::Threads;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Threaded storage-fault schedules: EIO, torn writes, latency spikes.
pub const CHAOS_THREADED: &str = "chaos-threaded";
/// Threaded fabric-fault schedules ([`chaos_net_plan`]).
pub const CHAOS_NET_THREADED: &str = "chaos-net-threaded";
/// Half of all transmissions duplicated, nothing else injected.
pub const DUP_STORM: &str = "dup-storm";
/// Fabric-fault schedules with one I/O pool thread and work stealing on:
/// the canonical stream is a deterministic sequence, so a replay must come
/// back byte-identical.
pub const REPLAY_SMOKE: &str = "replay-smoke";

/// Per-node memory budget of every harness schedule.
pub const BUDGET: usize = 70_000;

/// The workload, scaled so every width keeps the per-node memory pressure
/// of the 2-node schedules: the mesh grows with the pool and the grid
/// keeps at least one subdomain per node. Without the scaling a 16-node
/// run fits in core and storage chaos never touches a disk.
pub fn params(nodes: usize) -> PcdmParams {
    PcdmParams::new(
        Workload::uniform_square(3_000 * nodes as u64),
        grid_for(nodes),
    )
}

/// Smallest grid with at least one subdomain per node.
fn grid_for(nodes: usize) -> usize {
    let mut g = 2usize;
    while g * g < nodes {
        g += 1;
    }
    g
}

/// The virtual-time engine's storage-fault schedule for `seed`: EIO on
/// stores and loads, torn writes, latency spikes.
pub fn des_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(0xC0FF_EE00 ^ seed)
        .with_eio(60)
        .with_torn_writes(40)
        .with_latency(80, Duration::from_micros(300))
}

/// The threaded engine's storage-fault schedule for `seed`. Load EIO stays
/// well under the exhaustion knee (p^4 per op), so a transient schedule
/// never turns into a fatal `LoadFailed`.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(0xBAD_D15C ^ seed)
        .with_eio(120)
        .with_torn_writes(80)
        .with_latency(60, Duration::from_micros(200))
}

/// The fabric-fault schedule for `seed`, on both engines. Rates run hot:
/// the mesh workload exchanges only a handful of remote messages per run,
/// so realistic rates could inject nothing.
pub fn chaos_net_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan::new(0x6E7F_A017 ^ seed)
        .with_drops(200)
        .with_dups(150)
        .with_delay(80, Duration::from_micros(300))
        .with_reorder(60)
}

/// The configuration `harness` runs seed `seed` under at `nodes` nodes,
/// with a fresh spill directory; `None` for an unknown harness id.
pub fn harness_config(harness: &str, seed: u64, nodes: usize) -> Option<MrtsConfig> {
    let base = MrtsConfig::out_of_core(nodes, BUDGET);
    let mut cfg = match harness {
        CHAOS_THREADED => base.with_faults(chaos_plan(seed)),
        CHAOS_NET_THREADED => base.with_net_faults(chaos_net_plan(seed)),
        DUP_STORM => base.with_net_faults(NetFaultPlan::new(0xD0D0 ^ seed).with_dups(500)),
        // Work stealing stays on so steals are shown to replay without
        // log entries: they derive from the inputs.
        REPLAY_SMOKE => base
            .with_net_faults(chaos_net_plan(seed))
            .with_io_threads(1)
            .with_work_stealing(),
        _ => return None,
    };
    cfg.spill_dir = Some(spill_dir());
    Some(cfg)
}

/// A spill directory no other run of this process uses.
pub fn spill_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mrts-harness-{}-{n}", std::process::id()))
}

/// One recorded (or replayed) schedule's outcome.
pub struct RunOutcome {
    pub elements: u64,
    pub vertices: u64,
    /// Default (all zero) when the run failed.
    pub stats: RunStats,
    /// The typed error a failed run returned; its mesh counts are zero.
    pub error: Option<String>,
    /// The decision log of a recorded run (empty after a replay: the
    /// sequencer consumes the log).
    pub decisions: DecisionLog,
    /// The run's canonical audit stream.
    pub recorded: CanonicalStream,
}

impl RunOutcome {
    pub fn mesh(&self) -> (u64, u64) {
        (self.elements, self.vertices)
    }
}

/// Save a recorded schedule under `target/replay/` for the `replay` tool;
/// returns the path, or why it could not be written.
pub fn persist_artifact(harness: &str, seed: u64, run: &RunOutcome) -> String {
    let art = ReplayArtifact {
        harness: harness.to_string(),
        seed,
        decisions: run.decisions.clone(),
        recorded: run.recorded.clone(),
    };
    let nodes = run.recorded.nodes.len();
    let path =
        PathBuf::from("target/replay").join(format!("{harness}-seed{seed}-{nodes}nodes.replay"));
    match art.save(&path, DEFAULT_LOG_BYTE_CAP) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<persist failed: {e}>"),
    }
}

fn execute(
    cfg: MrtsConfig,
    sinks: &[Arc<dyn EventSink>],
    det: Option<Arc<RaceDetector>>,
    replay: Option<DecisionLog>,
) -> RunOutcome {
    let nodes = cfg.nodes;
    let spill = cfg.spill_dir.clone();
    let log = Arc::new(EventLog::new());
    let mut all: Vec<Arc<dyn EventSink>> = vec![log.clone()];
    all.extend(sinks.iter().cloned());
    let mut rt = opcdm_setup::<Threads>(&params(nodes), cfg, |rt| {
        rt.attach_audit(Arc::new(FanOut::new(all)));
        if let Some(d) = det {
            rt.attach_race_detector(d);
        }
        match replay {
            Some(decisions) => rt.replay_decisions(decisions),
            None => rt.record_decisions(),
        }
    });
    let (stats, error) = match rt.try_run() {
        Ok(stats) => (stats, None),
        Err(e) => (RunStats::default(), Some(e.to_string())),
    };
    let (elements, vertices) = match error {
        None => opcdm_collect(&rt),
        Some(_) => (0, 0),
    };
    let decisions = rt
        .take_decision_log()
        .unwrap_or_else(|| DecisionLog::new(nodes));
    drop(rt);
    if let Some(dir) = spill {
        let _ = std::fs::remove_dir_all(dir);
    }
    RunOutcome {
        elements,
        vertices,
        stats,
        error,
        decisions,
        recorded: canonicalize(&log.snapshot(), nodes),
    }
}

/// Run OPCDM under `cfg` recording its decisions; `sinks` and `det` ride
/// alongside the internal [`EventLog`]. A run that fails still yields its
/// decisions and stream, so it can be saved and replayed. The spill
/// directory is removed afterwards.
pub fn record_run(
    cfg: MrtsConfig,
    sinks: &[Arc<dyn EventSink>],
    det: Option<Arc<RaceDetector>>,
) -> RunOutcome {
    execute(cfg, sinks, det, None)
}

/// Re-run OPCDM under `cfg` and a recorded decision log.
pub fn replay_run(cfg: MrtsConfig, decisions: DecisionLog) -> RunOutcome {
    execute(cfg, &[], None, Some(decisions))
}

/// Re-execute a persisted artifact under its decision log: the report of
/// where the live canonical stream departs from the recorded one, and the
/// live run. `None`: the artifact names no known harness.
pub fn replay_artifact(art: &ReplayArtifact) -> Option<(DivergenceReport, RunOutcome)> {
    let nodes = art.recorded.nodes.len();
    let cfg = harness_config(&art.harness, art.seed, nodes)?;
    let live = replay_run(cfg, art.decisions.clone());
    Some((compare(&art.recorded, &live.recorded), live))
}
