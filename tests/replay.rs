//! Integration: deterministic record/replay of the threaded engine.
//!
//! A chaos-net OPCDM schedule is recorded (every fabric poll, I/O
//! completion, deferred flush, and retransmit timer routed through the
//! decision log) and re-executed under the log; with a single I/O pool
//! thread both lanes of the canonical audit stream must come back
//! byte-identical. A deliberately perturbed stream must be pinpointed
//! at the exact first-divergence index, and a perturbed decision log
//! must be caught by the sequencer. A threaded run under replay must
//! still produce the mesh the DES engine produces, and a run whose steals
//! are granted must replay them — logged nowhere — to the same objects.

use pumg::methods::domain::Workload;
use pumg::methods::ooc_pcdm::{opcdm_collect_threaded, opcdm_run, opcdm_setup_threaded};
use pumg::methods::pcdm::PcdmParams;
use pumg::mrts::netfault::NetFaultPlan;
use pumg::mrts::prelude::*;
use pumg::mrts::replay::{canonicalize, compare, CanonicalStream};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 2;

fn params() -> PcdmParams {
    PcdmParams::new(Workload::uniform_square(6_000), 2)
}

fn cfg(seed: u64, label: &str) -> MrtsConfig {
    let plan = NetFaultPlan::new(0x6E7F_A017 ^ seed)
        .with_drops(200)
        .with_dups(150)
        .with_delay(80, Duration::from_micros(300))
        .with_reorder(60);
    let mut cfg = MrtsConfig::out_of_core(NODES, 70_000)
        .with_net_faults(plan)
        // One pool thread makes the pool lane a deterministic sequence,
        // so byte-identity is provable rather than merely multiset-equal.
        .with_io_threads(1);
    cfg.spill_dir =
        Some(std::env::temp_dir().join(format!("mrts-replay-{label}-{}", std::process::id())));
    cfg
}

struct Run {
    elements: u64,
    vertices: u64,
    stats: RunStats,
    decisions: DecisionLog,
    stream: CanonicalStream,
}

fn run_once(seed: u64, label: &str, replay: Option<DecisionLog>) -> Run {
    let cfg = cfg(seed, label);
    let spill = cfg.spill_dir.clone().expect("spill dir set");
    let log = Arc::new(EventLog::new());
    let mut rt = opcdm_setup_threaded(&params(), cfg);
    rt.attach_audit(log.clone());
    match replay {
        Some(d) => rt.replay_decisions(d),
        None => rt.record_decisions(),
    }
    let stats = rt.run();
    let (elements, vertices) = opcdm_collect_threaded(&rt);
    let decisions = rt
        .take_decision_log()
        .unwrap_or_else(|| DecisionLog::new(NODES));
    let _ = std::fs::remove_dir_all(spill);
    Run {
        elements,
        vertices,
        stats,
        decisions,
        stream: canonicalize(&log.snapshot(), NODES),
    }
}

#[test]
fn recorded_chaos_net_schedule_replays_byte_identically() {
    let rec = run_once(26, "e2e-rec", None);
    // Seed 26's plan delays the first frame node 0 sends and drops the
    // first two node 1 sends, so every run defers, flushes and times out:
    // out of core, the recording asks every question the input gateway
    // has. A decision kind nobody records (or replays) fails here, and a
    // new kind does not compile until it is counted.
    let mut kinds = [0usize; 7];
    for d in rec.decisions.nodes.iter().flatten() {
        kinds[match d {
            Decision::FabricRecv { .. } => 0,
            Decision::FabricEmpty => 1,
            Decision::IoDone { .. } => 2,
            Decision::IoEmpty => 3,
            Decision::FlushDeferred { .. } => 4,
            Decision::TimerExpire { .. } => 5,
            Decision::PumpEnd => 6,
        }] += 1;
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "decision kinds recorded: {kinds:?}"
    );
    let rep = run_once(26, "e2e-rep", Some(rec.decisions.clone()));
    assert_eq!(
        rep.stats.total_of(|n| n.replay_divergences),
        0,
        "sequencer diverged: {}",
        rep.stats.summary()
    );
    let report = compare(&rec.stream, &rep.stream);
    assert!(report.events_compared > 0, "no events compared — vacuous");
    assert!(
        report.is_clean(),
        "audit streams must be byte-identical:\n{report}"
    );
    assert_eq!((rec.elements, rec.vertices), (rep.elements, rep.vertices));
}

#[test]
fn perturbed_stream_reports_the_exact_first_divergence_index() {
    let rec = run_once(12, "e2e-cut", None);
    let node = rec
        .stream
        .nodes
        .iter()
        .position(|n| n.control.len() >= 2)
        .expect("a chaos-net run emits control events");
    let idx = rec.stream.nodes[node].control.len() / 2;
    let mut cut = rec.stream.clone();
    cut.nodes[node].control.truncate(idx);
    let report = compare(&cut, &rec.stream);
    assert!(!report.is_clean(), "a shortened lane must diverge");
    let d = report
        .divergences
        .iter()
        .find(|d| d.node as usize == node)
        .expect("divergence on the perturbed node");
    assert_eq!(d.index, idx, "first divergence must sit at the cut:\n{d}");
    assert!(d.expected.is_none(), "recorded lane ended at the cut");
    assert!(d.actual.is_some(), "live lane continues past the cut");
    assert!(!d.window.is_empty(), "triage window must be rendered");
}

#[test]
fn perturbed_decision_log_is_caught_by_the_sequencer() {
    let rec = run_once(13, "e2e-bad", None);
    let mut bad = rec.decisions.clone();
    let tag = bad
        .nodes
        .iter_mut()
        .flatten()
        .find_map(|d| match d {
            Decision::FabricRecv { tag, .. } => Some(tag),
            _ => None,
        })
        .expect("a chaos-net run records fabric receives");
    *tag ^= 0x5A5A;
    let rep = run_once(13, "e2e-bad-rep", Some(bad));
    let report = compare(&rec.stream, &rep.stream);
    assert!(
        rep.stats.total_of(|n| n.replay_divergences) > 0 || !report.is_clean(),
        "a corrupted decision must be detected"
    );
    // Divergence is detection, not failure: the replay falls back to
    // live execution and must still finish the mesh.
    assert_eq!((rep.elements, rep.vertices), (rec.elements, rec.vertices));
}

#[test]
fn threaded_under_replay_matches_des_mesh() {
    // The cross-engine contract of `threaded_engine_produces_identical_mesh`
    // (tests/ooc_behavior.rs) survives replay: the same fault-free config
    // pair, with the threaded side re-executed under a recorded decision
    // log, still produces exactly the virtual-time engine's mesh.
    let des = opcdm_run(&params(), MrtsConfig::in_core(NODES));
    let parity_cfg = |label: &str| {
        let mut cfg = MrtsConfig::out_of_core(NODES, 300_000).with_io_threads(1);
        cfg.spill_dir =
            Some(std::env::temp_dir().join(format!("mrts-replay-{label}-{}", std::process::id())));
        cfg
    };
    let run = |cfg: MrtsConfig, replay: Option<DecisionLog>| {
        let spill = cfg.spill_dir.clone().expect("spill dir set");
        let mut rt = opcdm_setup_threaded(&params(), cfg);
        match replay {
            Some(d) => rt.replay_decisions(d),
            None => rt.record_decisions(),
        }
        let stats = rt.run();
        let mesh = opcdm_collect_threaded(&rt);
        let decisions = rt.take_decision_log();
        let _ = std::fs::remove_dir_all(spill);
        (mesh, stats, decisions)
    };
    let (rec_mesh, rec_stats, decisions) = run(parity_cfg("e2e-des-rec"), None);
    assert!(rec_stats.total_of(|n| n.decisions_recorded) > 0);
    let decisions = decisions.expect("recording run yields a log");
    let (rep_mesh, rep_stats, _) = run(parity_cfg("e2e-des-rep"), Some(decisions));
    assert_eq!(rep_stats.total_of(|n| n.replay_divergences), 0);
    assert_eq!((des.elements, des.vertices), rec_mesh);
    assert_eq!((des.elements, des.vertices), rep_mesh);
}

const TRAIL_TAG: TypeTag = TypeTag(77);
const H_VISIT: HandlerId = HandlerId(77);

/// Which node ran each of the object's messages: a steal replayed
/// differently changes the object's bytes.
struct Trail(Vec<u8>);

impl MobileObject for Trail {
    fn type_tag(&self) -> TypeTag {
        TRAIL_TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn footprint(&self) -> usize {
        64 + self.0.len()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_visit(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    std::thread::sleep(Duration::from_millis(1));
    let trail = obj.as_any_mut().downcast_mut::<Trail>().expect("a trail");
    trail.0.push(ctx.node() as u8);
}

/// All the work starts on node 0 — 16 unpinned objects with four ~1 ms
/// messages each — and node 1 holds nothing, so it steals.
fn steal_run(replay: Option<DecisionLog>) -> (Run, BTreeMap<ObjectId, Vec<u8>>) {
    let cfg = MrtsConfig::in_core(NODES)
        .with_work_stealing()
        .with_io_threads(1);
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(TRAIL_TAG, |buf| Ok(Box::new(Trail(buf.to_vec()))));
    rt.register_handler(H_VISIT, "visit", h_visit);
    let log = Arc::new(EventLog::new());
    rt.attach_audit(log.clone());
    for _ in 0..16 {
        let p = rt.create_object(0, Box::new(Trail(Vec::new())), 128);
        for _ in 0..4 {
            rt.post(p, H_VISIT, Vec::new());
        }
    }
    match replay {
        Some(d) => rt.replay_decisions(d),
        None => rt.record_decisions(),
    }
    let stats = rt.run();
    let mut objects = BTreeMap::new();
    rt.for_each_object(|oid, obj| {
        let mut bytes = Vec::new();
        obj.encode(&mut bytes);
        objects.insert(oid, bytes);
    });
    let run = Run {
        elements: 0,
        vertices: 0,
        stats,
        decisions: rt
            .take_decision_log()
            .unwrap_or_else(|| DecisionLog::new(NODES)),
        stream: canonicalize(&log.snapshot(), NODES),
    };
    (run, objects)
}

#[test]
fn granted_steals_replay_without_log_entries() {
    let (rec, rec_objects) = steal_run(None);
    assert!(
        rec.stats.total_of(|n| n.tasks_stolen as usize) > 0,
        "no steal was granted: {}",
        rec.stats.summary()
    );
    assert!(rec_objects.values().any(|trail| trail.contains(&1)));
    println!(
        "steals requested/granted: {}/{}",
        rec.stats.total_of(|n| n.steal_requests as usize),
        rec.stats.total_of(|n| n.tasks_stolen as usize)
    );
    let (rep, rep_objects) = steal_run(Some(rec.decisions));
    assert_eq!(
        rep.stats.total_of(|n| n.replay_divergences),
        0,
        "{}",
        rep.stats.summary()
    );
    let report = compare(&rec.stream, &rep.stream);
    assert!(report.events_compared > 0 && report.is_clean(), "{report}");
    assert_eq!(rep_objects, rec_objects, "the steals replayed differently");
}
