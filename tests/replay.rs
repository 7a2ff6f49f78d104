//! Integration: deterministic record/replay of the threaded engine.
//!
//! A chaos-net OPCDM schedule is recorded (every fabric poll, I/O
//! completion, deferred flush, and retransmit timer routed through the
//! decision log) and re-executed under the log; with a single I/O pool
//! thread the canonical audit stream must come back byte-identical — for
//! ten seeds with work stealing on, whose steals replay without log
//! entries, and for a storage-fault schedule, whose faults and retries
//! replay in program order. A deliberately perturbed stream must be
//! pinpointed at the exact first-divergence index, and a perturbed decision
//! log must be caught by the sequencer. A threaded run under replay must
//! still produce the mesh the DES engine produces, and a run whose steals
//! are granted must replay them — logged nowhere — to the same objects.

use pumg::harness::{self, RunOutcome, CHAOS_NET_THREADED, CHAOS_THREADED, REPLAY_SMOKE};
use pumg::methods::ooc_pcdm::opcdm_run;
use pumg::mrts::prelude::*;
use pumg::mrts::replay::{canonicalize, compare};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 2;

/// Harness `id`'s schedule `seed` with one I/O pool thread: storage fault
/// draws follow the store's operation counter, so only a single pool
/// thread makes them — and the whole stream — a deterministic sequence.
fn harness_cfg(id: &str, seed: u64) -> MrtsConfig {
    harness::harness_config(id, seed, NODES)
        .expect("known harness id")
        .with_io_threads(1)
}

/// A chaos-net schedule with one I/O pool thread.
fn cfg(seed: u64) -> MrtsConfig {
    harness_cfg(CHAOS_NET_THREADED, seed)
}

fn record(seed: u64) -> RunOutcome {
    let run = harness::record_run(cfg(seed), &[], None);
    assert_eq!(run.error, None, "seed {seed}");
    run
}

fn replay(seed: u64, decisions: DecisionLog) -> RunOutcome {
    let run = harness::replay_run(cfg(seed), decisions);
    assert_eq!(run.error, None, "seed {seed}");
    run
}

#[test]
fn ten_chaos_net_seeds_with_stealing_replay_byte_identically() {
    let config = |seed| harness::harness_config(REPLAY_SMOKE, seed, NODES).expect("known harness");
    let mut steal_requests = 0;
    let mut kept = None;
    for seed in 0..10 {
        let rec = harness::record_run(config(seed), &[], None);
        let recorded = rec.stats.total_of(|n| n.decisions_recorded);
        assert!(recorded > 0, "seed {seed} recorded no decisions — vacuous");
        steal_requests += rec.stats.total_of(|n| n.steal_requests as usize);
        let rep = harness::replay_run(config(seed), rec.decisions.clone());
        let report = compare(&rec.recorded, &rep.recorded);
        let divergences = rep.stats.total_of(|n| n.replay_divergences);
        let failed = rec.error.is_some() || rep.error.is_some();
        if failed || !report.is_clean() || report.events_compared == 0 || divergences > 0 {
            let path = harness::persist_artifact(REPLAY_SMOKE, seed, &rec);
            panic!(
                "seed {seed}: run errors {:?} / {:?}, {divergences} sequencer divergences\n\
                 {report}re-execute: cargo run -p pumg --bin replay -- {path}",
                rec.error, rep.error
            );
        }
        assert_eq!(
            rep.mesh(),
            rec.mesh(),
            "seed {seed}: replay changed the mesh"
        );
        kept.get_or_insert(rec);
    }
    assert!(
        steal_requests > 0,
        "no seed issued a steal request — vacuous"
    );
    // Seed 0's artifact stays under target/replay/ as a known-clean input
    // for the `replay` tool, and goes through the tool's own path here.
    let path = harness::persist_artifact(REPLAY_SMOKE, 0, &kept.expect("ten seeds ran"));
    let art = ReplayArtifact::load(path.as_ref()).expect("the saved artifact loads");
    let (report, live) = harness::replay_artifact(&art).expect("known harness");
    let divergences = live.stats.total_of(|n| n.replay_divergences);
    assert!(report.is_clean() && divergences == 0, "{path}: {report}");
}

/// Record schedule `seed` of harness `id`, replay it under its decision
/// log, and require zero sequencer divergences, a byte-identical audit
/// stream and the recorded mesh. Returns the recording.
fn replays_byte_identically(id: &str, seed: u64) -> RunOutcome {
    let rec = harness::record_run(harness_cfg(id, seed), &[], None);
    assert_eq!(rec.error, None, "{id} seed {seed}");
    let rep = harness::replay_run(harness_cfg(id, seed), rec.decisions.clone());
    assert_eq!(rep.error, None, "{id} seed {seed}");
    assert_eq!(
        rep.stats.total_of(|n| n.replay_divergences),
        0,
        "sequencer diverged: {}",
        rep.stats.summary()
    );
    let report = compare(&rec.recorded, &rep.recorded);
    assert!(report.events_compared > 0, "no events compared — vacuous");
    assert!(
        report.is_clean(),
        "audit streams must be byte-identical:\n{report}"
    );
    assert_eq!(rec.mesh(), rep.mesh());
    rec
}

#[test]
fn recorded_chaos_net_schedule_replays_byte_identically() {
    let rec = replays_byte_identically(CHAOS_NET_THREADED, 26);
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
}

/// Storage faults are announced on the worker thread as it folds each
/// I/O completion in, so a storage-fault schedule's `Fault` and `Retry`
/// events replay in program order with the rest of the stream.
#[test]
fn recorded_storage_fault_schedule_replays_byte_identically() {
    let rec = replays_byte_identically(CHAOS_THREADED, 20);
    let events = || rec.recorded.nodes.iter().flatten();
    let count = |kind: &str| events().filter(|e| e.starts_with(kind)).count();
    let (faults, retries) = (count("Fault {"), count("Retry {"));
    assert!(
        faults > 0 && retries > 0,
        "{faults} faults, {retries} retries recorded — vacuous"
    );
}

#[test]
fn perturbed_stream_reports_the_exact_first_divergence_index() {
    let rec = record(12);
    let node = rec
        .recorded
        .nodes
        .iter()
        .position(|n| n.len() >= 2)
        .expect("a chaos-net run emits events");
    let idx = rec.recorded.nodes[node].len() / 2;
    let mut cut = rec.recorded.clone();
    cut.nodes[node].truncate(idx);
    let report = compare(&cut, &rec.recorded);
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
    let rec = record(13);
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
    let rep = replay(13, bad);
    let report = compare(&rec.recorded, &rep.recorded);
    assert!(
        rep.stats.total_of(|n| n.replay_divergences) > 0 || !report.is_clean(),
        "a corrupted decision must be detected"
    );
    // Divergence is detection, not failure: the replay falls back to
    // live execution and must still finish the mesh.
    assert_eq!(rep.mesh(), rec.mesh());
}

#[test]
fn threaded_under_replay_matches_des_mesh() {
    // The cross-engine contract of `threaded_engine_produces_identical_mesh`
    // (tests/ooc_behavior.rs) survives replay: the same fault-free config
    // pair, with the threaded side re-executed under a recorded decision
    // log, still produces exactly the virtual-time engine's mesh.
    let des = opcdm_run::<Des>(&harness::params(NODES), MrtsConfig::in_core(NODES));
    let parity_cfg = || {
        let mut cfg = MrtsConfig::out_of_core(NODES, 300_000).with_io_threads(1);
        cfg.spill_dir = Some(harness::spill_dir());
        cfg
    };
    let rec = harness::record_run(parity_cfg(), &[], None);
    assert!(rec.stats.total_of(|n| n.decisions_recorded) > 0);
    let rep = harness::replay_run(parity_cfg(), rec.decisions.clone());
    assert_eq!(rep.stats.total_of(|n| n.replay_divergences), 0);
    assert_eq!((des.elements, des.vertices), rec.mesh());
    assert_eq!((des.elements, des.vertices), rep.mesh());
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
fn steal_run(replay: Option<DecisionLog>) -> (RunOutcome, BTreeMap<ObjectId, Vec<u8>>) {
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
    let run = RunOutcome {
        elements: 0,
        vertices: 0,
        stats,
        error: None,
        decisions: rt
            .take_decision_log()
            .unwrap_or_else(|| DecisionLog::new(NODES)),
        recorded: canonicalize(&log.snapshot(), NODES),
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
    let report = compare(&rec.recorded, &rep.recorded);
    assert!(report.events_compared > 0 && report.is_clean(), "{report}");
    assert_eq!(rep_objects, rec_objects, "the steals replayed differently");
}
