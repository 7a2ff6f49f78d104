//! Integration: deterministic record/replay of the threaded engine.
//!
//! A chaos-net OPCDM schedule is recorded (every fabric poll, I/O
//! completion, deferred flush, and retransmit timer routed through the
//! decision log) and re-executed under the log; with a single I/O pool
//! thread the canonical audit stream must come back byte-identical — for
//! ten seeds with work stealing on, whose steals replay without log
//! entries, and for a storage-fault schedule, whose faults and retries
//! replay in program order. A deliberately perturbed stream must be
//! pinpointed at the exact first-divergence index, and a decision log
//! perturbed against each divergence rule — a mismatching frame, a log
//! that runs out, answers left unused, an unknown completion, a frame no
//! node can send — must fail the replay with `MrtsError::ReplayDiverged`
//! at the exact node and decision. A threaded run under replay must
//! still produce the mesh the DES engine produces, and a run whose steals
//! are granted must replay them — logged nowhere — to the same objects.
//! The virtual-time engine needs no log at all: a chaos-net schedule run
//! there again gives the same stream, retransmits and all.

use pumg::harness::{self, RunOutcome, CHAOS_NET_THREADED, CHAOS_THREADED, REPLAY_SMOKE};
use pumg::methods::ooc_pcdm::{opcdm_run, opcdm_run_with, opcdm_setup};
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

/// Replay schedule `seed` under a perturbed log `decisions`: the typed
/// divergence it must fail with.
fn diverged(seed: u64, decisions: DecisionLog) -> MrtsError {
    let cfg = cfg(seed);
    let spill = cfg.spill_dir.clone();
    let mut rt = opcdm_setup::<Threads>(&harness::params(NODES), cfg, |rt| {
        rt.replay_decisions(decisions)
    });
    let err = rt.try_run().expect_err("a perturbed log must diverge");
    drop(rt);
    if let Some(dir) = spill {
        let _ = std::fs::remove_dir_all(dir);
    }
    err
}

/// The node and index of the first decision `pick` accepts.
fn first(log: &DecisionLog, pick: impl Fn(&Decision) -> bool) -> (usize, usize) {
    (log.nodes.iter().enumerate())
        .find_map(|(node, ds)| ds.iter().position(&pick).map(|i| (node, i)))
        .expect("the recording holds such a decision")
}

/// `err` is a replay divergence of `node` at decision `index`, where the
/// log said `expected`.
fn assert_diverged(err: MrtsError, node: usize, index: usize, expected: Option<Decision>) {
    match err {
        MrtsError::ReplayDiverged {
            node: n,
            index: i,
            expected: e,
            ..
        } => assert_eq!((n as usize, i, e), (node, index, expected)),
        other => panic!("expected a replay divergence, got: {other}"),
    }
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
        let failed = rec.error.is_some() || rep.error.is_some();
        if failed || !report.is_clean() || report.events_compared == 0 {
            let path = harness::persist_artifact(REPLAY_SMOKE, seed, &rec);
            panic!(
                "seed {seed}: run errors {:?} / {:?}\n\
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
    assert_eq!(live.error, None, "{path}");
    assert!(report.is_clean(), "{path}: {report}");
}

/// Record schedule `seed` of harness `id`, replay it under its decision
/// log, and require a replay that follows the log, a byte-identical audit
/// stream and the recorded mesh. Returns the recording.
fn replays_byte_identically(id: &str, seed: u64) -> RunOutcome {
    let rec = harness::record_run(harness_cfg(id, seed), &[], None);
    assert_eq!(rec.error, None, "{id} seed {seed}");
    let rep = harness::replay_run(harness_cfg(id, seed), rec.decisions.clone());
    assert_eq!(rep.error, None, "{id} seed {seed}");
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

/// A frame whose tag is not the logged one: the replay stops at that
/// read.
#[test]
fn perturbed_decision_log_is_caught_by_the_sequencer() {
    let mut log = record(13).decisions;
    let (node, i) = first(&log, |d| matches!(d, Decision::FabricRecv { .. }));
    if let Decision::FabricRecv { tag, .. } = &mut log.nodes[node][i] {
        *tag ^= 0x5A5A;
    }
    let expected = Some(log.nodes[node][i]);
    assert_diverged(diverged(13, log), node, i, expected);
}

/// A log that runs out while the worker still asks.
#[test]
fn a_cut_log_diverges_at_the_cut() {
    let mut log = record(13).decisions;
    let cut = log.nodes[1].len() / 2;
    log.nodes[1].truncate(cut);
    assert_diverged(diverged(13, log), 1, cut, None);
}

/// Answers left when a live node stops.
#[test]
fn unused_answers_diverge_when_the_node_stops() {
    let mut log = record(13).decisions;
    let end = log.nodes[0].len();
    log.nodes[0].push(Decision::FabricEmpty);
    assert_diverged(diverged(13, log), 0, end, Some(Decision::FabricEmpty));
}

/// A completion of a request nobody issued.
#[test]
fn an_unknown_completion_diverges() {
    let mut log = record(13).decisions;
    let (node, i) = first(&log, |d| matches!(d, Decision::IoDone { .. }));
    if let Decision::IoDone { oid, .. } = &mut log.nodes[node][i] {
        *oid ^= 1 << 60;
    }
    let expected = Some(log.nodes[node][i]);
    assert_diverged(diverged(13, log), node, i, expected);
}

/// A frame on the node's own edge, where none ever travels: no node can
/// move, and the node that waits for it is named.
#[test]
fn a_frame_no_node_sends_stalls_the_replay() {
    let mut log = record(13).decisions;
    let i = (log.nodes[1].iter())
        .position(|d| matches!(d, Decision::FabricRecv { .. }))
        .expect("node 1 receives frames");
    if let Decision::FabricRecv { src, .. } = &mut log.nodes[1][i] {
        *src = 1;
    }
    let expected = Some(log.nodes[1][i]);
    assert_diverged(diverged(13, log), 1, i, expected);
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
    assert_eq!(rep.error, None);
    assert_eq!((des.elements, des.vertices), rec.mesh());
    assert_eq!((des.elements, des.vertices), rep.mesh());
}

/// Chaos-net seeds on the virtual-time engine under
/// `deterministic_compute`: the reliable layer's acks, retransmits and
/// dedup run in virtual time, so every rerun of a seed yields the
/// byte-identical canonical stream with no decision log.
#[test]
fn virtual_chaos_net_streams_are_identical_on_every_rerun() {
    let run = |seed| {
        let mut cfg = MrtsConfig::out_of_core(NODES, harness::BUDGET)
            .with_net_faults(harness::chaos_net_plan(seed));
        cfg.deterministic_compute = true;
        let log = Arc::new(EventLog::new());
        let sink = log.clone();
        opcdm_run_with::<Des>(&harness::params(NODES), cfg, move |rt| {
            rt.attach_audit(sink)
        });
        log.snapshot()
    };
    let (mut retransmits, mut dups) = (0, 0);
    for seed in 0..4 {
        let first = run(seed);
        let count = |f: fn(&RuntimeEvent) -> bool| first.iter().filter(|e| f(e)).count();
        retransmits += count(|e| matches!(e, RuntimeEvent::Retransmit { .. }));
        dups += count(|e| matches!(e, RuntimeEvent::DupSuppressed { .. }));
        let want = canonicalize(&first, NODES);
        for rerun in 1..=2 {
            let report = compare(&want, &canonicalize(&run(seed), NODES));
            assert!(
                report.is_clean() && report.events_compared == want.total_events(),
                "seed {seed} rerun {rerun} diverged:\n{report}"
            );
        }
    }
    assert!(retransmits > 0, "no retransmit in any stream — vacuous");
    assert!(dups > 0, "no suppressed duplicate in any stream — vacuous");
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
    // A replay that leaves its log fails the run, and `run` panics.
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
        diverged: false,
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
    let report = compare(&rec.recorded, &rep.recorded);
    assert!(report.events_compared > 0 && report.is_clean(), "{report}");
    assert_eq!(rep_objects, rec_objects, "the steals replayed differently");
}
