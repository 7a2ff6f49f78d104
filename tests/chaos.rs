//! Chaos schedules: seeded storage faults (EIO, torn writes, latency
//! spikes, ENOSPC windows) and fabric faults (drops, duplicates, delays,
//! reorders, partition windows, a duplicate storm) driven through both
//! engines on the harness mesh workload (OPCDM, `pumg::harness`), at 2
//! nodes and at 16. They check that
//!
//! * no audit invariant is ever violated and no threaded run races,
//! * the final mesh is the one the fault-free run produces (faults cost
//!   time, never correctness), and handlers run exactly once,
//! * under `deterministic_compute` faults cost no virtual time either: a
//!   chaos run keeps the mesh and the makespan of its zero-rate twin,
//! * a full disk degrades the run instead of killing it, and the run
//!   recovers when space returns,
//! * an unreadable spilled object surfaces as a typed error, not a panic,
//! * a kill between mesh phases recovers from the on-disk checkpoint and
//!   finishes with the identical mesh,
//! * a peer busy in one long handler is alive, while a dead hint self-heals
//!   and a dead home or a mid-run node crash is a typed error.
//!
//! A failing threaded schedule is saved under `target/replay/`; the panic
//! message names the `replay` command that re-executes it.

use pumg::harness::{self, BUDGET, CHAOS_NET_THREADED, CHAOS_THREADED, DUP_STORM};
use pumg::methods::domain::Workload;
use pumg::methods::ooc_pcdm::{
    create_subdomains, opcdm_collect, opcdm_digest, opcdm_run, opcdm_run_with, opcdm_setup,
    register, SubObj, H_REFINE,
};
use pumg::methods::pcdm::PcdmParams;
use pumg::methods::MethodResult;
use pumg::mrts::audit::{
    EventLog, EventSink, FailMode, InvariantChecker, RaceDetector, RuntimeEvent,
};
use pumg::mrts::checkpoint::Checkpoint;
use pumg::mrts::codec::{PayloadReader, PayloadWriter};
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::ctx::Ctx;
use pumg::mrts::des::{Des, DesRuntime};
use pumg::mrts::fault::{FaultPlan, MrtsError};
use pumg::mrts::ids::{HandlerId, MobilePtr, ObjectId, TypeTag};
use pumg::mrts::netfault::NetFaultPlan;
use pumg::mrts::object::{MobileObject, ObjectDecodeError};
use pumg::mrts::runtime::{Engine, Runtime};
use pumg::mrts::stats::RunStats;
use pumg::mrts::threaded::{ThreadedRuntime, Threads};
use std::any::Any;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mrts-chaos-{label}-{}", std::process::id()))
}

/// The fault-free mesh of the harness workload on engine `E`.
fn reference<E: Engine>(nodes: usize) -> (u64, u64) {
    let mut cfg = MrtsConfig::out_of_core(nodes, BUDGET);
    cfg.spill_dir = Some(harness::spill_dir());
    let dir = cfg.spill_dir.clone();
    let r = opcdm_run::<E>(&harness::params(nodes), cfg);
    let _ = std::fs::remove_dir_all(dir.expect("spill dir set"));
    (r.elements, r.vertices)
}

/// The harness workload on the virtual-time engine under `cfg`, with the
/// invariant checker attached; `what` names the schedule in failures.
fn des_run(nodes: usize, cfg: MrtsConfig, what: &str) -> MethodResult {
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let sink = chk.clone();
    let r = opcdm_run_with::<Des>(&harness::params(nodes), cfg, move |rt| {
        rt.attach_audit(sink)
    });
    assert!(
        chk.violations().is_empty(),
        "{what} violated invariants: {:?}",
        chk.violations()
    );
    r
}

/// Record threaded harness schedule `seed` at `nodes` with the invariant
/// checker and race detector attached. A violation, a race or a mesh other
/// than `want` fails the test, after the schedule is saved for the
/// `replay` tool.
fn threaded_schedule(harness_id: &str, seed: u64, nodes: usize, want: (u64, u64)) -> RunStats {
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let det = Arc::new(RaceDetector::new(nodes));
    let cfg = harness::harness_config(harness_id, seed, nodes).expect("known harness id");
    let sink: Arc<dyn EventSink> = chk.clone();
    let r = harness::record_run(cfg, &[sink], Some(det.clone()));
    let mut wrong = Vec::new();
    if let Some(e) = &r.error {
        wrong.push(format!("run failed: {e}"));
    }
    if !chk.violations().is_empty() {
        wrong.push(format!("invariant violations {:?}", chk.violations()));
    }
    if !det.races().is_empty() {
        wrong.push(format!("races {:?}", det.races()));
    }
    if r.mesh() != want {
        wrong.push(format!("mesh {:?}, fault-free {want:?}", r.mesh()));
    }
    if !wrong.is_empty() {
        let path = harness::persist_artifact(harness_id, seed, &r);
        panic!(
            "{harness_id} seed {seed} at {nodes} nodes: {}\n\
             re-execute: cargo run -p pumg --bin replay -- {path}",
            wrong.join("; ")
        );
    }
    r.stats
}

// ---------------------------------------------------------------------------
// Storage chaos.
// ---------------------------------------------------------------------------

/// Transient storage-fault schedules on the virtual-time engine: the
/// fault-free mesh, and no retry budget ever exhausted.
fn des_storage_chaos(nodes: usize, seeds: Range<u64>, reference: (u64, u64)) {
    let mut faults = 0usize;
    for seed in seeds {
        let what = format!("DES storage seed {seed} at {nodes} nodes");
        let cfg = MrtsConfig::out_of_core(nodes, BUDGET).with_faults(harness::des_chaos_plan(seed));
        let r = des_run(nodes, cfg, &what);
        assert_eq!(
            (r.elements, r.vertices),
            reference,
            "{what}: faults changed the mesh"
        );
        assert_eq!(
            r.stats.total_of(|n| n.io_gave_up),
            0,
            "{what}: a transient schedule must never exhaust retries"
        );
        assert!(
            r.stats.nodes.iter().all(|n| n.stores > 0),
            "{what}: a node never spilled, so its faults never fired"
        );
        faults += r.stats.total_of(|n| n.faults_injected);
    }
    assert!(faults > 0, "no storage fault injected — vacuous");
}

/// ENOSPC windows `(seed, first failing store op, length)` on the
/// virtual-time engine: every run enters degraded mode, spills again once
/// space returns, and keeps the mesh within 3 %. Degraded windows pause
/// eviction, which reorders refinement, so the mesh may differ slightly.
fn des_enospc(nodes: usize, windows: &[(u64, u64, u64)], reference: (u64, u64)) {
    let elements = reference.0;
    for &(seed, at, len) in windows {
        let what = format!("ENOSPC seed {seed} window {at}+{len} at {nodes} nodes");
        let plan = FaultPlan::new(seed).with_enospc_window(at, len);
        let r = des_run(
            nodes,
            MrtsConfig::out_of_core(nodes, BUDGET).with_faults(plan),
            &what,
        );
        assert!(
            r.stats.total_of(|n| n.degraded_entries) > 0,
            "{what}: full disk never entered degraded mode"
        );
        let ratio = r.elements as f64 / elements as f64;
        assert!(
            (0.97..1.03).contains(&ratio),
            "{what}: degraded run changed the mesh materially: {} vs {elements}",
            r.elements
        );
        assert!(
            r.stats.total_of(|n| n.stores) > 0,
            "{what}: never spilled after recovery"
        );
    }
}

/// Transient storage-fault schedules on the threaded engine.
fn threaded_storage_chaos(nodes: usize, seeds: Range<u64>) {
    let want = reference::<Threads>(nodes);
    let mut faults = 0usize;
    for seed in seeds {
        let stats = threaded_schedule(CHAOS_THREADED, seed, nodes, want);
        assert!(
            stats.nodes.iter().all(|n| n.stores > 0),
            "seed {seed} at {nodes} nodes: a node never spilled, so its faults never fired"
        );
        faults += stats.total_of(|n| n.faults_injected);
    }
    assert!(faults > 0, "no storage fault injected — vacuous");
}

#[test]
fn des_chaos_schedules_preserve_mesh_and_invariants() {
    des_storage_chaos(2, 0..14, reference::<Des>(2));
}

#[test]
fn threaded_chaos_schedules_preserve_mesh_and_invariants() {
    threaded_storage_chaos(2, 0..6);
}

#[test]
fn enospc_window_degrades_and_recovers_des() {
    // Windows open at the first store op and mid-run.
    let windows = [(1, 0, 8), (2, 0, 8), (3, 0, 8), (1, 2, 6), (2, 2, 6)];
    des_enospc(2, &windows, reference::<Des>(2));
}

#[test]
fn enospc_window_degrades_and_recovers_threaded() {
    // The threaded engine's spill count varies with thread interleaving;
    // open the window on the second store so any run that spills at all
    // walks into the full disk.
    let plan = FaultPlan::new(7).with_enospc_window(1, 6);
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let det = Arc::new(RaceDetector::new(2));
    let dir = tmp("t-enospc");
    let mut cfg = MrtsConfig::out_of_core(2, BUDGET).with_faults(plan);
    cfg.spill_dir = Some(dir.clone());
    let (sink, races) = (chk.clone(), det.clone());
    let r = opcdm_run_with::<Threads>(&harness::params(2), cfg, move |rt| {
        rt.attach_audit(sink);
        rt.attach_race_detector(races);
    });
    let _ = std::fs::remove_dir_all(dir);
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    assert!(det.races().is_empty(), "{:?}", det.races());
    assert!(
        r.stats.total_of(|n| n.degraded_entries) > 0,
        "full disk never entered degraded mode"
    );
    assert!(r.elements > 0);
}

#[test]
fn des_chaos_schedules_at_16_nodes() {
    let reference = reference::<Des>(16);
    des_storage_chaos(16, 0..4, reference);
    // From store op 0: at 16 nodes a node's store-op count may stay in the
    // low single digits, and a window nobody enters fails as vacuous.
    des_enospc(16, &[(1, 0, 8)], reference);
}

#[test]
fn threaded_chaos_schedules_at_16_nodes() {
    threaded_storage_chaos(16, 0..2);
}

// ---------------------------------------------------------------------------
// Typed load-failure errors: a tiny two-object ping-pong under a budget
// that holds only one of them, with every load failing permanently.
// ---------------------------------------------------------------------------

const PAD_TAG: TypeTag = TypeTag(0x7A0);
const H_PING: HandlerId = HandlerId(0x7A1);

struct Pad {
    peer: Option<MobilePtr>,
    data: Vec<u8>,
}

impl Pad {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let peer = if r.u8().unwrap() == 1 {
            Some(r.ptr().unwrap())
        } else {
            None
        };
        let data = r.bytes().unwrap().to_vec();
        Ok(Box::new(Pad { peer, data }))
    }
}

impl MobileObject for Pad {
    fn type_tag(&self) -> TypeTag {
        PAD_TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        match self.peer {
            Some(p) => {
                w.u8(1).ptr(p);
            }
            None => {
                w.u8(0);
            }
        }
        w.bytes(&self.data);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        self.data.len() + 64
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_ping(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let hops = r.u64().unwrap();
    let pad = obj.as_any_mut().downcast_mut::<Pad>().unwrap();
    if hops > 0 {
        if let Some(peer) = pad.peer {
            let mut w = PayloadWriter::new();
            w.u64(hops - 1);
            ctx.send(peer, H_PING, w.finish());
        }
    }
}

/// Every load fails permanently; the first reload of a spilled object
/// must exhaust the retry budget and surface as `MrtsError::LoadFailed`.
fn dead_load_plan() -> FaultPlan {
    let mut plan = FaultPlan::new(0xDEAD);
    plan.load_eio_permille = 1000;
    plan
}

fn pad_cfg() -> MrtsConfig {
    MrtsConfig::out_of_core(1, 3_000).with_faults(dead_load_plan())
}

fn ping_payload(hops: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(hops);
    w.finish()
}

/// Two pads ping each other through a one-node cluster that cannot hold
/// both; the first reload fails for good.
fn load_exhaustion<E: Engine>(spill_dir: Option<PathBuf>) {
    let mut cfg = pad_cfg();
    cfg.spill_dir = spill_dir;
    let mut rt = Runtime::<E>::new(cfg);
    rt.register_type(PAD_TAG, Pad::decode);
    rt.register_handler(H_PING, "ping", h_ping);
    let a = MobilePtr::new(ObjectId::new(0, 0));
    let b = MobilePtr::new(ObjectId::new(0, 1));
    for (peer, fill) in [(b, 0x11), (a, 0x22)] {
        let pad = Pad {
            peer: Some(peer),
            data: vec![fill; 2_500],
        };
        rt.create_object(0, Box::new(pad), 128);
    }
    rt.post(a, H_PING, ping_payload(6));
    match rt.try_run() {
        Err(MrtsError::LoadFailed { attempts, .. }) => {
            assert!(attempts >= 1, "error must report the attempts made");
        }
        other => panic!("expected LoadFailed, got {other:?}"),
    }
}

#[test]
fn load_exhaustion_is_typed_error_des() {
    load_exhaustion::<Des>(None);
}

#[test]
fn load_exhaustion_is_typed_error_threaded() {
    let dir = tmp("exhaust");
    load_exhaustion::<Threads>(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(dir);
}

/// An unpack that panics takes down the only I/O thread of the node that
/// runs it. The reload it was serving never lands, so the run must fail
/// instead of waiting on the pool forever.
#[test]
fn lost_io_pool_fails_the_run_instead_of_waiting_forever() {
    fn refuse(_: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        panic!("unpack refused");
    }
    let dir = tmp("lost-pool");
    let mut cfg = MrtsConfig::out_of_core(1, 3_000).with_io_threads(1);
    cfg.spill_dir = Some(dir.clone());
    let run = std::panic::catch_unwind(move || {
        let mut rt = ThreadedRuntime::new(cfg);
        rt.register_type(PAD_TAG, refuse);
        rt.register_handler(H_PING, "ping", h_ping);
        let a = MobilePtr::new(ObjectId::new(0, 0));
        let b = MobilePtr::new(ObjectId::new(0, 1));
        for (peer, fill) in [(b, 0x11), (a, 0x22)] {
            let pad = Pad {
                peer: Some(peer),
                data: vec![fill; 2_500],
            };
            rt.create_object(0, Box::new(pad), 128);
        }
        rt.post(a, H_PING, ping_payload(6));
        rt.try_run().is_ok()
    });
    let _ = std::fs::remove_dir_all(dir);
    assert!(run.is_err(), "a run whose I/O pool died must not finish");
}

// ---------------------------------------------------------------------------
// Kill-between-phases recovery: phase 1 meshes a coarse workload, the
// checkpoint is the phase barrier, phase 2 retunes every subdomain to a
// finer workload and refines again. The crashed path persists the
// checkpoint segmented on disk, "dies" (drops the runtime), reads the
// checkpoint back — past a torn tail — and must finish with the mesh the
// uninterrupted path produced. Retune and refine are both posted before
// the run starts (a refine sent from inside the retune handler would race
// the neighbors' splits). Asynchronous OPCDM on OS threads is still not
// bit-reproducible by construction, so the kill-recovery
// comparison runs phase 2 on the virtual-time engine under
// `deterministic_compute`, where the schedule is a pure function of the
// checkpoint.
// ---------------------------------------------------------------------------

const H_RETUNE: HandlerId = HandlerId(0x902);

fn h_retune(obj: &mut dyn MobileObject, _ctx: &mut Ctx, _payload: &[u8]) {
    let so = obj.as_any_mut().downcast_mut::<SubObj>().unwrap();
    so.workload = Workload::uniform_square(9_000);
}

/// The messages that start phase 2: per subdomain, retune then refine.
/// Posted before the run, the per-object FIFO delivers both ahead of any
/// neighbor's splits.
fn phase2_posts(cp: &Checkpoint) -> impl Iterator<Item = (MobilePtr, HandlerId)> + '_ {
    cp.objects.iter().flat_map(|e| {
        let ptr = MobilePtr::new(e.oid);
        [(ptr, H_RETUNE), (ptr, H_REFINE)]
    })
}

/// Phase 2 from a checkpoint under `cfg` on engine `E`: `(canonical mesh
/// digest, elements)`. Homes wrap modulo the cluster size, so a checkpoint
/// taken on two nodes restores cleanly onto one (the crash re-homing
/// path).
fn phase2<E: Engine>(cp: &Checkpoint, cfg: MrtsConfig) -> (u64, u64) {
    let spill = cfg.spill_dir.clone();
    let mut rt = Runtime::<E>::new(cfg);
    register(&mut rt);
    rt.register_handler(H_RETUNE, "retune", h_retune);
    cp.restore_into(&mut rt);
    for (ptr, handler) in phase2_posts(cp) {
        rt.post(ptr, handler, Vec::new());
    }
    rt.run();
    let mut elements = 0u64;
    rt.for_each_object(|_, obj| {
        if let Some(so) = obj.as_any().downcast_ref::<SubObj>() {
            elements += so.sd.mesh.num_tris() as u64;
        }
    });
    let digest = opcdm_digest(&rt);
    drop(rt);
    if let Some(dir) = spill {
        let _ = std::fs::remove_dir_all(dir);
    }
    (digest, elements)
}

/// Phase 2 on `nodes` threaded workers spilling under `spill`.
fn run_phase2_on(cp: &Checkpoint, spill: PathBuf, nodes: usize) -> (u64, u64) {
    let mut cfg = MrtsConfig::out_of_core(nodes, 300_000);
    cfg.spill_dir = Some(spill);
    phase2::<Threads>(cp, cfg)
}

/// Phase 2 on the virtual-time engine with a reproducible schedule.
fn run_phase2_deterministic(cp: &Checkpoint) -> (u64, u64) {
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.deterministic_compute = true;
    phase2::<Des>(cp, cfg)
}

#[test]
fn kill_between_phases_recovers_identical_mesh() {
    let p = PcdmParams::new(Workload::uniform_square(4_000), 2);
    let spill1 = tmp("kill-p1");
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.spill_dir = Some(spill1.clone());
    let mut rt = opcdm_setup::<Threads>(&p, cfg, |_| {});
    rt.run();
    let cp = rt.checkpoint();
    assert!(!cp.objects.is_empty());

    // Uninterrupted path: the in-memory checkpoint is the phase barrier.
    let uninterrupted = run_phase2_deterministic(&cp);

    // Crashed path: persist, kill the runtime, restart from disk.
    let ckpt_dir = tmp("kill-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    cp.write_segmented(&ckpt_dir).unwrap();
    drop(rt);
    let _ = std::fs::remove_dir_all(spill1);

    // A torn tail after the seal (crash mid-append of a later record)
    // must not impede recovery: the segment replay discards it.
    let mut segs: Vec<_> = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    if let Some(last) = segs.last() {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(last).unwrap();
        f.write_all(&[0xFF, 0x00, 0xAB, 0x13, 0x37]).unwrap();
    }

    let recovered = Checkpoint::read_segmented(&ckpt_dir).unwrap();
    assert_eq!(recovered, cp, "recovered checkpoint must match the capture");
    let restarted = run_phase2_deterministic(&recovered);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    assert_eq!(
        restarted, uninterrupted,
        "restart from checkpoint must reproduce the uninterrupted mesh"
    );
    // Phase 2 actually refined past phase 1's mesh.
    let phase1: u64 = cp.objects.len() as u64;
    assert!(restarted.1 > phase1, "phase 2 must have refined the mesh");
}

// ---------------------------------------------------------------------------
// Network chaos: the same mesh workload over an unreliable fabric. The
// reliable-delivery layer (sequence numbers + acks + bounded-exponential
// retransmit) must absorb every seeded drop/dup/delay/reorder schedule
// without changing the mesh, executing a handler twice, or declaring
// termination with a message still in flight. Both engines run
// `harness::chaos_net_plan`.
// ---------------------------------------------------------------------------

/// Fabric-fault schedules on the virtual-time engine. A clean checker run
/// includes clean termination: no termination with a message in flight.
fn des_net_chaos(nodes: usize, seeds: Range<u64>, reference: (u64, u64)) {
    let (mut dropped, mut dups, mut acks) = (0usize, 0usize, 0usize);
    for seed in seeds {
        let what = format!("DES fabric seed {seed} at {nodes} nodes");
        let cfg =
            MrtsConfig::out_of_core(nodes, BUDGET).with_net_faults(harness::chaos_net_plan(seed));
        let r = des_run(nodes, cfg, &what);
        assert_eq!(
            (r.elements, r.vertices),
            reference,
            "{what}: fabric faults changed the mesh"
        );
        assert_eq!(
            r.stats.total_of(|n| n.messages_dropped),
            r.stats.total_of(|n| n.retransmits),
            "{what}: every drop is recovered by exactly one retransmit"
        );
        dropped += r.stats.total_of(|n| n.messages_dropped);
        dups += r.stats.total_of(|n| n.dup_suppressed);
        acks += r.stats.total_of(|n| n.acks_sent);
    }
    assert!(dropped > 0, "sweep dropped no messages — vacuous");
    assert!(dups > 0, "sweep suppressed no duplicates — vacuous");
    assert!(acks > 0, "delivered data messages must be acknowledged");
}

/// Partition windows on the virtual-time engine: sequence numbers 1‥6 of
/// every edge are dropped on every attempt the bounded-drop guarantee
/// allows, then the fabric heals. The window sits low because the mesh
/// workload exchanges only a handful of remote messages per edge.
fn des_partitions(nodes: usize, seeds: &[u64], reference: (u64, u64)) {
    for &seed in seeds {
        let what = format!("partition seed {seed} at {nodes} nodes");
        let plan = NetFaultPlan::new(0x9A27 ^ seed).with_partition(1, 6);
        let r = des_run(
            nodes,
            MrtsConfig::out_of_core(nodes, BUDGET).with_net_faults(plan),
            &what,
        );
        assert_eq!(
            (r.elements, r.vertices),
            reference,
            "{what}: the partition changed the mesh"
        );
        assert!(
            r.stats.total_of(|n| n.messages_dropped) > 0,
            "{what}: the partition dropped nothing — vacuous"
        );
    }
}

/// Fabric-fault schedules on the threaded engine.
fn threaded_net_chaos(nodes: usize, seeds: Range<u64>, want: (u64, u64)) {
    let (mut dropped, mut retrans, mut dups, mut acks) = (0usize, 0usize, 0usize, 0usize);
    for seed in seeds {
        let stats = threaded_schedule(CHAOS_NET_THREADED, seed, nodes, want);
        assert_eq!(
            stats.total_of(|n| n.hints_invalidated),
            0,
            "seed {seed} at {nodes} nodes: no node died, so no hint may be invalidated"
        );
        dropped += stats.total_of(|n| n.messages_dropped);
        retrans += stats.total_of(|n| n.retransmits);
        dups += stats.total_of(|n| n.dup_suppressed);
        acks += stats.total_of(|n| n.acks_sent);
    }
    assert!(dropped > 0, "sweep dropped no messages — vacuous");
    assert!(
        retrans >= dropped,
        "every drop needs at least one retransmit"
    );
    assert!(dups > 0, "sweep suppressed no duplicates — vacuous");
    assert!(acks > 0, "delivered data messages must be acknowledged");
}

/// Half of all transmissions are duplicated; the receiver's sequence-number
/// dedup must make every handler run exactly once. A double execution
/// drives the checker's outstanding-delivery count negative
/// (`Invariant::DuplicateDelivery`), and a mutated mesh would diverge.
fn duplicate_storm(nodes: usize, want: (u64, u64)) {
    let stats = threaded_schedule(DUP_STORM, 0, nodes, want);
    assert!(
        stats.total_of(|n| n.dup_suppressed) > 0,
        "a 500‰ dup storm must exercise the dedup path"
    );
}

#[test]
fn des_net_chaos_schedules_preserve_mesh_and_counters() {
    des_net_chaos(2, 0..20, reference::<Des>(2));
}

#[test]
fn des_partition_windows_heal() {
    des_partitions(2, &[1, 2, 3], reference::<Des>(2));
}

#[test]
fn threaded_net_chaos_schedules_preserve_mesh_and_counters() {
    threaded_net_chaos(2, 0..20, reference::<Threads>(2));
}

#[test]
fn duplicate_storm_executes_handlers_exactly_once() {
    duplicate_storm(2, reference::<Threads>(2));
}

#[test]
fn des_net_chaos_schedules_at_16_nodes() {
    let reference = reference::<Des>(16);
    des_net_chaos(16, 0..4, reference);
    des_partitions(16, &[1], reference);
}

#[test]
fn threaded_net_chaos_schedules_at_16_nodes() {
    let want = reference::<Threads>(16);
    threaded_net_chaos(16, 0..2, want);
    duplicate_storm(16, want);
}

// ---------------------------------------------------------------------------
// Fault recovery is free in virtual time. Under `deterministic_compute` a
// storage retry costs one disk op, and a lost frame is resent at once into
// the arrival slot its fault-free delivery reserved (`Gateway::sent`). So
// a chaos run keeps the schedule of a twin that runs the same plans at
// zero rates: the same mesh, byte for byte, at the same virtual makespan.
// ---------------------------------------------------------------------------

/// The 2-node harness workload on the virtual clock under
/// `deterministic_compute`, with the invariant checker attached: the mesh
/// digest, the element count and the run's stats. Refinement starts on
/// node 0's subdomains only, so node 1 idles until their splits arrive
/// and a frame that lands late moves the schedule. (Seeded everywhere,
/// both nodes stay busy and absorb a late frame.)
fn deterministic_run(
    fault: FaultPlan,
    net: Option<NetFaultPlan>,
    what: &str,
) -> (u64, u64, RunStats) {
    let mut cfg = MrtsConfig::out_of_core(2, BUDGET).with_faults(fault);
    cfg.net_fault = net;
    cfg.deterministic_compute = true;
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let mut rt = DesRuntime::new(cfg);
    register(&mut rt);
    rt.attach_audit(chk.clone());
    for p in create_subdomains(&mut rt, &harness::params(2)) {
        if p.id.home() == 0 {
            rt.post(p, H_REFINE, Vec::new());
        }
    }
    let stats = rt
        .try_run()
        .unwrap_or_else(|e| panic!("{what}: run failed: {e}"));
    assert!(
        chk.violations().is_empty(),
        "{what} violated invariants: {:?}",
        chk.violations()
    );
    (opcdm_digest(&rt), opcdm_collect(&rt).0, stats)
}

#[test]
fn deterministic_fault_recovery_costs_no_virtual_time() {
    // Zero-rate twins: the faulty store, and with it the reliable layer,
    // with nothing injected.
    let storage_twin = deterministic_run(FaultPlan::new(0), None, "storage twin");
    let fabric_twin =
        deterministic_run(FaultPlan::new(0), Some(NetFaultPlan::new(0)), "fabric twin");
    let (mut faults, mut dropped, mut dups) = (0usize, 0usize, 0usize);
    for seed in 0..128u64 {
        let storage = FaultPlan::new(0x5E21_11CE ^ seed)
            .with_eio(60)
            .with_torn_writes(40);
        // Odd seeds add fabric faults.
        let fabric = (seed % 2 == 1).then(|| {
            NetFaultPlan::new(0x5E21_11CE ^ seed)
                .with_drops(150)
                .with_dups(100)
                .with_reorder(60)
        });
        let twin = match fabric {
            Some(_) => &fabric_twin,
            None => &storage_twin,
        };
        let what = format!("deterministic chaos seed {seed}");
        let (digest, elements, stats) = deterministic_run(storage, fabric, &what);
        assert_eq!(
            stats.total_of(|n| n.io_gave_up),
            0,
            "{what}: a transient schedule must never exhaust retries"
        );
        assert_eq!(
            (digest, elements),
            (twin.0, twin.1),
            "{what}: faults changed the mesh"
        );
        assert_eq!(
            stats.total, twin.2.total,
            "{what}: fault recovery cost virtual time"
        );
        faults += stats.total_of(|n| n.faults_injected);
        dropped += stats.total_of(|n| n.messages_dropped);
        dups += stats.total_of(|n| n.dup_suppressed);
    }
    assert!(faults > 0, "no storage fault injected — vacuous");
    assert!(dropped > 0, "no frame dropped — vacuous");
    assert!(dups > 0, "no duplicate suppressed — vacuous");
}

// ---------------------------------------------------------------------------
// A busy peer is alive. A receiver acks only between handlers, so a peer
// inside one long handler is silent; the sender must keep retransmitting
// for longer than any handler runs before it declares the peer dead.
// ---------------------------------------------------------------------------

const H_NAP: HandlerId = HandlerId(0x904);

/// Sleep for the payload's milliseconds, then poke the pad's peer.
fn h_nap(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    std::thread::sleep(Duration::from_millis(r.u64().unwrap()));
    if let Some(peer) = obj.as_any().downcast_ref::<Pad>().unwrap().peer {
        ctx.send(peer, H_NAP, ping_payload(0));
    }
}

#[test]
fn busy_peer_is_not_declared_unreachable() {
    // A quiet plan: the reliable layer is on, no fault is injected.
    let cfg = MrtsConfig::in_core(2).with_net_faults(NetFaultPlan::new(1));
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(PAD_TAG, Pad::decode);
    rt.register_handler(H_NAP, "nap", h_nap);
    let pad = |peer| Box::new(Pad { peer, data: vec![] });
    let busy = rt.create_object(1, pad(None), 128);
    let sender = rt.create_object(0, pad(Some(busy)), 128);
    // Node 1 is inside a 300 ms handler when node 0 sends to it at 50 ms.
    rt.post(busy, H_NAP, ping_payload(300));
    rt.post(sender, H_NAP, ping_payload(50));
    let stats = rt
        .try_run()
        .expect("a peer busy in one long handler is alive");
    assert!(
        stats.total_of(|n| n.retransmits) > 0,
        "the sender never waited on the busy peer — vacuous"
    );
}

// ---------------------------------------------------------------------------
// Directory self-healing: a three-node relay where X migrates
// 2 -> 0 -> 1 -> 2 (home again) and node 1 then dies. Node 0 performed
// the 0 -> 1 migration, so it deterministically holds the stale hint
// X -> 1; its next send to X must exhaust the retransmit budget against
// the dead node, invalidate the hint, and re-route to X's home — where
// the message is delivered. The final step sends to an object *homed* on
// the dead node, for which no fallback exists: that is the typed
// `NodeUnreachable` error. The run is on the virtual clock, so both
// give-ups wait out the retransmit budget in virtual time.
// ---------------------------------------------------------------------------

const SAGA_TAG: TypeTag = TypeTag(0x5A6);
const H_SAGA: HandlerId = HandlerId(0x5A7);

struct Saga {
    x: MobilePtr,
    a: MobilePtr,
    b: MobilePtr,
}

impl Saga {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        Ok(Box::new(Saga {
            x: r.ptr().unwrap(),
            a: r.ptr().unwrap(),
            b: r.ptr().unwrap(),
        }))
    }
}

impl MobileObject for Saga {
    fn type_tag(&self) -> TypeTag {
        SAGA_TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.ptr(self.x).ptr(self.a).ptr(self.b);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        96
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_saga(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let s = obj.as_any_mut().downcast_mut::<Saga>().unwrap();
    let (x, a, b) = (s.x, s.a, s.b);
    let me = ctx.self_ptr();
    match payload[0] {
        // A kicks the relay off.
        0 => ctx.send(x, H_SAGA, vec![1]),
        // X walks 2 -> 0 -> 1 -> 2; the self-send chases it through the
        // forwarding tombstones. The 0 -> 1 leg plants node 0's hint.
        1 => {
            ctx.migrate(me, 0);
            ctx.send(me, H_SAGA, vec![2]);
        }
        2 => {
            ctx.migrate(me, 1);
            ctx.send(me, H_SAGA, vec![3]);
        }
        // Node 1's first and only handler execution: it dies right after,
        // with the install to node 2 already on the wire.
        3 => {
            ctx.migrate(me, 2);
            ctx.send(me, H_SAGA, vec![4]);
        }
        // X (home again on node 2) pings A so A's next send uses the
        // stale hint...
        4 => ctx.send(a, H_SAGA, vec![5]),
        // ...here: node 0 routes to dead node 1, exhausts, invalidates
        // the hint, re-routes to home — X must receive step 6.
        5 => ctx.send(x, H_SAGA, vec![6]),
        // B is homed on the dead node: no hint to heal, no fallback.
        6 => ctx.send(b, H_SAGA, vec![7]),
        _ => unreachable!("B is homed on the dead node; its handler must never run"),
    }
}

#[test]
fn stale_hint_self_heals_and_dead_home_is_typed_error() {
    let log = Arc::new(EventLog::new());
    let plan = NetFaultPlan::new(0xBEEF).with_kill_node(1, 1);
    let mut rt = DesRuntime::new(MrtsConfig::in_core(3).with_net_faults(plan));
    rt.attach_audit(log.clone());
    rt.register_type(SAGA_TAG, Saga::decode);
    rt.register_handler(H_SAGA, "saga", h_saga);
    let a = MobilePtr::new(ObjectId::new(0, 0));
    let b = MobilePtr::new(ObjectId::new(1, 0));
    let x = MobilePtr::new(ObjectId::new(2, 0));
    let pa = rt.create_object(0, Box::new(Saga { x, a, b }), 128);
    let pb = rt.create_object(1, Box::new(Saga { x, a, b }), 128);
    let px = rt.create_object(2, Box::new(Saga { x, a, b }), 128);
    assert_eq!((pa.id, pb.id, px.id), (a.id, b.id, x.id));
    rt.post(a, H_SAGA, vec![0]);
    match rt.try_run() {
        Err(MrtsError::NodeUnreachable {
            node,
            dest,
            attempts,
        }) => {
            // Node 2 only reaches step 6 if node 0's re-route delivered
            // step 5's message past the invalidated hint — the error's
            // origin is itself the proof of self-healing.
            assert_eq!(
                (node, dest),
                (2, 1),
                "the unreachable send must be X's node contacting B's dead home"
            );
            assert!(attempts > 0, "exhaustion must report its attempts");
        }
        other => panic!("expected NodeUnreachable, got {other:?}"),
    }
    // The healing step is also visible in the event stream (audit events
    // compile into debug builds).
    if cfg!(debug_assertions) {
        let healed = log.snapshot().iter().any(|e| {
            matches!(
                e,
                RuntimeEvent::HintInvalidated { node: 0, oid, loc: 1 } if *oid == x.id
            )
        });
        assert!(
            healed,
            "node 0 must invalidate the stale hint before re-routing"
        );
    }
}

/// Cross-node heartbeat for the crash test: a bounded ping-pong between
/// one subdomain on each node. Each leg is sent only after the peer's
/// reply arrived, so while hops remain there is always a data message
/// bound for the other node — the killed node is guaranteed to leave one
/// unacknowledged in flight.
const H_CHAT: HandlerId = HandlerId(0x903);

fn h_chat(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let hops = r.u64().unwrap();
    let peer = r.ptr().unwrap();
    if hops > 0 {
        let mut w = PayloadWriter::new();
        w.u64(hops - 1).ptr(ctx.self_ptr());
        ctx.send(peer, H_CHAT, w.finish());
    }
}

/// A node dies mid-refinement under fabric faults. The survivors must
/// surface the typed error (not hang), and restoring the pre-crash
/// checkpoint onto the surviving node alone — homes wrap modulo the
/// smaller cluster — must finish with the exact mesh the uninterrupted
/// two-node run produces. The crashed attempt runs on the virtual clock,
/// where the survivor's give-up costs virtual time, not wall time.
#[test]
fn node_crash_rehomes_from_checkpoint_onto_survivors() {
    let p = PcdmParams::new(Workload::uniform_square(4_000), 2);
    let spill1 = tmp("net-kill-p1");
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.spill_dir = Some(spill1.clone());
    let mut rt = opcdm_setup::<Threads>(&p, cfg, |_| {});
    rt.run();
    let cp = rt.checkpoint();
    drop(rt);
    let _ = std::fs::remove_dir_all(spill1);
    assert!(!cp.objects.is_empty());

    let uninterrupted = run_phase2_on(&cp, tmp("net-kill-ref"), 2);

    // Crashed attempt: node 1 goes silent 25 handlers into phase 2 while
    // the fabric drops and duplicates. The heartbeat keeps both nodes
    // talking, so node 0 is still owed replies when node 1 dies: its next
    // send exhausts the retransmit budget and brings the run down with
    // the typed error.
    let plan = NetFaultPlan::new(0xC4A5)
        .with_drops(60)
        .with_dups(40)
        .with_kill_node(1, 25);
    let mut rt = DesRuntime::new(MrtsConfig::out_of_core(2, 300_000).with_net_faults(plan));
    register(&mut rt);
    rt.register_handler(H_RETUNE, "retune", h_retune);
    rt.register_handler(H_CHAT, "chat", h_chat);
    cp.restore_into(&mut rt);
    for (ptr, handler) in phase2_posts(&cp) {
        rt.post(ptr, handler, Vec::new());
    }
    let on_node = |n: u8| {
        cp.objects
            .iter()
            .map(|e| e.oid)
            .find(|o| o.home() == n as pumg::mrts::ids::NodeId)
            .expect("a subdomain homed on each node")
    };
    let mut w = PayloadWriter::new();
    w.u64(600).ptr(MobilePtr::new(on_node(1)));
    rt.post(MobilePtr::new(on_node(0)), H_CHAT, w.finish());
    let crashed = rt.try_run();
    drop(rt);
    match crashed {
        Err(MrtsError::NodeUnreachable { dest: 1, .. }) => {}
        other => panic!("expected NodeUnreachable for the killed node, got {other:?}"),
    }

    // Re-home the same checkpoint onto the survivor and finish the mesh.
    let rehomed = run_phase2_on(&cp, tmp("net-kill-rehome"), 1);
    assert_eq!(
        rehomed, uninterrupted,
        "re-homed recovery must reproduce the uninterrupted mesh"
    );
}
