//! Chaos harness: seeded storage-fault schedules driven through both
//! engines on a real mesh workload (OPCDM), checking that
//!
//! * no audit invariant is ever violated under injected faults,
//! * the final mesh is the one the fault-free run produces (faults cost
//!   time, never correctness),
//! * a full disk degrades the run instead of killing it, and the run
//!   recovers when space returns,
//! * an unreadable spilled object surfaces as a typed error, not a panic,
//! * a kill between mesh phases recovers from the on-disk checkpoint and
//!   finishes with the identical mesh.
//!
//! Network chaos (the `netfault` module) gets the same treatment: seeded
//! message drop/duplicate/delay/reorder schedules through both engines
//! with byte-identical meshes, exactly-once handler execution under
//! duplication, directory self-healing past a dead hint, and a mid-run
//! node crash that re-homes from the checkpoint onto surviving nodes.
//!
//! The same schedules run in the audit gate (`--chaos` / `--chaos-net`);
//! these tests keep the behavior pinned under plain `cargo test`.

use pumg::methods::domain::Workload;
use pumg::methods::mesh_job::opcdm_digest;
use pumg::methods::ooc_pcdm::{
    opcdm_collect_threaded, opcdm_run, opcdm_run_threaded, opcdm_run_threaded_with, opcdm_run_with,
    opcdm_setup_threaded, register, register_threaded, SubObj, H_REFINE,
};
use pumg::methods::pcdm::PcdmParams;
use pumg::mrts::audit::{EventLog, FailMode, InvariantChecker, RaceDetector, RuntimeEvent};
use pumg::mrts::checkpoint::Checkpoint;
use pumg::mrts::codec::{PayloadReader, PayloadWriter};
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::ctx::Ctx;
use pumg::mrts::des::DesRuntime;
use pumg::mrts::fault::{FaultPlan, MrtsError};
use pumg::mrts::ids::{HandlerId, MobilePtr, ObjectId, TypeTag};
use pumg::mrts::netfault::NetFaultPlan;
use pumg::mrts::object::{MobileObject, ObjectDecodeError};
use pumg::mrts::threaded::ThreadedRuntime;
use std::any::Any;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mrts-chaos-{label}-{}", std::process::id()))
}

fn small() -> PcdmParams {
    PcdmParams::new(Workload::uniform_square(6_000), 2)
}

/// Mixed transient schedule: EIO on stores and loads, torn writes,
/// latency spikes — everything the retry layer must absorb.
fn mixed_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(0xC0FF_EE00 ^ seed)
        .with_eio(60)
        .with_torn_writes(40)
        .with_latency(80, Duration::from_micros(300))
}

#[test]
fn des_chaos_schedules_preserve_mesh_and_invariants() {
    let budget = 70_000usize;
    let reference = opcdm_run(&small(), MrtsConfig::out_of_core(2, budget));
    let mut faults_total = 0usize;
    for seed in 0..12u64 {
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let sink = chk.clone();
        let r = opcdm_run_with(
            &small(),
            MrtsConfig::out_of_core(2, budget).with_faults(mixed_plan(seed)),
            move |rt| rt.attach_audit(sink),
        );
        assert!(
            chk.violations().is_empty(),
            "seed {seed} violated invariants: {:?}",
            chk.violations()
        );
        assert_eq!(
            (r.elements, r.vertices),
            (reference.elements, reference.vertices),
            "seed {seed}: faults changed the mesh"
        );
        assert!(
            r.stats.total_of(|n| n.io_gave_up) == 0,
            "seed {seed}: transient schedule must never exhaust retries"
        );
        faults_total += r.stats.total_of(|n| n.faults_injected);
    }
    assert!(faults_total > 0, "sweep injected no faults — vacuous");
}

#[test]
fn threaded_chaos_schedules_preserve_mesh_and_invariants() {
    let budget = 70_000usize;
    let reference = {
        let mut cfg = MrtsConfig::out_of_core(2, budget);
        cfg.spill_dir = Some(tmp("t-ref"));
        let r = opcdm_run_threaded(&small(), cfg);
        let _ = std::fs::remove_dir_all(tmp("t-ref"));
        r
    };
    let mut faults_total = 0usize;
    for seed in 0..6u64 {
        // Load EIO stays well under the exhaustion knee (p^4 per op) so a
        // transient schedule can never turn into a fatal LoadFailed.
        let plan = FaultPlan::new(0xBAD_D15C ^ seed)
            .with_eio(120)
            .with_torn_writes(80)
            .with_latency(60, Duration::from_micros(200));
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let det = Arc::new(RaceDetector::new(2));
        let dir = tmp(&format!("t-{seed}"));
        let mut cfg = MrtsConfig::out_of_core(2, budget).with_faults(plan);
        cfg.spill_dir = Some(dir.clone());
        let (sink, races) = (chk.clone(), det.clone());
        let r = opcdm_run_threaded_with(&small(), cfg, move |rt| {
            rt.attach_audit(sink);
            rt.attach_race_detector(races);
        });
        let _ = std::fs::remove_dir_all(dir);
        assert!(
            chk.violations().is_empty(),
            "seed {seed} violated invariants: {:?}",
            chk.violations()
        );
        assert!(
            det.races().is_empty(),
            "seed {seed} raced: {:?}",
            det.races()
        );
        assert_eq!(
            (r.elements, r.vertices),
            (reference.elements, reference.vertices),
            "seed {seed}: faults changed the mesh"
        );
        faults_total += r.stats.total_of(|n| n.faults_injected);
    }
    assert!(faults_total > 0, "sweep injected no faults — vacuous");
}

#[test]
fn enospc_window_degrades_and_recovers_des() {
    let budget = 70_000usize;
    let reference = opcdm_run(&small(), MrtsConfig::out_of_core(2, budget));
    for seed in [1u64, 2] {
        let plan = FaultPlan::new(seed).with_enospc_window(4, 6);
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let sink = chk.clone();
        let r = opcdm_run_with(
            &small(),
            MrtsConfig::out_of_core(2, budget).with_faults(plan),
            move |rt| rt.attach_audit(sink),
        );
        assert!(
            chk.violations().is_empty(),
            "seed {seed}: {:?}",
            chk.violations()
        );
        assert!(
            r.stats.total_of(|n| n.degraded_entries) > 0,
            "seed {seed}: full disk never entered degraded mode"
        );
        // Degraded windows pause eviction, which reorders refinement;
        // the mesh stays equally valid but may differ slightly.
        let ratio = r.elements as f64 / reference.elements as f64;
        assert!(
            (0.97..1.03).contains(&ratio),
            "seed {seed}: degraded run changed the mesh materially: {} vs {}",
            r.elements,
            reference.elements
        );
        assert!(
            r.stats.total_of(|n| n.stores) > 0,
            "seed {seed}: never spilled after recovery"
        );
    }
}

#[test]
fn enospc_window_degrades_and_recovers_threaded() {
    let budget = 70_000usize;
    // The threaded engine's spill count varies with thread interleaving;
    // open the window on the second store so any run that spills at all
    // walks into the full disk.
    let plan = FaultPlan::new(7).with_enospc_window(1, 6);
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let det = Arc::new(RaceDetector::new(2));
    let dir = tmp("t-enospc");
    let mut cfg = MrtsConfig::out_of_core(2, budget).with_faults(plan);
    cfg.spill_dir = Some(dir.clone());
    let (sink, races) = (chk.clone(), det.clone());
    let r = opcdm_run_threaded_with(&small(), cfg, move |rt| {
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

#[test]
fn load_exhaustion_is_typed_error_des() {
    let mut rt = DesRuntime::new(pad_cfg());
    rt.register_type(PAD_TAG, Pad::decode);
    rt.register_handler(H_PING, "ping", h_ping);
    let a = MobilePtr::new(ObjectId::new(0, 0));
    let b = MobilePtr::new(ObjectId::new(0, 1));
    rt.create_object(
        0,
        Box::new(Pad {
            peer: Some(b),
            data: vec![0x11; 2_500],
        }),
        128,
    );
    rt.create_object(
        0,
        Box::new(Pad {
            peer: Some(a),
            data: vec![0x22; 2_500],
        }),
        128,
    );
    rt.post(a, H_PING, ping_payload(6));
    match rt.try_run() {
        Err(MrtsError::LoadFailed { attempts, .. }) => {
            assert!(attempts >= 1, "error must report the attempts made");
        }
        other => panic!("expected LoadFailed, got {other:?}"),
    }
}

#[test]
fn load_exhaustion_is_typed_error_threaded() {
    let dir = tmp("exhaust");
    let mut cfg = pad_cfg();
    cfg.spill_dir = Some(dir.clone());
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(PAD_TAG, Pad::decode);
    rt.register_handler(H_PING, "ping", h_ping);
    let a = MobilePtr::new(ObjectId::new(0, 0));
    let b = MobilePtr::new(ObjectId::new(0, 1));
    rt.create_object(
        0,
        Box::new(Pad {
            peer: Some(b),
            data: vec![0x11; 2_500],
        }),
        128,
    );
    rt.create_object(
        0,
        Box::new(Pad {
            peer: Some(a),
            data: vec![0x22; 2_500],
        }),
        128,
    );
    rt.post(a, H_PING, ping_payload(6));
    let res = rt.try_run();
    let _ = std::fs::remove_dir_all(dir);
    match res {
        Err(MrtsError::LoadFailed { attempts, .. }) => {
            assert!(attempts >= 1, "error must report the attempts made");
        }
        other => panic!("expected LoadFailed, got {other:?}"),
    }
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

/// Phase 2 from a checkpoint on a cluster of `nodes` workers. Homes wrap
/// modulo the cluster size, so a checkpoint taken on two nodes restores
/// cleanly onto one (the crash re-homing path).
fn run_phase2_on(cp: &Checkpoint, spill: PathBuf, nodes: usize) -> (u64, u64) {
    let mut cfg = MrtsConfig::out_of_core(nodes, 300_000);
    cfg.spill_dir = Some(spill.clone());
    let mut rt = ThreadedRuntime::new(cfg);
    register_threaded(&mut rt);
    rt.register_handler(H_RETUNE, "retune", h_retune);
    cp.restore_into_threaded(&mut rt);
    for (ptr, handler) in phase2_posts(cp) {
        rt.post(ptr, handler, Vec::new());
    }
    rt.run();
    let counts = opcdm_collect_threaded(&rt);
    let _ = std::fs::remove_dir_all(spill);
    counts
}

fn run_phase2(cp: &Checkpoint, spill: PathBuf) -> (u64, u64) {
    run_phase2_on(cp, spill, 2)
}

/// Phase 2 on the virtual-time engine with a reproducible schedule:
/// `(canonical mesh digest, elements)`.
fn run_phase2_deterministic(cp: &Checkpoint) -> (u64, u64) {
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.deterministic_compute = true;
    let mut rt = DesRuntime::new(cfg);
    register(&mut rt);
    rt.register_handler(H_RETUNE, "retune", h_retune);
    let mut rt = cp.restore_into(rt);
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
    (opcdm_digest(&mut rt), elements)
}

#[test]
fn kill_between_phases_recovers_identical_mesh() {
    let p = PcdmParams::new(Workload::uniform_square(4_000), 2);
    let spill1 = tmp("kill-p1");
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.spill_dir = Some(spill1.clone());
    let mut rt = opcdm_setup_threaded(&p, cfg);
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
// termination with a message still in flight.
// ---------------------------------------------------------------------------

/// Mixed fabric schedule: drops under the bounded-drop guarantee, dups
/// for the receiver dedup, delays and reorders for the in-order release.
fn net_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan::new(0x6E7F_A017 ^ seed)
        .with_drops(80)
        .with_dups(60)
        .with_delay(50, Duration::from_micros(300))
        .with_reorder(40)
}

#[test]
fn des_net_chaos_schedules_preserve_mesh_and_counters() {
    let budget = 70_000usize;
    let reference = opcdm_run(&small(), MrtsConfig::out_of_core(2, budget));
    let (mut dropped, mut dups, mut acks) = (0usize, 0usize, 0usize);
    for seed in 0..12u64 {
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let sink = chk.clone();
        let r = opcdm_run_with(
            &small(),
            MrtsConfig::out_of_core(2, budget).with_net_faults(net_plan(seed)),
            move |rt| rt.attach_audit(sink),
        );
        // A clean checker run includes clean termination: Safra never
        // declared with an unacked message still in flight.
        assert!(
            chk.violations().is_empty(),
            "seed {seed} violated invariants: {:?}",
            chk.violations()
        );
        assert_eq!(
            (r.elements, r.vertices),
            (reference.elements, reference.vertices),
            "seed {seed}: fabric faults changed the mesh"
        );
        assert_eq!(
            r.stats.total_of(|n| n.messages_dropped),
            r.stats.total_of(|n| n.retransmits),
            "seed {seed}: every drop is recovered by exactly one retransmit"
        );
        dropped += r.stats.total_of(|n| n.messages_dropped);
        dups += r.stats.total_of(|n| n.dup_suppressed);
        acks += r.stats.total_of(|n| n.acks_sent);
    }
    assert!(dropped > 0, "sweep dropped no messages — vacuous");
    assert!(dups > 0, "sweep suppressed no duplicates — vacuous");
    assert!(acks > 0, "delivered data messages must be acknowledged");
}

#[test]
fn threaded_net_chaos_schedules_preserve_mesh_and_counters() {
    let budget = 70_000usize;
    let reference = {
        let mut cfg = MrtsConfig::out_of_core(2, budget);
        cfg.spill_dir = Some(tmp("net-ref"));
        let r = opcdm_run_threaded(&small(), cfg);
        let _ = std::fs::remove_dir_all(tmp("net-ref"));
        r
    };
    let (mut dropped, mut retrans, mut dups, mut acks) = (0usize, 0usize, 0usize, 0usize);
    for seed in 0..6u64 {
        let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
        let det = Arc::new(RaceDetector::new(2));
        let dir = tmp(&format!("net-{seed}"));
        let mut cfg = MrtsConfig::out_of_core(2, budget).with_net_faults(net_plan(seed));
        cfg.spill_dir = Some(dir.clone());
        let (sink, races) = (chk.clone(), det.clone());
        let r = opcdm_run_threaded_with(&small(), cfg, move |rt| {
            rt.attach_audit(sink);
            rt.attach_race_detector(races);
        });
        let _ = std::fs::remove_dir_all(dir);
        assert!(
            chk.violations().is_empty(),
            "seed {seed} violated invariants: {:?}",
            chk.violations()
        );
        assert!(
            det.races().is_empty(),
            "seed {seed} raced: {:?}",
            det.races()
        );
        assert_eq!(
            (r.elements, r.vertices),
            (reference.elements, reference.vertices),
            "seed {seed}: fabric faults changed the mesh"
        );
        assert_eq!(
            r.stats.total_of(|n| n.hints_invalidated),
            0,
            "seed {seed}: no node died, so no hint may be invalidated"
        );
        dropped += r.stats.total_of(|n| n.messages_dropped);
        retrans += r.stats.total_of(|n| n.retransmits);
        dups += r.stats.total_of(|n| n.dup_suppressed);
        acks += r.stats.total_of(|n| n.acks_sent);
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
#[test]
fn duplicate_storm_executes_handlers_exactly_once() {
    let budget = 70_000usize;
    let reference = {
        let mut cfg = MrtsConfig::out_of_core(2, budget);
        cfg.spill_dir = Some(tmp("dup-ref"));
        let r = opcdm_run_threaded(&small(), cfg);
        let _ = std::fs::remove_dir_all(tmp("dup-ref"));
        r
    };
    let plan = NetFaultPlan::new(0xD0D0).with_dups(500);
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let dir = tmp("dup-storm");
    let mut cfg = MrtsConfig::out_of_core(2, budget).with_net_faults(plan);
    cfg.spill_dir = Some(dir.clone());
    let sink = chk.clone();
    let r = opcdm_run_threaded_with(&small(), cfg, move |rt| rt.attach_audit(sink));
    let _ = std::fs::remove_dir_all(dir);
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    assert!(
        r.stats.total_of(|n| n.dup_suppressed) > 0,
        "a 500‰ dup storm must exercise the dedup path"
    );
    assert_eq!(
        (r.elements, r.vertices),
        (reference.elements, reference.vertices),
        "duplicated transmissions changed the mesh"
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
// `NodeUnreachable` error.
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
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(3).with_net_faults(plan));
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
/// two-node run produces.
#[test]
fn node_crash_rehomes_from_checkpoint_onto_survivors() {
    let p = PcdmParams::new(Workload::uniform_square(4_000), 2);
    let spill1 = tmp("net-kill-p1");
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.spill_dir = Some(spill1.clone());
    let mut rt = opcdm_setup_threaded(&p, cfg);
    rt.run();
    let cp = rt.checkpoint();
    drop(rt);
    let _ = std::fs::remove_dir_all(spill1);
    assert!(!cp.objects.is_empty());

    let uninterrupted = run_phase2(&cp, tmp("net-kill-ref"));

    // Crashed attempt: node 1 goes silent 25 handlers into phase 2 while
    // the fabric drops and duplicates. The heartbeat keeps both nodes
    // talking, so node 0 is still owed replies when node 1 dies: its next
    // send exhausts the retransmit budget and brings the run down with
    // the typed error.
    let plan = NetFaultPlan::new(0xC4A5)
        .with_drops(60)
        .with_dups(40)
        .with_kill_node(1, 25);
    let spill2 = tmp("net-kill-crash");
    let mut cfg = MrtsConfig::out_of_core(2, 300_000).with_net_faults(plan);
    cfg.spill_dir = Some(spill2.clone());
    let mut rt = ThreadedRuntime::new(cfg);
    register_threaded(&mut rt);
    rt.register_handler(H_RETUNE, "retune", h_retune);
    rt.register_handler(H_CHAT, "chat", h_chat);
    cp.restore_into_threaded(&mut rt);
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
    let _ = std::fs::remove_dir_all(spill2);
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
