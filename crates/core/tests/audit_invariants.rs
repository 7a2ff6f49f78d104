//! The audit subsystem, exercised from both directions:
//!
//! * **negative tests** feed hand-built event streams that violate each
//!   cross-node invariant and assert the checker flags exactly that class
//!   (the per-node invariants are checked on the node core itself; their
//!   negative tests are `node::tests`);
//! * **race-detector tests** drive the vector-clock engine with and
//!   without happens-before edges;
//! * **end-to-end tests** attach a fail-fast checker to real DES and
//!   threaded runs (in-core, out-of-core, migration) and assert the
//!   engines' own event streams are violation-free, including under
//!   seeded schedule permutation.
#![cfg(any(feature = "audit", debug_assertions))]

use mrts::audit::{EventLog, FailMode, Invariant, InvariantChecker, RaceDetector, RuntimeEvent};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::prelude::*;
use std::any::Any;
use std::sync::Arc;

fn oid(seq: u64) -> ObjectId {
    ObjectId::new(0, seq)
}

fn checker() -> InvariantChecker {
    InvariantChecker::new(FailMode::Collect)
}

fn kinds(c: &InvariantChecker) -> Vec<Invariant> {
    c.violations().iter().map(|v| v.invariant).collect()
}

// ----- negative tests: every invariant must be falsifiable -----------------

#[test]
fn flags_delivery_on_wrong_node() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::Post {
        node: 0,
        oid: oid(1),
    });
    c.record(&RuntimeEvent::Deliver {
        node: 1,
        oid: oid(1),
    });
    assert!(
        kinds(&c).contains(&Invariant::NonResidentDelivery),
        "{:?}",
        c.violations()
    );
}

#[test]
fn flags_queue_dropped_in_migration() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::MigrateOut {
        node: 0,
        oid: oid(1),
        to: 1,
        queued: 3,
        footprint: 100,
    });
    c.record(&RuntimeEvent::MigrateIn {
        node: 1,
        oid: oid(1),
        queued: 1,
        footprint: 100,
    });
    assert!(
        kinds(&c).contains(&Invariant::QueueLostInMigration),
        "{:?}",
        c.violations()
    );
}

#[test]
fn flags_install_on_wrong_destination() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::MigrateOut {
        node: 0,
        oid: oid(1),
        to: 1,
        queued: 0,
        footprint: 100,
    });
    c.record(&RuntimeEvent::MigrateIn {
        node: 2,
        oid: oid(1),
        queued: 0,
        footprint: 100,
    });
    assert!(
        kinds(&c).contains(&Invariant::EventOrder),
        "{:?}",
        c.violations()
    );
}

#[test]
fn flags_self_forward() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::Forward {
        node: 0,
        oid: oid(1),
        to: 0,
    });
    assert!(
        kinds(&c).contains(&Invariant::ForwardingCycle),
        "{:?}",
        c.violations()
    );
}

#[test]
fn flags_routing_livelock_via_forward_streak() {
    // A ↔ B ping-pong without any delivery or install: after the streak
    // limit the checker calls it a livelock.
    let c = InvariantChecker::with_forward_limit(FailMode::Collect, 4);
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    for _ in 0..2 {
        c.record(&RuntimeEvent::Forward {
            node: 2,
            oid: oid(1),
            to: 3,
        });
        c.record(&RuntimeEvent::Forward {
            node: 3,
            oid: oid(1),
            to: 2,
        });
    }
    assert!(
        kinds(&c).contains(&Invariant::ForwardingCycle),
        "{:?}",
        c.violations()
    );
}

#[test]
fn forward_streak_resets_on_delivery() {
    let c = InvariantChecker::with_forward_limit(FailMode::Collect, 4);
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    for _ in 0..8 {
        // Each forward is answered by a delivery: never a livelock.
        c.record(&RuntimeEvent::Post {
            node: 0,
            oid: oid(1),
        });
        c.record(&RuntimeEvent::Forward {
            node: 1,
            oid: oid(1),
            to: 0,
        });
        c.record(&RuntimeEvent::Deliver {
            node: 0,
            oid: oid(1),
        });
    }
    c.assert_clean();
}

#[test]
fn flags_termination_with_undelivered_messages() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::Post {
        node: 0,
        oid: oid(1),
    });
    c.record(&RuntimeEvent::Terminate { node: 0 });
    assert!(
        kinds(&c).contains(&Invariant::EarlyTermination),
        "{:?}",
        c.violations()
    );
}

#[test]
fn flags_termination_with_migration_in_flight() {
    let c = checker();
    c.record(&RuntimeEvent::Create {
        node: 0,
        oid: oid(1),
        footprint: 100,
    });
    c.record(&RuntimeEvent::MigrateOut {
        node: 0,
        oid: oid(1),
        to: 1,
        queued: 0,
        footprint: 100,
    });
    c.record(&RuntimeEvent::Terminate { node: 0 });
    assert!(
        kinds(&c).contains(&Invariant::EarlyTermination),
        "{:?}",
        c.violations()
    );
}

// ----- race detector ---------------------------------------------------------

#[test]
fn race_detector_flags_unsynchronized_write_write() {
    let d = RaceDetector::new(2);
    // Two threads write the same object with no message between them:
    // neither access happens-before the other.
    d.on_access(0, oid(7), true);
    d.on_access(1, oid(7), true);
    let races = d.races();
    assert_eq!(races.len(), 1, "{races:?}");
    assert_eq!(races[0].oid, oid(7));
}

#[test]
fn race_detector_flags_read_write_race() {
    let d = RaceDetector::new(2);
    d.on_access(0, oid(7), false);
    d.on_access(1, oid(7), true);
    assert_eq!(d.races().len(), 1, "{:?}", d.races());
}

#[test]
fn message_edge_orders_conflicting_accesses() {
    let d = RaceDetector::new(2);
    // Thread 0 writes, then sends a message; thread 1 receives it and
    // writes. The channel edge gives the second write a clean view.
    d.on_access(0, oid(7), true);
    d.on_send(0, 1);
    d.on_recv(1, 0);
    d.on_access(1, oid(7), true);
    d.assert_race_free();
}

#[test]
fn concurrent_reads_are_not_a_race() {
    let d = RaceDetector::new(3);
    d.on_access(0, oid(7), false);
    d.on_access(1, oid(7), false);
    d.on_access(2, oid(7), false);
    d.assert_race_free();
}

#[test]
fn transitive_channel_edges_compose() {
    let d = RaceDetector::new(3);
    d.on_access(0, oid(7), true);
    d.on_send(0, 1);
    d.on_recv(1, 0);
    d.on_send(1, 2);
    d.on_recv(2, 1);
    d.on_access(2, oid(7), true);
    d.assert_race_free();
}

// ----- a tiny application shared by the end-to-end tests ---------------------

const CELL_TAG: TypeTag = TypeTag(1);
const H_BUMP: HandlerId = HandlerId(1);
const H_RING: HandlerId = HandlerId(2);
const H_MOVE: HandlerId = HandlerId(3);
const H_GROW_RING: HandlerId = HandlerId(4);

struct Cell {
    value: u64,
    neighbors: Vec<MobilePtr>,
    pad: Vec<u8>,
}

impl Cell {
    fn new(pad: usize) -> Box<Cell> {
        Box::new(Cell {
            value: 0,
            neighbors: Vec::new(),
            pad: vec![0x5A; pad],
        })
    }

    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let value = r.u64().unwrap();
        let neighbors = r.ptrs().unwrap();
        let pad = r.bytes().unwrap().to_vec();
        Ok(Box::new(Cell {
            value,
            neighbors,
            pad,
        }))
    }
}

impl MobileObject for Cell {
    fn type_tag(&self) -> TypeTag {
        CELL_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.u64(self.value).ptrs(&self.neighbors).bytes(&self.pad);
        buf.extend_from_slice(&w.finish());
    }

    fn footprint(&self) -> usize {
        8 + 8 * self.neighbors.len() + self.pad.len() + 48
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn cell_mut(obj: &mut dyn MobileObject) -> &mut Cell {
    obj.as_any_mut().downcast_mut::<Cell>().unwrap()
}

fn h_bump(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    cell_mut(obj).value += r.u64().unwrap();
}

fn h_ring(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let hops = r.u64().unwrap();
    let cell = cell_mut(obj);
    cell.value += 1;
    if hops > 0 {
        let next = cell.neighbors[0];
        let mut w = PayloadWriter::new();
        w.u64(hops - 1);
        ctx.send(next, H_RING, w.finish());
    }
}

fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let dest = r.u64().unwrap() as NodeId;
    ctx.migrate(ctx.self_ptr(), dest);
}

/// A runtime with the cells' types and handlers registered and `sink`
/// attached before the first create, so the checker sees every event.
fn runtime<E: Engine>(cfg: MrtsConfig, sink: Arc<dyn mrts::audit::EventSink>) -> Runtime<E> {
    let mut rt = Runtime::new(cfg);
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_RING, "ring", h_ring);
    rt.register_handler(H_MOVE, "move", h_move);
    rt.register_handler(H_GROW_RING, "grow_ring", h_grow_ring);
    rt.attach_audit(sink);
    rt
}

fn value<E: Engine>(rt: &Runtime<E>, p: MobilePtr) -> u64 {
    rt.with_object(p, |o| o.as_any().downcast_ref::<Cell>().unwrap().value)
}

fn u64_payload(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

/// Wire one 256-byte cell per node into a ring and kick off a `handler`
/// token of `hops` hops from every cell. The ring pointers are baked in
/// at creation (each node's first object has a deterministic id), so the
/// wiring is schedule-independent.
fn ring<E: Engine>(
    cfg: MrtsConfig,
    handler: HandlerId,
    hops: u64,
    sink: Arc<dyn mrts::audit::EventSink>,
) -> (Runtime<E>, Vec<MobilePtr>) {
    let nodes = cfg.nodes;
    let mut rt = runtime::<E>(cfg, sink);
    let cells: Vec<MobilePtr> = (0..nodes)
        .map(|n| MobilePtr::new(ObjectId::new(n as NodeId, 0)))
        .collect();
    for (i, &p) in cells.iter().enumerate() {
        let mut c = Cell::new(256);
        c.neighbors.push(cells[(i + 1) % cells.len()]);
        let created = rt.create_object(i as NodeId, c, 128);
        assert_eq!(created.id, p.id);
        rt.post(p, handler, u64_payload(hops));
    }
    (rt, cells)
}

/// A message posted before the migration resolves must chase the object.
fn migration<E: Engine>(mut rt: Runtime<E>, dest: u64, v: u64) {
    let p = rt.create_object(0, Cell::new(64), 128);
    rt.post(p, H_MOVE, u64_payload(dest));
    rt.post(p, H_BUMP, u64_payload(v));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.migrations), 1);
    assert_eq!(value(&rt, p), v);
}

/// The event stream announces every residency change the counters count:
/// one `Unload` or `ElidedUnload` per eviction and one `Load` per load (a
/// fault-free run reinstates nothing, so every `Load` completes an issued
/// load). The checker no longer models residency, so this is what notices
/// an eviction or a load that goes unannounced.
fn assert_residency_events_match_counters(events: &[RuntimeEvent], stats: &RunStats) {
    let count = |f: fn(&RuntimeEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let unloads = count(|e| {
        matches!(
            e,
            RuntimeEvent::Unload { .. } | RuntimeEvent::ElidedUnload { .. }
        )
    });
    let loads = count(|e| matches!(e, RuntimeEvent::Load { .. }));
    assert_eq!(unloads, stats.total_of(|n| n.evictions), "evictions");
    assert_eq!(loads, stats.total_of(|n| n.loads), "loads");
}

// ----- end-to-end: the engines' own event streams are clean ------------------

#[test]
fn des_in_core_run_satisfies_all_invariants() {
    let chk = Arc::new(InvariantChecker::new(FailMode::Panic));
    let (mut rt, _) = ring::<Des>(MrtsConfig::in_core(4), H_RING, 12, chk.clone());
    rt.run();
    assert!(chk.events_seen() > 0, "instrumentation emitted nothing");
    chk.assert_clean();
}

#[test]
fn des_out_of_core_run_satisfies_all_invariants() {
    // A budget tight enough that the soft threshold spills each idle cell
    // (footprint 320 against a 400-byte budget), forcing reload churn on
    // every ring hop.
    let mut cfg = MrtsConfig::out_of_core(2, 400);
    cfg.soft_threshold_frac = 0.25;
    let chk = Arc::new(InvariantChecker::new(FailMode::Panic));
    let log = Arc::new(EventLog::new());
    let sink = Arc::new(FanOut::new(vec![chk.clone(), log.clone()]));
    let (mut rt, cells) = ring::<Des>(cfg, H_RING, 10, sink);
    let stats = rt.run();
    assert!(stats.total_of(|n| n.stores) > 0, "budget never pressured");
    chk.assert_clean();
    assert_residency_events_match_counters(&log.snapshot(), &stats);
    // The ring really ran: every cell was visited.
    for p in cells {
        assert!(value(&rt, p) > 0);
    }
}

#[test]
fn des_migration_run_satisfies_all_invariants() {
    let chk = Arc::new(InvariantChecker::new(FailMode::Panic));
    migration(runtime::<Des>(MrtsConfig::in_core(3), chk.clone()), 2, 5);
    chk.assert_clean();
}

#[test]
fn schedule_permutation_preserves_results_and_invariants() {
    let mut reference: Option<Vec<u64>> = None;
    for seed in [None, Some(1u64), Some(42), Some(0xDEAD_BEEF)] {
        let chk = Arc::new(InvariantChecker::new(FailMode::Panic));
        let mut cfg = MrtsConfig::out_of_core(3, 400);
        cfg.soft_threshold_frac = 0.25;
        let (mut rt, cells) = ring::<Des>(cfg, H_RING, 9, chk.clone());
        rt.set_schedule_seed(seed);
        rt.run();
        chk.assert_clean();
        let values: Vec<u64> = cells.iter().map(|&p| value(&rt, p)).collect();
        match &reference {
            None => reference = Some(values),
            Some(want) => assert_eq!(
                want, &values,
                "seed {seed:?} changed the application's results"
            ),
        }
    }
}

#[test]
fn event_log_captures_lifecycle_of_a_run() {
    let log = Arc::new(EventLog::new());
    let (mut rt, _) = ring::<Des>(MrtsConfig::in_core(2), H_RING, 4, log.clone());
    rt.run();
    let events = log.snapshot();
    let has = |f: &dyn Fn(&RuntimeEvent) -> bool| events.iter().any(f);
    assert!(has(&|e| matches!(e, RuntimeEvent::Create { .. })));
    assert!(has(&|e| matches!(e, RuntimeEvent::Post { .. })));
    assert!(has(&|e| matches!(e, RuntimeEvent::Deliver { .. })));
    assert!(has(&|e| matches!(e, RuntimeEvent::Terminate { .. })));
    assert!(has(&|e| matches!(e, RuntimeEvent::Shutdown { .. })));
}

#[test]
fn threaded_run_is_clean_and_race_free() {
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let det = Arc::new(RaceDetector::new(3));
    let log = Arc::new(EventLog::new());
    let sink = Arc::new(FanOut::new(vec![chk.clone(), log.clone()]));
    let (mut rt, cells) = ring::<Threads>(MrtsConfig::in_core(3), H_RING, 3, sink);
    rt.attach_race_detector(det.clone());
    rt.run();
    assert!(chk.events_seen() > 0, "instrumentation emitted nothing");
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    det.assert_race_free();
    // Node 0 announces termination when its probe comes back clean, the
    // others when its exit reaches them: the checker's quiescence check
    // rides on each node's one announcement.
    let mut terminated = [0; 3];
    for ev in log.snapshot() {
        if let RuntimeEvent::Terminate { node } = ev {
            terminated[node as usize] += 1;
        }
    }
    assert_eq!(terminated, [1; 3]);
    // Three tokens of four visits each, one visit per hop to the next cell.
    let values: Vec<u64> = cells.iter().map(|&p| value(&rt, p)).collect();
    assert_eq!(values, [4; 3]);
}

/// Ring hop that also grows the cell, so the out-of-core layer has to
/// re-balance on every visit (Resize and Budget events).
fn h_grow_ring(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    cell_mut(obj).pad.extend_from_slice(&[0u8; 16]);
    let mut r = PayloadReader::new(payload);
    let hops = r.u64().unwrap();
    if hops > 0 {
        let next = cell_mut(obj).neighbors[0];
        ctx.send(next, H_GROW_RING, u64_payload(hops - 1));
    }
}

#[test]
fn threaded_out_of_core_run_over_a_segment_log_is_clean_and_race_free() {
    // A tiny budget and tiny segments: every cell is evicted and reloaded
    // on most hops, and the spill log rolls and compacts every few stores,
    // so the checker validates the compaction invariant (no live object
    // lost) and the race detector every pack and unpack against a live
    // run on real files.
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let log = Arc::new(EventLog::new());
    let det = Arc::new(RaceDetector::new(3));
    let mut cfg = MrtsConfig::out_of_core(3, 600);
    cfg.soft_threshold_frac = 0.25;
    cfg.segment_bytes = 512;
    cfg.segment_garbage_frac = 0.3;
    let spill = std::env::temp_dir().join(format!("mrts-segment-ring-{}", std::process::id()));
    cfg.spill_dir = Some(spill.clone());
    let sink = Arc::new(FanOut::new(vec![chk.clone(), log.clone()]));
    let (mut rt, cells) = ring::<Threads>(cfg, H_GROW_RING, 15, sink);
    rt.attach_race_detector(det.clone());
    rt.post(cells[0], H_MOVE, u64_payload(2));
    let stats = rt.run();
    drop(rt);
    let _ = std::fs::remove_dir_all(spill);
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    det.assert_race_free();
    assert!(
        stats.total_of(|n| n.stores) > 0,
        "the run never spilled — vacuous"
    );
    assert_residency_events_match_counters(&log.snapshot(), &stats);
}

#[test]
fn threaded_migration_run_is_clean_and_race_free() {
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let det = Arc::new(RaceDetector::new(2));
    let mut rt = runtime::<Threads>(MrtsConfig::in_core(2), chk.clone());
    rt.attach_race_detector(det.clone());
    migration(rt, 1, 7);
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    det.assert_race_free();
}
