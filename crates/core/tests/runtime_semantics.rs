//! End-to-end semantics tests for both MRTS engines (virtual-time DES and
//! threaded), using a small message-driven application: `Cell` objects
//! that count, forward around rings, and carry payload. Each property is
//! one generic body; a `des_*` / `threaded_*` test runs it on one engine.
//! Only DES determinism and the virtual core speed-up are one engine's.

use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::prelude::*;
use std::any::Any;
use std::time::Duration;

// ----- a tiny application: Cell objects ------------------------------------

const CELL_TAG: TypeTag = TypeTag(1);
const H_BUMP: HandlerId = HandlerId(1);
const H_RING: HandlerId = HandlerId(2);
const H_SPAWN: HandlerId = HandlerId(3);
const H_PAR: HandlerId = HandlerId(4);
const H_MOVE: HandlerId = HandlerId(5);

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

/// Bump: add the u64 argument to the cell's value.
fn h_bump(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    cell_mut(obj).value += r.u64().unwrap();
}

/// Ring: bump self, then forward to neighbors[0] with a decremented hop
/// count.
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

/// Spawn: create `n` child cells, bump each once, record their pointers.
fn h_spawn(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let n = r.u64().unwrap();
    let pad = r.u64().unwrap() as usize;
    for _ in 0..n {
        let child = ctx.create(Cell::new(pad));
        let mut w = PayloadWriter::new();
        w.u64(1);
        ctx.send(child, H_BUMP, w.finish());
        cell_mut(obj).neighbors.push(child);
    }
}

/// Parallel: run `n` child tasks that each do a bit of arithmetic; count
/// task batch completions in value.
fn h_par(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let n = r.u64().unwrap() as usize;
    let tasks: Vec<mrts::compute::Task> = (0..n)
        .map(|i| {
            let t: mrts::compute::Task = Box::new(move || {
                // Enough real work per task (~20 µs) that the modeled
                // makespan is dominated by task durations, not by the
                // per-task dispatch overhead.
                let mut acc = i as u64;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
            });
            t
        })
        .collect();
    ctx.run_tasks(tasks);
    cell_mut(obj).value += n as u64;
}

fn runtime<E: Engine>(cfg: MrtsConfig) -> Runtime<E> {
    let mut rt = Runtime::new(cfg);
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_RING, "ring", h_ring);
    rt.register_handler(H_SPAWN, "spawn", h_spawn);
    rt.register_handler(H_PAR, "par", h_par);
    rt.register_handler(H_MOVE, "move", h_move);
    rt
}

/// Move: migrate self to the node named in the payload.
fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let dest = r.u64().unwrap() as NodeId;
    ctx.migrate(ctx.self_ptr(), dest);
}

fn bump_payload(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

fn value_of<E: Engine>(rt: &Runtime<E>, p: MobilePtr) -> u64 {
    rt.with_object(p, |o| o.as_any().downcast_ref::<Cell>().unwrap().value)
}

/// Two posts to one object on one node: both handlers run, in order.
fn single_node<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(1));
    let p = rt.create_object(0, Cell::new(0), 128);
    rt.post(p, H_BUMP, bump_payload(3));
    rt.post(p, H_BUMP, bump_payload(4));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 2);
    assert_eq!(value_of(&rt, p), 7);
}

#[test]
fn des_single_message() {
    single_node::<Des>();
}

#[test]
fn threaded_single_node_semantics() {
    single_node::<Threads>();
}

/// A token of `hops + 1` visits around a ring of one cell per node: the
/// run terminates after exactly that many handlers, and the remote hops
/// are charged communication.
fn ring<E: Engine>(nodes: usize, hops: u64) {
    let mut rt = runtime::<E>(MrtsConfig::in_core(nodes));
    let ids: Vec<MobilePtr> = (0..nodes)
        .map(|n| {
            let mut c = Cell::new(0);
            // Neighbor pointers are predictable: object seq 0 on node n+1.
            c.neighbors.push(MobilePtr::new(ObjectId::new(
                ((n + 1) % nodes) as NodeId,
                0,
            )));
            rt.create_object(n as NodeId, c, 128)
        })
        .collect();
    rt.post(ids[0], H_RING, bump_payload(hops));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run) as u64, hops + 1);
    let total: u64 = ids.iter().map(|&p| value_of(&rt, p)).sum();
    assert_eq!(total, hops + 1);
    assert!(stats.comm_pct() > 0.0);
    assert!(stats.total > Duration::ZERO);
}

#[test]
fn des_ring_across_nodes() {
    ring::<Des>(4, 11);
}

#[test]
fn threaded_ring_terminates_across_nodes() {
    ring::<Threads>(3, 29);
}

/// A handler creates 5 children (each bumped once) and then runs a batch
/// of 32 tasks on the node's computing layer.
fn spawn<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(2).with_cores(2));
    let p = rt.create_object(0, Cell::new(0), 128);
    let mut w = PayloadWriter::new();
    w.u64(5).u64(16);
    rt.post(p, H_SPAWN, w.finish());
    let mut w2 = PayloadWriter::new();
    w2.u64(32);
    rt.post(p, H_PAR, w2.finish());
    rt.run();
    assert_eq!(rt.num_objects(), 6);
    assert_eq!(value_of(&rt, p), 32);
    let mut total = 0u64;
    rt.for_each_object(|_, o| total += o.as_any().downcast_ref::<Cell>().unwrap().value);
    assert_eq!(total, 32 + 5); // each child bumped once
}

#[test]
fn des_spawn_creates_children() {
    spawn::<Des>();
}

#[test]
fn threaded_spawn_and_work_stealing_pool() {
    spawn::<Threads>();
}

/// A ring of 16 fat cells on one node at a quarter of their footprint:
/// the token revisits evicted cells, forcing reloads (pre-queued messages
/// alone could drain before any eviction, since objects with queued work
/// are never evicted). Values survive the round trips.
fn spills_and_reloads<E: Engine>(spill_dir: Option<std::path::PathBuf>) -> RunStats {
    let mut cfg = MrtsConfig::out_of_core(1, 64 * 1024);
    cfg.soft_threshold_frac = 0.25;
    cfg.spill_dir = spill_dir;
    let mut rt = runtime::<E>(cfg);
    let cells: Vec<MobilePtr> = (0..16)
        .map(|i| {
            let mut c = Cell::new(12 * 1024);
            c.neighbors
                .push(MobilePtr::new(ObjectId::new(0, ((i + 1) % 16) as u64)));
            rt.create_object(0, c, 128)
        })
        .collect();
    // 48 visits: each of the 16 cells exactly 3 times.
    rt.post(cells[0], H_RING, bump_payload(47));
    let stats = rt.run();
    assert!(stats.total_of(|n| n.stores) > 0, "{}", stats.summary());
    assert!(stats.total_of(|n| n.loads) > 0, "{}", stats.summary());
    assert!(stats.disk_pct() > 0.0);
    for &c in &cells {
        assert_eq!(value_of(&rt, c), 3);
    }
    stats
}

#[test]
fn des_out_of_core_spills_and_reloads() {
    let stats = spills_and_reloads::<Des>(None);
    // Admission holds the virtual-time engine to the budget from the
    // first creation (the hard threshold can overshoot by one object);
    // the threaded engine's bootstrap deliberately bypasses it.
    assert!(
        stats.peak_mem() < 96 * 1024,
        "peak {} exceeded budget with slack",
        stats.peak_mem()
    );
}

#[test]
fn threaded_out_of_core_with_real_files() {
    let spill = std::env::temp_dir().join(format!("mrts-test-spill-{}", std::process::id()));
    spills_and_reloads::<Threads>(Some(spill.clone()));
    let _ = std::fs::remove_dir_all(spill);
}

/// A pinned object stays in core while its neighbors spill around it.
fn locked_never_spills<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(1, 32 * 1024));
    let log = std::sync::Arc::new(EventLog::new());
    rt.attach_audit(log.clone());
    let pinned = rt.create_object(0, Cell::new(8 * 1024), 255);
    rt.lock_object(pinned);
    let others: Vec<MobilePtr> = (0..10)
        .map(|_| rt.create_object(0, Cell::new(8 * 1024), 1))
        .collect();
    for &c in &others {
        rt.post(c, H_BUMP, bump_payload(1));
    }
    rt.post(pinned, H_BUMP, bump_payload(1));
    let stats = rt.run();
    assert!(stats.total_of(|n| n.stores) > 0, "{}", stats.summary());
    let left_core = log.snapshot().into_iter().any(|ev| {
        matches!(ev, RuntimeEvent::Unload { oid, .. } | RuntimeEvent::ElidedUnload { oid, .. }
            if oid == pinned.id)
    });
    assert!(!left_core, "the pinned object was evicted");
    assert_eq!(value_of(&rt, pinned), 1);
}

#[test]
fn des_locked_object_never_spills() {
    locked_never_spills::<Des>();
}

#[test]
fn threaded_locked_object_never_spills() {
    locked_never_spills::<Threads>();
}

/// A handler migrates its object to `dest`; a message posted at the
/// object's home follows it there.
fn migration<E: Engine>(dest: u64, v: u64) {
    let mut rt = runtime::<E>(MrtsConfig::in_core(3));
    let p = rt.create_object(0, Cell::new(64), 128);
    let mut w = PayloadWriter::new();
    w.u64(dest);
    rt.post(p, H_MOVE, w.finish());
    rt.post(p, H_BUMP, bump_payload(v));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.migrations), 1);
    assert_eq!(value_of(&rt, p), v);
}

#[test]
fn des_migration_moves_object_and_messages_follow() {
    migration::<Des>(2, 5);
}

#[test]
fn threaded_migration_and_directory_forwarding() {
    migration::<Threads>(1, 9);
}

// ----- virtual-time engine only ------------------------------------------------

#[test]
fn des_is_deterministic() {
    let run = || {
        let mut rt = runtime::<Des>(MrtsConfig::out_of_core(2, 64 * 1024));
        let cells: Vec<MobilePtr> = (0..12)
            .map(|i| rt.create_object((i % 2) as NodeId, Cell::new(8 * 1024), 128))
            .collect();
        for (i, &c) in cells.iter().enumerate() {
            rt.post(c, H_BUMP, bump_payload(i as u64));
        }
        let stats = rt.run();
        // Handler durations are *measured*, so virtual totals jitter at the
        // microsecond scale run-to-run; the event structure (counts) is
        // what must be deterministic.
        (
            stats.total_of(|n| n.stores),
            stats.total_of(|n| n.loads),
            stats.total_of(|n| n.handlers_run),
        )
    };
    assert_eq!(run(), run());
}

/// The virtual-time engine charges a task batch its modelled makespan on
/// the node's cores, not its serial time.
///
/// Both numbers come from **one** run: every task times itself and the
/// handler leaves the sum — the batch's serial time — in the cell, while
/// the engine's charge for the same batch is the run's virtual total. A
/// loaded machine stretches both alike, so the ratio survives sibling
/// tests occupying the cores; and a task spins for a millisecond of wall
/// time, whatever the build's optimization level, so one descheduling of
/// one task (which list scheduling cannot spread over the other cores)
/// would have to last a third of the whole 64-task batch to pull the
/// ratio under 2.
#[test]
fn des_parallel_tasks_speed_up_with_cores() {
    const TASKS: u64 = 64;
    fn h_timed_batch(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
        let serial = std::sync::Arc::new(std::sync::Mutex::new(Duration::ZERO));
        let tasks: Vec<mrts::compute::Task> = (0..TASKS)
            .map(|i| {
                let serial = serial.clone();
                let t: mrts::compute::Task = Box::new(move || {
                    let t0 = std::time::Instant::now();
                    let mut acc = i;
                    while t0.elapsed() < Duration::from_millis(1) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        std::hint::black_box(acc);
                    }
                    *serial.lock().unwrap() += t0.elapsed();
                });
                t
            })
            .collect();
        ctx.run_tasks(tasks);
        cell_mut(obj).value = serial.lock().unwrap().as_nanos() as u64;
    }
    // (serial time of the batch, virtual time the engine charged the run)
    let serial_and_virtual = |cores: usize| {
        let mut rt = runtime::<Des>(MrtsConfig::in_core(1).with_cores(cores));
        rt.register_handler(HandlerId(98), "timed-batch", h_timed_batch);
        let p = rt.create_object(0, Cell::new(0), 128);
        rt.post(p, HandlerId(98), Vec::new());
        let stats = rt.run();
        let serial = rt.with_object(p, |o| o.as_any().downcast_ref::<Cell>().unwrap().value);
        (Duration::from_nanos(serial), stats.total)
    };
    let (serial, charged) = serial_and_virtual(1);
    assert!(
        charged >= serial,
        "one core must be charged the whole batch: {charged:?} < {serial:?}"
    );
    let (serial, charged) = serial_and_virtual(4);
    let speedup = serial.as_secs_f64() / charged.as_secs_f64();
    assert!(
        speedup > 2.0,
        "expected near-4x virtual speedup, got {speedup:.2} (serial {serial:?}, charged {charged:?})"
    );
}
