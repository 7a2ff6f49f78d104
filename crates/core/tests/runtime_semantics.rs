//! End-to-end semantics tests for both MRTS engines (virtual-time DES and
//! threaded), using a small message-driven application: `Cell` objects
//! that count, forward around rings, and carry payload.

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

fn register_des(rt: &mut DesRuntime) {
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_RING, "ring", h_ring);
    rt.register_handler(H_SPAWN, "spawn", h_spawn);
    rt.register_handler(H_PAR, "par", h_par);
}

fn register_threaded(rt: &mut ThreadedRuntime) {
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_RING, "ring", h_ring);
    rt.register_handler(H_SPAWN, "spawn", h_spawn);
    rt.register_handler(H_PAR, "par", h_par);
}

fn bump_payload(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

// ----- DES engine ------------------------------------------------------------

#[test]
fn des_single_message() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(1));
    register_des(&mut rt);
    let p = rt.create_object(0, Cell::new(0), 128);
    rt.post(p, H_BUMP, bump_payload(7));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 1);
    rt.with_object(p, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 7);
    });
}

#[test]
fn des_ring_across_nodes() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(4));
    register_des(&mut rt);
    // One cell per node, in a ring.
    let cells: Vec<MobilePtr> = (0..4)
        .map(|n| rt.create_object(n, Cell::new(0), 128))
        .collect();
    for i in 0..4 {
        let next = cells[(i + 1) % 4];
        // Wire neighbors directly through the bootstrap: send a spawn-less
        // setup via closure is not possible, so use with_object-style
        // initialization: create with neighbor built in via a bump trick.
        // Simpler: post a ring message after manually wiring neighbors.
        let _ = next;
    }
    // Wire neighbors by rebuilding the cells with neighbors.
    let mut rt = DesRuntime::new(MrtsConfig::in_core(4));
    register_des(&mut rt);
    let ids: Vec<MobilePtr> = (0..4)
        .map(|n| {
            let mut c = Cell::new(0);
            // Neighbor pointers are predictable: object seq 0 on node (n+1)%4.
            c.neighbors
                .push(MobilePtr::new(ObjectId::new(((n + 1) % 4) as NodeId, 0)));
            rt.create_object(n as NodeId, c, 128)
        })
        .collect();
    // 12 hops: each cell is visited 3 or 4 times.
    rt.post(ids[0], H_RING, bump_payload(11));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 12);
    let mut values = Vec::new();
    for &p in &ids {
        rt.with_object(p, |o| {
            values.push(o.as_any().downcast_ref::<Cell>().unwrap().value)
        });
    }
    assert_eq!(values.iter().sum::<u64>(), 12);
    // Communication must have been charged (remote hops).
    assert!(stats.comm_pct() > 0.0);
    assert!(stats.total > std::time::Duration::ZERO);
}

#[test]
fn des_spawn_creates_children() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(1));
    register_des(&mut rt);
    let p = rt.create_object(0, Cell::new(0), 128);
    let mut w = PayloadWriter::new();
    w.u64(10).u64(100);
    rt.post(p, H_SPAWN, w.finish());
    rt.run();
    assert_eq!(rt.num_objects(), 11);
    let mut total = 0u64;
    rt.for_each_object(|_, o| total += o.as_any().downcast_ref::<Cell>().unwrap().value);
    assert_eq!(total, 10); // each child bumped once
}

#[test]
fn des_out_of_core_spills_and_reloads() {
    // 20 cells of ~10KB each with a 64KB budget: most must spill.
    let mut cfg = MrtsConfig::out_of_core(1, 64 * 1024);
    cfg.soft_threshold_frac = 0.25;
    let mut rt = DesRuntime::new(cfg);
    register_des(&mut rt);
    let cells: Vec<MobilePtr> = (0..20)
        .map(|_| rt.create_object(0, Cell::new(10 * 1024), 128))
        .collect();
    // Several rounds of bumps touching every cell.
    for round in 0..3 {
        for &c in &cells {
            rt.post(c, H_BUMP, bump_payload(round + 1));
        }
    }
    let stats = rt.run();
    assert!(
        stats.total_of(|n| n.stores) > 0,
        "objects must spill: {}",
        stats.summary()
    );
    assert!(stats.total_of(|n| n.loads) > 0, "objects must reload");
    assert!(stats.disk_pct() > 0.0);
    // Peak memory stays in the vicinity of the budget (hard threshold can
    // overshoot by one object).
    assert!(
        stats.peak_mem() < 96 * 1024,
        "peak {} exceeded budget with slack",
        stats.peak_mem()
    );
    // Values survived the round trips.
    for &c in &cells {
        rt.with_object(c, |o| {
            assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 6);
        });
    }
}

#[test]
fn des_locked_object_never_spills() {
    let mut rt = DesRuntime::new(MrtsConfig::out_of_core(1, 32 * 1024));
    register_des(&mut rt);
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
    assert!(stats.total_of(|n| n.stores) > 0);
    // The pinned object must never have been loaded (it never left).
    rt.with_object(pinned, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 1);
    });
}

#[test]
fn des_is_deterministic() {
    let run = || {
        let mut rt = DesRuntime::new(MrtsConfig::out_of_core(2, 64 * 1024));
        register_des(&mut rt);
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
/// tests occupying the cores; and a task runs for about a millisecond, so
/// one descheduling of one task (which list scheduling cannot spread over
/// the other cores) would have to last a third of the whole 64-task batch
/// to pull the ratio under 2.
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
                    for k in 0..100_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
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
        let mut rt = DesRuntime::new(MrtsConfig::in_core(1).with_cores(cores));
        register_des(&mut rt);
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

#[test]
fn des_migration_moves_object_and_messages_follow() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(3));
    register_des(&mut rt);
    let p = rt.create_object(0, Cell::new(64), 128);
    // A handler that migrates self: use spawn handler trick — instead,
    // bootstrap a migration via a custom handler.
    fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        let dest = r.u64().unwrap() as NodeId;
        ctx.migrate(ctx.self_ptr(), dest);
    }
    rt.register_handler(HandlerId(99), "move", h_move);
    let mut w = PayloadWriter::new();
    w.u64(2);
    rt.post(p, HandlerId(99), w.finish());
    // And a bump posted from node 0's bootstrap; it must reach the object
    // wherever it ends up.
    rt.post(p, H_BUMP, bump_payload(5));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.migrations), 1);
    rt.with_object(p, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 5);
    });
}

// ----- threaded engine ---------------------------------------------------------

#[test]
fn threaded_single_node_semantics() {
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(1));
    register_threaded(&mut rt);
    let p = rt.create_object(0, Cell::new(0), 128);
    rt.post(p, H_BUMP, bump_payload(3));
    rt.post(p, H_BUMP, bump_payload(4));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 2);
    rt.with_object(p, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 7);
    });
}

#[test]
fn threaded_ring_terminates_across_nodes() {
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(3));
    register_threaded(&mut rt);
    let ids: Vec<MobilePtr> = (0..3)
        .map(|n| {
            let mut c = Cell::new(0);
            c.neighbors
                .push(MobilePtr::new(ObjectId::new(((n + 1) % 3) as NodeId, 0)));
            rt.create_object(n as NodeId, c, 128)
        })
        .collect();
    rt.post(ids[0], H_RING, bump_payload(29));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 30);
    let mut total = 0u64;
    rt.for_each_object(|_, o| total += o.as_any().downcast_ref::<Cell>().unwrap().value);
    assert_eq!(total, 30);
}

#[test]
fn threaded_out_of_core_with_real_files() {
    let spill = std::env::temp_dir().join(format!("mrts-test-spill-{}", std::process::id()));
    let mut cfg = MrtsConfig::out_of_core(1, 64 * 1024);
    cfg.spill_dir = Some(spill.clone());
    let mut rt = ThreadedRuntime::new(cfg);
    register_threaded(&mut rt);
    // A ring of fat cells: the token revisits evicted cells, forcing real
    // file reloads (pre-queued messages alone would drain before any
    // eviction, since objects with queued work are never evicted).
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
    for &c in &cells {
        rt.with_object(c, |o| {
            assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 3);
        });
    }
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn threaded_spawn_and_work_stealing_pool() {
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(2).with_cores(2));
    register_threaded(&mut rt);
    let p = rt.create_object(0, Cell::new(0), 128);
    let mut w = PayloadWriter::new();
    w.u64(5).u64(16);
    rt.post(p, H_SPAWN, w.finish());
    let mut w2 = PayloadWriter::new();
    w2.u64(32);
    rt.post(p, H_PAR, w2.finish());
    rt.run();
    assert_eq!(rt.num_objects(), 6);
    rt.with_object(p, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 32);
    });
}

#[test]
fn threaded_migration_and_directory_forwarding() {
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(3));
    register_threaded(&mut rt);
    fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
        let mut r = PayloadReader::new(payload);
        let dest = r.u64().unwrap() as NodeId;
        ctx.migrate(ctx.self_ptr(), dest);
    }
    rt.register_handler(HandlerId(99), "move", h_move);
    let p = rt.create_object(0, Cell::new(64), 128);
    let mut w = PayloadWriter::new();
    w.u64(1);
    rt.post(p, HandlerId(99), w.finish());
    rt.post(p, H_BUMP, bump_payload(9));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.migrations), 1);
    rt.with_object(p, |o| {
        assert_eq!(o.as_any().downcast_ref::<Cell>().unwrap().value, 9);
    });
}
