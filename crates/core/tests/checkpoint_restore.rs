//! Checkpoint/restore integration: state survives a full
//! serialize → rebuild cycle, including pinning, priorities, pending work,
//! and restores onto differently-shaped clusters. Every property is one
//! generic body run on both engines.

use mrts::checkpoint::Checkpoint;
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::prelude::*;
use std::any::Any;

const TAG: TypeTag = TypeTag(0x33);
const H_ADD: HandlerId = HandlerId(1);
const H_MOVE: HandlerId = HandlerId(2);
const H_RELAY: HandlerId = HandlerId(3);

struct Acc {
    sum: u64,
    pad: Vec<u8>,
}

impl Acc {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let sum = r.u64().unwrap();
        let pad = r.bytes().unwrap().to_vec();
        Ok(Box::new(Acc { sum, pad }))
    }
}

impl MobileObject for Acc {
    fn type_tag(&self) -> TypeTag {
        TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.u64(self.sum).bytes(&self.pad);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        32 + self.pad.len()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_add(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    obj.as_any_mut().downcast_mut::<Acc>().unwrap().sum += r.u64().unwrap();
}

/// Migrate the object to the node named in the payload.
fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let dest = PayloadReader::new(payload).u32().unwrap() as NodeId;
    ctx.migrate(ctx.self_ptr(), dest);
}

/// Send an add of the payload's value to the payload's pointer.
fn h_relay(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let (to, v) = (r.ptr().unwrap(), r.u64().unwrap());
    ctx.send(to, H_ADD, add(v));
}

fn runtime<E: Engine>(cfg: MrtsConfig) -> Runtime<E> {
    let mut rt = Runtime::new(cfg);
    rt.register_type(TAG, Acc::decode);
    rt.register_handler(H_ADD, "add", h_add);
    rt.register_handler(H_MOVE, "move", h_move);
    rt.register_handler(H_RELAY, "relay", h_relay);
    rt
}

fn add(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

fn acc(sum: u64, pad: usize) -> Box<Acc> {
    Box::new(Acc {
        sum,
        pad: vec![0; pad],
    })
}

fn sum_of<E: Engine>(rt: &Runtime<E>, p: MobilePtr) -> u64 {
    rt.with_object(p, |o| o.as_any().downcast_ref::<Acc>().unwrap().sum)
}

fn phase_boundary_roundtrip<E: Engine>() {
    // Phase 1 on the original runtime.
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(2, 8 << 10));
    let ptrs: Vec<MobilePtr> = (0..6)
        .map(|i| rt.create_object((i % 2) as NodeId, acc(0, 2048), 128))
        .collect();
    for (i, &p) in ptrs.iter().enumerate() {
        rt.post(p, H_ADD, add(i as u64 + 1));
    }
    rt.run();

    // Checkpoint at quiescence; serialize to bytes and back.
    let cp = rt.checkpoint();
    let cp = Checkpoint::decode(&cp.encode()).unwrap();
    assert_eq!(cp.objects.len(), 6);

    // Restore into a fresh runtime (same shape) and run phase 2.
    let mut rt2 = runtime::<E>(MrtsConfig::out_of_core(2, 8 << 10));
    cp.restore_into(&mut rt2);
    for &p in &ptrs {
        rt2.post(p, H_ADD, add(10));
    }
    rt2.run();
    for (i, &p) in ptrs.iter().enumerate() {
        assert_eq!(sum_of(&rt2, p), i as u64 + 1 + 10);
    }
}

#[test]
fn phase_boundary_checkpoint_roundtrip() {
    phase_boundary_roundtrip::<Des>();
    phase_boundary_roundtrip::<Threads>();
}

fn onto_fewer_nodes<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(4));
    let ptrs: Vec<MobilePtr> = (0..8)
        .map(|i| rt.create_object((i % 4) as NodeId, acc(i as u64, 128), 128))
        .collect();
    rt.run();
    let cp = rt.checkpoint();

    // Restore the 4-node state onto 1 node (the paper's use case: resume
    // on fewer nodes and let the out-of-core layer handle the footprint).
    let mut rt1 = runtime::<E>(MrtsConfig::out_of_core(1, 16 << 10));
    cp.restore_into(&mut rt1);
    for &p in &ptrs {
        rt1.post(p, H_ADD, add(100));
    }
    rt1.run();
    assert_eq!(rt1.num_objects(), 8);
    let mut total = 0;
    rt1.for_each_object(|_, o| total += o.as_any().downcast_ref::<Acc>().unwrap().sum);
    assert_eq!(total, (0..8).sum::<u64>() + 800);
}

#[test]
fn restore_onto_fewer_nodes() {
    onto_fewer_nodes::<Des>();
    onto_fewer_nodes::<Threads>();
}

fn fresh_ids_after_restore<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(1));
    let p0 = rt.create_object(0, acc(0, 0), 128);
    rt.run();
    let cp = rt.checkpoint();

    let mut rt2 = runtime::<E>(MrtsConfig::in_core(1));
    cp.restore_into(&mut rt2);
    // A new object created after restore must get a fresh id.
    let p1 = rt2.create_object(0, acc(7, 0), 128);
    assert_ne!(p0.id, p1.id);
    rt2.post(p1, H_ADD, add(1));
    rt2.run();
    assert_eq!(sum_of(&rt2, p1), 8);
    assert_eq!(rt2.num_objects(), 2);
}

#[test]
fn new_objects_after_restore_do_not_collide() {
    fresh_ids_after_restore::<Des>();
    fresh_ids_after_restore::<Threads>();
}

fn flags_survive<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(1));
    let p = rt.create_object(0, acc(1, 0), 250);
    rt.lock_object(p);
    rt.run();
    let cp = rt.checkpoint();
    let e = &cp.objects[0];
    assert!(e.locked);
    assert_eq!(e.priority, 250);
    // And they decode identically.
    let back = Checkpoint::decode(&cp.encode()).unwrap();
    assert!(back.objects[0].locked);
    assert_eq!(back.objects[0].priority, 250);
}

#[test]
fn locked_and_priority_flags_survive() {
    flags_survive::<Des>();
    flags_survive::<Threads>();
}

/// The same run twice: in core, every entry is packed from the resident
/// object; out of core, most entries' bytes are copied from the spill
/// store as they lie there. The two captures must not differ by a byte.
fn spilled_bytes_copied_from_the_store<E: Engine>(label: &str) {
    let capture = |cfg: MrtsConfig| {
        let mut rt = runtime::<E>(cfg);
        for i in 0..12u64 {
            let p = rt.create_object(
                (i % 2) as NodeId,
                Box::new(Acc {
                    sum: 0,
                    pad: vec![i as u8; 2048],
                }),
                (100 + i) as u8,
            );
            if i == 3 {
                rt.lock_object(p);
            }
            rt.post(p, H_ADD, add(i + 1));
            rt.post(p, H_ADD, add(10 * i));
        }
        let stats = rt.run();
        (rt.checkpoint(), stats.total_of(|n| n.stores))
    };
    let dir = std::env::temp_dir().join(format!("mrts-cp-{label}-{}", std::process::id()));
    let mut ooc = MrtsConfig::out_of_core(2, 5 << 10);
    ooc.spill_dir = Some(dir.clone());
    let (spilled, stores) = capture(ooc);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stores >= 6, "only {stores} stores: the run stayed in core");
    let (resident, _) = capture(MrtsConfig::in_core(2));
    assert_eq!(spilled.objects.len(), 12);
    assert_eq!(spilled.encode(), resident.encode());
}

#[test]
fn threaded_checkpoint_copies_spilled_bytes_from_the_store() {
    spilled_bytes_copied_from_the_store::<Threads>("threaded");
}

#[test]
fn des_checkpoint_copies_spilled_bytes_from_the_store() {
    spilled_bytes_copied_from_the_store::<Des>("des");
}

/// An object migrated away from its home node is restored on the node it
/// was captured on; messages posted to it, and sent to it by a handler on
/// a third node, must still find it (routing falls back to the home node,
/// whose directory learns where the restore put it).
fn post_after_restore_away_from_home<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(3));
    let p = rt.create_object(0, acc(1, 0), 128);
    let q = rt.create_object(1, acc(0, 0), 128);
    let mut w = PayloadWriter::new();
    w.u32(2);
    rt.post(p, H_MOVE, w.finish());
    rt.run();
    let cp = rt.checkpoint();
    assert_eq!((cp.objects[0].oid, cp.objects[0].node), (p.id, 2));

    let mut rt2 = runtime::<E>(MrtsConfig::in_core(3));
    cp.restore_into(&mut rt2);
    rt2.post(p, H_ADD, add(40));
    let mut w = PayloadWriter::new();
    w.ptr(p).u64(1);
    rt2.post(q, H_RELAY, w.finish());
    rt2.run();
    assert_eq!(sum_of(&rt2, p), 42);
}

#[test]
fn post_reaches_an_object_restored_away_from_its_home() {
    post_after_restore_away_from_home::<Des>();
    post_after_restore_away_from_home::<Threads>();
}

/// Shrink then grow: four nodes restored onto two (ids homed on nodes 2
/// and 3 wrap onto 0 and 1), captured again, restored onto four. Node 2's
/// allocator was never captured past its restored ids, so it must start
/// past them.
fn shrink_then_grow<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::in_core(4));
    let ptrs: Vec<MobilePtr> = (0..4)
        .map(|n| rt.create_object(n, acc(n as u64, 0), 128))
        .collect();
    rt.run();
    let mut rt2 = runtime::<E>(MrtsConfig::in_core(2));
    rt.checkpoint().restore_into(&mut rt2);
    rt2.run();
    let cp = rt2.checkpoint();
    assert_eq!(cp.next_seq, vec![1, 1]);

    let mut rt4 = runtime::<E>(MrtsConfig::in_core(4));
    cp.restore_into(&mut rt4);
    let fresh = rt4.create_object(2, acc(100, 0), 128);
    assert!(
        !ptrs.contains(&fresh),
        "{:?} was minted again after a shrink-then-grow restore",
        fresh.id
    );
    rt4.post(fresh, H_ADD, add(1));
    rt4.run();
    assert_eq!(rt4.num_objects(), 5);
    for (n, &p) in ptrs.iter().enumerate() {
        assert_eq!(sum_of(&rt4, p), n as u64);
    }
    assert_eq!(sum_of(&rt4, fresh), 101);
}

#[test]
fn shrink_then_grow_restore_never_reuses_an_id() {
    shrink_then_grow::<Des>();
    shrink_then_grow::<Threads>();
}
