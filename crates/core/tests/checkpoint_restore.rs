//! Checkpoint/restore integration: state survives a full
//! serialize → rebuild cycle, including pinning, priorities, pending work,
//! and restores onto differently-shaped clusters.

use mrts::checkpoint::Checkpoint;
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::prelude::*;
use std::any::Any;

const TAG: TypeTag = TypeTag(0x33);
const H_ADD: HandlerId = HandlerId(1);

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

fn register(rt: &mut DesRuntime) {
    rt.register_type(TAG, Acc::decode);
    rt.register_handler(H_ADD, "add", h_add);
}

fn add(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

#[test]
fn phase_boundary_checkpoint_roundtrip() {
    // Phase 1 on the original runtime.
    let mut rt = DesRuntime::new(MrtsConfig::out_of_core(2, 8 << 10));
    register(&mut rt);
    let ptrs: Vec<MobilePtr> = (0..6)
        .map(|i| {
            rt.create_object(
                (i % 2) as NodeId,
                Box::new(Acc {
                    sum: 0,
                    pad: vec![0; 2048],
                }),
                128,
            )
        })
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
    let mut rt2 = DesRuntime::new(MrtsConfig::out_of_core(2, 8 << 10));
    register(&mut rt2);
    let mut rt2 = cp.restore_into(rt2);
    for &p in &ptrs {
        rt2.post(p, H_ADD, add(10));
    }
    rt2.run();
    for (i, &p) in ptrs.iter().enumerate() {
        rt2.with_object(p, |o| {
            assert_eq!(
                o.as_any().downcast_ref::<Acc>().unwrap().sum,
                i as u64 + 1 + 10
            );
        });
    }
}

#[test]
fn restore_onto_fewer_nodes() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(4));
    register(&mut rt);
    let ptrs: Vec<MobilePtr> = (0..8)
        .map(|i| {
            rt.create_object(
                (i % 4) as NodeId,
                Box::new(Acc {
                    sum: i as u64,
                    pad: vec![0; 128],
                }),
                128,
            )
        })
        .collect();
    rt.run();
    let cp = rt.checkpoint();

    // Restore the 4-node state onto 1 node (the paper's use case: resume
    // on fewer nodes and let the out-of-core layer handle the footprint).
    let mut rt1 = DesRuntime::new(MrtsConfig::out_of_core(1, 16 << 10));
    register(&mut rt1);
    let mut rt1 = cp.restore_into(rt1);
    assert_eq!(rt1.num_objects(), 8);
    for &p in &ptrs {
        rt1.post(p, H_ADD, add(100));
    }
    rt1.run();
    let mut total = 0;
    rt1.for_each_object(|_, o| total += o.as_any().downcast_ref::<Acc>().unwrap().sum);
    assert_eq!(total, (0..8).sum::<u64>() + 800);
}

#[test]
fn new_objects_after_restore_do_not_collide() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(1));
    register(&mut rt);
    let p0 = rt.create_object(
        0,
        Box::new(Acc {
            sum: 0,
            pad: vec![],
        }),
        128,
    );
    rt.run();
    let cp = rt.checkpoint();

    let mut rt2 = DesRuntime::new(MrtsConfig::in_core(1));
    register(&mut rt2);
    let mut rt2 = cp.restore_into(rt2);
    // A new object created after restore must get a fresh id.
    let p1 = rt2.create_object(
        0,
        Box::new(Acc {
            sum: 7,
            pad: vec![],
        }),
        128,
    );
    assert_ne!(p0.id, p1.id);
    rt2.post(p1, H_ADD, add(1));
    rt2.run();
    rt2.with_object(p1, |o| {
        assert_eq!(o.as_any().downcast_ref::<Acc>().unwrap().sum, 8);
    });
    assert_eq!(rt2.num_objects(), 2);
}

#[test]
fn locked_and_priority_flags_survive() {
    let mut rt = DesRuntime::new(MrtsConfig::in_core(1));
    register(&mut rt);
    let p = rt.create_object(
        0,
        Box::new(Acc {
            sum: 1,
            pad: vec![],
        }),
        250,
    );
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
fn threaded_checkpoint_copies_spilled_bytes_from_the_store() {
    // The same run twice: in core, every entry is packed from the resident
    // object; out of core, most entries' bytes are copied from the spill
    // store as they lie there. The two captures must not differ by a byte.
    let capture = |cfg: MrtsConfig| {
        let mut rt = mrts::threaded::ThreadedRuntime::new(cfg);
        rt.register_type(TAG, Acc::decode);
        rt.register_handler(H_ADD, "add", h_add);
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
    let dir = std::env::temp_dir().join(format!("mrts-cp-spilled-{}", std::process::id()));
    let mut ooc = MrtsConfig::out_of_core(2, 5 << 10);
    ooc.spill_dir = Some(dir.clone());
    let (spilled, stores) = capture(ooc);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stores >= 6, "only {stores} stores: the run stayed in core");
    let (resident, _) = capture(MrtsConfig::in_core(2));
    assert_eq!(spilled.objects.len(), 12);
    assert_eq!(spilled.encode(), resident.encode());
}
