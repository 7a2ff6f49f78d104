//! Property tests for the spill path (clean-eviction elision + batched
//! stores + pooled buffers): random handler / evict / load / migrate
//! schedules under a tight budget must leave application state
//! byte-identical to an unlimited-budget run that never spills, and the
//! per-object version counters backing dirty tracking must never run
//! backwards.

use mrts::audit::{EventLog, FailMode, InvariantChecker, RuntimeEvent};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::object::Registry;
use mrts::prelude::*;
use proptest::prelude::*;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const TAG: TypeTag = TypeTag(0xAB);
const H_ADD: HandlerId = HandlerId(1);
const H_FWD: HandlerId = HandlerId(2);
const H_MIG: HandlerId = HandlerId(3);

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

/// Add `v` locally, then forward to the target for `hops` more rounds.
fn h_fwd(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let v = r.u64().unwrap();
    let hops = r.u32().unwrap();
    let to = r.ptr().unwrap();
    obj.as_any_mut().downcast_mut::<Acc>().unwrap().sum += v;
    if hops > 0 {
        let mut w = PayloadWriter::new();
        w.u64(v).u32(hops - 1).ptr(ctx.self_ptr());
        ctx.send(to, H_FWD, w.finish());
    }
}

/// Migrate self to the node in the payload (and count the visit).
fn h_mig(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let dest = r.u32().unwrap() as NodeId;
    obj.as_any_mut().downcast_mut::<Acc>().unwrap().sum += 1;
    let me = ctx.self_ptr();
    ctx.migrate(me, dest);
}

#[derive(Clone, Debug)]
struct Plan {
    nodes: usize,
    objects: usize,
    pad: usize,
    adds: Vec<(usize, u64)>,
    fwds: Vec<(usize, usize, u64, u32)>,
    migs: Vec<(usize, usize)>,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (2usize..4, 2usize..8, 256usize..4096).prop_flat_map(|(nodes, objects, pad)| {
        let adds = prop::collection::vec((0..objects, 1u64..100), 0..24);
        let fwds = prop::collection::vec((0..objects, 0..objects, 1u64..50, 0u32..6), 0..8);
        let migs = prop::collection::vec((0..objects, 0..nodes), 0..6);
        (Just(nodes), Just(objects), Just(pad), adds, fwds, migs).prop_map(
            |(nodes, objects, pad, adds, fwds, migs)| Plan {
                nodes,
                objects,
                pad,
                adds,
                fwds,
                migs,
            },
        )
    })
}

fn expected_sum(plan: &Plan) -> u64 {
    let adds: u64 = plan.adds.iter().map(|&(_, v)| v).sum();
    let fwds: u64 = plan
        .fwds
        .iter()
        .map(|&(_, _, v, hops)| v * (hops as u64 + 1))
        .sum();
    adds + fwds + plan.migs.len() as u64
}

fn post_plan<F: FnMut(MobilePtr, HandlerId, Vec<u8>)>(plan: &Plan, ptrs: &[MobilePtr], mut f: F) {
    for &(o, v) in &plan.adds {
        let mut w = PayloadWriter::new();
        w.u64(v);
        f(ptrs[o], H_ADD, w.finish());
    }
    for &(a, b, v, hops) in &plan.fwds {
        let mut w = PayloadWriter::new();
        w.u64(v).u32(hops).ptr(ptrs[b]);
        f(ptrs[a], H_FWD, w.finish());
    }
    for &(o, dest) in &plan.migs {
        let mut w = PayloadWriter::new();
        w.u32(dest as u32);
        f(ptrs[o], H_MIG, w.finish());
    }
}

/// Run the plan on the DES engine; return (sum, packed bytes per object).
fn run_des(plan: &Plan, cfg: MrtsConfig) -> (u64, BTreeMap<ObjectId, Vec<u8>>) {
    let mut rt = DesRuntime::new(cfg);
    rt.register_type(TAG, Acc::decode);
    rt.register_handler(H_ADD, "add", h_add);
    rt.register_handler(H_FWD, "fwd", h_fwd);
    rt.register_handler(H_MIG, "mig", h_mig);
    let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
    rt.attach_audit(checker.clone());
    let ptrs: Vec<MobilePtr> = (0..plan.objects)
        .map(|i| {
            rt.create_object(
                (i % plan.nodes) as NodeId,
                Box::new(Acc {
                    sum: 0,
                    pad: vec![0x5A; plan.pad],
                }),
                128,
            )
        })
        .collect();
    post_plan(plan, &ptrs, |p, h, payload| rt.post(p, h, payload));
    let _ = rt.run();
    checker.assert_clean();
    let mut sum = 0;
    let mut bytes = BTreeMap::new();
    rt.for_each_object(|oid, o| {
        sum += o.as_any().downcast_ref::<Acc>().unwrap().sum;
        bytes.insert(oid, Registry::pack(o));
    });
    (sum, bytes)
}

static SPILL_CASE: AtomicU64 = AtomicU64::new(0);

/// Run the plan on the threaded engine with an event log; return (sum,
/// elided-unload events).
fn run_threaded(plan: &Plan, tweak: impl Fn(&mut MrtsConfig)) -> (u64, Vec<RuntimeEvent>) {
    let budget = (2 * (plan.pad + 64)).max(256);
    let mut cfg = MrtsConfig::out_of_core(plan.nodes, budget);
    tweak(&mut cfg);
    cfg.spill_dir = Some(std::env::temp_dir().join(format!(
        "mrts-propspill-{}-{}",
        std::process::id(),
        SPILL_CASE.fetch_add(1, Ordering::Relaxed)
    )));
    let spill = cfg.spill_dir.clone().unwrap();
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(TAG, Acc::decode);
    rt.register_handler(H_ADD, "add", h_add);
    rt.register_handler(H_FWD, "fwd", h_fwd);
    rt.register_handler(H_MIG, "mig", h_mig);
    let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
    let log = Arc::new(EventLog::new());
    rt.attach_audit(checker.clone());
    rt.attach_audit(log.clone());
    let ptrs: Vec<MobilePtr> = (0..plan.objects)
        .map(|i| {
            rt.create_object(
                (i % plan.nodes) as NodeId,
                Box::new(Acc {
                    sum: 0,
                    pad: vec![0x5A; plan.pad],
                }),
                128,
            )
        })
        .collect();
    post_plan(plan, &ptrs, |p, h, payload| rt.post(p, h, payload));
    let _ = rt.run();
    checker.assert_clean();
    let mut sum = 0;
    rt.for_each_object(|_, o| sum += o.as_any().downcast_ref::<Acc>().unwrap().sum);
    let _ = std::fs::remove_dir_all(spill);
    let elisions = log
        .snapshot()
        .into_iter()
        .filter(|e| matches!(e, RuntimeEvent::ElidedUnload { .. }))
        .collect();
    (sum, elisions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spilling runs (elision + batching + pooled buffers) must finish
    /// with every object byte-identical to a run that never spills: same
    /// sums, same packed representation, no invariant violations. An
    /// elided eviction whose on-disk bytes were stale would surface here
    /// as a byte difference after the next reload.
    #[test]
    fn spilled_end_state_matches_in_core_byte_for_byte(plan in plan_strategy()) {
        // A budget holding roughly two padded objects forces heavy
        // eviction traffic.
        let budget = (2 * (plan.pad + 64)).max(256);
        let (ooc_sum, ooc_bytes) = run_des(&plan, MrtsConfig::out_of_core(plan.nodes, budget));
        let (core_sum, core_bytes) = run_des(&plan, MrtsConfig::in_core(plan.nodes));
        prop_assert_eq!(ooc_sum, expected_sum(&plan));
        prop_assert_eq!(core_sum, expected_sum(&plan));
        prop_assert_eq!(
            ooc_bytes.len(), core_bytes.len(),
            "object population diverged"
        );
        for (oid, ooc) in &ooc_bytes {
            prop_assert_eq!(
                ooc, &core_bytes[oid],
                "object {:?} not byte-identical to the in-core run", oid
            );
        }
    }
}

proptest! {
    // The threaded engine spins up real threads and spill files per case.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The threaded engine under eviction pressure: application state exact,
    /// audit clean (the checker cross-validates every elision against its
    /// own version model), and the version stamps on elided evictions
    /// never run backwards for any object.
    #[test]
    fn threaded_elision_versions_never_run_backwards(plan in plan_strategy()) {
        let (sum, elisions) = run_threaded(&plan, |_| {});
        prop_assert_eq!(sum, expected_sum(&plan));
        let mut last: BTreeMap<ObjectId, u64> = BTreeMap::new();
        for ev in &elisions {
            if let RuntimeEvent::ElidedUnload { oid, version, stored_version, .. } = ev {
                prop_assert_eq!(
                    version, stored_version,
                    "elision of a dirty object (versions differ)"
                );
                if let Some(prev) = last.insert(*oid, *version) {
                    prop_assert!(
                        *version >= prev,
                        "version ran backwards for {:?}: {} then {}",
                        oid, prev, version
                    );
                }
            }
        }
    }
}

/// Directed thrash scenario: objects larger than the soft budget
/// ping-pong through the spill path; an elided eviction followed by a
/// load must reconstitute the object byte-identically (validated by the
/// invariant checker's version model and the final state check). The
/// elision race is probabilistic in the threaded engine, so the scenario
/// retries a few times — seeing zero elisions across all attempts would
/// mean elision stopped firing.
#[test]
fn thrash_elides_and_reconstitutes_exactly() {
    let mut elided_total = 0;
    for attempt in 0..10 {
        // Enough objects that loads queue up behind one I/O thread and
        // several sit in core, loaded but not yet run — the clean window
        // elision exploits.
        let plan = Plan {
            nodes: 1,
            objects: 8,
            pad: 8 * 1024,
            adds: (0..96).map(|i| (i % 8, 1 + i as u64)).collect(),
            fwds: (0..16).map(|i| (i % 8, (i + 3) % 8, 5, 5)).collect(),
            migs: vec![],
        };
        let (sum, elisions) = run_threaded(&plan, |cfg| {
            cfg.io_threads = 1;
        });
        assert_eq!(
            sum,
            expected_sum(&plan),
            "attempt {attempt} corrupted state"
        );
        elided_total += elisions.len();
        if elided_total > 0 {
            return;
        }
    }
    panic!("no eviction was ever elided across 10 thrash runs");
}
