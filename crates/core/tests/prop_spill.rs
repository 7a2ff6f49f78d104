//! Property tests for the spill path (clean-eviction elision + batched
//! stores + pooled buffers): random handler / evict / load / migrate
//! schedules under a tight budget must leave application state
//! byte-identical to an unlimited-budget run that never spills, and the
//! per-object version counters backing dirty tracking must never run
//! backwards.
//!
//! The same `Plan` also drives the **cross-engine differential test**:
//! one random schedule (add / forward / walk / migrate — to a random
//! node, to the node the object is already on, and pinned in the same
//! handler — / grow / lock / unlock / set-priority over 1–3 nodes and 4–24
//! objects, budgets from "everything fits" down to about two objects,
//! locality and work stealing on and off) runs through the virtual-time engine, the threaded engine and an
//! unlimited-budget reference, and all three must end with every object
//! byte-identical, both audit streams clean, inside a wall-clock bound.

use mrts::audit::{EventLog, FailMode, InvariantChecker, RuntimeEvent};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::object::Registry;
use mrts::prelude::*;
use proptest::prelude::*;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TAG: TypeTag = TypeTag(0xAB);
const H_ADD: HandlerId = HandlerId(1);
const H_FWD: HandlerId = HandlerId(2);
const H_MIG: HandlerId = HandlerId(3);
const H_WALK: HandlerId = HandlerId(4);
const H_GROW: HandlerId = HandlerId(5);
const H_PIN: HandlerId = HandlerId(6);
const H_PRIO: HandlerId = HandlerId(7);

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

/// Payload destination meaning "the node this handler runs on".
const STAY: u32 = u32::MAX;

/// Migrate self to the node in the payload ([`STAY`]: to the current
/// owner, which must be a no-op) and count the visit; a non-zero flag
/// byte locks self first, so the object ships pinned.
fn h_mig(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let dest = match r.u32().unwrap() {
        STAY => ctx.node(),
        d => d as NodeId,
    };
    obj.as_any_mut().downcast_mut::<Acc>().unwrap().sum += 1;
    let me = ctx.self_ptr();
    if r.u8().unwrap() != 0 {
        ctx.lock(me);
    }
    ctx.migrate(me, dest);
}

/// Add `v`, then pass the message on to the next object of the walk.
/// Walks are the send-adjacency the locality map builds its clusters
/// from (see [`Plan::walk_stops`]).
fn h_walk(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let v = r.u64().unwrap();
    let left = r.u32().unwrap();
    obj.as_any_mut().downcast_mut::<Acc>().unwrap().sum += v;
    if left > 0 {
        let next = r.ptr().unwrap();
        let mut w = PayloadWriter::new();
        w.u64(v).u32(left - 1);
        for _ in 1..left {
            w.ptr(r.ptr().unwrap());
        }
        ctx.send(next, H_WALK, w.finish());
    }
}

/// Resize in place: the object grows by the payload's byte count (a
/// constant fill, so grows commute and the end state is schedule-free).
fn h_grow(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let bytes = r.u32().unwrap() as usize;
    let acc = obj.as_any_mut().downcast_mut::<Acc>().unwrap();
    acc.pad.resize(acc.pad.len() + bytes, 0xA5);
}

/// Lock (payload 1) or unlock (payload 0) self.
fn h_pin(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let me = ctx.self_ptr();
    if payload[0] != 0 {
        ctx.lock(me);
    } else {
        ctx.unlock(me);
    }
}

fn h_prio(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let me = ctx.self_ptr();
    ctx.set_priority(me, payload[0]);
}

#[derive(Clone, Debug, Default)]
struct Plan {
    nodes: usize,
    objects: usize,
    pad: usize,
    adds: Vec<(usize, u64)>,
    fwds: Vec<(usize, usize, u64, u32)>,
    migs: Vec<(usize, usize)>,
    /// Objects asked to migrate to wherever they already are.
    self_migs: Vec<usize>,
    /// `(object, dest)`: lock, then migrate, in one handler.
    pinned_migs: Vec<(usize, usize)>,
    /// `(first object, further stops per round, rounds, value)`.
    walks: Vec<(usize, usize, usize, u64)>,
    /// `(object, bytes)`.
    grows: Vec<(usize, usize)>,
    /// `(object, lock?)`.
    pins: Vec<(usize, bool)>,
    prios: Vec<(usize, u8)>,
    /// Per-node budget in initial-object footprints.
    budget_objs: usize,
    locality: bool,
    work_stealing: bool,
}

impl Plan {
    /// The objects a walk visits, in order: from `first` in strides of
    /// `nodes` — objects are dealt round-robin, so a walk stays on one
    /// home node and teaches *that* node's locality map a chain of
    /// neighbours — repeated `rounds` times, so later rounds fault on
    /// objects whose clustermates are already known.
    fn walk_stops(&self, first: usize, more: usize, rounds: usize) -> Vec<usize> {
        let chain: Vec<usize> = (first..self.objects)
            .step_by(self.nodes)
            .take(more + 1)
            .collect();
        (0..rounds).flat_map(|_| chain.iter().copied()).collect()
    }

    fn budget(&self) -> usize {
        self.budget_objs * (self.pad + 64)
    }

    /// The plan's configuration under `budget` (`None` = unlimited).
    fn cfg(&self, budget: Option<usize>) -> MrtsConfig {
        let mut cfg = match budget {
            Some(b) => MrtsConfig::out_of_core(self.nodes, b),
            None => MrtsConfig::in_core(self.nodes),
        };
        cfg.deterministic_compute = true;
        cfg.locality = self.locality;
        cfg.work_stealing = self.work_stealing;
        cfg
    }
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (1usize..4, 4usize..25, 256usize..4096).prop_flat_map(|(nodes, objects, pad)| {
        let adds = prop::collection::vec((0..objects, 1u64..100), 0..24);
        let fwds = prop::collection::vec((0..objects, 0..objects, 1u64..50, 0u32..6), 0..8);
        let migs = prop::collection::vec((0..objects, 0..nodes), 0..6);
        let self_migs = prop::collection::vec(0..objects, 0..3);
        let pinned_migs = prop::collection::vec((0..objects, 0..nodes), 0..3);
        let walks = prop::collection::vec((0..objects, 1..objects, 1usize..5, 1u64..50), 1..6);
        let grows = prop::collection::vec((0..objects, 1usize..2048), 0..8);
        let pins = prop::collection::vec((0..objects, any::<bool>()), 0..6);
        let prios = prop::collection::vec((0..objects, any::<u8>()), 0..4);
        // From about two objects per node up to "everything fits".
        let shape = (
            Just(nodes),
            Just(objects),
            Just(pad),
            2..objects + 8,
            (any::<bool>(), any::<bool>()),
        );
        let migs = (migs, self_migs, pinned_migs);
        (shape, (adds, fwds, migs), (walks, grows, pins, prios)).prop_map(
            |(shape, (adds, fwds, migs), (walks, grows, pins, prios))| {
                let (nodes, objects, pad, budget_objs, (locality, work_stealing)) = shape;
                let (migs, self_migs, pinned_migs) = migs;
                Plan {
                    nodes,
                    objects,
                    pad,
                    adds,
                    fwds,
                    migs,
                    self_migs,
                    pinned_migs,
                    walks,
                    grows,
                    pins,
                    prios,
                    budget_objs,
                    locality,
                    work_stealing,
                }
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
    let walks: u64 = plan
        .walks
        .iter()
        .map(|&(first, more, rounds, v)| v * plan.walk_stops(first, more, rounds).len() as u64)
        .sum();
    let migs = plan.migs.len() + plan.self_migs.len() + plan.pinned_migs.len();
    adds + fwds + walks + migs as u64
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
    let migs = (plan.migs.iter()).map(|&(o, dest)| (o, dest as u32, false));
    let self_migs = plan.self_migs.iter().map(|&o| (o, STAY, false));
    let pinned_migs = (plan.pinned_migs.iter()).map(|&(o, dest)| (o, dest as u32, true));
    for (o, dest, lock) in migs.chain(self_migs).chain(pinned_migs) {
        let mut w = PayloadWriter::new();
        w.u32(dest).u8(u8::from(lock));
        f(ptrs[o], H_MIG, w.finish());
    }
    for &(first, more, rounds, v) in &plan.walks {
        let stops = plan.walk_stops(first, more, rounds);
        let mut w = PayloadWriter::new();
        w.u64(v).u32(stops.len() as u32 - 1);
        for &o in &stops[1..] {
            w.ptr(ptrs[o]);
        }
        f(ptrs[first], H_WALK, w.finish());
    }
    for &(o, bytes) in &plan.grows {
        let mut w = PayloadWriter::new();
        w.u32(bytes as u32);
        f(ptrs[o], H_GROW, w.finish());
    }
    for &(o, lock) in &plan.pins {
        f(ptrs[o], H_PIN, vec![u8::from(lock)]);
    }
    for &(o, prio) in &plan.prios {
        f(ptrs[o], H_PRIO, vec![prio]);
    }
}

const HANDLERS: [(HandlerId, &str, mrts::object::HandlerFn); 7] = [
    (H_ADD, "add", h_add),
    (H_FWD, "fwd", h_fwd),
    (H_MIG, "mig", h_mig),
    (H_WALK, "walk", h_walk),
    (H_GROW, "grow", h_grow),
    (H_PIN, "pin", h_pin),
    (H_PRIO, "prio", h_prio),
];

/// What one engine run leaves behind: the application sum and every
/// object's packed bytes.
type EndState = (u64, BTreeMap<ObjectId, Vec<u8>>);

fn new_accs(
    plan: &Plan,
    mut create: impl FnMut(NodeId, Box<dyn MobileObject>) -> MobilePtr,
) -> Vec<MobilePtr> {
    (0..plan.objects)
        .map(|i| {
            create(
                (i % plan.nodes) as NodeId,
                Box::new(Acc {
                    sum: 0,
                    pad: vec![0x5A; plan.pad],
                }),
            )
        })
        .collect()
}

fn end_state(visit: impl FnOnce(&mut dyn FnMut(ObjectId, &dyn MobileObject))) -> EndState {
    let mut sum = 0;
    let mut bytes = BTreeMap::new();
    visit(&mut |oid, o| {
        sum += o.as_any().downcast_ref::<Acc>().unwrap().sum;
        bytes.insert(oid, Registry::pack(o));
    });
    (sum, bytes)
}

/// Run the plan on the DES engine under an invariant checker.
fn run_des(plan: &Plan, cfg: MrtsConfig) -> EndState {
    let mut rt = DesRuntime::new(cfg);
    rt.register_type(TAG, Acc::decode);
    for (id, name, f) in HANDLERS {
        rt.register_handler(id, name, f);
    }
    let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
    rt.attach_audit(checker.clone());
    let ptrs = new_accs(plan, |node, obj| rt.create_object(node, obj, 128));
    post_plan(plan, &ptrs, |p, h, payload| rt.post(p, h, payload));
    let _ = rt.run();
    checker.assert_clean();
    end_state(|f| rt.for_each_object(f))
}

static SPILL_CASE: AtomicU64 = AtomicU64::new(0);

/// Run the plan on the threaded engine (real spill files) under an
/// invariant checker and an event log; returns the end state and the
/// elided-unload events.
fn run_threaded(plan: &Plan, mut cfg: MrtsConfig) -> (EndState, Vec<RuntimeEvent>) {
    cfg.spill_dir = Some(std::env::temp_dir().join(format!(
        "mrts-propspill-{}-{}",
        std::process::id(),
        SPILL_CASE.fetch_add(1, Ordering::Relaxed)
    )));
    let spill = cfg.spill_dir.clone().unwrap();
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(TAG, Acc::decode);
    for (id, name, f) in HANDLERS {
        rt.register_handler(id, name, f);
    }
    let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
    let log = Arc::new(EventLog::new());
    rt.attach_audit(Arc::new(FanOut::new(vec![checker.clone(), log.clone()])));
    let ptrs = new_accs(plan, |node, obj| rt.create_object(node, obj, 128));
    post_plan(plan, &ptrs, |p, h, payload| rt.post(p, h, payload));
    let _ = rt.run();
    checker.assert_clean();
    let end = end_state(|f| rt.for_each_object(f));
    let _ = std::fs::remove_dir_all(spill);
    let elisions = log
        .snapshot()
        .into_iter()
        .filter(|e| matches!(e, RuntimeEvent::ElidedUnload { .. }))
        .collect();
    (end, elisions)
}

/// Wall-clock bound on one engine run of one case. Plans are a few dozen
/// sub-millisecond handlers; a run that is still going after this long
/// has wedged (a parked load keeping a node non-idle, a drain loop that
/// never empties), and joining it would hang the suite instead of
/// failing the case.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

/// Run `f` on its own thread; `None` if it has not finished in
/// [`CASE_DEADLINE`] (the stuck thread is abandoned — the failing test
/// ends the process). A runner that panics — an audit violation, a
/// runtime `expect` — is not a wedge: its panic is re-raised here so the
/// case fails with that message, not with "did not terminate".
fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(CASE_DEADLINE) {
        Ok(v) => Some(v),
        Err(RecvTimeoutError::Timeout) => None,
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("runner dropped its sender without sending or panicking"),
        },
    }
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
        let (ooc_sum, ooc_bytes) = run_des(&plan, plan.cfg(Some(budget)));
        let (core_sum, core_bytes) = run_des(&plan, plan.cfg(None));
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
        let budget = (2 * (plan.pad + 64)).max(256);
        let ((sum, _), elisions) = run_threaded(&plan, plan.cfg(Some(budget)));
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

proptest! {
    // Three engine runs per case, one of them with real threads and files.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cross-engine differential: one schedule, three runs — the
    /// virtual-time engine and the threaded engine under the plan's
    /// budget, and an unlimited-budget reference that never touches the
    /// out-of-core layer. All three must terminate inside the deadline
    /// with clean audit streams (asserted inside the runners) and leave
    /// every object byte-identical. Whatever the out-of-core layer decides
    /// — evict, elide, batch, prefetch, cancel — and whichever engine
    /// drives it, the application cannot tell.
    #[test]
    fn engines_agree_byte_for_byte_under_any_budget(plan in plan_strategy()) {
        let budget = plan.budget();
        let (p, cfg) = (plan.clone(), plan.cfg(None));
        let reference = bounded(move || run_des(&p, cfg));
        let (p, cfg) = (plan.clone(), plan.cfg(Some(budget)));
        let des = bounded(move || run_des(&p, cfg));
        let (p, cfg) = (plan.clone(), plan.cfg(Some(budget)));
        let threaded = bounded(move || run_threaded(&p, cfg).0);
        prop_assert!(reference.is_some(), "unlimited-budget run did not terminate");
        prop_assert!(des.is_some(), "DES run did not terminate under budget {}", budget);
        prop_assert!(threaded.is_some(), "threaded run did not terminate under budget {}", budget);
        let (ref_sum, ref_bytes) = reference.unwrap();
        prop_assert_eq!(ref_sum, expected_sum(&plan));
        for (engine, (sum, bytes)) in [("des", des.unwrap()), ("threaded", threaded.unwrap())] {
            prop_assert_eq!(sum, ref_sum, "{} sum diverged", engine);
            prop_assert_eq!(bytes.len(), ref_bytes.len(), "{} object population diverged", engine);
            for (oid, b) in &bytes {
                prop_assert_eq!(
                    b, &ref_bytes[oid],
                    "{}: object {:?} not byte-identical to the unlimited-budget run", engine, oid
                );
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
            budget_objs: 2,
            locality: true,
            ..Plan::default()
        };
        let mut cfg = MrtsConfig::out_of_core(plan.nodes, plan.budget());
        cfg.io_threads = 1;
        let ((sum, _), elisions) = run_threaded(&plan, cfg);
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

/// A runner that panics must fail the case with its own message; only a
/// run that outlives the deadline reads as "did not terminate".
#[test]
#[should_panic(expected = "audit violation in the runner")]
fn bounded_reraises_a_runner_panic_instead_of_reporting_a_hang() {
    let _: Option<()> = bounded(|| panic!("audit violation in the runner"));
}
