//! Unit tests of the virtual clock: the event keys, the per-edge FIFO
//! fabric, and handlers landing from helper threads.

use super::*;
use crate::audit::{mix64, EventLog};
use crate::ctx::Ctx;
use crate::ids::{HandlerId, MobilePtr, ObjectId};
use crate::object::test_objects::{Counter, COUNTER_TAG};
use crate::object::MobileObject;
use crate::within_seconds;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    /// Overrides [`helper_count`] for runs on this thread.
    pub(super) static HELPERS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with `n` helper threads for every run it makes.
fn with_helpers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    HELPERS.with(|h| h.set(Some(n)));
    let out = f();
    HELPERS.with(|h| h.set(None));
    out
}

fn counter(obj: &mut dyn MobileObject) -> &mut Counter {
    obj.as_any_mut().downcast_mut().expect("a counter")
}

fn hops(payload: &[u8]) -> u64 {
    u64::from_le_bytes(payload[..8].try_into().expect("a hop count"))
}

const NODES: usize = 4;
const PER_NODE: u64 = 6;
const H_HOP: HandlerId = HandlerId(61);
const H_FAIL: HandlerId = HandlerId(62);
const H_MARK: HandlerId = HandlerId(63);

/// One hop: count it, grow the object, pass the rest on to a pseudo-random
/// object of node 0's with a payload of one of four sizes, and now and
/// then move the object one node on.
fn h_hop(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let c = counter(obj);
    c.value += 1;
    c.pad.extend_from_slice(&[c.value as u8; 24]);
    let me = ctx.self_ptr().id;
    let h = mix64(u64::from(me.home()) << 40 ^ me.seq() << 20 ^ c.value);
    if let Some(left) = hops(payload).checked_sub(1) {
        let to = ObjectId::new(0, (h >> 8) % PER_NODE);
        let mut next = left.to_le_bytes().to_vec();
        next.resize(8 + (h >> 16) as usize % 4 * 50_000, 0);
        ctx.send(MobilePtr::new(to), H_HOP, next);
    }
    if h.is_multiple_of(13) {
        let dest = (ctx.node() + 1) % NODES as NodeId;
        ctx.migrate(ctx.self_ptr(), dest);
    }
}

fn h_fail(_: &mut dyn MobileObject, _: &mut Ctx, _: &[u8]) {
    panic!("handler failed on purpose");
}

/// What a run leaves that must not depend on the helpers.
struct Outcome {
    total: Duration,
    nodes: Vec<String>,
    /// Per node: its audit events, in order.
    audit: Vec<Vec<String>>,
    /// Every object's packed bytes, by id.
    objects: Vec<(ObjectId, Vec<u8>)>,
}

/// A deterministic-compute run of 4 nodes with migrations, steals,
/// evictions and loads: node 0's objects start with all the work and get
/// most of it, and every hop grows an object under a tight budget.
fn mixed_run(helpers: usize, seed: Option<u64>) -> (Outcome, RunStats) {
    with_helpers(helpers, || {
        let mut cfg = MrtsConfig::out_of_core(NODES, 3_000);
        cfg.deterministic_compute = true;
        cfg.work_stealing = true;
        // Few distinct handler costs on an instant network make events
        // at one instant common: what a landing out of order reorders.
        cfg.net = NetModel::instant();
        let mut rt = DesRuntime::new(cfg);
        let log = Arc::new(EventLog::new());
        rt.attach_audit(log.clone());
        rt.set_schedule_seed(seed);
        rt.register_type(COUNTER_TAG, Counter::decode);
        rt.register_handler(H_HOP, "hop", h_hop);
        for node in 0..NODES as NodeId {
            for _ in 0..PER_NODE {
                rt.create_object(node, Box::new(Counter::new(0, 100)), 128);
            }
        }
        for seq in (0..3 * PER_NODE).map(|k| k % PER_NODE) {
            let p = MobilePtr::new(ObjectId::new(0, seq));
            rt.post(p, H_HOP, 20u64.to_le_bytes().to_vec());
        }
        let stats = rt.run();
        let mut audit = vec![Vec::new(); NODES];
        for ev in log.snapshot() {
            let text = format!("{ev:?}");
            let node = text
                .split("node: ")
                .nth(1)
                .and_then(|t| t.split([',', ' ']).next());
            let node: usize = node
                .and_then(|n| n.parse().ok())
                .expect("every event names its node");
            audit[node].push(text);
        }
        let mut objects = Vec::new();
        rt.for_each_object(|oid, obj| objects.push((oid, Registry::pack(obj))));
        objects.sort_by_key(|&(oid, _)| oid);
        let nodes = stats.nodes.iter().map(|n| format!("{n:?}")).collect();
        let total = stats.total;
        let outcome = Outcome {
            total,
            nodes,
            audit,
            objects,
        };
        (outcome, stats)
    })
}

/// Where two runs first part, for a readable failure.
fn first_difference<T: PartialEq + std::fmt::Debug>(a: &[T], b: &[T]) -> Option<String> {
    let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    Some(format!("at {at}: {:?} vs {:?}", a.get(at), b.get(at)))
}

#[test]
fn helpers_change_no_result() {
    for seed in [None, Some(0x5EED)] {
        // No helper: every handler runs in place.
        let (want, stats) = mixed_run(0, seed);
        for (what, n) in [
            ("migrations", stats.total_of(|n| n.migrations)),
            ("steals", stats.total_of(|n| n.tasks_stolen as usize)),
            ("evictions", stats.total_of(|n| n.evictions)),
            ("loads", stats.total_of(|n| n.loads)),
        ] {
            assert!(n > 0, "the workload makes no {what} (seed {seed:?})");
        }
        for helpers in [1, 3] {
            let (got, _) = mixed_run(helpers, seed);
            let run = format!("{helpers} helpers, seed {seed:?}");
            assert_eq!(got.total, want.total, "{run}: makespan");
            if let Some(d) = first_difference(&got.nodes, &want.nodes) {
                panic!("{run}: node stats differ {d}");
            }
            for (node, (got, want)) in got.audit.iter().zip(&want.audit).enumerate() {
                if let Some(d) = first_difference(got, want) {
                    panic!("{run}: node {node}'s audit events differ {d}");
                }
            }
            assert!(got.objects == want.objects, "{run}: object bytes differ");
        }
    }
}

#[test]
fn fabric_keeps_send_order_and_ties_keep_creation_order() {
    let net = NetModel::cluster();
    let mut w = World::new(3, Duration::ZERO, 1, None);
    // A large frame, then a small one with a shorter transfer, on one edge.
    let large = w.arrival(0, 1, 1 << 20, &net);
    let small = w.arrival(0, 1, 8, &net);
    assert!(small > large, "the small frame overtook the large one");
    w.push(small, 1, Arrival::Wake);
    w.push(large, 2, Arrival::Wake);
    assert_eq!(w.pop().map(|ev| ev.node), Some(2), "the large frame first");
    assert_eq!(w.pop().map(|ev| ev.node), Some(1));
    // Same instant: creation order, across pops too. A push made late
    // under an earlier origin (a landing's) keeps that origin's place.
    let at = Duration::from_secs(1);
    w.push(Duration::ZERO, 0, Arrival::Wake);
    w.push(at, 2, Arrival::Wake);
    let landing = w.origin;
    w.pop();
    w.push(at, 0, Arrival::Wake);
    w.origin = landing;
    w.push(at, 1, Arrival::Wake);
    let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|ev| ev.node)).collect();
    assert_eq!(order, [2, 1, 0]);
}

#[test]
#[should_panic(expected = "handler failed on purpose")]
fn a_panic_on_a_helper_fails_the_run() {
    within_seconds(30, || {
        with_helpers(1, || {
            let mut cfg = MrtsConfig::in_core(2);
            cfg.deterministic_compute = true;
            let mut rt = DesRuntime::new(cfg);
            rt.register_handler(H_HOP, "hop", h_hop);
            rt.register_handler(H_FAIL, "fail", h_fail);
            // Node 0's failing handler is handed off for a long virtual
            // time; node 1's hops keep the main thread busy meanwhile.
            let fails = rt.create_object(0, Box::new(Counter::new(0, 0)), 128);
            rt.post(fails, H_FAIL, vec![0; 1 << 20]);
            let busy = rt.create_object(1, Box::new(Counter::new(0, 0)), 128);
            rt.post(busy, H_HOP, 0u64.to_le_bytes().to_vec());
            rt.run();
        })
    });
}

static MARKED: AtomicBool = AtomicBool::new(false);

/// Hand a mark to object 0 of node 0, which records it.
fn h_mark(_: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    match payload.is_empty() {
        true => MARKED.store(true, Ordering::SeqCst),
        false => ctx.send(MobilePtr::new(ObjectId::new(0, 0)), H_MARK, Vec::new()),
    }
}

#[test]
fn a_stalled_run_still_reports_after_its_handlers_land() {
    let panic = within_seconds(30, || {
        with_helpers(1, || {
            let mut cfg = MrtsConfig::in_core(2);
            cfg.deterministic_compute = true;
            let mut rt = DesRuntime::new(cfg);
            rt.register_handler(H_MARK, "mark", h_mark);
            rt.create_object(0, Box::new(Counter::new(0, 0)), 128);
            let sender = rt.create_object(1, Box::new(Counter::new(0, 0)), 128);
            rt.post(sender, H_MARK, vec![1; 100_000]);
            // A thief that never hears back is never idle: it keeps
            // Safra's token, and every worker ends up waiting on nothing.
            rt.cores[1].awaiting_steal = true;
            catch_unwind(AssertUnwindSafe(|| rt.run())).expect_err("the run stalls")
        })
    });
    let message = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(message.contains("virtual-time run stalled"), "{message}");
    assert!(
        MARKED.load(Ordering::SeqCst),
        "the handed-off handler never landed"
    );
}
