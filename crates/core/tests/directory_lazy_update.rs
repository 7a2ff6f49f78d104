//! Tests for the lazy distributed directory: hint bookkeeping at the
//! [`mrts::directory::Directory`] level, and the paper's lazy-update
//! scheme end to end — a message forwarded along a k-hop tombstone chain
//! must trigger one location-update service message per hop, after which
//! later sends go direct — on both engines.

#![cfg(any(feature = "audit", debug_assertions))]

use mrts::audit::{EventLog, RuntimeEvent};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::directory::Directory;
use mrts::prelude::*;
use std::any::Any;
use std::sync::Arc;

// ----- Directory unit behavior ------------------------------------------

#[test]
fn update_pointing_at_home_keeps_hints_empty() {
    let mut d = Directory::new();
    let oid = ObjectId::new(3, 9);
    // Recording the default location must not grow the hint map.
    d.update(oid, oid.home());
    assert!(d.is_empty());
    assert_eq!(d.lookup(oid), 3);
    assert_eq!(d.updates_applied, 1);
    // A real hint, then a correction back home, leaves the map empty too.
    d.update(oid, 7);
    assert_eq!(d.lookup(oid), 7);
    d.update(oid, oid.home());
    assert!(d.is_empty());
    assert_eq!(d.lookup(oid), 3);
}

/// The directory forgets a hint only by invalidating it (delivery to the
/// hinted node kept failing); a lookup then goes to the home node.
#[test]
fn lookup_after_forget_falls_back_to_home() {
    let mut d = Directory::new();
    let oid = ObjectId::new(2, 41);
    d.update(oid, 6);
    assert_eq!(d.lookup(oid), 6);
    assert!(d.invalidate(oid));
    assert!(d.is_empty());
    assert_eq!(d.lookup(oid), 2);
    // Forgetting an object that was never hinted is a no-op.
    assert!(!d.invalidate(ObjectId::new(0, 0)));
    assert!(d.is_empty());
}

// ----- End-to-end lazy updates over a tombstone chain -------------------

const CELL_TAG: TypeTag = TypeTag(1);
const H_BUMP: HandlerId = HandlerId(1);
const H_MOVE: HandlerId = HandlerId(2);
const H_PING: HandlerId = HandlerId(3);

struct Cell {
    value: u64,
}

impl Cell {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        Ok(Box::new(Cell {
            value: r.u64().unwrap(),
        }))
    }
}

impl MobileObject for Cell {
    fn type_tag(&self) -> TypeTag {
        CELL_TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.u64(self.value);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        64
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_bump(obj: &mut dyn MobileObject, _ctx: &mut Ctx, _payload: &[u8]) {
    obj.as_any_mut().downcast_mut::<Cell>().unwrap().value += 1;
}

fn h_move(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let dest = r.u64().unwrap() as NodeId;
    ctx.migrate(ctx.self_ptr(), dest);
}

/// Relay: send a bump to the pointer in the payload (so the send
/// originates from this object's node, exercising that node's directory).
fn h_ping(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let target = r.ptr().unwrap();
    ctx.send(target, H_BUMP, Vec::new());
}

fn u64_payload(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

/// Forward events for `oid` recorded after `from`, as (node, to) hops.
fn forwards(log: &EventLog, from: usize, oid: ObjectId) -> Vec<(NodeId, NodeId)> {
    log.snapshot()[from..]
        .iter()
        .filter_map(|ev| match *ev {
            RuntimeEvent::Forward { node, oid: o, to } if o == oid => Some((node, to)),
            _ => None,
        })
        .collect()
}

/// Directory updates for `oid` recorded after `from`, as (node, loc).
fn updates(log: &EventLog, from: usize, oid: ObjectId) -> Vec<(NodeId, NodeId)> {
    log.snapshot()[from..]
        .iter()
        .filter_map(|ev| match *ev {
            RuntimeEvent::DirUpdate { node, oid: o, loc } if o == oid => Some((node, loc)),
            _ => None,
        })
        .collect()
}

/// Migrate an object across a 3-hop tombstone chain (0→1→2→3), then send
/// to it from an uninvolved node. The message must be forwarded once per
/// stale hop, and delivery must push one lazy update back to *every* node
/// the message passed through; a second send then goes direct.
#[test]
fn k_hop_chain_generates_one_update_per_hop() {
    let log = Arc::new(EventLog::new());
    let mut rt = DesRuntime::new(MrtsConfig::in_core(5));
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_MOVE, "move", h_move);
    rt.register_handler(H_PING, "ping", h_ping);
    rt.attach_audit(log.clone());

    let x = rt.create_object(0, Box::new(Cell { value: 0 }), 128);
    let relay = rt.create_object(4, Box::new(Cell { value: 0 }), 128);

    // Walk x across nodes 0→1→2→3, one settled leg at a time, leaving a
    // Moved tombstone at each departure point.
    for dest in 1..=3u64 {
        rt.post(x, H_MOVE, u64_payload(dest));
        rt.run();
    }

    // Probe from node 4 (no tombstone, no hint): the send chases the
    // chain home→1→2→3.
    let mark = log.len();
    let ping = {
        let mut w = PayloadWriter::new();
        w.ptr(x);
        w.finish()
    };
    rt.post(relay, H_PING, ping.clone());
    rt.run();

    let hops = forwards(&log, mark, x.id);
    assert_eq!(
        hops,
        vec![(4, 0), (0, 1), (1, 2), (2, 3)],
        "expected the probe to traverse the full tombstone chain"
    );
    // Lazy updates: exactly one service message per hop of the route,
    // each teaching that node the object's true location.
    let mut upd = updates(&log, mark, x.id);
    upd.sort_unstable();
    assert_eq!(
        upd,
        vec![(0, 3), (1, 3), (2, 3), (4, 3)],
        "every node on the route must learn the final location"
    );

    // Second probe: node 4 now knows the location, so the send goes
    // direct — a single forward, no chain walk.
    let mark = log.len();
    rt.post(relay, H_PING, ping);
    rt.run();
    let hops = forwards(&log, mark, x.id);
    assert_eq!(hops, vec![(4, 3)], "lazy update should have converged");

    // Both pings landed.
    assert_eq!(
        rt.with_object(x, |o| o.as_any().downcast_ref::<Cell>().unwrap().value),
        2
    );
}

// ----- The same scheme on the threaded engine ---------------------------

const H_MOVE_THEN_TELL: HandlerId = HandlerId(4);
const H_RELAY: HandlerId = HandlerId(5);
const H_MARK: HandlerId = HandlerId(6);

fn ptr_and_count(ptr: MobilePtr, n: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.ptr(ptr).u64(n);
    w.finish()
}

/// Migrate self to the payload's node, then start the payload's relay on
/// its probes (the migration is applied first, so it has left this node
/// before the relay hears of it).
fn h_move_then_tell(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let (dest, relay) = (r.u64().unwrap() as NodeId, r.ptr().unwrap());
    ctx.migrate(ctx.self_ptr(), dest);
    ctx.send(relay, H_RELAY, ptr_and_count(ctx.self_ptr(), 2));
}

/// Probe the target once per remaining count, each probe sent only after
/// the previous one was answered.
fn h_relay(_obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let (target, left) = (r.ptr().unwrap(), r.u64().unwrap());
    if left > 0 {
        ctx.send(target, H_MARK, ptr_and_count(ctx.self_ptr(), left - 1));
    }
}

/// Append the probe's source node to the cell as a base-16 digit
/// (`node + 1`), then answer the relay. The lazy updates of this delivery
/// leave before the answer does, on the same FIFO edge.
fn h_mark(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let cell = obj.as_any_mut().downcast_mut::<Cell>().unwrap();
    cell.value = cell.value * 16 + ctx.src_node() as u64 + 1;
    let mut r = PayloadReader::new(payload);
    let (relay, left) = (r.ptr().unwrap(), r.u64().unwrap());
    ctx.send(relay, H_RELAY, ptr_and_count(ctx.self_ptr(), left));
}

/// `x`, homed on node 1, migrates to node 2; a relay on node 0 then
/// probes it twice, the second probe after the first was answered.
/// Returns x's id, the run's statistics, the audit log and x's final
/// value (one base-16 digit per probe: source node + 1).
fn threaded_two_probes_after_a_migration() -> (ObjectId, RunStats, Arc<EventLog>, u64) {
    let log = Arc::new(EventLog::new());
    let mut rt = ThreadedRuntime::new(MrtsConfig::in_core(3));
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_MOVE_THEN_TELL, "move-then-tell", h_move_then_tell);
    rt.register_handler(H_RELAY, "relay", h_relay);
    rt.register_handler(H_MARK, "mark", h_mark);
    rt.attach_audit(log.clone());
    let relay = rt.create_object(0, Box::new(Cell { value: 0 }), 128);
    let x = rt.create_object(1, Box::new(Cell { value: 0 }), 128);
    let mut w = PayloadWriter::new();
    w.u64(2).ptr(relay);
    rt.post(x, H_MOVE_THEN_TELL, w.finish());
    let stats = rt.run();
    let value = rt.with_object(x, |o| o.as_any().downcast_ref::<Cell>().unwrap().value);
    (x.id, stats, log, value)
}

/// The sender of a remote message joins its route, so the delivery's lazy
/// update reaches it: the first probe walks 0 → 1 (home, now a
/// tombstone) → 2, the second goes 0 → 2 and node 1 forwards nothing
/// more.
#[test]
fn threaded_second_send_goes_direct_after_one_lazy_update() {
    let (x, stats, log, _) = threaded_two_probes_after_a_migration();
    assert_eq!(forwards(&log, 0, x), vec![(0, 1), (1, 2), (0, 2)]);
    // Node 1 put two messages on the fabric for objects it does not hold:
    // x's own message to the relay, and the first probe. The second
    // probe never reaches it.
    assert_eq!(
        stats.nodes[1].msgs_forwarded, 2,
        "the stale home was asked again"
    );
    let learned = updates(&log, 0, x);
    assert!(
        learned.contains(&(0, 2)),
        "the sender never learned the location: {learned:?}"
    );
}

/// `Ctx::src_node` names the node the message was sent from, not the
/// last hop that forwarded it and not the receiver.
#[test]
fn threaded_src_node_is_the_sender_across_forwarding() {
    let (_, stats, _, value) = threaded_two_probes_after_a_migration();
    assert_eq!(value, 0x11, "both probes came from node 0");
    assert_eq!(stats.nodes[2].msgs_remote, 2);
    assert_eq!(stats.nodes[2].msgs_local, 0);
}

// ----- Property: hint bookkeeping matches a reference model -------------

use proptest::prelude::*;
use std::collections::HashMap;

/// One directory mutation, as seen during concurrent object movement:
/// lazy updates racing with failure-driven self-healing (`Invalidate`).
#[derive(Clone, Debug)]
enum Op {
    Update(usize, NodeId),
    Invalidate(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted by selector range: half the ops are lazy updates.
    (0u8..8, 0usize..8, 0usize..6).prop_map(|(sel, i, n)| match sel {
        0..=3 => Op::Update(i, n as NodeId),
        _ => Op::Invalidate(i),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of updates and invalidations over a small
    /// object pool: `lookup` always agrees with a reference model — in
    /// particular it never returns an invalidated hint, falling back to
    /// `oid.home()` — and the self-healing counter tracks exactly the
    /// hints that were actually dropped.
    #[test]
    fn hints_match_reference_model(ops in prop::collection::vec(arb_op(), 0..64)) {
        let oids: Vec<ObjectId> =
            (0..8u64).map(|i| ObjectId::new((i % 3) as NodeId, i)).collect();
        let mut d = Directory::new();
        let mut model: HashMap<ObjectId, NodeId> = HashMap::new();
        let mut invalidated = 0usize;
        let mut updates = 0usize;
        for op in &ops {
            match *op {
                Op::Update(i, n) => {
                    d.update(oids[i], n);
                    updates += 1;
                    if n == oids[i].home() {
                        model.remove(&oids[i]);
                    } else {
                        model.insert(oids[i], n);
                    }
                }
                Op::Invalidate(i) => {
                    let had = model.remove(&oids[i]).is_some();
                    prop_assert_eq!(d.invalidate(oids[i]), had);
                    invalidated += had as usize;
                }
            }
            for &oid in &oids {
                prop_assert_eq!(
                    d.lookup(oid),
                    model.get(&oid).copied().unwrap_or_else(|| oid.home())
                );
            }
        }
        prop_assert_eq!(d.len(), model.len());
        prop_assert_eq!(d.updates_applied, updates);
        prop_assert_eq!(d.hints_invalidated, invalidated);
    }
}

/// A message posted directly to a migrated object's current owner (the
/// runtime resolves tombstones) generates no forwards and no updates.
#[test]
fn resolved_posts_do_not_touch_the_directory() {
    let log = Arc::new(EventLog::new());
    let mut rt = DesRuntime::new(MrtsConfig::in_core(3));
    rt.register_type(CELL_TAG, Cell::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_MOVE, "move", h_move);
    rt.attach_audit(log.clone());

    let x = rt.create_object(0, Box::new(Cell { value: 0 }), 128);
    rt.post(x, H_MOVE, u64_payload(2));
    rt.run();

    let mark = log.len();
    rt.post(x, H_BUMP, Vec::new());
    rt.run();
    assert!(forwards(&log, mark, x.id).is_empty());
    assert!(updates(&log, mark, x.id).is_empty());
    assert_eq!(
        rt.with_object(x, |o| o.as_any().downcast_ref::<Cell>().unwrap().value),
        1
    );
}
