//! ONUPDR — the out-of-core NUPDR port on MRTS (paper, Section III).
//!
//! Every quadtree leaf becomes a mobile object holding its portion of the
//! mesh (its owned point set); the **refinement queue** is itself a mobile
//! object (holding the quadtree geometry) that is *locked in memory* — the
//! first of the paper's optimizations. The message protocol follows the
//! paper:
//!
//! * `update` (to the queue): a leaf finished; re-queue the leaves that
//!   now contain poor-quality triangles; dispatch more leaves to refine.
//! * `construct buffer` (to a leaf): prepare to collect the buffer; the
//!   leaf asks its buffer leaves to contribute.
//! * `add to buffer`: a buffer leaf's mesh portion arrives; when the
//!   counter reaches zero the leaf refines (the `refine` step is invoked
//!   directly instead of via a message — another paper optimization).
//!
//! Togglable optimizations from the paper ([`OnupdrOpts`]): direct handler
//! calls for in-core objects, locking buffer leaves during collection,
//! and priority hints for dispatched leaves.

use crate::common::{
    decode_point_batch, encode_point_batch, get_bbox, get_workload, put_bbox, put_point_batch,
    put_workload, MethodResult,
};
use crate::domain::Workload;
use crate::nupdr::{build_leaves, leaf_task, LeafInfo, NupdrParams};
use mrts::codec::Truncated;
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::config::MrtsConfig;
use mrts::ctx::Ctx;
use mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use mrts::object::{MobileObject, ObjectDecodeError};
use mrts::runtime::{Engine, Runtime};
use mrts::sched::ConflictSet;
use mrts::threaded::ThreadedRuntime;
use pumg_geometry::{BBox, Point2};
use std::any::Any;
use std::collections::VecDeque;

pub const LEAF_TAG: TypeTag = TypeTag(0x201);
pub const QUEUE_TAG: TypeTag = TypeTag(0x202);
pub const H_Q_KICK: HandlerId = HandlerId(0x210);
pub const H_Q_UPDATE: HandlerId = HandlerId(0x211);
pub const H_L_CONSTRUCT: HandlerId = HandlerId(0x212);
pub const H_L_CONTRIBUTE: HandlerId = HandlerId(0x213);
pub const H_L_ADDPTS: HandlerId = HandlerId(0x214);

/// The paper's ONUPDR optimizations, togglable for ablation.
#[derive(Clone, Copy, Debug)]
pub struct OnupdrOpts {
    /// Deliver local in-core messages by direct handler invocation.
    pub direct_calls: bool,
    /// Lock buffer leaves in memory while their contribution is pending.
    pub lock_buffers: bool,
    /// Raise the swapping priority of dispatched leaves and their buffers.
    pub priorities: bool,
    /// Maximum concurrently dispatched leaves — the dispatch window, which
    /// slides along the queue's order; the [`ConflictSet`] still keeps
    /// adjacent leaves apart inside it. 0 = `nodes × (1 + mean |BUF|)`.
    pub max_active: u32,
    /// Child tasks per leaf refinement (1 = sequential handler; 4 splits
    /// the leaf into quadrants refined by the computing layer in parallel
    /// — the configuration of the paper's Table VII).
    pub intra_tasks: u8,
}

impl Default for OnupdrOpts {
    fn default() -> Self {
        OnupdrOpts {
            direct_calls: true,
            lock_buffers: true,
            priorities: true,
            max_active: 0,
            intra_tasks: 1,
        }
    }
}

impl OnupdrOpts {
    /// All paper optimizations off (the "unoptimized" ablation arm).
    pub fn unoptimized() -> Self {
        OnupdrOpts {
            direct_calls: false,
            lock_buffers: false,
            priorities: false,
            max_active: 0,
            intra_tasks: 1,
        }
    }

    fn encode(&self, w: &mut PayloadWriter) {
        w.u8(self.direct_calls as u8)
            .u8(self.lock_buffers as u8)
            .u8(self.priorities as u8)
            .u32(self.max_active)
            .u8(self.intra_tasks);
    }

    fn decode(r: &mut PayloadReader) -> Result<Self, Truncated> {
        Ok(OnupdrOpts {
            direct_calls: r.u8()? != 0,
            lock_buffers: r.u8()? != 0,
            priorities: r.u8()? != 0,
            max_active: r.u32()?,
            intra_tasks: r.u8()?,
        })
    }
}

// ----- leaf object ------------------------------------------------------------

/// A quadtree leaf's portion of the mesh: its owned point set.
pub struct LeafObj {
    pub idx: u32,
    pub bbox: BBox,
    pub region: BBox,
    pub workload: Workload,
    pub opts: OnupdrOpts,
    pub points: Vec<Point2>,
    pub buffer_ptrs: Vec<MobilePtr>,
    pub queue_ptr: MobilePtr,
    pub elems: u64,
    pub verts: u64,
    // Collection state.
    expected: u32,
    collected: Vec<Point2>,
}

impl LeafObj {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let idx = r.u32()?;
        let bbox = get_bbox(&mut r)?;
        let region = get_bbox(&mut r)?;
        let workload = get_workload(&mut r)?;
        let opts = OnupdrOpts::decode(&mut r)?;
        let points = decode_point_batch(r.bytes()?)?;
        let buffer_ptrs = r.ptrs()?;
        let queue_ptr = r.ptr()?;
        let elems = r.u64()?;
        let verts = r.u64()?;
        let expected = r.u32()?;
        let collected = decode_point_batch(r.bytes()?)?;
        Ok(Box::new(LeafObj {
            idx,
            bbox,
            region,
            workload,
            opts,
            points,
            buffer_ptrs,
            queue_ptr,
            elems,
            verts,
            expected,
            collected,
        }))
    }
}

impl MobileObject for LeafObj {
    fn type_tag(&self) -> TypeTag {
        LEAF_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::appending(std::mem::take(buf));
        w.u32(self.idx);
        put_bbox(&mut w, &self.bbox);
        put_bbox(&mut w, &self.region);
        put_workload(&mut w, &self.workload);
        self.opts.encode(&mut w);
        put_point_batch(&mut w, &self.points);
        w.ptrs(&self.buffer_ptrs);
        w.ptr(self.queue_ptr);
        w.u64(self.elems).u64(self.verts);
        w.u32(self.expected);
        put_point_batch(&mut w, &self.collected);
        *buf = w.finish();
    }

    fn footprint(&self) -> usize {
        // Points dominate; the constant approximates the mesh fragment the
        // points stand for (each point materializes ~2 triangles when the
        // leaf is active).
        96 + 72 * (self.points.len() + self.collected.len()) + 8 * self.buffer_ptrs.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ----- queue object ------------------------------------------------------------

/// The refinement queue: quadtree geometry + scheduling state.
pub struct QueueObj {
    pub workload: Workload,
    pub opts: OnupdrOpts,
    pub leaf_ptrs: Vec<MobilePtr>,
    pub bboxes: Vec<BBox>,
    pub buffers: Vec<Vec<u32>>,
    pub queue: VecDeque<u32>,
    pub in_queue: Vec<bool>,
    /// Consecutive barren (no-growth) runs per leaf; leaves past the cap
    /// are not re-queued for bad-circumcenter reports (see nupdr.rs).
    pub stale: Vec<u32>,
    /// Leaves currently part of an in-flight refinement (the leaf itself
    /// or a member of its buffer). The paper removes a dispatched leaf
    /// *and its buffer* from the queue: two adjacent leaves must never
    /// refine concurrently, or each computes from a stale view of the
    /// other and the exchange never settles. This is the
    /// [`ConflictSet`] exclusion rule from `mrts::sched`.
    pub busy: ConflictSet,
    pub active: u32,
    pub dispatched_tasks: u64,
}

/// Barren-run cap shared with the in-core baseline.
const STALE_CAP: u32 = 3;

impl QueueObj {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let workload = get_workload(&mut r)?;
        let opts = OnupdrOpts::decode(&mut r)?;
        let leaf_ptrs = r.ptrs()?;
        let n = leaf_ptrs.len();
        let mut bboxes = Vec::with_capacity(n);
        for _ in 0..n {
            bboxes.push(get_bbox(&mut r)?);
        }
        let mut buffers = Vec::with_capacity(n);
        for _ in 0..n {
            let k = r.u32()? as usize;
            let mut b = Vec::with_capacity(k);
            for _ in 0..k {
                b.push(r.u32()?);
            }
            buffers.push(b);
        }
        let qn = r.u32()? as usize;
        let mut queue = VecDeque::with_capacity(qn);
        for _ in 0..qn {
            queue.push_back(r.u32()?);
        }
        let mut in_queue = Vec::with_capacity(n);
        for _ in 0..n {
            in_queue.push(r.u8()? != 0);
        }
        let mut stale = Vec::with_capacity(n);
        for _ in 0..n {
            stale.push(r.u32()?);
        }
        let mut busy = Vec::with_capacity(n);
        for _ in 0..n {
            busy.push(r.u8()? != 0);
        }
        let active = r.u32()?;
        let dispatched_tasks = r.u64()?;
        Ok(Box::new(QueueObj {
            workload,
            opts,
            leaf_ptrs,
            bboxes,
            buffers,
            queue,
            in_queue,
            stale,
            busy: ConflictSet::from_flags(busy),
            active,
            dispatched_tasks,
        }))
    }

    fn leaf_owning(&self, p: Point2) -> Option<u32> {
        // The bboxes partition the domain box; linear scan is fine at the
        // leaf counts we run (the paper's quadtree lives here too, in the
        // queue object).
        self.bboxes
            .iter()
            .position(|b| b.contains(p))
            .map(|i| i as u32)
    }

    fn enqueue(&mut self, idx: u32) {
        if !self.in_queue[idx as usize] {
            self.in_queue[idx as usize] = true;
            self.queue.push_back(idx);
        }
    }

    /// The exclusion footprint of a leaf: its whole buffer zone.
    fn footprint_of(&self, idx: u32) -> Vec<usize> {
        self.buffers[idx as usize]
            .iter()
            .map(|&b| b as usize)
            .collect()
    }

    /// Is this leaf free of conflicts with in-flight refinements?
    fn dispatchable(&self, idx: u32) -> bool {
        self.busy.can_run(idx as usize, &self.footprint_of(idx))
    }

    /// Dispatch leaves while the dispatch window has room (the master loop
    /// of the NUPDR algorithm, restructured as message handling). A dispatched
    /// leaf and its whole buffer are marked busy — the paper's "buffer
    /// zone BUF of the leaf is also removed from the queue".
    fn dispatch(&mut self, ctx: &mut Ctx) {
        while self.active < self.opts.max_active {
            // Find the first queued leaf without conflicts.
            let Some(pos) = (0..self.queue.len()).find(|&i| self.dispatchable(self.queue[i]))
            else {
                break;
            };
            let idx = self
                .queue
                .remove(pos)
                .expect("position was found in the queue");
            self.in_queue[idx as usize] = false;
            let acquired = self.busy.acquire(idx as usize, &self.footprint_of(idx));
            debug_assert!(acquired, "dispatchable() vetted the footprint");
            self.active += 1;
            self.dispatched_tasks += 1;
            let leaf = self.leaf_ptrs[idx as usize];
            if self.opts.priorities {
                // Keep the dispatched leaf (and, less so, its buffer)
                // in-core until the construct message lands.
                ctx.set_priority(leaf, 230);
                for &b in &self.buffers[idx as usize] {
                    ctx.set_priority(self.leaf_ptrs[b as usize], 200);
                }
            }
            ctx.send(leaf, H_L_CONSTRUCT, Vec::new());
        }
    }
}

impl MobileObject for QueueObj {
    fn type_tag(&self) -> TypeTag {
        QUEUE_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::appending(std::mem::take(buf));
        put_workload(&mut w, &self.workload);
        self.opts.encode(&mut w);
        w.ptrs(&self.leaf_ptrs);
        for b in &self.bboxes {
            put_bbox(&mut w, b);
        }
        for b in &self.buffers {
            w.u32(b.len() as u32);
            for &x in b {
                w.u32(x);
            }
        }
        w.u32(self.queue.len() as u32);
        for &x in &self.queue {
            w.u32(x);
        }
        for &x in &self.in_queue {
            w.u8(x as u8);
        }
        for &x in &self.stale {
            w.u32(x);
        }
        for &x in self.busy.flags() {
            w.u8(x as u8);
        }
        w.u32(self.active);
        w.u64(self.dispatched_tasks);
        *buf = w.finish();
    }

    fn footprint(&self) -> usize {
        64 + self.leaf_ptrs.len() * 64
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// ----- handlers -----------------------------------------------------------------

fn leaf_mut(obj: &mut dyn MobileObject) -> &mut LeafObj {
    obj.as_any_mut()
        .downcast_mut::<LeafObj>()
        .expect("LEAF_TAG object is a LeafObj")
}

fn queue_mut(obj: &mut dyn MobileObject) -> &mut QueueObj {
    obj.as_any_mut()
        .downcast_mut::<QueueObj>()
        .expect("QUEUE_TAG object is a QueueObj")
}

/// `kick`: enqueue everything and start dispatching.
fn h_q_kick(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    let q = queue_mut(obj);
    for i in 0..q.leaf_ptrs.len() as u32 {
        q.enqueue(i);
    }
    q.dispatch(ctx);
}

/// `update`: a leaf finished; requeue affected leaves, dispatch more.
fn h_q_update(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let _finished = r.u32().expect("update payload holds the leaf index");
    let grew = r.u8().expect("update payload holds the growth flag") != 0;
    let affected_pts = decode_point_batch(r.bytes().expect("update payload holds affected points"))
        .expect("point batch from a leaf");
    let bad_ccs = decode_point_batch(r.bytes().expect("update payload holds bad circumcenters"))
        .expect("point batch from a leaf");
    let q = queue_mut(obj);
    q.active = q.active.saturating_sub(1);
    // Release the finished leaf and its buffer.
    let fp = q.footprint_of(_finished);
    q.busy.release(_finished as usize, &fp);
    if grew {
        q.stale[_finished as usize] = 0;
    } else {
        q.stale[_finished as usize] += 1;
    }
    if grew {
        // New points near a buffer leaf's box re-queue that leaf.
        let finished = _finished as usize;
        let buffers = q.buffers[finished].clone();
        for b in buffers {
            let hit = affected_pts.iter().any(|&p| {
                crate::nupdr::dist_to_bbox(p, &q.bboxes[b as usize])
                    <= 2.0 * q.workload.sizing.size_at(p)
            });
            if hit {
                q.enqueue(b);
            }
        }
    }
    for cc in bad_ccs {
        if let Some(owner) = q.leaf_owning(cc) {
            if q.stale[owner as usize] < STALE_CAP {
                q.enqueue(owner);
            }
        }
    }
    q.dispatch(ctx);
}

/// `construct buffer` (at the target leaf): begin collecting the buffer.
fn h_l_construct(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    let l = leaf_mut(obj);
    l.expected = l.buffer_ptrs.len() as u32;
    l.collected.clear();
    if l.expected == 0 {
        do_refine(l, ctx);
        return;
    }
    let me = ctx.self_ptr();
    let mut w = PayloadWriter::new();
    w.ptr(me);
    let req = w.finish();
    let bufs = l.buffer_ptrs.clone();
    let (lock, direct) = (l.opts.lock_buffers, l.opts.direct_calls);
    for b in bufs {
        if lock {
            ctx.lock(b);
        }
        if direct {
            ctx.send_immediate(b, H_L_CONTRIBUTE, req.clone());
        } else {
            ctx.send(b, H_L_CONTRIBUTE, req.clone());
        }
    }
}

/// `construct buffer` (at a buffer leaf): ship my portion to the target.
fn h_l_contribute(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let target = r.ptr().expect("contribute payload holds the target ptr");
    let l = leaf_mut(obj);
    let batch = encode_point_batch(&l.points);
    if l.opts.direct_calls {
        ctx.send_immediate(target, H_L_ADDPTS, batch);
    } else {
        ctx.send(target, H_L_ADDPTS, batch);
    }
}

/// `add to buffer`: a buffer portion arrived; refine when complete.
fn h_l_addpts(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let l = leaf_mut(obj);
    let pts = decode_point_batch(payload).expect("point batch from a buffer leaf");
    l.collected.extend(pts);
    l.expected = l.expected.saturating_sub(1);
    if l.expected == 0 {
        do_refine(l, ctx);
    }
}

/// The worker step, invoked directly when the buffer is complete (the
/// paper's "call the refine handler directly" optimization).
fn do_refine(l: &mut LeafObj, ctx: &mut Ctx) {
    let out = if l.opts.intra_tasks > 1 {
        refine_parallel(l, ctx)
    } else {
        let info = LeafInfo {
            idx: l.idx as usize,
            qnode: 0,
            bbox: l.bbox,
            region: l.region,
            buffer: Vec::new(),
        };
        let input = l.points.iter().chain(l.collected.iter()).copied();
        leaf_task(&l.workload, &info, input)
    };
    let (grew, new_points, bad_ccs) = match out {
        None => (false, Vec::new(), Vec::new()),
        Some(out) => {
            let new_points: Vec<Point2> = out
                .owned_points
                .iter()
                .copied()
                .filter(|p| !l.points.contains(p))
                .collect();
            l.points = out.owned_points;
            l.elems = out.owned_tris;
            l.verts = out.owned_verts;
            (!new_points.is_empty(), new_points, out.bad_ccs)
        }
    };
    l.collected = Vec::new();
    if l.opts.lock_buffers {
        for &b in &l.buffer_ptrs {
            ctx.unlock(b);
        }
    }
    let mut w = PayloadWriter::new();
    w.u32(l.idx)
        .u8(grew as u8)
        .bytes(&encode_point_batch(&new_points))
        .bytes(&encode_point_batch(&bad_ccs));
    ctx.send(l.queue_ptr, H_Q_UPDATE, w.finish());
}

/// Refine the leaf with child tasks on the computing layer: the leaf is
/// split into quadrants, each refined as an independent task (the paper's
/// intra-handler task parallelism for Table VII); quadrant results merge
/// into one leaf result.
fn refine_parallel(l: &LeafObj, ctx: &mut Ctx) -> Option<crate::nupdr::LeafTaskOutput> {
    use std::sync::{Arc, Mutex};
    let quads = split_bbox(&l.bbox, l.opts.intra_tasks as usize);
    let results: Arc<Mutex<Vec<Option<crate::nupdr::LeafTaskOutput>>>> =
        Arc::new(Mutex::new(Vec::new()));
    results
        .lock()
        .expect("no task panicked holding the results lock")
        .resize_with(quads.len(), || None);
    let mut tasks: Vec<mrts::compute::Task> = Vec::with_capacity(quads.len());
    for (qi, q) in quads.iter().enumerate() {
        let results = results.clone();
        let workload = l.workload;
        let q = *q;
        let region = l.region;
        // Each quadrant task sees the points near its own box.
        let margin = 4.0 * workload.sizing.min_size();
        let grown = q.inflated(margin * 8.0);
        let pts: Vec<Point2> = l
            .points
            .iter()
            .chain(l.collected.iter())
            .copied()
            .filter(|p| grown.contains(*p))
            .collect();
        tasks.push(Box::new(move || {
            let sub_region = BBox::new(
                Point2::new(
                    (q.min.x - margin * 4.0).max(region.min.x),
                    (q.min.y - margin * 4.0).max(region.min.y),
                ),
                Point2::new(
                    (q.max.x + margin * 4.0).min(region.max.x),
                    (q.max.y + margin * 4.0).min(region.max.y),
                ),
            );
            let info = LeafInfo {
                idx: 0,
                qnode: 0,
                bbox: q,
                region: sub_region,
                buffer: Vec::new(),
            };
            let out = leaf_task(&workload, &info, pts.into_iter());
            results.lock().expect("no task panicked holding the lock")[qi] = out;
        }));
    }
    ctx.run_tasks(tasks);
    // Merge quadrant results.
    let results = Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("all quadrant tasks joined before the merge"))
        .into_inner()
        .expect("no task panicked holding the results lock");
    let mut merged: Option<crate::nupdr::LeafTaskOutput> = None;
    for out in results {
        let Some(out) = out else { continue };
        let m = merged.get_or_insert_with(Default::default);
        m.owned_points.extend(out.owned_points);
        m.owned_tris += out.owned_tris;
        m.owned_verts += out.owned_verts;
        m.bad_ccs.extend(out.bad_ccs);
        m.mesh_footprint += out.mesh_footprint;
    }
    merged
}

/// Split a box into k sub-boxes (k = 4 gives quadrants; otherwise vertical
/// strips).
fn split_bbox(b: &BBox, k: usize) -> Vec<BBox> {
    if k == 4 {
        let c = b.center();
        return vec![
            BBox::new(b.min, c),
            BBox::new(Point2::new(c.x, b.min.y), Point2::new(b.max.x, c.y)),
            BBox::new(Point2::new(b.min.x, c.y), Point2::new(c.x, b.max.y)),
            BBox::new(c, b.max),
        ];
    }
    (0..k)
        .map(|i| {
            BBox::new(
                Point2::new(b.min.x + b.width() * i as f64 / k as f64, b.min.y),
                Point2::new(b.min.x + b.width() * (i + 1) as f64 / k as f64, b.max.y),
            )
        })
        .collect()
}

// ----- runner --------------------------------------------------------------------

/// The default dispatch window: `nodes × (1 + mean |BUF|)` leaves in
/// flight. A dispatched leaf runs on its home node, not on a free worker,
/// and its buffer collection (`construct → contribute ×|BUF| → addpts
/// ×|BUF|`) waits behind refinements running elsewhere; a window of one
/// leaf per node leaves the nodes idle for much of the run. This window
/// covers each node's leaf plus a buffer's worth of collections; wider
/// ones only lock more leaf ∪ buffer sets (measured on 2 nodes: see
/// DESIGN.md, "ONUPDR dispatch window").
fn dispatch_window(nodes: usize, leaves: &[LeafInfo]) -> u32 {
    let buffered: usize = leaves.iter().map(|l| l.buffer.len()).sum();
    let mean_buffer = buffered as f64 / leaves.len() as f64;
    ((nodes as f64 * (1.0 + mean_buffer)).round() as u32).max(1)
}

/// One object to create: `(node, object, priority)` and the pointer its
/// creation must return.
type Placed = (NodeId, Box<dyn MobileObject>, u8, MobilePtr);

/// ONUPDR's objects in creation order — leaf i on node i % nodes, then the
/// queue object on node 0 — and the queue's pointer. `opts.max_active ==
/// 0` takes the [`dispatch_window`].
fn initial_objects(
    params: &NupdrParams,
    nodes: usize,
    mut opts: OnupdrOpts,
) -> (Vec<Placed>, MobilePtr) {
    let (_tree, leaves) = build_leaves(params);
    let n = leaves.len();
    assert!(n > 0, "no leaves intersect the domain");
    if opts.max_active == 0 {
        opts.max_active = dispatch_window(nodes, &leaves);
    }
    let mut counters = vec![0u64; nodes];
    let leaf_ptrs: Vec<MobilePtr> = (0..n)
        .map(|i| {
            let seq = counters[i % nodes];
            counters[i % nodes] += 1;
            MobilePtr::new(ObjectId::new((i % nodes) as NodeId, seq))
        })
        .collect();
    let queue_ptr = MobilePtr::new(ObjectId::new(0, counters[0]));
    let mut objects: Vec<Placed> = leaves
        .iter()
        .map(|leaf| {
            let obj = LeafObj {
                idx: leaf.idx as u32,
                bbox: leaf.bbox,
                region: leaf.region,
                workload: params.workload,
                opts,
                points: Vec::new(),
                buffer_ptrs: leaf.buffer.iter().map(|&b| leaf_ptrs[b]).collect(),
                queue_ptr,
                elems: 0,
                verts: 0,
                expected: 0,
                collected: Vec::new(),
            };
            let node = (leaf.idx % nodes) as NodeId;
            (
                node,
                Box::new(obj) as Box<dyn MobileObject>,
                128,
                leaf_ptrs[leaf.idx],
            )
        })
        .collect();
    let queue = QueueObj {
        workload: params.workload,
        opts,
        bboxes: leaves.iter().map(|l| l.bbox).collect(),
        buffers: leaves
            .iter()
            .map(|l| l.buffer.iter().map(|&b| b as u32).collect())
            .collect(),
        leaf_ptrs,
        queue: VecDeque::new(),
        in_queue: vec![false; n],
        stale: vec![0; n],
        busy: ConflictSet::new(n),
        active: 0,
        dispatched_tasks: 0,
    };
    objects.push((0, Box::new(queue), 255, queue_ptr));
    (objects, queue_ptr)
}

/// Register ONUPDR's types and handlers (the handlers are
/// engine-agnostic).
pub fn register<E: Engine>(rt: &mut Runtime<E>) {
    rt.register_type(LEAF_TAG, LeafObj::decode);
    rt.register_type(QUEUE_TAG, QueueObj::decode);
    rt.register_handler(H_Q_KICK, "nupdr_kick", h_q_kick);
    rt.register_handler(H_Q_UPDATE, "nupdr_update", h_q_update);
    rt.register_handler(H_L_CONSTRUCT, "nupdr_construct", h_l_construct);
    rt.register_handler(H_L_CONTRIBUTE, "nupdr_contribute", h_l_contribute);
    rt.register_handler(H_L_ADDPTS, "nupdr_addpts", h_l_addpts);
}

/// Build a runtime with ONUPDR registered, objects created, the queue
/// locked in memory, and the kick posted — ready to run.
pub fn onupdr_setup<E: Engine>(
    params: &NupdrParams,
    cfg: MrtsConfig,
    opts: OnupdrOpts,
) -> Runtime<E> {
    let (objects, queue_ptr) = initial_objects(params, cfg.nodes, opts);
    let mut rt = Runtime::new(cfg);
    register(&mut rt);
    for (node, obj, priority, ptr) in objects {
        assert_eq!(rt.create_object(node, obj, priority), ptr);
    }
    // The queue object is small, receives and sends many messages: locked
    // in memory (paper optimization #1).
    rt.lock_object(queue_ptr);
    rt.post(queue_ptr, H_Q_KICK, Vec::new());
    rt
}

// The benchmark harness imports this by name; it goes with the next
// benchmark change.
/// [`onupdr_setup`] on the threaded engine.
pub fn onupdr_setup_threaded(
    params: &NupdrParams,
    cfg: MrtsConfig,
    opts: OnupdrOpts,
) -> ThreadedRuntime {
    onupdr_setup(params, cfg, opts)
}

/// Run ONUPDR on engine `E`: [`mrts::des::Des`] (virtual time) or
/// [`mrts::threaded::Threads`] (real OS threads).
pub fn onupdr_run<E: Engine>(
    params: &NupdrParams,
    cfg: MrtsConfig,
    opts: OnupdrOpts,
) -> MethodResult {
    let mut rt = onupdr_setup::<E>(params, cfg, opts);
    let stats = rt.run();
    let mut elements = 0u64;
    let mut vertices = 0u64;
    rt.for_each_object(|_, obj| {
        if let Some(l) = obj.as_any().downcast_ref::<LeafObj>() {
            elements += l.elems;
            vertices += l.verts;
        }
    });
    MethodResult {
        elements,
        vertices,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::SizingSpec;
    use crate::nupdr::nupdr_incore;
    use mrts::des::Des;
    use mrts::threaded::Threads;

    fn graded_square(elements: u64) -> NupdrParams {
        let domain = crate::domain::DomainSpec::unit_square();
        let h_avg = crate::domain::h_for_elements(domain.area(), elements);
        let h_min = h_avg / 1.6;
        NupdrParams::new(Workload {
            domain,
            sizing: SizingSpec::Graded {
                focus: Point2::new(0.0, 0.0),
                h_min,
                h_max: h_min * 4.0,
                radius: 1.4,
            },
        })
    }

    #[test]
    fn leaf_obj_roundtrip() {
        let obj = LeafObj {
            idx: 3,
            bbox: BBox::new(Point2::new(0.0, 0.0), Point2::new(0.5, 0.5)),
            region: BBox::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)),
            workload: Workload::uniform_square(1000),
            opts: OnupdrOpts::default(),
            points: vec![Point2::new(0.25, 0.25)],
            buffer_ptrs: vec![MobilePtr::new(ObjectId::new(1, 2))],
            queue_ptr: MobilePtr::new(ObjectId::new(0, 9)),
            elems: 42,
            verts: 30,
            expected: 1,
            collected: vec![Point2::new(0.6, 0.6)],
        };
        let packed = mrts::object::Registry::pack(&obj);
        let mut reg = mrts::object::Registry::new();
        reg.register_type(LEAF_TAG, LeafObj::decode);
        let back = reg.unpack(&packed).expect("roundtrip decodes");
        let back = back.as_any().downcast_ref::<LeafObj>().unwrap();
        assert_eq!(back.idx, 3);
        assert_eq!(back.points, obj.points);
        assert_eq!(back.elems, 42);
        assert_eq!(back.expected, 1);
        assert_eq!(back.collected, obj.collected);
    }

    #[test]
    fn onupdr_matches_baseline_shape() {
        let p = graded_square(3000);
        let base = nupdr_incore(&p, 2, 1 << 30).unwrap();
        let port = onupdr_run::<Des>(&p, MrtsConfig::in_core(2), OnupdrOpts::default());
        // Same kernels but different scheduling order: counts agree
        // approximately.
        let ratio = port.elements as f64 / base.elements as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "port {} vs baseline {}",
            port.elements,
            base.elements
        );
    }

    #[test]
    fn onupdr_threaded_matches_des_shape() {
        // ONUPDR refinement order is schedule-dependent, so exact
        // byte-identity across engines is not guaranteed (unlike OUPDR's
        // canonical phase-3 integration); counts must agree closely.
        let p = graded_square(3000);
        let des = onupdr_run::<Des>(&p, MrtsConfig::in_core(2), OnupdrOpts::default());
        let thr = onupdr_run::<Threads>(&p, MrtsConfig::in_core(2), OnupdrOpts::default());
        let ratio = thr.elements as f64 / des.elements as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "threaded {} vs DES {}",
            thr.elements,
            des.elements
        );
    }

    #[test]
    fn onupdr_out_of_core_spills() {
        let p = graded_square(4000);
        let in_core = onupdr_run::<Des>(&p, MrtsConfig::in_core(2), OnupdrOpts::default());
        let budget = (in_core.stats.peak_mem() / 4).max(50_000);
        let ooc = onupdr_run::<Des>(
            &p,
            MrtsConfig::out_of_core(2, budget),
            OnupdrOpts::default(),
        );
        assert!(
            ooc.stats.total_of(|n| n.stores) > 0,
            "must spill: {}",
            ooc.stats.summary()
        );
        let ratio = ooc.elements as f64 / in_core.elements as f64;
        assert!((0.8..1.25).contains(&ratio));
        // Spill fast-path accounting stays coherent on this method too.
        assert!(
            ooc.stats.total_of(|n| n.evictions_elided) <= ooc.stats.total_of(|n| n.evictions),
            "{}",
            ooc.stats.summary()
        );
        assert_eq!(
            ooc.stats.bytes_write_avoided() > 0,
            ooc.stats.total_of(|n| n.evictions_elided) > 0
        );
        // No fault plan configured: the reliable-delivery layer must stay
        // entirely quiescent (see DESIGN.md §11).
        for (name, v) in [
            (
                "messages_dropped",
                ooc.stats.total_of(|n| n.messages_dropped),
            ),
            ("retransmits", ooc.stats.total_of(|n| n.retransmits)),
            ("dup_suppressed", ooc.stats.total_of(|n| n.dup_suppressed)),
            (
                "hints_invalidated",
                ooc.stats.total_of(|n| n.hints_invalidated),
            ),
            ("acks_sent", ooc.stats.total_of(|n| n.acks_sent)),
        ] {
            assert_eq!(v, 0, "fault-free run charged net counter {name} = {v}");
        }
    }

    /// The dispatch window locks up to `nodes × (1 + mean |BUF|)` leaf ∪
    /// buffer sets at once. At the smallest budget the benchmark gives
    /// ONUPDR — a 64 KB floor plus 7 B per element — every threaded run
    /// must still finish; a run that stops making progress fails here
    /// instead of hanging the suite.
    #[test]
    fn onupdr_threaded_finishes_at_tiny_budgets() {
        const RUNS: usize = 20;
        const ELEMENTS: u64 = 5_000;
        let mut p = graded_square(ELEMENTS);
        if let SizingSpec::Graded { h_min, h_max, .. } = &mut p.workload.sizing {
            // The benchmark's grading: finer focus, more leaves.
            *h_min *= 1.6 / 2.5;
            *h_max = *h_min * 4.0;
        }
        let budget = (64 << 10) + 7 * ELEMENTS as usize;
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose when the watchdog fires: a wedged run
        // cannot be joined, and the failing test ends the process.
        std::thread::spawn(move || {
            for _ in 0..RUNS {
                let r = onupdr_run::<Threads>(
                    &p,
                    MrtsConfig::out_of_core(2, budget),
                    OnupdrOpts::default(),
                );
                if tx.send(r).is_err() {
                    return;
                }
            }
        });
        for run in 0..RUNS {
            let r = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("run {run} of {RUNS} made no progress in 60 s"));
            assert!(
                r.elements > ELEMENTS / 2 && r.stats.total_of(|n| n.stores) > 0,
                "run {run}: {} elements, {}",
                r.elements,
                r.stats.summary()
            );
        }
    }

    #[test]
    fn onupdr_unoptimized_variant_works() {
        let p = graded_square(2500);
        let r = onupdr_run::<Des>(&p, MrtsConfig::in_core(2), OnupdrOpts::unoptimized());
        assert!(r.elements > 500);
    }
}
