//! OUPDR — the out-of-core UPDR port on MRTS (the paper's \[1\]).
//!
//! Each block is a mobile object carrying its *entire region mesh* between
//! phases — these are the large objects that exercise the storage layer.
//! A small coordinator object starts the run and aggregates the final
//! counts; phase progression is dependency-driven. Each block embeds a
//! [`PhaseGate`] over its buffer-zone neighborhood and broadcasts a commit
//! notification when it finishes phase 1; a block enters phase 2 the
//! moment it and every neighbor have committed — no global
//! synchronization, so a slow block delays only its own neighborhood.
//! Phase 3 starts when all neighbor point batches arrived, and
//! `block_phase3` sorts the received points canonically, so the final
//! mesh is byte-identical across schedules and engines.

use crate::common::{
    decode_point_batch, encode_point_batch, fnv1a, fold_digests, get_bbox, get_workload,
    mesh_digest, put_bbox, put_point_batch, put_workload, MethodResult,
};
use crate::domain::Workload;
use crate::updr::{
    block_counts, block_phase1, block_phase3, buffer_batches, decompose, Block, UpdrParams,
};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::config::MrtsConfig;
use mrts::ctx::Ctx;
use mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use mrts::object::{MobileObject, ObjectDecodeError};
use mrts::runtime::{Engine, Runtime};
use mrts::sched::PhaseGate;
use mrts::threaded::ThreadedRuntime;
use pumg_delaunay::mesh::VId;
use pumg_delaunay::TriMesh;
use pumg_geometry::{BBox, Point2};
use std::any::Any;

pub const BLOCK_TAG: TypeTag = TypeTag(0x301);
pub const COORD_TAG: TypeTag = TypeTag(0x302);
pub const H_C_START: HandlerId = HandlerId(0x310);
pub const H_C_DONE3: HandlerId = HandlerId(0x312);
pub const H_B_P1: HandlerId = HandlerId(0x320);
pub const H_B_PTS: HandlerId = HandlerId(0x322);
pub const H_B_COMMIT: HandlerId = HandlerId(0x323);

/// The gated phase count: only the phase-1 commit gates an entry (phase 2).
const GATE_PHASES: usize = 2;

/// A UPDR block as a mobile object: geometry + its (phase-dependent) mesh.
pub struct BlockObj {
    pub idx: u32,
    pub cell: BBox,
    pub region: BBox,
    pub workload: Workload,
    pub coord: MobilePtr,
    /// Pointers and regions of the neighbors (parallel arrays).
    pub neighbor_ptrs: Vec<MobilePtr>,
    pub neighbor_regions: Vec<BBox>,
    pub mesh: Option<TriMesh>,
    /// Phase 1's refinement watermark for `mesh` (see
    /// [`block_phase1`]). In-memory knowledge only: not on the wire, 0
    /// after a reload, and phase 3 then re-examines the whole mesh.
    pub settled: VId,
    /// This block ran phase 2 (shipped its buffer points).
    pub shipped: bool,
    /// Commit notifications heard from the in-neighborhood.
    pub gate: PhaseGate,
    pub expected: u32,
    pub received: Vec<Point2>,
    pub elems: u64,
    pub verts: u64,
}

impl BlockObj {
    fn block(&self) -> Block {
        Block {
            idx: self.idx as usize,
            cell: self.cell,
            region: self.region,
            neighbors: Vec::new(),
        }
    }

    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let idx = r.u32()?;
        let cell = get_bbox(&mut r)?;
        let region = get_bbox(&mut r)?;
        let workload = get_workload(&mut r)?;
        let coord = r.ptr()?;
        let neighbor_ptrs = r.ptrs()?;
        let mut neighbor_regions = Vec::with_capacity(neighbor_ptrs.len());
        for _ in 0..neighbor_ptrs.len() {
            neighbor_regions.push(get_bbox(&mut r)?);
        }
        let mesh = match r.u8()? {
            0 => None,
            _ => Some(
                TriMesh::decode(r.bytes()?)
                    .map_err(|_| ObjectDecodeError::Invalid("TriMesh wire encoding"))?,
            ),
        };
        let shipped = r.u8()? != 0;
        let gate = PhaseGate::decode(&mut r)?;
        let expected = r.u32()?;
        let received = decode_point_batch(r.bytes()?)?;
        let elems = r.u64()?;
        let verts = r.u64()?;
        Ok(Box::new(BlockObj {
            idx,
            cell,
            region,
            workload,
            coord,
            neighbor_ptrs,
            neighbor_regions,
            mesh,
            settled: 0,
            shipped,
            gate,
            expected,
            received,
            elems,
            verts,
        }))
    }
}

impl MobileObject for BlockObj {
    fn type_tag(&self) -> TypeTag {
        BLOCK_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::appending(std::mem::take(buf));
        w.u32(self.idx);
        put_bbox(&mut w, &self.cell);
        put_bbox(&mut w, &self.region);
        put_workload(&mut w, &self.workload);
        w.ptr(self.coord);
        w.ptrs(&self.neighbor_ptrs);
        for b in &self.neighbor_regions {
            put_bbox(&mut w, b);
        }
        match &self.mesh {
            None => {
                w.u8(0);
            }
            Some(m) => {
                w.u8(1).bytes_with(|b| m.encode_into(b));
            }
        }
        w.u8(self.shipped as u8);
        self.gate.encode(&mut w);
        w.u32(self.expected);
        put_point_batch(&mut w, &self.received);
        w.u64(self.elems).u64(self.verts);
        *buf = w.finish();
    }

    /// The mesh is charged by capacity: its arenas are reserved for the
    /// final mesh (see `block_phase1`), and a budget that saw only the
    /// used slots would miss the headroom.
    fn footprint(&self) -> usize {
        256 + self.mesh.as_ref().map_or(0, |m| m.mem_capacity()) + 16 * self.received.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The phase coordinator: start and final count aggregation.
pub struct CoordObj {
    pub block_ptrs: Vec<MobilePtr>,
    pub pending: u32,
    pub phase: u8,
    pub elems: u64,
    pub verts: u64,
}

impl CoordObj {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let block_ptrs = r.ptrs()?;
        let pending = r.u32()?;
        let phase = r.u8()?;
        let elems = r.u64()?;
        let verts = r.u64()?;
        Ok(Box::new(CoordObj {
            block_ptrs,
            pending,
            phase,
            elems,
            verts,
        }))
    }
}

impl MobileObject for CoordObj {
    fn type_tag(&self) -> TypeTag {
        COORD_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.ptrs(&self.block_ptrs);
        w.u32(self.pending)
            .u8(self.phase)
            .u64(self.elems)
            .u64(self.verts);
        buf.extend_from_slice(&w.finish());
    }

    fn footprint(&self) -> usize {
        64 + 8 * self.block_ptrs.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn block_mut(obj: &mut dyn MobileObject) -> &mut BlockObj {
    obj.as_any_mut()
        .downcast_mut::<BlockObj>()
        .expect("BLOCK_TAG object is a BlockObj")
}

fn coord_mut(obj: &mut dyn MobileObject) -> &mut CoordObj {
    obj.as_any_mut()
        .downcast_mut::<CoordObj>()
        .expect("COORD_TAG object is a CoordObj")
}

/// Coordinator: kick off phase 1 on every block. `pending` counts the
/// final reports (DONE3) still outstanding.
fn h_c_start(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    let c = coord_mut(obj);
    c.phase = 1;
    c.pending = c.block_ptrs.len() as u32;
    for &b in &c.block_ptrs {
        ctx.send(b, H_B_P1, Vec::new());
    }
}

/// Coordinator: a block finished phase 3 with its final counts.
fn h_c_done3(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let elems = r.u64().expect("done3 payload holds the element count");
    let verts = r.u64().expect("done3 payload holds the vertex count");
    let c = coord_mut(obj);
    c.elems += elems;
    c.verts += verts;
    c.pending = c.pending.saturating_sub(1);
    if c.pending == 0 {
        c.phase = 4; // done
    }
}

/// Block phase 1: mesh and refine the region, then commit to the
/// in-neighborhood.
fn h_b_p1(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    let b = block_mut(obj);
    let (mesh, settled) = block_phase1(&b.workload, &b.block()).unzip();
    b.mesh = mesh;
    b.settled = settled.unwrap_or(0);
    let mut w = PayloadWriter::new();
    w.u8(1);
    let commit = w.finish();
    for &np in &b.neighbor_ptrs {
        ctx.send(np, H_B_COMMIT, commit.clone());
    }
    // Own commit counts locally; the gate may already be saturated by
    // fast neighbors, in which case phase 2 starts right here.
    if b.gate.on_commit(1) {
        do_phase2(b, ctx);
    }
}

/// Block: a neighbor committed a phase. Entering `phase + 1`
/// requires `|N(b)| + 1` commits of `phase` (the neighbors' plus our own).
fn h_b_commit(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let ph = r.u8().expect("commit payload holds the phase byte") as usize;
    let b = block_mut(obj);
    if b.gate.on_commit(ph) && ph == 1 {
        do_phase2(b, ctx);
    }
}

/// Block phase 2: ship owned buffer-zone points to every neighbor (an
/// empty batch still counts — receivers count arrivals against the known
/// neighbor count; UPDR's communication is fully structured).
fn do_phase2(b: &mut BlockObj, ctx: &mut Ctx) {
    let batches = match &b.mesh {
        Some(m) => buffer_batches(m, &b.cell, &b.neighbor_regions),
        None => vec![Vec::new(); b.neighbor_ptrs.len()],
    };
    for (&np, pts) in b.neighbor_ptrs.iter().zip(&batches) {
        ctx.send(np, H_B_PTS, encode_point_batch(pts));
    }
    b.shipped = true;
    if b.expected == 0 {
        finish_phase3(b, ctx);
    }
}

/// Block: buffer points arrived from one neighbor. A fast neighbor's
/// batch may land before this block entered phase 2 itself;
/// `expected` starts at the full neighbor count so early arrivals are
/// simply counted, and phase 3 additionally waits for `shipped`.
fn h_b_pts(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let b = block_mut(obj);
    let pts = decode_point_batch(payload).expect("point batch from a peer block");
    b.received.extend(pts);
    b.expected = b.expected.saturating_sub(1);
    if b.expected == 0 && b.shipped {
        finish_phase3(b, ctx);
    }
}

/// Phase 3: integrate the exchanged points, restore quality, report.
/// `block_phase3` sorts the received points into a canonical order, so the
/// result is independent of arrival order — and therefore of message
/// timing and work stealing.
fn finish_phase3(b: &mut BlockObj, ctx: &mut Ctx) {
    let block = b.block();
    let mut received = std::mem::take(&mut b.received);
    if let Some(mesh) = b.mesh.as_mut() {
        block_phase3(&b.workload, &block, mesh, b.settled, &mut received);
        let (t, v) = block_counts(mesh, &block, &b.workload.domain.bbox());
        b.elems = t;
        b.verts = v;
    }
    let mut w = PayloadWriter::new();
    w.u64(b.elems).u64(b.verts);
    ctx.send(b.coord, H_C_DONE3, w.finish());
}

/// Register OUPDR's types and handlers (the handlers are
/// engine-agnostic).
pub fn register<E: Engine>(rt: &mut Runtime<E>) {
    rt.register_type(BLOCK_TAG, BlockObj::decode);
    rt.register_type(COORD_TAG, CoordObj::decode);
    rt.register_handler(H_C_START, "updr_start", h_c_start);
    rt.register_handler(H_C_DONE3, "updr_done3", h_c_done3);
    rt.register_handler(H_B_P1, "updr_phase1", h_b_p1);
    rt.register_handler(H_B_PTS, "updr_points", h_b_pts);
    rt.register_handler(H_B_COMMIT, "updr_commit", h_b_commit);
}

/// The decomposition, pointer layout, and initial objects.
struct Layout {
    blocks: Vec<Block>,
    ptrs: Vec<MobilePtr>,
    coord_ptr: MobilePtr,
}

fn layout(params: &UpdrParams, nodes: usize) -> Layout {
    let blocks = decompose(params);
    let n = blocks.len();
    assert!(n > 0, "no blocks intersect the domain");
    let mut counters = vec![0u64; nodes];
    let ptrs: Vec<MobilePtr> = (0..n)
        .map(|i| {
            let node = (i % nodes) as NodeId;
            let seq = counters[i % nodes];
            counters[i % nodes] += 1;
            MobilePtr::new(ObjectId::new(node, seq))
        })
        .collect();
    let coord_ptr = MobilePtr::new(ObjectId::new(0, counters[0]));
    Layout {
        blocks,
        ptrs,
        coord_ptr,
    }
}

fn make_block(params: &UpdrParams, lay: &Layout, b: &Block) -> BlockObj {
    BlockObj {
        idx: b.idx as u32,
        cell: b.cell,
        region: b.region,
        workload: params.workload,
        coord: lay.coord_ptr,
        neighbor_ptrs: b.neighbors.iter().map(|&x| lay.ptrs[x]).collect(),
        neighbor_regions: b.neighbors.iter().map(|&x| lay.blocks[x].region).collect(),
        mesh: None,
        settled: 0,
        shipped: false,
        gate: PhaseGate::new(b.neighbors.len(), GATE_PHASES),
        expected: b.neighbors.len() as u32,
        received: Vec::new(),
        elems: 0,
        verts: 0,
    }
}

fn make_coord(lay: &Layout) -> CoordObj {
    CoordObj {
        block_ptrs: lay.ptrs.clone(),
        pending: 0,
        phase: 0,
        elems: 0,
        verts: 0,
    }
}

/// A block's `(idx, digest)` part of the mesh digest (see
/// [`mesh_digest`]); a block with no mesh hashes as an empty one.
fn block_digest_part(obj: &dyn MobileObject) -> Option<(u32, u64)> {
    let b = obj.as_any().downcast_ref::<BlockObj>()?;
    let digest = b.mesh.as_ref().map_or_else(|| fnv1a(&[]), mesh_digest);
    Some((b.idx, digest))
}

/// Build a runtime with OUPDR registered, `hook` applied (before any
/// object exists: attach sinks, recorders, a schedule seed), the blocks
/// and the locked coordinator created and the start message posted —
/// ready to run. Returns the coordinator's pointer too.
pub fn oupdr_setup<E: Engine>(
    params: &UpdrParams,
    cfg: MrtsConfig,
    hook: impl FnOnce(&mut Runtime<E>),
) -> (Runtime<E>, MobilePtr) {
    let nodes = cfg.nodes;
    let mut rt = Runtime::new(cfg);
    register(&mut rt);
    hook(&mut rt);

    let lay = layout(params, nodes);
    for b in &lay.blocks {
        let node = (b.idx % nodes) as NodeId;
        let created = rt.create_object(node, Box::new(make_block(params, &lay, b)), 128);
        assert_eq!(created, lay.ptrs[b.idx]);
    }
    let created = rt.create_object(0, Box::new(make_coord(&lay)), 255);
    assert_eq!(created, lay.coord_ptr);
    rt.lock_object(lay.coord_ptr);
    rt.post(lay.coord_ptr, H_C_START, Vec::new());
    (rt, lay.coord_ptr)
}

/// Collect `(elements, vertices, phase, digest)` from a finished runtime
/// (the digest folds each block's canonical digest in block order).
pub fn oupdr_collect<E: Engine>(rt: &Runtime<E>) -> (u64, u64, u8, u64) {
    let mut elements = 0u64;
    let mut vertices = 0u64;
    let mut phase = 0u8;
    let mut parts = Vec::new();
    rt.for_each_object(|_, obj| {
        if let Some(c) = obj.as_any().downcast_ref::<CoordObj>() {
            elements = c.elems;
            vertices = c.verts;
            phase = c.phase;
        } else if let Some(p) = block_digest_part(obj) {
            parts.push(p);
        }
    });
    (elements, vertices, phase, fold_digests(&mut parts))
}

/// Run OUPDR on engine `E` (see [`oupdr_setup`] for `hook`); returns the
/// result and the mesh digest.
pub fn oupdr_run_with<E: Engine>(
    params: &UpdrParams,
    cfg: MrtsConfig,
    hook: impl FnOnce(&mut Runtime<E>),
) -> (MethodResult, u64) {
    let (mut rt, _coord) = oupdr_setup(params, cfg, hook);
    let stats = rt.run();
    let (elements, vertices, phase, digest) = oupdr_collect(&rt);
    assert_eq!(phase, 4, "run must complete all phases");
    (
        MethodResult {
            elements,
            vertices,
            stats,
        },
        digest,
    )
}

/// Run OUPDR on engine `E`: [`mrts::des::Des`] (virtual time) or
/// [`mrts::threaded::Threads`] (real OS threads, real spill files when
/// `cfg.spill_dir` is set).
pub fn oupdr_run<E: Engine>(params: &UpdrParams, cfg: MrtsConfig) -> MethodResult {
    oupdr_run_with::<E>(params, cfg, |_| {}).0
}

// The benchmark harness imports these two by name; they go with the next
// benchmark change.
/// [`oupdr_setup`] on the threaded engine, with no hook.
pub fn oupdr_setup_threaded(params: &UpdrParams, cfg: MrtsConfig) -> (ThreadedRuntime, MobilePtr) {
    oupdr_setup(params, cfg, |_| {})
}
/// [`oupdr_collect`] on the threaded engine.
pub fn oupdr_collect_threaded(rt: &ThreadedRuntime) -> (u64, u64, u8, u64) {
    oupdr_collect(rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updr::updr_incore;
    use mrts::des::Des;
    use mrts::threaded::Threads;

    fn params(elements: u64, grid: usize) -> UpdrParams {
        UpdrParams::new(Workload::uniform_square(elements), grid)
    }

    #[test]
    fn block_obj_roundtrip() {
        let p = params(1500, 2);
        let blocks = decompose(&p);
        let (mesh, settled) = block_phase1(&p.workload, &blocks[0]).unzip();
        let mut gate = PhaseGate::new(1, GATE_PHASES);
        gate.on_commit(1);
        let obj = BlockObj {
            idx: 0,
            cell: blocks[0].cell,
            region: blocks[0].region,
            workload: p.workload,
            coord: MobilePtr::new(ObjectId::new(0, 99)),
            neighbor_ptrs: vec![MobilePtr::new(ObjectId::new(1, 1))],
            neighbor_regions: vec![blocks[1].region],
            mesh,
            settled: settled.unwrap_or(0),
            shipped: true,
            gate,
            expected: 2,
            received: vec![Point2::new(0.5, 0.5)],
            elems: 10,
            verts: 7,
        };
        let packed = mrts::object::Registry::pack(&obj);
        let mut reg = mrts::object::Registry::new();
        reg.register_type(BLOCK_TAG, BlockObj::decode);
        let back = reg.unpack(&packed).expect("roundtrip decodes");
        let back = back.as_any().downcast_ref::<BlockObj>().unwrap();
        assert_eq!(back.idx, 0);
        assert_eq!(
            back.mesh.as_ref().unwrap().num_tris(),
            obj.mesh.as_ref().unwrap().num_tris()
        );
        assert_eq!(back.received, obj.received);
        assert_eq!(back.expected, 2);
        assert!(back.shipped);
        assert_eq!(back.gate, obj.gate);
        back.mesh.as_ref().unwrap().validate().unwrap();
    }

    #[test]
    fn oupdr_matches_baseline_count() {
        let p = params(3000, 2);
        let base = updr_incore(&p, 4, 1 << 30).unwrap();
        let port = oupdr_run::<Des>(&p, MrtsConfig::in_core(4));
        assert_eq!(
            port.elements, base.elements,
            "identical kernels and deterministic phases must agree"
        );
    }

    #[test]
    fn oupdr_des_and_threaded_meshes_are_byte_identical() {
        let p = params(3000, 2);
        let (des, des_digest) = oupdr_run_with::<Des>(&p, MrtsConfig::in_core(3), |_| {});
        let (thr, thr_digest) = oupdr_run_with::<Threads>(&p, MrtsConfig::in_core(3), |_| {});
        assert_eq!(des.elements, thr.elements);
        assert_eq!(des.vertices, thr.vertices);
        assert_eq!(
            des_digest, thr_digest,
            "both engines run the same handlers; canonical phase-3 \
             integration makes the mesh engine-independent"
        );
    }

    #[test]
    fn oupdr_work_stealing_preserves_mesh_and_replays() {
        // Fewer blocks than nodes: a 2x2 grid on six nodes leaves nodes
        // 4 and 5 with no objects at all, so they go idle immediately
        // and must fire steal requests. Grants are timing-dependent
        // (the victim may have drained its queue by the time the
        // request lands), so only requests are asserted — the mesh
        // digest proves any steals that did happen were harmless.
        let p = params(2500, 2);
        let cfg = MrtsConfig::in_core(6).with_work_stealing();
        let (_plain, plain_digest) = oupdr_run_with::<Threads>(&p, MrtsConfig::in_core(6), |_| {});

        let (mut rt, _coord) = oupdr_setup::<Threads>(&p, cfg.clone(), |_| {});
        rt.record_decisions();
        let stats = rt.run();
        let (elements, _verts, phase, digest) = oupdr_collect(&rt);
        assert_eq!(phase, 4);
        assert_eq!(digest, plain_digest, "stealing must not change the mesh");
        assert!(
            stats.total_of(|n| n.steal_requests as usize) > 0,
            "object-less nodes must ask for work: {}",
            stats.summary()
        );

        // The recorded schedule — steal decisions included — must replay
        // to the identical mesh without divergence.
        let log = rt.take_decision_log().expect("recording was enabled");
        let (mut rt2, _coord) = oupdr_setup::<Threads>(&p, cfg, |_| {});
        rt2.replay_decisions(log);
        if let Err(e) = rt2.try_run() {
            panic!("the replay left its log: {e}");
        }
        let (elements2, _verts2, phase2, digest2) = oupdr_collect(&rt2);
        assert_eq!(phase2, 4);
        assert_eq!(elements2, elements);
        assert_eq!(
            digest2, digest,
            "the replayed schedule must rebuild the identical mesh"
        );
    }

    #[test]
    fn oupdr_des_work_stealing_out_of_core_preserves_mesh() {
        // Graded 8x8 grid on 8 nodes at a quarter of the in-core peak:
        // elements concentrate toward the origin, so the block-per-node
        // partition is imbalanced, blocks spill between phases and
        // messages queue on evicted objects — the only place DES
        // stealing finds ready work. Deterministic compute makes the
        // schedule, and with it the steal-request count, a pure function
        // of the inputs.
        use crate::domain::{h_for_elements, DomainSpec, SizingSpec};
        let domain = DomainSpec::unit_square();
        let h_min = h_for_elements(domain.area(), 12_000) / 1.6;
        let p = UpdrParams::new(
            Workload {
                domain,
                sizing: SizingSpec::Graded {
                    focus: Point2::new(0.0, 0.0),
                    h_min,
                    h_max: h_min * 4.0,
                    radius: 1.4,
                },
            },
            8,
        );
        let mut in_core = MrtsConfig::in_core(8);
        in_core.deterministic_compute = true;
        let (core, core_digest) = oupdr_run_with::<Des>(&p, in_core, |_| {});
        let budget = (core.stats.peak_mem() / 4).max(60_000);
        let mut steal = MrtsConfig::out_of_core(8, budget).with_work_stealing();
        steal.deterministic_compute = true;
        let (stolen, steal_digest) = oupdr_run_with::<Des>(&p, steal, |_| {});
        assert_eq!(stolen.elements, core.elements);
        assert_eq!(
            steal_digest, core_digest,
            "out-of-core stealing must mesh like the in-core reference"
        );
        assert!(
            stolen.stats.total_of(|n| n.stores) > 0,
            "must spill: {}",
            stolen.stats.summary()
        );
        assert!(
            stolen.stats.total_of(|n| n.steal_requests as usize) > 0,
            "no node starved into stealing: {}",
            stolen.stats.summary()
        );
    }

    #[test]
    fn oupdr_out_of_core_spills_and_matches() {
        let p = params(4000, 3);
        let base = updr_incore(&p, 2, 1 << 30).unwrap();
        let in_core_port = oupdr_run::<Des>(&p, MrtsConfig::in_core(2));
        let budget = (in_core_port.stats.peak_mem() / 3).max(100_000);
        let ooc = oupdr_run::<Des>(&p, MrtsConfig::out_of_core(2, budget));
        assert_eq!(ooc.elements, base.elements);
        assert!(
            ooc.stats.total_of(|n| n.stores) > 0,
            "must spill: {}",
            ooc.stats.summary()
        );
        // The out-of-core run must be slower but not absurdly so.
        assert!(ooc.stats.total >= in_core_port.stats.total);
        // Spill fast-path accounting stays coherent on this method too.
        assert!(
            ooc.stats.total_of(|n| n.evictions_elided) <= ooc.stats.total_of(|n| n.evictions),
            "{}",
            ooc.stats.summary()
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

    #[test]
    fn oupdr_on_pipe_domain() {
        let p = UpdrParams::new(Workload::uniform_pipe(3000), 3);
        let base = updr_incore(&p, 2, 1 << 30).unwrap();
        let port = oupdr_run::<Des>(&p, MrtsConfig::in_core(2));
        assert_eq!(port.elements, base.elements);
    }
}
