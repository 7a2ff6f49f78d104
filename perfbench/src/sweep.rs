//! The benchmark's own read-mostly application.
//!
//! A population of [`PatchObj`] mobile objects — each a `TriMesh` encoded
//! with `pumg_delaunay::wire` — is swept in row-major order by a few
//! concurrent fronts. A front is a token message: the patch that holds it
//! runs one visit, tells the patch one grid row below that the front
//! passed (so `locality` learns both grid directions), and forwards the
//! token to its row-major successor. Seven visits of eight only read the
//! mesh (`query`: a quality histogram and point locations); the eighth
//! inserts a few points (`refine`). The same `storage`/`ooc` layers as
//! `updr_ooc` are therefore used the other way round: loads far exceed
//! the stores that carry new bytes.
//!
//! The final meshes do not depend on the schedule: which points a visit
//! inserts is a function of the patch's own stream and its visit ordinal,
//! and a Delaunay triangulation of points in general position is unique.
//! That is what lets an unlimited-budget twin verify the out-of-core run
//! by digest.

use crate::catalog::SWEEP_REFINE_EVERY;
use crate::inputs::{Rng, SweepInput};
use crate::trace;
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::ctx::Ctx;
use mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use mrts::object::{MobileObject, ObjectDecodeError};
use mrts::threaded::ThreadedRuntime;
use pumg_delaunay::insert::InsertOutcome;
use pumg_delaunay::locate::Location;
use pumg_delaunay::refine::{refine, RefineParams};
use pumg_delaunay::{MeshBuilder, TriMesh, VFlags};
use pumg_geometry::TriangleQuality;
use pumg_methods::common::fnv1a;
use std::any::Any;

pub const PATCH_TAG: TypeTag = TypeTag(0x7b01);
pub const H_VISIT: HandlerId = HandlerId(0x7b10);
pub const H_PASSED: HandlerId = HandlerId(0x7b11);

/// Buckets of the quality histogram: squared circumradius-to-shortest-edge
/// ratio, split at these bounds (ρ² = 1/3 is equilateral, 2 is the
/// refiner's limit).
const RATIO_SQ_BOUNDS: [f64; 7] = [0.4, 0.5, 0.65, 0.8, 1.0, 1.4, 2.0];

/// One mesh patch as a mobile object.
pub struct PatchObj {
    pub idx: u32,
    /// Row-major successor (wraps around).
    next: MobilePtr,
    /// The patch one grid row below, if any.
    below: Option<MobilePtr>,
    pub mesh: TriMesh,
    /// Stream seed of this patch's query and refine points.
    stream: u64,
    query_points: u32,
    refine_points: u32,
    pub queries: u32,
    pub refines: u32,
    /// Fronts seen passing in the row above.
    pub passed: u32,
    /// Accumulated over all `query` visits; part of the digest, so a twin
    /// must have read the same meshes to agree.
    pub histogram: [u64; 8],
    pub located: u64,
}

impl PatchObj {
    fn visits(&self) -> u32 {
        self.queries + self.refines
    }

    fn query(&mut self) {
        let _span = trace::span("sweep.query");
        for t in self.mesh.tri_ids() {
            let [a, b, c] = self.mesh.tri_points(t);
            let r = TriangleQuality::of(a, b, c).ratio_sq;
            let bucket = RATIO_SQ_BOUNDS.iter().take_while(|&&hi| r > hi).count();
            self.histogram[bucket] += 1;
        }
        let mut rng = Rng::from_state(self.stream ^ u64::from(self.visits()).wrapping_mul(0x9e37));
        for _ in 0..self.query_points {
            let p = rng.interior_point(0.02);
            if matches!(
                self.mesh.locate(p),
                Location::Inside(_) | Location::OnEdge(_) | Location::OnVertex(..)
            ) {
                self.located += 1;
            }
        }
        self.queries += 1;
    }

    fn refine(&mut self) {
        let _span = trace::span("sweep.refine");
        insert_points(
            &mut self.mesh,
            self.stream,
            self.refines,
            self.refine_points,
        );
        self.refines += 1;
    }

    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let idx = r.u32()?;
        let next = r.ptr()?;
        let below = match r.u8()? {
            0 => None,
            _ => Some(r.ptr()?),
        };
        let mesh = TriMesh::decode(r.bytes()?)
            .map_err(|_| ObjectDecodeError::Invalid("TriMesh wire encoding"))?;
        let stream = r.u64()?;
        let query_points = r.u32()?;
        let refine_points = r.u32()?;
        let queries = r.u32()?;
        let refines = r.u32()?;
        let passed = r.u32()?;
        let mut histogram = [0u64; 8];
        for h in &mut histogram {
            *h = r.u64()?;
        }
        let located = r.u64()?;
        Ok(Box::new(PatchObj {
            idx,
            next,
            below,
            mesh,
            stream,
            query_points,
            refine_points,
            queries,
            refines,
            passed,
            histogram,
            located,
        }))
    }
}

/// Insert the `ordinal`-th batch of `n` points of `stream` into `mesh`.
fn insert_points(mesh: &mut TriMesh, stream: u64, ordinal: u32, n: u32) {
    let mut rng =
        Rng::from_state(stream.rotate_left(29) ^ u64::from(ordinal).wrapping_mul(0x51_7cc1));
    for _ in 0..n {
        let p = rng.interior_point(0.02);
        let outcome = mesh.insert_point(p, VFlags(VFlags::STEINER));
        debug_assert!(!matches!(outcome, InsertOutcome::Outside));
    }
}

impl MobileObject for PatchObj {
    fn type_tag(&self) -> TypeTag {
        PATCH_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::with_capacity(self.mesh.mem_footprint());
        w.u32(self.idx).ptr(self.next);
        match self.below {
            None => {
                w.u8(0);
            }
            Some(p) => {
                w.u8(1).ptr(p);
            }
        }
        w.bytes(&self.mesh.encode())
            .u64(self.stream)
            .u32(self.query_points)
            .u32(self.refine_points)
            .u32(self.queries)
            .u32(self.refines)
            .u32(self.passed);
        for h in &self.histogram {
            w.u64(*h);
        }
        w.u64(self.located);
        buf.extend_from_slice(&w.finish());
    }

    fn footprint(&self) -> usize {
        256 + self.mesh.mem_footprint()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn patch_mut(obj: &mut dyn MobileObject) -> &mut PatchObj {
    obj.as_any_mut()
        .downcast_mut::<PatchObj>()
        .expect("sweep handlers are only registered for PatchObj")
}

/// A front arrives: run one visit and pass the token on. The payload is
/// the number of visits the front still has to make, this one included.
fn h_visit(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let p = patch_mut(obj);
    let remaining = PayloadReader::new(payload)
        .u32()
        .expect("front token carries its remaining visit count");
    // Staggered by index so every sweep refines one patch in eight rather
    // than every patch on the same sweep.
    if (p.visits() + p.idx) % SWEEP_REFINE_EVERY == SWEEP_REFINE_EVERY - 1 {
        p.refine();
    } else {
        p.query();
    }
    if let Some(below) = p.below {
        ctx.send(below, H_PASSED, Vec::new());
    }
    if remaining > 1 {
        let mut w = PayloadWriter::new();
        w.u32(remaining - 1);
        ctx.send(p.next, H_VISIT, w.finish());
    }
}

fn h_passed(obj: &mut dyn MobileObject, _ctx: &mut Ctx, _payload: &[u8]) {
    patch_mut(obj).passed += 1;
}

/// The population before any visit: base meshes refined at the input's
/// sizing, cloned per patch and personalised with one batch of points.
pub fn build_population(input: &SweepInput) -> Vec<TriMesh> {
    let bases: Vec<TriMesh> = input
        .base_h
        .iter()
        .map(|&h| {
            let mut mesh = MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0)
                .build()
                .expect("the unit square is a valid PSLG");
            refine(&mut mesh, &RefineParams::with_uniform_size(h));
            mesh
        })
        .collect();
    input
        .patch_seeds
        .iter()
        .enumerate()
        .map(|(i, &stream)| {
            let mut mesh = bases[i % bases.len()].clone();
            insert_points(&mut mesh, stream, u32::MAX, input.refine_points);
            mesh
        })
        .collect()
}

/// Build a threaded runtime with the population created round-robin over
/// the nodes and the fronts posted — ready to run. `sweeps` overrides the
/// input's sweep count (the warm-up pass runs fewer).
pub fn setup(
    input: &SweepInput,
    population: Vec<TriMesh>,
    sweeps: u32,
    cfg: mrts::config::MrtsConfig,
) -> ThreadedRuntime {
    let nodes = cfg.nodes;
    let n = population.len();
    assert_eq!(n, input.grid * input.grid);
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(PATCH_TAG, PatchObj::decode);
    rt.register_handler(H_VISIT, "sweep_visit", h_visit);
    rt.register_handler(H_PASSED, "sweep_passed", h_passed);

    // Patch i is the (i / nodes)-th object created on node i % nodes.
    let ptr_of =
        |i: usize| MobilePtr::new(ObjectId::new((i % nodes) as NodeId, (i / nodes) as u64));
    for (i, mesh) in population.into_iter().enumerate() {
        let created = rt.create_object(
            (i % nodes) as NodeId,
            Box::new(PatchObj {
                idx: i as u32,
                next: ptr_of((i + 1) % n),
                below: (i + input.grid < n).then(|| ptr_of(i + input.grid)),
                mesh,
                stream: input.patch_seeds[i],
                query_points: input.query_points,
                refine_points: input.refine_points,
                queries: 0,
                refines: 0,
                passed: 0,
                histogram: [0; 8],
                located: 0,
            }),
            128,
        );
        assert_eq!(created, ptr_of(i));
    }
    // Fronts start evenly spaced and each makes its share of the visits.
    let fronts = input.fronts.max(1) as usize;
    let visits_per_front = (sweeps as usize * n / fronts) as u32;
    for f in 0..fronts {
        let mut w = PayloadWriter::new();
        w.u32(visits_per_front);
        rt.post(ptr_of(f * n / fronts), H_VISIT, w.finish());
    }
    rt
}

/// What a finished sweep produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    pub elements: u64,
    pub queries: u64,
    pub refines: u64,
    pub passed: u64,
    pub digest: u64,
}

/// Canonical digest of one mesh: every triangle as its vertex coordinates,
/// sorted within the triangle and across triangles (arena numbering
/// changes when a patch is spilled and reloaded; the geometry does not).
fn mesh_digest(m: &TriMesh) -> u64 {
    let mut records: Vec<[u64; 6]> = m
        .tri_ids()
        .map(|t| {
            let mut pts = m.tri_points(t).map(|p| (p.x.to_bits(), p.y.to_bits()));
            pts.sort_unstable();
            [pts[0].0, pts[0].1, pts[1].0, pts[1].1, pts[2].0, pts[2].1]
        })
        .collect();
    records.sort_unstable();
    let mut bytes = Vec::with_capacity(records.len() * 48);
    for r in &records {
        for w in r {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

pub fn collect(rt: &ThreadedRuntime) -> SweepOutcome {
    let mut parts: Vec<(u32, u64)> = Vec::new();
    let mut out = SweepOutcome::default();
    rt.for_each_object(|_, obj| {
        let p = obj
            .as_any()
            .downcast_ref::<PatchObj>()
            .expect("the sweep only creates PatchObj objects");
        out.elements += p.mesh.num_tris() as u64;
        out.queries += u64::from(p.queries);
        out.refines += u64::from(p.refines);
        out.passed += u64::from(p.passed);
        let mut w = PayloadWriter::new();
        w.u64(mesh_digest(&p.mesh)).u64(p.located);
        for h in &p.histogram {
            w.u64(*h);
        }
        parts.push((p.idx, fnv1a(&w.finish())));
    });
    parts.sort_unstable();
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for (idx, d) in parts {
        acc = fnv1a(&idx.to_le_bytes()) ^ acc.rotate_left(13) ^ d;
    }
    out.digest = acc;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WorkloadId;
    use crate::inputs::{generate, Input};
    use mrts::config::MrtsConfig;

    fn small_input() -> SweepInput {
        let Input::Sweep(mut s) = generate(WorkloadId::SweepReadmostly, 5, 64) else {
            unreachable!()
        };
        s.grid = 4;
        s.patch_seeds.truncate(16);
        s
    }

    #[test]
    fn patch_round_trips_through_its_encoding() {
        let input = small_input();
        let mut pop = build_population(&input);
        let mut p = PatchObj {
            idx: 3,
            next: MobilePtr::new(ObjectId::new(1, 2)),
            below: Some(MobilePtr::new(ObjectId::new(0, 9))),
            mesh: pop.remove(3),
            stream: 77,
            query_points: 5,
            refine_points: 2,
            queries: 0,
            refines: 0,
            passed: 4,
            histogram: [0; 8],
            located: 0,
        };
        p.query();
        p.refine();
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let back = PatchObj::decode(&buf).unwrap();
        let back = back.as_any().downcast_ref::<PatchObj>().unwrap();
        assert_eq!((back.idx, back.next, back.below), (p.idx, p.next, p.below));
        assert_eq!((back.queries, back.refines, back.passed), (1, 1, 4));
        assert_eq!(back.histogram, p.histogram);
        assert_eq!(back.located, p.located);
        assert_eq!(mesh_digest(&back.mesh), mesh_digest(&p.mesh));
        back.mesh.validate().unwrap();
        assert!(PatchObj::decode(&buf[..buf.len() / 2]).is_err());
    }

    #[test]
    fn out_of_core_sweep_matches_its_in_core_twin_and_is_read_mostly() {
        let input = small_input();
        let run = |cfg: MrtsConfig| {
            let mut rt = setup(&input, build_population(&input), 8, cfg);
            let stats = rt.run();
            (collect(&rt), stats)
        };
        let (twin, _) = run(MrtsConfig::in_core(2));
        let footprint: usize = build_population(&input)
            .iter()
            .map(|m| 256 + m.mem_footprint())
            .sum();
        let (ooc, stats) = run(MrtsConfig::out_of_core(2, footprint / 2 / 4));
        assert_eq!(ooc, twin);
        assert!(stats.total_of(|n| n.loads) > 0 && stats.total_of(|n| n.stores) > 0);
        assert_eq!(ooc.queries + ooc.refines, 8 * 16);
        assert_eq!(ooc.queries, 7 * ooc.refines);
    }
}
