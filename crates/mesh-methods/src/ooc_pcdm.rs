//! OPCDM — the out-of-core PCDM port on MRTS (the paper's \[2\]).
//!
//! PCDM maps directly onto the mobile-object programming model: every
//! subdomain is a mobile object holding its constrained mesh; a `refine`
//! message refines it and fires aggregated asynchronous `splits` messages
//! at the neighbor objects; a neighbor that actually inserted new interface
//! points posts `refine` to itself. Global termination is the runtime's
//! quiescence detection — no coordinator exists, matching the method's
//! fully unstructured communication.

use crate::common::{
    decode_point_batch, encode_point_batch, get_bbox, get_workload, put_bbox, put_workload,
    MethodResult,
};
use crate::domain::Workload;
use crate::pcdm::{build_subdomains, PcdmParams, Subdomain, SIDES};
use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::config::MrtsConfig;
use mrts::ctx::Ctx;
use mrts::ids::{HandlerId, MobilePtr, NodeId, ObjectId, TypeTag};
use mrts::object::{MobileObject, ObjectDecodeError};
use mrts::runtime::{Engine, Runtime};
use pumg_delaunay::mesh::VFlags;
use pumg_delaunay::TriMesh;
use std::any::Any;
use std::collections::HashSet;

pub const SUB_TAG: TypeTag = TypeTag(0x101);
pub const H_REFINE: HandlerId = HandlerId(0x110);
pub const H_SPLITS: HandlerId = HandlerId(0x111);

/// A subdomain as a mobile object.
pub struct SubObj {
    pub sd: Subdomain,
    pub workload: Workload,
    pub neighbor_ptrs: [Option<MobilePtr>; SIDES],
}

impl SubObj {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let workload = get_workload(&mut r)?;
        let idx = r.u64()? as usize;
        let cell = get_bbox(&mut r)?;
        let mesh = TriMesh::decode(r.bytes()?)
            .map_err(|_| ObjectDecodeError::Invalid("TriMesh wire encoding"))?;
        let n_known = r.u32()? as usize;
        let mut known = HashSet::with_capacity(n_known);
        for _ in 0..n_known {
            let a = r.u64()?;
            let b = r.u64()?;
            known.insert((a, b));
        }
        let mut neighbors = [None; SIDES];
        let mut neighbor_ptrs = [None; SIDES];
        for s in 0..SIDES {
            if r.u8()? == 1 {
                neighbors[s] = Some(r.u64()? as usize);
                neighbor_ptrs[s] = Some(r.ptr()?);
            }
        }
        Ok(Box::new(SubObj {
            sd: Subdomain::from_parts(idx, cell, mesh, known, neighbors),
            workload,
            neighbor_ptrs,
        }))
    }
}

impl MobileObject for SubObj {
    fn type_tag(&self) -> TypeTag {
        SUB_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::appending(std::mem::take(buf));
        put_workload(&mut w, &self.workload);
        w.u64(self.sd.idx as u64);
        put_bbox(&mut w, &self.sd.cell);
        w.bytes_with(|b| self.sd.mesh.encode_into(b));
        w.u32(self.sd.known.len() as u32);
        let mut known: Vec<_> = self.sd.known.iter().copied().collect();
        known.sort_unstable();
        for (a, b) in known {
            w.u64(a).u64(b);
        }
        for s in 0..SIDES {
            match (self.sd.neighbors[s], self.neighbor_ptrs[s]) {
                (Some(n), Some(p)) => {
                    w.u8(1).u64(n as u64).ptr(p);
                }
                _ => {
                    w.u8(0);
                }
            }
        }
        *buf = w.finish();
    }

    fn footprint(&self) -> usize {
        self.sd.mesh.mem_footprint() + self.sd.known.len() * 24 + 128
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn sub_mut(obj: &mut dyn MobileObject) -> &mut SubObj {
    obj.as_any_mut()
        .downcast_mut::<SubObj>()
        .expect("SUB_TAG object is a SubObj")
}

/// `refine`: refine the subdomain and fire aggregated split messages.
fn h_refine(obj: &mut dyn MobileObject, ctx: &mut Ctx, _payload: &[u8]) {
    let so = sub_mut(obj);
    let wl = so.workload;
    let splits = so.sd.refine_step(&wl);
    for (side, pts) in splits.into_iter().enumerate() {
        if pts.is_empty() {
            continue;
        }
        if let Some(np) = so.neighbor_ptrs[side] {
            ctx.send(np, H_SPLITS, encode_point_batch(&pts));
        }
    }
}

/// `splits`: integrate interface points from a neighbor; if anything was
/// new, schedule a local refinement.
fn h_splits(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let so = sub_mut(obj);
    let pts = decode_point_batch(payload).expect("point batch from a neighbor subdomain");
    let inserted = so.sd.insert_splits(&pts);
    if inserted > 0 {
        ctx.send(ctx.self_ptr(), H_REFINE, Vec::new());
    }
}

/// Register OPCDM's types and handlers (the handlers are
/// engine-agnostic).
pub fn register<E: Engine>(rt: &mut Runtime<E>) {
    rt.register_type(SUB_TAG, SubObj::decode);
    rt.register_handler(H_REFINE, "pcdm_refine", h_refine);
    rt.register_handler(H_SPLITS, "pcdm_splits", h_splits);
}

/// The pointers of `n` subdomains over `nodes` nodes: subdomain `i` is
/// the `(i / nodes)`-th object created on node `i % nodes`.
pub fn subdomain_ptrs(n: usize, nodes: usize) -> Vec<MobilePtr> {
    let ptr = |i: usize| MobilePtr::new(ObjectId::new((i % nodes) as NodeId, (i / nodes) as u64));
    (0..n).map(ptr).collect()
}

/// Create every subdomain object, subdomain `i` on node `i % nodes` as
/// that node's next object, and return their pointers in subdomain order
/// (no refinement posted yet).
pub fn create_subdomains<E: Engine>(rt: &mut Runtime<E>, params: &PcdmParams) -> Vec<MobilePtr> {
    let nodes = rt.config().nodes;
    let subs = build_subdomains(params);
    assert!(!subs.is_empty(), "no subdomains intersect the domain");
    let ptrs = subdomain_ptrs(subs.len(), nodes);
    for sd in subs {
        let i = sd.idx;
        let node = (i % nodes) as NodeId;
        let mut neighbor_ptrs = [None; SIDES];
        for (np, nb) in neighbor_ptrs.iter_mut().zip(&sd.neighbors) {
            *np = nb.map(|nb| ptrs[nb]);
        }
        let created = rt.create_object(
            node,
            Box::new(SubObj {
                sd,
                workload: params.workload,
                neighbor_ptrs,
            }),
            128,
        );
        assert_eq!(created, ptrs[i], "placement must match precomputed ptrs");
    }
    ptrs
}

/// Build a runtime with OPCDM registered, `hook` applied (before any
/// object exists: attach an invariant checker — the virtual-time engine
/// emits Create events eagerly at `create_object`, so a sink attached
/// later misses the births — a race detector, a schedule seed, …), every
/// subdomain created and an initial `refine` posted to each — ready to
/// run.
pub fn opcdm_setup<E: Engine>(
    params: &PcdmParams,
    cfg: MrtsConfig,
    hook: impl FnOnce(&mut Runtime<E>),
) -> Runtime<E> {
    let mut rt = Runtime::new(cfg);
    register(&mut rt);
    hook(&mut rt);
    for p in create_subdomains(&mut rt, params) {
        rt.post(p, H_REFINE, Vec::new());
    }
    rt
}

/// Count `(elements, vertices)` over a finished runtime's objects.
pub fn opcdm_collect<E: Engine>(rt: &Runtime<E>) -> (u64, u64) {
    let mut elements = 0u64;
    let mut vertices = 0u64;
    rt.for_each_object(|_, obj| {
        let so = obj
            .as_any()
            .downcast_ref::<SubObj>()
            .expect("this method only creates SubObj objects");
        elements += so.sd.mesh.num_tris() as u64;
        vertices += (0..so.sd.mesh.num_vertices() as u32)
            .filter(|&v| !so.sd.mesh.vflags(v).is(VFlags::SUPER))
            .count() as u64;
    });
    (elements, vertices)
}

/// Run OPCDM on engine `E` (see [`opcdm_setup`] for `hook`).
pub fn opcdm_run_with<E: Engine>(
    params: &PcdmParams,
    cfg: MrtsConfig,
    hook: impl FnOnce(&mut Runtime<E>),
) -> MethodResult {
    let mut rt = opcdm_setup(params, cfg, hook);
    let stats = rt.run();
    let (elements, vertices) = opcdm_collect(&rt);
    MethodResult {
        elements,
        vertices,
        stats,
    }
}

/// Run OPCDM on engine `E`: [`mrts::des::Des`] (virtual time) or
/// [`mrts::threaded::Threads`] (real OS threads, real spill files when
/// `cfg.spill_dir` is set).
pub fn opcdm_run<E: Engine>(params: &PcdmParams, cfg: MrtsConfig) -> MethodResult {
    opcdm_run_with::<E>(params, cfg, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcdm::pcdm_incore;
    use mrts::des::Des;

    fn params(elements: u64, grid: usize) -> PcdmParams {
        PcdmParams::new(Workload::uniform_square(elements), grid)
    }

    #[test]
    fn subobj_roundtrip() {
        let subs = build_subdomains(&params(1500, 2));
        let sd = subs.into_iter().next().unwrap();
        let obj = SubObj {
            sd,
            workload: Workload::uniform_square(1500),
            neighbor_ptrs: [
                None,
                Some(MobilePtr::new(mrts::ids::ObjectId::new(1, 7))),
                None,
                Some(MobilePtr::new(mrts::ids::ObjectId::new(0, 3))),
            ],
        };
        let packed = mrts::object::Registry::pack(&obj);
        let mut reg = mrts::object::Registry::new();
        reg.register_type(SUB_TAG, SubObj::decode);
        let back = reg.unpack(&packed).expect("roundtrip decodes");
        let back = back.as_any().downcast_ref::<SubObj>().unwrap();
        assert_eq!(back.sd.idx, obj.sd.idx);
        assert_eq!(back.sd.mesh.num_tris(), obj.sd.mesh.num_tris());
        assert_eq!(back.sd.known.len(), obj.sd.known.len());
        assert_eq!(back.neighbor_ptrs, obj.neighbor_ptrs);
        back.sd.mesh.validate().unwrap();
    }

    #[test]
    fn opcdm_in_core_matches_baseline_count() {
        let p = params(3000, 2);
        let base = pcdm_incore(&p, 4, 1 << 30).unwrap();
        let port = opcdm_run::<Des>(&p, MrtsConfig::in_core(4));
        // Same method, same kernels: identical meshes.
        assert_eq!(port.elements, base.elements, "port must match baseline");
        assert!(port.stats.total > std::time::Duration::ZERO);
    }

    #[test]
    fn opcdm_out_of_core_spills_and_matches() {
        let p = params(4000, 3);
        let base = pcdm_incore(&p, 2, 1 << 30).unwrap();
        // A budget well below the aggregate mesh footprint forces spills.
        let per_node = base.stats.peak_mem().max(200_000) / 3;
        let port = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, per_node));
        // OOC queueing may reorder refine/split interleavings; counts stay
        // within a whisker of the in-core result.
        let ratio = port.elements as f64 / base.elements as f64;
        assert!(
            (0.97..1.03).contains(&ratio),
            "{} vs {}",
            port.elements,
            base.elements
        );
        assert!(
            port.stats.total_of(|n| n.stores) > 0,
            "must spill: {}",
            port.stats.summary()
        );
        assert!(port.stats.disk_pct() > 0.0);
        // Spill fast-path accounting must stay coherent: elisions are a
        // subset of evictions and avoided bytes exist iff something was
        // elided.
        let evictions = port.stats.total_of(|n| n.evictions);
        let elided = port.stats.total_of(|n| n.evictions_elided);
        assert!(elided <= evictions, "{}", port.stats.summary());
        assert_eq!(port.stats.bytes_write_avoided() > 0, elided > 0);
        // No fault plan configured: the reliable-delivery layer must stay
        // entirely quiescent (see DESIGN.md §11).
        for (name, v) in [
            (
                "messages_dropped",
                port.stats.total_of(|n| n.messages_dropped),
            ),
            ("retransmits", port.stats.total_of(|n| n.retransmits)),
            ("dup_suppressed", port.stats.total_of(|n| n.dup_suppressed)),
            (
                "hints_invalidated",
                port.stats.total_of(|n| n.hints_invalidated),
            ),
            ("acks_sent", port.stats.total_of(|n| n.acks_sent)),
        ] {
            assert_eq!(v, 0, "fault-free run charged net counter {name} = {v}");
        }
    }

    #[test]
    fn opcdm_conformity_across_objects() {
        let p = params(2500, 2);
        let mut rt = opcdm_setup::<Des>(&p, MrtsConfig::in_core(2), |_| {});
        rt.run();
        // Collect interface point sets and check conformity.
        let mut sides: std::collections::HashMap<(usize, usize), Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        rt.for_each_object(|_, obj| {
            let so = obj
                .as_any()
                .downcast_ref::<SubObj>()
                .expect("this method only creates SubObj objects");
            for s in 0..SIDES {
                if so.sd.neighbors[s].is_some() {
                    sides.insert((so.sd.idx, s), so.sd.interface_points(s));
                }
            }
        });
        let mut checked = 0;
        for (&(idx, s), pts) in &sides {
            let opp = match s {
                0 => 1,
                1 => 0,
                2 => 3,
                _ => 2,
            };
            // Find the neighbor on this side by scanning the map.
            for (&(jdx, t), qts) in &sides {
                if jdx != idx && t == opp {
                    // Sides face each other iff the point sets share the
                    // same grid line; compare only the matching pair.
                    if pts == qts && !pts.is_empty() {
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "some conforming interface must exist");
    }
}
