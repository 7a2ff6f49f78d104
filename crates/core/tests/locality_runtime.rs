//! Engine-level tests for the locality layer: the learned curve must be a
//! pure function of the application's send pattern (identical digests from
//! the DES and threaded engines for the same workload), and the cluster
//! prefetch path must actually fire on an out-of-core run in both engines.

use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::ids::ObjectId;
use mrts::prelude::*;
use std::any::Any;

const PATCH_TAG: TypeTag = TypeTag(21);
const H_FLOOD: HandlerId = HandlerId(21);
const H_CHAIN: HandlerId = HandlerId(22);

/// A mesh-patch stand-in: knows its grid neighbors, carries padding so
/// out-of-core configurations genuinely spill.
struct Patch {
    value: u64,
    neighbors: Vec<MobilePtr>,
    pad: Vec<u8>,
}

impl Patch {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let value = r.u64().expect("value");
        let neighbors = r.ptrs().expect("neighbors");
        let pad = r.bytes().expect("pad").to_vec();
        Ok(Box::new(Patch {
            value,
            neighbors,
            pad,
        }))
    }
}

impl MobileObject for Patch {
    fn type_tag(&self) -> TypeTag {
        PATCH_TAG
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.u64(self.value).ptrs(&self.neighbors).bytes(&self.pad);
        buf.extend_from_slice(&w.finish());
    }

    fn footprint(&self) -> usize {
        8 + 8 * self.neighbors.len() + self.pad.len() + 48
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Flood: bump self; while hops remain, re-send to every grid neighbor.
/// The send pattern — hence the adjacency both engines learn — is a pure
/// function of the grid, independent of scheduling.
fn h_flood(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let hops = r.u64().expect("hops");
    let p = obj
        .as_any_mut()
        .downcast_mut::<Patch>()
        .expect("Patch object");
    p.value += 1;
    if hops > 0 {
        let mut w = PayloadWriter::new();
        w.u64(hops - 1);
        let msg = w.finish();
        for &n in &p.neighbors {
            ctx.send(n, H_FLOOD, msg.clone());
        }
    }
}

fn flood_payload(hops: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(hops);
    w.finish()
}

/// Baton traversal: bump self, then pass the baton to the next pointer in
/// the ring for `remaining` more hops. Exactly one object is ever active,
/// so on an out-of-core run every load of the baton's target completes
/// into an otherwise idle node — a demand miss, the cluster-prefetch
/// trigger.
fn h_chain(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let remaining = r.u64().expect("remaining");
    let idx = r.u64().expect("idx") as usize;
    let ring = r.ptrs().expect("ring");
    let p = obj
        .as_any_mut()
        .downcast_mut::<Patch>()
        .expect("Patch object");
    p.value += 1;
    if remaining > 0 {
        let next = (idx + 1) % ring.len();
        let mut w = PayloadWriter::new();
        w.u64(remaining - 1).u64(next as u64).ptrs(&ring);
        ctx.send(ring[next], H_CHAIN, w.finish());
    }
}

fn chain_payload(remaining: u64, idx: usize, ring: &[MobilePtr]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(remaining).u64(idx as u64).ptrs(ring);
    w.finish()
}

/// Pointers for a `side × side` grid round-robined over `nodes` — the same
/// placement rule both engines' `create_object` produces.
fn grid_ptrs(side: usize, nodes: usize) -> Vec<MobilePtr> {
    let mut counters = vec![0u64; nodes];
    (0..side * side)
        .map(|i| {
            let node = (i % nodes) as NodeId;
            let seq = counters[i % nodes];
            counters[i % nodes] += 1;
            MobilePtr::new(ObjectId::new(node, seq))
        })
        .collect()
}

fn grid_neighbors(i: usize, side: usize, ptrs: &[MobilePtr]) -> Vec<MobilePtr> {
    let (x, y) = (i % side, i / side);
    let mut out = Vec::new();
    if x > 0 {
        out.push(ptrs[i - 1]);
    }
    if x + 1 < side {
        out.push(ptrs[i + 1]);
    }
    if y > 0 {
        out.push(ptrs[i - side]);
    }
    if y + 1 < side {
        out.push(ptrs[i + side]);
    }
    out
}

fn patch(i: usize, side: usize, ptrs: &[MobilePtr], pad: usize) -> Box<Patch> {
    Box::new(Patch {
        value: 0,
        neighbors: grid_neighbors(i, side, ptrs),
        pad: vec![0xA5; pad],
    })
}

/// A runtime with the grid's patches created round-robin, ready for a
/// flood or a chain.
fn grid<E: Engine>(side: usize, cfg: MrtsConfig, pad: usize) -> (Runtime<E>, Vec<MobilePtr>) {
    let nodes = cfg.nodes;
    let mut rt = Runtime::<E>::new(cfg);
    rt.register_type(PATCH_TAG, Patch::decode);
    rt.register_handler(H_FLOOD, "flood", h_flood);
    rt.register_handler(H_CHAIN, "chain", h_chain);
    let ptrs = grid_ptrs(side, nodes);
    for i in 0..side * side {
        let created = rt.create_object((i % nodes) as NodeId, patch(i, side, &ptrs, pad), 128);
        assert_eq!(created, ptrs[i]);
    }
    (rt, ptrs)
}

/// Flood `hops` rounds from every patch.
fn run<E: Engine>(side: usize, cfg: MrtsConfig, hops: u64, pad: usize) -> RunStats {
    let (mut rt, ptrs) = grid::<E>(side, cfg, pad);
    for &p in &ptrs {
        rt.post(p, H_FLOOD, flood_payload(hops));
    }
    rt.run()
}

/// The curve digest is a pure function of the send pattern: both engines,
/// with their completely different schedulers, must learn the same
/// adjacency and derive bit-identical orderings — per node.
#[test]
fn locality_digest_agrees_across_engines() {
    for nodes in [1usize, 2] {
        let d = run::<Des>(6, MrtsConfig::in_core(nodes), 1, 0);
        let t = run::<Threads>(6, MrtsConfig::in_core(nodes), 1, 0);
        for node in 0..nodes {
            let dd = d.nodes[node].locality_digest;
            let td = t.nodes[node].locality_digest;
            assert_ne!(dd, 0, "DES node {node} learned no adjacency");
            assert_eq!(dd, td, "engines disagree on the node-{node} curve");
        }
    }
}

/// Same workload, same engine, repeated: the digest must be stable (the
/// ordering cannot depend on HashMap iteration or thread timing).
#[test]
fn locality_digest_is_deterministic_across_runs() {
    let a = run::<Threads>(6, MrtsConfig::in_core(2), 2, 0);
    let b = run::<Threads>(6, MrtsConfig::in_core(2), 2, 0);
    for node in 0..2 {
        assert_eq!(a.nodes[node].locality_digest, b.nodes[node].locality_digest);
    }
}

/// An out-of-core run of a baton traversal (three full laps of the ring)
/// over a spilling grid must drive the whole locality path: clusters
/// form, demand misses occur (one object active at a time), and cluster
/// prefetches issue behind them.
fn ooc_chain_prefetches<E: Engine>(spill_dir: Option<std::path::PathBuf>) -> RunStats {
    let mut cfg = MrtsConfig::out_of_core(1, 24 * 1024);
    cfg.spill_dir = spill_dir;
    let (mut rt, ptrs) = grid::<E>(6, cfg, 2048);
    let visits = 3 * ptrs.len() as u64;
    rt.post(ptrs[0], H_CHAIN, chain_payload(visits, 0, &ptrs));
    let stats = rt.run();
    assert!(
        stats.total_of(|n| n.loads) > 0,
        "budget did not force any loads — test is vacuous"
    );
    assert!(
        stats.total_of(|n| n.cluster_prefetches) > 0,
        "no cluster prefetches on a spilling traversal workload"
    );
    assert!(stats.bytes_demanded() > 0);
    stats
}

#[test]
fn des_ooc_run_issues_cluster_prefetches() {
    ooc_chain_prefetches::<Des>(None);
}

/// The same, on the threaded engine with real spill files.
#[test]
fn threaded_ooc_run_issues_cluster_prefetches() {
    let dir = std::env::temp_dir().join(format!("mrts-locality-test-{}", std::process::id()));
    let stats = ooc_chain_prefetches::<Threads>(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(dir);
    assert!(
        stats.total_of(|n| n.segment_reads) > 0,
        "segment read stats never rode back on IoDone"
    );
}

/// `with_no_locality()` is a true escape hatch: no clusters, no digests,
/// no cluster prefetches — in both engines.
#[test]
fn no_locality_escape_hatch_disables_the_layer() {
    fn check<E: Engine>(spill_dir: Option<std::path::PathBuf>) {
        let mut cfg = MrtsConfig::out_of_core(1, 24 * 1024).with_no_locality();
        cfg.spill_dir = spill_dir;
        let stats = run::<E>(6, cfg, 4, 2048);
        assert_eq!(stats.total_of(|n| n.cluster_prefetches), 0);
        assert_eq!(stats.nodes[0].locality_digest, 0);
    }
    check::<Des>(None);
    let dir = std::env::temp_dir().join(format!("mrts-nolocality-test-{}", std::process::id()));
    check::<Threads>(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(dir);
}
