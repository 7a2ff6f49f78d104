//! A deterministic space-filling-curve / BFS-cluster ordering of mobile
//! objects over an adjacency graph.
//!
//! **Kept only for perfbench's probe.** No runtime path uses this module:
//! the runtime no longer learns adjacency, evicts or prefetches by
//! cluster, or relocates spill records in curve order, because a trial
//! at budgets of 3× to 32× below the in-core peak found no ratio where
//! the layout paid (EXPERIMENTS.md, "Locality layout"). The `locality.*`
//! probes of `perfbench/src/probes.rs` still call [`LocalityMap::new`],
//! [`LocalityMap::note_edge`], [`LocalityMap::rebuild`] and
//! [`LocalityMap::ordered_len`]; the module goes with the next benchmark
//! change.
//!
//! Motivation (Bender et al., *Optimal Cache-Oblivious Mesh Layouts*,
//! arXiv:0705.1033): ordering mesh data along a locality-preserving curve
//! over the adjacency graph makes block transfers near-optimal at every
//! granularity, but only when the working set far exceeds fast memory.
//! The map turns an edge set into a total order (`LocalityKey`) plus
//! fixed-size clusters.
//!
//! Determinism contract: the ordering is a pure function of the
//! *undirected edge set* (plus the cluster size) — it does not depend on
//! the order edges were observed in or on hash iteration order
//! (`ordering_independent_of_edge_insertion_order` pins this).

use crate::ids::{ObjectId, ObjectMap};
use std::collections::{BTreeMap, BTreeSet};

/// Position of an object on the locality curve (0-based, dense).
pub type LocalityKey = u64;

/// Cluster id: ordinal of the grown blob the object belongs to. Blobs
/// hold up to `cluster_objects` members with contiguous curve keys; a
/// blob ends early when its mesh pocket is exhausted, so ids are *not*
/// simply `LocalityKey / cluster_objects`.
pub type ClusterId = u64;

/// Rebuilds are elided until at least this many new edges accumulate.
const REBUILD_MIN_NEW_EDGES: usize = 16;

/// Adjacency-learned curve ordering for one node's mobile objects.
///
/// A caller feeds `note_edge` with observed adjacency (sender → addressee
/// is the buffer-zone adjacency for mesh workloads: split points are
/// forwarded to the neighboring subdomain). Consumers call
/// [`LocalityMap::maybe_rebuild`] at decision points; the rebuild grows
/// one cluster at a time from a seed, always absorbing the frontier
/// vertex with the most neighbors already inside the growing cluster
/// (ties toward the smaller [`ObjectId`]). Plain global BFS would order a
/// planar mesh into long thin frontier strips — good for exactly one
/// traversal direction; greedy cluster growth yields *compact* blobs,
/// which is the cache-oblivious property the spill layout needs: a blob
/// packed into one segment serves a sweep from any direction. Each new
/// seed comes from the previous cluster's leftover frontier, so
/// consecutive clusters are mesh-adjacent and the curve snakes across
/// the mesh rather than jumping.
pub struct LocalityMap {
    cluster_objects: usize,
    /// Undirected adjacency. The outer map is a hash map because
    /// `note_edge` sits on the per-send hot path; rebuilds sort the keys
    /// before traversal, and the neighbor sets stay `BTreeSet` so every
    /// expansion iterates in id order — determinism is unaffected.
    adj: ObjectMap<BTreeSet<ObjectId>>,
    /// Curve position per object (lookup only; never iterated for decisions).
    keys: ObjectMap<LocalityKey>,
    /// Cluster id per object (lookup only; never iterated for decisions).
    cluster: ObjectMap<ClusterId>,
    /// Members of each cluster in curve order.
    members: Vec<Vec<ObjectId>>,
    /// Undirected edges currently in `adj`.
    edges: usize,
    /// Edge count at the last rebuild.
    built_edges: usize,
    /// Bumped on every rebuild; consumers use it to detect staleness.
    generation: u64,
}

impl LocalityMap {
    pub fn new(cluster_objects: usize) -> Self {
        LocalityMap {
            cluster_objects: cluster_objects.max(1),
            adj: ObjectMap::default(),
            keys: ObjectMap::default(),
            cluster: ObjectMap::default(),
            members: Vec::new(),
            edges: 0,
            built_edges: 0,
            generation: 0,
        }
    }

    /// Record an undirected adjacency edge between two objects. Called
    /// once per send, so the already-known case (the steady state — mesh
    /// adjacency is learned once and then re-observed forever) is a
    /// single lookup.
    pub fn note_edge(&mut self, a: ObjectId, b: ObjectId) {
        if a == b {
            return;
        }
        if self.adj.get(&a).is_some_and(|s| s.contains(&b)) {
            return;
        }
        self.adj.entry(a).or_default().insert(b);
        self.adj.entry(b).or_default().insert(a);
        self.edges += 1;
    }

    /// Bumped on every rebuild.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True if enough new edges accumulated that the next
    /// [`LocalityMap::maybe_rebuild`] will recompute the ordering.
    pub fn stale(&self) -> bool {
        let new = self.edges - self.built_edges.min(self.edges);
        if self.generation == 0 {
            new > 0
        } else {
            new >= REBUILD_MIN_NEW_EDGES.max(self.built_edges / 8)
        }
    }

    /// Recompute the ordering if enough new adjacency arrived (hysteresis
    /// keeps steady-state cost near zero). Returns true if it rebuilt.
    pub fn maybe_rebuild(&mut self) -> bool {
        if !self.stale() {
            return false;
        }
        self.rebuild();
        true
    }

    /// Force a recompute over the current edge set (used by the digest so
    /// two engines that learned the same edges compare equal orderings).
    ///
    /// Greedy cluster growth: seed a cluster, then repeatedly absorb the
    /// frontier vertex with the most neighbors already in the cluster
    /// (ties toward the smaller id), up to `cluster_objects` members. The
    /// next seed is the smallest vertex on the finished cluster's
    /// leftover frontier, falling back to the smallest unassigned vertex
    /// for a new component. Every choice iterates a `BTreeSet` and breaks
    /// ties by id, so the result is a pure function of the edge set.
    pub fn rebuild(&mut self) {
        self.keys.clear();
        self.cluster.clear();
        self.members.clear();
        let mut next: LocalityKey = 0;
        let k = self.cluster_objects;
        let mut all: Vec<ObjectId> = self.adj.keys().copied().collect();
        all.sort_unstable();
        let mut fallback = 0usize;
        // Unassigned vertices adjacent to the previous cluster.
        let mut carry: BTreeSet<ObjectId> = BTreeSet::new();
        while self.keys.len() < all.len() {
            let cid = self.members.len() as ClusterId;
            self.members.push(Vec::new());
            let seed = loop {
                match carry.pop_first() {
                    Some(v) if self.keys.contains_key(&v) => continue,
                    Some(v) => break v,
                    None => {
                        while self.keys.contains_key(&all[fallback]) {
                            fallback += 1;
                        }
                        break all[fallback];
                    }
                }
            };
            let mut blob: BTreeSet<ObjectId> = BTreeSet::new();
            // Frontier vertex → hop distance from the seed. Selection
            // maximizes neighbors-in-blob, then minimizes seed distance
            // (without it, ubiquitous one-neighbor ties would make the id
            // tie-break crawl along a mesh row — a strip, not a blob),
            // then takes the smallest id.
            let mut front: BTreeMap<ObjectId, u64> = BTreeMap::new();
            self.assign(seed, &mut next, cid);
            blob.insert(seed);
            for n in &self.adj[&seed] {
                if !self.keys.contains_key(n) {
                    front.insert(*n, 1);
                }
            }
            while blob.len() < k {
                let mut best: Option<(usize, u64, ObjectId)> = None;
                for (&v, &d) in &front {
                    let conn = self.adj[&v].iter().filter(|n| blob.contains(n)).count();
                    if best.is_none_or(|(bc, bd, _)| conn > bc || (conn == bc && d < bd)) {
                        best = Some((conn, d, v));
                    }
                }
                let Some((_, d, v)) = best else {
                    break;
                };
                front.remove(&v);
                let nbrs: Vec<ObjectId> = self.adj[&v]
                    .iter()
                    .copied()
                    .filter(|n| !self.keys.contains_key(n))
                    .collect();
                self.assign(v, &mut next, cid);
                blob.insert(v);
                for n in nbrs {
                    let e = front.entry(n).or_insert(d + 1);
                    *e = (*e).min(d + 1);
                }
            }
            carry = front.into_keys().collect();
        }
        self.built_edges = self.edges;
        self.generation += 1;
    }

    fn assign(&mut self, oid: ObjectId, next: &mut LocalityKey, cid: ClusterId) {
        let key = *next;
        *next += 1;
        self.keys.insert(oid, key);
        self.cluster.insert(oid, cid);
        self.members[cid as usize].push(oid);
    }

    /// Curve position of `oid`, if it is on the curve.
    pub fn key_of(&self, oid: ObjectId) -> Option<LocalityKey> {
        self.keys.get(&oid).copied()
    }

    /// Cluster id of `oid`, if it is on the curve.
    pub fn cluster_of(&self, oid: ObjectId) -> Option<ClusterId> {
        self.cluster.get(&oid).copied()
    }

    /// Number of objects on the curve.
    pub fn ordered_len(&self) -> usize {
        self.keys.len()
    }

    /// The other members of `anchor`'s cluster, in curve order.
    pub fn companions(&self, anchor: ObjectId) -> Vec<ObjectId> {
        let Some(cid) = self.cluster_of(anchor) else {
            return Vec::new();
        };
        self.members[cid as usize]
            .iter()
            .copied()
            .filter(|&o| o != anchor)
            .collect()
    }

    /// The `k` cluster mates nearest the anchor on the `forward` (higher
    /// curve key) or backward side, nearest first (ties broken toward the
    /// lower key — deterministic). Curve distance tracks mesh distance,
    /// so these are the objects likeliest to be touched right after the
    /// anchor — but only on the side the access front is moving toward;
    /// mates behind the front were just used and will not be wanted again
    /// until the next pass, long after a tight budget evicts them.
    /// Callers estimate the direction from consecutive demand anchors.
    pub fn companions_toward(&self, anchor: ObjectId, k: usize, forward: bool) -> Vec<ObjectId> {
        let Some(ak) = self.key_of(anchor) else {
            return Vec::new();
        };
        let mut mates: Vec<ObjectId> = self
            .companions(anchor)
            .into_iter()
            .filter(|&o| {
                let key = self.keys[&o];
                if forward {
                    key > ak
                } else {
                    key < ak
                }
            })
            .collect();
        mates.sort_unstable_by_key(|&o| {
            let key = self.keys[&o];
            (key.abs_diff(ak), key)
        });
        mates.truncate(k);
        mates
    }

    /// FNV-1a digest over the (object, key) pairs in curve order, after a
    /// forced rebuild. Equal digests ⇒ equal orderings; two engines that
    /// learned the same mesh adjacency produce the same digest.
    pub fn digest(&mut self) -> u64 {
        self.rebuild();
        let mut pairs: Vec<(u64, u64)> = self.keys.iter().map(|(o, &k)| (o.0, k)).collect();
        pairs.sort_unstable();
        let mut h: u64 = 0xcbf29ce484222325;
        for (o, k) in pairs {
            for b in o.to_le_bytes().into_iter().chain(k.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// Curve ranks for the spill keys in `spill_key_of` (an `(oid,
    /// spill_key)` iterator): what the SegmentStore needs to relocate live
    /// records in curve order during a cleaning pass.
    pub fn ranks_for<I: IntoIterator<Item = (ObjectId, u64)>>(
        &self,
        spill_key_of: I,
    ) -> Vec<(u64, u64)> {
        spill_key_of
            .into_iter()
            .filter_map(|(oid, sk)| self.key_of(oid).map(|k| (sk, k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn oid(n: NodeId, s: u64) -> ObjectId {
        ObjectId::new(n, s)
    }

    fn grid_edges(w: u64, h: u64) -> Vec<(ObjectId, ObjectId)> {
        let mut e = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let a = oid(0, y * w + x);
                if x + 1 < w {
                    e.push((a, oid(0, y * w + x + 1)));
                }
                if y + 1 < h {
                    e.push((a, oid(0, (y + 1) * w + x)));
                }
            }
        }
        e
    }

    #[test]
    fn ordering_is_total_permutation() {
        let mut m = LocalityMap::new(4);
        for (a, b) in grid_edges(7, 5) {
            m.note_edge(a, b);
        }
        m.rebuild();
        assert_eq!(m.ordered_len(), 35);
        let mut seen: Vec<u64> = (0..35)
            .map(|s| m.key_of(oid(0, s)).expect("on curve"))
            .collect();
        seen.sort_unstable();
        let want: Vec<u64> = (0..35).collect();
        assert_eq!(seen, want, "keys must be a dense permutation 0..n");
    }

    #[test]
    fn ordering_independent_of_edge_insertion_order() {
        let edges = grid_edges(6, 6);
        let mut fwd = LocalityMap::new(8);
        for &(a, b) in &edges {
            fwd.note_edge(a, b);
        }
        let mut rev = LocalityMap::new(8);
        // Reversed order AND flipped endpoints: same undirected edge set.
        for &(a, b) in edges.iter().rev() {
            rev.note_edge(b, a);
        }
        assert_eq!(fwd.digest(), rev.digest());
        for s in 0..36 {
            assert_eq!(fwd.key_of(oid(0, s)), rev.key_of(oid(0, s)));
        }
    }

    #[test]
    fn clusters_partition_the_curve() {
        let mut m = LocalityMap::new(4);
        for (a, b) in grid_edges(5, 4) {
            m.note_edge(a, b);
        }
        m.rebuild();
        for s in 0..20 {
            let o = oid(0, s);
            let k = m.key_of(o).expect("on curve");
            let cid = m.cluster_of(o).expect("on curve");
            let comp = m.companions(o);
            assert!(comp.len() < 4, "cluster exceeds cluster_objects");
            assert!(!comp.contains(&o));
            for c in comp {
                assert_eq!(m.cluster_of(c), Some(cid));
                // Blob members occupy contiguous curve keys.
                let ck = m.key_of(c).expect("companion on curve");
                assert!(ck.abs_diff(k) < 4, "cluster keys not contiguous");
            }
        }
    }

    #[test]
    fn adjacency_preserved_beats_random_permutation() {
        // Average |key(a)-key(b)| over grid edges must beat a random
        // permutation of the same objects (deterministic LCG shuffle).
        let edges = grid_edges(12, 12);
        let mut m = LocalityMap::new(8);
        for &(a, b) in &edges {
            m.note_edge(a, b);
        }
        m.rebuild();
        let n = 144u64;
        let mut perm: Vec<u64> = (0..n).collect();
        let mut state: u64 = 0x9E3779B97F4A7C15;
        for i in (1..n as usize).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let dist = |k: &dyn Fn(ObjectId) -> u64| -> u64 {
            edges.iter().map(|&(a, b)| k(a).abs_diff(k(b))).sum::<u64>()
        };
        let curve = dist(&|o| m.key_of(o).expect("on curve"));
        let random = dist(&|o| perm[o.seq() as usize]);
        assert!(
            curve * 2 < random,
            "curve edge distance {curve} should be well under random {random}"
        );
    }

    #[test]
    fn clusters_are_compact_blobs() {
        // Grown clusters must be blobs, not frontier strips: on a 12×12
        // grid with 8-object clusters, every cluster's bounding box stays
        // square-ish. Global BFS ordering fails this — its clusters are
        // chunks of anti-diagonal frontiers spanning up to 8 rows.
        let side = 12u64;
        let mut m = LocalityMap::new(8);
        for (a, b) in grid_edges(side, side) {
            m.note_edge(a, b);
        }
        m.rebuild();
        let clusters = (0..side * side)
            .map(|s| m.cluster_of(oid(0, s)).expect("on curve"))
            .max()
            .expect("nonempty grid")
            + 1;
        assert!(clusters >= (side * side).div_ceil(8));
        for cid in 0..clusters {
            let (mut x0, mut x1, mut y0, mut y1) = (u64::MAX, 0u64, u64::MAX, 0u64);
            let mut members = 0;
            for s in 0..side * side {
                if m.cluster_of(oid(0, s)) != Some(cid) {
                    continue;
                }
                members += 1;
                let (x, y) = (s % side, s / side);
                x0 = x0.min(x);
                x1 = x1.max(x);
                y0 = y0.min(y);
                y1 = y1.max(y);
            }
            assert!(members > 0, "cluster {cid} is empty");
            let span = (x1 - x0).max(y1 - y0);
            assert!(
                span <= 4,
                "cluster {cid} spans {span} cells — a strip, not a blob"
            );
        }
    }

    #[test]
    fn rebuild_hysteresis() {
        let mut m = LocalityMap::new(4);
        assert!(!m.maybe_rebuild(), "empty map never rebuilds");
        m.note_edge(oid(0, 0), oid(0, 1));
        assert!(m.maybe_rebuild(), "first edge triggers the first build");
        let g = m.generation();
        m.note_edge(oid(0, 1), oid(0, 2));
        assert!(!m.maybe_rebuild(), "one new edge is under the hysteresis");
        assert_eq!(m.generation(), g);
        for s in 2..40 {
            m.note_edge(oid(0, s), oid(0, s + 1));
        }
        assert!(m.maybe_rebuild());
        assert!(m.generation() > g);
    }

    #[test]
    fn companions_empty_off_curve() {
        let m = LocalityMap::new(4);
        assert!(m.companions(oid(0, 9)).is_empty());
        assert_eq!(m.key_of(oid(0, 9)), None);
        assert_eq!(m.cluster_of(oid(0, 9)), None);
    }

    #[test]
    fn ranks_for_maps_spill_keys() {
        let mut m = LocalityMap::new(4);
        m.note_edge(oid(0, 0), oid(0, 1));
        m.note_edge(oid(0, 1), oid(0, 2));
        m.rebuild();
        let ranks = m.ranks_for(vec![(oid(0, 2), 77), (oid(0, 9), 88)]);
        assert_eq!(ranks.len(), 1, "off-curve objects carry no rank");
        assert_eq!(ranks[0].0, 77);
        assert_eq!(ranks[0].1, m.key_of(oid(0, 2)).expect("on curve"));
    }
}
