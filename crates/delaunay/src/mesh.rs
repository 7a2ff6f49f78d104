//! The triangle-based triangulation data structure.
//!
//! Triangles are stored in a flat arena with a free list; each triangle
//! keeps its three vertex indices in counter-clockwise order and, for each
//! vertex, the index of the neighboring triangle *opposite* that vertex
//! (`NO_TRI` on the hull). Edge `i` of a triangle is the edge opposite
//! vertex `i`, i.e. between vertices `(i+1)%3` and `(i+2)%3`; the directed
//! edge so obtained has its triangle on the left.

use pumg_geometry::{orient2d, Orientation, Point2};

/// Vertex index.
pub type VId = u32;
/// Triangle index.
pub type TId = u32;

/// Sentinel: no neighboring triangle (convex hull / carved boundary).
pub const NO_TRI: TId = u32::MAX;
/// Sentinel: no vertex (also marks dead triangles).
pub const NO_VERT: VId = u32::MAX;

/// Per-vertex classification flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VFlags(pub u8);

impl VFlags {
    /// Vertex of the enclosing super-box (never part of the final mesh).
    pub const SUPER: u8 = 1 << 0;
    /// Input (PSLG) vertex.
    pub const INPUT: u8 = 1 << 1;
    /// Lies on a constrained segment (input or split point).
    pub const BOUNDARY: u8 = 1 << 2;
    /// Inserted by refinement.
    pub const STEINER: u8 = 1 << 3;

    #[inline]
    pub fn is(&self, mask: u8) -> bool {
        self.0 & mask != 0
    }

    #[inline]
    pub fn set(&mut self, mask: u8) {
        self.0 |= mask;
    }
}

/// One triangle of the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tri {
    /// Vertices in CCW order; `v[0] == NO_VERT` marks a dead (freed) slot.
    pub v: [VId; 3],
    /// `nbr[i]` is the triangle sharing the edge opposite `v[i]`.
    pub nbr: [TId; 3],
    /// Bit `i` set ⇔ the edge opposite `v[i]` is a constrained segment.
    pub constrained: u8,
}

impl Tri {
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.v[0] == NO_VERT
    }

    /// Index (0..3) of vertex `v` within this triangle.
    #[inline]
    pub fn index_of(&self, v: VId) -> Option<usize> {
        self.v.iter().position(|&x| x == v)
    }

    /// Index of the neighbor `t` within this triangle's `nbr` array.
    #[inline]
    pub fn nbr_index_of(&self, t: TId) -> Option<usize> {
        self.nbr.iter().position(|&x| x == t)
    }

    #[inline]
    pub fn is_constrained(&self, edge: usize) -> bool {
        self.constrained & (1 << edge) != 0
    }

    #[inline]
    pub fn set_constrained(&mut self, edge: usize, val: bool) {
        if val {
            self.constrained |= 1 << edge;
        } else {
            self.constrained &= !(1 << edge);
        }
    }
}

/// Reference to one directed edge: triangle `t`, edge index `e` (opposite
/// vertex `e`). The directed edge runs `v[(e+1)%3] → v[(e+2)%3]` and has
/// triangle `t` on its left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    pub t: TId,
    pub e: usize,
}

/// A 2-D triangulation: vertex array + triangle arena.
#[derive(Clone, Debug, Default)]
pub struct TriMesh {
    pub(crate) pts: Vec<Point2>,
    pub(crate) vflags: Vec<VFlags>,
    pub(crate) tris: Vec<Tri>,
    pub(crate) free: Vec<TId>,
    pub(crate) n_alive: usize,
    /// Point-location hint: the last triangle touched.
    pub(crate) hint: TId,
    /// Scratch: the legalization stack the split routines fill and
    /// `legalize` drains. Empty between insertions; kept only so that its
    /// capacity is reused. Not mesh state — never encoded, compared, or
    /// charged to [`TriMesh::mem_footprint`].
    pub(crate) stack: Vec<EdgeRef>,
}

impl TriMesh {
    pub fn new() -> Self {
        TriMesh::default()
    }

    /// Reserve room for `vertices` more vertices and `tris` more triangles,
    /// so that adding them does not reallocate the arenas. The arenas grow
    /// to exactly that room, never by doubling.
    pub fn reserve(&mut self, vertices: usize, tris: usize) {
        self.pts.reserve_exact(vertices);
        self.vflags.reserve_exact(vertices);
        self.tris.reserve_exact(tris);
    }

    // ----- vertices ------------------------------------------------------

    /// Append a vertex; returns its id.
    pub fn add_vertex(&mut self, p: Point2, flags: VFlags) -> VId {
        debug_assert!(p.is_finite());
        let id = self.pts.len() as VId;
        self.pts.push(p);
        self.vflags.push(flags);
        id
    }

    #[inline]
    pub fn point(&self, v: VId) -> Point2 {
        self.pts[v as usize]
    }

    #[inline]
    pub fn vflags(&self, v: VId) -> VFlags {
        self.vflags[v as usize]
    }

    #[inline]
    pub fn vflags_mut(&mut self, v: VId) -> &mut VFlags {
        &mut self.vflags[v as usize]
    }

    pub fn num_vertices(&self) -> usize {
        self.pts.len()
    }

    /// All vertex coordinates (including super-box vertices, if any).
    pub fn points(&self) -> &[Point2] {
        &self.pts
    }

    // ----- triangles -----------------------------------------------------

    /// Allocate a triangle (recycling freed slots). Neighbors start
    /// disconnected.
    pub fn add_tri(&mut self, v: [VId; 3]) -> TId {
        debug_assert!(v.iter().all(|&x| (x as usize) < self.pts.len()));
        let tri = Tri {
            v,
            nbr: [NO_TRI; 3],
            constrained: 0,
        };
        self.n_alive += 1;
        if let Some(id) = self.free.pop() {
            self.tris[id as usize] = tri;
            id
        } else {
            let id = self.tris.len() as TId;
            self.tris.push(tri);
            id
        }
    }

    /// Free a triangle slot. The caller is responsible for unlinking
    /// neighbors first.
    pub fn remove_tri(&mut self, t: TId) {
        let tri = &mut self.tris[t as usize];
        debug_assert!(!tri.is_dead());
        tri.v = [NO_VERT; 3];
        tri.nbr = [NO_TRI; 3];
        tri.constrained = 0;
        self.free.push(t);
        self.n_alive -= 1;
        if self.hint == t {
            self.hint = NO_TRI;
        }
    }

    #[inline]
    pub fn tri(&self, t: TId) -> &Tri {
        &self.tris[t as usize]
    }

    #[inline]
    pub fn tri_mut(&mut self, t: TId) -> &mut Tri {
        &mut self.tris[t as usize]
    }

    #[inline]
    pub fn is_alive(&self, t: TId) -> bool {
        (t as usize) < self.tris.len() && !self.tris[t as usize].is_dead()
    }

    /// Number of live triangles.
    pub fn num_tris(&self) -> usize {
        self.n_alive
    }

    /// Capacity of the triangle arena (including dead slots); live triangle
    /// ids are `< arena_len()`.
    pub fn arena_len(&self) -> usize {
        self.tris.len()
    }

    /// Iterator over live triangle ids.
    pub fn tri_ids(&self) -> impl Iterator<Item = TId> + '_ {
        self.tris
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_dead())
            .map(|(i, _)| i as TId)
    }

    /// The three corner points of a live triangle.
    #[inline]
    pub fn tri_points(&self, t: TId) -> [Point2; 3] {
        let tri = self.tri(t);
        [
            self.pts[tri.v[0] as usize],
            self.pts[tri.v[1] as usize],
            self.pts[tri.v[2] as usize],
        ]
    }

    /// Centroid of a live triangle.
    pub fn centroid(&self, t: TId) -> Point2 {
        let [a, b, c] = self.tri_points(t);
        Point2::new((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)
    }

    /// True if any vertex of `t` is a super-box vertex.
    pub fn touches_super(&self, t: TId) -> bool {
        self.tri(t)
            .v
            .iter()
            .any(|&v| self.vflags[v as usize].is(VFlags::SUPER))
    }

    // ----- edges ---------------------------------------------------------

    /// The two endpoints of edge `e` of triangle `t`, as a directed edge
    /// with the triangle on its left.
    #[inline]
    pub fn edge_verts(&self, er: EdgeRef) -> (VId, VId) {
        let tri = self.tri(er.t);
        (tri.v[(er.e + 1) % 3], tri.v[(er.e + 2) % 3])
    }

    /// The twin of a directed edge: the same undirected edge seen from the
    /// neighboring triangle (`None` on the hull).
    pub fn twin(&self, er: EdgeRef) -> Option<EdgeRef> {
        let n = self.tri(er.t).nbr[er.e];
        if n == NO_TRI {
            return None;
        }
        let j = self.tri(n).nbr_index_of(er.t)?;
        Some(EdgeRef { t: n, e: j })
    }

    /// Symmetrically link edge `e` of `t` with edge `f` of `u`.
    pub fn link(&mut self, t: TId, e: usize, u: TId, f: usize) {
        self.tris[t as usize].nbr[e] = u;
        self.tris[u as usize].nbr[f] = t;
    }

    /// Set a one-sided neighbor (used against the hull or during rebuilds).
    pub fn set_nbr(&mut self, t: TId, e: usize, n: TId) {
        self.tris[t as usize].nbr[e] = n;
    }

    /// Find the edge of `t` whose endpoints are `{a, b}` (in either
    /// direction).
    pub fn find_edge(&self, t: TId, a: VId, b: VId) -> Option<usize> {
        let tri = self.tri(t);
        (0..3).find(|&e| {
            let (x, y) = (tri.v[(e + 1) % 3], tri.v[(e + 2) % 3]);
            (x == a && y == b) || (x == b && y == a)
        })
    }

    /// Locate the directed edge `a → b` anywhere in the mesh, by walking the
    /// star of `a`. Returns the `EdgeRef` whose directed edge is exactly
    /// `a → b`, if the edge exists.
    pub fn find_directed_edge(&self, a: VId, b: VId, start: TId) -> Option<EdgeRef> {
        // Walk triangles incident to `a` starting from `start` (which must
        // contain `a`), going around the star in both directions.
        let walk = |mut t: TId, dir_next: bool| -> Option<EdgeRef> {
            let first = t;
            loop {
                let tri = self.tri(t);
                let i = tri.index_of(a)?;
                let (x, y) = (tri.v[(i + 1) % 3], tri.v[(i + 2) % 3]);
                if x == b {
                    // Edge a→b is the edge opposite vertex (i+2)%3? Check:
                    // directed edge opposite k runs v[k+1]→v[k+2]; we need
                    // the edge running a→b, i.e. v[k+1]==a, v[k+2]==b, so
                    // k = i + 2 mod 3? v[(k+1)%3]=a means k = (i+2)%3.
                    let e = (i + 2) % 3;
                    debug_assert_eq!(self.edge_verts(EdgeRef { t, e }), (a, b));
                    return Some(EdgeRef { t, e });
                }
                if y == b {
                    let e = (i + 1) % 3;
                    debug_assert_eq!(self.edge_verts(EdgeRef { t, e }), (b, a));
                    // Found the reversed edge; the directed edge a→b is its
                    // twin, if present.
                    return self.twin(EdgeRef { t, e });
                }
                // Rotate around `a`: next triangle across the edge *not*
                // containing... across the edge opposite (i+1) (dir_next) or
                // opposite (i+2).
                let step = if dir_next { (i + 1) % 3 } else { (i + 2) % 3 };
                let n = tri.nbr[step];
                if n == NO_TRI || n == first {
                    return None;
                }
                t = n;
            }
        };
        walk(start, true).or_else(|| walk(start, false))
    }

    /// One live triangle incident to vertex `v`, by linear scan. Only used
    /// by tests and non-hot paths.
    pub fn any_tri_with_vertex(&self, v: VId) -> Option<TId> {
        self.tri_ids().find(|&t| self.tri(t).index_of(v).is_some())
    }

    // ----- validation ----------------------------------------------------

    /// Structural invariant check. Returns a description of the first
    /// violation found.
    ///
    /// Checks: vertex indices in range, CCW orientation of every live
    /// triangle, neighbor symmetry (mutual links over a shared edge with
    /// opposite direction), and matching constrained flags on both sides of
    /// every interior edge.
    pub fn validate(&self) -> Result<(), String> {
        let mut alive = 0usize;
        for t in 0..self.tris.len() as TId {
            let tri = self.tri(t);
            if tri.is_dead() {
                continue;
            }
            alive += 1;
            for &v in &tri.v {
                if v as usize >= self.pts.len() {
                    return Err(format!("tri {t}: vertex {v} out of range"));
                }
            }
            if tri.v[0] == tri.v[1] || tri.v[1] == tri.v[2] || tri.v[0] == tri.v[2] {
                return Err(format!("tri {t}: repeated vertex {:?}", tri.v));
            }
            let [a, b, c] = self.tri_points(t);
            if orient2d(a, b, c) != Orientation::CounterClockwise {
                return Err(format!("tri {t}: not CCW: {:?} {:?} {:?}", a, b, c));
            }
            for e in 0..3 {
                let n = tri.nbr[e];
                if n == NO_TRI {
                    continue;
                }
                if !self.is_alive(n) {
                    return Err(format!("tri {t} edge {e}: dead neighbor {n}"));
                }
                let ntri = self.tri(n);
                let j = match ntri.nbr_index_of(t) {
                    Some(j) => j,
                    None => return Err(format!("tri {t} edge {e}: neighbor {n} not mutual")),
                };
                let (x, y) = self.edge_verts(EdgeRef { t, e });
                let (p, q) = self.edge_verts(EdgeRef { t: n, e: j });
                if (x, y) != (q, p) {
                    return Err(format!(
                        "tri {t} edge {e}: edge ({x},{y}) vs neighbor {n} edge ({p},{q})"
                    ));
                }
                if tri.is_constrained(e) != ntri.is_constrained(j) {
                    return Err(format!(
                        "tri {t} edge {e}: constrained flag mismatch with {n}"
                    ));
                }
            }
        }
        if alive != self.n_alive {
            return Err(format!(
                "alive count mismatch: counted {alive}, recorded {}",
                self.n_alive
            ));
        }
        Ok(())
    }

    /// Delaunay-property check: for every interior non-constrained edge the
    /// opposite vertex of the neighbor must not lie strictly inside this
    /// triangle's circumcircle. O(n); for tests.
    pub fn validate_delaunay(&self) -> Result<(), String> {
        use pumg_geometry::incircle;
        for t in self.tri_ids() {
            let tri = self.tri(t);
            let [a, b, c] = self.tri_points(t);
            for e in 0..3 {
                let n = tri.nbr[e];
                if n == NO_TRI || tri.is_constrained(e) {
                    continue;
                }
                let ntri = self.tri(n);
                let j = ntri
                    .nbr_index_of(t)
                    .expect("neighbour links are symmetric (`validate` holds)");
                let opp = ntri.v[j];
                if incircle(a, b, c, self.point(opp)) > 0 {
                    return Err(format!(
                        "edge ({t},{e}) not locally Delaunay: vertex {opp} inside circumcircle"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Sum of triangle areas (debugging / conservation checks).
    pub fn total_area(&self) -> f64 {
        self.tri_ids()
            .map(|t| {
                let [a, b, c] = self.tri_points(t);
                pumg_geometry::triangle_area2(a, b, c) * 0.5
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// Two triangles sharing an edge: (0,1,2) and (1,3,2) — wired manually.
    fn two_tris() -> TriMesh {
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(1.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(0.0, 1.0), VFlags::default());
        let d = m.add_vertex(p(1.0, 1.0), VFlags::default());
        let t0 = m.add_tri([a, b, c]);
        let t1 = m.add_tri([b, d, c]);
        // Shared edge is (b, c): opposite a in t0 (index 0), opposite d in t1
        // (index 1).
        m.link(t0, 0, t1, 1);
        m
    }

    #[test]
    fn build_and_validate() {
        let m = two_tris();
        assert_eq!(m.num_tris(), 2);
        assert_eq!(m.num_vertices(), 4);
        m.validate().unwrap();
    }

    #[test]
    fn edge_verts_direction() {
        let m = two_tris();
        // t0 = (a=0, b=1, c=2); edge 0 (opposite a) runs b→c = 1→2.
        assert_eq!(m.edge_verts(EdgeRef { t: 0, e: 0 }), (1, 2));
        // Twin sees the reversed edge.
        let tw = m.twin(EdgeRef { t: 0, e: 0 }).unwrap();
        assert_eq!(m.edge_verts(tw), (2, 1));
        // Hull edge has no twin.
        assert!(m.twin(EdgeRef { t: 0, e: 1 }).is_none());
    }

    #[test]
    fn neighbor_symmetry_violation_detected() {
        let mut m = two_tris();
        m.set_nbr(0, 0, NO_TRI); // break one side
        assert!(m.validate().is_err());
    }

    #[test]
    fn orientation_violation_detected() {
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(1.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(0.0, 1.0), VFlags::default());
        m.add_tri([a, c, b]); // clockwise
        assert!(m.validate().is_err());
    }

    #[test]
    fn free_list_recycles_slots() {
        let mut m = two_tris();
        m.remove_tri(0);
        assert_eq!(m.num_tris(), 1);
        assert!(!m.is_alive(0));
        let t = m.add_tri([0, 1, 3]);
        assert_eq!(t, 0, "freed slot must be reused");
        assert_eq!(m.num_tris(), 2);
    }

    #[test]
    fn constrained_flags() {
        let mut m = two_tris();
        m.tri_mut(0).set_constrained(0, true);
        assert!(m.tri(0).is_constrained(0));
        // Mismatch across the shared edge is a validation error.
        assert!(m.validate().is_err());
        m.tri_mut(1).set_constrained(1, true);
        m.validate().unwrap();
        m.tri_mut(0).set_constrained(0, false);
        assert!(!m.tri(0).is_constrained(0));
    }

    #[test]
    fn find_edge_and_directed_edge() {
        let m = two_tris();
        assert_eq!(m.find_edge(0, 1, 2), Some(0));
        assert_eq!(m.find_edge(0, 2, 1), Some(0));
        assert_eq!(m.find_edge(0, 1, 3), None);
        let er = m.find_directed_edge(1, 2, 0).unwrap();
        assert_eq!(m.edge_verts(er), (1, 2));
        let er2 = m.find_directed_edge(2, 1, 0).unwrap();
        assert_eq!(m.edge_verts(er2), (2, 1));
    }

    #[test]
    fn total_area_of_unit_square() {
        let m = two_tris();
        assert!((m.total_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vflags_ops() {
        let mut f = VFlags::default();
        assert!(!f.is(VFlags::SUPER));
        f.set(VFlags::SUPER | VFlags::INPUT);
        assert!(f.is(VFlags::SUPER));
        assert!(f.is(VFlags::INPUT));
        assert!(!f.is(VFlags::STEINER));
    }
}
