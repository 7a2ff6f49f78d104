//! Incremental point insertion with Lawson flips.
//!
//! Insertion follows the classic incremental (constrained-)Delaunay scheme:
//! locate the point, split the containing triangle 1→3 (or the containing
//! edge 2→4 / 1→2 on the hull), then restore the Delaunay property by
//! recursive edge flips. Flips never cross constrained edges, which is
//! exactly what makes the result a *constrained* Delaunay triangulation.
//!
//! Splitting an edge preserves its constrained flag on both halves, so
//! inserting the midpoint of a segment (refinement's "split encroached
//! segment") goes through the same code path.

use crate::locate::{Location, WalkMode};
use crate::mesh::{EdgeRef, TId, TriMesh, VFlags, VId, NO_TRI};
use pumg_geometry::{incircle, BBox, Point2};

/// Live triangles per cell of [`TriMesh::insert_points`]'s start grid.
const TRIS_PER_CELL: f64 = 8.0;

/// Result of [`TriMesh::insert_point`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new vertex was created.
    Inserted(VId),
    /// The point coincides with an existing vertex.
    Duplicate(VId),
    /// The point lies outside the triangulated region; nothing was changed.
    Outside,
}

impl TriMesh {
    /// Insert `p` into the triangulation, restoring the (constrained)
    /// Delaunay property.
    pub fn insert_point(&mut self, p: pumg_geometry::Point2, flags: VFlags) -> InsertOutcome {
        let loc = self.locate(p);
        self.insert_at_location(p, loc, flags)
    }

    /// Insert `pts` in order. Returns the outcomes of, and leaves the same
    /// mesh — arena, location hint and `encode()` bytes — as, calling
    /// [`TriMesh::insert_point`] on each point in turn; only the walks are
    /// shorter when the points are many and scattered.
    ///
    /// Each walk starts from the point's cell of a transient grid over the
    /// points' bounding box (about `TRIS_PER_CELL` live triangles per
    /// cell, each cell holding a triangle with a corner in it, refreshed
    /// after every insertion) instead of from wherever the previous
    /// insertion ended. Only a walk that ends strictly [`Location::Inside`]
    /// is used: the triangle strictly containing a point is unique, so it
    /// is what the hint walk finds too — provided that walk cannot leave the
    /// mesh early, which holds when the mesh is convex. Every other result
    /// (and a point off the grid or in an empty cell) takes
    /// [`TriMesh::insert_point`], which walks from the hint. The grid is
    /// built only when every hull edge lies on the hull's bounding
    /// rectangle (`TriMesh::rectangular_hull`); on any other mesh —
    /// carved, holed, L-shaped — walks from different starts can disagree
    /// (`Outside` against `Inside`), so the whole call is the plain loop.
    pub fn insert_points(&mut self, pts: &[Point2], flags: VFlags) -> Vec<InsertOutcome> {
        let mut grid = match pts {
            [] => None,
            _ => self
                .rectangular_hull()
                .map(|hull| StartGrid::new(self, hull, pts)),
        };
        let mut out = Vec::with_capacity(pts.len());
        for &p in pts {
            let Some(start) = grid.as_mut().and_then(|g| g.start_of(p)) else {
                out.push(self.insert_point(p, flags));
                continue;
            };
            let walk = self
                .is_alive(*start)
                .then(|| self.locate_from(p, *start, WalkMode::Free));
            out.push(match walk {
                Some(Location::Inside(t)) => {
                    self.hint = t; // what `locate` leaves behind
                    self.insert_at_location(p, Location::Inside(t), flags)
                }
                _ => self.insert_point(p, flags),
            });
            *start = self.hint;
        }
        out
    }

    /// The hull's bounding rectangle, if every hull edge lies on it — the
    /// mesh then covers exactly that rectangle, convex and without holes.
    /// `None` for any other shape and for an empty mesh.
    ///
    /// One pass: every hull edge must be horizontal or vertical, the
    /// horizontal ones on at most two lines `y = c` and the vertical ones on
    /// at most two lines `x = c`. A closed boundary drawn on two horizontal
    /// and two vertical lines can turn only where they cross, so it is the
    /// rectangle they bound; a hole would be a second such boundary.
    pub(crate) fn rectangular_hull(&self) -> Option<BBox> {
        let (mut xs, mut ys) = ([f64::NAN; 2], [f64::NAN; 2]);
        for tri in self.tris.iter().filter(|t| !t.is_dead()) {
            for e in (0..3).filter(|&e| tri.nbr[e] == NO_TRI) {
                let a = self.point(tri.v[(e + 1) % 3]);
                let b = self.point(tri.v[(e + 2) % 3]);
                let on_a_line = if a.y == b.y {
                    admit_line(&mut ys, a.y)
                } else {
                    a.x == b.x && admit_line(&mut xs, a.x)
                };
                if !on_a_line {
                    return None;
                }
            }
        }
        // `min`/`max` skip a NaN: a missing line gives a zero-width side.
        let rect = BBox::new(
            Point2::new(xs[0].min(xs[1]), ys[0].min(ys[1])),
            Point2::new(xs[0].max(xs[1]), ys[0].max(ys[1])),
        );
        (rect.width() > 0.0 && rect.height() > 0.0).then_some(rect)
    }

    /// Insert `p` at a previously computed location.
    pub fn insert_at_location(
        &mut self,
        p: pumg_geometry::Point2,
        loc: Location,
        mut flags: VFlags,
    ) -> InsertOutcome {
        match loc {
            Location::OnVertex(_, v) => InsertOutcome::Duplicate(v),
            Location::Outside(_) => InsertOutcome::Outside,
            Location::Inside(t) => {
                let v = self.add_vertex(p, flags);
                self.split_tri_1_3(t, v);
                self.legalize(v);
                self.hint = self.any_tri_of_recent(v);
                InsertOutcome::Inserted(v)
            }
            Location::OnEdge(er) => {
                // Dedupe against the surrounding quad: callers such as
                // segment splitting compute the insertion point themselves
                // (bypassing locate's vertex check), and a coordinate that
                // already exists as the quad's apex would create a
                // degenerate triangle. This happens in practice: a chord
                // midpoint is not exactly collinear with the chord in f64,
                // so a re-inserted midpoint can sit an ulp off the edge as
                // an ordinary vertex, and the chord's own midpoint split
                // then recomputes the identical coordinates.
                let tri = *self.tri(er.t);
                for &vv in &tri.v {
                    if self.point(vv) == p {
                        return InsertOutcome::Duplicate(vv);
                    }
                }
                if let Some(tw) = self.twin(er) {
                    let apex = self.tri(tw.t).v[tw.e];
                    if self.point(apex) == p {
                        return InsertOutcome::Duplicate(apex);
                    }
                }
                if !self.can_split_edge(er, p) {
                    // Degenerate neighborhood (the point is not strictly
                    // inside the edge's quad — exactly-collinear chains can
                    // do this): fall back to the exact classification and
                    // insert there, or give up.
                    return match self.locate_from(p, er.t, WalkMode::Free) {
                        Location::Inside(t) => {
                            let v = self.add_vertex(p, flags);
                            self.split_tri_1_3(t, v);
                            self.legalize(v);
                            self.hint = self.any_tri_of_recent(v);
                            InsertOutcome::Inserted(v)
                        }
                        Location::OnVertex(_, v) => InsertOutcome::Duplicate(v),
                        Location::OnEdge(er2) if er2 != er && self.can_split_edge(er2, p) => {
                            self.insert_at_location(p, Location::OnEdge(er2), flags)
                        }
                        _ => InsertOutcome::Outside,
                    };
                }
                if self.tri(er.t).is_constrained(er.e) {
                    flags.set(VFlags::BOUNDARY);
                }
                let v = self.add_vertex(p, flags);
                self.split_edge_2_4(er, v);
                self.legalize(v);
                self.hint = self.any_tri_of_recent(v);
                InsertOutcome::Inserted(v)
            }
        }
    }

    /// Cheap hint refresh: the most recently created triangles contain `v`;
    /// scan the tail of the arena.
    fn any_tri_of_recent(&self, v: VId) -> TId {
        let n = self.tris.len();
        for i in (0..n).rev().take(8) {
            let t = i as TId;
            if self.is_alive(t) && self.tri(t).index_of(v).is_some() {
                return t;
            }
        }
        self.hint
    }

    /// Split triangle `t` into three at interior vertex `v`. Leaves the
    /// edges to legalize (each is the edge opposite `v` in a new triangle)
    /// on the scratch stack.
    fn split_tri_1_3(&mut self, t: TId, v: VId) {
        let old = *self.tri(t);
        let [a, b, c] = old.v;
        // Old neighbors and constrained flags by opposite-vertex index.
        let (n_a, n_b, n_c) = (old.nbr[0], old.nbr[1], old.nbr[2]);
        let (c_a, c_b, c_c) = (
            old.is_constrained(0),
            old.is_constrained(1),
            old.is_constrained(2),
        );

        // Reuse slot t for t1 = [a, b, v]; allocate t2 = [b, c, v],
        // t3 = [c, a, v].
        self.tris[t as usize].v = [a, b, v];
        self.tris[t as usize].nbr = [NO_TRI; 3];
        self.tris[t as usize].constrained = 0;
        let t1 = t;
        let t2 = self.add_tri([b, c, v]);
        let t3 = self.add_tri([c, a, v]);
        // n_alive: add_tri incremented twice; slot reuse keeps t alive. Net
        // +2 triangles, correct.

        // t1 = [a, b, v]: edge0 (opp a) = b→v inner→t2(edge1: v→b);
        // edge1 (opp b) = v→a inner→t3(edge0);
        // edge2 (opp v) = a→b outer = old opp c.
        // t2 = [b, c, v]: edge0 = c→v inner→t3(edge1); edge1 = v→b → t1;
        // edge2 = b→c outer = old opp a.
        // t3 = [c, a, v]: edge0 = a→v inner→t1; edge1 = v→c → t2;
        // edge2 = c→a outer = old opp b.
        self.link(t1, 0, t2, 1);
        self.link(t2, 0, t3, 1);
        self.link(t3, 0, t1, 1);
        self.wire_outer(t1, 2, n_c, t, c_c);
        self.wire_outer(t2, 2, n_a, t, c_a);
        self.wire_outer(t3, 2, n_b, t, c_b);

        #[cfg(debug_assertions)]
        {
            use pumg_geometry::{orient2d, Orientation};
            for &tt in &[t1, t2, t3] {
                let [x, y, z] = self.tri_points(tt);
                if orient2d(x, y, z) != Orientation::CounterClockwise {
                    panic!("1->3 split produced non-CCW {tt}: {x:?} {y:?} {z:?} (v={v})");
                }
            }
        }
        debug_assert!(self.stack.is_empty());
        self.stack.extend([
            EdgeRef { t: t1, e: 2 },
            EdgeRef { t: t2, e: 2 },
            EdgeRef { t: t3, e: 2 },
        ]);
    }

    /// Would splitting edge `er` at point `p` produce only CCW triangles?
    /// The split point is usually the computed midpoint of a segment,
    /// which is *near* but not exactly on the edge; the split is safe iff
    /// `p` lies strictly inside the quad formed by the edge's two
    /// triangles — checked here with exact orientation tests.
    fn can_split_edge(&self, er: EdgeRef, p: pumg_geometry::Point2) -> bool {
        use pumg_geometry::{orient2d, Orientation};
        let tri = self.tri(er.t);
        let pa = self.point(tri.v[(er.e + 1) % 3]);
        let pb = self.point(tri.v[(er.e + 2) % 3]);
        let pc = self.point(tri.v[er.e]);
        // T1 = [a, p, c], T2 = [p, b, c].
        if orient2d(pa, p, pc) != Orientation::CounterClockwise
            || orient2d(p, pb, pc) != Orientation::CounterClockwise
        {
            return false;
        }
        if let Some(tw) = self.twin(er) {
            let pd = self.point(self.tri(tw.t).v[tw.e]);
            // T3 = [b, p, d], T4 = [p, a, d].
            if orient2d(pb, p, pd) != Orientation::CounterClockwise
                || orient2d(p, pa, pd) != Orientation::CounterClockwise
            {
                return false;
            }
        }
        true
    }

    /// Split the edge `er` at vertex `v` which lies exactly on it. Handles
    /// interior edges (2→4), hull edges (1→2), and constrained edges (the
    /// flag is inherited by both halves). Leaves the edges to legalize on
    /// the scratch stack.
    fn split_edge_2_4(&mut self, er: EdgeRef, v: VId) {
        let t = er.t;
        let old_t = *self.tri(t);
        let e = er.e;
        let a = old_t.v[(e + 1) % 3];
        let b = old_t.v[(e + 2) % 3];
        let c = old_t.v[e];
        let seg_flag = old_t.is_constrained(e);
        // Old outer context of triangle t: edges (c→a) opposite b, (b→c)
        // opposite a.
        let n_opp_a = old_t.nbr[(e + 1) % 3];
        let n_opp_b = old_t.nbr[(e + 2) % 3];
        let c_opp_a = old_t.is_constrained((e + 1) % 3);
        let c_opp_b = old_t.is_constrained((e + 2) % 3);
        let twin = self.twin(er);

        // T1 = [a, v, c] reuses slot t; T2 = [v, b, c].
        self.tris[t as usize].v = [a, v, c];
        self.tris[t as usize].nbr = [NO_TRI; 3];
        self.tris[t as usize].constrained = 0;
        let t1 = t;
        let t2 = self.add_tri([v, b, c]);

        // T1 = [a,v,c]: edge0 (opp a) = v→c inner→T2(edge1: c→v);
        // edge1 (opp v) = c→a outer (old opp b, flag c_opp_b);
        // edge2 (opp c) = a→v: bottom half — hull/twin side, flag seg_flag.
        // T2 = [v,b,c]: edge0 (opp v) = b→c outer (old opp a, flag c_opp_a);
        // edge1 (opp b) = c→v inner→T1; edge2 (opp c) = v→b bottom half.
        self.link(t1, 0, t2, 1);
        self.wire_outer(t1, 1, n_opp_b, t, c_opp_b);
        self.wire_outer(t2, 0, n_opp_a, t, c_opp_a);
        self.tri_mut(t1).set_constrained(2, seg_flag);
        self.tri_mut(t2).set_constrained(2, seg_flag);

        debug_assert!(self.stack.is_empty());
        self.stack
            .extend([EdgeRef { t: t1, e: 1 }, EdgeRef { t: t2, e: 0 }]);

        match twin {
            None => {
                // Hull edge: bottom halves stay open.
                self.set_nbr(t1, 2, NO_TRI);
                self.set_nbr(t2, 2, NO_TRI);
            }
            Some(tw) => {
                let n = tw.t;
                let old_n = *self.tri(n);
                let j = tw.e;
                let d = old_n.v[j];
                debug_assert!(
                    old_n.v[(j + 1) % 3] == b && old_n.v[(j + 2) % 3] == a,
                    "twin mismatch: t={t} e={e} old_t={old_t:?} n={n} j={j} old_n={old_n:?} a={a} b={b} c={c} d={d} validate={:?}",
                    self.validate()
                );
                let m_opp_b = old_n.nbr[(j + 1) % 3]; // edge d→... opp b = a→d
                let m_opp_a = old_n.nbr[(j + 2) % 3]; // edge d→b
                let cm_opp_b = old_n.is_constrained((j + 1) % 3);
                let cm_opp_a = old_n.is_constrained((j + 2) % 3);

                // T3 = [b, v, d] reuses slot n; T4 = [v, a, d].
                self.tris[n as usize].v = [b, v, d];
                self.tris[n as usize].nbr = [NO_TRI; 3];
                self.tris[n as usize].constrained = 0;
                let t3 = n;
                let t4 = self.add_tri([v, a, d]);

                // T3 = [b,v,d]: edge0 (opp b) = v→d inner→T4(edge1: d→v);
                // edge1 (opp v) = d→b outer (old n opp a);
                // edge2 (opp d) = b→v top half → pairs T2 edge2 (v→b).
                // T4 = [v,a,d]: edge0 (opp v) = a→d outer (old n opp b);
                // edge1 (opp a) = d→v inner→T3;
                // edge2 (opp d) = v→a top half → pairs T1 edge2 (a→v).
                self.link(t3, 0, t4, 1);
                self.wire_outer(t3, 1, m_opp_a, n, cm_opp_a);
                self.wire_outer(t4, 0, m_opp_b, n, cm_opp_b);
                self.tri_mut(t3).set_constrained(2, seg_flag);
                self.tri_mut(t4).set_constrained(2, seg_flag);
                self.link(t2, 2, t3, 2);
                self.link(t1, 2, t4, 2);

                self.stack.push(EdgeRef { t: t3, e: 1 });
                self.stack.push(EdgeRef { t: t4, e: 0 });
            }
        }
        #[cfg(debug_assertions)]
        {
            use pumg_geometry::{orient2d, Orientation};
            for er2 in &self.stack {
                let [x, y, z] = self.tri_points(er2.t);
                if orient2d(x, y, z) != Orientation::CounterClockwise {
                    panic!(
                        "2->4 split produced non-CCW {}: {x:?} {y:?} {z:?} (v={v})",
                        er2.t
                    );
                }
            }
        }
    }

    /// Point an outer neighbor at a rebuilt triangle: the neighbor used to
    /// reference `old_id`; make it reference `t` (and vice versa), carrying
    /// the constrained flag.
    fn wire_outer(&mut self, t: TId, e: usize, outer: TId, old_id: TId, constrained: bool) {
        self.tri_mut(t).set_constrained(e, constrained);
        if outer == NO_TRI {
            self.set_nbr(t, e, NO_TRI);
            return;
        }
        self.set_nbr(t, e, outer);
        if let Some(j) = self.tri(outer).nbr_index_of(old_id) {
            self.set_nbr(outer, j, t);
        } else if let Some(j) = self.tri(outer).nbr_index_of(t) {
            // Already rewired (slot reuse can make old_id == t).
            let _ = j;
        } else {
            debug_assert!(
                false,
                "outer triangle lost its back-reference: t={t} e={e} outer={outer} old_id={old_id} outer_tri={:?}",
                self.tri(outer)
            );
        }
    }

    /// Lawson legalization: each edge on the scratch stack is opposite the
    /// new vertex `v`; flip while the Delaunay criterion is violated, never
    /// crossing constrained edges. Drains the stack.
    fn legalize(&mut self, v: VId) {
        while let Some(er) = self.stack.pop() {
            if !self.is_alive(er.t) {
                continue;
            }
            let tri = *self.tri(er.t);
            // The edge must still be opposite v; splits/flips may have
            // restructured things.
            if tri.v[er.e] != v {
                continue;
            }
            if tri.is_constrained(er.e) {
                continue;
            }
            let n = tri.nbr[er.e];
            if n == NO_TRI {
                continue;
            }
            let ntri = *self.tri(n);
            let j = match ntri.nbr_index_of(er.t) {
                Some(j) => j,
                None => continue,
            };
            let q = ntri.v[j];
            let [a, b, c] = [
                self.point(tri.v[0]),
                self.point(tri.v[1]),
                self.point(tri.v[2]),
            ];
            if incircle(a, b, c, self.point(q)) > 0 {
                let (e1, e2) = self.flip(er);
                self.stack.push(e1);
                self.stack.push(e2);
            }
        }
    }

    /// Flip the (non-constrained, interior) edge `er`. Returns the two
    /// edges opposite the original apex `t.v[er.e]` in the new triangles —
    /// the edges legalization must revisit.
    ///
    /// Panics in debug builds if the edge is constrained or on the hull.
    pub fn flip(&mut self, er: EdgeRef) -> (EdgeRef, EdgeRef) {
        let t = er.t;
        let e = er.e;
        let old_t = *self.tri(t);
        debug_assert!(!old_t.is_constrained(e), "cannot flip a constrained edge");
        let n = old_t.nbr[e];
        debug_assert_ne!(n, NO_TRI, "cannot flip a hull edge");
        let old_n = *self.tri(n);
        let j = old_n.nbr_index_of(t).expect("asymmetric neighbor link");

        let p = old_t.v[e];
        let a = old_t.v[(e + 1) % 3];
        let b = old_t.v[(e + 2) % 3];
        let q = old_n.v[j];
        debug_assert_eq!(old_n.v[(j + 1) % 3], b);
        debug_assert_eq!(old_n.v[(j + 2) % 3], a);

        // Outer context: t side: tA across p→a (opp b), tB across b→p
        // (opp a); n side: nA across a→q (opp b), nB across q→b (opp a).
        let t_a = old_t.nbr[(e + 2) % 3];
        let c_ta = old_t.is_constrained((e + 2) % 3);
        let t_b = old_t.nbr[(e + 1) % 3];
        let c_tb = old_t.is_constrained((e + 1) % 3);
        let n_a = old_n.nbr[(j + 1) % 3];
        let c_na = old_n.is_constrained((j + 1) % 3);
        let n_b = old_n.nbr[(j + 2) % 3];
        let c_nb = old_n.is_constrained((j + 2) % 3);

        // New triangles: t' = [p, a, q] (slot t), n' = [p, q, b] (slot n).
        self.tris[t as usize].v = [p, a, q];
        self.tris[t as usize].nbr = [NO_TRI; 3];
        self.tris[t as usize].constrained = 0;
        self.tris[n as usize].v = [p, q, b];
        self.tris[n as usize].nbr = [NO_TRI; 3];
        self.tris[n as usize].constrained = 0;

        // t' = [p,a,q]: edge0 (opp p) = a→q outer nA; edge1 (opp a) = q→p
        // inner; edge2 (opp q) = p→a outer tA.
        // n' = [p,q,b]: edge0 (opp p) = q→b outer nB; edge1 (opp q) = b→p
        // outer tB; edge2 (opp b) = p→q inner.
        self.link(t, 1, n, 2);
        self.wire_outer(t, 0, n_a, n, c_na);
        self.wire_outer(t, 2, t_a, t, c_ta);
        self.wire_outer(n, 0, n_b, n, c_nb);
        self.wire_outer(n, 1, t_b, t, c_tb);

        #[cfg(debug_assertions)]
        {
            use pumg_geometry::{orient2d, Orientation};
            for &tt in &[t, n] {
                let [x, y, z] = self.tri_points(tt);
                if orient2d(x, y, z) != Orientation::CounterClockwise {
                    panic!(
                        "flip produced non-CCW triangle {tt}: p={p} a={a} b={b} q={q}                          pp={:?} pa={:?} pb={:?} pq={:?}",
                        self.point(p), self.point(a), self.point(b), self.point(q)
                    );
                }
            }
        }
        // Edges opposite p in the new triangles:
        (EdgeRef { t, e: 0 }, EdgeRef { t: n, e: 0 })
    }
}

/// Record line `c` among at most two (a NaN slot is free); false if it
/// would be a third.
fn admit_line(lines: &mut [f64; 2], c: f64) -> bool {
    if lines.contains(&c) {
        return true;
    }
    match lines.iter_mut().find(|v| v.is_nan()) {
        Some(free) => {
            *free = c;
            true
        }
        None => false,
    }
}

/// Walk starts for [`TriMesh::insert_points`]: square cells over the part
/// of the hull the points span, one triangle per cell (`NO_TRI` if none).
struct StartGrid {
    origin: Point2,
    /// Cells per unit length.
    scale: f64,
    nx: usize,
    ny: usize,
    start: Vec<TId>,
}

impl StartGrid {
    /// Cells of about [`TRIS_PER_CELL`] triangles of a mesh that covers
    /// `hull`, each seeded with a live triangle whose first corner is in it.
    fn new(mesh: &TriMesh, hull: BBox, pts: &[Point2]) -> StartGrid {
        let span = BBox::of_points(pts);
        let origin = Point2::new(span.min.x.max(hull.min.x), span.min.y.max(hull.min.y));
        let far = Point2::new(span.max.x.min(hull.max.x), span.max.y.min(hull.max.y));
        let cell_area = TRIS_PER_CELL * hull.width() * hull.height() / mesh.num_tris() as f64;
        let scale = cell_area.sqrt().recip();
        // `as` saturates (a NaN or negative span gives 0): at least one cell
        // per axis, and on a hull thin enough to leave one row, no more
        // cells than triangles.
        let cells = |len: f64| ((len * scale) as usize).min(mesh.num_tris()) + 1;
        let mut grid = StartGrid {
            origin,
            scale,
            nx: cells(far.x - origin.x),
            ny: cells(far.y - origin.y),
            start: Vec::new(),
        };
        grid.start = vec![NO_TRI; grid.nx * grid.ny];
        for t in mesh.tri_ids() {
            if let Some(cell) = grid.cell(mesh.point(mesh.tri(t).v[0])) {
                grid.start[cell] = t;
            }
        }
        grid
    }

    /// The cell holding `p`, if `p` is on the grid.
    fn cell(&self, p: Point2) -> Option<usize> {
        let fx = (p.x - self.origin.x) * self.scale;
        let fy = (p.y - self.origin.y) * self.scale;
        if !(fx >= 0.0 && fy >= 0.0) {
            return None;
        }
        let (ix, iy) = (fx as usize, fy as usize);
        (ix < self.nx && iy < self.ny).then(|| iy * self.nx + ix)
    }

    /// The walk start stored for `p`'s cell, if `p` is on the grid.
    fn start_of(&mut self, p: Point2) -> Option<&mut TId> {
        let cell = self.cell(p)?;
        Some(&mut self.start[cell])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::VFlags;
    use pumg_geometry::Point2;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// A big CCW square made of two triangles, to insert into.
    fn square() -> TriMesh {
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(4.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(4.0, 4.0), VFlags::default());
        let d = m.add_vertex(p(0.0, 4.0), VFlags::default());
        let t0 = m.add_tri([a, b, c]);
        let t1 = m.add_tri([a, c, d]);
        // shared edge (a,c): opposite b in t0 (index 1), opposite d in t1
        // (index 2).
        m.link(t0, 1, t1, 2);
        m
    }

    #[test]
    fn insert_interior_point() {
        let mut m = square();
        let out = m.insert_point(p(1.0, 0.5), VFlags::default());
        assert!(matches!(out, InsertOutcome::Inserted(4)));
        assert_eq!(m.num_tris(), 4);
        m.validate().unwrap();
        m.validate_delaunay().unwrap();
        assert!((m.total_area() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn insert_duplicate_returns_existing() {
        let mut m = square();
        m.insert_point(p(1.0, 1.0), VFlags::default());
        let out = m.insert_point(p(1.0, 1.0), VFlags::default());
        assert_eq!(out, InsertOutcome::Duplicate(4));
        m.validate().unwrap();
    }

    #[test]
    fn insert_on_interior_edge() {
        let mut m = square();
        // (2,2) lies exactly on the diagonal a-c.
        let out = m.insert_point(p(2.0, 2.0), VFlags::default());
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        m.validate().unwrap();
        m.validate_delaunay().unwrap();
        assert_eq!(m.num_tris(), 4);
        assert!((m.total_area() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn insert_on_hull_edge() {
        let mut m = square();
        let out = m.insert_point(p(2.0, 0.0), VFlags::default());
        assert!(matches!(out, InsertOutcome::Inserted(_)));
        m.validate().unwrap();
        m.validate_delaunay().unwrap();
        assert_eq!(m.num_tris(), 3);
        assert!((m.total_area() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn insert_outside_is_rejected() {
        let mut m = square();
        assert_eq!(
            m.insert_point(p(10.0, 10.0), VFlags::default()),
            InsertOutcome::Outside
        );
        assert_eq!(m.num_tris(), 2);
        m.validate().unwrap();
    }

    #[test]
    fn constrained_edge_split_inherits_flag() {
        let mut m = square();
        // Constrain hull edge a-b (edge opposite c in t0: find it).
        let e = m.find_edge(0, 0, 1).unwrap();
        m.tri_mut(0).set_constrained(e, true);
        m.insert_point(p(2.0, 0.0), VFlags::default());
        m.validate().unwrap();
        // Both halves of the bottom edge must be constrained.
        let mut constrained_hull_edges = 0;
        for t in m.tri_ids().collect::<Vec<_>>() {
            for e in 0..3 {
                if m.tri(t).is_constrained(e) {
                    let (x, y) = m.edge_verts(crate::mesh::EdgeRef { t, e });
                    let (px, py) = (m.point(x), m.point(y));
                    assert!(
                        px.y == 0.0 && py.y == 0.0,
                        "constrained edge moved off the bottom"
                    );
                    constrained_hull_edges += 1;
                }
            }
        }
        assert_eq!(constrained_hull_edges, 2);
    }

    #[test]
    fn constrained_edge_blocks_flips() {
        let mut m = square();
        // Constrain the diagonal a-c.
        let e = m.find_edge(0, 0, 2).unwrap();
        m.tri_mut(0).set_constrained(e, true);
        let e1 = m.find_edge(1, 0, 2).unwrap();
        m.tri_mut(1).set_constrained(e1, true);
        // Insert a point that would normally flip the diagonal away.
        m.insert_point(p(3.9, 0.1), VFlags::default());
        m.validate().unwrap();
        // Diagonal must survive as a constrained edge.
        let mut found = false;
        for t in m.tri_ids().collect::<Vec<_>>() {
            for e in 0..3 {
                if m.tri(t).is_constrained(e) {
                    found = true;
                }
            }
        }
        assert!(found, "constrained diagonal was destroyed");
    }

    #[test]
    fn many_random_inserts_stay_delaunay() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut m = square();
        for _ in 0..300 {
            let q = p(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0));
            m.insert_point(q, VFlags::default());
        }
        m.validate().unwrap();
        m.validate_delaunay().unwrap();
        assert!((m.total_area() - 16.0).abs() < 1e-6);
    }

    fn refined(b: crate::builder::MeshBuilder) -> TriMesh {
        let mut m = b.build().unwrap();
        crate::refine::refine(&mut m, &crate::refine::RefineParams::with_uniform_size(0.1));
        m
    }

    #[test]
    fn rectangular_hull_accepts_only_a_rectangle() {
        use crate::builder::MeshBuilder;
        let rect = refined(MeshBuilder::rectangle(-1.0, 0.5, 2.0, 1.75));
        assert_eq!(
            rect.rectangular_hull(),
            Some(BBox::new(p(-1.0, 0.5), p(2.0, 1.75)))
        );
        let holed = refined(
            MeshBuilder::rectangle(0.0, 0.0, 2.0, 2.0).with_circular_hole(p(1.0, 1.0), 0.4, 12),
        );
        assert_eq!(holed.rectangular_hull(), None);
        let mut skewed = square();
        skewed.pts[2] = p(4.0, 5.0);
        assert_eq!(skewed.rectangular_hull(), None);
        assert_eq!(TriMesh::new().rectangular_hull(), None);
    }

    /// The grid path leaves what the per-point loop leaves, down to the
    /// location hint — with duplicates, points on edges and points outside
    /// in the mix.
    #[test]
    fn insert_points_matches_the_loop_including_the_hint() {
        use rand::{Rng, SeedableRng};
        let base = refined(crate::builder::MeshBuilder::rectangle(0.0, 0.0, 3.0, 2.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut pts: Vec<Point2> = (0..400)
            .map(|_| p(rng.gen_range(-0.2..3.2), rng.gen_range(-0.2..2.2)))
            .collect();
        pts.extend((0..40).map(|i| base.point(i * 3)));
        pts.extend([p(1.5, 0.0), p(0.0, 1.0), p(3.0, 0.25)]);
        pts.sort_by_key(|a| (a.x.to_bits(), a.y.to_bits()));
        let mut looped = base.clone();
        let want: Vec<_> = pts
            .iter()
            .map(|&q| looped.insert_point(q, VFlags::default()))
            .collect();
        let mut batched = base;
        assert!(batched.rectangular_hull().is_some());
        assert_eq!(batched.insert_points(&pts, VFlags::default()), want);
        assert_eq!(batched.hint, looped.hint);
        assert_eq!(batched.encode(), looped.encode());
        assert!(want.contains(&InsertOutcome::Outside));
        assert!(want
            .iter()
            .any(|o| matches!(o, InsertOutcome::Duplicate(_))));
        batched.validate().unwrap();
    }

    #[test]
    fn grid_inserts_with_exact_collinearities() {
        // A lattice produces masses of exactly-collinear and cocircular
        // configurations — the predicate stress test.
        let mut m = square();
        for i in 0..=8 {
            for j in 0..=8 {
                m.insert_point(p(i as f64 * 0.5, j as f64 * 0.5), VFlags::default());
            }
        }
        m.validate().unwrap();
        m.validate_delaunay().unwrap();
        assert!((m.total_area() - 16.0).abs() < 1e-9);
    }
}
