//! Point location by remembering walk.
//!
//! Starting from a hint triangle (the last one touched), repeatedly step
//! through the edge that has the query point strictly on its outer side.
//! All orientation tests use the exact predicates, so the classification
//! (`Inside` / `OnEdge` / `OnVertex`) is reliable. Degenerate walk cycles
//! are broken by alternating the preferred exit edge; a step-count guard
//! falls back to an exhaustive scan (which cannot fail).

use crate::mesh::{EdgeRef, TId, TriMesh, VId, NO_TRI};
use pumg_geometry::{orient2d, Orientation, Point2};

/// Where a query point lies relative to the triangulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// Strictly inside triangle `t`.
    Inside(TId),
    /// Exactly on the (interior or hull) edge `e` of triangle `t`.
    OnEdge(EdgeRef),
    /// Coincides with an existing vertex.
    OnVertex(TId, VId),
    /// Outside the triangulated region; the walk exited through the hull at
    /// edge `e` of triangle `t`.
    Outside(EdgeRef),
}

/// If `true`, the walk refuses to cross constrained edges and reports
/// [`Location::Outside`] at the blocking edge instead. Used by refinement to
/// detect circumcenters hidden behind a segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WalkMode {
    #[default]
    Free,
    StopAtConstrained,
}

/// "No edge": the walk did not enter the triangle through any edge.
const NO_EDGE: usize = 3;

#[cfg(test)]
thread_local! {
    /// Test hook: cap on walk steps before the exhaustive fallback, so a
    /// regression test can force the fallback on a tiny mesh.
    static MAX_STEPS_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

impl TriMesh {
    /// Locate `p`, walking from the internal hint triangle.
    pub fn locate(&mut self, p: Point2) -> Location {
        let start = if self.hint != NO_TRI && self.is_alive(self.hint) {
            self.hint
        } else {
            match self.tri_ids().next() {
                Some(t) => t,
                None => panic!("locate on an empty triangulation"),
            }
        };
        let loc = self.locate_from(p, start, WalkMode::Free);
        self.hint = match loc {
            Location::Inside(t) | Location::OnVertex(t, _) => t,
            Location::OnEdge(e) | Location::Outside(e) => e.t,
        };
        loc
    }

    /// Bound on walk steps: a straight walk visits each triangle at most
    /// once; 4x slack, then switch to the exhaustive fallback.
    fn max_walk_steps(&self) -> usize {
        #[cfg(test)]
        if let Some(n) = MAX_STEPS_OVERRIDE.with(|c| c.get()) {
            return n;
        }
        4 * self.num_tris() + 16
    }

    /// Locate `p` starting the walk at triangle `start`. Allocation-free.
    pub fn locate_from(&self, p: Point2, start: TId, mode: WalkMode) -> Location {
        debug_assert!(self.is_alive(start));
        let mut t = start;
        let mut entered = NO_EDGE;
        let mut steps = 0usize;
        let max_steps = self.max_walk_steps();
        loop {
            match self.classify_in_tri(p, t, entered) {
                Classify::Inside => return Location::Inside(t),
                Classify::OnEdge(e) => return Location::OnEdge(EdgeRef { t, e }),
                Classify::OnVertex(v) => return Location::OnVertex(t, v),
                Classify::Exit(exits, n_exits) => {
                    // Alternate between the candidate exit edges to avoid
                    // cycling on degenerate configurations.
                    let pick = exits[steps % n_exits];
                    let tri = self.tri(t);
                    if mode == WalkMode::StopAtConstrained && tri.is_constrained(pick) {
                        return Location::Outside(EdgeRef { t, e: pick });
                    }
                    let n = tri.nbr[pick];
                    if n == NO_TRI {
                        return Location::Outside(EdgeRef { t, e: pick });
                    }
                    // `p` is strictly right of the edge just crossed, hence
                    // strictly left of it as seen from `n`: the exact
                    // predicate need not be asked again.
                    entered = self.tri(n).nbr_index_of(t).unwrap_or(NO_EDGE);
                    t = n;
                }
            }
            steps += 1;
            if steps > max_steps {
                return self.locate_exhaustive(p, start, mode);
            }
        }
    }

    /// O(n) fallback for a walk that ran out of steps. In `Free` mode every
    /// live triangle is tested. In `StopAtConstrained` mode only the
    /// triangles reachable from `start` without crossing a constrained
    /// edge are: a hit on the far side of a segment is exactly what that
    /// mode exists to refuse, so a point hidden behind a segment is
    /// reported `Outside` at a constrained edge of the reachable component
    /// that has the point beyond it — what the walk itself reports.
    #[cold]
    fn locate_exhaustive(&self, p: Point2, start: TId, mode: WalkMode) -> Location {
        let candidates: Vec<TId> = match mode {
            WalkMode::Free => self.tri_ids().collect(),
            WalkMode::StopAtConstrained => self.unconstrained_component(start),
        };
        let mut blocked = None;
        for t in candidates {
            match self.classify_in_tri(p, t, NO_EDGE) {
                Classify::Inside => return Location::Inside(t),
                Classify::OnEdge(e) => return Location::OnEdge(EdgeRef { t, e }),
                Classify::OnVertex(v) => return Location::OnVertex(t, v),
                Classify::Exit(exits, n_exits) => {
                    // Remember some boundary edge for the Outside report.
                    if blocked.is_none() {
                        let tri = self.tri(t);
                        blocked = exits[..n_exits]
                            .iter()
                            .rev()
                            .find(|&&e| {
                                tri.nbr[e] == NO_TRI
                                    || (mode == WalkMode::StopAtConstrained
                                        && tri.is_constrained(e))
                            })
                            .map(|&e| EdgeRef { t, e });
                    }
                }
            }
        }
        Location::Outside(blocked.unwrap_or(EdgeRef { t: 0, e: 0 }))
    }

    /// The live triangles reachable from `start` without crossing a
    /// constrained edge, in breadth-first order.
    fn unconstrained_component(&self, start: TId) -> Vec<TId> {
        let mut seen = vec![false; self.arena_len()];
        seen[start as usize] = true;
        let mut out = vec![start];
        let mut i = 0;
        while i < out.len() {
            let tri = self.tri(out[i]);
            i += 1;
            for e in 0..3 {
                let n = tri.nbr[e];
                if n != NO_TRI && !tri.is_constrained(e) && !seen[n as usize] {
                    seen[n as usize] = true;
                    out.push(n);
                }
            }
        }
        out
    }

    /// Exact classification of `p` against triangle `t`. `entered` is the
    /// edge of `t` the walk came in through (`p` is known to be strictly
    /// on its inner side), or `NO_EDGE`.
    #[inline]
    fn classify_in_tri(&self, p: Point2, t: TId, entered: usize) -> Classify {
        let tri = self.tri(t);
        let pts = self.tri_points(t);
        let mut collinear_edge = None;
        let mut exits = [0usize; 3];
        let mut n_exits = 0;
        for e in 0..3 {
            if e == entered {
                continue;
            }
            let a = pts[(e + 1) % 3];
            let b = pts[(e + 2) % 3];
            match orient2d(a, b, p) {
                Orientation::Clockwise => {
                    exits[n_exits] = e;
                    n_exits += 1;
                }
                Orientation::Collinear => collinear_edge = Some(e),
                Orientation::CounterClockwise => {}
            }
        }
        if n_exits > 0 {
            return Classify::Exit(exits, n_exits);
        }
        match collinear_edge {
            None => Classify::Inside,
            Some(e) => {
                // On the line of edge e, inside the triangle: vertex or edge
                // interior?
                let (a, b) = (tri.v[(e + 1) % 3], tri.v[(e + 2) % 3]);
                if self.point(a) == p {
                    Classify::OnVertex(a)
                } else if self.point(b) == p {
                    Classify::OnVertex(b)
                } else {
                    Classify::OnEdge(e)
                }
            }
        }
    }
}

enum Classify {
    Inside,
    OnEdge(usize),
    OnVertex(VId),
    /// The exit edges (`p` strictly outside) and how many of them.
    Exit([usize; 3], usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::VFlags;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn two_tris() -> TriMesh {
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(1.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(0.0, 1.0), VFlags::default());
        let d = m.add_vertex(p(1.0, 1.0), VFlags::default());
        let t0 = m.add_tri([a, b, c]);
        let t1 = m.add_tri([b, d, c]);
        m.link(t0, 0, t1, 1);
        m
    }

    #[test]
    fn locate_inside() {
        let mut m = two_tris();
        assert_eq!(m.locate(p(0.2, 0.2)), Location::Inside(0));
        assert_eq!(m.locate(p(0.8, 0.8)), Location::Inside(1));
    }

    #[test]
    fn locate_on_vertex() {
        let mut m = two_tris();
        match m.locate(p(1.0, 0.0)) {
            Location::OnVertex(_, v) => assert_eq!(v, 1),
            other => panic!("expected OnVertex, got {other:?}"),
        }
        match m.locate(p(1.0, 1.0)) {
            Location::OnVertex(_, v) => assert_eq!(v, 3),
            other => panic!("expected OnVertex, got {other:?}"),
        }
    }

    #[test]
    fn locate_on_shared_edge() {
        let mut m = two_tris();
        match m.locate(p(0.5, 0.5)) {
            Location::OnEdge(er) => {
                let (a, b) = m.edge_verts(er);
                assert!(matches!((a, b), (1, 2) | (2, 1)));
            }
            other => panic!("expected OnEdge, got {other:?}"),
        }
    }

    #[test]
    fn locate_on_hull_edge() {
        let mut m = two_tris();
        match m.locate(p(0.5, 0.0)) {
            Location::OnEdge(er) => {
                let (a, b) = m.edge_verts(er);
                assert!(matches!((a, b), (0, 1) | (1, 0)));
            }
            other => panic!("expected OnEdge, got {other:?}"),
        }
    }

    #[test]
    fn locate_outside() {
        let mut m = two_tris();
        assert!(matches!(m.locate(p(2.0, 2.0)), Location::Outside(_)));
        assert!(matches!(m.locate(p(-1.0, 0.5)), Location::Outside(_)));
    }

    #[test]
    fn walk_from_far_triangle() {
        let mut m = two_tris();
        // Prime the hint with t0, then locate in t1 and vice versa.
        m.hint = 0;
        assert_eq!(m.locate(p(0.9, 0.9)), Location::Inside(1));
        assert_eq!(m.locate(p(0.1, 0.1)), Location::Inside(0));
    }

    #[test]
    fn stop_at_constrained_mode() {
        let mut m = two_tris();
        // Constrain the shared edge (b,c): edge 0 of t0 / edge 1 of t1.
        m.tri_mut(0).set_constrained(0, true);
        m.tri_mut(1).set_constrained(1, true);
        // Walking from t0 toward a point in t1 must stop at the wall.
        match m.locate_from(p(0.9, 0.9), 0, WalkMode::StopAtConstrained) {
            Location::Outside(er) => {
                assert_eq!(er.t, 0);
                assert_eq!(er.e, 0);
            }
            other => panic!("expected Outside at the constrained edge, got {other:?}"),
        }
        // Free mode walks through.
        assert_eq!(
            m.locate_from(p(0.9, 0.9), 0, WalkMode::Free),
            Location::Inside(1)
        );
    }

    /// Forces the walk's step-count fallback for the duration of a test.
    struct StepCap;

    impl StepCap {
        fn set(n: usize) -> StepCap {
            MAX_STEPS_OVERRIDE.with(|c| c.set(Some(n)));
            StepCap
        }
    }

    impl Drop for StepCap {
        fn drop(&mut self) {
            MAX_STEPS_OVERRIDE.with(|c| c.set(None));
        }
    }

    /// A strip of four triangles `t0 | t1 ‖ t2 | t3` with the middle edge
    /// (b, d) constrained.
    fn walled_strip() -> TriMesh {
        let mut m = TriMesh::new();
        let a = m.add_vertex(p(0.0, 0.0), VFlags::default());
        let b = m.add_vertex(p(1.0, 0.0), VFlags::default());
        let c = m.add_vertex(p(0.0, 1.0), VFlags::default());
        let d = m.add_vertex(p(1.0, 1.0), VFlags::default());
        let e = m.add_vertex(p(2.0, 0.0), VFlags::default());
        let f = m.add_vertex(p(2.0, 1.0), VFlags::default());
        let t0 = m.add_tri([a, b, c]);
        let t1 = m.add_tri([b, d, c]);
        let t2 = m.add_tri([b, e, d]);
        let t3 = m.add_tri([e, f, d]);
        m.link(t0, 0, t1, 1);
        m.link(t1, 2, t2, 1);
        m.link(t2, 0, t3, 1);
        m.tri_mut(t1).set_constrained(2, true);
        m.tri_mut(t2).set_constrained(1, true);
        m.validate().unwrap();
        m
    }

    #[test]
    fn exhaustive_fallback_honours_walk_mode() {
        let m = walled_strip();
        // Inside t3, behind the wall seen from t0.
        let hidden = p(1.8, 0.9);
        // One free step, then the fallback.
        let _cap = StepCap::set(0);
        // Free mode: the fallback may look anywhere.
        assert_eq!(
            m.locate_from(hidden, 0, WalkMode::Free),
            Location::Inside(3)
        );
        // StopAtConstrained: the fallback must not return a location on the
        // far side of the segment (refinement would insert a hidden
        // circumcenter there); it reports the wall instead.
        match m.locate_from(hidden, 0, WalkMode::StopAtConstrained) {
            Location::Outside(er) => {
                assert!(m.tri(er.t).is_constrained(er.e), "blocking edge {er:?}");
                assert_eq!((er.t, er.e), (1, 2));
            }
            other => panic!("fallback crossed the constrained edge: {other:?}"),
        }
        // A point on the near side is still found by the fallback.
        assert_eq!(
            m.locate_from(p(0.9, 0.9), 0, WalkMode::StopAtConstrained),
            Location::Inside(1)
        );
    }

    /// An L of four triangles: the right arm `t0`, `t1` under the notch
    /// edge (2,1)–(1,1), and the upper arm `t2`, `t3`.
    fn l_shape() -> TriMesh {
        let mut m = TriMesh::new();
        let v: Vec<VId> = [
            (0.0, 0.0),
            (2.0, 0.0),
            (2.0, 1.0),
            (1.0, 1.0),
            (1.0, 2.0),
            (0.0, 2.0),
        ]
        .iter()
        .map(|&(x, y)| m.add_vertex(p(x, y), VFlags::default()))
        .collect();
        let t0 = m.add_tri([v[0], v[1], v[2]]);
        let t1 = m.add_tri([v[2], v[3], v[0]]);
        let t2 = m.add_tri([v[0], v[3], v[5]]);
        let t3 = m.add_tri([v[3], v[4], v[5]]);
        m.link(t0, 1, t1, 1);
        m.link(t1, 0, t2, 2);
        m.link(t2, 0, t3, 1);
        m.validate().unwrap();
        m
    }

    /// On a non-convex mesh the walk's answer depends on where it starts:
    /// from the right arm it heads straight for the point and leaves through
    /// the notch; from the upper arm it finds the triangle. This is why
    /// `insert_points` starts walks away from the hint only on meshes whose
    /// hull is a rectangle.
    #[test]
    fn walks_from_two_starts_disagree_on_a_non_convex_mesh() {
        let m = l_shape();
        let q = p(0.9, 1.9); // strictly inside t3
        assert_eq!(m.locate_from(q, 2, WalkMode::Free), Location::Inside(3));
        match m.locate_from(q, 0, WalkMode::Free) {
            Location::Outside(er) => {
                assert_eq!(m.tri(er.t).nbr[er.e], NO_TRI, "left through a hull edge");
                let (a, b) = m.edge_verts(er);
                assert_eq!((m.point(a), m.point(b)), (p(2.0, 1.0), p(1.0, 1.0)));
            }
            other => panic!("expected the walk from t0 to leave the mesh, got {other:?}"),
        }
        assert_eq!(m.rectangular_hull(), None);
    }

    #[test]
    fn walk_and_fallback_agree_without_walls() {
        let mut m = walled_strip();
        m.tri_mut(1).set_constrained(2, false);
        m.tri_mut(2).set_constrained(1, false);
        let q = p(1.8, 0.9);
        let walked = m.locate_from(q, 0, WalkMode::StopAtConstrained);
        let _cap = StepCap::set(0);
        assert_eq!(m.locate_from(q, 0, WalkMode::StopAtConstrained), walked);
        assert_eq!(walked, Location::Inside(3));
    }
}
