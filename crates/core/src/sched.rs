//! Dependency-driven scheduling: a region DAG in place of global phase
//! barriers.
//!
//! Released in bulk-synchronous rounds, the phase-structured mesh methods
//! (UPDR-style) would have every block wait at a coordinator barrier for
//! the slowest block before any block could enter the next phase, so node
//! idle time grows with imbalance and node count. This module models the
//! same phase ordering as a *dependency DAG* over `(block, phase)`
//! pairs: block `b` may enter phase `p` the moment `b` and every
//! buffer-zone neighbor of `b` have committed phase `p - 1` — no global
//! synchronization. The DAG is layered by phase, hence acyclic by
//! construction, and covers every `(block, phase)` pair exactly once.
//!
//! Three pieces live here:
//!
//! * [`RegionDag`] — the full DAG with per-node commit state: the rule
//!   every block's [`PhaseGate`] applies locally, whole. Its property
//!   tests pin down acyclicity, coverage and dependency order; no method
//!   drives a run through it.
//! * [`PhaseGate`] — one block's distributed view of the same rule: count
//!   commit notifications from the in-neighborhood and open the gate when
//!   all have arrived. The out-of-core methods embed one per block object
//!   so no central scheduler (and no barrier) is needed.
//! * [`ConflictSet`] — busy-tracking for methods whose readiness rule is
//!   spatial exclusion rather than phase order (NUPDR's leaf/buffer
//!   locking): a region may run only while its entire footprint is free.

/// Normalize an adjacency list: drop self-edges and duplicates, sort each
/// neighborhood, and mirror every edge so the relation is symmetric
/// (buffer-zone adjacency is symmetric by definition; learned adjacency
/// from `mrts::locality` may arrive one-sided).
pub fn normalize_adjacency(neighbors: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = neighbors.len();
    let mut out = vec![Vec::new(); n];
    for (b, ns) in neighbors.iter().enumerate() {
        for &a in ns {
            if a != b && a < n {
                out[b].push(a);
                out[a].push(b);
            }
        }
    }
    for ns in &mut out {
        ns.sort_unstable();
        ns.dedup();
    }
    out
}

/// The region-dependency DAG over `(block, phase)` pairs.
///
/// Node `(b, p)` for `p > 0` depends on `(a, p - 1)` for every `a` in
/// `N(b) ∪ {b}`; phase-0 nodes are roots. Committing a node releases
/// exactly the successors whose dependencies are now all committed.
#[derive(Debug, Clone)]
pub struct RegionDag {
    neighbors: Vec<Vec<usize>>,
    phases: usize,
    /// `committed[p * blocks + b]`
    committed: Vec<bool>,
    /// Outstanding dependency count per node, same indexing.
    waiting: Vec<usize>,
    committed_count: usize,
}

impl RegionDag {
    /// Build the DAG for `neighbors.len()` blocks and `phases` phases.
    /// The adjacency is normalized (symmetric, no self-edges) first.
    pub fn new(neighbors: &[Vec<usize>], phases: usize) -> RegionDag {
        let neighbors = normalize_adjacency(neighbors);
        let blocks = neighbors.len();
        let mut waiting = vec![0usize; blocks * phases];
        for p in 1..phases {
            for (b, ns) in neighbors.iter().enumerate() {
                waiting[p * blocks + b] = ns.len() + 1;
            }
        }
        RegionDag {
            neighbors,
            phases,
            committed: vec![false; blocks * phases],
            waiting,
            committed_count: 0,
        }
    }

    pub fn blocks(&self) -> usize {
        self.neighbors.len()
    }

    pub fn phases(&self) -> usize {
        self.phases
    }

    pub fn node_count(&self) -> usize {
        self.blocks() * self.phases
    }

    fn idx(&self, block: usize, phase: usize) -> usize {
        debug_assert!(block < self.blocks() && phase < self.phases);
        phase * self.blocks() + block
    }

    /// A node is ready when every dependency has committed and it has not
    /// itself committed yet.
    pub fn is_ready(&self, block: usize, phase: usize) -> bool {
        let i = self.idx(block, phase);
        !self.committed[i] && self.waiting[i] == 0
    }

    /// The currently ready frontier, in `(phase, block)` order.
    pub fn ready(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for p in 0..self.phases {
            for b in 0..self.blocks() {
                if self.is_ready(b, p) {
                    out.push((b, p));
                }
            }
        }
        out
    }

    /// Commit `(block, phase)` and return the successors this commit made
    /// ready, in `(block, phase)` pairs sorted ascending. Committing a
    /// node whose dependencies are not all committed, or twice, panics:
    /// both are driver bugs the DAG exists to rule out.
    pub fn commit(&mut self, block: usize, phase: usize) -> Vec<(usize, usize)> {
        let i = self.idx(block, phase);
        assert!(!self.committed[i], "({block},{phase}) committed twice");
        assert_eq!(
            self.waiting[i], 0,
            "({block},{phase}) committed before its dependencies"
        );
        self.committed[i] = true;
        self.committed_count += 1;
        let mut released = Vec::new();
        if phase + 1 < self.phases {
            let blocks = self.blocks();
            let mut succs = self.neighbors[block].clone();
            succs.push(block);
            for a in succs {
                let j = (phase + 1) * blocks + a;
                self.waiting[j] -= 1;
                if self.waiting[j] == 0 {
                    released.push((a, phase + 1));
                }
            }
        }
        released.sort_unstable();
        released
    }

    /// Every `(block, phase)` node has committed.
    pub fn is_complete(&self) -> bool {
        self.committed_count == self.node_count()
    }
}

/// One block's distributed view of the DAG readiness rule.
///
/// Every block broadcasts a *commit notification* to itself and its
/// buffer-zone neighbors when it finishes a phase; a block enters the
/// next phase the moment it has heard `|N(b)| + 1` notifications for the
/// prior phase. Notifications can race ahead (a fast neighbor may commit
/// phase `p` while this block still works on `p - 1`), so arrivals are
/// counted per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseGate {
    /// Notifications required per phase entry: `|N(b)| + 1`.
    needed: u32,
    /// Notifications heard, indexed by the phase they commit.
    heard: Vec<u32>,
    /// Phase entries already granted (each opens exactly once).
    opened: Vec<bool>,
}

impl PhaseGate {
    /// Gate for a block with `n_neighbors` buffer-zone neighbors across
    /// `phases` phases.
    pub fn new(n_neighbors: usize, phases: usize) -> PhaseGate {
        PhaseGate {
            needed: n_neighbors as u32 + 1,
            heard: vec![0; phases],
            opened: vec![false; phases],
        }
    }

    /// Record one commit notification for `phase`; returns `true` exactly
    /// once, when the last required notification arrives — the caller
    /// then enters `phase + 1`.
    pub fn on_commit(&mut self, phase: usize) -> bool {
        if phase >= self.heard.len() {
            return false;
        }
        self.heard[phase] += 1;
        debug_assert!(
            self.heard[phase] <= self.needed,
            "more commits than in-neighbors for phase {phase}"
        );
        if self.heard[phase] == self.needed && !self.opened[phase] {
            self.opened[phase] = true;
            return true;
        }
        false
    }

    /// Serialization support for spillable block objects.
    pub fn encode(&self, w: &mut crate::codec::PayloadWriter) {
        w.u32(self.needed);
        w.u32(self.heard.len() as u32);
        for &h in &self.heard {
            w.u32(h);
        }
        for &o in &self.opened {
            w.u8(o as u8);
        }
    }

    pub fn decode(
        r: &mut crate::codec::PayloadReader,
    ) -> Result<PhaseGate, crate::codec::Truncated> {
        let needed = r.u32()?;
        let n = r.u32()? as usize;
        let mut heard = Vec::with_capacity(n);
        for _ in 0..n {
            heard.push(r.u32()?);
        }
        let mut opened = Vec::with_capacity(n);
        for _ in 0..n {
            opened.push(r.u8()? != 0);
        }
        Ok(PhaseGate {
            needed,
            heard,
            opened,
        })
    }
}

/// Busy-tracking for exclusion-scheduled methods (NUPDR): region `i` may
/// run only while `i` and its entire buffer footprint are free. This is
/// the readiness rule of the non-phase methods, factored out of the
/// method drivers so both engines (and the tests) share one definition.
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    busy: Vec<bool>,
}

impl ConflictSet {
    pub fn new(regions: usize) -> ConflictSet {
        ConflictSet {
            busy: vec![false; regions],
        }
    }

    /// Rebuild from serialized busy flags (spillable schedulers embed one).
    pub fn from_flags(busy: Vec<bool>) -> ConflictSet {
        ConflictSet { busy }
    }

    /// The busy flags, for serialization.
    pub fn flags(&self) -> &[bool] {
        &self.busy
    }

    /// `region` plus every region in `footprint` is currently free.
    pub fn can_run(&self, region: usize, footprint: &[usize]) -> bool {
        !self.busy[region] && footprint.iter().all(|&f| !self.busy[f])
    }

    /// Atomically mark `region` and its footprint busy; `false` (and no
    /// change) if any of them is already busy.
    pub fn acquire(&mut self, region: usize, footprint: &[usize]) -> bool {
        if !self.can_run(region, footprint) {
            return false;
        }
        self.busy[region] = true;
        for &f in footprint {
            self.busy[f] = true;
        }
        true
    }

    /// Release `region` and its footprint.
    pub fn release(&mut self, region: usize, footprint: &[usize]) {
        self.busy[region] = false;
        for &f in footprint {
            self.busy[f] = false;
        }
    }
}

/// Round-robin steal-victim cursor: enumerate peers of `node` starting
/// after the previous victim, skipping `node` itself. Both engines use
/// this so victim choice is a pure function of (node, cursor) — in the
/// threaded engine the *timing* of a steal is nondeterministic and rides
/// the replay Decision log, but the victim sequence itself never is.
#[derive(Debug, Clone, Default)]
pub struct VictimCursor {
    next: usize,
}

impl VictimCursor {
    pub fn new() -> VictimCursor {
        VictimCursor::default()
    }

    /// The next victim for `node` among `n_nodes` peers, advancing the
    /// cursor; `None` when there are no peers.
    pub fn next_victim(&mut self, node: u16, n_nodes: usize) -> Option<u16> {
        if n_nodes < 2 {
            return None;
        }
        for _ in 0..n_nodes {
            let v = (self.next % n_nodes) as u16;
            self.next = (self.next + 1) % n_nodes;
            if v != node {
                return Some(v);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ring(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|b| vec![(b + 1) % n, (b + n - 1) % n]).collect()
    }

    /// Commit the ready frontier, round after round, until nothing is
    /// ready: the commit order, and whether every node committed. A
    /// commit out of dependency order panics in `commit`.
    fn drain(mut dag: RegionDag) -> (Vec<(usize, usize)>, bool) {
        let mut order = Vec::new();
        loop {
            let ready = dag.ready();
            if ready.is_empty() {
                return (order, dag.is_complete());
            }
            for (b, p) in ready {
                dag.commit(b, p);
                order.push((b, p));
            }
        }
    }

    #[test]
    fn phase_zero_roots_are_ready() {
        let dag = RegionDag::new(&ring(4), 3);
        assert_eq!(dag.ready(), vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(dag.node_count(), 12);
    }

    #[test]
    fn commit_releases_only_saturated_successors() {
        let mut dag = RegionDag::new(&ring(3), 2);
        // In a 3-ring every block neighbors every other: phase 1 of any
        // block needs all three phase-0 commits.
        assert!(dag.commit(0, 0).is_empty());
        assert!(dag.commit(1, 0).is_empty());
        assert_eq!(dag.commit(2, 0), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn isolated_block_self_releases() {
        // A block with no neighbors depends only on its own prior phase.
        let mut dag = RegionDag::new(&[vec![], vec![]], 3);
        assert_eq!(dag.commit(0, 0), vec![(0, 1)]);
        assert_eq!(dag.commit(0, 1), vec![(0, 2)]);
        assert!(!dag.is_complete());
    }

    #[test]
    #[should_panic(expected = "committed before its dependencies")]
    fn premature_commit_panics() {
        let mut dag = RegionDag::new(&ring(4), 2);
        dag.commit(0, 1);
    }

    #[test]
    #[should_panic(expected = "committed twice")]
    fn double_commit_panics() {
        let mut dag = RegionDag::new(&ring(4), 2);
        dag.commit(0, 0);
        dag.commit(0, 0);
    }

    #[test]
    fn deps_are_neighborhood_of_prior_phase() {
        let mut dag = RegionDag::new(&ring(5), 3);
        assert!(dag.is_ready(2, 0));
        // (2, 1) waits on blocks 1, 2 and 3 of phase 0, and no other.
        for b in [0, 4, 1, 2] {
            assert!(dag.commit(b, 0).iter().all(|&n| n != (2, 1)));
        }
        assert!(!dag.is_ready(2, 1));
        assert!(dag.commit(3, 0).contains(&(2, 1)));
        assert!(dag.is_ready(2, 1));
    }

    #[test]
    fn adjacency_is_symmetrized_and_cleaned() {
        // One-sided, duplicated, self-looping input.
        let adj = normalize_adjacency(&[vec![1, 1, 0], vec![], vec![1]]);
        assert_eq!(adj, vec![vec![1], vec![0, 2], vec![1]]);
    }

    #[test]
    fn phase_gate_opens_once_per_phase() {
        let mut g = PhaseGate::new(2, 3);
        assert!(!g.on_commit(0));
        assert!(!g.on_commit(0));
        assert!(g.on_commit(0), "third commit opens the gate");
        // Racing ahead: commits for phase 1 count toward its own gate.
        assert!(!g.on_commit(1));
        assert!(!g.on_commit(1));
        assert!(g.on_commit(1));
    }

    #[test]
    fn phase_gate_roundtrips() {
        let mut g = PhaseGate::new(3, 4);
        g.on_commit(0);
        g.on_commit(1);
        let mut w = crate::codec::PayloadWriter::new();
        g.encode(&mut w);
        let buf = w.finish();
        let mut r = crate::codec::PayloadReader::new(&buf);
        assert_eq!(PhaseGate::decode(&mut r).expect("roundtrip"), g);
    }

    #[test]
    fn conflict_set_excludes_footprint() {
        let mut c = ConflictSet::new(4);
        assert!(c.acquire(0, &[1]));
        assert!(!c.can_run(1, &[]));
        assert!(!c.acquire(2, &[1]), "footprint overlaps busy region 1");
        assert!(c.acquire(3, &[]));
        c.release(0, &[1]);
        assert!(c.acquire(2, &[1]));
    }

    #[test]
    fn victim_cursor_round_robins_and_skips_self() {
        let mut c = VictimCursor::new();
        let seq: Vec<u16> = (0..6).filter_map(|_| c.next_victim(1, 4)).collect();
        assert_eq!(seq, vec![0, 2, 3, 0, 2, 3]);
        assert_eq!(VictimCursor::new().next_victim(0, 1), None);
    }

    proptest! {
        /// The DAG is acyclic and covers every (block, phase) pair:
        /// committing what is ready, round after round, schedules *all*
        /// blocks × phases nodes, whatever the adjacency.
        #[test]
        fn dag_is_acyclic_and_covers_every_pair(
            adj in prop::collection::vec(prop::collection::vec(0usize..12, 0..6), 1..12),
            phases in 1usize..5,
        ) {
            let dag = RegionDag::new(&adj, phases);
            let blocks = dag.blocks();
            let (order, complete) = drain(dag);
            prop_assert!(complete, "a layered DAG always drains");
            prop_assert_eq!(order.len(), blocks * phases);
            let mut seen = std::collections::HashSet::new();
            for &(b, p) in &order {
                prop_assert!(b < blocks && p < phases);
                prop_assert!(seen.insert((b, p)), "node scheduled twice");
            }
            prop_assert_eq!(seen.len(), blocks * phases);
        }

        /// Dependency ordering: in any drain order, a node appears only
        /// after every one of its dependencies.
        #[test]
        fn drain_respects_dependencies(
            adj in prop::collection::vec(prop::collection::vec(0usize..8, 0..4), 1..8),
            phases in 1usize..4,
        ) {
            // (b, p) depends on (a, p - 1) for every a in N(b) ∪ {b}.
            let neighbors = normalize_adjacency(&adj);
            let (order, complete) = drain(RegionDag::new(&adj, phases));
            prop_assert!(complete, "a layered DAG always drains");
            let pos: std::collections::HashMap<(usize, usize), usize> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for &(b, p) in order.iter().filter(|&&(_, p)| p > 0) {
                for a in neighbors[b].iter().copied().chain([b]) {
                    prop_assert!(pos[&(a, p - 1)] < pos[&(b, p)]);
                }
            }
        }
    }
}
