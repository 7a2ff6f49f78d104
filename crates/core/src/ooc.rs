//! The out-of-core layer: memory accounting and swapping decisions.
//!
//! [`OocManager`] tracks the in-core footprint of one node against its
//! budget and decides *when* and *what* to swap:
//!
//! * the **hard threshold** is enforced on admission: after loading or
//!   creating an object, at least `hard_mult × largest-spilled-object`
//!   bytes must remain free — otherwise unused objects are forcefully
//!   unloaded first;
//! * the **soft threshold** triggers advisory background swapping whenever
//!   free memory drops below `soft_frac × budget`;
//! * victims are chosen by the configured swapping scheme
//!   ([`crate::policy::PolicyKind`]), never evicting locked (pinned)
//!   objects, preferring objects with no queued messages, lower priorities
//!   first.
//!
//! The manager is a pure decision component: it does not own the objects;
//! the engines feed it candidate views and apply its verdicts.

use crate::ids::ObjectId;
use crate::policy::{AccessMeta, PolicyKind};

/// Prefetch window, object axis: at most this many look-ahead loads in
/// flight per node.
pub const PREFETCH_WINDOW_OBJECTS: usize = 4;

/// Prefetch window, byte axis: at most this many packed bytes of
/// look-ahead loads in flight per node.
pub const PREFETCH_WINDOW_BYTES: usize = 4 << 20;

/// A view of one in-core object offered as an eviction candidate.
#[derive(Clone, Copy, Debug)]
pub struct EvictCandidate {
    pub oid: ObjectId,
    pub footprint: usize,
    pub meta: AccessMeta,
    /// Swapping priority (higher = keep longer).
    pub priority: u8,
    /// Queued messages waiting for this object (objects with pending work
    /// are evicted only under duress).
    pub queued_msgs: usize,
    /// The on-disk bytes are still current (no mutation since the last
    /// store), so evicting this object needs no re-pack or re-write.
    /// Preferred at equal swap-scheme rank — a clean eviction is nearly
    /// free.
    pub clean: bool,
    /// Locality cluster of this object (see `mrts::locality`), if the
    /// locality layer placed it on the curve. When any candidate carries a
    /// cluster, victim selection pulls idle clustermates along with each
    /// victim so the cluster spills as one contiguous run.
    pub cluster: Option<u64>,
    /// Position on the locality curve; clustermates are pulled in this
    /// order so the batched store writes them curve-sequentially.
    pub lkey: u64,
}

/// Memory accounting + swapping policy for one node.
#[derive(Clone, Debug)]
pub struct OocManager {
    budget: usize,
    hard_mult: f64,
    soft_frac: f64,
    policy: PolicyKind,
    used: usize,
    largest_spilled: usize,
    clock: u64,
    pub peak_used: usize,
    /// Degraded (disk-pressure) mode: the spill store is refusing writes
    /// (`ENOSPC` or persistent failure), so eviction is pointless — the
    /// manager stops demanding evictions and reports no soft pressure
    /// (admission is unconditional, a deliberate budget overshoot) until
    /// the engine probes the backend healthy again. Entry and exit are
    /// engine-driven; each transition is counted in
    /// `NodeStats::degraded_mode_transitions`.
    degraded: bool,
}

impl OocManager {
    pub fn new(budget: usize, hard_mult: f64, soft_frac: f64, policy: PolicyKind) -> Self {
        OocManager {
            budget,
            hard_mult,
            soft_frac,
            policy,
            used: 0,
            largest_spilled: 0,
            clock: 0,
            peak_used: 0,
            degraded: false,
        }
    }

    /// Enter degraded mode. Returns `true` on the transition (callers emit
    /// the audit event and bump stats exactly once).
    pub fn enter_degraded(&mut self) -> bool {
        !std::mem::replace(&mut self.degraded, true)
    }

    /// Leave degraded mode. Returns `true` on the transition.
    pub fn exit_degraded(&mut self) -> bool {
        std::mem::replace(&mut self.degraded, false)
    }

    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Is the out-of-core machinery active at all?
    pub fn enabled(&self) -> bool {
        self.budget != usize::MAX
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Advance and return the logical access clock.
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Account an object entering memory (created, loaded, or installed).
    pub fn note_in(&mut self, footprint: usize) {
        self.used += footprint;
        self.peak_used = self.peak_used.max(self.used);
    }

    /// Account an object leaving memory (evicted, migrated away, or
    /// dropped).
    pub fn note_out(&mut self, footprint: usize) {
        debug_assert!(self.used >= footprint, "memory accounting underflow");
        self.used = self.used.saturating_sub(footprint);
    }

    /// Account an object's footprint change in place (objects grow during
    /// refinement). Applied as one atomic delta: going through
    /// `note_out(old)` + `note_in(new)` would transiently under-count and
    /// let a concurrent admission check see phantom headroom.
    pub fn note_resize(&mut self, old: usize, new: usize) {
        if new >= old {
            self.used += new - old;
            self.peak_used = self.peak_used.max(self.used);
        } else {
            debug_assert!(self.used >= old - new, "memory accounting underflow");
            self.used = self.used.saturating_sub(old - new);
        }
    }

    /// Record that an object of `footprint` bytes was spilled (maintains
    /// the hard-threshold reference size).
    pub fn note_spilled(&mut self, footprint: usize) {
        self.largest_spilled = self.largest_spilled.max(footprint);
    }

    /// Headroom the hard threshold demands after an admission.
    pub fn hard_reserve(&self) -> usize {
        (self.hard_mult * self.largest_spilled as f64) as usize
    }

    /// How many bytes must be evicted before admitting `incoming` bytes.
    /// Zero when the admission fits.
    pub fn needed_for_admission(&self, incoming: usize) -> usize {
        if !self.enabled() || self.is_degraded() {
            // Degraded: the store cannot take evictions, so admission is
            // unconditional — the budget is knowingly overshot (the
            // effective threshold is raised) until space returns.
            return 0;
        }
        let demand = self
            .used
            .saturating_add(incoming)
            .saturating_add(self.hard_reserve());
        demand.saturating_sub(self.budget)
    }

    /// Soft threshold: free memory below `soft_frac × budget` advises the
    /// storage layer to start swapping idle objects.
    pub fn soft_pressure(&self) -> bool {
        if !self.enabled() || self.is_degraded() {
            return false;
        }
        let free = self.budget.saturating_sub(self.used);
        (free as f64) < self.soft_frac * self.budget as f64
    }

    /// Bytes to shed to satisfy the soft threshold.
    pub fn soft_excess(&self) -> usize {
        if !self.enabled() || self.is_degraded() {
            return 0;
        }
        let target_free = (self.soft_frac * self.budget as f64) as usize;
        let free = self.budget.saturating_sub(self.used);
        target_free.saturating_sub(free)
    }

    /// Choose eviction victims freeing at least `need` bytes from
    /// `candidates` (all must be unlocked and not currently executing).
    ///
    /// Order: objects without queued messages first, then lower priority,
    /// then the swapping scheme's score, with clean objects (valid on-disk
    /// bytes) preferred at equal score. Returns the chosen object ids (in
    /// eviction order); may free less than `need` if candidates run out.
    ///
    /// When any candidate carries a locality cluster, each victim pulls
    /// its *idle* clustermates (no queued messages) right after it, in
    /// curve-key order, so the batched store writes the cluster as one
    /// contiguous run — the layout cluster prefetch reads back
    /// sequentially. A pull may only reach mates inside the *horizon*:
    /// twice as far down the eviction order as the straight policy would
    /// have gone. It reorders evictions there so mates batch on disk;
    /// pulling a mate the policy considers hot would evict an object about
    /// to be touched, trading one contiguous write for an extra load
    /// (measured: it loses more than the layout wins).
    pub fn pick_victims(&self, candidates: &mut [EvictCandidate], need: usize) -> Vec<ObjectId> {
        if need == 0 || candidates.is_empty() {
            return Vec::new();
        }
        let (policy, now) = (self.policy, self.clock);
        let mut order: Vec<Rank> = (candidates.iter().enumerate())
            .map(|(at, c)| Rank {
                queued: c.queued_msgs > 0,
                priority: c.priority,
                score: total_order_bits(policy.score(&c.meta, now)),
                dirty: !c.clean,
                oid: c.oid,
                at,
            })
            .collect();
        let clustered = candidates.iter().any(|c| c.cluster.is_some());
        // Evictions usually shed a handful of objects out of a large
        // resident set, so a full sort is wasted work: partition the k
        // best victims to the front (O(n) typical), sort only that small
        // prefix, and double k until the prefix holds the straight walk —
        // and, with clusters, the whole horizon.
        let n = order.len();
        let mut k = 8.min(n);
        let walk = loop {
            if k < n {
                order.select_nth_unstable(k - 1);
            }
            order[..k].sort_unstable();
            match walk_len(&order[..k], candidates, need) {
                Some(h) if !clustered || 2 * h <= k => break Some(h),
                walk if k == n => break walk,
                _ => k = (k * 2).min(n),
            }
        };
        let order = &order[..k];
        if !clustered {
            return order[..walk.unwrap_or(k)].iter().map(|r| r.oid).collect();
        }
        let horizon = walk.map_or(k, |h| (2 * h).min(k));
        // Idle candidates inside the horizon that sit on a cluster, as
        // (cluster, curve key, oid, position in `order`): sorted, each
        // cluster's mates are one run in curve-key order.
        let mut mates: Vec<(u64, u64, ObjectId, usize)> = (order[..horizon].iter().enumerate())
            .filter_map(|(pos, r)| {
                let c = &candidates[r.at];
                let cl = c.cluster.filter(|_| c.queued_msgs == 0)?;
                Some((cl, c.lkey, c.oid, pos))
            })
            .collect();
        mates.sort_unstable();
        let mut taken = vec![false; k];
        let mut out = Vec::new();
        let mut freed = 0usize;
        for pos in 0..k {
            if freed >= need {
                break;
            }
            if taken[pos] {
                continue;
            }
            let run = match candidates[order[pos].at].cluster {
                Some(cl) => {
                    let from = &mates[mates.partition_point(|m| m.0 < cl)..];
                    &from[..from.partition_point(|m| m.0 == cl)]
                }
                None => &[][..],
            };
            for p in std::iter::once(pos).chain(run.iter().map(|m| m.3)) {
                if freed >= need {
                    break;
                }
                if !taken[p] {
                    taken[p] = true;
                    out.push(order[p].oid);
                    freed += candidates[order[p].at].footprint;
                }
            }
        }
        out
    }
}

/// One candidate's place in the eviction order, computed once per pick.
/// The derived order is the field order: idle before queued, lower
/// priority first, then the swapping scheme's score, then clean before
/// dirty (its eviction elides the pack and the write), then the smaller
/// id — a total order, so victim choice is independent of the hash-map
/// iteration order the candidates arrive in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    queued: bool,
    priority: u8,
    /// The score as bits that order like `f64::total_cmp`: a NaN cannot
    /// collapse the order to `Equal` (it sorts after every finite score).
    score: u64,
    dirty: bool,
    oid: ObjectId,
    /// Index into the candidate slice; never decides, ids are unique.
    at: usize,
}

/// `x`'s bits, remapped so unsigned comparison agrees with `total_cmp`.
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// How many leading candidates of `order` the straight policy takes to
/// free `need` bytes; `None` if all of them together fall short.
fn walk_len(order: &[Rank], candidates: &[EvictCandidate], need: usize) -> Option<usize> {
    let mut freed = 0usize;
    (order.iter())
        .position(|r| {
            freed += candidates[r.at].footprint;
            freed >= need
        })
        .map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference victim selection: the full-sort implementation that
    /// `pick_victims` replaced — the comparator re-scores both sides of
    /// every comparison, the unclustered walk takes a prefix of the fully
    /// sorted order, the clustered walk pulls mates through a per-cluster
    /// index. `pick_victims` must choose exactly what this chooses.
    fn full_sort_pick(
        m: &OocManager,
        candidates: &mut [EvictCandidate],
        need: usize,
    ) -> Vec<ObjectId> {
        if need == 0 || candidates.is_empty() {
            return Vec::new();
        }
        let now = m.now();
        let cmp = |a: &EvictCandidate, b: &EvictCandidate| {
            (a.queued_msgs > 0)
                .cmp(&(b.queued_msgs > 0))
                .then_with(|| a.priority.cmp(&b.priority))
                .then_with(|| {
                    m.policy()
                        .score(&a.meta, now)
                        .total_cmp(&m.policy().score(&b.meta, now))
                })
                .then_with(|| b.clean.cmp(&a.clean))
                .then_with(|| a.oid.cmp(&b.oid))
        };
        candidates.sort_unstable_by(cmp);
        let mut horizon = 0usize;
        let mut freed = 0usize;
        for c in candidates.iter() {
            if freed >= need {
                break;
            }
            freed += c.footprint;
            horizon += 1;
        }
        if candidates.iter().all(|c| c.cluster.is_none()) {
            return candidates[..horizon].iter().map(|c| c.oid).collect();
        }
        let horizon = (horizon * 2).min(candidates.len());
        let mut by_cluster: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, c) in candidates.iter().enumerate().take(horizon) {
            if let Some(cl) = c.cluster {
                by_cluster.entry(cl).or_default().push(i);
            }
        }
        let mut taken = vec![false; candidates.len()];
        let mut out = Vec::new();
        let mut freed = 0usize;
        for i in 0..candidates.len() {
            if freed >= need {
                break;
            }
            if taken[i] {
                continue;
            }
            taken[i] = true;
            out.push(candidates[i].oid);
            freed += candidates[i].footprint;
            let Some(mates) = candidates[i].cluster.and_then(|cl| by_cluster.get(&cl)) else {
                continue;
            };
            let mut mates: Vec<usize> = (mates.iter().copied())
                .filter(|&j| !taken[j] && candidates[j].queued_msgs == 0)
                .collect();
            mates.sort_unstable_by_key(|&j| (candidates[j].lkey, candidates[j].oid));
            for j in mates {
                if freed >= need {
                    break;
                }
                taken[j] = true;
                out.push(candidates[j].oid);
                freed += candidates[j].footprint;
            }
        }
        out
    }

    /// One generated candidate: (footprint, last access, access count,
    /// priority class, queued messages, clean) and (cluster, curve key).
    type RawCandidate = ((usize, u64, u64, u8, usize, bool), (u64, u64));

    fn raw_candidate() -> impl Strategy<Value = RawCandidate> {
        (
            // Small ranges make ties in priority, score and curve key common.
            (
                1usize..600,
                0u64..12,
                1u64..6,
                0u8..3,
                0usize..3,
                any::<bool>(),
            ),
            (0u64..5, 0u64..8),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Rank-once partial selection chooses exactly the victims, in
        /// exactly the order, of the full-sort reference: every swapping
        /// scheme, ties everywhere, clusters present and absent, `need`
        /// from zero to past everything the candidates hold.
        #[test]
        fn pick_victims_matches_full_sort_reference(
            raw in prop::collection::vec(raw_candidate(), 0..80),
            policy in 0usize..5,
            clusters in any::<bool>(),
            need_pct in 0usize..130,
        ) {
            let mut m = OocManager::new(1 << 20, 2.0, 0.5, PolicyKind::ALL[policy]);
            for _ in 0..16 {
                m.tick();
            }
            let mut cands: Vec<EvictCandidate> = (raw.iter().enumerate())
                .map(|(i, &((fp, last, count, prio, queued, clean), (cl, lkey)))| {
                    // Scrambled ids over three homes: arrival order is not id order.
                    let mut c = cand((i as u64 * 7919) % 1009, fp, last, count, 127 * prio, queued);
                    c.oid = ObjectId::new((i % 3) as u16, c.oid.seq());
                    c.meta.birth = last.saturating_sub(count);
                    c.clean = clean;
                    // Cluster 0 stands for "not on the curve".
                    c.cluster = (clusters && cl > 0).then_some(cl);
                    c.lkey = lkey;
                    c
                })
                .collect();
            let total: usize = cands.iter().map(|c| c.footprint).sum();
            let need = total * need_pct / 100;
            let want = full_sort_pick(&m, &mut cands.clone(), need);
            let got = m.pick_victims(&mut cands, need);
            prop_assert_eq!(got, want);
        }
    }

    fn cand(
        seq: u64,
        footprint: usize,
        last: u64,
        count: u64,
        prio: u8,
        queued: usize,
    ) -> EvictCandidate {
        EvictCandidate {
            oid: ObjectId::new(0, seq),
            footprint,
            meta: AccessMeta {
                last_access: last,
                access_count: count,
                birth: 0,
            },
            priority: prio,
            queued_msgs: queued,
            clean: false,
            cluster: None,
            lkey: 0,
        }
    }

    #[test]
    fn disabled_manager_never_evicts() {
        let m = OocManager::new(usize::MAX, 2.0, 0.5, PolicyKind::Lru);
        assert!(!m.enabled());
        assert_eq!(m.needed_for_admission(1 << 40), 0);
        assert!(!m.soft_pressure());
    }

    #[test]
    fn accounting_tracks_peak() {
        let mut m = OocManager::new(1000, 0.0, 0.5, PolicyKind::Lru);
        m.note_in(400);
        m.note_in(300);
        assert_eq!(m.used(), 700);
        m.note_out(300);
        assert_eq!(m.used(), 400);
        m.note_resize(400, 600);
        assert_eq!(m.used(), 600);
        assert_eq!(m.peak_used, 700);
    }

    #[test]
    fn resize_is_atomic_and_tracks_peak_growth() {
        let mut m = OocManager::new(1000, 0.0, 0.5, PolicyKind::Lru);
        m.note_in(400);
        assert_eq!(m.peak_used, 400);
        // Growth must raise the peak: the old note_out/note_in sequence
        // dipped to 0 first, so a peak equal to the new footprint proves
        // the delta was applied atomically.
        m.note_resize(400, 900);
        assert_eq!(m.used(), 900);
        assert_eq!(m.peak_used, 900);
        m.note_resize(900, 100);
        assert_eq!(m.used(), 100);
        assert_eq!(m.peak_used, 900);
        // No-op resize.
        m.note_resize(100, 100);
        assert_eq!(m.used(), 100);
    }

    #[test]
    fn admission_arithmetic_with_hard_threshold() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        m.note_in(600);
        // Nothing spilled yet: reserve 0; 600+300 ≤ 1000 fits.
        assert_eq!(m.needed_for_admission(300), 0);
        // After spilling a 100-byte object, reserve = 200.
        m.note_spilled(100);
        assert_eq!(m.needed_for_admission(300), 100); // 600+300+200-1000
        assert_eq!(m.needed_for_admission(100), 0); // 600+100+200 ≤ 1000
    }

    #[test]
    fn soft_threshold_advises_swapping() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        m.note_in(400);
        assert!(!m.soft_pressure()); // free = 600 ≥ 500
        m.note_in(200);
        assert!(m.soft_pressure()); // free = 400 < 500
        assert_eq!(m.soft_excess(), 100);
    }

    #[test]
    fn victims_prefer_idle_low_priority_lru() {
        let m = {
            let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
            for _ in 0..100 {
                m.tick();
            }
            m
        };
        let mut cands = vec![
            cand(1, 100, 50, 5, 128, 0), // idle, default prio, mid-age
            cand(2, 100, 10, 5, 128, 0), // idle, default prio, oldest → first
            cand(3, 100, 5, 5, 255, 0),  // idle but high priority → later
            cand(4, 100, 1, 5, 128, 3),  // has queued msgs → last resort
        ];
        let victims = m.pick_victims(&mut cands, 200);
        assert_eq!(victims[0], ObjectId::new(0, 2));
        assert_eq!(victims[1], ObjectId::new(0, 1));
        assert_eq!(victims.len(), 2);
    }

    #[test]
    fn clean_victims_preferred_at_equal_rank_only() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        for _ in 0..100 {
            m.tick();
        }
        // Identical swap-scheme rank (same last access, priority, queue):
        // the clean candidate goes first.
        let mut tied = vec![cand(1, 100, 50, 5, 128, 0), {
            let mut c = cand(2, 100, 50, 5, 128, 0);
            c.clean = true;
            c
        }];
        assert_eq!(
            m.pick_victims(&mut tied, 100),
            vec![ObjectId::new(0, 2)],
            "clean candidate must win the tie"
        );
        // Cleanness must NOT override the swap scheme: a clean but
        // recently-used object survives a dirty LRU victim.
        let mut ranked = vec![cand(1, 100, 10, 5, 128, 0), {
            let mut c = cand(2, 100, 90, 5, 128, 0);
            c.clean = true;
            c
        }];
        assert_eq!(m.pick_victims(&mut ranked, 100), vec![ObjectId::new(0, 1)]);
    }

    #[test]
    fn victims_respect_policy_kind() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Mu);
        for _ in 0..100 {
            m.tick();
        }
        let mut cands = vec![
            cand(1, 100, 50, 500, 128, 0), // most used → evicted first by MU
            cand(2, 100, 60, 2, 128, 0),
        ];
        let victims = m.pick_victims(&mut cands, 100);
        assert_eq!(victims, vec![ObjectId::new(0, 1)]);
    }

    #[test]
    fn pick_victims_zero_need() {
        let m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        let mut cands = vec![cand(1, 100, 1, 1, 0, 0)];
        assert!(m.pick_victims(&mut cands, 0).is_empty());
    }

    #[test]
    fn pick_victims_partial_selection_matches_full_sort() {
        let mut m = OocManager::new(1 << 20, 2.0, 0.5, PolicyKind::Lru);
        for _ in 0..1000 {
            m.tick();
        }
        // 100 candidates in scrambled age order; need = 40 objects' worth
        // so the selection must widen past its initial k.
        let mut cands: Vec<EvictCandidate> = (0..100u64)
            .map(|seq| cand(seq, 10, (seq * 37) % 997, 1, 128, 0))
            .collect();
        let mut reference = cands.clone();
        reference.sort_by(|a, b| {
            m.policy()
                .score(&a.meta, m.now())
                .total_cmp(&m.policy().score(&b.meta, m.now()))
                .then_with(|| a.oid.cmp(&b.oid))
        });
        let want: Vec<ObjectId> = reference.iter().take(40).map(|c| c.oid).collect();
        let got = m.pick_victims(&mut cands, 400);
        assert_eq!(got, want);
    }

    #[test]
    fn degraded_mode_suspends_pressure_and_admission_demands() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        m.note_in(900);
        m.note_spilled(100);
        assert!(m.needed_for_admission(300) > 0);
        assert!(m.soft_pressure());
        // First entry is a transition, a second is not.
        assert!(m.enter_degraded());
        assert!(!m.enter_degraded());
        assert!(m.is_degraded());
        // Degraded: admission is unconditional, no advisory swapping.
        assert_eq!(m.needed_for_admission(1 << 20), 0);
        assert!(!m.soft_pressure());
        assert_eq!(m.soft_excess(), 0);
        // Accounting still runs (recovery needs an accurate `used`).
        m.note_in(500);
        assert_eq!(m.used(), 1400);
        assert!(m.exit_degraded());
        assert!(!m.exit_degraded());
        assert!(m.soft_pressure());
        assert!(m.needed_for_admission(300) > 0);
    }

    #[test]
    fn cluster_victims_pull_idle_clustermates() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        for _ in 0..100 {
            m.tick();
        }
        // Base eviction order by age: 1 (oldest), then 4, then 2, 3.
        // 1's clustermates 2 and 3 (cluster 7) must be pulled right after
        // it — in curve-key order 3 (lkey 5) before 2 (lkey 6) — jumping
        // ahead of the otherwise-better victim 4.
        let with = |seq: u64, last: u64, cl: Option<u64>, lk: u64| {
            let mut c = cand(seq, 100, last, 5, 128, 0);
            c.cluster = cl;
            c.lkey = lk;
            c
        };
        let mut cands = vec![
            with(1, 10, Some(7), 4),
            with(2, 80, Some(7), 6),
            with(3, 70, Some(7), 5),
            with(4, 20, Some(9), 1),
        ];
        let victims = m.pick_victims(&mut cands, 300);
        assert_eq!(
            victims,
            vec![
                ObjectId::new(0, 1),
                ObjectId::new(0, 3),
                ObjectId::new(0, 2)
            ]
        );
    }

    #[test]
    fn cluster_pull_skips_busy_clustermates() {
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        for _ in 0..100 {
            m.tick();
        }
        // Clustermate 2 has queued messages: the pull must skip it and
        // fall through to the next victim in normal order.
        let mut cands = vec![
            {
                let mut c = cand(1, 100, 10, 5, 128, 0);
                c.cluster = Some(3);
                c.lkey = 0;
                c
            },
            {
                let mut c = cand(2, 100, 80, 5, 128, 2);
                c.cluster = Some(3);
                c.lkey = 1;
                c
            },
            cand(4, 100, 20, 5, 128, 0),
        ];
        let victims = m.pick_victims(&mut cands, 200);
        assert_eq!(victims, vec![ObjectId::new(0, 1), ObjectId::new(0, 4)]);
    }

    #[test]
    fn clusterless_candidates_use_partial_selection_path() {
        // No candidate carries a cluster: selection must behave exactly
        // like the pre-locality path (pick_victims_partial_selection_
        // matches_full_sort pins the deeper property; this pins the gate).
        let mut m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        for _ in 0..100 {
            m.tick();
        }
        let mut cands = vec![cand(1, 100, 50, 5, 128, 0), cand(2, 100, 10, 5, 128, 0)];
        assert_eq!(
            m.pick_victims(&mut cands, 100),
            vec![ObjectId::new(0, 2)],
            "oldest idle candidate first, as before"
        );
    }

    #[test]
    fn pick_victims_exhausts_candidates() {
        let m = OocManager::new(1000, 2.0, 0.5, PolicyKind::Lru);
        let mut cands = vec![cand(1, 100, 1, 1, 0, 0), cand(2, 50, 2, 1, 0, 0)];
        // Need more than available: returns everything.
        let v = m.pick_victims(&mut cands, 1000);
        assert_eq!(v.len(), 2);
    }
}
