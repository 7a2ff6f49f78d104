//! Instrumentation: per-node resource accounting and the paper's metrics.
//!
//! The evaluation section of the paper reports, per configuration:
//! computation / communication / disk-I/O as percentages of total execution
//! time, their **overlap**, and the per-PE **speed** `S / (T · N)`. These
//! are computed here from per-node busy-time accumulators filled in by
//! either execution mode.
//!
//! Note on the overlap formula: the paper prints
//! `Overlap = (Comp + Comm + Disk) / Total` but describes 50–62% values as
//! *high overlap*, which is only consistent with the busy-time **excess**
//! `(Comp + Comm + Disk − Total) / Total` — the fraction of the run during
//! which at least two resources were busy simultaneously. We implement the
//! latter (clamped at 0).

use std::time::Duration;

/// Busy-time accumulators and counters for one node.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Time spent executing message handlers (and packing/unpacking
    /// objects).
    pub comp: Duration,
    /// Time attributed to communication (transfer time of sent and
    /// received messages).
    pub comm: Duration,
    /// Time the disk spent on this node's loads/stores.
    pub disk: Duration,
    pub handlers_run: usize,
    pub msgs_local: usize,
    pub msgs_remote: usize,
    pub msgs_forwarded: usize,
    pub bytes_sent: u64,
    pub loads: usize,
    pub stores: usize,
    pub bytes_to_disk: u64,
    pub bytes_from_disk: u64,
    pub evictions: usize,
    pub migrations: usize,
    /// Look-ahead loads issued by the prefetcher (loads started while the
    /// node still had resident work to run).
    pub prefetch_issued: usize,
    /// Loads whose completion found the node with resident work still
    /// queued — the disk time was masked by computation.
    pub prefetch_hits: usize,
    /// Loads whose completion found the node idle — the load sat on the
    /// critical path.
    pub prefetch_misses: usize,
    /// Queued look-ahead loads abandoned before issue (queue drained,
    /// object migrated or re-spilled in the meantime).
    pub prefetch_cancels: usize,
    /// High-water mark of in-core object footprint.
    pub peak_mem: usize,
    /// Storage faults observed (injected or real) on this node's spill
    /// store.
    pub faults_injected: usize,
    /// Storage operations retried after a transient failure.
    pub io_retries: usize,
    /// Storage operations abandoned after exhausting the retry budget.
    pub io_gave_up: usize,
    /// Times this node entered degraded (stop-evicting) mode.
    pub degraded_entries: usize,
    /// Degraded-mode transitions in either direction (entries + exits).
    /// An even count at run end means every entry was matched by a
    /// probe-driven recovery; odd means the run finished degraded.
    pub degraded_mode_transitions: usize,
    /// Evictions served by the clean-eviction fast path: the on-disk bytes
    /// were still current, so the resident copy was dropped without
    /// re-pack or re-write.
    pub evictions_elided: usize,
    /// Packed bytes whose re-serialization and re-write were avoided by
    /// elided evictions.
    pub bytes_write_avoided: u64,
    /// Multi-victim evictions whose payloads were coalesced into a single
    /// batched store (one backend call, one sync decision).
    pub spill_batches: usize,
    /// Spill packs that reused a pooled buffer's capacity instead of
    /// allocating.
    pub buffer_pool_hits: usize,
    /// Handler-execution time that ran while this node had storage I/O in
    /// flight — a direct wall-clock measurement of I/O–compute overlap
    /// (threaded engine only; the DES derives overlap from busy-time
    /// excess instead).
    pub overlapped: Duration,
    /// Physical transmissions dropped by the network fault plan on this
    /// node's outgoing edges.
    pub messages_dropped: usize,
    /// Physical retransmissions issued by the reliable-delivery layer
    /// (each recovers a dropped or unacknowledged transmission).
    pub retransmits: usize,
    /// Duplicate deliveries suppressed by receiver-side sequence-number
    /// dedup (the handler ran exactly once regardless).
    pub dup_suppressed: usize,
    /// Directory hints dropped after repeated delivery failure to the
    /// hinted location (self-healing fallback to the home node).
    pub hints_invalidated: usize,
    /// Positive acknowledgements sent for received data messages.
    pub acks_sent: usize,
    /// Always zero: cluster prefetch left the runtime with the locality
    /// layout. Kept only because `perfbench/src/counters.rs` reads it.
    pub cluster_prefetches: usize,
    /// Packed bytes of loads that completed with work actually waiting for
    /// the object (queued messages, a pending migration, or a lock) — the
    /// demand denominator of read amplification.
    pub bytes_demanded: u64,
    /// Loads served by the segment log (threaded engine, SegmentLog
    /// backend only).
    pub segment_reads: usize,
    /// Loads that switched segments relative to this node's previous load;
    /// a sequential layout keeps this low relative to `segment_reads`.
    pub segment_switches: usize,
    /// Always zero: a cleaning pass relocates in key order since the
    /// locality layout left the runtime. Kept only because
    /// `perfbench/src/counters.rs` reads it.
    pub compaction_reorders: usize,
    /// Nondeterministic decisions logged by this node in record mode
    /// (fabric receive order, I/O completion order, reliable-layer
    /// timer firings). Zero outside record mode. See `mrts::replay`.
    pub decisions_recorded: usize,
    /// Always zero: a replay that leaves its log fails with
    /// `MrtsError::ReplayDiverged` instead. Kept only because the
    /// benchmark's report (`perfbench/src/workloads.rs`) reads it; it goes
    /// with the next change to the benchmark (ROADMAP item 1).
    pub replay_divergences: usize,
    /// Time this node spent starved: the threaded engine measures the
    /// idle-path fabric waits of its control loop; the DES charges each
    /// core's gap between its busy time and the makespan. Feeds
    /// [`RunStats::idle_fraction`], the load-imbalance headline the DAG
    /// scheduler exists to shrink.
    pub idle: Duration,
    /// Starvation observations: idle-path polls that found nothing to do
    /// (threaded), or steal probes that saw this node starved (DES).
    pub idle_ticks: u64,
    /// Steal requests this node issued while starved.
    pub steal_requests: u64,
    /// Ready tasks this node obtained through stealing (objects installed
    /// here in answer to its own steal requests).
    pub tasks_stolen: u64,
}

/// Aggregated result of one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Makespan: wall clock (threaded mode) or virtual time (DES mode).
    pub total: Duration,
    pub nodes: Vec<NodeStats>,
    /// Set by engines that measure overlap directly (per-node `overlapped`
    /// accumulators) rather than deriving it from busy-time excess. The
    /// threaded engine sets this: its nodes are OS threads sharing a wall
    /// clock, so summed busy percentages rarely exceed 100% even when I/O
    /// genuinely runs under computation, and the excess formula would
    /// clamp real overlap to zero.
    pub measured_overlap: bool,
}

impl RunStats {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn pct(&self, f: impl Fn(&NodeStats) -> Duration) -> f64 {
        if self.nodes.is_empty() || self.total.is_zero() {
            return 0.0;
        }
        let sum: f64 = self.nodes.iter().map(|n| f(n).as_secs_f64()).sum();
        100.0 * sum / (self.total.as_secs_f64() * self.nodes.len() as f64)
    }

    /// Computation as a percentage of total execution time (averaged over
    /// nodes).
    pub fn comp_pct(&self) -> f64 {
        self.pct(|n| n.comp)
    }

    /// Communication/synchronization percentage.
    pub fn comm_pct(&self) -> f64 {
        self.pct(|n| n.comm)
    }

    /// Disk I/O percentage.
    pub fn disk_pct(&self) -> f64 {
        self.pct(|n| n.disk)
    }

    /// Overlap of computation, communication and disk I/O, in percent.
    ///
    /// Engines with per-resource virtual clocks (the DES) report the
    /// busy-time excess over the wall clock (0 = fully serialized
    /// resources, 100 = everything always overlapped twice). Engines that
    /// measure overlap directly (`measured_overlap`, the threaded engine)
    /// report the measured fraction of the run during which handlers
    /// executed with storage I/O in flight.
    pub fn overlap_pct(&self) -> f64 {
        if self.measured_overlap {
            return self.pct(|n| n.overlapped);
        }
        (self.comp_pct() + self.comm_pct() + self.disk_pct() - 100.0).max(0.0)
    }

    /// The paper's per-PE speed metric: `Speed = S / (T · N)` where `S` is
    /// the problem size (mesh elements), `T` the total time and `N` the
    /// number of PEs.
    pub fn speed(&self, elements: u64) -> f64 {
        if self.total.is_zero() || self.nodes.is_empty() {
            return 0.0;
        }
        elements as f64 / (self.total.as_secs_f64() * self.nodes.len() as f64)
    }

    /// Sum over nodes of a counter.
    pub fn total_of(&self, f: impl Fn(&NodeStats) -> usize) -> usize {
        self.nodes.iter().map(f).sum()
    }

    /// Total message payload bytes sent across nodes.
    pub fn bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent).sum()
    }

    /// Total bytes spilled to disk across nodes.
    pub fn bytes_to_disk(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_to_disk).sum()
    }

    /// Total bytes read back from disk across nodes.
    pub fn bytes_from_disk(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_from_disk).sum()
    }

    /// Peak in-core footprint over all nodes.
    pub fn peak_mem(&self) -> usize {
        self.nodes.iter().map(|n| n.peak_mem).max().unwrap_or(0)
    }

    /// Total packed bytes whose re-write was avoided by elided evictions.
    pub fn bytes_write_avoided(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_write_avoided).sum()
    }

    /// Fraction of evictions served by the clean-eviction fast path
    /// (0.0 when the run evicted nothing).
    pub fn elision_rate(&self) -> f64 {
        let evictions = self.total_of(|n| n.evictions);
        if evictions == 0 {
            0.0
        } else {
            self.total_of(|n| n.evictions_elided) as f64 / evictions as f64
        }
    }

    /// Fraction of completed loads that overlapped with resident work
    /// (0.0 when the run did no loads at all).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let hits = self.total_of(|n| n.prefetch_hits);
        let done = hits + self.total_of(|n| n.prefetch_misses);
        if done == 0 {
            0.0
        } else {
            hits as f64 / done as f64
        }
    }

    /// Total packed bytes of loads that completed with work waiting.
    pub fn bytes_demanded(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_demanded).sum()
    }

    /// Read amplification: bytes loaded from disk ÷ bytes demanded
    /// (packed bytes of loads that had work waiting at completion).
    /// 1.0 means every byte read was demanded. A load is queued only by
    /// work of its own (a queued message, a migration or a lock), so more
    /// counts loads whose work was gone when they completed. 0.0 when the
    /// run demanded nothing.
    pub fn read_amplification(&self) -> f64 {
        let demanded = self.bytes_demanded();
        if demanded == 0 {
            0.0
        } else {
            self.bytes_from_disk() as f64 / demanded as f64
        }
    }

    /// Fixed-point read amplification (×1000), for JSON reports.
    pub fn read_amplification_x1000(&self) -> u64 {
        (self.read_amplification() * 1000.0).round() as u64
    }

    /// Loads served per segment visit: `segment_reads` over segment
    /// switches. No layout steers it: records sit where eviction batches
    /// and cleaning passes wrote them and loads follow demand, so it
    /// rises above 1.0 only as far as demand follows write order.
    pub fn loads_per_segment(&self) -> f64 {
        let reads = self.total_of(|n| n.segment_reads);
        let switches = self.total_of(|n| n.segment_switches);
        if reads == 0 {
            0.0
        } else {
            reads as f64 / switches.max(1) as f64
        }
    }

    /// Fraction of the run's node-time spent starved: Σ idle over nodes ÷
    /// (makespan × node count), in [0, 1]. 0.0 when nothing was measured.
    /// This is the imbalance metric the DAG scheduler and work stealing
    /// target.
    pub fn idle_fraction(&self) -> f64 {
        if self.nodes.is_empty() || self.total.is_zero() {
            return 0.0;
        }
        let idle: f64 = self.nodes.iter().map(|n| n.idle.as_secs_f64()).sum();
        (idle / (self.total.as_secs_f64() * self.nodes.len() as f64)).clamp(0.0, 1.0)
    }

    /// Every counter this run tracks, flattened to `(field name, total
    /// over nodes)` pairs and grouped by subsystem. This is the single
    /// source [`RunStats::summary`] renders from, so a counter added here
    /// is reported at once.
    pub fn counter_groups(&self) -> Vec<CounterGroup> {
        let t = |f: fn(&NodeStats) -> usize| self.total_of(f) as u64;
        vec![
            CounterGroup {
                name: "core",
                always: true,
                counters: vec![
                    ("loads", t(|n| n.loads)),
                    ("stores", t(|n| n.stores)),
                    ("peak_mem", self.peak_mem() as u64),
                    ("handlers_run", t(|n| n.handlers_run)),
                    ("msgs_local", t(|n| n.msgs_local)),
                    ("msgs_remote", t(|n| n.msgs_remote)),
                    ("msgs_forwarded", t(|n| n.msgs_forwarded)),
                    ("bytes_sent", self.bytes_sent()),
                    ("bytes_to_disk", self.bytes_to_disk()),
                    ("bytes_from_disk", self.bytes_from_disk()),
                    ("evictions", t(|n| n.evictions)),
                    ("migrations", t(|n| n.migrations)),
                ],
            },
            CounterGroup {
                name: "prefetch",
                always: false,
                counters: vec![
                    ("prefetch_issued", t(|n| n.prefetch_issued)),
                    ("prefetch_hits", t(|n| n.prefetch_hits)),
                    ("prefetch_misses", t(|n| n.prefetch_misses)),
                    ("prefetch_cancels", t(|n| n.prefetch_cancels)),
                ],
            },
            CounterGroup {
                name: "fault",
                always: false,
                counters: vec![
                    ("faults_injected", t(|n| n.faults_injected)),
                    ("io_retries", t(|n| n.io_retries)),
                    ("io_gave_up", t(|n| n.io_gave_up)),
                    ("degraded_entries", t(|n| n.degraded_entries)),
                    (
                        "degraded_mode_transitions",
                        t(|n| n.degraded_mode_transitions),
                    ),
                ],
            },
            CounterGroup {
                name: "spill",
                always: false,
                counters: vec![
                    ("evictions_elided", t(|n| n.evictions_elided)),
                    ("bytes_write_avoided", self.bytes_write_avoided()),
                    ("spill_batches", t(|n| n.spill_batches)),
                    ("buffer_pool_hits", t(|n| n.buffer_pool_hits)),
                ],
            },
            CounterGroup {
                name: "locality",
                always: false,
                counters: vec![
                    ("cluster_prefetches", t(|n| n.cluster_prefetches)),
                    ("bytes_demanded", self.bytes_demanded()),
                    ("segment_reads", t(|n| n.segment_reads)),
                    ("segment_switches", t(|n| n.segment_switches)),
                    ("compaction_reorders", t(|n| n.compaction_reorders)),
                ],
            },
            CounterGroup {
                name: "replay",
                always: false,
                counters: vec![
                    ("decisions_recorded", t(|n| n.decisions_recorded)),
                    ("replay_divergences", t(|n| n.replay_divergences)),
                ],
            },
            CounterGroup {
                name: "sched",
                always: false,
                counters: vec![
                    ("idle_ticks", self.nodes.iter().map(|n| n.idle_ticks).sum()),
                    (
                        "steal_requests",
                        self.nodes.iter().map(|n| n.steal_requests).sum(),
                    ),
                    (
                        "tasks_stolen",
                        self.nodes.iter().map(|n| n.tasks_stolen).sum(),
                    ),
                ],
            },
            CounterGroup {
                name: "net",
                always: false,
                counters: vec![
                    ("messages_dropped", t(|n| n.messages_dropped)),
                    ("retransmits", t(|n| n.retransmits)),
                    ("dup_suppressed", t(|n| n.dup_suppressed)),
                    ("hints_invalidated", t(|n| n.hints_invalidated)),
                    ("acks_sent", t(|n| n.acks_sent)),
                ],
            },
        ]
    }

    /// One-line human-readable summary rendered from
    /// [`RunStats::counter_groups`]. Quiet runs stay quiet: a subsystem's
    /// counters are appended only when the subsystem saw activity.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "T={:.3}s nodes={} comp={:.1}% comm={:.1}% disk={:.1}% overlap={:.1}%",
            self.total.as_secs_f64(),
            self.nodes.len(),
            self.comp_pct(),
            self.comm_pct(),
            self.disk_pct(),
            self.overlap_pct(),
        );
        for g in self.counter_groups() {
            if !g.active() {
                continue;
            }
            for (name, v) in &g.counters {
                s.push_str(&format!(" {name}={v}"));
            }
            // Derived metrics ride with their subsystem's group.
            match g.name {
                "prefetch" => s.push_str(&format!(
                    " prefetch_hit_rate={:.0}%",
                    self.prefetch_hit_rate() * 100.0
                )),
                "locality" => s.push_str(&format!(
                    " read_amplification_x1000={} loads_per_segment={:.2}",
                    self.read_amplification_x1000(),
                    self.loads_per_segment(),
                )),
                "sched" => s.push_str(&format!(" idle_fraction={:.3}", self.idle_fraction())),
                _ => {}
            }
        }
        s
    }
}

/// One subsystem's counters as `(NodeStats field name, total)` pairs —
/// the unit of [`RunStats::counter_groups`].
#[derive(Clone, Debug)]
pub struct CounterGroup {
    /// Subsystem label (`"core"`, `"fault"`, `"net"`, ...).
    pub name: &'static str,
    /// Appears in human summaries even when all counters are zero.
    pub always: bool,
    /// `(field name, value summed over nodes)` pairs.
    pub counters: Vec<(&'static str, u64)>,
}

impl CounterGroup {
    /// Should this group appear in a human-readable summary?
    pub fn active(&self) -> bool {
        self.always || self.counters.iter().any(|&(_, v)| v != 0)
    }
}

/// Convenience: build a `RunStats` for `n` nodes (used by engines).
pub fn empty_stats(n: usize) -> RunStats {
    RunStats {
        total: Duration::ZERO,
        nodes: vec![NodeStats::default(); n],
        measured_overlap: false,
    }
}

/// `(field, value)` for every field of a flat struct's `Debug` text that
/// prints as an unsigned integer: how the counter tests name every
/// counter without keeping a list by hand.
#[cfg(test)]
pub(crate) fn integer_fields(debug: &str) -> Vec<(&str, u64)> {
    let body = debug.split_once('{').map_or("", |(_, b)| b);
    body.trim_end_matches('}')
        .split(',')
        .filter_map(|field| {
            let (name, value) = field.split_once(':')?;
            Some((name.trim(), value.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(total_ms: u64, per_node: &[(u64, u64, u64)]) -> RunStats {
        RunStats {
            total: Duration::from_millis(total_ms),
            nodes: per_node
                .iter()
                .map(|&(c, m, d)| NodeStats {
                    comp: Duration::from_millis(c),
                    comm: Duration::from_millis(m),
                    disk: Duration::from_millis(d),
                    ..NodeStats::default()
                })
                .collect(),
            measured_overlap: false,
        }
    }

    #[test]
    fn percentages_average_over_nodes() {
        let s = stats_with(100, &[(50, 10, 20), (70, 30, 40)]);
        assert!((s.comp_pct() - 60.0).abs() < 1e-9);
        assert!((s.comm_pct() - 20.0).abs() < 1e-9);
        assert!((s.disk_pct() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_is_busy_time_excess() {
        // 60 + 20 + 30 = 110% of total → 10% overlap.
        let s = stats_with(100, &[(50, 10, 20), (70, 30, 40)]);
        assert!((s.overlap_pct() - 10.0).abs() < 1e-9);
        // Fully serialized resources → zero overlap (clamped).
        let s2 = stats_with(100, &[(30, 10, 20)]);
        assert_eq!(s2.overlap_pct(), 0.0);
    }

    /// A threaded-style run: nodes are OS threads against one wall clock,
    /// so busy percentages sum below 100% even with real overlap — the
    /// excess formula clamps to zero. The measured per-node `overlapped`
    /// accumulator must carry the metric instead.
    #[test]
    fn measured_overlap_survives_idle_nodes() {
        // 40 ms of handler time ran with I/O in flight on node 0, 20 ms on
        // node 1, out of a 100 ms run: 30% overlap. Busy excess would be
        // (50 + 10 + 20 + 30 + 5 + 10) / 2 = 62.5% < 100% → clamped 0.
        let mut s = stats_with(100, &[(50, 10, 20), (30, 5, 10)]);
        assert_eq!(s.overlap_pct(), 0.0, "excess formula hides the overlap");
        s.nodes[0].overlapped = Duration::from_millis(40);
        s.nodes[1].overlapped = Duration::from_millis(20);
        s.measured_overlap = true;
        assert!((s.overlap_pct() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn speed_is_elements_per_second_per_pe() {
        let s = stats_with(2000, &[(0, 0, 0); 4]);
        // 8M elements / (2 s × 4 PEs) = 1M el/s/PE.
        assert!((s.speed(8_000_000) - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_total_is_safe() {
        let s = empty_stats(3);
        assert_eq!(s.comp_pct(), 0.0);
        assert_eq!(s.speed(100), 0.0);
        assert_eq!(s.overlap_pct(), 0.0);
        assert_eq!(s.num_nodes(), 3);
    }

    #[test]
    fn prefetch_hit_rate_over_completed_loads() {
        let mut s = empty_stats(2);
        assert_eq!(s.prefetch_hit_rate(), 0.0);
        s.nodes[0].prefetch_hits = 3;
        s.nodes[0].prefetch_misses = 1;
        s.nodes[1].prefetch_hits = 1;
        s.nodes[1].prefetch_misses = 3;
        assert!((s.prefetch_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_renders() {
        let s = stats_with(100, &[(50, 10, 20)]);
        let text = s.summary();
        assert!(text.contains("comp=50.0%"));
        assert!(text.contains("nodes=1"));
        // Fault counters stay out of fault-free summaries.
        assert!(!text.contains("faults_injected="));
    }

    #[test]
    fn summary_surfaces_fault_counters() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        s.nodes[0].faults_injected = 5;
        s.nodes[0].io_retries = 4;
        s.nodes[0].io_gave_up = 1;
        s.nodes[0].degraded_entries = 2;
        s.nodes[0].degraded_mode_transitions = 4;
        let text = s.summary();
        assert!(text.contains("faults_injected=5"));
        assert!(text.contains("io_retries=4"));
        assert!(text.contains("io_gave_up=1"));
        assert!(text.contains("degraded_entries=2"));
        assert!(text.contains("degraded_mode_transitions=4"));
        // Spill fast-path counters stay out until the path actually fires.
        assert!(!text.contains("evictions_elided="));
    }

    #[test]
    fn summary_surfaces_net_fault_counters() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        let text = s.summary();
        assert!(!text.contains("messages_dropped="), "quiet runs stay quiet");
        s.nodes[0].messages_dropped = 7;
        s.nodes[0].retransmits = 9;
        s.nodes[0].dup_suppressed = 2;
        s.nodes[0].hints_invalidated = 1;
        s.nodes[0].acks_sent = 40;
        let text = s.summary();
        assert!(text.contains("messages_dropped=7"));
        assert!(text.contains("retransmits=9"));
        assert!(text.contains("dup_suppressed=2"));
        assert!(text.contains("hints_invalidated=1"));
        assert!(text.contains("acks_sent=40"));
    }

    #[test]
    fn summary_surfaces_replay_counters() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        let text = s.summary();
        assert!(
            !text.contains("decisions_recorded="),
            "quiet runs stay quiet"
        );
        s.nodes[0].decisions_recorded = 123;
        s.nodes[0].replay_divergences = 1;
        let text = s.summary();
        assert!(text.contains("decisions_recorded=123"));
        assert!(text.contains("replay_divergences=1"));
    }

    #[test]
    fn summary_surfaces_sched_counters() {
        let mut s = stats_with(100, &[(50, 10, 20), (80, 5, 5)]);
        let text = s.summary();
        assert!(!text.contains("idle_ticks="), "quiet runs stay quiet");
        s.nodes[0].idle = Duration::from_millis(40);
        s.nodes[0].idle_ticks = 7;
        s.nodes[0].steal_requests = 3;
        s.nodes[0].tasks_stolen = 2;
        let text = s.summary();
        assert!(text.contains("idle_ticks=7"));
        assert!(text.contains("steal_requests=3"));
        assert!(text.contains("tasks_stolen=2"));
        // 40ms idle over 2 nodes × 100ms.
        assert!(text.contains("idle_fraction=0.200"));
    }

    #[test]
    fn idle_fraction_zero_safe_and_clamped() {
        assert_eq!(RunStats::default().idle_fraction(), 0.0);
        let mut s = stats_with(100, &[(0, 0, 0)]);
        assert_eq!(s.idle_fraction(), 0.0);
        s.nodes[0].idle = Duration::from_millis(500); // over-measured
        assert_eq!(s.idle_fraction(), 1.0);
    }

    #[test]
    fn summary_surfaces_locality_counters() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        let text = s.summary();
        assert!(
            !text.contains("cluster_prefetches="),
            "quiet runs stay quiet"
        );
        s.nodes[0].cluster_prefetches = 5;
        s.nodes[0].bytes_from_disk = 3000;
        s.nodes[0].bytes_demanded = 2000;
        s.nodes[0].segment_reads = 40;
        s.nodes[0].segment_switches = 8;
        s.nodes[0].compaction_reorders = 2;
        let text = s.summary();
        assert!(text.contains("cluster_prefetches=5"));
        assert!(text.contains("bytes_demanded=2000"));
        assert!(text.contains("read_amplification_x1000=1500"));
        assert!(text.contains("segment_reads=40"));
        assert!(text.contains("segment_switches=8"));
        assert!(text.contains("loads_per_segment=5.00"));
        assert!(text.contains("compaction_reorders=2"));
        assert!((s.read_amplification() - 1.5).abs() < 1e-12);
        assert!((s.loads_per_segment() - 5.0).abs() < 1e-12);
        assert_eq!(s.read_amplification_x1000(), 1500);
    }

    #[test]
    fn locality_derived_metrics_zero_safe() {
        let s = empty_stats(2);
        assert_eq!(s.read_amplification(), 0.0);
        assert_eq!(s.read_amplification_x1000(), 0);
        assert_eq!(s.loads_per_segment(), 0.0);
        assert_eq!(s.bytes_demanded(), 0);
    }

    /// The no-drift guard: every counter named in `counter_groups` must
    /// appear (with its group active) in the one-line summary.
    #[test]
    fn summary_renders_every_counter() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        // One nonzero counter per group forces every group active.
        s.nodes[0].loads = 1;
        s.nodes[0].prefetch_issued = 1;
        s.nodes[0].faults_injected = 1;
        s.nodes[0].evictions_elided = 1;
        s.nodes[0].cluster_prefetches = 1;
        s.nodes[0].decisions_recorded = 1;
        s.nodes[0].idle_ticks = 1;
        s.nodes[0].messages_dropped = 1;
        let text = s.summary();
        for g in s.counter_groups() {
            assert!(g.active(), "group {} should be active", g.name);
            for (name, _) in &g.counters {
                assert!(
                    text.contains(&format!(" {name}=")),
                    "counter {name} missing from summary"
                );
            }
        }
    }

    /// Every integer field of `NodeStats` is a counter `counter_groups`
    /// reports, so one added later cannot be forgotten.
    #[test]
    fn counter_groups_name_every_integer_field() {
        let debug = format!("{:?}", NodeStats::default());
        let mut fields: Vec<&str> = integer_fields(&debug)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let mut named: Vec<&str> = (empty_stats(1).counter_groups().iter())
            .flat_map(|g| g.counters.iter().map(|&(name, _)| name))
            .collect();
        fields.sort_unstable();
        named.sort_unstable();
        assert_eq!(fields, named);
    }

    #[test]
    fn summary_surfaces_spill_fast_path_counters() {
        let mut s = stats_with(100, &[(50, 10, 20)]);
        s.nodes[0].evictions = 10;
        s.nodes[0].evictions_elided = 4;
        s.nodes[0].bytes_write_avoided = 4096;
        s.nodes[0].spill_batches = 2;
        s.nodes[0].buffer_pool_hits = 6;
        let text = s.summary();
        assert!(text.contains("evictions_elided=4"));
        assert!(text.contains("bytes_write_avoided=4096"));
        assert!(text.contains("spill_batches=2"));
        assert!(text.contains("buffer_pool_hits=6"));
        assert!((s.elision_rate() - 0.4).abs() < 1e-12);
    }
}
