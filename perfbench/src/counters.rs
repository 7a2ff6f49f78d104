//! Per-layer numbers read from the `RunStats` a run returned: the run
//! counters of the catalog, named and scaled once here so `run`, the
//! traced run and the driver mode all report the same thing.

use mrts::stats::RunStats;

pub struct RunFacts<'a> {
    pub stats: &'a RunStats,
    /// The run's `stats.total` is virtual time (the DES engine).
    pub virtual_time: bool,
    pub wall_s: f64,
    pub elements: u64,
    /// Per-node budget; `None` = unlimited.
    pub budget: Option<usize>,
    pub nodes: usize,
    pub peak_rss_mb: f64,
    pub segment_bytes: usize,
}

const MB: f64 = 1e6;

/// Every `Counter`-sourced per-layer metric of the catalog, by name.
pub fn from_run(f: &RunFacts) -> Vec<(&'static str, f64)> {
    let s = f.stats;
    let t = |g: fn(&mrts::stats::NodeStats) -> usize| s.total_of(g) as f64;
    let handlers = t(|n| n.handlers_run);
    let budget_total = f.budget.map(|b| (b * f.nodes) as f64);
    let over = |x: f64| budget_total.map_or(0.0, |b| x / b);
    // Parallel-external-memory accounting (computed, not observed on a
    // device): a sealed segment is one block written, a record load one
    // block read; the bound is the bytes moved in whole blocks.
    let seg = f.segment_bytes.max(1) as f64;
    let (wr, rd) = (s.bytes_to_disk() as f64, s.bytes_from_disk() as f64);
    let block_ios = t(|n| n.segment_reads) + (wr / seg).ceil();
    let pem_bound = ((wr + rd) / seg).ceil();
    vec![
        ("methods.elements", f.elements as f64),
        ("methods.elements_per_s", f.elements as f64 / f.wall_s),
        ("control.handlers_run", handlers),
        ("control.msgs_local", t(|n| n.msgs_local)),
        ("control.msgs_remote", t(|n| n.msgs_remote)),
        ("control.msgs_forwarded", t(|n| n.msgs_forwarded)),
        ("control.bytes_sent_mb", s.bytes_sent() as f64 / MB),
        ("ooc.evictions", t(|n| n.evictions)),
        ("ooc.evictions_elided", t(|n| n.evictions_elided)),
        ("ooc.elision_rate", 100.0 * s.elision_rate()),
        ("ooc.prefetch_issued", t(|n| n.prefetch_issued)),
        ("ooc.prefetch_hit_rate", 100.0 * s.prefetch_hit_rate()),
        ("ooc.prefetch_cancels", t(|n| n.prefetch_cancels)),
        ("ooc.tracked_peak_mb", s.peak_mem() as f64 / MB),
        (
            "ooc.peak_over_budget",
            f.budget.map_or(0.0, |b| s.peak_mem() as f64 / b as f64),
        ),
        ("ooc.rss_over_budget", over(f.peak_rss_mb * MB)),
        ("locality.cluster_prefetches", t(|n| n.cluster_prefetches)),
        ("locality.compaction_reorders", t(|n| n.compaction_reorders)),
        ("storage.loads", t(|n| n.loads)),
        ("storage.stores", t(|n| n.stores)),
        ("storage.read_mb", rd / MB),
        ("storage.write_mb", wr / MB),
        (
            "storage.write_avoided_mb",
            s.bytes_write_avoided() as f64 / MB,
        ),
        ("storage.read_amp", s.read_amplification()),
        ("storage.loads_per_segment", s.loads_per_segment()),
        ("storage.spill_batches", t(|n| n.spill_batches)),
        ("storage.buffer_pool_hits", t(|n| n.buffer_pool_hits)),
        ("storage.block_ios", block_ios),
        ("storage.block_ios_pem_bound", pem_bound),
        ("engine.comp_share", s.comp_pct()),
        ("engine.comm_share", s.comm_pct()),
        ("engine.disk_share", s.disk_pct()),
        ("engine.idle_share", 100.0 * s.idle_fraction()),
        ("engine.overlap_pct", s.overlap_pct()),
        (
            "des.handlers_per_wall_s",
            if f.virtual_time {
                handlers / f.wall_s
            } else {
                0.0
            },
        ),
        (
            "des.virtual_s",
            if f.virtual_time {
                s.total.as_secs_f64()
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Source, PER_LAYER};
    use mrts::stats::empty_stats;
    use std::time::Duration;

    #[test]
    fn names_are_exactly_the_catalog_counter_metrics() {
        let stats = empty_stats(2);
        let got = from_run(&RunFacts {
            stats: &stats,
            virtual_time: false,
            wall_s: 1.0,
            elements: 10,
            budget: None,
            nodes: 2,
            peak_rss_mb: 1.0,
            segment_bytes: 1 << 20,
        });
        let mut have: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Counter)
            .map(|m| m.name)
            .collect();
        have.sort_unstable();
        want.sort_unstable();
        assert_eq!(have, want);
        assert!(got.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn ratios_and_block_accounting() {
        let mut stats = empty_stats(2);
        stats.total = Duration::from_secs(2);
        stats.nodes[0].bytes_to_disk = 3 << 20;
        stats.nodes[1].bytes_from_disk = (1 << 20) + 1;
        stats.nodes[1].segment_reads = 5;
        stats.nodes[0].peak_mem = 4_000_000;
        stats.nodes[0].handlers_run = 100;
        let got = from_run(&RunFacts {
            stats: &stats,
            virtual_time: true,
            wall_s: 4.0,
            elements: 1000,
            budget: Some(2_000_000),
            nodes: 2,
            peak_rss_mb: 8.0,
            segment_bytes: 1 << 20,
        });
        let v = |name: &str| got.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(v("storage.block_ios"), 5.0 + 3.0);
        assert_eq!(v("storage.block_ios_pem_bound"), 5.0);
        assert_eq!(v("ooc.peak_over_budget"), 2.0);
        assert_eq!(v("ooc.rss_over_budget"), 2.0);
        assert_eq!(v("des.virtual_s"), 2.0);
        assert_eq!(v("des.handlers_per_wall_s"), 25.0);
        assert_eq!(v("methods.elements_per_s"), 250.0);
    }
}
