//! Integration: out-of-core layer behavior at the application level —
//! overlap, budgets, swap policies, threaded-engine parity.

use pumg::methods::domain::Workload;
use pumg::methods::ooc_pcdm::opcdm_run;
use pumg::methods::ooc_updr::oupdr_run;
use pumg::methods::pcdm::PcdmParams;
use pumg::methods::updr::UpdrParams;
use pumg::methods::MethodResult;
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::des::Des;
use pumg::mrts::policy::PolicyKind;
use pumg::mrts::threaded::Threads;

/// Runs of each configuration a time assertion reads. A busy host only
/// ever adds measured handler time to a clock, so a configuration's
/// quietest run (the smallest total) is the one closest to the model's own
/// figure.
const RUNS: usize = 5;

/// `n` runs of each of `configs`, quietest first per configuration. The
/// configurations take turns, so a stretch of host load that outlasts all
/// of one configuration's runs falls on the others too.
fn quietest_first<C>(
    n: usize,
    configs: &[C],
    run: impl Fn(&C) -> MethodResult,
) -> Vec<Vec<MethodResult>> {
    let mut runs: Vec<Vec<MethodResult>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..n {
        for (config, runs) in configs.iter().zip(&mut runs) {
            runs.push(run(config));
        }
    }
    for runs in &mut runs {
        runs.sort_by_key(|r| r.stats.total);
    }
    runs
}

#[test]
fn overlap_emerges_on_large_ooc_runs() {
    // Tables IV–VI: on problems well past memory, disk I/O runs while
    // other objects compute, so busy-time overlap must be visible.
    let p = UpdrParams::new(Workload::uniform_square(24_000), 6);
    // ~24k elements ≈ 0.9 MB arena (plus buffer-zone overlap); 4 × 120 KB
    // is roughly 3x over-subscribed. Compute is scaled ~30x to model the
    // paper's 650 MHz-class nodes against the period-realistic disk model
    // (otherwise a modern CPU makes disk dominate and nothing overlaps).
    let budget = 120_000usize;
    let mut cfg = MrtsConfig::out_of_core(4, budget);
    cfg.compute_scale = 32.0;
    let r = &quietest_first(RUNS, &[cfg], |cfg| oupdr_run::<Des>(&p, cfg.clone()))[0][0];
    assert!(r.stats.disk_pct() > 3.0, "{}", r.stats.summary());
    assert!(
        r.stats.overlap_pct() > 0.0,
        "disk must overlap compute: {}",
        r.stats.summary()
    );
}

#[test]
fn peak_memory_respects_budget_with_slack() {
    let p = UpdrParams::new(Workload::uniform_square(16_000), 6);
    let budget = 120_000usize;
    let r = oupdr_run::<Des>(&p, MrtsConfig::out_of_core(4, budget));
    assert!(r.stats.total_of(|n| n.stores) > 0);
    // The hard threshold may overshoot by roughly one largest object; 3x
    // is the failure line.
    assert!(
        r.stats.peak_mem() < 3 * budget,
        "peak {} vs budget {budget}",
        r.stats.peak_mem()
    );
}

#[test]
fn all_swap_policies_complete_correctly() {
    let p = PcdmParams::new(Workload::uniform_square(8_000), 3);
    let budget = 70_000usize;
    let reference = opcdm_run::<Des>(&p, MrtsConfig::in_core(2)).elements;
    for policy in PolicyKind::ALL {
        let r = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, budget).with_policy(policy));
        // Out-of-core queueing can reorder refine/split handling, and
        // Delaunay refinement is order-dependent in its Steiner choices —
        // the meshes are equally valid but may differ by a few elements.
        let ratio = r.elements as f64 / reference as f64;
        assert!(
            (0.97..1.03).contains(&ratio),
            "policy {} changed the mesh materially: {} vs {reference}",
            policy.name(),
            r.elements
        );
        assert!(
            r.stats.total_of(|n| n.stores) > 0,
            "policy {} never spilled",
            policy.name()
        );
    }
}

#[test]
fn threaded_engine_produces_identical_mesh() {
    // The same OPCDM application on real OS threads with real spill files
    // must produce exactly the mesh the virtual-time engine produced.
    let p = PcdmParams::new(Workload::uniform_square(6_000), 2);
    let des = opcdm_run::<Des>(&p, MrtsConfig::in_core(2));
    let mut cfg = MrtsConfig::out_of_core(2, 300_000);
    cfg.spill_dir = Some(std::env::temp_dir().join(format!("mrts-parity-{}", std::process::id())));
    let spill = cfg.spill_dir.clone().unwrap();
    let threaded = opcdm_run::<Threads>(&p, cfg);
    assert_eq!(des.elements, threaded.elements);
    assert_eq!(des.vertices, threaded.vertices);
    let _ = std::fs::remove_dir_all(spill);
}

#[test]
fn prefetch_overlaps_loads_with_compute() {
    // The message-driven prefetcher must turn queued-but-on-disk objects
    // into look-ahead loads that complete while other objects compute.
    let p = UpdrParams::new(Workload::uniform_square(24_000), 6);
    let mut cfg = MrtsConfig::out_of_core(4, 120_000);
    cfg.compute_scale = 32.0;
    let r = oupdr_run::<Des>(&p, cfg);
    let stats = &r.stats;
    let loads = stats.total_of(|n| n.loads);
    assert!(
        loads > 0,
        "workload must be out-of-core: {}",
        stats.summary()
    );
    // Every completed load is classified exactly once.
    assert_eq!(
        stats.total_of(|n| n.prefetch_hits) + stats.total_of(|n| n.prefetch_misses),
        loads,
        "hit/miss classification must cover every load"
    );
    assert!(
        stats.total_of(|n| n.prefetch_issued) > 0,
        "no look-ahead loads were issued: {}",
        stats.summary()
    );
    assert!(
        stats.prefetch_hit_rate() > 0.0,
        "no load was masked by computation: {}",
        stats.summary()
    );
}

#[test]
fn prefetch_pacing_respects_budget_under_pressure() {
    // A paced prefetch window must not blow the memory budget even on a
    // severely over-subscribed node (the look-ahead loads are charged
    // against the same budget as demand loads).
    let p = PcdmParams::new(Workload::uniform_square(8_000), 3);
    let budget = 70_000usize;
    let r = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, budget));
    assert!(r.stats.total_of(|n| n.stores) > 0);
    assert!(
        r.stats.peak_mem() < 3 * budget,
        "peak {} vs budget {budget}",
        r.stats.peak_mem()
    );
    let loads = r.stats.total_of(|n| n.loads);
    assert_eq!(
        r.stats.total_of(|n| n.prefetch_hits) + r.stats.total_of(|n| n.prefetch_misses),
        loads
    );
}

#[test]
fn wider_disk_pipeline_never_slows_the_des() {
    // Virtual disk channels model the I/O pool: two channels must not be
    // slower than one on the same deterministic OOC workload.
    let p = PcdmParams::new(Workload::uniform_square(8_000), 3);
    let budget = 70_000usize;
    let t1 = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, budget).with_io_threads(1))
        .stats
        .total;
    let t2 = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, budget).with_io_threads(2))
        .stats
        .total;
    assert!(
        t2 <= t1,
        "2 disk channels ({t2:?}) must not lose to 1 ({t1:?})"
    );
}

#[test]
fn more_nodes_means_less_virtual_time() {
    // Node-level scaling in the virtual-time model: same OOC workload on
    // more nodes finishes sooner (the sub-linear scaling of the paper).
    let p = PcdmParams::new(Workload::uniform_square(16_000), 4);
    // The 8-node makespan is ~3 ms of handler time, and one preemption adds
    // a whole scheduler slice (~4 ms) to it: under a busy loop most of its
    // runs are hit, in bursts, so it takes more than `RUNS` to find a quiet
    // one.
    let in_core = |&n: &usize| opcdm_run::<Des>(&p, MrtsConfig::in_core(n));
    let runs = quietest_first(3 * RUNS, &[2, 8], in_core);
    let (t2, t8) = (runs[0][0].stats.total, runs[1][0].stats.total);
    assert!(t8 < t2, "8 nodes ({t8:?}) must beat 2 nodes ({t2:?})");
    let speedup = t2.as_secs_f64() / t8.as_secs_f64();
    assert!(
        speedup > 1.5,
        "expected meaningful scaling, got {speedup:.2}x"
    );
}
