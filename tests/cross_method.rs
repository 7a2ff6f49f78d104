//! Cross-crate integration: the three PUMG methods, their MRTS ports, and
//! the in-core/out-of-core relationships the paper's evaluation rests on.

use pumg::geometry::Point2;
use pumg::methods::domain::{DomainSpec, SizingSpec, Workload};
use pumg::methods::nupdr::{nupdr_incore, NupdrParams};
use pumg::methods::ooc_nupdr::{onupdr_run, OnupdrOpts};
use pumg::methods::ooc_pcdm::opcdm_run;
use pumg::methods::ooc_updr::oupdr_run;
use pumg::methods::pcdm::{pcdm_incore, PcdmParams};
use pumg::methods::updr::{updr_incore, UpdrParams};
use pumg::methods::MethodResult;
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::des::Des;

const BIG: u64 = 1 << 34; // "infinite" per-PE memory for baselines

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

fn graded(elements: u64) -> Workload {
    let domain = DomainSpec::unit_square();
    let h_avg = pumg::methods::domain::h_for_elements(domain.area(), elements);
    let h_min = h_avg / 1.6;
    Workload {
        domain,
        sizing: SizingSpec::Graded {
            focus: Point2::new(0.0, 0.0),
            h_min,
            h_max: h_min * 4.0,
            radius: 1.4,
        },
    }
}

#[test]
fn all_three_methods_mesh_the_same_square() {
    let elements = 4000;
    let updr = updr_incore(
        &UpdrParams::new(Workload::uniform_square(elements), 2),
        4,
        BIG,
    )
    .unwrap();
    let pcdm = pcdm_incore(
        &PcdmParams::new(Workload::uniform_square(elements), 2),
        4,
        BIG,
    )
    .unwrap();
    let nupdr = nupdr_incore(&NupdrParams::new(graded(elements)), 4, BIG).unwrap();
    // All land in the same ballpark for the same target size.
    for (name, r) in [("updr", &updr), ("pcdm", &pcdm), ("nupdr", &nupdr)] {
        let ratio = r.elements as f64 / elements as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "{name}: {} elements for target {elements}",
            r.elements
        );
        assert!(r.stats.total > std::time::Duration::ZERO, "{name}");
    }
    // UPDR's buffer-zone overlap makes it produce ≥ PCDM's conforming
    // decomposition for equal sizing.
    assert!(updr.elements as f64 > 0.5 * pcdm.elements as f64);
}

#[test]
fn ports_track_their_baselines_in_core() {
    // The paper's figures 5–7: the MRTS port running in-core stays within
    // a modest overhead of the native baseline (paper: ≤12–18%). Our
    // virtual-time accounting measures the same real kernels plus runtime
    // machinery, so the counts must match and the time must be close.
    let p = UpdrParams::new(Workload::uniform_square(3000), 2);
    // Without a runtime configuration, the native baseline runs.
    let runs = quietest_first(
        RUNS,
        &[None, Some(MrtsConfig::in_core(4))],
        |cfg| match cfg {
            None => updr_incore(&p, 4, BIG).unwrap(),
            Some(cfg) => oupdr_run::<Des>(&p, cfg.clone()),
        },
    );
    let (bases, ports) = (&runs[0], &runs[1]);
    // Element counts track the baseline tightly but not bit-exactly: the
    // runtime's interface-point exchanges arrive in measured-duration
    // order, and Ruppert refinement is insertion-order sensitive, so a
    // loaded machine can shift a handful of Steiner points.
    for (base, port) in bases.iter().zip(ports) {
        let drift = (port.elements as f64 - base.elements as f64).abs() / base.elements as f64;
        assert!(
            drift < 0.02,
            "port produced {} elements vs baseline {}",
            port.elements,
            base.elements
        );
    }
    let (base, port) = (&bases[0], &ports[0]);
    // Time ratios are noisy here: the harness runs tests on parallel
    // threads of one core, and both engines charge *measured* durations.
    // The precise overhead claims are made by the single-process report
    // binaries (EXPERIMENTS.md); this is a sanity bound.
    let overhead = port.total_secs() / base.total_secs();
    assert!(
        overhead < 6.0,
        "in-core OUPDR overhead {overhead:.2}x vs baseline"
    );
}

#[test]
fn out_of_core_ports_complete_where_baselines_die() {
    // The defining capability: a problem too large for the in-core
    // baseline's aggregate memory completes on the out-of-core port with
    // the same per-node budget.
    let p = PcdmParams::new(Workload::uniform_square(20_000), 3);
    // ~20k elements ≈ 800 KB of mesh arena; 2 × 250 KB cannot hold it.
    let budget_per_node = 250_000u64; // bytes
    let baseline = pcdm_incore(&p, 2, budget_per_node);
    assert!(
        baseline.is_err(),
        "baseline should exhaust 2x{budget_per_node}B"
    );
    let port = opcdm_run::<Des>(&p, MrtsConfig::out_of_core(2, budget_per_node as usize));
    assert!(port.elements > 10_000);
    assert!(
        port.stats.total_of(|n| n.stores) > 0,
        "{}",
        port.stats.summary()
    );
}

#[test]
fn onupdr_out_of_core_tracks_in_core_counts() {
    let params = NupdrParams::new(graded(5000));
    let incore = onupdr_run::<Des>(&params, MrtsConfig::in_core(2), OnupdrOpts::default());
    let budget = (incore.stats.peak_mem() / 4).max(60_000);
    let ooc = onupdr_run::<Des>(
        &params,
        MrtsConfig::out_of_core(2, budget),
        OnupdrOpts::default(),
    );
    let ratio = ooc.elements as f64 / incore.elements as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "ooc {} vs incore {}",
        ooc.elements,
        incore.elements
    );
    // Out-of-core must actually pay for disk...
    assert!(ooc.stats.disk_pct() > 0.0);
    // ...and be slower than in-core, but boundedly so (paper fig. 6).
    assert!(ooc.stats.total >= incore.stats.total);
}

#[test]
fn speed_metric_roughly_flat_across_sizes() {
    // Tables I–III: Speed = S/(T·N) stays roughly constant as the problem
    // grows (the methods scale).
    let sizes = [2000u64, 4000, 8000]
        .map(|elements| PcdmParams::new(Workload::uniform_square(elements), 2));
    let runs = quietest_first(RUNS, &sizes, |p| {
        opcdm_run::<Des>(p, MrtsConfig::in_core(4))
    });
    let speeds: Vec<f64> = runs.iter().map(|runs| runs[0].speed()).collect();
    let max = speeds.iter().cloned().fold(0.0f64, f64::max);
    let min = speeds.iter().cloned().fold(f64::INFINITY, f64::min);
    // Loose bound: measured-duration noise under parallel test threads can
    // easily stretch single runs severalfold (the tight flatness claim is
    // checked by the report binaries in a quiet process).
    assert!(
        max / min < 12.0,
        "speed should be roughly flat, got {speeds:?}"
    );
}
