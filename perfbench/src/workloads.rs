//! One repetition of one workload, run inside a child process.
//!
//! A repetition generates its input, warms up at a sixteenth scale (which
//! doubles as the out-of-core-versus-in-core output check), constructs the
//! timed instance, and then times exactly `rt.run()`: CPU time and the
//! resident-set high-water mark are read around it, before collecting and
//! verifying allocate. The product is only ever driven through its public
//! functions.

use crate::catalog::{self, WorkloadId};
use crate::counters;
use crate::inputs::{self, Input, SweepInput};
use crate::json::Value;
use crate::procfs;
use crate::sweep;
use crate::trace::{self, StampingSink};
use mrts::config::MrtsConfig;
use mrts::des::DesRuntime;
use mrts::ids::{MobilePtr, NodeId, ObjectId};
use mrts::stats::RunStats;
use mrts::threaded::ThreadedRuntime;
use pumg_methods::common::fnv1a;
use pumg_methods::ooc_nupdr::{onupdr_setup_threaded, LeafObj, OnupdrOpts};
use pumg_methods::ooc_pcdm::{self, SubObj};
use pumg_methods::ooc_updr::{oupdr_collect_threaded, oupdr_setup_threaded};
use pumg_methods::pcdm::{build_subdomains, PcdmParams, SIDES};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct RepOptions {
    pub workload: WorkloadId,
    pub seed: u64,
    pub rep: u32,
    /// 1 at full scale, [`catalog::SMOKE_DIVISOR`] for `--smoke`.
    pub divisor: u64,
    /// This repetition's own spill directory (created here, removed here
    /// on success and by the parent in every case).
    pub spill_dir: PathBuf,
    /// Run the timed instance with an unlimited budget: the digest twin
    /// `selfcheck` compares out-of-core runs against.
    pub twin: bool,
    /// Where a traced repetition writes its Chrome-trace file.
    pub trace_out: Option<PathBuf>,
}

/// A constructed, not yet run, instance of a workload.
enum Prepared {
    Updr(ThreadedRuntime),
    Nupdr(ThreadedRuntime),
    Pcdm(Box<DesRuntime>),
    Sweep(ThreadedRuntime),
}

/// What a finished instance produced.
#[derive(Clone, Copy, Debug, Default)]
struct Produced {
    elements: u64,
    digest: u64,
    /// The method reached its final phase.
    complete: bool,
    sweep: Option<sweep::SweepOutcome>,
}

fn threaded_nodes() -> usize {
    procfs::nproc().min(catalog::THREADED_NODES)
}

/// Per-node budget of `workload` at `divisor`; `None` = unlimited. The
/// sweep's budget is a share of its population's tracked footprint.
fn budget_for(workload: WorkloadId, divisor: u64, population_bytes: usize) -> Option<usize> {
    let d = divisor.max(1) as usize;
    match workload {
        WorkloadId::UpdrIncore => None,
        WorkloadId::UpdrOoc => Some(catalog::UPDR_OOC_BUDGET / d),
        WorkloadId::NupdrOoc => Some(
            catalog::NUPDR_BUDGET_FLOOR
                + catalog::NUPDR_BUDGET_PER_ELEMENT * catalog::NUPDR_ELEMENTS as usize / d,
        ),
        WorkloadId::PcdmDes8 => Some(catalog::PCDM_BUDGET / d),
        WorkloadId::SweepReadmostly => {
            Some(population_bytes / threaded_nodes() / catalog::SWEEP_BUDGET_SHARE)
        }
    }
}

/// Threaded-engine configuration: product defaults except node count,
/// budget and spill directory.
fn threaded_cfg(budget: Option<usize>, spill: &Path) -> MrtsConfig {
    let nodes = threaded_nodes();
    match budget {
        None => MrtsConfig::in_core(nodes),
        Some(b) => {
            let mut cfg = MrtsConfig::out_of_core(nodes, b);
            cfg.spill_dir = Some(spill.to_path_buf());
            cfg
        }
    }
}

fn des_cfg(budget: Option<usize>) -> MrtsConfig {
    let mut cfg = match budget {
        None => MrtsConfig::in_core(catalog::PCDM_NODES),
        Some(b) => MrtsConfig::out_of_core(catalog::PCDM_NODES, b),
    };
    cfg.deterministic_compute = true;
    cfg.compute_scale = catalog::PCDM_COMPUTE_SCALE;
    cfg
}

/// OPCDM on the virtual-time engine, assembled from the method's public
/// pieces so that `rt.run()` can be timed on its own (`opcdm_run` builds,
/// runs and collects in one call).
fn prepare_pcdm(
    params: &PcdmParams,
    cfg: MrtsConfig,
    sink: Option<&Arc<StampingSink>>,
) -> DesRuntime {
    let nodes = cfg.nodes;
    let mut rt = DesRuntime::new(cfg);
    ooc_pcdm::register(&mut rt);
    // The virtual-time engine emits Create events at `create_object`.
    attach_des(&mut rt, sink);
    let subs = build_subdomains(params);
    let ptr_of =
        |i: usize| MobilePtr::new(ObjectId::new((i % nodes) as NodeId, (i / nodes) as u64));
    let n = subs.len();
    assert!(n > 0, "no subdomains intersect the domain");
    for sd in subs {
        let i = sd.idx;
        let mut neighbor_ptrs = [None; SIDES];
        for (np, nb) in neighbor_ptrs.iter_mut().zip(&sd.neighbors) {
            *np = nb.map(ptr_of);
        }
        let created = rt.create_object(
            (i % nodes) as NodeId,
            Box::new(SubObj {
                sd,
                workload: params.workload,
                neighbor_ptrs,
            }),
            128,
        );
        assert_eq!(created, ptr_of(i), "placement must match precomputed ptrs");
    }
    for i in 0..n {
        rt.post(ptr_of(i), ooc_pcdm::H_REFINE, Vec::new());
    }
    rt
}

// `attach_audit` exists only when the product's `audit` feature is on,
// which this crate's `trace` feature forwards to.
fn attach_threaded(rt: &mut ThreadedRuntime, sink: Option<&Arc<StampingSink>>) {
    #[cfg(feature = "trace")]
    if let Some(s) = sink {
        rt.attach_audit(s.clone());
    }
    #[cfg(not(feature = "trace"))]
    let _ = (rt, sink);
}

fn attach_des(rt: &mut DesRuntime, sink: Option<&Arc<StampingSink>>) {
    #[cfg(feature = "trace")]
    if let Some(s) = sink {
        rt.attach_audit(s.clone());
    }
    #[cfg(not(feature = "trace"))]
    let _ = (rt, sink);
}

/// Tracked footprint of a sweep population (what `PatchObj::footprint`
/// will report for each member).
fn population_bytes(population: &[pumg_delaunay::TriMesh]) -> usize {
    population.iter().map(|m| 256 + m.mem_footprint()).sum()
}

struct SweepPlan<'a> {
    input: &'a SweepInput,
    population: Vec<pumg_delaunay::TriMesh>,
    sweeps: u32,
}

fn prepare(
    input: &Input,
    sweep_plan: Option<SweepPlan>,
    budget: Option<usize>,
    spill: &Path,
    sink: Option<&Arc<StampingSink>>,
) -> Prepared {
    match input {
        Input::Updr(p) => {
            let (mut rt, _coord) = oupdr_setup_threaded(p, threaded_cfg(budget, spill));
            attach_threaded(&mut rt, sink);
            Prepared::Updr(rt)
        }
        Input::Nupdr(p) => {
            let mut rt =
                onupdr_setup_threaded(p, threaded_cfg(budget, spill), OnupdrOpts::default());
            attach_threaded(&mut rt, sink);
            Prepared::Nupdr(rt)
        }
        Input::Pcdm(p) => Prepared::Pcdm(Box::new(prepare_pcdm(p, des_cfg(budget), sink))),
        Input::Sweep(_) => {
            let plan = sweep_plan.expect("sweep inputs come with a population");
            let mut rt = sweep::setup(
                plan.input,
                plan.population,
                plan.sweeps,
                threaded_cfg(budget, spill),
            );
            attach_threaded(&mut rt, sink);
            Prepared::Sweep(rt)
        }
    }
}

impl Prepared {
    fn run(&mut self) -> RunStats {
        match self {
            Prepared::Updr(rt) | Prepared::Nupdr(rt) | Prepared::Sweep(rt) => rt.run(),
            Prepared::Pcdm(rt) => rt.run(),
        }
    }

    fn collect(&mut self) -> Produced {
        match self {
            Prepared::Updr(rt) => {
                let (elements, _vertices, phase, digest) = oupdr_collect_threaded(rt);
                Produced {
                    elements,
                    digest,
                    complete: phase == 4,
                    sweep: None,
                }
            }
            Prepared::Nupdr(rt) => {
                let mut elements = 0;
                rt.for_each_object(|_, obj| {
                    if let Some(l) = obj.as_any().downcast_ref::<LeafObj>() {
                        elements += l.elems;
                    }
                });
                Produced {
                    elements,
                    complete: elements > 0,
                    ..Produced::default()
                }
            }
            Prepared::Pcdm(rt) => {
                let mut elements = 0;
                rt.for_each_object(|_, obj| {
                    if let Some(s) = obj.as_any().downcast_ref::<SubObj>() {
                        elements += s.sd.mesh.num_tris() as u64;
                    }
                });
                Produced {
                    elements,
                    complete: elements > 0,
                    ..Produced::default()
                }
            }
            Prepared::Sweep(rt) => {
                let out = sweep::collect(rt);
                Produced {
                    elements: out.elements,
                    digest: out.digest,
                    complete: out.queries + out.refines > 0,
                    sweep: Some(out),
                }
            }
        }
    }
}

/// `a` within `tolerance` of `b`, with a few elements of absolute slack:
/// at warm-up and smoke scale a mesh has a few hundred elements and
/// schedule-dependent methods differ by a dozen.
fn within(a: u64, b: u64, tolerance: f64) -> bool {
    const SLACK: f64 = 32.0;
    let (a, b) = (a as f64, b as f64);
    b > 0.0 && (a - b).abs() <= tolerance * b + SLACK
}

/// The warm-up pass: the workload at a sixteenth scale, in-core and (for
/// out-of-core workloads) again under the same budget ratio; the two must
/// agree — by digest where the mesh is a function of the input, by
/// element count otherwise. Returns a failure description, if any.
fn warm_up(opts: &RepOptions, spill: &Path) -> Option<String> {
    let w = opts.workload;
    let divisor = opts.divisor * catalog::WARMUP_DIVISOR;
    let input = inputs::generate(w, opts.seed, divisor);
    let run_once = |budgeted: bool| -> Produced {
        let (plan, pop_bytes) = match &input {
            Input::Sweep(s) => {
                let population = sweep::build_population(s);
                let bytes = population_bytes(&population);
                let plan = SweepPlan {
                    input: s,
                    population,
                    sweeps: (s.sweeps / catalog::WARMUP_DIVISOR as u32).max(1),
                };
                (Some(plan), bytes)
            }
            _ => (None, 0),
        };
        let budget = budgeted
            .then(|| budget_for(w, divisor, pop_bytes))
            .flatten();
        let mut p = prepare(&input, plan, budget, spill, None);
        p.run();
        p.collect()
    };
    let reference = run_once(false);
    if !reference.complete || reference.elements == 0 {
        return Some("warm-up produced no mesh".into());
    }
    if !w.out_of_core() {
        return None;
    }
    let ooc = run_once(true);
    if !ooc.complete {
        return Some("out-of-core warm-up did not complete".into());
    }
    if w.digest_is_deterministic() {
        if ooc.digest != reference.digest || ooc.elements != reference.elements {
            return Some(format!(
                "out-of-core warm-up digest {:016x} differs from its in-core twin {:016x}",
                ooc.digest, reference.digest
            ));
        }
    } else if !within(ooc.elements, reference.elements, catalog::ELEMENT_TOLERANCE) {
        return Some(format!(
            "out-of-core warm-up produced {} elements, its in-core twin {}",
            ooc.elements, reference.elements
        ));
    }
    None
}

/// Fault-free runs must leave every fault counter at zero; out-of-core
/// workloads must actually have gone out of core, `updr_incore` must not.
fn vacuity_failure(w: WorkloadId, twin: bool, stats: &RunStats) -> Option<String> {
    let t = |f: fn(&mrts::stats::NodeStats) -> usize| stats.total_of(f);
    for (name, v) in [
        ("messages_dropped", t(|n| n.messages_dropped)),
        ("retransmits", t(|n| n.retransmits)),
        ("dup_suppressed", t(|n| n.dup_suppressed)),
        ("io_retries", t(|n| n.io_retries)),
        ("io_gave_up", t(|n| n.io_gave_up)),
        ("replay_divergences", t(|n| n.replay_divergences)),
    ] {
        if v != 0 {
            return Some(format!("fault-free run counted {name} = {v}"));
        }
    }
    let (loads, stores, evictions, prefetches) = (
        t(|n| n.loads),
        t(|n| n.stores),
        t(|n| n.evictions),
        t(|n| n.prefetch_issued),
    );
    if w.out_of_core() && !twin {
        if loads == 0 || stores == 0 || prefetches == 0 {
            return Some(format!(
                "vacuous out-of-core run: loads={loads} stores={stores} prefetch_issued={prefetches}"
            ));
        }
    } else if loads != 0 || stores != 0 || evictions != 0 {
        return Some(format!(
            "unlimited budget but loads={loads} stores={stores} evictions={evictions}"
        ));
    }
    None
}

/// Run one repetition and report it as the JSON object the parent reads.
/// `started` is the instant the child process entered `main`.
pub fn run_rep(opts: &RepOptions, started: Instant) -> Value {
    let w = opts.workload;
    let sink = trace::enabled().then(|| Arc::new(StampingSink::aligned()));
    let mut failure: Option<String> = None;
    let fail = |slot: &mut Option<String>, why: Option<String>| {
        if slot.is_none() {
            *slot = why;
        }
    };
    let warm_dir = opts.spill_dir.join("warm");
    let main_dir = opts.spill_dir.join("main");
    if let Err(e) = std::fs::create_dir_all(&warm_dir).and(std::fs::create_dir_all(&main_dir)) {
        fail(&mut failure, Some(format!("spill directory: {e}")));
    }

    // Set-up: generate, warm up, construct.
    let t = Instant::now();
    let (input, population) = {
        let _s = trace::span("phase.generate");
        let input = inputs::generate(w, opts.seed, opts.divisor);
        let population = match &input {
            Input::Sweep(s) => Some(sweep::build_population(s)),
            _ => None,
        };
        (input, population)
    };
    let generate_s = t.elapsed().as_secs_f64();

    // A twin is run for its digest only: nothing of it is timed, so it
    // needs no warm-up.
    let t = Instant::now();
    if !opts.twin {
        let _s = trace::span("phase.warmup");
        let why = warm_up(opts, &warm_dir);
        fail(&mut failure, why);
    }
    let warmup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pop_bytes = population.as_deref().map_or(0, population_bytes);
    let budget = if opts.twin {
        None
    } else {
        budget_for(w, opts.divisor, pop_bytes)
    };
    let nodes = match w {
        WorkloadId::PcdmDes8 => catalog::PCDM_NODES,
        _ => threaded_nodes(),
    };
    let mut prepared = {
        let _s = trace::span("phase.construct");
        let plan = match (&input, population) {
            (Input::Sweep(s), Some(population)) => Some(SweepPlan {
                input: s,
                population,
                sweeps: s.sweeps,
            }),
            _ => None,
        };
        prepare(&input, plan, budget, &main_dir, sink.as_ref())
    };
    let construct_s = t.elapsed().as_secs_f64();

    // The timed window.
    let setup_s = started.elapsed().as_secs_f64();
    let cpu_before = procfs::cpu_seconds();
    let t = Instant::now();
    let stats = {
        let _s = trace::span("phase.run");
        prepared.run()
    };
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let peak_rss_mb = procfs::peak_rss_mb();

    let t = Instant::now();
    let produced = {
        let _s = trace::span("phase.collect");
        prepared.collect()
    };
    drop(prepared);
    let collect_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    {
        let _s = trace::span("phase.verify");
        if !produced.complete {
            fail(&mut failure, Some("run did not complete all phases".into()));
        }
        let target = inputs::target_elements(&input);
        // `estimate_elements` is good to ~15 %; this catches an empty or
        // runaway mesh, the warm-up twin and the cross-repetition checks
        // catch the rest.
        if !within(produced.elements, target, 0.30) {
            fail(
                &mut failure,
                Some(format!(
                    "{} elements produced for a target of {target}",
                    produced.elements
                )),
            );
        }
        fail(&mut failure, vacuity_failure(w, opts.twin, &stats));
        if let Some(s) = produced.sweep {
            if s.queries != u64::from(catalog::SWEEP_REFINE_EVERY - 1) * s.refines {
                fail(
                    &mut failure,
                    Some(format!(
                        "visit mix {} query : {} refine is not 7 : 1",
                        s.queries, s.refines
                    )),
                );
            }
        }
    }
    let verify_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&opts.spill_dir);

    let mut layers = counters::from_run(&counters::RunFacts {
        stats: &stats,
        virtual_time: w == WorkloadId::PcdmDes8,
        wall_s,
        elements: produced.elements,
        budget,
        nodes,
        peak_rss_mb,
        segment_bytes: MrtsConfig::default().segment_bytes,
    });
    for (name, v) in [
        ("phase.generate_s", generate_s),
        ("phase.warmup_s", warmup_s),
        ("phase.construct_s", construct_s),
        ("phase.run_s", wall_s),
        ("phase.collect_s", collect_s),
        ("phase.verify_s", verify_s),
        (
            "sweep.query_visits",
            produced.sweep.map_or(0.0, |s| s.queries as f64),
        ),
        (
            "sweep.refine_visits",
            produced.sweep.map_or(0.0, |s| s.refines as f64),
        ),
    ] {
        layers.push((name, v));
    }

    let mut end_to_end = Value::obj();
    end_to_end
        .set("wall_s", wall_s)
        .set("setup_s", setup_s)
        .set("cpu_s", cpu_s)
        .set("peak_rss_mb", peak_rss_mb);
    let mut layer_obj = Value::obj();
    for (name, v) in layers {
        layer_obj.set(name, v);
    }
    let mut out = Value::obj();
    out.set("workload", w.name())
        .set("seed", format!("{}", opts.seed))
        .set("rep", u64::from(opts.rep))
        .set("ok", failure.is_none())
        .set("failure", failure.map_or(Value::Null, Value::from))
        .set("end_to_end", end_to_end)
        .set("elements", produced.elements)
        .set("digest", format!("{:016x}", produced.digest))
        .set(
            "input_digest",
            format!("{:016x}", fnv1a(&inputs::fingerprint(&input))),
        )
        .set("nodes", nodes)
        .set("layers", layer_obj);
    if let Some(sink) = sink {
        out.set("trace", trace_section(w, &sink, opts.trace_out.as_deref()));
    }
    out
}

/// Trace-derived metrics; the spans themselves go to `trace_out` as a
/// Chrome-trace document.
fn trace_section(w: WorkloadId, sink: &StampingSink, trace_out: Option<&Path>) -> Value {
    let spans = trace::snapshot();
    let events = sink.digest();
    let mut t = Value::obj();
    if let Some(path) = trace_out {
        let doc = trace::chrome_trace(w.name(), &spans, &events);
        match std::fs::write(path, doc.render()) {
            Ok(()) => t.set("file", path.display().to_string()),
            Err(e) => t.set("file_error", e.to_string()),
        };
    }
    t.set("spans", spans.len() + events.load_spans.len())
        .set("events", events.events)
        .set(
            "msg_wait_us_p50",
            crate::stats::percentile(&events.msg_wait_us, 50.0),
        )
        .set(
            "msg_wait_us_p95",
            crate::stats::percentile(&events.msg_wait_us, 95.0),
        )
        .set(
            "load_latency_us_p50",
            crate::stats::percentile(&events.load_latency_us, 50.0),
        )
        .set(
            "load_latency_us_p95",
            crate::stats::percentile(&events.load_latency_us, 95.0),
        )
        .set("unloads", events.unloads)
        .set("elided_unloads", events.elided_unloads)
        .set("budget_enforcements", events.budget_enforcements);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EXACT_ON_DES;

    fn smoke(workload: WorkloadId, rep: u32, twin: bool) -> Value {
        let spill_dir = std::env::temp_dir().join(format!(
            "perfbench-test-{}-{}-{rep}",
            std::process::id(),
            workload.name()
        ));
        let report = run_rep(
            &RepOptions {
                workload,
                seed: 9,
                rep,
                divisor: catalog::SMOKE_DIVISOR,
                spill_dir: spill_dir.clone(),
                twin,
                trace_out: None,
            },
            Instant::now(),
        );
        assert!(!spill_dir.exists(), "a repetition removes its spill dir");
        assert_eq!(
            report.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            report.render()
        );
        report
    }

    fn layer(report: &Value, name: &str) -> f64 {
        report
            .get("layers")
            .and_then(|l| l.get(name))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn pcdm_des8_smoke_repeats_exactly() {
        let (a, b) = (
            smoke(WorkloadId::PcdmDes8, 0, false),
            smoke(WorkloadId::PcdmDes8, 1, false),
        );
        for name in EXACT_ON_DES {
            assert_eq!(layer(&a, name), layer(&b, name), "{name}");
        }
        assert!(layer(&a, "des.virtual_s") > 0.0);
        assert!(layer(&a, "storage.loads") > 0.0);
        assert_eq!(a.get("elements"), b.get("elements"));
    }

    #[test]
    fn updr_ooc_smoke_produces_the_in_core_mesh_and_incore_does_no_io() {
        let incore = smoke(WorkloadId::UpdrIncore, 0, false);
        let ooc = smoke(WorkloadId::UpdrOoc, 1, false);
        assert_eq!(incore.get("digest"), ooc.get("digest"));
        assert_eq!(incore.get("input_digest"), ooc.get("input_digest"));
        assert_eq!(layer(&incore, "storage.loads"), 0.0);
        assert_eq!(layer(&incore, "storage.stores"), 0.0);
        assert!(layer(&ooc, "storage.loads") > 0.0 && layer(&ooc, "storage.stores") > 0.0);
        // The unlimited-budget twin of an out-of-core workload is the
        // same thing as the in-core workload.
        let twin = smoke(WorkloadId::UpdrOoc, 2, true);
        assert_eq!(twin.get("digest"), incore.get("digest"));
        assert_eq!(layer(&twin, "storage.loads"), 0.0);
    }

    #[test]
    fn vacuity_guards_fire() {
        let mut stats = mrts::stats::empty_stats(2);
        assert!(vacuity_failure(WorkloadId::UpdrIncore, false, &stats).is_none());
        assert!(vacuity_failure(WorkloadId::UpdrOoc, false, &stats)
            .unwrap()
            .contains("vacuous"));
        stats.nodes[0].loads = 3;
        stats.nodes[1].stores = 4;
        stats.nodes[1].prefetch_issued = 1;
        assert!(vacuity_failure(WorkloadId::UpdrOoc, false, &stats).is_none());
        assert!(vacuity_failure(WorkloadId::UpdrIncore, false, &stats).is_some());
        assert!(vacuity_failure(WorkloadId::UpdrOoc, true, &stats).is_some());
        stats.nodes[0].retransmits = 1;
        assert!(vacuity_failure(WorkloadId::UpdrOoc, false, &stats)
            .unwrap()
            .contains("retransmits"));
    }

    #[test]
    fn within_allows_relative_and_small_absolute_drift() {
        assert!(within(1030, 1000, 0.03));
        assert!(within(620, 600, 0.03)); // 18 relative + absolute slack
        assert!(!within(1_100_000, 1_000_000, 0.03));
        assert!(!within(5, 0, 0.03));
    }
}
