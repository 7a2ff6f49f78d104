//! The benchmark's catalog: workloads, end-to-end metrics, per-layer
//! metrics, and the constants that size each workload.
//!
//! Everything a later change is accepted or rejected on is named here and
//! mirrored in the root `BENCHMARK.json` (`perfbench selfcheck` and
//! `check.sh` fail when the two disagree). Sizes were calibrated on the
//! 2-core reference box so that every timed window lasts 4 s or more;
//! they are constants and are never scaled at run time (`--smoke` divides
//! element counts by [`SMOKE_DIVISOR`] and is for plumbing checks only).

use crate::json::Value;

// ----- workload sizes ---------------------------------------------------

/// OUPDR: target elements (about 7.7 M produced) and blocks per axis
/// (16² = 256 blocks). Targets between 7.3 M and 8.3 M are avoided: there
/// block after block crosses a vector-capacity doubling and resident
/// memory climbs by 60 %, so a seed's ±0.2 % would show as memory noise.
pub const UPDR_ELEMENTS: u64 = 8_400_000;
pub const UPDR_GRID: usize = 16;
/// `updr_ooc` per-node budget: one eighth of the in-core per-node resident
/// footprint at this size.
pub const UPDR_OOC_BUDGET: usize = 32 << 20;

/// ONUPDR: graded unit square, thousands of leaves of a few hundred bytes.
pub const NUPDR_ELEMENTS: u64 = 160_000;
/// `nupdr_ooc` per-node budget: a floor for what is pinned or locked at
/// any time (the queue object, the leaf ∪ buffer sets of the active
/// tasks) plus a per-element share — about a third of the in-core
/// per-node footprint at full scale. A purely proportional budget starves
/// the locked sets at warm-up and smoke scale and the run stops making
/// progress.
pub const NUPDR_BUDGET_FLOOR: usize = 64 << 10;
pub const NUPDR_BUDGET_PER_ELEMENT: usize = 7;

/// OPCDM on the virtual-time engine: 8 virtual nodes, 16² subdomains.
pub const PCDM_ELEMENTS: u64 = 8_000_000;
pub const PCDM_GRID: usize = 16;
pub const PCDM_NODES: usize = 8;
pub const PCDM_BUDGET: usize = 8 << 20;
/// The paper-era compute-to-I/O ratio (`crates/bench::COMPUTE_SCALE`).
pub const PCDM_COMPUTE_SCALE: f64 = 32.0;

/// Read-mostly sweep: 16² patches of ~16 k elements, cloned from a few
/// base meshes and personalised; the budget holds one eighth of them.
pub const SWEEP_GRID: usize = 16;
pub const SWEEP_PATCH_ELEMENTS: u64 = 17_000;
pub const SWEEP_BASE_MESHES: usize = 4;
pub const SWEEP_BUDGET_SHARE: usize = 8;
/// Row-major passes over the population, and concurrent fronts. A multiple
/// of 8 sweeps gives every patch the same number of `refine` visits.
pub const SWEEP_SWEEPS: u32 = 8;
pub const SWEEP_FRONTS: u32 = 4;
pub const SWEEP_QUERY_POINTS: u32 = 64;
pub const SWEEP_REFINE_POINTS: u32 = 8;
/// Every `SWEEP_REFINE_EVERY`-th visit of a patch mutates it.
pub const SWEEP_REFINE_EVERY: u32 = 8;

/// Threaded workloads run on `min(nproc, THREADED_NODES)` nodes.
pub const THREADED_NODES: usize = 2;
/// Warm-up pass: same method, engine and budget ratio at this fraction.
pub const WARMUP_DIVISOR: u64 = 16;
pub const SMOKE_DIVISOR: u64 = 32;

/// Every full-scale timed window lasts at least this long on the reference
/// box; the driver's mode sizes its repetition count from it.
pub const MIN_WINDOW_S: f64 = 4.0;

/// A child that runs longer than this multiple of its workload's expected
/// wall time is killed and counted as a failed repetition.
pub const TIMEOUT_FACTOR: f64 = 10.0;

/// Produced element counts of OPCDM/ONUPDR drift a few per mille with
/// the schedule; a count further than this from the reference is a
/// failure.
pub const ELEMENT_TOLERANCE: f64 = 0.03;

// ----- workloads --------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    UpdrIncore,
    UpdrOoc,
    NupdrOoc,
    PcdmDes8,
    SweepReadmostly,
}

pub struct WorkloadSpec {
    pub id: WorkloadId,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Whole child process at full scale on the reference box, seconds
    /// (set-up, timed window, collect, verify); sizes the timeout.
    pub expected_child_s: f64,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        id: WorkloadId::UpdrIncore,
        name: "updr_incore",
        why: "OUPDR 7.7M elements, unlimited budget: kernels, compute, control and DAG gates do all the work; storage/ooc must do none (in-core baseline and bypass workload)",
        expected_child_s: 8.0,
    },
    WorkloadSpec {
        id: WorkloadId::UpdrOoc,
        name: "updr_ooc",
        why: "same input at 1/8 of the in-core footprint: ~850 loads and stores of ~0.9 MB blocks, every phase dirties every block; storage, ooc, locality and wire add all of the difference",
        expected_child_s: 10.5,
    },
    WorkloadSpec {
        id: WorkloadId::NupdrOoc,
        name: "nupdr_ooc",
        why: "ONUPDR graded 160k elements, thousands of tiny leaf objects at ~1.2 MB/node: control layer, small-record storage, victim scan over thousands of candidates; the paper's worst-overhead method",
        expected_child_s: 5.5,
    },
    WorkloadSpec {
        id: WorkloadId::PcdmDes8,
        name: "pcdm_des8",
        why: "OPCDM on the virtual-time engine, 8 nodes at 8 MB, deterministic compute: the only run through des.rs and fully asynchronous split messages; wall is simulator speed, counters are exact",
        expected_child_s: 6.0,
    },
    WorkloadSpec {
        id: WorkloadId::SweepReadmostly,
        name: "sweep_readmostly",
        why: "256 mesh patches at 1/8 budget swept in row-major fronts, 7 of 8 visits read-only: loads far exceed useful stores, so a write gain that costs reads (or the reverse) shows",
        expected_child_s: 6.0,
    },
];

impl WorkloadId {
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::UpdrIncore,
        WorkloadId::UpdrOoc,
        WorkloadId::NupdrOoc,
        WorkloadId::PcdmDes8,
        WorkloadId::SweepReadmostly,
    ];

    pub fn spec(self) -> &'static WorkloadSpec {
        WORKLOADS
            .iter()
            .find(|w| w.id == self)
            .expect("every id has a spec")
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WORKLOADS.iter().find(|w| w.name == name).map(|w| w.id)
    }

    /// Does the out-of-core layer have work to do on this workload?
    pub fn out_of_core(self) -> bool {
        self != WorkloadId::UpdrIncore
    }

    /// Is the produced mesh a pure function of the input (digest
    /// comparable across budgets and repetitions)?
    pub fn digest_is_deterministic(self) -> bool {
        matches!(
            self,
            WorkloadId::UpdrIncore | WorkloadId::UpdrOoc | WorkloadId::SweepReadmostly
        )
    }
}

// ----- metrics ----------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported for every workload as the median over its repetitions.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed loop around a layer's public functions (`probes.rs`).
    Probe,
    /// Read from the `RunStats` a workload run returned.
    Counter,
    /// Measured by the harness around its own calls.
    Harness,
    /// Derived from the traced run's stamped events and spans.
    Trace,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub source: Source,
    /// The end-to-end metric this number should move …
    pub moves: &'static str,
    /// … and the workload it should move it on.
    pub on: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: Source,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
        on,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Harness, Probe, Trace};

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 88] = [
    // pumg-geometry
    pl("geometry.orient2d_ns", "ns", Lower, "pumg-geometry", Probe, "cpu_s", "updr_incore"),
    pl("geometry.incircle_ns", "ns", Lower, "pumg-geometry", Probe, "cpu_s", "updr_incore"),
    pl("geometry.incircle_exact_ns", "ns", Lower, "pumg-geometry", Probe, "cpu_s", "updr_incore"),
    // pumg-delaunay
    pl("delaunay.insert_per_s", "1/s", Higher, "pumg-delaunay", Probe, "wall_s", "updr_incore"),
    pl("delaunay.refine_elements_per_s", "1/s", Higher, "pumg-delaunay", Probe, "wall_s", "updr_incore"),
    pl("delaunay.locate_ns", "ns", Lower, "pumg-delaunay", Probe, "wall_s", "sweep_readmostly"),
    pl("wire.pack_mb_s", "MB/s", Higher, "pumg-delaunay", Probe, "wall_s", "updr_ooc"),
    pl("wire.unpack_mb_s", "MB/s", Higher, "pumg-delaunay", Probe, "wall_s", "sweep_readmostly"),
    pl("wire.bytes_per_element", "B", Lower, "pumg-delaunay", Probe, "wall_s", "updr_ooc"),
    // pumg-quadtree, pumg-methods
    pl("quadtree.build_leaves_ms", "ms", Lower, "pumg-quadtree", Probe, "setup_s", "nupdr_ooc"),
    pl("quadtree.query_ns", "ns", Lower, "pumg-quadtree", Probe, "setup_s", "nupdr_ooc"),
    pl("methods.nupdr_leaf_task_ms", "ms", Lower, "pumg-methods", Probe, "wall_s", "nupdr_ooc"),
    pl("methods.pcdm_build_subdomains_ms", "ms", Lower, "pumg-methods", Probe, "setup_s", "pcdm_des8"),
    pl("methods.elements", "count", Higher, "pumg-methods", Counter, "wall_s", "updr_incore"),
    pl("methods.elements_per_s", "1/s", Higher, "pumg-methods", Counter, "wall_s", "updr_incore"),
    // compute
    pl("compute.ws_dispatch_ns_per_task", "ns", Lower, "compute", Probe, "cpu_s", "nupdr_ooc"),
    pl("compute.fifo_dispatch_ns_per_task", "ns", Lower, "compute", Probe, "cpu_s", "nupdr_ooc"),
    // control: msg, codec, directory, relnet, sched, armci-sim
    pl("msg.encode_ns", "ns", Lower, "control", Probe, "cpu_s", "nupdr_ooc"),
    pl("msg.decode_ns", "ns", Lower, "control", Probe, "cpu_s", "nupdr_ooc"),
    pl("directory.lookup_ns", "ns", Lower, "control", Probe, "cpu_s", "nupdr_ooc"),
    pl("directory.update_ns", "ns", Lower, "control", Probe, "cpu_s", "nupdr_ooc"),
    pl("fabric.am_roundtrip_ns", "ns", Lower, "control", Probe, "wall_s", "nupdr_ooc"),
    pl("fabric.am_msgs_per_s", "1/s", Higher, "control", Probe, "wall_s", "nupdr_ooc"),
    pl("relnet.frame_ack_ns", "ns", Lower, "control", Probe, "cpu_s", "nupdr_ooc"),
    pl("sched.dag_commit_ns", "ns", Lower, "control", Probe, "wall_s", "updr_incore"),
    pl("sched.gate_commit_ns", "ns", Lower, "control", Probe, "wall_s", "updr_incore"),
    pl("control.handlers_run", "count", Lower, "control", Counter, "wall_s", "nupdr_ooc"),
    pl("control.msgs_local", "count", Lower, "control", Counter, "wall_s", "nupdr_ooc"),
    pl("control.msgs_remote", "count", Lower, "control", Counter, "wall_s", "pcdm_des8"),
    pl("control.msgs_forwarded", "count", Lower, "control", Counter, "wall_s", "pcdm_des8"),
    pl("control.bytes_sent_mb", "MB", Lower, "control", Counter, "wall_s", "pcdm_des8"),
    // ooc, policy, locality
    pl("ooc.pick_victims_ns_per_candidate_1k", "ns", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("ooc.pick_victims_ns_per_candidate_16k", "ns", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("ooc.admit_ns", "ns", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("policy.score_ns", "ns", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("locality.note_edge_ns", "ns", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("locality.rebuild_us_per_object", "us", Lower, "ooc", Probe, "cpu_s", "nupdr_ooc"),
    pl("ooc.evictions", "count", Lower, "ooc", Counter, "wall_s", "updr_ooc"),
    pl("ooc.evictions_elided", "count", Higher, "ooc", Counter, "wall_s", "sweep_readmostly"),
    pl("ooc.elision_rate", "%", Higher, "ooc", Counter, "wall_s", "sweep_readmostly"),
    pl("ooc.prefetch_issued", "count", Higher, "ooc", Counter, "wall_s", "updr_ooc"),
    pl("ooc.prefetch_hit_rate", "%", Higher, "ooc", Counter, "wall_s", "updr_ooc"),
    pl("ooc.prefetch_cancels", "count", Lower, "ooc", Counter, "wall_s", "updr_ooc"),
    pl("ooc.tracked_peak_mb", "MB", Lower, "ooc", Counter, "peak_rss_mb", "updr_ooc"),
    pl("ooc.peak_over_budget", "ratio", Lower, "ooc", Counter, "peak_rss_mb", "updr_ooc"),
    pl("ooc.rss_over_budget", "ratio", Lower, "ooc", Counter, "peak_rss_mb", "updr_ooc"),
    pl("locality.cluster_prefetches", "count", Higher, "ooc", Counter, "wall_s", "sweep_readmostly"),
    pl("locality.compaction_reorders", "count", Higher, "ooc", Counter, "wall_s", "sweep_readmostly"),
    // storage, checkpoint
    pl("storage.segment_store_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("storage.segment_load_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("storage.segment_small_store_us", "us", Lower, "storage", Probe, "wall_s", "nupdr_ooc"),
    pl("storage.segment_small_load_us", "us", Lower, "storage", Probe, "wall_s", "nupdr_ooc"),
    pl("storage.segment_compact_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("storage.file_store_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("checkpoint.write_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("checkpoint.read_mb_s", "MB/s", Higher, "storage", Probe, "wall_s", "updr_ooc"),
    pl("storage.loads", "count", Lower, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.stores", "count", Lower, "storage", Counter, "wall_s", "updr_ooc"),
    pl("storage.read_mb", "MB", Lower, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.write_mb", "MB", Lower, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.write_avoided_mb", "MB", Higher, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.read_amp", "ratio", Lower, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.loads_per_segment", "ratio", Higher, "storage", Counter, "wall_s", "sweep_readmostly"),
    pl("storage.spill_batches", "count", Higher, "storage", Counter, "wall_s", "nupdr_ooc"),
    pl("storage.buffer_pool_hits", "count", Higher, "storage", Counter, "cpu_s", "updr_ooc"),
    pl("storage.block_ios", "count", Lower, "storage", Counter, "wall_s", "nupdr_ooc"),
    pl("storage.block_ios_pem_bound", "count", Lower, "storage", Counter, "wall_s", "nupdr_ooc"),
    // engines
    pl("engine.comp_share", "%", Higher, "engine", Counter, "wall_s", "updr_incore"),
    pl("engine.comm_share", "%", Lower, "engine", Counter, "wall_s", "pcdm_des8"),
    pl("engine.disk_share", "%", Lower, "engine", Counter, "wall_s", "updr_ooc"),
    pl("engine.idle_share", "%", Lower, "engine", Counter, "wall_s", "nupdr_ooc"),
    pl("engine.overlap_pct", "%", Higher, "engine", Counter, "wall_s", "updr_ooc"),
    pl("des.handlers_per_wall_s", "1/s", Higher, "engine", Counter, "wall_s", "pcdm_des8"),
    pl("des.virtual_s", "s", Lower, "engine", Counter, "wall_s", "pcdm_des8"),
    // harness
    pl("phase.generate_s", "s", Lower, "harness", Harness, "setup_s", "sweep_readmostly"),
    pl("phase.warmup_s", "s", Lower, "harness", Harness, "setup_s", "updr_ooc"),
    pl("phase.construct_s", "s", Lower, "harness", Harness, "setup_s", "nupdr_ooc"),
    pl("phase.run_s", "s", Lower, "harness", Harness, "wall_s", "updr_incore"),
    pl("phase.collect_s", "s", Lower, "harness", Harness, "wall_s", "updr_incore"),
    pl("phase.verify_s", "s", Lower, "harness", Harness, "wall_s", "updr_incore"),
    pl("sweep.query_visits", "count", Higher, "harness", Harness, "wall_s", "sweep_readmostly"),
    pl("sweep.refine_visits", "count", Lower, "harness", Harness, "wall_s", "sweep_readmostly"),
    // traced run
    pl("trace.overhead_pct", "%", Lower, "harness", Trace, "wall_s", "nupdr_ooc"),
    pl("trace.spans", "count", Lower, "harness", Trace, "wall_s", "nupdr_ooc"),
    pl("trace.msg_wait_us_p50", "us", Lower, "control", Trace, "wall_s", "nupdr_ooc"),
    pl("trace.msg_wait_us_p95", "us", Lower, "control", Trace, "wall_s", "nupdr_ooc"),
    pl("trace.load_latency_us_p50", "us", Lower, "storage", Trace, "wall_s", "updr_ooc"),
    pl("trace.load_latency_us_p95", "us", Lower, "storage", Trace, "wall_s", "updr_ooc"),
];

/// How long one driver invocation measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The driver command: builds on first use, then runs one workload.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Render the catalog as the document `BENCHMARK.json` must hold.
pub fn benchmark_json() -> Value {
    let mut doc = Value::obj();
    doc.set(
        "command",
        COMMAND.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
    )
    .set("paths", vec![Value::from("perfbench")])
    .set("run_seconds", RUN_SECONDS)
    .set(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                let mut o = Value::obj();
                o.set("name", w.name).set("why", w.why);
                o
            })
            .collect::<Vec<_>>(),
    )
    .set(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                let mut o = Value::obj();
                o.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str())
                    .set("bound", m.bound);
                o
            })
            .collect::<Vec<_>>(),
    )
    .set(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                let mut o = Value::obj();
                o.set("name", m.name)
                    .set("unit", m.unit)
                    .set("better", m.better.as_str());
                o
            })
            .collect::<Vec<_>>(),
    );
    doc
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the compiled-in catalog against the benchmark contract: name and
/// unit syntax, caps, uniqueness, bounds, and that every per-layer metric
/// points at an existing end-to-end metric and workload.
pub fn check_invariants() -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let mut unique = |n: &'static str| {
        if seen.insert(n) {
            Ok(())
        } else {
            Err(format!("name {n:?} is used twice"))
        }
    };
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err("2 to 8 workloads".into());
    }
    if !(1..=16).contains(&END_TO_END.len()) || !(1..=128).contains(&PER_LAYER.len()) {
        return Err("metric count outside the caps".into());
    }
    for w in &WORKLOADS {
        unique(w.name)?;
        if !valid_name(w.name) || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("workload {:?}: bad name or why", w.name));
        }
        if WorkloadId::from_name(w.name) != Some(w.id) {
            return Err(format!("workload {:?}: id and name disagree", w.name));
        }
    }
    for m in &END_TO_END {
        unique(m.name)?;
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!("metric {:?}: bad name or unit", m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("metric {:?}: bound outside (0, 0.25]", m.name));
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    match setup {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {
            if END_TO_END.iter().any(|o| o.bound > m.bound) {
                return Err("setup_s must carry the largest bound".into());
            }
        }
        _ => return Err("setup_s (s, lower) is required".into()),
    }
    for m in &PER_LAYER {
        unique(m.name)?;
        if !valid_name(m.name) || !valid_unit(m.unit) {
            return Err(format!("metric {:?}: bad name or unit", m.name));
        }
        if !END_TO_END.iter().any(|e| e.name == m.moves) {
            return Err(format!("{}: moves unknown metric {:?}", m.name, m.moves));
        }
        if WorkloadId::from_name(m.on).is_none() {
            return Err(format!("{}: on unknown workload {:?}", m.name, m.on));
        }
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        return Err("run_seconds outside 1..=60".into());
    }
    Ok(())
}

/// Compare a parsed `BENCHMARK.json` with the compiled-in catalog.
pub fn check_against(doc: &Value) -> Result<(), String> {
    let want = benchmark_json();
    for (key, w) in want.fields() {
        match doc.get(key) {
            Some(have) if have == w => {}
            Some(_) => return Err(format!("BENCHMARK.json: {key:?} differs from the catalog")),
            None => return Err(format!("BENCHMARK.json: {key:?} is missing")),
        }
    }
    if doc.fields().len() != want.fields().len() {
        return Err("BENCHMARK.json has keys the catalog does not".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_satisfies_the_contract() {
        check_invariants().unwrap();
    }

    #[test]
    fn catalog_round_trips_through_its_json() {
        let doc = benchmark_json();
        let parsed = crate::json::parse(&doc.pretty()).unwrap();
        check_against(&parsed).unwrap();
        assert!(doc.pretty().len() < 64 * 1024);
    }

    #[test]
    fn a_drifted_document_is_rejected() {
        let mut doc = benchmark_json();
        if let Value::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "run_seconds");
            fields.push(("run_seconds".into(), Value::Num(3.0)));
        }
        assert!(check_against(&doc).is_err());
    }

    #[test]
    fn the_committed_benchmark_json_matches_when_present() {
        // Present in the repository, absent when the crate is vendored
        // alone; the check is the same one `selfcheck` runs.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            check_against(&crate::json::parse(&text).unwrap()).unwrap();
        }
    }

    #[test]
    fn names_and_units_follow_the_syntax() {
        assert!(valid_name("ooc.pick_victims_ns_per_candidate_16k"));
        assert!(!valid_name(".x") && !valid_name("") && !valid_name("a b"));
        assert!(valid_unit("MB/s") && valid_unit("%") && !valid_unit("µs"));
    }
}
