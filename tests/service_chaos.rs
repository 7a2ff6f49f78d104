//! The supervised multi-job service under sustained chaos: a 16-node pool
//! multiplexing 24 concurrent mesh jobs, each a fault domain with an
//! independent storage/network fault stream derived from one base seed.
//! Every chaos job must reproduce its fault-free bytes; poison jobs must
//! quarantine with decodable replay artifacts; a mid-run node kill must
//! recover the jobs homed there; an ENOSPC job must drive the service
//! degraded (shedding load) and fault-free completions must bring it back.
//! A fault-free reference pass doubles as the no-quarantine-on-clean-seed
//! guard.

use pumg::methods::domain::Workload;
use pumg::methods::mesh_job::MeshJob;
use pumg::methods::pcdm::PcdmParams;
use pumg::mrts::audit::{FailMode, InvariantChecker, ServiceEvent, ServiceLog};
use pumg::mrts::fault::FaultPlan;
use pumg::mrts::netfault::NetFaultPlan;
use pumg::mrts::service::{
    AdmissionError, JobService, JobSpec, JobState, QuarantineArtifact, ServiceConfig,
};
use std::sync::Arc;

/// Base seed every per-job fault stream derives from.
const BASE_SEED: u64 = 0x5E21_11CE;
/// Simulated nodes in the service pool.
const POOL: usize = 16;
/// Fault-domain width of every mesh job (16 nodes / 2 = 8 concurrent).
const WIDTH: usize = 2;
/// Per-pool-node memory budget: low enough that every job spills — a
/// storage-chaos run with no storage traffic would be vacuous.
const NODE_BUDGET: usize = 60_000;
/// Chaos jobs in the fleet.
const CHAOS_JOBS: usize = 24;
/// Supervisor step at which pool node 0 is killed.
const KILL_STEP: u64 = 6;
/// Drive-loop backstop against a wedged supervisor.
const MAX_STEPS: u64 = 1_000_000;

/// Job shapes cycled across the fleet: (elements, grid, phases).
const SHAPES: [(u64, usize, u32); 3] = [(1_500, 2, 2), (2_000, 2, 3), (1_200, 3, 2)];

fn shape_job(shape: usize) -> MeshJob {
    let (elements, grid, phases) = SHAPES[shape % SHAPES.len()];
    MeshJob::new(
        PcdmParams::new(Workload::uniform_square(elements), grid),
        phases,
    )
}

/// The ENOSPC job's shape: single-phase, so its degraded-mode entry lands
/// in the outcome stats the service health machine reads, and heavy
/// enough that the store-op counter reaches the ENOSPC window.
fn single_phase_job() -> MeshJob {
    MeshJob::new(PcdmParams::new(Workload::uniform_square(2_500), 2), 1)
}

fn spec(name: impl Into<String>) -> JobSpec {
    JobSpec::new(name, WIDTH, WIDTH * NODE_BUDGET)
}

fn service(replay_dir: Option<std::path::PathBuf>) -> JobService {
    let mut cfg = ServiceConfig {
        pool_nodes: POOL,
        node_budget: NODE_BUDGET,
        ..ServiceConfig::default()
    };
    if let Some(dir) = replay_dir {
        cfg.replay_dir = dir;
    }
    JobService::new(cfg)
}

/// Fault-free `(digest, elements)` per shape, and the single-phase job's
/// element count, from a clean service drained on this thread.
/// Any quarantine, retry or violation here fails the test.
fn fault_free_references() -> (Vec<(u64, u64)>, u64) {
    let mut svc = service(None);
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    svc.attach_service_audit(chk.clone());
    let ids: Vec<u64> = (0..SHAPES.len())
        .map(|s| {
            svc.submit(spec(format!("ref-{s}")), Box::new(shape_job(s)))
                .expect("reference job admitted")
        })
        .collect();
    let one_phase = svc
        .submit(spec("ref-1p"), Box::new(single_phase_job()))
        .expect("reference job admitted");
    svc.drain();
    let st = svc.stats();
    assert_eq!(
        st.jobs_completed,
        SHAPES.len() as u64 + 1,
        "{}",
        st.summary()
    );
    assert_eq!(
        (st.jobs_quarantined, st.jobs_retried),
        (0, 0),
        "quarantine or retry on a fault-free seed: {}",
        st.summary()
    );
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    let outcome = |id| svc.outcome(id).expect("reference outcome");
    let refs = ids
        .iter()
        .map(|&id| (outcome(id).digest, outcome(id).elements))
        .collect();
    (refs, outcome(one_phase).elements)
}

#[test]
fn chaos_fleet_reproduces_fault_free_meshes() {
    let (refs, one_phase_elements) = fault_free_references();

    // Artifacts land in a dedicated directory so the quarantine checks
    // below see only this run's files.
    let replay_dir = std::path::PathBuf::from("target/replay/service");
    let _ = std::fs::remove_dir_all(&replay_dir);
    let chk = Arc::new(InvariantChecker::new(FailMode::Collect));
    let slog = Arc::new(ServiceLog::new());
    let mut svc = service(Some(replay_dir.clone()));
    svc.attach_service_audit(chk.clone());
    svc.attach_service_audit(slog.clone());

    let enospc_plan = FaultPlan::for_job(BASE_SEED, 1).with_enospc_window(1, 10);
    let enospc = svc
        .submit(
            spec("enospc"),
            Box::new(single_phase_job().with_fault(enospc_plan)),
        )
        .expect("enospc job admitted");
    // Fault streams are keyed by the fleet index: distinct per job,
    // reproducible from (BASE_SEED, i) alone. Odd jobs add fabric faults.
    let chaos_jobs: Vec<(u64, usize)> = (0..CHAOS_JOBS)
        .map(|i| {
            let key = 100 + i as u64;
            let storage = FaultPlan::for_job(BASE_SEED, key)
                .with_eio(60)
                .with_torn_writes(40);
            let mut job = shape_job(i).with_fault(storage);
            if i % 2 == 1 {
                let net = NetFaultPlan::for_job(BASE_SEED, key)
                    .with_drops(150)
                    .with_dups(100)
                    .with_reorder(60);
                job = job.with_net_fault(net);
            }
            let id = svc
                .submit(spec(format!("chaos-{i}")), Box::new(job))
                .expect("chaos job admitted");
            (id, i % SHAPES.len())
        })
        .collect();
    let flaky = svc
        .submit(spec("flaky"), Box::new(shape_job(0).failing_attempts(1)))
        .expect("flaky job admitted");
    let poison_inv = svc
        .submit(spec("poison-inv"), Box::new(shape_job(0).poisoned()))
        .expect("poison job admitted");
    let poison_rt = svc
        .submit(
            spec("poison-rt"),
            Box::new(shape_job(0).failing_attempts(99)),
        )
        .expect("poison job admitted");
    // Admission control: a domain wider than the pool can never be granted
    // and must bounce at submission.
    let too_wide = svc.submit(
        JobSpec::new("too-wide", POOL + 1, NODE_BUDGET),
        Box::new(shape_job(0)),
    );
    assert!(
        matches!(too_wide, Err(AdmissionError::Infeasible(_))),
        "a domain wider than the pool was admitted"
    );

    // Stepped drive: a deterministic interleaving of job phases with the
    // chaos script (node kill at a fixed step, shed probe at the first
    // degraded observation).
    let mut steps = 0u64;
    let mut shed = None;
    while svc.step() {
        steps += 1;
        if steps == KILL_STEP {
            svc.kill_node(0);
        }
        if shed.is_none() && svc.is_degraded() {
            shed = Some(svc.submit(spec("shed-probe"), Box::new(shape_job(0))));
        }
        assert!(
            steps <= MAX_STEPS,
            "supervisor not drained after {MAX_STEPS} steps"
        );
    }

    // Byte-identity: every chaos job completed with its shape's fault-free
    // digest, across retries, recoveries and its private fault stream.
    let mut faults = 0usize;
    for &(id, shape) in &chaos_jobs {
        let o = svc.outcome(id).unwrap_or_else(|| {
            panic!(
                "job {id} (shape {shape}) did not complete: {:?}",
                svc.job_state(id)
            )
        });
        assert_eq!(
            (o.digest, o.elements),
            refs[shape],
            "job {id} (shape {shape}) diverged from its fault-free mesh"
        );
        faults += o.stats.total_of(|n| n.faults_injected)
            + o.stats.total_of(|n| n.messages_dropped)
            + o.stats.total_of(|n| n.dup_suppressed);
    }
    assert!(faults > 0, "no fault observed across the fleet — vacuous");

    let flaky_out = svc.outcome(flaky).expect("flaky job retried to completion");
    assert_eq!(
        (flaky_out.digest, flaky_out.elements),
        refs[0],
        "flaky job diverged"
    );

    // The ENOSPC job runs degraded: the mesh survives (a ratio check —
    // degraded eviction legitimately changes the schedule) and its
    // completion drives the service health machine.
    let o = svc.outcome(enospc).expect("enospc job completed");
    assert!(
        o.stats.total_of(|n| n.degraded_entries) > 0,
        "the ENOSPC job never entered degraded mode"
    );
    let ratio = o.elements as f64 / one_phase_elements as f64;
    assert!(
        (0.97..1.03).contains(&ratio),
        "ENOSPC job mesh {} vs fault-free {one_phase_elements}",
        o.elements
    );
    assert!(
        matches!(shed, Some(Err(AdmissionError::Shedding))),
        "degraded window not observed, or the probe was admitted: {shed:?}"
    );

    // Poison jobs: quarantined, never resubmitted, replay artifact
    // persisted and decodable.
    for (id, name, attempts) in [(poison_inv, "poison-inv", 1), (poison_rt, "poison-rt", 3)] {
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined), "{name}");
        let path = replay_dir.join(format!("job-{id:04}-{name}.mjob"));
        let art =
            QuarantineArtifact::load(&path).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        assert_eq!((art.job, art.attempts), (id, attempts), "{name}");
    }

    let st = svc.stats();
    let recovered_events = slog
        .snapshot()
        .iter()
        .filter(|e| matches!(e, ServiceEvent::JobRecovered { .. }))
        .count() as u64;
    assert_eq!(st.jobs_quarantined, 2, "{}", st.summary());
    assert!(st.jobs_recovered >= 1, "{}", st.summary());
    assert_eq!(recovered_events, st.jobs_recovered, "{}", st.summary());
    assert!(st.jobs_retried >= 3, "{}", st.summary());
    assert_eq!(st.shed_events, 1, "{}", st.summary());
    assert_eq!(st.jobs_rejected, 2, "{}", st.summary());
    assert_eq!(st.degraded_mode_transitions, 2, "{}", st.summary());
    assert!(!svc.is_degraded(), "the service must leave degraded mode");
    assert!(chk.violations().is_empty(), "{:?}", chk.violations());
}
