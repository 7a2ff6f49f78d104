//! OPCDM as a supervised service job.
//!
//! [`MeshJob`] adapts the out-of-core PCDM port ([`crate::ooc_pcdm`]) to
//! the job service's [`Job`] contract: the mesh is built in *phases*
//! (phase `k` seeds refinement on the subdomain slice `idx % phases ==
//! k`; split messages cascade to neighbors within the phase), and every
//! phase boundary is a quiescent point the service checkpoints through
//! the shared segment store. A retried or recovered attempt rebuilds a
//! fresh virtual-time runtime from the last checkpoint — the runtime's
//! node count is `attempt.domain.len()`, so *which* pool nodes back the
//! fault domain is invisible to the mesh, and recovery onto different
//! survivors reproduces the same bytes.
//!
//! Chaos is injected per job: [`FaultPlan::for_job`] /
//! [`NetFaultPlan::for_job`] derive independent fault streams from one
//! base seed, so one job's storage or network chaos never perturbs
//! another's schedule. The DES engine is deterministic under any such
//! plan, which is what makes the service sweep's byte-identity check
//! (`chaos digest == fault-free digest`) meaningful.

use crate::common::{fold_digests, mesh_digest};
use crate::ooc_pcdm::{create_subdomains, register, subdomain_ptrs, SubObj, H_REFINE};
use crate::pcdm::PcdmParams;
use mrts::audit::{FailMode, InvariantChecker};
use mrts::config::MrtsConfig;
use mrts::des::DesRuntime;
use mrts::fault::{FaultPlan, MrtsError};
use mrts::netfault::NetFaultPlan;
use mrts::runtime::{Engine, Runtime};
use mrts::service::{Job, JobAttempt, JobFailure, JobOutcome, JobProgress};
use std::sync::Arc;

/// Order-independent digest of the final meshes across all subdomains:
/// each subdomain's [`mesh_digest`], folded in index order by
/// [`fold_digests`].
pub fn opcdm_digest<E: Engine>(rt: &Runtime<E>) -> u64 {
    let mut parts: Vec<(u32, u64)> = Vec::new();
    rt.for_each_object(|_, obj| {
        if let Some(so) = obj.as_any().downcast_ref::<SubObj>() {
            parts.push((so.sd.idx as u32, mesh_digest(&so.sd.mesh)));
        }
    });
    fold_digests(&mut parts)
}

/// An OPCDM meshing run packaged as a supervised, checkpointed,
/// retryable service job. See the module docs for the phase protocol.
pub struct MeshJob {
    params: PcdmParams,
    phases: u32,
    fault: Option<FaultPlan>,
    net_fault: Option<NetFaultPlan>,
    fail_runtime_attempts: u32,
    poison_invariant: bool,
}

impl MeshJob {
    /// A fault-free job meshing `params` in `phases` refinement waves
    /// (at least 1).
    pub fn new(params: PcdmParams, phases: u32) -> Self {
        MeshJob {
            params,
            phases: phases.max(1),
            fault: None,
            net_fault: None,
            fail_runtime_attempts: 0,
            poison_invariant: false,
        }
    }

    /// Inject this storage fault plan into every attempt's runtime.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Inject this network fault plan into every attempt's runtime.
    pub fn with_net_fault(mut self, plan: NetFaultPlan) -> Self {
        self.net_fault = Some(plan);
        self
    }

    /// Fail the first `n` attempts with a typed runtime error before any
    /// mesh work (a deterministic stand-in for unrecoverable I/O). With
    /// `n >= max_attempts` the job is a poison job: the service retries
    /// it into quarantine.
    pub fn failing_attempts(mut self, n: u32) -> Self {
        self.fail_runtime_attempts = n;
        self
    }

    /// Trip an invariant on the first phase: the service quarantines the
    /// job immediately (no retry — invariant failures are not transient).
    pub fn poisoned(mut self) -> Self {
        self.poison_invariant = true;
        self
    }
}

impl Job for MeshJob {
    fn run_phase(&mut self, att: JobAttempt) -> Result<JobProgress, JobFailure> {
        if att.attempt <= self.fail_runtime_attempts {
            return Err(JobFailure::Runtime(MrtsError::LoadFailed {
                node: 0,
                oid: mrts::ids::ObjectId::new(0, 0),
                attempts: att.attempt,
                source: std::io::Error::other("injected persistent load failure"),
            }));
        }
        if self.poison_invariant {
            return Err(JobFailure::Invariant(format!(
                "injected poison: job {} phase {} trips an invariant",
                att.job, att.phase
            )));
        }

        let nodes = att.domain.len();
        let mut cfg = MrtsConfig::out_of_core(nodes, (att.mem_budget / nodes).max(1));
        cfg.fault = self.fault;
        cfg.net_fault = self.net_fault;
        // Byte-identity across attempts, fault domains, and chaos plans
        // requires a schedule that is a pure function of the inputs —
        // measured-compute charging (the default) leaks wall-clock jitter
        // into eviction choices and message interleavings.
        cfg.deterministic_compute = true;

        let mut rt = DesRuntime::new(cfg);
        register(&mut rt);
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        // `attach_audit` only exists when the engine carries event
        // instrumentation; release builds without the `audit` feature run
        // the job unchecked (the checker then reports no violations).
        #[cfg(any(feature = "audit", debug_assertions))]
        rt.attach_audit(checker.clone());

        let ptrs = match att.checkpoint.as_ref() {
            None => create_subdomains(&mut rt, &self.params),
            Some(cp) => {
                cp.restore_into(&mut rt);
                // The placement is a pure function of `(idx, nodes)`, which
                // is why restoring onto a different fault domain of the same
                // width is transparent.
                subdomain_ptrs(cp.objects.len(), nodes)
            }
        };
        // Phase k seeds the slice idx % phases == k; splits cascade to
        // neighbors inside the phase run, so after the last phase every
        // subdomain has refined at least once.
        for (i, &p) in ptrs.iter().enumerate() {
            if i as u32 % self.phases == att.phase % self.phases {
                rt.post(p, H_REFINE, Vec::new());
            }
        }

        // A broken invariant is a bug, not bad luck: quarantine, no retry.
        let stats = rt.try_run().map_err(|e| match e {
            MrtsError::Invariant(v) => JobFailure::Invariant(v.to_string()),
            e => JobFailure::Runtime(e),
        })?;
        let violations = checker.violations();
        if !violations.is_empty() {
            let joined: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            return Err(JobFailure::Invariant(joined.join("; ")));
        }

        if att.phase + 1 < self.phases {
            Ok(JobProgress::Checkpointed {
                checkpoint: rt.checkpoint(),
                stats,
            })
        } else {
            let digest = opcdm_digest(&rt);
            let mut elements = 0u64;
            rt.for_each_object(|_, obj| {
                if let Some(so) = obj.as_any().downcast_ref::<SubObj>() {
                    elements += so.sd.mesh.num_tris() as u64;
                }
            });
            Ok(JobProgress::Finished(JobOutcome {
                digest,
                elements,
                stats,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Workload;
    use mrts::service::{JobService, JobSpec, JobState, ServiceConfig};

    fn job(elements: u64, grid: usize, phases: u32) -> MeshJob {
        MeshJob::new(
            PcdmParams::new(Workload::uniform_square(elements), grid),
            phases,
        )
    }

    fn spec(nodes: usize) -> JobSpec {
        JobSpec::new("mesh", nodes, nodes * 600_000)
    }

    fn drain_one(svc: &mut JobService, j: MeshJob, s: JobSpec) -> mrts::service::JobId {
        let id = svc.submit(s, Box::new(j)).expect("admitted");
        svc.drain();
        id
    }

    #[test]
    fn phased_run_is_deterministic_and_complete() {
        let mut svc = JobService::new(ServiceConfig::default());
        let a = drain_one(&mut svc, job(2000, 2, 3), spec(2));
        let b = drain_one(&mut svc, job(2000, 2, 3), spec(2));
        let oa = svc.outcome(a).expect("job a finished");
        let ob = svc.outcome(b).expect("job b finished");
        assert!(oa.elements > 100, "mesh got refined: {}", oa.elements);
        assert_eq!(oa.digest, ob.digest, "same job shape, same bytes");
        assert_eq!(oa.elements, ob.elements);
    }

    #[test]
    fn digest_is_stable_across_fault_domain_widths_only_for_same_width() {
        // The digest is a function of the job shape (params, phases,
        // width) — two different widths are allowed to differ, the same
        // width must not.
        let mut svc = JobService::new(ServiceConfig::default());
        let a = drain_one(&mut svc, job(1500, 2, 2), spec(2));
        let b = drain_one(&mut svc, job(1500, 2, 2), spec(2));
        assert_eq!(
            svc.outcome(a).unwrap().digest,
            svc.outcome(b).unwrap().digest
        );
    }

    #[test]
    fn storage_chaos_reproduces_fault_free_bytes() {
        let mut svc = JobService::new(ServiceConfig::default());
        let clean = drain_one(&mut svc, job(1800, 2, 2), spec(2));
        let chaotic = drain_one(
            &mut svc,
            job(1800, 2, 2).with_fault(
                FaultPlan::for_job(0xC0FFEE, 7)
                    .with_eio(60)
                    .with_torn_writes(40),
            ),
            spec(2),
        );
        let co = svc.outcome(clean).expect("fault-free run finished");
        let xo = svc.outcome(chaotic).expect("chaos run finished");
        assert_eq!(
            co.digest, xo.digest,
            "storage chaos must not change mesh bytes"
        );
    }

    #[test]
    fn poison_mesh_job_is_quarantined() {
        let cfg = ServiceConfig {
            replay_dir: std::env::temp_dir()
                .join(format!("mrts-meshjob-quarantine-{}", std::process::id())),
            ..ServiceConfig::default()
        };
        let replay_dir = cfg.replay_dir.clone();
        let mut svc = JobService::new(cfg);
        let id = drain_one(&mut svc, job(1200, 2, 2).poisoned(), spec(2));
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined));
        let _ = std::fs::remove_dir_all(&replay_dir);
    }

    #[test]
    fn persistent_runtime_failure_retries_into_quarantine() {
        let replay_dir =
            std::env::temp_dir().join(format!("mrts-meshjob-retry-{}", std::process::id()));
        let mut svc = JobService::new(ServiceConfig {
            replay_dir: replay_dir.clone(),
            ..ServiceConfig::default()
        });
        let id = drain_one(&mut svc, job(1200, 2, 2).failing_attempts(99), spec(2));
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined));
        assert_eq!(svc.stats().jobs_quarantined, 1);
        assert!(svc.stats().jobs_retried >= 2, "retried before quarantine");
        let flaky = svc.submit(spec(2), Box::new(job(1200, 2, 2).failing_attempts(1)));
        let flaky = flaky.expect("admitted");
        svc.drain();
        assert_eq!(svc.job_state(flaky), Some(JobState::Completed));
        let _ = std::fs::remove_dir_all(&replay_dir);
    }

    #[test]
    fn recovery_onto_different_survivors_reproduces_bytes() {
        // Reference: undisturbed two-node job.
        let mut svc = JobService::new(ServiceConfig::default());
        let reference = drain_one(&mut svc, job(1600, 2, 3), spec(2));
        let want = svc.outcome(reference).expect("reference finished").digest;

        // Victim: same job homed on nodes {0,1} of a 4-node pool; node 0
        // is killed after phase 0 commits, so the retry regrants onto
        // surviving nodes — a different fault domain of the same width.
        let mut svc2 = JobService::new(ServiceConfig {
            pool_nodes: 4,
            ..ServiceConfig::default()
        });
        let victim = svc2
            .submit(spec(2), Box::new(job(1600, 2, 3)))
            .expect("admitted");
        // One dispatch+commit step: phase 0 runs and checkpoints.
        svc2.step();
        svc2.kill_node(0);
        svc2.drain();
        let got = svc2.outcome(victim).expect("victim finished");
        assert_eq!(got.digest, want, "recovery must reproduce the same mesh");
        assert_eq!(svc2.stats().jobs_recovered, 1);
    }
}
