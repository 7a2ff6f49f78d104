//! The supervised multi-job service: many concurrent meshing jobs
//! multiplexed over one shared node pool, **each job a fault domain**.
//!
//! The engines run one workload per runtime; the ROADMAP north-star is a
//! long-running service serving sustained traffic. [`JobService`] is that
//! layer: a supervisor owning a pool of `pool_nodes` simulated nodes
//! (each with `node_budget` bytes of memory), an admission-controlled
//! submission queue, and a per-job lifecycle state machine
//! ([`JobState`], matched without a wildcard by the supervisor).
//!
//! ## Fault domains
//!
//! An admitted job is granted a **disjoint** subset of pool nodes — its
//! fault domain — and a memory budget carved out of those nodes. Jobs
//! never share nodes, so no failure, spill storm, or budget overrun in
//! one job can touch another; the service emits
//! [`ServiceEvent::JobAdmitted`] for every grant and the
//! [`crate::audit::InvariantChecker`] enforces domain disjointness
//! online (invariant 14, [`crate::audit::Invariant::CrossJobInterference`]).
//!
//! ## Admission control
//!
//! A submission is rejected up front when it can never be granted
//! (declared domain wider than the pool, or budget beyond what its
//! domain can hold), when the queue is full, or — **load shedding** —
//! when the service is in degraded mode and configured to shed
//! ([`ServiceConfig::shed_when_degraded`]). The service enters degraded
//! mode when a completed attempt reports engine-level degraded entries
//! (the PR-3 disk-pressure threshold tripped inside a job) and leaves it
//! after [`ServiceConfig::degraded_exit_probes`] consecutive fault-free
//! completions, mirroring the probe-driven per-node recovery.
//!
//! ## Supervision
//!
//! Jobs execute in **phases**: [`Job::run_phase`] runs one phase to
//! quiescence and returns either [`JobProgress::Checkpointed`] (more
//! phases remain; the quiescent state is captured on the PR-3 checkpoint
//! path) or [`JobProgress::Finished`]. Failures are typed:
//!
//! * [`JobFailure::Runtime`] (a [`MrtsError`]) → bounded retry, up to
//!   `max_attempts`: attempt `a` fails into [`JobState::Backoff`] and
//!   waits out `1 + a` supervisor steps before attempt `a + 1` runs;
//! * [`JobFailure::Invariant`] → quarantine at once (no retry — the
//!   run is wrong, not unlucky);
//! * attempts exhausted or deadline exceeded → quarantine.
//!
//! A quarantined job persists a [`QuarantineArtifact`] under
//! `target/replay/`, is **never resubmitted**, and never blocks the
//! queue. A node kill ([`JobService::kill_node`]) comes between steps,
//! when no phase is running, and recovers at once only the jobs whose
//! domain contains that node: their attempt is discarded,
//! [`ServiceEvent::JobRecovered`] fires, and the job waits for a fresh
//! domain on the survivors, restarting from its last checkpoint. Jobs
//! elsewhere in the pool never notice.
//!
//! ## Execution
//!
//! The service is a state machine its caller steps on one thread:
//! [`JobService::step`] runs one supervisor step (at most one phase, jobs
//! served round-robin) and [`JobService::drain`] steps until every job is
//! terminal. Nothing moves between steps, so a run is deterministic by
//! construction (the sustained-chaos sweep relies on this to prove
//! byte-identical meshes), and a harness interleaves chaos (node kills)
//! with job progress at exact points.

use crate::audit::{ServiceEvent, ServiceEventSink};
use crate::checkpoint::Checkpoint;
use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::fault::MrtsError;
use crate::ids::NodeId;
use crate::stats::RunStats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Service-wide job identifier (1-based, in submission order).
pub type JobId = u64;

/// Static configuration of the service: the shared pool and the
/// supervision policy knobs (see README "Job service" for tuning).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Nodes in the shared pool. Fault domains are carved from these.
    pub pool_nodes: usize,
    /// Memory budget of each pool node, in bytes.
    pub node_budget: usize,
    /// Maximum jobs waiting in `Queued` before submissions bounce with
    /// [`AdmissionError::QueueFull`].
    pub max_queue: usize,
    /// Attempt budget for jobs whose [`JobSpec::max_attempts`] is 0.
    pub default_max_attempts: u32,
    /// Shed new submissions while the service is in degraded mode.
    pub shed_when_degraded: bool,
    /// Consecutive fault-free completions required to leave degraded
    /// mode (the service-level analogue of the per-node exit probe).
    pub degraded_exit_probes: u32,
    /// Where quarantine artifacts are persisted.
    pub replay_dir: PathBuf,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool_nodes: 16,
            node_budget: 1 << 20,
            max_queue: 64,
            default_max_attempts: 3,
            shed_when_degraded: true,
            degraded_exit_probes: 2,
            replay_dir: PathBuf::from("target/replay"),
        }
    }
}

/// What a job declares at submission time.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub name: String,
    /// Fault-domain width: how many pool nodes the job needs.
    pub nodes: usize,
    /// Aggregate memory budget over the domain, in bytes.
    pub mem_budget: usize,
    /// Cumulative virtual-time budget across all attempts; exceeding it
    /// at an attempt boundary quarantines the job. Deadlines are checked
    /// **between** phases, never preemptively mid-phase (a phase runs to
    /// quiescence) — a documented, deliberate limitation.
    pub deadline: Option<Duration>,
    /// Attempt budget (first try included); 0 uses the service default.
    pub max_attempts: u32,
}

impl JobSpec {
    pub fn new(name: impl Into<String>, nodes: usize, mem_budget: usize) -> Self {
        JobSpec {
            name: name.into(),
            nodes,
            mem_budget,
            deadline: None,
            max_attempts: 0,
        }
    }
}

/// Everything a job needs to run one phase.
#[derive(Clone, Debug)]
pub struct JobAttempt {
    pub job: JobId,
    /// 1-based attempt number.
    pub attempt: u32,
    /// 0-based phase within this job.
    pub phase: u32,
    /// The granted fault domain (pool node ids). Jobs build their
    /// runtime with `domain.len()` logical nodes; the mapping to pool
    /// ids is a service-level label, which is what makes recovery onto
    /// different survivors transparent to the mesh.
    pub domain: Vec<NodeId>,
    /// The granted aggregate memory budget.
    pub mem_budget: usize,
    /// The previous phase's capture (None on the first phase).
    pub checkpoint: Option<Checkpoint>,
}

/// What one phase produced.
pub enum JobProgress {
    /// More phases remain; the quiescent state was captured.
    Checkpointed {
        checkpoint: Checkpoint,
        stats: RunStats,
    },
    /// The job is done.
    Finished(JobOutcome),
}

/// The result of a completed job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Canonical mesh digest (order-independent), for identity checks
    /// against the job's fault-free run.
    pub digest: u64,
    pub elements: u64,
    /// The final phase's run statistics (per-job scope of the shared
    /// [`RunStats`] counter block).
    pub stats: RunStats,
}

/// Why a phase failed.
#[derive(Debug)]
pub enum JobFailure {
    /// A typed runtime failure — retried after a backoff.
    Runtime(MrtsError),
    /// An audit invariant tripped inside the job — never retried; the
    /// job is quarantined at once.
    Invariant(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Runtime(e) => write!(f, "runtime failure: {e}"),
            JobFailure::Invariant(s) => write!(f, "invariant violated: {s}"),
        }
    }
}

/// A unit of supervised work. Implementations run a full MRTS workload
/// phase per call (see `pumg-methods`' mesh job for the canonical one).
pub trait Job {
    fn run_phase(&mut self, att: JobAttempt) -> Result<JobProgress, JobFailure>;
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The declared domain or budget can never be granted by this pool.
    Infeasible(String),
    /// The queue is at `max_queue`.
    QueueFull,
    /// The service is degraded and shedding load.
    Shedding,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Infeasible(why) => write!(f, "infeasible: {why}"),
            AdmissionError::QueueFull => write!(f, "queue full"),
            AdmissionError::Shedding => write!(f, "degraded — shedding load"),
        }
    }
}

/// The job lifecycle. The supervisor's matches name every variant, so a
/// new state does not build until it is scheduled, and a unit test
/// (`every_job_state_is_reached`) fails until some transition enters it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a domain grant.
    Queued,
    /// Domain granted; phases executing.
    Running { attempt: u32 },
    /// A retryable failure; waiting until supervisor step `until_step`.
    Backoff { attempt: u32, until_step: u64 },
    /// Domain lost to a node kill; waiting for a re-grant on survivors.
    Recovering { attempt: u32 },
    /// Finished; outcome available.
    Completed,
    /// Failed for good; artifact persisted; never resubmitted.
    Quarantined,
    /// Never admitted (see [`AdmissionError`]).
    Rejected,
}

impl JobState {
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Quarantined | JobState::Rejected
        )
    }
}

/// Service-level counters. Like the per-run [`RunStats`], every counter
/// is surfaced by [`ServiceStats::summary`]; a unit test reads the field
/// names from `Debug` and fails on one the summary leaves out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub jobs_admitted: u64,
    pub jobs_rejected: u64,
    pub jobs_retried: u64,
    pub jobs_recovered: u64,
    pub jobs_quarantined: u64,
    pub jobs_completed: u64,
    /// High-water mark of the `Queued` depth.
    pub queue_depth_peak: u64,
    /// Submissions bounced specifically by degraded-mode shedding
    /// (a subset of `jobs_rejected`).
    pub shed_events: u64,
    /// Service-level degraded-mode transitions, both directions.
    pub degraded_mode_transitions: u64,
}

impl ServiceStats {
    /// One line with every counter, the service analogue of
    /// [`RunStats::summary`].
    pub fn summary(&self) -> String {
        format!(
            "jobs: admitted={} rejected={} retried={} recovered={} quarantined={} \
             completed={} | queue_depth_peak={} shed_events={} degraded_mode_transitions={}",
            self.jobs_admitted,
            self.jobs_rejected,
            self.jobs_retried,
            self.jobs_recovered,
            self.jobs_quarantined,
            self.jobs_completed,
            self.queue_depth_peak,
            self.shed_events,
            self.degraded_mode_transitions
        )
    }
}

/// The service-level health state (distinct from a node's degraded mode,
/// [`crate::ooc::OocManager::is_degraded`]: a node recovers by probing
/// its own disk; the service recovers by observing fault-free
/// completions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServiceHealth {
    Normal,
    Degraded { healthy_completions: u32 },
}

/// The magic for quarantine artifacts ("MJB1").
const ARTIFACT_MAGIC: u32 = 0x4d4a_4231;

/// What the service persists when it quarantines a job: enough to
/// resubmit the identical job offline and reproduce the failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineArtifact {
    pub job: JobId,
    pub name: String,
    pub attempts: u32,
    pub phase: u32,
    pub reason: String,
    pub nodes: usize,
    pub mem_budget: usize,
    pub deadline_ns: u64,
}

impl QuarantineArtifact {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u32(ARTIFACT_MAGIC)
            .u64(self.job)
            .bytes(self.name.as_bytes())
            .u32(self.attempts)
            .u32(self.phase)
            .bytes(self.reason.as_bytes())
            .u64(self.nodes as u64)
            .u64(self.mem_budget as u64)
            .u64(self.deadline_ns);
        w.finish()
    }

    pub fn decode(buf: &[u8]) -> Result<Self, Truncated> {
        let mut r = PayloadReader::new(buf);
        if r.u32()? != ARTIFACT_MAGIC {
            return Err(Truncated);
        }
        let job = r.u64()?;
        let name = String::from_utf8_lossy(r.bytes()?).into_owned();
        let attempts = r.u32()?;
        let phase = r.u32()?;
        let reason = String::from_utf8_lossy(r.bytes()?).into_owned();
        let nodes = r.u64()? as usize;
        let mem_budget = r.u64()? as usize;
        let deadline_ns = r.u64()?;
        Ok(QuarantineArtifact {
            job,
            name,
            attempts,
            phase,
            reason,
            nodes,
            mem_budget,
            deadline_ns,
        })
    }

    pub fn load(path: &Path) -> Result<Self, Truncated> {
        let bytes = std::fs::read(path).map_err(|_| Truncated)?;
        Self::decode(&bytes)
    }
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    attempt: u32,
    phase: u32,
    domain: Vec<NodeId>,
    checkpoint: Option<Checkpoint>,
    /// Cumulative virtual time across committed phases (deadline ledger).
    virtual_spent: Duration,
    /// Engine stats of every committed phase, in commit order (failed
    /// attempts carry no stats). Lets callers total counters across a
    /// multi-phase job — a single phase's [`RunStats`] only covers that
    /// phase.
    phase_stats: Vec<RunStats>,
    outcome: Option<JobOutcome>,
    failure: Option<String>,
    /// None after a terminal transition.
    job: Option<Box<dyn Job>>,
}

enum Dispatch {
    /// Run this phase of job `id`, then commit its result.
    Run { id: JobId, att: JobAttempt },
    /// A transition was made inline, or a backoff is being waited out;
    /// step again.
    Acted,
    /// Every job is terminal.
    Drained,
}

/// The supervisor. See the module docs for the lifecycle and for how a
/// caller steps it.
pub struct JobService {
    cfg: ServiceConfig,
    records: BTreeMap<JobId, JobRecord>,
    next_id: JobId,
    free: BTreeSet<NodeId>,
    dead: BTreeSet<NodeId>,
    /// Supervisor step counter: advanced on every dispatch; backoffs
    /// expire against it.
    steps: u64,
    /// Round-robin cursor: the id served last; the next dispatch scan
    /// starts just past it, so one long job cannot starve the others.
    cursor: JobId,
    stats: ServiceStats,
    health: ServiceHealth,
    sinks: Vec<Arc<dyn ServiceEventSink>>,
}

impl JobService {
    pub fn new(cfg: ServiceConfig) -> Self {
        let free: BTreeSet<NodeId> = (0..cfg.pool_nodes as NodeId).collect();
        JobService {
            cfg,
            records: BTreeMap::new(),
            next_id: 1,
            free,
            dead: BTreeSet::new(),
            steps: 0,
            cursor: 0,
            stats: ServiceStats::default(),
            health: ServiceHealth::Normal,
            sinks: Vec::new(),
        }
    }

    /// Attach a service-event sink (e.g. the
    /// [`crate::audit::InvariantChecker`], which enforces fault-domain
    /// disjointness online). Attach before submitting.
    pub fn attach_service_audit(&mut self, sink: Arc<dyn ServiceEventSink>) {
        self.sinks.push(sink);
    }

    /// Submit a job. Admission control applies immediately: the result
    /// says whether the job entered the queue. Rejected submissions
    /// still get a (terminal) record, so `job_state` explains them.
    pub fn submit(&mut self, spec: JobSpec, job: Box<dyn Job>) -> Result<JobId, AdmissionError> {
        let id = self.next_id;
        self.next_id += 1;

        let verdict = self.admission_verdict(&spec);
        let state = match &verdict {
            Ok(()) => JobState::Queued,
            Err(_) => JobState::Rejected,
        };
        match &verdict {
            Ok(()) => self.stats.jobs_admitted += 1,
            Err(e) => {
                self.stats.jobs_rejected += 1;
                if *e == AdmissionError::Shedding {
                    self.stats.shed_events += 1;
                }
            }
        }
        self.records.insert(
            id,
            JobRecord {
                spec,
                state,
                attempt: 0,
                phase: 0,
                domain: Vec::new(),
                checkpoint: None,
                virtual_spent: Duration::ZERO,
                phase_stats: Vec::new(),
                outcome: None,
                failure: verdict.as_ref().err().map(|e| e.to_string()),
                job: Some(job),
            },
        );
        let depth = self.queued_depth() as u64;
        self.stats.queue_depth_peak = self.stats.queue_depth_peak.max(depth);
        verdict.map(|()| id)
    }

    /// Kill a pool node. Queued jobs are untouched; every job whose
    /// domain contains the node loses that domain now (no phase runs
    /// between steps): its attempt is discarded and it recovers from its
    /// last checkpoint onto surviving nodes. Jobs whose domain avoids the
    /// node never notice (the fault-domain guarantee).
    pub fn kill_node(&mut self, node: NodeId) {
        self.dead.insert(node);
        self.free.remove(&node);
        let homed: Vec<(JobId, u32)> = (self.records.iter())
            .filter(|(_, rec)| rec.domain.contains(&node))
            .filter_map(|(&id, rec)| match rec.state {
                JobState::Running { attempt } | JobState::Backoff { attempt, .. } => {
                    Some((id, attempt))
                }
                // No domain held in the remaining states.
                JobState::Queued
                | JobState::Recovering { .. }
                | JobState::Completed
                | JobState::Quarantined
                | JobState::Rejected => None,
            })
            .collect();
        for (id, attempt) in homed {
            self.recover(id, attempt, node);
        }
    }

    /// Run one supervisor step: dispatch once, and if that picked a
    /// phase, run and commit it. Returns `false` once the service is
    /// drained.
    pub fn step(&mut self) -> bool {
        match self.dispatch() {
            Dispatch::Run { id, att } => {
                let rec = self.records.get_mut(&id).expect("dispatched job exists");
                let job = rec.job.as_mut().expect("an active job holds its Job");
                let result = job.run_phase(att);
                self.commit(id, result);
                true
            }
            Dispatch::Acted => true,
            Dispatch::Drained => false,
        }
    }

    /// Step until every job is terminal. One phase at a time, jobs
    /// round-robin — deterministic.
    pub fn drain(&mut self) {
        while self.step() {}
    }

    pub fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }

    pub fn is_degraded(&self) -> bool {
        self.health != ServiceHealth::Normal
    }

    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        self.records.get(&id).map(|r| r.state.clone())
    }

    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        self.records.get(&id).and_then(|r| r.outcome.clone())
    }

    /// The recorded failure string of a rejected/quarantined/retried job.
    pub fn failure(&self, id: JobId) -> Option<String> {
        self.records.get(&id).and_then(|r| r.failure.clone())
    }

    /// Engine stats of every phase the job committed, in commit order.
    /// A phase's [`RunStats`] covers only that phase; total a counter
    /// across the whole job by summing over this history. Failed
    /// attempts commit nothing, and a recovered job re-runs from its
    /// last committed phase.
    pub fn job_phase_stats(&self, id: JobId) -> Vec<RunStats> {
        self.records
            .get(&id)
            .map(|r| r.phase_stats.clone())
            .unwrap_or_default()
    }

    /// Snapshot `(id, name, state, attempts, phases_committed)` rows.
    pub fn jobs(&self) -> Vec<(JobId, String, JobState, u32, u32)> {
        self.records
            .iter()
            .map(|(&id, r)| (id, r.spec.name.clone(), r.state.clone(), r.attempt, r.phase))
            .collect()
    }

    fn admission_verdict(&self, spec: &JobSpec) -> Result<(), AdmissionError> {
        if spec.nodes == 0 || spec.mem_budget == 0 {
            return Err(AdmissionError::Infeasible(
                "a job needs at least one node and a non-zero budget".into(),
            ));
        }
        if spec.nodes > self.cfg.pool_nodes {
            return Err(AdmissionError::Infeasible(format!(
                "domain of {} nodes exceeds the {}-node pool",
                spec.nodes, self.cfg.pool_nodes
            )));
        }
        if spec.mem_budget > spec.nodes * self.cfg.node_budget {
            return Err(AdmissionError::Infeasible(format!(
                "budget {} B exceeds {} B grantable on {} nodes",
                spec.mem_budget,
                spec.nodes * self.cfg.node_budget,
                spec.nodes
            )));
        }
        // Shed only while an admitted job is still active: only a
        // completion leaves degraded mode, so shedding with nothing in
        // flight would shed forever.
        let active = self.records.values().any(|r| !r.state.is_terminal());
        if self.cfg.shed_when_degraded && self.health != ServiceHealth::Normal && active {
            return Err(AdmissionError::Shedding);
        }
        if self.queued_depth() >= self.cfg.max_queue {
            return Err(AdmissionError::QueueFull);
        }
        Ok(())
    }

    fn queued_depth(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.state == JobState::Queued)
            .count()
    }

    fn emit(&self, ev: ServiceEvent) {
        for s in &self.sinks {
            s.record_service(&ev);
        }
    }

    /// Release a domain back to the pool (dead nodes stay out).
    fn release_domain(&mut self, id: JobId) {
        let rec = self.records.get_mut(&id).expect("record exists");
        for n in std::mem::take(&mut rec.domain) {
            if !self.dead.contains(&n) {
                self.free.insert(n);
            }
        }
    }

    /// The lost-domain transition: discard the attempt, free survivors,
    /// emit `JobRecovered`, park the job for a re-grant.
    fn recover(&mut self, id: JobId, attempt: u32, from: NodeId) {
        self.release_domain(id);
        let rec = self.records.get_mut(&id).expect("record exists");
        rec.state = JobState::Recovering { attempt };
        self.stats.jobs_recovered += 1;
        self.emit(ServiceEvent::JobRecovered { job: id, from });
    }

    fn quarantine(&mut self, id: JobId, reason: String) {
        self.release_domain(id);
        let rec = self.records.get_mut(&id).expect("record exists");
        rec.state = JobState::Quarantined;
        rec.failure = Some(reason.clone());
        rec.job = None;
        let artifact = QuarantineArtifact {
            job: id,
            name: rec.spec.name.clone(),
            attempts: rec.attempt,
            phase: rec.phase,
            reason,
            nodes: rec.spec.nodes,
            mem_budget: rec.spec.mem_budget,
            deadline_ns: rec.spec.deadline.map_or(0, |d| d.as_nanos() as u64),
        };
        let attempts = rec.attempt;
        let name = sanitize(&rec.spec.name);
        let dir = &self.cfg.replay_dir;
        // Artifact persistence is best-effort: a full disk must not take the
        // supervisor down with the job.
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(
                dir.join(format!("job-{id:04}-{name}.mjob")),
                artifact.encode(),
            );
        }
        self.stats.jobs_quarantined += 1;
        self.emit(ServiceEvent::JobQuarantined { job: id, attempts });
    }

    /// Grant the lowest free nodes to `id` if its width fits; emits
    /// `JobAdmitted`. Returns false when not enough nodes are free now.
    fn try_grant(&mut self, id: JobId) -> bool {
        let rec = self.records.get_mut(&id).expect("record exists");
        let (width, budget) = (rec.spec.nodes, rec.spec.mem_budget);
        if self.free.len() < width {
            return false;
        }
        let domain: Vec<NodeId> = self.free.iter().take(width).copied().collect();
        for n in &domain {
            self.free.remove(n);
        }
        rec.domain = domain.clone();
        rec.attempt += 1;
        rec.state = JobState::Running {
            attempt: rec.attempt,
        };
        self.emit(ServiceEvent::JobAdmitted {
            job: id,
            nodes: domain,
            budget,
        });
        true
    }

    /// Serve job `id` next: the attempt that runs its current phase.
    fn serve(&mut self, id: JobId) -> Dispatch {
        self.cursor = id;
        let rec = &self.records[&id];
        let att = JobAttempt {
            job: id,
            attempt: rec.attempt,
            phase: rec.phase,
            domain: rec.domain.clone(),
            mem_budget: rec.spec.mem_budget,
            checkpoint: rec.checkpoint.clone(),
        };
        Dispatch::Run { id, att }
    }

    /// One supervisor step: scan jobs round-robin, perform the first
    /// available transition.
    fn dispatch(&mut self) -> Dispatch {
        self.steps += 1;
        // Round-robin: start just past the last-served id, wrapping.
        let mut ids: Vec<JobId> = self.records.keys().copied().collect();
        let split = ids.partition_point(|&id| id <= self.cursor);
        ids.rotate_left(split);
        let alive = self.cfg.pool_nodes - self.dead.len();
        let mut pending = false;
        for id in ids {
            let rec = &self.records[&id];
            let width = rec.spec.nodes;
            match rec.state {
                JobState::Queued | JobState::Recovering { .. } => {
                    if width > alive {
                        // The pool shrank below this job's declared width: it
                        // can never be granted again. Quarantining keeps it
                        // from blocking the queue forever.
                        self.cursor = id;
                        self.quarantine(
                            id,
                            format!(
                                "domain of {width} nodes no longer satisfiable ({alive} alive)"
                            ),
                        );
                        return Dispatch::Acted;
                    }
                    if self.try_grant(id) {
                        return self.serve(id);
                    }
                    pending = true; // waiting on running jobs to free nodes
                }
                // The next phase of a running job.
                JobState::Running { .. } => return self.serve(id),
                JobState::Backoff {
                    attempt,
                    until_step,
                } => {
                    if self.steps < until_step {
                        pending = true;
                        continue;
                    }
                    let next = attempt + 1;
                    let rec = self.records.get_mut(&id).expect("record exists");
                    rec.attempt = next;
                    rec.state = JobState::Running { attempt: next };
                    self.emit(ServiceEvent::JobRetry {
                        job: id,
                        attempt: next,
                    });
                    return self.serve(id);
                }
                JobState::Completed | JobState::Quarantined | JobState::Rejected => {}
            }
        }
        if pending {
            Dispatch::Acted
        } else {
            Dispatch::Drained
        }
    }

    /// Fold one completed attempt's engine stats into the service health
    /// state machine (degraded entry on engine disk pressure, probe-driven
    /// exit on consecutive fault-free completions).
    fn update_health(&mut self, stats: &RunStats) {
        let ran_degraded = stats.total_of(|n| n.degraded_entries) > 0;
        match self.health {
            ServiceHealth::Normal if ran_degraded => {
                self.health = ServiceHealth::Degraded {
                    healthy_completions: 0,
                };
                self.stats.degraded_mode_transitions += 1;
            }
            ServiceHealth::Normal => {}
            ServiceHealth::Degraded { .. } if ran_degraded => {
                self.health = ServiceHealth::Degraded {
                    healthy_completions: 0,
                };
            }
            ServiceHealth::Degraded {
                healthy_completions,
            } => {
                let done = healthy_completions + 1;
                if done >= self.cfg.degraded_exit_probes {
                    self.health = ServiceHealth::Normal;
                    self.stats.degraded_mode_transitions += 1;
                } else {
                    self.health = ServiceHealth::Degraded {
                        healthy_completions: done,
                    };
                }
            }
        }
    }

    /// Commit the result of the phase that job `id` just ran.
    fn commit(&mut self, id: JobId, result: Result<JobProgress, JobFailure>) {
        let rec = self.records.get_mut(&id).expect("committing a served job");
        let attempt = rec.attempt;
        match result {
            Ok(JobProgress::Checkpointed { checkpoint, stats }) => {
                rec.checkpoint = Some(checkpoint);
                rec.phase += 1;
                rec.virtual_spent += stats.total;
                rec.phase_stats.push(stats);
                let spent = rec.virtual_spent;
                if let Some(deadline) = rec.spec.deadline {
                    if spent > deadline {
                        self.quarantine(id, format!("deadline exceeded: {spent:?} > {deadline:?}"));
                    }
                }
                // else: stays Running; a later dispatch runs the next phase.
            }
            Ok(JobProgress::Finished(out)) => {
                rec.virtual_spent += out.stats.total;
                rec.phase_stats.push(out.stats.clone());
                let spent = rec.virtual_spent;
                if let Some(deadline) = rec.spec.deadline.filter(|&d| spent > d) {
                    self.quarantine(id, format!("deadline exceeded: {spent:?} > {deadline:?}"));
                    return;
                }
                rec.state = JobState::Completed;
                rec.outcome = Some(out.clone());
                rec.job = None;
                self.release_domain(id);
                self.stats.jobs_completed += 1;
                self.emit(ServiceEvent::JobCompleted { job: id });
                self.update_health(&out.stats);
            }
            Err(JobFailure::Invariant(why)) => {
                self.quarantine(id, format!("invariant violated: {why}"));
            }
            Err(JobFailure::Runtime(e)) => {
                rec.failure = Some(e.to_string());
                let maxa = if rec.spec.max_attempts == 0 {
                    self.cfg.default_max_attempts
                } else {
                    rec.spec.max_attempts
                };
                if attempt >= maxa {
                    self.quarantine(id, format!("failed {attempt} attempts, last: {e}"));
                    return;
                }
                // Wait out `1 + attempt` supervisor steps.
                rec.state = JobState::Backoff {
                    attempt,
                    until_step: self.steps + 1 + attempt as u64,
                };
                self.stats.jobs_retried += 1;
            }
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{FailMode, InvariantChecker, ServiceLog};

    struct StubJob {
        /// Phases remaining before `Finished`.
        phases: u32,
        /// Fail this many phase calls (with a retryable error) first.
        failures: u32,
        digest: u64,
    }

    impl StubJob {
        fn ok(phases: u32, digest: u64) -> Box<dyn Job> {
            Box::new(StubJob {
                phases,
                failures: 0,
                digest,
            })
        }

        fn flaky(phases: u32, failures: u32) -> Box<dyn Job> {
            Box::new(StubJob {
                phases,
                failures,
                digest: 7,
            })
        }
    }

    fn eio() -> MrtsError {
        MrtsError::LoadFailed {
            node: 0,
            oid: crate::ids::ObjectId::new(0, 0),
            attempts: 3,
            source: std::io::Error::other("stub EIO"),
        }
    }

    impl Job for StubJob {
        fn run_phase(&mut self, att: JobAttempt) -> Result<JobProgress, JobFailure> {
            if self.failures > 0 {
                self.failures -= 1;
                return Err(JobFailure::Runtime(eio()));
            }
            let mut stats = crate::stats::empty_stats(att.domain.len());
            stats.total = Duration::from_millis(10);
            if att.phase + 1 >= self.phases {
                Ok(JobProgress::Finished(JobOutcome {
                    digest: self.digest,
                    elements: 100,
                    stats,
                }))
            } else {
                Ok(JobProgress::Checkpointed {
                    checkpoint: Checkpoint {
                        objects: vec![],
                        next_seq: vec![0; att.domain.len()],
                    },
                    stats,
                })
            }
        }
    }

    fn cfg(pool: usize) -> ServiceConfig {
        ServiceConfig {
            pool_nodes: pool,
            node_budget: 1 << 20,
            replay_dir: std::env::temp_dir()
                .join(format!("mrts-service-test-{}-{pool}", std::process::id())),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn jobs_complete_and_stats_add_up() {
        let mut svc = JobService::new(cfg(4));
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        svc.attach_service_audit(checker.clone());
        let a = svc
            .submit(JobSpec::new("a", 2, 1 << 20), StubJob::ok(3, 11))
            .expect("admitted");
        let b = svc
            .submit(JobSpec::new("b", 2, 1 << 20), StubJob::ok(1, 22))
            .expect("admitted");
        svc.drain();
        assert_eq!(svc.job_state(a), Some(JobState::Completed));
        assert_eq!(svc.job_state(b), Some(JobState::Completed));
        assert_eq!(svc.outcome(a).expect("outcome").digest, 11);
        assert_eq!(svc.outcome(b).expect("outcome").digest, 22);
        let s = svc.stats();
        assert_eq!(s.jobs_admitted, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_quarantined, 0);
        checker.assert_clean();
    }

    #[test]
    fn admission_rejects_infeasible_and_full_queue() {
        let mut c = cfg(4);
        c.max_queue = 1;
        let mut svc = JobService::new(c);
        // Wider than the pool: never grantable.
        let err = svc
            .submit(JobSpec::new("wide", 8, 1), StubJob::ok(1, 0))
            .expect_err("infeasible");
        assert!(matches!(err, AdmissionError::Infeasible(_)));
        // Budget beyond the domain's capacity.
        let err = svc
            .submit(JobSpec::new("fat", 2, 3 << 20), StubJob::ok(1, 0))
            .expect_err("infeasible");
        assert!(matches!(err, AdmissionError::Infeasible(_)));
        svc.submit(JobSpec::new("ok", 2, 1 << 20), StubJob::ok(1, 0))
            .expect("admitted");
        let err = svc
            .submit(JobSpec::new("overflow", 2, 1 << 20), StubJob::ok(1, 0))
            .expect_err("queue full");
        assert_eq!(err, AdmissionError::QueueFull);
        let s = svc.stats();
        assert_eq!(s.jobs_rejected, 3);
        assert_eq!(s.queue_depth_peak, 1);
    }

    #[test]
    fn flaky_job_retries_then_completes() {
        let mut svc = JobService::new(cfg(2));
        let log = Arc::new(ServiceLog::new());
        svc.attach_service_audit(log.clone());
        let id = svc
            .submit(JobSpec::new("flaky", 1, 1 << 20), StubJob::flaky(2, 2))
            .expect("admitted");
        // Attempt `a` fails in some step; `JobRetry` for attempt `a + 1`
        // comes exactly `1 + a` steps later, the steps between spent in
        // `Backoff`.
        let retries = |log: &ServiceLog| {
            (log.snapshot().iter())
                .filter(|e| matches!(e, ServiceEvent::JobRetry { .. }))
                .count()
        };
        let (mut step, mut failed, mut retried) = (0u64, Vec::new(), Vec::new());
        while svc.step() {
            step += 1;
            if let Some(JobState::Backoff { attempt, .. }) = svc.job_state(id) {
                if failed.last().map(|&(a, _)| a) != Some(attempt) {
                    failed.push((attempt, step));
                }
            }
            if retries(&log) > retried.len() {
                retried.push(step);
            }
        }
        let waits: Vec<(u32, u64)> = (failed.iter().zip(&retried))
            .map(|(&(attempt, at), &retry)| (attempt, retry - at))
            .collect();
        assert_eq!(
            waits,
            [(1, 2), (2, 3)],
            "(attempt, steps from failure to retry)"
        );
        assert_eq!(svc.job_state(id), Some(JobState::Completed));
        let s = svc.stats();
        assert_eq!(s.jobs_retried, 2);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(retries(&log), 2);
    }

    #[test]
    fn poison_job_is_quarantined_with_artifact() {
        let c = cfg(2);
        let dir = c.replay_dir.clone();
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = JobService::new(c);
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        svc.attach_service_audit(checker.clone());
        let id = svc
            .submit(JobSpec::new("poison", 1, 1 << 20), StubJob::flaky(1, 99))
            .expect("admitted");
        let ok = svc
            .submit(JobSpec::new("innocent", 1, 1 << 20), StubJob::ok(1, 5))
            .expect("admitted");
        svc.drain();
        // The poison job was quarantined and never blocked its neighbor.
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined));
        assert_eq!(svc.job_state(ok), Some(JobState::Completed));
        assert_eq!(svc.stats().jobs_quarantined, 1);
        let artifact = QuarantineArtifact::load(&dir.join(format!("job-{id:04}-poison.mjob")))
            .expect("artifact persisted and decodes");
        assert_eq!(artifact.job, id);
        assert_eq!(artifact.attempts, 3); // default_max_attempts
        assert!(artifact.reason.contains("failed 3 attempts"));
        checker.assert_clean();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_exceeded_quarantines() {
        let mut svc = JobService::new(cfg(2));
        let mut spec = JobSpec::new("slow", 1, 1 << 20);
        spec.deadline = Some(Duration::from_millis(15)); // 2 phases × 10ms > 15ms
        let id = svc.submit(spec, StubJob::ok(3, 0)).expect("admitted");
        svc.drain();
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined));
        assert!(svc.failure(id).expect("failure").contains("deadline"));
    }

    #[test]
    fn node_kill_recovers_only_jobs_homed_there() {
        let mut svc = JobService::new(cfg(4));
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        let log = Arc::new(ServiceLog::new());
        svc.attach_service_audit(checker.clone());
        svc.attach_service_audit(log.clone());
        // Two 2-node jobs fill the 4-node pool; domains are disjoint.
        let a = svc
            .submit(JobSpec::new("a", 2, 1 << 20), StubJob::ok(3, 1))
            .expect("admitted");
        let b = svc
            .submit(JobSpec::new("b", 2, 1 << 20), StubJob::ok(3, 2))
            .expect("admitted");
        // Run a few steps so both jobs hold domains and checkpoints,
        // then kill node 0 (job a's domain: nodes {0,1}).
        for _ in 0..4 {
            svc.step();
        }
        svc.kill_node(0);
        svc.drain();
        // Both jobs still complete: a recovered onto survivors, b never
        // noticed (fault-domain isolation).
        assert_eq!(svc.job_state(a), Some(JobState::Completed));
        assert_eq!(svc.job_state(b), Some(JobState::Completed));
        let s = svc.stats();
        assert_eq!(s.jobs_recovered, 1);
        assert_eq!(s.jobs_completed, 2);
        let recovered: Vec<JobId> = log
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                ServiceEvent::JobRecovered { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert_eq!(recovered, vec![a], "only the job homed on node 0 recovers");
        checker.assert_clean();
    }

    /// A finished phase that entered engine degraded mode.
    struct DegradedJob;

    impl Job for DegradedJob {
        fn run_phase(&mut self, att: JobAttempt) -> Result<JobProgress, JobFailure> {
            let mut stats = crate::stats::empty_stats(att.domain.len());
            stats.nodes[0].degraded_entries = 1;
            Ok(JobProgress::Finished(JobOutcome {
                digest: 0,
                elements: 0,
                stats,
            }))
        }
    }

    #[test]
    fn degraded_completions_shed_load_then_recover() {
        let mut c = cfg(2);
        c.degraded_exit_probes = 2;
        let mut svc = JobService::new(c);

        svc.submit(JobSpec::new("pressure", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.submit(JobSpec::new("busy", 1, 1 << 20), StubJob::ok(3, 0))
            .expect("admitted");
        while !svc.is_degraded() {
            assert!(svc.step(), "drained before the degraded completion");
        }
        // "busy" is still active: the degraded service sheds.
        let err = svc
            .submit(JobSpec::new("shed-me", 1, 1 << 20), StubJob::ok(1, 0))
            .expect_err("degraded service sheds");
        assert_eq!(err, AdmissionError::Shedding);
        assert_eq!(svc.stats().shed_events, 1);

        // Two fault-free completions ("busy", then a probe admitted once
        // nothing is active) probe the service back to normal.
        svc.drain();
        assert!(svc.is_degraded(), "one healthy completion of two");
        svc.submit(JobSpec::new("probe", 1, 1 << 20), StubJob::ok(1, 0))
            .expect("admitted with nothing active");
        svc.drain();
        assert!(!svc.is_degraded(), "exit probes completed");
        assert_eq!(svc.stats().degraded_mode_transitions, 2);
        assert_eq!(svc.stats().shed_events, 1);
    }

    /// Only a completion leaves degraded mode, so a degraded service with
    /// no active job admits the next submission instead of shedding it
    /// forever.
    #[test]
    fn degraded_service_with_nothing_active_admits_probes() {
        let mut c = cfg(2);
        c.degraded_exit_probes = 3;
        let mut svc = JobService::new(c);
        svc.submit(JobSpec::new("pressure", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain();
        assert!(svc.is_degraded());
        for i in 0..3 {
            assert!(svc.is_degraded(), "left degraded mode after {i} probes");
            svc.submit(
                JobSpec::new(format!("probe-{i}"), 1, 1 << 20),
                StubJob::ok(1, 0),
            )
            .expect("a degraded service with nothing active admits");
            svc.drain();
        }
        assert!(!svc.is_degraded(), "exit probes completed");
        let s = svc.stats();
        assert_eq!((s.shed_events, s.degraded_mode_transitions), (0, 2));
    }

    #[test]
    fn exit_probe_streak_is_exact_and_resets_on_relapse() {
        let mut c = cfg(2);
        c.degraded_exit_probes = 3;
        c.shed_when_degraded = false;
        let mut svc = JobService::new(c);

        let mut probes = 0;
        let mut probe = |svc: &mut JobService, n: usize| {
            for _ in 0..n {
                probes += 1;
                svc.submit(
                    JobSpec::new(format!("probe-{probes}"), 1, 1 << 20),
                    StubJob::ok(1, 0),
                )
                .expect("admitted");
            }
            svc.drain();
        };

        svc.submit(JobSpec::new("pressure", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain();
        assert!(svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // One short of the exit threshold must not exit (off-by-one guard).
        probe(&mut svc, 2);
        assert!(svc.is_degraded(), "exited one probe early");
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // A relapse mid-streak resets the healthy-completion count without
        // counting as a fresh entry transition...
        svc.submit(JobSpec::new("relapse", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain();
        assert!(svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // ...so two more healthy completions still don't exit...
        probe(&mut svc, 2);
        assert!(
            svc.is_degraded(),
            "relapse failed to reset the probe streak"
        );

        // ...and the third does. Exactly one entry + one exit end-to-end.
        probe(&mut svc, 1);
        assert!(!svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 2);
    }

    #[test]
    fn summary_mentions_every_counter() {
        let s = ServiceStats {
            jobs_admitted: 1,
            jobs_rejected: 2,
            jobs_retried: 3,
            jobs_recovered: 4,
            jobs_quarantined: 5,
            jobs_completed: 6,
            queue_depth_peak: 7,
            shed_events: 8,
            degraded_mode_transitions: 9,
        };
        let line = s.summary();
        let debug = format!("{s:?}");
        let fields = crate::stats::integer_fields(&debug);
        assert_eq!(fields.len(), debug.matches(':').count(), "{debug}");
        for (name, value) in fields {
            let label = name.strip_prefix("jobs_").unwrap_or(name);
            assert!(
                line.contains(&format!("{label}={value}")),
                "summary misses {name}: {line}"
            );
        }
    }

    /// Every lifecycle state is entered: a poison job (backoff, then
    /// quarantine), a job whose node is killed between phases (recovery,
    /// then completion) and an infeasible submission, each state counted
    /// through a `match` with no wildcard.
    #[test]
    fn every_job_state_is_reached() {
        let c = cfg(4);
        let dir = c.replay_dir.clone();
        let mut svc = JobService::new(c);
        let mut seen = [false; 7];
        let mut observe = |svc: &JobService| {
            for (_, _, state, _, _) in svc.jobs() {
                seen[match state {
                    JobState::Queued => 0,
                    JobState::Running { .. } => 1,
                    JobState::Backoff { .. } => 2,
                    JobState::Recovering { .. } => 3,
                    JobState::Completed => 4,
                    JobState::Quarantined => 5,
                    JobState::Rejected => 6,
                }] = true;
            }
        };
        svc.submit(JobSpec::new("poison", 1, 1 << 20), StubJob::flaky(1, 99))
            .expect("admitted");
        let killed = svc
            .submit(JobSpec::new("killed", 2, 1 << 20), StubJob::ok(3, 0))
            .expect("admitted");
        svc.submit(JobSpec::new("wide", 8, 1), StubJob::ok(1, 0))
            .expect_err("infeasible");
        observe(&svc);
        let mut kill_pending = true;
        while svc.step() {
            observe(&svc);
            // Parked between its first and second phase: its domain dies.
            if kill_pending && svc.job_phase_stats(killed).len() == 1 {
                let node = svc.records[&killed].domain[0];
                svc.kill_node(node);
                kill_pending = false;
                observe(&svc);
            }
        }
        assert_eq!(seen, [true; 7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_roundtrip() {
        let a = QuarantineArtifact {
            job: 42,
            name: "mesh-a".into(),
            attempts: 3,
            phase: 2,
            reason: "failed 3 attempts".into(),
            nodes: 4,
            mem_budget: 1 << 20,
            deadline_ns: 5_000_000,
        };
        assert_eq!(
            QuarantineArtifact::decode(&a.encode()).expect("roundtrip"),
            a
        );
        assert!(QuarantineArtifact::decode(&[0u8; 8]).is_err());
    }
}
