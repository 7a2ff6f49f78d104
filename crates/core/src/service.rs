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
//! * [`JobFailure::Runtime`] (a [`MrtsError`]) → bounded
//!   retry-with-backoff under the job's [`RetryPolicy`], up to
//!   `max_attempts`;
//! * [`JobFailure::Invariant`] → immediate quarantine (no retry — the
//!   run is wrong, not unlucky);
//! * attempts exhausted or deadline exceeded → quarantine.
//!
//! A quarantined job persists a [`QuarantineArtifact`] under
//! `target/replay/`, is **never resubmitted**, and never blocks the
//! queue. A node kill ([`JobService::kill_node`]) dooms only the jobs
//! whose domain contains that node: at the next phase boundary their
//! in-flight attempt is discarded, [`ServiceEvent::JobRecovered`] fires,
//! and the job is re-granted a fresh domain on the survivors, restarting
//! from its last checkpoint. Jobs elsewhere in the pool never notice.
//!
//! ## Execution modes
//!
//! [`JobService::drain_serial`] runs the supervisor loop on the calling
//! thread, one phase at a time, round-robin across jobs — fully
//! deterministic (the sustained-chaos sweep relies on this to prove
//! byte-identical meshes). [`JobService::run_until_drained`] runs the
//! same loop from N OS worker threads for throughput benches; all
//! transitions commit under one lock, so the state machine is identical.

use crate::audit::{ServiceEvent, ServiceEventSink};
use crate::checkpoint::Checkpoint;
use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::fault::{MrtsError, RetryPolicy};
use crate::ids::NodeId;
use crate::lock;
use crate::stats::RunStats;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
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
    /// Backoff between retry attempts of a failed job.
    pub retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
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
    /// A typed runtime failure — retryable under the backoff policy.
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
pub trait Job: Send {
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
    /// A retryable failure; waiting out the backoff.
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
    /// Set when a node in the domain died mid-attempt: the in-flight
    /// result is invalid and must be discarded in favor of recovery.
    doomed: Option<NodeId>,
    /// Cumulative virtual time across committed phases (deadline ledger).
    virtual_spent: Duration,
    /// Cumulative backoff delay charged by the retry policy.
    backoff_total: Duration,
    /// Engine stats of every committed phase, in commit order (failed
    /// attempts carry no stats and discarded doomed results are not
    /// committed). Lets callers total counters across a multi-phase job
    /// — a single phase's [`RunStats`] only covers that phase.
    phase_stats: Vec<RunStats>,
    outcome: Option<JobOutcome>,
    failure: Option<String>,
    /// None while leased to a worker or after a terminal transition.
    job: Option<Box<dyn Job>>,
}

struct ServiceState {
    cfg: ServiceConfig,
    records: BTreeMap<JobId, JobRecord>,
    next_id: JobId,
    free: BTreeSet<NodeId>,
    dead: BTreeSet<NodeId>,
    /// Virtual supervisor step counter: advanced on every dispatch,
    /// backoffs expire against it (deterministic in serial mode).
    steps: u64,
    /// Round-robin cursor: the id served last; the next dispatch scan
    /// starts just past it, so one long job cannot starve the others.
    cursor: JobId,
    /// Phases currently leased to workers.
    leased: usize,
    stats: ServiceStats,
    health: ServiceHealth,
    sinks: Vec<Arc<dyn ServiceEventSink>>,
}

enum Dispatch {
    /// A phase to run outside the lock.
    Run {
        id: JobId,
        job: Box<dyn Job>,
        att: JobAttempt,
    },
    /// An inline transition was performed; call again.
    Acted,
    /// Nothing actionable now, but backoffs or leases are pending.
    Waiting,
    /// Every job is terminal.
    Drained,
}

/// The supervisor. See the module docs for the lifecycle; all state
/// transitions commit under one internal lock, so the serial and
/// multi-worker drains run the identical state machine.
pub struct JobService {
    state: Mutex<ServiceState>,
}

impl JobService {
    pub fn new(cfg: ServiceConfig) -> Self {
        let free: BTreeSet<NodeId> = (0..cfg.pool_nodes as NodeId).collect();
        JobService {
            state: Mutex::new(ServiceState {
                cfg,
                records: BTreeMap::new(),
                next_id: 1,
                free,
                dead: BTreeSet::new(),
                steps: 0,
                cursor: 0,
                leased: 0,
                stats: ServiceStats::default(),
                health: ServiceHealth::Normal,
                sinks: Vec::new(),
            }),
        }
    }

    /// Attach a service-event sink (e.g. the
    /// [`crate::audit::InvariantChecker`], which enforces fault-domain
    /// disjointness online). Attach before submitting.
    pub fn attach_service_audit(&self, sink: Arc<dyn ServiceEventSink>) {
        lock(&self.state).sinks.push(sink);
    }

    /// Submit a job. Admission control applies immediately: the result
    /// says whether the job entered the queue. Rejected submissions
    /// still get a (terminal) record, so `job_state` explains them.
    pub fn submit(&self, spec: JobSpec, job: Box<dyn Job>) -> Result<JobId, AdmissionError> {
        let mut st = lock(&self.state);
        let id = st.next_id;
        st.next_id += 1;

        let verdict = admission_verdict(&st, &spec);
        let state = match &verdict {
            Ok(()) => JobState::Queued,
            Err(_) => JobState::Rejected,
        };
        match &verdict {
            Ok(()) => st.stats.jobs_admitted += 1,
            Err(e) => {
                st.stats.jobs_rejected += 1;
                if *e == AdmissionError::Shedding {
                    st.stats.shed_events += 1;
                }
            }
        }
        st.records.insert(
            id,
            JobRecord {
                spec,
                state,
                attempt: 0,
                phase: 0,
                domain: Vec::new(),
                checkpoint: None,
                doomed: None,
                virtual_spent: Duration::ZERO,
                backoff_total: Duration::ZERO,
                phase_stats: Vec::new(),
                outcome: None,
                failure: verdict.as_ref().err().map(|e| e.to_string()),
                job: Some(job),
            },
        );
        let depth = queued_depth(&st) as u64;
        st.stats.queue_depth_peak = st.stats.queue_depth_peak.max(depth);
        verdict.map(|()| id)
    }

    /// Kill a pool node. Queued jobs are untouched; active jobs whose
    /// domain contains the node are doomed — their in-flight attempt is
    /// discarded at its phase boundary and the job recovers from its
    /// last checkpoint onto surviving nodes. Jobs whose domain avoids
    /// the node never notice (the fault-domain guarantee).
    pub fn kill_node(&self, node: NodeId) {
        let mut st = lock(&self.state);
        st.dead.insert(node);
        st.free.remove(&node);
        let ids: Vec<JobId> = st.records.keys().copied().collect();
        for id in ids {
            let (state, in_domain, leased) = {
                let rec = st.records.get(&id).expect("iterating ids just collected");
                (
                    rec.state.clone(),
                    rec.domain.contains(&node),
                    rec.job.is_none(),
                )
            };
            if state.is_terminal() || !in_domain {
                continue;
            }
            match state {
                // A worker holds the phase right now: mark doomed; its
                // commit performs the recovery at the phase boundary.
                JobState::Running { .. } if leased => {
                    st.records.get_mut(&id).expect("record exists").doomed = Some(node);
                }
                // Parked between phases or waiting out a backoff: the
                // domain is lost right now.
                JobState::Running { attempt } | JobState::Backoff { attempt, .. } => {
                    recover_inline(&mut st, id, attempt, node);
                }
                // No domain held in the remaining states.
                JobState::Queued
                | JobState::Recovering { .. }
                | JobState::Completed
                | JobState::Quarantined
                | JobState::Rejected => {}
            }
        }
    }

    /// One supervisor step, the same in every mode: dispatch under the
    /// lock, run a leased phase outside it, commit its result. Returns
    /// what the dispatch found; a phase that ran counts as `Acted`.
    fn step(&self) -> Dispatch {
        let d = dispatch(&mut lock(&self.state));
        let Dispatch::Run { id, mut job, att } = d else {
            return d;
        };
        let result = job.run_phase(att);
        commit(&mut lock(&self.state), id, job, result);
        Dispatch::Acted
    }

    /// Run the supervisor loop on this thread until every job is
    /// terminal. One phase at a time, jobs in id order — deterministic.
    pub fn drain_serial(&self) {
        while self.step_serial() {}
    }

    /// Run exactly one supervisor step: dispatch once, and if a phase
    /// was leased, run and commit it. Returns `false` once the service
    /// is drained. Harnesses use this to interleave chaos (node kills)
    /// with job progress at deterministic points.
    pub fn step_serial(&self) -> bool {
        !matches!(self.step(), Dispatch::Drained)
    }

    /// Drain with `workers` OS threads pulling phases concurrently.
    /// Transitions still commit under the service lock; only
    /// [`Job::run_phase`] runs outside it.
    pub fn run_until_drained(&self, workers: usize) {
        std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| loop {
                    match self.step() {
                        Dispatch::Waiting => std::thread::sleep(Duration::from_micros(200)),
                        Dispatch::Drained => break,
                        _ => {}
                    }
                });
            }
        });
    }

    pub fn stats(&self) -> ServiceStats {
        lock(&self.state).stats.clone()
    }

    pub fn is_degraded(&self) -> bool {
        lock(&self.state).health != ServiceHealth::Normal
    }

    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        lock(&self.state).records.get(&id).map(|r| r.state.clone())
    }

    pub fn outcome(&self, id: JobId) -> Option<JobOutcome> {
        lock(&self.state)
            .records
            .get(&id)
            .and_then(|r| r.outcome.clone())
    }

    /// The recorded failure string of a rejected/quarantined/retried job.
    pub fn failure(&self, id: JobId) -> Option<String> {
        lock(&self.state)
            .records
            .get(&id)
            .and_then(|r| r.failure.clone())
    }

    /// Cumulative backoff the retry policy charged this job.
    pub fn backoff_total(&self, id: JobId) -> Option<Duration> {
        lock(&self.state).records.get(&id).map(|r| r.backoff_total)
    }

    /// Engine stats of every phase the job committed, in commit order.
    /// A phase's [`RunStats`] covers only that phase; total a counter
    /// across the whole job by summing over this history. Failed
    /// attempts and doomed (node-killed) results commit nothing, so
    /// recovered jobs may re-list a phase's successor run only.
    pub fn job_phase_stats(&self, id: JobId) -> Vec<RunStats> {
        lock(&self.state)
            .records
            .get(&id)
            .map(|r| r.phase_stats.clone())
            .unwrap_or_default()
    }

    /// Snapshot `(id, name, state, attempts, phases_committed)` rows.
    pub fn jobs(&self) -> Vec<(JobId, String, JobState, u32, u32)> {
        lock(&self.state)
            .records
            .iter()
            .map(|(&id, r)| (id, r.spec.name.clone(), r.state.clone(), r.attempt, r.phase))
            .collect()
    }
}

fn admission_verdict(st: &ServiceState, spec: &JobSpec) -> Result<(), AdmissionError> {
    if spec.nodes == 0 || spec.mem_budget == 0 {
        return Err(AdmissionError::Infeasible(
            "a job needs at least one node and a non-zero budget".into(),
        ));
    }
    if spec.nodes > st.cfg.pool_nodes {
        return Err(AdmissionError::Infeasible(format!(
            "domain of {} nodes exceeds the {}-node pool",
            spec.nodes, st.cfg.pool_nodes
        )));
    }
    if spec.mem_budget > spec.nodes * st.cfg.node_budget {
        return Err(AdmissionError::Infeasible(format!(
            "budget {} B exceeds {} B grantable on {} nodes",
            spec.mem_budget,
            spec.nodes * st.cfg.node_budget,
            spec.nodes
        )));
    }
    if st.cfg.shed_when_degraded && st.health != ServiceHealth::Normal {
        return Err(AdmissionError::Shedding);
    }
    if queued_depth(st) >= st.cfg.max_queue {
        return Err(AdmissionError::QueueFull);
    }
    Ok(())
}

fn queued_depth(st: &ServiceState) -> usize {
    st.records
        .values()
        .filter(|r| r.state == JobState::Queued)
        .count()
}

fn emit(st: &ServiceState, ev: ServiceEvent) {
    for s in &st.sinks {
        s.record_service(&ev);
    }
}

/// Release a domain back to the pool (dead nodes stay out).
fn release_domain(st: &mut ServiceState, id: JobId) {
    let rec = st.records.get_mut(&id).expect("record exists");
    let domain = std::mem::take(&mut rec.domain);
    for n in domain {
        if !st.dead.contains(&n) {
            st.free.insert(n);
        }
    }
}

/// The doomed-domain transition: discard the attempt, free survivors,
/// emit `JobRecovered`, park the job for a re-grant.
fn recover_inline(st: &mut ServiceState, id: JobId, attempt: u32, from: NodeId) {
    release_domain(st, id);
    let rec = st.records.get_mut(&id).expect("record exists");
    rec.doomed = None;
    rec.state = JobState::Recovering { attempt };
    st.stats.jobs_recovered += 1;
    emit(st, ServiceEvent::JobRecovered { job: id, from });
}

fn quarantine(st: &mut ServiceState, id: JobId, reason: String) {
    release_domain(st, id);
    let rec = st.records.get_mut(&id).expect("record exists");
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
    let dir = st.cfg.replay_dir.clone();
    // Artifact persistence is best-effort: a full disk must not take the
    // supervisor down with the job.
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(
            dir.join(format!("job-{id:04}-{name}.mjob")),
            artifact.encode(),
        );
    }
    st.stats.jobs_quarantined += 1;
    emit(st, ServiceEvent::JobQuarantined { job: id, attempts });
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

/// Grant the lowest free nodes to `id` if its width fits; emits
/// `JobAdmitted`. Returns false when not enough nodes are free now.
fn try_grant(st: &mut ServiceState, id: JobId) -> bool {
    let (width, budget) = {
        let rec = st.records.get(&id).expect("record exists");
        (rec.spec.nodes, rec.spec.mem_budget)
    };
    if st.free.len() < width {
        return false;
    }
    let domain: Vec<NodeId> = st.free.iter().take(width).copied().collect();
    for n in &domain {
        st.free.remove(n);
    }
    let rec = st.records.get_mut(&id).expect("record exists");
    rec.domain = domain.clone();
    rec.attempt += 1;
    let attempt = rec.attempt;
    rec.state = JobState::Running { attempt };
    emit(
        st,
        ServiceEvent::JobAdmitted {
            job: id,
            nodes: domain,
            budget,
        },
    );
    true
}

fn lease(st: &mut ServiceState, id: JobId) -> Dispatch {
    let rec = st.records.get_mut(&id).expect("record exists");
    let job = rec.job.take().expect("leasing a parked job");
    let att = JobAttempt {
        job: id,
        attempt: rec.attempt,
        phase: rec.phase,
        domain: rec.domain.clone(),
        mem_budget: rec.spec.mem_budget,
        checkpoint: rec.checkpoint.clone(),
    };
    st.leased += 1;
    Dispatch::Run { id, job, att }
}

/// One supervisor step: scan jobs in id order, perform the first
/// available transition. Called with the lock held.
fn dispatch(st: &mut ServiceState) -> Dispatch {
    st.steps += 1;
    // Round-robin: start just past the last-served id, wrapping.
    let mut ids: Vec<JobId> = st.records.keys().copied().collect();
    let split = ids.partition_point(|&id| id <= st.cursor);
    ids.rotate_left(split);
    let alive = st.cfg.pool_nodes - st.dead.len();
    let mut pending = st.leased > 0;
    for id in ids {
        let (state, width, parked, doomed) = {
            let rec = st.records.get(&id).expect("iterating ids just collected");
            (
                rec.state.clone(),
                rec.spec.nodes,
                rec.job.is_some(),
                rec.doomed,
            )
        };
        match state {
            JobState::Queued | JobState::Recovering { .. } => {
                if width > alive {
                    // The pool shrank below this job's declared width: it
                    // can never be granted again. Quarantining keeps it
                    // from blocking the queue forever.
                    st.cursor = id;
                    quarantine(
                        st,
                        id,
                        format!("domain of {width} nodes no longer satisfiable ({alive} alive)"),
                    );
                    return Dispatch::Acted;
                }
                if try_grant(st, id) {
                    st.cursor = id;
                    return lease(st, id);
                }
                pending = true; // waiting on running jobs to free nodes
            }
            JobState::Running { attempt } => {
                if !parked {
                    continue; // leased to a worker right now
                }
                if let Some(from) = doomed {
                    st.cursor = id;
                    recover_inline(st, id, attempt, from);
                    return Dispatch::Acted;
                }
                st.cursor = id;
                return lease(st, id); // next phase of a parked running job
            }
            JobState::Backoff {
                attempt,
                until_step,
            } => {
                if st.steps < until_step {
                    pending = true;
                    continue;
                }
                let next = attempt + 1;
                let rec = st.records.get_mut(&id).expect("record exists");
                rec.attempt = next;
                rec.state = JobState::Running { attempt: next };
                emit(
                    st,
                    ServiceEvent::JobRetry {
                        job: id,
                        attempt: next,
                    },
                );
                st.cursor = id;
                return lease(st, id);
            }
            JobState::Completed | JobState::Quarantined | JobState::Rejected => {}
        }
    }
    if pending {
        Dispatch::Waiting
    } else {
        Dispatch::Drained
    }
}

/// Fold one completed attempt's engine stats into the service health
/// state machine (degraded entry on engine disk pressure, probe-driven
/// exit on consecutive fault-free completions).
fn update_health(st: &mut ServiceState, stats: &RunStats) {
    let ran_degraded = stats.total_of(|n| n.degraded_entries) > 0;
    match st.health {
        ServiceHealth::Normal if ran_degraded => {
            st.health = ServiceHealth::Degraded {
                healthy_completions: 0,
            };
            st.stats.degraded_mode_transitions += 1;
        }
        ServiceHealth::Normal => {}
        ServiceHealth::Degraded { .. } if ran_degraded => {
            st.health = ServiceHealth::Degraded {
                healthy_completions: 0,
            };
        }
        ServiceHealth::Degraded {
            healthy_completions,
        } => {
            let done = healthy_completions + 1;
            if done >= st.cfg.degraded_exit_probes {
                st.health = ServiceHealth::Normal;
                st.stats.degraded_mode_transitions += 1;
            } else {
                st.health = ServiceHealth::Degraded {
                    healthy_completions: done,
                };
            }
        }
    }
}

/// Commit a phase result. Called with the lock held; `job` is returned
/// to the record (unless the transition is terminal).
fn commit(
    st: &mut ServiceState,
    id: JobId,
    job: Box<dyn Job>,
    result: Result<JobProgress, JobFailure>,
) {
    st.leased -= 1;
    let rec = st.records.get_mut(&id).expect("committing a leased job");
    rec.job = Some(job);
    let attempt = rec.attempt;

    // A node kill during the phase invalidates whatever the phase
    // produced — even a success — because state on the dead node is gone.
    if let Some(from) = rec.doomed {
        recover_inline(st, id, attempt, from);
        return;
    }

    match result {
        Ok(JobProgress::Checkpointed { checkpoint, stats }) => {
            rec.checkpoint = Some(checkpoint);
            rec.phase += 1;
            rec.virtual_spent += stats.total;
            rec.phase_stats.push(stats);
            let spent = rec.virtual_spent;
            if let Some(deadline) = rec.spec.deadline {
                if spent > deadline {
                    quarantine(
                        st,
                        id,
                        format!("deadline exceeded: {spent:?} > {deadline:?}"),
                    );
                }
            }
            // else: stays Running; the next dispatch leases the next phase.
        }
        Ok(JobProgress::Finished(out)) => {
            rec.virtual_spent += out.stats.total;
            rec.phase_stats.push(out.stats.clone());
            let spent = rec.virtual_spent;
            if rec.spec.deadline.is_some_and(|d| spent > d) {
                let deadline = rec.spec.deadline.expect("checked is_some");
                quarantine(
                    st,
                    id,
                    format!("deadline exceeded: {spent:?} > {deadline:?}"),
                );
                return;
            }
            rec.state = JobState::Completed;
            rec.outcome = Some(out.clone());
            rec.job = None;
            release_domain(st, id);
            st.stats.jobs_completed += 1;
            emit(st, ServiceEvent::JobCompleted { job: id });
            update_health(st, &out.stats);
        }
        Err(JobFailure::Invariant(why)) => {
            quarantine(st, id, format!("invariant violated: {why}"));
        }
        Err(JobFailure::Runtime(e)) => {
            rec.failure = Some(e.to_string());
            let maxa = if rec.spec.max_attempts == 0 {
                st.cfg.default_max_attempts
            } else {
                rec.spec.max_attempts
            };
            if attempt >= maxa {
                quarantine(st, id, format!("failed {attempt} attempts, last: {e}"));
                return;
            }
            rec.backoff_total += st.cfg.retry.delay(attempt, id);
            // Virtual backoff: expire against the supervisor step
            // counter, deterministic in serial mode and fair in
            // multi-worker mode (each dispatch advances it).
            rec.state = JobState::Backoff {
                attempt,
                until_step: st.steps + 1 + attempt as u64,
            };
            st.stats.jobs_retried += 1;
        }
    }
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
        let svc = JobService::new(cfg(4));
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        svc.attach_service_audit(checker.clone());
        let a = svc
            .submit(JobSpec::new("a", 2, 1 << 20), StubJob::ok(3, 11))
            .expect("admitted");
        let b = svc
            .submit(JobSpec::new("b", 2, 1 << 20), StubJob::ok(1, 22))
            .expect("admitted");
        svc.drain_serial();
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
        let svc = JobService::new(c);
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
        let svc = JobService::new(cfg(2));
        let log = Arc::new(ServiceLog::new());
        svc.attach_service_audit(log.clone());
        let id = svc
            .submit(JobSpec::new("flaky", 1, 1 << 20), StubJob::flaky(2, 2))
            .expect("admitted");
        svc.drain_serial();
        assert_eq!(svc.job_state(id), Some(JobState::Completed));
        let s = svc.stats();
        assert_eq!(s.jobs_retried, 2);
        assert_eq!(s.jobs_completed, 1);
        assert!(svc.backoff_total(id).expect("record") > Duration::ZERO);
        let retries = log
            .snapshot()
            .iter()
            .filter(|e| matches!(e, ServiceEvent::JobRetry { .. }))
            .count();
        assert_eq!(retries, 2);
    }

    #[test]
    fn poison_job_is_quarantined_with_artifact() {
        let c = cfg(2);
        let dir = c.replay_dir.clone();
        let _ = std::fs::remove_dir_all(&dir);
        let svc = JobService::new(c);
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        svc.attach_service_audit(checker.clone());
        let id = svc
            .submit(JobSpec::new("poison", 1, 1 << 20), StubJob::flaky(1, 99))
            .expect("admitted");
        let ok = svc
            .submit(JobSpec::new("innocent", 1, 1 << 20), StubJob::ok(1, 5))
            .expect("admitted");
        svc.drain_serial();
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
        let svc = JobService::new(cfg(2));
        let mut spec = JobSpec::new("slow", 1, 1 << 20);
        spec.deadline = Some(Duration::from_millis(15)); // 2 phases × 10ms > 15ms
        let id = svc.submit(spec, StubJob::ok(3, 0)).expect("admitted");
        svc.drain_serial();
        assert_eq!(svc.job_state(id), Some(JobState::Quarantined));
        assert!(svc.failure(id).expect("failure").contains("deadline"));
    }

    #[test]
    fn node_kill_recovers_only_jobs_homed_there() {
        let svc = JobService::new(cfg(4));
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
            svc.step_serial();
        }
        svc.kill_node(0);
        svc.drain_serial();
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

    #[test]
    fn degraded_completions_shed_load_then_recover() {
        let mut c = cfg(2);
        c.degraded_exit_probes = 2;
        let svc = JobService::new(c);

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

        svc.submit(JobSpec::new("pressure", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain_serial();
        assert!(svc.is_degraded(), "degraded completion trips service state");
        let err = svc
            .submit(JobSpec::new("shed-me", 1, 1 << 20), StubJob::ok(1, 0))
            .expect_err("degraded service sheds");
        assert_eq!(err, AdmissionError::Shedding);
        assert_eq!(svc.stats().shed_events, 1);

        // Two fault-free completions probe the service back to normal.
        let mut st = lock(&svc.state);
        st.cfg.shed_when_degraded = false;
        drop(st);
        for i in 0..2 {
            svc.submit(
                JobSpec::new(format!("probe-{i}"), 1, 1 << 20),
                StubJob::ok(1, 0),
            )
            .expect("admitted with shedding off");
        }
        svc.drain_serial();
        assert!(!svc.is_degraded(), "exit probes completed");
        assert_eq!(svc.stats().degraded_mode_transitions, 2);
    }

    #[test]
    fn exit_probe_streak_is_exact_and_resets_on_relapse() {
        let mut c = cfg(2);
        c.degraded_exit_probes = 3;
        c.shed_when_degraded = false;
        let svc = JobService::new(c);

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

        let mut probes = 0;
        let mut probe = |svc: &JobService, n: usize| {
            for _ in 0..n {
                probes += 1;
                svc.submit(
                    JobSpec::new(format!("probe-{probes}"), 1, 1 << 20),
                    StubJob::ok(1, 0),
                )
                .expect("admitted");
            }
            svc.drain_serial();
        };

        svc.submit(JobSpec::new("pressure", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain_serial();
        assert!(svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // One short of the exit threshold must not exit (off-by-one guard).
        probe(&svc, 2);
        assert!(svc.is_degraded(), "exited one probe early");
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // A relapse mid-streak resets the healthy-completion count without
        // counting as a fresh entry transition...
        svc.submit(JobSpec::new("relapse", 1, 1 << 20), Box::new(DegradedJob))
            .expect("admitted");
        svc.drain_serial();
        assert!(svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 1);

        // ...so two more healthy completions still don't exit...
        probe(&svc, 2);
        assert!(
            svc.is_degraded(),
            "relapse failed to reset the probe streak"
        );

        // ...and the third does. Exactly one entry + one exit end-to-end.
        probe(&svc, 1);
        assert!(!svc.is_degraded());
        assert_eq!(svc.stats().degraded_mode_transitions, 2);
    }

    #[test]
    fn threaded_drain_matches_serial_outcomes() {
        let svc = JobService::new(cfg(8));
        let checker = Arc::new(InvariantChecker::new(FailMode::Collect));
        svc.attach_service_audit(checker.clone());
        let ids: Vec<JobId> = (0..6)
            .map(|i| {
                svc.submit(
                    JobSpec::new(format!("j{i}"), 2, 1 << 20),
                    StubJob::ok(2, 100 + i),
                )
                .expect("admitted")
            })
            .collect();
        svc.run_until_drained(3);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(svc.job_state(*id), Some(JobState::Completed));
            assert_eq!(svc.outcome(*id).expect("outcome").digest, 100 + i as u64);
        }
        assert_eq!(svc.stats().jobs_completed, 6);
        checker.assert_clean();
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
        let svc = JobService::new(c);
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
        while svc.step_serial() {
            observe(&svc);
            // Parked between its first and second phase: its domain dies.
            if kill_pending && svc.job_phase_stats(killed).len() == 1 {
                let node = lock(&svc.state).records[&killed].domain[0];
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
