//! Self-tests: aim each checker at a deliberately broken mini-tree and
//! prove it fires — and at a clean mini-tree and prove it stays quiet.
//!
//! Every test also asserts the checker's coverage count, so a checker
//! that silently stops looking at anything (a vacuous pass) fails the
//! suite even though no violation is expected.

use mrts_analyzer::{analyze, analyze_tree, Check, FileRole, Workspace};
use std::path::Path;

fn ws_with(files: &[(&str, &str, &[FileRole])]) -> Workspace {
    let mut ws = Workspace::bare();
    for (name, src, roles) in files {
        ws.push_source(Path::new(name), src, roles.to_vec())
            .expect("fixture source parses");
    }
    ws
}

fn msgs(ws: &Workspace) -> (mrts_analyzer::AnalysisReport, Vec<String>) {
    let report = analyze(ws).expect("analysis runs");
    let m = report.violations.iter().map(|v| v.to_string()).collect();
    (report, m)
}

// ---- the clean mini-tree -----------------------------------------------

const THREADED_OK: &str = r#"
pub const AM_PING: u32 = 1;

fn audit_emit(kind: u32) {
    let _ = kind;
}

fn handle_ping(st: &mut NodeStats) {
    audit_emit(1);
    st.pings += 1;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(st),
        _ => {}
    }
}

fn record_poll(log: &mut Vec<Decision>, got: bool) {
    if got {
        log.push(Decision::Step { n: 1 });
    } else {
        log.push(Decision::Halt);
    }
}

fn replay_poll(d: Option<&Decision>) -> bool {
    match d {
        Some(Decision::Step { n }) => *n > 0,
        Some(Decision::Halt) => false,
        _ => false,
    }
}
"#;

const REPLAY_OK: &str = r#"
pub enum Decision {
    Step { n: u32 },
    Halt,
}
"#;

const CORE_OK: &str = r#"
pub const AM_PONG: u32 = 2;

pub enum NetMsg {
    Pong(u32),
}

fn audit_emit(kind: u32) {
    let _ = kind;
}

impl NetMsg {
    fn decode(tag: u32) -> Option<NetMsg> {
        match tag {
            AM_PONG => Some(NetMsg::Pong(0)),
            _ => None,
        }
    }
}

impl NodeCore {
    fn on_net(&mut self, msg: NetMsg) {
        match msg {
            NetMsg::Pong(n) => self.on_pong(n),
        }
    }

    fn on_pong(&mut self, n: u32) {
        audit_emit(n);
    }
}
"#;

const STATS_OK: &str = r#"
pub struct NodeStats {
    pub pings: u64,
}

pub struct RunStats {
    nodes: Vec<NodeStats>,
}

impl RunStats {
    pub fn summary(&self) -> String {
        format!("pings={}", self.total(|n| n.pings))
    }

    fn total(&self, f: impl Fn(&NodeStats) -> u64) -> u64 {
        self.nodes.iter().map(f).sum()
    }
}
"#;

const SERVICE_OK: &str = r#"
pub enum JobState {
    Queued,
    Running,
    Done,
}

pub struct ServiceStats {
    pub jobs_admitted: u64,
}

impl ServiceStats {
    pub fn summary(&self) -> String {
        format!("jobs_admitted={}", self.jobs_admitted)
    }
}

fn admit(st: &mut ServiceStats) -> JobState {
    st.jobs_admitted += 1;
    JobState::Queued
}

fn advance(s: JobState) -> JobState {
    match s {
        JobState::Queued => JobState::Running,
        JobState::Running => JobState::Done,
        JobState::Done => JobState::Done,
    }
}
"#;

const LOCKS_OK: &str = r#"
fn ordered(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = b.lock().expect("b");
    let _ = (*ga, *gb);
}

fn also_ordered(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = b.lock().expect("b");
    let _ = (*ga, *gb);
}
"#;

const UNWRAP_OK: &str = r#"
fn careful(v: Option<u32>) -> u32 {
    v.expect("fixture invariant: v is always Some here")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_allowlisted() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
"#;

fn clean_files() -> Vec<(&'static str, &'static str, &'static [FileRole])> {
    use FileRole::*;
    vec![
        (
            "fix/threaded.rs",
            THREADED_OK,
            &[ThreadedEngine, CounterScan][..],
        ),
        ("fix/node.rs", CORE_OK, &[NodeCore][..]),
        ("fix/replay.rs", REPLAY_OK, &[Replay][..]),
        ("fix/stats.rs", STATS_OK, &[Stats][..]),
        ("fix/service.rs", SERVICE_OK, &[Service][..]),
        ("fix/locks.rs", LOCKS_OK, &[LockScan][..]),
        ("fix/unwraps.rs", UNWRAP_OK, &[UnwrapScan][..]),
    ]
}

/// Swap the source for one fixture file, keeping the rest of the clean
/// tree around it, so each test isolates a single defect.
fn ws_with_broken(name: &str, src: &'static str) -> Workspace {
    let mut files = clean_files();
    let slot = files
        .iter_mut()
        .find(|(n, _, _)| *n == name)
        .expect("fixture slot exists");
    slot.1 = src;
    ws_with(&files)
}

#[test]
fn clean_mini_tree_passes_and_every_checker_covers_something() {
    let (report, m) = msgs(&ws_with(&clean_files()));
    assert!(report.pass(), "clean fixture tree must be clean: {m:?}");
    assert_eq!(report.tags_checked, 2, "protocol checker went vacuous");
    assert_eq!(report.counters_checked, 1, "counter checker went vacuous");
    assert_eq!(report.decisions_checked, 2, "decision checker went vacuous");
    assert_eq!(
        report.service_states_checked, 3,
        "service checker went vacuous"
    );
    assert_eq!(report.locks_seen, 2, "lock checker went vacuous");
    assert!(report.fns_scanned >= 1, "unwrap checker went vacuous");
}

// ---- checker 1: protocol -----------------------------------------------

#[test]
fn missing_dispatch_arm_is_flagged() {
    let ws = ws_with_broken(
        "fix/threaded.rs",
        r#"
pub const AM_PING: u32 = 1;

fn audit_emit(kind: u32) {
    let _ = kind;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    let _ = tag;
    audit_emit(0);
    st.pings += 1;
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert_eq!(report.tags_checked, 2);
    assert!(
        m.iter().any(|v| v.contains("AM_PING has no dispatch arm")),
        "missing arm not flagged: {m:?}"
    );
}

/// The node core's half of the protocol: a `NetMsg` tag nobody decodes,
/// and a `NetMsg` variant whose dispatch never audits, are both flagged.
/// (That both engines *handle* every variant is the compiler's job: they
/// match on the one enum.)
#[test]
fn node_core_tag_without_decode_arm_and_unaudited_variant_are_flagged() {
    let ws = ws_with_broken(
        "fix/node.rs",
        r#"
pub const AM_PONG: u32 = 2;

pub enum NetMsg {
    Pong(u32),
}

impl NodeCore {
    fn on_net(&mut self, msg: NetMsg) {
        match msg {
            NetMsg::Pong(n) => self.on_pong(n),
        }
    }

    fn on_pong(&mut self, n: u32) {
        let _ = n;
    }
}
"#,
    );
    let (_, m) = msgs(&ws);
    assert!(
        m.iter().any(|v| v.contains("AM_PONG has no dispatch arm")),
        "undecoded tag not flagged: {m:?}"
    );
    assert!(
        m.iter()
            .any(|v| v.contains("no dispatch arm for NetMsg::Pong reaches an audit emission")),
        "unaudited variant not flagged: {m:?}"
    );
}

#[test]
fn handler_that_never_audits_is_flagged() {
    let ws = ws_with_broken(
        "fix/threaded.rs",
        r#"
pub const AM_PING: u32 = 1;

fn handle_ping(st: &mut NodeStats) {
    st.pings += 1;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(st),
        _ => {}
    }
}
"#,
    );
    let (_, m) = msgs(&ws);
    assert!(
        m.iter()
            .any(|v| v.contains("no dispatch arm for AM_PING reaches an audit emission")),
        "unaudited handler not flagged: {m:?}"
    );
}

/// The engines emit the audit events of residency transitions from the
/// node core they both drive: an arm whose only emission sits in a
/// `NodeCore`-role file must count as audited — and must be flagged again
/// when the core stops emitting.
#[test]
fn audit_reached_only_through_the_node_core_counts_and_its_loss_is_flagged() {
    const THREADED_VIA_CORE: &str = r#"
pub const AM_PING: u32 = 1;

fn handle_ping(core: &mut NodeCore, st: &mut NodeStats) {
    core.complete_ping(1);
    st.pings += 1;
}

fn dispatch(tag: u32, core: &mut NodeCore, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(core, st),
        _ => {}
    }
}

fn record_poll(log: &mut Vec<Decision>, got: bool) {
    if got {
        log.push(Decision::Step { n: 1 });
    } else {
        log.push(Decision::Halt);
    }
}

fn replay_poll(d: Option<&Decision>) -> bool {
    match d {
        Some(Decision::Step { n }) => *n > 0,
        Some(Decision::Halt) => false,
        _ => false,
    }
}
"#;
    const CORE_AUDITS: &str = r#"
fn audit_emit(kind: u32) {
    let _ = kind;
}

impl NodeCore {
    fn complete_ping(&mut self, n: u32) {
        audit_emit(n);
    }
}
"#;
    const CORE_SILENT: &str = r#"
impl NodeCore {
    fn complete_ping(&mut self, n: u32) {
        let _ = n;
    }
}
"#;
    let tree = |core_src: &'static str| {
        let mut files = clean_files();
        for (name, src) in [
            ("fix/threaded.rs", THREADED_VIA_CORE),
            ("fix/node.rs", core_src),
        ] {
            files
                .iter_mut()
                .find(|(n, _, _)| *n == name)
                .expect("fixture slot exists")
                .1 = src;
        }
        ws_with(&files)
    };
    let (report, m) = msgs(&tree(CORE_AUDITS));
    assert!(report.pass(), "emission in the node core must count: {m:?}");
    let (_, m) = msgs(&tree(CORE_SILENT));
    assert!(
        m.iter()
            .any(|v| v.contains("no dispatch arm for AM_PING reaches an audit emission")),
        "silent node core not flagged: {m:?}"
    );
}

#[test]
fn incremented_but_unreported_counter_is_flagged() {
    // `pings` is still incremented by the threaded fixture, but the
    // summary no longer surfaces it.
    let mut files = clean_files();
    files
        .iter_mut()
        .find(|(n, _, _)| *n == "fix/stats.rs")
        .expect("stats slot")
        .1 = r#"
pub struct NodeStats {
    pub pings: u64,
}

pub struct RunStats {
    nodes: Vec<NodeStats>,
}

impl RunStats {
    pub fn summary(&self) -> String {
        String::from("ok")
    }
}
"#;
    let (report, m) = msgs(&ws_with(&files));
    assert_eq!(report.counters_checked, 1);
    assert!(
        m.iter()
            .any(|v| v.contains("never surfaced by RunStats::summary")),
        "summary gap not flagged: {m:?}"
    );
}

#[test]
fn decision_without_replay_arm_is_flagged() {
    // Both variants are recorded, but the replay dispatch lost its
    // `Halt` arm behind the wildcard.
    let ws = ws_with_broken(
        "fix/threaded.rs",
        r#"
pub const AM_PING: u32 = 1;

fn audit_emit(kind: u32) {
    let _ = kind;
}

fn handle_ping(st: &mut NodeStats) {
    audit_emit(1);
    st.pings += 1;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(st),
        _ => {}
    }
}

fn record_poll(log: &mut Vec<Decision>, got: bool) {
    if got {
        log.push(Decision::Step { n: 1 });
    } else {
        log.push(Decision::Halt);
    }
}

fn replay_poll(d: Option<&Decision>) -> bool {
    match d {
        Some(Decision::Step { n }) => *n > 0,
        _ => false,
    }
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert_eq!(report.decisions_checked, 2);
    assert!(
        m.iter()
            .any(|v| v.contains("Decision::Halt has no replay match arm")),
        "missing replay arm not flagged: {m:?}"
    );
    assert!(
        !m.iter().any(|v| v.contains("Decision::Step")),
        "Step is handled on both paths: {m:?}"
    );
}

#[test]
fn decision_never_recorded_is_flagged() {
    // `Halt` is matched on replay but the record path never produces it:
    // replaying a recorded schedule could never exercise that arm.
    let ws = ws_with_broken(
        "fix/threaded.rs",
        r#"
pub const AM_PING: u32 = 1;

fn audit_emit(kind: u32) {
    let _ = kind;
}

fn handle_ping(st: &mut NodeStats) {
    audit_emit(1);
    st.pings += 1;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(st),
        _ => {}
    }
}

fn record_poll(log: &mut Vec<Decision>) {
    log.push(Decision::Step { n: 1 });
}

fn replay_poll(d: Option<&Decision>) -> bool {
    match d {
        Some(Decision::Step { n }) => *n > 0,
        Some(Decision::Halt) => false,
        _ => false,
    }
}
"#,
    );
    let (_, m) = msgs(&ws);
    assert!(
        m.iter()
            .any(|v| v.contains("Decision::Halt is never constructed on the record path")),
        "missing record construction not flagged: {m:?}"
    );
}

#[test]
fn steal_decisions_require_both_paths() {
    // Every variant beyond the polls rides the same contract: a
    // `StealGrant` variant whose record path never produces it (and whose
    // replay path cannot match it) is dead protocol. The fixture
    // constructs/matches only `StealRequest`. (The real tree logs no
    // steal at all — steals derive from the inputs.)
    let mut files = clean_files();
    files
        .iter_mut()
        .find(|(n, _, _)| *n == "fix/replay.rs")
        .expect("fixture slot exists")
        .1 = r#"
pub enum Decision {
    Step { n: u32 },
    Halt,
    StealRequest { victim: u16 },
    StealGrant { oid: u64 },
}
"#;
    files
        .iter_mut()
        .find(|(n, _, _)| *n == "fix/threaded.rs")
        .expect("fixture slot exists")
        .1 = r#"
pub const AM_PING: u32 = 1;

fn audit_emit(kind: u32) {
    let _ = kind;
}

fn handle_ping(st: &mut NodeStats) {
    audit_emit(1);
    st.pings += 1;
}

fn dispatch(tag: u32, st: &mut NodeStats) {
    match tag {
        AM_PING => handle_ping(st),
        _ => {}
    }
}

fn record_poll(log: &mut Vec<Decision>, got: bool) {
    if got {
        log.push(Decision::Step { n: 1 });
    } else {
        log.push(Decision::Halt);
    }
}

fn maybe_steal(log: &mut Vec<Decision>) {
    log.push(Decision::StealRequest { victim: 1 });
}

fn replay_poll(d: Option<&Decision>) -> bool {
    match d {
        Some(Decision::Step { n }) => *n > 0,
        Some(Decision::Halt) => false,
        Some(Decision::StealRequest { victim }) => *victim > 0,
        _ => false,
    }
}
"#;
    let (report, m) = msgs(&ws_with(&files));
    assert_eq!(report.decisions_checked, 4);
    assert!(
        m.iter()
            .any(|v| v.contains("Decision::StealGrant is never constructed on the record path")),
        "unrecorded steal grant not flagged: {m:?}"
    );
    assert!(
        m.iter()
            .any(|v| v.contains("Decision::StealGrant has no replay match arm")),
        "unmatched steal grant not flagged: {m:?}"
    );
    assert!(
        !m.iter().any(|v| v.contains("Decision::StealRequest")),
        "StealRequest is handled on both paths: {m:?}"
    );
}

// ---- job-service state machine ------------------------------------------

#[test]
fn unreachable_service_state_is_flagged() {
    // `Done` is matched but never constructed: no transition can reach it.
    let ws = ws_with_broken(
        "fix/service.rs",
        r#"
pub enum JobState {
    Queued,
    Running,
    Done,
}

pub struct ServiceStats {
    pub jobs_admitted: u64,
}

impl ServiceStats {
    pub fn summary(&self) -> String {
        format!("jobs_admitted={}", self.jobs_admitted)
    }
}

fn admit(st: &mut ServiceStats) -> JobState {
    st.jobs_admitted += 1;
    JobState::Queued
}

fn advance(s: JobState) -> JobState {
    match s {
        JobState::Queued => JobState::Running,
        JobState::Running => JobState::Running,
        JobState::Done => JobState::Running,
    }
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert_eq!(report.service_states_checked, 3);
    assert!(
        m.iter()
            .any(|v| v.contains("JobState::Done is never constructed")),
        "unreachable state not flagged: {m:?}"
    );
}

#[test]
fn unschedulable_service_state_is_flagged() {
    // `Done` is constructed but no supervisor arm consumes it: a job
    // parked there would never be scheduled again.
    let ws = ws_with_broken(
        "fix/service.rs",
        r#"
pub enum JobState {
    Queued,
    Done,
}

pub struct ServiceStats {
    pub jobs_admitted: u64,
}

impl ServiceStats {
    pub fn summary(&self) -> String {
        format!("jobs_admitted={}", self.jobs_admitted)
    }
}

fn admit(st: &mut ServiceStats) -> JobState {
    st.jobs_admitted += 1;
    JobState::Queued
}

fn advance(s: JobState) -> JobState {
    match s {
        JobState::Queued => JobState::Done,
        _ => JobState::Done,
    }
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert_eq!(report.service_states_checked, 2);
    assert!(
        m.iter()
            .any(|v| v.contains("JobState::Done has no match arm")),
        "unschedulable state not flagged: {m:?}"
    );
}

#[test]
fn unreported_service_counter_is_flagged() {
    // `jobs_shed` is incremented but ServiceStats::summary never
    // mentions it.
    let ws = ws_with_broken(
        "fix/service.rs",
        r#"
pub enum JobState {
    Queued,
}

pub struct ServiceStats {
    pub jobs_admitted: u64,
    pub jobs_shed: u64,
}

impl ServiceStats {
    pub fn summary(&self) -> String {
        format!("jobs_admitted={}", self.jobs_admitted)
    }
}

fn admit(st: &mut ServiceStats) -> JobState {
    st.jobs_admitted += 1;
    st.jobs_shed += 1;
    JobState::Queued
}

fn advance(s: JobState) -> JobState {
    match s {
        JobState::Queued => JobState::Queued,
    }
}
"#,
    );
    let (_report, m) = msgs(&ws);
    assert!(
        m.iter()
            .any(|v| v.contains("service counter `jobs_shed` is incremented but never surfaced")),
        "unreported service counter not flagged: {m:?}"
    );
}

// ---- checker 2: lock order ---------------------------------------------

#[test]
fn lock_order_cycle_is_flagged() {
    let ws = ws_with_broken(
        "fix/locks.rs",
        r#"
fn ab(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = b.lock().expect("b");
    let _ = (*ga, *gb);
}

fn ba(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock().expect("b");
    let ga = a.lock().expect("a");
    let _ = (*ga, *gb);
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert_eq!(report.locks_seen, 2);
    assert!(
        m.iter()
            .any(|v| v.contains("lock-order cycle (potential deadlock)")),
        "AB/BA cycle not flagged: {m:?}"
    );
}

#[test]
fn channel_send_under_lock_is_flagged() {
    let ws = ws_with_broken(
        "fix/locks.rs",
        r#"
fn publish(a: &Mutex<u32>, out_tx: &Sender<u32>) {
    let ga = a.lock().expect("a");
    out_tx.send(*ga).expect("peer alive");
}
"#,
    );
    let (_, m) = msgs(&ws);
    assert!(
        m.iter()
            .any(|v| v.contains("channel send while holding lock")),
        "send-under-lock not flagged: {m:?}"
    );
}

#[test]
fn reacquiring_a_held_lock_is_flagged() {
    let ws = ws_with_broken(
        "fix/locks.rs",
        r#"
fn twice(a: &Mutex<u32>) {
    let ga = a.lock().expect("a");
    let gb = a.lock().expect("a again");
    let _ = (*ga, *gb);
}
"#,
    );
    let (_, m) = msgs(&ws);
    assert!(
        m.iter().any(|v| v.contains("re-acquired while still held")),
        "self-deadlock not flagged: {m:?}"
    );
}

#[test]
fn dropping_the_guard_before_sending_is_clean() {
    let ws = ws_with_broken(
        "fix/locks.rs",
        r#"
fn publish(a: &Mutex<u32>, out_tx: &Sender<u32>) {
    let ga = a.lock().expect("a");
    let v = *ga;
    drop(ga);
    out_tx.send(v).expect("peer alive");
}
"#,
    );
    let (report, m) = msgs(&ws);
    assert!(report.pass(), "guard was dropped before the send: {m:?}");
}

// ---- checker 3: unwrap ban ---------------------------------------------

#[test]
fn runtime_unwrap_is_flagged_but_test_unwrap_is_not() {
    let ws = ws_with_broken(
        "fix/unwraps.rs",
        r#"
fn sloppy(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(Some(1).unwrap(), 1);
    }
}
"#,
    );
    let (report, m) = msgs(&ws);
    let unwrap_hits: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.check == Check::Unwrap)
        .collect();
    assert_eq!(
        unwrap_hits.len(),
        1,
        "exactly the runtime unwrap, not the test one: {m:?}"
    );
}

// ---- the real tree ------------------------------------------------------

/// The production workspace model must stay wired to real files: clean,
/// and with every checker covering a plausible amount of the tree.
#[test]
fn real_tree_is_clean_and_every_checker_is_nonvacuous() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analyze_tree(&root).expect("analyze the real tree");
    let m: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(report.pass(), "the tree must stay analysis-clean: {m:#?}");
    // Floors include the work-stealing protocol: AM_STEAL_REQ/DENY among
    // the tags. Deleting them must fail here even though no violation
    // would fire. The decisions are exactly the input gateway's answers
    // (fabric recv/empty, I/O done/empty, flush, timer, pump end): steals
    // derive from them, so a new variant is a new input, not a new
    // decision to log.
    assert!(report.tags_checked >= 7, "AM tag coverage collapsed");
    assert!(report.counters_checked >= 10, "counter coverage collapsed");
    assert_eq!(report.decisions_checked, 7, "decision coverage changed");
    assert!(
        report.service_states_checked >= 5,
        "service state coverage collapsed"
    );
    assert!(report.locks_seen >= 3, "lock coverage collapsed");
    assert!(report.fns_scanned >= 100, "function coverage collapsed");
}
