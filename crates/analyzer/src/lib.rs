//! # mrts-analyzer — source-level static analysis for the MRTS workspace
//!
//! Three checkers run over the parsed source (via the `syn` shim) and
//! report [`Violation`]s; the audit gate (`cargo run -p pumg --bin audit
//! -- --analyze`) fails if any are found:
//!
//! 1. **Protocol exhaustiveness** ([`protocol`]): every active-message
//!    tag (`AM_*` const in `threaded.rs` or `node.rs`) must have a
//!    dispatch arm, and every control-ring arm and every `NetMsg` variant's
//!    arm in the node core must reach an audit-event emission (that both
//!    engines handle every `NetMsg` is the compiler's exhaustive `match`);
//!    every `RunStats` counter that is incremented
//!    anywhere in the runtime must be reported by the gate summary
//!    (`RunStats::summary` or a helper it calls). This catches the
//!    "`overlap_fraction_pct = 0` because nobody ever surfaced the
//!    counter" class of bug at analysis time. Every record/replay
//!    `Decision` variant must likewise be constructed on the record
//!    path and matched by a replay arm in the threaded engine. The
//!    job-service state machine (`JobState` in `service.rs`) gets the
//!    same treatment: every state constructed and matched, every
//!    incremented `ServiceStats` counter surfaced by its summary.
//! 2. **Lock-order graph** ([`locks`]): acquisition orders of
//!    `Mutex`/`RwLock` values are extracted per function from
//!    `threaded.rs` and `armci-sim`; a directed edge A→B means B was
//!    acquired while A was held. Cycles (potential deadlock) and channel
//!    sends while holding a lock (`.send(..)` on a `*tx` handle or
//!    `am_send(..)` under a live guard) are violations.
//! 3. **Runtime-path unwrap ban** ([`unwraps`]): bare `.unwrap()` is
//!    banned outside test code; `.expect("reason")` documents the
//!    invariant and is allowed. Test modules (`#[cfg(test)]`), `#[test]`
//!    functions, `tests/`, and benchmark binaries are allowlisted.
//!
//! The checkers are *model-driven*: [`Workspace`] names which files play
//! which protocol roles, so the self-test fixtures can aim each checker
//! at a deliberately broken mini-tree and prove it non-vacuous.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod locks;
pub mod protocol;
pub mod unwraps;

mod model;

pub use model::{FileRole, SourceFile, Workspace};

/// Which checker produced a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Check {
    Protocol,
    LockOrder,
    Unwrap,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Check::Protocol => write!(f, "protocol"),
            Check::LockOrder => write!(f, "lock-order"),
            Check::Unwrap => write!(f, "unwrap-ban"),
        }
    }
}

/// One finding: file, line (0 = file-level), and what is wrong.
#[derive(Clone, Debug)]
pub struct Violation {
    pub check: Check,
    pub file: PathBuf,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.check,
            self.file.display(),
            self.line,
            self.msg
        )
    }
}

/// Full analysis result, plus per-checker coverage counts so callers
/// (and the self-tests) can detect a checker that silently looked at
/// nothing.
pub struct AnalysisReport {
    pub violations: Vec<Violation>,
    /// AM tags examined by the protocol checker.
    pub tags_checked: usize,
    /// RunStats counters examined.
    pub counters_checked: usize,
    /// Record/replay `Decision` variants examined.
    pub decisions_checked: usize,
    /// Job-service `JobState` variants examined.
    pub service_states_checked: usize,
    /// Distinct locks in the acquisition graph.
    pub locks_seen: usize,
    /// Functions scanned by the unwrap checker.
    pub fns_scanned: usize,
}

impl AnalysisReport {
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run every checker over a workspace model.
pub fn analyze(ws: &Workspace) -> Result<AnalysisReport, String> {
    let mut violations = Vec::new();
    let (tags_checked, counters_checked, decisions_checked, service_states_checked) =
        protocol::check(ws, &mut violations)?;
    let locks_seen = locks::check(ws, &mut violations)?;
    let fns_scanned = unwraps::check(ws, &mut violations)?;
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(AnalysisReport {
        violations,
        tags_checked,
        counters_checked,
        decisions_checked,
        service_states_checked,
        locks_seen,
        fns_scanned,
    })
}

/// Analyze the real MRTS tree rooted at `root` (the workspace root,
/// i.e. the directory holding the top-level `Cargo.toml`).
pub fn analyze_tree(root: &Path) -> Result<AnalysisReport, String> {
    let ws = Workspace::mrts(root)?;
    let report = analyze(&ws)?;
    // The tree model must never go vacuous: if renames move the
    // protocol out from under the analyzer, fail loudly instead of
    // passing an empty check.
    if report.tags_checked == 0 {
        return Err("protocol checker found no AM_* tags — stale workspace model?".into());
    }
    if report.counters_checked == 0 {
        return Err("protocol checker found no RunStats counters — stale workspace model?".into());
    }
    if report.decisions_checked == 0 {
        return Err(
            "protocol checker found no record/replay Decision variants — stale workspace model?"
                .into(),
        );
    }
    if report.service_states_checked == 0 {
        return Err(
            "protocol checker found no job-service JobState variants — stale workspace model?"
                .into(),
        );
    }
    if report.locks_seen == 0 {
        return Err("lock-order checker saw no locks — stale workspace model?".into());
    }
    if report.fns_scanned == 0 {
        return Err("unwrap checker scanned no functions — stale workspace model?".into());
    }
    Ok(report)
}
