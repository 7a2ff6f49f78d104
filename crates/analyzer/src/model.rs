//! Workspace model: which files play which protocol roles.
//!
//! The checkers are driven by roles, not hard-coded paths, so the
//! self-test fixtures can point each checker at a deliberately broken
//! mini-tree and prove it still bites.

use std::fs;
use std::path::{Path, PathBuf};

/// What a source file contributes to the analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileRole {
    /// The threaded engine: declares and dispatches the control-ring
    /// `AM_*` tags, records and replays `Decision`s.
    ThreadedEngine,
    /// The node state machine both engines drive (`node.rs`): declares the
    /// `NetMsg` vocabulary, its `AM_*` tags and their decode arms, and the
    /// one dispatch whose arms must reach an audit emission. The engines
    /// call into it for every transition, and the audit events of those
    /// transitions are emitted there — so its functions join the threaded
    /// engine's call graph when the protocol checker follows a dispatch
    /// arm to an audit emission.
    NodeCore,
    /// Declares the record/replay `Decision` enum; every variant must be
    /// constructed on the record path and matched on the replay path of
    /// the threaded engine.
    Replay,
    /// Declares the counter struct and the summary renderer.
    Stats,
    /// Scanned for lock acquisition order.
    LockScan,
    /// Scanned for runtime-path `unwrap()`.
    UnwrapScan,
    /// Scanned for counter increments (`.field +=`).
    CounterScan,
    /// Declares the job-service state machine (`JobState`) and the
    /// service-level counter struct (`ServiceStats`); every state must
    /// be constructed and matched by the supervisor, every incremented
    /// service counter surfaced by `ServiceStats::summary`.
    Service,
}

/// One parsed source file with its roles.
pub struct SourceFile {
    pub path: PathBuf,
    pub ast: syn::File,
    pub roles: Vec<FileRole>,
}

impl SourceFile {
    pub fn has_role(&self, r: FileRole) -> bool {
        self.roles.contains(&r)
    }
}

/// The analysis input: parsed files plus the protocol equivalences the
/// checkers may assume.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Name of the node-to-node message enum (`NetMsg`).
    pub net_msg_enum: String,
    /// Name of the record/replay decision enum (`Decision`).
    pub decision_enum: String,
    /// Name of the per-node counter struct (`NodeStats`).
    pub stats_struct: String,
    /// Type whose `summary` method is the gate reporting surface
    /// (`RunStats`).
    pub summary_impl: String,
    /// Name of the job-service state enum (`JobState`).
    pub service_state_enum: String,
    /// Name of the service-level counter struct (`ServiceStats`); also
    /// the impl whose `summary` must surface its counters.
    pub service_stats_struct: String,
    /// Tags and `NetMsg` variants whose dispatch arms legitimately emit
    /// no audit event: pure bookkeeping (an ack clears a retransmit slot),
    /// control-plane traffic audited at termination instead (the ring
    /// token), or an answer its sender announced (a steal denial).
    pub arms_without_audit: Vec<String>,
}

impl Workspace {
    /// An empty model with MRTS protocol names; fixtures start here and
    /// push their own files.
    pub fn bare() -> Workspace {
        Workspace {
            files: Vec::new(),
            net_msg_enum: "NetMsg".into(),
            decision_enum: "Decision".into(),
            stats_struct: "NodeStats".into(),
            summary_impl: "RunStats".into(),
            service_state_enum: "JobState".into(),
            service_stats_struct: "ServiceStats".into(),
            arms_without_audit: vec!["AM_TOKEN".into(), "AM_ACK".into(), "StealDeny".into()],
        }
    }

    /// Parse `path` and add it with `roles`.
    pub fn load(&mut self, path: &Path, roles: Vec<FileRole>) -> Result<(), String> {
        let src = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        self.push_source(path, &src, roles)
    }

    /// Add an in-memory source (used by tests).
    pub fn push_source(
        &mut self,
        path: &Path,
        src: &str,
        roles: Vec<FileRole>,
    ) -> Result<(), String> {
        let ast = syn::parse_file(src).map_err(|e| format!("parse {}: {e}", path.display()))?;
        self.files.push(SourceFile {
            path: path.to_path_buf(),
            ast,
            roles,
        });
        Ok(())
    }

    /// The real MRTS tree: engines, stats, fabric, and every core source
    /// file for the unwrap/counter sweeps.
    pub fn mrts(root: &Path) -> Result<Workspace, String> {
        use FileRole::*;
        let mut ws = Workspace::bare();
        let core = root.join("crates/core/src");
        let entries =
            fs::read_dir(&core).map_err(|e| format!("read_dir {}: {e}", core.display()))?;
        let mut core_files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        core_files.sort();
        for p in core_files {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let roles = match name {
                "threaded.rs" => vec![ThreadedEngine, LockScan, UnwrapScan, CounterScan],
                "node.rs" => vec![NodeCore, UnwrapScan, CounterScan],
                "replay.rs" => vec![Replay, UnwrapScan, CounterScan],
                "stats.rs" => vec![Stats, UnwrapScan],
                "service.rs" => vec![Service, UnwrapScan, CounterScan],
                _ => vec![UnwrapScan, CounterScan],
            };
            ws.load(&p, roles)?;
        }
        ws.load(
            &root.join("crates/armci-sim/src/lib.rs"),
            vec![LockScan, UnwrapScan],
        )?;
        // Mesh-method runtime paths: handlers and decoders execute inside
        // the engines, so a bare unwrap there panics a worker just like
        // one in core would. `.expect` with a rationale is the allowed
        // form (handlers cannot return `Result`).
        let methods = root.join("crates/mesh-methods/src");
        let entries =
            fs::read_dir(&methods).map_err(|e| format!("read_dir {}: {e}", methods.display()))?;
        let mut method_files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        method_files.sort();
        for p in method_files {
            ws.load(&p, vec![UnwrapScan])?;
        }
        Ok(ws)
    }

    pub fn files_with(&self, r: FileRole) -> impl Iterator<Item = &SourceFile> {
        self.files.iter().filter(move |f| f.has_role(r))
    }
}

/// Visit every function item (any nesting), with a flag saying whether
/// it sits inside test-only code (`#[cfg(test)]` module / `#[test]` fn /
/// any attr mentioning `test`).
pub fn walk_fns<'a>(
    items: &'a [syn::Item],
    in_test: bool,
    f: &mut impl FnMut(&'a syn::ItemFn, bool),
) {
    for item in items {
        match item {
            syn::Item::Fn(fun) => {
                let t = in_test || attrs_are_test(&fun.attrs);
                f(fun, t);
            }
            syn::Item::Impl(im) => {
                let t = in_test || attrs_are_test(&im.attrs);
                walk_fns(&im.items, t, f);
            }
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    let t = in_test || attrs_are_test(&m.attrs);
                    walk_fns(content, t, f);
                }
            }
            _ => {}
        }
    }
}

/// Whether an attribute set marks test-only code.
pub fn attrs_are_test(attrs: &[String]) -> bool {
    attrs.iter().any(|a| a.contains("test"))
}

/// The call graph the protocol checker walks from a dispatch arm of
/// `engine`: the engine file's own functions, plus those of every
/// [`FileRole::NodeCore`] file (an engine function shadows a core
/// function of the same name).
pub fn engine_call_graph<'a>(
    ws: &'a Workspace,
    engine: &'a SourceFile,
) -> std::collections::HashMap<&'a str, &'a syn::ItemFn> {
    let mut fns = fn_map(&engine.ast);
    for core in ws.files_with(FileRole::NodeCore) {
        for (name, fun) in fn_map(&core.ast) {
            fns.entry(name).or_insert(fun);
        }
    }
    fns
}

/// All functions of a file keyed by name (first definition wins), for
/// transitive call-following. Test functions are excluded — an audit
/// emission inside a test does not make the runtime path audited.
pub fn fn_map(file: &syn::File) -> std::collections::HashMap<&str, &syn::ItemFn> {
    let mut map = std::collections::HashMap::new();
    walk_fns(&file.items, false, &mut |f, in_test| {
        if !in_test {
            map.entry(f.ident.as_str()).or_insert(f);
        }
    });
    map
}
