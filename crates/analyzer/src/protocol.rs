//! Checker 1: protocol exhaustiveness.
//!
//! * Every `AM_*` wire tag — the threaded engine's control ring and the
//!   `NetMsg` tags of the node core — must have a dispatch arm (the
//!   `NetMsg::decode` match, or the engine's own for its ring). That both
//!   engines handle every message is no longer checked here: they share
//!   one `NetMsg` enum, and the compiler's exhaustive `match` guarantees
//!   it.
//! * Every control-ring dispatch arm and, for every `NetMsg` variant, an
//!   arm of the node core's dispatch must reach an audit-event emission
//!   (`audit_emit!` / `RuntimeEvent`), directly or through functions it
//!   calls, unless the tag or variant is on the no-audit exempt list.
//! * Every integer `NodeStats` counter that is incremented anywhere in
//!   the runtime must surface in the gate summary (`RunStats::summary`
//!   or a helper it calls).
//! * Every record/replay `Decision` variant must be constructed on the
//!   record path **and** matched by a replay arm in the threaded engine
//!   (where its input gateway lives) — a variant recorded but never
//!   replayed (or vice versa) means the gateway silently skips a
//!   nondeterminism source.
//! * Every job-service `JobState` variant must be constructed by some
//!   transition and matched by the supervisor, and every incremented
//!   `ServiceStats` counter must surface in `ServiceStats::summary`.

use crate::model::{engine_call_graph, fn_map, FileRole, Workspace};
use crate::{Check, Violation};
use std::collections::{HashMap, HashSet};
use syn::{Item, Token};

/// Max depth when following calls out of a dispatch arm looking for an
/// audit emission.
const CALL_DEPTH: usize = 6;

pub fn check(
    ws: &Workspace,
    out: &mut Vec<Violation>,
) -> Result<(usize, usize, usize, usize), String> {
    let tags = check_tags(ws, out);
    let counters = check_counters(ws, out);
    let decisions = check_decisions(ws, out);
    let service_states = check_service(ws, out);
    Ok((tags, counters, decisions, service_states))
}

struct Decl {
    file: std::path::PathBuf,
    line: u32,
}

fn check_tags(ws: &Workspace, out: &mut Vec<Violation>) -> usize {
    // The files that speak the wire protocol: the threaded engine (its
    // control ring) and the node core (the `NetMsg` vocabulary).
    let wire = |f: &&crate::SourceFile| {
        f.has_role(FileRole::ThreadedEngine) || f.has_role(FileRole::NodeCore)
    };

    // ---- collect declarations -----------------------------------------
    // tag -> (declaration, declared in the node core)
    let mut tags: HashMap<String, (Decl, bool)> = HashMap::new();
    let mut variants: HashMap<String, Decl> = HashMap::new();
    for f in ws.files.iter().filter(wire) {
        let decl = |line| Decl {
            file: f.path.clone(),
            line,
        };
        collect_consts(&f.ast.items, &mut |c| {
            if c.ident.starts_with("AM_") {
                let in_core = f.has_role(FileRole::NodeCore);
                tags.insert(c.ident.clone(), (decl(c.line), in_core));
            }
        });
        collect_enums(&f.ast.items, &mut |e| {
            if e.ident == ws.net_msg_enum && f.has_role(FileRole::NodeCore) {
                for v in &e.variants {
                    variants.insert(v.ident.clone(), decl(v.line));
                }
            }
        });
    }

    // ---- every tag: a dispatch arm; ring tags: audit reach -------------
    for (tag, (decl, in_core)) in &tags {
        let (dispatched, audited) = scan_arms(ws, ws.files.iter().filter(wire), |body, i| {
            let next = body.get(i + 1).map(|t| t.text.as_str());
            let prev = i.checked_sub(1).and_then(|j| body.get(j));
            let is_arm = body[i].text == *tag
                && (matches!(next, Some("=>") | Some("|")) || prev.is_some_and(|p| p.text == "=="));
            is_arm.then_some(i)
        });
        // A node-core tag only decodes into a `NetMsg`; what handling it
        // must audit is checked per variant below.
        let exempt = *in_core || ws.arms_without_audit.contains(tag);
        if !dispatched {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!("tag {tag} has no dispatch arm"),
            });
        } else if !audited && !exempt {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "no dispatch arm for {tag} reaches an audit emission \
                     (audit_emit!/RuntimeEvent within {CALL_DEPTH} calls)"
                ),
            });
        }
    }

    // ---- every message: an audited arm in the node core ----------------
    for (variant, decl) in &variants {
        let (_, audited) = scan_arms(ws, ws.files_with(FileRole::NodeCore), |body, i| {
            // Look for `NetMsg :: Variant [payload-pattern] =>`.
            if body[i].text != *variant
                || i < 2
                || body[i - 1].text != "::"
                || body[i - 2].text != ws.net_msg_enum
            {
                return None;
            }
            let mut j = i + 1;
            if matches!(body.get(j).map(|t| t.text.as_str()), Some("(") | Some("{")) {
                j = skip_group(body, j);
            }
            (body.get(j).map(|t| t.text.as_str()) == Some("=>")).then_some(j - 1)
        });
        if !audited && !ws.arms_without_audit.contains(variant) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "no dispatch arm for {}::{variant} reaches an audit emission",
                    ws.net_msg_enum
                ),
            });
        }
    }
    tags.len()
}

/// Scan `files` for match arms. `pattern_end(body, i)` says whether the
/// token at `i` starts an arm of interest and, if so, where its pattern
/// ends. Returns whether any such arm exists and whether any reaches an
/// audit emission.
fn scan_arms<'a>(
    ws: &'a Workspace,
    files: impl Iterator<Item = &'a crate::SourceFile>,
    pattern_end: impl Fn(&[Token], usize) -> Option<usize>,
) -> (bool, bool) {
    let (mut found, mut audited) = (false, false);
    for f in files {
        let reach = engine_call_graph(ws, f);
        for fun in fn_map(&f.ast).values() {
            for i in 0..fun.body.len() {
                let Some(end) = pattern_end(&fun.body, i) else {
                    continue;
                };
                found = true;
                audited |= arm_tokens(&fun.body, end).is_some_and(|arm| {
                    arm_reaches_audit(arm, &reach, CALL_DEPTH, &mut HashSet::new())
                });
            }
        }
    }
    (found, audited)
}

/// Tokens of the match arm whose `=>` follows position `i` (the last
/// pattern token): either the following brace group or everything up to
/// the arm-terminating comma.
fn arm_tokens(body: &[Token], i: usize) -> Option<&[Token]> {
    let mut j = i + 1;
    // Skip a leading `|`-chain to the `=>`.
    while j < body.len() && body[j].text != "=>" {
        if body[j].text == "(" || body[j].text == "{" || body[j].text == "[" {
            j = skip_group(body, j);
        } else {
            j += 1;
        }
        if j > i + 16 {
            return None; // not actually an arm
        }
    }
    if j >= body.len() {
        return None;
    }
    j += 1; // past =>
    let start = j;
    if body.get(j).map(|t| t.text.as_str()) == Some("{") {
        let end = skip_group(body, j);
        return Some(&body[start..end]);
    }
    let mut depth = 0usize;
    while j < body.len() {
        match body[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    Some(&body[start..j])
}

/// Index just past a balanced bracket group opening at `open`.
fn skip_group(body: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < body.len() {
        match body[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    body.len()
}

fn tokens_have_audit(toks: &[Token]) -> bool {
    toks.iter()
        .any(|t| t.text == "audit_emit" || t.text == "RuntimeEvent")
}

/// Does this arm emit an audit event, directly or via functions it
/// calls (the engine's call graph, up to `depth` levels)?
fn arm_reaches_audit<'a>(
    toks: &'a [Token],
    fns: &HashMap<&str, &'a syn::ItemFn>,
    depth: usize,
    seen: &mut HashSet<&'a str>,
) -> bool {
    if tokens_have_audit(toks) {
        return true;
    }
    if depth == 0 {
        return false;
    }
    for (i, t) in toks.iter().enumerate() {
        // A call: `name (` not preceded by `fn` (definition).
        if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
            continue;
        }
        let Some(callee) = fns.get(t.text.as_str()) else {
            continue;
        };
        if !seen.insert(t.text.as_str()) {
            continue;
        }
        if arm_reaches_audit(&callee.body, fns, depth - 1, seen) {
            return true;
        }
    }
    false
}

// ---- record/replay decision exhaustiveness -----------------------------

/// How one `Decision::Variant` occurrence is used.
#[derive(Clone, Copy, PartialEq)]
enum DecisionUse {
    /// Expression context — the record path builds the value.
    Construction,
    /// Pattern context — a replay match arm consumes it.
    Arm,
}

/// Classify the occurrence whose variant ident sits at `i`: skip an
/// optional payload group (`{ .. }` / `( .. )`), then any closing
/// parens from wrappers like `Some(Decision::V { .. })`; an arm follows
/// with `=>`, an or-pattern `|`, or a match guard `if`.
fn classify_decision_use(body: &[Token], i: usize) -> DecisionUse {
    let mut j = i + 1;
    if matches!(body.get(j).map(|t| t.text.as_str()), Some("(") | Some("{")) {
        j = skip_group(body, j);
    }
    while body.get(j).map(|t| t.text.as_str()) == Some(")") {
        j += 1;
    }
    match body.get(j).map(|t| t.text.as_str()) {
        Some("=>") | Some("|") | Some("if") => DecisionUse::Arm,
        _ => DecisionUse::Construction,
    }
}

fn check_decisions(ws: &Workspace, out: &mut Vec<Violation>) -> usize {
    let mut decisions: HashMap<String, Decl> = HashMap::new();
    for f in ws.files_with(FileRole::Replay) {
        collect_enums(&f.ast.items, &mut |e| {
            if e.ident == ws.decision_enum {
                for v in &e.variants {
                    decisions.insert(
                        v.ident.clone(),
                        Decl {
                            file: f.path.clone(),
                            line: v.line,
                        },
                    );
                }
            }
        });
    }

    let mut constructed: HashSet<String> = HashSet::new();
    let mut matched: HashSet<String> = HashSet::new();
    for f in ws.files_with(FileRole::ThreadedEngine) {
        crate::model::walk_fns(&f.ast.items, false, &mut |fun, in_test| {
            if in_test {
                return;
            }
            for (i, t) in fun.body.iter().enumerate() {
                if !decisions.contains_key(&t.text)
                    || i < 2
                    || fun.body[i - 1].text != "::"
                    || fun.body[i - 2].text != ws.decision_enum
                {
                    continue;
                }
                match classify_decision_use(&fun.body, i) {
                    DecisionUse::Construction => constructed.insert(t.text.clone()),
                    DecisionUse::Arm => matched.insert(t.text.clone()),
                };
            }
        });
    }

    for (variant, decl) in &decisions {
        if !constructed.contains(variant.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "{}::{variant} is never constructed on the record path of \
                     the threaded engine",
                    ws.decision_enum
                ),
            });
        }
        if !matched.contains(variant.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "{}::{variant} has no replay match arm in the threaded engine",
                    ws.decision_enum
                ),
            });
        }
    }
    decisions.len()
}

// ---- job-service state machine -----------------------------------------

/// Exhaustiveness of the job-service state machine: every `JobState`
/// variant must be constructed by some transition **and** consumed by a
/// match arm in the supervisor (a state nobody can enter, or one the
/// scheduler cannot react to, is a liveness hole — a job parked there
/// would block the queue forever). Additionally, every integer
/// `ServiceStats` counter incremented in the service must surface in
/// `ServiceStats::summary` — the same discipline `check_counters`
/// enforces for the per-run scope.
fn check_service(ws: &Workspace, out: &mut Vec<Violation>) -> usize {
    let mut states: HashMap<String, Decl> = HashMap::new();
    for f in ws.files_with(FileRole::Service) {
        collect_enums(&f.ast.items, &mut |e| {
            if e.ident == ws.service_state_enum {
                for v in &e.variants {
                    states.insert(
                        v.ident.clone(),
                        Decl {
                            file: f.path.clone(),
                            line: v.line,
                        },
                    );
                }
            }
        });
    }

    let mut constructed: HashSet<String> = HashSet::new();
    let mut matched: HashSet<String> = HashSet::new();
    for f in ws.files_with(FileRole::Service) {
        crate::model::walk_fns(&f.ast.items, false, &mut |fun, in_test| {
            if in_test {
                return;
            }
            for (i, t) in fun.body.iter().enumerate() {
                if !states.contains_key(&t.text)
                    || i < 2
                    || fun.body[i - 1].text != "::"
                    || fun.body[i - 2].text != ws.service_state_enum
                {
                    continue;
                }
                match classify_decision_use(&fun.body, i) {
                    DecisionUse::Construction => constructed.insert(t.text.clone()),
                    DecisionUse::Arm => matched.insert(t.text.clone()),
                };
            }
        });
    }

    for (variant, decl) in &states {
        if !constructed.contains(variant.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "{}::{variant} is never constructed by any service transition \
                     (unreachable state)",
                    ws.service_state_enum
                ),
            });
        }
        if !matched.contains(variant.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "{}::{variant} has no match arm in the service supervisor \
                     (a job in this state would be unschedulable)",
                    ws.service_state_enum
                ),
            });
        }
    }

    // Service-level counters: incremented ⇒ surfaced by the summary.
    let mut counters: Vec<(String, Decl)> = Vec::new();
    for f in ws.files_with(FileRole::Service) {
        collect_structs(&f.ast.items, &mut |s| {
            if s.ident == ws.service_stats_struct {
                for field in &s.fields {
                    if matches!(field.ty.as_str(), "u64" | "u32" | "usize" | "u128") {
                        counters.push((
                            field.ident.clone(),
                            Decl {
                                file: f.path.clone(),
                                line: field.line,
                            },
                        ));
                    }
                }
            }
        });
    }
    let mut incremented: HashSet<String> = HashSet::new();
    let mut summary_tokens: Vec<String> = Vec::new();
    for f in ws.files_with(FileRole::Service) {
        crate::model::walk_fns(&f.ast.items, false, &mut |fun, in_test| {
            if in_test {
                return;
            }
            for (i, t) in fun.body.iter().enumerate() {
                if t.text == "+="
                    && i >= 2
                    && fun.body[i - 2].text == "."
                    && counters.iter().any(|(c, _)| *c == fun.body[i - 1].text)
                {
                    incremented.insert(fun.body[i - 1].text.clone());
                }
            }
        });
        for item in &f.ast.items {
            let Item::Impl(im) = item else { continue };
            if im.self_ty != ws.service_stats_struct {
                continue;
            }
            let mut impl_fns: HashMap<&str, &syn::ItemFn> = HashMap::new();
            for it in &im.items {
                if let Item::Fn(fun) = it {
                    impl_fns.insert(fun.ident.as_str(), fun);
                }
            }
            let Some(summary) = impl_fns.get("summary") else {
                continue;
            };
            let mut queue = vec![*summary];
            let mut seen: HashSet<&str> = HashSet::new();
            seen.insert("summary");
            while let Some(fun) = queue.pop() {
                for (i, t) in fun.body.iter().enumerate() {
                    summary_tokens.push(t.text.clone());
                    if fun.body.get(i + 1).map(|n| n.text.as_str()) == Some("(") {
                        if let Some(callee) = impl_fns.get(t.text.as_str()) {
                            if seen.insert(t.text.as_str()) {
                                queue.push(callee);
                            }
                        }
                    }
                }
            }
        }
    }
    let summary_set: HashSet<&str> = summary_tokens.iter().map(|s| s.as_str()).collect();
    for (name, decl) in &counters {
        if incremented.contains(name.as_str()) && !summary_set.contains(name.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "service counter `{name}` is incremented but never surfaced by \
                     {}::summary (or a helper it calls)",
                    ws.service_stats_struct
                ),
            });
        }
    }
    states.len()
}

// ---- counter reporting -------------------------------------------------

fn check_counters(ws: &Workspace, out: &mut Vec<Violation>) -> usize {
    // Integer fields of the counter struct.
    let mut counters: Vec<(String, Decl)> = Vec::new();
    for f in ws.files_with(FileRole::Stats) {
        collect_structs(&f.ast.items, &mut |s| {
            if s.ident == ws.stats_struct {
                for field in &s.fields {
                    if matches!(field.ty.as_str(), "u64" | "u32" | "usize" | "u128") {
                        counters.push((
                            field.ident.clone(),
                            Decl {
                                file: f.path.clone(),
                                line: field.line,
                            },
                        ));
                    }
                }
            }
        });
    }

    // Incremented anywhere in the runtime? (`.field +=`)
    let mut incremented: HashSet<String> = HashSet::new();
    for f in ws
        .files
        .iter()
        .filter(|f| f.has_role(FileRole::CounterScan) || f.has_role(FileRole::ThreadedEngine))
    {
        crate::model::walk_fns(&f.ast.items, false, &mut |fun, in_test| {
            if in_test {
                return;
            }
            for (i, t) in fun.body.iter().enumerate() {
                if t.text == "+="
                    && i >= 2
                    && fun.body[i - 2].text == "."
                    && counters.iter().any(|(c, _)| *c == fun.body[i - 1].text)
                {
                    incremented.insert(fun.body[i - 1].text.clone());
                }
            }
        });
    }

    // Reported in the gate summary (summary + helpers it calls)?
    let mut summary_tokens: Vec<String> = Vec::new();
    for f in ws.files_with(FileRole::Stats) {
        for item in &f.ast.items {
            let Item::Impl(im) = item else { continue };
            if im.self_ty != ws.summary_impl {
                continue;
            }
            let mut impl_fns: HashMap<&str, &syn::ItemFn> = HashMap::new();
            for it in &im.items {
                if let Item::Fn(fun) = it {
                    impl_fns.insert(fun.ident.as_str(), fun);
                }
            }
            let Some(summary) = impl_fns.get("summary") else {
                continue;
            };
            // Breadth-first closure over same-impl helper calls.
            let mut queue = vec![*summary];
            let mut seen: HashSet<&str> = HashSet::new();
            seen.insert("summary");
            while let Some(fun) = queue.pop() {
                for (i, t) in fun.body.iter().enumerate() {
                    summary_tokens.push(t.text.clone());
                    if fun.body.get(i + 1).map(|n| n.text.as_str()) == Some("(") {
                        if let Some(callee) = impl_fns.get(t.text.as_str()) {
                            if seen.insert(t.text.as_str()) {
                                queue.push(callee);
                            }
                        }
                    }
                }
            }
        }
    }
    let summary_set: HashSet<&str> = summary_tokens.iter().map(|s| s.as_str()).collect();

    for (name, decl) in &counters {
        if !incremented.contains(name.as_str()) {
            continue; // dead counters are clippy's problem, not ours
        }
        if !summary_set.contains(name.as_str()) {
            out.push(Violation {
                check: Check::Protocol,
                file: decl.file.clone(),
                line: decl.line,
                msg: format!(
                    "counter `{name}` is incremented but never surfaced by \
                     {}::summary (or a helper it calls)",
                    ws.summary_impl
                ),
            });
        }
    }
    counters.len()
}

// ---- item collectors ---------------------------------------------------

fn collect_consts(items: &[Item], f: &mut impl FnMut(&syn::ItemConst)) {
    for item in items {
        match item {
            Item::Const(c) => f(c),
            Item::Impl(im) => collect_consts(&im.items, f),
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    if !crate::model::attrs_are_test(&m.attrs) {
                        collect_consts(content, f);
                    }
                }
            }
            _ => {}
        }
    }
}

fn collect_enums(items: &[Item], f: &mut impl FnMut(&syn::ItemEnum)) {
    for item in items {
        match item {
            Item::Enum(e) => f(e),
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    if !crate::model::attrs_are_test(&m.attrs) {
                        collect_enums(content, f);
                    }
                }
            }
            _ => {}
        }
    }
}

fn collect_structs(items: &[Item], f: &mut impl FnMut(&syn::ItemStruct)) {
    for item in items {
        match item {
            Item::Struct(s) => f(s),
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    if !crate::model::attrs_are_test(&m.attrs) {
                        collect_structs(content, f);
                    }
                }
            }
            _ => {}
        }
    }
}
