//! The commands: the driver's single-workload mode, `run`, `probes`,
//! `trace` and `selfcheck`.

use crate::catalog::{self, Better, Source, WorkloadId, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::probes::{self, ProbeBudget};
use crate::procfs;
use crate::runner::{
    self, driver_line, end_to_end_metrics, per_layer_metrics, Harness, Rep, RepSpec,
    WorkloadResult, EXACT_ON_DES,
};
use crate::stats::Summary;
use std::path::{Path, PathBuf};

/// Fewest repetitions a driver invocation reports a median over.
const DRIVER_MIN_REPS: u32 = 3;

/// Repetitions whose timed windows add up to `seconds` at full scale.
fn driver_reps(seconds: f64) -> u32 {
    ((seconds / catalog::MIN_WINDOW_S).ceil() as u32).max(DRIVER_MIN_REPS)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_summary_row(name: &str, s: &Summary) {
    println!(
        "  {name:<38} {:>8} median {:>14.6} q1 {:>14.6} q3 {:>14.6} min {:>14.6} max {:>14.6} n {} spread {:>5.2}%",
        unit_of(name),
        s.median,
        s.q1,
        s.q3,
        s.min,
        s.max,
        s.n,
        100.0 * s.spread()
    );
}

fn summary_json(s: &Summary, unit: &str) -> Value {
    let mut o = Value::obj();
    o.set("unit", unit)
        .set("median", s.median)
        .set("q1", s.q1)
        .set("q3", s.q3)
        .set("min", s.min)
        .set("max", s.max)
        .set("n", s.n)
        .set("spread", s.spread());
    o
}

// ----- probes and the traced run ----------------------------------------------------

/// Run the probes in this (untraced) process, in a scratch directory that
/// is removed afterwards.
fn run_probes(h: &Harness, budget: ProbeBudget) -> Result<Vec<(String, f64)>, String> {
    let scratch = h
        .spill_root
        .join(format!("perfbench-{}-probes", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let values = probes::run_all(budget, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(values
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect())
}

/// `probes`: run them at the scale's budget, print each, and return them
/// as a JSON object for `result.json`.
pub fn probes_cmd(h: &Harness) -> Result<Value, String> {
    let budget = if h.divisor > 1 {
        ProbeBudget::SMOKE
    } else {
        ProbeBudget::FULL
    };
    println!(
        "probes (median of {} loops of {} s)",
        budget.reps, budget.loop_s
    );
    let mut json = Value::obj();
    for (name, v) in run_probes(h, budget)? {
        println!("  {name:<40} {:>8} {v:>16.4}", unit_of(&name));
        json.set(&name, v);
    }
    Ok(json)
}

/// One untraced and one traced repetition of `w`: the untraced one gives
/// the run counters (and the wall time the overhead is relative to), the
/// traced one the `trace.*` metrics and the trace file.
struct TracedPair {
    untraced: Rep,
    traced: Rep,
    trace_file: PathBuf,
}

impl TracedPair {
    fn failed(&self) -> usize {
        usize::from(!self.untraced.ok()) + usize::from(!self.traced.ok())
    }

    /// Every counter-, harness- and trace-sourced per-layer value.
    fn layer_values(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.source, Source::Counter | Source::Harness))
        {
            if let Some(v) = self.untraced.layer(m.name) {
                out.push((m.name.to_string(), v));
            }
        }
        let wall = |r: &Rep| r.end_to_end("wall_s");
        if let (Some(t), Some(u)) = (wall(&self.traced), wall(&self.untraced)) {
            out.push(("trace.overhead_pct".into(), 100.0 * (t / u - 1.0)));
        }
        for key in [
            "spans",
            "msg_wait_us_p50",
            "msg_wait_us_p95",
            "load_latency_us_p50",
            "load_latency_us_p95",
        ] {
            if let Some(v) = self.traced.trace(key) {
                out.push((format!("trace.{key}"), v));
            }
        }
        out
    }
}

fn run_traced_pair(h: &Harness, traced_exe: &Path, w: WorkloadId, seed: u64) -> TracedPair {
    let untraced = h.run_rep(&RepSpec {
        exe: &h.exe,
        workload: w,
        seed,
        rep: 0,
        twin: false,
        trace_out: None,
    });
    let trace_file = h.out_dir.join(format!("trace-{}.json", w.name()));
    let traced = h.run_rep(&RepSpec {
        exe: traced_exe,
        workload: w,
        seed,
        rep: 1,
        twin: false,
        trace_out: Some(trace_file.clone()),
    });
    TracedPair {
        untraced,
        traced,
        trace_file,
    }
}

/// Run the probes once with span recording on and write their spans next
/// to the workloads' trace files.
fn trace_probes(h: &Harness) -> Result<PathBuf, String> {
    crate::trace::enable();
    run_probes(h, ProbeBudget::BRIEF)?;
    let spans = crate::trace::snapshot();
    let doc = crate::trace::chrome_trace("probes", &spans, &Default::default());
    let path = h.out_dir.join("trace-probes.json");
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One traced pair per workload: print the `trace.*` metrics and return
/// them (with the trace file paths) as JSON, plus the number of failed
/// repetitions.
fn trace_workloads(h: &Harness, seed: u64) -> Result<(Value, usize), String> {
    let traced_exe = h.traced_exe()?;
    let mut json = Value::obj();
    let mut failed = 0;
    for w in WorkloadId::ALL {
        let pair = run_traced_pair(h, &traced_exe, w, seed);
        println!("{} -> {}", w.name(), pair.trace_file.display());
        let mut o = Value::obj();
        o.set("file", pair.trace_file.display().to_string());
        for (name, v) in pair.layer_values() {
            if name.starts_with("trace.") {
                println!("  {name:<40} {:>8} {v:>16.4}", unit_of(&name));
                o.set(&name, v);
            }
        }
        for r in [&pair.untraced, &pair.traced] {
            if let Some(why) = &r.failure {
                println!("  FAILED: {why}");
            }
        }
        failed += pair.failed();
        json.set(w.name(), o);
    }
    Ok((json, failed))
}

pub fn trace_cmd(h: &Harness, seed: u64) -> Result<(), String> {
    println!("probes -> {}", trace_probes(h)?.display());
    match trace_workloads(h, seed)? {
        (_, 0) => Ok(()),
        (_, failed) => Err(format!("{failed} repetition(s) failed")),
    }
}

// ----- the driver's mode --------------------------------------------------------------

pub struct DriverArgs {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One workload, one seed: print the contract's result line last. Human
/// detail goes to standard error so the result line is easy to find.
pub fn driver_cmd(h: &Harness, a: &DriverArgs) -> Result<(), String> {
    let w = a.workload;
    if !a.trace {
        let mut result = h.run_workload(w, a.seed, driver_reps(a.seconds));
        // Where the mesh is a function of the input, the full-scale
        // out-of-core result must be the mesh an unlimited budget gives.
        let twin = (w.out_of_core() && w.digest_is_deterministic()).then(|| {
            let twin = h.run_twin(w, a.seed);
            let digest = twin.digest().filter(|_| twin.ok());
            result.check_digest(digest, "the unlimited-budget twin");
            twin
        });
        for r in result.reps.iter().chain(&twin) {
            if let Some(why) = &r.failure {
                eprintln!("{}: repetition failed: {why}", w.name());
            }
        }
        let twin_failed = twin.iter().filter(|t| !t.ok()).count();
        let metrics = end_to_end_metrics(&result)?;
        println!(
            "{}",
            driver_line(
                result.attempted() + twin.iter().count(),
                result.failed() + twin_failed,
                metrics
            )
        );
        return Ok(());
    }
    let pair = run_traced_pair(h, &h.traced_exe()?, w, a.seed);
    for r in [&pair.untraced, &pair.traced] {
        if let Some(why) = &r.failure {
            eprintln!("{}: repetition failed: {why}", w.name());
        }
    }
    let mut values = pair.layer_values();
    values.extend(run_probes(h, ProbeBudget::BRIEF)?);
    let metrics = per_layer_metrics(&values)?;
    println!("{}", driver_line(2, pair.failed(), metrics));
    Ok(())
}

// ----- run ------------------------------------------------------------------------------

pub struct RunArgs {
    pub seed: u64,
    pub reps: u32,
}

/// One complete set: every workload, `reps` repetitions each. `updr_ooc`
/// must produce the mesh `updr_incore`, its unlimited-budget twin, produced
/// for the same seed.
fn run_set(h: &Harness, a: &RunArgs, label: &str) -> Vec<WorkloadResult> {
    let mut set: Vec<WorkloadResult> = WorkloadId::ALL
        .iter()
        .map(|&w| {
            eprintln!("[{label}] {} x{}", w.name(), a.reps);
            h.run_workload(w, a.seed, a.reps)
        })
        .collect();
    let incore = by_id(&set, WorkloadId::UpdrIncore)
        .digest()
        .map(str::to_string);
    set.iter_mut()
        .find(|r| r.workload == WorkloadId::UpdrOoc)
        .expect("a set holds every workload")
        .check_digest(incore.as_deref(), "updr_incore");
    set
}

fn by_id(set: &[WorkloadResult], w: WorkloadId) -> &WorkloadResult {
    set.iter()
        .find(|r| r.workload == w)
        .expect("a set holds every workload")
}

fn derived(set: &[WorkloadResult]) -> Vec<(&'static str, &'static str, f64)> {
    let wall = |w: WorkloadId| by_id(set, w).end_to_end("wall_s").map(|s| s.median);
    let mut out = Vec::new();
    if let (Some(ooc), Some(incore)) = (wall(WorkloadId::UpdrOoc), wall(WorkloadId::UpdrIncore)) {
        // Paper: OUPDR costs at most 12 % over the in-core run.
        out.push(("updr_ooc_overhead_pct", "%", 100.0 * (ooc / incore - 1.0)));
    }
    if let Some(v) = by_id(set, WorkloadId::PcdmDes8)
        .layer("des.virtual_s")
        .map(|s| s.median)
    {
        out.push(("pcdm_des8.des_virtual_s", "s", v));
    }
    out
}

fn print_set(set: &[WorkloadResult]) {
    for r in set {
        let w = r.workload;
        println!(
            "\n{}  failed/attempted = {}/{}",
            w.name(),
            r.failed(),
            r.attempted()
        );
        for rep in &r.reps {
            if let Some(why) = &rep.failure {
                println!("  FAILED: {why}");
            }
        }
        for m in &END_TO_END {
            if let Some(s) = r.end_to_end(m.name) {
                print_summary_row(m.name, &s);
            }
        }
        // The paper's Speed = S / (T · N), per workload.
        let nodes = r
            .reps
            .iter()
            .find_map(|x| x.report.as_ref()?.get("nodes")?.as_f64());
        if let (Some(eps), Some(n)) = (r.layer("methods.elements_per_s"), nodes) {
            println!(
                "  {:<38} {:>8} median {:>14.1}",
                "elements_per_s_per_pe",
                "1/s",
                eps.median / n
            );
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| matches!(m.source, Source::Counter | Source::Harness))
        {
            if let Some(s) = r.layer(m.name) {
                print_summary_row(m.name, &s);
            }
        }
    }
    println!();
    for (name, unit, v) in derived(set) {
        println!("derived {name:<34} {unit:>6} {v:>14.6}");
    }
}

fn set_json(set: &[WorkloadResult]) -> Value {
    let mut out = Value::obj();
    for r in set {
        let mut o = Value::obj();
        o.set("attempted", r.attempted())
            .set("failed", r.failed())
            .set("digest", r.digest().unwrap_or(""));
        let failures: Vec<Value> = r
            .reps
            .iter()
            .filter_map(|x| x.failure.as_deref().map(Value::from))
            .collect();
        o.set("failures", failures);
        let mut e2e = Value::obj();
        for m in &END_TO_END {
            if let Some(s) = r.end_to_end(m.name) {
                e2e.set(m.name, summary_json(&s, m.unit));
            }
        }
        o.set("end_to_end", e2e);
        let mut layers = Value::obj();
        for m in &PER_LAYER {
            if let Some(s) = r.layer(m.name) {
                layers.set(m.name, summary_json(&s, m.unit));
            }
        }
        o.set("per_layer", layers);
        out.set(r.workload.name(), o);
    }
    out
}

/// `run`: every workload, the probes, and one traced repetition of each
/// workload; prints every metric by name and writes `out/result.json`.
pub fn run_cmd(h: &Harness, a: &RunArgs) -> Result<(), String> {
    let set = run_set(h, a, "run");
    print_set(&set);
    let mut failed: usize = set.iter().map(WorkloadResult::failed).sum();

    println!();
    let probes_json = probes_cmd(h)?;
    println!("\ntraced run (one untraced and one traced repetition per workload)");
    let (trace_json, trace_failed) = trace_workloads(h, a.seed)?;
    failed += trace_failed;

    let mut env = procfs::environment(&h.spill_root);
    env.set("scale_divisor", h.divisor)
        .set("seed", a.seed.to_string())
        .set("reps", u64::from(a.reps));
    let mut derived_json = Value::obj();
    for (name, _, v) in derived(&set) {
        derived_json.set(name, v);
    }
    // What each per-layer number is expected to move: the interaction
    // table, kept with the numbers it explains.
    let mut expectations = Value::obj();
    for m in &PER_LAYER {
        let mut o = Value::obj();
        o.set("layer", m.layer)
            .set("better", m.better.as_str())
            .set("should_move", m.moves)
            .set("on", m.on);
        expectations.set(m.name, o);
    }
    let mut doc = Value::obj();
    doc.set("environment", env)
        .set("expectations", expectations)
        .set("workloads", set_json(&set))
        .set("derived", derived_json)
        .set("probes", probes_json)
        .set("trace", trace_json);
    let path = h.out_dir.join("result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if failed > 0 {
        return Err(format!("{failed} failure(s)"));
    }
    Ok(())
}

// ----- selfcheck -------------------------------------------------------------------------

/// Compare the committed `BENCHMARK.json` with the compiled-in catalog.
pub fn check_benchmark_json() -> Result<(), String> {
    catalog::check_invariants()?;
    let path = runner::manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    catalog::check_against(&json::parse(&text)?)
}

/// Relative change of `b` against `a`, positive when `b` is worse.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    }
}

/// `selfcheck`: two complete sets of the same binary must agree within
/// every bound, the deterministic numbers exactly, and the out-of-core
/// digests must equal their unlimited-budget twins'.
pub fn selfcheck_cmd(h: &Harness, a: &RunArgs) -> Result<(), String> {
    check_benchmark_json()?;
    println!("catalog: invariants hold and BENCHMARK.json matches");
    // At smoke scale windows last milliseconds: bounds are printed, not
    // enforced. Output and exactness checks always are.
    let enforce_bounds = h.divisor == 1;
    let mut first = run_set(h, a, "set 1");
    let mut second = run_set(h, a, "set 2");
    // `updr_incore` is the twin of `updr_ooc`; the sweep needs its own.
    let twin = h.run_twin(WorkloadId::SweepReadmostly, a.seed);
    let twin_digest = twin.digest().filter(|_| twin.ok());
    println!("sweep_readmostly unlimited-budget twin digest {twin_digest:?}");
    for set in [&mut first, &mut second] {
        set.iter_mut()
            .find(|r| r.workload == WorkloadId::SweepReadmostly)
            .expect("a set holds every workload")
            .check_digest(twin_digest, "the unlimited-budget twin");
    }
    let mut problems: Vec<String> = Vec::new();
    if let Some(why) = &twin.failure {
        problems.push(format!("sweep twin failed: {why}"));
    }

    println!(
        "\n{:<18} {:<12} {:>12} {:>12} {:>9} {:>8} {:>8} {:>7}",
        "workload", "metric", "set 1", "set 2", "change", "spread1", "spread2", "bound"
    );
    for w in WorkloadId::ALL {
        let (r1, r2) = (by_id(&first, w), by_id(&second, w));
        for why in [r1, r2]
            .iter()
            .flat_map(|r| r.reps.iter().filter_map(|x| x.failure.as_deref()))
        {
            problems.push(format!("{}: repetition failed: {why}", w.name()));
        }
        for m in &END_TO_END {
            let (Some(s1), Some(s2)) = (r1.end_to_end(m.name), r2.end_to_end(m.name)) else {
                problems.push(format!("{} {}: not measured", w.name(), m.name));
                continue;
            };
            let (v1, v2) = (s1.median, s2.median);
            let change = worsening(v1, v2, m.better);
            println!(
                "{:<18} {:<12} {:>12.4} {:>12.4} {:>+8.2}% {:>7.2}% {:>7.2}% {:>6.1}%",
                w.name(),
                m.name,
                v1,
                v2,
                100.0 * change,
                100.0 * s1.spread(),
                100.0 * s2.spread(),
                100.0 * m.bound
            );
            if enforce_bounds && change.abs() > m.bound {
                problems.push(format!(
                    "{} {}: sets differ by {:+.2}% (bound {:.1}%)",
                    w.name(),
                    m.name,
                    100.0 * change,
                    100.0 * m.bound
                ));
            }
        }
    }
    let (d1, d2) = (
        by_id(&first, WorkloadId::PcdmDes8),
        by_id(&second, WorkloadId::PcdmDes8),
    );
    for name in EXACT_ON_DES {
        let (v1, v2) = (
            d1.layer(name).map(|s| s.median),
            d2.layer(name).map(|s| s.median),
        );
        println!("pcdm_des8 {name}: {v1:?} / {v2:?}");
        if v1 != v2 || v1.is_none() {
            problems.push(format!("pcdm_des8 {name} is not identical between sets"));
        }
    }

    if problems.is_empty() {
        println!(
            "\nselfcheck passed{}",
            if enforce_bounds {
                ""
            } else {
                " (smoke scale: bounds not enforced)"
            }
        );
        return Ok(());
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Err(format!("{} problem(s)", problems.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(4.0, 4.4, Better::Lower) - 0.1).abs() < 1e-12);
        assert!(worsening(4.0, 3.6, Better::Lower) < 0.0);
        assert!(worsening(100.0, 80.0, Better::Higher) > 0.0);
    }

    #[test]
    fn every_metric_has_a_unit() {
        for m in &PER_LAYER {
            assert_eq!(unit_of(m.name), m.unit);
        }
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("nope"), "");
    }
}
