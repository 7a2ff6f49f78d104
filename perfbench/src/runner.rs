//! The parent side: one fresh child process per repetition, aggregation
//! over repetitions, and the cross-repetition output checks.
//!
//! A repetition is a child because the resident-set high-water mark never
//! goes down within a process. Children run one at a time; each gets its
//! own spill directory — on `/dev/shm` when that is a tmpfs, because the
//! sandbox's shared disk is noise, not the target hardware — removed here
//! whether the child succeeded, failed or was killed on timeout.

use crate::catalog::{self, WorkloadId, END_TO_END};
use crate::json::{self, Value};
use crate::procfs;
use crate::stats::Summary;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where the benchmark lives and writes, and at what scale it runs.
#[derive(Clone, Debug)]
pub struct Harness {
    /// The binary children are re-executed from.
    pub exe: PathBuf,
    /// `perfbench/out`: results and traces.
    pub out_dir: PathBuf,
    /// Where the per-repetition `perfbench-<pid>-…` spill directories go.
    pub spill_root: PathBuf,
    /// 1, or [`catalog::SMOKE_DIVISOR`] under `--smoke`.
    pub divisor: u64,
}

/// `perfbench/`: where cargo says the manifest is when run through
/// `cargo run`, else where it was at build time.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// The out-of-core workloads keep up to ~0.6 GB spilled at a time; a tmpfs
/// with less room than this (a container's default 64 MB `/dev/shm`) is
/// not used.
const MIN_TMPFS_FREE_MB: f64 = 2048.0;

/// `/dev/shm` when it is a tmpfs with room that this process can write to,
/// else `fallback` (inside the package, never the system's temporary
/// directory).
fn default_spill_root(fallback: PathBuf) -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let probe = shm.join(format!("perfbench-{}-writable", std::process::id()));
    let usable = procfs::fs_type(&shm) == "tmpfs"
        && procfs::available_mb(&shm).is_some_and(|mb| mb >= MIN_TMPFS_FREE_MB)
        && std::fs::create_dir(&probe).is_ok();
    let _ = std::fs::remove_dir(&probe);
    if usable {
        shm
    } else {
        fallback
    }
}

/// Remove the spill directories of benchmark processes that no longer
/// exist (a parent that was killed cannot clean up after its child).
fn remove_stale_spills(spill_root: &Path) {
    let Ok(entries) = std::fs::read_dir(spill_root) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("perfbench-"))
            .and_then(|n| n.split('-').next())
            .and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|p| !Path::new(&format!("/proc/{p}")).exists()) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

impl Harness {
    pub fn new(smoke: bool, spill_override: Option<PathBuf>) -> Result<Harness, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out_dir = manifest_dir().join("out");
        let spill_root =
            spill_override.unwrap_or_else(|| default_spill_root(out_dir.join("spill")));
        for d in [&out_dir, &spill_root] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        remove_stale_spills(&spill_root);
        Ok(Harness {
            exe,
            out_dir,
            spill_root,
            divisor: if smoke { catalog::SMOKE_DIVISOR } else { 1 },
        })
    }

    /// The binary built with the `trace` feature: this one if it has it,
    /// else a sibling built (once; cargo decides freshness afterwards)
    /// into `<target>/trace`, so the two builds never overwrite each
    /// other.
    pub fn traced_exe(&self) -> Result<PathBuf, String> {
        if cfg!(feature = "trace") {
            return Ok(self.exe.clone());
        }
        let target = self
            .exe
            .parent()
            .and_then(Path::parent)
            .ok_or("cannot locate the cargo target directory")?
            .join("trace");
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--features", "trace"])
            .arg("--manifest-path")
            .arg(manifest_dir().join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cargo build --features trace: {e}"))?;
        if !status.success() {
            return Err(format!("cargo build --features trace exited with {status}"));
        }
        Ok(target.join("release").join("perfbench"))
    }
}

/// One repetition as seen from the parent.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Why the repetition counts as failed, if it does.
    pub failure: Option<String>,
    /// The child's report, when it produced one.
    pub report: Option<Value>,
}

impl Rep {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    fn num(&self, section: &str, name: &str) -> Option<f64> {
        self.report.as_ref()?.get(section)?.get(name)?.as_f64()
    }

    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        self.num("end_to_end", name)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.num("layers", name)
    }

    pub fn trace(&self, name: &str) -> Option<f64> {
        self.num("trace", name)
    }

    pub fn digest(&self) -> Option<&str> {
        self.report.as_ref()?.get("digest")?.as_str()
    }

    pub fn elements(&self) -> Option<f64> {
        self.report.as_ref()?.get("elements")?.as_f64()
    }
}

/// What to run in the child.
#[derive(Clone, Debug)]
pub struct RepSpec<'a> {
    pub exe: &'a Path,
    pub workload: WorkloadId,
    pub seed: u64,
    pub rep: u32,
    pub twin: bool,
    /// Record spans and stamp events (needs a `trace`-feature binary for
    /// the product's events), writing the Chrome trace here.
    pub trace_out: Option<PathBuf>,
}

fn drain(mut r: impl Read + Send + 'static) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut s = String::new();
        let _ = r.read_to_string(&mut s);
        s
    })
}

impl Harness {
    /// Run one repetition in a child process and read its report.
    pub fn run_rep(&self, spec: &RepSpec) -> Rep {
        let w = spec.workload;
        let spill = self.spill_root.join(format!(
            "perfbench-{}-{}-{}",
            std::process::id(),
            w.name(),
            spec.rep
        ));
        let mut cmd = Command::new(spec.exe);
        cmd.arg("child")
            .args(["--workload", w.name()])
            .args(["--seed", &spec.seed.to_string()])
            .args(["--rep", &spec.rep.to_string()])
            .args(["--divisor", &self.divisor.to_string()])
            .arg("--spill-dir")
            .arg(&spill);
        if spec.twin {
            cmd.arg("--twin");
        }
        if let Some(p) = &spec.trace_out {
            cmd.arg("--trace-out").arg(p);
        }
        let timeout = Duration::from_secs_f64(w.spec().expected_child_s * catalog::TIMEOUT_FACTOR);
        let outcome = run_with_timeout(cmd, timeout);
        let _ = std::fs::remove_dir_all(&spill);
        match outcome {
            Err(why) => Rep {
                failure: Some(why),
                report: None,
            },
            Ok(stdout) => match stdout.lines().last().map(json::parse) {
                Some(Ok(report)) => {
                    let failure = match report.get("ok").and_then(Value::as_bool) {
                        Some(true) => None,
                        _ => Some(
                            report
                                .get("failure")
                                .and_then(Value::as_str)
                                .unwrap_or("child reported failure")
                                .to_string(),
                        ),
                    };
                    Rep {
                        failure,
                        report: Some(report),
                    }
                }
                _ => Rep {
                    failure: Some("child printed no report".into()),
                    report: None,
                },
            },
        }
    }
}

/// Run `cmd` to completion, or kill it after `timeout`. `Ok` carries its
/// standard output; `Err` says how it failed (with the tail of stderr).
fn run_with_timeout(mut cmd: Command, timeout: Duration) -> Result<String, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let out = drain(child.stdout.take().expect("piped"));
    let err = drain(child.stderr.take().expect("piped"));
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {:.0} s", timeout.as_secs_f64()));
            }
            // Rarely: on a two-core box every wake-up here preempts a worker
            // of the child being measured.
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("wait: {e}"));
            }
        }
    };
    // The pipes close when the child is gone, so these joins end.
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    match status {
        Ok(s) if s.success() => Ok(stdout),
        Ok(s) => {
            let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
            Err(format!(
                "child exited with {s}: {}",
                tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
            ))
        }
        Err(why) => Err(why),
    }
}

/// All repetitions of one workload, checked against each other.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    pub workload: WorkloadId,
    pub reps: Vec<Rep>,
}

impl WorkloadResult {
    pub fn attempted(&self) -> usize {
        self.reps.len()
    }

    pub fn failed(&self) -> usize {
        self.reps.iter().filter(|r| !r.ok()).count()
    }

    fn ok_values(&self, get: impl Fn(&Rep) -> Option<f64>) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| r.ok())
            .filter_map(get)
            .collect()
    }

    pub fn end_to_end(&self, name: &str) -> Option<Summary> {
        Summary::of(&self.ok_values(|r| r.end_to_end(name)))
    }

    pub fn layer(&self, name: &str) -> Option<Summary> {
        Summary::of(&self.ok_values(|r| r.layer(name)))
    }

    pub fn digest(&self) -> Option<&str> {
        self.reps.iter().find(|r| r.ok())?.digest()
    }

    /// Repetitions of one `(workload, seed)` must agree with the first
    /// good one: same digest where the mesh is a function of the input,
    /// element count within tolerance otherwise, and — on the
    /// deterministic virtual-time engine — identical virtual makespan
    /// and counters.
    fn cross_check(&mut self) {
        let w = self.workload;
        let Some(first) = self.reps.iter().find(|r| r.ok()).cloned() else {
            return;
        };
        for r in self.reps.iter_mut().filter(|r| r.ok()) {
            let mut why = None;
            if w.digest_is_deterministic() {
                if r.digest() != first.digest() {
                    why = Some("digest differs between repetitions of one seed".to_string());
                }
            } else if let (Some(a), Some(b)) = (r.elements(), first.elements()) {
                if (a / b - 1.0).abs() > catalog::ELEMENT_TOLERANCE {
                    why = Some(format!("{a} elements against {b} in the first repetition"));
                }
            }
            if w == WorkloadId::PcdmDes8 {
                for exact in EXACT_ON_DES {
                    if r.layer(exact) != first.layer(exact) {
                        why = Some(format!("{exact} is not identical between repetitions"));
                    }
                }
            }
            r.failure = why;
        }
    }
}

impl WorkloadResult {
    /// Every good repetition must have produced the mesh `reference` —
    /// the digest of `whose` run of the same input under an unlimited
    /// budget — did. A missing reference fails them all: a check that
    /// could not be made has not passed.
    pub fn check_digest(&mut self, reference: Option<&str>, whose: &str) {
        for r in self.reps.iter_mut().filter(|r| r.ok()) {
            r.failure = match (r.digest(), reference) {
                (Some(mine), Some(theirs)) if mine == theirs => None,
                (mine, Some(theirs)) => Some(format!(
                    "digest {} differs from {whose}'s {theirs}",
                    mine.unwrap_or("(none)")
                )),
                (_, None) => Some(format!("{whose} produced no digest to compare with")),
            };
        }
    }
}

/// Per-layer numbers that must repeat bit for bit on `pcdm_des8`.
pub const EXACT_ON_DES: [&str; 4] = [
    "des.virtual_s",
    "storage.loads",
    "storage.stores",
    "control.handlers_run",
];

impl Harness {
    /// One untraced repetition from this binary.
    fn run_plain(&self, w: WorkloadId, seed: u64, rep: u32, twin: bool) -> Rep {
        self.run_rep(&RepSpec {
            exe: &self.exe,
            workload: w,
            seed,
            rep,
            twin,
            trace_out: None,
        })
    }

    /// Run `reps` repetitions of `w`, one child at a time.
    pub fn run_workload(&self, w: WorkloadId, seed: u64, reps: u32) -> WorkloadResult {
        let mut result = WorkloadResult {
            workload: w,
            reps: (0..reps)
                .map(|rep| self.run_plain(w, seed, rep, false))
                .collect(),
        };
        result.cross_check();
        result
    }

    /// One repetition of `w` under an unlimited budget: the in-core twin
    /// whose digest the out-of-core repetitions must reproduce.
    pub fn run_twin(&self, w: WorkloadId, seed: u64) -> Rep {
        self.run_plain(w, seed, u32::MAX, true)
    }
}

/// `metric` of the driver's result line.
fn metric_value(value: f64, unit: &str) -> Value {
    let mut m = Value::obj();
    m.set("value", value).set("unit", unit);
    m
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn driver_line(attempted: usize, failed: usize, metrics: Value) -> String {
    let mut line = Value::obj();
    line.set("correct", failed == 0)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    line.render()
}

/// End-to-end medians of `result` as the driver's `metrics` object, or the
/// name of a metric no repetition produced.
pub fn end_to_end_metrics(result: &WorkloadResult) -> Result<Value, String> {
    let mut metrics = Value::obj();
    for m in &END_TO_END {
        let s = result
            .end_to_end(m.name)
            .ok_or_else(|| format!("no good repetition reported {}", m.name))?;
        metrics.set(m.name, metric_value(s.median, m.unit));
    }
    Ok(metrics)
}

/// Per-layer metrics as the driver's `metrics` object: every catalogued
/// name, from `values` (missing names are an error — a metric silently
/// absent would read as "not measured" forever).
pub fn per_layer_metrics(values: &[(String, f64)]) -> Result<Value, String> {
    let mut metrics = Value::obj();
    for m in &catalog::PER_LAYER {
        let v = values
            .iter()
            .find(|(n, _)| n == m.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
        metrics.set(m.name, metric_value(v, m.unit));
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digest: &str, elements: f64, virtual_s: f64) -> Rep {
        let mut layers = Value::obj();
        layers
            .set("des.virtual_s", virtual_s)
            .set("storage.loads", 10.0)
            .set("storage.stores", 20.0)
            .set("control.handlers_run", 30.0);
        let mut e2e = Value::obj();
        e2e.set("wall_s", 4.0 + virtual_s);
        let mut report = Value::obj();
        report
            .set("ok", true)
            .set("digest", digest)
            .set("elements", elements)
            .set("end_to_end", e2e)
            .set("layers", layers);
        Rep {
            failure: None,
            report: Some(report),
        }
    }

    #[test]
    fn a_digest_mismatch_fails_the_later_repetition() {
        let mut r = WorkloadResult {
            workload: WorkloadId::UpdrOoc,
            reps: vec![
                rep("aa", 100.0, 0.0),
                rep("aa", 100.0, 0.0),
                rep("ab", 100.0, 0.0),
            ],
        };
        r.cross_check();
        assert_eq!((r.attempted(), r.failed()), (3, 1));
        assert!(r.reps[2].failure.as_deref().unwrap().contains("digest"));
        // Failed repetitions do not contribute to the medians.
        assert_eq!(r.end_to_end("wall_s").unwrap().n, 2);
    }

    #[test]
    fn a_twin_digest_must_exist_and_match() {
        let result = || WorkloadResult {
            workload: WorkloadId::UpdrOoc,
            reps: vec![rep("aa", 100.0, 0.0), rep("aa", 100.0, 0.0)],
        };
        let mut r = result();
        r.check_digest(Some("aa"), "the twin");
        assert_eq!(r.failed(), 0);
        let mut r = result();
        r.check_digest(Some("ab"), "the twin");
        assert_eq!(r.failed(), 2);
        assert!(r.reps[0].failure.as_deref().unwrap().contains("the twin"));
        // A twin that produced nothing verifies nothing.
        let mut r = result();
        r.check_digest(None, "the twin");
        assert_eq!(r.failed(), 2);
    }

    #[test]
    fn element_drift_beyond_tolerance_fails_and_des_must_be_exact() {
        let mut r = WorkloadResult {
            workload: WorkloadId::NupdrOoc,
            reps: vec![
                rep("", 1000.0, 0.0),
                rep("", 1020.0, 0.0),
                rep("", 1040.0, 0.0),
            ],
        };
        r.cross_check();
        assert_eq!(r.failed(), 1);
        let mut r = WorkloadResult {
            workload: WorkloadId::PcdmDes8,
            reps: vec![
                rep("", 1000.0, 0.85),
                rep("", 1000.0, 0.85),
                rep("", 1000.0, 0.86),
            ],
        };
        r.cross_check();
        assert_eq!(r.failed(), 1);
        assert!(r.reps[2]
            .failure
            .as_deref()
            .unwrap()
            .contains("des.virtual_s"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut metrics = Value::obj();
        metrics.set("wall_s", metric_value(4.25, "s"));
        let line = driver_line(3, 0, metrics);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert!(!line.contains('\n'));
        assert!(per_layer_metrics(&[]).is_err());
    }

    #[test]
    fn only_spill_directories_of_dead_processes_are_swept() {
        let root =
            std::env::temp_dir().join(format!("perfbench-sweep-test-{}", std::process::id()));
        let live = root.join(format!("perfbench-{}-updr_ooc-0", std::process::id()));
        // Above any pid the kernel hands out.
        let dead = root.join("perfbench-4000000000-updr_ooc-0");
        let other = root.join("somebody-elses");
        for d in [&live, &dead, &other] {
            std::fs::create_dir_all(d.join("main")).unwrap();
        }
        remove_stale_spills(&root);
        assert!(live.exists() && other.exists() && !dead.exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_child_that_overruns_is_killed_and_reported() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let t0 = Instant::now();
        let err = run_with_timeout(cmd, Duration::from_millis(50)).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo boom >&2; exit 3"]);
        let err = run_with_timeout(cmd, Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }
}
