//! `perfbench` — the layered performance benchmark of MRTS and the PUMG
//! kernels. See `README.md` for the metric glossary and how to read the
//! output; `catalog.rs` for what is measured and why.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one workload, result line last
//! perfbench run       [--seed N] [--reps N] [--smoke]       everything; writes out/result.json
//! perfbench probes    [--smoke]                             the per-layer probes only
//! perfbench trace     [--seed N] [--smoke]                  one traced repetition per workload
//! perfbench selfcheck [--seed N] [--reps N] [--smoke]       two sets must agree within the bounds
//! perfbench check-catalog                                   BENCHMARK.json must match catalog.rs
//! ```
//! `--spill-dir D` moves the spill directories (default: `/dev/shm` when it
//! is a tmpfs, else `perfbench/out/spill`).

mod catalog;
mod counters;
mod inputs;
mod json;
mod modes;
mod probes;
mod procfs;
mod runner;
mod stats;
mod sweep;
mod trace;
mod workloads;

use catalog::WorkloadId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command line: an optional leading command word, then `--flag value`
/// pairs and bare `--switch`es.
struct Args {
    command: Option<String>,
    flags: HashMap<String, String>,
}

const SWITCHES: [&str; 2] = ["--smoke", "--twin"];

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut command = None;
        let mut flags = HashMap::new();
        while let Some(a) = argv.next() {
            if !a.starts_with("--") {
                if command.is_some() || !flags.is_empty() {
                    return Err(format!("unexpected argument {a:?}"));
                }
                command = Some(a);
            } else if SWITCHES.contains(&a.as_str()) {
                flags.insert(a, String::new());
            } else {
                let v = argv.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a, v);
            }
        }
        Ok(Args { command, flags })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flags
            .get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?.ok_or_else(|| format!("{flag} is required"))
    }

    fn workload(&self) -> Result<WorkloadId, String> {
        let name: String = self.require("--workload")?;
        WorkloadId::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn child(args: &Args, started: Instant) -> Result<(), String> {
    let opts = workloads::RepOptions {
        workload: args.workload()?,
        seed: args.require("--seed")?,
        rep: args.get("--rep")?.unwrap_or(0),
        divisor: args.get("--divisor")?.unwrap_or(1),
        spill_dir: args.require::<PathBuf>("--spill-dir")?,
        twin: args.has("--twin"),
        trace_out: args.get::<PathBuf>("--trace-out")?,
    };
    if opts.trace_out.is_some() {
        trace::enable();
    }
    println!("{}", workloads::run_rep(&opts, started).render());
    Ok(())
}

fn dispatch(args: &Args, started: Instant) -> Result<(), String> {
    let harness = || runner::Harness::new(args.has("--smoke"), args.get("--spill-dir")?);
    let run_args = || -> Result<modes::RunArgs, String> {
        Ok(modes::RunArgs {
            seed: args.get("--seed")?.unwrap_or(1),
            reps: args.get::<u32>("--reps")?.unwrap_or(5).max(1),
        })
    };
    match args.command.as_deref() {
        Some("child") => child(args, started),
        Some("run") => modes::run_cmd(&harness()?, &run_args()?),
        Some("probes") => modes::probes_cmd(&harness()?).map(drop),
        Some("trace") => modes::trace_cmd(&harness()?, args.get("--seed")?.unwrap_or(1)),
        Some("selfcheck") => modes::selfcheck_cmd(&harness()?, &run_args()?),
        Some("check-catalog") => modes::check_benchmark_json(),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => modes::driver_cmd(
            &harness()?,
            &modes::DriverArgs {
                workload: args.workload()?,
                seed: args.require("--seed")?,
                seconds: args.require("--seconds")?,
                trace: match args.require::<u8>("--trace")? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace takes 0 or 1, not {n}")),
                },
            },
        ),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|a| dispatch(&a, started));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse("--workload updr_ooc --seed 7 --seconds 12 --trace 0").unwrap();
        assert!(a.command.is_none());
        assert_eq!(a.workload().unwrap(), WorkloadId::UpdrOoc);
        assert_eq!(a.require::<u64>("--seed").unwrap(), 7);
        assert_eq!(a.require::<f64>("--seconds").unwrap(), 12.0);
    }

    #[test]
    fn parses_commands_switches_and_rejects_nonsense() {
        let a = parse("run --smoke --reps 2").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert!(a.has("--smoke"));
        assert_eq!(a.get::<u32>("--reps").unwrap(), Some(2));
        assert!(parse("run extra").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--workload nope").unwrap().workload().is_err());
        assert!(parse("--seed x").unwrap().require::<u64>("--seed").is_err());
    }
}
