//! Re-execute a persisted replay artifact.
//!
//! `cargo run -p pumg --bin replay -- target/replay/<artifact>.replay`
//!
//! A failing threaded chaos or replay test saves its schedule (harness
//! id, fault seed, decision log and recorded canonical audit stream)
//! under `target/replay/` and names the file in its panic message. This
//! tool rebuilds that schedule, re-executes it under the recorded
//! decisions and prints the run's error, if it failed again, and the
//! first-divergence report; it exits non-zero unless the replay is
//! byte-identical with zero sequencer divergences.
//! Debug builds only: release builds compile the audit stream out.

use std::process::ExitCode;

#[cfg(debug_assertions)]
fn main() -> ExitCode {
    use pumg::mrts::replay::ReplayArtifact;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: replay <artifact.replay>");
        return ExitCode::FAILURE;
    };
    let art = match ReplayArtifact::load(path.as_ref()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replay: cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "harness {} seed {} on {} nodes ({} recorded decisions, {} recorded events)",
        art.harness,
        art.seed,
        art.recorded.nodes.len(),
        art.decisions.len(),
        art.recorded.total_events()
    );
    let Some((report, live)) = pumg::harness::replay_artifact(&art) else {
        eprintln!("replay: {path} names unknown harness {:?}", art.harness);
        return ExitCode::FAILURE;
    };
    if let Some(e) = &live.error {
        println!("the replayed run failed: {e}");
    }
    let divergences = live.stats.total_of(|n| n.replay_divergences);
    print!("{report}");
    println!("sequencer divergences: {divergences}");
    if report.is_clean() && divergences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(not(debug_assertions))]
fn main() -> ExitCode {
    eprintln!("replay: release builds carry no audit stream; run the debug build");
    ExitCode::FAILURE
}
