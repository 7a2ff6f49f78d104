//! Re-execute a persisted replay artifact.
//!
//! `cargo run -p pumg --bin replay -- target/replay/<artifact>.replay`
//!
//! A failing threaded chaos or replay test saves its schedule (harness
//! id, fault seed, decision log and recorded canonical audit stream)
//! under `target/replay/` and names the file in its panic message. This
//! tool rebuilds that schedule, re-executes it under the recorded
//! decisions and prints the run's error — the decision where the replay
//! left its log (node, index, expected and found), or the error the
//! recorded run failed with again — and then the first-divergence report
//! of the audit stream; it exits non-zero unless the replay followed its
//! log to the end and its stream is byte-identical.
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
    // A recorded failure that comes back is a faithful replay; leaving
    // the log is not.
    match &live.error {
        Some(e) if live.diverged => println!("the replay left its log: {e}"),
        Some(e) => println!("the replayed run failed: {e}"),
        None => {}
    }
    print!("{report}");
    if report.is_clean() && !live.diverged {
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
