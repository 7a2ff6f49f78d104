//! Prints the experiments named on the command line, or every experiment
//! in report order when none is named (see pumg-bench's lib docs).
//!
//! ```sh
//! cargo run --release -p pumg-bench --bin report -- fig5 table4
//! PUMG_SCALE=0.25 cargo run --release -p pumg-bench --bin report > report.md
//! ```

use pumg_bench::{select, Scale};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&names).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let scale = Scale::from_env();
    eprintln!(
        "running {} experiment(s) at scale {} ...",
        experiments.len(),
        scale.0
    );
    for (name, run) in experiments {
        eprintln!("  {name} ...");
        let t0 = std::time::Instant::now();
        run(scale).print();
        eprintln!("  {name} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
