//! Runs every experiment and prints the full evaluation report (markdown).
//!
//! ```sh
//! PUMG_SCALE=1.0 cargo run --release -p pumg-bench --bin report_all > report.md
//! ```

use pumg_bench::*;

fn main() {
    let scale = Scale::from_env();
    eprintln!("running all experiments at scale {} ...", scale.0);
    type Experiment = fn(Scale) -> Table;
    let experiments: Vec<(&str, Experiment)> = vec![
        ("fig1", fig1),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("table4", table4),
        ("table5", table5),
        ("table6", table6),
        ("table7", table7),
        ("ablation_swap", ablation_swap),
        ("ablation_thresholds", ablation_thresholds),
        ("ablation_onupdr", ablation_onupdr),
    ];
    for (name, f) in experiments {
        eprintln!("  {name} ...");
        let t0 = std::time::Instant::now();
        let table = f(scale);
        table.print();
        eprintln!("  {name} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
}
