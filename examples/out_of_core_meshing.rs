//! In-core vs out-of-core: the paper's headline trade-off on one screen.
//!
//! Runs the NUPDR graded-meshing workload three ways:
//!  * the in-core baseline on "enough" nodes,
//!  * the in-core baseline on half the nodes — which runs out of memory,
//!  * the MRTS out-of-core port on half the nodes — which completes.
//!
//! ```sh
//! cargo run --release --example out_of_core_meshing
//! ```

use pumg::methods::domain::Workload;
use pumg::methods::nupdr::{nupdr_incore_scaled, NupdrParams};
use pumg::methods::ooc_nupdr::{onupdr_run, OnupdrOpts};
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::des::Des;

fn main() {
    let elements = 120_000u64;
    let params = NupdrParams::new(Workload::graded_pipe(elements));
    // Budget chosen so 8 nodes fit the problem but 2 nodes do not (the
    // NUPDR baseline resides ~43 MiB of leaf-region meshes at 120k elements).
    let mem_per_node: u64 = 6 << 20; // 6 MiB

    println!("workload: graded pipe cross-section, ~{elements} elements");
    println!("memory:   {} KiB per node\n", mem_per_node >> 10);

    // 1. Plenty of nodes: the in-core baseline works.
    match nupdr_incore_scaled(&params, 8, mem_per_node, 32.0) {
        Ok(r) => println!(
            "NUPDR  in-core,  8 PEs: {:>9} elements, T = {:>8.3} s, speed {:>9.0}/s/PE",
            r.elements,
            r.total_secs(),
            r.speed()
        ),
        Err(e) => println!("NUPDR  in-core,  8 PEs: FAILED ({e})"),
    }

    // 2. Half the nodes: the aggregate memory no longer suffices.
    match nupdr_incore_scaled(&params, 2, mem_per_node, 32.0) {
        Ok(r) => println!(
            "NUPDR  in-core,  2 PEs: {:>9} elements, T = {:>8.3} s",
            r.elements,
            r.total_secs()
        ),
        Err(e) => println!("NUPDR  in-core,  2 PEs: FAILED ({e})"),
    }

    // 3. The out-of-core port on the same 2 nodes completes by spilling.
    //    Its resident state is the leaves' point sets (not whole region
    //    meshes), so to exercise the disk we give it a deliberately small
    //    512 KiB budget — a fraction of what the baseline needed.
    let mut cfg = MrtsConfig::out_of_core(2, 512 << 10);
    cfg.compute_scale = 32.0; // period-appropriate CPU speed (DESIGN.md §3)
    let r = onupdr_run::<Des>(&params, cfg, OnupdrOpts::default());
    println!(
        "ONUPDR out-of-core, 2 PEs (512 KiB each): {:>6} elements, T = {:>8.3} s, speed {:>9.0}/s/PE",
        r.elements,
        r.total_secs(),
        r.speed()
    );
    println!("  {}", r.stats.summary());
    println!(
        "  disk traffic: {:.1} MiB out, {:.1} MiB back",
        r.stats.bytes_to_disk() as f64 / (1 << 20) as f64,
        r.stats.bytes_from_disk() as f64 / (1 << 20) as f64,
    );
    println!(
        "  comp/comm/disk overlap: {:.1}% (the runtime hides I/O latency behind computation)",
        r.stats.overlap_pct()
    );
}
