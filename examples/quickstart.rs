//! Quickstart: sequential quality meshing, then the same workload through
//! the MRTS out-of-core runtime.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pumg::delaunay::builder::MeshBuilder;
use pumg::delaunay::refine::{refine, RefineParams};
use pumg::geometry::Point2;
use pumg::methods::domain::Workload;
use pumg::methods::ooc_pcdm::opcdm_run;
use pumg::methods::pcdm::PcdmParams;
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::des::Des;

fn main() {
    // 1. Sequential: mesh the paper's pipe cross-section at uniform sizing.
    let mut mesh = MeshBuilder::pipe_cross_section(Point2::new(0.0, 0.0), 1.0, 0.3, 64)
        .build()
        .expect("valid PSLG");
    let report = refine(&mut mesh, &RefineParams::with_uniform_size(0.02));
    mesh.validate().expect("structurally valid");
    mesh.validate_delaunay().expect("constrained Delaunay");
    println!("sequential pipe mesh:");
    println!("  triangles      {:>10}", mesh.num_tris());
    println!("  steiner points {:>10}", report.inserted);
    println!("  segment splits {:>10}", report.seg_splits);
    println!("  area           {:>13.6}", mesh.total_area());

    // 2. Parallel + out-of-core: the same class of workload through PCDM
    //    on the MRTS virtual-time engine, with a memory budget that forces
    //    the runtime to spill subdomains to (modeled) disk.
    let params = PcdmParams::new(Workload::uniform_pipe(60_000), 4);
    // ~60k elements need ~2.2 MiB of mesh arena; 4 × 300 KiB forces the
    // runtime to keep most subdomains on disk. Compute is scaled ~30x to
    // model the paper's 650 MHz-class nodes (DESIGN.md §3).
    let mut cfg = MrtsConfig::out_of_core(4, 300 << 10);
    cfg.compute_scale = 32.0;
    let result = opcdm_run::<Des>(&params, cfg);
    println!("\nOPCDM on MRTS (4 nodes, 300 KiB budget each):");
    println!("  elements   {:>12}", result.elements);
    println!("  virtual T  {:>10.3} s", result.total_secs());
    println!("  speed      {:>12.0} elements/s/PE", result.speed());
    println!("  {}", result.stats.summary());
    println!(
        "  overlap of comp/comm/disk: {:.1}%",
        result.stats.overlap_pct()
    );
}
