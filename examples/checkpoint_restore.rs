//! Fault tolerance / elasticity: checkpoint a meshing run at a phase
//! boundary and restore it onto a *smaller* cluster.
//!
//! The paper's conclusion proposes exactly this: "check and restore
//! functionality for fault tolerance can be implemented with little effort
//! on top of the out-of-core subsystem". The snapshot reuses the same
//! serialization the spill path uses; the restored runtime may have a
//! different node count and memory budget — the out-of-core layer absorbs
//! the difference.
//!
//! ```sh
//! cargo run --release --example checkpoint_restore
//! ```

use pumg::methods::domain::Workload;
use pumg::methods::ooc_pcdm::{create_subdomains, register, SubObj, H_REFINE};
use pumg::methods::pcdm::PcdmParams;
use pumg::mrts::checkpoint::Checkpoint;
use pumg::mrts::config::MrtsConfig;
use pumg::mrts::des::DesRuntime;

fn count_elements(rt: &DesRuntime) -> u64 {
    let mut elements = 0;
    rt.for_each_object(|_, obj| {
        if let Some(so) = obj.as_any().downcast_ref::<SubObj>() {
            elements += so.sd.mesh.num_tris() as u64;
        }
    });
    elements
}

fn main() {
    // Phase 1: coarse meshing on 8 nodes.
    let coarse = PcdmParams::new(Workload::uniform_pipe(20_000), 4);
    let mut rt = DesRuntime::new(MrtsConfig::in_core(8));
    register(&mut rt);

    let ptrs = create_subdomains(&mut rt, &coarse);
    let n = ptrs.len();
    for &p in &ptrs {
        rt.post(p, H_REFINE, Vec::new());
    }
    let stats = rt.run();
    println!(
        "phase 1 on 8 nodes: {} elements in {:.3}s (virtual)",
        count_elements(&rt),
        stats.total.as_secs_f64()
    );

    // Snapshot at quiescence — bytes you could write to a file.
    let cp = rt.checkpoint();
    let bytes = cp.encode();
    println!(
        "checkpoint: {} objects, {:.1} KiB serialized",
        cp.objects.len(),
        bytes.len() as f64 / 1024.0
    );
    let cp = Checkpoint::decode(&bytes).expect("checkpoint round-trips");

    // Phase 2: restore onto TWO nodes with small budgets; the out-of-core
    // layer spills what no longer fits, and meshing continues.
    let mut rt2 = DesRuntime::new(MrtsConfig::out_of_core(2, 400 << 10));
    register(&mut rt2);
    cp.restore_into(&mut rt2);
    assert_eq!(rt2.num_objects(), n);
    // Kick every subdomain again (e.g. the application tightened sizing —
    // here we just re-run refinement to quiescence).
    for &p in &ptrs {
        rt2.post(p, H_REFINE, Vec::new());
    }
    let stats2 = rt2.run();
    println!(
        "phase 2 on 2 nodes (400 KiB each): {} elements, {}",
        count_elements(&rt2),
        stats2.summary()
    );
    assert!(count_elements(&rt2) > 0);
}
