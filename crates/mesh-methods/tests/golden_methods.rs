//! Golden method kernels: digests recorded from the method kernels as they
//! stood before the allocation-free refinement hot path and the skip-work
//! seeding landed. The parallel methods' cross-engine, chaos and replay
//! suites compare runs against each other; these pin the runs to the
//! meshes the parent commit produced.

use pumg_geometry::Point2;
use pumg_methods::common::fnv1a;
use pumg_methods::domain::Workload;
use pumg_methods::nupdr::{build_leaves, leaf_task, NupdrParams};
use pumg_methods::pcdm::{build_subdomains, PcdmParams};
use pumg_methods::updr::{block_phase1, block_phase3, buffer_batches, decompose, UpdrParams};

fn fold(acc: u64, x: u64) -> u64 {
    acc.rotate_left(13) ^ fnv1a(&x.to_le_bytes())
}

fn fold_points(mut acc: u64, pts: &[Point2]) -> u64 {
    acc = fold(acc, pts.len() as u64);
    for p in pts {
        acc = fold(fold(acc, p.x.to_bits()), p.y.to_bits());
    }
    acc
}

/// UPDR phases 1 → 2 → 3 over every block with the real neighbour batches;
/// returns `(triangles, vertices, digest)` over the final block meshes plus
/// a digest of every batch shipped.
fn updr_golden(params: &UpdrParams) -> (usize, usize, u64, u64) {
    let blocks = decompose(params);
    let mut meshes: Vec<_> = blocks
        .iter()
        .map(|b| block_phase1(&params.workload, b))
        .collect();
    let mut inbox: Vec<Vec<Point2>> = vec![Vec::new(); blocks.len()];
    let mut batch_digest = 0u64;
    for b in &blocks {
        let Some((mesh, _)) = &meshes[b.idx] else {
            continue;
        };
        let regions: Vec<_> = b.neighbors.iter().map(|&n| blocks[n].region).collect();
        for (&n, pts) in b
            .neighbors
            .iter()
            .zip(buffer_batches(mesh, &b.cell, &regions))
        {
            batch_digest = fold_points(batch_digest, &pts);
            inbox[n].extend_from_slice(&pts);
        }
    }
    let (mut tris, mut verts, mut digest) = (0, 0, 0u64);
    for b in &blocks {
        let Some((mesh, settled)) = meshes[b.idx].as_mut() else {
            continue;
        };
        block_phase3(&params.workload, b, mesh, *settled, &mut inbox[b.idx]);
        mesh.validate().unwrap();
        tris += mesh.num_tris();
        verts += mesh.num_vertices();
        digest = fold(digest, fnv1a(&mesh.encode()));
    }
    (tris, verts, digest, batch_digest)
}

#[test]
fn updr_4x4_square() {
    let p = UpdrParams::new(Workload::uniform_square(24_000), 4);
    assert_eq!(
        updr_golden(&p),
        (38148, 20878, 4913384336359761772, 1544007523638595594)
    );
}

#[test]
fn updr_4x4_pipe() {
    let p = UpdrParams::new(Workload::uniform_pipe(16_000), 4);
    assert_eq!(
        updr_golden(&p),
        (22061, 12275, 5719392301047979639, 7738003963121073810)
    );
}

/// PCDM's refine / split-exchange loop to quiescence; returns `(rounds,
/// triangles, digest)` over the final subdomain meshes.
fn pcdm_golden(params: &PcdmParams) -> (usize, usize, u64) {
    let mut subs = build_subdomains(params);
    let mut dirty = vec![true; subs.len()];
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(rounds < 100, "PCDM did not converge");
        let mut inbox: Vec<Vec<Point2>> = vec![Vec::new(); subs.len()];
        let mut any = false;
        for idx in 0..subs.len() {
            if !std::mem::replace(&mut dirty[idx], false) {
                continue;
            }
            any = true;
            let splits = subs[idx].refine_step(&params.workload);
            for (side, pts) in splits.into_iter().enumerate() {
                if let Some(nb) = subs[idx].neighbors[side] {
                    inbox[nb].extend(pts);
                }
            }
        }
        for idx in 0..subs.len() {
            let pts = std::mem::take(&mut inbox[idx]);
            if !pts.is_empty() && subs[idx].insert_splits(&pts) > 0 {
                dirty[idx] = true;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    let (mut tris, mut digest) = (0, 0u64);
    for sd in &subs {
        sd.mesh.validate().unwrap();
        tris += sd.mesh.num_tris();
        digest = fold(digest, fnv1a(&sd.mesh.encode()));
    }
    (rounds, tris, digest)
}

#[test]
fn pcdm_3x3_square() {
    let p = PcdmParams::new(Workload::uniform_square(12_000), 3);
    assert_eq!(pcdm_golden(&p), (3, 10927, 14557949722886561142));
}

#[test]
fn pcdm_3x3_pipe() {
    let p = PcdmParams::new(Workload::uniform_pipe(12_000), 3);
    assert_eq!(pcdm_golden(&p), (3, 11020, 3649200024964424220));
}

/// NUPDR's worker kernel on every leaf, first from nothing and then fed
/// its own and its buffer's points. Re-recorded when the kernel began to
/// refine only within each leaf's reach and to insert carried points in
/// curve order (was `(96, 4468, 5841142924031120961)`).
#[test]
fn nupdr_leaf_tasks_graded_pipe() {
    let p = NupdrParams::new(Workload::graded_pipe(6_000));
    let (_, leaves) = build_leaves(&p);
    let first: Vec<_> = leaves
        .iter()
        .map(|l| leaf_task(&p.workload, l, std::iter::empty()))
        .collect();
    let mut digest = 0u64;
    let mut tris = 0u64;
    for l in &leaves {
        let mut input: Vec<Point2> = Vec::new();
        for &i in std::iter::once(&l.idx).chain(&l.buffer) {
            if let Some(out) = &first[i] {
                input.extend_from_slice(&out.owned_points);
            }
        }
        let Some(out) = leaf_task(&p.workload, l, input.into_iter()) else {
            continue;
        };
        tris += out.owned_tris;
        digest = fold_points(digest, &out.owned_points);
        digest = fold_points(digest, &out.bad_ccs);
        digest = fold(digest, out.owned_verts);
        digest = fold(digest, out.mesh_footprint as u64);
    }
    assert_eq!(
        (leaves.len(), tris, digest),
        (96, 4432, 17430126342842155308)
    );
}
