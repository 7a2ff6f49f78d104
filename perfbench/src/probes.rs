//! Outside-in probes: a timed loop around each layer's public functions.
//!
//! A probe never reaches into a layer; it calls what the engines call.
//! Each timed quantity is the median of `reps` loops of at least `loop_s`
//! seconds. Probes answer "did this layer get faster or slower on its
//! own?"; whether that matters is decided by the end-to-end metric each
//! is catalogued against.

use crate::inputs::{graded_square, Rng};
use crate::stats::median;
use crate::trace;
use armci_sim::{Fabric, NetworkModel};
use mrts::checkpoint::{Checkpoint, CheckpointEntry};
use mrts::compute::{FifoPool, Task, TaskBackend, WorkStealingPool};
use mrts::directory::Directory;
use mrts::ids::{HandlerId, MobilePtr, ObjectId};
use mrts::locality::LocalityMap;
use mrts::msg::Message;
use mrts::ooc::{EvictCandidate, OocManager};
use mrts::policy::{AccessMeta, PolicyKind};
use mrts::relnet::{ReliableReceiver, ReliableSender};
use mrts::sched::{PhaseGate, RegionDag};
use mrts::storage::{FileStore, SegmentStore, StorageBackend};
use pumg_delaunay::refine::{refine, RefineParams};
use pumg_delaunay::{MeshBuilder, TriMesh, VFlags};
use pumg_geometry::{incircle, orient2d, BBox, Point2};
use pumg_methods::domain::{h_for_elements, Workload};
use pumg_methods::nupdr::{build_leaves, leaf_task, NupdrParams};
use pumg_methods::pcdm::{build_subdomains, PcdmParams};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long each probe measures.
#[derive(Clone, Copy, Debug)]
pub struct ProbeBudget {
    pub loop_s: f64,
    pub reps: usize,
}

impl ProbeBudget {
    /// `perfbench probes`: the figures quoted in reports.
    pub const FULL: ProbeBudget = ProbeBudget {
        loop_s: 0.2,
        reps: 5,
    };
    /// Inside a driver `--trace 1` run, which has to fit its time slot.
    pub const BRIEF: ProbeBudget = ProbeBudget {
        loop_s: 0.03,
        reps: 3,
    };
    pub const SMOKE: ProbeBudget = ProbeBudget {
        loop_s: 0.002,
        reps: 1,
    };
}

/// Nanoseconds per operation: `batch` does some operations and returns
/// how many; it is repeated for `loop_s` seconds, `reps` times over.
fn ns_per_op(b: ProbeBudget, mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..b.reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let mut ops = 0u64;
            loop {
                ops += batch();
                let dt = t0.elapsed();
                if dt.as_secs_f64() >= b.loop_s {
                    break dt.as_secs_f64() * 1e9 / ops.max(1) as f64;
                }
            }
        })
        .collect();
    median(&samples)
}

/// MB/s from nanoseconds per byte.
fn mb_per_s(ns_per_byte: f64) -> f64 {
    1e3 / ns_per_byte
}

type Out = Vec<(&'static str, f64)>;

/// Run every probe. `scratch` is a directory the storage probes may fill
/// and must leave empty.
pub fn run_all(b: ProbeBudget, scratch: &Path) -> Out {
    let mut out = Out::new();
    for (span, probe) in [
        (
            "probe.geometry",
            &geometry as &dyn Fn(ProbeBudget, &Path) -> Out,
        ),
        ("probe.delaunay", &delaunay),
        ("probe.methods", &methods),
        ("probe.compute", &compute),
        ("probe.control", &control),
        ("probe.ooc", &ooc),
        ("probe.storage", &storage),
    ] {
        let _s = trace::span(span);
        out.extend(probe(b, scratch));
    }
    out
}

// ----- pumg-geometry ----------------------------------------------------------

fn geometry(b: ProbeBudget, _: &Path) -> Out {
    let mut rng = Rng::new(11, "probe.geometry");
    let pts: Vec<Point2> = (0..4096).map(|_| rng.interior_point(0.0)).collect();
    let orient = ns_per_op(b, || {
        for w in pts.windows(3) {
            black_box(orient2d(black_box(w[0]), w[1], w[2]));
        }
        pts.len() as u64 - 2
    });
    let inc = ns_per_op(b, || {
        for w in pts.windows(4) {
            black_box(incircle(black_box(w[0]), w[1], w[2], w[3]));
        }
        pts.len() as u64 - 3
    });
    // Corners of axis-aligned squares with dyadic coordinates are exactly
    // cocircular: the floating-point filter cannot decide and every call
    // takes the exact-arithmetic path.
    let squares: Vec<[Point2; 4]> = (0..1024)
        .map(|_| {
            let q = |v: f64| (v * 1024.0).floor() / 1024.0;
            let (x, y) = (q(rng.unit()), q(rng.unit()));
            let s = 1.0 / (1u64 << (1 + rng.next_u64() % 8)) as f64;
            [
                Point2::new(x, y),
                Point2::new(x + s, y),
                Point2::new(x + s, y + s),
                Point2::new(x, y + s),
            ]
        })
        .collect();
    let exact = ns_per_op(b, || {
        for s in &squares {
            black_box(incircle(black_box(s[0]), s[1], s[2], s[3]));
        }
        squares.len() as u64
    });
    vec![
        ("geometry.orient2d_ns", orient),
        ("geometry.incircle_ns", inc),
        ("geometry.incircle_exact_ns", exact),
    ]
}

// ----- pumg-delaunay ---------------------------------------------------------

fn unit_square_mesh() -> TriMesh {
    MeshBuilder::rectangle(0.0, 0.0, 1.0, 1.0)
        .build()
        .expect("the unit square is a valid PSLG")
}

/// Elements of the meshes the kernel probes build: a UPDR block or a
/// sweep patch is this size.
const PROBE_MESH_ELEMENTS: u64 = 20_000;

fn delaunay(b: ProbeBudget, _: &Path) -> Out {
    let mut rng = Rng::new(12, "probe.delaunay");
    let pts: Vec<Point2> = (0..10_000).map(|_| rng.interior_point(0.01)).collect();
    let insert = ns_per_op(b, || {
        let mut mesh = unit_square_mesh();
        for &p in &pts {
            black_box(mesh.insert_point(p, VFlags(VFlags::STEINER)));
        }
        pts.len() as u64
    });
    let params = RefineParams::with_uniform_size(h_for_elements(1.0, PROBE_MESH_ELEMENTS));
    let mut refined = unit_square_mesh();
    let refine_ns = ns_per_op(b, || {
        let mut mesh = unit_square_mesh();
        refine(&mut mesh, &params);
        let n = mesh.num_tris() as u64;
        refined = mesh;
        n
    });
    let mut mesh = refined;
    let locate = ns_per_op(b, || {
        for &p in &pts[..1024] {
            black_box(mesh.locate(black_box(p)));
        }
        1024
    });
    let encoded = mesh.encode();
    let pack = ns_per_op(b, || black_box(mesh.encode()).len() as u64);
    let unpack = ns_per_op(b, || {
        black_box(TriMesh::decode(&encoded).expect("decodes its own encoding"));
        encoded.len() as u64
    });
    vec![
        ("delaunay.insert_per_s", 1e9 / insert),
        ("delaunay.refine_elements_per_s", 1e9 / refine_ns),
        ("delaunay.locate_ns", locate),
        ("wire.pack_mb_s", mb_per_s(pack)),
        ("wire.unpack_mb_s", mb_per_s(unpack)),
        (
            "wire.bytes_per_element",
            encoded.len() as f64 / mesh.num_tris() as f64,
        ),
    ]
}

// ----- pumg-quadtree, pumg-methods --------------------------------------------

fn methods(b: ProbeBudget, _: &Path) -> Out {
    let nupdr = NupdrParams::new(graded_square(50_000, Point2::new(0.0, 0.0)));
    let build = ns_per_op(b, || {
        black_box(build_leaves(black_box(&nupdr)));
        1
    });
    let (tree, leaves) = build_leaves(&nupdr);
    let mut rng = Rng::new(13, "probe.methods");
    let boxes: Vec<BBox> = (0..1024)
        .map(|_| {
            let p = rng.interior_point(0.05);
            BBox::new(p, Point2::new(p.x + 0.03, p.y + 0.03))
        })
        .collect();
    let query = ns_per_op(b, || {
        for q in &boxes {
            black_box(tree.query(black_box(q)));
        }
        boxes.len() as u64
    });
    let leaf = &leaves[leaves.len() / 2];
    let task = ns_per_op(b, || {
        black_box(leaf_task(&nupdr.workload, leaf, std::iter::empty()));
        1
    });
    let pcdm = PcdmParams::new(Workload::uniform_pipe(100_000), 8);
    let subs = ns_per_op(b, || {
        black_box(build_subdomains(black_box(&pcdm)));
        1
    });
    vec![
        ("quadtree.build_leaves_ms", build / 1e6),
        ("quadtree.query_ns", query),
        ("methods.nupdr_leaf_task_ms", task / 1e6),
        ("methods.pcdm_build_subdomains_ms", subs / 1e6),
    ]
}

// ----- compute ------------------------------------------------------------------

fn dispatch_ns(b: ProbeBudget, pool: &mut dyn TaskBackend) -> f64 {
    const TASKS: usize = 256;
    ns_per_op(b, || {
        let tasks: Vec<Task> = (0..TASKS)
            .map(|i| {
                Box::new(move || {
                    black_box(i);
                }) as Task
            })
            .collect();
        black_box(pool.run_parallel(tasks));
        TASKS as u64
    })
}

fn compute(b: ProbeBudget, _: &Path) -> Out {
    vec![
        (
            "compute.ws_dispatch_ns_per_task",
            dispatch_ns(b, &mut WorkStealingPool::new(2)),
        ),
        (
            "compute.fifo_dispatch_ns_per_task",
            dispatch_ns(b, &mut FifoPool::new(2)),
        ),
    ]
}

// ----- control: msg, directory, fabric, relnet, sched ---------------------------

/// 8-connected adjacency of a `g × g` block grid (UPDR's buffer zones).
fn grid_adjacency(g: usize) -> Vec<Vec<usize>> {
    (0..g * g)
        .map(|i| {
            let (x, y) = ((i % g) as i64, (i / g) as i64);
            let mut ns = Vec::new();
            for dy in -1..=1 {
                for dx in -1..=1 {
                    let (nx, ny) = (x + dx, y + dy);
                    if (dx, dy) != (0, 0) && nx >= 0 && ny >= 0 && nx < g as i64 && ny < g as i64 {
                        ns.push((ny * g as i64 + nx) as usize);
                    }
                }
            }
            ns
        })
        .collect()
}

fn control(b: ProbeBudget, _: &Path) -> Out {
    let ptr = MobilePtr::new(ObjectId::new(1, 77));
    let msg = Message::new(ptr, HandlerId(0x210), vec![7u8; 64]);
    let encode = ns_per_op(b, || {
        for _ in 0..256 {
            black_box(black_box(&msg).encode());
        }
        256
    });
    let wire = msg.encode();
    let decode = ns_per_op(b, || {
        for _ in 0..256 {
            black_box(Message::decode(black_box(&wire)).expect("decodes its own encoding"));
        }
        256
    });

    let oids: Vec<ObjectId> = (0..4096).map(|i| ObjectId::new(i % 2, i as u64)).collect();
    let mut dir = Directory::new();
    for (i, &o) in oids.iter().enumerate() {
        dir.update(o, (i % 3) as u16);
    }
    let lookup = ns_per_op(b, || {
        for &o in &oids {
            black_box(dir.lookup(black_box(o)));
        }
        oids.len() as u64
    });
    let mut flip = 0u16;
    let update = ns_per_op(b, || {
        flip ^= 1;
        for &o in &oids {
            // Alternates between a non-home hint (insert) and home (remove).
            dir.update(o, o.home() ^ flip);
        }
        oids.len() as u64
    });

    // One-way: both endpoints driven from this thread, so the figure is
    // the queue's cost without a thread hand-off.
    let mut eps = Fabric::new(2, NetworkModel::instant());
    let mut ep1 = eps.pop().expect("two endpoints");
    let mut ep0 = eps.pop().expect("two endpoints");
    let one_way = ns_per_op(b, || {
        for _ in 0..256 {
            ep0.am_send(1, 1, vec![0u8; 64]);
        }
        let mut got = 0;
        while ep1.try_recv().is_some() {
            got += 1;
        }
        got
    });
    // Round trip: an echo thread on node 1, woken per message.
    const STOP: u32 = 0;
    let echo = std::thread::spawn(move || {
        while let Some(m) = ep1.recv_timeout(Duration::from_secs(5)) {
            if m.handler == STOP {
                break;
            }
            ep1.am_send(0, m.handler, m.payload);
        }
    });
    let round_trip = ns_per_op(b, || {
        ep0.am_send(1, 1, vec![0u8; 64]);
        black_box(
            ep0.recv_timeout(Duration::from_secs(5))
                .expect("echo replies"),
        );
        1
    });
    ep0.am_send(1, STOP, Vec::new());
    echo.join().expect("echo thread exits on STOP");

    let payload = vec![3u8; 64];
    let mut tx = ReliableSender::new();
    let mut rx = ReliableReceiver::new();
    let frame_ack = ns_per_op(b, || {
        for _ in 0..256 {
            let (seq, frame) = tx.next_frame(1, 9, &payload);
            rx.accept(0, seq, 9, frame);
            black_box(rx.next_release(0));
            tx.on_ack(1, seq);
        }
        256
    });

    let adjacency = grid_adjacency(16);
    let dag = ns_per_op(b, || {
        let mut dag = RegionDag::new(&adjacency, 3);
        let mut ready = dag.ready();
        let mut commits = 0u64;
        while let Some((blk, phase)) = ready.pop() {
            ready.extend(dag.commit(blk, phase));
            commits += 1;
        }
        assert!(dag.is_complete());
        commits
    });
    let gate = ns_per_op(b, || {
        let mut opened = 0u64;
        for _ in 0..64 {
            let mut g = PhaseGate::new(8, 2);
            for _ in 0..9 {
                opened += u64::from(g.on_commit(black_box(0)));
            }
        }
        black_box(opened);
        64 * 9
    });

    vec![
        ("msg.encode_ns", encode),
        ("msg.decode_ns", decode),
        ("directory.lookup_ns", lookup),
        ("directory.update_ns", update),
        ("fabric.am_roundtrip_ns", round_trip),
        ("fabric.am_msgs_per_s", 1e9 / one_way),
        ("relnet.frame_ack_ns", frame_ack),
        ("sched.dag_commit_ns", dag),
        ("sched.gate_commit_ns", gate),
    ]
}

// ----- ooc, policy, locality -------------------------------------------------------

fn candidates(n: usize, rng: &mut Rng) -> Vec<EvictCandidate> {
    (0..n)
        .map(|i| {
            let mut meta = AccessMeta::new(rng.next_u64() % 1000);
            for _ in 0..rng.next_u64() % 4 {
                meta.touch(1000 + rng.next_u64() % 100_000);
            }
            EvictCandidate {
                oid: ObjectId::new((i % 2) as u16, i as u64),
                footprint: 300 + (rng.next_u64() % 400) as usize,
                meta,
                priority: 128,
                queued_msgs: usize::from(rng.next_u64().is_multiple_of(16)),
                clean: rng.next_u64().is_multiple_of(4),
                cluster: None,
                lkey: 0,
            }
        })
        .collect()
}

fn pick_victims_ns_per_candidate(b: ProbeBudget, n: usize, rng: &mut Rng) -> f64 {
    let pristine = candidates(n, rng);
    let total: usize = pristine.iter().map(|c| c.footprint).sum();
    let mgr = OocManager::new(total, 2.0, 0.5, PolicyKind::Lru);
    let mut scratch = pristine.clone();
    ns_per_op(b, || {
        // The scan sorts in place; start every call from the same
        // unsorted candidates, as the engines build them from a hash map.
        scratch.copy_from_slice(&pristine);
        black_box(mgr.pick_victims(&mut scratch, total / 10));
        n as u64
    })
}

fn ooc(b: ProbeBudget, _: &Path) -> Out {
    let mut rng = Rng::new(14, "probe.ooc");
    let pick_1k = pick_victims_ns_per_candidate(b, 1 << 10, &mut rng);
    let pick_16k = pick_victims_ns_per_candidate(b, 16 << 10, &mut rng);

    let mut mgr = OocManager::new(1 << 30, 2.0, 0.5, PolicyKind::Lru);
    mgr.note_spilled(1 << 20);
    let admit = ns_per_op(b, || {
        for i in 0..256usize {
            let size = 4096 + i;
            black_box(mgr.needed_for_admission(black_box(size)));
            mgr.note_in(size);
            black_box(mgr.soft_pressure());
            mgr.note_out(size);
        }
        256
    });

    let metas: Vec<AccessMeta> = candidates(1024, &mut rng).iter().map(|c| c.meta).collect();
    let score = ns_per_op(b, || {
        for kind in PolicyKind::ALL {
            for m in &metas {
                black_box(kind.score(black_box(m), 200_000));
            }
        }
        (PolicyKind::ALL.len() * metas.len()) as u64
    });

    // Steady state of the per-send hook: the edge is already known.
    const G: usize = 64;
    let oid = |i: usize| ObjectId::new((i % 2) as u16, (i / 2) as u64);
    let edges: Vec<(ObjectId, ObjectId)> = (0..G * G)
        .flat_map(|i| {
            let right = (i % G + 1 < G).then(|| (oid(i), oid(i + 1)));
            let down = (i + G < G * G).then(|| (oid(i), oid(i + G)));
            right.into_iter().chain(down)
        })
        .collect();
    let learned = || {
        let mut map = LocalityMap::new(8);
        for &(a, c) in &edges {
            map.note_edge(a, c);
        }
        map
    };
    let mut map = learned();
    let note_edge = ns_per_op(b, || {
        for &(a, c) in &edges {
            map.note_edge(black_box(a), c);
        }
        edges.len() as u64
    });
    let rebuild = ns_per_op(b, || {
        let mut map = learned();
        map.rebuild();
        black_box(map.ordered_len());
        (G * G) as u64
    });
    // `rebuild` above includes learning the edges; take that part out.
    let learn = ns_per_op(b, || {
        black_box(learned());
        (G * G) as u64
    });

    vec![
        ("ooc.pick_victims_ns_per_candidate_1k", pick_1k),
        ("ooc.pick_victims_ns_per_candidate_16k", pick_16k),
        ("ooc.admit_ns", admit),
        ("policy.score_ns", score),
        ("locality.note_edge_ns", note_edge),
        (
            "locality.rebuild_us_per_object",
            (rebuild - learn).max(0.0) / 1e3,
        ),
    ]
}

// ----- storage, checkpoint ------------------------------------------------------------

const MIB: usize = 1 << 20;
/// Keys the large-record probes cycle over: 32 MiB live, a few times the
/// last-level cache, small enough to stay in the page cache.
const LARGE_KEYS: u64 = 32;
const SMALL_RECORD: usize = 512;
const SMALL_KEYS: u64 = 4096;

fn open_segments(dir: &Path, garbage_frac: f64) -> SegmentStore {
    SegmentStore::open(dir.to_path_buf(), MIB, garbage_frac)
        .expect("probe scratch directory is writable")
        .cleanup_on_drop(true)
}

fn storage(b: ProbeBudget, scratch: &Path) -> Out {
    let large = vec![0xa5u8; MIB];
    let small = vec![0x5au8; SMALL_RECORD];

    // Cycling over a fixed key set overwrites: garbage accrues and the
    // store compacts as it would in a run, so the figure is sustained
    // throughput, not first-touch appends.
    let mut key = 0u64;
    let mut seg = open_segments(&scratch.join("seg-large"), 0.5);
    let seg_store = ns_per_op(b, || {
        seg.store(key % LARGE_KEYS, &large).expect("store");
        key += 1;
        MIB as u64
    });
    for k in 0..LARGE_KEYS {
        seg.store(k, &large).expect("store");
    }
    seg.sync().expect("seal");
    let seg_load = ns_per_op(b, || {
        key += 1;
        black_box(seg.load(key % LARGE_KEYS).expect("load")).len() as u64
    });
    drop(seg);

    let mut seg = open_segments(&scratch.join("seg-small"), 0.5);
    let small_store = ns_per_op(b, || {
        for _ in 0..256 {
            seg.store(key % SMALL_KEYS, &small).expect("store");
            key += 1;
        }
        256
    });
    for k in 0..SMALL_KEYS {
        seg.store(k, &small).expect("store");
    }
    seg.sync().expect("seal");
    let small_load = ns_per_op(b, || {
        for _ in 0..256 {
            // A stride coprime to the key count visits every key without
            // walking the log sequentially.
            key = key.wrapping_add(1531);
            black_box(seg.load(key % SMALL_KEYS).expect("load"));
        }
        256
    });
    drop(seg);

    // Compaction: time only the store calls during which a compaction
    // ran, and credit them with the live bytes it rewrote.
    let record = vec![0x3cu8; 64 << 10];
    let mut seg = open_segments(&scratch.join("seg-compact"), 0.5);
    let (mut compact_ns, mut compact_bytes) = (0f64, 0f64);
    let t_end = Instant::now() + Duration::from_secs_f64(b.loop_s * b.reps as f64);
    while Instant::now() < t_end || compact_bytes == 0.0 {
        let t0 = Instant::now();
        seg.store(key % 64, &record).expect("store");
        let dt = t0.elapsed();
        key += 1;
        for r in seg.take_compaction_reports() {
            compact_ns += dt.as_secs_f64() * 1e9;
            compact_bytes += r.live_bytes_after as f64;
        }
    }
    drop(seg);

    let mut files = FileStore::new(scratch.join("files")).expect("probe scratch is writable");
    let file_store = ns_per_op(b, || {
        files.store(key % LARGE_KEYS, &large).expect("store");
        key += 1;
        MIB as u64
    });
    drop(files);

    let ckpt = Checkpoint {
        objects: (0..64u64)
            .map(|i| CheckpointEntry {
                node: (i % 2) as u16,
                oid: ObjectId::new((i % 2) as u16, i),
                priority: 128,
                locked: false,
                packed: vec![i as u8; 256 << 10],
                queued: Vec::new(),
            })
            .collect(),
        next_seq: vec![32, 32],
    };
    let ckpt_bytes = (64 * (256 << 10)) as u64;
    let ckpt_dir = scratch.join("ckpt");
    let ckpt_write = ns_per_op(b, || {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        ckpt.write_segmented(&ckpt_dir).expect("checkpoint write");
        ckpt_bytes
    });
    let ckpt_read = ns_per_op(b, || {
        let back = Checkpoint::read_segmented(&ckpt_dir).expect("checkpoint read");
        assert_eq!(back.objects.len(), ckpt.objects.len());
        ckpt_bytes
    });
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    vec![
        ("storage.segment_store_mb_s", mb_per_s(seg_store)),
        ("storage.segment_load_mb_s", mb_per_s(seg_load)),
        ("storage.segment_small_store_us", small_store / 1e3),
        ("storage.segment_small_load_us", small_load / 1e3),
        (
            "storage.segment_compact_mb_s",
            mb_per_s(compact_ns / compact_bytes),
        ),
        ("storage.file_store_mb_s", mb_per_s(file_store)),
        ("checkpoint.write_mb_s", mb_per_s(ckpt_write)),
        ("checkpoint.read_mb_s", mb_per_s(ckpt_read)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Source, PER_LAYER};

    #[test]
    fn every_catalogued_probe_is_measured_and_positive() {
        let scratch = std::env::temp_dir().join(format!("perfbench-probes-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let got = run_all(ProbeBudget::SMOKE, &scratch);
        let leftovers = std::fs::read_dir(&scratch).unwrap().count();
        std::fs::remove_dir_all(&scratch).unwrap();
        assert_eq!(
            leftovers, 0,
            "storage probes must clean up after themselves"
        );

        let mut have: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Probe)
            .map(|m| m.name)
            .collect();
        have.sort_unstable();
        want.sort_unstable();
        assert_eq!(have, want);
        for (name, v) in got {
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }

    #[test]
    fn grid_adjacency_is_symmetric_with_eight_interior_neighbours() {
        let adj = grid_adjacency(4);
        assert_eq!(adj[0].len(), 3);
        assert_eq!(adj[5].len(), 8);
        for (i, ns) in adj.iter().enumerate() {
            for &n in ns {
                assert!(adj[n].contains(&i));
            }
        }
    }

    #[test]
    fn ns_per_op_grows_with_the_work_done() {
        let b = ProbeBudget {
            loop_s: 0.01,
            reps: 3,
        };
        let spin = |n: u64| {
            ns_per_op(b, || {
                let mut x = 1u64;
                for _ in 0..n {
                    x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                black_box(x);
                1
            })
        };
        assert!(spin(20_000) > 3.0 * spin(2_000));
    }
}
