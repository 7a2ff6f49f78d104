//! Arena-sizing guard for UPDR blocks.
//!
//! A block's mesh arenas are reserved once, from the sizing field, for the
//! block's final mesh. Grown by `Vec` doubling instead, they end a run with
//! up to twice the slots the mesh uses, and every block reallocates each
//! arena a handful of times on the way. Two checks:
//!
//! * after an in-core OUPDR run, every block's arenas hold at most 1.2× the
//!   bytes its mesh uses (`TriMesh::mem_capacity` against
//!   `TriMesh::mem_footprint`). The targets are two that cross a power of
//!   two in phase 3 (doubling leaves 1.52× and 1.59×) and one that does not
//!   (1.05×), so the guard also fails if the reserve itself overshoots;
//! * under a counting global allocator, one block's phase 1 + phase 3
//!   reallocates each arena larger than 64 KiB at most once, and leaves it
//!   within 1.2× of its length.

use pumg_delaunay::mesh::Tri;
use pumg_methods::domain::Workload;
use pumg_methods::ooc_updr::{oupdr_collect_threaded, oupdr_setup_threaded, BlockObj};
use pumg_methods::updr::{block_phase1, block_phase3, buffer_batches, decompose, UpdrParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};

/// Allocations above this size are followed.
const LIMIT: usize = 64 << 10;
const SLOTS: usize = 64;
/// Capacity over length a reserved arena may carry.
const MAX_SLACK: f64 = 1.2;

/// One live allocation above [`LIMIT`]: its current size and how many
/// reallocations above the limit led to it.
#[derive(Clone, Copy)]
struct Chain {
    ptr: usize,
    size: usize,
    reallocs: u32,
}

const EMPTY: Chain = Chain {
    ptr: 0,
    size: 0,
    reallocs: 0,
};

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static CHAINS: RefCell<[Chain; SLOTS]> = const { RefCell::new([EMPTY; SLOTS]) };
    static OVERFLOW: Cell<bool> = const { Cell::new(false) };
}

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

/// Run `f` on this thread's chain table, if it is reachable (never during
/// thread teardown or a nested call).
fn with_chains(f: impl FnOnce(&mut [Chain; SLOTS])) {
    let _ = CHAINS.try_with(|c| {
        if let Ok(mut c) = c.try_borrow_mut() {
            f(&mut c);
        }
    });
}

fn take(chains: &mut [Chain; SLOTS], ptr: usize) -> Option<Chain> {
    let slot = chains.iter_mut().find(|c| c.ptr == ptr)?;
    Some(std::mem::replace(slot, EMPTY))
}

fn put(chains: &mut [Chain; SLOTS], chain: Chain) {
    match chains.iter_mut().find(|c| c.ptr == 0) {
        Some(slot) => *slot = chain,
        None => {
            let _ = OVERFLOW.try_with(|o| o.set(true));
        }
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator. The
// additions only read and write const-initialized thread-locals without
// destructors (a fixed array, no allocation, no panic: `try_with` and
// `try_borrow_mut` skip the bookkeeping where it is unreachable), and never
// touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && layout.size() > LIMIT && tracking() {
            with_chains(|c| {
                put(
                    c,
                    Chain {
                        ptr: p as usize,
                        size: layout.size(),
                        reallocs: 0,
                    },
                )
            });
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        with_chains(|c| {
            take(c, ptr as usize);
        });
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let counted = new_size > LIMIT && tracking();
            with_chains(|c| {
                let old = take(c, ptr as usize);
                if counted || old.is_some() {
                    let before = old.map_or(0, |o| o.reallocs);
                    put(
                        c,
                        Chain {
                            ptr: p as usize,
                            size: new_size,
                            reallocs: before + counted as u32,
                        },
                    );
                }
            });
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with this thread's large allocations followed.
fn followed<R>(f: impl FnOnce() -> R) -> R {
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    r
}

/// The followed allocation that starts at `ptr`, if any.
fn chain_at(ptr: usize) -> Option<Chain> {
    let mut found = None;
    with_chains(|c| found = c.iter().find(|x| x.ptr == ptr).copied());
    found
}

#[test]
fn in_core_oupdr_blocks_carry_little_slack() {
    for elements in [40_000, 60_000, 80_000] {
        let params = UpdrParams::new(Workload::uniform_square(elements), 2);
        let (mut rt, _coord) = oupdr_setup_threaded(&params, mrts::config::MrtsConfig::in_core(2));
        rt.run();
        let (_elements, _vertices, phase, _digest) = oupdr_collect_threaded(&rt);
        assert_eq!(phase, 4, "{elements}: the run completes");
        let (mut held, mut used, mut blocks) = (0usize, 0usize, 0);
        rt.for_each_object(|_, obj| {
            let Some(b) = obj.as_any().downcast_ref::<BlockObj>() else {
                return;
            };
            let mesh = b.mesh.as_ref().expect("every square block has a mesh");
            let (cap, len) = (mesh.mem_capacity(), mesh.mem_footprint());
            assert!(
                cap as f64 <= MAX_SLACK * len as f64,
                "{elements}: block {} holds {cap} bytes for a {len}-byte mesh ({:.2}x)",
                b.idx,
                cap as f64 / len as f64
            );
            held += cap;
            used += len;
            blocks += 1;
        });
        assert_eq!(blocks, 4);
        assert!(
            held as f64 <= MAX_SLACK * used as f64,
            "{elements}: blocks hold {held} bytes for {used} bytes of mesh"
        );
    }
}

#[test]
fn in_core_block_grows_each_arena_at_most_once() {
    let params = UpdrParams::new(Workload::uniform_square(80_000), 2);
    let blocks = decompose(&params);
    let traced = &blocks[0];
    let mut meshes: Vec<_> = blocks
        .iter()
        .map(|b| {
            if b.idx == traced.idx {
                followed(|| block_phase1(&params.workload, b))
            } else {
                block_phase1(&params.workload, b)
            }
        })
        .collect();
    let mut received = Vec::new();
    for b in blocks.iter().filter(|b| b.neighbors.contains(&traced.idx)) {
        let (mesh, _) = meshes[b.idx].as_ref().expect("square blocks mesh");
        received.extend(buffer_batches(mesh, &b.cell, &[traced.region]).remove(0));
    }
    assert!(
        !received.is_empty(),
        "the traced block receives buffer points"
    );
    let (mesh, settled) = meshes[traced.idx].as_mut().expect("square blocks mesh");
    followed(|| block_phase3(&params.workload, traced, mesh, *settled, &mut received));
    assert!(
        !OVERFLOW.with(Cell::get),
        "more than {SLOTS} large allocations alive at once"
    );

    let arenas = [
        (
            "triangle",
            mesh.tri(0) as *const Tri as usize,
            mesh.arena_len(),
            std::mem::size_of::<Tri>(),
        ),
        (
            "vertex",
            mesh.points().as_ptr() as usize,
            mesh.num_vertices(),
            16,
        ),
        (
            "vertex-flag",
            mesh.vflags_mut(0) as *mut _ as usize,
            mesh.num_vertices(),
            1,
        ),
    ];
    let mut followed_arenas = 0;
    for (name, ptr, len, elem) in arenas {
        if len * elem <= LIMIT {
            continue;
        }
        let chain = chain_at(ptr)
            .unwrap_or_else(|| panic!("the {name} arena ({len} slots) was never followed"));
        assert!(
            chain.reallocs <= 1,
            "the {name} arena ({len} slots) was reallocated {} times above 64 KiB",
            chain.reallocs
        );
        let cap = chain.size / elem;
        assert!(
            cap as f64 <= MAX_SLACK * len as f64,
            "the {name} arena holds {cap} slots for {len}"
        );
        followed_arenas += 1;
    }
    assert_eq!(
        followed_arenas, 2,
        "the triangle and vertex arenas both exceed 64 KiB"
    );
}
