//! Bounded-memory guard for the threaded engine's post-run state.
//!
//! A counting global allocator (process-wide: the engine's worker, I/O
//! and reader threads all count) tracks the bytes on the heap and their
//! high-water mark. Sixty-four objects grow to 256 KB each under a budget
//! of eight. When `run()` returns, and all through a full
//! `for_each_object`, the heap must stay under three budgets — what is
//! spilled stays spilled and streams through the visit. Loading every
//! object back for extraction, which `run()` used to do, needs eight.
//!
//! A second counter follows decoded instances of the object type: during
//! extraction at most `io_threads + 1` exist beyond the resident ones.

use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::prelude::*;
use mrts::threaded::ThreadedRuntime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

// Statistics only: no other memory is published through them, and every
// reading below happens after the threads that allocated were joined.
static HELD: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let held = HELD.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(held, Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is arithmetic on two atomics, which neither allocates nor
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HELD.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HELD.fetch_sub(layout.size(), Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap high-water mark while `f` runs, and what it returned.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    PEAK.store(HELD.load(Relaxed), Relaxed);
    let out = f();
    (PEAK.load(Relaxed), out)
}

const TAG: TypeTag = TypeTag(0x51);
const H_VISIT: HandlerId = HandlerId(1);
const OBJECTS: u64 = 64;
const PAYLOAD: usize = 256 << 10;
const FOOTPRINT: usize = PAYLOAD + 64;
const BUDGET: usize = 8 * FOOTPRINT;

/// Instances that came out of `decode` and have not been dropped.
static DECODED: AtomicUsize = AtomicUsize::new(0);
static DECODED_PEAK: AtomicUsize = AtomicUsize::new(0);

struct Chunk {
    idx: u64,
    visits: u64,
    data: Vec<u8>,
    decoded: bool,
}

impl Chunk {
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let idx = r.u64().unwrap();
        let visits = r.u64().unwrap();
        let data = r.bytes().unwrap().to_vec();
        let live = DECODED.fetch_add(1, Relaxed) + 1;
        DECODED_PEAK.fetch_max(live, Relaxed);
        Ok(Box::new(Chunk {
            idx,
            visits,
            data,
            decoded: true,
        }))
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        if self.decoded {
            DECODED.fetch_sub(1, Relaxed);
        }
    }
}

impl MobileObject for Chunk {
    fn type_tag(&self) -> TypeTag {
        TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::with_capacity(self.data.len() + 32);
        w.u64(self.idx).u64(self.visits).bytes(&self.data);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        64 + self.data.len()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Two rounds along the chain of objects, one at a time: the first grows
/// each object to its full size (so the population never fits at boot),
/// the second comes back to every object, most of them spilled by then.
fn h_visit(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let round = PayloadReader::new(payload).u64().unwrap();
    let c = obj.as_any_mut().downcast_mut::<Chunk>().unwrap();
    if round == 0 {
        c.data = vec![c.idx as u8; PAYLOAD];
    }
    c.visits += 1;
    let (next, round) = match c.idx + 1 {
        OBJECTS if round == 1 => return,
        OBJECTS => (0, 1),
        next => (next, round),
    };
    let mut w = PayloadWriter::new();
    w.u64(round);
    ctx.send(MobilePtr::new(ObjectId::new(0, next)), H_VISIT, w.finish());
}

#[test]
fn results_stay_spilled_and_stream_through_extraction() {
    let dir = std::env::temp_dir().join(format!("mrts-run-bounded-{}", std::process::id()));
    let mut cfg = MrtsConfig::out_of_core(1, BUDGET);
    cfg.spill_dir = Some(dir.clone());
    let look_ahead = cfg.io_threads + 1;
    let mut rt = ThreadedRuntime::new(cfg);
    rt.register_type(TAG, Chunk::decode);
    rt.register_handler(H_VISIT, "visit", h_visit);
    for idx in 0..OBJECTS {
        let p = rt.create_object(
            0,
            Box::new(Chunk {
                idx,
                visits: 0,
                data: Vec::new(),
                decoded: false,
            }),
            128,
        );
        assert_eq!(p.id, ObjectId::new(0, idx));
    }
    let mut w = PayloadWriter::new();
    w.u64(0);
    rt.post(MobilePtr::new(ObjectId::new(0, 0)), H_VISIT, w.finish());

    let base = HELD.load(Relaxed);
    let stats = rt.run();
    let at_return = HELD.load(Relaxed) - base;
    assert!(stats.total_of(|n| n.stores) >= 56, "{}", stats.summary());
    assert!(stats.total_of(|n| n.loads) >= 48, "{}", stats.summary());
    assert!(
        at_return < 3 * BUDGET,
        "{at_return} bytes on the heap when run() returned; the budget is {BUDGET}"
    );

    let resident = DECODED.load(Relaxed);
    DECODED_PEAK.store(resident, Relaxed);
    let (peak, (seen, bytes)) = peak_during(|| {
        let (mut seen, mut bytes) = (0u64, 0usize);
        rt.for_each_object(|oid, obj| {
            let c = obj.as_any().downcast_ref::<Chunk>().unwrap();
            assert_eq!(oid, ObjectId::new(0, c.idx));
            assert_eq!(c.visits, 2);
            assert!(c.data.iter().all(|&b| b == c.idx as u8));
            seen += 1;
            bytes += c.data.len();
        });
        (seen, bytes)
    });
    assert_eq!((seen, bytes), (OBJECTS, OBJECTS as usize * PAYLOAD));
    assert!(
        peak - base < 3 * BUDGET,
        "extraction took the heap to {} bytes; the budget is {BUDGET}",
        peak - base
    );
    let decoded_ahead = DECODED_PEAK.load(Relaxed) - resident;
    assert!(
        (1..=look_ahead).contains(&decoded_ahead),
        "{decoded_ahead} spilled objects decoded at once, look-ahead {look_ahead}"
    );
    assert_eq!(
        DECODED.load(Relaxed),
        resident,
        "every visited copy was dropped"
    );
    drop(rt);
    let _ = std::fs::remove_dir_all(&dir);
}
