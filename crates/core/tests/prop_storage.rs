//! Property test for the segmented spill log: random `store` /
//! `store_batch` / `remove` / `load` / `sync` / drop-and-reopen sequences,
//! with record sizes on both sides of the direct-write threshold
//! (`segment_bytes / 2`) and of `segment_bytes`, run against a `HashMap`
//! model. After every operation the store must agree with the model on
//! contents, `len` and `bytes_stored`; its garbage accounting must equal
//! what is physically in the log minus the live records; the spare files
//! it keeps for reuse must be what its own count says; and all its files,
//! spares included, must stay within the space `segment_garbage_frac`
//! promises.
//! Reopening replays the files in id order, so it resolves every key to
//! its last store only if ids followed append order across staged and
//! direct records.

use mrts::storage::{SegmentStore, StorageBackend};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of `[key: u64][len: u32]` in front of every payload; a tombstone
/// is a bare header.
const REC_HDR: u64 = 12;
const SEGMENT: usize = 1024;
const KEYS: u64 = 12;
const MAX_BATCH: usize = 4;

#[derive(Clone, Debug)]
enum Op {
    Store(u64, usize, u8),
    Batch(Vec<(u64, usize, u8)>),
    Remove(u64),
    Load(u64),
    Sync,
    Reopen,
}

/// Payload sizes: tiny, around the direct-write threshold, around a full
/// segment, and well beyond one.
fn arb_size() -> impl Strategy<Value = usize> {
    (0u8..5, 0usize..5).prop_map(|(class, jitter)| match class {
        0 => jitter * 13,
        1 => 150 + jitter * 40,
        2 => SEGMENT / 2 - REC_HDR as usize - 2 + jitter,
        3 => SEGMENT - REC_HDR as usize - 2 + jitter,
        _ => 1500 + jitter * 300,
    })
}

fn arb_record() -> impl Strategy<Value = (u64, usize, u8)> {
    (0..KEYS, arb_size(), any::<u8>())
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..16,
        arb_record(),
        prop::collection::vec(arb_record(), 1..MAX_BATCH + 1),
    )
        .prop_map(|(kind, rec, batch)| match kind {
            0..=6 => Op::Store(rec.0, rec.1, rec.2),
            7..=9 => Op::Batch(batch),
            10..=11 => Op::Remove(rec.0),
            12..=13 => Op::Load(rec.0),
            14 => Op::Sync,
            _ => Op::Reopen,
        })
}

fn fresh_dir() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mrts-prop-storage-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes of every file in the store's directory, and of the spares among
/// them: every name that is not a `seg-*.log` segment.
fn file_bytes(s: &SegmentStore) -> (u64, u64) {
    let (mut files, mut spares) = (0, 0);
    for e in std::fs::read_dir(s.dir()).unwrap() {
        let e = e.unwrap();
        let len = e.metadata().unwrap().len();
        files += len;
        let name = e.file_name().into_string().unwrap();
        if !(name.starts_with("seg-") && name.ends_with(".log")) {
            spares += len;
        }
    }
    (files, spares)
}

fn check(s: &mut SegmentStore, model: &HashMap<u64, Vec<u8>>, frac: f64) -> Result<(), String> {
    let payload: u64 = model.values().map(|v| v.len() as u64).sum();
    let live = payload + REC_HDR * model.len() as u64;
    let (files, spares) = file_bytes(s);
    if s.len() != model.len() || s.bytes_stored() != payload {
        return Err(format!(
            "store holds {} objects / {} bytes, model {} / {payload}",
            s.len(),
            s.bytes_stored(),
            model.len()
        ));
    }
    if spares != s.spare_bytes() {
        return Err(format!(
            "{spares} bytes of spare files, the store counts {}",
            s.spare_bytes()
        ));
    }
    if s.garbage_bytes() + live + spares != files + s.staged_bytes() as u64 {
        return Err(format!(
            "garbage {} + live {live} + spares {spares} != files {files} + staged {}",
            s.garbage_bytes(),
            s.staged_bytes()
        ));
    }
    // Spares are kept only inside the footprint a pass allows.
    let total = s.garbage_bytes() + live;
    if spares > 0 && spares as f64 > live as f64 / (1.0 - frac) - total as f64 {
        return Err(format!(
            "{spares} spare bytes beside a {total}-byte log of {live} live"
        ));
    }
    // Either garbage is within `frac` of the log, or a pass just ran and
    // left behind at most what was staged when it started — one segment
    // plus the small records of one batch — and the tombstones of removed
    // keys that an older segment still needs.
    let slack = (SEGMENT + MAX_BATCH * SEGMENT / 2) as u64 + REC_HDR * KEYS;
    let bound = (live as f64 / (1.0 - frac)) as u64 + slack;
    if files > bound {
        return Err(format!(
            "{files} bytes on disk for {live} live, bound {bound}"
        ));
    }
    for r in s.take_compaction_reports() {
        if (r.live_objects_before, r.live_objects_after) != (model.len(), model.len())
            || (r.live_bytes_before, r.live_bytes_after) != (payload, payload)
        {
            return Err(format!("pass report disagrees with the model: {r:?}"));
        }
    }
    Ok(())
}

fn check_contents(s: &mut SegmentStore, model: &HashMap<u64, Vec<u8>>) -> Result<(), String> {
    let mut keys = s.keys();
    keys.sort_unstable();
    let mut expected: Vec<u64> = model.keys().copied().collect();
    expected.sort_unstable();
    if keys != expected {
        return Err(format!("keys {keys:?}, model {expected:?}"));
    }
    for (key, want) in model {
        let got = s.load(*key).map_err(|e| format!("load {key}: {e}"))?;
        if &got != want {
            return Err(format!(
                "key {key}: {} bytes of {:?}.., model {} bytes of {:?}..",
                got.len(),
                got.first(),
                want.len(),
                want.first()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segmentstore_matches_model(
        frac in (0u8..3).prop_map(|i| [0.2, 0.5, 0.8][i as usize]),
        ops in prop::collection::vec(arb_op(), 1..160),
    ) {
        let dir = fresh_dir();
        let mut s = SegmentStore::open(dir.clone(), SEGMENT, frac).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Store(key, len, fill) => {
                    s.store(*key, &vec![*fill; *len]).unwrap();
                    model.insert(*key, vec![*fill; *len]);
                }
                Op::Batch(recs) => {
                    let payloads: Vec<Vec<u8>> =
                        recs.iter().map(|(_, len, fill)| vec![*fill; *len]).collect();
                    let items: Vec<(u64, &[u8])> = recs
                        .iter()
                        .zip(&payloads)
                        .map(|((key, ..), p)| (*key, p.as_slice()))
                        .collect();
                    s.store_batch(&items).unwrap();
                    for ((key, ..), p) in recs.iter().zip(payloads.iter()) {
                        model.insert(*key, p.clone());
                    }
                }
                Op::Remove(key) => {
                    prop_assert_eq!(s.remove(*key).is_ok(), model.remove(key).is_some());
                }
                Op::Load(key) => {
                    prop_assert_eq!(s.load(*key).ok(), model.get(key).cloned());
                    let mut buf = vec![0xEE; 2 * SEGMENT];
                    let filled = s.load_into(*key, &mut buf).ok().map(|()| buf);
                    prop_assert_eq!(filled, model.get(key).cloned());
                }
                Op::Sync => {
                    s.sync().unwrap();
                    prop_assert_eq!(s.staged_bytes(), 0);
                }
                Op::Reopen => {
                    // Drop is a clean shutdown: it seals what is staged.
                    drop(s);
                    s = SegmentStore::open(dir.clone(), SEGMENT, frac).unwrap();
                    check_contents(&mut s, &model).map_err(|e| {
                        TestCaseError::fail(format!("after reopen at op {i}: {e}"))
                    })?;
                }
            }
            check(&mut s, &model, frac)
                .map_err(|e| TestCaseError::fail(format!("after op {i} ({op:?}): {e}")))?;
        }
        check_contents(&mut s, &model)
            .map_err(|e| TestCaseError::fail(format!("at the end: {e}")))?;
        drop(s.cleanup_on_drop(true));
    }
}
