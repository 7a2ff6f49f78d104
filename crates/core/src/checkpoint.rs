//! Checkpoint/restore on top of the out-of-core subsystem.
//!
//! The paper's conclusion notes that "check and restore functionality for
//! fault tolerance can be implemented with little effort on top of the
//! out-of-core subsystem" — the machinery that serializes mobile objects
//! (and their queued messages) for disk spill is exactly a checkpoint
//! format. A [`Checkpoint`] captures every live object, its placement, pinning,
//! priority, and queued messages; restoring rebuilds a runtime that
//! continues from the captured state. Both engines are covered: the
//! virtual-time [`DesRuntime`] and the threaded
//! [`crate::threaded::ThreadedRuntime`] (capture at the quiescence
//! barrier between mesh phases, restore into a fresh runtime).
//!
//! Two on-disk shapes exist:
//!
//! * [`Checkpoint::encode`]/[`Checkpoint::decode`] — one flat buffer,
//!   suitable for a single atomic file write.
//! * [`Checkpoint::write_segmented`]/[`Checkpoint::read_segmented`] — a
//!   [`SegmentStore`]-backed directory written **crash-consistently**:
//!   entries first, a manifest under a reserved key last, sealed by
//!   `sync`. A crash mid-write leaves a torn tail the replay tolerates;
//!   the missing manifest then makes the half-written checkpoint
//!   *detectably* invalid ([`MrtsError::CheckpointCorrupt`]) instead of
//!   silently partial.
//!
//! Limitations (documented, not hidden): in-flight events (messages between
//! nodes, active disk transfers) are *not* captured — a checkpoint must be
//! taken at quiescence (after [`crate::des::DesRuntime::run`] returns),
//! which is also when an application would naturally persist between
//! phases. Virtual clocks restart from zero in the restored runtime.

use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::des::DesRuntime;
use crate::fault::MrtsError;
use crate::ids::{MobilePtr, NodeId, ObjectId};
use crate::msg::Message;
use crate::storage::{SegmentStore, StorageBackend};
use crate::threaded::ThreadedRuntime;
use std::path::Path;

/// A serialized snapshot of all application state in a runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Per object: placement node, id, priority, pinned, packed bytes,
    /// queued messages.
    pub objects: Vec<CheckpointEntry>,
    /// Per-node object-id allocation watermarks (so restored runtimes never
    /// reuse ids).
    pub next_seq: Vec<u64>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEntry {
    pub node: NodeId,
    pub oid: ObjectId,
    pub priority: u8,
    pub locked: bool,
    pub packed: Vec<u8>,
    pub queued: Vec<Message>,
}

const MAGIC: u32 = 0x4d435031; // "MCP1"

/// Key of entry `i` in checkpoint scope `scope`. Scope 0 reproduces the
/// unscoped layout exactly (entries keyed `0..n`), so scoped readers and
/// writers interoperate with pre-scope checkpoints.
fn entry_key(scope: u32, i: usize) -> u64 {
    ((scope as u64) << 32) | i as u64
}

/// Manifest key of `scope`: counted down from `u64::MAX`, so scope 0 is
/// the classic unscoped manifest key. The manifest lives under a key no
/// entry index can reach — entry keys top out at
/// `(u32::MAX-1) << 32 | u32::MAX`, strictly below every manifest key —
/// and it is written (and synced) last, making it the commit record.
fn manifest_key(scope: u32) -> u64 {
    u64::MAX - scope as u64
}

fn corrupt(msg: impl Into<String>) -> MrtsError {
    MrtsError::CheckpointCorrupt(msg.into())
}

impl Checkpoint {
    fn encode_entry(w: &mut PayloadWriter, e: &CheckpointEntry) {
        w.u32(e.node as u32)
            .u64(e.oid.0)
            .u8(e.priority)
            .u8(e.locked as u8)
            .bytes(&e.packed);
        w.u32(e.queued.len() as u32);
        for m in &e.queued {
            w.bytes(&m.encode());
        }
    }

    fn decode_entry(r: &mut PayloadReader) -> Result<CheckpointEntry, Truncated> {
        let node = r.u32()? as NodeId;
        let oid = ObjectId(r.u64()?);
        let priority = r.u8()?;
        let locked = r.u8()? != 0;
        let packed = r.bytes()?.to_vec();
        let n_msgs = r.u32()? as usize;
        let mut queued = Vec::with_capacity(n_msgs.min(1 << 16));
        for _ in 0..n_msgs {
            queued.push(Message::decode(r.bytes()?)?);
        }
        Ok(CheckpointEntry {
            node,
            oid,
            priority,
            locked,
            packed,
            queued,
        })
    }

    fn encode_manifest(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u32(MAGIC);
        w.u32(self.next_seq.len() as u32);
        for &s in &self.next_seq {
            w.u64(s);
        }
        w.u32(self.objects.len() as u32);
        w.finish()
    }

    /// Serialize the checkpoint to bytes (suitable for a file).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        w.u32(MAGIC);
        w.u32(self.next_seq.len() as u32);
        for &s in &self.next_seq {
            w.u64(s);
        }
        w.u32(self.objects.len() as u32);
        for e in &self.objects {
            Self::encode_entry(&mut w, e);
        }
        w.finish()
    }

    /// Inverse of [`Checkpoint::encode`].
    pub fn decode(buf: &[u8]) -> Result<Checkpoint, Truncated> {
        let mut r = PayloadReader::new(buf);
        if r.u32()? != MAGIC {
            return Err(Truncated);
        }
        let n_nodes = r.u32()? as usize;
        let mut next_seq = Vec::with_capacity(n_nodes.min(1 << 16));
        for _ in 0..n_nodes {
            next_seq.push(r.u64()?);
        }
        let n = r.u32()? as usize;
        let mut objects = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            objects.push(Self::decode_entry(&mut r)?);
        }
        Ok(Checkpoint { objects, next_seq })
    }

    /// Write the checkpoint crash-consistently into `dir` on a
    /// [`SegmentStore`]: one record per entry (keyed by index), then the
    /// manifest under [`manifest_key`]`(0)`, then `sync`. If the process dies
    /// mid-write, replay tolerates the torn tail and
    /// [`Checkpoint::read_segmented`] reports the checkpoint as corrupt
    /// (missing manifest) rather than returning partial state.
    pub fn write_segmented(&self, dir: &Path) -> std::io::Result<()> {
        let mut store = SegmentStore::open(dir.to_path_buf(), 1 << 20, 1.0)?;
        self.write_scoped(&mut store, 0)
    }

    /// Write this checkpoint into an **open, shared** [`SegmentStore`]
    /// under checkpoint scope `scope`. Many independent checkpoints (one
    /// per job — the job service's crash-recovery path) coexist in one
    /// store: entries of scope `s` are keyed `(s << 32) | index`, the
    /// scope's manifest at `u64::MAX - s`, written and synced last as
    /// that scope's commit record. A crash tearing one scope's tail
    /// leaves every other scope's manifest (and therefore its
    /// checkpoint) untouched. Scope 0 is exactly the
    /// [`Checkpoint::write_segmented`] layout.
    pub fn write_scoped(&self, store: &mut SegmentStore, scope: u32) -> std::io::Result<()> {
        for (i, e) in self.objects.iter().enumerate() {
            let mut w = PayloadWriter::with_capacity(e.packed.len() + 64);
            Self::encode_entry(&mut w, e);
            store.store(entry_key(scope, i), &w.finish())?;
        }
        store.store(manifest_key(scope), &self.encode_manifest())?;
        store.sync()
    }

    /// Read a checkpoint written by [`Checkpoint::write_segmented`]. A
    /// missing or unparsable manifest (crash before the final sync) or a
    /// missing entry yields [`MrtsError::CheckpointCorrupt`].
    pub fn read_segmented(dir: &Path) -> Result<Checkpoint, MrtsError> {
        let mut store = SegmentStore::open(dir.to_path_buf(), 1 << 20, 1.0)
            .map_err(|e| corrupt(format!("cannot open checkpoint dir: {e}")))?;
        Self::read_scoped(&mut store, 0)
    }

    /// Read the checkpoint of `scope` from a shared store (inverse of
    /// [`Checkpoint::write_scoped`]). A torn or missing manifest — or a
    /// missing entry — corrupts only this scope;
    /// [`MrtsError::CheckpointCorrupt`] is returned and sibling scopes
    /// remain readable.
    pub fn read_scoped(store: &mut SegmentStore, scope: u32) -> Result<Checkpoint, MrtsError> {
        let manifest = store.load(manifest_key(scope)).map_err(|_| {
            corrupt("manifest missing — checkpoint incomplete (crash before seal?)")
        })?;
        let mut r = PayloadReader::new(&manifest);
        if r.u32().map_err(|_| corrupt("manifest truncated"))? != MAGIC {
            return Err(corrupt("bad manifest magic"));
        }
        let n_nodes = r.u32().map_err(|_| corrupt("manifest truncated"))? as usize;
        let mut next_seq = Vec::with_capacity(n_nodes.min(1 << 16));
        for _ in 0..n_nodes {
            next_seq.push(r.u64().map_err(|_| corrupt("manifest truncated"))?);
        }
        let n = r.u32().map_err(|_| corrupt("manifest truncated"))? as usize;
        let mut objects = Vec::with_capacity(n.min(1 << 20));
        for i in 0..n {
            let bytes = store
                .load(entry_key(scope, i))
                .map_err(|_| corrupt(format!("entry {i} missing")))?;
            let mut er = PayloadReader::new(&bytes);
            objects.push(
                Self::decode_entry(&mut er).map_err(|_| corrupt(format!("entry {i} corrupt")))?,
            );
        }
        Ok(Checkpoint { objects, next_seq })
    }

    /// Rebuild a [`ThreadedRuntime`] from this checkpoint. The runtime must
    /// be freshly constructed with the same types/handlers registered;
    /// objects are installed as bootstrap actions and come to life on the
    /// next [`ThreadedRuntime::run`]. Placement follows the same rule as
    /// [`Checkpoint::restore_into`]: the captured node if it exists under
    /// the new configuration, otherwise home-modulo-cluster-size (the
    /// router's cold-directory fallback). Restoring onto the same node
    /// count is the supported, tested path; cross-shape restores work but
    /// reshuffle migrated objects back toward their home nodes.
    pub fn restore_into_threaded(&self, rt: &mut ThreadedRuntime) {
        let nodes = rt.config().nodes;
        for e in &self.objects {
            let node = if (e.node as usize) < nodes {
                e.node
            } else {
                (e.oid.home() as usize % nodes) as NodeId
            };
            let obj = rt
                .registry()
                .unpack(&e.packed)
                .expect("checkpoint entries hold pack output of registered types");
            rt.boot_install(node, e.oid, obj, e.priority, e.locked);
            for m in &e.queued {
                rt.post(MobilePtr::new(e.oid), m.handler, m.payload.clone());
            }
        }
        for (i, &s) in self.next_seq.iter().enumerate() {
            if i < nodes {
                rt.set_seq_watermark(i as NodeId, s);
            }
        }
    }

    /// Rebuild a runtime from this checkpoint. The caller supplies the
    /// configuration (which may differ — e.g. restore onto more nodes with
    /// different budgets; objects whose node index exceeds the new node
    /// count are placed round-robin) and must register the same types and
    /// handlers before calling [`crate::des::DesRuntime::run`].
    pub fn restore_into(&self, mut rt: DesRuntime) -> DesRuntime {
        let nodes = rt.config().nodes;
        for e in &self.objects {
            // Placement must agree with the router's fallback (home node
            // modulo cluster size) so posted messages find the object
            // without directory warm-up.
            let node = if (e.node as usize) < nodes {
                e.node
            } else {
                (e.oid.home() as usize % nodes) as NodeId
            };
            rt.install_from_checkpoint(node, e.oid, &e.packed, e.priority, e.locked);
            for m in &e.queued {
                rt.post(MobilePtr::new(e.oid), m.handler, m.payload.clone());
            }
        }
        rt.set_seq_watermarks(&self.next_seq);
        rt
    }
}

impl DesRuntime {
    /// Capture all live application state. Must be called at quiescence
    /// (before the first [`DesRuntime::run`] or after one returns).
    pub fn checkpoint(&mut self) -> Checkpoint {
        let (objects, next_seq) = self.snapshot_objects();
        Checkpoint { objects, next_seq }
    }
}

impl ThreadedRuntime {
    /// Capture all live application state from the last completed
    /// [`ThreadedRuntime::run`]. The threaded engine only reaches its
    /// result state at distributed termination (quiescence), so there are
    /// no queued messages to capture — entry queues are empty by
    /// construction. Entries are sorted by object id so two captures of
    /// the same state encode identically. A spilled object's packed bytes
    /// are copied from its node's store, not decoded and packed again.
    /// Panics if one stays unreadable under the engines' retry policy.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut objects: Vec<CheckpointEntry> = self
            .result_entries()
            .iter()
            .map(|(&oid, e)| CheckpointEntry {
                node: e.node,
                oid,
                priority: e.priority,
                locked: e.locked,
                packed: self
                    .packed_result(oid, e)
                    .unwrap_or_else(|e| panic!("MRTS checkpoint failed: {e}")),
                queued: Vec::new(),
            })
            .collect();
        objects.sort_by_key(|e| e.oid.0);
        Checkpoint {
            objects,
            next_seq: self.seq_watermarks().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HandlerId;

    #[test]
    fn empty_checkpoint_roundtrip() {
        let cp = Checkpoint {
            objects: vec![],
            next_seq: vec![3, 7],
        };
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn entry_roundtrip_with_queued_messages() {
        let oid = ObjectId::new(1, 42);
        let cp = Checkpoint {
            objects: vec![CheckpointEntry {
                node: 1,
                oid,
                priority: 200,
                locked: true,
                packed: vec![1, 2, 3, 4],
                queued: vec![Message::new(MobilePtr::new(oid), HandlerId(9), vec![5, 6])],
            }],
            next_seq: vec![0, 43],
        };
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Checkpoint::decode(&[1, 2, 3]).is_err());
        assert!(Checkpoint::decode(&[0u8; 64]).is_err());
    }

    fn cp_with(node: NodeId, seq: u64, payload: u8) -> Checkpoint {
        Checkpoint {
            objects: vec![CheckpointEntry {
                node,
                oid: ObjectId::new(node, seq),
                priority: 128,
                locked: false,
                packed: vec![payload; 256],
                queued: vec![],
            }],
            next_seq: vec![seq + 1; 2],
        }
    }

    /// Satellite coverage for the job service's shared-store recovery
    /// path: two jobs checkpoint through ONE SegmentStore under distinct
    /// scopes, and a torn tail in one job's manifest must not corrupt
    /// the other's checkpoint.
    #[test]
    fn scoped_checkpoints_share_a_store_and_tear_independently() {
        let dir = std::env::temp_dir().join(format!("mrts-scoped-cp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job_a = cp_with(0, 10, 0xAA);
        let job_b = cp_with(1, 20, 0xBB);
        {
            let mut store = SegmentStore::open(dir.clone(), 1 << 20, 1.0).unwrap();
            job_a.write_scoped(&mut store, 1).unwrap();
            job_b.write_scoped(&mut store, 2).unwrap();
        }
        // Both round-trip from a fresh open of the shared store.
        {
            let mut store = SegmentStore::open(dir.clone(), 1 << 20, 1.0).unwrap();
            assert_eq!(Checkpoint::read_scoped(&mut store, 1).unwrap(), job_a);
            assert_eq!(Checkpoint::read_scoped(&mut store, 2).unwrap(), job_b);
        }
        // Tear job B's tail: its manifest is the last record of the last
        // sealed segment (written and synced after A's seal).
        let mut segs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-"))
            })
            .collect();
        segs.sort();
        let last = segs.last().expect("sealed segments exist");
        let len = std::fs::metadata(last).unwrap().len();
        let data = std::fs::read(last).unwrap();
        std::fs::write(last, &data[..len as usize - 7]).unwrap();
        // Job B's checkpoint is now detectably corrupt; job A's survives.
        let mut store = SegmentStore::open(dir.clone(), 1 << 20, 1.0).unwrap();
        assert_eq!(
            Checkpoint::read_scoped(&mut store, 1).unwrap(),
            job_a,
            "a torn tail in job B's manifest corrupted job A's checkpoint"
        );
        assert!(matches!(
            Checkpoint::read_scoped(&mut store, 2),
            Err(MrtsError::CheckpointCorrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scope 0 is the legacy unscoped layout: a checkpoint written with
    /// `write_segmented` reads back through the scoped API and vice versa.
    #[test]
    fn scope_zero_interoperates_with_unscoped_layout() {
        let dir = std::env::temp_dir().join(format!("mrts-scope0-cp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cp = cp_with(0, 5, 0x55);
        cp.write_segmented(&dir).unwrap();
        let mut store = SegmentStore::open(dir.clone(), 1 << 20, 1.0).unwrap();
        assert_eq!(Checkpoint::read_scoped(&mut store, 0).unwrap(), cp);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = SegmentStore::open(dir.clone(), 1 << 20, 1.0).unwrap();
            cp.write_scoped(&mut store, 0).unwrap();
        }
        assert_eq!(Checkpoint::read_segmented(&dir).unwrap(), cp);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
