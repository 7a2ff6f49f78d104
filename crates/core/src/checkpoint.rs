//! Checkpoint/restore on top of the out-of-core subsystem.
//!
//! The paper's conclusion notes that "check and restore functionality for
//! fault tolerance can be implemented with little effort on top of the
//! out-of-core subsystem" — the machinery that serializes mobile objects
//! (and their queued messages) for disk spill is exactly a checkpoint
//! format. A [`Checkpoint`] ([`Runtime::checkpoint`]) captures every live
//! object, its placement, pinning, priority, and queued messages;
//! [`Checkpoint::restore_into`] rebuilds a runtime that continues from the
//! captured state. Both are written once, for either engine (capture at
//! the quiescence barrier between mesh phases, restore into a fresh
//! runtime).
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
//! taken at quiescence (after [`Runtime::run`] returns),
//! which is also when an application would naturally persist between
//! phases. Virtual clocks restart from zero in the restored runtime.

use crate::codec::{PayloadReader, PayloadWriter, Truncated};
use crate::fault::MrtsError;
use crate::ids::{MobilePtr, NodeId, ObjectId};
use crate::msg::Message;
use crate::runtime::{home_of, Engine, Runtime};
use crate::storage::{SegmentStore, StorageBackend};
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

/// The manifest's key in a segmented checkpoint, which no entry index
/// reaches (entry `i` is stored under key `i`). It is written (and synced)
/// last, making it the commit record.
const MANIFEST_KEY: u64 = u64::MAX;

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
    /// [`SegmentStore`]: one record per entry (entry `i` under key `i`),
    /// then the manifest under key `u64::MAX`, then `sync`. If the
    /// process dies mid-write, replay tolerates the torn tail and
    /// [`Checkpoint::read_segmented`] reports the checkpoint as corrupt
    /// (missing manifest) rather than returning partial state.
    pub fn write_segmented(&self, dir: &Path) -> std::io::Result<()> {
        let mut store = SegmentStore::open(dir.to_path_buf(), 1 << 20, 1.0)?;
        for (i, e) in self.objects.iter().enumerate() {
            let mut w = PayloadWriter::with_capacity(e.packed.len() + 64);
            Self::encode_entry(&mut w, e);
            store.store(i as u64, &w.finish())?;
        }
        store.store(MANIFEST_KEY, &self.encode_manifest())?;
        store.sync()
    }

    /// Read a checkpoint written by [`Checkpoint::write_segmented`]. A
    /// missing or unparsable manifest (crash before the final sync) or a
    /// missing entry yields [`MrtsError::CheckpointCorrupt`].
    pub fn read_segmented(dir: &Path) -> Result<Checkpoint, MrtsError> {
        let mut store = SegmentStore::open(dir.to_path_buf(), 1 << 20, 1.0)
            .map_err(|e| corrupt(format!("cannot open checkpoint dir: {e}")))?;
        let manifest = store.load(MANIFEST_KEY).map_err(|_| {
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
                .load(i as u64)
                .map_err(|_| corrupt(format!("entry {i} missing")))?;
            let mut er = PayloadReader::new(&bytes);
            objects.push(
                Self::decode_entry(&mut er).map_err(|_| corrupt(format!("entry {i} corrupt")))?,
            );
        }
        Ok(Checkpoint { objects, next_seq })
    }

    /// Rebuild a runtime's state from this checkpoint. `rt` must be
    /// freshly constructed with the same types and handlers registered; its
    /// configuration may differ (more or fewer nodes, other budgets). The
    /// objects land on the runtime's cores at once, admitted like
    /// [`Runtime::create_object`]'s, and their queued messages go out when
    /// the next run starts. Each object goes back on its captured node
    /// if that exists, else on its home node modulo the cluster size (the
    /// router's cold-directory fallback); an object placed away from its
    /// home is announced to the home's directory, so messages routed there
    /// find it. Its queued messages are posted again, and every node's id
    /// allocator starts past both its captured watermark and every
    /// restored id of that home, wherever that object was placed.
    pub fn restore_into<E: Engine>(&self, rt: &mut Runtime<E>) {
        let nodes = rt.config().nodes;
        let mut next_seq = self.next_seq.clone();
        next_seq.resize(nodes.max(next_seq.len()), 0);
        for e in &self.objects {
            let node = if (e.node as usize) < nodes {
                e.node
            } else {
                home_of(e.oid, nodes) as NodeId
            };
            let obj = (rt.registry.unpack(&e.packed))
                .expect("checkpoint entries hold pack output of registered types");
            rt.place(node, e.oid, obj, e.priority, e.locked);
            for m in &e.queued {
                rt.post(MobilePtr::new(e.oid), m.handler, m.payload.clone());
            }
            let home = e.oid.home() as usize;
            if home < next_seq.len() {
                next_seq[home] = next_seq[home].max(e.oid.seq() + 1);
            }
        }
        for (s, &captured) in rt.next_seq.iter_mut().zip(&next_seq) {
            *s = (*s).max(captured);
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
}
