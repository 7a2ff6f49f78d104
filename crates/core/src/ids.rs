//! Identifiers: object ids, mobile pointers, handler and type tags.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a (simulated or real) node; re-exported from the fabric.
pub type NodeId = armci_sim::NodeId;

/// Globally unique mobile object identifier: the high 16 bits are the
/// *home* node (where the object was created), the low 48 bits a per-node
/// sequence number. The home node is only a naming scheme — objects are
/// location-independent and may live anywhere.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    pub fn new(home: NodeId, seq: u64) -> Self {
        debug_assert!(seq < (1 << 48));
        ObjectId(((home as u64) << 48) | seq)
    }

    /// The node that created the object.
    pub fn home(&self) -> NodeId {
        (self.0 >> 48) as NodeId
    }

    /// Per-home-node sequence number.
    pub fn seq(&self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}:{}", self.home(), self.seq())
    }
}

/// Hasher for maps keyed by [`ObjectId`]: one full 64 × 64 → 128-bit
/// multiply by an odd constant (2⁶⁴ / φ), the two halves XOR-folded. The
/// map takes its bucket from the low bits and its 7-bit tag from the top
/// bits. A plain wrapping multiply would leave the low bits a function of
/// the sequence number alone (bits of a product depend only on the bits
/// below them), so equal sequence numbers of different homes would share
/// a bucket; the high half depends on every bit of the id, and the fold
/// spreads sequential ids of any number of homes over both. Object ids are
/// minted by the runtime, never taken from outside input, so the keyed
/// SipHash default would buy no collision resistance here — only cost on
/// the hot lookups: the eviction scan's, routing's and every send's.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ObjectIdHasher(u64);

impl Hasher for ObjectIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        let full = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = full as u64 ^ (full >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// A `HashMap` keyed by [`ObjectId`] under [`ObjectIdHasher`].
pub(crate) type ObjectMap<V> = HashMap<ObjectId, V, BuildHasherDefault<ObjectIdHasher>>;

/// A location-independent reference to a mobile object.
///
/// Sending a message to a mobile pointer works no matter where the object
/// currently lives (another node, or out-of-core on disk) — the runtime
/// routes and queues as needed. The pointer itself is plain data and can be
/// stored inside other mobile objects and shipped in message payloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MobilePtr {
    pub id: ObjectId,
}

impl MobilePtr {
    pub fn new(id: ObjectId) -> Self {
        MobilePtr { id }
    }

    /// Serialize into 8 bytes (for embedding in payloads).
    pub fn to_bytes(&self) -> [u8; 8] {
        self.id.0.to_le_bytes()
    }

    pub fn from_bytes(b: [u8; 8]) -> Self {
        MobilePtr {
            id: ObjectId(u64::from_le_bytes(b)),
        }
    }
}

impl fmt::Debug for MobilePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{:?}", self.id)
    }
}

/// Application-defined message handler identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HandlerId(pub u32);

/// Application-defined mobile object type tag, used to select the decoder
/// when an object is loaded from disk or installed after migration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TypeTag(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_packing() {
        let id = ObjectId::new(513, 0x1234_5678_9abc);
        assert_eq!(id.home(), 513);
        assert_eq!(id.seq(), 0x1234_5678_9abc);
        assert_eq!(format!("{id:?}"), "obj:513:20015998343868");
    }

    #[test]
    fn mobile_ptr_roundtrip() {
        let p = MobilePtr::new(ObjectId::new(3, 42));
        let q = MobilePtr::from_bytes(p.to_bytes());
        assert_eq!(p, q);
    }

    #[test]
    fn sequential_ids_spread_over_bucket_and_tag_bits() {
        use std::hash::Hash;
        let hash = |oid: ObjectId| {
            let mut h = ObjectIdHasher::default();
            oid.hash(&mut h);
            h.finish()
        };
        for homes in 1u16..=16 {
            let per_home = 4096 / u64::from(homes);
            let hashes: Vec<u64> = (1..=homes)
                .flat_map(|home| (0..per_home).map(move |seq| ObjectId::new(home, seq)))
                .map(hash)
                .collect();
            let n = hashes.len();
            // Bucket index at the table size a 4096-entry map grows to.
            let mut buckets: Vec<u64> = hashes.iter().map(|h| h & 8191).collect();
            buckets.sort_unstable();
            buckets.dedup();
            assert!(
                buckets.len() * 10 >= n * 7,
                "{homes} homes: {} distinct buckets of {n} ids",
                buckets.len()
            );
            // The 7-bit tag: every value used, none more than twice its share.
            let mut tags = [0usize; 128];
            for h in &hashes {
                tags[(h >> 57) as usize] += 1;
            }
            let (lo, hi) = (tags.iter().min().unwrap(), tags.iter().max().unwrap());
            assert!(
                *lo > 0 && *hi <= 2 * n / 128,
                "{homes} homes: tag counts {lo}..{hi}"
            );
        }
    }

    #[test]
    fn ids_are_ordered_by_home_then_seq() {
        let a = ObjectId::new(1, 100);
        let b = ObjectId::new(2, 0);
        let c = ObjectId::new(2, 1);
        assert!(a < b && b < c);
    }
}
