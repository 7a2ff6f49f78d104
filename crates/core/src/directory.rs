//! The mobile object distributed directory with lazy updates.
//!
//! Each node remembers the *last known location* of remote mobile objects.
//! A message is sent to that location; if the object has moved on, the
//! message is forwarded along the chain of last-known locations, recording
//! its route. When it finally reaches the object, *update service messages*
//! go back to every node the message passed through — the lazy update
//! scheme the paper found to be a good accuracy/overhead compromise.

use crate::ids::{NodeId, ObjectId, ObjectMap};

/// One node's view of where remote objects live.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    hints: ObjectMap<NodeId>,
    pub updates_applied: usize,
    /// Hints dropped because delivery to the hinted location kept
    /// failing (self-healing; see [`Directory::invalidate`]).
    pub hints_invalidated: usize,
}

impl Directory {
    pub fn new() -> Self {
        Directory::default()
    }

    /// Best guess for the object's location: the recorded hint, falling
    /// back to the object's home node.
    pub fn lookup(&self, oid: ObjectId) -> NodeId {
        self.hints.get(&oid).copied().unwrap_or_else(|| oid.home())
    }

    /// Record a (lazily propagated) location update.
    pub fn update(&mut self, oid: ObjectId, node: NodeId) {
        self.updates_applied += 1;
        if oid.home() == node {
            // Pointing at home is the default; keep the map small.
            self.hints.remove(&oid);
        } else {
            self.hints.insert(oid, node);
        }
    }

    /// Drop the hint for `oid` because delivery to the hinted location
    /// kept failing: subsequent [`Directory::lookup`]s fall back to the
    /// object's home node, breaking any forwarding livelock on a dead
    /// hint. Returns `true` when a hint was actually held (and counted).
    pub fn invalidate(&mut self, oid: ObjectId) -> bool {
        let had = self.hints.remove(&oid).is_some();
        if had {
            self.hints_invalidated += 1;
        }
        had
    }

    /// Number of non-default hints held.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_defaults_to_home() {
        let d = Directory::new();
        let oid = ObjectId::new(5, 77);
        assert_eq!(d.lookup(oid), 5);
    }

    #[test]
    fn update_and_lookup() {
        let mut d = Directory::new();
        let oid = ObjectId::new(5, 77);
        d.update(oid, 2);
        assert_eq!(d.lookup(oid), 2);
        assert_eq!(d.len(), 1);
        // Updating back to home removes the hint.
        d.update(oid, 5);
        assert_eq!(d.lookup(oid), 5);
        assert!(d.is_empty());
        assert_eq!(d.updates_applied, 2);
    }

    #[test]
    fn invalidate_falls_back_to_home_and_counts() {
        let mut d = Directory::new();
        let oid = ObjectId::new(1, 9);
        d.update(oid, 3);
        assert!(d.invalidate(oid));
        assert_eq!(d.lookup(oid), 1, "lookup falls back to home");
        assert_eq!(d.hints_invalidated, 1);
        // Invalidating a hint that is not held is a no-op.
        assert!(!d.invalidate(oid));
        assert_eq!(d.hints_invalidated, 1);
    }
}
