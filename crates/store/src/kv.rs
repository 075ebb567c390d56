//! Per-node object store with capacity accounting and eviction.
//!
//! One [`LocalStore`] models one plasma-like store: the object table of a
//! server's DRAM, a device's HBM, a memory blade's pool, or the durable
//! backstop. The cluster-wide view lives in
//! [`crate::placement::CachingLayer`].

use std::collections::HashMap;

use skadi_dcsim::time::SimTime;
use skadi_dcsim::topology::NodeId;

use crate::error::StoreError;
use crate::object::{ObjectId, ObjectMeta};
use crate::policy::EvictionPolicy;
use crate::tier::Tier;

/// A single node's object store.
#[derive(Debug, Clone)]
pub struct LocalStore {
    node: NodeId,
    tier: Tier,
    capacity: u64,
    used: u64,
    policy: EvictionPolicy,
    objects: HashMap<ObjectId, ObjectMeta>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LocalStore {
    /// Creates a store of `capacity` bytes on `node` at the given tier.
    pub fn new(node: NodeId, tier: Tier, capacity: u64, policy: EvictionPolicy) -> Self {
        LocalStore {
            node,
            tier,
            capacity,
            used: 0,
            policy,
            objects: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The node this store lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The memory tier this store represents.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently stored.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// (hits, misses, evictions) since creation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// True if the object is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Inserts an object, evicting colder objects if necessary.
    ///
    /// Returns the metadata of every evicted object (in eviction order) so
    /// the caching layer can spill them to a colder tier rather than lose
    /// them.
    pub fn put(
        &mut self,
        id: ObjectId,
        size: u64,
        now: SimTime,
    ) -> Result<Vec<ObjectMeta>, StoreError> {
        if self.objects.contains_key(&id) {
            return Err(StoreError::Duplicate(id));
        }
        if size > self.capacity {
            return Err(StoreError::OutOfCapacity {
                id,
                requested: size,
                capacity: self.capacity,
                tier: self.tier,
            });
        }
        let mut evicted: Vec<ObjectMeta> = Vec::new();
        if self.used + size > self.capacity {
            let need = self.used + size - self.capacity;
            let candidates: Vec<ObjectMeta> = {
                let mut c: Vec<ObjectMeta> = self
                    .objects
                    .values()
                    .filter(|m| !m.pinned)
                    .cloned()
                    .collect();
                // HashMap iteration order is nondeterministic; sort so the
                // policy sees a canonical candidate list.
                c.sort_by_key(|m| m.id);
                c
            };
            let victims = self.policy.victims(&candidates, need);
            let mut freed = 0u64;
            for v in victims {
                if let Some(meta) = self.objects.remove(&v) {
                    freed += meta.size;
                    self.used -= meta.size;
                    self.evictions += 1;
                    evicted.push(meta);
                }
            }
            if freed < need {
                // Roll back: re-inserting evicted objects keeps the store
                // consistent when the put is impossible (all pinned).
                for meta in evicted {
                    self.used += meta.size;
                    self.evictions -= 1;
                    self.objects.insert(meta.id, meta);
                }
                return Err(StoreError::OutOfCapacity {
                    id,
                    requested: size,
                    capacity: self.capacity,
                    tier: self.tier,
                });
            }
        }
        self.used += size;
        self.objects.insert(id, ObjectMeta::new(id, size, now));
        Ok(evicted)
    }

    /// Looks up an object, updating recency/frequency. Returns its
    /// metadata.
    pub fn get(&mut self, id: ObjectId, now: SimTime) -> Result<ObjectMeta, StoreError> {
        match self.objects.get_mut(&id) {
            Some(meta) => {
                meta.touch(now);
                self.hits += 1;
                Ok(meta.clone())
            }
            None => {
                self.misses += 1;
                Err(StoreError::NotFound(id))
            }
        }
    }

    /// An object's metadata, without touching its recency.
    pub fn meta(&self, id: ObjectId) -> Option<&ObjectMeta> {
        self.objects.get(&id)
    }

    /// Removes an object, returning its metadata.
    pub fn delete(&mut self, id: ObjectId) -> Result<ObjectMeta, StoreError> {
        match self.objects.remove(&id) {
            Some(meta) => {
                self.used -= meta.size;
                Ok(meta)
            }
            None => Err(StoreError::NotFound(id)),
        }
    }

    /// Pins or unpins an object (pinned objects are never evicted).
    pub fn set_pinned(&mut self, id: ObjectId, pinned: bool) -> Result<(), StoreError> {
        match self.objects.get_mut(&id) {
            Some(meta) => {
                meta.pinned = pinned;
                Ok(())
            }
            None => Err(StoreError::NotFound(id)),
        }
    }

    /// Metadata of every resident object, sorted by ID (deterministic).
    pub fn metas(&self) -> Vec<ObjectMeta> {
        let mut v: Vec<ObjectMeta> = self.objects.values().cloned().collect();
        v.sort_by_key(|m| m.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cap: u64) -> LocalStore {
        LocalStore::new(NodeId(0), Tier::HostDram, cap, EvictionPolicy::Lru)
    }

    #[test]
    fn put_get_delete() {
        let mut s = store(100);
        s.put(ObjectId(1), 40, SimTime::ZERO).unwrap();
        assert_eq!(s.used(), 40);
        let m = s.get(ObjectId(1), SimTime::from_micros(1)).unwrap();
        assert_eq!(m.size, 40);
        assert_eq!(m.access_count, 1);
        s.delete(ObjectId(1)).unwrap();
        assert_eq!(s.used(), 0);
        assert!(s.get(ObjectId(1), SimTime::from_micros(2)).is_err());
    }

    #[test]
    fn duplicate_put_rejected() {
        let mut s = store(100);
        s.put(ObjectId(1), 10, SimTime::ZERO).unwrap();
        assert!(matches!(
            s.put(ObjectId(1), 10, SimTime::ZERO),
            Err(StoreError::Duplicate(_))
        ));
    }

    #[test]
    fn eviction_makes_room_lru() {
        let mut s = store(100);
        s.put(ObjectId(1), 50, SimTime::ZERO).unwrap();
        s.put(ObjectId(2), 50, SimTime::ZERO).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        s.get(ObjectId(1), SimTime::from_micros(5)).unwrap();
        let evicted = s.put(ObjectId(3), 50, SimTime::from_micros(6)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, ObjectId(2));
        assert!(s.contains(ObjectId(1)));
        assert!(s.contains(ObjectId(3)));
        assert_eq!(s.used(), 100);
    }

    #[test]
    fn pinned_objects_survive_eviction() {
        let mut s = store(100);
        s.put(ObjectId(1), 60, SimTime::ZERO).unwrap();
        s.set_pinned(ObjectId(1), true).unwrap();
        s.put(ObjectId(2), 40, SimTime::ZERO).unwrap();
        // Needs 60 freed but only obj2 (40) is evictable: put must fail and
        // the store must stay consistent.
        let err = s.put(ObjectId(3), 100, SimTime::from_micros(1));
        assert!(matches!(err, Err(StoreError::OutOfCapacity { .. })));
        assert!(s.contains(ObjectId(1)));
        assert!(s.contains(ObjectId(2)));
        assert_eq!(s.used(), 100);
    }

    #[test]
    fn failed_put_rollback_preserves_payloads() {
        let mut s = store(100);
        s.put(ObjectId(1), 60, SimTime::ZERO).unwrap();
        s.set_pinned(ObjectId(1), true).unwrap();
        s.put(ObjectId(2), 4, SimTime::ZERO).unwrap();
        // Needs 64 freed but only obj2 (4 bytes) is evictable: the put
        // fails, obj2 is evicted then rolled back — it must be back with
        // its bytes counted, and the eviction must not be counted.
        let err = s.put(ObjectId(3), 100, SimTime::from_micros(1));
        assert!(matches!(err, Err(StoreError::OutOfCapacity { .. })));
        assert_eq!(s.meta(ObjectId(2)).map(|m| m.size), Some(4));
        assert_eq!(s.used(), 64);
        assert_eq!(s.stats().2, 0, "rolled-back evictions not counted");
    }

    #[test]
    fn oversized_object_rejected_outright() {
        let mut s = store(100);
        assert!(matches!(
            s.put(ObjectId(1), 101, SimTime::ZERO),
            Err(StoreError::OutOfCapacity { .. })
        ));
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut s = store(10);
        s.put(ObjectId(1), 10, SimTime::ZERO).unwrap();
        let _ = s.get(ObjectId(1), SimTime::ZERO);
        let _ = s.get(ObjectId(2), SimTime::ZERO);
        s.put(ObjectId(3), 10, SimTime::from_micros(1)).unwrap();
        assert_eq!(s.stats(), (1, 1, 1));
    }

    #[test]
    fn metas_sorted_by_id() {
        let mut s = store(100);
        s.put(ObjectId(5), 10, SimTime::ZERO).unwrap();
        s.put(ObjectId(2), 10, SimTime::ZERO).unwrap();
        let ids: Vec<u64> = s.metas().iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![2, 5]);
    }
}
