//! Error type for the store.

use std::fmt;

use crate::object::ObjectId;
use crate::tier::Tier;

/// Errors from the object store and caching layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object is not present anywhere reachable.
    NotFound(ObjectId),
    /// The object cannot fit even after eviction.
    OutOfCapacity {
        /// Object that failed to fit.
        id: ObjectId,
        /// Bytes requested.
        requested: u64,
        /// Capacity of the tier it targeted.
        capacity: u64,
        /// Tier that rejected it.
        tier: Tier,
    },
    /// An object was inserted twice.
    Duplicate(ObjectId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "object {id} not found"),
            StoreError::OutOfCapacity {
                id,
                requested,
                capacity,
                tier,
            } => write!(
                f,
                "object {id} ({requested} B) cannot fit in {tier} tier of {capacity} B"
            ),
            StoreError::Duplicate(id) => write!(f, "object {id} already stored"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = StoreError::NotFound(ObjectId(7));
        assert!(e.to_string().contains("obj7"));
        let e = StoreError::Duplicate(ObjectId(1));
        assert!(e.to_string().contains("already stored"));
    }
}
