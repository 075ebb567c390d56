//! Offline stand-in for the `bytes` crate (the subset this workspace uses).
//!
//! [`Bytes`] is a cheaply cloneable, immutable byte buffer backed by an
//! `Arc<Vec<u8>>`: `Bytes::from(Vec<u8>)` keeps the vector's allocation
//! instead of copying it into a fresh one, so a buffer a kernel builds is
//! never copied on its way into an array. [`Bytes::slice`] returns a view
//! that *aliases* the parent's storage — same allocation, offset pointer —
//! which the arrow crate's zero-copy IPC decode path depends on (its tests
//! assert pointer identity between a slice and `base + offset`).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer with O(1) clone and slice.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Wraps a static slice (copies into shared storage; semantics match).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from_vec(bytes.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            offset: 0,
            len,
        }
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a sub-buffer sharing this buffer's storage.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// The contents as a plain slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::Bytes;

    #[test]
    fn slice_aliases_parent_storage() {
        let base = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let sub = base.slice(3..7);
        assert_eq!(sub.as_ref(), &[3, 4, 5, 6]);
        let base_ptr = base.as_ref().as_ptr() as usize;
        let sub_ptr = sub.as_ref().as_ptr() as usize;
        assert_eq!(sub_ptr, base_ptr + 3, "slice must alias, not copy");
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v: Vec<u8> = (0u8..64).collect();
        let ptr = v.as_ptr() as usize;
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr() as usize, ptr, "from(Vec) must not copy");
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn slice_of_slice_composes_offsets() {
        let base = Bytes::from((0u8..=99).collect::<Vec<_>>());
        let a = base.slice(10..90);
        let b = a.slice(5..15);
        assert_eq!(b.as_ref(), (15u8..25).collect::<Vec<_>>().as_slice());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![1u8, 2, 3]).slice(1..5);
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(
            Bytes::from(vec![1u8, 2]),
            Bytes::from(vec![0u8, 1, 2]).slice(1..3)
        );
    }
}
