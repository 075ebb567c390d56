//! The key partitioning rule for keyed edges.
//!
//! Lowering "decides [...] keyed edges with a default or user-supplied
//! hashing scheme" (§2.1). Here there is one scheme: a key goes to shard
//! `fnv1a(key) % n` of the `n` downstream shards. It must be *stable* (same
//! key, same shard — correctness of shuffles) and reasonably *balanced*.
//! The data plane's shuffle (`shard::partition_by_key`) applies exactly
//! this rule to each row's key bytes, where a `Float64` key equal to an
//! integer takes that integer's `Int64` bytes: a key equal to an `Int64`
//! key of the other join side lands on the same shard, whatever the edge
//! feeds.

/// FNV-1a over a byte string; the key hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The shard in `[0, parts)` a key with these bytes goes to:
/// `fnv1a(key_bytes) % parts`.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn hash_shard(key_bytes: &[u8], parts: u32) -> u32 {
    assert!(parts > 0, "partition into zero shards");
    (fnv1a(key_bytes) % parts as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_in_range() {
        for key in ["alpha", "beta", "gamma"] {
            let a = hash_shard(key.as_bytes(), 7);
            assert_eq!(a, hash_shard(key.as_bytes(), 7), "key {key} moved shards");
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_is_balanced() {
        let parts = 8u32;
        let mut counts = vec![0u32; parts as usize];
        for i in 0..8000u64 {
            let key = format!("key-{i}");
            counts[hash_shard(key.as_bytes(), parts) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.3, "imbalance: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn zero_parts_panics() {
        hash_shard(b"k", 0);
    }

    #[test]
    fn fnv_known_values_differ() {
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        assert_eq!(fnv1a(b"skadi"), fnv1a(b"skadi"));
    }
}
