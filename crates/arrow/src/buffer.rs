//! Immutable byte buffers and packed validity bitmaps.
//!
//! [`Buffer`] wraps [`bytes::Bytes`]: cloning and slicing are O(1)
//! reference-count operations, which is what makes the IPC decode path
//! genuinely zero-copy — decoded arrays alias the wire buffer.

use bytes::Bytes;

/// An immutable, cheaply-cloneable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Buffer {
    data: Bytes,
}

impl Buffer {
    /// Wraps owned bytes.
    pub fn from_vec(v: Vec<u8>) -> Self {
        Buffer {
            data: Bytes::from(v),
        }
    }

    /// Wraps shared bytes without copying.
    pub fn from_bytes(b: Bytes) -> Self {
        Buffer { data: b }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw byte view.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// O(1) sub-slice sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, offset: usize, len: usize) -> Buffer {
        Buffer {
            data: self.data.slice(offset..offset + len),
        }
    }

    /// Reads the `T` at element index `i`.
    #[inline]
    pub fn get<T: Native>(&self, i: usize) -> T {
        let start = i * T::WIDTH;
        T::from_le(&self.data[start..start + T::WIDTH])
    }

    /// Iterates the buffer as `T`s, in one pass over the raw bytes — the
    /// tight-loop form the vectorized kernels use instead of per-element
    /// `get` calls.
    #[inline]
    pub fn iter<T: Native>(&self) -> impl Iterator<Item = T> + '_ {
        self.data.chunks_exact(T::WIDTH).map(T::from_le)
    }
}

/// A fixed-width value a [`Buffer`] stores little-endian.
pub trait Native: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Bytes per value.
    const WIDTH: usize;
    /// The placeholder a null slot holds.
    const ZERO: Self;
    /// Reads one value from exactly `WIDTH` bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Appends the value's `WIDTH` bytes.
    fn write_le(self, out: &mut Vec<u8>);
    /// Writes the value's `WIDTH` bytes into `out`, exactly that long.
    fn put_le(self, out: &mut [u8]);
}

macro_rules! native {
    ($($t:ty = $zero:expr),*) => {$(
        impl Native for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const ZERO: $t = $zero;
            #[inline]
            fn from_le(bytes: &[u8]) -> $t {
                <$t>::from_le_bytes(bytes.try_into().expect("WIDTH bytes"))
            }
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn put_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
native!(i64 = 0, f64 = 0.0, i32 = 0, u32 = 0);

impl<T: Native> From<Vec<T>> for Buffer {
    /// The values' bytes, written into a buffer sized once: appending
    /// them one value at a time measured 4x slower (16,652 `u32`s, 23
    /// against 6 µs on a 2-vCPU host).
    fn from(v: Vec<T>) -> Self {
        let mut out = vec![0u8; v.len() * T::WIDTH];
        for (bytes, x) in out.chunks_exact_mut(T::WIDTH).zip(v) {
            x.put_le(bytes);
        }
        Buffer::from_vec(out)
    }
}

/// A bit-packed boolean sequence (LSB-first within each byte), used both
/// for `Bool` array values and for validity (null) bitmaps.
///
/// Equality is *logical*: padding bits in the final byte are ignored, so
/// bitmaps built by different code paths compare equal when their bits do.
#[derive(Debug, Clone)]
pub struct Bitmap {
    bits: Buffer,
    len: usize,
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Bitmap {}

impl Bitmap {
    /// Builds a bitmap from booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut bytes = vec![0u8; bools.len().div_ceil(8)];
        for (i, b) in bools.iter().enumerate() {
            if *b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        Bitmap {
            bits: Buffer::from_vec(bytes),
            len: bools.len(),
        }
    }

    /// Builds an all-set bitmap of length `len`.
    pub fn all_set(len: usize) -> Self {
        Bitmap {
            bits: Buffer::from_vec(vec![0xFF; len.div_ceil(8)]),
            len,
        }
    }

    /// Concatenates bit runs into one bitmap whose padding bits are zero
    /// (the form [`Bitmap::from_bools`] produces, which the IPC bytes
    /// depend on). Each run is `(bits, from, len)`: `len` bits of `bits`
    /// starting at bit `from`, or `len` set bits when `bits` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if a run reaches past the end of its bitmap.
    pub(crate) fn from_runs(runs: &[(Option<&Bitmap>, usize, usize)]) -> Bitmap {
        let total: usize = runs.iter().map(|r| r.2).sum();
        let mut out = vec![0u8; total.div_ceil(8)];
        let mut at = 0;
        for &(src, from, len) in runs {
            if let Some(b) = src {
                assert!(from + len <= b.len, "bit run out of bounds for {}", b.len);
            }
            let src = src.map(|b| b.bits.as_slice());
            // Up to a byte at a time: as many bits as stay inside both
            // the current source byte and the current output byte.
            let mut done = 0;
            while done < len {
                let (s, d) = (from + done, at + done);
                let aligned = if src.is_some() { 8 - s % 8 } else { 8 };
                let take = aligned.min(8 - d % 8).min(len - done);
                let byte = src.map_or(0xFF, |b| b[s / 8] >> (s % 8));
                let bits = byte & (0xFFu16 >> (8 - take)) as u8;
                out[d / 8] |= bits << (d % 8);
                done += take;
            }
            at += len;
        }
        Bitmap {
            bits: Buffer::from_vec(out),
            len: total,
        }
    }

    /// Bits `lo..hi` as a bitmap of their own (copied, zero padding).
    pub(crate) fn slice(&self, lo: usize, hi: usize) -> Bitmap {
        assert!(lo <= hi, "bit range {lo}..{hi} is inverted");
        Bitmap::from_runs(&[(Some(self), lo, hi - lo)])
    }

    /// Reconstructs a bitmap from its packed bytes, keeping exactly the
    /// `ceil(len / 8)` that hold its bits.
    pub fn from_buffer(bits: Buffer, len: usize) -> Self {
        assert!(bits.len() >= len.div_ceil(8), "bitmap buffer too short");
        let bits = bits.slice(0, len.div_ceil(8));
        Bitmap { bits, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds for {}", self.len);
        self.bits.as_slice()[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of set bits. Popcounts the packed bytes a u64 word (eight
    /// bytes) at a time, falling back to per-byte `count_ones` for the
    /// sub-word remainder and masking the padding bits of the final byte
    /// (which `all_set` leaves set).
    pub fn count_set(&self) -> usize {
        let full_bytes = self.len / 8;
        let bytes = self.bits.as_slice();
        let mut chunks = bytes[..full_bytes].chunks_exact(8);
        let mut n: usize = 0;
        for word in &mut chunks {
            n += u64::from_le_bytes(word.try_into().expect("8 bytes")).count_ones() as usize;
        }
        n += chunks
            .remainder()
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>();
        let tail = self.len % 8;
        if tail > 0 {
            let mask = (1u16 << tail) as u8 - 1;
            n += (bytes[full_bytes] & mask).count_ones() as usize;
        }
        n
    }

    /// The packed backing buffer.
    #[inline]
    pub fn buffer(&self) -> &Buffer {
        &self.bits
    }

    /// Iterates over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_slicing_shares_data() {
        let b = Buffer::from_vec((0..32u8).collect());
        let s = b.slice(8, 8);
        assert_eq!(s.as_slice(), &(8..16u8).collect::<Vec<_>>()[..]);
        // Same backing allocation: pointer into the same range.
        let base = b.as_slice().as_ptr() as usize;
        let sub = s.as_slice().as_ptr() as usize;
        assert_eq!(sub, base + 8);
    }

    #[test]
    fn typed_reads() {
        let b: Buffer = vec![1i64, -2, i64::MAX].into();
        assert_eq!(b.get::<i64>(0), 1);
        assert_eq!(b.get::<i64>(1), -2);
        assert_eq!(b.get::<i64>(2), i64::MAX);
        let f: Buffer = vec![1.5f64, -0.25].into();
        assert_eq!(f.get::<f64>(1), -0.25);
        let i: Buffer = vec![7i32, 8, 9].into();
        assert_eq!(i.get::<i32>(2), 9);
    }

    #[test]
    fn bitmap_round_trip() {
        let bools: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        assert_eq!(bm.len(), 19);
        for (i, b) in bools.iter().enumerate() {
            assert_eq!(bm.get(i), *b, "bit {i}");
        }
        assert_eq!(bm.count_set(), bools.iter().filter(|b| **b).count());
        assert_eq!(bm.iter().collect::<Vec<_>>(), bools);
    }

    #[test]
    fn count_set_matches_naive_across_word_boundaries() {
        // Lengths chosen to hit: empty, sub-byte, sub-word, exact word
        // multiples, and word-plus-tail shapes of the popcount loop.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 128, 131, 1027] {
            let bools: Vec<bool> = (0..len).map(|i| (i * 7 + i / 3) % 5 < 2).collect();
            let bm = Bitmap::from_bools(&bools);
            let naive = bools.iter().filter(|b| **b).count();
            assert_eq!(bm.count_set(), naive, "len {len}");
        }
    }

    #[test]
    fn runs_match_naive_at_every_alignment() {
        let bools: Vec<bool> = (0..83).map(|i| (i * 5 + i / 7) % 3 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        for lo in [0usize, 1, 7, 8, 9, 30] {
            for hi in [lo, lo + 1, lo + 8, lo + 17, 83] {
                let got = bm.slice(lo, hi);
                let want = Bitmap::from_bools(&bools[lo..hi]);
                // Byte-for-byte, padding included.
                assert_eq!(got.buffer(), want.buffer(), "slice {lo}..{hi}");
                assert_eq!(got.len(), hi - lo);
            }
        }
        // Runs landing at unaligned output offsets, with an all-set run
        // (a part without a validity bitmap) in between.
        let joined = Bitmap::from_runs(&[(Some(&bm), 3, 10), (None, 0, 5), (Some(&bm), 20, 63)]);
        let mut naive = bools[3..13].to_vec();
        naive.extend([true; 5]);
        naive.extend(&bools[20..83]);
        assert_eq!(joined.buffer(), Bitmap::from_bools(&naive).buffer());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bitmap::all_set(9).slice(4, 10);
    }

    #[test]
    fn all_set_is_all_set() {
        let bm = Bitmap::all_set(10);
        assert_eq!(bm.count_set(), 10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitmap_bounds_checked() {
        Bitmap::all_set(3).get(3);
    }

    #[test]
    fn bitmap_from_buffer_reconstructs() {
        let bools = vec![true, false, true, true, false];
        let bm = Bitmap::from_bools(&bools);
        let bm2 = Bitmap::from_buffer(bm.buffer().clone(), bools.len());
        assert_eq!(bm, bm2);
    }
}
