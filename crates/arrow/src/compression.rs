//! LZ4-style byte-oriented block compression.
//!
//! The shuffle path and the wire server compress IPC frames with this
//! codec: `measured_output_bytes` — and therefore every storage/network
//! price the simulator charges — reflect the *compressed* frame length.
//!
//! The format is a self-framing LZ4-flavored block:
//!
//! ```text
//! magic "SKLZ" | raw_len u32 LE | sequences...
//! ```
//!
//! Each sequence is `token | [ext lit len] | literals | offset u16 LE |
//! [ext match len]`: the token's high nibble is the literal run length
//! and its low nibble is the match length minus [`MIN_MATCH`], both
//! extended by `0xFF`-saturated continuation bytes when they hit 15. The
//! final sequence carries literals only. A match may overlap its own
//! output (RLE-style `offset < len`): the copy repeats the last `offset`
//! bytes.
//!
//! The format says nothing about how matches are found, so the search
//! can change without a version: [`compress`] is a greedy LZ4-fast
//! search (one hash probe per position, a stride that grows through
//! incompressible stretches), and any parse it picks decodes with every
//! decoder of the format, as frames written by earlier encoders decode
//! here. The reference codec kept with the bench harness is the
//! executable spec; cross-version properties pin both directions.
//!
//! [`decompress`] is fully bounds-checked and never panics on junk,
//! truncated, or bit-flipped input — it returns [`ArrowError::Corrupt`].
//! Declared output sizes are validated against both a hard cap and the
//! codec's maximum expansion ratio before any allocation, so hostile
//! headers cannot trigger huge allocations either.

use crate::error::ArrowError;

/// Magic prefix of a compressed block. Distinct from the IPC frame magic
/// (`"SKAR"`), so a receiver can tell compressed and plain frames apart
/// from the first four bytes.
pub const COMPRESSED_MAGIC: [u8; 4] = *b"SKLZ";

/// Shortest back-reference worth encoding.
pub const MIN_MATCH: usize = 4;

/// Hard cap on a declared decompressed size (1 GiB); anything larger is
/// rejected as corrupt before allocating.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Match window: offsets are u16, so references reach back 64 KiB.
const MAX_OFFSET: usize = u16::MAX as usize;

/// The hash table holds one slot per input byte, rounded up to a power
/// of two between these bounds: a 200-byte frame clears 1 KiB, not 64.
const MIN_TABLE_BITS: u32 = 8;
const MAX_TABLE_BITS: u32 = 14;

/// After `2^SKIP_SHIFT` misses in a row the search advances two bytes
/// per probe, after twice that three, and so on (LZ4's acceleration),
/// so incompressible stretches cost a fraction of a probe per byte. A
/// match resets the count.
const SKIP_SHIFT: u32 = 6;

/// Widest run the decoder copies as one fixed-size load and store.
const WORD: usize = 8;

#[inline]
fn read_u32(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"))
}

#[inline]
fn hash4(v: u32, bits: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - bits)) as usize
}

/// Length of the longest common prefix of `raw[a..]` and `raw[b..]`
/// (`a < b`), compared a word at a time.
#[inline]
fn common_prefix(raw: &[u8], a: usize, b: usize) -> usize {
    let (x, y) = (&raw[a..], &raw[b..]);
    let mut len = 0;
    while len + 8 <= y.len() {
        let xw = u64::from_le_bytes(x[len..len + 8].try_into().expect("8 bytes"));
        let yw = u64::from_le_bytes(y[len..len + 8].try_into().expect("8 bytes"));
        let diff = xw ^ yw;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < y.len() && x[len] == y[len] {
        len += 1;
    }
    len
}

/// True if `bytes` start with the compressed-block magic.
pub fn is_compressed(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == COMPRESSED_MAGIC
}

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(0xFF);
        extra -= 255;
    }
    out.push(extra as u8);
}

// Inlined by force: on columnar frames a sequence is 5-8 bytes, and a
// call with its `Option` passed through memory costs as much as the probe.
#[inline(always)]
fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15)) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if !literals.is_empty() {
        if literals.len() >= 15 {
            write_len(out, literals.len() - 15);
        }
        out.extend_from_slice(literals);
    }
    if let Some((offset, len)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compresses `raw` into a framed block. A match never costs more bytes
/// than it covers, so the only growth is the framing: the output is at
/// most `raw.len() + raw.len() / 255 + 10` bytes (8 of header, the
/// closing token, and one length byte per 255 literals). Use
/// [`maybe_compress`] when the caller wants a never-larger guarantee.
///
/// The output is a pure function of `raw`: the search keeps no state
/// between calls.
///
/// # Panics
///
/// Panics if `raw` exceeds [`MAX_DECOMPRESSED`].
pub fn compress(raw: &[u8]) -> Vec<u8> {
    assert!(raw.len() <= MAX_DECOMPRESSED, "block too large to compress");
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&COMPRESSED_MAGIC);
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());

    // Greedy LZ4-fast matcher: a hash table over 4-byte sequences maps
    // to the most recent position probed. An empty slot reads as
    // position 0, which is as good a candidate as any — a candidate
    // counts only if it lies behind `i` and its bytes compare equal.
    let bits = (usize::BITS - raw.len().leading_zeros()).clamp(MIN_TABLE_BITS, MAX_TABLE_BITS);
    let mut table = vec![0u32; 1 << bits];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    let mut misses = 0usize;
    // The last MIN_MATCH - 1 bytes are always literals (no room to match).
    while i + MIN_MATCH <= raw.len() {
        let v = read_u32(raw, i);
        let h = hash4(v, bits);
        let c = table[h] as usize;
        table[h] = i as u32;
        if c >= i || i - c > MAX_OFFSET || read_u32(raw, c) != v {
            i += 1 + (misses >> SKIP_SHIFT);
            misses += 1;
            continue;
        }
        misses = 0;
        // Skipped-over bytes may belong to the match: take back pending
        // literals while they agree, then run forwards.
        let mut back = 0;
        while i - back > lit_start && c > back && raw[i - back - 1] == raw[c - back - 1] {
            back += 1;
        }
        let len = back + MIN_MATCH + common_prefix(raw, c + MIN_MATCH, i + MIN_MATCH);
        emit_sequence(&mut out, &raw[lit_start..i - back], Some((i - c, len)));
        i = i - back + len;
        lit_start = i;
        // Seed the tail of the match so a run keeps chaining.
        if i + 2 <= raw.len() {
            table[hash4(read_u32(raw, i - 2), bits)] = (i - 2) as u32;
        }
    }
    // The format ends on a literals-only sequence, empty if need be.
    emit_sequence(&mut out, &raw[lit_start..], None);
    out
}

/// Compresses `frame` if that makes it smaller; otherwise — or when the
/// frame is larger than [`MAX_DECOMPRESSED`], which [`compress`] cannot
/// frame — returns the original bytes. The receiver tells the cases
/// apart by magic (the plain payloads this is used on — IPC frames, wire
/// packets — never start with [`COMPRESSED_MAGIC`]).
pub fn maybe_compress(frame: &[u8]) -> Vec<u8> {
    if frame.len() <= MAX_DECOMPRESSED {
        let compressed = compress(frame);
        if compressed.len() < frame.len() {
            return compressed;
        }
    }
    frame.to_vec()
}

/// Appends `word[..n]` as one fixed-size store: all of `word`, then the
/// length cut back. The caller leaves `WORD` bytes of room.
#[inline]
fn push_short(out: &mut Vec<u8>, word: [u8; WORD], n: usize) {
    out.extend_from_slice(&word);
    out.truncate(out.len() - (WORD - n));
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, ArrowError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| ArrowError::Corrupt("compressed block truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArrowError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| ArrowError::Corrupt("compressed block truncated".into()))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn ext_len(&mut self, base: usize) -> Result<usize, ArrowError> {
        let mut len = base;
        if base == 15 {
            loop {
                let b = self.u8()?;
                len = len
                    .checked_add(b as usize)
                    .ok_or_else(|| ArrowError::Corrupt("length overflow".into()))?;
                if b != 0xFF {
                    break;
                }
            }
        }
        Ok(len)
    }

    /// The next [`WORD`] bytes without consuming them, if that many are
    /// left.
    fn word(&self) -> Option<[u8; WORD]> {
        let bytes = self.data.get(self.pos..self.pos.checked_add(WORD)?)?;
        Some(bytes.try_into().expect("a word"))
    }

    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// Decompresses a block produced by [`compress`]. Every read and copy is
/// bounds-checked; junk, truncated, or bit-flipped input yields
/// [`ArrowError::Corrupt`], never a panic.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, ArrowError> {
    if !is_compressed(frame) {
        return Err(ArrowError::Corrupt("missing compression magic".into()));
    }
    let mut r = Reader {
        data: frame,
        pos: 4,
    };
    let raw_len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")) as usize;
    if raw_len > MAX_DECOMPRESSED {
        return Err(ArrowError::Corrupt(format!(
            "declared size {raw_len} exceeds cap {MAX_DECOMPRESSED}"
        )));
    }
    // A sequence byte can produce at most 255 output bytes, so a valid
    // header can never declare more than that ratio — reject hostile
    // headers before allocating.
    let body = frame.len() - r.pos;
    if raw_len > body.saturating_mul(255).saturating_add(15) {
        return Err(ArrowError::Corrupt(
            "declared size impossible for body length".into(),
        ));
    }
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    loop {
        let token = r.u8()?;
        let lit_len = r.ext_len((token >> 4) as usize)?;
        // Most runs of a columnar frame are a few bytes: where there is
        // room to overshoot, those are one fixed-size load and store
        // instead of a `memcpy` call.
        match r.word() {
            Some(word) if lit_len <= WORD && out.len() + WORD <= raw_len => {
                push_short(&mut out, word, lit_len);
                r.pos += lit_len;
            }
            _ => {
                let literals = r.take(lit_len)?;
                if out.len() + lit_len > raw_len {
                    return Err(ArrowError::Corrupt("literal run overflows block".into()));
                }
                out.extend_from_slice(literals);
            }
        }
        if r.done() {
            // Final sequence: literals only.
            if (token & 0x0F) != 0 {
                return Err(ArrowError::Corrupt("dangling match token".into()));
            }
            break;
        }
        let offset = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
        if offset == 0 || offset > out.len() {
            return Err(ArrowError::Corrupt(format!(
                "match offset {offset} outside {} decoded bytes",
                out.len()
            )));
        }
        let match_len = r.ext_len((token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + match_len > raw_len {
            return Err(ArrowError::Corrupt("match run overflows block".into()));
        }
        let start = out.len() - offset;
        if match_len <= WORD && offset >= WORD && out.len() + WORD <= raw_len {
            let word = out[start..start + WORD].try_into().expect("a word");
            push_short(&mut out, word, match_len);
            continue;
        }
        // `out[start..]` repeats with period `offset`, so an overlapping
        // match (offset < match_len) copies everything decoded since
        // `start` — a whole number of periods — and doubles its reach.
        let mut left = match_len;
        while left > 0 {
            let n = left.min(out.len() - start);
            out.extend_from_within(start..start + n);
            left -= n;
        }
    }
    if out.len() != raw_len {
        return Err(ArrowError::Corrupt(format!(
            "decoded {} bytes, header declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(raw: &[u8]) {
        let c = compress(raw);
        assert!(is_compressed(&c));
        assert_eq!(decompress(&c).unwrap(), raw, "{} bytes", raw.len());
    }

    #[test]
    fn round_trips_representative_blocks() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0u8; 10_000]); // RLE-style overlap copies
        round_trip("hello hello hello hello!".as_bytes());
        round_trip(&(0..255u8).cycle().take(4096).collect::<Vec<_>>());
        // Long literal and match runs exercise extended lengths.
        let mut mixed: Vec<u8> = (0..100u32).flat_map(|x| x.to_le_bytes()).collect();
        mixed.extend(std::iter::repeat_n(7u8, 1000));
        mixed.extend((0..50u8).map(|x| x.wrapping_mul(17)));
        round_trip(&mixed);
    }

    #[test]
    fn repetitive_input_shrinks() {
        let raw: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 512)
            .flatten()
            .copied()
            .collect();
        let c = compress(&raw);
        assert!(c.len() * 4 < raw.len(), "{} !< {} / 4", c.len(), raw.len());
    }

    #[test]
    fn maybe_compress_never_grows() {
        // Random-ish incompressible bytes fall back to the original.
        let raw: Vec<u8> = (0u32..200)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let kept = maybe_compress(&raw);
        assert!(kept.len() <= raw.len());
        if !is_compressed(&kept) {
            assert_eq!(kept, raw);
        }
        // Compressible bytes do compress.
        let zeros = vec![0u8; 4096];
        let c = maybe_compress(&zeros);
        assert!(is_compressed(&c) && c.len() < zeros.len());
        assert_eq!(decompress(&c).unwrap(), zeros);
    }

    /// A frame `compress` cannot take travels plain instead of panicking
    /// the request path that called `maybe_compress`.
    #[test]
    fn maybe_compress_passes_an_oversized_frame_through() {
        // Never-written zero pages: only the returned copy is resident.
        let frame = vec![0u8; MAX_DECOMPRESSED + 1];
        let kept = maybe_compress(&frame);
        assert_eq!(kept.len(), frame.len());
        assert!(!is_compressed(&kept));
    }

    #[test]
    fn incompressible_input_grows_by_at_most_the_documented_bound() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..70_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for len in (0..=600).chain([4_096, 65_535, 70_000]) {
            let raw = &noise[..len];
            let c = compress(raw);
            assert!(
                c.len() <= len + len / 255 + 10,
                "{len} bytes became {}",
                c.len()
            );
            assert_eq!(decompress(&c).unwrap(), raw);
        }
        // The bound is met: 15 + 255 literals need two length bytes.
        assert_eq!(compress(&noise[..270]).len(), 270 + 1 + 10);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(decompress(b"").is_err());
        assert!(decompress(b"SKL").is_err());
        assert!(decompress(b"XXXX\x00\x00\x00\x00").is_err());
        // Declared size beyond the cap.
        let mut huge = COMPRESSED_MAGIC.to_vec();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decompress(&huge).is_err());
        // Declared size impossible for the body length.
        let mut lying = COMPRESSED_MAGIC.to_vec();
        lying.extend_from_slice(&1_000_000u32.to_le_bytes());
        lying.push(0x00);
        assert!(decompress(&lying).is_err());
    }

    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let raw: Vec<u8> = std::iter::repeat_n(b"skadi shuffle frame ".as_slice(), 64)
            .flatten()
            .copied()
            .collect();
        let c = compress(&raw);
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]); // must not panic
        }
        for i in 0..c.len() {
            for bit in 0..8 {
                let mut m = c.clone();
                m[i] ^= 1 << bit;
                if let Ok(out) = decompress(&m) {
                    // A surviving decode must still honor the header.
                    assert!(out.len() <= MAX_DECOMPRESSED);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_round_trip(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let c = compress(&raw);
            prop_assert_eq!(decompress(&c).unwrap(), raw);
        }

        #[test]
        fn prop_junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&junk);
            let mut framed = COMPRESSED_MAGIC.to_vec();
            framed.extend_from_slice(&junk);
            let _ = decompress(&framed);
        }

        #[test]
        fn prop_repetition_round_trips_through_overlap(
            unit in proptest::collection::vec(any::<u8>(), 1..16),
            reps in 1usize..200,
        ) {
            let raw: Vec<u8> = std::iter::repeat_n(unit.as_slice(), reps).flatten().copied().collect();
            let c = compress(&raw);
            prop_assert_eq!(decompress(&c).unwrap(), raw);
        }
    }
}
