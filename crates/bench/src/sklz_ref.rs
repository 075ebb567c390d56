//! The SKLZ codec as it stood before the LZ4-fast rewrite of
//! `skadi_arrow::compression`, kept verbatim as the executable spec of
//! the frame format (the way `baseline` keeps the stringly engine):
//! the cross-version properties in `tests/properties.rs` decode each
//! codec's frames with the other, and `exec-bench`'s `sklz_*` rows time
//! the kernels against it. Bench and test only — CI greps that nothing
//! under `crates/*/src` outside this crate names it.

use skadi_arrow::compression::{is_compressed, COMPRESSED_MAGIC, MAX_DECOMPRESSED, MIN_MATCH};
use skadi_arrow::error::ArrowError;

/// Match window: offsets are u16, so references reach back 64 KiB.
const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(0xFF);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15)) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compresses `raw` into a framed block. Incompressible input grows by a
/// small constant plus one byte per 255 input bytes.
///
/// # Panics
///
/// Panics if `raw` exceeds [`MAX_DECOMPRESSED`].
pub fn compress(raw: &[u8]) -> Vec<u8> {
    assert!(raw.len() <= MAX_DECOMPRESSED, "block too large to compress");
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&COMPRESSED_MAGIC);
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());

    // Greedy LZ4-style matcher: a hash table over 4-byte sequences maps
    // to the most recent position; `0` means empty (positions are
    // stored + 1).
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // The last MIN_MATCH bytes are always literals (no room to match).
    while i + MIN_MATCH <= raw.len() {
        let h = hash4(&raw[i..]);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        let found = candidate > 0 && {
            let c = candidate - 1;
            i - c <= MAX_OFFSET && raw[c..c + MIN_MATCH] == raw[i..i + MIN_MATCH]
        };
        if !found {
            i += 1;
            continue;
        }
        let c = candidate - 1;
        let mut len = MIN_MATCH;
        while i + len < raw.len() && raw[c + len] == raw[i + len] {
            len += 1;
        }
        emit_sequence(&mut out, &raw[lit_start..i], Some((i - c, len)));
        // Seed the table inside the match so runs keep chaining.
        let mut j = i + 1;
        while j + MIN_MATCH <= raw.len() && j < i + len {
            table[hash4(&raw[j..])] = (j + 1) as u32;
            j += 1;
        }
        i += len;
        lit_start = i;
    }
    if lit_start < raw.len() || raw.is_empty() {
        emit_sequence(&mut out, &raw[lit_start..], None);
    } else {
        // Format requires a terminating literals-only sequence.
        emit_sequence(&mut out, &[], None);
    }
    out
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
        let literals = r.take(lit_len)?;
        if out.len() + lit_len > raw_len {
            return Err(ArrowError::Corrupt("literal run overflows block".into()));
        }
        out.extend_from_slice(literals);
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
        // Byte-at-a-time so overlapping (offset < match_len) copies work.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
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
