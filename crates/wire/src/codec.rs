//! Framing and packet encode/decode.
//!
//! A frame is `len: u32 | tag: u8 | body`, all little-endian; `len`
//! counts the tag plus the body. Decoding is defensive end to end: every
//! claimed length is validated against the bytes actually present
//! *before* any allocation, so junk input — truncated frames, absurd
//! length prefixes, corrupt string lengths — yields a [`WireError`],
//! never a panic or an unbounded allocation.

use std::fmt;
use std::io::{Read, Write};

use bytes::Bytes;

use crate::packet::Packet;

/// Default upper bound on one frame's length (tag + body), 16 MiB.
/// Result blocks are chunked well below this by the server.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Errors from the codec, transports, and client.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The bytes do not form a valid frame/packet.
    Corrupt(String),
    /// A frame's length prefix exceeds the negotiated maximum. The
    /// connection cannot be resynchronized and must be dropped.
    TooLarge {
        /// Claimed frame length.
        len: usize,
        /// The configured bound.
        max: usize,
    },
    /// Handshake failed: the peer speaks a different protocol version.
    VersionMismatch {
        /// Our version.
        ours: u16,
        /// The peer's version.
        theirs: u16,
    },
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The server answered with an [`Packet::Exception`].
    Server {
        /// Machine-readable code ([`crate::packet::code`]).
        code: u16,
        /// Human-readable message.
        message: String,
    },
    /// A data block's payload failed to decode as a record batch.
    Arrow(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::Closed => write!(f, "connection closed"),
            WireError::Server { code, message } => {
                write!(f, "server exception (code {code}): {message}")
            }
            WireError::Arrow(msg) => write!(f, "payload decode: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Bounds-checked reader over a frame body.
struct BodyCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Corrupt(format!(
                "truncated body: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A length-prefixed UTF-8 string. The claimed length is validated
    /// against the remaining body before anything is copied.
    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| WireError::Corrupt("string is not UTF-8".into()))
    }

    /// A length-prefixed opaque byte payload.
    fn blob(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        Ok(Bytes::from(self.take(len)?.to_vec()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Corrupt(format!(
                "{} trailing bytes after packet body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes one packet as a complete frame (length prefix included).
pub fn encode_packet(p: &Packet) -> Vec<u8> {
    let mut body = Vec::new();
    match p {
        Packet::ClientHello {
            version,
            capabilities,
            client_name,
        } => {
            body.extend_from_slice(&version.to_le_bytes());
            body.extend_from_slice(&capabilities.to_le_bytes());
            put_string(&mut body, client_name);
        }
        Packet::ServerHello {
            version,
            capabilities,
            server_name,
        } => {
            body.extend_from_slice(&version.to_le_bytes());
            body.extend_from_slice(&capabilities.to_le_bytes());
            put_string(&mut body, server_name);
        }
        Packet::Query { id, sql } => {
            body.extend_from_slice(&id.to_le_bytes());
            put_string(&mut body, sql);
        }
        Packet::Data { query_id, payload } => {
            body.extend_from_slice(&query_id.to_le_bytes());
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(payload);
        }
        Packet::Progress {
            query_id,
            rows,
            bytes,
        } => {
            body.extend_from_slice(&query_id.to_le_bytes());
            body.extend_from_slice(&rows.to_le_bytes());
            body.extend_from_slice(&bytes.to_le_bytes());
        }
        Packet::Exception {
            query_id,
            code,
            message,
        } => {
            body.extend_from_slice(&query_id.to_le_bytes());
            body.extend_from_slice(&code.to_le_bytes());
            put_string(&mut body, message);
        }
        Packet::EndOfStream { query_id, chunks } => {
            body.extend_from_slice(&query_id.to_le_bytes());
            body.extend_from_slice(&chunks.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    out.push(p.tag());
    out.extend_from_slice(&body);
    out
}

/// Decodes a tag + body (one frame, length prefix already stripped).
fn decode_body(tag: u8, body: &[u8]) -> Result<Packet, WireError> {
    let mut cur = BodyCursor { buf: body, pos: 0 };
    let packet = match tag {
        1 => Packet::ClientHello {
            version: cur.u16()?,
            capabilities: cur.u32()?,
            client_name: cur.string()?,
        },
        2 => Packet::ServerHello {
            version: cur.u16()?,
            capabilities: cur.u32()?,
            server_name: cur.string()?,
        },
        3 => Packet::Query {
            id: cur.u64()?,
            sql: cur.string()?,
        },
        4 => Packet::Data {
            query_id: cur.u64()?,
            payload: cur.blob()?,
        },
        5 => Packet::Progress {
            query_id: cur.u64()?,
            rows: cur.u64()?,
            bytes: cur.u64()?,
        },
        6 => Packet::Exception {
            query_id: cur.u64()?,
            code: cur.u16()?,
            message: cur.string()?,
        },
        7 => Packet::EndOfStream {
            query_id: cur.u64()?,
            chunks: cur.u32()?,
        },
        other => return Err(WireError::Corrupt(format!("unknown packet tag {other}"))),
    };
    cur.finish()?;
    Ok(packet)
}

/// Decodes the first complete frame in `buf`, returning the packet and
/// the number of bytes consumed. Errors if the buffer holds no complete,
/// valid frame — truncated input is [`WireError::Corrupt`], an oversized
/// length prefix is [`WireError::TooLarge`]. Never panics on any input.
pub fn decode_frame(buf: &[u8], max_frame: usize) -> Result<(Packet, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Corrupt(format!(
            "truncated length prefix: have {} of 4 bytes",
            buf.len()
        )));
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err(WireError::Corrupt("zero-length frame".into()));
    }
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    if buf.len() - 4 < len {
        return Err(WireError::Corrupt(format!(
            "truncated frame: length prefix says {len}, have {}",
            buf.len() - 4
        )));
    }
    let packet = decode_body(buf[4], &buf[5..4 + len])?;
    Ok((packet, 4 + len))
}

/// Writes one packet as a frame and flushes.
pub fn write_packet<W: Write>(w: &mut W, p: &Packet) -> Result<(), WireError> {
    w.write_all(&encode_packet(p))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from the stream. A clean EOF before the first prefix
/// byte is [`WireError::Closed`]; EOF mid-frame is [`WireError::Corrupt`].
/// An oversized length prefix is reported *without* reading (or
/// allocating) the claimed bytes; the caller must drop the connection.
pub fn read_packet<R: Read>(r: &mut R, max_frame: usize) -> Result<Packet, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Err(WireError::Closed),
            0 => {
                return Err(WireError::Corrupt(format!(
                    "eof inside length prefix after {got} bytes"
                )))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Err(WireError::Corrupt("zero-length frame".into()));
    }
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            WireError::Corrupt(format!("eof inside {len}-byte frame body"))
        }
        _ => WireError::Io(e),
    })?;
    decode_body(frame[0], &frame[1..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{code, CAP_PROGRESS, PROTOCOL_VERSION};

    fn samples() -> Vec<Packet> {
        vec![
            Packet::ClientHello {
                version: PROTOCOL_VERSION,
                capabilities: CAP_PROGRESS,
                client_name: "test-client".into(),
            },
            Packet::ServerHello {
                version: PROTOCOL_VERSION,
                capabilities: 0,
                server_name: "skadi".into(),
            },
            Packet::Query {
                id: 7,
                sql: "SELECT name FROM people WHERE name = 'O''Brien'".into(),
            },
            Packet::Data {
                query_id: 7,
                payload: Bytes::from(vec![1, 2, 3, 255, 0]),
            },
            Packet::Progress {
                query_id: 7,
                rows: 1024,
                bytes: 65536,
            },
            Packet::Exception {
                query_id: 7,
                code: code::SQL,
                message: "unterminated string literal starting at offset 3".into(),
            },
            Packet::EndOfStream {
                query_id: 7,
                chunks: 3,
            },
        ]
    }

    #[test]
    fn round_trip_every_packet_type() {
        for p in samples() {
            let frame = encode_packet(&p);
            let (back, used) = decode_frame(&frame, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(back, p);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn stream_round_trip() {
        let mut buf = Vec::new();
        for p in samples() {
            write_packet(&mut buf, &p).unwrap();
        }
        let mut r = &buf[..];
        for p in samples() {
            assert_eq!(read_packet(&mut r, DEFAULT_MAX_FRAME).unwrap(), p);
        }
        assert!(matches!(
            read_packet(&mut r, DEFAULT_MAX_FRAME),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn truncation_at_every_length_errors_never_panics() {
        for p in samples() {
            let frame = encode_packet(&p);
            for cut in 0..frame.len() {
                assert!(
                    decode_frame(&frame[..cut], DEFAULT_MAX_FRAME).is_err(),
                    "{} truncated to {cut} bytes decoded",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let frame = u32::MAX.to_le_bytes();
        match decode_frame(&frame, DEFAULT_MAX_FRAME) {
            Err(WireError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Same through the stream path: the reader must report the bound
        // violation without trying to read 4 GiB.
        let mut r = &frame[..];
        assert!(matches!(
            read_packet(&mut r, DEFAULT_MAX_FRAME),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn corrupt_string_length_rejected() {
        // A Query frame whose sql-length field claims more bytes than the
        // body holds.
        let mut frame = encode_packet(&Packet::Query {
            id: 1,
            sql: "SELECT 1".into(),
        });
        // The string length lives right after prefix(4) + tag(1) + id(8).
        frame[13] = 0xFF;
        frame[14] = 0xFF;
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let mut frame = encode_packet(&Packet::Query {
            id: 1,
            sql: "SELECT 1".into(),
        });
        let body_start = 4 + 1 + 8 + 4;
        frame[body_start] = 0xFF; // invalid UTF-8 lead byte
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_packet(&Packet::EndOfStream {
            query_id: 1,
            chunks: 1,
        });
        // Grow the body by one byte and fix the prefix to match.
        frame.push(0);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        let frame = [2u8, 0, 0, 0, 99, 0];
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let frame = [0u8, 0, 0, 0];
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }
}
