//! An in-memory duplex byte stream with TCP-like semantics.
//!
//! [`duplex`] returns two connected [`DuplexStream`] ends. Bytes written
//! to one end are read from the other, in order. Dropping (or
//! [`DuplexStream::shutdown`]-ing) either end closes the connection in
//! both directions: the peer's reads drain buffered bytes then return
//! EOF, and the peer's writes fail with `BrokenPipe` — exactly the
//! failure surface a TCP server sees on client disconnect, which is what
//! makes the adversarial tests deterministic.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One direction of the connection: a bounded-by-usage byte queue.
struct Pipe {
    state: Mutex<PipeState>,
    cond: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Locks the pipe. A poisoned lock is recovered: the state is a byte
    /// queue and a flag, each changed in one step, so any state a
    /// panicking holder left is a valid one.
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }
}

/// One end of an in-memory duplex connection. Implements [`Read`] and
/// [`Write`]; reads block until data arrives or the peer closes.
pub struct DuplexStream {
    /// The pipe this end reads from (peer writes into it).
    rx: Arc<Pipe>,
    /// The pipe this end writes into (peer reads from it).
    tx: Arc<Pipe>,
}

/// Creates a connected pair of in-memory streams.
pub fn duplex() -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    (
        DuplexStream {
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
        },
        DuplexStream {
            rx: a_to_b,
            tx: b_to_a,
        },
    )
}

impl DuplexStream {
    /// Closes both directions immediately (like `TcpStream::shutdown`):
    /// the peer reads EOF once it drains buffered bytes, and further
    /// writes on either end fail.
    pub fn shutdown(&self) {
        self.rx.close();
        self.tx.close();
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Read for DuplexStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut st = self.rx.lock();
        while st.buf.is_empty() && !st.closed {
            st = self
                .rx
                .cond
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.buf.is_empty() {
            return Ok(0); // closed and drained: EOF
        }
        let n = out.len().min(st.buf.len());
        let (front, back) = st.buf.as_slices();
        let from_front = n.min(front.len());
        out[..from_front].copy_from_slice(&front[..from_front]);
        out[from_front..n].copy_from_slice(&back[..n - from_front]);
        st.buf.drain(..n);
        Ok(n)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.tx.lock();
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer closed the connection",
            ));
        }
        st.buf.extend(data.iter().copied());
        self.tx.cond.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bytes_cross_in_order() {
        let (mut a, mut b) = duplex();
        a.write_all(b"hello ").unwrap();
        a.write_all(b"world").unwrap();
        let mut got = [0u8; 11];
        b.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
    }

    #[test]
    fn blocking_read_wakes_on_write() {
        let (mut a, mut b) = duplex();
        let t = thread::spawn(move || {
            let mut one = [0u8; 1];
            b.read_exact(&mut one).unwrap();
            one[0]
        });
        a.write_all(&[42]).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn drop_closes_both_directions() {
        let (mut a, mut b) = duplex();
        a.write_all(b"tail").unwrap();
        drop(a);
        // Buffered bytes still drain, then EOF.
        let mut got = Vec::new();
        b.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"tail");
        // Writes toward the dropped end fail.
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn shutdown_unblocks_reader() {
        let (a, mut b) = duplex();
        let t = thread::spawn(move || {
            let mut buf = [0u8; 8];
            b.read(&mut buf).unwrap()
        });
        a.shutdown();
        assert_eq!(t.join().unwrap(), 0);
    }
}
