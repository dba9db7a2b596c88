//! An in-memory byte pipe for feeding snapshot readers from a socket.
//!
//! The framed serve protocol interleaves `pre` and `post` snapshot
//! chunks on one connection, while the engine reads the two sides at
//! its own pace (the materialized engine reads `pre` to its end first).
//! A bounded pipe would deadlock the moment the connection thread blocks
//! pushing bytes for the side the engine is *not* currently reading, so
//! this pipe is deliberately unbounded: the
//! connection thread demultiplexes chunks into two pipes without ever
//! blocking, and backpressure is bounded by the submission's size on the
//! wire (which the protocol already caps per frame).

use std::collections::VecDeque;
use std::io::Read;
use std::sync::mpsc::{channel, Receiver, Sender};

/// The writing half of a [`chunk_pipe`]: accepts whole byte chunks,
/// never blocks. Dropping the sender signals end-of-stream to the
/// reader.
pub struct ChunkSender {
    tx: Sender<Vec<u8>>,
}

impl ChunkSender {
    /// Queue one chunk for the reader. Empty chunks are ignored (the
    /// wire protocol uses a zero-length chunk as its own end-of-side
    /// marker; end-of-stream here is signalled by dropping the sender).
    /// Returns `false` if the reading half is gone — the producer should
    /// stop feeding, but this is not an error: a reader may legitimately
    /// stop early (e.g. after a malformed record).
    pub fn send(&self, chunk: Vec<u8>) -> bool {
        if chunk.is_empty() {
            return true;
        }
        self.tx.send(chunk).is_ok()
    }
}

/// The reading half of a [`chunk_pipe`]: a [`Read`] source that yields
/// the queued chunks in order and reports end-of-file once the sender is
/// dropped and the queue is drained.
pub struct ChunkReader {
    rx: Receiver<Vec<u8>>,
    /// Bytes received but not yet handed to `read`.
    pending: VecDeque<u8>,
}

impl Read for ChunkReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.pending.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.pending.extend(chunk),
                // sender dropped: clean end-of-stream
                Err(_) => return Ok(0),
            }
        }
        let (front, _) = self.pending.as_slices();
        let n = front.len().min(buf.len());
        buf[..n].copy_from_slice(&front[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

/// Create a connected chunk pipe: bytes pushed into the [`ChunkSender`]
/// come out of the [`ChunkReader`] in order. Both halves are `Send`, so
/// a connection thread can feed a reader running on another thread.
pub fn chunk_pipe() -> (ChunkSender, ChunkReader) {
    let (tx, rx) = channel();
    (
        ChunkSender { tx },
        ChunkReader {
            rx,
            pending: VecDeque::new(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn chunks_come_out_in_order_and_eof_follows_drop() {
        let (tx, mut rx) = chunk_pipe();
        assert!(tx.send(b"hello ".to_vec()));
        assert!(tx.send(Vec::new()), "empty chunks are a quiet no-op");
        assert!(tx.send(b"world".to_vec()));
        drop(tx);
        let mut out = String::new();
        rx.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello world");
        // fused at EOF
        let mut buf = [0u8; 4];
        assert_eq!(rx.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn small_reads_split_a_chunk() {
        let (tx, mut rx) = chunk_pipe();
        tx.send(b"abcdef".to_vec());
        drop(tx);
        let mut buf = [0u8; 4];
        assert_eq!(rx.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"abcd");
        assert_eq!(rx.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
    }

    #[test]
    fn send_reports_a_dropped_reader() {
        let (tx, rx) = chunk_pipe();
        drop(rx);
        assert!(!tx.send(b"late".to_vec()));
    }

    #[test]
    fn reader_blocks_until_bytes_arrive() {
        let (tx, mut rx) = chunk_pipe();
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(b"eventually".to_vec());
        });
        let mut out = String::new();
        rx.read_to_string(&mut out).unwrap();
        assert_eq!(out, "eventually");
        feeder.join().unwrap();
    }
}
