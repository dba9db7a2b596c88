//! The `rela serve` framed wire protocol (see `docs/SERVE_PROTOCOL.md`).
//!
//! Every message is one frame: a one-byte kind tag, a little-endian
//! `u32` payload length, then the payload. Control payloads are JSON
//! (the crate's vendored dialect); snapshot payloads are raw bytes of
//! the wire format in `docs/SNAPSHOT_FORMAT.md`, chunked. The framing
//! is deliberately dumb — no versioning handshake, no compression — so
//! a client is ~50 lines in any language.

use std::io::{IoSlice, Read, Write};

/// Job submission (client → server). Payload: the serialized
/// `JobOptions` object.
pub const KIND_JOB: u8 = 0x01;
/// One chunk of the pre-change snapshot (client → server). A
/// zero-length payload ends the side.
pub const KIND_PRE: u8 = 0x02;
/// One chunk of the post-change snapshot (client → server). A
/// zero-length payload ends the side.
pub const KIND_POST: u8 = 0x03;
/// Completed check (server → client). Payload: `{"exit", "report",
/// "stats"}`.
pub const KIND_REPORT: u8 = 0x10;
/// Failed job or protocol violation (server → client). Payload:
/// `{"message", "code"}` — `code` is one of the
/// [`error_code`](crate::serve::error_code) constants and maps to a
/// distinct client exit code (`docs/SERVE_PROTOCOL.md`).
pub const KIND_ERROR: u8 = 0x11;
/// Liveness probe (client → server), empty payload.
pub const KIND_PING: u8 = 0x20;
/// Probe reply (server → client). Payload: `{"jobs_run", "draining"}`.
pub const KIND_PONG: u8 = 0x21;
/// Ask the daemon to drain and exit (client → server), empty payload.
/// Acknowledged with a PONG before the drain begins.
pub const KIND_SHUTDOWN: u8 = 0x22;
/// Delta negotiation accept (server → client): the daemon holds the
/// base epoch the job's `delta_base` names, so the `PRE`/`POST` frames
/// that follow carry *delta documents*. Payload: `{"base"}` (the
/// agreed 32-hex epoch).
pub const KIND_DELTA_OK: u8 = 0x30;
/// Delta negotiation refusal (server → client): the daemon has no
/// retained base or a different one; the client must fall back to full
/// snapshots. Payload: `{"base", "retained"}` — the refused epoch and
/// the list of epochs the daemon still retains, newest first. The job
/// stays open — the following `PRE`/`POST` frames are a full pair.
pub const KIND_DELTA_MISS: u8 = 0x31;

/// Upper bound on one frame's payload. Large snapshots are *chunked* by
/// the sender, so a frame this big is a protocol violation, not a big
/// network — the cap keeps a malformed length prefix from soaking up
/// memory.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Write one frame: header and payload go out in one vectored write, so
/// a frame a socket takes whole costs one system call. A short write
/// resumes where it stopped; an interrupted one is retried.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload too large")
    })?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload too large",
        ));
    }
    let mut header = [kind, 0, 0, 0, 0];
    header[1..].copy_from_slice(&len.to_le_bytes());
    let (mut head, mut body) = (&header[..], payload);
    while !(head.is_empty() && body.is_empty()) {
        let written = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let of_head = written.min(head.len());
        head = &head[of_head..];
        body = &body[written - of_head..];
    }
    Ok(())
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary.
///
/// Both ends of a connection read through one `BufReader` that lives
/// across frames, so the header's two small reads are copies out of its
/// buffer and a control frame costs one `read`; a chunk payload larger
/// than the buffer is read straight into its `Vec` (in `read_to_end`'s
/// growing pieces), which is reserved but never zero-filled.
///
/// Interrupted reads (`EINTR` — signal delivery, fault injection) are
/// retried here for the kind byte; `read_exact` and `read_to_end`
/// already retry them for the length prefix and payload. A frame reader
/// must never treat a signal as a torn frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u8, Vec<u8>)>> {
    let mut kind = [0u8; 1];
    let n = loop {
        match r.read(&mut kind) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            other => break other?,
        }
    };
    if n == 0 {
        return Ok(None);
    }
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = Vec::with_capacity(len as usize);
    if r.take(u64::from(len)).read_to_end(&mut payload)? < len as usize {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some((kind[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_JOB, b"{}").unwrap();
        write_frame(&mut buf, KIND_PRE, b"").unwrap();
        write_frame(&mut buf, KIND_POST, &[0xff; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_JOB, b"{}".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PRE, Vec::new())));
        let (kind, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((kind, payload.len()), (KIND_POST, 300));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = vec![KIND_PRE];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_PRE, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_header_is_an_error_not_eof() {
        // a kind byte with no length prefix: the peer died mid-header
        for cut in 1..5 {
            let mut buf = Vec::new();
            write_frame(&mut buf, KIND_JOB, b"{}").unwrap();
            buf.truncate(cut);
            let err = read_frame(&mut &buf[..]).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn exactly_max_frame_is_accepted_and_one_more_rejected() {
        let mut buf = vec![KIND_PRE];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
        // the cap itself is legal (the payload is then simply missing,
        // which is a different — truncation — error)
        let mut buf = vec![KIND_PRE];
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_write_is_rejected_before_any_bytes_move() {
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, KIND_PRE, &huge).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "no partial frame escapes");
    }

    #[test]
    fn unknown_kind_bytes_still_frame_cleanly() {
        // the framing layer is kind-agnostic: an unknown tag reads as a
        // well-formed frame so the session layer can reject it with a
        // typed error instead of desynchronizing the stream
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x7f, b"???").unwrap();
        write_frame(&mut buf, KIND_PING, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((0x7f, b"???".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PING, Vec::new())));
    }

    /// A writer that takes 1–7 bytes a call (never more than the first
    /// non-empty slice holds) and interrupts every fourth call.
    struct Stingy {
        taken: Vec<u8>,
        tick: usize,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.tick += 1;
            if self.tick % 4 == 0 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let Some(buf) = bufs.iter().find(|b| !b.is_empty()) else {
                return Ok(0);
            };
            let n = buf.len().min(1 + self.tick % 7);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_never_tear_a_frame() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut stingy = Stingy {
            taken: Vec::new(),
            tick: 0,
        };
        write_frame(&mut stingy, KIND_JOB, b"{}").unwrap();
        write_frame(&mut stingy, KIND_PRE, b"").unwrap();
        write_frame(&mut stingy, KIND_POST, &payload).unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, KIND_JOB, b"{}").unwrap();
        write_frame(&mut whole, KIND_PRE, b"").unwrap();
        write_frame(&mut whole, KIND_POST, &payload).unwrap();
        assert_eq!(stingy.taken, whole, "same bytes however they were taken");
        let mut r = &stingy.taken[..];
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Some((KIND_JOB, b"{}".to_vec()))
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PRE, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_POST, payload)));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error_not_a_spin() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Full, KIND_PING, b"").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    /// One `BufReader` across frames — what both ends of a connection
    /// hold: whatever it read ahead past one frame is the next frame's
    /// head, at any buffer size relative to the frames.
    #[test]
    fn back_to_back_frames_through_one_bufreader_lose_no_bytes() {
        let big: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, KIND_JOB, b"{\"a\":1}").unwrap();
        write_frame(&mut wire, KIND_PRE, &big).unwrap();
        write_frame(&mut wire, KIND_PRE, b"").unwrap();
        write_frame(&mut wire, KIND_POST, b"xyz").unwrap();
        for capacity in [1, 4, 5, 6, 13, 64, 4096, 1 << 16] {
            let mut r = std::io::BufReader::with_capacity(capacity, &wire[..]);
            assert_eq!(
                read_frame(&mut r).unwrap(),
                Some((KIND_JOB, b"{\"a\":1}".to_vec())),
                "capacity {capacity}"
            );
            assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PRE, big.clone())));
            assert_eq!(read_frame(&mut r).unwrap(), Some((KIND_PRE, Vec::new())));
            assert_eq!(
                read_frame(&mut r).unwrap(),
                Some((KIND_POST, b"xyz".to_vec()))
            );
            assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        }
    }

    /// A reader that interrupts and short-reads on a fixed schedule:
    /// frames must reassemble byte-for-byte regardless.
    struct Hostile<'a> {
        data: &'a [u8],
        pos: usize,
        tick: u32,
    }

    impl Read for Hostile<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.tick += 1;
            if self.tick % 3 == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected EINTR",
                ));
            }
            let n = buf.len().min(1).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn interrupted_and_short_reads_never_tear_a_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, KIND_JOB, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, KIND_POST, &[0xaa; 100]).unwrap();
        let mut hostile = Hostile {
            data: &buf,
            pos: 0,
            tick: 0,
        };
        assert_eq!(
            read_frame(&mut hostile).unwrap(),
            Some((KIND_JOB, b"{\"a\":1}".to_vec()))
        );
        let (kind, payload) = read_frame(&mut hostile).unwrap().unwrap();
        assert_eq!((kind, payload), (KIND_POST, vec![0xaa; 100]));
        assert_eq!(read_frame(&mut hostile).unwrap(), None, "clean EOF");
    }
}
