//! `rela submit` / `rela ping`: thin clients for a `rela serve` daemon.
//!
//! The client owns file access and decompression (`.gz` inflates
//! client-side, exactly like one-shot `rela check`) and streams the
//! snapshot pair to the daemon in interleaved chunks, so the daemon's
//! flow join never waits long on a side the client hasn't started
//! sending. The reply carries the full report text, which is printed
//! verbatim — a warm submit is byte-identical to a one-shot check of
//! the same pair (timing lines aside).

use crate::cli::CliError;
use crate::proto::{
    read_frame, write_frame, KIND_DELTA_MISS, KIND_DELTA_OK, KIND_ERROR, KIND_JOB, KIND_PING,
    KIND_PONG, KIND_POST, KIND_PRE, KIND_REPORT, KIND_SHUTDOWN,
};
use rela_core::JobOptions;
use rela_net::snapshot_source;
use serde::{Serialize, Value};
use std::io::{BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Snapshot bytes per chunk frame. Small enough to interleave the two
/// sides finely, large enough that framing overhead is noise.
const CHUNK: usize = 64 * 1024;

/// Client-side retry policy for transport failures: a refused connect
/// or a connection torn down before any typed reply. Typed daemon
/// errors (bad snapshot, deadline, panic, draining) never retry — the
/// daemon answered; resubmitting the same job changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (`0` = one shot).
    pub retries: u32,
    /// Base backoff delay; attempt N sleeps roughly `base * 2^N` with
    /// jitter in `[half, full]` to avoid thundering-herd resubmits.
    pub delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            delay_ms: 50,
        }
    }
}

/// Jittered exponential backoff: `base * 2^attempt`, uniformly jittered
/// down to half that so simultaneous clients spread out.
fn backoff(policy: &RetryPolicy, attempt: u32) -> Duration {
    let full = policy.delay_ms.max(1).saturating_mul(1 << attempt.min(10));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64)
        .unwrap_or(0);
    Duration::from_millis(full / 2 + nanos % (full / 2 + 1))
}

/// A submit failure, split by whether another attempt could help.
enum SubmitError {
    /// Transport-level: refused connect, torn connection, no reply.
    Transport(CliError),
    /// The daemon (or local input handling) answered definitively.
    Fatal(CliError),
}

impl SubmitError {
    fn into_error(self) -> CliError {
        match self {
            SubmitError::Transport(e) | SubmitError::Fatal(e) => e,
        }
    }
}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

fn connect(socket: &Path) -> Result<UnixStream, CliError> {
    UnixStream::connect(socket).map_err(|e| {
        usage_error(format!(
            "{}: {e} (is `rela serve` running?)",
            socket.display()
        ))
    })
}

/// One side's sender state during the interleaved transfer.
struct SideFeed {
    source: Box<dyn Read + Send>,
    kind: u8,
    done: bool,
}

impl SideFeed {
    fn open(path: &Path, kind: u8) -> Result<SideFeed, CliError> {
        Ok(SideFeed {
            source: snapshot_source(path)
                .map_err(|e| usage_error(format!("{}: {e}", path.display())))?,
            kind,
            done: false,
        })
    }

    /// Send up to one chunk (read into `buf`, the transfer's one chunk
    /// buffer); on EOF send the zero-length end marker. Returns `Err`
    /// only for local read failures — remote write failures surface as
    /// `Ok(false)` so the caller can go collect the daemon's (probably
    /// already-sent) error reply.
    fn pump(&mut self, mut stream: &UnixStream, buf: &mut [u8]) -> Result<bool, CliError> {
        if self.done {
            return Ok(true);
        }
        let n = self
            .source
            .read(buf)
            .map_err(|e| usage_error(format!("reading snapshot: {e}")))?;
        self.done = n == 0;
        Ok(write_frame(&mut stream, self.kind, &buf[..n]).is_ok())
    }
}

/// Submit one check job; prints the daemon's report and returns the
/// check's exit code (0 compliant, 1 violations, 2 errors, 4 deadline
/// exceeded, 5 engine panic, 6 daemon draining).
///
/// With `delta` paths and `options.delta_base` set, the client first
/// negotiates: if the daemon still retains that base epoch (any of its
/// last K) it accepts (`DELTA_OK`) and only the delta documents travel;
/// otherwise (`DELTA_MISS`) the client falls back to streaming the full
/// pair.
///
/// Transport failures — a refused connect, a connection torn down
/// before any typed reply — retry up to `retry.retries` times with
/// jittered exponential backoff. Typed daemon errors never retry.
#[allow(clippy::too_many_arguments)] // one argument per `rela submit` flag group
pub fn submit(
    socket: &Path,
    pre: &Path,
    post: &Path,
    delta: Option<(&Path, &Path)>,
    options: &JobOptions,
    cache_stats: bool,
    retry: &RetryPolicy,
    out: &mut dyn std::io::Write,
) -> Result<i32, CliError> {
    let mut attempt = 0;
    loop {
        match submit_once(socket, pre, post, delta, options, cache_stats, out) {
            Err(SubmitError::Transport(e)) if attempt < retry.retries => {
                let delay = backoff(retry, attempt);
                attempt += 1;
                writeln!(
                    out,
                    "submit attempt {attempt} failed ({}); retrying in {}ms",
                    e.message,
                    delay.as_millis()
                )
                .map_err(|e| usage_error(format!("write failed: {e}")))?;
                std::thread::sleep(delay);
            }
            other => return other.map_err(SubmitError::into_error),
        }
    }
}

fn submit_once(
    socket: &Path,
    pre: &Path,
    post: &Path,
    delta: Option<(&Path, &Path)>,
    options: &JobOptions,
    cache_stats: bool,
    out: &mut dyn std::io::Write,
) -> Result<i32, SubmitError> {
    use SubmitError::{Fatal, Transport};
    let stream = connect(socket).map_err(Transport)?;
    // one buffered reader for the connection's whole life: a reply frame
    // is one `read`, and nothing it reads ahead is lost between frames
    let mut replies = BufReader::new(&stream);
    let json = serde_json::to_string(&options.to_value())
        .map_err(|e| Fatal(usage_error(format!("serializing job options: {e}"))))?;
    let sent = write_frame(&mut &stream, KIND_JOB, json.as_bytes()).is_ok();
    let (pre, post) = match (delta, options.delta_base) {
        (Some((delta_pre, delta_post)), Some(_)) if sent => {
            // the daemon answers the negotiation before any snapshot
            // bytes move
            match read_frame(&mut replies) {
                Ok(Some((KIND_DELTA_OK, _))) => (delta_pre, delta_post),
                Ok(Some((KIND_DELTA_MISS, payload))) => {
                    let base = parse_reply(&payload)
                        .ok()
                        .and_then(|v| v.get("base").and_then(Value::as_str).map(str::to_owned));
                    writeln!(
                        out,
                        "delta base not retained by daemon (its base: {}); sending full snapshots",
                        base.as_deref().unwrap_or("none")
                    )
                    .map_err(|e| Fatal(usage_error(format!("write failed: {e}"))))?;
                    (pre, post)
                }
                Ok(Some((KIND_ERROR, payload))) => return Err(Fatal(error_reply(&payload))),
                Ok(Some((kind, _))) => {
                    return Err(Fatal(usage_error(format!(
                        "unexpected reply frame 0x{kind:02x}"
                    ))))
                }
                Ok(None) => {
                    return Err(Transport(usage_error(
                        "daemon closed the connection without a reply",
                    )))
                }
                Err(e) => {
                    return Err(Transport(usage_error(format!(
                        "reading delta negotiation: {e}"
                    ))))
                }
            }
        }
        _ => (pre, post),
    };
    let mut pre = SideFeed::open(pre, KIND_PRE).map_err(Fatal)?;
    let mut post = SideFeed::open(post, KIND_POST).map_err(Fatal)?;
    if sent {
        let mut buf = vec![0u8; CHUNK];
        // interleave the sides so the daemon's two framers both have
        // bytes and its flow join pairs records as they arrive
        while !(pre.done && post.done) {
            let pumped = pre
                .pump(&stream, &mut buf)
                .and_then(|ok| Ok(ok && post.pump(&stream, &mut buf)?))
                .map_err(Fatal)?;
            if !pumped {
                // the daemon hung up mid-transfer — it has (or will
                // have) a reply explaining why; stop sending, read it
                break;
            }
        }
    }

    match read_frame(&mut replies) {
        Ok(Some((KIND_REPORT, payload))) => {
            let reply = parse_reply(&payload).map_err(Fatal)?;
            let exit: i64 = serde::field(&reply, "exit")
                .map_err(|e| Fatal(usage_error(format!("malformed reply: {e}"))))?;
            let report: String = serde::field(&reply, "report")
                .map_err(|e| Fatal(usage_error(format!("malformed reply: {e}"))))?;
            out.write_all(report.as_bytes())
                .map_err(|e| Fatal(usage_error(format!("write failed: {e}"))))?;
            if cache_stats {
                let stats = reply.get("stats").cloned().unwrap_or(Value::Null);
                let count =
                    |name: &str| -> u64 { stats.get(name).and_then(Value::as_u64).unwrap_or(0) };
                let ms = |name: &str| stats.get(name).and_then(Value::as_f64).unwrap_or(0.0) * 1e3;
                writeln!(
                    out,
                    "cache: {} warm hits / {} classes, {} fst memo hits, {} graph decodes, \
                     {} live / {} dead sides, relations {:.2}ms, replay {:.2}ms, \
                     ingest {:.2}ms, decide {:.2}ms, assemble {:.2}ms",
                    count("warm_hits"),
                    count("classes"),
                    count("fst_memo_hits"),
                    count("graph_decodes"),
                    count("live_sides"),
                    count("dead_sides"),
                    ms("relations_s"),
                    ms("replay_s"),
                    ms("ingest_s"),
                    ms("decide_s"),
                    ms("assemble_s"),
                )
                .map_err(|e| Fatal(usage_error(format!("write failed: {e}"))))?;
                if let Some(base) = stats.get("base_epoch").and_then(Value::as_str) {
                    writeln!(out, "base epoch: {base}")
                        .map_err(|e| Fatal(usage_error(format!("write failed: {e}"))))?;
                }
            }
            Ok(exit as i32)
        }
        Ok(Some((KIND_ERROR, payload))) => Err(Fatal(error_reply(&payload))),
        Ok(Some((kind, _))) => Err(Fatal(usage_error(format!(
            "unexpected reply frame 0x{kind:02x}"
        )))),
        Ok(None) => Err(Transport(usage_error(
            "daemon closed the connection without a reply",
        ))),
        Err(e) => Err(Transport(usage_error(format!("reading reply: {e}")))),
    }
}

/// Probe the daemon; prints its status line. Exit 0 when it answers.
pub fn ping(socket: &Path, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let stream = connect(socket)?;
    write_frame(&mut &stream, KIND_PING, b"")
        .map_err(|e| usage_error(format!("sending ping: {e}")))?;
    let pong = read_pong(&stream)?;
    writeln!(
        out,
        "daemon alive: {} job(s) run, {} in flight, draining: {}",
        pong.jobs_run, pong.jobs_active, pong.draining
    )
    .map_err(|e| usage_error(format!("write failed: {e}")))?;
    Ok(0)
}

/// Ask the daemon to drain and exit (in-flight jobs finish first).
pub fn shutdown(socket: &Path, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let stream = connect(socket)?;
    write_frame(&mut &stream, KIND_SHUTDOWN, b"")
        .map_err(|e| usage_error(format!("sending shutdown: {e}")))?;
    let pong = read_pong(&stream)?;
    writeln!(out, "daemon draining after {} job(s)", pong.jobs_run)
        .map_err(|e| usage_error(format!("write failed: {e}")))?;
    Ok(0)
}

fn parse_reply(payload: &[u8]) -> Result<Value, CliError> {
    std::str::from_utf8(payload)
        .map_err(|e| usage_error(format!("malformed reply: {e}")))
        .and_then(|text| {
            serde_json::from_str(text).map_err(|e| usage_error(format!("malformed reply: {e}")))
        })
}

/// Map a typed daemon ERROR payload to a [`CliError`] whose exit code
/// reflects the error class: 2 for protocol/snapshot problems (and
/// anything unintelligible), 4 when the job's deadline fired, 5 when
/// the engine panicked on the job, 6 when the daemon refused because it
/// is draining.
fn error_reply(payload: &[u8]) -> CliError {
    let value = parse_reply(payload).ok();
    let message = value
        .as_ref()
        .and_then(|v| v.get("message").and_then(Value::as_str).map(str::to_owned))
        .unwrap_or_else(|| "daemon reported an unintelligible error".to_owned());
    let code = match value
        .as_ref()
        .and_then(|v| v.get("code").and_then(Value::as_str))
    {
        Some("deadline") => 4,
        Some("panic") => 5,
        Some("draining") => 6,
        _ => 2,
    };
    CliError { message, code }
}

/// The daemon's status as reported in a `PONG` frame.
struct Pong {
    jobs_run: u64,
    jobs_active: u64,
    draining: bool,
}

fn read_pong(stream: &UnixStream) -> Result<Pong, CliError> {
    match read_frame(&mut BufReader::new(stream)) {
        Ok(Some((KIND_PONG, payload))) => {
            let reply = parse_reply(&payload)?;
            Ok(Pong {
                jobs_run: reply.get("jobs_run").and_then(Value::as_u64).unwrap_or(0),
                jobs_active: reply
                    .get("jobs_active")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                draining: reply
                    .get("draining")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            })
        }
        Ok(Some((KIND_ERROR, payload))) => Err(error_reply(&payload)),
        Ok(Some((kind, _))) => Err(usage_error(format!("unexpected reply frame 0x{kind:02x}"))),
        Ok(None) => Err(usage_error("daemon closed the connection without a reply")),
        Err(e) => Err(usage_error(format!("reading reply: {e}"))),
    }
}
