//! `rela submit` / `rela ping`: thin clients for a `rela serve` daemon.
//!
//! The client owns file access and decompression (`.gz` inflates
//! client-side, exactly like one-shot `rela check`) and streams the
//! snapshot pair to the daemon in interleaved chunks, so the daemon's
//! flow join never waits long on a side the client hasn't started
//! sending. The reply carries the full report text, which is printed
//! verbatim — a warm submit is byte-identical to a one-shot check of
//! the same pair (timing lines aside).

use crate::cli::{emit, job_options, path_error, usage_error, CliError, Command, Flags};
use crate::proto::{
    read_frame, write_frame, KIND_DELTA_MISS, KIND_DELTA_OK, KIND_ERROR, KIND_JOB, KIND_PING,
    KIND_PONG, KIND_POST, KIND_PRE, KIND_REPORT, KIND_SHUTDOWN,
};
use rela_core::JobOptions;
use rela_net::{snapshot_source, SnapshotEpoch};
use serde::{Serialize, Value};
use std::io::{BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
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

/// `rela submit`: one check job for a running daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitArgs {
    /// Path of the daemon's Unix socket (`--socket`).
    pub socket: PathBuf,
    /// Path to the pre-change snapshot (`--pre`).
    pub pre: PathBuf,
    /// Path to the post-change snapshot (`--post`).
    pub post: PathBuf,
    /// `--delta-pre`/`--delta-post`: per-side delta documents to send
    /// instead of the full pair when the daemon still retains the base
    /// epoch in `job.delta_base` (see `rela snapshot diff`). The full
    /// `pre`/`post` paths stay mandatory — they are the fallback when the
    /// daemon answers `DELTA_MISS`.
    pub delta: Option<(PathBuf, PathBuf)>,
    /// Per-job options, serialized into the JOB frame.
    pub job: JobOptions,
    /// `--cache-stats`: print the daemon's warm-hit counters after the
    /// report.
    pub cache_stats: bool,
    /// `--retries`/`--retry-delay-ms`: transport-failure retry with
    /// jittered exponential backoff.
    pub retry: RetryPolicy,
}

impl SubmitArgs {
    /// `rela submit`'s flags: a job, or `--ping` / `--shutdown` with
    /// nothing but `--socket` beside it.
    pub(crate) fn parse(flags: &Flags) -> Result<Command, CliError> {
        let socket = flags.need("socket")?;
        let control = [
            ("ping", Command::Ping as fn(PathBuf) -> Command),
            ("shutdown", Command::Shutdown),
        ];
        for (key, command) in control {
            if flags.has(key) {
                flags.alone(key, &["socket"])?;
                return Ok(command(socket));
            }
        }
        let delta_base = match flags.value("delta-base") {
            None => None,
            Some(raw) => Some(
                raw.parse::<SnapshotEpoch>()
                    .map_err(|e| usage_error(format!("invalid --delta-base `{raw}`: {e}")))?
                    .as_u128(),
            ),
        };
        let delta = match (flags.path("delta-pre"), flags.path("delta-post")) {
            (Some(pre), Some(post)) => Some((pre, post)),
            (None, None) => None,
            _ => {
                return Err(usage_error(
                    "--delta-pre and --delta-post must be given together",
                ))
            }
        };
        if delta.is_some() != delta_base.is_some() {
            return Err(usage_error(
                "a delta submit needs --delta-base, --delta-pre, and --delta-post together",
            ));
        }
        let job = JobOptions {
            delta_base,
            ..job_options(flags)?
        };
        let defaults = RetryPolicy::default();
        let retry = RetryPolicy {
            retries: flags.number("retries")?.unwrap_or(defaults.retries),
            delay_ms: flags.number("retry-delay-ms")?.unwrap_or(defaults.delay_ms),
        };
        Ok(Command::Submit(SubmitArgs {
            socket,
            pre: flags.need("pre")?,
            post: flags.need("post")?,
            delta,
            job,
            cache_stats: flags.has("cache-stats"),
            retry,
        }))
    }
}

fn connect(socket: &Path) -> Result<UnixStream, CliError> {
    UnixStream::connect(socket)
        .map_err(|e| path_error(socket, format!("{e} (is `rela serve` running?)")))
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
            source: snapshot_source(path).map_err(|e| path_error(path, e))?,
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
/// With `delta` paths and `job.delta_base` set, the client first
/// negotiates: if the daemon still retains that base epoch (any of its
/// last K) it accepts (`DELTA_OK`) and only the delta documents travel;
/// otherwise (`DELTA_MISS`) the client falls back to streaming the full
/// pair.
///
/// Transport failures — a refused connect, a connection torn down
/// before any typed reply — retry up to `retry.retries` times with
/// jittered exponential backoff. Typed daemon errors never retry.
pub fn submit(args: &SubmitArgs, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let mut attempt = 0;
    loop {
        match submit_once(args, out) {
            Err(SubmitError::Transport(e)) if attempt < args.retry.retries => {
                let delay = backoff(&args.retry, attempt);
                attempt += 1;
                let line = format!(
                    "submit attempt {attempt} failed ({}); retrying in {}ms\n",
                    e.message,
                    delay.as_millis()
                );
                emit(out, &line)?;
                std::thread::sleep(delay);
            }
            other => return other.map_err(SubmitError::into_error),
        }
    }
}

fn submit_once(args: &SubmitArgs, out: &mut dyn std::io::Write) -> Result<i32, SubmitError> {
    use SubmitError::Fatal;
    let stream = connect(&args.socket).map_err(SubmitError::Transport)?;
    // one buffered reader for the connection's whole life: a reply frame
    // is one `read`, and nothing it reads ahead is lost between frames
    let mut replies = BufReader::new(&stream);
    let json = serde_json::to_string(&args.job.to_value())
        .map_err(|e| Fatal(usage_error(format!("serializing job options: {e}"))))?;
    let sent = write_frame(&mut &stream, KIND_JOB, json.as_bytes()).is_ok();
    let (mut pre, mut post) = (&args.pre, &args.post);
    let negotiates = sent && args.job.delta_base.is_some();
    if let Some((delta_pre, delta_post)) = args.delta.as_ref().filter(|_| negotiates) {
        // the daemon answers the negotiation before any snapshot bytes
        // move
        let expected = [KIND_DELTA_OK, KIND_DELTA_MISS];
        match read_reply(&mut replies, &expected, "delta negotiation")? {
            (KIND_DELTA_OK, _) => (pre, post) = (delta_pre, delta_post),
            (_, payload) => {
                let base = parse_reply(&payload)
                    .ok()
                    .and_then(|v| v.get("base").and_then(Value::as_str).map(str::to_owned));
                let line = format!(
                    "delta base not retained by daemon (its base: {}); sending full snapshots\n",
                    base.as_deref().unwrap_or("none")
                );
                emit(out, &line).map_err(Fatal)?;
            }
        }
    }
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

    let (_, payload) = read_reply(&mut replies, &[KIND_REPORT], "reply")?;
    let reply = parse_reply(&payload).map_err(Fatal)?;
    let malformed = |e: serde::Error| Fatal(usage_error(format!("malformed reply: {e}")));
    let exit: i64 = serde::field(&reply, "exit").map_err(malformed)?;
    let mut text: String = serde::field(&reply, "report").map_err(malformed)?;
    if args.cache_stats {
        let stats = reply.get("stats").cloned().unwrap_or(Value::Null);
        let count = |name: &str| stats.get(name).and_then(Value::as_u64).unwrap_or(0);
        text.push_str(&format!(
            "cache: {} warm hits / {} classes, {} fst memo hits, {} graph decodes, {}\n",
            count("warm_hits"),
            count("classes"),
            count("fst_memo_hits"),
            count("graph_decodes"),
            crate::cli::cache_tail(&stats),
        ));
        if let Some(base) = stats.get("base_epoch").and_then(Value::as_str) {
            text.push_str(&format!("base epoch: {base}\n"));
        }
    }
    emit(out, &text).map_err(Fatal)?;
    Ok(exit as i32)
}

/// Send a `PING` (or, with `shutdown`, a `SHUTDOWN`) frame and print the
/// daemon's status line. Exit 0 when it answers; a shut-down daemon
/// drains (in-flight jobs finish first) and exits.
pub fn control(
    socket: &Path,
    shutdown: bool,
    out: &mut dyn std::io::Write,
) -> Result<i32, CliError> {
    let (kind, what) = match shutdown {
        true => (KIND_SHUTDOWN, "shutdown"),
        false => (KIND_PING, "ping"),
    };
    let stream = connect(socket)?;
    write_frame(&mut &stream, kind, b"")
        .map_err(|e| usage_error(format!("sending {what}: {e}")))?;
    let (_, payload) = read_reply(&mut BufReader::new(&stream), &[KIND_PONG], "reply")
        .map_err(SubmitError::into_error)?;
    let pong = parse_reply(&payload)?;
    let count = |name: &str| pong.get(name).and_then(Value::as_u64).unwrap_or(0);
    let line = if shutdown {
        format!("daemon draining after {} job(s)\n", count("jobs_run"))
    } else {
        let draining = pong
            .get("draining")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        format!(
            "daemon alive: {} job(s) run, {} in flight, draining: {draining}\n",
            count("jobs_run"),
            count("jobs_active"),
        )
    };
    emit(out, &line).map(|()| 0)
}

/// Read the daemon's next reply frame, which must be one of `expected`.
/// An `ERROR` frame is its typed error, any other kind is fatal, and a
/// connection that ends or fails before a reply is a transport failure
/// (`reading {what}: …`).
fn read_reply(
    replies: &mut impl Read,
    expected: &[u8],
    what: &str,
) -> Result<(u8, Vec<u8>), SubmitError> {
    use SubmitError::{Fatal, Transport};
    match read_frame(replies) {
        Ok(Some((kind, payload))) if expected.contains(&kind) => Ok((kind, payload)),
        Ok(Some((KIND_ERROR, payload))) => Err(Fatal(error_reply(&payload))),
        Ok(Some((kind, _))) => Err(Fatal(usage_error(format!(
            "unexpected reply frame 0x{kind:02x}"
        )))),
        Ok(None) => Err(Transport(usage_error(
            "daemon closed the connection without a reply",
        ))),
        Err(e) => Err(Transport(usage_error(format!("reading {what}: {e}")))),
    }
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
