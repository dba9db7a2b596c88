//! `rela serve`: a resident verification daemon over a Unix socket.
//!
//! The daemon is one [`rela_core::CheckSession`] kept warm behind a
//! socket: the spec is parsed and compiled once, the location database
//! is loaded once, the verdict store is opened once, and the FST memo
//! accumulates across jobs — so the paper's §8.1 iterate-and-resubmit
//! loop pays none of that per job. Each connection submits framed check
//! jobs (`src/proto.rs`, documented in `docs/SERVE_PROTOCOL.md`) whose
//! reports are byte-identical to a one-shot `rela check` of the same
//! pair.
//!
//! Shutdown is a *drain*: `SIGTERM`/`SIGINT` (or a `SHUTDOWN` frame)
//! stop the daemon accepting new jobs, in-flight jobs run to completion
//! and get their replies, then the socket is unlinked and the process
//! exits 0.
//!
//! Nothing in the daemon runs on a timer. The acceptor blocks in
//! `accept`, and whatever can end the wait *knocks* — connects to the
//! daemon's own socket and hangs up: a watcher thread the signal handler
//! wakes through a socket pair ([`wake_fd`]), and the last connection to
//! leave during a drain (`LastOut`). An idle daemon makes no system
//! call at all.

use crate::cli::{CliError, ServeConfig};
use crate::proto::{
    read_frame, write_frame, KIND_DELTA_MISS, KIND_DELTA_OK, KIND_ERROR, KIND_JOB, KIND_PING,
    KIND_PONG, KIND_POST, KIND_PRE, KIND_REPORT, KIND_SHUTDOWN,
};
use rela_core::{CheckSession, JobError, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela_net::faultio::FaultPlan;
use rela_net::{chunk_pipe, MmapSource, BINARY_MAGIC};
use serde::{Deserialize, Serialize, Value};
use std::io::BufReader;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering};
use std::time::Duration;

/// The process-wide drain flag. A static (not daemon-local state)
/// because the signal handler in `main.rs` must reach it from an
/// async-signal context, where only a lock-free store is safe.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// The raw fd a signal handler writes one byte to after
/// [`request_drain`], or `-1` while no daemon is accepting. A static for
/// the same reason [`DRAIN`] is one.
///
/// `DRAIN` and `WAKE_FD` are each written by one side and read by the
/// other (the handler stores `DRAIN` then loads `WAKE_FD`; [`serve`]
/// stores `WAKE_FD` then loads `DRAIN`), so all four accesses are
/// `SeqCst`: at least one side sees the other's store, and a signal that
/// lands during startup is never lost.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// Ask the running daemon to drain: stop accepting jobs, finish
/// in-flight ones, exit. Async-signal-safe (a single atomic store). It
/// does not by itself wake a blocked acceptor — a signal handler follows
/// it with one byte to [`wake_fd`]; a connection thread that calls it is
/// itself a connection, and the last of those to leave knocks.
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Whether a drain has been requested.
pub fn drain_requested() -> bool {
    DRAIN.load(Ordering::SeqCst)
}

/// The fd a signal handler wakes the daemon through: one byte written
/// to it (any value) makes the watcher thread knock on the daemon's own
/// socket, which is what returns the acceptor from `accept`. `None`
/// while no daemon is accepting. Async-signal-safe (one atomic load).
pub fn wake_fd() -> Option<i32> {
    let fd = WAKE_FD.load(Ordering::SeqCst);
    (fd >= 0).then_some(fd)
}

/// How long the acceptor waits after a *failed* `accept` (descriptor
/// exhaustion, say) before trying again, so the failure cannot spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(15);

/// Per-connection read timeout: a client that stalls mid-frame for this
/// long is dropped (its job, if any, fails with a truncated stream).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// `SO_RCVTIMEO` poll granularity for connection reads. Kept much
/// shorter than [`READ_TIMEOUT`] so [`Patient`] can tell a genuinely
/// stalled peer (many expiries in a row) from one spurious wakeup.
const READ_POLL: Duration = Duration::from_secs(1);

/// A connection reader that survives signal delivery. `SIGTERM` may
/// land on any connection thread, and on Linux a blocked `read` with
/// `SO_RCVTIMEO` set fails with `WouldBlock` when a handler interrupts
/// it — even under `SA_RESTART`. Treating that as a dead peer would
/// tear down the very in-flight job the drain is supposed to finish, so
/// reads retry until [`READ_TIMEOUT`] of continuous silence.
struct Patient<'a>(&'a UnixStream);

impl std::io::Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let deadline = std::time::Instant::now() + READ_TIMEOUT;
        loop {
            match (&mut &*self.0).read(buf) {
                Err(e) if e.kind() == Interrupted => continue,
                Err(e)
                    if matches!(e.kind(), WouldBlock | TimedOut)
                        && std::time::Instant::now() < deadline =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

fn io_error(context: &str, e: std::io::Error) -> CliError {
    CliError {
        message: format!("{context}: {e}"),
        code: 2,
    }
}

/// Remove RSNB spool files left in the temp directory by *dead* rela
/// daemons (a kill -9 mid-transfer never runs the in-scope cleanup).
/// Spool names embed the writer's pid, so liveness is checkable via
/// `/proc`; files whose writer still runs are left alone. Returns how
/// many files were removed.
fn sweep_stale_spools() -> usize {
    if !cfg!(target_os = "linux") {
        // without /proc there is no safe liveness check
        return 0;
    }
    let mut removed = 0;
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return 0;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("rela-serve-") else {
            continue;
        };
        if !name.ends_with(".rsnb") {
            continue;
        }
        let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists() {
            removed += usize::from(std::fs::remove_file(entry.path()).is_ok());
        }
    }
    removed
}

/// Bind the daemon socket, replacing a *stale* socket file (left by a
/// crashed daemon) but refusing to displace a live one.
fn bind_socket(path: &Path) -> Result<UnixListener, CliError> {
    if path.exists() {
        match UnixStream::connect(path) {
            Ok(_) => {
                return Err(CliError {
                    message: format!("{}: a daemon is already serving here", path.display()),
                    code: 2,
                })
            }
            Err(_) => {
                // nobody answers: stale socket from a dead process
                std::fs::remove_file(path).map_err(|e| io_error(&path.display().to_string(), e))?;
            }
        }
    }
    UnixListener::bind(path).map_err(|e| io_error(&path.display().to_string(), e))
}

/// Run the daemon until drained. Returns the process exit code (0 after
/// a clean drain).
pub fn serve(config: &ServeConfig, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    // a fresh serve starts undrained even if a previous in-process
    // daemon (tests) was drained
    DRAIN.store(false, Ordering::Release);

    // fault injection (tests, chaos drills): a malformed plan is a
    // startup error, not something to discover mid-job
    let faults = FaultPlan::from_env().map_err(|e| CliError {
        message: format!("{}: {e}", rela_net::faultio::ENV_VAR),
        code: 2,
    })?;

    let swept = sweep_stale_spools();
    if swept > 0 {
        let _ = writeln!(out, "removed {swept} stale spool file(s) from dead daemons");
    }

    let source = std::fs::read_to_string(&config.spec)
        .map_err(|e| io_error(&config.spec.display().to_string(), e))?;
    let db: rela_net::LocationDb = serde_json::from_str(
        &std::fs::read_to_string(&config.db)
            .map_err(|e| io_error(&config.db.display().to_string(), e))?,
    )
    .map_err(|e| CliError {
        message: format!("{}: invalid location db: {e}", config.db.display()),
        code: 2,
    })?;
    let mut session = CheckSession::open(
        &source,
        db,
        SessionConfig {
            granularity: config.granularity,
            threads: config.threads,
            // a resident daemon is exactly the iterate-and-resubmit
            // loop delta ingest exists for; K epochs let interleaved
            // clients each keep their own delta chain alive
            retain_bases: config.retain_epochs,
            retain_bytes: config.retain_bytes,
        },
    )
    .map_err(|e| CliError {
        message: format!("{}: {e}", config.spec.display()),
        code: 2,
    })?;
    session.set_faults(faults.clone());
    if let Some(dir) = &config.cache_dir {
        match rela_cache::VerdictStore::open_with_gc(
            dir,
            session.epoch(),
            &rela_cache::GcPolicy::default(),
        ) {
            Ok(mut store) => {
                store.set_faults(faults.clone());
                session.attach_store(store);
            }
            Err(e) => {
                let _ = writeln!(out, "warning: cache disabled: {}: {e}", dir.display());
            }
        }
    }

    let listener = bind_socket(&config.socket)?;
    // the signal handler's way in: it writes a byte to `wake_tx`, the
    // watcher below reads it from `wake_rx` and knocks
    let (wake_rx, wake_tx) = UnixStream::pair().map_err(|e| io_error("socket pair", e))?;
    writeln!(
        out,
        "serving {} on {} ({} granularity{})",
        config.spec.display(),
        config.socket.display(),
        config.granularity,
        match &config.cache_dir {
            Some(dir) => format!(", cache {}", dir.display()),
            None => String::new(),
        }
    )
    .map_err(|e| io_error("write failed", e))?;
    out.flush().ok();

    let session = &session;
    let socket = config.socket.as_path();
    let faults = faults.as_ref();
    let active = AtomicUsize::new(0);
    let job_seq = AtomicUsize::new(0);
    let jobs_active = AtomicUsize::new(0);
    let drained = || drain_requested() && active.load(Ordering::Acquire) == 0;
    std::thread::scope(|scope| {
        WAKE_FD.store(wake_tx.as_raw_fd(), Ordering::SeqCst);
        scope.spawn(move || watch_for_signals(wake_rx, socket));
        let mut accepted = 0usize;
        // checked before the first `accept` too: a signal that landed
        // before the wake fd was published reached no watcher
        while !drained() {
            match listener.accept() {
                // a knock (or a client racing one) on a daemon with
                // nothing left to finish: leave, rather than serve it and
                // have its departure knock again
                Ok(_) if drained() => break,
                Ok((stream, _)) => {
                    accepted += 1;
                    active.fetch_add(1, Ordering::AcqRel);
                    let last_out = LastOut {
                        active: &active,
                        socket,
                    };
                    let (job_seq, jobs_active) = (&job_seq, &jobs_active);
                    scope.spawn(move || {
                        // dropped however this thread ends, so a panic in
                        // the connection plumbing cannot wedge the drain
                        let _last_out = last_out;
                        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            handle_connection(&stream, session, faults, job_seq, jobs_active)
                        }));
                        if served.is_err() {
                            eprintln!(
                                "warning: conn-{accepted}: connection thread panicked; \
                                 the connection is dropped, the daemon keeps serving"
                            );
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("warning: accept failed: {e}");
                    std::thread::sleep(ACCEPT_BACKOFF); // accept-error back-off
                }
            }
        }
        // no handler may write from here on; the write end itself stays
        // open until `serve` returns so its fd number cannot be reused
        // under a handler that loaded it a moment ago
        WAKE_FD.store(-1, Ordering::SeqCst);
        wake_tx.shutdown(std::net::Shutdown::Write).ok(); // the watcher's EOF
    });

    std::fs::remove_file(&config.socket).ok();
    if let Err(e) = session.persist_if_dirty() {
        let _ = writeln!(out, "warning: could not persist cache: {e}");
    }
    writeln!(out, "drained after {} job(s)", session.jobs_run())
        .map_err(|e| io_error("write failed", e))?;
    Ok(0)
}

/// Machine-readable ERROR codes (`docs/SERVE_PROTOCOL.md`). The client
/// maps them to distinct process exit codes so pipelines can react to
/// "the daemon is draining" differently from "the snapshot is garbage".
pub mod error_code {
    /// Malformed framing, options, or out-of-order frames.
    pub const PROTOCOL: &str = "protocol";
    /// The snapshot/delta input failed to parse or validate.
    pub const SNAPSHOT: &str = "snapshot";
    /// The job's cooperative deadline fired.
    pub const DEADLINE: &str = "deadline";
    /// The engine panicked on this job (the daemon itself survived).
    pub const PANIC: &str = "panic";
    /// The daemon is draining and refused the submission.
    pub const DRAINING: &str = "draining";
}

/// One accepted connection: its stream, the buffered reader that lives
/// across its frames (so a frame costs one `read`, and read-ahead past
/// one frame is the next frame's head), and the daemon's fault plan,
/// which every reply consults at the `reply` lifecycle point
/// (`docs/RESILIENCE.md`). The reader wraps [`Patient`]: buffering sits
/// above the signal-and-timeout contract, not around it.
struct Connection<'a> {
    stream: &'a UnixStream,
    reader: BufReader<Patient<'a>>,
    faults: Option<&'a FaultPlan>,
}

impl Connection<'_> {
    fn read_frame(&mut self) -> std::io::Result<Option<(u8, Vec<u8>)>> {
        read_frame(&mut self.reader)
    }

    fn send_json(&mut self, kind: u8, value: &Value) -> std::io::Result<()> {
        if let Some(plan) = self.faults {
            plan.at("reply").fire();
        }
        let json = serde_json::to_string(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        write_frame(&mut &*self.stream, kind, json.as_bytes())
    }

    fn send_error(&mut self, code: &str, message: String) {
        let _ = self.send_json(
            KIND_ERROR,
            &Value::obj(vec![
                ("message", Value::Str(message)),
                ("code", Value::Str(code.to_owned())),
            ]),
        );
    }
}

/// Decrement a counter when dropped: keeps `jobs_active` honest across
/// every exit path of [`run_job`].
struct CountGuard<'a>(&'a AtomicUsize);

impl Drop for CountGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Wake the blocked acceptor: connect to the daemon's own socket and
/// hang up. The acceptor either breaks out (drained) or serves the knock
/// as a connection that closes before its first frame.
fn knock(socket: &Path) {
    use std::io::Write as _;
    if let Err(e) = UnixStream::connect(socket) {
        // not `eprintln!`: this runs inside `Drop`, which must not panic
        let _ = writeln!(
            std::io::stderr(),
            "warning: {}: cannot wake the acceptor: {e}",
            socket.display()
        );
    }
}

/// The watcher thread: blocked in `read` until the signal handler writes
/// a byte to the other end ([`wake_fd`]), then knocks — a handler may do
/// nothing but async-signal-safe calls, so the `connect` happens here.
/// Returns at EOF, which [`serve`] produces once the accept loop is over.
fn watch_for_signals(mut wake_rx: UnixStream, socket: &Path) {
    use std::io::Read as _;
    let mut byte = [0u8; 1];
    loop {
        match wake_rx.read(&mut byte) {
            Ok(0) => return,
            Ok(_) => knock(socket),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// One connection's claim on the daemon, released on drop — also when
/// the connection thread unwinds. The last one out during a drain knocks,
/// because the acceptor is blocked in `accept` and nothing else will
/// tell it there is nothing left to wait for.
struct LastOut<'a> {
    active: &'a AtomicUsize,
    socket: &'a Path,
}

impl Drop for LastOut<'_> {
    fn drop(&mut self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 && drain_requested() {
            knock(self.socket);
        }
    }
}

/// Serve one connection: any number of pings and job submissions until
/// the peer hangs up (or violates the protocol).
fn handle_connection(
    stream: &UnixStream,
    session: &CheckSession,
    faults: Option<&FaultPlan>,
    job_seq: &AtomicUsize,
    jobs_active: &AtomicUsize,
) {
    stream.set_read_timeout(Some(READ_POLL)).ok();
    let mut conn = Connection {
        stream,
        reader: BufReader::new(Patient(stream)),
        faults,
    };
    let pong = |session: &CheckSession, draining: bool| {
        Value::obj(vec![
            ("jobs_run", session.jobs_run().to_value()),
            (
                "jobs_active",
                jobs_active.load(Ordering::Acquire).to_value(),
            ),
            ("draining", draining.to_value()),
        ])
    };
    loop {
        let frame = match conn.read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // peer closed
            Err(_) => return,   // timeout or torn frame: nothing sane to reply to
        };
        match frame {
            (KIND_PING, _) => {
                let _ = conn.send_json(KIND_PONG, &pong(session, drain_requested()));
            }
            (KIND_SHUTDOWN, _) => {
                request_drain();
                let _ = conn.send_json(KIND_PONG, &pong(session, true));
            }
            (KIND_JOB, payload) => {
                if drain_requested() {
                    conn.send_error(
                        error_code::DRAINING,
                        "daemon is draining and accepts no new jobs".to_owned(),
                    );
                    continue;
                }
                let id = job_seq.fetch_add(1, Ordering::AcqRel) + 1;
                jobs_active.fetch_add(1, Ordering::AcqRel);
                let _running = CountGuard(jobs_active);
                run_job(&mut conn, session, &payload, id);
            }
            (kind, _) => {
                conn.send_error(
                    error_code::PROTOCOL,
                    format!("unexpected frame kind 0x{kind:02x}"),
                );
                return;
            }
        }
    }
}

/// Where one side's chunks go while the transfer runs — decided by
/// sniffing the side's first chunk.
enum SideSink {
    /// No chunk seen yet.
    Waiting,
    /// Streaming through an unbounded in-memory pipe (JSON, gz, deltas).
    Piped(rela_net::ChunkSender),
    /// An RSNB body spooling to a temp file; mapped (and the file
    /// unlinked) at end-of-side so the engine frames it zero-copy.
    Spooling(std::io::BufWriter<std::fs::File>, std::path::PathBuf),
    /// End-of-side seen.
    Done,
}

impl SideSink {
    fn done(&self) -> bool {
        matches!(self, SideSink::Done)
    }
}

/// Ingest one job's snapshot chunks and reply with its report.
///
/// The connection thread demultiplexes `PRE`/`POST` chunk frames into
/// a per-side sink picked by sniffing each side's first chunk. Sides
/// that open with the RSNB magic spool to a temp file which is
/// memory-mapped and unlinked at end-of-side — the pipelined engine
/// then frames the body in place instead of copying it chunk by chunk.
/// Every other side streams through an unbounded in-memory pipe —
/// unbounded because the engine reads the two sides at its own pace
/// (the materialized engine reads `pre` to its end first), and a bounded
/// pipe would deadlock against a client that (legitimately) interleaves
/// them or sends the other side first. The job thread starts as soon
/// as both sides' sources exist (immediately for piped sides, at
/// end-of-side for spooled ones), so streaming jobs keep their
/// transfer/decode overlap.
fn run_job(conn: &mut Connection<'_>, session: &CheckSession, payload: &[u8], id: usize) {
    let mut options = match std::str::from_utf8(payload)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .and_then(|value| JobOptions::from_value(&value).map_err(|e| e.to_string()))
    {
        Ok(options) => options,
        Err(e) => {
            conn.send_error(
                error_code::PROTOCOL,
                format!("job-{id}: malformed job options: {e}"),
            );
            return;
        }
    };

    // delta negotiation: the client proposes a base epoch; accept if it
    // is *any* of the K pairs this session retains. On a miss the job
    // stays open — the client falls back to sending the full pair.
    let base_value = |epoch: Option<rela_net::SnapshotEpoch>| match epoch {
        Some(epoch) => Value::Str(epoch.to_string()),
        None => Value::Null,
    };
    let retained_value = |session: &CheckSession| {
        Value::Arr(
            session
                .retained_epochs()
                .into_iter()
                .map(|e| Value::Str(e.to_string()))
                .collect(),
        )
    };
    let mut delta = false;
    if let Some(proposed) = options.delta_base {
        if session.retains_epoch(rela_net::SnapshotEpoch::from_u128(proposed)) {
            delta = true;
            if conn
                .send_json(
                    KIND_DELTA_OK,
                    &Value::obj(vec![(
                        "base",
                        base_value(Some(rela_net::SnapshotEpoch::from_u128(proposed))),
                    )]),
                )
                .is_err()
            {
                return;
            }
        } else {
            options.delta_base = None;
            if conn
                .send_json(
                    KIND_DELTA_MISS,
                    &Value::obj(vec![
                        ("base", base_value(session.base_epoch())),
                        ("retained", retained_value(session)),
                    ]),
                )
                .is_err()
            {
                return;
            }
        }
    }

    let side_names = ["pre", "post"];
    let mut sinks = [SideSink::Waiting, SideSink::Waiting];
    let mut sources: [Option<LabeledSource<'static>>; 2] = [None, None];
    let mut options = Some(options);

    let (result, protocol_error) = std::thread::scope(|scope| {
        let mut job = None;
        let mut protocol_error: Option<String> = None;
        while sinks.iter().any(|s| !s.done()) {
            let (side, chunk) = match conn.read_frame() {
                Ok(Some((KIND_PRE, chunk))) => (0usize, chunk),
                Ok(Some((KIND_POST, chunk))) => (1usize, chunk),
                Ok(Some((kind, _))) => {
                    protocol_error = Some(format!(
                        "job-{id}: unexpected frame kind 0x{kind:02x} during snapshot transfer"
                    ));
                    break;
                }
                Ok(None) => {
                    protocol_error = Some(format!("job-{id}: connection closed mid-snapshot"));
                    break;
                }
                Err(e) => {
                    protocol_error = Some(format!("job-{id}: {e}"));
                    break;
                }
            };
            let name = side_names[side];
            let label = format!("job-{id}:{name}");
            let eof = chunk.is_empty();
            match std::mem::replace(&mut sinks[side], SideSink::Done) {
                SideSink::Waiting if eof => {
                    // empty side: a zero-byte stream, decided right here
                    sources[side] = Some(LabeledSource::new(std::io::empty(), label));
                }
                SideSink::Waiting if chunk.starts_with(&BINARY_MAGIC) => {
                    // RSNB body: spool it, map it at end-of-side
                    let path = std::env::temp_dir().join(format!(
                        "rela-serve-{}-job{id}-{name}.rsnb",
                        std::process::id()
                    ));
                    match std::fs::File::create(&path) {
                        Ok(file) => {
                            let mut writer = std::io::BufWriter::new(file);
                            if let Err(e) = std::io::Write::write_all(&mut writer, &chunk) {
                                protocol_error = Some(format!("job-{id}: {name} spool: {e}"));
                                std::fs::remove_file(&path).ok();
                                break;
                            }
                            sinks[side] = SideSink::Spooling(writer, path);
                        }
                        Err(e) => {
                            protocol_error = Some(format!("job-{id}: {name} spool: {e}"));
                            break;
                        }
                    }
                }
                SideSink::Waiting => {
                    let (tx, rx) = chunk_pipe();
                    tx.send(chunk);
                    sources[side] = Some(LabeledSource::new(rx, label));
                    sinks[side] = SideSink::Piped(tx);
                }
                SideSink::Piped(tx) => {
                    if eof {
                        // dropping the sender is the reader's clean EOF
                    } else {
                        tx.send(chunk);
                        sinks[side] = SideSink::Piped(tx);
                    }
                }
                SideSink::Spooling(mut writer, path) => {
                    if eof {
                        let mapped = writer
                            .into_inner()
                            .map_err(|e| std::io::Error::other(e.to_string()))
                            .and_then(|file| {
                                drop(file);
                                MmapSource::open(&path)
                            });
                        // the mapping keeps the pages alive on its own
                        std::fs::remove_file(&path).ok();
                        match mapped {
                            Ok(map) => sources[side] = Some(LabeledSource::mapped(map, label)),
                            Err(e) => {
                                protocol_error = Some(format!("job-{id}: {name} spool: {e}"));
                                break;
                            }
                        }
                    } else {
                        match std::io::Write::write_all(&mut writer, &chunk) {
                            Ok(()) => sinks[side] = SideSink::Spooling(writer, path),
                            Err(e) => {
                                protocol_error = Some(format!("job-{id}: {name} spool: {e}"));
                                std::fs::remove_file(&path).ok();
                                break;
                            }
                        }
                    }
                }
                SideSink::Done => {
                    protocol_error = Some(format!("job-{id}: {name} chunk after end-of-side"));
                    break;
                }
            }
            if job.is_none() && sources.iter().all(Option::is_some) {
                let pre = sources[0].take().expect("pre source");
                let post = sources[1].take().expect("post source");
                let options = options.take().expect("job options");
                job = Some(scope.spawn(move || {
                    let spec = if delta {
                        JobSpec::deltas(pre, post)
                    } else {
                        JobSpec::streams(pre, post)
                    };
                    session.run(spec.with_options(options))
                }));
            }
        }
        // dropping the pipe senders (and any half-spooled files) gives a
        // running job clean EOFs, so it always terminates; its verdict
        // is discarded on a protocol error
        for sink in &mut sinks {
            if let SideSink::Spooling(_, path) = std::mem::replace(sink, SideSink::Done) {
                std::fs::remove_file(&path).ok();
            }
        }
        (job.map(|handle| handle.join()), protocol_error)
    });

    if let Some(message) = protocol_error {
        conn.send_error(error_code::PROTOCOL, message);
        return;
    }
    let result = match result {
        Some(result) => result,
        None => {
            // both sides ended before a source existed (can't happen:
            // end-of-side always yields a source), but fail loudly
            conn.send_error(
                error_code::PROTOCOL,
                format!("job-{id}: no snapshot data received"),
            );
            return;
        }
    };
    match result {
        Ok(Ok(report)) => {
            // `rela report --json`'s stats, plus the daemon's two keys
            let mut stats = report.stats.to_value();
            if let Value::Obj(fields) = &mut stats {
                // the epoch of the pair this job retained — what the next
                // delta submission should name as its base; null when the
                // job retained nothing (only the pipelined engine captures
                // a base)
                let base = base_value(report.stats.retained_epoch);
                fields.push(("base_epoch".to_owned(), base));
                // every epoch still accepted as a delta base, newest first
                // (K-epoch retention)
                fields.push(("retained_epochs".to_owned(), retained_value(session)));
            }
            let reply = Value::obj(vec![
                (
                    "exit",
                    if report.is_compliant() { 0u32 } else { 1u32 }.to_value(),
                ),
                ("report", Value::Str(report.to_string())),
                ("stats", stats),
            ]);
            let _ = conn.send_json(KIND_REPORT, &reply);
            if let Err(e) = session.persist_if_dirty() {
                eprintln!("warning: could not persist cache: {e}");
            }
        }
        Ok(Err(JobError::Snapshot(snapshot_error))) => {
            conn.send_error(
                error_code::SNAPSHOT,
                format!("invalid snapshot: {snapshot_error}"),
            );
        }
        Ok(Err(err @ JobError::DeadlineExceeded { .. })) => {
            conn.send_error(error_code::DEADLINE, format!("job-{id}: {err}"));
        }
        Ok(Err(err @ JobError::Panicked { .. })) => {
            // the panic was contained at the session boundary: this
            // job gets a typed error, the daemon keeps serving
            conn.send_error(error_code::PANIC, format!("job-{id}: {err}"));
        }
        Err(_) => {
            // a panic outside CheckSession::run (job plumbing itself)
            conn.send_error(error_code::PANIC, format!("job-{id}: check panicked"));
        }
    }
}
