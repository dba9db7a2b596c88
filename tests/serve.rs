//! End-to-end tests for the resident verification service: N concurrent
//! clients against one warm daemon get replies byte-identical to a
//! one-shot `rela check`, warm resubmission replays every class from the
//! store, and `SIGTERM` drains gracefully — the in-flight job finishes,
//! new submissions are refused, and the daemon exits 0.

use rela::cli::{self, Command, Output};
use rela::lang::JobOptions;
use rela::proto::{
    read_frame, write_frame, KIND_ERROR, KIND_JOB, KIND_PING, KIND_PONG, KIND_PRE, KIND_REPORT,
};
use serde::Serialize;
use std::io::Read as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

/// Strip timing/counter lines: what must be byte-identical across
/// engines, cache states, and the serve path.
fn verdict_bytes(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.starts_with("checked ")
                && !l.starts_with("behavior classes:")
                && !l.starts_with("cache:")
                && !l.starts_with("warning:")
                && !l.starts_with("base epoch:")
                && !l.starts_with("delta base not retained")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Write the Figure 1 demo inputs into a fresh temp dir.
fn demo_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rela-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cli::run(&Command::Demo { out: dir.clone() }, &mut Vec::new()).expect("demo writes");
    dir
}

/// A spawned daemon that is SIGKILLed and reaped if a test panics
/// before its clean-drain assertions run, so a failing test never
/// leaks a resident process (or a zombie).
struct Daemon(Option<Child>);

impl Daemon {
    fn id(&self) -> u32 {
        self.0.as_ref().expect("daemon not yet reaped").id()
    }

    /// Hand the child back for the clean-exit assertions; the guard no
    /// longer kills it.
    fn into_inner(mut self) -> Child {
        self.0.take().expect("daemon not yet reaped")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Spawn `rela serve` on `socket` and wait until it answers pings.
fn spawn_daemon(dir: &Path, socket: &Path, cache_dir: Option<&Path>) -> Daemon {
    spawn_daemon_with(dir, socket, cache_dir, &[])
}

/// [`spawn_daemon`] with extra `rela serve` flags (retention knobs) and
/// environment variables (`RELA_FAULTS` fault plans).
fn spawn_daemon_with(
    dir: &Path,
    socket: &Path,
    cache_dir: Option<&Path>,
    extra: &[&str],
) -> Daemon {
    spawn_daemon_env(dir, socket, cache_dir, extra, &[])
}

/// The `rela serve` command line over the demo inputs in `dir`.
fn daemon_command(dir: &Path, socket: &Path) -> Process {
    let mut cmd = Process::new(env!("CARGO_BIN_EXE_rela"));
    cmd.args(["serve", "--socket"])
        .arg(socket)
        .arg("--spec")
        .arg(dir.join("change.rela"))
        .arg("--db")
        .arg(dir.join("db.json"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn spawn_daemon_env(
    dir: &Path,
    socket: &Path,
    cache_dir: Option<&Path>,
    extra: &[&str],
    env: &[(&str, &str)],
) -> Daemon {
    let mut cmd = daemon_command(dir, socket);
    cmd.args(extra).envs(env.iter().copied());
    if let Some(cache) = cache_dir {
        cmd.arg("--cache-dir").arg(cache);
    }
    let daemon = Daemon(Some(cmd.spawn().expect("daemon spawns")));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if cli::run(
            &Command::Ping {
                socket: socket.to_path_buf(),
            },
            &mut Vec::new(),
        )
        .is_ok()
        {
            return daemon;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Submit and hand back the typed failure instead of panicking — for
/// the error-path tests (deadline, panic, draining).
fn try_submit(
    socket: &Path,
    dir: &Path,
    post: &str,
    job: JobOptions,
) -> Result<(i32, String), cli::CliError> {
    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Submit {
            socket: socket.to_path_buf(),
            pre: dir.join("pre.json"),
            post: dir.join(post),
            delta: None,
            job,
            cache_stats: false,
            retry: rela::client::RetryPolicy::default(),
        },
        &mut sink,
    )?;
    Ok((code, String::from_utf8(sink).unwrap()))
}

fn submit(socket: &Path, dir: &Path, post: &str, cache_stats: bool) -> (i32, String) {
    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Submit {
            socket: socket.to_path_buf(),
            pre: dir.join("pre.json"),
            post: dir.join(post),
            delta: None,
            job: JobOptions::default(),
            cache_stats,
            retry: rela::client::RetryPolicy::default(),
        },
        &mut sink,
    )
    .expect("submit succeeds");
    (code, String::from_utf8(sink).unwrap())
}

/// Submit with delta documents against `base` (full pair stays the
/// fallback); always asks for cache stats so callers can read the
/// decode counters and the daemon's next base epoch.
fn submit_delta(
    socket: &Path,
    dir: &Path,
    post: &str,
    base: &str,
    delta_pre: &Path,
    delta_post: &Path,
) -> (i32, String) {
    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Submit {
            socket: socket.to_path_buf(),
            pre: dir.join("pre.json"),
            post: dir.join(post),
            delta: Some((delta_pre.to_path_buf(), delta_post.to_path_buf())),
            job: JobOptions {
                delta_base: Some(base.parse::<rela::net::SnapshotEpoch>().unwrap().as_u128()),
                ..JobOptions::default()
            },
            cache_stats: true,
            retry: rela::client::RetryPolicy::default(),
        },
        &mut sink,
    )
    .expect("submit succeeds");
    (code, String::from_utf8(sink).unwrap())
}

/// Pull one `name: value`-style stat off a submit --cache-stats tail.
fn stat_line<'t>(text: &'t str, prefix: &str) -> &'t str {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in: {text}"))
}

/// Poll the daemon's status line until it contains `needle`.
fn wait_for_ping(socket: &Path, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut sink = Vec::new();
        let answered = cli::run(
            &Command::Ping {
                socket: socket.to_path_buf(),
            },
            &mut sink,
        )
        .is_ok();
        if answered && String::from_utf8(sink).unwrap().contains(needle) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reported {needle:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_exit(daemon: Daemon, socket: &Path) {
    let status = daemon.into_inner().wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "drained daemon must exit 0");
    assert!(!socket.exists(), "socket must be unlinked after drain");
}

/// Spawn `rela serve` and wait for its `serving …` line instead of
/// pinging it, so the daemon has never had a connection. The line is
/// printed once the socket is bound and the signal handlers are in.
fn spawn_daemon_unpinged(dir: &Path, socket: &Path) -> Daemon {
    let mut daemon = Daemon(Some(
        daemon_command(dir, socket).spawn().expect("daemon spawns"),
    ));
    let stdout = daemon.0.as_mut().unwrap().stdout.as_mut().unwrap();
    // byte by byte: nothing past the line may be consumed, the drain
    // assertions read the rest
    let mut read_line = || {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            assert_eq!(
                stdout.read(&mut byte).expect("daemon stdout"),
                1,
                "daemon died at startup"
            );
            line.push(byte[0]);
        }
        String::from_utf8_lossy(&line).into_owned()
    };
    let mut line = read_line();
    // a concurrent test may have planted a dead daemon's spool in the
    // shared temp dir, which this daemon sweeps and says so first
    if line.starts_with("removed ") && line.contains("stale spool file(s)") {
        line = read_line();
    }
    assert!(line.starts_with("serving "), "{line}");
    daemon
}

fn sigterm(daemon: &Daemon) {
    let killed = Process::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
}

/// The clean-drain assertions under a 10 s watchdog: a daemon whose
/// blocked `accept` was never woken is killed and fails the test here
/// instead of hanging it. Returns what the daemon printed.
fn drained_within_watchdog(daemon: Daemon, socket: &Path) -> String {
    let mut child = daemon.into_inner();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("daemon never drained: its acceptor was not woken");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status.code(), Some(0), "drained daemon must exit 0");
    assert!(!socket.exists(), "socket must be unlinked after drain");
    let mut out = String::new();
    child.stdout.take().unwrap().read_to_string(&mut out).ok();
    out
}

#[test]
fn concurrent_submits_match_one_shot_and_replay_warm() {
    let dir = demo_dir("concurrent");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");

    // ground truth: a one-shot `rela check` of the same pair
    let mut sink = Vec::new();
    let one_shot_code = cli::run(
        &Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: rela::net::Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Text { cache_stats: false },
        },
        &mut sink,
    )
    .expect("one-shot check runs");
    assert_eq!(one_shot_code, 1, "post_v2 has violations (Table 1)");
    let one_shot = String::from_utf8(sink).unwrap();

    let daemon = spawn_daemon(&dir, &socket, Some(&cache));

    // N concurrent clients, one warm daemon: every reply byte-identical
    let replies: Vec<(i32, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| submit(&socket, &dir, "post_v2.json", false)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (code, text) in &replies {
        assert_eq!(*code, 1, "{text}");
        assert_eq!(
            verdict_bytes(text),
            verdict_bytes(&one_shot),
            "daemon reply diverged from one-shot check"
        );
    }

    // resubmission replays every class from the warm store
    let (code, text) = submit(&socket, &dir, "post_v2.json", true);
    assert_eq!(code, 1, "{text}");
    let cache_line = text
        .lines()
        .find(|l| l.starts_with("cache: "))
        .expect("submit --cache-stats prints a cache line");
    let mut counts = cache_line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<usize>().unwrap());
    let warm_hits = counts.next().expect("warm hits count");
    let classes = counts.next().expect("classes count");
    assert!(classes > 0, "{cache_line}");
    assert_eq!(
        warm_hits, classes,
        "warm resubmit must replay every class: {cache_line}"
    );
    assert_eq!(verdict_bytes(&text), verdict_bytes(&one_shot));

    // a different iteration through the same session still agrees with
    // its own one-shot check (v4 is the compliant one)
    let (code, _) = submit(&socket, &dir, "post_v4.json", false);
    assert_eq!(code, 0, "post_v4 is compliant");

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    let ack = String::from_utf8(sink).unwrap();
    assert!(ack.contains("draining"), "{ack}");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// The §8.1 delta-first iteration loop end-to-end: a full submission
/// seeds the daemon's retained base, `rela snapshot diff` computes the
/// same epoch client-side, a delta submission is byte-identical to the
/// full-pair path while decoding only the changed records, an unchanged
/// delta decodes nothing at all, and a stale base falls back to full
/// snapshots without failing the submit.
#[test]
fn delta_submission_matches_full_and_skips_unchanged_decodes() {
    let dir = demo_dir("delta");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");
    // single-slot retention: the stale-base section below relies on the
    // seed epoch being evicted as soon as the base advances
    let daemon = spawn_daemon_with(&dir, &socket, Some(&cache), &["--retain-epochs", "1"]);

    // cache-stats counters come back as: warm hits, classes, fst memo
    // hits, graph decodes
    let counters = |text: &str| -> Vec<usize> {
        stat_line(text, "cache: ")
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect()
    };
    let epoch_of = |text: &str| -> String {
        stat_line(text, "base epoch: ")
            .trim_start_matches("base epoch: ")
            .to_owned()
    };

    // seed the daemon's retained base with a full (pre, v2) submission
    let (code, seeded) = submit(&socket, &dir, "post_v2.json", true);
    assert_eq!(code, 1, "{seeded}");
    let base_v2 = epoch_of(&seeded);
    assert!(counters(&seeded)[3] > 0, "a cold ingest decodes: {seeded}");

    // the client-side scan agrees with the epoch the daemon retained —
    // two parties, no coordination, same content-derived identity
    let mut sink = Vec::new();
    cli::run(
        &Command::SnapshotDiff {
            base_pre: dir.join("pre.json"),
            base_post: dir.join("post_v2.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v4.json"),
            out_pre: dir.join("delta_pre.json"),
            out_post: dir.join("delta_post.json"),
        },
        &mut sink,
    )
    .expect("snapshot diff runs");
    let diffed = String::from_utf8(sink).unwrap();
    assert_eq!(epoch_of(&diffed), base_v2, "{diffed}");
    let post_changed: usize = stat_line(&diffed, "post delta: ")
        .trim_start_matches("post delta: ")
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(post_changed > 0, "{diffed}");

    // ground truth: a one-shot check of the next iteration (pre, v4)
    let mut sink = Vec::new();
    let one_shot_code = cli::run(
        &Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v4.json"),
            granularity: rela::net::Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Text { cache_stats: false },
        },
        &mut sink,
    )
    .expect("one-shot check runs");
    assert_eq!(one_shot_code, 0, "post_v4 is compliant");
    let one_shot_v4 = String::from_utf8(sink).unwrap();

    // delta submission: the negotiation accepts, the reply is
    // byte-identical to the full-pair path, and only the changed
    // records were ever decoded
    let (code, delta_text) = submit_delta(
        &socket,
        &dir,
        "post_v4.json",
        &base_v2,
        &dir.join("delta_pre.json"),
        &dir.join("delta_post.json"),
    );
    assert_eq!(code, 0, "{delta_text}");
    assert!(
        !delta_text.contains("sending full snapshots"),
        "negotiation must accept the retained base: {delta_text}"
    );
    assert_eq!(verdict_bytes(&delta_text), verdict_bytes(&one_shot_v4));
    let delta_decodes = counters(&delta_text)[3];
    assert!(
        delta_decodes <= 2 * post_changed,
        "a delta decodes only the changed pairs ({post_changed} changed): {delta_text}"
    );
    let base_v4 = epoch_of(&delta_text);
    assert_ne!(base_v4, base_v2, "the retained base advances");

    // an unchanged iteration: empty deltas, zero graph decodes, every
    // class replayed warm
    let mut sink = Vec::new();
    cli::run(
        &Command::SnapshotDiff {
            base_pre: dir.join("pre.json"),
            base_post: dir.join("post_v4.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v4.json"),
            out_pre: dir.join("delta_pre2.json"),
            out_post: dir.join("delta_post2.json"),
        },
        &mut sink,
    )
    .expect("snapshot diff runs");
    assert_eq!(epoch_of(&String::from_utf8(sink).unwrap()), base_v4);
    let (code, unchanged) = submit_delta(
        &socket,
        &dir,
        "post_v4.json",
        &base_v4,
        &dir.join("delta_pre2.json"),
        &dir.join("delta_post2.json"),
    );
    assert_eq!(code, 0, "{unchanged}");
    let stats = counters(&unchanged);
    let (warm_hits, classes, decodes) = (stats[0], stats[1], stats[3]);
    assert_eq!(decodes, 0, "unchanged classes never decode: {unchanged}");
    assert!(classes > 0, "{unchanged}");
    assert_eq!(warm_hits, classes, "{unchanged}");
    assert_eq!(verdict_bytes(&unchanged), verdict_bytes(&one_shot_v4));

    // a stale base (the daemon has moved on) falls back to the full
    // pair and still completes with identical verdicts
    let (code, stale) = submit_delta(
        &socket,
        &dir,
        "post_v4.json",
        &base_v2,
        &dir.join("delta_pre.json"),
        &dir.join("delta_post.json"),
    );
    assert_eq!(code, 0, "{stale}");
    assert!(
        stale.contains("sending full snapshots"),
        "a stale base must miss: {stale}"
    );
    assert_eq!(verdict_bytes(&stale), verdict_bytes(&one_shot_v4));

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_submission_reports_job_id_and_offset() {
    let dir = demo_dir("malformed");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    let mut stream = UnixStream::connect(&socket).expect("connects");
    let options = serde_json::to_string(&JobOptions::default().to_value()).unwrap();
    write_frame(&mut stream, KIND_JOB, options.as_bytes()).unwrap();
    write_frame(&mut stream, KIND_PRE, b"{\"fecs\": [this is not json").unwrap();
    write_frame(&mut stream, KIND_PRE, b"").unwrap();
    write_frame(&mut stream, rela::proto::KIND_POST, b"{\"fecs\": []}").unwrap();
    write_frame(&mut stream, rela::proto::KIND_POST, b"").unwrap();
    match read_frame(&mut stream).unwrap() {
        Some((kind, payload)) => {
            let text = String::from_utf8(payload).unwrap();
            assert_eq!(kind, KIND_ERROR, "{text}");
            // the diagnostic names the daemon-assigned job, the side,
            // and where in the stream decoding failed
            assert!(text.contains("job-1:pre"), "{text}");
            assert!(text.contains("byte"), "{text}");
        }
        None => panic!("expected an error reply"),
    }
    drop(stream);

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// One stats schema: a REPORT frame's `stats` is `rela report --json`'s
/// `stats` for the same pair, key for key, plus exactly the daemon's
/// `base_epoch` and `retained_epochs`.
#[test]
fn a_report_frame_sends_the_report_json_stats() {
    let dir = demo_dir("schema");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);
    let keys = |stats: &serde::Value| -> Vec<String> {
        let fields = stats.as_obj().expect("stats is an object");
        fields.iter().map(|(key, _)| key.clone()).collect()
    };

    let mut stream = UnixStream::connect(&socket).expect("connects");
    let options = serde_json::to_string(&JobOptions::default().to_value()).unwrap();
    write_frame(&mut stream, KIND_JOB, options.as_bytes()).unwrap();
    for (kind, name) in [
        (KIND_PRE, "pre.json"),
        (rela::proto::KIND_POST, "post_v2.json"),
    ] {
        write_frame(&mut stream, kind, &std::fs::read(dir.join(name)).unwrap()).unwrap();
        write_frame(&mut stream, kind, b"").unwrap();
    }
    let (kind, payload) = read_frame(&mut stream).unwrap().expect("a reply");
    let reply = String::from_utf8(payload).unwrap();
    assert_eq!(kind, KIND_REPORT, "{reply}");
    let reply: serde::Value = serde_json::from_str(&reply).unwrap();
    drop(stream);

    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: rela::net::Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Json,
        },
        &mut sink,
    )
    .expect("rela report --json runs");
    assert_eq!(code, 1);
    let report: serde::Value = serde_json::from_str(&String::from_utf8(sink).unwrap()).unwrap();

    let mut want = keys(report.get("stats").unwrap());
    want.extend(["base_epoch".to_owned(), "retained_epochs".to_owned()]);
    assert_eq!(keys(reply.get("stats").unwrap()), want);

    sigterm(&daemon);
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_in_flight_job_and_refuses_new_ones() {
    let dir = demo_dir("drain");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    // start a job by hand and leave it mid-snapshot
    let mut stream = UnixStream::connect(&socket).expect("connects");
    let options = serde_json::to_string(&JobOptions::default().to_value()).unwrap();
    write_frame(&mut stream, KIND_JOB, options.as_bytes()).unwrap();
    let pre = std::fs::read(dir.join("pre.json")).unwrap();
    let (head, tail) = pre.split_at(pre.len() / 2);
    write_frame(&mut stream, KIND_PRE, head).unwrap();

    // wait until the daemon has actually started the job — a SIGTERM
    // racing the accept would (correctly) drain with nothing in flight
    wait_for_ping(&socket, ", 1 in flight,");

    // SIGTERM mid-job: the daemon must drain, not die
    sigterm(&daemon);
    // wait until the daemon reports itself draining
    wait_for_ping(&socket, "draining: true");

    // new submissions are refused while draining
    let mut refused = UnixStream::connect(&socket).expect("still accepting connections");
    write_frame(&mut refused, KIND_JOB, options.as_bytes()).unwrap();
    match read_frame(&mut refused).unwrap() {
        Some((kind, payload)) => {
            assert_eq!(kind, KIND_ERROR);
            let text = String::from_utf8(payload).unwrap();
            assert!(text.contains("draining"), "{text}");
        }
        None => panic!("expected a draining error reply"),
    }
    drop(refused);

    // `rela submit` surfaces the refusal as its own exit code so a
    // deploy pipeline can tell "back off and wait" from "bad input"
    let err = try_submit(&socket, &dir, "post_v4.json", JobOptions::default())
        .expect_err("a draining daemon refuses submissions");
    assert_eq!(err.code, 6, "{}", err.message);
    assert!(err.message.contains("draining"), "{}", err.message);

    // the in-flight job runs to completion and gets its report
    write_frame(&mut stream, KIND_PRE, tail).unwrap();
    write_frame(&mut stream, KIND_PRE, b"").unwrap();
    let post = std::fs::read(dir.join("post_v4.json")).unwrap();
    write_frame(&mut stream, rela::proto::KIND_POST, &post).unwrap();
    write_frame(&mut stream, rela::proto::KIND_POST, b"").unwrap();
    match read_frame(&mut stream).unwrap() {
        Some((kind, payload)) => {
            assert_eq!(kind, KIND_REPORT, "{}", String::from_utf8_lossy(&payload));
            let text = String::from_utf8(payload).unwrap();
            assert!(text.contains("\"exit\":0"), "{text}");
        }
        None => panic!("expected the in-flight job's report"),
    }
    drop(stream);

    // with the last connection gone the drain completes
    let out = drained_within_watchdog(daemon, &socket);
    assert!(out.contains("drained after 1 job(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole (b) end-to-end: a fault plan panics the engine on the first
/// job's first class decision. The client gets a typed `panic` error
/// (exit 5) naming the job; the daemon survives and serves the *same*
/// job again byte-identically to a one-shot check.
#[test]
fn a_panicking_job_is_contained_and_the_daemon_keeps_serving() {
    let dir = demo_dir("panic");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon_env(
        &dir,
        &socket,
        None,
        &[],
        &[("RELA_FAULTS", "panic=decide@1")],
    );

    let mut sink = Vec::new();
    let one_shot_code = cli::run(
        &Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: rela::net::Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Text { cache_stats: false },
        },
        &mut sink,
    )
    .expect("one-shot check runs");
    assert_eq!(one_shot_code, 1);
    let one_shot = String::from_utf8(sink).unwrap();

    let err = try_submit(&socket, &dir, "post_v2.json", JobOptions::default())
        .expect_err("the injected panic must fail the job");
    assert_eq!(err.code, 5, "{}", err.message);
    assert!(err.message.contains("job-1"), "{}", err.message);
    assert!(err.message.contains("panicked"), "{}", err.message);
    assert!(err.message.contains("injected fault"), "{}", err.message);

    // the daemon is still alive and the fault was one-shot: the very
    // same submission now completes, byte-identical to the one-shot
    let (code, text) =
        try_submit(&socket, &dir, "post_v2.json", JobOptions::default()).expect("daemon survived");
    assert_eq!(code, 1, "{text}");
    assert_eq!(verdict_bytes(&text), verdict_bytes(&one_shot));

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole (b): a `deadline_ms` that already expired aborts the job
/// cooperatively — typed `deadline` error, exit 4 — and the session
/// keeps serving jobs without it.
#[test]
fn an_expired_deadline_exits_4_and_the_daemon_survives() {
    let dir = demo_dir("deadline");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    let err = try_submit(
        &socket,
        &dir,
        "post_v2.json",
        JobOptions {
            deadline_ms: Some(0),
            ..JobOptions::default()
        },
    )
    .expect_err("a 0ms deadline must abort the job");
    assert_eq!(err.code, 4, "{}", err.message);
    assert!(err.message.contains("deadline"), "{}", err.message);

    let (code, text) =
        try_submit(&socket, &dir, "post_v4.json", JobOptions::default()).expect("daemon survived");
    assert_eq!(code, 0, "{text}");

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// `base epoch:` is the base *this* job retained. A materialized job
/// retains none (only the pipelined engine captures one), so it prints
/// no line — not the epoch of whichever pair the daemon retained last.
#[test]
fn a_no_stream_submit_does_not_report_another_jobs_base() {
    let dir = demo_dir("nostream-base");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    let (_, first) = submit(&socket, &dir, "post_v1.json", true);
    let base_v1 = stat_line(&first, "base epoch: ").to_owned();

    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Submit {
            socket: socket.clone(),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            delta: None,
            job: JobOptions {
                ingest: rela::lang::IngestMode::Materialized,
                ..JobOptions::default()
            },
            cache_stats: true,
            retry: rela::client::RetryPolicy::default(),
        },
        &mut sink,
    )
    .expect("submit succeeds");
    let materialized = String::from_utf8(sink).unwrap();
    assert_eq!(code, 1, "{materialized}");
    assert!(materialized.contains("cache: "), "{materialized}");
    assert!(!materialized.contains("base epoch:"), "{materialized}");

    // the same pair streamed retains, and names its own epoch
    let (_, streamed) = submit(&socket, &dir, "post_v2.json", true);
    assert_ne!(stat_line(&streamed, "base epoch: "), base_v1);
    assert_eq!(verdict_bytes(&streamed), verdict_bytes(&materialized));

    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut Vec::new(),
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// A difference whose every path is longer than the witness length
/// bound (a 70-device chain that disappears) comes back through the
/// daemon as exit 1 with a reason — under a raw inclusion (which used to
/// PASS) and under `nochange` (which used to FAIL with empty path sets).
#[test]
fn a_difference_past_the_witness_length_is_reported_through_submit() {
    use rela::net::{linear_graph, Device, FlowSpec, LocationDb, Snapshot};
    let names: Vec<String> = (0..70).map(|i| format!("hop{i}")).collect();
    let mut db = LocationDb::new();
    for name in &names {
        db.add_device(Device::new(name.as_str(), name.as_str()));
    }
    let chain: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut pre = Snapshot::new();
    pre.insert(
        FlowSpec::new("10.1.0.0/24".parse().unwrap(), "hop0"),
        linear_graph(&chain),
    );
    let cases = [
        (
            "rir keep := pre <= post\ncheck keep",
            "inclusion violated; extra paths: hop0 hop1 ",
        ),
        (
            "spec nochange := { .* : preserve }\ncheck nochange",
            "nochange: expected {hop0 hop1 ",
        ),
    ];
    for (ix, (spec, reason)) in cases.into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("rela-serve-long-chain-{ix}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("change.rela"), spec).unwrap();
        std::fs::write(dir.join("db.json"), serde_json::to_string(&db).unwrap()).unwrap();
        std::fs::write(dir.join("pre.json"), pre.to_json().unwrap()).unwrap();
        std::fs::write(dir.join("post.json"), Snapshot::new().to_json().unwrap()).unwrap();
        let socket = dir.join("daemon.sock");
        let daemon = spawn_daemon_with(&dir, &socket, None, &["--granularity", "device"]);

        let (code, text) = submit(&socket, &dir, "post.json", false);
        assert_eq!(code, 1, "{text}");
        assert!(text.contains(reason), "{text}");

        cli::run(
            &Command::Shutdown {
                socket: socket.clone(),
            },
            &mut Vec::new(),
        )
        .expect("shutdown is acknowledged");
        wait_exit(daemon, &socket);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Tentpole (d) end-to-end: with the default `--retain-epochs 2` two
/// interleaved delta chains — one pinned to (pre, v2), one to (pre, v4)
/// — both take the delta path with zero misses; a third full pair then
/// evicts the older epoch, whose next delta degrades to a full resubmit
/// with an identical report.
#[test]
fn two_retained_epochs_serve_interleaved_delta_chains() {
    let dir = demo_dir("kepoch");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");
    // a verdict store, so unchanged delta classes replay warm instead
    // of re-deciding (that's what makes the 0-decode assertion honest)
    let daemon = spawn_daemon(&dir, &socket, Some(&cache));

    let epoch_of = |text: &str| -> String {
        stat_line(text, "base epoch: ")
            .trim_start_matches("base epoch: ")
            .to_owned()
    };
    let decodes_of = |text: &str| -> usize {
        stat_line(text, "cache: ")
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .nth(3)
            .unwrap()
    };
    let diff_self = |post: &str, out: &str| -> String {
        let mut sink = Vec::new();
        cli::run(
            &Command::SnapshotDiff {
                base_pre: dir.join("pre.json"),
                base_post: dir.join(post),
                pre: dir.join("pre.json"),
                post: dir.join(post),
                out_pre: dir.join(format!("{out}_pre.json")),
                out_post: dir.join(format!("{out}_post.json")),
            },
            &mut sink,
        )
        .expect("snapshot diff runs");
        epoch_of(&String::from_utf8(sink).unwrap())
    };

    // two clients' epochs: (pre, v2) then (pre, v4) — both retained
    let (code, full_v2) = submit(&socket, &dir, "post_v2.json", true);
    assert_eq!(code, 1, "{full_v2}");
    let epoch_v2 = epoch_of(&full_v2);
    let (code, full_v4) = submit(&socket, &dir, "post_v4.json", true);
    assert_eq!(code, 0, "{full_v4}");
    let epoch_v4 = epoch_of(&full_v4);
    assert_ne!(epoch_v2, epoch_v4);

    // client 1 iterates against its v2 base: delta accepted, nothing
    // decoded, report identical to the full submission
    assert_eq!(diff_self("post_v2.json", "delta_a"), epoch_v2);
    let (code, text) = submit_delta(
        &socket,
        &dir,
        "post_v2.json",
        &epoch_v2,
        &dir.join("delta_a_pre.json"),
        &dir.join("delta_a_post.json"),
    );
    assert_eq!(code, 1, "{text}");
    assert!(
        !text.contains("sending full snapshots"),
        "v2 epoch must still be retained under K=2: {text}"
    );
    assert_eq!(
        decodes_of(&text),
        0,
        "an empty delta decodes nothing: {text}"
    );
    assert_eq!(verdict_bytes(&text), verdict_bytes(&full_v2));

    // client 2 interleaves against its v4 base: also zero misses
    assert_eq!(diff_self("post_v4.json", "delta_b"), epoch_v4);
    let (code, text) = submit_delta(
        &socket,
        &dir,
        "post_v4.json",
        &epoch_v4,
        &dir.join("delta_b_pre.json"),
        &dir.join("delta_b_post.json"),
    );
    assert_eq!(code, 0, "{text}");
    assert!(
        !text.contains("sending full snapshots"),
        "v4 epoch must still be retained under K=2: {text}"
    );
    assert_eq!(decodes_of(&text), 0, "{text}");
    assert_eq!(verdict_bytes(&text), verdict_bytes(&full_v4));

    // a third distinct pair evicts the oldest epoch (v2); its verdict
    // (the no-op change violates the spec) is not what's under test
    let (code, text) = submit(&socket, &dir, "pre.json", false);
    assert!(code <= 1, "{text}");

    // ... so client 1's next delta degrades to a full resubmit — same
    // report, no failure, just no longer work-proportional
    let (code, text) = submit_delta(
        &socket,
        &dir,
        "post_v2.json",
        &epoch_v2,
        &dir.join("delta_a_pre.json"),
        &dir.join("delta_a_post.json"),
    );
    assert_eq!(code, 1, "{text}");
    assert!(
        text.contains("sending full snapshots"),
        "the evicted epoch must miss: {text}"
    );
    assert_eq!(verdict_bytes(&text), verdict_bytes(&full_v2));

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a client that dies mid-RSNB-transfer must not leak its
/// spool file — the daemon removes it on the disconnect path and keeps
/// serving.
#[test]
fn a_client_disconnect_mid_spool_leaves_no_temp_files() {
    let dir = demo_dir("spool");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);
    let daemon_pid = daemon.id();

    // open a job whose pre side sniffs as an RSNB body, then vanish
    let mut stream = UnixStream::connect(&socket).expect("connects");
    let options = serde_json::to_string(&JobOptions::default().to_value()).unwrap();
    write_frame(&mut stream, KIND_JOB, options.as_bytes()).unwrap();
    let mut chunk = rela::net::BINARY_MAGIC.to_vec();
    chunk.extend_from_slice(&[0u8; 4096]);
    write_frame(&mut stream, KIND_PRE, &chunk).unwrap();
    drop(stream);

    // the daemon notices the dead peer and cleans its spool up
    let spool_prefix = format!("rela-serve-{daemon_pid}-job");
    let spools = || -> Vec<String> {
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(&spool_prefix))
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !spools().is_empty() {
        assert!(
            Instant::now() < deadline,
            "spool files leaked: {:?}",
            spools()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // and it still serves
    let (code, _) = submit(&socket, &dir, "post_v4.json", false);
    assert_eq!(code, 0);

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: startup sweeps RSNB spool files abandoned by *dead*
/// daemons (pid no longer in /proc) and leaves live writers' files
/// alone.
#[test]
fn startup_sweeps_spools_of_dead_daemons_only() {
    let tmp = std::env::temp_dir();
    // a u32 pid far above any real one: certainly not in /proc
    let dead = tmp.join("rela-serve-4294000001-job1-pre.rsnb");
    std::fs::write(&dead, b"RSNBleftovers").unwrap();
    // our own pid is alive, so this one must survive the sweep
    let live = tmp.join(format!("rela-serve-{}-job999-pre.rsnb", std::process::id()));
    std::fs::write(&live, b"RSNBinflight").unwrap();

    let dir = demo_dir("sweep");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    assert!(!dead.exists(), "dead daemon's spool must be swept");
    assert!(live.exists(), "live writer's spool must be kept");
    std::fs::remove_file(&live).ok();

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed `RELA_FAULTS` spec is a startup error (exit 2), not a
/// daemon that silently runs un-faulted.
#[test]
fn a_malformed_fault_spec_fails_startup() {
    let dir = demo_dir("badfaults");
    let socket = dir.join("daemon.sock");
    let status = Process::new(env!("CARGO_BIN_EXE_rela"))
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--spec")
        .arg(dir.join("change.rela"))
        .arg("--db")
        .arg(dir.join("db.json"))
        .env("RELA_FAULTS", "panic=decide@0")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("daemon spawns");
    assert_eq!(status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole (e): transport failures retry with backoff. Against a
/// socket nobody serves, each refused connect is retried the configured
/// number of times before the submit fails.
#[test]
fn refused_connects_retry_with_backoff_then_fail() {
    let dir = demo_dir("retrydead");
    let socket = dir.join("nobody-home.sock");
    let mut sink = Vec::new();
    let err = cli::run(
        &Command::Submit {
            socket: socket.clone(),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            delta: None,
            job: JobOptions::default(),
            cache_stats: false,
            retry: rela::client::RetryPolicy {
                retries: 2,
                delay_ms: 1,
            },
        },
        &mut sink,
    )
    .expect_err("no daemon: the submit must fail");
    assert_eq!(err.code, 2, "{}", err.message);
    let log = String::from_utf8(sink).unwrap();
    assert!(log.contains("submit attempt 1 failed"), "{log}");
    assert!(log.contains("submit attempt 2 failed"), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Tentpole (e): a submit that starts before the daemon exists succeeds
/// once the daemon comes up within the retry budget.
#[test]
fn retries_ride_out_a_daemon_that_starts_late() {
    let dir = demo_dir("retrylate");
    let socket = dir.join("daemon.sock");

    let submit_thread = {
        let (socket, dir) = (socket.clone(), dir.clone());
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let code = cli::run(
                &Command::Submit {
                    socket,
                    pre: dir.join("pre.json"),
                    post: dir.join("post_v4.json"),
                    delta: None,
                    job: JobOptions::default(),
                    cache_stats: false,
                    retry: rela::client::RetryPolicy {
                        retries: 40,
                        delay_ms: 100,
                    },
                },
                &mut sink,
            );
            (code, String::from_utf8(sink).unwrap())
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let daemon = spawn_daemon(&dir, &socket, None);

    let (code, log) = submit_thread.join().expect("submit thread");
    let code = code.unwrap_or_else(|e| panic!("{}: {log}", e.message));
    assert_eq!(code, 0, "{log}");
    assert!(log.contains("retrying in"), "{log}");

    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    wait_exit(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sum of `voluntary_ctxt_switches` over every thread of `pid`: how
/// often the process has gone to sleep in the kernel, i.e. (for a
/// process nobody talks to) how often a timer woke it.
fn voluntary_switches(pid: u32) -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        let line = status
            .lines()
            .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
        total += line.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// No timer runs in an idle daemon: the acceptor blocks in `accept`, the
/// watcher in `read`. Counted in context switches rather than timed — a
/// polling acceptor goes to sleep ≈ 20 times in 300 ms on any host, a
/// blocked one not at all.
#[test]
fn an_idle_daemon_does_not_wake() {
    let dir = demo_dir("idle");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);
    let (code, text) = submit(&socket, &dir, "post_v4.json", false);
    assert_eq!(code, 0, "{text}");
    // let the primed job's threads finish leaving
    std::thread::sleep(Duration::from_millis(100));

    match voluntary_switches(daemon.id()) {
        None => eprintln!("skipping: no /proc/<pid>/task/*/status on this host"),
        Some(before) => {
            std::thread::sleep(Duration::from_millis(300));
            let after = voluntary_switches(daemon.id()).expect("daemon still running");
            assert!(
                after.saturating_sub(before) <= 3,
                "an idle daemon slept {} times in 300 ms: something in it polls",
                after - before
            );
        }
    }

    sigterm(&daemon);
    drained_within_watchdog(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM to a daemon no client ever reached: only the signal watcher
/// can wake the acceptor.
#[test]
fn sigterm_wakes_a_daemon_that_never_had_a_connection() {
    let dir = demo_dir("wake-signal");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon_unpinged(&dir, &socket);
    sigterm(&daemon);
    let out = drained_within_watchdog(daemon, &socket);
    assert!(out.contains("drained after 0 job(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM while a client holds an idle connection open: the daemon
/// keeps answering pings, and exits only once that client hangs up —
/// woken by the last connection out, long after the signal's own knock.
#[test]
fn sigterm_with_an_idle_connection_exits_when_the_client_hangs_up() {
    let dir = demo_dir("wake-idle");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&dir, &socket, None);

    // a PING answered on it proves the connection is accepted and counted
    let mut idle = UnixStream::connect(&socket).expect("connects");
    write_frame(&mut idle, KIND_PING, b"").unwrap();
    assert!(matches!(read_frame(&mut idle), Ok(Some((KIND_PONG, _)))));

    sigterm(&daemon);
    wait_for_ping(&socket, "draining: true");
    let mut daemon = daemon;
    let still_up = daemon.0.as_mut().unwrap().try_wait().expect("try_wait");
    assert!(
        still_up.is_none(),
        "the daemon left a connected client behind"
    );

    drop(idle);
    let out = drained_within_watchdog(daemon, &socket);
    assert!(out.contains("drained after 0 job(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `submit --shutdown` as the only connection the daemon ever serves
/// concurrently: no signal, so the knock that ends the drain is the
/// shutdown connection's own departure.
#[test]
fn a_lone_shutdown_connection_wakes_the_acceptor_on_its_way_out() {
    let dir = demo_dir("wake-shutdown");
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon_unpinged(&dir, &socket);
    let mut sink = Vec::new();
    cli::run(
        &Command::Shutdown {
            socket: socket.clone(),
        },
        &mut sink,
    )
    .expect("shutdown is acknowledged");
    let out = drained_within_watchdog(daemon, &socket);
    assert!(out.contains("drained after 0 job(s)"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The lost-wakeup case: two threads churn connect → PING → close while
/// one SIGTERM lands somewhere among them, so the signal's knock, the
/// last-one-out knocks and real clients interleave every which way. No
/// repetition may hang, whichever connection the acceptor sees last.
#[test]
fn a_sigterm_racing_connection_churn_never_loses_the_wakeup() {
    let dir = demo_dir("wake-race");
    let socket = dir.join("daemon.sock");
    for repetition in 0..20 {
        let daemon = spawn_daemon_unpinged(&dir, &socket);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        // once the daemon is gone the connects fail
                        let Ok(mut stream) = UnixStream::connect(&socket) else {
                            return;
                        };
                        if write_frame(&mut stream, KIND_PING, b"").is_ok() {
                            let _ = read_frame(&mut stream);
                        }
                    }
                });
            }
            // a different point of the churn each repetition
            std::thread::sleep(Duration::from_micros(150 * repetition));
            sigterm(&daemon);
        });
        let out = drained_within_watchdog(daemon, &socket);
        assert!(
            out.contains("drained after 0 job(s)"),
            "repetition {repetition}: {out}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A panic in the connection plumbing — outside the job's own panic
/// boundary — costs that connection only: it is reported on stderr, the
/// daemon keeps serving, and the drain still completes because the
/// connection's claim is released as the thread unwinds.
#[test]
fn a_panicking_connection_thread_does_not_wedge_the_drain() {
    let dir = demo_dir("conn-panic");
    let socket = dir.join("daemon.sock");
    // reply 1 is the readiness ping's PONG
    let daemon = spawn_daemon_env(
        &dir,
        &socket,
        None,
        &[],
        &[("RELA_FAULTS", "panic=reply@2")],
    );
    let ping = || {
        cli::run(
            &Command::Ping {
                socket: socket.clone(),
            },
            &mut Vec::new(),
        )
    };
    let err = ping().expect_err("the injected panic eats this connection's reply");
    assert!(err.message.contains("without a reply"), "{}", err.message);
    ping().expect("the daemon survived its connection thread");

    sigterm(&daemon);
    let mut child = daemon.into_inner();
    let mut stderr = child.stderr.take().unwrap();
    let out = drained_within_watchdog(Daemon(Some(child)), &socket);
    assert!(out.contains("drained after 0 job(s)"), "{out}");
    let mut warnings = String::new();
    stderr.read_to_string(&mut warnings).ok();
    assert!(
        warnings.contains("warning: conn-2: connection thread panicked"),
        "{warnings}"
    );

    // the path is free again: a later daemon on it serves normally
    let daemon = spawn_daemon(&dir, &socket, None);
    let (code, text) = submit(&socket, &dir, "post_v4.json", false);
    assert_eq!(code, 0, "{text}");
    sigterm(&daemon);
    drained_within_watchdog(daemon, &socket);
    std::fs::remove_dir_all(&dir).ok();
}
