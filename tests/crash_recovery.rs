//! The kill-9-mid-persist harness (tentpole (c), CI `crash-recovery`
//! job): a daemon is SIGKILLed inside the fault-injected window between
//! its store flush's temp-file `fsync` and the atomic rename. The
//! committed store file must survive byte-intact (the interrupted flush
//! either never lands or lands whole — never torn), the dead writer's
//! temp file must be quarantined, not silently deleted, on the next
//! open, and a restarted daemon must warm-replay the surviving verdicts
//! byte-identically.

use rela::cli::{self, Command};
use rela::client::{RetryPolicy, SubmitArgs};
use rela::lang::JobOptions;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Process, Stdio};
use std::time::{Duration, Instant};

fn verdict_bytes(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.starts_with("checked ")
                && !l.starts_with("behavior classes:")
                && !l.starts_with("cache:")
                && !l.starts_with("warning:")
                && !l.starts_with("base epoch:")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

fn spawn_daemon(dir: &Path, socket: &Path, cache: &Path, faults: Option<&str>) -> Daemon {
    let mut cmd = Process::new(env!("CARGO_BIN_EXE_rela"));
    cmd.args(["serve", "--socket"])
        .arg(socket)
        .arg("--spec")
        .arg(dir.join("change.rela"))
        .arg("--db")
        .arg(dir.join("db.json"))
        .arg("--cache-dir")
        .arg(cache)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = faults {
        cmd.env("RELA_FAULTS", spec);
    }
    let daemon = Daemon(Some(cmd.spawn().expect("daemon spawns")));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if cli::run(&Command::Ping(socket.to_path_buf()), &mut Vec::new()).is_ok() {
            return daemon;
        }
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn submit(socket: &Path, dir: &Path, post: &str) -> (i32, String) {
    let mut sink = Vec::new();
    let code = cli::run(
        &Command::Submit(SubmitArgs {
            socket: socket.to_path_buf(),
            pre: dir.join("pre.json"),
            post: dir.join(post),
            delta: None,
            job: JobOptions::default(),
            cache_stats: true,
            retry: RetryPolicy::default(),
        }),
        &mut sink,
    )
    .expect("submit succeeds");
    (code, String::from_utf8(sink).unwrap())
}

fn cache_files(cache: &Path, marker: &str) -> Vec<PathBuf> {
    std::fs::read_dir(cache)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.contains(marker))
                })
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn kill_9_mid_persist_never_corrupts_the_store_and_warm_replay_survives() {
    let dir = std::env::temp_dir().join(format!("rela-crashrec-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cli::run(&Command::Demo(dir.clone()), &mut Vec::new()).expect("demo writes");
    let socket = dir.join("daemon.sock");
    let cache = dir.join("cache");

    // daemon 1: the first flush commits clean, the second stalls for
    // 30s in the window between temp-file fsync and rename — the
    // harness SIGKILLs it there
    let daemon = spawn_daemon(&dir, &socket, &cache, Some("pause=persist:30000@2"));

    let (code, first_reply) = submit(&socket, &dir, "post_v2.json");
    assert_eq!(code, 1, "{first_reply}");
    // the flush happens after the reply is sent — wait for the commit
    let store_file = {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let committed: Vec<PathBuf> = cache_files(&cache, "verdicts-");
            if let Some(p) = committed
                .iter()
                .find(|p| p.extension().is_some_and(|e| e == "json"))
            {
                break p.clone();
            }
            assert!(
                Instant::now() < deadline,
                "the first flush never committed a store file"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    let committed_bytes = std::fs::read(&store_file).unwrap();

    // job 2 dirties the store again; its flush enters the stall
    let (code, _) = submit(&socket, &dir, "post_v4.json");
    assert_eq!(code, 0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while cache_files(&cache, ".tmp.").is_empty() {
        assert!(
            Instant::now() < deadline,
            "the stalled flush never produced its temp file"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // SIGKILL inside the window: no drain, no cleanup, no rename
    drop(daemon);

    // the committed store survives byte-intact; the dead writer's temp
    // file is the only crash artifact
    assert_eq!(std::fs::read(&store_file).unwrap(), committed_bytes);
    assert_eq!(cache_files(&cache, ".tmp.").len(), 1);
    assert!(cache_files(&cache, ".quarantine.").is_empty());

    // daemon 2 (no faults): open-time recovery quarantines the torn
    // flush instead of silently deleting it, then serves warm
    let _daemon = spawn_daemon(&dir, &socket, &cache, None);
    assert_eq!(
        cache_files(&cache, ".quarantine.").len(),
        1,
        "the dead writer's temp file is evidence, not garbage"
    );
    // the quarantined file keeps its `.tmp.` name under the
    // `.quarantine.<n>` suffix — no *live* temp file may remain
    assert!(cache_files(&cache, ".tmp.")
        .iter()
        .all(|p| p.to_string_lossy().contains(".quarantine.")));

    // job 1's verdicts were in the committed flush: the resubmission
    // replays every class warm, byte-identical to the pre-crash reply
    let (code, replay) = submit(&socket, &dir, "post_v2.json");
    assert_eq!(code, 1, "{replay}");
    assert_eq!(verdict_bytes(&replay), verdict_bytes(&first_reply));
    let cache_line = replay
        .lines()
        .find(|l| l.starts_with("cache: "))
        .expect("cache stats line");
    let counts: Vec<usize> = cache_line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert!(counts[1] > 0, "{cache_line}");
    assert_eq!(
        counts[0], counts[1],
        "every class must replay warm from the surviving store: {cache_line}"
    );

    // job 2's verdicts died with the torn flush — they recompute (no
    // silent wrong answers), they are just cold again
    let (code, recomputed) = submit(&socket, &dir, "post_v4.json");
    assert_eq!(code, 0, "{recomputed}");

    let mut sink = Vec::new();
    cli::run(&Command::Shutdown(socket.clone()), &mut sink).expect("shutdown is acknowledged");
    std::fs::remove_dir_all(&dir).ok();
}
