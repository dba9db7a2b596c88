//! Child processes: the `rela` binary is driven as a real child, reaped
//! with a hand-declared `wait4(2)` so every op carries its own CPU time
//! and peak RSS. This is the crate's only `unsafe` module (the same
//! no-libc approach as `crates/net/src/mmap.rs`).
//!
//! Hygiene lives here too: a watchdog SIGKILLs any child that outlives
//! its deadline, [`Daemon`] kills and reaps `rela serve` on drop (so a
//! panic anywhere never leaks it), and [`WorkDir`] removes the scratch
//! tree on exit.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-op deadline: an op still running after this is killed and counts
/// as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(60);

mod sys {
    //! Signatures match 64-bit Linux (`long` = `i64`).

    /// `struct rusage`: two `timeval`s and fourteen `long`s.
    #[repr(C)]
    #[derive(Default)]
    pub(super) struct Rusage {
        pub(super) utime_sec: i64,
        pub(super) utime_usec: i64,
        pub(super) stime_sec: i64,
        pub(super) stime_usec: i64,
        pub(super) maxrss_kib: i64,
        rest: [i64; 13],
    }

    pub(super) const SIGKILL: i32 = 9;
    pub(super) const SC_CLK_TCK: i32 = 2;

    extern "C" {
        pub(super) fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub(super) fn kill(pid: i32, sig: i32) -> i32;
        pub(super) fn sysconf(name: i32) -> i64;
    }
}

/// Block until `pid` exits; return its exit code (`None` when a signal
/// killed it), CPU seconds (user + system) and peak RSS in KiB.
fn reap(pid: u32) -> std::io::Result<(Option<i32>, f64, u64)> {
    let mut status = 0i32;
    let mut usage = sys::Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, correctly
        // laid-out locals for the duration of the call; `pid` is a child
        // this process spawned and has not yet reaped.
        let got = unsafe { sys::wait4(pid as i32, &mut status, 0, &mut usage) };
        if got == pid as i32 {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let cpu = (usage.utime_sec + usage.stime_sec) as f64
        + (usage.utime_usec + usage.stime_usec) as f64 / 1e6;
    Ok((code, cpu, usage.maxrss_kib.max(0) as u64))
}

fn sigkill(pid: u32) {
    // SAFETY: plain syscall on a pid; a stale pid at worst yields ESRCH.
    unsafe { sys::kill(pid as i32, sys::SIGKILL) };
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU fields.
fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` reads a constant; no pointers involved.
    let ticks = unsafe { sys::sysconf(sys::SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// One finished child.
#[derive(Debug)]
pub struct Finished {
    /// Exit code; `None` when a signal (the watchdog's SIGKILL) ended it.
    pub code: Option<i32>,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// Spawn → stdout closed and exit reaped.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set of the child, KiB.
    pub maxrss_kib: u64,
}

/// The children currently covered by the watchdog, with their deadlines.
type Watched = Arc<Mutex<Vec<(u32, Instant)>>>;

/// Spawns `rela` children in one working directory.
pub struct Runner {
    rela: PathBuf,
    cwd: PathBuf,
    watched: Watched,
    /// Dropping the sender tells the watchdog to end.
    stop: Option<mpsc::Sender<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Runner {
    /// A runner for the binary at `rela`; children run with `cwd` as
    /// their working directory and their stderr appended to
    /// `cwd/stderr.log`.
    pub fn new(rela: &Path, cwd: &Path) -> Runner {
        let watched: Watched = Arc::new(Mutex::new(Vec::new()));
        let (stop, stopped) = mpsc::channel::<()>();
        let watchdog = {
            let watched = Arc::clone(&watched);
            std::thread::spawn(move || {
                while stopped.recv_timeout(Duration::from_millis(200))
                    == Err(mpsc::RecvTimeoutError::Timeout)
                {
                    let now = Instant::now();
                    for &(pid, deadline) in watched
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .iter()
                    {
                        if now >= deadline {
                            sigkill(pid);
                        }
                    }
                }
            })
        };
        Runner {
            rela: rela.to_owned(),
            cwd: cwd.to_owned(),
            watched,
            stop: Some(stop),
            watchdog: Some(watchdog),
        }
    }

    /// The working directory of the children.
    pub fn cwd(&self) -> &Path {
        &self.cwd
    }

    fn command(&self, args: &[&str]) -> Result<Command, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.cwd.join("stderr.log"))
            .map_err(|e| format!("stderr.log: {e}"))?;
        let mut cmd = Command::new(&self.rela);
        cmd.args(args)
            .current_dir(&self.cwd)
            // the daemon spools into the temp dir; keep that in the tree
            .env("TMPDIR", self.cwd.join("tmp"))
            .env_remove("RELA_FAULTS")
            .stdin(Stdio::null())
            .stderr(log);
        Ok(cmd)
    }

    /// Run one `rela` invocation to completion: one op.
    pub fn run(&self, args: &[&str]) -> Result<Finished, String> {
        let mut cmd = self.command(args)?;
        cmd.stdout(Stdio::piped());
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.rela.display()))?;
        let pid = child.id();
        self.watched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((pid, start + OP_TIMEOUT));
        let mut stdout = String::new();
        let read = child
            .stdout
            .take()
            .expect("stdout was piped")
            .read_to_string(&mut stdout);
        let reaped = reap(pid);
        let wall_s = start.elapsed().as_secs_f64();
        self.watched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|&(watched, _)| watched != pid);
        read.map_err(|e| format!("reading child stdout: {e}"))?;
        let (code, cpu_s, maxrss_kib) = reaped.map_err(|e| format!("wait4: {e}"))?;
        Ok(Finished {
            code,
            stdout,
            wall_s,
            cpu_s,
            maxrss_kib,
        })
    }

    /// Run an invocation that must exit 0 (set-up steps); returns its
    /// stdout.
    pub fn run_ok(&self, args: &[&str]) -> Result<String, String> {
        let done = self.run(args)?;
        if done.code == Some(0) {
            Ok(done.stdout)
        } else {
            Err(format!(
                "`rela {}` exited {:?}\n{}",
                args.join(" "),
                done.code,
                self.stderr_tail()
            ))
        }
    }

    /// The last lines the children wrote to stderr.
    pub fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.cwd.join("stderr.log")).unwrap_or_default();
        let lines: Vec<&str> = text.lines().rev().take(5).collect();
        lines.into_iter().rev().collect::<Vec<_>>().join("\n")
    }

    /// Start `rela serve` and wait until it answers a ping. The daemon
    /// and its clients share the working directory, so the socket is the
    /// relative path [`SOCKET`] on every command line: `sun_path` stays
    /// a few bytes long however deep the scratch tree sits.
    pub fn serve(&self, args: &[&str]) -> Result<Daemon, String> {
        std::fs::create_dir_all(self.cwd.join("tmp")).map_err(|e| format!("tmp: {e}"))?;
        let mut cmd = self.command(args)?;
        cmd.stdout(Stdio::null());
        let start = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.rela.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            start_s: 0.0,
        };
        let socket = self.cwd.join(SOCKET);
        loop {
            // the socket file appears at bind; a ping proves it listens
            if socket.exists()
                && self.run(&["submit", "--socket", SOCKET, "--ping"])?.code == Some(0)
            {
                daemon.start_s = start.elapsed().as_secs_f64();
                return Ok(daemon);
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok())
                .flatten();
            if exited.is_some() || start.elapsed() > Duration::from_secs(20) {
                return Err(format!(
                    "`rela serve` did not come up ({})\n{}",
                    match exited {
                        Some(status) => format!("exited {status}"),
                        None => "timed out".to_owned(),
                    },
                    self.stderr_tail()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        self.stop = None;
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
    }
}

/// Socket file name inside the working directory.
pub const SOCKET: &str = "s.sock";

/// A running `rela serve`. Dropping it SIGKILLs and reaps the process,
/// so no exit path — a failed check, a panic — leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    /// Spawn → first accepted connection.
    pub start_s: f64,
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// CPU seconds (user + system) the daemon has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = rest.split_whitespace().skip(11);
        let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
        match (tick(), tick()) {
            (Some(utime), Some(stime)) => Ok((utime + stime) / clock_ticks()),
            _ => Err(format!("{path}: unexpected format")),
        }
    }

    /// The daemon's peak resident set so far (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Wait for a daemon that was asked to drain; returns the seconds
    /// until it exited. A daemon that does not exit 0 within the op
    /// timeout is killed (by drop) and reported.
    pub fn wait_drained(mut self) -> Result<f64, String> {
        let start = Instant::now();
        let child = self.child.as_mut().expect("daemon is running");
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    self.child = None;
                    return if status.success() {
                        Ok(start.elapsed().as_secs_f64())
                    } else {
                        Err(format!("`rela serve` exited {status}"))
                    };
                }
                Ok(None) if start.elapsed() < OP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => return Err("`rela serve` did not drain".to_owned()),
                Err(e) => return Err(format!("waiting for `rela serve`: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The benchmark's scratch tree, `<target dir>/relabench/<pid>/`,
/// removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create the tree under `target_dir`.
    pub fn create(target_dir: &Path) -> Result<WorkDir, String> {
        let path = target_dir
            .join("relabench")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        let fail = |e: std::io::Error| format!("{}: {e}", path.display());
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(fail)?;
        }
        std::fs::create_dir_all(&path).map_err(fail)?;
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_is_reaped_with_its_exit_code_and_resources() {
        let exe = std::env::current_exe().unwrap();
        let dir = exe.with_file_name(format!("relabench-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let runner = Runner::new(Path::new("/bin/sh"), &dir);
        let done = runner
            .run(&["-c", "echo out; echo err >&2; exit 3"])
            .unwrap();
        assert_eq!(done.code, Some(3));
        assert_eq!(done.stdout, "out\n");
        assert!(done.wall_s > 0.0 && done.cpu_s >= 0.0);
        assert!(done.maxrss_kib > 0);
        assert_eq!(runner.stderr_tail(), "err");
        assert!(runner.run_ok(&["-c", "exit 1"]).is_err());
        assert_eq!(runner.run_ok(&["-c", "echo fine"]).unwrap(), "fine\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
