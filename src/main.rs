//! The `rela` binary. See [`rela::cli`] for the command reference.

// libc is not a dependency, so the two calls the daemon's signal path
// needs are declared by hand. `signal(2)` with a plain function pointer
// and `write(2)` are portable across the platforms the Unix-socket
// daemon supports.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// SIGTERM/SIGINT handler for `rela serve`: flip the drain flag, then
/// wake the daemon with one byte down its wake fd. The acceptor is
/// blocked in `accept`, not polling, so the flag alone would go
/// unnoticed; the byte reaches a watcher thread that knocks on the
/// daemon's own socket (`rela::serve`). Two atomic accesses and one
/// `write(2)` — all async-signal-safe. Before the daemon is accepting
/// there is no fd and nothing to wake: `serve` checks the flag itself
/// before its first `accept`.
extern "C" fn on_terminate(_signum: i32) {
    rela::serve::request_drain();
    if let Some(fd) = rela::serve::wake_fd() {
        let byte = 1u8;
        // SAFETY: `write(2)` is async-signal-safe and reads exactly the
        // one byte `&byte` points to, which outlives the call. `fd` is
        // the daemon's wake socket: `serve` keeps it open for as long as
        // `wake_fd` can have returned it, so the number names no other
        // file. The result is ignored — a full or closed socket means a
        // wake-up is already pending or no longer needed.
        unsafe {
            write(fd, &byte, 1);
        }
    }
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match rela::cli::parse_args(&args) {
        Ok(cmd) => {
            if matches!(cmd, rela::cli::Command::Serve(_)) {
                // graceful drain instead of the default fatal handlers
                unsafe {
                    signal(SIGTERM, on_terminate as *const () as usize);
                    signal(SIGINT, on_terminate as *const () as usize);
                }
            }
            match rela::cli::run(&cmd, &mut std::io::stdout()) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    e.code
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", rela::cli::USAGE);
            e.code
        }
    };
    std::process::exit(code);
}
