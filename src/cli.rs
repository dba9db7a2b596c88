//! The `rela` command-line tool: validate a network change from files.
//!
//! ```text
//! rela check --spec change.rela --db db.json --pre pre.json --post post.json
//!            [--granularity group|device|interface] [--threads N]
//! rela diff  --db db.json --pre pre.json --post post.json
//!            [--granularity group|device|interface]
//! rela demo  [--out DIR]      # write the Figure 1 case study as files
//! ```
//!
//! `check` exits 0 when the change complies with the spec and 1 when it
//! does not (2 on usage or input errors), so it slots into change
//! pipelines — the integration the paper reports ("we are now
//! integrating Rela into the change pipeline of this network", §1).
//!
//! Each subcommand is one args struct whose `parse` reads its flags and
//! whose `run` executes it; [`parse_args`] vets the flags against one
//! table and [`run`] only dispatches. `rela serve` and `rela submit`
//! keep theirs beside the daemon and the client (`src/serve.rs`,
//! `src/client.rs`).

use rela_baseline::{path_diff, DiffOptions};

use crate::client::SubmitArgs;
use crate::serve::ServeConfig;
use rela_core::{CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela_net::faultio::FaultPlan;
use rela_net::{
    diff_side, pair_epoch, scan_side, snapshot_source, write_delta, BinarySnapshotWriter,
    Granularity, LocationDb, MmapSource, SideScan, Snapshot, SnapshotFramer, SnapshotPair,
    BINARY_MAGIC,
};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// How a check renders its report — the one thing `rela check` and
/// `rela report` differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `rela check`: the human table.
    Text {
        /// `--cache-stats`: print warm-hit/store counters after the
        /// report.
        cache_stats: bool,
    },
    /// `rela report --json` (the default export): verdict, stats, and
    /// per-FEC violations.
    Json,
    /// `rela report --csv`: one row per violated sub-spec.
    Csv,
}

/// A parsed command line: one variant per subcommand, each carrying
/// that subcommand's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Validate a change spec against a snapshot pair: `rela check`, or
    /// `rela report` when the output is an export.
    Check(CheckArgs),
    /// Run the resident verification daemon: `rela serve`.
    Serve(ServeConfig),
    /// Submit one check job to a running daemon: `rela submit`.
    Submit(SubmitArgs),
    /// Probe the daemon on this socket: `rela submit --ping`.
    Ping(PathBuf),
    /// Ask the daemon on this socket to drain and exit: `rela submit
    /// --shutdown`.
    Shutdown(PathBuf),
    /// Cache maintenance: `rela cache gc`.
    CacheGc(CacheGcArgs),
    /// Convert a snapshot between the JSON and binary containers
    /// without decoding records: `rela snapshot pack`.
    SnapshotPack(PackArgs),
    /// Scan a base pair and a new pair, write per-side delta documents
    /// for `rela submit --delta-base`: `rela snapshot diff`.
    SnapshotDiff(SnapshotDiffArgs),
    /// Print the §2.3 path diff (the manual-inspection baseline).
    Diff(DiffArgs),
    /// Write the Figure 1 case study inputs to this directory.
    Demo(PathBuf),
    /// Print usage.
    Help,
}

/// CLI failure with a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Message for stderr.
    pub message: String,
    /// Process exit code (2 = usage/input error).
    pub code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// The one exit-2 error: a usage error, or input the command cannot use.
pub(crate) fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

/// An exit-2 error about one file: `PATH: error`.
pub(crate) fn path_error(path: &Path, e: impl fmt::Display) -> CliError {
    usage_error(format!("{}: {e}", path.display()))
}

fn invalid_snapshot(e: impl fmt::Display) -> CliError {
    usage_error(format!("invalid snapshot: {e}"))
}

/// Write `text` to `out`; a failed write is an exit-2 error.
pub(crate) fn emit(out: &mut dyn Write, text: &str) -> Result<(), CliError> {
    out.write_all(text.as_bytes())
        .map_err(|e| usage_error(format!("write failed: {e}")))
}

/// Map a failed job to its process exit code: 2 for input errors, 4
/// when the job's `--deadline-ms` fired, 5 when the engine panicked
/// (contained at the session boundary).
fn job_error(e: rela_core::JobError) -> CliError {
    use rela_core::JobError;
    let code = match &e {
        JobError::Snapshot(_) => return invalid_snapshot(e),
        JobError::DeadlineExceeded { .. } => 4,
        JobError::Panicked { .. } => 5,
    };
    CliError {
        message: e.to_string(),
        code,
    }
}

/// The help text.
pub const USAGE: &str = "\
rela — relational network verification (SIGCOMM 2024 reproduction)

USAGE:
  rela check --spec FILE --db FILE --pre FILE --post FILE
             [--granularity group|device|interface] [--threads N] [--no-dedup]
             [--cache-dir DIR] [--no-cache] [--cache-stats] [--deadline-ms N]
  rela serve --socket PATH --spec FILE --db FILE
             [--granularity group|device|interface] [--threads N]
             [--cache-dir DIR] [--retain-epochs K] [--retain-bytes N]
  rela submit --socket PATH --pre FILE --post FILE
             [--delta-base EPOCH --delta-pre FILE --delta-post FILE]
             [--no-dedup] [--no-cache] [--cache-stats] [--deadline-ms N]
             [--retries N] [--retry-delay-ms N]
  rela submit --socket PATH --ping | --shutdown
  rela report --spec FILE --db FILE --pre FILE --post FILE [--json | --csv]
             [check flags other than --cache-stats]
  rela snapshot pack --in FILE --out FILE [--unpack]
  rela snapshot diff --base-pre FILE --base-post FILE --pre FILE --post FILE
             --out-pre FILE --out-post FILE
  rela diff  --db FILE --pre FILE --post FILE
             [--granularity group|device|interface]
  rela cache gc --cache-dir DIR [--spec FILE --db FILE]
             [--keep-epochs N] [--max-bytes N]
  rela demo  [--out DIR]
  rela help

check validates the change: exit 0 = compliant, 1 = violations found.
--no-dedup disables behavior-class dedup (decide every FEC from
scratch instead of once per distinct pre/post behavior).
--cache-dir persists decided verdicts across runs keyed by behavior
hashes under an epoch of the spec + engine version, so re-validating
iteration N+1 of a change only re-decides classes whose behavior moved
(opening the store also sweeps stale epochs: see `rela cache gc`).
--no-cache skips the cache for one run; --cache-stats prints warm-hit
and store counters after the report.
check ingests the snapshot files through a pipeline by default: a reader
thread frames raw records, a worker pool decodes and fingerprints them,
and each behavior class is decided once both files are read — only one
forwarding graph per class is ever held in memory (docs/SNAPSHOT_FORMAT.md
specifies the wire format; files ending in .gz are gunzipped on the fly).
serve keeps a compiled spec, location db, verdict store, and FST memo
resident behind a Unix socket; submit streams a snapshot pair to it and
prints a report byte-identical to a one-shot check of the same pair —
re-validating iteration N+1 of a change pays none of the startup cost.
SIGTERM (or submit --shutdown) drains the daemon: in-flight jobs finish,
new submissions are refused, then it exits 0 (docs/SERVE_PROTOCOL.md
specifies the wire protocol).
submit can ship only the change: --delta-base names a snapshot epoch
the daemon retains (printed as `base epoch:` by a --cache-stats submit;
serve keeps the last K = --retain-epochs bases, optionally bounded by
--retain-bytes) and --delta-pre/--delta-post carry per-side delta
documents (see `rela snapshot diff`); when the daemon no longer holds
that base it answers with its current epoch and the client falls back
to streaming the full --pre/--post pair, so the submit always completes.
--deadline-ms bounds one job: a job that runs past it is abandoned at
the next class boundary with exit code 4 (the session/daemon survives).
A job that panics the engine yields a typed error and exit code 5 while
the daemon keeps serving; a draining daemon refuses new jobs with exit
code 6. --retries N retries refused connects and torn connections with
jittered exponential backoff (base --retry-delay-ms, default 50); typed
daemon errors never retry.
report runs the same check as `check` but prints a machine-readable
export: --json (the default; verdict, stats, and per-FEC violations) or
--csv (one row per violated sub-spec).
snapshot pack converts between the JSON and binary snapshot containers
(docs/SNAPSHOT_FORMAT.md) without decoding records — both containers
hash and check identically; --unpack emits JSON from either input.
snapshot diff scans a base pair and a new pair (no graph ever decodes)
and writes per-side delta documents naming the base pair's epoch.
cache gc prunes a verdict-store directory: with --spec/--db, every epoch
other than the current spec's is dropped (keep the N most recent instead
with --keep-epochs); --max-bytes caps the directory size.
diff prints the manual path-diff baseline (every changed traffic class).
demo writes the paper's Figure 1 case study (db, snapshots, spec) so you
can try: rela demo --out /tmp/fig1 && rela check --spec /tmp/fig1/change.rela \\
  --db /tmp/fig1/db.json --pre /tmp/fig1/pre.json --post /tmp/fig1/post_v2.json";

/// The flags of one command line once the flag table has vetted them:
/// each name without its `--`, with its value (`"true"` for a switch).
#[derive(Debug, Default)]
pub(crate) struct Flags(BTreeMap<String, String>);

impl Flags {
    pub(crate) fn value(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    pub(crate) fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    pub(crate) fn path(&self, key: &str) -> Option<PathBuf> {
        self.value(key).map(PathBuf::from)
    }

    /// Refuse any flag given beside `--{key}` other than those in
    /// `allowed`, naming the first.
    pub(crate) fn alone(&self, key: &str, allowed: &[&str]) -> Result<(), CliError> {
        match self
            .0
            .keys()
            .find(|other| *other != key && !allowed.contains(&other.as_str()))
        {
            Some(other) => Err(usage_error(format!(
                "`--{key}` cannot be combined with `--{other}`"
            ))),
            None => Ok(()),
        }
    }

    pub(crate) fn need(&self, key: &str) -> Result<PathBuf, CliError> {
        self.path(key)
            .ok_or_else(|| usage_error(format!("missing required flag `--{key}`")))
    }

    /// A numeric flag: absent is `None`, a value that does not parse is
    /// refused by name.
    pub(crate) fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let parse = |raw: &str| {
            raw.parse()
                .map_err(|_| usage_error(format!("invalid --{key} `{raw}`")))
        };
        self.value(key).map(parse).transpose()
    }

    fn granularity(&self) -> Result<Granularity, CliError> {
        self.value("granularity")
            .map_or(Ok(Granularity::Group), |raw| {
                raw.parse().map_err(usage_error)
            })
    }
}

/// `--no-dedup`, `--no-cache` and `--deadline-ms` for `check`, `report`
/// and `submit`: one [`JobOptions`], shared verbatim between the
/// one-shot CLI and the serve wire protocol.
pub(crate) fn job_options(flags: &Flags) -> Result<JobOptions, CliError> {
    Ok(JobOptions {
        dedup: !flags.has("no-dedup"),
        use_cache: !flags.has("no-cache"),
        deadline_ms: flags.number("deadline-ms")?,
        ..JobOptions::default()
    })
}

/// Parse command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    // `cache` and `snapshot` take a subcommand before their flags
    let (name, rest) = match (cmd.as_str(), rest.split_first()) {
        ("cache", Some((sub, tail))) if sub == "gc" => ("cache gc", tail),
        ("snapshot", Some((sub, tail))) if sub == "pack" => ("snapshot pack", tail),
        ("snapshot", Some((sub, tail))) if sub == "diff" => ("snapshot diff", tail),
        ("cache" | "snapshot", Some((sub, _))) => {
            return Err(usage_error(format!("unknown {cmd} subcommand `{sub}`")))
        }
        ("cache", None) => return Err(usage_error("`cache` needs a subcommand (try `cache gc`)")),
        ("snapshot", None) => {
            return Err(usage_error(
                "`snapshot` needs a subcommand (try `snapshot pack` or `snapshot diff`)",
            ))
        }
        ("help" | "--help" | "-h", _) => ("help", rest),
        (own @ ("check" | "serve" | "submit" | "report" | "diff" | "demo"), _) => (own, rest),
        (other, _) => return Err(usage_error(format!("unknown command `{other}`"))),
    };
    // The one flag table: every flag, whether it takes a value, and the
    // subcommands that own it. Anything not in it is a typo, and a typo
    // must not swallow the next argument as its value; a flag another
    // subcommand owns is refused by name, not parsed and then ignored
    // (`submit --spec other.rela` would be checked under the daemon's).
    const FLAGS: [(&str, bool, &[&str]); 32] = [
        ("--spec", true, &["check", "report", "serve", "cache gc"]),
        (
            "--db",
            true,
            &["check", "report", "serve", "diff", "cache gc"],
        ),
        (
            "--pre",
            true,
            &["check", "report", "submit", "diff", "snapshot diff"],
        ),
        (
            "--post",
            true,
            &["check", "report", "submit", "diff", "snapshot diff"],
        ),
        ("--granularity", true, &["check", "report", "serve", "diff"]),
        ("--threads", true, &["check", "report", "serve"]),
        (
            "--cache-dir",
            true,
            &["check", "report", "serve", "cache gc"],
        ),
        ("--deadline-ms", true, &["check", "report", "submit"]),
        ("--socket", true, &["serve", "submit"]),
        ("--retain-epochs", true, &["serve"]),
        ("--retain-bytes", true, &["serve"]),
        ("--delta-base", true, &["submit"]),
        ("--delta-pre", true, &["submit"]),
        ("--delta-post", true, &["submit"]),
        ("--retries", true, &["submit"]),
        ("--retry-delay-ms", true, &["submit"]),
        ("--in", true, &["snapshot pack"]),
        ("--out", true, &["snapshot pack", "demo"]),
        ("--base-pre", true, &["snapshot diff"]),
        ("--base-post", true, &["snapshot diff"]),
        ("--out-pre", true, &["snapshot diff"]),
        ("--out-post", true, &["snapshot diff"]),
        ("--keep-epochs", true, &["cache gc"]),
        ("--max-bytes", true, &["cache gc"]),
        ("--no-dedup", false, &["check", "report", "submit"]),
        ("--no-cache", false, &["check", "report", "submit"]),
        ("--cache-stats", false, &["check", "submit"]),
        ("--ping", false, &["submit"]),
        ("--shutdown", false, &["submit"]),
        ("--unpack", false, &["snapshot pack"]),
        ("--json", false, &["report"]),
        ("--csv", false, &["report"]),
    ];
    let mut flags = Flags::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(usage_error(format!("unexpected argument `{flag}`")));
        }
        let Some((_, takes_value, owners)) = FLAGS.iter().find(|(known, ..)| known == flag) else {
            return Err(usage_error(format!("unknown flag `{flag}`")));
        };
        if !owners.contains(&name) {
            return Err(usage_error(format!(
                "flag `{flag}` does not apply to `{name}`"
            )));
        }
        // a repeated flag has no one meaning: the last value winning
        // would check a pair the user did not ask about
        let key = flag.trim_start_matches("--");
        if flags.has(key) {
            return Err(usage_error(format!("flag `{flag}` given twice")));
        }
        let value = if *takes_value {
            it.next()
                .ok_or_else(|| usage_error(format!("flag `{flag}` needs a value")))?
                .clone()
        } else {
            "true".to_owned()
        };
        flags.0.insert(key.to_owned(), value);
    }
    match name {
        "check" | "report" => CheckArgs::parse(&flags, name).map(Command::Check),
        "serve" => ServeConfig::parse(&flags).map(Command::Serve),
        "submit" => SubmitArgs::parse(&flags),
        "snapshot pack" => PackArgs::parse(&flags).map(Command::SnapshotPack),
        "snapshot diff" => SnapshotDiffArgs::parse(&flags).map(Command::SnapshotDiff),
        "diff" => DiffArgs::parse(&flags).map(Command::Diff),
        "cache gc" => CacheGcArgs::parse(&flags).map(Command::CacheGc),
        "demo" => Ok(Command::Demo(
            flags.path("out").unwrap_or_else(|| "fig1-demo".into()),
        )),
        _ => Ok(Command::Help), // the match above refused every other name
    }
}

/// Execute a command, writing human output through `out`. Returns the
/// process exit code.
pub fn run(cmd: &Command, out: &mut dyn Write) -> Result<i32, CliError> {
    match cmd {
        Command::Help => emit(out, &format!("{USAGE}\n")).map(|()| 0),
        Command::Check(args) => args.run(out),
        Command::Serve(config) => crate::serve::serve(config, out),
        Command::Submit(args) => crate::client::submit(args, out),
        Command::Ping(socket) => crate::client::control(socket, false, out),
        Command::Shutdown(socket) => crate::client::control(socket, true, out),
        Command::SnapshotPack(args) => args.run(out),
        Command::SnapshotDiff(args) => args.run(out),
        Command::Diff(args) => args.run(out),
        Command::CacheGc(args) => args.run(out),
        Command::Demo(dir) => demo(dir, out),
    }
}

fn read(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| path_error(path, e))
}

fn load_db(path: &Path) -> Result<LocationDb, CliError> {
    serde_json::from_str(&read(path)?)
        .map_err(|e| usage_error(format!("{}: invalid location db: {e}", path.display())))
}

/// Open a snapshot file as a byte source (`.gz` inflates on the fly).
fn open_snapshot(path: &Path) -> Result<Box<dyn Read + Send>, CliError> {
    snapshot_source(path).map_err(|e| path_error(path, e))
}

/// Read a whole snapshot the way every job does: through the streaming
/// reader, so RSNB opens like JSON and a duplicated flow is an error
/// naming its entry and byte, labelled with the path.
fn load_snapshot(path: &Path) -> Result<Snapshot, CliError> {
    Snapshot::from_reader(open_snapshot(path)?)
        .map_err(|e| invalid_snapshot(e.with_source_label(path.display().to_string())))
}

/// Open a snapshot path as a labeled source for a job — the one place
/// that chooses between mapping a file and streaming it
/// (`docs/INGEST.md`, *How the mapped path is chosen*): a plain regular
/// file opening with the RSNB magic is mapped, everything else is
/// streamed. Each path is opened exactly once, and what it is gets asked
/// of a `stat` first: a FIFO hands its writer's bytes to whichever open
/// reads it, so an open made only to look at the head would eat them.
fn labeled(path: &Path) -> Result<LabeledSource<'static>, CliError> {
    use std::os::unix::fs::FileExt;
    let label = path.display().to_string();
    let gzip = path.extension().is_some_and(|ext| ext == "gz");
    if gzip || !std::fs::metadata(path).is_ok_and(|m| m.is_file()) {
        return Ok(LabeledSource::new(open_snapshot(path)?, label));
    }
    let file = std::fs::File::open(path).map_err(|e| path_error(path, e))?;
    let mut head = [0u8; 4];
    if file.read_exact_at(&mut head, 0).is_ok() && head == BINARY_MAGIC {
        let map = MmapSource::map(&file).map_err(|e| path_error(path, e))?;
        return Ok(LabeledSource::mapped(map, label));
    }
    Ok(LabeledSource::new(file, label))
}

/// The tail `rela check` and `rela submit` share on their `cache:` line,
/// read off the one stats schema (`CheckStats`' serialization, which a
/// REPORT frame carries): live and dead sides, then every row of the
/// job's `stages_s` table, in its order, in milliseconds.
pub(crate) fn cache_tail(stats: &Value) -> String {
    let count = |name: &str| stats.get(name).and_then(Value::as_u64).unwrap_or(0);
    let [live, dead] = ["live_sides", "dead_sides"].map(count);
    let mut tail = format!("{live} live / {dead} dead sides");
    let rows = stats.get("stages_s").and_then(Value::as_obj);
    for (name, seconds) in rows.unwrap_or_default() {
        let ms = seconds.as_f64().unwrap_or(0.0) * 1e3;
        tail.push_str(&format!(", {name} {ms:.2}ms"));
    }
    tail
}

/// What a check session opens from — the part of the command line
/// `rela check` / `rela report` and `rela serve` share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionArgs {
    /// Path to the `.rela` spec program (`--spec`).
    pub spec: PathBuf,
    /// Path to the location database JSON (`--db`).
    pub db: PathBuf,
    /// Persistent verdict-cache directory (`--cache-dir`); `None`
    /// checks from scratch.
    pub cache_dir: Option<PathBuf>,
    /// Granularity (`--granularity`), worker threads (`--threads`, 0 =
    /// auto) and the delta bases a daemon retains (`--retain-epochs`,
    /// `--retain-bytes`; a one-shot check retains none).
    pub config: SessionConfig,
}

impl SessionArgs {
    pub(crate) fn parse(flags: &Flags) -> Result<SessionArgs, CliError> {
        let config = SessionConfig {
            granularity: flags.granularity()?,
            threads: flags.number("threads")?.unwrap_or(0),
            ..SessionConfig::default()
        };
        Ok(SessionArgs {
            spec: flags.need("spec")?,
            db: flags.need("db")?,
            cache_dir: flags.path("cache-dir"),
            config,
        })
    }
}

/// Open a check session — the one opener `check` and a `rela serve`
/// daemon share: read the spec, load the location db, compile, then
/// attach the verdict store (with `use_cache`) with its open-time sweep.
/// `faults` goes to the session and the store. An unopenable store
/// degrades to a cold (cache-free) run with a warning on `warn`: the
/// cache is an accelerator, never a dependency, so an IO problem must
/// not block or re-label a valid validation.
pub(crate) fn open_session(
    args: &SessionArgs,
    use_cache: bool,
    faults: Option<&FaultPlan>,
    warn: &mut dyn Write,
) -> Result<CheckSession, CliError> {
    let source = read(&args.spec)?;
    let db = load_db(&args.db)?;
    let mut session =
        CheckSession::open(&source, db, args.config).map_err(|e| path_error(&args.spec, e))?;
    session.set_faults(faults.cloned());
    if let Some(dir) = args.cache_dir.as_deref().filter(|_| use_cache) {
        // open-time sweep: stale sibling epochs age out of long-lived
        // change-pipeline directories
        let policy = rela_cache::GcPolicy::default();
        match rela_cache::VerdictStore::open_with_gc(dir, session.epoch(), &policy) {
            Ok(mut store) => {
                store.set_faults(faults.cloned());
                session.attach_store(store);
            }
            Err(e) => {
                let _ = writeln!(warn, "warning: cache disabled: {}: {e}", dir.display());
            }
        }
    }
    Ok(session)
}

/// `rela check` and `rela report`: one job over a snapshot pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckArgs {
    /// The session the job runs in.
    pub session: SessionArgs,
    /// Path to the pre-change snapshot (`--pre`).
    pub pre: PathBuf,
    /// Path to the post-change snapshot (`--post`).
    pub post: PathBuf,
    /// Per-job options (`--no-dedup`, `--no-cache`, `--deadline-ms`) —
    /// the same struct a `rela submit` client serializes over the wire.
    pub job: JobOptions,
    /// How the report is printed.
    pub output: Output,
}

impl CheckArgs {
    fn parse(flags: &Flags, name: &str) -> Result<CheckArgs, CliError> {
        let output = match (name, flags.has("json"), flags.has("csv")) {
            ("check", ..) => Output::Text {
                cache_stats: flags.has("cache-stats"),
            },
            (_, true, true) => return Err(usage_error("pick one of --json or --csv")),
            (_, _, true) => Output::Csv,
            _ => Output::Json,
        };
        Ok(CheckArgs {
            session: SessionArgs::parse(flags)?,
            pre: flags.need("pre")?,
            post: flags.need("post")?,
            job: job_options(flags)?,
            output,
        })
    }

    /// Open a session, run the one job, print its report. Warnings go to
    /// stderr, so stdout is the report alone — machine-readable for
    /// `--json` / `--csv`.
    fn run(&self, out: &mut dyn Write) -> Result<i32, CliError> {
        let session = open_session(
            &self.session,
            self.job.use_cache,
            None,
            &mut std::io::stderr(),
        )?;
        let job = JobSpec::streams(labeled(&self.pre)?, labeled(&self.post)?);
        let report = session.run(job.with_options(self.job)).map_err(job_error)?;
        // a failed flush degrades the next run to cold — warn, don't
        // fail a completed validation over it
        if let Err(e) = session.persist_if_dirty() {
            eprintln!("warning: could not persist cache: {e}");
        }
        let mut text = match self.output {
            Output::Text { .. } => report.to_string(),
            Output::Json => {
                serde_json::to_string_pretty(&report.to_value())
                    .map_err(|e| usage_error(e.to_string()))?
                    + "\n"
            }
            Output::Csv => report.to_csv(),
        };
        if let Output::Text { cache_stats: true } = self.output {
            let stats = report.stats;
            let store = match session.store() {
                Some(store) => format!(
                    "{} warm hits / {} classes, {} loaded, {} recorded, \
                     {} fst memo hits, epoch {}",
                    stats.warm_hits,
                    stats.classes,
                    store.loaded(),
                    store.stats().inserted,
                    stats.fst_memo_hits,
                    store.epoch(),
                ),
                None => format!("disabled, {} fst memo hits", stats.fst_memo_hits),
            };
            let tail = cache_tail(&stats.to_value());
            text.push_str(&format!("cache: {store}, {tail}\n"));
        }
        emit(out, &text)?;
        Ok(if report.is_compliant() { 0 } else { 1 })
    }
}

/// `rela snapshot pack`: convert a snapshot between the JSON and binary
/// containers without decoding records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackArgs {
    /// Source snapshot (`--in`; either container, `.gz` inflates).
    pub input: PathBuf,
    /// Destination path (`--out`).
    pub output: PathBuf,
    /// `--unpack`: emit the JSON container instead of binary.
    pub unpack: bool,
}

impl PackArgs {
    fn parse(flags: &Flags) -> Result<PackArgs, CliError> {
        Ok(PackArgs {
            input: flags.need("in")?,
            output: flags.need("out")?,
            unpack: flags.has("unpack"),
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<i32, CliError> {
        use std::os::unix::fs::MetadataExt;
        let (input, output) = (&self.input, &self.output);
        // creating the output truncates it: packing a file onto itself,
        // or onto a link to it, would destroy the input
        let id = |path: &Path| std::fs::metadata(path).map(|m| (m.dev(), m.ino())).ok();
        if id(input).is_some() && id(input) == id(output) {
            return Err(path_error(output, "--out is the same file as --in"));
        }
        let label = input.display().to_string();
        // the decompressed head says which container `--in` is
        let mut source = open_snapshot(input)?;
        let mut head = Vec::new();
        (&mut source)
            .take(BINARY_MAGIC.len() as u64)
            .read_to_end(&mut head)
            .map_err(|e| path_error(input, e))?;
        let already_binary = head == BINARY_MAGIC;
        let mut framer = SnapshotFramer::new(std::io::Cursor::new(head).chain(source), &label);
        let file = std::fs::File::create(output).map_err(|e| path_error(output, e))?;
        let mut sink = std::io::BufWriter::new(file);
        let fail_out = |e: std::io::Error| path_error(output, e);
        let count = if self.unpack {
            // a record's spans are the JSON writer's bytes, so gluing
            // them reproduces the canonical JSON container
            sink.write_all(b"{\"fecs\":[").map_err(fail_out)?;
            let mut written = 0usize;
            for raw in &mut framer {
                let raw = raw.map_err(invalid_snapshot)?;
                if written > 0 {
                    sink.write_all(b",").map_err(fail_out)?;
                }
                sink.write_all(&raw.json_bytes()).map_err(fail_out)?;
                written += 1;
            }
            sink.write_all(b"]}").map_err(fail_out)?;
            sink.flush().map_err(fail_out)?;
            written
        } else {
            // re-packing RSNB is a cheap span copy, not a re-encode, but
            // the user probably meant to pack a JSON snapshot
            let mut writer = BinarySnapshotWriter::new(sink).map_err(fail_out)?;
            for raw in &mut framer {
                let raw = raw.map_err(invalid_snapshot)?;
                writer.write_raw(&raw.flow, &raw.graph).map_err(fail_out)?;
            }
            let written = writer.written();
            let mut sink = writer.finish().map_err(fail_out)?;
            sink.flush().map_err(fail_out)?;
            if already_binary {
                emit(
                    out,
                    &format!(
                        "warning: {label} is already a binary snapshot; \
                         copying record spans unchanged\n"
                    ),
                )?;
            }
            written
        };
        let container = if self.unpack { "json" } else { "binary" };
        let line = format!(
            "{}: wrote {count} record(s) ({container})\n",
            output.display()
        );
        emit(out, &line).map(|()| 0)
    }
}

/// `rela snapshot diff`: scan a base pair and a new pair, write per-side
/// delta documents for `rela submit --delta-base`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiffArgs {
    /// Base pre-change snapshot (`--base-pre`).
    pub base_pre: PathBuf,
    /// Base post-change snapshot (`--base-post`).
    pub base_post: PathBuf,
    /// New pre-change snapshot (`--pre`).
    pub pre: PathBuf,
    /// New post-change snapshot (`--post`).
    pub post: PathBuf,
    /// Where the pre-side delta document goes (`--out-pre`).
    pub out_pre: PathBuf,
    /// Where the post-side delta document goes (`--out-post`).
    pub out_post: PathBuf,
}

impl SnapshotDiffArgs {
    fn parse(flags: &Flags) -> Result<SnapshotDiffArgs, CliError> {
        Ok(SnapshotDiffArgs {
            base_pre: flags.need("base-pre")?,
            base_post: flags.need("base-post")?,
            pre: flags.need("pre")?,
            post: flags.need("post")?,
            out_pre: flags.need("out-pre")?,
            out_post: flags.need("out-post")?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<i32, CliError> {
        let scan = |path: &Path| scan_side(labeled(path)?.into_framer()).map_err(invalid_snapshot);
        let (base_pre, base_post) = (scan(&self.base_pre)?, scan(&self.base_post)?);
        // the delta names the *pair* epoch, so both base sides are
        // scanned even when only one side changed
        let epoch = pair_epoch(base_pre.fold, base_post.fold);
        let write = |path: &Path, base: &SideScan, new: &SideScan| {
            let diff = diff_side(base, new);
            let file = std::fs::File::create(path).map_err(|e| path_error(path, e))?;
            write_delta(
                std::io::BufWriter::new(file),
                epoch,
                &diff.removed,
                &diff.records,
            )
            .map_err(|e| path_error(path, e))?;
            Ok::<(usize, usize), CliError>((diff.records.len(), diff.removed.len()))
        };
        let (pre_changed, pre_removed) = write(&self.out_pre, &base_pre, &scan(&self.pre)?)?;
        let (post_changed, post_removed) = write(&self.out_post, &base_post, &scan(&self.post)?)?;
        let text = format!(
            "base epoch: {epoch}\n\
             pre delta: {pre_changed} changed/added, {pre_removed} removed\n\
             post delta: {post_changed} changed/added, {post_removed} removed\n"
        );
        emit(out, &text).map(|()| 0)
    }
}

/// `rela diff`: the §2.3 path diff, the manual-inspection baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffArgs {
    /// Path to the location database JSON (`--db`).
    pub db: PathBuf,
    /// Path to the pre-change snapshot (`--pre`).
    pub pre: PathBuf,
    /// Path to the post-change snapshot (`--post`).
    pub post: PathBuf,
    /// Location granularity (`--granularity`).
    pub granularity: Granularity,
}

impl DiffArgs {
    fn parse(flags: &Flags) -> Result<DiffArgs, CliError> {
        Ok(DiffArgs {
            db: flags.need("db")?,
            pre: flags.need("pre")?,
            post: flags.need("post")?,
            granularity: flags.granularity()?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<i32, CliError> {
        let db = load_db(&self.db)?;
        let pair = SnapshotPair::align(&load_snapshot(&self.pre)?, &load_snapshot(&self.post)?);
        let options = DiffOptions {
            granularity: self.granularity,
            ..DiffOptions::default()
        };
        let diff = path_diff(&pair, &db, options);
        let (changed, total) = (diff.len(), diff.total);
        emit(
            out,
            &format!("path diff: {changed} of {total} traffic classes changed\n"),
        )?;
        for entry in &diff.entries {
            emit(out, &format!("{}\n", entry.flow))?;
            for p in &entry.pre_paths {
                emit(out, &format!("  - {}\n", p.join(" ")))?;
            }
            for p in &entry.post_paths {
                emit(out, &format!("  + {}\n", p.join(" ")))?;
            }
        }
        Ok(if diff.is_empty() { 0 } else { 1 })
    }
}

/// `rela cache gc`: prune a verdict-store directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheGcArgs {
    /// The cache directory to prune (`--cache-dir`).
    pub cache_dir: PathBuf,
    /// Spec + location db identifying the *current* epoch (pruning
    /// then drops every other epoch beyond `--keep-epochs`).
    pub spec: Option<PathBuf>,
    /// Location database path (paired with `spec`).
    pub db: Option<PathBuf>,
    /// How many non-current epoch files to keep (default: 0 with a
    /// spec, unlimited without).
    pub keep_epochs: Option<usize>,
    /// Total size cap in bytes for the directory.
    pub max_bytes: Option<u64>,
}

impl CacheGcArgs {
    fn parse(flags: &Flags) -> Result<CacheGcArgs, CliError> {
        Ok(CacheGcArgs {
            cache_dir: flags.need("cache-dir")?,
            spec: flags.path("spec"),
            db: flags.path("db"),
            keep_epochs: flags.number("keep-epochs")?,
            max_bytes: flags.number("max-bytes")?,
        })
    }

    fn run(&self, out: &mut dyn Write) -> Result<i32, CliError> {
        let current = match (&self.spec, &self.db) {
            (Some(spec), Some(db)) => {
                let program =
                    rela_core::parse_program(&read(spec)?).map_err(|e| path_error(spec, e))?;
                Some(rela_core::cache_epoch(&program, &load_db(db)?))
            }
            (None, None) => None,
            _ => {
                return Err(usage_error(
                    "cache gc needs both --spec and --db (or neither)",
                ))
            }
        };
        // defaults: with a current epoch, prune everything else; without
        // one, only explicit limits prune
        let policy = rela_cache::GcPolicy {
            keep_epochs: self.keep_epochs.or(current.map(|_| 0)),
            max_bytes: self.max_bytes,
        };
        let stats = rela_cache::gc(&self.cache_dir, current, &policy)
            .map_err(|e| path_error(&self.cache_dir, e))?;
        let text = format!(
            "cache gc: removed {} file(s) ({} bytes), retained {} file(s) ({} bytes)\n",
            stats.removed_files, stats.removed_bytes, stats.retained_files, stats.retained_bytes
        );
        emit(out, &text).map(|()| 0)
    }
}

/// `rela demo`: write the Figure 1 case study inputs to `dir`.
fn demo(dir: &Path, out: &mut dyn Write) -> Result<i32, CliError> {
    let study = rela_sim::scenarios::case_study();
    std::fs::create_dir_all(dir).map_err(|e| path_error(dir, e))?;
    let write = |name: &str, contents: serde_json::Result<String>| {
        let path = dir.join(name);
        let contents = contents.map_err(|e| usage_error(e.to_string()))?;
        std::fs::write(&path, contents).map_err(|e| path_error(&path, e))
    };
    write("db.json", serde_json::to_string_pretty(&study.topology.db))?;
    write("pre.json", study.pre_snapshot().to_json())?;
    for (ix, iteration) in study.iterations.iter().enumerate() {
        let name = format!("post_{}.json", iteration.name);
        write(&name, study.post_snapshot(ix).to_json())?;
    }
    let refined = format!(
        "{}\nrir sideEffects := pre <= post && post <= (pre | xa .*)\n\
         pspec sideP := (ingress == \"xa\") -> sideEffects\n",
        rela_sim::scenarios::CASE_STUDY_SPEC
    );
    write("change.rela", Ok(refined))?;
    let line = format!(
        "wrote db.json, pre.json, post_v1..v4.json, change.rela to {}\n",
        dir.display()
    );
    emit(out, &line).map(|()| 0)
}
