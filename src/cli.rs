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

use rela_baseline::{path_diff, DiffOptions};

use rela_core::{CheckSession, JobOptions, JobSpec, LabeledSource, SessionConfig};
use rela_net::{
    diff_side, pair_epoch, scan_side, snapshot_source, write_delta, BinarySnapshotWriter,
    Granularity, LocationDb, MmapSource, RecordBody, SideScan, Snapshot, SnapshotEpoch,
    SnapshotFramer, SnapshotPair, BINARY_MAGIC,
};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Everything a `rela serve` daemon holds warm: the session inputs
/// (spec + location db + granularity/threads), the socket it listens
/// on, and an optional verdict-cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Path of the Unix socket to listen on.
    pub socket: PathBuf,
    /// Path to the `.rela` spec program (compiled once at startup).
    pub spec: PathBuf,
    /// Path to the location database JSON (loaded once at startup).
    pub db: PathBuf,
    /// Location granularity the spec compiles at.
    pub granularity: Granularity,
    /// Worker threads per job (0 = auto).
    pub threads: usize,
    /// Persistent verdict-cache directory kept open for the daemon's
    /// lifetime; `None` serves without a cache.
    pub cache_dir: Option<PathBuf>,
    /// How many base snapshot pairs the daemon retains as delta bases
    /// (`--retain-epochs`, default 2). DELTA frames may name any
    /// retained epoch; evicted epochs degrade to a full resubmit.
    pub retain_epochs: usize,
    /// Optional byte budget across the retained bases
    /// (`--retain-bytes`); the newest pair is never evicted.
    pub retain_bytes: Option<u64>,
}

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

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Validate a change spec against a snapshot pair: `rela check`, or
    /// `rela report` when the output is an export.
    Check {
        /// Path to the `.rela` spec program.
        spec: PathBuf,
        /// Path to the location database JSON.
        db: PathBuf,
        /// Path to the pre-change snapshot JSON.
        pre: PathBuf,
        /// Path to the post-change snapshot JSON.
        post: PathBuf,
        /// Location granularity.
        granularity: Granularity,
        /// Worker threads (0 = auto).
        threads: usize,
        /// Per-job options (`--no-dedup`, `--no-cache`, `--deadline-ms`
        /// all fold in here) — the same struct a `rela submit` client
        /// serializes over the wire.
        job: JobOptions,
        /// Persistent verdict-cache directory (`--cache-dir`); `None`
        /// checks from scratch.
        cache_dir: Option<PathBuf>,
        /// How the report is printed.
        output: Output,
    },
    /// Run the resident verification daemon: `rela serve`.
    Serve(ServeConfig),
    /// Submit one check job to a running daemon: `rela submit`.
    Submit {
        /// Path of the daemon's Unix socket.
        socket: PathBuf,
        /// Path to the pre-change snapshot JSON.
        pre: PathBuf,
        /// Path to the post-change snapshot JSON.
        post: PathBuf,
        /// `--delta-pre`/`--delta-post`: per-side delta documents to
        /// send instead of the full pair when the daemon still retains
        /// the base epoch in `job.delta_base` (see `rela snapshot
        /// diff`). The full `pre`/`post` paths stay mandatory — they
        /// are the fallback when the daemon answers `DELTA_MISS`.
        delta: Option<(PathBuf, PathBuf)>,
        /// Per-job options, serialized into the JOB frame.
        job: JobOptions,
        /// `--cache-stats`: print the daemon's warm-hit counters after
        /// the report.
        cache_stats: bool,
        /// `--retries`/`--retry-delay-ms`: transport-failure retry with
        /// jittered exponential backoff.
        retry: crate::client::RetryPolicy,
    },
    /// Probe a running daemon: `rela submit --ping`.
    Ping {
        /// Path of the daemon's Unix socket.
        socket: PathBuf,
    },
    /// Ask a running daemon to drain and exit: `rela submit --shutdown`.
    Shutdown {
        /// Path of the daemon's Unix socket.
        socket: PathBuf,
    },
    /// Cache maintenance: `rela cache gc`.
    CacheGc {
        /// The cache directory to prune.
        cache_dir: PathBuf,
        /// Spec + location db identifying the *current* epoch (pruning
        /// then drops every other epoch beyond `--keep-epochs`).
        spec: Option<PathBuf>,
        /// Location database path (paired with `spec`).
        db: Option<PathBuf>,
        /// How many non-current epoch files to keep (default: 0 with a
        /// spec, unlimited without).
        keep_epochs: Option<usize>,
        /// Total size cap in bytes for the directory.
        max_bytes: Option<u64>,
    },
    /// Convert a snapshot between the JSON and binary containers
    /// without decoding records: `rela snapshot pack`.
    SnapshotPack {
        /// Source snapshot (`--in`; either container, `.gz` inflates).
        input: PathBuf,
        /// Destination path (`--out`).
        output: PathBuf,
        /// `--unpack`: emit the JSON container instead of binary.
        unpack: bool,
    },
    /// Scan a base pair and a new pair, write per-side delta documents
    /// for `rela submit --delta-base`: `rela snapshot diff`.
    SnapshotDiff {
        /// Base pre-change snapshot (`--base-pre`).
        base_pre: PathBuf,
        /// Base post-change snapshot (`--base-post`).
        base_post: PathBuf,
        /// New pre-change snapshot (`--pre`).
        pre: PathBuf,
        /// New post-change snapshot (`--post`).
        post: PathBuf,
        /// Where the pre-side delta document goes (`--out-pre`).
        out_pre: PathBuf,
        /// Where the post-side delta document goes (`--out-post`).
        out_post: PathBuf,
    },
    /// Print the §2.3 path diff (the manual-inspection baseline).
    Diff {
        /// Path to the location database JSON.
        db: PathBuf,
        /// Path to the pre-change snapshot JSON.
        pre: PathBuf,
        /// Path to the post-change snapshot JSON.
        post: PathBuf,
        /// Location granularity.
        granularity: Granularity,
    },
    /// Write the Figure 1 case study inputs to a directory.
    Demo {
        /// Output directory.
        out: PathBuf,
    },
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

fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

/// Map a failed job to its process exit code: 2 for input errors, 4
/// when the job's `--deadline-ms` fired, 5 when the engine panicked
/// (contained at the session boundary).
fn job_error(e: rela_core::JobError) -> CliError {
    use rela_core::JobError;
    let code = match &e {
        JobError::Snapshot(_) => return usage_error(format!("invalid snapshot: {e}")),
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

/// Parse command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let Some((cmd, mut rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    // `cache` and `snapshot` take a subcommand before their flags
    if cmd == "cache" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "gc" => rest = tail,
            Some((sub, _)) => return Err(usage_error(format!("unknown cache subcommand `{sub}`"))),
            None => return Err(usage_error("`cache` needs a subcommand (try `cache gc`)")),
        }
    }
    let mut snapshot_sub = "";
    if cmd == "snapshot" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "pack" || sub == "diff" => {
                snapshot_sub = sub;
                rest = tail;
            }
            Some((sub, _)) => {
                return Err(usage_error(format!("unknown snapshot subcommand `{sub}`")))
            }
            None => {
                return Err(usage_error(
                    "`snapshot` needs a subcommand (try `snapshot pack` or `snapshot diff`)",
                ))
            }
        }
    }
    let name = match (cmd.as_str(), snapshot_sub) {
        ("snapshot", "pack") => "snapshot pack",
        ("snapshot", _) => "snapshot diff",
        ("cache", _) => "cache gc",
        ("help" | "--help" | "-h", _) => "help",
        (own @ ("check" | "serve" | "submit" | "report" | "diff" | "demo"), _) => own,
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
        let value = if *takes_value {
            it.next()
                .ok_or_else(|| usage_error(format!("flag `{flag}` needs a value")))?
                .clone()
        } else {
            "true".to_owned()
        };
        flags.insert(flag.trim_start_matches("--").to_owned(), value);
    }
    let need = |key: &str| -> Result<PathBuf, CliError> {
        flags
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| usage_error(format!("missing required flag `--{key}`")))
    };
    let granularity = match flags.get("granularity").map(String::as_str) {
        None | Some("group") => Granularity::Group,
        Some("device") | Some("router") => Granularity::Device,
        Some("interface") => Granularity::Interface,
        Some(other) => {
            return Err(usage_error(format!(
                "unknown granularity `{other}` (expected group, device, or interface)"
            )))
        }
    };
    // every numeric flag: absent is `None`, a value that does not parse
    // is refused by name
    fn number<T: std::str::FromStr>(
        flags: &BTreeMap<String, String>,
        key: &str,
    ) -> Result<Option<T>, CliError> {
        let parse = |raw: &String| {
            raw.parse()
                .map_err(|_| usage_error(format!("invalid --{key} `{raw}`")))
        };
        flags.get(key).map(parse).transpose()
    }
    // `--no-dedup`/`--no-cache`/`--deadline-ms` all fold into one
    // JobOptions, shared verbatim between the one-shot CLI and the serve
    // wire protocol
    let job_options = |flags: &BTreeMap<String, String>| -> Result<JobOptions, CliError> {
        Ok(JobOptions {
            dedup: !flags.contains_key("no-dedup"),
            use_cache: !flags.contains_key("no-cache"),
            deadline_ms: number(flags, "deadline-ms")?,
            ..JobOptions::default()
        })
    };
    let threads = number(&flags, "threads")?.unwrap_or(0);
    match cmd.as_str() {
        "check" | "report" => {
            let output = match (
                cmd.as_str(),
                flags.contains_key("json"),
                flags.contains_key("csv"),
            ) {
                ("check", ..) => Output::Text {
                    cache_stats: flags.contains_key("cache-stats"),
                },
                (_, true, true) => return Err(usage_error("pick one of --json or --csv")),
                (_, _, true) => Output::Csv,
                _ => Output::Json,
            };
            Ok(Command::Check {
                spec: need("spec")?,
                db: need("db")?,
                pre: need("pre")?,
                post: need("post")?,
                granularity,
                threads,
                job: job_options(&flags)?,
                cache_dir: flags.get("cache-dir").map(PathBuf::from),
                output,
            })
        }
        "serve" => Ok(Command::Serve(ServeConfig {
            socket: need("socket")?,
            spec: need("spec")?,
            db: need("db")?,
            granularity,
            threads,
            cache_dir: flags.get("cache-dir").map(PathBuf::from),
            retain_epochs: number(&flags, "retain-epochs")?.unwrap_or(2),
            retain_bytes: number(&flags, "retain-bytes")?,
        })),
        "submit" => {
            let socket = need("socket")?;
            if flags.contains_key("ping") {
                Ok(Command::Ping { socket })
            } else if flags.contains_key("shutdown") {
                Ok(Command::Shutdown { socket })
            } else {
                let delta_base = match flags.get("delta-base") {
                    None => None,
                    Some(raw) => Some(
                        raw.parse::<SnapshotEpoch>()
                            .map_err(|e| usage_error(format!("invalid --delta-base `{raw}`: {e}")))?
                            .as_u128(),
                    ),
                };
                let delta = match (flags.get("delta-pre"), flags.get("delta-post")) {
                    (Some(pre), Some(post)) => Some((PathBuf::from(pre), PathBuf::from(post))),
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
                let mut job = job_options(&flags)?;
                job.delta_base = delta_base;
                let defaults = crate::client::RetryPolicy::default();
                let retry = crate::client::RetryPolicy {
                    retries: number(&flags, "retries")?.unwrap_or(defaults.retries),
                    delay_ms: number(&flags, "retry-delay-ms")?.unwrap_or(defaults.delay_ms),
                };
                Ok(Command::Submit {
                    socket,
                    pre: need("pre")?,
                    post: need("post")?,
                    delta,
                    job,
                    cache_stats: flags.contains_key("cache-stats"),
                    retry,
                })
            }
        }
        "snapshot" if snapshot_sub == "pack" => Ok(Command::SnapshotPack {
            input: need("in")?,
            output: need("out")?,
            unpack: flags.contains_key("unpack"),
        }),
        "snapshot" => Ok(Command::SnapshotDiff {
            base_pre: need("base-pre")?,
            base_post: need("base-post")?,
            pre: need("pre")?,
            post: need("post")?,
            out_pre: need("out-pre")?,
            out_post: need("out-post")?,
        }),
        "diff" => Ok(Command::Diff {
            db: need("db")?,
            pre: need("pre")?,
            post: need("post")?,
            granularity,
        }),
        "cache" => Ok(Command::CacheGc {
            cache_dir: need("cache-dir")?,
            spec: flags.get("spec").map(PathBuf::from),
            db: flags.get("db").map(PathBuf::from),
            keep_epochs: number(&flags, "keep-epochs")?,
            max_bytes: number(&flags, "max-bytes")?,
        }),
        "demo" => Ok(Command::Demo {
            out: flags
                .get("out")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("fig1-demo")),
        }),
        _ => Ok(Command::Help), // the subset match refused every other name
    }
}

fn read(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| usage_error(format!("{}: {e}", path.display())))
}

fn load_db(path: &Path) -> Result<LocationDb, CliError> {
    serde_json::from_str(&read(path)?)
        .map_err(|e| usage_error(format!("{}: invalid location db: {e}", path.display())))
}

/// Open a snapshot file as a byte source (`.gz` inflates on the fly).
fn open_snapshot(path: &Path) -> Result<Box<dyn Read + Send>, CliError> {
    snapshot_source(path).map_err(|e| usage_error(format!("{}: {e}", path.display())))
}

/// Read a whole snapshot the way every job does: through the streaming
/// reader, so RSNB opens like JSON and a duplicated flow is an error
/// naming its entry and byte, labelled with the path.
fn load_snapshot(path: &Path) -> Result<Snapshot, CliError> {
    Snapshot::from_reader(open_snapshot(path)?).map_err(|e| {
        let e = e.with_source_label(path.display().to_string());
        usage_error(format!("invalid snapshot: {e}"))
    })
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

/// Open a check session — the "open a session, run one job, exit" path
/// `check` shares with a `rela serve` daemon — with an optional verdict
/// store attached. An unopenable store degrades to a
/// cold (cache-free) run with a warning: the cache is an accelerator,
/// never a dependency, so an IO problem must not block or re-label a
/// valid validation.
fn open_session(
    spec: &Path,
    db: &Path,
    granularity: Granularity,
    threads: usize,
    use_cache: bool,
    cache_dir: Option<&Path>,
    out: &mut dyn Write,
) -> Result<CheckSession, CliError> {
    let source = read(spec)?;
    let db = load_db(db)?;
    let mut session = CheckSession::open(
        &source,
        db,
        SessionConfig {
            granularity,
            threads,
            ..SessionConfig::default()
        },
    )
    .map_err(|e| usage_error(format!("{}: {e}", spec.display())))?;
    if let Some(dir) = cache_dir.filter(|_| use_cache) {
        // open-time sweep: stale sibling epochs age out of long-lived
        // change-pipeline directories
        match rela_cache::VerdictStore::open_with_gc(
            dir,
            session.epoch(),
            &rela_cache::GcPolicy::default(),
        ) {
            Ok(store) => session.attach_store(store),
            Err(e) => writeln!(out, "warning: cache disabled: {}: {e}", dir.display())
                .map_err(|e| usage_error(format!("write failed: {e}")))?,
        }
    }
    Ok(session)
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
    let fail = |e: std::io::Error| usage_error(format!("{}: {e}", path.display()));
    let gzip = path.extension().is_some_and(|ext| ext == "gz");
    if gzip || !std::fs::metadata(path).is_ok_and(|m| m.is_file()) {
        return Ok(LabeledSource::new(open_snapshot(path)?, label));
    }
    let file = std::fs::File::open(path).map_err(fail)?;
    let mut head = [0u8; 4];
    if file.read_exact_at(&mut head, 0).is_ok() && head == BINARY_MAGIC {
        let map = MmapSource::map(&file).map_err(fail)?;
        return Ok(LabeledSource::mapped(map, label));
    }
    Ok(LabeledSource::new(file, label))
}

/// Open a snapshot as a record framer: [`labeled`]'s source, framed.
fn open_framer(path: &Path) -> Result<SnapshotFramer<Box<dyn Read + Send + 'static>>, CliError> {
    Ok(labeled(path)?.into_framer())
}

/// Execute a command, writing human output through `out`. Returns the
/// process exit code.
pub fn run(cmd: &Command, out: &mut dyn std::io::Write) -> Result<i32, CliError> {
    let emit = |out: &mut dyn std::io::Write, text: String| -> Result<(), CliError> {
        out.write_all(text.as_bytes())
            .map_err(|e| usage_error(format!("write failed: {e}")))
    };
    match cmd {
        Command::Help => {
            emit(out, format!("{USAGE}\n"))?;
            Ok(0)
        }
        Command::Check {
            spec,
            db,
            pre,
            post,
            granularity,
            threads,
            job,
            cache_dir,
            output,
        } => {
            let session = open_session(
                spec,
                db,
                *granularity,
                *threads,
                job.use_cache,
                cache_dir.as_deref(),
                out,
            )?;
            let report = session
                .run(JobSpec::streams(labeled(pre)?, labeled(post)?).with_options(*job))
                .map_err(job_error)?;
            // a failed flush degrades the next run to cold — warn,
            // don't fail a completed validation over it
            let persisted = session.persist_if_dirty();
            let mut text = match output {
                Output::Text { .. } => report.to_string(),
                Output::Json => {
                    serde_json::to_string_pretty(&report.to_value())
                        .map_err(|e| usage_error(e.to_string()))?
                        + "\n"
                }
                Output::Csv => report.to_csv(),
            };
            if let Err(e) = persisted {
                text.push_str(&format!("warning: could not persist cache: {e}\n"));
            }
            if let Output::Text { cache_stats: true } = output {
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
            emit(out, text)?;
            Ok(if report.is_compliant() { 0 } else { 1 })
        }
        Command::Serve(config) => crate::serve::serve(config, out),
        Command::Submit {
            socket,
            pre,
            post,
            delta,
            job,
            cache_stats,
            retry,
        } => crate::client::submit(
            socket,
            pre,
            post,
            delta.as_ref().map(|(a, b)| (a.as_path(), b.as_path())),
            job,
            *cache_stats,
            retry,
            out,
        ),
        Command::SnapshotPack {
            input,
            output,
            unpack,
        } => {
            let label = input.display().to_string();
            let mut framer = open_framer(input)?;
            let file = std::fs::File::create(output)
                .map_err(|e| usage_error(format!("{}: {e}", output.display())))?;
            let sink = std::io::BufWriter::new(file);
            let fail_out = |e: std::io::Error| usage_error(format!("{}: {e}", output.display()));
            let count = if *unpack {
                // record spans are already the JSON writer's bytes (and
                // binary spans reassemble to them), so splicing the
                // records reproduces the canonical JSON container
                let mut sink = sink;
                sink.write_all(b"{\"fecs\":[").map_err(fail_out)?;
                let mut written = 0usize;
                for raw in &mut framer {
                    let raw = raw.map_err(|e| usage_error(format!("invalid snapshot: {e}")))?;
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
                // re-packing RSNB is a cheap span copy, not a re-encode,
                // but the user probably meant to pack a JSON snapshot
                let mut already_binary = false;
                let mut writer = BinarySnapshotWriter::new(sink).map_err(fail_out)?;
                for raw in &mut framer {
                    let raw = raw.map_err(|e| usage_error(format!("invalid snapshot: {e}")))?;
                    already_binary |= matches!(raw.body, RecordBody::Split { .. });
                    match raw.split_spans(Some(&label)) {
                        Ok((flow, graph)) => writer
                            .write_raw(flow.as_slice(), graph.as_slice())
                            .map_err(fail_out)?,
                        Err(_) => {
                            // non-canonical encoding: decode once and
                            // re-serialize to the canonical spans
                            let (flow, graph) = raw
                                .decode(Some(&label))
                                .map_err(|e| usage_error(format!("invalid snapshot: {e}")))?;
                            writer.write(&flow, &graph).map_err(fail_out)?;
                        }
                    }
                }
                let written = writer.written();
                writer
                    .finish()
                    .map_err(fail_out)?
                    .flush()
                    .map_err(fail_out)?;
                if already_binary {
                    emit(
                        out,
                        format!(
                            "warning: {label} is already a binary snapshot; \
                             copying record spans unchanged\n"
                        ),
                    )?;
                }
                written
            };
            emit(
                out,
                format!(
                    "{}: wrote {} record(s) ({})\n",
                    output.display(),
                    count,
                    if *unpack { "json" } else { "binary" }
                ),
            )?;
            Ok(0)
        }
        Command::SnapshotDiff {
            base_pre,
            base_post,
            pre,
            post,
            out_pre,
            out_post,
        } => {
            let scan = |path: &Path| -> Result<SideScan, CliError> {
                let framer = open_framer(path)?;
                scan_side(framer).map_err(|e| usage_error(format!("invalid snapshot: {e}")))
            };
            let (base_pre, base_post) = (scan(base_pre)?, scan(base_post)?);
            // the delta names the *pair* epoch, so both base sides are
            // scanned even when only one side changed
            let epoch = pair_epoch(base_pre.fold, base_post.fold);
            let write = |path: &Path, base: &SideScan, new: &SideScan| {
                let diff = diff_side(base, new);
                let file = std::fs::File::create(path)
                    .map_err(|e| usage_error(format!("{}: {e}", path.display())))?;
                write_delta(
                    std::io::BufWriter::new(file),
                    epoch,
                    &diff.removed,
                    &diff.records,
                )
                .map_err(|e| usage_error(format!("{}: {e}", path.display())))?;
                Ok::<(usize, usize), CliError>((diff.records.len(), diff.removed.len()))
            };
            let (pre_changed, pre_removed) = write(out_pre, &base_pre, &scan(pre)?)?;
            let (post_changed, post_removed) = write(out_post, &base_post, &scan(post)?)?;
            emit(
                out,
                format!(
                    "base epoch: {epoch}\n\
                     pre delta: {pre_changed} changed/added, {pre_removed} removed\n\
                     post delta: {post_changed} changed/added, {post_removed} removed\n"
                ),
            )?;
            Ok(0)
        }
        Command::Ping { socket } => crate::client::ping(socket, out),
        Command::Shutdown { socket } => crate::client::shutdown(socket, out),
        Command::CacheGc {
            cache_dir,
            spec,
            db,
            keep_epochs,
            max_bytes,
        } => {
            let current = match (spec, db) {
                (Some(spec), Some(db)) => {
                    let source = read(spec)?;
                    let program = rela_core::parse_program(&source)
                        .map_err(|e| usage_error(format!("{}: {e}", spec.display())))?;
                    let db = load_db(db)?;
                    Some(rela_core::cache_epoch(&program, &db))
                }
                (None, None) => None,
                _ => {
                    return Err(usage_error(
                        "cache gc needs both --spec and --db (or neither)",
                    ))
                }
            };
            // defaults: with a current epoch, prune everything else;
            // without one, only explicit limits prune
            let policy = rela_cache::GcPolicy {
                keep_epochs: keep_epochs.or(if current.is_some() { Some(0) } else { None }),
                max_bytes: *max_bytes,
            };
            let stats = rela_cache::gc(cache_dir, current, &policy)
                .map_err(|e| usage_error(format!("{}: {e}", cache_dir.display())))?;
            emit(
                out,
                format!(
                    "cache gc: removed {} file(s) ({} bytes), retained {} file(s) ({} bytes)\n",
                    stats.removed_files,
                    stats.removed_bytes,
                    stats.retained_files,
                    stats.retained_bytes
                ),
            )?;
            Ok(0)
        }
        Command::Diff {
            db,
            pre,
            post,
            granularity,
        } => {
            let db = load_db(db)?;
            let pair = SnapshotPair::align(&load_snapshot(pre)?, &load_snapshot(post)?);
            let diff = path_diff(
                &pair,
                &db,
                DiffOptions {
                    granularity: *granularity,
                    ..DiffOptions::default()
                },
            );
            emit(
                out,
                format!(
                    "path diff: {} of {} traffic classes changed\n",
                    diff.len(),
                    diff.total
                ),
            )?;
            for entry in &diff.entries {
                emit(out, format!("{}\n", entry.flow))?;
                for p in &entry.pre_paths {
                    emit(out, format!("  - {}\n", p.join(" ")))?;
                }
                for p in &entry.post_paths {
                    emit(out, format!("  + {}\n", p.join(" ")))?;
                }
            }
            Ok(if diff.is_empty() { 0 } else { 1 })
        }
        Command::Demo { out: dir } => {
            let study = rela_sim::scenarios::case_study();
            std::fs::create_dir_all(dir)
                .map_err(|e| usage_error(format!("{}: {e}", dir.display())))?;
            let write = |name: &str, contents: String| -> Result<(), CliError> {
                let path = dir.join(name);
                std::fs::write(&path, contents)
                    .map_err(|e| usage_error(format!("{}: {e}", path.display())))
            };
            write(
                "db.json",
                serde_json::to_string_pretty(&study.topology.db)
                    .map_err(|e| usage_error(e.to_string()))?,
            )?;
            write(
                "pre.json",
                study
                    .pre_snapshot()
                    .to_json()
                    .map_err(|e| usage_error(e.to_string()))?,
            )?;
            for (ix, iteration) in study.iterations.iter().enumerate() {
                write(
                    &format!("post_{}.json", iteration.name),
                    study
                        .post_snapshot(ix)
                        .to_json()
                        .map_err(|e| usage_error(e.to_string()))?,
                )?;
            }
            let refined = format!(
                "{}\nrir sideEffects := pre <= post && post <= (pre | xa .*)\n\
                 pspec sideP := (ingress == \"xa\") -> sideEffects\n",
                rela_sim::scenarios::CASE_STUDY_SPEC
            );
            write("change.rela", refined)?;
            emit(
                out,
                format!(
                    "wrote db.json, pre.json, post_v1..v4.json, change.rela to {}\n",
                    dir.display()
                ),
            )?;
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rela_core::IngestMode;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_check_command() {
        let cmd = parse_args(&args(&[
            "check",
            "--spec",
            "s.rela",
            "--db",
            "db.json",
            "--pre",
            "a.json",
            "--post",
            "b.json",
            "--granularity",
            "device",
            "--threads",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Check {
                granularity,
                threads,
                job,
                cache_dir,
                output,
                ..
            } => {
                assert_eq!(granularity, Granularity::Device);
                assert_eq!(threads, 4);
                assert!(job.dedup, "dedup defaults to on");
                assert!(job.use_cache, "the cache is consulted when attached");
                assert_eq!(cache_dir, None, "cache is opt-in");
                assert_eq!(output, Output::Text { cache_stats: false });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cache_flags() {
        let cmd = parse_args(&args(&[
            "check",
            "--spec",
            "s.rela",
            "--db",
            "db.json",
            "--pre",
            "a.json",
            "--post",
            "b.json",
            "--cache-dir",
            ".rela-cache",
            "--no-cache",
            "--cache-stats",
        ]))
        .unwrap();
        match cmd {
            Command::Check {
                cache_dir,
                job,
                output,
                ..
            } => {
                assert_eq!(cache_dir, Some(PathBuf::from(".rela-cache")));
                assert!(!job.use_cache, "--no-cache folds into the job options");
                assert_eq!(output, Output::Text { cache_stats: true });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn no_dedup_switch_needs_no_value() {
        let cmd = parse_args(&args(&[
            "check",
            "--spec",
            "s.rela",
            "--no-dedup",
            "--db",
            "db.json",
            "--pre",
            "a.json",
            "--post",
            "b.json",
        ]))
        .unwrap();
        match cmd {
            Command::Check { job, .. } => assert!(!job.dedup),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_flag_is_usage_error() {
        let err = parse_args(&args(&["check", "--spec", "s.rela"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--db"));
    }

    #[test]
    fn unknown_command_and_granularity() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        let err = parse_args(&args(&[
            "diff",
            "--db",
            "d",
            "--pre",
            "a",
            "--post",
            "b",
            "--granularity",
            "nm",
        ]))
        .unwrap_err();
        assert!(err.message.contains("granularity"));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn demo_then_check_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rela-demo-{}", std::process::id()));
        let mut sink = Vec::new();
        let code = run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();
        assert_eq!(code, 0);

        // v2 must fail (Table 1), v4 must pass
        let check = |post: &str| {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre: dir.join("pre.json"),
                post: dir.join(post),
                granularity: Granularity::Group,
                threads: 1,
                job: JobOptions::default(),
                cache_dir: None,
                output: Output::Text { cache_stats: false },
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let (code, text) = check("post_v2.json");
        assert_eq!(code, 1);
        assert!(text.contains("e2e"), "{text}");
        let (code, text) = check("post_v4.json");
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("PASS"));

        // the diff baseline sees the same change
        let cmd = Command::Diff {
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: Granularity::Group,
        };
        let mut sink = Vec::new();
        let code = run(&cmd, &mut sink).unwrap();
        assert_eq!(code, 1);
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("56 traffic classes"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `snapshot pack` and `--unpack` are idempotent in both
    /// directions: packing an already-binary container is a warned
    /// span copy (byte-identical output), unpacking an already-JSON
    /// container splices the records back verbatim, and a full
    /// pack → unpack round trip reproduces the canonical JSON.
    #[test]
    fn snapshot_pack_is_idempotent_in_both_directions() {
        let dir = std::env::temp_dir().join(format!("rela-packcli-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        let pack = |input: PathBuf, output: PathBuf, unpack: bool| {
            let mut sink = Vec::new();
            let code = run(
                &Command::SnapshotPack {
                    input,
                    output,
                    unpack,
                },
                &mut sink,
            )
            .unwrap();
            assert_eq!(code, 0);
            String::from_utf8(sink).unwrap()
        };

        let json = dir.join("pre.json");
        let rsnb = dir.join("pre.rsnb");
        let text = pack(json.clone(), rsnb.clone(), false);
        assert!(!text.contains("warning"), "{text}");

        // pack-on-binary: warned, byte-identical span copy
        let repacked = dir.join("pre2.rsnb");
        let text = pack(rsnb.clone(), repacked.clone(), false);
        assert!(text.contains("already a binary snapshot"), "{text}");
        assert_eq!(
            std::fs::read(&rsnb).unwrap(),
            std::fs::read(&repacked).unwrap(),
            "re-packing a binary container must copy it byte for byte"
        );

        // unpack reproduces the canonical JSON exactly
        let unpacked = dir.join("back.json");
        pack(rsnb.clone(), unpacked.clone(), true);
        assert_eq!(
            std::fs::read(&json).unwrap(),
            std::fs::read(&unpacked).unwrap(),
            "pack → unpack must round-trip the JSON container"
        );

        // unpack-on-JSON: record splicing is the identity
        let rejsoned = dir.join("back2.json");
        pack(json.clone(), rejsoned.clone(), true);
        assert_eq!(
            std::fs::read(&json).unwrap(),
            std::fs::read(&rejsoned).unwrap(),
            "unpacking a JSON container must reproduce it byte for byte"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The CI `cache-warm` contract, in-process: same snapshot pair
    /// twice with `--cache-dir` ⇒ the second run reports warm hits and
    /// byte-identical verdicts.
    #[test]
    fn cache_dir_makes_second_run_warm_and_identical() {
        let dir = std::env::temp_dir().join(format!("rela-cachecli-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        let check = || {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre: dir.join("pre.json"),
                post: dir.join("post_v2.json"),
                granularity: Granularity::Group,
                threads: 1,
                job: JobOptions::default(),
                cache_dir: Some(dir.join("cache")),
                output: Output::Text { cache_stats: true },
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let (code1, cold) = check();
        let (code2, warm) = check();
        assert_eq!(code1, 1, "{cold}");
        assert_eq!(code2, 1, "{warm}");
        assert!(cold.contains("cache: 0 warm hits"), "{cold}");

        // second run: every class replays from the store
        let warm_line = warm.lines().find(|l| l.starts_with("cache:")).unwrap();
        let warm_hits: usize = warm_line
            .split(" warm hits")
            .next()
            .unwrap()
            .trim_start_matches("cache: ")
            .parse()
            .unwrap();
        assert!(warm_hits > 0, "{warm}");

        // verdicts and counterexamples are byte-identical (timing and
        // cache-counter lines excluded)
        let verdicts = |text: &str| {
            text.lines()
                .filter(|l| {
                    !l.starts_with("checked ")
                        && !l.starts_with("behavior classes:")
                        && !l.starts_with("cache:")
                        && !l.starts_with("warning:")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(verdicts(&cold), verdicts(&warm));

        // an unopenable cache dir degrades to a cold run with a warning
        // (never a usage error: the inputs are all valid)
        let cmd = Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: Some(PathBuf::from("/dev/null/not-a-directory")),
            output: Output::Text { cache_stats: false },
        };
        let mut sink = Vec::new();
        let code = run(&cmd, &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("warning: cache disabled"), "{text}");
        assert_eq!(verdicts(&cold), verdicts(&text));

        // --no-cache leaves the store untouched and still agrees
        let cmd = Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: Granularity::Group,
            threads: 1,
            job: JobOptions {
                use_cache: false,
                ..JobOptions::default()
            },
            cache_dir: Some(dir.join("cache")),
            output: Output::Text { cache_stats: true },
        };
        let mut sink = Vec::new();
        let code = run(&cmd, &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert_eq!(code, 1);
        assert!(text.contains("cache: disabled"), "{text}");
        assert_eq!(verdicts(&cold), verdicts(&text));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The batch engine has no user-facing spelling: `IngestMode` is
    /// API-only, every command line runs the pipelined engine, and
    /// `--no-stream` is a typo like any other.
    #[test]
    fn no_stream_is_refused_as_an_unknown_flag() {
        let files = ["--spec", "s", "--db", "d", "--pre", "a", "--post", "b"];
        match parse_args(&args(&[&["check"][..], &files].concat())).unwrap() {
            Command::Check { job, .. } => assert_eq!(job.ingest, IngestMode::Pipelined),
            other => panic!("unexpected {other:?}"),
        }
        for cmd in [&["check"][..], &["report"], &["submit", "--socket", "s"]] {
            let err =
                parse_args(&args(&[cmd, &files[4..], &["--no-stream"]].concat())).unwrap_err();
            assert_eq!(err.code, 2, "{cmd:?}");
            assert_eq!(err.message, "unknown flag `--no-stream`", "{cmd:?}");
        }
    }

    /// A flag no subcommand defines is refused by name instead of eating
    /// the next argument as its value, and `--threads` must be a number.
    #[test]
    fn unknown_flags_and_bad_thread_counts_are_refused_by_name() {
        let base = &[
            "check", "--spec", "s.rela", "--db", "db.json", "--pre", "a.json", "--post", "b.json",
        ];
        let refused = |extra: &[&str]| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend_from_slice(extra);
            let err = parse_args(&args(&argv)).unwrap_err();
            assert_eq!(err.code, 2, "{extra:?}");
            err.message
        };
        // a typo'd switch used to swallow `--cache-stats` as its value
        assert!(refused(&["--no-strem", "--cache-stats"]).contains("`--no-strem`"));
        assert!(refused(&["--threads", "lots"]).contains("--threads `lots`"));
        // the first unknown flag is the one named, before any later error
        assert!(
            refused(&["--pipeline-dpth", "0", "--threads", "lots", "--ping"])
                .contains("`--pipeline-dpth`")
        );
        // a flag another subcommand owns is refused, not parsed and ignored
        let stray = |argv: &[&str]| {
            let err = parse_args(&args(argv)).unwrap_err();
            assert_eq!(err.code, 2, "{argv:?}");
            err.message
        };
        assert_eq!(
            refused(&["--ping", "--socket", "nowhere", "--unpack"]),
            "flag `--ping` does not apply to `check`"
        );
        let submit = ["submit", "--socket", "s", "--pre", "a", "--post", "b"];
        for owned_elsewhere in [
            &["--spec", "other.rela"][..],
            &["--granularity", "interface"],
            &["--threads", "8"],
            &["--json"],
        ] {
            let flag = owned_elsewhere[0];
            assert_eq!(
                stray(&[&submit[..], owned_elsewhere].concat()),
                format!("flag `{flag}` does not apply to `submit`")
            );
        }
        let diff = ["diff", "--db", "d", "--pre", "a", "--post", "b"];
        assert_eq!(
            stray(&[&diff[..], &["--retries", "7", "--csv"]].concat()),
            "flag `--retries` does not apply to `diff`"
        );
        assert_eq!(
            stray(&["report", "--cache-stats"]),
            "flag `--cache-stats` does not apply to `report`"
        );
        assert_eq!(
            stray(&[
                "snapshot",
                "pack",
                "--in",
                "a",
                "--out",
                "b",
                "--out-pre",
                "c"
            ]),
            "flag `--out-pre` does not apply to `snapshot pack`"
        );
        assert_eq!(
            stray(&["cache", "gc", "--cache-dir", "c", "--no-cache"]),
            "flag `--no-cache` does not apply to `cache gc`"
        );
        // every subcommand still takes all of its own
        parse_args(&args(&[&diff[..], &["--granularity", "device"]].concat())).unwrap();
        parse_args(&args(
            &[
                &submit[..],
                &["--no-dedup", "--cache-stats", "--retries", "3"],
            ]
            .concat(),
        ))
        .unwrap();
    }

    #[test]
    fn serve_and_submit_commands_parse() {
        match parse_args(&args(&[
            "serve",
            "--socket",
            "/tmp/rela.sock",
            "--spec",
            "s.rela",
            "--db",
            "db.json",
            "--cache-dir",
            ".rela-cache",
        ]))
        .unwrap()
        {
            Command::Serve(config) => {
                assert_eq!(config.socket, PathBuf::from("/tmp/rela.sock"));
                assert_eq!(config.granularity, Granularity::Group);
                assert_eq!(config.threads, 0);
                assert_eq!(config.cache_dir, Some(PathBuf::from(".rela-cache")));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&[
            "submit",
            "--socket",
            "/tmp/rela.sock",
            "--pre",
            "a.json",
            "--post",
            "b.json",
            "--no-dedup",
        ]))
        .unwrap()
        {
            Command::Submit { job, .. } => assert!(!job.dedup),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&["submit", "--socket", "s", "--ping"])).unwrap() {
            Command::Ping { socket } => assert_eq!(socket, PathBuf::from("s")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&["submit", "--socket", "s", "--shutdown"])).unwrap() {
            Command::Shutdown { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // a daemonless submit needs the snapshot pair
        let err = parse_args(&args(&["submit", "--socket", "s"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--pre"), "{err}");
        // serve requires a socket path
        let err = parse_args(&args(&["serve", "--spec", "s", "--db", "d"])).unwrap_err();
        assert!(err.message.contains("--socket"), "{err}");
    }

    #[test]
    fn submit_delta_flags_parse_together_or_not_at_all() {
        let epoch = "00000000000000000000000000000abc";
        match parse_args(&args(&[
            "submit",
            "--socket",
            "s",
            "--pre",
            "a.json",
            "--post",
            "b.json",
            "--delta-base",
            epoch,
            "--delta-pre",
            "da.json",
            "--delta-post",
            "db.json",
        ]))
        .unwrap()
        {
            Command::Submit { delta, job, .. } => {
                assert_eq!(
                    delta,
                    Some((PathBuf::from("da.json"), PathBuf::from("db.json")))
                );
                assert_eq!(job.delta_base, Some(0xabc));
            }
            other => panic!("unexpected {other:?}"),
        }
        // a plain submit carries no delta
        match parse_args(&args(&[
            "submit", "--socket", "s", "--pre", "a.json", "--post", "b.json",
        ]))
        .unwrap()
        {
            Command::Submit { delta, job, .. } => {
                assert_eq!(delta, None);
                assert_eq!(job.delta_base, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // one delta path without the other, or paths without a base
        // (and vice versa), are usage errors
        let incomplete: &[&[&str]] = &[
            &["--delta-pre", "da.json"],
            &["--delta-base", epoch],
            &["--delta-pre", "da.json", "--delta-post", "db.json"],
        ];
        for extra in incomplete {
            let mut argv = vec!["submit", "--socket", "s", "--pre", "a", "--post", "b"];
            argv.extend_from_slice(extra);
            assert_eq!(parse_args(&args(&argv)).unwrap_err().code, 2, "{extra:?}");
        }
        // the base must be a 32-hex epoch
        let err = parse_args(&args(&[
            "submit",
            "--socket",
            "s",
            "--pre",
            "a",
            "--post",
            "b",
            "--delta-base",
            "xyz",
            "--delta-pre",
            "da",
            "--delta-post",
            "db",
        ]))
        .unwrap_err();
        assert!(err.message.contains("--delta-base"), "{err}");
    }

    #[test]
    fn snapshot_and_report_commands_parse() {
        match parse_args(&args(&[
            "snapshot", "pack", "--in", "a.json", "--out", "a.rsnb",
        ]))
        .unwrap()
        {
            Command::SnapshotPack {
                input,
                output,
                unpack,
            } => {
                assert_eq!(input, PathBuf::from("a.json"));
                assert_eq!(output, PathBuf::from("a.rsnb"));
                assert!(!unpack);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&[
            "snapshot", "pack", "--in", "a.rsnb", "--out", "a.json", "--unpack",
        ]))
        .unwrap()
        {
            Command::SnapshotPack { unpack, .. } => assert!(unpack),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&[
            "snapshot",
            "diff",
            "--base-pre",
            "bp",
            "--base-post",
            "bq",
            "--pre",
            "p",
            "--post",
            "q",
            "--out-pre",
            "op",
            "--out-post",
            "oq",
        ]))
        .unwrap()
        {
            Command::SnapshotDiff {
                base_pre, out_post, ..
            } => {
                assert_eq!(base_pre, PathBuf::from("bp"));
                assert_eq!(out_post, PathBuf::from("oq"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse_args(&args(&["snapshot"])).unwrap_err().code, 2);
        assert_eq!(
            parse_args(&args(&["snapshot", "unpack"])).unwrap_err().code,
            2
        );

        match parse_args(&args(&[
            "report", "--spec", "s", "--db", "d", "--pre", "a", "--post", "b", "--csv",
        ]))
        .unwrap()
        {
            Command::Check { output, .. } => assert_eq!(output, Output::Csv),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&args(&[
            "report", "--spec", "s", "--db", "d", "--pre", "a", "--post", "b",
        ]))
        .unwrap()
        {
            Command::Check { output, job, .. } => {
                assert_eq!(output, Output::Json, "JSON is the default export");
                assert!(job.dedup);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse_args(&args(&[
            "report", "--spec", "s", "--db", "d", "--pre", "a", "--post", "b", "--json", "--csv",
        ]))
        .unwrap_err();
        assert!(err.message.contains("--json or --csv"), "{err}");
    }

    /// `snapshot pack` then `pack --unpack` is a byte-exact inverse, a
    /// packed snapshot checks identically to its JSON source, and
    /// `report --json/--csv` exports agree with the human verdict.
    #[test]
    fn pack_roundtrips_and_report_exports_agree() {
        use serde::Value;
        let dir = std::env::temp_dir().join(format!("rela-pack-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        // pack both sides to binary, unpack one back to JSON
        for name in ["pre.json", "post_v2.json"] {
            let packed = dir.join(format!("{name}.rsnb"));
            let cmd = Command::SnapshotPack {
                input: dir.join(name),
                output: packed.clone(),
                unpack: false,
            };
            let mut sink = Vec::new();
            assert_eq!(run(&cmd, &mut sink).unwrap(), 0);
            let text = String::from_utf8(sink).unwrap();
            assert!(text.contains("record(s) (binary)"), "{text}");
            assert!(std::fs::metadata(&packed).unwrap().len() > 0);
        }
        let unpacked = dir.join("pre.unpacked.json");
        let cmd = Command::SnapshotPack {
            input: dir.join("pre.json.rsnb"),
            output: unpacked.clone(),
            unpack: true,
        };
        run(&cmd, &mut Vec::new()).unwrap();
        assert_eq!(
            std::fs::read(&unpacked).unwrap(),
            std::fs::read(dir.join("pre.json")).unwrap(),
            "pack → unpack must be byte-exact"
        );

        // a check over the packed pair matches the JSON pair
        let check = |pre: PathBuf, post: PathBuf| {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre,
                post,
                granularity: Granularity::Group,
                threads: 1,
                job: JobOptions::default(),
                cache_dir: None,
                output: Output::Text { cache_stats: false },
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let verdicts = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("checked "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (code_j, json_text) = check(dir.join("pre.json"), dir.join("post_v2.json"));
        let (code_b, bin_text) = check(dir.join("pre.json.rsnb"), dir.join("post_v2.json.rsnb"));
        assert_eq!([code_j, code_b], [1, 1]);
        assert_eq!(verdicts(&json_text), verdicts(&bin_text));

        // report --json agrees with the human verdict and carries stats
        let report = |output: Output| {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre: dir.join("pre.json"),
                post: dir.join("post_v2.json"),
                granularity: Granularity::Group,
                threads: 1,
                job: JobOptions::default(),
                cache_dir: None,
                output,
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let (code, json) = report(Output::Json);
        assert_eq!(code, 1);
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("verdict").and_then(Value::as_str), Some("FAIL"));
        assert!(value.get("stats").and_then(|s| s.get("fecs")).is_some());
        let (code, csv) = report(Output::Csv);
        assert_eq!(code, 1);
        assert!(csv.starts_with("flow,check,route,part,detail"), "{csv}");
        assert!(csv.lines().count() > 1, "{csv}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `snapshot diff` emits per-side delta documents whose base epoch
    /// both sides share, and an unchanged side diffs to empty.
    #[test]
    fn snapshot_diff_writes_delta_documents() {
        let dir = std::env::temp_dir().join(format!("rela-sdiff-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        let cmd = Command::SnapshotDiff {
            base_pre: dir.join("pre.json"),
            base_post: dir.join("post_v2.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v4.json"),
            out_pre: dir.join("delta_pre.json"),
            out_post: dir.join("delta_post.json"),
        };
        let mut sink = Vec::new();
        assert_eq!(run(&cmd, &mut sink).unwrap(), 0);
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("base epoch: "), "{text}");
        assert!(
            text.contains("pre delta: 0 changed/added, 0 removed"),
            "{text}"
        );

        let epoch = text
            .lines()
            .next()
            .unwrap()
            .trim_start_matches("base epoch: ")
            .to_owned();
        let pre_delta = rela_net::SnapshotDelta::from_reader(
            std::fs::File::open(dir.join("delta_pre.json")).unwrap(),
            "delta_pre.json",
        )
        .unwrap();
        let post_delta = rela_net::SnapshotDelta::from_reader(
            std::fs::File::open(dir.join("delta_post.json")).unwrap(),
            "delta_post.json",
        )
        .unwrap();
        assert_eq!(pre_delta.base.to_string(), epoch);
        assert_eq!(post_delta.base, pre_delta.base);
        assert!(pre_delta.records.is_empty() && pre_delta.removed.is_empty());
        assert!(
            !post_delta.records.is_empty(),
            "v2 → v4 changes post-side records"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_gc_parses_and_prunes() {
        match parse_args(&args(&["cache", "gc", "--cache-dir", "d"])).unwrap() {
            Command::CacheGc {
                cache_dir,
                spec,
                keep_epochs,
                max_bytes,
                ..
            } => {
                assert_eq!(cache_dir, PathBuf::from("d"));
                assert_eq!(spec, None);
                assert_eq!(keep_epochs, None);
                assert_eq!(max_bytes, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse_args(&args(&["cache"])).unwrap_err().code, 2);
        assert_eq!(parse_args(&args(&["cache", "prune"])).unwrap_err().code, 2);

        // end to end: populate a store via check, gc with the live spec
        // keeps it, a superseded epoch file is dropped
        let dir = std::env::temp_dir().join(format!("rela-cligc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();
        let cache_dir = dir.join("cache");
        let check = Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: dir.join("post_v2.json"),
            granularity: Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: Some(cache_dir.clone()),
            output: Output::Text { cache_stats: false },
        };
        run(&check, &mut Vec::new()).unwrap();
        // plant a superseded epoch file
        let stale = cache_dir.join(format!("verdicts-{:032x}.json", 7));
        std::fs::write(&stale, "{}").unwrap();
        let gc = Command::CacheGc {
            cache_dir: cache_dir.clone(),
            spec: Some(dir.join("change.rela")),
            db: Some(dir.join("db.json")),
            keep_epochs: None,
            max_bytes: None,
        };
        let mut sink = Vec::new();
        assert_eq!(run(&gc, &mut sink).unwrap(), 0);
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("removed 1 file(s)"), "{text}");
        assert!(!stale.exists());
        // the live epoch still replays warm
        let mut sink = Vec::new();
        run(&check, &mut sink).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pipelined (default) and materialized (`IngestMode::Materialized`)
    /// runs over the same files — plus a gzipped copy through the
    /// pipelined path —
    /// produce byte-identical reports and the same exit code.
    #[test]
    fn pipelined_materialized_and_gz_checks_agree() {
        use flate2::{write::GzEncoder, Compression};
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("rela-pipe-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        // gzip the snapshot pair
        for name in ["pre.json", "post_v2.json"] {
            let text = std::fs::read(dir.join(name)).unwrap();
            let mut enc = GzEncoder::new(Vec::new(), Compression::default());
            enc.write_all(&text).unwrap();
            std::fs::write(dir.join(format!("{name}.gz")), enc.finish().unwrap()).unwrap();
        }

        let check = |pre: &str, post: &str, ingest: IngestMode| {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre: dir.join(pre),
                post: dir.join(post),
                granularity: Granularity::Group,
                threads: 2,
                job: JobOptions {
                    ingest,
                    ..JobOptions::default()
                },
                cache_dir: None,
                output: Output::Text { cache_stats: false },
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let verdicts = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("checked "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let (code_p, piped) = check("pre.json", "post_v2.json", IngestMode::Pipelined);
        let (code_m, materialized) = check("pre.json", "post_v2.json", IngestMode::Materialized);
        let (code_z, gz) = check("pre.json.gz", "post_v2.json.gz", IngestMode::Pipelined);
        assert_eq!([code_p, code_m, code_z], [1, 1, 1]);
        assert_eq!(verdicts(&piped), verdicts(&materialized));
        assert_eq!(verdicts(&piped), verdicts(&gz));

        // a malformed gz stream is an input error naming the file
        let gz_path = dir.join("pre.json.gz");
        let bytes = std::fs::read(&gz_path).unwrap();
        std::fs::write(&gz_path, &bytes[..bytes.len() / 2]).unwrap();
        let cmd = Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: gz_path.clone(),
            post: dir.join("post_v2.json"),
            granularity: Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Text { cache_stats: false },
        };
        let err = run(&cmd, &mut Vec::new()).expect_err("truncated gz");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("pre.json.gz"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Streamed (default) and materialized runs over the same files
    /// produce byte-identical reports and the same exit code.
    #[test]
    fn streamed_and_materialized_checks_agree() {
        let dir = std::env::temp_dir().join(format!("rela-stream-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = Vec::new();
        run(&Command::Demo { out: dir.clone() }, &mut sink).unwrap();

        let check = |ingest: IngestMode| {
            let cmd = Command::Check {
                spec: dir.join("change.rela"),
                db: dir.join("db.json"),
                pre: dir.join("pre.json"),
                post: dir.join("post_v2.json"),
                granularity: Granularity::Group,
                threads: 1,
                job: JobOptions {
                    ingest,
                    ..JobOptions::default()
                },
                cache_dir: None,
                output: Output::Text { cache_stats: false },
            };
            let mut sink = Vec::new();
            let code = run(&cmd, &mut sink).unwrap();
            (code, String::from_utf8(sink).unwrap())
        };
        let (code_s, streamed) = check(IngestMode::Pipelined);
        let (code_m, materialized) = check(IngestMode::Materialized);
        assert_eq!(code_s, 1);
        assert_eq!(code_m, 1);
        let verdicts = |text: &str| {
            text.lines()
                .filter(|l| !l.starts_with("checked "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(verdicts(&streamed), verdicts(&materialized));

        // a malformed snapshot is an input error (2) whose message names
        // the failing entry and the offending file
        let truncated = dir.join("truncated.json");
        let text = std::fs::read_to_string(dir.join("post_v2.json")).unwrap();
        std::fs::write(&truncated, &text[..text.len() * 2 / 3]).unwrap();
        let cmd = Command::Check {
            spec: dir.join("change.rela"),
            db: dir.join("db.json"),
            pre: dir.join("pre.json"),
            post: truncated.clone(),
            granularity: Granularity::Group,
            threads: 1,
            job: JobOptions::default(),
            cache_dir: None,
            output: Output::Text { cache_stats: false },
        };
        let mut sink = Vec::new();
        let err = run(&cmd, &mut sink).expect_err("truncated snapshot");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("invalid snapshot"), "{err}");
        assert!(err.message.contains("truncated.json"), "{err}");
        assert!(err.message.contains("entry #"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
